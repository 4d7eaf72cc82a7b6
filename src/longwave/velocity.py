"""Pointwise wave velocity, mean-column velocity closure, and the
steady-flow pressure-balance residual.

The pointwise velocity formula divides by h, so samples where |h| falls
below a relative threshold are masked rather than trusted; reductions
must exclude masked entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import PhysicalParams, WaveField, dispersion_sigma
from .operators import antiderivative, diff

__all__ = [
    "MaskedSamples",
    "BernoulliResidual",
    "VelocityDiagnostics",
    "omega_pointwise",
    "omega_from_mass_flux",
    "mean_velocity_U",
    "bernoulli_residual",
    "velocity_diagnostics",
]

#: Relative |h| threshold below which velocity samples are masked.
MASK_THRESHOLD = 1e-6


@dataclass(frozen=True)
class MaskedSamples:
    """Per-gridpoint values with a validity mask (True = trustworthy)."""

    values: np.ndarray
    mask: np.ndarray

    @property
    def valid(self) -> np.ndarray:
        return self.values[self.mask]


@dataclass(frozen=True)
class BernoulliResidual:
    samples: np.ndarray
    spread: float


@dataclass(frozen=True)
class VelocityDiagnostics:
    omega: MaskedSamples
    U: np.ndarray
    bernoulli: BernoulliResidual


def _masked(h: np.ndarray) -> np.ndarray:
    peak = np.max(np.abs(h))
    if peak == 0.0:
        return np.zeros(h.shape, dtype=bool)
    return np.abs(h) > MASK_THRESHOLD * peak


def omega_pointwise(field: WaveField, params: PhysicalParams,
                    scheme: str = "spectral") -> MaskedSamples:
    """Local wave velocity sqrt(gH) (1 + 3h/(4H) + sigma h_xx/(2Hh)) [m/s].

    sigma = dispersion_sigma(params), so at T = 0 the last term is
    H^2 h_xx/(6h).  Constant exactly on a steady profile of the
    unidirectional equation; the pointwise variation of a
    general field is what deforms it.  Entries with |h| below
    MASK_THRESHOLD * max|h| are masked (the formula is singular at h = 0).
    """
    g, H = params.g, params.H
    h = field.h
    hxx = diff(h, field.grid.L, 2, scheme)
    mask = _masked(h)
    omega = np.full(h.shape, np.nan)
    c0 = np.sqrt(g * H)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = c0 * (1.0 + 0.75 * h / H + dispersion_sigma(params) / (2.0 * H) * hxx / h)
    omega[mask] = vals[mask]
    return MaskedSamples(values=omega, mask=mask)


def omega_from_mass_flux(before: WaveField, after: WaveField,
                         params: PhysicalParams,
                         scheme: str = "spectral") -> MaskedSamples:
    """Wave velocity recovered from mass conservation, omega = flux/h.

    dh/dt is the two-snapshot difference quotient (centered at the
    midpoint time) and the flux is its periodic antiderivative anchored
    at the sample of minimum |h|, the best-conditioned zero of the flux
    on a torus.  The mean of dh/dt is discarded: mass conservation makes
    it vanish for genuine evolution pairs.
    """
    if before.grid != after.grid:
        raise ValueError("snapshots live on different grids")
    dt = after.t - before.t
    if not (dt > 0):
        raise ValueError(f"need after.t > before.t, got dt = {dt}")
    h_t = (after.h - before.h) / dt
    h_mid = 0.5 * (before.h + after.h)
    F = antiderivative(-h_t, before.grid.L, scheme)
    j0 = int(np.argmin(np.abs(h_mid)))
    F = F - F[j0]
    mask = _masked(h_mid)
    omega = np.full(h_mid.shape, np.nan)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = F / h_mid
    omega[mask] = vals[mask]
    return MaskedSamples(values=omega, mask=mask)


def mean_velocity_U(field: WaveField, omega_const: float,
                    params: PhysicalParams) -> np.ndarray:
    """Column-mean horizontal velocity omega h/(H + h) [m/s] (exact form).

    Follows from flux conservation in the frame of the wave.  Raises on
    dry points (H + h <= 0).
    """
    depth = params.H + field.h
    if np.any(depth <= 0):
        raise ValueError("dry point: H + h <= 0 somewhere on the grid")
    return omega_const * field.h / depth


def bernoulli_residual(field: WaveField, omega_const: float,
                       params: PhysicalParams) -> BernoulliResidual:
    """Steady-flow pressure-balance samples and their spread.

    Evaluates -omega U + g h + U^2/2 + (H omega^2/3 - T/rho) h_xx pointwise
    with the exact U closure; -T h_xx/rho is the capillary pressure of the
    curved surface.  On an exact steady profile the samples are
    constant up to terms cubic in the amplitude, so the spread
    (max - min) is an amplitude-cubed diagnostic; it contains the
    integration constant only as a common offset.  h is the elevation
    relative to the reference level (any constant shift of the datum
    folds into that offset).
    """
    g, H = params.g, params.H
    h = field.h
    U = mean_velocity_U(field, omega_const, params)
    hxx = diff(h, field.grid.L, 2)
    samples = (-omega_const * U + g * h + 0.5 * U * U
               + (H * omega_const ** 2 / 3.0 - params.T / params.rho) * hxx)
    return BernoulliResidual(samples=samples, spread=float(samples.max() - samples.min()))


def velocity_diagnostics(field: WaveField, params: PhysicalParams,
                         omega_const: float) -> VelocityDiagnostics:
    """Bundle of all three velocity diagnostics for one field (spectral derivatives)."""
    return VelocityDiagnostics(
        omega=omega_pointwise(field, params),
        U=mean_velocity_U(field, omega_const, params),
        bernoulli=bernoulli_residual(field, omega_const, params),
    )
