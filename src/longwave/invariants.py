"""Conserved functionals of the unidirectional wave motion.

Mass Q = int h dx, energy E = int h^2 dx, the stability moment
M = int ((h_x)^2 - h^3/sigma) dx, the Hamiltonian
Hfun = int (h^2/2 + eps ((h_x)^2 - h^3/sigma)) dx = E/2 + eps*M,
and the centre-of-gravity velocity, where sigma = H^3/3 - T H/(rho g) is
the dispersion parameter of the unidirectional equation
(dispersion_sigma).  With the canonical scale eps = -sigma/(4H) the
Hamiltonian flow -sqrt(gH) d/dx dHfun/dh reproduces the unidirectional
evolution equation exactly; the operation accepts any eps so the
identity can be demonstrated rather than assumed.  The Hamiltonian, its
variational derivative, its flow and the critical-point certificate
differentiate spectrally.  At the critical depth sigma = 0 the equation
has no dispersion and M does not exist: every function that divides by
sigma raises ValueError there.  The bidirectional energy is pure
gravity, as the bidirectional equation is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import PeriodicGrid, PhysicalParams, WaveField, dispersion_sigma
from .operators import antiderivative, diff, integrate

__all__ = [
    "InvariantSet",
    "canonical_epsilon",
    "compute_invariants",
    "invariant_rows",
    "hamiltonian_functional",
    "variational_derivative",
    "hamiltonian_flow_rhs",
    "critical_point_residual",
    "conservation_drift",
    "boussinesq_energy",
    "boussinesq_energy_rows",
]

#: Relative floor under which drifts are reported in absolute terms.
DRIFT_FLOOR = 1e-14


@dataclass(frozen=True)
class InvariantSet:
    """Conserved diagnostics of one field snapshot.

    xg_dot is None when the mass Q is too close to zero for the centroid
    to be defined.
    """

    Q: float
    E: float
    M: float
    Hfun: float
    xg_dot: float | None
    t: float


def canonical_epsilon(params: PhysicalParams) -> float:
    """The unique scale -sigma/(4H) matching the Hamiltonian flow to kdv_rhs.

    At T = 0 this is -H^2/12.
    """
    return -dispersion_sigma(params) / (4.0 * params.H)


def _sigma(params: PhysicalParams) -> float:
    """The nonzero dispersion parameter that M and its derivative divide by [m^3]."""
    sigma = dispersion_sigma(params)
    if sigma == 0.0:
        raise ValueError("sigma = 0 at the critical depth: the unidirectional equation "
                         "has no dispersion there and no stability moment M")
    return sigma


def invariant_rows(h: np.ndarray, grid: PeriodicGrid, params: PhysicalParams,
                   times: Sequence[float], epsilon: float | None = None,
                   scheme: str = "spectral",
                   h_t: np.ndarray | None = None) -> list[InvariantSet]:
    """compute_invariants of each row of h, the snapshot at times[i], in one pass.

    h is one row of samples (N,) or a stack of them (S, N), and h_t, if
    given, holds their time derivatives alike.  Every transform, product
    and last-axis sum acts on all rows at once and gives each row the
    bits it gets alone.
    """
    if epsilon is None:
        epsilon = canonical_epsilon(params)
    L, H = grid.L, params.H
    dx = L / grid.N
    hx = diff(h, L, 1, scheme)
    Q = h.sum(axis=-1) * dx
    E = (h * h).sum(axis=-1) * dx
    M = (hx * hx - h ** 3 / _sigma(params)).sum(axis=-1) * dx
    Hfun = 0.5 * E + epsilon * M

    # four lists of floats, one entry per row, for one row or a stack alike
    Q, E, M, Hfun = np.array([Q, E, M, Hfun]).reshape(4, -1).tolist()
    # the centroid of a row with |Q| <= 1e-12 H L is not defined
    centroid = [abs(q) > 1e-12 * H * L for q in Q]
    moment = [0.0] * len(Q)
    if any(centroid):
        if h_t is None:
            # deferred: avoids module cycle
            from .evolution import SchemeConfig, _grid_rhs, _symbols_for
            h_t = _grid_rhs(*_symbols_for(grid, params, SchemeConfig(deriv=scheme)), h)
        moment = np.array((grid.x * h_t).sum(axis=-1) * dx, ndmin=1).tolist()
    # Q is conserved by the flux form, so d/dt(centroid) = int x h_t / Q
    return [InvariantSet(Q=q, E=e, M=m, Hfun=hf, xg_dot=xq / q if c else None, t=t)
            for q, e, m, hf, xq, c, t in zip(Q, E, M, Hfun, moment, centroid, times)]


def compute_invariants(field: WaveField, params: PhysicalParams,
                       epsilon: float | None = None, scheme: str = "spectral",
                       h_t: np.ndarray | None = None) -> InvariantSet:
    """Evaluate all conserved functionals of a field snapshot.

    Quadrature is the periodic rectangle rule.  The centroid velocity is
    d/dt [int x h dx / Q] with the time derivative taken through the
    evolution right-hand side; pass h_t to use the actual dynamics of a
    run (e.g. the bidirectional model), otherwise the fixed-frame
    unidirectional RHS is used.  xg_dot is absent when
    |Q| <= 1e-12 * H * L.  The centroid uses the grid chart
    [-L/2, L/2), so its value is meaningful only while the wave's
    support stays clear of the periodic seam.  This is the one-row case
    of invariant_rows.
    """
    return invariant_rows(field.h, field.grid, params, [field.t], epsilon, scheme, h_t)[0]


def hamiltonian_functional(field: WaveField, params: PhysicalParams,
                           epsilon: float | None = None) -> float:
    """Hfun(h) = int (h^2/2 + eps ((h_x)^2 - h^3/sigma)) dx  [m^3]."""
    if epsilon is None:
        epsilon = canonical_epsilon(params)
    h = field.h
    hx = diff(h, field.grid.L, 1)
    dens = 0.5 * h * h + epsilon * (hx * hx - h ** 3 / _sigma(params))
    return integrate(dens, field.grid.L)


def variational_derivative(field: WaveField, params: PhysicalParams,
                           epsilon: float | None = None) -> np.ndarray:
    """Euler-Lagrange derivative h + eps(-2 h_xx - 3 h^2/sigma) of Hfun [m]."""
    if epsilon is None:
        epsilon = canonical_epsilon(params)
    h = field.h
    hxx = diff(h, field.grid.L, 2)
    return h + epsilon * (-2.0 * hxx - 3.0 * h * h / _sigma(params))


def hamiltonian_flow_rhs(field: WaveField, params: PhysicalParams,
                         epsilon: float | None = None) -> np.ndarray:
    """dh/dt = -sqrt(gH) d/dx [dHfun/dh]  [m/s]."""
    v = variational_derivative(field, params, epsilon)
    return -np.sqrt(params.g * params.H) * diff(v, field.grid.L, 1)


def critical_point_residual(field: WaveField, params: PhysicalParams) -> tuple[float, float]:
    """Constrained-critical-point certificate for steady solitary waves.

    Evaluates r(x) = (-2 h_xx - 3 h^2/sigma) / (2 h) where |h| exceeds
    1e-8 * max|h| and returns (mean, relative spread).  A steady
    solitary wave makes r constant: the mean is the Lagrange multiplier
    -h0/sigma of the stability-moment extremum at fixed energy (-3 h0/H^3
    at T = 0), and the spread is at roundoff level.
    """
    h = field.h
    peak = np.max(np.abs(h))
    if peak == 0.0:
        raise ValueError("zero field: all points masked")
    mask = np.abs(h) > 1e-8 * peak
    if not np.any(mask):
        raise ValueError("all points masked; field too flat for the certificate")
    hxx = diff(h, field.grid.L, 2)
    r = (-2.0 * hxx[mask] - 3.0 * h[mask] ** 2 / _sigma(params)) / (2.0 * h[mask])
    lam = float(r.mean())
    denom = abs(lam) if lam != 0.0 else 1.0
    spread = float((r.max() - r.min()) / denom)
    return lam, spread


def conservation_drift(series: Sequence[InvariantSet]) -> dict[str, float]:
    """Max relative drift of each invariant over a time series.

    Drift of I is max_t |I(t) - I(0)| / |I(0)|, or the absolute drift
    max_t |I(t) - I(0)| when |I(0)| is below DRIFT_FLOOR (the mass of a
    zero-mean field, say).  xg_dot is included only when defined on
    every snapshot.
    """
    if not series:
        raise ValueError("empty invariant series")
    names = ["Q", "E", "M", "Hfun"]
    if all(s.xg_dot is not None for s in series):
        names.append("xg_dot")
    out: dict[str, float] = {}
    for name in names:
        v0 = getattr(series[0], name)
        denom = abs(v0) if abs(v0) >= DRIFT_FLOOR else 1.0
        out[name] = max(abs(getattr(s, name) - v0) for s in series) / denom
    return out


def boussinesq_energy_rows(h: np.ndarray, v: np.ndarray, L: float,
                           params: PhysicalParams) -> np.ndarray:
    """boussinesq_energy of each row pair of h and v, one row (N,) or a stack (S, N) each."""
    g, H = params.g, params.H
    w = antiderivative(v, L)
    hx = diff(h, L, 1)
    dens = 0.5 * w * w + 0.5 * g * H * h * h + 0.5 * g * h ** 3 - g * H ** 3 / 6.0 * hx * hx
    return dens.sum(axis=-1) * (L / h.shape[-1])


def boussinesq_energy(h_field: WaveField, v_field: WaveField,
                      params: PhysicalParams) -> float:
    """Conserved energy of the bidirectional model in first-order form.

    E = int [ w^2/2 + g H h^2/2 + g h^3/2 - g H^3 (h_x)^2/6 ] dx with
    w the periodic antiderivative of v = h_t.  v must be (numerically)
    zero-mean, which the bidirectional RHS preserves.  Not sign-definite:
    the model is only well-posed on low wavenumbers.  Pure gravity, as the
    bidirectional equation is: T does not enter.  This is the one-row
    case of boussinesq_energy_rows.
    """
    if h_field.grid != v_field.grid:
        raise ValueError("h and v fields must share a grid")
    return float(boussinesq_energy_rows(h_field.h, v_field.h, h_field.grid.L, params))
