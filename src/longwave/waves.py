"""Closed-form steady waves: the solitary sech^2 wave and the periodic
cnoidal wave, their propagation speeds, and the first-integral ODE
residuals that certify each profile as an exact steady solution.

Profile functions accept scalar or array abscissae.  The solitary wave
is written in the capillary form h0*sech^2(sqrt(h0/(4 sigma)) x); with
T = 0 (sigma = H^3/3) this is the classical pure-gravity profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .elliptic import complete_K, jacobi_cn_sn_dn, sech_sq
from .model import PeriodicGrid, WaveField

__all__ = [
    "SolitarySpec",
    "CnoidalSpec",
    "solitary_profile",
    "solitary_speed",
    "rayleigh_speed",
    "steady_ode_residual_solitary",
    "cnoidal_profile",
    "cnoidal_wavelength",
    "cnoidal_ode_residual",
    "boussinesq_periodic_speed",
    "cnoidal_alpha",
    "solitary_field",
    "cnoidal_field",
    "grid_for_cnoidal",
]


@dataclass(frozen=True)
class SolitarySpec:
    """Solitary wave of crest amplitude h0 over depth H.

    h0 and sigma must have the same sign: elevation waves exist for
    sigma > 0, depression waves for sigma < 0.  No steady solitary wave
    exists otherwise.
    """

    h0: float
    sigma: float
    H: float
    g: float = 9.81

    def __post_init__(self):
        if not (self.H > 0 and self.g > 0):
            raise ValueError("H and g must be positive")
        if self.h0 == 0.0 or not (self.h0 * self.sigma > 0):
            raise ValueError(
                f"h0*sigma must be positive (h0={self.h0}, sigma={self.sigma}); "
                "elevation waves need sigma > 0, depression waves sigma < 0"
            )

    @property
    def inv_width(self) -> float:
        """Profile decay rate sqrt(h0/(4 sigma)) [1/m]."""
        return math.sqrt(self.h0 / (4.0 * self.sigma))


@dataclass(frozen=True)
class CnoidalSpec:
    """Periodic steady wave with trough-to-crest height l and root -k.

    l and -k are the two finite roots of the steady-wave cubic; k -> 0
    recovers the solitary wave and l -> 0 the sinusoidal limit.  The
    elliptic parameter is m = l/(l+k).
    """

    k: float
    l: float
    sigma: float
    H: float
    g: float = 9.81

    def __post_init__(self):
        if not (self.k > 0 and self.l > 0):
            raise ValueError("roots k and l must be positive")
        if not (self.sigma > 0):
            raise ValueError("cnoidal waves require sigma > 0")
        if not (self.H > 0 and self.g > 0):
            raise ValueError("H and g must be positive")

    @property
    def m(self) -> float:
        """Elliptic parameter l/(l+k) in (0, 1)."""
        return self.l / (self.l + self.k)

    @property
    def beta(self) -> float:
        """Argument scale sqrt((l+k)/(4 sigma)) [1/m]."""
        return math.sqrt((self.l + self.k) / (4.0 * self.sigma))


def solitary_profile(spec: SolitarySpec, x):
    """Elevation h0*sech^2(sqrt(h0/(4 sigma)) x) at abscissa x [m]."""
    return spec.h0 * sech_sq(spec.inv_width * np.asarray(x, dtype=float))


def solitary_speed(spec: SolitarySpec) -> float:
    """Wave speed sqrt(g H) + (1/2) sqrt(g/H) h0 [m/s].

    The amplitude term corrects the Lagrange long-wave speed; taller
    waves travel faster.
    """
    return math.sqrt(spec.g * spec.H) + 0.5 * math.sqrt(spec.g / spec.H) * spec.h0


def rayleigh_speed(g: float, H: float, h0: float) -> float:
    """Unapproximated steady-wave speed sqrt(g (H + h0)) [m/s].

    Agrees with solitary_speed to first order in h0; the gap is O(h0^2).
    """
    if not (H + h0 > 0):
        raise ValueError(f"H + h0 must be positive, got {H + h0}")
    return math.sqrt(g * (H + h0))


def steady_ode_residual_solitary(spec: SolitarySpec, x):
    """First-integral residual (dh/dx)^2 - h^2 (h0 - h)/sigma on the profile.

    Derivatives are analytic (no grid).  The result is normalized by
    h0^3/sigma, which is positive by the spec invariant; an exact profile
    gives values at roundoff level (<= 1e-12).
    """
    q = spec.inv_width
    u = q * np.asarray(x, dtype=float)
    s2 = sech_sq(u)
    h = spec.h0 * s2
    t = np.tanh(u)
    dhdx = -2.0 * q * spec.h0 * s2 * t
    resid = dhdx ** 2 - h * h * (spec.h0 - h) / spec.sigma
    return resid / (spec.h0 ** 3 / spec.sigma)


def cnoidal_profile(spec: CnoidalSpec, xi):
    """Elevation above the trough level: l*cn^2(beta xi | m), m = l/(l+k).

    The crest sits at xi = 0 under this phase convention; use the phase
    argument of cnoidal_field to place it elsewhere.
    """
    cn, _, _ = jacobi_cn_sn_dn(spec.beta * np.asarray(xi, dtype=float), spec.m)
    return spec.l * cn * cn


def cnoidal_wavelength(spec: CnoidalSpec) -> float:
    """Spatial period 4 K(m) sqrt(sigma/(l+k)) [m]."""
    return 4.0 * complete_K(spec.m) * math.sqrt(spec.sigma / (spec.l + spec.k))


def cnoidal_ode_residual(spec: CnoidalSpec, xi):
    """Residual (dh/dxi)^2 - (1/sigma)(h+k) h (l-h) on the cn^2 profile.

    Analytic derivative via the cn' = -sn dn product rule; normalized by
    (l+k)^3/sigma.  This residual is the oracle that pins the elliptic
    parameter to l/(l+k): any other parameter leaves an O(1) residual.
    """
    u = spec.beta * np.asarray(xi, dtype=float)
    cn, sn, dn = jacobi_cn_sn_dn(u, spec.m)
    h = spec.l * cn * cn
    dh = -2.0 * spec.l * spec.beta * cn * sn * dn
    resid = dh * dh - (h + spec.k) * h * (spec.l - h) / spec.sigma
    return resid / ((spec.l + spec.k) ** 3 / spec.sigma)


def boussinesq_periodic_speed(spec: CnoidalSpec) -> float:
    """Periodic-wave speed sqrt(g (H + l - k)) [m/s].

    Symmetric roots (l = k) recover the Lagrange speed sqrt(g H).
    """
    under = spec.H + spec.l - spec.k
    if not (under > 0):
        raise ValueError(f"H + l - k must be positive, got {under}")
    return math.sqrt(spec.g * under)


def cnoidal_alpha(spec: CnoidalSpec) -> float:
    """Moving-frame parameter (k - l)/2 for which the cn^2 profile is steady.

    The roots l, -k solve mu^2 + 2 alpha mu + 6 c1 = 0, so their sum
    fixes alpha; the frame speed is then sqrt(gH) - sqrt(g/H) alpha.
    """
    return 0.5 * (spec.k - spec.l)


def solitary_field(spec: SolitarySpec, grid: PeriodicGrid, center: float = 0.0) -> WaveField:
    """Sample the periodic solitary wave on a grid, crest at x = center (mod L).

    center is reduced modulo L exactly (math.fmod), and each point takes
    the profile at its distance from the crest wrapped into [-L/2, L/2),
    so a crest near the seam keeps its tail on the other side.
    """
    L = grid.L
    d = grid.x - math.fmod(center, L)
    d = np.where(d >= L / 2, d - L, np.where(d < -L / 2, d + L, d))
    return WaveField(grid, solitary_profile(spec, d))


def cnoidal_field(spec: CnoidalSpec, grid: PeriodicGrid, phase: float = 0.0,
                  zero_mean: bool = False) -> WaveField:
    """Sample the cnoidal profile on a grid, crest shifted to x = phase.

    phase is reduced modulo the wavelength exactly (math.fmod), so any
    finite phase samples the same periodic wave.  The grid length must
    hold an integer number of wavelengths (checked to 1e-9 relative).
    With zero_mean=True the spatial mean is removed,
    which is the bookkeeping the evolution module expects: time
    integration conserves the mean, so a zero-mean field keeps the mass
    functional meaningful.
    """
    lam = cnoidal_wavelength(spec)
    waves = grid.L / lam
    if abs(waves - round(waves)) > 1e-9 * waves:
        raise ValueError(
            f"grid length {grid.L} is not a whole number of wavelengths "
            f"(lambda = {lam:.6g}, L/lambda = {waves:.6g})"
        )
    h = cnoidal_profile(spec, grid.x - math.fmod(phase, lam))
    if zero_mean:
        h = h - h.mean()
    return WaveField(grid, h)


def grid_for_cnoidal(spec: CnoidalSpec, n_waves: int, N: int) -> PeriodicGrid:
    """Periodic grid holding exactly n_waves cnoidal wavelengths."""
    if n_waves < 1:
        raise ValueError("n_waves must be at least 1")
    return PeriodicGrid(L=n_waves * cnoidal_wavelength(spec), N=N)
