"""Physical parameters, derived constants, and grid/field value types.

All quantities are in strict SI units (m, s, kg). Every object in this
module is immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PhysicalParams",
    "PeriodicGrid",
    "WaveField",
    "dispersion_sigma",
    "critical_depth",
    "WATER",
]


@dataclass(frozen=True)
class PhysicalParams:
    """Fluid and channel constants.

    Attributes
    ----------
    g : float
        Gravitational acceleration [m/s^2], finite and > 0.
    H : float
        Undisturbed water depth [m], finite and > 0.
    rho : float
        Fluid density [kg/m^3], finite and > 0.
    T : float
        Surface tension [N/m], finite and >= 0.  T = 0 recovers the
        pure-gravity case.

    Together they must leave sigma (dispersion_sigma) and c0 finite.
    """

    g: float = 9.81
    H: float = 1.0
    rho: float = 1000.0
    T: float = 0.0

    def __post_init__(self):
        if not (0 < self.g < math.inf):
            raise ValueError(f"g must be positive and finite, got {self.g}")
        if not (0 < self.H < math.inf):
            raise ValueError(f"H must be positive and finite, got {self.H}")
        if not (0 < self.rho < math.inf):
            raise ValueError(f"rho must be positive and finite, got {self.rho}")
        if not (0 <= self.T < math.inf):
            raise ValueError(f"T must be non-negative and finite, got {self.T}")
        # a rho g that underflows to zero would divide by zero in sigma
        sigma = dispersion_sigma(self) if self.rho * self.g else math.nan
        if not (math.isfinite(sigma) and math.isfinite(self.c0)):
            raise ValueError(f"H = {self.H} m (with g, rho and T) must leave sigma and "
                             f"sqrt(g H) finite, got {sigma} m^3 and {self.c0} m/s")

    @property
    def c0(self) -> float:
        """Long-wave (Lagrange) speed sqrt(g H) [m/s]."""
        return math.sqrt(self.g * self.H)


def dispersion_sigma(params: PhysicalParams) -> float:
    """Dispersion parameter sigma = H^3/3 - T*H/(rho*g) [m^3].

    Combines depth and capillarity; may be negative (thin layers) or zero
    (at the critical depth).  Its sign selects elevation versus depression
    solitary waves.  The cube is a product, so an H whose cube overflows
    gives inf here instead of raising.
    """
    return params.H * params.H * params.H / 3.0 - params.T * params.H / (params.rho * params.g)


#: Clean water at laboratory conditions, depth 1 m.
WATER = PhysicalParams(g=9.81, H=1.0, rho=1000.0, T=0.0728)


def critical_depth(params: PhysicalParams) -> float:
    """Depth sqrt(3 T/(rho g)) [m] below which sigma turns negative.

    For water (T = 0.0728 N/m) this is about half a centimetre.
    """
    return math.sqrt(3.0 * params.T / (params.rho * params.g))


@dataclass(frozen=True)
class PeriodicGrid:
    """Uniform periodic grid x_j = -L/2 + j*dx, j = 0..N-1, dx = L/N.

    L must be positive and finite.  N must be even and at least 8 so
    spectral differentiation has an unambiguous Nyquist mode (which is
    forced to zero).  x = 0 is a grid point, so even profiles sample
    symmetrically.
    """

    L: float
    N: int

    def __post_init__(self):
        if not (0 < self.L < math.inf):
            raise ValueError(f"L must be positive and finite, got {self.L}")
        if self.N < 8 or self.N % 2 != 0:
            raise ValueError(f"N must be even and >= 8, got {self.N}")

    @property
    def dx(self) -> float:
        return self.L / self.N

    @property
    def x(self) -> np.ndarray:
        """Grid coordinates as a fresh read-only array."""
        x = -0.5 * self.L + self.dx * np.arange(self.N, dtype=float)
        x.setflags(write=False)
        return x


@dataclass(frozen=True)
class WaveField:
    """Surface elevation h(x) [m] sampled on a periodic grid at one time.

    h is measured from the undisturbed level, so the free surface sits at
    y = H + h.  The sample array is copied and frozen on construction.
    """

    grid: PeriodicGrid
    h: np.ndarray = field(repr=False)
    t: float = 0.0

    def __post_init__(self):
        h = np.asarray(self.h, dtype=float).copy()
        if h.shape != (self.grid.N,):
            raise ValueError(f"h must have shape ({self.grid.N},), got {h.shape}")
        if not np.all(np.isfinite(h)):
            raise ValueError("h contains non-finite entries")
        h.setflags(write=False)
        object.__setattr__(self, "h", h)
