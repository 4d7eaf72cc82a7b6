"""Time integration of the long-wave evolution equations.

Two dynamics are provided.  The unidirectional equation, in a frame
moving at sqrt(gH) - sqrt(g/H) alpha

    h_t = -(3/2) sqrt(g/H) d/dxi ( h^2/2 + (2/3) alpha h + (sigma/3) h_xixi )

where sigma = H^3/3 - T H/(rho g) carries the capillary correction
(dispersion_sigma).  The fixed frame is this equation at alpha = H, where
the frame speed is zero, with the same sigma.  And the bidirectional
second-order equation, which is pure gravity as Boussinesq wrote it

    h_tt = g H d^2/dx^2 ( h + 3 h^2/(2H) + (H^2/3) h_xx )

integrated as the first-order system (h, v = h_t).  The bidirectional
model is linearly ill-posed above the wavenumber sqrt(3)/H, so it is
stepped on the band of rfft modes at or below filter_cut * sqrt(3)/H,
onto which the starting (h, v) is projected once; the filter (the band
limit) can be disabled only to demonstrate the blow-up.

Each equation is written once, in Fourier space, as one linear symbol
plus one multiplier of the transformed h^2 flux (_kdv_symbols, for
every frame, and _boussinesq_symbols), built from the derivative symbols
of the chosen scheme (the centered stencils through their exact
trigonometric symbols).  For the bidirectional system the pair gives
h_tt, and the low-pass keeps both multipliers only up to the cut.  Every
full-grid evaluation (kdv_rhs, boussinesq_rhs, the sampled h_t of a run
and the factorization residual) goes through the one evaluator _grid_rhs.

Every run is stepped the same way, on the rfft coefficients of its
band of retained modes (_band_run): the starting state is projected onto
the band once, and each stage forms h^2 on the fewest points that make
the product exact inside the band (Orszag 1971; Boyd 2001, ch. 11).
The band belongs to the equation, not to the integrator (_symbols): the
unidirectional equation keeps Orszag's 2/3-rule band, the rfft modes j
with 3j < N, on which the product of its one quadratic term is exact;
the pair keeps its low-pass band.
Every transform here, the band square, the sampled and checked h of a
run and each full-grid evaluation, goes through operators' one kernel
pair (operators.rfft and irfft), which calls pocketfft's kernels, the
ones np.fft calls, with np.fft's factors: each is bit-identical to
np.fft's, without np.fft's per-call wrapper, which at these sizes costs
about as much as the transform.  The band square is the hot transform
of every run: each stepper binds those two kernels once, from operators,
and calls them directly, and forms the square and its stages in work
arrays of its own (_band_run).  The pair's Lawson step squares its
stages two rows to a kernel call, four calls a step where one row a
call takes eight, since its flux enters v alone and a square reads h
alone (_pair_lawson).
The state holds one row of band coefficients per field, h alone or h
and v, and both equations take one form on it: the linear part is one
generator A on each mode, lin = i omega for the unidirectional equation
and [[0, 1], [lin, 0]] with lin = -omega^2 for the (h, v) pair, and one
flux vector puts the transformed h^2 flux in the last row (in v alone
for the pair).  The time integrator follows from the step.  With
scheme.dt=auto a run uses the embedded Lawson pair ERK4(3)-IP (Balac &
Mahe 2013; Hochbruck & Ostermann 2010): the linear part is propagated
exactly, so the dispersive stiffness (dt ~ dx^3 under RK4) no longer
sets the step, and a third-order partner that shares the next step's
first stage estimates each step's local error at no extra cost.  Both
generators square to -omega^2, so one propagator serves both equations,
exp(A dt) = cos(omega dt) + A sin(omega dt)/omega (1 + A dt where
omega = 0): exp(lin dt) for the unidirectional equation, each mode's
rotation for the pair.  Such a unidirectional run is stepped on the
modes its state occupies: the shortest prefix of the 2/3-rule band that
holds every mode of the start above CHOP_LEVEL = 1e-14 of its peak
coefficient, plus a margin, the chop of a series at its roundoff
plateau (Aurentz & Trefethen 2017; Boyd 2001, ch. 2).  The band grows,
up to the 2/3-rule band, whenever a mode at its top passes
GROW_LEVEL = 1e-10 of the peak, so a state that fills the 2/3-rule band
is stepped on all of it.  A solitary transit at L = 120
occupies about 136 modes, whatever N.  A bidirectional run is stepped
on its low-pass band.  A PI controller (Gustafsson 1991) sizes every
step so that its local error stays within IF_TOL = 1e-6 of the starting
state's norm, taken as the norm in which the propagator is an isometry
(the L2 norm of h; (sum omega^2 |h|^2 + |v|^2)^(1/2) for the pair), and
no step passes the RK4 imaginary-axis limit of the fastest beat in the
interaction picture, 2 sqrt(2) / (c_max k_rms), the largest group speed
of the band's dispersion relation times the state's rms wavenumber (see
_controlled_run).  Since the group speed grows like the square of the
band's top wavenumber, every unused mode there would cost steps.  Steps
may turn the fastest stepped mode many times: about 4 turns on a
transit, at N = 512 and N = 1024 alike.

IF_TOL is set by a global-error budget against KdV's exact two-soliton
solution (Hirota 1971; a standard stepper test, Kassam & Trefethen
2005): started from it, the overtaking of a 0.2 m wave by a 0.5 m one
(from -22 m and -4 m, moving frame at alpha = 0, 60 s) must stay within
5e-5 of the tall crest at every one of its 51 samples.  That is under a
tenth of the 6.8e-4 shape error the default collision carries from its
sum-of-sech^2 start.  1e-6 is the largest rung of the 1-3-10 ladder
that meets it:

    IF_TOL   N = 256, L = 80: steps, error   N = 384, L = 120: steps, error
    3e-6          1,827   8.2e-5                   -         -
    1e-6          2,357   2.47e-5              2,362   2.46e-5
    3e-7          3,005   7.88e-6              3,012   7.97e-6

The error falls at about order 4.5 in the step count; tests/test_oracle.py
certifies the budget and the order.  A transit's step is set by the beat
limit, not by IF_TOL.

An explicit dt, and an unfiltered bidirectional run (whose linear part
grows above sqrt(3)/H, so no rotation propagates it), uses classical
4-stage Runge-Kutta (RK4) on the same stepper and the same band (all of
the 2/3-rule band for a unidirectional run), whose advisory step is 0.4
times the RK4 limit of the linearized symbol on that band; the 0.4 is
frozen from a blow-up sweep (solitary runs remain stable up to about
1.05 times the limit).  The blow-up check reads a bound on max|h| from
the band coefficients and forms h on the grid only when that bound
nears the limit, so it stays exact.  An error-controlled run reads each
accepted state once, in one pass that gives that bound, the beat limit
and the band watch together (_controlled_run).
"""

from __future__ import annotations

import logging
import math
import sys
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property, lru_cache, partial
from typing import Sequence

import numpy as np

from .elliptic import sech_sq
# boussinesq_energy and compute_invariants are unused here but kept: bench/tracing.py wraps them
from .invariants import (InvariantSet, boussinesq_energy, boussinesq_energy_rows,
                         compute_invariants, invariant_rows)
from .model import PeriodicGrid, PhysicalParams, WaveField, dispersion_sigma
from .operators import (_kernel_pair, check_scheme, derivative_symbols, diff, irfft, rfft,
                        wavenumbers)

__all__ = [
    "BlowUpError",
    "SchemeConfig",
    "DeformationSpec",
    "SteepeningVerdict",
    "EvolutionResult",
    "stable_dt",
    "kdv_rhs",
    "boussinesq_rhs",
    "step_rk4",
    "step_ifrk4",
    "evolve",
    "deformation_rate_closed_form",
    "steepening_verdict",
    "front_slope_change",
    "factorization_residual",
    "crest_position",
    "crest_position_rows",
    "fit_speed",
]

logger = logging.getLogger(__name__)

RK4_IMAG_LIMIT = 2.0 * math.sqrt(2.0)
CFL_SAFETY = 0.4
# local error per auto-dt (ERK4(3)-IP) step, relative to the start's norm; set
# by the exact two-soliton error budget of the module docstring
IF_TOL = 1e-6
# an auto-dt unidirectional run steps the modes its start holds above CHOP_LEVEL
# of the peak coefficient, and grows that band when a mode at its top passes
# GROW_LEVEL; the two differ because the pair's truncation fills the top of a
# cut band to a plateau of about 5e-12 of the peak (see _controlled_run)
CHOP_LEVEL = 1e-14
GROW_LEVEL = 1e-10
BAND_MARGIN = 8  # the fewest modes in the start's margin, the watched top and one growth
BLOWUP_FACTOR = 10.0  # |h| beyond this multiple of H aborts the run
# no run takes more steps than this: evolve refuses a run, or stops it, as soon
# as the time left over its step (explicit, advisory or wanted) passes it
MAX_STEPS = 10 ** 8


class BlowUpError(RuntimeError):
    """Raised when the solution leaves the model's validity range.

    time is when, step the number of the step that tripped the check
    (counted from the run's start; 1 for a single public step),
    max_abs_h the max|h| it found [m] (inf or nan when not finite) and
    integrator the integrator that took the step ("rk4" or "ifrk4").
    cause, when given, follows the message: an error-controlled run
    whose wanted step would need more than MAX_STEPS steps to finish
    raises with the max|h| of its last accepted state and says so there.
    """

    def __init__(self, time: float, step: int, max_abs_h: float, integrator: str = "",
                 cause: str = ""):
        self.time = time
        self.step = step
        self.max_abs_h = max_abs_h
        self.integrator = integrator
        super().__init__(f"solution blew up at t = {time:.6g} s "
                         f"(step {step}, max|h| = {max_abs_h:.6g} m)"
                         + (f": {cause}" if cause else ""))


@dataclass(frozen=True)
class SchemeConfig:
    """Discretization choices for one run.

    deriv selects the spatial scheme ("spectral" or "centered4").  dt of
    None selects the error-controlled pair ERK4(3)-IP, except for the
    unfiltered bidirectional run, which steps classical RK4 at the
    stability advisory; an explicit dt steps RK4 at that dt.  t_end, dt
    and alpha must be finite.  frame applies to the unidirectional
    equation only; alpha is the moving-frame parameter.
    frame="fixed" is the moving frame at alpha = H, where the frame speed
    is zero, so it takes no alpha: a nonzero one is rejected.
    filter_cut is the bidirectional low-pass cutoff as a fraction of
    sqrt(3)/H; boussinesq_filter=False disables it (ill-posedness demo
    only).
    """

    deriv: str = "spectral"
    dt: float | None = None
    t_end: float = 0.0
    filter_cut: float = 0.5
    boussinesq_filter: bool = True
    frame: str = "fixed"
    alpha: float = 0.0

    def __post_init__(self):
        check_scheme(self.deriv)
        if self.dt is not None and not (0 < self.dt < math.inf):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not (0 <= self.t_end < math.inf):
            raise ValueError(f"t_end must be non-negative and finite, got {self.t_end}")
        if not math.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha}")
        if self.frame == "fixed" and self.alpha:
            raise ValueError(f"alpha applies to the moving frame only, got {self.alpha}")
        if not (0.0 < self.filter_cut < 1.0):
            raise ValueError(f"filter_cut must lie in (0, 1), got {self.filter_cut}")
        if self.frame not in ("fixed", "moving"):
            raise ValueError(f"frame must be 'fixed' or 'moving', got {self.frame!r}")


@dataclass(frozen=True)
class DeformationSpec:
    """Near-solitary profile hbar*sech^2(p xi) watched in a moving frame.

    A true steady wave has p = sqrt(hbar/(4 sigma)); other widths deform.
    """

    hbar: float
    p: float
    alpha: float = 0.0

    def __post_init__(self):
        if not (0 < self.hbar < math.inf and 0 < self.p < math.inf):
            raise ValueError(f"hbar and p must be positive and finite, got {self.hbar}, {self.p}")


class SteepeningVerdict(Enum):
    STEEPENS_IN_FRONT = "steepens_in_front"
    FLATTENS_IN_FRONT = "flattens_in_front"
    STEADY = "steady"


# --------------------------------------------------------------------------
# right-hand sides
# --------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _kdv_symbols(N: int, L: float, g: float, H: float, sigma: float, alpha: float,
                 deriv: str) -> tuple[np.ndarray, np.ndarray]:
    """Fourier form of the unidirectional equation (read-only arrays).

    Returns (lin, flux) with  rfft(h_t) = lin * rfft(h) + flux * rfft(h^2)
    over every rfft mode: lin carries the advection and dispersion terms of
    the frame alpha, flux the h^2/2 nonlinearity.  Both are purely imaginary.

    This memo, like _boussinesq_symbols', is the only way its table is
    built, and it holds 8 tables.  No run reads more than 3 (the filtered
    demo reads 3, 11 times in all; a transit 1, 4 times), and a steepening
    sweep's 5 tables and the factorization scenario's 8 in each memo are
    read one run or one grid at a time.  A one-off domain (a residual, a
    profile's invariants) costs the one build it would cost uncached, and
    no memo keeps more than 8 of them.
    """
    d1, d2 = derivative_symbols(N, L, deriv)
    c = 1.5 * math.sqrt(g / H)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        lin = -c * d1 * ((2.0 / 3.0) * alpha + (sigma / 3.0) * d2)
        flux = -0.5 * c * d1
    return _finite_symbols(lin, flux, N, L)


def _finite_symbols(lin: np.ndarray, flux: np.ndarray, N: int, L: float):
    """(lin, flux) made read-only, or ValueError naming L if either is not finite."""
    if not (np.isfinite(lin).all() and np.isfinite(flux).all()):
        raise ValueError(f"L = {L!r} m over N = {N} points leaves the equation's "
                         "Fourier symbols not finite")
    lin.setflags(write=False)
    flux.setflags(write=False)
    return lin, flux


def frame_alpha(params: PhysicalParams, config: SchemeConfig) -> float:
    """The frame parameter alpha of a unidirectional run: the fixed frame is alpha = H."""
    return params.H if config.frame == "fixed" else config.alpha


def _symbols_for(grid: PeriodicGrid, params: PhysicalParams, config: SchemeConfig):
    """(lin, flux) of the run at the run's sigma and frame alpha."""
    return _kdv_symbols(grid.N, grid.L, params.g, params.H, dispersion_sigma(params),
                        frame_alpha(params, config), config.deriv)


def _grid_rhs(lin: np.ndarray, flux: np.ndarray, h: np.ndarray) -> np.ndarray:
    """irfft(lin * rfft(h) + flux * rfft(h^2)) over the band of lin, from samples h.

    h is one row of samples or a stack of them (..., N), each row transformed alone.
    """
    J = lin.size
    return irfft(lin * rfft(h)[..., :J] + flux * rfft(h * h)[..., :J], h.shape[-1])


def kdv_rhs(field: WaveField, params: PhysicalParams,
            config: SchemeConfig = SchemeConfig()) -> np.ndarray:
    """dh/dt of the unidirectional equation in the configured frame [m/s]."""
    return _grid_rhs(*_symbols_for(field.grid, params, config), field.h)


@lru_cache(maxsize=8)
def _boussinesq_symbols(N: int, L: float, g: float, H: float, deriv: str,
                        k_cut: float | None) -> tuple[np.ndarray, np.ndarray]:
    """(lin, flux) with rfft(h_tt) = lin * rfft(h) + flux * rfft(h^2) on the band.

    The retained band is the leading rfft modes at or below k_cut (all of
    them when the low-pass is off), so lin.size is the band's mode count;
    h_tt is zero above it (read-only arrays).  Pure gravity: the
    bidirectional equation carries no surface tension.  A low-pass band of
    fewer than two modes, the mean alone, has no dispersion relation to
    size a step by (ValueError naming L and the cut); a domain whose
    wavenumbers or derivative symbols overflow is reported before it.
    Memoised as _kdv_symbols is, 8 tables; the filtered demo, the largest
    reader, reads 3 (its two low-pass bands and the unfiltered control).
    """
    J = N // 2 + 1 if k_cut is None else int(np.count_nonzero(wavenumbers(N, L) <= k_cut))
    d2 = derivative_symbols(N, L, deriv)[1]
    if J < 2:
        raise ValueError(f"L = {L!r} m leaves only the mean mode at or below the low-pass "
                         f"cut k = {k_cut!r} 1/m; the band needs two or more")
    d2 = d2[:J]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        lin = g * H * d2 * (1.0 + (H * H / 3.0) * d2)
        flux = 1.5 * g * d2
    return _finite_symbols(lin, flux, N, L)


def _symbols(grid: PeriodicGrid, params: PhysicalParams, config: SchemeConfig,
             bidirectional: bool):
    """(lin, flux) of the run's equation on its band of retained rfft modes.

    The unidirectional band is Orszag's 2/3-rule band, the first
    (N + 2) // 3 modes (those with 3j < N), on which the band square of
    h^2 is exact; the pair's is its low-pass band.
    """
    if not bidirectional:
        J = (grid.N + 2) // 3  # Orszag's 2/3-rule band
        return tuple(a[:J] for a in _symbols_for(grid, params, config))
    k_cut = config.filter_cut * math.sqrt(3.0) / params.H if config.boussinesq_filter else None
    return _boussinesq_symbols(grid.N, grid.L, params.g, params.H, config.deriv, k_cut)


def boussinesq_rhs(state: tuple[WaveField, WaveField], params: PhysicalParams,
                   config: SchemeConfig = SchemeConfig()) -> tuple[np.ndarray, np.ndarray]:
    """(h_t, h_tt) of the bidirectional system, low-pass applied [m/s, m/s^2].

    h_tt is _grid_rhs over the retained band's symbols; h_t is v cut to
    that band (v itself when the filter is off).
    """
    _, grid, _, (h, v) = _unpack(state)
    lin, flux = _symbols(grid, params, config, True)
    if config.boussinesq_filter:
        v = irfft(rfft(v)[:lin.size], grid.N)
    return v, _grid_rhs(lin, flux, h)


# --------------------------------------------------------------------------
# stepping
# --------------------------------------------------------------------------

def _omega(lin: np.ndarray, bidirectional: bool) -> np.ndarray:
    """A band's dispersion relation: Im lin, or sqrt|lin| for the (h, v) pair."""
    return np.sqrt(np.abs(lin)) if bidirectional else lin.imag


def stable_dt(grid: PeriodicGrid, params: PhysicalParams,
              config: SchemeConfig = SchemeConfig(), equation: str = "kdv") -> float:
    """Advisory RK4 time step: 0.4 x the RK4 limit of the linearized symbol [s].

    Both read the scheme's own linear symbol on the band a run steps
    (_symbols): for the unidirectional equation it is purely imaginary
    (scaling like dx^-3) over the 2/3-rule band; for the bidirectional
    one its root is the dispersion frequency over the retained band (or
    the fastest growth rate when the filter is off).
    """
    if equation not in ("kdv", "boussinesq"):
        raise ValueError(f"unknown equation {equation!r}")
    lin = _symbols(grid, params, config, equation == "boussinesq")[0]
    lam_max = float(np.abs(_omega(lin, equation == "boussinesq")).max())
    if lam_max == 0.0:
        raise ValueError("degenerate linear symbol; cannot size a step")
    return CFL_SAFETY * RK4_IMAG_LIMIT / lam_max


def _band_run(grid: PeriodicGrid, params: PhysicalParams, config: SchemeConfig,
              bidirectional: bool, integrator: str, J: int | None = None):
    """The stepper of every run, on its band of retained rfft modes.

    Returns (lin, flux, step): the run's symbols on its band of
    J = lin.size modes, and the step.  The band is the first J modes (all
    of them for J = None) of the run's band from _symbols, whatever the
    integrator: the 2/3-rule band for a unidirectional run and the
    low-pass band for a bidirectional one.  evolve steps an
    integrating-factor unidirectional run on the prefix its state
    occupies (_occupied_band), which _controlled_run grows on demand; the
    public steps and every RK4 run take the whole band.  The state z is
    rfft(y)[:, :J] of the stacked samples y, one row of band coefficients
    per field: (1, J) for h alone, (2, J) for (h, v).  h^2 is formed on
    the smallest 5-smooth M >= 3J - 2 points (M divides 30^64), where the
    sum of two band modes folds above the band, so the product is exact
    inside it; capped at N, it is the full-grid product.  Its two
    transforms are the M-point kernels of operators' pair, with np.fft's
    factors, bound once per band (operators._kernel_pair) and called
    directly, so the square is bit-identical to np.fft's.  A step forms
    four or five squares and about twenty small array operations, each of
    which costs more in its call than in its arithmetic at these sizes, so
    every stepper owns its work arrays and the views it reads them
    through, made once per band: the M-point product of every square goes
    into one real buffer, the inner stages' squares into three more, and
    the stages are formed in place.  The pair's "ifrk4" step forms its
    four squares as two batched pairs of rows, two kernel calls each
    (_pair_lawson).  A step writes none of its arguments and allocates
    only the arrays it returns (for "ifrk4" given n, z1 and its square
    n5), so a rejected step is retried from the same (z, n).

    For integrator "rk4", step(z, dt) is the state one classical RK4 step
    of dt later, for the right-hand side lin h + flux n on h alone and
    (v, lin h + flux n) on the pair, n the band square.  For "ifrk4",
    step(z, n, dt) is one step of the embedded Lawson pair ERK4(3)-IP
    (Balac & Mahe 2013), whose weights are cached per step length
    (_stage_weights).  ERK4(3)-IP's fourth-order solution is Lawson's RK4,
    which propagates the linear part exactly, by the one propagator
    exp(A dt) of the module docstring, and leaves the stages only the h^2
    flux, which enters the last row (a bidirectional run needs the
    low-pass band, ValueError otherwise).  Its third-order partner adds
    the stage of the new state, which is the next step's first (first
    same as last).  n is the band square of z (None: formed here).  It
    returns (z1, n5, err): the new state, its band square n5 (the next
    step's n) and the local error estimate ||(dt/10) flux (n4 - n5)|| from
    the fourth stage's square n4, which costs no product beyond the four
    of Lawson's RK4.  That error sits in h, or in v alone, so its L2 norm
    is its norm in the isometric norm of _controlled_run.
    """
    lin, flux = (a[:J] for a in _symbols(grid, params, config, bidirectional))
    J, N, m = lin.size, grid.N, 1 + bidirectional
    M = next((M for M in range(3 * J - 2, N) if 30 ** 64 % M == 0), N)
    # the flux vector g holds the flux, scaled from the M-point product to the
    # N-point rfft, in the last row (v's for the pair) and zero above it
    g = np.zeros((m, J), lin.dtype)
    g[-1] = flux * (M / N)
    # a square is inverse(x[0], fct, h), h *= h, forward(h, 1.0, out): the
    # row x[0] transformed as a 1-D array (pocketfft costs more on a batch of
    # one) into the M-point product h, and back into the M // 2 + 1
    # coefficients of out, of which the first J are the band square, bit for
    # bit np.fft.rfft(np.fft.irfft(x[0], n=M) ** 2)[:J]
    forward, inverse, fct = _kernel_pair(M)
    multiply, add = np.multiply, np.add
    h = np.empty(M)
    w = np.empty((m, J), complex)  # a stage's state, or one term of a sum
    w0 = w[0]

    if integrator == "rk4":
        k = np.empty((4, m, J), complex)  # the four slopes
        k1, k2, k3, k4 = k
        n = np.empty(M // 2 + 1, complex)  # a slope's square
        nJ, g1 = n[:J], g[-1]

        def slope(x: np.ndarray, out: np.ndarray) -> None:
            # out = lin h + g n, below v for the pair
            if bidirectional:
                out[0] = x[1]
            last = out[-1]
            multiply(lin, x[0], last)
            inverse(x[0], fct, h)
            multiply(h, h, h)
            forward(h, 1.0, n)
            add(last, multiply(g1, nJ, nJ), last)

        def rk4(z: np.ndarray, dt: float) -> np.ndarray:
            slope(z, k1)
            slope(add(z, multiply(0.5 * dt, k1, w), w), k2)
            slope(add(z, multiply(0.5 * dt, k2, w), w), k3)
            slope(add(z, multiply(dt, k3, w), w), k4)
            # z + (dt/6) (k1 + 2 k2 + 2 k3 + k4), summed left to right
            add(k1, multiply(2.0, k2, k2), k1)
            add(k1, multiply(2.0, k3, k3), k1)
            add(k1, k4, k1)
            return add(z, multiply(dt / 6.0, k1, k1))

        return lin, flux, rk4

    if bidirectional and not config.boussinesq_filter:
        raise ValueError("the integrating factor needs the low-pass band: unfiltered, "
                         "the bidirectional model grows without bound above sqrt(3)/H")
    # evolve's steps sit on rungs of a ladder (24 over the default collision), and
    # its steps that land on a stop repeat their lengths from stop to stop (30
    # there, two at a time): at most 33 other lengths come between two uses of
    # one, so a cache of 40 builds no step's weights twice
    weights = lru_cache(maxsize=40)(partial(_stage_weights, _omega(lin, bidirectional), lin, g))

    def square(x: np.ndarray) -> np.ndarray:
        # the band square of the h row of x, as a fresh (1, J) array
        inverse(x[0], fct, h)
        multiply(h, h, h)
        return forward(h, 1.0, np.empty(M // 2 + 1, complex))[None, :J]

    if bidirectional:
        return lin, flux, _pair_lawson(J, M, weights, square)

    Pz, P2z = np.empty((2, 1, J), complex)  # P z and P P z
    r = np.empty((3, M // 2 + 1), complex)  # the inner stages' squares
    r2, r3, r4 = r
    n2, n3, n4 = r[:, None, :J]
    d = np.empty((1, J), complex)  # n2 + n3, then the error

    def ifrk4(z: np.ndarray, n1: np.ndarray | None, dt: float):
        P, a2, a3, a4, b1, b23, b4, e = weights(dt)
        if n1 is None:
            n1 = square(z)
        multiply(P, z, Pz)
        multiply(P, Pz, P2z)
        add(Pz, multiply(a2, n1, w), w)
        inverse(w0, fct, h)
        multiply(h, h, h)
        forward(h, 1.0, r2)
        add(Pz, multiply(a3, n2, w), w)
        inverse(w0, fct, h)
        multiply(h, h, h)
        forward(h, 1.0, r3)
        add(P2z, multiply(a4, n3, w), w)
        inverse(w0, fct, h)
        multiply(h, h, h)
        forward(h, 1.0, r4)
        # z1 = P2z + b1 n1 + b23 (n2 + n3) + b4 n4, summed left to right
        z1 = multiply(b1, n1)
        add(P2z, z1, z1)
        add(z1, multiply(b23, add(n2, n3, d), w), z1)
        add(z1, multiply(b4, n4, w), z1)
        n5 = square(z1)
        multiply(e, np.subtract(n4, n5, d), d)
        return z1, n5, math.sqrt(np.vdot(d, d).real)

    return lin, flux, ifrk4


def _pair_lawson(J: int, M: int, weights, square):
    """_band_run's ERK4(3)-IP step for the (h, v) pair on J modes, squared on M points.

    weights(dt) is _band_run's cache of the stage weights and square(x)
    the band square of x's h row as a fresh (1, J) array.
    The flux vector g is zero in the h row, and a square reads only the h
    row, so within a step the squares come in independent pairs: stage 3's
    h row is P z's (a3 = (dt/2) g), and the new state's h row needs no n4
    (b4 = (dt/6) g).  Stages 2 and 3 are squared as one batch of two rows,
    and stage 4 with the new state as a second: four kernel calls a step
    where one square a row takes eight.  pocketfft transforms each row of
    a batch as it does a lone row, the stage inputs are formed on the h
    row alone, and z1 keeps the whole left-to-right sum, b4 n4 on both
    rows included, so the step is bit for bit the one-square-at-a-time
    form.
    """
    forward, inverse, fct = _kernel_pair(M)
    multiply, add = np.multiply, np.add
    h = np.empty((2, M))  # the M-point products of a batch
    B = np.empty((3, J), complex)  # stage 2's h row above P z: B[:2] is the first batch
    x2, Pz = B[0], B[1:]
    P2z, tmp = np.empty((2, 2, J), complex)  # P P z and P's second product
    w = np.empty((2, J), complex)  # one term of a sum
    r = np.empty((2, M // 2 + 1), complex)  # the squares of stages 2 and 3
    n2, n3 = r[:, None, :J]
    d = np.empty((1, J), complex)  # n2 + n3, then the error

    def batch(x: np.ndarray, out: np.ndarray) -> np.ndarray:
        # the band squares of the two rows of x, in the rows of out
        inverse(x, fct, h)
        multiply(h, h, h)
        return forward(h, 1.0, out)

    def step(z: np.ndarray, n1: np.ndarray | None, dt: float):
        P, a2, _, a4, b1, b23, b4, e = weights(dt)
        if n1 is None:
            n1 = square(z)
        c, As = P
        add(multiply(c, z, Pz), multiply(As, z[::-1], tmp), Pz)
        add(multiply(c, Pz, P2z), multiply(As, Pz[::-1], tmp), P2z)
        add(Pz[0], multiply(a2[0], n1[0], x2), x2)
        batch(B[:2], r)
        # stage 4's h row above the new state z1: C[:2] is the second batch
        C = np.empty((3, J), complex)
        z1 = C[1:]
        add(P2z[0], multiply(a4[0], n3[0], C[0]), C[0])
        # z1 = P2z + b1 n1 + b23 (n2 + n3) + b4 n4, summed left to right; its
        # h row is whole before the last term, whose h row is zero
        multiply(b1, n1, z1)
        add(P2z, z1, z1)
        add(z1, multiply(b23, add(n2, n3, d), w), z1)
        S = batch(C[:2], np.empty((2, M // 2 + 1), complex))
        n4, n5 = S[:, None, :J]
        add(z1, multiply(b4, n4, w), z1)
        multiply(e, np.subtract(n4, n5, d), d)
        return z1, n5, math.sqrt(np.vdot(d, d).real)

    return step


def _stage_weights(om: np.ndarray, lin: np.ndarray, g: np.ndarray, dt: float) -> tuple:
    """The half-step propagator P and ERK4(3)-IP's stage weights for a step of dt.

    om is the band's omega (_omega), lin its linear symbol and g the flux
    vector of _band_run, one row for h alone and two for (h, v).  Each
    weight is a coefficient times g propagated over dt/2, dt or not at
    all, folded into one array.
    """
    bidirectional = g.shape[0] == 2

    def propagator(tau: float):
        # A acts as the matrix i omega or [[0, 1], [lin, 0]], both squaring to
        # -omega^2, so exp(tau A) = cos(omega tau) + A sin(omega tau)/omega
        # (omega changes sign over a unidirectional band; tau A where omega = 0):
        # the multiplier c + lin s of the one row, or the pair's (c, As), applied
        # as c x + As x[::-1]
        c = np.cos(om * tau)
        s = np.divide(np.sin(om * tau), om, out=np.full(om.size, tau), where=om != 0)
        return c + lin * s if not bidirectional else (c, np.stack((s, lin * s)))

    def propagated(P, x: np.ndarray) -> np.ndarray:
        if not bidirectional:
            return P * x
        out = P[0] * x
        return np.add(out, P[1] * x[::-1], out)

    P = propagator(0.5 * dt)
    Pg, P2g = propagated(P, g), propagated(propagator(dt), g)
    return (P, (0.5 * dt) * Pg, (0.5 * dt) * g, dt * Pg, (dt / 6.0) * P2g,
            (dt / 3.0) * Pg, (dt / 6.0) * g, (dt / 10.0) * g[-1:])


def _state_reader(iso: np.ndarray, k2: np.ndarray):
    """(read, a): one pass over a band state z of m rows and J modes.

    iso is the (m, J) weights of the isometric norm (_controlled_run) and
    k2 the J squared wavenumbers.  read(z) forms |z| and |z|^2 in one work
    array Y of (2, m, J) and returns S = Y.reshape(2, m J) W as nested
    lists, for the (m J, 3) weights W = [1 on the h row, iso^2, k2 iso^2].
    So S[0][0] is sum_j |h_j|, S[1][1] the state's power sum |iso z|^2 in
    that norm and S[1][2] its k2 moment sum k2 |iso z|^2.  a is the |h_j|
    row of Y, which each read overwrites.
    """
    m, J = iso.shape
    W = np.zeros((m, J, 3))
    W[0, :, 0] = 1.0
    W[:, :, 1] = iso * iso
    W[:, :, 2] = k2 * W[:, :, 1]
    W = W.reshape(m * J, 3)
    Y = np.empty((2, m, J))
    absz, sq, flat = Y[0], Y[1], Y.reshape(2, m * J)
    absolute, multiply, dot = np.abs, np.multiply, np.dot

    def read(z: np.ndarray) -> list[list[float]]:
        absolute(z, absz)
        multiply(absz, absz, sq)
        return dot(flat, W).tolist()

    return read, Y[0, 0]


def _check_alive(h: np.ndarray, H: float, t: float, step: int = 1,
                 integrator: str = "") -> None:
    m = float(np.max(np.abs(h)))
    if not math.isfinite(m) or m > BLOWUP_FACTOR * H:
        raise BlowUpError(t, step, m, integrator)


def _is_normal(x: float) -> bool:
    """True for a finite float that is not zero or subnormal."""
    return sys.float_info.min <= abs(x) < math.inf


def _unpack(state) -> tuple[bool, PeriodicGrid, float, np.ndarray]:
    """(bidirectional, grid, t, y) of a WaveField or an (h, v) pair; y stacks copies."""
    if isinstance(state, WaveField):
        return False, state.grid, state.t, np.stack([state.h])
    h_field, v_field = state
    if h_field.grid != v_field.grid:
        raise ValueError("state fields live on different grids")
    return True, h_field.grid, h_field.t, np.stack([h_field.h, v_field.h])


def _fields(grid: PeriodicGrid, y: np.ndarray, t: float):
    """The WaveField of the one row of y, or the (h, v) pair of its two rows, at t."""
    if len(y) == 2:
        return WaveField(grid, y[0], t), WaveField(grid, y[1], t)
    return WaveField(grid, y[0], t)


def _form_samples(y: np.ndarray, zs: list[np.ndarray], N: int) -> np.ndarray:
    """A run's (S, m, N) samples: the start y, then each band state of zs on the grid.

    Every z of zs is an (m, J) array of band coefficients, J the band it
    was sampled on.  They are zero-padded to the widest J and formed in one
    irfft, which gives each row the bits of irfft(z, N) alone: pocketfft
    pads a short row with the same zeros.  The array is read-only, and a
    non-finite sample raises WaveField's ValueError.
    """
    out = np.empty((1 + len(zs), *y.shape))
    out[0] = y
    if zs:
        Z = np.zeros((len(zs), len(y), max(z.shape[-1] for z in zs)), complex)
        for row, z in zip(Z, zs):
            row[:, :z.shape[-1]] = z
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite row is reported below
            irfft(Z, N, out[1:])
    # min and max carry any nan or inf, and read out without a temporary
    if not (math.isfinite(out.min()) and math.isfinite(out.max())):
        raise ValueError("h contains non-finite entries")
    out.setflags(write=False)
    return out


def _step(state, params: PhysicalParams, config: SchemeConfig, integrator: str, dt: float):
    """One step of evolve's band stepper; state is projected onto the band first.

    dt follows SchemeConfig's rule, positive and finite (ValueError
    otherwise); a step that overflows ends in BlowUpError, not in a warning.
    """
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    bidirectional, grid, t, y = _unpack(state)
    lin, _, step = _band_run(grid, params, config, bidirectional, integrator)
    z = rfft(y)[:, :lin.size]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        z = step(z, dt) if integrator == "rk4" else step(z, None, dt)[0]
        y = irfft(z, grid.N)
    _check_alive(y[0], params.H, t + dt, 1, integrator)
    return _fields(grid, y, t + dt)


def step_rk4(state, params: PhysicalParams, config: SchemeConfig, dt: float):
    """One classical RK4 step of the appropriate dynamics.

    state is a WaveField (unidirectional) or an (h, v) pair of
    WaveFields (bidirectional); the advanced state of the same kind is
    returned with time moved by dt (stable_dt gives the advisory step).
    This is evolve's explicit-dt step: the state is projected onto its
    band first (the 2/3-rule band, rfft modes j with 3j < N, for a
    WaveField; the retained band for a pair) and stepped there, so the
    result has no content above it.  Raises BlowUpError when the
    solution leaves the model's validity range.
    """
    return _step(state, params, config, "rk4", dt)


def step_ifrk4(state, params: PhysicalParams, config: SchemeConfig, dt: float):
    """One Lawson integrating-factor RK4 step of the appropriate dynamics.

    state is a WaveField (unidirectional) or an (h, v) pair of
    WaveFields (bidirectional, low-pass filter on), as for step_rk4.  The
    scheme's linear part is propagated exactly (exp(lin dt) for the
    unidirectional equation, each mode's rotation for the bidirectional
    one), so dt is not bounded by the dispersive stiffness.  This is the
    fourth-order solution of the pair evolve steps scheme.dt=auto runs
    with, taken at the fixed step dt (evolve sizes its steps by the error
    controller of the module docstring).  The state is projected onto the
    band of step_rk4 first and the result has no content above it.
    Raises BlowUpError when the solution leaves the model's validity
    range.
    """
    return _step(state, params, config, "ifrk4", dt)


@dataclass
class EvolutionResult:
    """Sampled trajectory of one run, with the params and config it ran with.

    samples is the run's read-only (S, m, N) array, the grid samples of
    each field (h alone, or h and v) at each of the S times: row 0 is the
    start as given, and the later rows are formed once, at the end of the
    run, from the band coefficients evolve kept for them (_form_samples).
    final (a WaveField, or an (h, v) pair) and snapshots (one per time)
    are built from those rows when first read and kept: final alone
    builds only the last, and snapshots[-1] is final.  invariants (each
    sample's invariant set) and energy (a pair's conserved energy per
    sample, None for a unidirectional run) are evaluated on first read
    and kept, in one pass over the rows in place (invariant_rows,
    boussinesq_energy_rows), with h_t the run's own right-hand side on
    its band (_grid_rhs over the stack) or, for a pair, the sampled v.  A
    bidirectional run's invariant sets are taken at T = 0, as its equation
    is pure gravity (and so defined at the critical depth).
    """

    times: list[float]
    grid: PeriodicGrid
    samples: np.ndarray
    params: PhysicalParams
    config: SchemeConfig
    integrator: str = ""  # "ifrk4" or "rk4"
    dt: float = 0.0  # the mean step t_end / steps [s]
    steps: int = 0  # accepted steps
    rejected: int = 0  # steps the error controller retried smaller
    band: tuple[int, int] = (0, 0)  # the least and greatest number of rfft modes stepped

    @cached_property
    def final(self):
        return _fields(self.grid, self.samples[-1], self.times[-1])

    @cached_property
    def snapshots(self) -> list:
        head = [_fields(self.grid, y, t) for y, t in zip(self.samples[:-1], self.times)]
        return head + [self.final]

    @cached_property
    def invariants(self) -> list[InvariantSet]:
        grid, h, pair = self.grid, self.samples[:, 0], self.samples.shape[1] == 2
        params = replace(self.params, T=0.0) if pair else self.params
        h_t = self.samples[:, 1] if pair else _grid_rhs(
            *_symbols(grid, params, self.config, False), h)
        return invariant_rows(h, grid, params, self.times, scheme=self.config.deriv, h_t=h_t)

    @cached_property
    def energy(self) -> list[float] | None:
        if self.samples.shape[1] == 1:
            return None
        return boussinesq_energy_rows(self.samples[:, 0], self.samples[:, 1], self.grid.L,
                                      self.params).tolist()


def evolve(initial, params: PhysicalParams, config: SchemeConfig,
           sample_every: int | None = None) -> EvolutionResult:
    """Integrate to config.t_end, sampling snapshots.

    initial is a WaveField or an (h, v) WaveField pair.  Every run steps
    the rfft coefficients of its retained band through one stepper
    (_band_run): the 2/3-rule band (rfft modes j with 3j < N) for a
    unidirectional run and the low-pass band for a bidirectional one
    (every mode when the filter is off).  The integrator follows from
    config.dt.  A run with dt = None steps with the embedded Lawson pair
    ERK4(3)-IP ("ifrk4"): the linear part is propagated exactly (for a
    unidirectional run on the prefix of the band that its state occupies,
    grown on demand; by each mode's rotation for a bidirectional one), and
    a PI controller sizes each step so that its relative local error
    stays within IF_TOL (see the module docstring).  Steps land exactly
    on the sample times and on t_end; a step rejected by the controller
    is retried smaller and counted in result.rejected.  An explicit dt,
    and an unfiltered bidirectional run, steps with classical RK4
    ("rk4"), warned against (or, for dt = None, set to) the RK4 stability
    advisory; its step is shrunk so that an integer number of steps lands
    exactly on t_end, and it steps the whole band.  No run takes more
    than MAX_STEPS = 10**8 steps: an RK4 run that would raises ValueError
    before any sample, and a controlled one raises BlowUpError as soon as
    its wanted step would (see _controlled_run).  The initial state is
    projected onto the band once: the first snapshot is the initial state
    as given, later ones carry no modes above the band.  The start, before
    anything is built, and every accepted step are checked for blow-up.
    Snapshots are taken at the endpoints and every sample_every accepted
    steps; by default at ~50 samples per run (RK4: every nsteps // 50
    steps; IF: at t_end k/50, k = 1..50).  Each snapshot after the first
    is kept as the band coefficients the run holds, and at the end all of
    them are formed on the grid in one transform, bit for bit each
    sample's own irfft, into result.samples (_form_samples); a non-finite
    sample raises ValueError there.  The result builds its snapshots and
    final from those rows, and evaluates their invariants (and a pair's
    energy), when they are first read (EvolutionResult).  result.dt is
    the mean step t_end / steps, and result.band the least and greatest
    number of rfft modes stepped (a fixed band's size twice).
    """
    if sample_every is not None and not (isinstance(sample_every, (int, np.integer))
                                         and sample_every > 0):
        raise ValueError(f"sample_every must be a positive integer or None, "
                         f"got {sample_every!r}")
    bidirectional, grid, t0, y = _unpack(initial)
    # the unfiltered bidirectional model has no integrating factor: it grows above sqrt(3)/H
    rk4 = config.dt is not None or (bidirectional and not config.boussinesq_filter)
    integrator = "rk4" if rk4 else "ifrk4"
    # a start past the limit stops here, before any norm of it can overflow
    _check_alive(y[0], params.H, t0, 1, integrator)
    if rk4:
        advisory = stable_dt(grid, params, config, "boussinesq" if bidirectional else "kdv")
        dt_req = config.dt if config.dt is not None else advisory
        if not config.t_end <= MAX_STEPS * dt_req:
            raise ValueError(f"dt = {dt_req!r} s is too small to reach t_end = "
                             f"{config.t_end!r} s in MAX_STEPS = {MAX_STEPS:.0e} steps")
    band = partial(_band_run, grid, params, config, bidirectional, integrator)
    cap = _symbols(grid, params, config, bidirectional)[0].size
    # every sample after the start is kept as its band coefficients, which no
    # step writes once returned, and all are formed on the grid at the end
    times, zs, sizes, rejected = [t0], [], (cap, cap), 0

    def sample(t: float, z: np.ndarray) -> None:
        times.append(t)
        zs.append(z)

    if rk4:
        if dt_req > advisory * (1.0 + 1e-12):
            logger.warning("dt = %.3e exceeds stability advisory %.3e", dt_req, advisory)
        nsteps = 0
        if config.t_end > 0:
            nsteps = max(1, int(math.ceil(config.t_end / dt_req - 1e-12)))
        dt = config.t_end / nsteps if nsteps else 0.0
        if sample_every is None:
            sample_every = max(1, nsteps // 50)
        step, z = band()[2], rfft(y)[:, :cap]
        limit = _bound_limit(params.H)
        for i in range(1, nsteps + 1):
            z = step(z, dt)
            t = t0 + i * dt
            if not 2.0 / grid.N * np.add.reduce(np.abs(z[0])) < limit:
                _check_alive(irfft(z[0], grid.N), params.H, t, i, integrator)
            if i % sample_every == 0 or i == nsteps:
                sample(t, z)
    elif config.t_end > 0:
        stops = ([t0 + config.t_end * k / 50 for k in range(1, 51)] if sample_every is None
                 else [t0 + config.t_end])
        J = cap if bidirectional else _occupied_band(np.abs(rfft(y[0])[:cap]), cap)
        nsteps, rejected, sizes = _controlled_run(
            band, cap, J, y, grid.L, params.H, t0, stops, sample_every, sample)
    else:
        nsteps = 0
    return EvolutionResult(times, grid, _form_samples(y, zs, grid.N), params, config,
                           integrator=integrator, dt=config.t_end / nsteps if nsteps else 0.0,
                           steps=nsteps, rejected=rejected, band=sizes)


def _occupied_band(a: np.ndarray, cap: int) -> int:
    """The band an auto-dt unidirectional run starts on, from its |h_j| on the full band.

    The shortest prefix that holds every mode above CHOP_LEVEL of the peak
    coefficient, the chop of a series at its roundoff plateau (Aurentz &
    Trefethen 2017; Boyd 2001, ch. 2), plus a margin of an eighth of it
    (at least BAND_MARGIN modes), and never more than the cap modes of
    the 2/3-rule band.
    """
    above = np.flatnonzero(a > CHOP_LEVEL * a.max())
    top = int(above[-1]) if above.size else 0
    return min(cap, top + max(BAND_MARGIN, top // 8))


def _bound_limit(H: float) -> float:
    """The least (2/N) sum_j |h_j| at which a step forms h on the grid to check it.

    That sum bounds max|h| from above, so h is formed and checked exactly
    (_check_alive) only on the steps where the bound reaches BLOWUP_FACTOR H,
    less a margin for the bound's own roundoff, or is not finite.
    """
    return (1.0 - 1e-12) * BLOWUP_FACTOR * H


def _controlled_run(band, cap: int, J: int, y: np.ndarray, L: float, H: float, t: float,
                    stops: list[float], sample_every: int | None,
                    sample) -> tuple[int, int, tuple[int, int]]:
    """Step an ERK4(3)-IP run from the samples y at time t through every stop.

    band(J) is _band_run's (lin, flux, step) on the first J modes of the
    run's band of cap modes; the run starts on J of them.  y stacks the
    samples of h (and of v for a bidirectional run).  Returns the accepted
    and rejected step counts and the least and greatest band stepped.
    Every accepted step is checked for blow-up at the depth H, through the
    bound of _bound_limit, and sample(t, z) receives the band coefficients
    of each landing on a stop and, with sample_every, of every
    sample_every-th step; a step never writes a z it has returned.

    The band grows on demand: when a mode in its top ninth (at least
    BAND_MARGIN modes) passes GROW_LEVEL of the peak coefficient after
    an accepted step, a quarter of it (at least BAND_MARGIN modes, at
    most up to cap) is added, on which z is zero, so the state is exact.
    The next step forms its first-stage square afresh and the weights of
    the read below are rebuilt, while the PI controller carries on.

    Errors and sizes are measured in the norm in which the band's linear
    flow is an isometry: the L2 norm of h for the unidirectional equation,
    (sum omega^2 |h|^2 + |v|^2)^(1/2) for the bidirectional one, with
    omega^2 = -lin.  A PI controller (Gustafsson 1991) keeps each step's
    local error within IF_TOL of the starting state's norm.  The first
    step wanted is 0.01 of the time the flux takes to change the state by
    its own size (Hairer, Norsett & Wanner, sec. II.4).  Every step is
    also held within the RK4 imaginary-axis limit of the fastest beat in
    the interaction picture, 2 sqrt(2) / (c_max k_rms): c_max is the
    largest group speed of the band's own dispersion relation (omega =
    Im lin, or sqrt(-lin)) and k_rms the state's rms wavenumber in that
    norm.  Beyond it the stages sample the beat of the top modes against
    the state's own structure too coarsely, and roundoff there grows by a
    factor each lap that the error norm does not see until it is large.
    Steps are rounded down to a 2^(1/16) ladder, so the stepper's folded
    weights are reused; a step that would pass the next stop lands on it.
    A wanted step that is nan, zero or so short that the rest of the run
    would take more than MAX_STEPS of it raises BlowUpError, with the
    max|h| of the last accepted state, rather than spin: at 1e-8 of a run
    (about sqrt(eps) of the state's time scale) the two solutions of the
    pair agree to the last bit and the error estimate reads zero.

    Each accepted state is read once, in one pass of three calls over
    work arrays of the band's own (_state_reader): |z| and |z|^2, and
    their product with a weight matrix, which gives the blow-up bound
    sum_j |h_j|, the power and the k^2 moment of the beat limit; the band
    watch takes the maxima of |h_j| below and in the top in one more
    call.  The read is made at the start, after each accepted step and
    after each growth of the band; a rejected step changes no state, so
    its retry reads nothing.  The start's norm, and so the tolerance, is
    taken apart from the read (np.vdot), and the stepper's error norm is
    its own (_band_run).
    """
    m, N = y.shape
    J0 = J
    z = rfft(y)[:, :J]
    limit, watch = _bound_limit(H), np.maximum.reduceat

    def on_band(J: int):
        lin, flux, step = band(J)
        # the band's dispersion relation and the weights of the isometric norm
        omega = _omega(lin, m == 2)
        iso = np.stack((omega, np.ones(J)))[-m:]
        k2 = (2.0 * math.pi / L * np.arange(J)) ** 2
        c_max = float(np.abs(np.diff(omega)).max()) * L / (2.0 * math.pi)
        # the band watch splits |h_j| below and in its top ninth (at least BAND_MARGIN)
        split = np.array([0, max(0, J - max(BAND_MARGIN, J // 9))])
        return (flux, step, iso, c_max, *_state_reader(iso, k2), split)

    def beat_limit(S: list[list[float]]) -> float:
        # the beat limit 2 sqrt(2) / (c_max k_rms) of the state that S reads (inf
        # for a state without power or wavenumber, or a band without dispersion)
        power = S[1][1]
        rate = c_max * math.sqrt(S[1][2] / power) if power else 0.0
        return RK4_IMAG_LIMIT / rate if rate else math.inf

    flux, step, iso, c_max, read, a, split = on_band(J)
    u = iso * z
    size = math.sqrt(np.vdot(u, u).real)
    tol = IF_TOL * size
    # the flux changes h (unidirectional) or v (bidirectional), unit weight both;
    # a rate that overflows wants a zero first step, which the MAX_STEPS check reports
    with np.errstate(over="ignore"):
        rate = np.linalg.norm(flux * rfft(y[0] * y[0])[:J]) / size if size else 0.0
        beat = beat_limit(read(z))
    want = 0.01 / rate if rate else math.inf
    n, i, rejected, r_prev = None, 0, 0, 1.0
    for stop in stops:
        while t < stop:
            # after a rejection the step wanted is already below the beat limit
            want = min(want, beat)
            if not stops[-1] - t <= MAX_STEPS * want:  # a nan or zero want too
                raise BlowUpError(t, i + 1, float(np.max(np.abs(irfft(z[0], N)))), "ifrk4",
                                  f"a step of {want:.3g} s would take more than MAX_STEPS = "
                                  f"{MAX_STEPS:.0e} steps to t = {stops[-1]:.6g} s")
            rung = want
            if want < math.inf:
                rung = 2.0 ** (math.floor(16.0 * math.log2(want)) / 16.0)
            land = rung >= (stop - t) * (1.0 - 1e-9)
            dt = stop - t if land else rung
            z1, n1, err = step(z, n, dt)
            if err <= tol:
                i, z, n, t = i + 1, z1, n1, stop if land else t + dt
                # a landing step is short by choice, not by its error, so it
                # leaves the controller as it was
                if not land:
                    # PI exponents 0.7/4 and 0.4/4 for an error of order dt^4;
                    # the floor on r_prev keeps a zero error from shrinking the next step
                    r = err / tol if err else 0.0
                    fac = 5.0 if r == 0.0 else 0.9 * r ** -0.175 * r_prev ** 0.1
                    want, r_prev = dt * min(5.0, max(0.2, fac)), max(r, 1e-4)
                S = read(z)
                if not 2.0 / N * S[0][0] < limit:
                    _check_alive(irfft(z[0], N), H, t, i, "ifrk4")
                if land or (sample_every is not None and i % sample_every == 0):
                    sample(t, z)
                if J < cap:
                    # the top passes GROW_LEVEL of the peak where it passes
                    # GROW_LEVEL of the greatest |h_j| below it
                    below, top = watch(a, split).tolist()
                    if top > GROW_LEVEL * below:
                        grown = min(cap, J + max(BAND_MARGIN, J // 4))
                        z = np.pad(z, ((0, 0), (0, grown - J)))
                        J, n = grown, None
                        flux, step, iso, c_max, read, a, split = on_band(J)
                        S = read(z)
                beat = beat_limit(S)
            else:
                rejected += 1
                fac = 0.9 * (tol / err) ** 0.25 if err < math.inf else 0.0  # nan too
                want = dt * min(0.9, max(0.2, fac))
    return i, rejected, (J0, J)


# --------------------------------------------------------------------------
# deformation of near-solitary profiles
# --------------------------------------------------------------------------

def deformation_rate_closed_form(spec: DeformationSpec, params: PhysicalParams, xi):
    """Closed-form dh/dtau of the hbar*sech^2(p xi) profile [m/s].

    Evaluates, in a product form that stays finite in the degenerate
    steady case 4 sigma p^2 = hbar,

        3 sqrt(g/H) hbar p s^2 t [ -(4 sigma p^2 - hbar) s^2
                                    + (2/3)(alpha + 2 sigma p^2) ]

    with s = sech(p xi), t = tanh(p xi).  The rate vanishes identically
    when p = sqrt(hbar/(4 sigma)) and alpha = -hbar/2 (the steady wave),
    and at the crest xi = 0 for every spec.
    """
    sigma = dispersion_sigma(params)
    p, hbar, alpha = spec.p, spec.hbar, spec.alpha
    u = p * np.asarray(xi, dtype=float)
    s2 = sech_sq(u)
    t = np.tanh(u)
    bracket = -(4.0 * sigma * p * p - hbar) * s2 + (2.0 / 3.0) * (alpha + 2.0 * sigma * p * p)
    return 3.0 * math.sqrt(params.g / params.H) * hbar * p * s2 * t * bracket


def steady_inverse_width(hbar: float, params: PhysicalParams) -> float:
    """Inverse width p* = sqrt(hbar/(4 sigma)) of the steady hbar*sech^2(p xi) wave [1/m]."""
    sigma = dispersion_sigma(params)
    if not sigma > 0:
        raise ValueError("steepening analysis requires sigma > 0")
    if not 0 < hbar < math.inf:
        raise ValueError(f"hbar must be positive and finite, got {hbar}")
    return math.sqrt(hbar / (4.0 * sigma))


def steepening_verdict(spec: DeformationSpec, params: PhysicalParams,
                       cross_check: bool = False) -> SteepeningVerdict:
    """Does the profile steepen in front, flatten in front, or stay steady?

    The analytic criterion compares p with sqrt(hbar/(4 sigma)) (too
    narrow a hump steepens on its forward face, too wide a hump
    flattens there; equality is the steady wave, decided to 1e-12
    relative).  With cross_check=True a short moving-frame run, using
    the frame normalization alpha = 4 sigma p^2 - (3/2) hbar under
    which the criterion is stated, measures the forward-face slope
    max(-h_xi) over 1 s and raises ValueError if its trend disagrees, or
    is too slow to pass a relative change of 3e-3 in that time.
    """
    p_star = steady_inverse_width(spec.hbar, params)
    if abs(spec.p - p_star) <= 1e-12 * p_star:
        verdict = SteepeningVerdict.STEADY
    elif spec.p < p_star:
        verdict = SteepeningVerdict.STEEPENS_IN_FRONT
    else:
        verdict = SteepeningVerdict.FLATTENS_IN_FRONT

    if cross_check:
        change = front_slope_change(spec, params, 1.0)
        if verdict is SteepeningVerdict.STEADY:
            ok = abs(change) <= 3e-3
        elif verdict is SteepeningVerdict.STEEPENS_IN_FRONT:
            ok = change > 3e-3
        else:
            ok = change < -3e-3
        if not ok:
            raise ValueError(
                f"evolution cross-check contradicts verdict {verdict.value}: "
                f"forward-face slope changed by {change:+.3e} over 1.0 s, "
                "where the verdict needs a change beyond 0.003 "
                "(a deformation this slow is not resolved)"
            )
    return verdict


def front_slope_change(spec: DeformationSpec, params: PhysicalParams,
                       t_check: float) -> float:
    """Relative change of max(-h_xi) over a short moving-frame run of t_check > 0 s.

    ValueError when p is so large that the frame's alpha or the run's
    Fourier symbols overflow (its domain is 32/p long), or when hbar and p
    leave the starting slope a zero or subnormal float.
    """
    if not (0 < t_check < math.inf):
        raise ValueError(f"t_check must be positive and finite, got {t_check}")
    # domain wide enough for sech^2 tails below ~1e-13 of hbar
    L = 32.0 / spec.p
    grid = PeriodicGrid(L=L, N=512)
    alpha_c = 4.0 * dispersion_sigma(params) * (spec.p * spec.p) - 1.5 * spec.hbar
    if not math.isfinite(alpha_c):
        raise ValueError(f"p = {spec.p} 1/m overflows the frame's alpha = "
                         "4 sigma p^2 - (3/2) hbar")
    config = SchemeConfig(deriv="spectral", frame="moving", alpha=alpha_c,
                          t_end=t_check)
    field = WaveField(grid, spec.hbar * sech_sq(spec.p * grid.x))
    try:
        res = evolve(field, params, config, sample_every=10 ** 9)
    except ValueError as e:  # the run's domain is 32/p long, so what it rejects names p
        raise ValueError(f"p = {spec.p} 1/m: {e}") from None
    slope0 = float(np.max(-diff(field.h, L, 1)))
    if not _is_normal(slope0):
        raise ValueError(f"hbar = {spec.hbar} m and p = {spec.p} 1/m must leave the starting "
                         f"forward-face slope a normal float, got {slope0}")
    slope1 = float(np.max(-diff(res.final.h, L, 1)))
    return slope1 / slope0 - 1.0


# --------------------------------------------------------------------------
# factorization certificate
# --------------------------------------------------------------------------

def factorization_residual(field: WaveField, params: PhysicalParams,
                           scheme: str = "spectral",
                           h_t: np.ndarray | None = None) -> float:
    """Bidirectional-operator residual on a unidirectional jet [m/s^2].

    Builds the jet (h, h_t, h_tt) from the fixed-frame unidirectional
    symbols at T = 0, since the bidirectional operator it is checked
    against is pure gravity: h_t defaults to that RHS, and h_tt
    chain-rules d/dt through it, rfft(h_tt) = lin * rfft(h_t)
    + 2 flux * rfft(h h_t).  The residual therefore does not depend on T.
    Less the unfiltered bidirectional RHS, h_tt gives the operator

        h_tt - g H h_xx - g H d^2/dx^2 (3 h^2/(2H) + (H^2/3) h_xx)

    whose max norm is returned.  Unidirectional jets annihilate the
    operator up to terms two orders down in amplitude (for the exact
    solitary profile the residual converges under refinement to
    g h0^2/(4H) * max|h_xx| exactly); generic jets such as a left-moving
    pair (pass h_t = +sqrt(gH) h_x) leave an order-one residual.

    Both tables come from the memos that runs read, so a residual at a
    run's domain reuses the run's tables, and one at a fresh domain costs
    one build of each and at most one entry in each bounded memo.
    """
    grid, h = field.grid, field.h
    lin, flux = _symbols_for(grid, replace(params, T=0.0), SchemeConfig(deriv=scheme))
    if h_t is None:
        h_t = _grid_rhs(lin, flux, h)
    h_tt = irfft(lin * rfft(h_t) + 2.0 * flux * rfft(h * h_t), grid.N)
    bidirectional = _boussinesq_symbols(grid.N, grid.L, params.g, params.H, scheme, None)
    return float(np.max(np.abs(h_tt - _grid_rhs(*bidirectional, h))))


# --------------------------------------------------------------------------
# crest tracking
# --------------------------------------------------------------------------

def crest_position_rows(h: np.ndarray, grid: PeriodicGrid,
                        where: np.ndarray | None = None) -> np.ndarray:
    """crest_position of each row of the (S, N) stack h on grid, in one pass.

    where, if given, is one mask for every row or a stack of them.
    """
    N, L = grid.N, grid.L
    j = np.argmax(h if where is None else np.where(where, h, -np.inf), axis=-1)
    rows = np.arange(len(h))
    hm, hc, hp = h[rows, (j - 1) % N], h[rows, j], h[rows, (j + 1) % N]
    denom = hm + hp - 2.0 * hc
    delta = np.divide(0.5 * (hm - hp), denom, out=np.zeros_like(denom), where=denom != 0.0)
    x = (-0.5 * L + grid.dx * j) + delta * grid.dx  # grid.x[j] + delta dx, bit for bit
    return (x + 0.5 * L) % L - 0.5 * L


def crest_position(field: WaveField, where: np.ndarray | None = None) -> float:
    """Sub-grid crest abscissa from a parabola through the discrete maximum.

    where (boolean, one entry per grid point) restricts the search for
    the maximum; the parabola still uses that sample's unmasked neighbours.
    This is the one-row case of crest_position_rows.
    """
    return float(crest_position_rows(field.h[None], field.grid, where)[0])


def fit_speed(times: Sequence[float], positions: Sequence[float], L: float) -> float:
    """Least-squares speed of a periodic trajectory [m/s], lifted to a continuous one.

    The line is fitted against the times shifted to the first and divided
    by their span, so times of any magnitude fit; ValueError unless the
    span is positive.
    """
    t = np.asarray(times, dtype=float)
    span = float(t[-1] - t[0]) if t.size else 0.0
    if not span > 0.0:
        raise ValueError(f"a speed needs sample times that advance, got a span of {span} s")
    s = (t - t[0]) / span
    s -= s.mean()
    ang = np.asarray(positions, dtype=float) * (2.0 * np.pi / L)
    x = np.unwrap(ang) * (L / (2.0 * np.pi))
    return float(np.dot(s, x - x.mean()) / np.dot(s, s)) / span
