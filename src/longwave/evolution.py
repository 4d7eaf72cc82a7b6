"""Time integration of the long-wave evolution equations.

Two dynamics are provided.  The unidirectional equation, in the fixed
frame

    h_t = -(3/2) sqrt(g/H) d/dx ( (2/3) H h + h^2/2 + (H^3/9) h_xx )

or in a frame moving at sqrt(gH) - sqrt(g/H) alpha

    h_t = -(3/2) sqrt(g/H) d/dxi ( h^2/2 + (2/3) alpha h + (sigma/3) h_xixi )

where sigma = H^3/3 - T H/(rho g) carries the capillary correction.  And
the bidirectional second-order equation

    h_tt = g H d^2/dx^2 ( h + 3 h^2/(2H) + (H^2/3) h_xx )

integrated as the first-order system (h, v = h_t).  The bidirectional
model is linearly ill-posed above the wavenumber sqrt(3)/H, so it is
stepped on the band of rfft modes at or below filter_cut * sqrt(3)/H,
onto which the starting (h, v) is projected once; the filter (the band
limit) can be disabled only to demonstrate the blow-up.

Both equations are written in Fourier space the same way, as one
linear symbol plus one multiplier of the transformed h^2 flux, built
from the derivative symbols of the chosen scheme (the centered stencils
through their exact trigonometric symbols).  For the bidirectional
system the pair gives h_tt, and the low-pass keeps both multipliers
only up to the cut.

Every run is stepped the same way, on the rfft coefficients of its
band of retained modes (_band_run): the starting state is projected onto
the band once, and each stage forms h^2 on the fewest points that make
the product exact inside the band (Orszag 1971; Boyd 2001, ch. 11).
The time integrator follows from the step.  With scheme.dt=auto a
unidirectional run uses Lawson's integrating-factor RK4 (IFRK4): the
linear symbol is propagated exactly by exp(L dt), so the dispersive
stiffness (dt ~ dx^3 under RK4) no longer sets the step.  Its band is
the 2/3-rule one, the rfft modes below N/3, so the fastest retained
mode turns about (2/3)^3 as fast as the Nyquist one.
Two limits, both measured over the retained band, set the step.  The
nonlinear one is IF_SAFETY = 0.1 times the RK4 imaginary-axis limit of
the linearized flux, 1.5 sqrt(g/H) k_max max|h0|; 0.1 is frozen from an
accuracy sweep under this limit alone (the cnoidal energy drift over
2 s at N = 128 must stay below 1e-8; it was 1.6e-6 at 0.4, 6.0e-8 at
0.2 and 2.5e-9 at 0.1).  The phase one keeps every retained mode's
exact rotation below IF_PHASE_LIMIT = 0.8 of a turn per step.  It was
introduced for the aliased product, whose near-Nyquist pairs the RK4
stages resonated once a step turned them past a full cycle (the
acceptance collision at N = 256 blew up at t = 51 s); it is kept for
the dealiased step, which has not been certified beyond it.

An explicit dt, and every bidirectional run, uses classical 4-stage
Runge-Kutta (RK4) on the same stepper, whose advisory step is 0.4 times
the RK4 limit of the linearized symbol; the 0.4 is frozen from a
blow-up sweep (solitary runs remain stable up to about 1.05 times the
limit).  An explicit-dt unidirectional band is every mode, so its
product is the full-grid pseudo-spectral one of kdv_rhs.  The blow-up
check reads a bound on max|h| from the band coefficients and forms h on
the grid only when that bound nears the limit, so it stays exact.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .elliptic import sech_sq
from .invariants import InvariantSet, boussinesq_energy, compute_invariants
from .model import PeriodicGrid, PhysicalParams, WaveField, dispersion_sigma
from .operators import check_scheme, derivative_symbols, diff, wavenumbers

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
    "unwrap_track",
    "fit_speed",
]

logger = logging.getLogger(__name__)

RK4_IMAG_LIMIT = 2.0 * math.sqrt(2.0)
CFL_SAFETY = 0.4
IF_SAFETY = 0.1
IF_PHASE_LIMIT = 0.8 * 2.0 * math.pi  # largest rotation of a mode per IFRK4 step [rad]
BLOWUP_FACTOR = 10.0  # |h| beyond this multiple of H aborts the run


class BlowUpError(RuntimeError):
    """Raised when the solution leaves the model's validity range.

    time is when, step the number of the step that tripped the check
    (counted from the run's start; 1 for a single public step), and
    max_abs_h the max|h| it found [m] (inf or nan when not finite).
    """

    def __init__(self, time: float, step: int, max_abs_h: float):
        self.time = time
        self.step = step
        self.max_abs_h = max_abs_h
        super().__init__(f"solution blew up at t = {time:.6g} s "
                         f"(step {step}, max|h| = {max_abs_h:.6g} m)")


@dataclass(frozen=True)
class SchemeConfig:
    """Discretization choices for one run.

    deriv selects the spatial scheme ("spectral" or "centered4").  dt of
    None means "use the stability advisory".  frame applies to the
    unidirectional equation only; alpha is the moving-frame parameter.
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
        if self.dt is not None and not (self.dt > 0):
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.t_end < 0:
            raise ValueError(f"t_end must be non-negative, got {self.t_end}")
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
        if not (self.hbar > 0 and self.p > 0):
            raise ValueError("hbar and p must be positive")


class SteepeningVerdict(Enum):
    STEEPENS_IN_FRONT = "steepens_in_front"
    FLATTENS_IN_FRONT = "flattens_in_front"
    STEADY = "steady"


# --------------------------------------------------------------------------
# right-hand sides
# --------------------------------------------------------------------------

@lru_cache(maxsize=32)
def _kdv_symbols(N: int, L: float, g: float, H: float, sigma: float,
                 frame: str, alpha: float, deriv: str,
                 dealias: bool) -> tuple[np.ndarray, np.ndarray]:
    """Fourier form of the unidirectional equation (read-only arrays).

    Returns (lin, flux) with  rfft(h_t) = lin * rfft(h) + flux * rfft(h^2):
    lin carries the advection and dispersion terms, flux the h^2/2
    nonlinearity.  Both are purely imaginary.  With dealias both cover
    only Orszag's 2/3-rule band, the rfft modes j with 3j < N, on which
    the h^2 of a band-limited field is exact (see _band_run).
    """
    d1, d2 = derivative_symbols(N, L, deriv)
    if dealias:
        d1, d2 = d1[:(N + 2) // 3], d2[:(N + 2) // 3]
    c = 1.5 * math.sqrt(g / H)
    if frame == "fixed":
        adv, disp = (2.0 / 3.0) * H, H ** 3 / 9.0
    else:
        adv, disp = (2.0 / 3.0) * alpha, sigma / 3.0
    lin = -c * d1 * (adv + disp * d2)
    flux = -0.5 * c * d1
    lin.setflags(write=False)
    flux.setflags(write=False)
    return lin, flux


def _symbols_for(grid: PeriodicGrid, params: PhysicalParams, config: SchemeConfig,
                 dealias: bool = False):
    """(lin, flux) of the run; dealias=True gives the IFRK4 band-limited pair."""
    if config.frame == "fixed":
        # sigma and alpha play no role in the fixed frame; normalize the cache key
        return _kdv_symbols(grid.N, grid.L, params.g, params.H, 0.0,
                            "fixed", 0.0, config.deriv, dealias)
    return _kdv_symbols(grid.N, grid.L, params.g, params.H, dispersion_sigma(params),
                        "moving", config.alpha, config.deriv, dealias)


def _grid_rhs(lin: np.ndarray, flux: np.ndarray, h: np.ndarray) -> np.ndarray:
    """irfft(lin * rfft(h) + flux * rfft(h^2)) over the band of lin, from samples h."""
    J = lin.size
    return np.fft.irfft(lin * np.fft.rfft(h)[:J] + flux * np.fft.rfft(h * h)[:J], n=h.size)


def kdv_rhs(field: WaveField, params: PhysicalParams,
            config: SchemeConfig = SchemeConfig()) -> np.ndarray:
    """dh/dt of the unidirectional equation in the configured frame [m/s]."""
    return _grid_rhs(*_symbols_for(field.grid, params, config), field.h)


@lru_cache(maxsize=32)
def _boussinesq_symbols(N: int, L: float, g: float, H: float, deriv: str,
                        k_cut: float | None) -> tuple[np.ndarray, np.ndarray]:
    """(lin, flux) with rfft(h_tt) = lin * rfft(h) + flux * rfft(h^2) on the band.

    The retained band is the leading rfft modes at or below k_cut (all of
    them when the low-pass is off); h_tt is zero above it (read-only arrays).
    """
    J = N // 2 + 1 if k_cut is None else int(np.count_nonzero(wavenumbers(N, L) <= k_cut))
    d2 = derivative_symbols(N, L, deriv)[1][:J]
    lin = g * H * d2 * (1.0 + (H * H / 3.0) * d2)
    flux = 1.5 * g * d2
    lin.setflags(write=False)
    flux.setflags(write=False)
    return lin, flux


def _boussinesq_symbols_for(grid: PeriodicGrid, params: PhysicalParams,
                            config: SchemeConfig):
    k_cut = config.filter_cut * math.sqrt(3.0) / params.H if config.boussinesq_filter else None
    return _boussinesq_symbols(grid.N, grid.L, params.g, params.H, config.deriv, k_cut)


def _boussinesq_fn_for(grid: PeriodicGrid, params: PhysicalParams,
                       config: SchemeConfig) -> Callable[[np.ndarray], np.ndarray]:
    """Full-grid RHS of the first-order system y = (h, v = h_t) -> (h_t, h_tt)."""
    lin, flux = _boussinesq_symbols_for(grid, params, config)
    N = grid.N

    def rhs(y: np.ndarray) -> np.ndarray:
        h, v = y
        if not config.boussinesq_filter:
            hh, sq = np.fft.rfft(np.stack([h, h * h]))
            return np.stack([v, np.fft.irfft(lin * hh + flux * sq, n=N)])
        hh, vh, sq = np.fft.rfft(np.stack([h, v, h * h]))[:, :lin.size]
        return np.fft.irfft(np.stack([vh, lin * hh + flux * sq]), n=N)

    return rhs


def boussinesq_rhs(state: tuple[WaveField, WaveField], params: PhysicalParams,
                   config: SchemeConfig = SchemeConfig()) -> tuple[np.ndarray, np.ndarray]:
    """(h_t, h_tt) of the bidirectional system, low-pass applied [m/s, m/s^2]."""
    h_field, v_field = state
    if h_field.grid != v_field.grid:
        raise ValueError("state fields live on different grids")
    out = _boussinesq_fn_for(h_field.grid, params, config)(np.stack([h_field.h, v_field.h]))
    return out[0], out[1]


# --------------------------------------------------------------------------
# stepping
# --------------------------------------------------------------------------

def stable_dt(grid: PeriodicGrid, params: PhysicalParams,
              config: SchemeConfig = SchemeConfig(), equation: str = "kdv") -> float:
    """Advisory RK4 time step: 0.4 x the RK4 limit of the linearized symbol [s].

    Both read the scheme's own linear symbol: for the unidirectional
    equation it is purely imaginary (scaling like dx^-3); for the
    bidirectional one its root is the dispersion frequency over the
    retained band (or the fastest growth rate when the filter is off).
    """
    if equation == "kdv":
        lam = np.abs(_symbols_for(grid, params, config)[0])
    elif equation == "boussinesq":
        lam = np.sqrt(np.abs(_boussinesq_symbols_for(grid, params, config)[0]))
    else:
        raise ValueError(f"unknown equation {equation!r}")
    lam_max = float(lam.max())
    if lam_max == 0.0:
        raise ValueError("degenerate linear symbol; cannot size a step")
    return CFL_SAFETY * RK4_IMAG_LIMIT / lam_max


def _ifrk4_dt(lin: np.ndarray, flux: np.ndarray, h: np.ndarray) -> float:
    """Step of an integrating-factor run started from h [s].

    lin and flux are the 2/3-dealiased pair the IFRK4 step uses, so both
    limits are measured over the retained band.  The lesser of the two:
    IF_SAFETY x the RK4 limit of the linearized h^2/2 flux, whose largest
    rate is 2 max|flux| max|h| = 1.5 sqrt(g/H) k_max max|h| (k_max the
    scheme's largest first-derivative multiplier in the band).  And
    IF_PHASE_LIMIT / max|lin|, which keeps the RK4 stages from sampling
    any retained mode's exact rotation past a full turn.  A zero field
    has no coupling and gets an infinite step.
    """
    rate = 2.0 * float(np.max(np.abs(flux))) * float(np.max(np.abs(h)))
    if rate == 0.0:
        return math.inf
    return min(IF_SAFETY * RK4_IMAG_LIMIT / rate,
               IF_PHASE_LIMIT / float(np.max(np.abs(lin))))


def _rk4(y: np.ndarray, rhs: Callable[[np.ndarray], np.ndarray], dt: float) -> np.ndarray:
    k1 = rhs(y)
    k2 = rhs(y + 0.5 * dt * k1)
    k3 = rhs(y + 0.5 * dt * k2)
    k4 = rhs(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _band_run(grid: PeriodicGrid, params: PhysicalParams, config: SchemeConfig,
              bidirectional: bool, integrator: str, dt: float):
    """The stepper of every run, on its band of retained rfft modes.

    Returns (lin, flux, advance): the run's symbols on its band of
    J = lin.size modes, and the step.  The band is every mode for an
    explicit-dt unidirectional run, the 2/3-rule band for an
    integrating-factor one and the low-pass band for a bidirectional one.
    The state z is the rfft coefficients of h on the band, followed by
    v's for a bidirectional run: rfft(y)[:, :J].ravel() of the stacked
    samples y.  h^2 is formed on the smallest 5-smooth M >= 3J - 2 points
    (M divides 30^64), where the sum of two band modes folds above the
    band, so the product is exact inside it; capped at N, it is the
    full-grid product.  advance(z) is the state one step of dt later:
    classical RK4 on the band RHS, or for integrator "ifrk4"
    (unidirectional only) Lawson's RK4, which propagates lin exactly by
    exp(lin dt) and leaves the stages only the h^2 flux.
    """
    if bidirectional:
        lin, flux = _boussinesq_symbols_for(grid, params, config)
    else:
        lin, flux = _symbols_for(grid, params, config, dealias=integrator == "ifrk4")
    J, N = lin.size, grid.N
    M = next((M for M in range(3 * J - 2, N) if 30 ** 64 % M == 0), N)
    flux_m = flux * (M / N)  # the M-point product to the N-point rfft scale

    def squared(hh: np.ndarray) -> np.ndarray:
        return np.fft.rfft(np.fft.irfft(hh, n=M) ** 2)[:J]

    if bidirectional:
        def rhs(z: np.ndarray) -> np.ndarray:
            return np.concatenate((z[J:], lin * z[:J] + flux_m * squared(z[:J])))
    else:
        def rhs(z: np.ndarray) -> np.ndarray:
            return lin * z + flux_m * squared(z)

    if integrator == "rk4":
        return lin, flux, lambda z: _rk4(z, rhs, dt)

    E = np.exp(0.5 * dt * lin)
    # the flux multiplier and the stage weights folded into one array each
    a2, a3, a4 = (0.5 * dt) * E * flux_m, (0.5 * dt) * flux_m, dt * E * flux_m
    b1, b23, b4 = (dt / 6.0) * E * E * flux_m, (dt / 3.0) * E * flux_m, (dt / 6.0) * flux_m

    def advance(z: np.ndarray) -> np.ndarray:
        Ez = E * z
        E2z = E * Ez
        n1 = squared(z)
        n2 = squared(Ez + a2 * n1)
        n3 = squared(Ez + a3 * n2)
        n4 = squared(E2z + a4 * n3)
        return E2z + b1 * n1 + b23 * (n2 + n3) + b4 * n4

    return lin, flux, advance


def _check_alive(h: np.ndarray, H: float, t: float, step: int = 1) -> None:
    m = float(np.max(np.abs(h)))
    if not math.isfinite(m) or m > BLOWUP_FACTOR * H:
        raise BlowUpError(t, step, m)


def _unpack(state) -> tuple[bool, PeriodicGrid, float, np.ndarray]:
    """(bidirectional, grid, t, y) of a WaveField or an (h, v) pair; y stacks copies."""
    if isinstance(state, WaveField):
        return False, state.grid, state.t, np.stack([state.h])
    h_field, v_field = state
    if h_field.grid != v_field.grid:
        raise ValueError("state fields live on different grids")
    return True, h_field.grid, h_field.t, np.stack([h_field.h, v_field.h])


def _pack(grid: PeriodicGrid, y: np.ndarray, t: float, bidirectional: bool):
    if bidirectional:
        return WaveField(grid, y[0], t), WaveField(grid, y[1], t)
    return WaveField(grid, y[0], t)


def _step(state, params: PhysicalParams, config: SchemeConfig, integrator: str,
          dt: float | None):
    """One step of evolve's band stepper; state is projected onto the band first."""
    bidirectional, grid, t, y = _unpack(state)
    if dt is None:
        dt = config.dt or stable_dt(grid, params, config,
                                    "boussinesq" if bidirectional else "kdv")
    lin, _, advance = _band_run(grid, params, config, bidirectional, integrator, dt)
    J = lin.size
    y = np.fft.irfft(advance(np.fft.rfft(y)[:, :J].ravel()).reshape(-1, J), n=grid.N)
    _check_alive(y[0], params.H, t + dt)
    return _pack(grid, y, t + dt, bidirectional)


def step_rk4(state, params: PhysicalParams, config: SchemeConfig,
             dt: float | None = None):
    """One classical RK4 step of the appropriate dynamics.

    state is a WaveField (unidirectional) or an (h, v) pair of
    WaveFields (bidirectional); the advanced state of the same kind is
    returned with time moved by dt (default: config.dt, else the
    advisory step).  This is evolve's explicit-dt step: the state is
    projected onto its band first (every mode for a WaveField, the
    retained band for a pair) and stepped there.  Raises BlowUpError
    when the solution leaves the model's validity range.
    """
    return _step(state, params, config, "rk4", dt)


def step_ifrk4(field: WaveField, params: PhysicalParams, config: SchemeConfig,
               dt: float) -> WaveField:
    """One Lawson integrating-factor RK4 step of the unidirectional equation.

    The scheme's linear symbol (advection and dispersion) is propagated
    exactly, so dt is not bounded by the dispersive stiffness; evolve
    takes this step for scheme.dt=auto, sized by the nonlinear and
    phase limits of the module docstring.  The step is the 2/3-dealiased
    one evolve takes: field is projected onto the retained band
    (rfft modes j with 3j < N) and the result has no content above it.
    Raises BlowUpError when the solution leaves the model's validity range.
    """
    return _step(field, params, config, "ifrk4", dt)


@dataclass
class EvolutionResult:
    """Sampled trajectory of one run."""

    times: list[float]
    snapshots: list
    invariants: list[InvariantSet]
    energy: list[float] | None = None  # bidirectional conserved energy
    integrator: str = ""  # "ifrk4" or "rk4"
    dt: float = 0.0  # the step taken [s]
    steps: int = 0

    @property
    def final(self):
        return self.snapshots[-1]


def evolve(initial, params: PhysicalParams, config: SchemeConfig,
           observers: Sequence[Callable] = (), sample_every: int | None = None,
           record_invariants: bool = True) -> EvolutionResult:
    """Integrate to config.t_end, sampling snapshots and invariants.

    initial is a WaveField or an (h, v) WaveField pair.  Every run steps
    the rfft coefficients of its retained band through one stepper
    (_band_run); the integrator follows from config.dt.  A
    unidirectional run with dt = None steps with Lawson integrating-factor
    RK4 ("ifrk4") on the 2/3-rule band: the linear symbol is propagated
    exactly, so the step is bounded by the nonlinearity and by the phase
    limit (see the module docstring).  An explicit dt, and every
    bidirectional run, steps with classical RK4 ("rk4"), warned against
    (or, for dt = None, set to) the RK4 stability advisory; its band is
    every mode for a unidirectional run and the low-pass band for a
    bidirectional one (every mode when the filter is off).  The initial
    state is projected onto the band once: the first snapshot is the
    initial state as given, later ones carry no modes above the band.
    The step is shrunk so that an integer number of steps lands exactly
    on t_end.  Every step is checked for blow-up.
    Snapshots, invariant sets, and observer callbacks fire every
    sample_every steps (default: ~50 samples per run) and always at the
    endpoints.  Observers receive (t, snapshot) and must not mutate it.
    """
    bidirectional, grid, t0, y = _unpack(initial)
    integrator = "rk4" if bidirectional or config.dt is not None else "ifrk4"
    if integrator == "rk4":
        advisory = stable_dt(grid, params, config, "boussinesq" if bidirectional else "kdv")
        dt_req = config.dt if config.dt is not None else advisory
        if dt_req > advisory * (1.0 + 1e-12):
            logger.warning("dt = %.3e exceeds stability advisory %.3e", dt_req, advisory)
    else:
        dt_req = _ifrk4_dt(*_symbols_for(grid, params, config, dealias=True), y[0])

    if config.t_end <= 0:
        nsteps, dt = 0, 0.0
    else:
        nsteps = max(1, int(math.ceil(config.t_end / dt_req - 1e-12)))
        dt = config.t_end / nsteps
    if sample_every is None:
        sample_every = max(1, nsteps // 50)

    lin, flux, advance = _band_run(grid, params, config, bidirectional, integrator, dt)
    J = lin.size
    result = EvolutionResult(times=[], snapshots=[], invariants=[],
                             energy=[] if bidirectional else None,
                             integrator=integrator, dt=dt, steps=nsteps)

    def sample(t: float, y: np.ndarray) -> None:
        snap = _pack(grid, y, t, bidirectional)
        if record_invariants:
            h_t = y[1] if bidirectional else _grid_rhs(lin, flux, y[0])
            result.invariants.append(compute_invariants(
                snap[0] if bidirectional else snap, params, scheme=config.deriv, h_t=h_t))
            if bidirectional:
                result.energy.append(boussinesq_energy(*snap, params))
        result.times.append(t)
        result.snapshots.append(snap)
        for obs in observers:
            obs(t, snap)

    z = np.fft.rfft(y)[:, :J].ravel()
    sample(t0, y)
    # (2/N) sum_j |h_j| bounds max|h| from above, so h is formed on the grid
    # and checked exactly only on the steps where that bound reaches the
    # limit (less a margin for the bound's own roundoff) or is not finite
    limit = (1.0 - 1e-12) * BLOWUP_FACTOR * params.H
    for i in range(nsteps):
        z = advance(z)
        t = t0 + (i + 1) * dt
        if not 2.0 / grid.N * np.abs(z[:J]).sum() < limit:
            _check_alive(np.fft.irfft(z[:J], n=grid.N), params.H, t, i + 1)
        if (i + 1) % sample_every == 0 or (i + 1) == nsteps:
            sample(t, np.fft.irfft(z.reshape(-1, J), n=grid.N))
    return result


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
    if not hbar > 0:
        raise ValueError("hbar and p must be positive")
    return math.sqrt(hbar / (4.0 * sigma))


def steepening_verdict(spec: DeformationSpec, params: PhysicalParams,
                       cross_check: bool = False, t_check: float = 1.0,
                       rel_threshold: float = 3e-3) -> SteepeningVerdict:
    """Does the profile steepen in front, flatten in front, or stay steady?

    The analytic criterion compares p with sqrt(hbar/(4 sigma)) (too
    narrow a hump steepens on its forward face, too wide a hump
    flattens there; equality is the steady wave, decided to 1e-12
    relative).  With cross_check=True a short moving-frame run, using
    the frame normalization alpha = 4 sigma p^2 - (3/2) hbar under
    which the criterion is stated, measures the forward-face slope
    max(-h_xi) and raises RuntimeError if the trend disagrees.
    """
    p_star = steady_inverse_width(spec.hbar, params)
    if abs(spec.p - p_star) <= 1e-12 * p_star:
        verdict = SteepeningVerdict.STEADY
    elif spec.p < p_star:
        verdict = SteepeningVerdict.STEEPENS_IN_FRONT
    else:
        verdict = SteepeningVerdict.FLATTENS_IN_FRONT

    if cross_check:
        change = front_slope_change(spec, params, t_check)
        if verdict is SteepeningVerdict.STEADY:
            ok = abs(change) <= rel_threshold
        elif verdict is SteepeningVerdict.STEEPENS_IN_FRONT:
            ok = change > rel_threshold
        else:
            ok = change < -rel_threshold
        if not ok:
            raise RuntimeError(
                f"evolution cross-check contradicts verdict {verdict.value}: "
                f"forward-face slope changed by {change:+.3e} over {t_check} s "
                "(extend t_check if the deformation is too slow to resolve)"
            )
    return verdict


def front_slope_change(spec: DeformationSpec, params: PhysicalParams,
                       t_check: float = 1.0) -> float:
    """Relative change of max(-h_xi) over a short moving-frame run."""
    # domain wide enough for sech^2 tails below ~1e-13 of hbar
    L = 32.0 / spec.p
    grid = PeriodicGrid(L=L, N=512)
    alpha_c = 4.0 * dispersion_sigma(params) * spec.p ** 2 - 1.5 * spec.hbar
    config = SchemeConfig(deriv="spectral", frame="moving", alpha=alpha_c,
                          t_end=t_check)
    field = WaveField(grid, spec.hbar * sech_sq(spec.p * grid.x))
    res = evolve(field, params, config, record_invariants=False,
                 sample_every=10 ** 9)
    slope0 = float(np.max(-diff(field.h, L, 1)))
    slope1 = float(np.max(-diff(res.final.h, L, 1)))
    return slope1 / slope0 - 1.0


# --------------------------------------------------------------------------
# factorization certificate
# --------------------------------------------------------------------------

def factorization_residual(field: WaveField, params: PhysicalParams,
                           scheme: str = "spectral",
                           h_t: np.ndarray | None = None) -> float:
    """Bidirectional-operator residual on a unidirectional jet [m/s^2].

    Builds the jet (h, h_t, h_tt) with h_t defaulting to the fixed-frame
    unidirectional RHS and h_tt obtained by chain-ruling d/dt through
    that RHS, then evaluates the bidirectional operator

        h_tt - g H h_xx - g H d^2/dx^2 (3 h^2/(2H) + (H^2/3) h_xx)

    and returns its max norm.  Unidirectional jets annihilate the
    operator up to terms two orders down in amplitude (for the exact
    solitary profile the residual converges under refinement to
    g h0^2/(4H) * max|h_xx| exactly); generic jets such as a left-moving
    pair (pass h_t = +sqrt(gH) h_x) leave an order-one residual.
    """
    g, H = params.g, params.H
    L = field.grid.L
    h = field.h
    c = 1.5 * math.sqrt(g / H)

    def flux_lin(w, base):
        return (2.0 / 3.0) * H * w + base + (H ** 3 / 9.0) * diff(w, L, 2, scheme)

    if h_t is None:
        h_t = -c * diff(flux_lin(h, 0.5 * h * h), L, 1, scheme)
    # directional derivative of the RHS at h in the direction h_t
    h_tt = -c * diff(flux_lin(h_t, h * h_t), L, 1, scheme)
    hxx = diff(h, L, 2, scheme)
    B = h_tt - g * H * hxx - g * H * diff(1.5 * h * h / H + (H * H / 3.0) * hxx, L, 2, scheme)
    return float(np.max(np.abs(B)))


# --------------------------------------------------------------------------
# crest tracking
# --------------------------------------------------------------------------

def crest_position(field: WaveField, where: np.ndarray | None = None) -> float:
    """Sub-grid crest abscissa from a parabola through the discrete maximum.

    where (boolean, one entry per grid point) restricts the search for
    the maximum; the parabola still uses that sample's unmasked neighbours.
    """
    h = field.h
    N = field.grid.N
    j = int(np.argmax(h if where is None else np.where(where, h, -np.inf)))
    hm, hc, hp = h[(j - 1) % N], h[j], h[(j + 1) % N]
    denom = hm + hp - 2.0 * hc
    delta = 0.0 if denom == 0.0 else 0.5 * (hm - hp) / denom
    x = field.grid.x[j] + delta * field.grid.dx
    L = field.grid.L
    return float((x + 0.5 * L) % L - 0.5 * L)


def unwrap_track(positions: Sequence[float], L: float) -> np.ndarray:
    """Lift periodic positions to a continuous trajectory."""
    ang = np.asarray(positions, dtype=float) * (2.0 * np.pi / L)
    return np.unwrap(ang) * (L / (2.0 * np.pi))


def fit_speed(times: Sequence[float], positions: Sequence[float], L: float) -> float:
    """Least-squares speed of a periodic trajectory [m/s]."""
    x = unwrap_track(positions, L)
    return float(np.polyfit(np.asarray(times, dtype=float), x, 1)[0])
