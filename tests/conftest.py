"""Shared fixtures, including the expensive reference transit run."""

import math
import signal

import numpy as np
import pytest

from longwave import (
    PeriodicGrid,
    PhysicalParams,
    SchemeConfig,
    SolitarySpec,
    conservation_drift,
    crest_position,
    dispersion_sigma,
    evolve,
    fit_speed,
    solitary_field,
    solitary_speed,
)
from longwave import evolution


@pytest.fixture(scope="session")
def params():
    """Pure-gravity laboratory channel, depth 1 m."""
    return PhysicalParams(g=9.81, H=1.0, rho=1000.0, T=0.0)


@pytest.fixture(scope="session")
def water():
    """Clean water including surface tension."""
    return PhysicalParams(g=9.81, H=1.0, rho=1000.0, T=0.0728)


def lowpass_band(h, grid, params, cut):
    """h on the pair's low-pass band, the leading rfft modes at or below cut sqrt(3)/H.

    The band is the one evolve steps the pair on, of the J modes that
    evolution._symbols keeps at filter_cut = cut.
    """
    J = evolution._symbols(grid, params, SchemeConfig(filter_cut=cut), True)[0].size
    return np.fft.irfft(np.fft.rfft(h)[:J], n=grid.N)


def same_bits(a, b):
    """a and b hold the same shape, dtype and bits, signed zeros included."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def two_soliton(params, x, t, heights, centres):
    """KdV's exact two-soliton h(x, t) on the line, in the moving frame at alpha = 0 [m].

    The unidirectional equation at frame alpha is u_tau + 6 u u_x + u_xxx = 0
    under h = 2 sigma u, x = xi - (2/3) c alpha t and tau = c sigma t / 3,
    with c = (3/2) sqrt(g/H); here alpha = 0, so x = xi.  Its two-soliton
    (Hirota, Phys. Rev. Lett. 27 (1971) 1192) is u = 2 (log F)_xx, with
    F = 1 + e^eta1 + e^eta2 + A e^(eta1 + eta2), eta_i = 2 kappa_i (x - x_i)
    - 8 kappa_i^3 tau, A = ((kappa_1 - kappa_2) / (kappa_1 + kappa_2))^2 and
    kappa_i = sqrt(h_i / (4 sigma)) the inverse width of the crest h_i.  With
    the taller wave first and behind, its crest runs at x_1 + 4 kappa_1^2 tau
    until they meet and D / kappa_1 ahead of that after, where
    D = log((kappa_1 + kappa_2) / (kappa_1 - kappa_2)); the second's runs
    D / kappa_2 ahead of x_2 + 4 kappa_2^2 tau before and on it after.  F's
    four terms are scaled by e^(-largest exponent), so nothing overflows.
    """
    sigma = dispersion_sigma(params)
    tau = 1.5 * math.sqrt(params.g / params.H) * sigma * t / 3.0
    x = np.asarray(x, dtype=float)
    k1, k2 = (math.sqrt(h / (4.0 * sigma)) for h in heights)
    eta1 = 2.0 * k1 * (x - centres[0]) - 8.0 * k1 ** 3 * tau
    eta2 = 2.0 * k2 * (x - centres[1]) - 8.0 * k2 ** 3 * tau
    exponents = np.stack((np.zeros_like(x), eta1, eta2,
                          eta1 + eta2 + 2.0 * math.log(abs(k1 - k2) / (k1 + k2))))
    terms = np.exp(exponents - exponents.max(axis=0))
    rates = np.array([0.0, 2.0 * k1, 2.0 * k2, 2.0 * (k1 + k2)])
    F, F_x, F_xx = (rates ** p @ terms for p in range(3))
    return 4.0 * sigma * (F_xx * F - F_x * F_x) / (F * F)


def smooth_random_fields(grid: PeriodicGrid, count: int, amplitude: float,
                         max_mode: int = 8, seed: int = 0):
    """Band-limited random periodic fields, reproducible by seed."""
    rng = np.random.default_rng(seed)
    x = grid.x
    out = []
    for _ in range(count):
        h = np.zeros(grid.N)
        for j in range(1, max_mode + 1):
            a, b = rng.standard_normal(2)
            h += a * np.cos(2 * np.pi * j * x / grid.L) + b * np.sin(2 * np.pi * j * x / grid.L)
        h *= amplitude / max(1e-30, np.max(np.abs(h)))
        out.append(h)
    return out


@pytest.fixture(scope="session")
def reference_transit(params):
    """One full periodic transit of the h0 = 0.1 solitary wave.

    N = 1024, L = 120 (tails below 1e-12 of the crest), spectral
    derivatives, auto time step (52 error-controlled steps on the 136
    modes the wave occupies, set by its 50 sample stops: the wave is a
    steady state of the frame it is stepped in).  Shared across the
    conservation and speed checks; the run takes a few milliseconds.
    """
    h0 = 0.1
    sigma = dispersion_sigma(params)
    spec = SolitarySpec(h0=h0, sigma=sigma, H=params.H, g=params.g)
    grid = PeriodicGrid(L=120.0, N=1024)
    omega = solitary_speed(spec)
    config = SchemeConfig(deriv="spectral", t_end=grid.L / omega)
    field0 = solitary_field(spec, grid)
    result = evolve(field0, params, config)
    times = result.times
    positions = [crest_position(s) for s in result.snapshots]
    return {
        "spec": spec,
        "grid": grid,
        "field0": field0,
        "omega": omega,
        "result": result,
        "drifts": conservation_drift(result.invariants),
        "speed": fit_speed(times, positions, grid.L),
    }


@pytest.fixture
def time_limit():
    """Fail the test, instead of hanging the suite, if it runs for more than 20 s."""
    def expire(signum, frame):
        pytest.fail("did not finish within 20 s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(20)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
