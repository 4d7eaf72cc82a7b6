"""Shared fixtures, including the expensive reference transit run."""

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


@pytest.fixture(scope="session")
def params():
    """Pure-gravity laboratory channel, depth 1 m."""
    return PhysicalParams(g=9.81, H=1.0, rho=1000.0, T=0.0)


@pytest.fixture(scope="session")
def water():
    """Clean water including surface tension."""
    return PhysicalParams(g=9.81, H=1.0, rho=1000.0, T=0.0728)


def same_bits(a, b):
    """a and b hold the same shape, dtype and bits, signed zeros included."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


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
    derivatives, auto time step (about 250 error-controlled steps on the
    136 modes the wave occupies).  Shared across the conservation and
    speed checks; the run takes about a twentieth of a second.
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
