"""Isolated per-call cost of single layers at N = 256, 1024 and 4096.

Each case calls one public longwave function on a solitary-wave field
(h0 = 0.1 m over H = 1 m, L = 120 m).  Its figure is the median over
several batches of the mean time per call, in microseconds at the
reference machine speed of speed.py; a batch repeats the call for about
BATCH_S seconds.  The tracer is not installed while the sweep runs.
"""

from __future__ import annotations

import statistics
from pathlib import Path
from time import perf_counter

import longwave
import speed
from longwave import cli
from longwave.operators import diff

SIZES = (256, 1024, 4096)
BATCH_S = 0.004
BATCHES = 5

# (metric prefix) in report order; each gets a .N<size> suffix
CASES = (
    "operators.diff_us",
    "evolution.kdv_rhs_us.spectral",
    "evolution.kdv_rhs_us.centered4",
    "evolution.boussinesq_rhs_us.filtered",
    "evolution.boussinesq_rhs_us.unfiltered",
    "evolution.step_rk4_us",
    "invariants.compute_us",
    "cli.csv_write_us",
    "cli.csv_read_us",
    "elliptic.jacobi_us",
)


def metric_names(sizes=SIZES) -> list[str]:
    return [f"{case}.N{n}" for case in CASES for n in sizes]


def _calls(N: int, out: Path) -> dict:
    params = longwave.PhysicalParams(g=9.81, H=1.0, rho=1000.0, T=0.0)
    sigma = longwave.dispersion_sigma(params)
    grid = longwave.PeriodicGrid(L=120.0, N=N)
    spec = longwave.SolitarySpec(0.1, sigma, params.H, params.g)
    field = longwave.solitary_field(spec, grid)
    speed = longwave.solitary_speed(spec)
    v = longwave.WaveField(grid, -speed * diff(field.h, grid.L, 1))
    spectral = longwave.SchemeConfig(deriv="spectral")
    centered = longwave.SchemeConfig(deriv="centered4")
    unfiltered = longwave.SchemeConfig(boussinesq_filter=False)
    dt = longwave.stable_dt(grid, params, spectral)
    cn = longwave.CnoidalSpec(k=0.02, l=0.18, sigma=sigma, H=params.H, g=params.g)
    u = cn.beta * grid.x
    path = out / f"sweep_{N}.csv"
    cli.emit_profile_csv(field, params, "spectral", path)
    return {
        "operators.diff_us": lambda: diff(field.h, grid.L, 1),
        "evolution.kdv_rhs_us.spectral": lambda: longwave.kdv_rhs(field, params, spectral),
        "evolution.kdv_rhs_us.centered4": lambda: longwave.kdv_rhs(field, params, centered),
        "evolution.boussinesq_rhs_us.filtered":
            lambda: longwave.boussinesq_rhs((field, v), params, spectral),
        "evolution.boussinesq_rhs_us.unfiltered":
            lambda: longwave.boussinesq_rhs((field, v), params, unfiltered),
        "evolution.step_rk4_us": lambda: longwave.step_rk4(field, params, spectral, dt),
        "invariants.compute_us": lambda: longwave.compute_invariants(field, params),
        "cli.csv_write_us": lambda: cli.emit_profile_csv(field, params, "spectral", path),
        "cli.csv_read_us": lambda: cli.read_profile_csv(path),
        "elliptic.jacobi_us": lambda: longwave.jacobi_cn_sn_dn(u, cn.m),
    }


def _batches(fn) -> list[tuple[float, float, int]]:
    """(start, end, calls) of BATCHES timed batches of repeated calls."""
    t0 = perf_counter()
    fn()
    reps = max(1, int(BATCH_S / max(perf_counter() - t0, 1e-9)))
    out = []
    for _ in range(BATCHES):
        t0 = perf_counter()
        for _ in range(reps):
            fn()
        out.append((t0, perf_counter(), reps))
    return out


def run(out: Path, sizes=SIZES) -> dict[str, float]:
    """Reference-speed microseconds per call of every case at every size."""
    timed = {}
    with speed.SpeedProbe() as probe:
        for N in sizes:
            calls = _calls(N, out)
            for case in CASES:
                timed[f"{case}.N{N}"] = _batches(calls[case])
    found = {}
    for name, batches in timed.items():
        seconds = probe.reference_seconds([(a, b) for a, b, _ in batches])
        found[name] = statistics.median(
            s / reps for s, (_, _, reps) in zip(seconds, batches)) * 1e6
    return {name: found[name] for name in metric_names(sizes)}
