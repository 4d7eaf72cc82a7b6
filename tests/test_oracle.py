"""The auto-dt stepper against KdV's exact two-soliton solution, and its symmetries.

The collision of criterion 07 (a 0.5 m wave overtaking a 0.2 m one from
-22 m and -4 m, N = 256, L = 80, 60 s) is started from the exact
solution (conftest.two_soliton), so every snapshot has an exact answer.
Errors are relative to the tall crest.  evolution.IF_TOL is the largest
1-3-10 rung that keeps this collision within ERROR_BUDGET.

The cnoidal wave is the periodic oracle: its zero-mean profile travels
unchanged at a speed known in closed form, so every snapshot of a
cnoidal run has an exact answer too.  Boussinesq's own solitary wave is
the oracle of the bidirectional pair: it travels unchanged at Rayleigh's
speed.

The symmetries of the unidirectional equation (Olver, Applications of
Lie Groups to Differential Equations, 1986) relate pairs of runs that
take the same steps: a change of frame, a translation, and the scalings
of g and of sigma.  Each is asserted bit for bit where it was measured
bit for bit, and elsewhere within a roundoff bound stated with its
measured value.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from longwave import (
    WATER,
    CnoidalSpec,
    PeriodicGrid,
    SchemeConfig,
    SolitarySpec,
    WaveField,
    cnoidal_alpha,
    cnoidal_field,
    crest_position,
    dispersion_sigma,
    evolve,
    fit_speed,
    grid_for_cnoidal,
    rayleigh_speed,
    solitary_field,
    solitary_profile,
)
from longwave import evolution
from longwave.cli import EXIT_OK, main
from longwave.operators import diff, fourier_shift
from conftest import same_bits, two_soliton

HEIGHTS, CENTRES, T_END = (0.5, 0.2), (-22.0, -4.0), 60.0
# a tenth of the 6.8e-4 shape error the default collision carries from its
# sum-of-sech^2 start, relative to the tall crest
ERROR_BUDGET = 5e-5


def exact(params, x, t):
    return two_soliton(params, x, t, HEIGHTS, CENTRES)


def exact_start_error(params, N, L):
    """(steps, largest error of the 51 samples / h_tall) of the exact-start collision."""
    grid = PeriodicGrid(L=L, N=N)
    res = evolve(WaveField(grid, exact(params, grid.x, 0.0)), params,
                 SchemeConfig(frame="moving", alpha=0.0, t_end=T_END))
    assert len(res.times) == 51
    err = max(float(np.max(np.abs(s.h - exact(params, grid.x, t))))
              for t, s in zip(res.times, res.snapshots))
    return res.steps, err / HEIGHTS[0]


def sech_sq_start(params, grid):
    """The default collision's start: the two solitary waves summed."""
    sigma = dispersion_sigma(params)
    return WaveField(grid, sum(solitary_profile(SolitarySpec(h, sigma, params.H, params.g),
                                                grid.x - x0) for h, x0 in zip(HEIGHTS, CENTRES)))


def test_exact_start_collision_stays_within_the_error_budget(params):
    # measured 2.47e-5 in 2,357 steps (8.2e-5 at IF_TOL = 3e-6)
    steps, err = exact_start_error(params, 256, 80.0)
    assert err <= ERROR_BUDGET, (steps, err)


@pytest.mark.parametrize("L, bound", [(80.0, 2e-6), (120.0, 1e-8)])
def test_oracle_seam_is_far_below_the_budget(params, L, bound):
    # the solution lives on the line; its value at the seam x = +-L/2 over
    # the run bounds what periodizing it costs.  Measured at L = 80: 1.1e-9
    # at -L/2 and 9.1e-7 at +L/2, where the tall wave's front nears it by
    # 60 s; at L = 120: 2.0e-14
    seam = max(float(np.max(np.abs(exact(params, [-L / 2, L / 2], t))))
               for t in np.linspace(0.0, T_END, 51))
    assert seam <= bound * HEIGHTS[0]


def test_error_falls_at_fourth_order_along_the_tolerance_ladder(params, monkeypatch):
    # measured at N = 384, L = 120 (spatial floor 5.6e-7): 1,395 steps 2.8e-4,
    # 2,362 steps 2.46e-5, 3,868 steps 2.71e-6, order 4.55 in the step count
    runs = []
    for tol in (1e-5, 1e-6, 1e-7):
        monkeypatch.setattr(evolution, "IF_TOL", tol)
        runs.append(exact_start_error(params, 384, 120.0))
    steps, errs = np.array(runs).T
    assert np.all(np.diff(steps) > 0) and np.all(np.diff(errs) < 0)
    order = -np.polyfit(np.log(steps), np.log(errs), 1)[0]
    assert order >= 3.5, runs


def test_default_collision_phase_shifts_match_the_closed_form(params, tmp_path, capsys):
    # Delta_tall = D / kappa_1 = +2.43479 m and Delta_short = -D / kappa_2 =
    # -3.84974 m, D = log((kappa_1 + kappa_2) / (kappa_1 - kappa_2)); measured
    # +2.43645 m (1.7e-3 off, from the sum-of-sech^2 start) and -3.84977 m
    # (3.7e-5 off) in 2,322 steps
    out = tmp_path / "ts"
    assert main(["scenario", "two_soliton", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    manifest = dict(line.split("=", 1) for line in (out / "manifest.txt").read_text().splitlines())
    sigma = dispersion_sigma(params)  # the command's default channel
    k1, k2 = (math.sqrt(h / (4.0 * sigma)) for h in HEIGHTS)
    D = math.log((k1 + k2) / (k1 - k2))
    assert abs(float(manifest["result.phase_shift_tall"]) - D / k1) <= 5e-3
    assert abs(float(manifest["result.phase_shift_short"]) + D / k2) <= 1e-3
    assert int(manifest["result.steps"]) <= 2400


@pytest.fixture(scope="module")
def collision(params):
    """The default collision's start and its run in the moving frame at alpha = 0."""
    field0 = sech_sq_start(params, PeriodicGrid(L=80.0, N=256))
    return field0, evolve(field0, params, SchemeConfig(frame="moving", alpha=0.0, t_end=T_END))


@pytest.mark.parametrize("alpha", [0.0, 0.3])
def test_moving_frame_is_the_fixed_frame_translated(params, alpha):
    # the moving frame at alpha runs at sqrt(gH) - sqrt(g/H) alpha: the same steps
    # at the same times, and snapshots within 4.9e-13 m (alpha = 0) and 1.9e-13 m
    # (alpha = 0.3) once shifted by that speed times t
    grid = PeriodicGrid(L=80.0, N=256)
    field0 = sech_sq_start(params, grid)
    moving = evolve(field0, params, SchemeConfig(frame="moving", alpha=alpha, t_end=T_END))
    fixed = evolve(field0, params, SchemeConfig(frame="fixed", t_end=T_END))
    assert moving.steps == fixed.steps and moving.times == fixed.times
    speed = math.sqrt(params.g * params.H) - math.sqrt(params.g / params.H) * alpha
    for t, a, b in zip(moving.times, moving.snapshots, fixed.snapshots):
        assert np.max(np.abs(fourier_shift(a.h, grid.L, speed * t) - b.h)) <= 1e-11


@pytest.mark.parametrize("shift", [1, 37, 128])
def test_a_rolled_start_runs_the_rolled_collision(params, collision, shift):
    # the collision started shift points along takes the same 2,322 steps at the
    # same times, and each snapshot is the original's rolled by shift: within
    # 4.7e-14 m, and bit for bit for the half-period roll N/2 = 128
    field0, base = collision
    rolled = evolve(WaveField(field0.grid, np.roll(field0.h, shift)), params,
                    SchemeConfig(frame="moving", alpha=0.0, t_end=T_END))
    assert rolled.steps == base.steps and rolled.times == base.times
    for a, b in zip(base.snapshots, rolled.snapshots):
        if shift == field0.grid.N // 2:
            assert same_bits(np.roll(a.h, shift), b.h)
        else:
            assert np.max(np.abs(np.roll(a.h, shift) - b.h)) <= 1e-13


@pytest.mark.parametrize("frame", ["moving", "fixed"])
def test_g_scaling_doubles_every_rate_bit_for_bit(frame):
    # (g, rho, t) -> (4 g, rho / 4, t / 2) keeps sigma, and so the start, and
    # doubles every rate: the same steps, at half the times, to the last bit
    grid = PeriodicGrid(L=80.0, N=256)
    base, scaled = (evolve(sech_sq_start(params, grid), params,
                           SchemeConfig(frame=frame, t_end=t_end))
                    for params, t_end in ((WATER, T_END),
                                          (replace(WATER, g=4.0 * WATER.g, rho=WATER.rho / 4.0),
                                           T_END / 2.0)))
    assert scaled.steps == base.steps
    assert scaled.times == [t / 2.0 for t in base.times]
    assert all(same_bits(a.h, b.h) for a, b in zip(base.snapshots, scaled.snapshots))


@pytest.mark.parametrize("frame, alpha", [("fixed", 0.0), ("moving", 0.0), ("moving", 0.3)])
def test_sigma_scaling_halves_every_length_and_time(params, frame, alpha):
    # (xi, t, sigma) -> (xi / 2, t / 2, sigma / 4), with h and alpha fixed, leaves
    # the equation as it is: an h0 = 0.3 m transit with T set so that sigma is a
    # quarter, on half the domain for half the time, takes the same steps at half
    # the times, and its snapshots match on the halved grid.  Measured: 451 steps
    # in each frame, and snapshots within 2.8e-16 m
    sigma0 = dispersion_sigma(params)
    quarter = replace(params, T=(params.H ** 3 / 3.0 - sigma0 / 4.0) * params.rho * params.g
                      / params.H)
    base, scaled = (evolve(WaveField(grid, solitary_profile(
                               SolitarySpec(0.3, dispersion_sigma(p), p.H, p.g), grid.x)),
                           p, SchemeConfig(frame=frame, alpha=alpha, t_end=t_end))
                    for p, grid, t_end in ((params, PeriodicGrid(L=120.0, N=512), 20.0),
                                           (quarter, PeriodicGrid(L=60.0, N=512), 10.0)))
    assert scaled.steps == base.steps
    assert base.times == [2.0 * t for t in scaled.times]
    for a, b in zip(base.snapshots, scaled.snapshots):
        assert np.max(np.abs(a.h - b.h)) <= 2e-15


def test_cli_transit_under_four_g_doubles_its_speeds(tmp_path, capsys):
    # the same g-scaling through the command's keys: at T = 0, sigma = H^3/3
    # whatever g, so 4 g (39.24 = 4 x 9.81 in float) doubles both speeds and
    # halves the run and its step, exactly, and leaves every other result alike
    assert 4 * 9.81 == 39.24
    results = []
    for g in ("9.81", "39.24"):
        out = tmp_path / g
        assert main(["scenario", "solitary_transit", "--set", "grid.N=256",
                     "--set", f"physical.g={g}", "--out", str(out)]) == EXIT_OK
        results.append({k[7:]: v for k, v in (line.split("=", 1) for line in
                                              (out / "manifest.txt").read_text().splitlines())
                        if k.startswith("result.")})
    capsys.readouterr()
    base, scaled = results
    for key in ("speed_formula", "speed_measured"):
        assert float(scaled.pop(key)) == 2.0 * float(base.pop(key))
    for key in ("t_end", "dt"):
        assert float(scaled.pop(key)) == float(base.pop(key)) / 2.0
    assert "steps" in base and "shape_error" in base and "drift_E" in base
    assert scaled == base


# the error bound of the default cnoidal run at each elliptic parameter m, about
# three times the largest error measured over its 51 samples relative to the
# height l: 5.44e-10, 2.84e-9, 1.09e-8 and 3.21e-8 (200, 300, 300 and 250 steps)
CNOIDAL_BOUNDS = {0.1: 1.5e-9, 0.5: 8e-9, 0.9: 3e-8, 0.99: 1e-7}


@pytest.mark.parametrize("m", sorted(CNOIDAL_BOUNDS))
def test_cnoidal_run_is_its_exact_translate(params, m):
    # evolve --ic cnoidal at its defaults (kl_sum = 0.2, 4 waves, N = 1024, 10 s),
    # its wave built as the command builds it.  The cn^2 profile less its mean mu
    # travels unchanged at c = sqrt(gH) - sqrt(g/H)(alpha_c + 3 mu / 2): removing
    # the mean is a Galilean shift of alpha by 3 mu / 2
    kl_sum, g, H = 0.2, params.g, params.H
    spec = CnoidalSpec(k=kl_sum - m * kl_sum, l=m * kl_sum, sigma=dispersion_sigma(params),
                       H=H, g=g)
    grid = grid_for_cnoidal(spec, 4, 1024)
    mu = float(np.mean(cnoidal_field(spec, grid).h))
    start = cnoidal_field(spec, grid, zero_mean=True)
    res = evolve(start, params, SchemeConfig(t_end=10.0))
    assert len(res.times) == 51

    def error(alpha):
        c = math.sqrt(g * H) - math.sqrt(g / H) * alpha
        return max(float(np.max(np.abs(s.h - fourier_shift(start.h, grid.L, c * t))))
                   for t, s in zip(res.times, res.snapshots)) / spec.l

    assert error(cnoidal_alpha(spec) + 1.5 * mu) <= CNOIDAL_BOUNDS[m]
    # the oracle sees the frame: without the mean's shift it misses by 0.17 to 0.77 l
    assert error(cnoidal_alpha(spec)) > 0.1


# the pair's domain and error bound at each amplitude a, about three times the
# largest error measured over its 51 samples relative to a: 1.87e-6 (L = 160,
# 100 steps) and 3.99e-7 (L = 200, 50 steps)
PAIR_BOUNDS = {0.02: (160.0, 6e-6), 0.01: (200.0, 1.2e-6)}


@pytest.mark.parametrize("a", sorted(PAIR_BOUNDS))
def test_filtered_pair_carries_boussinesqs_solitary_wave(params, a):
    # the pair h_tt = gH (h + 3h^2/(2H) + (H^2/3) h_xx)_xx carries h = a sech^2(kappa x),
    # kappa = sqrt(3a/(4H^3)) (KdV's width at sigma = H^3/3), unchanged at
    # Rayleigh's speed c = sqrt(g(H + a)), with v = -c h_x.  Started from it, the
    # filtered pair (cut 0.75 sqrt(3)/H, N = 512, 20 s) follows its exact
    # translate; at a = 0.02 most of the error is the start's content above the
    # cut (1.3e-6 of a), which the band drops
    L, bound = PAIR_BOUNDS[a]
    g, H = params.g, params.H
    grid = PeriodicGrid(L=L, N=512)
    h = solitary_field(SolitarySpec(a, H ** 3 / 3.0, H, g), grid).h
    c = rayleigh_speed(g, H, a)
    res = evolve((WaveField(grid, h), WaveField(grid, -c * diff(h, L, 1))), params,
                 SchemeConfig(filter_cut=0.75, t_end=20.0))
    assert len(res.times) == 51
    err = max(float(np.max(np.abs(s[0].h - fourier_shift(h, L, c * t))))
              for t, s in zip(res.times, res.snapshots))
    assert err <= bound * a
    # the fitted crest speed is within 3.8e-8 (a = 0.02) and 1.3e-8 (a = 0.01) of
    # c; KdV's formula lies 4.9e-5 and 1.2e-5 above it
    speed = fit_speed(res.times, [crest_position(s[0]) for s in res.snapshots], L)
    assert abs(speed - c) <= 1.2e-7 * c
