import math
from dataclasses import replace
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from longwave import (
    WATER,
    BlowUpError,
    CnoidalSpec,
    DeformationSpec,
    PeriodicGrid,
    PhysicalParams,
    SchemeConfig,
    SolitarySpec,
    SteepeningVerdict,
    WaveField,
    boussinesq_energy,
    boussinesq_rhs,
    cnoidal_field,
    compute_invariants,
    conservation_drift,
    critical_depth,
    crest_position,
    crest_position_rows,
    deformation_rate_closed_form,
    dispersion_sigma,
    evolve,
    factorization_residual,
    fit_speed,
    front_slope_change,
    grid_for_cnoidal,
    invariant_rows,
    kdv_rhs,
    solitary_field,
    solitary_profile,
    solitary_speed,
    stable_dt,
    steepening_verdict,
    step_ifrk4,
    step_rk4,
)
from longwave import cli, evolution, operators
from longwave.operators import diff, fourier_shift, lowpass, wavenumbers
from conftest import same_bits, smooth_random_fields

SIGMA0 = 1.0 / 3.0


def solitary_case(params, h0=0.1, N=512, L=120.0):
    spec = SolitarySpec(h0=h0, sigma=SIGMA0, H=params.H, g=params.g)
    grid = PeriodicGrid(L=L, N=N)
    return spec, grid, solitary_field(spec, grid)


def rk4(y, rhs, dt):
    """One classical RK4 step of y' = rhs(y), the reference the band stepper is checked against."""
    k1 = rhs(y)
    k2 = rhs(y + 0.5 * dt * k1)
    k3 = rhs(y + 0.5 * dt * k2)
    k4 = rhs(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def band_projected(h):
    """h projected onto the unidirectional 2/3-rule band, the first (N + 2) // 3 rfft modes."""
    return np.fft.irfft(np.fft.rfft(h)[:(h.size + 2) // 3], n=h.size)


class TestKdvRhs:
    def test_zero(self, params):
        grid = PeriodicGrid(L=50.0, N=64)
        assert np.all(kdv_rhs(WaveField(grid, np.zeros(64)), params) == 0.0)

    def test_solitary_travels_rigidly(self, params):
        # the rhs of the exact profile is -omega h_x: pure translation
        spec, grid, field = solitary_case(params, N=1024)
        omega = solitary_speed(spec)
        cfg = SchemeConfig(deriv="spectral", frame="fixed")
        resid = kdv_rhs(field, params, cfg) + omega * diff(field.h, grid.L, 1)
        assert np.max(np.abs(resid)) < 1e-11

    def test_centered4_scheme_order(self, params):
        spec = SolitarySpec(h0=0.1, sigma=SIGMA0, H=params.H, g=params.g)
        omega = solitary_speed(spec)
        errs = []
        for N in (256, 512, 1024):
            grid = PeriodicGrid(L=120.0, N=N)
            field = solitary_field(spec, grid)
            cfg = SchemeConfig(deriv="centered4")
            resid = kdv_rhs(field, params, cfg) + omega * diff(field.h, grid.L, 1, "centered4")
            errs.append(np.max(np.abs(resid)))
        assert errs[0] / errs[1] > 8 and errs[1] / errs[2] > 8

    def test_moving_frame_steady(self, params):
        # alpha = -h0/2 makes the profile a fixed point of the moving-frame flow
        spec, grid, field = solitary_case(params, N=1024)
        cfg = SchemeConfig(frame="moving", alpha=-spec.h0 / 2)
        r = kdv_rhs(field, params, cfg)
        scale = np.max(np.abs(kdv_rhs(field, params, SchemeConfig())))
        assert np.max(np.abs(r)) < 1e-10 * scale

    @pytest.mark.parametrize("scheme", ["spectral", "centered4"])
    @pytest.mark.parametrize("H", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("T", [0.0, 0.0728])
    def test_fixed_frame_is_the_moving_frame_at_alpha_h(self, scheme, H, T):
        # the frame speed sqrt(gH) - sqrt(g/H) alpha vanishes at alpha = H,
        # and both frames carry the run's own sigma
        params = PhysicalParams(g=9.81, H=H, rho=1000.0, T=T)
        spec = SolitarySpec(h0=0.1 * H, sigma=dispersion_sigma(params), H=H, g=params.g)
        field = solitary_field(spec, PeriodicGrid(L=60.0 * H, N=256))
        fixed = kdv_rhs(field, params, SchemeConfig(deriv=scheme))
        moving = kdv_rhs(field, params, SchemeConfig(deriv=scheme, frame="moving", alpha=H))
        assert np.any(fixed != 0.0) and np.array_equal(fixed, moving)


class TestBoussinesqRhs:
    def test_zero(self, params):
        grid = PeriodicGrid(L=50.0, N=64)
        z = WaveField(grid, np.zeros(64))
        ht, htt = boussinesq_rhs((z, z), params)
        assert np.all(ht == 0.0) and np.all(htt == 0.0)

    def test_grid_mismatch(self, params):
        a = WaveField(PeriodicGrid(L=10.0, N=16), np.zeros(16))
        b = WaveField(PeriodicGrid(L=20.0, N=16), np.zeros(16))
        with pytest.raises(ValueError):
            boussinesq_rhs((a, b), params)
        with pytest.raises(ValueError):
            evolve((a, b), params, SchemeConfig(t_end=0.1))
        with pytest.raises(ValueError):
            step_rk4((a, b), params, SchemeConfig(), dt=0.01)

    def test_centered4_agrees_with_spectral_on_smooth_fields(self, params):
        grid = PeriodicGrid(L=64.0, N=256)
        h = smooth_random_fields(grid, 1, 0.05, max_mode=4, seed=77)[0]
        v = smooth_random_fields(grid, 1, 0.05, max_mode=4, seed=78)[0]
        state = (WaveField(grid, h), WaveField(grid, v))
        ht_s, htt_s = boussinesq_rhs(state, params, SchemeConfig(deriv="spectral"))
        ht_4, htt_4 = boussinesq_rhs(state, params, SchemeConfig(deriv="centered4"))
        assert np.allclose(ht_4, ht_s, atol=1e-12)
        assert np.max(np.abs(htt_4 - htt_s)) < 1e-4 * np.max(np.abs(htt_s))

    def test_filter_removes_high_modes(self, params):
        grid = PeriodicGrid(L=64.0, N=256)
        k_hi = 2 * math.pi * 40 / grid.L  # above the 0.5*sqrt(3) cutoff
        h = WaveField(grid, 1e-3 * np.cos(k_hi * grid.x))
        v = WaveField(grid, np.zeros(grid.N))
        ht, htt = boussinesq_rhs((h, v), params, SchemeConfig(filter_cut=0.5))
        assert np.max(np.abs(htt)) < 1e-16
        ht2, htt2 = boussinesq_rhs((h, v), params,
                                   SchemeConfig(boussinesq_filter=False))
        assert np.max(np.abs(htt2)) > 1e-3


class TestStepRk4:
    def test_zero_stays_zero(self, params):
        grid = PeriodicGrid(L=50.0, N=64)
        f = WaveField(grid, np.zeros(64))
        out = step_rk4(f, params, SchemeConfig(), dt=0.01)
        assert np.all(out.h == 0.0) and out.t == pytest.approx(0.01)

    def test_single_step_local_order(self, params):
        # error against exact translation of the start projected onto the
        # 2/3-rule band falls ~2^5 when dt halves; the coarse grid keeps the
        # error above the band's spatial truncation floor (about 5e-14)
        spec, grid, field = solitary_case(params, N=256)
        omega = solitary_speed(spec)
        cfg = SchemeConfig()
        start = band_projected(field.h)

        def err(dt):
            stepped = step_rk4(field, params, cfg, dt=dt)
            exact = fourier_shift(start, grid.L, omega * dt)
            return np.max(np.abs(stepped.h - exact))

        r1, r2 = err(2e-2), err(1e-2)
        assert 16.0 <= r1 / r2 <= 64.0

    def test_global_dt_order(self, params):
        # fixed horizon: halving dt cuts the time error ~16x (factor 2)
        spec, grid, field = solitary_case(params, N=256, L=120.0)
        omega = solitary_speed(spec)
        t_end = 0.4

        def err(dt):
            cfg = SchemeConfig(dt=dt, t_end=t_end)
            res = evolve(field, params, cfg,
                         sample_every=10 ** 9)
            exact = fourier_shift(band_projected(field.h), grid.L, omega * t_end)
            return np.max(np.abs(res.final.h - exact))

        r1, r2 = err(2e-2), err(1e-2)
        assert 8.0 <= r1 / r2 <= 32.0

    def test_blowup_reports_step_and_amplitude(self, params):
        # criterion 10's unfiltered noise run: the error names the step that
        # tripped the check and the max|h| it saw
        grid = PeriodicGrid(L=64.0, N=256)
        noise = 1e-10 * params.H * np.random.default_rng(1234).standard_normal(grid.N)
        noise -= noise.mean()
        zero = WaveField(grid, np.zeros(grid.N))
        with pytest.raises(BlowUpError) as exc:
            evolve((WaveField(grid, noise), zero), params,
                   SchemeConfig(dt=1e-4, t_end=2.0, boussinesq_filter=False))
        e = exc.value
        assert 0 < e.step < 20000 and e.integrator == "rk4"
        assert e.time == pytest.approx(e.step * 1e-4, rel=1e-9)
        assert not (e.max_abs_h <= 10 * params.H)
        assert str(e).startswith(f"solution blew up at t = {e.time:.6g} s")
        assert f"step {e.step}" in str(e) and "max|h|" in str(e)

    def test_blowup_detection(self, params):
        spec, grid, field = solitary_case(params, N=128, L=60.0)
        with pytest.raises(BlowUpError) as exc:
            f = field
            for _ in range(50):
                f = step_rk4(f, params, SchemeConfig(), dt=5.0)  # far beyond stability
        assert exc.value.time > 0

    @pytest.mark.parametrize("step", [step_rk4, step_ifrk4])
    @pytest.mark.parametrize("dt, error, message", [
        (0.0, ValueError, "dt must be positive and finite, got 0.0"),
        (-0.01, ValueError, "dt must be positive and finite, got -0.01"),
        (math.nan, ValueError, "dt must be positive and finite, got nan"),
        (math.inf, ValueError, "dt must be positive and finite, got inf"),
        # finite, but its stages overflow: a blow-up, with no RuntimeWarning first
        (1e300, BlowUpError, r"blew up at t = 1e\+300 s \(step 1, max\|h\| = nan m\)"),
    ])
    def test_public_steps_follow_the_dt_rule_of_scheme_config(self, params, step, dt, error,
                                                              message):
        spec, grid, field = solitary_case(params, N=128, L=60.0)
        with pytest.raises(error, match=message):
            step(field, params, SchemeConfig(), dt)


def criterion_10_state(params, part):
    """Criterion 10's inputs: (state, dt, filter_cut) of parts a, b and c."""
    H = params.H
    if part == "a":
        grid = PeriodicGrid(L=64.0, N=256)
        h = 1e-8 * H * np.cos(2 * math.pi * 8 / grid.L * grid.x)
        v, dt, cut = np.zeros(grid.N), 0.005, 0.5
    elif part == "b":
        spec = SolitarySpec(0.1, SIGMA0, H, params.g)
        grid, cut = PeriodicGrid(L=120.0, N=1024), 0.75
        h = lowpass(solitary_profile(spec, grid.x), grid.L, cut * math.sqrt(3.0) / H)
        v, dt = -solitary_speed(spec) * diff(h, grid.L, 1), 0.01
    else:
        grid = PeriodicGrid(L=64.0, N=256)
        noise = 1e-10 * H * np.random.default_rng(1234).standard_normal(grid.N)
        h = lowpass(noise - noise.mean(), grid.L, 0.5 * math.sqrt(3.0) / H)
        v, dt, cut = np.zeros(grid.N), 1e-4, 0.5
    return (WaveField(grid, h), WaveField(grid, v)), dt, cut


def reference_boussinesq(state, params, config, dt, nsteps):
    """Full-grid RK4 over boussinesq_rhs, checked every step."""
    grid = state[0].grid

    def rhs(y):
        return np.stack(boussinesq_rhs((WaveField(grid, y[0]), WaveField(grid, y[1])),
                                       params, config))

    ys = [np.stack([state[0].h, state[1].h])]
    for i in range(nsteps):
        ys.append(rk4(ys[-1], rhs, dt))
        evolution._check_alive(ys[-1][0], params.H, (i + 1) * dt, i + 1)
    return ys


class TestBoussinesqBand:
    @pytest.mark.parametrize("scheme", ["spectral", "centered4"])
    @pytest.mark.parametrize("part", ["a", "b", "c"])
    def test_band_step_matches_the_full_grid_step(self, params, part, scheme):
        state, dt, cut = criterion_10_state(params, part)
        config = SchemeConfig(deriv=scheme, dt=dt, t_end=200 * dt, filter_cut=cut)
        res = evolve(state, params, config, sample_every=1)
        ref = reference_boussinesq(state, params, config, res.dt, res.steps)
        assert res.steps == 200 and len(res.snapshots) == len(ref)
        h_scale = max(np.max(np.abs(y[0])) for y in ref)
        v_scale = max(np.max(np.abs(y[1])) for y in ref)
        for (h, v), y in zip(res.snapshots, ref):
            assert np.max(np.abs(h.h - y[0])) <= 1e-12 * h_scale
            assert np.max(np.abs(v.h - y[1])) <= 1e-12 * v_scale

    def test_input_is_projected_onto_the_band(self, params):
        (h0, v0), dt, cut = criterion_10_state(params, "a")
        grid = h0.grid
        high = sum(1e-4 * np.cos(2 * math.pi * j / grid.L * grid.x) for j in (20, 77, 128))
        state = (WaveField(grid, 1e5 * h0.h + high), WaveField(grid, 0.3 * high))
        res = evolve(state, params, SchemeConfig(dt=dt, t_end=0.5, filter_cut=cut),
                     sample_every=10)
        assert np.array_equal(res.snapshots[0][0].h, state[0].h)
        assert np.array_equal(res.snapshots[0][1].h, state[1].h)
        J = int(np.count_nonzero(wavenumbers(grid.N, grid.L) <= cut * math.sqrt(3.0)))
        assert J == 9
        for h, v in res.snapshots[1:]:
            for f in (h, v):
                above = np.abs(np.fft.rfft(f.h))[J:] / grid.N
                assert above.max() <= 1e-15 * np.max(np.abs(h.h))

    @pytest.mark.parametrize("factor", [2.75, 25.0])  # 1.1x and 10x the RK4 limit
    def test_filtered_blowup_in_the_reference_step(self, params, factor):
        (h0, v0), _, cut = criterion_10_state(params, "a")
        state = (WaveField(h0.grid, 1e4 * h0.h), v0)
        config = SchemeConfig(filter_cut=cut)
        dt = factor * stable_dt(h0.grid, params, config, "boussinesq")
        with pytest.raises(BlowUpError) as ref:
            reference_boussinesq(state, params, config, dt, 1000)
        with pytest.raises(BlowUpError) as exc:
            evolve(state, params, SchemeConfig(dt=dt, t_end=1000 * dt, filter_cut=cut))
        assert exc.value.step == ref.value.step > 1
        assert exc.value.max_abs_h == pytest.approx(ref.value.max_abs_h, rel=1e-6)

    def test_unfiltered_blowup_in_the_reference_step(self, params):
        (h0, v0), dt, _ = criterion_10_state(params, "c")
        grid = h0.grid
        noise = 1e-10 * params.H * np.random.default_rng(1234).standard_normal(grid.N)
        state = (WaveField(grid, noise - noise.mean()), v0)
        config = SchemeConfig(dt=dt, t_end=2.0, boussinesq_filter=False)
        with pytest.raises(BlowUpError) as ref:
            reference_boussinesq(state, params, config, dt, 20000)
        with pytest.raises(BlowUpError) as exc:
            evolve(state, params, config)
        assert exc.value.step == ref.value.step > 1
        assert exc.value.max_abs_h == pytest.approx(ref.value.max_abs_h, rel=1e-6)

    @pytest.mark.parametrize("seed", [*range(8), 19, 1234])  # 1234: criterion 10's noise
    def test_unfiltered_blowup_at_the_advisory_matches_a_fine_step(self, params, seed):
        # the demo's control steps at the RK4 advisory: it must blow up when a
        # 40x finer step does, within two of its own steps, and not sooner
        grid = PeriodicGrid(L=64.0, N=256)
        noise = 1e-10 * params.H * np.random.default_rng(seed).standard_normal(grid.N)
        state = (WaveField(grid, noise - noise.mean()), WaveField(grid, np.zeros(grid.N)))
        blowups = []
        for dt in (None, 1e-4):
            with pytest.raises(BlowUpError) as exc:
                evolve(state, params, SchemeConfig(dt=dt, t_end=2.0, boussinesq_filter=False))
            assert exc.value.integrator == "rk4"
            blowups.append(exc.value)
        adv, fine = blowups
        dt_adv = adv.time / adv.step
        assert 0 <= adv.time - fine.time <= 2 * dt_adv
        assert 10 * params.H < adv.max_abs_h < math.inf
        assert adv.step <= 30

    @pytest.mark.parametrize("filtered", [True, False])
    def test_non_finite_state_raises(self, params, filtered):
        # a step of 1e300 s overflows the stages, and the state turns to NaN
        state, _, cut = criterion_10_state(params, "a")
        config = SchemeConfig(dt=1e300, t_end=1e301, filter_cut=cut, boussinesq_filter=filtered)
        big = (WaveField(state[0].grid, 1e6 * state[0].h), state[1])
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(BlowUpError) as exc:
            evolve(big, params, config)
        assert exc.value.step == 1 and math.isnan(exc.value.max_abs_h)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(BlowUpError) as exc:
            step_rk4(big, params, config, config.dt)
        assert math.isnan(exc.value.max_abs_h)

    def test_public_steps_repeat_the_evolve_run(self, params):
        spec = SolitarySpec(0.1, SIGMA0, params.H, params.g)
        grid, cut = PeriodicGrid(L=120.0, N=256), 0.75
        h = solitary_profile(spec, grid.x) + 1e-4 * np.cos(2 * math.pi * 60 / grid.L * grid.x)
        state = (WaveField(grid, h), WaveField(grid, -solitary_speed(spec) * diff(h, grid.L, 1)))
        config = SchemeConfig(dt=0.01, t_end=0.5, filter_cut=cut)
        res = evolve(state, params, config)
        assert res.steps == 50
        f = state
        for _ in range(res.steps):
            f = step_rk4(f, params, config, dt=res.dt)
        assert f[0].t == pytest.approx(res.final[0].t)
        assert np.max(np.abs(f[0].h - res.final[0].h)) <= 1e-13
        assert np.max(np.abs(f[1].h - res.final[1].h)) <= 1e-13


def boussinesq_band_state(params, state, config):
    """(z, iso) of a pair: its band state and the weights of the norm on it.

    iso weighs (h, v) so that the rotation is an isometry: omega for h,
    1 for v, with omega^2 = -lin.
    """
    lin, _ = evolution._symbols(state[0].grid, params, config, True)
    J = lin.size
    z = np.fft.rfft(np.stack([state[0].h, state[1].h]))[:, :J]
    return z, np.stack((np.sqrt(-lin), np.ones(J)))


def filtered_solitary(params, h0, grid, cut):
    """Criterion 10's right-moving solitary data on the band below cut sqrt(3)/H."""
    spec = SolitarySpec(h0, SIGMA0, params.H, params.g)
    h = lowpass(solitary_profile(spec, grid.x), grid.L, cut * math.sqrt(3.0) / params.H)
    v = -solitary_speed(spec) * diff(h, grid.L, 1)
    return (WaveField(grid, h), WaveField(grid, v)), solitary_speed(spec)


class TestBoussinesqIfrk4:
    @pytest.mark.parametrize("scheme", ["spectral", "centered4"])
    @pytest.mark.parametrize("part", ["a", "b", "c"])
    def test_rotation_step_matches_the_band_rk4_step(self, params, part, scheme):
        # at criterion 10's own small steps both fourth-order steppers move the
        # band state alike: after 20 steps they part by RK4's own error, 1e-10
        # of the motion on (a) and 3e-9 on (b); a wrong rotation entry would
        # part them by the motion itself
        state, dt, cut = criterion_10_state(params, part)
        config = SchemeConfig(deriv=scheme, filter_cut=cut)
        z0, iso = boussinesq_band_state(params, state, config)
        _, _, rk4 = evolution._band_run(state[0].grid, params, config, True, "rk4")
        _, _, lawson = evolution._band_run(state[0].grid, params, config, True, "ifrk4")
        za, zb, n = z0, z0, None
        for _ in range(20):
            za = rk4(za, dt)
            zb, n, _ = lawson(zb, n, dt)
        moved = np.linalg.norm(iso * (za - z0))
        assert np.linalg.norm(iso * (zb - za)) <= 1e-8 * moved

    def test_linear_mode_propagated_exactly(self, params):
        # mode 8 of part (a)'s J = 9 band squares onto mode 0, where the flux
        # is zero, and onto mode 16, above the band: only the rotation acts on
        # it, so one step 100x past the RK4 limit must be exact
        (h, _), _, cut = criterion_10_state(params, "a")
        grid, g, H = h.grid, params.g, params.H
        k = 2 * math.pi * 8 / grid.L
        om = k * math.sqrt(g * H * (1 - H * H * k * k / 3))
        v = WaveField(grid, 0.5 * om * h.h)
        config = SchemeConfig(filter_cut=cut)
        dt = 100 * stable_dt(grid, params, config, "boussinesq") / 0.4
        out = step_ifrk4((h, v), params, config, dt)
        h8, v8 = np.fft.rfft(h.h)[8], np.fft.rfft(v.h)[8]
        want_h = h8 * math.cos(om * dt) + v8 * math.sin(om * dt) / om
        want_v = -om * h8 * math.sin(om * dt) + v8 * math.cos(om * dt)
        size = math.hypot(om * abs(h8), abs(v8))
        assert om * abs(np.fft.rfft(out[0].h)[8] - want_h) <= 1e-12 * size
        assert abs(np.fft.rfft(out[1].h)[8] - want_v) <= 1e-12 * size
        assert out[0].t == out[1].t == pytest.approx(dt)

    @pytest.mark.parametrize("scheme", ["spectral", "centered4"])
    def test_embedded_error_estimate_is_third_order(self, params, scheme):
        # as for the unidirectional pair: halving dt cuts the estimate ~16x,
        # and the fourth-order step's own local error, in the norm the
        # rotation conserves, stays below it
        grid, cut = PeriodicGrid(L=60.0, N=256), 0.75
        state, _ = filtered_solitary(params, 0.2, grid, cut)
        config = SchemeConfig(deriv=scheme, filter_cut=cut)
        z, iso = boussinesq_band_state(params, state, config)
        _, _, step = evolution._band_run(grid, params, config, True, "ifrk4")
        dts = (0.1, 0.05, 0.025)
        est = [step(z, None, dt)[2] for dt in dts]
        assert all(12.0 <= a / b <= 24.0 for a, b in zip(est, est[1:]))
        for dt, e in zip(dts, est):
            fine, n = z, None
            for _ in range(64):
                fine, n, _ = step(fine, n, dt / 64)
            assert np.linalg.norm(iso * (step(z, None, dt)[0] - fine)) <= e

    def test_filtered_solitary_laps_keep_the_top_of_the_band(self, params):
        # criterion 10's solitary data on a coarser grid, three laps under the
        # error controller: the top eighth of the band holds the profile's own
        # content (1e-4 m), which must not grow from lap to lap.  The
        # tolerance sets every step here (about 0.05 s); the beat limit, some
        # seconds, does not bind
        grid, cut = PeriodicGrid(L=120.0, N=256), 0.75
        state, c = filtered_solitary(params, 0.1, grid, cut)
        config = SchemeConfig(t_end=grid.L / c, filter_cut=cut)
        J = np.count_nonzero(wavenumbers(grid.N, grid.L) <= cut * math.sqrt(3.0) / params.H)
        tops = []
        for _ in range(3):
            res = evolve(state, params, config, sample_every=10 ** 9)
            assert (res.integrator, res.rejected) == ("ifrk4", 0)
            state = res.final
            tops.append((np.abs(np.fft.rfft(state[0].h)) / grid.N)[J - J // 8:J].max())
        assert all(b <= a for a, b in zip(tops, tops[1:]))

    def test_beat_limit_reads_the_bidirectional_dispersion_relation(self, params):
        # filtered noise at 1e-10 H is linear to roundoff, so its error
        # estimate is near zero and, between sparse stops, the steps grow to
        # the RK4 limit of the fastest beat, 2 sqrt(2) / (c_max k_rms): c_max
        # is the largest group speed of omega^2 = g H k^2 (1 - H^2 k^2 / 3)
        # over the band, and k_rms is taken in the norm the rotation conserves
        state, _, cut = criterion_10_state(params, "c")
        grid, g, H = state[0].grid, params.g, params.H
        k = wavenumbers(grid.N, grid.L)
        k = k[k <= cut * math.sqrt(3.0) / H]
        om = k * np.sqrt(g * H * (1 - H * H * k * k / 3))
        c_max = np.max(np.abs(np.diff(om) / np.diff(k)))
        power = (om * np.abs(np.fft.rfft(state[0].h)[:k.size])) ** 2  # v = 0
        limit = 2 * math.sqrt(2) / (c_max * math.sqrt(np.sum(k * k * power) / np.sum(power)))
        res = evolve(state, params, SchemeConfig(t_end=20.0, filter_cut=cut),
                     sample_every=1)
        assert res.integrator == "ifrk4"
        largest = np.diff(res.times)[:-1].max()  # the last step lands on t_end
        assert limit * 2 ** (-1 / 16) * (1 - 1e-9) <= largest <= limit * (1 + 1e-9)

    def test_unfiltered_run_stays_on_rk4(self, params):
        # above sqrt(3)/H the unfiltered model grows, so no rotation propagates it
        state, _, _ = criterion_10_state(params, "c")
        config = SchemeConfig(t_end=0.01, boussinesq_filter=False)
        res = evolve(state, params, config)
        assert (res.integrator, res.rejected) == ("rk4", 0)
        with pytest.raises(ValueError, match="low-pass band"):
            step_ifrk4(state, params, config, 0.01)


def kdv_linear_symbol(params, grid, scheme, frame="fixed", alpha=0.0):
    """Linear symbol of the frame written out from the stencils (or ik)."""
    k = wavenumbers(grid.N, grid.L)
    if scheme == "spectral":
        d1, d2 = 1j * k, -k * k
    else:
        kd = k * grid.dx
        d1 = 1j * (8 * np.sin(kd) - np.sin(2 * kd)) / (6 * grid.dx)
        d2 = -(15 - 16 * np.cos(kd) + np.cos(2 * kd)) / (6 * grid.dx ** 2)
    d1[-1] = 0.0
    c = 1.5 * math.sqrt(params.g / params.H)
    if frame == "moving":
        return -c * d1 * ((2.0 / 3.0) * alpha + (dispersion_sigma(params) / 3.0) * d2)
    return -c * d1 * ((2.0 / 3.0) * params.H + (params.H ** 3 / 9.0) * d2)


class TestStableDt:
    def test_centered4_advisory_reads_its_own_symbol(self, params):
        grid = PeriodicGrid(L=120.0, N=512)
        band = kdv_linear_symbol(params, grid, "centered4")[:(grid.N + 2) // 3]
        lam = np.max(np.abs(band))
        c4 = stable_dt(grid, params, SchemeConfig(deriv="centered4"))
        assert c4 == pytest.approx(0.4 * 2 * math.sqrt(2) / lam, rel=1e-12)
        assert c4 > stable_dt(grid, params, SchemeConfig(deriv="spectral"))

    @pytest.mark.parametrize("filtered", [True, False])
    def test_boussinesq_advisory_reads_its_own_symbol(self, params, filtered):
        grid = PeriodicGrid(L=64.0, N=256)
        g, H = params.g, params.H
        k = wavenumbers(grid.N, grid.L)
        band = k <= 0.5 * math.sqrt(3.0) / H if filtered else np.full(k.shape, True)
        limit = 0.4 * 2 * math.sqrt(2)
        # centered4: h_tt's symbol g H D2 (1 + H^2 D2 / 3) from the stencil's D2
        kd = k * grid.dx
        d2 = -(15 - 16 * np.cos(kd) + np.cos(2 * kd)) / (6 * grid.dx ** 2)
        lin = g * H * d2 * (1 + H * H * d2 / 3)
        c4 = stable_dt(grid, params, SchemeConfig(deriv="centered4", boussinesq_filter=filtered),
                       "boussinesq")
        assert c4 == pytest.approx(limit / np.max(np.sqrt(np.abs(lin[band]))), rel=1e-12)
        # spectral: the dispersion relation omega^2 = g H k^2 (1 - H^2 k^2 / 3)
        om2 = g * H * k * k * (1 - H * H * k * k / 3)
        sp = stable_dt(grid, params, SchemeConfig(boussinesq_filter=filtered), "boussinesq")
        assert sp == pytest.approx(limit / np.max(np.sqrt(np.abs(om2[band]))), rel=1e-12)

    def test_unknown_equation_is_named(self, params):
        with pytest.raises(ValueError, match="unknown equation 'boussinesq2'"):
            stable_dt(PeriodicGrid(L=64.0, N=256), params, SchemeConfig(), "boussinesq2")

    def test_run_without_linear_term_has_no_advisory(self):
        # sigma = 0 (T = 3270 N/m at H = 1 m) and alpha = 0 leave the symbol zero:
        # an explicit step has no advisory to be warned against, and says so
        grid = PeriodicGrid(L=64.0, N=256)
        field = WaveField(grid, 0.01 * np.cos(2.0 * np.pi * grid.x / grid.L))
        config = SchemeConfig(t_end=1.0, dt=0.02, frame="moving", alpha=0.0)
        with pytest.raises(ValueError, match="degenerate linear symbol; cannot size a step"):
            evolve(field, PhysicalParams(T=3270.0), config)


class TestIfrk4:
    @pytest.mark.parametrize("j", [10, 20])
    @pytest.mark.parametrize("frame", ["fixed", "moving"])
    def test_linear_mode_propagated_exactly(self, params, frame, j):
        # at 1e-9 m the nonlinearity moves the mode's own coefficient by
        # ~1e-18 relative; one step 100x past the RK4 limit must rotate
        # that coefficient by exactly exp(L dt).  omega = Im L changes sign
        # over the band in both frames: mode 10 turns backwards (-2.90 1/s
        # in the fixed frame), mode 20 forwards
        grid = PeriodicGrid(L=50.0, N=256)
        h = 1e-9 * np.cos(2 * math.pi * j * grid.x / grid.L)
        config = SchemeConfig(frame=frame, alpha=0.37 if frame == "moving" else 0.0)
        dt = 100 * stable_dt(grid, params, config) / 0.4
        out = step_ifrk4(WaveField(grid, h), params, config, dt)
        lin = kdv_linear_symbol(params, grid, "spectral", frame, config.alpha)
        want = np.exp(lin[j] * dt) * np.fft.rfft(h)[j]
        assert abs(np.fft.rfft(out.h)[j] - want) <= 1e-12 * abs(want)
        assert out.t == pytest.approx(dt)

    def test_fixed_horizon_convergence(self, params):
        # halving dt cuts the error against exact translation ~16x
        spec, grid, field = solitary_case(params, N=256, L=120.0)
        omega = solitary_speed(spec)
        t_end = 2.0
        exact = fourier_shift(field.h, grid.L, omega * t_end)

        def err(n):
            f = field
            for _ in range(n):
                f = step_ifrk4(f, params, SchemeConfig(), t_end / n)
            return np.max(np.abs(f.h - exact))

        e10, e20, e40 = err(10), err(20), err(40)
        assert 8.0 <= e10 / e20 <= 32.0
        assert 8.0 <= e20 / e40 <= 32.0

    def test_embedded_error_estimate_is_third_order(self, params):
        # the pair's estimate (dt/10) flux (n4 - n5) is the local error of
        # its third-order partner: halving dt cuts it ~16x, while the
        # fourth-order step's own local error falls ~32x and stays below it
        spec, grid, field = solitary_case(params, h0=0.2, N=256, L=60.0)
        lin, _, step = evolution._band_run(grid, params, SchemeConfig(), False, "ifrk4")
        z = np.fft.rfft(field.h)[None, :lin.size]
        dts = (0.04, 0.02, 0.01)
        est = [step(z, None, dt)[2] for dt in dts]
        assert all(12.0 <= a / b <= 24.0 for a, b in zip(est, est[1:]))
        for dt, e in zip(dts, est):
            fine, n = z, None
            for _ in range(64):
                fine, n, _ = step(fine, n, dt / 64)
            assert np.linalg.norm(step(z, None, dt)[0] - fine) <= e

    def test_centered4_auto_step_agrees_with_rk4(self, params):
        spec, grid, field = solitary_case(params, h0=0.2, N=256, L=60.0)
        auto = evolve(field, params, SchemeConfig(deriv="centered4", t_end=1.0))
        dt = stable_dt(grid, params, SchemeConfig(deriv="centered4"))
        rk4 = evolve(field, params, SchemeConfig(deriv="centered4", t_end=1.0, dt=dt))
        assert (auto.integrator, rk4.integrator) == ("ifrk4", "rk4")
        assert auto.steps < rk4.steps
        assert np.max(np.abs(auto.final.h - rk4.final.h)) <= 1e-8 * spec.h0

    def test_blowup_raised_in_the_crossing_step(self, params, monkeypatch):
        # a tolerance of 100, with the beat limit lifted, lets the controller
        # grow the step until the run diverges; the check runs on every
        # accepted step, so the error comes one step after the last sample,
        # which every accepted step takes here
        monkeypatch.setattr(evolution, "IF_TOL", 100.0)
        monkeypatch.setattr(evolution, "RK4_IMAG_LIMIT", math.inf)
        spec, grid, field = solitary_case(params, h0=0.2, N=128, L=60.0)
        # (t, max|h|) of every sample: the start, then each band state the
        # controlled run hands evolve to keep
        seen = [(0.0, np.max(np.abs(field.h)))]
        run = evolution._controlled_run

        def recording(*args):
            *head, sample = args

            def record(t, z):
                seen.append((t, np.max(np.abs(np.fft.irfft(z[0], grid.N)))))
                sample(t, z)

            return run(*head, record)

        monkeypatch.setattr(evolution, "_controlled_run", recording)
        with pytest.raises(BlowUpError) as exc:
            evolve(field, params, SchemeConfig(t_end=50.0),
                   sample_every=1)
        times = [t for t, _ in seen]
        assert len(times) >= 3
        assert all(m <= 10 * params.H for _, m in seen)
        assert exc.value.step == len(times)
        assert exc.value.time > times[-1] and exc.value.max_abs_h > 10 * params.H

    def test_step_below_the_floor_raises_instead_of_spinning(self, params, monkeypatch):
        # no step meets a tolerance below roundoff: the controller shrinks the
        # first step until it falls below 1e-8 of the run, then raises
        monkeypatch.setattr(evolution, "IF_TOL", 1e-300)
        spec, grid, field = solitary_case(params, h0=0.2, N=128, L=60.0)
        with pytest.raises(BlowUpError) as exc:
            evolve(field, params, SchemeConfig(t_end=50.0))
        assert (exc.value.time, exc.value.step) == (0.0, 1)
        assert exc.value.max_abs_h == pytest.approx(spec.h0, rel=1e-3)

    def test_wanted_step_past_max_steps_raises_instead_of_spinning(self, params):
        # a frame of alpha = 1e300 turns the band so fast that the beat limit
        # wants steps of about 1e-300 s: the first step would already leave
        # more than MAX_STEPS of them, so the run stops before taking it
        spec, grid, field = solitary_case(params, N=128, L=60.0)
        with pytest.raises(BlowUpError, match="MAX_STEPS") as exc:
            evolve(field, params, SchemeConfig(frame="moving", alpha=1e300, t_end=1.0))
        assert (exc.value.time, exc.value.step, exc.value.integrator) == (0.0, 1, "ifrk4")
        assert exc.value.max_abs_h == pytest.approx(spec.h0, rel=1e-3)

    def test_zero_field_lands_on_every_sample_without_dividing_by_zero(self, params):
        grid = PeriodicGrid(L=60.0, N=128)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = evolve(WaveField(grid, np.zeros(grid.N)), params, SchemeConfig(t_end=1.0))
        assert (res.integrator, res.steps, res.rejected) == ("ifrk4", 50, 0)
        assert res.times == [k / 50 for k in range(51)]
        assert all(np.all(s.h == 0.0) for s in res.snapshots)

    def test_run_records_how_it_stepped(self, params):
        # an auto-dt run lands on 50 equally spaced sample times and records
        # its mean step; with sparse sampling it lands on t_end alone
        spec, grid, field = solitary_case(params, N=128, L=60.0)
        auto = evolve(field, params, SchemeConfig(t_end=1.0))
        assert (auto.integrator, auto.rejected) == ("ifrk4", 0)
        assert auto.times == [k / 50 for k in range(51)]
        assert auto.steps * auto.dt == pytest.approx(1.0)
        sparse = evolve(field, params, SchemeConfig(t_end=1.0),
                        sample_every=10 ** 9)
        assert sparse.times == [0.0, 1.0] and sparse.steps < auto.steps
        assert sparse.steps * sparse.dt == pytest.approx(1.0)
        fixed = evolve(field, params, SchemeConfig(t_end=1.0, dt=0.01))
        assert (fixed.integrator, fixed.steps, fixed.dt, fixed.rejected) == (
            "rk4", 100, pytest.approx(0.01), 0)

    @staticmethod
    def _with_high_modes(params, grid, h0=0.2):
        # a solitary wave plus two modes above the retained band (3j >= N)
        spec = SolitarySpec(h0=h0, sigma=SIGMA0, H=params.H, g=params.g)
        h = solitary_field(spec, grid).h
        for j in (grid.N // 3 + 15, grid.N // 2 - 8):
            h = h + 1e-4 * np.cos(2 * math.pi * j * grid.x / grid.L)
        return WaveField(grid, h)

    def test_auto_step_clears_modes_above_the_band(self, params):
        grid = PeriodicGrid(L=60.0, N=256)
        field = self._with_high_modes(params, grid)
        res = evolve(field, params, SchemeConfig(t_end=1.0))
        assert res.integrator == "ifrk4"
        assert np.array_equal(res.snapshots[0].h, field.h)
        above = np.abs(np.fft.rfft(res.final.h))[(grid.N + 2) // 3:] / grid.N
        assert above.max() <= 1e-15 * np.max(np.abs(res.final.h))

    @pytest.mark.parametrize("scheme", ["spectral", "centered4"])
    def test_beat_limit_is_measured_over_the_band(self, params, scheme):
        # a transit at N = 1024: the RK4 limit 2 sqrt(2) / (c_max k_rms) of the
        # fastest beat over the band the run steps, not the error, sets the
        # step, which turns the fastest stepped mode many times
        spec, grid, field = solitary_case(params, N=1024, L=120.0)
        res = evolve(field, params, SchemeConfig(deriv=scheme, t_end=3.0),
                     sample_every=1)
        J = res.band[0]
        assert res.band == (J, J)
        omega = kdv_linear_symbol(params, grid, scheme)[:J].imag
        k = wavenumbers(grid.N, grid.L)[:J]
        c_max = np.max(np.abs(np.diff(omega) / np.diff(k)))
        power = np.abs(np.fft.rfft(field.h)[:J]) ** 2
        limit = 2 * math.sqrt(2) / (c_max * math.sqrt(np.sum(k * k * power) / np.sum(power)))
        largest = np.diff(res.times)[:-1].max()  # the last step lands on t_end
        assert limit * 2 ** (-1 / 16) * (1 - 1e-9) <= largest <= limit * (1 + 1e-9)
        assert largest * np.max(np.abs(omega)) > 4 * 2 * math.pi

    @pytest.mark.parametrize("bidirectional", [False, True], ids=["kdv_cut_band", "lowpass_pair"])
    def test_one_pass_read_gives_the_bound_power_and_moment(self, params, bidirectional):
        # one read of a band state gives the blow-up bound sum |h_j|, the power
        # sum |iso z|^2 in the isometric norm and its k2 moment, each within
        # 1e-14 of its formula, and leaves |h_j| for the band watch
        grid = PeriodicGrid(L=120.0, N=1024)
        lin = evolution._symbols(grid, params, SchemeConfig(), bidirectional)[0]
        J, m = (lin.size, 2) if bidirectional else (136, 1)  # a transit's cut band
        omega = evolution._omega(lin[:J], bidirectional)
        iso = np.stack((omega, np.ones(J)))[-m:]
        k2 = wavenumbers(grid.N, grid.L)[:J] ** 2
        read, a = evolution._state_reader(iso, k2)
        rng = np.random.default_rng(5)
        for _ in range(4):
            z = rng.standard_normal((m, J)) + 1j * rng.standard_normal((m, J))
            S = read(z)
            w = iso * z
            assert [S[0][0], S[1][1], S[1][2]] == pytest.approx(
                [np.sum(np.abs(z[0])), np.vdot(w, w).real, np.vdot(w, k2 * w).real],
                rel=1e-14, abs=0)
            assert np.array_equal(a, np.abs(z[0]))

    @pytest.mark.parametrize("run", ["transit_N512", "two_soliton", "boussinesq_demo"])
    def test_runs_build_no_stage_weights_twice(self, params, monkeypatch, tmp_path, run):
        # the default collision steps on 24 rungs of the ladder and lands on its
        # 50 stops with 30 step lengths; a band caches the weights of the last 40
        # step lengths it took, and on no run is a step's weights built twice
        built = []
        stage_weights = evolution._stage_weights

        def counted(om, lin, g, dt):
            built.append((om.size, dt))
            return stage_weights(om, lin, g, dt)

        monkeypatch.setattr(evolution, "_stage_weights", counted)
        # and each Fourier table is built once: as many builds as tables held
        memos = (evolution._kdv_symbols, evolution._boussinesq_symbols)
        for memo in memos:
            memo.cache_clear()
        if run == "transit_N512":
            evolve(*_transit_run(params))
        elif run == "boussinesq_demo":
            assert cli.main(["scenario", run, "--out", str(tmp_path / run)]) == 0
        else:
            initial, _, config = _collision_run(params)
            res = evolve(initial, params, replace(config, t_end=60.0))
            assert (res.integrator, res.steps, res.rejected) == ("ifrk4", 2322, 0)
            rungs = {dt for _, dt in built if dt == 2.0 ** (round(16.0 * math.log2(dt)) / 16.0)}
            assert len(rungs) == 24 and len(built) == 24 + 30
        assert built and len(set(built)) == len(built)
        tables = {"transit_N512": 1, "two_soliton": 1, "boussinesq_demo": 3}[run]
        assert [sum(m.cache_info().misses for m in memos),
                sum(m.cache_info().currsize for m in memos)] == [tables, tables]

    def test_steps_beyond_one_turn_raise_no_stage_resonance_at_a_cut_band(self, params):
        # four laps at N = 1024 on the band the wave occupies, in steps of about
        # 4 turns of its fastest mode: the band never grows, and its top eighth
        # stays at the truncation plateau (1.5e-11 of the peak after two laps,
        # 1.6e-11 after four), where a stage resonance would grow it ~300x a lap
        spec, grid, field = solitary_case(params, N=1024, L=120.0)
        res = evolve(field, params, SchemeConfig(t_end=4 * grid.L / solitary_speed(spec)))
        J = res.band[0]
        assert res.band == (J, J) and J < (grid.N + 2) // 3
        lin = kdv_linear_symbol(params, grid, "spectral")[:J]
        assert res.dt * np.max(np.abs(lin)) > 3 * 2 * math.pi
        tops = []
        for snap in (res.snapshots[25], res.final):  # after laps 2 and 4
            coeffs = np.abs(np.fft.rfft(snap.h)) / grid.N
            assert coeffs[J:].max() <= 1e-17
            tops.append(coeffs[J - J // 8:J].max())
            assert tops[-1] <= 1e-10 * coeffs.max()
        assert tops[1] < 2 * tops[0]

    def test_band_grows_as_the_state_steepens(self, params, monkeypatch):
        # a hump that steepens fills ever more modes: the run starts on a band
        # of under half the 2/3-rule band and grows it on demand, to the same
        # final h as the run on the whole 2/3-rule band
        grid = PeriodicGrid(L=200.0, N=512)
        field = WaveField(grid, 0.15 * np.exp(-(grid.x / 6.0) ** 2))
        config = SchemeConfig(t_end=40.0)
        built, band_run = [], evolution._band_run

        def spy(*args):
            out = band_run(*args)
            built.append(out[0].size)
            return out

        monkeypatch.setattr(evolution, "_band_run", spy)
        res = evolve(field, params, config)
        cap = (grid.N + 2) // 3
        # evolve builds the start's band, then each grown one, and no other
        assert built[0] == res.band[0] < cap // 2 and built[-1] == res.band[1]
        assert len(built) - 1 >= 3 and built == sorted(set(built))
        monkeypatch.setattr(evolution, "CHOP_LEVEL", 0.0)
        full = evolve(field, params, config)
        assert full.band == (cap, cap)
        scale = np.max(np.abs(full.final.h))
        assert np.max(np.abs(res.final.h - full.final.h)) <= 1e-7 * scale

    @pytest.mark.parametrize("N, h0_tall", [(256, 0.42), (256, 0.45), (256, 0.46), (384, 0.5)])
    def test_collision_steps_beyond_one_turn_stay_clean(self, params, N, h0_tall):
        # error-controlled steps through these overtakings pass a full turn
        # of the fastest retained mode (1.09 to 3.3 turns), and the modes
        # above the band stay at roundoff
        grid = PeriodicGrid(L=80.0, N=N)
        specA = SolitarySpec(h0_tall, SIGMA0, params.H, params.g)
        specB = SolitarySpec(0.2, SIGMA0, params.H, params.g)
        h = solitary_profile(specA, grid.x + 22.0) + solitary_profile(specB, grid.x + 4.0)
        config = SchemeConfig(frame="moving", t_end=60.0)
        res = evolve(WaveField(grid, h), params, config,
                     sample_every=1)
        lin = evolution._symbols_for(grid, params, config)[0][:(grid.N + 2) // 3]
        assert np.diff(res.times).max() * np.max(np.abs(lin)) > 2 * math.pi
        J = lin.size
        coeffs = np.abs(np.fft.rfft(res.final.h)) / grid.N
        assert coeffs[J:].max() <= 1e-17
        # the top of the band holds the waves' own content (3e-8 to 7e-8 m at
        # N = 256) and the tolerance's truncation error (3e-9 m at N = 384,
        # 1.3e-10 m at a tolerance of 1e-8), far below what a resonance would
        # grow to
        assert coeffs[J - J // 8:J].max() <= 1e-7

    def test_public_steps_repeat_the_evolve_run(self, params):
        grid = PeriodicGrid(L=60.0, N=256)
        field = self._with_high_modes(params, grid)
        res = evolve(field, params, SchemeConfig(t_end=0.5))
        f = field
        for _ in range(res.steps):
            f = step_ifrk4(f, params, SchemeConfig(), res.dt)
        assert f.t == pytest.approx(res.final.t)
        assert np.max(np.abs(f.h - res.final.h)) <= 1e-13
        above = np.abs(np.fft.rfft(f.h))[(grid.N + 2) // 3:] / grid.N
        assert above.max() <= 1e-15 * np.max(np.abs(f.h))


def reference_kdv(field, params, config, dt, nsteps):
    """Full-grid RK4 over kdv_rhs projected onto the 2/3-rule band, checked every step.

    The steps start from the projected field; the first entry is the field
    as given, as evolve's first snapshot is.
    """
    def rhs(h):
        return band_projected(kdv_rhs(WaveField(field.grid, h), params, config))

    hs, h = [field.h], band_projected(field.h)
    for i in range(nsteps):
        h = rk4(h, rhs, dt)
        evolution._check_alive(h, params.H, (i + 1) * dt, i + 1)
        hs.append(h)
    return hs


def lawson_reference(lin, flux, M, N, z, n1, dt):
    """One ERK4(3)-IP step of _band_run's, written with fresh arrays over the np.fft square.

    Returns (z1, n5, err) as the band stepper does; the order of operations
    is the stepper's, so the two agree bit for bit.
    """
    J, bidirectional = lin.size, z.shape[0] == 2
    A = np.stack((np.ones(J), lin)) if bidirectional else lin[None]
    g = np.zeros_like(A)
    g[-1] = flux * (M / N)
    om = np.sqrt(np.abs(lin)) if bidirectional else lin.imag

    def sq(x):
        return np.fft.rfft(np.fft.irfft(x[0], n=M) ** 2)[None, :J]

    def propagator(tau):
        c = np.cos(om * tau)
        As = A * np.divide(np.sin(om * tau), om, out=np.full(J, tau), where=om != 0)
        if bidirectional:
            return lambda x: c * x + As * x[::-1]
        return lambda x: (c + As) * x

    P = propagator(0.5 * dt)
    Pg, P2g = P(g), propagator(dt)(g)
    if n1 is None:
        n1 = sq(z)
    Pz = P(z)
    P2z = P(Pz)
    n2 = sq(Pz + (0.5 * dt) * Pg * n1)
    n3 = sq(Pz + (0.5 * dt) * g * n2)
    n4 = sq(P2z + (dt * Pg) * n3)
    z1 = (P2z + ((dt / 6.0) * P2g) * n1 + ((dt / 3.0) * Pg) * (n2 + n3)
          + ((dt / 6.0) * g) * n4)
    n5 = sq(z1)
    d = ((dt / 10.0) * g[-1:]) * (n4 - n5)
    return z1, n5, math.sqrt(np.vdot(d, d).real)


class TestBandStepper:
    @pytest.mark.parametrize("scheme", ["spectral", "centered4"])
    @pytest.mark.parametrize("frame", ["fixed", "moving"])
    def test_explicit_kdv_step_matches_the_dealiased_full_grid_step(self, params, frame,
                                                                    scheme):
        # an explicit-dt run steps the 2/3-rule band too: the modes above N/3
        # are dropped and the band product is the full-grid one less its alias
        grid = PeriodicGrid(L=60.0, N=128)
        field = TestIfrk4._with_high_modes(params, grid)
        alpha = 0.37 if frame == "moving" else 0.0  # the fixed frame takes no alpha
        dt = stable_dt(grid, params, SchemeConfig(deriv=scheme, frame=frame, alpha=alpha))
        config = SchemeConfig(deriv=scheme, frame=frame, alpha=alpha, dt=dt, t_end=200 * dt)
        res = evolve(field, params, config, sample_every=1)
        ref = reference_kdv(field, params, config, res.dt, res.steps)
        assert (res.integrator, res.steps, len(res.snapshots)) == ("rk4", 200, len(ref))
        scale = max(np.max(np.abs(h)) for h in ref)
        for snap, h in zip(res.snapshots, ref):
            assert np.max(np.abs(snap.h - h)) <= 1e-12 * scale

    @pytest.mark.parametrize("N, L, bidirectional, filtered, J, M", [
        (256, 60.0, False, True, 86, 256),     # the acceptance collision's band
        (512, 120.0, False, True, 136, 432),   # the reference transit's band
        (512, 120.0, False, True, 135, 405),   # an odd product grid
        (128, 60.0, False, True, None, 128),   # the 2/3-rule band, J = 43, product capped at N
        (256, 64.0, True, True, None, 25),     # boussinesq_demo's low-pass pair, J = 9
        (256, 64.0, True, False, None, 256),   # its unfiltered control run
        (1024, 120.0, True, 0.75, None, 75),   # its part (b), J = 25
    ])
    def test_band_square_is_the_numpy_fft_one(self, params, N, L, bidirectional,
                                              filtered, J, M):
        # the steps form their squares through operators' kernel pair, in place;
        # each step over the np.fft form of the same square, written with fresh
        # arrays in the same order of operations, must give the same bits.
        # filtered is False, True (the default cut) or the low-pass cut
        grid = PeriodicGrid(L=L, N=N)
        config = (SchemeConfig(boussinesq_filter=filtered) if isinstance(filtered, bool)
                  else SchemeConfig(filter_cut=filtered))
        lin, flux, step = evolution._band_run(grid, params, config, bidirectional, "rk4", J)
        J = lin.size
        hv = smooth_random_fields(grid, 1 + bidirectional, 0.1 * params.H, max_mode=40, seed=J)
        z = np.fft.rfft(np.stack(hv))[:, :J]

        def rhs(x):
            r = np.concatenate((x[1:], lin * x[:1]))  # (v, lin h) or lin h
            r[-1] += flux * (M / N) * np.fft.rfft(np.fft.irfft(x[0], n=M) ** 2)[:J]
            return r

        assert same_bits(step(z, 0.01), rk4(z, rhs, 0.01))
        if bidirectional and not filtered:
            return  # the integrating factor needs the low-pass band
        _, _, step = evolution._band_run(grid, params, config, bidirectional, "ifrk4", J)
        n = None
        for _ in range(3):  # the first step forms its own first square
            got, want = step(z, n, 0.01), lawson_reference(lin, flux, M, N, z, n, 0.01)
            assert all(same_bits(a, b) for a, b in zip(got[:2], want[:2]))
            assert got[2] == want[2]
            z, n = got[:2]

    @pytest.mark.parametrize("integrator", ["rk4", "ifrk4"])
    @pytest.mark.parametrize("bidirectional", [False, True])
    def test_steps_share_no_array_with_their_caller(self, params, integrator, bidirectional):
        # the steppers reuse work arrays: a step retried from the same (z, n),
        # as after a rejection, must give the same result and leave the first
        # result, and its own arguments, as they were
        grid = PeriodicGrid(L=64.0, N=256)
        lin, _, step = evolution._band_run(grid, params, SchemeConfig(), bidirectional,
                                           integrator)
        hv = smooth_random_fields(grid, 1 + bidirectional, 0.1 * params.H, max_mode=6, seed=3)
        z = np.fft.rfft(np.stack(hv))[:, :lin.size]
        if integrator == "rk4":
            args = (z,)

            def retry():
                return (step(z, 0.01),)
        else:
            z, n, _ = step(z, None, 0.01)
            args = (z, n)

            def retry():
                return step(z, n, 0.01)[:2]
        given = [a.copy() for a in args]
        first = retry()
        kept = [a.copy() for a in first]
        second = retry()
        assert all(same_bits(a, b) for a, b in zip(second, kept))
        assert all(same_bits(a, b) for a, b in zip(first, kept))
        assert all(same_bits(a, b) for a, b in zip(args, given))
        assert not any(np.shares_memory(a, b) for a in first + args for b in second)

    def test_band_square_calls_numpys_own_kernels(self):
        # one kernel pair serves every transform: operators imports pocketfft's
        # kernels, the ones np.fft calls, and no other module of the package does
        from longwave import operators
        assert operators._pfu is np.fft._pocketfft.pfu
        importers = [p.name for p in Path(operators.__file__).parent.glob("*.py")
                     if "_pocketfft_umath" in p.read_text()]
        assert importers == ["operators.py"]

    @staticmethod
    def _count_transforms(monkeypatch) -> tuple[list[int], list[int]]:
        # the length and the number of rows of every kernel call made from here on
        # through the kernels operators hands out, in the order they are made
        lengths, rows, pfu = [], [], operators._pfu

        def counted(kernel, length):
            def call(x, fct, out):
                lengths.append(length(x, out))
                rows.append(out.size // out.shape[-1])
                return kernel(x, fct, out)
            return call

        monkeypatch.setattr(operators, "_pfu", SimpleNamespace(
            rfft_n_even=counted(pfu.rfft_n_even, lambda x, out: x.shape[-1]),
            rfft_n_odd=counted(pfu.rfft_n_odd, lambda x, out: x.shape[-1]),
            irfft=counted(pfu.irfft, lambda z, out: out.shape[-1])))
        return lengths, rows

    @pytest.mark.parametrize("N, L, config, bidirectional, J, M", [
        (256, 80.0, SchemeConfig(frame="moving"), False, 86, 256),  # the default collision
        (1024, 120.0, SchemeConfig(filter_cut=0.75), True, 25, 75),  # boussinesq_demo's (b)
    ])
    def test_a_step_keeps_its_transform_budget(self, params, monkeypatch, N, L, config,
                                               bidirectional, J, M):
        # a band square is two transforms of length M: a Lawson step forms four
        # squares given the first stage's (first same as last), five without
        # it, and an RK4 step four.  The pair's Lawson step squares its stages
        # two rows to a call: four calls given the first square, and that
        # square's two one-row calls before them without it, so the same rows
        lengths, rows = self._count_transforms(monkeypatch)
        grid = PeriodicGrid(L=L, N=N)
        lin, _, ifrk4 = evolution._band_run(grid, params, config, bidirectional, "ifrk4")
        _, _, rk4 = evolution._band_run(grid, params, config, bidirectional, "rk4")
        assert lin.size == J
        hv = smooth_random_fields(grid, 1 + bidirectional, 0.1 * params.H, max_mode=6, seed=5)
        z = np.fft.rfft(np.stack(hv))[:, :J]
        first, later = ([1, 1, 2, 2, 2, 2], [2] * 4) if bidirectional else ([1] * 10, [1] * 8)
        del lengths[:], rows[:]
        z1, n1, _ = ifrk4(z, None, 0.01)
        assert lengths == [M] * len(first) and rows == first and sum(rows) == 10
        del lengths[:], rows[:]
        ifrk4(z1, n1, 0.01)
        assert lengths == [M] * len(later) and rows == later and sum(rows) == 8
        del lengths[:], rows[:]
        rk4(z, 0.01)
        assert lengths == [M] * 8 and rows == [1] * 8

    @pytest.mark.parametrize("case", ["collision", "boussinesq_demo_b"])
    def test_evolve_steps_once_per_step_and_reuses_the_last_square(self, params, monkeypatch,
                                                                   case):
        # evolve calls the stepper once per accepted or rejected step, and hands
        # each step the square the one before it formed: only the first step of
        # a band that never grows forms its own, so it transforms ten rows and
        # every later one eight.  KdV's step makes one call a row; the pair's
        # squares two rows to a call after its first square, so it makes six
        # calls on its first step and four on every later one
        (lengths, rows), per_step, band_run = (self._count_transforms(monkeypatch), [],
                                               evolution._band_run)

        def counting(*args):
            lin, flux, step = band_run(*args)

            def counted(*step_args):
                before = len(lengths)
                out = step(*step_args)
                per_step.append((len(lengths) - before, sum(rows[before:])))
                return out
            return lin, flux, counted

        monkeypatch.setattr(evolution, "_band_run", counting)
        if case == "collision":  # two_soliton's defaults
            grid = PeriodicGrid(L=80.0, N=256)
            h = (solitary_profile(SolitarySpec(0.5, SIGMA0, params.H, params.g), grid.x + 22.0)
                 + solitary_profile(SolitarySpec(0.2, SIGMA0, params.H, params.g), grid.x + 4.0))
            state, config = WaveField(grid, h), SchemeConfig(frame="moving", t_end=60.0)
        else:
            state, _ = filtered_solitary(params, 0.1, PeriodicGrid(L=120.0, N=1024), 0.75)
            config = SchemeConfig(filter_cut=0.75, t_end=30.0)
        res = evolve(state, params, config)
        assert res.integrator == "ifrk4" and res.band[0] == res.band[1]
        assert len(per_step) == res.steps + res.rejected > 500
        calls, transformed = (list(c) for c in zip(*per_step))
        assert transformed == [10] + [8] * (len(per_step) - 1)
        first, later = (6, 4) if case == "boussinesq_demo_b" else (10, 8)
        assert calls == [first] + [later] * (len(per_step) - 1)

    def test_blowup_check_is_exact_when_the_bound_exceeds_the_limit(self, params):
        # 60 cosines of 0.3 m: the coefficient bound (2/N) sum_j |h_j| is about
        # 18 m, over the 10 m limit, while max|h| stays near 5 m, so no step
        # may raise
        grid = PeriodicGrid(L=400.0, N=256)
        phases = np.random.default_rng(2024).uniform(0.0, 2 * math.pi, 60)
        h = sum(0.3 * np.cos(2 * math.pi * j / grid.L * grid.x + phase)
                for j, phase in enumerate(phases, 1))
        field, zero = WaveField(grid, h), WaveField(grid, np.zeros(grid.N))
        snaps = [step_rk4(field, params, SchemeConfig(), 0.005),
                 step_ifrk4(field, params, SchemeConfig(), 0.005),
                 step_rk4((field, zero), params, SchemeConfig(), 0.005)[0]]
        for config, initial in ((SchemeConfig(t_end=0.2), field),
                                (SchemeConfig(dt=0.005, t_end=0.2), field),
                                (SchemeConfig(dt=0.005, t_end=0.2), (field, zero))):
            res = evolve(initial, params, config, sample_every=1)
            assert res.steps >= 20
            snaps += [s[0] if isinstance(s, tuple) else s for s in res.snapshots]
        for s in snaps:
            assert 2.0 / grid.N * np.abs(np.fft.rfft(s.h)).sum() > 15 * params.H
            assert np.max(np.abs(s.h)) < 7 * params.H


class TestEvolve:
    @pytest.mark.parametrize("amp", [0.01, 0.1])
    def test_controlled_run_without_linear_term(self, amp):
        # sigma = 0 and alpha = 0: no dispersion, so no beat limits the step
        grid = PeriodicGrid(L=64.0, N=256)
        field = WaveField(grid, amp * np.cos(2.0 * np.pi * grid.x / grid.L))
        params = PhysicalParams(T=3270.0)
        assert dispersion_sigma(params) == 0.0
        res = evolve(field, params, SchemeConfig(t_end=1.0, frame="moving", alpha=0.0))
        assert res.integrator == "ifrk4" and res.steps > 0
        assert np.isfinite(res.samples).all() and len(res.times) == 51

    def test_bidirectional_run_records_pure_gravity_invariants(self):
        # the pair reads no T, so neither do its M and Hfun, even at the
        # critical depth, where the unidirectional sigma is zero
        grid = PeriodicGrid(L=1.0, N=64)
        h = WaveField(grid, 1e-4 * np.cos(2 * np.pi * grid.x / grid.L))
        state = (h, WaveField(grid, np.zeros(64)))
        capillary = PhysicalParams(H=critical_depth(WATER), T=WATER.T)
        gravity = PhysicalParams(H=capillary.H, T=0.0)
        runs = [evolve(state, p, SchemeConfig(t_end=0.01)).invariants
                for p in (capillary, gravity)]
        assert len(runs[0]) > 1 and runs[0] == runs[1]

    def test_zero_field(self, params):
        grid = PeriodicGrid(L=20.0, N=64)
        res = evolve(WaveField(grid, np.zeros(64)), params, SchemeConfig(t_end=0.2))
        assert np.all(res.final.h == 0.0)
        assert res.times[-1] == pytest.approx(0.2)

    def test_zero_horizon(self, params):
        spec, grid, field = solitary_case(params, N=128, L=60.0)
        res = evolve(field, params, SchemeConfig(t_end=0.0))
        assert len(res.snapshots) == 1
        assert res.final is res.snapshots[0]
        assert np.array_equal(res.final.h, field.h)

    def test_mass_conserved_exactly_with_spectral(self, params):
        spec, grid, field = solitary_case(params, N=256)
        res = evolve(field, params, SchemeConfig(t_end=1.0))
        Q = [inv.Q for inv in res.invariants]
        assert max(abs(q - Q[0]) for q in Q) <= 1e-13 * abs(Q[0])

    def test_frame_equivalence(self, params):
        # moving-frame run mapped back by the frame shift matches fixed frame
        spec, grid, field = solitary_case(params, N=512)
        alpha = 0.37
        c_frame = math.sqrt(params.g * params.H) - math.sqrt(params.g / params.H) * alpha
        t_end = 2.0
        dt = stable_dt(grid, params, SchemeConfig(), "kdv")
        fixed = evolve(field, params, SchemeConfig(dt=dt, t_end=t_end),
                       sample_every=10 ** 9)
        moving = evolve(field, params,
                        SchemeConfig(dt=dt, t_end=t_end, frame="moving", alpha=alpha),
                        sample_every=10 ** 9)
        mapped = fourier_shift(moving.final.h, grid.L, c_frame * t_end)
        assert np.max(np.abs(fixed.final.h - mapped)) <= 1e-8 * spec.h0

    def test_rk4_transit_meets_criteria_04_08(self, params):
        # the auto-step reference transit runs IFRK4; this lap keeps the
        # explicit-dt RK4 path under the same conservation and speed gates
        spec, grid, field = solitary_case(params, N=512, L=120.0)
        omega = solitary_speed(spec)
        dt = stable_dt(grid, params)
        res = evolve(field, params, SchemeConfig(dt=dt, t_end=grid.L / omega))
        assert res.integrator == "rk4" and res.band == (171, 171)
        d = conservation_drift(res.invariants)
        assert d["Q"] <= 1e-12
        assert max(d["E"], d["M"], d["Hfun"]) <= 1e-6
        speed = fit_speed(res.times, [crest_position(s) for s in res.snapshots], grid.L)
        assert abs(speed - omega) / omega <= 0.01

    def test_sampling_every_fifth_step(self, params):
        # the start, every fifth accepted step and the landing on t_end
        spec, grid, field = solitary_case(params, N=128, L=60.0)
        res = evolve(field, params, SchemeConfig(t_end=0.2), sample_every=5)
        assert len(res.times) == 1 + res.steps // 5 + (res.steps % 5 != 0)
        assert [s.t for s in res.snapshots] == res.times == [s.t for s in res.invariants]
        assert res.times[0] == 0.0 and res.times[-1] == pytest.approx(0.2)

    @pytest.mark.parametrize("dt", [None, 0.01])
    @pytest.mark.parametrize("sample_every", [0, -1, 2.5])
    def test_sample_every_must_be_a_positive_integer(self, params, dt, sample_every):
        spec, grid, field = solitary_case(params, N=64, L=60.0)
        with pytest.raises(ValueError, match="sample_every"):
            evolve(field, params, SchemeConfig(dt=dt, t_end=5.0), sample_every=sample_every)

    @pytest.mark.parametrize("pair", [False, True])
    def test_explicit_step_too_small_to_count_is_a_value_error(self, params, pair):
        # t_end / dt overflows: a ValueError naming both, before any sample,
        # not an OverflowError from the step count
        spec, grid, field = solitary_case(params, N=64, L=60.0)
        initial = (field, WaveField(grid, np.zeros(grid.N))) if pair else field
        with pytest.raises(ValueError, match=r"dt = 1e-320 s .* t_end = 1\.0 s"):
            evolve(initial, params, SchemeConfig(dt=1e-320, t_end=1.0))

    def test_advisory_step_past_max_steps_is_a_value_error(self, params):
        # the unfiltered pair steps RK4 at its advisory: 1e300 s of it is more
        # than MAX_STEPS steps, refused before any sample
        grid = PeriodicGrid(L=64.0, N=256)
        zero = WaveField(grid, np.zeros(grid.N))
        with pytest.raises(ValueError, match=r"dt = \S+ s is too small to reach "
                                             r"t_end = 1e\+300 s in MAX_STEPS"):
            evolve((zero, zero), params, SchemeConfig(t_end=1e300, boussinesq_filter=False))

    def test_dt_advisory_warning(self, params, caplog):
        spec, grid, field = solitary_case(params, N=128, L=60.0)
        advisory = stable_dt(grid, params, SchemeConfig(), "kdv")
        with caplog.at_level("WARNING", logger="longwave.evolution"):
            try:
                evolve(field, params, SchemeConfig(dt=3 * advisory, t_end=6 * advisory))
            except BlowUpError:
                pass
        assert any("advisory" in r.message for r in caplog.records)


class TestDeformationRate:
    def rate_by_differentiation(self, spec, params, xi):
        # independent evaluation: analytic derivatives pushed through the
        # moving-frame flux d/dxi(h^2/2 + (2/3) alpha h + (sigma/3) h_xixi)
        sigma = dispersion_sigma(params)
        p, hb, al = spec.p, spec.hbar, spec.alpha
        s2 = 1.0 / np.cosh(p * xi) ** 2
        t = np.tanh(p * xi)
        h = hb * s2
        h1 = -2 * p * hb * s2 * t
        h3 = 8 * p ** 3 * hb * s2 * t * (3 * s2 - 1)
        return -1.5 * math.sqrt(params.g / params.H) * (
            h * h1 + (2.0 / 3.0) * al * h1 + (sigma / 3.0) * h3)

    def test_matches_direct_differentiation(self, params):
        rng = np.random.default_rng(17)
        xi = np.linspace(-25.0, 25.0, 101)
        for _ in range(10):
            spec = DeformationSpec(hbar=rng.uniform(0.05, 0.3),
                                   p=rng.uniform(0.1, 0.6),
                                   alpha=rng.uniform(-0.3, 0.3))
            a = deformation_rate_closed_form(spec, params, xi)
            b = self.rate_by_differentiation(spec, params, xi)
            scale = np.max(np.abs(a)) or 1.0
            assert np.max(np.abs(a - b)) <= 1e-12 * scale

    def test_steady_wave_is_fixed_point(self, params):
        hbar = 0.1
        p = math.sqrt(hbar / (4 * SIGMA0))
        spec = DeformationSpec(hbar=hbar, p=p, alpha=-hbar / 2)
        xi = np.linspace(-20.0, 20.0, 200)
        assert np.max(np.abs(deformation_rate_closed_form(spec, params, xi))) < 1e-16

    def test_crest_momentarily_stationary(self, params):
        for alpha in (-0.2, 0.0, 0.3):
            spec = DeformationSpec(hbar=0.2, p=0.3, alpha=alpha)
            assert deformation_rate_closed_form(spec, params, 0.0) == 0.0

    def test_odd_in_xi(self, params):
        spec = DeformationSpec(hbar=0.15, p=0.35, alpha=0.1)
        xi = np.linspace(0.1, 20.0, 50)
        a = deformation_rate_closed_form(spec, params, xi)
        b = deformation_rate_closed_form(spec, params, -xi)
        assert np.allclose(a, -b, rtol=0, atol=1e-18)

    def test_specialized_alpha_form(self, params):
        # alpha = 4 sigma p^2 - (3/2) hbar collapses the bracket to tanh^2
        rng = np.random.default_rng(23)
        xi = np.linspace(-15.0, 15.0, 60)
        for _ in range(5):
            hbar = rng.uniform(0.05, 0.3)
            p = rng.uniform(0.1, 0.6)
            alpha = 4 * SIGMA0 * p * p - 1.5 * hbar
            spec = DeformationSpec(hbar=hbar, p=p, alpha=alpha)
            a = deformation_rate_closed_form(spec, params, xi)
            s2 = 1.0 / np.cosh(p * xi) ** 2
            t = np.tanh(p * xi)
            b = (3 * math.sqrt(params.g / params.H) * hbar * p
                 * (4 * SIGMA0 * p * p - hbar) * s2 * t ** 3)
            scale = np.max(np.abs(b)) or 1.0
            assert np.max(np.abs(a - b)) <= 1e-12 * scale

    def test_sign_flips_across_steady_width(self, params):
        hbar = 0.1
        p_star = math.sqrt(hbar / (4 * SIGMA0))
        xi = 1.0
        vals = []
        for ratio in (0.9, 1.1):
            p = ratio * p_star
            spec = DeformationSpec(hbar=hbar, p=p, alpha=4 * SIGMA0 * p * p - 1.5 * hbar)
            vals.append(deformation_rate_closed_form(spec, params, xi))
        assert vals[0] < 0 < vals[1]


class TestSteepeningVerdict:
    def test_analytic_criterion(self, params):
        hbar = 0.1
        p_star = math.sqrt(hbar / (4 * SIGMA0))
        cases = {0.9: SteepeningVerdict.STEEPENS_IN_FRONT,
                 1.0: SteepeningVerdict.STEADY,
                 1.1: SteepeningVerdict.FLATTENS_IN_FRONT}
        for ratio, expected in cases.items():
            spec = DeformationSpec(hbar=hbar, p=ratio * p_star, alpha=0.0)
            assert steepening_verdict(spec, params) is expected

    def test_cross_check_agrees(self, params):
        hbar = 0.1
        p_star = math.sqrt(hbar / (4 * SIGMA0))
        for ratio in (0.9, 1.0, 1.1):
            p = ratio * p_star
            spec = DeformationSpec(hbar=hbar, p=p,
                                   alpha=4 * SIGMA0 * p * p - 1.5 * hbar)
            steepening_verdict(spec, params, cross_check=True)

    def test_front_slope_change_signs(self, params):
        hbar = 0.1
        p_star = math.sqrt(hbar / (4 * SIGMA0))

        def change(ratio):
            p = ratio * p_star
            spec = DeformationSpec(hbar=hbar, p=p,
                                   alpha=4 * SIGMA0 * p * p - 1.5 * hbar)
            return front_slope_change(spec, params, 1.0)

        assert change(0.9) > 3e-3
        assert abs(change(1.0)) < 3e-3
        assert change(1.1) < -3e-3


def written_out_factorization(field, params, scheme, h_t=None):
    """The bidirectional operator on a unidirectional jet, term by term through diff."""
    g, H = params.g, params.H
    L, h = field.grid.L, field.h
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


class TestFactorization:
    def test_zero_field(self, params):
        grid = PeriodicGrid(L=50.0, N=64)
        assert factorization_residual(WaveField(grid, np.zeros(64)), params) == 0.0

    def test_solitary_residual_converges_to_amplitude_defect(self, params):
        # the refined residual approaches g h0^2/(4H) * max|h_xx| exactly
        h0 = 0.05
        spec = SolitarySpec(h0=h0, sigma=SIGMA0, H=params.H, g=params.g)
        grid = PeriodicGrid(L=160.0, N=1024)
        field = solitary_field(spec, grid)
        r = factorization_residual(field, params)
        defect = params.g * h0 ** 2 / (4 * params.H) * 1.5 * h0 ** 2 / params.H ** 3
        assert r == pytest.approx(defect, rel=0.01)

    @pytest.mark.parametrize("scheme", ["spectral", "centered4"])
    @pytest.mark.parametrize("N", [256, 1024, 4096])
    def test_matches_the_written_out_operator(self, params, N, scheme):
        spec = SolitarySpec(h0=0.05, sigma=SIGMA0, H=params.H, g=params.g)
        grid = PeriodicGrid(L=160.0, N=N)
        field = solitary_field(spec, grid)
        left = math.sqrt(params.g * params.H) * diff(field.h, grid.L, 1)
        # roundoff grows with the fourth-derivative term at the top mode,
        # g H^3/3 k_max^4 max|h| (the differences sit below 3e-17 of it)
        k_max = wavenumbers(N, grid.L)[-1]
        scale = params.g * params.H ** 3 / 3.0 * k_max ** 4 * np.max(np.abs(field.h))
        for h_t in (None, left):
            r = factorization_residual(field, params, scheme, h_t)
            assert abs(r - written_out_factorization(field, params, scheme, h_t)) <= 1e-15 * scale

    def test_left_moving_control_is_large(self, params):
        spec, grid, field = solitary_case(params, h0=0.1, N=512)
        left = math.sqrt(params.g * params.H) * diff(field.h, grid.L, 1)
        r = factorization_residual(field, params, h_t=left)
        norm = params.g * params.H * 1.5 * spec.h0 ** 2 / params.H ** 3
        assert r / norm > 1e-3

    @pytest.mark.parametrize("H", [1.0, 0.01])
    def test_residual_does_not_read_surface_tension(self, H):
        # the jet is built at T = 0, like the pure-gravity operator it is checked against
        gravity = PhysicalParams(g=9.81, H=H, rho=1000.0, T=0.0)
        capillary = PhysicalParams(g=9.81, H=H, rho=1000.0, T=0.0728)
        spec = SolitarySpec(h0=0.05 * H, sigma=dispersion_sigma(gravity), H=H, g=9.81)
        field = solitary_field(spec, PeriodicGrid(L=160.0 * H, N=256))
        assert factorization_residual(field, capillary) == factorization_residual(field, gravity)

    def test_one_off_domains_keep_each_memo_bounded(self, params):
        # residuals and invariants at 40 fresh domain lengths build their tables
        # in the memos runs read, which keep at most 8 each; a residual's value is
        # the one the memos' tables give, bit for bit
        spec = SolitarySpec(h0=0.02, sigma=SIGMA0, H=params.H, g=params.g)
        fields = [solitary_field(spec, PeriodicGrid(L=160.0 + 0.37 * i, N=128))
                  for i in range(40)]
        for field in fields:
            compute_invariants(field, params)
        cases = [(f, s) for f in fields for s in ("spectral", "centered4")]
        got = [factorization_residual(f, params, s) for f, s in cases]
        memos = (evolution._kdv_symbols, evolution._boussinesq_symbols)
        assert max(m.cache_info().currsize for m in memos) <= 8
        for (field, scheme), r in zip(cases, got):
            grid, h = field.grid, field.h
            lin, flux = evolution._symbols_for(grid, params, SchemeConfig(deriv=scheme))
            h_t = evolution._grid_rhs(lin, flux, h)
            h_tt = np.fft.irfft(lin * np.fft.rfft(h_t) + 2 * flux * np.fft.rfft(h * h_t),
                                n=grid.N)
            bidirectional = evolution._boussinesq_symbols(grid.N, grid.L, params.g, params.H,
                                                          scheme, None)
            assert r == np.max(np.abs(h_tt - evolution._grid_rhs(*bidirectional, h)))


class TestCrestTracking:
    def test_crest_position_subgrid(self, params):
        spec = SolitarySpec(h0=0.2, sigma=SIGMA0, H=1.0, g=9.81)
        grid = PeriodicGrid(L=60.0, N=256)
        for center in (0.0, 1.3, -17.77):
            f = solitary_field(spec, grid, center=center)
            assert crest_position(f) == pytest.approx(center, abs=5e-3)

    def test_fit_speed_with_wraparound(self):
        L = 40.0
        times = np.linspace(0.0, 10.0, 21)
        pos = (3.0 * times + L / 2) % L - L / 2  # wraps several times
        assert fit_speed(times, pos, L) == pytest.approx(3.0, rel=1e-12)

    @pytest.mark.parametrize("scale", [1e-300, 1e162, 1e300])
    def test_fit_speed_at_any_time_scale(self, scale):
        # the line is fitted against times shifted and divided by their span,
        # so neither a huge nor a tiny time overflows the fit (or warns)
        L = 40.0
        times = scale * (7.0 + np.linspace(0.0, 10.0, 21))
        pos = (3.0 / scale * times + L / 2) % L - L / 2
        assert fit_speed(times, pos, L) == pytest.approx(3.0 / scale, rel=1e-12)

    def test_fit_speed_of_a_crest_at_rest_is_zero(self):
        assert fit_speed([0.0, 1.0, 2.0], [1.5, 1.5, 1.5], 40.0) == 0.0

    @pytest.mark.parametrize("times", [[], [1.0], [2.0, 2.0], [3.0, 1.0]])
    def test_fit_speed_needs_times_that_advance(self, times):
        with pytest.raises(ValueError, match="a speed needs sample times that advance"):
            fit_speed(times, [0.0] * len(times), 40.0)


def _transit_run(params):
    spec, grid, field = solitary_case(params)
    return field, params, SchemeConfig(t_end=grid.L / solitary_speed(spec))


def _collision_run(params):
    grid = PeriodicGrid(L=80.0, N=256)
    specs = [SolitarySpec(h0=h0, sigma=SIGMA0, H=params.H, g=params.g) for h0 in (0.5, 0.2)]
    h = sum(solitary_profile(s, grid.x - x0) for s, x0 in zip(specs, (-22.0, -4.0)))
    return WaveField(grid, h), params, SchemeConfig(frame="moving", alpha=0.0, t_end=20.0)


def _capillary_run(params):
    spec = SolitarySpec(h0=0.1, sigma=dispersion_sigma(WATER), H=WATER.H, g=WATER.g)
    grid = PeriodicGrid(L=80.0, N=256)
    return solitary_field(spec, grid), WATER, SchemeConfig(t_end=5.0)


def _cnoidal_run(params):
    spec = CnoidalSpec(k=0.1, l=0.1, sigma=SIGMA0, H=params.H, g=params.g)
    field = cnoidal_field(spec, grid_for_cnoidal(spec, 4, 256), zero_mean=True)
    return field, params, SchemeConfig(t_end=5.0)


def _pair_run(params):
    # the pair's invariant sets are taken at T = 0, its energy is pure gravity
    spec = SolitarySpec(h0=0.1, sigma=SIGMA0, H=params.H, g=params.g)
    grid = PeriodicGrid(L=120.0, N=256)
    h = lowpass(solitary_profile(spec, grid.x), grid.L, 0.5 * math.sqrt(3.0))
    v = -solitary_speed(spec) * diff(h, grid.L, 1)
    return (WaveField(grid, h), WaveField(grid, v)), WATER, SchemeConfig(t_end=5.0)


class TestBatchedDiagnostics:
    @pytest.mark.parametrize("run", [_transit_run, _collision_run, _capillary_run,
                                     _cnoidal_run, _pair_run],
                             ids=["transit", "collision", "capillary", "cnoidal", "pair"])
    def test_stacked_diagnostics_match_the_one_row_path_bit_for_bit(self, params, run):
        initial, run_params, config = run(params)
        pair = isinstance(initial, tuple)
        res = evolve(initial, run_params, config)
        fields = [s[0] if pair else s for s in res.snapshots]
        grid = fields[0].grid
        # the one-row path: each snapshot alone, with the h_t evolve samples
        if pair:
            h_ts = [s[1].h for s in res.snapshots]
            one_row = [invariant_rows(f.h, grid, replace(run_params, T=0.0), [f.t],
                                      config.deriv, h_t)[0]
                       for f, h_t in zip(fields, h_ts)]
            energies = [boussinesq_energy(*s, run_params) for s in res.snapshots]
            assert same_bits(np.array(res.energy), np.array(energies))
        else:
            lin, flux = evolution._symbols(grid, run_params, config, False)
            one_row = [invariant_rows(f.h, grid, run_params, [f.t], config.deriv,
                                      evolution._grid_rhs(lin, flux, f.h))[0]
                       for f in fields]

        def bits(series):
            return np.array([[s.Q, s.E, s.M, s.Hfun, s.t, 0.0 if s.xg_dot is None else s.xg_dot]
                             for s in series])

        assert len(res.invariants) == len(fields) == 51
        assert same_bits(bits(res.invariants), bits(one_row))
        assert [s.xg_dot is None for s in res.invariants] == [s.xg_dot is None for s in one_row]
        if run is _cnoidal_run:  # zero mean: no centroid anywhere
            assert all(s.xg_dot is None for s in res.invariants)

        h = np.stack([f.h for f in fields])
        where = np.arange(grid.N) % 3 != 0
        assert same_bits(crest_position_rows(h, grid), np.array([crest_position(f) for f in fields]))
        assert same_bits(crest_position_rows(h, grid, where),
                         np.array([crest_position(f, where) for f in fields]))

    def test_invariants_cost_a_fixed_number_of_transforms_per_run(self, params, monkeypatch):
        # a run's invariants are one batched pass on their first read, so its
        # transforms do not grow with the number of samples
        calls = []
        for module in (operators, evolution):
            for name in ("rfft", "irfft"):
                def counted(*args, _fn=getattr(module, name), **kwargs):
                    calls.append(1)
                    return _fn(*args, **kwargs)
                monkeypatch.setattr(module, name, counted)
        spec, grid, field = solitary_case(params, N=128, L=60.0)
        config = SchemeConfig(t_end=40.0)

        def transforms(sample_every):
            res = evolve(field, params, config, sample_every=sample_every)
            calls.clear()
            res.invariants
            return len(calls), len(res.times)

        (first, n5), (second, n10) = transforms(5), transforms(10)
        assert n5 > n10 + 5
        assert first == second > 0


class TestLazyDiagnostics:
    @pytest.mark.parametrize("run", [_transit_run, _pair_run], ids=["transit", "pair"])
    def test_unread_diagnostics_are_never_evaluated(self, params, monkeypatch, run):
        def unread(*args, **kwargs):
            raise AssertionError("a diagnostic no caller read was evaluated")

        monkeypatch.setattr(evolution, "invariant_rows", unread)
        monkeypatch.setattr(evolution, "boussinesq_energy_rows", unread)
        initial, run_params, config = run(params)
        res = evolve(initial, run_params, config)
        assert len(res.times) == len(res.snapshots) == 51 and res.steps > 0
        if run is _transit_run:
            assert res.energy is None

    @pytest.mark.parametrize("run", [_transit_run, _pair_run], ids=["transit", "pair"])
    def test_the_result_keeps_its_run_and_its_first_read(self, params, run):
        initial, run_params, config = run(params)
        res = evolve(initial, run_params, config)
        assert res.params is run_params and res.config is config
        assert res.invariants is res.invariants and len(res.invariants) == 51
        if run is _pair_run:
            assert res.energy is res.energy and len(res.energy) == 51


def _growing_band_case(params):
    # a hump whose steepening fills its band: the run grows from 68 to 171 modes
    grid = PeriodicGrid(L=200.0, N=512)
    field = WaveField(grid, 0.15 * np.exp(-(grid.x / 6.0) ** 2))
    return field, params, SchemeConfig(t_end=40.0), None


def _pair_case(params):
    return (*_pair_run(params), None)


def _rk4_case(params):
    field = solitary_case(params, N=128, L=60.0)[2]
    return field, params, SchemeConfig(dt=0.01, t_end=0.5), None


def _every_step_case(params):
    field = solitary_case(params, N=128, L=60.0)[2]
    return field, params, SchemeConfig(t_end=0.2), 1


def _zero_horizon_case(params):
    field = solitary_case(params, N=128, L=60.0)[2]
    return field, params, SchemeConfig(t_end=0.0), None


class TestFormedSamples:
    @pytest.mark.parametrize("case", [_growing_band_case, _pair_case, _rk4_case,
                                      _every_step_case, _zero_horizon_case],
                             ids=["growing_band", "pair", "rk4", "every_step", "zero_horizon"])
    def test_rows_are_each_samples_own_transform(self, params, monkeypatch, case):
        # evolve keeps every sample after the start as its band coefficients
        # and forms them at its end in one zero-padded transform: each row must
        # carry the bits of that sample's own irfft, row 0 the start as given
        initial, run_params, config, sample_every = case(params)
        kept = []
        form = evolution._form_samples

        def recording(y, zs, N):
            kept.append([z.copy() for z in zs])
            return form(y, zs, N)

        monkeypatch.setattr(evolution, "_form_samples", recording)
        res = evolve(initial, run_params, config, sample_every=sample_every)
        (zs,) = kept
        start = initial if isinstance(initial, tuple) else (initial,)
        N = start[0].grid.N
        assert res.samples.shape == (len(res.times), len(start), N) == (1 + len(zs), len(start), N)
        assert same_bits(res.samples[0], np.stack([f.h for f in start]))
        for row, z in zip(res.samples[1:], zs):
            assert same_bits(row, np.fft.irfft(z, N))
        assert not res.samples.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            res.samples[-1, 0, 0] = 0.0
        if case is _growing_band_case:
            assert res.band == (68, 171)
            assert len({z.shape[-1] for z in zs}) > 1  # rows of several widths were padded
        if case is _every_step_case:
            assert len(zs) == res.steps
        if case is _zero_horizon_case:
            assert zs == []

    def test_final_is_built_alone_and_ends_the_snapshots(self, params):
        initial, run_params, config = _pair_run(params)
        res = evolve(initial, run_params, config)
        h, v = res.final
        assert "snapshots" not in vars(res)
        assert same_bits(h.h, res.samples[-1, 0]) and same_bits(v.h, res.samples[-1, 1])
        assert h.t == v.t == res.times[-1]
        assert res.snapshots[-1] is res.final and len(res.snapshots) == len(res.times)
        for (h, v), y, t in zip(res.snapshots, res.samples, res.times):
            assert same_bits(h.h, y[0]) and same_bits(v.h, y[1]) and h.t == v.t == t

    def test_a_non_finite_sample_raises_inside_evolve(self, params, monkeypatch):
        # a sample whose v alone is not finite passes the blow-up check, which
        # reads h, and raises WaveField's error when the samples are formed
        initial, run_params, config = _pair_run(params)
        run = evolution._controlled_run

        def corrupting(*args):
            *head, sample = args

            def record(t, z):
                z = z.copy()
                z[1, 1] = math.inf
                sample(t, z)

            return run(*head, record)

        monkeypatch.setattr(evolution, "_controlled_run", corrupting)
        with pytest.raises(ValueError, match="h contains non-finite entries"):
            evolve(initial, run_params, config)


class TestSchemeConfigValidation:
    def test_errors(self):
        with pytest.raises(ValueError):
            SchemeConfig(deriv="upwind")
        with pytest.raises(ValueError):
            SchemeConfig(dt=-0.1)
        with pytest.raises(ValueError):
            SchemeConfig(filter_cut=1.5)
        with pytest.raises(ValueError):
            SchemeConfig(frame="rotating")
        with pytest.raises(ValueError):
            DeformationSpec(hbar=-1.0, p=0.1)

    @pytest.mark.parametrize("name, wording", [
        ("t_end", "t_end must be non-negative and finite"),
        ("dt", "dt must be positive and finite"),
        ("alpha", "alpha must be finite"),
    ])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_values_rejected(self, name, wording, value):
        # an infinite t_end would step forever; a nan alpha blows up at t = 0
        with pytest.raises(ValueError, match=wording):
            SchemeConfig(**{name: value})

    def test_fixed_frame_takes_no_alpha(self):
        # the fixed frame is alpha = H: an alpha given with it would be ignored
        with pytest.raises(ValueError, match="alpha applies to the moving frame only"):
            SchemeConfig(alpha=0.3)
        assert SchemeConfig(frame="moving", alpha=0.3).alpha == 0.3
        assert SchemeConfig(alpha=0.0).frame == "fixed"

    @pytest.mark.parametrize("hbar, p", [(math.inf, 0.1), (0.1, math.inf), (math.nan, 0.1),
                                         (0.1, math.nan), (0.1, 0.0)])
    def test_deformation_spec_needs_finite_positive_hbar_and_p(self, hbar, p):
        with pytest.raises(ValueError, match="hbar and p must be positive and finite"):
            DeformationSpec(hbar=hbar, p=p)

    @pytest.mark.parametrize("hbar", [math.inf, math.nan, 0.0, -0.1])
    def test_steady_width_needs_finite_positive_hbar(self, params, hbar):
        with pytest.raises(ValueError, match="hbar must be positive and finite"):
            evolution.steady_inverse_width(hbar, params)
