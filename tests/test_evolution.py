import math

import numpy as np
import pytest

from longwave import (
    BlowUpError,
    DeformationSpec,
    PeriodicGrid,
    SchemeConfig,
    SolitarySpec,
    SteepeningVerdict,
    WaveField,
    boussinesq_rhs,
    conservation_drift,
    crest_position,
    deformation_rate_closed_form,
    dispersion_sigma,
    evolve,
    factorization_residual,
    fit_speed,
    front_slope_change,
    kdv_rhs,
    solitary_field,
    solitary_profile,
    solitary_speed,
    stable_dt,
    steepening_verdict,
    step_ifrk4,
    step_rk4,
)
from longwave import evolution
from longwave.operators import diff, fourier_shift, lowpass, wavenumbers
from conftest import smooth_random_fields

SIGMA0 = 1.0 / 3.0


def solitary_case(params, h0=0.1, N=512, L=120.0):
    spec = SolitarySpec(h0=h0, sigma=SIGMA0, H=params.H, g=params.g)
    grid = PeriodicGrid(L=L, N=N)
    return spec, grid, solitary_field(spec, grid)


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
        # error against exact translation falls ~2^5 when dt halves; the
        # coarse grid keeps the error above the roundoff floor
        spec, grid, field = solitary_case(params, N=256)
        omega = solitary_speed(spec)
        cfg = SchemeConfig()

        def err(dt):
            stepped = step_rk4(field, params, cfg, dt=dt)
            exact = fourier_shift(field.h, grid.L, omega * dt)
            return np.max(np.abs(stepped.h - exact))

        r1, r2 = err(8e-3), err(4e-3)
        assert 16.0 <= r1 / r2 <= 64.0

    def test_global_dt_order(self, params):
        # fixed horizon: halving dt cuts the time error ~16x (factor 2)
        spec, grid, field = solitary_case(params, N=256, L=120.0)
        omega = solitary_speed(spec)
        t_end = 0.4

        def err(dt):
            cfg = SchemeConfig(dt=dt, t_end=t_end)
            res = evolve(field, params, cfg, record_invariants=False,
                         sample_every=10 ** 9)
            exact = fourier_shift(field.h, grid.L, omega * t_end)
            return np.max(np.abs(res.final.h - exact))

        r1, r2 = err(4e-3), err(2e-3)
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
                   SchemeConfig(dt=1e-4, t_end=2.0, boussinesq_filter=False),
                   record_invariants=False)
        e = exc.value
        assert 0 < e.step < 20000
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
    """Full-grid RK4 over the boussinesq_rhs closure, checked every step."""
    rhs = evolution._boussinesq_fn_for(state[0].grid, params, config)
    ys = [np.stack([state[0].h, state[1].h])]
    for i in range(nsteps):
        ys.append(evolution._rk4(ys[-1], rhs, dt))
        evolution._check_alive(ys[-1][0], params.H, (i + 1) * dt, i + 1)
    return ys


class TestBoussinesqBand:
    @pytest.mark.parametrize("scheme", ["spectral", "centered4"])
    @pytest.mark.parametrize("part", ["a", "b", "c"])
    def test_band_step_matches_the_full_grid_step(self, params, part, scheme):
        state, dt, cut = criterion_10_state(params, part)
        config = SchemeConfig(deriv=scheme, dt=dt, t_end=200 * dt, filter_cut=cut)
        res = evolve(state, params, config, record_invariants=False, sample_every=1)
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
                     record_invariants=False, sample_every=10)
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
            evolve(state, params, SchemeConfig(dt=dt, t_end=1000 * dt, filter_cut=cut),
                   record_invariants=False)
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
            evolve(state, params, config, record_invariants=False)
        assert exc.value.step == ref.value.step > 1
        assert exc.value.max_abs_h == pytest.approx(ref.value.max_abs_h, rel=1e-6)

    @pytest.mark.parametrize("filtered", [True, False])
    def test_non_finite_state_raises(self, params, filtered):
        # a step of 1e300 s overflows the stages, and the state turns to NaN
        state, _, cut = criterion_10_state(params, "a")
        config = SchemeConfig(dt=1e300, t_end=1e301, filter_cut=cut, boussinesq_filter=filtered)
        big = (WaveField(state[0].grid, 1e6 * state[0].h), state[1])
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(BlowUpError) as exc:
            evolve(big, params, config, record_invariants=False)
        assert exc.value.step == 1 and math.isnan(exc.value.max_abs_h)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(BlowUpError) as exc:
            step_rk4(big, params, config)
        assert math.isnan(exc.value.max_abs_h)

    def test_public_steps_repeat_the_evolve_run(self, params):
        spec = SolitarySpec(0.1, SIGMA0, params.H, params.g)
        grid, cut = PeriodicGrid(L=120.0, N=256), 0.75
        h = solitary_profile(spec, grid.x) + 1e-4 * np.cos(2 * math.pi * 60 / grid.L * grid.x)
        state = (WaveField(grid, h), WaveField(grid, -solitary_speed(spec) * diff(h, grid.L, 1)))
        config = SchemeConfig(dt=0.01, t_end=0.5, filter_cut=cut)
        res = evolve(state, params, config, record_invariants=False)
        assert res.steps == 50
        f = state
        for _ in range(res.steps):
            f = step_rk4(f, params, config, dt=res.dt)
        assert f[0].t == pytest.approx(res.final[0].t)
        assert np.max(np.abs(f[0].h - res.final[0].h)) <= 1e-13
        assert np.max(np.abs(f[1].h - res.final[1].h)) <= 1e-13


def kdv_linear_symbol(params, grid, scheme):
    """Fixed-frame linear symbol written out from the stencils (or ik)."""
    k = wavenumbers(grid.N, grid.L)
    if scheme == "spectral":
        d1, d2 = 1j * k, -k * k
    else:
        kd = k * grid.dx
        d1 = 1j * (8 * np.sin(kd) - np.sin(2 * kd)) / (6 * grid.dx)
        d2 = -(15 - 16 * np.cos(kd) + np.cos(2 * kd)) / (6 * grid.dx ** 2)
    d1[-1] = 0.0
    c = 1.5 * math.sqrt(params.g / params.H)
    return -c * d1 * ((2.0 / 3.0) * params.H + (params.H ** 3 / 9.0) * d2)


class TestStableDt:
    def test_centered4_advisory_reads_its_own_symbol(self, params):
        grid = PeriodicGrid(L=120.0, N=512)
        lam = np.max(np.abs(kdv_linear_symbol(params, grid, "centered4")))
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


class TestIfrk4:
    def test_linear_mode_propagated_exactly(self, params):
        # at 1e-9 m the nonlinearity moves the mode's own coefficient by
        # ~1e-18 relative; one step 100x past the RK4 limit must rotate
        # that coefficient by exactly exp(L dt)
        grid = PeriodicGrid(L=50.0, N=256)
        j = 20
        h = 1e-9 * np.cos(2 * math.pi * j * grid.x / grid.L)
        rk4_limit = stable_dt(grid, params) / 0.4
        dt = 100 * rk4_limit
        out = step_ifrk4(WaveField(grid, h), params, SchemeConfig(), dt)
        lin = kdv_linear_symbol(params, grid, "spectral")
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

    def test_centered4_auto_step_agrees_with_rk4(self, params):
        spec, grid, field = solitary_case(params, h0=0.2, N=256, L=60.0)
        auto = evolve(field, params, SchemeConfig(deriv="centered4", t_end=1.0),
                      record_invariants=False)
        dt = stable_dt(grid, params, SchemeConfig(deriv="centered4"))
        rk4 = evolve(field, params, SchemeConfig(deriv="centered4", t_end=1.0, dt=dt),
                     record_invariants=False)
        assert (auto.integrator, rk4.integrator) == ("ifrk4", "rk4")
        assert auto.steps < rk4.steps
        assert np.max(np.abs(auto.final.h - rk4.final.h)) <= 1e-8 * spec.h0

    def test_blowup_raised_in_the_crossing_step(self, params, monkeypatch):
        # a step 50x the nonlinear limit (phase limit lifted) diverges; the
        # check runs on every step, so the error comes one step after the
        # last sample, which every step takes here
        monkeypatch.setattr(evolution, "IF_SAFETY", 5.0)
        monkeypatch.setattr(evolution, "IF_PHASE_LIMIT", math.inf)
        spec, grid, field = solitary_case(params, h0=0.2, N=128, L=60.0)
        seen = []
        with pytest.raises(BlowUpError) as exc:
            evolve(field, params, SchemeConfig(t_end=50.0), record_invariants=False,
                   observers=[lambda t, s: seen.append((t, np.max(np.abs(s.h))))],
                   sample_every=1)
        times = [t for t, _ in seen]
        assert len(times) >= 3
        assert all(m <= 10 * params.H for _, m in seen)
        assert exc.value.time == pytest.approx(times[-1] + (times[1] - times[0]))

    @pytest.mark.parametrize("h0_tall", [0.42, 0.46])
    def test_phase_limit_keeps_collisions_clean(self, params, h0_tall):
        # under the nonlinear limit alone these overtakings take steps that
        # turn the fastest modes past a full cycle, and grid-scale noise
        # grows to 3e-7..3e-6 m (criterion 07's 0.5 m case blows up)
        grid = PeriodicGrid(L=80.0, N=256)
        specA = SolitarySpec(h0_tall, SIGMA0, params.H, params.g)
        specB = SolitarySpec(0.2, SIGMA0, params.H, params.g)
        h = solitary_profile(specA, grid.x + 22.0) + solitary_profile(specB, grid.x + 4.0)
        res = evolve(WaveField(grid, h), params,
                     SchemeConfig(frame="moving", t_end=60.0), record_invariants=False)
        tail = np.abs(np.fft.rfft(res.final.h))[-grid.N // 16:].max() / grid.N
        assert res.integrator == "ifrk4" and tail < 1e-8

    def test_run_records_how_it_stepped(self, params):
        spec, grid, field = solitary_case(params, N=128, L=60.0)
        auto = evolve(field, params, SchemeConfig(t_end=1.0), record_invariants=False)
        assert auto.integrator == "ifrk4"
        assert auto.steps * auto.dt == pytest.approx(1.0)
        fixed = evolve(field, params, SchemeConfig(t_end=1.0, dt=0.01),
                       record_invariants=False)
        assert (fixed.integrator, fixed.steps, fixed.dt) == ("rk4", 100, pytest.approx(0.01))
        zero = evolve(WaveField(grid, np.zeros(grid.N)), params, SchemeConfig(t_end=1.0))
        assert (zero.integrator, zero.steps) == ("ifrk4", 1)

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
        res = evolve(field, params, SchemeConfig(t_end=1.0), record_invariants=False)
        assert res.integrator == "ifrk4"
        assert np.array_equal(res.snapshots[0].h, field.h)
        above = np.abs(np.fft.rfft(res.final.h))[(grid.N + 2) // 3:] / grid.N
        assert above.max() <= 1e-15 * np.max(np.abs(res.final.h))

    @pytest.mark.parametrize("scheme", ["spectral", "centered4"])
    def test_phase_cap_is_measured_over_the_band(self, params, scheme):
        # a transit at N = 512: the cap, not the nonlinear limit, sets the step
        spec, grid, field = solitary_case(params, N=512, L=120.0)
        band = 3 * np.arange(grid.N // 2 + 1) < grid.N
        lin = kdv_linear_symbol(params, grid, scheme)[band]
        cap = evolution.IF_PHASE_LIMIT / np.max(np.abs(lin))
        kd = wavenumbers(grid.N, grid.L)[band] * grid.dx
        if scheme == "spectral":
            k_max = kd.max() / grid.dx
        else:
            k_max = np.max(np.abs(8 * np.sin(kd) - np.sin(2 * kd))) / (6 * grid.dx)
        nonlinear = (evolution.IF_SAFETY * 2 * math.sqrt(2)
                     / (1.5 * math.sqrt(params.g / params.H) * k_max * spec.h0))
        assert cap < nonlinear
        t_end = 3.0
        res = evolve(field, params, SchemeConfig(deriv=scheme, t_end=t_end),
                     record_invariants=False)
        n = math.ceil(t_end / cap)
        assert res.steps == n
        assert res.dt == pytest.approx(t_end / n, rel=1e-12)

    def test_public_steps_repeat_the_evolve_run(self, params):
        grid = PeriodicGrid(L=60.0, N=256)
        field = self._with_high_modes(params, grid)
        res = evolve(field, params, SchemeConfig(t_end=0.5), record_invariants=False)
        f = field
        for _ in range(res.steps):
            f = step_ifrk4(f, params, SchemeConfig(), res.dt)
        assert f.t == pytest.approx(res.final.t)
        assert np.max(np.abs(f.h - res.final.h)) <= 1e-13
        above = np.abs(np.fft.rfft(f.h))[(grid.N + 2) // 3:] / grid.N
        assert above.max() <= 1e-15 * np.max(np.abs(f.h))


class TestEvolve:
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
                       record_invariants=False, sample_every=10 ** 9)
        moving = evolve(field, params,
                        SchemeConfig(dt=dt, t_end=t_end, frame="moving", alpha=alpha),
                        record_invariants=False, sample_every=10 ** 9)
        mapped = fourier_shift(moving.final.h, grid.L, c_frame * t_end)
        assert np.max(np.abs(fixed.final.h - mapped)) <= 1e-8 * spec.h0

    def test_rk4_transit_meets_criteria_04_08(self, params):
        # the auto-step reference transit runs IFRK4; this lap keeps the
        # explicit-dt RK4 path under the same conservation and speed gates
        spec, grid, field = solitary_case(params, N=512, L=120.0)
        omega = solitary_speed(spec)
        dt = stable_dt(grid, params)
        res = evolve(field, params, SchemeConfig(dt=dt, t_end=grid.L / omega))
        assert res.integrator == "rk4"
        d = conservation_drift(res.invariants)
        assert d["Q"] <= 1e-12
        assert max(d["E"], d["M"], d["Hfun"]) <= 1e-6
        speed = fit_speed(res.times, [crest_position(s) for s in res.snapshots], grid.L)
        assert abs(speed - omega) / omega <= 0.01

    def test_observers_and_sampling(self, params):
        spec, grid, field = solitary_case(params, N=128, L=60.0)
        seen = []
        res = evolve(field, params, SchemeConfig(t_end=0.2),
                     observers=[lambda t, s: seen.append(t)], sample_every=5)
        assert seen == res.times
        assert res.times[0] == 0.0 and res.times[-1] == pytest.approx(0.2)

    def test_dt_advisory_warning(self, params, caplog):
        spec, grid, field = solitary_case(params, N=128, L=60.0)
        advisory = stable_dt(grid, params, SchemeConfig(), "kdv")
        with caplog.at_level("WARNING", logger="longwave.evolution"):
            try:
                evolve(field, params, SchemeConfig(dt=3 * advisory, t_end=6 * advisory),
                       record_invariants=False)
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

    def test_left_moving_control_is_large(self, params):
        spec, grid, field = solitary_case(params, h0=0.1, N=512)
        left = math.sqrt(params.g * params.H) * diff(field.h, grid.L, 1)
        r = factorization_residual(field, params, h_t=left)
        norm = params.g * params.H * 1.5 * spec.h0 ** 2 / params.H ** 3
        assert r / norm > 1e-3


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
