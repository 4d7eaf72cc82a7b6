import math

import numpy as np
import pytest

from longwave import (
    WATER,
    PeriodicGrid,
    PhysicalParams,
    SchemeConfig,
    SolitarySpec,
    WaveField,
    boussinesq_energy,
    canonical_epsilon,
    compute_invariants,
    conservation_drift,
    critical_depth,
    critical_point_residual,
    dispersion_sigma,
    evolve,
    hamiltonian_flow_rhs,
    hamiltonian_functional,
    kdv_rhs,
    solitary_field,
    solitary_speed,
    variational_derivative,
)
from longwave.invariants import InvariantSet
from longwave.operators import diff, integrate, lowpass
from conftest import smooth_random_fields

SIGMA0 = 1.0 / 3.0


def solitary_case(params, h0=0.1, N=1024, L=120.0):
    spec = SolitarySpec(h0=h0, sigma=SIGMA0, H=params.H, g=params.g)
    grid = PeriodicGrid(L=L, N=N)
    return spec, grid, solitary_field(spec, grid)


class TestComputeInvariants:
    def test_zero_field(self, params):
        grid = PeriodicGrid(L=20.0, N=32)
        inv = compute_invariants(WaveField(grid, np.zeros(32)), params)
        assert inv.Q == inv.E == inv.M == inv.Hfun == 0.0
        assert inv.xg_dot is None

    def test_solitary_closed_forms(self, params):
        # integrals of sech^2 and sech^4: Q = 2 h0/kappa, E = 4 h0^2/(3 kappa)
        spec, grid, field = solitary_case(params, h0=0.1)
        kappa = spec.inv_width
        inv = compute_invariants(field, params)
        assert inv.Q == pytest.approx(2 * spec.h0 / kappa, rel=1e-10)
        assert inv.E == pytest.approx(4 * spec.h0 ** 2 / (3 * kappa), rel=1e-10)
        assert inv.E >= 0

    def test_hamiltonian_identity(self, params):
        # Hfun = E/2 + eps M for any eps; the invariant set takes the canonical one
        grid = PeriodicGrid(L=50.0, N=256)
        for h in smooth_random_fields(grid, 5, 0.1, seed=5):
            field = WaveField(grid, h)
            inv = compute_invariants(field, params)
            for eps in (0.0, -params.H ** 2 / 12.0, 0.37):
                assert hamiltonian_functional(field, params, eps) == pytest.approx(
                    0.5 * inv.E + eps * inv.M, rel=1e-12, abs=1e-15)
            eps = canonical_epsilon(params)
            assert inv.Hfun == pytest.approx(0.5 * inv.E + eps * inv.M, rel=1e-12, abs=1e-15)

    def test_no_moment_at_the_critical_depth(self):
        # sigma = 0 there: the equation has no dispersion and M does not exist
        params = PhysicalParams(H=critical_depth(WATER), T=WATER.T)
        assert dispersion_sigma(params) == 0.0
        grid = PeriodicGrid(L=1.0, N=32)
        field = WaveField(grid, 1e-4 * np.cos(2 * np.pi * grid.x / grid.L))
        with pytest.raises(ValueError, match="sigma = 0"):
            compute_invariants(field, params)

    def test_centroid_velocity_is_wave_speed(self, params):
        spec, grid, field = solitary_case(params)
        inv = compute_invariants(field, params)
        omega = solitary_speed(spec)
        assert inv.xg_dot == pytest.approx(omega, rel=1e-6)

    def test_centroid_consistency_under_evolution(self, params):
        # centroid(t) - centroid(0) tracks xg_dot * t
        spec, grid, field = solitary_case(params, N=512)
        cfg = SchemeConfig(t_end=0.5)
        res = evolve(field, params, cfg, sample_every=10 ** 9)
        L = grid.L

        def centroid(f):
            return integrate(grid.x * f.h, L) / integrate(f.h, L)

        drift = centroid(res.final) - centroid(res.snapshots[0])
        expected = res.invariants[0].xg_dot * 0.5
        assert drift == pytest.approx(expected, rel=1e-4)


class TestVariationalDerivative:
    def test_zero_and_identity(self, params):
        grid = PeriodicGrid(L=50.0, N=128)
        zero = WaveField(grid, np.zeros(128))
        assert np.all(variational_derivative(zero, params, 0.3) == 0.0)
        h = smooth_random_fields(grid, 1, 0.2, seed=8)[0]
        field = WaveField(grid, h)
        # eps = 0 reduces the functional to E/2, whose gradient is h itself
        assert np.array_equal(variational_derivative(field, params, 0.0), h)

    @pytest.mark.parametrize("T", [0.0, 0.0728])
    def test_default_epsilon_is_the_canonical_one(self, T):
        params = PhysicalParams(H=0.05, T=T)
        grid = PeriodicGrid(L=5.0, N=128)
        field = WaveField(grid, smooth_random_fields(grid, 1, 0.01, seed=9)[0])
        eps = canonical_epsilon(params)
        assert hamiltonian_functional(field, params) == hamiltonian_functional(field, params, eps)
        assert np.array_equal(variational_derivative(field, params),
                              variational_derivative(field, params, eps))

    def test_directional_finite_difference(self, params):
        grid = PeriodicGrid(L=50.0, N=256)
        fields = smooth_random_fields(grid, 4, 0.15, seed=21)
        bumps = smooth_random_fields(grid, 4, 0.1, seed=22)
        delta = 1e-6
        eps = canonical_epsilon(params)
        for h, eta in zip(fields, bumps):
            field = WaveField(grid, h)
            lhs = (hamiltonian_functional(WaveField(grid, h + delta * eta), params, eps)
                   - hamiltonian_functional(WaveField(grid, h - delta * eta), params, eps)) / (2 * delta)
            grad = variational_derivative(field, params, eps)
            rhs = integrate(grad * eta, grid.L)
            scale = math.sqrt(integrate(grad * grad, grid.L) * integrate(eta * eta, grid.L))
            assert abs(lhs - rhs) <= 1e-8 * scale


class TestHamiltonianFlow:
    def test_zero(self, params):
        grid = PeriodicGrid(L=50.0, N=128)
        assert np.all(hamiltonian_flow_rhs(WaveField(grid, np.zeros(128)), params, 0.1) == 0.0)

    def test_advection_limit(self, params):
        # eps = 0 degenerates to pure long-wave advection -sqrt(gH) h_x
        grid = PeriodicGrid(L=50.0, N=256)
        h = smooth_random_fields(grid, 1, 0.2, seed=31)[0]
        field = WaveField(grid, h)
        rhs = hamiltonian_flow_rhs(field, params, 0.0)
        expected = -math.sqrt(params.g * params.H) * diff(h, grid.L, 1)
        assert np.allclose(rhs, expected, atol=1e-14)

    @pytest.mark.parametrize("case", ["params", "water", "below_critical_depth"])
    def test_matches_kdv_rhs_at_canonical_epsilon(self, request, case):
        # eps = -sigma/(4H) for any sigma != 0; 4 mm of water has sigma < 0
        params = (PhysicalParams(H=0.004, T=0.0728) if case == "below_critical_depth"
                  else request.getfixturevalue(case))
        H = params.H
        grid = PeriodicGrid(L=50.0 * H, N=256)
        eps = canonical_epsilon(params)
        for h in smooth_random_fields(grid, 5, 0.2 * H, seed=41):
            field = WaveField(grid, h)
            a = hamiltonian_flow_rhs(field, params, eps)
            for cfg in (SchemeConfig(deriv="spectral", frame="fixed"),
                        SchemeConfig(deriv="spectral", frame="moving", alpha=H)):
                b = kdv_rhs(field, params, cfg)
                assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


class TestCriticalPoint:
    @pytest.mark.parametrize("H, T, L", [(1.0, 0.0, 140.0), (0.01, 0.0728, 1.2)])
    def test_solitary_multiplier(self, H, T, L):
        # mask-edge points need the tail wrap below 1e-15 h0 and the sech^2
        # spectrum resolved to the roundoff floor (k_max >= ~24/width), or
        # the division by h ~ 1e-8 h0 amplifies derivative noise
        params = PhysicalParams(g=9.81, H=H, rho=1000.0, T=T)
        sigma = dispersion_sigma(params)
        spec = SolitarySpec(h0=0.3 * H, sigma=sigma, H=H, g=params.g)
        field = solitary_field(spec, PeriodicGrid(L=L, N=512))
        lam, spread = critical_point_residual(field, params)
        assert lam == pytest.approx(-spec.h0 / sigma, rel=1e-6)
        assert spread <= 1e-6

    def test_multiplier_scales_linearly(self, params):
        _, _, f1 = solitary_case(params, h0=0.1, N=1024, L=160.0)
        _, _, f2 = solitary_case(params, h0=0.2, N=1024, L=160.0)
        lam1, _ = critical_point_residual(f1, params)
        lam2, _ = critical_point_residual(f2, params)
        assert lam1 == pytest.approx(-0.3, abs=1e-6)
        assert lam2 == pytest.approx(-0.6, abs=1e-6)
        assert lam2 / lam1 == pytest.approx(2.0, rel=1e-6)

    def test_gaussian_negative_control(self, params):
        spec, grid, _ = solitary_case(params, h0=0.2, N=1024, L=160.0)
        width = 1.0 / spec.inv_width
        h = spec.h0 * np.exp(-(grid.x / width) ** 2)
        _, spread = critical_point_residual(WaveField(grid, h), params)
        assert spread > 0.1

    def test_degenerate(self, params):
        grid = PeriodicGrid(L=10.0, N=32)
        with pytest.raises(ValueError):
            critical_point_residual(WaveField(grid, np.zeros(32)), params)


class TestConservationDrift:
    def test_zero_field_run(self, params):
        grid = PeriodicGrid(L=20.0, N=64)
        res = evolve(WaveField(grid, np.zeros(64)), params, SchemeConfig(t_end=0.1))
        drifts = conservation_drift(res.invariants)
        assert all(v == 0.0 for k, v in drifts.items() if k != "xg_dot")

    def test_underresolved_run_drifts_more(self, params):
        def drift_at(N):
            spec = SolitarySpec(h0=0.1, sigma=SIGMA0, H=params.H, g=params.g)
            grid = PeriodicGrid(L=120.0, N=N)
            res = evolve(solitary_field(spec, grid), params, SchemeConfig(t_end=2.0))
            return conservation_drift(res.invariants)["E"]

        assert drift_at(64) > drift_at(512)

    def test_empty_series(self):
        with pytest.raises(ValueError):
            conservation_drift([])

    def test_below_floor_reports_absolute_drift(self):
        # a zero-mean field: Q starts at exactly 0 and moves by roundoff only
        series = [InvariantSet(Q=q, E=2.0, M=-1.0, Hfun=1.0, xg_dot=None, t=t)
                  for t, q in ((0.0, 0.0), (1.0, 4e-17), (2.0, -1e-17))]
        drifts = conservation_drift(series)
        assert drifts["Q"] == 4e-17
        assert drifts["E"] == drifts["M"] == drifts["Hfun"] == 0.0
        assert "xg_dot" not in drifts

    def test_above_floor_is_relative(self):
        series = [InvariantSet(Q=q, E=1.0, M=1.0, Hfun=1.0, xg_dot=v, t=0.0)
                  for q, v in ((2.0, 4.0), (2.5, 3.0))]
        drifts = conservation_drift(series)
        assert drifts["Q"] == 0.25
        assert drifts["xg_dot"] == 0.25


class TestBoussinesqEnergy:
    def test_conserved_on_filtered_run(self, params):
        grid = PeriodicGrid(L=64.0, N=256)
        rng = np.random.default_rng(9)
        h = 1e-3 * rng.standard_normal(grid.N)
        h = lowpass(h - h.mean(), grid.L, 0.5 * math.sqrt(3.0) / params.H)
        state = (WaveField(grid, h), WaveField(grid, np.zeros(grid.N)))
        cfg = SchemeConfig(dt=2e-3, t_end=2.0)
        res = evolve(state, params, cfg)
        E = res.energy
        assert max(abs(e - E[0]) for e in E) <= 1e-8 * abs(E[0])

    def test_grid_mismatch(self, params):
        a = WaveField(PeriodicGrid(L=10.0, N=16), np.zeros(16))
        b = WaveField(PeriodicGrid(L=10.0, N=32), np.zeros(32))
        with pytest.raises(ValueError):
            boussinesq_energy(a, b, params)
