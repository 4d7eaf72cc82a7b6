import math

import numpy as np
import pytest
from scipy.optimize import brentq

from longwave import (
    CnoidalSpec,
    PeriodicGrid,
    SolitarySpec,
    boussinesq_periodic_speed,
    cnoidal_alpha,
    cnoidal_field,
    cnoidal_ode_residual,
    cnoidal_profile,
    cnoidal_wavelength,
    complete_K,
    grid_for_cnoidal,
    rayleigh_speed,
    sech_sq,
    solitary_field,
    solitary_profile,
    solitary_speed,
    steady_ode_residual_solitary,
)

SIGMA0 = 1.0 / 3.0  # depth 1 m, no surface tension


def spec01(h0=0.2):
    return SolitarySpec(h0=h0, sigma=SIGMA0, H=1.0, g=9.81)


class TestSolitarySpec:
    def test_sign_invariant(self):
        with pytest.raises(ValueError):
            SolitarySpec(h0=0.1, sigma=-0.1, H=1.0)
        with pytest.raises(ValueError):
            SolitarySpec(h0=-0.1, sigma=0.1, H=1.0)
        with pytest.raises(ValueError):
            SolitarySpec(h0=0.0, sigma=0.1, H=1.0)
        SolitarySpec(h0=-0.001, sigma=-1e-9, H=0.003)  # depression wave

    @pytest.mark.parametrize("H, g", [(0.0, 9.81), (-1.0, 9.81), (1.0, 0.0), (1.0, math.nan)])
    def test_depth_and_gravity_must_be_positive(self, H, g):
        with pytest.raises(ValueError, match="H and g must be positive"):
            SolitarySpec(h0=0.1, sigma=SIGMA0, H=H, g=g)


class TestSolitaryProfile:
    def test_crest(self):
        assert solitary_profile(spec01(), 0.0) == pytest.approx(0.2, rel=1e-15)

    def test_half_height_abscissa(self):
        spec = spec01()
        # independent oracle: root-find the half-height point on the profile
        x_half = brentq(lambda x: solitary_profile(spec, x) - 0.1, 0.0, 10.0,
                        xtol=1e-14)
        expected = math.sqrt(4 * SIGMA0 / 0.2) * math.log(1.0 + math.sqrt(2.0))
        assert x_half == pytest.approx(expected, rel=1e-12)
        assert solitary_profile(spec, expected) == pytest.approx(0.1, rel=1e-12)

    def test_far_tail(self):
        spec = spec01()
        width = math.sqrt(4 * SIGMA0 / spec.h0)
        assert solitary_profile(spec, 40.0 * width) < 1e-30

    def test_even(self):
        spec = spec01()
        x = np.linspace(0.0, 12.0, 100)
        assert np.array_equal(solitary_profile(spec, x), solitary_profile(spec, -x))


class TestSpeeds:
    def test_lagrange_limit(self):
        # zero-amplitude limit reduces to sqrt(g H)
        s = SolitarySpec(h0=1e-300, sigma=5 ** 3 / 3, H=5.0, g=9.81)
        assert solitary_speed(s) == pytest.approx(math.sqrt(49.05), rel=1e-12)
        assert math.sqrt(49.05) == pytest.approx(7.00357, abs=1e-5)

    def test_amplitude_correction(self):
        s = SolitarySpec(h0=0.5, sigma=5 ** 3 / 3, H=5.0, g=9.81)
        expected = math.sqrt(49.05) + 0.25 * math.sqrt(9.81 / 5.0)
        assert solitary_speed(s) == pytest.approx(expected, rel=1e-15)
        assert solitary_speed(s) == pytest.approx(7.35375, abs=1e-5)

    def test_linear_in_h0(self):
        c0 = math.sqrt(9.81 * 5.0)
        slope = 0.5 * math.sqrt(9.81 / 5.0)
        for h0 in (0.1, 0.2, 0.4):
            s = SolitarySpec(h0=h0, sigma=5 ** 3 / 3, H=5.0, g=9.81)
            assert solitary_speed(s) - c0 == pytest.approx(slope * h0, rel=1e-12)

    def test_taller_is_faster(self):
        speeds = [solitary_speed(spec01(h0)) for h0 in np.linspace(0.01, 0.5, 20)]
        assert all(b > a for a, b in zip(speeds, speeds[1:]))

    def test_rayleigh(self):
        assert rayleigh_speed(9.81, 5.0, 0.0) == pytest.approx(math.sqrt(49.05), rel=1e-15)
        assert rayleigh_speed(9.81, 5.0, 0.5) == pytest.approx(math.sqrt(9.81 * 5.5), rel=1e-15)
        with pytest.raises(ValueError):
            rayleigh_speed(9.81, 1.0, -1.0)

    def test_rayleigh_vs_corrected_is_second_order(self):
        # halving h0 should quarter the gap (Taylor remainder), factor 1.5
        g, H = 9.81, 5.0

        def gap(h0):
            s = SolitarySpec(h0=h0, sigma=H ** 3 / 3, H=H, g=g)
            return abs(rayleigh_speed(g, H, h0) - solitary_speed(s))

        for h0 in (0.4, 0.2, 0.1):
            ratio = gap(h0 / 2) / gap(h0)
            assert 0.25 / 1.5 <= ratio <= 0.25 * 1.5


class TestSolitaryOde:
    def test_crest_exact_zero(self):
        assert steady_ode_residual_solitary(spec01(), 0.0) == 0.0

    def test_dense_sampling(self):
        spec = spec01()
        x = np.linspace(-15.0, 15.0, 500)
        assert np.max(np.abs(steady_ode_residual_solitary(spec, x))) <= 1e-12

    def test_depression_wave(self):
        spec = SolitarySpec(h0=-0.0005, sigma=-1e-8, H=0.003, g=9.81)
        x = np.linspace(-0.05, 0.05, 200)
        assert np.max(np.abs(steady_ode_residual_solitary(spec, x))) <= 1e-12

    def test_tail(self):
        spec = spec01()
        width = math.sqrt(4 * SIGMA0 / spec.h0)
        for x in (45.0 * width, 80.0 * width):
            assert abs(steady_ode_residual_solitary(spec, x)) <= 1e-12


class TestCriticalPointCertificate:
    def test_multiplier_is_constant(self):
        # (-2 h'' - 9 h^2/H^3)/(2h) is constant -3 h0/H^3 on the profile,
        # with the second derivative taken analytically
        spec = spec01(h0=0.2)
        q = spec.inv_width
        x = np.linspace(-12.0, 12.0, 400)
        h = solitary_profile(spec, x)
        keep = np.abs(h) > 1e-8 * spec.h0
        hxx = 3.0 * h / (2.0 * spec.H ** 3) * (2.0 * spec.h0 - 3.0 * h)
        r = (-2.0 * hxx[keep] - 9.0 * h[keep] ** 2 / spec.H ** 3) / (2.0 * h[keep])
        lam = -3.0 * spec.h0 / spec.H ** 3
        assert np.max(np.abs(r - lam)) <= 1e-10 * abs(lam)
        assert q == pytest.approx(math.sqrt(3 * spec.h0 / 4) / spec.H ** 1.5, rel=1e-12)


class TestCnoidalSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            CnoidalSpec(k=0.0, l=0.1, sigma=SIGMA0, H=1.0)
        with pytest.raises(ValueError):
            CnoidalSpec(k=0.1, l=0.1, sigma=-1.0, H=1.0)

    @pytest.mark.parametrize("H, g", [(0.0, 9.81), (-1.0, 9.81), (1.0, 0.0), (1.0, math.nan)])
    def test_depth_and_gravity_must_be_positive(self, H, g):
        with pytest.raises(ValueError, match="H and g must be positive"):
            CnoidalSpec(k=0.05, l=0.15, sigma=SIGMA0, H=H, g=g)

    def test_parameter(self):
        spec = CnoidalSpec(k=0.05, l=0.15, sigma=SIGMA0, H=1.0)
        assert spec.m == pytest.approx(0.75, rel=1e-15)
        assert cnoidal_alpha(spec) == pytest.approx(-0.05, rel=1e-15)


class TestCnoidalProfile:
    def test_crest(self):
        spec = CnoidalSpec(k=0.1, l=0.1, sigma=SIGMA0, H=1.0)
        assert cnoidal_profile(spec, 0.0) == pytest.approx(0.1, rel=1e-14)

    def test_trough_at_half_wavelength_shift(self):
        spec = CnoidalSpec(k=0.1, l=0.1, sigma=SIGMA0, H=1.0)
        xi = complete_K(spec.m) * math.sqrt(4 * SIGMA0 / (spec.l + spec.k))
        assert abs(cnoidal_profile(spec, xi)) < 1e-10

    def test_solitary_limit(self):
        l = 0.2
        spec = CnoidalSpec(k=1e-12 * l, l=l, sigma=SIGMA0, H=1.0)
        sol = SolitarySpec(h0=l, sigma=SIGMA0, H=1.0)
        xi = np.linspace(-20.0, 20.0, 300)
        assert np.max(np.abs(cnoidal_profile(spec, xi) - solitary_profile(sol, xi))) < 1e-8

    def test_sinusoidal_limit(self):
        kl = 0.2
        m = 1e-9
        spec = CnoidalSpec(k=(1 - m) * kl, l=m * kl, sigma=SIGMA0, H=1.0)
        xi = np.linspace(-5.0, 5.0, 200)
        cosine = spec.l * np.cos(spec.beta * xi) ** 2
        assert np.max(np.abs(cnoidal_profile(spec, xi) - cosine)) < 1e-8 * spec.l

    def test_even_and_periodic(self):
        spec = CnoidalSpec(k=0.06, l=0.14, sigma=SIGMA0, H=1.0)
        lam = cnoidal_wavelength(spec)
        xi = np.linspace(0.0, lam, 97)
        h = cnoidal_profile(spec, xi)
        assert np.allclose(h, cnoidal_profile(spec, -xi), atol=1e-13)
        assert np.max(np.abs(h - cnoidal_profile(spec, xi + lam))) < 1e-10

    def test_range(self):
        spec = CnoidalSpec(k=0.06, l=0.14, sigma=SIGMA0, H=1.0)
        h = cnoidal_profile(spec, np.linspace(-30, 30, 1000))
        assert np.all(h >= -1e-14) and np.all(h <= spec.l + 1e-14)


class TestCnoidalWavelength:
    def test_small_l_limit(self):
        k = 0.1
        spec = CnoidalSpec(k=k, l=1e-12, sigma=SIGMA0, H=1.0)
        assert cnoidal_wavelength(spec) == pytest.approx(
            2 * math.pi * math.sqrt(SIGMA0 / k), rel=1e-9)

    def test_symmetric_roots_value(self):
        spec = CnoidalSpec(k=0.1, l=0.1, sigma=SIGMA0, H=1.0)
        expected = 4 * complete_K(0.5) * math.sqrt(SIGMA0 / 0.2)
        assert cnoidal_wavelength(spec) == pytest.approx(expected, rel=1e-14)
        assert cnoidal_wavelength(spec) == pytest.approx(9.5744, abs=1e-4)

    def test_decreasing_in_k(self):
        lams = [cnoidal_wavelength(CnoidalSpec(k=k, l=0.1, sigma=SIGMA0, H=1.0))
                for k in np.linspace(0.02, 0.5, 15)]
        assert all(b < a for a, b in zip(lams, lams[1:]))


class TestCnoidalOde:
    def test_crest_exact_zero(self):
        spec = CnoidalSpec(k=0.1, l=0.1, sigma=SIGMA0, H=1.0)
        assert cnoidal_ode_residual(spec, 0.0) == 0.0

    def test_random_phases(self):
        rng = np.random.default_rng(11)
        spec = CnoidalSpec(k=0.1, l=0.1, sigma=SIGMA0, H=1.0)
        lam = cnoidal_wavelength(spec)
        xi = rng.uniform(0.0, lam, size=100)
        assert np.max(np.abs(cnoidal_ode_residual(spec, xi))) <= 1e-10

    def test_cosine_limit_formula(self):
        # at tiny m the explicit cosine profile satisfies the same ODE to O(m^3)
        kl = 0.2
        m = 1e-6
        spec = CnoidalSpec(k=(1 - m) * kl, l=m * kl, sigma=SIGMA0, H=1.0)
        xi = np.linspace(0.0, cnoidal_wavelength(spec), 50)
        h = spec.l * np.cos(spec.beta * xi) ** 2
        dh = -spec.l * spec.beta * np.sin(2 * spec.beta * xi)
        resid = dh ** 2 - (h + spec.k) * h * (spec.l - h) / spec.sigma
        resid /= (spec.l + spec.k) ** 3 / spec.sigma
        assert np.max(np.abs(resid)) <= 1e-8


class TestPeriodicSpeed:
    def test_symmetric_roots(self):
        spec = CnoidalSpec(k=0.1, l=0.1, sigma=SIGMA0, H=1.0)
        assert boussinesq_periodic_speed(spec) == pytest.approx(math.sqrt(9.81), rel=1e-15)

    def test_value(self):
        spec = CnoidalSpec(k=0.02, l=0.12, sigma=SIGMA0, H=1.0)
        assert boussinesq_periodic_speed(spec) == pytest.approx(math.sqrt(9.81 * 1.1), rel=1e-15)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            boussinesq_periodic_speed(CnoidalSpec(k=1.5, l=0.1, sigma=SIGMA0, H=1.0))

    def test_frame_speed_agreement_second_order(self):
        # gap to sqrt(gH) + (1/2) sqrt(g/H)(l-k) shrinks 4x when l-k halves
        g, H = 9.81, 1.0

        def gap(d):
            spec = CnoidalSpec(k=0.05, l=0.05 + d, sigma=SIGMA0, H=H, g=g)
            frame = math.sqrt(g * H) + 0.5 * math.sqrt(g / H) * d
            return abs(boussinesq_periodic_speed(spec) - frame)

        for d in (0.2, 0.1, 0.05):
            ratio = gap(d / 2) / gap(d)
            assert 0.25 / 1.5 <= ratio <= 0.25 * 1.5


class TestFieldConstructors:
    def test_solitary_field_center(self):
        spec = spec01()
        grid = PeriodicGrid(L=60.0, N=128)
        f = solitary_field(spec, grid, center=5.0)
        # the periodic wave: points more than L/2 behind the crest take the tail ahead of it
        d = np.where(grid.x < -25.0, grid.x + 55.0, grid.x - 5.0)
        assert np.array_equal(f.h, solitary_profile(spec, d))
        assert abs(grid.x[np.argmax(f.h)] - 5.0) <= grid.dx

    def test_cnoidal_field_needs_commensurate_grid(self):
        spec = CnoidalSpec(k=0.1, l=0.1, sigma=SIGMA0, H=1.0)
        with pytest.raises(ValueError):
            cnoidal_field(spec, PeriodicGrid(L=10.0, N=64))
        grid = grid_for_cnoidal(spec, 2, 64)
        f = cnoidal_field(spec, grid)
        assert grid.L == pytest.approx(2 * cnoidal_wavelength(spec), rel=1e-14)
        assert f.h.max() == pytest.approx(spec.l, rel=1e-10)

    def test_cnoidal_field_zero_mean(self):
        spec = CnoidalSpec(k=0.1, l=0.1, sigma=SIGMA0, H=1.0)
        grid = grid_for_cnoidal(spec, 1, 128)
        f = cnoidal_field(spec, grid, zero_mean=True)
        assert abs(f.h.mean()) < 1e-15

    def test_cnoidal_field_phase(self):
        spec = CnoidalSpec(k=0.1, l=0.1, sigma=SIGMA0, H=1.0)
        grid = grid_for_cnoidal(spec, 1, 128)
        f = cnoidal_field(spec, grid, phase=1.5)
        j = np.argmax(f.h)
        assert abs(grid.x[j] - 1.5) <= grid.dx

    def test_cnoidal_field_phase_is_taken_modulo_the_wavelength(self):
        spec = CnoidalSpec(k=0.1, l=0.1, sigma=SIGMA0, H=1.0)
        grid = grid_for_cnoidal(spec, 1, 128)
        lam = cnoidal_wavelength(spec)
        near = cnoidal_field(spec, grid, phase=1.5).h
        assert np.allclose(cnoidal_field(spec, grid, phase=1.5 + 3 * lam).h, near, atol=1e-12)
        # an unreduced phase this large samples a flat profile
        far = cnoidal_field(spec, grid, phase=1e300).h
        assert far.max() - far.min() > 0.9 * spec.l
