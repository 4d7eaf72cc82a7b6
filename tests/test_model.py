import math

import numpy as np
import pytest

from longwave import (
    PeriodicGrid,
    PhysicalParams,
    WaveField,
    critical_depth,
    dispersion_sigma,
)


class TestPhysicalParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            PhysicalParams(g=0.0)
        with pytest.raises(ValueError):
            PhysicalParams(H=-1.0)
        with pytest.raises(ValueError):
            PhysicalParams(rho=0.0)
        with pytest.raises(ValueError):
            PhysicalParams(T=-1e-3)
        PhysicalParams(T=0.0)  # zero tension is allowed

    @pytest.mark.parametrize("name", ["g", "H", "rho", "T"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_values_rejected(self, name, value):
        wording = "non-negative" if name == "T" else "positive"
        with pytest.raises(ValueError, match=f"{name} must be {wording} and finite"):
            PhysicalParams(**{name: value})

    @pytest.mark.parametrize("given", [dict(H=1e300), dict(H=1e103), dict(g=1e300, H=1e10),
                                       dict(T=1e300, H=1e10), dict(rho=1e-200, g=1e-200)])
    def test_derived_values_must_be_finite(self, given):
        # the cube in sigma or sqrt(g H) overflows, or rho g underflows to zero:
        # a ValueError naming H, not an OverflowError or a ZeroDivisionError
        with pytest.raises(ValueError, match=r"H = \S+ m \(with g, rho and T\) must leave"):
            PhysicalParams(**given)

    def test_c0(self):
        p = PhysicalParams(g=9.81, H=5.0)
        assert p.c0 == pytest.approx(math.sqrt(49.05), rel=1e-15)


class TestDispersionSigma:
    def test_zero_tension(self):
        p = PhysicalParams(g=9.81, H=1.0, rho=1000.0, T=0.0)
        assert dispersion_sigma(p) == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_vanishes_at_critical_depth(self, water):
        # the root of H^3/3 = T H/(rho g) is the critical depth itself
        Hc = critical_depth(water)
        p = PhysicalParams(g=water.g, H=Hc, rho=water.rho, T=water.T)
        assert abs(dispersion_sigma(p)) <= 1e-15 * Hc ** 3
        # four-digit rounding of the root still gives a near-zero sigma
        p4 = PhysicalParams(g=9.81, H=0.004718, rho=1000.0, T=0.0728)
        assert abs(dispersion_sigma(p4)) < 1e-11

    def test_half_meter_water(self):
        p = PhysicalParams(g=9.81, H=0.5, rho=1000.0, T=0.0728)
        expected = 0.5 ** 3 / 3.0 - 0.0728 * 0.5 / (1000.0 * 9.81)
        assert dispersion_sigma(p) == pytest.approx(expected, rel=1e-15)
        assert dispersion_sigma(p) == pytest.approx(0.0416630, abs=1e-7)

    def test_sign_and_monotonicity(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            T = rng.uniform(0.01, 0.2)
            rho = rng.uniform(800, 1200)
            g = rng.uniform(9, 10)
            Hc = math.sqrt(3 * T / (rho * g))
            # strictly negative below the critical depth
            for f in (0.1, 0.5, 0.9, 0.99):
                p = PhysicalParams(g=g, H=f * Hc, rho=rho, T=T)
                assert dispersion_sigma(p) < 0
            # strictly increasing above it
            Hs = Hc * np.linspace(1.001, 5.0, 20)
            vals = [dispersion_sigma(PhysicalParams(g=g, H=h, rho=rho, T=T)) for h in Hs]
            assert all(b > a for a, b in zip(vals, vals[1:]))


class TestCriticalDepth:
    def test_zero_tension(self):
        assert critical_depth(PhysicalParams(T=0.0)) == 0.0

    def test_water_is_about_half_a_centimetre(self, water):
        d = critical_depth(water)
        assert d == pytest.approx(math.sqrt(3 * 0.0728 / (1000 * 9.81)), rel=1e-15)
        assert d == pytest.approx(0.00472, abs=5e-6)
        assert abs(d - 0.005) < 5e-4


class TestPeriodicGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            PeriodicGrid(L=10.0, N=7)  # odd
        with pytest.raises(ValueError):
            PeriodicGrid(L=10.0, N=6)  # too small
        with pytest.raises(ValueError):
            PeriodicGrid(L=0.0, N=16)

    @pytest.mark.parametrize("L", [math.inf, math.nan])
    def test_non_finite_length_rejected(self, L):
        with pytest.raises(ValueError, match="L must be positive and finite"):
            PeriodicGrid(L=L, N=16)

    def test_cell_sum_and_symmetry(self):
        g = PeriodicGrid(L=37.5, N=48)
        assert g.dx * g.N == pytest.approx(g.L, rel=1e-12)
        x = g.x
        assert x[0] == pytest.approx(-g.L / 2)
        assert 0.0 in x  # even profiles sample their crest exactly
        # the point set is symmetric under x -> -x modulo L
        wrapped = (-x + g.L / 2) % g.L - g.L / 2
        assert np.allclose(np.sort(wrapped), np.sort(x), atol=1e-12)

    def test_x_read_only(self):
        g = PeriodicGrid(L=10.0, N=16)
        with pytest.raises(ValueError):
            g.x[0] = 99.0


class TestWaveField:
    def test_shape_and_finiteness(self):
        g = PeriodicGrid(L=10.0, N=16)
        with pytest.raises(ValueError):
            WaveField(g, np.zeros(8))
        with pytest.raises(ValueError):
            WaveField(g, np.full(16, np.nan))

    def test_immutable(self):
        g = PeriodicGrid(L=10.0, N=16)
        f = WaveField(g, np.zeros(16))
        with pytest.raises(ValueError):
            f.h[0] = 1.0
