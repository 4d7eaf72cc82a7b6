import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad

from longwave import complete_K, jacobi_cn_sn_dn, sech_sq


def K_quadrature(m: float) -> float:
    """Independent oracle: adaptive quadrature of the defining integral."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, err = quad(lambda t: 1.0 / math.sqrt(1.0 - m * math.sin(t) ** 2),
                        0.0, math.pi / 2, epsabs=1e-14, epsrel=1e-14)
    assert err < 1e-12
    return val


class TestCompleteK:
    def test_m_zero(self):
        assert complete_K(0.0) == pytest.approx(math.pi / 2, rel=1e-15)

    def test_against_quadrature(self):
        assert complete_K(0.5) == pytest.approx(K_quadrature(0.5), rel=1e-13)
        assert complete_K(0.5) == pytest.approx(1.854074677301372, rel=1e-14)
        assert complete_K(0.99) == pytest.approx(K_quadrature(0.99), rel=1e-12)

    def test_within_one_ulp_of_mpmath(self):
        with mp.workdps(40):
            for m in np.arange(1000) / 1000:
                exact = mp.ellipk(m)
                assert abs(mp.mpf(complete_K(m)) - exact) <= math.ulp(float(exact)), m

    def test_domain_errors(self):
        for m in (1.0, 1.5, -0.1):
            with pytest.raises(ValueError):
                complete_K(m)

    def test_strictly_increasing(self):
        ms = np.linspace(0.0, 0.999, 200)
        vals = [complete_K(m) for m in ms]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestJacobi:
    def test_origin(self):
        for m in (0.0, 0.3, 0.999, 1.0):
            cn, sn, dn = jacobi_cn_sn_dn(0.0, m)
            assert (cn, sn, dn) == (1.0, 0.0, 1.0)

    def test_circular_limit(self):
        cn, sn, dn = jacobi_cn_sn_dn(1.2, 0.0)
        assert cn == pytest.approx(math.cos(1.2), abs=1e-15)
        assert sn == pytest.approx(math.sin(1.2), abs=1e-15)
        assert dn == 1.0

    def test_hyperbolic_limit(self):
        cn, sn, dn = jacobi_cn_sn_dn(1.2, 1.0)
        assert cn == pytest.approx(1.0 / math.cosh(1.2), abs=1e-15)
        assert sn == pytest.approx(math.tanh(1.2), abs=1e-15)
        assert dn == pytest.approx(1.0 / math.cosh(1.2), abs=1e-15)

    def test_quarter_period(self):
        m = 0.7
        cn, _, _ = jacobi_cn_sn_dn(complete_K(m), m)
        assert abs(cn) < 1e-12

    def test_against_mpmath(self):
        us = np.linspace(-20.0, 20.0, 23)
        for m in (0.05, 0.3, 0.9, 0.9999, 1.0 - 1e-12):
            cn, sn, dn = jacobi_cn_sn_dn(us, m)
            with mp.workdps(30):
                for j, u in enumerate(us):
                    assert abs(cn[j] - float(mp.ellipfun("cn", u, m=m))) < 1e-12
                    assert abs(sn[j] - float(mp.ellipfun("sn", u, m=m))) < 1e-12
                    assert abs(dn[j] - float(mp.ellipfun("dn", u, m=m))) < 1e-12

    def test_near_the_solitary_limit(self):
        # as m -> 1 the top moduli k_j = c_j/a_j near 1, so the Landen step's
        # inner dn = (1 - k_j sn^2) / D loses relative accuracy where k_j sn^2
        # nears 1; cn must stay accurate all the same
        rng = np.random.default_rng(17)
        us = np.concatenate((np.linspace(-60.0, 60.0, 121), rng.uniform(-60.0, 60.0, 40)))
        for m in (1.0 - 1e-12, 1.0 - 1e-15, 1.0 - 2.0**-52):
            got = jacobi_cn_sn_dn(us, m)
            with mp.workdps(30):
                for name, values in zip(("cn", "sn", "dn"), got):
                    exact = np.array([float(mp.ellipfun(name, u, m=m)) for u in us])
                    assert np.max(np.abs(values - exact)) < 1e-13, (name, m)

    @pytest.mark.parametrize("m", (1e-300, 1e-9, 1e-3, *np.linspace(0.02, 0.99, 12),
                                   1.0 - 1e-7, 1.0 - 1e-10, 1.0 - 2.0**-52))
    def test_dense_mpmath_certificate(self, m):
        # worst error over this grid is 1.07e-13, set by the reduction modulo
        # 4K at |u| near 1e3 (about eps |u|); the bound is three times that
        rng = np.random.default_rng(2718)
        us = np.concatenate(([0.0, -1e3, 1e3], rng.uniform(-1e3, 1e3, 128)))
        got = jacobi_cn_sn_dn(us, m)
        with mp.workdps(34):
            for name, values in zip(("cn", "sn", "dn"), got):
                exact = np.array([float(mp.ellipfun(name, u, m=m)) for u in us])
                assert np.max(np.abs(values - exact)) < 3e-13, (name, m)

    @pytest.mark.parametrize("scale", (1e4, 1e6))
    def test_error_grows_as_eps_u_past_1e3(self, scale):
        # u is reduced modulo 4K in double, so the reduction's rounding, up
        # to about eps |u|, passes into sn, cn and dn (slopes at most 1): the
        # 1e-13 of small |u| does not hold out here, and eps |u| does
        eps = 2.0**-52
        rng = np.random.default_rng(5)
        us = np.concatenate(([-scale, scale], rng.uniform(-scale, scale, 30)))
        worst = 0.0
        for m in (0.02, 0.3, 0.5, 0.9, 0.99, 1.0 - 1e-7):
            got = jacobi_cn_sn_dn(us, m)
            with mp.workdps(40):
                for name, values in zip(("cn", "sn", "dn"), got):
                    exact = np.array([float(mp.ellipfun(name, u, m=m)) for u in us])
                    worst = max(worst, float(np.max(np.abs(values - exact))))
        assert worst <= 1e-13 + eps * scale
        assert worst > 0.1 * eps * scale

    def test_identities_random(self):
        rng = np.random.default_rng(42)
        u = rng.uniform(-30.0, 30.0, size=10_000)
        m_vals = rng.uniform(0.0, 1.0, size=20)
        for m in m_vals:
            cn, sn, dn = jacobi_cn_sn_dn(u[:500], m)
            assert np.max(np.abs(sn * sn + cn * cn - 1.0)) < 1e-11
            assert np.max(np.abs(dn * dn + m * sn * sn - 1.0)) < 1e-11

    def test_parity(self):
        rng = np.random.default_rng(3)
        u = rng.uniform(0.0, 15.0, size=200)
        for m in (0.2, 0.8, 0.99):
            cn_p, sn_p, _ = jacobi_cn_sn_dn(u, m)
            cn_m, sn_m, _ = jacobi_cn_sn_dn(-u, m)
            assert np.allclose(cn_p, cn_m, atol=1e-13)
            assert np.allclose(sn_p, -sn_m, atol=1e-13)

    def test_periodicity(self):
        rng = np.random.default_rng(4)
        u = rng.uniform(-10.0, 10.0, size=100)
        for m in (0.1, 0.6, 0.99):
            per = 4.0 * complete_K(m)
            cn1, _, _ = jacobi_cn_sn_dn(u, m)
            cn2, _, _ = jacobi_cn_sn_dn(u + per, m)
            assert np.max(np.abs(cn1 - cn2)) < 1e-10

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            jacobi_cn_sn_dn(np.inf, 0.5)
        with pytest.raises(ValueError):
            jacobi_cn_sn_dn(0.5, 1.5)

    def test_scalar_vs_array(self):
        cn, sn, dn = jacobi_cn_sn_dn(1.0, 0.5)
        assert isinstance(cn, float)
        cn_a, _, _ = jacobi_cn_sn_dn(np.array([1.0]), 0.5)
        assert cn_a[0] == cn


class TestSechSq:
    def test_values(self):
        assert sech_sq(0.0) == 1.0
        with mp.workdps(30):
            exact = float(1.0 / mp.cosh(2.0) ** 2)
        assert sech_sq(2.0) == pytest.approx(exact, rel=1e-14)
        assert sech_sq(2.0) == pytest.approx(0.0706508, abs=1e-7)

    def test_decay_without_overflow(self):
        with np.errstate(over="raise"):
            assert sech_sq(1e3) == 0.0
            assert sech_sq(-1e3) == 0.0
            assert sech_sq(40.0) > 0.0

    def test_non_finite(self):
        with pytest.raises(ValueError):
            sech_sq(np.nan)

    def test_overflowed_argument_is_the_zero_tail(self):
        # an argument that overflowed to +-inf lies past |u| ~ 745, where sech^2 is 0
        with np.errstate(all="raise"):
            assert sech_sq(np.inf) == 0.0 and sech_sq(-np.inf) == 0.0
            assert np.array_equal(sech_sq(np.array([-np.inf, 0.0, np.inf])), [0.0, 1.0, 0.0])
        with pytest.raises(ValueError, match="not nan"):
            sech_sq(np.array([np.inf, np.nan]))
