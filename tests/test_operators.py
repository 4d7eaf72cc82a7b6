import math

import numpy as np
import pytest

from longwave import PeriodicGrid, SchemeConfig, WaveField, boussinesq_rhs
from longwave.operators import diff, wavenumbers
from conftest import smooth_random_fields


def roll_stencil(h, L, order):
    """The 4th-order centered stencils, written out along the last axis."""
    dx = L / h.shape[-1]

    def s(j):
        return np.roll(h, -j, axis=-1)

    if order == 1:
        return (-s(2) + 8.0 * s(1) - 8.0 * s(-1) + s(-2)) / (12.0 * dx)
    return (-s(2) + 16.0 * s(1) - 30.0 * h + 16.0 * s(-1) - s(-2)) / (12.0 * dx * dx)


class TestDiff:
    @pytest.mark.parametrize("N", [64, 1024])
    @pytest.mark.parametrize("order", [1, 2])
    def test_centered4_reproduces_the_stencils(self, N, order):
        L = 50.0
        rng = np.random.default_rng(N + order)
        for h in (rng.standard_normal(N), rng.standard_normal((2, N))):
            got = diff(h, L, order, "centered4")
            ref = roll_stencil(h, L, order)
            assert got.shape == h.shape
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("scheme", ["spectral", "centered4"])
    def test_first_derivative_zeroes_nyquist(self, scheme):
        N = 64
        nyquist = (-1.0) ** np.arange(N)
        assert np.max(np.abs(diff(nyquist, 10.0, 1, scheme))) < 1e-12
        # the second derivative keeps it
        assert np.max(np.abs(diff(nyquist, 10.0, 2, scheme))) > 1.0

    def test_bad_arguments(self):
        h = np.zeros(16)
        for order in (0, 3):
            with pytest.raises(ValueError, match="order"):
                diff(h, 1.0, order)
        with pytest.raises(ValueError, match="scheme"):
            diff(h, 1.0, 1, "upwind")


def two_pass_boussinesq(h, v, params, config, grid):
    """(h_t, h_tt) as d2(w) with w = gH h + 1.5 g h^2 + (g H^3/3) h_xx, then the low-pass."""
    g, H = params.g, params.H
    N, L = grid.N, grid.L
    k = wavenumbers(N, L)
    if config.deriv == "spectral":
        def d2(f):
            return np.fft.irfft(-k * k * np.fft.rfft(f), n=N)
    else:
        def d2(f):
            return roll_stencil(f, L, 2)
    w = g * H * h + 1.5 * g * h * h + (g * H ** 3 / 3.0) * d2(h)
    ht, htt = v, d2(w)
    if config.boussinesq_filter:
        keep = k <= config.filter_cut * math.sqrt(3.0) / H

        def low(f):
            return np.fft.irfft(np.where(keep, np.fft.rfft(f), 0.0), n=N)
        ht, htt = low(ht), low(htt)
    return ht, htt


class TestBoussinesqRhs:
    @pytest.mark.parametrize("deriv", ["spectral", "centered4"])
    @pytest.mark.parametrize("filtered", [True, False])
    def test_matches_the_two_pass_formula(self, params, deriv, filtered):
        grid = PeriodicGrid(L=64.0, N=256)
        # broadband fields, so the filter has something to remove
        h, v = 0.05 * np.random.default_rng(5).standard_normal((2, grid.N))
        h = h + smooth_random_fields(grid, 1, 0.1, seed=6)[0]
        config = SchemeConfig(deriv=deriv, boussinesq_filter=filtered)
        ht, htt = boussinesq_rhs((WaveField(grid, h), WaveField(grid, v)), params, config)
        ref_t, ref_tt = two_pass_boussinesq(h, v, params, config, grid)
        # roundoff scales with the unfiltered h_tt, whose top modes the filter drops
        scale = np.max(np.abs(two_pass_boussinesq(
            h, v, params, SchemeConfig(deriv=deriv, boussinesq_filter=False), grid)[1]))
        assert np.max(np.abs(ht - ref_t)) <= 1e-13 * np.max(np.abs(v))
        assert np.max(np.abs(htt - ref_tt)) <= 1e-13 * scale
        if not filtered:
            assert np.array_equal(ht, v)
