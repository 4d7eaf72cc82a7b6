import math

import numpy as np
import pytest

from longwave import (
    PeriodicGrid,
    SchemeConfig,
    SolitarySpec,
    WaveField,
    boussinesq_rhs,
    factorization_residual,
    solitary_field,
)
from longwave import evolution, operators
from longwave.operators import antiderivative, diff, fourier_shift, lowpass, wavenumbers
from conftest import same_bits, smooth_random_fields


def roll_stencil(h, L, order):
    """The 4th-order centered stencils, written out along the last axis."""
    dx = L / h.shape[-1]

    def s(j):
        return np.roll(h, -j, axis=-1)

    if order == 1:
        return (-s(2) + 8.0 * s(1) - 8.0 * s(-1) + s(-2)) / (12.0 * dx)
    return (-s(2) + 16.0 * s(1) - 30.0 * h + 16.0 * s(-1) - s(-2)) / (12.0 * dx * dx)


class TestKernelPair:
    # every transform of the package goes through operators.rfft and irfft,
    # which call pocketfft's kernels directly; each must return np.fft's bits

    @pytest.mark.parametrize("n", [64, 63, 432, 405])
    @pytest.mark.parametrize("rows", [(), (1,), (2,)])
    def test_pair_is_numpys(self, n, rows):
        rng = np.random.default_rng(n + len(rows))
        x = rng.standard_normal(rows + (n,))
        z = np.fft.rfft(x)
        assert same_bits(operators.rfft(x), z)
        out = np.empty_like(z)
        assert operators.rfft(x, out) is out and same_bits(out, z)
        # whole rows, and bands shorter than n // 2 + 1, as the band square reads them
        for band in (z, z[..., :n // 3], z[..., :9]):
            want = np.fft.irfft(band, n=n)
            assert same_bits(operators.irfft(band, n), want)
            out = np.empty(rows + (n,))
            assert operators.irfft(band, n, out) is out and same_bits(out, want)

    @pytest.mark.parametrize("N", [96, 75])
    @pytest.mark.parametrize("scheme", ["spectral", "centered4"])
    def test_operators_are_their_numpy_forms(self, N, scheme):
        L = 40.0
        rng = np.random.default_rng(N)
        h = rng.standard_normal(N)
        k = wavenumbers(N, L)
        for order in (1, 2):
            symbol = operators.derivative_symbols(N, L, scheme)[order - 1]
            assert same_bits(diff(h, L, order, scheme),
                             np.fft.irfft(symbol * np.fft.rfft(h), n=N))
        assert same_bits(lowpass(h, L, k[N // 5]),
                         np.fft.irfft(np.where(k <= k[N // 5], np.fft.rfft(h), 0.0), n=N))
        assert same_bits(fourier_shift(h, L, 1.7),
                         np.fft.irfft(np.fft.rfft(h) * np.exp(-1j * k * 1.7), n=N))
        g = h - h.mean()
        gh = np.fft.rfft(g)
        want = np.zeros_like(gh)
        want[1:-1] = gh[1:-1] / operators.derivative_symbols(N, L)[0][1:-1]
        assert same_bits(antiderivative(h, L), np.fft.irfft(want, n=N))
        lin, flux = evolution._kdv_symbols(N, L, 9.81, 1.0, 1.0 / 3.0, 0.3, scheme)
        for J in (lin.size, (N + 2) // 3):
            want = np.fft.irfft(lin[:J] * np.fft.rfft(h)[:J] + flux[:J] * np.fft.rfft(h * h)[:J],
                                n=N)
            assert same_bits(evolution._grid_rhs(lin[:J], flux[:J], h), want)

    @pytest.mark.parametrize("scheme", ["spectral", "centered4"])
    def test_factorization_residual_is_its_numpy_form(self, params, scheme):
        field = solitary_field(SolitarySpec(h0=0.02, sigma=params.H ** 3 / 3.0, H=params.H,
                                            g=params.g), PeriodicGrid(L=120.0, N=256))
        grid, h = field.grid, field.h
        lin, flux = evolution._symbols_for(grid, params, SchemeConfig(deriv=scheme))

        def rhs(lin, flux, h):
            J = lin.size
            return np.fft.irfft(lin * np.fft.rfft(h)[:J] + flux * np.fft.rfft(h * h)[:J],
                                n=h.size)

        h_t = rhs(lin, flux, h)
        h_tt = np.fft.irfft(lin * np.fft.rfft(h_t) + 2.0 * flux * np.fft.rfft(h * h_t),
                            n=grid.N)
        pair = evolution._boussinesq_symbols(grid.N, grid.L, params.g, params.H, scheme, None)
        want = float(np.max(np.abs(h_tt - rhs(*pair, h))))
        assert same_bits(np.float64(factorization_residual(field, params, scheme)),
                         np.float64(want))


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

    @pytest.mark.parametrize("L", [1e-320, 1e-306])
    def test_wavenumbers_that_overflow_name_L_and_N(self, L):
        with pytest.raises(ValueError, match=f"L = {L!r} m is too short for N = 256 points: "
                                             "its wavenumbers overflow"):
            wavenumbers(256, L)
        assert np.isfinite(wavenumbers(256, 1e-300)).all()


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
