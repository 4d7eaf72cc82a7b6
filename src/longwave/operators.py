"""Spatial differentiation and quadrature on periodic grids.

Derivatives come in two schemes: Fourier collocation ("spectral", the
default) and 4th-order centered differences ("centered4", the
cross-check scheme), both applied through their exact Fourier symbols
in derivative_symbols.  centered4 reaches derivatives and, through
them, the evolution equations, the invariants of a run and the
factorization residual; the antiderivative, the low-pass and the shift
are spectral only.  The rectangle rule is the quadrature; on a torus it
is spectrally accurate for smooth integrands.

Every transform of the package goes through one pair, rfft and irfft
below.  They call pocketfft's own kernels (numpy.fft._pocketfft_umath),
the gufuncs np.fft.rfft and np.fft.irfft call, with the same factors (1
forward, 1/n inverse), so each returns np.fft's bits; they skip np.fft's
per-call wrapper, which at the package's band sizes costs about as much
as the transform, and can write into a caller's buffer.  A caller that
transforms at one length many times, the band stepper of evolution,
binds those two kernels once (_kernel_pair) and skips even these calls.
"""

from __future__ import annotations

import sys
from functools import lru_cache

import numpy as np
from numpy.fft import _pocketfft_umath as _pfu

SCHEMES = ("spectral", "centered4")


def check_scheme(scheme: str) -> None:
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}, expected one of {SCHEMES}")


def _kernel_pair(n: int):
    """(forward, inverse, fct): the kernels rfft and irfft call at n points.

    forward(x, 1.0, out) is rfft(x, out) and inverse(z, fct, out) is
    irfft(z, n, out), bit for bit, out required; a caller that transforms
    at one n many times binds them once and skips rfft's and irfft's calls.
    """
    return _pfu.rfft_n_even if n % 2 == 0 else _pfu.rfft_n_odd, _pfu.irfft, 1.0 / n


def rfft(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """np.fft.rfft(x) over the last axis of float64 samples, bit for bit.

    out, if given, receives the n // 2 + 1 coefficients of each row.
    """
    n = x.shape[-1]
    if out is None:
        out = np.empty(x.shape[:-1] + (n // 2 + 1,), complex)
    return _kernel_pair(n)[0](x, 1.0, out)


def irfft(z: np.ndarray, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """np.fft.irfft(z, n=n) over the last axis of complex128 coefficients, bit for bit.

    z may hold fewer than n // 2 + 1 coefficients per row (the rest are
    zero); out, if given, receives the n samples of each row.
    """
    if out is None:
        out = np.empty(z.shape[:-1] + (n,))
    return _pfu.irfft(z, 1.0 / n, out)


def wavenumbers(N: int, L: float) -> np.ndarray:
    """Non-negative rfft wavenumbers 2*pi*j/L, j = 0..N/2.

    ValueError when L / N is so small that the largest, pi N / L, overflows.
    """
    if not L / N > 4.0 / sys.float_info.max:
        raise ValueError(f"L = {L!r} m is too short for N = {N} points: "
                         "its wavenumbers overflow")
    return 2.0 * np.pi * np.fft.rfftfreq(N, L / N)


@lru_cache(maxsize=16)
def _unit_symbols(N: int, scheme: str) -> tuple[np.ndarray, np.ndarray]:
    """(D1, D2) at unit spacing, per k dx; cached per N, not L (read-only)."""
    check_scheme(scheme)
    kd = 2.0 * np.pi * np.fft.rfftfreq(N)
    if scheme == "spectral":
        d1 = 1j * kd
        d2 = -(kd * kd)
    else:
        d1 = 1j * (8.0 * np.sin(kd) - np.sin(2.0 * kd)) / 6.0
        d2 = -(15.0 - 16.0 * np.cos(kd) + np.cos(2.0 * kd)) / 6.0
    d1[-1] = 0.0
    d1.setflags(write=False)
    d2.setflags(write=False)
    return d1, d2


def derivative_symbols(N: int, L: float,
                       scheme: str = "spectral") -> tuple[np.ndarray, np.ndarray]:
    """Fourier multipliers (D1, D2) of d/dx and d^2/dx^2 on the rfft modes.

    Spectral: ik and -k^2.  centered4: the exact symbols of the
    4th-order centered stencils, i(8 sin k dx - sin 2k dx)/(6 dx) and
    -(15 - 16 cos k dx + cos 2k dx)/(6 dx^2), so that multiplying by
    them reproduces the stencils to roundoff.  The last (Nyquist) entry
    of D1 is zero: that mode has no well-defined odd derivative.
    ValueError when L / N is so small that a symbol overflows.
    """
    d1, d2 = _unit_symbols(N, scheme)
    dx = L / N
    # both symbols stay below 10 at unit spacing, so they are finite while 10 / dx^2 is
    if not dx * dx > 10.0 / sys.float_info.max:
        raise ValueError(f"L = {L!r} m is too short for N = {N} points: "
                         "its derivative symbols overflow")
    return d1 / dx, d2 / (dx * dx)


def diff(h: np.ndarray, L: float, order: int = 1, scheme: str = "spectral") -> np.ndarray:
    """order-th spatial derivative (order 1 or 2) of periodic samples, over the last axis."""
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    N = h.shape[-1]
    symbol = derivative_symbols(N, L, scheme)[order - 1]
    return irfft(symbol * rfft(h), N)


def antiderivative(f: np.ndarray, L: float) -> np.ndarray:
    """Spectral periodic antiderivative of the zero-mean part of f, over its last axis.

    The mean of f is discarded (a nonzero mean has no periodic
    antiderivative); the result has zero mean itself and is defined up to
    the constant the caller anchors.
    """
    N = f.shape[-1]
    g = f - f.mean(axis=-1, keepdims=True)
    d1 = derivative_symbols(N, L)[0]
    gh = rfft(g)
    out = np.zeros_like(gh)
    out[..., 1:-1] = gh[..., 1:-1] / d1[1:-1]
    return irfft(out, N)


def lowpass(h: np.ndarray, L: float, k_cut: float) -> np.ndarray:
    """Sharp spectral low-pass: zero all modes with |k| > k_cut."""
    N = h.shape[-1]
    k = wavenumbers(N, L)
    return irfft(np.where(k <= k_cut, rfft(h), 0.0), N)


def integrate(f: np.ndarray, L: float) -> float:
    """Rectangle-rule integral over one period."""
    return float(f.sum()) * (L / f.shape[-1])


def fourier_shift(h: np.ndarray, L: float, a: float) -> np.ndarray:
    """Evaluate h(x - a) by the spectral shift theorem (band-limited exact)."""
    N = h.shape[-1]
    k = wavenumbers(N, L)
    return irfft(rfft(h) * np.exp(-1j * k * a), N)
