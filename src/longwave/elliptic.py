"""Complete elliptic integral of the first kind and Jacobi elliptic functions.

Convention: the second argument is always the PARAMETER m = kappa^2, the
square of the modulus.  This is the convention of DLMF chapter 22 with
cn(u|m), and it is the value that the cnoidal steady-wave ODE fixes to
l/(l+k) (see the waves module).

K(m), sn, cn and dn share one arithmetic-geometric mean.  Only that
scalar AGM runs in extended precision (_agm): K(m) = pi/(2 a_n) is within
1 ulp of the exact value.  sn, cn and dn come from the descending Landen
transformation in its algebraic form (DLMF 22.7.1-22.7.3) on float64
arrays: one sine and one cosine at the bottom of the AGM, then only
arithmetic at each level on the way up, with dn returned as
sqrt((1 - m) + m cn^2).  The result does not depend on what the
platform's longdouble is.

Accuracy.  The argument is reduced modulo the real period 4K in double,
and sn, cn and dn have slopes of at most 1 in u, so the reduction's
rounding passes straight into the result: the absolute error is about
1e-13 for |u| <= 1e3 and grows as eps |u| (eps = 2^-52) beyond, e.g. at
most about 2e-12 at |u| = 1e4 and 2e-10 at |u| = 1e6.  That holds across
all of m in [0, 1], including the cnoidal-to-solitary limit up to
m = 1 - 2^-52.
"""

from __future__ import annotations

import numpy as np

__all__ = ["complete_K", "jacobi_cn_sn_dn", "sech_sq"]

_LD = np.longdouble
_LD_EPS = float(np.finfo(np.longdouble).eps)
_PI = np.longdouble("3.14159265358979323846264338327950288")
_MAX_AGM_ITER = 40


def _agm(m: float) -> tuple[list, list]:
    """The AGM of 1 and sqrt(1 - m) in extended precision, as its levels (a, c).

    a[n+1] = (a[n] + b[n])/2, b[n+1] = sqrt(a[n] b[n]) and c[n+1] =
    (a[n] - b[n])/2 from c[0] = sqrt(m), run until c is within 4 eps of a;
    K(m) = pi/(2 a[-1]).  No caller reads b, so only its last level is kept.
    """
    a, b, c = [_LD(1.0)], np.sqrt(_LD(1.0) - _LD(m)), [np.sqrt(_LD(m))]
    while abs(c[-1]) > 4.0 * _LD_EPS * a[-1] and len(a) <= _MAX_AGM_ITER:
        a_n = a[-1]
        a.append(0.5 * (a_n + b))
        c.append(0.5 * (a_n - b))
        b = np.sqrt(a_n * b)
    return a, c


def complete_K(m: float) -> float:
    """K(m) = integral_0^{pi/2} (1 - m sin^2 t)^(-1/2) dt.

    Parameters
    ----------
    m : float
        Elliptic parameter, 0 <= m < 1.  K diverges as m -> 1.

    Returns
    -------
    float
        Complete elliptic integral of the first kind, within 1 ulp
        (the AGM converges quadratically, in extended precision).
    """
    m = float(m)
    if not (0.0 <= m < 1.0):
        raise ValueError(f"complete_K requires 0 <= m < 1, got {m}")
    return float(_PI / (2.0 * _agm(m)[0][-1]))


def jacobi_cn_sn_dn(u, m: float):
    """Jacobi elliptic cn(u|m), sn(u|m), dn(u|m) in the parameter convention.

    Parameters
    ----------
    u : float or array_like
        Real argument; must be finite.
    m : float
        Elliptic parameter in [0, 1].  m = 0 gives the circular limit
        (cos, sin, 1); m = 1 the hyperbolic limit (sech, tanh, sech).

    Returns
    -------
    (cn, sn, dn)
        Scalars for scalar input, arrays for array input.  Absolute
        error componentwise about 1e-13 + eps |u| (eps = 2^-52): the
        argument is reduced modulo 4K in double, so past |u| ~ 1e3 the
        reduction's rounding dominates (see the module docstring).
    """
    m = float(m)
    if not (0.0 <= m <= 1.0):
        raise ValueError(f"jacobi_cn_sn_dn requires 0 <= m <= 1, got {m}")
    u_arr = np.asarray(u, dtype=float)
    scalar = u_arr.ndim == 0
    if not np.all(np.isfinite(u_arr)):
        raise ValueError("jacobi_cn_sn_dn requires finite u")

    if m == 0.0:
        cn, sn, dn = np.cos(u_arr), np.sin(u_arr), np.ones_like(u_arr)
    elif m == 1.0:
        sech = _sech(u_arr)
        cn, sn, dn = sech, np.tanh(u_arr), sech.copy()
    else:
        cn, sn, dn = _jacobi_agm(u_arr, m)

    if scalar:
        return float(cn), float(sn), float(dn)
    return cn, sn, dn


def _jacobi_agm(u: np.ndarray, m: float):
    """Descending Landen recursion in sn/cn/dn form, argument reduced mod 4K.

    With k_j = c_j/a_j the modulus at AGM level j, DLMF 22.7.1-22.7.3 give
    the functions at level j - 1 from those at level j, all from the old sn:

        D = 1 + k_j sn^2,  sn <- (1 + k_j) sn / D,
        cn <- cn dn / D,   dn <- (1 - k_j sn^2) / D.

    At the bottom level n, k_n is below 4 longdouble eps (the AGM's stop)
    and the argument is a_n w (w the reduced u), so sn = sin, cn = cos and
    dn = 1 there, to far below double's rounding.  The only subtraction is
    the inner dn's 1 - k_j sn^2, which loses relative accuracy where
    k_j sn^2 nears 1.  It is harmless: that dn enters the recursion only as
    a factor of cn, so its absolute error of a few ulp carries into cn as
    an absolute error no larger; and the returned dn is not that one but
    sqrt((1 - m) + m cn^2), a sum of two non-negative terms in which 1 - m
    is exact for m >= 1/2.  The AGM runs in extended precision; each k_j
    is rounded to double once.
    """
    a, c = _agm(m)
    n = len(a) - 1
    period = 4.0 * float(_PI / (2.0 * a[n]))
    w = u - period * np.rint(u / period)

    x = float(a[n]) * w
    sn, cn, dn = np.sin(x), np.cos(x), 1.0
    for j in range(n, 0, -1):
        k = float(c[j] / a[j])
        ks2 = k * sn * sn
        d = 1.0 + ks2
        sn, cn, dn = (1.0 + k) * sn / d, cn * dn / d, (1.0 - ks2) / d

    return cn, sn, np.sqrt((1.0 - m) + m * cn * cn)


def _sech(u: np.ndarray) -> np.ndarray:
    # 2 e^{-|u|} / (1 + e^{-2|u|}) never overflows; underflows cleanly to 0
    e = np.exp(-np.abs(u))
    return 2.0 * e / (1.0 + e * e)


def sech_sq(u):
    """1/cosh(u)^2, overflow-safe for arbitrarily large |u| (decays to 0)."""
    u_arr = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(u_arr)):
        raise ValueError("sech_sq requires finite u")
    s = _sech(u_arr)
    out = s * s
    return float(out) if u_arr.ndim == 0 else out
