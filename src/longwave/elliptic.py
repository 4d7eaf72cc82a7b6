"""Complete elliptic integral of the first kind and Jacobi elliptic functions.

Convention: the second argument is always the PARAMETER m = kappa^2, the
square of the modulus.  This is the convention of DLMF chapter 22 with
cn(u|m), and it is the value that the cnoidal steady-wave ODE fixes to
l/(l+k) (see the waves module).

K(m), sn, cn and dn share one arithmetic-geometric mean.  Only that
scalar AGM runs in extended precision (_agm): K(m) = pi/(2 a_n) is within
1 ulp of the exact value.  sn, cn and dn use the AGM/descending-Landen phi
recursion (DLMF 22.20(ii)) on float64 arrays, with the argument reduced
modulo the real period 4K in double.  Each step takes arcsin((c_j/a_j)
sin phi) as atan2(c_j sin phi, hypot(b_j, c_j cos phi)), which is the same
angle because b_j^2 = a_j^2 - c_j^2, and dn is sqrt((1 - m) + m cn^2).
Neither form subtracts nearly equal numbers as c_j/a_j -> 1, so double
needs no extended-precision guard digits; NumPy's float64 transcendentals
are vectorised, where its longdouble ones are not; and the result does not
depend on what the platform's longdouble is.  The absolute error stays at
or below ~1e-13 across all of m in [0, 1], including the
cnoidal-to-solitary limit up to m = 1 - 2^-52.
"""

from __future__ import annotations

import numpy as np

__all__ = ["complete_K", "jacobi_cn_sn_dn", "sech_sq"]

_LD = np.longdouble
_LD_EPS = float(np.finfo(np.longdouble).eps)
_PI = np.longdouble("3.14159265358979323846264338327950288")
_MAX_AGM_ITER = 40


def _agm(m: float) -> tuple[list, list, list]:
    """The AGM of 1 and sqrt(1 - m) in extended precision, as (a, b, c).

    a[n+1] = (a[n] + b[n])/2, b[n+1] = sqrt(a[n] b[n]) and c[n+1] =
    (a[n] - b[n])/2 from c[0] = sqrt(m), run until c is within 4 eps of a;
    K(m) = pi/(2 a[-1]).
    """
    a, b, c = [_LD(1.0)], [np.sqrt(_LD(1.0) - _LD(m))], [np.sqrt(_LD(m))]
    while abs(c[-1]) > 4.0 * _LD_EPS * a[-1] and len(a) <= _MAX_AGM_ITER:
        a_n, b_n = a[-1], b[-1]
        a.append(0.5 * (a_n + b_n))
        c.append(0.5 * (a_n - b_n))
        b.append(np.sqrt(a_n * b_n))
    return a, b, c


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
        error <= ~1e-13 componentwise.
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
    """AGM phi recursion on float64 arrays, argument reduced mod 4K in double.

    Only the scalar AGM runs in extended precision; its a, b and c are
    rounded to double once.  The step phi <- (phi + arcsin((c_j/a_j)
    sin phi))/2 is taken as atan2(c_j sin phi, hypot(b_j, c_j cos phi)),
    and dn as sqrt((1 - m) + m cn^2), in which 1 - m is exact for m >= 1/2.
    Neither cancels as c_j/a_j -> 1, so no array needs extended precision:
    NumPy vectorises the float64 sin, cos and atan2, and the result is the
    same whatever the platform's longdouble is.
    """
    a, b, c = _agm(m)
    n = len(a) - 1
    period = 4.0 * float(_PI / (2.0 * a[n]))
    w = u - period * np.rint(u / period)

    phi = 2.0 ** n * float(a[n]) * w
    for j in range(n, 0, -1):
        b_j, c_j = float(b[j]), float(c[j])
        phi = 0.5 * (phi + np.arctan2(c_j * np.sin(phi), np.hypot(b_j, c_j * np.cos(phi))))

    cn = np.cos(phi)
    return cn, np.sin(phi), np.sqrt((1.0 - m) + m * cn * cn)


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
