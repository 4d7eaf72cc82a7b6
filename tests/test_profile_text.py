"""Profile rows: the NumPy text of `rowtext.rows17` is `fmt17`'s, value by value.

`emit_profile_csv` writes its rows with `rows17`, which forms each value's
digits from a double-double scaling (`rowtext._scaled_digits`), looks their
layout up in tables, and leaves to `fmt17` (the CLI's `_fmt`) only the values
whose rounding it cannot settle.  The certificate below
compares its text with `_fmt` on the inputs where such a kernel goes wrong:
random bit patterns, powers of ten and their neighbours (log10 puts some one
decade off, and some round up into the next decade), exact ties at the 18th
digit (half to even), doubles nearer a tie than the double-double can
settle, the ends of the fixed-notation range, and the grids profiles
are written on.
"""

import math

import numpy as np
import pytest

from longwave import PeriodicGrid, WaveField
from longwave.cli import emit_profile_csv, read_profile_csv
from longwave.rowtext import fmt17 as _fmt, rows17


def _texts(values):
    """The kernel's text of each value, and the values (padded to an even count)."""
    v = np.asarray(values, dtype=np.float64).ravel()
    if v.size % 2:
        v = np.append(v, 0.0)
    return rows17(v).decode("ascii").replace("\n", ",").split(",")[:-1], v


def _assert_fmt_text(values):
    texts, v = _texts(values)
    want = list(map(_fmt, v.tolist()))
    if texts != want:
        bad = [(x.hex(), got, ref) for x, got, ref in zip(v.tolist(), texts, want) if got != ref]
        pytest.fail(f"{len(bad)} values differ from _fmt (hex, kernel, _fmt): {bad[:5]}")


def _near_ties():
    """Doubles v whose v * 10**k lies within 64 / 2**t of a half-integer, not on it.

    For M in [2**52, 2**53) and 10**16 <= M * 5**k / 2**t < 10**17, the double
    M * 2**-(t+k) times 10**k is M * 5**k / 2**t, whose fraction is
    1/2 + delta / 2**t when M = (2**(t-1) + delta) / 5**k modulo 2**t.  10**k is
    not a double for these k, so the kernel's product is not exact there, and
    some of these lie closer to the tie than its error bound.
    """
    out = []
    for k in range(23, 29):
        p = 5 ** k
        for t in range(p.bit_length() - 5, p.bit_length() + 2):
            inv = pow(p, -1, 1 << t)
            for delta in range(-64, 65):
                M = ((1 << (t - 1)) + delta) * inv % (1 << t)
                if delta and 1 << 52 <= M < 1 << 53 and 10 ** 16 * 2 ** t <= M * p < 10 ** 17 * 2 ** t:
                    out.append(math.ldexp(M, -(t + k)))
    return out


def _dyadics():
    """B + r / 2**j for r < 2**j, j = 1..11, and B of 18 - j digits where that is a double.

    With 18 significant digits the last one is 5: an exact tie for 17 digits,
    such as 123456789012345.625 -> 123456789012345.62.
    """
    out = []
    for j in range(1, 12):
        B = int("1234567890123456789"[:min(18 - j, 16)])
        out += [(B * 2 ** j + r) / 2 ** j for r in range(2 ** j)]
    return out


class TestKernelTextIsFmt:
    def test_random_bit_patterns(self):
        bits = np.random.default_rng(2024).integers(0, 2 ** 64, size=10 ** 6, dtype=np.uint64)
        pool = bits.view(np.float64)
        _assert_fmt_text(pool[np.isfinite(pool)])

    def test_powers_of_ten_and_their_neighbours(self):
        powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
        near = np.array([1e-5, 1e-4, 1e16, 1e17])
        for p in (powers, near):
            _assert_fmt_text([p, np.nextafter(p, 0.0), np.nextafter(p, np.inf), -p])

    def test_ties_are_rounded_half_to_even(self):
        values = _dyadics()
        assert _texts([123456789012345.625, 123456789012345.375])[0] == [
            "123456789012345.62", "123456789012345.38"]
        _assert_fmt_text(values + [-v for v in values])

    def test_near_ties_the_double_double_cannot_settle(self):
        values = _near_ties()
        assert len(values) > 100
        _assert_fmt_text(values)

    def test_signed_zeros_extremes_and_non_finite(self):
        texts, _ = _texts([0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                           -1.7976931348623157e308, np.inf, -np.inf, np.nan, 1.0])
        assert texts == ["0", "-0", "4.9406564584124654e-324", "-4.9406564584124654e-324",
                         "1.7976931348623157e+308", "-1.7976931348623157e+308",
                         "inf", "-inf", "nan", "1"]

    @pytest.mark.parametrize("L", [7.3, 64.0, 80.0, 120.0, 123.456])
    def test_grids(self, L):
        _assert_fmt_text(np.concatenate([PeriodicGrid(L=L, N=N).x for N in (8, 256, 1024, 4096)]))


@pytest.mark.parametrize("N", [8, 1026])
def test_profile_rows_across_block_ends_write_and_read_exactly(tmp_path, params, N):
    # 2 * 1026 values fill one block of rowtext._ROW_BLOCK (2048) and part of a second
    rng = np.random.default_rng(N)
    h = rng.standard_normal(N) * 10.0 ** rng.integers(-12, 12, N)
    grid = PeriodicGrid(L=123.456, N=N)
    path = tmp_path / "p.csv"
    emit_profile_csv(WaveField(grid, h, t=0.25), params, "spectral", path)
    text = path.read_bytes().decode("utf-8")
    rows = [f"{_fmt(a)},{_fmt(b)}" for a, b in zip(grid.x, h)]
    assert text.splitlines()[-N:] == rows and text.endswith(rows[-1] + "\n")
    _, x, h2 = read_profile_csv(path)
    assert np.array_equal(x, grid.x) and np.array_equal(h2, h)
