"""Vectorised ``"%.17g" % v``: the exact bytes, for a whole array at once.

Seventeen significant digits round-trip every float64, which makes this the
path dump's number format; Python's ``%`` spends ~0.8 us on each value.

For a finite value with 1e-6 < |v| < 1e16 the digits come from exact
arithmetic.  With k the decimal exponent of |v|, 10^(16-k) <= 10^22 is an
exact double, and Dekker's TwoProduct (Veltkamp split, no FMA) gives
|v| * 10^(16-k) exactly as p + e.  Whenever p + e lies in [10^16, 10^17),
p is an even integer, so rounding e half to even rounds the sum half to
even: the 17 digits are D = p + rint(e), as ``%.17g`` prints them.  ``%g``'s
layout then places the digits: fixed notation when -4 <= X < 17 for the
decimal exponent X of D, else ``d.ddd...e-XX``; trailing zeros are
stripped, and so is a bare ``.``; the sign is ``signbit``'s, so -0.0 prints
``-0``.  Zeros take the same path with D = 0.  NaN, +-inf and every other
value go to Python's ``%`` one at a time.
"""

from __future__ import annotations

import numpy as np

# Bytes per formatted value.  A cell holds the sign in byte 0, digits and
# point in bytes 1..22 and the exponent in bytes 23..26, with NUL bytes in
# every unused place; Python's "%.17g" prints at most 24 bytes.  32 leaves
# the last byte free for a delimiter and lets the layout tables be gathered
# as rows of four uint64 words.
CELL = 32

_POW10 = np.array([float(10**n) for n in range(23)])  # exact doubles
_VELTKAMP = float(2**27 + 1)
_GROUP = 10_000
_GROUPS = np.arange(_GROUP, dtype=np.uint16)
# "%04d" % i as four ASCII bytes, and the number of its trailing zeros.
_LUT4 = (
    np.stack([_GROUPS // 10**j % 10 + ord("0") for j in (3, 2, 1, 0)], axis=1)
    .astype(np.uint8)
    .view(np.uint32)
    .ravel()
)
_TRAILING_ZEROS4 = sum(_GROUPS % 10**j == 0 for j in range(1, 5)).astype(np.uint8)


def _two_product(a: np.ndarray, b: np.ndarray):
    """p, e with p = fl(a*b) and p + e == a*b exactly."""
    p = a * b
    ca, cb = _VELTKAMP * a, _VELTKAMP * b
    ah, bh = ca - (ca - a), cb - (cb - b)
    al, bl = a - ah, b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _digits17(a: np.ndarray):
    """(D, X) for 1e-6 < a < 1e16: a rounded half to even to 17 significant
    digits is D * 10^(X-16), with 10^16 <= D < 10^17."""
    k = np.clip(np.floor(np.log10(a)), -6, 15).astype(np.int64)
    p, e = _two_product(a, _POW10[16 - k])
    while True:
        # log10 may be one off near a power of ten: move k until p + e,
        # compared exactly, lies in [10^16, 10^17).
        low = (p < 1e16) | ((p == 1e16) & (e < 0))
        high = (p > 1e17) | ((p == 1e17) & (e >= 0))
        off = np.flatnonzero(low | high)
        if off.size == 0:
            break
        k[off] += high[off].astype(np.int64) - low[off]
        p[off], e[off] = _two_product(a[off], _POW10[16 - k[off]])
    # D never rounds up to 10^17: the largest double below each power of ten
    # from 1e-5 to 1e16 is at least 4.5e-17 of it away, relatively, and that
    # rounding would take less than 5e-18.
    return p.astype(np.int64) + np.rint(e).astype(np.int64), k


def _layout_tables():
    """Byte masks and constants of a cell, one row per (mode, L + 1).

    Mode 0..20 is fixed notation with exponent X = mode - 4; modes 21 and 22
    are e-notation with X = -5 and -6, the only ones below 1e16 and above
    1e-6.  L is the index of D's last nonzero digit, -1 for D = 0.  Byte
    1 + c of a cell is column c of the string E = "0000" + D with a point
    after E[4 + P], where P = X in fixed notation and 0 in e-notation.
    Source A holds E[c] and source B holds E[c - 1], the column after the
    point.  Byte 0 is the sign and bytes 23..26 the exponent.
    """
    p = np.array([*range(-4, 17), 0, 0])[:, None, None]
    last = np.arange(-1, 17)[None, :, None]
    c = np.arange(22)
    point = 5 + p
    take_a, take_b, const = np.zeros((3, p.size, last.size, CELL), np.uint8)
    take_a[..., 1:23] = ((c >= 4 + np.minimum(p, 0)) & (c < point)) * 0xFF
    take_b[..., 1:23] = ((c > point) & (c <= 5 + last)) * 0xFF
    const[..., 1:23] = ((c == point) & (last > p)) * ord(".")
    const[21, :, 23:27] = np.frombuffer(b"e-05", np.uint8)
    const[22, :, 23:27] = np.frombuffer(b"e-06", np.uint8)
    return [t.reshape(-1, CELL).view(np.uint64) for t in (take_a, take_b, const)]


_TAKE_A, _TAKE_B, _CONST = _layout_tables()


def g17_cells(values: np.ndarray) -> np.ndarray:
    """(n, CELL) uint8: row i holds the bytes of ``"%.17g" % values[i]`` in
    order, with NUL bytes between and after them; the last byte is NUL."""
    v = np.ascontiguousarray(values, dtype=np.float64).ravel()
    n = v.size
    a = np.abs(v)
    exact = (a > 1e-6) & (a < 1e16)
    zero = a == 0.0
    d, x = _digits17(np.where(exact, a, 1.0))  # other lanes are redone below
    d[zero] = 0
    x[zero] = 0

    # Bytes 3..23 of each row of ``words`` are E: "0000" and D's digits in
    # the groups "000d", "dddd" x 4.  ``//`` by a scalar is the fast divide.
    words = np.zeros(CELL // 4 * n + 1, np.uint32)
    grid = words[:-1].reshape(n, CELL // 4)
    grid[:, 0] = _LUT4[0]
    groups, rest = [], d.view(np.uint64)
    for _ in range(4):
        quotient = rest // np.uint64(_GROUP)
        groups.append(rest - quotient * np.uint64(_GROUP))
        rest = quotient
    groups.append(rest)
    trailing = np.zeros(n, np.uint8)
    more = np.ones(n, bool)
    for j, group in enumerate(groups):
        grid[:, 5 - j] = np.take(_LUT4, group)
        trailing += more * np.take(_TRAILING_ZEROS4, group)
        more &= group == 0
    last = np.maximum(16 - trailing.astype(np.int64), -1)

    mode = np.where(x < -4, 16 - x, x + 4)
    key = mode * 18 + last + 1
    take_a, take_b, out = (
        np.take(t, key, axis=0).view(np.uint8) for t in (_TAKE_A, _TAKE_B, _CONST)
    )
    digits = words.view(np.uint8)
    take_a &= digits[2 : 2 + CELL * n].reshape(n, CELL)
    take_b &= digits[1 : 1 + CELL * n].reshape(n, CELL)
    out |= take_a
    out |= take_b
    out[:, 0] = np.signbit(v) * np.uint8(ord("-"))
    for i in np.flatnonzero(~(exact | zero)):
        text = ("%.17g" % v[i]).encode("ascii")
        out[i] = 0
        out[i, : len(text)] = np.frombuffer(text, np.uint8)
    return out
