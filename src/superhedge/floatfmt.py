"""Vectorised ``"%.17g" % v`` and ``"%d" % i``: the exact bytes, for whole
arrays at once.

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

Each value becomes a cell of CELL bytes that holds its text in order with
NUL bytes between and after.  D is split into groups of four digits, and
one lookup per group gives both the group's ASCII digits and its count of
trailing zeros; a layout row, picked by the notation, the exponent and the
index of D's last nonzero digit, then masks and places those digits.

The path dump (``_csv_rows``) formats a row's ``path_id`` on integers
alone: the id is D, written with the same groups and a layout row that
drops its leading zeros, so every id below 2^63 prints as ``"%d"``.  The
layout row also puts the delimiter, "," or a newline, in the cell's last
byte, and ``bytes.translate`` drops the NUL bytes of a whole chunk of
cells in one C-level pass.
"""

from __future__ import annotations

import numpy as np

# Bytes per formatted value.  A cell holds the sign in byte 0, digits and
# point in bytes 1..22 and the exponent in bytes 23..26, with NUL bytes in
# every unused place; Python's "%.17g" prints at most 24 bytes.  32 leaves
# the last byte free for a delimiter and lets the layout tables be gathered
# as rows of four uint64 words, which np.take copies ~3x faster than rows
# of 24 or 28 bytes: that cost ate what a narrower cell saved in the
# compaction.
CELL = 32

_VELTKAMP = float(2**27 + 1)
# 10^(22-i) for the index i = 6 + X of a decimal exponent X in [-6, 15]:
# exact doubles.
_SCALE = np.array([float(10 ** (22 - i)) for i in range(22)])
_GROUP = np.uint64(10_000)


def _digit_table():
    """Entry g: the four ASCII bytes of "%04d" % g in the low half, and the
    number of its trailing zeros (4 for g = 0) in the high half."""
    g = np.arange(10_000)
    text = np.stack([g // 10**j % 10 + ord("0") for j in (3, 2, 1, 0)], axis=1)
    trailing = sum(g % 10**j == 0 for j in range(1, 5)).astype(np.uint64)
    ascii4 = text.astype(np.uint8).view(np.uint32).ravel()
    return ascii4.astype(np.uint64) | trailing << np.uint64(32)


_DIGITS = _digit_table()
_ZEROS4 = np.uint32(_DIGITS[0])  # "0000"
_ROW = 20  # layout rows per mode: j = 0..19
_INTEGER = 23  # the mode of "%d"
_NEWLINE = (_INTEGER + 1) * _ROW  # key offset of a cell that ends its row
# The key of a value with exponent index i, before _cells subtracts the
# trailing zeros of its D: j = 17 when D has none.
_KEYS = np.array([(16 - x if x < -4 else x + 4) * _ROW + 17 for x in range(-6, 16)])
_ZERO_KEY = 4 * _ROW  # mode 4 (X = 0), j = 0
_LOW, _HIGH = np.nextafter(1e-6, 1.0), np.nextafter(1e16, 0.0)


def _two_product(a: np.ndarray, b: np.ndarray):
    """p, e with p = fl(a*b) and p + e == a*b exactly, in place on five
    temporaries."""
    p = a * b
    # Veltkamp splits: ah = ca - (ca - a) with ca = (2^27 + 1) a, al = a - ah;
    # bh and bl alike.
    ah = _VELTKAMP * a
    al = ah - a
    np.subtract(ah, al, out=ah)
    np.subtract(a, ah, out=al)
    bh = _VELTKAMP * b
    bl = bh - b
    np.subtract(bh, bl, out=bh)
    np.subtract(b, bh, out=bl)
    # e = ((ah*bh - p) + ah*bl + al*bh) + al*bl, summed in that order
    e = ah * bh
    e -= p
    bh *= al
    al *= bl
    bl *= ah
    e += bl
    e += bh
    e += al
    return p, e


def _digits17(a: np.ndarray):
    """(D, i) for 1e-6 < a < 1e16: a rounded half to even to 17 significant
    digits is D * 10^(i-22), with 10^16 <= D < 10^17."""
    i = np.log10(a)
    np.floor(i, out=i)
    i += 6
    np.maximum(i, 0, out=i)
    i = np.minimum(i, 21, out=i).astype(np.intp)
    p, e = _two_product(a, _SCALE[i])
    # log10 may be one off near a power of ten: move i until p + e,
    # compared exactly, lies in [10^16, 10^17).  p is an even integer inside
    # (10^16, 10^17) and |e| <= 8, so only lanes with p at or past either
    # end need the exact test.
    off = np.flatnonzero((p <= 1e16) | (p >= 1e17))
    while off.size:
        po, eo = p[off], e[off]
        move = ((po > 1e17) | ((po == 1e17) & (eo >= 0))).astype(np.intp)
        move -= (po < 1e16) | ((po == 1e16) & (eo < 0))
        off, move = off[move != 0], move[move != 0]
        i[off] += move
        p[off], e[off] = _two_product(a[off], _SCALE[i[off]])
    # D never rounds up to 10^17: the largest double below each power of ten
    # from 1e-5 to 1e16 is at least 4.5e-17 of it away, relatively, and that
    # rounding would take less than 5e-18.
    d = p.astype(np.int64)
    d += np.rint(e, out=e).astype(np.int64)
    return d.view(np.uint64), i


def _layout_tables():
    """Byte masks and constants of a cell, one row per key = (newline, mode, j).

    Mode 0..20 is fixed notation with exponent X = mode - 4; modes 21 and 22
    are e-notation with X = -5 and -6, the only ones below 1e16 and above
    1e-6; there j = L + 1 for the index L of D's last nonzero digit, -1 for
    D = 0.  E is the 21 columns "0" and D written as 20 digits, so
    "0000" + D for D < 10^17.  Byte 1 + c of a cell is E[c], with a point
    after E[4 + P], where P = X in fixed notation and 0 in e-notation.
    Source A holds E[c] and source B holds E[c - 1], the column after the
    point.  Byte 0 is the sign and bytes 23..26 the exponent.  Mode 23 is an
    integer of j digits: E's last j columns.  The last byte is the
    delimiter, "," or, with newline, a line feed.
    """
    p = np.array([*range(-4, 17), 0, 0])[:, None, None]
    last = np.arange(-1, _ROW - 1)[None, :, None]
    c = np.arange(22)
    point = 5 + p
    take_a, take_b, const = np.zeros((3, 2, _INTEGER + 1, _ROW, CELL), np.uint8)
    take_a[:, :-1, :, 1:23] = ((c >= 4 + np.minimum(p, 0)) & (c < point)) * 0xFF
    take_b[:, :-1, :, 1:23] = ((c > point) & (c <= 5 + last)) * 0xFF
    const[:, :-1, :, 1:23] = ((c == point) & (last > p)) * ord(".")
    const[:, 21, :, 23:27] = np.frombuffer(b"e-05", np.uint8)
    const[:, 22, :, 23:27] = np.frombuffer(b"e-06", np.uint8)
    take_a[:, _INTEGER, :, 1:22] = (c[:21] > 19 - last[0]) * 0xFF
    const[0, ..., -1] = ord(",")
    const[1, ..., -1] = ord("\n")
    return [t.reshape(-1, CELL).view(np.uint64) for t in (take_a, take_b, const)]


_TAKE_A, _TAKE_B, _CONST = _layout_tables()


def _float_keys(v: np.ndarray):
    """(D, key, odd) of the values v, flattened: D and its layout row before
    the trailing zeros are counted (see _cells), and the indices of the
    values that Python's % formats instead."""
    a = np.abs(v).ravel()
    # Every value outside (1e-6, 1e16), NaN too, moves into it: those lanes
    # are redone below.
    inside = np.fmin(np.fmax(a, _LOW), _HIGH)
    odd = np.flatnonzero(inside != a)
    d, i = _digits17(inside)
    key = np.take(_KEYS, i)
    zero = odd[a[odd] == 0.0]
    d[zero] = 0
    key[zero] = _ZERO_KEY
    return d, key, odd[a[odd] != 0.0]


def _cells(d: np.ndarray, key: np.ndarray, integers=slice(0)) -> np.ndarray:
    """(n, CELL) uint8: cell i lays out the digits d[i] by layout row key[i]
    less the number of trailing zeros of d[i], or by key[i] itself on the
    lanes ``integers``; byte 0 is NUL.  key is overwritten."""
    n = d.size
    # Bytes 3..23 of each row of ``words`` are E: "0000" and D's digits in
    # the groups "000d", "dddd" x 4; no mask reads the rest.  ``//`` by a
    # scalar is the fast divide.
    words = np.empty(CELL // 4 * n + 1, np.uint32)
    grid = words[:-1].reshape(n, CELL // 4)
    grid[:, 0] = _ZEROS4
    rest = d
    for j in range(4):
        quotient = rest // _GROUP
        entry = np.take(_DIGITS, (rest - quotient * _GROUP).view(np.int64))
        grid[:, 5 - j] = entry  # the low half: the group's ASCII digits
        if j == 0:
            trailing = (entry >> np.uint64(32)).view(np.int64)
        rest = quotient
    grid[:, 1] = np.take(_DIGITS, rest.view(np.int64))
    # Digits ending in 0000: count their trailing zeros in the ASCII of D,
    # bytes 7..23 of the grid row.  D = 0 has no nonzero digit, so argmax
    # counts 0 and a zero keeps its key.
    more = np.flatnonzero(trailing == 4)
    if more.size:
        nonzero = grid.view(np.uint8)[more, 7:24] != ord("0")
        trailing[more] = np.argmax(nonzero[:, ::-1], axis=1)
    trailing[integers] = 0
    key -= trailing
    take_a, take_b, out = (
        np.take(t, key, axis=0).view(np.uint8) for t in (_TAKE_A, _TAKE_B, _CONST)
    )
    digits = words.view(np.uint8)
    take_a &= digits[2 : 2 + CELL * n].reshape(n, CELL)
    take_b &= digits[1 : 1 + CELL * n].reshape(n, CELL)
    out |= take_a
    out |= take_b
    return out


def _signs_and_odd(cells: np.ndarray, v: np.ndarray, odd: np.ndarray, lane=lambda i: i):
    """Put a "-" in byte 0 of the cell of each negative value of v, and
    Python's bytes in the cells of the values ``odd``, all but their last
    byte.  Value i of v, flattened, has cell lane(i)."""
    v = v.ravel()
    cells[lane(np.flatnonzero(np.signbit(v))), 0] = ord("-")
    for i, row in zip(odd.tolist(), lane(odd).tolist()):
        text = ("%.17g" % v[i]).encode("ascii")
        cells[row, :-1] = 0
        cells[row, : len(text)] = np.frombuffer(text, np.uint8)


def g17_cells(values: np.ndarray) -> np.ndarray:
    """(n, CELL) uint8: row i holds the bytes of ``"%.17g" % values[i]`` in
    order, with NUL bytes between and after them; the last byte is NUL."""
    v = np.ascontiguousarray(values, dtype=np.float64).ravel()
    d, key, odd = _float_keys(v)
    out = _cells(d, key)
    out[:, -1] = 0
    _signs_and_odd(out, v, odd)
    return out


def _csv_rows(values: np.ndarray, first_id: int) -> bytes:
    """ASCII CSV rows: row i is ``"%d" % (first_id + i)`` and then
    ``"%.17g"`` of each entry of values[i], comma-separated, ending in a
    newline; ``first_id + len(values)`` is at most 2^63."""
    m, k = values.shape
    d = np.empty((m, 1 + k), np.uint64)
    key = np.empty((m, 1 + k), np.int64)
    d[:, 0] = np.arange(m, dtype=np.uint64) + np.uint64(first_id)
    # An id of j digits takes layout row j of the integer mode.
    key[:, 0] = _INTEGER * _ROW + len(str(first_id))
    power = 10 ** len(str(first_id))
    while power < first_id + m:
        key[power - first_id :, 0] += 1
        power *= 10
    dv, kv, odd = _float_keys(values)
    d[:, 1:] = dv.reshape(m, k)
    key[:, 1:] = kv.reshape(m, k)
    key[:, -1] += _NEWLINE
    cells = _cells(d.ravel(), key.ravel(), slice(0, None, 1 + k))
    _signs_and_odd(cells, values, odd, lambda i: i + i // k + 1)
    return cells.tobytes().translate(None, b"\0")
