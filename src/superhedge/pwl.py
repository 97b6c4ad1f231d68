"""Exact algebra for continuous piecewise-linear functions on [0, inf).

A function is its breakpoints plus the slope and intercept of every piece,
all exact rationals.  Every float is itself an exact rational, so accepting
floats loses nothing, and keeping rationals internally means kinks, chord
slopes and concave envelopes are computed without rounding: the flat region
of a call payoff evaluates to exactly 0.0 and its linear tail to exactly
``x - K``.  This is what lets the hedging error of an exactly-replicated
path come out as exactly zero instead of +/- 1e-14 noise.

Each of the three lists is stored as Python int numerators over one
positive denominator, reduced by the gcd of all of them, so the algebra
(`scaled_combine`) and the convexity check run on integers with one gcd per
list instead of one per operation.
`fractions.Fraction` views are built from the lists only when a slow path
reads them, and are not kept.

Evaluation is vectorised: on its first float use each function builds, once,
float arrays of its breakpoints and of every piece's slope and intercept, so
evaluating on a million-element numpy array is one piece lookup
(`piece_index`: counted comparisons on short tables, a binary search on long
ones) plus one multiply-add.  The exact algebra never reads them, so the
value functions a recursion passes through build none.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

Scalar = Union[int, float, Fraction]

# Tables up to this length are searched by counting comparisons.  With random
# needles (executed prices), np.searchsorted mispredicts a branch at every
# level of its binary search; one comparison pass per entry does not.  On a
# 2-core x86-64 with numpy 2.4, a lookup plus one gather over 2^17 needles is
# ~3x faster counted at 1-64 entries and ~2x at 128; at 2*10^4 needles the two
# meet near 200-250 entries.  The count is held in uint8, so the cut-over must
# stay below 256.
_COUNT_MAX = 128


def _frac(x: Scalar) -> Fraction:
    """Exact rational from an int, float or Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    xf = float(x)
    if not np.isfinite(xf):
        raise ValueError(f"coordinate must be finite, got {x!r}")
    return Fraction(xf)


def _check_breakpoints(bps: Sequence):
    """Refuse an empty, negative or not strictly increasing breakpoint list."""
    if len(bps) == 0:
        raise ValueError("need at least one breakpoint")
    if bps[0] < 0:
        raise ValueError("breakpoints must be nonnegative")
    for a, b in zip(bps, bps[1:]):
        if not a < b:
            raise ValueError("breakpoints must be strictly increasing")


def _common(qs: Sequence[Fraction]) -> tuple[tuple[int, ...], int]:
    """Reduced rationals as numerators over the lcm of their denominators,
    which is the canonical form of the list."""
    den = math.lcm(*(q.denominator for q in qs))
    return tuple(q.numerator * (den // q.denominator) for q in qs), den


def _reduce(nums: Sequence[int], den: int) -> tuple[tuple[int, ...], int]:
    """Canonical form of the list nums / den (den > 0): both divided by the
    gcd of den and every numerator."""
    g = math.gcd(den, *nums)
    if g == 1:
        return tuple(nums), den
    return tuple(n // g for n in nums), den // g


def _lcm_factors(da: int, db: int) -> tuple[int, int, int]:
    """(d, d // da, d // db) for d = lcm(da, db): what brings two lists to
    one denominator."""
    d = math.lcm(da, db)
    return d, d // da, d // db


def _times(nums: Sequence[int], k: int) -> list[int]:
    return [k * n for n in nums]


def _check_scalar(x, name: str, nonnegative: bool = False):
    """Refuse NaN, infinite and negative x, and 0 unless ``nonnegative``."""
    # NaN fails every comparison, so these tests refuse it too.
    if not ((0.0 <= x if nonnegative else 0.0 < x) and x < math.inf):
        sign = "nonnegative" if nonnegative else "positive"
        raise ValueError(f"{name} must be {sign} and finite, got {x}")


def _check_array(x: np.ndarray, name: str, nonnegative: bool = False):
    """`_check_scalar` on the first refused entry of x, if any."""
    above = np.greater_equal if nonnegative else np.greater
    if x.size and not (above(x.min(), 0.0) and x.max() < math.inf):
        _check_scalar(x[~(above(x, 0.0) & (x < math.inf))][0], name, nonnegative)


def piece_index(table: np.ndarray, x: np.ndarray, side: str = "left") -> np.ndarray:
    """The indices ``np.searchsorted(table, x, side)`` returns, for any floats.

    ``table`` is strictly increasing.  Up to ``_COUNT_MAX`` entries the index
    is K - #{b : x <= b} ("left") or K - #{b : x < b} ("right"), counted in
    uint8 and returned as intp like searchsorted's, so each gather it feeds
    needs no cast; NaN compares false with every entry, so it lands at K as
    it does in searchsorted.  Longer tables are searched.
    """
    if table.size > _COUNT_MAX:
        return np.searchsorted(table, x, side=side)
    below = {"left": np.less_equal, "right": np.less}[side]
    idx = np.full(np.shape(x), table.size, dtype=np.uint8)
    for b in table:
        idx -= below(x, b).view(np.uint8)
    return idx.astype(np.intp)


@dataclass(frozen=True)
class Interval:
    """Closed price interval [lo, hi] with 0 <= lo <= hi."""

    lo: float
    hi: float

    def __post_init__(self):
        lo, hi = float(self.lo), float(self.hi)
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValueError("interval endpoints must be finite")
        if lo < 0.0:
            raise ValueError(f"interval endpoints must be nonnegative, got lo={lo}")
        if lo > hi:
            raise ValueError(f"interval requires lo <= hi, got [{lo}, {hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)


class PwlFunction:
    """Continuous piecewise-linear function on [0, inf).

    Parameters
    ----------
    breakpoints : strictly increasing nonnegative coordinates (>= 1 point).
    values : function values at the breakpoints.
    left_slope : slope on [0, breakpoints[0]].
    right_slope : slope beyond breakpoints[-1].

    Between consecutive breakpoints the function interpolates linearly.
    Coordinates are stored exactly as rationals; `__call__` works on floats
    or numpy arrays.

    The exact data is three integer lists, each over one positive
    denominator: the breakpoints (``_bn / _bd``), and the slope
    (``_sn / _sd``) and intercept (``_cn / _cd``) of every piece.  Piece 0
    is the left extension, piece i (0 < i < n) spans [bps[i-1], bps[i]] and
    piece n is the right extension, so ``bisect_left(bps, x)`` is the piece
    holding x.  Each list is divided by the gcd of its denominator and
    numerators, which makes its denominator the lcm of the elements' reduced
    denominators: the form is canonical, so ``==`` and ``hash`` compare
    integers.  The lists are the only exact form kept: the ``Fraction``
    views (`breakpoints`, `values`, the extension slopes) are built from
    them each time they are read.  The float arrays (`_float_views`) are
    built from them on the first float evaluation, all three at once, and
    kept read-only.
    """

    __slots__ = ("_bn", "_bd", "_sn", "_sd", "_cn", "_cd", "_floats")

    def __init__(
        self,
        breakpoints: Sequence[Scalar],
        values: Sequence[Scalar],
        left_slope: Scalar = 0,
        right_slope: Scalar = 0,
    ):
        bps = tuple(_frac(b) for b in breakpoints)
        vals = tuple(_frac(v) for v in values)
        _check_breakpoints(bps)
        if len(bps) != len(vals):
            raise ValueError("breakpoints and values must have equal length")
        n = len(bps)
        seg = [(vals[i + 1] - vals[i]) / (bps[i + 1] - bps[i]) for i in range(n - 1)]
        slopes = (_frac(left_slope), *seg, _frac(right_slope))
        # Piece i is anchored at a breakpoint lying inside its closure.
        anchors = (*range(n), n - 1)
        icepts = tuple(vals[a] - s * bps[a] for s, a in zip(slopes, anchors))
        self._init(_common(bps), _common(slopes), _common(icepts))

    @classmethod
    def _from_ints(cls, bps, slopes, icepts) -> "PwlFunction":
        """Build from canonical (numerators, denominator) lists of the
        breakpoints and of every piece's slope and intercept; nothing is
        divided."""
        _check_breakpoints(bps[0])
        f = cls.__new__(cls)
        f._init(bps, slopes, icepts)
        return f

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #

    def _init(self, bps, slopes, icepts):
        (bn, bd), (sn, sd), (cn, cd) = bps, slopes, icepts
        self._bn, self._bd, self._sn, self._sd, self._cn, self._cd = bn, bd, sn, sd, cn, cd
        self._floats = None

    # ------------------------------------------------------------------ #
    # float views, built from the integer lists on first use
    # ------------------------------------------------------------------ #

    def _float_views(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(breakpoints, piece slopes, piece intercepts) as float arrays,
        shared by every caller and therefore read-only."""
        if self._floats is None:
            lists = ((self._bn, self._bd), (self._sn, self._sd), (self._cn, self._cd))
            views = []
            for nums, den in lists:
                # Int true division is correctly rounded: n / d is float(Fraction(n, d)).
                views.append(np.array([n / den for n in nums]))
                views[-1].flags.writeable = False
            self._floats = tuple(views)
        return self._floats

    # ------------------------------------------------------------------ #
    # exact views, built from the integer lists when read
    # ------------------------------------------------------------------ #

    @property
    def breakpoints(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self._bd) for n in self._bn)

    @property
    def values(self) -> tuple[Fraction, ...]:
        """Values at the breakpoints: piece i evaluated where it ends."""
        return tuple(self._line(i, b) for i, b in enumerate(self.breakpoints))

    @property
    def left_slope(self) -> Fraction:
        return Fraction(self._sn[0], self._sd)

    @property
    def right_slope(self) -> Fraction:
        return Fraction(self._sn[-1], self._sd)

    def _line(self, i: int, x: Fraction) -> Fraction:
        """Piece i's line at x, exactly."""
        return Fraction(self._sn[i], self._sd) * x + Fraction(self._cn[i], self._cd)

    # ------------------------------------------------------------------ #
    # evaluation
    # ------------------------------------------------------------------ #

    def __call__(self, x):
        """Evaluate at a nonnegative finite float or array of floats."""
        bps, slopes, icepts = self._float_views()
        if isinstance(x, np.ndarray):
            _check_array(x, "evaluation point", nonnegative=True)
            idx = piece_index(bps, x)
            return slopes[idx] * x + icepts[idx]
        xf = float(x)
        _check_scalar(xf, "evaluation point", nonnegative=True)
        idx = int(np.searchsorted(bps, xf, side="left"))
        return float(slopes[idx] * xf + icepts[idx])

    def eval_exact(self, x: Scalar) -> Fraction:
        """Evaluate with exact rational arithmetic."""
        xq = _frac(x)
        if xq < 0:
            raise ValueError("evaluation point must be nonnegative")
        # With x = p/q, breakpoint bn/bd >= x iff bn*q >= p*bd.
        p, q, bd = xq.numerator, xq.denominator, self._bd
        i = bisect_left(self._bn, p * bd, key=lambda n: n * q)
        return self._line(i, xq)

    # ------------------------------------------------------------------ #
    # structure queries
    # ------------------------------------------------------------------ #

    def is_convex(self) -> bool:
        """Exact check: slopes nondecreasing left to right."""
        sn = self._sn
        return all(a <= b for a, b in zip(sn, sn[1:]))

    def slopes_at(self, x):
        """(left slope, right slope) at x, which differ only at a kink: two
        floats for a float, two arrays of x's shape for an array."""
        if not isinstance(x, np.ndarray):  # a scalar is the array rule at n=1
            left, right = self.slopes_at(np.array([x], dtype=float))
            return float(left[0]), float(right[0])
        _check_array(x, "evaluation point", nonnegative=True)
        bps, slopes, _ = self._float_views()
        i = piece_index(bps, x)
        on_kink = x == bps[np.minimum(i, bps.size - 1)]  # x > bps[-1] at i == K
        return slopes[i], slopes[i + on_kink]

    # ------------------------------------------------------------------ #
    # dunder plumbing
    # ------------------------------------------------------------------ #

    def _key(self):
        return (self._bn, self._bd, self._sn, self._sd, self._cn, self._cd)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PwlFunction):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        pts = ", ".join(
            f"({float(b):g}, {float(v):g})"
            for b, v in zip(self.breakpoints, self.values)
        )
        return (
            f"PwlFunction([{pts}], left={float(self.left_slope):g}, "
            f"right={float(self.right_slope):g})"
        )


# ---------------------------------------------------------------------- #
# payoff constructors
# ---------------------------------------------------------------------- #


def call_payoff(strike: Scalar) -> PwlFunction:
    """(x - strike)^+ ."""
    k = _frac(strike)
    if k <= 0:
        raise ValueError("strike must be positive")
    return PwlFunction([k], [0], left_slope=0, right_slope=1)


def put_payoff(strike: Scalar) -> PwlFunction:
    """(strike - x)^+ ."""
    k = _frac(strike)
    if k <= 0:
        raise ValueError("strike must be positive")
    return PwlFunction([k], [0], left_slope=-1, right_slope=0)


# ---------------------------------------------------------------------- #
# operations
# ---------------------------------------------------------------------- #


def scale_compose(f: PwlFunction, k: Scalar) -> PwlFunction:
    """Return x -> f(k*x) for k > 0 (breakpoints divide by k, slopes scale).

    Each piece s*y + c of f becomes (s*k)*x + c, so the intercepts carry
    over and, with k = p/q, the other two lists only multiply their
    numerators and denominator by p or q.  No engine calls it: it is kept
    for the ``pwl.algebra`` hook of ``perfbench/tracer.py`` until ROADMAP
    item 11 replaces those hooks.
    """
    p, q = _ratio(k, "scale factor")
    return PwlFunction._from_ints(
        _reduce(_times(f._bn, q), f._bd * p),
        _reduce(_times(f._sn, p), f._sd * q),
        (f._cn, f._cd),
    )


def _ratio(k: Scalar, what: str) -> tuple[int, int]:
    """(p, q) with k = p/q exactly, for k > 0."""
    kq = _frac(k)
    if kq <= 0:
        raise ValueError(f"{what} must be positive, got {k}")
    return kq.numerator, kq.denominator


def _drop_collinear(xs, slopes, icepts):
    """Remove breakpoints where the slope does not actually change (exact).

    ``slopes`` and ``icepts`` hold one numerator per piece, len(xs) + 1
    each, over one denominator per list; a dropped breakpoint joins two
    pieces on one line, so the left one stays.
    """
    keep = [k for k in range(len(xs)) if slopes[k] != slopes[k + 1]]
    if not keep:  # globally affine: keep one anchor
        keep = [0]
    pieces = [0] + [k + 1 for k in keep]
    return (
        [xs[k] for k in keep],
        [slopes[p] for p in pieces],
        [icepts[p] for p in pieces],
    )


def convex_combine(f: PwlFunction, g: PwlFunction, lam: Scalar) -> PwlFunction:
    """lam*f + (1-lam)*g on the merged breakpoint set, lam in [0, 1].

    No engine calls it: it is kept for the ``pwl.algebra`` hook of
    ``perfbench/tracer.py`` until ROADMAP item 11 replaces those hooks.
    """
    return scaled_combine(f, 1, g, 1, lam)


def scaled_combine(
    f: PwlFunction, kf: Scalar, g: PwlFunction, kg: Scalar, lam: Scalar
) -> PwlFunction:
    """x -> lam*f(kf*x) + (1-lam)*g(kg*x) for kf, kg > 0 and lam in [0, 1].

    With lam = ln/ld this is the integer-weighted combination of
    `_scaled_pieces` with weights ln and ld - ln, over ld.
    """
    lq = _frac(lam)
    if not 0 <= lq <= 1:
        raise ValueError(f"weight must lie in [0, 1], got {lam}")
    ln, ld = lq.numerator, lq.denominator
    (xs, bd), (slopes, sd), (icepts, cd) = _scaled_pieces(f, kf, ln, g, kg, ld - ln)
    xs, slopes, icepts = _drop_collinear(xs, slopes, icepts)
    return PwlFunction._from_ints(
        _reduce(xs, bd), _reduce(slopes, ld * sd), _reduce(icepts, ld * cd)
    )


def _scaled_pieces(
    f: PwlFunction, kf: Scalar, wf: int, g: PwlFunction, kg: Scalar, wg: int
):
    """Pieces of x -> wf*f(kf*x) + wg*g(kg*x) for kf, kg > 0 and integer
    weights wf, wg of either sign, before collinear breakpoints are dropped.

    One merge of the scaled breakpoint lists, brought to one denominator.
    Each merged piece lies in one piece of f(kf*x) and one of g(kg*x), so
    its slope and intercept are integer combinations of theirs: with
    kf = pf/qf, f's slopes enter as wf*pf*sn over qf*sd, and its intercepts
    as wf*cn over cd.  Returns unreduced (numerators, denominator) lists of
    the merged breakpoints and of every piece's slope and intercept.
    """
    pf, qf = _ratio(kf, "scale factor")
    pg, qg = _ratio(kg, "scale factor")
    # f(kf*x) has breakpoints bn*qf / (bd*pf) and slopes sn*pf / (sd*qf).
    bd, uf, ug = _lcm_factors(f._bd * pf, g._bd * pg)
    xa, xb = _times(f._bn, qf * uf), _times(g._bn, qg * ug)
    # Merged gap k (ending at xs[k]) lies in gap i of xa and gap j of xb.
    xs, pieces, i, j, na, nb = [], [(0, 0)], 0, 0, len(xa), len(xb)
    while i < na or j < nb:
        x = xa[i] if j == nb else xb[j] if i == na else min(xa[i], xb[j])
        xs.append(x)
        i += i < na and xa[i] == x
        j += j < nb and xb[j] == x
        pieces.append((i, j))
    sd, uf, ug = _lcm_factors(f._sd * qf, g._sd * qg)
    sf, sg = _times(f._sn, wf * pf * uf), _times(g._sn, wg * pg * ug)
    cd, uf, ug = _lcm_factors(f._cd, g._cd)
    cf, cg = _times(f._cn, wf * uf), _times(g._cn, wg * ug)
    slopes = [sf[i] + sg[j] for i, j in pieces]
    icepts = [cf[i] + cg[j] for i, j in pieces]
    return (xs, bd), (slopes, sd), (icepts, cd)


def upper_concave_envelope(f: PwlFunction, dom: Interval) -> PwlFunction:
    """Smallest concave function dominating f on dom (exact upper hull).

    The hull is built over the graph points at dom's endpoints and f's
    interior breakpoints (sufficient for piecewise-linear f).  For convex f
    the result is the chord through the endpoints.  The returned function is
    defined on dom; outside it the end segments extend linearly.  A
    degenerate dom (lo == hi) yields the constant f(lo).
    """
    lo, hi = _frac(dom.lo), _frac(dom.hi)
    if lo == hi:
        return PwlFunction([lo], [f.eval_exact(lo)], 0, 0)

    pts = [(lo, f.eval_exact(lo))]
    pts += [(b, v) for b, v in zip(f.breakpoints, f.values) if lo < b < hi]
    pts.append((hi, f.eval_exact(hi)))

    # Andrew's monotone chain, upper hull only: drop a middle point whenever
    # it does not lie strictly above the chord of its neighbours.
    hull: list[tuple[Fraction, Fraction]] = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (p[1] - y1) - (y2 - y1) * (p[0] - x1) >= 0:
                hull.pop()
            else:
                break
        hull.append(p)

    # lo < hi are never popped (only middle points are), so len(hull) >= 2.
    xs = [p[0] for p in hull]
    ys = [p[1] for p in hull]
    first = (ys[1] - ys[0]) / (xs[1] - xs[0])
    last = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
    return PwlFunction(xs, ys, left_slope=first, right_slope=last)
