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
(`scale_compose`, `scaled_combine`, `convex_combine`) and the convexity
checks run on integers with one gcd per list instead of one per operation.
`fractions.Fraction` views are built only when a slow path reads them.

Evaluation is vectorised: each function caches per-piece slope/intercept
float arrays, so evaluating on a million-element numpy array is one piece
lookup (`piece_index`: counted comparisons on short tables, a binary search
on long ones) plus one multiply-add.
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


def _fractions(nums: Sequence[int], den: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(n, den) for n in nums)


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

    @property
    def is_degenerate(self) -> bool:
        return self.lo == self.hi

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi


@dataclass(frozen=True)
class SlopeInterval:
    """Superdifferential of a concave function at a point: [lo, hi] slopes.

    ``lo`` is the right-hand slope, ``hi`` the left-hand slope (for a concave
    function right <= left).  ``at_boundary`` marks evaluation at an endpoint
    of the domain, where only the one-sided slope exists and is repeated.
    """

    lo: float
    hi: float
    at_boundary: bool = False

    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)


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
    integers.  The ``Fraction`` views (`breakpoints`, `values`, the
    extension slopes, ``_slopes`` and ``_icepts``) are built on first use.
    """

    __slots__ = (
        "_bn",
        "_bd",
        "_sn",
        "_sd",
        "_cn",
        "_cd",
        "_bps_f",
        "_slopes_f",
        "_icepts_f",
        "_bps_q",
        "_vals_q",
        "_slopes_q",
        "_icepts_q",
    )

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
        # Int true division is correctly rounded, so n / d is float(Fraction(n, d)).
        self._bps_f = np.array([n / bd for n in bn])
        self._slopes_f = np.array([n / sd for n in sn])
        self._icepts_f = np.array([n / cd for n in cn])
        self._bps_q = self._vals_q = self._slopes_q = self._icepts_q = None

    # ------------------------------------------------------------------ #
    # exact views, built on first use
    # ------------------------------------------------------------------ #

    @property
    def breakpoints(self) -> tuple[Fraction, ...]:
        if self._bps_q is None:
            self._bps_q = _fractions(self._bn, self._bd)
        return self._bps_q

    @property
    def _slopes(self) -> tuple[Fraction, ...]:
        if self._slopes_q is None:
            self._slopes_q = _fractions(self._sn, self._sd)
        return self._slopes_q

    @property
    def _icepts(self) -> tuple[Fraction, ...]:
        if self._icepts_q is None:
            self._icepts_q = _fractions(self._cn, self._cd)
        return self._icepts_q

    @property
    def values(self) -> tuple[Fraction, ...]:
        """Values at the breakpoints: piece i evaluated where it ends."""
        if self._vals_q is None:
            self._vals_q = tuple(
                s * b + c for s, b, c in zip(self._slopes, self.breakpoints, self._icepts)
            )
        return self._vals_q

    @property
    def left_slope(self) -> Fraction:
        return self._slopes[0]

    @property
    def right_slope(self) -> Fraction:
        return self._slopes[-1]

    # ------------------------------------------------------------------ #
    # evaluation
    # ------------------------------------------------------------------ #

    def __call__(self, x):
        """Evaluate at a nonnegative finite float or array of floats."""
        if isinstance(x, np.ndarray):
            # NaN fails every comparison, so the chain refuses it too.
            if x.size and not 0.0 <= x.min() <= x.max() < math.inf:
                bad = x[~((0.0 <= x) & (x < math.inf))][0]
                raise ValueError(
                    f"evaluation point must be nonnegative and finite, got {bad}"
                )
            idx = piece_index(self._bps_f, x)
            return self._slopes_f[idx] * x + self._icepts_f[idx]
        xf = float(x)
        if not 0.0 <= xf < math.inf:
            raise ValueError(
                f"evaluation point must be nonnegative and finite, got {xf}"
            )
        idx = int(np.searchsorted(self._bps_f, xf, side="left"))
        return float(self._slopes_f[idx] * xf + self._icepts_f[idx])

    def eval_exact(self, x: Scalar) -> Fraction:
        """Evaluate with exact rational arithmetic."""
        xq = _frac(x)
        if xq < 0:
            raise ValueError("evaluation point must be nonnegative")
        i = bisect_left(self.breakpoints, xq)
        return self._slopes[i] * xq + self._icepts[i]

    # ------------------------------------------------------------------ #
    # structure queries
    # ------------------------------------------------------------------ #

    def piece_slopes(self) -> tuple[Fraction, ...]:
        """All slopes left to right, extensions included."""
        return self._slopes

    def is_convex(self) -> bool:
        """Exact check: slopes nondecreasing left to right."""
        sn = self._sn
        return all(a <= b for a, b in zip(sn, sn[1:]))

    def is_concave(self) -> bool:
        sn = self._sn
        return all(a >= b for a, b in zip(sn, sn[1:]))

    def slopes_at(self, x: float) -> tuple[float, float]:
        """(left slope, right slope) at x; they differ only at a kink."""
        xf = float(x)
        if not 0.0 <= xf < math.inf:
            raise ValueError(
                f"evaluation point must be nonnegative and finite, got {xf}"
            )
        i = int(np.searchsorted(self._bps_f, xf, side="left"))
        if i < len(self._bps_f) and xf == self._bps_f[i]:
            return float(self._slopes_f[i]), float(self._slopes_f[i + 1])
        return float(self._slopes_f[i]), float(self._slopes_f[i])

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


def constant_function(c: Scalar = 0) -> PwlFunction:
    return PwlFunction([0], [c], left_slope=0, right_slope=0)


# ---------------------------------------------------------------------- #
# operations
# ---------------------------------------------------------------------- #


def scale_compose(f: PwlFunction, k: Scalar) -> PwlFunction:
    """Return x -> f(k*x) for k > 0 (breakpoints divide by k, slopes scale).

    Each piece s*y + c of f becomes (s*k)*x + c, so the intercepts carry
    over and, with k = p/q, the other two lists only multiply their
    numerators and denominator by p or q.
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


def merge_pieces(xa: Sequence, xb: Sequence):
    """Merge two strictly increasing sequences in one pass.

    Returns (xs, pieces): xs is the sorted union, and pieces[k] = (i, j) says
    that the k-th gap of xs (from xs[k-1] to xs[k], open-ended at both ends)
    lies in gap i of xa and gap j of xb.  Rationals over one shared
    denominator merge as their integer numerators.
    """
    xs, pieces = [], [(0, 0)]
    i = j = 0
    na, nb = len(xa), len(xb)
    while i < na or j < nb:
        x = xa[i] if j == nb else xb[j] if i == na else min(xa[i], xb[j])
        xs.append(x)
        i += i < na and xa[i] == x
        j += j < nb and xb[j] == x
        pieces.append((i, j))
    return xs, pieces


def convex_combine(f: PwlFunction, g: PwlFunction, lam: Scalar) -> PwlFunction:
    """lam*f + (1-lam)*g on the merged breakpoint set, lam in [0, 1]."""
    return scaled_combine(f, 1, g, 1, lam)


def scaled_combine(
    f: PwlFunction, kf: Scalar, g: PwlFunction, kg: Scalar, lam: Scalar
) -> PwlFunction:
    """x -> lam*f(kf*x) + (1-lam)*g(kg*x) for kf, kg > 0 and lam in [0, 1].

    One merge of the scaled breakpoint lists, brought to one denominator.
    Each merged piece lies in one piece of f(kf*x) and one of g(kg*x), so
    its slope and intercept are integer combinations of theirs, over one
    denominator per list: with kf = pf/qf and lam = ln/ld, f's slopes enter
    as ln*pf*sn over ld*qf*sd, and its intercepts as ln*cn over ld*cd.
    """
    pf, qf = _ratio(kf, "scale factor")
    pg, qg = _ratio(kg, "scale factor")
    lq = _frac(lam)
    if not 0 <= lq <= 1:
        raise ValueError(f"weight must lie in [0, 1], got {lam}")
    ln, ld = lq.numerator, lq.denominator
    # f(kf*x) has breakpoints bn*qf / (bd*pf) and slopes sn*pf / (sd*qf).
    bd, uf, ug = _lcm_factors(f._bd * pf, g._bd * pg)
    xs, pieces = merge_pieces(_times(f._bn, qf * uf), _times(g._bn, qg * ug))
    sd, uf, ug = _lcm_factors(f._sd * qf, g._sd * qg)
    sf, sg = _times(f._sn, ln * pf * uf), _times(g._sn, (ld - ln) * pg * ug)
    cd, uf, ug = _lcm_factors(f._cd, g._cd)
    cf, cg = _times(f._cn, ln * uf), _times(g._cn, (ld - ln) * ug)
    slopes = [sf[i] + sg[j] for i, j in pieces]
    icepts = [cf[i] + cg[j] for i, j in pieces]
    xs, slopes, icepts = _drop_collinear(xs, slopes, icepts)
    return PwlFunction._from_ints(
        _reduce(xs, bd), _reduce(slopes, ld * sd), _reduce(icepts, ld * cd)
    )


def upper_concave_envelope(f: PwlFunction, dom: Interval) -> PwlFunction:
    """Smallest concave function dominating f on dom (exact upper hull).

    The hull is built over the graph points at dom's endpoints and f's
    interior breakpoints (sufficient for piecewise-linear f).  For convex f
    the result is the chord through the endpoints.  The returned function is
    defined on dom; outside it the end segments extend linearly.  A
    degenerate dom (lo == hi) yields the constant f(lo); detect it via
    ``dom.is_degenerate``.
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


def superdifferential(h: PwlFunction, x: float, dom: Interval) -> SlopeInterval:
    """Slope interval [right slope, left slope] of concave h at x in dom.

    At dom's endpoints only the inward one-sided slope exists; it is
    returned for both ends of the interval and the result is flagged
    ``at_boundary``.
    """
    xf = float(x)
    if not dom.contains(xf):
        raise ValueError(f"{xf} lies outside the domain [{dom.lo}, {dom.hi}]")
    left, right = h.slopes_at(xf)
    if xf == dom.lo:
        return SlopeInterval(right, right, at_boundary=True)
    if xf == dom.hi:
        return SlopeInterval(left, left, at_boundary=True)
    return SlopeInterval(right, left)
