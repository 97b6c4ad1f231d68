"""Exact algebra for continuous piecewise-linear functions on [0, inf).

Functions are stored as breakpoint/value lists plus two extension slopes,
with all coordinates kept as exact rationals (`fractions.Fraction`).  Every
float is itself an exact rational, so accepting floats loses nothing, and
keeping rationals internally means kinks, chord slopes and concave envelopes
are computed without rounding: the flat region of a call payoff evaluates to
exactly 0.0 and its linear tail to exactly ``x - K``.  This is what lets the
hedging error of an exactly-replicated path come out as exactly zero instead
of +/- 1e-14 noise.

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

# Default absolute tolerance for affine-domination tests.
DOMINATION_TOL = 1e-12

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
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def is_degenerate(self) -> bool:
        return self.lo == self.hi

    def contains(self, x: float, tol: float = 0.0) -> bool:
        return self.lo - tol <= x <= self.hi + tol


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


@dataclass(frozen=True)
class AffineFunction:
    """a(x) = slope * x + intercept."""

    slope: float
    intercept: float

    def __post_init__(self):
        if not (np.isfinite(self.slope) and np.isfinite(self.intercept)):
            raise ValueError("affine coefficients must be finite")

    def __call__(self, x):
        if isinstance(x, np.ndarray):
            return self.slope * x + self.intercept
        return self.slope * float(x) + self.intercept


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
    """

    __slots__ = (
        "breakpoints",
        "values",
        "left_slope",
        "right_slope",
        "_slopes",
        "_icepts",
        "_bps_f",
        "_slopes_f",
        "_icepts_f",
    )

    def __init__(
        self,
        breakpoints: Sequence[Scalar],
        values: Sequence[Scalar],
        left_slope: Scalar = 0,
        right_slope: Scalar = 0,
    ):
        self._init(
            tuple(_frac(b) for b in breakpoints),
            tuple(_frac(v) for v in values),
            _frac(left_slope),
            _frac(right_slope),
        )

    @classmethod
    def _from_pieces(
        cls,
        bps: tuple[Fraction, ...],
        vals: tuple[Fraction, ...],
        slopes: tuple[Fraction, ...],
        icepts: tuple[Fraction, ...],
    ) -> "PwlFunction":
        """Build from exact coordinates plus the exact slope and intercept of
        every piece, which the caller already knows; nothing is divided."""
        f = cls.__new__(cls)
        f._init(bps, vals, slopes[0], slopes[-1], slopes, icepts)
        return f

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #

    def _init(self, bps, vals, left, right, slopes=None, icepts=None):
        if len(bps) == 0:
            raise ValueError("need at least one breakpoint")
        if len(bps) != len(vals):
            raise ValueError("breakpoints and values must have equal length")
        if bps[0] < 0:
            raise ValueError("breakpoints must be nonnegative")
        for a, b in zip(bps, bps[1:]):
            if not a < b:
                raise ValueError("breakpoints must be strictly increasing")
        self.breakpoints = bps
        self.values = vals
        self.left_slope = left
        self.right_slope = right
        self._build_float_cache(slopes, icepts)

    def _build_float_cache(self, slopes=None, icepts=None):
        """Exact per-piece slopes and intercepts, and their float images.

        Piece 0 is the left extension, piece i (0 < i < n) spans
        [bps[i-1], bps[i]] and piece n is the right extension, so
        ``bisect_left(bps, x)`` is the piece holding x.
        """
        bps, vals = self.breakpoints, self.values
        n = len(bps)
        if slopes is None:
            seg = [
                (vals[i + 1] - vals[i]) / (bps[i + 1] - bps[i])
                for i in range(n - 1)
            ]
            slopes = (self.left_slope, *seg, self.right_slope)
            # Piece i is anchored at a breakpoint lying inside its closure.
            anchors = (*range(n), n - 1)
            icepts = tuple(vals[a] - s * bps[a] for s, a in zip(slopes, anchors))
        self._slopes = slopes
        self._icepts = icepts
        self._bps_f = np.array([float(b) for b in bps])
        self._slopes_f = np.array([float(s) for s in slopes])
        self._icepts_f = np.array([float(c) for c in icepts])

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
        slopes = self._slopes
        return all(a <= b for a, b in zip(slopes, slopes[1:]))

    def is_concave(self) -> bool:
        slopes = self._slopes
        return all(a >= b for a, b in zip(slopes, slopes[1:]))

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

    def __eq__(self, other) -> bool:
        if not isinstance(other, PwlFunction):
            return NotImplemented
        return (
            self.breakpoints == other.breakpoints
            and self.values == other.values
            and self.left_slope == other.left_slope
            and self.right_slope == other.right_slope
        )

    def __hash__(self):
        return hash(
            (self.breakpoints, self.values, self.left_slope, self.right_slope)
        )

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

    Each piece s*y + c of f becomes (s*k)*x + c, so the exact piece data
    carries over without a division.
    """
    kq = _frac(k)
    if kq <= 0:
        raise ValueError(f"scale factor must be positive, got {k}")
    return PwlFunction._from_pieces(
        tuple(b / kq for b in f.breakpoints),
        f.values,
        tuple(s * kq for s in f._slopes),
        f._icepts,
    )


def _drop_collinear(xs, ys, slopes, icepts):
    """Remove breakpoints where the slope does not actually change (exact).

    ``slopes`` and ``icepts`` hold one entry per piece, len(xs) + 1 each; a
    dropped breakpoint joins two pieces on one line, so the left one stays.
    """
    keep = [k for k in range(len(xs)) if slopes[k] != slopes[k + 1]]
    if not keep:  # globally affine: keep one anchor
        keep = [0]
    pieces = [0] + [k + 1 for k in keep]
    return (
        tuple(xs[k] for k in keep),
        tuple(ys[k] for k in keep),
        tuple(slopes[p] for p in pieces),
        tuple(icepts[p] for p in pieces),
    )


def merge_pieces(xa: Sequence[Fraction], xb: Sequence[Fraction]):
    """Merge two strictly increasing sequences in one pass.

    Returns (xs, pieces): xs is the sorted union, and pieces[k] = (i, j) says
    that the k-th gap of xs (from xs[k-1] to xs[k], open-ended at both ends)
    lies in gap i of xa and gap j of xb.
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
    """lam*f + (1-lam)*g on the merged breakpoint set, lam in [0, 1].

    Each merged piece lies in one piece of f and one of g, so its slope and
    intercept are the weighted piece data, and the value at a breakpoint is
    the piece ending there evaluated at it.
    """
    lq = _frac(lam)
    if not 0 <= lq <= 1:
        raise ValueError(f"weight must lie in [0, 1], got {lam}")
    mq = 1 - lq
    xs, pieces = merge_pieces(f.breakpoints, g.breakpoints)
    slopes = [lq * f._slopes[i] + mq * g._slopes[j] for i, j in pieces]
    icepts = [lq * f._icepts[i] + mq * g._icepts[j] for i, j in pieces]
    ys = [s * x + c for s, c, x in zip(slopes, icepts, xs)]
    return PwlFunction._from_pieces(*_drop_collinear(xs, ys, slopes, icepts))


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

    xs = [p[0] for p in hull]
    ys = [p[1] for p in hull]
    if len(xs) == 1:  # cannot happen for lo < hi, kept for safety
        return PwlFunction(xs, ys, 0, 0)
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


def dominates(
    a: AffineFunction, f: PwlFunction, dom: Interval, tol: float = DOMINATION_TOL
) -> bool:
    """True iff a(x) >= f(x) - tol on dom (checked at breakpoints + endpoints)."""
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    xs = [dom.lo] + [
        float(b) for b in f.breakpoints if dom.lo < float(b) < dom.hi
    ] + [dom.hi]
    return all(a(x) >= f(x) - tol for x in xs)
