"""Exact affine-domination checks for the envelope tests.

A line dominates a piecewise-linear function on [lo, hi] iff it lies on or
above it at lo, hi and at every breakpoint between them.  Every check here
compares exact rationals (`PwlFunction.eval_exact`), with no tolerance.
"""

from fractions import Fraction

from superhedge.pwl import PwlFunction


def piece_slopes(f: PwlFunction) -> tuple[Fraction, ...]:
    """f's slopes left to right, extensions included, read off its integer
    numerators over their one denominator."""
    return tuple(Fraction(n, f._sd) for n in f._sn)


def check_points(dom, *fns):
    """dom's ends and the breakpoints of every fn strictly inside it."""
    lo, hi = Fraction(dom.lo), Fraction(dom.hi)
    inner = {b for f in fns for b in f.breakpoints if lo < b < hi}
    return [lo, *sorted(inner), hi]


def sampled_affine(f, pts, slope, margin):
    """(slope, intercept) of the line of this slope that touches f from above
    on pts, raised by margin; both exact."""
    slope = Fraction(float(slope))
    return slope, max(f.eval_exact(x) - slope * x for x in pts) + Fraction(float(margin))


def dominates(slope, intercept, f, pts) -> bool:
    """slope * x + intercept >= f(x) at every point of pts, exactly."""
    return all(slope * x + intercept >= f.eval_exact(x) for x in pts)


def chord(f, dom):
    """The line through f's graph at dom's ends, on breakpoints lo and hi."""
    lo, hi = Fraction(dom.lo), Fraction(dom.hi)
    ylo, yhi = f.eval_exact(lo), f.eval_exact(hi)
    slope = (yhi - ylo) / (hi - lo)
    return PwlFunction([lo, hi], [ylo, yhi], slope, slope)
