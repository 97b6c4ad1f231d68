"""E(V_0) of a seeded run by quadrature: an oracle for the simulated mean
that shares no code with the simulation.

V_0 = g_0(S_0) with S_0 = s (m + k spr), where m ~ U[m_lo, m_hi],
spr ~ U[spr_lo, spr_hi] and k ~ U[0, 1] are independent.  For fixed
(m, spr), S_0 is uniform on [s m, s (m + spr)], so E[g_0(S_0) | m, spr] is
the mean of g_0 over that interval: a difference of g_0's antiderivative,
which is piecewise quadratic, over the interval's width.  The same holds
for g_0^2, whose antiderivative is piecewise cubic.  What is left, a
smooth-but-for-kinks function of (m, spr), takes a Gauss-Legendre product
rule (Davis & Rabinowitz, Methods of Numerical Integration, ch. 2 and 5).
E(S_0) needs no quadrature: `s0_moments` gives its moments in closed form.
"""

import numpy as np

from superhedge.pricing import MarketModel
from superhedge.pwl import PwlFunction


def _piece_integrals(f: PwlFunction):
    """f's pieces as (start, slope, intercept) arrays, the start of piece i
    being 0 or breakpoint i-1, and the integrals of f and f^2 from 0 to each
    start."""
    bps, slopes, icepts = f._float_views()
    starts = np.concatenate(([0.0], bps))
    ones, twos = _rise(slopes[:-1], icepts[:-1], starts[:-1], bps)
    return (
        starts,
        slopes,
        icepts,
        np.concatenate(([0.0], np.cumsum(ones))),
        np.concatenate(([0.0], np.cumsum(twos))),
    )


def _rise(s, c, a, x):
    """Integrals of s t + c and of (s t + c)^2 over t in [a, x]."""
    width = x - a
    one = width * (0.5 * s * (x + a) + c)
    two = width * (s * s * (x * x + x * a + a * a) / 3.0 + s * c * (x + a) + c * c)
    return one, two


def _antiderivatives(pieces, x):
    """The integrals of f and f^2 from 0 to each x."""
    starts, slopes, icepts, ones, twos = pieces
    i = np.searchsorted(starts[1:], x, side="left")  # the piece holding x
    one, two = _rise(slopes[i], icepts[i], starts[i], x)
    return ones[i] + one, twos[i] + two


def v0_moments(g0: PwlFunction, model: MarketModel, nodes: int = 400):
    """(E[V_0], E[V_0^2]) for V_0 = g0(S_0) under step 0's uniform draws,
    exact in k and by an nodes x nodes Gauss-Legendre rule in (m, spr)."""
    step, s = model.steps[0], float(model.s_init)
    u, w = np.polynomial.legendre.leggauss(nodes)
    m = step.m_lo + (step.m_hi - step.m_lo) * 0.5 * (u + 1.0)
    spr = step.spr_lo + (step.spr_hi - step.spr_lo) * 0.5 * (u + 1.0)
    lo, hi = s * m[:, None], s * (m[:, None] + spr[None, :])
    pieces = _piece_integrals(g0)
    (one_lo, two_lo), (one_hi, two_hi) = (_antiderivatives(pieces, x) for x in (lo, hi))
    weights = np.outer(w, w) / 4.0  # each axis averages over its range
    return (
        float(np.sum(weights * (one_hi - one_lo) / (hi - lo))),
        float(np.sum(weights * (two_hi - two_lo) / (hi - lo))),
    )


def s0_moments(model: MarketModel):
    """(E[S_0], E[S_0^2]) in closed form: S_0 = s (m + k spr) with m, k and
    spr independent uniforms, whose moments are (a + b) / 2 and
    (a^2 + a b + b^2) / 3 on [a, b]."""
    step, s = model.steps[0], float(model.s_init)

    def moments(a, b):
        a, b = float(a), float(b)
        return (a + b) / 2, (a * a + a * b + b * b) / 3

    m1, m2 = moments(step.m_lo, step.m_hi)
    k1, k2 = moments(0, 1)
    d1, d2 = moments(step.spr_lo, step.spr_hi)
    # E(m + k spr)^2 = E m^2 + 2 E m E k E spr + E k^2 E spr^2
    return s * (m1 + k1 * d1), s * s * (m2 + 2 * m1 * k1 * d1 + k2 * d2)
