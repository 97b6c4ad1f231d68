"""The path-dependent engine's S* solve and execution rule before the solve
stopped early: every lane is bisected until ROOT_WIDTH_TOL, on every lane
each step, and the rule is written out with nested np.where, as is the
region index the engine's rule reads.  The engine's executed quotes and
regions are compared with these."""

import math

import numpy as np

from superhedge.simulation import _SSTAR_BRACKET, ROOT_WIDTH_TOL, _tree_theta


def functional_sstar(leaf, model, base, t, held, s_prev):
    """Per-path (sstar, sign) of z -> theta_t(base + (z,)) - held.

    Same plateau conventions as OrderSignChange; sstar is NaN where the sign
    is constant on [1 / B, B] * s_prev, B = _SSTAR_BRACKET.  The left end of
    the zero set (first z with delta >= 0) and the right end (first z with
    delta > 0) are bisected together, one lane each, and a lane stops once
    its bracket is narrower than ROOT_WIDTH_TOL relative to its midpoint.
    """
    n = held.size

    def order(lanes):
        pre, th = tuple(p[lanes] for p in base), held[lanes]
        return lambda z: _tree_theta(leaf, model, pre + (z,), t) - th

    lo, hi = (1 / _SSTAR_BRACKET) * s_prev, _SSTAR_BRACKET * s_prev
    f = order(np.concatenate((np.arange(n), np.arange(n))))(np.concatenate((lo, hi)))
    f_lo, f_hi = f[:n], f[n:]
    sign = np.where(f_lo > 0.0, 1.0, np.where(f_hi < 0.0, -1.0, 0.0))
    no_root = (f_lo > 0.0) | (f_hi < 0.0) | ((f_lo == 0.0) & (f_hi == 0.0))
    left = np.flatnonzero(~no_root & (f_lo != 0.0))
    right = np.flatnonzero(~no_root & (f_hi != 0.0))
    lanes = np.concatenate((left, right))
    strict = np.arange(lanes.size) < left.size  # z_left lanes test delta < 0
    a, b, delta = lo[lanes], hi[lanes], order(lanes)
    active = b - a > ROOT_WIDTH_TOL * np.maximum(1.0, 0.5 * (a + b))
    while active.any():
        mid = 0.5 * (a + b)
        d = delta(mid)
        below = np.where(strict, d < 0.0, d <= 0.0)
        a = np.where(active & below, mid, a)
        b = np.where(active & ~below, mid, b)
        active = b - a > ROOT_WIDTH_TOL * np.maximum(1.0, 0.5 * (a + b))
    z = 0.5 * (a + b)
    z_left, z_right = np.zeros(n), np.full(n, math.inf)
    z_left[left], z_right[right] = z[: left.size], z[left.size :]
    inner = np.where(np.isinf(z_right), z_left, 0.5 * (z_left + z_right))
    return np.where(no_root, np.nan, np.where(z_left == 0.0, z_right, inner)), sign


def execute(bid, ask, sstar, sign, straddle_to_ask=True):
    """The executed quote of a delayed order with sign-change price sstar."""
    no_root = np.isnan(sstar)
    closer_bid = np.abs(sstar - bid) <= np.abs(sstar - ask)
    straddle = closer_bid if straddle_to_ask else ~closer_bid
    with np.errstate(invalid="ignore"):
        ruled = np.where(
            ask <= sstar, bid, np.where(sstar <= bid, ask, np.where(straddle, ask, bid))
        )
    return np.where(no_root, np.where(sign <= 0.0, bid, ask), ruled)


def region(bid, ask, sstar):
    """simulation._region written with nested np.where: 3 at or above the ask
    (tested first), 0 at or below the bid, else 1 where S* is at least as
    close to the bid as to the ask and 2 otherwise, as int8."""
    closer_bid = np.abs(sstar - bid) <= np.abs(sstar - ask)
    inside = np.where(closer_bid, np.int8(1), np.int8(2))
    return np.where(ask <= sstar, np.int8(3), np.where(sstar <= bid, np.int8(0), inside))
