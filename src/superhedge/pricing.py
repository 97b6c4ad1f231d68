"""Backward super-hedging valuation under interval price uncertainty.

The market quotes the next executed price only as a multiplicative interval
[k_down * s, k_up * s] around the last executed price s.  The minimal
super-hedging value of a claim is obtained one step at a time: restrict the
next-step value function to the support interval, take its upper concave
envelope, and read off the value at s and a superdifferential slope as the
holding.  For convex claims this collapses to a chord formula whose weights

    lam = (k_up - 1) / (k_up - k_down)

are independent of s, so the whole multi-step recursion stays inside the
piecewise-linear class and is evaluated exactly.

The no-arbitrage requirement (nonnegative claims must have nonnegative
prices) reduces here to k_down <= 1 <= k_up at every step; outside that the
one-step value is minus infinity.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .pwl import (
    Interval,
    PwlFunction,
    _check_array,
    _check_scalar,
    piece_index,
    scaled_combine,
    upper_concave_envelope,
)

MINUS_INFINITY = float("-inf")


class AipViolationError(ValueError):
    """A step's support interval does not contain the current price."""

    def __init__(self, step: int, k_down: float, k_up: float):
        self.step = step
        self.k_down = k_down
        self.k_up = k_up
        super().__init__(
            f"no-arbitrage condition k_down <= 1 <= k_up fails at step {step}: "
            f"1 not in [{k_down}, {k_up}]"
        )


@dataclass(frozen=True)
class StepSpec:
    """One trading step: essential support multipliers plus draw distributions.

    k_down / k_up bound the executed-price ratio S_t / S_{t-1}.  The optional
    uniform-draw parameters describe how the simulator samples the interval:
    the lower edge m ~ U[m_lo, m_hi] and the spread spr ~ U[spr_lo, spr_hi],
    upper edge M = m + spr.  When they are given they must be consistent with
    the essential bounds, k_down == m_lo and k_up == m_hi + spr_hi up to 1e-12,
    and the step keeps the draws' exact support [m_lo, m_hi + spr_hi].

    `exact` holds the step's exact data for the recursion, derived once per
    instance on first read; it is not a field, so ``==``, ``hash`` and
    ``repr`` see only the six floats above.
    """

    k_down: float
    k_up: float
    m_lo: Optional[float] = None
    m_hi: Optional[float] = None
    spr_lo: Optional[float] = None
    spr_hi: Optional[float] = None

    def __post_init__(self):
        # NaN fails every comparison, so the chain refuses it too.
        if not 0.0 < self.k_down <= self.k_up < math.inf:
            raise ValueError(
                f"need 0 < k_down <= k_up < inf, got ({self.k_down}, {self.k_up})"
            )
        dist = (self.m_lo, self.m_hi, self.spr_lo, self.spr_hi)
        given = [d is not None for d in dist]
        if any(given) and not all(given):
            raise ValueError("either give all distribution bounds or none")
        if all(given):
            if not 0.0 < self.m_lo <= self.m_hi:
                raise ValueError("need 0 < m_lo <= m_hi")
            if not 0.0 <= self.spr_lo <= self.spr_hi:
                raise ValueError("need 0 <= spr_lo <= spr_hi")
            if not _close(self.k_down, self.m_lo) or not _close(
                self.k_up, self.m_hi + self.spr_hi
            ):
                raise ValueError(
                    "distribution bounds inconsistent with essential bounds: "
                    f"expect k_down == m_lo and k_up == m_hi + spr_hi, got "
                    f"k=({self.k_down}, {self.k_up}), m=[{self.m_lo}, {self.m_hi}], "
                    f"spr=[{self.spr_lo}, {self.spr_hi}]"
                )
            object.__setattr__(self, "k_down", self.m_lo)
            object.__setattr__(self, "k_up", self.m_hi + self.spr_hi)

    @classmethod
    def from_uniform(
        cls, m_lo: float, m_hi: float, spr_lo: float, spr_hi: float
    ) -> "StepSpec":
        """Build a step whose essential bounds follow from the draw ranges."""
        return cls(
            k_down=m_lo,
            k_up=m_hi + spr_hi,
            m_lo=m_lo,
            m_hi=m_hi,
            spr_lo=spr_lo,
            spr_hi=spr_hi,
        )

    @property
    def has_distribution(self) -> bool:
        return self.m_lo is not None

    @cached_property
    def exact(self) -> tuple[Fraction, Fraction, Fraction]:
        """(k_down, k_up, lam) as exact rationals, with the chord weight
        lam = (k_up - 1) / (k_up - k_down); 1/2 on a degenerate step
        (k_down == k_up), whose two chord ends coincide."""
        kd, ku = Fraction(self.k_down), Fraction(self.k_up)
        return kd, ku, Fraction(1, 2) if kd == ku else (ku - 1) / (ku - kd)


def _close(a: float, b: float, tol: float = 1e-12) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


@dataclass(frozen=True)
class MarketModel:
    """Last traded price plus one StepSpec per step t = 0..horizon."""

    s_init: float
    horizon: int
    steps: tuple[StepSpec, ...]

    def __post_init__(self):
        _check_scalar(self.s_init, "s_init")
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        steps = tuple(self.steps)
        if len(steps) != self.horizon + 1:
            raise ValueError(
                f"need horizon+1 = {self.horizon + 1} steps, got {len(steps)}"
            )
        object.__setattr__(self, "steps", steps)


def uniform_bid_ask_model(
    s_init: float = 100.0,
    horizon: int = 2,
    m_range: tuple[float, float] = (0.7, 1.0),
    spr_range: tuple[float, float] = (0.0, 0.4),
) -> MarketModel:
    """Model with identical uniform draw ranges at every step."""
    step = StepSpec.from_uniform(m_range[0], m_range[1], spr_range[0], spr_range[1])
    return MarketModel(s_init=s_init, horizon=horizon, steps=(step,) * (horizon + 1))


# ---------------------------------------------------------------------- #
# no-arbitrage check
# ---------------------------------------------------------------------- #


def check_aip(model: MarketModel) -> tuple[bool, ...]:
    """Per-step verdicts of the no-arbitrage condition k_down <= 1 <= k_up;
    the zero claim prices to zero at every step iff all of them hold."""
    return tuple(s.k_down <= 1.0 <= s.k_up for s in model.steps)


def require_aip(model: MarketModel):
    """Raise AipViolationError at the first step where check_aip fails."""
    verdicts = check_aip(model)
    if not all(verdicts):
        t = verdicts.index(False)
        raise AipViolationError(t, model.steps[t].k_down, model.steps[t].k_up)


# ---------------------------------------------------------------------- #
# one-step valuation
# ---------------------------------------------------------------------- #


class OneStepQuote(NamedTuple):
    price: float  # -inf when the current price lies outside the support hull
    theta: float  # nan when price is -inf


def one_step_price(
    g_next: PwlFunction, s_prev: float, step: StepSpec
) -> OneStepQuote:
    """Minimal one-step super-hedging value and a hedging slope.

    With support [m, M] = [k_down * s_prev, k_up * s_prev]: if s_prev lies
    outside, no finite price exists (returns -inf).  Otherwise the value is
    the upper concave envelope of g_next on [m, M] evaluated at s_prev and
    theta is the midpoint of the envelope's superdifferential there: the
    mean of its one-sided slopes, or the inward one at an end of [m, M].
    Each value is the exact one at s_prev, correctly rounded.
    """
    _check_scalar(s_prev, "s_prev")
    kd, ku = step.k_down, step.k_up
    if kd == ku:
        if kd == 1.0:  # deterministic next price equal to s_prev
            return OneStepQuote(float(g_next.eval_exact(s_prev)), 0.0)
        return OneStepQuote(MINUS_INFINITY, math.nan)
    if not kd <= 1.0 <= ku:
        return OneStepQuote(MINUS_INFINITY, math.nan)
    dom = Interval(kd * s_prev, ku * s_prev)
    h = upper_concave_envelope(g_next, dom)
    s = float(s_prev)
    left, right = h.slopes_at(s)
    if s == dom.lo:  # at an end of the support only the inward slope exists
        theta = right
    elif s == dom.hi:
        theta = left
    else:
        theta = 0.5 * (right + left)
    return OneStepQuote(float(h.eval_exact(s)), theta)


# ---------------------------------------------------------------------- #
# multi-step recursion
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class PricingResult:
    """Backward value functions and chord weights.

    value_fns[t] is the time-t value function g_t for t = 0..horizon
    (value_fns[-1] is the payoff itself).  lambdas[t] is the chord weight of
    step t; it lies in [0, 1] exactly when that step passes the
    no-arbitrage check.
    """

    value_fns: tuple[PwlFunction, ...]
    lambdas: tuple[float, ...]

    @property
    def horizon(self) -> int:
        return len(self.value_fns) - 1

    @property
    def payoff(self) -> PwlFunction:
        return self.value_fns[-1]

    def strategy(self, t: int, model: MarketModel) -> "StrategyFn":
        _require_horizon(self, model)
        if not 0 <= t < self.horizon:
            raise ValueError(f"strategy index must lie in [0, {self.horizon})")
        step = model.steps[t + 1]
        return StrategyFn(self.value_fns[t + 1], step.k_down, step.k_up)


def _require_horizon(result: PricingResult, model: MarketModel):
    """Refuse a model whose horizon is not the one ``result`` was priced on."""
    if result.horizon != model.horizon:
        raise ValueError(f"pricing horizon {result.horizon} != model's {model.horizon}")


class StrategyFn:
    """Order mapping s -> theta_t(s) derived from the next value function.

    theta_t(s) = (g_{t+1}(k_up s) - g_{t+1}(k_down s)) / ((k_up - k_down) s).
    When both chord ends fall in one linear piece of g_{t+1} the piece slope
    is returned exactly, so flat and unit-slope regions give literal 0 / 1.
    Nondecreasing in s whenever g_{t+1} is convex.
    """

    __slots__ = ("g_next", "k_down", "k_up")

    def __init__(self, g_next: PwlFunction, k_down: float, k_up: float):
        self.g_next = g_next
        self.k_down = float(k_down)
        self.k_up = float(k_up)

    def __call__(self, s):
        if not isinstance(s, np.ndarray):  # a scalar is the array rule at n=1
            return float(self(np.array([s], dtype=float))[0])
        _check_array(s, "price")
        g, kd, ku = self.g_next, self.k_down, self.k_up
        if kd == ku:
            left, right = g.slopes_at(kd * s)
            return 0.5 * (left + right) * kd
        a, b = kd * s, ku * s
        bps, slopes, icepts = g._float_views()
        ia = piece_index(bps, a)
        ib = piece_index(bps, b)
        slope_a = slopes[ia]
        g_a = slope_a * a + icepts[ia]
        g_b = slopes[ib] * b + icepts[ib]
        chord = (g_b - g_a) / ((ku - kd) * s)
        return np.where(ia == ib, slope_a, chord)


def require_convex(payoff: PwlFunction):
    """Refuse a payoff the chord recursion cannot price (ValueError)."""
    if not payoff.is_convex():
        raise ValueError(
            "payoff must be convex for the chord recursion; "
            "use one_step_price (envelope) or asian_tree_price for other claims"
        )


def backward_induce(payoff: PwlFunction, model: MarketModel) -> PricingResult:
    """Propagate the payoff back to time 0 through the chord recursion.

    Requires a convex payoff (the piecewise-linear recursion

        g_{t-1}(x) = lam * g_t(k_down x) + (1 - lam) * g_t(k_up x)

    prices convex claims exactly) and the no-arbitrage condition at every
    step.  value_fns[0] evaluated at an executed first price is the minimal
    initial portfolio value; the constant premium to quote before execution
    is its supremum over the step-0 support, see `initial_premium`.
    """
    require_convex(payoff)
    require_aip(model)

    T = model.horizon
    fns: list[Optional[PwlFunction]] = [None] * (T + 1)
    fns[T] = payoff
    for t in range(T, 0, -1):
        kd, ku, lam = model.steps[t].exact
        g_t = fns[t]
        if kd == ku:  # AIP forces kd == ku == 1: g_{t-1}(x) = g_t(x)
            fns[t - 1] = g_t
        else:
            fns[t - 1] = scaled_combine(g_t, kd, g_t, ku, lam)
    lambdas = tuple(_chord_weight(s) for s in model.steps)
    return PricingResult(value_fns=tuple(fns), lambdas=lambdas)


def _chord_weight(step: StepSpec) -> float:
    if step.k_down == step.k_up:
        return 0.5  # continuity limit of (k_up - 1)/(k_up - k_down)
    return (step.k_up - 1.0) / (step.k_up - step.k_down)


def initial_premium(result: PricingResult, model: MarketModel) -> float:
    """Smallest constant premium dominating the time-0 value on its support.

    The time-0 value is revealed only with the first execution, so the
    quoted premium must dominate it over the whole step-0 support interval.
    g_0 is evaluated on plain floats, a piece lookup and one multiply-add
    each: the bits of ``g0(x)``.
    """
    g0 = result.value_fns[0]
    step = model.steps[0]
    lo, hi = step.k_down * model.s_init, step.k_up * model.s_init
    _check_scalar(hi, "evaluation point", nonnegative=True)
    bps, slopes, icepts = (a.tolist() for a in g0._float_views())

    def value(x: float) -> float:
        i = bisect_left(bps, x)
        return slopes[i] * x + icepts[i]

    return max(map(value, [lo, hi] + [b for b in bps if lo < b < hi]))


# ---------------------------------------------------------------------- #
# path-dependent claims
# ---------------------------------------------------------------------- #

TREE_DEPTH_CAP = 20  # deepest tree any tree walk visits: 2^20 leaves


def asian_tree_price(
    payoff: Callable[[Sequence[float]], float], model: MarketModel, s0: float
) -> float:
    """Minimal super-hedging value of a path-dependent claim, by tree walk.

    `payoff` maps a full executed-price path (s_0, ..., s_T) of floats to a
    float; it must be convex in its last argument for every fixed prefix.
    The chord recursion is applied path-wise over the (k_down, k_up)
    multiplier tree rooted at the executed first price s0, giving the time-0
    value; the simulation engine for path-dependent claims runs the same walk.
    The tree has 2^horizon leaves, so horizons above the fixed cap
    TREE_DEPTH_CAP are refused.
    """
    _check_scalar(s0, "s0")
    require_tree_depth(model.horizon)
    require_aip(model)
    return float(_tree_value(payoff, model, (float(s0),), 0))


def require_tree_depth(horizon: int):
    """Refuse a horizon above TREE_DEPTH_CAP: a tree walk visits 2^horizon
    leaves (ValueError)."""
    if horizon > TREE_DEPTH_CAP:
        raise ValueError(
            f"horizon {horizon} exceeds the tree depth cap {TREE_DEPTH_CAP} "
            f"(2^{horizon} leaves)"
        )


def _tree_value(leaf, model: MarketModel, prefix: tuple, t: int):
    """Time-t value of a path-dependent claim, prefix = (s_0, ..., s_t).

    The chord recursion over the (k_down, k_up) multiplier tree below the
    prefix; ``leaf`` values a full path (s_0, ..., s_T).  The prefix holds
    floats, or equal-length arrays with one lane per path.
    """
    if t == model.horizon:
        return leaf(prefix)
    step = model.steps[t + 1]
    s_t = prefix[-1]
    down = _tree_value(leaf, model, prefix + (step.k_down * s_t,), t + 1)
    if step.k_down == step.k_up:
        return down
    up = _tree_value(leaf, model, prefix + (step.k_up * s_t,), t + 1)
    lam = _chord_weight(step)
    return lam * down + (1.0 - lam) * up


def asian_call_payoff(strike: float) -> Callable[[Sequence[float]], float]:
    """(mean of the executed path - strike)^+ .

    Takes a path of floats (returns a float) or a tuple of equal-length
    arrays, one lane per path (returns an array).
    """
    _check_scalar(strike, "strike")

    def payoff(path: Sequence[float]) -> float:
        excess = sum(path) / len(path) - strike
        if excess.__class__ is float:  # cheaper than isinstance on the tree walk
            return max(excess, 0.0)
        return np.maximum(excess, 0.0)

    return payoff
