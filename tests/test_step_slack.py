"""The super-hedge's slack, split exactly into per-step chord gaps.

V_0 = g_0(S_0), V_{t+1} = V_t + theta_t (S_{t+1} - S_t) and g_T = f
telescope to

    V_T - f(S_T) = sum_t delta_t,
    delta_t = g_t(S_t) + theta_t (S_{t+1} - S_t) - g_{t+1}(S_{t+1}).

With the exact chord holding theta*_t, the slope of g_{t+1}'s chord over
[k_down S_t, k_up S_t], the line g_t(S_t) + theta*_t (z - S_t) is that
chord, so gamma_t (delta_t with theta*_t) is the chord's height over the
convex g_{t+1} at the executed price: nonnegative whenever S_{t+1} lies in
the support.  Each delta_t here is formed in Fractions from a run's float
prices and float holdings, with g_t evaluated by `eval_exact`.

The float holding is theta*_t rounded: where both chord ends lie on one
piece of g_{t+1} it is the piece slope as a float, and delta_t is then
(theta_t - theta*_t)(S_{t+1} - S_t) exactly.  A slope that no float holds,
such as the custom claim's 1/3, makes that negative on many paths (1005 of
3000 at T=1), by at most one unit roundoff of the step's gain.
"""

from fractions import Fraction

import numpy as np
import pytest

from collected import collect
from superhedge.pricing import MarketModel, StepSpec, backward_induce, uniform_bid_ask_model
from superhedge.pwl import PwlFunction, call_payoff, put_payoff
from superhedge.simulation import simulate_one

U = Fraction(1, 2**53)  # float64's unit roundoff
N_PATHS = 300

CLAIMS = {
    "call": call_payoff(100),
    "put": put_payoff(100),
    # slopes -1, 1/3, 1: the middle piece spans more than k_up / k_down = 2
    "custom": PwlFunction([40, 190], [30, 80], -1, 1),
}
# A wide step, a degenerate one (k_down == k_up == 1), a narrow one, a wide one
HETEROGENEOUS = MarketModel(
    100.0,
    3,
    (
        StepSpec.from_uniform(0.7, 1.0, 0.0, 0.4),
        StepSpec.from_uniform(1.0, 1.0, 0.0, 0.0),
        StepSpec.from_uniform(0.9, 1.0, 0.0, 0.1),
        StepSpec.from_uniform(0.7, 1.0, 0.0, 0.4),
    ),
)
CASES = [
    pytest.param(uniform_bid_ask_model(100.0, T), claim, id=f"{name}-T{T}")
    for T in (1, 2, 3)
    for name, claim in CLAIMS.items()
]
CASES.append(pytest.param(HETEROGENEOUS, CLAIMS["call"], id="call-heterogeneous"))


def _chord_slope(g_next: PwlFunction, step: StepSpec, s: Fraction, held: Fraction):
    """theta*: the slope of g_next's chord over [k_down s, k_up s]; a
    degenerate step moves no price, so any holding serves."""
    kd, ku, _ = step.exact
    if kd == ku:
        return held
    return (g_next.eval_exact(ku * s) - g_next.eval_exact(kd * s)) / ((ku - kd) * s)


@pytest.mark.parametrize("model, claim", CASES)
def test_slack_splits_into_nonnegative_chord_gaps(model, claim):
    T = model.horizon
    pricing = backward_induce(claim, model)
    g = pricing.value_fns
    _, raw = collect(simulate_one, model, pricing, 100.0, N_PATHS, np.random.SeedSequence(5))
    problems = []
    for i in range(N_PATHS):
        s = [Fraction(float(raw["s"][t][i])) for t in range(T + 1)]
        theta = [Fraction(float(raw["theta"][t][i])) for t in range(T)]
        v = [Fraction(float(raw["v"][t][i])) for t in range(T + 1)]
        delta = []
        for t in range(T):
            move = s[t + 1] - s[t]
            gap = g[t].eval_exact(s[t]) - g[t + 1].eval_exact(s[t + 1])
            delta.append(gap + theta[t] * move)
            chord = gap + _chord_slope(g[t + 1], model.steps[t + 1], s[t], theta[t]) * move
            if chord < 0:
                problems.append(f"path {i}, step {t}: chord gap {float(chord)!r} < 0")
            if delta[t] < -U * abs(theta[t] * move):
                problems.append(f"path {i}, step {t}: delta {float(delta[t])!r} < 0")
        # sum(delta) is g_0(S_0) + sum_t theta_t (S_{t+1} - S_t) - f(S_T)
        # exactly, so the only difference is V_T's rounding: g_0's float
        # evaluation and T additions of a float gain, at most 3u times the
        # sum below to first order; the test allows 4u.
        a0 = max(abs(a) for a in g[0].slopes_at(float(s[0])))
        size = Fraction(a0) * s[0] + sum(map(abs, v))
        size += sum(abs(theta[t] * (s[t + 1] - s[t])) for t in range(T))
        if abs(v[T] - claim.eval_exact(s[T]) - sum(delta)) > 4 * U * size:
            problems.append(f"path {i}: sum of delta_t is not V_T - f(S_T)")
    assert not problems, "; ".join(problems[:5])
