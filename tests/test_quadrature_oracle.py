"""The table runs' E(V0) against an independent quadrature oracle.

The paper's table pins E(V0) to three digits, a window of ~26 standard
errors at 10^6 paths.  The oracle (tests/quadrature.py) integrates
g_0(S_0) over step 0's draws with no Monte-Carlo noise, and its second
moment gives the run's standard error, so each run must land within five.
The same runs' E(S0) is checked against its closed form (tests/quadrature.py).
At T=2, S_2 - E(u) S_1 has mean exactly 0: the last step executes mid, at a
multiplier u independent of S_1 (`test_last_step_multiplier_mean`).
"""

import math

import numpy as np
import pytest

from collected import collect
from quadrature import s0_moments, v0_moments
from superhedge.cli import ExperimentConfig
from superhedge.pricing import backward_induce, uniform_bid_ask_model
from superhedge.pwl import call_payoff
from superhedge.simulation import simulate_one

TABLE = ExperimentConfig()  # the paper's table: 5 strikes, 10^6 paths, seed 42
# E(V0) at T=2 as ROADMAP item 13 records it, from 2000- and 4000-node
# rules that agree to within 4e-11
QUADRATURE_T2 = {50: 46.50138, 75: 29.35749, 100: 16.95720, 125: 11.25152, 150: 6.69975}


def test_oracle_reproduces_the_recorded_values():
    model = uniform_bid_ask_model()
    for strike, want in QUADRATURE_T2.items():
        g0 = backward_induce(call_payoff(strike), model).value_fns[0]
        assert abs(v0_moments(g0, model)[0] - want) <= 1e-5, strike


@pytest.mark.parametrize("horizon", [1, 2])
def test_table_run_mean_v0_within_five_standard_errors(horizon):
    model = uniform_bid_ask_model(TABLE.s_prev, horizon)
    children = np.random.SeedSequence(TABLE.seed).spawn(len(TABLE.strikes))
    misses = []
    for strike, child in zip(TABLE.strikes, children):
        pricing = backward_induce(call_payoff(strike), model)
        stats, _ = simulate_one(model, pricing, strike, TABLE.n_paths, child)
        oracles = {
            "E(V0)": v0_moments(pricing.value_fns[0], model),
            "E(S0)": s0_moments(model),
        }
        for label, (mean, second) in oracles.items():
            se = math.sqrt((second - mean * mean) / TABLE.n_paths)
            if not abs(stats[label] - mean) <= 5 * se:
                misses.append(f"K={strike:g}: {label} {stats[label]} vs {mean} +- {5 * se}")
    assert not misses, "; ".join(misses)


@pytest.mark.parametrize("strike", [50, 100, 150])
def test_last_step_multiplier_mean(strike):
    # S_2 = S_1 u with u = m + k spr drawn independently of S_1, so
    # S_2 - E(u) S_1 has mean 0; E(u) = E(m) + E(k) E(spr) = 0.95 here
    model = uniform_bid_ask_model(TABLE.s_prev, 2)
    step = model.steps[2]
    u_mean = (step.m_lo + step.m_hi) / 2 + (step.spr_lo + step.spr_hi) / 4
    assert u_mean == pytest.approx(0.95, abs=1e-15)
    n = 10**5
    pricing = backward_induce(call_payoff(strike), model)
    _, cols = collect(simulate_one, model, pricing, strike, n, np.random.SeedSequence(42))
    d = cols["s"][2] - u_mean * cols["s"][1]
    z = d.mean() / (d.std() / math.sqrt(n))
    assert abs(z) <= 5, z
