"""The path-dependent engine's S* solve stops once the executed quote is
fixed and walks its opening halvings at once; it must execute the quotes of
the full bisection (``full_bisection``) on every lane, bit for bit."""

import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import full_bisection
import superhedge
from collected import collect
from superhedge import cli, simulation
from superhedge.pricing import MarketModel, StepSpec, asian_call_payoff

REG = StepSpec.from_uniform(0.7, 1.0, 0.0, 0.4)
DEG = StepSpec.from_uniform(1.0, 1.0, 0.0, 0.0)  # k_down == k_up: finite differences

# Quotes drawn from the step, or placed on the full bisection's S*: on it,
# one ulp off it, or around it at equal distances (the straddle tie).
QUOTES = ("drawn", "bid_at", "ask_at", "bid_ulp_above", "ask_ulp_below", "tie")

LANE = st.tuples(
    st.floats(0.5, 1.5),  # s_0 / s_init
    st.floats(0.5, 1.5),  # s_1 / s_0
    # held: 0 (a plateau of the holding: below a zero set for the call,
    # above one for the put), theta_{t-1} at the prefix (an order near
    # s_prev), or any position
    st.one_of(st.just(0.0), st.none(), st.floats(-0.2, 1.2)),
    st.sampled_from(QUOTES),
    st.floats(0.7, 1.0),  # bid / s_prev
    st.floats(0.0, 0.4),  # spread / s_prev
)


def _asian_put(strike):
    return lambda path: np.maximum(strike - sum(path) / len(path), 0.0)


def _oracle_map(leaf, model, base, t, held, s_prev, bid, ask):
    return full_bisection.functional_sstar(leaf, model, base, t, held, s_prev)


def _quotes(mode, sstar, s_prev, m, spread):
    if np.isnan(sstar) or mode == "drawn":
        return s_prev * m, s_prev * (m + spread)
    half = 0.5 * spread * sstar
    return {
        "bid_at": (sstar, sstar + 2 * half),
        "ask_at": (sstar - half, sstar),
        "bid_ulp_above": (np.nextafter(sstar, np.inf), sstar + 2 * half),
        "ask_ulp_below": (sstar - half, np.nextafter(sstar, 0.0)),
        "tie": (sstar - half, sstar + half),
    }[mode]


# At s_init = 1e-14 the brackets lie below 1, where the width test is
# absolute: it stops lanes inside the opening halvings.
@settings(max_examples=80, deadline=None)
@given(
    s_init=st.sampled_from([1e-14, 1e-3, 100.0, 1e6]),
    t=st.sampled_from([1, 2]),
    payoff=st.sampled_from([asian_call_payoff, _asian_put]),
    degenerate=st.booleans(),
    straddle_to_ask=st.booleans(),
    chunk=st.sampled_from([16, simulation.FUNCTIONAL_CHUNK]),
    lanes=st.lists(LANE, min_size=1, max_size=24),
)
def test_executes_the_full_bisections_quotes(
    s_init, t, payoff, degenerate, straddle_to_ask, chunk, lanes
):
    steps = [REG] * 4
    if degenerate:
        steps[t + 1] = DEG
    model = MarketModel(s_init, 3, tuple(steps))
    leaf = partial(simulation._payoff_values, payoff(s_init))
    u0, u1, held, modes, m, spread = zip(*lanes)
    s0 = s_init * np.array(u0)
    base = (s0, s0 * np.array(u1))[:t]
    s_prev = base[-1]
    theta_prev = simulation._tree_theta(leaf, model, base, t - 1)
    held = np.array([th if h is None else h for h, th in zip(held, theta_prev)])
    want_sstar, want_sign = full_bisection.functional_sstar(
        leaf, model, base, t, held, s_prev
    )
    bid, ask = np.array(
        [_quotes(*q) for q in zip(modes, want_sstar, s_prev, m, spread)]
    ).T
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulation, "FUNCTIONAL_CHUNK", chunk)
        sstar, sign = simulation._functional_sstar(
            leaf, model, base, t, held, s_prev, bid, ask
        )
    got = simulation._execute_vec(bid, ask, sstar, sign, straddle_to_ask)
    want = full_bisection.execute(bid, ask, want_sstar, want_sign, straddle_to_ask)
    assert got.tobytes() == want.tobytes()
    assert sign.tobytes() == want_sign.tobytes()
    np.testing.assert_array_equal(np.isnan(sstar), np.isnan(want_sstar))


def test_execution_rule_matches_nested_where():
    rng = np.random.default_rng(3)
    n = 20_000
    bid = np.round(90 + rng.random(n), 1)
    ask = np.round(bid + 3 * rng.random(n), 1)
    ask[5::19] = bid[5::19]
    sstar = np.round(85 + 15 * rng.random(n), 1)
    sstar[::5] = np.nan
    sstar[1::9] = np.inf
    sstar[2::11], sstar[3::13] = bid[2::11], ask[3::13]
    sstar[4::17] = 0.5 * (bid[4::17] + ask[4::17])
    sign = rng.choice([-1.0, 0.0, 1.0], n)
    for straddle_to_ask in (True, False):
        got = simulation._execute_vec(bid, ask, sstar, sign, straddle_to_ask)
        want = full_bisection.execute(bid, ask, sstar, sign, straddle_to_ask)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("straddle_to_ask", [True, False])
@pytest.mark.parametrize("s_init", [1e-3, 100.0, 1e6])
@pytest.mark.parametrize("degenerate", [False, True], ids=["regular", "degenerate"])
def test_engine_columns_match_full_bisection(
    monkeypatch, s_init, straddle_to_ask, degenerate
):
    steps = (REG, REG, DEG if degenerate else REG, REG)
    model = MarketModel(s_init, 3, steps)
    monkeypatch.setattr(simulation, "FUNCTIONAL_CHUNK", 24)
    run = partial(
        collect,
        simulation.simulate_functional,
        model,
        asian_call_payoff(s_init),
        s_init,
        60,
        np.random.SeedSequence(7),
        straddle_to_ask,
    )
    got = run()
    monkeypatch.setattr(simulation, "_functional_sstar", _oracle_map)
    want = run()
    assert got[0] == want[0]
    for key in ("s", "theta", "v"):
        for g, w in zip(got[1][key], want[1][key], strict=True):
            assert g.tobytes() == w.tobytes()


ASIAN_WORKLOAD = (
    "payoff = asian-call\nhorizon = 3\nstrikes = 90, 100, 110\n"
    "n_paths = 200\nseed = 1\n"
)


def test_tree_walks_per_asian_run(monkeypatch, tmp_path):
    """The full bisection walked the tree 873 times in this run (3 strikes x
    200 paths at T=3, seed 1); the solve that stops early needs under a third."""
    calls = 0
    walk = simulation._tree_value

    def counted(*args):
        nonlocal calls
        calls += 1
        return walk(*args)

    monkeypatch.setattr(simulation, "_tree_value", counted)
    assert cli.run_experiment(cli.parse_config(ASIAN_WORKLOAD), tmp_path) == 0
    assert 0 < calls <= 873 // 3


PEAK_SCRIPT = """
import resource, sys
import numpy as np
from superhedge import simulation
from superhedge.pricing import asian_call_payoff, uniform_bid_ask_model
if sys.argv[1] == "oracle":
    import full_bisection
    simulation._functional_sstar = lambda *args: full_bisection.functional_sstar(
        *args[:6]
    )
stats, _ = simulation.simulate_functional(
    uniform_bid_ask_model(horizon=8), asian_call_payoff(100.0), 100.0, 4096,
    np.random.SeedSequence(1),
)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, repr(stats.row_values()))
"""


def test_peak_memory_within_full_bisections():
    """T=8 over one 4096-path chunk: the opening walks run in blocks, so the
    run peaks within 15% of the full bisection's, and its stats match."""
    src = Path(superhedge.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src), str(Path(__file__).parent), env.get("PYTHONPATH", "")]
    )
    runs = [
        subprocess.Popen(
            [sys.executable, "-c", PEAK_SCRIPT, which],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        for which in ("engine", "oracle")
    ]
    (got_peak, got), (want_peak, want) = (
        run.communicate(timeout=300)[0].split(" ", 1) for run in runs
    )
    assert all(run.returncode == 0 for run in runs)
    assert got == want
    assert int(got_peak) <= 1.15 * int(want_peak)
