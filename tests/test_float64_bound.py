"""The float64 bound in the library: the entry points refuse what the CLI
refuses, with the same words, and the bound reads every step of the model."""

import math
import warnings

import numpy as np
import pytest

from superhedge import cli, simulation
from superhedge.pricing import (
    MarketModel,
    StepSpec,
    asian_call_payoff,
    asian_tree_price,
    backward_induce,
    initial_premium,
    uniform_bid_ask_model,
)
from superhedge.pwl import call_payoff, put_payoff
from superhedge.simulation import require_float64, simulate_functional, simulate_one


def _seed():
    return np.random.SeedSequence(3)


def _asian_put(strike):
    return lambda path: np.maximum(strike - sum(path) / len(path), 0.0)


@pytest.mark.parametrize(
    "model",
    [uniform_bid_ask_model(), uniform_bid_ask_model(m_range=(1e-200, 1.0))],
    ids=["huge_strike", "tiny_k_down"],
)
def test_initial_premium_names_the_number_no_float_holds(model):
    # g_0's breakpoints reach K / 0.7^2 = 2e308 and 100 / 1e-400: the
    # recursion is exact and returns, and the first float conversion is refused
    strike = 1e308 if model.steps[0].k_down == 0.7 else 100.0
    result = backward_induce(call_payoff(strike), model)
    with pytest.raises(ValueError, match="overflows float64 in pricing over horizon 2"):
        initial_premium(result, model)


def test_simulate_one_refuses_a_ratio_that_overflows():
    # V_0/S_0 reaches 1e300 / 3.4e-11: this run used to report E(V0/S0) = inf
    model = uniform_bid_ask_model(s_init=1e-10)
    pricing = backward_induce(put_payoff(1e300), model)
    with pytest.raises(ValueError, match="overflows float64: its values reach 1e\\+300"):
        simulate_one(model, pricing, 1e300, 50, _seed())


def test_simulate_functional_refuses_sstar_path_sums_and_claim_values():
    # the S* solve brackets each root within 1e9 times a price
    model = uniform_bid_ask_model(s_init=1e299, horizon=3)
    sstar = "overflows float64 in the path-dependent S\\* solve"
    with pytest.raises(ValueError, match=sstar):
        simulate_functional(model, asian_call_payoff(100.0), 100.0, 50, _seed())
    # an asian put's value is K less the path's mean, largest on the all-k_down
    # path: 4096 lanes of 1e305 overflow a chunk's sum
    model = uniform_bid_ask_model(horizon=2)
    with pytest.raises(ValueError, match="the path-dependent claim overflows float64"):
        simulate_functional(model, _asian_put(1e305), 1e305, 5000, _seed())


@pytest.mark.parametrize(
    "s_init, s0", [(1e308, 1e308), (100.0, 1e308)], ids=["huge_model", "huge_s0"]
)
def test_asian_tree_price_refuses_a_price_past_float64(s_init, s0):
    # the tree's prices reach s0 * 1.4^2: both used to return inf, silently
    model = uniform_bid_ask_model(s_init, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="over horizon 2 overflows float64"):
            asian_tree_price(asian_call_payoff(100.0), model, s0)


def test_asian_tree_price_refuses_what_no_bound_names():
    # a payoff of floats only: the bound cannot call it on arrays, so the
    # price itself is named
    payoff = lambda path: max(path[-1] * 1e306 - 1.0, 0.0)  # noqa: E731
    with pytest.raises(ValueError, match="price at s0 = 100.0 overflows float64"):
        asian_tree_price(payoff, uniform_bid_ask_model(), 100.0)


@pytest.mark.parametrize("n_paths", [0, 2**63])
@pytest.mark.parametrize("engine", ["european", "path-dependent"])
def test_engines_refuse_n_paths_out_of_range_before_any_batch(monkeypatch, engine, n_paths):
    def no_batch(*args, **kwargs):
        raise AssertionError("a batch ran")

    monkeypatch.setattr(simulation, "_simulate_batch", no_batch)
    monkeypatch.setattr(simulation, "_functional_batch", no_batch)
    model = uniform_bid_ask_model()
    with pytest.raises(ValueError, match=r"n_paths must be at least 1 and below 2\^63"):
        if engine == "european":
            pricing = backward_induce(call_payoff(100), model)
            simulate_one(model, pricing, 100.0, n_paths, _seed())
        else:
            simulate_functional(model, asian_call_payoff(100.0), 100.0, n_paths, _seed())


# One wide step, a degenerate one (k_down == k_up == 1) and a narrow one.
HETEROGENEOUS = MarketModel(
    2e306,
    2,
    (
        StepSpec.from_uniform(0.7, 1.0, 0.0, 0.4),
        StepSpec.from_uniform(1.0, 1.0, 0.0, 0.0),
        StepSpec.from_uniform(0.9, 1.0, 0.0, 0.1),
    ),
)


def test_bound_reads_each_step_of_a_heterogeneous_model():
    n_paths = 50
    # the scalar rule on the widest step: s_prev * 1.4^(T+1), 50 times
    widest = max(step.k_up for step in HETEROGENEOUS.steps)
    assert not math.isfinite(2e306 * widest**3 * n_paths)
    claim = call_payoff(100)
    require_float64(HETEROGENEOUS, [claim], n_paths)  # 2e306 * 1.4 * 1 * 1.1 * 50
    pricing = backward_induce(claim, HETEROGENEOUS)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stats, _ = simulate_one(HETEROGENEOUS, pricing, 100.0, n_paths, _seed())
    assert all(math.isfinite(v) for v in stats.row_values())
    assert stats["min eps_R"] >= 0.0
    with pytest.raises(ValueError, match="a batch sums 200 of them"):
        require_float64(HETEROGENEOUS, [claim], 200)


def test_cli_text_is_the_library_text():
    text = "payoff = put\nstrikes = 1e300\ns_prev = 1e-10\nhorizon = 2\nn_paths = 50\n"
    with pytest.raises(cli.ConfigError) as refused:
        cli.parse_config(text)
    model = uniform_bid_ask_model(s_init=1e-10)  # the same run, from the library
    with pytest.raises(ValueError) as library:
        require_float64(model, [put_payoff(1e300)], 50, "put")
    assert str(refused.value) == str(library.value)


def test_chunk_width_admits_an_asian_run_the_batch_width_refused(tmp_path):
    # a chunk sums 4096 prices of up to 1e304 * 1.4^2; 10000 of them overflow
    text = "payoff = asian-call\nhorizon = 1\nstrikes = 100\nn_paths = 10000\n"
    text += "s_prev = 1e304\n"
    config, out = tmp_path / "cfg.txt", tmp_path / "out"
    config.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["--config", str(config), "--out", str(out)]) == cli.EXIT_OK
    rows = [line.split(",") for line in (out / "stats.csv").read_text().splitlines()]
    undefined = {"E(S2)", "E(theta1*S1/V1)"}  # at T=1, means of no values
    assert all(math.isfinite(float(v)) for label, v in rows if label not in undefined)
