"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  The heavy scenario runs (five strikes at a million paths each,
plus five seeds for the path-wise guarantee) complete in well under the
60-second budget on commodity hardware.
"""

import time

import numpy as np
import pytest

from superhedge.cli import parse_config, run_experiment
from superhedge.pricing import (
    MarketModel,
    StepSpec,
    asian_tree_price,
    backward_induce,
    check_aip,
    one_step_price,
    uniform_bid_ask_model,
)
from superhedge.pwl import Interval, PwlFunction, call_payoff, upper_concave_envelope
from superhedge.simulation import simulate_one

from closed_form import closed_form_call
from exact_domination import check_points, chord, dominates, piece_slopes, sampled_affine

STRIKES = (50.0, 75.0, 100.0, 125.0, 150.0)
N_PATHS = 1_000_000
SEED = 42

TABLE_MEAN_S0 = {50: 95.002, 75: 94.983, 100: 95.006, 125: 94.98, 150: 95.001}
TABLE_MEAN_V0 = {50: 46.503, 75: 29.357, 100: 16.960, 125: 11.244, 150: 6.7}
TABLE_MEAN_EPS = {50: 0.017, 75: 0.077, 100: 0.076, 125: 0.064, 150: 0.039}
TABLE_STD_EPS = {50: 0.024, 75: 0.045, 100: 0.04, 125: 0.037, 150: 0.0317}


def report(num: int, name: str, ok: bool, detail: str = ""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"criterion {num} ({name}): {verdict}{suffix}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def table_run():
    model = uniform_bid_ask_model()
    pricings = [backward_induce(call_payoff(k), model) for k in STRIKES]
    t0 = time.perf_counter()
    children = np.random.SeedSequence(SEED).spawn(len(STRIKES))
    stats = [
        simulate_one(model, pricing, k, N_PATHS, child)[0]
        for pricing, k, child in zip(pricings, STRIKES, children)
    ]
    elapsed = time.perf_counter() - t0
    return stats, elapsed


def test_criterion_1_table_reproduction(table_run):
    stats, elapsed = table_run
    failures = []
    for st in stats:
        k = int(st.strike)
        if abs(st["E(S0)"] - TABLE_MEAN_S0[k]) > 0.2:
            failures.append(f"K={k}: E(S0)={st['E(S0)']:.4f}")
        if abs(st["E(V0)"] - TABLE_MEAN_V0[k]) > 0.01 * TABLE_MEAN_V0[k]:
            failures.append(f"K={k}: E(V0)={st['E(V0)']:.4f}")
        if abs(st["E(eps_R)"] - TABLE_MEAN_EPS[k]) > 0.005:
            failures.append(f"K={k}: E(eps)={st['E(eps_R)']:.5f}")
        if abs(st["sigma(eps_R)"] - TABLE_STD_EPS[k]) > 0.005:
            failures.append(f"K={k}: sigma(eps)={st['sigma(eps_R)']:.5f}")
        if st["max eps_R"] > 0.20:
            failures.append(f"K={k}: max eps={st['max eps_R']:.5f}")
        if not 0.0 <= st["min eps_R"] <= 1e-4:
            failures.append(f"K={k}: min eps={st['min eps_R']:.3e}")
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s")
    report(
        1,
        "result-table reproduction",
        not failures,
        "; ".join(failures) if failures else f"5 strikes x 1e6 paths in {elapsed:.1f}s",
    )


def test_criterion_2_pathwise_super_hedging():
    model = uniform_bid_ask_model()
    seeds = (101, 102, 103, 104, 105)
    violations = 0
    worst = np.inf

    def check(cols):
        """Count the batch's violations of the strike being run; only S_2
        and V_2 are read."""
        nonlocal violations, worst
        s2, v2 = cols["s"][2], cols["v"][2]
        payoff = np.maximum(s2 - strike, 0.0)
        slack = v2 - payoff + 1e-9 * np.maximum(1.0, s2)
        violations += int(np.sum(slack < 0.0))
        worst = min(worst, float(np.min(v2 - payoff)))

    for seed, strike in zip(seeds, STRIKES):
        pricing = backward_induce(call_payoff(strike), model)
        simulate_one(
            model, pricing, strike, N_PATHS, np.random.SeedSequence(seed), sink=check
        )
    report(
        2,
        "path-wise super-hedging",
        violations == 0,
        f"{len(seeds)} seeds x 1e6 paths, 0 violations, worst gap {worst:.3e}"
        if violations == 0
        else f"{violations} violations",
    )


def test_criterion_3_closed_form_equivalence():
    model = uniform_bid_ask_model()
    grid = np.linspace(1.0, 300.0, 10_000)
    t0 = time.perf_counter()
    worst_v = worst_th = 0.0
    for strike in STRIKES:
        res = backward_induce(call_payoff(strike), model)
        for t in (0, 1):
            v_ref, th_ref = closed_form_call(t, grid, strike, model)
            worst_v = max(worst_v, float(np.max(np.abs(res.value_fns[t](grid) - v_ref))))
            worst_th = max(
                worst_th,
                float(np.max(np.abs(res.strategy(t, model)(grid) - th_ref))),
            )
    elapsed = time.perf_counter() - t0
    ok = worst_v <= 1e-10 and worst_th <= 1e-10 and elapsed < 1.0
    report(
        3,
        "closed-form oracle equivalence",
        ok,
        f"max |dV|={worst_v:.2e}, max |dtheta|={worst_th:.2e}, {elapsed * 1000:.0f}ms",
    )


def test_criterion_4_worked_values():
    model = uniform_bid_ask_model()
    res = backward_induce(call_payoff(100), model)
    g0_100 = res.value_fns[0](100.0)
    th0_100 = res.strategy(0, model)(100.0)
    quote = one_step_price(call_payoff(100), 100.0, StepSpec(0.7, 1.4))
    checks = [
        abs(g0_100 - 864 / 49) <= 1e-12,
        abs(th0_100 - 288 / 490) <= 1e-12,
        abs(quote.price - 120 / 7) <= 1e-12,
        abs(quote.theta - 4 / 7) <= 1e-12,
    ]
    report(
        4,
        "worked values",
        all(checks),
        f"g0(100)={g0_100:.10f}, theta0(100)={th0_100:.10f}, "
        f"one-step=({quote.price:.10f}, {quote.theta:.10f})",
    )


def test_criterion_5_envelope_property_suite():
    rng = np.random.default_rng(2718)
    n_cases = 1000
    bad = []
    for i in range(n_cases):
        n = int(rng.integers(1, 8))
        xs = np.sort(rng.uniform(0.0, 200.0, n)) + np.arange(n) * 1e-6
        convex_case = i % 2 == 1
        if convex_case:
            slopes = np.sort(rng.uniform(-3.0, 3.0, n + 1))
            ys = [float(rng.uniform(-20, 20))]
            for j in range(n - 1):
                ys.append(ys[-1] + slopes[j + 1] * (xs[j + 1] - xs[j]))
            f = PwlFunction(xs, ys, slopes[0], slopes[-1])
        else:
            f = PwlFunction(
                xs,
                rng.uniform(-50.0, 50.0, n),
                float(rng.uniform(-3, 3)),
                float(rng.uniform(-3, 3)),
            )
        lo, hi = np.sort(rng.uniform(0.0, 210.0, 2))
        if hi - lo < 0.5:
            hi = lo + 0.5
        dom = Interval(lo, hi)
        env = upper_concave_envelope(f, dom)
        # Both are linear between these points, so exact checks there are
        # checks on all of dom.
        pts = check_points(dom, f, env)

        if any(env.eval_exact(x) < f.eval_exact(x) for x in pts):
            bad.append(f"case {i}: domination")
        seg = piece_slopes(env)[1:-1]
        if any(a < b for a, b in zip(seg, seg[1:])):
            bad.append(f"case {i}: concavity")
        for _ in range(3):
            slope, icept = sampled_affine(
                f, check_points(dom, f), rng.uniform(-5, 5), rng.uniform(0, 1)
            )
            if not dominates(slope, icept, f, pts):
                bad.append(f"case {i}: sampled affine fails f")
            if not dominates(slope, icept, env, pts):
                bad.append(f"case {i}: minimality")
        if convex_case and env != chord(f, dom):
            bad.append(f"case {i}: chord specialisation")
        if bad:
            break
    report(
        5,
        "envelope property suite",
        not bad,
        bad[0] if bad else f"{n_cases} randomised cases",
    )


def test_criterion_6_aip_behaviour():
    drift = MarketModel(s_init=100.0, horizon=2, steps=(StepSpec(1.1, 1.4),) * 3)
    aip_bad = check_aip(drift)
    quote = one_step_price(call_payoff(100), 100.0, StepSpec(1.1, 1.4))

    model = uniform_bid_ask_model(horizon=3)
    zero = PwlFunction([0], [0])
    res = backward_induce(zero, model)
    grid = np.linspace(0.0, 500.0, 300)
    zero_everywhere = all(np.all(g(grid) == 0.0) for g in res.value_fns)
    zero_one_step = all(
        one_step_price(zero, s, model.steps[1]).price == 0.0
        for s in (10.0, 100.0, 250.0)
    )
    ok = (
        not all(aip_bad)
        and quote.price == float("-inf")
        and zero_everywhere
        and zero_one_step
    )
    report(
        6,
        "no-arbitrage behaviour",
        ok,
        "drift model flagged, call price -inf, zero claim prices to 0 exactly",
    )


def test_criterion_7_engine_cross_check():
    rng = np.random.default_rng(31415)
    worst = 0.0
    for _ in range(100):
        kd = float(rng.uniform(0.5, 1.0))
        ku = float(rng.uniform(1.0, 1.9))
        strike = float(rng.uniform(40.0, 180.0))
        payoff = call_payoff(strike)
        for horizon in (1, 2, 3, 4):
            model = MarketModel(
                s_init=100.0, horizon=horizon, steps=(StepSpec(kd, ku),) * (horizon + 1)
            )
            res = backward_induce(payoff, model)
            tree = asian_tree_price(lambda path: payoff(path[-1]), model, 100.0)
            worst = max(worst, abs(tree - res.value_fns[0](100.0)))
    report(
        7,
        "tree vs backward-induction engines",
        worst <= 1e-10,
        f"100 triples x T in 1..4, max |diff| = {worst:.2e}",
    )


def test_criterion_8_byte_identical_outputs(tmp_path):
    cfg = parse_config(
        "n_paths = 20000\nstrikes = 75, 100\nseed = 2024\n"
        "dump_paths = true\nhistograms = true\n"
    )
    assert run_experiment(cfg, tmp_path / "a") == 0
    assert run_experiment(cfg, tmp_path / "b") == 0
    names = [
        "stats.csv",
        "paths_K75.csv",
        "paths_K100.csv",
        "hist_K75_eps_R.csv",
        "hist_K100_S_1.csv",
    ]
    same = all(
        (tmp_path / "a" / n).read_bytes() == (tmp_path / "b" / n).read_bytes()
        for n in names
    )
    report(8, "seeded determinism", same, f"{len(names)} delimited artifacts compared")
