"""Execution simulator: draws, order sign-change logic, path accounting,
aggregation, reproducibility."""

import io
import math
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from superhedge import simulation
from superhedge.pricing import (
    AipViolationError,
    MarketModel,
    StepSpec,
    StrategyFn,
    asian_call_payoff,
    asian_tree_price,
    backward_induce,
    uniform_bid_ask_model,
)
from superhedge.pwl import PwlFunction, call_payoff, constant_function, put_payoff
from superhedge.simulation import (
    DUMP_ROWS,
    OrderSignChange,
    RngConfig,
    RunningMoments,
    SimPath,
    _build_crossings,
    _simulate_batch,
    draw_step,
    execute_delayed_order,
    mid_execute,
    path_dump_header,
    run_path_functional,
    simulate,
    simulate_functional,
    simulate_one,
    write_path_dump,
)

REF_MODEL = uniform_bid_ask_model()


def _pricing(strike=100.0, model=REF_MODEL):
    return backward_induce(call_payoff(strike), model)


def _gen(seed):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def _batch_gen(seed):
    """The generator simulate_one gives its first batch under SeedSequence(seed)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed).spawn(1)[0]))


PATH_KEYS = ("s", "bid", "ask", "theta", "v")


def _paths(model, pricing, n, seed):
    """The n paths of one collected simulate_one run, one SimPath each."""
    _, raw = simulate_one(
        model, pricing, 0.0, n, np.random.SeedSequence(seed), collect=True
    )
    return [
        SimPath(
            s_prev=float(model.s_init),
            **{key: np.array([c[i] for c in raw[key]]) for key in PATH_KEYS},
            eps_r=float(raw["eps"][i]),
        )
        for i in range(n)
    ]


class TestRngConfig:
    def test_seed_range(self):
        with pytest.raises(ValueError):
            RngConfig(seed=-1)
        RngConfig(seed=2**64 - 1)


class TestDrawStep:
    def test_moments(self):
        step = REF_MODEL.steps[0]
        rng = _gen(0)
        m, M, k = draw_step(step, rng, size=1_000_000)
        assert np.mean(m) == pytest.approx(0.85, abs=1e-3)
        assert np.mean(M - m) == pytest.approx(0.2, abs=1e-3)
        assert np.mean(k) == pytest.approx(0.5, abs=1e-3)

    def test_support(self):
        step = REF_MODEL.steps[0]
        m, M, k = draw_step(step, _gen(1), size=10_000)
        assert np.all(m >= 0.7) and np.all(m <= 1.0)
        assert np.all(M >= m) and np.all(M <= 1.4 + 1e-15)
        assert np.all((0 <= k) & (k <= 1))

    def test_degenerate_lower_edge(self):
        step = StepSpec.from_uniform(0.9, 0.9, 0.0, 0.2)
        m, M, _ = draw_step(step, _gen(2), size=1000)
        assert np.all(m == 0.9)
        assert np.all(M >= 0.9)

    def test_missing_distribution_rejected(self):
        with pytest.raises(ValueError, match="distribution"):
            draw_step(StepSpec(0.7, 1.4), _gen(0))


class TestMidExecute:
    def test_ends_and_middle(self):
        assert mid_execute(100.0, 0.8, 1.0, 0.0) == pytest.approx(80.0)
        assert mid_execute(100.0, 0.8, 1.0, 1.0) == pytest.approx(100.0)
        assert mid_execute(100.0, 0.8, 1.0, 0.5) == pytest.approx(90.0)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            mid_execute(0.0, 0.8, 1.0, 0.5)


def two_root_sstar(cross: OrderSignChange, theta_prev: np.ndarray):
    """OrderSignChange.sstar solving both zero-set ends on every root lane,
    with np.searchsorted lookups: the oracle for the one-solve version."""
    th = np.asarray(theta_prev, dtype=float)
    n = th.shape[0]
    out = np.full(n, np.nan)
    if cross.degenerate:
        return out, np.zeros(n)
    if cross.theta_lo == cross.theta_hi or cross.cuts.size == 0:
        return out, cross.theta_lo - th
    sign = np.zeros(n)
    all_buy = th < cross.theta_lo
    all_sell = (th > cross.theta_hi) | (
        (th == cross.theta_hi) & (cross.t_last < cross.theta_hi)
    )
    sign[all_buy] = 1.0
    sign[all_sell] = -1.0
    root = ~(all_buy | all_sell)
    if not root.any():
        return out, sign
    th_r = th[root]
    m = cross.cuts.size
    jl = np.searchsorted(cross.t_vals, th_r, side="left")
    jr = np.searchsorted(cross.t_vals, th_r, side="right")

    def piece_root(j, theta):
        denom = theta * cross.c - cross.b[j]
        with np.errstate(divide="ignore", invalid="ignore"):
            z = cross.a[j] / denom
        lo = np.where(j >= 1, cross.cuts[np.maximum(j - 1, 0)], 0.0)
        hi = np.where(j <= m - 1, cross.cuts[np.minimum(j, m - 1)], np.inf)
        return np.clip(z, lo, hi)

    z_left = np.where(jl == 0, 0.0, piece_root(np.maximum(jl, 1), th_r))
    at_top = (jr == m) & (th_r == cross.theta_hi)
    z_right = np.where(
        at_top, np.inf, piece_root(np.minimum(np.maximum(jr, 1), m), th_r)
    )
    out[root] = np.where(
        z_left == 0.0,
        z_right,
        np.where(np.isinf(z_right), z_left, 0.5 * (z_left + z_right)),
    )
    return out, sign


def _many_kinks(n):
    """A convex payoff with n kinks, so the crossing table has ~2n cuts."""
    xs = [Fraction(50 + 3 * i) for i in range(n)]
    slopes = [Fraction(i, n) for i in range(n + 1)]
    ys = [Fraction(0)]
    for i in range(n - 1):
        ys.append(ys[-1] + slopes[i + 1] * (xs[i + 1] - xs[i]))
    return PwlFunction(xs, ys, slopes[0], slopes[-1])


_HETERO = MarketModel(
    100.0,
    3,
    (StepSpec(0.7, 1.4), StepSpec(0.75, 1.3), StepSpec(0.8, 1.2), StepSpec(0.9, 1.1)),
)
SSTAR_CASES = [
    (call_payoff(100), StepSpec(0.7, 1.4)),
    (PwlFunction([0, 80], [20, 0], -1, 0), StepSpec(0.7, 1.4)),  # kink at 0
    (backward_induce(call_payoff(100), _HETERO).value_fns[1], StepSpec(0.75, 1.3)),
    (_many_kinks(70), StepSpec(0.8, 1.25)),  # > _COUNT_MAX cuts: searchsorted
    (PwlFunction([0], [1], 2, 2), StepSpec(0.7, 1.4)),  # affine: constant theta
    (call_payoff(100), StepSpec(1.0, 1.0)),  # degenerate step
]


class TestOrderSignChange:
    def setup_method(self):
        self.strike = 100.0
        self.cross = OrderSignChange(call_payoff(self.strike), StepSpec(0.7, 1.4))

    def test_interior_formula(self):
        theta0 = np.array([288 / 490])
        sstar, _ = self.cross.sstar(theta0)
        assert sstar[0] == pytest.approx(
            self.strike / (1.4 - 0.7 * theta0[0]), rel=1e-12
        )

    def test_flat_holding_snaps_to_upper_kink(self):
        sstar, _ = self.cross.sstar(np.array([0.0]))
        assert sstar[0] == pytest.approx(self.strike / 1.4, rel=1e-12)

    def test_full_holding_snaps_to_lower_kink(self):
        sstar, _ = self.cross.sstar(np.array([1.0]))
        assert sstar[0] == pytest.approx(self.strike / 0.7, rel=1e-12)

    def test_out_of_range_holdings_have_constant_sign(self):
        sstar, sign = self.cross.sstar(np.array([-0.2, 1.2]))
        assert np.all(np.isnan(sstar))
        assert sign[0] > 0  # order buys everywhere
        assert sign[1] < 0  # order sells everywhere

    def test_matches_bracketed_root_finder(self):
        # S* is where the order changes sign: theta crosses the held theta0
        pricing = _pricing(100.0)
        theta_fn = StrategyFn(pricing.value_fns[2], 0.7, 1.4)
        rng = np.random.default_rng(3)
        for _ in range(50):
            theta0 = float(rng.uniform(0.05, 0.95))
            sstar, _ = self.cross.sstar(np.array([theta0]))
            z = sstar[0]
            assert theta_fn(z * (1 - 1e-9)) <= theta0 <= theta_fn(z * (1 + 1e-9))

    def test_nonconvex_claim_rejected(self):
        tent = PwlFunction([80, 100, 120], [0, 10, 0])
        with pytest.raises(ValueError, match="not monotone"):
            OrderSignChange(tent, StepSpec(0.7, 1.4))

    # g = x - 100 beyond 100, with extra breakpoints at 400 and 800.  With
    # k = (1/2, 2) the cuts are 50, 200, 400, 800, 1600, and theta is 1 at
    # every cut from 200 on, since both chord ends lie on the unit-slope tail.
    TAIL_STEP = StepSpec(0.5, 2.0)

    @staticmethod
    def _exact_theta_at_cuts(g, step):
        kd, ku = Fraction(step.k_down), Fraction(step.k_up)
        cuts = sorted({b / k for b in g.breakpoints for k in (kd, ku)})
        return [
            (g.eval_exact(ku * z) - g.eval_exact(kd * z)) / ((ku - kd) * z) for z in cuts
        ]

    def test_equal_float_decrease_rejected(self):
        # Lowering g(800) by 2^-80 makes g nonconvex at 400, and theta at the
        # cuts 400 and 800 falls below 1 by 2^-80/600 and 2^-80/1200: exactly
        # a decrease from theta(200) = 1, but all three round to 1.0, so the
        # floats alone would pass the monotone check.
        g = PwlFunction([100, 400, 800], [0, 300, 700 - Fraction(1, 2**80)], 0, 1)
        exact = self._exact_theta_at_cuts(g, self.TAIL_STEP)
        rounded = [float(t) for t in exact]
        assert rounded == sorted(rounded)
        assert exact != sorted(exact)
        with pytest.raises(ValueError, match="not monotone"):
            OrderSignChange(g, self.TAIL_STEP)

    def test_exactly_equal_theta_at_cuts_accepted(self):
        g = PwlFunction([100, 400, 800], [0, 300, 700], 0, 1)
        assert g.is_convex()
        assert self._exact_theta_at_cuts(g, self.TAIL_STEP) == [0, 1, 1, 1, 1]
        cross = OrderSignChange(g, self.TAIL_STEP)
        assert cross.t_vals.tolist() == [0.0, 1.0, 1.0, 1.0, 1.0]

    @pytest.mark.parametrize("g, step", SSTAR_CASES)
    def test_sstar_bytes_equal_two_root_oracle(self, g, step):
        cross = OrderSignChange(g, step)
        rng = np.random.default_rng(11)
        if cross.degenerate:
            marks = np.array([0.0, 0.5, 1.0])
        else:
            marks = np.concatenate(
                (cross.t_vals, [cross.theta_lo, cross.theta_hi], rng.random(5))
            )
        near = np.concatenate((marks, np.nextafter(marks, -1), np.nextafter(marks, 2)))
        lo, hi = near.min() - 0.1, near.max() + 0.1
        inside = near[(near > near.min()) & (near < near.max())]
        batches = (
            near,  # roots and constant signs mixed: the scatter path
            np.concatenate((near, rng.uniform(lo, hi, 500))),
            rng.permutation(inside),  # mostly or wholly root lanes
            np.array([0.5 * (lo + hi)]),
        )
        for th in batches:
            got, want = cross.sstar(th), two_root_sstar(cross, th)
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()


class TestExecuteDelayedOrder:
    def test_both_below_sign_change(self):
        assert execute_delayed_order(80.0, 90.0, 101.15) == 80.0

    def test_both_above_sign_change(self):
        assert execute_delayed_order(110.0, 120.0, 101.15) == 120.0

    def test_straddle_closer_bid_executes_ask(self):
        assert execute_delayed_order(100.0, 105.0, 101.15) == 105.0

    def test_straddle_closer_ask_executes_bid(self):
        assert execute_delayed_order(95.0, 102.0, 101.15) == 95.0

    def test_straddle_flipped_convention(self):
        assert execute_delayed_order(100.0, 105.0, 101.15, straddle_to_ask=False) == 100.0

    def test_constant_sign_fallback(self):
        assert execute_delayed_order(80.0, 90.0, None, delta_sign=-1.0) == 80.0
        assert execute_delayed_order(80.0, 90.0, None, delta_sign=0.0) == 80.0
        assert execute_delayed_order(80.0, 90.0, None, delta_sign=1.0) == 90.0

    def test_crossed_quotes_rejected(self):
        with pytest.raises(ValueError):
            execute_delayed_order(90.0, 80.0, 85.0)


class TestRunPath:
    """Single paths of the vectorised engine, read from collected columns."""

    def test_self_financing_and_support(self):
        pricing = _pricing()
        for p in _paths(REF_MODEL, pricing, 200, 10):
            for t in range(1, 3):
                recon = p.v[t - 1] + p.theta[t - 1] * (p.s[t] - p.s[t - 1])
                assert abs(p.v[t] - recon) <= 1e-12
                ratio = p.s[t] / p.s[t - 1]
                assert 0.7 - 1e-12 <= ratio <= 1.4 + 1e-12
            assert 0.7 - 1e-12 <= p.s[0] / p.s_prev <= 1.4 + 1e-12
            assert p.eps_r >= -1e-9

    def test_v0_is_time_zero_value(self):
        pricing = _pricing()
        (p,) = _paths(REF_MODEL, pricing, 1, 11)
        assert p.v[0] == pricing.value_fns[0](p.s[0])

    def test_deterministic_degenerate_model(self):
        model = MarketModel(
            s_init=100.0,
            horizon=2,
            steps=(StepSpec.from_uniform(1.0, 1.0, 0.0, 0.0),) * 3,
        )
        pricing = backward_induce(call_payoff(80), model)
        (p,) = _paths(model, pricing, 1, 12)
        assert np.all(p.s == 100.0)
        assert p.v[2] == p.v[0] == 20.0
        assert p.eps_r == 0.0

    def test_zero_payoff(self):
        pricing = backward_induce(constant_function(0), REF_MODEL)
        (p,) = _paths(REF_MODEL, pricing, 1, 13)
        assert np.all(p.v == 0.0)
        assert p.eps_r == 0.0

    def test_bid_ask_recorded_at_interior_step(self):
        (p,) = _paths(REF_MODEL, _pricing(), 1, 14)
        assert math.isnan(p.bid[0]) and math.isnan(p.bid[2])
        assert p.bid[1] <= p.s[1] <= p.ask[1]
        assert p.s[1] in (p.bid[1], p.ask[1])


# Step 1 moves the price up by at least 5%: an immediate profit.
AIP_BAD = MarketModel(
    s_init=100.0,
    horizon=2,
    steps=(
        StepSpec.from_uniform(0.7, 1.0, 0.0, 0.4),
        StepSpec.from_uniform(1.05, 1.1, 0.0, 0.3),
        StepSpec.from_uniform(0.7, 1.0, 0.0, 0.4),
    ),
)
ASIAN = asian_call_payoff(100.0)


@pytest.mark.parametrize(
    "entry",
    [
        lambda m: backward_induce(call_payoff(100), m),
        lambda m: asian_tree_price(ASIAN, m, 100.0),
        lambda m: simulate_one(
            m, _pricing(), 100.0, 1, np.random.SeedSequence(0), collect=True
        ),
        lambda m: simulate_one(m, _pricing(), 100.0, 10, np.random.SeedSequence(0)),
        lambda m: run_path_functional(m, ASIAN, _gen(0)),
        lambda m: simulate_functional(m, ASIAN, 100.0, 10, np.random.SeedSequence(0)),
    ],
    ids=[
        "backward_induce",
        "asian_tree_price",
        "simulate_one_collect",
        "simulate_one",
        "run_path_functional",
        "simulate_functional",
    ],
)
def test_aip_gate_names_first_bad_step(entry):
    with pytest.raises(AipViolationError, match="fails at step 1") as err:
        entry(AIP_BAD)
    assert (err.value.step, err.value.k_down) == (1, 1.05)


@pytest.mark.parametrize(
    "engine",
    [
        lambda m: partial(simulate_one, m, backward_induce(call_payoff(100), m)),
        lambda m: partial(simulate_functional, m, ASIAN),
    ],
    ids=["simulate_one", "simulate_functional"],
)
def test_sink_gets_none_mid_step_quotes(engine):
    # one sink contract for both engines; collected output fills NaN instead
    model = uniform_bid_ask_model(horizon=3)
    seen = []
    _, raw = engine(model)(100.0, 20, np.random.SeedSequence(3), collect=True, sink=seen.append)
    (cols,) = seen
    for key in ("bid", "ask"):
        assert cols[key][0] is None and cols[key][3] is None
        assert np.isnan(raw[key][0]).all() and np.isnan(raw[key][3]).all()
        np.testing.assert_array_equal(raw[key][1:3], cols[key][1:3])


class TestSimulate:
    def test_row_values_pinned_horizon_one(self):
        # pinned floats: any change to the merge order or arithmetic of the
        # aggregation shows here; at T=1 no path feeds E(S2) or
        # E(theta1*S1/V1), so both read NaN
        model = uniform_bid_ask_model(horizon=1)
        stats, _ = simulate_one(
            model, _pricing(90.0, model), 90.0, 500, np.random.SeedSequence(5)
        )
        nan = math.nan
        expected = (
            90.0, 95.07983381421488, 90.53904084244444, nan, 18.494688119108766,
            43.80359584392528, 0.18494688119108765, 0.18765952111514844,
            0.05442846018145513, 0.3273723368019184, 0.09865575901386243,
            0.04276443998796462, 0.0, 0.17032340276919908, 3.330834788844849, nan,
        )
        values = stats.row_values()
        assert len(values) == len(stats.ROW_LABELS)
        np.testing.assert_array_equal(values, expected)

    def test_single_path_equals_stats(self):
        pricing = _pricing()
        stats, _ = simulate_one(
            REF_MODEL, pricing, 100.0, 1, np.random.SeedSequence(7)
        )
        cols = _simulate_batch(
            REF_MODEL, pricing, 1, _batch_gen(7), _build_crossings(REF_MODEL, pricing)
        )
        assert stats.mean_s0 == cols["s"][0][0]
        assert stats.mean_s1 == cols["s"][1][0]
        assert stats.mean_v0 == cols["v"][0][0]
        assert stats.mean_eps == cols["eps"][0]
        assert stats.min_eps == stats.max_eps == cols["eps"][0]

    def test_determinism(self):
        pricings = [_pricing(k) for k in (75.0, 100.0)]
        a = simulate(REF_MODEL, pricings, [75.0, 100.0], 20_000, RngConfig(5))
        b = simulate(REF_MODEL, pricings, [75.0, 100.0], 20_000, RngConfig(5))
        assert a == b

    def test_different_seeds_differ(self):
        pricing = [_pricing()]
        a = simulate(REF_MODEL, pricing, [100.0], 5_000, RngConfig(5))
        b = simulate(REF_MODEL, pricing, [100.0], 5_000, RngConfig(6))
        assert a[0].mean_eps != b[0].mean_eps

    def test_batch_split_invariance(self, monkeypatch):
        # same seed, different batch sizes: the per-batch substreams differ,
        # but a fixed batch size must give identical results
        monkeypatch.setattr(simulation, "BATCH_SIZE", 1024)
        pricing = _pricing()
        s1, _ = simulate_one(REF_MODEL, pricing, 100.0, 3000, np.random.SeedSequence(9))
        s2, _ = simulate_one(REF_MODEL, pricing, 100.0, 3000, np.random.SeedSequence(9))
        assert s1 == s2

    def test_model_moments(self):
        stats, _ = simulate_one(
            REF_MODEL, _pricing(), 100.0, 100_000, np.random.SeedSequence(17)
        )
        assert stats.n_paths == 100_000
        assert stats.mean_s0 / REF_MODEL.s_init == pytest.approx(0.95, abs=2e-3)

    def test_pathwise_super_hedge_and_support(self):
        stats, raw = simulate_one(
            REF_MODEL,
            _pricing(),
            100.0,
            100_000,
            np.random.SeedSequence(23),
            collect=True,
        )
        assert stats.min_eps >= -1e-9
        s = raw["s"]
        assert np.all(s[1] / s[0] >= 0.7 - 1e-12)
        assert np.all(s[1] / s[0] <= 1.4 + 1e-12)
        v = raw["v"]
        recon = v[1] + raw["theta"][1] * (s[2] - s[1])
        assert np.max(np.abs(v[2] - recon)) <= 1e-12

    def test_execution_rule_consistency(self):
        pricing = _pricing()
        _, raw = simulate_one(
            REF_MODEL,
            pricing,
            100.0,
            50_000,
            np.random.SeedSequence(29),
            collect=True,
        )
        bid, ask = raw["bid"][1], raw["ask"][1]
        executed = raw["s"][1]
        theta0 = raw["theta"][0]
        theta_fn = StrategyFn(pricing.value_fns[2], 0.7, 1.4)
        cross = OrderSignChange(pricing.value_fns[2], REF_MODEL.steps[2])
        sstar, _ = cross.sstar(theta0)
        straddle = ~np.isnan(sstar) & (bid < sstar) & (sstar < ask)
        at_bid = executed == bid
        at_ask = executed == ask
        assert np.all(at_bid | at_ask)
        d_bid = theta_fn(bid) - theta0
        d_ask = theta_fn(ask) - theta0
        assert np.all(d_bid[at_bid & ~straddle] <= 1e-9)
        assert np.all(d_ask[at_ask & ~straddle] >= -1e-9)

    def test_strike_pricing_count_mismatch(self):
        with pytest.raises(ValueError):
            simulate(REF_MODEL, [_pricing()], [100.0, 125.0], 10, RngConfig(1))

    def test_npaths_validated(self):
        with pytest.raises(ValueError):
            simulate_one(REF_MODEL, _pricing(), 100.0, 0, np.random.SeedSequence(1))


class TestFunctionalEngine:
    def test_matches_vector_engine_on_single_european_path(self):
        pricing = _pricing()
        payoff = call_payoff(100.0)
        (p_vec,) = _paths(REF_MODEL, pricing, 1, 31)
        p_fun = run_path_functional(
            REF_MODEL, lambda path: payoff(path[-1]), _batch_gen(31)
        )
        assert p_fun.s == pytest.approx(p_vec.s, abs=0.0)
        assert p_fun.theta == pytest.approx(p_vec.theta, abs=1e-12)
        assert p_fun.v == pytest.approx(p_vec.v, abs=1e-12)
        assert p_fun.eps_r == pytest.approx(p_vec.eps_r, abs=1e-12)

    def test_asian_paths_super_hedge(self):
        stats, raw = simulate_functional(
            REF_MODEL,
            asian_call_payoff(100.0),
            100.0,
            1500,
            np.random.SeedSequence(37),
            collect=True,
        )
        assert stats.min_eps >= -1e-9
        v, s, theta = raw["v"], raw["s"], raw["theta"]
        recon = v[1] + theta[1] * (s[2] - s[1])
        assert np.max(np.abs(v[2] - recon)) <= 1e-12

    def test_asian_deterministic(self):
        a, _ = simulate_functional(
            REF_MODEL, asian_call_payoff(90.0), 90.0, 300, np.random.SeedSequence(41)
        )
        b, _ = simulate_functional(
            REF_MODEL, asian_call_payoff(90.0), 90.0, 300, np.random.SeedSequence(41)
        )
        assert a == b

    # Pinned bit for bit: any change to the protocol arithmetic shows here.
    GOLDEN_T3 = (
        100.0, 95.82238183423664, 82.2190233856448, 70.64172636413117,
        11.935161956364361, 31.37698079893129, 0.11935161956364361,
        0.11885270437378385, 0.03728854296690936, 0.24829307752006458,
        0.06311388209849275, 0.03205055798209797, 0.0011263303890197455,
        0.13427517866456798, 3.219105863706836, 1.292095804250946,
    )
    GOLDEN_DEGENERATE = (
        100.0, 95.82238183423664, 83.47731529980823, 83.47731529980823,
        10.767752328888571, 29.210625196984296, 0.10767752328888572,
        0.10609962605419719, 0.011574257252623633, 0.23115022037720745,
        0.05389989724507293, 0.03423901560188227, 0.0006696525862505091,
        0.12962049823504612, 3.3285486848883616, 1.012100913834989,
    )

    def test_golden_asian_t3(self):
        stats, _ = simulate_functional(
            uniform_bid_ask_model(horizon=3),
            asian_call_payoff(100.0),
            100.0,
            300,
            np.random.SeedSequence(41),
        )
        assert stats.n_paths == 300
        assert stats.row_values() == self.GOLDEN_T3

    def test_golden_degenerate_interior_step(self):
        # k_down == k_up == 1 at step 2: theta_1 takes the finite-difference branch
        reg = StepSpec.from_uniform(0.7, 1.0, 0.0, 0.4)
        deg = StepSpec.from_uniform(1.0, 1.0, 0.0, 0.0)
        model = MarketModel(s_init=100.0, horizon=3, steps=(reg, reg, deg, reg))
        stats, _ = simulate_functional(
            model, asian_call_payoff(100.0), 100.0, 300, np.random.SeedSequence(41)
        )
        assert stats.row_values() == self.GOLDEN_DEGENERATE

    def test_batch_equals_successive_single_paths(self):
        model = uniform_bid_ask_model(horizon=3)
        payoff = asian_call_payoff(95.0)
        _, raw = simulate_functional(
            model, payoff, 95.0, 50, np.random.SeedSequence(53), collect=True
        )
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(53)))
        for i in range(50):
            path = run_path_functional(model, payoff, rng)
            for key in ("s", "bid", "ask", "theta", "v"):
                column = np.array([c[i] for c in raw[key]])
                assert np.array_equal(getattr(path, key), column, equal_nan=True)
            assert path.eps_r == raw["eps"][i]

    def test_chunk_boundary(self):
        stats, _ = simulate_functional(
            REF_MODEL,
            asian_call_payoff(100.0),
            100.0,
            4100,
            np.random.SeedSequence(59),
        )
        assert stats.n_paths == 4100
        assert stats.min_eps >= 0.0

    def test_scalar_payoff_broadcast(self):
        stats, raw = simulate_functional(
            REF_MODEL, lambda path: 0.0, 0.0, 20, np.random.SeedSequence(61),
            collect=True,
        )
        assert raw["eps"].shape == (20,)
        assert np.all(raw["v"][0] == 0.0) and stats.max_eps == 0.0

    @pytest.mark.parametrize(
        "payoff",
        [
            lambda path: max(path[-1] - 100.0, 0.0),  # written for floats only
            lambda path: path[-1][:3],  # wrong length
        ],
    )
    def test_payoff_breaking_contract_names_it(self, payoff):
        with pytest.raises(TypeError, match="tuple .* of equal-length float arrays"):
            simulate_functional(REF_MODEL, payoff, 100.0, 20, np.random.SeedSequence(67))


class TestRunningMoments:
    def test_merge_matches_direct(self):
        rng = np.random.default_rng(43)
        x = rng.normal(3.0, 2.0, 10_000)
        rm = RunningMoments()
        for chunk in np.array_split(x, 7):
            rm.add_batch(chunk)
        assert rm.count == x.size
        assert rm.mean == pytest.approx(np.mean(x), rel=1e-12)
        assert rm.variance == pytest.approx(np.var(x), rel=1e-10)

    def test_empty_batches_ignored(self):
        rm = RunningMoments()
        rm.add_batch(np.array([]))
        assert rm.count == 0
        assert math.isnan(rm.variance)


def _dump_oracle_columns(raw: dict, horizon: int) -> list[np.ndarray]:
    """The raw column behind each dump header name after path_id."""
    keys = {"S": "s", "bid": "bid", "ask": "ask", "theta": "theta", "V": "v"}
    cols = []
    for name in path_dump_header(horizon).split(",")[1:]:
        if name == "eps_r":
            cols.append(raw["eps"])
        else:
            key, t = name.rsplit("_", 1)
            cols.append(raw[keys[key]][int(t)])
    return cols


class TestPathDump:
    def test_header_layout_two_steps(self):
        assert path_dump_header(2) == (
            "path_id,S_0,S_1,S_2,bid_1,ask_1,theta_0,theta_1,V_0,V_1,V_2,eps_r"
        )

    def test_roundtrip_columns(self):
        _, raw = simulate_one(
            REF_MODEL, _pricing(), 100.0, 50, np.random.SeedSequence(47), collect=True
        )
        buf = io.StringIO()
        write_path_dump(buf, raw, 2)
        lines = buf.getvalue().strip().splitlines()
        assert len(lines) == 51
        table = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
        assert table.shape == (50, 12)
        # 17 significant digits round-trip every float64: every cell is exact.
        assert table[:, 0].tolist() == list(range(50))
        assert np.all(table[:, 1:] == np.column_stack(_dump_oracle_columns(raw, 2)))

    @pytest.mark.parametrize(
        "claim, horizon",
        [("call", 2), ("put", 2), ("custom-pwl", 2), ("call", 1), ("call", 3)],
    )
    def test_bytes_equal_savetxt_oracle(self, claim, horizon):
        payoff = {
            "call": call_payoff(100),
            "put": put_payoff(100),
            "custom-pwl": PwlFunction([80, 100, 130], [10, 0, 15], -1, 1),
        }[claim]
        model = uniform_bid_ask_model(horizon=horizon)
        n = DUMP_ROWS + 3  # the last chunk is partial
        _, raw = simulate_one(
            model,
            backward_induce(payoff, model),
            100.0,
            n,
            np.random.SeedSequence(59),
            collect=True,
        )
        buf = io.StringIO()
        write_path_dump(buf, raw, horizon)
        oracle = io.StringIO()
        oracle.write(path_dump_header(horizon) + "\n")
        cols = _dump_oracle_columns(raw, horizon)
        np.savetxt(
            oracle,
            np.column_stack([np.arange(n)] + cols),
            fmt=["%d"] + ["%.17g"] * len(cols),
            delimiter=",",
        )
        assert buf.getvalue() == oracle.getvalue()
        if claim == "put":  # negative holdings print their sign
            assert np.any(raw["theta"][0] < 0) and ",-" in buf.getvalue()
