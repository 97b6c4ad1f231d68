"""Execution simulator: draws, order sign-change logic, path accounting,
aggregation, reproducibility."""

import io
import math
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superhedge import simulation
from superhedge.pricing import (
    TREE_DEPTH_CAP,
    AipViolationError,
    MarketModel,
    StepSpec,
    StrategyFn,
    asian_call_payoff,
    asian_tree_price,
    backward_induce,
    uniform_bid_ask_model,
)
from superhedge.pwl import PwlFunction, call_payoff, put_payoff
from superhedge.simulation import (
    DUMP_ROWS,
    OrderSignChange,
    RunningMoments,
    _build_crossings,
    _simulate_batch,
    draw_step,
    execute_delayed_order,
    mid_execute,
    path_dump_header,
    run_path_functional,
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


def _collected(model, pricing, n, seed):
    """The path columns of one collected simulate_one run of n paths."""
    return simulate_one(
        model, pricing, 0.0, n, np.random.SeedSequence(seed), collect=True
    )[1]


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

    @pytest.mark.parametrize(
        "step",
        [
            REF_MODEL.steps[0],
            StepSpec.from_uniform(0.9, 0.9, 0.0, 0.2),  # m_lo == m_hi
            StepSpec.from_uniform(1.0, 1.0, 0.0, 0.0),  # degenerate step
            StepSpec(1, 2, 1, 1, 0, 1),  # integer bounds
        ],
        ids=["wide", "fixed_m", "degenerate", "int_bounds"],
    )
    def test_out_reproduces_uniform_stream(self, step):
        ref, rng = _gen(4), _gen(4)
        rows = np.empty((3, 1001))
        # two steps in a row, into ``out`` and then into fresh rows: the
        # streams stay in step
        for out in (tuple(rows), None):
            m = ref.uniform(step.m_lo, step.m_hi, 1001)
            spr = ref.uniform(step.spr_lo, step.spr_hi, 1001)
            k = ref.uniform(0.0, 1.0, 1001)
            got = draw_step(step, rng, size=1001, out=out)
            assert out is None or all(g.base is rows for g in got)
            for want, row in zip((m, m + spr, k), got):
                assert want.tobytes() == row.tobytes()
        assert ref.random() == rng.random()


    def test_skipped_k_row_advances_the_stream(self):
        # bid/ask steps pass None for k: the stream moves on as if it were drawn
        step = REF_MODEL.steps[1]
        ref, rng = _gen(5), _gen(5)
        want = draw_step(step, ref, size=1001)
        rows = np.empty((2, 1001))
        m, M, k = draw_step(step, rng, out=(*rows, None))
        assert k is None and m.base is rows and M.base is rows
        assert m.tobytes() == want[0].tobytes() and M.tobytes() == want[1].tobytes()
        assert ref.random(3).tobytes() == rng.random(3).tobytes()


class TestMidExecute:
    def test_ends_and_middle(self):
        assert mid_execute(100.0, 0.8, 1.0, 0.0) == pytest.approx(80.0)
        assert mid_execute(100.0, 0.8, 1.0, 1.0) == pytest.approx(100.0)
        assert mid_execute(100.0, 0.8, 1.0, 0.5) == pytest.approx(90.0)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            mid_execute(0.0, 0.8, 1.0, 0.5)
        for bad in (math.nan, math.inf, -math.inf):
            msg = f"s_prev must be positive and finite, got {bad}"
            with pytest.raises(ValueError, match=msg):
                mid_execute(np.array([90.0, bad, 110.0]), 0.8, 1.0, 0.5)


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
        (th == cross.theta_hi) & (cross.t_vals[-1] < cross.theta_hi)
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
    """Paths of the vectorised engine, read from collected columns."""

    def test_self_financing_and_support(self):
        raw = _collected(REF_MODEL, _pricing(), 200, 10)
        s, v, theta = raw["s"], raw["v"], raw["theta"]
        for t in range(1, 3):
            recon = v[t - 1] + theta[t - 1] * (s[t] - s[t - 1])
            assert np.all(np.abs(v[t] - recon) <= 1e-12)
            ratio = s[t] / s[t - 1]
            assert np.all((0.7 - 1e-12 <= ratio) & (ratio <= 1.4 + 1e-12))
        ratio = s[0] / REF_MODEL.s_init
        assert np.all((0.7 - 1e-12 <= ratio) & (ratio <= 1.4 + 1e-12))
        assert np.all(raw["eps"] >= -1e-9)

    def test_v0_is_time_zero_value(self):
        pricing = _pricing()
        raw = _collected(REF_MODEL, pricing, 1, 11)
        assert raw["v"][0][0] == pricing.value_fns[0](raw["s"][0][0])

    def test_deterministic_degenerate_model(self):
        model = MarketModel(
            s_init=100.0,
            horizon=2,
            steps=(StepSpec.from_uniform(1.0, 1.0, 0.0, 0.0),) * 3,
        )
        pricing = backward_induce(call_payoff(80), model)
        raw = _collected(model, pricing, 1, 12)
        assert np.all(np.array(raw["s"]) == 100.0)
        assert raw["v"][2][0] == raw["v"][0][0] == 20.0
        assert raw["eps"][0] == 0.0

    def test_zero_payoff(self):
        pricing = backward_induce(PwlFunction([0], [0]), REF_MODEL)
        raw = _collected(REF_MODEL, pricing, 1, 13)
        assert np.all(np.array(raw["v"]) == 0.0)
        assert raw["eps"][0] == 0.0

    def test_bid_ask_recorded_at_interior_step(self):
        raw = _collected(REF_MODEL, _pricing(), 1, 14)
        bid, ask, s = raw["bid"], raw["ask"], raw["s"]
        assert bid[0] is None and bid[2] is None
        assert bid[1][0] <= s[1][0] <= ask[1][0]
        assert s[1][0] in (bid[1][0], ask[1][0])


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


@pytest.mark.parametrize("model_horizon, pricing_horizon", [(2, 3), (3, 2)])
def test_pricing_of_another_horizon_refused(model_horizon, pricing_horizon):
    model = uniform_bid_ask_model(horizon=model_horizon)
    pricing = _pricing(model=uniform_bid_ask_model(horizon=pricing_horizon))
    msg = f"pricing horizon {pricing_horizon} != model's {model_horizon}"
    seen = []
    with pytest.raises(ValueError, match=msg):
        simulate_one(
            model, pricing, 100.0, 10, np.random.SeedSequence(1), sink=seen.append
        )
    assert seen == []
    with pytest.raises(ValueError, match=msg):
        simulate_one(model, pricing, 100.0, 10, np.random.SeedSequence(1))
    for t in range(pricing_horizon):
        with pytest.raises(ValueError, match=msg):
            pricing.strategy(t, model)


@pytest.mark.parametrize(
    "engine",
    [
        lambda m: partial(simulate_one, m, backward_induce(call_payoff(100), m)),
        lambda m: partial(simulate_functional, m, ASIAN),
    ],
    ids=["simulate_one", "simulate_functional"],
)
def test_sink_gets_none_mid_step_quotes(engine):
    # one column format for both engines, in a sink and in collected output
    model = uniform_bid_ask_model(horizon=3)
    seen = []
    _, raw = engine(model)(100.0, 20, np.random.SeedSequence(3), collect=True, sink=seen.append)
    (cols,) = seen
    for key in ("bid", "ask"):
        assert cols[key][0] is None and cols[key][3] is None
        assert raw[key][0] is None and raw[key][3] is None
        np.testing.assert_array_equal(raw[key][1:3], cols[key][1:3])


def _copy_cols(cols):
    out = {key: [None if c is None else c.copy() for c in cols[key]] for key in PATH_KEYS}
    out["eps"] = cols["eps"].copy()
    return out


@pytest.mark.parametrize(
    "engine, batch, n",
    [
        (
            lambda m: partial(simulate_one, m, backward_induce(call_payoff(100), m)),
            "BATCH_SIZE",
            2500,
        ),
        (lambda m: partial(simulate_functional, m, ASIAN), "FUNCTIONAL_CHUNK", 40),
    ],
    ids=["simulate_one", "simulate_functional"],
)
def test_collect_equals_copies_taken_in_sink(monkeypatch, engine, batch, n):
    # a sink's columns are views into the workspace the next batch reuses:
    # collect=True must copy every batch, the short last one included
    monkeypatch.setattr(simulation, batch, 1000 if batch == "BATCH_SIZE" else 16)
    monkeypatch.setattr(simulation, "TILE", 300)
    model = uniform_bid_ask_model(horizon=3)
    copies, seen = [], []

    def sink(cols):
        copies.append(_copy_cols(cols))
        seen.append(cols)

    _, raw = engine(model)(100.0, n, np.random.SeedSequence(8), collect=True, sink=sink)
    size = getattr(simulation, batch)
    assert [c["eps"].size for c in copies] == [size, size, n - 2 * size]
    assert seen[0]["s"][0].base is seen[1]["s"][0].base  # one reused workspace
    np.testing.assert_array_equal(raw["eps"], np.concatenate([c["eps"] for c in copies]))
    for key in PATH_KEYS:
        for t, whole in enumerate(raw[key]):
            parts = [c[key][t] for c in copies]
            if parts[0] is None:
                assert whole is None
            else:
                np.testing.assert_array_equal(whole, np.concatenate(parts))


# Steps mixed per horizon by the tiling tests: wide, narrow, degenerate.
TILE_STEPS = (
    StepSpec.from_uniform(0.7, 1.0, 0.0, 0.4),
    StepSpec.from_uniform(0.9, 1.0, 0.05, 0.2),
    StepSpec.from_uniform(1.0, 1.0, 0.0, 0.0),
)


def _tiled_run(simulate, model, n, seed, tile, sizes):
    """(stats rows, streamed path dump) of one run with TILE = ``tile`` and
    the batch sizes ``sizes`` patched in."""
    buf, done = io.StringIO(), 0

    def sink(cols):
        nonlocal done
        write_path_dump(buf, cols, model.horizon, done)
        done += cols["eps"].size

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulation, "TILE", tile)
        for name, size in sizes.items():
            mp.setattr(simulation, name, size)
        stats, _ = simulate(100.0, n, np.random.SeedSequence(seed), sink=sink)
    return stats.row_values(), buf.getvalue()


class TestTiles:
    """Each step runs TILE lanes at a time; every operation is elementwise,
    so any tile size gives the stats and dump bytes of one tile per batch."""

    @settings(max_examples=30, deadline=None)
    @given(
        horizon=st.integers(1, 4),
        picks=st.lists(st.integers(0, 2), min_size=5, max_size=5),
        payoff=st.sampled_from([call_payoff(90), put_payoff(110)]),
        straddle_to_ask=st.booleans(),
        # (TILE, n_paths, BATCH_SIZE): n is no multiple of TILE, and the
        # run crosses a batch boundary with a short last batch
        case=st.sampled_from([(1, 23, 16), (5, 23, 16), (4096, 2 * 4096 + 37, 5000)]),
        seed=st.integers(0, 2**32),
    )
    def test_european_tiles_keep_bytes(self, horizon, picks, payoff, straddle_to_ask, case, seed):
        tile, n, batch = case
        model = MarketModel(100.0, horizon, tuple(TILE_STEPS[i] for i in picks[: horizon + 1]))
        simulate = partial(
            simulate_one, model, backward_induce(payoff, model), straddle_to_ask=straddle_to_ask
        )
        sizes = {"BATCH_SIZE": batch}
        want = _tiled_run(simulate, model, n, seed, n, sizes)  # one tile per batch
        got = _tiled_run(simulate, model, n, seed, tile, sizes)
        np.testing.assert_array_equal(got[0], want[0])
        assert got[1] == want[1]

    @pytest.mark.parametrize("tile", [1, 5])
    @pytest.mark.parametrize("straddle_to_ask", [True, False])
    @pytest.mark.parametrize(
        "picks", [(0, 0, 0, 0), (0, 2, 1, 0)], ids=["homogeneous", "degenerate"]
    )
    def test_functional_tiles_keep_bytes(self, tile, straddle_to_ask, picks):
        model = MarketModel(100.0, 3, tuple(TILE_STEPS[i] for i in picks))
        simulate = partial(simulate_functional, model, ASIAN, straddle_to_ask=straddle_to_ask)
        sizes = {"FUNCTIONAL_CHUNK": 16}
        want = _tiled_run(simulate, model, 23, 5, 4096, sizes)
        got = _tiled_run(simulate, model, 23, 5, tile, sizes)
        np.testing.assert_array_equal(got[0], want[0])
        assert got[1] == want[1]


# One convex payoff per claim kind for the layout tests.
LAYOUT_PAYOFFS = {
    "call": call_payoff(100),
    "put": put_payoff(110),
    "custom-pwl": PwlFunction([80, 100, 130], [10, 0, 15], -1, 1),
}


def _layout_model(horizon, mixed):
    """The reference model, or a per-step mix of TILE_STEPS with a degenerate
    step at t = 1 (the last step at T = 1)."""
    picks = [(2 * t) % 3 if mixed else 0 for t in range(horizon + 1)]
    return MarketModel(100.0, horizon, tuple(TILE_STEPS[i] for i in picks))


def _workspace_floats(ws: dict) -> int:
    """Floats held by the arrays of a workspace, each allocation once."""
    owners = {}
    for x in ws.values():
        if isinstance(x, np.ndarray):
            owner = x if x.base is None else x.base
            owners[id(owner)] = owner.size
    return sum(owners.values())


class TestCompactWorkspace:
    """A stats-only simulate_one runs in the compact row layout (at most 16
    path rows); with a sink or collect it keeps every step's row (5T+1).
    Both layouts give the same floats on every entry they both hold."""

    @pytest.mark.parametrize("mixed", [False, True], ids=["uniform", "mixed"])
    @pytest.mark.parametrize("claim", sorted(LAYOUT_PAYOFFS))
    @pytest.mark.parametrize("horizon", [1, 2, 3, 5, 12, 40])
    def test_stats_equal_full_layout(self, monkeypatch, horizon, claim, mixed):
        # 2 batches of 16 and one of 3 paths, in tiles of 5 lanes
        monkeypatch.setattr(simulation, "TILE", 5)
        monkeypatch.setattr(simulation, "BATCH_SIZE", 16)
        model = _layout_model(horizon, mixed)
        pricing = backward_induce(LAYOUT_PAYOFFS[claim], model)
        run = partial(simulate_one, model, pricing, 100.0, 35)
        compact, _ = run(np.random.SeedSequence(horizon))
        full, _ = run(np.random.SeedSequence(horizon), sink=lambda cols: None)
        np.testing.assert_array_equal(compact.row_values(), full.row_values())

    @pytest.mark.parametrize("mixed", [False, True], ids=["uniform", "mixed"])
    @pytest.mark.parametrize("horizon", [1, 2, 3, 5, 12])
    def test_held_entries_equal_full_layout(self, monkeypatch, horizon, mixed):
        monkeypatch.setattr(simulation, "TILE", 5)
        model = _layout_model(horizon, mixed)
        pricing = backward_induce(call_payoff(100), model)
        crossings = _build_crossings(model, pricing)

        def batch(compact):
            ws = simulation._workspace(horizon, 23, compact=compact)
            return _simulate_batch(model, pricing, 23, _batch_gen(3), crossings, ws=ws)

        compact, full = batch(True), batch(False)
        assert compact["eps"].tobytes() == full["eps"].tobytes()
        for key in PATH_KEYS:
            assert len(compact[key]) == len(full[key])
            for c, f in zip(compact[key], full[key]):
                assert c is None or c.tobytes() == f.tobytes()
        held = {key: [c is not None for c in compact[key]] for key in PATH_KEYS}
        assert all(held["s"][: min(3, horizon + 1)]) and held["s"][-1]
        assert all(held["v"][:2]) and all(held["theta"][: min(2, horizon)])

    @pytest.mark.parametrize(
        "sink, path_rows",
        [(None, 16), (lambda cols: None, 5 * 60 + 1)],
        ids=["stats-only", "sink"],
    )
    def test_workspace_floats_bound(self, monkeypatch, sink, path_rows):
        monkeypatch.setattr(simulation, "BATCH_SIZE", 64)
        model = uniform_bid_ask_model(horizon=60)
        made, real = [], simulation._workspace

        def spy(*args, **kwargs):
            ws = real(*args, **kwargs)
            made.append(_workspace_floats(ws))
            return ws

        monkeypatch.setattr(simulation, "_workspace", spy)
        simulate_one(
            model, _pricing(model=model), 100.0, 100, np.random.SeedSequence(2), sink=sink
        )
        (floats,) = made  # one workspace per run
        bound = (path_rows + 3) * 64  # path rows and draw rows of 64 lanes
        assert floats <= bound if sink is None else floats == bound


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
        # one strike per child of the root seed, as the CLI runs them
        def run(seed):
            children = np.random.SeedSequence(seed).spawn(2)
            return [
                simulate_one(REF_MODEL, _pricing(k), k, 20_000, child)[0]
                for k, child in zip((75.0, 100.0), children)
            ]

        assert run(5) == run(5)

    def test_different_seeds_differ(self):
        a, _ = simulate_one(REF_MODEL, _pricing(), 100.0, 5_000, np.random.SeedSequence(5))
        b, _ = simulate_one(REF_MODEL, _pricing(), 100.0, 5_000, np.random.SeedSequence(6))
        assert a.mean_eps != b.mean_eps

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

    def test_npaths_validated(self):
        with pytest.raises(ValueError):
            simulate_one(REF_MODEL, _pricing(), 100.0, 0, np.random.SeedSequence(1))


class TestFunctionalEngine:
    def test_matches_vector_engine_on_single_european_path(self):
        pricing = _pricing()
        payoff = call_payoff(100.0)
        vec = _collected(REF_MODEL, pricing, 1, 31)
        fun = run_path_functional(
            REF_MODEL, lambda path: payoff(path[-1]), _batch_gen(31)
        )
        assert np.ravel(fun["s"]) == pytest.approx(np.ravel(vec["s"]), abs=0.0)
        assert np.ravel(fun["theta"]) == pytest.approx(np.ravel(vec["theta"]), abs=1e-12)
        assert np.ravel(fun["v"]) == pytest.approx(np.ravel(vec["v"]), abs=1e-12)
        assert fun["eps"][0] == pytest.approx(vec["eps"][0], abs=1e-12)

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
            for key in PATH_KEYS:
                for one, whole in zip(path[key], raw[key], strict=True):
                    assert one is whole is None or one[0] == whole[i]
            assert path["eps"][0] == raw["eps"][i]

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

    def test_draws_fill_workspace_block_with_uniform_bits(self):
        model = uniform_bid_ask_model(horizon=3)
        ws = simulation._workspace(3, 16, (16, 4, 3))
        simulation._functional_batch(model, ASIAN, 10, _gen(71), ws=ws)
        lo = np.array([(st.m_lo, st.spr_lo, 0.0) for st in model.steps])
        hi = np.array([(st.m_hi, st.spr_hi, 1.0) for st in model.steps])
        want = lo + (hi - lo) * _gen(71).random((10, 4, 3))
        assert ws["draw"][:10].tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "engine",
    [
        lambda m, rng: run_path_functional(m, ASIAN, rng),
        lambda m, rng: simulate_functional(m, ASIAN, 100.0, 5, np.random.SeedSequence(1)),
    ],
    ids=["run_path_functional", "simulate_functional"],
)
def test_functional_engines_refuse_horizon_above_tree_cap(engine):
    model = uniform_bid_ask_model(horizon=TREE_DEPTH_CAP + 1)
    rng = _gen(5)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="tree depth cap 20"):
        engine(model, rng)
    assert rng.bit_generator.state == state  # refused before any draw


def test_batch_seeds_spawned_as_batches_start(monkeypatch):
    monkeypatch.setattr(simulation, "BATCH_SIZE", 100)
    seed_seq, spawned = np.random.SeedSequence(13), []

    def sink(cols):
        spawned.append(seed_seq.n_children_spawned)

    simulate_one(REF_MODEL, _pricing(), 100.0, 450, seed_seq, sink=sink)
    assert spawned == [1, 2, 3, 4, 5]


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

    def test_mean_only_merges_the_same_means(self):
        # values whose squares overflow: only the series that keeps M2 squares them
        x = np.random.default_rng(44).uniform(1e200, 1e201, 1000)
        both, mean_only = RunningMoments(), RunningMoments(m2=None)
        with np.errstate(over="raise"):
            for chunk in np.array_split(x, 7):
                mean_only.add_batch(chunk)
        with np.errstate(over="ignore"):
            for chunk in np.array_split(x, 7):
                both.add_batch(chunk)
        assert mean_only.mean.hex() == both.mean.hex()
        assert mean_only.count == both.count and mean_only.m2 is None


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
