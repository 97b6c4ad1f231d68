"""Backward valuation: no-arbitrage check, one-step and multi-step pricing,
closed-form oracle equivalence, strategies, tree engine."""

import math
from bisect import bisect_left
from fractions import Fraction

import numpy as np
import pytest

from superhedge.pricing import (
    AipViolationError,
    MarketModel,
    StepSpec,
    asian_call_payoff,
    asian_tree_price,
    backward_induce,
    check_aip,
    initial_premium,
    one_step_price,
    require_aip,
    uniform_bid_ask_model,
)
from superhedge.pwl import (
    Interval,
    PwlFunction,
    call_payoff,
    put_payoff,
    upper_concave_envelope,
)
from superhedge.simulation import mid_execute

from closed_form import closed_form_call
from exact_domination import check_points, dominates, piece_slopes, sampled_affine

ZERO = PwlFunction([0], [0])


def two_step_model(b1=(0.7, 1.4), b2=(0.7, 1.4), s_init=100.0):
    return MarketModel(
        s_init=s_init,
        horizon=2,
        steps=(
            StepSpec(k_down=b1[0], k_up=b1[1]),
            StepSpec(k_down=b1[0], k_up=b1[1]),
            StepSpec(k_down=b2[0], k_up=b2[1]),
        ),
    )


class TestStepSpec:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            StepSpec(k_down=1.4, k_up=0.7)
        with pytest.raises(ValueError):
            StepSpec(k_down=0.0, k_up=1.0)

    def test_distribution_consistency(self):
        StepSpec.from_uniform(0.7, 1.0, 0.0, 0.4)  # fine
        with pytest.raises(ValueError):
            StepSpec(k_down=0.8, k_up=1.4, m_lo=0.7, m_hi=1.0, spr_lo=0.0, spr_hi=0.4)
        with pytest.raises(ValueError):
            StepSpec(k_down=0.7, k_up=1.3, m_lo=0.7, m_hi=1.0, spr_lo=0.0, spr_hi=0.4)

    @pytest.mark.parametrize(
        "k_down, k_up", [(0.7, 1.2999999999995), (0.7000000000005, 1.3)]
    )
    def test_bounds_are_the_draws_exact_support(self, k_down, k_up):
        # both lie within 1e-12 of the draws' support [0.7, 0.9 + 0.4], so they
        # are accepted, and the step prices on that support: no draw lies outside
        step = StepSpec(k_down, k_up, 0.7, 0.9, 0.0, 0.4)
        assert (step.k_down, step.k_up) == (0.7, 0.9 + 0.4)
        assert step == StepSpec.from_uniform(0.7, 0.9, 0.0, 0.4)

    def test_draws_must_stay_positive(self):
        # k_down lies within 1e-12 of m_lo, but the draws could reach 0
        with pytest.raises(ValueError, match="need 0 < m_lo <= m_hi"):
            StepSpec(1e-13, 1.0, -1e-13, 0.6, 0.0, 0.4)

    def test_partial_distribution_rejected(self):
        with pytest.raises(ValueError):
            StepSpec(k_down=0.7, k_up=1.4, m_lo=0.7)

    def test_model_step_count(self):
        with pytest.raises(ValueError):
            MarketModel(s_init=100, horizon=2, steps=(StepSpec(0.7, 1.4),) * 2)

    @pytest.mark.parametrize(
        "step",
        [StepSpec(0.7, 1.4), StepSpec.from_uniform(0.7, 0.9, 0.0, 0.4), StepSpec(1.0, 1.0)],
        ids=["bounds", "draws", "degenerate"],
    )
    def test_exact_data_is_the_fraction_forms(self, step):
        kd, ku, lam = step.exact
        assert (kd, ku) == (Fraction(step.k_down), Fraction(step.k_up))
        assert all(type(q) is Fraction for q in step.exact)
        if kd == ku:  # both chord ends coincide: the weight's continuity convention
            assert lam == Fraction(1, 2)
        else:
            assert lam == (ku - 1) / (ku - kd)
        assert step.exact is step.exact  # derived once per instance

    def test_exact_data_is_no_field(self):
        fresh, read = StepSpec(0.7, 1.4), StepSpec(0.7, 1.4)
        read.exact
        assert fresh == read and hash(fresh) == hash(read)
        assert repr(read) == repr(fresh) == (
            "StepSpec(k_down=0.7, k_up=1.4, m_lo=None, m_hi=None, spr_lo=None, spr_hi=None)"
        )


@pytest.mark.parametrize(
    "build, bad",
    [
        (lambda: StepSpec(0.7, math.inf), "inf"),
        (lambda: StepSpec.from_uniform(0.7, 1.0, 0.0, math.inf), "inf"),
        (lambda: MarketModel(math.inf, 1, (StepSpec(0.7, 1.4),) * 2), "inf"),
        (
            lambda: asian_tree_price(
                asian_call_payoff(100), uniform_bid_ask_model(horizon=2), math.inf
            ),
            "inf",
        ),
        (lambda: asian_call_payoff(math.inf), "inf"),
        (lambda: asian_call_payoff(math.nan), "nan"),
        (lambda: mid_execute(math.nan, 0.7, 1.0, 0.5), "positive and finite, got nan"),
        (lambda: mid_execute(np.array([90.0, math.inf]), 0.7, 1.0, 0.5), "got inf"),
    ],
    ids=[
        "step_k_up",
        "step_spread",
        "model_s_init",
        "asian_tree_s0",
        "asian_strike_inf",
        "asian_strike_nan",
        "mid_execute_nan",
        "mid_execute_inf_lane",
    ],
)
def test_non_finite_model_inputs_refused(build, bad):
    with pytest.raises(ValueError, match=bad):
        build()


class TestCheckAip:
    def test_reference_model_passes(self):
        assert check_aip(uniform_bid_ask_model()) == (True, True, True)

    def test_deterministic_unit_step(self):
        m = MarketModel(s_init=1.0, horizon=1, steps=(StepSpec(1, 1),) * 2)
        assert check_aip(m) == (True, True)

    def test_upward_drift_fails(self):
        m = two_step_model(b1=(1.1, 1.4), b2=(1.1, 1.4))
        assert check_aip(m) == (False, False, False)
        with pytest.raises(AipViolationError, match="fails at step 0"):
            require_aip(m)

    def test_single_bad_step_named(self):
        m = MarketModel(
            s_init=100,
            horizon=2,
            steps=(StepSpec(0.7, 1.4), StepSpec(1.1, 1.4), StepSpec(0.7, 1.4)),
        )
        assert check_aip(m) == (True, False, True)
        with pytest.raises(AipViolationError, match="fails at step 1"):
            require_aip(m)


class TestOneStepPrice:
    def test_worked_value(self):
        q = one_step_price(call_payoff(100), 100.0, StepSpec(0.7, 1.4))
        assert q.price == pytest.approx(120 / 7, abs=1e-12)
        assert q.theta == pytest.approx(4 / 7, abs=1e-12)

    def test_zero_claim_prices_to_zero(self):
        for s in (10.0, 100.0, 250.0):
            q = one_step_price(ZERO, s, StepSpec(0.7, 1.4))
            assert q.price == 0.0
            assert q.theta == 0.0

    def test_infinite_when_support_excludes_current(self):
        q = one_step_price(call_payoff(100), 100.0, StepSpec(1.1, 1.4))
        assert q.price == -math.inf
        assert math.isnan(q.theta)

    def test_degenerate_support(self):
        q = one_step_price(call_payoff(100), 120.0, StepSpec(1, 1))
        assert q.price == 20.0
        assert q.theta == 0.0
        q2 = one_step_price(call_payoff(100), 120.0, StepSpec(0.9, 0.9))
        assert q2.price == -math.inf

    def test_nonpositive_price_rejected(self):
        with pytest.raises(ValueError):
            one_step_price(call_payoff(100), 0.0, StepSpec(0.7, 1.4))
        msg = "s_prev must be positive and finite, got inf"
        with pytest.raises(ValueError, match=msg):
            one_step_price(call_payoff(100), math.inf, StepSpec(0.7, 1.4))

    def test_nonconvex_payoff_via_envelope(self):
        tent = PwlFunction([80, 100, 120], [0, 10, 0], left_slope=0, right_slope=0)
        q = one_step_price(tent, 100.0, StepSpec(0.7, 1.4))
        # envelope over [70, 140] is the hull through (70,0),(100,10),(140,0)
        assert q.price == pytest.approx(10.0, abs=1e-12)
        lo, hi = 10 / 30, -10 / 40
        assert q.theta == pytest.approx(0.5 * (lo + hi), abs=1e-12)

    def test_super_hedge_identity(self):
        rng = np.random.default_rng(11)
        step = StepSpec(0.7, 1.4)
        for _ in range(30):
            strike = float(rng.uniform(40, 180))
            s = float(rng.uniform(50, 160))
            q = one_step_price(call_payoff(strike), s, step)
            zs = np.linspace(0.7 * s, 1.4 * s, 200)
            gap = q.price + q.theta * (zs - s) - call_payoff(strike)(zs)
            assert gap.min() >= -1e-9

    def test_domination_sandwich(self):
        # every affine dominating the claim on the support prices at or above
        # the one-step value; the tangent at s attains it (exact rationals)
        rng = np.random.default_rng(12)
        g = call_payoff(100)
        s = Fraction(100)
        dom = Interval(70, 140)
        q = one_step_price(g, float(s), StepSpec(0.7, 1.4))
        h = upper_concave_envelope(g, dom)
        price = h.eval_exact(s)
        pts = check_points(dom, g, h)
        for _ in range(1000):
            slope, icept = sampled_affine(
                g, check_points(dom, g), rng.uniform(-2, 3), rng.uniform(0, 5)
            )
            assert dominates(slope, icept, g, pts)
            assert slope * s + icept >= price
        theta = piece_slopes(h)[bisect_left(h.breakpoints, s)]
        assert dominates(theta, price - theta * s, g, pts)
        assert q.theta == float(theta)
        assert abs(q.price - float(price)) <= 1e-12


class TestBackwardInduce:
    def test_worked_values(self):
        model = uniform_bid_ask_model()
        res = backward_induce(call_payoff(100), model)
        g1, g0 = res.value_fns[1], res.value_fns[0]
        assert g1(140.0) == pytest.approx(288 / 7, abs=1e-12)
        assert g1(70.0) == 0.0
        assert g0(100.0) == pytest.approx(864 / 49, abs=1e-12)

    def test_single_step_reduces_to_one_step_price(self):
        model = uniform_bid_ask_model(horizon=1)
        payoff = call_payoff(90)
        res = backward_induce(payoff, model)
        for s in np.linspace(20, 250, 40):
            q = one_step_price(payoff, float(s), model.steps[1])
            assert res.value_fns[0](float(s)) == pytest.approx(q.price, abs=1e-10)

    def test_zero_payoff_stays_zero(self):
        model = uniform_bid_ask_model(horizon=4)
        res = backward_induce(ZERO, model)
        xs = np.linspace(0, 400, 100)
        for g in res.value_fns:
            assert np.all(g(xs) == 0.0)

    def test_aip_violation_carries_step(self):
        model = MarketModel(
            s_init=100,
            horizon=2,
            steps=(StepSpec(0.7, 1.4), StepSpec(0.7, 1.4), StepSpec(1.05, 1.4)),
        )
        with pytest.raises(AipViolationError) as err:
            backward_induce(call_payoff(100), model)
        assert err.value.step == 2

    def test_nonconvex_payoff_rejected(self):
        tent = PwlFunction([80, 100, 120], [0, 10, 0], left_slope=0, right_slope=0)
        with pytest.raises(ValueError, match="convex"):
            backward_induce(tent, uniform_bid_ask_model())

    def test_lambdas_in_unit_interval_iff_aip(self):
        model = uniform_bid_ask_model()
        res = backward_induce(call_payoff(100), model)
        assert all(0.0 <= lam <= 1.0 for lam in res.lambdas)

    def test_degenerate_step_weight_is_half(self):
        model = MarketModel(s_init=10.0, horizon=1, steps=(StepSpec(1, 1),) * 2)
        res = backward_induce(call_payoff(8), model)
        assert res.lambdas == (0.5, 0.5)  # continuity limit at k_up == k_down
        assert res.value_fns[0](10.0) == 2.0

    def test_degenerate_step_carries_value_over(self):
        # k_down == k_up == 1 at step 2: the next price is the current one,
        # so g_1 is g_2 itself, in the same canonical form
        steps = (StepSpec(0.7, 1.4), StepSpec(0.8, 1.2), StepSpec(1, 1), StepSpec(0.9, 1.1))
        model = MarketModel(s_init=100.0, horizon=3, steps=steps)
        for payoff in (call_payoff(100), put_payoff(90)):
            fns = backward_induce(payoff, model).value_fns
            assert fns[1] == fns[2]
            assert fns[2] != fns[3] and fns[0] != fns[1]

    def test_convexity_and_nonnegativity_propagate(self):
        rng = np.random.default_rng(13)
        xs = np.linspace(0.1, 500, 300)
        for _ in range(15):
            kd = float(rng.uniform(0.5, 1.0))
            ku = float(rng.uniform(1.0, 1.8))
            strike = float(rng.uniform(50, 150))
            model = MarketModel(
                s_init=100.0,
                horizon=3,
                steps=(StepSpec(kd, ku),) * 4,
            )
            res = backward_induce(call_payoff(strike), model)
            payoff = res.payoff
            for g in res.value_fns:
                assert g.is_convex()
                vals = g(xs)
                assert np.all(vals >= -0.0)
                assert np.all(vals >= payoff(xs) - 1e-9)  # price above claim

    def test_price_call_builds_no_float_view_past_g0(self):
        # pricing reads the floats of g_0 only; g_1..g_T keep just their
        # integer lists until a simulation evaluates them
        model = uniform_bid_ask_model(horizon=40)
        res = backward_induce(call_payoff(100), model)
        initial_premium(res, model)
        assert [g._floats for g in res.value_fns[1:]] == [None] * 40
        assert res.value_fns[0]._floats is not None

    @pytest.mark.parametrize(
        "payoff",
        [call_payoff(100), put_payoff(90), PwlFunction([80, 95, 110, 130], [15, 5, 3, 10], -1, 2)],
        ids=["call", "put", "four_kinks"],
    )
    @pytest.mark.parametrize("s_init", [100.0, 70.0, 137.5])
    def test_initial_premium_has_the_bits_of_g0(self, payoff, s_init):
        steps = (StepSpec(0.7, 1.4), StepSpec(0.8, 1.2), StepSpec(1, 1), StepSpec(0.9, 1.1))
        model = MarketModel(s_init=s_init, horizon=3, steps=steps)
        res = backward_induce(payoff, model)
        g0 = res.value_fns[0]
        lo, hi = 0.7 * s_init, 1.4 * s_init
        xs = [lo, hi] + [b for b in g0._float_views()[0].tolist() if lo < b < hi]
        assert initial_premium(res, model).hex() == max(g0(x) for x in xs).hex()

    def test_put_payoff_supported(self):
        model = uniform_bid_ask_model()
        res = backward_induce(put_payoff(100), model)
        assert res.value_fns[0].is_convex()
        assert res.value_fns[0](100.0) > 0.0

    def test_initial_premium_dominates_support(self):
        model = uniform_bid_ask_model()
        res = backward_induce(call_payoff(100), model)
        p0 = initial_premium(res, model)
        g0 = res.value_fns[0]
        xs = np.linspace(70, 140, 500)
        assert np.all(p0 >= g0(xs) - 1e-12)
        assert p0 == pytest.approx(g0(140.0), abs=1e-12)  # convex: at the edge


class TestStrategy:
    def test_worked_values(self):
        model = uniform_bid_ask_model()
        res = backward_induce(call_payoff(100), model)
        assert res.strategy(0, model)(100.0) == pytest.approx(
            288 / 490, abs=1e-12
        )
        assert res.strategy(1, model)(140.0) == pytest.approx(96 / 98, abs=1e-12)

    def test_flat_region_is_exact_zero(self):
        model = uniform_bid_ask_model()
        res = backward_induce(call_payoff(100), model)
        assert res.strategy(1, model)(50.0) == 0.0  # below K/1.4

    def test_deep_region_is_exact_one(self):
        model = uniform_bid_ask_model()
        res = backward_induce(call_payoff(50), model)
        assert res.strategy(0, model)(150.0) == 1.0

    def test_monotone_for_call(self):
        model = uniform_bid_ask_model()
        res = backward_induce(call_payoff(100), model)
        s = np.linspace(1, 400, 2000)
        th = res.strategy(0, model)(s)
        assert np.all(np.diff(th) >= -1e-12)
        assert th.max() <= 1.0 + 1e-12

    def test_vector_matches_scalar(self):
        model = uniform_bid_ask_model()
        res = backward_induce(call_payoff(100), model)
        s = np.linspace(5, 300, 57)
        vec = res.strategy(1, model)(s)
        assert vec == pytest.approx(
            [res.strategy(1, model)(float(x)) for x in s], abs=0.0
        )
        # k_down == k_up == 1 at step 2: theta_1 is the slope of g_2 at s,
        # the mean of both one-sided slopes on a kink
        reg = StepSpec.from_uniform(0.7, 1.0, 0.0, 0.4)
        deg = StepSpec.from_uniform(1.0, 1.0, 0.0, 0.0)
        model = MarketModel(s_init=100.0, horizon=3, steps=(reg, reg, deg, reg))
        res = backward_induce(call_payoff(100), model)
        g2 = res.value_fns[2]
        kinks = [float(b) for b in g2.breakpoints]
        s = np.concatenate((np.linspace(5, 300, 57), kinks))
        vec = res.strategy(1, model)(s)
        assert vec.tolist() == [res.strategy(1, model)(float(x)) for x in s]
        for x in kinks:
            left, right = g2.slopes_at(x)
            assert left != right
            assert res.strategy(1, model)(x) == 0.5 * (left + right)

    def test_nonpositive_price_rejected(self):
        model = uniform_bid_ask_model()
        res = backward_induce(call_payoff(100), model)
        with pytest.raises(ValueError):
            res.strategy(0, model)(0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_price_rejected(self, bad):
        model = uniform_bid_ask_model()
        res = backward_induce(call_payoff(100), model)
        with pytest.raises(ValueError, match="positive and finite"):
            res.strategy(0, model)(bad)
        with pytest.raises(ValueError, match="positive and finite"):
            res.strategy(0, model)(np.array([90.0, bad, 110.0]))

    def test_index_bounds(self):
        model = uniform_bid_ask_model()
        res = backward_induce(call_payoff(100), model)
        with pytest.raises(ValueError):
            res.strategy(2, model)(100.0)


class TestClosedFormOracle:
    def test_t1_cases(self):
        model = uniform_bid_ask_model()
        v, th = closed_form_call(1, 100.0, 100.0, model)
        assert v == pytest.approx(120 / 7, abs=1e-12)
        assert th == pytest.approx(4 / 7, abs=1e-12)
        v, th = closed_form_call(1, 250.0, 100.0, model)  # past the kink zone
        assert (v, th) == (150.0, 1.0)
        v, th = closed_form_call(1, 50.0, 100.0, model)  # below it
        assert (v, th) == (0.0, 0.0)

    def test_t0_cases(self):
        model = uniform_bid_ask_model()
        v, th = closed_form_call(0, 300.0, 100.0, model)
        assert (v, th) == (200.0, 1.0)
        v, th = closed_form_call(0, 100.0, 100.0, model)
        assert v == pytest.approx(864 / 49, abs=1e-12)
        assert th == pytest.approx(288 / 490, abs=1e-12)
        v, th = closed_form_call(0, 40.0, 100.0, model)
        assert (v, th) == (0.0, 0.0)

    @pytest.mark.parametrize(
        "b1,b2",
        [
            ((0.7, 1.4), (0.7, 1.4)),   # symmetric reference model
            ((0.8, 1.25), (0.7, 1.4)),  # exercises the middle/middle case
            ((0.6, 1.5), (0.8, 1.25)),  # exercises the low/high case
        ],
    )
    def test_matches_backward_induction_on_grid(self, b1, b2):
        model = two_step_model(b1=b1, b2=b2)
        s = np.linspace(1.0, 300.0, 3000)
        for strike in (50.0, 100.0, 150.0):
            res = backward_induce(call_payoff(strike), model)
            for t in (0, 1):
                v_ref, th_ref = closed_form_call(t, s, strike, model)
                v_got = res.value_fns[t](s)
                th_got = res.strategy(t, model)(s)
                assert np.max(np.abs(v_got - v_ref)) <= 1e-10
                assert np.max(np.abs(th_got - th_ref)) <= 1e-10

    def test_input_validation(self):
        model = uniform_bid_ask_model()
        with pytest.raises(ValueError):
            closed_form_call(2, 100.0, 100.0, model)
        with pytest.raises(ValueError):
            closed_form_call(0, -5.0, 100.0, model)
        with pytest.raises(ValueError):
            closed_form_call(0, 100.0, 0.0, model)
        with pytest.raises(ValueError):
            closed_form_call(0, 100.0, 100.0, uniform_bid_ask_model(horizon=3))

    @pytest.mark.parametrize(
        "s, strike, bad",
        [
            (math.nan, 100.0, "price .* got nan"),
            (np.array([90.0, math.inf]), 100.0, "price .* got inf"),
            (100.0, math.inf, "strike .* got inf"),
            (100.0, math.nan, "strike .* got nan"),
        ],
        ids=["s_nan", "s_inf_lane", "strike_inf", "strike_nan"],
    )
    @pytest.mark.parametrize("t", [0, 1])
    def test_non_finite_inputs_refused(self, t, s, strike, bad):
        # these once gave (nan, 0.6000000000000001) and (0.0, 0.0)
        with pytest.raises(ValueError, match=bad):
            closed_form_call(t, s, strike, uniform_bid_ask_model())

    @pytest.mark.parametrize("t", [0, 1])
    def test_empty_array_gives_empty_arrays(self, t):
        # as the recursion's strategy does; this once raised numpy's
        # "zero-size array to reduction operation minimum"
        model = uniform_bid_ask_model()
        empty = np.array([])
        v, th = closed_form_call(t, empty, 100.0, model)
        assert v.shape == th.shape == (0,)
        res = backward_induce(call_payoff(100.0), model)
        assert res.strategy(t, model)(empty).shape == (0,)


class TestAsianTree:
    def test_european_equivalence(self):
        for horizon in (1, 2, 3):
            model = uniform_bid_ask_model(horizon=horizon)
            payoff = call_payoff(100)
            res = backward_induce(payoff, model)
            for s0 in (70.0, 100.0, 160.0):
                tree = asian_tree_price(
                    lambda path: payoff(path[-1]), model, s0
                )
                assert tree == pytest.approx(res.value_fns[0](s0), abs=1e-10)

    def test_zero_payoff(self):
        model = uniform_bid_ask_model()
        assert asian_tree_price(lambda path: 0.0, model, 100.0) == 0.0

    def test_single_step_is_one_step_price(self):
        model = uniform_bid_ask_model(horizon=1)
        payoff = call_payoff(90)
        tree = asian_tree_price(lambda path: payoff(path[-1]), model, 100.0)
        q = one_step_price(payoff, 100.0, model.steps[1])
        assert tree == pytest.approx(q.price, abs=1e-12)

    def test_depth_cap(self):
        model = uniform_bid_ask_model(horizon=25)
        with pytest.raises(ValueError, match="depth"):
            asian_tree_price(lambda path: 0.0, model, 100.0)

    def test_aip_failure_raises(self):
        model = MarketModel(
            s_init=100, horizon=2, steps=(StepSpec(1.1, 1.4),) * 3
        )
        with pytest.raises(AipViolationError):
            asian_tree_price(lambda path: 0.0, model, 100.0)

    def test_average_strike_call_sane(self):
        model = uniform_bid_ask_model()
        v100 = asian_tree_price(asian_call_payoff(100), model, 100.0)
        v120 = asian_tree_price(asian_call_payoff(120), model, 100.0)
        assert v100 > v120 >= 0.0
        # averaging dampens the tails: cheaper than the terminal-price call
        res = backward_induce(call_payoff(100), model)
        assert v100 <= res.value_fns[0](100.0) + 1e-12

    def test_asian_call_values_pinned(self):
        # recorded from the float recursion; any change to the walk shows here
        model = uniform_bid_ask_model(horizon=3)
        got = [
            asian_tree_price(asian_call_payoff(k), model, 100.0) for k in (90, 100, 110)
        ]
        assert got == [18.328862973760945, 12.993586005830915, 9.739941690962109]

    def test_asian_payoff_floats_and_arrays(self):
        payoff = asian_call_payoff(100)
        assert type(payoff((90.0, 120.0, 120.0))) is float
        assert payoff((90.0, 120.0, 120.0)) == (90.0 + 120.0 + 120.0) / 3 - 100
        lanes = tuple(np.array(x) for x in ([90.0, 90.0], [120.0, 60.0], [120.0, 80.0]))
        got = payoff(lanes)
        assert isinstance(got, np.ndarray)
        assert got.tolist() == [payoff((90.0, 120.0, 120.0)), 0.0]
