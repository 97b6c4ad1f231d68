"""Exact PWL recursion and crossing tables against plain-scan oracles.

The oracles rebuild every rational the slow, obvious way: evaluation by a
linear scan over the breakpoints, slopes by dividing value differences, and
the crossing-table coefficients from two sample points per z-interval.
Rationals are canonical, so the library must agree with them under ``==``
and, after rounding, byte for byte.
"""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from superhedge.cli import parse_config, run_experiment
from superhedge.pricing import MarketModel, StepSpec, backward_induce
from superhedge.pwl import PwlFunction, call_payoff, put_payoff, scale_compose
from superhedge.simulation import OrderSignChange

from exact_domination import piece_slopes


def view_bytes(f: PwlFunction) -> tuple[bytes, ...]:
    """The bytes of f's float breakpoints, piece slopes and intercepts."""
    return tuple(view.tobytes() for view in f._float_views())


def scanner(f: PwlFunction):
    """x -> f(x) exactly, by a linear scan and a fresh slope per piece, on
    f's views read once."""
    bps, vals, left, right = f.breakpoints, f.values, f.left_slope, f.right_slope

    def scan_eval(x: Fraction) -> Fraction:
        if x <= bps[0]:
            return vals[0] + left * (x - bps[0])
        for i in range(1, len(bps)):
            if x <= bps[i]:
                s = (vals[i] - vals[i - 1]) / (bps[i] - bps[i - 1])
                return vals[i] + s * (x - bps[i])
        return vals[-1] + right * (x - bps[-1])

    return scan_eval


def reference_step(g: PwlFunction, step: StepSpec) -> PwlFunction:
    """x -> lam g(k_down x) + (1 - lam) g(k_up x), kinks only."""
    kd, ku = Fraction(step.k_down), Fraction(step.k_up)
    lam = (ku - 1) / (ku - kd) if kd != ku else Fraction(1)
    xs = sorted({b / kd for b in g.breakpoints} | {b / ku for b in g.breakpoints})
    g_at = scanner(g)
    ys = [lam * g_at(kd * x) + (1 - lam) * g_at(ku * x) for x in xs]
    left = lam * kd * g.left_slope + (1 - lam) * ku * g.left_slope
    right = lam * kd * g.right_slope + (1 - lam) * ku * g.right_slope
    slopes = [left]
    slopes += [(ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i]) for i in range(len(xs) - 1)]
    slopes.append(right)
    keep = [i for i in range(len(xs)) if slopes[i] != slopes[i + 1]] or [0]
    return PwlFunction([xs[i] for i in keep], [ys[i] for i in keep], left, right)


def reference_crossings(g: PwlFunction, step: StepSpec) -> dict:
    """The crossing arrays of OrderSignChange, from two samples per z-interval,
    and whether the exact theta at the cuts is nondecreasing."""
    kd, ku = Fraction(step.k_down), Fraction(step.k_up)
    c = ku - kd
    cuts = sorted(
        {b / ku for b in g.breakpoints if b > 0} | {b / kd for b in g.breakpoints if b > 0}
    )
    m = len(cuts)
    g_at = scanner(g)

    def num(z):
        return g_at(ku * z) - g_at(kd * z)

    a_q, b_q = [], []
    for j in range(m + 1):
        if m == 0:
            z1, z2 = Fraction(1), Fraction(2)
        elif j == 0:
            z1, z2 = cuts[0] / 3, cuts[0] * 2 / 3
        elif j == m:
            z1, z2 = cuts[-1] * 2, cuts[-1] * 3
        else:
            w = cuts[j] - cuts[j - 1]
            z1, z2 = cuts[j - 1] + w / 3, cuts[j - 1] + 2 * w / 3
        b = (num(z2) - num(z1)) / (z2 - z1)
        a_q.append(num(z1) - b * z1)
        b_q.append(b)
    theta_cuts = [num(z) / (c * z) for z in cuts]
    return {
        "cuts": np.array([float(z) for z in cuts]),
        "t_vals": np.array([float(t) for t in theta_cuts]),
        "a": np.array([float(x) for x in a_q]),
        "b": np.array([float(x) for x in b_q]),
        "theta_lo": float(b_q[0] / c),
        "theta_hi": float(b_q[-1] / c),
        "t_last": float(theta_cuts[-1]) if m else float(b_q[0] / c),
        "monotone": theta_cuts == sorted(theta_cuts),
    }


@st.composite
def convex_payoffs(draw):
    """Convex PWL payoffs, a kink at every breakpoint, on decimal grids."""
    ticks = sorted(draw(st.sets(st.integers(0, 4000), min_size=1, max_size=4)))
    xs = [Fraction(k, 20) for k in ticks]
    n_slopes = len(xs) + 1
    slopes = sorted(
        Fraction(k, 4)
        for k in draw(st.sets(st.integers(-8, 8), min_size=n_slopes, max_size=n_slopes))
    )
    ys = [Fraction(draw(st.integers(-400, 400)), 10)]
    for i in range(len(xs) - 1):
        ys.append(ys[-1] + slopes[i + 1] * (xs[i + 1] - xs[i]))
    return PwlFunction(xs, ys, slopes[0], slopes[-1])


# Some steps are degenerate: k_down == k_up == 1, a known next price.
steps = st.one_of(
    st.just(StepSpec(1.0, 1.0)),
    st.builds(
        StepSpec,
        st.integers(50, 100).map(lambda k: k / 100),
        st.integers(100, 160).map(lambda k: k / 100),
    ),
)


@st.composite
def models(draw):
    horizon = draw(st.integers(1, 6))
    return MarketModel(100.0, horizon, tuple(draw(steps) for _ in range(horizon + 1)))


HETEROGENEOUS = MarketModel(
    100.0, 3, (StepSpec(0.7, 1.4), StepSpec(0.75, 1.3), StepSpec(1.0, 1.0), StepSpec(0.9, 1.1))
)


@settings(max_examples=60, deadline=None)
@given(payoff=convex_payoffs(), model=models())
@example(payoff=call_payoff(100), model=HETEROGENEOUS)
def test_value_functions_equal_plain_scan_recursion(payoff, model):
    fns = backward_induce(payoff, model).value_fns
    g = payoff
    for t in range(model.horizon, 0, -1):
        g = reference_step(g, model.steps[t])
        assert fns[t - 1] == g
        assert view_bytes(fns[t - 1])[1:] == view_bytes(g)[1:]


@st.composite
def nonnegative_convex_payoffs(draw):
    """Convex PWL payoffs that are >= 0 on [0, inf): a convex payoff with a
    right slope >= 0, lifted so its least value, at 0 or at a breakpoint, is
    a drawn lift >= 0 (often exactly 0)."""
    f = draw(convex_payoffs().filter(lambda f: f.right_slope >= 0))
    lift = Fraction(draw(st.integers(0, 3)), 10) - min(f.eval_exact(0), *f.values)
    return PwlFunction(f.breakpoints, [v + lift for v in f.values], f.left_slope, f.right_slope)


@settings(max_examples=100, deadline=None)
@given(payoff=nonnegative_convex_payoffs(), model=models())
@example(payoff=put_payoff(100), model=HETEROGENEOUS)
@example(payoff=PwlFunction([0, 100], [0, 0], 0, 1), model=HETEROGENEOUS)
def test_nonnegative_claims_have_nonnegative_prices(payoff, model):
    """The paper's AIP statement: under k_down <= 1 <= k_up the prices of
    nonnegative European claims are nonnegative.  Every g_t is convex, so it
    is >= 0 on [0, inf) iff it is at 0, at every breakpoint, and its right
    tail slope is; all three are read off the integer lists."""
    for g in backward_induce(payoff, model).value_fns:
        # piece i ends at breakpoint i: sn/sd * bn/bd + cn/cd, times sd*bd*cd > 0
        at_bps = [s * b * g._cd + c * g._sd * g._bd for s, b, c in zip(g._sn, g._bn, g._cn)]
        assert min(at_bps) >= 0 and g._cn[0] >= 0 and g._sn[-1] >= 0
        assert g._floats is None  # decided without a float


@settings(max_examples=60, deadline=None)
@given(payoff=convex_payoffs(), model=models())
@example(payoff=call_payoff(100), model=HETEROGENEOUS)
def test_crossing_tables_equal_two_sample_construction(payoff, model):
    assert_crossings_equal_oracle(backward_induce(payoff, model).value_fns, model)


def assert_crossings_equal_oracle(fns, model):
    for t in range(model.horizon):
        step = model.steps[t + 1]
        got = OrderSignChange(fns[t + 1], step)
        if step.k_down == step.k_up:
            assert got.degenerate
            continue
        want = reference_crossings(fns[t + 1], step)
        for key in ("cuts", "t_vals", "a", "b"):
            assert getattr(got, key).tobytes() == want[key].tobytes(), key
        for key in ("theta_lo", "theta_hi"):
            assert getattr(got, key) == want[key], key
        if got.cuts.size:
            assert got.t_vals[-1] == want["t_last"] == got.theta_hi


@st.composite
def any_payoffs(draw):
    """PWL functions with any slopes, convex or not, often with a breakpoint
    at 0."""
    ticks = sorted(draw(st.sets(st.integers(0, 4000), min_size=1, max_size=5)))
    if draw(st.booleans()):
        ticks[0] = 0
    xs = [Fraction(k, 20) for k in sorted(set(ticks))]
    slopes = [Fraction(draw(st.integers(-8, 8)), 4) for _ in range(len(xs) + 1)]
    ys = [Fraction(draw(st.integers(-400, 400)), 10)]
    for i in range(len(xs) - 1):
        ys.append(ys[-1] + slopes[i + 1] * (xs[i + 1] - xs[i]))
    return PwlFunction(xs, ys, slopes[0], slopes[-1])


@settings(max_examples=300, deadline=None)
@given(g=st.one_of(any_payoffs(), convex_payoffs()), step=steps)
@example(g=PwlFunction([0, 100], [5, 5], 0, 1), step=StepSpec(0.7, 1.4))
@example(g=PwlFunction([80, 100, 120], [0, 10, 0]), step=StepSpec(0.7, 1.4))
@example(g=PwlFunction([0], [1], 2, 2), step=StepSpec(0.7, 1.4))
@example(g=call_payoff(100), step=StepSpec(1.0, 1.0))
def test_crossing_table_refused_iff_exact_theta_decreases(g, step):
    if step.k_down == step.k_up:
        assert OrderSignChange(g, step).degenerate
        return
    want = reference_crossings(g, step)
    if not want["monotone"]:
        with pytest.raises(ValueError, match="not monotone"):
            OrderSignChange(g, step)
        return
    got = OrderSignChange(g, step)
    for key in ("cuts", "t_vals", "a", "b"):
        assert getattr(got, key).tobytes() == want[key].tobytes(), key
    assert (got.theta_lo, got.theta_hi) == (want["theta_lo"], want["theta_hi"])
    if got.cuts.size:
        assert got.t_vals[-1] == got.theta_hi


# Two step types whose four multipliers have different odd mantissa parts,
# plus a degenerate step: g_0's kinks sit at K over products of the
# multipliers, whose reduced denominators differ, so each list's common
# denominator exceeds every element's own.
A_STEP, B_STEP = StepSpec(0.7, 1.3), StepSpec(0.85, 1.15)
TWELVE_STEPS = MarketModel(
    100.0,
    12,
    (StepSpec(0.6, 1.45), A_STEP, B_STEP, A_STEP, B_STEP, A_STEP, StepSpec(1.0, 1.0))
    + (B_STEP, A_STEP, B_STEP, A_STEP, B_STEP, A_STEP),
)


@pytest.mark.parametrize(
    "payoff",
    [
        call_payoff(100),
        put_payoff(95),
        PwlFunction([80, 95, 110, 130], [15, 5, 3, 10], -1, 2),
    ],
    ids=["call", "put", "four_kinks"],
)
def test_twelve_steps_equal_plain_scan_oracles(payoff):
    fns = backward_induce(payoff, TWELVE_STEPS).value_fns
    g = payoff
    for t in range(TWELVE_STEPS.horizon, 0, -1):
        g = reference_step(g, TWELVE_STEPS.steps[t])
        assert fns[t - 1] == g
        assert view_bytes(fns[t - 1]) == view_bytes(g)
    assert_crossings_equal_oracle(fns, TWELVE_STEPS)
    g0 = fns[0]
    assert g0._bd > max(b.denominator for b in g0.breakpoints)


def stored_lists(f: PwlFunction):
    """(numerators, denominator, Fraction view) of each exact list of f; the
    intercepts are read off the graph: piece i passes through breakpoint
    min(i, n - 1)."""
    bps, vals, n = f.breakpoints, f.values, len(f.breakpoints)
    anchors = (*range(n), n - 1)
    icepts = tuple(vals[a] - s * bps[a] for s, a in zip(piece_slopes(f), anchors))
    return (
        (f._bn, f._bd, bps),
        (f._sn, f._sd, piece_slopes(f)),
        (f._cn, f._cd, icepts),
    )


def view_key(f: PwlFunction):
    return (f.breakpoints, f.values, f.left_slope, f.right_slope)


@settings(max_examples=60, deadline=None)
@given(payoff=convex_payoffs(), model=models(), k=st.integers(1, 400).map(lambda k: k / 80))
def test_stored_lists_are_canonical(payoff, model, k):
    fns = backward_induce(payoff, model).value_fns + (scale_compose(payoff, k),)
    # Shifted by 1: the same breakpoints and slopes, other intercepts.
    fns += tuple(
        PwlFunction(f.breakpoints, [v + 1 for v in f.values], f.left_slope, f.right_slope)
        for f in fns
    )
    for f in fns:
        for nums, den, view in stored_lists(f):
            assert den > 0 and math.gcd(den, *nums) == 1
            assert den == math.lcm(*(q.denominator for q in view))
            assert view == tuple(Fraction(n, den) for n in nums)
        rebuilt = PwlFunction(*view_key(f))
        assert rebuilt == f and hash(rebuilt) == hash(f)
    for f in fns:
        for g in fns:
            assert (f == g) == (view_key(f) == view_key(g))


@settings(max_examples=200, deadline=None)
@given(
    f=st.one_of(any_payoffs(), convex_payoffs()),
    x=st.fractions(min_value=0, max_value=250, max_denominator=60),
    pick=st.integers(0, 10),
)
def test_eval_exact_equals_plain_scan(f, x, pick):
    # at a breakpoint, between two, at 0 and beyond the last one
    bps, scan_eval = f.breakpoints, scanner(f)
    for y in (x, bps[pick % len(bps)], Fraction(0), bps[-1] + 1):
        assert f.eval_exact(y) == scan_eval(y)
    assert f.eval_exact(float(x)) == scan_eval(Fraction(float(x)))


def corner_tree(model: MarketModel, v0: Fraction, holding) -> list[tuple]:
    """(S_T, V_T, weight) of every corner path, in exact rationals.

    The portfolio starts at V_0 = v0 and S_0 = s_init.  At node j of step t
    (nodes numbered left to right) it holds holding(t, j, S_t), and the
    price moves to k_down S_t or k_up S_t.  The weight of a path is the
    product of its chord weights: lam = (k_up - 1) / (k_up - k_down) for the
    down move and 1 - lam for the up move, 1/2 each on a degenerate step
    (k_down == k_up == 1), whose two children coincide.
    """
    nodes = [(Fraction(model.s_init), Fraction(v0), Fraction(1))]
    for t in range(model.horizon):
        step = model.steps[t + 1]
        kd, ku = Fraction(step.k_down), Fraction(step.k_up)
        lam = (ku - 1) / (ku - kd) if kd != ku else Fraction(1, 2)
        grown = []
        for j, (s, v, w) in enumerate(nodes):
            theta = holding(t, j, s)
            grown += [(k * s, v + theta * (k * s - s), w * p) for k, p in ((kd, lam), (ku, 1 - lam))]
        nodes = grown
    assert len(nodes) == 2**model.horizon
    return nodes


def corner_tree_errors(payoff: PwlFunction, model: MarketModel) -> list[Fraction]:
    """V_T - payoff(S_T) on every corner path, in exact rationals.

    V_0 = g_0(S_0) at S_0 = s_init; at each step the portfolio holds the
    chord slope of g_{t+1} over [k_down S_t, k_up S_t].  A degenerate step
    (k_down == k_up == 1) does not move the price, so any holding does; it
    holds 0.
    """
    fns = backward_induce(payoff, model).value_fns

    def chord_slope(t, j, s):
        step, g = model.steps[t + 1], fns[t + 1]
        kd, ku = Fraction(step.k_down), Fraction(step.k_up)
        if kd == ku:
            return 0
        return (g.eval_exact(ku * s) - g.eval_exact(kd * s)) / ((ku - kd) * s)

    nodes = corner_tree(model, fns[0].eval_exact(Fraction(model.s_init)), chord_slope)
    return [v - payoff.eval_exact(s) for s, v, _ in nodes]


def uniform_steps(horizon: int, step=StepSpec(0.7, 1.4)) -> MarketModel:
    return MarketModel(100.0, horizon, (step,) * (horizon + 1))


@settings(max_examples=60, deadline=None)
@given(payoff=convex_payoffs(), model=models())
@example(payoff=call_payoff(100), model=uniform_steps(1))
@example(payoff=call_payoff(100), model=uniform_steps(2))
@example(payoff=call_payoff(100), model=uniform_steps(6))
@example(payoff=call_payoff(100), model=uniform_steps(7))
@example(payoff=put_payoff(100), model=uniform_steps(8, StepSpec(0.8, 1.25)))
@example(payoff=put_payoff(90), model=uniform_steps(5))
@example(payoff=put_payoff(100), model=uniform_steps(3, StepSpec(0.99, 1.02)))
@example(
    payoff=call_payoff(100),
    model=MarketModel(100.0, 4, HETEROGENEOUS.steps + (StepSpec(0.8, 1.25),)),
)
def test_corner_tree_hedge_is_tight(payoff, model):
    # The minimal price replicates the claim exactly on the two-point tree:
    # no corner path ends with a surplus or a shortfall.
    assert corner_tree_errors(payoff, model) == [0] * 2**model.horizon


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=1000)


@st.composite
def hedged_trees(draw):
    """A model, homogeneous or not, and a rational holding at every node of
    its corner tree."""
    model = draw(st.one_of(models(), st.integers(1, 6).map(uniform_steps)))
    sizes = [2**t for t in range(model.horizon)]
    return model, [draw(st.lists(rationals, min_size=n, max_size=n)) for n in sizes]


@settings(max_examples=60, deadline=None)
@given(
    payoff=convex_payoffs(),
    tree=hedged_trees(),
    gap=st.one_of(st.just(Fraction(-1, 2**60)), rationals),
)
def test_no_premium_below_g0_hedges_every_corner(payoff, tree, gap):
    """Minimality of g_0: whatever the holdings, the chord-weighted mean of
    V_T - payoff(S_T) over the corner paths is V_0 - g_0(s_0).  The weights
    are >= 0 and sum to 1, so a V_0 below g_0(s_0), by one part in 2^60
    included, leaves some corner path short."""
    model, holdings = tree
    g0 = backward_induce(payoff, model).value_fns[0].eval_exact(Fraction(model.s_init))
    for v0 in (g0 + gap, g0 - abs(g0) / 2**60):
        nodes = corner_tree(model, v0, lambda t, j, s: holdings[t][j])
        weights = [w for _, _, w in nodes]
        assert min(weights) >= 0 and sum(weights) == 1
        errors = [v - payoff.eval_exact(s) for s, v, _ in nodes]
        assert sum(w * e for w, e in zip(weights, errors)) == v0 - g0
        if v0 < g0:
            assert any(e < 0 for w, e in zip(weights, errors) if w > 0)


def test_long_horizon_bytes_pinned(tmp_path):
    # T=40 is where the exact algebra does its work: g_0 has 41 breakpoints
    # with 2060-bit denominators, and a change to any rational of the
    # recursion or of a crossing table moves the stats.csv digest.
    cfg = parse_config("horizon = 40\nstrikes = 100\nn_paths = 2000\nseed = 7\n")
    assert run_experiment(cfg, tmp_path) == 0
    digest = hashlib.sha256((tmp_path / "stats.csv").read_bytes()).hexdigest()
    assert digest == "91c7cd73bf9a41ed870992230d697e3119a0e28dcbcb7af0cb69244065be378e"
    g0 = backward_induce(call_payoff(100), cfg.build_model()).value_fns[0]
    assert len(g0.breakpoints) == 41
    assert max(x.denominator.bit_length() for x in g0.breakpoints + g0.values) == 2060
