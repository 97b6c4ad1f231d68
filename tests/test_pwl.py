"""Piecewise-linear kernel: evaluation, algebra, envelopes, domination."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from superhedge import pwl
from superhedge.pricing import StepSpec, one_step_price
from superhedge.pwl import (
    Interval,
    PwlFunction,
    call_payoff,
    convex_combine,
    piece_index,
    put_payoff,
    scale_compose,
    upper_concave_envelope,
)

from exact_domination import check_points, chord, dominates, piece_slopes, sampled_affine


def random_pwl(rng, max_pts=7, allow_negative_slopes=True):
    n = int(rng.integers(1, max_pts + 1))
    xs = np.sort(rng.uniform(0.0, 200.0, n))
    xs = xs + np.arange(n) * 1e-6  # enforce strict increase
    ys = rng.uniform(-50.0, 50.0, n)
    lo = 3.0 if allow_negative_slopes else 0.0
    left = rng.uniform(-lo, 3.0)
    right = rng.uniform(-lo, 3.0)
    return PwlFunction(xs, ys, left_slope=left, right_slope=right)


def random_convex_pwl(rng, max_pts=6):
    n = int(rng.integers(1, max_pts + 1))
    xs = np.sort(rng.uniform(0.0, 200.0, n)) + np.arange(n) * 1e-6
    slopes = np.sort(rng.uniform(-3.0, 3.0, n + 1))
    y0 = rng.uniform(-20.0, 20.0)
    ys = [y0]
    for i in range(n - 1):
        ys.append(ys[-1] + slopes[i + 1] * (xs[i + 1] - xs[i]))
    return PwlFunction(xs, ys, left_slope=slopes[0], right_slope=slopes[-1])


def brute_envelope(f, dom, x, grid=400):
    """Independent oracle: max over chords through graph points straddling x."""
    xs = np.concatenate(
        [
            np.linspace(dom.lo, dom.hi, grid),
            [float(b) for b in f.breakpoints if dom.lo <= float(b) <= dom.hi],
        ]
    )
    xs = np.unique(xs)
    ys = f(xs)
    best = -np.inf
    for i in range(len(xs)):
        if xs[i] > x:
            break
        for j in range(len(xs) - 1, -1, -1):
            if xs[j] < x:
                break
            if xs[j] == xs[i]:
                val = ys[i]
            else:
                lam = (xs[j] - x) / (xs[j] - xs[i])
                val = lam * ys[i] + (1 - lam) * ys[j]
            best = max(best, val)
    return best


class TestEval:
    def test_call_above_strike(self):
        f = call_payoff(100)
        assert f(140.0) == 40.0

    def test_call_at_kink(self):
        assert call_payoff(100)(100.0) == 0.0

    def test_call_below_strike_is_exact_zero(self):
        assert call_payoff(100)(70.0) == 0.0

    def test_negative_point_rejected(self):
        with pytest.raises(ValueError):
            call_payoff(100)(-1.0)
        with pytest.raises(ValueError):
            call_payoff(100)(np.array([5.0, -1.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_point_rejected(self, bad):
        f = call_payoff(100)
        with pytest.raises(ValueError, match=f"nonnegative and finite, got {bad}"):
            f(bad)
        with pytest.raises(ValueError, match=f"nonnegative and finite, got {bad}"):
            f(np.array([bad, 120.0]))
        with pytest.raises(ValueError, match=f"nonnegative and finite, got {bad}"):
            f(np.array([120.0, bad]))
        assert f(np.array([0.0, 120.0])).tolist() == [0.0, 20.0]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
    def test_slopes_at_rejects_what_call_rejects(self, bad):
        f = call_payoff(100)
        for x in (bad, np.array([bad, 120.0]), np.array([120.0, bad])):
            with pytest.raises(ValueError, match=f"nonnegative and finite, got {bad}"):
                f.slopes_at(x)
        assert f.slopes_at(100.0) == (0.0, 1.0)
        assert f.slopes_at(0.0) == (0.0, 0.0)

    @pytest.mark.parametrize("n_kinks", [3, pwl._COUNT_MAX + 5])  # counted, searched
    def test_vector_slopes_at_equals_scalar_and_exact_sides(self, n_kinks):
        from bisect import bisect_left, bisect_right

        bps = [Fraction(0)] + [Fraction(7 * i + 3, 2) for i in range(n_kinks)]
        vals = [Fraction((-1) ** i * i, 3) for i in range(len(bps))]
        f = PwlFunction(bps, vals, Fraction(-5, 2), Fraction(9, 4))
        mids = [(a + b) / 2 for a, b in zip(bps, bps[1:])]
        xs = np.array([float(x) for x in bps + mids + [bps[-1] + 1]])
        left, right = f.slopes_at(xs)
        slopes = piece_slopes(f)
        for x, lv, rv in zip(xs, left, right):
            xq = Fraction(float(x))
            want = (
                float(slopes[bisect_left(f.breakpoints, xq)]),
                float(slopes[bisect_right(f.breakpoints, xq)]),
            )
            assert f.slopes_at(float(x)) == (lv, rv) == want
        assert f.slopes_at(0.0) == (-2.5, float(slopes[1]))
        grid = f.slopes_at(xs.reshape(-1, 1))
        assert [g.shape for g in grid] == [(xs.size, 1)] * 2
        assert [g.shape for g in f.slopes_at(np.array(2.0))] == [(), ()]

    def test_vectorised_matches_scalar(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            f = random_pwl(rng)
            xs = rng.uniform(0.0, 250.0, 50)
            vec = f(xs)
            assert vec == pytest.approx([f(float(x)) for x in xs], abs=1e-12)

    def test_put_left_extension(self):
        f = put_payoff(100)
        assert f(60.0) == 40.0
        assert f(130.0) == 0.0

    def test_exact_eval_matches_float(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            f = random_pwl(rng)
            for x in rng.uniform(0.0, 250.0, 10):
                assert float(f.eval_exact(float(x))) == pytest.approx(
                    f(float(x)), abs=1e-12
                )


SPECIAL_NEEDLES = (0.0, -0.0, math.nan, math.inf, -math.inf)


@st.composite
def tables_and_needles(draw):
    """A strictly increasing table on either side of the counting cut-over,
    and needles that hit its entries exactly, zeros, NaN and +/-inf."""
    size = draw(st.integers(1, pwl._COUNT_MAX + 4))
    entries = draw(
        st.sets(st.floats(-1e6, 1e6, allow_nan=False), min_size=size, max_size=size)
    )
    table = np.array(sorted(entries))
    needle = st.one_of(
        st.sampled_from(table.tolist()),
        st.sampled_from(SPECIAL_NEEDLES),
        st.floats(-2e6, 2e6),
        st.floats(),
    )
    return table, np.array(draw(st.lists(needle, min_size=1, max_size=40)))


def _cut_over_case(size):
    table = np.arange(size, dtype=float)
    return table, np.concatenate((table, table + 0.5, SPECIAL_NEEDLES))


@st.composite
def ranged_needles(draw):
    """A table of up to twice _COUNT_MAX entries, and needles inside the
    range between two of its entries: the entries themselves, above all the
    two edges, the floats next to them and between them, optionally all
    equal, with NaN or +/-inf mixed in, or none at all."""
    size = draw(st.integers(1, 2 * pwl._COUNT_MAX + 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = np.cumsum(rng.uniform(0.5, 2.0, size)) - draw(st.floats(0, 3 * size))
    i = draw(st.integers(0, size - 1))
    width = draw(st.sampled_from([0, 1, 3, pwl._COUNT_MAX + 2]))
    j = draw(st.integers(i, min(size - 1, i + width)))
    lo, hi = table[i], table[j]
    inside = table[i : j + 1].tolist()
    needle = st.one_of(
        st.sampled_from([lo, hi, np.nextafter(lo, math.inf), np.nextafter(hi, -math.inf)]),
        st.sampled_from(inside),
        st.floats(lo, hi),
    )
    count = draw(st.sampled_from([0, 1, 2, 40]))
    if draw(st.booleans()):  # all needles equal
        x = [draw(needle)] * count
    else:
        x = draw(st.lists(needle, min_size=count, max_size=count))
    if count and draw(st.booleans()):
        x[draw(st.integers(0, count - 1))] = draw(st.sampled_from(SPECIAL_NEEDLES))
    return table, np.array(x, dtype=float)


def _assert_searchsorted(table, x, **bounds):
    for side in ("left", "right"):
        got = piece_index(table, x, side=side, **bounds)
        want = np.searchsorted(table, x, side=side)
        assert got.dtype == want.dtype
        assert got.tolist() == want.tolist(), side


class TestPieceIndex:
    @pytest.mark.parametrize(
        "x",
        [
            [12.0, 12.5, 20.0, 27.0],  # min and max equal to entries
            [30.0, 30.0],  # all on one entry
            [5.25, 9.75, 7.0],  # min and max between entries
            [39.0, 40.0],  # up to the last entry
        ],
    )
    def test_range_past_entry_zero(self, x):
        """Needles whose range starts past entry 0 of a table longer than
        _RANGE_MIN: the range offset and the side each range end is searched
        from show in every index, so a lookup that gets either wrong fails
        here at once, before the property tests below."""
        table, x = np.arange(1.0, 41.0), np.array(x)
        assert table.size > pwl._RANGE_MIN
        _assert_searchsorted(table, x)
        _assert_searchsorted(table, x, lo=x.min(), hi=x.max())

    @settings(max_examples=150, deadline=None)
    @given(case=tables_and_needles())
    @example(case=_cut_over_case(pwl._COUNT_MAX))
    @example(case=_cut_over_case(pwl._COUNT_MAX + 1))
    def test_equals_searchsorted(self, case):
        _assert_searchsorted(*case)

    @settings(max_examples=300, deadline=None)
    @given(case=ranged_needles())
    @example(case=(np.arange(300.0), np.array([150.0] * 5)))  # all equal, long table
    @example(case=(np.arange(300.0), np.array([])))  # no needles
    @example(case=(np.arange(300.0), np.array([7.0, 7.0 + pwl._COUNT_MAX])))  # edges
    @example(case=(np.arange(300.0), np.array([7.0, 8.0 + pwl._COUNT_MAX])))
    @example(case=(np.arange(300.0), np.array([20.5, math.nan, 30.0])))
    @example(case=(np.arange(300.0), np.array([20.5, math.inf, -math.inf])))
    def test_ranged_needles_equal_searchsorted(self, case):
        """Only the entries between the needles' min and max are compared,
        whether the range is taken from the needles or given as the callers
        give it, the min and max of their input check (NaN when empty)."""
        table, x = case
        _assert_searchsorted(table, x)
        lo, hi = (x.min(), x.max()) if x.size else (math.nan, math.nan)
        _assert_searchsorted(table, x, lo=lo, hi=hi)

    def test_compares_only_entries_in_range(self, monkeypatch):
        """A lane is compared with the table entries in [min, max] of the
        needles, not with the whole table."""
        compared = []
        real = np.less_equal

        def counting(x, b, *args, **kwargs):
            compared.append(float(b))
            return real(x, b, *args, **kwargs)

        monkeypatch.setattr(np, "less_equal", counting)
        table, x = np.arange(100.0), np.array([40.5, 42.0, 44.5])
        assert piece_index(table, x).tolist() == [41, 42, 45]
        assert compared == [41.0, 42.0, 43.0, 44.0]


class TestConstruction:
    def test_breakpoints_must_increase(self):
        with pytest.raises(ValueError):
            PwlFunction([1.0, 1.0], [0.0, 1.0])

    def test_breakpoints_nonnegative(self):
        with pytest.raises(ValueError):
            PwlFunction([-1.0, 2.0], [0.0, 0.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            PwlFunction([1.0, 2.0], [0.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            PwlFunction([1.0], [np.inf])

    def test_float_views_built_on_first_use_once(self):
        f = PwlFunction([Fraction(1, 3), 2, 7], [5, Fraction(1, 7), 3], -2, Fraction(5, 3))
        g = scale_compose(convex_combine(f, f, Fraction(1, 3)), Fraction(7, 5))
        assert f._floats is None and g._floats is None  # only the integer lists
        f(1.0)
        views = f._float_views()
        lists = (f._bn, f._bd), (f._sn, f._sd), (f._cn, f._cd)
        for view, (nums, den) in zip(views, lists):
            assert view.tobytes() == np.array([n / den for n in nums]).tobytes()
            assert view.tobytes() == np.array([float(Fraction(n, den)) for n in nums]).tobytes()
            with pytest.raises(ValueError, match="read-only"):
                view[0] = 0.0
        assert all(a is b for a, b in zip(views, f._float_views()))
        assert g._floats is None

    def test_convexity_flags(self):
        assert call_payoff(10).is_convex()
        assert put_payoff(10).is_convex()
        assert PwlFunction([0], [3]).is_convex()
        tent = PwlFunction([1, 2, 3], [0, 1, 0], left_slope=0, right_slope=0)
        assert not tent.is_convex()


class TestScaleCompose:
    def test_call_composed(self):
        f = call_payoff(100)
        g = scale_compose(f, 1.4)
        assert float(g.breakpoints[0]) == pytest.approx(100 / 1.4, rel=1e-15)
        assert float(g.right_slope) == pytest.approx(1.4)
        xs = np.linspace(0.0, 220.0, 500)
        assert g(xs) == pytest.approx(f(1.4 * xs), abs=1e-12)

    def test_identity(self):
        f = call_payoff(70)
        assert scale_compose(f, 1) == f

    def test_zero_function(self):
        z = PwlFunction([0], [0])
        g = scale_compose(z, 2.5)
        assert g(np.linspace(0, 100, 11)) == pytest.approx(0.0, abs=0.0)

    def test_nonpositive_factor_rejected(self):
        with pytest.raises(ValueError):
            scale_compose(call_payoff(100), 0.0)
        with pytest.raises(ValueError):
            scale_compose(call_payoff(100), -2.0)

    def test_random_grid_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            f = random_pwl(rng)
            k = float(rng.uniform(0.2, 3.0))
            g = scale_compose(f, k)
            xs = rng.uniform(0.0, 150.0, 100)
            assert g(xs) == pytest.approx(f(k * xs), abs=1e-10)


class TestConvexCombine:
    def test_weight_one_returns_first(self):
        f, g = call_payoff(100), call_payoff(50)
        assert convex_combine(f, g, 1) == f

    def test_weight_zero_returns_second(self):
        f, g = call_payoff(100), call_payoff(50)
        h = convex_combine(f, g, 0)
        xs = np.linspace(0, 200, 101)
        assert h(xs) == pytest.approx(g(xs), abs=0.0)

    def test_two_branch_example(self):
        f = scale_compose(call_payoff(100), 0.7)
        g = scale_compose(call_payoff(100), 1.4)
        h = convex_combine(f, g, 4 / 7)
        assert h(100.0) == pytest.approx((4 / 7) * 0.0 + (3 / 7) * 40.0, abs=1e-12)

    def test_weight_out_of_range(self):
        f = call_payoff(100)
        for lam in (1.5, -0.1, Fraction(-1, 3), Fraction(4, 3)):
            with pytest.raises(ValueError, match=r"weight must lie in \[0, 1\]"):
                convex_combine(f, call_payoff(50), lam)

    @pytest.mark.parametrize("lam", [0, 1])
    def test_end_weights_give_one_scaled_function(self, lam):
        f, g = call_payoff(100), PwlFunction([80, 95, 110], [15, 5, 10], -1, 2)
        kf, kg = Fraction(7, 10), Fraction(7, 5)
        want = scale_compose(f, kf) if lam == 1 else scale_compose(g, kg)
        assert convex_combine(f, g, lam, kf, kg) == want

    @pytest.mark.parametrize("k", [0, -1, Fraction(-2, 3)])
    def test_nonpositive_scale_factor_refused(self, k):
        f = call_payoff(100)
        for kf, kg in ((k, 1), (1, k)):
            with pytest.raises(ValueError, match="scale factor must be positive"):
                convex_combine(f, f, Fraction(1, 2), kf, kg)

    def test_consistency_property(self):
        # combine(scale(f,a), scale(f,b), lam)(x) == lam f(ax) + (1-lam) f(bx)
        rng = np.random.default_rng(3)
        for _ in range(25):
            f = random_pwl(rng)
            a, b = rng.uniform(0.3, 2.5, 2)
            lam = float(rng.uniform(0, 1))
            h = convex_combine(scale_compose(f, a), scale_compose(f, b), lam)
            xs = rng.uniform(0.0, 150.0, 60)
            want = lam * f(a * xs) + (1 - lam) * f(b * xs)
            assert h(xs) == pytest.approx(want, abs=1e-12)

    def test_scaled_form_equals_scale_compose(self):
        # the chord recursion's step, lam*f(kf x) + (1-lam)*g(kg x), exactly
        rng = np.random.default_rng(5)
        for _ in range(25):
            f, g = random_pwl(rng), random_pwl(rng)
            kf, kg = (Fraction(float(k)) for k in rng.uniform(0.3, 2.5, 2))
            lam = Fraction(float(rng.uniform(0, 1)))
            want = convex_combine(scale_compose(f, kf), scale_compose(g, kg), lam)
            assert convex_combine(f, g, lam, kf, kg) == want

    def test_convexity_preserved(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            f, g = random_convex_pwl(rng), random_convex_pwl(rng)
            lam = float(rng.uniform(0, 1))
            assert convex_combine(f, g, lam).is_convex()


class TestEnvelope:
    def test_call_chord(self):
        f = call_payoff(100)
        h = upper_concave_envelope(f, Interval(70, 140))
        # chord through (70, 0) and (140, 40)
        assert h(100.0) == pytest.approx(120 / 7, rel=1e-15)
        assert h(70.0) == 0.0
        assert h(140.0) == pytest.approx(40.0, abs=1e-12)

    def test_concave_input_unchanged(self):
        h0 = PwlFunction([50, 100], [10, 20], left_slope=0.5, right_slope=0.0)
        slopes = piece_slopes(h0)
        assert all(a >= b for a, b in zip(slopes, slopes[1:]))
        env = upper_concave_envelope(h0, Interval(20, 150))
        xs = np.linspace(20, 150, 200)
        assert env(xs) == pytest.approx(h0(xs), abs=1e-12)

    def test_w_shape_flattens(self):
        w = PwlFunction([1, 2, 3], [1, 0, 1], left_slope=-1, right_slope=1)
        dom = Interval(0, 4)
        assert w(0.0) == 2.0 and w(4.0) == 2.0
        env = upper_concave_envelope(w, dom)
        xs = np.linspace(0, 4, 101)
        assert env(xs) == pytest.approx(2.0, abs=1e-12)
        # brute-force chord-hull oracle agrees
        for x in np.linspace(0, 4, 17):
            assert env(float(x)) == pytest.approx(
                brute_envelope(w, dom, float(x)), abs=1e-9
            )

    def test_degenerate_interval_constant(self):
        f = call_payoff(100)
        dom = Interval(120, 120)
        env = upper_concave_envelope(f, dom)
        assert env(120.0) == pytest.approx(20.0, abs=1e-12)
        assert env(300.0) == pytest.approx(20.0, abs=1e-12)

    def test_close_breakpoints_keep_exact_hull(self):
        # A ramp 1e-11 wide: both of its ends are hull points, so the hull at
        # 100 is the exact chord value 5 * 50 / (50 + 1e-11), not 5.
        x1 = Fraction(100 + 1e-11)
        env = upper_concave_envelope(PwlFunction([100, x1], [0, 5]), Interval(50, 150))
        chord = 5 / (x1 - 50)
        assert env == PwlFunction([50, x1, 150], [0, 5, 5], chord, 0)
        assert env.eval_exact(100) == 50 * chord < 5

    def test_random_against_brute_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            f = random_pwl(rng)
            lo, hi = np.sort(rng.uniform(0.0, 210.0, 2))
            if hi - lo < 1.0:
                hi = lo + 1.0
            dom = Interval(lo, hi)
            env = upper_concave_envelope(f, dom)
            for x in rng.uniform(lo, hi, 12):
                assert env(float(x)) == pytest.approx(
                    brute_envelope(f, dom, float(x)), abs=1e-6, rel=1e-6
                )

    def test_envelope_touches_graph_at_hull_points(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            f = random_pwl(rng)
            lo, hi = np.sort(rng.uniform(0.0, 210.0, 2))
            if hi - lo < 1.0:
                hi = lo + 1.0
            env = upper_concave_envelope(f, Interval(lo, hi))
            for b, v in zip(env.breakpoints, env.values):
                assert f.eval_exact(b) == v  # exact rational equality


class TestSuperdifferential:
    """The holding `one_step_price` reads from the envelope's one-sided
    slopes (`slopes_at`): their mean, or the inward one at a support end."""

    def test_chord_unique_slope(self):
        f = call_payoff(100)
        h = upper_concave_envelope(f, Interval(70, 140))
        assert h.slopes_at(100.0) == pytest.approx((4 / 7, 4 / 7), rel=1e-15)
        assert one_step_price(f, 100.0, StepSpec(0.7, 1.4)).theta == 4 / 7

    def test_concave_kink(self):
        h = PwlFunction([0, 10], [0, 10], left_slope=1, right_slope=0)
        assert h.slopes_at(10.0) == (1.0, 0.0)
        assert one_step_price(h, 10.0, StepSpec(0.5, 2.0)) == (10.0, 0.5)

    def test_affine_interior(self):
        h = PwlFunction([0], [5], left_slope=2, right_slope=2)
        assert h.slopes_at(7.0) == (2.0, 2.0)
        assert one_step_price(h, 7.0, StepSpec(0.5, 1.5)) == (19.0, 2.0)

    def test_boundary_flagged(self):
        # s at an end of its support: the holding is the inward one-sided
        # slope, right at the lower end and left at the upper one.
        g = PwlFunction([90, 110, 130], [0, 14, 20], left_slope=0, right_slope=1)
        for step, dom, side, quote in [
            (StepSpec(1.0, 1.4), Interval(100, 140), 1, (7.0, 0.7)),
            (StepSpec(0.7, 1.0), Interval(70, 100), 0, (7.0, 0.23333333333333334)),
        ]:
            q = one_step_price(g, 100.0, step)
            assert q == quote
            assert q.theta == upper_concave_envelope(g, dom).slopes_at(100.0)[side]

    def test_price_is_exact_value_rounded(self):
        # The envelope touches g(90) = 0 at the left end of its support; its
        # float evaluation gave -7.105427357601002e-15 there.
        g = PwlFunction([90, 110, 130], [0, 14, 20], left_slope=0, right_slope=1)
        h = upper_concave_envelope(g, Interval(90, 135))
        assert h.eval_exact(90) == 0
        assert one_step_price(g, 90.0, StepSpec(1.0, 1.5)) == (0.0, 0.7)

    def test_outside_domain_rejected(self):
        # 30 lies outside [1.05 * 30, 1.1 * 30]: no envelope, no finite price
        q = one_step_price(PwlFunction([0], [1]), 30.0, StepSpec(1.05, 1.1))
        assert q.price == -math.inf and math.isnan(q.theta)


class TestDominates:
    """Exact domination of a call payoff by lines, at its check points."""

    def test_envelope_dominates_call(self):
        f = call_payoff(100)
        dom = Interval(70, 140)
        env = upper_concave_envelope(f, dom)
        slope, icept = Fraction(4, 7), Fraction(-40)  # the chord
        assert env == chord(f, dom)
        assert all(env.eval_exact(x) == slope * x + icept for x in check_points(dom, f))
        assert dominates(slope, icept, f, check_points(dom, f))

    def test_shifted_down_fails(self):
        f = call_payoff(100)
        pts = check_points(Interval(70, 140), f)
        assert not dominates(Fraction(4, 7), Fraction(-41), f, pts)
        # the chord lowered by the smallest amount fails at the ends
        assert not dominates(Fraction(4, 7), Fraction(-40) - Fraction(1, 10**30), f, pts)

    def test_identity_dominates_call_payoff(self):
        f = call_payoff(100)
        assert dominates(1, 0, f, check_points(Interval(0, 200), f))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: PwlFunction([], []), "need at least one breakpoint"),
        (lambda: Interval(0.0, math.inf), "interval endpoints must be finite"),
        (lambda: call_payoff(100).eval_exact(-1), "evaluation point must be nonnegative"),
        (lambda: call_payoff(0), "strike must be positive"),
        (lambda: put_payoff(-5), "strike must be positive"),
    ],
    ids=["no_breakpoints", "interval_inf", "eval_exact_negative", "call_strike", "put_strike"],
)
def test_refusals_name_the_rule(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


class TestIntervalType:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            Interval(5, 3)

    def test_nonnegative(self):
        with pytest.raises(ValueError):
            Interval(-1, 3)


class TestEnvelopeProperties:
    """Randomised property battery (the acceptance suite runs a larger one)."""

    N = 200

    def _random_case(self, rng):
        f = random_pwl(rng)
        lo, hi = np.sort(rng.uniform(0.0, 210.0, 2))
        if hi - lo < 0.5:
            hi = lo + 0.5
        return f, Interval(lo, hi)

    def test_domination_and_concavity(self):
        rng = np.random.default_rng(7)
        for _ in range(self.N):
            f, dom = self._random_case(rng)
            env = upper_concave_envelope(f, dom)
            pts = check_points(dom, f, env)
            assert all(env.eval_exact(x) >= f.eval_exact(x) for x in pts)
            slopes = piece_slopes(env)[1:-1]
            assert all(a >= b for a, b in zip(slopes, slopes[1:]))

    def test_minimality_vs_sampled_dominating_affines(self):
        rng = np.random.default_rng(8)
        for _ in range(self.N):
            f, dom = self._random_case(rng)
            env = upper_concave_envelope(f, dom)
            pts = check_points(dom, f, env)
            for _ in range(5):
                slope, icept = sampled_affine(
                    f, check_points(dom, f), rng.uniform(-5, 5), rng.uniform(0, 1)
                )
                assert dominates(slope, icept, f, pts)
                assert dominates(slope, icept, env, pts)

    def test_chord_specialisation_for_convex(self):
        rng = np.random.default_rng(9)
        for _ in range(self.N):
            f = random_convex_pwl(rng)
            lo, hi = np.sort(rng.uniform(0.0, 210.0, 2))
            if hi - lo < 0.5:
                hi = lo + 0.5
            dom = Interval(lo, hi)
            assert upper_concave_envelope(f, dom) == chord(f, dom)
