"""Seeded Monte-Carlo verification of the super-hedge, path by path.

Protocol per path (two-step default, generalised to any horizon):

* step 0: the first price executes at a random point of its interval,
  ``S_0 = S_prev * (m + k (M - m))`` with m, spread and k drawn uniformly;
* interior steps quote a bid/ask pair ``(S m, S M)``; the pending order is
  the mapping ``z -> theta_t(z) - theta_{t-1}`` and the executed side is
  decided by where the order changes sign: entirely a sell -> bid, entirely
  a buy -> ask, otherwise the side closer to the sign-change price S*;
* the final step executes mid like step 0.

Portfolios are self-financing: ``V_t = V_{t-1} + theta_{t-1} (S_t - S_{t-1})``.
The relative hedging error ``eps_r = (V_T - payoff(S_T)) / S_T`` must come
out nonnegative on every path; aggregated statistics per strike reproduce
the reference result table.

Everything is vectorised over paths and reproducible bit for bit from one
root seed.  European (PWL) claims run in fixed-size batches, each with its
own seed spawned from the root, so batches could be drawn and aggregated in
any order (Chan et al. moment merging).  Path-dependent claims run in
chunks that share one generator, so their chunks must be drawn in order.

Each run holds one workspace of batch columns, sized for its largest batch
and reused by every batch.  A step draws the whole batch into it in stream
order, then runs its elementwise chain (execution, value, holding, V, eps)
over TILE lanes at a time, so the chain's temporaries stay cache-sized.
Every operation is elementwise, so tiling leaves every float unchanged; the
statistics reduce over whole batch columns.  A run whose batches go to a
sink or are collected keeps every step's row, 5T+1 rows with eps; a
stats-only European run keeps the rows the statistics read and reuses two
rows per series for the later steps, at most 16 rows at any horizon.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, fields
from functools import partial
from typing import Callable, Optional

import numpy as np

from .pricing import MarketModel, PricingResult, StepSpec, _require_horizon
from .pricing import _tree_value, require_aip, require_tree_depth
from .pwl import PwlFunction, _check_array, _scaled_pieces, piece_index

BATCH_SIZE = 1 << 17
TILE = 1 << 15  # lanes each step's elementwise chain runs at a time
DUMP_ROWS = 2048  # path-dump rows formatted and written at a time
_PATH_KEYS = ("s", "bid", "ask", "theta", "v")
ROOT_WIDTH_TOL = 1e-12


# ---------------------------------------------------------------------- #
# elementary draws and executions
# ---------------------------------------------------------------------- #


def draw_step(step: StepSpec, rng: np.random.Generator, size: int = 1, out=None):
    """Draw (m, M, k): interval edges m, M = m + spread, and mid position k.

    m ~ U[m_lo, m_hi], spread ~ U[spr_lo, spr_hi] independent, k ~ U[0, 1].
    The draws fill ``out``, three contiguous float rows of one length, or
    three new rows of ``size`` floats, and the rows are returned.  Each row is
    ``rng.random(out=row)`` mapped by ``*= hi - lo; += lo``: the stream and
    the bits of ``rng.uniform(lo, hi, len(row))``.  A bid/ask step ignores k,
    so its caller may pass None as the k row of ``out``: the stream then
    advances past the row's draws without making them, and the stream layout
    stays the same for every protocol.
    """
    if not step.has_distribution:
        raise ValueError("step has no draw distribution attached")
    m, M, k = np.empty((3, size)) if out is None else out
    bounds = ((step.m_lo, step.m_hi), (step.spr_lo, step.spr_hi), (0, 1))
    for row, (lo, hi) in zip((m, M, k), bounds):
        if row is None:  # one 64-bit output per double, as random() takes
            rng.bit_generator.advance(len(m))
            continue
        lo, hi = float(lo), float(hi)  # as uniform reads them, before hi - lo
        rng.random(out=row)
        row *= hi - lo
        row += lo
    M += m  # spread + m, the bits of m + spread
    return m, M, k


def mid_execute(s_prev, m, M, k):
    """Executed price s_prev * (m + k (M - m)) inside the drawn interval."""
    s = np.asarray(s_prev, dtype=float)
    _check_array(s, "s_prev")
    out = s * (m + k * (M - m))
    return float(out) if out.ndim == 0 else out


def execute_delayed_order(
    bid: float,
    ask: float,
    sstar: Optional[float],
    delta_sign: float = 0.0,
    straddle_to_ask: bool = True,
) -> float:
    """Executed side of a delayed order given the sign-change price.

    Both quotes at or below S* (the order sells throughout): the bid
    executes.  Both at or above: the ask executes.  When S* falls strictly
    between, the tie-break convention executes the ask when the bid is the
    closer quote, and the bid otherwise; ``straddle_to_ask=False`` flips it.
    With ``sstar=None`` the order's sign is constant on the bracket and
    ``delta_sign`` decides: <= 0 bid, > 0 ask.

    The engines call `_execute_vec` on whole batches: this scalar wrapper is
    kept for the ``simulation.execute`` hook of ``perfbench/tracer.py``
    until ROADMAP item 11 replaces those hooks.
    """
    bid, ask = np.array([bid], dtype=float), np.array([ask], dtype=float)
    _check_quotes(bid, ask)
    sstar = np.array([math.nan if sstar is None else sstar], dtype=float)
    return float(_execute_vec(bid, ask, sstar, delta_sign, straddle_to_ask)[0])


def _check_quotes(bid: np.ndarray, ask: np.ndarray):
    bad = ~((0.0 < bid) & (bid <= ask))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"need 0 < bid <= ask, got ({bid[i]}, {ask[i]})")


# ---------------------------------------------------------------------- #
# exact sign-change prices for one interior step
# ---------------------------------------------------------------------- #


class OrderSignChange:
    """Sign-change price of z -> theta_t(z) - theta_prev, solved exactly.

    theta_t(z) = (g(k_up z) - g(k_down z)) / ((k_up - k_down) z) is
    continuous and of the form b/c + a/(c z) between cuts, monotone when no
    piece has a > 0 (convex g), so the zero set of the order mapping is an
    interval whose endpoints solve linear equations on the pieces.  The
    reported S* is the finite endpoint when the zero set extends to 0 or
    infinity (a plateau of theta at the held position) and the midpoint
    otherwise; with no zero at all, only the constant sign is reported.
    All piece data is precomputed from exact rationals.
    """

    def __init__(self, g_next: PwlFunction, step: StepSpec):
        kd, ku, _ = step.exact
        self.degenerate = kd == ku
        if self.degenerate:
            return
        # N(z) = g(k_up z) - g(k_down z) is b z + a between cuts, the z where
        # k_up z or k_down z meets a breakpoint of g: the recursion's merge
        # gives the cuts over zd, b over bd and a over ad.
        g = g_next
        (cuts, zd), (b_n, bd), (a_n, ad) = _scaled_pieces(g, ku, 1, g, kd, -1)
        if cuts[0] == 0:  # z > 0 lies past a breakpoint at 0
            cuts, b_n, a_n = cuts[1:], b_n[1:], a_n[1:]
        # theta = N / (c z) is continuous and nondecreasing on a piece iff
        # a <= 0.  Below the first cut and past the last, both chord ends lie
        # in one piece of g, so a = 0 there: theta at the last cut is theta_hi.
        if any(n > 0 for n in a_n):
            raise ValueError("order mapping is not monotone; payoff not convex?")
        # theta at cut z = cuts[j] / zd, from the piece ending there, is
        # (b z + a) / (c z) = (b_n*ae*cuts[j] + a_n*bd*ze) / (bd*ae*c*cuts[j])
        # with ze/ae = zd/ad in lowest terms.
        c, h = ku - kd, math.gcd(zd, ad)
        ze, ae = zd // h, ad // h
        b_w, a_w = ae * c.denominator, bd * ze * c.denominator
        t_d = bd * ae * c.numerator
        self.c = float(step.k_up - step.k_down)
        self.cuts = np.array([z / zd for z in cuts])
        # Piece j of theta spans [cut_lo[j], cut_hi[j]].
        self.cut_lo = np.concatenate(([0.0], self.cuts))
        self.cut_hi = np.concatenate((self.cuts, [np.inf]))
        self.t_vals = np.array(
            [(b_n[j] * b_w * z + a_n[j] * a_w) / (t_d * z) for j, z in enumerate(cuts)]
        )
        self.a = np.array([n / ad for n in a_n])
        self.b = np.array([n / bd for n in b_n])
        # theta = b/c near 0 and at infinity
        self.theta_lo = b_n[0] * c.denominator / (bd * c.numerator)
        self.theta_hi = b_n[-1] * c.denominator / (bd * c.numerator)

    def sstar(self, theta_prev: np.ndarray):
        """Per-path (sstar, sign): sstar is NaN where the sign is constant."""
        th = np.asarray(theta_prev, dtype=float)
        n = th.shape[0]
        if self.degenerate:
            return np.full(n, np.nan), np.zeros(n)
        if self.theta_lo == self.theta_hi or self.cuts.size == 0:
            return np.full(n, np.nan), self.theta_lo - th

        sign = np.zeros(n)
        all_buy = th < self.theta_lo
        all_sell = th > self.theta_hi
        sign[all_buy] = 1.0
        sign[all_sell] = -1.0
        root = ~(all_buy | all_sell)
        if root.all():
            return self._zero_set_point(th), sign
        out = np.full(n, np.nan)
        if root.any():
            out[root] = self._zero_set_point(th[root])
        return out, sign

    def _zero_set_point(self, th: np.ndarray) -> np.ndarray:
        """S* on lanes where the order changes sign (neither all-buy nor all-sell)."""
        m = self.cuts.size
        jl = piece_index(self.t_vals, th, side="left")
        jr = piece_index(self.t_vals, th, side="right")

        def piece_root(j, theta):
            denom = theta * self.c - self.b[j]
            with np.errstate(divide="ignore", invalid="ignore"):
                z = self.a[j] / denom
            return np.clip(z, self.cut_lo[j], self.cut_hi[j])

        # zero-set endpoints; +/- sentinels mark plateaus reaching 0 / infinity.
        # The two ends solve the same piece unless th equals a t_vals entry.
        z = piece_root(np.maximum(jl, 1), th)
        z_left = np.where(jl == 0, 0.0, z)
        split = np.flatnonzero(jl != jr)
        if split.size:
            z[split] = piece_root(np.maximum(jr[split], 1), th[split])
        at_top = (jr == m) & (th == self.theta_hi)
        return _sstar_from_ends(z_left, np.where(at_top, np.inf, z))


def _sstar_from_ends(z_left, z_right):
    """The reported point of the zero set [z_left, z_right]: the finite end
    when it reaches 0 (z_left == 0) or infinity, else the midpoint."""
    inner = np.where(np.isinf(z_right), z_left, 0.5 * (z_left + z_right))
    return np.where(z_left == 0.0, z_right, inner)


_REGIONS = tuple(np.int8(i) for i in range(4))  # _region's indices


def _region(bid, ask, sstar):
    """Where S* lies against the quotes, as an int8 index nondecreasing in
    S*: 0 at or below the bid, 1 inside and closer to the bid (ties
    included), 2 inside and closer to the ask, 3 at or above the ask (tested
    first).  The index is monotone because rounded differences are."""
    closer_bid = np.abs(sstar - bid) <= np.abs(sstar - ask)
    lo, in_bid, in_ask, hi = _REGIONS
    inside = np.where(closer_bid, in_bid, in_ask)
    return np.where(ask <= sstar, hi, np.where(sstar <= bid, lo, inside))


def _execute_vec(bid, ask, sstar, sign, straddle_to_ask=True):
    """The executed quote, by S*'s ``_region``: the ask in region 0 and the
    bid in region 3; inside, ``straddle_to_ask`` executes the ask when the
    bid is closer (so regions 2 and 3 execute the bid), and False the
    reverse (regions 1 and 3).  Where S* is NaN the sign decides: <= 0 bid,
    > 0 ask."""
    region = _region(bid, ask, sstar)
    to_bid = region >= 2 if straddle_to_ask else region % 2 == 1
    to_bid = np.where(np.isnan(sstar), sign <= 0.0, to_bid)
    return np.where(to_bid, bid, ask)


# ---------------------------------------------------------------------- #
# path generation
# ---------------------------------------------------------------------- #


# (kept, cycle) per key of _PATH_KEYS in a compact workspace.  The first
# ``kept`` entries of a series (one per step; bid and ask one per interior
# step) keep rows of their own: _Aggregator reads s_0..s_2, v_0..v_1 and
# theta_0..theta_1.  Each later entry takes one of ``cycle`` rows in turn: a
# step reads only its own entry and the previous one.
_COMPACT = {"s": (3, 2), "bid": (0, 1), "ask": (0, 1), "theta": (2, 2), "v": (2, 2)}


def _workspace(
    horizon: int, size: int, draw_shape: Optional[tuple] = None, compact: bool = False
) -> dict:
    """Batch columns for up to ``size`` paths, reused by every batch of a run:
    one block per key of _PATH_KEYS, the eps row, and a draw block of
    ``draw_shape``, by default the three rows (m, M, k).  ``rows`` maps each
    key to the block row of each entry.  The full layout gives every entry
    its own row (s and v T+1 rows, theta T, bid and ask T-1), 5T+1 rows with
    eps; the compact one (_COMPACT) at most 16, whatever the horizon."""
    T = horizon
    rows = {}
    for key, n in dict(s=T + 1, bid=T - 1, ask=T - 1, theta=T, v=T + 1).items():
        kept, cycle = _COMPACT[key] if compact else (n, 1)
        rows[key] = tuple(j if j < kept else kept + (j - kept) % cycle for j in range(n))
    heights = [max(rows[key], default=-1) + 1 for key in _PATH_KEYS]
    *blocks, eps = np.split(np.empty((sum(heights) + 1, size)), np.cumsum(heights))
    draw = np.empty(draw_shape or (3, size))
    return dict(zip(_PATH_KEYS, blocks), eps=eps[0], draw=draw, rows=rows)


def _held(views: list, rows: tuple) -> list:
    """``views`` with None for each entry whose row a later entry reused."""
    last = {r: j for j, r in enumerate(rows)}
    return [view if last[r] == j else None for j, (view, r) in enumerate(zip(views, rows))]


def _protocol(model: MarketModel, n: int, draws, claim, straddle_to_ask: bool, ws):
    """The execution protocol over the first n lanes of workspace ``ws``;
    returns the batch columns, views into ``ws``.

    ``draws`` yields (m, M, k) arrays of n lanes per step; bid/ask steps
    may yield None for k, which they do not read.  ``claim`` holds four maps
    of the executed prefix (s_0, ..., s_t): ``value(prefix, t)``,
    ``theta(prefix, t)``, ``sstar(prefix, t, held, s_prev, bid, ask)``, the
    order's (sstar, sign) at interior step t before its execution, and
    ``payoff(prefix)``.  The S* map gets the step's quotes so that it may
    stop solving once it knows which quote executes: any S* in the same
    ``_region`` as the exact one executes the same quote.  Each step runs
    tile by tile, TILE lanes at a time, and every map must act on each lane
    alone.  Every entry is reached through the workspace's row map.  In a
    compact workspace the prefix entries past s_2, but for the last two,
    share rows with later steps, so only claims that read prefix[-1] run
    there, and the returned columns hold None for each entry a later step
    overwrote.  Mid steps quote no bid/ask: their entries are None.
    """
    value, theta, sstar, payoff = claim
    T = model.horizon
    maps = ws["rows"]
    s, bid, ask, th, v = ([ws[key][r, :n] for r in maps[key]] for key in _PATH_KEYS)
    eps = ws["eps"][:n]
    for t, (m, M, k) in enumerate(draws):
        for lo in range(0, n, TILE):
            sl = slice(lo, lo + TILE)
            if t == 0:
                s_prev = np.full(len(s[0][sl]), float(model.s_init))
            else:
                s_prev = s[t - 1][sl]
            if t == 0 or t == T:
                s[t][sl] = mid_execute(s_prev, m[sl], M[sl], k[sl])
            else:
                bid_t = np.multiply(s_prev, m[sl], out=bid[t - 1][sl])
                ask_t = np.multiply(s_prev, M[sl], out=ask[t - 1][sl])
                _check_quotes(bid_t, ask_t)
                pre = tuple(row[sl] for row in s[:t])
                order = sstar(pre, t, th[t - 1][sl], s_prev, bid_t, ask_t)
                s[t][sl] = _execute_vec(bid_t, ask_t, *order, straddle_to_ask)
            prefix = tuple(row[sl] for row in s[: t + 1])
            if t == 0:
                v[0][sl] = value(prefix, 0)
            else:
                gain = th[t - 1][sl] * (prefix[-1] - s_prev)
                np.add(v[t - 1][sl], gain, out=v[t][sl])
            if t < T:
                th[t][sl] = theta(prefix, t)
            else:
                np.divide(v[T][sl] - payoff(prefix), prefix[-1], out=eps[sl])
    cols = {key: _held(c, maps[key]) for key, c in zip(_PATH_KEYS, (s, bid, ask, th, v))}
    for key in ("bid", "ask"):
        cols[key] = [None, *cols[key], None]
    return dict(cols, eps=eps)


def _simulate_batch(
    model: MarketModel,
    pricing: PricingResult,
    n: int,
    rng: np.random.Generator,
    crossings: dict,
    straddle_to_ask: bool = True,
    ws: Optional[dict] = None,
):
    """Vectorised protocol over n paths of a PWL claim; returns the batch
    columns, views into ``ws`` (a workspace of its own when None)."""
    if ws is None:
        ws = _workspace(model.horizon, n)
    claim = (
        lambda prefix, t: pricing.value_fns[0](prefix[-1]),
        lambda prefix, t: pricing.strategy(t, model)(prefix[-1]),
        lambda prefix, t, held, s_prev, bid, ask: crossings[t].sstar(held),
        lambda prefix: pricing.payoff(prefix[-1]),
    )
    mid_rows = tuple(row[:n] for row in ws["draw"])
    quote_rows = (*mid_rows[:2], None)  # bid/ask steps skip their k draws
    T = model.horizon
    draws = (
        draw_step(step, rng, out=mid_rows if t in (0, T) else quote_rows)
        for t, step in enumerate(model.steps)
    )
    return _protocol(model, n, draws, claim, straddle_to_ask, ws)


def _build_crossings(model: MarketModel, pricing: PricingResult) -> dict:
    return {
        t: OrderSignChange(pricing.value_fns[t + 1], model.steps[t + 1])
        for t in range(1, model.horizon)
    }


# ---------------------------------------------------------------------- #
# aggregation
# ---------------------------------------------------------------------- #


@dataclass
class RunningMoments:
    """Streaming count/mean/M2 with order-robust pairwise batch merging; the
    mean and variance of no values are NaN.  With ``m2=None`` only the mean
    is kept: a series whose spread is never reported never squares its
    values."""

    count: int = 0
    mean: float = math.nan
    m2: Optional[float] = 0.0

    def merge(self, n: int, mean: float, m2: Optional[float]):
        if self.count == 0:
            self.count, self.mean, self.m2 = n, mean, m2
            return
        total = self.count + n
        delta = mean - self.mean
        self.mean += delta * n / total
        if self.m2 is not None:
            self.m2 += m2 + delta * delta * self.count * n / total
        self.count = total

    def add_batch(self, x: np.ndarray):
        if x.size:
            m2 = None if self.m2 is None else float(np.var(x) * x.size)
            self.merge(x.size, float(np.mean(x)), m2)

    @property
    def variance(self) -> float:
        return self.m2 / self.count if self.count else math.nan

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)


@dataclass(frozen=True)
class SimStats:
    """Aggregate per-strike statistics (the rows of the result table).

    Every field but ``n_paths`` is one row, in ROW_LABELS order.  The
    position-fraction means E(theta_t S_t / V_t) run over paths with
    V_t != 0; on paths where the portfolio is worth exactly zero the holding
    is zero too and the fraction is undefined.
    """

    strike: float
    n_paths: int
    mean_s0: float
    mean_s1: float
    mean_s2: float
    mean_v0: float
    max_v0: float
    mean_v0_over_sprev: float
    mean_v0_over_s0: float
    min_v0_over_s0: float
    max_v0_over_s0: float
    mean_eps: float
    std_eps: float
    min_eps: float
    max_eps: float
    mean_theta0_frac: float
    mean_theta1_frac: float

    ROW_LABELS = (
        "K",
        "E(S0)",
        "E(S1)",
        "E(S2)",
        "E(V0)",
        "max V0",
        "E(V0/S-1)",
        "E(V0/S0)",
        "min(V0/S0)",
        "max(V0/S0)",
        "E(eps_R)",
        "sigma(eps_R)",
        "min eps_R",
        "max eps_R",
        "E(theta0*S0/V0)",
        "E(theta1*S1/V1)",
    )

    def row_values(self) -> tuple[float, ...]:
        return tuple(getattr(self, f.name) for f in fields(self) if f.name != "n_paths")


def _theta_frac(theta: np.ndarray, s: np.ndarray, v: np.ndarray) -> np.ndarray:
    """theta * s / v on the paths with v != 0."""
    nonzero = v != 0.0
    if nonzero.all():  # the same values in the same order, without gathers
        out = theta * s
        return np.divide(out, v, out=out)
    return (theta[nonzero] * s[nonzero]) / v[nonzero]


class _Aggregator:
    """Fold batches of path columns into SimStats.

    One RunningMoments per named per-batch series, merged in batch order;
    only eps, whose std is reported, keeps an M2.  The series in EXTREMA
    also keep their running min and max.  A series that saw no path (S2 and
    theta1 at T=1, a theta fraction where every V_t is 0) has a NaN mean.
    """

    EXTREMA = ("v0", "v0/s0", "eps")

    def __init__(self, s_prev: float):
        self.s_prev = s_prev
        self.moments = defaultdict(partial(RunningMoments, m2=None), eps=RunningMoments())
        self.lo = dict.fromkeys(self.EXTREMA, math.inf)
        self.hi = dict.fromkeys(self.EXTREMA, -math.inf)

    def add(self, cols: dict):
        s, v, theta = cols["s"], cols["v"], cols["theta"]
        series = {
            "s0": s[0],
            "s1": s[1],
            "v0": v[0],
            "v0/s0": v[0] / s[0],
            "eps": cols["eps"],
            "th0": _theta_frac(theta[0], s[0], v[0]),
        }
        if len(s) > 2:
            series.update(s2=s[2], th1=_theta_frac(theta[1], s[1], v[1]))
        for key, x in series.items():
            self.moments[key].add_batch(x)
        for key in self.EXTREMA:
            self.lo[key] = min(self.lo[key], float(np.min(series[key])))
            self.hi[key] = max(self.hi[key], float(np.max(series[key])))

    def result(self, strike: float) -> SimStats:
        m, lo, hi = self.moments, self.lo, self.hi
        return SimStats(
            strike=strike,
            n_paths=m["s0"].count,
            mean_s0=m["s0"].mean,
            mean_s1=m["s1"].mean,
            mean_s2=m["s2"].mean,
            mean_v0=m["v0"].mean,
            max_v0=hi["v0"],
            mean_v0_over_sprev=m["v0"].mean / self.s_prev,
            mean_v0_over_s0=m["v0/s0"].mean,
            min_v0_over_s0=lo["v0/s0"],
            max_v0_over_s0=hi["v0/s0"],
            mean_eps=m["eps"].mean,
            std_eps=m["eps"].std,
            min_eps=lo["eps"],
            max_eps=hi["eps"],
            mean_theta0_frac=m["th0"].mean,
            mean_theta1_frac=m["th1"].mean,
        )


def _fold(
    model: MarketModel, label: float, n_paths: int, batches, collect: bool, sink
):
    """Check the run, then fold each batch of path columns into SimStats.

    ``batches`` is a generator, so none of its set-up runs before the checks.
    Each batch goes, in path order, to ``sink`` once aggregated.  Its columns
    are views into the run's workspace, valid only during the call: the next
    batch overwrites them.  ``collect`` is the sink that copies every batch
    into whole-run columns.  Returns (SimStats, those columns when
    ``collect`` is set, else None).
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    require_aip(model)
    agg = _Aggregator(model.s_init)
    sinks = [agg.add]
    raw: dict = {}
    if collect:
        sinks.append(_collector(raw, n_paths))
    if sink is not None:
        sinks.append(sink)
    for cols in batches:
        for add in sinks:
            add(cols)
    return agg.result(label), raw if collect else None


def _collector(raw: dict, n_paths: int):
    """A sink that copies each batch into whole-run columns in ``raw``,
    allocated at the first batch; the mid-step bid/ask entries stay None."""
    done = 0

    def keep(cols: dict):
        nonlocal done
        if not raw:
            for key in _PATH_KEYS:
                raw[key] = [c if c is None else np.empty(n_paths) for c in cols[key]]
            raw["eps"] = np.empty(n_paths)
        rows = slice(done, done + cols["eps"].size)
        for key in _PATH_KEYS:
            for whole, col in zip(raw[key], cols[key]):
                if col is not None:
                    whole[rows] = col
        raw["eps"][rows] = cols["eps"]
        done = rows.stop

    return keep


def simulate_one(
    model: MarketModel,
    pricing: PricingResult,
    strike: float,
    n_paths: int,
    seed_seq: np.random.SeedSequence,
    straddle_to_ask: bool = True,
    collect: bool = False,
    sink: Optional[Callable[[dict], None]] = None,
):
    """Simulate one strike; returns (SimStats, raw columns or None).

    Paths are generated in batches of BATCH_SIZE (read when called), each
    seeded by a child spawned from ``seed_seq`` as it starts (the children
    of one ``spawn(k)``, in order); the batch layout depends only on
    n_paths, so a given seed gives bit-identical results.  Every batch runs
    in one workspace of min(BATCH_SIZE, n_paths) lanes.  A stats-only run
    (no ``collect``, no ``sink``) lays it out compactly: at most 16 path
    rows plus the 3 draw rows, whatever the horizon.  A run that collects
    or has a sink keeps every step's row: 5T+1 path rows plus 3.
    ``collect=True`` additionally returns the per-path columns of the whole
    run, copied batch by batch: 5T+1 floats per path.  ``sink``, if given,
    is called with each batch's columns in path order once they are
    aggregated; they are views into the workspace, valid only during the
    call, so a sink that keeps them copies them.  A caller that writes them
    out holds one batch, whatever n_paths.  Collected, single-path and sink
    columns share one format: in both engines the mid-step bid/ask entries
    are None.  A pricing of another horizon than the model's is refused
    before any draw.
    """
    _require_horizon(pricing, model)
    batch_size = BATCH_SIZE

    def batches():
        crossings = _build_crossings(model, pricing)
        compact = sink is None and not collect  # no consumer reads whole paths
        ws = _workspace(model.horizon, min(batch_size, n_paths), compact=compact)
        for done in range(0, n_paths, batch_size):
            nb = min(batch_size, n_paths - done)
            rng = np.random.Generator(np.random.PCG64(seed_seq.spawn(1)[0]))
            yield _simulate_batch(
                model, pricing, nb, rng, crossings, straddle_to_ask, ws
            )

    return _fold(model, strike, n_paths, batches(), collect, sink)


# ---------------------------------------------------------------------- #
# path-dependent claims: tree walks vectorised over paths
# ---------------------------------------------------------------------- #

FUNCTIONAL_CHUNK = 4096
OPENING_HALVINGS = 30  # S* bisection steps walked at once

_PAYOFF_CONTRACT = (
    "a path-dependent payoff gets a tuple (s_0, ..., s_T) of equal-length "
    "float arrays, one entry per path (or equal-shape 2-D blocks of lanes), "
    "and returns an array of that shape or a scalar; use np.maximum, not "
    "max, on arrays"
)


def _payoff_values(payoff, prefix: tuple) -> np.ndarray:
    """payoff(prefix) as a float array with one value per path."""
    try:
        out = np.asarray(payoff(prefix), dtype=float)
    except ValueError as exc:  # Python max/if on arrays: ambiguous truth value
        if "truth value" not in str(exc):
            raise
        raise TypeError(_PAYOFF_CONTRACT) from exc
    if out.shape == prefix[-1].shape:
        return out
    if out.ndim:
        raise TypeError(f"{_PAYOFF_CONTRACT}; got shape {out.shape}")
    return np.broadcast_to(out, prefix[-1].shape)


def _tree_theta(leaf, model: MarketModel, prefix: tuple, t: int) -> np.ndarray:
    """Per-path holding after the time-t execution, prefix = (s_0, ..., s_t)."""
    step = model.steps[t + 1]
    s_t = prefix[-1]
    if step.k_down == step.k_up:
        h = 1e-6 * s_t
        lo = _tree_value(leaf, model, prefix + (step.k_down * (s_t - h),), t + 1)
        hi = _tree_value(leaf, model, prefix + (step.k_down * (s_t + h),), t + 1)
        return (hi - lo) / (2 * h) * step.k_down
    g_up = _tree_value(leaf, model, prefix + (step.k_up * s_t,), t + 1)
    g_dn = _tree_value(leaf, model, prefix + (step.k_down * s_t,), t + 1)
    return (g_up - g_dn) / ((step.k_up - step.k_down) * s_t)


def _wide(a, b):
    """The bisection's go-on test: [a, b] is wider than ROOT_WIDTH_TOL
    relative to its midpoint, or absolutely below 1."""
    return b - a > ROOT_WIDTH_TOL * np.maximum(1.0, 0.5 * (a + b))


def _functional_sstar(leaf, model: MarketModel, base, t: int, held, s_prev, bid, ask):
    """Per-path (sstar, sign) of z -> theta_t(base + (z,)) - held, solved
    until it fixes which of the quotes (bid, ask) executes.

    Same plateau conventions as OrderSignChange; sstar is NaN where the sign
    is constant on [lo, hi] = [1e-9, 1e9] * s_prev.  The left end of the
    zero set (first z with delta >= 0) and the right end (first z with
    delta > 0) are bisected, one lane each.  A lane stops once its bracket
    is narrower than ROOT_WIDTH_TOL relative to its midpoint, or once its
    path is decided: S* formed from its lanes' low ends lies in the same
    ``_region`` as S* formed from their high ends.  Each lane's last
    midpoint lies in all of its brackets, and the S* formula and the region
    are nondecreasing in it, so a decided path executes the quote of the
    full bisection under either straddle convention; only the S* it
    reports differs.  Paths whose brackets could overflow or reach 0 are
    never decided early.

    While a lane's root lies below them, its midpoints are the same floats
    m_j = 0.5 (lo + m_{j-1}) from m_0 = hi.  The first OPENING_HALVINGS of
    them are walked at once, one (halvings, paths) block at a time, and each
    lane replays the loop's rule on them, width test first, up to its first
    other outcome.
    """
    n = held.size

    def delta(paths, z):
        """The order at prices z, one column per path of ``paths``; the
        prefix is broadcast to z's shape, so the walk's arrays agree."""
        pre = tuple(np.broadcast_to(p[paths], z.shape) for p in base)
        return _tree_theta(leaf, model, pre + (z,), t) - held[paths]

    lo, hi = 1e-9 * s_prev, 1e9 * s_prev
    f_lo, f_hi = delta(slice(None), np.stack((lo, hi)))
    sign = np.where(f_lo > 0.0, 1.0, np.where(f_hi < 0.0, -1.0, 0.0))
    no_root = (f_lo > 0.0) | (f_hi < 0.0) | ((f_lo == 0.0) & (f_hi == 0.0))
    # Lane (0, i) bisects z_left of path i, lane (1, i) its z_right.  An end
    # that is not bisected stays at 0 or inf, where S* reads it as missing.
    lane = ~no_root & np.stack((f_lo != 0.0, f_hi != 0.0))
    rest = np.array([[0.0], [math.inf]])

    # The opening run, one block of root paths at a time: the bracket that
    # each rule (0 strict, 1 not) reaches on m_1, ..., m_J.
    roots, J = np.flatnonzero(~no_root), OPENING_HALVINGS
    opened = np.empty((2, 2, n))  # [low/high end, lane side, path]
    block = max(1, 2 * FUNCTIONAL_CHUNK // J)
    for i in range(0, roots.size, block):
        paths = roots[i : i + block]
        lo_p, k = lo[paths], np.arange(paths.size)
        mids = np.empty((J + 1, paths.size))  # mids[j] is m_j
        mids[0] = hi[paths]
        for j in range(J):
            mids[j + 1] = 0.5 * (lo_p + mids[j])
        d = delta(paths, mids[1:])
        go_on = _wide(lo_p, mids[:-1])  # the width test before m_{j+1}
        for side, up in enumerate((d < 0.0, d <= 0.0)):
            stop = ~go_on | up
            first = stop.argmax(axis=0)
            r = np.where(stop[first, k], first, J)  # the bracket is [lo, m_r] ...
            rose = stop[first, k] & go_on[first, k]  # ... or [m_{r+1}, m_r]
            opened[0, side, paths] = np.where(rose, mids[first + 1, k], lo_p)
            opened[1, side, paths] = mids[r, k]
    ends = np.where(lane, opened, rest)
    a, b = ends  # views: the loop moves ``ends`` with them
    exact = (lo > 0.0) & (hi + hi < math.inf)  # midpoints stay in brackets

    def undecided():
        region = _region(bid, ask, _sstar_from_ends(ends[:, 0], ends[:, 1]))
        return ~((region[0] == region[1]) & exact)

    active = np.zeros((2, n), dtype=bool)
    active[lane] = _wide(a[lane], b[lane])
    active &= undecided()
    flat_a, flat_b, flat_active = a.reshape(-1), b.reshape(-1), active.reshape(-1)
    while active.any():
        idx = np.flatnonzero(active)
        a_i, b_i = flat_a[idx], flat_b[idx]
        mid = 0.5 * (a_i + b_i)
        d = delta(idx % n, mid)
        up = np.where(idx < n, d < 0.0, d <= 0.0)
        flat_a[idx] = a_i = np.where(up, mid, a_i)
        flat_b[idx] = b_i = np.where(up, b_i, mid)
        flat_active[idx] = _wide(a_i, b_i)
        active &= undecided()
    z = 0.5 * (a + b)
    return np.where(no_root, np.nan, _sstar_from_ends(z[0], z[1])), sign


def _functional_batch(
    model: MarketModel, payoff, n: int, rng, straddle_to_ask=True, ws=None
):
    """Protocol for a path-dependent claim over n paths; returns the batch
    columns, views into ``ws`` (a workspace of its own when None).

    Each path takes its 3 (T + 1) uniforms consecutively from ``rng`` in the
    order (m, spread, k) per step, and every lane repeats the per-path
    arithmetic, so results do not depend on how paths are batched.  The
    draws fill the workspace's (paths, T + 1, 3) draw block.
    """
    if not all(step.has_distribution for step in model.steps):
        raise ValueError("step has no draw distribution attached")
    if ws is None:
        ws = _workspace(model.horizon, n, (n, model.horizon + 1, 3))
    lo = np.array([(st.m_lo, st.spr_lo, 0.0) for st in model.steps], dtype=float)
    hi = np.array([(st.m_hi, st.spr_hi, 1.0) for st in model.steps], dtype=float)
    u = rng.random(out=ws["draw"][:n])
    u *= hi - lo  # the bits of lo + (hi - lo) * u: IEEE * and + commute
    u += lo
    draws = ((u[:, t, 0], u[:, t, 0] + u[:, t, 1], u[:, t, 2]) for t in range(len(lo)))
    leaf = partial(_payoff_values, payoff)
    claim = (
        partial(_tree_value, leaf, model),
        partial(_tree_theta, leaf, model),
        partial(_functional_sstar, leaf, model),
        leaf,
    )
    return _protocol(model, n, draws, claim, straddle_to_ask, ws)


def run_path_functional(
    model: MarketModel,
    payoff: Callable[[tuple[np.ndarray, ...]], np.ndarray],
    rng: np.random.Generator,
    straddle_to_ask: bool = True,
) -> dict:
    """One path of the path-dependent protocol (holdings from tree walks).

    The n=1 case of the engine behind simulate_functional, under the same
    payoff contract; successive calls on one generator give the paths of one
    simulate_functional batch bit for bit.  Returns the path as the batch
    columns a sink gets, each of one lane.
    """
    require_tree_depth(model.horizon)
    require_aip(model)
    return _functional_batch(model, payoff, 1, rng, straddle_to_ask)


def simulate_functional(
    model: MarketModel,
    payoff: Callable[[tuple[np.ndarray, ...]], np.ndarray],
    strike_label: float,
    n_paths: int,
    seed_seq: np.random.SeedSequence,
    straddle_to_ask: bool = True,
    collect: bool = False,
    sink: Optional[Callable[[dict], None]] = None,
):
    """Path-dependent analogue of simulate_one; returns (SimStats, raw or None).

    ``payoff`` receives a tuple (s_0, ..., s_T) of equal-shape float arrays,
    one lane per path (tree walks append hypothetical prices), and returns
    an array of the same shape; a scalar return is broadcast to every path.
    The arrays are 1-D, or 2-D blocks of lanes when the S* solve walks its
    opening halvings at once, so the payoff must act on each lane alone.  A
    payoff written for floats only fails with a TypeError stating this
    contract.  The S* solve stops on a path once the executed quote is
    fixed (see _functional_sstar), so the outputs are those of the full
    bisection.  Unlike simulate_one, all chunks share one generator made
    from ``seed_seq``: it feeds chunks of FUNCTIONAL_CHUNK paths in turn,
    each run as one vector batch in one reused workspace and aggregated as
    one batch; ``sink`` gets each chunk's columns as in simulate_one, views
    into the workspace valid only during the call.  A horizon above
    TREE_DEPTH_CAP (2^horizon tree leaves per path) is refused before any draw.
    """
    require_tree_depth(model.horizon)

    def batches():
        rng = np.random.Generator(np.random.PCG64(seed_seq))
        size = min(FUNCTIONAL_CHUNK, n_paths)
        ws = _workspace(model.horizon, size, (size, model.horizon + 1, 3))
        for done in range(0, n_paths, FUNCTIONAL_CHUNK):
            nb = min(FUNCTIONAL_CHUNK, n_paths - done)
            yield _functional_batch(model, payoff, nb, rng, straddle_to_ask, ws)

    return _fold(model, strike_label, n_paths, batches(), collect, sink)


# ---------------------------------------------------------------------- #
# per-path dump
# ---------------------------------------------------------------------- #


def _dump_columns(horizon: int) -> list[tuple[str, str, Optional[int]]]:
    """(name, raw key, step) of each dump column after path_id; step None
    marks a column with one value per path."""
    cols = [(f"S_{t}", "s", t) for t in range(horizon + 1)]
    cols += [(f"bid_{t}", "bid", t) for t in range(1, horizon)]
    cols += [(f"ask_{t}", "ask", t) for t in range(1, horizon)]
    cols += [(f"theta_{t}", "theta", t) for t in range(horizon)]
    cols += [(f"V_{t}", "v", t) for t in range(horizon + 1)]
    return cols + [("eps_r", "eps", None)]


def path_dump_header(horizon: int) -> str:
    return ",".join(["path_id"] + [name for name, _, _ in _dump_columns(horizon)])


def write_path_dump(fh, raw: dict, horizon: int, first_id: int = 0):
    """Write one comma-separated record per path, header row first.

    ``path_id`` is an integer and every other column is ``"%.17g" % v``,
    which round-trips every float64.  Rows are read straight from the
    ``raw`` columns in chunks of DUMP_ROWS, with no copy of the whole
    table, and each chunk is written as one string.  ``raw`` may be one
    batch of a longer run: its paths get ids from ``first_id`` on, and the
    header is written only for the batch that starts at 0.
    """
    # Imported here so that runs which never dump skip building its tables.
    from .floatfmt import CELL, g17_cells

    cols = [
        raw[key] if t is None else raw[key][t] for _, key, t in _dump_columns(horizon)
    ]
    n, width = raw["eps"].size, 1 + len(cols)
    if first_id == 0:
        fh.write(path_dump_header(horizon) + "\n")
    block = np.empty((min(n, DUMP_ROWS), width))
    for lo in range(0, n, DUMP_ROWS):
        rows = block[: min(DUMP_ROWS, n - lo)]
        hi = lo + len(rows)
        # Path ids are integers below 2^53, which "%.17g" prints as "%d".
        rows[:, 0] = np.arange(first_id + lo, first_id + hi)
        for j, col in enumerate(cols, 1):
            rows[:, j] = col[lo:hi]
        cells = g17_cells(rows).reshape(len(rows), width, CELL)
        cells[:, :, -1] = ord(",")
        cells[:, -1, -1] = ord("\n")
        fh.write(cells[cells != 0].tobytes().decode("ascii"))
