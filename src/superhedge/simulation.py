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
own seed spawned from the root, so batches can be computed in any order and
in any process; each is reduced to a summary of its series, and summaries
are merged in batch order (Chan et al. moment merging), which keeps the
bytes.  `simulate_pooled` runs the batches of stats-only runs in worker
processes this way.  Path-dependent claims run in chunks that share one
generator, so their chunks must be drawn in order.

Each run holds one workspace (`_workspace`), sized for its largest batch
and reused by every batch.  A batch runs tile by tile, TILE lanes or fewer
at a time: each tile runs steps 0..T on its lanes, drawing each step's
(m, M, k) from where they lie in the batch's stream (see
`_simulate_batch`), and then goes to the sink, if any.  So the draws, the
chain's temporaries and every entry that only the sink reads stay
tile-sized; only the rows the statistics read span the batch, which is
aggregated after its last tile.  Every operation is elementwise, so tiling
leaves every float unchanged.
"""

from __future__ import annotations

import math
import os
import sys
from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .pricing import MarketModel, PricingResult, StepSpec, _corner_values, _require_horizon
from .pricing import _tree_value, require_aip, require_convex, require_tree_depth
from .pwl import PwlFunction, _check_array, _scaled_pieces, piece_index

BATCH_SIZE = 1 << 17
TILE = 1 << 15  # lanes each tile runs steps 0..T on at a time
_PATH_TILE = 1 << 13  # the most lanes per tile when every entry keeps a tile row
DUMP_CELLS = 12 << 10  # path-dump cells formatted and written at a time
_PATH_KEYS = ("s", "bid", "ask", "theta", "v")
ROOT_WIDTH_TOL = 1e-12
_SSTAR_BRACKET = 1e9  # a path-dependent S* is sought in s_prev * [1e-9, 1e9]


def require_float64(model: MarketModel, claims, n_paths: int = 1, name=None):
    """Refuse (ValueError) a run of ``claims`` that could overflow float64.

    PWL claims run in batches of BATCH_SIZE, callables on paths in chunks of
    FUNCTIONAL_CHUNK; ``name`` names them.  A batch sums prices up to top =
    s_init prod(k_up) over ``model.steps``, claim values up to value, V_0/S_0
    and eps_R, and the statistics square eps_R's deviations over n_paths.
    Each gain theta_t (S_t+1 - S_t), a chord's rise in its support, is at
    most 2 value: eps_R and V_0/S_0 reach 2 (T + 1) value / s_init prod(k_down).
    """
    european = all(isinstance(f, PwlFunction) for f in claims)
    name = name or ("piecewise-linear" if european else "path-dependent")
    if not 1 <= n_paths < 2**63:  # numpy counts paths in int64
        raise ValueError("n_paths must be at least 1 and below 2^63")
    T, s_init = model.horizon, float(model.s_init)
    lanes = min(BATCH_SIZE if european else FUNCTIONAL_CHUNK, n_paths)
    top = math.prod((step.k_up for step in model.steps), start=s_init)
    bottom = math.prod((step.k_down for step in model.steps), start=s_init)
    if not math.isfinite(top * lanes):
        raise ValueError(
            f"s_prev = {s_init!r} over horizon {T} overflows float64: prices reach "
            f"s_prev * k_up^{T + 1} = {top!r}, and a batch sums {lanes} of them"
        )
    if european:
        # The exact numbers a run makes floats: g_t's breakpoints reach the
        # claim's over k_down at each later step with k_up > 1, and a crossing
        # table's cuts g_t's over k_down, which adds a factor only where
        # k_up <= 1; g_t's slopes and intercepts lie between the claim's end
        # pieces', and a crossing table's k_up s - k_down s' and c - c' within
        # (k_up + k_down) |s| and |c_0| + |c_n|.
        steps = Counter(model.steps[1:])  # each distinct step, with its count
        shrink = math.prod(st.exact[0] ** n for st, n in steps.items() if st.k_up > 1)
        shrink *= min((st.exact[0] for st in steps if st.k_up <= 1), default=1)
        spread = max(st.exact[0] + st.exact[1] for st in steps)
        for f in claims:
            require_convex(f)  # as the bounds above assume
            b, s = f.breakpoints[-1], (f.left_slope, f.right_slope)
            c = abs(f.eval_exact(0)) + abs(f.values[-1] - s[1] * b)
            reach = max(b / shrink, spread * max(map(abs, s)), c)
            if reach >= 2**1024 - 2**970:  # rounds past the largest float
                digits = math.log10(reach.numerator) - math.log10(reach.denominator)
                raise ValueError(
                    f"the {name} claim overflows float64 in pricing over horizon "
                    f"{T}: its value functions reach 10^{digits:.1f}"
                )
        value = max(abs(v) for f in claims for v in _corner_values(f, 0.0, top))
    else:
        ends = [(s_init, s_init)] + [(step.k_up, step.k_down) for step in model.steps]
        with np.errstate(all="ignore"):  # the all-k_up and all-k_down paths, as lanes
            paths = tuple(np.cumprod(ends, axis=0)[1:])
        # Each interior step's S* solve sums paths up to _SSTAR_BRACKET times its top
        reach = (_SSTAR_BRACKET + 1) * sum(float(prices[0]) for prices in paths[:-1])
        if T > 1 and not math.isfinite(reach):
            raise ValueError(
                f"s_prev = {s_init!r} over horizon {T} overflows float64 "
                f"in the {name} S* solve: its path sums reach {reach!r}"
            )
        # A callable's |value|: top (an asian call's bound) or on the two paths
        with np.errstate(all="ignore"):
            value = float(max(top, *(abs(_payoff_values(f, paths)).max() for f in claims)))
    eps = 2 * (T + 1) * value / bottom if bottom else math.inf
    if not math.isfinite(value * lanes + eps * eps * n_paths * n_paths):
        raise ValueError(
            f"the {name} claim overflows float64: its values reach {value!r} "
            f"on prices from {bottom!r} to {top!r}, a batch sums {lanes} of them, "
            f"and eps_R, up to {eps!r}, is squared over n_paths = {n_paths}"
        )


# ---------------------------------------------------------------------- #
# elementary draws and executions
# ---------------------------------------------------------------------- #


def draw_step(
    step: StepSpec,
    rng: np.random.Generator,
    size: int = 1,
    out=None,
    stride: Optional[int] = None,
):
    """Draw (m, M, k): interval edges m, M = m + spread, and mid position k.

    m ~ U[m_lo, m_hi], spread ~ U[spr_lo, spr_hi] independent, k ~ U[0, 1].
    The draws fill ``out``, three contiguous float rows of one length, or
    three new rows of ``size`` floats, and the rows are returned.  A row of
    U[a, b] is ``rng.random(out=row)`` mapped by ``*= b - a; += a``: the
    stream and the bits of ``rng.uniform(a, b, len(row))``.  A bid/ask step
    ignores k, so its caller may pass None as the k row of ``out``: the
    stream then skips the row's draws without making them, and the stream
    layout stays the same for every protocol.

    Row i is read from ``i * stride`` doubles past where the stream stands
    (by default ``stride`` is the row length, so the rows are consecutive),
    and the stream is left ``3 * stride`` past its start: PCG64's jump-ahead
    skips whatever the rows do not read.
    """
    if not step.has_distribution:
        raise ValueError("step has no draw distribution attached")
    m, M, k = np.empty((3, size)) if out is None else out
    stride = len(m) if stride is None else stride
    bounds = ((step.m_lo, step.m_hi), (step.spr_lo, step.spr_hi), (0, 1))
    for row, (a, b) in zip((m, M, k), bounds):
        if row is not None:
            a, b = float(a), float(b)  # as uniform reads them, before b - a
            rng.random(out=row)
            row *= b - a
            row += a
        if skip := stride - (0 if row is None else len(row)):
            rng.bit_generator.advance(skip)
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
        # t_vals with a NaN past its end, which equals no held position, and
        # each entry's "right" index: where th == t_ext[jl], searchsorted's
        # "right" index is t_ends[jl], else jl.
        self.t_ext = np.append(self.t_vals, np.nan)
        self.t_ends = np.searchsorted(self.t_vals, self.t_vals, side="right")
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

        all_buy = th < self.theta_lo
        all_sell = th > self.theta_hi
        # 1 where the order buys throughout, -1 where it sells, else 0
        sign = (all_buy.view(np.int8) - all_sell.view(np.int8)).astype(float)
        root = ~(all_buy | all_sell)
        if root.all():
            return self._zero_set_point(th), sign
        out = np.full(n, np.nan)
        if root.any():
            out[root] = self._zero_set_point(th[root])
        return out, sign

    def _piece_root(self, j: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """The zero of theta - held on piece j, clipped to the piece."""
        z = theta * self.c
        z -= self.b[j]
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(self.a[j], z, out=z)
        # np.clip(z, lo, hi), which numpy defines as this pair, in two
        # passes that cost less than its one
        np.maximum(z, self.cut_lo[j], out=z)
        return np.minimum(z, self.cut_hi[j], out=z)

    def _zero_set_point(self, th: np.ndarray) -> np.ndarray:
        """S* on lanes where the order changes sign (neither all-buy nor all-sell)."""
        jl = piece_index(self.t_vals, th, side="left")
        # Zero-set endpoints; +/- sentinels mark plateaus reaching 0 / infinity.
        # The left end solves piece max(jl, 1) and the right end piece
        # max(jr, 1), jr the "right" index: the same piece unless th equals
        # t_vals[jl] and jr > max(jl, 1).
        jl1 = np.maximum(jl, 1)
        z = self._piece_root(jl1, th)
        z_left = np.where(jl == 0, 0.0, z)
        split = np.flatnonzero(self.t_ext[jl] == th)
        if split.size:
            jr = self.t_ends[jl[split]]
            later = jr != jl1[split]
            split, jr = split[later], jr[later]
            z[split] = self._piece_root(jr, th[split])
        # jr == m, past the last entry, iff th >= t_vals[-1]
        at_top = (th == self.theta_hi) & (th >= self.t_vals[-1])
        if at_top.any():
            z = np.where(at_top, np.inf, z)
        return _sstar_from_ends(z_left, z)


def _sstar_from_ends(z_left, z_right):
    """The reported point of the zero set [z_left, z_right]: the finite end
    when it reaches 0 (z_left == 0) or infinity, else the midpoint."""
    inner = 0.5 * (z_left + z_right)
    right_inf = np.isinf(z_right)
    if right_inf.any():
        inner = np.where(right_inf, z_left, inner)
    return np.where(z_left == 0.0, z_right, inner)


def _region(bid, ask, sstar):
    """Where S* lies against the quotes, as an int8 index nondecreasing in
    S*: 0 at or below the bid, 1 inside and closer to the bid (ties
    included), 2 inside and closer to the ask, 3 at or above the ask (tested
    first).  The index is monotone because rounded differences are.  It is
    formed from the three comparisons with no branch per lane: 2 - closer,
    zeroed at or below the bid, or-ed with 3 at or above the ask."""
    closer_bid = np.abs(sstar - bid) <= np.abs(sstar - ask)
    region = np.subtract(2, closer_bid, dtype=np.int8)
    region *= ~(sstar <= bid)  # not sstar > bid: a NaN S* stays inside
    region |= (ask <= sstar) * np.int8(3)
    return region


def _select(cond: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.where(cond, a, b)`` for float64 arrays a and b, bit for bit, as
    a blend of their uint64 views.  np.where branches on every lane, which
    costs a misprediction wherever the mask changes from lane to lane; the
    blend costs the same on any mask."""
    a, b = a.view(np.uint64), b.view(np.uint64)
    mask = cond.astype(np.uint64)
    np.negative(mask, out=mask)  # all ones where cond, else zero
    mask &= a ^ b
    mask ^= b
    return mask.view(np.float64)


def _execute_vec(bid, ask, sstar, sign, straddle_to_ask=True):
    """The executed quote, by S*'s ``_region``: the ask in region 0 and the
    bid in region 3; inside, ``straddle_to_ask`` executes the ask when the
    bid is closer (so regions 2 and 3 execute the bid), and False the
    reverse (regions 1 and 3).  Where S* is NaN the sign decides: <= 0 bid,
    > 0 ask.  The quote is picked with `_select`, no branch per lane."""
    region = _region(bid, ask, sstar)
    to_bid = region >= 2 if straddle_to_ask else region % 2 == 1
    no_root = np.isnan(sstar)
    to_bid &= ~no_root
    to_bid |= no_root & (sign <= 0.0)
    return _select(to_bid, bid, ask)


# ---------------------------------------------------------------------- #
# path generation
# ---------------------------------------------------------------------- #


# The draw row (m, M, k) that each entry read only in its own step and tile,
# bid_t and ask_t (by the S* solve and the execution) and V_T (by eps),
# overwrites in a compact workspace: bid_t = s m and ask_t = s M are formed
# from the last read of their draws, and V_T after k has set S_T.
_OVER_DRAW = {"bid": 0, "ask": 1, "v": 2}


def _workspace(
    horizon: int, size: int, draw_shape: Optional[tuple] = None, compact: bool = False
) -> dict:
    """Rows for up to ``size`` paths, reused by every batch of a run.

    The entries _Aggregator reads, S_0..S_2, V_0..V_1 and theta_0..theta_1
    (never V_T), and eps are batch rows of ``size`` lanes, one block with
    eps last: 8 rows at T >= 2 and 5 at T = 1.  Every other entry is read
    only while its tile runs, so it lives in a tile row, which holds one
    tile at a time from lane 0.  The full layout gives each such entry a
    tile row of its own and tiles of at most _PATH_TILE lanes.  The compact
    one tiles TILE lanes, puts bid_t, ask_t and V_T in the draw rows
    (_OVER_DRAW), and each later s, theta and v entry in one of two tile
    rows per series in turn (a step reads only its own entry and the
    previous one): at most 6 tile rows besides the draws at any horizon.  A
    European run takes the full layout only for a sink that reads whole
    paths; the path-dependent engine always takes it.

    Each key of _PATH_KEYS maps to one row per entry (entries that share a
    row share its array), and ``held`` maps it to whether each entry still
    holds its values once its tile has run.  ``eps`` is its batch row,
    ``draw`` the draw block, by default the three tile rows (m, M, k), else
    a block of ``draw_shape``, and ``tiles`` the block of the other tile
    rows.
    """
    T = horizon
    width = min(TILE, size) if compact else min(TILE, _PATH_TILE, size)
    wide = dict(s=min(3, T + 1), theta=min(2, T), v=min(2, T))

    def place(key: str, j: int) -> tuple:
        w = wide.get(key, 0)
        if j < w:
            return "batch", key, j
        if compact and (key in ("bid", "ask") or (key, j) == ("v", T)):
            return "draw", _OVER_DRAW[key]
        return "tile", key, w + (j - w) % 2 if compact else j

    sizes = dict(s=T + 1, bid=T - 1, ask=T - 1, theta=T, v=T + 1)
    rows = {key: [place(key, j) for j in range(n)] for key, n in sizes.items()}
    labels = list(dict.fromkeys(lab for idx in rows.values() for lab in idx))
    batch = [lab for lab in labels if lab[0] == "batch"]
    tile = [lab for lab in labels if lab[0] == "tile"]
    block, tiles = np.empty((len(batch) + 1, size)), np.empty((len(tile), width))
    draw = np.empty(draw_shape or (3, width))
    arrays = dict(zip(batch, block)) | dict(zip(tile, tiles))
    ws = {
        key: tuple(draw[lab[1]] if lab[0] == "draw" else arrays[lab] for lab in idx)
        for key, idx in rows.items()
    }
    last = {key: {lab: j for j, lab in enumerate(idx)} for key, idx in rows.items()}
    held = {
        key: tuple(lab[0] != "draw" and last[key][lab] == j for j, lab in enumerate(idx))
        for key, idx in rows.items()
    }
    return dict(ws, held=held, eps=block[-1], draw=draw, tiles=tiles)


def _columns(rows: dict, eps: np.ndarray) -> dict:
    """The path columns of ``rows`` (a list of rows or None per key of
    _PATH_KEYS) and ``eps``, with None for the mid steps' bid/ask."""
    for key in ("bid", "ask"):
        rows[key] = [None, *rows[key], None]
    return dict(rows, eps=eps)


def _protocol(
    model: MarketModel, n: int, draws, claim, straddle_to_ask: bool, ws, sink=None
):
    """The execution protocol over the first n lanes of workspace ``ws``, one
    tile at a time; returns the batch columns, views into ``ws``.

    Each tile, the lanes [lo, hi) of at most the width of ``ws``'s tile
    rows, runs steps 0..T and then, finished, goes to ``sink``, if given:
    tiles come in lane order, as columns of hi - lo lanes that are views
    into ``ws``, valid only during the call, with None for each entry that
    a later step overwrote.  The batch columns hold the batch rows (the
    entries the statistics read) over all n lanes, and None for every
    entry that lives in tile rows.

    ``draws(t, lo, hi)`` returns step t's (m, M, k) over lanes [lo, hi);
    bid/ask steps may get None for k, which they do not read.  ``claim``
    holds four maps of the executed prefix (s_0, ..., s_t):
    ``value(prefix, t)``, ``theta(prefix, t)``, ``sstar(prefix, t, held,
    s_prev, bid, ask)``, the order's (sstar, sign) at interior step t
    before its execution, and ``payoff(prefix)``.  The S* map gets the
    step's quotes so that it may stop solving once it knows which quote
    executes: any S* in the same ``_region`` as the exact one executes the
    same quote.  Every map must act on each lane alone.  In a compact
    workspace the prefix entries past s_2, but for the last two, share rows
    with later steps, so only claims that read prefix[-1] run there.  Mid
    steps quote no bid/ask: their entries are None.
    """
    value, theta, sstar, payoff = claim
    T = model.horizon
    wide, width = ws["eps"].base, ws["tiles"].shape[1]
    for lo in range(0, n, width):
        hi = min(lo + width, n)
        s, bid, ask, th, v = (
            [row[lo:hi] if row.base is wide else row[: hi - lo] for row in ws[key]]
            for key in _PATH_KEYS
        )
        eps = ws["eps"][lo:hi]
        for t in range(T + 1):
            m, M, k = draws(t, lo, hi)
            # MarketModel checked s_init; a scalar times each lane gives the
            # products of a full row of it.
            s_prev = float(model.s_init) if t == 0 else s[t - 1]
            if t == 0 or t == T:
                s[t][:] = mid_execute(s_prev, m, M, k)
            else:
                bid_t = np.multiply(s_prev, m, out=bid[t - 1])
                ask_t = np.multiply(s_prev, M, out=ask[t - 1])
                _check_quotes(bid_t, ask_t)
                # one expression, so that the order's (S*, sign) pair is freed
                # with its step: a name would hold it through the whole tile
                s[t][:] = _execute_vec(
                    bid_t,
                    ask_t,
                    *sstar(tuple(s[:t]), t, th[t - 1], s_prev, bid_t, ask_t),
                    straddle_to_ask,
                )
            prefix = tuple(s[: t + 1])
            if t == 0:
                v[0][:] = value(prefix, 0)
            else:
                gain = th[t - 1] * (prefix[-1] - s_prev)
                v_t = np.add(v[t - 1], gain, out=v[t])
            if t < T:
                th[t][:] = theta(prefix, t)
            else:
                np.divide(v_t - payoff(prefix), prefix[-1], out=eps)
        if sink is not None:
            rows = {
                key: [r if h else None for r, h in zip(c, ws["held"][key])]
                for key, c in zip(_PATH_KEYS, (s, bid, ask, th, v))
            }
            sink(_columns(rows, eps))
    batch = {
        key: [row[:n] if row.base is wide else None for row in ws[key]]
        for key in _PATH_KEYS
    }
    return _columns(batch, ws["eps"][:n])


def _simulate_batch(
    model: MarketModel,
    pricing: PricingResult,
    n: int,
    rng: np.random.Generator,
    crossings: dict,
    straddle_to_ask: bool,
    ws: dict,
    sink: Optional[Callable[[dict], None]] = None,
):
    """Vectorised protocol over n paths of a PWL claim; each finished tile
    goes to ``sink`` (see `_protocol`).  Returns the batch columns, views
    into the workspace ``ws``.

    Step t's draws are the 3n doubles of the batch's stream from offset
    3nt, one row of n each for m, spread and k, so row i of the tile
    [lo, hi) starts 3nt + i n + lo doubles past the batch's start.  Each
    tile-step seeks there from the batch's start state by PCG64's
    jump-ahead, so the draws do not depend on the order tiles and steps run.
    """
    claim = (
        lambda prefix, t: pricing.value_fns[0](prefix[-1]),
        lambda prefix, t: pricing.strategy(t, model)(prefix[-1]),
        lambda prefix, t, held, s_prev, bid, ask: crossings[t].sstar(held),
        lambda prefix: pricing.payoff(prefix[-1]),
    )
    T = model.horizon
    start = rng.bit_generator.state

    def draws(t, lo, hi):
        rng.bit_generator.state = start
        rng.bit_generator.advance(3 * n * t + lo)
        m, M, k = (row[: hi - lo] for row in ws["draw"])
        rows = (m, M, k if t in (0, T) else None)  # bid/ask steps skip their k draws
        return draw_step(model.steps[t], rng, out=rows, stride=n)

    return _protocol(model, n, draws, claim, straddle_to_ask, ws, sink)


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


# The rows of the result table after K, in output order: (label, series,
# statistic).  A series is one per-path quantity that `_Aggregator.add`
# folds; "mean/s_prev" is the series' mean over s_prev, not a mean of ratios.
ROWS = (
    ("E(S0)", "s0", "mean"),
    ("E(S1)", "s1", "mean"),
    ("E(S2)", "s2", "mean"),
    ("E(V0)", "v0", "mean"),
    ("max V0", "v0", "max"),
    ("E(V0/S-1)", "v0", "mean/s_prev"),
    ("E(V0/S0)", "v0/s0", "mean"),
    ("min(V0/S0)", "v0/s0", "min"),
    ("max(V0/S0)", "v0/s0", "max"),
    ("E(eps_R)", "eps", "mean"),
    ("sigma(eps_R)", "eps", "std"),
    ("min eps_R", "eps", "min"),
    ("max eps_R", "eps", "max"),
    ("E(theta0*S0/V0)", "th0", "mean"),
    ("E(theta1*S1/V1)", "th1", "mean"),
)


@dataclass(frozen=True)
class SimStats:
    """Aggregate per-strike statistics (the columns of the result table).

    ``values`` maps each label of ROWS to its row, read as ``stats[label]``.
    The position-fraction means E(theta_t S_t / V_t) run over paths with
    V_t != 0; on paths where the portfolio is worth exactly zero the holding
    is zero too and the fraction is undefined.
    """

    strike: float
    n_paths: int
    values: dict[str, float]

    ROW_LABELS = ("K", *(label for label, _, _ in ROWS))

    def __getitem__(self, label: str) -> float:
        return self.values[label]

    def row_values(self) -> tuple[float, ...]:
        return (self.strike, *(self.values[label] for label, _, _ in ROWS))


def _theta_frac(theta: np.ndarray, s: np.ndarray, v: np.ndarray) -> np.ndarray:
    """theta * s / v on the paths with v != 0."""
    nonzero = v != 0.0
    if nonzero.all():  # the same values in the same order, without gathers
        out = theta * s
        return np.divide(out, v, out=out)
    return (theta[nonzero] * s[nonzero]) / v[nonzero]


# The statistics that ROWS reads of each series, by series in ROWS order.
_READS = {key: {how for _, k, how in ROWS if k == key} for _, key, _ in ROWS}


class _Aggregator:
    """Fold batches of path columns into SimStats.

    `summary` reduces one batch to (size, mean, M2, min, max) per series of
    ROWS, and `merge` folds summaries in batch order into one
    RunningMoments per series and its running min and max; `add` is the
    two in turn.  Only a series with a "std" row keeps an M2, and only one
    with a "min" or "max" row its min or max (None in a summary).  A series
    that saw no path (S2 and theta1 at T=1, a theta fraction where every V_t
    is 0) has a NaN mean.
    """

    def __init__(self, s_prev: float):
        self.s_prev = s_prev
        self.moments = {
            key: RunningMoments(m2=0.0 if "std" in how else None)
            for key, how in _READS.items()
        }
        self.lo = {key: math.inf for key, how in _READS.items() if "min" in how}
        self.hi = {key: -math.inf for key, how in _READS.items() if "max" in how}

    def add(self, cols: dict):
        """Fold one batch: merge its summary."""
        self.merge(self.summary(cols))

    @staticmethod
    def summary(cols: dict) -> dict:
        """One batch's (size, mean, M2, min, max) of each series, floats; a
        pure function of the columns, so any process may form it.  Each
        derived series is reduced, and freed, before the next is formed."""
        s, v, theta = cols["s"], cols["v"], cols["theta"]
        out = {}

        def reduce(key: str, x: np.ndarray):
            how = _READS[key]
            m = RunningMoments(m2=0.0 if "std" in how else None)
            m.add_batch(x)
            lo = float(np.min(x)) if "min" in how else None
            hi = float(np.max(x)) if "max" in how else None
            out[key] = (m.count, m.mean, m.m2, lo, hi)

        reduce("s0", s[0])
        reduce("s1", s[1])
        reduce("v0", v[0])
        reduce("v0/s0", v[0] / s[0])
        reduce("eps", cols["eps"])
        reduce("th0", _theta_frac(theta[0], s[0], v[0]))
        if len(s) > 2:
            reduce("s2", s[2])
            reduce("th1", _theta_frac(theta[1], s[1], v[1]))
        return out

    def merge(self, summary: dict):
        """Fold one batch's summary, after those of the batches before it."""
        for key, (n, mean, m2, lo, hi) in summary.items():
            if n:
                self.moments[key].merge(n, mean, m2)
            if key in self.lo:
                self.lo[key] = min(self.lo[key], lo)
            if key in self.hi:
                self.hi[key] = max(self.hi[key], hi)

    def result(self, strike: float) -> SimStats:
        m, s_prev = self.moments, self.s_prev
        stat = dict(mean=lambda key: m[key].mean, min=self.lo.get, max=self.hi.get)
        stat["std"] = lambda key: math.sqrt(m[key].variance)
        stat["mean/s_prev"] = lambda key: m[key].mean / s_prev
        values = {label: stat[how](series) for label, series, how in ROWS}
        return SimStats(strike, m["s0"].count, values)


def _require_run(model: MarketModel, claim, n_paths: int):
    """Refuse, before any draw, a run that `require_float64` or
    `require_aip` refuses."""
    require_float64(model, [claim], n_paths)
    require_aip(model)


def _fold(model: MarketModel, label: float, claim, n_paths: int, batches):
    """Check the run, then fold each batch of path columns into SimStats.

    ``batches`` is a generator, so none of its set-up runs before the checks;
    each batch's tiles have gone to the run's sink, if any, while it ran.
    Returns (SimStats, None): the pair is kept for the
    ``simulation.collect`` hook of ``perfbench/tracer.py`` until ROADMAP
    item 11 replaces those hooks.
    """
    _require_run(model, claim, n_paths)
    agg = _Aggregator(model.s_init)
    for cols in batches:
        agg.add(cols)
    return agg.result(label), None


def simulate_one(
    model: MarketModel,
    pricing: PricingResult,
    strike: float,
    n_paths: int,
    seed_seq: np.random.SeedSequence,
    straddle_to_ask: bool = True,
    sink: Optional[Callable[[dict], None]] = None,
    whole_paths: bool = True,
):
    """Simulate one strike; returns (SimStats, None).

    Paths are generated in batches of BATCH_SIZE (read when called), each
    seeded by a child spawned from ``seed_seq`` as it starts (the children
    of one ``spawn(k)``, in order); the batch layout depends only on
    n_paths, so a given seed gives bit-identical results.  Every batch runs
    in one workspace (see `_workspace`), tile by tile.  ``sink``, if given,
    gets each finished tile's columns, tile after tile in path order, while
    its batch runs; they are views into the workspace, valid only during
    the call, so a sink that keeps them copies them.  A caller that writes
    them out holds one batch of the statistics' rows and one tile of the
    others, whatever n_paths.  A sink that reads only S_0..S_2, V_0, V_1,
    theta_0, theta_1 and eps passes ``whole_paths=False``; its columns then
    hold None for the entries a later step overwrote.  Single-path and sink
    columns share one format: in both engines the mid-step bid/ask entries
    are None.  A pricing of another horizon than the model's, and a run
    that `require_float64` refuses, are refused before any draw.
    """
    _require_horizon(pricing, model)

    def batches():
        crossings = _build_crossings(model, pricing)
        compact = sink is None or not whole_paths
        ws = _workspace(model.horizon, min(BATCH_SIZE, n_paths), compact=compact)
        for nb, rng in _batches(n_paths, seed_seq):
            yield _simulate_batch(
                model, pricing, nb, rng, crossings, straddle_to_ask, ws, sink
            )

    return _fold(model, strike, pricing.payoff, n_paths, batches())


def _batches(n_paths: int, seed_seq: np.random.SeedSequence):
    """(paths, generator) of each batch of a European run, in order:
    BATCH_SIZE paths (read when called) but the last, each drawn from a
    child spawned from ``seed_seq`` as it starts, so the children of one
    ``spawn(k)``."""
    for done in range(0, n_paths, BATCH_SIZE):
        seed = seed_seq.spawn(1)[0]
        yield min(BATCH_SIZE, n_paths - done), np.random.Generator(np.random.PCG64(seed))


def pool_size(strikes: int, n_paths: int) -> int:
    """How many forked worker processes `simulate_pooled` should run a
    stats-only run of n_paths per strike on; 1: simulate it in this process.

    A run is pooled from 4 BATCH_SIZE paths over all its strikes, where
    starting and joining a pool (~25 ms) costs less than it saves, with one
    worker per CPU of the process's affinity mask and no more than its
    (strike, batch) units.  It needs the "fork" start method, by which the
    workers inherit the run's pricing instead of unpickling it, and Python
    below 3.12, whose fork warns in a process that runs threads (numpy's
    BLAS starts some at import).
    """
    if strikes * n_paths < 4 * BATCH_SIZE or sys.version_info >= (3, 12):
        return 1
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    workers = min(cpus, strikes * -(-n_paths // BATCH_SIZE))
    if workers < 2:
        return 1
    import multiprocessing

    return workers if "fork" in multiprocessing.get_all_start_methods() else 1


# A pool worker's run, which `_start_worker` keeps in each worker process:
# the model, (pricing, crossing tables) per strike, straddle_to_ask, and the
# worker's compact workspace.
_worker_run: list = []


def _start_worker(model: MarketModel, strikes: list, straddle_to_ask: bool, lanes: int):
    """Pool initializer: keep the run, which the worker inherited at its
    fork, with a compact workspace of ``lanes``.  An interrupt is the
    parent's to handle: it cancels the pool's pending units.  A worker
    whose parent is gone, killed before it could join the pool, exits."""
    import signal
    import threading

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    threading.Thread(target=_exit_with_parent, args=(os.getppid(),), daemon=True).start()
    ws = _workspace(model.horizon, lanes, compact=True)
    _worker_run[:] = [model, strikes, straddle_to_ask, ws]


def _exit_with_parent(parent: int):
    """Exit this process once its parent is no longer ``parent``: an
    orphaned worker would otherwise wait for units forever."""
    import time

    while os.getppid() == parent:
        time.sleep(0.1)
    os._exit(1)


def _batch_summary(j: int, n: int, rng: np.random.Generator) -> dict:
    """One unit of `simulate_pooled`, run in a pool worker: the summary of
    a stats-only batch of strike j, n paths drawn from ``rng``."""
    model, strikes, straddle_to_ask, ws = _worker_run
    pricing, crossings = strikes[j]
    cols = _simulate_batch(model, pricing, n, rng, crossings, straddle_to_ask, ws)
    return _Aggregator.summary(cols)


def simulate_pooled(
    model: MarketModel,
    strikes: list,
    n_paths: int,
    straddle_to_ask: bool,
    workers: int,
) -> list[SimStats]:
    """simulate_one's SimStats, stats only, for each (strike, pricing,
    seed_seq) of ``strikes``, from a pool of ``workers`` forked processes
    (see `pool_size`).

    The parent runs simulate_one's checks and builds every strike's
    crossing tables; the workers, forked after, inherit them unpickled,
    and each holds one compact workspace.  Each (strike, batch) unit, the
    batch simulate_one would draw from the same generator, runs in a
    worker and comes back as its `_Aggregator.summary`, and the parent
    merges the summaries in (strike, batch) order.  So the statistics are
    simulate_one's, bit for bit, at any worker count.  At most 2 × ``workers``
    units are in flight.  The pool is joined, its pending units cancelled,
    before this returns or raises: an exception raised in a worker is
    raised here, and a worker that dies raises ChildProcessError.
    """
    import multiprocessing
    from collections import deque
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    for _, pricing, _ in strikes:
        _require_horizon(pricing, model)
        _require_run(model, pricing.payoff, n_paths)
    jobs = [(pricing, _build_crossings(model, pricing)) for _, pricing, _ in strikes]
    aggs = [_Aggregator(model.s_init) for _ in strikes]
    pool = ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_start_worker,
        initargs=(model, jobs, straddle_to_ask, min(BATCH_SIZE, n_paths)),
    )
    try:
        flight = deque()
        for j, (_, _, seed_seq) in enumerate(strikes):
            for n, rng in _batches(n_paths, seed_seq):
                flight.append((j, pool.submit(_batch_summary, j, n, rng)))
                if len(flight) == 2 * workers:
                    j_done, summary = flight.popleft()
                    aggs[j_done].merge(summary.result())
        for j, summary in flight:
            aggs[j].merge(summary.result())
    except BrokenProcessPool:
        raise ChildProcessError(
            "a worker process died (killed, or out of memory?); "
            "under `taskset -c 0` the run simulates in one process"
        ) from None
    finally:
        pool.shutdown(cancel_futures=True)
    return [agg.result(strike) for agg, (strike, _, _) in zip(aggs, strikes)]


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
    is constant on [lo, hi] = [1 / B, B] * s_prev, B = _SSTAR_BRACKET.  The
    left end of the zero set (first z with delta >= 0) and the right end
    (first z with delta > 0) are bisected, one lane each.  A lane stops once
    its bracket is narrower than ROOT_WIDTH_TOL relative to its midpoint, or
    once its path is decided: S* formed from its lanes' low ends lies in the
    same ``_region`` as S* formed from their high ends.  Each lane's last
    midpoint lies in all of its brackets, and the S* formula and the region
    are nondecreasing in it, so a decided path executes the quote of the
    full bisection under either straddle convention; only the S* it reports
    differs.  Paths whose brackets could overflow or reach 0 are never
    decided early.

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

    lo, hi = (1 / _SSTAR_BRACKET) * s_prev, _SSTAR_BRACKET * s_prev
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
    model: MarketModel, payoff, n: int, rng, straddle_to_ask=True, ws=None, sink=None
):
    """Protocol for a path-dependent claim over n paths; each finished tile
    goes to ``sink`` (see `_protocol`).  Returns the batch columns, views
    into ``ws`` (a workspace of its own when None).

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

    def draws(t, a, b):
        m = u[a:b, t, 0]
        return m, m + u[a:b, t, 1], u[a:b, t, 2]

    leaf = partial(_payoff_values, payoff)
    claim = (
        partial(_tree_value, leaf, model),
        partial(_tree_theta, leaf, model),
        partial(_functional_sstar, leaf, model),
        leaf,
    )
    return _protocol(model, n, draws, claim, straddle_to_ask, ws, sink)


def run_path_functional(
    model: MarketModel,
    payoff: Callable[[tuple[np.ndarray, ...]], np.ndarray],
    rng: np.random.Generator,
    straddle_to_ask: bool = True,
) -> dict:
    """One path of the path-dependent protocol (holdings from tree walks).

    The n=1 case of the engine behind simulate_functional, under the same
    payoff contract; successive calls on one generator give the paths of one
    simulate_functional batch bit for bit.  Returns the path as the
    columns a sink gets, each of one lane.
    """
    require_tree_depth(model.horizon)
    require_aip(model)
    tiles = []
    _functional_batch(model, payoff, 1, rng, straddle_to_ask, sink=tiles.append)
    (path,) = tiles
    return path


def simulate_functional(
    model: MarketModel,
    payoff: Callable[[tuple[np.ndarray, ...]], np.ndarray],
    strike_label: float,
    n_paths: int,
    seed_seq: np.random.SeedSequence,
    straddle_to_ask: bool = True,
    sink: Optional[Callable[[dict], None]] = None,
):
    """Path-dependent analogue of simulate_one; returns (SimStats, None).

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
    one batch; ``sink`` gets each finished tile's columns as in
    simulate_one, views into the workspace valid only during the call.  A horizon above
    TREE_DEPTH_CAP (2^horizon tree leaves per path) is refused before any draw.
    """
    require_tree_depth(model.horizon)

    def batches():
        rng = np.random.Generator(np.random.PCG64(seed_seq))
        size = min(FUNCTIONAL_CHUNK, n_paths)
        ws = _workspace(model.horizon, size, (size, model.horizon + 1, 3))
        for done in range(0, n_paths, FUNCTIONAL_CHUNK):
            nb = min(FUNCTIONAL_CHUNK, n_paths - done)
            yield _functional_batch(model, payoff, nb, rng, straddle_to_ask, ws, sink)

    return _fold(model, strike_label, payoff, n_paths, batches())


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
    """Write one comma-separated record per path, header row first, as
    ASCII bytes to the binary file ``fh``.

    ``path_id`` is ``"%d"`` of an integer below 2^63, formatted on integers
    alone, and every other column is ``"%.17g" % v``, which round-trips
    every float64.  Rows are read straight from the ``raw`` columns in
    chunks of about DUMP_CELLS cells (1024 rows at T=2, 60 at T=40), with
    no copy of the whole table.  ``floatfmt`` lays each chunk out as cells
    of CELL bytes, NUL-padded, each ending in its delimiter, and one
    ``bytes.translate`` drops the NUL bytes before the chunk is written.
    ``raw`` may be one tile or batch of a longer run, as the engines' sinks
    get them: its paths get ids from ``first_id`` on, and the header is
    written only for the part that starts at 0.
    """
    # Imported here so that runs which never dump skip building its tables.
    from .floatfmt import _csv_rows

    cols = [
        raw[key] if t is None else raw[key][t] for _, key, t in _dump_columns(horizon)
    ]
    n, width = raw["eps"].size, 1 + len(cols)
    if first_id == 0:
        fh.write((path_dump_header(horizon) + "\n").encode("ascii"))
    chunk = max(1, DUMP_CELLS // width)
    block = np.empty((min(n, chunk), width - 1))
    for lo in range(0, n, chunk):
        rows = block[: min(chunk, n - lo)]
        for j, col in enumerate(cols):
            rows[:, j] = col[lo : lo + len(rows)]
        fh.write(_csv_rows(rows, first_id + lo))
