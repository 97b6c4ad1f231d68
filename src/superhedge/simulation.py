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
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from .pricing import MarketModel, PricingResult, StepSpec, _tree_value, require_aip
from .pwl import PwlFunction, merge_pieces, piece_index

BATCH_SIZE = 1 << 17
DUMP_ROWS = 2048  # path-dump rows formatted and written at a time
_PATH_KEYS = ("s", "bid", "ask", "theta", "v")
ROOT_WIDTH_TOL = 1e-12


@dataclass(frozen=True)
class RngConfig:
    """Root seed of a run, a 64-bit unsigned integer.

    The stream is PCG64 as shipped by numpy; per-strike and per-batch
    substreams are spawned from ``SeedSequence(seed)``, so a given seed
    reproduces the same paths bit for bit on any platform.
    """

    seed: int

    def __post_init__(self):
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")

    def root_sequence(self) -> np.random.SeedSequence:
        return np.random.SeedSequence(int(self.seed))


# ---------------------------------------------------------------------- #
# elementary draws and executions
# ---------------------------------------------------------------------- #


def draw_step(step: StepSpec, rng: np.random.Generator, size=None):
    """Draw (m, M, k): interval edges m, M = m + spread, and mid position k.

    m ~ U[m_lo, m_hi], spread ~ U[spr_lo, spr_hi] independent, k ~ U[0, 1].
    k is drawn at every step, including bid/ask steps that ignore it, which
    keeps the stream layout identical across protocols.
    """
    if not step.has_distribution:
        raise ValueError("step has no draw distribution attached")
    m = rng.uniform(step.m_lo, step.m_hi, size)
    spr = rng.uniform(step.spr_lo, step.spr_hi, size)
    k = rng.uniform(0.0, 1.0, size)
    return m, m + spr, k


def mid_execute(s_prev, m, M, k):
    """Executed price s_prev * (m + k (M - m)) inside the drawn interval."""
    s = np.asarray(s_prev, dtype=float)
    # NaN fails every comparison, so the chain refuses it too.
    if s.size and not 0.0 < s.min() <= s.max() < math.inf:
        bad = s[~((0.0 < s) & (s < math.inf))].flat[0]
        raise ValueError(f"s_prev must be positive and finite, got {bad}")
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

    theta_t(z) = (g(k_up z) - g(k_down z)) / ((k_up - k_down) z) is monotone
    for convex g and piecewise of the form b/c + a/(c z), so the zero set of
    the order mapping is an interval whose endpoints solve linear equations
    on the pieces.  The reported S* is the finite endpoint when the zero set
    extends to 0 or infinity (a plateau of theta at the held position) and
    the midpoint otherwise; with no zero at all, only the constant sign is
    reported.  All piece data is precomputed from exact rationals.
    """

    def __init__(self, g_next: PwlFunction, step: StepSpec):
        kd, ku = Fraction(step.k_down), Fraction(step.k_up)
        self.degenerate = kd == ku
        if self.degenerate:
            return
        pd, qd, pu, qu = kd.numerator, kd.denominator, ku.numerator, ku.denominator
        g = g_next
        # theta = (g(k_up z) - g(k_down z)) / (c z) is b/c + a/(c z) between
        # cuts, the z where k_up z or k_down z meets a positive breakpoint of
        # g; a and b come from the pieces of g holding k_up z and k_down z.
        # Each list is integer numerators over one denominator: the cuts
        # b/k = bn*q / (bd*p) over zd, b over sd*qu*qd, a over cd, and
        # c = c_n / (qu*qd) > 0.
        first = 1 if g._bn[0] == 0 else 0  # z > 0 lies past a breakpoint at 0
        bn, sn, cn = g._bn[first:], g._sn[first:], g._cn[first:]
        lcm = math.lcm(pd, pu)
        zd = g._bd * lcm
        cuts, pieces = merge_pieces(
            [n * (qu * (lcm // pu)) for n in bn], [n * (qd * (lcm // pd)) for n in bn]
        )
        b_n = [sn[i] * (pu * qd) - sn[j] * (pd * qu) for i, j in pieces]
        a_n = [cn[i] - cn[j] for i, j in pieces]
        c_n = pu * qd - pd * qu
        m = len(cuts)

        # theta at cut z = cuts[j] / zd, from the piece ending there, is
        # b/c + a/(c z) = (b_n*ce*cuts[j] + a_n*ze*qu*qd*sd) / (sd*ce*c_n*cuts[j])
        # with ze/ce = zd/cd in lowest terms.
        sd, cd = g._sd, g._cd
        h = math.gcd(zd, cd)
        ze, ce = zd // h, cd // h
        a_w, t_d = ze * qu * qd * sd, sd * ce * c_n
        t_n = [b_n[j] * ce * z + a_n[j] * a_w for j, z in enumerate(cuts)]
        t_den = [t_d * z for z in cuts]
        t_vals = [n / d for n, d in zip(t_n, t_den)]
        # Correctly rounded division is monotone, so differing floats order
        # the exact values; only equal floats need the exact comparison.
        for j in range(m - 1):
            u, v = t_vals[j], t_vals[j + 1]
            if u > v or (u == v and t_n[j] * t_den[j + 1] > t_n[j + 1] * t_den[j]):
                raise ValueError("order mapping is not monotone; payoff not convex?")

        self.c = float(step.k_up - step.k_down)
        self.cuts = np.array([z / zd for z in cuts])
        # Piece j of theta spans [cut_lo[j], cut_hi[j]].
        self.cut_lo = np.concatenate(([0.0], self.cuts))
        self.cut_hi = np.concatenate((self.cuts, [np.inf]))
        self.t_vals = np.array(t_vals)
        self.a = np.array([n / cd for n in a_n])
        self.b = np.array([n / (sd * qu * qd) for n in b_n])
        self.theta_lo = b_n[0] / (sd * c_n)   # constant value of theta near 0
        self.theta_hi = b_n[-1] / (sd * c_n)  # asymptotic value at infinity
        self.t_last = t_vals[-1] if m else self.theta_lo

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
        all_sell = (th > self.theta_hi) | (
            (th == self.theta_hi) & (self.t_last < self.theta_hi)
        )
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
        z_right = np.where(at_top, np.inf, z)

        return np.where(
            z_left == 0.0,
            z_right,
            np.where(np.isinf(z_right), z_left, 0.5 * (z_left + z_right)),
        )


def _execute_vec(bid, ask, sstar, sign, straddle_to_ask=True):
    no_root = np.isnan(sstar)
    closer_bid = np.abs(sstar - bid) <= np.abs(sstar - ask)
    straddle = closer_bid if straddle_to_ask else ~closer_bid
    with np.errstate(invalid="ignore"):
        ruled = np.where(
            ask <= sstar, bid, np.where(sstar <= bid, ask, np.where(straddle, ask, bid))
        )
    return np.where(no_root, np.where(sign <= 0.0, bid, ask), ruled)


# ---------------------------------------------------------------------- #
# path generation
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class SimPath:
    """One simulated scenario.

    ``s`` holds the executed prices S_0..S_T; ``bid``/``ask`` the quoted
    pair at interior steps (NaN at mid-execution steps); ``theta`` the held
    quantities theta_0..theta_{T-1}; ``v`` the portfolio values V_0..V_T.
    """

    s_prev: float
    s: np.ndarray
    bid: np.ndarray
    ask: np.ndarray
    theta: np.ndarray
    v: np.ndarray
    eps_r: float


def _protocol(model: MarketModel, n: int, draws, claim, straddle_to_ask: bool):
    """The execution protocol over n paths; returns column arrays.

    ``draws`` yields (m, M, k) arrays per step.  ``claim`` holds four maps of
    the executed prefix (s_0, ..., s_t): ``value(prefix, t)``, ``theta(prefix,
    t)``, ``sstar(prefix, t, held, s_prev)``, the order's (sstar, sign) at
    interior step t before its execution, and ``payoff(prefix)``.  Mid steps
    quote no bid/ask: their entries are None.
    """
    value, theta, sstar, payoff = claim
    T = model.horizon
    s_prev = np.full(n, float(model.s_init))
    prefix: tuple[np.ndarray, ...] = ()
    cols = {key: [] for key in _PATH_KEYS}
    for t, (m, M, k) in enumerate(draws):
        if t == 0 or t == T:
            s_t = mid_execute(s_prev, m, M, k)
            bid_t = ask_t = None
        else:
            bid_t, ask_t = s_prev * m, s_prev * M
            order = sstar(prefix, t, cols["theta"][t - 1], s_prev)
            _check_quotes(bid_t, ask_t)
            s_t = _execute_vec(bid_t, ask_t, *order, straddle_to_ask)
        prefix += (s_t,)
        if t == 0:
            cols["v"].append(value(prefix, 0))
        else:
            cols["v"].append(cols["v"][t - 1] + cols["theta"][t - 1] * (s_t - s_prev))
        if t < T:
            cols["theta"].append(theta(prefix, t))
        cols["s"].append(s_t)
        cols["bid"].append(bid_t)
        cols["ask"].append(ask_t)
        s_prev = s_t
    cols["eps"] = (cols["v"][T] - payoff(prefix)) / cols["s"][T]
    return cols


def _simulate_batch(
    model: MarketModel,
    pricing: PricingResult,
    n: int,
    rng: np.random.Generator,
    crossings: dict,
    straddle_to_ask: bool = True,
):
    """Vectorised protocol over n paths of a PWL claim; returns column arrays."""
    claim = (
        lambda prefix, t: pricing.value_fns[0](prefix[-1]),
        lambda prefix, t: pricing.strategy(t, model)(prefix[-1]),
        lambda prefix, t, held, s_prev: crossings[t].sstar(held),
        lambda prefix: pricing.payoff(prefix[-1]),
    )
    draws = (draw_step(step, rng, size=n) for step in model.steps)
    return _protocol(model, n, draws, claim, straddle_to_ask)


def _build_crossings(model: MarketModel, pricing: PricingResult) -> dict:
    return {
        t: OrderSignChange(pricing.value_fns[t + 1], model.steps[t + 1])
        for t in range(1, model.horizon)
    }


def _first_path(model: MarketModel, cols: dict) -> SimPath:
    """The first path of a batch's column arrays."""
    raw = _concat_batches([cols])
    return SimPath(
        s_prev=float(model.s_init),
        **{key: np.array([c[0] for c in raw[key]]) for key in _PATH_KEYS},
        eps_r=float(raw["eps"][0]),
    )


def _concat_batches(kept: list[dict]) -> dict:
    """Per-path columns of several batches, joined in batch order; the
    mid-step bid/ask entries, None in every batch, become NaN columns."""
    raw = {"eps": np.concatenate([batch["eps"] for batch in kept])}
    for key in _PATH_KEYS:
        raw[key] = [
            np.full(raw["eps"].size, np.nan) if col[0] is None else np.concatenate(col)
            for col in zip(*(batch[key] for batch in kept))
        ]
    return raw


# ---------------------------------------------------------------------- #
# aggregation
# ---------------------------------------------------------------------- #


@dataclass
class RunningMoments:
    """Streaming count/mean/M2 with order-robust pairwise batch merging; the
    mean and variance of no values are NaN."""

    count: int = 0
    mean: float = math.nan
    m2: float = 0.0

    def merge(self, n: int, mean: float, m2: float):
        if self.count == 0:
            self.count, self.mean, self.m2 = n, mean, m2
            return
        total = self.count + n
        delta = mean - self.mean
        self.mean += delta * n / total
        self.m2 += m2 + delta * delta * self.count * n / total
        self.count = total

    def add_batch(self, x: np.ndarray):
        if x.size:
            self.merge(x.size, float(np.mean(x)), float(np.var(x) * x.size))

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
    return (theta[nonzero] * s[nonzero]) / v[nonzero]


class _Aggregator:
    """Fold batches of path columns into SimStats.

    One RunningMoments per named per-batch series, merged in batch order; the
    series in EXTREMA also keep their running min and max.  A series that saw
    no path (S2 and theta1 at T=1, a theta fraction where every V_t is 0) has
    a NaN mean.
    """

    EXTREMA = ("v0", "v0/s0", "eps")

    def __init__(self, s_prev: float):
        self.s_prev = s_prev
        self.moments = defaultdict(RunningMoments)
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
    Each batch goes, in path order, to ``sink`` once aggregated; ``collect``
    is the sink that keeps every batch.  Returns (SimStats, the kept batches
    joined in order when ``collect`` is set, else None).
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    require_aip(model)
    agg = _Aggregator(model.s_init)
    kept: list[dict] = []
    sinks = [agg.add]
    if collect:
        sinks.append(kept.append)
    if sink is not None:
        sinks.append(sink)
    for cols in batches:
        for add in sinks:
            add(cols)
    return agg.result(label), _concat_batches(kept) if collect else None


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

    Paths are generated in batches of BATCH_SIZE (read when called) with
    seeds spawned from ``seed_seq``; the batch layout depends only on
    n_paths, so a given seed gives bit-identical results.  ``collect=True``
    additionally returns the concatenated per-path columns: (5T+5) floats
    per path, NaN for the bid/ask of mid steps, held with the (5T+1) of the
    batches while they are joined, so the peak is about (10T+6) * 8 bytes
    per path.  ``sink``, if given, is called with each batch's columns in
    path order once they are aggregated; a caller that writes them out holds
    one batch, whatever n_paths.  In both engines the mid-step bid/ask
    entries a sink gets are None.
    """
    batch_size = BATCH_SIZE

    def batches():
        crossings = _build_crossings(model, pricing)
        children = seed_seq.spawn((n_paths + batch_size - 1) // batch_size)
        for b, child in enumerate(children):
            nb = min(batch_size, n_paths - b * batch_size)
            rng = np.random.Generator(np.random.PCG64(child))
            yield _simulate_batch(model, pricing, nb, rng, crossings, straddle_to_ask)

    return _fold(model, strike, n_paths, batches(), collect, sink)


def simulate(
    model: MarketModel,
    pricings: Sequence[PricingResult],
    strikes: Sequence[float],
    n_paths: int,
    rng_config: RngConfig,
    straddle_to_ask: bool = True,
) -> list[SimStats]:
    """Per-strike statistics over n_paths scenarios each.

    Each strike gets an independent substream spawned from the root seed, so
    columns are independent across strikes but fully reproducible.
    """
    if len(pricings) != len(strikes):
        raise ValueError("need one pricing result per strike")
    children = rng_config.root_sequence().spawn(len(strikes))
    out = []
    for pricing, strike, child in zip(pricings, strikes, children):
        stats, _ = simulate_one(
            model, pricing, strike, n_paths, child, straddle_to_ask
        )
        out.append(stats)
    return out


# ---------------------------------------------------------------------- #
# path-dependent claims: tree walks vectorised over paths
# ---------------------------------------------------------------------- #

FUNCTIONAL_CHUNK = 4096

_PAYOFF_CONTRACT = (
    "a path-dependent payoff gets a tuple (s_0, ..., s_T) of equal-length "
    "float arrays, one entry per path, and returns an array of that length "
    "or a scalar; use np.maximum, not max, on arrays"
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


def _functional_sstar(leaf, model: MarketModel, base, t: int, held, s_prev):
    """Per-path (sstar, sign) of z -> theta_t(base + (z,)) - held.

    Same plateau conventions as OrderSignChange; sstar is NaN where the sign
    is constant on [1e-9, 1e9] * s_prev.  The left end of the zero set (first
    z with delta >= 0) and the right end (first z with delta > 0) are
    bisected together, one lane each, and a lane stops once its bracket is
    narrower than ROOT_WIDTH_TOL relative to its midpoint.
    """
    n = held.size

    def order(lanes):
        pre, th = tuple(p[lanes] for p in base), held[lanes]
        return lambda z: _tree_theta(leaf, model, pre + (z,), t) - th

    lo, hi = 1e-9 * s_prev, 1e9 * s_prev
    f = order(np.concatenate((np.arange(n), np.arange(n))))(np.concatenate((lo, hi)))
    f_lo, f_hi = f[:n], f[n:]
    sign = np.where(f_lo > 0.0, 1.0, np.where(f_hi < 0.0, -1.0, 0.0))
    no_root = (f_lo > 0.0) | (f_hi < 0.0) | ((f_lo == 0.0) & (f_hi == 0.0))
    left = np.flatnonzero(~no_root & (f_lo != 0.0))
    right = np.flatnonzero(~no_root & (f_hi != 0.0))
    lanes = np.concatenate((left, right))
    strict = np.arange(lanes.size) < left.size  # z_left lanes test delta < 0
    a, b, delta = lo[lanes], hi[lanes], order(lanes)
    active = b - a > ROOT_WIDTH_TOL * np.maximum(1.0, 0.5 * (a + b))
    while active.any():
        mid = 0.5 * (a + b)
        d = delta(mid)
        below = np.where(strict, d < 0.0, d <= 0.0)
        a = np.where(active & below, mid, a)
        b = np.where(active & ~below, mid, b)
        active = b - a > ROOT_WIDTH_TOL * np.maximum(1.0, 0.5 * (a + b))
    z = 0.5 * (a + b)
    z_left, z_right = np.zeros(n), np.full(n, math.inf)
    z_left[left], z_right[right] = z[: left.size], z[left.size :]
    inner = np.where(np.isinf(z_right), z_left, 0.5 * (z_left + z_right))
    return np.where(no_root, np.nan, np.where(z_left == 0.0, z_right, inner)), sign


def _functional_batch(model: MarketModel, payoff, n: int, rng, straddle_to_ask=True):
    """Protocol for a path-dependent claim over n paths; returns column arrays.

    Each path takes its 3 (T + 1) uniforms consecutively from ``rng`` in the
    order (m, spread, k) per step, and every lane repeats the per-path
    arithmetic, so results do not depend on how paths are batched.
    """
    if not all(step.has_distribution for step in model.steps):
        raise ValueError("step has no draw distribution attached")
    lo = np.array([(st.m_lo, st.spr_lo, 0.0) for st in model.steps], dtype=float)
    hi = np.array([(st.m_hi, st.spr_hi, 1.0) for st in model.steps], dtype=float)
    u = lo + (hi - lo) * rng.random((n, model.horizon + 1, 3))
    draws = ((u[:, t, 0], u[:, t, 0] + u[:, t, 1], u[:, t, 2]) for t in range(len(lo)))
    leaf = partial(_payoff_values, payoff)
    claim = (
        partial(_tree_value, leaf, model),
        partial(_tree_theta, leaf, model),
        partial(_functional_sstar, leaf, model),
        leaf,
    )
    return _protocol(model, n, draws, claim, straddle_to_ask)


def run_path_functional(
    model: MarketModel,
    payoff: Callable[[tuple[np.ndarray, ...]], np.ndarray],
    rng: np.random.Generator,
    straddle_to_ask: bool = True,
) -> SimPath:
    """One path of the path-dependent protocol (holdings from tree walks).

    The n=1 case of the engine behind simulate_functional, under the same
    payoff contract; successive calls on one generator give the paths of one
    simulate_functional batch bit for bit.
    """
    require_aip(model)
    return _first_path(model, _functional_batch(model, payoff, 1, rng, straddle_to_ask))


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

    ``payoff`` receives a tuple (s_0, ..., s_T) of equal-length float arrays,
    one lane per path (tree walks append hypothetical prices), and returns
    an array of the same length; a scalar return is broadcast to every
    path.  A payoff written for floats only fails with a TypeError stating
    this contract.  Unlike simulate_one, all chunks share one generator made
    from ``seed_seq``: it feeds chunks of FUNCTIONAL_CHUNK paths in turn,
    each run as one vector batch and aggregated as one batch; ``sink`` gets
    each chunk's columns as in simulate_one.
    """

    def batches():
        rng = np.random.Generator(np.random.PCG64(seed_seq))
        for done in range(0, n_paths, FUNCTIONAL_CHUNK):
            nb = min(FUNCTIONAL_CHUNK, n_paths - done)
            yield _functional_batch(model, payoff, nb, rng, straddle_to_ask)

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
