"""Spans around the program's layer entry points, installed at run time.

Nothing under ``src/`` knows about tracing.  `install` replaces each entry
point named in `HOOKS` with a wrapper that records a span (name, start, end,
parent) and the counts taken at that boundary, and `Hooks.remove` puts the
originals back.  The engine looks these names up when it calls them (module
globals such as ``simulation.draw_step``, class attributes such as
``StrategyFn.__call__``), so the wrappers see every call.

A name that no longer exists is not an error: every metric that needs it is
reported absent together with the missing name, never as zero.  The same
holds when the counts at a hook can no longer be read from its arguments or
result.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from collections import defaultdict
from fractions import Fraction

import numpy as np

PACKAGE = "superhedge"

# (span name, "module:attribute path", how to wrap).  "span" records a span;
# "count" only counts calls, for recursive helpers whose per-call spans would
# cost more than the work they time.  Even a bare counter costs more than a
# `_tree_value` call, so counters go in a run of their own, not the timed one.
HOOKS = (
    ("pwl.eval", "superhedge.pwl:PwlFunction.__call__", "span"),
    ("pwl.algebra", "superhedge.pwl:scale_compose", "span"),
    ("pwl.algebra", "superhedge.pwl:convex_combine", "span"),
    ("pricing.backward_induce", "superhedge.pricing:backward_induce", "span"),
    ("pricing.strategy", "superhedge.pricing:StrategyFn.__call__", "span"),
    ("pricing.asian_tree", "superhedge.pricing:asian_tree_price", "span"),
    ("pricing.aip", "superhedge.pricing:check_aip", "count"),
    ("simulation.batch", "superhedge.simulation:_simulate_batch", "span"),
    ("simulation.draw", "superhedge.simulation:draw_step", "span"),
    ("simulation.sstar", "superhedge.simulation:OrderSignChange.sstar", "span"),
    ("simulation.execute", "superhedge.simulation:_execute_vec", "span"),
    ("simulation.execute", "superhedge.simulation:mid_execute", "span"),
    ("simulation.execute", "superhedge.simulation:execute_delayed_order", "span"),
    ("simulation.aggregate", "superhedge.simulation:_Aggregator.add", "span"),
    ("simulation.crossings", "superhedge.simulation:OrderSignChange.__init__", "span"),
    ("simulation.functional_path", "superhedge.simulation:run_path_functional", "span"),
    ("simulation.tree_value", "superhedge.simulation:_tree_value", "count"),
    ("simulation.collect", "superhedge.simulation:simulate_one", "span"),
    ("simulation.collect", "superhedge.simulation:simulate_functional", "span"),
    ("cli.dump", "superhedge.simulation:write_path_dump", "span"),
    ("cli.hist", "superhedge.cli:_write_histogram", "span"),
    ("cli.strategy_export", "superhedge.cli:_export_strategy_tables", "span"),
    ("cli.stats_write", "superhedge.cli:format_stats_text", "span"),
    ("cli.stats_write", "superhedge.cli:format_stats_csv", "span"),
)

# Per-layer metric -> (unit, span names whose hooks it needs).  The order is
# the order of the report.
METRICS = {
    "pwl.eval_s": ("s", ("pwl.eval",)),
    "pwl.eval_points": ("count", ("pwl.eval",)),
    "pwl.algebra_s": ("s", ("pwl.algebra",)),
    "pwl.g0_breakpoints": ("count", ("pricing.backward_induce",)),
    "pwl.g0_den_bits": ("bits", ("pricing.backward_induce",)),
    "pricing.backward_induce_s": ("s", ("pricing.backward_induce",)),
    "pricing.strategy_s": ("s", ("pricing.strategy",)),
    "pricing.strategy_points": ("count", ("pricing.strategy",)),
    "pricing.asian_tree_s": ("s", ("pricing.asian_tree",)),
    "pricing.aip_checks": ("count", ("pricing.aip",)),
    "simulation.batch_s": ("s", ("simulation.batch",)),
    "simulation.batches": ("count", ("simulation.batch",)),
    "simulation.draw_s": ("s", ("simulation.draw",)),
    "simulation.sstar_s": ("s", ("simulation.sstar",)),
    "simulation.sstar_paths": ("count", ("simulation.sstar",)),
    "simulation.sstar_root_frac": ("fraction", ("simulation.sstar",)),
    "simulation.execute_s": ("s", ("simulation.execute",)),
    "simulation.aggregate_s": ("s", ("simulation.aggregate",)),
    "simulation.crossings_s": ("s", ("simulation.crossings",)),
    "simulation.functional_path_s": ("s", ("simulation.functional_path",)),
    "simulation.tree_value_calls": ("count", ("simulation.tree_value",)),
    "simulation.collect_mb": ("MB", ("simulation.collect",)),
    "cli.dump_s": ("s", ("cli.dump",)),
    "cli.dump_mb": ("MB", ("cli.dump",)),
    "cli.hist_s": ("s", ("cli.hist",)),
    "cli.strategy_export_s": ("s", ("cli.strategy_export",)),
    "cli.stats_write_s": ("s", ("cli.stats_write",)),
    "trace.batch_covered_frac": ("fraction", ("simulation.batch",)),
    "trace.pricing_covered_frac": (
        "fraction",
        ("pricing.backward_induce", "pwl.algebra", "simulation.crossings"),
    ),
    "trace.overhead_frac": ("fraction", ()),
}

# Layers whose self time counts as covered inside a `_simulate_batch` span:
# draws, value, strategy, S*, execution and aggregation.  Only spans nested in
# a batch count; `simulate_one` calls `_Aggregator.add` after each batch
# returns, so aggregation adds nothing there unless the engine moves it in.
# What stays uncovered is the batch's own array work: the bid/ask products,
# the V updates, the `np.full` columns and eps.
BATCH_LAYERS = (
    "simulation.draw",
    "pwl.eval",
    "pricing.strategy",
    "simulation.sstar",
    "simulation.execute",
    "simulation.aggregate",
)


def _size(x) -> int:
    return int(np.size(x))


def _nbytes(obj) -> int:
    """Bytes of every numpy array reachable through dicts, lists and tuples."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, dict):
        return sum(_nbytes(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(_nbytes(v) for v in obj)
    return 0


# Counts taken where a span ends: (counters, positional args, result).
def _count_eval(c, args, result):
    c["pwl.eval_points"] += _size(args[1])


def _count_strategy(c, args, result):
    c["pricing.strategy_points"] += _size(args[1])


def _count_sstar(c, args, result):
    sstar = np.asarray(result[0], dtype=float)
    c["simulation.sstar_paths"] += sstar.size
    c["simulation.sstar_roots"] += int(np.count_nonzero(~np.isnan(sstar)))


def _count_collect(c, args, result):
    _, raw = result  # (stats, raw columns or None)
    c["simulation.collect_bytes"] += _nbytes(raw)


COUNTERS = {
    "pwl.eval": _count_eval,
    "pricing.strategy": _count_strategy,
    "simulation.sstar": _count_sstar,
    "simulation.collect": _count_collect,
}


class Tracer:
    """Spans kept in memory: parallel lists indexed by span id."""

    def __init__(self):
        self.name: list[str] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.broken: dict[str, str] = {}  # span name -> why its counts failed

    def span(self, name: str, fn, count=None):
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(self.name)
            self.name.append(name)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.end.append(0)
            self.stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self.stack.pop()
            if count is not None:
                try:
                    count(self.counts, args, result)
                except (IndexError, KeyError, TypeError, ValueError) as exc:
                    self.broken.setdefault(name, f"counting failed: {exc!r}")
            return result

        return traced

    def counter(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def durations(self) -> list[int]:
        return [e - s for s, e in zip(self.start, self.end)]

    def self_times(self) -> list[int]:
        """Span duration minus the time its direct children cover (ns)."""
        dur = self.durations()
        child = [0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        return [d - c for d, c in zip(dur, child)]


def _resolve(spec: str):
    """(owner, attribute, original) for "module:Attr.path", or None."""
    mod_name, _, path = spec.partition(":")
    try:
        owner = importlib.import_module(mod_name)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if original is None:
        return None
    return owner, attr, original


class Hooks:
    """Installed wrappers, the private helpers among them, and missing names."""

    def __init__(self):
        self.patched: list[tuple[object, str, object]] = []
        self.missing: dict[str, list[str]] = defaultdict(list)  # span -> specs
        self.private: list[str] = []

    def remove(self):
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        self.patched.clear()


def install(tracer: Tracer, kind: str) -> Hooks:
    """Wrap every entry point of this kind in `HOOKS` that exists, wherever
    it is bound.

    A module-level function is replaced in every loaded ``superhedge`` module
    whose global refers to it, because ``from .pwl import scale_compose``
    makes ``pricing.scale_compose`` its own binding.
    """
    hooks = Hooks()
    modules = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]
    for name, spec, how in HOOKS:
        if how != kind:
            continue
        found = _resolve(spec)
        if found is None:
            hooks.missing[name].append(spec)
            continue
        owner, attr, original = found
        if any(p.startswith("_") and not p.startswith("__") for p in spec.split(":")[1].split(".")):
            hooks.private.append(spec)
        if kind == "count":
            wrapper = tracer.counter(name, original)
        else:
            wrapper = tracer.span(name, original, COUNTERS.get(name))
        if isinstance(owner, type):
            hooks.patched.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    hooks.patched.append((mod, key, original))
                    setattr(mod, key, wrapper)
    return hooks


def g0_size(g0) -> tuple[int, int]:
    """(breakpoints, largest denominator in bits) of g_0's exact form."""
    coords = list(g0.breakpoints) + list(g0.values)
    bits = max(Fraction(x).denominator.bit_length() for x in coords)
    return len(g0.breakpoints), bits


def layer_metrics(tracer: Tracer, run_ns: int) -> dict[str, float]:
    """Per-layer values of one traced run; `run_ns` is its wall time."""
    self_list = tracer.self_times()
    self_ns: dict[str, int] = defaultdict(int)
    for name, s in zip(tracer.name, self_list):
        self_ns[name] += s
    durations = defaultdict(list)
    for name, d in zip(tracer.name, tracer.durations()):
        durations[name].append(d)
    c = tracer.counts

    def sec(name):
        return self_ns[name] / 1e9

    def median_s(name):
        return statistics.median(durations[name]) / 1e9 if durations[name] else 0.0

    batch_total = sum(durations["simulation.batch"])
    covered = 0
    for i, name in enumerate(tracer.name):
        if name in BATCH_LAYERS and _inside(tracer, i, "simulation.batch"):
            covered += self_list[i]
    pricing_ns = (
        self_ns["pricing.backward_induce"] + self_ns["pwl.algebra"] + self_ns["simulation.crossings"]
    )
    return {
        "pwl.eval_s": sec("pwl.eval"),
        "pwl.eval_points": c["pwl.eval_points"],
        "pwl.algebra_s": sec("pwl.algebra"),
        "pricing.backward_induce_s": sec("pricing.backward_induce"),
        "pricing.strategy_s": sec("pricing.strategy"),
        "pricing.strategy_points": c["pricing.strategy_points"],
        "pricing.asian_tree_s": sec("pricing.asian_tree"),
        "pricing.aip_checks": c["pricing.aip"],
        "simulation.batch_s": median_s("simulation.batch"),
        "simulation.batches": len(durations["simulation.batch"]),
        "simulation.draw_s": sec("simulation.draw"),
        "simulation.sstar_s": sec("simulation.sstar"),
        "simulation.sstar_paths": c["simulation.sstar_paths"],
        "simulation.sstar_root_frac": (
            c["simulation.sstar_roots"] / c["simulation.sstar_paths"]
            if c["simulation.sstar_paths"]
            else 0.0
        ),
        "simulation.execute_s": sec("simulation.execute"),
        "simulation.aggregate_s": sec("simulation.aggregate"),
        "simulation.crossings_s": sec("simulation.crossings"),
        "simulation.functional_path_s": median_s("simulation.functional_path"),
        "simulation.tree_value_calls": c["simulation.tree_value"],
        "simulation.collect_mb": c["simulation.collect_bytes"] / 1e6,
        "cli.dump_s": sec("cli.dump"),
        "cli.hist_s": sec("cli.hist"),
        "cli.strategy_export_s": sec("cli.strategy_export"),
        "cli.stats_write_s": sec("cli.stats_write"),
        "trace.batch_covered_frac": covered / batch_total if batch_total else 0.0,
        "trace.pricing_covered_frac": pricing_ns / run_ns,
    }


def span_summary(tracer: Tracer) -> dict[str, list]:
    """Per span name: [calls, total seconds, self seconds]."""
    out: dict[str, list] = {}
    for name, d, s in zip(tracer.name, tracer.durations(), tracer.self_times()):
        row = out.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += d / 1e9
        row[2] += s / 1e9
    return out


def _inside(tracer: Tracer, i: int, ancestor: str) -> bool:
    p = tracer.parent[i]
    while p >= 0:
        if tracer.name[p] == ancestor:
            return True
        p = tracer.parent[p]
    return False
