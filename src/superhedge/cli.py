"""Batch front-end: config parsing, experiment orchestration, file outputs.

A run prices the configured claims, simulates the hedge over seeded
scenarios, and writes a per-strike statistics table (aligned text plus
delimited data), optional fixed-width histogram files and an optional
per-path dump.  Configs are flat ``key = value`` text; every CLI flag maps
onto a config key so runs are fully reproducible from the echoed config.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import itertools
import math
import sys
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Optional

import numpy as np

from .pricing import (
    AipViolationError,
    MarketModel,
    StepSpec,
    asian_call_payoff,
    asian_tree_price,
    backward_induce,
    initial_premium,
    require_aip,
    require_convex,
    require_tree_depth,
    uniform_bid_ask_model,
)
from .pwl import PwlFunction, call_payoff, put_payoff
from .simulation import (
    BATCH_SIZE,
    SimStats,
    simulate_functional,
    simulate_one,
    write_path_dump,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NO_ARBITRAGE = 2
EXIT_INFINITE_PRICE = 3

PAYOFF_TAGS = ("call", "put", "custom-pwl", "asian-call")
STRATEGY_SAMPLES = 512  # grid points of each exported strategy table


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    s_prev: float = 100.0
    horizon: int = 2
    m_lo: float = 0.7
    m_hi: float = 1.0
    spr_lo: float = 0.0
    spr_hi: float = 0.4
    strikes: tuple[float, ...] = (50.0, 75.0, 100.0, 125.0, 150.0)
    n_paths: int = 1_000_000
    seed: int = 42
    payoff: str = "call"
    payoff_breakpoints: tuple[float, ...] = ()
    payoff_values: tuple[float, ...] = ()
    payoff_left_slope: float = 0.0
    payoff_right_slope: float = 0.0
    write_stats: bool = True
    dump_paths: bool = False
    histograms: bool = False
    export_strategy: bool = False
    hist_bins: int = 100
    straddle_to_ask: bool = True
    clamp_infinite_price: bool = False

    def __post_init__(self):
        for f in dataclasses.fields(self):
            if isinstance(f.default, (float, tuple)):
                value = getattr(self, f.name)
                values = value if isinstance(f.default, tuple) else (value,)
                if not all(math.isfinite(x) for x in values):
                    raise ConfigError(f"{f.name} must be finite, got {value!r}")
        if not self.s_prev > 0:
            raise ConfigError("s_prev must be positive")
        if self.horizon < 1:
            raise ConfigError("horizon must be at least 1")
        if not self.strikes:
            raise ConfigError("strikes must be nonempty")
        if any(k <= 0 for k in self.strikes):
            raise ConfigError("strikes must be positive")
        if self.payoff != "custom-pwl":  # a strike's label names its column and files
            labels = [_column_label(float(k)) for k in self.strikes]
            for i, label in enumerate(labels):
                if label in labels[:i]:
                    raise ConfigError(f"strikes share the column label {label!r}")
        if self.n_paths < 1:
            raise ConfigError("n_paths must be at least 1")
        # The largest price any layer forms, and a batch's sum of such prices.
        k_up = self.m_hi + self.spr_hi
        top = math.prod(itertools.repeat(k_up, self.horizon + 1), start=self.s_prev)
        lanes = min(BATCH_SIZE, self.n_paths)
        if not math.isfinite(top * lanes):
            raise ConfigError(
                f"s_prev = {self.s_prev!r} over horizon {self.horizon} overflows "
                f"float64: prices reach s_prev * k_up^{self.horizon + 1} = {top!r}, "
                f"and a batch sums {lanes} of them"
            )
        if self.payoff not in PAYOFF_TAGS:
            raise ConfigError(
                f"payoff must be one of {', '.join(PAYOFF_TAGS)}, got {self.payoff!r}"
            )
        if self.payoff == "custom-pwl":
            if not self.payoff_breakpoints:
                raise ConfigError("custom-pwl payoff needs payoff_breakpoints")
            if len(self.payoff_breakpoints) != len(self.payoff_values):
                raise ConfigError(
                    "payoff_breakpoints and payoff_values must have equal length"
                )
            try:
                require_convex(self.custom_payoff())
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
        if self.export_strategy and self.payoff == "asian-call":
            raise ConfigError(
                "export_strategy needs a piecewise-linear payoff; "
                "asian-call has no strategy tables"
            )
        if self.hist_bins < 1:
            raise ConfigError("hist_bins must be at least 1")
        if not 0 <= self.seed < 2**64:  # the root of every spawned stream
            raise ConfigError("seed must fit in 64 unsigned bits")
        if self.payoff == "asian-call":  # its tree walks have 2^horizon leaves
            try:
                require_tree_depth(self.horizon)
            except ValueError as exc:
                raise ConfigError(str(exc)) from None

    def custom_payoff(self) -> PwlFunction:
        """The ``custom-pwl`` payoff from the payoff_* keys."""
        return PwlFunction(
            self.payoff_breakpoints,
            self.payoff_values,
            self.payoff_left_slope,
            self.payoff_right_slope,
        )

    def build_model(self) -> MarketModel:
        m, spr = (self.m_lo, self.m_hi), (self.spr_lo, self.spr_hi)
        return uniform_bid_ask_model(self.s_prev, self.horizon, m, spr)


# ---------------------------------------------------------------------- #
# config text format
# ---------------------------------------------------------------------- #

# pseudo-keys: explicit essential bounds, normalised into the draw ranges
_BOUND_KEYS = {"k_down", "k_up"}
_KEY_TYPES = {f.name: type(f.default) for f in dataclasses.fields(ExperimentConfig)}
_KEY_TYPES.update(dict.fromkeys(_BOUND_KEYS, float))


def _parse_value(key: str, value: str, where: str):
    """Parse a config or flag value by the type of its key; ``where`` (a
    config line or a flag) leads the error message."""
    kind = _KEY_TYPES[key]
    try:
        if kind is tuple:
            value = value.strip()
            if not value:
                return ()
            return tuple(float(v.strip()) for v in value.split(","))
        if kind is bool:
            low = value.strip().lower()
            if low in ("true", "yes", "1"):
                return True
            if low in ("false", "no", "0"):
                return False
            raise ValueError(f"not a boolean: {value!r}")
        if kind is str:
            return value.strip()
        return kind(value)
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value for {key!r}: {exc}") from None


def parse_config(text: str) -> ExperimentConfig:
    """Parse flat ``key = value`` lines; unknown keys are rejected.

    Blank lines and lines starting with ``#`` are ignored.  Setting
    ``k_down``/``k_up`` fixes the essential bounds directly: the draw ranges
    then default to m ~ U[k_down, k_up] with zero spread unless given
    explicitly, in which case they must be consistent
    (k_down == m_lo, k_up == m_hi + spr_hi).
    """
    fields: dict = {}
    bounds: dict = {}
    saw_dist_keys = False
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _KEY_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        parsed = _parse_value(key, value, f"line {lineno}")
        if key in fields or key in bounds:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if key in _BOUND_KEYS:
            bounds[key] = parsed
            continue
        if key in ("m_lo", "m_hi", "spr_lo", "spr_hi"):
            saw_dist_keys = True
        fields[key] = parsed

    if bounds:
        if set(bounds) != _BOUND_KEYS:
            raise ConfigError("k_down and k_up must be given together")
        if not saw_dist_keys:
            fields["m_lo"] = bounds["k_down"]
            fields["m_hi"] = bounds["k_up"]
            fields["spr_lo"] = 0.0
            fields["spr_hi"] = 0.0
    try:
        cfg = ExperimentConfig(**fields)
        if bounds and saw_dist_keys:
            # raises when the explicit bounds contradict the draw ranges
            StepSpec(
                k_down=bounds["k_down"],
                k_up=bounds["k_up"],
                m_lo=cfg.m_lo,
                m_hi=cfg.m_hi,
                spr_lo=cfg.spr_lo,
                spr_hi=cfg.spr_hi,
            )
        return cfg
    except ValueError as exc:  # ConfigError included: same type, same text
        raise ConfigError(str(exc)) from None


def render_config(cfg: ExperimentConfig) -> str:
    """Config text that parses back to an equal ExperimentConfig."""
    lines = []
    for f in dataclasses.fields(cfg):
        v, kind = getattr(cfg, f.name), _KEY_TYPES[f.name]
        if kind is tuple:
            rendered = ", ".join(repr(x) for x in v)
        elif kind is bool:
            rendered = "true" if v else "false"
        elif kind is str:
            rendered = v
        else:
            rendered = repr(v)
        lines.append(f"{f.name} = {rendered}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------- #
# output formatting
# ---------------------------------------------------------------------- #


def _stats_rows(stats: list[SimStats]) -> list[tuple[str, list[float]]]:
    """Each row of the table: its label and its value in every column."""
    table = [st.row_values() for st in stats]
    return [
        (label, [vals[i] for vals in table])
        for i, label in enumerate(SimStats.ROW_LABELS)
    ]


def format_stats_text(stats: list[SimStats]) -> str:
    width = max(len(lbl) for lbl in SimStats.ROW_LABELS) + 2
    rows = [
        f"{label:<{width}}" + "".join(f"{v:>14.6g}" for v in vals)
        for label, vals in _stats_rows(stats)
    ]
    return "\n".join(rows) + "\n"


def format_stats_csv(stats: list[SimStats]) -> str:
    lines = [
        f"{label}," + ",".join(repr(v) for v in vals)
        for label, vals in _stats_rows(stats)
    ]
    return "\n".join(lines) + "\n"


def _write_histogram(path: Path, data: np.ndarray, bins: int):
    counts, edges = np.histogram(data, bins=bins)
    edges = [float(e) for e in edges]
    with path.open("w", encoding="utf-8") as fh:
        fh.write("bin_lo,bin_hi,count\n")
        for i, c in enumerate(counts):
            fh.write(f"{edges[i]!r},{edges[i + 1]!r},{int(c)}\n")


def _export_strategy_tables(out_dir, label, pricing, model, written: list):
    """Per-step sampled order mappings z -> theta_t(z); each file is added to
    ``written`` before it is opened."""
    lo_mult = 1.0
    hi_mult = 1.0
    for t in range(model.horizon):
        step = model.steps[t]
        lo_mult *= step.k_down
        hi_mult *= step.k_up
        lo = model.s_init * lo_mult
        hi = model.s_init * hi_mult
        grid = np.linspace(lo, hi, STRATEGY_SAMPLES)
        theta = pricing.strategy(t, model)(grid)
        path = out_dir / f"strategy_{label}_t{t}.csv"
        written.append(path)
        with path.open("w", encoding="utf-8") as fh:
            fh.write("s,theta\n")
            for s_val, th in zip(grid, theta):
                fh.write(f"{float(s_val)!r},{float(th)!r}\n")


def _simulate_strike(
    simulate, cfg: ExperimentConfig, out_dir: Path, label: str, horizon: int,
    written: list,
) -> SimStats:
    """Stats of ``simulate(sink=...)`` for one strike, writing its dump and
    histograms; each file is added to ``written`` once it exists.

    The sink appends each batch to the path dump while the simulation runs
    and copies the histogram series (S_0..S_min(T,2) and eps_R) into arrays
    of n_paths floats allocated up front, so memory holds one batch plus
    those series.  The dump is written under a temporary name and renamed
    when the strike succeeds: a failed run leaves no partial dump.  The
    histograms are written from the full series afterwards.  A run that
    neither dumps nor bins passes no sink, so a European engine holds only
    the workspace rows its statistics read.
    """
    names = [f"S_{t}" for t in range(min(horizon, 2) + 1)] + ["eps_R"]
    series = {name: np.empty(cfg.n_paths) for name in names} if cfg.histograms else {}
    dump = out_dir / f"paths_{label}.csv"
    part = dump.with_name(dump.name + ".part")
    fh = contextlib.nullcontext()
    if cfg.dump_paths:
        fh = part.open("w", encoding="utf-8")
    done = 0

    def sink(cols):
        nonlocal done
        if cfg.dump_paths:
            write_path_dump(fh, cols, horizon, done)
        rows = slice(done, done + cols["eps"].size)
        picks = cols["s"][: len(names) - 1] + [cols["eps"]]
        for data, col in zip(series.values(), picks):
            data[rows] = col
        done = rows.stop

    try:
        with fh:
            stats, _ = simulate(sink=sink if cfg.dump_paths or cfg.histograms else None)
    except BaseException:
        if cfg.dump_paths:
            part.unlink(missing_ok=True)
        raise
    if cfg.dump_paths:
        part.replace(dump)
        written.append(dump)
    for name, data in series.items():
        written.append(out_dir / f"hist_{label}_{name}.csv")
        _write_histogram(written[-1], data, cfg.hist_bins)
    return stats


def _column_label(strike: float) -> str:
    if math.isnan(strike):
        return "custom"
    return f"K{strike:g}"


# ---------------------------------------------------------------------- #
# experiment runner
# ---------------------------------------------------------------------- #


def run_experiment(cfg: ExperimentConfig, out_dir: Path) -> int:
    """Run pricing + simulation per strike, write artifacts, return exit code."""
    try:
        model = cfg.build_model()
        require_aip(model)
    except AipViolationError as exc:
        # clamping cannot make an arbitrageable model's price finite
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFINITE_PRICE if cfg.clamp_infinite_price else EXIT_NO_ARBITRAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    out_dir = Path(out_dir)
    # The directories this run makes, deepest first, and the files it writes:
    # a run refused after it started removes them all.
    made = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
    out_dir.mkdir(parents=True, exist_ok=True)
    written = [out_dir / "effective_config.txt"]
    written[0].write_text(render_config(cfg), encoding="utf-8")

    if cfg.payoff == "custom-pwl":
        columns = [math.nan]
    else:
        columns = [float(k) for k in cfg.strikes]

    children = np.random.SeedSequence(cfg.seed).spawn(len(columns))

    stats_list: list[SimStats] = []
    try:
        for strike, child in zip(columns, children):
            label = _column_label(strike)
            if cfg.payoff == "asian-call":
                engine, claim = simulate_functional, asian_call_payoff(strike)
                v0 = asian_tree_price(claim, model, model.s_init)
                print(f"{label}: time-0 value at s0={model.s_init:g}: {v0:.6g}")
            else:
                make = {"call": call_payoff, "put": put_payoff}.get(cfg.payoff)
                payoff = make(strike) if make else cfg.custom_payoff()
                engine, claim = simulate_one, backward_induce(payoff, model)
                premium = initial_premium(claim, model)
                print(f"{label}: initial premium P0 = {premium:.6g}")
                if cfg.export_strategy:
                    _export_strategy_tables(out_dir, label, claim, model, written)
            simulate = partial(
                engine, model, claim, strike, cfg.n_paths, child, cfg.straddle_to_ask
            )
            stats_list.append(
                _simulate_strike(simulate, cfg, out_dir, label, model.horizon, written)
            )
    except (ValueError, MemoryError) as exc:
        for path in written:
            path.unlink(missing_ok=True)
        for d in made:
            d.rmdir()
        oom = isinstance(exc, MemoryError)
        print(
            f"error: out of memory with n_paths = {cfg.n_paths}" if oom else f"error: {exc}",
            file=sys.stderr,
        )
        return EXIT_ERROR

    if cfg.write_stats:
        text = format_stats_text(stats_list)
        (out_dir / "stats.txt").write_text(text, encoding="utf-8")
        (out_dir / "stats.csv").write_text(
            format_stats_csv(stats_list), encoding="utf-8"
        )
        print(text, end="")
    return EXIT_OK


# ---------------------------------------------------------------------- #
# entry point
# ---------------------------------------------------------------------- #


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors exit with EXIT_ERROR: argparse's usual 2 is EXIT_NO_ARBITRAGE."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def build_arg_parser() -> argparse.ArgumentParser:
    p = _ArgumentParser(
        prog="superhedge",
        description=(
            "Price claims under interval execution uncertainty and verify "
            "the hedge path-by-path over seeded scenarios."
        ),
    )
    p.add_argument("--config", type=Path, help="experiment config file")
    p.add_argument("--seed", help="override the RNG seed")
    p.add_argument("--paths", help="override the scenario count")
    p.add_argument("--strikes", help="override strikes, comma separated")
    p.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    p.add_argument("--dump-paths", action="store_true", help="write per-path records")
    p.add_argument("--histograms", action="store_true", help="write histogram files")
    p.add_argument(
        "--export-strategy",
        action="store_true",
        help="write sampled order mappings per step",
    )
    return p


def main(argv: Optional[list[str]] = None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        text = args.config.read_text(encoding="utf-8") if args.config else ""
        cfg = parse_config(text)
        overrides = {}
        flag_keys = {"seed": "seed", "paths": "n_paths", "strikes": "strikes"}
        for flag, key in flag_keys.items():
            value = getattr(args, flag)
            if value is not None:
                overrides[key] = _parse_value(key, value, f"--{flag}")
        for key in ("dump_paths", "histograms", "export_strategy"):
            if getattr(args, key):
                overrides[key] = True
        if overrides:
            cfg = replace(cfg, **overrides)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return run_experiment(cfg, args.out)


if __name__ == "__main__":
    sys.exit(main())
