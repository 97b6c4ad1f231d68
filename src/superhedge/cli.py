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
import math
import shutil
import sys
import tempfile
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
    require_tree_depth,
    uniform_bid_ask_model,
)
from .pwl import PwlFunction, call_payoff, put_payoff
from .simulation import (
    BATCH_SIZE,
    SimStats,
    pool_size,
    require_float64,
    simulate_functional,
    simulate_one,
    simulate_pooled,
    write_path_dump,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NO_ARBITRAGE = 2
EXIT_INFINITE_PRICE = 3

PAYOFF_TAGS = ("call", "put", "custom-pwl", "asian-call")
STRATEGY_SAMPLES = 512  # grid points of each exported strategy table
_STRIKE_CLAIMS = {"call": call_payoff, "put": put_payoff, "asian-call": asian_call_payoff}
_STAGE = ".superhedge-"  # name prefix of a run's staging directory


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
        if not self.strikes:
            raise ConfigError("strikes must be nonempty")
        if any(k <= 0 for k in self.strikes):
            raise ConfigError("strikes must be positive")
        if self.payoff != "custom-pwl":  # a strike's label names its column and files
            labels = [_column_label(float(k)) for k in self.strikes]
            for i, label in enumerate(labels):
                if label in labels[:i]:
                    raise ConfigError(f"strikes share the column label {label!r}")
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
        if self.export_strategy and self.payoff == "asian-call":
            raise ConfigError(
                "export_strategy needs a piecewise-linear payoff; "
                "asian-call has no strategy tables"
            )
        if self.hist_bins < 1:
            raise ConfigError("hist_bins must be at least 1")
        if not 0 <= self.seed < 2**64:  # the root of every spawned stream
            raise ConfigError("seed must fit in 64 unsigned bits")
        try:  # build_model refuses draw ranges and horizons that build no model
            if self.payoff == "asian-call":  # its tree walks have 2^horizon leaves
                require_tree_depth(self.horizon)
            claims = [f for _, f in self._claims()]
            require_float64(self.build_model(), claims, self.n_paths, self.payoff)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def _claims(self) -> list:
        """(strike, claim) of each column: one per strike, or custom-pwl's one."""
        if self.payoff != "custom-pwl":
            return [(float(k), _STRIKE_CLAIMS[self.payoff](float(k))) for k in self.strikes]
        pwl = (self.payoff_breakpoints, self.payoff_values)
        return [(math.nan, PwlFunction(*pwl, self.payoff_left_slope, self.payoff_right_slope))]

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
            fields.update(m_lo=bounds["k_down"], m_hi=bounds["k_up"], spr_lo=0.0, spr_hi=0.0)
    try:
        cfg = ExperimentConfig(**fields)
        if bounds and saw_dist_keys:
            # raises when the explicit bounds contradict the draw ranges
            kd, ku = bounds["k_down"], bounds["k_up"]
            StepSpec(kd, ku, cfg.m_lo, cfg.m_hi, cfg.spr_lo, cfg.spr_hi)
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


@contextlib.contextmanager
def _naming(path: Path):
    """Give an OSError that names no file, as a write to a full disk
    raises, the name ``path``."""
    try:
        yield
    except OSError as exc:
        if exc.filename is None:
            exc.filename = str(path)
        raise


def _histogram(chunks, bins: int, lo: float, hi: float):
    """np.histogram(series, bins) of a series given in chunks, whose min is
    ``lo`` and max ``hi``: (counts, edges).

    np.histogram reads a series only through its min and max, which fix the
    edges (each moved 0.5 out when they are equal), and through each
    value's bin.  So the chunks' counts over range=(lo, hi) add up to the
    series' counts, and the edges are the series' edges, bit for bit.
    """
    counts, edges = np.histogram((), bins, range=(lo, hi))
    for chunk in chunks:
        counts += np.histogram(chunk, bins, range=(lo, hi))[0]
    return counts, edges


def _spilled(spill: Path):
    """The floats of a spill file, BATCH_SIZE at a time, in one buffer."""
    buf = np.empty(BATCH_SIZE)
    with spill.open("rb") as fh:
        while n := fh.readinto(buf) // buf.itemsize:
            yield buf[:n]


def _write_histogram(path: Path, spill: Path, bins: int, lo: float, hi: float):
    """Bin the series in the file ``spill``, whose min is ``lo`` and max
    ``hi``, chunk by chunk into ``bins`` equal bins, and write them."""
    counts, edges = _histogram(_spilled(spill), bins, lo, hi)
    edges = [float(e) for e in edges]
    with _naming(path), path.open("w", encoding="utf-8") as fh:
        fh.write("bin_lo,bin_hi,count\n")
        for i, c in enumerate(counts):
            fh.write(f"{edges[i]!r},{edges[i + 1]!r},{int(c)}\n")


def _export_strategy_tables(out_dir, label, pricing, model):
    """Per-step sampled order mappings z -> theta_t(z)."""
    lo_mult = hi_mult = 1.0
    for t, step in enumerate(model.steps[: model.horizon]):
        lo_mult *= step.k_down
        hi_mult *= step.k_up
        grid = np.linspace(model.s_init * lo_mult, model.s_init * hi_mult, STRATEGY_SAMPLES)
        theta = pricing.strategy(t, model)(grid)
        path = out_dir / f"strategy_{label}_t{t}.csv"
        with _naming(path), path.open("w", encoding="utf-8") as fh:
            fh.write("s,theta\n")
            for s_val, th in zip(grid, theta):
                fh.write(f"{float(s_val)!r},{float(th)!r}\n")


def _simulate_strike(
    simulate, cfg: ExperimentConfig, out_dir: Path, label: str, horizon: int
) -> SimStats:
    """Stats of ``simulate(sink=...)`` for one strike, writing its dump and
    histograms in ``out_dir``.

    The sink appends each finished tile to the path dump while the
    simulation runs, and each histogram series (S_0..S_min(T,2) and eps_R)
    to a spill file of its own, 8 bytes per path, keeping the series'
    running min and max.  So memory holds one batch of the statistics' rows
    and one tile of the others, whatever n_paths.  Once the strike is done,
    each spill is binned chunk by chunk into its histogram, or refused when
    its range cannot hold ``hist_bins`` finite-sized bins, and deleted.  The
    histogram series are rows the statistics read, so a run that bins but
    does not dump keeps the compact workspace; a run that neither dumps nor
    bins passes no sink.
    """
    names = _hist_series(horizon)
    hists = [out_dir / f"hist_{label}_{name}.csv" for name in names] if cfg.histograms else []
    spills = [hist.with_suffix(".f64") for hist in hists]
    lo, hi = [math.inf] * len(hists), [-math.inf] * len(hists)
    dump = out_dir / f"paths_{label}.csv"
    done = 0

    with contextlib.ExitStack() as files:

        def create(path: Path):
            files.enter_context(_naming(path))
            return files.enter_context(path.open("wb"))

        fh = create(dump) if cfg.dump_paths else None
        outs = [create(spill) for spill in spills]

        def sink(cols):
            nonlocal done
            if fh is not None:
                with _naming(dump):
                    write_path_dump(fh, cols, horizon, done)
            picks = cols["s"][: len(names) - 1] + [cols["eps"]]
            for j, (out, col) in enumerate(zip(outs, picks)):
                with _naming(spills[j]):
                    out.write(col)
                # np.minimum keeps a NaN, whose range np.histogram refuses
                lo[j] = float(np.minimum(lo[j], col.min()))
                hi[j] = float(np.maximum(hi[j], col.max()))
            done += cols["eps"].size

        stats, _ = simulate(sink=sink if fh is not None or outs else None)
    for j, (hist, spill) in enumerate(zip(hists, spills)):
        try:
            _write_histogram(hist, spill, cfg.hist_bins, lo[j], hi[j])
        except ValueError:  # np.histogram refuses the range before any binning
            raise ValueError(
                f"{hist.name}: the range [{lo[j]!r}, {hi[j]!r}] cannot hold "
                f"hist_bins = {cfg.hist_bins} finite-sized bins"
            ) from None
        spill.unlink()
    return stats


def _hist_series(horizon: int) -> list[str]:
    """The series a strike bins: S_0..S_min(T,2) and eps_R."""
    return [f"S_{t}" for t in range(min(horizon, 2) + 1)] + ["eps_R"]


def _require_spill_space(cfg: ExperimentConfig, horizon: int, where: Path):
    """Refuse histograms whose series spill, 8 bytes per path each, cannot
    fit in the free space of the file system holding ``where``."""
    need = 8 * len(_hist_series(horizon)) * cfg.n_paths
    free = shutil.disk_usage(where).free
    if need > free:
        raise ValueError(
            f"histograms of n_paths = {cfg.n_paths} spill {need} bytes per "
            f"strike to disk, and {where} has {free} bytes free"
        )


def _column_label(strike: float) -> str:
    if math.isnan(strike):
        return "custom"
    return f"K{strike:g}"


# ---------------------------------------------------------------------- #
# experiment runner
# ---------------------------------------------------------------------- #


def run_experiment(cfg: ExperimentConfig, out_dir: Path) -> int:
    """Run pricing + simulation per strike, write artifacts, return exit code.

    A large enough stats-only piecewise-linear run simulates its (strike,
    batch) units in a pool of forked worker processes, one per usable CPU
    (see `simulation.pool_size`), and writes the same bytes as a run in
    this process.  A dump or histograms take the tiles in path order, and
    the path-dependent engine's chunks share one generator, so those runs
    stay in this process.
    """
    try:
        model = cfg.build_model()
        require_aip(model)
    except AipViolationError as exc:
        # clamping cannot make an arbitrageable model's price finite
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFINITE_PRICE if cfg.clamp_infinite_price else EXIT_NO_ARBITRAGE

    # Every file is written in a staging directory in out_dir, or in the
    # nearest of its parents that exists, and moves into out_dir once the
    # whole run has succeeded; a run that stops leaves out_dir as it was.
    out_dir = Path(out_dir)
    home = next(d for d in (out_dir, *out_dir.parents) if d.exists())
    columns = cfg._claims()
    children = np.random.SeedSequence(cfg.seed).spawn(len(columns))
    serial = cfg.payoff == "asian-call" or cfg.dump_paths or cfg.histograms
    workers = 1 if serial else pool_size(len(columns), cfg.n_paths)
    pooled = []  # (strike, pricing, seed) of each column a pool simulates

    stats_list: list[SimStats] = []
    try:
        if cfg.histograms:  # one strike's series spill at a time
            _require_spill_space(cfg, model.horizon, home)
        with tempfile.TemporaryDirectory(prefix=_STAGE, dir=home) as staged:
            stage = Path(staged)
            for (strike, claim), child in zip(columns, children):
                label = _column_label(strike)
                if cfg.payoff == "asian-call":
                    engine = simulate_functional
                    v0 = asian_tree_price(claim, model, model.s_init)
                    print(f"{label}: time-0 value at s0={model.s_init:g}: {v0:.6g}")
                else:
                    # the histogram series are rows the statistics read
                    engine = partial(simulate_one, whole_paths=cfg.dump_paths)
                    claim = backward_induce(claim, model)
                    premium = initial_premium(claim, model)
                    print(f"{label}: initial premium P0 = {premium:.6g}")
                    if cfg.export_strategy:
                        _export_strategy_tables(stage, label, claim, model)
                if workers > 1:  # every strike is priced before the pool forks
                    pooled.append((strike, claim, child))
                    continue
                simulate = partial(
                    engine, model, claim, strike, cfg.n_paths, child, cfg.straddle_to_ask
                )
                stats_list.append(_simulate_strike(simulate, cfg, stage, label, model.horizon))
            if pooled:
                stats_list = simulate_pooled(
                    model, pooled, cfg.n_paths, cfg.straddle_to_ask, workers
                )
            texts = {"effective_config.txt": render_config(cfg)}
            if cfg.write_stats:
                text = format_stats_text(stats_list)
                texts.update({"stats.txt": text, "stats.csv": format_stats_csv(stats_list)})
            for name, body in texts.items():
                with _naming(stage / name):
                    (stage / name).write_text(body, encoding="utf-8")
            out_dir.mkdir(parents=True, exist_ok=True)
            for path in stage.iterdir():  # one rename each, on one file system
                path.replace(out_dir / path.name)
    except (ValueError, MemoryError, OSError) as exc:
        named = Path(getattr(exc, "filename", None) or "")
        for place in (named, named.parent):  # name a staged path as in out_dir
            if place.parent == home and place.name.startswith(_STAGE):
                exc.filename = str(out_dir / named.relative_to(place))
        if isinstance(exc, MemoryError):  # the inputs that size memory
            exc = MemoryError(
                f"out of memory with n_paths = {cfg.n_paths}, "
                f"horizon = {cfg.horizon}, hist_bins = {cfg.hist_bins}"
            )
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    if cfg.write_stats:
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
