"""Correctness checks read from a run's output files (standard library only).

Each check names the claim (output column) it fails, so the benchmark can
count failed claims against claims attempted.
"""

from __future__ import annotations

import math
from pathlib import Path

# Criterion-1 reference values and tolerances of the acceptance suite
# (tests/test_acceptance.py), keyed by strike.
TABLE_MEAN_S0 = {50: 95.002, 75: 94.983, 100: 95.006, 125: 94.98, 150: 95.001}
TABLE_MEAN_V0 = {50: 46.503, 75: 29.357, 100: 16.960, 125: 11.244, 150: 6.7}
TABLE_MEAN_EPS = {50: 0.017, 75: 0.077, 100: 0.076, 125: 0.064, 150: 0.039}
TABLE_STD_EPS = {50: 0.024, 75: 0.045, 100: 0.04, 125: 0.037, 150: 0.0317}


def column_label(strike: float) -> str:
    """Output-file label of a strike's column, as the CLI writes it."""
    return f"K{strike:g}"


def read_stats(path: Path) -> dict[str, list[float]]:
    """stats.csv rows: label -> one value per claim."""
    rows = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        label, *cells = line.split(",")
        rows[label] = [float(c) for c in cells]
    return rows


def _table_problems(stats: dict[str, list[float]], i: int) -> list[str]:
    k = int(stats["K"][i])
    s0, v0 = stats["E(S0)"][i], stats["E(V0)"][i]
    eps, sd = stats["E(eps_R)"][i], stats["sigma(eps_R)"][i]
    lo, hi = stats["min eps_R"][i], stats["max eps_R"][i]
    out = []
    if not abs(s0 - TABLE_MEAN_S0[k]) <= 0.2:
        out.append(f"E(S0)={s0:.4f}")
    if not abs(v0 - TABLE_MEAN_V0[k]) <= 0.01 * TABLE_MEAN_V0[k]:
        out.append(f"E(V0)={v0:.4f}")
    if not abs(eps - TABLE_MEAN_EPS[k]) <= 0.005:
        out.append(f"E(eps_R)={eps:.5f}")
    if not abs(sd - TABLE_STD_EPS[k]) <= 0.005:
        out.append(f"sigma(eps_R)={sd:.5f}")
    if not hi <= 0.20:
        out.append(f"max eps_R={hi:.5f}")
    if not 0.0 <= lo <= 1e-4:
        out.append(f"min eps_R={lo:.3e}")
    return out


def _dump_problems(path: Path, n_paths: int) -> list[str]:
    if not path.is_file():
        return [f"{path.name} missing"]
    rows, bad = 0, 0
    with path.open(encoding="utf-8") as fh:
        header = next(fh).rstrip("\n").split(",")
        if header[-1] != "eps_r":
            return [f"{path.name}: last column is {header[-1]!r}, not 'eps_r'"]
        for line in fh:
            rows += 1
            eps = float(line.rsplit(",", 1)[1])
            if not eps >= 0.0:
                bad += 1
    out = []
    if rows != n_paths:
        out.append(f"{path.name}: {rows} rows, expected {n_paths}")
    if bad:
        out.append(f"{path.name}: {bad} rows with eps_r < 0 or NaN")
    return out


def _hist_problems(out_dir: Path, label: str, horizon: int, n_paths: int) -> list[str]:
    series = ["S_0"] + [f"S_{t}" for t in (1, 2) if t <= horizon] + ["eps_R"]
    out = []
    for name in series:
        path = out_dir / f"hist_{label}_{name}.csv"
        if not path.is_file():
            out.append(f"{path.name} missing")
            continue
        lines = path.read_text(encoding="utf-8").splitlines()[1:]
        total = sum(int(line.rsplit(",", 1)[1]) for line in lines)
        if total != n_paths:
            out.append(f"{path.name}: counts sum to {total}, expected {n_paths}")
    return out


def check_outputs(workload: str, settings: dict, out_dir: Path, tiny: bool) -> dict[str, list[str]]:
    """Problems per claim label; a claim with an empty list passed.

    Every workload: ``min eps_R >= 0`` (NaN fails) for each claim.
    ``table``: the criterion-1 tolerances, which need the full 10^6 paths
    and are skipped at the self-tests' tiny size.  ``outputs``: the dump has
    ``n_paths`` rows with a nonnegative ``eps_r`` column, and each histogram's
    counts sum to ``n_paths``.
    """
    strikes = settings["strikes"]
    problems = {column_label(k): [] for k in strikes}
    stats_path = out_dir / "stats.csv"
    if not stats_path.is_file():
        return {label: ["stats.csv missing"] for label in problems}
    stats = read_stats(stats_path)
    for i, label in enumerate(problems):
        lo = stats["min eps_R"][i]
        if math.isnan(lo) or lo < 0.0:
            problems[label].append(f"min eps_R={lo!r}")
        if workload == "table" and not tiny:
            problems[label] += _table_problems(stats, i)
        if settings.get("dump_paths"):
            problems[label] += _dump_problems(out_dir / f"paths_{label}.csv", settings["n_paths"])
        if settings.get("histograms"):
            problems[label] += _hist_problems(
                out_dir, label, settings["horizon"], settings["n_paths"]
            )
    return problems
