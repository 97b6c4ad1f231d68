"""superhedge benchmark: one workload end to end, or its per-layer trace.

Usage, from the repository root:

    python3 perfbench/run.py --workload table --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Each workload runs in fresh single-threaded interpreters (`worker.py`), one
process at a time: a closed loop with one client, a batch user who waits for
each result.  With ``--trace 0`` the end-to-end metrics are printed; with
``--trace 1`` a separate traced run prints the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A claim is attempted once per
``run_experiment`` call and fails on a nonzero exit code, on output bytes
that differ between calls with the same seed, or on a failed output check
(`checks.py`).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import check_outputs  # noqa: E402
from tracer import METRICS as LAYER_METRICS  # noqa: E402
from worker import PINNED_ENV, WorkerError, spawn  # noqa: E402
from workloads import WORKLOADS, settings  # noqa: E402

OUT_ROOT = ROOT / ".perfbench_out"
DIGESTS = HERE / "reference_digests.json"


def deadline_s(seconds: float) -> float:
    """Everything one workload does must end within this many seconds: the
    measuring window, plus room for the last cycle and the set-up."""
    return 2 * seconds + 60


END_TO_END = {
    "paths_per_s": "paths/s",
    "price_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def _failures(data: dict, problems: dict[str, list[str]]) -> int:
    """Failed claims over every run: all claims of a run whose exit code is
    nonzero or whose output bytes differ from the last run's; otherwise the
    claims whose output checks failed (all runs wrote the same bytes)."""
    runs = data["runs"]
    final = runs[-1]["digests"]
    bad_claims = sum(1 for p in problems.values() if p)
    failed = 0
    for run in runs:
        if run["rc"] != 0 or run["digests"] != final:
            failed += data["claims"]
        else:
            failed += bad_claims
    return failed


def _digest_note(workload: str, seed: int, digest: str | None, tiny: bool) -> str:
    if digest is None:
        return "stats.csv missing"
    ref = None
    if DIGESTS.is_file() and not tiny:
        ref = json.loads(DIGESTS.read_text()).get(workload, {}).get(str(seed))
    if ref is None:
        verdict = "no reference for this seed"
    elif ref == digest:
        verdict = "matches the reference"
    else:
        verdict = f"DIFFERS from the reference {ref}"
    return f"stats.csv sha256 {digest} ({verdict})"


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    out = OUT_ROOT / name
    common = ["--workload", name, "--seed", str(seed), "--seconds", repr(seconds), "--out", str(out)]
    if tiny:
        common.append("--tiny")
    lines = []
    try:
        data = spawn(
            [*common, "--mode", "trace" if trace else "measure"], deadline_s(seconds), own_session=True
        )
        problems = check_outputs(name, settings(name, tiny), out, tiny)
        digest = data["runs"][-1]["digests"].get("stats.csv")
    finally:
        shutil.rmtree(out, ignore_errors=True)

    attempted = data["claims"] * len(data["runs"])
    failed = _failures(data, problems)
    for label, probs in problems.items():
        if probs:
            lines.append(f"  check failed for {label}: {'; '.join(probs)}")

    if trace:
        metrics = _layer_metrics(data, lines)
    else:
        runs, prices = data["runs"], data["price_totals"].values()
        paths = data["claims"] * data["n_paths"]
        metrics = {
            "paths_per_s": paths / statistics.median(r["wall_s"] for r in runs),
            "price_s": statistics.median(seconds / calls for seconds, calls in prices),
            "setup_s": statistics.median(data["setup_samples"]),
            "peak_rss_mb": data["peak_rss_kb"] / 1024,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
        lines.append(
            f"  samples: {len(runs)} runs of {paths} paths, {len(prices)} claims priced "
            f"{sum(calls for _, calls in prices)} times, {len(data['setup_samples'])} set-up probes"
        )
        # CPU time well below wall time would mean the process waited (I/O,
        # or a host that took the CPU away); near 1, slow runs were slow on
        # the CPU itself.
        cpu_share = sum(r["cpu_s"] for r in runs) / sum(r["wall_s"] for r in runs)
        lines.append(f"  run_experiment CPU time / wall time {cpu_share:.4f}")
    lines.append(f"  failed_frac {failed / attempted:.6g} fraction ({failed} of {attempted} claims)")
    lines.append("  " + _digest_note(name, seed, digest, tiny))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "lines": lines,
    }


def _layer_metrics(data: dict, lines: list[str]) -> dict:
    """Median over traced runs of each per-layer value, or absent with why."""
    missing = data["missing"]
    values = {
        key: statistics.median(run[key] for run in data["layers"])
        for key in data["layers"][0]
    }
    if data["g0"] is not None:
        values["pwl.g0_breakpoints"], values["pwl.g0_den_bits"] = data["g0"]
    else:
        values["pwl.g0_breakpoints"] = values["pwl.g0_den_bits"] = 0
    values["trace.overhead_frac"] = (
        statistics.median(data["traced_s"]) / statistics.median(data["untraced_s"]) - 1
    )
    metrics = {}
    for key, (unit, needs) in LAYER_METRICS.items():
        gone = [spec for span in needs for spec in missing.get(span, [])]
        if gone:
            metrics[key] = {"value": None, "unit": unit, "absent": "missing " + ", ".join(gone)}
        else:
            metrics[key] = {"value": values[key], "unit": unit}
    lines.append(
        f"  samples: {len(data['traced_s'])} traced and {len(data['untraced_s'])} untraced runs"
    )
    lines.append("  wrapped private helpers: " + ", ".join(data["private"]))
    lines.append("  spans of the last traced run (calls, total s, self s):")
    for name, (calls, total, own) in sorted(data["spans"].items()):
        lines.append(f"    {name:<28} {calls:>9} {total:>11.6f} {own:>11.6f}")
    return metrics


def machine_line() -> str:
    import numpy

    pinned = " ".join(f"{k}={v}" for k, v in PINNED_ENV.items())
    return (
        f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={numpy.__version__}; worker env: {pinned}"
    )


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="self-test size: few paths, short horizons")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "superhedge" / "__init__.py").is_file():
        print(f"error: no superhedge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            res = run_workload(name, args.seed, args.seconds, bool(args.trace), args.tiny)
        except WorkerError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        results[name] = res
        print(f"workload {name} seed {args.seed} trace {args.trace}")
        for key, m in res["metrics"].items():
            note = f"  ABSENT: {m['absent']}" if m["value"] is None else ""
            value = "-" if m["value"] is None else f"{m['value']:.6g}"
            print(f"  {key:<30} {value:>14} {m['unit']}{note}")
        print("\n".join(res["lines"]))
    print(machine_line())

    if len(names) == 1:
        res = results[names[0]]
        metrics = res["metrics"]
    else:
        res = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
        }
        metrics = {f"{w}/{k}": m for w, r in results.items() for k, m in r["metrics"].items()}
    final = {k: res[k] for k in ("correct", "attempted", "failed")}
    final["metrics"] = metrics
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
