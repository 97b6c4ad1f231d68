"""Self-tests of the benchmark at a tiny size.

Run from the repository root:

    python3 -m pytest perfbench/selftest.py -q

They check that every metric is reported with a finite value and a unit,
that self times are never negative, that exact counts repeat, that a hook
whose name has gone is reported absent rather than zero, and that the
benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
from checks import check_outputs  # noqa: E402
from workloads import WORKLOADS, config_text, settings  # noqa: E402

EXACT_COUNTS = (
    "pwl.g0_den_bits",
    "simulation.tree_value_calls",
    "pricing.aip_checks",
    "simulation.batches",
)


def bench(trace: int, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    cmd = [sys.executable, str(script), "--workload", "all", "--seed", "3",
           "--seconds", "0.1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced_twice():
    return result(bench(1)), result(bench(1))


def test_end_to_end_metrics_present_finite_with_units():
    res = result(bench(0))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    for w in WORKLOADS:
        for key, unit in run.END_TO_END.items():
            m = res["metrics"][f"{w}/{key}"]
            assert m["unit"] == unit
            assert math.isfinite(m["value"]) and m["value"] > 0, (w, key, m)


def test_layer_metrics_present_finite_with_units(traced_twice):
    res = traced_twice[0]
    assert res["correct"] and res["failed"] == 0
    for w in WORKLOADS:
        for key, (unit, _) in tracer.METRICS.items():
            m = res["metrics"][f"{w}/{key}"]
            assert m["unit"] == unit and "absent" not in m, (w, key, m)
            assert math.isfinite(m["value"]), (w, key, m)


def test_self_times_nonnegative(traced_twice):
    for res in traced_twice:
        for key, m in res["metrics"].items():
            if m["unit"] == "s":
                assert m["value"] >= 0.0, (key, m)


def test_exact_counts_repeat(traced_twice):
    first, second = traced_twice
    for w in WORKLOADS:
        for key in EXACT_COUNTS:
            name = f"{w}/{key}"
            assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_self_time_is_duration_minus_children():
    spans = tracer.Tracer()

    def leaf():
        time.sleep(0.002)

    leaf_t = spans.span("leaf", leaf)

    def root():
        leaf_t()
        leaf_t()
        time.sleep(0.002)

    spans.span("root", root)()
    dur, own = spans.durations(), spans.self_times()
    root_i = spans.name.index("root")
    assert all(s >= 0 for s in own)
    assert sum(own) == dur[root_i]
    assert own[root_i] >= 2_000_000


def test_missing_or_unreadable_hook_reported_absent_not_zero(tmp_path, monkeypatch):
    gone = "superhedge.simulation:_tree_value_removed"
    hooks = tuple(
        (name, gone if name == "simulation.tree_value" else spec, kind)
        for name, spec, kind in tracer.HOOKS
    )
    monkeypatch.setattr(tracer, "HOOKS", hooks)

    def unreadable(counts, args, result):
        raise IndexError("result changed shape")

    monkeypatch.setitem(tracer.COUNTERS, "simulation.collect", unreadable)
    cli, cfg = worker._setup(config_text("asian", 3, tiny=True))
    data = worker.trace(cli, cfg, tmp_path / "out", 0.0)
    metrics = run._layer_metrics(data, [])
    absent = metrics["simulation.tree_value_calls"]
    assert absent["value"] is None and gone in absent["absent"]
    uncounted = metrics["simulation.collect_mb"]
    assert uncounted["value"] is None and "counting failed" in uncounted["absent"]
    assert metrics["simulation.draw_s"]["value"] > 0
    assert metrics["simulation.functional_path_s"]["value"] > 0


def test_refuses_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = bench(0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: unit for k, (unit, _) in tracer.METRICS.items()
    }


def test_checks_flag_bad_outputs(tmp_path):
    """A negative hedging error, a short dump and a histogram that lost a
    path each fail the claim."""
    (tmp_path / "stats.csv").write_text("K,100.0\nmin eps_R,-1e-09\n", encoding="utf-8")
    (tmp_path / "paths_K100.csv").write_text("path_id,eps_r\n0,0.5\n1,-0.25\n", encoding="utf-8")
    for name in ("S_0", "S_1", "S_2", "eps_R"):
        (tmp_path / f"hist_K100_{name}.csv").write_text(
            "bin_lo,bin_hi,count\n0.0,1.0,2\n", encoding="utf-8"
        )
    cfg = {**settings("outputs"), "n_paths": 3}
    problems = check_outputs("outputs", cfg, tmp_path, tiny=False)["K100"]
    text = "; ".join(problems)
    assert "min eps_R=-1e-09" in text
    assert "2 rows, expected 3" in text
    assert "1 rows with eps_r < 0" in text
    assert "counts sum to 2, expected 3" in text
