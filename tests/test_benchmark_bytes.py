"""Same-bytes guard: the benchmark's workloads reproduce their reference
``stats.csv`` digests.

The configs come from ``perfbench/workloads.py`` (standard library only) and
the digests from ``perfbench/reference_digests.json``, so a change that moves
any seeded output byte of the paper's table, the T=40 run or the Asian
engine fails here, not only in a benchmark run.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from superhedge.cli import parse_config, run_experiment

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEED = 1


def _workloads():
    spec = importlib.util.spec_from_file_location("workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["table", "long_horizon", "asian"])
def test_stats_digest_matches_reference(tmp_path, name):
    cfg = parse_config(_workloads().config_text(name, SEED))
    assert run_experiment(cfg, tmp_path) == 0
    digest = hashlib.sha256((tmp_path / "stats.csv").read_bytes()).hexdigest()
    reference = json.loads((PERFBENCH / "reference_digests.json").read_text())
    assert digest == reference[name][str(SEED)]


def test_outputs_path_dump_pinned(tmp_path):
    """The outputs workload's dump at seed 1 keeps the bytes np.savetxt wrote
    with "%d" / "%.17g" before the dump writer was vectorised."""
    cfg = parse_config(_workloads().config_text("outputs", SEED))
    assert run_experiment(cfg, tmp_path) == 0
    digest = hashlib.sha256((tmp_path / "paths_K100.csv").read_bytes()).hexdigest()
    assert digest == "28edf88a42785e8036c0dce7e4cc8bb618b2f1b8fe868317b04b8a6a9b99683c"
    stats = hashlib.sha256((tmp_path / "stats.csv").read_bytes()).hexdigest()
    reference = json.loads((PERFBENCH / "reference_digests.json").read_text())
    assert stats == reference["outputs"][str(SEED)]


@pytest.mark.parametrize(
    "seed, digest",
    [
        (1, "59034d0b29438be228fd28b93d4a27ff50fbf9eeeacab57d4df22df0bba4bb95"),
        (23, "eb4251ea2be8614788033e024c7fd881e484d787184d39bba4ce0ef231a20c3b"),
    ],
)
def test_outputs_histograms_pinned(tmp_path, seed, digest):
    """The outputs workload's histogram files keep the bytes np.histogram
    wrote from the whole in-memory series, before the series were spilled to
    disk and binned chunk by chunk: sha256 over each file's name and bytes."""
    cfg = parse_config(_workloads().config_text("outputs", seed))
    assert run_experiment(cfg, tmp_path) == 0
    h = hashlib.sha256()
    for path in sorted(tmp_path.glob("hist_*")):
        h.update(path.name.encode() + b"\n" + path.read_bytes())
    assert h.hexdigest() == digest
