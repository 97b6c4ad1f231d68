"""The names the package must keep, and only those.

Every entry point that ``perfbench/tracer.py`` wraps must still resolve: a
missing one reads as an absent per-layer metric in the benchmark, not as a
failed test there.  The public API holds what the CLI calls plus the
paper's objects, listed here by name.
"""

import importlib.util
from pathlib import Path

import pytest

import superhedge
from superhedge import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tracer():
    spec = importlib.util.spec_from_file_location("tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _tracer()

# Public names the CLI does not import: each is an object of the paper or
# of its verification protocol.
PAPER_OBJECTS = {
    "Interval": "the price interval a step's support spans",
    "StrategyFn": "the hedging strategy theta_t",
    "check_aip": "the per-step AIP verdicts",
    "one_step_price": "the one-step super-hedging price, any claim",
    "upper_concave_envelope": "the concave envelope behind every price",
    "draw_step": "the draw of one step's random interval",
    "mid_execute": "the execution at the first and last steps",
    "run_path_functional": "one path of the path-dependent protocol",
}


@pytest.mark.parametrize("spec", sorted({spec for _, spec, _ in TRACER.HOOKS}))
def test_every_hook_target_resolves(spec):
    assert TRACER._resolve(spec) is not None, f"{spec} no longer exists"


def test_public_names_are_cli_or_paper_objects():
    public = set(superhedge.__all__)
    assert all(hasattr(superhedge, name) for name in public)
    from_cli = {n for n in public if getattr(cli, n, None) is getattr(superhedge, n)}
    assert public - from_cli == set(PAPER_OBJECTS)
