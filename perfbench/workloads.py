"""The benchmark's workloads: config text made from a seed, and why each exists.

Every workload is one `superhedge` experiment config.  The seed passed to the
benchmark becomes the config's ``seed``; everything else is fixed, so the same
seed always gives the same inputs and the same output bytes.

Why each workload exists, and which layers it loads and bypasses, is
recorded in BENCHMARK.json and README.md.

Standard library only: the set-up probe imports this module before the
program, so it must not pull in numpy or the package itself.
"""

from __future__ import annotations

# Caps for the self-tests' tiny runs: every layer still runs, in well under a
# second per workload.
TINY_CAPS = {"n_paths": 200, "horizon": 8}

WORKLOADS = {
    "table": {"horizon": 2, "strikes": (50, 75, 100, 125, 150), "n_paths": 1_000_000},
    "long_horizon": {"horizon": 40, "strikes": (100,), "n_paths": 20_000},
    "asian": {"horizon": 3, "payoff": "asian-call", "strikes": (90, 100, 110), "n_paths": 200},
    "outputs": {
        "horizon": 2,
        "strikes": (100,),
        "n_paths": 200_000,
        "dump_paths": True,
        "histograms": True,
        "export_strategy": True,
    },
}


def settings(name: str, tiny: bool = False) -> dict:
    """Config keys of a workload, path counts and horizons capped if tiny."""
    out = dict(WORKLOADS[name])
    if tiny:
        for key, cap in TINY_CAPS.items():
            if key in out:
                out[key] = min(out[key], cap)
    return out


def config_text(name: str, seed: int, tiny: bool = False) -> str:
    lines = [f"# superhedge benchmark workload {name}"]
    for key, value in settings(name, tiny).items():
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, tuple):
            value = ", ".join(str(v) for v in value)
        lines.append(f"{key} = {value}")
    lines.append(f"seed = {int(seed)}")
    return "\n".join(lines) + "\n"
