"""One workload in a fresh interpreter; prints its raw measurements as JSON.

`run.py` starts this script with every thread pool pinned to one thread, and
only one workload process computes at a time.  Modes:

* ``setup``: import the package, parse the config, stop.  Reports the time
  from process start (the spawn timestamp passed in ``PERFBENCH_SPAWN``) to
  the first layer call.
* ``measure``: untraced.  Repeats a cycle while another fits in
  ``--seconds`` (at least three times): one set-up probe (a ``setup``
  process), a block of pricing calls timed on their own, then one
  ``run_experiment`` call.  Interleaving spreads every metric's samples
  over the whole window, so changes in machine speed hit all of them alike.
* ``trace``: one call with call counters only, then alternate untraced
  and traced ``run_experiment`` calls and report the per-layer values of
  each traced one.

The program is driven only through its public entry points:
``cli.parse_config`` + ``run_experiment`` for runs, and ``backward_induce``,
``initial_premium`` and ``asian_tree_price`` for prices.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

from workloads import WORKLOADS, config_text  # noqa: E402

SPAWN_ENV = "PERFBENCH_SPAWN"
# Every workload process runs with each thread pool pinned to one thread.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
# Pricing gets this share of each measure cycle.
PRICE_SHARE = 0.25
FIRST_PRICE_BLOCK_S = 0.5
MIN_CYCLES = 3
PROBE_TIMEOUT_S = 30.0


class WorkerError(RuntimeError):
    pass


def spawn(args: list[str], timeout: float, own_session: bool = False) -> dict:
    """Run this script in a fresh pinned interpreter; parse its JSON line.

    With ``own_session`` the child leads a process group of its own, so a
    timeout or an interrupt stops it together with any probe it started.
    """
    if timeout <= 0:
        raise WorkerError("out of time before starting a worker")
    env = {**os.environ, **PINNED_ENV, SPAWN_ENV: repr(time.monotonic())}
    with subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), *args],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=own_session,
    ) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except BaseException as exc:
            if own_session:
                os.killpg(proc.pid, signal.SIGKILL)
            else:
                proc.kill()
            proc.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise WorkerError(f"worker {' '.join(args)} timed out") from None
            raise
    if proc.returncode != 0:
        raise WorkerError(f"worker {' '.join(args)} exited {proc.returncode}:\n{err}")
    return json.loads(out.strip().splitlines()[-1])


def _setup(text: str):
    """Import the package and parse the config: everything before layer work."""
    sys.path.insert(0, str(ROOT / "src"))
    import superhedge
    from superhedge import cli

    if not Path(superhedge.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"superhedge imported from {superhedge.__file__}, not {ROOT / 'src'}")
    return cli, cli.parse_config(text)


def _digests(out: Path) -> dict[str, str]:
    """sha256 of each output file, read in chunks: the worker's peak RSS must
    hold the program's buffers, not a copy of a 40 MB dump."""
    digests = {}
    for p in sorted(out.iterdir()):
        if p.is_file():
            with p.open("rb") as fh:
                digests[p.name] = hashlib.file_digest(fh, "sha256").hexdigest()
    return digests


def _run_once(cli, cfg, out: Path) -> dict:
    """One `run_experiment` call into an emptied directory."""
    shutil.rmtree(out, ignore_errors=True)
    cpu = time.process_time_ns()
    start = time.perf_counter_ns()
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.run_experiment(cfg, out)
    wall_ns = time.perf_counter_ns() - start
    cpu_s = (time.process_time_ns() - cpu) / 1e9
    return {
        "rc": rc,
        "wall_s": wall_ns / 1e9,
        "wall_ns": wall_ns,
        "cpu_s": cpu_s,
        "digests": _digests(out),
    }


def _price_once(cfg, model, strike) -> float:
    """Seconds for one claim's price from the public library calls."""
    from superhedge import pricing, pwl

    if cfg.payoff == "asian-call":
        payoff = pricing.asian_call_payoff(strike)
        start = time.perf_counter()
        pricing.asian_tree_price(payoff, model, model.s_init)
    else:
        payoff = pwl.call_payoff(strike)
        start = time.perf_counter()
        pricing.initial_premium(pricing.backward_induce(payoff, model), model)
    return time.perf_counter() - start


def _price_block(cfg, model, budget_s: float, totals: dict):
    """Price every claim in turn until the budget is spent (at least once),
    adding [seconds, calls] per claim into `totals`."""
    start = time.perf_counter()
    while True:
        for k in cfg.strikes:
            total = totals.setdefault(str(k), [0.0, 0])
            total[0] += _price_once(cfg, model, k)
            total[1] += 1
        if time.perf_counter() - start >= budget_s:
            return


def _g0_size(cfg, model):
    """Largest g_0 over the workload's claims, or None without a PWL claim."""
    if cfg.payoff == "asian-call":
        return None
    from superhedge import pricing, pwl
    from tracer import g0_size

    sizes = [
        g0_size(pricing.backward_induce(pwl.call_payoff(k), model).value_fns[0])
        for k in cfg.strikes
    ]
    return [max(s[0] for s in sizes), max(s[1] for s in sizes)]


class _Window:
    """Measuring window: after the minimum number of cycles, start another
    only if one as long as the last still ends inside --seconds."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.start = self.last = time.perf_counter()

    def keep_going(self, done: int, minimum: int) -> bool:
        now = time.perf_counter()
        cycle, self.last = now - self.last, now
        return done < minimum or now - self.start + cycle <= self.seconds


def measure(cli, cfg, out: Path, seconds: float, probe_args: list[str]) -> dict:
    model = cfg.build_model()
    window = _Window(seconds)
    setups, prices, runs = [], {}, []
    budget = FIRST_PRICE_BLOCK_S
    while window.keep_going(len(runs), MIN_CYCLES):
        setups.append(spawn(probe_args, PROBE_TIMEOUT_S)["setup_s"])
        _price_block(cfg, model, budget, prices)
        runs.append(_run_once(cli, cfg, out))
        budget = PRICE_SHARE / (1 - PRICE_SHARE) * runs[-1]["wall_s"]
    return {"setup_samples": setups, "price_totals": prices, "runs": runs}


def _hooked_run(cli, cfg, out: Path, kind: str):
    """One `run_experiment` call with the tracer's hooks of one kind in place."""
    import tracer

    spans = tracer.Tracer()
    hooks = tracer.install(spans, kind)
    try:
        run = _run_once(cli, cfg, out)
    finally:
        hooks.remove()
    return run, spans, hooks


def trace(cli, cfg, out: Path, seconds: float) -> dict:
    import tracer

    g0 = _g0_size(cfg, cfg.build_model())
    # Call counts are exact, so one untimed run takes them; a counter around
    # every recursive `_tree_value` call would slow the timed runs by half.
    count_run, counted, count_hooks = _hooked_run(cli, cfg, out, "count")
    window = _Window(seconds)
    untraced, traced = [], []
    broken: dict[str, str] = {}
    while window.keep_going(len(traced), 1):
        untraced.append(_run_once(cli, cfg, out))
        run, spans, hooks = _hooked_run(cli, cfg, out, "span")
        broken.update(spans.broken)
        spans.counts.update(counted.counts)
        run["layers"] = tracer.layer_metrics(spans, run["wall_ns"])
        run["layers"]["cli.dump_mb"] = sum(
            p.stat().st_size for p in out.glob("paths_*.csv")
        ) / 1e6
        traced.append(run)
    missing = {
        span: list(specs)
        for span, specs in [*hooks.missing.items(), *count_hooks.missing.items()]
    }
    for span, why in broken.items():
        missing.setdefault(span, []).append(why)
    return {
        "g0": g0,
        "runs": [count_run, *untraced, *traced],
        "untraced_s": [r["wall_s"] for r in untraced],
        "traced_s": [r["wall_s"] for r in traced],
        "layers": [r["layers"] for r in traced],
        "spans": tracer.span_summary(spans),
        "missing": missing,
        "private": hooks.private + count_hooks.private,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--tiny", action="store_true")
    argv = sys.argv[1:] if argv is None else argv
    args = p.parse_args(argv)

    text = config_text(args.workload, args.seed, args.tiny)
    cli, cfg = _setup(text)
    setup_s = time.monotonic() - float(os.environ[SPAWN_ENV])
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.mode == "measure":
        probe = [a if a != "measure" else "setup" for a in argv]
        result = measure(cli, cfg, args.out, args.seconds, probe)
    else:
        result = trace(cli, cfg, args.out, args.seconds)
    result["claims"] = len(cfg.strikes)
    result["n_paths"] = cfg.n_paths
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
