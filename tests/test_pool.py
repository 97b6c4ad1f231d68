"""Stats-only European runs in a pool of forked workers: the same bytes at
any worker count, the split aggregator behind that, which runs take the
pool, and how a pooled run fails."""

import concurrent.futures
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superhedge import cli, simulation
from superhedge.cli import EXIT_ERROR, EXIT_OK, parse_config, run_experiment
from superhedge.simulation import ROWS, RunningMoments, _Aggregator

BATCH = 1024  # BATCH_SIZE in these tests, so that runs of a few batches stay small
N_PATHS = 4 * BATCH + 37  # four full batches and a partial last one: pooled at one strike

CLAIMS = {
    "call": "payoff = call\n",
    "put": "payoff = put\n",
    "custom-pwl": (
        "payoff = custom-pwl\npayoff_breakpoints = 80, 100, 120\n"
        "payoff_values = 0, 5, 20\npayoff_right_slope = 1.5\n"
    ),
}


@pytest.fixture
def small_batches(monkeypatch):
    monkeypatch.setattr(simulation, "BATCH_SIZE", BATCH)


def _cpus(monkeypatch, cpus: int):
    """Let the process run on ``cpus`` CPUs, as its affinity mask would."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


@pytest.fixture
def pooled(monkeypatch):
    """The worker count of each pooled simulation run_experiment starts."""
    calls, real = [], cli.simulate_pooled

    def spy(model, strikes, n_paths, straddle_to_ask, workers):
        calls.append(workers)
        return real(model, strikes, n_paths, straddle_to_ask, workers)

    monkeypatch.setattr(cli, "simulate_pooled", spy)
    return calls


def _config(claim: str, horizon: int = 2, strikes: str = "90, 100", n_paths: int = N_PATHS):
    text = CLAIMS[claim] + f"horizon = {horizon}\nn_paths = {n_paths}\nseed = 7\n"
    if claim != "custom-pwl":
        text += f"strikes = {strikes}\n"
    return parse_config(text)


def _assert_no_workers_left():
    assert multiprocessing.active_children() == []


@pytest.mark.usefixtures("small_batches")
@pytest.mark.parametrize("horizon", [1, 2, 3])
@pytest.mark.parametrize(
    "claim, strikes",
    [
        ("call", "100"),
        ("call", "50, 75, 100, 125, 150"),
        ("put", "100"),
        ("put", "50, 75, 100, 125, 150"),
        ("custom-pwl", None),
    ],
)
def test_same_bytes_at_any_worker_count(
    tmp_path, capsys, monkeypatch, pooled, claim, strikes, horizon
):
    """stats.csv, stats.txt and the printed lines do not depend on how many
    workers run the (strike, batch) units, the last batch a partial one."""
    cfg = _config(claim, horizon, strikes)
    files, printed = [], []
    for cpus in (1, 2, 3):
        _cpus(monkeypatch, cpus)
        out = tmp_path / f"w{cpus}"
        assert run_experiment(cfg, out) == EXIT_OK
        files.append({name: (out / name).read_bytes() for name in ("stats.csv", "stats.txt")})
        printed.append(capsys.readouterr().out)
    assert pooled == [2, 3]
    assert files[0] == files[1] == files[2]
    assert printed[0] == printed[1] == printed[2]
    _assert_no_workers_left()


# ---------------------------------------------------------------------- #
# the split aggregator
# ---------------------------------------------------------------------- #


def _old_add(state: dict, cols: dict):
    """The aggregator's fold before it was split into summary and merge:
    RunningMoments.add_batch and a running min and max on each series."""
    s, v, theta = cols["s"], cols["v"], cols["theta"]
    series = [("s0", s[0]), ("s1", s[1]), ("v0", v[0]), ("v0/s0", v[0] / s[0])]
    series += [("eps", cols["eps"]), ("th0", simulation._theta_frac(theta[0], s[0], v[0]))]
    if len(s) > 2:
        series += [("s2", s[2]), ("th1", simulation._theta_frac(theta[1], s[1], v[1]))]
    for key, x in series:
        moments, lo, hi = state[key]
        moments.add_batch(x)
        if lo is not None:
            state[key][1] = min(lo, float(np.min(x)))
        if hi is not None:
            state[key][2] = max(hi, float(np.max(x)))


def _old_values(state: dict, s_prev: float) -> dict:
    values = {}
    for label, key, how in ROWS:
        moments, lo, hi = state[key]
        values[label] = {
            "mean": moments.mean,
            "min": lo,
            "max": hi,
            "std": math.sqrt(moments.variance) if moments.m2 is not None else None,
            "mean/s_prev": moments.mean / s_prev,
        }[how]
    return values


def _bits(x: float) -> str:
    return "nan" if math.isnan(x) else x.hex()


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 400),
    cuts=st.lists(st.integers(1, 399), max_size=6),
    horizon=st.sampled_from([1, 2]),
    zero_v=st.sampled_from([None, 0, 1]),
    seed=st.integers(0, 2**32 - 1),
)
def test_merged_summaries_equal_old_fold(n, cuts, horizon, zero_v, seed):
    """Merging each batch's summary in batch order gives every ROWS value
    of the old fold, bit for bit, over any partition of the paths into
    batches; ``zero_v`` sets V_t = 0 on every lane, which leaves theta_t's
    fraction with no path."""
    rng = np.random.default_rng(seed)
    s = [rng.uniform(50, 150, n) for _ in range(min(horizon, 2) + 1)]
    v = [rng.uniform(-5, 60, n) for _ in range(horizon)]
    theta = [rng.uniform(-1, 2, n) for _ in range(horizon)]
    eps = rng.normal(0.01, 0.02, n)
    if zero_v is not None and zero_v < horizon:
        v[zero_v][:] = 0.0
    bounds = [0, *sorted({c for c in cuts if c < n}), n]
    s_prev = 100.0
    agg = _Aggregator(s_prev)
    state = {}  # per series: [RunningMoments, running min, running max]
    for _, key, how in ROWS:
        entry = state.setdefault(key, [RunningMoments(m2=None), None, None])
        if how == "std":
            entry[0].m2 = 0.0
        if how in ("min", "max"):
            entry[1 if how == "min" else 2] = math.inf if how == "min" else -math.inf
    for a, b in zip(bounds, bounds[1:]):
        cols = {
            "s": [x[a:b] for x in s],
            "v": [x[a:b] for x in v],
            "theta": [x[a:b] for x in theta],
            "eps": eps[a:b],
        }
        agg.merge(_Aggregator.summary(cols))
        _old_add(state, cols)
    got, want = agg.result(100.0).values, _old_values(state, s_prev)
    assert {k: _bits(x) for k, x in got.items()} == {k: _bits(x) for k, x in want.items()}
    if zero_v is not None and zero_v < horizon:
        assert math.isnan(got[f"E(theta{zero_v}*S{zero_v}/V{zero_v})"])


# ---------------------------------------------------------------------- #
# which runs take the pool
# ---------------------------------------------------------------------- #


@pytest.mark.usefixtures("small_batches")
@pytest.mark.parametrize(
    "text, cpus, workers",
    [
        ("strikes = 90, 100\nn_paths = 2048\n", 2, [2]),  # 4 BATCH_SIZE paths in all
        ("strikes = 90, 100\nn_paths = 2048\n", 8, [4]),  # no more workers than units
        ("strikes = 90, 100\nn_paths = 2048\n", 1, []),  # one usable CPU
        ("strikes = 90, 100\nn_paths = 2047\n", 2, []),  # below 4 BATCH_SIZE paths
        ("strikes = 100\nn_paths = 5000\ndump_paths = true\n", 2, []),
        ("strikes = 100\nn_paths = 5000\nhistograms = true\n", 2, []),
        ("payoff = asian-call\nstrikes = 90, 100\nn_paths = 2048\n", 2, []),
    ],
    ids=["pooled", "capped", "one-cpu", "below-threshold", "dump", "histograms", "asian"],
)
def test_which_runs_take_the_pool(tmp_path, monkeypatch, pooled, text, cpus, workers):
    """A run takes the pool only when it is stats-only and piecewise-linear,
    has 4 BATCH_SIZE paths over its strikes, and may run on at least 2
    CPUs; a sink, an asian-call, a smaller run or one CPU run in this
    process."""
    _cpus(monkeypatch, cpus)
    assert run_experiment(parse_config(text + "horizon = 2\n"), tmp_path) == EXIT_OK
    assert pooled == workers


@pytest.mark.usefixtures("small_batches")
def test_single_unit_run_stays_serial(tmp_path, monkeypatch, pooled):
    """One strike of one batch is one unit: no pool, whatever the CPUs."""
    _cpus(monkeypatch, 3)
    cfg = _config("call", strikes="100", n_paths=BATCH)
    assert run_experiment(cfg, tmp_path) == EXIT_OK
    assert pooled == []


@pytest.mark.usefixtures("small_batches")
def test_no_pool_from_python_3_12(monkeypatch):
    """From Python 3.12 a fork in a process that runs threads warns, so no
    run is pooled there."""
    _cpus(monkeypatch, 2)
    assert simulation.pool_size(2, 2048) == 2
    monkeypatch.setattr(sys, "version_info", (3, 12, 0))
    assert simulation.pool_size(2, 2048) == 1


# ---------------------------------------------------------------------- #
# failures in a pooled run
# ---------------------------------------------------------------------- #


def _failing_batch(monkeypatch, fail):
    """Make every batch of the partial size run ``fail`` first; with fork,
    the patch reaches the workers."""
    real = simulation._simulate_batch

    def batch(model, pricing, n, *args, **kwargs):
        if n == N_PATHS % BATCH:
            fail()
        return real(model, pricing, n, *args, **kwargs)

    monkeypatch.setattr(simulation, "_simulate_batch", batch)


def _raise_value_error():
    raise ValueError("injected failure in a batch")


def _warn():
    np.divide(np.ones(1), 0.0)  # a RuntimeWarning, an error under the filter


@pytest.mark.usefixtures("small_batches")
@pytest.mark.parametrize("cpus", [1, 2])
def test_worker_value_error_is_the_serial_error_line(
    tmp_path, capsys, monkeypatch, pooled, cpus
):
    _cpus(monkeypatch, cpus)
    _failing_batch(monkeypatch, _raise_value_error)
    assert run_experiment(_config("call"), tmp_path / "out") == EXIT_ERROR
    assert capsys.readouterr().err == "error: injected failure in a batch\n"
    assert pooled == ([cpus] if cpus > 1 else [])
    assert list(tmp_path.iterdir()) == []  # no staging directory, no --out
    _assert_no_workers_left()


@pytest.mark.usefixtures("small_batches")
def test_worker_runtime_warning_is_the_serial_exception(tmp_path, monkeypatch, pooled):
    _failing_batch(monkeypatch, _warn)
    raised = []
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeWarning) as info:
                run_experiment(_config("call"), tmp_path / "out")
        raised.append((type(info.value), str(info.value)))
    assert raised[0] == raised[1]
    assert raised[0] == (RuntimeWarning, "divide by zero encountered in divide")
    assert pooled == [2]
    assert list(tmp_path.iterdir()) == []
    _assert_no_workers_left()


@pytest.mark.usefixtures("small_batches")
def test_dead_worker_is_one_error_line(tmp_path, capsys, monkeypatch, pooled):
    """A worker killed mid-batch, as the OOM killer would, breaks the pool:
    one error line and EXIT_ERROR, and nothing left behind."""
    _cpus(monkeypatch, 2)
    _failing_batch(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
    assert run_experiment(_config("call"), tmp_path / "out") == EXIT_ERROR
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: a worker process died")
    assert pooled == [2]
    assert list(tmp_path.iterdir()) == []
    _assert_no_workers_left()


@pytest.mark.usefixtures("small_batches")
def test_interrupt_while_waiting_cancels_the_pool(tmp_path, monkeypatch, pooled):
    """A KeyboardInterrupt while the parent waits for a unit propagates, and
    only the units in flight, at most 2 per worker, ran."""
    ran = tmp_path / "ran.txt"
    real = simulation._simulate_batch

    def logged(*args, **kwargs):
        with ran.open("a") as fh:
            fh.write("unit\n")
        return real(*args, **kwargs)

    def interrupted(self, timeout=None):
        raise KeyboardInterrupt

    monkeypatch.setattr(simulation, "_simulate_batch", logged)
    monkeypatch.setattr(concurrent.futures.Future, "result", interrupted)
    _cpus(monkeypatch, 2)
    cfg = _config("call", strikes="50, 75, 100, 125, 150")  # 25 units
    with pytest.raises(KeyboardInterrupt):
        run_experiment(cfg, tmp_path / "out")
    assert pooled == [2]
    _assert_no_workers_left()
    units = len(ran.read_text().splitlines()) if ran.exists() else 0
    assert units <= 2 * 2
    assert [p.name for p in tmp_path.iterdir()] in ([], ["ran.txt"])


# A pooled run in a process of its own: every batch logs its worker's pid
# and sleeps, so that units are in flight when the test kills the process.
_KILLED_RUN = """
import os, sys, time
from superhedge import simulation
from superhedge.cli import parse_config, run_experiment

simulation.BATCH_SIZE = 1024
os.sched_getaffinity = lambda pid: {0, 1}
real = simulation._simulate_batch

def logged(*args, **kwargs):
    open(os.path.join(sys.argv[1], str(os.getpid())), "w").close()
    time.sleep(0.2)
    return real(*args, **kwargs)

simulation._simulate_batch = logged
cfg = parse_config("horizon = 2\\nstrikes = 90, 100, 110\\nn_paths = 4096\\n")
run_experiment(cfg, os.path.join(sys.argv[1], "out"))
"""


def _running(pid: int) -> bool:
    """Whether process ``pid`` runs: it exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")
@pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGKILL], ids=["term", "kill"])
def test_no_worker_outlives_a_killed_run(tmp_path, sig):
    """A pooled run killed while its workers run units, by a scheduler's
    SIGTERM or the OOM killer's SIGKILL, leaves no worker running."""
    import superhedge

    env = dict(os.environ, PYTHONPATH=str(Path(superhedge.__file__).parents[1]))
    run = subprocess.Popen(
        [sys.executable, "-c", _KILLED_RUN, str(tmp_path)],
        env=env, stdout=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 60
        while len([p for p in tmp_path.iterdir() if p.name.isdigit()]) < 2:
            assert run.poll() is None and time.monotonic() < deadline
            time.sleep(0.02)
        run.send_signal(sig)
        run.wait(10)
    finally:
        run.kill()
        run.wait()
    workers = [int(p.name) for p in tmp_path.iterdir() if p.name.isdigit()]
    deadline = time.monotonic() + 5
    while any(map(_running, workers)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(map(_running, workers))
