"""Config parsing, experiment orchestration, artifact schemas, exit codes."""

import hashlib
import io
import math
import tracemalloc
import warnings
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from superhedge import cli, simulation
from superhedge.cli import (
    EXIT_ERROR,
    EXIT_INFINITE_PRICE,
    EXIT_NO_ARBITRAGE,
    EXIT_OK,
    ConfigError,
    ExperimentConfig,
    _write_histogram,
    format_stats_csv,
    main,
    parse_config,
    render_config,
    run_experiment,
)
from superhedge.pricing import asian_call_payoff, backward_induce
from superhedge.pwl import call_payoff
from superhedge.simulation import (
    BATCH_SIZE,
    FUNCTIONAL_CHUNK,
    SimStats,
    simulate_functional,
    simulate_one,
    write_path_dump,
)

SMALL = "n_paths = 2000\nstrikes = 100\nseed = 11\n"


class TestParseConfig:
    def test_empty_gives_defaults(self):
        assert parse_config("") == ExperimentConfig()

    def test_single_strike(self):
        cfg = parse_config("strikes = 100\n")
        assert cfg.strikes == (100.0,)

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# a comment\n\nseed = 3\n")
        assert cfg.seed == 3

    def test_unknown_key_rejected_with_line(self):
        with pytest.raises(ConfigError, match=r"line 2.*'strike'"):
            parse_config("seed = 1\nstrike = 100\n")

    def test_malformed_value_names_key(self):
        with pytest.raises(ConfigError, match=r"line 1.*'n_paths'"):
            parse_config("n_paths = many\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("just words\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("seed = 1\nseed = 2\n")

    @pytest.mark.parametrize("key", ["k_down", "k_up"])
    def test_duplicate_bound_key(self, key):
        # the last line once won silently
        text = f"k_down = 0.7\nk_up = 1.4\n{key} = 0.8\n"
        with pytest.raises(ConfigError, match=f"line 3: duplicate key '{key}'"):
            parse_config(text)

    def test_zero_paths_fails_validation(self):
        with pytest.raises(ConfigError, match="n_paths"):
            parse_config("n_paths = 0\n")

    def test_seed_out_of_range_rejected(self):
        for seed in (-1, 2**64):
            with pytest.raises(ConfigError, match="seed"):
                parse_config(f"seed = {seed}\n")

    def test_seed_range(self, tmp_path):
        # the root seed is any 64-bit unsigned integer, both ends included
        for seed in (-1, 2**64):
            with pytest.raises(ConfigError, match="seed must fit in 64 unsigned bits"):
                ExperimentConfig(seed=seed)
        cfg = ExperimentConfig(seed=2**64 - 1, n_paths=10, strikes=(100.0,))
        assert run_experiment(cfg, tmp_path) == EXIT_OK

    def test_empty_strikes_rejected(self):
        with pytest.raises(ConfigError, match="strikes"):
            parse_config("strikes =\n")

    def test_bad_payoff_tag(self):
        with pytest.raises(ConfigError, match="payoff"):
            parse_config("payoff = lookback\n")

    def test_bounds_rewrite_draw_ranges(self):
        cfg = parse_config("k_down = 1.1\nk_up = 1.4\n")
        assert (cfg.m_lo, cfg.m_hi) == (1.1, 1.4)
        assert (cfg.spr_lo, cfg.spr_hi) == (0.0, 0.0)
        model = cfg.build_model()
        assert model.steps[0].k_down == 1.1

    def test_bounds_need_each_other(self):
        with pytest.raises(ConfigError, match="together"):
            parse_config("k_down = 1.1\n")

    def test_inconsistent_bounds_with_ranges(self):
        text = "k_down = 0.8\nk_up = 1.4\nm_lo = 0.7\nm_hi = 1.0\n"
        text += "spr_lo = 0.0\nspr_hi = 0.4\n"
        with pytest.raises(ConfigError, match="inconsistent"):
            parse_config(text)

    def test_roundtrip_defaults(self):
        cfg = ExperimentConfig()
        assert parse_config(render_config(cfg)) == cfg

    def test_roundtrip_custom(self):
        cfg = ExperimentConfig(
            s_prev=85.5,
            horizon=3,
            strikes=(42.0, 66.6),
            n_paths=123,
            seed=99,
            payoff="custom-pwl",
            payoff_breakpoints=(50.0, 100.0),
            payoff_values=(0.0, 10.0),
            payoff_left_slope=-0.5,
            payoff_right_slope=2.0,
            dump_paths=True,
            histograms=True,
            hist_bins=17,
            straddle_to_ask=False,
        )
        assert parse_config(render_config(cfg)) == cfg

    def test_render_pinned_text(self):
        cfg = ExperimentConfig(
            s_prev=85.5,
            horizon=3,
            strikes=(42.0, 66.6),
            payoff="custom-pwl",
            payoff_breakpoints=(50.0, 100.0),
            payoff_values=(10.0, 0.0),
            payoff_left_slope=-0.5,
            dump_paths=True,
            hist_bins=17,
            straddle_to_ask=False,
        )
        assert render_config(cfg) == (
            "s_prev = 85.5\nhorizon = 3\nm_lo = 0.7\nm_hi = 1.0\nspr_lo = 0.0\n"
            "spr_hi = 0.4\nstrikes = 42.0, 66.6\nn_paths = 1000000\nseed = 42\n"
            "payoff = custom-pwl\npayoff_breakpoints = 50.0, 100.0\n"
            "payoff_values = 10.0, 0.0\npayoff_left_slope = -0.5\n"
            "payoff_right_slope = 0.0\nwrite_stats = true\ndump_paths = true\n"
            "histograms = false\nexport_strategy = false\nhist_bins = 17\n"
            "straddle_to_ask = false\nclamp_infinite_price = false\n"
        )

    @pytest.mark.parametrize(
        "text",
        [
            "strikes = 100, nan\n",
            "strikes = inf\npayoff = asian-call\n",
            "s_prev = inf\n",
            "payoff_right_slope = -inf\n",
            "k_down = nan\nk_up = 1.4\n",
        ],
    )
    def test_non_finite_numbers_rejected(self, text):
        with pytest.raises(ConfigError, match="must be finite"):
            parse_config(text)

    def test_export_strategy_needs_pwl_payoff(self):
        with pytest.raises(ConfigError, match="export_strategy"):
            parse_config("payoff = asian-call\nexport_strategy = true\n")

    def test_custom_payoff_needs_breakpoints(self):
        with pytest.raises(ConfigError, match="payoff_breakpoints"):
            parse_config("payoff = custom-pwl\n")

    @pytest.mark.parametrize("strikes", ["100, 100", "100, 100.0000001", "75, 1e2, 100"])
    def test_strikes_sharing_a_column_label_rejected(self, strikes):
        # each label names a stats column and the strike's files
        for payoff in ("call", "put", "asian-call"):
            with pytest.raises(ConfigError, match="column label 'K100'"):
                parse_config(f"strikes = {strikes}\npayoff = {payoff}\n")
        parse_config("strikes = 100, 100.001\n")  # K100 and K100.001
        custom = "payoff = custom-pwl\npayoff_breakpoints = 100\npayoff_values = 0\n"
        parse_config(f"strikes = {strikes}\n" + custom)  # one column, "custom"


class TestRunExperiment:
    def test_small_run_writes_table(self, tmp_path):
        cfg = parse_config(SMALL)
        code = run_experiment(cfg, tmp_path)
        assert code == EXIT_OK
        text = (tmp_path / "stats.txt").read_text()
        for label in SimStats.ROW_LABELS:
            assert label in text
        csv = (tmp_path / "stats.csv").read_text().strip().splitlines()
        assert len(csv) == 16
        assert [line.split(",")[0] for line in csv] == list(SimStats.ROW_LABELS)
        assert (tmp_path / "effective_config.txt").exists()

    def test_aip_failure_exit_code(self, tmp_path, capsys):
        cfg = parse_config("k_down = 1.1\nk_up = 1.4\n" + SMALL)
        code = run_experiment(cfg, tmp_path)
        assert code == EXIT_NO_ARBITRAGE
        err = capsys.readouterr().err
        assert "step 0" in err and "1.1" in err

    def test_clamp_flag_distinct_code(self, tmp_path, capsys):
        cfg = parse_config(
            "k_down = 1.1\nk_up = 1.4\nclamp_infinite_price = true\n" + SMALL
        )
        code = run_experiment(cfg, tmp_path)
        assert code == EXIT_INFINITE_PRICE
        assert "k_down <= 1 <= k_up" in capsys.readouterr().err

    def test_determinism_byte_identical(self, tmp_path):
        cfg = parse_config(SMALL + "dump_paths = true\nhistograms = true\n")
        run_experiment(cfg, tmp_path / "a")
        run_experiment(cfg, tmp_path / "b")
        for name in (
            "stats.csv",
            "paths_K100.csv",
            "hist_K100_eps_R.csv",
            "effective_config.txt",
        ):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_histogram_schema(self, tmp_path):
        cfg = parse_config(SMALL + "histograms = true\nhist_bins = 25\n")
        run_experiment(cfg, tmp_path)
        for stat in ("S_0", "S_1", "S_2", "eps_R"):
            lines = (
                (tmp_path / f"hist_K100_{stat}.csv").read_text().strip().splitlines()
            )
            assert lines[0] == "bin_lo,bin_hi,count"
            assert len(lines) == 26
            counts = [int(line.split(",")[2]) for line in lines[1:]]
            assert sum(counts) == 2000
            lows = [float(line.split(",")[0]) for line in lines[1:]]
            assert lows == sorted(lows)

    def test_dump_schema(self, tmp_path):
        cfg = parse_config(SMALL + "dump_paths = true\n")
        run_experiment(cfg, tmp_path)
        lines = (tmp_path / "paths_K100.csv").read_text().strip().splitlines()
        assert lines[0] == (
            "path_id,S_0,S_1,S_2,bid_1,ask_1,theta_0,theta_1,V_0,V_1,V_2,eps_r"
        )
        assert len(lines) == 2001
        eps = np.array([float(line.split(",")[-1]) for line in lines[1:]])
        assert eps.min() >= -1e-9

    def test_dump_bytes_pinned_three_steps(self, tmp_path):
        # pinned bytes of a dump with two bid/ask columns per row
        cfg = parse_config(
            "n_paths = 50\nstrikes = 100\nseed = 11\nhorizon = 3\ndump_paths = true\n"
        )
        assert run_experiment(cfg, tmp_path) == EXIT_OK
        data = (tmp_path / "paths_K100.csv").read_bytes()
        assert data.splitlines()[0] == (
            b"path_id,S_0,S_1,S_2,S_3,bid_1,bid_2,ask_1,ask_2,"
            b"theta_0,theta_1,theta_2,V_0,V_1,V_2,V_3,eps_r"
        )
        assert hashlib.sha256(data).hexdigest() == (
            "ade2109509879791a83b04ba3d57a1ad32a1cd0a36c852150ce3d9afec4626f1"
        )

    def test_export_strategy(self, tmp_path):
        cfg = parse_config(SMALL + "export_strategy = true\n")
        run_experiment(cfg, tmp_path)
        for t in (0, 1):
            lines = (
                (tmp_path / f"strategy_K100_t{t}.csv").read_text().strip().splitlines()
            )
            assert lines[0] == "s,theta"
            assert len(lines) > 100

    def test_put_payoff_runs(self, tmp_path):
        cfg = parse_config(SMALL + "payoff = put\n")
        assert run_experiment(cfg, tmp_path) == EXIT_OK
        csv = (tmp_path / "stats.csv").read_text()
        assert "min eps_R" in csv

    def test_custom_payoff_single_column(self, tmp_path):
        cfg = parse_config(
            SMALL
            + "payoff = custom-pwl\n"
            + "payoff_breakpoints = 80, 120\n"
            + "payoff_values = 0, 0\n"
            + "payoff_left_slope = -1\n"
            + "payoff_right_slope = 1\n"
        )
        assert run_experiment(cfg, tmp_path) == EXIT_OK
        first = (tmp_path / "stats.csv").read_text().splitlines()[0]
        assert first.split(",")[1] == "nan"
        assert len(first.split(",")) == 2  # label + one column

    def test_asian_payoff_runs(self, tmp_path):
        cfg = parse_config("n_paths = 200\nstrikes = 100\npayoff = asian-call\n")
        assert run_experiment(cfg, tmp_path) == EXIT_OK
        csv = (tmp_path / "stats.csv").read_text().splitlines()
        eps_min_row = [line for line in csv if line.startswith("min eps_R")][0]
        assert float(eps_min_row.split(",")[1]) >= -1e-9

    def test_horizon_one(self, tmp_path):
        cfg = parse_config("n_paths = 500\nstrikes = 90\nhorizon = 1\n")
        assert run_experiment(cfg, tmp_path) == EXIT_OK
        csv = (tmp_path / "stats.csv").read_text().splitlines()
        s2_row = [line for line in csv if line.startswith("E(S2)")][0]
        assert s2_row.split(",")[1] == "nan"


class TestMain:
    def test_cli_flags_override(self, tmp_path):
        cfg_file = tmp_path / "cfg.txt"
        cfg_file.write_text("n_paths = 999999\nstrikes = 75, 100\n")
        out = tmp_path / "out"
        code = main(
            [
                "--config",
                str(cfg_file),
                "--paths",
                "1500",
                "--strikes",
                "100",
                "--seed",
                "3",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        echoed = (out / "effective_config.txt").read_text()
        assert "n_paths = 1500" in echoed
        assert "seed = 3" in echoed
        assert "strikes = 100.0" in echoed

    def test_missing_config_file(self, tmp_path):
        code = main(["--config", str(tmp_path / "nope.txt")])
        assert code == EXIT_ERROR

    def test_seed_out_of_range_flag(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["--seed", "-1", "--paths", "10", "--out", str(out)])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "seed" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv", [["--seed", "abc"], ["--paths", "x"], ["--bogus"], ["--strikes", "inf"]]
    )
    def test_usage_errors_exit_one(self, tmp_path, argv):
        out = tmp_path / "out"
        try:
            code = main(argv + ["--out", str(out)])
        except SystemExit as exc:  # argparse's own errors
            code = exc.code
        assert code == EXIT_ERROR
        assert not out.exists()

    def test_colliding_strike_labels_write_nothing(self, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["--strikes", "100, 100.0000001", "--paths", "50", "--dump-paths"]
        assert main(argv + ["--out", str(out)]) == EXIT_ERROR
        assert "column label 'K100'" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_strike_in_config_writes_nothing(self, tmp_path, capsys):
        f = tmp_path / "cfg.txt"
        f.write_text("payoff = asian-call\nstrikes = inf\nn_paths = 10\n")
        out = tmp_path / "out"
        assert main(["--config", str(f), "--out", str(out)]) == EXIT_ERROR
        assert "strikes must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_asian_horizon_above_tree_cap_writes_nothing(self, tmp_path, capsys):
        f = tmp_path / "cfg.txt"
        f.write_text("payoff = asian-call\nhorizon = 21\nn_paths = 10\n")
        out = tmp_path / "out"
        assert main(["--config", str(f), "--out", str(out)]) == EXIT_ERROR
        assert "tree depth cap 20" in capsys.readouterr().err
        assert not out.exists()
        with pytest.raises(ConfigError, match="tree depth cap"):
            parse_config("payoff = asian-call\nhorizon = 21\n")
        parse_config("payoff = asian-call\nhorizon = 20\n")
        parse_config("horizon = 21\n")  # the chord recursion walks no tree

    @pytest.mark.parametrize(
        "shape, message",
        [
            ("payoff_breakpoints = 80, 100, 120\npayoff_values = 0, 10, 0\n", "convex"),
            ("payoff_breakpoints = 120, 80\npayoff_values = 0, 0\n", "strictly increasing"),
        ],
        ids=["nonconvex", "unsorted"],
    )
    def test_bad_custom_payoff_writes_nothing(self, tmp_path, capsys, shape, message):
        f = tmp_path / "cfg.txt"
        f.write_text("payoff = custom-pwl\nn_paths = 10\n" + shape)
        out = tmp_path / "out"
        assert main(["--config", str(f), "--out", str(out)]) == EXIT_ERROR
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_prices_refused_before_any_file(self, tmp_path, capsys):
        # s_prev * 1.4^3 is inf: this run used to write E(S0) = inf to stats.csv
        f = tmp_path / "cfg.txt"
        f.write_text("s_prev = 1e308\nhorizon = 2\nstrikes = 100\nn_paths = 50\n")
        out = tmp_path / "out"
        assert main(["--config", str(f), "--out", str(out)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert "s_prev = 1e+308 over horizon 2 overflows float64" in err
        assert not out.exists()

    @pytest.mark.parametrize("s_prev", ["1e300", "1e200"])
    def test_huge_prices_run_under_warnings_as_errors(self, tmp_path, s_prev):
        # Only eps_R's spread is reported, so only eps_R is squared: the
        # squares of S_t ~ s_prev overflow float64.
        f = tmp_path / "cfg.txt"
        f.write_text(f"s_prev = {s_prev}\nhorizon = 2\nstrikes = 100\nn_paths = 50\n")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--config", str(f), "--out", str(out)]) == EXIT_OK
        rows = [line.split(",") for line in (out / "stats.csv").read_text().splitlines()]
        means = {label: float(v) for label, v in rows if label.startswith("E(S")}
        assert list(means) == ["E(S0)", "E(S1)", "E(S2)"]
        assert all(math.isfinite(v) and v > 0 for v in means.values())

    @pytest.mark.parametrize(
        "text, refused",
        [
            ("s_prev = 1e304\nn_paths = 50\n", False),  # 1e304 * 1.4^3 * 50 is finite
            ("s_prev = 1e304\nn_paths = 1000000\n", True),  # a batch sums 2^17 prices
            ("horizon = 2200\n", True),  # 100 * 1.4^2201 is inf
            ("horizon = 2200\nm_hi = 1\nspr_hi = 0\n", False),
        ],
    )
    def test_overflow_rule_reads_prices_and_batch_sums(self, text, refused):
        if refused:
            with pytest.raises(ConfigError, match="overflows float64"):
                parse_config(text)
        else:
            parse_config(text)

    def test_out_of_memory_names_n_paths(self, tmp_path, capsys, monkeypatch):
        # the histogram series of 10^11 floats cannot be allocated: the
        # allocator is patched to fail as the system's would, at once
        n_paths, real = 100_000_000_000, np.empty

        def empty(shape, *args, **kwargs):
            if shape == n_paths:
                raise MemoryError(f"cannot allocate {8 * n_paths} bytes")
            return real(shape, *args, **kwargs)

        monkeypatch.setattr(np, "empty", empty)
        argv = ["--paths", str(n_paths), "--histograms", "--out", str(tmp_path)]
        assert main(argv) == EXIT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: out of memory with n_paths = {n_paths}"]
        assert list(tmp_path.iterdir()) == []  # nothing written, not even the config

    def test_bad_config_content(self, tmp_path):
        f = tmp_path / "cfg.txt"
        f.write_text("bogus_key = 1\n")
        assert main(["--config", str(f), "--out", str(tmp_path / "o")]) == EXIT_ERROR


# Runs that cross a batch boundary: the European engine's BATCH_SIZE and the
# path-dependent engine's FUNCTIONAL_CHUNK, at T=2 with strike 100.
# (paths, engine function that makes one batch) per payoff.
STREAMED_RUNS = {
    "call": (BATCH_SIZE + 3, "_simulate_batch"),
    "asian-call": (FUNCTIONAL_CHUNK + 3, "_functional_batch"),
}


def _streamed_cfg(payoff, n_paths=None):
    n_paths = n_paths or STREAMED_RUNS[payoff][0]
    return parse_config(
        f"payoff = {payoff}\nn_paths = {n_paths}\nstrikes = 100\nseed = 17\n"
        "hist_bins = 30\ndump_paths = true\nhistograms = true\n"
    )


class TestStreamedOutputs:
    """The dump and the histogram series are written batch by batch while the
    simulation runs, with the bytes of the whole-run columns."""

    @pytest.mark.parametrize("claim", sorted(STREAMED_RUNS))
    def test_bytes_equal_buffered_oracle(self, tmp_path, claim):
        cfg = _streamed_cfg(claim)
        assert run_experiment(cfg, tmp_path / "run") == EXIT_OK
        model = cfg.build_model()
        child = np.random.SeedSequence(cfg.seed).spawn(1)[0]
        if claim == "call":
            pricing = backward_induce(call_payoff(100.0), model)
            simulate = partial(simulate_one, model, pricing)
        else:
            simulate = partial(simulate_functional, model, asian_call_payoff(100.0))
        _, raw = simulate(100.0, cfg.n_paths, child, collect=True)
        oracle = tmp_path / "oracle"
        oracle.mkdir()
        buf = io.StringIO()
        write_path_dump(buf, raw, model.horizon)
        (oracle / "paths_K100.csv").write_bytes(buf.getvalue().encode("ascii"))
        series = {f"S_{t}": raw["s"][t] for t in range(3)}
        series["eps_R"] = raw["eps"]
        for name, data in series.items():
            _write_histogram(oracle / f"hist_K100_{name}.csv", data, cfg.hist_bins)
        for path in sorted(oracle.iterdir()):
            assert (tmp_path / "run" / path.name).read_bytes() == path.read_bytes()

    def test_stats_only_run_holds_compact_rows(self, tmp_path, monkeypatch):
        """Without a dump or histograms the engine gets no sink and lays out
        its workspace compactly; the stats bytes are those of a binned run."""
        layouts, real = [], simulation._workspace

        def spy(*args, compact=False, **kwargs):
            layouts.append(compact)
            return real(*args, compact=compact, **kwargs)

        monkeypatch.setattr(simulation, "_workspace", spy)
        text = "horizon = 12\nn_paths = 300\nstrikes = 90, 110\nseed = 5\n"
        cfg = parse_config(text)
        assert run_experiment(cfg, tmp_path / "stats") == EXIT_OK
        binned = replace(cfg, histograms=True)
        assert run_experiment(binned, tmp_path / "binned") == EXIT_OK
        assert layouts == [True, True, False, False]
        stats = [(tmp_path / d / "stats.csv").read_bytes() for d in ("stats", "binned")]
        assert stats[0] == stats[1]

    def test_memory_is_one_batch_plus_histogram_series(self, tmp_path):
        """Keeping every batch and joining them before writing peaked at 95 MB
        under tracemalloc on this run.  Streaming holds the four histogram
        series of n_paths floats plus one batch's working set: the reused
        workspace of 5T+4 columns of BATCH_SIZE floats and the aggregation's
        temporaries, with no column of the previous batch alive.  That
        measured 21 columns beyond the series; the bound is 26, whatever
        n_paths."""
        cfg = _streamed_cfg("call", n_paths=3 * BATCH_SIZE + 3)
        tracemalloc.start()
        try:
            assert run_experiment(cfg, tmp_path) == EXIT_OK
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        series_bytes = 4 * 8 * cfg.n_paths
        assert peak < series_bytes + 26 * 8 * BATCH_SIZE

    @pytest.mark.parametrize("claim", sorted(STREAMED_RUNS))
    def test_failure_in_second_batch_leaves_no_dump(
        self, tmp_path, monkeypatch, claim
    ):
        engine = STREAMED_RUNS[claim][1]
        original = getattr(simulation, engine)
        part = tmp_path / "paths_K100.csv.part"
        calls, part_sizes = [], []

        def failing(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                part_sizes.append(part.stat().st_size)
                raise ValueError("injected failure in the second batch")
            return original(*args, **kwargs)

        monkeypatch.setattr(simulation, engine, failing)
        assert run_experiment(_streamed_cfg(claim), tmp_path) == EXIT_ERROR
        assert len(calls) == 2
        assert part_sizes[0] > 0  # the first batch was being written out
        assert list(tmp_path.iterdir()) == []  # nothing written, not even the config

    @pytest.mark.parametrize("out_exists", [True, False], ids=["existing_out", "new_out"])
    def test_failure_in_second_strike_removes_the_first(
        self, tmp_path, capsys, monkeypatch, out_exists
    ):
        """The first strike's dump, histograms and strategy tables, and the
        echoed config, go when the second strike fails; so does --out if the
        run made it.  A file the run did not write stays."""
        out = tmp_path / "out" / "nested"
        if out_exists:
            out.mkdir(parents=True)
            (out / "notes.txt").write_text("kept")
        real, strikes, seen = cli.simulate_one, [], []

        def failing(model, pricing, strike, *args, **kwargs):
            strikes.append(strike)
            if strike == 110.0:
                seen.extend(p.name for p in out.iterdir())
                raise ValueError("injected failure in the second strike")
            return real(model, pricing, strike, *args, **kwargs)

        monkeypatch.setattr(cli, "simulate_one", failing)
        cfg = replace(_streamed_cfg("call", n_paths=500), strikes=(90.0, 110.0))
        assert run_experiment(replace(cfg, export_strategy=True), out) == EXIT_ERROR
        assert capsys.readouterr().err.endswith("injected failure in the second strike\n")
        assert strikes == [90.0, 110.0]
        wrote = {"effective_config.txt", "paths_K90.csv", "hist_K90_eps_R.csv"}
        assert wrote | {"strategy_K90_t1.csv", "strategy_K110_t0.csv"} <= set(seen)
        if out_exists:
            assert [p.name for p in out.iterdir()] == ["notes.txt"]
        else:
            assert list(tmp_path.iterdir()) == []


class TestFormatting:
    def test_csv_full_precision(self):
        stats = SimStats(
            strike=100.0,
            n_paths=1,
            mean_s0=1 / 3,
            mean_s1=math.nan,
            mean_s2=0.0,
            mean_v0=0.0,
            max_v0=0.0,
            mean_v0_over_sprev=0.0,
            mean_v0_over_s0=0.0,
            min_v0_over_s0=0.0,
            max_v0_over_s0=0.0,
            mean_eps=0.0,
            std_eps=0.0,
            min_eps=0.0,
            max_eps=0.0,
            mean_theta0_frac=0.0,
            mean_theta1_frac=0.0,
        )
        out = format_stats_csv([stats])
        assert "0.3333333333333333" in out
        assert out.count("\n") == 16
