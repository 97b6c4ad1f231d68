"""Config parsing, experiment orchestration, artifact schemas, exit codes."""

import errno
import hashlib
import io
import math
import os
import re
import shutil
import tempfile
import tracemalloc
import warnings
from dataclasses import replace
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from collected import collect
from superhedge import cli, simulation
from superhedge.cli import (
    EXIT_ERROR,
    EXIT_INFINITE_PRICE,
    EXIT_NO_ARBITRAGE,
    EXIT_OK,
    ConfigError,
    ExperimentConfig,
    _histogram,
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

    def test_n_paths_range(self):
        # numpy counts paths in int64, and the eps_R rule forms n_paths as a float
        for n in (2**63, 10**400):
            with pytest.raises(ConfigError, match=r"n_paths must be at least 1 and below 2\^63"):
                parse_config(f"n_paths = {n}\n")
        assert parse_config(f"n_paths = {2**63 - 1}\n").n_paths == 2**63 - 1

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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("m_lo = -1\n", "need 0 < k_down <= k_up < inf, got (-1.0, 1.4)"),
            ("spr_lo = 0.5\n", "need 0 <= spr_lo <= spr_hi"),
            ("m_lo = 1.1\n", "need 0 < m_lo <= m_hi"),
        ],
        ids=["m_lo_negative", "spread_reversed", "m_range_reversed"],
    )
    def test_draw_ranges_refused_with_step_rule(self, text, message):
        # the config applies StepSpec's rule, so it holds only ranges that
        # build a model: a replace() is refused as a parse is
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert str(err.value) == message
        key, value = text.strip().split(" = ")
        with pytest.raises(ConfigError, match=re.escape(message)):
            replace(ExperimentConfig(), **{key: float(value)})

    def test_arbitrage_model_parses_and_exits_two(self, tmp_path, capsys):
        # a range that builds a model, but one that fails AIP at step 0
        text = "m_lo = 1.05\nm_hi = 1.1\nstrikes = 100\nn_paths = 10\n"
        f = tmp_path / "cfg.txt"
        f.write_text(text)
        assert main(["--config", str(f), "--out", str(tmp_path / "out")]) == EXIT_NO_ARBITRAGE
        assert "step 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("s_prev = 0\n", "s_prev must be positive"),
            ("horizon = 0\n", "horizon must be at least 1"),
            ("strikes = 100, -5\n", "strikes must be positive"),
            (
                "payoff = custom-pwl\npayoff_breakpoints = 80, 100\npayoff_values = 0\n",
                "payoff_breakpoints and payoff_values must have equal length",
            ),
            ("hist_bins = 0\n", "hist_bins must be at least 1"),
            ("dump_paths = maybe\n", "line 1: bad value for 'dump_paths': not a boolean"),
            # refused by parse_config, with StepSpec's message
            ("m_lo = -1\n", "need 0 < k_down <= k_up < inf, got (-1.0, 1.4)"),
            ("spr_lo = 0.5\n", "need 0 <= spr_lo <= spr_hi"),
            ("m_lo = 1.1\n", "need 0 < m_lo <= m_hi"),
        ],
        ids=[
            "s_prev", "horizon", "strike", "payoff_lists", "hist_bins", "boolean",
            "m_lo_negative", "spread_reversed", "m_range_reversed",
        ],
    )
    def test_refused_config_writes_nothing(self, tmp_path, capsys, text, message):
        f = tmp_path / "cfg.txt"
        f.write_text(text + "n_paths = 10\n")
        out = tmp_path / "out"
        assert main(["--config", str(f), "--out", str(out)]) == EXIT_ERROR
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and message in line
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, refused",
        [
            ("k_down = 1\nk_up = 1.000000000000001\nn_paths = 100\n", True),
            ("k_down = 1\nk_up = 1\nn_paths = 100\n", False),  # constant: +-0.5 edges
            ("n_paths = 1\n", False),  # one path: every series constant
        ],
        ids=["narrow", "constant", "one_path"],
    )
    def test_histogram_range_too_narrow_for_the_bins(self, tmp_path, capsys, text, refused):
        # S_0 spans 1.1e-13: 100 bins of it are not finite-sized, and the
        # refusal names the file, the range and hist_bins, not numpy's text
        f = tmp_path / "cfg.txt"
        f.write_text(text + "strikes = 100\nhistograms = true\n")
        out = tmp_path / "out"
        code = main(["--config", str(f), "--out", str(out)])
        err = capsys.readouterr().err.splitlines()
        if not refused:
            assert code == EXIT_OK and (out / "hist_K100_S_0.csv").exists()
            return
        assert code == EXIT_ERROR
        assert err == [
            "error: hist_K100_S_0.csv: the range [100.0, 100.00000000000011] "
            "cannot hold hist_bins = 100 finite-sized bins"
        ]
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
            # prices stay below 100, but go down to 100 * 0.7^2201: this run
            # used to write sigma(eps_R) = inf
            ("horizon = 2200\nm_hi = 1\nspr_hi = 0\n", True),
            ("horizon = 2200\nm_lo = 0.999\nm_hi = 1\nspr_hi = 0\n", False),
        ],
    )
    def test_overflow_rule_reads_prices_and_batch_sums(self, text, refused):
        if refused:
            with pytest.raises(ConfigError, match="overflows float64"):
                parse_config(text)
        else:
            parse_config(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            # the asian-call S* solve brackets each root within 1e9 times a
            # price: at 1e299 its path sums overflow
            (
                "payoff = asian-call\nhorizon = 3\nstrikes = 100\nn_paths = 300\n"
                "s_prev = 1e299\n",
                "overflows float64 in the asian-call S* solve",
            ),
            # put values reach 1e305 and a batch sums 2^17 of them: this run
            # used to write E(V0) = inf to stats.csv
            (
                "payoff = put\nstrikes = 1e305\nhorizon = 3\ns_prev = 1e300\n",
                "the put claim overflows float64: its values reach 1e+305",
            ),
            # g_0's breakpoints reach K / 0.7^2 and 100 / 1e-400: these runs
            # used to die converting them to floats
            (
                "strikes = 1e308\nhorizon = 2\nn_paths = 50\n",
                "the call claim overflows float64 in pricing over horizon 2: "
                "its value functions reach 10^308.3",
            ),
            (
                "m_lo = 1e-200\nstrikes = 100\nhorizon = 2\nn_paths = 50\n",
                "its value functions reach 10^402.0",
            ),
            # the last piece's intercept is -1e310
            (
                "payoff = custom-pwl\npayoff_breakpoints = 1e300\npayoff_values = 0\n"
                "payoff_right_slope = 1e10\nn_paths = 50\n",
                "the custom-pwl claim overflows float64 in pricing",
            ),
            # V_0/S_0 reaches 1e300 / 7e-11: this run used to write
            # E(V0/S0) = inf to stats.csv
            (
                "payoff = put\nstrikes = 1e300\ns_prev = 1e-10\nhorizon = 2\nn_paths = 50\n",
                "and eps_R, up to inf, is squared over n_paths = 50",
            ),
            # eps_R reaches 1e304: this run's np.var used to overflow
            (
                "payoff = custom-pwl\npayoff_breakpoints = 50\npayoff_values = -1e305\n"
                "payoff_left_slope = -2e303\npayoff_right_slope = 2e303\nm_hi = 1\n"
                "spr_hi = 0\nn_paths = 50\n",
                "and eps_R, up to 1.749271137026239e+304, is squared over n_paths = 50",
            ),
        ],
        ids=[
            "sstar_bracket", "claim_values", "breakpoint", "k_down", "intercept",
            "v0_over_s0", "eps_square",
        ],
    )
    def test_overflowing_claims_refused_before_any_file(
        self, tmp_path, capsys, text, message
    ):
        f = tmp_path / "cfg.txt"
        f.write_text(text)
        out = tmp_path / "out"
        assert main(["--config", str(f), "--out", str(out)]) == EXIT_ERROR
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and message in line
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, above",
        [
            (
                "payoff = asian-call\nhorizon = 3\nstrikes = 100\nn_paths = 50\n"
                "s_prev = 2e298\n",
                ("2e298", "4e298"),
            ),
            (
                "payoff = put\nstrikes = 1e305\nhorizon = 3\ns_prev = 1e300\n"
                "n_paths = 50\n",
                ("n_paths = 50", "n_paths = 1000000"),
            ),
            # a V-shaped claim on prices up to s_prev = 1e290, whose largest
            # |value| lies at its kink, not at 0 or at s_prev
            (
                "payoff = custom-pwl\npayoff_breakpoints = 5e289, 1e290\n"
                "payoff_values = -1e305, 0\npayoff_left_slope = -2e15\n"
                "payoff_right_slope = 2e15\nm_hi = 1\nspr_hi = 0\ns_prev = 1e290\n"
                "n_paths = 50\n",
                ("n_paths = 50", "n_paths = 1000000"),
            ),
            # V_0/S_0 near 1e300 / 3e148; the bound on eps_R, squared over
            # 50 paths, is just below float64's max
            (
                "payoff = put\nstrikes = 1e300\ns_prev = 1e149\nhorizon = 2\nn_paths = 50\n",
                ("n_paths = 50", "n_paths = 100"),
            ),
            # a V-shaped claim on prices near 100, whose bound on eps_R,
            # squared over 50 paths, is just below float64's max
            (
                "payoff = custom-pwl\npayoff_breakpoints = 50\npayoff_values = -1e153\n"
                "payoff_left_slope = -2e151\npayoff_right_slope = 2e151\nm_hi = 1\n"
                "spr_hi = 0\nn_paths = 50\n",
                ("n_paths = 50", "n_paths = 100"),
            ),
        ],
        ids=["sstar_bracket", "claim_values", "kink_value", "v0_over_s0", "eps_square"],
    )
    def test_largest_claims_below_the_rules_run_under_warnings_as_errors(
        self, tmp_path, text, above
    ):
        # each config runs clean, and the same one past the rule is refused
        f = tmp_path / "cfg.txt"
        f.write_text(text)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--config", str(f), "--out", str(out)]) == EXIT_OK
        rows = [line.split(",") for line in (out / "stats.csv").read_text().splitlines()]
        assert all(math.isfinite(float(v)) for label, v in rows if label != "K")
        with pytest.raises(ConfigError, match="overflows float64"):
            parse_config(text.replace(*above))

    def test_out_of_memory_names_n_paths(self, tmp_path, capsys, monkeypatch):
        # the edges of 10^12 bins cannot be allocated: np.histogram's
        # np.linspace is patched to fail as the system's allocator would, at
        # once; the line names every input that sizes memory
        bins, real = 10**12, np.linspace

        def linspace(start, stop, num=50, *args, **kwargs):
            if num > bins:
                raise MemoryError(f"cannot allocate {8 * num} bytes")
            return real(start, stop, num, *args, **kwargs)

        monkeypatch.setattr(np, "linspace", linspace)
        config, out = tmp_path / "cfg.txt", tmp_path / "out"
        config.write_text(f"hist_bins = {bins}\n")
        out.mkdir()
        argv = ["--config", str(config), "--paths", "100", "--histograms", "--out", str(out)]
        assert main(argv) == EXIT_ERROR
        err = capsys.readouterr().err.splitlines()
        assert err == [
            f"error: out of memory with n_paths = 100, horizon = 2, hist_bins = {bins}"
        ]
        assert list(out.iterdir()) == []  # nothing left, not even the config

    @pytest.mark.parametrize("paths, spare", [(100_000_000_000, -1), (50, 0)])
    def test_spill_must_fit_on_disk(self, tmp_path, capsys, monkeypatch, paths, spare):
        """--histograms spills 8 bytes per path for each of S_0..S_2 and
        eps_R, one strike at a time: a run whose spill does not fit in the
        free space of the nearest existing directory is refused before any
        file is written; one that just fits runs."""
        need, asked = 8 * 4 * paths, []

        def disk_usage(path):
            asked.append(path)
            return SimpleNamespace(free=need + spare)

        monkeypatch.setattr(shutil, "disk_usage", disk_usage)
        out = tmp_path / "new" / "out"
        argv = ["--paths", str(paths), "--strikes", "90, 110", "--histograms", "--out", str(out)]
        code = main(argv)
        assert asked == [tmp_path]
        if spare < 0:
            assert code == EXIT_ERROR
            assert capsys.readouterr().err.splitlines() == [
                f"error: histograms of n_paths = {paths} spill {need} bytes per "
                f"strike to disk, and {tmp_path} has {need - 1} bytes free"
            ]
            assert list(tmp_path.iterdir()) == []
        else:
            assert code == EXIT_OK
            assert len(list(out.glob("hist_*.csv"))) == 8 and not list(out.glob("*.f64"))
            assert list(tmp_path.iterdir()) == [tmp_path / "new"]  # no staging left

    def test_out_naming_a_file_refused(self, tmp_path, capsys):
        # the staging directory cannot be made in a file: the error names --out
        out = tmp_path / "taken"
        out.write_text("kept")
        assert main(["--paths", "10", "--strikes", "100", "--out", str(out)]) == EXIT_ERROR
        assert capsys.readouterr().err.splitlines() == [
            f"error: [Errno {errno.ENOTDIR}] {os.strerror(errno.ENOTDIR)}: '{out}'"
        ]
        assert out.read_text() == "kept" and list(tmp_path.iterdir()) == [out]

    def test_out_under_a_file_refused(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("kept")
        out = taken / "sub"
        assert main(["--paths", "10", "--strikes", "100", "--out", str(out)]) == EXIT_ERROR
        assert capsys.readouterr().err.splitlines() == [
            f"error: [Errno {errno.ENOTDIR}] {os.strerror(errno.ENOTDIR)}: '{out}'"
        ]
        assert taken.read_text() == "kept" and list(tmp_path.iterdir()) == [taken]

    def test_unwritable_home_named_as_out(self, tmp_path, capsys, monkeypatch):
        """A staging directory that cannot be made is named as --out, the
        directory the run would have made there."""

        def mkdtemp(suffix=None, prefix=None, dir=None):
            path = os.path.join(dir, prefix + "x1y2z3")
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)

        monkeypatch.setattr(tempfile, "mkdtemp", mkdtemp)
        out = tmp_path / "out"
        assert main(["--paths", "10", "--strikes", "100", "--out", str(out)]) == EXIT_ERROR
        assert capsys.readouterr().err.splitlines() == [
            f"error: [Errno {errno.EACCES}] {os.strerror(errno.EACCES)}: '{out}'"
        ]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "full", ["paths_K100.csv", "hist_K100_S_1.f64"], ids=["dump", "spill"]
    )
    def test_full_disk_mid_write_refused(self, tmp_path, capsys, monkeypatch, full):
        """A write to a full disk in the second batch, to the dump or to a
        spill, gives one error line naming the file by its place in --out,
        and leaves nothing: --out is not made, and no staging directory is
        left."""
        real = Path.open

        class FullDisk:
            """The file, whose second write fails as a full disk's does."""

            def __init__(self, fh):
                self.fh, self.writes = fh, 0

            def write(self, data):
                self.writes += 1
                if self.writes == 2:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                return self.fh.write(data)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

        def open_(path, *args, **kwargs):
            fh = real(path, *args, **kwargs)
            return FullDisk(fh) if path.name == full else fh

        monkeypatch.setattr(Path, "open", open_)
        out = tmp_path / "out"
        cfg = _streamed_cfg("call")
        assert run_experiment(cfg, out) == EXIT_ERROR
        assert capsys.readouterr().err.splitlines() == [
            f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}: '{out / full}'"
        ]
        assert list(tmp_path.iterdir()) == []

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
    """The dump and the histogram series are written tile by tile while the
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
        _, raw = collect(simulate, 100.0, cfg.n_paths, child)
        oracle = tmp_path / "oracle"
        oracle.mkdir()
        buf = io.BytesIO()
        write_path_dump(buf, raw, model.horizon)
        (oracle / "paths_K100.csv").write_bytes(buf.getvalue())
        series = {f"S_{t}": raw["s"][t] for t in range(3)}
        series["eps_R"] = raw["eps"]
        for name, data in series.items():
            counts, edges = np.histogram(data, cfg.hist_bins)
            rows = [f"{float(a)!r},{float(b)!r},{c}" for a, b, c in zip(edges, edges[1:], counts)]
            text = "\n".join(["bin_lo,bin_hi,count", *rows]) + "\n"
            (oracle / f"hist_K100_{name}.csv").write_text(text)
        for path in sorted(oracle.iterdir()):
            assert (tmp_path / "run" / path.name).read_bytes() == path.read_bytes()

    def test_stats_only_run_holds_compact_rows(self, tmp_path, monkeypatch):
        """Without a dump the engine lays out its workspace compactly: a
        stats-only run passes no sink, and a binned run a sink that reads
        only rows the statistics read.  The stats bytes are those of a
        dumped run, which keeps every step's row."""
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
        dumped = replace(cfg, dump_paths=True)
        assert run_experiment(dumped, tmp_path / "dumped") == EXIT_OK
        assert layouts == [True, True, True, True, False, False]
        runs = ("stats", "binned", "dumped")
        stats = [(tmp_path / d / "stats.csv").read_bytes() for d in runs]
        assert stats[0] == stats[1] == stats[2]

    @pytest.mark.parametrize("horizon, rows", [(2, 8), (40, 8)])
    def test_binned_run_holds_compact_rows(self, tmp_path, monkeypatch, horizon, rows):
        """A run that bins but does not dump holds 8 batch rows at any
        horizon from T=2, the rows the statistics read, and at most 9 tile
        rows, not 5T+1."""
        made, real = [], simulation._workspace

        def spy(*args, **kwargs):
            made.append(real(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(simulation, "_workspace", spy)
        text = f"horizon = {horizon}\nn_paths = 300\nstrikes = 100\nhistograms = true\n"
        assert run_experiment(parse_config(text), tmp_path) == EXIT_OK
        (ws,) = made
        assert ws["eps"].base.shape == (rows, 300) and ws["draw"].shape == (3, 300)
        assert ws["tiles"].shape == ({2: 0, 40: 6}[horizon], 300)

    def test_memory_is_one_batch_whatever_n_paths(self, tmp_path):
        """Keeping every batch and joining them before writing peaked at 95 MB
        under tracemalloc on this run, and holding the four histogram series
        in memory 29.9 columns of BATCH_SIZE floats.  Streaming the dump
        tile by tile and spilling the series holds one batch's working set:
        the reused workspace's 8 batch rows of BATCH_SIZE floats and its
        tile rows, the aggregation's temporaries and the dump's chunk, with
        no column of the previous batch alive.  That measured 12.6 columns
        (11.7 at 6 batches; 15.7 when every entry held a batch row); the
        bound is 15, whatever n_paths."""
        cfg = _streamed_cfg("call", n_paths=3 * BATCH_SIZE + 3)
        tracemalloc.start()
        try:
            assert run_experiment(cfg, tmp_path) == EXIT_OK
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 15 * 8 * BATCH_SIZE

    @pytest.mark.parametrize("claim", sorted(STREAMED_RUNS))
    def test_failure_in_second_batch_leaves_no_dump(
        self, tmp_path, monkeypatch, claim
    ):
        engine = STREAMED_RUNS[claim][1]
        original = getattr(simulation, engine)
        calls, dumped = [], []

        def failing(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                dumped.extend(p.stat().st_size for p in tmp_path.rglob("paths_K100.csv"))
                raise ValueError("injected failure in the second batch")
            return original(*args, **kwargs)

        monkeypatch.setattr(simulation, engine, failing)
        assert run_experiment(_streamed_cfg(claim), tmp_path) == EXIT_ERROR
        assert len(calls) == 2
        assert dumped[0] > 0  # the first batch was being written out
        assert list(tmp_path.iterdir()) == []  # nothing written, not even the config

    @pytest.mark.parametrize(
        "text, digest",
        [
            (  # 2^17 + 2^13 + 5 paths: a batch boundary, and tiles of 2^13 paths
                "horizon = 3\nstrikes = 100\nn_paths = 139269\nseed = 29\n"
                "dump_paths = true\nhistograms = true\n",
                "7af2e4929ab255ec0e1c93d14b185fa63f402952fe999983b8ddfa05779449ca",
            ),
            (
                "horizon = 1\nstrikes = 90, 110\nn_paths = 20000\nseed = 31\n"
                "dump_paths = true\n",
                "6314d3ff27b08e1c9dee74507a849be929f9072e3c75754c93e943200af248a7",
            ),
        ],
        ids=["three-steps-dumped-and-binned", "one-step-dumped"],
    )
    def test_dumped_run_files_pinned(self, tmp_path, text, digest):
        """Every file of a dumped run: the bytes of the step-major engine,
        which held each entry in a batch row."""
        assert run_experiment(parse_config(text), tmp_path) == EXIT_OK
        assert _files_digest(tmp_path) == digest

    @pytest.mark.parametrize("out_exists", [True, False], ids=["existing_out", "new_out"])
    def test_failure_in_second_strike_removes_the_first(
        self, tmp_path, capsys, monkeypatch, out_exists
    ):
        """The first strike's dump, histograms and strategy tables, written
        before the second strike fails, never reach --out, and --out is
        not made if it did not exist.  A file already there stays."""
        out = tmp_path / "out" / "nested"
        if out_exists:
            out.mkdir(parents=True)
            (out / "notes.txt").write_text("kept")
        real, strikes, seen = cli.simulate_one, [], []

        def failing(model, pricing, strike, *args, **kwargs):
            strikes.append(strike)
            if strike == 110.0:
                seen.extend(p.name for p in tmp_path.rglob("*") if p.is_file())
                raise ValueError("injected failure in the second strike")
            return real(model, pricing, strike, *args, **kwargs)

        monkeypatch.setattr(cli, "simulate_one", failing)
        cfg = replace(_streamed_cfg("call", n_paths=500), strikes=(90.0, 110.0))
        assert run_experiment(replace(cfg, export_strategy=True), out) == EXIT_ERROR
        assert capsys.readouterr().err.endswith("injected failure in the second strike\n")
        assert strikes == [90.0, 110.0]
        wrote = {"paths_K90.csv", "hist_K90_eps_R.csv"}
        assert wrote | {"strategy_K90_t1.csv", "strategy_K110_t0.csv"} <= set(seen)
        if out_exists:
            assert [p.name for p in out.iterdir()] == ["notes.txt"]
            assert (out / "notes.txt").read_text() == "kept"
        else:
            assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("stop", ["interrupt", "warning"])
    def test_stopped_run_removes_its_files_and_propagates(
        self, tmp_path, capsys, monkeypatch, stop
    ):
        """A run stopped in its second strike by a KeyboardInterrupt, or by a
        RuntimeWarning promoted to an error, leaves nothing, as a refused run
        does, and lets the exception through."""
        out = tmp_path / "out" / "nested"
        real, seen = cli.simulate_one, []

        def stopping(model, pricing, strike, *args, **kwargs):
            if strike == 110.0:
                seen.extend(p.name for p in tmp_path.rglob("*") if p.is_file())
                if stop == "interrupt":
                    raise KeyboardInterrupt
                warnings.warn("overflow encountered in square", RuntimeWarning)
            return real(model, pricing, strike, *args, **kwargs)

        monkeypatch.setattr(cli, "simulate_one", stopping)
        cfg = replace(_streamed_cfg("call", n_paths=500), strikes=(90.0, 110.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(KeyboardInterrupt if stop == "interrupt" else RuntimeWarning):
                run_experiment(cfg, out)
        assert {"paths_K90.csv", "hist_K90_eps_R.csv"} <= set(seen)
        assert list(tmp_path.iterdir()) == []
        assert capsys.readouterr().err == ""  # propagated, not reported as refused


class TestStagedOutputs:
    """A run writes its files in a staging directory and publishes them to
    --out only once it has succeeded."""

    FIRST = "horizon = 2\nstrikes = 90, 110\nn_paths = 500\nseed = 3\n"

    def _first_run(self, out):
        """A finished run into ``out``: its files' bytes, by name."""
        cfg = parse_config(self.FIRST + "dump_paths = true\nhistograms = true\n")
        assert run_experiment(replace(cfg, export_strategy=True), out) == EXIT_OK
        return {p.name: p.read_bytes() for p in out.iterdir()}

    def test_finished_run_publishes_only_its_files(self, tmp_path):
        files = self._first_run(tmp_path / "out")
        assert list(tmp_path.iterdir()) == [tmp_path / "out"]
        assert len(files) == 3 + 2 * (1 + 4 + 2)  # config, stats; dump, hists, strategies
        assert all(name.endswith((".csv", ".txt")) for name in files)

    @pytest.mark.parametrize(
        "stop", ["narrow", "second_strike", "full_disk", "memory", "interrupt", "warning"]
    )
    def test_stopped_rerun_keeps_the_earlier_files(self, tmp_path, capsys, monkeypatch, stop):
        """A rerun into the same --out that stops, refused, out of memory or
        disk, interrupted or by a promoted warning, leaves every file of the
        earlier run byte for byte, adds none, and leaves no staging directory.
        Each rerun writes files the earlier run wrote before it stops."""
        out = tmp_path / "out"
        before = self._first_run(out)
        capsys.readouterr()
        cfg = replace(parse_config(self.FIRST + "dump_paths = true\n"), seed=4)
        raised, real = {"interrupt": KeyboardInterrupt, "warning": RuntimeWarning}, cli.simulate_one

        def stopping(model, pricing, strike, *args, **kwargs):
            if strike == 110.0:
                assert {"paths_K90.csv"} <= {p.name for p in tmp_path.rglob("*")}
                if stop == "memory":
                    raise MemoryError
                if stop == "second_strike":
                    raise ValueError("injected failure in the second strike")
                if stop == "interrupt":
                    raise KeyboardInterrupt
                warnings.warn("overflow encountered in square", RuntimeWarning)
            return real(model, pricing, strike, *args, **kwargs)

        if stop == "narrow":  # refused after the simulation: S_0 spans 1.1e-13
            cfg = parse_config(
                "k_down = 1\nk_up = 1.000000000000001\nstrikes = 100\nn_paths = 100\n"
                "histograms = true\ndump_paths = true\nexport_strategy = true\n"
            )
        elif stop == "full_disk":  # the second strike's dump finds the disk full
            real_open = Path.open

            def open_(path, *args, **kwargs):
                if path.name == "paths_K110.csv":
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                return real_open(path, *args, **kwargs)

            monkeypatch.setattr(Path, "open", open_)
        else:
            monkeypatch.setattr(cli, "simulate_one", stopping)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            if stop in raised:
                with pytest.raises(raised[stop]):
                    run_experiment(cfg, out)
            else:
                assert run_experiment(cfg, out) == EXIT_ERROR
        monkeypatch.undo()
        err = capsys.readouterr().err.splitlines()
        expected = {
            "narrow": "error: hist_K100_S_0.csv: the range",
            "second_strike": "error: injected failure in the second strike",
            "full_disk": f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}: "
            f"'{out / 'paths_K110.csv'}'",
            "memory": "error: out of memory with n_paths = 500",
        }
        assert [line[: len(expected[stop])] for line in err] == (
            [expected[stop]] if stop in expected else []
        )
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        assert list(tmp_path.iterdir()) == [out]


def _files_digest(out, pattern: str = "*") -> str:
    """sha256 over the names and bytes of a run's files matching ``pattern``."""
    h = hashlib.sha256()
    for path in sorted(out.glob(pattern)):
        h.update(path.name.encode() + b"\n" + path.read_bytes())
    return h.hexdigest()


# Values a series draws from: ties, and lanes equal to its max, are common.
HIST_VALUES = st.one_of(
    st.sampled_from([0.0, 0.1, 1.0, 99.99999999999999, 100.0, 1e-300]),
    st.floats(-1e6, 1e6, allow_nan=False),
)


class TestChunkedHistogram:
    """A histogram series spilled to disk is binned chunk by chunk over its
    min and max: the counts and edges of np.histogram of the whole series."""

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(HIST_VALUES, min_size=1, max_size=200),
        cuts=st.lists(st.integers(0, 200), max_size=6),
        bins=st.integers(1, 40),
    )
    @example(values=[3.5] * 7, cuts=[2, 2, 5], bins=4)  # constant: edges 3.0 .. 4.0
    @example(values=[1.0, 2.0, 2.0, 0.5, 2.0], cuts=[1, 3], bins=3)  # max at chunk edges
    def test_equals_whole_series(self, values, cuts, bins):
        data = np.array(values)
        # repeated cuts and cuts at 0 or len(data) make empty chunks
        chunks = np.split(data, sorted(min(c, data.size) for c in cuts))

        def outcome(histogram):
            """(counts' dtype, counts, edges' bytes), or the refusal's text
            when the range is too narrow for the bins."""
            try:
                counts, edges = histogram()
            except ValueError as exc:
                return str(exc)
            return counts.dtype, counts.tolist(), edges.tobytes()

        lo, hi = float(data.min()), float(data.max())
        got = outcome(partial(_histogram, chunks, bins, lo, hi))
        assert got == outcome(partial(np.histogram, data, bins))

    @pytest.mark.parametrize(
        "text, digest",
        [
            (
                "horizon = 1\nn_paths = 5000\nstrikes = 90, 110\nseed = 3\n",
                "bc2bf7897c86cbffa94b5b5a57341ad7fa8486c88cb7d0f8a7c1cac1dd1e2145",
            ),
            (
                "payoff = asian-call\nhorizon = 3\nstrikes = 100\nn_paths = 2000\nseed = 5\n",
                "41e71f25cf33dea463fa16c9e4c3579d25049b0611e97b1992c31d135ea8e67b",
            ),
            (  # a batch boundary, in the compact workspace
                "strikes = 100\nn_paths = 131075\nseed = 42\n",
                "e9beca0ffdc5e899d928b898271c11b909c98c4428711c1d211187057a0e3c33",
            ),
            (  # every series constant: np.histogram's +-0.5 edges
                "k_down = 1\nk_up = 1\nstrikes = 100\nn_paths = 300\nseed = 8\n",
                "8586c6113986163fbe186fa04d367964e4120f4b9373cb2d51a26505ba2ead1c",
            ),
        ],
        ids=["horizon-one", "asian-call", "batches", "constant"],
    )
    def test_files_pinned(self, tmp_path, text, digest):
        """The bytes np.histogram wrote from whole in-memory series."""
        assert run_experiment(parse_config(text + "histograms = true\n"), tmp_path) == EXIT_OK
        assert _files_digest(tmp_path, "hist_*") == digest
        assert {p.suffix for p in tmp_path.iterdir()} == {".csv", ".txt"}  # no spill


class TestFormatting:
    def test_csv_full_precision(self):
        values = dict.fromkeys(SimStats.ROW_LABELS[1:], 0.0)
        values.update({"E(S0)": 1 / 3, "E(S1)": math.nan})
        stats = SimStats(strike=100.0, n_paths=1, values=values)
        out = format_stats_csv([stats])
        assert "0.3333333333333333" in out
        assert out.count("\n") == 16
