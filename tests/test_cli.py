"""Tests for the command-line surface: config parsing, flag precedence,
subcommand behavior, output schemas and the verification entry point."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from youbounds import analytic, cli, harness, trees, verify
from youbounds.analytic import UNSUPPORTED_REGIME_MSG, JumpSchedule, YouParams


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestParseConfigFile:
    def test_parses_keys_comments_and_blanks(self, tmp_path):
        path = _write(tmp_path / "run.cfg", """
# full-line comment
model = YOU
n = 50          # trailing comment
alpha = 1.0

seed = 7
""")
        assert cli.parse_config_file(path) == {
            "model": "YOU", "n": "50", "alpha": "1.0", "seed": "7"}

    def test_unknown_key_rejected(self, tmp_path):
        path = _write(tmp_path / "run.cfg", "tips = 50\n")
        with pytest.raises(ValueError, match="unknown config key 'tips'"):
            cli.parse_config_file(path)

    def test_missing_equals_rejected(self, tmp_path):
        path = _write(tmp_path / "run.cfg", "n 50\n")
        with pytest.raises(ValueError, match="expected 'key = value'"):
            cli.parse_config_file(path)

    def test_empty_value_rejected(self, tmp_path):
        path = _write(tmp_path / "run.cfg", "n =   # nothing\n")
        with pytest.raises(ValueError, match="empty value"):
            cli.parse_config_file(path)

    def test_error_messages_carry_line_numbers(self, tmp_path):
        path = _write(tmp_path / "run.cfg", "n = 50\nbogus\n")
        with pytest.raises(ValueError, match=r":2:"):
            cli.parse_config_file(path)

    def test_hash_right_after_a_value_refused(self, tmp_path, capsys, monkeypatch):
        # cut at the `#`, the value would send the JSON to a file named `run`
        monkeypatch.chdir(tmp_path)
        path = _write(tmp_path / "run.cfg", "n = 6\nalpha = 1\nreplicates = 100\nseed = 1\n"
                                            "json = run#1.json\n")
        assert cli.main(["simulate", "--config", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {path}:5: a '#' comment must follow a blank, "
                                f"got 'json = run#1.json'\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


class TestFlagPrecedence:
    @pytest.mark.parametrize("key,file_text,flag,flag_text,parsed", [
        ("n", "50", "--n", "99", 99),
        ("alpha", "1.0", "--alpha", "2.5", 2.5),
        ("replicates", "100", "--replicates", "300", 300),
        ("seed", "1", "--seed", "8", 8),
        ("model", "YOU", "--model", "YOUj", "YOUj"),
        ("sigma_a2", "1.0", "--sigma-a2", "3.0", 3.0),
    ])
    def test_flag_wins_over_config(self, tmp_path, key, file_text, flag,
                                   flag_text, parsed):
        path = _write(tmp_path / "run.cfg", f"{key} = {file_text}\n")
        args = cli.build_parser().parse_args(
            ["simulate", "--config", path, flag, flag_text])
        assert cli._resolve_settings(args)[key] == parsed

    def test_config_value_used_without_flag(self, tmp_path):
        path = _write(tmp_path / "run.cfg", "n = 50\nalpha = 1.5\n")
        args = cli.build_parser().parse_args(["simulate", "--config", path])
        settings = cli._resolve_settings(args)
        assert settings["n"] == 50
        assert settings["alpha"] == 1.5

    def test_unparsable_config_value_names_the_key(self, tmp_path):
        path = _write(tmp_path / "run.cfg", "n = fifty\n")
        args = cli.build_parser().parse_args(["simulate", "--config", path])
        with pytest.raises(ValueError, match="config key 'n'"):
            cli._resolve_settings(args)


    def test_config_value_outside_its_choices_is_named(self, tmp_path, capsys):
        # the message names the key, the value and the choices
        path = _write(tmp_path / "run.cfg",
                      "model = you\nn = 6\nalpha = 1\nreplicates = 10\nseed = 1\n")
        assert cli.main(["simulate", "--config", path]) == 1
        assert capsys.readouterr().err == (
            "error: config key 'model': 'you' is not one of ['YOU', 'YOUj']\n")


class TestOneSettingsPath:
    """The simulate settings table and the trait defaults, seen only through
    the command line."""

    @pytest.mark.parametrize("jump_keys", [
        pytest.param({"p": "0.5", "sigma_c2": "2"}, id="constant-schedule"),
        pytest.param({"schedule_file": "jumps.txt"}, id="schedule-file"),
    ])
    def test_config_file_writes_what_flags_write(self, tmp_path, monkeypatch, jump_keys):
        # the two cases hold all 14 keys between them: a schedule file
        # replaces p and sigma_c2
        monkeypatch.chdir(tmp_path)
        _write(tmp_path / "jumps.txt", "0.5 2\n" * 11)
        common = {"model": "YOUj", "n": "12", "alpha": "1.5", "sigma_a2": "2", "x0": "0.3",
                  **jump_keys, "replicates": "80", "seed": "9", "workers": "2"}
        blobs = []
        for route in ("flags", "config"):
            (tmp_path / route).mkdir()
            given = {**common, "json": f"{route}/run.json", "csv": f"{route}/est.csv",
                     "dump_tree": f"{route}/tree.txt"}
            if route == "flags":
                argv = [a for k, v in given.items() for a in (f"--{k.replace('_', '-')}", v)]
            else:
                text = "".join(f"{k} = {v}\n" for k, v in given.items())
                argv = ["--config", _write(tmp_path / "run.cfg", text)]
            assert cli.main(["simulate"] + argv) == 0
            blobs.append([(tmp_path / given[k]).read_bytes()
                          for k in ("json", "csv", "dump_tree")])
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("argv,defaults", [
        pytest.param(["bounds", "--n", "500", "--alpha", "1.5"],
                     ["--sigma-a2", "1", "--x0", "0"], id="bounds"),
        pytest.param(["bounds", "--model", "YOUj", "--p", "1", "--sigma-c2", "1", "--n", "500",
                      "--alpha", "1.5"], ["--sigma-a2", "1", "--x0", "0"], id="bounds-YOUj"),
        # curves' offset defaults to (2 alpha)^-1/2 for each rate: 0.5 at alpha 2
        pytest.param(["curves", "--alphas", "2", "--points", "3", "--n-max", "1000",
                      "--out", "OUT"], ["--sigma-a2", "1", "--x0", "0.5"], id="curves"),
        pytest.param(["simulate", "--n", "20", "--alpha", "1.5", "--replicates", "60",
                      "--seed", "3", "--json", "OUT"], ["--sigma-a2", "1", "--x0", "0"],
                     id="simulate"),
    ])
    def test_omitted_trait_flags_take_the_defaults(self, tmp_path, capsys, argv, defaults):
        out = tmp_path / "out"
        runs = []
        for extra in ([], defaults):
            assert cli.main([str(out) if a == "OUT" else a for a in argv] + extra) == 0
            text = out.read_text(encoding="utf-8") if out.exists() else None
            runs.append((capsys.readouterr().out, text))
            out.unlink(missing_ok=True)
        assert runs[0] == runs[1]


class TestWorkerDefaults:
    def test_explicit_setting_wins(self, monkeypatch):
        monkeypatch.setenv("YOUBOUNDS_WORKERS", "3")
        assert harness.resolve_workers(2, 1) == 2

    def test_environment_variable_used(self, monkeypatch):
        monkeypatch.setenv("YOUBOUNDS_WORKERS", "3")
        assert harness.resolve_workers(None, 1) == 3

    def test_defaults_to_single_worker(self, monkeypatch):
        monkeypatch.delenv("YOUBOUNDS_WORKERS", raising=False)
        assert harness.resolve_workers(None, 1) == 1

    def test_bad_environment_value_rejected(self, monkeypatch):
        monkeypatch.setenv("YOUBOUNDS_WORKERS", "many")
        with pytest.raises(ValueError, match="YOUBOUNDS_WORKERS"):
            harness.resolve_workers(None, 1)

    def test_bad_environment_value_rejected_by_verify(self, monkeypatch, capsys):
        monkeypatch.setenv("YOUBOUNDS_WORKERS", "many")
        assert cli.main(["verify", "--level", "quick"]) == 1
        err = capsys.readouterr().err
        assert "error: YOUBOUNDS_WORKERS must be an integer, got 'many'" in err

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_environment_value_below_one_rejected(self, monkeypatch, capsys, value):
        monkeypatch.setenv("YOUBOUNDS_WORKERS", value)
        with pytest.raises(ValueError, match="YOUBOUNDS_WORKERS must be >= 1"):
            harness.resolve_workers(None, 1)
        assert cli.main(["simulate", "--n", "20", "--alpha", "1.0",
                         "--replicates", "50", "--seed", "1"]) == 1
        assert f"error: YOUBOUNDS_WORKERS must be >= 1, got '{value}'" in capsys.readouterr().err

    @pytest.mark.parametrize("level", ["quick", "full"])
    def test_verify_refuses_zero_workers_before_any_criterion(self, capsys, level):
        assert cli.main(["verify", "--level", level, "--workers", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: --workers must be >= 1, got 0" in captured.err


class TestBoundsCommand:
    def test_prints_terms_and_totals(self, capsys):
        code = cli.main(["bounds", "--model", "YOU", "--n", "10000",
                         "--alpha", "1.0"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("model YOU  n 10000  alpha 1")
        assert "regime fast/one" in out
        assert "kolmogorov upper bound" in out
        assert "wasserstein upper bound" in out
        totals = [float(line.split()[-1]) for line in out.splitlines()
                  if line.strip().startswith("total")]
        assert len(totals) == 2
        assert all(0.0 < t < math.inf for t in totals)

    def test_next_to_critical_rate(self, capsys):
        # a rate 2e-12 above 1/2 is outside the critical window: the closed
        # forms there must keep their digits at n = 1e6
        code = cli.main(["bounds", "--n", "1000000", "--alpha", "0.500000000002"])
        out = capsys.readouterr().out
        assert code == 0
        totals = [float(line.split()[-1]) for line in out.splitlines()
                  if line.strip().startswith("total")]
        assert len(totals) == 2
        assert all(0.0 < t < math.inf for t in totals)

    def test_large_rate_is_finite(self, capsys):
        # Gamma(2a + 1) overflows above a = 85.3: no bound ingredient may need it
        code = cli.main(["bounds", "--n", "1000", "--alpha", "100"])
        out = capsys.readouterr().out
        assert code == 0
        totals = [float(line.split()[-1]) for line in out.splitlines()
                  if line.strip().startswith("total")]
        assert len(totals) == 2
        assert all(0.0 < t < math.inf for t in totals)

    @pytest.mark.parametrize("alpha", ["2e102", "1e155", "1e300"])
    @pytest.mark.parametrize("model", [
        pytest.param(["--model", "YOU"], id="YOU"),
        pytest.param(["--model", "YOUj", "--p", "0.5", "--sigma-c2", "1e-300"], id="YOUj-partial"),
        pytest.param(["--model", "YOUj", "--p", "1", "--sigma-c2", "1e-300"], id="YOUj-certain"),
    ])
    def test_rate_beyond_the_rate_table_refused(self, capsys, alpha, model):
        # above 3/4 vv is about n^-3 / alpha (the jump scale is at most 2
        # here): past n^3 alpha = 4.5e307 it is no normal double, and a
        # subnormal vv has lost its digits
        n = {"2e102": 10 ** 69, "1e155": 10 ** 51, "1e300": 10 ** 3}[alpha]
        code = cli.main(["bounds", "--n", str(n), "--alpha", alpha] + model)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith(f"error: the rate table cannot hold vv at "
                                       f"alpha = {float(alpha)!r}")

    def test_partial_jumps_with_overflowing_rate_square(self, capsys):
        # L = (2 alpha / sigma_a2) sigma_c2 = 1e50 has a finite square, so the
        # rate table holds vv although (2 alpha / sigma_a2)^2 overflows
        code = cli.main(["bounds", "--model", "YOUj", "--n", "100", "--alpha", "0.6",
                         "--sigma-a2", "1.2e-200", "--p", "0.5", "--sigma-c2", "1e-150"])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        totals = [float(line.split()[1]) for line in captured.out.splitlines()
                  if line.strip().startswith("total")]
        assert len(totals) == 2 and all(0.0 < t < math.inf for t in totals)

    def test_single_distance_selection(self, capsys):
        code = cli.main(["bounds", "--n", "100", "--alpha", "1.0",
                         "--distance", "kolmogorov"])
        out = capsys.readouterr().out
        assert code == 0
        assert "kolmogorov upper bound" in out
        assert "wasserstein" not in out

    def test_unsupported_regime_message(self, capsys):
        code = cli.main(["bounds", "--n", "100", "--alpha", "0.4"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: {UNSUPPORTED_REGIME_MSG} at alpha = 0.4\n"

    def test_jump_flags_require_jump_model(self, capsys):
        code = cli.main(["bounds", "--n", "100", "--alpha", "1.0",
                         "--p", "0.5"])
        assert code == 1
        assert "require model YOUj" in capsys.readouterr().err

    def test_jump_model_requires_jump_flags(self, capsys):
        # bounds takes no schedule file, so the message must not offer one
        code = cli.main(["bounds", "--model", "YOUj", "--n", "100", "--alpha", "1"])
        assert code == 1
        assert capsys.readouterr().err == "error: model YOUj requires --p and --sigma-c2\n"

    def test_single_tip_rejected_without_internal_names(self, capsys):
        code = cli.main(["bounds", "--n", "1", "--alpha", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "var_ybar" not in captured.err
        # internal functions all have snake_case names
        assert not re.search(r"[a-z]_[a-z]", captured.err)

    def test_partial_jump_probability_flagged_non_convergent(self, capsys):
        # only on (1/2, 3/4]: above 3/4 vv falls like n^-3
        for alpha, flagged in (("0.6", True), ("1.0", False)):
            code = cli.main(["bounds", "--model", "YOUj", "--n", "1000",
                             "--alpha", alpha, "--p", "0.5", "--sigma-c2", "1.0"])
            out = capsys.readouterr().out
            assert code == 0
            assert ("non-convergent" in out) == flagged


class TestCurvesCommand:
    def _run(self, tmp_path, *extra):
        out = tmp_path / "curves.csv"
        code = cli.main(["curves", "--out", str(out), "--points", "5",
                         "--n-min", "100", "--n-max", "10000", *extra])
        return code, out

    def test_schema_and_row_counts(self, tmp_path, capsys):
        code, out = self._run(tmp_path, "--alphas", "0.5,1",
                              "--distance", "both")
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "model,alpha,n,distance,term1,term2,term3,term4,total,regime"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 2 * 2 * 5
        assert all(len(r) == 10 for r in rows)
        assert "wrote 20 rows" in capsys.readouterr().out

    def test_large_rate(self, tmp_path):
        code, out = self._run(tmp_path, "--alphas", "100", "--distance", "both")
        assert code == 0
        rows = out.read_text(encoding="utf-8").splitlines()[1:]
        totals = [float(line.split(",")[8]) for line in rows]
        assert len(totals) == 10
        assert all(0.0 < t < math.inf for t in totals)

    def test_kolmogorov_pads_missing_fourth_term(self, tmp_path):
        code, out = self._run(tmp_path, "--alphas", "1",
                              "--distance", "kolmogorov")
        assert code == 0
        for row in out.read_text(encoding="utf-8").splitlines()[1:]:
            fields = row.split(",")
            assert fields[7] == "nan"
            assert math.isfinite(float(fields[8]))

    def test_wasserstein_has_four_terms(self, tmp_path):
        code, out = self._run(tmp_path, "--alphas", "1",
                              "--distance", "wasserstein")
        assert code == 0
        for row in out.read_text(encoding="utf-8").splitlines()[1:]:
            fields = row.split(",")
            assert all(math.isfinite(float(fields[i])) for i in range(4, 9))

    def test_totals_decrease_along_each_curve(self, tmp_path):
        code, out = self._run(tmp_path, "--alphas", "0.5,0.75,1,2",
                              "--distance", "both")
        assert code == 0
        curves = {}
        for row in out.read_text(encoding="utf-8").splitlines()[1:]:
            fields = row.split(",")
            curves.setdefault((fields[1], fields[3]), []).append(float(fields[8]))
        assert len(curves) == 8
        for totals in curves.values():
            assert all(a > b for a, b in zip(totals, totals[1:]))

    def test_numeric_fields_roundtrip(self, tmp_path):
        code, out = self._run(tmp_path, "--alphas", "1",
                              "--distance", "kolmogorov")
        assert code == 0
        for row in out.read_text(encoding="utf-8").splitlines()[1:]:
            for field in row.split(",")[4:9]:
                reparsed = float(field)
                if not math.isnan(reparsed):
                    assert f"{reparsed:.17g}" == field

    def test_jump_model_rows_flag_non_convergence(self, tmp_path):
        code, out = self._run(tmp_path, "--model", "YOUj", "--alphas", "0.6,1",
                              "--p", "0.5", "--sigma-c2", "1.0",
                              "--distance", "kolmogorov")
        assert code == 0
        rows = [row.split(",") for row in out.read_text(encoding="utf-8").splitlines()[1:]]
        assert len(rows) == 10
        assert all(row[-1].endswith(";non-convergent") == (row[1] == "0.59999999999999998")
                   for row in rows)

    @pytest.mark.parametrize("alphas", ["1,1", "2,1,1.0"])
    def test_repeated_rate_refused(self, tmp_path, capsys, alphas):
        # a repeat would write the rate's rows twice into one gnuplot block
        code, out = self._run(tmp_path, "--alphas", alphas, "--gnuplot", str(tmp_path / "c.gp"))
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --alphas names the rate 1 more than once\n"
        assert not out.exists()

    def test_jump_flags_require_jump_model(self, tmp_path, capsys):
        code, out = self._run(tmp_path, "--alphas", "1", "--p", "0.3")
        assert code == 1
        assert capsys.readouterr().err == (
            "error: jump settings --p require model YOUj, not YOU\n")
        assert not out.exists()

    def test_jump_model_defaults(self, tmp_path):
        def rows(*flags):
            code, out = self._run(tmp_path, "--model", "YOUj", "--alphas", "1", *flags)
            assert code == 0
            return out.read_text(encoding="utf-8")

        assert rows() == rows("--p", "0.5", "--sigma-c2", "1")
        assert rows("--p", "0.3") == rows("--p", "0.3", "--sigma-c2", "1")

    def test_gnuplot_companion_file(self, tmp_path):
        gp = tmp_path / "curves.gp"
        out = tmp_path / "curves.csv"
        code = cli.main(["curves", "--out", str(out), "--points", "4",
                         "--n-min", "100", "--n-max", "10000",
                         "--alphas", "0.5,1", "--gnuplot", str(gp)])
        assert code == 0
        text = gp.read_text(encoding="utf-8")
        assert text.startswith("# generated by: youbounds curves --gnuplot")
        assert "set logscale xy" in text
        assert "$curve_0 << EOD" in text
        assert "title 'YOU alpha=0.5 kolmogorov'" in text
        assert text.count("with lines") == 2

    def test_gnuplot_blocks_hold_the_csv_points(self, tmp_path):
        gp, out = tmp_path / "curves.gp", tmp_path / "curves.csv"
        code = cli.main(["curves", "--model", "YOUj", "--alphas", "0.5,1", "--distance", "both",
                         "--n-min", "100", "--n-max", "10000", "--points", "4",
                         "--out", str(out), "--gnuplot", str(gp)])
        assert code == 0
        header, *lines = out.read_text(encoding="utf-8").splitlines()
        curves = {}  # (model, alpha, distance) -> [(n, total)], in row order
        for line in lines:
            row = dict(zip(header.split(","), line.split(","), strict=True))
            key = (row["model"], row["alpha"], row["distance"])
            curves.setdefault(key, []).append((row["n"], row["total"]))
        assert len(curves) == 4
        text = gp.read_text(encoding="utf-8")
        blocks = re.findall(r"^\$curve_(\d+) << EOD\n(.*?)^EOD$", text, re.M | re.S)
        assert [int(i) for i, _ in blocks] == list(range(len(curves)))
        assert [[tuple(pair.split(" ")) for pair in body.splitlines()] for _, body in blocks] \
            == list(curves.values())
        titles = re.findall(r"^    \$curve_(\d+) using 1:2 with lines title '(.*)'", text, re.M)
        assert titles == [(str(i), f"{model} alpha={alpha} {distance}")
                          for i, (model, alpha, distance) in enumerate(curves)]

    def test_unsupported_rate_rejected(self, tmp_path, capsys):
        # among several rates, the message names the one refused
        for alphas, rejected in (("0.4", "0.4"), ("0.5,0.45,1", "0.45")):
            code, _ = self._run(tmp_path, "--alphas", alphas)
            assert code == 1
            assert capsys.readouterr().err == (
                f"error: {UNSUPPORTED_REGIME_MSG} at alpha = {rejected}\n")

    def test_bad_grid_rejected(self, tmp_path, capsys):
        out = tmp_path / "curves.csv"
        code = cli.main(["curves", "--out", str(out), "--points", "1"])
        assert code == 1
        assert "points >= 2" in capsys.readouterr().err

    def test_empty_alpha_list_rejected(self, tmp_path, capsys):
        code, _ = self._run(tmp_path, "--alphas", ",")
        assert code == 1
        assert "at least one rate" in capsys.readouterr().err

    def test_bad_rate_names_the_flag(self, tmp_path, capsys):
        code, _ = self._run(tmp_path, "--alphas", "1,abc")
        assert code == 1
        assert capsys.readouterr().err == (
            "error: --alphas must be comma-separated numbers, got '1,abc'\n")

    def test_unwritable_path_is_io_error(self, tmp_path, capsys):
        code = cli.main(["curves", "--out",
                         str(tmp_path / "no_such_dir" / "x.csv")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestSimulateCommand:
    BASE = ["simulate", "--model", "YOU", "--n", "30", "--alpha", "1.0",
            "--x0", "0.7", "--replicates", "400", "--seed", "42"]

    def test_requires_seed(self, capsys):
        code = cli.main(["simulate", "--n", "20", "--alpha", "1.0",
                         "--replicates", "50"])
        assert code == 1
        assert "seed" in capsys.readouterr().err

    def test_rejects_single_replicate(self, capsys):
        code = cli.main(["simulate", "--n", "20", "--alpha", "1.0",
                         "--replicates", "1", "--seed", "1"])
        assert code == 1
        assert "replicates" in capsys.readouterr().err

    def test_rate_beyond_the_rate_table_refused_before_drawing(self, capsys, monkeypatch):
        def no_draws(config):
            raise AssertionError("a replicate was drawn")

        monkeypatch.setattr(harness, "run_replicates", no_draws)
        code = cli.main(["simulate", "--n", "1000", "--alpha", "1e300",
                         "--replicates", "1000", "--seed", "1"])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "error: the rate table cannot hold vv at alpha = 1e+300")

    def test_json_document_shape(self, tmp_path):
        path = tmp_path / "run.json"
        assert cli.main(self.BASE + ["--json", str(path)]) == 0
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert doc["model"] == "YOU"
        assert doc["n"] == 30
        assert doc["replicates"] == 400
        assert doc["seed"] == 42
        assert set(doc["estimates"]) == {"mean", "ev", "vv", "ve"}
        assert set(doc["empirical"]) == {"dk", "dw", "dkw_band",
                                         "dw_bootstrap_se", "kappa_mean"}
        assert set(doc["bounds"]) == {"upper_dk", "upper_dw",
                                      "lower_dk", "lower_dw"}
        assert doc["verdicts"]["dk"] in ("pass", "fail", "inconclusive")
        assert "workers" not in doc

    def test_large_rate(self, tmp_path):
        path = tmp_path / "run.json"
        assert cli.main(["simulate", "--n", "30", "--alpha", "100", "--replicates", "200",
                         "--seed", "3", "--json", str(path)]) == 0
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert all(0.0 < doc["bounds"][k]["total"] < math.inf
                   for k in ("upper_dk", "upper_dw"))

    def test_stdout_when_no_json_path(self, capsys):
        assert cli.main(self.BASE) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["model"] == "YOU"

    def test_byte_identical_across_reruns_and_workers(self, tmp_path):
        paths = [tmp_path / f"run{i}.json" for i in range(3)]
        assert cli.main(self.BASE + ["--json", str(paths[0])]) == 0
        assert cli.main(self.BASE + ["--json", str(paths[1])]) == 0
        assert cli.main(self.BASE + ["--workers", "2",
                                     "--json", str(paths[2])]) == 0
        blobs = [p.read_bytes() for p in paths]
        assert blobs[0] == blobs[1] == blobs[2]

    def test_estimates_csv_schema(self, tmp_path):
        csv_path = tmp_path / "est.csv"
        json_path = tmp_path / "run.json"
        assert cli.main(self.BASE + ["--json", str(json_path),
                                     "--csv", str(csv_path)]) == 0
        lines = csv_path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "quantity,value,se,r_used"
        quantities = [line.split(",")[0] for line in lines[1:]]
        assert quantities == ["mean", "ev", "vv", "ve", "kappa_mean",
                              "empirical_dk", "empirical_dw"]
        doc = json.loads(json_path.read_text(encoding="utf-8"))
        by_name = {line.split(",")[0]: line.split(",") for line in lines[1:]}
        assert float(by_name["ev"][1]) == doc["estimates"]["ev"]["value"]
        assert float(by_name["empirical_dk"][1]) == doc["empirical"]["dk"]
        assert all(fields[3] == "400" for fields in by_name.values())

    def test_config_file_drives_everything(self, tmp_path):
        json_path = tmp_path / "run.json"
        csv_path = tmp_path / "est.csv"
        dump_path = tmp_path / "tree.txt"
        cfg = _write(tmp_path / "run.cfg", f"""
model = YOU
n = 12
alpha = 1.0
x0 = 0.5
replicates = 60
seed = 5
json = {json_path}
csv = {csv_path}
dump_tree = {dump_path}
""")
        assert cli.main(["simulate", "--config", cfg]) == 0
        doc = json.loads(json_path.read_text(encoding="utf-8"))
        assert doc["n"] == 12
        assert csv_path.read_text(encoding="utf-8").startswith("quantity,")
        # replicate 0 is row 0 of block 0's draws
        block = trees.sample_tree(12, harness.replicate_rng(5, 0), harness._block_size(12))
        expected = trees.dump_tree(block)
        assert dump_path.read_text(encoding="utf-8") == expected

    @pytest.mark.parametrize("jump_flags", [[], ["--model", "YOUj", "--p", "0.5",
                                                  "--sigma-c2", "1"]])
    def test_dump_tree_is_the_engines_replicate_zero(self, tmp_path, jump_flags):
        # rebuild the tree from the dump alone and compare it with the
        # engine's oracle columns of replicate 0
        dump_path = tmp_path / "tree.txt"
        argv = ["simulate", "--n", "40", "--alpha", "1.0", "--x0", "0.5",
                "--replicates", "30", "--seed", "17", "--json", str(tmp_path / "run.json"),
                "--dump-tree", str(dump_path)] + jump_flags
        assert cli.main(argv) == 0
        rows = [line.split("\t") for line in dump_path.read_text(encoding="utf-8").splitlines()]
        times = np.array([float(row[1]) for row in rows])
        splits = np.array([[int(row[2]) - 1 for row in rows[:-1]]])
        block = trees.TreeBlock(times=times[None], splits=splits,
                                daughter_counts=trees.daughter_counts(splits),
                                coalescence_ages=np.cumsum(times[:0:-1])[None, ::-1],
                                heights=np.array([math.fsum(times)]))
        config = harness.ExperimentConfig(
            model="YOUj" if jump_flags else "YOU", n=40,
            params=YouParams(alpha=1.0, x0=0.5),
            schedule=JumpSchedule.constant(0.5, 1.0) if jump_flags else JumpSchedule.none(),
            replicates=30, seed=17)
        oracle = harness.run_replicates(config, collect_oracle=True).oracle
        assert oracle["exp_height_1"][0] == pytest.approx(math.exp(-block.heights[0]),
                                                          rel=1e-14, abs=0.0)
        assert oracle["pair_1"][0] == pytest.approx(
            trees.pair_mean_exp(block, 1.0)[0], rel=1e-14, abs=0.0)
        if jump_flags:
            flags = np.array([[[c == "1" for c in row[3]] for row in rows[:-1]]])
            single, pair = trees.jump_exposure_sums(block, flags, 1.0)
            assert oracle["jump_single"][0] == pytest.approx(single[0], rel=1e-14, abs=0.0)
            assert oracle["jump_pair"][0] == pytest.approx(pair[0], rel=1e-14, abs=0.0)

    def test_slow_rate_runs_without_sandwich(self, tmp_path):
        path = tmp_path / "run.json"
        code = cli.main(["simulate", "--n", "30", "--alpha", "0.3",
                         "--replicates", "200", "--seed", "3",
                         "--json", str(path)])
        assert code == 0
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert "empirical" not in doc
        assert "verdicts" not in doc
        assert "no normal limit expected below the critical rate" in doc["note"]
        assert set(doc["estimates"]) == {"mean", "ev", "vv", "ve"}

    def test_per_event_schedule_file(self, tmp_path):
        schedule = _write(tmp_path / "jumps.txt",
                          "# p sigma_c2\n" + "0.5 1.0\n" * 5)
        path = tmp_path / "run.json"
        code = cli.main(["simulate", "--model", "YOUj", "--n", "6",
                         "--alpha", "1.0", "--schedule-file", schedule,
                         "--replicates", "100", "--seed", "4",
                         "--json", str(path)])
        assert code == 0
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert doc["jump_schedule"] == "per-event (5 entries)"
        assert "empirical" not in doc
        assert "per-event schedules have no closed-form bounds" in doc["note"]

    def test_schedule_file_trailing_comment(self, tmp_path):
        commented = _write(tmp_path / "commented.txt",
                           "0.5 1.0   # first event\n\n0.25 2 #\n" + "1 0.5\n" * 3)
        plain = _write(tmp_path / "plain.txt", "0.5 1.0\n0.25 2\n" + "1 0.5\n" * 3)
        schedule = cli.parse_schedule_file(commented, 6)
        assert schedule == cli.parse_schedule_file(plain, 6)
        assert schedule.pairs == ((0.5, 1.0), (0.25, 2.0)) + ((1.0, 0.5),) * 3

    def test_schedule_file_hash_right_after_a_number_refused(self, tmp_path):
        schedule = _write(tmp_path / "jumps.txt", "# p sigma_c2\n0.5 1.0\n0.5 1.0#2\n")
        with pytest.raises(ValueError, match=f"^{re.escape(schedule)}:3: a '#' comment must "
                                             f"follow a blank, got '0.5 1.0#2'$"):
            cli.parse_schedule_file(schedule, 3)

    def test_schedule_file_row_count_validated(self, tmp_path, capsys):
        schedule = _write(tmp_path / "jumps.txt", "0.5 1.0\n" * 3)
        code = cli.main(["simulate", "--model", "YOUj", "--n", "6",
                         "--alpha", "1.0", "--schedule-file", schedule,
                         "--replicates", "100", "--seed", "4"])
        assert code == 1
        assert "schedule rows" in capsys.readouterr().err

    def test_schedule_file_excludes_constant_settings(self, tmp_path, capsys):
        schedule = _write(tmp_path / "jumps.txt", "0.5 1.0\n" * 5)
        code = cli.main(["simulate", "--model", "YOUj", "--n", "6",
                         "--alpha", "1.0", "--schedule-file", schedule,
                         "--p", "0.5", "--replicates", "100", "--seed", "4"])
        assert code == 1
        assert "replaces" in capsys.readouterr().err

    def test_malformed_schedule_line(self, tmp_path, capsys):
        schedule = _write(tmp_path / "jumps.txt", "0.5\n" * 5)
        code = cli.main(["simulate", "--model", "YOUj", "--n", "6",
                         "--alpha", "1.0", "--schedule-file", schedule,
                         "--replicates", "100", "--seed", "4"])
        assert code == 1
        assert "expected 'p sigma_c2'" in capsys.readouterr().err

    def test_bad_number_in_schedule_names_path_and_line(self, tmp_path, capsys):
        schedule = _write(tmp_path / "jumps.txt",
                          "0.5 1.0\n# comment\n0.5 x\n" + "0.5 1.0\n" * 3)
        code = cli.main(["simulate", "--model", "YOUj", "--n", "6",
                         "--alpha", "1.0", "--schedule-file", schedule,
                         "--replicates", "100", "--seed", "4"])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {schedule}:3: expected 'p sigma_c2', got '0.5 x'\n")

    def test_jump_model_requires_jump_settings(self, capsys):
        code = cli.main(["simulate", "--model", "YOUj", "--n", "6",
                         "--alpha", "1.0", "--replicates", "100", "--seed", "4"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: model YOUj requires --p and --sigma-c2 (or --schedule-file)\n")

    def test_jump_model_constant_schedule_runs(self, tmp_path):
        path = tmp_path / "run.json"
        code = cli.main(["simulate", "--model", "YOUj", "--n", "30",
                         "--alpha", "1.0", "--p", "1.0", "--sigma-c2", "1.0",
                         "--replicates", "300", "--seed", "6",
                         "--json", str(path)])
        assert code == 0
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert doc["jump_p"] == 1.0
        assert doc["jump_sigma_c2"] == 1.0
        assert "empirical" in doc


class TestOffsetWithoutFiniteSquare:
    """An offset x0 sqrt(2 alpha / sigma_a2) that is NaN or whose square
    overflows is refused by name, before any bound or draw; a 2 alpha /
    sigma_a2 that overflows is refused by its own name first."""

    @staticmethod
    def offset(x0, alpha, sigma_a2):
        return (f"offset x0 sqrt(2 alpha / sigma_a2) has no finite square at "
                f"x0 = {x0!r}, alpha = {alpha!r}, sigma_a2 = {sigma_a2!r}")

    @staticmethod
    def rate_scale(alpha, sigma_a2):
        return f"2 alpha / sigma_a2 is not finite at alpha = {alpha!r}, sigma_a2 = {sigma_a2!r}"

    @pytest.mark.parametrize("argv,message", [
        (["bounds", "--n", "100", "--alpha", "1", "--x0", "1e155"], offset(1e155, 1.0, 1.0)),
        (["bounds", "--n", "100", "--alpha", "1", "--sigma-a2", "1e-320"],
         rate_scale(1.0, 1e-320)),
        (["bounds", "--n", "2", "--alpha", "1e308"], rate_scale(1e308, 1.0)),
        (["curves", "--alphas", "1", "--x0", "1e200"], offset(1e200, 1.0, 1.0)),
        # the default x0 = (2 alpha)^-1/2 underflows to 0 here
        (["curves", "--alphas", "1e308"], rate_scale(1e308, 1.0)),
        (["simulate", "--n", "50", "--alpha", "0.3", "--replicates", "10", "--seed", "1",
          "--x0", "1e200"], offset(1e200, 0.3, 1.0)),
    ], ids=["bounds-x0", "bounds-sigma_a2", "bounds-alpha", "curves", "curves-alpha", "simulate"])
    def test_refused_by_name(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        argv = argv + (["--out", str(out)] if argv[0] == "curves" else [])
        argv = argv + (["--json", str(out)] if argv[0] == "simulate" else [])
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert not out.exists()


class TestJumpScaleWithoutFiniteSquare:
    """A jump scale L = (2 alpha / sigma_a2) sigma_c2 whose square overflows
    is refused by name, before any bound or draw."""

    SIMULATE = ["simulate", "--n", "5", "--replicates", "200", "--seed", "1"]

    @pytest.mark.parametrize("argv,sigma_c2,alpha,sigma_a2", [
        (["bounds", "--n", "5", "--alpha", "1", "--p", "1", "--sigma-c2", "1e300"],
         1e300, 1.0, 1.0),
        (["bounds", "--n", "5", "--alpha", "1", "--p", "1", "--sigma-c2", "1", "--sigma-a2",
          "1e-300"], 1.0, 1.0, 1e-300),
        (["curves", "--alphas", "1", "--p", "1", "--sigma-c2", "1e300"], 1e300, 1.0, 1.0),
        (SIMULATE + ["--alpha", "1", "--p", "1", "--sigma-c2", "1e300"], 1e300, 1.0, 1.0),
        (SIMULATE + ["--alpha", "0.3", "--sigma-a2", "1e-300", "--p", "0.5", "--sigma-c2", "1"],
         1.0, 0.3, 1e-300),
    ], ids=["bounds-sigma_c2", "bounds-sigma_a2", "curves", "simulate", "simulate-below-half"])
    def test_refused_by_name(self, tmp_path, capsys, argv, sigma_c2, alpha, sigma_a2):
        out = tmp_path / "out"
        argv = argv + ["--model", "YOUj"]
        argv = argv + (["--out", str(out)] if argv[0] == "curves" else [])
        argv = argv + (["--json", str(out)] if argv[0] == "simulate" else [])
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: jump scale (2 alpha / sigma_a2) sigma_c2 has no finite square at "
            f"sigma_c2 = {sigma_c2!r}, alpha = {alpha!r}, sigma_a2 = {sigma_a2!r}\n")
        assert not out.exists()

    def test_largest_accepted_scale_keeps_every_estimate_finite(self, tmp_path, capsys):
        # at alpha = 1 and p = 1 the rate table's vv is 64/3 + 2 L C1 +
        # L^2 (A + B), with the scale L = 2 sigma_c2 and A + B = 171/2, so it
        # overflows below the largest scale with a finite square. The largest
        # sigma_c2 whose vv is finite runs, and the next float up is refused
        def accepted(bits):
            schedule = JumpSchedule.constant(1.0, float(np.int64(bits).view(np.float64)))
            try:
                analytic.bound_point(YouParams(1.0), schedule, 2)
            except ValueError:
                return False
            return True

        most = np.finfo(np.float64).max
        lo, hi = (int(np.float64(s).view(np.int64)) for s in (1.0, math.sqrt(most) / 2.0))
        assert accepted(lo) and not accepted(hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if accepted(mid) else (lo, mid)
        largest = float(np.int64(lo).view(np.float64))
        assert largest == pytest.approx(math.sqrt(most / (4.0 * 85.5)), rel=1e-12)
        path = tmp_path / "run.json"
        argv = ["simulate", "--model", "YOUj", "--n", "2", "--alpha", "1", "--p", "1",
                "--replicates", "200", "--seed", "1", "--json", str(path)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(argv + ["--sigma-c2", repr(largest)]) == 0
        est = json.loads(path.read_text(encoding="utf-8"))["estimates"]
        for name in ("ev", "vv"):
            assert math.isfinite(est[name]["value"]) and est[name]["value"] > 0.0
            assert math.isfinite(est[name]["se"]) and est[name]["se"] > 0.0
        assert est["vv"]["value"] > 1e304
        above = math.nextafter(largest, math.inf)
        capsys.readouterr()
        assert cli.main(argv + ["--sigma-c2", repr(above)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: the rate table cannot hold vv at alpha = 1.0 "
                                f"(sigma_a2 = 1.0, sigma_c2 = {above!r}): at n = 2 it is inf "
                                f"in double precision\n")


class TestNoTraceback:
    """Every command on the jump model, over a cross of extreme settings,
    either succeeds or ends with one `error:` line and nothing on stdout;
    no exception, warnings included, leaves `cli.main`."""

    GRID = [[alpha, "--sigma-a2", sigma_a2, "--x0", x0, "--sigma-c2", sigma_c2, "--p", p]
            for alpha in ("0.3", "0.5", "1", "1e100")
            for sigma_a2 in ("1e-300", "1", "1e300")
            for x0 in ("0", "1e150")
            for sigma_c2 in ("0", "1", "1e150", "1e300")
            for p in ("0.5", "1")]

    @pytest.mark.parametrize("command", [
        ["bounds", "--n", "5", "--alpha"],
        ["curves", "--n-min", "100", "--n-max", "1000", "--points", "2", "--alphas"],
        ["simulate", "--n", "5", "--replicates", "200", "--seed", "1", "--alpha"],
    ], ids=["bounds", "curves", "simulate"])
    def test_every_run_exits_cleanly(self, tmp_path, capsys, command):
        out = ["--out", str(tmp_path / "c.csv")] if command[0] == "curves" else []
        for settings in self.GRID:
            argv = command + settings + ["--model", "YOUj"] + out
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    code = cli.main(argv)
                except Exception as exc:  # any escape is the failure
                    pytest.fail(f"{' '.join(argv)} raised {exc!r}")
            captured = capsys.readouterr()
            if code != 0:
                assert code == 1, argv
                assert captured.out == "", argv
                assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, (
                    argv, captured.err)


class TestHugeOffsetErrors:
    """Offsets that `YouParams` accepts but whose conditional-mean fourth
    moments overflow still get a finite ve standard error."""

    ARGV = ["simulate", "--n", "50", "--alpha", "1", "--replicates", "100", "--seed", "1"]

    @pytest.mark.parametrize("x0", ["1e100", "1e153"])
    def test_ve_error_is_finite(self, tmp_path, x0):
        path = tmp_path / "run.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(self.ARGV + ["--x0", x0, "--json", str(path)]) == 0
        ve = json.loads(path.read_text(encoding="utf-8"))["estimates"]["ve"]
        assert math.isfinite(ve["se"]) and ve["se"] > 0.0

    def test_largest_offsets_keep_every_estimate_finite(self, tmp_path):
        # near the largest offset YouParams accepts, the squared deviations
        # of the conditional means overflow too, not only their fourth powers
        path = tmp_path / "run.json"
        argv = ["simulate", "--n", "2", "--alpha", "1", "--replicates", "1000", "--seed", "1",
                "--x0", "9e153", "--json", str(path)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(argv) == 0
        est = json.loads(path.read_text(encoding="utf-8"))["estimates"]
        for value in (est["mean"]["se"], est["ve"]["value"], est["ve"]["se"]):
            assert math.isfinite(value) and value > 0.0

    def test_unscaled_offset_keeps_its_bytes(self, tmp_path):
        # at x0 = 1e76 the fourth powers still fit: the estimates are the ones
        # the unscaled arithmetic writes
        path = tmp_path / "run.json"
        assert cli.main(self.ARGV + ["--x0", "1e76", "--json", str(path)]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "45280e7bd684127f1b0b25d6fea733578716639bd50b39aed00c6d2a62b789b7")


class TestVerifyCommand:
    def test_quick_level_passes(self, capsys):
        assert cli.main(["verify", "--level", "quick"]) == 0
        out = capsys.readouterr().out
        assert "[criterion 1]" in out
        assert "[criterion 2]" in out
        assert "[criterion 7]" in out
        assert "verify quick: 3 criteria, 0 failed" in out

    def test_criterion_headers_show_elapsed_seconds(self, capsys):
        assert cli.main(["verify", "--level", "quick"]) == 0
        heads = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("[criterion ")]
        assert len(heads) == 3
        assert all(re.search(r" \(\d+\.\d\d s\)$", line) for line in heads)

    def test_other_commands_do_not_load_verify(self):
        # a fresh interpreter: this process has imported verify already
        src = str(Path(cli.__file__).resolve().parents[1])
        code = ("import sys; import youbounds.cli; "
                "print('youbounds.verify' in sys.modules)")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True)
        assert done.stdout == "False\n"

    def test_suites_are_uncalled_criteria(self):
        # building a suite runs nothing, so the command can time each criterion
        for suite in (verify.quick_suite, verify.full_suite):
            assert all(callable(c) for c in suite(2))

    def test_mutation_is_caught(self, capsys, monkeypatch):
        # Corrupting the tip-count factor by 0.1% must flip the quick suite
        # to a failing exit code; this guards the suite's sensitivity.
        import youbounds.special as special
        original = special.pochhammer_ratio
        monkeypatch.setattr(special, "pochhammer_ratio",
                            lambda n, x: 1.001 * original(n, x))
        assert cli.main(["verify", "--level", "quick"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "0 failed" not in out.splitlines()[-1]
