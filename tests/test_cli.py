"""Tests for the command-line surface: config parsing, flag precedence,
subcommand behavior, output schemas and the verification entry point."""

import json
import math

import numpy as np
import pytest

from youbounds import cli, harness, trees
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
        assert captured.err == f"error: {UNSUPPORTED_REGIME_MSG}\n"

    def test_jump_flags_require_jump_model(self, capsys):
        code = cli.main(["bounds", "--n", "100", "--alpha", "1.0",
                         "--p", "0.5"])
        assert code == 1
        assert "require model YOUj" in capsys.readouterr().err

    def test_partial_jump_probability_flagged_non_convergent(self, capsys):
        code = cli.main(["bounds", "--model", "YOUj", "--n", "1000",
                         "--alpha", "1.0", "--p", "0.5", "--sigma-c2", "1.0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "non-convergent" in out


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
        code, out = self._run(tmp_path, "--model", "YOUj", "--alphas", "1",
                              "--p", "0.5", "--sigma-c2", "1.0",
                              "--distance", "kolmogorov")
        assert code == 0
        rows = out.read_text(encoding="utf-8").splitlines()[1:]
        assert all(row.endswith(";non-convergent") for row in rows)

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

    def test_unsupported_rate_rejected(self, tmp_path, capsys):
        code, _ = self._run(tmp_path, "--alphas", "0.4")
        assert code == 1
        assert UNSUPPORTED_REGIME_MSG in capsys.readouterr().err

    def test_bad_grid_rejected(self, tmp_path, capsys):
        out = tmp_path / "curves.csv"
        code = cli.main(["curves", "--out", str(out), "--points", "1"])
        assert code == 1
        assert "points >= 2" in capsys.readouterr().err

    def test_empty_alpha_list_rejected(self, tmp_path, capsys):
        code, _ = self._run(tmp_path, "--alphas", ",")
        assert code == 1
        assert "at least one rate" in capsys.readouterr().err

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

    def test_jump_model_requires_jump_settings(self, capsys):
        code = cli.main(["simulate", "--model", "YOUj", "--n", "6",
                         "--alpha", "1.0", "--replicates", "100", "--seed", "4"])
        assert code == 1
        assert "requires p and sigma_c2" in capsys.readouterr().err

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


class TestVerifyCommand:
    def test_quick_level_passes(self, capsys):
        assert cli.main(["verify", "--level", "quick"]) == 0
        out = capsys.readouterr().out
        assert "[criterion 1]" in out
        assert "[criterion 2]" in out
        assert "[criterion 7]" in out
        assert "verify quick: 3 criteria, 0 failed" in out

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
