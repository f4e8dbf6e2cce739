"""End-to-end tests of the batch CLI: artifacts, exit codes, config
precedence, and manifest replay."""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from fairod import cli
from fairod.claimcheck import ClaimVerdict
from fairod.evalmetrics import EvalReport
from fairod.training import FitResult, TrainingError


def run(*args):
    return cli.main([str(a) for a in args])


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def read_json(path):
    return json.loads(Path(path).read_text())


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """One synth1 dataset, a base model, and a fairod model, built via the CLI."""
    root = tmp_path_factory.mktemp("cliwork")
    assert run("synth", "synth1", "--major", 120, "--minor", 30, "--outliers", 10,
               "--seed", 7, "--out", root / "data") == 0
    data = root / "data" / "dataset.csv"
    assert run("train", "--data", data, "--variant", "base", "--seed", 3,
               "--epochs", 40, "--lr", 0.05, "--standardize", "--base-seeds", 2,
               "--out", root / "base") == 0
    assert run("train", "--data", data, "--variant", "fairod",
               "--base", root / "base" / "fit.json", "--seed", 3, "--epochs", 40,
               "--lr", 0.05, "--standardize", "--out", root / "fair") == 0
    return {"root": root, "data": data, "base": root / "base" / "fit.json",
            "fair": root / "fair" / "fit.json"}


class TestSynth:
    def test_row_count_and_schema(self, work):
        # outliers replace inlier rows inside each group, so N = major + minor
        rows = read_csv(work["data"])
        assert len(rows) == 1 + 120 + 30
        assert rows[0] == ["f_0", "f_1", "pv", "label"]
        assert sum(int(r[3]) for r in rows[1:]) == 10

    def test_manifest_contents(self, work):
        doc = read_json(work["root"] / "data" / "manifest.json")
        assert doc["command"] == "synth"
        assert doc["seed"] == 7
        assert doc["config"]["major"] == 120
        assert doc["outputs"] == {"dataset": "dataset.csv"}
        assert doc["version"]
        assert doc["started_at"] <= doc["finished_at"]

    def test_same_invocation_is_byte_identical(self, work, tmp_path):
        assert run("synth", "synth1", "--major", 120, "--minor", 30,
                   "--outliers", 10, "--seed", 7, "--out", tmp_path / "again") == 0
        assert ((tmp_path / "again" / "dataset.csv").read_bytes()
                == work["data"].read_bytes())

    def test_synth2_with_spread_override(self, tmp_path):
        assert run("synth", "synth2", "--major", 40, "--minor", 10, "--outliers", 4,
                   "--seed", 2, "--x1-std", 1.2, "--out", tmp_path) == 0
        assert len(read_csv(tmp_path / "dataset.csv")) == 51

    def test_invalid_counts_exit_usage(self, tmp_path, capsys):
        code = run("synth", "synth1", "--major", 10, "--minor", -3, "--outliers", 2,
                   "--seed", 1, "--out", tmp_path)
        assert code == cli.EXIT_USAGE
        assert "invalid generator counts" in capsys.readouterr().err

    def test_spread_flag_rejected_for_synth1(self, tmp_path):
        assert run("synth", "synth1", "--major", 10, "--minor", 5, "--outliers", 2,
                   "--seed", 1, "--x1-std", 2.0, "--out", tmp_path) == cli.EXIT_USAGE

    def test_seed_flag_required(self, tmp_path, capsys):
        code = run("synth", "synth1", "--major", 10, "--minor", 5, "--outliers", 2,
                   "--out", tmp_path)
        assert code == cli.EXIT_USAGE
        assert "--seed" in capsys.readouterr().err


class TestTrain:
    def test_base_fit_is_loadable(self, work):
        fit = FitResult.from_json(work["base"].read_text())
        assert fit.config.variant == "base_only"
        assert len(fit.trace["total"]) == 40

    def test_fairod_fit_records_variant(self, work):
        fit = FitResult.from_json(work["fair"].read_text())
        assert fit.config.variant == "fairod"
        assert fit.config.lr == 0.05

    def test_fairod_without_base_is_usage_error(self, work, tmp_path, capsys):
        code = run("train", "--data", work["data"], "--variant", "fairod",
                   "--seed", 1, "--out", tmp_path)
        assert code == cli.EXIT_USAGE
        assert "--base is required" in capsys.readouterr().err

    @pytest.mark.parametrize("args, message", [
        (["--variant", "nope"], "unknown variant 'nope'"),
        (["--variant", "base", "--base-seeds", 0], "base_seeds must be >= 1")])
    def test_bad_variant_or_base_seeds_is_usage_error(self, work, tmp_path, capsys,
                                                      args, message):
        code = run("train", "--data", work["data"], "--seed", 1, "--epochs", 2, *args,
                   "--out", tmp_path)
        assert code == cli.EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not (tmp_path / "fit.json").exists()

    @pytest.mark.parametrize("flag, value", [("--gamma", "nan"), ("--alpha", "nan"),
                                             ("--lr", "inf"), ("--c", "nan"),
                                             ("--gamma", "inf"), ("--c", "-inf")])
    def test_non_finite_hyperparameter_is_usage_error(self, work, tmp_path, capsys,
                                                      flag, value):
        code = run("train", "--data", work["data"], "--variant", "fairod",
                   "--base", work["base"], "--seed", 1, "--epochs", 2, flag, value,
                   "--out", tmp_path)
        assert code == cli.EXIT_USAGE
        assert f"usage error: {flag[2:]} must be" in capsys.readouterr().err
        assert not (tmp_path / "fit.json").exists()

    def test_width_mismatched_base_is_data_error(self, work, tmp_path, capsys):
        wide = tmp_path / "wide.csv"
        wide.write_text("f_0,f_1,f_2,pv\n1,2,3,a\n4,5,6,b\n2,1,0,a\n3,2,2,b\n")
        code = run("train", "--data", wide, "--variant", "fairod", "--base", work["base"],
                   "--seed", 1, "--epochs", 2, "--out", tmp_path / "out")
        assert code == cli.EXIT_DATA
        assert (f"model from {work['base'].resolve()} does not fit this dataset"
                in capsys.readouterr().err)

    def test_non_finite_base_scores_is_numeric_error(self, work, tmp_path, capsys):
        doc = read_json(work["base"])
        doc["params"]["arrays"]["b_out"]["data"] = [1e308, 1e308]
        huge = tmp_path / "huge.json"
        huge.write_text(json.dumps(doc))
        code = run("train", "--data", work["data"], "--variant", "fairod", "--base", huge,
                   "--seed", 1, "--epochs", 2, "--out", tmp_path / "out")
        assert code == cli.EXIT_NUMERIC
        assert f"non-finite scores from model {huge.resolve()}" in capsys.readouterr().err
        assert not (tmp_path / "out" / "fit.json").exists()

    def test_csv_without_feature_column_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "nofeat.csv"
        data.write_text("pv\na\na\nb\nb\n")
        code = run("train", "--data", data, "--variant", "base", "--seed", 1,
                   "--epochs", 2, "--out", tmp_path / "out")
        assert code == cli.EXIT_DATA
        assert "feature column" in capsys.readouterr().err

    def test_missing_data_is_data_error(self, tmp_path):
        code = run("train", "--data", tmp_path / "nope.csv", "--variant", "base",
                   "--seed", 1, "--out", tmp_path)
        assert code == cli.EXIT_DATA

    def test_config_file_and_cli_precedence(self, work, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# sweep pin\nlr = 0.2\nepochs = 7\nbase_seeds = 1\n")
        assert run("train", "--data", work["data"], "--variant", "base", "--seed", 1,
                   "--config", cfg, "--out", tmp_path / "fileonly") == 0
        file_fit = read_json(tmp_path / "fileonly" / "fit.json")
        assert file_fit["config"]["epochs"] == 7
        assert file_fit["config"]["lr"] == 0.2
        assert run("train", "--data", work["data"], "--variant", "base", "--seed", 1,
                   "--config", cfg, "--epochs", 9, "--out", tmp_path / "mixed") == 0
        mixed = read_json(tmp_path / "mixed" / "fit.json")
        assert mixed["config"]["epochs"] == 9   # CLI beats file
        assert mixed["config"]["lr"] == 0.2     # file beats default

    def test_unknown_config_key_is_usage_error(self, work, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus_key = 1\n")
        assert run("train", "--data", work["data"], "--variant", "base", "--seed", 1,
                   "--config", cfg, "--out", tmp_path) == cli.EXIT_USAGE
        assert "bogus_key" in capsys.readouterr().err

    def test_unreadable_config_file_is_data_error(self, work, tmp_path, capsys):
        assert run("train", "--data", work["data"], "--variant", "base", "--seed", 1,
                   "--config", tmp_path, "--out", tmp_path / "out") == cli.EXIT_DATA
        assert "cannot read config file" in capsys.readouterr().err

    def test_malformed_config_line_is_usage_error(self, work, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("lr 0.2\n")
        assert run("train", "--data", work["data"], "--variant", "base", "--seed", 1,
                   "--config", cfg, "--out", tmp_path) == cli.EXIT_USAGE

    def test_non_finite_ranks_of_a_large_group_are_numeric_error(self, tmp_path, capsys,
                                                                  monkeypatch):
        # a group large enough for the binned ranks still fails as loss_gf
        from fairod import losses

        n = losses._BINNED_MIN_ROWS + 100
        assert run("synth", "synth1", "--major", n, "--minor", 60, "--outliers", 20,
                   "--seed", 2, "--out", tmp_path / "data") == 0
        data = tmp_path / "data" / "dataset.csv"
        assert run("train", "--data", data, "--variant", "base", "--seed", 1, "--epochs", 2,
                   "--base-seeds", 1, "--out", tmp_path / "base") == 0
        real = losses._unit_scale_vjp

        def poisoned(x):
            su, pullback = real(x)
            return (np.where(np.arange(su.size) == 0, np.nan, su) if su.size == n else su,
                    pullback)

        monkeypatch.setattr(losses, "_unit_scale_vjp", poisoned)
        with np.errstate(invalid="ignore"):
            code = run("train", "--data", data, "--variant", "fairod", "--seed", 1,
                       "--base", tmp_path / "base" / "fit.json", "--epochs", 2,
                       "--out", tmp_path / "out")
        assert code == cli.EXIT_NUMERIC
        assert "loss_gf: non-finite value or gradient" in capsys.readouterr().err
        assert not (tmp_path / "out" / "fit.json").exists()

    def test_training_failure_maps_to_numeric_exit(self, work, tmp_path, monkeypatch):
        def boom(*a, **k):
            raise TrainingError("base_only fit diverged at epoch 2")
        monkeypatch.setattr(cli, "fit_base_multi_seed", boom)
        code = run("train", "--data", work["data"], "--variant", "base",
                   "--seed", 1, "--out", tmp_path)
        assert code == cli.EXIT_NUMERIC


class TestEval:
    def test_self_eval_has_perfect_rank_fidelity(self, work, tmp_path):
        assert run("eval", "--data", work["data"], "--model", work["base"],
                   "--standardize", "--out", tmp_path) == 0
        report = read_json(tmp_path / "report.json")
        assert report["group_fidelity"] == pytest.approx(1.0)
        assert report["topk_agreement"] == pytest.approx(1.0)
        assert set(report["flag_rates"]) == {"0", "1"}

    def test_eval_against_separate_base(self, work, tmp_path):
        assert run("eval", "--data", work["data"], "--model", work["fair"],
                   "--base", work["base"], "--standardize",
                   "--verify-treatment-parity", "--out", tmp_path) == 0
        report = read_json(tmp_path / "report.json")
        assert report["fairness"] is not None
        assert report["group_fidelity"] is not None
        assert report["ap_ratio"] is not None
        assert any("treatment parity verified" in n for n in report["notes"])

    def test_csv_row_aligns_with_header(self, work, tmp_path):
        assert run("eval", "--data", work["data"], "--model", work["base"],
                   "--standardize", "--out", tmp_path) == 0
        rows = read_csv(tmp_path / "report.csv")
        assert len(rows) == 2
        assert len(rows[0]) == len(rows[1])
        assert rows[0][:2] == ["fairness", "group_fidelity"]

    def test_unlabeled_data_degrades_supervised_fields(self, work, tmp_path):
        rows = read_csv(work["data"])
        stripped = tmp_path / "unlabeled.csv"
        with open(stripped, "w", newline="") as fh:
            w = csv.writer(fh)
            for row in rows:
                w.writerow(row[:-1])
        assert run("eval", "--data", stripped, "--model", work["base"],
                   "--standardize", "--out", tmp_path / "ev") == 0
        report = read_json(tmp_path / "ev" / "report.json")
        assert report["ap_ratio"] is None
        assert all(v is None for v in report["ap"].values())
        assert report["group_fidelity"] == pytest.approx(1.0)
        assert any("label" in n for n in report["notes"])

    def test_width_mismatch_is_data_error(self, work, tmp_path):
        wide = tmp_path / "wide.csv"
        wide.write_text("f_0,f_1,f_2,pv\n1,2,3,a\n4,5,6,b\n2,1,0,a\n3,2,2,b\n")
        for command, flag, extra in (("eval", "--model", ()), ("grid", "--base", ("--seed", 3))):
            assert run(command, "--data", wide, flag, work["base"], *extra,
                       "--out", tmp_path / command) == cli.EXIT_DATA

    def test_field_over_csv_limit_is_data_error(self, work, tmp_path, capsys):
        data = tmp_path / "huge.csv"
        data.write_text(f"f_0,f_1,pv\n1,2,a\n4,{'5' * 200_000},b\n2,1,a\n3,2,b\n")
        assert run("eval", "--data", data, "--model", work["base"],
                   "--out", tmp_path / "ev") == cli.EXIT_DATA
        assert "line 3: field larger than field limit" in capsys.readouterr().err

    def test_missing_model_is_data_error(self, work, tmp_path):
        assert run("eval", "--data", work["data"], "--model", tmp_path / "no.json",
                   "--out", tmp_path) == cli.EXIT_DATA

    def test_non_tanh_model_is_data_error(self, work, tmp_path, capsys):
        doc = read_json(work["base"])
        doc["params"]["activation"] = "relu"
        relu = tmp_path / "relu.json"
        relu.write_text(json.dumps(doc))
        assert run("eval", "--data", work["data"], "--model", relu,
                   "--out", tmp_path / "ev") == cli.EXIT_DATA
        assert "relu" in capsys.readouterr().err

    def test_flag_fraction_outside_unit_interval_is_usage_error(self, work, tmp_path,
                                                                 capsys):
        cfg = tmp_path / "f.cfg"
        cfg.write_text("flag_fraction = 1.5\n")
        for how in (("--flag-fraction", 1.5), ("--flag-fraction", 0), ("--config", cfg)):
            assert run("eval", "--data", work["data"], "--model", work["base"], *how,
                       "--out", tmp_path / "ev") == cli.EXIT_USAGE
            assert "usage error" in capsys.readouterr().err

    def test_tiny_flag_fraction_flags_one_row(self, work, tmp_path):
        assert run("eval", "--data", work["data"], "--model", work["base"],
                   "--base", work["fair"], "--flag-fraction", "1e-12",
                   "--out", tmp_path) == 0

        def reject(token):
            raise ValueError(f"not JSON: {token}")

        doc = json.loads((tmp_path / "report.json").read_text(), parse_constant=reject)
        flagged = sum(doc["flag_rates"][g] * doc["group_sizes"][g] for g in ("0", "1"))
        assert flagged == pytest.approx(1.0)

    def test_single_group_data_is_data_error(self, work, tmp_path, capsys):
        one = tmp_path / "one.csv"
        one.write_text("f_0,f_1,pv\n1,2,a\n4,5,a\n2,1,a\n3,2,a\n")
        for command, flag, extra in (("eval", "--model", ()),
                                     ("grid", "--base", ("--seed", 3, "--epochs", 2)),
                                     ("ablate", "--base", ("--seed", 3, "--epochs", 2))):
            assert run(command, "--data", one, flag, work["base"], *extra,
                       "--out", tmp_path / command) == cli.EXIT_DATA
            err = capsys.readouterr().err
            assert "data error" in err and "1 pv group" in err


@pytest.fixture(scope="module")
def grid_dir(work, tmp_path_factory):
    out = tmp_path_factory.mktemp("grid")
    assert run("grid", "--data", work["data"], "--base", work["base"],
               "--seed", 3, "--epochs", 25, "--lr", 0.05, "--standardize",
               "--out", out) == 0
    return out


@pytest.fixture(scope="module")
def ablation(work, tmp_path_factory):
    out = tmp_path_factory.mktemp("ablate")
    assert run("ablate", "--data", work["data"], "--base", work["base"],
               "--seed", 3, "--epochs", 25, "--lr", 0.05, "--standardize",
               "--out", out) == 0
    return read_csv(out / "ablation.csv")


class TestGrid:
    def test_default_grid_emits_nine_rows(self, grid_dir):
        rows = read_csv(grid_dir / "grid.csv")
        assert len(rows) == 10
        cells = [(float(r[0]), float(r[1])) for r in rows[1:]]
        assert cells == [(a, g) for a in (0.01, 0.5, 0.9) for g in (0.01, 0.1, 1.0)]

    def test_exactly_one_selected_row(self, grid_dir):
        rows = read_csv(grid_dir / "grid.csv")
        marks = [r[-1] for r in rows[1:]]
        assert marks.count("1") == 1 and marks.count("0") == 8

    def test_selected_model_is_loadable(self, grid_dir):
        fit = FitResult.from_json((grid_dir / "selected.json").read_text())
        assert fit.config.variant == "fairod"

    def test_rerun_reproduces_table(self, work, grid_dir, tmp_path):
        assert run("grid", "--data", work["data"], "--base", work["base"],
                   "--seed", 3, "--epochs", 25, "--lr", 0.05, "--standardize",
                   "--out", tmp_path) == 0
        assert ((tmp_path / "grid.csv").read_bytes()
                == (grid_dir / "grid.csv").read_bytes())

    def test_parallel_matches_serial(self, work, grid_dir, tmp_path):
        assert run("grid", "--data", work["data"], "--base", work["base"],
                   "--seed", 3, "--epochs", 25, "--lr", 0.05, "--standardize",
                   "--alpha-grid", "0.01,0.9", "--gamma-grid", "0.1", "--jobs", 2,
                   "--out", tmp_path / "par") == 0
        assert run("grid", "--data", work["data"], "--base", work["base"],
                   "--seed", 3, "--epochs", 25, "--lr", 0.05, "--standardize",
                   "--alpha-grid", "0.01,0.9", "--gamma-grid", "0.1",
                   "--out", tmp_path / "ser") == 0
        assert ((tmp_path / "par" / "grid.csv").read_bytes()
                == (tmp_path / "ser" / "grid.csv").read_bytes())

    @pytest.mark.parametrize("flag, value", [("--alpha-grid", "0.5,2.0"),
                                             ("--gamma-grid", "nan"),
                                             ("--gamma-grid", "0.1,inf")])
    def test_bad_grid_value_is_usage_error(self, work, tmp_path, capsys, flag, value):
        code = run("grid", "--data", work["data"], "--base", work["base"],
                   "--seed", 3, "--epochs", 2, flag, value, "--out", tmp_path)
        assert code == cli.EXIT_USAGE
        assert "usage error" in capsys.readouterr().err
        assert not (tmp_path / "grid.csv").exists()

    def test_every_cell_diverging_is_numeric_error(self, work, tmp_path, capsys):
        with np.errstate(over="ignore"):
            code = run("grid", "--data", work["data"], "--base", work["base"],
                       "--seed", 3, "--epochs", 3, "--lr", 1e200, "--out", tmp_path)
        assert code == cli.EXIT_NUMERIC
        assert "no usable grid cell" in capsys.readouterr().err
        assert not (tmp_path / "grid.csv").exists()

    def test_bad_jobs_is_usage_error(self, work, tmp_path):
        assert run("grid", "--data", work["data"], "--base", work["base"],
                   "--seed", 3, "--jobs", 0, "--out", tmp_path) == cli.EXIT_USAGE


class TestAblate:
    def test_four_variant_rows_in_order(self, ablation):
        assert [r[0] for r in ablation[1:]] == ["fairod", "fairod_l", "fairod_c", "base"]

    def test_columns_match_report_schema(self, ablation):
        assert ablation[0] == ["variant"] + EvalReport.csv_header([0, 1])

    def test_base_row_scores_itself_perfectly(self, ablation):
        gf_col = ablation[0].index("group_fidelity")
        base_row = ablation[4]
        assert float(base_row[gf_col]) == pytest.approx(1.0)


class TestClaims:
    def test_verdicts_written_and_hold(self, tmp_path):
        assert run("claims", "--max-n", 5, "--out", tmp_path) == 0
        doc = read_json(tmp_path / "claims.json")
        for claim in ("claim1", "claim2"):
            verdict = doc[claim]
            assert verdict["holds"] is True
            assert verdict["counterexamples"] == []
            assert verdict["premise_counts"]["premises_met"] > 0
            assert verdict["witness"] is not None

    def test_out_of_range_max_n_is_usage_error(self, tmp_path, capsys):
        for max_n in (1, 15, 99):
            out = tmp_path / str(max_n)
            assert run("claims", "--max-n", max_n, "--out", out) == cli.EXIT_USAGE
            assert "usage error: max_n must be in [2, 14]" in capsys.readouterr().err
            assert not (out / "claims.json").exists()

    def test_counterexample_exit_code(self, tmp_path, monkeypatch):
        def fake(max_n):
            return ClaimVerdict(claim="claim1", max_n=max_n, populations_checked=1,
                                premise_counts={"premises_met": 1},
                                counterexamples=[{"cells": [1, 0, 0, 0, 1, 0, 0, 0]}])
        monkeypatch.setattr(cli, "verify_claim1", fake)
        assert run("claims", "--max-n", 3, "--out", tmp_path) == cli.EXIT_COUNTEREXAMPLE
        assert read_json(tmp_path / "claims.json")["claim1"]["holds"] is False


class TestManifest:
    @pytest.mark.parametrize("command, seed, outputs", [
        ("synth", 5, {"dataset": "dataset.csv"}),
        ("train", 5, {"fit": "fit.json"}),
        ("eval", None, {"report_json": "report.json", "report_csv": "report.csv"}),
        ("grid", 5, {"grid_csv": "grid.csv", "selected_fit": "selected.json"}),
        ("ablate", 5, {"ablation": "ablation.csv"}),
        ("claims", None, {"claims": "claims.json"}),
    ])
    def test_seed_and_outputs_per_command(self, work, tmp_path, command, seed, outputs):
        fit = ("--data", work["data"], "--epochs", 2, "--seed", 5)
        args = {
            "synth": ("synth1", "--major", 20, "--minor", 10, "--outliers", 2, "--seed", 5),
            "train": (*fit, "--variant", "base", "--base-seeds", 1),
            "eval": ("--data", work["data"], "--model", work["base"]),
            "grid": (*fit, "--base", work["base"], "--alpha-grid", 0.5, "--gamma-grid", 0.1),
            "ablate": (*fit, "--base", work["base"]),
            "claims": ("--max-n", 3),
        }[command]
        assert run(command, *args, "--out", tmp_path) == cli.EXIT_OK
        doc = read_json(tmp_path / "manifest.json")
        assert (doc["command"], doc["seed"], doc["outputs"]) == (command, seed, outputs)
        assert all((tmp_path / name).is_file() for name in outputs.values())

    def test_usage_error_writes_no_manifest(self, work, tmp_path):
        assert run("train", "--data", work["data"], "--variant", "fairod", "--seed", 1,
                   "--out", tmp_path) == cli.EXIT_USAGE
        assert not (tmp_path / "manifest.json").exists()


class TestReplay:
    def test_eval_replay_is_byte_identical(self, work, tmp_path):
        first = tmp_path / "first"
        again = tmp_path / "again"
        assert run("eval", "--data", work["data"], "--model", work["fair"],
                   "--base", work["base"], "--standardize", "--out", first) == 0
        assert run("replay", "--manifest", first / "manifest.json",
                   "--out", again) == 0
        for name in ("report.json", "report.csv"):
            assert (first / name).read_bytes() == (again / name).read_bytes()
        docs = [read_json(d / "manifest.json") for d in (first, again)]
        for doc in docs:
            doc.pop("started_at")
            doc.pop("finished_at")
        assert docs[0] == docs[1]

    def test_train_replay_is_byte_identical(self, work, tmp_path):
        manifest = work["root"] / "fair" / "manifest.json"
        assert run("replay", "--manifest", manifest, "--out", tmp_path) == 0
        assert (tmp_path / "fit.json").read_bytes() == work["fair"].read_bytes()

    def test_missing_manifest_is_data_error(self, tmp_path):
        assert run("replay", "--manifest", tmp_path / "none.json",
                   "--out", tmp_path) == cli.EXIT_DATA

    def test_malformed_manifest_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "m.json"
        bad.write_text("{not json")
        assert run("replay", "--manifest", bad, "--out", tmp_path) == cli.EXIT_DATA
        assert "bad manifest" in capsys.readouterr().err

    def test_unknown_command_in_manifest_is_data_error(self, tmp_path):
        bad = tmp_path / "m.json"
        bad.write_text(json.dumps({"command": "frobnicate", "config": {},
                                   "inputs": {}}))
        assert run("replay", "--manifest", bad, "--out", tmp_path) == cli.EXIT_DATA

    def test_manifest_missing_config_or_inputs_is_data_error(self, work, tmp_path, capsys):
        bad = tmp_path / "m.json"
        bad.write_text(json.dumps({"command": "eval", "config": {}, "inputs": {}}))
        assert run("replay", "--manifest", bad, "--out", tmp_path) == cli.EXIT_DATA
        assert "bad manifest" in capsys.readouterr().err
        doc = read_json(work["root"] / "fair" / "manifest.json")
        del doc["inputs"]["data"]
        bad.write_text(json.dumps(doc))
        assert run("replay", "--manifest", bad, "--out", tmp_path) == cli.EXIT_DATA
        assert "bad manifest" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [("flag_fraction", 1.5), ("flag_fraction", "x"),
                                           ("standardize", "maybe")])
    def test_manifest_bad_value_is_usage_error(self, work, tmp_path, key, value, capsys):
        first = tmp_path / "first"
        assert run("eval", "--data", work["data"], "--model", work["fair"], "--out", first) == 0
        doc = read_json(first / "manifest.json")
        doc["config"][key] = value
        bad = tmp_path / "m.json"
        bad.write_text(json.dumps(doc))
        assert run("replay", "--manifest", bad, "--out", tmp_path / "again") == cli.EXIT_USAGE
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [("epochs", "many"), ("seed", "x")])
    def test_train_manifest_bad_value_is_usage_error(self, work, tmp_path, key, value,
                                                     capsys):
        doc = read_json(work["root"] / "fair" / "manifest.json")
        doc["config"][key] = value
        bad = tmp_path / "m.json"
        bad.write_text(json.dumps(doc))
        assert run("replay", "--manifest", bad, "--out", tmp_path / "again") == cli.EXIT_USAGE
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [("name", "synth9"), ("major", "x"),
                                           ("outliers", 2.5), ("x1_std", "wide")])
    def test_synth_manifest_bad_value_is_usage_error(self, work, tmp_path, key, value,
                                                     capsys):
        doc = read_json(work["root"] / "data" / "manifest.json")
        doc["config"][key] = value
        bad = tmp_path / "m.json"
        bad.write_text(json.dumps(doc))
        assert run("replay", "--manifest", bad, "--out", tmp_path / "again") == cli.EXIT_USAGE
        assert "usage error" in capsys.readouterr().err
        assert not (tmp_path / "again" / "dataset.csv").exists()

    def test_synth_replay_is_byte_identical(self, work, tmp_path):
        manifest = work["root"] / "data" / "manifest.json"
        assert run("replay", "--manifest", manifest, "--out", tmp_path / "s1") == 0
        assert (tmp_path / "s1" / "dataset.csv").read_bytes() == work["data"].read_bytes()
        # synth2 with a spread override: x1_std goes through its float parser
        assert run("synth", "synth2", "--major", 40, "--minor", 10, "--outliers", 4,
                   "--seed", 2, "--x1-std", 1.2, "--out", tmp_path / "s2") == 0
        assert run("replay", "--manifest", tmp_path / "s2" / "manifest.json",
                   "--out", tmp_path / "s2again") == 0
        assert ((tmp_path / "s2again" / "dataset.csv").read_bytes()
                == (tmp_path / "s2" / "dataset.csv").read_bytes())

    def test_fairod_train_manifest_without_base_is_data_error(self, work, tmp_path, capsys):
        doc = read_json(work["root"] / "fair" / "manifest.json")
        del doc["inputs"]["base"]
        bad = tmp_path / "m.json"
        bad.write_text(json.dumps(doc))
        assert run("replay", "--manifest", bad, "--out", tmp_path / "again") == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert "bad manifest" in err and "inputs lack base" in err
        # the base variant reads no base model
        base_manifest = work["root"] / "base" / "manifest.json"
        assert "base" not in read_json(base_manifest)["inputs"]
        assert run("replay", "--manifest", base_manifest, "--out", tmp_path / "base") == 0
        assert (tmp_path / "base" / "fit.json").read_bytes() == work["base"].read_bytes()


# a non-default value per config key: (config-file text, flag arguments)
KEY_VALUES = {
    "variant": ("base", ("base",)), "alpha": ("0.5", ("0.5",)),
    "gamma": ("0.3", ("0.3",)), "c": ("20", ("20",)), "lr": ("0.2", ("0.2",)),
    "epochs": ("7", ("7",)), "batch_size": ("16", ("16",)),
    "flag_fraction": ("0.1", ("0.1",)), "standardize": ("true", ()),
    "verify_treatment_parity": ("yes", ()), "base_seeds": ("2", ("2",)),
    "alpha_grid": ("0.1,0.2", ("0.1,0.2",)), "gamma_grid": ("0.5", ("0.5",)),
    "jobs": ("2", ("2",)), "max_n": ("6", ("6",)),
}
TRAIN_DEFAULTS = {"c": 50.0, "lr": 0.01, "epochs": 1000, "batch_size": None,
                  "flag_fraction": 0.05, "standardize": False}
COMMAND_DEFAULTS = {
    "train": {"variant": "fairod", "alpha": 0.01, "gamma": 0.1, **TRAIN_DEFAULTS,
              "base_seeds": 5, "seed": 1},
    "eval": {"flag_fraction": 0.05, "standardize": False,
             "verify_treatment_parity": False},
    "grid": {"alpha_grid": [0.01, 0.5, 0.9], "gamma_grid": [0.01, 0.1, 1.0],
             **TRAIN_DEFAULTS, "jobs": 1, "seed": 1},
    "ablate": {"alpha": 0.01, "gamma": 0.1, **TRAIN_DEFAULTS, "seed": 1},
    "claims": {"max_n": 10},
}
REQUIRED = {"train": ("--data", "d.csv", "--seed", 1),
            "eval": ("--data", "d.csv", "--model", "m.json"),
            "grid": ("--data", "d.csv", "--base", "b.json", "--seed", 1),
            "ablate": ("--data", "d.csv", "--base", "b.json", "--seed", 1),
            "claims": ()}


def resolved_config(monkeypatch, tmp_path, command, *args):
    """The manifest config a command would record, without running it."""
    seen = {}

    def capture(config, inputs, out_dir):
        seen["config"] = json.loads(json.dumps(config))
        return {}, cli.EXIT_OK
    monkeypatch.setitem(cli._EXECUTORS, command, capture)
    assert run(command, *REQUIRED[command], *args, "--out", tmp_path / "out") == 0
    return seen["config"]


class TestConfigTable:
    @pytest.mark.parametrize("command", sorted(COMMAND_DEFAULTS))
    def test_defaults_per_command(self, command, monkeypatch, tmp_path):
        assert resolved_config(monkeypatch, tmp_path, command) == COMMAND_DEFAULTS[command]

    @pytest.mark.parametrize("command,key", [(c, k) for c, d in sorted(COMMAND_DEFAULTS.items())
                                             for k in d if k != "seed"])
    def test_flag_and_config_line_agree(self, command, key, monkeypatch, tmp_path):
        text, flag_args = KEY_VALUES[key]
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"{key} = {text}\n")
        by_file = resolved_config(monkeypatch, tmp_path, command, "--config", cfg)
        by_flag = resolved_config(monkeypatch, tmp_path, command,
                                  "--" + key.replace("_", "-"), *flag_args)
        assert by_file == by_flag
        assert by_flag[key] != COMMAND_DEFAULTS[command][key]

    @pytest.mark.parametrize("command", ["synth", "train", "eval", "grid", "ablate",
                                         "claims", "replay"])
    def test_help_formats(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--help"])
        assert exc.value.code == 0
        assert "--out" in capsys.readouterr().out


class TestParsing:
    def test_no_arguments_is_usage_error(self, capsys):
        assert cli.main([]) == cli.EXIT_USAGE
        assert capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, value, message", [
        ("train", "--c", "-1e3", "c must be finite and > 0"),
        ("grid", "--alpha-grid", "-0.5,0.5", "alpha must be in [0,1]"),
    ])
    def test_negative_value_reaches_value_check(self, work, tmp_path, capsys,
                                                command, flag, value, message):
        # a value that starts with `-` is the flag's value, not an unknown option
        code = run(command, "--data", work["data"], "--base", work["base"], "--seed", 1,
                   "--epochs", 2, flag, value, "--out", tmp_path)
        assert code == cli.EXIT_USAGE
        assert f"usage error: {message}" in capsys.readouterr().err

    def test_unknown_subcommand_is_usage_error(self):
        assert cli.main(["frobnicate"]) == cli.EXIT_USAGE

    def test_float_list_parsing(self):
        assert cli._as_float_list("0.01, 0.5,0.9") == (0.01, 0.5, 0.9)
        with pytest.raises(cli.UsageError):
            cli._as_float_list(" , ")

    def test_bool_parsing(self):
        assert cli._as_bool("true") and cli._as_bool("1") and cli._as_bool("On")
        assert not cli._as_bool("false") and not cli._as_bool("off")
        with pytest.raises(cli.UsageError):
            cli._as_bool("maybe")

    def test_batch_size_parsing(self):
        parse = cli._PARSERS["batch_size"]
        assert parse("none") is None and parse(" ") is None
        assert parse("32") == 32
        with pytest.raises(ValueError):
            parse("3.5")
        assert cli._PARSERS["x1_std"]("None") is None
        assert cli._PARSERS["x1_std"]("1.2") == 1.2
