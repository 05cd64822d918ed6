"""CLI subcommands: file contracts, exit codes, determinism, manifests."""

import json

import numpy as np
import pytest

from equirank.cli import _PIPELINE_DEFAULTS, _train_config, build_parser, main
from equirank.dataset import FeatureTable, comparison_set, parse_comparisons, write_comparisons, write_features
from equirank.ltr import LossWeights, ModelParams, TrainConfig, save_model
from equirank.scaling import parse_scaled_comparisons


def _run(argv):
    return main(argv)


def _simulate(tmp_path, extra=()):
    out = tmp_path / "sim"
    code = _run(
        ["simulate", "--users", "4", "--items", "12", "--dim", "3",
         "--per-user", "40", "--seed", "42", "-o", str(out), *extra]
    )
    assert code == 0
    return out


class TestSimulate:
    def test_writes_four_csvs_and_manifest(self, tmp_path):
        out = _simulate(tmp_path)
        for name in ["comparisons.csv", "features.csv", "truth_theta.csv",
                     "truth_users.csv", "manifest_simulate.json"]:
            assert (out / name).exists()
        cset = parse_comparisons(out / "comparisons.csv")
        assert len(cset) == 160
        assert len(cset.users) == 4

    def test_rerun_is_byte_identical(self, tmp_path):
        first = _simulate(tmp_path / "a")
        second = _simulate(tmp_path / "b")
        for name in ["comparisons.csv", "features.csv", "truth_theta.csv",
                     "truth_users.csv"]:
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_zero_users_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            _run(["simulate", "--users", "0", "--items", "5", "--dim", "2",
                  "--per-user", "5", "-o", str(tmp_path / "x")])
        assert excinfo.value.code == 2

    def test_manifest_fields(self, tmp_path):
        out = _simulate(tmp_path)
        manifest = json.loads((out / "manifest_simulate.json").read_text())
        assert manifest["subcommand"] == "simulate"
        assert manifest["seed"] == 42
        assert len(manifest["config_hash"]) == 64
        assert manifest["tool_version"]
        assert any(p.endswith("comparisons.csv") for p in manifest["output_paths"])


class TestScale:
    def test_minmax_postcondition_downstream(self, tmp_path):
        sim = _simulate(tmp_path)
        out = tmp_path / "scaled"
        assert _run(["scale", "--input", str(sim / "comparisons.csv"),
                     "--scaler", "minmax", "-o", str(out)]) == 0
        scaled = parse_scaled_comparisons(out / "scaled.csv")
        assert scaled.scaler_tag == "minmax"
        for user in scaled.users:
            scores = [c.score for c in scaled.restrict(user_id=user)]
            assert min(scores) == -1.0
            assert max(scores) == 1.0

    def test_mehestan_writes_affines_for_each_user(self, tmp_path):
        rows = []
        rng = np.random.default_rng(1)
        items = [f"i{k}" for k in range(8)]
        theta = rng.uniform(-1, 1, 8)
        for user in ("uA", "uB"):
            for _ in range(60):
                l, r = rng.choice(8, size=2, replace=False)
                rows.append((user, "g", items[l], items[r],
                             float(np.clip(theta[r] - theta[l], -1, 1))))
        src = tmp_path / "comparisons.csv"
        write_comparisons(comparison_set(rows), src)
        out = tmp_path / "mehestan"
        assert _run(["scale", "--input", str(src), "--scaler", "mehestan",
                     "-o", str(out)]) == 0
        affines = (out / "affines.csv").read_text().splitlines()
        assert affines[0] == "user_id,s,tau"
        assert len(affines) == 3
        assert (out / "theta.csv").read_text().startswith("user_id,item_id,theta")

    def test_unconverged_fits_are_reported(self, tmp_path, capsys):
        sim = _simulate(tmp_path)
        capsys.readouterr()
        out = tmp_path / "stalled"
        assert _run(["scale", "--input", str(sim / "comparisons.csv"),
                     "--scaler", "mehestan", "--max-iter", "2", "-o", str(out)]) == 0
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 4
        for user, line in zip(["u0", "u1", "u2", "u3"], lines):
            assert f"user={user!r} converged=False n_iter=2 grad_norm=" in line

    def test_mehestan_fallbacks_are_reported(self, tmp_path, capsys):
        # uB shares no item with the anchor uA: no scale vote and no
        # translation candidate, so it keeps s=1 and tau=0.
        rows = [("uA", "g", "a1", "a2", 0.4), ("uA", "g", "a2", "a3", 0.2),
                ("uB", "g", "b1", "b2", -0.3), ("uB", "g", "b2", "b3", 0.6)]
        src = tmp_path / "comparisons.csv"
        write_comparisons(comparison_set(rows), src)
        capsys.readouterr()
        assert _run(["scale", "--input", str(src), "--scaler", "mehestan",
                     "-o", str(tmp_path / "out")]) == 0
        lines = capsys.readouterr().err.splitlines()
        assert lines == [
            "equirank: warning: Mehestan fallback: user='uB' votes=0 s=1.0 "
            "candidates=0 tau=0.0"
        ]
        assert (tmp_path / "out" / "affines.csv").read_text().splitlines()[0] == "user_id,s,tau"

    def test_unknown_scaler_is_usage_error(self, tmp_path):
        sim = _simulate(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            _run(["scale", "--input", str(sim / "comparisons.csv"),
                  "--scaler", "bogus", "-o", str(tmp_path / "x")])
        assert excinfo.value.code == 2

    def test_missing_input_is_runtime_error(self, tmp_path):
        assert _run(["scale", "--input", str(tmp_path / "nope.csv"),
                     "--scaler", "minmax", "-o", str(tmp_path / "x")]) == 1


class TestTrain:
    def test_writes_model_and_trace(self, tmp_path):
        sim = _simulate(tmp_path)
        out = tmp_path / "model"
        assert _run(["train", "--input", str(sim / "comparisons.csv"),
                     "--features", str(sim / "features.csv"),
                     "--epochs", "5", "--seed", "3", "-o", str(out)]) == 0
        doc = json.loads((out / "model.json").read_text())
        assert doc["dim"] == 3
        assert len(doc["w"]) == 3
        trace = (out / "loss_trace.csv").read_text().splitlines()
        assert trace[0] == "epoch,loss"
        assert len(trace) == 7  # header + initial loss + 5 epochs

    def test_zero_epochs_writes_zero_model(self, tmp_path):
        sim = _simulate(tmp_path)
        out = tmp_path / "model0"
        assert _run(["train", "--input", str(sim / "comparisons.csv"),
                     "--features", str(sim / "features.csv"),
                     "--epochs", "0", "-o", str(out)]) == 0
        doc = json.loads((out / "model.json").read_text())
        assert doc["w"] == [0.0, 0.0, 0.0]

    def test_same_seed_identical_model(self, tmp_path):
        sim = _simulate(tmp_path)
        outs = []
        for name in ("m1", "m2"):
            out = tmp_path / name
            assert _run(["train", "--input", str(sim / "comparisons.csv"),
                         "--features", str(sim / "features.csv"),
                         "--epochs", "4", "--seed", "11",
                         "--user-embeddings", "-o", str(out)]) == 0
            outs.append((out / "model.json").read_bytes())
        assert outs[0] == outs[1]

    def test_accepts_scaled_input(self, tmp_path):
        sim = _simulate(tmp_path)
        scaled_dir = tmp_path / "scaled"
        _run(["scale", "--input", str(sim / "comparisons.csv"),
              "--scaler", "normalization", "-o", str(scaled_dir)])
        out = tmp_path / "model-scaled"
        assert _run(["train", "--input", str(scaled_dir / "scaled.csv"),
                     "--features", str(sim / "features.csv"),
                     "--epochs", "2", "-o", str(out)]) == 0

    @pytest.mark.parametrize("epochs", ["0", "5"])
    def test_unknown_criterion_is_runtime_error(self, tmp_path, capsys, epochs):
        sim = _simulate(tmp_path)
        out = tmp_path / "model"
        assert _run(["train", "--input", str(sim / "comparisons.csv"),
                     "--features", str(sim / "features.csv"), "--criterion", "X",
                     "--epochs", epochs, "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "equirank: no comparisons with criterion 'X'\n"
        assert not out.exists()

    def test_empty_input_is_runtime_error(self, tmp_path, capsys):
        sim = _simulate(tmp_path)
        empty = tmp_path / "empty.csv"
        write_comparisons(comparison_set([]), empty)
        assert _run(["train", "--input", str(empty),
                     "--features", str(sim / "features.csv"),
                     "-o", str(tmp_path / "model")]) == 1
        assert "empty comparison set" in capsys.readouterr().err

    def test_flags_build_the_train_config(self):
        args = build_parser().parse_args(
            ["train", "--input", "c.csv", "--features", "f.csv", "-o", "out",
             "--mse-weight", "0.5", "--ranking-weight", "0.25", "--bce-weight", "2",
             "--contrastive-weight", "0.75", "--ranking-margin", "0.2",
             "--contrastive-margin", "0.4", "--tie-epsilon", "0.01",
             "--learning-rate", "0.3", "--epochs", "7", "--batch-size", "9",
             "--seed", "5", "--user-embeddings", "--embedding-l2", "0.125"]
        )
        assert _train_config(vars(args), contrastive=True, embeddings=True) == TrainConfig(
            loss_weights=LossWeights(mse=0.5, ranking=0.25, bce=2.0, contrastive=0.75),
            ranking_margin=0.2, contrastive_margin=0.4, tie_epsilon=0.01,
            learning_rate=0.3, epochs=7, batch_size=9, seed=5,
            use_user_embeddings=True, embedding_l2=0.125,
        )


class TestAudit:
    def _perfect_fixture(self, tmp_path):
        # Model w reproduces every target exactly: score diffs are the
        # clipped linear diffs themselves (kept inside [-1, 1]).
        rng = np.random.default_rng(8)
        items = {f"i{k}": rng.normal(size=2) * 0.2 for k in range(10)}
        table = FeatureTable(2, items)
        w = np.array([1.0, -0.5])
        rows = []
        names = sorted(items)
        for i in range(80):
            l, r = rng.choice(10, size=2, replace=False)
            diff = float(w @ (items[names[r]] - items[names[l]]))
            rows.append((f"u{i % 3}", "g", names[l], names[r],
                         float(np.clip(diff, -1, 1))))
        cset = comparison_set(rows)
        test_csv = tmp_path / "test.csv"
        feat_csv = tmp_path / "features.csv"
        model_json = tmp_path / "model.json"
        write_comparisons(cset, test_csv)
        write_features(table, feat_csv)
        save_model(ModelParams(w, {}), model_json)
        return model_json, test_csv, feat_csv

    def test_perfect_predictions_give_zero_gini(self, tmp_path):
        model, test_csv, feat_csv = self._perfect_fixture(tmp_path)
        out = tmp_path / "audit"
        assert _run(["audit", "--model", str(model), "--test", str(test_csv),
                     "--features", str(feat_csv), "-o", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["overall_accuracy"] == 1.0
        assert report["gini_accuracy"] == 0.0

    def test_report_schema(self, tmp_path):
        model, test_csv, feat_csv = self._perfect_fixture(tmp_path)
        out = tmp_path / "audit2"
        _run(["audit", "--model", str(model), "--test", str(test_csv),
              "--features", str(feat_csv), "-o", str(out)])
        report = json.loads((out / "report.json").read_text())
        assert set(report) == {
            "per_user_accuracy", "per_user_recall", "overall_accuracy",
            "overall_recall", "acc_max_gap", "acc_std", "recall_max_gap",
            "recall_std", "gini_accuracy", "mean_accuracy", "n_users", "lorenz",
        }
        lorenz = (out / "lorenz.csv").read_text().splitlines()
        assert lorenz[0] == "population_fraction,cumulative_share"

    def test_missing_model_is_runtime_error(self, tmp_path):
        _, test_csv, feat_csv = self._perfect_fixture(tmp_path)
        assert _run(["audit", "--model", str(tmp_path / "ghost.json"),
                     "--test", str(test_csv), "--features", str(feat_csv),
                     "-o", str(tmp_path / "x")]) == 1

    def test_unknown_criterion_is_runtime_error(self, tmp_path, capsys):
        model, test_csv, feat_csv = self._perfect_fixture(tmp_path)
        out = tmp_path / "audit"
        assert _run(["audit", "--model", str(model), "--test", str(test_csv),
                     "--features", str(feat_csv), "--criterion", "X",
                     "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "equirank: no comparisons with criterion 'X'\n"
        assert not out.exists()


PIPELINE_CONFIG = """\
# desk-scale smoke grid
seed = 7
users = 4
items = 12
dim = 3
per_user = 60
epochs = 3
experiment = baseline
experiment = minmax+contrastive
experiment = embeddings
"""


class TestPipeline:
    def test_grid_outputs(self, tmp_path):
        config = tmp_path / "grid.cfg"
        config.write_text(PIPELINE_CONFIG)
        out = tmp_path / "run"
        assert _run(["pipeline", "--config", str(config), "-o", str(out)]) == 0
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0].startswith("Name of Experiment,Accuracy,")
        assert len(summary) == 4
        assert summary[1].split(",")[0] == "baseline"
        for name in ["report_baseline.json", "report_minmax_contrastive.json",
                     "report_embeddings.json"]:
            assert (out / name).exists()
        assert (out / "data" / "train.csv").exists()
        assert (out / "data" / "test.csv").exists()

    def test_summary_values_are_percentages(self, tmp_path):
        config = tmp_path / "grid.cfg"
        config.write_text(PIPELINE_CONFIG)
        out = tmp_path / "run"
        _run(["pipeline", "--config", str(config), "-o", str(out)])
        row = (out / "summary.csv").read_text().splitlines()[1].split(",")
        assert all(cell.endswith("%") for cell in row[1:])

    def test_empty_experiment_list(self, tmp_path):
        config = tmp_path / "empty.cfg"
        config.write_text("seed = 1\nusers = 2\nitems = 6\ndim = 2\nper_user = 10\n")
        out = tmp_path / "run"
        assert _run(["pipeline", "--config", str(config), "-o", str(out)]) == 0
        summary = (out / "summary.csv").read_text().splitlines()
        assert len(summary) == 1

    def test_unknown_key_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("users = 4\nfrobnicate = 1\n")
        assert _run(["pipeline", "--config", str(config),
                     "-o", str(tmp_path / "x")]) == 2
        assert "frobnicate" in capsys.readouterr().err

    def test_unknown_experiment_token_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("experiment = warp+contrastive\n")
        assert _run(["pipeline", "--config", str(config),
                     "-o", str(tmp_path / "x")]) == 2
        assert "warp" in capsys.readouterr().err

    def test_rerun_is_byte_identical(self, tmp_path):
        config = tmp_path / "grid.cfg"
        config.write_text(PIPELINE_CONFIG)
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert _run(["pipeline", "--config", str(config), "-o", str(out)]) == 0
            blob = b"".join(
                sorted(p.read_bytes() for p in out.rglob("*")
                       if p.is_file() and not p.name.startswith("manifest"))
            )
            outs.append(blob)
        assert outs[0] == outs[1]

    def test_cell_switches_build_the_train_config(self):
        config = _train_config(_PIPELINE_DEFAULTS, contrastive=False, embeddings=True)
        assert config == TrainConfig(
            loss_weights=LossWeights(mse=1.0), ranking_margin=0.1,
            contrastive_margin=0.3, tie_epsilon=0.05, learning_rate=0.05, epochs=15,
            batch_size=32, seed=42, use_user_embeddings=True, embedding_l2=0.0001,
        )
        with_contrastive = _train_config(_PIPELINE_DEFAULTS, True, False)
        assert with_contrastive.loss_weights == LossWeights(mse=1.0, contrastive=1.0)
        assert not with_contrastive.use_user_embeddings

    def test_each_scaler_runs_once_per_grid(self, tmp_path, monkeypatch):
        import equirank.cli

        calls = []
        original = equirank.cli.mehestan_scale

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(equirank.cli, "mehestan_scale", counting)
        config = tmp_path / "grid.cfg"
        config.write_text(PIPELINE_CONFIG + "experiment = mehestan\n"
                          "experiment = mehestan+contrastive\n")
        out = tmp_path / "run"
        assert _run(["pipeline", "--config", str(config), "-o", str(out)]) == 0
        assert len(calls) == 1
        a = json.loads((out / "report_mehestan.json").read_text())
        b = json.loads((out / "report_mehestan_contrastive.json").read_text())
        assert a["n_users"] == b["n_users"] == 4


def test_help_available_for_every_subcommand(capsys):
    for sub in ["simulate", "scale", "train", "audit", "pipeline"]:
        with pytest.raises(SystemExit) as excinfo:
            _run([sub, "--help"])
        assert excinfo.value.code == 0
        assert "--" in capsys.readouterr().out


def test_version_flag():
    with pytest.raises(SystemExit) as excinfo:
        _run(["--version"])
    assert excinfo.value.code == 0
