"""CLI subcommands: file contracts, exit codes, determinism, manifests."""

import argparse
import itertools
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import equirank
from equirank.cli import (
    _PIPELINE_DEFAULTS,
    _PIPELINE_KEYS,
    _sim_config,
    _train_config,
    build_parser,
    main,
    parse_pipeline_config,
)
from equirank.dataset import FeatureTable, parse_comparisons, write_comparisons, write_features
from equirank.gbt import GbtConfig
from equirank.ltr import LossWeights, ModelParams, TrainConfig, save_model
from equirank.scaling import mehestan_scale, parse_scaled_comparisons
from equirank.simgen import SimConfig
from row_view import comparison_set, take


def _int_limit():
    """Python's message for a 5,000-digit integer, past its digit limit."""
    try:
        int("9" * 5000)
    except ValueError as exc:
        return str(exc)


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
        assert len(cset.user_ids) == 4

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

    @pytest.mark.parametrize("mix, message", [
        ("neutral=2,chaotic=2", "unknown archetypes: ['chaotic']"),
        ("neutral=3", "archetype counts sum to 3, expected n_users = 4"),
    ])
    def test_bad_archetypes_is_runtime_error(self, tmp_path, capsys, mix, message):
        assert _run(["simulate", "--users", "4", "--items", "5", "--dim", "2",
                     "--per-user", "5", "--archetypes", mix,
                     "-o", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err == f"equirank: {message}\n"

    @pytest.mark.parametrize("flag, setting", [
        ("--weight-scale", "weight_scale"), ("--user-jitter", "user_jitter"),
    ])
    def test_overflowing_weight_vector_is_refused(self, tmp_path, capsys, recwarn, flag,
                                                  setting):
        # A finite 1e300 passes the range checks, but the norm of the weight
        # vector it scales overflows: numpy warned, the unit vector came out
        # zero, and every score was +-1 or pure noise.
        out = tmp_path / "x"
        assert _run(["simulate", "--users", "4", "--items", "12", "--dim", "3",
                     "--per-user", "40", flag, "1e300", "-o", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"equirank: {setting} is too large: a weight vector's norm overflows\n"
        )
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--group-sizes", "a,b", "entry 'a' is not an integer"),
        ("--archetypes", "neutral:x", "entry 'neutral:x' is not name=count"),
        ("--archetypes", "neutral=x", "entry 'neutral=x': count 'x' is not an integer"),
        ("--archetypes", "neutral=2,neutral=4", "entry 'neutral=4' repeats archetype 'neutral'"),
    ])
    def test_malformed_mix_is_usage_error(self, tmp_path, capsys, flag, value, message):
        with pytest.raises(SystemExit) as excinfo:
            _run(["simulate", "--users", "4", "--items", "5", "--dim", "2",
                  "--per-user", "5", flag, value, "-o", str(tmp_path / "x")])
        assert excinfo.value.code == 2
        assert f"argument {flag}: {message}" in capsys.readouterr().err

    def test_flags_and_pipeline_config_build_the_same_sim_config(self, tmp_path):
        args = build_parser().parse_args(
            ["simulate", "--users", "6", "--items", "9", "--dim", "3", "--per-user", "20",
             "--noise", "0.2", "--seed", "5", "--criterion", "calm",
             "--archetypes", "neutral=3,extreme=2,malicious=1", "--groups", "2",
             "--opposed-groups", "--group-sizes", "4,2", "--weight-scale", "0.7",
             "--user-jitter", "0.05", "--malicious-mode", "random", "-o", "out"]
        )
        config = tmp_path / "sim.cfg"
        config.write_text(
            "users = 6\nitems = 9\ndim = 3\nper_user = 20\nnoise = 0.2\nseed = 5\n"
            "criterion = calm\narchetypes = neutral=3,extreme=2,malicious=1\n"
            "groups = 2\nopposed_groups = true\ngroup_sizes = 4,2\n"
            "weight_scale = 0.7\nuser_jitter = 0.05\nmalicious_mode = random\n"
        )
        want = SimConfig(
            n_items=9, feature_dim=3, n_users=6, comparisons_per_user=20, noise_std=0.2,
            archetype_mix={"neutral": 3, "extreme": 2, "malicious": 1}, n_groups=2,
            seed=5, criterion="calm", weight_scale=0.7, user_jitter=0.05,
            opposed_groups=True, group_sizes=(4, 2), malicious_mode="random",
        )
        assert _sim_config(vars(args)) == want
        assert _sim_config(parse_pipeline_config(config)[0]) == want

    @pytest.mark.parametrize("command", ["simulate", "pipeline"])
    @pytest.mark.parametrize("noise", [None, "1e300"])
    def test_scores_all_at_one_are_warned_of(self, tmp_path, capsys, command, noise):
        # At noise_std 1e300 every simulated score is clipped to -1 or 1 and
        # the run exits 0; one stderr line says so and names the setting.
        settings = {"users": "4", "items": "12", "dim": "3", "per_user": "40"}
        if noise is not None:
            settings["noise"] = noise
        if command == "simulate":
            argv = ["simulate"]
            for key, value in settings.items():
                argv += [f"--{key.replace('_', '-')}", value]
        else:
            config = tmp_path / "grid.cfg"
            config.write_text("".join(f"{k} = {v}\n" for k, v in settings.items())
                              + "experiment = baseline\n")
            argv = ["pipeline", "--config", str(config)]
        assert _run([*argv, "-o", str(tmp_path / "out")]) == 0
        err = capsys.readouterr().err
        if noise is None:
            assert err == ""
        else:
            assert err == ("equirank: warning: every simulated score is -1 or 1; "
                           "noise_std=1e+300 weight_scale=0.5\n")

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
        lines = (out / "scaled.csv").read_text().splitlines()
        assert all(line.endswith(",minmax") for line in lines[1:])
        for user in scaled.user_ids:
            scores = take(scaled, user).score
            assert scores.min() == -1.0
            assert scores.max() == 1.0

    @pytest.mark.parametrize("umask", [0o022, 0o002], ids=oct)
    def test_manifest_mode_matches_data_files(self, tmp_path, umask):
        sim = _simulate(tmp_path)
        out = tmp_path / "scaled"
        previous = os.umask(umask)
        try:
            assert _run(["scale", "--input", str(sim / "comparisons.csv"),
                         "--scaler", "minmax", "-o", str(out)]) == 0
        finally:
            os.umask(previous)
        mode = stat.S_IMODE((out / "scaled.csv").stat().st_mode)
        assert mode == 0o666 & ~umask
        assert stat.S_IMODE((out / "manifest_scale.json").stat().st_mode) == mode

    def test_config_hash_is_equal_across_processes(self, tmp_path):
        # Two processes running the same scale hash the same flags; a hashed
        # function object would differ by its memory address.
        sim = _simulate(tmp_path)
        src = str(Path(equirank.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        out, hashes = tmp_path / "scaled", []
        for _ in range(2):
            subprocess.run(
                [sys.executable, "-m", "equirank.cli", "scale", "--input",
                 str(sim / "comparisons.csv"), "--scaler", "minmax", "-o", str(out)],
                env=env, check=True, capture_output=True,
            )
            hashes.append(json.loads((out / "manifest_scale.json").read_text())["config_hash"])
        assert hashes[0] == hashes[1]

    def test_config_hash_leaves_out_paths(self, tmp_path):
        # One configuration read from two copies of its input and written to
        # two directories has one hash; another lam has another.
        sim = _simulate(tmp_path)
        copy = tmp_path / "copy.csv"
        copy.write_bytes((sim / "comparisons.csv").read_bytes())
        hashes = []
        for name, src, extra in [("a", sim / "comparisons.csv", []), ("b", copy, []),
                                 ("c", copy, ["--lam", "0.2"])]:
            out = tmp_path / name
            assert _run(["scale", "--input", str(src), "--scaler", "minmax", *extra,
                         "-o", str(out)]) == 0
            hashes.append(json.loads((out / "manifest_scale.json").read_text())["config_hash"])
        assert hashes[0] == hashes[1] != hashes[2]

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

    def test_mehestan_manifest_counts_the_fits(self, tmp_path):
        # The manifest's GBT totals are those of the fits mehestan_scale
        # returns, capped ones included; each user's entry is its fit's and
        # its affine's.
        sim = _simulate(tmp_path)
        out = tmp_path / "capped"
        assert _run(["scale", "--input", str(sim / "comparisons.csv"),
                     "--scaler", "mehestan", "--max-iter", "1", "-o", str(out)]) == 0
        diagnostics = json.loads((out / "manifest_scale.json").read_text())["diagnostics"]
        cset = parse_comparisons(sim / "comparisons.csv")
        _, affines, fits = mehestan_scale(cset, GbtConfig(max_iter=1))
        assert diagnostics["gbt_fits"] == len(fits.user_ids) == 4
        assert diagnostics["gbt_iterations"] == fits.n_iter.sum() == 4
        assert diagnostics["gbt_unconverged"] == (~fits.converged).sum() == 4
        assert diagnostics["anchor"] == affines.user_ids[affines.anchor]
        assert diagnostics["users"] == {
            user: {
                "n_iter": fits.n_iter[k], "grad_norm": fits.grad_norm[k],
                "converged": fits.converged[k],
                "votes": affines.votes[k], "candidates": affines.candidates[k],
            }
            for k, user in enumerate(fits.user_ids)
        }
        minmax = tmp_path / "minmax"
        assert _run(["scale", "--input", str(sim / "comparisons.csv"),
                     "--scaler", "minmax", "-o", str(minmax)]) == 0
        assert "diagnostics" not in json.loads((minmax / "manifest_scale.json").read_text())

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
        affines = (tmp_path / "out" / "affines.csv").read_text().splitlines()
        assert affines[0] == "user_id,s,tau" and affines[2] == "uB,1.0,0.0"

    def test_all_tie_user_casts_and_takes_no_vote(self, tmp_path, capsys):
        # Every score of "flat" is 0, so its fit is exactly 0 and each of its
        # gaps is <= EPSILON_PAIR: it votes on no one's scale and no one votes
        # on its own (s=1). It still shares items, so its tau comes from
        # translation candidates. uB takes the anchor uA's vote alone.
        rows = [("uA", "g", "a1", "a2", 0.4), ("uA", "g", "a2", "a3", 0.2),
                ("uA", "g", "a3", "a4", -0.3),
                ("uB", "g", "a1", "a3", 0.5), ("uB", "g", "a2", "a3", -0.1),
                ("flat", "g", "a1", "a2", 0.0), ("flat", "g", "a2", "a4", 0.0)]
        src = tmp_path / "comparisons.csv"
        write_comparisons(comparison_set(rows), src)
        _, affines, fits = mehestan_scale(parse_comparisons(src))
        k = {user: k for k, user in enumerate(affines.user_ids)}
        flat = k["flat"]
        assert (fits.converged[flat], fits.n_iter[flat], fits.grad_norm[flat]) == (True, 1, 0.0)
        assert affines.anchor == k["uA"]
        assert (affines.votes[flat], affines.s[flat]) == (0, 1.0)
        assert affines.candidates[flat] == 5
        assert affines.votes[k["uB"]] == 1
        capsys.readouterr()
        assert _run(["scale", "--input", str(src), "--scaler", "mehestan",
                     "-o", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "equirank: warning: Mehestan fallback: user='flat' votes=0 s=1.0 "
            f"candidates=5 tau={float(affines.tau[flat])!r}"
        ]

    @pytest.mark.parametrize("command", ["scale", "pipeline"])
    @pytest.mark.parametrize("scaler, tol", [
        ("minmax", None), ("normalization", None), ("mehestan", None), ("mehestan", "1e300"),
    ])
    def test_all_equal_scaled_scores_are_warned_of(self, tmp_path, capsys, command, scaler, tol):
        # At tol 1e300 every GBT fit stops at its zero start, so every scaled
        # score is 0.0 and the run exits 0; one stderr line says so and names
        # the scaler and its settings, and a pipeline, which then trains on
        # nothing but ties, says that too. A default run warns of nothing.
        if command == "scale":
            sim = _simulate(tmp_path)
            argv = ["scale", "--input", str(sim / "comparisons.csv"), "--scaler", scaler]
            argv += [] if tol is None else ["--tol", tol]
        else:
            config = tmp_path / "grid.cfg"
            config.write_text(
                "users = 4\nitems = 12\ndim = 3\nper_user = 40\nepochs = 1\n"
                + ("" if tol is None else f"gbt_tol = {tol}\n") + f"experiment = {scaler}\n"
            )
            argv = ["pipeline", "--config", str(config)]
        capsys.readouterr()
        assert _run([*argv, "-o", str(tmp_path / "out")]) == 0
        err = capsys.readouterr().err
        if tol is None:
            assert err == ""
        else:
            # Users whose fits are all zero also take no scale vote.
            ties = ["equirank: warning: every training target is a tie: |score| <= "
                    "tie_epsilon=0.05"] if command == "pipeline" else []
            assert [line for line in err.splitlines() if "Mehestan fallback" not in line] == [
                "equirank: warning: every scaled score is 0.0; scaler='mehestan' lam=0.1 tol=1e+300",
                *ties,
            ]

    def test_unknown_scaler_is_usage_error(self, tmp_path):
        sim = _simulate(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            _run(["scale", "--input", str(sim / "comparisons.csv"),
                  "--scaler", "bogus", "-o", str(tmp_path / "x")])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("scaler", ["minmax", "normalization", "mehestan", "none"])
    @pytest.mark.parametrize("flags, message", [
        (["--resilience-weight", "0"], "resilience_weight must be positive, got 0.0"),
        (["--resilience-weight", "-1"], "resilience_weight must be positive, got -1.0"),
        (["--lam", "0"], "lam must be positive, got 0.0"),
        (["--resilience-weight", "inf"], "resilience_weight must be positive, got inf"),
        (["--lam", "inf"], "lam must be positive, got inf"),
        (["--tol", "inf"], "tol must be positive, got inf"),
    ], ids=["weight-0", "weight-1", "lam-0", "weight-inf", "lam-inf", "tol-inf"])
    def test_bad_values_fail_before_anything_is_written(
        self, tmp_path, capsys, scaler, flags, message
    ):
        # Every scaler checks every value, as pipeline does, Mehestan cell or not.
        sim = _simulate(tmp_path)
        capsys.readouterr()
        out = tmp_path / "out"
        assert _run(["scale", "--input", str(sim / "comparisons.csv"), "--scaler", scaler,
                     *flags, "-o", str(out)]) == 1
        assert capsys.readouterr().err == f"equirank: {message}\n"
        assert not out.exists()

    def test_singular_newton_system_names_the_user_and_lam(self, tmp_path, capsys):
        # At lam 1e-300 a user's Newton system at the zero start is the
        # singular Laplacian of its comparisons to float64 precision.
        sim = _simulate(tmp_path)
        capsys.readouterr()
        out = tmp_path / "out"
        assert _run(["scale", "--input", str(sim / "comparisons.csv"), "--scaler", "mehestan",
                     "--lam", "1e-300", "-o", str(out)]) == 1
        assert capsys.readouterr().err == (
            "equirank: singular Newton system in GBT fit for user 'u1' at lam=1e-300\n"
        )
        assert not out.exists()

    def test_missing_input_is_runtime_error(self, tmp_path):
        assert _run(["scale", "--input", str(tmp_path / "nope.csv"),
                     "--scaler", "minmax", "-o", str(tmp_path / "x")]) == 1

    @pytest.mark.parametrize("scaler", ["minmax", "normalization", "mehestan", "none"])
    def test_empty_input_is_runtime_error(self, tmp_path, capsys, scaler):
        empty = tmp_path / "empty.csv"
        write_comparisons(comparison_set([]), empty)
        out = tmp_path / "out"
        assert _run(["scale", "--input", str(empty), "--scaler", scaler,
                     "-o", str(out)]) == 1
        assert capsys.readouterr().err == f"equirank: {empty}: empty comparison set\n"
        assert not out.exists()

    def test_field_over_csv_limit_is_runtime_error(self, tmp_path, capsys):
        path = tmp_path / "c.csv"
        path.write_text("user_id,criterion,left_item,right_item,score\nu,g,a,b,0.5\n"
                        f'"{"x" * 140_000}",g,a,b,0.5\n', encoding="utf-8")
        assert _run(["scale", "--input", str(path), "--scaler", "minmax",
                     "-o", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            f"equirank: {path}: line 3: field larger than field limit (131072)\n"
        )

    @pytest.mark.parametrize("header, bad_line", [
        (b"user_id,criterion,left_item,right_item,score", 402),
        (b"user_id,crit\xffrion,left_item,right_item,score", 1),
        (b"user_id,criterion,left_item,right_item,score,scal\xffer", 1),
    ], ids=["row", "header", "scaled-header"])
    def test_not_utf8_names_the_line(self, tmp_path, capsys, header, bad_line):
        # 600 rows of 34 bytes, so that the bad row lies past the first 8 KiB
        # the text reader decodes.
        rows = [header] + [f"user{k % 7},crit,item{k % 5:04d},other{k % 3:04d},0.5".encode()
                           for k in range(600)]
        if bad_line > 1:
            rows[bad_line - 1] = b"u\xff,g,a,b,0.5"
        path = tmp_path / "c.csv"
        path.write_bytes(b"\n".join(rows) + b"\n")
        assert _run(["scale", "--input", str(path), "--scaler", "minmax",
                     "-o", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            f"equirank: {path}: line {bad_line}: not valid UTF-8\n"
        )

    @pytest.mark.parametrize("rows, message", [
        ([b"u1,g,a,b,0.1", b"u1,g,a,a,0.2", b"u1,g,a,c,0.3", b"u\xff,g,a,b,0.1"],
         "line 3: self-comparison of item 'a'"),
        # A quoted field that runs on into the bad line is not a row before it.
        ([b"u1,g,a,b,0.1", b'u1,g,"a', b'\xff",b,0.2'], "line 4: not valid UTF-8"),
    ], ids=["bad-row-first", "quoted-into-bad-line"])
    def test_first_bad_row_wins_over_later_not_utf8(self, tmp_path, capsys, rows, message):
        # The whole file fits in one chunk of the text decoder, which reads
        # ahead of csv.reader.
        path = tmp_path / "bad_order.csv"
        path.write_bytes(b"\n".join([b"user_id,criterion,left_item,right_item,score", *rows])
                         + b"\n")
        assert _run(["scale", "--input", str(path), "--scaler", "minmax",
                     "-o", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"equirank: {path}: {message}\n"


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

    def test_manifest_holds_steps_and_final_loss(self, tmp_path):
        sim = _simulate(tmp_path)
        out = tmp_path / "model"
        assert _run(["train", "--input", str(sim / "comparisons.csv"),
                     "--features", str(sim / "features.csv"), "--epochs", "3",
                     "--batch-size", "50", "--user-embeddings", "-o", str(out)]) == 0
        text = (out / "manifest_train.json").read_text()
        diagnostics = json.loads(text)["diagnostics"]
        assert diagnostics["sgd_steps"] == 3 * 4  # 160 rows in batches of 50
        last = (out / "loss_trace.csv").read_text().splitlines()[-1].split(",")[1]
        assert f'"final_loss": {last}' in text
        assert repr(diagnostics["final_loss"]) == last

    def test_all_tie_targets_are_warned_of(self, tmp_path, capsys):
        # Mehestan at lam 1e300 scales every score to about 1e-300, so every
        # target lies in the tie band: training exits 0 with weights of that
        # order, and one stderr line names tie_epsilon. The simulated scores
        # train with no warning.
        sim = _simulate(tmp_path)
        assert _run(["scale", "--input", str(sim / "comparisons.csv"), "--scaler", "mehestan",
                     "--lam", "1e300", "-o", str(tmp_path / "scaled")]) == 0
        flags = ["--features", str(sim / "features.csv"), "--contrastive-weight", "1"]
        for source, expected in [
            (tmp_path / "scaled" / "scaled.csv",
             ["equirank: warning: every training target is a tie: |score| <= tie_epsilon=0.05"]),
            (sim / "comparisons.csv", []),
        ]:
            capsys.readouterr()
            assert _run(["train", "--input", str(source), *flags,
                         "-o", str(tmp_path / "model")]) == 0
            assert capsys.readouterr().err.splitlines() == expected

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

    def test_features_field_over_csv_limit_is_runtime_error(self, tmp_path, capsys):
        sim = _simulate(tmp_path)
        features = tmp_path / "f.csv"
        features.write_text(f"item_id,f0\n{'1' * 140_000},0.5\n", encoding="utf-8")
        assert _run(["train", "--input", str(sim / "comparisons.csv"),
                     "--features", str(features), "-o", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            f"equirank: {features}: line 2: field larger than field limit (131072)\n"
        )

    def test_features_not_utf8_names_the_line(self, tmp_path, capsys):
        sim = _simulate(tmp_path)
        features = tmp_path / "f.csv"
        features.write_bytes(b"item_id,f0\ni0,0.5\ni\xfe1,0.25\n")
        assert _run(["train", "--input", str(sim / "comparisons.csv"),
                     "--features", str(features), "-o", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"equirank: {features}: line 3: not valid UTF-8\n"

    def test_features_duplicate_before_not_utf8(self, tmp_path, capsys):
        sim = _simulate(tmp_path)
        features = tmp_path / "f.csv"
        features.write_bytes(b"item_id,f0\ni0,0.5\ni0,0.25\ni\xfe1,0.125\n")
        assert _run(["train", "--input", str(sim / "comparisons.csv"),
                     "--features", str(features), "-o", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            f"equirank: {features}: line 3: duplicate item_id 'i0'\n"
        )

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
        table = FeatureTable(tuple(items), np.array(list(items.values())))
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
        save_model(ModelParams(w, (), np.zeros((0, 2))), model_json)
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

    @pytest.mark.parametrize("text, message", [
        ('{"dim": 2}', "model has no 'w'"),
        ("[1, 2]", "model is not a JSON object"),
        ('{"dim": "2", "w": [1.0, 2.0], "user_offsets": {}}', "'dim' is not an integer"),
        ('{"dim": 2, "w": {}, "user_offsets": {}}', "'w' is not an array"),
        ('{"dim": 2, "w": [1.0, "2"], "user_offsets": {}}', "w is not an array of numbers"),
        ('{"dim": 2, "w": [1.0, 2.0], "user_offsets": []}', "'user_offsets' is not an object"),
        ('{"dim": 2, "w": [1.0, 2.0], "user_offsets": {"u0": null}}',
         "offset for user 'u0' is not an array of numbers"),
        ('{"dim": 2, "w": [1.0, 2.0], "user_offsets": {"u0": [1.0]}}',
         "offset for user 'u0' has shape (1,)"),
        ("{", "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
        ("[" * 100_000 + "]" * 100_000, "JSON nested too deeply"),
        ('{"dim": ' + "9" * 5000 + ', "w": [], "user_offsets": {}}', _int_limit()),
        ('{"dim": 2, "w": [NaN, 1.0], "user_offsets": {}}', "w holds a number that is not finite"),
        ('{"dim": 2, "w": [1.0, 2.0], "user_offsets": {"u0": [Infinity, 1e400]}}',
         "offset for user 'u0' holds a number that is not finite"),
        ('{"dim": 1, "w": [1' + "0" * 400 + '], "user_offsets": {}}',
         "w holds a number that is not finite"),
        ('{"dim": 0, "w": [], "user_offsets": {}}', "model dim 0 is not positive"),
        ('{"dim": 3, "w": [1.0, 2.0], "user_offsets": {}}',
         "model dim 3 does not match weights (2,)"),
    ], ids=["no-w", "not-object", "dim-string", "w-object", "w-string-entry",
            "offsets-array", "offset-null", "offset-short", "not-json", "nested-deep",
            "dim-digits", "w-nan", "offset-infinite", "w-int-overflow", "dim-zero",
            "dim-not-w"])
    def test_malformed_model_is_runtime_error(self, tmp_path, capsys, text, message):
        _, test_csv, feat_csv = self._perfect_fixture(tmp_path)
        model = tmp_path / "bad.json"
        model.write_text(text)
        assert _run(["audit", "--model", str(model), "--test", str(test_csv),
                     "--features", str(feat_csv), "-o", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err == f"equirank: {model}: {message}\n"

    def test_not_utf8_model_names_the_line(self, tmp_path, capsys):
        _, test_csv, feat_csv = self._perfect_fixture(tmp_path)
        model = tmp_path / "bad_model.json"
        model.write_bytes(b'{\n  "dim": 2,\n  "w": [1.0, 2.0],\n'
                          b'  "user_offsets": {"u\xff": [0.0, 0.0]}\n}\n')
        assert _run(["audit", "--model", str(model), "--test", str(test_csv),
                     "--features", str(feat_csv), "-o", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err == f"equirank: {model}: line 4: not valid UTF-8\n"

    def test_width_mismatch_names_model_and_features(self, tmp_path, capsys):
        _, test_csv, feat_csv = self._perfect_fixture(tmp_path)
        model = tmp_path / "wide.json"
        save_model(ModelParams(np.ones(3), (), np.zeros((0, 3))), model)
        out = tmp_path / "x"
        assert _run(["audit", "--model", str(model), "--test", str(test_csv),
                     "--features", str(feat_csv), "-o", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"equirank: {model}: model dim 3 does not match {feat_csv}, "
            "whose feature vectors have length 2\n"
        )
        assert not out.exists()

    def test_overflowing_predictions_are_refused(self, tmp_path, capsys, recwarn):
        # Every weight is finite, so the model loads, but each predicted
        # score overflows float64.
        sim = _simulate(tmp_path)
        model = tmp_path / "huge.json"
        model.write_text('{"dim": 3, "w": [1e308, 1e308, -1e308], "user_offsets": {}}')
        capsys.readouterr()
        out = tmp_path / "x"
        assert _run(["audit", "--model", str(model), "--test", str(sim / "comparisons.csv"),
                     "--features", str(sim / "features.csv"), "-o", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"equirank: {model}: predicted differences overflow float64; "
            "the model weights are too large\n"
        )
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        assert not out.exists()

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


def _subcommands():
    """Each subcommand's parser, by name."""
    return next(action for action in build_parser()._actions
                if isinstance(action, argparse._SubParsersAction)).choices


_CHECKED_COMMANDS = ("simulate", "scale", "train", "audit")
_VALUE_IDS = {"nan": "", "inf": "-inf", "-inf": "-minus-inf"}


def _non_finite_cases():
    """(command, setting, value) for NaN and each infinity in every float
    flag of `simulate`, `scale`, `train` and `audit` and in every float
    pipeline key (command `pipeline`, setting the key), and for a tie band
    of 1 or more. A flag's id is its name, after its command's when two
    commands take it; a key's is its name after `pipeline`."""
    flags = [(command, action.dest) for command, parser in _subcommands().items()
             if command in _CHECKED_COMMANDS for action in parser._actions
             if action.type is float]
    keys = [("pipeline", key) for key, (parse, _) in _PIPELINE_KEYS.items() if parse is float]
    cases = []
    for command, setting in flags + keys:
        shared = command == "pipeline" or [dest for _, dest in flags].count(setting) > 1
        name = (f"{command}-" if shared else "") + setting.replace("_", "-")
        cases += [pytest.param(command, setting, value, id=name + suffix)
                  for value, suffix in _VALUE_IDS.items()]
    cases += [pytest.param(command, "tie_epsilon", value, id=f"{command}-tie-epsilon-{value}")
              for command in ("train", "audit") for value in ("1", "5")]
    return cases


@pytest.fixture(scope="module")
def command_inputs(tmp_path_factory):
    """The input flags of each checked command, on one simulated set."""
    root = tmp_path_factory.mktemp("inputs")
    sim = _simulate(root)
    model = root / "model.json"
    save_model(ModelParams(np.zeros(3), (), np.zeros((0, 3))), model)
    comparisons, features = str(sim / "comparisons.csv"), str(sim / "features.csv")
    return {
        "simulate": ["--users", "4", "--items", "12", "--dim", "3", "--per-user", "40"],
        "scale": ["--input", comparisons, "--scaler", "minmax"],
        "train": ["--input", comparisons, "--features", features],
        "audit": ["--model", str(model), "--test", comparisons, "--features", features],
    }


@pytest.mark.parametrize("command, setting, value", _non_finite_cases())
def test_nan_value_fails_before_anything_is_written(tmp_path, capsys, command_inputs, command,
                                                    setting, value):
    # NaN passes every `x < 0` check and fails every `x > 0` gate, so a NaN
    # let through would switch its term off without an error. An infinity
    # passes both, and would make every target a tie or every score NaN, so
    # each range check also refuses it. The message names the setting as
    # its check does (`tol` for `gbt_tol`, `loss weight bce` for
    # `bce_weight`, `noise_std` for `noise`) and the value.
    # A pipeline value is refused in a grid whose one cell reads every key,
    # and in a `baseline`-only one, whose cell reads no contrastive weight.
    out = tmp_path / "out"
    if command == "pipeline":
        runs = []
        for cell in ("mehestan+contrastive+embeddings", "baseline"):
            config = tmp_path / f"{cell}.cfg"
            config.write_text(PIPELINE_CONFIG.split("experiment")[0]
                              + f"{setting} = {value}\nexperiment = {cell}\n")
            runs.append(["pipeline", "--config", str(config)])
    else:
        flag = "--" + setting.replace("_", "-")
        runs = [[command, *command_inputs[command], f"{flag}={value}"]]
    for argv in runs:
        capsys.readouterr()
        assert _run([*argv, "-o", str(out)]) == 1
        err = capsys.readouterr().err
        names = (setting.removeprefix("gbt_"), "loss weight " + setting.removesuffix("_weight"))
        assert any(name in err for name in names), err
        assert err.startswith("equirank: ") and err.endswith(f", got {float(value)}\n"), err
        assert err.count("\n") == 1
        assert not out.exists()


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

    def test_no_experiment_line_is_usage_error(self, tmp_path, capsys):
        # A grid of no cells has nothing to run, so nothing is simulated or written.
        config = tmp_path / "empty.cfg"
        config.write_text("seed = 1\nusers = 2\nitems = 6\ndim = 2\nper_user = 10\n")
        out = tmp_path / "run"
        assert _run(["pipeline", "--config", str(config), "-o", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"equirank: {config}: no experiment line, so no grid cell to run\n")
        assert not out.exists()

    def test_unknown_key_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("users = 4\nfrobnicate = 1\n")
        assert _run(["pipeline", "--config", str(config),
                     "-o", str(tmp_path / "x")]) == 2
        assert "frobnicate" in capsys.readouterr().err

    @pytest.mark.parametrize("line, message", [
        ("group_sizes = a,b", "bad value 'a,b' for key 'group_sizes': entry 'a' is not an integer"),
        ("archetypes = neutral:x",
         "bad value 'neutral:x' for key 'archetypes': entry 'neutral:x' is not name=count"),
        ("archetypes = neutral=2,neutral=2", "bad value 'neutral=2,neutral=2' for key "
         "'archetypes': entry 'neutral=2' repeats archetype 'neutral'"),
    ])
    def test_malformed_mix_names_the_line(self, tmp_path, capsys, line, message):
        config = tmp_path / "bad.cfg"
        config.write_text(f"users = 4\n{line}\n")
        assert _run(["pipeline", "--config", str(config),
                     "-o", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == f"equirank: {config}: line 2: {message}\n"

    @pytest.mark.parametrize("line, message", [
        ("users = 0", "bad value '0' for key 'users': expected a positive integer, got 0"),
        ("batch_size = 0",
         "bad value '0' for key 'batch_size': expected a positive integer, got 0"),
        ("gbt_max_iter = -3",
         "bad value '-3' for key 'gbt_max_iter': expected a positive integer, got -3"),
        ("train_fraction = 1.5",
         "bad value '1.5' for key 'train_fraction': expected a value in (0, 1), got 1.5"),
        ("train_fraction = x", "bad value 'x' for key 'train_fraction'"),
    ])
    def test_out_of_range_value_names_the_line(self, tmp_path, capsys, line, message):
        config = tmp_path / "bad.cfg"
        config.write_text(f"users = 4\n{line}\n")
        assert _run(["pipeline", "--config", str(config),
                     "-o", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == f"equirank: {config}: line 2: {message}\n"

    @pytest.mark.parametrize("line, message", [
        ("archetypes = neutral=3", "archetype counts sum to 3, expected n_users = 4"),
        ("lam = 0", "lam must be positive, got 0.0"),
        ("learning_rate = 0", "learning_rate must be positive, got 0.0"),
        ("resilience_weight = -1", "resilience_weight must be positive, got -1.0"),
        ("tie_epsilon = nan", "tie_epsilon must be in [0, 1), got nan"),
        ("tie_epsilon = inf", "tie_epsilon must be in [0, 1), got inf"),
        ("tie_epsilon = 1", "tie_epsilon must be in [0, 1), got 1.0"),
        ("tie_epsilon = 5", "tie_epsilon must be in [0, 1), got 5.0"),
    ])
    def test_bad_values_fail_before_anything_is_written(self, tmp_path, capsys, line, message):
        config = tmp_path / "bad.cfg"
        config.write_text(f"users = 4\n{line}\nexperiment = baseline\n")
        out = tmp_path / "x"
        assert _run(["pipeline", "--config", str(config), "-o", str(out)]) == 1
        assert capsys.readouterr().err == f"equirank: {config}: {message}\n"
        assert not out.exists()

    def test_run_time_failure_writes_nothing(self, tmp_path, capsys):
        # lam = 1e-300 passes every check, then makes a user's Newton system
        # singular after the population is simulated and split.
        config = tmp_path / "grid.cfg"
        config.write_text("users = 4\nitems = 12\ndim = 3\nper_user = 40\nlam = 1e-300\n"
                          "experiment = mehestan\n")
        out = tmp_path / "run"
        assert _run(["pipeline", "--config", str(config), "-o", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            "equirank: singular Newton system in GBT fit for user 'u"
        )
        assert not out.exists()

    def test_not_utf8_config_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_bytes(b"seed = 1\nusers = 4\xff\n")
        assert _run(["pipeline", "--config", str(config),
                     "-o", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == f"equirank: {config}: line 2: not valid UTF-8\n"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_lines_end_only_at_lf_crlf_or_cr(self, tmp_path, capsys, end):
        # Form feeds, \x1c-\x1e, NEL and the Unicode separators stay inside
        # their line: the bad value is on line 2 whatever else it holds.
        config = tmp_path / "bad.cfg"
        text = end.join(["seed = 1", "users = 4\x0c\x1d\x85\u2028items = x", "dim = 2", ""])
        config.write_text(text, encoding="utf-8", newline="")
        assert _run(["pipeline", "--config", str(config), "-o", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == (
            f"equirank: {config}: line 2: bad value '4\\x0c\\x1d\\x85\\u2028items = x' "
            "for key 'users'\n"
        )
        config.write_text(end.join(["seed = 1", "users = 3", "# note", "dim = 2", ""]),
                          encoding="utf-8", newline="")
        assert parse_pipeline_config(config)[0] == {
            **_PIPELINE_DEFAULTS, "seed": 1, "users": 3, "dim": 2,
        }

    def test_repeated_experiment_is_usage_error(self, tmp_path, capsys):
        # A repeated cell would train twice and list its report twice.
        config = tmp_path / "bad.cfg"
        config.write_text("users = 4\nexperiment = minmax\n# again\nexperiment = minmax\n")
        out = tmp_path / "x"
        assert _run(["pipeline", "--config", str(config), "-o", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"equirank: {config}: line 4: experiment 'minmax' repeats line 2\n"
        )
        assert not out.exists()

    def test_reordered_experiment_names_the_same_cell(self, tmp_path, capsys):
        # Token order and spacing do not change the cell, which would train twice.
        config = tmp_path / "bad.cfg"
        config.write_text("experiment = minmax+contrastive\nexperiment = contrastive + minmax\n")
        out = tmp_path / "x"
        assert _run(["pipeline", "--config", str(config), "-o", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"equirank: {config}: line 2: experiment 'contrastive + minmax' repeats line 1\n"
        )
        assert not out.exists()

    def test_spaced_experiments_are_named_as_written_without_spaces(self, tmp_path):
        # Spaces around `+` change neither a report's file name nor its summary row.
        config = tmp_path / "grid.cfg"
        config.write_text("seed = 1\nusers = 2\nitems = 6\ndim = 2\nper_user = 10\n"
                          "epochs = 1\nexperiment = contrastive +  minmax\n"
                          "experiment =  baseline \n")
        assert parse_pipeline_config(config)[1] == ["contrastive+minmax", "baseline"]
        out = tmp_path / "run"
        assert _run(["pipeline", "--config", str(config), "-o", str(out)]) == 0
        assert sorted(p.name for p in out.glob("report_*")) == [
            "report_baseline.json", "report_contrastive_minmax.json",
        ]
        rows = (out / "summary.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["contrastive+minmax", "baseline"]

    @pytest.mark.parametrize("key, value, argv", [
        ("users", "0", ["simulate", "--items", "5", "--dim", "2", "--per-user", "5",
                        "--users"]),
        ("batch_size", "0", ["train", "--input", "c.csv", "--features", "f.csv",
                             "--batch-size"]),
        ("gbt_max_iter", "0", ["scale", "--input", "c.csv", "--scaler", "minmax",
                               "--max-iter"]),
        ("group_sizes", "a,b", ["simulate", "--users", "4", "--items", "5", "--dim", "2",
                                "--per-user", "5", "--group-sizes"]),
        ("archetypes", "neutral:x", ["simulate", "--users", "4", "--items", "5", "--dim",
                                     "2", "--per-user", "5", "--archetypes"]),
    ])
    def test_config_key_and_flag_give_one_message(self, tmp_path, capsys, key, value, argv):
        # `argv` ends with the flag that shares the key's parser.
        config = tmp_path / "bad.cfg"
        config.write_text(f"{key} = {value}\n")
        assert _run(["pipeline", "--config", str(config), "-o", str(tmp_path / "x")]) == 2
        key_message = capsys.readouterr().err.partition(f"for key {key!r}: ")[2]
        with pytest.raises(SystemExit) as excinfo:
            _run([*argv, value, "-o", str(tmp_path / "y")])
        assert excinfo.value.code == 2
        flag_message = capsys.readouterr().err.partition(f"argument {argv[-1]}: ")[2]
        assert key_message == flag_message != ""

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

    def test_mehestan_diagnostics_in_manifest(self, tmp_path):
        # A grid with a Mehestan cell writes the diagnostics that
        # `scale --scaler mehestan` writes for the grid's training split; a
        # grid without one writes none.
        config = tmp_path / "grid.cfg"
        config.write_text(PIPELINE_CONFIG + "experiment = mehestan+contrastive\n"
                          "gbt_max_iter = 2\n")
        out = tmp_path / "run"
        assert _run(["pipeline", "--config", str(config), "-o", str(out)]) == 0
        diagnostics = json.loads((out / "manifest_pipeline.json").read_text())["diagnostics"]
        assert list(diagnostics.pop("experiments")) == [
            "baseline", "minmax+contrastive", "embeddings", "mehestan+contrastive"
        ]
        scale = tmp_path / "scale"
        assert _run(["scale", "--input", str(out / "data" / "train.csv"), "--scaler", "mehestan",
                     "--max-iter", "2", "-o", str(scale)]) == 0
        assert diagnostics == json.loads((scale / "manifest_scale.json").read_text())["diagnostics"]
        assert diagnostics["gbt_fits"] == 4 and diagnostics["gbt_unconverged"] > 0
        assert set(diagnostics["users"]["u0"]) == {
            "n_iter", "grad_norm", "converged", "votes", "candidates"
        }
        config.write_text(PIPELINE_CONFIG)
        plain = tmp_path / "plain"
        assert _run(["pipeline", "--config", str(config), "-o", str(plain)]) == 0
        diagnostics = json.loads((plain / "manifest_pipeline.json").read_text())["diagnostics"]
        assert list(diagnostics) == ["experiments"]

    def test_cell_training_diagnostics_equal_the_staged_train(self, tmp_path):
        # Each cell's sgd_steps and final_loss, with the same reprs, are what
        # `train` writes into manifest_train.json when run on the cell's
        # scaled split with the grid's settings.
        config = tmp_path / "grid.cfg"
        config.write_text(PIPELINE_CONFIG + "batch_size = 50\n")
        grid = tmp_path / "grid"
        assert _run(["pipeline", "--config", str(config), "-o", str(grid)]) == 0
        text = (grid / "manifest_pipeline.json").read_text()
        cells = json.loads(text)["diagnostics"]["experiments"]
        data = grid / "data"
        settings = {**_PIPELINE_DEFAULTS, "seed": 7, "epochs": 3, "batch_size": 50}
        keys = ("mse_weight", "ranking_weight", "bce_weight", "ranking_margin",
                "contrastive_margin", "tie_epsilon", "learning_rate", "epochs", "batch_size",
                "seed", "embedding_l2")
        for name in ["baseline", "minmax+contrastive", "embeddings"]:
            scaled, out = data / "train.csv", tmp_path / name
            if name.startswith("minmax"):
                assert _run(["scale", "--input", str(scaled), "--scaler", "minmax",
                             "-o", str(out / "scale")]) == 0
                scaled = out / "scale" / "scaled.csv"
            flags = [f"--{key.replace('_', '-')}={settings[key]}" for key in keys]
            flags.append(f"--contrastive-weight={1.0 if 'contrastive' in name else 0.0}")
            flags += ["--user-embeddings"] if name == "embeddings" else []
            assert _run(["train", "--input", str(scaled), "--features", str(data / "features.csv"),
                         *flags, "-o", str(out / "model")]) == 0
            staged = (out / "model" / "manifest_train.json").read_text()
            assert cells[name] == json.loads(staged)["diagnostics"]
            assert cells[name]["sgd_steps"] == 3 * 4  # 180 rows in batches of 50
            assert f'"final_loss": {cells[name]["final_loss"]!r}' in staged
            assert f'"final_loss": {cells[name]["final_loss"]!r}' in text

    def test_cells_sharing_a_config_train_as_if_alone(self, tmp_path, monkeypatch, capsys):
        # Eight cells in three TrainConfigs: three plain, three contrastive
        # and two with embeddings, interleaved. Each group is one `train`
        # call, with the set, features and config as its positional
        # arguments (the benchmark's tracer unpacks them) and its cells'
        # targets by keyword, one column for a cell alone. Each cell's
        # report, summary row and diagnostics are those of a grid of that
        # cell alone, and stderr
        # holds the Mehestan warnings once, then the tie warning of each cell
        # whose targets are all ties (the Mehestan cells, at lam 1e300), in
        # experiment order.
        import equirank.cli

        cells = ["baseline", "mehestan+contrastive", "minmax", "embeddings", "mehestan",
                 "minmax+contrastive", "normalization+embeddings", "contrastive"]
        settings = PIPELINE_CONFIG.split("experiment")[0] + "lam = 1e300\n"
        grouped_train, calls = equirank.cli.train, []

        def spying(*args, **kwargs):
            assert len(args) == 3 and set(kwargs) == {"targets"}
            calls.append(len(kwargs["targets"]))
            return grouped_train(*args, **kwargs)

        def run(name, experiments):
            config = tmp_path / f"{name}.cfg"
            config.write_text(settings + "".join(f"experiment = {e}\n" for e in experiments))
            capsys.readouterr()
            assert _run(["pipeline", "--config", str(config), "-o", str(tmp_path / name)]) == 0
            manifest = json.loads((tmp_path / name / "manifest_pipeline.json").read_text())
            return manifest["diagnostics"]["experiments"], capsys.readouterr().err.splitlines()

        monkeypatch.setattr(equirank.cli, "train", spying)
        grid, err = run("grid", cells)
        assert calls == [3, 3, 2]
        assert list(grid) == cells
        scale_lines, tie_lines = [], []
        for k, cell in enumerate(cells):
            alone, alone_err = run(f"alone{k}", [cell])
            assert grid[cell] == alone[cell]
            report = f"report_{cell.replace('+', '_')}.json"
            assert (tmp_path / "grid" / report).read_bytes() == \
                (tmp_path / f"alone{k}" / report).read_bytes()
            summary = (tmp_path / f"alone{k}" / "summary.csv").read_text().splitlines()
            assert (tmp_path / "grid" / "summary.csv").read_text().splitlines()[k + 1] == summary[1]
            ties = [line for line in alone_err if "every training target is a tie" in line]
            tie_lines += ties
            if "mehestan" in cell and not scale_lines:
                scale_lines = [line for line in alone_err if line not in ties]
        assert calls == [3, 3, 2] + [1] * 8
        assert len(scale_lines) == 3 and len(tie_lines) == 2
        assert err == scale_lines + tie_lines

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


# Every argparse action of each subcommand, as the parser declared them one
# by one before the shared flags were built from `_PIPELINE_KEYS`:
# per subcommand, (option strings, dest, default, required, choices, action
# class, the value its type gives "-3", or the name of the error it raises).
_PINNED_ACTIONS = {
    "simulate": [
        (("-h", "--help"), "help", "==SUPPRESS==", False, None, "_HelpAction", "-3"),
        (("--users",), "users", None, True, None, "_StoreAction", "ArgumentTypeError"),
        (("--items",), "items", None, True, None, "_StoreAction", "ArgumentTypeError"),
        (("--dim",), "dim", None, True, None, "_StoreAction", "ArgumentTypeError"),
        (("--per-user",), "per_user", None, True, None, "_StoreAction", "ArgumentTypeError"),
        (("--noise",), "noise", 0.1, False, None, "_StoreAction", -3.0),
        (("--seed",), "seed", 0, False, None, "_StoreAction", -3),
        (("--criterion",), "criterion", "overall", False, None, "_StoreAction", "-3"),
        (("--archetypes",), "archetypes", None, False, None, "_StoreAction", "ArgumentTypeError"),
        (("--groups",), "groups", 1, False, None, "_StoreAction", "ArgumentTypeError"),
        (("--opposed-groups",), "opposed_groups", False, False, None, "_StoreTrueAction", "-3"),
        (("--group-sizes",), "group_sizes", None, False, None, "_StoreAction", (-3,)),
        (("--weight-scale",), "weight_scale", 0.5, False, None, "_StoreAction", -3.0),
        (("--user-jitter",), "user_jitter", 0.1, False, None, "_StoreAction", -3.0),
        (("--malicious-mode",), "malicious_mode", "signflip", False,
         ["signflip", "random"], "_StoreAction", "-3"),
        (("-o", "--out"), "out", None, True, None, "_StoreAction", "-3"),
    ],
    "scale": [
        (("-h", "--help"), "help", "==SUPPRESS==", False, None, "_HelpAction", "-3"),
        (("--input",), "input", None, True, None, "_StoreAction", "-3"),
        (("--scaler",), "scaler", None, True,
         ["minmax", "normalization", "mehestan", "none"], "_StoreAction", "-3"),
        (("--criterion",), "criterion", None, False, None, "_StoreAction", "-3"),
        (("--lam",), "lam", 0.1, False, None, "_StoreAction", -3.0),
        (("--tol",), "tol", 1e-08, False, None, "_StoreAction", -3.0),
        (("--max-iter",), "max_iter", 10000, False, None, "_StoreAction", "ArgumentTypeError"),
        (("--resilience-weight",), "resilience_weight", 1.0, False, None, "_StoreAction", -3.0),
        (("-o", "--out"), "out", None, True, None, "_StoreAction", "-3"),
    ],
    "train": [
        (("-h", "--help"), "help", "==SUPPRESS==", False, None, "_HelpAction", "-3"),
        (("--input",), "input", None, True, None, "_StoreAction", "-3"),
        (("--features",), "features", None, True, None, "_StoreAction", "-3"),
        (("--criterion",), "criterion", None, False, None, "_StoreAction", "-3"),
        (("--mse-weight",), "mse_weight", 1.0, False, None, "_StoreAction", -3.0),
        (("--ranking-weight",), "ranking_weight", 0.0, False, None, "_StoreAction", -3.0),
        (("--bce-weight",), "bce_weight", 0.0, False, None, "_StoreAction", -3.0),
        (("--contrastive-weight",), "contrastive_weight", 0.0, False, None, "_StoreAction", -3.0),
        (("--ranking-margin",), "ranking_margin", 0.1, False, None, "_StoreAction", -3.0),
        (("--contrastive-margin",), "contrastive_margin", 0.3, False, None, "_StoreAction", -3.0),
        (("--tie-epsilon",), "tie_epsilon", 0.05, False, None, "_StoreAction", -3.0),
        (("--learning-rate",), "learning_rate", 0.05, False, None, "_StoreAction", -3.0),
        (("--epochs",), "epochs", 50, False, None, "_StoreAction", -3),
        (("--batch-size",), "batch_size", 32, False, None, "_StoreAction", "ArgumentTypeError"),
        (("--seed",), "seed", 0, False, None, "_StoreAction", -3),
        (("--user-embeddings",), "user_embeddings", False, False, None, "_StoreTrueAction", "-3"),
        (("--embedding-l2",), "embedding_l2", 0.0, False, None, "_StoreAction", -3.0),
        (("-o", "--out"), "out", None, True, None, "_StoreAction", "-3"),
    ],
    "audit": [
        (("-h", "--help"), "help", "==SUPPRESS==", False, None, "_HelpAction", "-3"),
        (("--model",), "model", None, True, None, "_StoreAction", "-3"),
        (("--test",), "test", None, True, None, "_StoreAction", "-3"),
        (("--features",), "features", None, True, None, "_StoreAction", "-3"),
        (("--criterion",), "criterion", None, False, None, "_StoreAction", "-3"),
        (("--tie-epsilon",), "tie_epsilon", 0.05, False, None, "_StoreAction", -3.0),
        (("-o", "--out"), "out", None, True, None, "_StoreAction", "-3"),
    ],
    "pipeline": [
        (("-h", "--help"), "help", "==SUPPRESS==", False, None, "_HelpAction", "-3"),
        (("--config",), "config", None, True, None, "_StoreAction", "-3"),
        (("-o", "--out"), "out", None, True, None, "_StoreAction", "-3"),
    ],
}


def _pinned(action):
    try:
        value = "-3" if action.type is None else action.type("-3")
    except (ValueError, argparse.ArgumentTypeError) as exc:
        value = type(exc).__name__
    return (tuple(action.option_strings), action.dest, action.default, action.required,
            action.choices, type(action).__name__, value)


def test_every_flag_keeps_its_name_type_and_default():
    # Compared as reprs, so that 0 is not 0.0, in any order: the order of
    # the flags shows only in `--help`.
    actions = {command: sorted(repr(_pinned(action)) for action in parser._actions)
               for command, parser in _subcommands().items()}
    pinned = {command: sorted(map(repr, rows)) for command, rows in _PINNED_ACTIONS.items()}
    assert actions == pinned
    assert sum(map(len, actions.values())) == 53


def _shared_settings():
    """(key, flag, flag default, pipeline default) of each pipeline key and
    each flag of `simulate`, `scale`, `train` or `audit` that sets it: a
    flag named like the key, or `--tol` and `--max-iter` for `gbt_tol` and
    `gbt_max_iter`, but not the `--criterion` row filter. A key no flag sets
    has one row with no flag."""
    flag_keys = {"tol": "gbt_tol", "max_iter": "gbt_max_iter"}
    rows = []
    for command, parser in _subcommands().items():
        for action in parser._actions:
            key = flag_keys.get(action.dest, action.dest)
            if command in _CHECKED_COMMANDS and key in _PIPELINE_KEYS and (
                key != "criterion" or command == "simulate"
            ):
                default = "required" if action.required else repr(action.default)
                rows.append((key, f"{command} {action.option_strings[-1]}", default,
                             repr(_PIPELINE_DEFAULTS[key])))
    rows += [(key, "—", "—", repr(default)) for key, default in _PIPELINE_DEFAULTS.items()
             if key not in {row[0] for row in rows}]
    return rows


def test_readme_table_of_shared_settings_matches_the_parser():
    lines = (Path(__file__).parent.parent / "README.md").read_text().splitlines()
    start = lines.index("| key | flag | flag default | pipeline default |") + 2
    table = []
    for line in itertools.takewhile(lambda line: line.startswith("|"), lines[start:]):
        table.append(tuple(cell.strip().strip("`") for cell in line.strip("|").split("|")))
    assert sorted(table) == sorted(_shared_settings())
    assert {row[0] for row in table} == set(_PIPELINE_KEYS)


def test_version_flag():
    with pytest.raises(SystemExit) as excinfo:
        _run(["--version"])
    assert excinfo.value.code == 0
