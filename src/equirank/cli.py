"""Command-line pipeline: simulate -> scale -> train -> audit -> pipeline.

Every subcommand is deterministic given its flags and seed; reruns produce
byte-identical data files (timestamps live only in the run manifest, which
is written atomically next to the outputs). Exit codes: 0 success, 1
runtime or data error, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import tempfile
from collections.abc import Mapping
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .dataset import (
    ComparisonSet,
    FeatureTable,
    parse_comparisons,
    parse_features,
    split,
    write_comparisons,
    write_csv,
    write_features,
)
from .equity import build_report, write_lorenz, write_report
from .gbt import GbtConfig, write_individual_scores
from .ltr import (
    LossWeights,
    TrainConfig,
    load_model,
    predict_all,
    save_model,
    train,
)
from .robust import ResilienceParams
from .scaling import (
    SCALER_TAGS,
    ScaledComparisonSet,
    mehestan_scale,
    minmax_scale,
    normalization_scale,
    parse_scaled_comparisons,
    write_scaled_comparisons,
    write_user_affines,
)
from .simgen import ARCHETYPES, SimConfig, generate, write_truth_theta, write_truth_users

SUMMARY_COLUMNS = [
    "Name of Experiment",
    "Accuracy",
    "Maximal Per-User Accuracy",
    "Standard Deviation of Per-User Accuracy",
    "Recall",
    "Maximal Per-User Recall",
    "Standard Deviation of Per-User Recall",
]


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _fraction(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"expected a value in (0, 1), got {text}")
    return value


def _write_manifest(
    outdir: Path,
    subcommand: str,
    flags: dict,
    seed: int,
    input_paths: list[str],
    output_paths: list[Path],
) -> Path:
    manifest = {
        "subcommand": subcommand,
        "config_hash": hashlib.sha256(
            json.dumps(flags, sort_keys=True, default=str).encode()
        ).hexdigest(),
        "seed": seed,
        "input_paths": sorted(str(p) for p in input_paths),
        "output_paths": sorted(str(p) for p in output_paths),
        "tool_version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    target = outdir / f"manifest_{subcommand}.json"
    fd, tmp_name = tempfile.mkstemp(dir=outdir, prefix=".manifest-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2)
            fh.write("\n")
        os.replace(tmp_name, target)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise
    return target


def _parse_archetype_mix(text: str | None, n_users: int) -> dict[str, int] | None:
    if text is None:
        return None
    mix: dict[str, int] = {}
    for part in text.split(","):
        if not part:
            continue
        name, _, count = part.partition("=")
        if name not in ARCHETYPES:
            raise ValueError(f"unknown archetype {name!r} in --archetypes")
        mix[name] = int(count)
    if sum(mix.values()) != n_users:
        raise ValueError(
            f"--archetypes counts sum to {sum(mix.values())}, expected {n_users}"
        )
    return mix


def _load_comparisons_any(path: str | Path) -> ComparisonSet:
    """Accept either the raw schema or the scaled schema (extra scaler column)."""
    path = Path(path)
    with path.open(encoding="utf-8") as fh:
        header = fh.readline().strip()
    if header.endswith(",scaler"):
        return parse_scaled_comparisons(path)
    return parse_comparisons(path)


def _restrict_criterion(cset: ComparisonSet, criterion: str | None) -> ComparisonSet:
    """The comparisons with `criterion` (all of them when it is None); an
    empty result is an error."""
    if criterion is None:
        return cset
    cset = cset.restrict(criterion=criterion)
    if len(cset) == 0:
        raise ValueError(f"no comparisons with criterion {criterion!r}")
    return cset


def cmd_simulate(args: argparse.Namespace) -> int:
    mix = _parse_archetype_mix(args.archetypes, args.users)
    group_sizes = (
        tuple(int(s) for s in args.group_sizes.split(",")) if args.group_sizes else None
    )
    config = SimConfig(
        n_items=args.items,
        feature_dim=args.dim,
        n_users=args.users,
        comparisons_per_user=args.per_user,
        noise_std=args.noise,
        archetype_mix=mix,
        n_groups=args.groups,
        seed=args.seed,
        criterion=args.criterion,
        weight_scale=args.weight_scale,
        user_jitter=args.user_jitter,
        opposed_groups=args.opposed_groups,
        group_sizes=group_sizes,
        malicious_mode=args.malicious_mode,
    )
    cset, features, truth = generate(config)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    outputs = {
        "comparisons": outdir / "comparisons.csv",
        "features": outdir / "features.csv",
        "truth_theta": outdir / "truth_theta.csv",
        "truth_users": outdir / "truth_users.csv",
    }
    write_comparisons(cset, outputs["comparisons"])
    write_features(features, outputs["features"])
    write_truth_theta(truth, outputs["truth_theta"])
    write_truth_users(truth, outputs["truth_users"])
    _write_manifest(
        outdir, "simulate", vars(args), args.seed, [], list(outputs.values())
    )
    print(f"wrote {len(cset)} comparisons for {args.users} users to {outdir}")
    return 0


def _scale(
    scaler: str, cset: ComparisonSet, gbt_config: GbtConfig, params: ResilienceParams
) -> tuple[ScaledComparisonSet, list, list]:
    """Apply one scaler -> (scaled set, Mehestan affines, Mehestan scores).

    The affine and score lists are empty for the other scalers. Every GBT fit
    that stopped at the iteration cap, and every user whose Mehestan scale or
    translation fell back to its default, is reported on stderr.
    """
    if scaler == "minmax":
        return minmax_scale(cset), [], []
    if scaler == "normalization":
        return normalization_scale(cset), [], []
    if scaler == "mehestan":
        scaled, affines, scores = mehestan_scale(cset, gbt_config, params)
        for fit in scores:
            if not fit.converged:
                print(
                    f"equirank: warning: GBT fit did not converge: user={fit.user_id!r} "
                    f"converged=False n_iter={fit.n_iter} grad_norm={fit.grad_norm:.3e}",
                    file=sys.stderr,
                )
        for affine in affines:
            if not affine.anchor and (affine.votes == 0 or affine.candidates == 0):
                print(
                    f"equirank: warning: Mehestan fallback: user={affine.user_id!r} "
                    f"votes={affine.votes} s={affine.s!r} "
                    f"candidates={affine.candidates} tau={affine.tau!r}",
                    file=sys.stderr,
                )
        return scaled, affines, scores
    return ScaledComparisonSet(columns=cset.columns, scaler_tag="none"), [], []


def cmd_scale(args: argparse.Namespace) -> int:
    cset = _restrict_criterion(_load_comparisons_any(args.input), args.criterion)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    outputs = [outdir / "scaled.csv"]
    scaled, affines, scores = _scale(
        args.scaler,
        cset,
        GbtConfig(lam=args.lam, tol=args.tol, max_iter=args.max_iter),
        ResilienceParams(weight=args.resilience_weight),
    )
    if args.scaler == "mehestan":
        write_user_affines(affines, outdir / "affines.csv")
        write_individual_scores(scores, outdir / "theta.csv")
        outputs += [outdir / "affines.csv", outdir / "theta.csv"]
    write_scaled_comparisons(scaled, outputs[0])
    _write_manifest(outdir, "scale", vars(args), 0, [args.input], outputs)
    print(f"scaled {len(scaled)} comparisons with {args.scaler} to {outputs[0]}")
    return 0


_TRAIN_KEYS = (
    "ranking_margin",
    "contrastive_margin",
    "tie_epsilon",
    "learning_rate",
    "epochs",
    "batch_size",
    "seed",
    "embedding_l2",
)


def _train_config(
    values: Mapping[str, object], contrastive: bool, embeddings: bool
) -> TrainConfig:
    """TrainConfig from the `train` flags (`vars(args)`) or the pipeline
    config, which share key names; the contrastive term and the user
    embeddings are switched on per call."""
    return TrainConfig(
        loss_weights=LossWeights(
            mse=values["mse_weight"],
            ranking=values["ranking_weight"],
            bce=values["bce_weight"],
            contrastive=values["contrastive_weight"] if contrastive else 0.0,
        ),
        use_user_embeddings=embeddings,
        **{key: values[key] for key in _TRAIN_KEYS},
    )


def cmd_train(args: argparse.Namespace) -> int:
    cset = _restrict_criterion(_load_comparisons_any(args.input), args.criterion)
    features = parse_features(args.features)
    config = _train_config(vars(args), contrastive=True, embeddings=args.user_embeddings)
    result = train(cset, features, config)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    model_path = outdir / "model.json"
    trace_path = outdir / "loss_trace.csv"
    save_model(result.params, model_path)
    write_csv(
        trace_path,
        ["epoch", "loss"],
        ([str(epoch), repr(value)] for epoch, value in enumerate(result.loss_trace)),
    )
    _write_manifest(
        outdir,
        "train",
        vars(args),
        args.seed,
        [args.input, args.features],
        [model_path, trace_path],
    )
    print(f"trained on {len(cset)} comparisons; model at {model_path}")
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    cset = _restrict_criterion(_load_comparisons_any(args.test), args.criterion)
    features = parse_features(args.features)
    predictions = predict_all(model, cset, features)
    report = build_report(predictions, args.tie_epsilon)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    report_path = outdir / "report.json"
    lorenz_path = outdir / "lorenz.csv"
    write_report(report, report_path)
    write_lorenz(report, lorenz_path)
    _write_manifest(
        outdir,
        "audit",
        vars(args),
        0,
        [args.model, args.test, args.features],
        [report_path, lorenz_path],
    )
    print(
        f"audited {len(cset)} comparisons: accuracy {report.overall_accuracy:.4f}, "
        f"acc std {report.acc_std:.4f}, gini {report.gini_accuracy:.4f}"
    )
    return 0


# --- pipeline -----------------------------------------------------------

_PIPELINE_DEFAULTS: dict[str, object] = {
    "seed": 42,
    "users": 8,
    "items": 25,
    "dim": 4,
    "per_user": 300,
    "noise": 0.1,
    "criterion": "overall",
    "groups": 1,
    "opposed_groups": False,
    "group_sizes": "",
    "archetypes": "",
    "weight_scale": 0.5,
    "user_jitter": 0.1,
    "malicious_mode": "signflip",
    "train_fraction": 0.8,
    "epochs": 15,
    "batch_size": 32,
    "learning_rate": 0.05,
    "mse_weight": 1.0,
    "ranking_weight": 0.0,
    "bce_weight": 0.0,
    "contrastive_weight": 1.0,
    "ranking_margin": 0.1,
    "contrastive_margin": 0.3,
    "tie_epsilon": 0.05,
    "embedding_l2": 0.0001,
    "lam": 0.1,
    "gbt_tol": 1e-8,
    "gbt_max_iter": 10000,
    "resilience_weight": 1.0,
}

_EXPERIMENT_SCALERS = {"baseline": "none", "none": "none", "minmax": "minmax",
                       "normalization": "normalization", "mehestan": "mehestan"}


class UsageError(Exception):
    """Raised for configuration problems that should exit with code 2."""


def parse_pipeline_config(path: str | Path) -> tuple[dict[str, object], list[str]]:
    """Flat key=value grammar; '#' starts a comment; `experiment` repeats."""
    values = dict(_PIPELINE_DEFAULTS)
    experiments: list[str] = []
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep:
            raise UsageError(f"{path}: line {lineno}: expected key = value")
        if key == "experiment":
            experiments.append(value)
            continue
        if key not in _PIPELINE_DEFAULTS:
            raise UsageError(f"{path}: line {lineno}: unknown config key {key!r}")
        default = _PIPELINE_DEFAULTS[key]
        try:
            if isinstance(default, bool):
                if value.lower() not in ("true", "false"):
                    raise ValueError(value)
                values[key] = value.lower() == "true"
            elif isinstance(default, int):
                values[key] = int(value)
            elif isinstance(default, float):
                values[key] = float(value)
            else:
                values[key] = value
        except ValueError:
            raise UsageError(
                f"{path}: line {lineno}: bad value {value!r} for key {key!r}"
            ) from None
    return values, experiments


def _parse_experiment(name: str) -> tuple[str, bool, bool]:
    """-> (scaler, contrastive, embeddings); raises UsageError on bad tokens."""
    scaler = "none"
    scaler_seen = False
    contrastive = False
    embeddings = False
    for token in name.split("+"):
        token = token.strip()
        if token in _EXPERIMENT_SCALERS:
            if scaler_seen:
                raise UsageError(f"experiment {name!r}: more than one scaler token")
            scaler = _EXPERIMENT_SCALERS[token]
            scaler_seen = True
        elif token == "contrastive":
            contrastive = True
        elif token == "embeddings":
            embeddings = True
        else:
            raise UsageError(f"experiment {name!r}: unknown token {token!r}")
    return scaler, contrastive, embeddings


def _run_cell(
    cell: tuple[str, bool, bool],
    cfg: dict[str, object],
    fit_set: ComparisonSet,
    test_set: ComparisonSet,
    features: FeatureTable,
):
    _, contrastive, embeddings = cell
    config = _train_config(cfg, contrastive, embeddings)
    result = train(fit_set, features, config)
    predictions = predict_all(result.params, test_set, features)
    return build_report(predictions, float(cfg["tie_epsilon"]))


def _percent(value: float) -> str:
    return f"{100.0 * value:.2f}%"


def cmd_pipeline(args: argparse.Namespace) -> int:
    cfg, experiments = parse_pipeline_config(args.config)
    cells = [_parse_experiment(name) for name in experiments]
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    sim = SimConfig(
        n_items=int(cfg["items"]),
        feature_dim=int(cfg["dim"]),
        n_users=int(cfg["users"]),
        comparisons_per_user=int(cfg["per_user"]),
        noise_std=float(cfg["noise"]),
        archetype_mix=_parse_archetype_mix(
            str(cfg["archetypes"]) or None, int(cfg["users"])
        ),
        n_groups=int(cfg["groups"]),
        seed=int(cfg["seed"]),
        criterion=str(cfg["criterion"]),
        weight_scale=float(cfg["weight_scale"]),
        user_jitter=float(cfg["user_jitter"]),
        opposed_groups=bool(cfg["opposed_groups"]),
        group_sizes=(
            tuple(int(s) for s in str(cfg["group_sizes"]).split(","))
            if cfg["group_sizes"]
            else None
        ),
        malicious_mode=str(cfg["malicious_mode"]),
    )
    cset, features, truth = generate(sim)
    train_set, test_set = split(cset, float(cfg["train_fraction"]), int(cfg["seed"]))

    datadir = outdir / "data"
    datadir.mkdir(exist_ok=True)
    outputs = [
        datadir / "comparisons.csv",
        datadir / "features.csv",
        datadir / "truth_theta.csv",
        datadir / "truth_users.csv",
        datadir / "train.csv",
        datadir / "test.csv",
    ]
    write_comparisons(cset, outputs[0])
    write_features(features, outputs[1])
    write_truth_theta(truth, outputs[2])
    write_truth_users(truth, outputs[3])
    write_comparisons(train_set, outputs[4])
    write_comparisons(test_set, outputs[5])

    # Each distinct scaler runs once; cells sharing it train on the same set.
    gbt_config = GbtConfig(
        lam=float(cfg["lam"]), tol=float(cfg["gbt_tol"]), max_iter=int(cfg["gbt_max_iter"])
    )
    params = ResilienceParams(weight=float(cfg["resilience_weight"]))
    fit_sets: dict[str, ComparisonSet] = {}
    for scaler, _, _ in cells:
        if scaler not in fit_sets:
            fit_sets[scaler] = _scale(scaler, train_set, gbt_config, params)[0]

    reports = [_run_cell(cell, cfg, fit_sets[cell[0]], test_set, features) for cell in cells]

    summary_path = outdir / "summary.csv"
    with summary_path.open("w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SUMMARY_COLUMNS)
        for name, report in zip(experiments, reports):
            report_path = outdir / f"report_{name.replace('+', '_')}.json"
            write_report(report, report_path)
            outputs.append(report_path)
            writer.writerow(
                [
                    name,
                    _percent(report.overall_accuracy),
                    _percent(report.acc_max_gap),
                    _percent(report.acc_std),
                    _percent(report.overall_recall),
                    _percent(report.recall_max_gap),
                    _percent(report.recall_std),
                ]
            )
    outputs.append(summary_path)
    _write_manifest(
        outdir, "pipeline", {"config": cfg, "experiments": experiments},
        int(cfg["seed"]), [args.config], outputs,
    )
    print(f"ran {len(experiments)} experiment(s); summary at {summary_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="equirank",
        description="Equity-aware pairwise learning-to-rank pipeline",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic voter population")
    p.add_argument("--users", type=_positive_int, required=True)
    p.add_argument("--items", type=_positive_int, required=True)
    p.add_argument("--dim", type=_positive_int, required=True)
    p.add_argument("--per-user", type=_positive_int, required=True,
                   help="comparisons drawn per user")
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--criterion", default="overall")
    p.add_argument("--archetypes", default=None,
                   help="counts like neutral=4,conservative=2 (default all neutral)")
    p.add_argument("--groups", type=_positive_int, default=1)
    p.add_argument("--opposed-groups", action="store_true")
    p.add_argument("--group-sizes", default=None, help="comma-separated block sizes")
    p.add_argument("--weight-scale", type=float, default=0.5)
    p.add_argument("--user-jitter", type=float, default=0.1)
    p.add_argument("--malicious-mode", choices=["signflip", "random"], default="signflip")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("scale", help="rescale per-user comparison scores")
    p.add_argument("--input", required=True)
    p.add_argument("--scaler", choices=list(SCALER_TAGS), required=True)
    p.add_argument("--criterion", default=None)
    p.add_argument("--lam", type=float, default=0.1)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-iter", type=_positive_int, default=10000)
    p.add_argument("--resilience-weight", type=float, default=1.0)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_scale)

    p = sub.add_parser("train", help="train the pairwise ranking model")
    p.add_argument("--input", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--criterion", default=None)
    p.add_argument("--mse-weight", type=float, default=1.0)
    p.add_argument("--ranking-weight", type=float, default=0.0)
    p.add_argument("--bce-weight", type=float, default=0.0)
    p.add_argument("--contrastive-weight", type=float, default=0.0)
    p.add_argument("--ranking-margin", type=float, default=0.1)
    p.add_argument("--contrastive-margin", type=float, default=0.3)
    p.add_argument("--tie-epsilon", type=float, default=0.05)
    p.add_argument("--learning-rate", type=float, default=0.05)
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--batch-size", type=_positive_int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--user-embeddings", action="store_true")
    p.add_argument("--embedding-l2", type=float, default=0.0)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("audit", help="evaluate a model and emit the equity report")
    p.add_argument("--model", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--criterion", default=None)
    p.add_argument("--tie-epsilon", type=float, default=0.05)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("pipeline", help="run an experiment grid from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"equirank: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"equirank: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
