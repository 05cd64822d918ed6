"""Command-line pipeline: simulate -> scale -> train -> audit -> pipeline.

Every subcommand is deterministic given its flags and seed; reruns produce
byte-identical data files (timestamps live only in the run manifest, which
is written atomically next to the outputs). Exit codes: 0 success, 1
runtime or data error, 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from collections.abc import Callable, Mapping
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .dataset import (
    ComparisonSet,
    FeatureTable,
    _csv_rows,
    _not_utf8,
    parse_comparisons,
    parse_features,
    split,
    write_comparisons,
    write_features,
    write_json,
    write_table,
)
from .equity import build_report, write_lorenz, write_report
from .gbt import GbtConfig, GbtFits, write_individual_scores
from .ltr import (
    LossWeights,
    PredictionOverflow,
    TrainConfig,
    TrainResult,
    load_model,
    predict_all,
    save_model,
    train,
)
from .scaling import (
    SCALER_TAGS,
    Affines,
    check_resilience_weight,
    mehestan_scale,
    minmax_scale,
    normalization_scale,
    parse_scaled_comparisons,
    write_scaled_comparisons,
    write_user_affines,
)
from .simgen import GroundTruth, SimConfig, generate, write_truth_theta, write_truth_users

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


# Flags naming files, which `input_paths` and `output_paths` record; the
# config hash leaves them out, so one configuration has one hash wherever it
# reads and writes.
_PATH_FLAGS = ("out", "input", "features", "model", "test")


def _write_manifest(
    outdir: Path,
    subcommand: str,
    flags: dict,
    seed: int,
    input_paths: list[str],
    output_paths: list[Path],
    diagnostics: dict | None = None,
) -> Path:
    config = {key: value for key, value in flags.items() if key not in _PATH_FLAGS}
    manifest = {
        "subcommand": subcommand,
        "config_hash": hashlib.sha256(
            json.dumps(config, sort_keys=True, default=str).encode()
        ).hexdigest(),
        "seed": seed,
        "input_paths": sorted(str(p) for p in input_paths),
        "output_paths": sorted(str(p) for p in output_paths),
        "tool_version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    if diagnostics is not None:
        manifest["diagnostics"] = diagnostics
    target = outdir / f"manifest_{subcommand}.json"
    write_json(target, manifest)
    return target


def _archetype_mix(text: str) -> dict[str, int] | None:
    """Counts like `neutral=4,conservative=2`, or None (all neutral) for an
    empty text; SimConfig checks the names and the sum."""
    if not text:
        return None
    mix: dict[str, int] = {}
    for part in text.split(","):
        if part:
            name, sep, count = part.partition("=")
            if not sep or not name:
                raise argparse.ArgumentTypeError(f"entry {part!r} is not name=count")
            if name in mix:
                raise argparse.ArgumentTypeError(f"entry {part!r} repeats archetype {name!r}")
            try:
                mix[name] = int(count)
            except ValueError:
                raise argparse.ArgumentTypeError(
                    f"entry {part!r}: count {count!r} is not an integer"
                ) from None
    return mix


def _group_sizes(text: str) -> tuple[int, ...] | None:
    """Comma-separated block sizes, or None (round-robin) for an empty
    text; SimConfig checks their number and sum."""
    if not text:
        return None
    sizes = []
    for part in text.split(","):
        try:
            sizes.append(int(part))
        except ValueError:
            raise argparse.ArgumentTypeError(f"entry {part!r} is not an integer") from None
    return tuple(sizes)


def _sim_config(values: Mapping[str, object]) -> SimConfig:
    """SimConfig from the `simulate` flags (`vars(args)`) or the pipeline
    config, which share key names and hold `archetypes` and `group_sizes`
    as `_archetype_mix` and `_group_sizes` parse them."""
    return SimConfig(
        n_items=values["items"],
        feature_dim=values["dim"],
        n_users=values["users"],
        comparisons_per_user=values["per_user"],
        noise_std=values["noise"],
        archetype_mix=values["archetypes"],
        n_groups=values["groups"],
        seed=values["seed"],
        criterion=values["criterion"],
        weight_scale=values["weight_scale"],
        user_jitter=values["user_jitter"],
        opposed_groups=values["opposed_groups"],
        group_sizes=values["group_sizes"],
        malicious_mode=values["malicious_mode"],
    )


def _load_comparisons(path: str | Path, criterion: str | None) -> ComparisonSet:
    """Read a comparisons file in the raw or the scaled schema (extra scaler
    column), keep the rows with `criterion` (all when it is None), and reject
    an empty result. The header, read as the parsers read it, picks one."""
    header = next(_csv_rows(Path(path)))
    parse = parse_scaled_comparisons if header[-1:] == ["scaler"] else parse_comparisons
    cset = parse(path)
    if criterion is not None:
        cset = cset.restrict(criterion=criterion)
        if len(cset) == 0:
            raise ValueError(f"no comparisons with criterion {criterion!r}")
    if len(cset) == 0:
        raise ValueError(f"{path}: empty comparison set")
    return cset


def _write_simulation(
    outdir: Path, cset: ComparisonSet, features: FeatureTable, truth: GroundTruth
) -> list[Path]:
    """Write what `generate` returned into `outdir`; the paths written."""
    outputs = [outdir / name for name in
               ("comparisons.csv", "features.csv", "truth_theta.csv", "truth_users.csv")]
    write_comparisons(cset, outputs[0])
    write_features(features, outputs[1])
    write_truth_theta(truth, outputs[2])
    write_truth_users(truth, outputs[3])
    return outputs


def _simulate(config: SimConfig) -> tuple[ComparisonSet, FeatureTable, GroundTruth]:
    """`generate`, warning on stderr when every simulated score is -1 or 1:
    noise or weights so large that the clip to [-1, 1] leaves no magnitude
    for a scaler or a loss to read."""
    cset, features, truth = generate(config)
    if (np.abs(cset.score) == 1.0).all():
        print(
            f"equirank: warning: every simulated score is -1 or 1; "
            f"noise_std={config.noise_std!r} weight_scale={config.weight_scale!r}",
            file=sys.stderr,
        )
    return cset, features, truth


def cmd_simulate(args: argparse.Namespace) -> int:
    cset, features, truth = _simulate(_sim_config(vars(args)))
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    outputs = _write_simulation(outdir, cset, features, truth)
    _write_manifest(outdir, "simulate", vars(args), args.seed, [], outputs)
    print(f"wrote {len(cset)} comparisons for {args.users} users to {outdir}")
    return 0


def _scale(
    scaler: str, cset: ComparisonSet, gbt_config: GbtConfig, resilience_weight: float
) -> tuple[ComparisonSet, Affines | None, GbtFits | None]:
    """Apply one scaler -> (scaled set, Mehestan affines, Mehestan fits).

    The affines and fits are None for the other scalers. Every GBT fit that
    stopped unconverged, every user whose Mehestan scale or translation fell
    back to its default, and a scaled set whose scores are all equal, which
    leaves a ranker nothing to learn, are reported on stderr.
    """
    if scaler == "none":
        return cset, None, None
    affines = fits = None
    if scaler == "minmax":
        scaled = minmax_scale(cset)
    elif scaler == "normalization":
        scaled = normalization_scale(cset)
    else:
        scaled, affines, fits = mehestan_scale(cset, gbt_config, resilience_weight)
        for k in np.flatnonzero(~fits.converged):
            print(
                f"equirank: warning: GBT fit did not converge: user={fits.user_ids[k]!r} "
                f"converged=False n_iter={fits.n_iter[k]} grad_norm={fits.grad_norm[k]:.3e}",
                file=sys.stderr,
            )
        fallback = (affines.votes == 0) | (affines.candidates == 0)
        fallback[affines.anchor] = False
        for k in np.flatnonzero(fallback):
            print(
                f"equirank: warning: Mehestan fallback: user={affines.user_ids[k]!r} "
                f"votes={affines.votes[k]} s={affines.s[k].item()!r} "
                f"candidates={affines.candidates[k]} tau={affines.tau[k].item()!r}",
                file=sys.stderr,
            )
    if (low := scaled.score.min()) == scaled.score.max():
        settings = f" lam={gbt_config.lam!r} tol={gbt_config.tol!r}" if scaler == "mehestan" else ""
        print(
            f"equirank: warning: every scaled score is {low.item()!r}; "
            f"scaler={scaler!r}{settings}",
            file=sys.stderr,
        )
    return scaled, affines, fits


def _mehestan_diagnostics(affines: Affines, fits: GbtFits) -> dict:
    """GBT and Mehestan counts of one `mehestan_scale` run, for its manifest:
    totals over the fits, the anchor, and per user the fit's stopping state
    with the scale votes and translation candidates it took."""
    columns = (fits.n_iter, fits.grad_norm, fits.converged, affines.votes, affines.candidates)
    return {
        "gbt_fits": len(fits.user_ids),
        "gbt_iterations": int(fits.n_iter.sum()),
        "gbt_unconverged": int(np.count_nonzero(~fits.converged)),
        "anchor": affines.user_ids[affines.anchor],
        "users": {
            user: {"n_iter": n_iter, "grad_norm": norm, "converged": converged,
                   "votes": votes, "candidates": candidates}
            for user, n_iter, norm, converged, votes, candidates in zip(
                fits.user_ids, *(column.tolist() for column in columns)
            )
        },
    }


def cmd_scale(args: argparse.Namespace) -> int:
    # Every value is checked before anything is written.
    gbt_config = GbtConfig(lam=args.lam, tol=args.tol, max_iter=args.max_iter)
    weight = check_resilience_weight(args.resilience_weight)
    cset = _load_comparisons(args.input, args.criterion)
    scaled, affines, fits = _scale(args.scaler, cset, gbt_config, weight)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    outputs = [outdir / "scaled.csv"]
    diagnostics = None
    if args.scaler == "mehestan":
        write_user_affines(affines, outdir / "affines.csv")
        write_individual_scores(fits, outdir / "theta.csv")
        outputs += [outdir / "affines.csv", outdir / "theta.csv"]
        diagnostics = _mehestan_diagnostics(affines, fits)
    write_scaled_comparisons(scaled, outputs[0], args.scaler)
    _write_manifest(outdir, "scale", vars(args), 0, [args.input], outputs, diagnostics)
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


def write_loss_trace(trace: list[float], path: str | Path) -> None:
    """CSV of epoch,loss: the training loss after each epoch."""
    epochs = [str(epoch) for epoch in range(len(trace))]
    write_table(path, ["epoch", "loss"], [(epochs, np.arange(len(trace))), np.array(trace)])


def _train(
    sets: list[ComparisonSet], features: FeatureTable, config: TrainConfig
) -> list[tuple[TrainResult, dict]]:
    """`train` on each of `sets`, which hold the rows of one set (a scaler's
    output keeps them) under their own scores, in one lockstep run when there
    are two or more. Each model comes with its manifest diagnostics:
    `sgd_steps` (one step per batch of each epoch) and `final_loss`, the
    trace's last value."""
    if len(sets) == 1:
        results = [train(sets[0], features, config)]
    else:
        results = train(sets[0], features, config, targets=[s.score for s in sets])
    steps = config.epochs * -(-len(sets[0]) // config.batch_size)
    return [(result, {"sgd_steps": steps, "final_loss": result.loss_trace[-1]})
            for result in results]


def _warn_if_all_ties(cset: ComparisonSet, config: TrainConfig) -> None:
    """Report on stderr a training set whose every target is a tie,
    |score| <= tie_epsilon, which leaves the hinge losses no comparison to
    order."""
    if (np.abs(cset.score) <= config.tie_epsilon).all():
        print(
            f"equirank: warning: every training target is a tie: "
            f"|score| <= tie_epsilon={config.tie_epsilon!r}",
            file=sys.stderr,
        )


def cmd_train(args: argparse.Namespace) -> int:
    cset = _load_comparisons(args.input, args.criterion)
    features = parse_features(args.features)
    config = _train_config(vars(args), contrastive=True, embeddings=args.user_embeddings)
    [(result, diagnostics)] = _train([cset], features, config)
    _warn_if_all_ties(cset, config)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    model_path = outdir / "model.json"
    trace_path = outdir / "loss_trace.csv"
    save_model(result.params, model_path)
    write_loss_trace(result.loss_trace, trace_path)
    _write_manifest(
        outdir,
        "train",
        vars(args),
        args.seed,
        [args.input, args.features],
        [model_path, trace_path],
        diagnostics,
    )
    print(f"trained on {len(cset)} comparisons; model at {model_path}")
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    cset = _load_comparisons(args.test, args.criterion)
    features = parse_features(args.features)
    if features.dim != model.dim:
        raise ValueError(
            f"{args.model}: model dim {model.dim} does not match {args.features}, "
            f"whose feature vectors have length {features.dim}"
        )
    try:
        predictions = predict_all(model, cset, features)
    except PredictionOverflow as exc:
        raise ValueError(f"{args.model}: {exc}") from None
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

def _truth(text: str) -> bool:
    if text.lower() not in ("true", "false"):
        raise ValueError(text)
    return text.lower() == "true"


# Each pipeline config key: (parser, default). The keys that share a flag's
# name share its parser, so they are checked as the flag is.
_PIPELINE_KEYS: dict[str, tuple[Callable[[str], object], object]] = {
    "seed": (int, 42),
    "users": (_positive_int, 8),
    "items": (_positive_int, 25),
    "dim": (_positive_int, 4),
    "per_user": (_positive_int, 300),
    "noise": (float, 0.1),
    "criterion": (str, "overall"),
    "groups": (_positive_int, 1),
    "opposed_groups": (_truth, False),
    "group_sizes": (_group_sizes, None),
    "archetypes": (_archetype_mix, None),
    "weight_scale": (float, 0.5),
    "user_jitter": (float, 0.1),
    "malicious_mode": (str, "signflip"),
    "train_fraction": (_fraction, 0.8),
    "epochs": (int, 15),
    "batch_size": (_positive_int, 32),
    "learning_rate": (float, 0.05),
    "mse_weight": (float, 1.0),
    "ranking_weight": (float, 0.0),
    "bce_weight": (float, 0.0),
    "contrastive_weight": (float, 1.0),
    "ranking_margin": (float, 0.1),
    "contrastive_margin": (float, 0.3),
    "tie_epsilon": (float, 0.05),
    "embedding_l2": (float, 0.0001),
    "lam": (float, 0.1),
    "gbt_tol": (float, 1e-8),
    "gbt_max_iter": (_positive_int, 10000),
    "resilience_weight": (float, 1.0),
}
_PIPELINE_DEFAULTS = {key: default for key, (_, default) in _PIPELINE_KEYS.items()}

_EXPERIMENT_SCALERS = dict(zip(SCALER_TAGS, SCALER_TAGS), baseline="none")


class UsageError(Exception):
    """Raised for configuration problems that should exit with code 2."""


def parse_pipeline_config(path: str | Path) -> tuple[dict[str, object], list[str]]:
    """Flat key=value grammar; '#' starts a comment; `experiment` repeats,
    each line naming a different grid cell (scaler, contrastive, embeddings).
    An experiment is kept with the spaces around its `+` tokens stripped."""
    data = Path(path).read_bytes()
    try:
        text = data.decode()
    except UnicodeDecodeError as exc:
        raise UsageError(*_not_utf8(Path(path), data, exc.start).args) from None
    values = dict(_PIPELINE_DEFAULTS)
    # Each experiment, and the line that names its cell.
    experiments: list[str] = []
    cells: dict[tuple[str, bool, bool], int] = {}
    # Lines end at a LF, a CRLF or a bare CR, as in the CSV reader.
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep:
            raise UsageError(f"{path}: line {lineno}: expected key = value")
        if key == "experiment":
            try:
                cell = _parse_experiment(value)
            except UsageError as exc:
                raise UsageError(f"{path}: line {lineno}: {exc}") from None
            if cell in cells:
                raise UsageError(
                    f"{path}: line {lineno}: experiment {value!r} repeats line {cells[cell]}"
                )
            cells[cell] = lineno
            experiments.append("+".join(token.strip() for token in value.split("+")))
            continue
        if key not in _PIPELINE_KEYS:
            raise UsageError(f"{path}: line {lineno}: unknown config key {key!r}")
        try:
            values[key] = _PIPELINE_KEYS[key][0](value)
        except argparse.ArgumentTypeError as exc:
            raise UsageError(
                f"{path}: line {lineno}: bad value {value!r} for key {key!r}: {exc}"
            ) from None
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


def _percent(value: float) -> str:
    return f"{100.0 * value:.2f}%"


def write_summary(experiments: list[str], reports: list, path: str | Path) -> None:
    """One row per experiment: its name, then SUMMARY_COLUMNS' figures in percent."""
    keys = ("overall_accuracy", "acc_max_gap", "acc_std",
            "overall_recall", "recall_max_gap", "recall_std")
    columns = [experiments] + [[_percent(getattr(r, key)) for r in reports] for key in keys]
    rows = np.arange(len(experiments))
    write_table(path, SUMMARY_COLUMNS, [(column, rows) for column in columns])


def cmd_pipeline(args: argparse.Namespace) -> int:
    cfg, experiments = parse_pipeline_config(args.config)
    cells = [_parse_experiment(name) for name in experiments]
    # Every value is checked before anything is written.
    try:
        sim_config = _sim_config(cfg)
        train_configs = [_train_config(cfg, contrastive, embeddings)
                         for _, contrastive, embeddings in cells]
        gbt_config = GbtConfig(lam=cfg["lam"], tol=cfg["gbt_tol"], max_iter=cfg["gbt_max_iter"])
        weight = check_resilience_weight(cfg["resilience_weight"])
    except ValueError as exc:
        raise ValueError(f"{args.config}: {exc}") from None
    cset, features, truth = _simulate(sim_config)
    train_set, test_set = split(cset, cfg["train_fraction"], cfg["seed"])

    # Each distinct scaler runs once; cells sharing it train on the same set.
    fit_sets: dict[str, ComparisonSet] = {}
    diagnostics = {}
    for scaler, _, _ in cells:
        if scaler not in fit_sets:
            fit_sets[scaler], affines, fits = _scale(scaler, train_set, gbt_config, weight)
            if scaler == "mehestan":
                diagnostics = _mehestan_diagnostics(affines, fits)

    # Cells with equal TrainConfigs train in one lockstep run on their fit
    # sets, as cells sharing a scaler share its one run; each model is the
    # one its cell would train alone.
    groups: dict[TrainConfig, list[int]] = {}
    for index, config in enumerate(train_configs):
        groups.setdefault(config, []).append(index)
    trained = [None] * len(cells)
    for config, members in groups.items():
        runs = _train([fit_sets[cells[i][0]] for i in members], features, config)
        for i, run in zip(members, runs):
            trained[i] = run

    # Each cell's training diagnostics, as `train` writes them, by experiment.
    reports, diagnostics["experiments"] = [], {}
    for name, (scaler, _, _), config, (result, cell_diagnostics) in zip(
        experiments, cells, train_configs, trained
    ):
        _warn_if_all_ties(fit_sets[scaler], config)
        diagnostics["experiments"][name] = cell_diagnostics
        reports.append(
            build_report(predict_all(result.params, test_set, features), config.tie_epsilon)
        )

    # Written only once every cell has trained, so a run-time failure writes nothing.
    outdir = Path(args.out)
    datadir = outdir / "data"
    datadir.mkdir(parents=True, exist_ok=True)
    outputs = _write_simulation(datadir, cset, features, truth)
    outputs += [datadir / "train.csv", datadir / "test.csv"]
    write_comparisons(train_set, outputs[4])
    write_comparisons(test_set, outputs[5])
    for name, report in zip(experiments, reports):
        report_path = outdir / f"report_{name.replace('+', '_')}.json"
        write_report(report, report_path)
        outputs.append(report_path)
    summary_path = outdir / "summary.csv"
    write_summary(experiments, reports, summary_path)
    outputs.append(summary_path)
    _write_manifest(
        outdir, "pipeline", {"config": cfg, "experiments": experiments},
        cfg["seed"], [args.config], outputs, diagnostics,
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
    p.add_argument("--archetypes", type=_archetype_mix, default=None,
                   help="counts like neutral=4,conservative=2 (default all neutral)")
    p.add_argument("--groups", type=_positive_int, default=1)
    p.add_argument("--opposed-groups", action="store_true")
    p.add_argument("--group-sizes", type=_group_sizes, default=None,
                   help="comma-separated block sizes")
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
    # Out of the flags the manifests hash: its repr holds a memory address.
    func = vars(args).pop("func")
    try:
        return func(args)
    except UsageError as exc:
        print(f"equirank: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"equirank: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
