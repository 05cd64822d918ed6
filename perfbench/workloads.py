"""The benchmark's workloads: inputs made with simgen, one timed unit, output checks.

A unit is what a user runs for one result. `desk-grid` is one
`equirank pipeline` grid. The staged workloads split the simulated
comparisons with the public `equirank.dataset` functions (the CLI has no
split command), then run `scale`, `train` and `audit` per chain through
`equirank.cli.main`, handing CSV files from one command to the next.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

from equirank import cli, dataset
from equirank.simgen import SimConfig, generate

DIM = 4
CRITERION = "overall"
TRAIN_FRACTION = 0.8

# The paper's results table: the 10 cells of the acceptance grid.
GRID_CELLS = (
    "baseline", "contrastive", "minmax", "minmax+contrastive",
    "normalization", "normalization+contrastive", "mehestan",
    "mehestan+contrastive", "embeddings", "embeddings+contrastive",
)


@dataclass(frozen=True)
class Workload:
    name: str
    users: int
    items: int
    per_user: int
    epochs: int
    # None: the benchmark seed picks the population and the split. A number
    # pins both, for workloads whose cost is set by which users' GBT fits
    # stall at the iteration cap; there the benchmark seed only seeds training.
    population_seed: int | None
    # (scaler, extra `train` flags) per staged chain; empty runs the grid.
    chains: tuple[tuple[str, tuple[str, ...]], ...] = ()
    # A tenth each of conservative, extreme and malicious voters.
    adversaries: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("desk-grid", users=8, items=25, per_user=300, epochs=15,
                 population_seed=42),
        Workload(
            "mid-staged", users=200, items=500, per_user=1000, epochs=2,
            population_seed=None,
            chains=(
                ("minmax", ()),
                ("normalization", ("--contrastive-weight", "1", "--user-embeddings",
                                   "--embedding-l2", "0.0001")),
            ),
        ),
        Workload(
            "crowd-mehestan", users=100, items=60, per_user=50, epochs=15,
            population_seed=42,
            chains=(("mehestan", ("--contrastive-weight", "1")),),
            adversaries=True,
        ),
    )
}


def _population_seed(w: Workload, seed: int) -> int:
    return seed if w.population_seed is None else w.population_seed


def make_inputs(w: Workload, seed: int, inputs: Path) -> None:
    """Write the unit's inputs: a grid config, or simulated comparisons and features."""
    inputs.mkdir(parents=True, exist_ok=True)
    pop_seed = _population_seed(w, seed)
    if not w.chains:
        lines = [f"seed = {pop_seed}", f"users = {w.users}", f"items = {w.items}",
                 f"dim = {DIM}", f"per_user = {w.per_user}", f"epochs = {w.epochs}"]
        lines += [f"experiment = {cell}" for cell in GRID_CELLS]
        (inputs / "grid.cfg").write_text("\n".join(lines) + "\n", encoding="utf-8")
        return
    mix = None
    if w.adversaries:
        tenth = w.users // 10
        mix = {"neutral": w.users - 3 * tenth, "conservative": tenth,
               "extreme": tenth, "malicious": tenth}
    cset, features, _ = generate(SimConfig(
        n_items=w.items, feature_dim=DIM, n_users=w.users,
        comparisons_per_user=w.per_user, archetype_mix=mix, seed=pop_seed,
        criterion=CRITERION,
    ))
    dataset.write_comparisons(cset, inputs / "comparisons.csv")
    dataset.write_features(features, inputs / "features.csv")


def run_unit(w: Workload, seed: int, inputs: Path, out: Path) -> list[int]:
    """Run one unit into the empty directory `out`; returns the exit codes."""
    if not w.chains:
        return [cli.main(["pipeline", "--config", str(inputs / "grid.cfg"), "-o", str(out)])]
    # Module attribute lookups, so that tracing sees these calls.
    cset = dataset.parse_comparisons(inputs / "comparisons.csv")
    train_set, test_set = dataset.split(cset, TRAIN_FRACTION, _population_seed(w, seed))
    dataset.write_comparisons(train_set, out / "train.csv")
    dataset.write_comparisons(test_set, out / "test.csv")
    del cset, train_set, test_set  # the commands read them back from disk
    features = str(inputs / "features.csv")
    codes = []
    for scaler, train_flags in w.chains:
        chain = out / scaler
        codes.append(cli.main([
            "scale", "--input", str(out / "train.csv"), "--scaler", scaler,
            "--criterion", CRITERION, "-o", str(chain / "scale"),
        ]))
        codes.append(cli.main([
            "train", "--input", str(chain / "scale" / "scaled.csv"),
            "--features", features, "--criterion", CRITERION,
            "--epochs", str(w.epochs), "--seed", str(seed), *train_flags,
            "-o", str(chain / "model"),
        ]))
        codes.append(cli.main([
            "audit", "--model", str(chain / "model" / "model.json"),
            "--test", str(out / "test.csv"), "--features", features,
            "--criterion", CRITERION, "-o", str(chain / "audit"),
        ]))
    return codes


def _numbers(value):
    if isinstance(value, dict):
        for v in value.values():
            yield from _numbers(v)
    elif isinstance(value, list):
        for v in value:
            yield from _numbers(v)
    elif isinstance(value, (int, float)):
        yield value


def check(w: Workload, out: Path) -> tuple[list[str], list[dict]]:
    """Problems found in a unit's outputs, and the equity report of each cell.

    The pipeline writes no affines; there `UserAffine` rejects `s <= 0` when
    Mehestan builds it, which the exit-code check catches.
    """
    problems: list[str] = []
    if w.chains:
        report_paths = [out / scaler / "audit" / "report.json" for scaler, _ in w.chains]
        test_path = out / "test.csv"
    else:
        report_paths = [out / f"report_{cell.replace('+', '_')}.json" for cell in GRID_CELLS]
        test_path = out / "data" / "test.csv"
    with test_path.open(newline="", encoding="utf-8") as fh:
        test_users = {row[0] for row in list(csv.reader(fh))[1:] if row}
    reports = []
    for path in report_paths:
        report = json.loads(path.read_text(encoding="utf-8"))
        reports.append(report)
        if not all(math.isfinite(x) for x in _numbers(report)):
            problems.append(f"{path.name}: non-finite metric")
        missing = test_users - set(report["per_user_accuracy"])
        if missing:
            problems.append(f"{path}: test users missing from per_user_accuracy: "
                            f"{sorted(missing)[:5]}")
    for scaler, _ in w.chains:
        if scaler != "mehestan":
            continue
        with (out / scaler / "scale" / "affines.csv").open(newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                s = float(row["s"])
                if not (math.isfinite(s) and s > 0):
                    problems.append(f"affine of user {row['user_id']!r} has s = {s}")
    return problems, reports
