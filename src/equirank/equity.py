"""Per-user evaluation and equity metrics over a 3-class preference problem.

Predicted and true score differences are classified into left / tie / right
with a tie band of +-tie_epsilon (boundary inclusive). Equity is summarized
by the max gap, the population standard deviation, and the Gini coefficient
of the per-user accuracies, plus the Lorenz curve of their cumulative shares.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .dataset import ComparisonSet, write_json, write_table

CLASSES = ("left", "tie", "right")


def classify(value: float, tie_epsilon: float) -> str:
    """left if value < -tie_epsilon, right if value > tie_epsilon, else tie."""
    if not np.isfinite(value):
        raise ValueError(f"value must be finite, got {value}")
    if tie_epsilon < 0:
        raise ValueError(f"tie_epsilon must be >= 0, got {tie_epsilon}")
    if value < -tie_epsilon:
        return "left"
    if value > tie_epsilon:
        return "right"
    return "tie"


@dataclass(frozen=True, eq=False)
class Predictions:
    """Predicted score differences, one per row of `cset`, in row order."""

    cset: ComparisonSet
    diff: np.ndarray

    def __post_init__(self) -> None:
        if self.diff.shape != (len(self.cset),):
            raise ValueError(
                f"{self.diff.shape} predictions for {len(self.cset)} comparisons"
            )

    def __len__(self) -> int:
        return len(self.cset)


def _classes(values: np.ndarray, tie_epsilon: float) -> np.ndarray:
    """classify() over an array, as codes 0 (left), 1 (tie), 2 (right)."""
    if tie_epsilon < 0:
        raise ValueError(f"tie_epsilon must be >= 0, got {tie_epsilon}")
    finite = np.isfinite(values)
    if not finite.all():
        raise ValueError(f"value must be finite, got {values[~finite][0]}")
    return np.where(values < -tie_epsilon, 0, np.where(values > tie_epsilon, 2, 1))


@dataclass
class _Tally:
    """Per-user and per-class counts of classified predictions.

    Users are listed in order of first appearance, as the report's maps are.
    `totals[u, c]` counts user u's comparisons of true class c and `hits[u, c]`
    those predicted correctly.
    """

    users: list[str]
    totals: np.ndarray
    hits: np.ndarray


def _tally(predictions: Predictions, tie_epsilon: float) -> _Tally:
    if not len(predictions):
        raise ValueError("predictions must be non-empty")
    cset = predictions.cset
    order, bounds = cset.by_user
    # A user's first row is the head of its slice; rank users by it.
    by_first = np.argsort(order[bounds[:-1]])
    rank = np.empty_like(by_first)
    rank[by_first] = np.arange(by_first.size)
    users = [cset.user_ids[k] for k in by_first.tolist()]
    codes = rank[cset.user]
    truth_cls = _classes(cset.score, tie_epsilon)
    hit = truth_cls == _classes(predictions.diff, tie_epsilon)
    cell = codes * len(CLASSES) + truth_cls
    shape = (len(users), len(CLASSES))
    size = shape[0] * shape[1]
    return _Tally(
        users,
        np.bincount(cell, minlength=size).reshape(shape),
        np.bincount(cell[hit], minlength=size).reshape(shape),
    )


def _macro_recall(totals: Sequence[int], hits: Sequence[int]) -> float:
    """Unweighted mean of per-class recall over the classes that occur."""
    return float(np.mean([h / t for t, h in zip(totals, hits) if t]))


def per_user_metrics(
    predictions: Predictions, tie_epsilon: float
) -> tuple[dict[str, float], dict[str, float]]:
    """Per-user accuracy and macro recall of classified predictions."""
    return _per_user(_tally(predictions, tie_epsilon))


def _per_user(tally: _Tally) -> tuple[dict[str, float], dict[str, float]]:
    accuracy = {}
    recall = {}
    for user, totals, hits in zip(tally.users, tally.totals.tolist(), tally.hits.tolist()):
        accuracy[user] = sum(hits) / sum(totals)
        recall[user] = _macro_recall(totals, hits)
    return accuracy, recall


def max_gap(values: Mapping[str, float]) -> float:
    """Largest pairwise difference: max_i v_i - min_j v_j."""
    if not values:
        raise ValueError("max_gap of an empty map")
    vals = list(values.values())
    return max(vals) - min(vals)


def std_dev(values: Mapping[str, float]) -> float:
    """Population standard deviation (N denominator)."""
    if not values:
        raise ValueError("std_dev of an empty map")
    return float(np.std(np.array(list(values.values()), dtype=np.float64)))


def gini(values: Mapping[str, float]) -> float:
    """Relative mean absolute difference: sum_{i,j} |v_i - v_j| / (2 N^2 mean).

    Both orders of each pair are counted and the diagonal is zero. Undefined
    (error) when the mean is zero.
    """
    if not values:
        raise ValueError("gini of an empty map")
    v = np.array(list(values.values()), dtype=np.float64)
    mean = v.mean()
    if mean == 0:
        raise ValueError("gini undefined for zero mean")
    diffs = np.abs(v[:, None] - v[None, :]).sum()
    return float(diffs / (2.0 * v.size**2 * mean))


def lorenz_curve(values: Mapping[str, float]) -> list[tuple[float, float]]:
    """Cumulative sorted shares: point k is (k/N, sum of k smallest / total)."""
    if not values:
        raise ValueError("lorenz_curve of an empty map")
    v = np.sort(np.array(list(values.values()), dtype=np.float64))
    total = v.sum()
    if total == 0:
        raise ValueError("lorenz_curve undefined for zero mean")
    cum = np.cumsum(v) / total
    n = v.size
    points = [(0.0, 0.0)]
    points.extend(((k + 1) / n, float(cum[k])) for k in range(n))
    return points


@dataclass
class EquityReport:
    per_user_accuracy: dict[str, float]
    per_user_recall: dict[str, float]
    overall_accuracy: float
    overall_recall: float
    acc_max_gap: float
    acc_std: float
    recall_max_gap: float
    recall_std: float
    gini_accuracy: float
    mean_accuracy: float
    n_users: int
    lorenz: list[tuple[float, float]]

    def to_dict(self) -> dict:
        return {
            "per_user_accuracy": dict(sorted(self.per_user_accuracy.items())),
            "per_user_recall": dict(sorted(self.per_user_recall.items())),
            "overall_accuracy": self.overall_accuracy,
            "overall_recall": self.overall_recall,
            "acc_max_gap": self.acc_max_gap,
            "acc_std": self.acc_std,
            "recall_max_gap": self.recall_max_gap,
            "recall_std": self.recall_std,
            "gini_accuracy": self.gini_accuracy,
            "mean_accuracy": self.mean_accuracy,
            "n_users": self.n_users,
            "lorenz": [[p, s] for p, s in self.lorenz],
        }


def build_report(predictions: Predictions, tie_epsilon: float) -> EquityReport:
    """Assemble the full equity report.

    Overall accuracy pools all comparisons (it is not the mean of per-user
    accuracies, which is reported separately as mean_accuracy).
    """
    tally = _tally(predictions, tie_epsilon)
    accuracy, recall = _per_user(tally)
    totals = tally.totals.sum(axis=0).tolist()
    hits = tally.hits.sum(axis=0).tolist()
    return EquityReport(
        per_user_accuracy=accuracy,
        per_user_recall=recall,
        overall_accuracy=sum(hits) / sum(totals),
        overall_recall=_macro_recall(totals, hits),
        acc_max_gap=max_gap(accuracy),
        acc_std=std_dev(accuracy),
        recall_max_gap=max_gap(recall),
        recall_std=std_dev(recall),
        gini_accuracy=gini(accuracy),
        mean_accuracy=float(np.mean(list(accuracy.values()))),
        n_users=len(accuracy),
        lorenz=lorenz_curve(accuracy),
    )


def write_report(report: EquityReport, path: str | Path) -> None:
    write_json(path, report.to_dict())


def write_lorenz(report: EquityReport, path: str | Path) -> None:
    """Plot-ready CSV: population_fraction,cumulative_share."""
    points = np.array(report.lorenz, dtype=np.float64).reshape(-1, 2)
    write_table(path, ["population_fraction", "cumulative_share"], list(points.T))
