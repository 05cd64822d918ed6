"""Per-user evaluation and equity metrics over a 3-class preference problem.

Predicted and true score differences are classified into left / tie / right
with a tie band of +-tie_epsilon (boundary inclusive). The report lists the
users in order of first appearance, with each one's accuracy and macro recall
in id-aligned arrays. Equity is summarized by the max gap, the population
standard deviation, and the Gini coefficient of the per-user accuracies, plus
the Lorenz curve of their cumulative shares.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import ComparisonSet, write_json, write_table

CLASSES = ("left", "tie", "right")


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
    """Codes 0 (left) below -tie_epsilon, 2 (right) above tie_epsilon, else 1 (tie)."""
    if not 0 <= tie_epsilon < 1:
        raise ValueError(f"tie_epsilon must be in [0, 1), got {tie_epsilon}")
    finite = np.isfinite(values)
    if not finite.all():
        raise ValueError(f"value must be finite, got {values[~finite][0]}")
    return np.where(values < -tie_epsilon, 0, np.where(values > tie_epsilon, 2, 1))


def _tally(
    predictions: Predictions, tie_epsilon: float
) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """Users in order of first appearance, and their counts of classified
    predictions: `totals[u, c]` counts user u's comparisons of true class c
    and `hits[u, c]` those predicted correctly."""
    if not len(predictions):
        raise ValueError("predictions must be non-empty")
    cset = predictions.cset
    order, bounds = cset.by_user
    # A user's first row is the head of its slice; rank users by it.
    by_first = np.argsort(order[bounds[:-1]])
    rank = np.empty_like(by_first)
    rank[by_first] = np.arange(by_first.size)
    truth = _classes(cset.score, tie_epsilon)
    hit = truth == _classes(predictions.diff, tie_epsilon)
    cell = rank[cset.user] * len(CLASSES) + truth
    shape = (by_first.size, len(CLASSES))
    size = shape[0] * shape[1]
    return (
        tuple(map(cset.user_ids.__getitem__, by_first.tolist())),
        np.bincount(cell, minlength=size).reshape(shape),
        np.bincount(cell.compress(hit), minlength=size).reshape(shape),
    )


def _rates(totals: np.ndarray, hits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Accuracy and macro recall of class counts (last axis): macro recall is
    the unweighted mean of per-class recall over the classes that occur."""
    occurs = totals > 0
    recall = np.divide(hits, totals, out=np.zeros(totals.shape), where=occurs)
    return hits.sum(-1) / totals.sum(-1), recall.sum(-1) / occurs.sum(-1)


def max_gap(values: np.ndarray) -> float:
    """Largest pairwise difference: max_i v_i - min_j v_j."""
    if not values.size:
        raise ValueError("max_gap of an empty array")
    return float(values.max() - values.min())


def std_dev(values: np.ndarray) -> float:
    """Population standard deviation (N denominator)."""
    if not values.size:
        raise ValueError("std_dev of an empty array")
    return float(np.std(values))


def gini(values: np.ndarray) -> float:
    """Relative mean absolute difference: sum_{i,j} |v_i - v_j| / (2 N^2 mean).

    Both orders of each pair are counted and the diagonal is zero. Undefined
    (error) when the mean is zero.
    """
    if not values.size:
        raise ValueError("gini of an empty array")
    mean = values.mean()
    if mean == 0:
        raise ValueError("gini undefined for zero mean")
    diffs = np.abs(values[:, None] - values[None, :]).sum()
    return float(diffs / (2.0 * values.size**2 * mean))


def lorenz_curve(values: np.ndarray) -> np.ndarray:
    """Cumulative sorted shares, (N + 1, 2): row k is (k/N, sum of the k
    smallest / total)."""
    if not values.size:
        raise ValueError("lorenz_curve of an empty array")
    v = np.sort(values)
    total = v.sum()
    if total == 0:
        raise ValueError("lorenz_curve undefined for zero mean")
    points = np.zeros((v.size + 1, 2))
    points[1:, 0] = np.arange(1, v.size + 1) / v.size
    points[1:, 1] = np.cumsum(v) / total
    return points


@dataclass(frozen=True, eq=False)
class EquityReport:
    """Per-user accuracy and macro recall, pooled figures and equity aggregates.

    Position k of `accuracy` and `recall` belongs to user `user_ids[k]`, users
    in order of first appearance in the predictions. `lorenz` holds the
    Lorenz curve of the accuracies as `lorenz_curve` returns it.
    """

    user_ids: tuple[str, ...]
    accuracy: np.ndarray
    recall: np.ndarray
    overall_accuracy: float
    overall_recall: float
    acc_max_gap: float
    acc_std: float
    recall_max_gap: float
    recall_std: float
    gini_accuracy: float
    mean_accuracy: float
    lorenz: np.ndarray

    @property
    def n_users(self) -> int:
        return len(self.user_ids)

    def to_dict(self) -> dict:
        """The report as `report.json` holds it, per-user maps sorted by user id."""
        return {
            "per_user_accuracy": dict(sorted(zip(self.user_ids, self.accuracy.tolist()))),
            "per_user_recall": dict(sorted(zip(self.user_ids, self.recall.tolist()))),
            "overall_accuracy": self.overall_accuracy,
            "overall_recall": self.overall_recall,
            "acc_max_gap": self.acc_max_gap,
            "acc_std": self.acc_std,
            "recall_max_gap": self.recall_max_gap,
            "recall_std": self.recall_std,
            "gini_accuracy": self.gini_accuracy,
            "mean_accuracy": self.mean_accuracy,
            "n_users": self.n_users,
            "lorenz": self.lorenz.tolist(),
        }


def build_report(predictions: Predictions, tie_epsilon: float) -> EquityReport:
    """Assemble the full equity report.

    Overall accuracy pools all comparisons (it is not the mean of per-user
    accuracies, which is reported separately as mean_accuracy). When every
    user's accuracy is 0, all are served equally: the report gives a Gini
    coefficient of 0 and the line of equality as the Lorenz curve, where
    `gini` and `lorenz_curve` refuse the zero mean.
    """
    user_ids, totals, hits = _tally(predictions, tie_epsilon)
    accuracy, recall = _rates(totals, hits)
    overall_accuracy, overall_recall = _rates(totals.sum(0), hits.sum(0))
    equal = not accuracy.any()
    return EquityReport(
        user_ids=user_ids,
        accuracy=accuracy,
        recall=recall,
        overall_accuracy=float(overall_accuracy),
        overall_recall=float(overall_recall),
        acc_max_gap=max_gap(accuracy),
        acc_std=std_dev(accuracy),
        recall_max_gap=max_gap(recall),
        recall_std=std_dev(recall),
        gini_accuracy=0.0 if equal else gini(accuracy),
        mean_accuracy=float(accuracy.mean()),
        # The Lorenz curve of any constant is the line of equality.
        lorenz=lorenz_curve(np.ones_like(accuracy) if equal else accuracy),
    )


def write_report(report: EquityReport, path: str | Path) -> None:
    write_json(path, report.to_dict())


def write_lorenz(report: EquityReport, path: str | Path) -> None:
    """Plot-ready CSV: population_fraction,cumulative_share."""
    write_table(path, ["population_fraction", "cumulative_share"], list(report.lorenz.T))
