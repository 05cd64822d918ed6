"""The dict-based equity report, kept as the reference for `equirank.equity`.

The earlier scalar `classify`; per-user accuracy and macro recall from a
loop over (comparison, predicted difference) pairs, as dicts keyed by user
in order of first appearance; the aggregates over those dicts (`max_gap`,
`std_dev`, `gini`, `lorenz_curve`); and the report that held the dicts.
`equirank.equity.build_report` must give the same `to_dict()`, and
`equirank audit` the bytes `write_audit` writes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from equirank.dataset import parse_comparisons, parse_features
from equirank.ltr import load_model, predict_all
from row_view import rows_of
from writer_oracle import oracle_write_lorenz

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


def pairs_of(predictions):
    """The (Comparison, predicted difference) pairs of `Predictions`, in row order."""
    return list(zip(rows_of(predictions.cset), predictions.diff.tolist()))


def _macro_recall(truth, predicted):
    recalls = []
    for cls in CLASSES:
        total = sum(1 for t in truth if t == cls)
        if total == 0:
            continue
        hit = sum(1 for t, p in zip(truth, predicted) if t == cls and p == cls)
        recalls.append(hit / total)
    return float(np.mean(recalls))


def per_user_metrics(pairs, tie_epsilon):
    """Per-user accuracy and macro recall, users in order of first appearance."""
    by_user = {}
    for comparison, predicted in pairs:
        truths, preds = by_user.setdefault(comparison.user_id, ([], []))
        truths.append(classify(comparison.score, tie_epsilon))
        preds.append(classify(predicted, tie_epsilon))
    accuracy = {}
    recall = {}
    for user, (truths, preds) in by_user.items():
        accuracy[user] = sum(t == p for t, p in zip(truths, preds)) / len(truths)
        recall[user] = _macro_recall(truths, preds)
    return accuracy, recall


def overall(pairs, tie_epsilon):
    """Accuracy and macro recall pooled over all pairs."""
    truth_cls = [classify(c.score, tie_epsilon) for c, _ in pairs]
    pred_cls = [classify(d, tie_epsilon) for _, d in pairs]
    accuracy = sum(t == p for t, p in zip(truth_cls, pred_cls)) / len(truth_cls)
    return accuracy, _macro_recall(truth_cls, pred_cls)


def max_gap(values: Mapping[str, float]) -> float:
    if not values:
        raise ValueError("max_gap of an empty map")
    vals = list(values.values())
    return max(vals) - min(vals)


def std_dev(values: Mapping[str, float]) -> float:
    if not values:
        raise ValueError("std_dev of an empty map")
    return float(np.std(np.array(list(values.values()), dtype=np.float64)))


def gini(values: Mapping[str, float]) -> float:
    if not values:
        raise ValueError("gini of an empty map")
    v = np.array(list(values.values()), dtype=np.float64)
    mean = v.mean()
    if mean == 0:
        raise ValueError("gini undefined for zero mean")
    diffs = np.abs(v[:, None] - v[None, :]).sum()
    return float(diffs / (2.0 * v.size**2 * mean))


def lorenz_curve(values: Mapping[str, float]) -> list[tuple[float, float]]:
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


def build_report(pairs, tie_epsilon) -> EquityReport:
    """The report of (Comparison, predicted difference) pairs. When every
    user's accuracy is 0, the Gini coefficient is 0 and the Lorenz curve the
    line of equality."""
    accuracy, recall = per_user_metrics(pairs, tie_epsilon)
    overall_accuracy, overall_recall = overall(pairs, tie_epsilon)
    n = len(accuracy)
    if any(accuracy.values()):
        gini_accuracy, lorenz = gini(accuracy), lorenz_curve(accuracy)
    else:
        gini_accuracy, lorenz = 0.0, [(k / n, k / n) for k in range(n + 1)]
    return EquityReport(
        per_user_accuracy=accuracy,
        per_user_recall=recall,
        overall_accuracy=overall_accuracy,
        overall_recall=overall_recall,
        acc_max_gap=max_gap(accuracy),
        acc_std=std_dev(accuracy),
        recall_max_gap=max_gap(recall),
        recall_std=std_dev(recall),
        gini_accuracy=gini_accuracy,
        mean_accuracy=float(np.mean(list(accuracy.values()))),
        n_users=n,
        lorenz=lorenz,
    )


def write_audit(model, test, features, outdir, tie_epsilon=0.05):
    """`report.json` and `lorenz.csv` of a model's predictions on a test
    file, as `equirank audit` must write them with the same arguments."""
    predictions = predict_all(load_model(model), parse_comparisons(test), parse_features(features))
    report = build_report(pairs_of(predictions), tie_epsilon)
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    text = json.dumps(report.to_dict(), indent=2) + "\n"
    (outdir / "report.json").write_text(text, encoding="utf-8", newline="\n")
    oracle_write_lorenz(report, outdir / "lorenz.csv")
