"""Desk-scale pairwise learning-to-rank: linear scorer, loss menu, SGD trainer.

An item's score is (w + offset_u) . x for shared weights w, optional
per-user additive offsets, and precomputed features x. The model is trained
on the difference d = score(right) - score(left) against the comparison
target r with a weighted mix of four losses:

    mse          (d - r)^2
    ranking      max(0, margin - sign(r) * d)        for non-tie targets
    bce          cross-entropy of sigmoid(d) against p = (r + 1) / 2
    contrastive  max(0, margin - |d|)                for non-tie targets

The contrastive hinge pushes predicted differences away from zero so the
model's outputs do not collapse into the tie band. Plain SGD, zero
initialization, and seeded shuffling keep training bitwise reproducible.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dataset import ComparisonSet, FeatureTable
from .equity import Predictions


@dataclass(frozen=True)
class LossWeights:
    mse: float = 0.0
    ranking: float = 0.0
    bce: float = 0.0
    contrastive: float = 0.0

    def __post_init__(self) -> None:
        for name, w in self.as_dict().items():
            if w < 0:
                raise ValueError(f"loss weight {name} must be >= 0, got {w}")
        if not any(w > 0 for w in self.as_dict().values()):
            raise ValueError("at least one loss weight must be positive")

    def as_dict(self) -> dict[str, float]:
        return {
            "mse": self.mse,
            "ranking": self.ranking,
            "bce": self.bce,
            "contrastive": self.contrastive,
        }


@dataclass(frozen=True)
class TrainConfig:
    loss_weights: LossWeights = field(default_factory=lambda: LossWeights(mse=1.0))
    ranking_margin: float = 0.1
    contrastive_margin: float = 0.3
    tie_epsilon: float = 0.05
    learning_rate: float = 0.05
    epochs: int = 50
    batch_size: int = 32
    seed: int = 0
    use_user_embeddings: bool = False
    embedding_l2: float = 0.0

    def __post_init__(self) -> None:
        if not self.ranking_margin > 0:
            raise ValueError("ranking_margin must be positive")
        if not self.contrastive_margin > 0:
            raise ValueError("contrastive_margin must be positive")
        if self.tie_epsilon < 0:
            raise ValueError("tie_epsilon must be >= 0")
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.embedding_l2 < 0:
            raise ValueError("embedding_l2 must be >= 0")


@dataclass
class ModelParams:
    """Shared weight vector plus per-user embedding offsets (empty when disabled)."""

    w: np.ndarray
    user_offsets: dict[str, np.ndarray]

    @property
    def dim(self) -> int:
        return int(self.w.shape[0])

    def effective_weights(self, user_id: str) -> np.ndarray:
        offset = self.user_offsets.get(user_id)
        return self.w if offset is None else self.w + offset


@dataclass
class TrainResult:
    params: ModelParams
    loss_trace: list[float]


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


def _loss_terms(d: np.ndarray, r: np.ndarray, config: TrainConfig) -> np.ndarray:
    """Per-element weighted loss of predicted differences d against targets r.

    Overflow is silenced here and in `_loss_derivative`: a diverging run
    produces non-finite values that the trainer detects and reports as a
    learning-rate problem.
    """
    lw = config.loss_weights
    loss = np.zeros_like(d)
    non_tie = np.abs(r) > config.tie_epsilon
    with np.errstate(over="ignore"):
        if lw.mse > 0:
            loss += lw.mse * (d - r) ** 2
        if lw.ranking > 0:
            margin_gap = config.ranking_margin - np.sign(r) * d
            active = non_tie & (margin_gap > 0)
            loss += lw.ranking * np.where(active, margin_gap, 0.0)
        if lw.bce > 0:
            p = (r + 1.0) / 2.0
            loss += lw.bce * (p * _softplus(-d) + (1.0 - p) * _softplus(d))
        if lw.contrastive > 0:
            margin_gap = config.contrastive_margin - np.abs(d)
            active = non_tie & (margin_gap > 0)
            loss += lw.contrastive * np.where(active, margin_gap, 0.0)
    return loss


def _loss_derivative(d: np.ndarray, r: np.ndarray, config: TrainConfig) -> np.ndarray:
    """Derivative of `_loss_terms` with respect to each d."""
    lw = config.loss_weights
    grad = np.zeros_like(d)
    non_tie = np.abs(r) > config.tie_epsilon
    with np.errstate(over="ignore"):
        if lw.mse > 0:
            grad += lw.mse * 2.0 * (d - r)
        if lw.ranking > 0:
            active = non_tie & (config.ranking_margin - np.sign(r) * d > 0)
            grad += lw.ranking * np.where(active, -np.sign(r), 0.0)
        if lw.bce > 0:
            sigmoid = 1.0 / (1.0 + np.exp(-d))
            grad += lw.bce * (sigmoid - (r + 1.0) / 2.0)
        if lw.contrastive > 0:
            active = non_tie & (config.contrastive_margin - np.abs(d) > 0)
            grad += lw.contrastive * np.where(active, -np.sign(d), 0.0)
    return grad


def _predict(
    w: np.ndarray, offsets: np.ndarray | None, diff: np.ndarray, users: np.ndarray
) -> np.ndarray:
    """Predicted differences (w + offsets[users_i]) . diff_i of every row."""
    d = diff @ w
    if offsets is not None:
        d = d + np.einsum("ij,ij->i", diff, offsets[users])
    return d


def _step_gradient(
    w: np.ndarray,
    offsets: np.ndarray | None,
    diff: np.ndarray,
    r: np.ndarray,
    users: np.ndarray,
    config: TrainConfig,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Gradient of one batch's mean loss plus the embedding L2 penalty.

    Row i of `diff` is x(right_i) - x(left_i), `r` the targets and `users`
    the rows of `offsets` (users x dim, or None without embeddings) that the
    comparisons belong to. Returns the gradient with respect to w and to
    every row of `offsets`; the offsets part is None when `offsets` is.
    """
    grad_d = _loss_derivative(_predict(w, offsets, diff, users), r, config)
    grad_d /= r.size
    grad_w = diff.T @ grad_d
    if offsets is None:
        return grad_w, None
    n_users, dim = offsets.shape
    # One bincount over flat (user, column) cells adds rows in batch order,
    # as `np.add.at(grad_off, users, diff * grad_d[:, None])` does.
    cells = (users[:, None] * dim + np.arange(dim)).ravel()
    grad_off = np.bincount(
        cells, weights=(diff * grad_d[:, None]).ravel(), minlength=n_users * dim
    ).reshape(n_users, dim)
    if config.embedding_l2 > 0:
        grad_off += 2.0 * config.embedding_l2 * offsets
    return grad_w, grad_off


def train(
    train_set: ComparisonSet, features: FeatureTable, config: TrainConfig
) -> TrainResult:
    """Mini-batch SGD from zero initialization; returns params and the
    epoch-end full-set loss trace (index 0 is the pre-training loss).

    Every step moves against `_step_gradient` of its batch.
    """
    n = len(train_set)
    if n == 0:
        raise ValueError("cannot train on an empty comparison set")
    x = features.matrix(train_set.item_ids)
    diff = x[train_set.right] - x[train_set.left]
    r, users = train_set.score, train_set.user
    dim = features.dim
    w = np.zeros(dim, dtype=np.float64)
    offsets = (
        np.zeros((len(train_set.user_ids), dim), dtype=np.float64)
        if config.use_user_embeddings
        else None
    )

    def full_loss() -> float:
        per_element = _loss_terms(_predict(w, offsets, diff, users), r, config)
        penalty = 0.0
        if offsets is not None and config.embedding_l2 > 0:
            penalty = config.embedding_l2 * float(np.sum(offsets * offsets))
        return float(per_element.mean() + penalty)

    trace = [full_loss()]
    rng = np.random.default_rng(config.seed)
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            grad_w, grad_off = _step_gradient(
                w, offsets, diff[idx], r[idx], users[idx], config
            )
            w -= config.learning_rate * grad_w
            if offsets is not None:
                offsets -= config.learning_rate * grad_off
        epoch_loss = full_loss()
        if not math.isfinite(epoch_loss):
            raise ValueError(
                "training loss became non-finite; try a smaller learning_rate"
            )
        trace.append(epoch_loss)
    user_offsets = (
        {u: offsets[i].copy() for i, u in enumerate(train_set.user_ids)}
        if offsets is not None
        else {}
    )
    return TrainResult(ModelParams(w, user_offsets), trace)


def predict_all(
    params: ModelParams, cset: ComparisonSet, features: FeatureTable
) -> Predictions:
    """Predicted difference score(right) - score(left) of every comparison,
    in order; unknown users fall back to the shared weights.

    Each item score is the dot product `np.dot((w + offset_u), x)`
    (`np.vecdot` runs the kernel of `np.dot` row by row), so every difference
    is bitwise the one computed one comparison at a time.
    """
    if features.dim != params.dim:
        raise ValueError(
            f"feature vectors have length {features.dim}, expected {params.dim}"
        )
    x = features.matrix(cset.item_ids)
    weights = np.array(
        [params.effective_weights(u) for u in cset.user_ids], dtype=np.float64
    ).reshape(len(cset.user_ids), params.dim)[cset.user]
    diff = np.vecdot(x[cset.right], weights) - np.vecdot(x[cset.left], weights)
    return Predictions(cset, diff)


def save_model(params: ModelParams, path: str | Path) -> None:
    """JSON document {dim, w, user_offsets} with full-precision floats."""
    doc = {
        "dim": params.dim,
        "w": params.w.tolist(),
        "user_offsets": {u: o.tolist() for u, o in sorted(params.user_offsets.items())},
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def load_model(path: str | Path) -> ModelParams:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    w = np.array(doc["w"], dtype=np.float64)
    if w.shape != (doc["dim"],):
        raise ValueError(f"model dim {doc['dim']} does not match weights {w.shape}")
    offsets = {
        u: np.array(o, dtype=np.float64) for u, o in doc["user_offsets"].items()
    }
    for u, o in offsets.items():
        if o.shape != w.shape:
            raise ValueError(f"offset for user {u!r} has shape {o.shape}")
    return ModelParams(w, offsets)
