"""The ranking model one comparison at a time, and the earlier trainer loop.

The earlier implementations in `equirank.ltr`, kept here as the reference:
the per-comparison `score`, `predict_diff`, `loss` and `loss_gradient` with
their helpers, and the `train` loop over `_Assembled`, renamed
`oracle_train`; the code is otherwise unchanged. `equirank.ltr` computes
the same model on arrays, steps on `ltr._step_gradient`, and must reproduce
`oracle_train` bit for bit. `step_gradient` at the end adapts a
per-comparison batch to `ltr._step_gradient`.
"""

from __future__ import annotations

import math

import numpy as np

from equirank.dataset import Comparison, ComparisonSet, FeatureTable
from equirank.ltr import ModelParams, TrainConfig, TrainResult, _step_gradient


def score(params: ModelParams, user_id: str, x: np.ndarray) -> float:
    """Item score (w + offset_u) . x; unknown users fall back to offset 0."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (params.dim,):
        raise ValueError(f"feature vector has shape {x.shape}, expected ({params.dim},)")
    return float(np.dot(params.effective_weights(user_id), x))


def predict_diff(
    params: ModelParams, user_id: str, x_left: np.ndarray, x_right: np.ndarray
) -> float:
    """score(right) - score(left); positive means the model prefers the right item."""
    return score(params, user_id, x_right) - score(params, user_id, x_left)


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


def _batch_terms(
    d: np.ndarray, r: np.ndarray, config: TrainConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Per-element weighted loss and its derivative with respect to d.

    Overflow is silenced here: a diverging run produces non-finite values
    that the trainer detects and reports as a learning-rate problem.
    """
    lw = config.loss_weights
    loss = np.zeros_like(d)
    grad = np.zeros_like(d)
    non_tie = np.abs(r) > config.tie_epsilon
    with np.errstate(over="ignore"):
        if lw.mse > 0:
            loss += lw.mse * (d - r) ** 2
            grad += lw.mse * 2.0 * (d - r)
        if lw.ranking > 0:
            margin_gap = config.ranking_margin - np.sign(r) * d
            active = non_tie & (margin_gap > 0)
            loss += lw.ranking * np.where(active, margin_gap, 0.0)
            grad += lw.ranking * np.where(active, -np.sign(r), 0.0)
        if lw.bce > 0:
            p = (r + 1.0) / 2.0
            loss += lw.bce * (p * _softplus(-d) + (1.0 - p) * _softplus(d))
            sigmoid = 1.0 / (1.0 + np.exp(-d))
            grad += lw.bce * (sigmoid - p)
        if lw.contrastive > 0:
            margin_gap = config.contrastive_margin - np.abs(d)
            active = non_tie & (margin_gap > 0)
            loss += lw.contrastive * np.where(active, margin_gap, 0.0)
            grad += lw.contrastive * np.where(active, -np.sign(d), 0.0)
    return loss, grad


def _offset_penalty(params: ModelParams, config: TrainConfig) -> float:
    if config.embedding_l2 == 0 or not params.user_offsets:
        return 0.0
    total = sum(float(np.dot(o, o)) for o in params.user_offsets.values())
    return config.embedding_l2 * total


def loss(
    params: ModelParams,
    batch: list[tuple[Comparison, np.ndarray, np.ndarray]],
    config: TrainConfig,
) -> float:
    """Mean weighted loss over the batch plus the embedding L2 penalty."""
    if not batch:
        raise ValueError("loss requires a non-empty batch")
    d = np.array(
        [predict_diff(params, c.user_id, xl, xr) for c, xl, xr in batch],
        dtype=np.float64,
    )
    r = np.array([c.score for c, _, _ in batch], dtype=np.float64)
    per_element, _ = _batch_terms(d, r, config)
    return float(per_element.mean() + _offset_penalty(params, config))


def loss_gradient(
    params: ModelParams,
    batch: list[tuple[Comparison, np.ndarray, np.ndarray]],
    config: TrainConfig,
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Analytic gradient of `loss` with respect to w and every user offset."""
    if not batch:
        raise ValueError("loss_gradient requires a non-empty batch")
    d = np.array(
        [predict_diff(params, c.user_id, xl, xr) for c, xl, xr in batch],
        dtype=np.float64,
    )
    r = np.array([c.score for c, _, _ in batch], dtype=np.float64)
    _, grad_d = _batch_terms(d, r, config)
    grad_d = grad_d / len(batch)
    grad_w = np.zeros(params.dim, dtype=np.float64)
    grad_offsets = {u: np.zeros(params.dim) for u in params.user_offsets}
    for g, (c, xl, xr) in zip(grad_d, batch):
        diff = np.asarray(xr, dtype=np.float64) - np.asarray(xl, dtype=np.float64)
        grad_w += g * diff
        if c.user_id in grad_offsets:
            grad_offsets[c.user_id] += g * diff
    if config.embedding_l2 > 0:
        for u, offset in params.user_offsets.items():
            grad_offsets[u] += 2.0 * config.embedding_l2 * offset
    return grad_w, grad_offsets


class _Assembled:
    """Comparison set compiled to difference-feature matrices for training.

    Row i of `diff` is x(right_i) - x(left_i); `user_idx` holds the set's
    user codes, which index `users` (sorted ids).
    """

    def __init__(self, cset: ComparisonSet, features: FeatureTable):
        x = features.matrix(cset.item_ids)
        self.users = list(cset.user_ids)
        self.diff = x[cset.right] - x[cset.left]
        self.r = cset.score
        self.user_idx = cset.user

    def predict(self, w: np.ndarray, offsets: np.ndarray | None) -> np.ndarray:
        d = self.diff @ w
        if offsets is not None:
            d = d + np.einsum("ij,ij->i", self.diff, offsets[self.user_idx])
        return d


def oracle_train(
    train_set: ComparisonSet, features: FeatureTable, config: TrainConfig
) -> TrainResult:
    """Mini-batch SGD from zero initialization; returns params and the
    epoch-end full-set loss trace (index 0 is the pre-training loss)."""
    data = _Assembled(train_set, features)
    dim = features.dim
    w = np.zeros(dim, dtype=np.float64)
    offsets = (
        np.zeros((len(data.users), dim), dtype=np.float64)
        if config.use_user_embeddings
        else None
    )

    def full_loss() -> float:
        d = data.predict(w, offsets)
        per_element, _ = _batch_terms(d, data.r, config)
        penalty = 0.0
        if offsets is not None and config.embedding_l2 > 0:
            penalty = config.embedding_l2 * float(np.sum(offsets * offsets))
        return float(per_element.mean() + penalty)

    trace = [full_loss()]
    rng = np.random.default_rng(config.seed)
    n = len(train_set)
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            diff = data.diff[idx]
            d = diff @ w
            if offsets is not None:
                d = d + np.einsum("ij,ij->i", diff, offsets[data.user_idx[idx]])
            _, grad_d = _batch_terms(d, data.r[idx], config)
            grad_d /= idx.size
            grad_w = diff.T @ grad_d
            w -= config.learning_rate * grad_w
            if offsets is not None:
                grad_off = np.zeros_like(offsets)
                np.add.at(grad_off, data.user_idx[idx], diff * grad_d[:, None])
                if config.embedding_l2 > 0:
                    grad_off += 2.0 * config.embedding_l2 * offsets
                offsets -= config.learning_rate * grad_off
        epoch_loss = full_loss()
        if not math.isfinite(epoch_loss):
            raise ValueError(
                "training loss became non-finite; try a smaller learning_rate"
            )
        trace.append(epoch_loss)
    user_offsets = (
        {u: offsets[i].copy() for i, u in enumerate(data.users)}
        if offsets is not None
        else {}
    )
    return TrainResult(ModelParams(w, user_offsets), trace)



def step_gradient(
    params: ModelParams,
    batch: list[tuple[Comparison, np.ndarray, np.ndarray]],
    config: TrainConfig,
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """`ltr._step_gradient` on a per-comparison batch, shaped like `loss_gradient`.

    Every user in the batch must have an offset in `params`; the offset rows
    are laid out in sorted user order.
    """
    users = sorted(params.user_offsets)
    offsets = np.array([params.user_offsets[u] for u in users]) if users else None
    diff = np.array([np.asarray(xr, float) - np.asarray(xl, float) for _, xl, xr in batch])
    r = np.array([c.score for c, _, _ in batch], dtype=np.float64)
    rows = np.array([users.index(c.user_id) for c, _, _ in batch], dtype=np.intp)
    grad_w, grad_off = _step_gradient(params.w, offsets, diff, r, rows, config)
    return grad_w, {u: grad_off[k] for k, u in enumerate(users)}
