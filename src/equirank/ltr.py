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

import contextlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .dataset import ComparisonSet, FeatureTable, _not_utf8, _positions, write_json
from .equity import Predictions


@dataclass(frozen=True)
class LossWeights:
    mse: float = 0.0
    ranking: float = 0.0
    bce: float = 0.0
    contrastive: float = 0.0

    def __post_init__(self) -> None:
        for name, w in vars(self).items():
            if not 0 <= w < np.inf:
                raise ValueError(f"loss weight {name} must be >= 0, got {w}")
        if not any(w > 0 for w in vars(self).values()):
            raise ValueError("at least one loss weight must be positive")


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
        if not 0 < self.ranking_margin < np.inf:
            raise ValueError(f"ranking_margin must be positive, got {self.ranking_margin}")
        if not 0 < self.contrastive_margin < np.inf:
            raise ValueError(f"contrastive_margin must be positive, got {self.contrastive_margin}")
        if not 0 <= self.tie_epsilon < 1:
            raise ValueError(f"tie_epsilon must be in [0, 1), got {self.tie_epsilon}")
        if not 0 < self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0 <= self.embedding_l2 < np.inf:
            raise ValueError(f"embedding_l2 must be >= 0, got {self.embedding_l2}")


@dataclass(eq=False)
class ModelParams:
    """Shared weight vector w plus per-user embedding offsets: row k of the
    (users, dim) `offsets` belongs to `user_ids[k]`; no rows when disabled."""

    w: np.ndarray
    user_ids: tuple[str, ...]
    offsets: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.w.shape[0])


@dataclass
class TrainResult:
    params: ModelParams
    loss_trace: list[float]


class _Rows(NamedTuple):
    """The per-row values of the loss and its derivative that depend only
    on the target r, each None when no loss with a positive weight reads it:

        r                 r                                        mse
        sign              sign(r)                                  ranking
        p                 (r + 1) / 2                              bce
        ranking_pull      where(non_tie, -ranking * sign(r), 0)    ranking
        contrastive_pull  where(non_tie, -contrastive, 0)          contrastive

    with non_tie |r| > tie_epsilon, taken as r > eps or r < -eps. A hinge's
    pull is the term a row adds to the derivative while its hinge is
    active; the step multiplies the contrastive one by sign(d). A pull is
    zero exactly at a tie: a non-tie r is non-zero, and so is a positive
    weight times its sign. So `pull != 0` is the hinge's non-tie mask.
    Rows run along the last axis: a stacked run's values are (k, 1, rows).
    """

    r: np.ndarray | None
    sign: np.ndarray | None
    p: np.ndarray | None
    ranking_pull: np.ndarray | None
    contrastive_pull: np.ndarray | None

    @classmethod
    def of(cls, r: np.ndarray, config: TrainConfig) -> _Rows:
        """The values for `config`'s losses, r itself rather than a copy."""
        lw = config.loss_weights
        sign = p = ranking_pull = contrastive_pull = None
        if lw.ranking > 0 or lw.contrastive > 0:
            non_tie = r > config.tie_epsilon
            non_tie |= r < -config.tie_epsilon
        if lw.ranking > 0:
            sign = np.sign(r)
            ranking_pull = np.where(non_tie, -lw.ranking * sign, 0.0)
        if lw.bce > 0:
            p = r + 1.0
            p /= 2.0
        if lw.contrastive > 0:
            contrastive_pull = np.where(non_tie, -lw.contrastive, 0.0)
        return cls(r if lw.mse > 0 else None, sign, p, ranking_pull, contrastive_pull)

    def take(self, part: np.ndarray) -> _Rows:
        """The values of rows `part`, in its order, along the last axis."""
        return _Rows(*(None if v is None else v.take(part, axis=-1) for v in self))


def _loss_terms(d: np.ndarray, rows: _Rows, config: TrainConfig) -> np.ndarray:
    """Per-element weighted loss of predicted differences d against the
    targets whose `_Rows` are `rows`.

    Overflow warns unless the caller silences it; `train` does, and reports
    the non-finite loss of a diverging run as a learning-rate problem.
    """
    lw = config.loss_weights
    # The first term is the loss itself, not a sum onto zeros: every term is
    # +0 or more, or NaN, so the two give the same bits.
    loss = None
    if lw.mse > 0:
        loss = lw.mse * (d - rows.r) ** 2
    if lw.ranking > 0:
        margin_gap = config.ranking_margin - rows.sign * d
        active = (rows.ranking_pull != 0) & (margin_gap > 0)
        term = lw.ranking * np.where(active, margin_gap, 0.0)
        loss = term if loss is None else np.add(loss, term, out=loss)
    if lw.bce > 0:
        term = lw.bce * (rows.p * np.logaddexp(0.0, -d) + (1.0 - rows.p) * np.logaddexp(0.0, d))
        loss = term if loss is None else np.add(loss, term, out=loss)
    if lw.contrastive > 0:
        margin_gap = config.contrastive_margin - np.abs(d)
        active = (rows.contrastive_pull != 0) & (margin_gap > 0)
        term = lw.contrastive * np.where(active, margin_gap, 0.0)
        loss = term if loss is None else np.add(loss, term, out=loss)
    return loss


# Rows gathered per chunk of an epoch's batches, so that an epoch's per-row
# arrays other than its permutation are bounded by the chunk, not the set.
_CHUNK_ROWS = 2048


def _sgd_step(config: TrainConfig, dim: int, stacked: bool = False) -> Callable[..., None]:
    """The SGD step of one run, its derivative terms chosen once from
    `config`'s positive loss weights.

    `step(w, offsets, diff, rows, cells, start, stop, grad_w, grad_off)`
    reads rows start:stop of the difference rows `diff`, x(right) - x(left),
    of `rows`, their targets' `_Rows`, and, with embeddings, of `cells`,
    each row's dim flat cells in the flat (users x dim) `offsets`. Without
    embeddings `cells` is None, and `offsets` and `grad_off` are unused. The
    step writes the gradient of the batch's mean loss with respect to `w`
    into `grad_w` and, with embeddings, that with respect to every offset
    plus the embedding L2 penalty into `grad_off`. Overflow warns unless the
    caller silences it.

    Both BLAS products, the predicted differences `(w + offset) . diff_i`
    and the `w` gradient `grad . diff`, are `ndarray.dot` calls: they run
    the `cblas_dgemv` that `@` runs, so they give its bits, without the
    gufunc dispatch. The derivative of `_loss_terms` sums the terms in their
    order there, the first one in place of the zeros it was once added to.
    A hinge's `margin - x > 0` is `x < margin`, and a row's term is
    `weight * where(active, -s, 0)`: its pull times sign(d) for the
    contrastive hinge, its pull for the ranking one, added only where
    `x < margin` (`np.add(..., where=)`); a first term is `where(x < margin,
    term, 0)`. Only the sign of a zero can differ from that sum, where it
    added a hinge's -0 (`0 * -weight`): a skipped row adds nothing, a tie
    row's zero pull adds +0 or -0, and a first term holds +0. No step can
    see it: `w` and the offsets start at +0 and only ever have a gradient
    subtracted, so they never hold -0, and subtracting either zero leaves
    them as they are.

    A `stacked` step takes k models at once, each on its own targets over
    the same rows: `w` and `grad_w` are (k, 1, dim), the `_Rows` values are
    (k, 1, rows), `offsets` and `grad_off` are the k models' flat offsets
    one after another, and `cells` is (k, 1, rows, dim), each model's cells
    past the offsets of the models before it. Every value of model c is the
    one the one-model step gives, bit for bit: the loss terms are elementwise,
    the offset row dot is one einsum over the stack, and each BLAS product
    is a `np.matmul` over a broadcast stack, which runs the one-model
    `cblas_dgemv` once per model. Against per-model `ndarray.dot` on 3,000
    random shapes (k 1-4, 1-40 rows, dim 1-8), under one BLAS thread and
    two, the predicted differences `np.matmul(w, db.T)`, the gradients
    `np.matmul(grad, db)` and the einsum "ij,...ij->...i" differed in none;
    one gemm over the stack, `db.dot(W.T)`, differed in 2,609.
    """
    lw = config.loss_weights
    # 0-d arrays, which a ufunc takes without converting a Python number;
    # a full batch's row count too, which divides as the int does.
    mse, bce, ranking_margin, contrastive_margin, l2, full = map(
        np.array, (lw.mse * 2.0, lw.bce, config.ranking_margin, config.contrastive_margin,
                   2.0 * config.embedding_l2, float(config.batch_size)))
    batch_size = config.batch_size

    def step(w, offsets, diff, rows, cells, start, stop, grad_w, grad_off):
        r, sign, p, ranking_pull, contrastive_pull = rows
        db = diff[start:stop]
        d = np.matmul(w, db.T) if stacked else db.dot(w)
        if cells is not None:
            cb = cells[..., start:stop, :]
            d += np.einsum("ij,...ij->...i", db, offsets.take(cb))
        grad = None
        if mse:
            grad = d - r[..., start:stop]
            grad *= mse
        if ranking_pull is not None:
            active = sign[..., start:stop] * d < ranking_margin
            if grad is None:
                grad = np.where(active, ranking_pull[..., start:stop], 0.0)
            else:
                np.add(grad, ranking_pull[..., start:stop], out=grad, where=active)
        if bce:
            term = (1.0 / (1.0 + np.exp(-d)) - p[..., start:stop]) * bce
            grad = term if grad is None else np.add(grad, term, out=grad)
        if contrastive_pull is not None:
            active = np.abs(d) < contrastive_margin
            term = np.sign(d)
            term *= contrastive_pull[..., start:stop]
            if grad is None:
                grad = np.where(active, term, 0.0)
            else:
                np.add(grad, term, out=grad, where=active)
        grad /= full if len(db) == batch_size else len(db)
        if stacked:
            np.matmul(grad, db, out=grad_w)
        else:
            grad.dot(db, out=grad_w)
        if cells is not None:
            # One bincount over the flat cells adds rows in batch order, as
            # `np.add.at(grad_off, users, diff * grad[:, None])` does, each
            # cell's product diff_ij * grad_i taken from the flat rows; the
            # L2 term is added to that sum, as the earlier trainer did.
            products = (db * grad[..., None]).ravel() if stacked else db.ravel() * grad.repeat(dim)
            sums = np.bincount(cb.ravel(), weights=products, minlength=grad_off.size)
            if l2:
                np.multiply(offsets, l2, out=grad_off)
                np.add(sums, grad_off, out=grad_off)
            else:
                grad_off[...] = sums

    return step


def train(
    train_set: ComparisonSet, features: FeatureTable, config: TrainConfig, *,
    targets: Sequence[np.ndarray] | None = None,
) -> TrainResult | list[TrainResult]:
    """Mini-batch SGD from zero initialization; returns params and the
    epoch-end full-set loss trace (index 0 is the pre-training loss).

    With `targets`, k score columns as long as the set, it trains k models
    in one lockstep run, model c on the set's rows with `targets[c]` as
    their scores, and returns the k results in order; targets that are not
    one or more such columns, or hold a score outside [-1, 1], raise
    ValueError. The models share the difference rows, the permutation of
    each epoch and so every batch, and each is bit for bit the model and
    trace of a run on `train_set.with_scores(targets[c])`. `_sgd_step`
    gives the stacked forms that keep its bits; at epoch end,
    `np.matmul(w, diff.T)` gave the bits of each model's `diff.dot(w)` on
    60 random sets of up to 160,000 rows, and `np.add.reduce(x, axis=-1)`
    over the C-contiguous (k, 1, rows) loss those of each model's 1-D
    reduce. The one-model run is the k = 1 case without the stack axes.

    `w` and, with embeddings, the (users x dim) offsets are one flat
    vector, the k models' weights and then their offsets, and the step
    writes every gradient into one buffer of the same shape, so each batch
    is one call of the step `_sgd_step` builds for the run, one `*= lr` and
    one `-=`. Each epoch walks its shuffled order in chunks of whole
    batches, `_CHUNK_ROWS` rows or one batch, whichever is more. The step
    and the epoch-end loss read one `_Rows` of the stored targets, built
    once per run. A chunk gathers its difference rows, its rows of that
    table (`_Rows.take`) and, with embeddings, its rows' flat offset cells,
    user code times dim plus the columns; a batch is a slice start:stop of
    these. The epoch-end loss takes each model's mean as
    `np.add.reduce(x, axis=-1) / n`, the sum and division `.mean()` makes,
    and its penalty as the sum over that model's offsets. One
    `np.errstate` silences overflow and invalid values around every loss
    and step; a diverging run's non-finite loss, that of any model of the
    stack, raises ValueError.

    Every gather is a `take` on integer indices (the gather rule of
    `equirank.dataset`): 2,048 difference rows of a 160,000-row set take
    about 3 us against 25 us by indexing, and `x[right] - x[left]` at
    160,000 rows 0.93 ms against 4.22 ms. The difference rows are built,
    and the epoch-end loss adds its offset term `sum(diff * offset_u)`,
    per `_CHUNK_ROWS` block, so each of their gathers, and each copy `take`
    makes of a read-only slice of the set's columns, is of one block.

    Memory: nothing of size rows x dim is kept but the difference rows; the
    per-row arrays of an epoch are its permutation and its chunk's, freed
    before the epoch-end loss, whose temporaries are larger. A batch's
    views die with its step.
    """
    n = len(train_set)
    if n == 0:
        raise ValueError("cannot train on an empty comparison set")
    stacked = targets is not None
    if stacked:
        r = np.array(targets, dtype=np.float64)
        if r.ndim != 2 or r.shape[0] == 0 or r.shape[1] != n:
            raise ValueError(f"targets must be one or more score columns of {n} rows")
        if not (np.abs(r) <= 1.0).all():
            raise ValueError("targets must be finite scores in [-1, 1]")
        k = r.shape[0]
        r = r.reshape(k, 1, n)
    else:
        r, k = train_set.score, 1
    # The stack axes of each model's values: (k, 1), so that a model's
    # weights are a (1, dim) row of the products; none for one model.
    lead = (k, 1) if stacked else ()
    x = features.matrix(train_set.item_ids)
    users = train_set.user
    dim = features.dim
    blocks = [slice(lo, lo + _CHUNK_ROWS) for lo in range(0, n, _CHUNK_ROWS)]
    diff = np.empty((n, dim))
    for block in blocks:
        np.subtract(x.take(train_set.right[block], axis=0),
                    x.take(train_set.left[block], axis=0), out=diff[block])
    n_users = len(train_set.user_ids) if config.use_user_embeddings else 0
    params = np.zeros(k * dim * (1 + n_users), dtype=np.float64)
    grad = np.empty_like(params)
    w, offsets = params[:k * dim].reshape(*lead, dim), params[k * dim:]
    table = offsets.reshape(*lead, n_users, dim)
    grad_w, grad_off = grad[:k * dim].reshape(*lead, dim), grad[k * dim:]
    rows = _Rows.of(r, config)

    def full_loss() -> list[float]:
        d = np.matmul(w, diff.T) if stacked else diff.dot(w)
        if n_users:
            for block in blocks:
                d[..., block] += np.einsum("ij,...ij->...i", diff[block],
                                           table.take(users[block], axis=-2))
        per_element = _loss_terms(d, rows, config)
        penalty = 0.0
        if n_users and config.embedding_l2 > 0:
            penalty = config.embedding_l2 * np.sum(table * table, axis=(-2, -1))
        return np.ravel(np.add.reduce(per_element, axis=-1) / n + penalty).tolist()

    rng = np.random.default_rng(config.seed)
    # lr is a 0-d array, as `_sgd_step`'s scalars are.
    size, lr = config.batch_size, np.array(config.learning_rate)
    chunk = size * max(1, _CHUNK_ROWS // size)
    step = _sgd_step(config, dim, stacked)
    # A row's cells are its user code times dim plus these, which put model
    # c's cells past the n_users * dim offsets of each model before it.
    columns = np.arange(dim) + (n_users * dim * np.arange(k)).reshape(*lead, 1, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        trace = [full_loss()]
        for _ in range(config.epochs):
            order = rng.permutation(n)
            for lo in range(0, n, chunk):
                part = order[lo:lo + chunk]
                diff_c, rows_c, cells = diff.take(part, axis=0), rows.take(part), None
                if n_users:
                    cells = users.take(part)
                    cells *= dim
                    cells = cells[:, None] + columns
                for start in range(0, len(part), size):
                    step(w, offsets, diff_c, rows_c, cells, start, start + size, grad_w,
                         grad_off)
                    grad *= lr
                    params -= grad
            # Freed before the epoch-end loss, whose temporaries are larger.
            del order, part, diff_c, rows_c, cells
            epoch_loss = full_loss()
            if not all(map(math.isfinite, epoch_loss)):
                raise ValueError("training loss became non-finite; try a smaller learning_rate")
            trace.append(epoch_loss)
    user_ids = train_set.user_ids if n_users else ()
    w, table = w.reshape(k, dim), table.reshape(k, n_users, dim)
    results = [TrainResult(ModelParams(w[c], user_ids, table[c]), list(losses))
               for c, losses in enumerate(zip(*trace))]
    return results if stacked else results[0]


class PredictionOverflow(ValueError):
    """Predicted differences that overflow float64: the model's weights are
    too large."""


def predict_all(
    params: ModelParams, cset: ComparisonSet, features: FeatureTable
) -> Predictions:
    """Predicted difference score(right) - score(left) of every comparison,
    in order; unknown users fall back to the shared weights.

    Each item score is the dot product `np.dot((w + offset_u), x)`
    (`np.vecdot` runs the kernel of `np.dot` row by row), so every difference
    is bitwise the one computed one comparison at a time. The rows are
    gathered per `_CHUNK_ROWS` block, as `train` builds its difference rows.
    A difference that is not finite overflowed float64 and raises
    PredictionOverflow.
    """
    if features.dim != params.dim:
        raise ValueError(
            f"feature vectors have length {features.dim}, expected {params.dim}"
        )
    x = features.matrix(cset.item_ids)
    rows = _positions(params.user_ids, cset.user_ids, len(params.user_ids))
    diff = np.empty(len(cset))
    with np.errstate(over="ignore", invalid="ignore"):
        # Row k of the stack is the model's user k's w + offset, and the last
        # row, w alone, serves unknown users; gathered by `rows`, row k holds
        # the weights of the set's user code k.
        table = np.vstack([params.w + params.offsets, params.w]).take(rows, axis=0)
        for lo in range(0, len(cset), _CHUNK_ROWS):
            block = slice(lo, lo + _CHUNK_ROWS)
            weights = table.take(cset.user[block], axis=0)
            np.subtract(np.vecdot(x.take(cset.right[block], axis=0), weights),
                        np.vecdot(x.take(cset.left[block], axis=0), weights), out=diff[block])
    if not np.isfinite(diff).all():
        raise PredictionOverflow(
            "predicted differences overflow float64; the model weights are too large"
        )
    return Predictions(cset, diff)


def save_model(params: ModelParams, path: str | Path) -> None:
    """JSON document {dim, w, user_offsets} with full-precision floats."""
    doc = {
        "dim": params.dim,
        "w": params.w.tolist(),
        "user_offsets": dict(sorted(zip(params.user_ids, params.offsets.tolist()))),
    }
    write_json(path, doc)


def _vector(path: Path, name: str, value: object) -> np.ndarray:
    """A JSON array of numbers as a float64 vector."""
    if not isinstance(value, list) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in value
    ):
        raise ValueError(f"{path}: {name} is not an array of numbers")
    with contextlib.suppress(OverflowError):  # an integer beyond the float range
        vec = np.array(value, dtype=np.float64)
        if np.isfinite(vec).all():
            return vec
    raise ValueError(f"{path}: {name} holds a number that is not finite")


def load_model(path: str | Path) -> ModelParams:
    """Read a `save_model` document; raises ValueError naming the file when
    it is not UTF-8 (and the line), not JSON Python can read, or not a JSON
    object whose `dim` is a positive integer, `w` an array of `dim` finite
    numbers and `user_offsets` an object of such arrays."""
    path = Path(path)
    data = path.read_bytes()
    try:
        doc = json.loads(data.decode())
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, data, exc.start) from None
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: model is not a JSON object")
    for key, kind, name in [("dim", int, "an integer"), ("w", list, "an array"),
                            ("user_offsets", dict, "an object")]:
        if key not in doc:
            raise ValueError(f"{path}: model has no {key!r}")
        if not isinstance(doc[key], kind) or isinstance(doc[key], bool):
            raise ValueError(f"{path}: {key!r} is not {name}")
    if doc["dim"] < 1:
        raise ValueError(f"{path}: model dim {doc['dim']} is not positive")
    w = _vector(path, "w", doc["w"])
    if w.shape != (doc["dim"],):
        raise ValueError(f"{path}: model dim {doc['dim']} does not match weights {w.shape}")
    users = tuple(doc["user_offsets"])
    offsets = [_vector(path, f"offset for user {u!r}", o) for u, o in doc["user_offsets"].items()]
    for u, o in zip(users, offsets):
        if o.shape != w.shape:
            raise ValueError(f"{path}: offset for user {u!r} has shape {o.shape}")
    return ModelParams(w, users, np.array(offsets).reshape(len(users), w.shape[0]))
