"""Generalized Bradley-Terry fit of per-item latent scores from one user's comparisons.

The comparison score r in [-1, 1] is modeled with density proportional to
exp(r * delta) on [-1, 1], where delta = theta(right) - theta(left). The
partition function is Z(delta) = 2*sinh(delta)/delta (Z(0) = 2) and the
conditional mean is E[r|delta] = coth(delta) - 1/delta, an odd, strictly
increasing map of delta into (-1, 1). Fitting minimizes the negative log
posterior

    sum_c [log Z(delta_c) - r_c * delta_c] + (lam/2) * sum_i theta_i^2

which is strictly convex for lam > 0, so the fit is unique and the L2 prior
pins the translation gauge near zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import ComparisonSet, write_csv

# Below this |delta| the closed forms 2*sinh(d)/d and coth(d) - 1/d lose
# precision to cancellation; series expansions take over.
_SERIES_CUTOFF = 1e-2
# exp(2a) overflows float64 near a = 355; beyond it the expm1 term is < 1e-304.
_EXP_CUTOFF = 350.0


@dataclass(frozen=True)
class GbtConfig:
    """Solver knobs: L2 prior weight, gradient-norm tolerance, iteration cap."""

    lam: float = 0.1
    tol: float = 1e-8
    max_iter: int = 10000

    def __post_init__(self) -> None:
        if not self.lam > 0:
            raise ValueError(f"lam must be positive, got {self.lam}")
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")


@dataclass(eq=False)
class IndividualScores:
    """Latent per-item utilities fitted for one user.

    `theta[i]` is the score of `item_ids[i]`, the sorted items the user
    compared; items never compared have no entry (no information, as opposed
    to a neutral 0). `converged` is False when the iteration cap was reached
    before the gradient norm dropped below tolerance.
    """

    user_id: str
    item_ids: tuple[str, ...]
    theta: np.ndarray
    lam: float
    converged: bool = True
    n_iter: int = 0
    grad_norm: float = 0.0


def _expected_vec(delta: np.ndarray, a: np.ndarray, closed: bool) -> np.ndarray:
    """E[r|delta] elementwise, given a = |delta| and whether every a >= cutoff."""
    if closed:
        # The closed form alone: what np.where below picks when no delta is small.
        c = 1.0 + 2.0 / np.expm1(2.0 * np.minimum(a, _EXP_CUTOFF)) - 1.0 / a
        return np.copysign(c, delta)
    small = a < _SERIES_CUTOFF
    safe = np.where(small, 1.0, np.minimum(a, _EXP_CUTOFF))
    series = delta / 3.0 - delta**3 / 45.0
    c = np.copysign(1.0 + 2.0 / np.expm1(2.0 * safe) - 1.0 / np.maximum(a, 1e-300), delta)
    return np.where(small, series, c)


def _log_partition_vec(a: np.ndarray, closed: bool) -> np.ndarray:
    """log Z(delta) = log(2*sinh(delta)/delta) from a = |delta|; log 2 at 0."""
    if closed:
        return a + np.log1p(-np.exp(-2.0 * a)) - np.log(a)
    small = a < _SERIES_CUTOFF
    safe = np.where(small, 1.0, a)
    series = math.log(2.0) + np.log1p(a * a / 6.0 + a**4 / 120.0)
    c = safe + np.log1p(-np.exp(-2.0 * safe)) - np.log(safe)
    return np.where(small, series, c)


class _Problem:
    """Index-compiled single-user fitting problem over its compared items."""

    def __init__(self, comparisons: ComparisonSet, lam: float):
        users = comparisons.user_ids
        if len(users) != 1:
            raise ValueError(
                f"expected comparisons restricted to one user, got {list(users)}"
            )
        if len(comparisons) == 0:
            raise ValueError("user has no comparisons")
        self.user_id = users[0]
        # Item codes of the set index its sorted item vocabulary.
        self.items = comparisons.item_ids
        self.left = comparisons.left
        self.right = comparisons.right
        self.r = comparisons.score
        self.lam = lam
        # Both ends of every comparison, for one bincount in `_Point.grad`.
        self._ends = np.concatenate([self.right, self.left])


class _Point:
    """The objective of a `_Problem` at one theta, with its gradient on demand.

    The deltas, their absolute values and the objective are computed once,
    when the point is built; the gradient and its L2 norm on first request,
    and then kept.
    """

    __slots__ = ("problem", "theta", "delta", "abs_delta", "closed", "obj", "_grad", "_norm")

    def __init__(self, problem: _Problem, theta: np.ndarray):
        self.problem = problem
        self.theta = theta
        self.delta = delta = theta[problem.right] - theta[problem.left]
        self.abs_delta = a = np.abs(delta)
        # No |delta| below the cutoff: the closed forms alone apply.
        self.closed = bool(a.min() >= _SERIES_CUTOFF)
        nll = (_log_partition_vec(a, self.closed) - problem.r * delta).sum()
        self.obj = float(nll + 0.5 * problem.lam * np.dot(theta, theta))
        self._grad: np.ndarray | None = None
        self._norm = math.nan

    def _evaluate_gradient(self) -> None:
        p = self.problem
        resid = _expected_vec(self.delta, self.abs_delta, self.closed) - p.r
        # Adds resid at right ends, then -resid at left ends, in row order,
        # exactly as two np.add.at calls would.
        grad = np.bincount(
            p._ends, np.concatenate([resid, -resid]), minlength=self.theta.shape[0]
        )
        grad += p.lam * self.theta
        self._grad = grad
        self._norm = math.sqrt(grad.dot(grad))

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            self._evaluate_gradient()
        return self._grad

    @property
    def grad_norm(self) -> float:
        if self._grad is None:
            self._evaluate_gradient()
        return self._norm


def fit_gbt(comparisons: ComparisonSet, config: GbtConfig = GbtConfig()) -> IndividualScores:
    """Fit latent scores by full-batch gradient descent with backtracking.

    Deterministic: start at zero; try the step theta - step * grad and
    accept it when the objective falls, or when it stays within
    1e-12 * (1 + |obj|) of the current objective and the gradient L2 norm
    shrinks; otherwise halve the step and retry. The step doubles after
    every accepted step. Each point is evaluated once: an accepted trial
    keeps the objective and any gradient computed for it. Stops when the
    gradient norm drops below config.tol (`converged`), when no step down
    to 1e-300 is accepted, or after config.max_iter iterations.
    """
    problem = _Problem(comparisons, config.lam)
    point = _Point(problem, np.zeros(len(problem.items), dtype=np.float64))
    step = 1.0
    n_iter = 0
    grad_norm = math.inf
    converged = False
    for n_iter in range(1, config.max_iter + 1):
        grad = point.grad
        if not np.isfinite(grad).all() or not math.isfinite(point.obj):
            raise ValueError(
                f"non-finite values in GBT fit for user {problem.user_id!r}; "
                "check lam and input scores"
            )
        grad_norm = point.grad_norm
        if grad_norm <= config.tol:
            converged = True
            break
        # Near the optimum the objective decrease falls below float64
        # resolution while the gradient is still resolvable, so a step that
        # keeps the objective within rounding slack but strictly shrinks the
        # gradient norm also counts as progress.
        obj = point.obj
        slack = 1e-12 * (1.0 + abs(obj))
        while step >= 1e-300:
            trial = _Point(problem, point.theta - step * grad)
            if math.isfinite(trial.obj) and (
                trial.obj < obj or (trial.obj <= obj + slack and trial.grad_norm < grad_norm)
            ):
                break
            step *= 0.5
        else:
            # Flat to float64 precision in every direction tried.
            break
        point = trial
        step *= 2.0
    return IndividualScores(
        problem.user_id, problem.items, point.theta, config.lam, converged, n_iter, grad_norm
    )


def write_individual_scores(scores: list[IndividualScores], path: str | Path) -> None:
    """Export fitted scores as CSV with header user_id,item_id,theta, one row
    per (user, item) in the order of `scores` and then of each `item_ids`."""
    write_csv(path, ["user_id", "item_id", "theta"], (
        [s.user_id, item, repr(value)]
        for s in scores for item, value in zip(s.item_ids, s.theta.tolist())
    ))
