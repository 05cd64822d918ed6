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
from typing import Mapping

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


@dataclass
class IndividualScores:
    """Latent per-item utilities fitted for one user.

    Items the user never compared are absent from `theta` (no information,
    as opposed to a neutral 0). `converged` is False when the iteration cap
    was reached before the gradient norm dropped below tolerance.
    """

    user_id: str
    theta: dict[str, float]
    lam: float
    converged: bool = True
    n_iter: int = 0
    grad_norm: float = 0.0


def expected_comparison(delta: float) -> float:
    """Mean comparison score E[r|delta] = coth(delta) - 1/delta.

    Odd, strictly increasing, |result| < 1. Uses the series
    delta/3 - delta^3/45 for |delta| < 1e-2.
    """
    if not math.isfinite(delta):
        raise ValueError(f"delta must be finite, got {delta}")
    a = abs(delta)
    if a < _SERIES_CUTOFF:
        return delta / 3.0 - delta**3 / 45.0
    val = 1.0 + 2.0 / math.expm1(2.0 * min(a, _EXP_CUTOFF)) - 1.0 / a
    return math.copysign(val, delta)


def _expected_vec(delta: np.ndarray) -> np.ndarray:
    a = np.abs(delta)
    if a.min() >= _SERIES_CUTOFF:
        # The closed form alone: what np.where below picks when no delta is small.
        closed = 1.0 + 2.0 / np.expm1(2.0 * np.minimum(a, _EXP_CUTOFF)) - 1.0 / a
        return np.copysign(closed, delta)
    small = a < _SERIES_CUTOFF
    safe = np.where(small, 1.0, np.minimum(a, _EXP_CUTOFF))
    series = delta / 3.0 - delta**3 / 45.0
    closed = np.copysign(1.0 + 2.0 / np.expm1(2.0 * safe) - 1.0 / np.maximum(a, 1e-300), delta)
    return np.where(small, series, closed)


def _log_partition_vec(delta: np.ndarray) -> np.ndarray:
    """log Z(delta) = log(2*sinh(delta)/delta), even in delta, log 2 at 0."""
    a = np.abs(delta)
    if a.min() >= _SERIES_CUTOFF:
        return a + np.log1p(-np.exp(-2.0 * a)) - np.log(a)
    small = a < _SERIES_CUTOFF
    safe = np.where(small, 1.0, a)
    series = math.log(2.0) + np.log1p(a * a / 6.0 + a**4 / 120.0)
    closed = safe + np.log1p(-np.exp(-2.0 * safe)) - np.log(safe)
    return np.where(small, series, closed)


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
        self.items = list(comparisons.item_ids)
        self.left = comparisons.left
        self.right = comparisons.right
        self.r = comparisons.score
        self.lam = lam
        # Both ends of every comparison, for one bincount in `gradient`.
        self._ends = np.concatenate([self.right, self.left])

    def objective(self, theta: np.ndarray) -> float:
        delta = theta[self.right] - theta[self.left]
        nll = np.sum(_log_partition_vec(delta) - self.r * delta)
        return float(nll + 0.5 * self.lam * np.dot(theta, theta))

    def gradient(self, theta: np.ndarray) -> np.ndarray:
        delta = theta[self.right] - theta[self.left]
        resid = _expected_vec(delta) - self.r
        # Adds resid at right ends, then -resid at left ends, in row order,
        # exactly as two np.add.at calls would.
        grad = np.bincount(
            self._ends, np.concatenate([resid, -resid]), minlength=theta.shape[0]
        )
        grad += self.lam * theta
        return grad


def gbt_objective(
    theta: IndividualScores | Mapping[str, float],
    comparisons: ComparisonSet,
    lam: float,
) -> float:
    """Negative log posterior of `theta` for one user's comparisons."""
    values = theta.theta if isinstance(theta, IndividualScores) else theta
    problem = _Problem(comparisons, lam)
    missing = [item for item in problem.items if item not in values]
    if missing:
        raise ValueError(f"theta missing items: {missing}")
    vec = np.array([values[item] for item in problem.items], dtype=np.float64)
    # The prior covers every theta entry, including items outside the set.
    compared = set(problem.items)
    extra = sum(values[k] ** 2 for k in values if k not in compared)
    return problem.objective(vec) + 0.5 * lam * extra


def gbt_gradient(
    theta: IndividualScores | Mapping[str, float],
    comparisons: ComparisonSet,
    lam: float,
) -> dict[str, float]:
    """Analytic gradient of gbt_objective over the compared items."""
    values = theta.theta if isinstance(theta, IndividualScores) else theta
    problem = _Problem(comparisons, lam)
    missing = [item for item in problem.items if item not in values]
    if missing:
        raise ValueError(f"theta missing items: {missing}")
    vec = np.array([values[item] for item in problem.items], dtype=np.float64)
    grad = problem.gradient(vec)
    return {item: float(g) for item, g in zip(problem.items, grad)}


def fit_gbt(comparisons: ComparisonSet, config: GbtConfig = GbtConfig()) -> IndividualScores:
    """Fit latent scores by full-batch gradient descent with backtracking.

    Deterministic: zero initialization, halve the step while the objective
    fails to decrease, double it after every accepted step. Stops when the
    gradient L2 norm drops below config.tol or after config.max_iter
    iterations (flagged via `converged`).
    """
    problem = _Problem(comparisons, config.lam)
    theta = np.zeros(len(problem.items), dtype=np.float64)
    obj = problem.objective(theta)
    step = 1.0
    n_iter = 0
    grad_norm = math.inf
    converged = False
    for n_iter in range(1, config.max_iter + 1):
        grad = problem.gradient(theta)
        if not np.all(np.isfinite(grad)) or not math.isfinite(obj):
            raise ValueError(
                f"non-finite values in GBT fit for user {problem.user_id!r}; "
                "check lam and input scores"
            )
        grad_norm = math.sqrt(grad.dot(grad))
        if grad_norm <= config.tol:
            converged = True
            break
        # Near the optimum the objective decrease falls below float64
        # resolution while the gradient is still resolvable, so a step that
        # keeps the objective within rounding slack but strictly shrinks the
        # gradient norm also counts as progress.
        slack = 1e-12 * (1.0 + abs(obj))
        accepted = False
        while step >= 1e-300:
            trial = theta - step * grad
            trial_obj = problem.objective(trial)
            if math.isfinite(trial_obj) and trial_obj < obj:
                accepted = True
                break
            if math.isfinite(trial_obj) and trial_obj <= obj + slack:
                trial_grad = problem.gradient(trial)
                trial_norm = math.sqrt(trial_grad.dot(trial_grad))
                if trial_norm < grad_norm:
                    accepted = True
                    break
            step *= 0.5
        if not accepted:
            # Flat to float64 precision in every direction tried.
            break
        theta = trial
        obj = trial_obj
        step *= 2.0
    theta_map = dict(zip(problem.items, theta.tolist()))
    return IndividualScores(
        problem.user_id, theta_map, config.lam, converged, n_iter, grad_norm
    )


def write_individual_scores(scores: list[IndividualScores], path: str | Path) -> None:
    """Export fitted scores as CSV with header user_id,item_id,theta."""
    write_csv(
        path,
        ["user_id", "item_id", "theta"],
        ([s.user_id, item, repr(s.theta[item])] for s in scores for item in sorted(s.theta)),
    )
