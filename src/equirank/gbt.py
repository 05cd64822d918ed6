"""Generalized Bradley-Terry fit of per-item latent scores from one user's comparisons.

The comparison score r in [-1, 1] is modeled with density proportional to
exp(r * delta) on [-1, 1], where delta = theta(right) - theta(left). The
partition function is Z(delta) = 2*sinh(delta)/delta (Z(0) = 2) and the
conditional mean is E[r|delta] = coth(delta) - 1/delta, an odd, strictly
increasing map of delta into (-1, 1). Fitting minimizes the negative log
posterior

    sum_c [log Z(delta_c) - r_c * delta_c] + (lam/2) * sum_i theta_i^2

which is strictly convex for lam > 0, so the fit is unique and the L2 prior
pins the translation gauge near zero. Its Hessian is lam * I plus the graph
Laplacian of the comparisons, each edge weighted by
Var[r|delta] = 1/delta^2 - 1/sinh^2(delta), the derivative of E[r|delta].

Every user of a set is fitted by damped Newton in one lockstep descent: the
users' rows and items are laid end to end once, and each round runs the
elementwise kernels once for all of them. Each user keeps its own step and
stopping rule, solves its own Newton system, and takes exactly the iterates
of fitting it alone. A user that stops keeps its point and a zero
direction, so later rounds give its point back unchanged.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import ComparisonSet, write_table

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
        if not 0 < self.lam < np.inf:
            raise ValueError(f"lam must be positive, got {self.lam}")
        if not 0 < self.tol < np.inf:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")


@dataclass(eq=False)
class GbtFits:
    """Latent per-item utilities fitted for every user of a set.

    Entry k is user `user_ids[user[k]]`'s score `theta[k]` of item
    `item_ids[item[k]]`, entries in user-then-item code order; a user has an
    entry for each item it compared and none for the others (no information,
    as opposed to a neutral 0). Position j of `converged`, `n_iter` and
    `grad_norm` belongs to user `user_ids[j]`: `converged` is False when the
    fit stopped before the gradient norm dropped below tolerance, `n_iter`
    counts the points it took, the zero start included, and `grad_norm` is
    the gradient norm at its theta.
    """

    user_ids: tuple[str, ...]
    item_ids: tuple[str, ...]
    user: np.ndarray
    item: np.ndarray
    theta: np.ndarray
    converged: np.ndarray
    n_iter: np.ndarray
    grad_norm: np.ndarray


def _expected_vec(delta: np.ndarray, a: np.ndarray) -> np.ndarray:
    """E[r|delta] elementwise, given a = |delta|."""
    small = a < _SERIES_CUTOFF
    safe = np.where(small, 1.0, np.minimum(a, _EXP_CUTOFF))
    series = delta / 3.0 - delta**3 / 45.0
    c = np.copysign(1.0 + 2.0 / np.expm1(2.0 * safe) - 1.0 / np.maximum(a, 1e-300), delta)
    return np.where(small, series, c)


def _hessian_vec(a: np.ndarray) -> np.ndarray:
    """Var[r|delta] = 1/delta^2 - 1/sinh^2(delta) elementwise, from a = |delta|;
    1/3 at 0.

    1/sinh^2(a) is evaluated as 4 t / expm1(-2a)^2 with t = exp(-2a), which
    cannot overflow and goes to 0 for large a.
    """
    small = a < _SERIES_CUTOFF
    safe = np.where(small, 1.0, a)
    a2 = np.square(np.minimum(a, _SERIES_CUTOFF))
    series = 1.0 / 3.0 - a2 / 15.0 + a2 * a2 * (2.0 / 189.0)
    inv, x = 1.0 / safe, -2.0 * safe
    m = np.expm1(x)
    return np.where(small, series, inv * inv - 4.0 * np.exp(x) / (m * m))


def _log_partition_vec(a: np.ndarray) -> np.ndarray:
    """log Z(delta) = log(2*sinh(delta)/delta) from a = |delta|; log 2 at 0."""
    small = a < _SERIES_CUTOFF
    safe = np.where(small, 1.0, a)
    series = math.log(2.0) + np.log1p(a * a / 6.0 + a**4 / 120.0)
    c = safe + np.log1p(-np.exp(-2.0 * safe)) - np.log(safe)
    return np.where(small, series, c)


class _Stack:
    """The fitting problems of every user of a set laid end to end, users in
    code order.

    User j, user_ids[j] of the set, owns the rows row_slices[j] of `r` and
    the items item_slices[j] of a stacked theta, its items in code order;
    `items` counts each user's items, and `keys` holds the key
    user * len(item_ids) + item of each stacked item. `ends` holds the
    stacked item of every row's right end, then of every row's left end.
    With a user's n items numbered within the user, `cells[cell_slices[j]]`
    are the flat positions in user j's n x n Newton system of its rows'
    (right, right), then (left, left), (right, left) and (left, right)
    entries, each in row order.
    """

    def __init__(self, comparisons: ComparisonSet):
        order, bounds = comparisons.by_user
        n_items = len(comparisons.item_ids)
        self.user_ids = comparisons.user_ids
        owner = comparisons.user[order]
        base = owner * n_items
        self.keys, ends = np.unique(
            np.concatenate([base + comparisons.right[order], base + comparisons.left[order]]),
            return_inverse=True,
        )
        rows = np.diff(bounds)
        items = np.bincount(self.keys // n_items, minlength=len(comparisons.user_ids))
        self.ends, self.r, self.items = ends, comparisons.score[order], items
        self.row_slices, self.item_slices = _slices(rows), _slices(items)
        self.cell_slices = _slices(4 * rows)
        first = np.repeat(np.cumsum(items) - items, rows)
        n = np.repeat(items, rows)
        right, left = ends.reshape(2, -1) - first
        cells = [right * (n + 1), left * (n + 1), right * n + left, left * n + right]
        self.cells = np.concatenate(cells)[np.argsort(np.tile(owner, 4), kind="stable")]


def _slices(counts: np.ndarray) -> list[slice]:
    bounds = [0, *itertools.accumulate(counts.tolist())]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _objectives(
    stack: _Stack, theta: np.ndarray, lam: float, users: list[int]
) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Each listed user's objective at the stacked theta, with the deltas and
    their absolute values over every row.

    Each user's sum and prior are reductions over its own slices, so every
    objective is the one its fit alone would compute, bit for bit.
    """
    m = stack.r.shape[0]
    ends = theta.take(stack.ends)
    delta = ends[:m] - ends[m:]
    a = np.abs(delta)
    terms = _log_partition_vec(a) - stack.r * delta
    half_lam = 0.5 * lam
    objs = []
    for j in users:
        x = theta[stack.item_slices[j]]
        objs.append(float(np.add.reduce(terms[stack.row_slices[j]]) + half_lam * np.dot(x, x)))
    return delta, a, objs


def _gradient(
    stack: _Stack,
    theta: np.ndarray,
    delta: np.ndarray,
    a: np.ndarray,
    lam: float,
) -> np.ndarray:
    """The stacked gradient at theta; each user's slice is its own gradient."""
    resid = _expected_vec(delta, a) - stack.r
    # Adds resid at right ends, then -resid at left ends, in row order,
    # exactly as two np.add.at calls would.
    grad = np.bincount(stack.ends, np.concatenate([resid, -resid]), minlength=theta.shape[0])
    grad += lam * theta
    return grad


def _newton_directions(
    stack: _Stack, h: np.ndarray, grad: np.ndarray, users: list[int], lam: float
) -> list[np.ndarray]:
    """The Newton direction H_j^-1 grad_j of each listed stacked user j.

    H_j is lam on the diagonal plus the Laplacian of user j's comparisons,
    row c weighted by h[c]. Each user's block is filled on its own by one
    np.bincount over its cells, adding each row's h at (right, right) and
    (left, left), then -h at (right, left) and (left, right), in row order,
    exactly as np.add.at would, and solved before the next is filled. A
    system float64 cannot solve raises ValueError naming the user and lam.
    """
    out = []
    for j in users:
        n = int(stack.items[j])
        w = h[stack.row_slices[j]]
        block = np.bincount(
            stack.cells[stack.cell_slices[j]], np.concatenate([w, w, -w, -w]), minlength=n * n
        )
        block[:: n + 1] += lam
        try:
            out.append(np.linalg.solve(block.reshape(n, n), grad[stack.item_slices[j]]))
        except np.linalg.LinAlgError as exc:
            raise ValueError(
                f"singular Newton system in GBT fit for user {stack.user_ids[j]!r} at lam={lam!r}"
            ) from exc
    return out


def _descend(
    stack: _Stack, config: GbtConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(theta, converged, n_iter, grad_norm) of the stacked users, fitted in
    lockstep: theta stacked as the users' items are, the rest one per user.

    Each round evaluates one point per user: the zero start, then one trial
    of the line search along the user's Newton direction. Every user's
    objective starts at +inf, so the zero start, whose objective is finite
    (log 2 per row, zero prior), is always taken. A user's step,
    objective and gradient norm are its own Python floats, and its Newton
    system is solved on its own, so each user takes the iterates of
    fitting it alone. The stack is never rebuilt: a user that stops keeps
    its point in theta and a zero direction, so every later trial gives its
    point back, and only the users still running are reduced and solved.
    """
    lam, tol, max_iter = config.lam, config.tol, config.max_iter
    slots = stack.item_slices
    n = len(stack.user_ids)
    converged = np.zeros(n, dtype=bool)
    step, obj, norm, n_iter = [1.0] * n, [math.inf] * n, [math.inf] * n, [0] * n
    # The first user, in code order, whose fit met a non-finite value; the
    # users after it are never reached when fitting one user at a time.
    failed = n
    theta = np.zeros(int(stack.items.sum()))
    direction = np.zeros_like(theta)
    running = list(range(n))
    while running:
        trial = theta - np.array(step).repeat(stack.items) * direction
        delta, a, trial_obj = _objectives(stack, trial, lam, running)
        # Every trial's gradient is needed: by the acceptance test, or as the
        # right-hand side of the next Newton system.
        g = _gradient(stack, trial, delta, a, lam)
        going, moved = [], []
        for j, o in zip(running, trial_obj):
            items = slots[j]
            g_j = g[items]
            g_norm = math.sqrt(g_j.dot(g_j))
            # The trial is taken when its objective falls or its gradient
            # norm shrinks: near the optimum float64 no longer resolves the
            # objective's decrease, but still resolves the gradient's.
            if not (o < obj[j] or g_norm < norm[j]):
                step[j] *= 0.5
                # Flat to float64 precision along the Newton direction. A
                # trial equal to theta bit for bit stops at once: rounding is
                # monotone, so every shorter step gives theta again and is
                # refused down to the 1e-300 floor, with the same result.
                if step[j] < 1e-300 or trial[items].tobytes() == theta[items].tobytes():
                    direction[items] = 0.0
                else:
                    going.append(j)
                continue
            n_iter[j] += 1
            # A NaN or inf in the gradient always makes its norm non-finite.
            if not (math.isfinite(g_norm) and math.isfinite(o)) and (
                not math.isfinite(o) or not np.isfinite(g_j).all()
            ):
                # This user and every later one stop where they are.
                failed = j
                direction[items.start :] = 0.0
                break
            theta[items] = trial[items]
            norm[j] = g_norm
            if g_norm <= tol or n_iter[j] == max_iter:
                converged[j] = g_norm <= tol
                direction[items] = 0.0
            else:
                obj[j], step[j] = o, 1.0
                going.append(j)
                moved.append(j)
        if moved:
            h = _hessian_vec(a)
            for j, d in zip(moved, _newton_directions(stack, h, g, moved, lam)):
                direction[slots[j]] = d
        running = going
    if failed < n:
        raise ValueError(
            f"non-finite values in GBT fit for user {stack.user_ids[failed]!r}; "
            "check lam and input scores"
        )
    return theta, converged, np.array(n_iter, dtype=np.intp), np.array(norm)


def fit_users(comparisons: ComparisonSet, config: GbtConfig = GbtConfig()) -> GbtFits:
    """Fit latent scores of every user of the set, each on all its rows, by
    damped Newton with a backtracking line search.

    Deterministic: the zero start is the first point taken (n_iter 1), as
    every user's objective starts at +inf and the zero start's is finite. At
    each point taken, the fit stops when the gradient L2 norm is at most
    config.tol (`converged`) or when config.max_iter points have been taken;
    otherwise it solves H d = grad for the Newton direction d, with H the
    Hessian at that point, and tries theta - step * d from step 1. A trial
    is taken when its objective falls or its gradient norm shrinks (near the
    optimum float64 no longer resolves the objective's decrease, but still
    resolves the gradient's); otherwise the step is halved and, once below
    1e-300 or once a refused trial equals the last point taken bit for bit,
    the fit stops unconverged at that point. Each point's objective,
    gradient and Hessian weights are computed once. A non-finite objective
    or gradient at a point taken raises ValueError, naming the first such
    user in code order.

    The users run in lockstep on one stack built once, each on its own step,
    Newton system and stopping rule, and each takes exactly the iterates of
    fitting it alone. A user that stops keeps its point and a zero
    direction, and only the users still running are reduced and solved.
    Each Newton system is assembled and solved on its own, so one user's
    Hessian block is held at a time.
    """
    stack = _Stack(comparisons)
    n_items = len(comparisons.item_ids)
    return GbtFits(
        comparisons.user_ids, comparisons.item_ids, stack.keys // n_items, stack.keys % n_items,
        *_descend(stack, config),
    )


def write_individual_scores(fits: GbtFits, path: str | Path) -> None:
    """Export fitted scores as CSV with header user_id,item_id,theta, one row
    per entry of `fits`, in user-then-item code order."""
    write_table(path, ["user_id", "item_id", "theta"], [
        (fits.user_ids, fits.user), (fits.item_ids, fits.item), fits.theta,
    ])
