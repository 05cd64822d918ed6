"""The GBT link, objective and gradient keyed by item name, one value at a time.

The earlier public helpers of `equirank.gbt`, kept here as the reference:
the scalar link `expected_comparison` and the dict-keyed `gbt_objective` and
`gbt_gradient` with their helper `_point_of`. The code is unchanged, except
that `_point_of` reads the fits of a one-user set through `by_item`, which
keys a user's fitted `theta` entries by item id, and that the objective and gradient
come from the fit's stacked kernel through `kernel_point`. A fit runs
`gbt._expected_vec`, `gbt._objectives` and `gbt._gradient`; the tests hold
those to these. The acceptance suite draws its noise-free comparison scores
from `expected_comparison`.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from equirank.dataset import ComparisonSet
from equirank.gbt import (
    _EXP_CUTOFF, _SERIES_CUTOFF, GbtFits, _gradient, _objectives, _Stack,
)


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


def by_item(fits: GbtFits, user_id: str | None = None) -> dict[str, float]:
    """The fitted scores of `user_id` (the only user when None) keyed by item."""
    k = 0 if user_id is None else fits.user_ids.index(user_id)
    own = fits.user == k
    items = [fits.item_ids[i] for i in fits.item[own].tolist()]
    return dict(zip(items, fits.theta[own].tolist()))


def kernel_point(comparisons: ComparisonSet, lam: float, theta) -> tuple[float, np.ndarray]:
    """The objective and gradient a fit computes at `theta`, over the sorted
    items of a one-user set."""
    stack = _Stack(comparisons)
    theta = np.asarray(theta, dtype=np.float64)
    delta, a, (obj,) = _objectives(stack, theta, lam, [0])
    return obj, _gradient(stack, theta, delta, a, lam)


def _point_of(
    theta: GbtFits | Mapping[str, float], comparisons: ComparisonSet, lam: float
) -> tuple[float, np.ndarray, Mapping[str, float]]:
    """The objective and gradient at the compared items' entries of `theta`,
    and all of `theta`."""
    if isinstance(theta, GbtFits):
        values = by_item(theta)
    else:
        values = theta
    if len(comparisons.user_ids) != 1:
        raise ValueError(
            f"expected comparisons restricted to one user, got {list(comparisons.user_ids)}"
        )
    missing = [item for item in comparisons.item_ids if item not in values]
    if missing:
        raise ValueError(f"theta missing items: {missing}")
    vec = np.array([values[item] for item in comparisons.item_ids], dtype=np.float64)
    return *kernel_point(comparisons, lam, vec), values


def gbt_objective(
    theta: GbtFits | Mapping[str, float],
    comparisons: ComparisonSet,
    lam: float,
) -> float:
    """Negative log posterior of `theta` for one user's comparisons."""
    obj, _, values = _point_of(theta, comparisons, lam)
    # The prior covers every theta entry, including items outside the set.
    compared = set(comparisons.item_ids)
    extra = sum(values[k] ** 2 for k in values if k not in compared)
    return obj + 0.5 * lam * extra


def gbt_gradient(
    theta: GbtFits | Mapping[str, float],
    comparisons: ComparisonSet,
    lam: float,
) -> dict[str, float]:
    """Analytic gradient of gbt_objective over the compared items."""
    _, grad, _ = _point_of(theta, comparisons, lam)
    return {item: float(g) for item, g in zip(comparisons.item_ids, grad)}
