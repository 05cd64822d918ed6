"""Byzantine-resilient scalar aggregation: QrMed and BrMean.

QrMed is the quadratically regularized median,

    argmin_m (W/2) * (m - default)^2 + sum_i |x_i - m|,

solved exactly, in closed form, from the piecewise-linear subgradient. The W term
bounds the influence of any single voter by 1/W. BrMean recenters at QrMed
and averages inputs clipped to a +-clip_radius window around it, so one
arbitrary voter moves the result by at most about 2/W + clip_radius/(n+1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class ResilienceParams:
    """Aggregation knobs: larger `weight` resists outliers harder but biases
    toward `default`; `clip_radius` is the half-width of BrMean's clipping
    window."""

    weight: float = 1.0
    default: float = 0.0
    clip_radius: float = 1.0

    def __post_init__(self) -> None:
        if not 0 < self.weight < np.inf:
            raise ValueError(f"weight must be positive, got {self.weight}")
        if not 0 < self.clip_radius < np.inf:
            raise ValueError(f"clip_radius must be positive, got {self.clip_radius}")
        if not np.isfinite(self.default):
            raise ValueError(f"default must be finite, got {self.default}")


def _as_finite_array(values: Sequence[float] | np.ndarray) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        arr = arr.reshape(-1)
    if not np.all(np.isfinite(arr)):
        raise ValueError("non-finite input value")
    return arr


def _qr_med_sorted(xs: np.ndarray, params: ResilienceParams) -> float:
    """QrMed of finite inputs sorted in ascending order."""
    n = xs.size
    if n == 0:
        return params.default
    with np.errstate(over="ignore"):  # a tiny W sends m_k to +-inf, as a float division does
        m = params.default + (n - 2 * np.arange(n + 1)) / params.weight
    k = int(np.argmax(m <= np.append(xs, np.inf)))
    lo = xs[k - 1] if k else -np.inf
    # On a tie Python's max returns m_k, so m_k = -0.0 at lo_k = 0.0 stays -0.0.
    return float(max(m[k], lo))


def qr_med(values: Sequence[float] | np.ndarray, params: ResilienceParams) -> float:
    """Exact quadratically regularized median; `default` on empty input.

    `values` is any float sequence or buffer: a list, an array, or a
    float64 memoryview, which numpy reads without a copy.

    The subgradient W*(m - default) + sum_i sign(m - x_i) is strictly
    increasing in m. With k sorted inputs below m and n-k above, the smooth
    part is stationary at m_k = default + (n - 2k)/W. The zero crossing lies
    in the first gap whose m_k is at most the next input: at m_k when it is
    at least the previous input lo_k, else in the subdifferential at the
    breakpoint lo_k. So the minimizer is max(m_k, lo_k).
    """
    return _qr_med_sorted(np.sort(_as_finite_array(values)), params)


def br_mean(values: Sequence[float] | np.ndarray, params: ResilienceParams) -> float:
    """Clipped mean centered at qr_med; `default` on empty input.

    `values` is taken as by qr_med: a list, an array or a memoryview.

    Result lies within [c - clip_radius, c + clip_radius] for c = qr_med;
    when no input is clipped this reduces exactly to the plain mean.

    The inputs are checked for finiteness and sorted once, for the center;
    the clipped differences are summed in input order. `np.minimum` of
    `np.maximum` is `np.clip` on finite values, and `np.add.reduce(x) / n`
    the sum and division `.mean()` makes, so the bits are those of
    `qr_med`, `np.clip` and `.mean()` composed.
    """
    xs = _as_finite_array(values)
    if xs.size == 0:
        return params.default
    center = _qr_med_sorted(np.sort(xs), params)
    clipped = np.minimum(np.maximum(xs - center, -params.clip_radius), params.clip_radius)
    return float(center + np.add.reduce(clipped) / xs.size)
