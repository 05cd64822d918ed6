"""Per-user score scalers: min-max, normalization, and Mehestan-style rescaling.

Min-max and normalization act on each user's raw comparison scores in
isolation. Mehestan is collaborative: every user's latent (GBT-fitted)
scores are put on a common affine scale using robust aggregation over the
other users' scores, then the rescaled score differences become the new
comparison targets. The final global aggregation into one ranking is
deliberately not performed; all scores stay per-user.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .dataset import (
    COMPARISONS_HEADER,
    Columns,
    Comparison,
    ComparisonSet,
    group_rows,
    read_columns,
    write_columns,
    write_csv,
)
from .gbt import GbtConfig, IndividualScores, fit_gbt
from .robust import ResilienceParams, br_mean

SCALER_TAGS = ("minmax", "normalization", "mehestan", "none")


class ScaledComparisonSet(ComparisonSet):
    """A ComparisonSet whose scores were rewritten by a named scaler."""

    def __init__(
        self,
        comparisons: Iterable[Comparison] = (),
        scaler_tag: str = "none",
        *,
        columns: Columns | None = None,
    ):
        super().__init__(comparisons, columns=columns)
        if scaler_tag not in SCALER_TAGS:
            raise ValueError(
                f"scaler_tag must be one of {SCALER_TAGS}, got {scaler_tag!r}"
            )
        self.scaler_tag = scaler_tag


@dataclass(frozen=True)
class UserAffine:
    """Multiplicative scale and translation applied to one user's latent scores."""

    user_id: str
    s: float
    tau: float

    def __post_init__(self) -> None:
        if not self.s > 0:
            raise ValueError(f"scale must be positive, got {self.s}")


def _replace_scores(
    cset: ComparisonSet, new_scores: np.ndarray, tag: str
) -> ScaledComparisonSet:
    return ScaledComparisonSet(columns=cset.columns._replace(score=new_scores), scaler_tag=tag)


def _user_criterion_groups(cset: ComparisonSet) -> tuple[np.ndarray, np.ndarray]:
    """(order, bounds) grouping rows by (user, criterion), input order inside."""
    n_criteria = len(cset.criterion_ids)
    if n_criteria <= 1:
        return cset.by_user
    key = cset.user * n_criteria + cset.criterion
    return group_rows(key, len(cset.user_ids) * n_criteria)


def _scale_groups(cset: ComparisonSet, scale_one) -> np.ndarray:
    """New scores: scale_one(scores of one (user, criterion) group) per group.

    Each group's scores are contiguous and in input order, as indexing the
    group's rows would give, so the arithmetic matches a per-group loop exactly.
    """
    order, bounds = _user_criterion_groups(cset)
    grouped = cset.score[order]
    out = np.zeros_like(grouped)
    for start, end in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        if end > start:
            out[start:end] = scale_one(grouped[start:end])
    scores = np.empty_like(out)
    scores[order] = out
    return scores


def _minmax_one(vals: np.ndarray) -> np.ndarray | float:
    lo, hi = vals.min(), vals.max()
    if hi > lo:
        return 2.0 * (vals - lo) / (hi - lo) - 1.0
    return 0.0


def minmax_scale(cset: ComparisonSet) -> ScaledComparisonSet:
    """Affinely map each user's scores onto [-1, 1] (per criterion).

    Degenerate users whose scores are all equal map to 0.
    """
    return _replace_scores(cset, _scale_groups(cset, _minmax_one), "minmax")


def _normalization_one(vals: np.ndarray) -> np.ndarray | float:
    lo, hi = vals.min(), vals.max()
    # Degeneracy is a range check, not std == 0: the float mean of a
    # constant list is not exact, which would leave std ~ 1e-17 and blow
    # the z-scores up to +-1.
    if hi > lo:
        unit = (vals - lo) / (hi - lo)
        centered = unit - unit.mean()
        centered -= centered.mean()
        return centered / np.abs(centered).max()
    return 0.0


def normalization_scale(cset: ComparisonSet) -> ScaledComparisonSet:
    """Standardize each user's scores (population std), then shrink into [-1, 1].

    Z-scoring and then dividing by max|z| is algebraically centered / max
    |centered|, so the std cancels out of the result, and the result is
    invariant under positive affine maps of the input. That licenses a
    numerically safe evaluation: first map the scores onto [0, 1] exactly
    (range-degenerate users map to 0 instead), which sidesteps subnormal
    score gaps whose mean is not even representable, then double-center so
    the output mean sits at machine epsilon.
    """
    return _replace_scores(cset, _scale_groups(cset, _normalization_one), "normalization")


def _aggregate(
    values: list[float], weight: float, clip_radius: float, aggregator: str
) -> float:
    if aggregator == "brmean":
        return br_mean(
            values, ResilienceParams(weight=weight, default=0.0, clip_radius=clip_radius)
        )
    if aggregator == "mean":
        return float(np.mean(values)) if values else 0.0
    raise ValueError(f"unknown aggregator {aggregator!r}")


def mehestan_scale(
    cset: ComparisonSet,
    gbt_config: GbtConfig = GbtConfig(),
    params: ResilienceParams = ResilienceParams(),
    *,
    epsilon_pair: float = 1e-6,
    ratio_clip: float = 0.5,
    translation_clip: float = 1.0,
    aggregator: str = "brmean",
) -> tuple[ScaledComparisonSet, list[UserAffine], list[IndividualScores]]:
    """Collaboratively rescale every user's latent scores onto a common scale.

    Procedure:
      1. Fit GBT scores theta_u per user.
      2. The anchor user (most scored items, ties by lexicographic user_id)
         is pinned at s=1, tau=0; affine freedom needs a gauge.
      3. For every other user u, every other user v votes on u's scale with
         the median log-ratio log(|theta_v(a)-theta_v(b)| / |theta_u(a)-theta_u(b)|)
         over common item pairs whose gaps both exceed epsilon_pair;
         s_u = exp(br_mean(votes, default 0, clip ratio_clip)). No votes: s_u = 1.
      4. Translation candidates are collected per (other user v, common item a):
         s_v*theta_v(a) - s_u*theta_u(a); tau_u = br_mean(candidates, default 0,
         clip translation_clip). No candidates: tau_u = 0.
      5. Scaled scores theta'_u = s_u*theta_u + tau_u, kept per user.
      6. New comparison targets r' = clip(theta'_u(right) - theta'_u(left), -1, 1).

    Aggregating votes from all users (not only the anchor) keeps the
    influence of any single malicious voter bounded by the BrMean clipping;
    `aggregator="mean"` swaps in an unclipped mean for robustness
    comparisons. The clip radius is ratio_clip in log-ratio space so that
    multiplying or dividing by the same factor is treated symmetrically.

    Returns the rescaled comparison set, the per-user affines, and the
    scaled per-user latent scores theta'_u. Requires >= 2 users and a
    single criterion (filter first via ComparisonSet.restrict).
    """
    users = list(cset.user_ids)
    if len(users) < 2:
        raise ValueError(f"mehestan_scale needs >= 2 users, got {len(users)}")
    criteria = cset.criteria
    if len(criteria) > 1:
        raise ValueError(
            f"mehestan_scale operates on one criterion at a time, got {sorted(criteria)}; "
            "restrict the set first"
        )

    subsets = [cset.restrict(user_id=u) for u in users]
    fits = {u: fit_gbt(sub, gbt_config) for u, sub in zip(users, subsets)}
    theta = {u: fits[u].theta for u in users}

    # Anchor: most scored items, ties broken lexicographically.
    anchor = min(users, key=lambda u: (-len(theta[u]), u))

    scales: dict[str, float] = {anchor: 1.0}
    for u in users:
        if u == anchor:
            continue
        votes: list[float] = []
        for v in users:
            if v == u:
                continue
            common = sorted(set(theta[u]) & set(theta[v]))
            ratios: list[float] = []
            for a, b in itertools.combinations(common, 2):
                gap_u = abs(theta[u][a] - theta[u][b])
                gap_v = abs(theta[v][a] - theta[v][b])
                if gap_u > epsilon_pair and gap_v > epsilon_pair:
                    ratios.append(math.log(gap_v / gap_u))
            if ratios:
                votes.append(float(np.median(ratios)))
        scales[u] = math.exp(_aggregate(votes, params.weight, ratio_clip, aggregator))

    translations: dict[str, float] = {anchor: 0.0}
    for u in users:
        if u == anchor:
            continue
        candidates: list[float] = []
        for v in users:
            if v == u:
                continue
            for a in sorted(set(theta[u]) & set(theta[v])):
                candidates.append(scales[v] * theta[v][a] - scales[u] * theta[u][a])
        translations[u] = _aggregate(
            candidates, params.weight, translation_clip, aggregator
        )

    scaled_theta = {
        u: {item: scales[u] * val + translations[u] for item, val in theta[u].items()}
        for u in users
    }
    new_scores = np.empty(len(cset))
    order, bounds = cset.by_user
    for k, (u, sub) in enumerate(zip(users, subsets)):
        vec = np.array([scaled_theta[u][item] for item in sub.item_ids])
        rows = order[bounds[k] : bounds[k + 1]]
        new_scores[rows] = np.clip(vec[sub.right] - vec[sub.left], -1.0, 1.0)
    affines = [UserAffine(u, scales[u], translations[u]) for u in users]
    scores = [
        IndividualScores(
            u, scaled_theta[u], gbt_config.lam,
            fits[u].converged, fits[u].n_iter, fits[u].grad_norm,
        )
        for u in users
    ]
    return _replace_scores(cset, new_scores, "mehestan"), affines, scores


def write_scaled_comparisons(scaled: ScaledComparisonSet, path: str | Path) -> None:
    """Scaled comparisons CSV: input schema plus a trailing `scaler` column."""
    write_columns(path, COMPARISONS_HEADER + ["scaler"], scaled, (scaled.scaler_tag,))


def parse_scaled_comparisons(path: str | Path) -> ScaledComparisonSet:
    """Read the scaled comparisons CSV (raw schema plus a `scaler` column)."""
    columns, (tags,) = read_columns(path, COMPARISONS_HEADER + ["scaler"])
    if len(tags) > 1:
        raise ValueError(f"{path}: mixed scaler tags {sorted(tags)}")
    tag = tags[0] if tags else "none"
    return ScaledComparisonSet(columns=columns, scaler_tag=tag)


def write_user_affines(affines: list[UserAffine], path: str | Path) -> None:
    write_csv(path, ["user_id", "s", "tau"], ([a.user_id, repr(a.s), repr(a.tau)] for a in affines))
