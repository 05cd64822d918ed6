"""Per-user score scalers: min-max, normalization, and Mehestan-style rescaling.

Min-max and normalization act on each user's raw comparison scores in
isolation. Mehestan is collaborative: every user's latent (GBT-fitted)
scores are put on a common affine scale using robust aggregation over the
other users' scores, then the rescaled score differences become the new
comparison targets. The final global aggregation into one ranking is
deliberately not performed; all scores stay per-user.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import (
    COMPARISONS_HEADER,
    ComparisonSet,
    group_rows,
    read_columns,
    write_columns,
    write_table,
)
from .gbt import GbtConfig, GbtFits, fit_users
from .robust import ResilienceParams, br_mean

SCALER_TAGS = ("minmax", "normalization", "mehestan", "none")

# Mehestan: a latent-score gap must exceed EPSILON_PAIR to enter a scale
# vote; BrMean clips scale votes (log ratios) at RATIO_CLIP and translation
# candidates at TRANSLATION_CLIP around its center.
EPSILON_PAIR = 1e-6
RATIO_CLIP = 0.5
TRANSLATION_CLIP = 1.0


@dataclass(eq=False)
class Affines:
    """Multiplicative scales and translations applied to users' latent scores.

    Position k of `s`, `tau`, `votes` and `candidates` belongs to user
    `user_ids[k]`. `votes` counts the other users whose median log-ratio
    voted on `s`, and `candidates` the translation candidates aggregated
    into `tau`. A user other than the anchor with no votes falls back to
    s = 1, and one with no candidates to tau = 0. The anchor, user code
    `anchor`, is pinned at s = 1, tau = 0 and takes neither.
    """

    user_ids: tuple[str, ...]
    s: np.ndarray
    tau: np.ndarray
    votes: np.ndarray
    candidates: np.ndarray
    anchor: int

    def __post_init__(self) -> None:
        bad = ~(self.s > 0)
        if bad.any():
            raise ValueError(f"scale must be positive, got {self.s[bad][0]}")


def check_resilience_weight(weight: float) -> float:
    """The QrMed weight of Mehestan's BrMean calls, refused unless positive
    and finite."""
    if not 0 < weight < np.inf:
        raise ValueError(f"resilience_weight must be positive, got {weight}")
    return weight


def _scale_groups(cset: ComparisonSet, scale_one) -> np.ndarray:
    """New scores: scale_one(scores of one (user, criterion) group) per group.

    Each group's scores are contiguous and in input order, as indexing the
    group's rows would give, so the arithmetic matches a per-group loop exactly.
    """
    n_criteria = len(cset.criterion_ids)
    key = cset.user * n_criteria + cset.criterion
    order, bounds = group_rows(key, len(cset.user_ids) * n_criteria)
    grouped = cset.score.take(order)
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


def minmax_scale(cset: ComparisonSet) -> ComparisonSet:
    """Affinely map each user's scores onto [-1, 1] (per criterion).

    Degenerate users whose scores are all equal map to 0.
    """
    return cset.with_scores(_scale_groups(cset, _minmax_one))


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


def normalization_scale(cset: ComparisonSet) -> ComparisonSet:
    """Standardize each user's scores (population std), then shrink into [-1, 1].

    Z-scoring and then dividing by max|z| is algebraically centered / max
    |centered|, so the std cancels out of the result, and the result is
    invariant under positive affine maps of the input. That licenses a
    numerically safe evaluation: first map the scores onto [0, 1] exactly
    (range-degenerate users map to 0 instead), which sidesteps subnormal
    score gaps whose mean is not even representable, then double-center so
    the output mean sits at machine epsilon.
    """
    return cset.with_scores(_scale_groups(cset, _normalization_one))


# Vote temporaries span about this many entries.
_BLOCK_ENTRIES = 32768


def _gaps(rows: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|rows[:, a] - rows[:, b]|: each row's gaps over the item pairs (a, b)."""
    return np.abs(rows.take(a, axis=1) - rows.take(b, axis=1))


def _vote_matrix(latent: np.ndarray) -> np.ndarray:
    """votes[u, v]: user v's vote on user u's scale, NaN where v casts none.

    `latent` holds the users' fitted scores, NaN where a user scored no item,
    so a gap over an absent item fails the EPSILON_PAIR test. The vote is the
    median of `log gap_v - log gap_u` (each gap logged with `np.log`, the
    middle one or two differences averaged as `np.median` averages them) over
    u's item pairs whose gaps exceed EPSILON_PAIR for both users. Each
    unordered pair of users is scored once, from the lower user's row, and
    the upper user's vote is its exact negation: votes[v, u] == -votes[u, v].

    Users are taken in tiles of C = max(1, _BLOCK_ENTRIES // P), P the number
    of item pairs. A tile lists the pairs of its items (the columns it does
    not hold all NaN) with np.triu_indices and logs its users' gaps once,
    over the union of the pairs valid for at least one of them, with -inf
    where a pair is not valid for the user. Each block of the users after the
    tile's first is logged once per tile over the same pairs, +inf where a
    gap is invalid, so every difference over a pair not valid for both users
    is +inf and sorts after the valid ones. A row's finite differences are
    its pairs valid for both users, so one float64 product of the tile's and
    the block's validity masks counts them for every (user, voter) of the
    two; sums of 0s and 1s are exact in any order, whatever the BLAS. Each
    user of the tile then subtracts its own row from the block, sorts, and
    takes the median of each row's finite differences. Tiles and blocks span
    about _BLOCK_ENTRIES entries, so no users x pairs table is built: with
    more than _BLOCK_ENTRIES item pairs every tile is one user, and a user
    with more valid pairs than that is scored one voter a block.
    """
    n_users, n_items = latent.shape
    votes = np.full((n_users, n_users), np.nan)
    tile = max(1, _BLOCK_ENTRIES // max(1, n_items * (n_items - 1) // 2))
    for t0 in range(0, n_users - 1, tile):
        t1 = min(t0 + tile, n_users - 1)
        items = np.flatnonzero(~np.isnan(latent[t0:t1]).all(axis=0))
        a, b = (items[k] for k in np.triu_indices(len(items), 1))
        gaps = _gaps(latent[t0:t1], a, b)
        valid = gaps > EPSILON_PAIR
        union = valid.any(axis=0)
        if not union.any():
            continue
        a, b, gaps = a[union], b[union], gaps.compress(union, axis=1)
        valid = valid.compress(union, axis=1)
        # log 0 = -inf marks a pair not valid for the user.
        gaps[~valid] = 0.0
        with np.errstate(divide="ignore"):
            own = np.log(gaps, out=gaps)
        valid = valid.astype(np.float64)
        # A block holds at least C users, so only the first meets the tile.
        step = max(1, _BLOCK_ENTRIES // len(a))
        for v0 in range(t0 + 1, n_users, step):
            logs = _gaps(latent[v0 : v0 + step], a, b)
            voting = logs > EPSILON_PAIR
            logs[~voting] = np.inf
            np.log(logs, out=logs)
            pair_counts = (valid @ voting.T.astype(np.float64)).astype(np.intp)
            for u in range(t0, t1):
                skip = max(0, u + 1 - v0)
                diffs = logs[skip:] - own[u - t0]
                diffs.sort(axis=1)
                # A sorted row holds its finite differences first.
                counts = pair_counts[u - t0, skip:]
                voters = np.flatnonzero(counts)
                counts = counts[voters]
                medians = (diffs[voters, (counts - 1) // 2] + diffs[voters, counts // 2]) / 2
                voters += v0 + skip
                votes[u, voters] = medians
                votes[voters, u] = -medians
    return votes


def mehestan_scale(
    cset: ComparisonSet,
    gbt_config: GbtConfig = GbtConfig(),
    resilience_weight: float = 1.0,
) -> tuple[ComparisonSet, Affines, GbtFits]:
    """Collaboratively rescale every user's latent scores onto a common scale.

    Procedure:
      1. Fit GBT scores theta_u per user, every user in one lockstep descent.
      2. The anchor user (most scored items, ties by lexicographic user_id)
         is pinned at s=1, tau=0; affine freedom needs a gauge.
      3. For every other user u, every other user v votes on u's scale with
         the median of log|theta_v(a)-theta_v(b)| - log|theta_u(a)-theta_u(b)|
         over common item pairs whose gaps both exceed EPSILON_PAIR;
         s_u = exp(br_mean(votes, default 0, clip RATIO_CLIP)). No votes: s_u = 1.
         The pair set is the same both ways, so u's vote on v is exactly the
         negation of v's vote on u, and each pair of users is scored once.
      4. Translation candidates are collected per (other user v, common item a):
         s_v*theta_v(a) - s_u*theta_u(a); tau_u = br_mean(candidates, default 0,
         clip TRANSLATION_CLIP). No candidates: tau_u = 0.
      5. Scaled scores theta'_u = s_u*theta_u + tau_u, kept per user.
      6. New comparison targets r' = clip(theta'_u(right) - theta'_u(left), -1, 1).

    Aggregating votes from all users (not only the anchor) keeps the
    influence of any single malicious voter bounded by the BrMean clipping,
    whose QrMed weight is `resilience_weight` (larger resists outliers
    harder). The clip radius is RATIO_CLIP in log-ratio space so that
    multiplying or dividing by the same factor is treated symmetrically.

    Returns the rescaled comparison set, the per-user affines, and the
    users' fits with their `theta` array holding the scaled scores theta'_u.
    All three come from one users x items table of the fits, NaN where a
    user scored no item, which the votes read and which is then scaled and
    translated in place.
    Requires >= 2 users and one criterion (filter first via restrict).
    """
    check_resilience_weight(resilience_weight)
    users = cset.user_ids
    if len(users) < 2:
        raise ValueError(f"mehestan_scale needs >= 2 users, got {len(users)}")
    if len(cset.criterion_ids) > 1:
        raise ValueError(
            f"mehestan_scale operates on one criterion at a time, got "
            f"{list(cset.criterion_ids)}; restrict the set first"
        )

    # latent[k, i] is user k's score of item code i, NaN where k scored none.
    fits = fit_users(cset, gbt_config)
    n_items = len(cset.item_ids)
    cells = fits.user * n_items + fits.item
    latent = np.full((len(users), n_items), np.nan)
    latent.put(cells, fits.theta)
    sizes = np.bincount(fits.user)

    # Anchor: most scored items, ties broken lexicographically (users are sorted).
    anchor = int(np.argmax(sizes))

    vote_matrix = _vote_matrix(latent)
    ratio_params = ResilienceParams(resilience_weight, 0.0, RATIO_CLIP)
    translation_params = ResilienceParams(resilience_weight, 0.0, TRANSLATION_CLIP)
    scales = np.ones(len(users))
    votes = np.zeros(len(users), dtype=np.intp)
    for u in range(len(users)):
        if u == anchor:
            continue
        row = vote_matrix[u]
        medians = row.compress(~np.isnan(row))
        votes[u] = len(medians)
        # The array's memoryview: numpy reads it without a copy, and iterating
        # it, as perfbench's tracer does to count clipped inputs, gives floats.
        scales[u] = math.exp(br_mean(medians.data, ratio_params))

    # Candidates s_v*theta_v(a) - s_u*theta_u(a), row-major over (v != u,
    # common item a): the entries of u's columns less u's own, where not NaN.
    latent *= scales[:, None]
    translations = np.zeros(len(users))
    candidates = np.zeros(len(users), dtype=np.intp)
    for u, items in enumerate(np.split(fits.item, np.cumsum(sizes[:-1]))):
        if u == anchor:
            continue
        diffs = latent.take(items, axis=1)
        diffs -= latent[u].take(items)
        diffs[u] = np.nan
        values = diffs.compress(~np.isnan(diffs).ravel())
        candidates[u] = len(values)
        translations[u] = br_mean(values.data, translation_params)

    latent += translations[:, None]
    latent = latent.ravel()
    row_starts = cset.user * n_items
    new_scores = np.clip(
        latent.take(row_starts + cset.right) - latent.take(row_starts + cset.left), -1.0, 1.0
    )
    fits.theta = latent.take(cells)
    affines = Affines(users, scales, translations, votes, candidates, anchor)
    return cset.with_scores(new_scores), affines, fits


def write_scaled_comparisons(scaled: ComparisonSet, path: str | Path, tag: str) -> None:
    """Scaled comparisons CSV: input schema plus a trailing `scaler` column
    holding `tag`, one of SCALER_TAGS."""
    if tag not in SCALER_TAGS:
        raise ValueError(f"scaler tag must be one of {SCALER_TAGS}, got {tag!r}")
    write_columns(path, COMPARISONS_HEADER + ["scaler"], scaled, (tag,))


def parse_scaled_comparisons(path: str | Path) -> ComparisonSet:
    """Read the scaled comparisons CSV (raw schema plus a `scaler` column),
    whose rows must all hold one tag of SCALER_TAGS."""
    cset, (tags,) = read_columns(path, COMPARISONS_HEADER + ["scaler"])
    if len(tags) > 1:
        raise ValueError(f"{path}: mixed scaler tags {sorted(tags)}")
    if not set(tags) <= set(SCALER_TAGS):
        raise ValueError(f"{path}: scaler tag must be one of {SCALER_TAGS}, got {tags[0]!r}")
    return cset


def write_user_affines(affines: Affines, path: str | Path) -> None:
    write_table(path, ["user_id", "s", "tau"], [
        (affines.user_ids, np.arange(len(affines.user_ids))), affines.s, affines.tau,
    ])
