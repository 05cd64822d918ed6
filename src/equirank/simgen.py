"""Synthetic voter population with known ground-truth latent utilities.

Each user belongs to a preference group with a weight vector; the user's
latent utility for an item is (group weights + per-user perturbation) .
features(item). Reported comparison scores start from the true utility
difference plus Gaussian noise and are then shaped by a voting archetype:

    neutral       clip(t, -1, 1)
    conservative  clip(0.2 * t, -1, 1)   votes cluster near 0
    extreme       sign(t) * min(1, 3|t|) votes pushed to the rails
    malicious     clip(-t, -1, 1)        sign-flipped to poison the ranking

Everything is a pure function of the seed; per-user RNG streams are derived
from (seed, user index) so one user's rows do not depend on how many users
exist.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import ComparisonSet, FeatureTable, write_table

ARCHETYPES = ("neutral", "conservative", "extreme", "malicious")
CONSERVATIVE_GAIN = 0.2
EXTREME_GAIN = 3.0


@dataclass(frozen=True)
class SimConfig:
    n_items: int
    feature_dim: int
    n_users: int
    comparisons_per_user: int
    noise_std: float = 0.1
    archetype_mix: dict[str, int] | None = None
    n_groups: int = 1
    seed: int = 0
    criterion: str = "overall"
    # Extra shape knobs (defaults match the standard fixture):
    weight_scale: float = 0.5  # norm of every user's weight vector
    user_jitter: float = 0.1  # within-group weight perturbation, 0 = identical
    opposed_groups: bool = False  # with 2 groups, weights w and -w
    group_sizes: tuple[int, ...] | None = None  # block sizes; default round-robin
    malicious_mode: str = "signflip"  # or "random"

    def __post_init__(self) -> None:
        if self.n_items < 2:
            raise ValueError(f"n_items must be >= 2, got {self.n_items}")
        for name, v in [
            ("feature_dim", self.feature_dim),
            ("n_users", self.n_users),
            ("comparisons_per_user", self.comparisons_per_user),
            ("n_groups", self.n_groups),
        ]:
            if v < 1:
                raise ValueError(f"{name} must be >= 1, got {v}")
        if not 0 <= self.noise_std < np.inf:
            raise ValueError(f"noise_std must be >= 0, got {self.noise_std}")
        if not 0 <= self.user_jitter < np.inf:
            raise ValueError(f"user_jitter must be >= 0, got {self.user_jitter}")
        if not 0 < self.weight_scale < np.inf:
            raise ValueError(f"weight_scale must be positive, got {self.weight_scale}")
        if self.archetype_mix is not None:
            unknown = set(self.archetype_mix) - set(ARCHETYPES)
            if unknown:
                raise ValueError(f"unknown archetypes: {sorted(unknown)}")
            if any(v < 0 for v in self.archetype_mix.values()):
                raise ValueError("archetype counts must be >= 0")
            if sum(self.archetype_mix.values()) != self.n_users:
                raise ValueError(
                    f"archetype counts sum to {sum(self.archetype_mix.values())}, "
                    f"expected n_users = {self.n_users}"
                )
        if self.opposed_groups and self.n_groups != 2:
            raise ValueError("opposed_groups requires n_groups == 2")
        if self.group_sizes is not None:
            if len(self.group_sizes) != self.n_groups:
                raise ValueError("group_sizes must have n_groups entries")
            if min(self.group_sizes) < 0:
                raise ValueError(f"group_sizes must be >= 0, got {self.group_sizes}")
            if sum(self.group_sizes) != self.n_users:
                raise ValueError("group_sizes must sum to n_users")
        if self.malicious_mode not in ("signflip", "random"):
            raise ValueError(f"unknown malicious_mode {self.malicious_mode!r}")


@dataclass(eq=False)
class GroundTruth:
    """What `generate` drew. Row g of `group_weights` (groups, dim) is group
    g's weight vector. Row k of `group`, `archetype` and `weights` (users,
    dim) belongs to `user_ids[k]`, and `theta[k, i]` (users, items) is its
    utility of item `item_features.item_ids[i]`."""

    item_features: FeatureTable
    group_weights: np.ndarray
    user_ids: tuple[str, ...]
    group: np.ndarray
    archetype: tuple[str, ...]
    weights: np.ndarray
    theta: np.ndarray


def _unit(vec: np.ndarray, setting: str) -> np.ndarray:
    """vec / |vec|. A norm that overflows is refused, naming the `setting`
    that scaled vec, since the unit vector would silently be zero."""
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(vec)
    if not np.isfinite(norm):
        raise ValueError(f"{setting} is too large: a weight vector's norm overflows")
    if norm == 0:
        raise ValueError("cannot normalize a zero weight vector")
    return vec / norm


def _shape_scores(t: np.ndarray, archetype: str, config: SimConfig, rng) -> np.ndarray:
    if archetype == "neutral":
        return np.clip(t, -1.0, 1.0)
    if archetype == "conservative":
        return np.clip(CONSERVATIVE_GAIN * t, -1.0, 1.0)
    if archetype == "extreme":
        return np.sign(t) * np.minimum(1.0, EXTREME_GAIN * np.abs(t))
    if archetype == "malicious":
        if config.malicious_mode == "random":
            return rng.uniform(-1.0, 1.0, size=t.shape)
        return np.clip(-t, -1.0, 1.0)
    raise AssertionError(f"unreachable archetype {archetype}")


def generate(config: SimConfig) -> tuple[ComparisonSet, FeatureTable, GroundTruth]:
    """Draw features, users, and comparisons; deterministic given the seed."""
    item_width = max(1, len(str(config.n_items - 1)))
    user_width = max(1, len(str(config.n_users - 1)))
    item_ids = tuple(f"i{i:0{item_width}d}" for i in range(config.n_items))
    user_ids = tuple(f"u{i:0{user_width}d}" for i in range(config.n_users))

    feat_rng = np.random.default_rng([config.seed, 0])
    matrix = feat_rng.standard_normal((config.n_items, config.feature_dim))
    features = FeatureTable(item_ids, matrix)

    group_rng = np.random.default_rng([config.seed, 1])
    group_weights = np.empty((config.n_groups, config.feature_dim))
    for g in range(config.n_groups):
        if config.opposed_groups and g == 1:
            group_weights[1] = -group_weights[0]
            continue
        raw = group_rng.standard_normal(config.feature_dim)
        group_weights[g] = config.weight_scale * _unit(raw, "weight_scale")

    if config.group_sizes is None:
        group = np.arange(config.n_users) % config.n_groups
    else:
        group = np.repeat(np.arange(config.n_groups), config.group_sizes)
    mix = config.archetype_mix or {"neutral": config.n_users}
    archetype = tuple(np.repeat(ARCHETYPES, [mix.get(a, 0) for a in ARCHETYPES]).tolist())
    weights = np.empty((config.n_users, config.feature_dim))
    theta = np.empty((config.n_users, config.n_items))
    m = config.comparisons_per_user
    lefts, rights, scores = [], [], []
    for u_idx in range(config.n_users):
        jitter_rng = np.random.default_rng([config.seed, 2, u_idx])
        direction = _unit(group_weights[group[u_idx]], "weight_scale")
        if config.user_jitter > 0:
            with np.errstate(over="ignore"):
                jitter = config.user_jitter * jitter_rng.standard_normal(config.feature_dim)
            direction = _unit(direction + jitter, "user_jitter")
        weights[u_idx] = config.weight_scale * direction
        theta[u_idx] = utility = matrix @ weights[u_idx]

        comp_rng = np.random.default_rng([config.seed, 3, u_idx])
        left = comp_rng.integers(0, config.n_items, size=m)
        right = comp_rng.integers(0, config.n_items - 1, size=m)
        right = right + (right >= left)
        t = utility[right] - utility[left] + comp_rng.normal(0.0, config.noise_std, size=m)
        lefts.append(left)
        rights.append(right)
        scores.append(_shape_scores(t, archetype[u_idx], config, comp_rng))
    # Codes are indices into user_ids and item_ids; the set sorts and compacts them.
    cset = ComparisonSet(
        user_ids, np.repeat(np.arange(config.n_users), m),
        (config.criterion,), np.zeros(config.n_users * m, dtype=np.intp),
        item_ids, np.concatenate(lefts), np.concatenate(rights), np.concatenate(scores),
    )
    truth = GroundTruth(features, group_weights, user_ids, group, archetype, weights, theta)
    return cset, features, truth


def _sorted_rows(ids: tuple[str, ...]) -> np.ndarray:
    """The rows of `ids` in the ids' (Python string) order."""
    return np.array(sorted(range(len(ids)), key=ids.__getitem__), dtype=np.intp)


def write_truth_theta(truth: GroundTruth, path: str | Path) -> None:
    item_ids = truth.item_features.item_ids
    users, items = _sorted_rows(truth.user_ids), _sorted_rows(item_ids)
    write_table(path, ["user_id", "item_id", "theta"], [
        (truth.user_ids, users.repeat(items.size)),
        (item_ids, np.tile(items, users.size)),
        truth.theta[np.ix_(users, items)].ravel(),
    ])


def write_truth_users(truth: GroundTruth, path: str | Path) -> None:
    columns = [truth.user_ids, [str(g) for g in truth.group.tolist()], truth.archetype]
    rows = _sorted_rows(truth.user_ids)
    write_table(path, ["user_id", "group", "archetype"], [(c, rows) for c in columns])
