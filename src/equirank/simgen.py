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

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dataset import Columns, ComparisonSet, FeatureTable, _codes, write_table
from .equity import CLASSES, _classes

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
        if self.noise_std < 0:
            raise ValueError(f"noise_std must be >= 0, got {self.noise_std}")
        if self.user_jitter < 0:
            raise ValueError(f"user_jitter must be >= 0, got {self.user_jitter}")
        if not self.weight_scale > 0:
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
            if sum(self.group_sizes) != self.n_users:
                raise ValueError("group_sizes must sum to n_users")
        if self.malicious_mode not in ("signflip", "random"):
            raise ValueError(f"unknown malicious_mode {self.malicious_mode!r}")


@dataclass
class GroundTruth:
    item_features: FeatureTable
    group_weights: dict[int, np.ndarray]
    user_group: dict[str, int]
    user_theta: dict[str, dict[str, float]]
    user_archetype: dict[str, str]
    user_weights: dict[str, np.ndarray] = field(default_factory=dict)


def _archetype_of(config: SimConfig, user_index: int) -> str:
    if config.archetype_mix is None:
        return "neutral"
    bound = 0
    for name in ARCHETYPES:
        bound += config.archetype_mix.get(name, 0)
        if user_index < bound:
            return name
    raise AssertionError("archetype counts were validated to cover all users")


def _group_of(config: SimConfig, user_index: int) -> int:
    if config.group_sizes is None:
        return user_index % config.n_groups
    bound = 0
    for g, size in enumerate(config.group_sizes):
        bound += size
        if user_index < bound:
            return g
    raise AssertionError("group sizes were validated to cover all users")


def _unit(vec: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(vec)
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
    item_ids = [f"i{i:0{item_width}d}" for i in range(config.n_items)]
    user_ids = [f"u{i:0{user_width}d}" for i in range(config.n_users)]

    feat_rng = np.random.default_rng([config.seed, 0])
    matrix = feat_rng.standard_normal((config.n_items, config.feature_dim))
    features = FeatureTable(
        config.feature_dim, {item: matrix[i] for i, item in enumerate(item_ids)}
    )

    group_rng = np.random.default_rng([config.seed, 1])
    group_weights: dict[int, np.ndarray] = {}
    for g in range(config.n_groups):
        if config.opposed_groups and g == 1:
            group_weights[1] = -group_weights[0]
            continue
        raw = group_rng.standard_normal(config.feature_dim)
        group_weights[g] = config.weight_scale * _unit(raw)

    truth = GroundTruth(features, group_weights, {}, {}, {})
    m = config.comparisons_per_user
    lefts, rights, scores = [], [], []
    for u_idx, user in enumerate(user_ids):
        group = _group_of(config, u_idx)
        archetype = _archetype_of(config, u_idx)
        jitter_rng = np.random.default_rng([config.seed, 2, u_idx])
        direction = _unit(group_weights[group])
        if config.user_jitter > 0:
            direction = _unit(
                direction + config.user_jitter * jitter_rng.standard_normal(config.feature_dim)
            )
        weights = config.weight_scale * direction
        theta = matrix @ weights
        truth.user_group[user] = group
        truth.user_archetype[user] = archetype
        truth.user_weights[user] = weights
        truth.user_theta[user] = {item: float(theta[i]) for i, item in enumerate(item_ids)}

        comp_rng = np.random.default_rng([config.seed, 3, u_idx])
        left = comp_rng.integers(0, config.n_items, size=m)
        right = comp_rng.integers(0, config.n_items - 1, size=m)
        right = right + (right >= left)
        t = theta[right] - theta[left] + comp_rng.normal(0.0, config.noise_std, size=m)
        lefts.append(left)
        rights.append(right)
        scores.append(_shape_scores(t, archetype, config, comp_rng))
    # Codes are indices into user_ids and item_ids; the set sorts and compacts them.
    cset = ComparisonSet(
        columns=Columns(
            tuple(user_ids), np.repeat(np.arange(config.n_users), m),
            (config.criterion,), np.zeros(config.n_users * m, dtype=np.intp),
            tuple(item_ids), np.concatenate(lefts), np.concatenate(rights),
            np.concatenate(scores),
        )
    )
    return cset, features, truth


def true_classes(
    truth: GroundTruth, cset: ComparisonSet, tie_epsilon: float
) -> list[str]:
    """Noise-free oracle labels from the latent utilities, in row order."""
    # theta[k, i] is user code k's utility of item code i where known[k, i].
    index = {item: i for i, item in enumerate(cset.item_ids)}
    theta = np.zeros((len(cset.user_ids), len(cset.item_ids)))
    known = np.zeros(theta.shape, dtype=bool)
    for k, user in enumerate(cset.user_ids):
        for item, value in truth.user_theta.get(user, {}).items():
            if item in index:
                theta[k, index[item]] = value
                known[k, index[item]] = True
    user, left, right = cset.user, cset.left, cset.right
    bad = np.flatnonzero(~(known[user, left] & known[user, right]))
    if bad.size:
        row = bad[0]
        if cset.user_ids[user[row]] not in truth.user_theta:
            raise ValueError(f"unknown user {cset.user_ids[user[row]]!r}")
        raise ValueError(
            f"unknown item in comparison ({cset.item_ids[left[row]]!r}, "
            f"{cset.item_ids[right[row]]!r})"
        )
    diff = theta[user, right] - theta[user, left]
    return [CLASSES[c] for c in _classes(diff, tie_epsilon).tolist()]


def write_truth_theta(truth: GroundTruth, path: str | Path) -> None:
    users = sorted(truth.user_theta)
    thetas = [truth.user_theta[user] for user in users]
    items: dict[str, int] = {}
    codes = _codes(items, [item for theta in thetas for item in sorted(theta)])
    write_table(path, ["user_id", "item_id", "theta"], [
        (users, np.repeat(np.arange(len(users)), [len(theta) for theta in thetas])),
        (tuple(items), codes),
        np.array([theta[item] for theta in thetas for item in sorted(theta)]),
    ])


def write_truth_users(truth: GroundTruth, path: str | Path) -> None:
    users = sorted(truth.user_group)
    columns = [
        users,
        [str(truth.user_group[user]) for user in users],
        [truth.user_archetype[user] for user in users],
    ]
    rows = np.arange(len(users))
    write_table(path, ["user_id", "group", "archetype"], [(c, rows) for c in columns])
