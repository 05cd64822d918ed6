"""Simulator determinism, archetype shaping, and ground-truth consistency."""

import numpy as np
import pytest

from equirank.dataset import FeatureTable, _positions
from equirank.equity import CLASSES, _classes
from equirank.simgen import GroundTruth, SimConfig, generate
from equity_oracle import classify
from row_view import comparison_set, rows_of, take

# Standard fixture used across the suite (thresholds below were frozen after
# a verified run: conservative users put ~100% of their scores in |r| < 0.3
# on this seed, neutral users ~39-41%).
STANDARD = SimConfig(
    n_items=30,
    feature_dim=4,
    n_users=8,
    comparisons_per_user=500,
    noise_std=0.1,
    archetype_mix={"neutral": 4, "conservative": 2, "extreme": 2},
    seed=42,
)


def user_theta(truth: GroundTruth) -> dict[str, dict[str, float]]:
    """Each user's utilities keyed by item, from the truth's rows."""
    items = truth.item_features.item_ids
    return {u: dict(zip(items, row)) for u, row in zip(truth.user_ids, truth.theta.tolist())}


def utilities(user_ids, item_ids, theta) -> GroundTruth:
    """A truth of the given utilities, theta[k][i] of user k and item i; its
    features, weights and groups are placeholders."""
    n = len(user_ids)
    return GroundTruth(
        FeatureTable(item_ids, np.zeros((len(item_ids), 1))), np.zeros((1, 1)), user_ids,
        np.zeros(n, dtype=np.intp), ("neutral",) * n, np.zeros((n, 1)), np.array(theta),
    )


def test_same_seed_identical_output():
    a, _, _ = generate(STANDARD)
    b, _, _ = generate(STANDARD)
    assert rows_of(a) == rows_of(b)


def test_different_seed_differs():
    a, _, _ = generate(STANDARD)
    b, _, _ = generate(SimConfig(**{**STANDARD.__dict__, "seed": 43}))
    assert rows_of(a) != rows_of(b)


def test_scores_within_bounds():
    cset, _, _ = generate(STANDARD)
    assert all(-1.0 <= c.score <= 1.0 for c in rows_of(cset))


def test_noise_free_neutral_scores_are_clipped_theta_diffs():
    config = SimConfig(n_items=10, feature_dim=3, n_users=1,
                       comparisons_per_user=200, noise_std=0.0, seed=7)
    cset, _, truth = generate(config)
    theta = user_theta(truth)["u0"]
    for c in rows_of(cset):
        expected = np.clip(theta[c.right_item] - theta[c.left_item], -1.0, 1.0)
        assert c.score == pytest.approx(float(expected), abs=1e-15)


def test_conservative_histogram_concentrates_near_zero():
    cset, _, truth = generate(STANDARD)
    by_archetype = {}
    for user, archetype in zip(truth.user_ids, truth.archetype):
        scores = np.abs(take(cset, user).score)
        by_archetype.setdefault(archetype, []).append(float(np.mean(scores < 0.3)))
    assert all(frac >= 0.8 for frac in by_archetype["conservative"])
    assert all(frac < 0.8 for frac in by_archetype["neutral"])


def test_archetype_assignment_order_and_counts():
    _, _, truth = generate(STANDARD)
    counts = {}
    for archetype in truth.archetype:
        counts[archetype] = counts.get(archetype, 0) + 1
    assert counts == {"neutral": 4, "conservative": 2, "extreme": 2}
    # Fixed block order: neutral, conservative, extreme, malicious.
    assert truth.user_ids == tuple(f"u{k}" for k in range(8))
    assert truth.archetype[0] == "neutral"
    assert truth.archetype[4] == "conservative"
    assert truth.archetype[6] == "extreme"


def test_sign_preserving_transforms():
    config = SimConfig(n_items=20, feature_dim=3, n_users=4,
                       comparisons_per_user=300, noise_std=0.0,
                       archetype_mix={"neutral": 1, "conservative": 1,
                                      "extreme": 1, "malicious": 1},
                       seed=11)
    cset, _, truth = generate(config)
    thetas, archetypes = user_theta(truth), dict(zip(truth.user_ids, truth.archetype))
    for c in rows_of(cset):
        theta = thetas[c.user_id]
        diff = theta[c.right_item] - theta[c.left_item]
        if abs(diff) < 1e-9:
            continue
        archetype = archetypes[c.user_id]
        if archetype == "malicious":
            assert np.sign(c.score) == -np.sign(diff)
        else:
            assert np.sign(c.score) == np.sign(diff)


def test_random_malicious_mode_ignores_truth():
    config = SimConfig(n_items=10, feature_dim=3, n_users=1,
                       comparisons_per_user=500, noise_std=0.0,
                       archetype_mix={"malicious": 1}, malicious_mode="random",
                       seed=3)
    cset, _, truth = generate(config)
    theta = user_theta(truth)["u0"]
    diffs = np.array([theta[c.right_item] - theta[c.left_item] for c in rows_of(cset)])
    scores = cset.score
    mask = np.abs(diffs) > 0.2
    agree = np.mean(np.sign(scores[mask]) == np.sign(diffs[mask]))
    assert 0.3 < agree < 0.7  # uncorrelated with the truth


def test_theta_is_weights_dot_features():
    _, features, truth = generate(STANDARD)
    assert truth.item_features is features
    for w, theta in zip(truth.weights, truth.theta):
        for x, value in zip(features.vectors, theta.tolist()):
            assert value == pytest.approx(float(w @ x), abs=1e-12)


def test_opposed_groups_and_block_sizes():
    config = SimConfig(n_items=12, feature_dim=4, n_users=10,
                       comparisons_per_user=50, n_groups=2, opposed_groups=True,
                       group_sizes=(7, 3), user_jitter=0.0, seed=5)
    _, _, truth = generate(config)
    np.testing.assert_allclose(truth.group_weights[1], -truth.group_weights[0])
    sizes = [0, 0]
    for group in truth.group.tolist():
        sizes[group] += 1
    assert sizes == [7, 3]
    # jitter 0: users share their group's weight vector exactly
    for weights, group in zip(truth.weights, truth.group):
        np.testing.assert_allclose(weights, truth.group_weights[group], atol=1e-15)


def test_round_robin_group_assignment_default():
    config = SimConfig(n_items=8, feature_dim=2, n_users=5,
                       comparisons_per_user=20, n_groups=2, seed=1)
    _, _, truth = generate(config)
    assert truth.user_ids == tuple(f"u{k}" for k in range(5))
    assert truth.group.tolist() == [0, 1, 0, 1, 0]


def test_per_user_streams_stable_under_population_growth():
    small = SimConfig(n_items=10, feature_dim=3, n_users=2,
                      comparisons_per_user=40, seed=9)
    large = SimConfig(n_items=10, feature_dim=3, n_users=4,
                      comparisons_per_user=40, seed=9)
    a, _, _ = generate(small)
    b, _, _ = generate(large)
    assert rows_of(take(a, "u0")) == rows_of(take(b, "u0"))


def true_classes(truth, cset, tie_epsilon):
    """Noise-free labels from the latent utilities, in row order."""
    user = _positions(truth.user_ids, cset.user_ids, -1)[cset.user]
    items = _positions(truth.item_features.item_ids, cset.item_ids, -1)
    left, right = items[cset.left], items[cset.right]
    bad = np.flatnonzero((user < 0) | (left < 0) | (right < 0))
    if bad.size:
        row = bad[0]
        if user[row] < 0:
            raise ValueError(f"unknown user {cset.user_ids[cset.user[row]]!r}")
        raise ValueError(
            f"unknown item in comparison ({cset.item_ids[cset.left[row]]!r}, "
            f"{cset.item_ids[cset.right[row]]!r})"
        )
    diff = truth.theta[user, right] - truth.theta[user, left]
    return [CLASSES[c] for c in _classes(diff, tie_epsilon).tolist()]


class TestTrueClasses:
    def _fixture(self):
        config = SimConfig(n_items=6, feature_dim=2, n_users=2,
                           comparisons_per_user=30, seed=13)
        return generate(config)

    def test_matches_classify_on_theta_diff(self):
        cset, _, truth = self._fixture()
        labels = true_classes(truth, cset, 0.05)
        assert len(labels) == len(cset)
        theta = user_theta(truth)
        for c, label in zip(rows_of(cset), labels):
            diff = theta[c.user_id][c.right_item] - theta[c.user_id][c.left_item]
            if diff > 0.05:
                assert label == "right"
            elif diff < -0.05:
                assert label == "left"
            else:
                assert label == "tie"

    def test_equal_theta_is_tie(self):
        truth = utilities(("u",), ("a", "b"), [[0.4, 0.4]])
        labels = true_classes(truth, comparison_set([("u", "g", "a", "b", 0.9)]), 0.05)
        assert labels == ["tie"]

    def test_unknown_user_rejected(self):
        cset, _, truth = self._fixture()
        stranger = comparison_set([("nobody", "g", "i0", "i1", 0.1)])
        with pytest.raises(ValueError, match="unknown user"):
            true_classes(truth, stranger, 0.05)

    def test_unknown_item_rejected(self):
        _, _, truth = self._fixture()
        rows = [("u0", "g", "i0", "i1", 0.1), ("u1", "g", "i2", "zz", 0.1)]
        with pytest.raises(ValueError, match=r"unknown item in comparison \('i2', 'zz'\)"):
            true_classes(truth, comparison_set(rows), 0.05)

    @pytest.mark.parametrize("rows", [
        [("u0", "g", "i0", "zz", 0.1), ("nobody", "g", "i0", "i1", 0.1)],
        [("u1", "g", "i0", "i1", 0.1), ("nobody", "g", "i0", "zz", 0.1)],
        [("u1", "g", "i3", "i1", 0.1), ("u0", "g", "zz", "i1", 0.1),
         ("nobody", "g", "i0", "i1", 0.1)],
    ])
    def test_first_bad_row_is_reported_as_the_oracle_does(self, rows):
        _, _, truth = self._fixture()
        cset = comparison_set(rows)
        with pytest.raises(ValueError) as want:
            oracle_true_classes(truth, cset, 0.05)
        with pytest.raises(ValueError) as got:
            true_classes(truth, cset, 0.05)
        assert str(got.value) == str(want.value)


def oracle_true_classes(truth, cset, tie_epsilon):
    """The per-comparison loop that true_classes replaced."""
    out = []
    thetas = user_theta(truth)
    for c in rows_of(cset):
        if c.user_id not in thetas:
            raise ValueError(f"unknown user {c.user_id!r}")
        theta = thetas[c.user_id]
        if c.left_item not in theta or c.right_item not in theta:
            raise ValueError(
                f"unknown item in comparison ({c.left_item!r}, {c.right_item!r})"
            )
        out.append(classify(theta[c.right_item] - theta[c.left_item], tie_epsilon))
    return out


@pytest.mark.parametrize("config", [
    STANDARD,
    SimConfig(n_items=12, feature_dim=3, n_users=10, comparisons_per_user=80,
              noise_std=0.3, n_groups=2, opposed_groups=True, group_sizes=(7, 3),
              archetype_mix={"neutral": 4, "conservative": 2, "extreme": 2,
                             "malicious": 2}, seed=5),
    SimConfig(n_items=2, feature_dim=1, n_users=3, comparisons_per_user=20,
              weight_scale=0.05, user_jitter=0.0, seed=8),
])
@pytest.mark.parametrize("tie_epsilon", [0.0, 0.05, 0.3])
def test_true_classes_match_oracle_on_simulated_populations(config, tie_epsilon):
    cset, _, truth = generate(config)
    assert true_classes(truth, cset, tie_epsilon) == oracle_true_classes(
        truth, cset, tie_epsilon
    )


def test_true_classes_match_oracle_on_band_edges_and_partial_truths():
    # Differences exactly at +-tie_epsilon are ties; users compare different
    # items, and the items a user never compares hold NaN.
    nan = float("nan")
    truth = utilities(("u", "v"), ("a", "b", "c", "d", "e"), [
        [0.0, 0.05, -0.05, 0.5, nan],
        [nan, 0.25, 0.25, nan, -1.0],
    ])
    rows = [("u", "g", "a", "b", 0.0), ("v", "g", "e", "b", 0.0), ("u", "g", "a", "c", 0.0),
            ("v", "g", "b", "c", 0.0), ("u", "g", "d", "c", 0.0), ("u", "g", "b", "a", 0.0)]
    cset = comparison_set(rows)
    labels = true_classes(truth, cset, 0.05)
    assert labels == oracle_true_classes(truth, cset, 0.05)
    assert labels == ["tie", "right", "tie", "tie", "left", "tie"]


class TestConfigValidation:
    def test_counts_must_sum(self):
        with pytest.raises(ValueError, match="sum"):
            SimConfig(n_items=5, feature_dim=2, n_users=3, comparisons_per_user=5,
                      archetype_mix={"neutral": 1})

    def test_unknown_archetype(self):
        with pytest.raises(ValueError, match="unknown archetypes"):
            SimConfig(n_items=5, feature_dim=2, n_users=1, comparisons_per_user=5,
                      archetype_mix={"chaotic": 1})

    def test_too_few_items(self):
        with pytest.raises(ValueError, match="n_items"):
            SimConfig(n_items=1, feature_dim=2, n_users=1, comparisons_per_user=5)

    def test_opposed_needs_two_groups(self):
        with pytest.raises(ValueError, match="opposed"):
            SimConfig(n_items=5, feature_dim=2, n_users=2, comparisons_per_user=5,
                      opposed_groups=True, n_groups=3)

    def test_group_sizes_validated(self):
        with pytest.raises(ValueError, match="group_sizes"):
            SimConfig(n_items=5, feature_dim=2, n_users=4, comparisons_per_user=5,
                      n_groups=2, group_sizes=(1, 1))

    def test_negative_group_size_rejected(self):
        # (-1, 5) sums to n_users; generate would fail in numpy's repeat.
        with pytest.raises(ValueError, match=r"group_sizes must be >= 0, got \(-1, 5\)"):
            SimConfig(n_items=5, feature_dim=2, n_users=4, comparisons_per_user=5,
                      n_groups=2, group_sizes=(-1, 5))
