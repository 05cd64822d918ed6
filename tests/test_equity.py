"""Classification, per-user metrics, and the three equity aggregates."""

import numpy as np
import pytest

from equirank.equity import Predictions, build_report, gini, lorenz_curve, max_gap, std_dev
from equity_oracle import classify
from row_view import Comparison, comparison_set


class TestClassify:
    def test_negative_is_left(self):
        assert classify(-0.5, 0.05) == "left"

    def test_within_band_is_tie(self):
        assert classify(0.01, 0.05) == "tie"

    def test_boundary_inclusive(self):
        assert classify(0.05, 0.05) == "tie"
        assert classify(-0.05, 0.05) == "tie"

    def test_positive_is_right(self):
        assert classify(0.0500001, 0.05) == "right"

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            classify(float("nan"), 0.05)


def _pred(user, truth, predicted, i=0):
    return (Comparison(user, "g", f"l{i}", f"r{i}", truth), predicted)


def _predictions(pairs):
    """Predictions over the rows of (Comparison, predicted difference) pairs."""
    return Predictions(
        comparison_set([c for c, _ in pairs]), np.array([d for _, d in pairs], dtype=float)
    )


class TestPerUserMetrics:
    def test_perfect_predictions(self):
        preds = [_pred("u1", 0.5, 0.4, 0), _pred("u1", -0.5, -0.2, 1),
                 _pred("u1", 0.0, 0.01, 2)]
        report = build_report(_predictions(preds), 0.05)
        assert report.user_ids == ("u1",)
        assert report.accuracy.tolist() == [1.0]
        assert report.recall.tolist() == [1.0]

    def test_half_right_single_class(self):
        # Truth classes (left, left), predicted (left, right): accuracy 1/2
        # and macro recall = recall(left) = 1/2 since only one class occurs.
        preds = [_pred("u1", -0.5, -0.4, 0), _pred("u1", -0.5, 0.4, 1)]
        report = build_report(_predictions(preds), 0.05)
        assert report.accuracy.tolist() == [0.5]
        assert report.recall.tolist() == [0.5]

    def test_all_zero_predictions_on_strong_truths(self):
        preds = [_pred("u1", 0.8, 0.0, 0), _pred("u1", -0.9, 0.0, 1)]
        report = build_report(_predictions(preds), 0.05)
        assert report.accuracy.tolist() == [0.0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_report(_predictions([]), 0.05)

    def test_recall_bounds(self):
        rng = np.random.default_rng(50)
        preds = [
            _pred(f"u{rng.integers(0, 4)}", float(rng.uniform(-1, 1)),
                  float(rng.uniform(-1, 1)), i)
            for i in range(200)
        ]
        recall = build_report(_predictions(preds), 0.05).recall
        assert ((0.0 <= recall) & (recall <= 1.0)).all()


class TestMaxGap:
    def test_hand_example(self):
        assert max_gap(np.array([0.5, 0.57, 0.52])) == pytest.approx(0.07)

    def test_all_equal(self):
        assert max_gap(np.array([0.4, 0.4])) == 0.0

    def test_single_user(self):
        assert max_gap(np.array([0.9])) == 0.0

    def test_translation_invariant(self):
        values = np.array([0.1, 0.6, 0.3])
        shifted = values + 0.2
        assert max_gap(shifted) == pytest.approx(max_gap(values))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            max_gap(np.array([]))


class TestStdDev:
    def test_hand_example(self):
        assert std_dev(np.array([0.4, 0.6])) == pytest.approx(0.1)

    def test_all_equal(self):
        assert std_dev(np.array([0.5, 0.5, 0.5])) == 0.0

    def test_translation_invariant(self):
        rng = np.random.default_rng(51)
        values = np.array([float(rng.uniform(0, 1)) for _ in range(9)])
        shifted = values + 3.0
        assert std_dev(shifted) == pytest.approx(std_dev(values), abs=1e-12)


class TestGini:
    def test_hand_example(self):
        assert gini(np.array([0.4, 0.6])) == pytest.approx(0.1)

    def test_all_equal_is_zero(self):
        assert gini(np.array([0.3, 0.3, 0.3])) == 0.0

    def test_scale_invariant(self):
        rng = np.random.default_rng(52)
        values = np.array([float(rng.uniform(0.1, 1)) for _ in range(8)])
        scaled = 7.3 * values
        assert gini(scaled) == pytest.approx(gini(values), abs=1e-12)

    def test_zero_mean_rejected(self):
        with pytest.raises(ValueError):
            gini(np.array([0.0, 0.0]))

    def test_double_sum_equals_sorted_formulation(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            n = int(rng.integers(2, 40))
            v = rng.uniform(0.01, 1.0, n)
            srt = np.sort(v)
            i = np.arange(1, n + 1)
            sorted_form = float(np.sum((2 * i - n - 1) * srt) / (n**2 * v.mean()))
            assert gini(v) == pytest.approx(sorted_form, abs=1e-12)


class TestLorenz:
    def test_equal_values_on_diagonal(self):
        assert lorenz_curve(np.array([0.5, 0.5])).tolist() == [[0.0, 0.0], [0.5, 0.5], [1.0, 1.0]]

    def test_hand_example(self):
        points = lorenz_curve(np.array([0.2, 0.8])).tolist()
        assert points[0] == [0.0, 0.0]
        assert points[1] == [0.5, pytest.approx(0.2)]
        assert points[2] == [1.0, pytest.approx(1.0)]

    def test_below_diagonal_and_monotone(self):
        rng = np.random.default_rng(54)
        for _ in range(50):
            n = int(rng.integers(1, 30))
            values = np.array([float(rng.uniform(0.0, 1.0) + 0.01) for _ in range(n)])
            points = lorenz_curve(values)
            assert points[0].tolist() == [0.0, 0.0]
            assert points[-1][0] == 1.0
            assert points[-1][1] == pytest.approx(1.0)
            fracs, shares = points.T
            assert all(np.diff(fracs) > 0)
            assert all(np.diff(shares) >= 0)
            assert all(shares <= fracs + 1e-12)

    def test_gini_lorenz_consistency(self):
        # For this discrete convention, Gini == 1 - 2 * trapezoid area.
        rng = np.random.default_rng(55)
        for _ in range(50):
            n = int(rng.integers(2, 30))
            values = np.array([float(rng.uniform(0.05, 1.0)) for _ in range(n)])
            points = lorenz_curve(values)
            area = np.trapezoid(points[:, 1], points[:, 0])
            assert gini(values) == pytest.approx(1.0 - 2.0 * area, abs=1e-9)


def _brute_force_report(predictions, tie_epsilon):
    """Plain-Python recomputation of the report aggregates."""
    def cls(v):
        if v < -tie_epsilon:
            return "left"
        if v > tie_epsilon:
            return "right"
        return "tie"

    users = sorted({c.user_id for c, _ in predictions})
    acc = {}
    for u in users:
        rows = [(cls(c.score), cls(d)) for c, d in predictions if c.user_id == u]
        acc[u] = sum(1 for t, p in rows if t == p) / len(rows)
    vals = [acc[u] for u in users]
    n = len(vals)
    mean = sum(vals) / n
    gap = max(max(a - b for a in vals) for b in vals)
    var = sum((v - mean) ** 2 for v in vals) / n
    g = sum(abs(a - b) for a in vals for b in vals) / (2 * n * n * mean)
    return acc, gap, var**0.5, g


def test_report_matches_brute_force_script():
    rng = np.random.default_rng(56)
    predictions = []
    for i in range(300):
        user = f"u{rng.integers(0, 6)}"
        truth = float(rng.uniform(-1, 1))
        pred = truth + float(rng.normal(0, 0.4))
        predictions.append((Comparison(user, "g", f"l{i}", f"r{i}", truth), pred))
    report = build_report(_predictions(predictions), 0.05)
    acc, gap, std, g = _brute_force_report(predictions, 0.05)
    assert dict(zip(report.user_ids, report.accuracy.tolist())) == pytest.approx(acc)
    assert report.acc_max_gap == pytest.approx(gap, abs=1e-12)
    assert report.acc_std == pytest.approx(std, abs=1e-12)
    assert report.gini_accuracy == pytest.approx(g, abs=1e-12)


def test_report_perfect_predictions():
    predictions = [
        _pred("u1", 0.5, 0.5, 0), _pred("u1", -0.5, -0.5, 1),
        _pred("u2", 0.9, 0.9, 2), _pred("u2", 0.0, 0.0, 3),
    ]
    report = build_report(_predictions(predictions), 0.05)
    assert report.overall_accuracy == 1.0
    assert report.overall_recall == 1.0
    assert report.acc_max_gap == 0.0
    assert report.acc_std == 0.0
    assert report.gini_accuracy == 0.0
    assert report.n_users == 2
    assert report.mean_accuracy == 1.0


@pytest.mark.parametrize("value", [np.nan, -np.inf])
def test_report_refuses_a_non_finite_prediction(value):
    predictions = _predictions([_pred("u1", 0.5, 0.5, 0), _pred("u1", 0.5, value, 1)])
    with pytest.raises(ValueError, match=f"^value must be finite, got {value}$"):
        build_report(predictions, 0.05)


def test_report_permutation_invariant():
    rng = np.random.default_rng(57)
    predictions = [
        _pred(f"u{rng.integers(0, 5)}", float(rng.uniform(-1, 1)),
              float(rng.uniform(-1, 1)), i)
        for i in range(120)
    ]
    report = build_report(_predictions(predictions), 0.05)
    shuffled = list(predictions)
    rng.shuffle(shuffled)
    report2 = build_report(_predictions(shuffled), 0.05)
    assert report.overall_accuracy == report2.overall_accuracy
    assert report.acc_max_gap == report2.acc_max_gap
    assert report.acc_std == pytest.approx(report2.acc_std, abs=1e-15)
    assert report.gini_accuracy == pytest.approx(report2.gini_accuracy, abs=1e-15)


def test_report_overall_pools_comparisons():
    # u1 has 3 comparisons (all right), u2 has 1 (wrong): pooled 3/4,
    # per-user mean (1 + 0)/2.
    predictions = [
        _pred("u1", 0.5, 0.6, 0), _pred("u1", 0.5, 0.7, 1), _pred("u1", 0.5, 0.8, 2),
        _pred("u2", 0.5, -0.6, 3),
    ]
    report = build_report(_predictions(predictions), 0.05)
    assert report.overall_accuracy == 0.75
    assert report.mean_accuracy == 0.5


def test_report_all_zero_accuracy_falls_back_to_equality():
    # Every user is predicted wrong: all are served equally, where gini and
    # lorenz_curve refuse the zero mean.
    predictions = [_pred("u1", 0.5, -0.5, 0), _pred("u2", -0.5, 0.5, 1)]
    report = build_report(_predictions(predictions), 0.05)
    assert report.accuracy.tolist() == [0.0, 0.0]
    assert (report.acc_max_gap, report.acc_std, report.gini_accuracy) == (0.0, 0.0, 0.0)
    assert report.lorenz.tolist() == [[0.0, 0.0], [0.5, 0.5], [1.0, 1.0]]
    with pytest.raises(ValueError, match="zero mean"):
        gini(report.accuracy)
    with pytest.raises(ValueError, match="zero mean"):
        lorenz_curve(report.accuracy)
