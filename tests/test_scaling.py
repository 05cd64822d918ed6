"""Min-max / normalization postconditions and Mehestan scaling behavior."""

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equirank.dataset import ComparisonSet
from equirank.gbt import GbtConfig, fit_users, write_individual_scores
from equirank.scaling import (
    Affines,
    mehestan_scale,
    minmax_scale,
    normalization_scale,
    parse_scaled_comparisons,
    write_scaled_comparisons,
)
from gbt_oracle import by_item, expected_comparison
from row_view import comparison_set, rows_of, take


def _one_user(scores, user="u1"):
    return comparison_set(
        [(user, "g", "a", f"b{i}", float(s)) for i, s in enumerate(scores)]
    )


def _scores(scaled, user=None):
    return [c.score for c in rows_of(scaled) if user is None or c.user_id == user]


class TestMinMax:
    def test_hand_example(self):
        scaled = minmax_scale(_one_user([0.0, 0.5, 1.0]))
        assert _scores(scaled) == [-1.0, 0.0, 1.0]

    def test_already_extremal_is_identity(self):
        scaled = minmax_scale(_one_user([-1.0, 1.0]))
        assert _scores(scaled) == [-1.0, 1.0]

    def test_degenerate_maps_to_zero(self):
        scaled = minmax_scale(_one_user([0.3, 0.3]))
        assert _scores(scaled) == [0.0, 0.0]

    def test_endpoints_attained(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            vals = rng.uniform(-1, 1, int(rng.integers(2, 20)))
            if vals.max() == vals.min():
                continue
            out = np.array(_scores(minmax_scale(_one_user(vals))))
            assert out.min() == -1.0
            assert out.max() == 1.0
            assert np.all((-1.0 <= out) & (out <= 1.0))

    def test_per_user_isolation(self):
        base = comparison_set(
            [("u1", "g", "a", "b", 0.2), ("u1", "g", "a", "c", -0.4),
             ("u2", "g", "a", "b", 0.9), ("u2", "g", "a", "c", 0.1)]
        )
        edited = comparison_set(
            [("u1", "g", "a", "b", 0.7), ("u1", "g", "a", "c", -0.9),
             ("u2", "g", "a", "b", 0.9), ("u2", "g", "a", "c", 0.1)]
        )
        assert _scores(minmax_scale(base), "u2") == _scores(minmax_scale(edited), "u2")

    def test_order_preserved_within_user(self):
        rng = np.random.default_rng(22)
        vals = rng.uniform(-1, 1, 15)
        out = np.array(_scores(minmax_scale(_one_user(vals))))
        assert np.array_equal(np.argsort(vals, kind="stable"), np.argsort(out, kind="stable"))


class TestNormalization:
    def test_hand_example(self):
        # [0, 2, 4] is out of the comparison range, so use the equivalent
        # shape [-0.5, 0, 0.5]: z = (-1.2247, 0, 1.2247), then / max|z|.
        scaled = normalization_scale(_one_user([-0.5, 0.0, 0.5]))
        np.testing.assert_allclose(_scores(scaled), [-1.0, 0.0, 1.0], atol=1e-12)

    def test_constant_maps_to_zero(self):
        scaled = normalization_scale(_one_user([0.7, 0.7, 0.7]))
        assert _scores(scaled) == [0.0, 0.0, 0.0]

    def test_bounds_and_endpoint(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            vals = rng.uniform(-1, 1, int(rng.integers(2, 25)))
            out = np.array(_scores(normalization_scale(_one_user(vals))))
            assert np.all((-1.0 <= out) & (out <= 1.0))
            if vals.std() > 0:
                assert np.isclose(np.abs(out).max(), 1.0)

    def test_mean_zero_after_rescale(self):
        rng = np.random.default_rng(24)
        for _ in range(50):
            vals = rng.uniform(-1, 1, int(rng.integers(2, 25)))
            out = np.array(_scores(normalization_scale(_one_user(vals))))
            assert abs(out.mean()) < 1e-12

    def test_order_preserved_within_user(self):
        rng = np.random.default_rng(25)
        vals = rng.uniform(-1, 1, 12)
        out = np.array(_scores(normalization_scale(_one_user(vals))))
        assert np.array_equal(np.argsort(vals, kind="stable"), np.argsort(out, kind="stable"))


def test_scaled_tag_validated(tmp_path):
    with pytest.raises(ValueError, match="scaler tag must be one of"):
        write_scaled_comparisons(comparison_set([("u", "g", "a", "b", 0.1)]),
                                 tmp_path / "scaled.csv", "bogus")
    assert not (tmp_path / "scaled.csv").exists()


def test_scaled_csv_round_trip(tmp_path):
    scaled = minmax_scale(_one_user([0.1, -0.6, 0.9]))
    path = tmp_path / "scaled.csv"
    write_scaled_comparisons(scaled, path, "minmax")
    back = parse_scaled_comparisons(path)
    with path.open(newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert header[-1] == "scaler" and {row[-1] for row in rows} == {"minmax"}
    assert rows_of(back) == rows_of(scaled)


def _pair_rows(user, theta, items, rng, n):
    rows = []
    lefts = rng.integers(0, len(items), n)
    rights = rng.integers(0, len(items) - 1, n)
    rights = rights + (rights >= lefts)
    for l, r in zip(lefts, rights):
        rows.append(
            (user, "g", items[l], items[r], expected_comparison(theta[r] - theta[l]))
        )
    return rows


def _affine(affines, user):
    """(s, tau) of `user`."""
    k = affines.user_ids.index(user)
    return affines.s[k], affines.tau[k]


class TestMehestan:
    def test_identical_users_get_identity_affine(self):
        rng = np.random.default_rng(30)
        items = [f"i{k}" for k in range(8)]
        theta = rng.uniform(-1, 1, 8)
        rows_a = _pair_rows("uA", theta, items, np.random.default_rng(1), 150)
        rows_b = [("uB",) + r[1:] for r in rows_a]
        scaled, affines, fits = mehestan_scale(comparison_set(rows_a + rows_b))
        assert _affine(affines, "uA") == (1.0, 0.0)
        s_b, tau_b = _affine(affines, "uB")
        assert s_b == pytest.approx(1.0, abs=1e-9)
        assert tau_b == pytest.approx(0.0, abs=1e-9)
        theta_by_user = {user: by_item(fits, user) for user in fits.user_ids}
        for item in items:
            assert theta_by_user["uA"][item] == pytest.approx(
                theta_by_user["uB"][item], abs=1e-8
            )

    def test_affine_relation_recovered(self):
        rng = np.random.default_rng(31)
        items = [f"i{k:02d}" for k in range(20)]
        theta_a = rng.uniform(-1, 1, 20)
        theta_b = 2.0 * theta_a + 3.0
        rows = _pair_rows("uA", theta_a, items, np.random.default_rng(2), 600)
        rows += _pair_rows("uB", theta_b, items, np.random.default_rng(3), 600)
        scaled, affines, fits = mehestan_scale(comparison_set(rows))
        assert _affine(affines, "uA")[0] / _affine(affines, "uB")[0] == pytest.approx(2.0, rel=0.1)
        theta_by_user = {user: by_item(fits, user) for user in fits.user_ids}
        for item in items:
            assert theta_by_user["uA"][item] == pytest.approx(
                theta_by_user["uB"][item], abs=0.05
            )

    def test_scaled_comparison_scores_clipped(self):
        rng = np.random.default_rng(32)
        items = [f"i{k}" for k in range(6)]
        rows = _pair_rows("uA", rng.uniform(-3, 3, 6), items, rng, 80)
        rows += _pair_rows("uB", rng.uniform(-3, 3, 6), items, rng, 80)
        scaled, _, _ = mehestan_scale(comparison_set(rows))
        assert all(-1.0 <= c.score <= 1.0 for c in rows_of(scaled))
        assert type(scaled) is ComparisonSet

    def test_scale_is_positive_and_order_preserved(self):
        rng = np.random.default_rng(33)
        items = [f"i{k}" for k in range(7)]
        rows = _pair_rows("uA", rng.uniform(-1, 1, 7), items, rng, 100)
        rows += _pair_rows("uB", rng.uniform(-2, 2, 7), items, rng, 100)
        _, affines, fits = mehestan_scale(comparison_set(rows))
        assert (affines.s > 0).all()
        # s > 0 implies theta' has the same rank order as theta per user.
        cset = comparison_set(rows)
        for user in fits.user_ids:
            raw, scaled = by_item(fit_users(take(cset, user))), by_item(fits, user)
            assert list(raw) == list(scaled)
            order_raw = np.argsort(list(raw.values()), kind="stable")
            assert np.array_equal(order_raw, np.argsort(list(scaled.values()), kind="stable"))

    def test_collaboration_and_bounded_influence(self):
        # Changing one user's data changes another user's affine (the
        # scaling is collaborative), but the change stays bounded by the
        # robust aggregation: each user contributes one scale vote and a
        # clipped set of translation candidates.
        rng = np.random.default_rng(34)
        items = [f"i{k}" for k in range(10)]
        theta = rng.uniform(-1.5, 1.5, 10)
        rows_a = _pair_rows("uA", theta, items, np.random.default_rng(4), 200)
        rows_b = _pair_rows("uB", theta * 1.3, items, np.random.default_rng(5), 200)
        rows_c = _pair_rows("uC", theta, items, np.random.default_rng(6), 200)
        rows_c_wild = _pair_rows("uC", theta * 10.0 + 5.0, items, np.random.default_rng(6), 200)

        _, base_affines, _ = mehestan_scale(comparison_set(rows_a + rows_b + rows_c))
        _, wild_affines, _ = mehestan_scale(comparison_set(rows_a + rows_b + rows_c_wild))
        (base_s, base_tau), (wild_s, wild_tau) = (
            _affine(affines, "uB") for affines in (base_affines, wild_affines)
        )
        assert (base_s, base_tau) != (wild_s, wild_tau)
        # One voter out of two moved; log-scale influence is clipped at
        # ratio_clip around the QrMed center, which itself moves <= 1/W.
        assert abs(np.log(wild_s) - np.log(base_s)) <= 1.0 + 0.5 + 1e-9
        assert abs(wild_tau - base_tau) <= 2.0

    def test_fewer_than_two_users_rejected(self):
        with pytest.raises(ValueError, match=">= 2 users"):
            mehestan_scale(_one_user([0.1, 0.2]))

    def test_multiple_criteria_rejected(self):
        rows = [("uA", "g", "a", "b", 0.1), ("uB", "h", "a", "b", 0.1)]
        with pytest.raises(ValueError, match="criterion"):
            mehestan_scale(comparison_set(rows))

    def test_no_common_items_defaults_to_identity(self):
        rows = [("uA", "g", "a1", "a2", 0.4), ("uA", "g", "a2", "a3", 0.2),
                ("uB", "g", "b1", "b2", -0.3), ("uB", "g", "b2", "b3", 0.6)]
        _, affines, _ = mehestan_scale(comparison_set(rows))
        s_b, tau_b = _affine(affines, "uB")
        assert s_b == pytest.approx(1.0)
        assert tau_b == pytest.approx(0.0)


def test_mehestan_resilience_params_forwarded():
    # Larger weight pulls the single scale vote toward 1 (log-ratio 0).
    rng = np.random.default_rng(36)
    items = [f"i{k}" for k in range(12)]
    theta = rng.uniform(-1, 1, 12)
    rows = _pair_rows("uA", theta, items, np.random.default_rng(7), 300)
    rows += _pair_rows("uB", 2.0 * theta, items, np.random.default_rng(8), 300)
    cset = comparison_set(rows)
    _, soft, _ = mehestan_scale(cset, resilience_weight=1.0)
    _, hard, _ = mehestan_scale(cset, resilience_weight=100.0)
    s_soft, s_hard = _affine(soft, "uB")[0], _affine(hard, "uB")[0]
    assert abs(np.log(s_hard)) < abs(np.log(s_soft))
    assert s_soft == pytest.approx(0.5, rel=0.1)


def test_nonpositive_scale_rejected():
    with pytest.raises(ValueError, match="scale must be positive, got 0.0"):
        Affines(("uA", "uB", "uC"), np.array([1.0, 0.0, -2.0]), np.zeros(3),
                np.zeros(3, dtype=np.intp), np.zeros(3, dtype=np.intp), 0)


def test_nonpositive_resilience_weight_rejected():
    rows = [("uA", "g", "a", "b", 0.5), ("uB", "g", "a", "b", 0.5)]
    with pytest.raises(ValueError, match="resilience_weight must be positive"):
        mehestan_scale(comparison_set(rows), resilience_weight=0.0)


def test_gbt_config_forwarded():
    rows = [("uA", "g", "a", "b", 0.5), ("uA", "g", "b", "c", 0.5),
            ("uB", "g", "a", "b", 0.5), ("uB", "g", "b", "c", 0.5)]
    cset = comparison_set(rows)
    _, affines, fits = mehestan_scale(cset, GbtConfig(lam=7.0))
    # The fits are lam = 7's, rescaled by their users' affines.
    raw = fit_users(cset, GbtConfig(lam=7.0))
    assert raw.theta.tobytes() != fit_users(cset).theta.tobytes()
    scaled = affines.s[raw.user] * raw.theta + affines.tau[raw.user]
    assert fits.theta.tobytes() == scaled.tobytes()
    assert fits.grad_norm.tobytes() == raw.grad_norm.tobytes()


# Ids that csv_field quotes (a comma, a quote, CR, LF), non-ASCII ids and
# plain ones; no NUL, which csv.reader refuses before Python 3.11.
_quoted_ids = st.text(
    alphabet=st.one_of(
        st.sampled_from(',"\r\né'), st.characters(codec="utf-8", exclude_characters="\x00")
    ),
    max_size=4,
)


@given(users=st.lists(_quoted_ids, min_size=2, max_size=3, unique=True),
       items=st.lists(_quoted_ids, min_size=2, max_size=5, unique=True), data=st.data())
@settings(max_examples=60, deadline=None)
def test_theta_csv_round_trips(tmp_path_factory, users, items, data):
    rows = []
    for user in users:
        for _ in range(data.draw(st.integers(1, 6))):
            left, right = data.draw(st.permutations(items))[:2]
            rows.append((user, "g", left, right, data.draw(st.floats(-1.0, 1.0))))
    cset = comparison_set(rows)
    config = GbtConfig(tol=1e-6, max_iter=300)
    _, _, fits = mehestan_scale(cset, config)
    # Each user's fit holds its set's sorted vocabulary and one float64 per item.
    assert fits.theta.dtype == np.float64
    for user in cset.user_ids:
        own = take(cset, user)
        raw = fit_users(own, config)
        assert list(by_item(raw)) == list(own.item_ids) == list(by_item(fits, user))
        assert raw.theta.dtype == np.float64 and raw.theta.shape == (len(own.item_ids),)

    path = tmp_path_factory.mktemp("theta") / "theta.csv"
    write_individual_scores(fits, path)
    with path.open(newline="", encoding="utf-8") as fh:
        header, *got = csv.reader(fh)
    assert header == ["user_id", "item_id", "theta"]
    want = [(fits.user_ids[u], fits.item_ids[i], value)
            for u, i, value in zip(fits.user.tolist(), fits.item.tolist(), fits.theta.tolist())]
    # The rows are the scores' triples in user-then-item order, theta bit for bit.
    keys = [(user, item) for user, item, _ in got]
    assert keys == [(user, item) for user, item, _ in want] == sorted(keys)
    read_back = np.array([float(value) for _, _, value in got])
    assert read_back.tobytes() == np.array([value for _, _, value in want]).tobytes()
