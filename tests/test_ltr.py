"""Linear pairwise scorer: loss menu, analytic gradients, SGD trainer.

`score`, `predict_diff` and `loss` come from `ltr_oracle`, the model one
comparison at a time; the trainer's step gradient and `train` itself are
checked against them.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equirank.dataset import Comparison, FeatureTable, comparison_set
from equirank.ltr import (
    LossWeights,
    ModelParams,
    TrainConfig,
    load_model,
    predict_all,
    save_model,
    train,
)
from ltr_oracle import (
    loss,
    loss_gradient,
    oracle_train,
    predict_diff,
    score,
    step_gradient,
)


def _params(w, offsets=None):
    return ModelParams(np.array(w, dtype=float),
                       {u: np.array(o, dtype=float) for u, o in (offsets or {}).items()})


def _batch_of(d_pairs):
    """Build single-feature batch elements with prescribed (diff, target)."""
    batch = []
    for i, (diff, r) in enumerate(d_pairs):
        c = Comparison("u1", "g", f"l{i}", f"r{i}", r)
        batch.append((c, np.array([0.0]), np.array([diff])))
    return batch


class TestScore:
    def test_dot_product(self):
        assert score(_params([1.0, 0.0]), "u", np.array([3.0, 5.0])) == 3.0

    def test_offset_added(self):
        p = _params([0.0, 0.0], {"u": [1.0, 1.0]})
        assert score(p, "u", np.array([2.0, 3.0])) == 5.0

    def test_unknown_user_falls_back_to_shared(self):
        p = _params([1.0, 1.0], {"known": [5.0, 5.0]})
        assert score(p, "stranger", np.array([1.0, 1.0])) == 2.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            score(_params([1.0, 0.0]), "u", np.array([1.0]))


class TestPredictDiff:
    def test_identical_features_give_zero(self):
        x = np.array([0.3, -0.7])
        assert predict_diff(_params([1.0, 2.0]), "u", x, x) == 0.0

    def test_swap_negates(self):
        rng = np.random.default_rng(40)
        p = _params(rng.normal(size=3), {"u": rng.normal(size=3)})
        a, b = rng.normal(size=3), rng.normal(size=3)
        assert predict_diff(p, "u", a, b) == -predict_diff(p, "u", b, a)

    def test_one_dimensional(self):
        assert predict_diff(_params([1.0]), "u", np.array([0.0]), np.array([0.4])) == 0.4


class TestLoss:
    def test_perfect_fit_mse_is_zero(self):
        config = TrainConfig(loss_weights=LossWeights(mse=1.0))
        w = np.array([1.0])
        batch = []
        for i, r in enumerate([-0.5, 0.2, 0.9]):
            c = Comparison("u1", "g", f"l{i}", f"r{i}", r)
            batch.append((c, np.array([0.0]), np.array([r])))
        assert loss(_params(w), batch, config) == 0.0

    def test_contrastive_hinge_at_zero_diff(self):
        config = TrainConfig(
            loss_weights=LossWeights(contrastive=1.0), contrastive_margin=0.3
        )
        value = loss(_params([1.0]), _batch_of([(0.0, 0.8)]), config)
        assert value == pytest.approx(0.3)

    def test_bce_at_zero_diff(self):
        config = TrainConfig(loss_weights=LossWeights(bce=1.0))
        value = loss(_params([1.0]), _batch_of([(0.0, 0.8)]), config)
        assert value == pytest.approx(math.log(2.0), abs=1e-12)

    def test_hinges_skip_ties(self):
        config = TrainConfig(
            loss_weights=LossWeights(ranking=1.0, contrastive=1.0), tie_epsilon=0.05
        )
        assert loss(_params([1.0]), _batch_of([(0.0, 0.01)]), config) == 0.0

    def test_ranking_hinge(self):
        config = TrainConfig(loss_weights=LossWeights(ranking=1.0), ranking_margin=0.1)
        # Wrong-signed prediction of -0.2 against a positive target.
        assert loss(_params([1.0]), _batch_of([(-0.2, 0.8)]), config) == pytest.approx(0.3)
        # Confident correct prediction clears the margin.
        assert loss(_params([1.0]), _batch_of([(0.5, 0.8)]), config) == 0.0

    def test_embedding_penalty(self):
        config = TrainConfig(loss_weights=LossWeights(mse=1.0), embedding_l2=0.5)
        p = _params([1.0], {"u1": [2.0]})
        base = TrainConfig(loss_weights=LossWeights(mse=1.0))
        batch = _batch_of([(0.1, 0.1)])
        assert loss(p, batch, config) == pytest.approx(loss(p, batch, base) + 0.5 * 4.0)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            loss(_params([1.0]), [], TrainConfig())


def _random_batch(rng, dim, n, with_users=False):
    batch = []
    for i in range(n):
        user = f"u{rng.integers(0, 3)}" if with_users else "u1"
        r = float(rng.uniform(-0.95, 0.95))
        c = Comparison(user, "g", f"l{i}", f"r{i}", r)
        batch.append((c, rng.normal(size=dim), rng.normal(size=dim)))
    return batch


def _fd_gradient(params, batch, config, h=1e-6):
    grad_w = np.zeros(params.dim)
    for j in range(params.dim):
        hi = ModelParams(params.w.copy(), {u: o.copy() for u, o in params.user_offsets.items()})
        lo = ModelParams(params.w.copy(), {u: o.copy() for u, o in params.user_offsets.items()})
        hi.w[j] += h
        lo.w[j] -= h
        grad_w[j] = (loss(hi, batch, config) - loss(lo, batch, config)) / (2 * h)
    grad_off = {}
    for u in params.user_offsets:
        g = np.zeros(params.dim)
        for j in range(params.dim):
            hi = ModelParams(params.w.copy(), {v: o.copy() for v, o in params.user_offsets.items()})
            lo = ModelParams(params.w.copy(), {v: o.copy() for v, o in params.user_offsets.items()})
            hi.user_offsets[u][j] += h
            lo.user_offsets[u][j] -= h
            g[j] = (loss(hi, batch, config) - loss(lo, batch, config)) / (2 * h)
        grad_off[u] = g
    return grad_w, grad_off


def _away_from_kinks(params, batch, config):
    """Hinge checks need the margin gap bounded away from zero."""
    for c, xl, xr in batch:
        d = predict_diff(params, c.user_id, xl, xr)
        if abs(config.ranking_margin - np.sign(c.score) * d) < 1e-3:
            return False
        if abs(config.contrastive_margin - abs(d)) < 1e-3 or abs(d) < 1e-3:
            return False
        if abs(abs(c.score) - config.tie_epsilon) < 1e-3:
            return False
    return True


# Each loss alone, and all four together.
_WEIGHTS = {
    "mse": LossWeights(mse=1.0),
    "ranking": LossWeights(ranking=1.0),
    "bce": LossWeights(bce=1.0),
    "contrastive": LossWeights(contrastive=1.0),
    "mixed": LossWeights(mse=0.5, ranking=0.2, bce=1.5, contrastive=0.7),
}
each_weighting = pytest.mark.parametrize(
    "weights", list(_WEIGHTS.values()), ids=list(_WEIGHTS)
)


@each_weighting
def test_loss_gradient_matches_finite_differences(weights):
    """The trainer's step gradient vs central differences of the oracle loss."""
    rng = np.random.default_rng(41)
    config = TrainConfig(loss_weights=weights, embedding_l2=0.1)
    checked = 0
    while checked < 12:
        dim = int(rng.integers(2, 5))
        params = ModelParams(
            rng.normal(size=dim), {f"u{k}": rng.normal(size=dim) * 0.3 for k in range(3)}
        )
        batch = _random_batch(rng, dim, int(rng.integers(2, 8)), with_users=True)
        if not _away_from_kinks(params, batch, config):
            continue
        grad_w, grad_off = step_gradient(params, batch, config)
        fd_w, fd_off = _fd_gradient(params, batch, config)
        scale = max(np.linalg.norm(grad_w), np.linalg.norm(fd_w), 1e-8)
        assert np.linalg.norm(grad_w - fd_w) <= 1e-4 * scale
        for u in grad_off:
            scale = max(np.linalg.norm(grad_off[u]), np.linalg.norm(fd_off[u]), 1e-8)
            assert np.linalg.norm(grad_off[u] - fd_off[u]) <= 1e-4 * scale
        checked += 1


def _linear_fixture(rng, n=300, dim=3, n_items=20):
    items = [f"i{k:02d}" for k in range(n_items)]
    table = FeatureTable(dim, {i: rng.normal(size=dim) for i in items})
    w_true = rng.normal(size=dim)
    w_true *= 0.4 / np.linalg.norm(w_true)
    rows = []
    for _ in range(n):
        l, r = rng.choice(n_items, size=2, replace=False)
        diff = float(w_true @ (table.features[items[r]] - table.features[items[l]]))
        rows.append(("u1", "g", items[l], items[r], float(np.clip(diff, -1, 1))))
    return comparison_set(rows), table


class TestTrain:
    def test_loss_drops_on_realizable_data(self):
        rng = np.random.default_rng(42)
        cset, table = _linear_fixture(rng)
        config = TrainConfig(loss_weights=LossWeights(mse=1.0), learning_rate=0.1,
                             epochs=40, batch_size=32, seed=0)
        result = train(cset, table, config)
        assert result.loss_trace[-1] < 0.1 * result.loss_trace[0]

    def test_zero_epochs_returns_zero_init(self):
        rng = np.random.default_rng(43)
        cset, table = _linear_fixture(rng, n=50)
        config = TrainConfig(epochs=0)
        result = train(cset, table, config)
        assert np.all(result.params.w == 0.0)
        assert result.params.user_offsets == {}
        assert len(result.loss_trace) == 1

    def test_same_seed_is_bitwise_identical(self):
        rng = np.random.default_rng(44)
        cset, table = _linear_fixture(rng, n=120)
        config = TrainConfig(loss_weights=LossWeights(mse=1.0, contrastive=0.5),
                             epochs=10, seed=9, use_user_embeddings=True,
                             embedding_l2=1e-4)
        a = train(cset, table, config)
        b = train(cset, table, config)
        assert np.array_equal(a.params.w, b.params.w)
        for u in a.params.user_offsets:
            assert np.array_equal(a.params.user_offsets[u], b.params.user_offsets[u])

    def test_missing_feature_names_item(self):
        cset = comparison_set([("u1", "g", "a", "ghost", 0.1), ("u1", "g", "a", "b", 0.1)])
        table = FeatureTable(2, {"a": np.zeros(2), "b": np.zeros(2)})
        with pytest.raises(ValueError, match="ghost"):
            train(cset, table, TrainConfig())

    def test_divergence_suggests_smaller_learning_rate(self):
        rng = np.random.default_rng(45)
        cset, table = _linear_fixture(rng, n=100)
        config = TrainConfig(loss_weights=LossWeights(mse=1.0), learning_rate=1e6,
                             epochs=30)
        with pytest.raises(ValueError, match="learning_rate"):
            train(cset, table, config)

    def test_embeddings_populated_only_when_enabled(self):
        rng = np.random.default_rng(46)
        cset, table = _linear_fixture(rng, n=60)
        off = train(cset, table, TrainConfig(epochs=2)).params
        on = train(cset, table, TrainConfig(epochs=2, use_user_embeddings=True)).params
        assert off.user_offsets == {}
        assert set(on.user_offsets) == {"u1"}

    def test_empty_set_rejected(self):
        table = FeatureTable(2, {"a": np.zeros(2)})
        with pytest.raises(ValueError, match="empty comparison set"):
            train(comparison_set([]), table, TrainConfig(epochs=0))


@each_weighting
def test_step_gradient_matches_oracle_at_zero(weights):
    """At w = offsets = 0 every predicted difference is exactly 0, on the
    contrastive kink; ties at exactly +-tie_epsilon sit on the hinges' tie
    boundary. The step takes the oracle's one-sided choices there."""
    rng = np.random.default_rng(50)
    config = TrainConfig(loss_weights=weights, tie_epsilon=0.05, embedding_l2=0.1)
    params = ModelParams(np.zeros(3), {"u0": np.zeros(3), "u1": np.zeros(3)})
    batch = [
        (Comparison(f"u{i % 2}", "g", f"l{i}", f"r{i}", r), rng.normal(size=3),
         rng.normal(size=3))
        for i, r in enumerate([0.0, 0.05, -0.05, 0.5, -0.7, 0.05])
    ]
    grad_w, grad_off = step_gradient(params, batch, config)
    oracle_w, oracle_off = loss_gradient(params, batch, config)
    np.testing.assert_allclose(grad_w, oracle_w, rtol=1e-12, atol=1e-15)
    for u in oracle_off:
        np.testing.assert_allclose(grad_off[u], oracle_off[u], rtol=1e-12, atol=1e-15)


# --- train against the earlier loop, bit for bit ------------------------------

def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def _assert_train_matches_oracle(cset, table, config):
    expected = oracle_train(cset, table, config)
    result = train(cset, table, config)
    assert _bits(result.params.w) == _bits(expected.params.w)
    assert result.params.user_offsets.keys() == expected.params.user_offsets.keys()
    for u, offset in expected.params.user_offsets.items():
        assert _bits(result.params.user_offsets[u]) == _bits(offset)
    assert _bits(result.loss_trace) == _bits(expected.loss_trace)


def _oracle_case(rng, scores, n_users, dim=3, n_items=5):
    """Rows in the order given; users interleave (u0, u1, ..., u0, ...)."""
    table = FeatureTable(dim, {f"i{k}": rng.uniform(-1, 1, size=dim) for k in range(n_items)})
    rows = []
    for i, r in enumerate(scores):
        left, right = rng.choice(n_items, size=2, replace=False)
        rows.append((f"u{i % n_users}", "g", f"i{left}", f"i{right}", r))
    return comparison_set(rows), table


def test_train_matches_oracle_on_grid():
    """Each loss alone and all four; scores at 0 and exactly +-tie_epsilon;
    embeddings off, on without and with L2; batch sizes 1, 5 (does not
    divide 12) and 40 (> 12); one user and three interleaved; epochs 0-3."""
    eps = 0.05
    scores = [0.0, eps, -eps, 0.4, -0.9, 0.02, 0.0, 0.7, -eps, eps, -0.3, 1.0]
    embedding_cases = [(False, 0.0), (True, 0.0), (True, 0.01)]
    for weights, (embeddings, l2), batch_size, n_users, epochs in itertools.product(
        _WEIGHTS.values(), embedding_cases, [1, 5, 40], [1, 3], range(4)
    ):
        cset, table = _oracle_case(np.random.default_rng(51), scores, n_users)
        config = TrainConfig(
            loss_weights=weights, tie_epsilon=eps, learning_rate=0.1, epochs=epochs,
            batch_size=batch_size, seed=7, use_user_embeddings=embeddings,
            embedding_l2=l2,
        )
        _assert_train_matches_oracle(cset, table, config)


@settings(max_examples=150, deadline=None)
@given(
    weights=st.sampled_from(list(_WEIGHTS.values())),
    tie_epsilon=st.sampled_from([0.0, 0.05, 0.2]),
    score_draws=st.lists(
        st.one_of(
            st.sampled_from(["zero", "+eps", "-eps"]),
            st.floats(-1.0, 1.0, allow_nan=False),
        ),
        min_size=1, max_size=20,
    ),
    n_users=st.integers(1, 4),
    dim=st.integers(1, 4),
    embeddings=st.booleans(),
    embedding_l2=st.sampled_from([0.0, 1e-4, 0.05]),
    batch_size=st.integers(1, 25),
    epochs=st.integers(0, 3),
    learning_rate=st.sampled_from([0.01, 0.05, 0.1]),
    seed=st.integers(0, 2**16),
)
def test_train_matches_oracle(weights, tie_epsilon, score_draws, n_users, dim,
                              embeddings, embedding_l2, batch_size, epochs,
                              learning_rate, seed):
    named = {"zero": 0.0, "+eps": tie_epsilon, "-eps": -tie_epsilon}
    scores = [named.get(s, s) for s in score_draws]
    cset, table = _oracle_case(np.random.default_rng(seed), scores, n_users, dim=dim)
    config = TrainConfig(
        loss_weights=weights, tie_epsilon=tie_epsilon, learning_rate=learning_rate,
        epochs=epochs, batch_size=batch_size, seed=seed,
        use_user_embeddings=embeddings, embedding_l2=embedding_l2,
    )
    _assert_train_matches_oracle(cset, table, config)


class TestPredictAll:
    def test_empty_set(self):
        table = FeatureTable(1, {})
        assert predict_all(_params([1.0]), comparison_set([]), table) == []

    def test_singleton_matches_predict_diff(self):
        table = FeatureTable(1, {"a": np.array([0.2]), "b": np.array([0.9])})
        cset = comparison_set([("u1", "g", "a", "b", 0.5)])
        p = _params([2.0])
        [(c, d)] = predict_all(p, cset, table)
        assert d == predict_diff(p, "u1", table.vector("a"), table.vector("b"))

    def test_length_and_order_preserved(self):
        rng = np.random.default_rng(47)
        cset, table = _linear_fixture(rng, n=25)
        preds = predict_all(_params([1.0, 0.0, 0.0]), cset, table)
        assert [c for c, _ in preds] == list(cset.comparisons)


def test_user_identity_ignored_without_embeddings():
    rng = np.random.default_rng(48)
    items = {f"i{k}": rng.normal(size=2) for k in range(6)}
    table = FeatureTable(2, items)
    rows = [(f"u{k % 3}", "g", f"i{k % 6}", f"i{(k + 1) % 6}", 0.1) for k in range(12)]
    cset = comparison_set(rows)
    permuted = comparison_set(
        [(f"u{(int(r[0][1]) + 1) % 3}",) + r[1:] for r in rows]
    )
    p = _params(rng.normal(size=2))
    base = [d for _, d in predict_all(p, cset, table)]
    perm = [d for _, d in predict_all(p, permuted, table)]
    assert base == perm


def test_model_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(49)
    params = ModelParams(rng.normal(size=4), {"u1": rng.normal(size=4),
                                              "u2": rng.normal(size=4)})
    path = tmp_path / "model.json"
    save_model(params, path)
    loaded = load_model(path)
    assert np.array_equal(loaded.w, params.w)
    assert set(loaded.user_offsets) == {"u1", "u2"}
    for u in params.user_offsets:
        assert np.array_equal(loaded.user_offsets[u], params.user_offsets[u])


def test_config_validation():
    with pytest.raises(ValueError):
        LossWeights()  # all zero
    with pytest.raises(ValueError):
        LossWeights(mse=-1.0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=-1)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
