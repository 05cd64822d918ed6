"""Linear pairwise scorer: loss menu, analytic gradients, SGD trainer.

`score`, `predict_diff` and `loss` come from `ltr_oracle`, the model one
comparison at a time; the trainer's step gradient and `train` itself are
checked against them.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equirank import ltr
from equirank.dataset import FeatureTable
from equirank.simgen import SimConfig, generate
from equirank.ltr import (
    _CHUNK_ROWS,
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
from row_view import Comparison, comparison_set, rows_of


def _params(w, offsets=None):
    offsets = offsets or {}
    rows = np.array(list(offsets.values()), dtype=float).reshape(len(offsets), len(w))
    return ModelParams(np.array(w, dtype=float), tuple(offsets), rows)


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
        hi = ModelParams(params.w.copy(), params.user_ids, params.offsets.copy())
        lo = ModelParams(params.w.copy(), params.user_ids, params.offsets.copy())
        hi.w[j] += h
        lo.w[j] -= h
        grad_w[j] = (loss(hi, batch, config) - loss(lo, batch, config)) / (2 * h)
    grad_off = {}
    for k, u in enumerate(params.user_ids):
        g = np.zeros(params.dim)
        for j in range(params.dim):
            hi = ModelParams(params.w.copy(), params.user_ids, params.offsets.copy())
            lo = ModelParams(params.w.copy(), params.user_ids, params.offsets.copy())
            hi.offsets[k, j] += h
            lo.offsets[k, j] -= h
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
            rng.normal(size=dim), ("u0", "u1", "u2"),
            np.array([rng.normal(size=dim) * 0.3 for _ in range(3)]),
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
    table = FeatureTable(tuple(items), np.array([rng.normal(size=dim) for _ in items]))
    w_true = rng.normal(size=dim)
    w_true *= 0.4 / np.linalg.norm(w_true)
    rows = []
    for _ in range(n):
        l, r = rng.choice(n_items, size=2, replace=False)
        diff = float(w_true @ (table.vectors[r] - table.vectors[l]))
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
        assert result.params.user_ids == ()
        assert result.params.offsets.shape == (0, 3)
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
        assert a.params.user_ids == b.params.user_ids
        assert np.array_equal(a.params.offsets, b.params.offsets)

    def test_missing_feature_names_item(self):
        cset = comparison_set([("u1", "g", "a", "ghost", 0.1), ("u1", "g", "a", "b", 0.1)])
        table = FeatureTable(("a", "b"), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="ghost"):
            train(cset, table, TrainConfig())

    @pytest.mark.parametrize("embeddings", [False, True])
    @pytest.mark.parametrize("learning_rate", [1e6, 1e300])
    def test_divergence_suggests_smaller_learning_rate(self, learning_rate, embeddings):
        """At 1e300 the weights overflow to inf and their products turn NaN,
        an invalid value; the trainer's own error must come out, not numpy's."""
        rng = np.random.default_rng(45)
        cset, table = _linear_fixture(rng, n=100)
        config = TrainConfig(loss_weights=LossWeights(mse=1.0), learning_rate=learning_rate,
                             epochs=30, use_user_embeddings=embeddings)
        with pytest.raises(ValueError, match="learning_rate"):
            train(cset, table, config)

    def test_embeddings_populated_only_when_enabled(self):
        rng = np.random.default_rng(46)
        cset, table = _linear_fixture(rng, n=60)
        off = train(cset, table, TrainConfig(epochs=2)).params
        on = train(cset, table, TrainConfig(epochs=2, use_user_embeddings=True)).params
        assert off.user_ids == () and off.offsets.shape == (0, 3)
        assert on.user_ids == ("u1",) and on.offsets.shape == (1, 3)

    def test_empty_set_rejected(self):
        table = FeatureTable(("a",), np.zeros((1, 2)))
        with pytest.raises(ValueError, match="empty comparison set"):
            train(comparison_set([]), table, TrainConfig(epochs=0))


@each_weighting
def test_step_gradient_matches_oracle_at_zero(weights):
    """At w = offsets = 0 every predicted difference is exactly 0, on the
    contrastive kink; ties at exactly +-tie_epsilon sit on the hinges' tie
    boundary. The step takes the oracle's one-sided choices there."""
    rng = np.random.default_rng(50)
    config = TrainConfig(loss_weights=weights, tie_epsilon=0.05, embedding_l2=0.1)
    params = ModelParams(np.zeros(3), ("u0", "u1"), np.zeros((2, 3)))
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


@pytest.mark.parametrize("weights", [
    _WEIGHTS["ranking"], _WEIGHTS["contrastive"], _WEIGHTS["mixed"],
], ids=["ranking", "contrastive", "mixed"])
@pytest.mark.parametrize("embeddings", [False, True], ids=["plain", "embeddings"])
def test_step_gradient_matches_oracle_at_hinge_edges(weights, embeddings):
    """One-row batches whose predicted difference d sits on a hinge's edge:
    |d| exactly contrastive_margin, sign(r) * d exactly ranking_margin, the
    largest float below each, and d exactly 0 against tie targets (0 and
    +-tie_epsilon) and non-tie ones; then d inside both margins against
    those ties and the smallest non-tie target above tie_epsilon, where
    only the pulls tell ties apart. The step's gradient must equal the
    oracle's exactly, which pins the strict `<` of both hinges and that a
    row a hinge skips, or a tie's zero pull, adds a zero. A zero may differ
    only in sign, which `_sgd_step` shows no step can see."""
    config = TrainConfig(loss_weights=weights, ranking_margin=0.1, contrastive_margin=0.3,
                         tie_epsilon=0.05, embedding_l2=0.1)
    below = np.nextafter
    edges = [
        (0.3, 0.8), (-0.3, 0.8), (0.3, -0.8), (-0.3, -0.8),
        (below(0.3, 0.0), 0.8), (below(-0.3, 0.0), -0.8),
        (0.1, 0.8), (-0.1, -0.8), (below(0.1, 0.0), 0.8), (below(-0.1, 0.0), -0.8),
        (0.0, 0.0), (0.0, 0.05), (0.0, -0.05), (0.0, 0.8), (0.0, -0.8),
        (0.05, 0.0), (0.05, 0.05), (-0.05, -0.05), (0.05, np.nextafter(0.05, 1.0)),
    ]
    params = _params([1.0], {"u1": [0.0]} if embeddings else None)
    for d, r in edges:
        batch = _batch_of([(d, r)])
        assert predict_diff(params, "u1", *batch[0][1:]) == d
        grad_w, grad_off = step_gradient(params, batch, config)
        oracle_w, oracle_off = loss_gradient(params, batch, config)
        assert grad_off.keys() == oracle_off.keys()
        for got, want in [(grad_w, oracle_w)] + [(grad_off[u], oracle_off[u]) for u in oracle_off]:
            np.testing.assert_array_equal(got, want)


# --- train against the earlier loop, bit for bit ------------------------------

def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def _assert_train_matches_oracle(cset, table, config):
    expected = oracle_train(cset, table, config)
    result = train(cset, table, config)
    assert _bits(result.params.w) == _bits(expected.params.w)
    assert result.params.user_ids == expected.params.user_ids
    assert _bits(result.params.offsets) == _bits(expected.params.offsets)
    assert _bits(result.loss_trace) == _bits(expected.loss_trace)


def _oracle_case(rng, scores, n_users, dim=3, n_items=5):
    """Rows in the order given; users interleave (u0, u1, ..., u0, ...)."""
    table = FeatureTable(
        tuple(f"i{k}" for k in range(n_items)),
        np.array([rng.uniform(-1, 1, size=dim) for _ in range(n_items)]),
    )
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


@pytest.mark.parametrize("weights, embeddings", [
    (LossWeights(mse=1.0, contrastive=1.0), True),
    (_WEIGHTS["mixed"], False),
    (_WEIGHTS["mixed"], True),
], ids=["mse-contrastive-embeddings", "all-four", "all-four-embeddings"])
def test_train_matches_oracle_at_benchmark_shape(weights, embeddings):
    """2,000 rows of 20 users in batches of 32 for 3 epochs: 63 steps an
    epoch, the last one of 16 rows, far past the hypothesis cases' 20 rows.
    Every tenth score is a tie at 0 or exactly +-tie_epsilon."""
    rng = np.random.default_rng(53)
    scores = rng.uniform(-1.0, 1.0, size=2000)
    scores[::30], scores[10::30], scores[20::30] = 0.0, 0.05, -0.05
    cset, table = _oracle_case(rng, scores.tolist(), 20, dim=4, n_items=60)
    config = TrainConfig(
        loss_weights=weights, tie_epsilon=0.05, epochs=3, batch_size=32, seed=5,
        use_user_embeddings=embeddings, embedding_l2=1e-4 if embeddings else 0.0,
    )
    _assert_train_matches_oracle(cset, table, config)


@pytest.mark.parametrize("embeddings, l2", [(False, 0.0), (True, 0.0), (True, 1e-4)],
                         ids=["plain", "embeddings", "embeddings-l2"])
@pytest.mark.parametrize("name", list(_WEIGHTS))
def test_train_matches_oracle_across_chunk_ends(name, embeddings, l2):
    """More rows than two of `train`'s chunks, in batches of 7, which
    divides neither the rows nor `_CHUNK_ROWS`: a chunk holds whole
    batches, so a chunk loop that split, dropped or repeated the batch at a
    chunk's end would move the model. Two epochs, each loss alone and all
    four; embeddings off, on without L2 and on with it. Contrastive alone
    never leaves its zero start (its pull is scaled by sign(0) = 0), so its
    cases hold the loop only to not failing; the other twelve see it."""
    n_rows, batch_size = 2 * _CHUNK_ROWS + 404, 7
    assert n_rows % batch_size and _CHUNK_ROWS % batch_size
    rng = np.random.default_rng(56)
    scores = rng.uniform(-1.0, 1.0, size=n_rows)
    scores[::30], scores[10::30] = 0.0, 0.05
    cset, table = _oracle_case(rng, scores.tolist(), 5, dim=3, n_items=40)
    config = TrainConfig(loss_weights=_WEIGHTS[name], tie_epsilon=0.05, epochs=2,
                         batch_size=batch_size, seed=8, use_user_embeddings=embeddings,
                         embedding_l2=l2)
    _assert_train_matches_oracle(cset, table, config)


def _outcome(run, cset, table, config):
    """The bytes of a run's model and loss trace, or the message it raised."""
    try:
        result = run(cset, table, config)
    except ValueError as exc:
        return str(exc)
    return (_bits(result.params.w), result.params.user_ids, _bits(result.params.offsets),
            _bits(result.loss_trace))


@pytest.mark.parametrize("embeddings", [False, True], ids=["plain", "embeddings"])
@pytest.mark.parametrize("learning_rate", [10.0, 1e150, 1e300])
@pytest.mark.parametrize("name", ["mse", "ranking", "bce", "contrastive"])
def test_train_matches_oracle_at_extreme_learning_rates(name, learning_rate, embeddings):
    """Each loss alone at learning rates where the weights overflow to inf
    and their products turn NaN: after each of epochs 0-3, `train` holds
    the oracle's bytes, or raises its error after the same epoch. The
    oracle runs with numpy's floating-point warnings silenced."""
    cset, table = _oracle_case(np.random.default_rng(54),
                               np.random.default_rng(55).uniform(-1, 1, 30).tolist(), 3)
    for epochs in range(4):
        config = TrainConfig(loss_weights=_WEIGHTS[name], learning_rate=learning_rate,
                             epochs=epochs, batch_size=4, seed=3,
                             use_user_embeddings=embeddings, embedding_l2=0.01)
        with np.errstate(all="ignore"):
            expected = _outcome(oracle_train, cset, table, config)
        assert _outcome(train, cset, table, config) == expected


# --- lockstep runs: each model of a stack is the one trained alone ------------

def _assert_stack_matches_oracle(cset, table, config, targets):
    """`train` with `targets` gives, for each column, the bytes of
    `oracle_train` on the set with that column as its scores; when any of
    those runs raises, the stack raises the same message."""
    with np.errstate(all="ignore"):
        expected = [_outcome(oracle_train, cset.with_scores(t), table, config) for t in targets]
    failures = {e for e in expected if isinstance(e, str)}
    try:
        results = train(cset, table, config, targets=targets)
    except ValueError as exc:
        assert failures == {str(exc)}
        return
    assert not failures
    assert len(results) == len(targets)
    for result, want in zip(results, expected):
        assert (_bits(result.params.w), result.params.user_ids, _bits(result.params.offsets),
                _bits(result.loss_trace)) == want


def _score_columns(rng, k, n, tie_epsilon):
    """k score columns of n rows, about a third of them ties at 0 or exactly
    +-tie_epsilon."""
    scores = rng.uniform(-1.0, 1.0, size=(k, n))
    ties = rng.choice([0.0, tie_epsilon, -tie_epsilon], size=(k, n))
    return np.where(rng.random((k, n)) < 0.3, ties, scores)


@settings(max_examples=120, deadline=None)
@given(
    weights=st.sampled_from(list(_WEIGHTS.values())),
    tie_epsilon=st.sampled_from([0.0, 0.05, 0.2]),
    k=st.integers(1, 4),
    n_rows=st.integers(1, 20),
    n_users=st.integers(1, 4),
    dim=st.integers(1, 4),
    embeddings=st.booleans(),
    embedding_l2=st.sampled_from([0.0, 1e-4, 0.05]),
    batch_size=st.integers(1, 25),
    epochs=st.integers(0, 3),
    learning_rate=st.sampled_from([0.01, 0.1, 10.0, 1e150]),
    seed=st.integers(0, 2**16),
)
def test_stacked_train_matches_oracle(weights, tie_epsilon, k, n_rows, n_users, dim,
                                      embeddings, embedding_l2, batch_size, epochs,
                                      learning_rate, seed):
    """k = 1 to 4 models in one run, each loss alone and all four, with and
    without embeddings, batches of 1 up to more than the rows (a short last
    batch whenever the size does not divide them), and learning rates that
    overflow the weights."""
    rng = np.random.default_rng(seed)
    targets = _score_columns(rng, k, n_rows, tie_epsilon)
    cset, table = _oracle_case(rng, targets[0].tolist(), n_users, dim=dim)
    config = TrainConfig(
        loss_weights=weights, tie_epsilon=tie_epsilon, learning_rate=learning_rate,
        epochs=epochs, batch_size=batch_size, seed=seed,
        use_user_embeddings=embeddings, embedding_l2=embedding_l2,
    )
    _assert_stack_matches_oracle(cset, table, config, list(targets))


@pytest.mark.parametrize("weights, embeddings, k", [
    (LossWeights(mse=1.0), False, 4),
    (LossWeights(mse=1.0, contrastive=1.0), False, 4),
    (LossWeights(mse=1.0), True, 2),
    (LossWeights(mse=1.0, contrastive=1.0), True, 2),
    (_WEIGHTS["ranking"], True, 3),
    (_WEIGHTS["bce"], False, 3),
    (_WEIGHTS["mixed"], True, 3),
    (_WEIGHTS["contrastive"], True, 3),
], ids=["mse-4", "contrastive-4", "embeddings-2", "embeddings-contrastive-2",
        "ranking-embeddings-3", "bce-3", "all-four-embeddings-3",
        "contrastive-only-embeddings-3"])
def test_stacked_train_matches_oracle_at_benchmark_shape(weights, embeddings, k):
    """The grid's groups at 2,000 rows of 20 users in batches of 32 for 3
    epochs, the last batch of each epoch 16 rows: four MSE cells, four
    contrastive ones, the two embeddings cells; the ranking and BCE terms,
    which no grid cell trains; and the contrastive hinge alone, the one
    term whose sum onto the zeros start can turn a -0 into +0."""
    rng = np.random.default_rng(57)
    targets = _score_columns(rng, k, 2000, 0.05)
    cset, table = _oracle_case(rng, targets[0].tolist(), 20, dim=4, n_items=60)
    config = TrainConfig(
        loss_weights=weights, tie_epsilon=0.05, epochs=3, batch_size=32, seed=5,
        use_user_embeddings=embeddings, embedding_l2=1e-4 if embeddings else 0.0,
    )
    _assert_stack_matches_oracle(cset, table, config, list(targets))


@pytest.mark.parametrize("embeddings", [False, True], ids=["plain", "embeddings"])
def test_stacked_train_matches_oracle_across_chunk_ends(embeddings):
    """Three models over more rows than two chunks, in batches of 7, which
    divide neither the rows nor `_CHUNK_ROWS`, with all four losses."""
    n_rows = 2 * _CHUNK_ROWS + 404
    rng = np.random.default_rng(58)
    targets = _score_columns(rng, 3, n_rows, 0.05)
    cset, table = _oracle_case(rng, targets[0].tolist(), 5, dim=3, n_items=40)
    config = TrainConfig(loss_weights=_WEIGHTS["mixed"], tie_epsilon=0.05, epochs=2,
                         batch_size=7, seed=8, use_user_embeddings=embeddings,
                         embedding_l2=1e-4)
    _assert_stack_matches_oracle(cset, table, config, list(targets))


@pytest.mark.parametrize("embeddings", [False, True], ids=["plain", "embeddings"])
def test_stack_raises_when_one_model_diverges(embeddings):
    """At learning rate 1e150 the model of all-zero MSE targets never leaves
    zero, and that of the other column overflows: the run raises the error
    that model's run alone raises, in either order of the columns."""
    rng = np.random.default_rng(59)
    scores = rng.uniform(-1.0, 1.0, 30)
    cset, table = _oracle_case(rng, scores.tolist(), 3)
    config = TrainConfig(learning_rate=1e150, epochs=3, batch_size=4, seed=3,
                         use_user_embeddings=embeddings, embedding_l2=0.01)
    zeros = np.zeros(30)
    assert _outcome(train, cset.with_scores(zeros), table, config)[0] == _bits(np.zeros(3))
    for targets in ([zeros, scores], [scores, zeros]):
        with pytest.raises(ValueError, match="^training loss became non-finite; try a smaller"):
            train(cset, table, config, targets=targets)
        _assert_stack_matches_oracle(cset, table, config, targets)


@pytest.mark.parametrize("targets, message", [
    ([], "targets must be one or more score columns of 4 rows"),
    ([[0.5, 0.1, 0.2]], "targets must be one or more score columns of 4 rows"),
    ([0.5, 0.1, 0.2, 0.3], "targets must be one or more score columns of 4 rows"),
    ([[0.5, 0.1, 0.2, 1.5]], r"targets must be finite scores in \[-1, 1\]"),
    ([[0.5, 0.1, 0.2, 0.3], [0.5, float("nan"), 0.2, 0.3]],
     r"targets must be finite scores in \[-1, 1\]"),
])
def test_malformed_targets_are_refused(targets, message):
    cset, table = _oracle_case(np.random.default_rng(60), [0.5, 0.1, 0.2, 0.3], 2)
    with pytest.raises(ValueError, match=f"^{message}$"):
        train(cset, table, TrainConfig(epochs=1), targets=targets)


@pytest.mark.parametrize("embeddings", [False, True], ids=["plain", "embeddings"])
def test_column_count_alone_picks_the_stacked_forms(monkeypatch, embeddings):
    """One target column builds the one-model step, reads that column itself
    rather than a copy, and gives the bits of a run without `targets`; two
    columns build the stacked step."""
    rng = np.random.default_rng(61)
    cset, table = _oracle_case(rng, rng.uniform(-1.0, 1.0, 300).tolist(), 4)
    config = TrainConfig(loss_weights=_WEIGHTS["mixed"], epochs=2, batch_size=7, seed=4,
                         use_user_embeddings=embeddings, embedding_l2=1e-4)
    steps, targets = [], []
    sgd_step, rows_of = ltr._sgd_step, ltr._Rows.of

    def spying_step(config, stacked=False):
        steps.append(stacked)
        return sgd_step(config, stacked)

    monkeypatch.setattr(ltr, "_sgd_step", spying_step)
    monkeypatch.setattr(ltr._Rows, "of", lambda r, config: targets.append(r) or rows_of(r, config))

    def one_column(cset, table, config):
        [result] = train(cset, table, config, targets=[cset.score])
        return result

    assert _outcome(one_column, cset, table, config) == _outcome(train, cset, table, config)
    assert steps == [False, False] and targets[0] is cset.score
    train(cset, table, config, targets=[cset.score, -cset.score])
    assert steps[2:] == [True] and targets[2].shape == (2, 1, 300)


@pytest.mark.parametrize("weights, embeddings, parent_peak", [
    (LossWeights(mse=1.0), False, 5_302_426),
    (LossWeights(mse=1.0, contrastive=1.0), True, 5_309_900),
    (LossWeights(ranking=1.0), True, 5_371_132),
    (LossWeights(bce=1.0), True, 5_312_300),
], ids=["mse", "mse-contrastive-embeddings", "ranking-embeddings", "bce-embeddings"])
def test_train_peak_memory_within_the_earlier_trainer(weights, embeddings, parent_peak):
    """tracemalloc's peak of `train` on 60,000 rows (60 users x 1,000, dim
    4, 2 epochs) stays within that of an earlier trainer, measured on the
    same set. The first two bounds, 5,302,426 bytes for MSE and 5,309,900
    bytes for MSE + contrastive + embeddings, about 88 bytes a row, are
    those of the trainer before the per-row values were computed once per
    epoch: the difference rows and their gathered copy (32 bytes each) plus
    the gathered targets, user codes and permutation (8 each). The last
    two, 5,371,132 bytes for ranking + embeddings and 5,312,300 bytes for
    BCE + embeddings, are those of the trainer that gathered every row once
    per epoch, just before rows were gathered per chunk; they are set by
    its epoch-end loss, where the per-row sign(r) or (r + 1) / 2 sits next
    to the gathered offset rows. A per-row value of size rows x dim kept
    past its chunk, or a chunk's arrays kept alive into the epoch-end loss,
    would exceed them. Since the difference rows and the epoch-end offset
    term are built per `_CHUNK_ROWS` block and the step and the loss read
    one `_Rows` table per run, whose hinge pulls take 8 bytes a row where a
    tie mask took 1, the four read 2,911,298, 4,416,380, 4,415,052 and
    4,354,876 bytes: the difference rows (32 bytes a row), the table and the
    epoch-end loss's per-row arrays set them. The loss of a run with no MSE
    term starts from zeros, 8 bytes a row, which raised the last two by
    480,104 bytes, to 4,895,260 and 4,835,084."""
    cset, features, _ = generate(SimConfig(
        n_items=500, feature_dim=4, n_users=60, comparisons_per_user=1000, seed=1,
    ))
    config = TrainConfig(loss_weights=weights, epochs=2, seed=1,
                         use_user_embeddings=embeddings, embedding_l2=1e-4)
    tracemalloc.start()
    try:
        train(cset, features, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= parent_peak


def test_predict_all_peak_memory_is_its_output_and_one_block():
    """tracemalloc's peak of `predict_all` on 60,000 rows (60 users x 1,000,
    dim 4, an offset per user) is its 8-byte-a-row output plus the arrays of
    one `_CHUNK_ROWS` block: three gathered rows x dim and three index
    slices, which `take` copies as they are read-only, and two dot products,
    136 bytes a block row. It read 664,256 bytes, against 4,820,152 when the
    columns were gathered whole. The first and last row of every block
    equal `predict_diff`."""
    cset, features, _ = generate(SimConfig(
        n_items=500, feature_dim=4, n_users=60, comparisons_per_user=1000, seed=1,
    ))
    rng = np.random.default_rng(5)
    params = ModelParams(rng.normal(size=4), cset.user_ids,
                         rng.normal(size=(len(cset.user_ids), 4)))
    tracemalloc.start()
    try:
        diff = predict_all(params, cset, features).diff
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * len(cset) + 136 * _CHUNK_ROWS
    x = dict(zip(features.item_ids, features.vectors))
    for lo in range(0, len(cset), _CHUNK_ROWS):
        for k in (lo, min(lo + _CHUNK_ROWS, len(cset)) - 1):
            [c] = rows_of(cset.take([k]))
            assert diff[k] == predict_diff(params, c.user_id, x[c.left_item], x[c.right_item])


def test_train_and_predict_do_not_depend_on_the_feature_layout():
    """A FeatureTable built from C-ordered, Fortran-ordered and strided
    vectors gives C-contiguous rows from `matrix`, and the same model, loss
    trace and predictions, byte for byte."""
    rng = np.random.default_rng(71)
    cset, table = _oracle_case(rng, rng.uniform(-1, 1, 3000).tolist(), 7, dim=4, n_items=40)
    wide = np.zeros((40, 12))
    wide[:, ::3] = table.vectors
    layouts = {
        "C": np.ascontiguousarray(table.vectors),
        "F": np.asfortranarray(table.vectors),
        "strided": wide[:, ::3],
    }
    config = TrainConfig(loss_weights=LossWeights(mse=1.0, contrastive=0.5), epochs=2,
                         batch_size=16, use_user_embeddings=True, embedding_l2=1e-3)
    outputs = {}
    for name, vectors in layouts.items():
        features = FeatureTable(table.item_ids, vectors)
        assert features.matrix(table.item_ids[::-1]).flags.c_contiguous, name
        result = train(cset, features, config)
        outputs[name] = (_bits(result.params.w), _bits(result.params.offsets),
                         _bits(result.loss_trace),
                         _bits(predict_all(result.params, cset, features).diff))
    assert not layouts["strided"].flags.c_contiguous
    assert not layouts["strided"].flags.f_contiguous
    assert outputs["F"] == outputs["C"]
    assert outputs["strided"] == outputs["C"]


class TestPredictAll:
    def test_empty_set(self):
        table = FeatureTable((), np.zeros((0, 1)))
        assert predict_all(_params([1.0]), comparison_set([]), table).diff.tolist() == []

    def test_singleton_matches_predict_diff(self):
        table = FeatureTable(("a", "b"), np.array([[0.2], [0.9]]))
        cset = comparison_set([("u1", "g", "a", "b", 0.5)])
        p = _params([2.0])
        [d] = predict_all(p, cset, table).diff.tolist()
        assert d == predict_diff(p, "u1", table.vectors[0], table.vectors[1])

    def test_length_and_order_preserved(self):
        rng = np.random.default_rng(47)
        cset, table = _linear_fixture(rng, n=25)
        preds = predict_all(_params([1.0, 0.0, 0.0]), cset, table)
        assert rows_of(preds.cset) == rows_of(cset)

    def test_features_of_another_dim_are_refused(self):
        table = FeatureTable(("a", "b"), np.zeros((2, 2)))
        cset = comparison_set([("u1", "g", "a", "b", 0.5)])
        with pytest.raises(ValueError, match=r"^feature vectors have length 2, expected 3$"):
            predict_all(_params([1.0, 0.0, 0.0]), cset, table)


def test_user_identity_ignored_without_embeddings():
    rng = np.random.default_rng(48)
    table = FeatureTable(tuple(f"i{k}" for k in range(6)), rng.normal(size=(6, 2)))
    rows = [(f"u{k % 3}", "g", f"i{k % 6}", f"i{(k + 1) % 6}", 0.1) for k in range(12)]
    cset = comparison_set(rows)
    permuted = comparison_set(
        [(f"u{(int(r[0][1]) + 1) % 3}",) + r[1:] for r in rows]
    )
    p = _params(rng.normal(size=2))
    base = predict_all(p, cset, table).diff.tolist()
    perm = predict_all(p, permuted, table).diff.tolist()
    assert base == perm


def test_model_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(49)
    params = ModelParams(rng.normal(size=4), ("u2", "u1"), rng.normal(size=(2, 4)))
    path = tmp_path / "model.json"
    save_model(params, path)
    loaded = load_model(path)
    assert np.array_equal(loaded.w, params.w)
    # The model file lists users in sorted order.
    assert loaded.user_ids == ("u1", "u2")
    assert np.array_equal(loaded.offsets, params.offsets[::-1])


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
