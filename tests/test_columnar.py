"""The columnar data path against per-comparison oracles.

Each oracle below is the earlier object-per-row implementation, kept here as
the reference: restrict, split, the two per-user scalers, predict_all and
the equity report must give exactly the same rows and the same floats.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equirank.dataset import (
    COMPARISONS_HEADER,
    FeatureTable,
    comparison_set,
    parse_comparisons,
    split,
    write_comparisons,
)
from equirank.equity import build_report, classify, per_user_metrics
from equirank.ltr import ModelParams, predict_all
from equirank.scaling import (
    minmax_scale,
    normalization_scale,
    parse_scaled_comparisons,
    write_scaled_comparisons,
)
from equirank.simgen import SimConfig, generate
from ltr_oracle import predict_diff

# --- oracles: the per-comparison implementations -----------------------------


def oracle_restrict(comparisons, user_id=None, criterion=None):
    return tuple(
        c
        for c in comparisons
        if (user_id is None or c.user_id == user_id)
        and (criterion is None or c.criterion == criterion)
    )


def oracle_split(comparisons, train_fraction, seed):
    per_user = {}
    for idx, c in enumerate(comparisons):
        per_user.setdefault(c.user_id, []).append(idx)
    offenders = sorted(u for u, idxs in per_user.items() if len(idxs) < 2)
    if offenders:
        raise ValueError(
            f"users with fewer than 2 comparisons cannot be split: {offenders}"
        )
    rng = np.random.default_rng(seed)
    train_idx = set()
    for user in sorted(per_user):
        idxs = per_user[user]
        n = len(idxs)
        n_train = int(np.floor(n * train_fraction))
        n_train = min(max(n_train, 1), n - 1)
        chosen = rng.permutation(n)[:n_train]
        train_idx.update(idxs[i] for i in chosen)
    train = tuple(c for i, c in enumerate(comparisons) if i in train_idx)
    test = tuple(c for i, c in enumerate(comparisons) if i not in train_idx)
    return train, test


def _oracle_groups(comparisons):
    groups = {}
    for idx, c in enumerate(comparisons):
        groups.setdefault((c.user_id, c.criterion), []).append(idx)
    return groups


def oracle_minmax(comparisons):
    scores = np.array([c.score for c in comparisons], dtype=np.float64)
    out = np.zeros_like(scores)
    for idxs in _oracle_groups(comparisons).values():
        vals = scores[idxs]
        lo, hi = vals.min(), vals.max()
        if hi > lo:
            out[idxs] = 2.0 * (vals - lo) / (hi - lo) - 1.0
    return [float(s) for s in out]


def oracle_normalization(comparisons):
    scores = np.array([c.score for c in comparisons], dtype=np.float64)
    out = np.zeros_like(scores)
    for idxs in _oracle_groups(comparisons).values():
        vals = scores[idxs]
        lo, hi = vals.min(), vals.max()
        if hi > lo:
            unit = (vals - lo) / (hi - lo)
            centered = unit - unit.mean()
            centered -= centered.mean()
            out[idxs] = centered / np.abs(centered).max()
    return [float(s) for s in out]


def oracle_predict_all(params, comparisons, features):
    return [
        (c, predict_diff(params, c.user_id, features.vector(c.left_item),
                         features.vector(c.right_item)))
        for c in comparisons
    ]


def _oracle_macro_recall(truth, predicted):
    recalls = []
    for cls in ("left", "tie", "right"):
        total = sum(1 for t in truth if t == cls)
        if total == 0:
            continue
        hit = sum(1 for t, p in zip(truth, predicted) if t == cls and p == cls)
        recalls.append(hit / total)
    return float(np.mean(recalls))


def oracle_per_user_metrics(predictions, tie_epsilon):
    by_user = {}
    for comparison, predicted in predictions:
        truths, preds = by_user.setdefault(comparison.user_id, ([], []))
        truths.append(classify(comparison.score, tie_epsilon))
        preds.append(classify(predicted, tie_epsilon))
    accuracy = {}
    recall = {}
    for user, (truths, preds) in by_user.items():
        accuracy[user] = sum(t == p for t, p in zip(truths, preds)) / len(truths)
        recall[user] = _oracle_macro_recall(truths, preds)
    return accuracy, recall


def oracle_overall(predictions, tie_epsilon):
    truth_cls = [classify(c.score, tie_epsilon) for c, _ in predictions]
    pred_cls = [classify(d, tie_epsilon) for _, d in predictions]
    accuracy = sum(t == p for t, p in zip(truth_cls, pred_cls)) / len(truth_cls)
    return accuracy, _oracle_macro_recall(truth_cls, pred_cls)


# --- populations -------------------------------------------------------------

USERS = ["u0", "u1", "u2", "zz", "a,b", "é"]
ITEMS = ["i0", "i1", "i2", "i3", "i4", "i5"]
CRITERIA = ["g", "h"]
_scores = st.one_of(
    st.sampled_from([-1.0, -0.05, 0.0, 0.05, 1.0]),
    st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
)
_pairs = st.lists(st.sampled_from(ITEMS), min_size=2, max_size=2, unique=True)


@st.composite
def populations(draw, criteria=("g",), max_rows=40):
    """Rows in interleaved user order, plus one user whose scores are all
    one value and one user with a single comparison."""
    rows = [
        (u, crit, a, b, s)
        for u, crit, (a, b), s in draw(st.lists(
            st.tuples(st.sampled_from(USERS), st.sampled_from(criteria), _pairs, _scores),
            max_size=max_rows,
        ))
    ]
    tie_score = draw(st.sampled_from([0.0, 0.3, -1.0]))
    n_tie = draw(st.integers(1, 4))
    rows += [("tie", draw(st.sampled_from(criteria)), *draw(_pairs), tie_score)
             for _ in range(n_tie)]
    rows.append(("solo", criteria[0], *draw(_pairs), draw(_scores)))
    return comparison_set(draw(st.permutations(rows)))


def _splittable(cset):
    counts = {}
    for c in cset:
        counts[c.user_id] = counts.get(c.user_id, 0) + 1
    return comparison_set(
        (c.user_id, c.criterion, c.left_item, c.right_item, c.score)
        for c in cset
        if counts[c.user_id] >= 2
    )


# --- equivalence -------------------------------------------------------------


@given(cset=populations(criteria=CRITERIA))
@settings(max_examples=150, deadline=None)
def test_restrict_matches_oracle(cset):
    for user in sorted(cset.users) + ["nobody"]:
        for criterion in [None] + CRITERIA + ["none-such"]:
            got = cset.restrict(user_id=user, criterion=criterion)
            want = oracle_restrict(cset.comparisons, user, criterion)
            assert got.comparisons == want
            assert got.users == {c.user_id for c in want}
            assert got.items == {i for c in want for i in (c.left_item, c.right_item)}
    for criterion in CRITERIA:
        assert cset.restrict(criterion=criterion).comparisons == oracle_restrict(
            cset.comparisons, criterion=criterion
        )
    assert cset.restrict().comparisons == cset.comparisons


@given(cset=populations(), fraction=st.sampled_from([0.1, 0.5, 0.8, 0.9]),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_split_matches_oracle(cset, fraction, seed):
    with pytest.raises(ValueError) as got:
        split(cset, fraction, seed)
    with pytest.raises(ValueError) as want:
        oracle_split(cset.comparisons, fraction, seed)
    assert str(got.value) == str(want.value)
    cset = _splittable(cset)
    train, test = split(cset, fraction, seed)
    want_train, want_test = oracle_split(cset.comparisons, fraction, seed)
    assert train.comparisons == want_train
    assert test.comparisons == want_test


@given(cset=populations(criteria=CRITERIA))
@settings(max_examples=200, deadline=None)
def test_scalers_match_oracle_bitwise(cset):
    # Comparison floats compare by value, so -0.0 == 0.0; compare bit patterns.
    def bits(values):
        return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()

    mm = minmax_scale(cset)
    nm = normalization_scale(cset)
    assert bits(mm.score) == bits(oracle_minmax(cset.comparisons))
    assert bits(nm.score) == bits(oracle_normalization(cset.comparisons))
    for scaled in (mm, nm):
        assert [c[:4] for c in _tuples(scaled)] == [c[:4] for c in _tuples(cset)]


def _tuples(cset):
    return [(c.user_id, c.criterion, c.left_item, c.right_item, c.score) for c in cset]


@st.composite
def models(draw, dim):
    w = draw(st.lists(st.floats(-3, 3), min_size=dim, max_size=dim))
    with_offsets = draw(st.lists(st.sampled_from(USERS + ["tie"]), unique=True))
    offsets = {
        u: np.array(draw(st.lists(st.floats(-1, 1), min_size=dim, max_size=dim)))
        for u in with_offsets
    }
    return ModelParams(np.array(w, dtype=np.float64), offsets)


@given(cset=populations(), data=st.data(), dim=st.integers(1, 5),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_predict_all_and_report_match_oracle(cset, data, dim, seed):
    rng = np.random.default_rng(seed)
    features = FeatureTable(dim, {i: rng.normal(size=dim) for i in ITEMS})
    params = data.draw(models(dim))
    predictions = predict_all(params, cset, features)
    oracle = oracle_predict_all(params, cset.comparisons, features)
    assert list(predictions) == oracle
    assert predictions == oracle

    eps = data.draw(st.sampled_from([0.0, 0.05, 0.3]))
    accuracy, recall = per_user_metrics(predictions, eps)
    want_accuracy, want_recall = oracle_per_user_metrics(oracle, eps)
    # Same users in the same (first-appearance) order, same floats.
    assert list(accuracy.items()) == list(want_accuracy.items())
    assert list(recall.items()) == list(want_recall.items())
    assert per_user_metrics(oracle, eps) == (accuracy, recall)

    if not any(accuracy.values()):
        with pytest.raises(ValueError, match="zero mean"):
            build_report(predictions, eps)
        return
    report = build_report(predictions, eps)
    assert list(report.per_user_accuracy.items()) == list(want_accuracy.items())
    assert (report.overall_accuracy, report.overall_recall) == oracle_overall(oracle, eps)
    assert report.to_dict() == build_report(oracle, eps).to_dict()


# --- CSV byte identity -------------------------------------------------------


def _oracle_write(cset, path, tag=None):
    """The f-string writer the CSV format was defined by (plain ids only)."""
    header = COMPARISONS_HEADER + (["scaler"] if tag else [])
    with path.open("w", newline="\n", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for c in cset:
            tail = f",{tag}" if tag else ""
            fh.write(f"{c.user_id},{c.criterion},{c.left_item},{c.right_item},{c.score!r}{tail}\n")


def test_simulated_population_rewrites_byte_for_byte(tmp_path):
    cset, _, _ = generate(SimConfig(
        n_items=40, feature_dim=3, n_users=12, comparisons_per_user=150, seed=9,
        archetype_mix={"neutral": 6, "conservative": 2, "extreme": 2, "malicious": 2},
    ))
    original = tmp_path / "original.csv"
    _oracle_write(cset, original)
    rewritten = tmp_path / "rewritten.csv"
    write_comparisons(parse_comparisons(original), rewritten)
    assert rewritten.read_bytes() == original.read_bytes()

    scaled = normalization_scale(cset)
    original = tmp_path / "scaled.csv"
    _oracle_write(scaled, original, tag="normalization")
    rewritten = tmp_path / "scaled-again.csv"
    write_scaled_comparisons(parse_scaled_comparisons(original), rewritten)
    assert rewritten.read_bytes() == original.read_bytes()
