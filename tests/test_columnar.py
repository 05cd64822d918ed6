"""The columnar data path against per-comparison oracles.

Each oracle below is the earlier object-per-row implementation, kept here as
the reference, and `equity_oracle` holds the dict-based equity report:
restrict, split, the two per-user scalers, predict_all and the equity report
must give exactly the same rows and the same floats.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equirank.dataset import (
    COMPARISONS_HEADER,
    FeatureTable,
    parse_comparisons,
    split,
    write_comparisons,
)
from equirank.equity import Predictions, build_report
from equirank.ltr import ModelParams, predict_all
from equirank.scaling import (
    minmax_scale,
    normalization_scale,
    parse_scaled_comparisons,
    write_scaled_comparisons,
)
from equirank.simgen import SimConfig, generate
import equity_oracle
from ltr_oracle import predict_diff
from row_view import comparison_set, rows_of, take

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
    x = dict(zip(features.item_ids, features.vectors))
    return [
        (c, predict_diff(params, c.user_id, x[c.left_item], x[c.right_item]))
        for c in comparisons
    ]


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
    for c in rows_of(cset):
        counts[c.user_id] = counts.get(c.user_id, 0) + 1
    return comparison_set(
        (c.user_id, c.criterion, c.left_item, c.right_item, c.score)
        for c in rows_of(cset)
        if counts[c.user_id] >= 2
    )


# --- equivalence -------------------------------------------------------------


@given(cset=populations(criteria=CRITERIA))
@settings(max_examples=150, deadline=None)
def test_restrict_matches_oracle(cset):
    for user in list(cset.user_ids) + ["nobody"]:
        own = take(cset, user)
        for criterion in [None] + CRITERIA + ["none-such"]:
            got = own if criterion is None else own.restrict(criterion=criterion)
            want = oracle_restrict(rows_of(cset), user, criterion)
            assert rows_of(got) == want
            if criterion is not None:
                # A set that holds no other criterion is returned itself.
                assert (got is own) == (len(own) > 0 and want == rows_of(own))
            assert set(got.user_ids) == {c.user_id for c in want}
            assert set(got.item_ids) == {i for c in want for i in (c.left_item, c.right_item)}
    for criterion in CRITERIA + ["none-such"]:
        assert rows_of(cset.restrict(criterion=criterion)) == oracle_restrict(
            rows_of(cset), criterion=criterion
        )


@given(cset=populations(), fraction=st.sampled_from([0.1, 0.5, 0.8, 0.9]),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_split_matches_oracle(cset, fraction, seed):
    with pytest.raises(ValueError) as got:
        split(cset, fraction, seed)
    with pytest.raises(ValueError) as want:
        oracle_split(rows_of(cset), fraction, seed)
    assert str(got.value) == str(want.value)
    cset = _splittable(cset)
    train, test = split(cset, fraction, seed)
    want_train, want_test = oracle_split(rows_of(cset), fraction, seed)
    assert rows_of(train) == want_train
    assert rows_of(test) == want_test


@given(cset=populations(criteria=CRITERIA))
@settings(max_examples=200, deadline=None)
def test_scalers_match_oracle_bitwise(cset):
    # Comparison floats compare by value, so -0.0 == 0.0; compare bit patterns.
    def bits(values):
        return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()

    mm = minmax_scale(cset)
    nm = normalization_scale(cset)
    assert bits(mm.score) == bits(oracle_minmax(rows_of(cset)))
    assert bits(nm.score) == bits(oracle_normalization(rows_of(cset)))
    for scaled in (mm, nm):
        assert [c[:4] for c in rows_of(scaled)] == [c[:4] for c in rows_of(cset)]


@st.composite
def models(draw, dim):
    w = draw(st.lists(st.floats(-3, 3), min_size=dim, max_size=dim))
    with_offsets = draw(st.lists(st.sampled_from(USERS + ["tie"]), unique=True))
    offsets = [draw(st.lists(st.floats(-1, 1), min_size=dim, max_size=dim))
               for _ in with_offsets]
    return ModelParams(
        np.array(w, dtype=np.float64), tuple(with_offsets),
        np.array(offsets, dtype=np.float64).reshape(len(offsets), dim),
    )


@given(cset=populations(), data=st.data(), dim=st.integers(1, 5),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_predict_all_and_report_match_oracle(cset, data, dim, seed):
    rng = np.random.default_rng(seed)
    features = FeatureTable(tuple(ITEMS), np.array([rng.normal(size=dim) for _ in ITEMS]))
    params = data.draw(models(dim))
    predictions = predict_all(params, cset, features)
    oracle = oracle_predict_all(params, rows_of(cset), features)
    assert list(zip(rows_of(predictions.cset), predictions.diff.tolist())) == oracle

    eps = data.draw(st.sampled_from([0.0, 0.05, 0.3]))
    report = build_report(predictions, eps)
    want = equity_oracle.build_report(oracle, eps)
    assert_report_matches(report, want)
    if not any(want.per_user_accuracy.values()):
        # Every user predicted wrong: the equality fallback.
        n = report.n_users
        assert report.gini_accuracy == 0.0
        assert report.lorenz.tolist() == [[k / n, k / n] for k in range(n + 1)]


def assert_report_matches(report, want):
    """The same users in the same (first-appearance) order, the same floats,
    and the same report.json."""
    assert list(zip(report.user_ids, report.accuracy.tolist())) == list(
        want.per_user_accuracy.items()
    )
    assert list(zip(report.user_ids, report.recall.tolist())) == list(
        want.per_user_recall.items()
    )
    assert json.dumps(report.to_dict()) == json.dumps(want.to_dict())


def test_report_keeps_first_appearance_order():
    # "zz" appears first, "solo" has a single row, "m" has no tie class.
    rows = [
        ("zz", "g", "a", "b", 0.5), ("m", "g", "a", "b", -0.5), ("solo", "g", "b", "c", 0.0),
        ("zz", "g", "b", "c", 0.0), ("m", "g", "c", "a", 0.9), ("zz", "g", "c", "a", -0.2),
        ("m", "g", "a", "c", -0.7),
    ]
    diff = np.array([0.4, 0.3, 0.01, 0.2, 0.8, -0.6, -0.1])
    predictions = Predictions(comparison_set(rows), diff)
    report = build_report(predictions, 0.05)
    assert report.user_ids == ("zz", "m", "solo")
    assert report.accuracy.tolist() == [2 / 3, 2 / 3, 1.0]
    # m: left 1/2 right 1/1; zz: left 1/1, tie 0/1, right 1/1.
    assert report.recall.tolist() == [2 / 3, 0.75, 1.0]
    assert_report_matches(report, equity_oracle.build_report(
        equity_oracle.pairs_of(predictions), 0.05
    ))


# --- CSV byte identity -------------------------------------------------------


def _oracle_write(cset, path, tag=None):
    """The f-string writer the CSV format was defined by (plain ids only)."""
    header = COMPARISONS_HEADER + (["scaler"] if tag else [])
    with path.open("w", newline="\n", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for c in rows_of(cset):
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
    write_scaled_comparisons(parse_scaled_comparisons(original), rewritten, "normalization")
    assert rewritten.read_bytes() == original.read_bytes()
