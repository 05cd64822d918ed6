"""Parsing, validation, serialization round-trips, and the stratified split."""

import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equirank.dataset import (
    Comparison,
    ComparisonSet,
    FeatureTable,
    comparison_set,
    csv_field,
    parse_comparisons,
    parse_features,
    split,
    write_comparisons,
    write_features,
)


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


HEADER = "user_id,criterion,left_item,right_item,score\n"


class TestParseComparisons:
    def test_single_row(self, tmp_path):
        path = _write(tmp_path, "c.csv", HEADER + "u1,green,a,b,-0.5\n")
        cset = parse_comparisons(path)
        assert len(cset) == 1
        assert cset.users == {"u1"}
        assert cset.items == {"a", "b"}
        assert cset.comparisons[0].score == -0.5

    def test_self_comparison_rejected(self, tmp_path):
        path = _write(tmp_path, "c.csv", HEADER + "u1,green,a,a,0.2\n")
        with pytest.raises(ValueError, match="line 2"):
            parse_comparisons(path)

    def test_score_out_of_range(self, tmp_path):
        path = _write(tmp_path, "c.csv", HEADER + "u1,green,a,b,1.5\n")
        with pytest.raises(ValueError, match="line 2.*outside"):
            parse_comparisons(path)

    def test_unparsable_score_names_line(self, tmp_path):
        path = _write(
            tmp_path, "c.csv", HEADER + "u1,green,a,b,0.5\nu1,green,a,c,spam\n"
        )
        with pytest.raises(ValueError, match="line 3"):
            parse_comparisons(path)

    def test_wrong_column_count(self, tmp_path):
        path = _write(tmp_path, "c.csv", HEADER + "u1,green,a,b\n")
        with pytest.raises(ValueError, match="line 2.*5 columns"):
            parse_comparisons(path)

    def test_bad_header(self, tmp_path):
        path = _write(tmp_path, "c.csv", "user,criterion,l,r,score\n")
        with pytest.raises(ValueError, match="header"):
            parse_comparisons(path)

    def test_row_order_preserved(self, tmp_path):
        rows = [f"u1,g,a,b{i},{(i - 5) / 10}" for i in range(10)]
        path = _write(tmp_path, "c.csv", HEADER + "\n".join(rows) + "\n")
        cset = parse_comparisons(path)
        assert [c.right_item for c in cset] == [f"b{i}" for i in range(10)]


def test_comparison_invariants():
    with pytest.raises(ValueError):
        Comparison("u", "g", "a", "a", 0.2)
    with pytest.raises(ValueError):
        Comparison("u", "g", "a", "b", 1.5)
    with pytest.raises(ValueError):
        Comparison("u", "g", "a", "b", float("nan"))


def test_round_trip_is_byte_identical(tmp_path):
    rng = np.random.default_rng(5)
    rows = [
        ("u%d" % (i % 3), "crit", f"x{i}", f"y{i}", float(rng.uniform(-1, 1)))
        for i in range(40)
    ]
    cset = comparison_set(rows)
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    write_comparisons(cset, first)
    write_comparisons(parse_comparisons(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_error_line_numbers_count_past_blank_lines_and_chunks(tmp_path):
    good = [f"u1,g,a,b{i},0.5" for i in range(5000)]
    path = _write(tmp_path, "c.csv", HEADER + "\n".join(good) + "\n\nu1,g,a,c,2.0\n")
    with pytest.raises(ValueError, match="line 5003: score 2.0 outside"):
        parse_comparisons(path)


def test_first_bad_line_wins_over_later_column_errors(tmp_path):
    path = _write(tmp_path, "c.csv", HEADER + "u1,g,a,a,0.1\nu1,g,a,b\n")
    with pytest.raises(ValueError, match="line 2: self-comparison"):
        parse_comparisons(path)


# Ids mixing the characters CSV treats specially with arbitrary Unicode.
_ids = st.text(
    alphabet=st.one_of(st.sampled_from(',"\n\r '), st.characters(codec="utf-8")),
    max_size=6,
)


@given(rows=st.lists(
    st.tuples(_ids, _ids, _ids, _ids, st.floats(-1.0, 1.0)).filter(lambda r: r[2] != r[3]),
    max_size=12,
))
@settings(max_examples=200, deadline=None)
def test_parse_write_round_trip_any_ids(rows, tmp_path_factory):
    cset = comparison_set(rows)
    path = tmp_path_factory.mktemp("rt") / "c.csv"
    write_comparisons(cset, path)
    back = parse_comparisons(path)
    assert back.comparisons == cset.comparisons
    assert [c.score for c in back] == [c.score for c in cset]


@given(st.text(alphabet=st.one_of(st.sampled_from(',"\n '), st.characters(codec="utf-8"))))
def test_csv_field_quotes_like_csv_writer(text):
    # csv.writer(lineterminator="\n") leaves a bare CR unquoted, which
    # csv.reader then reads as a line break, so csv_field quotes it; for every
    # other field the two agree.
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow([text, "x"])
    expected = buffer.getvalue()
    if "\r" in text and not any(ch in text for ch in ',"\n'):
        expected = f'"{text}",x\n'
    assert csv_field(text) + ",x\n" == expected


def test_carriage_return_in_id_round_trips(tmp_path):
    cset = comparison_set([("a\rb", "g", "x", "y\r\n", 0.25)])
    path = tmp_path / "c.csv"
    write_comparisons(cset, path)
    assert parse_comparisons(path).comparisons == cset.comparisons


def test_features_round_trip_any_ids(tmp_path):
    table = FeatureTable(2, {"a,b": np.array([1.0, 2.0]), 'q"\n': np.array([0.5, -1.0])})
    path = tmp_path / "f.csv"
    write_features(table, path)
    back = parse_features(path)
    assert list(back.features) == list(table.features)
    for item, vec in table.features.items():
        np.testing.assert_array_equal(back.features[item], vec)


class TestParseFeatures:
    def test_basic(self, tmp_path):
        path = _write(tmp_path, "f.csv", "item_id,f0,f1\na,1.0,2.0\nb,0.0,1.0\n")
        table = parse_features(path)
        assert table.dim == 2
        assert set(table.features) == {"a", "b"}
        np.testing.assert_array_equal(table.vector("a"), [1.0, 2.0])

    def test_ragged_row(self, tmp_path):
        path = _write(tmp_path, "f.csv", "item_id,f0,f1\na,1.0,2.0\nb,0.0\n")
        with pytest.raises(ValueError, match="line 3"):
            parse_features(path)

    def test_duplicate_item(self, tmp_path):
        path = _write(tmp_path, "f.csv", "item_id,f0\na,1.0\na,2.0\n")
        with pytest.raises(ValueError, match="duplicate"):
            parse_features(path)

    def test_bad_header(self, tmp_path):
        path = _write(tmp_path, "f.csv", "item,f0\na,1.0\n")
        with pytest.raises(ValueError, match="header"):
            parse_features(path)

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        table = FeatureTable(3, {f"i{k}": rng.standard_normal(3) for k in range(5)})
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        write_features(table, first)
        write_features(parse_features(first), second)
        assert first.read_bytes() == second.read_bytes()


class TestSplit:
    def _one_user(self, n):
        return comparison_set([("u1", "g", "a", f"b{i}", 0.1) for i in range(n)])

    def test_cardinality(self):
        train, test = split(self._one_user(10), 0.8, seed=7)
        assert (len(train), len(test)) == (8, 2)

    def test_partition(self):
        cset = self._one_user(10)
        train, test = split(cset, 0.8, seed=7)
        assert set(train.comparisons) | set(test.comparisons) == set(cset.comparisons)
        assert not set(train.comparisons) & set(test.comparisons)

    def test_deterministic(self):
        cset = self._one_user(10)
        assert split(cset, 0.8, 7)[0].comparisons == split(cset, 0.8, 7)[0].comparisons

    def test_user_with_single_comparison_rejected(self):
        cset = comparison_set(
            [("u1", "g", "a", "b", 0.1), ("u1", "g", "a", "c", 0.1), ("u2", "g", "a", "b", 0.1)]
        )
        with pytest.raises(ValueError, match="u2"):
            split(cset, 0.8, 0)

    def test_every_user_present_in_both_parts(self):
        rng = np.random.default_rng(3)
        rows = []
        for u in range(6):
            for i in range(int(rng.integers(2, 9))):
                rows.append((f"u{u}", "g", "a", f"b{u}_{i}", 0.0))
        cset = comparison_set(rows)
        for seed in range(5):
            train, test = split(cset, 0.8, seed)
            assert train.users == cset.users
            assert test.users == cset.users

    def test_fraction_validated(self):
        with pytest.raises(ValueError):
            split(self._one_user(4), 1.0, 0)

    def test_input_order_preserved(self):
        cset = self._one_user(12)
        train, test = split(cset, 0.75, 1)
        order = {c: i for i, c in enumerate(cset.comparisons)}
        assert [order[c] for c in train] == sorted(order[c] for c in train)
        assert [order[c] for c in test] == sorted(order[c] for c in test)


def test_restrict_by_user_and_criterion():
    cset = comparison_set(
        [
            ("u1", "green", "a", "b", 0.1),
            ("u2", "green", "a", "c", 0.2),
            ("u1", "calm", "a", "d", 0.3),
        ]
    )
    assert len(cset.restrict(user_id="u1")) == 2
    assert len(cset.restrict(criterion="green")) == 2
    assert len(cset.restrict(user_id="u1", criterion="calm")) == 1
    assert cset.criteria == {"green", "calm"}


def test_derived_sets_match_contents():
    cset = comparison_set([("u1", "g", "a", "b", 0.1), ("u2", "g", "b", "c", -0.2)])
    assert cset.users == {"u1", "u2"}
    assert cset.items == {"a", "b", "c"}
    assert isinstance(cset, ComparisonSet)
