"""Parsing, validation, serialization round-trips, and the stratified split."""

import csv
import io
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equirank import dataset, scaling
from equirank.dataset import (
    COMPARISONS_HEADER,
    ComparisonSet,
    FeatureTable,
    csv_field,
    parse_comparisons,
    parse_features,
    split,
    write_comparisons,
    write_features,
)
from equirank.scaling import parse_scaled_comparisons
import csv_oracle
from row_view import comparison_set, rows_of, take


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
        assert set(cset.user_ids) == {"u1"}
        assert set(cset.item_ids) == {"a", "b"}
        assert rows_of(cset)[0].score == -0.5

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

    def test_score_wider_than_a_span_reads_as_float_does(self, tmp_path):
        # A field over dataset._FIELD_CAP bytes turns its column into text.
        wide = "0.5" + "0" * 70
        path = _write(tmp_path, "c.csv", HEADER + f"u1,g,a,b,{wide}\nu1,g,a,c,-0.25\n")
        assert parse_comparisons(path).score.tolist() == [float(wide), -0.25]

    def test_score_holding_a_nul_byte_is_unparsable(self, tmp_path):
        path = _write(tmp_path, "c.csv", HEADER + "u1,g,a,b,0.5\nu1,g,a,c,0.5\0\n")
        with pytest.raises(ValueError, match=r"line 3: unparsable score '0\.5\\x00'$"):
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
        assert [c.right_item for c in rows_of(cset)] == [f"b{i}" for i in range(10)]


def test_comparison_invariants():
    with pytest.raises(ValueError):
        comparison_set([("u", "g", "a", "a", 0.2)])
    with pytest.raises(ValueError):
        comparison_set([("u", "g", "a", "b", 1.5)])
    with pytest.raises(ValueError):
        comparison_set([("u", "g", "a", "b", float("nan"))])
    with pytest.raises(ValueError, match="comparison columns must be 1-D and of equal length"):
        ComparisonSet(["u"], [0, 0], ["c"], [0, 0], ["a", "b"], [0, 0], [1, 1], [0.5])


def test_vocabulary_naming_an_id_twice_is_refused():
    """Two codes in use naming one id would write a self-comparison the
    reader refuses, or two groups of one user; a repeat no code uses is
    dropped."""
    with pytest.raises(ValueError, match="id 'i' appears twice in a vocabulary"):
        ComparisonSet(["u"], [0], ["c"], [0], ["i", "i"], [0], [1], [0.5])
    with pytest.raises(ValueError, match="id 'u' appears twice in a vocabulary"):
        ComparisonSet(["u", "u"], [0, 1], ["c"], [0, 0], ["a", "b"], [0, 0], [1, 1], [0.5, 0.5])
    cset = ComparisonSet(["u", "u"], [1], ["c"], [0], ["b", "a", "b"], [1], [2], [0.5])
    assert rows_of(cset) == (("u", "c", "a", "b", 0.5),)


@pytest.mark.parametrize("column", ["user", "criterion", "left", "right"])
@pytest.mark.parametrize("bad", [-2, 3])
@pytest.mark.parametrize("vocabulary", ["sorted", "unsorted"])
def test_code_outside_its_vocabulary_is_refused(column, bad, vocabulary):
    """A negative code would wrap to an id from the end, so that left -2 of
    items ('a', 'b') turns row 0 into a self-comparison of 'a'; a code past
    the end has no id. Both are refused, whether the vocabularies are sorted
    and all in use, which needs no recoding, or must be recoded."""
    vocab = ["a", "b", "c"] if vocabulary == "sorted" else ["c", "a", "b"]
    columns = {"user": [0, 1, 2, 0], "criterion": [0, 1, 2, 0],
               "left": [0, 1, 2, 0], "right": [1, 2, 0, 1]}
    columns[column][3] = bad
    with pytest.raises(ValueError, match=f"^{column} code {bad} outside a vocabulary of 3 ids$"):
        ComparisonSet(vocab, columns["user"], vocab, columns["criterion"],
                      vocab, columns["left"], columns["right"], [0.5] * 4)


def test_non_integer_codes_are_refused():
    """Float codes 1.9, 0.5 and 1.99 would truncate to user 'v' comparing
    'a' with 'b'; a code column of floats or booleans is refused by name, as
    `ComparisonSet.take` refuses such rows. An empty column holds no code."""
    with pytest.raises(ValueError, match="^user codes must be integers, got float64$"):
        ComparisonSet(["u", "v"], [1.9], ["c"], [0], ["a", "b", "x"], [0.5], [1.99], [0.5])
    with pytest.raises(ValueError, match="^left codes must be integers, got float64$"):
        ComparisonSet(["u"], [0], ["c"], [0], ["a", "b"], [0.0], [1], [0.5])
    with pytest.raises(ValueError, match="^criterion codes must be integers, got bool$"):
        ComparisonSet(["u"], [0], ["c", "d"], [True], ["a", "b"], [0], [1], [0.5])
    cset = ComparisonSet(["u"], np.array([0], np.uint8), ["c"], [0], ["a", "b"], [0], [1], [0.5])
    assert rows_of(cset) == (("u", "c", "a", "b", 0.5),)
    assert len(ComparisonSet([], [], [], [], [], [], [], [])) == 0


def test_scaled_comparisons_with_two_tags_are_refused(tmp_path):
    path = _write(tmp_path, "s.csv", HEADER[:-1] + ",scaler\n"
                  "u1,g,a,b,0.5,minmax\nu1,g,a,c,0.5,none\n")
    with pytest.raises(ValueError, match=r"mixed scaler tags \['minmax', 'none'\]$"):
        parse_scaled_comparisons(path)


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
    assert rows_of(back) == rows_of(cset)
    assert back.score.tolist() == cset.score.tolist()


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
    assert rows_of(parse_comparisons(path)) == rows_of(cset)


def test_features_round_trip_any_ids(tmp_path):
    table = FeatureTable(("a,b", 'q"\n'), np.array([[1.0, 2.0], [0.5, -1.0]]))
    path = tmp_path / "f.csv"
    write_features(table, path)
    back = parse_features(path)
    assert back.item_ids == table.item_ids
    np.testing.assert_array_equal(back.vectors, table.vectors)


class TestParseFeatures:
    def test_basic(self, tmp_path):
        path = _write(tmp_path, "f.csv", "item_id,f0,f1\na,1.0,2.0\nb,0.0,1.0\n")
        table = parse_features(path)
        assert table.dim == 2
        assert table.item_ids == ("a", "b")
        np.testing.assert_array_equal(table.vectors, [[1.0, 2.0], [0.0, 1.0]])

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
        # The right width, the wrong names.
        path = _write(tmp_path, "f.csv", "item_id,f0,g1\na,1.0,2.0\n")
        with pytest.raises(ValueError, match=r"bad header \['item_id', 'f0', 'g1'\], "
                                             r"expected \['item_id', 'f0', 'f1'\]$"):
            parse_features(path)

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        table = FeatureTable(tuple(f"i{k}" for k in range(5)), rng.standard_normal((5, 3)))
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
        assert set(rows_of(train)) | set(rows_of(test)) == set(rows_of(cset))
        assert not set(rows_of(train)) & set(rows_of(test))

    def test_deterministic(self):
        cset = self._one_user(10)
        assert rows_of(split(cset, 0.8, 7)[0]) == rows_of(split(cset, 0.8, 7)[0])

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
            assert set(train.user_ids) == set(cset.user_ids)
            assert set(test.user_ids) == set(cset.user_ids)

    def test_fraction_validated(self):
        with pytest.raises(ValueError):
            split(self._one_user(4), 1.0, 0)

    def test_input_order_preserved(self):
        cset = self._one_user(12)
        train, test = split(cset, 0.75, 1)
        order = {c: i for i, c in enumerate(rows_of(cset))}
        assert [order[c] for c in rows_of(train)] == sorted(order[c] for c in rows_of(train))
        assert [order[c] for c in rows_of(test)] == sorted(order[c] for c in rows_of(test))


def test_restrict_by_user_and_criterion():
    cset = comparison_set(
        [
            ("u1", "green", "a", "b", 0.1),
            ("u2", "green", "a", "c", 0.2),
            ("u1", "calm", "a", "d", 0.3),
        ]
    )
    assert len(take(cset, "u1")) == 2
    assert len(cset.restrict(criterion="green")) == 2
    assert len(take(cset, "u1").restrict(criterion="calm")) == 1
    assert set(cset.criterion_ids) == {"green", "calm"}


_TAKE_ROWS = [("u1", "g", "a", "b", 0.1), ("u2", "g", "a", "c", -0.2),
              ("u1", "h", "c", "d", 0.3), ("u3", "g", "b", "d", 0.0)]


@given(mask=st.lists(st.booleans(), min_size=4, max_size=4))
def test_take_by_mask_equals_take_by_its_indices(mask):
    cset = comparison_set(_TAKE_ROWS)
    expected = [row for row, keep in zip(_TAKE_ROWS, mask) if keep]
    for rows in (mask, np.array(mask), np.flatnonzero(mask), np.flatnonzero(mask).tolist()):
        assert rows_of(cset.take(rows)) == tuple(expected)


def test_take_never_reads_a_mask_as_positions():
    # [True, False, True, False] keeps rows 0 and 2, not rows 1, 0, 1, 0;
    # a list of 0s and 1s is positions.
    cset = comparison_set(_TAKE_ROWS)
    assert rows_of(cset.take([True, False, True, False])) == (_TAKE_ROWS[0], _TAKE_ROWS[2])
    assert rows_of(cset.take([1, 0])) == (_TAKE_ROWS[1], _TAKE_ROWS[0])
    assert len(cset.take([])) == 0
    assert len(cset.take(np.zeros(4, dtype=bool))) == 0
    with pytest.raises(IndexError, match="rows must be integers or a boolean mask"):
        cset.take([0.0, 1.5])


@pytest.mark.parametrize("mask", [
    [True, False], [True] * 5, np.ones((2, 2), dtype=bool), np.ones((4, 1), dtype=bool),
    np.bool_(True),
], ids=["short", "long", "square", "column", "scalar"])
def test_take_refuses_a_mask_of_another_shape(mask):
    cset = comparison_set(_TAKE_ROWS)
    shape = np.shape(mask)
    with pytest.raises(ValueError, match=rf"shape \(4,\), got {re.escape(str(shape))}"):
        cset.take(mask)


def test_derived_sets_match_contents():
    cset = comparison_set([("u1", "g", "a", "b", 0.1), ("u2", "g", "b", "c", -0.2)])
    assert set(cset.user_ids) == {"u1", "u2"}
    assert set(cset.item_ids) == {"a", "b", "c"}
    assert isinstance(cset, ComparisonSet)


# --- The block reader against csv.reader -----------------------------------
#
# `read_columns` reads every file in blocks on bytes. Each generated file is
# parsed as usual and through csv.reader (`csv_oracle`); both must give the
# same set, or the same error.

_BLOCK_SIZES = st.sampled_from([1, 7, 64, dataset._BLOCK_BYTES])
# Ids read as zero-padded matrices: no comma, quote, CR, LF or NUL, at most
# 40 bytes.
_plain_ids = st.text(
    alphabet=st.characters(codec="utf-8", exclude_characters=',"\r\n\x00'), max_size=10
)
# Ids that need quotes, doubled quotes or text columns, next to plain ones.
# csv.reader refuses NUL before Python 3.11, so the oracle gets none there.
_SPECIAL = ',"\r\né' + ("\x00" if sys.version_info >= (3, 11) else "")
_ORACLE_CHARS = st.characters(
    codec="utf-8", exclude_characters="" if sys.version_info >= (3, 11) else "\x00"
)
_special_ids = st.one_of(
    st.text(alphabet=st.one_of(st.sampled_from(_SPECIAL), _ORACLE_CHARS), max_size=6),
    st.text(alphabet=_ORACLE_CHARS, min_size=65, max_size=70),
    _plain_ids,
)
# Long-digit and exponent forms that the decimal kernel refuses, next to its own.
_good_scores = st.one_of(
    st.floats(-1.0, 1.0).map(repr),
    st.sampled_from([" 0.25", "+.5e-0", "-0.2_5", "1", "0.1234567890123456789012345",
                     "-0.5" + "0" * 24, "0.9999999999999999999", "2.5e-1", "-9.5E-1"]),
)
_bad_scores = st.sampled_from(["1_0", "nan", "١", "1.5", "-inf", "", "0x1p-2", "1e999", "spam"])
_BAD_ROWS = ("short", "long", "self", "score")


@st.composite
def _comparison_files(draw, ids):
    """(file bytes, header) in either schema; ids quoted as `csv_field` does,
    LF, CRLF or CR line ends, blank lines, a final line end or not, and at most
    one bad row in four files."""
    header = draw(st.sampled_from([COMPARISONS_HEADER, COMPARISONS_HEADER + ["scaler"]]))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    tag = draw(st.sampled_from(["minmax", "none", "bogus"]))
    rows = draw(st.lists(
        st.tuples(ids, ids, ids, ids, _good_scores).filter(lambda r: r[2] != r[3]),
        max_size=12,
    ))
    lines = [",".join(header)]
    bad_at = draw(st.integers(0, 4 * len(rows)))
    for k, (user, criterion, left, right, score) in enumerate(rows):
        fields = [user, criterion, left, right]
        if k == bad_at:
            kind = draw(st.sampled_from(_BAD_ROWS))
            if kind == "self":
                fields[3] = left
            elif kind == "score":
                score = draw(_bad_scores)
            elif kind == "long":
                fields.append("x")
            else:
                fields = fields[:3]
        fields = [csv_field(f) for f in fields] + [score]
        lines.append(",".join(fields + [tag] * (len(header) - 5)))
        if draw(st.integers(0, 5)) == 0:
            lines.append("")
    text = eol.join(lines) + draw(st.sampled_from([eol, ""]))
    return text.encode("utf-8"), header


def _outcome(path, header):
    """What parsing gives: the set's vocabularies, code and score bytes and
    scaler tag, or the type and message of the error."""
    parse = parse_comparisons if header == COMPARISONS_HEADER else parse_scaled_comparisons
    try:
        s = parse(path)
    except ValueError as exc:
        return type(exc), str(exc)
    return (
        type(s), s.user_ids, s.criterion_ids, s.item_ids,
        *(a.tobytes() for a in (s.user, s.criterion, s.left, s.right, s.score)),
        getattr(s, "scaler_tag", None),
    )


def _check_both_paths(path, data, header, block_bytes):
    """Assert that the block reader and the oracle agree on `data`."""
    path.write_bytes(data)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataset, "_BLOCK_BYTES", block_bytes)
        usual = _outcome(path, header)
        mp.setattr(dataset, "read_columns", csv_oracle.read_columns)
        mp.setattr(scaling, "read_columns", csv_oracle.read_columns)
        assert usual == _outcome(path, header)


@given(file=_comparison_files(_plain_ids), block_bytes=_BLOCK_SIZES)
@settings(max_examples=300, deadline=None)
def test_byte_path_matches_csv_path_on_plain_ids(file, block_bytes, tmp_path_factory):
    _check_both_paths(tmp_path_factory.mktemp("ids") / "c.csv", *file, block_bytes)


@given(file=_comparison_files(_special_ids), block_bytes=_BLOCK_SIZES)
@settings(max_examples=300, deadline=None)
def test_byte_path_matches_csv_path_on_special_ids(file, block_bytes, tmp_path_factory):
    _check_both_paths(tmp_path_factory.mktemp("ids") / "c.csv", *file, block_bytes)


_SCALED = COMPARISONS_HEADER + ["scaler"]


@pytest.mark.parametrize("data, header", [
    pytest.param(b"", COMPARISONS_HEADER, id="empty"),
    pytest.param(HEADER.encode(), COMPARISONS_HEADER, id="header-only"),
    pytest.param(HEADER.encode()[:-1], COMPARISONS_HEADER, id="header-without-lf"),
    pytest.param(HEADER.replace("\n", "\r\n").encode() + b"u,g,a,b,0.5\r\n",
                 COMPARISONS_HEADER, id="crlf"),
    pytest.param(HEADER.encode() + b"u,g,a,b,0.5\r\n\r\nu,g,a,c,0.5\n", COMPARISONS_HEADER,
                 id="mixed-line-ends"),
    pytest.param(HEADER.encode() + b"u,g,a,b,0.5\ru,g,a,c,0.5\n", COMPARISONS_HEADER,
                 id="bare-cr"),
    pytest.param(HEADER.encode() + b"u,g,a,b,0.5\r\r\n", COMPARISONS_HEADER, id="cr-crlf"),
    pytest.param(HEADER.encode() + b"u,g,a,b,0.5\r", COMPARISONS_HEADER, id="final-bare-cr"),
    pytest.param(HEADER.encode()[:-1] + b"\r", COMPARISONS_HEADER, id="header-ending-in-cr"),
    pytest.param(b"\n" + HEADER.encode() + b"u,g,a,b,0.5\n", COMPARISONS_HEADER,
                 id="blank-first-line"),
    pytest.param(HEADER.encode() + b'"' + b"x" * 140_000 + b'",g,a,b,0.5\n', COMPARISONS_HEADER,
                 id="field-over-csv-limit"),
    pytest.param(b"\xef\xbb\xbf" + HEADER.encode() + b"u,g,a,b,0.5\n", COMPARISONS_HEADER,
                 id="bom"),
    pytest.param(b'"user_id",criterion,"left_item",right_item,""""\r\nu,g,a,b,0.5\n',
                 COMPARISONS_HEADER, id="quoted-header"),
    pytest.param(b'user_id,"criterion",left_item,right_item,score\r\n"u",g,a,b,0.5\r\n',
                 COMPARISONS_HEADER, id="quoted-header-crlf"),
    pytest.param(HEADER.encode() + b"\n\n", COMPARISONS_HEADER, id="blank-lines-only"),
    pytest.param(HEADER.encode() + b"u\xff,g,a,b,0.5\n", COMPARISONS_HEADER, id="not-utf8"),
    pytest.param(HEADER.encode() + b"u,g,a,b,0.5\n" + b"x" * 65 + b",g,a,b,0.5\n",
                 COMPARISONS_HEADER, id="65-byte-id"),
    pytest.param(HEADER.encode() + b"u,g,a,b,\xd9\xa1\n", COMPARISONS_HEADER,
                 id="arabic-digit-score"),
    pytest.param(HEADER.encode() + b"u,g,a,b,0.5\nu,g,a,b,nan\n", COMPARISONS_HEADER,
                 id="nan-score"),
    pytest.param(HEADER.encode() + b"u,g,a,b,0.5\nu,g,a,b,spam\n", COMPARISONS_HEADER,
                 id="spam-score"),
    pytest.param(HEADER.encode() + b"u,g,a,b,-inf\nu,g,a,b,spam\n", COMPARISONS_HEADER,
                 id="inf-score"),
    # One row a column long and one short: the comma total is right.
    pytest.param(",".join(_SCALED).encode() + b"\nu,g,a,b,0.5,none,x\nu,g,a,0.5,none\n",
                 _SCALED, id="long-and-short-row"),
])
def test_byte_path_matches_csv_path_on_edge_files(tmp_path, data, header):
    _check_both_paths(tmp_path / "c.csv", data, header, dataset._BLOCK_BYTES)


@pytest.mark.parametrize("block_bytes", [1, 7, 64])
def test_rows_straddling_blocks_read_on_bytes(tmp_path, block_bytes):
    data = (HEADER + "u1,g,a,b,-0.5\n\nuser-2,crit,item-with-long-id,a,0.125").encode()
    _check_both_paths(tmp_path / "c.csv", data, COMPARISONS_HEADER, block_bytes)


# --- parse_features against csv.reader ---------------------------------------

_good_values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from([" 0.25", "+.5e-0", "-0.2_5", "1", "1_0", "١", "1e308", "1.25e-3",
                     "9.999999999999999999999", "-3." + "0" * 30 + "1"]),
)
_bad_values = st.sampled_from(["nan", "-inf", "1e999", "spam", "", "0x1p-2"])
_BAD_FEATURE_ROWS = (("short",), ("long",), ("value",), ("duplicate",), ("duplicate", "value"))


@st.composite
def _feature_files(draw):
    """Features CSV bytes: ids quoted as `csv_field` does, LF, CRLF or CR
    line ends, blank lines, a final line end or not, and at most one bad row
    in two files: a bad value, a duplicate id, the wrong field count, or a
    duplicate id with a bad value."""
    dim = draw(st.integers(1, 3))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    items = draw(st.lists(_special_ids, max_size=10))
    lines = [",".join(["item_id"] + [f"f{i}" for i in range(dim)])]
    bad_at = draw(st.integers(0, 2 * len(items)))
    for k, item in enumerate(items):
        values = draw(st.lists(_good_values, min_size=dim, max_size=dim))
        kinds = draw(st.sampled_from(_BAD_FEATURE_ROWS)) if k == bad_at else ()
        if "value" in kinds:
            values[draw(st.integers(0, dim - 1))] = draw(_bad_values)
        if "duplicate" in kinds and k > 0:
            item = items[draw(st.integers(0, k - 1))]
        if "long" in kinds:
            values.append("0.5")
        elif "short" in kinds:
            values.pop()
        lines.append(",".join([csv_field(item)] + values))
        if draw(st.integers(0, 5)) == 0:
            lines.append("")
    return (eol.join(lines) + draw(st.sampled_from([eol, ""]))).encode("utf-8")


def _features_outcome(path):
    """The table parsing gives, as ids, shape and bytes, or the error."""
    try:
        table = parse_features(path)
    except ValueError as exc:
        return type(exc), str(exc)
    return table.item_ids, table.vectors.shape, table.vectors.tobytes()


def _check_features_both_paths(path, data, block_bytes):
    """Assert that the block reader and the oracle read `data` alike."""
    path.write_bytes(data)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataset, "_BLOCK_BYTES", block_bytes)
        usual = _features_outcome(path)
    oracle = csv_oracle.parse_features
    try:
        want = oracle(path)
    except ValueError as exc:
        assert usual == (type(exc), str(exc))
    else:
        assert usual == (want.item_ids, want.vectors.shape, want.vectors.tobytes())


@given(data=_feature_files(), block_bytes=st.sampled_from([1, 7, 64]))
@settings(max_examples=300, deadline=None)
def test_parse_features_matches_csv_path(data, block_bytes, tmp_path_factory):
    _check_features_both_paths(tmp_path_factory.mktemp("f") / "f.csv", data, block_bytes)


_FEATURES = b"item_id,f0,f1\n"


@pytest.mark.parametrize("data", [
    pytest.param(_FEATURES + b"a,1,2\na,spam,2\n", id="duplicate-before-unparsable"),
    pytest.param(_FEATURES + b"a,1,2\nb,spam,2\nb,nan,1\n", id="unparsable-before-duplicate"),
    pytest.param(_FEATURES + b"a,nan,spam\n", id="non-finite-before-unparsable"),
    pytest.param(_FEATURES + b"a,1,1e999\n", id="overflow"),
    pytest.param(_FEATURES + b"a,\xd9\xa1,1_0\n", id="arabic-digit-and-underscore"),
    pytest.param(_FEATURES + b"a\x00b,1,2\na,3,4\n", id="nul-id"),
    pytest.param(_FEATURES + b'"x,' + b"y" * 70 + b'",1,2\n"q""\r\n",3,4\n', id="long-quoted-id"),
    pytest.param(_FEATURES, id="header-only"),
])
def test_parse_features_matches_csv_path_on_edge_files(tmp_path, data):
    if b"\x00" in data and sys.version_info < (3, 11):
        pytest.skip("csv.reader refuses NUL before Python 3.11")
    for block_bytes in (1, 7, 64):
        _check_features_both_paths(tmp_path / "f.csv", data, block_bytes)


@pytest.mark.parametrize("item_ids, vectors, message", [
    (("a", "b"), np.zeros((2,)), r"shape \(2,\), expected \(2, dim >= 1\)"),
    (("a", "b"), np.zeros((3, 2)), r"shape \(3, 2\), expected \(2, dim >= 1\)"),
    (("a",), np.zeros((1, 0)), r"shape \(1, 0\), expected \(1, dim >= 1\)"),
    (("a", "b", "a", "b"), np.zeros((4, 1)), "duplicate item 'a' in feature table"),
    (("a", "b", "c"), [[0.0], [np.inf], [np.nan]], "non-finite feature value for item 'b'"),
], ids=["flat", "more-rows", "zero-width", "duplicate", "non-finite"])
def test_feature_table_checks_its_rows(item_ids, vectors, message):
    with pytest.raises(ValueError, match=message):
        FeatureTable(item_ids, vectors)


def test_feature_matrix_gathers_rows_and_names_a_missing_item():
    table = FeatureTable(("b", "a", "c"), [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    assert (len(table), table.dim) == (3, 2)
    assert table.matrix(["a", "a", "c"]).tolist() == [[3.0, 4.0], [3.0, 4.0], [5.0, 6.0]]
    assert table.matrix([]).shape == (0, 2)
    with pytest.raises(ValueError, match="item 'z' missing from feature table"):
        table.matrix(["a", "z"])
