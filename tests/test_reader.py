"""The CSV reader on any bytes, on every Python, and without numpy.ma."""

import contextlib
import io
import math
import os
import re
import subprocess
import sys
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import equirank
from equirank import cli, dataset
from equirank.dataset import (
    COMPARISONS_HEADER,
    FeatureTable,
    parse_comparisons,
    parse_features,
    write_comparisons,
    write_features,
)
from equirank.scaling import (
    SCALER_TAGS,
    parse_scaled_comparisons,
    write_scaled_comparisons,
)
import csv_oracle
from row_view import comparison_set, rows_of

HEADER = ",".join(COMPARISONS_HEADER).encode() + b"\n"
_BLOCK_SIZE_VALUES = [1, 7, 64, dataset._BLOCK_BYTES]
_BLOCK_SIZES = st.sampled_from(_BLOCK_SIZE_VALUES)

# --- Any bytes ----------------------------------------------------------------

_HEADERS = [
    b"",
    HEADER,
    HEADER.replace(b"\n", b",scaler\r\n"),
    b"item_id,f0,f1\n",
    b"\xef\xbb\xbf" + HEADER,
]
_PIECES = [
    b'"', b'""', b",", b"\r", b"\n", b"\r\n", b"\0", b"\xff", b"\xc3\xa9", b"\xef\xbb\xbf",
    b"u", b"a", b"b", b"0.5", b"-1", b" ", b"nan", b"1e999", b"minmax", b"none", b"x" * 70,
    b"0.1234567890123456789012345", b"-9.999999999999999999", b"1.25e-3", b"-2.5E+0", b"-.5",
]
_bodies = st.lists(
    st.one_of(st.sampled_from(_PIECES), st.binary(max_size=6)), max_size=40
).map(b"".join)
# Every message a reader may raise, after the file's name.
_ALLOWED = re.compile(
    r"line \d+: |empty file, expected a header row$|bad header |mixed scaler tags "
    r"|scaler tag must be one of "
)


def _check_message(path, exc):
    message = str(exc)
    assert message.startswith(f"{path}: "), message
    assert _ALLOWED.match(message, len(f"{path}: ")), message


@given(head=st.sampled_from(_HEADERS), body=_bodies, block_bytes=_BLOCK_SIZES)
@settings(max_examples=600, deadline=None)
def test_any_bytes_read_or_name_the_line(head, body, block_bytes, tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "c.csv"
    path.write_bytes(head + body)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataset, "_BLOCK_BYTES", block_bytes)
        for read in (parse_comparisons, parse_scaled_comparisons, parse_features):
            try:
                read(path)
            except ValueError as exc:
                _check_message(path, exc)


@given(body=_bodies)
@settings(max_examples=40, deadline=None)
def test_cli_exits_1_naming_what_the_reader_names(body, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    path = tmp / "c.csv"
    path.write_bytes(HEADER + body)
    try:
        parse_comparisons(path)
    except ValueError as exc:
        message = str(exc)
    else:
        return
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["scale", "--input", str(path), "--scaler", "minmax",
                         "-o", str(tmp / "out")])
    assert code == 1
    assert err.getvalue() == f"equirank: {message}\n"


# Where csv.reader reads malformed quoting leniently, the reader names the
# line; a record ended by a bare CR is checked before a bad byte after it.
@pytest.mark.parametrize("body, message", [
    (b'u,g,a,b,0.5\nu"x,g,a,b,0.5\n', "line 3: stray double quote"),
    (b'"u"x,g,a,b,0.5\n', "line 2: stray double quote"),
    (b'u,g,a,b,0.5\n\n"u,g,a,b,0.5\n', "line 4: unterminated quoted field"),
    (b'u,"g\nh",a,b,0.5\r\nu,g,a,a,0.5\n', "line 3: self-comparison of item 'a'"),
    (b'u,g,"a\r\n",b,0.5\nu,g,a,b,7\n', "line 3: score 7 outside [-1, 1]"),
    (b"u,g,a,b,0.5\nu\r\xff,g,a,b,0.5\n", "line 3: expected 5 columns, got 1"),
    (b"u,g,a,b,0.5\nu,g,a,b,0.5\r\xff,g,a,b,0.5\n", "line 3: not valid UTF-8"),
], ids=["quote-in-bare-field", "text-after-quote", "unterminated", "quoted-lf", "quoted-crlf",
        "bare-cr-before-bad-byte", "good-row-before-bad-byte"])
def test_reader_names_the_line(tmp_path, body, message):
    path = tmp_path / "c.csv"
    path.write_bytes(HEADER + body)
    with pytest.raises(ValueError) as exc:
        parse_comparisons(path)
    assert str(exc.value) == f"{path}: {message}"


@pytest.mark.parametrize("row, message", [
    (b'u"x,g,a,b,0.5\n', "line 3: stray double quote"),
    (b'"' + b"x" * 700 + b'",g,a,b,0.5\n', "line 3: field larger than field limit (256)"),
], ids=["stray", "long-quoted-field"])
def test_open_quote_is_refused_from_a_bounded_block(tmp_path, monkeypatch, row, message):
    # A quote still open _FIELD_LIMIT bytes on ends the reading there: the
    # error comes from a block holding no more than the limit and two blocks,
    # not from the rest of the file.
    monkeypatch.setattr(dataset, "_BLOCK_BYTES", 64)
    monkeypatch.setattr(dataset, "_FIELD_LIMIT", 256)
    path = tmp_path / "c.csv"
    path.write_bytes(HEADER + b"u,g,a,b,0.5\n" + row + b"u,g,a,b,0.5\n" * 2000)
    sizes = []
    line_blocks = dataset._line_blocks

    def recorded(fh):
        for block in line_blocks(fh):
            sizes.append(len(block))
            yield block

    monkeypatch.setattr(dataset, "_line_blocks", recorded)
    with pytest.raises(ValueError) as exc:
        parse_comparisons(path)
    assert str(exc.value) == f"{path}: {message}"
    assert max(sizes) <= 256 + 2 * 64


def test_bad_header_is_split_at_every_comma(tmp_path):
    path = tmp_path / "c.csv"
    path.write_bytes(b'"user_id,criterion",left_item,right_item,score\n')
    with pytest.raises(ValueError, match=re.escape("""bad header ['"user_id', 'criterion"',""")):
        parse_comparisons(path)


def test_cli_reads_a_quoted_scaled_header_with_cr_line_ends(tmp_path):
    cset = comparison_set([("u", "g", "a", "b", 0.5), ("u", "g", "b", "c", -0.25)])
    write_scaled_comparisons(cset, tmp_path / "s.csv", "minmax")
    data = (tmp_path / "s.csv").read_bytes().replace(b",scaler\n", b',"scaler"\n')
    (tmp_path / "cr.csv").write_bytes(data.replace(b"\n", b"\r"))
    for name in ("s", "cr"):
        assert cli.main(["scale", "--input", str(tmp_path / f"{name}.csv"), "--scaler", "none",
                         "-o", str(tmp_path / f"out-{name}")]) == 0
    assert (tmp_path / "out-cr" / "scaled.csv").read_bytes() == (
        tmp_path / "out-s" / "scaled.csv").read_bytes()


# --- The decimal kernel ---------------------------------------------------------

# The form `dataset._decimals` reads: a sign, one digit, a point, fraction digits.
_DECIMALS = re.compile(r"-?[0-9]\.[0-9]{1,22}")


def _column(tmp_path_factory, texts, block_bytes):
    """The texts as the one column of a CSV, read back in blocks: per text,
    the kernel's value and refusal and the reader's value."""
    path = tmp_path_factory.mktemp("column") / "c.csv"
    path.write_bytes(b"".join(t.encode() + b"\n" for t in ["x", *texts]))
    values, refused, read = [], [], []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataset, "_BLOCK_BYTES", block_bytes)
        rows = dataset._csv_rows(path)
        next(rows)
        for _, (field,) in rows:
            value, refusal = dataset._decimals(field)
            values += value.tolist()
            refused += refusal.tolist()
            read += dataset._floats(field).tolist()
    return np.array(values), np.array(refused, dtype=bool), np.array(read)


def _check_column(tmp_path_factory, texts, block_bytes):
    """Every text reads as the bits of float(text), and the kernel reads
    exactly the texts of its form with at most 18 significant digits."""
    values, refused, read = _column(tmp_path_factory, texts, block_bytes)
    want = np.full(len(texts), np.nan)
    for k, text in enumerate(texts):
        with contextlib.suppress(ValueError):
            want[k] = float(text)
    kernel = [
        bool(_DECIMALS.fullmatch(t)) and int(t.lstrip("-").replace(".", "")) < 10**18
        for t in texts
    ]
    assert refused.tolist() == [not k for k in kernel]
    assert values[~refused].tobytes() == want[~refused].tobytes()
    assert read.tobytes() == want.tobytes()


@given(
    texts=st.lists(st.one_of(
        st.floats(-1.0, 1.0).map(repr),
        st.from_regex(r"-?[0-9]\.[0-9]{1,24}", fullmatch=True),
    ), min_size=1, max_size=40),
    block_bytes=_BLOCK_SIZES,
)
@settings(max_examples=300, deadline=None)
def test_decimal_fields_read_as_float_reads_them(texts, block_bytes, tmp_path_factory):
    # Block sizes of 1 and 7 put every field at its block's first byte.
    _check_column(tmp_path_factory, texts, block_bytes)


# Powers of two and the doubles below them, where the gap below is half
# the gap above.
_TWOS = [2.0**j for j in range(-13, 4)]


@given(
    x=st.one_of(
        st.floats(1e-4, 9.99), st.sampled_from(_TWOS + [math.nextafter(t, 0) for t in _TWOS])
    ),
    digits=st.integers(16, 19),
    shift=st.sampled_from([-1, 0, 1]),
    sign=st.sampled_from(["", "-"]),
)
@settings(max_examples=300, deadline=None)
def test_decimals_near_a_midpoint_read_as_float_reads_them(
    x, digits, shift, sign, tmp_path_factory
):
    # The exact midpoint between x and the next double, rounded to `digits`
    # significant digits and moved by -1, 0 or 1 in the last one.
    with localcontext() as context:
        context.prec = 200
        middle = (Decimal(x) + Decimal(math.nextafter(x, math.inf))) / 2
        rounded = Decimal(f"{middle:.{digits - 1}e}")
        last = Decimal(1).scaleb(rounded.adjusted() - digits + 1)
        text = sign + format(rounded + shift * last, "f")
    _check_column(tmp_path_factory, [text], 1)


@pytest.mark.parametrize("text", [
    "0.5", "-0.0", "1.0", "9.999999999999999999999", "0.000000000000000000001",
    "0.12345678901234567", "-0.9999999999999999445", "9.00719925474099275", "0." + "0" * 21 + "5",
    "9.99999999999999999", "9.999999999999999999", "0.000999999999999999999",
    "0.0009999999999999999999", "-0.0004611686018427387904",
    "0.5" + "0" * 21, "1.25e-3", "-.5", "+0.5", "0.5 ", "12.5", "1.", "-", "-.", "nan",
], ids=repr)
@pytest.mark.parametrize("block_bytes", [1, 7, 64])
def test_decimal_edges_read_as_float_reads_them(text, block_bytes, tmp_path_factory):
    _check_column(tmp_path_factory, [text, "0.5", text], block_bytes)


# --- Ids found in the id caches ------------------------------------------------


class _FirstLands(np.ndarray):
    """An array whose fancy assignment keeps, of two entries for one slot,
    the first: numpy does not say which one lands."""

    def __setitem__(self, index, value):
        index = np.asarray(index)
        value = np.broadcast_to(value, index.shape)
        super().__setitem__(index[::-1], value[::-1])


class _Recorded(dataset._IdCache):
    """An `_IdCache` that keeps the vocabulary it codes for; with
    `first_lands`, its words keep the first of two entries for one slot."""

    made: list["_Recorded"] = []
    first_lands = False

    def __init__(self):
        _Recorded.made.append(self)
        if _Recorded.first_lands:
            size = 1 << dataset._CACHE_BITS
            self.words = np.full(size, dataset._NO_WORD).view(_FirstLands)
            self.codes = np.empty(size, dtype=np.intp)

    def codes_of(self, vocab, word):
        self.vocab = vocab
        return super().codes_of(vocab, word)


def _read_like_csv_reader(path, rows, block_bytes, first_lands=False):
    """Read `rows` as a comparisons file in blocks of `block_bytes` and check
    the set against csv.reader's, and every id cache against its vocabulary:
    each held word sits in its own slot, next to its id's code."""
    path.write_bytes(HEADER + "".join(f"{row}\n" for row in rows).encode())
    _Recorded.made = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataset, "_BLOCK_BYTES", block_bytes)
        mp.setattr(dataset, "_IdCache", _Recorded)
        mp.setattr(_Recorded, "first_lands", first_lands)
        got = parse_comparisons(path)
    want = csv_oracle.read_columns(path, COMPARISONS_HEADER)[0]
    assert rows_of(got) == rows_of(want)
    for cache in _Recorded.made:
        if cache.words is None:
            continue
        held = np.flatnonzero(cache.words != dataset._NO_WORD)
        words = np.asarray(cache.words[held])
        assert dataset._slot(words).tolist() == held.tolist()
        ids = [w.to_bytes(8, "little").rstrip(b"\0").decode() for w in words.tolist()]
        assert cache.codes[held].tolist() == [cache.vocab[i] for i in ids]


def _word(text):
    return int.from_bytes(text.encode(), "little")


def _slots(*texts):
    return dataset._slot(np.array([_word(t) for t in texts], dtype=np.uint64)).tolist()


@pytest.mark.parametrize("first_lands", [False, True], ids=["last-lands", "first-lands"])
@pytest.mark.parametrize("block_bytes", _BLOCK_SIZE_VALUES)
def test_ids_sharing_a_slot_take_turns(tmp_path, block_bytes, first_lands):
    # Two ids in one slot: new together in the first block of 64 bytes or
    # more, then, in blocks of 64 bytes, taking the slot from each other;
    # `c` keeps those blocks' user column from being constant. Whichever of
    # the two new ids lands in the slot, the slot's code must be that id's.
    users = [f"u{k}" for k in range(1000)]
    slots = {}
    for user, slot in zip(users, _slots(*users)):
        slots.setdefault(slot, []).append(user)
    a, b = next(pair for pair in slots.values() if len(pair) > 1)[:2]
    c = next(u for u in users if u not in (a, b))
    order = (a, b) * 3 + ((a, c) * 6 + (b, c) * 6) * 3
    rows = [f"{user},g,x,y,0.5" for user in order]
    _read_like_csv_reader(tmp_path / "c.csv", rows, block_bytes, first_lands)


@pytest.mark.parametrize("block_bytes", _BLOCK_SIZE_VALUES)
def test_id_read_as_text_then_as_a_span(tmp_path, block_bytes):
    # The doubled quote sends the user column of the blocks that hold it to
    # the text path, `u` with it; `u` is read as a span only in later blocks.
    rows = ['"x""y",g,a,b,0.5', "u,g,a,b,0.5"] * 3 + ["u,g,a,b,0.5", "v,g,a,b,0.5"] * 12
    _read_like_csv_reader(tmp_path / "c.csv", rows, block_bytes)


@pytest.mark.parametrize("broken", [
    "crXterion-0123456789", "criterion-0X23456789", "criterion-012345678X",
    "criterion-01234567890",
], ids=["first-word", "middle-word", "last-word", "one-byte-longer"])
@pytest.mark.parametrize("block_bytes", _BLOCK_SIZE_VALUES)
def test_wide_constant_column_broken_in_a_later_row(tmp_path, block_bytes, broken):
    # Three words of 20 bytes: 0-7, 8-15 and 16-19.
    rows = ["u,criterion-0123456789,a,b,0.5"] * 9 + [f"u,{broken},a,b,0.5"]
    _read_like_csv_reader(tmp_path / "c.csv", rows * 2, block_bytes)


@pytest.mark.parametrize("block_bytes", _BLOCK_SIZE_VALUES)
def test_empty_id_meets_an_empty_slot(tmp_path, block_bytes):
    # The empty id's word is 0, which hashes to slot 0; `a` and `b` leave
    # that slot holding `_NO_WORD`, which matches no id's word.
    empty, a, b = _slots("", "a", "b")
    assert empty == 0 and 0 not in (a, b)
    rows = ["a,g,x,y,0.5", "b,g,x,y,0.5"] * 6 + [",g,x,y,0.5", "a,g,x,y,0.5"] * 6
    _read_like_csv_reader(tmp_path / "c.csv", rows, block_bytes)


def test_vocabularies_past_a_thousand_ids(tmp_path):
    # 3,000 users and 2,000 items of at most 8 bytes, the rows shuffled so
    # that every id recurs across blocks of 4 KiB.
    rng = np.random.default_rng(5)
    n = 12000
    user = np.repeat(np.arange(3000), n // 3000)
    left = rng.integers(2000, size=n)
    right = (left + rng.integers(1, 2000, size=n)) % 2000
    score = rng.uniform(-1.0, 1.0, size=n)
    rows = [
        f"u{u:04d},g,i{l:04d},i{r:04d},{s!r}"
        for u, l, r, s in zip(user.tolist(), left.tolist(), right.tolist(), score.tolist())
    ]
    rows = [rows[k] for k in rng.permutation(n).tolist()]
    _read_like_csv_reader(tmp_path / "c.csv", rows, 4096)
    held = sorted(
        np.count_nonzero(cache.words != dataset._NO_WORD)
        for cache in _Recorded.made if cache.words is not None
    )
    assert len(held) == 2 and held[0] > 724


# --- Written files read back, with no csv.reader ------------------------------

_odd_ids = st.one_of(
    st.text(alphabet=st.sampled_from('\x00",\r\nab é'), max_size=8),
    st.text(alphabet=st.characters(codec="utf-8"), min_size=65, max_size=80),
)


@given(
    rows=st.lists(
        st.tuples(_odd_ids, _odd_ids, _odd_ids, _odd_ids, st.floats(-1.0, 1.0))
        .filter(lambda r: r[2] != r[3]),
        max_size=10,
    ),
    tag=st.sampled_from(SCALER_TAGS),
    block_bytes=_BLOCK_SIZES,
)
@settings(max_examples=200, deadline=None)
def test_written_files_read_back(rows, tag, block_bytes, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("rt")
    cset = comparison_set(rows)
    n = len(cset.item_ids)
    table = FeatureTable(cset.item_ids, np.column_stack([np.arange(n) / 3, np.full(n, -1e-300)]))
    write_comparisons(cset, tmp / "c.csv")
    write_scaled_comparisons(cset, tmp / "s.csv", tag)
    write_features(table, tmp / "f.csv")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataset, "_BLOCK_BYTES", block_bytes)
        back = parse_comparisons(tmp / "c.csv")
        scaled_back = parse_scaled_comparisons(tmp / "s.csv")
        table_back = parse_features(tmp / "f.csv")
    for got in (back, scaled_back):
        assert rows_of(got) == rows_of(cset)
        assert got.score.tobytes() == cset.score.tobytes()
    # The tag is the file's: the set rewritten under it gives the same bytes.
    write_scaled_comparisons(scaled_back, tmp / "s2.csv", tag)
    assert (tmp / "s2.csv").read_bytes() == (tmp / "s.csv").read_bytes()
    assert table_back.item_ids == table.item_ids
    assert table_back.vectors.tobytes() == table.vectors.tobytes()


# --- Memory ---------------------------------------------------------------------


def test_reading_imports_no_numpy_ma(tmp_path):
    # numpy.ma adds about 1 MB to a process; np.unique without
    # return_inverse imports it.
    cset = comparison_set([("u", "g", "a", "b", 0.5), ("v", "g", "b", "c", -0.25)])
    write_scaled_comparisons(cset, tmp_path / "s.csv", "minmax")
    write_features(FeatureTable(("a",), [[0.5]]), tmp_path / "f.csv")
    code = (
        "import sys\n"
        "from equirank.dataset import parse_features\n"
        "from equirank.scaling import parse_scaled_comparisons\n"
        f"parse_scaled_comparisons({str(tmp_path / 's.csv')!r})\n"
        f"parse_features({str(tmp_path / 'f.csv')!r})\n"
        "sys.exit('numpy.ma' in sys.modules)\n"
    )
    src = str(Path(equirank.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
