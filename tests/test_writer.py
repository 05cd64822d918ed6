"""The block writers against the row writers, and atomic data files."""

import json
import os
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equirank import dataset
from equirank.dataset import (
    COMPARISONS_HEADER,
    FeatureTable,
    parse_comparisons,
    write_columns,
    write_comparisons,
    write_features,
    write_json,
    write_table,
)
from equirank.cli import _write_manifest, write_loss_trace, write_summary
from equirank.equity import build_report, write_lorenz, write_report
from equirank.gbt import GbtFits, write_individual_scores
from equirank.ltr import ModelParams, predict_all, save_model
from equirank.scaling import Affines, write_user_affines
from equirank.simgen import GroundTruth, write_truth_theta, write_truth_users
from row_view import comparison_set, rows_of
import writer_oracle
from writer_oracle import oracle_write_columns

# Ids with the bytes CSV quotes or the byte reader refuses, non-ASCII ids,
# and ids over 64 bytes; and ids of one fixed length, so that a vocabulary's
# tokens can all be as wide as its table.
_special_ids = st.one_of(
    st.text(alphabet=st.one_of(st.sampled_from(',"\r\n\x00é'), st.characters(codec="utf-8")),
            max_size=6),
    st.text(alphabet=st.characters(codec="utf-8"), min_size=65, max_size=70),
)
_fixed_ids = st.text(alphabet="abc", min_size=3, max_size=3)
_ids = st.one_of(_fixed_ids, _special_ids)
_scores = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e-05, 1.0, -1.0, 0.1 + 0.2, 3e-300]),
    st.floats(-1.0, 1.0),
)
_BLOCK_ROWS = [1, 7, dataset._WRITE_ROWS]


@st.composite
def _sets(draw):
    """(set, extra fields): ids of either kind per column, any row count."""
    users, criteria, items = (draw(st.sampled_from([_fixed_ids, _ids])) for _ in range(3))
    rows = draw(st.lists(
        st.tuples(users, criteria, items, items, _scores).filter(lambda r: r[2] != r[3]),
        max_size=20,
    ))
    extra = tuple(draw(st.lists(_ids, max_size=2)))
    return comparison_set(rows), extra


def _header(extra):
    return COMPARISONS_HEADER + ["scaler", "x"][: len(extra)]


@given(case=_sets(), block_rows=st.sampled_from(_BLOCK_ROWS))
@settings(max_examples=400, deadline=None)
def test_block_writer_matches_row_writer(case, block_rows, tmp_path_factory):
    cset, extra = case
    folder = tmp_path_factory.mktemp("w")
    oracle_write_columns(folder / "rows.csv", _header(extra), cset, extra)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataset, "_WRITE_ROWS", block_rows)
        write_columns(folder / "blocks.csv", _header(extra), cset, extra)
    assert (folder / "blocks.csv").read_bytes() == (folder / "rows.csv").read_bytes()


# --- The score kernel against repr -------------------------------------------


def _kernel_lines(values):
    """The kernel's token of each value, one per line, in blocks of
    _WRITE_ROWS as the writer formats them."""
    values = np.asarray(values, dtype=np.float64)
    lines = np.zeros((values.size, dataset._REPR_CAP + 1), dtype=np.uint8)
    keep = np.ones(lines.shape, dtype=bool)
    for start in range(0, values.size, dataset._WRITE_ROWS):
        rows = slice(start, start + dataset._WRITE_ROWS)
        dataset._score_tokens(values[rows], lines[rows, :-1], keep[rows, :-1])
    lines[:, -1] = ord("\n")
    return lines[keep].tobytes().split(b"\n")[:-1]


def _assert_repr(values, note=""):
    values = np.asarray(values, dtype=np.float64)
    got = _kernel_lines(values)
    want = [repr(v).encode() for v in values.tolist()]
    assert len(got) == len(want), note
    assert [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w][:5] == [], note


def _neighbours(values, ulps):
    """Each finite positive value and the floats up to `ulps` steps from it."""
    bits = np.asarray(values, dtype=np.float64).view(np.int64)
    return (bits[:, None] + np.arange(-ulps, ulps + 1)).ravel().view(np.float64)


def _families(rng, n):
    """About 5n floats, with both signs, from seven families; the two of
    neighbours have a fixed size."""
    powers = np.array([float(f"1e{k}") for k in range(-6, 18)])
    rounded = rng.uniform(-1, 1, n)
    for digits in range(1, 17):
        rounded[digits::16] = np.round(rounded[digits::16], digits)
    values = [
        rng.uniform(-1, 1, n),  # scores
        rounded,  # decimals of 1 to 16 digits
        10.0 ** rng.uniform(-4, 15, n),  # every magnitude of the fast path
        rng.integers(0, 2047 << 52, n).view(np.float64),  # finite bit patterns
        _neighbours(powers, 200),  # around powers of ten
        _neighbours(np.ldexp(1.0, np.arange(-1020, 1023)), 2),  # around powers of two
        rng.integers(1, 10**7, n) / 10.0 ** rng.integers(0, 12, n),  # k / 10**j
    ]
    values = np.concatenate(values)
    return np.copysign(values, rng.choice([-1.0, 1.0], values.size))


def test_kernel_matches_repr_densely():
    # About 10**6 values a run, the seed fresh each run; a failure prints it.
    seed = int(np.random.SeedSequence().entropy % 2**32)
    values = _families(np.random.default_rng(seed), 200_000)
    assert values.size > 10**6
    _assert_repr(values, f"seed {seed}")


_EDGES = [
    0.0, -0.0, 1.0, -1.0, 0.5, 0.1, 1e-4, *_neighbours([1e-4], 3), 0.001, 0.1 + 0.2,
    *_neighbours([1e15, 1e16], 3), 999999999999999.9, 9999999999999998.0, 123456789012345.6,
    1e-5, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308, 1e-310,
    1.7976931348623157e308, 3e-300,
]


def test_kernel_matches_repr_at_the_edges():
    _assert_repr(_EDGES)
    _assert_repr(-np.array(_EDGES))


@pytest.mark.parametrize("slow", [[0], [-1], [0, 1], [3, 4, 5], [0, -1], [0, 2, -1]])
def test_fallback_rows_anywhere_in_a_block(slow):
    # Rows that take repr first, last, next to each other and alone, among
    # rows the kernel formats.
    values = np.random.default_rng(len(slow)).uniform(-1, 1, 8)
    for k, v in zip(slow, [1e-5, 5e-324, 2.2250738585072014e-308]):
        values[k] = v
    _assert_repr(values)


def test_repr_runs_only_on_fallback_rows(monkeypatch):
    formatted = []

    def counted(value):
        formatted.append(value)
        return repr(value)

    monkeypatch.setattr(dataset, "repr", counted, raising=False)
    values = np.random.default_rng(5).uniform(-1, 1, dataset._WRITE_ROWS)
    values[[7, 100]] = [1e-5, 1e20]
    _kernel_lines(values)
    # The other uniform scores whose shortest repr the kernel leaves to repr
    # are ties between two candidates: a handful in 16,384.
    assert formatted[:2] == [1e-5, 1e20] and len(formatted) < 12


def test_interval_ends_count_when_the_significand_is_even():
    # A candidate exactly on an end of the rounding interval: inside for an
    # even significand only. (No float the kernel formats puts one there: a
    # midpoint between two floats of 1e-4 <= |x| < 1e15 has 20 or more
    # significant digits.) Rows: the candidate below on its end, twice, the
    # one above on its end, twice, then one inside and none inside.
    frac = np.array([0.25, 0.25, 0.75, 0.75, 0.5, 0.0])
    r, s = np.array([1, 1, 2, 2, 0, 2]), np.array([9, 9, 2, 2, 9, 2])
    h = low = np.full(6, 1.25)
    for even in (True, False):
        down, up = dataset._inside(frac, r, s, h, low, np.full(6, even))
        assert down.tolist() == [even, even, False, False, True, False]
        assert up.tolist() == [False, False, even, even, False, False]


def test_dense_scores_write_as_the_row_writer(tmp_path):
    # Scores in [-1, 1] from every family, over three whole blocks and part
    # of a fourth, through write_columns and the row-at-a-time writer.
    rng = np.random.default_rng(9)
    values = _families(rng, 20_000)
    score = values[np.abs(values) <= 1.0][: 3 * dataset._WRITE_ROWS + 5].tolist()
    assert len(score) == 3 * dataset._WRITE_ROWS + 5
    rows = [(f"u{k % 3}", "g", f"i{k % 4}", f"i{(k + 1) % 4}", x) for k, x in enumerate(score)]
    cset = comparison_set(rows)
    oracle_write_columns(tmp_path / "rows.csv", _header(("minmax",)), cset, ("minmax",))
    write_columns(tmp_path / "blocks.csv", _header(("minmax",)), cset, ("minmax",))
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
@settings(max_examples=400, deadline=None)
def test_kernel_matches_repr_on_any_float(values):
    _assert_repr(values)


# --- Every other CSV writer against the row-at-a-time writer -----------------

# Floats the kernel leaves to repr, its domain's ends, signed zeros and any
# finite float.
_floats = st.one_of(
    st.sampled_from([5e-324, 1e-300, 9.999e-5, 1e-4, 1e15, 1e300, -0.0, 0.0, 0.1 + 0.2]),
    st.floats(allow_nan=False, allow_infinity=False),
)


def _fits(user_ids, item_ids, scores):
    """Fits holding what the theta writer reads: user k's score of item code i
    is scores[k][i]; the stopping state is a placeholder."""
    entries = [(k, i, own[i]) for k, own in enumerate(scores) for i in sorted(own)]
    n = len(user_ids)
    return GbtFits(
        tuple(user_ids), tuple(item_ids),
        np.array([k for k, _, _ in entries], dtype=np.intp),
        np.array([i for _, i, _ in entries], dtype=np.intp),
        np.array([x for _, _, x in entries], dtype=np.float64),
        np.ones(n, dtype=bool), np.ones(n, dtype=np.intp), np.zeros(n),
    )


# Distinct users and items, and each user's scores of some of the items.
_thetas = st.tuples(
    st.lists(_ids, unique=True, max_size=4), st.lists(_ids, unique=True, max_size=4)
).flatmap(lambda ids: st.lists(
    st.dictionaries(st.sampled_from(range(len(ids[1]))), _floats, max_size=4)
    if ids[1] else st.just({}),
    min_size=len(ids[0]), max_size=len(ids[0]),
).map(lambda scores: (_fits(*ids, scores),)))


def _affines(rows):
    """Affines of (user_id, s, tau) rows; the counts and the anchor are placeholders."""
    n = len(rows)
    return Affines(
        tuple(u for u, _, _ in rows), np.array([s for _, s, _ in rows], dtype=np.float64),
        np.array([t for _, _, t in rows], dtype=np.float64),
        np.zeros(n, dtype=np.intp), np.zeros(n, dtype=np.intp), 0,
    )


def _truth(user_ids, item_ids=(), theta=(), group=None, archetype=None):
    """A truth holding what the truth writers read; the rest are placeholders."""
    n, m = len(user_ids), len(item_ids)
    return GroundTruth(
        item_features=FeatureTable(item_ids, np.zeros((m, 1))),
        group_weights=np.zeros((1, 1)),
        user_ids=tuple(user_ids),
        group=np.array(group if group is not None else [0] * n, dtype=np.intp),
        archetype=tuple(archetype if archetype is not None else ["neutral"] * n),
        weights=np.zeros((n, 1)),
        theta=np.array(theta, dtype=np.float64).reshape(n, m),
    )


# Distinct users and items, and a utility of every user for every item.
_truth_thetas = st.tuples(
    st.lists(_ids, unique=True, max_size=4), st.lists(_ids, unique=True, max_size=4)
).flatmap(lambda ids: st.lists(
    st.lists(_floats, min_size=len(ids[1]), max_size=len(ids[1])),
    min_size=len(ids[0]), max_size=len(ids[0]),
).map(lambda theta: (_truth(*ids, theta),)))


def _report(*values):
    keys = ("overall_accuracy", "acc_max_gap", "acc_std",
            "overall_recall", "recall_max_gap", "recall_std")
    return SimpleNamespace(**dict(zip(keys, values)))


# Writer -> (its arguments before the path, the earlier writer).
_WRITERS = {
    write_features: (
        st.integers(1, 3).flatmap(lambda dim: st.dictionaries(
            _ids, st.lists(_floats, min_size=dim, max_size=dim), max_size=5,
        ).map(lambda features: (FeatureTable(
            tuple(features), np.array(list(features.values())).reshape(len(features), dim)
        ),))),
        writer_oracle.oracle_write_features,
    ),
    write_individual_scores: (_thetas, writer_oracle.oracle_write_individual_scores),
    write_user_affines: (
        st.lists(st.tuples(_ids, _floats.filter(lambda s: s > 0), _floats),
                 max_size=5).map(lambda rows: (_affines(rows),)),
        writer_oracle.oracle_write_user_affines,
    ),
    write_truth_theta: (
        _truth_thetas,
        writer_oracle.oracle_write_truth_theta,
    ),
    write_truth_users: (
        st.lists(st.tuples(_ids, st.integers(-1, 12), _ids), max_size=5,
                 unique_by=lambda user: user[0]).map(
            lambda users: (_truth([u for u, _, _ in users], group=[g for _, g, _ in users],
                                  archetype=[a for _, _, a in users]),)),
        writer_oracle.oracle_write_truth_users,
    ),
    write_lorenz: (
        st.lists(st.tuples(_floats, _floats), max_size=5).map(
            lambda points: (SimpleNamespace(lorenz=np.array(points).reshape(-1, 2)),)),
        writer_oracle.oracle_write_lorenz,
    ),
    write_loss_trace: (
        st.lists(_floats, max_size=5).map(lambda trace: (trace,)),
        writer_oracle.oracle_write_loss_trace,
    ),
    write_summary: (
        st.lists(st.tuples(_ids, st.tuples(*[_floats] * 6)), max_size=4).map(
            lambda cells: ([name for name, _ in cells], [_report(*v) for _, v in cells])),
        writer_oracle.oracle_write_summary,
    ),
}


@pytest.mark.parametrize("writer", _WRITERS, ids=lambda w: w.__name__)
@given(data=st.data(), block_rows=st.sampled_from([1, 3, dataset._WRITE_ROWS]))
@settings(max_examples=60, deadline=None)
def test_writer_matches_row_writer(writer, data, block_rows, tmp_path_factory):
    arguments, oracle = _WRITERS[writer]
    args = data.draw(arguments)
    folder = tmp_path_factory.mktemp("w")
    oracle(*args, folder / "rows.csv")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataset, "_WRITE_ROWS", block_rows)
        writer(*args, folder / "blocks.csv")
    assert (folder / "blocks.csv").read_bytes() == (folder / "rows.csv").read_bytes()


def test_truth_writers_sort_ids_as_python_does(tmp_path):
    # numpy's unicode arrays drop trailing NULs, so they would tie "a" and "a\x00".
    ids = ("b", "a\x00", "a", "a\x00\x00", "\x00")
    truth = _truth(ids, ids, np.arange(25.0), group=range(5), archetype=ids)
    for writer, oracle in [(write_truth_theta, writer_oracle.oracle_write_truth_theta),
                           (write_truth_users, writer_oracle.oracle_write_truth_users)]:
        oracle(truth, tmp_path / "rows.csv")
        writer(truth, tmp_path / "blocks.csv")
        assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


# --- Atomic data files -------------------------------------------------------

_CSET = comparison_set([(f"u{k}", "g", "a", "b", 0.5) for k in range(20)])


@pytest.mark.parametrize("before", [None, b"an earlier file\n"])
def test_interrupted_write_columns_leaves_target_as_it_was(tmp_path, monkeypatch, before):
    target = tmp_path / "c.csv"
    if before is not None:
        target.write_bytes(before)
    blocks = dataset._row_blocks

    def first_block_only(cset, extra):
        yield next(blocks(cset, extra))
        raise OSError("no space left on device")

    monkeypatch.setattr(dataset, "_WRITE_ROWS", 7)
    monkeypatch.setattr(dataset, "_row_blocks", first_block_only)
    with pytest.raises(OSError, match="no space"):
        write_comparisons(_CSET, target)
    assert (target.read_bytes() if target.exists() else None) == before
    assert [p.name for p in tmp_path.iterdir()] == ([] if before is None else ["c.csv"])


@pytest.mark.parametrize("before", [None, b"an earlier file\n"])
def test_interrupted_write_csv_leaves_target_as_it_was(tmp_path, monkeypatch, before):
    # write_table cut short after its first block of one row.
    target = tmp_path / "t.csv"
    if before is not None:
        target.write_bytes(before)
    score_tokens, calls = dataset._score_tokens, []

    def second_block_fails(*args):
        calls.append(args)
        if len(calls) > 1:
            raise OSError("no space left on device")
        score_tokens(*args)

    monkeypatch.setattr(dataset, "_WRITE_ROWS", 1)
    monkeypatch.setattr(dataset, "_score_tokens", second_block_fails)
    with pytest.raises(OSError, match="no space"):
        write_table(target, ["k", "v"], [(("a", "b"), np.arange(2)), np.array([1.0, 2.0])])
    assert (target.read_bytes() if target.exists() else None) == before
    assert [p.name for p in tmp_path.iterdir()] == ([] if before is None else ["t.csv"])


def test_write_table_refuses_fields_of_unequal_length(tmp_path):
    target = tmp_path / "t.csv"
    with pytest.raises(ValueError, match=r"must be of equal length, got \[2, 3\]$"):
        write_table(target, ["k", "v"], [(("a", "b"), np.arange(2)), np.zeros(3)])
    assert not target.exists()


def test_completed_write_replaces_target(tmp_path):
    target = tmp_path / "c.csv"
    target.write_bytes(b"an earlier, longer file\n" * 100)
    write_comparisons(_CSET, target)
    assert rows_of(parse_comparisons(target)) == rows_of(_CSET)
    assert [p.name for p in tmp_path.iterdir()] == ["c.csv"]


@pytest.mark.parametrize("before", [None, b"an earlier file\n"])
def test_interrupted_write_json_leaves_target_as_it_was(tmp_path, before):
    target = tmp_path / "t.json"
    if before is not None:
        target.write_bytes(before)
    with pytest.raises(TypeError, match="not JSON serializable"):
        write_json(target, {"ok": 1, "bad": object()})
    assert (target.read_bytes() if target.exists() else None) == before
    assert [p.name for p in tmp_path.iterdir()] == ([] if before is None else ["t.json"])


def test_json_files_are_replaced_whole(tmp_path, monkeypatch):
    params = ModelParams(np.array([-0.5, 1.0]), ("u1",), np.array([[0.0, 0.25]]))
    table = FeatureTable(("a", "b"), np.eye(2))
    report = build_report(predict_all(params, _CSET, table), 0.05)
    save_model(params, tmp_path / "model.json")
    write_report(report, tmp_path / "report.json")
    doc = json.loads((tmp_path / "model.json").read_text())
    assert (tmp_path / "model.json").read_text() == json.dumps(doc, indent=2) + "\n"
    doc = json.loads((tmp_path / "report.json").read_text())
    assert (tmp_path / "report.json").read_text() == json.dumps(doc, indent=2) + "\n"

    def cut_short(src, dst):
        raise OSError("no space left on device")

    monkeypatch.setattr(os, "replace", cut_short)
    writers = {
        "model.json": lambda path: save_model(params, path),
        "report.json": lambda path: write_report(report, path),
        "manifest_x.json": lambda path: _write_manifest(path.parent, "x", {}, 0, [], []),
    }
    for name, write in writers.items():
        (tmp_path / name).write_bytes(b"an earlier file\n")
        with pytest.raises(OSError, match="no space"):
            write(tmp_path / name)
        assert (tmp_path / name).read_bytes() == b"an earlier file\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(writers)
