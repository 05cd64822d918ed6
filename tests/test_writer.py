"""The block writer against the row writer, and atomic data files."""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equirank import dataset
from equirank.dataset import (
    COMPARISONS_HEADER,
    comparison_set,
    parse_comparisons,
    write_columns,
    write_comparisons,
    write_csv,
    write_json,
)
from equirank.cli import _write_manifest
from equirank.equity import build_report, write_report
from equirank.ltr import ModelParams, predict_all, save_model
from row_view import rows_of
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
def test_interrupted_write_csv_leaves_target_as_it_was(tmp_path, before):
    target = tmp_path / "t.csv"
    if before is not None:
        target.write_bytes(before)

    def rows():
        yield ["a", "1"]
        raise OSError("no space left on device")

    with pytest.raises(OSError, match="no space"):
        write_csv(target, ["k", "v"], rows())
    assert (target.read_bytes() if target.exists() else None) == before
    assert [p.name for p in tmp_path.iterdir()] == ([] if before is None else ["t.csv"])


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
    params = ModelParams(np.array([-0.5, 1.0]), {"u1": np.array([0.0, 0.25])})
    table = dataset.FeatureTable(2, {"a": np.array([1.0, 0.0]), "b": np.array([0.0, 1.0])})
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
