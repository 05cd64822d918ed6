"""Reference CSV readers for tests: `csv.reader` row by row.

`read_columns` and `parse_features` are what `equirank.dataset` did before
it read every CSV in blocks on bytes. Tests hold the block reader to the
same columns, or the same error, on every file that is quoted well.

csv.reader refuses NUL before Python 3.11, so these readers only take
NUL-holding files on 3.11 and later.
"""

from __future__ import annotations

import csv
import io
import math
from array import array
from itertools import islice
from pathlib import Path
from typing import Iterator

import numpy as np

from equirank.dataset import ComparisonSet, FeatureTable


def _row_error(row: list[str], ncols: int) -> str | None:
    """The first problem with one data row, checked in the order a reader meets it."""
    if len(row) != ncols:
        return f"expected {ncols} columns, got {len(row)}"
    _, _, left, right, score_text = row[:5]
    try:
        score = float(score_text)
    except ValueError:
        return f"unparsable score {score_text!r}"
    if not math.isfinite(score) or not -1.0 <= score <= 1.0:
        return f"score {score_text} outside [-1, 1]"
    if left == right:
        return f"self-comparison of item {left!r}"
    return None


def _utf8_prefix(path: Path) -> tuple[str, int]:
    """The text of a file's lines before its first one that is not UTF-8, and
    that line's number (a LF byte never occurs inside a UTF-8 sequence)."""
    lines = []
    with path.open("rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                lines.append(line.decode())
            except UnicodeDecodeError:
                break
    return "".join(lines), lineno


def _csv_rows(path: Path) -> Iterator[list[str]]:
    """The rows of a UTF-8 CSV file through csv.reader, [] for a blank line.
    Raises ValueError naming the file if it is empty, naming the file and
    the row on a csv.Error, such as a field over csv's size limit, or naming
    the file and the line of the first byte that is not UTF-8, after the
    rows before that line."""
    lineno = 0
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            try:
                for lineno, row in enumerate(csv.reader(fh), start=1):
                    yield row
            except UnicodeDecodeError:
                # The decoder reads a chunk ahead of csv.reader, so the rows
                # before the bad line are read again, up to a blank sentinel
                # line: the row that reaches it is the sentinel's empty row,
                # or a quoted field that runs on into the bad line.
                text, bad_line = _utf8_prefix(path)
                lines = io.StringIO(text, newline="").readlines()
                rows = csv.reader([*lines, "\n"])
                for lineno, row in enumerate(islice(rows, lineno, None), start=lineno + 1):
                    if rows.line_num > len(lines):
                        break
                    yield row
                raise ValueError(f"{path}: line {bad_line}: not valid UTF-8") from None
    except csv.Error as exc:
        raise ValueError(f"{path}: line {lineno + 1}: {exc}") from None
    if lineno == 0:
        raise ValueError(f"{path}: empty file, expected a header row")


def read_columns(
    path: str | Path, header: list[str]
) -> tuple[ComparisonSet, list[tuple[str, ...]]]:
    """`equirank.dataset.read_columns` through csv.reader, row by row."""
    path = Path(path)
    ncols = len(header)
    rows = _csv_rows(path)
    first = next(rows)
    if first != header:
        raise ValueError(f"{path}: bad header {first!r}, expected {header!r}")
    users, criteria, items = {}, {}, {}
    codes = [array("q") for _ in range(4)]
    score = array("d")
    extra: list[dict[str, None]] = [{} for _ in range(ncols - 5)]
    for lineno, row in enumerate(rows, start=2):
        if not row:
            continue
        problem = _row_error(row, ncols)
        if problem:
            raise ValueError(f"{path}: line {lineno}: {problem}")
        codes[0].append(users.setdefault(row[0], len(users)))
        codes[1].append(criteria.setdefault(row[1], len(criteria)))
        codes[2].append(items.setdefault(row[2], len(items)))
        codes[3].append(items.setdefault(row[3], len(items)))
        score.append(float(row[4]))
        for seen, value in zip(extra, row[5:]):
            seen[value] = None
    user, criterion, left, right = (np.array(c, dtype=np.intp) for c in codes)
    cset = ComparisonSet(
        tuple(users), user, tuple(criteria), criterion,
        tuple(items), left, right, np.array(score, dtype=np.float64),
    )
    return cset, [tuple(seen) for seen in extra]


def parse_features(path: str | Path) -> FeatureTable:
    """`equirank.dataset.parse_features` through csv.reader, row by row."""
    path = Path(path)
    features: dict[str, np.ndarray] = {}
    rows = _csv_rows(path)
    header = next(rows)
    if len(header) < 2 or header[0] != "item_id":
        raise ValueError(f"{path}: bad header {header!r}")
    dim = len(header) - 1
    expected = ["item_id"] + [f"f{i}" for i in range(dim)]
    if header != expected:
        raise ValueError(f"{path}: bad header {header!r}, expected {expected!r}")
    for lineno, row in enumerate(rows, start=2):
        if not row:
            continue
        if len(row) != dim + 1:
            raise ValueError(f"{path}: line {lineno}: expected {dim + 1} columns, got {len(row)}")
        item_id = row[0]
        if item_id in features:
            raise ValueError(f"{path}: line {lineno}: duplicate item_id {item_id!r}")
        try:
            vec = np.array([float(v) for v in row[1:]], dtype=np.float64)
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: unparsable feature value") from None
        if not np.all(np.isfinite(vec)):
            raise ValueError(f"{path}: line {lineno}: non-finite feature value")
        features[item_id] = vec
    vectors = np.array(list(features.values()), dtype=np.float64).reshape(len(features), dim)
    return FeatureTable(tuple(features), vectors)
