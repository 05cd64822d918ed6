"""Pairwise-comparison datasets: parsing, validation, serialization, splitting.

Comparisons carry a score in [-1, 1]; negative favors the left item,
positive the right, magnitudes near zero mean "no preference". Scores are
stored as 64-bit floats and written back with shortest round-trip decimal
formatting so that serialize(parse(f)) is stable.

A ComparisonSet is stored as columns: one integer code per row for the
user, the criterion and the left and right items, each indexing a sorted
vocabulary of ids, plus a float64 score column. Every layer works on these
columns.

CSV files follow one quoting rule: a field is quoted when it contains a
comma, a double quote, a carriage return or a line feed, and quotes inside
it are doubled. That is what `csv.reader` reads back, so every id
round-trips.

Comparisons are read on bytes, LF or CRLF, and through csv.reader only when
a file needs it. They are written on bytes, from a table of quoted tokens
per vocabulary and one repr of each block's scores; the bytes are those of
joining each row from `csv_field` and repr(score). Every data file is
written under a temporary name and moved onto its path when complete, so a
write cut short leaves the earlier file, or none, and never a truncated
one.
"""

from __future__ import annotations

import bisect
import contextlib
import csv
import functools
import io
import json
import math
import os
import tempfile
from array import array
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import IO, BinaryIO, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

COMPARISONS_HEADER = ["user_id", "criterion", "left_item", "right_item", "score"]
# The byte path reads a file in blocks of about _BLOCK_BYTES, each cut after a
# line end, and reads no field wider than _FIELD_CAP bytes. Blocks of 1 MiB
# parsed no faster than these and left a process's peak memory higher.
_BLOCK_BYTES = 1 << 18
_FIELD_CAP = 64
# `write_columns` formats _WRITE_ROWS rows at a time, so every temporary is
# sized to a block and not to the set. No float's repr is longer than
# _REPR_CAP bytes: a sign, 17 digits, a point and an exponent such as e-308.
_WRITE_ROWS = 1 << 14
_REPR_CAP = 24


class Columns(NamedTuple):
    """Column storage of a ComparisonSet.

    `user`, `criterion`, `left` and `right` are intp codes into the
    vocabularies `user_ids`, `criterion_ids` and `item_ids` (left and right
    share `item_ids`); `score` is float64.
    """

    user_ids: tuple[str, ...]
    user: np.ndarray
    criterion_ids: tuple[str, ...]
    criterion: np.ndarray
    item_ids: tuple[str, ...]
    left: np.ndarray
    right: np.ndarray
    score: np.ndarray


def _canonical(
    vocab: Sequence[str], *codes: np.ndarray
) -> tuple[tuple[str, ...], list[np.ndarray]]:
    """Sort the vocabulary, drop entries no code refers to, and recode."""
    codes = [np.asarray(c, dtype=np.intp) for c in codes]
    present = np.zeros(len(vocab), dtype=bool)
    for c in codes:
        present[c] = True
    ordered = all(a < b for a, b in zip(vocab, vocab[1:]))
    if ordered and present.all():
        return tuple(vocab), codes
    keep = sorted((v, k) for k, v in enumerate(vocab) if present[k])
    remap = np.zeros(len(vocab), dtype=np.intp)
    remap[[k for _, k in keep]] = np.arange(len(keep))
    return tuple(v for v, _ in keep), [remap[c] for c in codes]


def group_rows(key: np.ndarray, n_groups: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows of group g are order[bounds[g]:bounds[g + 1]], in input order."""
    order = np.argsort(key, kind="stable")
    bounds = np.zeros(n_groups + 1, dtype=np.intp)
    np.cumsum(np.bincount(key, minlength=n_groups), out=bounds[1:])
    return order, bounds


class ComparisonSet:
    """An ordered collection of comparisons, stored as columns.

    Build one from `Columns` (or from plain rows with `comparison_set`).
    Vocabularies are kept sorted and hold exactly the ids that occur, so
    `user_ids` and `item_ids` are those appearing in the comparisons and user
    code k is the k-th user in sorted order. The column arrays are read-only
    and may be shared between sets.
    """

    def __init__(self, columns: Columns):
        user_ids, (user,) = _canonical(columns.user_ids, columns.user)
        criterion_ids, (criterion,) = _canonical(columns.criterion_ids, columns.criterion)
        item_ids, (left, right) = _canonical(columns.item_ids, columns.left, columns.right)
        score = np.asarray(columns.score, dtype=np.float64)
        n = score.shape[0]
        for array in (user, criterion, left, right, score):
            if array.shape != (n,):
                raise ValueError("comparison columns must be 1-D and of equal length")
            array.flags.writeable = False
        bad = ~(np.isfinite(score) & (score >= -1.0) & (score <= 1.0))
        if bad.any():
            raise ValueError(f"score {score[bad][0]} outside [-1, 1]")
        same = left == right
        if same.any():
            item = item_ids[left[same][0]]
            raise ValueError(f"self-comparison: left and right are both {item!r}")
        self.user_ids, self.user = user_ids, user
        self.criterion_ids, self.criterion = criterion_ids, criterion
        self.item_ids, self.left, self.right = item_ids, left, right
        self.score = score

    @property
    def columns(self) -> Columns:
        return Columns(
            self.user_ids, self.user, self.criterion_ids, self.criterion,
            self.item_ids, self.left, self.right, self.score,
        )

    def __len__(self) -> int:
        return self.score.shape[0]

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({len(self)} comparisons, "
            f"{len(self.user_ids)} users, {len(self.item_ids)} items)"
        )

    @functools.cached_property
    def by_user(self) -> tuple[np.ndarray, np.ndarray]:
        """(order, bounds): rows of user code k are order[bounds[k]:bounds[k + 1]],
        in input order."""
        return group_rows(self.user, len(self.user_ids))

    def take(self, rows: np.ndarray) -> "ComparisonSet":
        """The rows selected by an index array or boolean mask, in that order."""
        c = self.columns
        return ComparisonSet(
            columns=Columns(
                c.user_ids, c.user[rows], c.criterion_ids, c.criterion[rows],
                c.item_ids, c.left[rows], c.right[rows], c.score[rows],
            )
        )

    def restrict(
        self, user_id: str | None = None, criterion: str | None = None
    ) -> "ComparisonSet":
        """Subset by user and/or criterion, preserving order."""
        rows = None
        if user_id is not None:
            k = _code(self.user_ids, user_id)
            if k is None:
                rows = np.zeros(0, dtype=np.intp)
            else:
                order, bounds = self.by_user
                rows = order[bounds[k] : bounds[k + 1]]
        if criterion is not None:
            k = _code(self.criterion_ids, criterion)
            if k is None:
                rows = np.zeros(0, dtype=np.intp)
            elif rows is None:
                rows = np.flatnonzero(self.criterion == k)
            else:
                rows = rows[self.criterion[rows] == k]
        if rows is None:
            return ComparisonSet(columns=self.columns)
        return self.take(rows)


def _code(vocab: tuple[str, ...], value: str) -> int | None:
    k = bisect.bisect_left(vocab, value)
    return k if k < len(vocab) and vocab[k] == value else None


def _codes(vocab: dict[str, int], values: Sequence[str]) -> np.ndarray:
    """Codes of `values` in `vocab`, which gives new ids the next codes in
    first-appearance order."""
    for value in dict.fromkeys(values):
        vocab.setdefault(value, len(vocab))
    return np.fromiter(map(vocab.__getitem__, values), dtype=np.intp, count=len(values))


def _encode(users, criteria, lefts, rights, score) -> Columns:
    user_vocab, criterion_vocab, item_vocab = {}, {}, {}
    user, criterion = _codes(user_vocab, users), _codes(criterion_vocab, criteria)
    left, right = _codes(item_vocab, lefts), _codes(item_vocab, rights)
    return Columns(
        tuple(user_vocab), user, tuple(criterion_vocab), criterion,
        tuple(item_vocab), left, right, score,
    )


@dataclass(frozen=True)
class FeatureTable:
    """Precomputed item features: item_id -> vector of `dim` reals."""

    dim: int
    features: dict[str, np.ndarray]

    def __post_init__(self) -> None:
        if self.dim <= 0:
            raise ValueError(f"dim must be positive, got {self.dim}")
        for item, vec in self.features.items():
            if vec.shape != (self.dim,):
                raise ValueError(
                    f"feature vector for {item!r} has length {vec.shape}, expected {self.dim}"
                )
            if not np.all(np.isfinite(vec)):
                raise ValueError(f"non-finite feature value for item {item!r}")

    def vector(self, item_id: str) -> np.ndarray:
        try:
            return self.features[item_id]
        except KeyError:
            raise ValueError(f"item {item_id!r} missing from feature table") from None

    def matrix(self, item_ids: Sequence[str]) -> np.ndarray:
        """The feature vectors of `item_ids` as the rows of a (len, dim) array."""
        rows = [self.vector(item) for item in item_ids]
        return np.array(rows, dtype=np.float64).reshape(len(rows), self.dim)


# --- CSV ------------------------------------------------------------------


def csv_field(text: str) -> str:
    """One CSV field under the quoting rule in the module docstring."""
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


@contextlib.contextmanager
def atomic_write(path: str | Path, mode: str = "w", **kwargs) -> Iterator[IO]:
    """Open a new file, with `os.fdopen`'s `mode` and `kwargs`, that replaces
    `path` when the block exits without an error.

    The file is written under a temporary name in `path`'s directory, given
    the mode `open` gives a new file, then moved onto `path`. On an error it
    is removed and `path` is left as it was, so no data file is ever cut
    short.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=".equirank-", suffix=".tmp")
    try:
        with os.fdopen(fd, mode, **kwargs) as fh:
            yield fh
        # mkstemp creates the file 0600. Reading the umask means setting it.
        umask = os.umask(0o022)
        os.umask(umask)
        os.chmod(tmp_name, 0o666 & ~umask)
        os.replace(tmp_name, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp_name)
        raise


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    """Write text rows as UTF-8 CSV with LF line ends, quoting each field."""
    with atomic_write(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(map(csv_field, header)) + "\n")
        fh.writelines(",".join(map(csv_field, row)) + "\n" for row in rows)


def write_json(path: str | Path, doc: object) -> None:
    """Write `doc` as JSON indented by two spaces, with a final LF."""
    with atomic_write(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")


def _token_table(vocab: Sequence[str]) -> tuple[np.ndarray, np.ndarray | None]:
    """Each entry as `csv_field` writes it, in UTF-8, zero-padded in an
    `S<width>` array; and the entries' byte lengths, or None when they all
    have the array's width."""
    tokens = [csv_field(v).encode() for v in vocab]
    lengths = np.array([len(t) for t in tokens], dtype=np.intp)
    width = max(int(lengths.max(initial=0)), 1)
    return np.array(tokens, dtype=f"S{width}"), None if (lengths == width).all() else lengths


def _score_tokens(score: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The repr of each score, zero-padded or followed by other bytes in an
    `S<width>` array, and its byte length.

    One repr of the list formats each float as repr(float) does, joined by
    ", "; the tokens are cut out of it as `_block_fields` cuts fields.
    """
    text = repr(score.tolist()).encode()
    buf = np.frombuffer(text + bytes(_REPR_CAP), dtype=np.uint8)
    commas = np.flatnonzero(buf == ord(","))
    starts = np.concatenate(([1], commas + 2))
    lengths = np.concatenate((commas, [len(text) - 1])) - starts
    width = int(lengths.max())
    tokens = np.lib.stride_tricks.sliding_window_view(buf, width)[starts]
    return tokens.view(f"S{width}").ravel(), lengths


def _row_blocks(cset: ComparisonSet, extra: tuple[str, ...]) -> Iterator[bytes]:
    """The set's rows as CSV lines ending in the `extra` fields, in blocks
    of _WRITE_ROWS rows.

    A block's lines are the rows of a byte matrix: each field's tokens are
    gathered by code into fixed columns, with the commas, the extra fields
    and the LF in the columns between and after them. The padding of each
    token is masked out by its length, never by its bytes, since an id may
    hold a NUL.
    """
    items = _token_table(cset.item_ids)
    tables = (_token_table(cset.user_ids), _token_table(cset.criterion_ids), items, items)
    codes = (cset.user, cset.criterion, cset.left, cset.right)
    tail = "".join("," + csv_field(v) for v in extra) + "\n"
    separators = [np.frombuffer(s.encode(), dtype=np.uint8) for s in (",", ",", ",", ",", tail)]
    for start in range(0, len(cset), _WRITE_ROWS):
        rows = slice(start, start + _WRITE_ROWS)
        block_codes = [c[rows] for c in codes]
        fields = [
            (table[c], None if lengths is None else lengths[c])
            for (table, lengths), c in zip(tables, block_codes)
        ]
        fields.append(_score_tokens(cset.score[rows]))
        n = block_codes[0].size
        width = sum(tokens.itemsize + sep.size for (tokens, _), sep in zip(fields, separators))
        lines = np.empty((n, width), dtype=np.uint8)
        keep = np.ones((n, width), dtype=bool)
        at = 0
        for (tokens, lengths), sep in zip(fields, separators):
            end = at + tokens.itemsize
            lines[:, at:end].view(tokens.dtype)[:, 0] = tokens
            if lengths is not None:
                np.less(np.arange(end - at), lengths[:, None], out=keep[:, at:end])
            lines[:, end : end + sep.size] = sep
            at = end + sep.size
        yield lines[keep].tobytes()


def write_columns(
    path: str | Path, header: Sequence[str], cset: ComparisonSet, extra: tuple[str, ...] = ()
) -> None:
    """Write a set in the comparisons schema, plus constant trailing fields.

    Each vocabulary entry is quoted and encoded once; the rows are written
    in blocks, each formatted with numpy from the codes and one repr of its
    scores. The bytes are those of writing each row with `csv_field` and
    repr(score).
    """
    with atomic_write(path, "wb") as fh:
        fh.write((",".join(map(csv_field, header)) + "\n").encode())
        fh.writelines(_row_blocks(cset, extra))


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


def _not_utf8(path: Path) -> ValueError:
    """The error for a file that is not UTF-8, naming its first bad line."""
    return ValueError(f"{path}: line {_utf8_prefix(path)[1]}: not valid UTF-8")


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


def _read_text(path: Path, header: list[str]) -> tuple[Columns, list[tuple[str, ...]]]:
    """`read_columns` through csv.reader, which reads any file, row by row."""
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
    columns = Columns(
        tuple(users), user, tuple(criteria), criterion,
        tuple(items), left, right, np.array(score, dtype=np.float64),
    )
    return columns, [tuple(seen) for seen in extra]


def _line_blocks(fh: BinaryIO) -> Iterator[bytes]:
    """The rest of a binary file in blocks of whole lines of about
    _BLOCK_BYTES; a last line without a line end is given one."""
    rest = b""
    while data := fh.read(_BLOCK_BYTES):
        cut = data.rfind(b"\n") + 1
        if cut:
            yield rest + data[:cut]
            rest = data[cut:]
        else:
            rest += data
    if rest:
        yield rest + b"\n"


def _block_fields(block: bytes, ncols: int) -> list[np.ndarray] | None:
    """Each column of a block of whole lines as a zero-padded uint8 matrix,
    one row per non-blank line and at least 8 bytes wide; a line may end in
    CRLF.

    None where csv.reader could read the block otherwise: it holds a double
    quote, NUL or a CR outside a CRLF, a line has other than ncols - 1
    commas, or a field is wider than _FIELD_CAP bytes.
    """
    if b"\r" in block:
        block = block.replace(b"\r\n", b"\n")
    if b'"' in block or b"\r" in block or b"\0" in block:
        return None
    buf = np.frombuffer(block + bytes(_FIELD_CAP), dtype=np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    starts = np.concatenate(([0], ends[:-1] + 1))
    filled = starts < ends
    starts, ends = starts[filled], ends[filled]
    n = starts.size
    commas = np.flatnonzero(buf == ord(","))
    # Blank lines hold no comma, so every line has ncols - 1 commas exactly
    # when (i + 1) * (ncols - 1) commas come before the end of line i.
    if commas.size != (ncols - 1) * n or not np.array_equal(
        np.searchsorted(commas, ends), np.arange(1, n + 1) * (ncols - 1)
    ):
        return None
    # Field k of a line lies between its delimiters k and k + 1, counting
    # the byte before the line as delimiter 0 and its LF as the last.
    delims = [starts - 1, *commas.reshape(n, ncols - 1).T, ends]
    fields = []
    for before, after in zip(delims, delims[1:]):
        start = before + 1
        length = after - start
        width = int(length.max(initial=0))
        if width > _FIELD_CAP:
            return None
        cols = np.arange(max(width, 8))
        field = np.lib.stride_tricks.sliding_window_view(buf, cols.size)[start]
        field *= cols < length[:, None]
        fields.append(field)
    return fields


def _keys(field: np.ndarray) -> np.ndarray:
    """One key per row of a field matrix: its bytes as a big-endian uint64
    when 8 wide, else as bytes. Both sort in the order of the ids."""
    return field.view(">u8" if field.shape[1] == 8 else f"S{field.shape[1]}").ravel()


def _texts(keys: np.ndarray) -> list[str]:
    """The ids of `_keys` keys; raises UnicodeDecodeError if one is not UTF-8."""
    return [key.decode() for key in keys.view(f"S{keys.itemsize}").tolist()]


def _key_codes(vocab: dict[str, int], field: np.ndarray) -> np.ndarray:
    """`_codes` of a field matrix's ids; the new ids of a block enter in
    sorted order. Raises UnicodeDecodeError on an id that is not UTF-8."""
    distinct, inverse = np.unique(_keys(field), return_inverse=True)
    return _codes(vocab, _texts(distinct))[inverse]


def _read_bytes(path: Path, header: list[str]) -> tuple[Columns, list[tuple[str, ...]]] | None:
    """`read_columns` on bytes, with numpy, for files that csv.reader splits
    at every comma and at every LF or CRLF.

    Returns None, and leaves the file to `_read_text`, when the first line
    is not exactly the header ended by LF or CRLF, `_block_fields` finds a
    block it does not read, an id is not UTF-8, numpy cannot parse a score,
    or any row fails a check.
    """
    ncols = len(header)
    users, criteria, items = {}, {}, {}
    vocabs = (users, criteria, items, items)
    extra: list[dict[str, None]] = [{} for _ in range(ncols - 5)]
    with path.open("rb") as fh:
        line = ",".join(header).encode()
        if fh.readline() not in (line + b"\n", line + b"\r\n"):
            return None
        # Each row but a last one without a line end ends at a LF, which
        # bounds the row count. Blocks fill columns allocated once: joining
        # per-block parts would leave the heap fragmented and the process
        # larger.
        body = fh.tell()
        bound = 1 + sum(data.count(b"\n") for data in iter(lambda: fh.read(_BLOCK_BYTES), b""))
        fh.seek(body)
        columns = [np.empty(bound, dtype=np.intp) for _ in range(4)] + [np.empty(bound)]
        n = 0
        for block in _line_blocks(fh):
            fields = _block_fields(block, ncols)
            if fields is None:
                return None
            score_text = fields[4]
            try:  # UnicodeDecodeError is a ValueError
                block_score = score_text.view(f"S{score_text.shape[1]}").ravel().astype(np.float64)
                block_codes = [_key_codes(v, f) for v, f in zip(vocabs, fields)]
                values = [_texts(np.unique(_keys(field))) for field in fields[5:]]
            except ValueError:
                return None
            if not (np.isfinite(block_score) & (block_score >= -1.0) & (block_score <= 1.0)).all():
                return None
            if (block_codes[2] == block_codes[3]).any():
                return None
            for column, part in zip(columns, [*block_codes, block_score]):
                column[n : n + part.size] = part
            n += block_score.size
            for seen, distinct in zip(extra, values):
                seen.update(dict.fromkeys(distinct))
    user, criterion, left, right, score = (column[:n] for column in columns)
    result = Columns(
        tuple(users), user, tuple(criteria), criterion, tuple(items), left, right, score,
    )
    return result, [tuple(seen) for seen in extra]


def read_columns(
    path: str | Path, header: list[str]
) -> tuple[Columns, list[tuple[str, ...]]]:
    """Read a CSV whose first five columns are the comparisons schema.

    Returns the columns and, for each column past the fifth, its distinct
    values; the order of vocabularies and distinct values is unspecified.
    Raises ValueError naming the 1-based line of the first bad row.

    Files are read on bytes with numpy when they can be; whatever that path
    does not read goes through csv.reader, and both give the same result.
    """
    path = Path(path)
    result = _read_bytes(path, header)
    return _read_text(path, header) if result is None else result


def parse_comparisons(path: str | Path) -> ComparisonSet:
    """Read a comparisons CSV (header user_id,criterion,left_item,right_item,score).

    Raises ValueError naming the offending 1-based line number on malformed
    rows, out-of-range scores, or self-comparisons.
    """
    columns, _ = read_columns(path, COMPARISONS_HEADER)
    return ComparisonSet(columns=columns)


def write_comparisons(cset: ComparisonSet, path: str | Path) -> None:
    """Write the canonical comparisons CSV (UTF-8, LF, shortest float repr)."""
    write_columns(path, COMPARISONS_HEADER, cset)


def parse_features(path: str | Path) -> FeatureTable:
    """Read a features CSV (header item_id,f0,...,f{d-1})."""
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
    return FeatureTable(dim, features)


def write_features(table: FeatureTable, path: str | Path) -> None:
    write_csv(
        path,
        ["item_id"] + [f"f{i}" for i in range(table.dim)],
        ([item] + [repr(v) for v in vec.tolist()] for item, vec in table.features.items()),
    )


def split(
    cset: ComparisonSet, train_fraction: float, seed: int
) -> tuple[ComparisonSet, ComparisonSet]:
    """Per-user stratified split, deterministic given the seed.

    Every user keeps floor(n_u * train_fraction) comparisons in the train
    part, adjusted so both parts are non-empty; a global split could leave
    users without test comparisons, which would leave per-user metrics
    undefined. Users draw one permutation each, in sorted user order.
    Input order is preserved within both parts.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    order, bounds = cset.by_user
    counts = np.diff(bounds).tolist()
    offenders = [u for u, n in zip(cset.user_ids, counts) if n < 2]
    if offenders:
        raise ValueError(
            f"users with fewer than 2 comparisons cannot be split: {offenders}"
        )
    rng = np.random.default_rng(seed)
    in_train = np.zeros(len(cset), dtype=bool)
    for start, n in zip(bounds.tolist(), counts):
        n_train = int(np.floor(n * train_fraction))
        n_train = min(max(n_train, 1), n - 1)
        chosen = rng.permutation(n)[:n_train]
        in_train[order[start + chosen]] = True
    return cset.take(in_train), cset.take(~in_train)


def comparison_set(rows: Iterable[tuple[str, str, str, str, float]]) -> ComparisonSet:
    """Build a ComparisonSet from (user_id, criterion, left_item, right_item,
    score) rows; convenience for tests and fixtures."""
    users, criteria, lefts, rights, scores = tuple(zip(*rows, strict=True)) or ((),) * 5
    score = np.array(scores, dtype=np.float64)
    return ComparisonSet(_encode(users, criteria, lefts, rights, score))
