"""Pairwise-comparison datasets: parsing, validation, serialization, splitting.

Comparisons carry a score in [-1, 1]; negative favors the left item,
positive the right, magnitudes near zero mean "no preference". Scores are
stored as 64-bit floats and written back with shortest round-trip decimal
formatting so that serialize(parse(f)) is stable.

A ComparisonSet is stored as columns: one integer code per row for the
user, the criterion and the left and right items, each indexing a sorted
vocabulary of ids, plus a float64 score column. It is built from these
arrays, and every layer works on them.

Gather rule: rows of a 2-D array are selected with `ndarray.take` on
integer indices and a mask's elements with `compress`, not by advanced or
boolean indexing, which walk numpy's general indexing iterator. With numpy
2.4 on a 2-CPU Xeon VM, 2,048 rows of a 160,000 x 4 array took 25.0 us by
indexing and 3.1 us by `take`; 160,000 rows of a 200 x 4 table 1.87 ms and
0.25 ms; and a 200,000-row mask keeping 80% of a float column 0.82 ms and
0.31 ms by `compress`. `take` first copies an index array that is not
writeable, such as a ComparisonSet column: 8 bytes a row, so code that
bounds its memory gathers by slices of a column. A 1-D gather by such a
column stays indexing, whose 1-D loop is as fast as `take` and needs no
copy: 160,000 codes took about 0.12 ms by indexing and 0.2 ms by `take`.
The byte matrix of a written block is packed by `lines[keep]`, about
0.8 ms for 16,384 rows of 47 bytes against 1.0 ms by `ravel().compress`.

CSV files follow one quoting rule: a field is quoted when it contains a
comma, a double quote, a carriage return or a line feed, and quotes inside
it are doubled, so every id round-trips.

Every CSV is read on bytes by one reader, `_csv_rows`, and written on bytes
by one writer, `write_table`, from float columns and from tables of quoted
tokens indexed by integer codes. A numpy kernel writes each float's shortest
round-trip decimal, the bytes of repr(x), for zeros and 1e-4 <= |x| < 1e15;
other floats, and the few whose shortest decimal is a tie, take repr itself.
The bytes are those of joining each row from `csv_field` and repr. Every
data file is written under a temporary name and moved onto its path when
complete, so a write cut short leaves the earlier file, or none, and never a
truncated one.

The reader gathers ids of at most 8 bytes as one masked word each, and
codes those a column has met before through a fixed-size direct-mapped
cache of their words (`_IdCache`); a constant column is recognised from its
words at any width. A second numpy kernel, `_decimals`, reads each score
and feature value written as -?D.D+, one digit before the point and at most
22 after it, with at most 18 significant digits: the repr of every float in
[-1, 1] but those below 1e-4 in magnitude. Every other form, such as an
exponent, a plus sign, spaces or more digits, is read by Python's float,
and both give the same bits.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterator, NamedTuple, Sequence

import numpy as np

COMPARISONS_HEADER = ["user_id", "criterion", "left_item", "right_item", "score"]
# A CSV is read in blocks of about _BLOCK_BYTES, each cut after a line end,
# and a field wider than _FIELD_CAP bytes as text. Blocks of 1 MiB
# parsed no faster than these and left a process's peak memory higher.
# No field may hold more than _FIELD_LIMIT bytes between its delimiters,
# quotes included; the csv module's default limit is as many characters.
_BLOCK_BYTES = 1 << 18
_FIELD_CAP = 64
_FIELD_LIMIT = 131072
# A block is read with _WINDOW bytes before it, so that `_decimals` can
# read the _WINDOW bytes before any field's end as three words.
_WINDOW = 24
# `write_columns` formats _WRITE_ROWS rows at a time, so every temporary is
# sized to a block and not to the set. A score takes _REPR_CAP columns of a
# block's lines: no float's repr is longer, a sign, 17 digits, a point and
# an exponent such as e-308, and `_score_tokens` lays its tokens out in 24.
_WRITE_ROWS = 1 << 14
_REPR_CAP = 24


def _canonical(
    vocab: Sequence[str], **columns: np.ndarray
) -> tuple[tuple[str, ...], list[np.ndarray]]:
    """Sort the vocabulary, drop entries no code refers to, and recode the
    code columns, in the order given. Raises ValueError naming a column whose
    codes are not integers, or a column and its first code outside the
    vocabulary, or an id that two codes in use name."""
    codes = []
    for name, c in columns.items():
        c = np.asarray(c)
        if c.size and c.dtype.kind not in "iu":
            raise ValueError(f"{name} codes must be integers, got {c.dtype}")
        codes.append(np.asarray(c, dtype=np.intp))
    present = np.zeros(len(vocab), dtype=bool)
    for name, c in zip(columns, codes):
        if c.size and not (c.min() >= 0 and c.max() < len(vocab)):
            bad = c[(c < 0) | (c >= len(vocab))][0]
            raise ValueError(f"{name} code {bad} outside a vocabulary of {len(vocab)} ids")
        present[c] = True
    ordered = all(a < b for a, b in zip(vocab, vocab[1:]))
    if ordered and present.all():
        return tuple(vocab), codes
    keep = sorted((v, k) for k, v in enumerate(vocab) if present[k])
    for (a, _), (b, _) in zip(keep, keep[1:]):
        if a == b:
            raise ValueError(f"id {a!r} appears twice in a vocabulary")
    remap = np.zeros(len(vocab), dtype=np.intp)
    remap[[k for _, k in keep]] = np.arange(len(keep))
    return tuple(v for v, _ in keep), [remap.take(c) for c in codes]


def group_rows(key: np.ndarray, n_groups: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows of group g are order[bounds[g]:bounds[g + 1]], in input order."""
    order = np.argsort(key, kind="stable")
    bounds = np.zeros(n_groups + 1, dtype=np.intp)
    np.cumsum(np.bincount(key, minlength=n_groups), out=bounds[1:])
    return order, bounds


class ComparisonSet:
    """An ordered collection of comparisons, stored as columns.

    `user`, `criterion`, `left` and `right` are intp codes into the
    vocabularies `user_ids`, `criterion_ids` and `item_ids` (left and right
    share `item_ids`); `score` is float64. The constructor takes the
    vocabularies in any order, and codes may leave entries unused (a code
    outside its vocabulary is refused): it keeps them sorted and holding
    exactly the ids that occur, so `user_ids` and `item_ids` are those
    appearing in the comparisons and user code k is the k-th user in sorted
    order. The column arrays are read-only and may be shared between sets.
    """

    def __init__(
        self,
        user_ids: Sequence[str], user: np.ndarray,
        criterion_ids: Sequence[str], criterion: np.ndarray,
        item_ids: Sequence[str], left: np.ndarray, right: np.ndarray,
        score: np.ndarray,
    ):
        user_ids, (user,) = _canonical(user_ids, user=user)
        criterion_ids, (criterion,) = _canonical(criterion_ids, criterion=criterion)
        item_ids, (left, right) = _canonical(item_ids, left=left, right=right)
        score = np.asarray(score, dtype=np.float64)
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

    def take(self, rows: np.ndarray | Sequence[int] | Sequence[bool]) -> "ComparisonSet":
        """The rows selected by an index array or boolean mask, in that order.

        A mask must be 1-D and as long as the set, and is turned into its
        row indices; every column is then gathered by `ndarray.take`.
        """
        rows = np.asarray(rows)
        if rows.dtype == bool:
            if rows.shape != (len(self),):
                raise ValueError(
                    f"a row mask must have shape ({len(self)},), got {rows.shape}"
                )
            rows = np.flatnonzero(rows)
        elif rows.size and rows.dtype.kind not in "iu":
            raise IndexError(f"rows must be integers or a boolean mask, got {rows.dtype}")
        else:
            rows = np.asarray(rows, dtype=np.intp)
        return ComparisonSet(
            self.user_ids, self.user.take(rows), self.criterion_ids, self.criterion.take(rows),
            self.item_ids, self.left.take(rows), self.right.take(rows), self.score.take(rows),
        )

    def with_scores(self, score: np.ndarray) -> "ComparisonSet":
        """The same comparisons with `score` as their scores."""
        return ComparisonSet(
            self.user_ids, self.user, self.criterion_ids, self.criterion,
            self.item_ids, self.left, self.right, score,
        )

    def restrict(self, criterion: str) -> "ComparisonSet":
        """The rows with `criterion`, in input order; none when it is absent.
        A set that holds no other criterion is returned itself."""
        if self.criterion_ids == (criterion,):
            return self
        k = _positions(self.criterion_ids, [criterion], -1)[0]
        return self.take(np.flatnonzero(self.criterion == k))


def _codes(vocab: dict[str, int], values: Sequence[str]) -> np.ndarray:
    """Codes of `values` in `vocab`, which gives new ids the next codes in
    first-appearance order."""
    for value in dict.fromkeys(values):
        vocab.setdefault(value, len(vocab))
    return np.fromiter(map(vocab.__getitem__, values), dtype=np.intp, count=len(values))


def _positions(ids: Sequence[str], keys: Sequence[str], missing: int) -> np.ndarray:
    """The position of each key in the distinct `ids`, `missing` for a key not there."""
    index = dict(zip(ids, range(len(ids))))
    return np.fromiter((index.get(key, missing) for key in keys), np.intp, len(keys))


@dataclass(frozen=True, eq=False)
class FeatureTable:
    """Precomputed item features: row k of the (items, dim) `vectors` is the
    vector of `item_ids[k]`, in file or generation order."""

    item_ids: tuple[str, ...]
    vectors: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "item_ids", tuple(self.item_ids))
        object.__setattr__(self, "vectors", np.asarray(self.vectors, dtype=np.float64))
        shape = self.vectors.shape
        if len(shape) != 2 or shape[0] != len(self.item_ids) or shape[1] < 1:
            raise ValueError(
                f"feature vectors have shape {shape}, expected ({len(self.item_ids)}, dim >= 1)"
            )
        if len(set(self.item_ids)) < len(self.item_ids):
            seen: set[str] = set()
            for item in self.item_ids:
                if item in seen:
                    raise ValueError(f"duplicate item {item!r} in feature table")
                seen.add(item)
        bad = ~np.isfinite(self.vectors).all(axis=1)
        if bad.any():
            raise ValueError(f"non-finite feature value for item {self.item_ids[bad.argmax()]!r}")

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def __len__(self) -> int:
        return len(self.item_ids)

    def matrix(self, item_ids: Sequence[str]) -> np.ndarray:
        """The feature vectors of `item_ids` as the rows of a (len, dim) array."""
        rows = _positions(self.item_ids, item_ids, -1)
        if (rows < 0).any():
            raise ValueError(f"item {item_ids[np.argmax(rows < 0)]!r} missing from feature table")
        return self.vectors.take(rows, axis=0)


# --- CSV ------------------------------------------------------------------


def csv_field(text: str) -> str:
    """One CSV field under the quoting rule in the module docstring."""
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


@contextlib.contextmanager
def atomic_write(path: str | Path) -> Iterator[BinaryIO]:
    """Open a new binary file that replaces `path` when the block exits
    without an error.

    The file is written under a temporary name in `path`'s directory, given
    the mode `open` gives a new file, then moved onto `path`. On an error it
    is removed and `path` is left as it was, so no data file is ever cut
    short.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=".equirank-", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
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


def write_json(path: str | Path, doc: object) -> None:
    """Write `doc` as JSON indented by two spaces, with a final LF."""
    with atomic_write(path) as fh:
        fh.write((json.dumps(doc, indent=2) + "\n").encode())


def _token_table(vocab: Sequence[str]) -> tuple[np.ndarray, np.ndarray | None]:
    """Each entry as `csv_field` writes it, in UTF-8, zero-padded in an
    `S<width>` array; and the entries' byte lengths, or None when they all
    have the array's width."""
    tokens = [csv_field(v).encode() for v in vocab]
    lengths = np.array([len(t) for t in tokens], dtype=np.intp)
    width = max(int(lengths.max(initial=0)), 1)
    return np.array(tokens, dtype=f"S{width}"), None if (lengths == width).all() else lengths


# The exact powers of ten, 10**0 to 10**22, each split into two halves of at
# most 26 significant bits (Veltkamp, with the factor 2**27 + 1), so that a
# product with another split double is the exact sum of four products.
_POW10 = np.array([float(f"1e{k}") for k in range(23)])


def _halves(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c = 134217729.0 * v
    high = c - (c - v)
    return high, v - high


_POW10_HIGH, _POW10_LOW = _halves(_POW10)


def _scaled(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(N, frac): the int64 integer part and the fraction of a * 10**k,
    exact when the product lies in [2**53, 2**62] and a below 2**1000.

    Dekker's two-product needs no fused multiply-add: p = fl(a * 10**k),
    and err, the sum of the halves' products less p, is exact, so a * 10**k
    is p + err. p is an integer above 2**53, and err - floor(err) is exact.
    Below 2**53, N + frac may fall short of the product, never exceed it.
    """
    p = a * _POW10[k]
    high, low = _halves(a)
    err = high * _POW10_HIGH[k] - p
    err += high * _POW10_LOW[k]
    err += low * _POW10_HIGH[k]
    err += low * _POW10_LOW[k]
    whole = np.floor(err)
    return p.astype(np.int64) + whole.astype(np.int64), err - whole


def _inside(
    frac: np.ndarray, r: np.ndarray, s: np.ndarray, h: np.ndarray, low: np.ndarray,
    even: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Whether y - r - frac and y + s - frac, for y = N + frac and integers
    r >= 0 and s >= 1, lie in the rounding interval [y - low, y + h], whose
    ends count when the significand is even.

    frac is compared with low - r and s - h, which are exact wherever the
    comparison can hold; r and s are capped at 16, above every half-width.
    """
    below = low - np.minimum(r, 16)
    above = np.minimum(s, 16) - h
    down = (frac < below) | ((frac == below) & even)
    up = (frac > above) | ((frac == above) & even)
    return down, up


def _quad_table() -> np.ndarray:
    """The four ASCII digits of 0 to 9999, each as a little-endian uint32."""
    quad = np.arange(10000)
    digits = np.stack([quad // 1000, quad // 100 % 10, quad // 10 % 10, quad % 10], 1)
    return (digits + ord("0")).astype(np.uint8).view("<u4").ravel()


_QUADS = _quad_table()


def _keep_table() -> np.ndarray:
    """Which of its _REPR_CAP columns a kernel token keeps, as one
    `V<_REPR_CAP>` mask per code (negative * 20 + point + 3) * 18 + digits,
    for the layout `_score_tokens` writes."""
    negative, point, digits, col = np.ogrid[:2, -3:17, :18, :_REPR_CAP]
    below_one = (col == 1) | (col == 2) | ((col >= 3) & (col < 3 - point))
    below_one = below_one | ((col == 6) & (digits > 0)) | ((col >= 8) & (col < 7 + digits))
    from_one = (col >= 6) & (col < 7 + point + np.maximum(digits - point, 1))
    keep = ((col == 0) & (negative == 1)) | np.where(point <= 0, below_one, from_one)
    return keep.reshape(-1, _REPR_CAP).view(f"V{_REPR_CAP}").ravel()


_KEEP = _keep_table()
# A kernel token's columns 0 to 7 as a little-endian uint64; the first
# digit is added to the "0" in column 6.
_PREFIX = int.from_bytes(b"-0.0000.", "little")


def _score_tokens(score: np.ndarray, out: np.ndarray, keep: np.ndarray) -> None:
    """Write the repr of each score into its row of `out`, a (n, _REPR_CAP)
    uint8 array, and mark the token's bytes in the same row of `keep`.

    Zeros and scores of 1e-4 <= |x| < 1e15 are formatted with no per-value
    Python, following Ryu's and Schubfach's shortest round trip. y = |x| *
    10**k, with k = 16 - floor(log10|x|), lies in [1e16, 1e17) and is held
    exactly as N + frac. Half an ulp of |x| times 10**k bounds the rounding
    interval around y, a quarter below a power of two, its ends included
    when the significand is even. The shortest repr is the multiple of the
    largest power of ten 10**j in that interval, the one nearer y if two
    are, and has 17 - j digits.

    The columns hold `-0.000`, the first digit, `.` and the other 16, in
    the fixed notation repr uses in this range; `keep` picks the sign, the
    `0.` and zeros before a score below 1, the point of one of at least 1,
    and the digits. With q >= 2 digits before the point, the point moves
    after the q-th. Every other score takes repr itself, as do those whose
    two nearest candidates are equally near y, or whose 17-digit rounding
    is an exact tie.
    """
    a = np.abs(score)
    zero = a == 0.0
    fast = (a >= 1e-4) & (a < 1e15)
    a[~fast] = 1.0
    k = 16 - np.floor(np.log10(a)).astype(np.intp)
    N, frac = _scaled(a, k)
    # log10 may round across a power of ten: move k by one where it did.
    # A product then under 1e16 may be inexact, but its N is under 1e16 too.
    off = (N < 10**16).astype(np.intp) - (N >= 10**17)
    if (moved := np.flatnonzero(off)).size:
        k[moved] += off[moved]
        N[moved], frac[moved] = _scaled(a[moved], k[moved])
    bits = a.view(np.int64)
    # Half an ulp of a is 2**(exponent - 53), exactly, times an exact 10**k.
    h = _POW10[k] * ((bits >> 52) - 53 << 52).view(np.float64)
    low = np.where(bits & ((1 << 52) - 1) == 0, 0.5 * h, h)
    even = (bits & 1) == 0

    # 17 digits: N or N + 1, whichever lies inside and nearer y. Both
    # half-widths exceed 0.5, so one does.
    down, up = _inside(frac, 0, 1, h, low, even)
    best = N + (up & ~(down & (frac < 0.5)))
    tie = down & up & (frac == 0.5)
    # 16 digits: a multiple of 10 inside, N - r or N - r + 10; y - (N - r)
    # is the nearer when 2 frac < 10 - 2r, compared where that is exact.
    r = N - N // 10 * 10
    down, up = _inside(frac, r, 10 - r, h, low, even)
    ten = down | up
    twice, gap = 2.0 * frac, np.clip(10 - 2 * r, -2, 4)
    np.copyto(best, N - r + 10 * (up & ~(down & (twice < gap))), where=ten)
    np.copyto(tie, down & up & (twice == gap), where=ten)
    zeros = ten.astype(np.intp)
    # Fewer: the interval is under 23 wide, so it holds at most one multiple
    # of 100, and j is 2 plus the trailing zeros of that multiple over 100.
    r = N - N // 100 * 100
    down, up = _inside(frac, r, 100 - r, h, low, even)
    if (rows := np.flatnonzero(down | up)).size:
        best[rows] = m = N[rows] - r[rows] + 100 * up[rows]
        tie[rows] = False
        m //= 100
        count = np.full(rows.size, 2)
        for t in (8, 4, 2, 1):
            shorter = m // 10**t
            whole = m == shorter * 10**t
            count += t * whole
            m = np.where(whole, shorter, m)
        zeros[rows] = count
    top = best == 10**17
    best[top] = 10**16
    zeros[top] -= 1
    # repr's decimal point: the shortest repr is 0.d1d2... * 10**point.
    point = 17 - k + top
    digits = 17 - zeros
    point[zero], digits[zero] = -1, 0

    high = best // 10**8
    first = high // 10**8
    out[:, :8].view("<u8")[:, 0] = _PREFIX + (first << 48)
    # The other 16 digits, four to a uint32 column: each half of eight
    # split at 10**4, written straight into its columns.
    quads = out[:, 8:].view("<u4")
    for col, eight in ((0, high - first * 10**8), (2, best - high * 10**8)):
        four = eight // 10**4
        quads[:, col] = _QUADS.take(four)
        quads[:, col + 1] = _QUADS.take(eight - four * 10**4)
    code = (np.signbit(score) * 20 + point + 3) * 18 + digits
    keep.view(f"V{_REPR_CAP}")[:, 0] = _KEEP.take(code)
    for q in range(2, point.max(initial=0) + 1):
        rows = np.flatnonzero(point == q)
        out[rows, 7 : 6 + q] = out[rows, 8 : 7 + q]
        out[rows, 6 + q] = ord(".")

    if (rows := np.flatnonzero(~(fast | zero) | tie)).size:
        texts = [repr(x).encode() for x in score[rows].tolist()]
        out[rows] = np.array(texts, dtype=f"S{_REPR_CAP}").view(np.uint8).reshape(-1, _REPR_CAP)
        keep[rows] = np.arange(_REPR_CAP) < np.array([len(t) for t in texts])[:, None]


def _row_blocks(fields: Sequence, n: int) -> Iterator[bytes]:
    """`write_table`'s rows as CSV lines, in blocks of _WRITE_ROWS rows.

    A block's lines are the rows of a byte matrix: each vocabulary field's
    tokens are gathered by code into fixed columns, each float is formatted
    into _REPR_CAP columns, and the commas and the LF sit in the columns
    after them. The padding of each token is masked out by its length or the
    float's mask, never by its bytes, since an id may hold a NUL.
    """
    vocabs = {id(f[0]): f[0] for f in fields if isinstance(f, tuple)}
    tables = {key: _token_table(vocab) for key, vocab in vocabs.items()}
    for start in range(0, n, _WRITE_ROWS):
        rows = slice(start, start + _WRITE_ROWS)
        parts = [
            (tables[id(f[0])], f[1][rows]) if isinstance(f, tuple) else (None, f[rows])
            for f in fields
        ]
        widths = [_REPR_CAP if table is None else table[0].itemsize for table, _ in parts]
        lines = np.empty((min(n - start, _WRITE_ROWS), sum(widths) + len(widths)), np.uint8)
        keep = np.ones(lines.shape, dtype=bool)
        at = 0
        for (table, values), width in zip(parts, widths):
            end = at + width
            if table is None:
                _score_tokens(values, lines[:, at:end], keep[:, at:end])
            else:
                tokens, lengths = table
                lines[:, at:end].view(tokens.dtype)[:, 0] = tokens[values]
                if lengths is not None:
                    np.less(np.arange(width), lengths[values][:, None], out=keep[:, at:end])
            lines[:, end] = ord(",")
            at = end + 1
        lines[:, -1] = ord("\n")
        yield lines[keep].tobytes()


def write_table(path: str | Path, header: Sequence[str], fields: Sequence) -> None:
    """Write equal-length fields as a UTF-8 CSV with LF line ends.

    A field is a float64 array, each value written as repr writes it, or a
    (vocab, codes) pair, each code written as its vocabulary entry under
    `csv_field`; vocabularies passed as the same object are quoted and
    encoded once. The rows are formatted with numpy in blocks
    (`_row_blocks`, `_score_tokens`), and the bytes are those of joining
    each row from `csv_field` and repr.
    """
    fields = [f if isinstance(f, tuple) else np.asarray(f, dtype=np.float64) for f in fields]
    lengths = {len(f[1]) if isinstance(f, tuple) else len(f) for f in fields}
    if len(lengths) > 1:
        raise ValueError(f"fields of a table must be of equal length, got {sorted(lengths)}")
    with atomic_write(path) as fh:
        fh.write((",".join(map(csv_field, header)) + "\n").encode())
        fh.writelines(_row_blocks(fields, lengths.pop() if lengths else 0))


def write_columns(
    path: str | Path, header: Sequence[str], cset: ComparisonSet, extra: tuple[str, ...] = ()
) -> None:
    """Write a set in the comparisons schema, plus constant trailing fields."""
    constant = np.broadcast_to(np.intp(0), len(cset))
    write_table(path, header, [
        (cset.user_ids, cset.user), (cset.criterion_ids, cset.criterion),
        (cset.item_ids, cset.left), (cset.item_ids, cset.right), cset.score,
        *(((value,), constant) for value in extra),
    ])


def _not_utf8(path: Path, data: bytes, start: int, line: int = 1) -> ValueError:
    """The error for a file that is not UTF-8: `data`, read from the start of
    line `line`, holds a bad byte at `start`."""
    line += data.count(b"\n", 0, start)
    return ValueError(f"{path}: line {line}: not valid UTF-8")


def _line_blocks(fh: BinaryIO) -> Iterator[bytes]:
    """A binary file in blocks of about _BLOCK_BYTES, each cut after a line
    end that follows an even number of double quotes, so that no quoted
    field spans two blocks: after a LF, or after a CR that is not the last
    byte read. The last block is given a LF.

    Once the quote that left the count odd lies more than _FIELD_LIMIT bytes
    back, no field can close it legally: the bytes read since the last cut
    are the last block, and its reader refuses it."""
    parts, odd, read, opened = [], 0, 0, 0
    while data := fh.read(_BLOCK_BYTES):
        cut = data.rfind(b"\n") + 1
        cut = max(cut, data.rfind(b"\r", cut, len(data) - 1) + 1)
        if odd or b'"' in data:
            # Step back from the last LF until the quotes before it are even.
            odd = (odd + data.count(b'"', 0, cut)) % 2
            while cut and odd:
                before = data.rfind(b"\n", 0, cut - 1) + 1
                odd ^= data.count(b'"', before, cut) % 2
                cut = before
            odd = (odd + data.count(b'"', cut)) % 2
        if cut:
            yield b"".join([*parts, data[:cut]])
            parts = []
        parts.append(data[cut:])
        read += len(data)
        if odd:
            # With the count odd, the last quote read is the one that made it odd.
            if (last := data.rfind(b'"')) >= 0:
                opened = read - len(data) + last
            if read - opened > _FIELD_LIMIT:
                yield b"".join(parts)
                return
    if tail := b"".join(parts):
        yield tail + b"\n"


def _outside(positions: np.ndarray, quotes: np.ndarray | None) -> np.ndarray:
    """The positions that follow an even number of quotes."""
    return positions if quotes is None else positions[np.searchsorted(quotes, positions) % 2 == 0]


class _Spans(NamedTuple):
    """One column of a block's rows, read in place: field k is the bytes
    buf[start[k]:stop[k]], unquoted, at most _FIELD_CAP wide and holding no
    special position. words[p] is the little-endian uint64 of buf[p:p + 8]."""

    buf: np.ndarray
    words: np.ndarray
    start: np.ndarray
    stop: np.ndarray


def _field(
    buf: np.ndarray, words: np.ndarray, start: np.ndarray, stop: np.ndarray,
    quotes: np.ndarray | None, special: np.ndarray,
) -> _Spans | list[str]:
    """One column of a block's rows, field k running from start[k] to
    stop[k], as `_Spans`; or as text when a field holds a `special` position
    or is wider than _FIELD_CAP. A field quoted at both ends loses its quotes."""
    if quotes is not None:
        quoted = buf[start] == ord('"')
        start, stop = start + quoted, stop - quoted
    if (stop - start).max(initial=0) > _FIELD_CAP or (
        special.size and (np.searchsorted(special, stop) > np.searchsorted(special, start)).any()
    ):
        return [
            buf[s:e].tobytes().decode().replace('""', '"')
            for s, e in zip(start.tolist(), stop.tolist())
        ]
    return _Spans(buf, words, start, stop)


def _matrix(field: _Spans) -> np.ndarray:
    """The fields as the rows of a zero-padded uint8 matrix, as wide as the
    widest and at least 1."""
    length = field.stop - field.start
    cols = np.arange(max(int(length.max(initial=0)), 1))
    matrix = np.lib.stride_tricks.sliding_window_view(field.buf, cols.size)[field.start]
    matrix *= cols < length[:, None]
    return matrix


def _decode(matrix: np.ndarray) -> list[str]:
    """The text of each row of a zero-padded uint8 matrix."""
    return [key.decode() for key in matrix.view(f"S{matrix.shape[1]}").ravel().tolist()]


def _text(field: _Spans | list[str], k: int) -> str:
    """The text of field k of a `_field` column."""
    if isinstance(field, list):
        return field[k]
    return field.buf[field.start[k] : field.stop[k]].tobytes().decode()


def _unquote(name: str) -> str:
    """A header name without the quotes at its two ends, if it has both."""
    quoted = len(name) > 1 and name[0] == name[-1] == '"'
    return name[1:-1].replace('""', '"') if quoted else name


def _csv_rows(path: Path) -> Iterator:
    """A CSV file read on bytes, in blocks of whole records.

    Yields the header, its first line split at every comma, then per block
    the line numbers of its non-blank rows and one `_field` per column. A
    byte is inside quotes when an odd number of quotes come before it; a
    record ends at a LF, or a CR that no LF follows, outside quotes. Lines
    count records, blank ones too. After the rows before it, raises
    ValueError naming the file and line of the first record with the wrong
    number of fields, a stray or unterminated quote, a field over
    _FIELD_LIMIT bytes or a byte that is not UTF-8 (its line in LFs).
    """
    with path.open("rb") as fh:
        blocks = _line_blocks(fh)
        first = next(blocks, b"")
        if not first:
            raise ValueError(f"{path}: empty file, expected a header row")
        end = len(first.split(b"\r", 1)[0].split(b"\n", 1)[0])
        try:
            names = first[:end].decode()
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, first, exc.start) from None
        header = [_unquote(name) for name in names.split(",")] if names else []
        yield header
        body = end + 1 + (first[end : end + 2] == b"\r\n")
        ncols, row, line = len(header), 2, 1 + first.count(b"\n", 0, body)
        for block in itertools.chain([first[body:]], blocks):
            # A sentinel LF ends the record before the block, which starts at
            # buf[_WINDOW], so that every field's stop has a _WINDOW-byte
            # window before it. Record k ends at ends[k]; its text runs from
            # starts[k] to stops[k], before any CR.
            data = b"".join((bytes(_WINDOW - 1), b"\n", block, bytes(_FIELD_CAP)))
            buf = np.frombuffer(data, dtype=np.uint8)
            words = np.ndarray((buf.size - 7,), "<u8", data, 0, (1,))
            lfs = np.flatnonzero(buf == ord("\n"))
            quotes = np.flatnonzero(buf == ord('"')) if b'"' in block else None
            ends = _outside(lfs, quotes)
            if has_cr := b"\r" in block:
                crs = _outside(np.flatnonzero(buf == ord("\r")), quotes)
                ends = np.sort(np.concatenate((ends, crs[buf[crs + 1] != ord("\n")])))
            starts, ends = ends[:-1] + 1, ends[1:]
            stops = ends - (buf[ends - 1] == ord("\r")) if has_cr else ends
            commas = _outside(np.flatnonzero(buf == ord(",")), quotes)

            # (record, problem) of each kind; at one record, the first listed.
            problems: list[tuple[int, ValueError | str]] = []
            special = lfs[:0]
            if b"\0" in block:
                special = _WINDOW + np.flatnonzero(buf[_WINDOW : _WINDOW + len(block)] == 0)
            if quotes is not None:
                # An opening quote starts a field or follows a closing one, as
                # in a doubled ""; a closing quote ends a field or precedes one.
                neighbor = buf[quotes - 1 + 2 * (np.arange(quotes.size) % 2)]
                stray = quotes[~np.isin(neighbor, np.frombuffer(b',\n\r"', dtype=np.uint8))]
                if stray.size:
                    problems.append((np.searchsorted(ends, stray[0]), "stray double quote"))
                if quotes.size % 2:
                    # A field open for more than _FIELD_LIMIT bytes is too long,
                    # whether or not a quote later in the file closes it.
                    problems.append((ends.size, (
                        f"field larger than field limit ({_FIELD_LIMIT})"
                        if _WINDOW + len(block) - quotes[-1] > _FIELD_LIMIT
                        else "unterminated quoted field"
                    )))
                doubled = quotes[1::2][neighbor[1::2] == ord('"')]
                special = np.sort(np.concatenate((special, doubled)))
            try:
                block.decode()
            except UnicodeDecodeError as exc:
                error = _not_utf8(path, block, exc.start, line)
                problems.append((np.searchsorted(ends, _WINDOW + exc.start), error))
            for k in np.flatnonzero(stops - starts > _FIELD_LIMIT).tolist():
                inside = (commas > starts[k]) & (commas < stops[k])
                if np.diff(np.r_[starts[k] - 1, commas[inside], stops[k]]).max() > _FIELD_LIMIT + 1:
                    problems.append((k, f"field larger than field limit ({_FIELD_LIMIT})"))
                    break
            filled = np.flatnonzero(starts < stops)
            first_bytes, row_stops = starts[filled], stops[filled]
            # Each row holds ncols - 1 commas when that many per row come in
            # all and row i's share lies between its first byte and its stop.
            per = ncols - 1
            if commas.size != per * filled.size or per and (
                (commas[::per] < first_bytes).any() or (commas[per - 1 :: per] >= row_stops).any()
            ):
                counts = np.diff(np.searchsorted(commas, row_stops), prepend=0) + 1
                for k in np.flatnonzero(counts != ncols)[:1].tolist():
                    problems.append((filled[k], f"expected {ncols} columns, got {counts[k]}"))

            bad, problem = min(problems, key=lambda p: p[0], default=(ends.size, None))
            if n := np.searchsorted(filled, bad):
                # Field j of a row lies between its delimiters j and j + 1,
                # counting the byte before the row as delimiter 0.
                commas = commas[: n * per].reshape(n, per).T
                delims = [first_bytes[:n] - 1, *commas, row_stops[:n]]
                yield row + filled[:n], [
                    _field(buf, words, before + 1, after, quotes, special)
                    for before, after in zip(delims, delims[1:])
                ]
            if isinstance(problem, ValueError):
                raise problem
            if problem:
                raise ValueError(f"{path}: line {row + bad}: {problem}")
            row += ends.size
            line += lfs.size - 1


# The low min(L, 8) bytes of a word, for every span length L.
_LOW_BYTES = np.array([(1 << 8 * min(n, 8)) - 1 for n in range(_FIELD_CAP + 1)], dtype=np.uint64)
# No id's word: the byte 0xFF never occurs in UTF-8.
_NO_WORD = np.uint64(2**64 - 1)
# `_IdCache` has 2**_CACHE_BITS slots and hashes a word x to slot
# (_MULTIPLIER * x mod 2**64) >> (64 - _CACHE_BITS), multiply-shift with an
# odd multiplier (Dietzfelbinger et al., J. Algorithms 1997). From 2**12 to
# 2**15 slots, files of 500 and of 2,000 items read within noise of each
# other; 2**16 and more slowed the item columns at 500 items, and 2**10 at
# 2,000 items, where more ids share a slot; 2**13 keeps each array at 64 KiB.
_CACHE_BITS = 13
_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)


def _slot(word: np.ndarray) -> np.ndarray:
    """The `_IdCache` slot of each word, as an index."""
    return (word * _MULTIPLIER >> np.uint64(64 - _CACHE_BITS)).view(np.int64)


class _IdCache:
    """The codes of ids of at most 8 bytes that a vocabulary has met as
    spans, keyed by their words, the bytes past the id masked out (a span
    holds no NUL, so the word is the id).

    Direct-mapped: slot s holds one word, `words[s]`, or `_NO_WORD`, and
    that word's code, `codes[s]`. A lookup is one hash, two gathers and one
    comparison, so a hit can never give a wrong code; a word missed is
    written to its slot, replacing the word there. The arrays are allocated
    at the first lookup, as a column with no narrow ids needs none.
    """

    words: np.ndarray | None = None
    codes: np.ndarray | None = None

    def codes_of(self, vocab: dict[str, int], word: np.ndarray) -> np.ndarray:
        """The code of each word in `vocab`, new ids entering in sorted order."""
        if self.words is None:
            self.words = np.full(1 << _CACHE_BITS, _NO_WORD)
            self.codes = np.empty(1 << _CACHE_BITS, dtype=np.intp)
        slot = _slot(word)
        code = self.codes.take(slot)
        miss = self.words.take(slot) != word
        if miss.any():
            code[miss], distinct, known = _sorted_codes(vocab, word[miss].view(">u8"))
            # Each missed id is written once. Of two in one slot, numpy does
            # not say which lands, so a code goes only where its word did.
            word = distinct.view("<u8")
            slot = _slot(word)
            self.words[slot] = word
            landed = self.words.take(slot) == word
            self.codes[slot[landed]] = known[landed]
        return code


def _constant(field: _Spans, length: np.ndarray, first: np.ndarray) -> bool:
    """Whether every span of a column holds the same bytes, given the length
    and the first word of each."""
    if (first != first[0]).any():
        return False
    width = int(length[0])
    if (length != width).any():
        return False
    for at in range(8, width, 8):
        word = field.words[field.start + at] & _LOW_BYTES[width - at]
        if (word != word[0]).any():
            return False
    return True


def _sorted_codes(
    vocab: dict[str, int], keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(codes, distinct, known): `_codes` of ids given as keys that sort as
    the ids, the first word read big-endian or zero-padded bytes, new ids
    entering in sorted order; the distinct keys, sorted, and their codes.
    Only the first key of each run of equal keys is sorted, since a file
    grouped by user holds a few runs of users a block."""
    head = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    distinct, inverse = np.unique(keys[head], return_inverse=True)
    known = _codes(vocab, _decode(distinct.view(np.uint8).reshape(distinct.size, -1)))
    return np.repeat(known.take(inverse), np.diff(head, append=keys.size)), distinct, known


def _field_codes(vocab: dict[str, int], field: _Spans | list[str], cache: _IdCache) -> np.ndarray:
    """`_codes` of a `_field` column; new ids of spans enter in sorted order.
    Ids of at most 8 bytes are looked up in `cache`, the vocabulary's."""
    if isinstance(field, list):
        return _codes(vocab, field)
    # Each span's first word, the bytes past the span masked out.
    length = field.stop - field.start
    first = field.words[field.start] & _LOW_BYTES[length]
    if _constant(field, length, first):
        # A constant column, such as a criterion or scaler tag, needs no sort.
        return np.full(first.size, _codes(vocab, [_text(field, 0)])[0], dtype=np.intp)
    if length.max() <= 8:
        return cache.codes_of(vocab, first)
    matrix = _matrix(field)
    return _sorted_codes(vocab, matrix.view(f"S{matrix.shape[1]}").ravel())[0]


def _window_masks() -> tuple[np.ndarray, np.ndarray]:
    """(keep, fill), each (3, _WINDOW + 1) uint64: for a body of m bytes, a
    digit, a point and m - 2 fraction digits, ending a _WINDOW-byte window,
    keep[j, m] holds the fraction digits' bytes of the window's little-endian
    word j and fill[j, m] a "0" in every byte before them."""
    before = np.arange(_WINDOW) < _WINDOW + 2 - np.arange(_WINDOW + 1)[:, None]
    keep, fill = (
        np.where(before, a, b).astype(np.uint8).view("<u8").T.copy()
        for a, b in ((0, 0xFF), (ord("0"), 0))
    )
    return keep, fill


_WINDOW_KEEP, _WINDOW_FILL = _window_masks()
_TENS = 10 ** np.arange(18, dtype=np.int64)


def _u64(byte: int) -> np.uint64:
    """A word holding `byte` in each of its eight bytes."""
    return np.uint64(byte * 0x0101010101010101)


def _decimals(field: _Spans) -> tuple[np.ndarray, np.ndarray]:
    """(values, refused): each field of the form -?D.D+ parsed as float64,
    the bits float() gives; refused marks every other field, whose value is
    meaningless.

    A field's last _WINDOW bytes are read as three little-endian words, the
    bytes before its fraction digits set to "0", checked to be digits and
    each word's eight digits combined with SWAR multiplies (Lemire,
    "Number parsing at a gigabyte per second"). The field is then the
    integer N = D * 10**k + F over 10**k, k its fraction digits. A field
    with more than 22 fraction digits or 18 significant ones, N >= 10**18,
    is refused.

    N / 10**k is correctly rounded where N <= 2**53, both exact (Clinger's
    fast path). Above, the quotient q of float(N) is within 1.5 ulp of
    N / 10**k, so the result is q or a neighbor: `_scaled` gives q * 10**k
    exactly as M + frac, and N - q * 10**k = I - frac for the integer
    I = N - M is compared with the half-gaps h above q and low below it,
    times 10**k. With N above 2**53, q * 10**k has no bit below 2**-51 and
    h and low none below 2**-53, so I - h and I + low are exact wherever
    frac, in [0, 1), can meet them. No field is a tie: halfway between two
    doubles below 16 lies a number with more than 22 fraction digits.
    """
    buf, words, start, stop = field
    negative = buf[start] == ord("-")
    lead = start + negative
    m = stop - lead
    digit = buf[lead] - np.uint8(ord("0"))
    refused = (m < 3) | (m > _WINDOW) | (buf[lead + 1] != ord(".")) | (digit > 9)
    np.minimum(m, _WINDOW, out=m)
    # Word j of the window: bytes 8j to 8j + 7, eight digits once checked.
    pairs = np.uint64(0x000000FF000000FF)
    hundreds, ones = np.uint64(100 + (10**6 << 32)), np.uint64(1 + (10**4 << 32))
    for j, (keep, fill) in enumerate(zip(_WINDOW_KEEP, _WINDOW_FILL)):
        w = words[stop - _WINDOW + 8 * j]
        w &= keep.take(m)
        w |= fill.take(m)
        # A byte is a digit when its high nibble is 3 and stays 3 after adding 6.
        nibbles = w + _u64(6)
        nibbles &= _u64(0xF0)
        nibbles >>= np.uint64(4)
        nibbles |= w & _u64(0xF0)
        refused |= nibbles != _u64(0x33)
        # Pairs, then fours, then eight digits, the first digit in the low byte.
        w -= _u64(ord("0"))
        w = w * np.uint64(10) + (w >> np.uint64(8))
        w = ((w & pairs) * hundreds + (w >> np.uint64(16) & pairs) * ones) >> np.uint64(32)
        if j:
            N *= 10**8
            N += w.view(np.int64)
        else:
            N = w.view(np.int64)
            # F, the window's 24 digits, is below 10**18.
            refused |= N >= 100
    # D * 10**k is below 10**18, so N is; other rows' N may overflow but
    # are refused.
    k = m - 2
    refused |= (digit > 0) & (k >= 18)
    N += digit * _TENS[np.clip(k, 0, 17)]
    np.clip(k, 0, 22, out=k)
    q = N / _POW10[k]
    if (rows := np.flatnonzero((N > 2**53) & ~refused)).size:
        a, k = q[rows], k[rows]
        M, frac = _scaled(a, k)
        I = (N[rows] - M).astype(np.float64)
        bits = a.view(np.int64)
        h = _POW10[k] * ((bits >> 52) - 53 << 52).view(np.float64)
        low = np.where(bits & ((1 << 52) - 1) == 0, 0.5 * h, h)
        q[rows] = (bits + (frac < I - h) - (frac > I + low)).view(np.float64)
    # q is positive or zero: a negative field sets its sign bit.
    q.view(np.int64)[:] |= negative.astype(np.int64) << 63
    return q, refused


def _floats(field: _Spans | list[str]) -> np.ndarray:
    """A `_field` column's values as float64, NaN where one does not parse.

    `_decimals` reads the fields of the form -?D.D+, with the bits of
    float(). The fields it refuses, and text columns, are read by float().
    """
    if isinstance(field, list):
        values, rows, texts = np.full(len(field), np.nan), range(len(field)), field
    else:
        values, refused = _decimals(field)
        if not (rows := np.flatnonzero(refused)).size:
            return values
        values[rows] = np.nan
        matrix = _matrix(field._replace(start=field.start[rows], stop=field.stop[rows]))
        rows, texts = rows.tolist(), _decode(matrix)
    for k, text in zip(rows, texts):
        with contextlib.suppress(ValueError):
            values[k] = float(text)
    return values


def read_columns(
    path: str | Path, header: list[str]
) -> tuple[ComparisonSet, list[tuple[str, ...]]]:
    """Read a CSV whose first five columns are the comparisons schema.

    Returns the set of its first five columns and, for each column past the
    fifth, its distinct values, in an unspecified order.
    Raises ValueError naming the 1-based line of the first bad row.
    """
    path = Path(path)
    rows = _csv_rows(path)
    first = next(rows)
    if first != header:
        raise ValueError(f"{path}: bad header {first!r}, expected {header!r}")
    users, criteria, items = {}, {}, {}
    vocabs = (users, criteria, items, items, *({} for _ in header[5:]))
    caches = {id(vocab): _IdCache() for vocab in vocabs}
    # Blocks fill columns allocated once, one row per LF and one more:
    # joining per-block parts would leave the heap fragmented and the
    # process larger. Only rows ended by bare CRs can outgrow them.
    with path.open("rb") as fh:
        bound = 1 + sum(
            np.count_nonzero(np.frombuffer(data, dtype=np.uint8) == ord("\n"))
            for data in iter(lambda: fh.read(_BLOCK_BYTES), b"")
        )
    columns = [np.empty(bound, dtype=np.intp) for _ in range(4)] + [np.empty(bound)]
    n = 0
    for lines, fields in rows:
        codes = [
            _field_codes(v, f, caches[id(v)]) for v, f in zip(vocabs, fields[:4] + fields[5:])
        ]
        score = _floats(fields[4])
        bad = ~((score >= -1.0) & (score <= 1.0)) | (codes[2] == codes[3])
        if bad.any():
            k = int(bad.argmax())
            left, text = _text(fields[2], k), _text(fields[4], k)
            try:
                in_range = -1.0 <= float(text) <= 1.0
            except ValueError:
                problem = f"unparsable score {text!r}"
            else:
                problem = f"self-comparison of item {left!r}" if in_range else (
                    f"score {text} outside [-1, 1]")
            raise ValueError(f"{path}: line {lines[k]}: {problem}")
        if n + score.size > bound:
            bound = 2 * (n + score.size)
            columns = [np.concatenate((c[:n], np.empty(bound - n, c.dtype))) for c in columns]
        for column, part in zip(columns, [*codes[:4], score]):
            column[n : n + part.size] = part
        n += score.size
    user, criterion, left, right, score = (column[:n] for column in columns)
    cset = ComparisonSet(
        tuple(users), user, tuple(criteria), criterion, tuple(items), left, right, score,
    )
    return cset, [tuple(seen) for seen in vocabs[4:]]


def parse_comparisons(path: str | Path) -> ComparisonSet:
    """Read a comparisons CSV (header user_id,criterion,left_item,right_item,score).

    Raises ValueError naming the offending 1-based line number on malformed
    rows, out-of-range scores, or self-comparisons.
    """
    return read_columns(path, COMPARISONS_HEADER)[0]


def write_comparisons(cset: ComparisonSet, path: str | Path) -> None:
    """Write the canonical comparisons CSV (UTF-8, LF, shortest float repr)."""
    write_columns(path, COMPARISONS_HEADER, cset)


def parse_features(path: str | Path) -> FeatureTable:
    """Read a features CSV (header item_id,f0,...,f{d-1})."""
    path = Path(path)
    rows = _csv_rows(path)
    header = next(rows)
    if len(header) < 2 or header[0] != "item_id":
        raise ValueError(f"{path}: bad header {header!r}")
    dim = len(header) - 1
    expected = ["item_id"] + [f"f{i}" for i in range(dim)]
    if header != expected:
        raise ValueError(f"{path}: bad header {header!r}, expected {expected!r}")
    vocab: dict[str, int] = {}
    cache = _IdCache()
    codes, vectors = [np.zeros(0, dtype=np.intp)], [np.zeros((0, dim))]
    for lines, (ids, *texts) in rows:
        seen = len(vocab)
        code = _field_codes(vocab, ids, cache)
        vector = np.column_stack([_floats(field) for field in texts])
        # A row repeats an id of an earlier block, coded below `seen`, or
        # one earlier in the block.
        order = np.argsort(code, kind="stable")
        repeat = code < seen
        repeat[order[1:]] |= code[order[1:]] == code[order[:-1]]
        bad = repeat | ~np.isfinite(vector).all(axis=1)
        if bad.any():
            k = int(bad.argmax())
            problem = "non-finite feature value"
            if repeat[k]:
                problem = f"duplicate item_id {_text(ids, k)!r}"
            else:
                try:
                    for field in texts:
                        float(_text(field, k))
                except ValueError:
                    problem = "unparsable feature value"
            raise ValueError(f"{path}: line {lines[k]}: {problem}")
        codes.append(code)
        vectors.append(vector)
    names = tuple(vocab)
    item_ids = tuple(names[k] for k in np.concatenate(codes).tolist())
    return FeatureTable(item_ids, np.concatenate(vectors))


def write_features(table: FeatureTable, path: str | Path) -> None:
    header = ["item_id"] + [f"f{i}" for i in range(table.dim)]
    write_table(path, header, [(table.item_ids, np.arange(len(table))), *table.vectors.T])


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
