"""The comparisons writer one row at a time.

The earlier `equirank.dataset.write_columns`, kept here as the reference
and renamed `oracle_write_columns`; the code is otherwise unchanged.
`write_columns` formats blocks of rows with numpy and must write the same
bytes.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

from equirank.dataset import ComparisonSet, csv_field


def oracle_write_columns(
    path: str | Path, header: Sequence[str], cset: ComparisonSet, extra: tuple[str, ...] = ()
) -> None:
    """Write a set in the comparisons schema, plus constant trailing fields.

    Each vocabulary entry is quoted once, then rows are joined from the codes.
    """

    def text(vocab: tuple[str, ...], codes: np.ndarray) -> list[str]:
        return list(map([csv_field(v) for v in vocab].__getitem__, codes.tolist()))

    tail = "".join("," + csv_field(v) for v in extra)
    rows = zip(
        text(cset.user_ids, cset.user),
        text(cset.criterion_ids, cset.criterion),
        text(cset.item_ids, cset.left),
        text(cset.item_ids, cset.right),
        cset.score.tolist(),
    )
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(map(csv_field, header)) + "\n")
        fh.writelines(f"{u},{c},{l},{r},{s!r}{tail}\n" for u, c, l, r, s in rows)
