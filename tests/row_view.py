"""A row view of a ComparisonSet, for tests that read or build sets by row.

A ComparisonSet is stored as columns; `rows_of` gives its rows as
`Comparison` named tuples in input order, and `equirank.dataset.comparison_set`
builds a set from such rows.
"""

from __future__ import annotations

from typing import NamedTuple

from equirank.dataset import ComparisonSet


class Comparison(NamedTuple):
    """One annotation: a preference between two items by one user."""

    user_id: str
    criterion: str
    left_item: str
    right_item: str
    score: float


def rows_of(cset: ComparisonSet) -> tuple[Comparison, ...]:
    """The set's rows, in input order."""
    items = cset.item_ids
    return tuple(
        map(
            Comparison,
            [cset.user_ids[k] for k in cset.user.tolist()],
            [cset.criterion_ids[k] for k in cset.criterion.tolist()],
            [items[k] for k in cset.left.tolist()],
            [items[k] for k in cset.right.tolist()],
            cset.score.tolist(),
        )
    )
