"""A row view of a ComparisonSet, for tests that read or build sets by row.

A ComparisonSet is stored as columns; `rows_of` gives its rows as
`Comparison` named tuples in input order, and `comparison_set` builds a set
from such rows. `take` gives one user's rows, for tests that fit a user alone.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

import numpy as np

from equirank.dataset import ComparisonSet, _codes, _positions


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


def comparison_set(rows: Iterable[tuple[str, str, str, str, float]]) -> ComparisonSet:
    """Build a ComparisonSet from (user_id, criterion, left_item, right_item,
    score) rows."""
    users, criteria, lefts, rights, scores = tuple(zip(*rows, strict=True)) or ((),) * 5
    user_vocab, criterion_vocab, item_vocab = {}, {}, {}
    user, criterion = _codes(user_vocab, users), _codes(criterion_vocab, criteria)
    left, right = _codes(item_vocab, lefts), _codes(item_vocab, rights)
    return ComparisonSet(
        tuple(user_vocab), user, tuple(criterion_vocab), criterion,
        tuple(item_vocab), left, right, np.array(scores, dtype=np.float64),
    )


def take(cset: ComparisonSet, user_id: str) -> ComparisonSet:
    """The rows of `user_id`, in input order; none when it is absent."""
    return cset.take(cset.user == _positions(cset.user_ids, [user_id], -1)[0])
