"""The CSV writers one row at a time.

The earlier `equirank.dataset.write_columns`, kept here as the reference
and renamed `oracle_write_columns`; the code is otherwise unchanged.
`write_columns` formats blocks of rows with numpy and must write the same
bytes.

The earlier text writer `equirank.dataset.write_csv`, renamed
`oracle_write_csv` and opening its file directly instead of through the
atomic writer, and the eight writers that fed it `repr` strings row by row,
each renamed with an `oracle_` prefix: every one now goes through
`equirank.dataset.write_table` and must write the same bytes. The feature
and truth writers read the tables' id-aligned rows, keyed by id as the
earlier dict fields held them, and the theta and affine writers rebuild the
per-user objects the earlier lists held from the fits' and affines' arrays.
"""

from __future__ import annotations

from pathlib import Path
from types import SimpleNamespace
from typing import Iterable, Sequence

import numpy as np

from equirank.cli import SUMMARY_COLUMNS
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


def oracle_write_csv(
    path: str | Path, header: Sequence[str], rows: Iterable[Sequence[str]]
) -> None:
    """Write text rows as UTF-8 CSV with LF line ends, quoting each field."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(map(csv_field, header)) + "\n")
        fh.writelines(",".join(map(csv_field, row)) + "\n" for row in rows)


# --- The writers that fed oracle_write_csv ---------------------------------


def oracle_write_features(table, path):
    oracle_write_csv(
        path,
        ["item_id"] + [f"f{i}" for i in range(table.dim)],
        (
            [item] + [repr(v) for v in vec]
            for item, vec in zip(table.item_ids, table.vectors.tolist())
        ),
    )


def oracle_write_individual_scores(fits, path):
    scores = _per_user_fits(fits)
    oracle_write_csv(path, ["user_id", "item_id", "theta"], (
        [s.user_id, item, repr(value)]
        for s in scores for item, value in zip(s.item_ids, s.theta.tolist())
    ))


def oracle_write_user_affines(affines, path):
    affines = [
        SimpleNamespace(user_id=user, s=s, tau=tau)
        for user, s, tau in zip(affines.user_ids, affines.s.tolist(), affines.tau.tolist())
    ]
    oracle_write_csv(
        path, ["user_id", "s", "tau"], ([a.user_id, repr(a.s), repr(a.tau)] for a in affines)
    )


def _per_user_fits(fits):
    """Each user's fit as the earlier per-user fit objects held it: its id,
    the ids of its items and its scores, in the record's order."""
    return [
        SimpleNamespace(
            user_id=user,
            item_ids=[fits.item_ids[i] for i in fits.item[fits.user == k].tolist()],
            theta=fits.theta[fits.user == k],
        )
        for k, user in enumerate(fits.user_ids)
    ]


def _by_user(truth, rows):
    """Each user's row of `rows` keyed by user, as the truth dicts held them."""
    return dict(zip(truth.user_ids, rows))


def oracle_write_truth_theta(truth, path):
    user_theta = _by_user(truth, [
        dict(zip(truth.item_features.item_ids, row)) for row in truth.theta.tolist()
    ])
    oracle_write_csv(
        path,
        ["user_id", "item_id", "theta"],
        (
            [user, item, repr(user_theta[user][item])]
            for user in sorted(user_theta)
            for item in sorted(user_theta[user])
        ),
    )


def oracle_write_truth_users(truth, path):
    user_group = _by_user(truth, truth.group.tolist())
    user_archetype = _by_user(truth, truth.archetype)
    oracle_write_csv(
        path,
        ["user_id", "group", "archetype"],
        (
            [user, str(user_group[user]), user_archetype[user]]
            for user in sorted(user_group)
        ),
    )


def oracle_write_lorenz(report, path):
    oracle_write_csv(
        path,
        ["population_fraction", "cumulative_share"],
        ([repr(frac), repr(share)] for frac, share in np.asarray(report.lorenz).tolist()),
    )


def oracle_write_loss_trace(trace, path):
    oracle_write_csv(
        path,
        ["epoch", "loss"],
        ([str(epoch), repr(value)] for epoch, value in enumerate(trace)),
    )


def _percent(value: float) -> str:
    return f"{100.0 * value:.2f}%"


def oracle_write_summary(experiments, reports, path):
    oracle_write_csv(
        path,
        SUMMARY_COLUMNS,
        (
            [
                name,
                _percent(report.overall_accuracy),
                _percent(report.acc_max_gap),
                _percent(report.acc_std),
                _percent(report.overall_recall),
                _percent(report.recall_max_gap),
                _percent(report.recall_std),
            ]
            for name, report in zip(experiments, reports)
        ),
    )
