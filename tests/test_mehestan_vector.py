"""Mehestan on arrays and the GBT kernel and solver against their loop oracles.

The oracles below are the reference implementations: the per-pair vote and
translation loops of `mehestan_scale`, and a separate GBT objective, gradient
and Hessian with `np.where` on every call and `np.add.at` accumulation,
fitted one user at a time by a plain damped Newton loop (`np.linalg.solve`,
`np.linalg.norm`, the same acceptance rule) that evaluates each point
afresh. Affines, scaled scores and every per-user fit must come out bit for
bit the same.
"""

import itertools
import math
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equirank import gbt, scaling
from equirank.gbt import GbtConfig, _gradient, _hessian_vec, _objectives, _Stack, fit_users
from equirank.robust import ResilienceParams, br_mean, qr_med
from equirank.scaling import mehestan_scale
from equirank.simgen import SimConfig, generate
from gbt_oracle import by_item
from row_view import comparison_set, take
from test_gbt import _crowd

# --- oracles: the loop implementations ---------------------------------------


def oracle_expected_vec(delta):
    a = np.abs(delta)
    small = a < gbt._SERIES_CUTOFF
    safe = np.where(small, 1.0, np.minimum(a, gbt._EXP_CUTOFF))
    series = delta / 3.0 - delta**3 / 45.0
    closed = np.copysign(1.0 + 2.0 / np.expm1(2.0 * safe) - 1.0 / np.maximum(a, 1e-300), delta)
    return np.where(small, series, closed)


def oracle_hessian_vec(delta):
    a = np.abs(delta)
    small = a < gbt._SERIES_CUTOFF
    safe = np.where(small, 1.0, a)
    a2 = np.square(np.minimum(a, gbt._SERIES_CUTOFF))
    series = 1.0 / 3.0 - a2 / 15.0 + a2 * a2 * (2.0 / 189.0)
    inv = 1.0 / safe
    m = np.expm1(-2.0 * safe)
    closed = inv * inv - 4.0 * np.exp(-2.0 * safe) / (m * m)
    return np.where(small, series, closed)


def oracle_log_partition_vec(delta):
    a = np.abs(delta)
    small = a < gbt._SERIES_CUTOFF
    safe = np.where(small, 1.0, a)
    series = math.log(2.0) + np.log1p(a * a / 6.0 + a**4 / 120.0)
    closed = safe + np.log1p(-np.exp(-2.0 * safe)) - np.log(safe)
    return np.where(small, series, closed)


class OracleProblem:
    def __init__(self, comparisons, lam):
        (self.user_id,) = comparisons.user_ids
        self.items = comparisons.item_ids
        self.left, self.right = comparisons.left, comparisons.right
        self.r = comparisons.score
        self.lam = lam

    def objective(self, theta):
        delta = theta[self.right] - theta[self.left]
        nll = np.sum(oracle_log_partition_vec(delta) - self.r * delta)
        return float(nll + 0.5 * self.lam * np.dot(theta, theta))

    def gradient(self, theta):
        delta = theta[self.right] - theta[self.left]
        resid = oracle_expected_vec(delta) - self.r
        grad = np.zeros_like(theta)
        np.add.at(grad, self.right, resid)
        np.add.at(grad, self.left, -resid)
        grad += self.lam * theta
        return grad

    def hessian(self, theta):
        delta = theta[self.right] - theta[self.left]
        h = oracle_hessian_vec(delta)
        n = len(theta)
        hess = np.zeros((n, n))
        np.add.at(hess, (self.right, self.right), h)
        np.add.at(hess, (self.left, self.left), h)
        np.add.at(hess, (self.right, self.left), -h)
        np.add.at(hess, (self.left, self.right), -h)
        hess[np.diag_indices(n)] += self.lam
        return hess


class OracleFit(NamedTuple):
    item_ids: tuple[str, ...]
    theta: np.ndarray
    converged: bool
    n_iter: int
    grad_norm: float


def oracle_fit_gbt(comparisons, config=GbtConfig()):
    problem = OracleProblem(comparisons, config.lam)
    theta = np.zeros(len(problem.items), dtype=np.float64)
    obj, grad = problem.objective(theta), problem.gradient(theta)
    n_iter = 1
    while True:
        assert np.all(np.isfinite(grad)) and math.isfinite(obj)
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm <= config.tol or n_iter == config.max_iter:
            break
        direction = np.linalg.solve(problem.hessian(theta), grad)
        step = 1.0
        while True:
            trial = theta - step * direction
            trial_obj, trial_grad = problem.objective(trial), problem.gradient(trial)
            if trial_obj < obj or float(np.linalg.norm(trial_grad)) < grad_norm:
                break
            step *= 0.5
            if step < 1e-300:
                return OracleFit(problem.items, theta, False, n_iter, grad_norm)
        theta, obj, grad = trial, trial_obj, trial_grad
        n_iter += 1
    return OracleFit(problem.items, theta, grad_norm <= config.tol, n_iter, grad_norm)


def _oracle_aggregate(values, weight, clip_radius):
    return br_mean(values, ResilienceParams(weight=weight, default=0.0, clip_radius=clip_radius))


def oracle_mehestan_scale(cset, gbt_config, weight, epsilon_pair=1e-6,
                          ratio_clip=0.5, translation_clip=1.0):
    """-> (new scores, {user: (s, tau, votes, candidates)}, {user: fit}, scaled theta)."""
    users = list(cset.user_ids)
    subsets = [take(cset, u) for u in users]
    fits = {u: oracle_fit_gbt(sub, gbt_config) for u, sub in zip(users, subsets)}
    theta = {u: dict(zip(fits[u].item_ids, fits[u].theta.tolist())) for u in users}
    anchor = min(users, key=lambda u: (-len(theta[u]), u))

    scales = {anchor: 1.0}
    n_votes = {anchor: 0}
    for u in users:
        if u == anchor:
            continue
        votes = []
        for v in users:
            if v == u:
                continue
            common = sorted(set(theta[u]) & set(theta[v]))
            ratios = []
            for a, b in itertools.combinations(common, 2):
                gap_u = abs(theta[u][a] - theta[u][b])
                gap_v = abs(theta[v][a] - theta[v][b])
                if gap_u > epsilon_pair and gap_v > epsilon_pair:
                    ratios.append(np.log(gap_v) - np.log(gap_u))
            if ratios:
                votes.append(float(np.median(ratios)))
        n_votes[u] = len(votes)
        scales[u] = math.exp(_oracle_aggregate(votes, weight, ratio_clip))

    translations = {anchor: 0.0}
    n_candidates = {anchor: 0}
    for u in users:
        if u == anchor:
            continue
        candidates = []
        for v in users:
            if v == u:
                continue
            for a in sorted(set(theta[u]) & set(theta[v])):
                candidates.append(scales[v] * theta[v][a] - scales[u] * theta[u][a])
        n_candidates[u] = len(candidates)
        translations[u] = _oracle_aggregate(candidates, weight, translation_clip)

    scaled_theta = {
        u: {item: scales[u] * val + translations[u] for item, val in theta[u].items()}
        for u in users
    }
    new_scores = np.empty(len(cset))
    order, bounds = cset.by_user
    for k, (u, sub) in enumerate(zip(users, subsets)):
        vec = np.array([scaled_theta[u][item] for item in sub.item_ids])
        rows = order[bounds[k] : bounds[k + 1]]
        new_scores[rows] = np.clip(vec[sub.right] - vec[sub.left], -1.0, 1.0)
    affines = {
        u: (scales[u], translations[u], n_votes[u], n_candidates[u]) for u in users
    }
    return new_scores, affines, fits, scaled_theta, anchor


# --- comparison --------------------------------------------------------------


def _bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


def assert_matches_oracle(cset, gbt_config=GbtConfig(), weight=1.0):
    scaled, affines, fits = mehestan_scale(cset, gbt_config, weight)
    want_scores, want_affines, want_fits, want_theta, anchor = oracle_mehestan_scale(
        cset, gbt_config, weight
    )
    assert _bits(scaled.score) == _bits(want_scores)
    assert list(affines.user_ids) == sorted(want_affines)
    s, tau, votes, candidates = zip(*(want_affines[u] for u in affines.user_ids))
    assert _bits(affines.s) == _bits(s)
    assert _bits(affines.tau) == _bits(tau)
    assert (affines.votes.tolist(), affines.candidates.tolist()) == (list(votes), list(candidates))
    assert affines.user_ids[affines.anchor] == anchor
    assert fits.user_ids == affines.user_ids
    for k, user in enumerate(fits.user_ids):
        want, got = want_fits[user], by_item(fits, user)
        assert list(got) == list(want_theta[user])
        assert _bits(list(got.values())) == _bits(list(want_theta[user].values()))
        assert (fits.converged[k], fits.n_iter[k]) == (want.converged, want.n_iter)
        assert _bits(fits.grad_norm[k]) == _bits(want.grad_norm)
    return affines


ITEMS = [f"i{k}" for k in range(7)]
_scores = st.one_of(st.floats(-1.0, 1.0), st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]))


@st.composite
def populations(draw):
    """2-4 users over a shared vocabulary, maybe with a user sharing no item
    with anyone and a user whose every score is 0 (every fitted gap is 0)."""
    rows = []
    for user in ["u0", "u1", "u2", "u3"][: draw(st.integers(2, 4))]:
        items = draw(st.lists(st.sampled_from(ITEMS), min_size=2, max_size=7, unique=True))
        for _ in range(draw(st.integers(1, 12))):
            a, b = draw(st.permutations(items))[:2]
            rows.append((user, "g", a, b, draw(_scores)))
    if draw(st.booleans()):
        rows += [("loner", "g", "z0", "z1", draw(_scores)),
                 ("loner", "g", "z1", "z2", draw(_scores))]
    if draw(st.booleans()):
        tie_items = draw(st.lists(st.sampled_from(ITEMS), min_size=3, max_size=5, unique=True))
        rows += [("tie", "g", a, b, 0.0) for a, b in zip(tie_items, tie_items[1:])]
    return comparison_set(draw(st.permutations(rows)))


@given(cset=populations(), weight=st.sampled_from([0.5, 1.0, 10.0]))
@settings(max_examples=60, deadline=None)
def test_populations_match_oracle(cset, weight):
    assert_matches_oracle(cset, GbtConfig(tol=1e-6, max_iter=300), weight)


def _latent(cset, config=GbtConfig(tol=1e-6, max_iter=300)):
    """(fits, latent) over the sorted item codes, latent NaN where a user
    scored no item, as mehestan_scale builds them."""
    fits = [fit_users(take(cset, u), config) for u in cset.user_ids]
    index = {item: i for i, item in enumerate(cset.item_ids)}
    latent = np.full((len(fits), len(index)), np.nan)
    for k, fit in enumerate(fits):
        latent[k, [index[item] for item in by_item(fit)]] = fit.theta
    return fits, latent


def oracle_vote_matrix(latent):
    """The per-pair loop: the lower user's row holds the median, the upper's its negation."""
    votes = np.full((len(latent),) * 2, np.nan)
    present = ~np.isnan(latent)
    for u, v in itertools.combinations(range(len(latent)), 2):
        ratios = []
        for a, b in itertools.combinations(np.flatnonzero(present[u] & present[v]).tolist(), 2):
            gap_u = abs(latent[u, a] - latent[u, b])
            gap_v = abs(latent[v, a] - latent[v, b])
            if gap_u > scaling.EPSILON_PAIR and gap_v > scaling.EPSILON_PAIR:
                ratios.append(np.log(gap_v) - np.log(gap_u))
        if ratios:
            votes[u, v] = np.median(ratios)
            votes[v, u] = -votes[u, v]
    return votes


@given(cset=populations())
@settings(max_examples=60, deadline=None)
def test_vote_matrix_is_antisymmetric(cset):
    # Each unordered pair of users is scored once and the other vote is its
    # exact negation; NaN marks exactly the pairs of users that share no item
    # pair whose gaps both exceed EPSILON_PAIR.
    fits, latent = _latent(cset)
    votes = scaling._vote_matrix(latent)

    def gap(scores, a, b):
        return abs(scores[a] - scores[b])

    keyed = [by_item(fit) for fit in fits]
    shared = np.array([[fu is not fv and any(
        min(gap(fu, a, b), gap(fv, a, b)) > scaling.EPSILON_PAIR
        for a, b in itertools.combinations(sorted(set(fu) & set(fv)), 2)
    ) for fv in keyed] for fu in keyed])
    assert np.array_equal(~np.isnan(votes), shared)
    assert _bits(votes.T[shared]) == _bits(-votes[shared])


@pytest.mark.parametrize("n", [*range(65), 491])
def test_item_pairs_are_the_upper_triangle_row_by_row(n, monkeypatch):
    # Each tile lays its gap tables out over the pairs i < j of its items in
    # row-major order, and logs every block of voters over the same pairs.
    # User 0 lacks item 0, so its tile's n items are columns 1..n; user 1
    # scores every item. Distinct scores make every gap valid.
    rng = np.random.default_rng(n)
    latent = np.stack([rng.permutation(n + 1), rng.permutation(n + 1)]).astype(float)
    latent[0, 0] = np.nan
    calls = []
    gaps = scaling._gaps

    def spy(rows, a, b):
        calls.append((a.tolist(), b.tolist()))
        return gaps(rows, a, b)

    monkeypatch.setattr(scaling, "_gaps", spy)
    votes = scaling._vote_matrix(latent)
    first, second = np.triu_indices(n, 1)
    want = ((first + 1).tolist(), (second + 1).tolist())
    assert calls == [want] * (1 if n < 2 else 2)
    assert _bits(votes) == _bits(oracle_vote_matrix(latent))


def assert_votes_match_oracle_in_every_tiling(cset, monkeypatch, config=GbtConfig(
    tol=1e-6, max_iter=300
)):
    # Tiles of 1, 2 and 3 users. With _BLOCK_ENTRIES one entry short of the
    # next multiple of P, blocks of later users are wider than a tile over
    # the tile's smaller union of pairs, so they end inside a later tile.
    _, latent = _latent(cset, config)
    want = _bits(oracle_vote_matrix(latent))
    assert _bits(scaling._vote_matrix(latent)) == want
    pairs = len(cset.item_ids) * (len(cset.item_ids) - 1) // 2
    for users_per_tile in (1, 2, 3):
        for entries in (users_per_tile * pairs, (users_per_tile + 1) * pairs - 1):
            monkeypatch.setattr(scaling, "_BLOCK_ENTRIES", entries)
            assert _bits(scaling._vote_matrix(latent)) == want


@given(cset=populations())
@settings(max_examples=60, deadline=None)
def test_votes_match_oracle_in_every_tiling(cset):
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_votes_match_oracle_in_every_tiling(cset, monkeypatch)


def test_users_without_a_valid_pair_inside_tiles(monkeypatch):
    # "b_flat" scores only ties and "d_loner" shares no item: in tiles of 3
    # "b_flat" sits mid-tile, in tiles of 2 both end a tile. With "flat" and
    # "loner" first in user order, the first tile of 2 has no valid pair at
    # all and the first tile of 3 holds "loner" mid-tile.
    rng = np.random.default_rng(9)
    truth = rng.uniform(-1, 1, 6)

    def rows(users):
        out = []
        for user, items in users:
            for a, b in itertools.combinations(items, 2):
                score = float(np.clip(truth[b] - truth[a], -1, 1))
                out.append((user, "g", f"i{a}", f"i{b}", score))
        return out

    flat = [("g", "i0", "i1", 0.0), ("g", "i1", "i2", 0.0)]
    loner = [("g", "z0", "z1", 0.4), ("g", "z1", "z2", 0.2)]
    for names in (("a", "b_flat", "c", "d_loner", "e"), ("u0", "flat", "u1", "loner", "u2")):
        regular = [names[0], names[2], names[4]]
        cset = comparison_set(
            rows(zip(regular, [range(6), range(4), (1, 3, 5)]))
            + [(names[1], *row) for row in flat] + [(names[3], *row) for row in loner]
        )
        assert_votes_match_oracle_in_every_tiling(cset, monkeypatch)


def test_vote_rows_with_one_and_with_no_finite_difference(monkeypatch):
    # "a" scores i0..i3; "b" compares only i0 with i1 and "d" only i2 with
    # i3, so each shares exactly one item pair with "a": one finite
    # difference in its row, both middle indices 0, and the vote is that
    # difference. "b" and "d" share no item, "c" shares none with anyone and
    # "e" shares one item with each of them, so their rows hold none.
    rng = np.random.default_rng(6)
    truth = rng.uniform(-1, 1, 5)

    def row(user, a, b):
        return (user, "g", f"i{a}", f"i{b}", float(np.clip(truth[b] - truth[a], -1, 1)))

    rows = [row("a", a, b) for a, b in itertools.combinations(range(4), 2)]
    rows += [row("b", 0, 1), row("d", 2, 3), row("d", 3, 4), row("e", 1, 4)]
    rows += [("c", "g", "z0", "z1", 0.4), ("c", "g", "z1", "z2", 0.2)]
    cset = comparison_set(rows)
    assert_votes_match_oracle_in_every_tiling(cset, monkeypatch)
    _, latent = _latent(cset)
    votes = scaling._vote_matrix(latent)
    k = {user: k for k, user in enumerate(cset.user_ids)}
    for user, pair in [("b", ("i0", "i1")), ("d", ("i2", "i3"))]:
        i, j = map(cset.item_ids.index, pair)
        gap = [abs(latent[k[u], i] - latent[k[u], j]) for u in ("a", user)]
        assert _bits(votes[k["a"], k[user]]) == _bits(np.log(gap[1]) - np.log(gap[0]))
    for u, v in [("a", "c"), ("a", "e"), ("b", "d"), ("b", "e"), ("c", "e"), ("d", "e")]:
        assert np.isnan(votes[k[u], k[v]]) and np.isnan(votes[k[v], k[u]])


def test_vote_memory_stays_below_one_users_by_pairs_table():
    # 30 users x 150 items: 11,175 item pairs, so tiles of 2 users. The
    # kernel's peak must stay below one users x pairs float64 table. The
    # users x items table is built before tracing starts.
    rng = np.random.default_rng(2)
    theta = rng.normal(size=(30, 150))
    latent = np.where(rng.random(theta.shape) < 0.8, theta, np.nan)
    pairs = 150 * 149 // 2
    assert scaling._BLOCK_ENTRIES // pairs == 2
    tracemalloc.start()
    try:
        votes = scaling._vote_matrix(latent)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not np.isnan(votes[~np.eye(30, dtype=bool)]).any()
    assert peak < 30 * pairs * 8


def test_fallback_users_and_even_and_odd_vote_counts():
    # u0 (anchor) scores i0..i5; u1 shares 4 of them (6 pairs, an even
    # count), u2 shares 3 (3 pairs, odd); "loner" shares nothing and "flat"
    # scores only ties, so every gap it has is 0.
    rng = np.random.default_rng(5)
    truth = rng.uniform(-1, 1, 6)
    rows = []
    for user, items in [("u0", range(6)), ("u1", range(4)), ("u2", (1, 3, 5))]:
        items = list(items)
        for a, b in itertools.combinations(items, 2):
            rows.append((user, "g", f"i{a}", f"i{b}", float(np.clip(truth[b] - truth[a], -1, 1))))
    rows += [("loner", "g", "z0", "z1", 0.4), ("loner", "g", "z1", "z2", 0.2)]
    rows += [("flat", "g", "i0", "i1", 0.0), ("flat", "g", "i1", "i2", 0.0)]
    affines = assert_matches_oracle(comparison_set(rows))
    k = {user: k for k, user in enumerate(affines.user_ids)}
    assert affines.anchor == k["u0"]
    assert (affines.votes[k["loner"]], affines.candidates[k["loner"]]) == (0, 0)
    assert (affines.s[k["loner"]], affines.tau[k["loner"]]) == (1.0, 0.0)
    assert affines.votes[k["flat"]] == 0 and affines.s[k["flat"]] == 1.0
    assert affines.candidates[k["flat"]] == 7
    assert affines.votes[k["u1"]] == affines.votes[k["u2"]] == 2


def test_two_users():
    rng = np.random.default_rng(11)
    truth = rng.uniform(-1, 1, 8)
    rows = []
    for user, scale in [("uA", 1.0), ("uB", 0.4)]:
        for _ in range(40):
            a, b = rng.choice(8, size=2, replace=False)
            rows.append((user, "g", f"i{a}", f"i{b}",
                         float(np.clip(scale * (truth[b] - truth[a]), -1, 1))))
    assert_matches_oracle(comparison_set(rows))


def test_user_with_more_pairs_than_one_block():
    # 300 items make 44850 item pairs, more than one block holds, so every
    # tile is one user. "big0" and "big1" score all 300 items, so row "big0"
    # of the vote matrix scores the three users after it over more valid
    # pairs than a block holds, each user logged and scored in a block of its
    # own. "big0" is the anchor; "big1" takes three votes, one of them the
    # negation of its entry in that row.
    rng = np.random.default_rng(3)
    n = 300
    truth = rng.uniform(-2, 2, n)

    def row(user, a, b, scale=1.0):
        score = float(np.clip(scale * (truth[b] - truth[a]), -1, 1))
        return (user, "g", f"i{a:03d}", f"i{b:03d}", score)

    rows = []
    for user, scale in [("big0", 1.0), ("big1", 0.7)]:
        rows += [row(user, k, k + 1, scale) for k in range(n - 1)]
        rows += [row(user, *rng.choice(n, size=2, replace=False), scale) for _ in range(200)]
    for user in ("small0", "small1"):
        items = rng.choice(n, size=30, replace=False)
        rows += [row(user, *rng.choice(items, size=2, replace=False), 0.5) for _ in range(60)]
    cset = comparison_set(rows)
    config = GbtConfig(max_iter=40)
    big = fit_users(take(cset, "big0"), config)
    gaps = [abs(a - b) for a, b in itertools.combinations(big.theta.tolist(), 2)]
    assert sum(g > 1e-6 for g in gaps) > scaling._BLOCK_ENTRIES
    affines = assert_matches_oracle(cset, config)
    assert affines.user_ids[affines.anchor] == "big0"
    assert affines.votes[1] == 3


def test_two_groups_that_share_no_items(monkeypatch):
    # u0-u3 compare only i00-i09 and u4-u7 only i10-i19, so no vote or
    # candidate crosses the groups: the anchor u0's gauge never reaches
    # u4-u7, which are scaled among themselves. A tile within one group holds
    # the other group's columns all NaN, and a tile across both holds every
    # pair across the groups invalid for all its users.
    rng = np.random.default_rng(0)
    rows = []
    for k in range(8):
        first = 10 * (k // 4)
        for _ in range(60):
            a, b = rng.choice(10, size=2, replace=False) + first
            rows.append((f"u{k}", "g", f"i{a:02d}", f"i{b:02d}", float(rng.uniform(-1, 1))))
    cset = comparison_set(rows)
    affines = assert_matches_oracle(cset)
    assert affines.user_ids[affines.anchor] == "u0"
    others = np.arange(8) != affines.anchor
    assert affines.votes[others].tolist() == [3] * 7
    assert affines.candidates[others].tolist() == [30] * 7
    assert_votes_match_oracle_in_every_tiling(cset, monkeypatch, GbtConfig())


def test_peak_memory_is_below_two_users_by_items_tables():
    # simulate's population at the paper's shape: 300 users x 2,000 items x
    # 20 comparisons each, about 40 items a user. One users x items float64
    # table is 4.8 MB and the vote matrix 0.72 MB; the peak of mehestan_scale,
    # its GBT fits included, must stay below two such tables.
    cset, _, _ = generate(SimConfig(
        n_items=2000, feature_dim=3, n_users=300, comparisons_per_user=20, seed=1
    ))
    tracemalloc.start()
    try:
        mehestan_scale(cset)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 300 * 2000 * 8


def _simulated_crowd():
    cset, _, _ = generate(SimConfig(
        n_items=15, feature_dim=3, n_users=12, comparisons_per_user=25, seed=4,
        archetype_mix={"neutral": 6, "conservative": 2, "extreme": 2, "malicious": 2},
    ))
    return cset


def test_simulated_crowd_matches_oracle():
    assert_matches_oracle(_simulated_crowd(), GbtConfig(max_iter=2000))


def test_simulated_crowd_votes_match_oracle_in_every_tiling(monkeypatch):
    assert_votes_match_oracle_in_every_tiling(
        _simulated_crowd(), monkeypatch, GbtConfig(max_iter=2000)
    )


def test_br_mean_inputs_are_handed_over_without_a_copy(monkeypatch):
    # Each BrMean input is a view of Mehestan's own array, so numpy does not
    # copy it, and iterating it gives Python floats: perfbench's tracer
    # counts clipped inputs by iterating them, and its count must stay an
    # int for json.
    inputs = []

    def spy(values, params):
        inputs.append((values, params))
        return br_mean(values, params)

    monkeypatch.setattr(scaling, "br_mean", spy)
    cset = _simulated_crowd()
    mehestan_scale(cset, GbtConfig(max_iter=2000))
    assert len(inputs) == 2 * (len(cset.user_ids) - 1)
    for values, params in inputs:
        assert not np.asarray(values).flags.owndata
        assert all(type(v) is float for v in values)
        center = qr_med(values, params)
        assert type(sum(abs(v - center) > params.clip_radius for v in values)) is int


def _random_points(rng, spread, n_items):
    """20 random points of the stacked theta, then zero."""
    return [*(rng.uniform(-spread, spread, n_items) for _ in range(20)), np.zeros(n_items)]


@pytest.mark.parametrize("spread", [1e-3, 0.5, 5.0, 800.0])
def test_kernel_matches_oracle(spread):
    # Small spreads take the series branch, large ones the closed form (and,
    # at 800, the exp cutoff); 0.5 mixes both. One user alone, then four
    # users stacked with their rows interleaved, each with 50 comparisons on
    # 12 items: each user's objective, gradient, Hessian weights and Newton
    # direction are the oracle's on its own set, at 20 random points and at
    # zero. The last pass shuffles together users of mixed block sizes, one
    # comparison over 2 items, then users over 5, 12 and 30 items, and asks
    # for the directions of users 0 and 2 alone: each comes from its own
    # block and is the oracle's bit for bit.
    rng = np.random.default_rng(int(spread * 1000))
    for users in (["u"], ["u0", "u1", "u2", "u3"]):
        rows = []
        for _ in range(50):
            for user in users:
                a, b = rng.choice(12, size=2, replace=False)
                rows.append((user, "g", f"i{a:02d}", f"i{b:02d}", float(rng.uniform(-1, 1))))
        cset = comparison_set(rows)
        stack = _Stack(cset)
        olds = [OracleProblem(take(cset, u), 0.1) for u in cset.user_ids]
        for theta in _random_points(rng, spread, int(stack.items.sum())):
            everyone = list(range(len(users)))
            delta, a, objs = _objectives(stack, theta, 0.1, everyone)
            grad = _gradient(stack, theta, delta, a, 0.1)
            h = _hessian_vec(a)
            directions = gbt._newton_directions(stack, h, grad, everyone, 0.1)
            for old, obj, own, rows, direction in zip(
                olds, objs, stack.item_slices, stack.row_slices, directions
            ):
                x = theta[own]
                assert _bits(obj) == _bits(old.objective(x))
                assert _bits(grad[own]) == _bits(old.gradient(x))
                assert _bits(h[rows]) == _bits(oracle_hessian_vec(x[old.right] - x[old.left]))
                assert _bits(direction) == _bits(np.linalg.solve(old.hessian(x), old.gradient(x)))
                # The descent's norm: the dot of the user's slice of the gradient.
                norm = math.sqrt(grad[own].dot(grad[own]))
                assert _bits(norm) == _bits(np.linalg.norm(old.gradient(x)))
    rows = [("m0", "g", "i00", "i01", float(rng.uniform(-1, 1)))]
    for user, n in (("m1", 5), ("m2", 12), ("m3", 30)):
        pairs = [(k, k + 1) for k in range(n - 1)]
        pairs += [tuple(rng.choice(n, size=2, replace=False)) for _ in range(2 * n)]
        rows += [(user, "g", f"i{a:02d}", f"i{b:02d}", float(rng.uniform(-1, 1)))
                 for a, b in pairs]
    cset = comparison_set([rows[k] for k in rng.permutation(len(rows))])
    stack = _Stack(cset)
    assert stack.items.tolist() == [2, 5, 12, 30]
    olds = [OracleProblem(take(cset, u), 0.1) for u in cset.user_ids]
    for theta in _random_points(rng, spread, int(stack.items.sum())):
        delta, a, _ = _objectives(stack, theta, 0.1, [0, 2])
        grad = _gradient(stack, theta, delta, a, 0.1)
        directions = gbt._newton_directions(stack, _hessian_vec(a), grad, [0, 2], 0.1)
        assert len(directions) == 2
        for j, direction in zip([0, 2], directions):
            x = theta[stack.item_slices[j]]
            expected = np.linalg.solve(olds[j].hessian(x), olds[j].gradient(x))
            assert _bits(direction) == _bits(expected)


def test_each_point_gradient_is_evaluated_once(monkeypatch):
    # Every point the oracle tries has its objective and gradient evaluated
    # once, and its Hessian once more if it is taken and the fit goes on.
    # fit_users must compute each point's objective, gradient and Hessian
    # weights once too, for the same fit. At tol 5e-15 the last iterations
    # run at the gradient's rounding floor, where the line search halves the
    # step: 5 of the 15 points tried are not taken.
    rng = np.random.default_rng(3)
    rows = []
    for _ in range(30):
        a, b = rng.choice(8, size=2, replace=False)
        rows.append(("u", "g", f"i{a}", f"i{b}", float(rng.uniform(-1, 1))))
    cset = comparison_set(rows)

    oracle_points, oracle_hessians = [], []
    kernel = {"objective": [], "gradient": [], "hessian": []}
    oracle_objective, oracle_hessian = OracleProblem.objective, OracleProblem.hessian
    log_partition_vec, expected_vec, hessian_vec = (
        gbt._log_partition_vec, gbt._expected_vec, gbt._hessian_vec
    )

    def recorded_oracle_objective(self, theta):
        oracle_points.append(theta.tobytes())
        return oracle_objective(self, theta)

    def recorded_oracle_hessian(self, theta):
        oracle_hessians.append(theta.tobytes())
        return oracle_hessian(self, theta)

    def recorded_log_partition_vec(a):
        kernel["objective"].append(a.tobytes())
        return log_partition_vec(a)

    def recorded_expected_vec(delta, a):
        kernel["gradient"].append(a.tobytes())
        return expected_vec(delta, a)

    def recorded_hessian_vec(a):
        kernel["hessian"].append(a.tobytes())
        return hessian_vec(a)

    monkeypatch.setattr(OracleProblem, "objective", recorded_oracle_objective)
    monkeypatch.setattr(OracleProblem, "hessian", recorded_oracle_hessian)
    monkeypatch.setattr(gbt, "_log_partition_vec", recorded_log_partition_vec)
    monkeypatch.setattr(gbt, "_expected_vec", recorded_expected_vec)
    monkeypatch.setattr(gbt, "_hessian_vec", recorded_hessian_vec)
    config = GbtConfig(tol=5e-15)
    want, got = oracle_fit_gbt(cset, config), fit_users(cset, config)

    assert (want.converged, want.n_iter, len(oracle_points)) == (True, 10, 15)
    assert len(set(oracle_points)) == len(oracle_points)
    assert set(oracle_hessians) <= set(oracle_points)
    assert len(oracle_hessians) == want.n_iter - 1
    points = kernel["objective"]
    assert len(set(points)) == len(points) == len(oracle_points)
    assert kernel["gradient"] == points
    assert len(kernel["hessian"]) == len(oracle_hessians)
    assert set(kernel["hessian"]) <= set(points)
    assert (got.converged[0], got.n_iter[0]) == (want.converged, want.n_iter)
    assert _bits(got.grad_norm) == _bits(want.grad_norm)
    assert _bits(got.theta) == _bits(want.theta)


def test_flat_fits_stop_at_the_first_trial_equal_to_their_point(monkeypatch):
    # At tol 1e-16, below the gradient's rounding floor, some users of the
    # lockstep crowd stop flat. Each stops at the first refused trial equal
    # to its point, not after the ~997 halvings that take the step below
    # 1e-300, and its fit is the one the oracle's 1e-300 rule gives.
    cset = _crowd()
    config = GbtConfig(tol=1e-16)
    rounds = []
    objectives = gbt._objectives

    def counted(*args):
        rounds.append(1)
        return objectives(*args)

    monkeypatch.setattr(gbt, "_objectives", counted)
    fits = gbt.fit_users(cset, config)
    flat = np.flatnonzero(~fits.converged)
    assert flat.size and (fits.n_iter[flat] < config.max_iter).all()
    halvings = math.ceil(-math.log2(1e-300))
    assert len(rounds) < fits.n_iter[flat].max() + halvings
    for k in flat:
        user = fits.user_ids[k]
        want, got = oracle_fit_gbt(take(cset, user), config), by_item(fits, user)
        assert (tuple(got), fits.converged[k], fits.n_iter[k]) == (
            want.item_ids, want.converged, want.n_iter
        )
        assert _bits(fits.grad_norm[k]) == _bits(want.grad_norm)
        assert _bits(list(got.values())) == _bits(want.theta)
