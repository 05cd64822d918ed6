"""Generalized Bradley-Terry link function, objective, Hessian weights, and solver."""

import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from scipy.stats import spearmanr

from equirank.dataset import ComparisonSet, split
from equirank import gbt
from equirank.gbt import (
    _EXP_CUTOFF, _SERIES_CUTOFF, GbtConfig, _expected_vec, _hessian_vec, fit_users,
)
from equirank.simgen import SimConfig, generate
from gbt_oracle import by_item, expected_comparison, gbt_gradient, gbt_objective, kernel_point
from row_view import comparison_set, rows_of, take


def _oracle_expected(delta: float) -> float:
    """coth(delta) - 1/delta evaluated at 50 digits."""
    with mpmath.workdps(50):
        d = mpmath.mpf(delta)
        return float(mpmath.coth(d) - 1 / d)


def link(delta):
    """E[r|delta] elementwise, as a fit computes it."""
    delta = np.asarray(delta, dtype=np.float64)
    return _expected_vec(delta, np.abs(delta))


class TestExpectedComparison:
    def test_zero(self):
        assert link([0.0]).tolist() == [0.0]

    def test_closed_form_against_high_precision(self):
        assert link([3.0])[0] == pytest.approx(_oracle_expected(3.0), abs=1e-14)
        assert link([3.0])[0] == pytest.approx(0.67164, abs=1e-5)

    def test_odd(self):
        ds = np.array([0.5, 1.0, 3.0, 17.0, 0.003])
        assert np.array_equal(link(-ds), -link(ds))

    def test_series_matches_closed_form_at_cutoff(self):
        # Series region and closed-form region must agree where they meet.
        for d in [9e-3, 1e-2, 1.1e-2]:
            assert link([d])[0] == pytest.approx(_oracle_expected(d), abs=1e-12)

    def test_strictly_increasing(self):
        rng = np.random.default_rng(42)
        xs = np.sort(rng.uniform(-30, 30, 2000))
        assert np.all(np.diff(link(xs)) > 0)

    def test_bounded_below_one(self):
        rng = np.random.default_rng(0)
        assert np.all(np.abs(link(rng.uniform(-500, 500, 1000))) < 1.0)

    def test_rejects_non_finite(self):
        # The scalar oracle draws the acceptance suite's comparison scores;
        # a non-finite delta there is a broken fixture, not a score.
        with pytest.raises(ValueError):
            expected_comparison(float("inf"))

    def test_matches_scalar_oracle(self):
        # The kernel agrees with the scalar link to within the last bits that
        # np.expm1 and math.expm1 may round differently, and gives each value
        # the same bits whether or not its array holds a small |delta|.
        rng = np.random.default_rng(8)
        xs = np.concatenate([
            rng.uniform(-30, 30, 2000), rng.uniform(-0.02, 0.02, 2000),
            rng.uniform(-800, 800, 200), [0.0, 9e-3, 1e-2, 1.1e-2, 350.0, 351.0],
        ])
        want = np.array([expected_comparison(float(x)) for x in xs])
        np.testing.assert_allclose(link(xs), want, rtol=0, atol=1e-13)
        big = np.abs(xs) >= _SERIES_CUTOFF
        assert np.array_equal(link(xs[big]), link(xs)[big])


def _oracle_variance(delta: float) -> float:
    """1/delta^2 - 1/sinh^2(delta), Var[r|delta], evaluated at 50 digits; 1/3 at 0."""
    with mpmath.workdps(50):
        d = mpmath.mpf(delta)
        if d == 0:
            return 1.0 / 3.0
        return float(1 / d**2 - 1 / mpmath.sinh(d) ** 2)


def variance(delta):
    """Var[r|delta] elementwise, as a fit computes it."""
    delta = np.asarray(delta, dtype=np.float64)
    return _hessian_vec(np.abs(delta))


class TestHessianWeight:
    # |delta| from 1e-12 to 800: zero of both signs, both sides of the series
    # cutoff and of the exp cutoff, and far beyond it.
    GRID = np.concatenate([
        [0.0, -0.0, 1e-12, 9.999e-3, _SERIES_CUTOFF, 1.0001e-2, 1.0, 349.9, _EXP_CUTOFF,
         350.1, 355.0, 400.0, 745.0, 800.0],
        np.geomspace(1e-12, 800.0, 600),
    ])

    def test_against_high_precision(self):
        xs = np.concatenate([self.GRID, -self.GRID])
        want = np.array([_oracle_variance(float(x)) for x in xs])
        got = variance(xs)
        assert np.all(got > 0)
        # Below |delta| = 1 the closed form loses digits to the cancellation
        # of 1/delta^2 against 1/sinh^2(delta), most (1e-11) at the cutoff;
        # the series is good to 5e-15 there.
        rel = np.abs(got - want) / want
        assert rel[np.abs(xs) < _SERIES_CUTOFF].max() <= 1e-14
        assert rel[np.abs(xs) < 1.0].max() <= 3e-11
        assert rel[np.abs(xs) >= 1.0].max() <= 1e-14
        assert variance([0.0, -0.0]).tolist() == [1.0 / 3.0, 1.0 / 3.0]
        # Arrays with no small |delta| give the same values, bit for bit.
        big = np.abs(xs) >= _SERIES_CUTOFF
        assert np.array_equal(variance(xs[big]), got[big])

    def test_is_derivative_of_expected_value(self):
        # Central differences of E[r|delta], on each side of the cutoff but
        # not across it, where E switches from its series to its closed form.
        rng = np.random.default_rng(13)
        xs = np.concatenate([
            rng.uniform(-30, 30, 500), rng.uniform(-0.05, 0.05, 500), [0.0, 0.02, -0.02],
        ])
        eps = 1e-4
        xs = xs[np.abs(np.abs(xs) - _SERIES_CUTOFF) > 2 * eps]
        fd = (link(xs + eps) - link(xs - eps)) / (2 * eps)
        np.testing.assert_allclose(variance(xs), fd, rtol=0, atol=1e-9)

    def test_no_floating_point_warning(self):
        xs = np.concatenate([self.GRID, -self.GRID, [1e-300, 1e150, 1e300]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = variance(xs)
            for x in xs:
                variance([x])
        assert np.all(np.isfinite(values)) and np.all(values >= 0)


def _objective(cset, lam, theta):
    """The objective a fit minimizes, at theta over the set's sorted items."""
    return kernel_point(cset, lam, theta)[0]


def _gradient(cset, lam, theta):
    return kernel_point(cset, lam, theta)[1]


class TestObjective:
    def test_single_neutral_comparison_gives_log2(self):
        cset = comparison_set([("u1", "g", "a", "b", 0.0)])
        assert _objective(cset, 1.0, [0.0, 0.0]) == pytest.approx(math.log(2.0))

    def test_zero_theta_gives_sum_of_log2(self):
        rng = np.random.default_rng(1)
        rows = [("u1", "g", "a", f"b{i}", float(rng.uniform(-1, 1))) for i in range(7)]
        cset = comparison_set(rows)
        theta = np.zeros(len(cset.item_ids))
        assert _objective(cset, 0.5, theta) == pytest.approx(7 * math.log(2.0))

    def test_missing_item_rejected(self):
        # The dict-keyed oracle names the items a theta leaves out.
        cset = comparison_set([("u1", "g", "a", "b", 0.0)])
        with pytest.raises(ValueError, match="missing"):
            gbt_objective({"a": 0.0}, cset, lam=1.0)

    def test_descent_direction_decreases_objective(self):
        rng = np.random.default_rng(2)
        items = [f"i{k}" for k in range(6)]
        rows = []
        for _ in range(40):
            l, r = rng.choice(6, size=2, replace=False)
            rows.append(("u1", "g", items[l], items[r], float(rng.uniform(-1, 1))))
        cset = comparison_set(rows)
        theta = rng.normal(size=len(cset.item_ids))
        grad = _gradient(cset, 0.1, theta)
        before = _objective(cset, 0.1, theta)
        assert _objective(cset, 0.1, theta - 1e-4 * grad) < before

    def test_kernel_matches_dict_oracle(self):
        # The fit's kernel, at theta over the sorted items, is the oracle's
        # objective and gradient of the same scores keyed by item; an entry
        # for an item outside the set adds only its prior term.
        rng = np.random.default_rng(9)
        cset, _ = _random_instance(rng)
        theta = rng.normal(size=len(cset.item_ids))
        obj, grad = kernel_point(cset, 0.3, theta)
        values = dict(zip(cset.item_ids, theta.tolist()))
        assert gbt_objective(values, cset, 0.3) == obj
        assert gbt_gradient(values, cset, 0.3) == dict(zip(cset.item_ids, grad.tolist()))
        extra = gbt_objective(dict(values, elsewhere=2.0), cset, 0.3)
        assert extra == pytest.approx(obj + 0.5 * 0.3 * 4.0, rel=1e-15)


def _random_instance(rng, n_items=8, n_comparisons=30):
    items = [f"i{k}" for k in range(n_items)]
    rows = []
    for _ in range(n_comparisons):
        l, r = rng.choice(n_items, size=2, replace=False)
        rows.append(("u1", "g", items[l], items[r], float(rng.uniform(-0.95, 0.95))))
    cset = comparison_set(rows)
    theta = rng.normal(scale=0.8, size=len(cset.item_ids))
    return cset, theta


def test_gradient_matches_central_finite_differences():
    rng = np.random.default_rng(7)
    h = 1e-5
    for _ in range(20):
        cset, theta = _random_instance(rng)
        lam = float(rng.uniform(0.01, 1.0))
        grad = _gradient(cset, lam, theta)
        fd = np.empty_like(theta)
        for i in range(len(theta)):
            hi, lo = theta.copy(), theta.copy()
            hi[i] += h
            lo[i] -= h
            fd[i] = (_objective(cset, lam, hi) - _objective(cset, lam, lo)) / (2 * h)
        assert np.linalg.norm(grad - fd) <= 1e-4 * max(
            np.linalg.norm(grad), np.linalg.norm(fd), 1e-8
        )


class TestFit:
    def test_neutral_comparison_stays_at_zero(self):
        cset = comparison_set([("u1", "g", "a", "b", 0.0)])
        fit = fit_users(cset, GbtConfig(lam=0.1))
        assert by_item(fit) == {"a": 0.0, "b": 0.0}
        assert fit.converged.tolist() == [True]

    def test_directional_comparison_is_antisymmetric(self):
        cset = comparison_set([("u1", "g", "a", "b", 0.8)])
        fit = fit_users(cset, GbtConfig(lam=0.1))
        a, b = fit.theta
        assert b > 0 > a
        assert b == pytest.approx(-a, abs=1e-10)

    def test_gradient_norm_meets_tolerance(self):
        rng = np.random.default_rng(3)
        cset, _ = _random_instance(rng, n_items=10, n_comparisons=80)
        config = GbtConfig(lam=0.1, tol=1e-8)
        fit = fit_users(cset, config)
        assert fit.converged.tolist() == [True]
        assert fit.grad_norm[0] <= config.tol

    def test_recovery_of_planted_scores(self):
        rng = np.random.default_rng(10)
        items = [f"i{k:02d}" for k in range(12)]
        theta_true = rng.uniform(-1.2, 1.2, 12)
        rows = []
        for _ in range(400):
            l, r = rng.choice(12, size=2, replace=False)
            noisy = expected_comparison(theta_true[r] - theta_true[l]) + rng.normal(0, 0.02)
            rows.append(("u1", "g", items[l], items[r], float(np.clip(noisy, -1, 1))))
        fit = fit_users(comparison_set(rows))
        fitted = np.array([by_item(fit)[i] for i in items])
        assert spearmanr(fitted, theta_true).statistic > 0.95

    def test_prior_centers_connected_fit(self):
        rng = np.random.default_rng(4)
        cset, _ = _random_instance(rng, n_items=9, n_comparisons=120)
        fit = fit_users(cset)
        assert abs(np.mean(fit.theta)) < 1e-9

    def test_negating_scores_and_swapping_sides_is_invariant(self):
        rng = np.random.default_rng(5)
        cset, _ = _random_instance(rng, n_items=7, n_comparisons=50)
        mirrored = comparison_set(
            [(c.user_id, c.criterion, c.right_item, c.left_item, -c.score) for c in rows_of(cset)]
        )
        fit = fit_users(cset)
        fit_mirrored = fit_users(mirrored)
        assert list(by_item(fit_mirrored)) == list(by_item(fit))
        np.testing.assert_allclose(fit_mirrored.theta, fit.theta, rtol=0, atol=1e-12)

    def test_all_tie_user_stays_exactly_at_zero(self):
        # Every score 0: the gradient at theta = 0 is exactly 0, so the fit
        # stops at its first gradient check.
        rows = [("u1", "g", a, b, 0.0) for a, b in [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")]]
        fit = fit_users(comparison_set(rows))
        assert by_item(fit) == {"a": 0.0, "b": 0.0, "c": 0.0, "d": 0.0}
        stop = (fit.converged.tolist(), fit.n_iter.tolist(), fit.grad_norm.tolist())
        assert stop == ([True], [1], [0.0])

    @pytest.mark.parametrize("score", [-1.0, -0.3, 0.05, 1.0])
    def test_single_comparison_user(self, score):
        # Two items at -t and t, where t solves E[r|2t] - r + lam*t = 0.
        lam = 0.1
        fit = fit_users(comparison_set([("u1", "g", "a", "b", score)]), GbtConfig(lam=lam))
        assert fit.converged.tolist() == [True] and fit.grad_norm[0] <= 1e-8
        a, t = fit.theta
        assert a == pytest.approx(-t, abs=1e-12)
        assert math.copysign(1.0, t) == math.copysign(1.0, score)
        assert expected_comparison(2 * t) + lam * t == pytest.approx(score, abs=1e-8)

    def test_uncompared_items_get_no_entry(self):
        cset = comparison_set([("u1", "g", "a", "b", 0.4)])
        fit = fit_users(cset)
        assert list(by_item(fit)) == ["a", "b"]
        assert fit.theta.dtype == np.float64 and fit.theta.shape == (2,)

    def test_empty_set_gives_empty_fits(self):
        fit = fit_users(comparison_set([]))
        assert (fit.user_ids, fit.item_ids) == ((), ())
        assert fit.theta.shape == fit.n_iter.shape == (0,)

    def test_max_iter_flagging(self):
        rng = np.random.default_rng(6)
        cset, _ = _random_instance(rng, n_items=10, n_comparisons=80)
        fit = fit_users(cset, GbtConfig(lam=0.1, tol=1e-12, max_iter=3))
        assert fit.converged.tolist() == [False]
        assert fit.n_iter.tolist() == [3]


def _crowd():
    """Users of every kind of stop: easy and hard random fits, an all-tie
    user and a single-comparison user, in shuffled row order."""
    rng = np.random.default_rng(12)
    rows = []
    for k, (n_items, n_comparisons) in enumerate([(4, 6), (10, 80), (3, 2), (12, 150), (6, 20)]):
        for _ in range(n_comparisons):
            l, r = rng.choice(n_items, size=2, replace=False)
            rows.append((f"u{k}", "g", f"i{l:02d}", f"i{r:02d}", float(rng.uniform(-1, 1))))
    rows += [("tie", "g", a, b, 0.0) for a, b in [("i00", "i01"), ("i01", "i02"), ("i02", "i05")]]
    rows.append(("single", "g", "i07", "i03", 0.7))
    return comparison_set([rows[k] for k in rng.permutation(len(rows))])


class TestLockstep:
    @pytest.mark.parametrize("max_iter", [1, 37, 10000])
    def test_each_user_takes_its_own_iterates(self, max_iter):
        # Users leave the lockstep at different iterations, keeping their
        # points while the others go on descending; each fit must be the
        # one of the user alone, bit for bit. A tol below the gradient's
        # rounding floor keeps some users descending until they stop flat,
        # or at a cap of 37.
        cset = _crowd()
        config = GbtConfig(tol=1e-16, max_iter=max_iter)
        fits = fit_users(cset, config)
        assert fits.user_ids == cset.user_ids
        # Entries in user-then-item code order.
        assert (np.diff(fits.user * len(fits.item_ids) + fits.item) > 0).all()
        for k, user in enumerate(cset.user_ids):
            alone = fit_users(take(cset, user), config)
            own = fits.user == k
            assert [fits.item_ids[i] for i in fits.item[own]] == list(alone.item_ids)
            assert fits.theta[own].tobytes() == alone.theta.tobytes()
            assert (fits.n_iter[k], fits.converged[k]) == (alone.n_iter[0], alone.converged[0])
            assert float(fits.grad_norm[k]).hex() == float(alone.grad_norm[0]).hex()
        stops = {
            "converged" if converged else "capped" if n_iter == max_iter else "flat"
            for converged, n_iter in zip(fits.converged.tolist(), fits.n_iter.tolist())
        }
        assert stops == {
            1: {"converged", "capped"},
            37: {"converged", "flat", "capped"},
            10000: {"converged", "flat"},
        }[max_iter]
        tie = cset.user_ids.index("tie")
        assert (fits.n_iter[tie], fits.converged[tie], fits.grad_norm[tie]) == (1, True, 0.0)

    def test_non_finite_gradient_names_the_first_user(self, monkeypatch):
        # NaN in the expected values of u1 and u3 at the zero start: fitting
        # the users one at a time would stop at u1, so the error names u1,
        # and only the users before u1 go on descending.
        cset = _crowd()
        _, bounds = cset.by_user
        expected_vec, newton_directions = gbt._expected_vec, gbt._newton_directions
        calls, solved = [], []

        def poisoned(delta, a):
            out = expected_vec(delta, a)
            if not calls:
                for k in (cset.user_ids.index("u1"), cset.user_ids.index("u3")):
                    out[bounds[k] : bounds[k + 1]] = np.nan
            calls.append(len(delta))
            return out

        def recorded(stack, h, grad, users, lam):
            solved.append((len(calls), list(users)))
            return newton_directions(stack, h, grad, users, lam)

        monkeypatch.setattr(gbt, "_expected_vec", poisoned)
        monkeypatch.setattr(gbt, "_newton_directions", recorded)
        with pytest.raises(ValueError, match="non-finite values in GBT fit for user 'u1'"):
            fit_users(cset)
        u1 = cset.user_ids.index("u1")
        assert calls[0] == len(cset) and len(calls) > 1
        later = [users for round_, users in solved if round_ > 1]
        assert later and all(j < u1 for users in later for j in users)


def test_fit_holds_a_few_newton_blocks():
    # 200 users, each over all of 120 items (a random chain, then 11 random
    # pairs): their Newton blocks hold 23 MB together, about 4x the fit's
    # peak. Each block is assembled and solved on its own, so the peak stays
    # below 2 MiB (room to batch blocks up to that size), plus four blocks,
    # plus 320 bytes (40 float64) for each row of the stack's arrays.
    # Holding all of a round's blocks at once peaks near 29 MB.
    n_users, n_items, extra = 200, 120, 11
    rng = np.random.default_rng(5)
    chain = np.argsort(rng.random((n_users, n_items)), axis=1)
    left = np.concatenate([chain[:, :-1], rng.integers(n_items, size=(n_users, extra))], axis=1)
    step = rng.integers(1, n_items, size=(n_users, extra))
    right = np.concatenate([chain[:, 1:], (left[:, n_items - 1 :] + step) % n_items], axis=1)
    user = np.repeat(np.arange(n_users), n_items - 1 + extra)
    cset = ComparisonSet(
        [f"u{k:03d}" for k in range(n_users)], user, ["g"], np.zeros_like(user),
        [f"i{k:03d}" for k in range(n_items)], left.ravel(), right.ravel(),
        rng.uniform(-1, 1, user.shape[0]),
    )
    # A first fit keeps one-time imports and caches out of the peak.
    fit_users(cset)
    tracemalloc.start()
    try:
        fits = fit_users(cset)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fits.converged.all() and fits.n_iter.max() > 2
    block = n_items * n_items * 8
    assert n_users * block > 20e6
    assert peak < 2 * 2**20 + 4 * block + 320 * len(cset)


def test_converged_fits_carry_a_certificate():
    # The training split of a crowd of 100 users, a tenth each conservative,
    # extreme and malicious, as the crowd-mehestan benchmark scales: every
    # fit converges, and at each the dict-keyed oracle's gradient has norm
    # <= tol, so by the lam-strong convexity |theta - theta*| <= tol / lam.
    cset, _, _ = generate(SimConfig(
        n_items=60, feature_dim=4, n_users=100, comparisons_per_user=50, seed=42,
        archetype_mix={"neutral": 70, "conservative": 10, "extreme": 10, "malicious": 10},
    ))
    train, _ = split(cset, 0.8, 42)
    config = GbtConfig()
    fits = fit_users(train, config)
    assert fits.converged.all()
    for user in fits.user_ids:
        grad = gbt_gradient(by_item(fits, user), take(train, user), config.lam)
        assert math.sqrt(sum(g * g for g in grad.values())) <= config.tol


def test_config_validation():
    with pytest.raises(ValueError):
        GbtConfig(lam=0.0)
    with pytest.raises(ValueError):
        GbtConfig(tol=-1.0)
    with pytest.raises(ValueError):
        GbtConfig(max_iter=0)
