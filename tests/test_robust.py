"""QrMed / BrMean exactness and resilience properties."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from equirank.robust import ResilienceParams, br_mean, qr_med


def _qr_objective(m, values, params):
    return 0.5 * params.weight * (m - params.default) ** 2 + np.sum(
        np.abs(np.asarray(values) - m)
    )


def _grid_minimum(values, params):
    """Dense-grid minimization oracle for the QrMed objective."""
    values = np.asarray(values, dtype=float)
    lo = min(values.min(), params.default) - 2.0
    hi = max(values.max(), params.default) + 2.0
    grid = np.linspace(lo, hi, 200001)
    objs = 0.5 * params.weight * (grid - params.default) ** 2
    objs += np.abs(values[None, :] - grid[:, None]).sum(axis=1)
    return grid[np.argmin(objs)]


def _qr_med_scan(values, params):
    """QrMed by scanning the n+1 gaps between sorted inputs for the zero
    crossing of the subgradient, one gap at a time."""
    xs = np.sort(np.asarray(values, dtype=np.float64))
    n = xs.size
    if n == 0:
        return params.default
    for k in range(n + 1):
        # With k inputs strictly below m and n-k above, the stationary point
        # of the smooth part is:
        m = params.default + (n - 2 * k) / params.weight
        lo = -np.inf if k == 0 else xs[k - 1]
        hi = np.inf if k == n else xs[k]
        if m < lo:
            # The crossing lies in the subdifferential at the breakpoint lo.
            return float(lo)
        if m <= hi:
            return float(m)
    raise AssertionError("the scan always returns")


_tied_values = st.lists(
    st.one_of(st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0, 3.0]),
              st.floats(-1e6, 1e6, allow_subnormal=True)),
    max_size=40,
)
_weights = st.one_of(
    st.sampled_from([1e-300, 1e-12, 0.5, 1.0, 3.0, 1e12, 1e300]),
    st.floats(1e-308, 1e308, exclude_min=True),
)


def _bits(x):
    return np.float64(x).tobytes()


# The input kinds the aggregators take: a list of floats, a float64 array,
# and the memoryview of one (the form Mehestan hands over).
_INPUT_KINDS = {
    "list": list,
    "ndarray": lambda values: np.array(values, dtype=np.float64),
    "memoryview": lambda values: np.array(values, dtype=np.float64).data,
}


@given(values=_tied_values, weight=_weights,
       default=st.one_of(st.sampled_from([0.0, -0.0, 0.5]), st.floats(-1e3, 1e3)),
       kind=st.sampled_from(sorted(_INPUT_KINDS)))
@example(values=[], weight=1.0, default=0.5, kind="list")
@example(values=[], weight=1.0, default=0.5, kind="ndarray")
@example(values=[], weight=1.0, default=0.5, kind="memoryview")
@settings(max_examples=500, deadline=None)
def test_qr_med_matches_gap_scan_bit_for_bit(values, weight, default, kind):
    # Every input kind gives the scan's bits, and BrMean the bits it gives
    # the list of the same values.
    params = ResilienceParams(weight=weight, default=default)
    given_values = _INPUT_KINDS[kind](values)
    assert _bits(qr_med(given_values, params)) == _bits(_qr_med_scan(values, params))
    assert _bits(br_mean(given_values, params)) == _bits(br_mean(list(values), params))


@given(values=st.lists(
           st.one_of(st.sampled_from([-1.0, -0.0, 0.0, 0.5, 5e-324, -5e-324, 2.2e-308,
                                      -1.5e-310, 1e300, -1e300]),
                     st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)),
           max_size=40),
       weight=_weights,
       default=st.one_of(st.sampled_from([0.0, -0.0, 5e-324]), st.floats(-1e3, 1e3)),
       clip_radius=st.one_of(st.sampled_from([5e-324, 0.5, 1.0, 1e300]),
                             st.floats(1e-300, 1e300)),
       kind=st.sampled_from(sorted(_INPUT_KINDS)))
@example(values=[0.0, -0.0, -0.0, 0.0], weight=1e-300, default=-0.0, clip_radius=1.0,
         kind="memoryview")
@example(values=[1e308, -1e308, 1e308], weight=1e300, default=0.0, clip_radius=1e300,
         kind="ndarray")
@settings(max_examples=500, deadline=None)
def test_br_mean_equals_clipped_mean_of_the_gap_scan_bit_for_bit(
        values, weight, default, clip_radius, kind):
    # BrMean is the QrMed center plus the `np.clip`ped differences'
    # `.mean()`, with ties, signed zeros, subnormals and weights from
    # 1e-300 to 1e300.
    params = ResilienceParams(weight=weight, default=default, clip_radius=clip_radius)
    center = _qr_med_scan(values, params)
    with np.errstate(over="ignore"):
        expected = (center + np.clip(np.array(values) - center, -clip_radius, clip_radius).mean()
                    if values else params.default)
        assert _bits(br_mean(_INPUT_KINDS[kind](values), params)) == _bits(expected)


class TestQrMed:
    def test_empty_returns_default(self):
        assert qr_med([], ResilienceParams(default=0.0)) == 0.0
        assert qr_med([], ResilienceParams(default=-3.5)) == -3.5

    def test_weight_to_zero_limit_is_median(self):
        assert qr_med([5.0, 5.0, 5.0], ResilienceParams(weight=1e-12)) == 5.0

    def test_example_against_grid_oracle(self):
        params = ResilienceParams(weight=1.0, default=0.0)
        values = [1.0, 2.0, 100.0]
        result = qr_med(values, params)
        assert 1.0 <= result <= 2.0
        # The objective is flat near its kink minimizer, so compare values.
        assert _qr_objective(result, values, params) <= _qr_objective(
            _grid_minimum(values, params), values, params
        ) + 1e-9

    def test_random_instances_against_grid_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            n = int(rng.integers(1, 12))
            values = rng.uniform(-5, 5, n)
            params = ResilienceParams(
                weight=float(rng.uniform(0.2, 5.0)), default=float(rng.uniform(-2, 2))
            )
            ours = qr_med(values, params)
            # The solver is exact; the grid oracle is only as fine as its
            # spacing, so compare objective values instead of locations.
            assert _qr_objective(ours, values, params) <= _qr_objective(
                _grid_minimum(values, params), values, params
            ) + 1e-9

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            qr_med([1.0, float("nan")], ResilienceParams())
        with pytest.raises(ValueError, match="non-finite input value"):
            qr_med(np.array([1.0, np.nan]).data, ResilienceParams())

    def test_single_voter_resilience(self):
        rng = np.random.default_rng(9)
        for _ in range(2000):
            n = int(rng.integers(1, 15))
            x = rng.uniform(-10, 10, n)
            w = float(rng.choice([0.5, 1.0, 10.0]))
            params = ResilienceParams(weight=w)
            y = float(rng.choice([1e6, -1e6]))
            base = qr_med(x, params)
            moved = qr_med(np.append(x, y), params)
            assert abs(moved - base) <= 1.0 / w + 1e-9

    @given(
        values=st.lists(st.floats(-100, 100), min_size=1, max_size=12),
        shift=st.floats(-50, 50),
        weight=st.sampled_from([0.5, 1.0, 10.0]),
    )
    @settings(max_examples=200, deadline=None)
    def test_translation_equivariance(self, values, shift, weight):
        base = qr_med(values, ResilienceParams(weight=weight, default=0.0))
        shifted = qr_med(
            [v + shift for v in values], ResilienceParams(weight=weight, default=shift)
        )
        assert shifted == pytest.approx(base + shift, abs=1e-9)

    @given(
        values=st.lists(st.floats(-100, 100), min_size=1, max_size=10),
        index=st.integers(0, 9),
        bump=st.floats(0, 100),
        weight=st.sampled_from([0.5, 1.0, 10.0]),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_each_input(self, values, index, bump, weight):
        params = ResilienceParams(weight=weight)
        base = qr_med(values, params)
        raised = list(values)
        raised[index % len(values)] += bump
        assert qr_med(raised, params) >= base - 1e-12


class TestBrMean:
    def test_empty_returns_default(self):
        assert br_mean([], ResilienceParams(default=1.25)) == 1.25

    def test_example_against_direct_formula(self):
        params = ResilienceParams(weight=1.0, default=0.0, clip_radius=10.0)
        result = br_mean([3.0, 3.0, 3.0], params)
        center = qr_med([3.0, 3.0, 3.0], params)
        direct = center + np.mean(np.clip(np.array([3.0, 3.0, 3.0]) - center, -10, 10))
        assert 0.0 < result <= 3.0
        assert result == pytest.approx(direct, abs=1e-15)

    def test_reduces_to_mean_when_clip_inactive(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            n = int(rng.integers(1, 10))
            x = rng.uniform(-0.3, 0.3, n)
            params = ResilienceParams(weight=1.0, clip_radius=5.0)
            assert br_mean(x, params) == pytest.approx(float(np.mean(x)), abs=1e-12)

    def test_result_within_clip_window(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            n = int(rng.integers(1, 12))
            x = rng.uniform(-50, 50, n)
            params = ResilienceParams(
                weight=float(rng.uniform(0.3, 3.0)),
                clip_radius=float(rng.choice([0.5, 1.0])),
            )
            center = qr_med(x, params)
            result = br_mean(x, params)
            assert center - params.clip_radius - 1e-12 <= result
            assert result <= center + params.clip_radius + 1e-12

    def test_single_voter_displacement_bound(self):
        # Adding one arbitrary voter displaces BrMean by at most
        # 2/W + 2*clip_radius/(n+1): the QrMed center moves by <= 1/W, the
        # recentered clip terms follow it by at most as much, and the new
        # voter's clipped contribution plus renormalization account for the
        # rest. Randomized adversarial search; the bound is a property of
        # this construction, verified here, not a citation.
        rng = np.random.default_rng(12)
        for _ in range(3000):
            n = int(rng.integers(1, 20))
            x = rng.uniform(-10, 10, n)
            params = ResilienceParams(
                weight=float(rng.choice([0.5, 1.0, 10.0])),
                clip_radius=float(rng.choice([0.5, 1.0])),
            )
            y = float(rng.choice([1e6, -1e6, rng.uniform(-20, 20)]))
            base = br_mean(x, params)
            moved = br_mean(np.append(x, y), params)
            bound = 2.0 / params.weight + 2.0 * params.clip_radius / (n + 1)
            assert abs(moved - base) <= bound + 1e-9

    @given(
        values=st.lists(st.floats(-100, 100), min_size=1, max_size=12),
        shift=st.floats(-50, 50),
    )
    @settings(max_examples=200, deadline=None)
    def test_translation_equivariance(self, values, shift):
        base = br_mean(values, ResilienceParams(weight=1.0, default=0.0))
        shifted = br_mean(
            [v + shift for v in values], ResilienceParams(weight=1.0, default=shift)
        )
        assert shifted == pytest.approx(base + shift, abs=1e-9)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            br_mean([float("inf")], ResilienceParams())
        with pytest.raises(ValueError, match="non-finite input value"):
            br_mean(np.array([0.5, np.nan]).data, ResilienceParams())


def test_params_validation():
    with pytest.raises(ValueError):
        ResilienceParams(weight=0.0)
    with pytest.raises(ValueError):
        ResilienceParams(clip_radius=-1.0)
    with pytest.raises(ValueError):
        ResilienceParams(default=float("nan"))
