import math

import numpy as np
import oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbo import metrics
from cbo.errors import InvalidInputError


def ens(*rows):
    return np.array(rows, dtype=float).reshape(len(rows), -1)


def record(x, vstar=None, radii=()):
    """``snapshot`` of the positions ``x``, with the consensus point at v*."""
    return metrics.snapshot(0.0, x, vstar, vstar, radii)


# every kind of float that a square can make or come from: signed zeros,
# subnormals and squares that underflow, squares that overflow, inf and NaN
SPECIAL = st.sampled_from([0.0, -0.0, 5e-324, -1e-170, 1e-160, 1e155, -1e200,
                           math.inf, -math.inf, math.nan, -math.nan])


class TestRowSums:
    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def test_bitwise_numpy_row_sum_of_squares(self, data):
        # the terms that every caller sums: each >= +0.0, NaN or inf
        draw = data.draw
        d = draw(st.integers(1, 3))
        shape = draw(st.sampled_from([(), (1,), (5,), (2, 3)])) + (d,)
        size = math.prod(shape)
        v = np.array(draw(st.lists(SPECIAL | st.floats(), min_size=size, max_size=size)))
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            t = v.reshape(shape) * v.reshape(shape)
        got, want = metrics._row_sums(t), t.sum(axis=-1)
        assert type(got) is type(want)  # a numpy scalar for one point, else an array
        assert np.asarray(got).shape == want.shape
        assert np.array_equal(np.asarray(got).view(np.int64), np.asarray(want).view(np.int64))


class TestVFunctional:
    def test_symmetric_pair(self):
        assert record(ens(1.0, -1.0), np.zeros(1)).v_func == 0.5

    def test_at_minimizer(self):
        assert record(ens(2.0, 2.0), np.array([2.0])).v_func == 0.0

    def test_off_center(self):
        assert record(ens(3.0, 1.0), np.array([1.0])).v_func == 1.0

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((40, 3))
        vstar = rng.standard_normal(3)
        perm = rng.permutation(40)
        assert record(x, vstar).v_func == record(x[perm], vstar).v_func


class TestVariance:
    def test_symmetric_pair(self):
        assert record(ens(1.0, -1.0)).variance == 0.5

    def test_point_mass(self):
        assert record(ens(2.0, 2.0)).variance == 0.0

    def test_three_points(self):
        np.testing.assert_allclose(record(ens(0.0, 1.0, 2.0)).variance, 1.0 / 3.0)

    def test_identity_with_v_functional(self):
        # Var = V - ||mean - v*||^2 / 2 and hence Var <= V
        rng = np.random.default_rng(1)
        for _ in range(1000):
            n = int(rng.integers(2, 60))
            d = int(rng.integers(1, 5))
            x = rng.standard_normal((n, d)) * rng.uniform(0.1, 5)
            vstar = rng.standard_normal(d)
            rec = record(x, vstar)
            gap = x.mean(axis=0) - vstar
            np.testing.assert_allclose(rec.variance, rec.v_func - 0.5 * float(gap @ gap),
                                       atol=1e-10)
            assert rec.variance <= rec.v_func + 1e-12


class TestBallMass:
    def test_count(self):
        x = ens(0.0, 0.05, 2.0)
        np.testing.assert_allclose(record(x, np.zeros(1), (0.1,)).ball_mass[0.1], 2.0 / 3.0)

    def test_infinite_radius(self):
        x = ens(0.0, 100.0)
        assert record(x, np.zeros(1), (math.inf,)).ball_mass[math.inf] == 1.0

    def test_all_outside(self):
        assert record(ens(5.0, -7.0), np.zeros(1), (1.0,)).ball_mass[1.0] == 0.0

    def test_monotone_in_radius(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((200, 2))
        radii = np.sort(rng.uniform(0.01, 4.0, 20))
        masses = list(record(x, np.zeros(2), radii).ball_mass.values())
        assert all(a <= b for a, b in zip(masses, masses[1:]))

    def test_requires_positive_radius(self):
        with pytest.raises(InvalidInputError):
            metrics.RecordingPlan(ball_radii=(0.0,))


class TestSnapshot:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_blocks_match_whole_array_oracle(self, monkeypatch, dim):
        # three row blocks, the last one partial, against the oracle's
        # whole-array functionals, bit for bit
        monkeypatch.setattr(metrics, "BLOCK_ROWS", 64)
        rng = np.random.default_rng(dim)
        x = rng.standard_normal((150, dim)) * 2.0
        vstar, c = rng.standard_normal(dim), rng.standard_normal(dim)
        radii = (0.5, 1.0, 2.5)
        want = oracle.record(0.25, x, vstar, c, radii)
        assert metrics.snapshot(0.25, x, vstar, c, radii) == want

    def test_without_minimizer(self):
        rec = metrics.snapshot(0.0, ens(1.0, -1.0), None, np.zeros(1), (0.5,))
        assert math.isnan(rec.v_func) and math.isnan(rec.consensus_dist)
        assert rec.ball_mass == {} and rec.variance == 0.5 and rec.moment4 == 1.0


class TestMoment4:
    def test_all_zero(self):
        assert metrics.moment4_stat(ens(0.0, 0.0)) == 0.0

    def test_unit_pair(self):
        assert metrics.moment4_stat(ens(1.0, -1.0)) == 1.0

    def test_coupled_max(self):
        assert metrics.moment4_stat(ens(1.0), ens(2.0)) == 16.0

    def test_size_mismatch(self):
        with pytest.raises(InvalidInputError):
            metrics.moment4_stat(ens(1.0, 2.0), ens(1.0))


class TestFitDecayRate:
    def test_exact_log_linear(self):
        t = np.arange(0.0, 1.0 + 1e-12, 0.01)
        y = np.exp(-1.75 * t)
        rate = metrics.fit_decay_rate(t, y, (0.0, 1.0))
        np.testing.assert_allclose(rate, 1.75, rtol=1e-9)

    def test_constant_series(self):
        t = np.linspace(0, 1, 11)
        rate = metrics.fit_decay_rate(t, np.full(11, 0.7), (0.0, 1.0))
        assert abs(rate) < 1e-12

    def test_intercept_absorbed(self):
        t = np.linspace(0, 2, 50)
        y = 2.0 * np.exp(-3.0 * t)
        rate = metrics.fit_decay_rate(t, y, (0.0, 2.0))
        np.testing.assert_allclose(rate, 3.0, rtol=1e-9)

    def test_rejects_nonpositive(self):
        t, y = [0.0, 0.1, 0.2, 0.3], [1.0, 0.5, 0.0, 0.1]
        with pytest.raises(InvalidInputError):
            metrics.fit_decay_rate(t, y, (0.0, 0.3))

    def test_needs_three_points(self):
        with pytest.raises(InvalidInputError):
            metrics.fit_decay_rate([0.0, 1.0], [1.0, 0.5], (0.0, 1.0))

    @pytest.mark.parametrize("t, y", [([0.0, 0.1, 0.2], [1.0, 0.5]),
                                      ([[0.0, 0.1, 0.2]], [[1.0, 0.5, 0.2]])])
    def test_needs_1d_arrays_of_one_length(self, t, y):
        with pytest.raises(InvalidInputError, match="1-D"):
            metrics.fit_decay_rate(t, y, (0.0, 1.0))


class TestDefaultFitWindow:
    def test_last_tenth_dropped(self):
        t = np.linspace(0, 1, 101)
        y = np.exp(-t)
        lo, hi = metrics.default_fit_window(t, y)
        assert lo == 0.0
        np.testing.assert_allclose(hi, 0.9)

    def test_plateau_cut_is_stricter(self):
        t = np.linspace(0, 1, 101)
        y = np.exp(-20 * t)
        y[60:] = 1e-9  # below 1e-6 * y0 from index 60 onward
        lo, hi = metrics.default_fit_window(t, y)
        np.testing.assert_allclose(hi, t[59])


def test_record_invariants():
    rec = metrics.MetricsRecord(
        t=0.0, v_func=1.0, variance=0.5, w2_sq=2.0, consensus_dist=0.1
    )
    assert rec.w2_sq == 2.0 * rec.v_func
    with pytest.raises(InvalidInputError):
        metrics.MetricsSeries(records=[rec, rec])
