import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cbo import objectives
from cbo.errors import ConfigError, InvalidDimensionError


class TestRastrigin:
    def test_minimum_value(self):
        obj = objectives.rastrigin(1)
        assert obj.eval(np.zeros(1)) == 0.0
        assert np.array_equal(obj.minimizer, np.zeros(1))
        assert obj.e_under == 0.0

    def test_point_values(self):
        obj = objectives.rastrigin(1)
        # 1 + 2.5 (1 - cos 2pi) = 1,  0.25 + 2.5 (1 - cos pi) = 5.25
        np.testing.assert_allclose(obj.eval(np.array([1.0])), 1.0, atol=1e-12)
        np.testing.assert_allclose(obj.eval(np.array([0.5])), 5.25, atol=1e-12)

    def test_invalid_dimension(self):
        with pytest.raises(InvalidDimensionError):
            objectives.rastrigin(0)

    def test_separability(self):
        rng = np.random.default_rng(3)
        one = objectives.rastrigin(1)
        for d in range(1, 9):
            obj = objectives.rastrigin(d)
            for _ in range(20):
                v = rng.uniform(-10, 10, d)
                parts = sum(float(one.eval(v[k : k + 1])) for k in range(d))
                np.testing.assert_allclose(float(obj.eval(v)), parts, rtol=1e-12)

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def test_floor_bounds_eval_exactly(self, data):
        # the floor contract, in float64 as computed: wherever the floor is
        # finite, so is eval, and floor <= eval; rows of +-0, subnormals and
        # coordinates up to 1e308, whose squares overflow (and where eval
        # reads cos(inf) = nan from 2 pi v)
        dim = data.draw(st.integers(1, 10))
        coords = st.one_of(
            st.floats(-1e308, 1e308),
            st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e154, 1.4e154, -1e308]),
        )
        shape = data.draw(st.sampled_from([(dim,), (1, dim), (7, dim), (33, dim)]))
        v = data.draw(arrays(np.float64, shape, elements=coords))
        obj = objectives.rastrigin(dim)
        with np.errstate(over="ignore", invalid="ignore"):
            e, f = np.asarray(obj.eval(v)), np.asarray(obj.floor(v))
        assert e.shape == f.shape == shape[:-1]
        finite = np.isfinite(f)
        assert np.all(np.isfinite(e[finite]))
        assert np.all(f[finite] <= e[finite])

    def test_quadratic_minorant(self):
        # implies the coercivity property with eta = 1, nu = 1/2
        rng = np.random.default_rng(4)
        obj = objectives.rastrigin(1)
        v = rng.uniform(-10, 10, (10_000, 1))
        assert np.all(obj.eval(v) >= (v[:, 0] ** 2) - 1e-12)

    def test_evenness(self):
        rng = np.random.default_rng(5)
        obj = objectives.rastrigin(1)
        v = rng.uniform(-10, 10, (100, 1))
        assert np.array_equal(obj.eval(v), obj.eval(-v))

    def test_batch_matches_single(self):
        rng = np.random.default_rng(6)
        obj = objectives.rastrigin(3)
        v = rng.standard_normal((50, 3))
        batch = obj.eval(v)
        singles = np.array([obj.eval(v[i]) for i in range(50)])
        assert np.array_equal(batch, singles)

    def test_local_lipschitz_metadata(self):
        # E(v) <= l_e (1 + ||v - v*||^gamma) ||v - v*|| on sampled points
        rng = np.random.default_rng(7)
        for d in (1, 2):
            obj = objectives.rastrigin(d)
            v = rng.uniform(-10, 10, (2000, d))
            dist = np.linalg.norm(v, axis=1)
            bound = obj.l_e * (1.0 + dist**obj.gamma) * dist
            assert np.all(obj.eval(v) <= bound + 1e-9)

    def test_growth_metadata(self):
        # C3 ||v||^2 <= E(v) for ||v|| >= C4, and E(v) <= C2 (1 + ||v||^2)
        rng = np.random.default_rng(8)
        for d in (1, 3):
            obj = objectives.rastrigin(d)
            v = rng.uniform(-20, 20, (2000, d))
            e = obj.eval(v)
            sq = (v * v).sum(axis=1)
            far = np.sqrt(sq) >= obj.c4
            assert np.all(e[far] >= obj.c3 * sq[far] - 1e-9)
            assert np.all(e <= obj.c2 * (1.0 + sq) + 1e-9)


class TestQuadratic:
    def test_center_is_minimum(self):
        obj = objectives.quadratic(2, center=(1.0, 1.0))
        assert obj.eval(np.array([1.0, 1.0])) == 0.0
        assert float(obj.eval(np.zeros(2))) == 2.0

    def test_scalar_square(self):
        obj = objectives.quadratic(1, center=(0.0,))
        assert float(obj.eval(np.array([2.0]))) == 4.0

    def test_default_center(self):
        obj = objectives.quadratic(3)
        assert np.array_equal(obj.minimizer, np.zeros(3))

    def test_length_mismatch(self):
        with pytest.raises(InvalidDimensionError):
            objectives.quadratic(2, center=(1.0,))

    def test_coercivity_is_exact(self):
        # ||v - v*|| = (E(v) - e_under)^nu / eta with eta = 1, nu = 1/2
        rng = np.random.default_rng(9)
        obj = objectives.quadratic(2, center=(0.5, -0.5))
        v = rng.standard_normal((500, 2))
        dist = np.linalg.norm(v - obj.minimizer, axis=1)
        np.testing.assert_allclose(
            dist, (obj.eval(v) - obj.e_under) ** obj.nu / obj.eta, rtol=1e-12
        )


def test_by_name():
    assert objectives.by_name("rastrigin", 2).name == "rastrigin"
    assert objectives.by_name("quadratic", 1).dim == 1
    with pytest.raises(ConfigError):
        objectives.by_name("ackley", 2)
