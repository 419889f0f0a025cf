import math
from dataclasses import replace

import numpy as np
import oracle
import pytest

from cbo import engine, objectives, theory
from cbo.errors import (
    EmptyBallError,
    InfiniteRateError,
    InvalidAccuracyError,
    InvalidInputError,
    NonContractiveError,
    UnsupportedInitializationError,
)


class TestFindC:
    def test_d1_golden_ratio_root(self):
        np.testing.assert_allclose(
            theory.find_c(1), (math.sqrt(5) - 1) / 2, atol=1e-12
        )

    def test_d4_quadratic_root(self):
        np.testing.assert_allclose(
            theory.find_c(4), (7 - math.sqrt(17)) / 4, atol=1e-12
        )

    def test_d2_degenerate_case(self):
        np.testing.assert_allclose(theory.find_c(2), 2.0 / 3.0, atol=1e-12)

    def test_defining_property_and_minimality(self):
        for d in list(range(1, 30)) + [100, 1000]:
            c = theory.find_c(d)
            assert 0.5 < c < 1.0
            lhs = (2 * c - 1) * c - d * (1 - c) ** 2
            assert lhs >= -1e-12
            # just below c the inequality must fail (c is the smallest root)
            c_minus = c - 1e-6
            assert (2 * c_minus - 1) * c_minus - d * (1 - c_minus) ** 2 < 0


class TestDecayRateQ:
    def test_pure_noise_branch(self):
        assert theory.decay_rate_q(0.0, 1.0, 1, 0.75, 1.0, 0.0) == 960.0

    def test_second_branch_floor_for_large_radius(self):
        q = theory.decay_rate_q(1.0, 1.0, 1, 0.75, 1e12, 0.0)
        assert q >= 8.0  # 4 lam^2 / ((2c-1) sigma^2) = 8

    def test_lam_zero_kills_second_branch(self):
        first = theory.decay_rate_q(0.0, 1e-3, 2, 0.8, 0.5, 0.1)
        sc = math.sqrt(0.8)
        expected = 2 * (1e-3) ** 2 * (0.8 * 0.25 + 0.01) * (1.6 + 2) / (0.2**4 * 0.25)
        np.testing.assert_allclose(first, expected, rtol=1e-12)
        assert sc  # silence linters

    @pytest.mark.parametrize("sigma, r", [(1e-170, 1.0), (5e-324, 1.0), (0.5, 5e-324)])
    def test_square_underflows(self, sigma, r):
        # sigma^2 or (1 - c)^2 r underflows to 0: q is inf, not a ZeroDivisionError
        assert theory.decay_rate_q(1.0, sigma, 1, 0.75, r, 1.0) == math.inf

    def test_sigma_zero_raises(self):
        with pytest.raises(InfiniteRateError):
            theory.decay_rate_q(1.0, 0.0, 1, 0.75, 1.0, 0.0)

    def test_finite_positive_with_find_c(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            d = int(rng.integers(1, 12))
            lam = rng.uniform(0, 4)
            sigma = rng.uniform(1e-3, 2)
            r = 10 ** rng.uniform(-2, 2)
            b = rng.uniform(0, 5)
            q = theory.decay_rate_q(lam, sigma, d, theory.find_c(d), r, b)
            assert math.isfinite(q) and q > 0


class TestMassLowerBound:
    def test_time_zero(self):
        assert theory.mass_lower_bound(0.37, 5.0, 0.0) == 0.37

    def test_halving(self):
        np.testing.assert_allclose(
            theory.mass_lower_bound(0.8, 1.0, math.log(2)), 0.4, rtol=1e-12
        )

    def test_zero_mass_stays_zero(self):
        for t in (0.0, 1.0, 50.0):
            assert theory.mass_lower_bound(0.0, 2.0, t) == 0.0


class TestMollifier:
    def test_center_value_is_one(self):
        assert theory.mollifier(np.zeros(3), np.zeros(3), 2.0) == 1.0

    def test_boundary_and_outside_are_zero(self):
        vstar = np.zeros(2)
        on = np.array([1.0, 0.0])
        out = np.array([1.5, 0.2])
        assert theory.mollifier(on, vstar, 1.0) == 0.0
        assert theory.mollifier(out, vstar, 1.0) == 0.0
        assert np.array_equal(theory.mollifier_grad(out, vstar, 1.0), np.zeros(2))
        assert theory.mollifier_laplacian(out, vstar, 1.0) == 0.0

    def test_half_radius_squared(self):
        v = np.array([math.sqrt(0.5)])
        np.testing.assert_allclose(
            theory.mollifier(v, np.zeros(1), 1.0), math.exp(-1.0), rtol=1e-12
        )

    def test_range_and_batch(self):
        rng = np.random.default_rng(15)
        x = rng.uniform(-2, 2, (500, 2))
        vals = theory.mollifier(x, np.zeros(2), 1.3)
        assert vals.shape == (500,)
        assert np.all((vals >= 0) & (vals <= 1))

    def test_gradient_zero_at_center(self):
        g = theory.mollifier_grad(np.zeros(4), np.zeros(4), 1.0)
        assert np.array_equal(g, np.zeros(4))

    def test_laplacian_at_center(self):
        for d in (1, 2, 5):
            for r in (0.5, 2.0):
                np.testing.assert_allclose(
                    theory.mollifier_laplacian(np.zeros(d), np.zeros(d), r),
                    -2.0 * d / r**2,
                    rtol=1e-12,
                )

    def test_gap_square_overflows(self):
        # at r = 1e100 the gap r^2 - s is 1e200, whose square overflows:
        # both derivatives tend to 0, not to an OverflowError or NaN
        v, vstar = np.array([0.5]), np.zeros(1)
        grad = theory.mollifier_grad(v, vstar, 1e100)
        lap = theory.mollifier_laplacian(v, vstar, 1e100)
        assert -1e-199 < grad[0] < 0 and -1e-199 < lap < 0

    def test_radius_square_overflows(self):
        # past r ~ 1.3e154 r^2 is inf and r^2 / (r^2 - s) would be inf / inf:
        # the limits as r -> inf, phi = 1 and both derivatives 0, with no
        # warning (pytest makes a RuntimeWarning an error)
        v, vstar = np.array([0.5]), np.zeros(1)
        assert theory.mollifier(v, vstar, 1e200) == 1.0
        assert theory.mollifier(np.array([[0.5], [-3.0]]), vstar, 1e200).tolist() == [1.0, 1.0]
        assert np.array_equal(theory.mollifier_grad(v, vstar, 1e200), np.zeros(1))
        assert theory.mollifier_laplacian(v, vstar, 1e200) == 0.0

    @pytest.mark.parametrize("v", [np.array([2e200]), np.array([[2e200, 0.0]])])
    def test_distance_square_overflows(self, v):
        # past ~1.3e154 a coordinate's square is inf: the point lies outside
        # every ball, so phi and both derivatives are 0, with no warning
        vstar = np.zeros(v.shape[-1])
        assert np.array_equal(theory.mollifier(v, vstar, 1.0), np.zeros(v.shape[:-1]))
        assert np.array_equal(theory.mollifier_grad(v, vstar, 1.0), np.zeros(v.shape))
        assert np.array_equal(theory.mollifier_laplacian(v, vstar, 1.0), np.zeros(()))

    def test_finite_radius_square_unchanged(self):
        # just below the overflow, phi_r is still exp(1 - r^2 / (r^2 - s))
        v, vstar, r = np.array([0.5]), np.zeros(1), 1e154
        assert theory.mollifier(v, vstar, r) == math.exp(1.0 - r * r / (r * r - 0.25))

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_derivatives_match_finite_differences(self, d):
        # gradient step 1e-6 r; the second difference needs a larger step
        # (3e-5 r) to stay above the 1e-16/h^2 roundoff floor
        rng = np.random.default_rng(16 + d)
        r = 1.0
        vstar = rng.standard_normal(d) * 0.2
        h_grad = 1e-6 * r
        h_lap = 3e-5 * r
        for _ in range(100):
            u = rng.standard_normal(d)
            u /= np.linalg.norm(u)
            v = vstar + u * rng.uniform(0.0, 0.9 * r)
            grad = theory.mollifier_grad(v, vstar, r)
            lap = theory.mollifier_laplacian(v, vstar, r)
            fd_grad = np.empty(d)
            fd_lap = 0.0
            f0 = theory.mollifier(v, vstar, r)
            for k in range(d):
                e = np.zeros(d)
                e[k] = h_grad
                fd_grad[k] = (
                    theory.mollifier(v + e, vstar, r) - theory.mollifier(v - e, vstar, r)
                ) / (2 * h_grad)
                e[k] = h_lap
                fd_lap += (
                    theory.mollifier(v + e, vstar, r)
                    - 2 * f0
                    + theory.mollifier(v - e, vstar, r)
                ) / h_lap**2
            scale = max(np.linalg.norm(grad), 1e-12)
            assert np.linalg.norm(grad - fd_grad) / scale <= 1e-5
            assert abs(lap - fd_lap) / max(abs(lap), 1e-9) <= 1e-5


class TestLaplaceBound:
    def test_alpha_zero(self):
        val = theory.laplace_bound(2.0, 0.5, 0.0, 1.0, 0.5, 2.0, 0.5)
        np.testing.assert_allclose(val, (1.5**0.5) / 2.0 + 4.0, rtol=1e-12)

    def test_reference_arithmetic(self):
        val = theory.laplace_bound(1.0, 1.0, 100.0, 0.25, 0.0, 1.0, 0.5)
        np.testing.assert_allclose(val, 0.5 + math.exp(-25.0), rtol=1e-12)

    def test_alpha_limit(self):
        val = theory.laplace_bound(10.0, 0.1, 1e6, 0.25, 0.75, 1.0, 0.5)
        np.testing.assert_allclose(val, 1.0, rtol=1e-12)

    def test_monotone_nonincreasing_in_alpha(self):
        alphas = np.linspace(0, 50, 51)
        vals = [theory.laplace_bound(1.0, 0.2, a, 0.5, 0.1, 1.0, 0.5) for a in alphas]
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_empty_ball(self):
        with pytest.raises(EmptyBallError):
            theory.laplace_bound(1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.5)

    def test_power_overflows(self):
        # (q + E_r)^nu past the float range: +inf, not an OverflowError
        assert theory.laplace_bound(1.0, 0.5, 1.0, 1e300, 1e300, 1.0, 1.5) == math.inf


class TestTStar:
    def test_zero_gap(self):
        assert theory.t_star(1.0, 1.0, 0.5, 1.0, 0.5, 1) == 0.0

    def test_reference_value(self):
        np.testing.assert_allclose(
            theory.t_star(1.0, math.exp(-1.75), 0.0, 1.0, 0.5, 1), 1.0, atol=1e-12
        )

    def test_halving_eps_adds_log2(self):
        rate = (1 - 0.3) * (2 * 1.2 - 2 * 0.5**2)
        t1 = theory.t_star(2.0, 0.1, 0.3, 1.2, 0.5, 2)
        t2 = theory.t_star(2.0, 0.05, 0.3, 1.2, 0.5, 2)
        np.testing.assert_allclose(t2 - t1, math.log(2) / rate, rtol=1e-12)

    def test_non_contractive(self):
        with pytest.raises(NonContractiveError):
            theory.t_star(1.0, 0.1, 0.0, 0.5, 1.0, 4)

    def test_invalid_accuracy(self):
        with pytest.raises(InvalidAccuracyError):
            theory.t_star(1.0, 2.0, 0.0, 1.0, 0.5, 1)


class TestAlpha0:
    def test_reference_value(self):
        val = theory.alpha0_estimate(0.8, 1.0, 0.1, 1.0, lambda r: 0.01)
        np.testing.assert_allclose(val, 575.646, rtol=1e-4)

    def test_always_positive(self):
        # sqrt(c)/(2 sqrt(2)) < 1 for c < 1, so the log argument is < 1
        rng = np.random.default_rng(17)
        for _ in range(200):
            c = rng.uniform(0.01, 0.999)
            mass = rng.uniform(1e-6, 1.0)
            val = theory.alpha0_estimate(c, 1.0, 0.5, 2.0, lambda r, m=mass: m)
            assert val > 0

    def test_scaling_in_eps_at_fixed_mass(self):
        a1 = theory.alpha0_estimate(0.8, 1.0, 0.1, 1.0, lambda r: 0.25)
        a2 = theory.alpha0_estimate(0.8, 1.0, 1.0, 1.0, lambda r: 0.25)
        np.testing.assert_allclose(a1, 10 * a2, rtol=1e-12)

    def test_zero_mass(self):
        with pytest.raises(UnsupportedInitializationError):
            theory.alpha0_estimate(0.8, 1.0, 0.1, 1.0, lambda r: 0.0)

    def test_eta_square_overflows(self):
        # eta^2 = inf: the ball is the whole space and alpha0 tends to 0
        assert theory.alpha0_estimate(0.8, 1e200, 0.1, 1.0, lambda r: 0.01) == 0.0

    @pytest.mark.parametrize("sigma", [1e-170, 5e-324])
    def test_c_constant_sigma_square_underflows(self, sigma):
        # sigma^2 = 0: the noise branch is infinite, so the drift branch sets c
        c = theory.alpha0_c_constant(0.5, 1.0, sigma, 1)
        np.testing.assert_allclose(c, (0.5 * 2.0 / (2 * math.sqrt(2))) ** 2, rtol=1e-12)

    def test_c_constant_uses_smaller_branch(self):
        # drift-dominated branch: first term smaller
        c = theory.alpha0_c_constant(0.5, 1.0, 0.5, 1)
        first = 0.5 * 1.75 / (2 * math.sqrt(2) * 1.25)
        np.testing.assert_allclose(c, first**2, rtol=1e-12)
        with pytest.raises(NonContractiveError):
            theory.alpha0_c_constant(0.5, 0.1, 1.0, 3)


class TestWellPrep:
    def test_condition1_reference(self):
        wp = theory.wellprep_check(0.1, 1.0, 0.0, 0.0, np.array([0.0]), 0.0, 1)
        assert wp.cond1
        np.testing.assert_allclose(wp.margin1, 0.75 - 0.4, rtol=1e-12)

    def test_condition1_fails_for_large_alpha(self):
        wp = theory.wellprep_check(1e6, 1.0, 0.0, 0.0, np.array([0.0]), 0.0, 1)
        assert not wp.cond1

    def test_alpha_near_float_max(self):
        # -2 alpha and -alpha E overflow to -inf: margin1 is -inf, not the
        # NaN of -inf * E_under, and the sample weights are exp(-inf) = 0
        wp = theory.wellprep_check(1e308, 1.0, 0.5, 0.0, np.array([0.0, 2.0, 3.0]), 0.1, 1)
        assert wp.margin1 == -math.inf and not wp.cond1
        assert math.isfinite(wp.margin2) and math.isfinite(wp.var_bound_margin)

    def test_sigma_square_overflows(self):
        # sigma^2 = inf: both conditions fail by an infinite margin
        wp = theory.wellprep_check(1.0, 1.0, 1e200, 0.0, np.array([0.0, 1.0]), 0.5, 1)
        assert wp.margin1 == wp.margin2 == -math.inf
        assert math.isfinite(wp.var_bound_margin)

    def test_condition2_zero_variance_reduces(self):
        energies = np.array([0.5, 1.0, 2.0])
        alpha, lam, sigma, d = 0.7, 1.3, 0.4, 2
        wp = theory.wellprep_check(alpha, lam, sigma, 0.0, energies, 0.0, d)
        w = float(np.mean(np.exp(-alpha * energies)))
        expected = 2 * lam * w**2 - 2 * d * sigma**2 * w
        np.testing.assert_allclose(wp.margin2, expected, rtol=1e-12)
        assert wp.cond2 == (expected >= 0)

    def test_var_concentration_diagnostic(self):
        energies = np.zeros(10)
        wp = theory.wellprep_check(1.0, 1.0, 0.0, 0.0, energies, 0.1, 1)
        np.testing.assert_allclose(wp.var_bound_margin, 3.0 / 8.0 - 0.1, rtol=1e-12)
        assert wp.var_bound_holds


class TestEvolutionRhs:
    def test_pure_contraction(self):
        np.testing.assert_allclose(
            theory.evolution_rhs(2.0, 0.0, 1.0, 0.5, 3), -(2 - 3 * 0.25) * 2.0
        )

    def test_reference_value(self):
        np.testing.assert_allclose(
            theory.evolution_rhs(0.5, 0.1, 1.0, 0.5, 1), -0.74875, rtol=1e-12
        )

    def test_h_active_extra_term(self):
        base = theory.evolution_rhs(0.0, 0.04, 1.0, 0.0, 1)
        with_h = theory.evolution_rhs(
            0.0, 0.04, 1.0, 0.0, 1, h_active=(1.0, 0.5, 1.0, 0.0)
        )
        np.testing.assert_allclose(with_h - base, 0.08, rtol=1e-12)

    @pytest.mark.parametrize("v, cons_dist, lam, sigma, h_active", [
        (1.0, 1.0, 1.0, 1e200, None),
        (1.0, 1e200, 1.0, 0.5, None),
        (1.0, 1.0, 1.0, 0.5, (1e-200, 0.5, 1.0, 0.0)),
        (1.0, 1e200, 1.0, 0.5, (1.0, 0.5, 1.0, 2.0)),
        (1.0, 1e100, 1.0, 0.5, (1.0, 2.0, 1.0, 1.0)),
    ])
    def test_square_overflows(self, v, cons_dist, lam, sigma, h_active):
        # sigma^2, D^2, 1 / eta^2, D^gamma or (l_e (1 + D^gamma) D)^(2 nu)
        # past the float range: +inf, not an OverflowError
        assert theory.evolution_rhs(v, cons_dist, lam, sigma, 1, h_active) == math.inf

    def test_strictly_negative_when_contractive(self):
        rng = np.random.default_rng(18)
        for _ in range(300):
            d = int(rng.integers(1, 8))
            lam = rng.uniform(0.1, 3)
            sigma = rng.uniform(0.0, math.sqrt(2 * lam / d) * 0.999)
            v = rng.uniform(1e-8, 10)
            assert theory.evolution_rhs(v, 0.0, lam, sigma, d) < 0


class TestBConstants:
    def test_unit_reference(self):
        assert theory.b_constants(1.0, 1.0, 1.0, 1.0) == (5.0, 4.0)

    def test_bounded_degenerate(self):
        assert theory.b_constants(1.0, 1.0, 1.0, 1.0, bounded=(3.0, 3.0)) == (0.0, 1.0)

    def test_c4_square_overflows(self):
        assert theory.b_constants(1.0, 1.0, 1.0, 1e200) == (math.inf, 2.0)

    def test_large_alpha_limit(self):
        b1, b2 = theory.b_constants(1e12, 3.0, 2.0, 1.5)
        np.testing.assert_allclose(b2, 2 * 3.0 / 2.0, rtol=1e-9)
        np.testing.assert_allclose(b1, 1.5**2 + b2, rtol=1e-9)


class TestAudits:
    def test_laplace_audit_no_violations(self):
        res = theory.laplace_audit(n_measures=250, seed=7)
        assert res.checked == 250
        assert res.violations == 0
        assert res.min_margin >= 0

    @pytest.mark.parametrize("kwargs, named", [
        (dict(n_measures=0), "n_measures"),
        (dict(max_n=10, min_inside=30), "max_n"),
        (dict(seed=-1), "seed"),
        (dict(n_measures=5, min_inside=0), "min_inside"),
    ])
    def test_laplace_audit_rejects_bad_arguments(self, kwargs, named):
        with pytest.raises(InvalidInputError, match=named):
            theory.laplace_audit(**kwargs)

    def test_single_point_measure_at_vstar(self):
        obj = objectives.quadratic(2)
        x = np.zeros((1, 2))
        cons = engine.consensus_point(x, obj.eval(x), 5.0)
        bound = theory.laplace_bound(0.0, 1.0, 5.0, 0.5, 0.0, obj.eta, obj.nu)
        assert np.linalg.norm(cons) <= bound

    def test_mass_audit_small_run(self):
        obj = objectives.rastrigin(1)
        params = engine.CboParams(
            lam=1.0, sigma=0.5, alpha=1e15, dt=0.01, steps=50,
            n_particles=2000, dim=1, seed=5,
        )
        res = theory.mass_decay_audit(
            engine.GaussianIsotropic((1.0,), 0.8), obj, params, r=1.0
        )
        assert res.ok
        assert res.phi0 > 0
        assert res.q > 0

    @pytest.mark.parametrize("stride", [1, 4])
    def test_mass_audit_matches_two_pass_loop(self, stride):
        # reference: the test oracle's states, then each state's consensus
        # distance and mollified mass in a second pass
        obj = objectives.rastrigin(1)
        dist = engine.GaussianIsotropic((1.0,), 0.8)
        params = engine.CboParams(
            lam=1.0, sigma=0.5, alpha=1e15, dt=0.01, steps=30,
            n_particles=500, dim=1, seed=6,
        )
        x0 = engine.sample_initial(dist, params.n_particles, 1, params.seed)
        run = oracle.states(x0, obj, params, engine.NoiseSource(params.seed))
        cdists = [float(np.linalg.norm(c - obj.minimizer)) for _, _, _, c in run]
        phi = [float(np.mean(theory.mollifier(x, obj.minimizer, 1.0)))
               for k, x, _, _ in run if k % stride == 0]
        res = theory.mass_decay_audit(dist, obj, params, r=1.0, stride=stride)
        assert res.b_sup == max(cdists)
        assert np.array_equal(res.phi_mass, phi)
        assert np.array_equal(res.times, np.arange(0, params.steps + 1, stride) * params.dt)


class TestOneEvaluationPerSample:
    """Each sample's energies are evaluated once and shared by everything
    computed from them, the consensus point included."""

    def test_report_evaluates_the_sample_once(self):
        calls = []
        base = objectives.rastrigin(1)
        obj = replace(base, eval=lambda v: calls.append(1) or base.eval(v))
        params = engine.CboParams(lam=1.0, sigma=0.5, alpha=1e15, dt=0.01, steps=10,
                                  n_particles=500, dim=1, seed=3)
        x0 = engine.sample_initial(engine.GaussianIsotropic((1.0,), 0.8), 500, 1, 3)
        rep = theory.build_theory_report(obj, params, x0, eps=0.01, tau=0.1)
        assert any("b_bound defaulted" in note for note in rep.notes)
        assert len(calls) == 1

    def test_laplace_audit_evaluates_once_per_measure(self, monkeypatch):
        calls = []
        quadratic = objectives.quadratic

        def counted(dim):
            obj = quadratic(dim)
            return replace(obj, eval=lambda v: calls.append(1) or obj.eval(v))

        monkeypatch.setattr(objectives, "quadratic", counted)
        res = theory.laplace_audit(n_measures=40, seed=5)
        assert res.violations == 0
        assert len(calls) == 40


class TestReport:
    def test_report_fields(self):
        obj = objectives.rastrigin(1)
        params = engine.CboParams(
            lam=1.0, sigma=0.5, alpha=1e15, dt=0.01, steps=10,
            n_particles=2000, dim=1, seed=3,
        )
        x0 = engine.sample_initial(
            engine.GaussianIsotropic((1.0,), 0.8), 2000, 1, 3
        )
        rep = theory.build_theory_report(obj, params, x0, eps=0.01, tau=0.1)
        assert 0.5 < rep.c < 1.0
        assert rep.q_rate is not None and rep.q_rate > 0
        assert rep.t_star > 0
        assert rep.alpha0 is not None and rep.alpha0 > 0
        assert rep.b1 > rep.b2 > 0
        assert math.isfinite(rep.laplace_rhs)
        assert not rep.wellprep.cond1  # alpha = 1e15 wrecks condition 1
        assert rep.wellprep.margin1 < 0

    def test_report_sigma_zero(self):
        obj = objectives.quadratic(1)
        params = engine.CboParams(
            lam=1.0, sigma=0.0, alpha=10.0, dt=0.01, steps=10,
            n_particles=500, dim=1, seed=3,
        )
        x0 = engine.sample_initial(engine.GaussianIsotropic((1.0,), 1.0), 500, 1, 3)
        rep = theory.build_theory_report(obj, params, x0, eps=0.01, tau=0.1)
        assert rep.q_rate is None
        assert any("sigma" in note for note in rep.notes)

    def test_report_notes_tau_zero_and_empty_ball(self):
        # tau = 0 leaves alpha0 undefined, and a radius below every sample
        # distance leaves no mass for the Laplace bound
        obj = objectives.quadratic(1)
        params = engine.CboParams(
            lam=1.0, sigma=0.5, alpha=10.0, dt=0.01, steps=10,
            n_particles=500, dim=1, seed=3,
        )
        x0 = engine.sample_initial(engine.GaussianIsotropic((1.0,), 1.0), 500, 1, 3)
        assert np.abs(x0).min() > 1e-12
        rep = theory.build_theory_report(obj, params, x0, eps=0.01, tau=0.0, r=1e-12)
        assert rep.alpha0 is None
        assert "alpha0 undefined for tau = 0" in rep.notes
        assert rep.laplace_rhs is None
        assert "laplace bound skipped: no sample mass inside the ball" in rep.notes

    def test_report_notes_alpha0_without_initial_mass(self):
        # in 70 dimensions the extrapolated mass of the alpha0 ball,
        # (k/n) (rad / r_k)^70, underflows to zero
        d = 70
        obj = objectives.quadratic(d)
        params = engine.CboParams(
            lam=1.0, sigma=0.1, alpha=10.0, dt=0.01, steps=10,
            n_particles=200, dim=d, seed=3,
        )
        x0 = engine.sample_initial(engine.GaussianIsotropic((1.0,) * d, 1.0), 200, d, 3)
        rep = theory.build_theory_report(obj, params, x0, eps=0.01, tau=0.1)
        assert rep.alpha0 is None
        assert any(note.startswith("alpha0 undefined: initial measure has zero mass")
                   for note in rep.notes)


def test_find_c_rejects_bad_dim():
    with pytest.raises(InvalidInputError):
        theory.find_c(0)
