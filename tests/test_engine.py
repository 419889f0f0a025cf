import dataclasses
import math

import numpy as np
import pytest

from cbo import engine, metrics, objectives
from cbo.errors import (
    ConfigError,
    DivergenceError,
    NumericDomainError,
)


def quadratic1():
    return objectives.quadratic(1)


class TestHEval:
    def test_const_one_everywhere(self):
        assert engine.h_eval(engine.CONST_ONE, -5.0) == 1.0
        assert engine.h_eval(engine.CONST_ONE, 3.0) == 1.0

    def test_ramp_at_zero(self):
        assert engine.h_eval(engine.RampHeaviside(1.0), 0.0) == 1.0

    def test_ramp_negative(self):
        assert engine.h_eval(engine.RampHeaviside(0.5), -0.25) == 0.5
        assert engine.h_eval(engine.RampHeaviside(0.5), -10.0) == 0.0

    def test_ramp_is_lipschitz_with_slope_1_over_delta(self):
        variant = engine.RampHeaviside(0.25)
        x = np.linspace(-2, 2, 4001)
        h = engine.h_eval(variant, x)
        assert np.all((h >= 0) & (h <= 1))
        slopes = np.abs(np.diff(h) / np.diff(x))
        assert slopes.max() <= 1.0 / 0.25 + 1e-9

    def test_ramp_requires_positive_delta(self):
        with pytest.raises(ConfigError):
            engine.RampHeaviside(0.0)


class TestSampleInitial:
    def test_degenerate_box_rejected(self):
        dist = engine.UniformBox((0.0, 0.0), (1.0, 0.0))
        with pytest.raises(ConfigError):
            engine.sample_initial(dist, 10, 2, 0)

    def test_gaussian_clt_oracle(self):
        n = 100_000
        ens = engine.sample_initial(engine.GaussianIsotropic((0.0,), 1.0), n, 1, 123)
        assert abs(ens.positions.mean()) <= 4.0 / math.sqrt(n)

    def test_same_seed_bit_identical(self):
        dist = engine.GaussianIsotropic((1.0, 2.0), 0.5)
        a = engine.sample_initial(dist, 500, 2, 99)
        b = engine.sample_initial(dist, 500, 2, 99)
        assert np.array_equal(a.positions, b.positions)
        assert a.time == 0.0

    def test_uniform_respects_box(self):
        dist = engine.UniformBox((-1.0, 0.0), (1.0, 3.0))
        ens = engine.sample_initial(dist, 1000, 2, 5)
        assert np.all(ens.positions >= [-1.0, 0.0])
        assert np.all(ens.positions <= [1.0, 3.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigError):
            engine.sample_initial(engine.GaussianIsotropic((0.0,), 1.0), 10, 2, 0)


class TestNoiseSource:
    def test_repeatable_and_step_dependent(self):
        src = engine.NoiseSource(7)
        a = src.increments(0, 8, 2, 0.01)
        assert np.array_equal(a, src.increments(0, 8, 2, 0.01))
        assert not np.array_equal(a, src.increments(1, 8, 2, 0.01))

    def test_streams_are_disjoint(self):
        a = engine.NoiseSource(7, stream=0).increments(0, 8, 2, 0.01)
        b = engine.NoiseSource(7, stream=1).increments(0, 8, 2, 0.01)
        assert not np.array_equal(a, b)

    def test_any_call_order_matches_fresh_generator(self):
        # one generator per source, its counter reset per call: any order of
        # steps and shapes draws what a generator built for that step draws
        src = engine.NoiseSource(7, stream=3)
        for k, n, d in [(5, 8, 2), (0, 50, 1), (5, 3, 2), (3, 800, 1), (5, 8, 2)]:
            fresh = engine._philox(7, engine._DYNAMICS_TAG, 3, k)
            want = fresh.standard_normal((n, d)) * math.sqrt(0.01)
            assert np.array_equal(src.increments(k, n, d, 0.01), want)
            out = np.full((n, d), np.nan)
            assert src.increments(k, n, d, 0.01, out=out) is out
            assert np.array_equal(out, want)

    def test_batch_rows_and_shared_buffer(self):
        batch = engine.NoiseBatch([4, 9, 2])
        a = batch.increments(1, 6, 2, 0.01)
        assert a.shape == (3, 6, 2)
        for row, seed in zip(a, [4, 9, 2]):
            assert np.array_equal(row, engine.NoiseSource(seed).increments(1, 6, 2, 0.01))
        assert batch.increments(1, 6, 2, 0.01) is a  # same step: no new draw
        b = batch.increments(2, 6, 2, 0.01)
        assert b is not a and not np.array_equal(a, b)
        assert np.array_equal(batch.increments(1, 6, 2, 0.01), a)


class TestConsensusPoint:
    def test_single_particle(self):
        ens = engine.Ensemble(np.array([[3.0]]))
        c = engine.consensus_point(ens, quadratic1(), 1.0)
        assert np.array_equal(c, np.array([3.0]))

    def test_equal_energies_any_alpha(self):
        obj = quadratic1()
        ens = engine.Ensemble(np.array([[1.0], [-1.0]]))
        for alpha in (1e-6, 1.0, 1e12):
            np.testing.assert_allclose(
                engine.consensus_point(ens, obj, alpha), [0.0], atol=1e-15
            )

    def test_two_point_value(self):
        ens = engine.Ensemble(np.array([[0.0], [1.0]]))
        c = engine.consensus_point(ens, quadratic1(), 1.0)
        expected = math.exp(-1.0) / (1.0 + math.exp(-1.0))  # 1/(1+e)
        np.testing.assert_allclose(c, [expected], rtol=1e-12)
        np.testing.assert_allclose(c, [0.26894142], atol=1e-8)

    def test_argmin_limit_under_weight_underflow(self):
        ens = engine.Ensemble(np.array([[0.2], [1.0]]))
        c = engine.consensus_point(ens, quadratic1(), 1e15)
        assert c[0] == 0.2  # shifted non-minimal weight underflows to exactly 0

    def test_nonfinite_energy_reports_particle(self):
        ens = engine.Ensemble(np.array([[1.0], [math.inf]]))
        with pytest.raises(NumericDomainError) as err:
            engine.consensus_point(ens, quadratic1(), 1.0)
        assert err.value.particle == 1

    def test_matches_extended_precision_reference(self):
        # naive unshifted formula evaluated with 50-digit mpmath arithmetic
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        rng = np.random.default_rng(42)
        obj = objectives.rastrigin(2)
        for _ in range(50):
            n = int(rng.integers(1, 21))
            alpha = float(rng.uniform(0.01, 50.0))
            x = rng.uniform(-3, 3, (n, 2))
            ens = engine.Ensemble(x)
            ours = engine.consensus_point(ens, obj, alpha)
            energies = [mpmath.mpf(float(obj.eval(x[i]))) for i in range(n)]
            weights = [mpmath.exp(-alpha * e) for e in energies]
            total = mpmath.fsum(weights)
            ref = [
                float(mpmath.fsum(w * mpmath.mpf(x[i, k]) for i, w in enumerate(weights)) / total)
                for k in range(2)
            ]
            np.testing.assert_allclose(ours, ref, rtol=1e-12, atol=1e-14)

    def test_convex_hull_containment(self):
        rng = np.random.default_rng(11)
        obj2 = objectives.rastrigin(2)
        for _ in range(300):
            n = int(rng.integers(1, 40))
            alpha = 10.0 ** rng.uniform(-2, 15)
            x = rng.uniform(-5, 5, (n, 2))
            c = engine.consensus_point(engine.Ensemble(x), obj2, alpha)
            lo, hi = x.min(axis=0), x.max(axis=0)
            assert np.all(c >= lo - 1e-12) and np.all(c <= hi + 1e-12)

    def test_shift_equivariance(self):
        rng = np.random.default_rng(12)
        shift = np.array([2.5, -1.0])
        base = objectives.rastrigin(2)
        shifted = objectives.ObjectiveSpec(
            name="rastrigin-shifted", dim=2,
            eval=lambda v: base.eval(np.asarray(v) - shift),
            minimizer=shift, e_under=0.0, eta=1.0, nu=0.5, r0=math.inf,
            e_inf=math.inf, l_e=base.l_e, gamma=base.gamma,
            c1=base.c1, c2=base.c2, c3=base.c3, c4=base.c4,
        )
        for _ in range(50):
            x = rng.uniform(-3, 3, (15, 2))
            c0 = engine.consensus_point(engine.Ensemble(x), base, 5.0)
            c1 = engine.consensus_point(engine.Ensemble(x + shift), shifted, 5.0)
            np.testing.assert_allclose(c1, c0 + shift, atol=1e-10)

    def test_objective_offset_invariance(self):
        rng = np.random.default_rng(13)
        base = objectives.rastrigin(1)
        for offset in (5.0, -3.25, 117.0):
            lifted = objectives.ObjectiveSpec(
                name="rastrigin-offset", dim=1,
                eval=lambda v, k=offset: base.eval(v) + k,
                minimizer=base.minimizer, e_under=offset, eta=1.0, nu=0.5,
                r0=math.inf, e_inf=math.inf, l_e=base.l_e, gamma=base.gamma,
                c1=base.c1, c2=base.c2, c3=base.c3, c4=base.c4,
            )
            for _ in range(100):
                x = rng.uniform(-4, 4, (25, 1))
                c0 = engine.consensus_point(engine.Ensemble(x), base, 8.0)
                c1 = engine.consensus_point(engine.Ensemble(x), lifted, 8.0)
                np.testing.assert_allclose(c1, c0, atol=1e-12)


class TestCboStep:
    def test_single_particle_unchanged(self):
        params = engine.CboParams(
            lam=1.0, sigma=0.5, alpha=1.0, dt=0.1, steps=1, n_particles=1, dim=1, seed=3
        )
        ens = engine.Ensemble(np.array([[2.5]]))
        out = engine.cbo_step(ens, quadratic1(), params, engine.NoiseSource(3))
        assert np.array_equal(out.positions, ens.positions)

    def test_pinned_consensus_drift(self):
        params = engine.CboParams(
            lam=1.0, sigma=0.0, alpha=1.0, dt=0.01, steps=1, n_particles=1, dim=1, seed=0
        )
        ens = engine.Ensemble(np.array([[1.0]]))
        out = engine.cbo_step(
            ens, quadratic1(), params,
            increments=np.zeros((1, 1)), consensus=np.array([0.0]),
        )
        np.testing.assert_allclose(out.positions, [[0.99]], rtol=1e-15)

    def test_argmin_consensus_two_particles(self):
        params = engine.CboParams(
            lam=1.0, sigma=0.0, alpha=1e15, dt=0.5, steps=1, n_particles=2, dim=1, seed=0
        )
        ens = engine.Ensemble(np.array([[0.0], [2.0]]))
        out = engine.cbo_step(ens, quadratic1(), params, engine.NoiseSource(0))
        np.testing.assert_allclose(out.positions, [[0.0], [1.0]], atol=1e-15)

    def test_fixed_point_sigma0_n1(self):
        params = engine.CboParams(
            lam=2.0, sigma=0.0, alpha=3.0, dt=0.05, steps=1, n_particles=1, dim=2, seed=1
        )
        ens = engine.Ensemble(np.array([[0.3, -0.7]]))
        out = engine.cbo_step(ens, objectives.quadratic(2), params, engine.NoiseSource(1))
        assert np.array_equal(out.positions, ens.positions)

    def test_time_advances_by_dt(self):
        params = engine.CboParams(
            lam=1.0, sigma=0.1, alpha=1.0, dt=0.25, steps=1, n_particles=3, dim=1, seed=4
        )
        ens = engine.Ensemble(np.zeros((3, 1)))
        out = engine.cbo_step(ens, quadratic1(), params, engine.NoiseSource(4))
        assert out.time == 0.25

    def test_divergence_carries_step_index(self):
        # energies stay finite (1e300) but lam * diff overflows the update
        params = engine.CboParams(
            lam=1e308, sigma=0.0, alpha=1e-8, dt=1.0, steps=3,
            n_particles=2, dim=1, seed=0,
        )
        ens = engine.Ensemble(np.array([[0.0], [1e150]]))
        noise = engine.NoiseSource(0)
        with pytest.raises(DivergenceError) as err:
            engine.cbo_step(ens, quadratic1(), params, noise)
        assert err.value.step == 0
        assert err.value.particle == 1
        # the step index is the caller's, not derived from the ensemble time
        with pytest.raises(DivergenceError) as err:
            engine.cbo_step(ens, quadratic1(), params, noise, step=5)
        assert (err.value.step, err.value.particle) == (5, 1)
        assert "particle 1" in str(err.value) and "step 5" in str(err.value)

    def test_ramp_h_deactivates_drift_for_better_particles(self):
        # particle strictly better than the pinned consensus keeps its position
        params = engine.CboParams(
            lam=1.0, sigma=0.0, alpha=1.0, dt=0.1, steps=1, n_particles=2, dim=1,
            h_variant=engine.RampHeaviside(1e-9), seed=0,
        )
        ens = engine.Ensemble(np.array([[0.1], [3.0]]))
        out = engine.cbo_step(
            ens, quadratic1(), params,
            increments=np.zeros((2, 1)), consensus=np.array([2.0]),
        )
        assert out.positions[0, 0] == 0.1          # E(0.1) < E(2): drift off
        assert out.positions[1, 0] == pytest.approx(2.9)  # E(3) > E(2): drift on


def counting(obj, calls, nan_from=None, particle=0):
    """``obj`` whose evaluations append to ``calls``; from evaluation number
    ``nan_from`` (0-based) on, ``particle`` gets a NaN energy."""

    def eval_(v):
        e = np.array(obj.eval(v), dtype=float)
        if nan_from is not None and len(calls) >= nan_from:
            e[particle] = math.nan
        calls.append(1)
        return e

    return dataclasses.replace(obj, eval=eval_)


def two_pass_records(dist, obj, params, plan):
    """Reference: a plain loop of cbo_step, recording each state with the
    public metrics and a separate consensus_point evaluation."""
    ens = engine.sample_initial(dist, params.n_particles, params.dim, params.seed)
    noise = engine.NoiseSource(params.seed)
    vstar = obj.minimizer
    records = []
    for k in range(params.steps + 1):
        if k:
            ens = engine.cbo_step(ens, obj, params, noise, step=k - 1)
        if k % plan.stride == 0:
            c = engine.consensus_point(ens, obj, params.alpha)
            v = metrics.v_functional(ens, vstar)
            records.append(metrics.MetricsRecord(
                t=ens.time, v_func=v, variance=metrics.variance(ens), w2_sq=2.0 * v,
                consensus_dist=float(np.linalg.norm(c - vstar)),
                ball_mass={float(r): metrics.ball_mass(ens, vstar, r) for r in plan.ball_radii},
                moment4=metrics.moment4_stat(ens),
            ))
    return records, ens


class TestStates:
    P = dict(lam=1.0, sigma=0.5, alpha=1e15, dt=0.01, n_particles=300, dim=1, seed=4)
    DIST = engine.GaussianIsotropic((1.0,), 0.8)

    @pytest.mark.parametrize("stride", [1, 4])
    def test_simulate_evaluates_once_per_state(self, stride):
        p = engine.CboParams(steps=10, **self.P)
        calls = []
        res = engine.simulate(self.DIST, counting(objectives.rastrigin(1), calls), p,
                              metrics.RecordingPlan(stride=stride))
        assert len(calls) == p.steps + 1
        assert len(res.series.records) == p.steps // stride + 1

    @pytest.mark.parametrize("stride", [1, 3])
    def test_records_match_two_pass_loop(self, stride):
        obj = objectives.rastrigin(1)
        p = engine.CboParams(steps=20, **self.P)
        plan = metrics.RecordingPlan(stride=stride, ball_radii=(0.25, 0.5, 1.0))
        want, final = two_pass_records(self.DIST, obj, p, plan)
        res = engine.simulate(self.DIST, obj, p, plan)
        assert res.series.records == want
        assert np.array_equal(res.final.positions, final.positions)
        assert res.final.time == final.time

    def test_yields_every_state_once(self):
        p = engine.CboParams(steps=6, **self.P)
        obj = objectives.rastrigin(1)
        ens = engine.sample_initial(self.DIST, p.n_particles, 1, p.seed)
        ks = []
        for k, x, e, c in engine.states(ens, obj, p, engine.NoiseSource(p.seed)):
            ks.append(k)
            assert np.array_equal(e, obj.eval(x))
            assert np.array_equal(c, engine.consensus_point(engine.Ensemble(x), obj, p.alpha))
        assert ks == list(range(p.steps + 1))

    def test_pinned_const_one_evaluates_nothing(self):
        p = engine.CboParams(steps=5, **self.P)
        calls = []
        obj = counting(objectives.rastrigin(1), calls)
        ens = engine.sample_initial(self.DIST, p.n_particles, 1, p.seed)
        pinned = np.zeros((p.steps + 1, 1))
        out = list(engine.states(ens, obj, p, engine.NoiseSource(p.seed), consensus=pinned))
        assert len(out) == p.steps + 1
        assert all(e is None for _, _, e, _ in out)
        assert calls == []

    def test_nonfinite_energy_names_step_and_particle(self):
        # state 3 is the final one and, at stride 2, not recorded: its
        # energies are still evaluated, so the guard fires there
        p = engine.CboParams(steps=3, **self.P)
        calls = []
        obj = counting(objectives.rastrigin(1), calls, nan_from=3, particle=7)
        with pytest.raises(NumericDomainError) as err:
            engine.simulate(self.DIST, obj, p, metrics.RecordingPlan(stride=2))
        assert (err.value.step, err.value.particle) == (3, 7)
        assert "particle 7" in str(err.value) and "step 3" in str(err.value)
        assert [r.t for r in err.value.partial_series.records] == [0.0, 0.02]

    def test_failure_at_state_zero_has_no_partial_series(self):
        p = engine.CboParams(steps=3, **self.P)
        obj = counting(objectives.rastrigin(1), [], nan_from=0)
        with pytest.raises(NumericDomainError) as err:
            engine.simulate(self.DIST, obj, p)
        assert err.value.step == 0
        assert err.value.partial_series is None


class TestBatchedStates:
    SEEDS = (11, 12, 13)
    N = 300  # crosses numpy's 128-element pairwise-summation blocks

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("h", [engine.CONST_ONE, engine.RampHeaviside(0.5)])
    @pytest.mark.parametrize("pinned", [False, True])
    def test_batch_equals_separate_runs(self, dim, h, pinned):
        p = engine.CboParams(lam=1.0, sigma=0.5, alpha=30.0, dt=0.05, steps=6,
                             n_particles=self.N, dim=dim, h_variant=h, seed=0)
        obj = objectives.rastrigin(dim)
        dist = engine.GaussianIsotropic((1.0,) * dim, 0.8)
        consensus = None
        if pinned:
            consensus = np.linspace(1.0, 0.2, p.steps + 1)[:, None] * np.ones(dim)
        inits = [engine.sample_initial(dist, self.N, dim, s) for s in self.SEEDS]
        separate = [
            list(engine.states(ens, obj, p, engine.NoiseSource(s), consensus=consensus))
            for ens, s in zip(inits, self.SEEDS)
        ]
        batch = engine.Ensemble(np.stack([ens.positions for ens in inits]))
        run = engine.states(batch, obj, p, engine.NoiseBatch(self.SEEDS), consensus=consensus)
        for k, x, e, c in run:
            assert x.shape == (3, self.N, dim)
            for r, (kr, xr, er, cr) in enumerate(states_r[k] for states_r in separate):
                assert kr == k
                assert np.array_equal(x[r], xr)
                assert np.array_equal(c if pinned else c[r], cr)
                if er is None:
                    assert e is None
                else:
                    assert np.array_equal(e[r], er)
        assert k == p.steps

    def test_nonfinite_energy_names_replication_seed(self):
        p = engine.CboParams(lam=1.0, sigma=0.5, alpha=30.0, dt=0.01, steps=5,
                             n_particles=20, dim=1, seed=0)
        calls = []
        obj = counting(objectives.rastrigin(1), calls, nan_from=3, particle=(1, 7))
        dist = engine.GaussianIsotropic((1.0,), 0.8)
        batch = engine.Ensemble(np.stack(
            [engine.sample_initial(dist, 20, 1, s).positions for s in self.SEEDS]))
        with pytest.raises(NumericDomainError) as err:
            list(engine.states(batch, obj, p, engine.NoiseBatch(self.SEEDS)))
        assert (err.value.step, err.value.particle, err.value.seed) == (3, 7, 12)
        msg = str(err.value)
        assert "particle 7" in msg and "step 3" in msg and "seed 12" in msg
        # a batched cbo_step names the replication's seed the same way
        obj = counting(objectives.rastrigin(1), [], nan_from=0, particle=(1, 7))
        with pytest.raises(NumericDomainError) as err:
            engine.cbo_step(batch, obj, p, engine.NoiseBatch(self.SEEDS), step=4)
        assert (err.value.step, err.value.particle, err.value.seed) == (4, 7, 12)


class TestSimulate:
    def params(self, **kw):
        base = dict(
            lam=1.0, sigma=0.5, alpha=10.0, dt=0.01, steps=20,
            n_particles=40, dim=1, seed=21,
        )
        base.update(kw)
        return engine.CboParams(**base)

    def test_zero_dynamics_keeps_initial(self):
        dist = engine.GaussianIsotropic((2.0,), 1.0)
        p = self.params(lam=0.0, sigma=0.0)
        res = engine.simulate(dist, quadratic1(), p)
        init = engine.sample_initial(dist, p.n_particles, 1, p.seed)
        assert np.array_equal(res.final.positions, init.positions)

    def test_zero_steps_single_record(self):
        dist = engine.GaussianIsotropic((0.0,), 1.0)
        res = engine.simulate(dist, quadratic1(), self.params(steps=0))
        assert len(res.series.records) == 1
        assert res.series.records[0].t == 0.0

    def test_deterministic_series(self):
        dist = engine.UniformBox((-1.0,), (2.0,))
        p = self.params(steps=15)
        plan = metrics.RecordingPlan(stride=1, ball_radii=(0.5,))
        a = engine.simulate(dist, quadratic1(), p, plan)
        b = engine.simulate(dist, quadratic1(), p, plan)
        assert a.series.config_digest == b.series.config_digest
        assert a.series.endpoint_error == b.series.endpoint_error
        for ra, rb in zip(a.series.records, b.series.records):
            assert ra == rb
        assert np.array_equal(a.final.positions, b.final.positions)

    def test_v_monotone_contraction_sigma0(self):
        # sigma = 0 and argmin-sized alpha: pure contraction toward the best
        # particle, so the V-functional never increases
        obj = quadratic1()
        dist = engine.GaussianIsotropic((1.0,), 1.0)
        for seed in range(100):
            p = self.params(sigma=0.0, alpha=1e15, steps=50, n_particles=16, seed=seed)
            res = engine.simulate(dist, obj, p)
            v = res.series.column("v_func")
            assert np.all(np.diff(v) <= 1e-15)

    def test_recording_stride(self):
        dist = engine.GaussianIsotropic((0.0,), 1.0)
        res = engine.simulate(
            dist, quadratic1(), self.params(steps=20),
            metrics.RecordingPlan(stride=5),
        )
        np.testing.assert_allclose(
            res.series.times(), [0.0, 0.05, 0.10, 0.15, 0.20], atol=1e-15
        )

    def test_endpoint_error_matches_final_mean(self):
        dist = engine.GaussianIsotropic((1.0,), 0.5)
        res = engine.simulate(dist, quadratic1(), self.params())
        gap = res.final.positions.mean(axis=0)  # v* = 0
        np.testing.assert_allclose(res.series.endpoint_error, float(gap @ gap), rtol=1e-12)

    def test_divergence_attaches_partial_series(self):
        dist = engine.UniformBox((1e149,), (1e150,))
        p = self.params(lam=1e308, sigma=0.0, alpha=1e-8, dt=1.0, steps=5, n_particles=4)
        with pytest.raises(DivergenceError) as err:
            engine.simulate(dist, quadratic1(), p)
        assert err.value.partial_series is not None
        assert len(err.value.partial_series.records) >= 1

    def test_dim_mismatch_rejected(self):
        dist = engine.GaussianIsotropic((0.0,), 1.0)
        with pytest.raises(ConfigError):
            engine.simulate(dist, objectives.quadratic(2), self.params())


def test_params_validation():
    with pytest.raises(ConfigError):
        engine.CboParams(lam=-1, sigma=0, alpha=1, dt=0.1, steps=1, n_particles=1, dim=1)
    with pytest.raises(ConfigError):
        engine.CboParams(lam=1, sigma=0, alpha=0, dt=0.1, steps=1, n_particles=1, dim=1)
    with pytest.raises(ConfigError):
        engine.CboParams(lam=1, sigma=0, alpha=1, dt=0.1, steps=1, n_particles=1, dim=1, seed=-1)
    p = engine.CboParams(lam=1.0, sigma=0.5, alpha=1, dt=0.1, steps=1, n_particles=1, dim=1)
    assert p.contractive
    q = engine.CboParams(lam=0.1, sigma=0.5, alpha=1, dt=0.1, steps=1, n_particles=1, dim=1)
    assert not q.contractive
