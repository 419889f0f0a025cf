import math
from dataclasses import replace

import numpy as np
import pytest

from cbo import engine, metrics, mfa, objectives
from cbo.errors import InvalidInputError


def params(**kw):
    base = dict(
        lam=1.0, sigma=0.5, alpha=2.0, dt=0.01, steps=30,
        n_particles=40, dim=1, seed=77,
    )
    base.update(kw)
    return engine.CboParams(**base)


DIST = engine.GaussianIsotropic((1.0,), 1.0)
OBJ = objectives.quadratic(1)


class TestReferenceTrajectory:
    def test_zero_dynamics_constant(self):
        p = params(lam=0.0, sigma=0.0, steps=10)
        ref = mfa.reference_consensus_trajectory(DIST, OBJ, p)
        assert ref.points.shape == (11, 1)
        for point in ref.points:
            assert np.array_equal(point, ref.points[0])

    def test_deterministic(self):
        p = params(steps=12)
        a = mfa.reference_consensus_trajectory(DIST, OBJ, p)
        b = mfa.reference_consensus_trajectory(DIST, OBJ, p)
        assert np.array_equal(a.points, b.points)
        assert a.moment4_sup == b.moment4_sup

    def test_argmin_contraction_monotone(self):
        # sigma = 0 and huge alpha: consensus distance to v* never increases
        p = params(sigma=0.0, alpha=1e15, steps=60, n_particles=200)
        ref = mfa.reference_consensus_trajectory(DIST, OBJ, p)
        d = np.linalg.norm(ref.points, axis=1)
        assert np.all(np.diff(d) <= 1e-14)


class TestCoupledError:
    def test_reference_reproduction_gives_zero(self):
        # n = n_ref with the reference seed: system (a) IS the reference run,
        # so the surrogate (b) sees identical consensus values and stays equal
        p = params(steps=20, n_particles=120, seed=5)
        ref = mfa.reference_consensus_trajectory(DIST, OBJ, p)
        run = mfa.coupled_error(DIST, OBJ, p, ref, seeds=[5], m_threshold=math.inf)
        assert run.err_sup == 0.0
        assert run.err_sup_conditional == 0.0
        assert run.exceed_fraction == 0.0

    def test_zero_dynamics_zero_error(self):
        p = params(lam=0.0, sigma=0.0, steps=15)
        ref = mfa.reference_consensus_trajectory(DIST, OBJ, params(
            lam=0.0, sigma=0.0, steps=15, n_particles=500, seed=9))
        run = mfa.coupled_error(DIST, OBJ, p, ref, seeds=[1, 2, 3], m_threshold=1e9)
        assert run.err_sup == 0.0

    def test_increments_shared_bitwise(self, monkeypatch):
        # instrument cbo_step on a 2-step run: per step, systems (a) and (b)
        # must receive the identical increment matrix
        p = params(steps=2, n_particles=8)
        ref = mfa.reference_consensus_trajectory(
            DIST, OBJ, params(steps=2, n_particles=100, seed=3))
        seen = []
        real_step = engine.cbo_step

        def spy(ens, obj, prm, noise=None, increments=None, consensus=None, **kw):
            seen.append(np.array(increments))
            return real_step(ens, obj, prm, noise,
                             increments=increments, consensus=consensus, **kw)

        monkeypatch.setattr(engine, "cbo_step", spy)
        mfa.coupled_error(DIST, OBJ, p, ref, seeds=[42], m_threshold=math.inf)
        assert len(seen) == 4  # 2 steps x 2 systems
        assert np.array_equal(seen[0], seen[1])
        assert np.array_equal(seen[2], seen[3])
        assert not np.array_equal(seen[0], seen[2])

    def test_pinned_system_evaluates_nothing(self):
        # one replication evaluates only system (a): once per state; the
        # pinned system (b) with H = 1 needs no energies at all
        p = params(steps=7, n_particles=12)
        ref = mfa.reference_consensus_trajectory(
            DIST, OBJ, params(steps=7, n_particles=200, seed=3))
        calls = []
        counted = replace(OBJ, eval=lambda v: calls.append(1) or OBJ.eval(v))
        mfa.coupled_error(DIST, counted, p, ref, seeds=[42], m_threshold=math.inf)
        assert len(calls) == p.steps + 1

    def test_length_precondition(self):
        p = params(steps=20)
        with pytest.raises(InvalidInputError):
            mfa.coupled_error(DIST, OBJ, p, np.zeros((5, 1)), seeds=[1],
                              m_threshold=1.0)

    def test_conditioning_matches_moment4_event(self):
        # recompute each replication's sup moment4 independently and check
        # the exceed bookkeeping and conditional aggregation agree
        p = params(steps=10, n_particles=25)
        ref = mfa.reference_consensus_trajectory(
            DIST, OBJ, params(steps=10, n_particles=400, seed=100))
        seeds = [201, 202, 203, 204, 205, 206]

        sups_m4 = []
        sups_err = []
        for s in seeds:
            init = engine.sample_initial(DIST, p.n_particles, 1, s)
            a = engine.Ensemble(init.positions.copy())
            b = engine.Ensemble(init.positions.copy())
            noise = engine.NoiseSource(s)
            m4 = metrics.moment4_stat(a, b)
            gap_sup = np.zeros(p.n_particles)
            for k in range(p.steps):
                inc = noise.increments(k, p.n_particles, 1, p.dt)
                a = engine.cbo_step(a, OBJ, p, increments=inc)
                b = engine.cbo_step(b, OBJ, p, increments=inc,
                                    consensus=ref.points[k])
                gap = a.positions - b.positions
                gap_sup = np.maximum(gap_sup, (gap * gap).sum(axis=1))
                m4 = max(m4, metrics.moment4_stat(a, b))
            sups_m4.append(m4)
            sups_err.append(gap_sup)

        m_threshold = float(np.median(sups_m4))  # splits replications
        run = mfa.coupled_error(DIST, OBJ, p, ref, seeds, m_threshold)
        exceeds = np.array([m > m_threshold for m in sups_m4])
        np.testing.assert_allclose(run.exceed_fraction, exceeds.mean())
        keep = np.stack(sups_err)[~exceeds]
        np.testing.assert_allclose(
            run.err_sup_conditional, keep.mean(axis=0).max(), rtol=1e-12
        )
        np.testing.assert_allclose(
            run.err_sup, np.stack(sups_err).mean(axis=0).max(), rtol=1e-12
        )


class TestSweep:
    def test_synthetic_inverse_law_slope(self):
        ns = np.array([50, 100, 200, 400, 800])
        errs = 3.7 / ns
        np.testing.assert_allclose(mfa.fit_loglog_slope(ns, errs), -1.0, atol=1e-9)

    def test_single_n_rejected(self):
        with pytest.raises(InvalidInputError):
            mfa.mfa_sweep(DIST, OBJ, params(), [100], 10_000, [1, 2])

    def test_n_ref_must_dominate(self):
        with pytest.raises(InvalidInputError):
            mfa.mfa_sweep(DIST, OBJ, params(), [50, 100, 200], 1000, [1, 2])

    def test_sweep_fans_out_once(self, monkeypatch):
        # the sweep loops over particle counts in order and fans out over
        # seeds only, so no thread pool is started inside another
        depth, peak = [0], [0]
        real_map = mfa.thread_map

        def spy(fn, items):
            depth[0] += 1
            peak[0] = max(peak[0], depth[0])
            try:
                return real_map(fn, items)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(mfa, "thread_map", spy)
        mfa.mfa_sweep(DIST, OBJ, params(steps=5), [20, 40, 80], 800, seeds=[1, 2, 3])
        assert peak[0] == 1

    def test_small_sweep_outputs(self):
        p = params(steps=15)
        res = mfa.mfa_sweep(
            DIST, OBJ, p, [20, 40, 80], 800, seeds=[301, 302, 303, 304],
        )
        assert len(res.runs) == 3
        assert [r.n for r in res.runs] == [20, 40, 80]
        for run in res.runs:
            assert 0.0 <= run.exceed_fraction <= 1.0
            assert run.err_sup > 0
            assert run.n_ref == 800
        assert math.isfinite(res.slope)
        assert res.m_threshold > 0
