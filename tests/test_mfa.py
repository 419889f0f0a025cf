import math
import threading
from dataclasses import replace

import numpy as np
import oracle
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


def oracle_coupled(seed, p, points):
    """The positions of the interacting system (a) and of the system (b)
    pinned to ``points`` at the states 0..steps of one replication, stepped
    one seed at a time by the test oracle with the same increments."""
    a = b = engine.sample_initial(DIST, p.n_particles, 1, seed)
    noise = engine.NoiseSource(seed)
    yield a, b
    for k in range(p.steps):
        inc = noise.increments(k, slice(0, p.n_particles), 1, p.dt)
        e = OBJ.eval(a)
        a = oracle.step(a, e, oracle.consensus(a, e, p.alpha), inc, OBJ, p)
        b = oracle.step(b, None, points[k], inc, OBJ, p)
        yield a, b


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

    def test_increments_shared_bitwise(self):
        # coupled_error steps the seeds as batches (here 2 + 1 at 3000
        # particles); it must equal, bitwise, the oracle's per-seed loop in
        # which systems (a) and (b) are handed the same increments at each
        # step
        p = params(steps=3, n_particles=3000)
        seeds = [42, 43, 44]
        assert [len(b) for b in metrics.seed_batches(seeds, p.n_particles)] == [2, 1]
        ref = mfa.reference_consensus_trajectory(
            DIST, OBJ, params(steps=3, n_particles=400, seed=3))
        sups = []
        for s in seeds:
            gap_sup = np.zeros(p.n_particles)
            for a, b in oracle_coupled(s, p, ref.points):
                gap = a - b
                gap_sup = np.maximum(gap_sup, (gap * gap).sum(axis=1))
            sups.append(gap_sup)
        assert sups[0].max() > 0
        run = mfa.coupled_error(DIST, OBJ, p, ref, seeds=seeds, m_threshold=math.inf)
        want = np.stack(sups).mean(axis=0).max()
        assert run.err_sup == want
        assert run.err_sup_conditional == want
        assert run.exceed_fraction == 0.0

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
            short = mfa.ReferenceTrajectory(np.zeros((5, 1)), moment4_sup=0.0, n_ref=100)
            mfa.coupled_error(DIST, OBJ, p, short, seeds=[1], m_threshold=1.0)

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
            m4 = 0.0
            gap_sup = np.zeros(p.n_particles)
            for a, b in oracle_coupled(s, p, ref.points):
                gap = a - b
                gap_sup = np.maximum(gap_sup, (gap * gap).sum(axis=1))
                m4 = max(m4, float(oracle.moment4(a, b)))
            sups_m4.append(m4)
            sups_err.append(gap_sup)

        m_threshold = float(np.median(sups_m4))  # splits replications
        run = mfa.coupled_error(DIST, OBJ, p, ref, seeds, m_threshold)
        exceeds = np.array([m > m_threshold for m in sups_m4])
        assert 0 < exceeds.mean() < 1
        assert run.exceed_fraction == exceeds.mean()
        keep = np.stack(sups_err)[~exceeds]
        assert run.err_sup_conditional == keep.mean(axis=0).max()
        assert run.err_sup == np.stack(sups_err).mean(axis=0).max()

    def test_every_replication_exceeding_gives_nan_conditional(self):
        p = params(steps=5, n_particles=10)
        ref = mfa.reference_consensus_trajectory(
            DIST, OBJ, params(steps=5, n_particles=100, seed=100))
        run = mfa.coupled_error(DIST, OBJ, p, ref, [1, 2, 3], m_threshold=0.0)
        assert run.exceed_fraction == 1.0
        assert math.isnan(run.err_sup_conditional)
        assert run.err_sup > 0


class TestSweep:
    def test_synthetic_inverse_law_slope(self):
        ns = np.array([50, 100, 200, 400, 800])
        errs = 3.7 / ns
        np.testing.assert_allclose(mfa.fit_loglog_slope(ns, errs), -1.0, atol=1e-9)

    def test_single_n_rejected(self):
        with pytest.raises(InvalidInputError):
            mfa.mfa_sweep(DIST, OBJ, params(), [100], 10_000, [1, 2])

    def test_equal_n_rejected(self):
        # a slope over one n is 0/0: rejected, not NaN
        with pytest.raises(InvalidInputError, match="distinct"):
            mfa.fit_loglog_slope([40, 40, 40], [1.0, 2.0, 3.0])
        with pytest.raises(InvalidInputError, match="distinct"):
            mfa.mfa_sweep(DIST, OBJ, params(), [40, 40, 80], 10_000, [1, 2])

    def test_n_ref_must_dominate(self):
        with pytest.raises(InvalidInputError):
            mfa.mfa_sweep(DIST, OBJ, params(), [50, 100, 200], 1000, [1, 2])

    def test_sweep_starts_no_thread_pool(self, monkeypatch):
        # the seeds of each particle count step as batches in the calling
        # thread, whatever the worker cap; a started thread fails at once
        def start(t):
            raise AssertionError("mfa_sweep started a thread")

        monkeypatch.setattr(threading.Thread, "start", start)
        monkeypatch.setenv("CBO_THREADS", "4")
        mfa.mfa_sweep(DIST, OBJ, params(steps=5), [20, 40, 80], 800, seeds=[1, 2, 3])

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
