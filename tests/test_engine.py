import dataclasses
import math
import sys
import tracemalloc
import weakref

import numpy as np
import oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbo import engine, metrics, objectives
from cbo.errors import (
    ConfigError,
    DivergenceError,
    InvalidInputError,
    NumericDomainError,
)


def quadratic1():
    return objectives.quadratic(1)


def consensus_of(x, obj, alpha):
    """The engine's consensus point of the positions ``x`` under ``obj``."""
    x = np.asarray(x, dtype=float)
    return engine.consensus_point(x, obj.eval(x), alpha)


class TestHEval:
    def test_const_one_everywhere(self):
        assert engine.h_eval(engine.CONST_ONE, -5.0) == 1.0
        assert engine.h_eval(engine.CONST_ONE, 3.0) == 1.0

    def test_ramp_at_zero(self):
        assert engine.h_eval(engine.RampHeaviside(1.0), 0.0) == 1.0

    def test_ramp_negative(self):
        assert engine.h_eval(engine.RampHeaviside(0.5), -0.25) == 0.5
        assert engine.h_eval(engine.RampHeaviside(0.5), -10.0) == 0.0

    def test_ramp_with_tiny_delta_is_exact_without_warning(self):
        # x / delta overflows to -inf; the ramp there is 0, and no warning
        h = engine.h_eval(engine.RampHeaviside(1e-300), [-1e10, 0.5])
        assert h.tolist() == [0.0, 1.0]

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
        with pytest.raises(ConfigError):
            engine.UniformBox((0.0, 0.0), (1.0, 0.0))

    def test_gaussian_clt_oracle(self):
        n = 100_000
        x = engine.sample_initial(engine.GaussianIsotropic((0.0,), 1.0), n, 1, 123)
        assert abs(x.mean()) <= 4.0 / math.sqrt(n)

    def test_same_seed_bit_identical(self):
        dist = engine.GaussianIsotropic((1.0, 2.0), 0.5)
        a = engine.sample_initial(dist, 500, 2, 99)
        b = engine.sample_initial(dist, 500, 2, 99)
        assert np.array_equal(a, b)

    def test_uniform_respects_box(self):
        dist = engine.UniformBox((-1.0, 0.0), (1.0, 3.0))
        x = engine.sample_initial(dist, 1000, 2, 5)
        assert np.all(x >= [-1.0, 0.0])
        assert np.all(x <= [1.0, 3.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigError):
            engine.sample_initial(engine.GaussianIsotropic((0.0,), 1.0), 10, 2, 0)

    @pytest.mark.parametrize("dist", [engine.GaussianIsotropic((1.0, -2.0), 0.7),
                                      engine.UniformBox((-1.0, 0.0), (1.0, 3.0))])
    def test_seed_sequence_rows_bitwise(self, dist):
        seeds = [4, 9, 2]
        x = engine.sample_initial(dist, 300, 2, seeds)
        assert x.shape == (3, 300, 2)
        for row, seed in zip(x, seeds):
            assert np.array_equal(row, engine.sample_initial(dist, 300, 2, seed))
        assert engine.sample_initial(dist, 300, 2, seeds[:1]).shape == (1, 300, 2)


def fresh_increments(seed, step, n, d, dt):
    """The increments of a generator built for this seed and step alone
    (key word 1 tags the dynamics, as against the initial draw)."""
    bitgen = np.random.Philox(key=np.array([seed, 1], dtype=np.uint64),
                              counter=np.array([0, 0, 0, step], dtype=np.uint64))
    return np.random.Generator(bitgen).standard_normal((n, d)) * math.sqrt(dt)


def fresh_step(seeds, step, n, d, dt):
    """``fresh_increments`` of one step, for an int seed or stacked for a
    sequence of seeds."""
    if isinstance(seeds, int):
        return fresh_increments(seeds, step, n, d, dt)
    return np.stack([fresh_increments(s, step, n, d, dt) for s in seeds])


class TestNoiseSource:
    """A step's increments are requested one row block at a time."""

    @pytest.mark.parametrize("seeds", [7, [7, 3, 11]])
    @pytest.mark.parametrize("cuts", [(0, 50), (0, 16, 32, 48, 50), (0, 1, 2, 49, 50),
                                      (0, 17, 34, 50)])
    def test_consecutive_blocks_equal_whole_step(self, seeds, cuts):
        # any split of a step into consecutive blocks, the last one partial,
        # continues each seed's stream: bitwise the whole step's draw
        src = engine.NoiseSource(seeds)
        for k in (0, 3, 2**40):
            views, got = [], []
            for lo, hi in zip(cuts, cuts[1:]):
                views.append(src.increments(k, slice(lo, hi), 2, 0.01))
                got.append(views[-1].copy())
            # a new buffer only for a block larger than any before
            big = max(range(len(views)), key=lambda i: views[i].shape[-2])
            assert all(np.shares_memory(v, views[big]) for v in views[big:])
            assert np.array_equal(np.concatenate(got, axis=-2), fresh_step(seeds, k, 50, 2, 0.01))

    @pytest.mark.parametrize("seeds", [7, [7, 3]])
    def test_repeated_request_returns_same_array_without_drawing(self, seeds):
        src = engine.NoiseSource(seeds)
        a = src.increments(2, slice(0, 16), 1, 0.01)
        a[...] = np.nan
        assert src.increments(2, slice(0, 16), 1, 0.01) is a
        assert np.isnan(a).all()
        # the stream goes on from the block drawn last
        b = src.increments(2, slice(16, 30), 1, 0.01)
        assert np.array_equal(b, fresh_step(seeds, 2, 30, 1, 0.01)[..., 16:, :])
        assert src.increments(2, slice(16, 30), 1, 0.01) is b

    @pytest.mark.parametrize("seeds", [7, [7, 3]])
    def test_out_of_order_requests_exact(self, seeds):
        # a request ahead of the stream, behind it, for another step, dim or
        # dt rewinds to its step's start and passes over the rows before it
        # (here in several chunks of the request's own rows): still exact
        src = engine.NoiseSource(seeds)
        for k, lo, hi, d, dt in [(4, 20, 40, 2, 0.01), (4, 0, 10, 2, 0.01),
                                 (4, 30, 40, 2, 0.01), (4, 10, 30, 2, 0.01),
                                 (9, 0, 40, 2, 0.01), (4, 10, 20, 2, 0.01),
                                 (4, 20, 30, 1, 0.01), (4, 20, 25, 1, 0.5), (4, 25, 40, 1, 0.5)]:
            want = fresh_step(seeds, k, 40, d, dt)[..., lo:hi, :]
            assert np.array_equal(src.increments(k, slice(lo, hi), d, dt), want)

    def test_lockstep_iterators_over_blocks_equal_separate_runs(self, monkeypatch):
        # the mfa pattern: a free and a pinned iterator over one batch step
        # in lockstep on one source; with several blocks a step, the second
        # iterator's first block of each step rewinds the stream
        monkeypatch.setattr(metrics, "BLOCK_ROWS", 64)
        seeds, n = [5, 6, 7], 100
        assert len(metrics.row_blocks((len(seeds), n, 2))) == 5
        p = engine.CboParams(lam=1.0, sigma=0.5, alpha=30.0, dt=0.05, steps=4,
                             n_particles=n, dim=2, seed=seeds[0])
        obj = objectives.rastrigin(2)
        x0 = engine.sample_initial(engine.GaussianIsotropic((1.0, 1.0), 0.8), n, 2, seeds)
        points = np.linspace(1.0, 0.2, p.steps + 1)[:, None] * np.ones(2)
        noise = engine.NoiseSource(seeds)
        coupled = zip(engine.states(x0, obj, p, noise),
                      engine.states(x0, obj, p, noise, consensus=points))
        got = [(xa.copy(), xb.copy()) for (_, xa, _), (_, xb, _) in coupled]
        for r, seed in enumerate(seeds):
            free = engine.states(x0[r], obj, p, engine.NoiseSource(seed))
            pinned = engine.states(x0[r], obj, p, engine.NoiseSource(seed), consensus=points)
            for (xa, xb), (_, wa, _), (_, wb, _) in zip(got, free, pinned, strict=True):
                assert np.array_equal(xa[r], wa) and np.array_equal(xb[r], wb)


class TestConsensusPoint:
    def test_single_particle(self):
        c = consensus_of([[3.0]], quadratic1(), 1.0)
        assert np.array_equal(c, np.array([3.0]))

    def test_equal_energies_any_alpha(self):
        obj = quadratic1()
        for alpha in (1e-6, 1.0, 1e12):
            c = consensus_of([[1.0], [-1.0]], obj, alpha)
            np.testing.assert_allclose(c, [0.0], atol=1e-15)

    def test_two_point_value(self):
        c = consensus_of([[0.0], [1.0]], quadratic1(), 1.0)
        expected = math.exp(-1.0) / (1.0 + math.exp(-1.0))  # 1/(1+e)
        np.testing.assert_allclose(c, [expected], rtol=1e-12)
        np.testing.assert_allclose(c, [0.26894142], atol=1e-8)

    def test_argmin_limit_under_weight_underflow(self):
        c = consensus_of([[0.2], [1.0]], quadratic1(), 1e15)
        assert c[0] == 0.2  # shifted non-minimal weight underflows to exactly 0

    def test_nonfinite_energy_reports_particle(self):
        with pytest.raises(NumericDomainError) as err:
            consensus_of([[1.0], [math.inf]], quadratic1(), 1.0)
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
            ours = consensus_of(x, obj, alpha)
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
            c = consensus_of(x, obj2, alpha)
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
            c0 = consensus_of(x, base, 5.0)
            c1 = consensus_of(x + shift, shifted, 5.0)
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
                c0 = consensus_of(x, base, 8.0)
                c1 = consensus_of(x, lifted, 8.0)
                np.testing.assert_allclose(c1, c0, atol=1e-12)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("alpha", [5.0, 30.0, 1e15])
    def test_bitwise_oracle(self, dim, alpha):
        # one point per replication of a batch, and for one replication alone
        x = np.random.default_rng(dim).uniform(-3, 3, (4, 300, dim))
        e = objectives.rastrigin(dim).eval(x)
        want = oracle.consensus(x, e, alpha)
        assert np.array_equal(engine.consensus_point(x, e, alpha), want)
        assert np.array_equal(engine.consensus_point(x[2], e[2], alpha), want[2])

    @pytest.mark.parametrize("shape", [(320000, 1), (20000, 1), (3, 2560, 1), (163, 50, 1),
                                       (1, 7, 1), (4, 300, 2)])
    @pytest.mark.parametrize("alpha", [30.0, 1e15])
    def test_product_formula_and_energies_untouched(self, shape, alpha):
        # at d = 1 the weighted mean multiplies the positions into the
        # weights' own array: bitwise the sum of the (n, 1) product, one
        # run or a batch; the caller's energies are never written
        x = np.random.default_rng(len(shape)).uniform(-3, 3, shape)
        e = objectives.rastrigin(shape[-1]).eval(x)
        kept = e.copy()
        got = engine.consensus_point(x, e, alpha)
        w = np.exp((-alpha) * (e - e.min(axis=-1, keepdims=True)))
        want = (x * w[..., None]).sum(axis=-2) / w.sum(axis=-1)[..., None]
        assert np.array_equal(bits(got), bits(want))
        assert np.array_equal(bits(e), bits(kept))


def one_step(x, obj, params, consensus=None):
    """The positions of state 1 that ``engine.states`` reaches from ``x``."""
    run = engine.states(np.array(x, dtype=float), obj, params,
                        engine.NoiseSource(params.seed), consensus=consensus)
    return [x.copy() for _, x, _ in run][1]


class TestCboStep:
    """One CBO step: ``engine.states`` with steps = 1, with known results."""

    def test_single_particle_unchanged(self):
        params = engine.CboParams(
            lam=1.0, sigma=0.5, alpha=1.0, dt=0.1, steps=1, n_particles=1, dim=1, seed=3
        )
        assert np.array_equal(one_step([[2.5]], quadratic1(), params), [[2.5]])

    def test_pinned_consensus_drift(self):
        params = engine.CboParams(
            lam=1.0, sigma=0.0, alpha=1.0, dt=0.01, steps=1, n_particles=1, dim=1, seed=0
        )
        out = one_step([[1.0]], quadratic1(), params, consensus=np.zeros((2, 1)))
        np.testing.assert_allclose(out, [[0.99]], rtol=1e-15)

    def test_argmin_consensus_two_particles(self):
        params = engine.CboParams(
            lam=1.0, sigma=0.0, alpha=1e15, dt=0.5, steps=1, n_particles=2, dim=1, seed=0
        )
        out = one_step([[0.0], [2.0]], quadratic1(), params)
        np.testing.assert_allclose(out, [[0.0], [1.0]], atol=1e-15)

    def test_fixed_point_sigma0_n1(self):
        params = engine.CboParams(
            lam=2.0, sigma=0.0, alpha=3.0, dt=0.05, steps=1, n_particles=1, dim=2, seed=1
        )
        out = one_step([[0.3, -0.7]], objectives.quadratic(2), params)
        assert np.array_equal(out, [[0.3, -0.7]])

    def test_divergence_carries_step_index(self):
        # energies stay finite (1e300) but lam * diff overflows the update
        params = engine.CboParams(
            lam=1e308, sigma=0.0, alpha=1e-8, dt=1.0, steps=3,
            n_particles=2, dim=1, seed=0,
        )
        with pytest.raises(DivergenceError) as err:
            one_step([[0.0], [1e150]], quadratic1(), params)
        assert (err.value.step, err.value.particle) == (0, 1)
        assert "particle 1" in str(err.value) and "step 0" in str(err.value)

    def test_ramp_h_deactivates_drift_for_better_particles(self):
        # particle strictly better than the pinned consensus keeps its position
        params = engine.CboParams(
            lam=1.0, sigma=0.0, alpha=1.0, dt=0.1, steps=1, n_particles=2, dim=1,
            h_variant=engine.RampHeaviside(1e-9), seed=0,
        )
        out = one_step([[0.1], [3.0]], quadratic1(), params, consensus=np.full((2, 1), 2.0))
        assert out[0, 0] == 0.1          # E(0.1) < E(2): drift off
        assert out[1, 0] == pytest.approx(2.9)  # E(3) > E(2): drift on


def counting(obj, calls, nan_from=None, particle=0):
    """``obj`` whose evaluations append to ``calls``; from evaluation number
    ``nan_from`` (0-based) on, ``particle`` gets a NaN energy."""

    def eval_(v):
        e = np.array(obj.eval(v), dtype=float)
        if nan_from is not None and len(calls) >= nan_from:
            e[particle] = math.nan
        calls.append(1)
        return e

    # a replaced eval drops the floor, which bounds only the original
    return dataclasses.replace(obj, eval=eval_, floor=None)


def oracle_records(dist, obj, params, plan):
    """Reference: the records of the oracle's states at the plan's stride,
    and the final positions."""
    x0 = engine.sample_initial(dist, params.n_particles, params.dim, params.seed)
    run = oracle.states(x0, obj, params, engine.NoiseSource(params.seed))
    records = [oracle.record(k * params.dt, x, obj.minimizer, c, plan.ball_radii)
               for k, x, _, c in run if k % plan.stride == 0]
    return records, run[-1][1]


def final_positions(dist, obj, params):
    """The positions of the last state, stepped by ``engine.states`` from the
    start ``simulate`` draws."""
    x0 = engine.sample_initial(dist, params.n_particles, params.dim, params.seed)
    for _, x, _ in engine.states(x0, obj, params, engine.NoiseSource(params.seed)):
        pass
    return x


class TestStates:
    P = dict(lam=1.0, sigma=0.5, alpha=1e15, dt=0.01, n_particles=300, dim=1, seed=4)
    DIST = engine.GaussianIsotropic((1.0,), 0.8)

    @pytest.mark.parametrize("stride", [1, 4])
    def test_simulate_evaluates_once_per_state(self, stride):
        p = engine.CboParams(steps=10, **self.P)
        calls = []
        series = engine.simulate(self.DIST, counting(objectives.rastrigin(1), calls), p,
                                 metrics.RecordingPlan(stride=stride))
        assert len(calls) == p.steps + 1
        assert len(series.records) == p.steps // stride + 1

    @pytest.mark.parametrize("stride", [1, 3])
    def test_records_match_two_pass_loop(self, stride):
        obj = objectives.rastrigin(1)
        p = engine.CboParams(steps=20, **self.P)
        plan = metrics.RecordingPlan(stride=stride, ball_radii=(0.25, 0.5, 1.0))
        want, final = oracle_records(self.DIST, obj, p, plan)
        assert engine.simulate(self.DIST, obj, p, plan).records == want
        assert np.array_equal(final_positions(self.DIST, obj, p), final)

    def test_yields_every_state_once(self):
        p = engine.CboParams(steps=6, **self.P)
        obj = objectives.rastrigin(1)
        x0 = engine.sample_initial(self.DIST, p.n_particles, 1, p.seed)
        ks = []
        for k, x, c in engine.states(x0, obj, p, engine.NoiseSource(p.seed)):
            ks.append(k)
            assert np.array_equal(c, oracle.consensus(x, obj.eval(x), p.alpha))
        assert ks == list(range(p.steps + 1))

    def test_pinned_const_one_evaluates_nothing(self):
        p = engine.CboParams(steps=5, **self.P)
        calls = []
        obj = counting(objectives.rastrigin(1), calls)
        x0 = engine.sample_initial(self.DIST, p.n_particles, 1, p.seed)
        pinned = np.zeros((p.steps + 1, 1))
        out = list(engine.states(x0, obj, p, engine.NoiseSource(p.seed), consensus=pinned))
        assert len(out) == p.steps + 1
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

    @pytest.mark.parametrize("pinned", [False, True])
    def test_dropped_state_zero_freed_at_first_next(self, pinned):
        # the iterator steps its own copy of state 0: a caller's array that
        # nothing else holds would otherwise keep a whole ensemble of memory
        # beside it
        p = engine.CboParams(steps=3, **self.P)
        consensus = np.zeros((p.steps + 1, 1)) if pinned else None
        x0 = engine.sample_initial(self.DIST, p.n_particles, 1, p.seed)
        want = x0.copy()
        state0 = weakref.ref(x0)
        run = engine.states(x0, objectives.rastrigin(1), p, engine.NoiseSource(p.seed),
                            consensus=consensus)
        del x0
        assert state0() is not None  # held by the iterator until it starts
        k, x, _ = next(run)
        assert k == 0 and state0() is None
        assert np.array_equal(bits(x), bits(want))

    @pytest.mark.parametrize("dim, seeds, h, pinned", [
        (1, 5, engine.CONST_ONE, False),
        (2, 5, engine.CONST_ONE, False),
        (1, [5, 6, 7], engine.CONST_ONE, False),
        (1, 5, engine.CONST_ONE, True),
        (1, 5, engine.RampHeaviside(0.5), False),
    ], ids=["d1", "d2", "batch", "pinned", "ramp"])
    def test_kept_state_zero_bitwise_unchanged(self, dim, seeds, h, pinned):
        # a caller may keep state 0, or share it between two iterators (the
        # coupled systems of the mean-field sweep): no step writes it
        p = engine.CboParams(lam=1.0, sigma=0.5, alpha=30.0, dt=0.01, steps=4,
                             n_particles=300, dim=dim, h_variant=h, seed=5)
        x0 = engine.sample_initial(engine.GaussianIsotropic((1.0,) * dim, 0.8), 300, dim, seeds)
        want = x0.copy()
        consensus = np.zeros((p.steps + 1, dim)) if pinned else None
        run = engine.states(x0, objectives.rastrigin(dim), p, engine.NoiseSource(seeds),
                            consensus=consensus)
        k, x, _ = next(run)
        assert k == 0 and x is not x0 and np.array_equal(bits(x), bits(want))
        assert [k for k, _, _ in run] == list(range(1, p.steps + 1))
        assert np.array_equal(bits(x0), bits(want))

    @pytest.mark.parametrize("shape, seeds", [((300, 1), [4]), ((300, 1), [4, 5]),
                                              ((1, 300, 1), 4), ((3, 300, 1), [4, 5]),
                                              ((300,), 4), ((0, 300, 1), [])])
    def test_positions_and_noise_shapes_must_match(self, shape, seeds):
        # a batch needs a sequence of one seed per replication, one run an
        # int seed: rejected before anything is evaluated
        p = engine.CboParams(steps=3, **self.P)
        calls = []
        run = engine.states(np.zeros(shape), counting(objectives.rastrigin(1), calls), p,
                            engine.NoiseSource(seeds))
        with pytest.raises(ConfigError):
            next(run)
        assert calls == []

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
        # a yielded array is valid only until the iterator resumes: keep copies
        separate = [
            [(k, x.copy(), c.copy())
             for k, x, c in engine.states(engine.sample_initial(dist, self.N, dim, s), obj,
                                             p, engine.NoiseSource(s), consensus=consensus)]
            for s in self.SEEDS
        ]
        batch = engine.sample_initial(dist, self.N, dim, self.SEEDS)
        run = engine.states(batch, obj, p, engine.NoiseSource(self.SEEDS), consensus=consensus)
        for k, x, c in run:
            assert x.shape == (3, self.N, dim)
            for r, (kr, xr, cr) in enumerate(states_r[k] for states_r in separate):
                assert kr == k
                assert np.array_equal(x[r], xr)
                assert np.array_equal(c if pinned else c[r], cr)
        assert k == p.steps

    def test_nonfinite_energy_names_replication_seed(self):
        p = engine.CboParams(lam=1.0, sigma=0.5, alpha=30.0, dt=0.01, steps=5,
                             n_particles=20, dim=1, seed=0)
        calls = []
        obj = counting(objectives.rastrigin(1), calls, nan_from=3, particle=(1, 7))
        dist = engine.GaussianIsotropic((1.0,), 0.8)
        batch = engine.sample_initial(dist, 20, 1, self.SEEDS)
        with pytest.raises(NumericDomainError) as err:
            list(engine.states(batch, obj, p, engine.NoiseSource(self.SEEDS)))
        assert (err.value.step, err.value.particle, err.value.seed) == (3, 7, 12)
        msg = str(err.value)
        assert "particle 7" in msg and "step 3" in msg and "seed 12" in msg

    @pytest.mark.parametrize("seeds", [5, SEEDS])
    def test_nonfinite_consensus_energy_names_step_and_seed(self, seeds):
        # with the ramp H each step evaluates the consensus point alone, one
        # row per replication: an inf there names the step, and in a batch
        # the seed of the replication
        p = engine.CboParams(lam=1.0, sigma=0.5, alpha=30.0, dt=0.01, steps=5,
                             n_particles=20, dim=1, h_variant=engine.RampHeaviside(0.5))
        base = objectives.rastrigin(1)
        consensus_calls = []

        def eval_(x):
            e = np.array(base.eval(x))
            if x.shape[-2] == 1:  # the consensus point's call
                consensus_calls.append(x.shape)
                if len(consensus_calls) == 3:  # the step from state 2
                    e[-1] = np.inf  # the last replication
            return e

        obj = dataclasses.replace(base, eval=eval_)
        x0 = engine.sample_initial(engine.GaussianIsotropic((1.0,), 0.8), 20, 1, seeds)
        with pytest.raises(NumericDomainError) as err:
            list(engine.states(x0, obj, p, engine.NoiseSource(seeds)))
        batch = not isinstance(seeds, int)
        assert (err.value.step, err.value.particle) == (2, None)
        assert err.value.seed == (13 if batch else None)
        msg = str(err.value)
        assert "consensus point" in msg and "step 2" in msg and ("seed 13" in msg) == batch


def nan_on_row(obj, marker, from_eval):
    """``obj``, except that a row equal to ``marker`` gets a NaN energy from
    its evaluation number ``from_eval`` (0-based) on, whatever the blocks."""
    seen = []

    def eval_(v):
        e = np.array(obj.eval(v), dtype=float)
        hit = (np.asarray(v) == marker).all(axis=-1)
        if hit.any():
            if len(seen) >= from_eval:
                e[hit] = math.nan
            seen.append(1)
        return e

    return dataclasses.replace(obj, eval=eval_, floor=None)


# gaps |x - c| at and around the ends of the range where the step's norm
# at d = 1 is |x - c| (the square is a normal float), and past them
NORM_GAPS = [0.0, 5e-324, 1e-160, math.nextafter(2.0**-511, 0.0), 2.0**-511,
             math.nextafter(2.0**512, 0.0), 2.0**512, math.inf, math.nan]


class TestStepNorm:
    """At d = 1 the step takes ||x - c|| as |x - c| for a block whose every
    gap squares to a normal float, and as sqrt((x - c)^2) otherwise: the
    same bits as the oracle's square root either way."""

    def test_range_constants(self):
        # the square root of the least normal float, and the least gap
        # whose square overflows
        assert engine._NORM_LO == math.sqrt(sys.float_info.min)
        assert engine._NORM_LO * engine._NORM_LO == sys.float_info.min
        assert engine._NORM_HI == 2.0 ** (sys.float_info.max_exp // 2)
        below = math.nextafter(engine._NORM_HI, 0.0)
        assert below * below <= sys.float_info.max
        assert engine._NORM_HI * engine._NORM_HI == math.inf

    @pytest.mark.parametrize("planted", [[g] for g in NORM_GAPS] + [NORM_GAPS],
                             ids=[repr(g) for g in NORM_GAPS] + ["all"])
    def test_planted_gaps_equal_oracle(self, planted):
        # one block of 64 rows about a consensus pinned at 0, the planted
        # gaps with both signs among ordinary ones: every state bitwise the
        # oracle's, and a divergence at the oracle's first non-finite state
        # and particle
        n = 64
        x0 = np.random.default_rng(27).normal(0.0, 1.0, (n, 1))
        x0[20:20 + len(planted), 0] = planted
        x0[40:40 + len(planted), 0] = np.negative(planted)
        p = engine.CboParams(lam=1.0, sigma=0.5, alpha=1.0, dt=0.01, steps=3,
                             n_particles=n, dim=1, seed=27)
        consensus = np.zeros((p.steps + 1, 1))
        obj = objectives.rastrigin(1)  # never evaluated: H = 1, pinned consensus
        with np.errstate(all="ignore"):
            want = oracle.states(x0, obj, p, engine.NoiseSource(p.seed), consensus)
        bad = [k for k, x, _, _ in want[1:] if not np.isfinite(x).all()]  # after a step
        got = engine.states(x0, obj, p, engine.NoiseSource(p.seed), consensus=consensus)

        def compare():
            for (k, x, _), (_, xw, _, _) in zip(got, want, strict=True):
                assert np.array_equal(bits(x), bits(xw)), k

        if not bad:
            compare()
            return
        with pytest.raises(DivergenceError) as err:
            compare()
        particle = int(np.argmax(~np.isfinite(want[bad[0]][1]).all(axis=-1)))
        assert (err.value.step, err.value.particle) == (bad[0] - 1, particle)


class TestBlocks:
    """The step runs over blocks of about ``metrics.BLOCK_ROWS`` rows
    (particles times replications); results must not depend on where
    blocks end."""

    SEEDS = (21, 22, 23)

    # at alpha = 1e15 nearly every weight is zero, so the states after the
    # first are screened (but with a batch of 64-row blocks, whose share of
    # nonzero weights is 3/159): only the rows that can carry weight are
    # evaluated
    @pytest.mark.parametrize("block, alpha", [
        pytest.param(block, alpha, id=str(block) + ("" if alpha == 30.0 else "-alpha1e15"))
        for alpha in (30.0, 1e15) for block in (64, metrics.BLOCK_ROWS)
    ])
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("h", [engine.CONST_ONE, engine.RampHeaviside(0.5)])
    @pytest.mark.parametrize("pinned", [False, True])
    @pytest.mark.parametrize("batch", [False, True])
    def test_states_equal_whole_array_loop(self, monkeypatch, block, alpha, dim, h, pinned,
                                           batch):
        per = block // len(self.SEEDS) if batch else block  # particles per block
        n = 2 * per + per // 2 + 1  # three blocks, the last one partial
        p = engine.CboParams(lam=1.0, sigma=0.5, alpha=alpha, dt=0.05, steps=4,
                             n_particles=n, dim=dim, h_variant=h, seed=self.SEEDS[0])
        obj = objectives.rastrigin(dim)
        dist = engine.GaussianIsotropic((1.0,) * dim, 0.8)
        consensus = None
        if pinned:
            consensus = np.linspace(1.0, 0.2, p.steps + 1)[:, None] * np.ones(dim)
        seeds = self.SEEDS if batch else self.SEEDS[0]
        x0 = engine.sample_initial(dist, n, dim, seeds)
        x0_before = x0.copy()

        def noise():
            return engine.NoiseSource(seeds)

        # the oracle steps the whole array at once
        want = oracle.states(x0, obj, p, noise(), consensus)
        monkeypatch.setattr(metrics, "BLOCK_ROWS", block)
        assert len(metrics.row_blocks(x0.shape)) == 3
        got = engine.states(x0, obj, p, noise(), consensus=consensus)
        for (k, x, c), (kw, xw, _, cw) in zip(got, want, strict=True):
            assert k == kw
            assert np.array_equal(x, xw)
            assert np.array_equal(c, cw)
        assert np.array_equal(x0, x0_before)  # the caller's state 0 is never written

    @pytest.mark.parametrize("batch", [False, True])
    def test_nonfinite_energy_past_first_block(self, monkeypatch, batch):
        monkeypatch.setattr(metrics, "BLOCK_ROWS", 64)
        n, particle = 300, 250  # the fourth block of 64 rows
        x = np.random.default_rng(3).uniform(-1, 1, (len(self.SEEDS), n, 1) if batch else (n, 1))
        row = x[1, particle] if batch else x[particle]
        # lam = sigma = 0: positions stay put, so the marked row is hit once per state
        p = engine.CboParams(lam=0.0, sigma=0.0, alpha=1.0, dt=0.1, steps=5,
                             n_particles=n, dim=1, seed=self.SEEDS[0])
        obj = nan_on_row(objectives.rastrigin(1), row, from_eval=3)
        noise = engine.NoiseSource(self.SEEDS if batch else p.seed)
        with pytest.raises(NumericDomainError) as err:
            list(engine.states(x, obj, p, noise))
        want_seed = self.SEEDS[1] if batch else None
        assert (err.value.step, err.value.particle, err.value.seed) == (3, particle, want_seed)
        assert f"particle {particle}" in str(err.value) and "step 3" in str(err.value)
        if batch:
            assert f"seed {self.SEEDS[1]}" in str(err.value)

    @pytest.mark.parametrize("batch", [False, True])
    def test_divergence_past_first_block(self, monkeypatch, batch):
        monkeypatch.setattr(metrics, "BLOCK_ROWS", 64)
        n, particle = 300, 250
        x = np.zeros((len(self.SEEDS), n, 1) if batch else (n, 1))
        # pinned at 0, each step multiplies the particle by 1 - 1e100:
        # 1e10 -> -1e110 -> 1e210 -> -inf in the step from state 2
        (x[1] if batch else x)[particle] = 1e10
        p = engine.CboParams(lam=1e100, sigma=0.0, alpha=1.0, dt=1.0, steps=5,
                             n_particles=n, dim=1, seed=self.SEEDS[0])
        noise = engine.NoiseSource(self.SEEDS if batch else p.seed)
        with pytest.raises(DivergenceError) as err:
            list(engine.states(x, objectives.rastrigin(1), p, noise,
                               consensus=np.zeros((p.steps + 1, 1))))
        want_seed = self.SEEDS[1] if batch else None
        assert (err.value.step, err.value.particle, err.value.seed) == (2, particle, want_seed)
        assert f"particle {particle}" in str(err.value) and "step 2" in str(err.value)


class TestMemory:
    """``states`` keeps no array of the ensemble's size beyond what a state
    carries across its layers: above the caller's state 0, the positions
    workspace (the iterator's copy of state 0) and, with H = 1, one array
    of a float per row, which holds a state's energies and then its
    weights."""

    def peak(self, monkeypatch, x0, obj, params, seeds):
        """The traced peak of stepping ``x0`` (allocated before tracing)
        through every state, in row blocks of 64 rows."""
        monkeypatch.setattr(metrics, "BLOCK_ROWS", 64)
        run = engine.states(x0, obj, params, engine.NoiseSource(seeds))
        tracemalloc.start()
        try:
            for _ in run:
                pass
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @staticmethod
    def slack(x0, lists=1):
        """Beside the arrays of n rows: numpy's ufunc buffer, which the
        weights broadcast over d > 1 columns go through, ``lists`` lists of
        row-block slices alive at once, and per-block temporaries."""
        dim = x0.shape[-1]
        ufunc_buffer = min(x0.size, np.getbufsize()) * 8 if dim > 1 else 0
        return ufunc_buffer + 128 * lists * len(metrics.row_blocks(x0.shape)) + 16 * 1024

    def bound(self, x0, per_row=1):
        """The workspace, ``per_row`` arrays of a float per row and the
        slack; at d > 1 a state evaluated in full also makes its weighted
        positions, an (n, d) temporary (the roadmap's column kernels at
        d = 2 would remove it)."""
        dim = x0.shape[-1]
        weighted = x0.nbytes if dim > 1 else 0
        return x0.nbytes + weighted + per_row * (x0.nbytes // dim) + self.slack(x0)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("seeds", [5, [5, 6, 7]])
    def test_peak_is_positions_energies_weights(self, monkeypatch, dim, seeds):
        # with H = 1 the weights overwrite the energies, at d = 1 the
        # weighted positions go into the weights' array, and the masked exp
        # runs one row block at a time.  5000 rows: a batch of fewer than
        # numpy's 8192-element buffer would pass its (R, 1) minima through
        # that buffer, a copy of the whole per-row array
        n = 5000
        p = engine.CboParams(lam=1.0, sigma=0.5, alpha=30.0, dt=0.01, steps=2,
                             n_particles=n, dim=dim, seed=5)
        x0 = engine.sample_initial(engine.GaussianIsotropic((1.0,) * dim, 0.8), n, dim, seeds)
        peak = self.peak(monkeypatch, x0, objectives.rastrigin(dim), p, seeds)
        assert peak <= self.bound(x0)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_ramp_keeps_energies_beside_weights(self, monkeypatch, dim):
        # the ramp's step reads the energies after the weights are made,
        # so its consensus holds both: one more array of n floats
        n = 2560
        p = engine.CboParams(lam=1.0, sigma=0.5, alpha=30.0, dt=0.01, steps=2,
                             n_particles=n, dim=dim, h_variant=engine.RampHeaviside(0.5),
                             seed=5)
        x0 = engine.sample_initial(engine.GaussianIsotropic((1.0,) * dim, 0.8), n, dim, 5)
        peak = self.peak(monkeypatch, x0, objectives.rastrigin(dim), p, 5)
        assert peak <= self.bound(x0, per_row=2)

    @pytest.mark.parametrize("seeds", [5, [5, 6, 7]])
    def test_screened_state_adds_no_mask(self, monkeypatch, seeds):
        # at alpha = 1e15 every state after the first is screened; its
        # cutoff test collects each row block's candidates as indices, so
        # it adds no mask of n rows (a bool mask would add x0.size bytes)
        n = 20000
        p = engine.CboParams(lam=1.0, sigma=0.5, alpha=1e15, dt=0.01, steps=3,
                             n_particles=n, dim=1, seed=5)
        x0 = engine.sample_initial(engine.GaussianIsotropic((1.0,), 0.8), n, 1, seeds)
        screened, consensus = [], engine._screened_consensus

        def spy(*args):
            screened.append(1)
            return consensus(*args)

        monkeypatch.setattr(engine, "_screened_consensus", spy)
        peak = self.peak(monkeypatch, x0, objectives.rastrigin(1), p, seeds)
        assert len(screened) == p.steps
        assert peak <= self.bound(x0)

    def test_simulate_snapshot_beside_positions_alone(self, monkeypatch):
        # records at the first and the last state: the state-0 snapshot
        # runs beside the positions alone, and at entry the sampled state 0
        # lives only until the iterator has copied it.  The snapshot lists
        # its own row blocks beside the iterator's
        monkeypatch.setattr(metrics, "BLOCK_ROWS", 64)
        n, dist = 20000, engine.GaussianIsotropic((1.0,), 0.8)
        p = engine.CboParams(lam=1.0, sigma=0.5, alpha=1e15, dt=0.01, steps=3,
                             n_particles=n, dim=1, seed=5)
        plan = metrics.RecordingPlan(stride=p.steps, ball_radii=(0.25, 0.5, 1.0))
        engine.sample_initial(dist, 1, 1, 0)  # numpy loads its random module at the first draw
        tracemalloc.start()
        try:
            engine.simulate(dist, objectives.rastrigin(1), p, plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * n * 8 + self.slack(np.empty((n, 1)), lists=2)


def row_counting(obj, rows, poison=None):
    """``obj``, floor kept, whose evaluations append the evaluated rows to
    ``rows``; while ``poison`` (a list the test fills between states) holds
    ``(row, value)``, that row's energy and floor are ``value``."""

    def marked(fn, v):
        out = np.array(fn(v), dtype=float)
        if poison:
            row, value = poison[0]
            out[(np.asarray(v) == row).all(axis=-1)] = value
        return out

    def eval_(v):
        rows.append(np.array(v, dtype=float).reshape(-1, obj.dim))
        return marked(obj.eval, v)

    return dataclasses.replace(obj, eval=eval_, floor=lambda v: marked(obj.floor, v))


def evaluated_per_state(run, rows):
    """The particle indices (flat over a batch) whose energies each state of
    ``run`` evaluated, in state order."""
    out = []
    for _, x, _ in run:
        index = {row.tobytes(): i for i, row in enumerate(x.reshape(-1, x.shape[-1]))}
        out.append([index[row.tobytes()] for block in rows for row in block])
        rows.clear()
    return out


def bits(a):
    """The bits of a float array, so that -0.0 and +0.0 differ."""
    return np.asarray(a, dtype=float).view(np.int64)


class TestScreening:
    """With a floor, ConstOne and a free consensus, a state after one with
    few nonzero weights evaluates only the rows that can carry weight,
    whatever its number of row blocks.  Its consensus is reduced over those
    rows alone when each replication has at most two nonzero weights and no
    weighted sum is zero, else over every row; both are bitwise the
    oracle's."""

    DIST = engine.GaussianIsotropic((1.0,), 0.8)
    BATCH_SEEDS = (31, 32, 33)

    def run(self, obj, alpha, n=20000, steps=10, seeds=1, consensus=None):
        p = engine.CboParams(lam=1.0, sigma=0.5, alpha=alpha, dt=0.01, steps=steps,
                             n_particles=n, dim=1, seed=1)
        x0 = engine.sample_initial(self.DIST, n, 1, seeds)
        return engine.states(x0, obj, p, engine.NoiseSource(seeds), consensus=consensus)

    @pytest.mark.parametrize("seeds", [1, (1, 2, 3)])
    def test_large_alpha_evaluates_few_rows_once(self, seeds):
        # the run-recorded shape (N = 20000, d = 1, alpha = 1e15)
        rows = []
        obj = row_counting(objectives.rastrigin(1), rows)
        per_state = evaluated_per_state(self.run(obj, 1e15, seeds=seeds), rows)
        size = 20000 * (1 if isinstance(seeds, int) else len(seeds))
        assert sorted(per_state[0]) == list(range(size))  # state 0 in full
        for index in per_state:
            assert len(set(index)) == len(index)  # no row twice
        assert sum(map(len, per_state[1:])) < 0.01 * size * (len(per_state) - 1)

    def test_one_block_batch_evaluates_few_rows(self):
        # the fig-trajectories batch shape: two runs of 4003 x 2, one row
        # block at the default BLOCK_ROWS
        seeds, rows = (1, 2), []
        assert len(metrics.row_blocks((len(seeds), 4003, 2))) == 1
        p = engine.CboParams(lam=1.0, sigma=0.1, alpha=1e15, dt=0.01, steps=10,
                             n_particles=4003, dim=2, seed=1)
        x0 = engine.sample_initial(engine.GaussianIsotropic((8.0, 8.0), 20.0), 4003, 2, seeds)
        obj = row_counting(objectives.rastrigin(2), rows)
        per_state = evaluated_per_state(engine.states(x0, obj, p, engine.NoiseSource(seeds)),
                                        rows)
        assert len(per_state[0]) == x0.shape[0] * x0.shape[1]  # state 0 in full
        for index in per_state[1:]:
            assert len(index) < 0.01 * len(per_state[0])

    def test_alpha_near_float_max_screens_without_warning(self):
        # -alpha (E - u) overflows to -inf in the cutoff test and in the
        # weights; positions and consensus are still the oracle's
        p = engine.CboParams(lam=1.0, sigma=0.5, alpha=1e308, dt=0.01, steps=3,
                             n_particles=20000, dim=1, seed=1)
        x0 = engine.sample_initial(self.DIST, 20000, 1, 1)
        obj = objectives.rastrigin(1)
        with np.errstate(over="ignore"):
            want = list(oracle.states(x0, obj, p, engine.NoiseSource(1)))
        rows = []
        got = engine.states(x0, row_counting(obj, rows), p, engine.NoiseSource(1))
        for (k, x, c), (_, xw, _, cw) in zip(got, want, strict=True):
            assert np.array_equal(x, xw) and np.array_equal(c, cw), k
            if k:
                assert sum(map(len, rows)) < 200  # screened
            rows.clear()

    def test_moderate_alpha_evaluates_every_row(self):
        rows = []
        obj = row_counting(objectives.rastrigin(1), rows)
        for index in evaluated_per_state(self.run(obj, 30.0), rows):
            assert sorted(index) == list(range(20000))

    def test_pinned_const_one_evaluates_nothing(self):
        rows, floors = [], []
        base = objectives.rastrigin(1)
        obj = dataclasses.replace(row_counting(base, rows),
                                  floor=lambda v: floors.append(1) or base.floor(v))
        pinned = np.zeros((11, 1))
        assert len(list(self.run(obj, 1e15, n=300, consensus=pinned))) == 11
        assert rows == [] and floors == []

    @pytest.mark.parametrize("batch", [False, True])
    @pytest.mark.parametrize("bad, floor_too", [(math.nan, False), (math.inf, True)],
                             ids=["nan-candidate", "inf-floor"])
    def test_nonfinite_energy_names_what_full_evaluation_names(self, batch, bad, floor_too):
        # a non-finite energy from state 2 on at a particle next to its
        # replication's best one.  A NaN with the floor finite: the particle
        # is a candidate of the screened evaluation.  An inf floor with it:
        # the state is evaluated in full, or the row, never a candidate,
        # would go unchecked.  Both name the step, particle and seed that
        # the evaluation of every row names.
        seeds = (31, 32, 33) if batch else 31
        x = np.random.default_rng(5).uniform(0.5, 1.0, (3, 300, 1) if batch else (300, 1))
        mine = x[1] if batch else x
        mine[[17, 250], 0] = 0.0, 1e-9  # the best particle and a close second
        # lam = sigma = 0: positions stay put
        p = engine.CboParams(lam=0.0, sigma=0.0, alpha=1e15, dt=0.1, steps=5,
                             n_particles=300, dim=1, seed=31)

        def fail(obj, poison):
            run = engine.states(x, obj, p, engine.NoiseSource(seeds))
            next(run), next(run)
            poison.append((mine[250].copy(), bad))
            with pytest.raises(NumericDomainError) as err:
                next(run)
            return err.value

        base, poison, full_poison = objectives.rastrigin(1), [], []
        obj = row_counting(base, [], poison)
        if not floor_too:
            obj = dataclasses.replace(obj, floor=base.floor)
        got = fail(obj, poison)
        full = dataclasses.replace(row_counting(base, [], full_poison), floor=None)
        want = fail(full, full_poison)
        assert (got.step, got.particle, got.seed) == (2, 250, 32 if batch else None)
        assert str(got) == str(want)

    def test_weight_near_cutoff_is_evaluated(self):
        # beside the best particle at 0, one whose weight exp(-717.5) is
        # tiny but not zero: it moves the consensus off 0, and its floor,
        # 1.0201 against the energy 1.0250, would give it another weight
        obj = objectives.rastrigin(1)
        x = np.random.default_rng(7).uniform(2.0, 3.0, (300, 1))
        x[[3, 200], 0] = 0.0, 1.01
        p = engine.CboParams(lam=0.0, sigma=0.0, alpha=700.0, dt=0.1, steps=3,
                             n_particles=300, dim=1, seed=0)
        want = oracle.states(x, obj, p, engine.NoiseSource(0))
        got = engine.states(x, obj, p, engine.NoiseSource(0))
        for (k, _, c), (_, _, _, cw) in zip(got, want, strict=True):
            assert c[0] != 0.0 and np.array_equal(c, cw), k

    def test_floor_above_energy_names_particle_and_step(self):
        # a floor that no longer bounds eval, as when eval is replaced and
        # the floor kept
        base = objectives.rastrigin(1)
        obj = dataclasses.replace(base, floor=lambda v: base.floor(v) + 1.0)
        x = np.random.default_rng(6).uniform(0.5, 1.0, (300, 1))
        x[42] = 0.01  # the smallest floor: evaluated, and 1 above its energy
        p = engine.CboParams(lam=0.0, sigma=0.0, alpha=1e15, dt=0.1, steps=3,
                             n_particles=300, dim=1, seed=0)
        with pytest.raises(InvalidInputError) as err:
            list(engine.states(x, obj, p, engine.NoiseSource(0)))
        assert "particle 42" in str(err.value) and "step 1" in str(err.value)

    def test_screened_state_with_many_weights_ends_screening(self, monkeypatch):
        # from state 1 on every energy is 1 (a floor of 0 still bounds it):
        # screened state 1 evaluates all 300 rows, each of weight 1, so
        # state 2 is evaluated in full, without floors
        monkeypatch.setattr(metrics, "BLOCK_ROWS", 64)
        base, flat, floors = objectives.rastrigin(1), [], []
        obj = dataclasses.replace(
            base, eval=lambda v: np.ones(v.shape[:-1]) if flat else base.eval(v),
            floor=lambda v: floors.append(1) or np.zeros(v.shape[:-1]))
        x = np.random.default_rng(3).uniform(0.5, 1.0, (300, 1))
        p = engine.CboParams(lam=0.0, sigma=0.0, alpha=1e15, dt=0.1, steps=3,
                             n_particles=300, dim=1, seed=0)
        floor_calls = []
        for _ in engine.states(x, obj, p, engine.NoiseSource(0)):
            floor_calls.append(len(floors))
            flat.append(1)
        assert floor_calls == [0, 5, 5, 5]  # 5 blocks of 64 rows

    def consensus_paths(self, monkeypatch, x):
        """The numbers of screened states and of consensus points reduced
        over every row (state 0's included) in a run from the positions
        ``x``, (n, 2) or (3, n, 2), with rows far from the best ones drawn
        around (-2.5, 2.5); positions and consensus are checked bitwise
        against the oracle's."""
        screened, full = [], []
        for name, calls in (("_screened_consensus", screened), ("_weighted_mean", full)):
            def spy(*args, fn=getattr(engine, name), calls=calls):
                calls.append(1)
                return fn(*args)
            monkeypatch.setattr(engine, name, spy)
        seeds = self.BATCH_SEEDS if x.ndim == 3 else self.BATCH_SEEDS[0]
        # lam = sigma = 0: positions stay put, up to the sign of a zero
        p = engine.CboParams(lam=0.0, sigma=0.0, alpha=1e15, dt=0.1, steps=3,
                             n_particles=x.shape[-2], dim=2, seed=self.BATCH_SEEDS[0])
        obj = objectives.rastrigin(2)
        want = oracle.states(x, obj, p, engine.NoiseSource(seeds))
        got = engine.states(x, obj, p, engine.NoiseSource(seeds))
        for (k, xg, c), (_, xw, _, cw) in zip(got, want, strict=True):
            assert np.array_equal(bits(xg), bits(xw)), k
            assert np.array_equal(bits(c), bits(cw)), k
        return len(screened), len(full)

    @staticmethod
    def far(shape):
        x = np.random.default_rng(4).uniform(2.0, 3.0, shape + (300, 2))
        x[..., 0] *= -1.0
        return x

    def test_two_equal_energies_sum_over_their_rows(self, monkeypatch):
        # (a, b) and (b, a) have the same Rastrigin energy: two weights of 1
        x = self.far(())
        x[[5, 250]] = (0.3, -0.1), (-0.1, 0.3)
        assert self.consensus_paths(monkeypatch, x) == (3, 1)

    def test_three_nonzero_weights_sum_over_every_row(self, monkeypatch):
        x = self.far(())
        x[[5, 120, 250]] = (0.3, -0.1), (-0.1, 0.3), (0.3, -0.1)
        assert self.consensus_paths(monkeypatch, x) == (3, 4)

    def test_zero_weighted_sum_sums_over_every_row(self, monkeypatch):
        # the best particle's first coordinate is -0.0, like every other
        # row's weighted first coordinate: the sign of a zero sum depends on
        # how numpy starts its reduction, so the state sums over every row
        x = self.far(())
        x[42] = (-0.0, 0.05)
        assert self.consensus_paths(monkeypatch, x) == (3, 4)

    @pytest.mark.parametrize("ties, want", [((1, 2, 1), (3, 1)), ((1, 3, 2), (3, 4))],
                             ids=["every-replication-sparse", "one-replication-not"])
    def test_batch_sums_over_every_row_unless_every_replication_can_not(self, monkeypatch,
                                                                         ties, want):
        # replication r holds ties[r] rows of the best energy
        x = self.far((3,))
        for r, count in enumerate(ties):
            best = [(0.3, -0.1), (-0.1, 0.3), (0.3, -0.1)][:count]
            x[r, [7 * r + 1, 100 + r, 290 - r][:count]] = best
        assert self.consensus_paths(monkeypatch, x) == want


class TestFuzzAgainstOracle:
    @settings(max_examples=250, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def test_states_bitwise_equal_oracle(self, data):
        # positions and consensus bitwise those of the whole-array oracle
        # anywhere in the space of shapes, blocks, alphas, cutoffs and
        # objectives; half the examples are runs whose states after the
        # first can be screened: a free consensus, H = 1, Rastrigin, n >= 64,
        # alpha >= 1e3, with ties and zeros in the best rows
        draw = data.draw
        screenable = draw(st.booleans())
        d = draw(st.integers(1, 10))
        n = draw(st.integers(64, 400) if screenable else st.integers(1, 200))
        reps = draw(st.sampled_from([None, 1, 2, 3]))
        seed = draw(st.integers(0, 2**64 - 1))
        seeds = seed if reps is None else [(seed + r) % 2**64 for r in range(reps)]
        hs = [engine.CONST_ONE] + ([] if screenable else [engine.RampHeaviside(0.5)])
        p = engine.CboParams(
            lam=draw(st.sampled_from([0.0, 1.0, 5.0])),
            sigma=draw(st.sampled_from([0.0, 0.5, 2.0])),
            alpha=10.0 ** draw(st.floats(3 if screenable else -2, 15)),
            dt=draw(st.sampled_from([0.01, 0.1])), steps=draw(st.integers(0, 4)),
            n_particles=n, dim=d, h_variant=draw(st.sampled_from(hs)), seed=seed)
        factories = [objectives.rastrigin] + ([] if screenable else [objectives.quadratic])
        obj = draw(st.sampled_from(factories))(d)
        rng = np.random.default_rng(seed)
        x0 = rng.normal(1.0, 10.0 ** draw(st.floats(-1, 1)), ((reps,) if reps else ()) + (n, d))
        if screenable:
            # a zero coordinate in a replication's best row, or copies of
            # it, make screened states sum their consensus over every row
            for rows in x0.reshape(-1, n, d):
                best = obj.eval(rows).argmin()
                if draw(st.booleans()):
                    rows[best, 0] = 0.0
                rows[:draw(st.integers(0, 3))] = rows[best]
        consensus = None
        if not screenable and draw(st.booleans()):  # pinned
            consensus = rng.normal(0.0, 1.0, (p.steps + 1, d))
        want = oracle.states(x0, obj, p, engine.NoiseSource(seeds), consensus)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metrics, "BLOCK_ROWS", draw(st.sampled_from([7, 64, 8192])))
            got = engine.states(x0, obj, p, engine.NoiseSource(seeds), consensus=consensus)
            for (k, x, c), (_, xw, _, cw) in zip(got, want, strict=True):
                assert np.array_equal(x, xw), k
                assert np.array_equal(c, cw), k

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def test_snapshot_equals_oracle_record(self, data):
        # every field of a record, ball masses included, equals the oracle's
        # whole-array formulas for any shape and block size; one radius may
        # equal a particle's distance, a tie that must count as inside.  In
        # half the examples v* is +-0.0 in each coordinate, where moment4
        # comes from the squared distances to v*
        draw = data.draw
        d, n = draw(st.integers(1, 10)), draw(st.integers(1, 200))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        x = rng.normal(1.0, 10.0 ** draw(st.floats(-1, 1)), (n, d))
        vstar, c = rng.normal(0.0, 1.0, d), rng.normal(0.0, 1.0, d)
        if draw(st.booleans()):
            vstar = np.array(draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=d,
                                           max_size=d)))
        radii = draw(st.lists(st.floats(0.01, 20.0), max_size=3))
        if draw(st.booleans()):
            radii.append(float(np.linalg.norm(x[draw(st.integers(0, n - 1))] - vstar)))
        want = oracle.record(0.5, x, vstar, c, radii)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metrics, "BLOCK_ROWS", draw(st.sampled_from([7, 64, 8192])))
            assert metrics.snapshot(0.5, x, vstar, c, radii) == want

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def test_moment4_stat_equals_oracle(self, data):
        # one value per replication of an (R, n, d) batch, coupled or not,
        # bitwise the oracle's, for any block size
        draw = data.draw
        shape = (draw(st.integers(1, 3)), draw(st.integers(1, 200)), draw(st.integers(1, 10)))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        x = rng.normal(0.0, 10.0 ** draw(st.floats(-1, 1)), shape)
        y = rng.normal(0.0, 10.0 ** draw(st.floats(-1, 1)), shape) if draw(st.booleans()) else None
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metrics, "BLOCK_ROWS", draw(st.sampled_from([7, 64, 8192])))
            assert np.array_equal(metrics.moment4_stat(x, y), oracle.moment4(x, y))

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def test_noise_any_call_order_equals_fresh_generator(self, data):
        # a drawn sequence of calls, steps repeated and shapes changed in
        # any order, draws what a generator built for each step draws
        draw = data.draw
        seed = draw(st.integers(0, 2**64 - 1))
        seeds = seed if draw(st.booleans()) else [(seed + r) % 2**64 for r in range(3)]
        src = engine.NoiseSource(seeds)
        calls = st.tuples(st.integers(0, 3) | st.integers(0, 2**40), st.integers(1, 40),
                          st.integers(1, 4), st.sampled_from([0.01, 0.5]))
        for k, n, d, dt in draw(st.lists(calls, min_size=1, max_size=6)):
            want = np.stack([fresh_increments(s, k, n, d, dt) for s in src.seeds])
            got = src.increments(k, slice(0, n), d, dt)
            assert np.array_equal(got, want if src.shape else want[0])


class TestMaskedExp:
    @pytest.mark.parametrize("alpha", [1.0, 3.7, 1e15])
    def test_weights_bitwise_np_exp(self, alpha):
        # arguments -alpha (e - min e) over [-800, 0], densely within 1 of
        # -745.13 where exp starts to round to 0, kept and dropped entries
        # interleaved at random, in an (R, n) batch
        args = np.concatenate([np.linspace(-800.0, 0.0, 4001),
                               np.linspace(-746.13, -744.13, 4001)])
        rng = np.random.default_rng(8)
        e = rng.permutation(-args / alpha)[:8000].reshape(4, 2000)
        e[:, 0] = 0.0  # every replication holds its minimum
        emin = e.min(axis=-1, keepdims=True)
        got = engine._weights(e, emin, alpha)
        want = np.exp(-alpha * (e - emin))
        kept = want > 0
        assert kept.any() and not kept.all() and not np.array_equal(kept, np.sort(kept))
        assert np.array_equal(got.view(np.int64), want.view(np.int64))  # signed zeros too
        out = np.full_like(e, np.nan)
        assert engine._weights(e, emin, alpha, out=out) is out
        assert np.array_equal(out.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("shape", [(8002,), (4, 2000)])
    def test_weights_masked_by_row_blocks_bitwise_np_exp(self, monkeypatch, shape):
        # the masked exp runs one row block at a time: many blocks, the
        # last one short, one run or a batch
        monkeypatch.setattr(metrics, "BLOCK_ROWS", 64)
        args = np.linspace(-800.0, 0.0, math.prod(shape))
        e = np.random.default_rng(10).permutation(-args / 3.7).reshape(shape)
        emin = e.min(axis=-1, keepdims=True)
        want = np.exp(-3.7 * (e - emin))
        assert (want == 0).any() and (want > 0).any()
        got = engine._weights(e, emin, 3.7)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_weights_overflowing_argument_bitwise_np_exp(self):
        # alpha (e - min e) past the float maximum: the argument is -inf, the
        # exact limit, and its weight +0.0 like np.exp's
        e = np.array([[0.0, 1e-300, 0.5, 2.0, 1e300], [3.0, 2.0, 2.0, 7.0, 2.5]])
        emin = e.min(axis=-1, keepdims=True)
        with np.errstate(over="ignore"):
            arg = -1e308 * (e - emin)
        assert np.isinf(arg).any()
        want = np.exp(arg)
        got = engine._weights(e, emin, 1e308)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_weights_above_cutoff_bitwise_np_exp(self):
        # no argument below the cutoff: exp runs unmasked, across the values
        # where it rounds to the smallest subnormal and to 0
        e = np.random.default_rng(9).permutation(np.linspace(0.0, 745.9, 3000)).reshape(3, 1000)
        emin = e.min(axis=-1, keepdims=True)
        want = np.exp(-(e - emin))
        assert (want == 0).any() and (want > 0).any()
        assert np.array_equal(engine._weights(e, emin, 1.0).view(np.int64), want.view(np.int64))


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
        assert np.array_equal(final_positions(dist, quadratic1(), p),
                              engine.sample_initial(dist, p.n_particles, 1, p.seed))

    def test_zero_steps_single_record(self):
        dist = engine.GaussianIsotropic((0.0,), 1.0)
        series = engine.simulate(dist, quadratic1(), self.params(steps=0))
        assert len(series.records) == 1
        assert series.records[0].t == 0.0

    def test_deterministic_series(self):
        dist = engine.UniformBox((-1.0,), (2.0,))
        p = self.params(steps=15)
        plan = metrics.RecordingPlan(stride=1, ball_radii=(0.5,))
        a = engine.simulate(dist, quadratic1(), p, plan)
        b = engine.simulate(dist, quadratic1(), p, plan)
        assert a.config_digest == b.config_digest
        assert a.endpoint_error == b.endpoint_error
        for ra, rb in zip(a.records, b.records):
            assert ra == rb
        assert np.array_equal(final_positions(dist, quadratic1(), p),
                              final_positions(dist, quadratic1(), p))

    def test_v_monotone_contraction_sigma0(self):
        # sigma = 0 and argmin-sized alpha: pure contraction toward the best
        # particle, so the V-functional never increases
        obj = quadratic1()
        dist = engine.GaussianIsotropic((1.0,), 1.0)
        for seed in range(100):
            p = self.params(sigma=0.0, alpha=1e15, steps=50, n_particles=16, seed=seed)
            v = engine.simulate(dist, obj, p).column("v_func")
            assert np.all(np.diff(v) <= 1e-15)

    def test_recording_stride(self):
        dist = engine.GaussianIsotropic((0.0,), 1.0)
        series = engine.simulate(
            dist, quadratic1(), self.params(steps=20),
            metrics.RecordingPlan(stride=5),
        )
        np.testing.assert_allclose(
            series.column("t"), [0.0, 0.05, 0.10, 0.15, 0.20], atol=1e-15
        )

    def test_endpoint_error_matches_final_mean(self):
        dist = engine.GaussianIsotropic((1.0,), 0.5)
        series = engine.simulate(dist, quadratic1(), self.params())
        gap = final_positions(dist, quadratic1(), self.params()).mean(axis=0)  # v* = 0
        np.testing.assert_allclose(series.endpoint_error, float(gap @ gap), rtol=1e-12)

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
