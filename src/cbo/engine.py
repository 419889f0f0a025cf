"""Particle dynamics: initial positions, stabilized consensus point, and the
state iterator ``states``, the one stepping loop that drives every run with
explicit Euler-Maruyama steps, and the simulation with metrics recording.

The update for agent i with step size dt reads

    V_i  <-  V_i - dt * lam * (V_i - c) * H(E(V_i) - E(c))
                 + sigma * ||V_i - c||_2 * B_i,

where ``c`` is the consensus point frozen from the step's input snapshot and
``B_i ~ N(0, dt * I_d)``.  Gaussian increments for step k are a pure
function of (seed, k, particle row) via counter-based Philox streams, so
runs are deterministic and independent of particle update order or thread
count.

Positions may carry a leading replication axis, (R, n, d): every reduction
runs over the particle axis, so a batch of R independent runs steps as one
array with the same arithmetic, bit for bit, as R separate (n, d) runs.

``states`` takes each state through three layers, one call each: its
energies, its consensus point and the step.  Only the energy layer calls
the objective, the ramp's E(c) included.  At large alpha nearly every
consensus weight rounds to exactly zero; for an objective with a ``floor``
(an exact lower bound of its energy), the energy layer then evaluates the
objective only on the rows whose weight can be nonzero, and the consensus
stays bitwise that of every row's energy.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import (
    ConfigError,
    DivergenceError,
    InvalidInputError,
    NumericDomainError,
    SimulationError,
)
from .metrics import MetricsSeries, RecordingPlan, row_blocks, snapshot

__all__ = [
    "ConstOne",
    "RampHeaviside",
    "CONST_ONE",
    "HVariant",
    "CboParams",
    "contraction_rate",
    "GaussianIsotropic",
    "UniformBox",
    "InitDistribution",
    "NoiseSource",
    "sample_initial",
    "consensus_point",
    "h_eval",
    "states",
    "simulate",
    "SimulationResult",
]


# ---------------------------------------------------------------------------
# drift cutoff H


@dataclass(frozen=True)
class ConstOne:
    """H identically 1 (the drift is never deactivated)."""


@dataclass(frozen=True)
class RampHeaviside:
    """Lipschitz ramp: H(x) = 1 for x >= 0, max(0, 1 + x/delta) for x < 0.

    The Lipschitz constant is 1/delta.
    """

    delta: float

    def __post_init__(self):
        if not self.delta > 0:
            raise ConfigError(f"ramp delta must be positive, got {self.delta}")


HVariant = Union[ConstOne, RampHeaviside]
CONST_ONE = ConstOne()


def h_eval(variant, x):
    """Evaluate the drift cutoff at x; returns values in [0, 1]."""
    x = np.asarray(x, dtype=float)
    if isinstance(variant, ConstOne):
        out = np.ones_like(x)
    elif isinstance(variant, RampHeaviside):
        out = np.where(x >= 0.0, 1.0, np.maximum(0.0, 1.0 + x / variant.delta))
    else:
        raise ConfigError(f"unknown H variant {variant!r}")
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# parameters and state


def _check_seed(seed):
    if not isinstance(seed, (int, np.integer)) or not 0 <= int(seed) < 2**64:
        raise ConfigError(f"seed must be an unsigned 64-bit integer, got {seed!r}")
    return int(seed)


@dataclass(frozen=True)
class CboParams:
    """All scalars of the scheme.

    ``lam`` is the drift strength, ``sigma`` the diffusion strength,
    ``alpha`` the weight exponent, ``dt`` the step size, ``steps`` the step
    count, ``n_particles`` and ``dim`` the ensemble shape.
    """

    lam: float
    sigma: float
    alpha: float
    dt: float
    steps: int
    n_particles: int
    dim: int
    h_variant: HVariant = CONST_ONE
    seed: int = 0

    def __post_init__(self):
        if not self.lam >= 0:
            raise ConfigError(f"lam must be >= 0, got {self.lam}")
        if not self.sigma >= 0:
            raise ConfigError(f"sigma must be >= 0, got {self.sigma}")
        if not self.alpha > 0:
            raise ConfigError(f"alpha must be > 0, got {self.alpha}")
        if not self.dt > 0:
            raise ConfigError(f"dt must be > 0, got {self.dt}")
        if self.steps < 0:
            raise ConfigError(f"steps must be >= 0, got {self.steps}")
        if self.n_particles < 1:
            raise ConfigError(f"n_particles must be >= 1, got {self.n_particles}")
        if self.dim < 1:
            raise ConfigError(f"dim must be >= 1, got {self.dim}")
        _check_seed(self.seed)

    @property
    def contractive(self):
        """Whether 2 lam > dim sigma^2 (drift beats isotropic diffusion)."""
        return contraction_rate(self.lam, self.sigma, self.dim) > 0


def contraction_rate(lam, sigma, d):
    """2 lam - d sigma^2, the decay rate of the V-functional."""
    return 2.0 * lam - d * sigma**2


@dataclass(frozen=True)
class GaussianIsotropic:
    mean: tuple
    variance: float

    def __post_init__(self):
        if not self.variance > 0:
            raise ConfigError(f"variance must be positive, got {self.variance}")


@dataclass(frozen=True)
class UniformBox:
    lo: tuple
    hi: tuple

    def __post_init__(self):
        lo, hi = np.asarray(self.lo, dtype=float), np.asarray(self.hi, dtype=float)
        if lo.shape == hi.shape and not np.all(lo < hi):
            raise ConfigError("degenerate box: lo < hi must hold componentwise")


InitDistribution = Union[GaussianIsotropic, UniformBox]


# ---------------------------------------------------------------------------
# reproducible noise

_INIT_TAG = 0
_DYNAMICS_TAG = 1


def _seed_tuple(seeds):
    """``seeds``, an int or a sequence of ints, as a tuple, and the leading
    shape of the arrays drawn for them: () for an int, (R,) for R seeds."""
    if isinstance(seeds, (int, np.integer)):
        return (_check_seed(seeds),), ()
    seeds = tuple(_check_seed(s) for s in seeds)
    return seeds, (len(seeds),)


class NoiseSource:
    """Deterministic N(0, dt I) increments: (n, dim) per step for an int
    seed, (R, n, dim) for a sequence of R seeds, whose row r is bitwise the
    draw of ``NoiseSource(seeds[r])``.

    Each step owns a disjoint Philox counter block, so any step's increments
    can be drawn in any order without replaying the stream.  The source
    owns one buffer: a call for another step than the one drawn last draws
    into it, overwriting the previous draw, and a new buffer is made only
    when (n, dim) changes; a repeated call returns that step's array without
    drawing again.  So iterators that step the same runs in lockstep share
    each step's draw and one buffer for the whole run.  An instance has
    state, so do not share it between threads.
    """

    def __init__(self, seeds):
        self.seeds, self.shape = _seed_tuple(seeds)
        # each draw sets the key and counter of a fresh generator's state
        self._bitgen = np.random.Philox(0)
        self._gen = np.random.Generator(self._bitgen)
        self._state = self._bitgen.state
        self._drawn = self._buf = None

    def increments(self, step, n, dim, dt):
        """The increments of the given step, ``self.shape + (n, dim)``, valid
        until the next call for another step."""
        if self._drawn != (step, n, dim, dt):
            if self._buf is None or self._buf.shape[-2:] != (n, dim):
                self._buf = np.empty(self.shape + (n, dim))
            state = self._state["state"]
            state["counter"][:] = (0, 0, 0, step)
            for seed, row in zip(self.seeds, self._buf if self.shape else (self._buf,)):
                state["key"][:] = (seed, _DYNAMICS_TAG)
                self._bitgen.state = self._state
                self._gen.standard_normal(out=row)
            self._buf *= math.sqrt(dt)
            self._drawn = (step, n, dim, dt)
        return self._buf


def sample_initial(dist, n, dim, seeds):
    """Draw n i.i.d. initial positions from the given distribution: an
    (n, dim) array for an int seed, or an (R, n, dim) array for a sequence
    of R seeds, whose row r is bitwise ``sample_initial(dist, n, dim,
    seeds[r])``.  Deterministic given the seeds."""
    seeds, shape = _seed_tuple(seeds)
    if n < 1 or dim < 1:
        raise ConfigError(f"need n >= 1 and dim >= 1, got n={n}, dim={dim}")
    if isinstance(dist, GaussianIsotropic):
        mean = np.asarray(dist.mean, dtype=float)
        if mean.shape != (dim,):
            raise ConfigError(f"mean has shape {mean.shape}, expected ({dim},)")
        shift, scale, draw = mean, math.sqrt(dist.variance), np.random.Generator.standard_normal
    elif isinstance(dist, UniformBox):
        lo = np.asarray(dist.lo, dtype=float)
        hi = np.asarray(dist.hi, dtype=float)
        if lo.shape != (dim,) or hi.shape != (dim,):
            raise ConfigError(
                f"box bounds have shapes {lo.shape}/{hi.shape}, expected ({dim},)"
            )
        shift, scale, draw = lo, hi - lo, np.random.Generator.random
    else:
        raise ConfigError(f"unknown initial distribution {dist!r}")
    x = np.empty(shape + (n, dim))
    for seed, row in zip(seeds, x if shape else (x,)):
        key = np.array([seed, _INIT_TAG], dtype=np.uint64)
        draw(np.random.Generator(np.random.Philox(key=key)), out=row)
        # shift + scale * draw, computed in place
        row *= scale
        row += shift
    return x


# ---------------------------------------------------------------------------
# consensus point and one step


# np.exp(a) rounds to +0.0 for every a < -745.14, and it takes a slow path
# when its result underflows: at alpha ~ 1e15 nearly every weight does
_EXP_ZERO_BELOW = -746.0


def _locate(bad, seeds):
    """The first True of a mask over particles, (n,), or over replications
    and particles, (R, n): its particle index, its replication's seed (None
    without a batch axis or ``seeds``) and words naming the replication."""
    j, i = divmod(int(np.argmax(bad)), bad.shape[-1])
    if bad.ndim == 1:
        return i, None, ""
    seed = None if seeds is None else seeds[j]
    return i, seed, f" of replication {j}" + ("" if seed is None else f" (seed {seed})")


def _nonfinite_energy(e, step, seeds):
    i, seed, rep = _locate(~np.isfinite(e), seeds)
    where = "" if step is None else f" at step {step}"
    return NumericDomainError(
        f"non-finite energy at particle {i}{rep}{where}", step=step, particle=i, seed=seed
    )


def _eval_rows(fn, rows, e, s):
    """``fn`` of ``rows`` (the objective's ``eval`` or ``floor``) into
    ``e[..., s]``: its minimum per replication, or None if one of its values
    is not finite."""
    # overflow to inf is caught by the caller's finiteness guard
    with np.errstate(over="ignore", invalid="ignore"):
        eb = np.asarray(fn(rows), dtype=float)
    e[..., s] = eb
    return eb.min(axis=-1, keepdims=True) if np.isfinite(eb).all() else None


def _energies(obj, x, e, step, seeds, blocks):
    """Energies of the positions ``x`` into ``e``, evaluated one row block
    of ``blocks`` at a time, and their minimum per replication, (1,) or
    (R, 1)."""
    mins = [_eval_rows(obj.eval, x[..., s, :], e, s) for s in blocks]
    if any(m is None for m in mins):
        raise _nonfinite_energy(e, step, seeds)
    return functools.reduce(np.minimum, mins)


def _screened_energies(obj, x, e, alpha, w, step, seeds, blocks):
    """The minimum energy per replication of the positions ``x``, from the
    energies of only those rows that can be the minimum or carry a nonzero
    weight.  Every row's floor is written into ``e``, one row block of
    ``blocks`` at a time, and the energies of those rows overwrite their
    floors; ``w`` (shaped like ``e``) is the weights' workspace.  If a floor
    is not finite, every row's energy is evaluated (``_energies``).

    Let u be the energy of a replication's row of smallest floor.  A row
    with -alpha (floor - u) <= _EXP_ZERO_BELOW has E >= floor > u >= E_min:
    it is not the minimum, and ``_weights`` turns its floor, like its
    energy, into exactly +0.0.  Each row is evaluated at most once."""
    # every block's floor before the test, like every block's energy
    if any([_eval_rows(obj.floor, x[..., s, :], e, s) is None for s in blocks]):
        return _energies(obj, x, e, step, seeds, blocks)
    n, d = x.shape[-2:]
    xf, ef = x.reshape(-1, d), e.reshape(-1)  # views of the engine's workspace
    first = e.reshape(-1, n).argmin(axis=-1) + np.arange(0, ef.size, n)
    with np.errstate(over="ignore", invalid="ignore"):
        u = np.asarray(obj.eval(xf[first]), dtype=float)
    # the cutoff test in the operation order of _weights
    np.subtract(e, u.reshape(e.shape[:-1] + (1,)), out=w)
    w *= -alpha
    candidate = w.reshape(-1) > _EXP_ZERO_BELOW
    candidate[first] = False  # evaluated already
    rest = np.flatnonzero(candidate)
    with np.errstate(over="ignore", invalid="ignore"):
        er = np.concatenate([u, np.asarray(obj.eval(xf[rest]), dtype=float)])
    rows = np.concatenate([first, rest])
    below = er < ef[rows]
    ef[rows] = er
    if not np.isfinite(er).all():
        raise _nonfinite_energy(e, step, seeds)
    if below.any():
        bad = np.zeros(ef.shape, dtype=bool)
        bad[rows[below]] = True
        i, _, rep = _locate(bad.reshape(e.shape), seeds)
        raise InvalidInputError(
            f"objective floor above the energy at particle {i}{rep} at step {step}: "
            "a floor must bound eval"
        )
    return e.min(axis=-1, keepdims=True)


def _weights(energies, emin, alpha, out=None):
    """exp(-alpha (energies - emin)), bitwise as np.exp computes it, into
    ``out`` (a new array when None)."""
    w = np.subtract(energies, emin, out=out)
    w *= -alpha
    if w.min() > _EXP_ZERO_BELOW:  # a masked exp is slower when it masks nothing
        return np.exp(w, out=w)
    # exp runs only where it does not round to zero; max() then turns the
    # arguments left elsewhere into exact +0.0
    np.exp(w, out=w, where=w > _EXP_ZERO_BELOW)
    return np.maximum(w, 0.0, out=w)


def _weighted_consensus(x, energies, emin, alpha, w=None, xw=None):
    # Shifting by the minimum energy leaves the weighted mean exactly
    # invariant and keeps at least one weight equal to 1, so the softmax
    # never underflows to an empty sum even for alpha ~ 1e15.  If every
    # non-minimal weight underflows, this degrades gracefully to the mean
    # of the energy-minimizing particles.  ``emin`` is the minimum per
    # replication, ``w`` and ``xw`` optional buffers for the weights and the
    # weighted positions.
    w = _weights(energies, emin, alpha, out=w)
    return np.multiply(x, w[..., None], out=xw).sum(axis=-2) / w.sum(axis=-1)[..., None]


def consensus_point(x, energies, alpha):
    """The omega_alpha-weighted mean of the positions ``x`` with the caller's
    ``energies``, stabilized by the minimal energy shift; exact up to rounding
    for any alpha > 0.  One point per replication, (R, dim), for a batch."""
    if not np.isfinite(energies).all():
        raise _nonfinite_energy(energies, None, None)
    return _weighted_consensus(x, energies, energies.min(axis=-1, keepdims=True), float(alpha))


def _step(x, out, params, c, e, e_c, increments, step, seeds, blocks):
    """Write the positions of state ``step + 1`` into ``out`` (which may be
    ``x`` itself) from the positions ``x`` of state ``step`` and its
    consensus point ``c`` ((dim,), or (R, dim) per replication of a batch).
    For H other than ConstOne it reads the energies ``e`` of the state and
    ``e_c`` of its consensus point; ``e_c`` is None for ConstOne.

    The update runs one row block of ``blocks`` at a time.  Every row is
    computed as a whole-array step would compute it, so the result does not
    depend on the block size; errors name the first failing particle of the
    whole array.
    """
    c = c[..., None, :]  # broadcasts over the particle axis
    diverged = False
    for s in blocks:
        xb, new = x[..., s, :], out[..., s, :]
        # x - dt lam H (x - c) + (sigma |x - c|) inc, with one buffer for
        # x - c, then the drift, then the noise term
        diff = xb - c
        # overflow to non-finite coordinates is caught by the divergence guard
        with np.errstate(over="ignore", invalid="ignore"):
            dist = np.sqrt((diff * diff).sum(axis=-1))
            diff *= params.dt * params.lam
        if e_c is not None:
            diff *= h_eval(params.h_variant, e[..., s] - e_c)[..., None]
        with np.errstate(over="ignore", invalid="ignore"):
            np.subtract(xb, diff, out=new)
            dist *= params.sigma
            new += np.multiply(dist[..., None], increments[..., s, :], out=diff)
        diverged |= not np.isfinite(new).all()
    if diverged:
        i, seed, rep = _locate(~np.isfinite(out).all(axis=-1), seeds)
        raise DivergenceError(
            f"non-finite coordinates of particle {i}{rep} after step {step}",
            step=step, particle=i, seed=seed,
        )


# A state is screened (``_screened_energies``) only when it spans more than
# one row block and at most this share of the previous state's weights is
# nonzero.  Screening adds some 40 numpy calls per state, which at one
# block or less cost more than the evaluations they save, most of all when
# runs share the interpreter lock in the fig-trajectories fan-out (4003 x 2
# at alpha = 1e15, two runs in two threads: 1.13x the time).  And where
# most rows pass the floor test, screening costs more than evaluating
# every row; the test passes many more rows than carry weight.  Rastrigin
# over 200 steps from N((1, ..), 0.8), 20000 x 1 and 20000 x 2:
#   alpha = 30: nonzero share >= 0.9998 and >= 0.03: never screened;
#   alpha = 1e3: 0.06-0.60 (1-D, where 42-99 % of rows pass the test:
#     never screened) and <= 0.0014 (2-D, 0.2-12 % pass: screened);
#   alpha = 1e15: about 1e-4 (at most 1.4 % pass): every state after the
#     first screened.
# Interleaved against evaluating every row, the run takes 1.02x and 1.01x
# the time at alpha = 30, 1.00x and 0.71x at 1e3, 0.72x and 0.70x at 1e15.
_SCREEN_SHARE = 1.0 / 64.0


def states(x, obj, params, noise, consensus=None):
    """Yield ``(k, positions, consensus)`` for the states k = 0..steps
    reached from the positions ``x``, evaluating each state's energies and
    consensus once and reusing them in the step to state k + 1.  A pinned
    ``consensus`` is indexed by k; with ``ConstOne`` it needs no energies.

    ``x`` is (n, dim) for a ``NoiseSource`` of one seed, or a batch (R, n,
    dim) for one of R seeds, which steps R replications bit for bit as R
    separate runs: a free consensus is then (R, dim), each pinned entry is
    shared by every replication, and errors name the failing replication's
    seed.

    The energies and the step run over cache-sized row blocks
    (``metrics.row_blocks``), so ``obj.eval`` must compute each row's
    energy from that row alone.  With a free consensus, ``ConstOne`` and
    an objective with a ``floor``, a state of more than one block after one
    with few nonzero weights is screened: its floors are written, and only
    the rows whose weight can be nonzero are evaluated, in one call.  A
    ramp H's E(c) is evaluated just before the step that reads it.  The
    step works in place, in a workspace that lives until the last state,
    and reads each step's increments from ``noise.increments(k, n, dim,
    dt)``, the source's one buffer (two iterators stepping one
    ``NoiseSource`` in lockstep share it).  So the yielded positions stay
    valid only until the iterator is resumed; copy them to keep them, and
    do not modify them.  State 0 is the caller's array, never written and
    let go of after the first step.  A yielded consensus is a new array (or
    the pinned entry) each state.  ``noise`` holds generator state, so a
    run in each thread needs its own."""
    x = np.asarray(x, dtype=float)
    if x.ndim != len(noise.shape) + 2 or x.shape[:-2] != noise.shape or 0 in x.shape[:-1]:
        want = f"(R, n, dim) for R = {len(noise.seeds)} seeds" if noise.shape else "(n, dim)"
        raise ConfigError(f"positions must be {want}, with n, R >= 1, got shape {x.shape}")
    n, d = x.shape[-2:]
    if obj.dim != d:
        raise ConfigError(f"objective dim {obj.dim} != ensemble dim {d}")
    blocks = row_blocks(x.shape)
    free = consensus is None
    if not free:
        consensus = np.asarray(consensus, dtype=float)
    const_one = isinstance(params.h_variant, ConstOne)
    e = w = xw = None
    if free or not const_one:
        e = np.empty(x.shape[:-1])
    if free:  # the weights and the weighted positions
        w, xw = np.empty(x.shape[:-1]), np.empty(x.shape)
    screening = free and const_one and obj.floor is not None and len(blocks) > 1
    screen = False  # state 0 is evaluated in full
    for k in range(params.steps + 1):
        if k:
            e_c = None
            if not const_one:  # the ramp's E(c), named by the step that reads it
                e_c = np.asarray(obj.eval(c[..., None, :]), dtype=float)
                bad = ~np.isfinite(e_c)
                if bad.any():
                    _, seed, rep = _locate(bad, noise.seeds)
                    raise NumericDomainError(
                        f"non-finite energy at the consensus point{rep} at step {k - 1}",
                        step=k - 1, seed=seed,
                    )
            # the workspace from the first step on; the caller's state 0
            # stays as it is
            new = np.empty(x.shape) if k == 1 else x
            _step(x, new, params, c, e, e_c, noise.increments(k - 1, n, d, params.dt),
                  k - 1, noise.seeds, blocks)
            x = new
        if e is not None:
            emin = (_screened_energies(obj, x, e, params.alpha, w, k, noise.seeds, blocks)
                    if screen else _energies(obj, x, e, k, noise.seeds, blocks))
        if free:
            c = _weighted_consensus(x, e, emin, params.alpha, w, xw)
            # a weight is never -0.0, so its bits are zero where it is zero,
            # and counting them is cheaper than counting floats
            screen = screening and np.count_nonzero(w.view(np.int64)) <= _SCREEN_SHARE * w.size
        else:
            c = consensus[k]
        if k == params.steps:
            # the last state holds only its positions
            e = w = xw = noise = None
        yield k, x, c


# ---------------------------------------------------------------------------
# full simulation


@dataclass
class SimulationResult:
    series: MetricsSeries
    final: np.ndarray  # the positions of the last state


def config_digest(dist, obj, params, plan):
    """Stable digest of a run configuration (identifies a deterministic run)."""
    minimizer = () if obj.minimizer is None else tuple(map(float, obj.minimizer))
    parts = (
        "objective", obj.name, obj.dim, minimizer,
        "init", repr(dist),
        "params", params.lam, params.sigma, params.alpha, params.dt,
        params.steps, params.n_particles, params.dim, repr(params.h_variant),
        params.seed,
        "recording", plan.stride, tuple(map(float, plan.ball_radii)),
    )
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def simulate(dist, obj, params, record=RecordingPlan()):
    """Run the scheme for ``params.steps`` steps and collect metrics.

    Records the t = 0 state and then every ``record.stride`` steps.  When the
    objective has a known minimizer, the squared distance of the final
    ensemble mean to it is reported as ``endpoint_error``.  Fully
    deterministic given (config, seed); on a failure after the first record
    the partial series is attached to the raised error.
    """
    digest = config_digest(dist, obj, params, record)
    # no reference to state 0 outlives the iterator's own
    run = states(sample_initial(dist, params.n_particles, params.dim, params.seed),
                 obj, params, NoiseSource(params.seed))
    records = []
    try:
        for k, x, c in run:
            if k % record.stride == 0:
                records.append(snapshot(k * params.dt, x, obj.minimizer, c, record.ball_radii))
    except SimulationError as err:
        if records:
            err.partial_series = MetricsSeries(records, None, digest)
        raise
    endpoint = None
    if obj.minimizer is not None:
        gap = x.mean(axis=0) - obj.minimizer
        endpoint = float(np.dot(gap, gap))
    series = MetricsSeries(records, endpoint, digest)
    return SimulationResult(series=series, final=x)
