"""Particle dynamics: ensemble state, stabilized consensus point, one
explicit Euler-Maruyama step, the state iterator every run is driven by,
and the simulation with metrics recording.

The update for agent i with step size dt reads

    V_i  <-  V_i - dt * lam * (V_i - c) * H(E(V_i) - E(c))
                 + sigma * ||V_i - c||_2 * B_i,

where ``c`` is the consensus point frozen from the step's input snapshot and
``B_i ~ N(0, dt * I_d)``.  Gaussian increments for step k are a pure
function of (seed, stream, k, particle row) via counter-based Philox
streams, so runs are deterministic and independent of particle update
order or thread count.

Positions may carry a leading replication axis, (R, n, d): every reduction
runs over the particle axis, so a batch of R independent runs steps as one
array with the same arithmetic, bit for bit, as R separate (n, d) runs.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ConfigError, DivergenceError, NumericDomainError, SimulationError
from .metrics import MetricsSeries, RecordingPlan, snapshot

__all__ = [
    "ConstOne",
    "RampHeaviside",
    "CONST_ONE",
    "HVariant",
    "CboParams",
    "Ensemble",
    "GaussianIsotropic",
    "UniformBox",
    "InitDistribution",
    "NoiseSource",
    "NoiseBatch",
    "sample_initial",
    "consensus_point",
    "h_eval",
    "cbo_step",
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


def _check_seed(seed, what="seed"):
    if not isinstance(seed, (int, np.integer)) or not 0 <= int(seed) < 2**64:
        raise ConfigError(f"{what} must be an unsigned 64-bit integer, got {seed!r}")
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
        return 2.0 * self.lam > self.dim * self.sigma**2


@dataclass
class Ensemble:
    """N particle positions in R^d at one time instant (rows are agents), or
    a batch of R such ensembles stacked on a leading axis, (R, n, dim)."""

    positions: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float)
        if self.positions.ndim not in (2, 3) or 0 in self.positions.shape[:-1]:
            raise ConfigError(
                f"positions must be an (n, dim) matrix or an (R, n, dim) batch with "
                f"n, R >= 1, got shape {self.positions.shape}"
            )

    @property
    def dim(self):
        return self.positions.shape[-1]


@dataclass(frozen=True)
class GaussianIsotropic:
    mean: tuple
    variance: float


@dataclass(frozen=True)
class UniformBox:
    lo: tuple
    hi: tuple


InitDistribution = Union[GaussianIsotropic, UniformBox]


# ---------------------------------------------------------------------------
# reproducible noise

_INIT_TAG = 0
_DYNAMICS_TAG = 1


def _philox(seed, tag, stream, block):
    key = np.array([seed, tag], dtype=np.uint64)
    counter = np.array([0, 0, stream, block], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


class NoiseSource:
    """Deterministic Gaussian increment source for one (seed, stream) pair.

    Each step index owns a disjoint counter block, so increments can be
    regenerated for any step, in any order, without replaying the stream.
    An instance holds one Philox generator whose counter every call resets
    to the step's block: it has state, so do not share an instance between
    threads.
    """

    def __init__(self, seed, stream=0):
        self.seed = _check_seed(seed)
        self.stream = _check_seed(stream, "stream")
        self._bitgen = np.random.Philox(key=np.array([self.seed, _DYNAMICS_TAG], dtype=np.uint64))
        self._gen = np.random.Generator(self._bitgen)
        # the state of a freshly keyed generator: empty output buffer
        self._state = self._bitgen.state

    def increments(self, step, n, dim, dt, out=None):
        """The (n, dim) matrix of N(0, dt I) increments for the given step,
        drawn into ``out`` (a C-contiguous float (n, dim) array) when given."""
        self._state["state"]["counter"][:] = (0, 0, self.stream, step)
        self._bitgen.state = self._state
        if out is None:
            return self._gen.standard_normal((n, dim)) * math.sqrt(dt)
        self._gen.standard_normal(out=out)
        out *= math.sqrt(dt)
        return out


class NoiseBatch:
    """Increments of a batch of replications: row r of each (R, n, dim)
    draw is, bitwise, the draw of ``NoiseSource(seeds[r])``.

    A repeated call for the step drawn last returns the same array without
    drawing again, so iterators that step the same replications in lockstep
    share each step's draw; a call for another step draws a new array.
    Like a ``NoiseSource``, an instance holds state: do not share it
    between threads.
    """

    def __init__(self, seeds):
        self._sources = [NoiseSource(s) for s in seeds]
        self.seeds = tuple(src.seed for src in self._sources)
        self._drawn = self._buf = None

    def increments(self, step, n, dim, dt):
        """The (R, n, dim) increments of every replication for the given step."""
        if self._drawn != (step, n, dim, dt):
            self._buf = np.empty((len(self._sources), n, dim))
            for src, row in zip(self._sources, self._buf):
                src.increments(step, n, dim, dt, out=row)
            self._drawn = (step, n, dim, dt)
        return self._buf


def sample_initial(dist, n, dim, seed, stream=0):
    """Draw n i.i.d. initial positions from the given distribution.

    Deterministic given (seed, stream); the returned ensemble has time 0.
    """
    if n < 1 or dim < 1:
        raise ConfigError(f"need n >= 1 and dim >= 1, got n={n}, dim={dim}")
    gen = _philox(_check_seed(seed), _INIT_TAG, _check_seed(stream, "stream"), 0)
    if isinstance(dist, GaussianIsotropic):
        mean = np.asarray(dist.mean, dtype=float)
        if mean.shape != (dim,):
            raise ConfigError(f"mean has shape {mean.shape}, expected ({dim},)")
        if not dist.variance > 0:
            raise ConfigError(f"variance must be positive, got {dist.variance}")
        x = mean + math.sqrt(dist.variance) * gen.standard_normal((n, dim))
    elif isinstance(dist, UniformBox):
        lo = np.asarray(dist.lo, dtype=float)
        hi = np.asarray(dist.hi, dtype=float)
        if lo.shape != (dim,) or hi.shape != (dim,):
            raise ConfigError(
                f"box bounds have shapes {lo.shape}/{hi.shape}, expected ({dim},)"
            )
        if not np.all(lo < hi):
            raise ConfigError("degenerate box: lo < hi must hold componentwise")
        x = lo + (hi - lo) * gen.random((n, dim))
    else:
        raise ConfigError(f"unknown initial distribution {dist!r}")
    return Ensemble(x, time=0.0)


# ---------------------------------------------------------------------------
# consensus point and one step


def _locate(bad, seeds):
    """The first True of a mask over particles, (n,), or over replications
    and particles, (R, n): its particle index, its replication's seed (None
    without a batch axis or ``seeds``) and words naming the replication."""
    j, i = divmod(int(np.argmax(bad)), bad.shape[-1])
    if bad.ndim == 1:
        return i, None, ""
    seed = None if seeds is None else seeds[j]
    return i, seed, f" of replication {j}" + ("" if seed is None else f" (seed {seed})")


def _energies(obj, x, step=None, seeds=None):
    # overflow to inf is caught by the finiteness guard below
    with np.errstate(over="ignore", invalid="ignore"):
        e = np.asarray(obj.eval(x), dtype=float)
    bad = ~np.isfinite(e)
    if bad.any():
        i, seed, rep = _locate(bad, seeds)
        where = "" if step is None else f" at step {step}"
        raise NumericDomainError(
            f"non-finite energy at particle {i}{rep}{where}", step=step, particle=i, seed=seed
        )
    return e


def _weighted_consensus(x, energies, alpha):
    # Shifting by the minimum energy leaves the weighted mean exactly
    # invariant and keeps at least one weight equal to 1, so the softmax
    # never underflows to an empty sum even for alpha ~ 1e15.  If every
    # non-minimal weight underflows, this degrades gracefully to the mean
    # of the energy-minimizing particles.
    w = np.exp(-alpha * (energies - energies.min(axis=-1, keepdims=True)))
    return (x * w[..., None]).sum(axis=-2) / w.sum(axis=-1)[..., None]


def consensus_point(ens, obj, alpha):
    """The omega_alpha-weighted mean of the ensemble, stabilized by the
    minimal energy shift; exact up to rounding for any alpha > 0.  One point
    per replication, (R, dim), for a batch."""
    if obj.dim != ens.dim:
        raise ConfigError(f"objective dim {obj.dim} != ensemble dim {ens.dim}")
    x = ens.positions
    return _weighted_consensus(x, _energies(obj, x), float(alpha))


def _step(x, obj, params, c, energies, increments, step, seeds=None):
    """Positions of state ``step + 1`` from the positions ``x`` of state
    ``step``, its consensus point ``c`` ((dim,), or (R, dim) per replication
    of a batch) and its ``energies`` (read only when H is not ConstOne)."""
    if increments.shape != x.shape:
        raise ConfigError(f"increments have shape {increments.shape}, expected {x.shape}")
    c = c[..., None, :]  # broadcasts over the particle axis
    diff = x - c
    with np.errstate(over="ignore", invalid="ignore"):
        drift = (params.dt * params.lam) * diff
    if not isinstance(params.h_variant, ConstOne):
        e_c = np.asarray(obj.eval(c), dtype=float)
        bad = ~np.isfinite(e_c)
        if bad.any():
            _, seed, rep = _locate(bad, seeds)
            raise NumericDomainError(
                f"non-finite energy at the consensus point{rep} at step {step}",
                step=step, seed=seed,
            )
        drift *= h_eval(params.h_variant, energies - e_c)[..., None]

    # overflow to non-finite coordinates is caught by the divergence guard
    with np.errstate(over="ignore", invalid="ignore"):
        dist = np.sqrt((diff * diff).sum(axis=-1))
        new = x - drift + params.sigma * dist[..., None] * increments
    if not np.isfinite(new).all():
        i, seed, rep = _locate(~np.isfinite(new).all(axis=-1), seeds)
        raise DivergenceError(
            f"non-finite coordinates of particle {i}{rep} after step {step}",
            step=step, particle=i, seed=seed,
        )
    return new


def cbo_step(ens, obj, params, noise=None, increments=None, consensus=None,
             energies=None, step=0):
    """One explicit Euler-Maruyama step from state ``step`` to ``step + 1``.

    The consensus point is computed once from the input state (or pinned via
    ``consensus``); all particles then update independently.  ``energies``
    of the input state are reused when given.  Increments can be supplied
    explicitly (shaped like the positions, already scaled to variance dt)
    for coupled runs, otherwise they come from ``noise`` at this step index.
    ``noise`` holds generator state, so give each thread its own.

    Positions may carry a replication axis, (R, n, dim), as in ``states``;
    a pinned ``consensus`` is then (dim,) or one point per replication,
    (R, dim), and errors name the seed of a ``NoiseBatch``'s replication.
    """
    x = ens.positions
    d = x.shape[-1]
    if obj.dim != d:
        raise ConfigError(f"objective dim {obj.dim} != ensemble dim {d}")
    seeds = getattr(noise, "seeds", None)
    if energies is None and (consensus is None or not isinstance(params.h_variant, ConstOne)):
        energies = _energies(obj, x, step, seeds)
    if consensus is None:
        c = _weighted_consensus(x, energies, params.alpha)
    else:
        c = np.asarray(consensus, dtype=float)
        if c.shape not in ((d,), x.shape[:-2] + (d,)):
            want = f"({d},)" if x.ndim == 2 else f"({d},) or {x.shape[:-2] + (d,)}"
            raise ConfigError(f"consensus has shape {c.shape}, expected {want}")
    if increments is None:
        if noise is None:
            raise ConfigError("cbo_step needs a NoiseSource or explicit increments")
        increments = noise.increments(step, *x.shape[-2:], params.dt)
    new = _step(x, obj, params, c, energies, np.asarray(increments, dtype=float), step, seeds)
    return Ensemble(new, time=(step + 1) * params.dt)


def states(ens, obj, params, noise, consensus=None):
    """Yield ``(k, positions, energies, consensus)`` for the states k = 0..steps
    reached from ``ens``, evaluating each state's energies and consensus once
    and reusing them in the step to state k + 1 (increments from
    ``noise.increments(k, n, dim, dt)``).  A pinned ``consensus`` is indexed
    by k; with ``ConstOne`` it needs no energies and None is yielded.

    A batch, positions (R, n, dim), steps R replications at once, bit for
    bit as R separate runs: energies are then (R, n) and a free consensus
    (R, dim), ``noise`` must give (R, n, dim) increments (a ``NoiseBatch``,
    whose ``seeds`` then name the failing replication in errors), and each
    pinned consensus entry is shared by every replication.  Yielded arrays
    are shared, not copies: do not modify them.  ``noise`` holds generator
    state, so a run in each thread needs its own."""
    if obj.dim != ens.dim:
        raise ConfigError(f"objective dim {obj.dim} != ensemble dim {ens.dim}")
    x, ens = ens.positions, None  # no reference to state 0 outlives its step
    n, d = x.shape[-2:]
    seeds = getattr(noise, "seeds", None)
    if consensus is not None:
        consensus = np.asarray(consensus, dtype=float)
    need_energies = consensus is None or not isinstance(params.h_variant, ConstOne)
    for k in range(params.steps + 1):
        if k:
            # increments passed inline: no local keeps them alive past the step
            x = _step(x, obj, params, c, e, noise.increments(k - 1, n, d, params.dt),
                      k - 1, seeds)
        e = _energies(obj, x, k, seeds) if need_energies else None
        c = _weighted_consensus(x, e, params.alpha) if consensus is None else consensus[k]
        yield k, x, e, c


# ---------------------------------------------------------------------------
# full simulation


@dataclass
class SimulationResult:
    series: MetricsSeries
    final: Ensemble


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


def simulate(dist, obj, params, record=RecordingPlan(), stream=0):
    """Run the scheme for ``params.steps`` steps and collect metrics.

    Records the t = 0 state and then every ``record.stride`` steps.  When the
    objective has a known minimizer, the squared distance of the final
    ensemble mean to it is reported as ``endpoint_error``.  Fully
    deterministic given (config, seed); on a failure after the first record
    the partial series is attached to the raised error.
    """
    if obj.dim != params.dim:
        raise ConfigError(f"objective dim {obj.dim} != params dim {params.dim}")
    digest = config_digest(dist, obj, params, record)
    # no reference to state 0 outlives the iterator's own
    run = states(sample_initial(dist, params.n_particles, params.dim, params.seed, stream),
                 obj, params, NoiseSource(params.seed, stream))
    records = []
    try:
        for k, x, _, c in run:
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
    return SimulationResult(series=series, final=Ensemble(x, time=k * params.dt))
