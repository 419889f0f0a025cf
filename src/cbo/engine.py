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
    """N particle positions in R^d at one time instant (rows are agents)."""

    positions: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float)
        if self.positions.ndim != 2 or self.positions.shape[0] < 1:
            raise ConfigError(
                f"positions must be an (n, dim) matrix with n >= 1, got shape "
                f"{self.positions.shape}"
            )

    @property
    def dim(self):
        return self.positions.shape[1]


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
    regenerated for any step without replaying the stream.
    """

    def __init__(self, seed, stream=0):
        self.seed = _check_seed(seed)
        self.stream = _check_seed(stream, "stream")

    def increments(self, step, n, dim, dt):
        """The (n, dim) matrix of N(0, dt I) increments for the given step."""
        gen = _philox(self.seed, _DYNAMICS_TAG, self.stream, step)
        return gen.standard_normal((n, dim)) * math.sqrt(dt)


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


def _energies(obj, x, step=None):
    # overflow to inf is caught by the finiteness guard below
    with np.errstate(over="ignore", invalid="ignore"):
        e = np.asarray(obj.eval(x), dtype=float)
    bad = ~np.isfinite(e)
    if bad.any():
        i = int(np.argmax(bad))
        where = "" if step is None else f" at step {step}"
        raise NumericDomainError(
            f"non-finite energy at particle {i}{where}", step=step, particle=i
        )
    return e


def _weighted_consensus(x, energies, alpha):
    # Shifting by the minimum energy leaves the weighted mean exactly
    # invariant and keeps at least one weight equal to 1, so the softmax
    # never underflows to an empty sum even for alpha ~ 1e15.  If every
    # non-minimal weight underflows, this degrades gracefully to the mean
    # of the energy-minimizing particles.
    w = np.exp(-alpha * (energies - energies.min()))
    return (x * w[:, None]).sum(axis=0) / w.sum()


def consensus_point(ens, obj, alpha):
    """The omega_alpha-weighted mean of the ensemble, stabilized by the
    minimal energy shift; exact up to rounding for any alpha > 0."""
    if obj.dim != ens.dim:
        raise ConfigError(f"objective dim {obj.dim} != ensemble dim {ens.dim}")
    x = ens.positions
    return _weighted_consensus(x, _energies(obj, x), float(alpha))


def cbo_step(ens, obj, params, noise=None, increments=None, consensus=None,
             energies=None, step=0):
    """One explicit Euler-Maruyama step from state ``step`` to ``step + 1``.

    The consensus point is computed once from the input state (or pinned via
    ``consensus``); all particles then update independently.  ``energies``
    of the input state are reused when given.  Increments can be supplied
    explicitly (shape (n, dim), already scaled to variance dt) for coupled
    runs, otherwise they come from ``noise`` at this step index.
    """
    x = ens.positions
    n, d = x.shape
    if obj.dim != d:
        raise ConfigError(f"objective dim {obj.dim} != ensemble dim {d}")

    const_h = isinstance(params.h_variant, ConstOne)
    if energies is None and (consensus is None or not const_h):
        energies = _energies(obj, x, step)
    if consensus is None:
        c = _weighted_consensus(x, energies, params.alpha)
    else:
        c = np.asarray(consensus, dtype=float)
        if c.shape != (d,):
            raise ConfigError(f"consensus has shape {c.shape}, expected ({d},)")

    diff = x - c
    with np.errstate(over="ignore", invalid="ignore"):
        drift = (params.dt * params.lam) * diff
    if not const_h:
        e_c = float(obj.eval(c))
        if not math.isfinite(e_c):
            raise NumericDomainError(
                f"non-finite energy at the consensus point at step {step}", step=step
            )
        drift *= h_eval(params.h_variant, energies - e_c)[:, None]

    if increments is None:
        if noise is None:
            raise ConfigError("cbo_step needs a NoiseSource or explicit increments")
        increments = noise.increments(step, n, d, params.dt)
    else:
        increments = np.asarray(increments, dtype=float)
        if increments.shape != (n, d):
            raise ConfigError(
                f"increments have shape {increments.shape}, expected ({n}, {d})"
            )

    # overflow to non-finite coordinates is caught by the divergence guard
    with np.errstate(over="ignore", invalid="ignore"):
        dist = np.sqrt((diff * diff).sum(axis=1))
        new = x - drift + params.sigma * dist[:, None] * increments
    if not np.isfinite(new).all():
        i = int(np.argmin(np.isfinite(new).all(axis=1)))
        raise DivergenceError(
            f"non-finite coordinates of particle {i} after step {step}",
            step=step, particle=i,
        )
    return Ensemble(new, time=(step + 1) * params.dt)


def states(ens, obj, params, noise, consensus=None):
    """Yield ``(k, positions, energies, consensus)`` for the states k = 0..steps
    reached from ``ens``, evaluating each state's energies and consensus once
    and reusing them in the ``cbo_step`` to state k + 1 (increments from
    ``noise.increments(k, n, dim, dt)``).  A pinned ``consensus`` is indexed
    by k; with ``ConstOne`` it needs no energies and None is yielded.
    Yielded arrays are shared, not copies: do not modify them."""
    if obj.dim != ens.dim:
        raise ConfigError(f"objective dim {obj.dim} != ensemble dim {ens.dim}")
    n, d = ens.positions.shape
    need_energies = consensus is None or not isinstance(params.h_variant, ConstOne)
    for k in range(params.steps + 1):
        if k:
            # increments passed inline: no local keeps them alive past the step
            ens = cbo_step(ens, obj, params, consensus=c, energies=e, step=k - 1,
                           increments=noise.increments(k - 1, n, d, params.dt))
        x = ens.positions
        e = _energies(obj, x, k) if need_energies else None
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
