"""Particle dynamics: initial positions, stabilized consensus point, and the
state iterator ``states``, the one stepping loop that drives every run with
explicit Euler-Maruyama steps, and the simulation with metrics recording.

The update for agent i with step size dt reads

    V_i  <-  V_i - dt * lam * (V_i - c) * H(E(V_i) - E(c))
                 + sigma * ||V_i - c||_2 * B_i,

where ``c`` is the consensus point frozen from the step's input snapshot and
``B_i ~ N(0, dt * I_d)``.  Gaussian increments for step k are a pure
function of (seed, k, particle row) via counter-based Philox streams, so
runs are deterministic and independent of particle update order, block
size or thread count; the step draws them one row block at a time.

Positions may carry a leading replication axis, (R, n, d): every reduction
runs over the particle axis, so a batch of R independent runs steps as one
array with the same arithmetic, bit for bit, as R separate (n, d) runs.

``states`` takes each state through three layers, one call each: its
energies, its consensus point and the step.  Only the energy layer calls
the objective, the ramp's E(c) included.  The step works in place in the
iterator's own copy of state 0, so the caller's array is never written.
Each state's energy layer makes one array of a float per particle; with
H = 1 the consensus layer writes the weights over the energies and then
drops them, so between states only the positions are held.  At large
alpha nearly every consensus weight rounds to exactly zero; for an
objective with a ``floor`` (an exact lower bound of its energy), the
energy layer then evaluates the objective only on the rows whose weight
can be nonzero, and the consensus layer takes E_min and the weights from
those rows alone.

A sum is reduced over the rows it names only where no order of the sum is
left to choose: a float sum in which at most two terms are nonzero and the
rest exact zeros is fl(a + b) in any order and grouping (the weighted mean
of a screened state with at most two nonzero weights per replication), as
is a row sum of two nonnegative terms (``metrics._row_sums`` at dim <= 2).
Every other sum is one numpy reduction over the whole array, so the
consensus stays bitwise that of every row's energy.
"""

from __future__ import annotations

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
from .metrics import MetricsSeries, RecordingPlan, _row_sums, row_blocks, snapshot

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
        # x / delta may overflow to -inf for a tiny delta, where the ramp is 0
        with np.errstate(over="ignore"):
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
    """2 lam - d sigma^2, the decay rate of the V-functional (-inf where
    sigma^2 overflows)."""
    return 2.0 * lam - d * (sigma * sigma)


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
        if lo.shape != hi.shape:
            return  # sample_initial checks both shapes against dim
        if not np.all(lo < hi):
            raise ConfigError("degenerate box: lo < hi must hold componentwise")
        with np.errstate(over="ignore"):  # a width past the float maximum is inf
            width = hi - lo
        if not np.isfinite(width).all():
            raise ConfigError(f"box too wide: hi - lo must be finite, got {width.tolist()}")


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
    """Deterministic N(0, dt I) increments of a step's particle rows: (rows,
    dim) for an int seed, (R, rows, dim) for a sequence of R seeds, whose
    row r is bitwise the draw of ``NoiseSource(seeds[r])``.

    Each step owns a disjoint Philox counter block, so any step's increments
    can be drawn in any order without replaying the stream.  Each seed has
    its own generator, and a step's rows are drawn in order: a request for
    the rows after the ones drawn last continues each seed's stream, bitwise
    the whole step's draw, and any other request rewinds to the step's start
    and passes over the rows before its own.  A repeated request returns the
    array it returned without drawing again, so iterators that step the same
    runs in lockstep, one block a step, share each draw.  Every draw goes
    into one buffer, made anew only for a block larger than any before or
    another dim.  An instance has state, so do not share it between threads.
    """

    def __init__(self, seeds):
        self.seeds, self.shape = _seed_tuple(seeds)
        # the key is set once: starting a step loads the seed's fresh state
        # (counter 0, buffer empty) with the step in the counter's top word
        self._gens = []
        for seed in self.seeds:
            bitgen = np.random.Philox(key=np.array([seed, _DYNAMICS_TAG], dtype=np.uint64))
            self._gens.append((bitgen, np.random.Generator(bitgen), bitgen.state))
        self._buf = self._at = None
        self._last = (None, None)  # the key of the request served last, and its array

    def increments(self, step, rows, dim, dt):
        """The increments of particle rows ``rows`` (a slice ``lo:hi``) of
        the given step, ``self.shape + (hi - lo, dim)``: a view of the
        source's buffer, valid until the next request."""
        lo, hi = rows.start, rows.stop
        if self._last[0] == (step, lo, hi, dim, dt):
            return self._last[1]
        if self._buf is None or self._buf.shape[-1] != dim or self._buf.shape[-2] < hi - lo:
            self._buf = np.empty(self.shape + (hi - lo, dim))
        out = self._buf[..., :hi - lo, :]
        rewind = self._at != (step, dim, lo)
        for (bitgen, gen, state), row in zip(self._gens, out if self.shape else (out,)):
            if rewind:
                state["state"]["counter"][3] = step
                bitgen.state = state
                for skip in range(0, lo * dim, row.size):  # pass over the rows before lo
                    gen.standard_normal(out=row.reshape(-1)[:lo * dim - skip])
            gen.standard_normal(out=row)
        out *= math.sqrt(dt)
        self._at, self._last = (step, dim, hi), ((step, lo, hi, dim, dt), out)
        return out


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


def _eval_rows(fn, x, e, blocks):
    """``fn`` (the objective's ``eval`` or ``floor``) of the positions ``x``
    into ``e``, one row block of ``blocks`` at a time: whether every value
    is finite.  Every block is evaluated, so that an error names the first
    bad row."""
    finite = True
    # overflow to inf is caught by the caller's finiteness guard
    with np.errstate(over="ignore", invalid="ignore"):
        for s in blocks:
            eb = np.asarray(fn(x[..., s, :]), dtype=float)
            e[..., s] = eb
            finite = finite and bool(np.isfinite(eb).all())
    return finite


def _energies(obj, x, e, step, seeds, blocks):
    """Energies of the positions ``x`` into ``e``, evaluated one row block
    of ``blocks`` at a time, and their minimum per replication, (1,) or
    (R, 1)."""
    if not _eval_rows(obj.eval, x, e, blocks):
        raise _nonfinite_energy(e, step, seeds)
    return e.min(axis=-1, keepdims=True)


def _screened_energies(obj, x, e, alpha, step, seeds, blocks):
    """The flat indices (over ``e.reshape(-1)``) of the rows of the
    positions ``x`` that can be their replication's minimum or carry a
    nonzero weight, with their energies written into ``e``; every other
    row's floor is written there.  The floors and the cutoff test run one
    row block of ``blocks`` at a time.  If a floor is not finite, no energy
    is evaluated and None is returned: the caller then evaluates every row
    (``_energies``).

    Let u be the energy of a replication's row of smallest floor.  A row
    with -alpha (floor - u) <= _EXP_ZERO_BELOW has E >= floor > u >= E_min:
    it is not the minimum, and ``_weights`` turns its floor, like its
    energy, into exactly +0.0.  Each row is evaluated at most once."""
    if not _eval_rows(obj.floor, x, e, blocks):
        return None
    n, d = x.shape[-2:]
    xf, ef = x.reshape(-1, d), e.reshape(-1)  # views of the engine's workspace
    first = e.reshape(-1, n).argmin(axis=-1) + np.arange(0, ef.size, n)
    with np.errstate(over="ignore", invalid="ignore"):
        u = np.asarray(obj.eval(xf[first]), dtype=float)
    # the cutoff test in the operation order of _weights, one block at a
    # time, so that neither its arguments nor its mask take an array of n
    # rows: the candidates of each block that has any, as flat indices
    u_col = u.reshape(e.shape[:-1] + (1,))
    found = [first[:0]]  # an empty index array, for a state with no candidate
    for s in blocks:
        arg = np.subtract(e[..., s], u_col)
        with np.errstate(over="ignore"):  # -inf, as in _weights
            arg *= -alpha
        at = np.flatnonzero(arg > _EXP_ZERO_BELOW)
        if at.size:
            if e.ndim > 1:  # (replication, row of the block) of a batch
                rep, at = np.divmod(at, s.stop - s.start)
                at += rep * n
            found.append(at + s.start)
    rest = np.concatenate(found)
    if e.ndim > 1:  # found block by block: in flat order once sorted
        rest.sort()
    rest = rest[rest != first[rest // n]]  # evaluated already
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
    return rows


def _weights(energies, emin, alpha, out=None, blocks=None):
    """exp(-alpha (energies - emin)), bitwise as np.exp computes it, into
    ``out`` (a new array when None); ``blocks`` are the row blocks of the
    energies' last axis (``row_blocks`` of their shape when None)."""
    w = np.subtract(energies, emin, out=out)
    # -alpha (E - E_min) may overflow to -inf for alpha near the float
    # maximum: the exact limit, whose weight the mask and max() make +0.0
    with np.errstate(over="ignore"):
        w *= -alpha
    if w.min() > _EXP_ZERO_BELOW:  # a masked exp is slower when it masks nothing
        return np.exp(w, out=w)
    # exp runs only where it does not round to zero, one row block at a
    # time, so that its mask takes no array of n rows; max() then turns the
    # arguments left elsewhere into exact +0.0
    for s in row_blocks(w.shape + (1,)) if blocks is None else blocks:
        wb = w[..., s]
        np.exp(wb, out=wb, where=wb > _EXP_ZERO_BELOW)
    return np.maximum(w, 0.0, out=w)


def _weighted_mean(x, w):
    # sum_i w_i x_i / sum_i w_i per replication, which overwrites ``w``: the
    # weights are summed first, and at d = 1 their products with the
    # positions go into their own array (bitwise the sum of the (n, 1)
    # product); at d > 1 the weighted positions are a temporary
    den = w.sum(axis=-1)[..., None]
    if x.shape[-1] == 1:
        return np.multiply(x[..., 0], w, out=w).sum(axis=-1)[..., None] / den
    return (x * w[..., None]).sum(axis=-2) / den


def _weighted_consensus(x, energies, emin, alpha, w=None, blocks=None):
    # Shifting by the minimum energy leaves the weighted mean exactly
    # invariant and keeps at least one weight equal to 1, so the softmax
    # never underflows to an empty sum even for alpha ~ 1e15.  If every
    # non-minimal weight underflows, this degrades gracefully to the mean
    # of the energy-minimizing particles.  ``emin`` is the minimum per
    # replication, ``w`` an optional buffer for the weights, which the
    # weighted mean overwrites, and ``blocks`` the row blocks of ``x``.
    # Returns the consensus point and its count of nonzero weights.
    w = _weights(energies, emin, alpha, w, blocks)
    # a weight is never -0.0, so its bits are zero where it is zero, and
    # counting them is cheaper than counting floats
    nonzero = np.count_nonzero(w.view(np.int64))
    return _weighted_mean(x, w), nonzero


def _screened_consensus(x, e, rows, alpha):
    """The consensus point of a screened state and its count of nonzero
    weights, from the energies ``e`` of only the evaluated ``rows`` (flat
    indices from ``_screened_energies``): every other row's weight is
    exactly +0.0, and its floor lies above its replication's E_min.

    A float sum of terms of which at most two are nonzero and the rest
    exact zeros is fl(a + b) in any order and grouping, up to the sign of
    a zero result.  So where each replication has at most two nonzero
    weights and no component of a weighted sum is zero, the weighted mean
    is taken over those terms alone, bitwise the whole-array reductions.
    Otherwise the weights are scattered into ``e``, zero elsewhere, and
    reduced over every row like a state evaluated in full."""
    n, d = x.shape[-2:]
    reps = e.size // n
    er, rep = e.reshape(-1)[rows], rows // n
    emin = np.full(reps, np.inf)
    np.minimum.at(emin, rep, er)
    wr = _weights(er, emin[rep], alpha)
    nz = np.flatnonzero(wr)
    if np.bincount(rep[nz], minlength=reps).max() <= 2:
        # padded by +0.0: +0.0 + a = a for every nonzero a
        num, den = np.zeros((reps, d)), np.zeros(reps)
        np.add.at(num, rep[nz], x.reshape(-1, d)[rows[nz]] * wr[nz, None])
        if num.all():
            np.add.at(den, rep[nz], wr[nz])
            return (num / den[:, None]).reshape(x.shape[:-2] + (d,)), nz.size
    e.fill(0.0)
    e.reshape(-1)[rows] = wr
    return _weighted_mean(x, e), nz.size


def consensus_point(x, energies, alpha):
    """The omega_alpha-weighted mean of the positions ``x`` with the caller's
    ``energies``, stabilized by the minimal energy shift; exact up to rounding
    for any alpha > 0.  One point per replication, (R, dim), for a batch."""
    if not np.isfinite(energies).all():
        raise _nonfinite_energy(energies, None, None)
    emin = energies.min(axis=-1, keepdims=True)
    return _weighted_consensus(x, energies, emin, float(alpha))[0]


# |a| is sqrt(fl(a * a)) bit for bit wherever a * a is a normal float: for
# _NORM_LO <= |a| < _NORM_HI, the square root of the smallest normal float
# and the smallest |a| whose square overflows
_NORM_LO = 2.0 ** -511
_NORM_HI = 2.0 ** 512


def _norms(diff):
    """||diff_i|| of each row of a block's differences (..., rows, dim):
    ``np.sqrt`` of the row sums of squares, or at dim = 1, where every
    |diff_i| lies in [_NORM_LO, _NORM_HI), |diff_i| itself, the same bits
    for one pass in place of two.  A block with a zero, a gap whose square
    underflows or overflows, inf or NaN takes the square root."""
    if diff.shape[-1] == 1:
        dist = np.abs(diff[..., 0])
        if _NORM_LO <= dist.min() and dist.max() < _NORM_HI:
            return dist
    return np.sqrt(_row_sums(diff * diff))


def _step(x, params, c, e, e_c, noise, step, blocks):
    """Step the positions ``x`` of state ``step``, in place, to those of
    state ``step + 1``, with the state's consensus point ``c`` ((dim,), or
    (R, dim) per replication of a batch).
    For H other than ConstOne it reads the energies ``e`` of the state and
    ``e_c`` of its consensus point; ``e_c`` is None for ConstOne.

    The update runs one row block of ``blocks`` at a time, and draws each
    block's increments from ``noise`` just before it reads them.  Every row
    is computed as a whole-array step would compute it, so the result does
    not depend on the block size.  Each row's ||x - c|| is the rounded
    square root of its rounded sum of squares, taken at d = 1 as |x - c|
    where that gives the same bits (``_norms``).  Errors name the first
    failing particle of the whole array.
    """
    c = c[..., None, :]  # broadcasts over the particle axis
    diverged = False
    # overflow to non-finite coordinates is caught by the divergence guard
    with np.errstate(over="ignore", invalid="ignore"):
        for s in blocks:
            xb = x[..., s, :]
            # x - dt lam H (x - c) + (sigma |x - c|) inc, with one buffer for
            # x - c, then the drift, then the noise term
            diff = xb - c
            dist = _norms(diff)
            diff *= params.dt * params.lam
            if e_c is not None:
                diff *= h_eval(params.h_variant, e[..., s] - e_c)[..., None]
            np.subtract(xb, diff, out=xb)
            dist *= params.sigma
            inc = noise.increments(step, s, x.shape[-1], params.dt)
            xb += np.multiply(dist[..., None], inc, out=diff)
            diverged |= not np.isfinite(xb).all()
    if diverged:
        i, seed, rep = _locate(~np.isfinite(x).all(axis=-1), noise.seeds)
        raise DivergenceError(
            f"non-finite coordinates of particle {i}{rep} after step {step}",
            step=step, particle=i, seed=seed,
        )


# A state is screened (``_screened_energies``) only after one in which at
# most this share of the weights was nonzero: at alpha = 30 every weight is
# nonzero, and screening, whose floor test passes many more rows than carry
# weight, would cost more than it saves.
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
    an objective with a ``floor``, a state after one with few nonzero
    weights is screened: its floors are written, only the rows whose weight
    can be nonzero are evaluated, in one call, and its E_min, weights and
    count of nonzero weights come from those rows; its weighted mean is
    summed over them alone where each replication has at most two nonzero
    weights and no weighted sum is zero.  A ramp H's E(c) is evaluated just
    before the step that reads it.

    Of the ensemble's size, a state carries only its positions and one
    array of a float per row, made in its energy layer: its energies, which
    with ``ConstOne`` its weights overwrite, dropped after the consensus,
    their last reader.  A ramp H keeps its energies until the step that
    reads them, and its weights in a second array that the consensus
    drops.  At dim > 1 the consensus makes the weighted positions as a
    temporary.  The step works in place, in the iterator's own copy of the
    caller's positions, made at the first ``next``: state 0 is that copy,
    so the caller's array is never written, and one the caller keeps no
    reference to is freed then.  Each row block's increments are drawn just
    before the step reads them, from ``noise.increments(k, rows, dim, dt)``
    (two iterators stepping one ``NoiseSource`` in lockstep, one block a
    step, share each draw).  So the yielded positions stay valid only until
    the iterator is resumed; copy them to keep them, and do not modify
    them.  A yielded consensus is a new array (or the pinned entry) each
    state.  ``noise`` holds generator state, so a run in each thread needs
    its own."""
    x = np.array(x, dtype=float)
    if x.ndim != len(noise.shape) + 2 or x.shape[:-2] != noise.shape or 0 in x.shape[:-1]:
        want = f"(R, n, dim) for R = {len(noise.seeds)} seeds" if noise.shape else "(n, dim)"
        raise ConfigError(f"positions must be {want}, with n, R >= 1, got shape {x.shape}")
    if obj.dim != x.shape[-1]:
        raise ConfigError(f"objective dim {obj.dim} != ensemble dim {x.shape[-1]}")
    blocks = row_blocks(x.shape)
    free = consensus is None
    if not free:
        consensus = np.asarray(consensus, dtype=float)
    const_one = isinstance(params.h_variant, ConstOne)
    evaluated = free or not const_one  # whether a state needs its energies
    screening = free and const_one and obj.floor is not None
    screen = False  # state 0 is evaluated in full
    e = None
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
            _step(x, params, c, e, e_c, noise, k - 1, blocks)
            e = None  # the step was the last reader of the ramp's energies
        if evaluated:
            e = np.empty(x.shape[:-1])
            # a screened state's evaluated rows; None where every row was evaluated
            rows = (_screened_energies(obj, x, e, params.alpha, k, noise.seeds, blocks)
                    if screen else None)
            if rows is None:
                emin = _energies(obj, x, e, k, noise.seeds, blocks)
        if not free:
            c = consensus[k]
        else:
            if rows is None:
                # with ConstOne the weights overwrite the energies, which
                # nothing reads after them
                c, nonzero = _weighted_consensus(x, e, emin, params.alpha,
                                                 e if const_one else None, blocks)
            else:
                c, nonzero = _screened_consensus(x, e, rows, params.alpha)
            screen = screening and nonzero <= _SCREEN_SHARE * e.size
        if const_one or k == params.steps:
            # no step reads these energies: the state holds only its positions
            e = None
        if k == params.steps:
            noise = None
        yield k, x, c


# ---------------------------------------------------------------------------
# full simulation


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
    """Run the scheme for ``params.steps`` steps and return its
    ``MetricsSeries``.

    Records the t = 0 state and then every ``record.stride`` steps.  When the
    objective has a known minimizer, the squared distance of the final
    ensemble mean to it is reported as ``endpoint_error``.  Fully
    deterministic given (config, seed); on a failure after the first record
    the partial series is attached to the raised error.
    """
    digest = config_digest(dist, obj, params, record)
    # the iterator copies state 0 at its first next, and nothing else holds it
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
    return MetricsSeries(records, endpoint, digest)
