"""Mean-field approximation harness.

Quantifies how fast the interacting particle system approaches its
mean-field limit by coupling: for each replication, the interacting system
and a surrogate mean-field system evolve from identical initial data with
bitwise-identical Gaussian increments, the surrogate using a frozen
consensus trajectory from one large reference run in place of its own
empirical consensus.  The per-particle sup over time of the squared gap is
aggregated over replications and its scaling in the particle count is
fitted on a log-log grid (the theory predicts order 1/N, conditional on a
bounded fourth-moment event).

The replications of one particle count step together as batches on a
leading axis, in the calling thread: at 50-800 particles per system, numpy's
per-call cost, not arithmetic, sets the time of a step.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import engine
from .errors import InvalidInputError
from .metrics import _row_sums, lsq_slope, moment4_stat, seed_batches

__all__ = [
    "CouplingRun",
    "ReferenceTrajectory",
    "reference_consensus_trajectory",
    "coupled_error",
    "mfa_sweep",
    "MfaSweepResult",
    "fit_loglog_slope",
]


@dataclass(frozen=True)
class CouplingRun:
    """Coupled-gap statistics for one particle count.

    ``err_sup`` is the max over particles of the replication-averaged sup
    over time of the squared gap; ``err_sup_conditional`` restricts the
    average to replications whose fourth-moment statistic stays below
    ``m_threshold`` (NaN when every replication exceeds it).
    """

    n: int
    n_ref: int
    seeds: tuple
    err_sup: float
    err_sup_conditional: float
    m_threshold: float
    exceed_fraction: float


@dataclass
class ReferenceTrajectory:
    """Consensus path of one large reference run, standing in for the
    mean-field consensus; carries the run's own fourth-moment sup for
    threshold calibration."""

    points: np.ndarray  # (steps + 1, dim)
    moment4_sup: float
    n_ref: int


def reference_consensus_trajectory(dist, obj, params):
    """Run one large-N simulation and record the consensus point at every
    step (including t = 0); deterministic given the seed in ``params``."""
    run = engine.states(engine.sample_initial(dist, params.n_particles, params.dim, params.seed),
                        obj, params, engine.NoiseSource(params.seed))
    points, m4 = [], 0.0
    for _, x, c in run:
        points.append(c)
        m4 = max(m4, moment4_stat(x))
    return ReferenceTrajectory(np.asarray(points), m4, params.n_particles)


def _coupled_sups(dist, obj, params, points, seeds):
    """Per replication of ``seeds``, stepped as one batch: the sup over time
    of each particle's squared gap, (R, n), and of the coupled fourth-moment
    statistic, (R,)."""
    init = engine.sample_initial(dist, params.n_particles, params.dim, seeds)
    # the two systems step in lockstep, so each step's increments are drawn
    # once and read by both where the batch is one row block
    noise = engine.NoiseSource(seeds)
    coupled = zip(
        engine.states(init, obj, params, noise),
        engine.states(init, obj, params, noise, consensus=points),
    )
    del init  # each iterator copies it at its first next, so it is freed once both start
    sup_gap = np.zeros((len(seeds), params.n_particles))
    sup_m4 = np.zeros(len(seeds))
    for (_, xa, _), (_, xb, _) in coupled:
        gap = xa - xb
        np.maximum(sup_gap, _row_sums(gap * gap), out=sup_gap)
        np.maximum(sup_m4, moment4_stat(xa, xb), out=sup_m4)
    return sup_gap, sup_m4


def coupled_error(dist, obj, params, ref_traj, seeds, m_threshold):
    """Couple the interacting system against the frozen reference consensus.

    Per seed, both systems share the initial ensemble and the Brownian
    increments; system (a) uses its own empirical consensus, system (b) the
    reference trajectory entry of the same step.  Replications whose sup of
    the coupled fourth-moment statistic exceeds ``m_threshold`` are counted
    in ``exceed_fraction`` and excluded from the conditional error.  The
    seeds step in the batches of ``metrics.seed_batches``, at most
    ``metrics.BLOCK_ROWS`` particles per system, so a batch's arrays stay
    small while each numpy call still covers many replications; the result
    is bitwise that of one seed at a time.
    """
    if len(ref_traj.points) != params.steps + 1:
        raise InvalidInputError(
            f"reference trajectory has {len(ref_traj.points)} entries, expected steps+1 = "
            f"{params.steps + 1}"
        )
    seeds = tuple(int(s) for s in seeds)
    if not seeds:
        raise InvalidInputError("need at least one replication seed")
    batches = [_coupled_sups(dist, obj, params, ref_traj.points, batch)
               for batch in seed_batches(seeds, params.n_particles)]
    sups = np.concatenate([gap for gap, _ in batches])          # (n_seeds, n)
    exceeds = np.concatenate([m4 for _, m4 in batches]) > m_threshold
    err_sup = float(sups.mean(axis=0).max())
    if np.all(exceeds):
        err_cond = float("nan")
    else:
        err_cond = float(sups[~exceeds].mean(axis=0).max())
    return CouplingRun(
        n=params.n_particles,
        n_ref=ref_traj.n_ref,
        seeds=seeds,
        err_sup=err_sup,
        err_sup_conditional=err_cond,
        m_threshold=float(m_threshold),
        exceed_fraction=float(exceeds.mean()),
    )


def fit_loglog_slope(ns, errs):
    """Least-squares slope of log err against log n."""
    ns = np.asarray(ns, dtype=float)
    errs = np.asarray(errs, dtype=float)
    if ns.size != errs.size or ns.size < 2:
        raise InvalidInputError("need matching n/err arrays with >= 2 entries")
    if np.all(ns == ns[0]):
        raise InvalidInputError(f"log-log fit needs distinct n values, got {ns[0]:g} only")
    if np.any(ns <= 0) or np.any(errs <= 0):
        raise InvalidInputError("log-log fit needs positive n and err values")
    return lsq_slope(np.log(ns), np.log(errs))


@dataclass
class MfaSweepResult:
    runs: list
    slope: float
    m_threshold: float
    reference: ReferenceTrajectory


def mfa_sweep(dist, obj, params, n_values, n_ref, seeds, m_factor=10.0):
    """Reference run once, coupled error per particle count, log-log slope.

    ``params.n_particles`` is overridden per run.  The conditioning
    threshold defaults to ``m_factor`` times the reference run's observed
    fourth-moment sup.
    """
    n_values = [int(n) for n in n_values]
    if len(set(n_values)) < 3:
        raise InvalidInputError(f"need >= 3 distinct particle counts, got {n_values}")
    if n_ref < 10 * max(n_values):
        raise InvalidInputError(
            f"n_ref = {n_ref} must be >= 10x the largest experiment size "
            f"{max(n_values)}"
        )
    ref = reference_consensus_trajectory(dist, obj, replace(params, n_particles=n_ref))
    m_threshold = m_factor * ref.moment4_sup
    runs = [
        coupled_error(dist, obj, replace(params, n_particles=n), ref, seeds, m_threshold)
        for n in n_values
    ]
    slope = fit_loglog_slope(n_values, [run.err_sup for run in runs])
    return MfaSweepResult(runs=runs, slope=slope, m_threshold=m_threshold, reference=ref)
