"""Empirical functionals of an ensemble and exponential-rate fitting.

``snapshot`` computes every functional of one state.  All functions here
are pure and take position arrays of shape ``(n, dim)``; ``moment4_stat``
also takes a batch ``(R, n, dim)``.  They are safe for unrestricted
concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import InvalidInputError

__all__ = [
    "MetricsRecord",
    "MetricsSeries",
    "RecordingPlan",
    "moment4_stat",
    "snapshot",
    "fit_decay_rate",
    "default_fit_window",
]

# Rows (particles, times the replications of a batch) per block of the
# block-wise passes here and in ``engine``, and particles per system of a
# batch in ``mfa``: each float array of a block, 64 KiB at d = 1, stays in
# the L2 cache while the pass runs over it.
BLOCK_ROWS = 8192


def row_blocks(shape):
    """Slices of the particle axis of an (n, dim) or (R, n, dim) shape into
    blocks of about ``BLOCK_ROWS`` rows in all."""
    per = max(1, BLOCK_ROWS // math.prod(shape[:-2]))
    return [slice(lo, lo + per) for lo in range(0, shape[-2], per)]


def _per_row(f, shape):
    """One value per particle row of an array of the given shape, a new
    array filled with ``f(s)`` for each row block ``s``.  A whole-array
    reduction of the result sums in the same order as over ``f`` of all
    rows, and ``f`` makes no whole-array temporaries."""
    rows = np.empty(shape[:-1])
    for s in row_blocks(shape):
        rows[..., s] = f(s)
    return rows


@dataclass(frozen=True)
class RecordingPlan:
    """What to record during a simulation: every ``stride`` steps, plus the
    ball radii whose occupation fraction is tracked."""

    stride: int = 1
    ball_radii: tuple = ()

    def __post_init__(self):
        if self.stride < 1:
            raise InvalidInputError(f"recording stride must be >= 1, got {self.stride}")
        for r in self.ball_radii:
            if not r > 0:
                raise InvalidInputError(f"ball radius must be positive, got {r}")


@dataclass(frozen=True)
class MetricsRecord:
    """Snapshot of the ensemble functionals at one time instant.

    ``w2_sq`` is the squared Wasserstein-2 distance to the Dirac at the
    minimizer, which equals ``2 * v_func`` exactly; ``variance <= v_func``
    holds by construction.  Fields tied to the minimizer are NaN when the
    objective has none.
    """

    t: float
    v_func: float
    variance: float
    w2_sq: float
    consensus_dist: float
    ball_mass: dict = field(default_factory=dict)
    moment4: float = math.nan


@dataclass
class MetricsSeries:
    records: list
    endpoint_error: Optional[float] = None
    config_digest: str = ""

    def __post_init__(self):
        ts = [r.t for r in self.records]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise InvalidInputError("record times must be strictly increasing")

    def times(self):
        return np.array([r.t for r in self.records])

    def column(self, name):
        return np.array([getattr(r, name) for r in self.records])


def _sq_rows(d):
    return (d * d).sum(axis=-1)


def moment4_stat(x, y=None):
    """(1/n) sum_i max{||V^i||^4, ||Vbar^i||^4} of the positions ``x`` and
    the optional coupled positions ``y``.  A batch (R, n, dim) gives one
    value per replication, (R,)."""
    if y is not None and y.shape != x.shape:
        raise InvalidInputError(f"coupled ensembles differ in shape: {x.shape} vs {y.shape}")

    def rows(s):
        m = _sq_rows(x[..., s, :]) ** 2
        return m if y is None else np.maximum(m, _sq_rows(y[..., s, :]) ** 2)

    # fourth powers may saturate to inf for extreme states; that is the
    # honest value for this diagnostic
    with np.errstate(over="ignore"):
        m = np.mean(_per_row(rows, x.shape), axis=-1)
    return float(m) if m.ndim == 0 else m


def snapshot(t, x, vstar, consensus, ball_radii):
    """MetricsRecord of the positions ``x`` at time ``t`` with consensus
    point ``consensus``: V = (1/(2n)) sum_i ||V^i - v*||^2, the halved
    variance (1/(2n)) sum_i ||V^i - mean||^2, the fraction of particles in
    the closed ball around v* of each radius in ``ball_radii``, W2 and
    ``moment4_stat``.  ``x - v*`` and its row sums of squares are computed
    once for V and every ball mass; without a minimizer (``vstar`` None) the
    fields tied to it are NaN and there are no ball masses.

    Every per-particle quantity is computed over row blocks into an (n,)
    array, so a record allocates no temporary of the positions' size."""
    v = cdist = math.nan
    masses = {}
    if vstar is not None:
        inside = dict.fromkeys(map(float, ball_radii), 0)

        def sq_rows(s):
            sq = np.square(x[s] - vstar).sum(axis=1)
            dist = np.sqrt(sq)  # bitwise np.linalg.norm(x - vstar, axis=1): ties with r stay put
            for r in inside:
                inside[r] += int(np.count_nonzero(dist <= r))
            return sq

        v = 0.5 * float(np.mean(_per_row(sq_rows, x.shape)))
        cdist = float(np.linalg.norm(consensus - vstar))
        # count / n is np.mean of the 0/1 mask, bitwise: both are exact
        masses = {r: count / len(x) for r, count in inside.items()}
    m = x.mean(axis=0)
    var = 0.5 * float(np.mean(_per_row(lambda s: _sq_rows(x[s] - m), x.shape)))
    return MetricsRecord(t, v, var, 2.0 * v, cdist, masses, moment4_stat(x))


def fit_decay_rate(series, window):
    """Least-squares slope of -log y against t over the window (t_lo, t_hi).

    A positive return value is an exponential decay rate; the intercept is
    absorbed by the regression.  Requires at least 3 points with y > 0 in
    the window.
    """
    pairs = np.asarray(list(series), dtype=float)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise InvalidInputError("series must be a sequence of (t, y) pairs")
    t_lo, t_hi = window
    sel = (pairs[:, 0] >= t_lo) & (pairs[:, 0] <= t_hi)
    t, y = pairs[sel, 0], pairs[sel, 1]
    if t.size < 3:
        raise InvalidInputError(f"need >= 3 points in window, got {t.size}")
    if np.any(y <= 0):
        raise InvalidInputError("y must be positive throughout the fit window")
    z = -np.log(y)
    tc = t - t.mean()
    return float(np.dot(tc, z - z.mean()) / np.dot(tc, tc))


def default_fit_window(ts, ys):
    """Pre-plateau fit window for a decaying series.

    Excludes records once the value drops below 1e-6 of its initial value
    and the last 10% of the records, whichever cuts earlier.
    """
    ts = np.asarray(ts, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if ts.size < 3:
        raise InvalidInputError("series too short for a fit window")
    i_max = int(math.floor(0.9 * (ts.size - 1)))
    below = np.nonzero(ys < 1e-6 * ys[0])[0]
    if below.size:
        i_max = min(i_max, int(below[0]) - 1)
    if i_max < 2:
        raise InvalidInputError("fewer than 3 records before the plateau cutoff")
    return float(ts[0]), float(ts[i_max])
