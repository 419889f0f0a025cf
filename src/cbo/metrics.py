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
# block-wise passes here and in ``engine``, and rows per batch of runs
# (``seed_batches``): each float array of a block, 64 KiB at d = 1, stays
# in the L2 cache while the pass runs over it.
BLOCK_ROWS = 8192


def row_blocks(shape):
    """Slices of the particle axis of an (n, dim) or (R, n, dim) shape into
    blocks of about ``BLOCK_ROWS`` rows in all, the last one ending at the
    last row."""
    n = shape[-2]
    per = max(1, BLOCK_ROWS // math.prod(shape[:-2]))
    return [slice(lo, min(lo + per, n)) for lo in range(0, n, per)]


def seed_batches(seeds, n):
    """The seeds of runs of ``n`` particles each, cut in order into batches
    of at most ``BLOCK_ROWS`` rows, and of one run where a run is larger:
    each batch steps as one (R, n, dim) ensemble.  Slices of ``seeds``, so
    a ``range`` stays lazy."""
    per = max(1, BLOCK_ROWS // n)
    return [seeds[lo:lo + per] for lo in range(0, len(seeds), per)]


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
            raise InvalidInputError(f"stride must be >= 1, got {self.stride}")
        for i, r in enumerate(self.ball_radii):
            if not r > 0:
                raise InvalidInputError(f"ball radius must be positive, got {r}")
            if r in self.ball_radii[:i]:
                raise InvalidInputError(f"ball radius {r} is repeated")


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

    def column(self, name):
        return np.array([getattr(r, name) for r in self.records])


def _row_sums(t):
    """``t.sum(axis=-1)``, bitwise, for terms ``t`` that are each >= +0.0,
    NaN or inf (numpy's sum starts from +0.0, and +0.0 + a = a for them).
    At dim <= 2 a row sum has no order to choose: the column itself at dim
    = 1 (a view of ``t``), one add of the two columns at dim = 2, each
    cheaper than numpy's general reduction.  A single row (dim,) gives a
    numpy scalar."""
    d = t.shape[-1]
    if d == 1:
        return t[..., 0][()]  # [()] makes a numpy scalar of a 0-d view
    if d == 2:
        return np.add(t[..., 0], t[..., 1])
    return t.sum(axis=-1)


def _sq_rows(d):
    return _row_sums(d * d)


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


def _sq_dist_rows(x, p, out):
    """||x_i - p||^2 of each row of the positions ``x`` into ``out``, one
    value per row: at dim = 1 the difference and its square go through
    ``out`` itself, with no temporary."""
    if x.shape[-1] == 1:
        np.subtract(x[..., 0], p[..., 0], out=out)
        return np.multiply(out, out, out=out)
    out[...] = _sq_rows(x - p)
    return out


def _ball_bound(r):
    """The largest float b with sqrt(b) <= r as rounded, for r in (0, inf]:
    for s >= +0.0, NaN or inf, ``s <= _ball_bound(r)`` is ``np.sqrt(s) <= r``,
    ties included, since a rounded sqrt never decreases.  r * r is within a
    few steps of it (0.0625 for r = 0.25, whose bound is the next float up),
    or inf where it overflows, whose bound is the float maximum."""
    b = r * r
    while math.sqrt(b) > r:
        b = math.nextafter(b, 0.0)
    while (up := math.nextafter(b, math.inf)) != b and math.sqrt(up) <= r:
        b = up
    return b


def snapshot(t, x, vstar, consensus, ball_radii):
    """MetricsRecord of the positions ``x`` at time ``t`` with consensus
    point ``consensus``: V = (1/(2n)) sum_i ||V^i - v*||^2, the halved
    variance (1/(2n)) sum_i ||V^i - mean||^2, the fraction of particles in
    the closed ball around v* of each radius in ``ball_radii``, W2 and
    ``moment4_stat``.  Without a minimizer (``vstar`` None) the fields tied
    to it are NaN and there are no ball masses.

    One array of a value per particle serves every functional in turn,
    filled one row block at a time.  It holds each row's squared distance
    s to v*, which gives V and every ball mass in one pass: a row lies in
    the ball of radius r where s <= ``_ball_bound(r)``, bitwise the test
    sqrt(s) <= r.  Where v* is all +-0.0, x - v* squares to x * x bit for
    bit, so squaring that array in place gives the moment4 terms.  Then it
    holds the squared distances to the mean.  Each mean is one reduction of
    the whole array, so a record allocates no temporary of the positions'
    size."""
    n = len(x)
    rows = np.empty(n)
    blocks = row_blocks(x.shape)
    v = cdist = math.nan
    m4 = None
    masses = {}
    if vstar is not None:
        bounds = {float(r): _ball_bound(float(r)) for r in ball_radii}
        inside = dict.fromkeys(bounds, 0)
        for s in blocks:
            sq = _sq_dist_rows(x[s], vstar, rows[s])
            for r, b in bounds.items():
                inside[r] += int(np.count_nonzero(sq <= b))
        # sum / n is np.mean's own arithmetic, bit for bit, and count / n
        # is np.mean of the 0/1 mask, both exact
        v = 0.5 * float(rows.sum() / n)
        cdist = float(np.linalg.norm(consensus - vstar))
        masses = {r: count / n for r, count in inside.items()}
        if not np.any(vstar):
            with np.errstate(over="ignore"):  # as in moment4_stat
                m4 = float(np.square(rows, out=rows).sum() / n)
    m = x.mean(axis=0)
    for s in blocks:
        _sq_dist_rows(x[s], m, rows[s])
    var = 0.5 * float(rows.sum() / n)
    del rows  # moment4_stat makes its own
    return MetricsRecord(t, v, var, 2.0 * v, cdist, masses,
                         moment4_stat(x) if m4 is None else m4)


def lsq_slope(x, y):
    """Least-squares slope of the 1-D float array ``y`` against ``x``."""
    xc = x - x.mean()
    spread = np.dot(xc, xc)
    if not spread > 0:  # equal x, or a spread whose square underflows
        raise InvalidInputError(f"no slope: the x values' squared spread is {spread}")
    return float(np.dot(xc, y - y.mean()) / spread)


def fit_decay_rate(ts, ys, window):
    """Least-squares slope of -log y against t over the window (t_lo, t_hi)
    of the times ``ts`` and the values ``ys``, 1-D arrays of one length.

    A positive return value is an exponential decay rate; the intercept is
    absorbed by the regression.  Requires at least 3 points with y > 0 in
    the window.
    """
    ts = np.asarray(ts, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if ts.ndim != 1 or ts.shape != ys.shape:
        raise InvalidInputError(f"ts and ys must be 1-D of one length, got {ts.shape}, {ys.shape}")
    t_lo, t_hi = window
    sel = (ts >= t_lo) & (ts <= t_hi)
    t, y = ts[sel], ys[sel]
    if t.size < 3:
        raise InvalidInputError(f"need >= 3 points in window, got {t.size}")
    if np.any(y <= 0):
        raise InvalidInputError("y must be positive throughout the fit window")
    return lsq_slope(t, -np.log(y))


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
