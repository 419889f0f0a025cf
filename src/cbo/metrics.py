"""Empirical functionals of an ensemble and exponential-rate fitting.

All functions here are pure and operate on position matrices of shape
``(n, dim)``; ``moment4_stat`` also takes a batch ``(R, n, dim)``.  They are
safe for unrestricted concurrent use.
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
    "v_functional",
    "variance",
    "ball_mass",
    "moment4_stat",
    "snapshot",
    "fit_decay_rate",
    "default_fit_window",
]


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


def _positions(ens):
    # accepts an Ensemble-like object or a bare (n, dim) array
    x = getattr(ens, "positions", ens)
    return np.asarray(x, dtype=float)


def v_functional(ens, vstar):
    """(1/(2n)) sum_i ||V^i - v*||^2, half the mean squared distance to v*."""
    x = _positions(ens)
    vstar = np.asarray(vstar, dtype=float)
    if vstar.shape != (x.shape[1],):
        raise InvalidInputError(f"v* has shape {vstar.shape}, expected ({x.shape[1]},)")
    d = x - vstar
    return 0.5 * float(np.mean((d * d).sum(axis=1)))


def variance(ens):
    """(1/(2n)) sum_i ||V^i - mean||^2 (the halved empirical variance)."""
    x = _positions(ens)
    d = x - x.mean(axis=0)
    return 0.5 * float(np.mean((d * d).sum(axis=1)))


def ball_mass(ens, vstar, r):
    """Fraction of particles inside the closed ball of radius r around v*."""
    if not r > 0:
        raise InvalidInputError(f"ball radius must be positive, got {r}")
    x = _positions(ens)
    dist = np.linalg.norm(x - np.asarray(vstar, dtype=float), axis=1)
    return float(np.mean(dist <= r))


def moment4_stat(ens, ens_bar=None):
    """(1/n) sum_i max{||V^i||^4, ||Vbar^i||^4}; the second ensemble is
    optional.  A batch (R, n, dim) gives one value per replication, (R,)."""
    x = _positions(ens)
    # fourth powers may saturate to inf for extreme states; that is the
    # honest value for this diagnostic
    with np.errstate(over="ignore"):
        m = (x * x).sum(axis=-1) ** 2
        if ens_bar is not None:
            y = _positions(ens_bar)
            if y.shape != x.shape:
                raise InvalidInputError(
                    f"coupled ensembles differ in shape: {x.shape} vs {y.shape}"
                )
            m = np.maximum(m, (y * y).sum(axis=-1) ** 2)
        m = np.mean(m, axis=-1)
        return float(m) if m.ndim == 0 else m


def snapshot(t, x, vstar, consensus, ball_radii):
    """MetricsRecord of the positions ``x`` at time ``t`` with consensus
    point ``consensus``.  ``x - v*`` and its row sums of squares are computed
    once for V and every ball mass; without a minimizer (``vstar`` None) the
    fields tied to it are NaN and there are no ball masses."""
    x = _positions(x)
    v = cdist = math.nan
    masses = {}
    if vstar is not None:
        sq = np.square(x - vstar).sum(axis=1)
        v = 0.5 * float(np.mean(sq))
        cdist = float(np.linalg.norm(consensus - vstar))
        dist = np.sqrt(sq)  # bitwise np.linalg.norm(x - vstar, axis=1): ties with r stay put
        masses = {float(r): float(np.mean(dist <= r)) for r in ball_radii}
    return MetricsRecord(t, v, variance(x), 2.0 * v, cdist, masses, moment4_stat(x))


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
