"""Test oracle: the CBO update and the ensemble functionals written from
their formulas in plain whole-array numpy, independent of the stepping and
metrics code under test.

One step from positions V (n, dim), or a batch (R, n, dim), with consensus
point c and increments B ~ N(0, dt I) reads

    V  <-  V - dt lam H(E(V) - E(c)) (V - c) + sigma ||V - c|| B,

    c = sum_i w_i V_i / sum_i w_i,   w_i = exp(-alpha (E(V_i) - min_j E(V_j))),

and H(x) = 1 for x >= 0, max(0, 1 + x / delta) below (the ramp).  Each
expression is grouped and each sum taken over the axis the engine uses, so
the oracle reproduces the engine bit for bit: ``(V - c) * (dt * lam)`` times
H, ``||V - c|| * sigma``, ``np.exp`` of ``(-alpha) * (E - min E)``.
"""

import numpy as np

from cbo import engine, metrics


def consensus(x, e, alpha):
    """The weighted mean of the positions ``x`` with energies ``e``."""
    w = np.exp((-alpha) * (e - e.min(axis=-1, keepdims=True)))
    return (x * w[..., None]).sum(axis=-2) / w.sum(axis=-1)[..., None]


def step(x, e, c, inc, obj, params):
    """The positions after one step from positions ``x`` with energies ``e``,
    consensus point ``c`` ((dim,) or one per replication) and increments
    ``inc`` (shaped like ``x``)."""
    c = c[..., None, :]
    diff = x - c
    dist = np.sqrt((diff * diff).sum(axis=-1))
    drift = diff * (params.dt * params.lam)
    if not isinstance(params.h_variant, engine.ConstOne):  # the ramp
        gap = e - obj.eval(c)
        h = np.where(gap >= 0.0, 1.0, np.maximum(0.0, 1.0 + gap / params.h_variant.delta))
        drift = drift * h[..., None]
    return x - drift + (dist * params.sigma)[..., None] * inc


def states(x, obj, params, noise, consensus_path=None):
    """``(k, positions, energies, consensus)`` of the states k = 0..steps
    reached from the positions ``x``, as new arrays, with increments from
    ``noise.increments(k, slice(0, n), dim, dt)``.  A pinned ``consensus_path`` is
    indexed by k; with H = 1 the energies are then not needed and None."""
    need_energies = consensus_path is None or not isinstance(params.h_variant, engine.ConstOne)
    out = []
    for k in range(params.steps + 1):
        if k:
            inc = noise.increments(k - 1, slice(0, x.shape[-2]), x.shape[-1], params.dt)
            x = step(x, e, c, inc, obj, params)
        e = np.asarray(obj.eval(x), dtype=float) if need_energies else None
        c = consensus(x, e, params.alpha) if consensus_path is None else consensus_path[k]
        out.append((k, x, e, c))
    return out


def half_mean_sq(d):
    """(1/(2n)) sum_i ||d_i||^2 over the rows of ``d``."""
    return 0.5 * float(np.mean((d * d).sum(axis=-1)))


def moment4(x, y=None):
    """(1/n) sum_i max{||x_i||^4, ||y_i||^4}."""
    m = ((x * x).sum(axis=-1)) ** 2
    if y is not None:
        m = np.maximum(m, ((y * y).sum(axis=-1)) ** 2)
    return np.mean(m, axis=-1)


def record(t, x, vstar, c, radii):
    """The MetricsRecord of positions ``x`` (n, dim) at time ``t`` with
    consensus point ``c``, for an objective with minimizer ``vstar``."""
    v = half_mean_sq(x - vstar)
    dist = np.sqrt(((x - vstar) * (x - vstar)).sum(axis=-1))
    return metrics.MetricsRecord(
        t=t, v_func=v, variance=half_mean_sq(x - x.mean(axis=0)), w2_sq=2.0 * v,
        consensus_dist=float(np.linalg.norm(c - vstar)),
        ball_mass={float(r): float(np.mean(dist <= r)) for r in radii},
        moment4=float(moment4(x)),
    )
