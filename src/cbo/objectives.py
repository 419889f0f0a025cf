"""Benchmark objective functions with landscape metadata.

Every objective carries, next to its evaluation map, the constants used by
the diagnostic formulas elsewhere in the package: the minimizer ``v*`` and
infimum value, the inverse-continuity constants ``(eta, nu)`` with their
validity radius ``r0`` and farfield floor ``e_inf``, the local-Lipschitz
constants ``(l_e, gamma)``, and the growth constants ``c1..c4``.

For the stock objectives the inverse-continuity property holds globally
(``r0 = inf``), which makes the farfield floor vacuous; ``e_inf`` is then
stored as ``inf`` as well.  The Lipschitz and growth constants are
conservative analytic estimates, not fitted values; they only feed
diagnostic constants and are flagged as estimates in report output.

An objective may also carry ``floor``, a cheap row-wise lower bound of its
energy that is exact in float64 (see ``ObjectiveSpec``); Rastrigin's is
``||v||^2``.  At large alpha the consensus weight of every particle whose
floor lies far enough above the best energy rounds to exactly zero, so the
engine evaluates the objective only on the other rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, InvalidDimensionError
from .metrics import _row_sums

__all__ = ["ObjectiveSpec", "rastrigin", "quadratic", "by_name"]


@dataclass(frozen=True)
class ObjectiveSpec:
    """An objective together with its assumption metadata.

    ``eval`` accepts a single point of shape ``(dim,)`` or a batch of shape
    ``(n, dim)`` and returns a scalar or an ``(n,)`` array.  Instances are
    immutable and safe to evaluate concurrently.

    ``floor``, when not None, is a cheap lower bound of ``eval`` taking the
    same arguments.  Its contract is exact in float64: for every row ``v``
    whose ``floor(v)`` is finite, ``eval(v)`` is finite too and ``floor(v)
    <= eval(v)`` as computed; so the floor is non-finite wherever ``eval``
    is.  ``engine.states`` then evaluates, at large alpha, only the rows
    whose consensus weight can be nonzero, and the floor of every other row
    stands in for its energy.  A spec whose ``eval`` is replaced
    (``dataclasses.replace(spec, eval=...)``) must pass ``floor=None`` too,
    unless the floor still bounds the new ``eval``.
    """

    name: str
    dim: int
    eval: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    minimizer: Optional[np.ndarray]
    e_under: float
    eta: float
    nu: float
    r0: float
    e_inf: float
    l_e: float
    gamma: float
    c1: float
    c2: float
    c3: float
    c4: float
    floor: Optional[Callable[[np.ndarray], np.ndarray]] = field(default=None, repr=False)


def _check_dim(dim):
    if not isinstance(dim, (int, np.integer)) or dim < 1:
        raise InvalidDimensionError(f"dimension must be a positive integer, got {dim!r}")
    return int(dim)


def rastrigin(dim):
    """Separable Rastrigin objective E(v) = sum_k v_k^2 + 2.5 (1 - cos(2 pi v_k)).

    Global minimum 0 at the origin.  The quadratic minorant E(v) >= ||v||^2
    holds everywhere, so the inverse-continuity property holds globally with
    eta = 1 and nu = 1/2.  It is also the spec's ``floor``, and exact in
    float64: each term of ``eval`` adds 2.5 (1 - cos) >= 0 to ``v * v``, and
    both sums are ``metrics._row_sums`` of the same (rows, dim) shape, in
    one order of adds, so by monotone rounding the floor never exceeds a
    finite computed energy, and it overflows wherever the energy is not
    finite.  The Lipschitz constant is taken on [-10, 10] per coordinate
    and summed over coordinates; the growth constants come from the
    coordinate-wise bound e(x) <= 6 (1 + x^2), likewise summed.
    """
    dim = _check_dim(dim)

    def _eval(v):
        v = np.asarray(v, dtype=float)
        e = v * v + 2.5 * (1.0 - np.cos(2.0 * np.pi * v))
        return _row_sums(e)

    def _floor(v):
        v = np.asarray(v, dtype=float)
        return _row_sums(v * v)

    minimizer = np.zeros(dim)
    minimizer.setflags(write=False)
    return ObjectiveSpec(
        name="rastrigin",
        dim=dim,
        eval=_eval,
        minimizer=minimizer,
        e_under=0.0,
        eta=1.0,
        nu=0.5,
        r0=math.inf,
        e_inf=math.inf,
        l_e=dim * (20.0 + 5.0 * math.pi),
        gamma=1.0,
        c1=2.0 + 10.0 * math.pi**2,
        c2=6.0 * dim,
        c3=1.0,
        c4=1.0,
        floor=_floor,
    )


def quadratic(dim, center=None):
    """Shifted quadratic E(v) = ||v - center||_2^2 (center defaults to 0).

    Analytic test objective: the inverse-continuity property holds globally
    with equality (eta = 1, nu = 1/2).  The growth constants are written for
    a general center and reduce to the unit constants at center = 0; c1
    assumes the centered form (the dynamics are shift-equivariant).  It has
    no ``floor``: its ``eval`` is already as cheap as any bound.
    """
    dim = _check_dim(dim)
    if center is None:
        center = np.zeros(dim)
    center = np.asarray(center, dtype=float)
    if center.shape != (dim,):
        raise InvalidDimensionError(
            f"center has shape {center.shape}, expected ({dim},)"
        )
    center = center.copy()
    center.setflags(write=False)

    def _eval(v):
        v = np.asarray(v, dtype=float)
        d = v - center
        return _row_sums(d * d)

    cnorm = float(np.linalg.norm(center))
    return ObjectiveSpec(
        name="quadratic",
        dim=dim,
        eval=_eval,
        minimizer=center,
        e_under=0.0,
        eta=1.0,
        nu=0.5,
        r0=math.inf,
        e_inf=math.inf,
        l_e=1.0,
        gamma=1.0,
        c1=1.0,
        c2=(1.0 + cnorm) ** 2,
        c3=0.25,
        c4=max(1.0, 2.0 * cnorm),
    )


_BY_NAME = {"rastrigin": rastrigin, "quadratic": quadratic}


def by_name(name, dim, **kwargs):
    """Resolve an objective from its config-file name ("rastrigin", "quadratic")."""
    try:
        factory = _BY_NAME[name]
    except KeyError:
        raise ConfigError(f"unknown objective {name!r}; known: {sorted(_BY_NAME)}") from None
    return factory(dim, **kwargs)
