"""Closed-form theoretical quantities as evaluable functions.

Covers the geometric constant c and the mass-decay rate q, the exponential
mass lower bound and its mollifier calculus, the quantitative Laplace bound
on the consensus-to-minimizer distance, the time horizon for a target
accuracy, the alpha threshold heuristic, the well-preparedness diagnostics
of the variance-based analysis, the right-hand side of the V-functional
evolution inequality, and the moment-bound constants b1/b2.  Two empirical
audits (Laplace bound, mass lower bound) exercise the inequalities against
sampled ensembles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import engine, objectives
from .errors import (
    EmptyBallError,
    InfiniteRateError,
    InvalidAccuracyError,
    InvalidInputError,
    NonContractiveError,
    UnsupportedInitializationError,
)
from .metrics import _row_sums, snapshot

__all__ = [
    "find_c",
    "decay_rate_q",
    "mass_lower_bound",
    "mollifier",
    "mollifier_grad",
    "mollifier_laplacian",
    "laplace_bound",
    "t_star",
    "alpha0_estimate",
    "alpha0_c_constant",
    "wellprep_check",
    "WellPreparedness",
    "evolution_rhs",
    "b_constants",
    "TheoryReport",
    "build_theory_report",
    "laplace_audit",
    "LaplaceAuditResult",
    "mass_decay_audit",
    "MassAuditResult",
]


def _power(base, exponent):
    """base ** exponent for base >= 0, or +inf where the power passes the
    float range and ** raises OverflowError."""
    try:
        return base ** exponent
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# constants of the mass lower bound


def find_c(d):
    """Smallest c in (1/2, 1) with (2c - 1) c >= d (1 - c)^2.

    The boundary case is the root in (1/2, 1) of
    (2 - d) c^2 + (2d - 1) c - d = 0, whose discriminant simplifies to
    4d + 1; at d = 2 the quadratic degenerates to a linear equation.
    """
    if d < 1:
        raise InvalidInputError(f"dimension must be >= 1, got {d}")
    if d == 2:
        c = 2.0 / 3.0
    else:
        c = (2.0 * d - 1.0 - math.sqrt(4.0 * d + 1.0)) / (2.0 * (d - 2.0))
    assert 0.5 < c < 1.0
    assert (2.0 * c - 1.0) * c - d * (1.0 - c) ** 2 >= -1e-12
    return c


def decay_rate_q(lam, sigma, d, c, r, b_bound):
    """Exponential rate at which mass near the minimizer can decay, at most.

    q = max{ 2 lam (sqrt(c) r + B) sqrt(c) / ((1-c)^2 r)
             + 2 sigma^2 (c r^2 + B^2) (2c + d) / ((1-c)^4 r^2),
             4 lam^2 / ((2c - 1) sigma^2) },

    with B = ``b_bound`` the sup of the consensus-to-minimizer distance.
    Requires sigma > 0; otherwise the second branch is infinite and no
    finite rate exists.
    """
    if not 0.5 < c < 1.0:
        raise InvalidInputError(f"c must lie in (1/2, 1), got {c}")
    if not r > 0 or not math.isfinite(r):
        raise InvalidInputError(f"radius must be positive and finite, got {r}")
    if b_bound < 0:
        raise InvalidInputError(f"b_bound must be >= 0, got {b_bound}")
    if sigma == 0:
        raise InfiniteRateError("sigma = 0 admits no finite mass-decay rate")
    # squares as products, which overflow to inf where ** raises, and one
    # division per small factor, which overflows to inf where their product
    # would underflow to 0; the noise part's (c r^2 + B^2) / r^2 as
    # c + (B / r)^2, finite for any finite r
    sc, ratio = math.sqrt(c), b_bound / r
    drift_part = 2.0 * lam * (sc * r + b_bound) * sc / (1.0 - c) ** 2 / r
    noise_part = 2.0 * sigma * sigma * (c + ratio * ratio) * (2.0 * c + d) / (1.0 - c) ** 4
    return max(drift_part + noise_part, 4.0 * lam * lam / (2.0 * c - 1.0) / sigma / sigma)


def mass_lower_bound(phi_mass0, q, t):
    """phi_mass0 * exp(-q t): the guaranteed mollified mass at time t."""
    if not 0.0 <= phi_mass0 <= 1.0:
        raise InvalidInputError(f"phi_mass0 must lie in [0, 1], got {phi_mass0}")
    if t < 0:
        raise InvalidInputError(f"t must be >= 0, got {t}")
    return phi_mass0 * math.exp(-q * t)


# ---------------------------------------------------------------------------
# mollifier calculus


def mollifier(v, vstar, r):
    """Smooth bump in [0, 1] supported on the open ball of radius r at v*:

        phi_r(v) = exp(1 - r^2 / (r^2 - ||v - v*||^2))   for ||v - v*|| < r,
                   0                                     otherwise.

    Accepts a single point (dim,) or a batch (n, dim).  Where r^2
    overflows, phi_r is its limit as r -> inf: 1 at every finite distance.
    """
    if not r > 0:
        raise InvalidInputError(f"radius must be positive, got {r}")
    v = np.asarray(v, dtype=float)
    diff = v - np.asarray(vstar, dtype=float)
    with np.errstate(over="ignore"):  # a distance whose square overflows is outside
        s = _row_sums(diff * diff)
    inside = s < r * r
    if r * r == math.inf:  # r^2 / (r^2 - s) -> 1, where inf / inf is NaN
        out = np.where(inside, 1.0, 0.0)
    else:
        gap = np.where(inside, r * r - s, 1.0)  # placeholder 1.0 avoids 0-division
        out = np.where(inside, np.exp(1.0 - r * r / gap), 0.0)
    return float(out) if out.ndim == 0 else out


def _radial_parts(v, vstar, r):
    v = np.asarray(v, dtype=float)
    diff = v - np.asarray(vstar, dtype=float)
    with np.errstate(over="ignore"):  # a distance whose square overflows is outside
        s = float((diff * diff).sum())
    return diff, s


def mollifier_grad(v, vstar, r):
    """Gradient of the mollifier: -2 r^2 (v - v*) / (r^2 - ||v - v*||^2)^2 * phi_r(v),
    and the zero vector outside the open ball and where r^2 overflows (the
    limit as r -> inf)."""
    diff, s = _radial_parts(v, vstar, r)
    if s >= r * r or r * r == math.inf:
        return np.zeros_like(diff)
    gap = r * r - s  # a division by gap twice: gap^2 may overflow
    return -2.0 * r * r * diff / gap / gap * mollifier(v, vstar, r)


def mollifier_laplacian(v, vstar, r):
    """Laplacian of the mollifier in d dimensions:

        2 r^2 * [2 (2 s - r^2) s - d (r^2 - s)^2] / (r^2 - s)^4 * phi_r(v)

    with s = ||v - v*||^2, and 0 outside the open ball and where r^2
    overflows (the limit as r -> inf).
    """
    diff, s = _radial_parts(v, vstar, r)
    if s >= r * r or r * r == math.inf:
        return 0.0
    d = diff.shape[-1]
    gap = r * r - s
    # as 2 r^2 / gap^2 * [2 (2 s - r^2) s / gap^2 - d], each 1 / gap^2 a
    # division by gap twice: gap^2 may overflow, and gap^4 sooner
    num = 2.0 * (2.0 * s - r * r) * s / gap / gap - d
    return float(2.0 * r * r / gap / gap * num * mollifier(v, vstar, r))


# ---------------------------------------------------------------------------
# quantitative Laplace principle and convergence horizon


def laplace_bound(first_moment, mass_r, alpha, q, e_r, eta, nu):
    """Nonasymptotic bound on the consensus-to-minimizer distance:

        (q + E_r)^nu / eta + exp(-alpha q) * first_moment / mass_r,

    where E_r bounds the objective gap on the ball carrying mass ``mass_r``
    and ``first_moment`` is the mean distance to the minimizer.  Feasibility
    (r <= R0 and q + E_r <= the farfield floor) is the caller's contract.
    A power past the float range is +inf.
    """
    if mass_r == 0:
        raise EmptyBallError("no mass inside the ball: the bound is vacuous")
    if not 0.0 < mass_r <= 1.0:
        raise InvalidInputError(f"mass_r must lie in (0, 1], got {mass_r}")
    if alpha < 0 or not q > 0:
        raise InvalidInputError("need alpha >= 0 and q > 0")
    return _power(q + e_r, nu) / eta + math.exp(-alpha * q) * first_moment / mass_r


def t_star(v0, eps, tau, lam, sigma, d):
    """Time horizon log(v0 / eps) / ((1 - tau) (2 lam - d sigma^2)) after
    which the V-functional has decayed from v0 to the accuracy eps."""
    rate = engine.contraction_rate(lam, sigma, d)
    if not rate > 0:
        raise NonContractiveError(
            f"need 2 lam > d sigma^2, got 2*{lam} <= {d}*{sigma}^2"
        )
    if not 0.0 <= tau < 1.0:
        raise InvalidInputError(f"tau must lie in [0, 1), got {tau}")
    if not 0.0 < eps <= v0:
        raise InvalidAccuracyError(f"need 0 < eps <= v0, got eps={eps}, v0={v0}")
    return math.log(v0 / eps) / ((1.0 - tau) * rate)


def alpha0_c_constant(tau, lam, sigma, d):
    """The constant c(tau, lam, sigma) entering the alpha threshold:

        sqrt(c) = min{ tau (2 lam - d sigma^2) / (2 sqrt(2) (lam + d sigma^2)),
                       sqrt(tau (2 lam - d sigma^2) / (d sigma^2)) }.
    """
    rate = engine.contraction_rate(lam, sigma, d)
    if not rate > 0:
        raise NonContractiveError("need 2 lam > d sigma^2")
    if not 0.0 < tau < 1.0:
        raise InvalidInputError(f"tau must lie in (0, 1), got {tau}")
    first = tau * rate / (2.0 * math.sqrt(2.0) * (lam + d * (sigma * sigma)))
    if sigma > 0:  # divided by sigma twice: sigma^2 may underflow to 0
        second = math.sqrt(tau * rate / d / sigma / sigma)
        sqrt_c = min(first, second)
    else:
        sqrt_c = first
    return sqrt_c**2


def alpha0_estimate(c, eta, eps, l, mass_fn):
    """Heuristic lower bound for the weight exponent:

        alpha_0 = -8 log( sqrt(c) / (2 sqrt(2)) * rho_0(B_rad(v*)) ) / (c eta^2 eps)

    with ball radius rad = c eta^2 eps / (8 l).  ``mass_fn`` maps a radius to
    the initial mass of the corresponding ball.  Valid under a globally
    coercive objective with nu = 1/2 and assuming the mass near the
    minimizer is smallest at time zero.
    """
    if not (c > 0 and eta > 0 and eps > 0 and l > 0):
        raise InvalidInputError("c, eta, eps, l must all be positive")
    radius = c * (eta * eta) * eps / (8.0 * l)
    mass = float(mass_fn(radius))
    if mass <= 0:
        raise UnsupportedInitializationError(
            f"initial measure has zero mass in the ball of radius {radius:.3g}"
        )
    return -8.0 * math.log(math.sqrt(c) / (2.0 * math.sqrt(2.0)) * mass) / (
        c * (eta * eta) * eps
    )


# ---------------------------------------------------------------------------
# variance-analysis diagnostics


@dataclass(frozen=True)
class WellPreparedness:
    """Outcome of the initialization conditions of the variance-based
    analysis; margins are (rhs - lhs), positive when the condition holds."""

    cond1: bool
    cond2: bool
    margin1: float
    margin2: float
    var_bound_holds: bool
    var_bound_margin: float


def wellprep_check(alpha, lam, sigma, e_under, energies, var0, d):
    """Evaluate the well-preparedness conditions on an energy sample.

    Condition 1: 2 alpha exp(-2 alpha E_under) (sigma^2 + 2 lam) < 3/4.
    Condition 2: 2 lam w^2 - var0 - 2 d sigma^2 w exp(-alpha E_under) >= 0,
    with w the sample mean of exp(-alpha E) standing in for the L1 norm of
    the weight under the initial measure.  Also reports the concentration
    diagnostic var0 <= 3/(8 alpha) * (mean exp(-alpha (E - E_under)))^2.
    """
    energies = np.asarray(energies, dtype=float)
    if energies.size == 0:
        raise InvalidInputError("need a nonempty energy sample")
    # alpha E_under before the factor -2, so that an alpha that overflows
    # with it meets E_under = 0 as 0, not as -inf * 0
    lhs1 = 2.0 * alpha * math.exp(-2.0 * (alpha * e_under)) * (sigma * sigma + 2.0 * lam)
    margin1 = 0.75 - lhs1
    # -alpha E overflows to -inf for alpha near the float maximum: exp gives 0
    with np.errstate(over="ignore"):
        w = float(np.mean(np.exp(-alpha * energies)))
        w_shifted = float(np.mean(np.exp(-alpha * (energies - e_under))))
    margin2 = (
        2.0 * lam * (w * w) - var0
        - 2.0 * d * (sigma * sigma) * w * math.exp(-alpha * e_under)
    )
    margin_var = 3.0 / (8.0 * alpha) * (w_shifted * w_shifted) - var0
    return WellPreparedness(
        cond1=margin1 > 0,
        cond2=margin2 >= 0,
        margin1=margin1,
        margin2=margin2,
        var_bound_holds=margin_var >= 0,
        var_bound_margin=margin_var,
    )


def evolution_rhs(v, cons_dist, lam, sigma, d, h_active=None):
    """Right-hand side of the V-functional evolution inequality:

        -(2 lam - d sigma^2) v + sqrt(2) (lam + d sigma^2) sqrt(v) D
        + (d sigma^2 / 2) D^2,

    with D the consensus-to-minimizer distance.  When the drift cutoff is
    active, ``h_active = (eta, nu, l_e, gamma)`` adds the extra term
    (lam / eta^2) (l_e (1 + D^gamma) D)^(2 nu), +inf where a power of it
    passes the float range.
    """
    if v < 0 or cons_dist < 0:
        raise InvalidInputError("v and cons_dist must be >= 0")
    ds2 = d * (sigma * sigma)
    val = (
        -engine.contraction_rate(lam, sigma, d) * v
        + math.sqrt(2.0) * (lam + ds2) * math.sqrt(v) * cons_dist
        + 0.5 * ds2 * (cons_dist * cons_dist)
    )
    if h_active is not None:
        eta, nu, l_e, gamma = h_active
        base = l_e * (1.0 + _power(cons_dist, gamma)) * cons_dist
        val += (lam / eta / eta) * _power(base, 2.0 * nu)
    return val


def b_constants(alpha, c2, c3, c4, bounded=None):
    """Constants bounding the consensus point's second moment.

    Coercive (unbounded) objectives: b2 = 2 (C2/C3) (1 + 1/(alpha C3 C4^2))
    and b1 = C4^2 + b2.  Bounded objectives, with ``bounded = (e_sup,
    e_under)``: b1 = 0 and b2 = exp(alpha (e_sup - e_under)).
    """
    if bounded is not None:
        e_sup, e_under = bounded
        return 0.0, math.exp(alpha * (e_sup - e_under))
    if not (alpha > 0 and c2 > 0 and c3 > 0 and c4 > 0):
        raise InvalidInputError("alpha and C2..C4 must be positive")
    b2 = 2.0 * (c2 / c3) * (1.0 + 1.0 / (alpha * c3 * (c4 * c4)))
    return c4 * c4 + b2, b2


# ---------------------------------------------------------------------------
# report assembly


def _small_ball_mass(dists, d, rad):
    """Empirical ball mass with a density extrapolation below the sample
    resolution: for radii holding no sample point, scale the mass of the
    smallest k-point ball by (rad / r_k)^d (locally constant density)."""
    n = dists.size
    mass = float(np.mean(dists <= rad))
    if mass > 0:
        return mass
    k = min(n, max(10, n // 100))
    r_k = float(np.partition(dists, k - 1)[k - 1])
    if r_k <= 0:
        return k / n
    return (k / n) * (rad / r_k) ** d


@dataclass
class TheoryReport:
    """Evaluated closed-form constants for one configuration.

    ``q_rate``, ``alpha0`` and ``laplace_rhs`` are None when undefined for
    the configuration (sigma = 0; tau = 0 or an unsupported initialization;
    no sample mass in the ball of radius r); the reason is then recorded in
    ``notes``.  ``wellprep`` holds the well-preparedness conditions of the
    initial sample and their margins.
    """

    c: float
    q_rate: Optional[float]
    t_star: float
    alpha0: Optional[float]
    b1: float
    b2: float
    laplace_rhs: Optional[float]
    wellprep: WellPreparedness
    notes: tuple = ()


def build_theory_report(obj, params, x0, eps, tau, r=None, b_bound=None,
                        q_laplace=None):
    """Assemble a TheoryReport for an objective/parameter pair.

    ``x0`` is an (n, dim) sample of the initial measure used for all empirical
    surrogates (ball masses, energy sample, first moment).  ``r`` defaults
    to the median distance of the sample to the minimizer, ``b_bound`` to
    the consensus distance of the sample, and ``q_laplace`` to ``eps``.
    """
    if obj.minimizer is None:
        raise InvalidInputError("theory report needs an objective with a minimizer")
    notes = [
        "objective metadata (eta, l_e, gamma, c1..c4) are documented analytic "
        "estimates, not fitted constants"
    ]
    d = params.dim
    vstar = obj.minimizer
    dists = np.linalg.norm(x0 - vstar, axis=1)
    energies = np.asarray(obj.eval(x0), dtype=float)
    rec0 = snapshot(0.0, x0, vstar, engine.consensus_point(x0, energies, params.alpha), ())

    c = find_c(d)
    if r is None:
        r = float(np.median(dists))
        notes.append(f"r defaulted to the sample median distance {r:.6g}")
    if b_bound is None:
        b_bound = rec0.consensus_dist
        notes.append(f"b_bound defaulted to the initial consensus distance {b_bound:.6g}")

    try:
        q_rate = decay_rate_q(params.lam, params.sigma, d, c, r, b_bound)
    except InfiniteRateError:
        q_rate = None
        notes.append("q is infinite (sigma = 0)")

    horizon = t_star(rec0.v_func, eps, tau, params.lam, params.sigma, d)

    alpha0 = None
    if tau > 0:
        try:
            c_alpha = alpha0_c_constant(tau, params.lam, params.sigma, d)
            alpha0 = alpha0_estimate(
                c_alpha, obj.eta, eps, obj.l_e,
                lambda rad: _small_ball_mass(dists, d, rad),
            )
            notes.append(
                "alpha0 ball mass uses a small-ball density extrapolation of "
                "the sample"
            )
        except UnsupportedInitializationError as err:
            notes.append(f"alpha0 undefined: {err}")
    else:
        notes.append("alpha0 undefined for tau = 0")

    b1, b2 = b_constants(params.alpha, obj.c2, obj.c3, obj.c4)

    q_lap = eps if q_laplace is None else q_laplace
    inside = dists <= r
    mass_r = float(np.mean(inside))
    if mass_r > 0:
        e_r = float(energies[inside].max()) - obj.e_under
        if q_lap + e_r > obj.e_inf:
            notes.append("laplace bound infeasible: q + E_r exceeds the farfield floor")
        lap = laplace_bound(
            float(dists.mean()), mass_r, params.alpha, q_lap, e_r, obj.eta, obj.nu
        )
    else:
        lap = None
        notes.append("laplace bound skipped: no sample mass inside the ball")

    wp = wellprep_check(
        params.alpha, params.lam, params.sigma, obj.e_under, energies, rec0.variance, d
    )
    return TheoryReport(
        c=c,
        q_rate=q_rate,
        t_star=horizon,
        alpha0=alpha0,
        b1=b1,
        b2=b2,
        laplace_rhs=lap,
        wellprep=wp,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# empirical audits


@dataclass
class LaplaceAuditResult:
    checked: int
    violations: int
    min_margin: float
    tightness_mean: float
    tightness_max: float


def laplace_audit(n_measures=1000, seed=2024, max_n=500, min_inside=30):
    """Check the Laplace bound against random empirical measures.

    Each case draws 2 min_inside to max_n points in dimension 1, 2 or 3 on
    the quadratic objective, picks a ball radius containing at least
    ``min_inside`` of them, a positive energy gap q, and a weight exponent
    alpha, then verifies that the consensus-to-minimizer distance never
    exceeds the bound.  The gap bound
    E_r is the max energy over in-ball sample points, which is exact for an
    empirical measure.
    """
    for name, value, lo in (("n_measures", n_measures, 1), ("seed", seed, 0),
                            ("min_inside", min_inside, 1), ("max_n", max_n, 2 * min_inside)):
        if value < lo:
            raise InvalidInputError(f"{name} must be >= {lo}, got {value}")
    rng = np.random.default_rng(seed)
    violations = 0
    min_margin = math.inf
    tight_sum = 0.0
    tight_max = 0.0
    for _ in range(n_measures):
        d = int(rng.choice((1, 2, 3)))
        n = int(rng.integers(2 * min_inside, max_n + 1))
        obj = objectives.quadratic(d)
        shift = rng.uniform(-1.0, 1.0, d)
        scale = 10.0 ** rng.uniform(-0.5, 0.5)
        x = shift + scale * rng.standard_normal((n, d))
        dists = np.linalg.norm(x, axis=1)
        k = int(rng.integers(min_inside, n + 1))
        r = float(np.sort(dists)[k - 1])
        alpha = 10.0 ** rng.uniform(-2.0, 6.0)
        q = 10.0 ** rng.uniform(-3.0, 1.0)
        inside = dists <= r
        e_r = float((dists[inside] ** 2).max())
        bound = laplace_bound(
            float(dists.mean()), float(inside.mean()), alpha, q, e_r, obj.eta, obj.nu
        )
        cdist = float(np.linalg.norm(engine.consensus_point(x, obj.eval(x), alpha)))
        margin = bound - cdist
        min_margin = min(min_margin, margin)
        if margin < 0:
            violations += 1
        ratio = cdist / bound if bound > 0 else 0.0
        tight_sum += ratio
        tight_max = max(tight_max, ratio)
    return LaplaceAuditResult(
        checked=n_measures,
        violations=violations,
        min_margin=min_margin,
        tightness_mean=tight_sum / n_measures,
        tightness_max=tight_max,
    )


@dataclass
class MassAuditResult:
    ok: bool
    q: float
    b_sup: float
    phi0: float
    times: np.ndarray
    phi_mass: np.ndarray
    bound: np.ndarray
    min_margin: float


def mass_decay_audit(dist, obj, params, r, stride=1):
    """Run the scheme and compare the empirical mollified mass against the
    exponential lower bound, with a 3-sigma binomial slack.

    B is the observed sup of the consensus distance over the run and q the
    corresponding decay rate; the bound is proven for the mean-field law, so
    the slack absorbs the sampling noise of the empirical measure.
    """
    if obj.minimizer is None:
        raise InvalidInputError("mass audit needs an objective with a minimizer")
    vstar = obj.minimizer
    run = engine.states(engine.sample_initial(dist, params.n_particles, params.dim, params.seed),
                        obj, params, engine.NoiseSource(params.seed))
    times, phi, cdists = [], [], []
    for k, x, c in run:
        cdists.append(float(np.linalg.norm(c - vstar)))
        if k % stride == 0:
            times.append(k * params.dt)
            phi.append(float(np.mean(mollifier(x, vstar, r))))
    b_sup = max(cdists)
    q = decay_rate_q(params.lam, params.sigma, params.dim, find_c(params.dim), r, b_sup)
    times = np.asarray(times)
    phi = np.asarray(phi)
    bound = np.array([mass_lower_bound(phi[0], q, t) for t in times])
    slack = 3.0 * np.sqrt(bound * (1.0 - bound) / params.n_particles)
    margins = phi - (bound - slack)
    return MassAuditResult(
        ok=bool(np.all(margins >= 0)),
        q=q,
        b_sup=b_sup,
        phi0=float(phi[0]),
        times=times,
        phi_mass=phi,
        bound=bound,
        min_margin=float(margins.min()),
    )
