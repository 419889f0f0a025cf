"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured values (run with ``pytest tests/test_acceptance.py -s`` to see
them live).  The experiment-scale criteria run at their stated sizes, so
this module takes a few minutes in total.  Criteria 1 (the mu = 1 rate), 3
and 8 also run at the non-pinned seeds ``SEEDS``, with the same bounds.
"""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cbo import cli, engine, metrics, mfa, objectives, theory

CONFIGS = Path(__file__).resolve().parent.parent / "docs" / "configs"
RATE = 2.0 * 1.0 - 1 * 0.5**2  # 1.75
MU1 = engine.GaussianIsotropic((1.0,), 0.8)
# sweep seeds s beside the pinned s = 1, fixed in advance: an outcome outside
# a bound is a finding about the program or the bound, never a reason to drop s
SEEDS = (2, 3, 4)


def fig_variance_params(seed, steps=400, n=20_000):
    return engine.CboParams(
        lam=1.0, sigma=0.5, alpha=1e15, dt=0.01, steps=steps,
        n_particles=n, dim=1, seed=seed,
    )


def mu1_rate(seed):
    """Criterion 1's fitted V decay rate of the mu = 1 run at ``seed``."""
    series = engine.simulate(MU1, objectives.rastrigin(1), fig_variance_params(seed=seed))
    ts, vs = series.column("t"), series.column("v_func")
    return metrics.fit_decay_rate(ts, vs, metrics.default_fit_window(ts, vs))


def test_criterion_1_decay_rate_and_variance_bump():
    # mu = 1: fitted V decay rate within +-15% of 2 lam - d sigma^2 = 1.75
    rate = mu1_rate(1)
    assert abs(rate - RATE) <= 0.15 * RATE

    # mu = 4: the halved variance exceeds its initial value at some t <= 0.5
    obj = objectives.rastrigin(1)
    dist4 = engine.GaussianIsotropic((4.0,), 0.8)
    series4 = engine.simulate(dist4, obj, fig_variance_params(seed=4))
    t4 = series4.column("t")
    var4 = series4.column("variance")
    bumped = bool(np.any(var4[(t4 > 0) & (t4 <= 0.5)] > var4[0]))
    assert bumped
    print(
        f"[criterion 1] PASS: fitted rate {rate:.4f} vs {RATE} "
        f"({100 * (rate / RATE - 1):+.1f}%), mu=4 variance bump by t<=0.5: {bumped}"
    )


@pytest.mark.slow
def test_criterion_2_straight_mean_trajectories(tmp_path):
    out = tmp_path / "fig_traj"
    code = cli.main(
        ["preset", "fig-trajectories", "--runs", "100", "--n", "4000",
         "--steps", "600", "--seed", "1", "--out", str(out)]
    )
    assert code == 0
    summary = dict(
        line.split(" = ", 1) for line in (out / "summary.txt").read_text().splitlines()
    )
    devs, ends = [], []
    for agent in range(3):
        dev = float(summary[f"chord_deviation_agent{agent}"])
        end = float(summary[f"endpoint_dist_agent{agent}"])
        assert dev <= 0.15, f"agent {agent} chord deviation {dev}"
        assert end <= 0.5, f"agent {agent} endpoint distance {end}"
        devs.append(dev)
        ends.append(end)
    print(
        "[criterion 2] PASS: chord deviations "
        + ", ".join(f"{d:.3f}" for d in devs)
        + " (tol 0.15); endpoint distances "
        + ", ".join(f"{e:.3f}" for e in ends)
        + " (tol 0.5)"
    )


def mfa_sweep_at(s):
    """The sweep of docs/configs/mfa_sweep.json, read as `cbo preset mfa-sweep`
    reads it, with every seed moved by s - 1: s = 1 is the file's own
    (``params.seed`` 11, replication seeds 12 .. 43)."""
    raw = cli.load_config(CONFIGS / "mfa_sweep.json")
    cfg, preset = cli.parse_run_config(raw), cli.PRESETS["mfa_sweep"]
    sweep = cli.read_block(raw[preset.block], preset.block, preset.options)
    seeds = [sweep["seed0"] + s - 1 + i for i in range(sweep["n_seeds"])]
    return mfa.mfa_sweep(cfg.init, cfg.objective, replace(cfg.params, seed=cfg.params.seed + s - 1),
                         sweep["n_values"], sweep["n_ref"], seeds, sweep["m_factor"])


def test_criterion_3_mean_field_scaling():
    result = mfa_sweep_at(1)
    assert -1.4 <= result.slope <= -0.6, f"slope {result.slope}"
    for run in result.runs:
        assert 0.0 <= run.exceed_fraction <= 1.0
    print(
        f"[criterion 3] PASS: log-log slope {result.slope:.3f} in [-1.4, -0.6]; "
        f"err_sup by N: "
        + ", ".join(f"{r.n}:{r.err_sup:.2e}" for r in result.runs)
    )


def test_criterion_4_laplace_bound_audit():
    result = theory.laplace_audit(n_measures=1000, seed=2024)
    assert result.checked == 1000
    assert result.violations == 0
    print(
        f"[criterion 4] PASS: 0 violations over {result.checked} measures "
        f"(min margin {result.min_margin:.3g}, tightest ratio "
        f"{result.tightness_max:.3f})"
    )


@pytest.mark.parametrize("d", [1, 2, 5])
def test_criterion_5_mollifier_calculus(d):
    rng = np.random.default_rng(160 + d)
    r = 1.0
    vstar = rng.standard_normal(d) * 0.2
    assert theory.mollifier(vstar, vstar, r) == 1.0
    # support containment is exact
    for _ in range(50):
        u = rng.standard_normal(d)
        u /= np.linalg.norm(u)
        outside = vstar + u * rng.uniform(1.0, 3.0) * r
        assert theory.mollifier(outside, vstar, r) == 0.0
        assert np.array_equal(theory.mollifier_grad(outside, vstar, r), np.zeros(d))
        assert theory.mollifier_laplacian(outside, vstar, r) == 0.0
    h_grad, h_lap = 1e-6 * r, 3e-5 * r
    worst_g = worst_l = 0.0
    for _ in range(100):
        u = rng.standard_normal(d)
        u /= np.linalg.norm(u)
        v = vstar + u * rng.uniform(0.0, 0.9 * r)
        grad = theory.mollifier_grad(v, vstar, r)
        lap = theory.mollifier_laplacian(v, vstar, r)
        f0 = theory.mollifier(v, vstar, r)
        fd_grad = np.empty(d)
        fd_lap = 0.0
        for k in range(d):
            e = np.zeros(d)
            e[k] = h_grad
            fd_grad[k] = (
                theory.mollifier(v + e, vstar, r) - theory.mollifier(v - e, vstar, r)
            ) / (2 * h_grad)
            e[k] = h_lap
            fd_lap += (
                theory.mollifier(v + e, vstar, r) - 2 * f0
                + theory.mollifier(v - e, vstar, r)
            ) / h_lap**2
        worst_g = max(
            worst_g,
            np.linalg.norm(grad - fd_grad) / max(np.linalg.norm(grad), 1e-12),
        )
        worst_l = max(worst_l, abs(lap - fd_lap) / max(abs(lap), 1e-9))
    assert worst_g <= 1e-5 and worst_l <= 1e-5
    print(
        f"[criterion 5] PASS (d={d}): worst gradient rel err {worst_g:.2e}, "
        f"worst laplacian rel err {worst_l:.2e} (tol 1e-5)"
    )


def test_criterion_6_closed_form_constants():
    assert abs(theory.find_c(1) - (math.sqrt(5) - 1) / 2) <= 1e-12
    assert abs(theory.t_star(1.0, math.exp(-1.75), 0.0, 1.0, 0.5, 1) - 1.0) <= 1e-12
    assert theory.b_constants(1.0, 1.0, 1.0, 1.0) == (5.0, 4.0)
    assert theory.decay_rate_q(0.0, 1.0, 1, 0.75, 1.0, 0.0) == 960.0
    print(
        "[criterion 6] PASS: find_c(1), t_star, b_constants, decay_rate_q "
        "match their closed forms"
    )


def test_criterion_7_structural_invariants(tmp_path):
    rng = np.random.default_rng(70)
    obj = objectives.rastrigin(2)

    # consensus lies in the convex hull of the particles (1000 cases)
    for _ in range(1000):
        n = int(rng.integers(1, 50))
        alpha = 10.0 ** rng.uniform(-2, 15)
        x = rng.uniform(-5, 5, (n, 2))
        c = engine.consensus_point(x, obj.eval(x), alpha)
        assert np.all(c >= x.min(axis=0) - 1e-12)
        assert np.all(c <= x.max(axis=0) + 1e-12)

    # adding a constant to the objective moves the consensus by <= 1e-12
    base = objectives.rastrigin(1)
    lifted = objectives.ObjectiveSpec(
        name="offset", dim=1, eval=lambda v: base.eval(v) + 11.0,
        minimizer=base.minimizer, e_under=11.0, eta=1.0, nu=0.5,
        r0=math.inf, e_inf=math.inf, l_e=base.l_e, gamma=base.gamma,
        c1=base.c1, c2=base.c2, c3=base.c3, c4=base.c4,
    )
    for _ in range(1000):
        x = rng.uniform(-4, 4, (int(rng.integers(2, 40)), 1))
        alpha = 10.0 ** rng.uniform(-2, 2)
        c0 = engine.consensus_point(x, base.eval(x), alpha)
        c1 = engine.consensus_point(x, lifted.eval(x), alpha)
        assert abs(float(c1[0] - c0[0])) <= 1e-12

    # Var <= V, the decomposition identity, and w2 = 2 V exactly (1000 cases)
    for _ in range(1000):
        n = int(rng.integers(2, 60))
        d = int(rng.integers(1, 4))
        x = rng.standard_normal((n, d)) * rng.uniform(0.2, 4)
        vstar = rng.standard_normal(d)
        rec = metrics.snapshot(0.0, x, vstar, vstar, ())
        v, var = rec.v_func, rec.variance
        gap = x.mean(axis=0) - vstar
        assert var <= v + 1e-12
        assert abs(var - (v - 0.5 * float(gap @ gap))) <= 1e-10
        assert rec.w2_sq == 2.0 * v  # w2_sq is materialized as exactly 2 * v_func

    rec = engine.simulate(
        engine.GaussianIsotropic((1.0,), 1.0), objectives.quadratic(1),
        engine.CboParams(lam=1.0, sigma=0.5, alpha=5.0, dt=0.01, steps=10,
                         n_particles=30, dim=1, seed=8),
    ).records
    assert all(r.w2_sq == 2.0 * r.v_func for r in rec)

    # repeated seed gives byte-identical CSV
    cfg = {
        "objective": {"name": "quadratic", "dim": 1},
        "init": {"kind": "gaussian", "mean": [1.0], "variance": 0.5},
        "params": {"lambda": 1.0, "sigma": 0.5, "alpha": 10.0, "dt": 0.01,
                   "steps": 30, "n_particles": 80, "dim": 1, "seed": 17},
        "recording": {"stride": 1, "ball_radii": [0.5]},
        "outputs": str(tmp_path / "det"),
    }
    import json

    cfg_path = tmp_path / "det.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["run", str(cfg_path)]) == 0
    first = (tmp_path / "det" / "metrics.csv").read_bytes()
    assert cli.main(["run", str(cfg_path)]) == 0
    assert first == (tmp_path / "det" / "metrics.csv").read_bytes()

    print(
        "[criterion 7] PASS: hull containment, offset invariance (1e-12), "
        "Var<=V identity (1e-10), w2 = 2V exact, deterministic CSV "
        "(1000 randomized cases per property)"
    )


def mass_audit(seed):
    """Criterion 8's audit of the mu = 1 run at ``seed``."""
    return theory.mass_decay_audit(MU1, objectives.rastrigin(1),
                                   fig_variance_params(seed=seed), r=1.0)


def test_criterion_8_mass_lower_bound():
    result = mass_audit(1)
    assert result.ok, f"min margin {result.min_margin}"
    print(
        f"[criterion 8] PASS: empirical mollified mass >= bound - 3 SE at all "
        f"{result.times.size} recorded times (q = {result.q:.2f}, "
        f"B = {result.b_sup:.2e}, min margin {result.min_margin:.4f})"
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_criterion_1_decay_rate_other_seeds(seed):
    rate = mu1_rate(seed)
    assert abs(rate - RATE) <= 0.15 * RATE
    print(f"[criterion 1, seed {seed}] PASS: fitted rate {rate:.4f} vs {RATE}")


@pytest.mark.parametrize("s", SEEDS)
def test_criterion_3_mean_field_scaling_other_seeds(s):
    slope = mfa_sweep_at(s).slope
    assert -1.4 <= slope <= -0.6
    print(f"[criterion 3, s = {s}] PASS: log-log slope {slope:.3f} in [-1.4, -0.6]")


@pytest.mark.parametrize("seed", SEEDS)
def test_criterion_8_mass_lower_bound_other_seeds(seed):
    result = mass_audit(seed)
    assert result.ok, f"min margin {result.min_margin}"
    print(f"[criterion 8, seed {seed}] PASS: min margin {result.min_margin:.4f}")
