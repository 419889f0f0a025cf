"""Command-line entry point: run configs, experiment presets, CSV output,
theory reports.

Exit codes: 0 success, 2 config error, 3 divergence, 4 theory-precondition
failure.  The laplace-audit preset exits 1 when the audit finds violations.
The worker count of the fig-variance and fig-trajectories fan-out is capped
by the CBO_THREADS environment variable; mfa-sweep runs in one thread.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import engine, mfa, objectives, theory
from ._parallel import thread_map
from .errors import CboError, ConfigError, SimulationError, TheoryPreconditionError
from .metrics import RecordingPlan, default_fit_window, fit_decay_rate

EXIT_OK = 0
EXIT_AUDIT_FAILED = 1
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3
EXIT_THEORY = 4

# fig-variance experiment: 1-D Rastrigin, Gaussian starts N(mu, 0.8)
FIG_VARIANCE_FULL_N = 320_000
FIG_VARIANCE_MEANS = (1.0, 2.0, 3.0, 4.0)
FIG_VARIANCE_VAR = 0.8

# fig-trajectories experiment: 2-D Rastrigin, Gaussian starts N((8, 8), 20)
FIG_TRAJ_FULL_N = 32_000
FIG_TRAJ_MEAN = (8.0, 8.0)
FIG_TRAJ_VAR = 20.0
FIG_TRAJ_TRACKED = ((-2.0, 4.0), (-1.5, -1.5), (4.5, 1.5))
FIG_TRAJ_CHORD_TOL = 0.15


# ---------------------------------------------------------------------------
# config parsing

_MISSING = object()


def _get(cfg, key, ctx, default=_MISSING):
    if not isinstance(cfg, dict):
        raise ConfigError(f"{ctx}: expected an object")
    if key not in cfg:
        if default is _MISSING:
            raise ConfigError(f"{ctx}: missing required key {key!r}")
        return default
    return cfg[key]


def _json_int(value, ctx):
    # a JSON integer; bool is an int subclass but not a count
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{ctx}: expected an integer, got {value!r}")
    return value


def _json_finite(value, ctx):
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigError(f"{ctx}: expected a finite number, got {value!r}")
    return float(value)


def _json_vector(value, ctx):
    if not isinstance(value, list):
        raise ConfigError(f"{ctx}: expected a list of finite numbers, got {value!r}")
    return tuple(_json_finite(v, ctx) for v in value)


def load_config(path):
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}:{err.lineno}:{err.colno}: {err.msg}") from err


def parse_objective(cfg):
    name = _get(cfg, "name", "objective")
    dim = _json_int(_get(cfg, "dim", "objective"), "objective.dim")
    kwargs = {}
    if name == "quadratic" and "center" in cfg:
        kwargs["center"] = cfg["center"]
    try:
        return objectives.by_name(name, dim, **kwargs)
    except CboError:
        raise
    except Exception as err:  # bad types from JSON
        raise ConfigError(f"objective: {err}") from err


def parse_init(cfg):
    kind = _get(cfg, "kind", "init")
    if kind == "gaussian":
        return engine.GaussianIsotropic(
            _json_vector(_get(cfg, "mean", "init"), "init.mean"),
            _json_finite(_get(cfg, "variance", "init"), "init.variance"),
        )
    if kind == "uniform":
        return engine.UniformBox(
            _json_vector(_get(cfg, "lo", "init"), "init.lo"),
            _json_vector(_get(cfg, "hi", "init"), "init.hi"),
        )
    raise ConfigError(f"init.kind: unknown kind {kind!r} (gaussian|uniform)")


def _parse_h(value):
    if value in (None, "const_one"):
        return engine.CONST_ONE
    if isinstance(value, dict) and value.get("kind") == "ramp_heaviside":
        return engine.RampHeaviside(_json_finite(_get(value, "delta", "params.h"), "params.h.delta"))
    raise ConfigError(
        f"params.h: expected 'const_one' or {{'kind': 'ramp_heaviside', 'delta': ...}}, "
        f"got {value!r}"
    )


def parse_params(cfg):
    def number(key):
        return _json_finite(_get(cfg, key, "params"), f"params.{key}")

    def count(key, *default):
        return _json_int(_get(cfg, key, "params", *default), f"params.{key}")

    return engine.CboParams(
        lam=number("lambda"),
        sigma=number("sigma"),
        alpha=number("alpha"),
        dt=number("dt"),
        steps=count("steps"),
        n_particles=count("n_particles"),
        dim=count("dim"),
        h_variant=_parse_h(cfg.get("h")),
        seed=count("seed", 0),
    )


def parse_recording(cfg):
    if cfg is None:
        return RecordingPlan()
    return RecordingPlan(
        stride=_json_int(_get(cfg, "stride", "recording", 1), "recording.stride"),
        ball_radii=_json_vector(_get(cfg, "ball_radii", "recording", []), "recording.ball_radii"),
    )


@dataclass
class RunConfig:
    objective: objectives.ObjectiveSpec
    init: engine.InitDistribution
    params: engine.CboParams
    recording: RecordingPlan
    outputs: Path
    preset: Optional[str]
    raw: dict


def parse_run_config(raw):
    obj = parse_objective(_get(raw, "objective", "config"))
    params = parse_params(_get(raw, "params", "config"))
    if params.dim != obj.dim:
        raise ConfigError(
            f"params.dim = {params.dim} does not match objective.dim = {obj.dim}"
        )
    init = parse_init(_get(raw, "init", "config"))
    plan = parse_recording(raw.get("recording"))
    outputs = Path(_get(raw, "outputs", "config", "out"))
    preset = raw.get("preset")
    return RunConfig(obj, init, params, plan, outputs, preset, raw)


# ---------------------------------------------------------------------------
# CSV / summary persistence (shortest round-trip decimals, '\n' line ends)


def _fmt(x):
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return repr(x)
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, np.floating):
        return repr(float(x))
    return str(x)


def write_metrics_csv(path, series, radii):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = ["t", "v_func", "variance", "w2_sq", "consensus_dist"]
    header += [f"ball_mass_{_fmt(float(r))}" for r in radii]
    header.append("moment4")
    _write_csv(path, header, (
        [rec.t, rec.v_func, rec.variance, rec.w2_sq, rec.consensus_dist,
         *(rec.ball_mass[float(r)] for r in radii), rec.moment4]
        for rec in series.records
    ))
    return path


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt(x) for x in row] for row in rows)


def read_metrics_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(x) for x in row] for row in reader]
    return header, rows


def write_summary(path, items):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"{k} = {_fmt(v)}" for k, v in items.items()]
    path.write_text("\n".join(lines) + "\n")
    return path


# ---------------------------------------------------------------------------
# plain run


def _fitted_rate(series):
    ts = series.times()
    vs = series.column("v_func")
    try:
        window = default_fit_window(ts, vs)
        return fit_decay_rate(list(zip(ts, vs)), window), window
    except CboError as err:
        return None, str(err)


def run_simulation(cfg):
    try:
        result = engine.simulate(cfg.init, cfg.objective, cfg.params, cfg.recording)
    except SimulationError as err:
        if err.partial_series is not None:
            write_metrics_csv(
                cfg.outputs / "metrics.csv", err.partial_series, cfg.recording.ball_radii
            )
        raise
    series = result.series
    write_metrics_csv(cfg.outputs / "metrics.csv", series, cfg.recording.ball_radii)
    rate, window = _fitted_rate(series)
    summary = {
        "objective": cfg.objective.name,
        "dim": cfg.objective.dim,
        "n_particles": cfg.params.n_particles,
        "steps": cfg.params.steps,
        "dt": cfg.params.dt,
        "seed": cfg.params.seed,
        "records": len(series.records),
        "t_final": result.final.time,
        "endpoint_error": series.endpoint_error,
        "config_digest": series.config_digest,
    }
    if rate is None:
        summary["fitted_v_decay_rate"] = f"unavailable ({window})"
    else:
        summary["fitted_v_decay_rate"] = rate
        summary["fit_window"] = f"[{_fmt(window[0])}, {_fmt(window[1])}]"
    write_summary(cfg.outputs / "summary.txt", summary)
    return EXIT_OK


# ---------------------------------------------------------------------------
# preset: fig-variance


def _variance_bump(series, t_max=0.5):
    var0 = series.records[0].variance
    return any(r.variance > var0 for r in series.records if 0.0 < r.t <= t_max)


def preset_fig_variance(out_dir, scale=1.0 / 16.0, seed=1, steps=400, dt=0.01):
    """Variance vs V-functional decay on the 1-D Rastrigin objective, one
    run per initial mean; N is the full 320000 scaled by ``scale``."""
    if not 0.0 < scale <= 1.0:
        raise ConfigError(f"scale must lie in (0, 1], got {scale}")
    out_dir = Path(out_dir)
    n = int(round(FIG_VARIANCE_FULL_N * scale))
    obj = objectives.rastrigin(1)
    plan = RecordingPlan(stride=1, ball_radii=(0.25, 0.5, 1.0))

    def one(i_mu):
        i, mu = i_mu
        params = engine.CboParams(
            lam=1.0, sigma=0.5, alpha=1e15, dt=dt, steps=steps,
            n_particles=n, dim=1, seed=seed + i,
        )
        dist = engine.GaussianIsotropic((mu,), FIG_VARIANCE_VAR)
        result = engine.simulate(dist, obj, params, plan)
        return mu, params, result

    runs = thread_map(one, list(enumerate(FIG_VARIANCE_MEANS)))
    summary = {
        "preset": "fig-variance",
        "n_particles": n,
        "scale": scale,
        "steps": steps,
        "dt": dt,
        "theoretical_rate": 2.0 * 1.0 - 1 * 0.5**2,
    }
    for mu, params, result in runs:
        tag = f"mu{int(mu)}"
        write_metrics_csv(out_dir / tag / "metrics.csv", result.series, plan.ball_radii)
        rate, window = _fitted_rate(result.series)
        sub = {
            "mu": mu,
            "seed": params.seed,
            "endpoint_error": result.series.endpoint_error,
            "config_digest": result.series.config_digest,
            "var_exceeds_initial_by_t0.5": _variance_bump(result.series),
        }
        if rate is None:
            sub["fitted_v_decay_rate"] = f"unavailable ({window})"
            summary[f"fitted_rate_{tag}"] = "unavailable"
        else:
            sub["fitted_v_decay_rate"] = rate
            summary[f"fitted_rate_{tag}"] = rate
        summary[f"var_bump_{tag}"] = sub["var_exceeds_initial_by_t0.5"]
        write_summary(out_dir / tag / "summary.txt", sub)
    write_summary(out_dir / "summary.txt", summary)
    return EXIT_OK


# ---------------------------------------------------------------------------
# preset: fig-trajectories


def chord_deviation(points, start, target):
    """Max orthogonal distance of the path to the line start -> target,
    as a fraction of the chord length."""
    start = np.asarray(start, dtype=float)
    target = np.asarray(target, dtype=float)
    chord = target - start
    length = float(np.linalg.norm(chord))
    if length == 0:
        raise ConfigError("chord has zero length")
    u = chord / length
    rel = np.asarray(points, dtype=float) - start
    along = rel @ u
    orth = np.linalg.norm(rel - along[:, None] * u, axis=1)
    return float(orth.max()) / length


def preset_fig_trajectories(out_dir, runs=100, n=4000, seed=1, steps=600, dt=0.01):
    """Mean trajectories of three tracked agents on the 2-D Rastrigin
    objective, averaged over repeated runs; the tracked agents join the
    ensemble and participate in the dynamics."""
    if runs < 2:
        raise ConfigError(f"need runs >= 2, got {runs}")
    out_dir = Path(out_dir)
    obj = objectives.rastrigin(2)
    dist = engine.GaussianIsotropic(FIG_TRAJ_MEAN, FIG_TRAJ_VAR)
    tracked = np.asarray(FIG_TRAJ_TRACKED, dtype=float)
    n_total = n + len(tracked)
    params = engine.CboParams(
        lam=1.0, sigma=0.1, alpha=1e15, dt=dt, steps=steps,
        n_particles=n_total, dim=2, seed=seed,
    )

    def one_run(r):
        base = engine.sample_initial(dist, n, 2, seed + r).positions
        start = engine.Ensemble(np.vstack([base, tracked]))
        traj = np.empty((steps + 1, len(tracked), 2))
        for k, x, _, _ in engine.states(start, obj, params, engine.NoiseSource(seed + r)):
            traj[k] = x[n:]
        return traj

    trajs = np.stack(thread_map(one_run, range(runs)))   # (runs, K+1, 3, 2)
    mean_traj = trajs.mean(axis=0)                       # (K+1, 3, 2)
    times = np.arange(steps + 1) * dt

    out_dir.mkdir(parents=True, exist_ok=True)
    agents, ks = range(len(tracked)), range(steps + 1)
    _write_csv(out_dir / "trajectories.csv", ["run", "agent", "t", "x", "y"], (
        [r, a, float(times[k]), float(trajs[r, k, a, 0]), float(trajs[r, k, a, 1])]
        for r, a, k in itertools.product(range(runs), agents, ks)
    ))
    _write_csv(out_dir / "mean_trajectories.csv", ["agent", "t", "x", "y"], (
        [a, float(times[k]), float(mean_traj[k, a, 0]), float(mean_traj[k, a, 1])]
        for a, k in itertools.product(agents, ks)
    ))

    vstar = np.zeros(2)
    summary = {
        "preset": "fig-trajectories",
        "runs": runs,
        "n_particles": n,
        "steps": steps,
        "dt": dt,
        "seed": seed,
        "chord_deviation_tolerance": FIG_TRAJ_CHORD_TOL,
    }
    for a, start in enumerate(tracked):
        dev = chord_deviation(mean_traj[:, a, :], start, vstar)
        end_dist = float(np.linalg.norm(mean_traj[-1, a, :] - vstar))
        summary[f"chord_deviation_agent{a}"] = dev
        summary[f"endpoint_dist_agent{a}"] = end_dist
        summary[f"straight_agent{a}"] = dev <= FIG_TRAJ_CHORD_TOL
    write_summary(out_dir / "summary.txt", summary)
    return EXIT_OK


# ---------------------------------------------------------------------------
# preset: mfa-sweep


def run_mfa_sweep(raw, out_dir):
    obj = parse_objective(_get(raw, "objective", "config"))
    params = parse_params(_get(raw, "params", "config"))
    init = parse_init(_get(raw, "init", "config"))
    mcfg = _get(raw, "mfa", "config")
    n_values = _get(mcfg, "n_values", "mfa")
    if not isinstance(n_values, list):
        raise ConfigError(f"mfa.n_values: expected a list of integers, got {n_values!r}")
    n_values = [_json_int(x, "mfa.n_values") for x in n_values]
    n_ref = _json_int(_get(mcfg, "n_ref", "mfa"), "mfa.n_ref")
    n_seeds = _json_int(_get(mcfg, "n_seeds", "mfa"), "mfa.n_seeds")
    seed0 = _json_int(_get(mcfg, "seed0", "mfa", params.seed + 1), "mfa.seed0")
    m_factor = _json_finite(_get(mcfg, "m_factor", "mfa", 10.0), "mfa.m_factor")
    seeds = [seed0 + i for i in range(n_seeds)]
    result = mfa.mfa_sweep(init, obj, params, n_values, n_ref, seeds, m_factor)

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out_dir / "sweep.csv",
        ["n", "err_sup", "err_sup_conditional", "exceed_fraction", "seeds"],
        ([run.n, run.err_sup, run.err_sup_conditional, run.exceed_fraction, len(run.seeds)]
         for run in result.runs),
    )
    write_summary(
        out_dir / "summary.txt",
        {
            "preset": "mfa-sweep",
            "slope": result.slope,
            "m_threshold": result.m_threshold,
            "n_ref": n_ref,
            "n_seeds": n_seeds,
            "reference_moment4_sup": result.reference.moment4_sup,
        },
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# preset: laplace-audit


def run_laplace_audit(raw, out_dir):
    acfg = raw.get("audit", {})
    result = theory.laplace_audit(
        n_measures=int(_get(acfg, "measures", "audit", 1000)),
        seed=int(_get(acfg, "seed", "audit", 2024)),
        max_n=int(_get(acfg, "max_n", "audit", 500)),
        min_inside=int(_get(acfg, "min_inside", "audit", 30)),
    )
    items = {
        "preset": "laplace-audit",
        "checked": result.checked,
        "violations": result.violations,
        "min_margin": result.min_margin,
        "tightness_mean": result.tightness_mean,
        "tightness_max": result.tightness_max,
    }
    out_dir = Path(out_dir)
    write_summary(out_dir / "report.txt", items)
    for k, v in items.items():
        print(f"{k} = {_fmt(v)}")
    return EXIT_OK if result.violations == 0 else EXIT_AUDIT_FAILED


# ---------------------------------------------------------------------------
# theory report


def run_theory(raw):
    obj = parse_objective(_get(raw, "objective", "config"))
    params = parse_params(_get(raw, "params", "config"))
    init = parse_init(_get(raw, "init", "config"))
    tcfg = _get(raw, "theory", "config", {})
    eps = float(_get(tcfg, "eps", "theory", 0.01))
    tau = float(_get(tcfg, "tau", "theory", 0.1))
    r = tcfg.get("r")
    b_bound = tcfg.get("b_bound")
    q_laplace = tcfg.get("q_laplace")
    sample_n = int(_get(tcfg, "sample_n", "theory", params.n_particles))

    ens0 = engine.sample_initial(init, sample_n, params.dim, params.seed)
    report = theory.build_theory_report(
        obj, params, ens0, eps=eps, tau=tau,
        r=None if r is None else float(r),
        b_bound=None if b_bound is None else float(b_bound),
        q_laplace=None if q_laplace is None else float(q_laplace),
    )
    lines = [
        f"objective = {obj.name}",
        f"dim = {obj.dim}",
        f"c = {_fmt(report.c)}",
        "q = infinite (sigma=0)" if report.q_rate is None else f"q = {_fmt(report.q_rate)}",
        f"t_star = {_fmt(report.t_star)}",
        "alpha0 = undefined (see notes)" if report.alpha0 is None
        else f"alpha0 = {_fmt(report.alpha0)}",
        f"b1 = {_fmt(report.b1)}",
        f"b2 = {_fmt(report.b2)}",
        f"laplace_rhs = {_fmt(report.laplace_rhs)}",
        f"wellprep_cond1 = {_fmt(report.wellprep_cond1)} "
        f"(margin = {_fmt(report.margins['wellprep_cond1'])})",
        f"wellprep_cond2 = {_fmt(report.wellprep_cond2)} "
        f"(margin = {_fmt(report.margins['wellprep_cond2'])})",
        f"var_concentration_margin = {_fmt(report.margins['var_bound'])}",
    ]
    lines += [f"note = {n}" for n in report.notes]
    text = "\n".join(lines)
    print(text)
    if "outputs" in raw:
        out = Path(raw["outputs"])
        out.mkdir(parents=True, exist_ok=True)
        (out / "theory.txt").write_text(text + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="cbo",
        description="Consensus-based optimization runs, experiment presets, "
        "and theory reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a JSON run config")
    p_run.add_argument("config")

    p_theory = sub.add_parser("theory", help="print the theory report for a config")
    p_theory.add_argument("config")

    p_preset = sub.add_parser("preset", help="canned experiments")
    psub = p_preset.add_subparsers(dest="preset", required=True)

    fv = psub.add_parser("fig-variance")
    fv.add_argument("--scale", type=float, default=1.0 / 16.0)
    fv.add_argument("--full", action="store_true", help="full-scale N = 320000")
    fv.add_argument("--out", default="out/fig_variance")
    fv.add_argument("--seed", type=int, default=1)
    fv.add_argument("--steps", type=int, default=400)

    ft = psub.add_parser("fig-trajectories")
    ft.add_argument("--runs", type=int, default=100)
    ft.add_argument("--n", type=int, default=4000)
    ft.add_argument("--full", action="store_true", help="full-scale N = 32000")
    ft.add_argument("--out", default="out/fig_trajectories")
    ft.add_argument("--seed", type=int, default=1)
    ft.add_argument("--steps", type=int, default=600)

    ms = psub.add_parser("mfa-sweep")
    ms.add_argument("config")

    la = psub.add_parser("laplace-audit")
    la.add_argument("config")
    return parser


def _dispatch(args):
    if args.command == "run":
        raw = load_config(args.config)
        cfg = parse_run_config(raw)
        if cfg.preset == "fig_variance":
            pcfg = cfg.raw.get("fig_variance", {})
            return preset_fig_variance(
                cfg.outputs, scale=float(pcfg.get("scale", 1.0 / 16.0)),
                seed=cfg.params.seed, steps=cfg.params.steps, dt=cfg.params.dt,
            )
        if cfg.preset == "fig_trajectories":
            pcfg = cfg.raw.get("fig_trajectories", {})
            return preset_fig_trajectories(
                cfg.outputs, runs=int(pcfg.get("runs", 100)),
                n=int(pcfg.get("n", 4000)), seed=cfg.params.seed,
                steps=cfg.params.steps, dt=cfg.params.dt,
            )
        if cfg.preset == "mfa_sweep":
            return run_mfa_sweep(cfg.raw, cfg.outputs)
        if cfg.preset == "laplace_audit":
            return run_laplace_audit(cfg.raw, cfg.outputs)
        if cfg.preset is not None:
            raise ConfigError(f"preset: unknown preset {cfg.preset!r}")
        return run_simulation(cfg)
    if args.command == "theory":
        return run_theory(load_config(args.config))
    if args.command == "preset":
        if args.preset == "fig-variance":
            scale = 1.0 if args.full else args.scale
            return preset_fig_variance(
                args.out, scale=scale, seed=args.seed, steps=args.steps
            )
        if args.preset == "fig-trajectories":
            n = FIG_TRAJ_FULL_N if args.full else args.n
            return preset_fig_trajectories(
                args.out, runs=args.runs, n=n, seed=args.seed, steps=args.steps
            )
        if args.preset == "mfa-sweep":
            raw = load_config(args.config)
            return run_mfa_sweep(raw, Path(raw.get("outputs", "out/mfa_sweep")))
        if args.preset == "laplace-audit":
            raw = load_config(args.config)
            return run_laplace_audit(raw, Path(raw.get("outputs", "out/laplace_audit")))
    raise ConfigError(f"unknown command {args.command!r}")


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except SimulationError as err:
        print(f"simulation error: {err}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except TheoryPreconditionError as err:
        print(f"theory precondition error: {err}", file=sys.stderr)
        return EXIT_THEORY


if __name__ == "__main__":
    sys.exit(main())
