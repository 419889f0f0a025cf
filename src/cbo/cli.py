"""Command-line entry point: run configs, experiment presets, CSV output,
theory reports.

``PRESETS`` holds each preset's function and its options, each with type,
default and lower bound; ``read_block`` reads every config block.  Options,
as flags or by JSON block:

    cbo preset fig-variance      --scale, --seed, --steps; --full, --out
    cbo preset fig-trajectories  --runs, --n, --seed, --steps; --full, --out
    cbo preset mfa-sweep         mfa: n_values, n_ref, n_seeds, seed0, m_factor
    cbo preset laplace-audit     audit: measures, seed, max_n, min_inside
    cbo theory                   theory: eps, tau, r, b_bound, q_laplace, sample_n

Exit codes: 0 success, 1 the laplace audit found violations, 2 config error
(a missing, mistyped or out-of-range value in any block, or a key that its
block, or the top level, does not list, named by its key, or by its block
where a library type rejects it; an init vector not of length params.dim;
``--full`` with a flag whose option it sets; an outputs path under a file:
all checked before any work starts; sizes beyond memory, a failed write, a
CBO_THREADS that is not a positive integer), 3 divergence (or a worker
process that died, named by the seeds of the runs whose results did not
come back), 4 theory-precondition failure (such as an eps above the
sample's V(0)), 130 interrupted (a SIGINT, as from Ctrl-C: the runs not yet
started are cancelled, the running ones finish, and one line goes to
stderr).
CBO_THREADS caps the worker processes of the fig-variance fan-out over
runs and the fig-trajectories fan-out over seed batches (default: the CPUs
this process may run on); mfa-sweep runs in one process.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from . import engine, mfa, objectives
from ._parallel import thread_map
from .errors import (CboError, ConfigError, SimulationError, TheoryPreconditionError,
                     WorkerLostError)
from .metrics import RecordingPlan, default_fit_window, fit_decay_rate, seed_batches

EXIT_OK = 0
EXIT_AUDIT_FAILED = 1
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3
EXIT_THEORY = 4
EXIT_INTERRUPTED = 130  # 128 + SIGINT, the shell's code for an interrupt

# both figure presets step with dt = 0.01
FIG_DT = 0.01

# fig-variance experiment: 1-D Rastrigin, Gaussian starts N(mu, 0.8)
FIG_VARIANCE_FULL_N = 320_000
FIG_VARIANCE_MEANS = (1.0, 2.0, 3.0, 4.0)
FIG_VARIANCE_VAR = 0.8

# fig-trajectories experiment: 2-D Rastrigin, Gaussian starts N((8, 8), 20)
FIG_TRAJ_MEAN = (8.0, 8.0)
FIG_TRAJ_VAR = 20.0
FIG_TRAJ_TRACKED = ((-2.0, 4.0), (-1.5, -1.5), (4.5, 1.5))
FIG_TRAJ_CHORD_TOL = 0.15


# ---------------------------------------------------------------------------
# typed config reader

_MISSING = object()


def _json_int(value, ctx):
    # a JSON integer; bool is an int subclass but not a count
    if isinstance(value, bool) or not isinstance(value, int) or not -2**63 <= value < 2**64:
        raise ConfigError(f"{ctx}: expected a 64-bit integer, got {value!r}")
    return value


def _json_finite(value, ctx):
    # NaN fails the bound, and an int beyond the float range compares exactly
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (number and abs(value) <= sys.float_info.max):
        raise ConfigError(f"{ctx}: expected a finite number, got {value!r}")
    return float(value)


def _json_list(item):
    """Reader of a JSON list whose entries pass ``item``."""
    def read(value, ctx):
        if not isinstance(value, list):
            raise ConfigError(f"{ctx}: expected a list, got {value!r}")
        return tuple(item(v, ctx) for v in value)
    return read


_json_vector = _json_list(_json_finite)


def _check_seeds(seed, count, name):
    # the seeds of the runs, seed .. seed + count - 1, before any run starts
    if seed + count > 2**64:
        raise ConfigError(f"{name}: the seeds {seed}..{seed + count - 1} exceed 64 bits")


def _check_floats(count, name):
    if count * 8 > np.iinfo(np.intp).max:  # the bytes of one numpy array
        raise ConfigError(f"{name}: {count} floats exceed the largest possible array")


def _json_str(value, ctx):
    if not isinstance(value, str):
        raise ConfigError(f"{ctx}: expected a string, got {value!r}")
    return value


def _json_path(value, ctx):
    # an output directory, made when written: its nearest existing ancestor must be one
    path = Path(_json_str(value, ctx))
    ancestor = next(p for p in (path, *path.parents) if p.exists())
    if not ancestor.is_dir():
        raise ConfigError(f"{ctx}: cannot write {path}: {ancestor} is not a directory")
    return path


class Opt(NamedTuple):
    """A config value: key (``--key`` as a flag), reader, default (required
    if absent; None: derived where used) and inclusive lower bound."""

    key: str
    read: object
    default: object = _MISSING
    lo: object = None


def read_block(cfg, ctx, opts, partial=False):
    """The typed values of block ``ctx`` ("" for the top level), by key.  An
    absent key takes its default; a present value must pass its reader and
    lower bound, but null stands for a default of None.  A reader's
    ``ConfigError`` gets the key as a prefix unless it starts with it.  A
    block rejects a key that ``opts`` does not list, unless ``partial``
    leaves the other keys to a second read; the top level is read in parts
    by several routes, and ``load_config`` checks its keys once."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"{ctx or 'config'}: expected an object, got {cfg!r}")
    listed = [opt.key for opt in opts]
    unknown = [key for key in cfg if key not in listed]
    if ctx and unknown and not partial:
        raise ConfigError(f"{ctx}.{unknown[0]}: unknown key; {ctx} takes {', '.join(listed)}")
    values = {}
    for opt in opts:
        name = f"{ctx}.{opt.key}" if ctx else opt.key
        value = cfg.get(opt.key, opt.default)
        if value is _MISSING:
            raise ConfigError(f"{ctx or 'config'}: missing required key {opt.key!r}")
        if opt.key in cfg and not (value is None and opt.default is None):
            try:
                value = opt.read(value, name)
            except ConfigError as err:
                if not str(err).startswith((f"{name}:", f"{name}.")):
                    err.args = (f"{name}: {err}",)
                raise
            if opt.lo is not None and value < opt.lo:
                raise ConfigError(f"{name}: must be >= {opt.lo}, got {value!r}")
        values[opt.key] = value
    return values


def load_config(path):
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}:{err.lineno}:{err.colno}: {err.msg}") from err
    unknown = [key for key in raw if key not in _TOP_LEVEL_KEYS] if isinstance(raw, dict) else []
    if unknown:
        raise ConfigError(f"{unknown[0]}: unknown key; a config takes {', '.join(_TOP_LEVEL_KEYS)}")
    return raw


def parse_objective(cfg, ctx="objective"):
    v = read_block(cfg, ctx, (
        Opt("name", _json_str), Opt("dim", _json_int), Opt("center", _json_vector, None),
    ))
    if v["center"] is None:
        del v["center"]
    elif v["name"] != "quadratic":
        raise ConfigError(f"{ctx}.center: only the quadratic objective has a center")
    _check_floats(v["dim"], f"{ctx}.dim")
    return objectives.by_name(**v)


def parse_init(cfg, ctx="init"):
    kind = Opt("kind", _json_str)
    name = read_block(cfg, ctx, (kind,), partial=True)["kind"]
    if name == "gaussian":
        v = read_block(cfg, ctx, (kind, Opt("mean", _json_vector), Opt("variance", _json_finite)))
        return engine.GaussianIsotropic(v["mean"], v["variance"])
    if name == "uniform":
        v = read_block(cfg, ctx, (kind, Opt("lo", _json_vector), Opt("hi", _json_vector)))
        return engine.UniformBox(v["lo"], v["hi"])
    raise ConfigError(f"{ctx}.kind: unknown kind {name!r} (gaussian|uniform)")


def _json_h(value, ctx):
    if value in (None, "const_one"):
        return engine.CONST_ONE
    if isinstance(value, dict) and value.get("kind") == "ramp_heaviside":
        opts = (Opt("kind", _json_str), Opt("delta", _json_finite))
        return engine.RampHeaviside(read_block(value, ctx, opts)["delta"])
    raise ConfigError(f"{ctx}: expected 'const_one' or "
                      f"{{'kind': 'ramp_heaviside', 'delta': ...}}, got {value!r}")


def parse_params(cfg, ctx="params"):
    v = read_block(cfg, ctx, (
        *(Opt(key, _json_finite) for key in ("lambda", "sigma", "alpha", "dt")),
        *(Opt(key, _json_int) for key in ("steps", "n_particles", "dim")),
        Opt("h", _json_h, engine.CONST_ONE),
        Opt("seed", _json_int, engine.CboParams.seed),
    ))
    _check_floats(v["n_particles"] * v["dim"], f"{ctx}.n_particles * {ctx}.dim")
    return engine.CboParams(lam=v.pop("lambda"), h_variant=v.pop("h"), **v)


def parse_recording(cfg, ctx="recording"):
    return RecordingPlan(**read_block(cfg, ctx, (
        Opt("stride", _json_int, RecordingPlan.stride),
        Opt("ball_radii", _json_vector, RecordingPlan.ball_radii),
    )))


@dataclass
class RunConfig:
    objective: objectives.ObjectiveSpec
    init: engine.InitDistribution
    params: engine.CboParams
    recording: RecordingPlan


def parse_run_config(raw):
    """The objective/params/init/recording keys of a config."""
    v = read_block(raw, "", (
        Opt("objective", parse_objective), Opt("params", parse_params),
        Opt("init", parse_init), Opt("recording", parse_recording, None),
    ))
    obj, params, init = v["objective"], v["params"], v["init"]
    if params.dim != obj.dim:
        raise ConfigError(f"params.dim = {params.dim} does not match objective.dim = {obj.dim}")
    for key, vec in vars(init).items():  # mean, or lo and hi: an entry per coordinate
        if isinstance(vec, tuple) and len(vec) != params.dim:
            raise ConfigError(f"init.{key}: {len(vec)} entries, expected params.dim = {params.dim}")
    return RunConfig(obj, init, params, v["recording"] or RecordingPlan())


# ---------------------------------------------------------------------------
# CSV / summary persistence (shortest round-trip decimals, '\n' line ends)


def _fmt(x):
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return str(x)


def write_metrics_csv(path, series, radii):
    path = Path(path)
    header = ["t", "v_func", "variance", "w2_sq", "consensus_dist"]
    header += [f"ball_mass_{_fmt(float(r))}" for r in radii]
    header.append("moment4")
    _write_csv(path, header, _csv_text(
        [rec.t, rec.v_func, rec.variance, rec.w2_sq, rec.consensus_dist,
         *(rec.ball_mass[float(r)] for r in radii), rec.moment4]
        for rec in series.records
    ))
    return path


def _csv_text(rows):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([_fmt(x) for x in row] for row in rows)
    return buf.getvalue()


def _write_csv(path, header, *chunks):
    """Write the header row, then each chunk of ``_csv_text`` rows in order."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(_csv_text([header]))
        fh.writelines(chunks)


def write_summary(path, items):
    """Write ``items`` (a dict or pairs) as ``key = value`` lines to ``path``
    unless it is None, and return the text."""
    pairs = items.items() if isinstance(items, dict) else items
    text = "".join(f"{k} = {_fmt(v)}\n" for k, v in pairs)
    if path is not None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return text


# ---------------------------------------------------------------------------
# plain run


def _fitted_rate(series):
    ts = series.column("t")
    vs = series.column("v_func")
    try:
        window = default_fit_window(ts, vs)
        return fit_decay_rate(ts, vs, window), window
    except CboError as err:
        return None, str(err)


def run_simulation(out_dir, cfg):
    try:
        series = engine.simulate(cfg.init, cfg.objective, cfg.params, cfg.recording)
    except SimulationError as err:
        if err.partial_series is not None:
            write_metrics_csv(out_dir / "metrics.csv", err.partial_series,
                              cfg.recording.ball_radii)
        raise
    write_metrics_csv(out_dir / "metrics.csv", series, cfg.recording.ball_radii)
    rate, window = _fitted_rate(series)
    summary = {
        "objective": cfg.objective.name,
        "dim": cfg.objective.dim,
        "n_particles": cfg.params.n_particles,
        "steps": cfg.params.steps,
        "dt": cfg.params.dt,
        "seed": cfg.params.seed,
        "records": len(series.records),
        "t_final": cfg.params.steps * cfg.params.dt,
        "endpoint_error": series.endpoint_error,
        "config_digest": series.config_digest,
    }
    if rate is None:
        summary["fitted_v_decay_rate"] = f"unavailable ({window})"
    else:
        summary["fitted_v_decay_rate"] = rate
        summary["fit_window"] = f"[{_fmt(window[0])}, {_fmt(window[1])}]"
    write_summary(out_dir / "summary.txt", summary)
    return EXIT_OK


# ---------------------------------------------------------------------------
# the fan-out of the figure presets over their runs


def _fan_out(fn, items, seeds_of):
    """``thread_map``, where a worker process that dies names the seeds of
    the runs whose results did not come back, ``seeds_of`` each lost item."""
    try:
        return thread_map(fn, items)
    except WorkerLostError as err:
        seeds = ", ".join(str(s) for item in err.lost for s in seeds_of(item))
        err.args = (f"{err}: the runs of seeds {seeds}",)
        raise


# ---------------------------------------------------------------------------
# preset: fig-variance


def preset_fig_variance(out_dir, scale, seed, steps):
    """Variance vs V-functional decay on the 1-D Rastrigin objective, one
    run per initial mean; N is the full 320000 scaled by ``scale``."""
    n = int(round(FIG_VARIANCE_FULL_N * scale))
    if not 0.0 < scale <= 1.0 or n < 1:
        raise ConfigError(f"fig_variance.scale: must lie in (0, 1] and give "
                          f"N = round({FIG_VARIANCE_FULL_N} * scale) >= 1, got {scale}")
    _check_seeds(seed, len(FIG_VARIANCE_MEANS), "fig_variance.seed")
    obj = objectives.rastrigin(1)
    plan = RecordingPlan(stride=1, ball_radii=(0.25, 0.5, 1.0))
    base = engine.CboParams(lam=1.0, sigma=0.5, alpha=1e15, dt=FIG_DT, steps=steps,
                            n_particles=n, dim=1, seed=seed)

    def one(i_mu):
        i, mu = i_mu
        dist = engine.GaussianIsotropic((mu,), FIG_VARIANCE_VAR)
        return engine.simulate(dist, obj, replace(base, seed=seed + i), plan)

    runs = _fan_out(one, list(enumerate(FIG_VARIANCE_MEANS)), lambda i_mu: [seed + i_mu[0]])
    summary = {
        "preset": "fig-variance",
        "n_particles": n,
        "scale": scale,
        "steps": steps,
        "dt": FIG_DT,
        "theoretical_rate": engine.contraction_rate(base.lam, base.sigma, base.dim),
    }
    for i, (mu, series) in enumerate(zip(FIG_VARIANCE_MEANS, runs)):
        tag = f"mu{int(mu)}"
        write_metrics_csv(out_dir / tag / "metrics.csv", series, plan.ball_radii)
        rate, window = _fitted_rate(series)
        var0 = series.records[0].variance
        bump = any(r.variance > var0 for r in series.records if 0.0 < r.t <= 0.5)
        sub = {
            "mu": mu,
            "seed": seed + i,
            "endpoint_error": series.endpoint_error,
            "config_digest": series.config_digest,
            "var_exceeds_initial_by_t0.5": bump,
            "fitted_v_decay_rate": f"unavailable ({window})" if rate is None else rate,
        }
        summary[f"fitted_rate_{tag}"] = "unavailable" if rate is None else rate
        summary[f"var_bump_{tag}"] = bump
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


def preset_fig_trajectories(out_dir, runs, n, seed, steps):
    """Mean trajectories of three tracked agents on the 2-D Rastrigin
    objective, averaged over ``runs`` >= 2 repeated runs; the tracked agents
    join the ensemble and participate in the dynamics."""
    obj = objectives.rastrigin(2)
    dist = engine.GaussianIsotropic(FIG_TRAJ_MEAN, FIG_TRAJ_VAR)
    tracked = np.asarray(FIG_TRAJ_TRACKED, dtype=float)
    n_total = n + len(tracked)
    _check_floats(n_total * 2, "fig_trajectories.n")
    # the (runs, steps + 1, tracked agents, 2) trajectories, before any run starts
    _check_floats(runs * (steps + 1) * len(tracked) * 2, "fig_trajectories.runs * (steps + 1)")
    _check_seeds(seed, runs, "fig_trajectories.seed")
    params = engine.CboParams(
        lam=1.0, sigma=0.1, alpha=1e15, dt=FIG_DT, steps=steps,
        n_particles=n_total, dim=2, seed=seed,
    )

    times = np.arange(steps + 1) * FIG_DT
    agents, ks = range(len(tracked)), range(steps + 1)

    def run_batch(seeds):
        """The batch's trajectories and its rows of trajectories.csv."""
        traj = np.empty((len(seeds), steps + 1, len(tracked), 2))
        # each replication's sample with the tracked agents appended, which
        # nothing holds once the iterator has copied it at its first next
        tagged = np.broadcast_to(tracked, (len(seeds), *tracked.shape))
        run = engine.states(np.concatenate([engine.sample_initial(dist, n, 2, seeds), tagged],
                                           axis=1),
                            obj, params, engine.NoiseSource(seeds))
        for k, x, _ in run:
            traj[:, k] = x[:, n:]
        return traj, _csv_text(
            [s - seed, a, float(times[k]), float(traj[r, k, a, 0]), float(traj[r, k, a, 1])]
            for (r, s), a, k in itertools.product(enumerate(seeds), agents, ks)
        )

    # the runs step as batches of seeds, (R, n + 3, 2) each, in seed order
    batches = seed_batches(range(seed, seed + runs), n_total)
    trajs, rows = zip(*_fan_out(run_batch, batches, lambda seeds: seeds))
    # bitwise np.concatenate(trajs).mean(axis=0), which adds the runs in
    # order, with no copy of every run's trajectory beside the CSV rows
    mean_traj = functools.reduce(np.add, (r for traj in trajs for r in traj)) / runs

    _write_csv(out_dir / "trajectories.csv", ["run", "agent", "t", "x", "y"], *rows)
    _write_csv(out_dir / "mean_trajectories.csv", ["agent", "t", "x", "y"], _csv_text(
        [a, float(times[k]), float(mean_traj[k, a, 0]), float(mean_traj[k, a, 1])]
        for a, k in itertools.product(agents, ks)
    ))

    vstar = np.zeros(2)
    summary = {
        "preset": "fig-trajectories",
        "runs": runs,
        "n_particles": n,
        "steps": steps,
        "dt": FIG_DT,
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
# routes that read a JSON config: mfa-sweep, laplace-audit, theory


def run_mfa_sweep(out_dir, cfg, n_values, n_ref, n_seeds, seed0, m_factor):
    """The 1/N mean-field sweep of run config ``cfg``; seed0 defaults to params.seed + 1."""
    seed0 = cfg.params.seed + 1 if seed0 is None else seed0
    if len(set(n_values)) < 3:
        raise ConfigError(f"mfa.n_values: need >= 3 distinct entries, got {list(n_values)}")
    if min(n_values) < 1:
        raise ConfigError(f"mfa.n_values: every entry must be >= 1, got {list(n_values)}")
    if n_ref < 10 * max(n_values):
        raise ConfigError(f"mfa.n_ref: must be >= 10 * max(n_values) = {10 * max(n_values)}, "
                          f"got {n_ref}")
    if not m_factor > 0:
        raise ConfigError(f"mfa.m_factor: must be > 0, got {m_factor}")
    _check_floats(n_ref * cfg.params.dim, "mfa.n_ref")
    _check_floats(n_seeds * max(n_values), "mfa.n_seeds")  # (n_seeds, n) sups
    _check_seeds(seed0, n_seeds, "mfa.seed0")
    seeds = range(seed0, seed0 + n_seeds)
    result = mfa.mfa_sweep(cfg.init, cfg.objective, cfg.params, n_values, n_ref, seeds, m_factor)

    _write_csv(
        out_dir / "sweep.csv",
        ["n", "err_sup", "err_sup_conditional", "exceed_fraction", "seeds"],
        _csv_text([run.n, run.err_sup, run.err_sup_conditional, run.exceed_fraction,
                   len(run.seeds)] for run in result.runs),
    )
    write_summary(out_dir / "summary.txt", {
        "preset": "mfa-sweep",
        "slope": result.slope,
        "m_threshold": result.m_threshold,
        "n_ref": n_ref,
        "n_seeds": n_seeds,
        "reference_moment4_sup": result.reference.moment4_sup,
    })
    return EXIT_OK


def run_laplace_audit(out_dir, measures, seed, max_n, min_inside):
    from . import theory  # loaded by the two routes that run it

    if max_n < 2 * min_inside:
        raise ConfigError(f"audit.max_n: must be >= 2 * min_inside = {2 * min_inside}, "
                          f"got {max_n}")
    _check_floats(max_n * 3, "audit.max_n")  # up to (max_n, 3) points per measure
    result = theory.laplace_audit(n_measures=measures, seed=seed, max_n=max_n,
                                  min_inside=min_inside)
    print(write_summary(out_dir / "report.txt", {
        "preset": "laplace-audit",
        "checked": result.checked,
        "violations": result.violations,
        "min_margin": result.min_margin,
        "tightness_mean": result.tightness_mean,
        "tightness_max": result.tightness_max,
    }), end="")
    return EXIT_OK if result.violations == 0 else EXIT_AUDIT_FAILED


def run_theory(out_dir, cfg, eps, tau, r, b_bound, q_laplace, sample_n):
    """The closed-form theory report of run config ``cfg``, printed and, with
    ``out_dir``, written; sample_n defaults to params.n_particles."""
    from . import theory

    obj, params = cfg.objective, cfg.params
    if not tau < 1.0:
        raise ConfigError(f"theory.tau: must lie in [0, 1), got {tau}")
    for key, value in (("eps", eps), ("r", r), ("q_laplace", q_laplace)):
        if value is not None and not value > 0:
            raise ConfigError(f"theory.{key}: must be > 0, got {value}")
    sample_n = params.n_particles if sample_n is None else sample_n
    _check_floats(sample_n * params.dim, "theory.sample_n")
    x0 = engine.sample_initial(cfg.init, sample_n, params.dim, params.seed)
    report = theory.build_theory_report(obj, params, x0, eps=eps, tau=tau, r=r,
                                        b_bound=b_bound, q_laplace=q_laplace)
    wp = report.wellprep
    items = {
        "objective": obj.name, "dim": obj.dim, "c": report.c,
        "q": "infinite (sigma=0)" if report.q_rate is None else report.q_rate,
        "t_star": report.t_star,
        "alpha0": "undefined (see notes)" if report.alpha0 is None else report.alpha0,
        "b1": report.b1, "b2": report.b2,
        "laplace_rhs": ("undefined (see notes)" if report.laplace_rhs is None
                        else report.laplace_rhs),
        "wellprep_cond1": f"{_fmt(wp.cond1)} (margin = {_fmt(wp.margin1)})",
        "wellprep_cond2": f"{_fmt(wp.cond2)} (margin = {_fmt(wp.margin2)})",
        "var_concentration_margin": wp.var_bound_margin,
    }
    notes = [("note", note) for note in report.notes]
    path = None if out_dir is None else out_dir / "theory.txt"
    print(write_summary(path, [*items.items(), *notes]), end="")
    return EXIT_OK


# ---------------------------------------------------------------------------
# preset registry


class Preset(NamedTuple):
    """A route's function and the spec of its options, which name ``block``
    in errors.  A preset with ``full`` takes them as flags, where ``--full``
    sets ``full``; one without reads them from its JSON block of a config,
    and ``run_config`` passes it the run config of that file too."""

    run: object
    block: str
    options: tuple
    full: Optional[dict] = None
    run_config: bool = False


PRESETS = {  # by JSON name; the command line spells "_" as "-"
    "fig_variance": Preset(
        preset_fig_variance, "fig_variance",
        (Opt("scale", _json_finite, 1.0 / 16.0),
         Opt("seed", _json_int, 1, lo=0), Opt("steps", _json_int, 400, lo=0)),
        full={"scale": 1.0},
    ),
    "fig_trajectories": Preset(
        preset_fig_trajectories, "fig_trajectories",
        (Opt("runs", _json_int, 100, lo=2), Opt("n", _json_int, 4000, lo=1),
         Opt("seed", _json_int, 1, lo=0), Opt("steps", _json_int, 600, lo=0)),
        full={"n": 32_000},
    ),
    "mfa_sweep": Preset(
        run_mfa_sweep, "mfa",
        (Opt("n_values", _json_list(_json_int)), Opt("n_ref", _json_int),
         Opt("n_seeds", _json_int, lo=1), Opt("seed0", _json_int, None, lo=0),
         Opt("m_factor", _json_finite, 10.0)),
        run_config=True,
    ),
    "laplace_audit": Preset(
        run_laplace_audit, "audit",
        (Opt("measures", _json_int, 1000, lo=1), Opt("seed", _json_int, 2024, lo=0),
         Opt("max_n", _json_int, 500), Opt("min_inside", _json_int, 30, lo=1)),
    ),
}


THEORY = Preset(run_theory, "theory", (  # cbo theory
    Opt("eps", _json_finite, 0.01), Opt("tau", _json_finite, 0.1, lo=0.0),
    Opt("r", _json_finite, None), Opt("b_bound", _json_finite, None, lo=0.0),
    Opt("q_laplace", _json_finite, None), Opt("sample_n", _json_int, None, lo=1),
), run_config=True)

# every top-level key of a config that some route reads
_TOP_LEVEL_KEYS = ("objective", "init", "params", "recording", "outputs",
                   *(route.block for route in (*PRESETS.values(), THEORY) if not route.full))


# ---------------------------------------------------------------------------
# argument wiring


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="cbo",
        description="Consensus-based optimization runs, experiment presets, "
        "and theory reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for command, text in (("run", "execute a JSON run config"),
                          ("theory", "print the theory report for a config")):
        sub.add_parser(command, help=text).add_argument("config")

    p_preset = sub.add_parser("preset", help="canned experiments")
    psub = p_preset.add_subparsers(dest="preset", required=True)
    for name, preset in PRESETS.items():
        p = psub.add_parser(name.replace("_", "-"))
        if not preset.full:
            p.add_argument("config")
            continue
        # --full sets the options it names, so it excludes their flags
        full = p.add_mutually_exclusive_group()
        for opt in preset.options:
            flag_type = {_json_int: int, _json_finite: float}[opt.read]
            (full if opt.key in preset.full else p).add_argument(
                f"--{opt.key}", type=flag_type, default=opt.default, help="default %(default)s")
        values = ", ".join(f"{k} = {v}" for k, v in preset.full.items())
        full.add_argument("--full", action="store_true", help=f"full scale: {values}")
        p.add_argument("--out", default=f"out/{name}", help="default %(default)s")
    return parser


def _dispatch(args):
    """Run the route of ``args``, reading its own top-level keys once each:
    ``outputs`` (or ``--out``) and its block."""
    command, name = args.command, getattr(args, "preset", "").replace("-", "_")
    preset = {"run": None, "theory": THEORY}.get(command, PRESETS.get(name))
    if preset is not None and preset.full:  # the command line holds the outputs and the block
        flags = {**vars(args), **(preset.full if args.full else {})}
        raw = {"outputs": args.out, preset.block: {o.key: flags[o.key] for o in preset.options}}
    else:
        raw = load_config(args.config)
    out = {"run": "out", "theory": None}.get(command, f"out/{name}")
    if isinstance(raw, dict):  # a default path is checked like a given one
        raw = {"outputs": out, **raw}
    out_dir = read_block(raw, "", (Opt("outputs", _json_path, out),))["outputs"]
    cfg = parse_run_config(raw) if preset is None or preset.run_config else None
    if preset is None:
        return run_simulation(out_dir, cfg)
    values = read_block(raw.get(preset.block, {}), preset.block, preset.options)
    if preset.run_config:
        values["cfg"] = cfg
    return preset.run(out_dir, **values)


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except SimulationError as err:
        print(f"simulation error: {err}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except TheoryPreconditionError as err:
        print(f"theory precondition error: {err}", file=sys.stderr)
        return EXIT_THEORY
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except ConfigError as err:
        message = err
    except MemoryError as err:
        message = f"the configured sizes do not fit in memory: {err}"
    except OSError as err:  # the config is read in load_config: this is an output
        if err.filename is None:  # not a file, e.g. a closed standard output
            raise
        message = f"outputs: cannot write {err.filename}: {err.strerror}"
    print(f"config error: {message}", file=sys.stderr)
    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
