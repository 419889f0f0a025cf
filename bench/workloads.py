"""The three benchmark workloads: inputs made from the seed, the amount of
work, and checks of the outputs against properties the method must have.

Each workload writes its config into the run's work directory and returns
the ``cbo`` CLI arguments; the program sees only those files.  The checks
read the CLI's output files and raise ``CheckFailed`` on the first property
that does not hold.
"""

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

DECAY_RATE = 2.0 * 1.0 - 1 * 0.5**2  # 2 lam - d sigma^2 for the Rastrigin runs
RATE_TOL = 0.15
RADII = (0.25, 0.5, 1.0)
MFA_N_VALUES = (50, 100, 200, 400, 800)
MFA_SEEDS = 32
MFA_STEPS = 100
MFA_N_REF = 10_000
MFA_SLOPE = (-1.4, -0.6)


class CheckFailed(Exception):
    pass


def _require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _close(a, b, rel=1e-12):
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# Rastrigin runs (cbo run)


def _rastrigin_config(seed, n, steps, stride):
    return {
        "objective": {"name": "rastrigin", "dim": 1},
        "init": {"kind": "gaussian", "mean": [1.0], "variance": 0.8},
        "params": {"lambda": 1.0, "sigma": 0.5, "alpha": 1e15, "dt": 0.01,
                   "steps": steps, "n_particles": n, "dim": 1, "seed": seed},
        "recording": {"stride": stride, "ball_radii": list(RADII)},
        "outputs": "out",
    }


def _check_metrics_csv(out, steps, stride, dt=0.01):
    """Rows at t = k dt, variance <= V, W2^2 = 2 V, ball masses in [0, 1]
    and non-decreasing in the radius; returns the (t, V) pairs."""
    header, rows = _read_csv(out / "metrics.csv")
    want = ["t", "v_func", "variance", "w2_sq", "consensus_dist"]
    want += [f"ball_mass_{r!r}" for r in RADII] + ["moment4"]
    _require(header == want, f"metrics.csv header {header}")
    _require(len(rows) == steps // stride + 1, f"metrics.csv has {len(rows)} rows")
    tv = []
    for i, row in enumerate(rows):
        t, v, var, w2 = (float(x) for x in row[:4])
        masses = [float(x) for x in row[5:5 + len(RADII)]]
        _require(_close(t, i * stride * dt, 1e-9), f"row {i}: t = {t}")
        _require(math.isfinite(v) and v > 0, f"row {i}: v_func = {v}")
        _require(var <= v * (1 + 1e-12), f"row {i}: variance {var} > v_func {v}")
        _require(_close(w2, 2.0 * v), f"row {i}: w2_sq {w2} != 2 v_func")
        _require(all(0.0 <= m <= 1.0 for m in masses), f"row {i}: ball masses {masses}")
        _require(masses == sorted(masses), f"row {i}: ball masses decrease {masses}")
        tv.append((t, v))
    return tv


def _check_rate(rate, what):
    _require(
        abs(rate - DECAY_RATE) <= RATE_TOL * DECAY_RATE,
        f"{what} {rate:.4f} is not within {RATE_TOL:.0%} of {DECAY_RATE}",
    )


def _fit_rate(tv):
    """Least-squares slope of -log V over the records before the plateau
    (V >= 1e-6 V_0) and before the last 10% of the run."""
    v0, t_end = tv[0][1], tv[-1][0]
    pts = [(t, -math.log(v)) for t, v in tv if t <= 0.9 * t_end and v >= 1e-6 * v0]
    _require(len(pts) >= 3, "too few records to fit the V decay rate")
    tm = sum(t for t, _ in pts) / len(pts)
    zm = sum(z for _, z in pts) / len(pts)
    num = sum((t - tm) * (z - zm) for t, z in pts)
    return num / sum((t - tm) ** 2 for t, _ in pts)


def check_recorded(out, steps):
    _check_rate(_fit_rate(_check_metrics_csv(out, steps, 1)), "fitted V decay rate")


def check_unrecorded(out, steps):
    (t0, v0), (t1, v1) = _check_metrics_csv(out, steps, steps)
    _check_rate(-math.log(v1 / v0) / (t1 - t0), "-log(V_T/V_0)/T")


# ---------------------------------------------------------------------------
# mfa-sweep preset


def _mfa_config(seed):
    return {
        "objective": {"name": "quadratic", "dim": 1},
        "init": {"kind": "gaussian", "mean": [1.0], "variance": 1.0},
        "params": {"lambda": 1.0, "sigma": 0.5, "alpha": 2.0, "dt": 0.01,
                   "steps": MFA_STEPS, "n_particles": 50, "dim": 1, "seed": seed},
        "mfa": {"n_values": list(MFA_N_VALUES), "n_ref": MFA_N_REF,
                "n_seeds": MFA_SEEDS, "seed0": seed + 1, "m_factor": 10.0},
        "outputs": "out",
    }


def check_sweep(out):
    header, rows = _read_csv(out / "sweep.csv")
    _require(
        header == ["n", "err_sup", "err_sup_conditional", "exceed_fraction", "seeds"],
        f"sweep.csv header {header}",
    )
    _require([int(r[0]) for r in rows] == list(MFA_N_VALUES), f"sweep.csv n column {rows}")
    errs = []
    for r in rows:
        err, frac = float(r[1]), float(r[3])
        _require(math.isfinite(err) and err > 0, f"n = {r[0]}: err_sup = {err}")
        _require(0.0 <= frac <= 1.0, f"n = {r[0]}: exceed_fraction = {frac}")
        _require(int(r[4]) == MFA_SEEDS, f"n = {r[0]}: {r[4]} seeds")
        errs.append(err)
    xs = [math.log(n) for n in MFA_N_VALUES]
    ys = [math.log(e) for e in errs]
    xm, ym = sum(xs) / len(xs), sum(ys) / len(ys)
    slope = sum((x - xm) * (y - ym) for x, y in zip(xs, ys)) / sum((x - xm) ** 2 for x in xs)
    lo, hi = MFA_SLOPE
    _require(lo <= slope <= hi, f"log-log slope {slope:.4f} outside [{lo}, {hi}]")


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    # particle steps done by one invocation: particles x steps x replications
    particle_steps: int
    # (work dir, seed) -> CLI arguments; writes the config it needs
    prepare: Callable[[Path, int], list]
    # output dir -> None, raises CheckFailed
    check: Callable[[Path], None]
    # fans out over _parallel.thread_map; the outputs must equal those of a
    # CBO_THREADS=1 run
    fans_out: bool = False


def _config_args(config, *command):
    def prepare(work, seed):
        (work / "config.json").write_text(json.dumps(config(seed), indent=1))
        return [*command, "config.json"]

    return prepare


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "run-recorded-20k",
            20_000 * 400,
            _config_args(lambda seed: _rastrigin_config(seed, 20_000, 400, 1), "run"),
            lambda out: check_recorded(out, 400),
        ),
        Workload(
            "large-unrecorded-320k",
            320_000 * 100,
            _config_args(lambda seed: _rastrigin_config(seed, 320_000, 100, 100), "run"),
            lambda out: check_unrecorded(out, 100),
        ),
        Workload(
            "mfa-sweep-coupled",
            # reference run, then two coupled systems per replication
            MFA_N_REF * MFA_STEPS + 2 * sum(MFA_N_VALUES) * MFA_SEEDS * MFA_STEPS,
            _config_args(_mfa_config, "preset", "mfa-sweep"),
            check_sweep,
            fans_out=True,
        ),
    )
}
