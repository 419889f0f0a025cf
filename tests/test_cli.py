import csv
import importlib.util
import json
import math
import os
import signal
import subprocess
import sys
import time
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cbo import cli, engine, metrics, theory

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "docs" / "configs"
BENCH = ROOT / "bench"


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=2))
    return str(path)


def read_csv(path):
    """The header and the rows, as floats, of a CSV file."""
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    return header, [[float(x) for x in row] for row in rows]


def base_config(tmp_path, **overrides):
    cfg = {
        "objective": {"name": "quadratic", "dim": 1},
        "init": {"kind": "gaussian", "mean": [1.0], "variance": 0.5},
        "params": {
            "lambda": 1.0, "sigma": 0.5, "alpha": 10.0, "dt": 0.01,
            "steps": 25, "n_particles": 50, "dim": 1, "seed": 7,
        },
        "recording": {"stride": 1, "ball_radii": [0.5, 1.0]},
        "outputs": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    return cfg


class TestConfigErrors:
    def test_malformed_json_exit_2_with_location(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "objective": {\n')
        assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "bad.json:" in err  # line-located diagnostic

    def test_missing_key_exit_2(self, tmp_path, capsys):
        cfg = base_config(tmp_path)
        del cfg["params"]["sigma"]
        assert cli.main(["run", write_config(tmp_path, cfg)]) == cli.EXIT_CONFIG
        assert "params" in capsys.readouterr().err

    def test_unknown_objective_exit_2(self, tmp_path):
        cfg = base_config(tmp_path)
        cfg["objective"]["name"] = "ackley"
        assert cli.main(["run", write_config(tmp_path, cfg)]) == cli.EXIT_CONFIG

    def test_dim_mismatch_exit_2(self, tmp_path):
        cfg = base_config(tmp_path)
        cfg["params"]["dim"] = 2
        assert cli.main(["run", write_config(tmp_path, cfg)]) == cli.EXIT_CONFIG

    def test_missing_file_exit_2(self, tmp_path):
        assert cli.main(["run", str(tmp_path / "nope.json")]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("section, key, value", [
        ("params", "steps", 5.7),
        ("recording", "stride", 2.5),
        ("params", "n_particles", True),
        ("params", "alpha", "1e3"),
        ("init", "mean", ["abc"]),
        ("init", "mean", [math.nan]),
        ("objective", "dim", True),
        ("objective", "center", ["x"]),
        pytest.param("params", "lambda", 10**400, id="params-lambda-10**400"),
        ("params", "seed", 2**64),
        # in range, but more floats than any array holds: rejected before
        # anything is allocated
        ("params", "n_particles", 2**62),
        ("objective", "dim", 2**62),
    ])
    def test_bad_value_exit_2_names_key(self, tmp_path, capsys, section, key, value):
        # no silent coercion and no traceback: exit 2 naming the key
        cfg = base_config(tmp_path)
        cfg[section][key] = value
        assert cli.main(["run", write_config(tmp_path, cfg)]) == cli.EXIT_CONFIG
        assert f"{section}.{key}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("route, path, value, named", [
        ("fig_trajectories", ("--runs",), 1, "fig_trajectories.runs"),
        ("run", ("outputs",), 5, "outputs"),
        ("theory", ("theory", "eps"), "x", "theory.eps"),
        ("theory", ("theory", "r"), True, "theory.r"),
        ("theory", ("theory", "sample_n"), 0, "theory.sample_n"),
        ("theory", ("objective", "dim"), 2, "params.dim = 1 does not match objective.dim = 2"),
        ("mfa", ("objective", "dim"), 2, "params.dim = 1 does not match objective.dim = 2"),
        ("mfa", (), [1], "config"),
        ("audit", (), [1], "config"),
        ("audit", ("audit", "measures"), 0, "audit.measures"),
        ("audit", ("audit", "measures"), -2, "audit.measures"),
        ("audit", ("audit", "measures"), "3", "audit.measures"),
        ("audit", ("audit", "max_n"), 5, "audit.max_n"),
        ("audit", ("audit", "min_inside"), 0, "audit.min_inside"),
        ("audit", ("audit", "seed"), -1, "audit.seed"),
        # in range, but more floats than any array holds
        ("theory", ("theory", "sample_n"), 2**62, "theory.sample_n"),
        ("mfa", ("mfa", "n_ref"), 2**62, "mfa.n_ref"),
        ("fig_trajectories", ("--n",), 2**62, "fig_trajectories.n"),
        # an output directory that cannot be made: "taken" is a file
        *((route, ("outputs",), "taken", "outputs: cannot write taken")
          for route in ("run", "theory", "mfa", "audit")),
        *((route, ("--out",), "taken", "outputs: cannot write taken")
          for route in ("fig_variance", "fig_trajectories")),
        # in range, but the trajectories they size hold more floats than any
        # array: rejected before a run starts
        ("fig_trajectories", ("--steps",), 2**62, "fig_trajectories.runs * (steps + 1)"),
        ("fig_trajectories", ("--runs",), 2**62, "fig_trajectories.runs * (steps + 1)"),
        # replication seeds: checked before the reference run; 2**62 seeds
        # are never listed
        ("mfa", ("mfa", "n_seeds"), 0, "mfa.n_seeds"),
        ("mfa", ("mfa", "n_seeds"), 2**62, "mfa.n_seeds"),
        ("mfa", ("mfa", "seed0"), 2**64 - 1, "mfa.seed0"),
        # a value that a library type rejects is named by the block that
        # builds the type, with the library's message
        ("run", ("params", "lambda"), -1, "config error: params: lam must be >= 0, got -1.0"),
        ("run", ("params", "seed"), -1, "config error: params: seed must be"),
        ("run", ("params", "h"), {"kind": "ramp_heaviside", "delta": 0}, "params.h: ramp delta"),
        ("run", ("recording", "stride"), 0, "config error: recording: stride must be >= 1"),
        # a repeated radius would write two columns of one name
        ("run", ("recording", "ball_radii"), [0.5, 0.5, 1.0],
         "config error: recording: ball radius 0.5 is repeated"),
        ("run", ("init", "variance"), -1, "config error: init: variance must be positive"),
        ("run", ("init",), {"kind": "uniform", "lo": [1.0], "hi": [1.0]}, "init: degenerate"),
        # a box whose width overflows, which the sample would turn into NaN
        ("run", ("init",), {"kind": "uniform", "lo": [-1e308], "hi": [1e308]},
         "init: box too wide"),
        ("theory", ("params", "lambda"), -1, "config error: params: lam must be >= 0"),
        ("mfa", ("init", "variance"), 0, "config error: init: variance must be positive"),
        ("fig_variance", ("--scale",), 0, "fig_variance.scale: must lie in (0, 1]"),
        # the seed and steps flags are bounded like every option
        *((route, (f"--{flag}",), -1, f"{route}.{flag}: must be >= 0, got -1")
          for route in ("fig_variance", "fig_trajectories") for flag in ("seed", "steps")),
        # checked before the reference run, like the replication seeds
        ("mfa", ("mfa", "n_values"), [0, 40, 80], "mfa.n_values: every entry must be >= 1"),
        # more floats than any array holds, rejected before numpy sees a shape
        ("audit", ("audit", "max_n"), 2**62, "audit.max_n"),
        # a slope over fewer than 3 distinct counts, a reference run too
        # small for the largest count, a threshold that every replication
        # exceeds
        ("mfa", ("mfa", "n_values"), [40, 40, 40], "mfa.n_values: need >= 3 distinct"),
        ("mfa", ("mfa", "n_values"), [10, 20], "mfa.n_values: need >= 3 distinct"),
        ("mfa", ("mfa", "n_ref"), 5, "mfa.n_ref: must be >= 10 * max(n_values)"),
        ("mfa", ("mfa", "m_factor"), 0, "mfa.m_factor: must be > 0"),
        # a scale that rounds N to 0
        ("fig_variance", ("--scale",), 1e-9, "fig_variance.scale"),
        # out of range, rejected before the theory sample is drawn
        ("theory", ("theory", "tau"), 1.5, "theory.tau: must lie in [0, 1)"),
        ("theory", ("theory", "r"), -1, "theory.r: must be > 0"),
        ("theory", ("theory", "b_bound"), -1, "theory.b_bound: must be >= 0"),
        ("theory", ("theory", "q_laplace"), -1, "theory.q_laplace: must be > 0"),
        # a key that its block does not list, and a center on an objective
        # that has none
        ("run", ("recording", "strides"), 5, "recording.strides: unknown key"),
        ("run", ("init", "varaince"), 1.0, "init.varaince: unknown key"),
        ("run", ("params", "h"), {"kind": "ramp_heaviside", "delta": 1.0, "lo": 0},
         "params.h.lo: unknown key"),
        ("run", ("objective",), {"name": "rastrigin", "dim": 1, "center": [5.0]},
         "objective.center"),
        ("theory", ("theory", "sample"), 20, "theory.sample: unknown key"),
        ("mfa", ("mfa", "nref"), 800, "mfa.nref: unknown key"),
        ("audit", ("audit", "maxn"), 20, "audit.maxn: unknown key"),
        # the figure presets take flags: a config that names one, or holds
        # the block of its options, is not run
        ("run", ("preset",), "fig_variance", "config error: preset: unknown key"),
        *(("run", (route,), {}, f"config error: {route}: unknown key")
          for route in ("fig_variance", "fig_trajectories")),
        # a first seed in range whose runs' seeds pass 64 bits: rejected
        # before any run starts
        ("fig_trajectories", ("--seed",), 2**64 - 1,
         "fig_trajectories.seed: the seeds 18446744073709551615..18446744073709551616 exceed"),
        ("fig_variance", ("--seed",), 2**64 - 2,
         "fig_variance.seed: the seeds 18446744073709551614..18446744073709551617 exceed"),
        # an init vector whose length is not params.dim, named by its key
        *((route, ("init", "mean"), [1.0, 2.0], "init.mean: 2 entries, expected params.dim = 1")
          for route in ("run", "theory", "mfa")),
        ("run", ("init",), {"kind": "uniform", "lo": [0.0, 0.0], "hi": [1.0, 1.0]},
         "init.lo: 2 entries"),
        ("run", ("init",), {"kind": "uniform", "lo": [0.0], "hi": [1.0, 1.0]},
         "init.hi: 2 entries"),
        # eps <= 0 is out of range whatever the sample; eps > V(0) is exit 4
        ("theory", ("theory", "eps"), 0, "theory.eps: must be > 0, got 0.0"),
        ("theory", ("theory", "eps"), -1, "theory.eps: must be > 0, got -1.0"),
        # an output directory below a file, found before the runs, not after
        *((route, ("--out",), "taken/x", "outputs: cannot write taken/x")
          for route in ("fig_variance", "fig_trajectories")),
    ])
    def test_bad_value_on_each_route_exit_2_names_key(self, tmp_path, capsys, monkeypatch,
                                                      route, path, value, named):
        # the preset and theory blocks are as strict as the run blocks, and
        # every bad value is rejected before any work starts; one worker,
        # since the spies see no call made in a forked worker process
        monkeypatch.setenv("CBO_THREADS", "1")
        monkeypatch.chdir(tmp_path)
        (tmp_path / "taken").write_text("a file\n")
        started = []
        for module, name in ((engine, "states"), (engine, "sample_initial"),
                             (theory, "laplace_audit")):
            work = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args, work=work, name=name, **kwargs:
                                started.append(name) or work(*args, **kwargs))
        command, cfg = route_config(route, tmp_path)
        if path[:1] and path[0].startswith("--"):  # a flag on the command line, the last wins
            argv = [*command, path[0], str(value)]
        else:
            if path:
                parent = cfg
                for key in path[:-1]:
                    parent = parent[key]
                parent[path[-1]] = value
            else:
                cfg = value
            argv = [*command, write_config(tmp_path, cfg)]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        assert started == []

    @pytest.mark.parametrize("route", ["run", "theory", "mfa", "audit"])
    def test_unknown_top_level_key_exit_2_names_it(self, tmp_path, capsys, monkeypatch, route):
        # a misspelt block is not dropped: "recordings" would otherwise run
        # with the default recording
        monkeypatch.chdir(tmp_path)
        command, cfg = route_config(route, tmp_path)
        cfg["recordings"] = {"stride": 5}
        assert cli.main([*command, write_config(tmp_path, cfg)]) == cli.EXIT_CONFIG
        assert "recordings: unknown key" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_shipped_and_bench_configs_take_listed_top_level_keys(self, tmp_path):
        spec = importlib.util.spec_from_file_location("workloads", BENCH / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        paths = sorted(CONFIGS.glob("*.json"))
        for name, workload in workloads.WORKLOADS.items():
            (tmp_path / name).mkdir()
            args = workload.prepare(tmp_path / name, 0)
            paths.append(tmp_path / name / args[-1])
        assert len(paths) == 6
        for path in paths:
            assert isinstance(cli.load_config(path), dict), path

    @pytest.mark.parametrize("route", ["run", "mfa", "fig_variance"])
    def test_default_outputs_under_a_file_exit_2_before_any_run(self, tmp_path, capsys,
                                                                 monkeypatch, route):
        # the default outputs, out or out/<preset>, are checked like a given path
        monkeypatch.chdir(tmp_path)
        (tmp_path / "out").write_text("a file\n")
        monkeypatch.setattr(engine, "sample_initial", None)  # a run would fail on it
        command, cfg = route_config(route, tmp_path)
        if cfg is None:  # flags: the same command without --out
            argv = command[:-2]
        else:
            del cfg["outputs"]
            argv = [*command, write_config(tmp_path, cfg)]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert "outputs: cannot write out" in capsys.readouterr().err

    def test_out_of_memory_exit_2(self, tmp_path, capsys, monkeypatch):
        # an allocation that fails; no test asks for a real huge array
        def no_memory(*args, **kwargs):
            raise MemoryError("cannot allocate")

        monkeypatch.setattr(cli.engine, "sample_initial", no_memory)
        assert cli.main(["run", write_config(tmp_path, base_config(tmp_path))]) == cli.EXIT_CONFIG
        assert "memory" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def route_config(route, tmp_path):
    """A valid small config for one route of the CLI, writing to
    ``tmp_path / "out"``, and the command that takes it; for a preset that
    takes flags, the whole command, ending in ``--out``, and None."""
    cfg = base_config(tmp_path)
    if route == "run":
        return ["run"], cfg
    if route in ("fig_variance", "fig_trajectories"):
        sizes = ["--scale", "0.0001"] if route == "fig_variance" else ["--runs", "2", "--n", "10"]
        return ["preset", route.replace("_", "-"), *sizes, "--out", cfg["outputs"]], None
    if route == "theory":
        theory = {"eps": 0.01, "tau": 0.1, "r": 0.5, "b_bound": 1.0, "q_laplace": 0.01,
                  "sample_n": 20}
        return ["theory"], dict(cfg, theory=theory)
    if route == "mfa":
        return ["preset", "mfa-sweep"], mfa_smoke_config(tmp_path / "out")
    assert route == "audit"
    return ["preset", "laplace-audit"], {
        "audit": {"measures": 3, "seed": 1, "max_n": 20, "min_inside": 3},
        "outputs": cfg["outputs"],
    }


# replacement leaves: wrong types, bools, NaN/inf, negatives and integers
# beyond 64 bits or beyond the float range
BAD_LEAVES = [None, True, False, "x", "", [], {}, [1, "a"], {"k": 1}, math.nan, math.inf,
              -math.inf, -1, 0, 1.5, 2**64, -2**64, 10**400]


def node_paths(node, path=()):
    """Every key path below ``node``, blocks and list entries included."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from node_paths(child, path + (key,))


class TestMutatedConfigs:
    @pytest.mark.parametrize("route", ["run", "theory", "mfa", "audit"])
    @settings(max_examples=30, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_mutated_leaf_ends_in_documented_exit_code(self, tmp_path, monkeypatch, route,
                                                       data):
        # any one malformed leaf, or a non-object config, ends in exit
        # 0-4 and never in an uncaught exception
        monkeypatch.chdir(tmp_path)  # a deleted "outputs" writes below the cwd
        command, cfg = route_config(route, tmp_path)
        if data.draw(st.integers(0, 9)) == 0:
            cfg = data.draw(st.sampled_from([[1], "x", 3, None, []]))
        else:
            path = data.draw(st.sampled_from(list(node_paths(cfg))))
            parent = cfg
            for key in path[:-1]:
                parent = parent[key]
            old = parent[path[-1]]
            op = data.draw(st.sampled_from(["replace", "negate", "delete"]))
            if op == "delete":
                del parent[path[-1]]
            elif op == "negate" and isinstance(old, (int, float)):
                parent[path[-1]] = -old
            else:
                parent[path[-1]] = data.draw(st.sampled_from(BAD_LEAVES))
        code = cli.main([*command, write_config(tmp_path, cfg, "mutated.json")])
        assert code in {0, 1, 2, 3, 4}


class TestRun:
    def test_zero_steps_single_data_row(self, tmp_path):
        cfg = base_config(tmp_path)
        cfg["params"]["steps"] = 0
        assert cli.main(["run", write_config(tmp_path, cfg)]) == 0
        header, rows = read_csv(tmp_path / "out" / "metrics.csv")
        assert len(rows) == 1
        assert header[:5] == ["t", "v_func", "variance", "w2_sq", "consensus_dist"]
        assert header[5] == "ball_mass_0.5"
        assert header[-1] == "moment4"

    def test_determinism_byte_identical(self, tmp_path):
        cfg = base_config(tmp_path)
        path = write_config(tmp_path, cfg)
        assert cli.main(["run", path]) == 0
        first = (tmp_path / "out" / "metrics.csv").read_bytes()
        assert cli.main(["run", path]) == 0
        second = (tmp_path / "out" / "metrics.csv").read_bytes()
        assert first == second

    def test_csv_round_trip_exact(self, tmp_path):
        from cbo import engine, metrics, objectives

        cfg = base_config(tmp_path)
        assert cli.main(["run", write_config(tmp_path, cfg)]) == 0
        _, rows = read_csv(tmp_path / "out" / "metrics.csv")
        params = cli.parse_params(cfg["params"])
        obj = objectives.quadratic(1)
        dist = engine.GaussianIsotropic((1.0,), 0.5)
        series = engine.simulate(dist, obj, params, metrics.RecordingPlan(1, (0.5, 1.0)))
        for row, rec in zip(rows, series.records):
            assert row[0] == rec.t
            assert row[1] == rec.v_func
            assert row[2] == rec.variance
            assert row[3] == rec.w2_sq
            assert row[4] == rec.consensus_dist
            assert row[5] == rec.ball_mass[0.5]
            assert row[6] == rec.ball_mass[1.0]
            assert row[7] == rec.moment4

    def test_ramp_h_variant_from_config(self, tmp_path):
        cfg = base_config(tmp_path)
        cfg["params"]["h"] = {"kind": "ramp_heaviside", "delta": 0.5}
        assert cli.main(["run", write_config(tmp_path, cfg)]) == 0
        # a delta so small that gap / delta overflows: exact, and no warning
        cfg["params"]["h"] = {"kind": "ramp_heaviside", "delta": 1e-320}
        assert cli.main(["run", write_config(tmp_path, cfg)]) == 0
        cfg["params"]["h"] = {"kind": "ramp_heaviside"}  # missing delta
        assert cli.main(["run", write_config(tmp_path, cfg)]) == cli.EXIT_CONFIG
        cfg["params"]["h"] = "heaviside"  # unknown spelling
        assert cli.main(["run", write_config(tmp_path, cfg)]) == cli.EXIT_CONFIG

    def test_summary_contains_endpoint_and_rate(self, tmp_path):
        cfg = base_config(tmp_path)
        cfg["params"]["steps"] = 60
        assert cli.main(["run", write_config(tmp_path, cfg)]) == 0
        text = (tmp_path / "out" / "summary.txt").read_text()
        assert "endpoint_error = " in text
        assert "fitted_v_decay_rate = " in text
        assert "config_digest = " in text

    def test_fit_over_times_too_close_is_unavailable(self, tmp_path):
        # at dt = 1e-308 the times' squared spread underflows to 0: the fit
        # is unavailable, not 0 / 0 = nan
        cfg = base_config(tmp_path)
        cfg["params"]["dt"] = 1e-308
        assert cli.main(["run", write_config(tmp_path, cfg)]) == 0
        text = (tmp_path / "out" / "summary.txt").read_text()
        assert "fitted_v_decay_rate = unavailable (no slope" in text

    def test_divergence_exit_3_with_partial_series(self, tmp_path):
        cfg = base_config(tmp_path)
        cfg["init"] = {"kind": "uniform", "lo": [1e149], "hi": [1e150]}
        cfg["params"].update({"lambda": 1e308, "sigma": 0.0, "dt": 1.0, "alpha": 1e-8})
        assert cli.main(["run", write_config(tmp_path, cfg)]) == cli.EXIT_DIVERGENCE
        _, rows = read_csv(tmp_path / "out" / "metrics.csv")
        assert len(rows) >= 1  # records up to the failure are persisted


class TestTheoryCommand:
    def test_report_values(self, tmp_path, capsys):
        cfg = base_config(tmp_path)
        cfg["theory"] = {"eps": 0.01, "tau": 0.1, "sample_n": 500}
        assert cli.main(["theory", write_config(tmp_path, cfg)]) == 0
        out = capsys.readouterr().out
        assert "c = 0.6180339887498949" in out
        assert "t_star = " in out
        assert "b1 = " in out
        assert "wellprep_cond1 = " in out

    def test_sigma_zero_reports_infinite_q(self, tmp_path, capsys):
        cfg = base_config(tmp_path)
        cfg["params"]["sigma"] = 0.0
        cfg["theory"] = {"eps": 0.01, "tau": 0.1, "sample_n": 200}
        assert cli.main(["theory", write_config(tmp_path, cfg)]) == 0
        assert "q = infinite (sigma=0)" in capsys.readouterr().out

    def test_non_contractive_exit_4(self, tmp_path):
        cfg = base_config(tmp_path)
        cfg["params"].update({"lambda": 0.1, "sigma": 1.0})
        cfg["theory"] = {"eps": 0.01, "tau": 0.1, "sample_n": 100}
        assert cli.main(["theory", write_config(tmp_path, cfg)]) == cli.EXIT_THEORY

    @pytest.mark.parametrize("block, key, code, q", [
        ("theory", "r", cli.EXIT_OK, "q = 67.7"),
        ("theory", "b_bound", cli.EXIT_OK, "q = inf"),
        ("params", "lambda", cli.EXIT_OK, "q = inf"),
        ("params", "sigma", cli.EXIT_THEORY, None),
    ])
    def test_value_whose_square_overflows(self, tmp_path, capsys, block, key, code, q):
        # past ~1.3e154 a square overflows: q is then inf, or for a huge r,
        # whose terms cancel, finite; sigma^2 = inf is not contractive
        cfg = json.loads((CONFIGS / "run_rastrigin.json").read_text())
        cfg[block][key] = 1e200
        cfg["theory"]["sample_n"] = 2000
        cfg["outputs"] = str(tmp_path / "out")
        assert cli.main(["theory", write_config(tmp_path, cfg)]) == code
        if q is None:
            assert "sigma^2" in capsys.readouterr().err
        else:
            text = (tmp_path / "out" / "theory.txt").read_text()
            assert q in text and "nan" not in text

    @pytest.mark.parametrize("block, key, value", [
        ("params", "sigma", 1e-170),
        ("theory", "r", 1e-323),
    ])
    def test_value_whose_square_underflows(self, tmp_path, block, key, value):
        # sigma^2 or (1 - c)^2 r rounds to 0: q is inf, not a division by
        # zero; a ball of radius 1e-323 holds no sample point, so the
        # Laplace bound is undefined, not nan
        cfg = json.loads((CONFIGS / "run_rastrigin.json").read_text())
        cfg[block][key] = value
        cfg["theory"]["sample_n"] = 2000
        cfg["outputs"] = str(tmp_path / "out")
        assert cli.main(["theory", write_config(tmp_path, cfg)]) == cli.EXIT_OK
        text = (tmp_path / "out" / "theory.txt").read_text()
        assert "\nq = inf\n" in text and "nan" not in text

    @pytest.mark.parametrize("sample_n", [1, 5, 9])
    def test_sample_smaller_than_ball_point_count(self, tmp_path, sample_n):
        # the small-ball extrapolation uses the k-th nearest sample point,
        # with k at most the sample size
        cfg = json.loads((CONFIGS / "run_rastrigin.json").read_text())
        cfg["theory"]["sample_n"] = sample_n
        cfg["outputs"] = str(tmp_path / "out")
        assert cli.main(["theory", write_config(tmp_path, cfg)]) == 0
        assert "alpha0 = " in (tmp_path / "out" / "theory.txt").read_text()


def mfa_smoke_config(out):
    return {
        "objective": {"name": "quadratic", "dim": 1},
        "init": {"kind": "gaussian", "mean": [1.0], "variance": 1.0},
        "params": {
            "lambda": 1.0, "sigma": 0.5, "alpha": 2.0, "dt": 0.01,
            "steps": 10, "n_particles": 20, "dim": 1, "seed": 5,
        },
        "mfa": {"n_values": [20, 40, 80], "n_ref": 800, "n_seeds": 4},
        "outputs": str(out),
    }


class TestMfaConfigErrors:
    @pytest.mark.parametrize("key, value", [
        ("n_values", [20, 40, 40.5]),
        ("n_values", 20),
        ("n_ref", 800.0),
        ("n_seeds", 2.7),
        ("n_seeds", True),
        ("seed0", "6"),
        ("m_factor", "x"),
        ("m_factor", math.nan),
        ("m_factor", math.inf),
    ])
    def test_bad_value_exit_2_names_key(self, tmp_path, capsys, key, value):
        # no silent truncation and no traceback: exit 2 naming the key
        cfg = mfa_smoke_config(tmp_path / "sweep")
        cfg["mfa"][key] = value
        assert cli.main(["preset", "mfa-sweep", write_config(tmp_path, cfg)]) == cli.EXIT_CONFIG
        assert f"mfa.{key}" in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()


class TestPresets:
    def test_fig_variance_smoke(self, tmp_path):
        out = tmp_path / "fv"
        code = cli.main([
            "preset", "fig-variance", "--scale", "0.001",
            "--steps", "40", "--out", str(out), "--seed", "3",
        ])
        assert code == 0
        for mu in (1, 2, 3, 4):
            header, rows = read_csv(out / f"mu{mu}" / "metrics.csv")
            assert len(rows) == 41
        text = (out / "summary.txt").read_text()
        assert "theoretical_rate = 1.75" in text

    def test_fig_trajectories_smoke(self, tmp_path):
        out = tmp_path / "ft"
        code = cli.main([
            "preset", "fig-trajectories", "--runs", "2", "--n", "60",
            "--steps", "30", "--out", str(out), "--seed", "3",
        ])
        assert code == 0
        traj = (out / "trajectories.csv").read_text().splitlines()
        assert traj[0] == "run,agent,t,x,y"
        assert len(traj) == 1 + 2 * 3 * 31
        mean = (out / "mean_trajectories.csv").read_text().splitlines()
        assert mean[0] == "agent,t,x,y"
        assert len(mean) == 1 + 3 * 31
        assert "chord_deviation_agent0" in (out / "summary.txt").read_text()

    def test_fig_trajectories_releases_state_zero(self, tmp_path, monkeypatch):
        # a reference to state 0 kept past its step holds a whole ensemble
        # of memory for the rest of each run
        monkeypatch.setenv("CBO_THREADS", "1")
        monkeypatch.setattr(metrics, "BLOCK_ROWS", 23)  # n + 3 rows: each run a batch of its own
        states, alive = engine.states, []

        def spy(x, *args, **kwargs):
            state0, run = weakref.ref(x), states(x, *args, **kwargs)
            del x
            for k, *rest in run:
                if k == 2:
                    alive.append(state0() is not None)
                yield (k, *rest)

        monkeypatch.setattr(engine, "states", spy)
        code = cli.main(["preset", "fig-trajectories", "--runs", "2", "--n", "20",
                         "--steps", "3", "--out", str(tmp_path / "ft")])
        assert code == 0
        assert alive == [False, False]

    def test_divergence_in_a_worker_exit_3_names_step_particle_seed(self, tmp_path, capsys,
                                                                     monkeypatch):
        # patched before the map, which the forked workers inherit: particle
        # 7 of seed 4, in the second of two batches, starts at NaN
        monkeypatch.setenv("CBO_THREADS", "2")
        monkeypatch.setattr(metrics, "BLOCK_ROWS", 26)  # n + 3 = 13 rows: batches of 2 runs
        sample = engine.sample_initial

        def planted(dist, n, dim, seeds):
            x = sample(dist, n, dim, seeds)
            if 4 in seeds:
                x[list(seeds).index(4), 7] = math.nan
            return x

        monkeypatch.setattr(engine, "sample_initial", planted)
        code = cli.main(["preset", "fig-trajectories", "--runs", "4", "--n", "10",
                         "--steps", "5", "--out", str(tmp_path / "ft")])
        assert code == cli.EXIT_DIVERGENCE
        err = capsys.readouterr().err
        assert err == ("simulation error: non-finite energy at particle 7 of replication 1 "
                       "(seed 4) at step 0\n")

    def test_dead_worker_exit_3_names_its_seeds(self, tmp_path):
        # a worker process that dies ends the run, with no hang and no traceback
        script = (
            "import os, sys\n"
            "from cbo import cli, engine, metrics\n"
            "metrics.BLOCK_ROWS = 26\n"
            "sample = engine.sample_initial\n"
            "engine.sample_initial = lambda dist, n, dim, seeds: ("
            "os._exit(1) if 4 in seeds else sample(dist, n, dim, seeds))\n"
            "sys.exit(cli.main(['preset', 'fig-trajectories', '--runs', '4', '--n', '10',"
            " '--steps', '5', '--out', sys.argv[1]]))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), CBO_THREADS="2")
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "ft")], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == cli.EXIT_DIVERGENCE
        assert proc.stderr.startswith("simulation error: a worker process died")
        assert "3, 4\n" in proc.stderr and "Traceback" not in proc.stderr
        assert not (tmp_path / "ft").exists()

    @staticmethod
    def interrupt(tmp_path, target, flags, signals):
        """Run fig-trajectories at two workers with ``flags``, and send
        ``signals`` SIGINTs 0.1 s apart to its process group or to the
        parent alone once both workers run: one stderr line, exit 130, and
        no worker left."""
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), CBO_THREADS="2")
        out = tmp_path / "ft"
        proc = subprocess.Popen(
            [sys.executable, "-m", "cbo.cli", "preset", "fig-trajectories", *flags,
             "--out", str(out)], env=env, stderr=subprocess.PIPE, text=True,
            start_new_session=True)  # its own process group, which this test is not in
        children = Path(f"/proc/{proc.pid}/task/{proc.pid}/children")
        deadline = time.monotonic() + 60
        workers = []
        while len(workers) < 2 and time.monotonic() < deadline and proc.poll() is None:
            time.sleep(0.01)
            workers = children.read_text().split()
        time.sleep(0.3)  # the workers are past their start-up
        for i in range(signals):
            if i:
                time.sleep(0.1)
            (os.killpg if target == "group" else os.kill)(proc.pid, signal.SIGINT)
        try:
            err = proc.communicate(timeout=60)[1]
        finally:  # a hung run leaves no process behind
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
        assert len(workers) == 2
        assert (proc.returncode, err) == (cli.EXIT_INTERRUPTED, "interrupted\n")
        assert not [pid for pid in workers if Path(f"/proc/{pid}").exists()]
        assert not out.exists()

    @pytest.mark.parametrize("target", ["group", "parent"])
    def test_interrupt_exit_130_leaves_no_worker(self, tmp_path, target):
        # SIGINT to the process group (Ctrl-C) or to the parent alone, while
        # the fan-out runs
        self.interrupt(tmp_path, target, ["--runs", "200"], 1)

    @pytest.mark.parametrize("target", ["group", "parent"])
    def test_second_interrupt_exit_130_leaves_no_worker(self, tmp_path, target):
        # a second SIGINT while the running items finish (runs of 16000
        # particles, long enough for it to land in that wait) is ignored:
        # the exit does not hang
        self.interrupt(tmp_path, target, ["--runs", "200", "--n", "16000"], 2)

    @pytest.mark.parametrize("route", ["run", "fig-variance"])
    def test_interrupt_in_process_exit_130(self, tmp_path, capsys, monkeypatch, route):
        # `cbo run` and a preset at one worker are interrupted in this process
        monkeypatch.setenv("CBO_THREADS", "1")

        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(engine, "simulate", interrupted)
        if route == "run":
            argv = ["run", write_config(tmp_path, base_config(tmp_path))]
        else:
            argv = ["preset", "fig-variance", "--out", str(tmp_path / "fv")]
        assert cli.main(argv) == cli.EXIT_INTERRUPTED
        assert capsys.readouterr().err == "interrupted\n"

    @pytest.mark.parametrize("threads", ["abc", "0", "-3", "2.5"])
    def test_cbo_threads_not_positive_integer_exit_2(self, tmp_path, capsys, monkeypatch,
                                                     threads):
        monkeypatch.setenv("CBO_THREADS", threads)
        out = tmp_path / "fv"
        code = cli.main(["preset", "fig-variance", "--scale", "0.0005", "--steps", "3",
                         "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        assert "CBO_THREADS" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("preset, flag, summary", [
        ("fig-variance", ["--scale", "0.5"], "n_particles = 320000\nscale = 1.0\n"),
        ("fig-trajectories", ["--n", "100"], "n_particles = 32000\n"),
    ])
    def test_full_excludes_the_flags_it_sets(self, tmp_path, capsys, preset, flag, summary):
        # --full with an explicit value of an option it sets is an error,
        # in either order, not a silent override; --full alone sets it
        out = tmp_path / "out"
        common = ["--runs", "2"] if preset == "fig-trajectories" else []
        common += ["--steps", "0", "--out", str(out)]
        for argv in (["--full", *flag], [*flag, "--full"]):
            with pytest.raises(SystemExit) as exit_:
                cli.main(["preset", preset, *argv, *common])
            assert exit_.value.code == cli.EXIT_CONFIG
            assert "not allowed with argument" in capsys.readouterr().err
            assert not out.exists()
        assert cli.main(["preset", preset, "--full", *common]) == 0
        assert summary in (out / "summary.txt").read_text()

    def test_fig_trajectories_needs_two_runs(self, tmp_path):
        code = cli.main([
            "preset", "fig-trajectories", "--runs", "1", "--out", str(tmp_path / "x"),
        ])
        assert code == cli.EXIT_CONFIG

    def test_mfa_sweep_smoke(self, tmp_path):
        cfg = mfa_smoke_config(tmp_path / "sweep")
        assert cli.main(["preset", "mfa-sweep", write_config(tmp_path, cfg)]) == 0
        lines = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
        assert lines[0] == "n,err_sup,err_sup_conditional,exceed_fraction,seeds"
        assert len(lines) == 4
        assert "slope = " in (tmp_path / "sweep" / "summary.txt").read_text()

    def test_laplace_audit_smoke(self, tmp_path, capsys):
        cfg = {
            "audit": {"measures": 50, "seed": 1},
            "outputs": str(tmp_path / "audit"),
        }
        assert cli.main(["preset", "laplace-audit", write_config(tmp_path, cfg)]) == 0
        out = capsys.readouterr().out
        assert "violations = 0" in out

    def test_preset_determinism(self, tmp_path):
        args = ["preset", "fig-variance", "--scale", "0.0005", "--steps", "20",
                "--seed", "9"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(args + ["--out", str(out1)]) == 0
        assert cli.main(args + ["--out", str(out2)]) == 0
        for mu in (1, 2, 3, 4):
            a = (out1 / f"mu{mu}" / "metrics.csv").read_bytes()
            b = (out2 / f"mu{mu}" / "metrics.csv").read_bytes()
            assert a == b

    def test_results_independent_of_thread_count(self, tmp_path, monkeypatch):
        args = ["preset", "fig-variance", "--scale", "0.0005", "--steps", "20",
                "--seed", "9"]
        monkeypatch.setenv("CBO_THREADS", "1")
        out1 = tmp_path / "serial"
        assert cli.main(args + ["--out", str(out1)]) == 0
        monkeypatch.setenv("CBO_THREADS", "8")
        out2 = tmp_path / "pooled"
        assert cli.main(args + ["--out", str(out2)]) == 0
        for mu in (1, 2, 3, 4):
            a = (out1 / f"mu{mu}" / "metrics.csv").read_bytes()
            b = (out2 / f"mu{mu}" / "metrics.csv").read_bytes()
            assert a == b

        sweeps = {}
        for threads in ("1", "3"):
            monkeypatch.setenv("CBO_THREADS", threads)
            out = tmp_path / f"sweep{threads}"
            path = write_config(tmp_path, mfa_smoke_config(out), f"sweep{threads}.json")
            assert cli.main(["preset", "mfa-sweep", path]) == 0
            sweeps[threads] = [(out / f).read_bytes() for f in ("sweep.csv", "summary.txt")]
        assert sweeps["1"] == sweeps["3"]

        # fig-trajectories fans out seed batches: its 5 runs of 23 rows are
        # one batch, or 2 + 2 + 1 runs at 46 rows a batch
        args = ["preset", "fig-trajectories", "--runs", "5", "--n", "20", "--steps", "20"]
        files = ("trajectories.csv", "mean_trajectories.csv", "summary.txt")
        trajs = []
        for threads, block in (("1", metrics.BLOCK_ROWS), ("3", metrics.BLOCK_ROWS), ("3", 46)):
            monkeypatch.setenv("CBO_THREADS", threads)
            monkeypatch.setattr(metrics, "BLOCK_ROWS", block)
            out = tmp_path / f"traj{threads}-{block}"
            assert cli.main(args + ["--out", str(out)]) == 0
            trajs.append([(out / f).read_bytes() for f in files])
        assert [len(b) for b in metrics.seed_batches(range(5), 23)] == [2, 2, 1]
        assert trajs[0] == trajs[1] == trajs[2]


class TestChordDeviation:
    def test_straight_line_zero(self):
        pts = np.linspace(0, 1, 11)[:, None] * np.array([[3.0, 4.0]])
        start = np.array([0.0, 0.0])
        # path from (0,0) to (3,4): measure against chord start->(3,4)
        assert cli.chord_deviation(pts, start, np.array([3.0, 4.0])) <= 1e-12

    def test_detour_measured(self):
        start = np.array([2.0, 0.0])
        target = np.array([0.0, 0.0])
        pts = np.array([[2.0, 0.0], [1.0, 0.5], [0.0, 0.0]])
        np.testing.assert_allclose(
            cli.chord_deviation(pts, start, target), 0.25
        )

