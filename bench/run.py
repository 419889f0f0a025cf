"""Benchmark entry point: one workload, one seed, one measured window.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every invocation of the ``cbo`` CLI is a
fresh interpreter (``bench/child.py``), pinned to one CPU, with
``CBO_THREADS=2``.  One round is one CLI invocation followed by
``SETUP_PROBES`` set-up-only invocations (``--trace 0``), or one untraced
and one traced invocation (``--trace 1``).  On workloads that fan out, a
``--trace 1`` round also runs the CLI unpinned with ``CBO_THREADS=2`` and
then with ``CBO_THREADS=1``.  Rounds repeat until ``S`` seconds have
passed.  The outputs of the first invocation are checked against
properties of the method, and every later invocation must write the same
bytes.  The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``).  Exit code 1 means a check failed, 2 that the benchmark
could not run at all.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from workloads import WORKLOADS, CheckFailed

BENCH_DIR = Path(__file__).resolve().parent
SPEC = BENCH_DIR.parent / "BENCHMARK.json"
CHILD = BENCH_DIR / "child.py"
THREADS = "2"
SETUP_PROBES = 1
DEADLINE_S = 170  # every run ends within 180 s

class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a failed check)."""


class Invoker:
    """Starts ``child.py`` in the work directory and collects its result."""

    def __init__(self, work, cli_args, start):
        self.work, self.cli_args, self.start = work, cli_args, start
        self.out = work / "out"
        self.result = work / "result.json"

    def __call__(self, mode, threads=THREADS):
        if self.out.exists():
            shutil.rmtree(self.out)
        self.result.unlink(missing_ok=True)
        env = dict(os.environ, CBO_THREADS=threads)
        timeout = DEADLINE_S - (time.monotonic() - self.start)
        if timeout <= 0:
            raise BenchError(f"out of time before a {mode} invocation")
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(CHILD), repr(t0), mode, str(self.result), "--", *self.cli_args],
                cwd=self.work, env=env, capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired as err:
            raise BenchError(f"{mode} invocation timed out after {timeout:.0f} s") from err
        if not self.result.exists():
            raise BenchError(f"{mode} invocation wrote no result (exit {proc.returncode}):\n{proc.stderr}")
        res = json.loads(self.result.read_text())
        res["ok"] = proc.returncode == 0
        res["stderr"] = proc.stderr
        return res

    def digest(self):
        """sha256 of every output file, by path relative to the output dir."""
        files = sorted(p for p in self.out.rglob("*") if p.is_file())
        return {
            str(p.relative_to(self.out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in files
        }

    def output_bytes(self):
        return sum(p.stat().st_size for p in self.out.rglob("*") if p.is_file())


def _check(workload, out, wrong):
    try:
        workload.check(out)
    except CheckFailed as err:
        wrong.append(f"output check failed: {err}")


def measure(workload, seed, seconds, traced, declared):
    """Run rounds for ``seconds`` seconds; returns the list of wrong outputs,
    the invocations attempted and failed, and the ``declared`` metrics."""
    start = time.monotonic()
    work = BENCH_DIR / "_runs" / workload.name
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    invoke = Invoker(work, workload.prepare(work, seed), start)

    # warm-up: fails here, without a result, where the program is missing
    res = invoke("setup")
    if not res["ok"]:
        raise BenchError(f"set-up invocation failed:\n{res['stderr']}")

    wrong = []
    reference = None
    if workload.fans_out:
        res = invoke("run", threads="1")
        if not res["ok"]:
            raise BenchError(f"CBO_THREADS=1 invocation failed:\n{res['stderr']}")
        _check(workload, invoke.out, wrong)
        reference = invoke.digest()

    walls = defaultdict(list)  # (mode, CBO_THREADS) -> wall_s of each invocation
    setups, rss, layers, speedups = [], [], [], []
    attempted = failed = 0
    if not traced:
        rounds = [("run", THREADS)] + [("setup", THREADS)] * SETUP_PROBES
    else:
        rounds = [("run", THREADS), ("trace", THREADS)]
        if workload.fans_out:
            # on both CPUs, where the fan-out's gain or cost shows
            rounds += [("unpinned", THREADS), ("unpinned", "1")]
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        unpinned = {}
        for mode, threads in rounds:
            res = invoke(mode, threads)
            setups.append(res["setup_s"])
            if mode == "setup":
                continue
            attempted += 1
            if not res["ok"]:
                failed += 1
                print(f"{workload.name}: {mode} invocation exited {res.get('exit_code')}:\n"
                      f"{res['stderr']}", file=sys.stderr)
                continue
            digest = invoke.digest()
            if reference is None:
                _check(workload, invoke.out, wrong)
                reference = digest
            elif digest != reference:
                wrong.append(f"{mode} invocation (CBO_THREADS={threads}) wrote other bytes"
                             " than the reference")
            walls[mode, threads].append(res["wall_s"])
            if mode == "trace":
                layers.append(dict(res["layers"], **{"cli.output_bytes": invoke.output_bytes()}))
            elif mode == "run":
                rss.append(res["peak_rss_mb"])
            else:
                unpinned[threads] = res["wall_s"]
        if len(unpinned) == 2:
            speedups.append(unpinned["1"] / unpinned[THREADS])

    wall_samples = walls["run", THREADS]
    if not wall_samples or (traced and not layers):
        raise BenchError("no invocation succeeded")
    wall = statistics.median(wall_samples)
    if traced:
        values = {name: statistics.median(run[name] for run in layers) for name in layers[0]}
        values["trace.overhead"] = statistics.median(walls["trace", THREADS]) / wall - 1.0
        unpinned_walls = walls["unpinned", THREADS]
        values["parallel.unpinned_wall_s"] = (
            statistics.median(unpinned_walls) if unpinned_walls else 0.0)
        values["parallel.unpinned_speedup"] = statistics.median(speedups) if speedups else 0.0
    else:
        values = {
            "particle_steps_per_s": workload.particle_steps / wall,
            "wall_s": wall,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(rss),
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    return wrong, attempted, failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    workload = WORKLOADS[args.workload]
    declared = json.loads(SPEC.read_text())["per_layer" if args.trace else "end_to_end"]
    try:
        wrong, attempted, failed, metrics = measure(
            workload, args.seed, args.seconds, bool(args.trace), declared
        )
    except BenchError as err:
        print(f"{workload.name}: {err}", file=sys.stderr)
        return 2
    for msg in dict.fromkeys(wrong):
        print(f"{workload.name}: {msg}", file=sys.stderr)
    result = {"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
