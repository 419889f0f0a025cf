"""Steadiness check: run every workload on two sets of seeds and compare.

    python3 bench/steadiness.py

Run from the root of a checkout.  Each of two sets runs ``bench/run.py``
once per seed and per workload of ``BENCHMARK.json`` (``--trace 0``, the
run length from ``BENCHMARK.json``), seeds 0-9 for the first set and 10-19
for the second.  For every workload and end-to-end metric it prints each
set's median and quartiles, the spread (interquartile range over the
median), how much worse the second median is than the first, and whether
the spreads and the difference of the medians stay within the metric's
bound.  Every run's result is also written to
``bench/results/steadiness-<UTC time>.json``.
"""

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUNS = 10  # seeds per set
SETS = 2


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    results = {w: [[] for _ in range(SETS)] for w in workloads}
    for s in range(SETS):
        for i in range(RUNS):
            seed = s * RUNS + i
            for w in workloads:
                res = run_once(w, seed, bench["run_seconds"])
                results[w][s].append(dict(res, seed=seed))
                print(f"set {s + 1} seed {seed} {w}: " + ", ".join(
                    f"{k}={v['value']:.5g}" for k, v in res["metrics"].items()
                ), file=sys.stderr, flush=True)

    report = {}
    ok = True
    print(f"{'workload':24} {'metric':22} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12}"
          f" {'spread':>7} {'worse':>7} {'bound':>6} ok")
    for w in workloads:
        shares = {sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for runs in results[w]}
        if len(shares) > 1:
            ok = False
            print(f"{w}: failed shares differ between the sets: {sorted(shares)}")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            sets = [summary([r["metrics"][name]["value"] for r in runs]) for runs in results[w]]
            for s, st in enumerate(sets):
                worse = ""
                fine = st["spread"] <= bound
                if s == 1:
                    a, b = sets[0]["median"], st["median"]
                    delta = (b - a) / a if m["better"] == "lower" else (a - b) / a
                    worse = f"{delta:+.2%}"
                    fine = fine and abs(delta) <= bound
                ok = ok and fine
                print(f"{w:24} {name:22} {s + 1:>3} {st['median']:>12.6g} {st['q1']:>12.6g}"
                      f" {st['q3']:>12.6g} {st['spread']:>7.2%} {worse:>7} {bound:>6.2f}"
                      f" {'yes' if fine else 'NO'}")
            report.setdefault(w, {})[name] = sets

    out = BENCH_DIR / "results"
    out.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    path = out / f"steadiness-{stamp}.json"
    path.write_text(json.dumps({"summary": report, "runs": results}, indent=1))
    print(f"all within bounds: {'yes' if ok else 'NO'}; runs written to {path.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
