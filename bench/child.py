"""One workload invocation of the ``cbo`` CLI in a fresh interpreter.

    python3 bench/child.py <t0> <mode> <result.json> -- <cbo CLI arguments...>

``t0`` is the parent's ``time.monotonic()`` taken just before it started
this process; CLOCK_MONOTONIC is system-wide on Linux, so ``setup_s`` spans
interpreter start-up, ``import cbo.cli`` and parsing of the config.  ``mode``
is ``setup`` (stop after set-up), ``run`` (also run ``cli.main``), ``trace``
(run ``cli.main`` with the span tracer of ``tracing.py`` installed) or
``unpinned`` (run ``cli.main`` on every CPU the process may use).  The other
modes pin the process to one CPU.  The result is written as one JSON object
to ``result.json``.
"""

import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path


def main(argv):
    t0 = float(argv[0])
    mode, result_path = argv[1], Path(argv[2])
    if argv[3] != "--" or mode not in ("setup", "run", "trace", "unpinned"):
        raise SystemExit(f"usage: child.py T0 setup|run|trace|unpinned RESULT -- ARGS... (got {argv})")
    cli_args = argv[4:]

    # One CPU for the whole invocation: on a small shared host, CPU time the
    # hypervisor steals from either CPU spread two-CPU wall times by 20-40 %
    # between runs.  CBO_THREADS workers still start and share that CPU.
    if mode != "unpinned":
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from cbo import cli

    args = cli._build_parser().parse_args(cli_args)
    config = getattr(args, "config", None)
    if config is not None:
        raw = cli.load_config(config)
        if args.command == "run":
            cli.parse_run_config(raw)
    result = {"setup_s": time.monotonic() - t0}

    if mode != "setup":
        tracer = None
        if mode == "trace":
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
        start = time.perf_counter()
        try:
            code = cli.main(cli_args)
        except Exception:
            # a crash of the operation is counted as failed, not as a broken benchmark
            traceback.print_exc()
            code = 1
        result["wall_s"] = time.perf_counter() - start
        result["exit_code"] = code
        if tracer is not None:
            result["layers"] = tracer.layer_metrics()
            tracer.write_spans(result_path.with_name("spans.json"))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result_path.write_text(json.dumps(result))
    return result.get("exit_code", 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
