"""Span tracer for one traced CLI invocation.

The tracer wraps, from outside the package, the public functions of the
``cbo`` modules that make up the layers below and rebinds every reference
to them in the loaded ``cbo`` modules.  Each call becomes a ``Span``, kept
in memory and written out when the invocation ends.  A span holds its wall
interval and the CPU time its own thread spent in it; ``n`` is a weight
that ``mfa.coupled_error`` spans carry (replications).  The per-layer
seconds are CPU seconds: on a CPU that worker threads share, a wall
interval also counts the time a thread waits while the others run.
Three spots need more than a plain wrapper:

* ``objectives``: objective factories return an ``ObjectiveSpec`` whose
  ``eval`` is a closure, so the returned spec gets a traced ``eval``.
* ``_parallel.thread_map``: each item runs in a span whose parent is the
  ``thread_map`` span of the calling thread, across threads.
* ``cli``: the presets write CSV inline, so ``open`` for writing is shadowed
  in the ``cli`` namespace by a span that lasts until the file is closed.
"""

import builtins
import dataclasses
import functools
import inspect
import itertools
import json
import sys
import threading
from collections import defaultdict, namedtuple
from time import perf_counter, thread_time

# layer name -> module under ``cbo``
LAYERS = {
    "objectives": "objectives",
    "engine": "engine",
    "metrics": "metrics",
    "cli": "cli",
    "mfa": "mfa",
    "parallel": "_parallel",
}
PARSE_SPANS = ("cli.load_config", "cli.parse_")
WRITE_SPANS = ("cli.write_metrics_csv", "cli.write_summary", "cli.open")

# start/end: perf_counter wall clock; cpu: thread CPU seconds inside the span
Span = namedtuple("Span", "id name start end cpu thread parent n")


def _public_functions(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj


class _TracedFile:
    """Context manager around a file opened for writing; the span ends when
    the file is closed."""

    def __init__(self, tracer, fh, sid, parent):
        self._tracer, self._fh = tracer, fh
        self._sid, self._parent = sid, parent
        self._start, self._cpu = perf_counter(), thread_time()

    def __enter__(self):
        return self._fh.__enter__()

    def __exit__(self, *exc):
        try:
            return self._fh.__exit__(*exc)
        finally:
            self._tracer.spans.append(Span(
                self._sid, "cli.open", self._start, perf_counter(),
                thread_time() - self._cpu, threading.get_ident(), self._parent, 0,
            ))


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()

    # -- recording -------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name, parent, fn, args, kwargs, weight=None):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        sid = next(self._ids)
        stack.append(sid)
        start, cpu = perf_counter(), thread_time()
        try:
            result = fn(*args, **kwargs)
        finally:
            end, cpu = perf_counter(), thread_time() - cpu
            stack.pop()
        n = weight(result) if weight is not None else 0
        self.spans.append(Span(sid, name, start, end, cpu, threading.get_ident(), parent, n))
        return result

    def wrap(self, name, fn, weight=None, post=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self._call(name, None, fn, args, kwargs, weight)
            return post(result) if post is not None else result

        return traced

    def _trace_objective(self, spec):
        if isinstance(spec, self._spec_type):
            return dataclasses.replace(spec, eval=self.wrap("objectives.eval", spec.eval))
        return spec

    def _thread_map(self, original):
        def map_items(fn, items):
            parent = self._stack()[-1]

            def item(x):
                return self._call("parallel.item", parent, fn, (x,), {})

            return original(item, items)

        return self.wrap("parallel.thread_map", map_items)

    def _open(self, *args, **kwargs):
        fh = builtins.open(*args, **kwargs)
        mode = args[1] if len(args) > 1 else kwargs.get("mode", "r")
        if not any(c in mode for c in "wax"):
            return fh
        stack = self._stack()
        return _TracedFile(self, fh, next(self._ids), stack[-1] if stack else None)

    def install(self):
        """Wrap every layer's public functions and rebind each reference to
        them inside the loaded ``cbo`` modules."""
        modules = {layer: sys.modules[f"cbo.{mod}"] for layer, mod in LAYERS.items()}
        self._spec_type = modules["objectives"].ObjectiveSpec
        replacements = {}
        for layer, module in modules.items():
            for name, fn in _public_functions(module):
                if layer == "parallel" and name == "thread_map":
                    traced = self._thread_map(fn)
                elif layer == "objectives":
                    traced = self.wrap(f"objectives.{name}", fn, post=self._trace_objective)
                elif layer == "mfa" and name == "coupled_error":
                    traced = self.wrap("mfa.coupled_error", fn, weight=lambda run: len(run.seeds))
                else:
                    traced = self.wrap(f"{layer}.{name}", fn)
                replacements[id(fn)] = traced
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "cbo" or mod_name.startswith("cbo."):
                for attr, value in list(vars(module).items()):
                    if id(value) in replacements:
                        setattr(module, attr, replacements[id(value)])
        noise = modules["engine"].NoiseSource
        noise.increments = self.wrap("engine.noise", noise.increments)
        modules["cli"].open = self._open

    # -- reduction -------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": Span._fields, "spans": self.spans}, fh)

    def layer_metrics(self):
        """Per-layer counts and CPU times from the recorded spans."""
        spans = {s.id: s for s in self.spans}
        children = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append(s)

        # self CPU: the span's own thread, less its children on that thread;
        # inclusive CPU: self CPU summed over the span and its descendants on
        # every thread.  A span is recorded after all of its children.
        selfs, incl = {}, {}
        for s in self.spans:
            kids = children[s.id]
            selfs[s.id] = s.cpu - sum(c.cpu for c in kids if c.thread == s.thread)
            incl[s.id] = selfs[s.id] + sum(incl[c.id] for c in kids)

        def ancestors(s):
            while s.parent is not None:
                s = spans[s.parent]
                yield s

        def outermost(prefixes):
            # spans in the group whose ancestors hold no other span of the group
            return [
                s for s in self.spans
                if s.name.startswith(prefixes)
                and not any(a.name.startswith(prefixes) for a in ancestors(s))
            ]

        named = defaultdict(list)
        layer_self = defaultdict(float)
        for s in self.spans:
            named[s.name].append(s)
            layer_self[s.name.split(".")[0]] += selfs[s.id]

        def count(name):
            return len(named[name])

        def cpu(spans_):
            return sum(incl[s.id] for s in spans_)

        items = named["parallel.item"]
        inner = {a.id for s in items for a in ancestors(s) if a.name == "parallel.item"}
        leaves = [s for s in items if s.id not in inner]
        events = sorted([(s.start, 1) for s in leaves] + [(s.end, -1) for s in leaves])
        peak = active = 0
        for _, delta in events:
            active += delta
            peak = max(peak, active)
        busy = cpu(leaves)
        map_wall = sum(s.end - s.start for s in outermost(("parallel.thread_map",)))

        evals = count("objectives.eval")
        states = count("engine.cbo_step") + count("engine.sample_initial")
        return {
            "objectives.eval_calls": evals,
            "objectives.evals_per_state": evals / states if states else 0.0,
            "objectives.eval_s": cpu(named["objectives.eval"]),
            "objectives.self_s": layer_self["objectives"],
            "engine.step_calls": count("engine.cbo_step"),
            "engine.step_self_s": sum(selfs[s.id] for s in named["engine.cbo_step"]),
            "engine.noise_calls": count("engine.noise"),
            "engine.noise_s": cpu(named["engine.noise"]),
            "engine.consensus_calls": count("engine.consensus_point"),
            "engine.consensus_s": cpu(named["engine.consensus_point"]),
            "engine.init_s": cpu(named["engine.sample_initial"]),
            "engine.self_s": layer_self["engine"],
            "metrics.calls": sum(len(v) for k, v in named.items() if k.startswith("metrics.")),
            "metrics.snapshot_s": cpu(outermost(("metrics.",))),
            "cli.parse_s": cpu(outermost(PARSE_SPANS)),
            "cli.write_s": cpu(outermost(WRITE_SPANS)),
            "cli.self_s": layer_self["cli"],
            "mfa.reference_s": cpu(named["mfa.reference_consensus_trajectory"]),
            "mfa.coupled_s": cpu(named["mfa.coupled_error"]),
            "mfa.replications": sum(s.n for s in named["mfa.coupled_error"]),
            "mfa.self_s": layer_self["mfa"],
            "parallel.items": len(items),
            "parallel.workers_peak": peak,
            "parallel.busy_s": busy,
            "parallel.efficiency": busy / (map_wall * peak) if peak else 0.0,
            "parallel.self_s": layer_self["parallel"],
            "trace.spans": len(self.spans),
        }
