"""Run the starfd command line in-process with a span around each layer call.

Usage, with the ``starfd`` package importable (for example
``PYTHONPATH=src``):

    python3 perfbench/trace_run.py SPANS.pkl run SPEC [--jobs J]

Everything after ``SPANS.pkl`` is passed to ``starfd.cli.main``. Before
that, each layer function in ``HOOKS`` is wrapped by rebinding its name in
the module that calls it, so the package itself is not edited. A span
records the layer, thread id, parent span on the same thread, wall-clock
start and end (``time.perf_counter``) and thread CPU start and end
(``time.thread_time``). Spans stay in memory and are pickled to
``SPANS.pkl`` when the command returns (pickle, because encoding tens of
thousands of spans as JSON would add a tenth of a second to the run). A
hook whose module or name no longer exists is skipped and listed under
``missing``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import pickle
import sys
import threading
import time

# (layer, module whose global name is rebound, name). A layer is traced
# wherever any of its bindings exists; the callers are listed so that every
# call into the layer from another module goes through a wrapper once.
HOOKS = (
    ("cli.parse_spec_text", "starfd.cli", "parse_spec_text"),
    ("cli.run_experiment", "starfd.cli", "run_experiment"),
    ("optimize.aligned_state", "starfd.cli", "aligned_state"),
    ("optimize.pgam", "starfd.cli", "pgam"),
    ("rates_mc.ergodic_rate_mc", "starfd.cli", "ergodic_rate_mc"),
    ("rates_cf.cf_rates", "starfd.cli", "cf_rates"),
    ("rates_cf.cf_sinrs", "starfd.optimize", "cf_sinrs"),
    ("rates_cf.cf_sinrs", "starfd.rates_cf", "cf_sinrs"),
    ("rates_cf.cf_rates_bidirectional", "starfd.optimize",
     "cf_rates_bidirectional"),
    ("rates_cf.cf_rates_bidirectional", "starfd.rates_cf",
     "cf_rates_bidirectional"),
    ("rates_cf.compute_moments", "starfd.rates_cf", "compute_moments"),
    ("channel.draw_realization", "starfd.rates_mc", "draw_realization"),
    ("geometry.expectations", "starfd.rates_cf", "exp_pathloss_center_disk"),
    ("geometry.expectations", "starfd.rates_cf", "exp_pathloss_edge_disk"),
    ("geometry.expectations", "starfd.rates_cf",
     "exp_pathloss_fixed_point_to_disk"),
    ("geometry.expectations", "starfd.rates_cf",
     "exp_pathloss_two_random_points"),
    ("specfun.integrate_adaptive", "starfd.geometry", "integrate_adaptive"),
)


def _argument(fn, name):
    """Read one named argument of a call to ``fn``, by signature."""
    signature = inspect.signature(fn)
    return lambda args, kwargs: signature.bind(*args, **kwargs).arguments[name]


def _info_for(layer, fn):
    """Per-call details a layer's metrics need beyond its timing."""
    if layer == "rates_mc.ergodic_rate_mc":
        trials = _argument(fn, "trials")
        return lambda args, kwargs, result: {"trials": trials(args, kwargs)}
    if layer == "optimize.pgam":
        init = _argument(fn, "init")
        return lambda args, kwargs, result: {
            "n_elements": init(args, kwargs).n_elements,
            "iterations": result.iterations,
            "objective": result.objective}
    return None


class Tracer:
    """Collects spans from every thread; ids come from one shared counter."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, layer, fn):
        info = _info_for(layer, fn)
        process_cpu = layer == "cli.run_experiment"
        spans, ids, local = self.spans, self._ids, self._local
        perf_counter, thread_time = time.perf_counter, time.thread_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            p0 = time.process_time() if process_cpu else 0.0
            c0 = thread_time()
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                c1 = thread_time()
                stack.pop()
            extra = info(args, kwargs, result) if info else None
            if process_cpu:
                extra = {"process_cpu": time.process_time() - p0}
            spans.append((span_id, layer, threading.get_ident(), parent,
                          t0, t1, c0, c1, extra))
            return result

        return traced

    def install(self, hooks=HOOKS):
        installed = set()
        for layer, module_name, name in hooks:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            fn = getattr(module, name, None)
            if fn is None:
                continue
            setattr(module, name, self.wrap(layer, fn))
            installed.add(layer)
        self.missing = sorted({layer for layer, _, _ in hooks} - installed)


def main(argv):
    if len(argv) < 2:
        print("usage: trace_run.py SPANS.pkl <starfd arguments>",
              file=sys.stderr)
        return 2
    tracer = Tracer()
    tracer.install()
    from starfd import cli

    try:
        code = cli.main(argv[1:])
    finally:
        with open(argv[0], "wb") as fh:
            pickle.dump({"spans": tracer.spans, "missing": tracer.missing},
                        fh, protocol=pickle.HIGHEST_PROTOCOL)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
