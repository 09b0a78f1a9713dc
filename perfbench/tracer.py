"""Per-layer tracing from outside the library: wrappers on each layer's entry points.

Modules import functions by name (`automata` binds `conditioned_paths`,
`sampler` binds `solve_completion_curve`, `cli` binds `xi_of_lambda`), so
installing a wrapper rebinds every attribute of every loaded `coupons`
module that refers to the wrapped function; uninstalling restores them.
The library itself is not changed.

Each wrapped entry point adds to three totals under its layer name:
calls, seconds inside, and self seconds (inside minus the time spent in
wrapped entry points it called).  The scalar hot paths `xi_of_lambda` and
`lambert_w0` are called tens of thousands of times per curve, so no
per-call record is kept for any entry point, only these totals.
"""

import collections
import functools
import inspect
import math
import sys
import time
import tracemalloc


def _ratio_table(tracer, bound, result):
    tracer.count["stirling.ratio_table.bytes"] += result.nbytes


def _auto_backend(tracer, bound, result):
    tracer.count["stirling.auto." + result.kind] += 1


def _paths(tracer, bound, result):
    tracer.count["sampler.paths.paths"] += result.shape[0]
    tracer.count["sampler.paths.bytes"] += result.nbytes  # trials * (N+1) * 4


def _rk4_steps(tracer, bound, result):
    # fixed-step RK4 from 1+nu down to a; the Richardson check re-solves at step/2
    args = bound.arguments
    span = 1.0 + args["nu"] - args["a"]
    steps = [args["step"], args["step"] / 2] if args["richardson_check"] else [args["step"]]
    tracer.count["curve.rk4_steps"] += sum(max(1, math.ceil(span / h - 1e-12))
                                           for h in steps)


# (layer name, module, attribute, hook run on the bound arguments and result)
ENTRY_POINTS = [
    ("specialfn.xi", "coupons.specialfn", "xi_of_lambda", None),
    ("specialfn.lambert_w0", "coupons.specialfn", "lambert_w0", None),
    ("stirling.exact", "coupons.stirling", "stirling_exact", None),
    ("stirling.exact", "coupons.stirling", "ExactBackend.ratio", None),
    ("stirling.ratio_table", "coupons.stirling", "ExactBackend.ratio_table", _ratio_table),
    ("stirling.ratio_table", "coupons.stirling", "LogDPBackend.ratio_table", _ratio_table),
    ("stirling.auto", "coupons.sampler", "auto_backend", _auto_backend),
    ("sampler.paths", "coupons.sampler", "conditioned_paths", _paths),
    ("sampler.sup_distance", "coupons.sampler", "sup_distances_of", None),
    ("curve.solve", "coupons.curve", "solve_completion_curve", _rk4_steps),
    ("automata.dyck", "coupons.automata", "estimate_accessibility", None),
    ("cli", "coupons.cli", "main", None),
]

# layer whose calls run under tracemalloc when the tracer is built with malloc=True
MALLOC_LAYER = "sampler.paths"


class Tracer:
    """Totals per layer while installed; `with tracer:` installs, exit restores."""

    def __init__(self, malloc=False):
        self.malloc = malloc
        self.malloc_peak = 0
        self.stats = collections.defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.count = collections.Counter()
        self._stack = []  # child seconds of each open span
        self._restore = []

    def reset(self):
        for st in self.stats.values():
            st[:] = [0, 0.0, 0.0]
        self.count.clear()

    def calls(self, layer):
        return self.stats[layer][0]

    def total(self, layer):
        return self.stats[layer][1]

    def self_s(self, layer):
        return self.stats[layer][2]

    def _wrap(self, layer, fn, hook):
        # the scalar layers are called ~1e5 times per iteration: keep this path lean
        stack = self._stack
        st = self.stats[layer]
        clock = time.perf_counter
        malloc = self.malloc and layer == MALLOC_LAYER
        sig = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if malloc:
                tracemalloc.start()
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                st[0] += 1
                st[1] += dt
                st[2] += dt - child
                if malloc:
                    self.malloc_peak = max(self.malloc_peak, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            if hook:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self, bound, result)
            return result

        return wrapper

    def __enter__(self):
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "coupons" or name.startswith("coupons."))]
        for layer, modname, attr, hook in ENTRY_POINTS:
            owner = sys.modules[modname]
            if "." in attr:  # a method: patch the class that defines it
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                targets = [owner]
            else:
                targets = modules
            original = vars(owner)[attr]
            wrapper = self._wrap(layer, original, hook)
            for target in targets:
                for name, value in list(vars(target).items()):
                    if value is original:
                        self._restore.append((target, name, value))
                        setattr(target, name, wrapper)
        return self

    def __exit__(self, *exc):
        while self._restore:
            target, name, value = self._restore.pop()
            setattr(target, name, value)
        return False
