"""One benchmark workload, one layer-alone case or one set-up probe, in a fresh process.

Started by run.py with PYTHONPATH pointing at the checkout's `src`.  It
imports `coupons.cli` before anything else and reports when that import
finished (time.monotonic, which is system-wide), so the parent can time
interpreter start to a ready `main`.  Everything else it measures goes to
stdout as one JSON object on the last line; the CLI's own output is
captured in memory and never reaches that stream.
"""

import time

import coupons.cli

IMPORTED_AT = time.monotonic()

import argparse  # noqa: E402  (after the timed import on purpose)
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys

import numpy as np
import scipy

import layers
from tracer import Tracer
from workloads import DEFAULT_SEED, WORKLOADS

PROBE_KERNELS = 5  # calibrate() runs in a set-up probe


class IterationFailed(Exception):
    pass


_RANDOM = np.random.default_rng(0).random(100_000)
_BUFFER = np.empty_like(_RANDOM)  # so the kernel allocates nothing, whatever the heap holds


def calibrate():
    """Seconds of a fixed reference kernel that uses no `coupons` code.

    It mixes the three kinds of work the library does: interpreted integer
    arithmetic, big-integer products and numpy array passes.  Timed after
    every iteration, it tracks the speed of the shared host, which drifts
    by tens of percent over seconds to minutes (see README.md).
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(150_000):
        acc += i * i % 7
    v = 1
    for i in range(1, 2_500):
        v = v * i + 1
    for _ in range(10):
        np.multiply(_RANDOM, 1.0000001, out=_BUFFER)
        _BUFFER.sort()
    return time.perf_counter() - t0


def reset_peak_rss():
    """Reset this process's RSS high-water mark (Linux clear_refs); False where it cannot."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
        return True
    except OSError:
        return False


def peak_rss_kb():
    """RSS high-water mark of this process since the last reset, in KiB."""
    with open("/proc/self/status") as fh:
        return next(int(ln.split()[1]) for ln in fh if ln.startswith("VmHWM:"))


def run_iteration(calls):
    """One `cli.main` call per argument list; returns (output bytes, seconds) per call."""
    outputs, seconds = [], []
    for argv in calls:
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = coupons.cli.main(argv)  # looked up each time: the tracer may wrap it
        except SystemExit as exc:  # argparse rejects bad flags by exiting
            rc = exc.code
        seconds.append(time.perf_counter() - t0)
        if rc != 0:
            raise IterationFailed("exit code %r from coupons %s" % (rc, " ".join(argv)))
        outputs.append(buf.getvalue().encode())
    return outputs, seconds


def digest(outputs):
    return hashlib.sha256(b"".join(outputs)).hexdigest()


class Run:
    """Counts attempted and failed iterations and keeps the first error of each kind."""

    def __init__(self, workload, seed, expect):
        self.workload = workload
        self.seed = seed
        self.expect = expect
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.first = None  # output bytes of the first good iteration at `seed`

    def fail(self, message):
        self.failed += 1
        if message not in self.errors:
            self.errors.append(message)

    def reference(self, tracer=None):
        """Untimed iteration at DEFAULT_SEED, checked against the recorded digest."""
        self.attempted += 1
        try:
            with tracer or contextlib.nullcontext():
                outputs, _ = run_iteration(self.workload.calls(DEFAULT_SEED))
        except IterationFailed as exc:
            return self.fail(str(exc))
        got = digest(outputs)
        if got != self.expect:
            return self.fail("digest %s at seed %d, expected %s"
                             % (got, DEFAULT_SEED, self.expect))
        err = self.workload.check(DEFAULT_SEED, outputs)
        if err:
            self.fail(err)

    def timed(self, tracer=None):
        """One iteration at `seed`: (seconds, output bytes, seconds per call), or None."""
        self.attempted += 1
        calls = self.workload.calls(self.seed)
        try:
            with tracer or contextlib.nullcontext():
                t0 = time.perf_counter()
                outputs, per_call = run_iteration(calls)
                dt = time.perf_counter() - t0
        except IterationFailed as exc:
            return self.fail(str(exc))
        if self.first is None:
            err = self.workload.check(self.seed, outputs)
            if err:
                return self.fail(err)
            self.first = outputs
        elif outputs != self.first:
            return self.fail("output bytes differ between iterations at seed %d" % self.seed)
        return dt, outputs, per_call

    def result(self, **extra):
        return dict(attempted=self.attempted, failed=self.failed, errors=self.errors,
                    units=self.workload.units(), unit=self.workload.unit, **extra)


def layer_values(tracer, out_bytes):
    """Per-layer metrics of one traced iteration."""
    paths_s = tracer.self_s("sampler.paths")
    return {
        "specialfn.xi.calls": tracer.calls("specialfn.xi"),
        "specialfn.xi.self_s": tracer.self_s("specialfn.xi"),
        "specialfn.lambert_w0.calls": tracer.calls("specialfn.lambert_w0"),
        "specialfn.lambert_w0.self_s": tracer.self_s("specialfn.lambert_w0"),
        "curve.solve.s": tracer.total("curve.solve"),
        "curve.rk4_steps": tracer.count["curve.rk4_steps"],
        "stirling.exact.calls": tracer.calls("stirling.exact"),
        "stirling.exact.self_s": tracer.self_s("stirling.exact"),
        "stirling.ratio_table.s": tracer.total("stirling.ratio_table"),
        "stirling.ratio_table.bytes": tracer.count["stirling.ratio_table.bytes"],
        "sampler.paths.s": paths_s,
        "sampler.paths.per_s": tracer.count["sampler.paths.paths"] / paths_s if paths_s else 0.0,
        "sampler.paths.bytes": tracer.count["sampler.paths.bytes"],
        "sampler.sup_distance.s": tracer.total("sampler.sup_distance"),
        "automata.dyck.self_s": tracer.self_s("automata.dyck"),
        "cli.self_s": tracer.self_s("cli"),
        "cli.out_bytes": out_bytes,
    }


def part_means(run, per_call):
    """[name, work units, unit, mean seconds per iteration] of each part of the workload."""
    sums = [[sum(times) for times in run.workload.split(run.seed, it)] for it in per_call]
    return [[part.name, part.units(), part.unit, statistics.fmean(col)]
            for part, col in zip(run.workload.parts, zip(*sums))]


def measure(run, seconds):
    """Untraced iterations for `seconds`, after the reference iteration.

    Each iteration is followed by one `calibrate()`, and each has its own
    peak RSS where the kernel lets the high-water mark be reset.
    """
    run.reference()
    walls, kernels, per_call, peaks = [], [], [], []
    start = time.monotonic()
    while time.monotonic() - start < seconds:
        resettable = reset_peak_rss()
        got = run.timed()
        if got and resettable:
            peaks.append(peak_rss_kb())
        kernel = calibrate()
        if got:
            walls.append(got[0])
            kernels.append(kernel)
            per_call.append(got[2])
    return run.result(walls=walls, kernels=kernels, iteration_peaks_kb=peaks,
                      parts=part_means(run, per_call) if per_call else [])


def measure_traced(run, seconds, tiny):
    """Traced and untraced iterations alternated for `seconds`, plus layer-alone cases."""
    start = time.monotonic()
    with_malloc = Tracer(malloc=True)
    run.reference(with_malloc)  # also proves tracing leaves the output bytes alone
    cases = {name + ".s": layers.time_case(name, tiny) for name in layers.CHEAP}
    tracer = Tracer()
    plain, traced, per_iter = [], [], []
    while (time.monotonic() - start < seconds
           or (min(len(plain), len(traced)) < 2 and not run.failed)):
        got = run.timed()
        if got:
            plain.append(got[0])
        tracer.reset()
        got = run.timed(tracer)
        if got:
            traced.append(got[0])
            per_iter.append(layer_values(tracer, sum(map(len, got[1]))))
    values = {}
    if per_iter:
        values = {key: statistics.median(v[key] for v in per_iter) for key in per_iter[0]}
    values["sampler.paths.peak_mb"] = with_malloc.malloc_peak / 2 ** 20
    if plain and traced:
        values["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1
    values.update(cases)
    backends = sorted(k[len("stirling.auto."):] for k in tracer.count
                      if k.startswith("stirling.auto."))
    return run.result(layers=values, backends=backends, traced=len(traced), plain=len(plain))


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--layer", choices=sorted(layers.CASES))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--expect", default="")
    p.add_argument("--probe", action="store_true",
                   help="only import, then time the calibration kernel a few times")
    args = p.parse_args()

    src = os.path.realpath(os.path.join(os.path.dirname(__file__), "..", "src"))
    if not os.path.realpath(coupons.cli.__file__).startswith(src + os.sep):
        sys.exit("worker: coupons imported from %s, not from %s" % (coupons.cli.__file__, src))

    if args.probe:
        result = {"kernels": [calibrate() for _ in range(PROBE_KERNELS)]}
    elif args.layer:
        result = {"seconds": layers.time_case(args.layer, args.tiny)}
    else:
        run = Run(WORKLOADS[args.workload](tiny=args.tiny), args.seed, args.expect)
        if args.trace:
            result = measure_traced(run, args.seconds, args.tiny)
        else:
            result = measure(run, args.seconds)
    result.update(
        imported_at=IMPORTED_AT,
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        numpy=np.__version__, scipy=scipy.__version__)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
