"""The coupons benchmark: one workload of `coupons.cli.main` calls per run.

    python3 perfbench/run.py --workload sampling --seed 7 --seconds 50 --trace 0
    python3 perfbench/run.py --seconds 50  # every workload in turn
    python3 perfbench/run.py --layers      # the ROADMAP baseline table, row by row

With --trace 0 a run prints the end-to-end metrics, with --trace 1 the
per-layer ones; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  The workload runs in a fresh
process (worker.py) on the `src` tree of the checkout that holds this
file; set-up time is measured from separate interpreter starts.  See
README.md in this directory for why each workload and metric exists.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import layers
from workloads import DEFAULT_SEED, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
DIGESTS = os.path.join(HERE, "digests.json")
SETUP_PROBES = 3  # interpreter starts besides the worker's own; setup_s is their median
# What worker.calibrate() takes, on average, on the 2-vCPU VM that set the sizes.  Every
# time metric is scaled to this host speed: raw seconds * REFERENCE_KERNEL_S / the
# calibrate() time measured next to them.
REFERENCE_KERNEL_S = 0.030
DEADLINE_S = 175.0  # a run must end within 180 s

END_TO_END = {
    "wall_s": "s",
    "wall_tail_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "specialfn.xi.calls": "count",
    "specialfn.xi.self_s": "s",
    "specialfn.lambert_w0.calls": "count",
    "specialfn.lambert_w0.self_s": "s",
    "curve.solve.s": "s",
    "curve.rk4_steps": "count",
    "stirling.exact.calls": "count",
    "stirling.exact.self_s": "s",
    "stirling.ratio_table.s": "s",
    "stirling.ratio_table.bytes": "B",
    "sampler.paths.s": "s",
    "sampler.paths.per_s": "1/s",
    "sampler.paths.bytes": "B",
    "sampler.paths.peak_mb": "MB",
    "sampler.sup_distance.s": "s",
    "automata.dyck.self_s": "s",
    "cli.self_s": "s",
    "cli.out_bytes": "B",
    "setup.import.total_s": "s",
    "setup.import.scipy_s": "s",
    "trace.overhead_frac": "frac",
}
PER_LAYER.update({name + ".s": "s" for name in layers.CHEAP})


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _child_env():
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))


def _spawn(argv, deadline):
    """Run a child interpreter to completion; returns (start monotonic, process)."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting %s" % " ".join(argv[:2]))
    t0 = time.monotonic()
    try:
        proc = subprocess.run([sys.executable] + argv, capture_output=True, text=True,
                              env=_child_env(), cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("%s did not finish within %.0f s" % (" ".join(argv[:2]), timeout))
    if proc.returncode != 0:
        raise BenchError("%s exited with code %d:\n%s"
                         % (" ".join(argv[:2]), proc.returncode, proc.stderr[-2000:]))
    return t0, proc


def setup_probes(deadline):
    """Interpreter start until `coupons.cli` is imported, once per probe process.

    Returns the seconds of each start and the calibration kernel times the
    probes took right after their import.
    """
    starts, kernels = [], []
    for _ in range(SETUP_PROBES):
        t0, proc = _spawn([WORKER, "--probe"], deadline)
        res = json.loads(proc.stdout.splitlines()[-1])
        starts.append(res["imported_at"] - t0)
        kernels += res["kernels"]
    return starts, kernels


def import_profile(deadline):
    """(total, scipy) seconds of `import coupons.cli` under -X importtime."""
    _, proc = _spawn(["-X", "importtime", "-c", "import coupons.cli"], deadline)
    total = scipy_us = 0
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, cumulative_us, name = line[len("import time:"):].split("|")
        if name.strip() == "scipy" or name.strip().startswith("scipy."):
            scipy_us += int(self_us)
        if name.rstrip() == " coupons.cli":  # top level: the whole import statement
            total = int(cumulative_us)
    return total / 1e6, scipy_us / 1e6


def provenance(worker, seed):
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10).stdout.split()
        sha = git[1] if len(git) == 2 and os.path.samefile(git[0], ROOT) else "none"
    except (OSError, subprocess.TimeoutExpired):
        sha = "none"
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": worker["numpy"],
            "scipy": worker["scipy"], "git": sha,
            "seeds": {"workload": seed, "reference": DEFAULT_SEED}}


def tail(samples):
    """(value, percentile, samples beyond) of the highest percentile with 10 beyond it."""
    s = sorted(samples)
    i = len(s) - 11 if len(s) >= 11 else len(s) - 1  # too few samples: the maximum
    return s[i], 100.0 * (i + 1) / len(s), len(s) - 1 - i


def _metric(metrics, name, value, unit_table, note=""):
    metrics[name] = {"value": value, "unit": unit_table[name]}
    return "  %-50s %-14.6g %-6s %s" % (name, value, unit_table[name], note)


def measure(workload, seed, seconds, trace, tiny=False, digests=None):
    """Run one workload; returns (report lines, result object)."""
    deadline = time.monotonic() + DEADLINE_S
    if digests is None:
        with open(DIGESTS) as fh:
            digests = json.load(fh)
    expect = digests["tiny" if tiny else "full"][workload]
    lines = ["workload %s  seed %d  seconds %g  trace %d%s"
             % (workload, seed, seconds, trace, "  (tiny)" if tiny else "")]
    if not trace:
        setups, setup_kernels = setup_probes(deadline)
    else:
        import_total, import_scipy = import_profile(deadline)
    argv = [WORKER, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), "--expect", expect]
    t0, proc = _spawn(argv + (["--tiny"] if tiny else []), deadline)
    sys.stderr.write(proc.stderr)
    res = json.loads(proc.stdout.splitlines()[-1])
    metrics = {}
    if not trace:
        setups.append(res["imported_at"] - t0)
        walls = res["walls"]
        if walls:
            # each iteration scaled by the kernel timed right after it
            scaled = [w * REFERENCE_KERNEL_S / k for w, k in zip(walls, res["kernels"])]
            speed = REFERENCE_KERNEL_S / statistics.fmean(res["kernels"])
            lines.append("  host speed %.6g: calibration kernel %.6g s, mean of %d, against %g s"
                         % (speed, REFERENCE_KERNEL_S / speed, len(walls), REFERENCE_KERNEL_S))
            wall = statistics.median(scaled)
            value, pct, beyond = tail(scaled)
            lines.append(_metric(metrics, "wall_s", wall, END_TO_END,
                                 "median of %d scaled iterations; raw median %.6g s"
                                 % (len(walls), statistics.median(walls))))
            lines.append(_metric(metrics, "wall_tail_s", value, END_TO_END,
                                 "p%.0f of %d scaled iterations, %d beyond it"
                                 % (pct, len(walls), beyond)))
            lines.append(_metric(metrics, "work_per_s", res["units"] / wall, END_TO_END,
                                 "%d %s per iteration" % (res["units"], res["unit"])))
            for name, units, unit, seconds in res["parts"]:
                seconds *= speed
                lines.append("  part %-10s mean %.4g s per iteration (scaled), %d %s, %.6g %s/s"
                             % (name, seconds, units, unit, units / seconds, unit))
        peaks = res["iteration_peaks_kb"]
        if peaks:
            lines.append(_metric(metrics, "peak_rss_mb", statistics.median(peaks) / 1024,
                                 END_TO_END, "median of %d per-iteration RSS high-water marks;"
                                 " whole process %.6g MB" % (len(peaks),
                                                             res["peak_rss_kb"] / 1024)))
        else:  # the high-water mark cannot be reset here: the whole process
            lines.append(_metric(metrics, "peak_rss_mb", res["peak_rss_kb"] / 1024,
                                 END_TO_END, "ru_maxrss of the workload process"))
        # scaled by the kernels the probes ran, near the starts in time
        setup_speed = REFERENCE_KERNEL_S / statistics.fmean(setup_kernels)
        lines.append(_metric(metrics, "setup_s", statistics.median(setups) * setup_speed,
                             END_TO_END, "median of %d interpreter starts; raw %.6g s,"
                             " host speed %.6g" % (len(setups), statistics.median(setups),
                                                   setup_speed)))
    else:
        values = dict(res["layers"], **{"setup.import.total_s": import_total,
                                        "setup.import.scipy_s": import_scipy})
        for name in PER_LAYER:
            if name in values:
                lines.append(_metric(metrics, name, values[name], PER_LAYER))
        lines.append("  auto_backend picked: %s; %d traced and %d untraced iterations"
                     % (", ".join(res["backends"]) or "none", res["traced"], res["plain"]))
    lines.append("  fail_frac %.6g (%d of %d iterations failed)"
                 % (res["failed"] / res["attempted"], res["failed"], res["attempted"]))
    lines += ["  error: " + e for e in res["errors"]]
    lines.append("provenance " + json.dumps(provenance(res, seed), sort_keys=True))
    correct = res["failed"] == 0 and len(metrics) == len(PER_LAYER if trace else END_TO_END)
    return lines, {"correct": correct, "attempted": res["attempted"],
                   "failed": res["failed"], "metrics": metrics}


def measure_all(seed, seconds, trace, tiny=False):
    """Every workload in turn; metric names in the combined result get a workload prefix."""
    lines, total = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        wl_lines, result = measure(workload, seed, seconds, trace, tiny)
        lines += wl_lines
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({workload + "." + name: m
                                 for name, m in result["metrics"].items()})
    return lines, total


def measure_layers(tiny=False):
    """Each ROADMAP baseline row once, in its own process: seconds and peak RSS."""
    deadline = time.monotonic() + 3600.0
    lines, metrics = ["layer-alone cases at the ROADMAP baseline shapes"], {}
    for name in layers.CASES:
        _, proc = _spawn([WORKER, "--layer", name] + (["--tiny"] if tiny else []), deadline)
        res = json.loads(proc.stdout.splitlines()[-1])
        units = {name + ".s": "s", name + ".peak_rss_mb": "MB"}
        lines.append(_metric(metrics, name + ".s", res["seconds"], units))
        lines.append(_metric(metrics, name + ".peak_rss_mb", res["peak_rss_kb"] / 1024, units))
    lines.append("provenance " + json.dumps(provenance(res, DEFAULT_SEED), sort_keys=True))
    return lines, {"correct": True, "attempted": len(layers.CASES), "failed": 0,
                   "metrics": metrics}


def _seed(text):
    seed = int(text)
    if not 0 <= seed < 1 << 64:
        raise argparse.ArgumentTypeError("seed must fit in 64 bits")
    return seed


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=list(WORKLOADS),
                   help="the workload to run; all of them in turn when omitted")
    p.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--layers", action="store_true",
                   help="time every ROADMAP baseline row alone, each in a fresh process")
    p.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)  # self-test sizes
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "coupons", "cli.py")):
        sys.stderr.write("run.py: no coupons source tree at %s\n" % SRC)
        return 2
    try:
        if args.layers:
            lines, result = measure_layers(args.tiny)
        elif args.workload:
            lines, result = measure(args.workload, args.seed, args.seconds, args.trace,
                                    args.tiny)
        else:
            lines, result = measure_all(args.seed, args.seconds, args.trace, args.tiny)
    except BenchError as exc:
        sys.stderr.write("run.py: %s\n" % exc)
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
