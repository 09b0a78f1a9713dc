"""Self-test of the benchmark: every workload at a tiny size, untraced and traced.

    python3 perfbench/selftest.py

Checks that the metric names and units in run.py are the ones
BENCHMARK.json declares, that every run prints each of them by name with
its unit, both in a report line and in the last-line JSON, that every
tiny run is correct, and that a corrupted reference digest counts as a
failed iteration.  Takes one to two minutes; exits 1 on any problem.
"""

import json
import os
import subprocess
import sys

import run


def check_run(workload, trace, expected):
    """Problems with one tiny run of run.py, as a list of messages."""
    argv = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
            "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=180)
    where = "%s --trace %d" % (workload, trace)
    if proc.returncode != 0:
        return ["%s: exit code %d\n%s" % (where, proc.returncode, proc.stderr[-2000:])]
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("%s: result keys %s" % (where, sorted(result)))
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append("%s: not a clean run: %s" % (where, lines[-1][:300]))
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        problems.append("%s: metrics %s, expected %s" % (where, got, expected))
    report = lines[:-1]
    for name, unit in sorted(expected.items()):
        if not any(line.split()[:1] == [name] and unit in line.split()[2:3] for line in report):
            problems.append("%s: no report line for %s in %s" % (where, name, unit))
    if not any(line.split()[:1] == ["fail_frac"] for line in report):
        problems.append("%s: no fail_frac line" % where)
    return problems


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    problems = []
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in bench[key]}
        if declared != table:
            problems.append("BENCHMARK.json %s %s differs from run.py %s"
                            % (key, declared, table))
    workloads = [w["name"] for w in bench["workloads"]]
    if workloads != list(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads %s, workloads.py %s"
                        % (workloads, list(run.WORKLOADS)))
    for workload in workloads:
        for trace, table in ((0, run.END_TO_END), (1, run.PER_LAYER)):
            found = check_run(workload, trace, table)
            print("%-11s trace %d: %s" % (workload, trace, "ok" if not found else "FAILED"))
            problems += found

    with open(run.DIGESTS) as fh:
        digests = json.load(fh)
    digests["tiny"]["asymptotics"] = "0" * 64
    for trace in (0, 1):
        _, result = run.measure("asymptotics", 1, 1, trace, tiny=True, digests=digests)
        ok = result["failed"] >= 1 and not result["correct"]
        print("corrupted digest, trace %d: %s" % (trace, "counted" if ok else "NOT COUNTED"))
        if not ok:
            problems.append("a corrupted digest was not counted as a failure (trace %d)" % trace)

    for p in problems:
        print("problem:", p)
    print("selftest: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
