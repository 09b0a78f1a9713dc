"""The benchmark's reach into the library: names its tracer wraps and layer cases call.

`perfbench/tracer.py` wraps library entry points by module and attribute
name, and `perfbench/layers.py` calls library functions at fixed shapes.
A rename or a signature change there breaks `run.py --trace 1` and
`run.py --layers` without failing any other test, so both files are
loaded here by path (unchanged) and exercised at tiny shapes.  The
workloads' full-size output bytes are checked against
`perfbench/digests.json` here too, so a byte change fails a test before
it fails a bench run.
"""

import contextlib
import hashlib
import importlib
import importlib.util
import io
import json
import os

import pytest

import coupons.cli

BENCH_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        "perfbench_" + name, os.path.join(BENCH_DIR, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")
layers = _load("layers")
workloads = _load("workloads")


@pytest.mark.parametrize("layer, modname, attr",
                         [entry[:3] for entry in tracer.ENTRY_POINTS])
def test_entry_point_resolves(layer, modname, attr):
    owner = importlib.import_module(modname)
    if "." in attr:  # the tracer patches the class that defines the method
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
    assert callable(vars(owner)[attr]), (layer, modname, attr)


def test_tracer_counts_the_cli_workloads(tmp_path):
    runs = [  # curve: a step of 0.05 fails the CLI's closed-form check
        ["curve", "--nu", "1", "--a", "0.2", "--step", "0.01"],
        ["korshunov", "--k", "2", "--n", "20", "--trials", "50"],
        ["simulate", "--N", "40", "--n", "20", "--trials", "10", "--a", "0.2"],
        ["stirling", "--verify", "--ells", "10,20"],
    ]
    original = coupons.cli.main
    with tracer.Tracer() as tr:
        assert coupons.cli.main is not original
        for i, argv in enumerate(runs):
            assert coupons.cli.main(argv + ["--out", str(tmp_path / str(i))]) == 0
    assert coupons.cli.main is original
    assert tr.calls("cli") == len(runs)
    assert tr.count["curve.rk4_steps"] > 0
    assert tr.count["sampler.paths.paths"] > 0
    assert tr.count["stirling.ratio_table.bytes"] > 0


@pytest.mark.parametrize("name", sorted(layers.CASES))
def test_layer_case_runs_at_tiny_shape(name):
    assert layers.time_case(name, tiny=True) >= 0.0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_bytes_match_the_full_size_digest(name):
    # each call's stdout captured as perfbench/worker.py::run_iteration captures it
    with open(os.path.join(BENCH_DIR, "digests.json")) as f:
        want = json.load(f)["full"][name]
    outputs = []
    for argv in workloads.WORKLOADS[name]().calls(workloads.DEFAULT_SEED):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert coupons.cli.main(argv) == 0, argv
        outputs.append(buf.getvalue().encode())
    assert hashlib.sha256(b"".join(outputs)).hexdigest() == want
