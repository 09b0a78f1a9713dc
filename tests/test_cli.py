import argparse
import hashlib
import json
import math
import multiprocessing
import os
import re
import shlex
import shutil
import subprocess
import sys
import time
import tracemalloc

import jsonschema
import pytest

import coupons
from coupons.cli import build_parser, main
from coupons import (chi, curve, korshunov_constant, specialfn, stirling, stirling_exact,
                     transition_error)

SCHEMA_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "schemas")
PYPROJECT = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _schema(name):
    with open(os.path.join(SCHEMA_DIR, name)) as fh:
        return json.load(fh)


def run_out(argv, tmp_path, name):
    path = tmp_path / name
    rc = main(argv + ["--out", str(path)])
    return rc, path.read_text() if path.exists() else None


# --- curve -------------------------------------------------------------------

def test_curve_csv(tmp_path):
    rc, text = run_out(["curve", "--nu", "1", "--a", "0.2"], tmp_path, "c.csv")
    assert rc == 0
    lines = text.strip().split("\n")
    assert lines[0] == "x,y,lambda"
    assert lines[1] == "2,1,1"
    x, y, lam = (float(v) for v in lines[-1].split(","))
    assert abs(x - 0.2) < 1e-12 and abs(x / y - 1.0 - lam) < 1e-12
    # deterministic reruns
    rc2, text2 = run_out(["curve", "--nu", "1", "--a", "0.2"], tmp_path, "c2.csv")
    assert text2 == text


def test_curve_rejects_json():
    with pytest.raises(SystemExit) as exc:
        main(["curve", "--nu", "1", "--a", "0.2", "--format", "json"])
    assert exc.value.code == 2


def test_curve_bad_domain():
    assert main(["curve", "--nu", "-1", "--a", "0.2"]) == 2
    assert main(["curve", "--nu", "1", "--a", "3.0"]) == 2


def test_curve_streams_its_csv(tmp_path, monkeypatch):
    # 180,001 rows, 10.3 MB of CSV: formatting it whole into a buffer and
    # copying that out peaked at 14.5 MB above the solve; streamed, the
    # command holds one 4096-row block
    c = curve.solve_completion_curve(1.0, 0.2, step=1e-5)
    monkeypatch.setattr(curve, "solve_completion_curve", lambda *args, **kw: c)
    path = tmp_path / "c.csv"
    tracemalloc.start()
    try:
        rc = main(["curve", "--nu", "1", "--a", "0.2", "--step", "1e-5", "--out", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0 and path.stat().st_size > 10 ** 7
    assert peak < 2 ** 21, peak


def test_nonfinite_floats_are_usage_errors():
    for argv in (["curve", "--nu", "inf", "--a", "0.2"],
                 ["curve", "--nu", "1", "--a", "nan"],
                 ["curve", "--nu", "1", "--a", "0.2", "--step", "inf"],
                 ["stirling", "--verify", "--lams", "inf", "--ells", "10"],
                 ["stirling", "--verify", "--lams", "1,nan", "--ells", "10"],
                 ["ldp", "--nu", "inf"],
                 ["simulate", "--N", "40", "--n", "20", "--trials", "2", "--a", "nan"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv


# --- stirling ------------------------------------------------------------------

def test_stirling_value(tmp_path, capsys):
    assert main(["stirling", "7", "3"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[0] == "301"
    assert out[1].startswith("psi_log=") and out[2].startswith("chi=")
    assert out[3].startswith("l_chi=")
    chi = float(out[2].split("=")[1])
    assert abs(301.0 - math.exp(float(out[1].split("=")[1])) * (1.0 + chi)) < 1e-10


def test_stirling_value_large_lambda(capsys):
    # psi_log(5000, 2) needs saddle_params(2499), whose rho underflows to 0.0
    assert main(["stirling", "5000", "2"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[0] == str(stirling_exact(5000, 2))
    assert [line.split("=")[0] for line in out[1:]] == ["psi_log", "chi", "l_chi"]


def test_stirling_degenerate_has_no_diagnostics(capsys):
    assert main(["stirling", "5", "5"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out == ["1"]


def test_stirling_cap_and_override(capsys):
    assert main(["stirling", "5001", "2"]) == 4  # default cap 5000
    capsys.readouterr()
    assert main(["stirling", "100", "50", "--cap", "50"]) == 4  # lowered cap
    capsys.readouterr()
    assert main(["stirling", "100", "50"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert int(out[0]) == stirling_exact(100, 50)
    # the cap parameter itself allows raising past the default
    assert stirling_exact(5001, 2, cap=5100) == 2 ** 5000 - 1


def test_sampler_commands_cap_n_before_the_table(capsys, monkeypatch):
    # n = 6000 is above auto_backend's cap: exit 4, and no ratio table is built
    def no_table(self, N, n):
        raise AssertionError("ratio table built at n=%d" % n)

    monkeypatch.setattr(stirling.LogDPBackend, "ratio_table", no_table)
    for argv in (["korshunov", "--k", "2", "--n", "6000", "--trials", "10"],
                 ["simulate", "--N", "12001", "--n", "6000", "--trials", "10", "--a", "0.2"]):
        assert main(argv) == 4, argv
        cap = capsys.readouterr()
        assert (cap.out, cap.err) == ("", "numeric error: auto_backend: n=6000 exceeds "
                                          "cap 5000\n"), argv


def test_stirling_cap_message(capsys):
    # the single value and the verify grid stop at the same default cap
    want = "numeric error: stirling_exact: m=6000 exceeds cap 5000 (raise cap= explicitly)\n"
    for argv in (["stirling", "6000", "10"],
                 ["stirling", "--verify", "--lams", "2", "--ells", "2000"]):
        assert main(argv) == 4, argv
        cap = capsys.readouterr()
        assert (cap.out, cap.err) == ("", want), argv


def test_stirling_negative_cap_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["stirling", "5", "3", "--cap", "-1"])
    assert exc.value.code == 2
    assert "argument --cap: must be >= 0" in capsys.readouterr().err
    assert main(["stirling", "0", "0", "--cap", "0"]) == 0
    assert capsys.readouterr().out == "1\n"


# sha256 of stdout: the stirling cases measured at commit d3ff9c2 (before
# values and ratios shared one explicit-sum pass), the sampler cases at
# commit 1a22897 (before the simulate --backend flag went and rho, the Dyck
# test and the binomial frequency each got one route), which read the Exact
# table for n <= 300 and the LogDP table above; the LogDP table at every n
# gives the same bytes.  The curve cases at commit 1abdd76 (before
# the fast paths of the xi Newton loop, the CSV writer and the explicit
# sum).  A faster or simpler route must keep them.
STDOUT_SHA256 = {
    "stirling --verify":
        "a83db2fbfd077b203c5dc99f67d8359e7ea92eeaa06f63afcabfc34be3afbdc7",
    "stirling --verify --ells 50,100,200,400":
        "f2c334cdb4243d0d9872443ae9f21bae3d82bb022c56e75e2f3e3a46f658b767",
    "stirling 3000 1000":
        "c682eaba7233f5f210611296bbb4436c6500d7e53de9713668f167b8e409ba7d",
    "simulate --N 100 --n 50 --trials 40 --a 0.2 --seed 5":
        "c735e5a7d76301409c28301216b29daeb302b238d72b14684e447a65b6ac3178",
    "korshunov --k 2 --n 40 --trials 500 --seed 5":
        "bc23ba7ba7c025460f6a89f3b9420be72db4b12941f49397a9627adc9f66109b",
    "simulate --N 1000 --n 400 --trials 20 --a 0.2 --seed 5":
        "e1a153e3333efe57ae673bdc0b58e34bce6b99168e0212d1db8ac3d5629e9e9a",
    "korshunov --k 2 --n 400 --trials 300 --seed 5":
        "e6719c560addf3aed0ac0cb953efd6220277f705e60b3348d03ad5a0036b7c42",
    # the three criterion-12 curves of the bench's asymptotics workload
    "curve --nu 1 --a 0.2":
        "9a0bfd1fe453aa5e043176fe2b5f21b2ad4ee7f64c553735fd9bbc612ed244c2",
    "curve --nu 0.5 --a 0.1":
        "e227f47c94c2229c11bf58412fdf506e640254ee16b02ff89d43f15bda37628b",
    "curve --nu 3 --a 0.5":
        "8e74b5a1235e29c40f46f225198bb4211fcb9f5663e714ef3c664012241d81fb",
}


@pytest.mark.parametrize("argv", sorted(STDOUT_SHA256))
def test_stirling_stdout_digest(argv, capsys):
    assert main(argv.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[argv]


def test_verify_route_equals_chi_and_transition_error(monkeypatch):
    # one pass and one xi solve per grid point give the bits of the two
    # separate routes, on the default grid of `stirling --verify`
    grid = [(int(round((1.0 + lam) * l)), l)
            for lam in (0.5, 1.0, 2.0) for l in (50, 100, 200, 400, 800)]
    assert len(grid) == 15
    solves = []
    xi = specialfn.xi_of_lambda
    for m, l in grid:
        want = (chi(m, l), transition_error(m, l))
        with monkeypatch.context() as mp:
            mp.setattr(specialfn, "xi_of_lambda", lambda lam: solves.append(lam) or xi(lam))
            got = stirling._chi_and_transition_error(m, l)
        assert got == want, (m, l)
    assert solves == [(m - l) / l for m, l in grid]


def test_verify_above_cap_raises_the_cap_error(capsys):
    # the cap is checked before any saddle solve, which would fail or
    # overflow at such lambdas
    for lam in ("1e17", "1e110"):
        assert main(["stirling", "--verify", "--lams", lam, "--ells", "1"]) == 4
        assert "exceeds cap 5000" in capsys.readouterr().err, lam


def test_stirling_missing_args():
    assert main(["stirling"]) == 2
    assert main(["stirling", "7"]) == 2


def test_stirling_mixed_modes_are_usage_errors(capsys):
    # a value and the verify table take disjoint inputs: none is dropped silently
    for argv in (["stirling", "--verify", "5", "3"],
                 ["stirling", "--verify", "7"],
                 ["stirling", "5", "3", "--verify", "--cap", "1"],
                 ["stirling", "--verify", "--cap", "6000"],
                 ["stirling", "5", "3", "--lams", "1", "--ells", "10"],
                 ["stirling", "5", "3", "--ells", "10"]):
        assert main(argv) == 2, argv
        cap = capsys.readouterr()
        assert cap.out == "" and cap.err.startswith("error: stirling"), argv


def test_stirling_verify_grid_flags_are_checked_first(capsys, monkeypatch):
    # a bad grid value is a usage error naming its flag, raised before any solve
    monkeypatch.setattr(stirling, "_chi_and_transition_error", None)
    for argv, flag in ((["--ells", "0"], "--ells must be >= 1, got 0"),
                       (["--ells", "50,-5"], "--ells must be >= 1, got -5"),
                       (["--lams", "0"], "--lams must be > 0, got 0.0"),
                       (["--lams=1,-0.5", "--ells", "50"], "--lams must be > 0, got -0.5")):
        assert main(["stirling", "--verify"] + argv) == 2, argv
        cap = capsys.readouterr()
        assert (cap.out, cap.err) == ("", "error: stirling --verify: %s\n" % flag), argv


def test_stirling_verify_rejects_a_chain_no_longer_than_l(capsys, monkeypatch):
    # lam * l < 1/2 rounds m = (1 + lam) l back to l, where chi is undefined:
    # a usage error naming both flags, raised before any solve
    monkeypatch.setattr(stirling, "_chi_and_transition_error", None)
    assert main(["stirling", "--verify", "--lams", "1,0.001", "--ells", "50"]) == 2
    cap = capsys.readouterr()
    assert (cap.out, cap.err) == ("", "error: stirling --verify: --lams 0.001 with --ells 50 "
                                      "gives m = round((1 + lam) l) = 50, need m > l\n")


def test_stirling_verify_table(tmp_path):
    rc, text = run_out(["stirling", "--verify", "--lams", "1.0",
                        "--ells", "50,100"], tmp_path, "v.csv")
    assert rc == 0
    lines = text.strip().split("\n")
    assert lines[0] == "lam,ell,m,l_abs_chi,l_trans_err"
    assert len(lines) == 4 and lines[-1].startswith("# max")
    row50 = lines[1].split(",")
    assert row50[1] == "50" and row50[2] == "100"
    assert 0.0 < float(row50[3]) < 1.0


def test_empty_list_flags_are_usage_errors():
    for argv in (["stirling", "--verify", "--ells", ""],
                 ["stirling", "--verify", "--ells", ","],
                 ["stirling", "--verify", "--lams", ","],
                 ["stirling", "--verify", "--lams", ""],
                 ["stirling", "--verify", "--lams", "1,x"],
                 ["ldp", "--nu", "1", "--n", ""],
                 ["ldp", "--nu", "1", "--n", " , "]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv


# --- simulate --------------------------------------------------------------------

def test_simulate_schema_and_determinism(tmp_path):
    args = ["simulate", "--N", "60", "--n", "30", "--trials", "20",
            "--a", "0.2", "--seed", "7"]
    rc, text = run_out(args, tmp_path, "s1.json")
    assert rc == 0
    rec = json.loads(text)
    jsonschema.validate(rec, _schema("simulate-batch.schema.json"))
    assert rec["seed"] == 7 and len(rec["sup_distances"]) == 20
    rc2, text2 = run_out(args, tmp_path, "s2.json")
    assert text2 == text
    rc3, text3 = run_out(args[:-2] + ["--seed", "8"], tmp_path, "s3.json")
    assert text3 != text


def test_simulate_jobs_do_not_change_bytes(tmp_path):
    base = ["simulate", "--N", "80", "--n", "40", "--trials", "30", "--a", "0.2"]
    _, t1 = run_out(base + ["--jobs", "1"], tmp_path, "j1.json")
    _, t8 = run_out(base + ["--jobs", "8"], tmp_path, "j8.json")
    assert t1 == t8


def test_multi_span_jobs_do_not_change_bytes(capsys):
    # N = 2001 and 2000 give chunks of 1998 and 1999 rows, so these batches
    # have several spans and --jobs above 1 runs them in worker processes
    for base, jobs in ((["korshunov", "--k", "2", "--n", "1000", "--trials", "4100"],
                        ("1", "2", "3", "8")),
                       (["simulate", "--N", "2000", "--n", "1000", "--trials", "2100",
                         "--a", "0.2"], ("1", "2"))):
        outs = set()
        for j in jobs:
            assert main(base + ["--jobs", j]) == 0
            outs.add(capsys.readouterr().out)
            assert multiprocessing.active_children() == []
        assert len(outs) == 1, base[0]


def test_simulate_backend_choices():
    # the ratio table follows from n alone: simulate takes no --backend
    base = ["simulate", "--N", "40", "--n", "20", "--trials", "10", "--a", "0.2"]
    for value in ("auto", "exact", "logdp", "bogus"):
        with pytest.raises(SystemExit) as exc:
            main(base + ["--backend", value])
        assert exc.value.code == 2


def test_simulate_bad_parameters(capsys):
    assert main(["simulate", "--N", "5", "--n", "10", "--trials", "5",
                 "--a", "0.2"]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--N", "60", "--n", "30", "--trials", "5",
              "--a", "0.2", "--format", "csv"])
    assert exc.value.code == 2
    assert main(["simulate", "--N", "60", "--n", "30", "--trials", "5",
                 "--a", "0.2", "--seed", "-1"]) == 2
    assert "seed must be in [0, 2^64), got -1" in capsys.readouterr().err


def test_seed_of_two_to_the_64_exits_2(capsys):
    # the sampler's range check is the only one: the parser takes any int
    for argv in (["simulate", "--N", "60", "--n", "30", "--trials", "5", "--a", "0.2"],
                 ["korshunov", "--k", "2", "--n", "10", "--trials", "10"]):
        assert main(argv + ["--seed", str(2 ** 64)]) == 2, argv[0]
        assert "error: seed must be in [0, 2^64), got %d" % 2 ** 64 in capsys.readouterr().err


def test_jobs_below_one_is_usage_error():
    for argv in (["simulate", "--N", "40", "--n", "20", "--trials", "5", "--a", "0.2"],
                 ["korshunov", "--k", "2", "--n", "10", "--trials", "10"]):
        for jobs in ("0", "-3"):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--jobs", jobs])
            assert exc.value.code == 2, (argv[0], jobs)


# --- korshunov --------------------------------------------------------------------

def test_korshunov_schema(tmp_path):
    args = ["korshunov", "--k", "2", "--n", "25", "--trials", "400", "--seed", "3"]
    rc, text = run_out(args, tmp_path, "k.json")
    assert rc == 0
    rec = json.loads(text)
    jsonschema.validate(rec, _schema("korshunov-report.schema.json"))
    assert rec["korshunov"] == korshunov_constant(2)
    assert abs(rec["estimate"] - rec["korshunov"]) < 10.0 * rec["stderr"] + 0.05
    rc2, text2 = run_out(args, tmp_path, "k2.json")
    assert text2 == text


def test_korshunov_bad_parameters():
    assert main(["korshunov", "--k", "1", "--n", "25", "--trials", "10"]) == 2
    assert main(["korshunov", "--k", "2", "--n", "25", "--trials", "0"]) == 2


# --- ldp --------------------------------------------------------------------------

def test_ldp_table(tmp_path):
    rc, text = run_out(["ldp", "--nu", "1", "--n", "50,100"], tmp_path, "l.csv")
    assert rc == 0
    lines = text.strip().split("\n")
    assert lines[:2] == ["# format_version=1", "n,lnP_over_n,minus_J,gap"]
    r50 = [float(v) for v in lines[2].split(",")]
    r100 = [float(v) for v in lines[3].split(",")]
    assert r50[0] == 50 and r100[0] == 100
    assert r50[2] == r100[2] < 0.0
    assert r50[3] > r100[3] > 0.0        # gap shrinks with n
    assert r100[3] < 0.5 / 100.0         # O(log n / n) is already tiny here
    assert abs(r50[1] - math.log(math.factorial(50) * stirling_exact(100, 50)
                                 / 50 ** 100) / 50) < 1e-12


def test_ldp_bad_parameters():
    assert main(["ldp", "--nu", "0"]) == 2
    assert main(["ldp", "--nu", "1", "--n", "0"]) == 2


def test_ldp_caps_the_log_space_route(capsys):
    # N = 5000005 would run the forward law for minutes; 1e300 never ends
    for nu in ("1e6", "1e300"):
        assert main(["ldp", "--nu", nu, "--n", "5"]) == 4
        assert "exceeds cap 100000" in capsys.readouterr().err


def test_ldp_caps_the_band_size(capsys):
    # N = 10^5 and n = 50000 would roll 5e9 band entries; the cap answers before the roll
    t0 = time.perf_counter()
    assert main(["ldp", "--nu", "1", "--n", "50000"]) == 4
    assert time.perf_counter() - t0 < 1.0
    assert "exceeds cap 500000000" in capsys.readouterr().err


def test_ldp_rate_is_never_positive(capsys):
    # the log-space route's rounding once printed lnP_over_n = 7.2e-08 here
    assert main(["ldp", "--nu", "19999", "--n", "5"]) == 0
    assert float(capsys.readouterr().out.split("\n")[2].split(",")[1]) <= 0.0


def test_ldp_prints_an_underflowed_rate_as_zero(capsys):
    # J underflows to 0 at nu = 19999; minus_J once printed as -0
    assert main(["ldp", "--nu", "19999", "--n", "5"]) == 0
    assert capsys.readouterr().out.split("\n")[2] == "5,0,0,0"


# --- output plumbing ----------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["curve", "--nu", "1e308", "--a", "0.5"],
    ["curve", "--nu", "1", "--a", "0.2", "--step", "1e-308"],
    ["stirling", "--verify", "--lams", "1e308", "--ells", "10"],
    ["ldp", "--nu", "1e307", "--n", "50"],
])
def test_overflowing_finite_flags_exit_2(argv):
    # an infinite RK4 step count or chain length is a bad parameter, not a crash
    r = subprocess.run([sys.executable, "-m", "coupons", *argv],
                       capture_output=True, text=True)
    assert r.returncode == 2
    assert r.stderr.startswith("error: ") and "Traceback" not in r.stderr


def test_curve_caps_the_rk4_step_count():
    # 1e18 steps is a finite count, but np.empty for it once raised MemoryError (exit 1)
    r = subprocess.run([sys.executable, "-m", "coupons", "curve", "--nu", "1e15", "--a", "0.5"],
                       capture_output=True, text=True)
    assert r.returncode == 4
    assert "exceeds cap 10000000" in r.stderr and "Traceback" not in r.stderr


def test_output_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("COUPONS_OUTPUT_DIR", str(tmp_path))
    assert main(["stirling", "7", "3", "--out", "rel.txt"]) == 0
    assert (tmp_path / "rel.txt").read_text().startswith("301\n")
    # absolute paths bypass the env var
    other = tmp_path / "abs.txt"
    assert main(["stirling", "7", "3", "--out", str(other)]) == 0
    assert other.exists()


def test_io_error_exit_code(tmp_path):
    missing = tmp_path / "no" / "such" / "dir" / "f.csv"
    assert main(["stirling", "7", "3", "--out", str(missing)]) == 3


def test_usage_error_is_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


# --- installed entry points -----------------------------------------------------------

def test_module_entry_point():
    r = subprocess.run([sys.executable, "-m", "coupons", "stirling", "7", "3"],
                       capture_output=True, text=True)
    assert r.returncode == 0
    assert r.stdout.split("\n")[0] == "301"


def test_import_leaves_scipy_submodules_unloaded():
    # scipy is a test dependency only: neither the import nor the one
    # quadrature in the library (saddle_diagnostics) may load any of it
    code = ("import sys, coupons, coupons.cli; coupons.saddle_diagnostics(1.0, 400); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


# the whole CLI surface: a new option, or a removed one, is a deliberate edit here
SUBCOMMAND_OPTIONS = {
    "curve": ["-h", "--help", "--nu", "--a", "--step", "--out"],
    "stirling": ["-h", "--help", "--cap", "--verify", "--lams", "--ells", "--out"],
    "simulate": ["-h", "--help", "--N", "--n", "--trials", "--a", "--seed", "--jobs",
                 "--out"],
    "korshunov": ["-h", "--help", "--k", "--n", "--trials", "--seed", "--jobs", "--out"],
    "ldp": ["-h", "--help", "--nu", "--n", "--out"],
}


def test_public_surface():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    got = {name: [s for a in p._actions for s in a.option_strings]
           for name, p in sub.choices.items()}
    assert got == SUBCOMMAND_OPTIONS
    # every export is documented: a new one needs a README entry too
    with open(README) as fh:
        readme = fh.read()
    assert [name for name in coupons.__all__ if "`%s`" % name not in readme] == []


def test_readme_command_lines_parse():
    # every `coupons ...` line of the README's "Command line" block parses
    with open(README) as fh:
        readme = fh.read()
    start = readme.index("```sh\n", readme.index("## Command line")) + len("```sh\n")
    lines = readme[start:readme.index("```", start)].splitlines()
    assert len(lines) >= 6
    parser = build_parser()
    for line in lines:
        words = shlex.split(line, comments=True)
        assert words[0] == "coupons", line
        parser.parse_args(words[1:])


def _console_script_target():
    """The `module:attr` that pyproject.toml declares for the `coupons` command."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(PYPROJECT, "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    assert "coupons" in scripts, "pyproject.toml declares no `coupons` script"
    target = scripts["coupons"]
    assert re.fullmatch(r"[\w.]+:\w+", target), target
    return target.split(":")


def _run_console_script(module, attr, *args):
    """Run what a setuptools console-script wrapper for module:attr runs."""
    code = ("import sys; from %s import %s; sys.argv[0] = 'coupons'; "
            "sys.exit(%s())" % (module, attr, attr))
    return subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True)


def test_console_script():
    module, attr = _console_script_target()
    r = _run_console_script(module, attr, "ldp", "--nu", "1", "--n", "20")
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith("# format_version=1\nn,lnP_over_n,minus_J,gap")
    # the wrapper's sys.exit passes main's documented error code on
    r = _run_console_script(module, attr, "curve", "--nu", "-1", "--a", "0.2")
    assert r.returncode == 2, r.stderr


@pytest.mark.skipif(shutil.which("coupons") is None,
                    reason="coupons console script not on PATH; pip install -e .")
def test_installed_console_script():
    exe = shutil.which("coupons")
    r = subprocess.run([exe, "ldp", "--nu", "1", "--n", "20"],
                       capture_output=True, text=True)
    assert r.returncode == 0
    assert r.stdout.startswith("# format_version=1\nn,lnP_over_n,minus_J,gap")
