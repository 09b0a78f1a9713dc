"""End-to-end acceptance checks, one test per shipped guarantee.

Each test states its tolerance inline and asserts its runtime budget;
the terminal summary prints one PASS/FAIL line per criterion.
"""

import json
import math
import statistics
import subprocess
import sys
import time

import numpy as np
import scipy.stats

from coupons import (ExactBackend, chi, conditioned_paths, envelope,
                     estimate_accessibility, exact_accessible_count, g_theta,
                     korshunov_constant, psi_log_forms,
                     rate_j, saddle_params, simulate_walk_max,
                     solve_completion_curve, stirling_exact,
                     sup_distance_batch, surjection_log_probability, tail_h,
                     transition_error, xi_of_lambda)
from coupons.cli import main as cli_main

from oracles import (enumerate_surjective_paths, fd_derivatives_123_4,
                     pollaczek_crossing, set_partition_count, xi_bisect)

CRITERIA = {
    1: "stirling_exact matches set-partition enumeration for all m <= 10",
    2: "psi two-form identity agrees to 1e-9 on a 200-point grid",
    3: "l*|chi| bounded by 4x grid median; |chi| shrinks from l=50 to l=800",
    4: "l*|r-rho| bounded by 4x grid median; same grid",
    5: "conditioned sampler matches exact path law at (7,3), 1e6 samples",
    6: "median sup-distance shrinks from n=500 to n=2000 and stays < 0.1",
    7: "korshunov constant: closed form, bisection, exact count, Monte Carlo",
    8: "Pollaczek route equals the constant; walk simulation within 4 sigma",
    9: "large-deviation gap |ln(P)/n + J| <= 10/n and shrinks monotonically",
    10: "modulus bound |g| <= exp(-h(xi) theta^2) on a 1e4-point grid",
    11: "finite differences of g at 0 match -2v, 6*tau, 24*gamma to 1e-5",
    12: "solved curves stay inside the envelope; Richardson deviation < 1e-8",
    13: "CLI output is byte-identical across reruns and under --jobs 8",
}


def test_criterion_01():
    t0 = time.monotonic()
    for m in range(11):
        for l in range(m + 2):
            assert stirling_exact(m, l) == set_partition_count(m, l)
    assert time.monotonic() - t0 < 1.0


def test_criterion_02():
    t0 = time.monotonic()
    lams = np.linspace(0.2, 5.0, 20)
    ells = np.unique(np.geomspace(10, 2000, 10).astype(int))
    pts = 0
    for lam in lams:
        for l in ells:
            m = int(round((1.0 + lam) * l))
            a, b = psi_log_forms(m, l)
            assert abs(a - b) <= 1e-9
            pts += 1
    assert pts == 200
    assert time.monotonic() - t0 < 5.0


def test_criterion_03():
    t0 = time.monotonic()
    ells = (50, 100, 200, 400, 800)
    grid = {}
    for lam in (0.5, 1.0, 2.0):
        for l in ells:
            m = int(round((1.0 + lam) * l))
            grid[(lam, l)] = chi(m, l)
    scaled = [l * abs(c) for (_, l), c in grid.items()]
    assert max(scaled) <= 4.0 * statistics.median(scaled)
    for lam in (0.5, 1.0, 2.0):
        assert abs(grid[(lam, 800)]) < abs(grid[(lam, 50)])
    assert time.monotonic() - t0 < 30.0


def test_criterion_04():
    t0 = time.monotonic()
    ells = (50, 100, 200, 400, 800)
    grid = {}
    for lam in (0.5, 1.0, 2.0):
        for l in ells:
            m = int(round((1.0 + lam) * l))
            grid[(lam, l)] = transition_error(m, l)
    scaled = [l * e for (_, l), e in grid.items()]
    assert max(scaled) <= 4.0 * statistics.median(scaled)
    for lam in (0.5, 1.0, 2.0):
        assert grid[(lam, 800)] < grid[(lam, 50)]
    assert time.monotonic() - t0 < 30.0


def test_criterion_05():
    t0 = time.monotonic()
    # ground truth by enumerating all 3^7 = 2187 words at (N,n) = (7,3):
    # 1806 = 3! * {7 3} = 6 * 301 survive the surjectivity filter.  The
    # count 540 = 3! * 90 is the same object one column earlier, at N=6.
    cnt, total = enumerate_surjective_paths(7, 3)
    assert 3 ** 7 == 2187
    assert total == 1806 == math.factorial(3) * stirling_exact(7, 3)
    cnt6, total6 = enumerate_surjective_paths(6, 3)
    assert total6 == 540 == math.factorial(3) * stirling_exact(6, 3) == 6 * 90

    N, n, trials = 7, 3, 1000000
    Z = conditioned_paths(N, n, trials, backend=ExactBackend(), seed=11)
    dec = (Z[:, 1:] < Z[:, :-1]).astype(np.int64)
    ids = dec @ (1 << np.arange(N, dtype=np.int64))
    obs_all = np.bincount(ids, minlength=1 << N)

    exp = np.zeros(1 << N)
    for path, c in cnt.items():
        y = (0,) + path
        patt = 0
        for t in range(N):
            if y[N - t - 1] < y[N - t]:
                patt |= 1 << t
        exp[patt] = c / total * trials
    live = exp > 0
    assert int(obs_all[~live].sum()) == 0  # sampler never leaves the support
    stat = float((((obs_all[live] - exp[live]) ** 2) / exp[live]).sum())
    p = float(scipy.stats.chi2.sf(stat, int(live.sum()) - 1))
    assert p > 0.001
    assert time.monotonic() - t0 < 60.0


def test_criterion_06():
    t0 = time.monotonic()
    med = {}
    for n in (500, 2000):
        rec = sup_distance_batch(2 * n, n, 200, 0.2, seed=1)
        med[n] = rec["quantiles"]["q50"]
    assert med[2000] < med[500]
    assert med[500] < 0.1 and med[2000] < 0.1
    assert time.monotonic() - t0 < 120.0


def test_criterion_07():
    t0 = time.monotonic()
    xi = xi_bisect(1.0)
    assert abs(xi - 2.0 * (1.0 - math.exp(-xi))) < 1e-12
    want = 1.0 - 2.0 * math.exp(-xi)
    assert abs(korshunov_constant(2) - want) <= 1e-13

    est, se = estimate_accessibility(2, 1000, 100000, seed=3)
    assert abs(est - korshunov_constant(2)) <= 3.0 * se + 0.01
    acc, surj = exact_accessible_count(2, 1000)  # the exact P_1000
    assert abs(est - acc / surj) <= 3.0 * se

    acc, surj = exact_accessible_count(2, 3)
    ref = acc / surj
    est3, se3 = estimate_accessibility(2, 3, 100000, seed=21)
    assert abs(est3 - ref) <= 4.0 * se3
    assert time.monotonic() - t0 < 180.0


def test_criterion_08():
    t0 = time.monotonic()
    for k in range(2, 11):
        _, nc = pollaczek_crossing(k)
        assert abs(nc - korshunov_constant(k)) <= 1e-12
    pi0, _ = pollaczek_crossing(2)
    est, se = simulate_walk_max(2, 1000000, horizon=500, seed=2)
    assert abs(est - pi0) <= 4.0 * se
    assert time.monotonic() - t0 < 60.0


def test_criterion_09():
    t0 = time.monotonic()
    j = rate_j(xi_of_lambda(1.0))
    gaps = []
    # up to n = 10^5, ln P's cap: a route that loses digits as n grows shows
    # as a gap that stops falling (n gap is about 0.26 throughout)
    for n in (50, 100, 200, 1000, 2000, 5000, 10 ** 4, 2 * 10 ** 4, 5 * 10 ** 4, 10 ** 5):
        lnp = surjection_log_probability(2 * n, n)
        gap = abs(lnp / n + j)
        assert gap <= 10.0 / n
        gaps.append(gap)
    assert all(a > b for a, b in zip(gaps, gaps[1:])), gaps
    assert time.monotonic() - t0 < 10.0


def test_criterion_10():
    t0 = time.monotonic()
    lams = np.linspace(0.2, 5.0, 100)
    thetas = np.linspace(-math.pi, math.pi, 100)
    worst = -1.0
    for lam in lams:
        bound = np.exp(-tail_h(xi_of_lambda(lam)) * thetas ** 2)
        excess = np.abs(g_theta(lam, thetas)) - bound
        worst = max(worst, float(excess.max()))
    assert worst <= 1e-12
    assert time.monotonic() - t0 < 5.0


def test_criterion_11():
    t0 = time.monotonic()
    for lam in (0.5, 1.0, 2.0):
        p = saddle_params(lam)
        d2, d3, d4 = fd_derivatives_123_4(lambda th: g_theta(lam, th))
        assert abs(d2 - (-2.0 * p.v)) <= 1e-5 * abs(2.0 * p.v)
        assert abs(d3 - 6.0j * p.tau) <= 1e-5 * abs(6.0 * p.tau)
        assert abs(d4 - 24.0 * p.gamma) <= 1e-5 * abs(24.0 * p.gamma)
    assert time.monotonic() - t0 < 1.0


def test_criterion_12():
    for nu, a in ((1.0, 0.2), (0.5, 0.1), (3.0, 0.5)):
        t0 = time.monotonic()
        c = solve_completion_curve(nu, a)  # Richardson check is on by default
        lo, hi = envelope(nu, c.xs)
        assert np.all(c.ys >= lo - 1e-9) and np.all(c.ys <= hi + 1e-9)
        half = solve_completion_curve(nu, a, step=c.step / 2.0,
                                      richardson_check=False)
        assert float(np.max(np.abs(half.ys[::2] - c.ys))) < 1e-8
        assert time.monotonic() - t0 < 1.0


def test_criterion_13(tmp_path):
    def run(argv, name):
        path = tmp_path / name
        assert cli_main(argv + ["--out", str(path)]) == 0
        return path.read_bytes()

    cases = [
        (["curve", "--nu", "1", "--a", "0.2"], "a"),
        (["stirling", "200", "100"], "b"),
        (["stirling", "--verify", "--lams", "1.0", "--ells", "50,100"], "c"),
        (["simulate", "--N", "100", "--n", "50", "--trials", "40",
          "--a", "0.2", "--seed", "5"], "d"),
        (["korshunov", "--k", "2", "--n", "40", "--trials", "500",
          "--seed", "5"], "e"),
        (["ldp", "--nu", "1", "--n", "20,40"], "f"),
    ]
    for argv, name in cases:
        assert run(argv, name + "1") == run(argv, name + "2")
    for argv, name in cases[3:5]:
        j1 = run(argv + ["--jobs", "1"], name + "j1")
        j8 = run(argv + ["--jobs", "8"], name + "j8")
        assert j1 == j8
    # and through the real process boundary
    r1 = subprocess.run([sys.executable, "-m", "coupons", "ldp", "--nu", "2"],
                        capture_output=True)
    r2 = subprocess.run([sys.executable, "-m", "coupons", "ldp", "--nu", "2"],
                        capture_output=True)
    assert r1.returncode == 0 and r1.stdout == r2.stdout
