import concurrent.futures
import hashlib
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest
import scipy.stats

from coupons import (ExactBackend, LogDPBackend, auto_backend,
                     conditioned_paths, prefix_law, rejection_paths,
                     sample_patient, solve_completion_curve, sup_distance_batch,
                     transition_error)

from coupons import sampler
from coupons.automata import _dyck_flags
from coupons.errors import NumericsError
from coupons.sampler import _rng, _substreams, sup_distances_of

from oracles import (enumerate_surjective_paths, reachable_states,
                     reversed_chain_reference)


def _path_ids(Z, s=None):
    # encode decrement patterns as integers (bit t = decrement at step t)
    N = Z.shape[1] - 1
    s = N if s is None else s
    dec = (Z[:, 1:s + 1] < Z[:, :s]).astype(np.int64)
    return dec @ (1 << np.arange(s, dtype=np.int64))


# --- degenerate cases -----------------------------------------------------

def test_staircase_when_N_equals_n():
    z = conditioned_paths(6, 6, 1, seed=4)[0]
    assert np.array_equal(z, np.arange(6, -1, -1))


def test_n_one_waits_until_the_end():
    z = conditioned_paths(9, 1, 1, seed=4)[0]
    assert np.array_equal(z, np.array([1] * 9 + [0]))


def test_argument_errors():
    with pytest.raises(ValueError):
        conditioned_paths(3, 4, 1, seed=0)
    with pytest.raises(ValueError):
        conditioned_paths(5, 2, 0)


def test_trajectory_invariants_hold_in_batches():
    Z = conditioned_paths(23, 11, 500, seed=9)
    assert np.all(Z[:, 0] == 11) and np.all(Z[:, -1] == 0)
    d = np.diff(Z, axis=1)
    assert np.all((d == 0) | (d == -1))
    assert np.all((d == -1).sum(axis=1) == 11)


def test_seed_determinism_and_substreams():
    a = conditioned_paths(40, 17, 50, seed=123)
    b = conditioned_paths(40, 17, 50, seed=123)
    assert np.array_equal(a, b)
    c = conditioned_paths(40, 17, 50, seed=124)
    assert not np.array_equal(a, c)
    # jobs must not change anything
    d = conditioned_paths(40, 17, 50, seed=123, jobs=4)
    assert np.array_equal(a, d)
    # a batch of one equals row 0 of the batch
    assert np.array_equal(conditioned_paths(40, 17, 1, seed=123)[0], a[0])


# N = 2001 gives chunks of 1998 rows: 4100 trials cross two chunk boundaries
BIG = dict(N=2001, n=1000, trials=4100, seed=77)


@pytest.fixture(scope="module")
def big_batch():
    backend = LogDPBackend()
    return backend, conditioned_paths(BIG["N"], BIG["n"], BIG["trials"],
                                      backend=backend, seed=BIG["seed"])


@pytest.fixture
def cpus8(monkeypatch):
    # jobs is capped at the CPU count; fix it so the span layout is the host's own
    monkeypatch.setattr(sampler, "_cpus", lambda: 8)


def _span_record(B):
    # (pid of the process that ran the span, span length) for each row of a span
    return np.column_stack((np.full(len(B), os.getpid()), np.full(len(B), len(B))))


def _spans_of(record):
    # the spans as (pid, length) pairs, in trajectory order
    spans, i = [], 0
    while i < len(record):
        pid, length = record[i]
        assert (record[i:i + length] == (pid, length)).all()
        spans.append((int(pid), int(length)))
        i += length
    return spans


def test_multi_span_forked_batch(big_batch, cpus8):
    backend, Z = big_batch
    N, n, seed, trials = BIG["N"], BIG["n"], BIG["seed"], BIG["trials"]
    # jobs=2: 3 chunks round up to 4 equal spans; jobs=3: 3 spans within one row
    for jobs, lengths in ((2, [1025] * 4), (3, [1367, 1367, 1366])):
        spans = _spans_of(conditioned_paths(N, n, trials, backend=backend, seed=seed,
                                            jobs=jobs, reduce=_span_record))
        assert [length for _, length in spans] == lengths
        pids = {pid for pid, _ in spans}
        assert os.getpid() not in pids and len(pids) <= jobs
        assert multiprocessing.active_children() == []
    Z3 = conditioned_paths(N, n, trials, backend=backend, seed=seed, jobs=3)
    assert multiprocessing.active_children() == []
    assert np.array_equal(Z3, Z)
    rtab = backend.ratio_table(N, n)
    for i in (0, 1366, 1367, 1997, 1998, 2733, 2734, 3995, 3996, 4099):
        assert Z[i].tolist() == reversed_chain_reference(rtab, N, n, seed, i)


def test_worker_exception_reaches_parent(big_batch, cpus8):
    backend, _ = big_batch

    def fail(B):
        raise NumericsError("reduce failed in process %d" % os.getpid())

    with pytest.raises(NumericsError, match="reduce failed in process") as exc:
        conditioned_paths(BIG["N"], BIG["n"], BIG["trials"], backend=backend,
                          seed=BIG["seed"], jobs=2, reduce=fail)
    assert int(str(exc.value).split()[-1]) != os.getpid()  # raised in a worker
    assert multiprocessing.active_children() == []


def _off_band_poisoned(N, n):
    """The default table for (N, n), with every entry off the chain's reach
    set to -1.0 or 2.0 in turn: read by any step, it would force the step."""
    R = auto_backend(N, n).ratio_table(N, n)
    m, l = np.nonzero(~reachable_states(N, n))
    R[m, l] = np.where((m + l) % 2 == 0, -1.0, 2.0)
    return R


class _FixedTable:
    kind = "fixed"

    def __init__(self, R):
        self.R = R

    def ratio_table(self, N, n):
        return self.R


def test_sampler_reads_only_the_band(cpus8, monkeypatch):
    # N = 2001 gives chunks of 1998 rows, so 2100 trials fork two workers at jobs=2
    for N, n in ((2001, 2001), (2001, 1), (2001, 1000), (2001, 1819)):
        poison = _off_band_poisoned(N, n)
        assert (poison < 0.0).any() and (poison > 1.0).any()
        Z = conditioned_paths(N, n, 2100, seed=3)
        for jobs in (1, 2):
            got = conditioned_paths(N, n, 2100, backend=_FixedTable(poison), seed=3,
                                    jobs=jobs)
            assert got.dtype == np.int32 and np.array_equal(got, Z), (N, n, jobs)
    # prefix_law walks every decrement pattern, possible or not
    for N, n, s in ((12, 11, 12), (12, 1, 12), (40, 20, 14), (30, 27, 14)):
        want = prefix_law(N, n, s)
        with monkeypatch.context() as mp:
            mp.setattr(sampler, "auto_backend",
                       lambda N, n: _FixedTable(_off_band_poisoned(N, n)))
            got = prefix_law(N, n, s)
        assert [a.tobytes() for a in want[:2]] == [a.tobytes() for a in got[:2]]
        assert want[2] == got[2]


def test_spans_run_serially_without_fork(big_batch, cpus8, monkeypatch):
    backend, Z = big_batch
    N, n, seed, trials = BIG["N"], BIG["n"], BIG["seed"], BIG["trials"]
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    spans = _spans_of(conditioned_paths(N, n, trials, backend=backend, seed=seed,
                                        jobs=3, reduce=_span_record))
    assert spans == [(os.getpid(), 1367), (os.getpid(), 1367), (os.getpid(), 1366)]
    assert np.array_equal(conditioned_paths(N, n, trials, backend=backend, seed=seed,
                                            jobs=3), Z)


def test_jobs_capped_at_cpus(big_batch, monkeypatch):
    # a huge jobs value must not fork that many processes
    backend, Z = big_batch
    N, n, seed, trials = BIG["N"], BIG["n"], BIG["seed"], BIG["trials"]
    pools = []

    class InlinePool:
        # records the worker count it was asked for and runs the spans here
        def __init__(self, max_workers, mp_context, initializer, initargs):
            pools.append(max_workers)
            self.run = initargs[0]

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *spans):
            return map(self.run, *spans)

    assert 1 <= sampler._cpus() <= (os.cpu_count() or 1)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(sampler, "_cpus", lambda: 3)
    spans = _spans_of(conditioned_paths(N, n, trials, backend=backend, seed=seed,
                                        jobs=10 ** 6, reduce=_span_record))
    assert pools == [3] and [length for _, length in spans] == [1367, 1367, 1366]
    assert np.array_equal(conditioned_paths(N, n, trials, backend=backend, seed=seed,
                                            jobs=10 ** 6), Z)
    assert pools == [3, 3]


def _alive(pid):
    # a reaped process is gone; an unreaped one counts as alive unless a zombie
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open("/proc/%d/stat" % pid) as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return True


def test_workers_exit_when_the_parent_is_killed(tmp_path):
    # a killed parent never shuts its pool down: its workers must not wait forever
    code = textwrap.dedent("""
        import os, sys, time
        from coupons import conditioned_paths, sampler

        sampler._cpus = lambda: 2

        def hold(B):
            open(os.path.join(sys.argv[1], str(os.getpid())), "w").close()
            time.sleep(60)

        conditioned_paths(2001, 1000, 4100, seed=1, jobs=2, reduce=hold)
    """)
    src = os.path.dirname(os.path.dirname(sampler.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen([sys.executable, "-c", code, str(tmp_path)], env=env)
    try:
        deadline = time.monotonic() + 60.0
        while len(os.listdir(tmp_path)) < 2:
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
    finally:
        proc.kill()
        proc.wait()
    pids = [int(name) for name in os.listdir(tmp_path)]
    try:
        deadline = time.monotonic() + 10.0
        while any(_alive(pid) for pid in pids):
            assert time.monotonic() < deadline, "workers %s outlived their parent" % pids
            time.sleep(0.05)
    finally:
        for pid in filter(_alive, pids):
            os.kill(pid, signal.SIGKILL)


def test_reduce_equals_reducer_of_full_matrix(big_batch):
    backend, Z = big_batch
    N, n, seed = BIG["N"], BIG["n"], BIG["seed"]
    flags = conditioned_paths(N, n, BIG["trials"], backend=backend, seed=seed,
                              jobs=2, reduce=lambda B: _dyck_flags(B, 2, n))
    assert flags.shape == (BIG["trials"],)
    assert np.array_equal(flags, _dyck_flags(Z, 2, n))
    curve = solve_completion_curve((N - n) / n, 0.2, richardson_check=False)
    d = conditioned_paths(N, n, BIG["trials"], backend=backend, seed=seed,
                          reduce=lambda B: sup_distances_of(B, curve, N, n))
    assert np.array_equal(d, sup_distances_of(Z, curve, N, n))


def test_rekeyed_substreams_equal_fresh_generators():
    out = np.empty(1001)
    for seed in (0, 2 ** 63, 2 ** 64 - 1):
        draw = _substreams(seed)
        for index in (0, 1, 2 ** 40 + 3, 1):
            draw(index, out)
            assert np.array_equal(out, _rng(seed, index).random(1001))


def test_backends_agree_in_distribution_exactly():
    # same uniforms + ratio tables equal to 1e-9 => identical paths
    a = conditioned_paths(30, 12, 200, backend=ExactBackend(), seed=5)
    b = conditioned_paths(30, 12, 200, backend=LogDPBackend(), seed=5)
    assert np.array_equal(a, b)


def test_auto_backend_selection():
    assert auto_backend(100, 100).kind == "Exact"
    assert auto_backend(900, 301).kind == "LogDP"
    with pytest.raises(ValueError):
        auto_backend(12000, 6000)


# --- exactness against enumeration ----------------------------------------

def exact_law_from_table(N, n):
    """Path law as products of r/(1-r) along all feasible decrement patterns."""
    rtab = ExactBackend().ratio_table(N, n)
    out = {}

    def rec(t, l, patt, pr):
        if pr == 0.0:
            return
        if t == N:
            if l == 0:
                out[patt] = pr
            return
        r = rtab[N - t, l] if l >= 1 else 0.0
        rec(t + 1, l - 1, patt | (1 << t), pr * r)
        rec(t + 1, l, patt, pr * (1.0 - r))

    rec(0, n, 0, 1.0)
    return out


@pytest.mark.parametrize("N,n", [(5, 2), (6, 3), (7, 3)])
def test_markov_law_equals_enumeration(N, n):
    law = exact_law_from_table(N, n)
    assert abs(sum(law.values()) - 1.0) <= 1e-12
    cnt, total = enumerate_surjective_paths(N, n)
    assert total == math.factorial(n) * _stirling(N, n)
    # convert enumerated forward paths to decrement patterns of z
    ref = {}
    for path, c in cnt.items():
        y = (0,) + path
        patt = 0
        for t in range(N):
            if y[N - t - 1] < y[N - t]:  # z decrements at step t
                patt |= 1 << t
        ref[patt] = c / total
    assert set(ref) == set(law)
    for patt, p in ref.items():
        assert abs(law[patt] - p) <= 1e-12


def _stirling(m, l):
    from coupons import stirling_exact
    return stirling_exact(m, l)


def test_sampler_matches_prefix_law():
    # (N,n)=(10,5): 2e5 sampled prefixes vs the exact 16-pattern law
    N, n, s, trials = 10, 5, 4, 200000
    exact, _, _ = prefix_law(N, n, s)
    Z = conditioned_paths(N, n, trials, backend=ExactBackend(), seed=19)
    obs = np.bincount(_path_ids(Z, s), minlength=1 << s)
    exp = exact * trials
    big = exp >= 5.0
    stat = float((((obs[big] - exp[big]) ** 2) / exp[big]).sum())
    df = int(big.sum()) - 1
    rest_o, rest_e = obs[~big].sum(), exp[~big].sum()
    if rest_e > 0:
        stat += (rest_o - rest_e) ** 2 / rest_e
        df += 1
    p = scipy.stats.chi2.sf(stat, df)
    assert p > 0.001


# --- patient collector ----------------------------------------------------

def test_patient_trivial():
    y, T = sample_patient(1, seed=0)
    assert T == 1 and list(y) == [0, 1]
    with pytest.raises(ValueError):
        sample_patient(0)


def test_patient_mean_completion_time():
    H = sum(1.0 / i for i in range(1, 101))
    Ts = np.array([sample_patient(100, seed=s)[1] for s in range(10000)])
    se = Ts.std(ddof=1) / math.sqrt(len(Ts))
    assert abs(Ts.mean() - 100.0 * H) <= 3.0 * se


def test_patient_pointwise_mean():
    # E[zeta_n(1)] = 1 - (1 - 1/n)^n at n = 50
    n, trials = 50, 20000
    vals = np.empty(trials)
    for s in range(trials):
        y, T = sample_patient(n, seed=s)
        vals[s] = (y[n] if T >= n else n) / n
    want = 1.0 - (1.0 - 1.0 / n) ** n
    se = vals.std(ddof=1) / math.sqrt(trials)
    assert abs(vals.mean() - want) <= 3.0 * se


# --- rejection sampler ----------------------------------------------------

def test_rejection_bijections_are_staircase():
    for seed in range(5):
        z = rejection_paths(5, 5, 1, seed=seed)[0]
        assert np.array_equal(z, np.arange(5, -1, -1))


def test_rejection_matches_enumeration_y4():
    cnt, total = enumerate_surjective_paths(7, 3)
    y4_exp = {}
    for path, c in cnt.items():
        y4_exp[path[3]] = y4_exp.get(path[3], 0) + c
    Z = rejection_paths(7, 3, 200000, seed=7)
    y4 = Z[:, ::-1][:, 4]
    obs = np.bincount(y4, minlength=4)[1:4]
    exp = np.array([y4_exp[1], y4_exp[2], y4_exp[3]]) / total * len(Z)
    stat = float(((obs - exp) ** 2 / exp).sum())
    assert scipy.stats.chi2.sf(stat, 2) > 0.001


def test_rejection_agrees_with_markov_sampler():
    Zr = rejection_paths(7, 3, 200000, seed=7)
    Zc = conditioned_paths(7, 3, 200000, backend=ExactBackend(), seed=13)
    o1 = np.bincount(Zr[:, ::-1][:, 4], minlength=4)[1:4]
    o2 = np.bincount(Zc[:, ::-1][:, 4], minlength=4)[1:4]
    n1, n2 = o1.sum(), o2.sum()
    pool = (o1 + o2) / (n1 + n2)
    e1, e2 = n1 * pool, n2 * pool
    stat = float((((o1 - e1) ** 2) / e1).sum() + (((o2 - e2) ** 2) / e2).sum())
    assert scipy.stats.chi2.sf(stat, 2) > 0.001


def test_rejection_attempt_cap():
    # bijective words are hopeless at n=20: acceptance rate 20!/20^20 ~ 2e-8
    with pytest.raises(RuntimeError):
        rejection_paths(20, 20, 1, seed=0)


# --- martingale structure ---------------------------------------------------

def test_increment_bias_is_martingale_difference():
    N, n, trials = 200, 100, 10000
    be = ExactBackend()
    rtab = be.ratio_table(N, n)
    Z = conditioned_paths(N, n, trials, backend=be, seed=17)
    m_idx = N - np.arange(N)
    r = rtab[m_idx[None, :], Z[:, :-1]]
    eps = np.diff(Z, axis=1) + r
    assert abs(float(eps.mean())) <= 4.0 / math.sqrt(trials * N)


# --- sup distance -----------------------------------------------------------

def test_sup_distance_of_rounded_curve():
    # grid-aligned discretization: n * step = 1 so floor(n x) is exact
    n, N = 1000, 2000
    c = solve_completion_curve(1.0, 0.2, step=1e-3, richardson_check=False)
    y = np.zeros(N + 1, dtype=np.int64)
    for l in range(200, N + 1):
        y[l] = int(round(n * c.y_at(min(l / n, 2.0))))
    y[:200] = np.minimum(np.arange(200), y[200])
    y = np.maximum.accumulate(y)
    assert sup_distances_of(y[None, ::-1], c, N, n)[0] <= 1.0 / n + c.step


def test_sup_distance_domain_checks():
    c = solve_completion_curve(1.0, 0.2, richardson_check=False)
    Z = conditioned_paths(15, 5, 1, seed=0)
    with pytest.raises(ValueError, match="curve nu"):
        sup_distances_of(Z, c, 15, 5)  # nu mismatch
    stair = np.arange(5, -1, -1)[None, :]
    with pytest.raises(ValueError, match="Lambda > 0"):
        sup_distances_of(stair, c, 5, 5)  # Lambda = 0


def test_sup_distance_batch_record():
    rec = sup_distance_batch(60, 30, 25, 0.2, seed=3)
    assert rec["N"] == 60 and rec["n"] == 30 and rec["nu"] == 1.0
    assert rec["seeds"] == list(range(25))
    assert len(rec["sup_distances"]) == 25
    q = rec["quantiles"]
    assert q["q05"] <= q["q25"] <= q["q50"] <= q["q75"] <= q["q95"]
    rec2 = sup_distance_batch(60, 30, 25, 0.2, seed=3, jobs=3)
    assert rec == rec2


# --- prefix law --------------------------------------------------------------

def test_prefix_law_single_step_is_transition_error():
    ex, iid, tv = prefix_law(200, 100, 1)
    assert abs(tv - transition_error(200, 100)) <= 1e-12
    assert abs(ex.sum() - 1.0) <= 1e-12
    assert abs(iid.sum() - 1.0) <= 1e-12


def test_prefix_law_tv_decreasing_in_n():
    tvs = [prefix_law(2 * n, n, 10)[2] for n in (100, 200, 400)]
    assert tvs[0] > tvs[1] > tvs[2]


def test_prefix_law_digests():
    # sha256 of the bytes the per-pattern Python loop gave before the array passes
    want = {(12, 11, 12): "78ff049177ba21a3c103aaf5937fae975aafdb62545cbe2b06700e46ae076d72",
            (40, 20, 14): "530505baa620d7162496a8672f915beaf83f471b338930619f1786dae0cf4759",
            (2000, 1000, 16): "fecaeeec2c91a8d5839a55fc35489730a4542f1accdb2b13ba316783619a3752"}
    for shape, digest in want.items():
        exact, iid, tv = prefix_law(*shape)
        got = hashlib.sha256(exact.tobytes() + iid.tobytes() + repr(tv).encode())
        assert got.hexdigest() == digest, shape


def test_prefix_law_argument_errors():
    with pytest.raises(ValueError):
        prefix_law(100, 100, 3)
    with pytest.raises(ValueError):
        prefix_law(100, 50, 25)
