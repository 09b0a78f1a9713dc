import concurrent.futures
import dataclasses
import hashlib
import math
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import textwrap
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.stats

from coupons import (ExactBackend, LogDPBackend,
                     conditioned_paths, prefix_law, sample_patient, solve_completion_curve, stirling_exact,
                     sup_distance_batch, transition_error)

from coupons import sampler, stirling
from coupons.automata import (_dyck_flags, _window_clear, exact_accessible_count,
                              simulate_walk_max)
from coupons.errors import NumericsError, ResourceCapError
from coupons.sampler import _substreams, auto_backend, sup_distances_of

from conftest import traced_peak
from oracles import (boltzmann_paths, dense_table, dyck_flags_reference,
                     enumerate_surjective_paths, philox_reference, reachable_states, rejection_paths,
                     reversed_chain_reference, set_partition_count, sup_distances_reference,
                     window_crossed_reference)


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


# N = 2001 gives chunks of 1998 rows: 4100 trials make three spans of 1367 or 1366
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
    rtab = dense_table(backend.ratio_table(N, n), N, n)
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


def test_sampler_reads_only_the_band(cpus8):
    # a packed table stores nothing off the band, so what must hold is that
    # every state a path visits, at jobs 1 and 2, is one the chain from
    # (N, n) can reach, and that each step reads that state's entry (the
    # scalar walk over the unpacked table).  N = 2001 gives chunks of 1998
    # rows, so 2100 trials fork two workers at jobs=2
    for N, n in ((2001, 2001), (2001, 1), (2001, 1000), (2001, 1819)):
        reach = reachable_states(N, n)
        m = np.arange(N, 0, -1)  # the row each step reads
        Z = conditioned_paths(N, n, 2100, seed=3)
        for jobs in (1, 2):
            got = conditioned_paths(N, n, 2100, seed=3, jobs=jobs)
            assert got.dtype == np.int32 and np.array_equal(got, Z), (N, n, jobs)
            assert reach[m, got[:, :-1]].all(), (N, n, jobs)
        rtab = dense_table(auto_backend(N, n).ratio_table(N, n), N, n)
        for i in (0, 1997, 1998, 2099):
            assert Z[i].tolist() == reversed_chain_reference(rtab, N, n, 3, i)


def _prefix_law_dense(N, n, s, R=None):
    """The exact prefix law by the walk over the dense table R (default:
    the unpacked auto_backend table), which reads r = R[N - j, l]
    wherever 1 <= l <= N - j (0 off the band)."""
    if R is None:
        R = dense_table(auto_backend(N, n).ratio_table(N, n), N, n)
    patt = np.arange(1 << s)
    l = np.full(1 << s, n)
    exact = np.ones(1 << s)
    for j in range(s):
        inside = (1 <= l) & (l <= N - j)
        r = np.zeros(1 << s)
        r[inside] = R[N - j, l[inside]]
        step = (patt >> j) & 1
        exact *= np.where(step, r, 1.0 - r)
        l -= step
    return exact


def test_prefix_law_matches_the_dense_walk():
    # prefix_law walks every decrement pattern, possible or not
    for N, n, s in ((12, 11, 12), (12, 1, 12), (40, 20, 14), (30, 27, 14)):
        assert prefix_law(N, n, s)[0].tobytes() == _prefix_law_dense(N, n, s).tobytes()


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


def _no_resident_table(monkeypatch, steps):
    # the default table goes checkpointed at every size, with B = steps if given
    def no_table(self, N, n):
        raise AssertionError("resident table built at (%d, %d)" % (N, n))

    monkeypatch.setattr(sampler, "_TABLE_BUDGET", 0)
    monkeypatch.setattr(LogDPBackend, "ratio_table", no_table)
    if steps is not None:
        monkeypatch.setattr(stirling, "_block_steps", lambda N: steps)


@pytest.mark.parametrize("steps", [None, 7])
def test_checkpointed_rows_give_the_resident_bytes(big_batch, cpus8, monkeypatch, steps):
    # the same paths, flags and distances from re-rolled blocks as from the
    # resident table: over 3 spans at jobs 1 (serial) and 2 and 3 (forked,
    # each span re-rolling its blocks), B = 45 or 7.  At B = 7 the Dyck
    # floors' 32-step cull ends inside block 4, whose rows the survivors reuse
    backend, Z = big_batch
    N, n, seed, trials = BIG["N"], BIG["n"], BIG["seed"], BIG["trials"]
    curve = solve_completion_curve((N - n) / n, 0.2, richardson_check=False)

    def sup(B):
        return sup_distances_of(B, curve, N, n)

    dyck = _dyck_flags(2, n)
    wants = ((None, Z), (sup, sup(Z)), (dyck, dyck(Z)))
    _no_resident_table(monkeypatch, steps)
    for jobs in (1, 2, 3):
        for reduce, want in wants:
            got = conditioned_paths(N, n, trials, seed=seed, jobs=jobs, reduce=reduce)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), jobs
    assert multiprocessing.active_children() == []


def test_reduce_equals_reducer_of_full_matrix(big_batch):
    backend, Z = big_batch
    N, n, seed = BIG["N"], BIG["n"], BIG["seed"]
    flags = conditioned_paths(N, n, BIG["trials"], backend=backend, seed=seed,
                              jobs=2, reduce=_dyck_flags(2, n))
    assert flags.shape == (BIG["trials"],)
    assert np.array_equal(flags, _dyck_flags(2, n)(Z))
    curve = solve_completion_curve((N - n) / n, 0.2, richardson_check=False)
    d = conditioned_paths(N, n, BIG["trials"], backend=backend, seed=seed,
                          reduce=lambda B: sup_distances_of(B, curve, N, n))
    assert np.array_equal(d, sup_distances_of(Z, curve, N, n))


def test_reduce_may_return_a_view_of_the_span(big_batch, cpus8):
    # a view of the span buffer is copied before the next span overwrites it
    backend, Z = big_batch
    N, n, seed, trials = BIG["N"], BIG["n"], BIG["seed"], BIG["trials"]
    for jobs in (1, 2):
        col = conditioned_paths(N, n, trials, backend=backend, seed=seed, jobs=jobs,
                                reduce=lambda B: B[:, n])
        assert np.array_equal(col, Z[:, n]), jobs
    for bad in (lambda B: B[0], lambda B: B.sum()):
        with pytest.raises(ValueError, match="reduce returned shape"):
            conditioned_paths(N, n, trials, backend=backend, seed=seed, reduce=bad)


def _runner_buffers(*args):
    # a span runner, and the byte sizes of the numpy buffers it allocates
    tracemalloc.start()
    try:
        run = sampler._span_runner(*args)
        snap = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    snap = snap.filter_traces([tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
    snap = snap.filter_traces([tracemalloc.Filter(True, sampler.__file__)])
    return run, sorted(trace.size for trace in snap.traces)


def test_blocked_draws_match_the_reference(monkeypatch):
    # draw blocks of 4 rows: spans of 10 (blocks 4, 4, 2), 3 and 4 rows, on
    # one runner whose buffers are allocated once, for a 10-row span
    N, n, seed = 40, 17, 8
    monkeypatch.setattr(sampler, "_BLOCK_BYTES", 4 * 8 * N + 7)
    rows = sampler._ratio_rows(N, n)
    dense = dense_table(auto_backend(N, n).ratio_table(N, n), N, n)
    paths = np.array([reversed_chain_reference(dense, N, n, seed, i) for i in range(17)],
                     dtype=np.int32)
    spans = ((0, 10), (10, 3), (13, 4))
    run, sizes = _runner_buffers(rows, N, n, _substreams(seed), 10, None)
    for start, count in spans:
        Z = run(start, count)
        assert _same_bits(np.ascontiguousarray(Z), paths[start:start + count])
    # one span buffer of N + 1 float64 rows, one draw block of N columns, and
    # a float and a bool a row for a step
    assert sizes == sorted([8 * (N + 1) * 10, 8 * 4 * N, 8 * 10, 10])
    assert np.array_equal(conditioned_paths(N, n, 17, seed=seed)[13:], Z)
    run, sizes = _runner_buffers(rows, N, n, _substreams(seed), 3, None)
    run(0, 3)
    # no draw block larger than the span
    assert sizes == sorted([8 * (N + 1) * 3, 8 * 3 * N, 8 * 3, 3])
    # under a floors reduction with a floor at reversed step 5, within the
    # first 32, and one at step 35: the same buffers and the decided floor's
    # column and value.  The prefix draws through the same blocks of 4 rows,
    # and each span culls some rows and keeps others
    seen = []

    class Recording(sampler._Floors):
        def __call__(self, Z):
            seen.append(Z.copy())
            return super().__call__(Z)

    xs, floors = np.array([N - 5, 5]), np.array([n, 5])
    run, sizes = _runner_buffers(rows, N, n, _substreams(seed), 10, Recording(xs, floors))
    assert sizes == sorted([8, 8, 8 * (N + 1) * 10, 8 * 4 * N, 8 * 10, 10])
    full = sampler._Floors(xs, floors)(paths)
    kept = paths[:, 5] >= n
    for start, count in spans:
        flags = run(start, count)
        assert _same_bits(flags, full[start:start + count])
        survivors = paths[start:start + count][kept[start:start + count]]
        assert _same_bits(seen[-1], survivors) and 0 < len(survivors) < count
    assert 0 < full.sum() < kept.sum()


def test_rekeyed_substreams_equal_fresh_generators():
    # uniforms into a row (the span draw) and geometric gaps (sample_patient's)
    out = np.empty(1001)
    p = (50 - np.arange(50)) / 50
    for seed in (0, 2 ** 63, 2 ** 64 - 1):
        stream = _substreams(seed)
        for index in (0, 1, 2 ** 40 + 3, 1):
            stream(index).random(out=out)
            assert np.array_equal(out, philox_reference(seed, index).random(1001))
            assert np.array_equal(stream(index).geometric(p),
                                  philox_reference(seed, index).geometric(p))


def test_offset_substreams_continue_the_fresh_generators():
    # stream(i, off) is the fresh generator's stream after its first off draws
    for seed in (0, 2 ** 64 - 1):
        stream = _substreams(seed)
        for index in (0, 2 ** 40 + 3):
            for off in (0, 4, 32, 1996):
                assert np.array_equal(stream(index, off).random(40),
                                      philox_reference(seed, index).random(off + 40)[off:])
    for off in (-4, 30):
        with pytest.raises(ValueError, match="offset"):
            stream(0, off)


@pytest.mark.parametrize("seed", [0, 2 ** 63, 2 ** 64 - 1])
def test_rekeys_restart_a_partly_used_generator(seed):
    # a re-key restarts the stream whatever the shared generator did last:
    # 3 uint32 draws leave half a word held (has_uint32), 1,001 uniforms
    # part of a Philox block in the buffer
    stream = _substreams(seed)
    for index in (0, 2 ** 40 + 3):
        for offset in (0, 32):
            for used in (lambda g: g.integers(0, 2 ** 32, size=3, dtype=np.uint32),
                         lambda g: g.random(1001)):
                used(stream(index + 1))
                ref = philox_reference(seed, index)
                ref.random(offset)
                got = stream(index, offset)
                assert np.array_equal(got.integers(0, 2 ** 32, size=3, dtype=np.uint32),
                                      ref.integers(0, 2 ** 32, size=3, dtype=np.uint32))
                used(stream(index + 1))
                assert np.array_equal(stream(index, offset).random(40),
                                      philox_reference(seed, index).random(offset + 40)[offset:])


def test_seed_is_an_integer_below_two_to_the_64():
    # no seed is wrapped or truncated into another seed's stream
    calls = (lambda seed: conditioned_paths(60, 30, 3, seed=seed),
             lambda seed: sample_patient(50, seed=seed),
             lambda seed: simulate_walk_max(2, 10, seed=seed))
    for call in calls:
        for bad in (1.5, -1, 2 ** 64):
            with pytest.raises(ValueError, match="seed"):
                call(bad)
        assert pickle.dumps(call(3.0)) == pickle.dumps(call(np.uint64(3))) == pickle.dumps(call(3))


def test_backends_agree_in_distribution_exactly():
    # same uniforms: a path differs only with probability (2N^2 + 6N) 2^-53,
    # 8.1e-11 at N = 601 (auto_backend's path-level bound)
    for N, n, trials in ((30, 12, 200), (601, 300, 2000)):
        a = conditioned_paths(N, n, trials, backend=ExactBackend(), seed=5)
        b = conditioned_paths(N, n, trials, backend=LogDPBackend(), seed=5)
        assert np.array_equal(a, b), (N, n)


def test_auto_backend_selection():
    assert auto_backend(100, 100).kind == "LogDP"
    assert auto_backend(900, 301).kind == "LogDP"
    assert auto_backend(12001, 6000).kind == "LogDP"  # no cap on n: the band's is 5e8
    with pytest.raises(ResourceCapError, match="N=50001, n=25000 rolls 1250025000 band "
                                               "entries, which exceeds cap 500000000"):
        auto_backend(50001, 25000)


# --- exactness against enumeration ----------------------------------------

def exact_law_from_table(N, n):
    """Path law as products of r/(1-r) along all feasible decrement patterns."""
    rtab = dense_table(ExactBackend().ratio_table(N, n), N, n)
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


def _decrement_counts(cnt, N):
    """Word counts of enumerated forward paths, by the decrement pattern of z."""
    out = Counter()
    for path, c in cnt.items():
        y = (0,) + path
        # z decrements at step t
        out[sum(1 << t for t in range(N) if y[N - t - 1] < y[N - t])] += c
    return out


@pytest.mark.parametrize("N,n", [(5, 2), (6, 3), (7, 3)])
def test_markov_law_equals_enumeration(N, n):
    law = exact_law_from_table(N, n)
    assert abs(sum(law.values()) - 1.0) <= 1e-12
    cnt, total = enumerate_surjective_paths(N, n)
    assert total == math.factorial(n) * _stirling(N, n)
    ref = {patt: c / total for patt, c in _decrement_counts(cnt, N).items()}
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


def test_patient_rejects_non_integral_n():
    with pytest.raises(ValueError, match="must be an integer"):
        sample_patient(2.5)
    y, T = sample_patient(4.0, seed=1)
    assert y.dtype == np.int64 and np.array_equal(y, sample_patient(4, seed=1)[0])


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


def test_patient_completion_time_law():
    # P(T_n <= t) = n! {t n} / n^t, with {t n} counted by enumeration; T > t_max
    # is lumped into one cell
    for n, t_max, trials in ((3, 9, 3000), (5, 10, 3000)):
        cdf = [math.factorial(n) * set_partition_count(t, n) / n ** t
               for t in range(n, t_max + 1)]
        law = np.diff([0.0] + cdf + [1.0])
        Ts = np.array([sample_patient(n, seed=s)[1] for s in range(trials)])
        obs = np.bincount(np.minimum(Ts, t_max + 1) - n, minlength=len(law))
        assert scipy.stats.chisquare(obs, law * trials).pvalue > 0.001, n


def test_patient_path_invariants():
    for n in (1, 2, 7, 100):
        for seed in range(5):
            y, T = sample_patient(n, seed=seed)
            assert y.dtype == np.int64 and len(y) == T + 1
            assert y[0] == 0 and y[T - 1] == n - 1 and y[T] == n
            assert set(np.diff(y).tolist()) <= {0, 1}
            assert np.array_equal(sample_patient(n, seed=seed)[0], y)


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


# --- Boltzmann sampler: the law at bench sizes -------------------------------

def _path_counts(Z):
    """Counter of the forward paths y_1..y_N of a batch of reversed paths."""
    return Counter(map(tuple, Z[:, -2::-1].tolist()))


@pytest.mark.parametrize("N,n", [(7, 3), (8, 4), (9, 3)])
def test_boltzmann_law_equals_enumeration(N, n):
    cnt, total = enumerate_surjective_paths(N, n)
    trials = 20000
    obs = _path_counts(boltzmann_paths(N, n, trials, seed=N * n))
    assert set(obs) <= set(cnt)
    paths = sorted(cnt)
    o = np.array([obs[p] for p in paths])
    e = np.array([cnt[p] for p in paths]) * trials / total
    stat = float(((o - e) ** 2 / e).sum())
    assert scipy.stats.chi2.sf(stat, len(paths) - 1) > 0.001


def test_boltzmann_and_chain_dyck_frequencies_at_n_1000():
    # k = 2 accessibility of 4,000 paths each against the exact P_1000
    acc, surj = exact_accessible_count(2, 1000)
    exact = acc / surj
    assert exact == 0.5938961639231748
    se = math.sqrt(exact * (1.0 - exact) / 4000)
    flags = _dyck_flags(2, 1000)(boltzmann_paths(2001, 1000, 4000, seed=1))
    assert abs(flags.mean() - exact) <= 4.0 * se
    flags = conditioned_paths(2001, 1000, 4000, seed=1,
                              reduce=_dyck_flags(2, 1000))
    assert abs(flags.mean() - exact) <= 4.0 * se


def test_boltzmann_and_chain_sup_distances_at_n_2000():
    # two-sample KS on 1,000 sup-distances each, the bench's simulate shape
    N, n = 4001, 2000
    c = solve_completion_curve((N - n) / n, 0.2)
    d_boltzmann = sup_distances_of(boltzmann_paths(N, n, 1000, seed=2), c, N, n)
    d_chain = conditioned_paths(N, n, 1000, seed=2,
                                reduce=lambda Z: sup_distances_of(Z, c, N, n))
    assert scipy.stats.ks_2samp(d_boltzmann, d_chain).pvalue > 1e-3


# --- martingale structure ---------------------------------------------------

def test_increment_bias_is_martingale_difference():
    N, n, trials = 200, 100, 10000
    be = ExactBackend()
    rtab = dense_table(be.ratio_table(N, n), N, n)
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
    with pytest.raises(ValueError, match="curve nu"):
        sup_distances_of(Z, dataclasses.replace(c, nu=math.nan), 15, 5)
    stair = np.arange(5, -1, -1)[None, :]
    with pytest.raises(ValueError, match="Lambda > 0"):
        sup_distances_of(stair, c, 5, 5)  # Lambda = 0
    with pytest.raises(ValueError, match="1 <= n < N"):
        sup_distances_of(Z, c, 15, 0)  # n = 0, before (N - n)/n


def test_sup_distance_needs_n_plus_one_columns():
    c = solve_completion_curve(1.0, 0.2, richardson_check=False)
    Z = conditioned_paths(62, 31, 2, seed=0)  # rows of a larger N
    for bad in (Z[:, :60], Z, Z[0]):
        with pytest.raises(ValueError, match="N\\+1=61"):
            sup_distances_of(bad, c, 60, 30)
    assert sup_distances_of(Z[:, :61], c, 60, 30).shape == (2,)


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_folds_match_the_whole_grid_reductions():
    # the grid (1801 points), the levels (100) and the window (197 columns) are
    # no multiple of the block; then one grid point, level or column; each on
    # a batch, on its column-major copy (the span layout) and on one row
    c = solve_completion_curve(1.0, 0.2, step=1e-3, richardson_check=False)
    assert len(c.xs) % sampler._FOLD_COLUMNS and 100 % sampler._FOLD_COLUMNS
    one = SimpleNamespace(nu=1.0, xs=np.array([0.73]), ys=np.array([0.5]))
    Z = conditioned_paths(200, 100, 40, seed=2)
    for curve in (c, one):
        for B in (Z, np.asfortranarray(Z), Z[:1]):
            assert _same_bits(sup_distances_of(B, curve, 200, 100),
                              sup_distances_reference(B, curve, 200, 100))
    # windows at the floor boundary: x = 1 + k j, where k y_x = x - 1 is reachable
    for k, n, xs in ((2, 100, np.arange(3, 200)), (2, 1, np.array([2])), (3, 40, np.array([118])),
                     (3, 40, np.array([1, 2, 3])), (3, 40, 1 + 3 * np.arange(41)),
                     (2, 100, 1 + 2 * np.arange(101))):
        Z = conditioned_paths(k * n + 1, n, 40, seed=3)
        for B in (Z, np.asfortranarray(Z), Z[:1]):
            assert _same_bits(_dyck_flags(k, n)(B), dyck_flags_reference(B, k, n)), (k, n)
            assert _same_bits(~_window_clear(k, xs)(B), window_crossed_reference(B, k, xs))
    # both outcomes occur on the 40 rows at (2, 100), so the flags test something
    Z = conditioned_paths(201, 100, 40, seed=3)
    assert 0 < _dyck_flags(2, 100)(Z).sum() < 40
    assert 0 < (~_window_clear(2, np.arange(3, 200))(Z)).sum() < 40


def test_span_reductions_stay_under_a_megabyte():
    # a (2000, 4001) batch: the whole-grid reductions made 10-70 MB of temporaries
    Z = np.tile(conditioned_paths(4000, 2000, 8, seed=2), (250, 1))
    c = solve_completion_curve(1.0, 0.2, step=1e-3, richardson_check=False)
    xs = np.arange(1, 3900)
    for name, reduce in (("sup", lambda: sup_distances_of(Z, c, 4000, 2000)),
                         ("dyck", lambda: _dyck_flags(2, 2000)(Z)),
                         ("window", lambda: _window_clear(2, xs)(Z))):
        _, peak = traced_peak(reduce)
        assert peak < 1e6, (name, peak)


# --- the prefix cull ------------------------------------------------------------

def _opened_substreams(monkeypatch):
    # the (index, offset) of every sub-stream a batch opens in this process
    calls, substreams = [], sampler._substreams

    def recording(seed):
        stream = substreams(seed)

        def opened(index, offset=0):
            calls.append((index, offset))
            return stream(index, offset)

        return opened

    monkeypatch.setattr(sampler, "_substreams", recording)
    return calls


@pytest.mark.parametrize("k, n, seed", [(2, 3, 5), (2, 16, 2 ** 64 - 1), (3, 40, 6), (2, 1000, 7)])
def test_culled_dyck_flags_equal_the_full_matrix_flags(k, n, seed, cpus8):
    # N = 7 is below the prefix, which shrinks to 4 steps, and N = 33 one step
    # past it; 2500 rows at N = 2001
    # make two spans, which jobs=2 forks
    N = k * n + 1
    trials = 2500 if n == 1000 else 300
    dyck = _dyck_flags(k, n)
    full = dyck(conditioned_paths(N, n, trials, seed=seed))
    assert 0 < full.sum() < trials
    for jobs in (1, 2):
        assert _same_bits(conditioned_paths(N, n, trials, seed=seed, jobs=jobs, reduce=dyck), full)


def test_culled_window_flags_equal_the_full_matrix_flags():
    # the windows of test_folds_match_the_whole_grid_reductions, floor boundaries too
    for k, n, xs in ((2, 100, np.arange(3, 200)), (2, 1, np.array([2])), (3, 40, np.array([118])),
                     (3, 40, np.array([1, 2, 3])), (3, 40, 1 + 3 * np.arange(41)),
                     (2, 100, 1 + 2 * np.arange(101))):
        window = _window_clear(k, xs)
        Z = conditioned_paths(k * n + 1, n, 40, seed=3)
        assert _same_bits(conditioned_paths(k * n + 1, n, 40, seed=3, reduce=window), window(Z))


def test_prefix_culls_every_row_or_none(monkeypatch):
    # a floor no level reaches culls every row, one every level meets culls none; a
    # culled row opens only its own sub-stream, a survivor then opens it again 32 draws in
    N, n, trials = 201, 100, 60
    Z = conditioned_paths(N, n, trials, seed=4)
    calls = _opened_substreams(monkeypatch)
    for floor, survivors in ((n + 1, []), (0, list(range(trials)))):
        floors = sampler._Floors(np.array([N - 5, 3]), np.array([floor, 1]))
        calls.clear()
        flags = conditioned_paths(N, n, trials, seed=4, reduce=floors)
        assert _same_bits(flags, floors(Z))
        assert flags.tolist() == [bool(survivors)] * trials
        assert calls == [(i, 0) for i in range(trials)] + [(i, 32) for i in survivors]
    # the k-Dyck test culls some rows, and every accepted row survives
    calls.clear()
    flags = conditioned_paths(N, n, trials, seed=4, reduce=_dyck_flags(2, n))
    assert _same_bits(flags, _dyck_flags(2, n)(Z))
    survivors = {i for i, offset in calls if offset == 32}
    assert set(np.flatnonzero(flags).tolist()) <= survivors < set(range(trials))


def test_survivors_continue_their_own_substreams(monkeypatch):
    # every row that passes the prefix floors reaches the reduction with the
    # path of its own sub-stream: 32 draws, then the other 9 from offset 32
    k, n, N, seed = 2, 20, 41, 2 ** 64 - 1
    seen = []

    class Recording(sampler._Floors):
        def __call__(self, Z):
            seen.extend(Z.tolist())
            return super().__call__(Z)

    dyck = _dyck_flags(k, n)
    flags = conditioned_paths(N, n, 60, seed=seed, reduce=Recording(dyck.xs, dyck.floors))
    dense = dense_table(auto_backend(N, n).ratio_table(N, n), N, n)
    paths = [reversed_chain_reference(dense, N, n, seed, i) for i in range(60)]
    prefix = sampler._Floors(dyck.xs[dyck.xs >= N - 32], dyck.floors[dyck.xs >= N - 32])
    survivors = [z for z, ok in zip(paths, prefix(np.array(paths))) if ok]
    assert seen == survivors and 0 < len(survivors) < 60
    assert _same_bits(flags, dyck(np.array(paths, dtype=np.int32)))


def test_dyck_rejections_are_decided_within_the_prefix():
    # the measurement behind _PREFIX: at (2001, 1000), seed 0, 4,085 of 10,000
    # paths fail the k-Dyck test, and none first falls below a floor after
    # reversed step 24.  Reversed step k j checks y_{k (n - j) + 1} >= n + 1 - j
    k, n, N = 2, 1000, 2001
    steps = k * np.arange(1, n + 1)
    floors = n + 1 - np.arange(1, n + 1)

    def first_violation(Z):
        bad = Z.T[steps] < floors[:, None]
        return np.where(bad.any(axis=0), steps[bad.argmax(axis=0)], N + 1)

    first = conditioned_paths(N, n, 10000, seed=0, jobs=2, reduce=first_violation)
    rejected = first[first <= N]
    assert len(rejected) == 4085
    assert rejected.max() == 24 <= sampler._PREFIX


@pytest.mark.parametrize("fn, args", [(conditioned_paths, (60, 30, 3)),
                                      (sup_distance_batch, (60, 30, 3, 0.2)),
                                      (prefix_law, (60, 30, 3))])
def test_sizes_must_be_integral(fn, args):
    # N, n and trials (prefix_law: s) in turn, then jobs, each given a fractional part
    for i in range(3):
        with pytest.raises(ValueError, match="must be an integer"):
            fn(*args[:i], args[i] + 0.5, *args[i + 1:])
    # integral floats are the integers they equal, down to the record's types
    assert pickle.dumps(fn(*map(float, args))) == pickle.dumps(fn(*args))
    if fn is not prefix_law:
        with pytest.raises(ValueError, match="jobs must be an integer"):
            fn(*args, jobs=1.5)
        for jobs in (0, -1):
            with pytest.raises(ValueError, match="jobs must be >= 1"):
                fn(*args, jobs=jobs)


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


def test_prefix_law_is_within_the_table_bound_of_the_exact_walk():
    # prefix_law reads the LogDP table; the same walk over correctly rounded
    # ratios, ExactBackend.ratio's bits from big integers rolled up from row
    # N - s, stays within s (4N+2)u relative
    for N, n, s in ((2000, 1000, 16), (40, 20, 14)):
        big = {l: stirling_exact(N - s, l) for l in range(n - s, n + 1)}
        R = np.zeros((N + 1, n + 1))
        for m in range(N - s + 1, N + 1):
            row = {l: l * big[l] + big[l - 1] for l in range(n - (N - m), n + 1)}
            R[m, n - (N - m):] = [big[l - 1] / row[l] for l in range(n - (N - m), n + 1)]
            big = row
        assert R[N, n] == ExactBackend().ratio(N, n)
        walk = _prefix_law_dense(N, n, s, R)
        exact = prefix_law(N, n, s)[0]
        assert np.all(np.abs(exact - walk) <= s * (4 * N + 2) * 2.0 ** -53 * walk), (N, n, s)


def test_prefix_law_matches_word_enumeration():
    # every 1 <= n < N <= 7 and s <= N against the law of the first s decrements
    # over all n^N words; a pattern no word takes has exact +0.0
    for N in range(2, 8):
        for n in range(1, N):
            cnt, total = enumerate_surjective_paths(N, n)
            counts = _decrement_counts(cnt, N)
            for s in range(1, N + 1):
                want = [0] * (1 << s)
                for patt, c in counts.items():
                    want[patt & ((1 << s) - 1)] += c
                bound = Fraction(s * (4 * N + 2), 2 ** 53)
                for got, c in zip(prefix_law(N, n, s)[0].tolist(), want):
                    w = Fraction(c, total)
                    assert abs(Fraction(got) - w) <= bound * w, (N, n, s)


def test_prefix_law_digests():
    # sha256 of the bytes the per-pattern Python loop gave before the array passes;
    # (2000, 1000, 16) pinned again for the log-free roll, and (40, 20, 14) once
    # that table became the default at every n (both within the bound test above)
    want = {(12, 11, 12): "78ff049177ba21a3c103aaf5937fae975aafdb62545cbe2b06700e46ae076d72",
            (40, 20, 14): "86c0624616449640c6eac057ab5e23d06f6d10091daeef3a1f02d3b37ea07733",
            (2000, 1000, 16): "e5a1519a8e4e7afe15af59426823ad53528f45fe3032343067a956279d6a23de"}
    for shape, digest in want.items():
        exact, iid, tv = prefix_law(*shape)
        got = hashlib.sha256(exact.tobytes() + iid.tobytes() + repr(tv).encode())
        assert got.hexdigest() == digest, shape


@pytest.mark.parametrize("steps", [None, 7])
def test_prefix_law_reads_the_checkpointed_rows(monkeypatch, steps):
    # the walk over the top block, re-rolled from its checkpoint (and, at
    # B = 7, over the blocks below it), gives the resident table's bytes
    shapes = [(12, 11, 12), (40, 20, 14), (2000, 1000, 16), (2001, 1000, 20)]
    wants = [prefix_law(*shape) for shape in shapes]
    _no_resident_table(monkeypatch, steps)
    for shape, want in zip(shapes, wants):
        got = prefix_law(*shape)
        assert [a.tobytes() for a in got[:2]] == [a.tobytes() for a in want[:2]], shape
        assert repr(got[2]) == repr(want[2]), shape


def test_prefix_law_argument_errors():
    with pytest.raises(ValueError):
        prefix_law(100, 100, 3)
    with pytest.raises(ValueError):
        prefix_law(100, 50, 25)
