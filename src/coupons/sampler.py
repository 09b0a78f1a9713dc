"""Exact simulation of the conditioned (impatient) collector.

The object being sampled is the reversed chain Z: Z_0 = n, Z_N = 0,
and from state (m, l) = (N - t, Z_t) the chain decrements with
probability r(m, l) = {m-1 l-1}/{m l}.  With the exact backend the
resulting law on completion paths is EXACTLY the uniform-surjection
law conditioned on T_n <= N; no asymptotics are involved.

Randomness: counter-based Philox streams, one sub-stream per
trajectory index (key = base_seed * 2^64 + index).  Batches are
therefore reproducible and independent of chunking or worker count.

Batches are drawn in spans of rows; each span re-keys one Philox bit
generator per trajectory instead of building a generator per row.  With
`conditioned_paths(..., reduce=f)` every span is mapped to one value per
path and dropped, so memory is one span's buffers per process plus the
reduced outputs, whatever the number of trials.  With jobs > 1 the spans
run in forked worker processes.
"""

import os
import threading
import time

import numpy as np

from .curve import solve_completion_curve
from .specialfn import f_drift
from .stirling import ExactBackend, LogDPBackend

_U64 = (1 << 64) - 1


def _rng(seed, index):
    """Philox generator for one trajectory sub-stream."""
    key = ((int(seed) & _U64) << 64) | (int(index) & _U64)
    return np.random.Generator(np.random.Philox(key=key))


def auto_backend(N, n):
    """Default backend choice: Exact for n <= 300, LogDP for n <= 5000."""
    if n <= 300:
        return ExactBackend()
    if n <= 5000:
        return LogDPBackend()
    raise ValueError("auto_backend: n=%d too large (max 5000 via LogDP)" % n)


def _substreams(seed):
    """draw(index, out): fill `out` with the uniforms of sub-stream (seed, index).

    One Philox bit generator is re-keyed through `.state` (key [index, seed],
    counter 0, empty buffer) before each draw, which gives the bits of a
    fresh `_rng(seed, index)` without building a generator per trajectory.
    """
    bitgen = np.random.Philox(key=0)
    gen = np.random.Generator(bitgen)
    key = np.array([0, int(seed) & _U64], dtype=np.uint64)
    zero = np.zeros(4, dtype=np.uint64)
    state = {"bit_generator": "Philox", "state": {"counter": zero, "key": key},
             "buffer": zero, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}

    def draw(index, out):
        key[0] = int(index) & _U64
        bitgen.state = state
        gen.random(out=out)

    return draw


def _cpus():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


_span = None  # in a forked worker: the span function of its batch


def _start_worker(run):
    """Pool initializer: install `run`, and exit once the parent has gone.

    A forked worker holds copies of its pool's pipe ends, so it would wait
    forever for work from a parent that was killed; a daemon thread
    watches for the change of parent instead.
    """
    global _span
    _span = run
    parent = os.getppid()

    def watch():
        while os.getppid() == parent:
            time.sleep(0.2)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _forked_span(start, count):
    return _span(start, count)


def _span_runner(rtab, N, n, seed, size, reduce):
    """run(start, count): the reversed chain for rows start..start+count-1.

    count <= size.  The buffers are allocated on the first call and kept
    for every later span of the same runner, so a worker faults its pages
    in once.  Rows are drawn per trajectory into U, then one transpose
    copy UT lets the time loop read and write contiguous rows without
    temporaries; the int32 ZT is written over U's memory once the
    transpose has consumed it, so the peak is U + UT.  z stays in [0, n],
    so take(mode="clip") skips the checked copy.  Returns reduce(Z) or,
    without reduce, the (count, N+1) view Z of the runner's buffer, which
    the next span overwrites.
    """
    draw = _substreams(seed)
    bufs = []

    def run(start, count):
        if not bufs:
            bufs.extend((np.empty(size * N), np.empty(size * N),
                         np.empty(size), np.empty(size, dtype=bool)))
        U = bufs[0][:count * N].reshape(count, N)
        for i in range(count):
            draw(start + i, U[i])
        UT = bufs[1][:count * N].reshape(N, count)
        np.copyto(UT, U.T)
        thr, step = bufs[2][:count], bufs[3][:count]
        ZT = bufs[0].view(np.int32)[:(N + 1) * count].reshape(N + 1, count)
        ZT[0] = n
        for t in range(N):
            np.take(rtab[N - t], ZT[t], out=thr, mode="clip")
            np.less(UT[t], thr, out=step)
            np.subtract(ZT[t], step, out=ZT[t + 1])
        return ZT.T if reduce is None else reduce(ZT.T)

    return run


def conditioned_paths(N, n, trials, backend=None, seed=0, jobs=1, reduce=None):
    """Sample `trials` reversed-chain paths; returns int32 array (trials, N+1).

    Row i is drawn from sub-stream (seed, i), so any contiguous batch of
    rows is reproducible in isolation and the result is independent of
    jobs and of internal chunk sizes.

    The rows run in spans of at most one chunk, about 4e6/(N+1) rows.
    With `reduce`, each span of paths, a (count, N+1) int32 view of the
    span's buffer, is passed to `reduce`, which must return a new
    length-count array.  The result is those arrays concatenated in
    trajectory order, and no path matrix is kept: memory is one span's
    buffers (at most about 64 MB while N < 15625) plus the reduced outputs.

    `jobs` is first capped at the number of CPUs this process may use.
    With jobs > 1 and more than one chunk, the trials are split into
    equal spans, a multiple of `jobs` of them, and run by min(jobs, spans)
    worker processes forked from this one: the ratio table and `reduce`
    reach them copy-on-write as the pool initializer's arguments, which
    fork does not pickle, and each sends back only its reduced arrays
    (its int32 rows without `reduce`).  Each worker holds one span's
    buffers, and the workers have exited when this returns; an exception
    raised in a worker is re-raised here.  Where the platform cannot fork,
    the spans run serially in this process, with the same output.
    Python 3.12 and later warn when forking a process that runs threads,
    as numpy's OpenBLAS pool does.
    """
    if not (1 <= n <= N):
        raise ValueError("conditioned_paths: need 1 <= n <= N")
    if trials < 1:
        raise ValueError("conditioned_paths: trials must be >= 1")
    if backend is None:
        backend = auto_backend(N, n)
    rtab = backend.ratio_table(N, n)

    chunk = max(256, min(65536, int(4e6 // (N + 1))))
    starts = list(range(0, trials, chunk))
    jobs = min(jobs, _cpus())  # the output does not depend on jobs
    ctx = None
    if jobs > 1 and len(starts) > 1:
        count = min(trials, -(-len(starts) // jobs) * jobs)
        size, extra = divmod(trials, count)
        starts = [i * size + min(i, extra) for i in range(count)]
        import multiprocessing  # deferred: about 15 ms of import, used only here
        if "fork" in multiprocessing.get_all_start_methods():
            ctx = multiprocessing.get_context("fork")
    counts = np.diff(starts + [trials]).tolist()
    run = _span_runner(rtab, N, n, seed, max(counts), reduce)
    if ctx is None:
        return _gather(map(run, starts, counts), starts, counts, N, reduce)

    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=min(jobs, len(starts)), mp_context=ctx,
                             initializer=_start_worker, initargs=(run,)) as pool:
        return _gather(pool.map(_forked_span, starts, counts), starts, counts, N, reduce)


def _gather(parts, starts, counts, N, reduce):
    """The batch from its spans' results, taken in order as they arrive."""
    if reduce is not None:
        return np.concatenate(list(parts))
    Z = np.empty((sum(counts), N + 1), dtype=np.int32)
    for start, count, part in zip(starts, counts, parts):
        Z[start:start + count] = part
    return Z


def sample_patient(n, seed=0):
    """Unconditioned collector run: returns (y_0..y_T, T_n).

    Draws i.i.d. uniform labels until all n have appeared; y_l is the
    number of distinct labels after l draws.
    """
    if n < 1:
        raise ValueError("sample_patient: n must be >= 1")
    rng = _rng(seed, 0)
    seen = np.zeros(n, dtype=bool)
    count = 0
    pieces = []
    block = max(4 * n, 64)
    while count < n:
        w = rng.integers(0, n, size=block)
        uniq, first = np.unique(w, return_index=True)
        fresh = ~seen[uniq]
        inc = np.zeros(block, dtype=np.int64)
        inc[first[fresh]] = 1
        pieces.append(count + np.cumsum(inc))
        seen[uniq[fresh]] = True
        count += int(fresh.sum())
    y = np.concatenate(pieces)
    T = int(np.argmax(y == n)) + 1
    return np.concatenate(([0], y[:T])), T


def rejection_paths(N, n, count, seed=0):
    """Uniform words over [1..n]^N filtered to surjections; reversed paths.

    Returns an int32 array (count, N+1) in the same orientation as
    conditioned_paths.  Independent of the Markov-chain route — this is
    the direct-conditioning oracle.
    """
    if not (1 <= n <= N):
        raise ValueError("rejection_paths: need 1 <= n <= N")
    if n > 30:
        raise ValueError("rejection_paths: n too large for word enumeration")
    max_attempts = max(1000 * count, 100000)
    rng = _rng(seed, 0)
    got, attempts = [], 0
    have = 0
    while have < count:
        if attempts >= max_attempts:
            raise RuntimeError(
                "rejection_paths: %d attempts exhausted with %d/%d accepted"
                % (attempts, have, count))
        m = min(8192, max_attempts - attempts)
        W = rng.integers(1, n + 1, size=(m, N))
        attempts += m
        srt = np.sort(W, axis=1)
        surj = (np.count_nonzero(np.diff(srt, axis=1), axis=1) + 1) == n
        acc = W[surj]
        if len(acc):
            got.append(acc[:count - have])
            have += len(got[-1])
    W = np.concatenate(got)
    seen = np.logical_or.accumulate(W[:, :, None] == np.arange(1, n + 1), axis=1)
    Y = np.pad(seen.sum(axis=2), ((0, 0), (1, 0)))  # forward paths, y_0 = 0
    return Y[:, ::-1].astype(np.int32)


def sup_distances_of(Z, curve, N, n):
    """sup over the curve grid of |y_{floor(n x)}/n - zeta(nu, x)| for each
    row of a batch Z from conditioned_paths; the curve's nu must be (N-n)/n."""
    if N <= n:
        raise ValueError("sup_distance: need N > n (Lambda > 0)")
    nu = (N - n) / n
    if abs(curve.nu - nu) > 1e-9:
        raise ValueError("sup_distance: curve nu=%r but (N-n)/n=%r" % (curve.nu, nu))
    idx = np.clip(np.floor(n * curve.xs + 1e-9).astype(np.int64), 0, N)
    vals = Z[:, N - idx] / n
    return np.max(np.abs(vals - curve.ys[None, :]), axis=1)


def sup_distance_batch(N, n, trials, a, seed=0, jobs=1, step=1e-3):
    """Monte-Carlo batch of sup-distances against the solved limit curve.

    Returns the batch-statistics dict (JSON-ready): parameters, the
    per-trajectory distances, and quantiles.
    """
    nu = (N - n) / n
    if nu <= 0.0:
        raise ValueError("sup_distance_batch: need N > n")
    curve = solve_completion_curve(nu, a, step=step, richardson_check=False)
    d = conditioned_paths(N, n, trials, seed=seed, jobs=jobs,
                          reduce=lambda Z: sup_distances_of(Z, curve, N, n))
    qs = np.quantile(d, [0.05, 0.25, 0.5, 0.75, 0.95])
    return {
        "N": int(N), "n": int(n), "nu": nu, "a": float(a),
        "seed": int(seed), "seeds": list(range(trials)),
        "sup_distances": [float(x) for x in d],
        "quantiles": {"q05": float(qs[0]), "q25": float(qs[1]),
                      "q50": float(qs[2]), "q75": float(qs[3]),
                      "q95": float(qs[4])},
    }


def prefix_law(N, n, s):
    """Exact law of the first s decrement indicators of the reversed chain.

    Returns (exact, iid, tv): arrays over the 2^s patterns (bit j of the
    index is the step-j indicator) and their total-variation distance.
    The reference law is i.i.d. Bernoulli(rho(Lambda)) per step.
    """
    if not (1 <= n < N):
        raise ValueError("prefix_law: need 1 <= n < N")
    if not (1 <= s <= min(20, N)):
        raise ValueError("prefix_law: need 1 <= s <= min(20, N)")
    rtab = auto_backend(N, n).ratio_table(N, n)
    rho = f_drift((N - n) / n)

    patt = np.arange(1 << s)
    l = np.full(1 << s, n)
    exact = np.ones(1 << s)
    for j in range(s):
        band = (1 <= l) & (l <= N - j)  # read r only there, 0 elsewhere
        r = np.zeros(1 << s)
        r[band] = rtab[N - j, l[band]]
        step = (patt >> j) & 1
        exact *= np.where(step, r, 1.0 - r)
        l -= step
    iid = np.array([rho ** i * (1.0 - rho) ** (s - i) for i in range(s + 1)])[n - l]
    tv = 0.5 * float(np.abs(exact - iid).sum())
    return exact, iid, tv
