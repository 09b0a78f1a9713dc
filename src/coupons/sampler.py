"""Exact simulation of the conditioned (impatient) collector.

The object being sampled is the reversed chain Z: Z_0 = n, Z_N = 0,
and from state (m, l) = (N - t, Z_t) the chain decrements with
probability r(m, l) = {m-1 l-1}/{m l}.  Its law on completion paths is
the uniform-surjection law conditioned on T_n <= N; no asymptotics are
involved.  The ratios come from one table route, `LogDPBackend`'s
log-free float table, within (4m+2) 2^-53 relative of each r;
`backend=ExactBackend()` gives the big-integer table, every ratio
rounded once, and the same seed then gives the same path except with
probability at most (2N^2 + 6N) 2^-53 (`auto_backend`).

Randomness: counter-based Philox streams, one sub-stream per
trajectory index (key = base_seed * 2^64 + index).  Batches are
therefore reproducible and independent of chunking or worker count.

A batch splits into ceil(trials / chunk) spans of rows whose sizes
differ by at most one; with jobs > 1 a count above one is rounded up to
a multiple of jobs, and the spans run in forked worker processes.  Each
span re-keys one Philox bit generator per trajectory instead of building
a generator per row, and draws the rows a cache-sized block at a time.
A span lives in one (N+1) x span float64 buffer, its uniforms and then
its int32 paths.  With `conditioned_paths(..., reduce=f)` every span is
mapped to one value per path and dropped, so memory is one span buffer
and one draw block per process plus the reduced outputs, whatever the
number of trials; the built-in reductions fold over column blocks and
add one such block.
"""

import os
import threading
import time

import numpy as np

from .curve import solve_completion_curve
from .errors import ResourceCapError, integral
from .specialfn import f_drift
from .stirling import LogDPBackend, _band_rows

_TABLE_CAP = 5000  # auto_backend: largest n; the (2n + 1, n) table is 200 MB there


def auto_backend(N, n):
    """The default ratio table: `LogDPBackend`'s, at every n <= 5000.

    ResourceCapError above n = 5000, before any table is built.
    `ExactBackend`, whose ratios are the nearest doubles, is the
    reference and is used only when passed as `backend=`.

    Path-level bound.  With u = 2^-53, a LogDP entry of row m is within
    (4m+2)u r of the exact r (2^-1074 in the subnormal range) and the
    Exact entry within u r, so the two differ by at most (4m+3)u, as
    r <= 1.  A uniform, a multiple of u, falls between them with
    probability at most their gap plus one spacing u, and only there
    does a step of the two tables differ.  The chain reads rows m = N..1
    once each, so with the same uniforms a path from this table differs
    from the Exact-table path with probability at most
    Sum_{m=1}^{N} (4m+4)u = (2N^2 + 6N)u: 8.1e-11 at N = 601, 8.9e-10
    at N = 2001.
    """
    if n > _TABLE_CAP:
        raise ResourceCapError("auto_backend: n=%d exceeds cap %d" % (n, _TABLE_CAP))
    return LogDPBackend()


def _substreams(seed):
    """stream(index): the Generator of sub-stream (seed, index), at its start.

    The key is seed * 2^64 + index, for an integer 0 <= seed < 2^64
    (ValueError otherwise).  Each call re-keys one shared Philox bit
    generator through `.state` (key [index, seed], counter 0, empty
    buffer), so it restarts the stream the previous call returned; the
    draws are those of a generator built fresh for that key.
    """
    seed = integral("seed", seed)
    if not 0 <= seed < 1 << 64:
        raise ValueError("seed must be in [0, 2^64), got %d" % seed)
    bitgen = np.random.Philox(key=0)
    gen = np.random.Generator(bitgen)
    key = np.array([0, seed], dtype=np.uint64)
    zero = np.zeros(4, dtype=np.uint64)
    state = {"bit_generator": "Philox", "state": {"counter": zero, "key": key},
             "buffer": zero, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}

    def stream(index):
        key[0] = index
        bitgen.state = state
        return gen

    return stream


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


def _mapped(count):
    """An empty float64 array of `count` entries on a private mapping of its own.

    malloc serves a request below its mmap threshold from the heap, and
    freeing a mapped block of up to 32 MiB (a ratio table, say) raises
    that threshold to the block's size.  A forked worker shares the heap
    with its parent copy-on-write, so a span buffer placed there faults
    each 4 KiB page it writes.  A mapping of its own, advised for huge
    pages as numpy advises its large arrays, faults the same way
    whatever the process freed before.  Where the platform has no
    huge-page advice, this is np.empty.
    """
    import mmap  # deferred: used only once a span runs
    if not hasattr(mmap, "MADV_HUGEPAGE"):
        return np.empty(count)
    buf = mmap.mmap(-1, 8 * max(count, 1), flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    buf.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(buf, count=count)


_BLOCK_BYTES = 2 << 20  # a draw block: small enough to stay in L2 while it is transposed
_FOLD_COLUMNS = 32  # the columns a built-in reduction reads per step of its fold


def _span_runner(rtab, N, n, stream, size, reduce):
    """run(start, count): the reversed chain for rows start..start+count-1.

    count <= size.  The buffers are mapped when the runner is built and
    kept for every span it runs; a forking parent never touches them, and
    each worker faults its own pages in once.  One mapping of (N+1) * size
    float64 entries holds the span: UT, the (N, count) transposed
    uniforms, starts one row of count entries in, and the int32 ZT
    (N+1, count) starts at its beginning.
    Row i is drawn from stream(i) of `_substreams` into a draw block of
    about _BLOCK_BYTES, a mapping of its own, and each block's transpose is
    copied into UT while the block is still in cache; the time loop then
    reads and writes contiguous rows without temporaries.  Step t reads
    UT[t] and writes ZT[t + 1], which ends at byte 4 * count * (t + 2),
    no later than UT[t + 1] begins (8 * count * (t + 2)), so ZT only
    overwrites uniforms already read.  rtab is a packed band table, read
    through its `_band_rows` views; z stays on the band, so
    take(mode="clip") only skips the checked copy.  Returns a copy of
    reduce(Z), which must have count entries, or, without reduce, the
    (count, N+1) view Z of the runner's buffer, which the next span
    overwrites.
    """
    rows = _band_rows(rtab, N, n)
    block = min(size, max(1, _BLOCK_BYTES // (8 * N)))
    span, B = _mapped((N + 1) * size), _mapped(block * N).reshape(block, N)
    thr_row, step_row = np.empty(size), np.empty(size, dtype=bool)

    def run(start, count):
        UT = span[count:(N + 1) * count].reshape(N, count)
        for i0 in range(0, count, block):
            c = min(block, count - i0)
            for j in range(c):
                stream(start + i0 + j).random(out=B[j])
            np.copyto(UT[:, i0:i0 + c], B[:c].T)
        thr, step = thr_row[:count], step_row[:count]
        ZT = span.view(np.int32)[:(N + 1) * count].reshape(N + 1, count)
        ZT[0] = n
        for t in range(N):
            rows[N - t].take(ZT[t], out=thr, mode="clip")
            np.less(UT[t], thr, out=step)
            np.subtract(ZT[t], step, out=ZT[t + 1])
        if reduce is None:
            return ZT.T
        out = np.array(reduce(ZT.T))  # a copy: a view of ZT would not outlive the span
        if out.shape[:1] != (count,):
            raise ValueError("conditioned_paths: reduce returned shape %r for %d paths"
                             % (out.shape, count))
        return out

    return run


def conditioned_paths(N, n, trials, backend=None, seed=0, jobs=1, reduce=None):
    """Sample `trials` reversed-chain paths; returns int32 array (trials, N+1).

    Row i is drawn from sub-stream (seed, i), so any contiguous batch of
    rows is reproducible in isolation and the result is independent of
    jobs and of internal chunk sizes.  The seed must be an integer in
    [0, 2^64) (ValueError otherwise).

    `backend` defaults to `auto_backend(N, n)`: the log-free float table
    of `LogDPBackend` at every n <= 5000 (ResourceCapError above).
    `backend=ExactBackend()` gives the big-integer table, whose paths
    equal the default's except with probability at most
    (2N^2 + 6N) 2^-53 each.  Any object whose `ratio_table(N, n)`
    returns a table in the packed band layout of `stirling._band` serves:
    a 1-D float64 array holding, for m = 1..N in turn, r(m, l) for
    max(1, m - (N - n)) <= l <= min(m, n), and nothing else.  The chain
    reads only those entries.

    The rows run in ceil(trials / chunk) equal spans, their sizes
    differing by at most one row, with chunk about 4e6/(N+1) rows.
    With `reduce`, each span of paths, a (count, N+1) int32 view of the
    span's buffer, is passed to `reduce`, which must return an array of
    count entries (ValueError otherwise); a copy of it is kept, so it may
    be a view of the span.  The result is those arrays concatenated in
    trajectory order, and no path matrix is kept: memory is one span
    buffer of (N+1) x span float64 (at most 32 MB while N < 15625), a
    draw block of at most 2 MiB and the reduced outputs.  The built-in
    reductions (`sup_distances_of`, and the k-Dyck and window-crossing
    tests of `automata`) are folds over blocks of _FOLD_COLUMNS columns,
    so each adds one column block of the span, _FOLD_COLUMNS x span
    entries, not a temporary the size of the span.

    `jobs` is first capped at the number of CPUs this process may use.
    With jobs > 1 and more than one span, the span count is rounded up to
    a multiple of `jobs` (at most one span per trial), and the spans run
    in min(jobs, spans) worker processes forked from this one: the ratio table and `reduce`
    reach them copy-on-write as the pool initializer's arguments, which
    fork does not pickle, and each sends back only its reduced arrays
    (its int32 rows without `reduce`).  Each worker holds one span
    buffer and one draw block, and the workers have exited when this
    returns; an exception raised in a worker is re-raised here.  Where
    the platform cannot fork, the spans run serially in this process,
    with the same output.
    Python 3.12 and later warn when forking a process that runs threads,
    as numpy's OpenBLAS pool does.
    """
    N = integral("conditioned_paths: N", N)
    n = integral("conditioned_paths: n", n)
    trials = integral("conditioned_paths: trials", trials)
    jobs = integral("conditioned_paths: jobs", jobs)
    if not (1 <= n <= N):
        raise ValueError("conditioned_paths: need 1 <= n <= N")
    if trials < 1:
        raise ValueError("conditioned_paths: trials must be >= 1")
    if jobs < 1:
        raise ValueError("conditioned_paths: jobs must be >= 1")
    stream = _substreams(seed)  # checks the seed before the table is built
    if backend is None:
        backend = auto_backend(N, n)
    rtab = backend.ratio_table(N, n)

    chunk = max(256, min(65536, int(4e6 // (N + 1))))
    jobs = min(jobs, _cpus())  # the output does not depend on jobs
    spans = -(-trials // chunk)
    if jobs > 1 and spans > 1:
        spans = min(trials, -(-spans // jobs) * jobs)
    size, extra = divmod(trials, spans)
    starts = [i * size + min(i, extra) for i in range(spans)]
    counts = [size + (i < extra) for i in range(spans)]
    run = _span_runner(rtab, N, n, stream, counts[0], reduce)
    workers = min(jobs, spans)
    if workers > 1:
        import multiprocessing  # deferred: about 15 ms of import, used only here
        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor
            ctx = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(max_workers=workers, mp_context=ctx,
                                     initializer=_start_worker, initargs=(run,)) as pool:
                return _gather(pool.map(_forked_span, starts, counts), starts, counts, N, reduce)
    return _gather(map(run, starts, counts), starts, counts, N, reduce)


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

    y_l is the number of distinct labels among l i.i.d. uniform draws,
    and T_n the draw that completes the collection.  The run is drawn by
    its waiting times: with j labels held, the next new one takes a
    Geometric((n - j)/n) number of draws, independently of the past, so
    T_n is the sum of n independent gaps and y holds the value j for
    gap j draws.  This is the law of the label-by-label run, drawn in
    O(n) instead of about n ln n labels.  The gaps come from Philox
    sub-stream (seed, 0).
    """
    n = integral("sample_patient: n", n)
    if n < 1:
        raise ValueError("sample_patient: n must be >= 1")
    gaps = _substreams(seed)(0).geometric((n - np.arange(n)) / n)
    return np.append(np.repeat(np.arange(n), gaps), n), int(gaps.sum())


def sup_distances_of(Z, curve, N, n):
    """sup over the curve grid of |y_{floor(n x)}/n - zeta(nu, x)| for each
    row of a batch Z from conditioned_paths; the curve's nu must be (N-n)/n.

    Z must be 2-D with N+1 columns (ValueError otherwise).  The max is a
    running fold over blocks of _FOLD_COLUMNS grid points, worked in one
    (_FOLD_COLUMNS, rows) buffer, so the temporaries do not grow with the
    grid; max is exact, so the bits are those of one pass over the grid.
    """
    if N <= n:
        raise ValueError("sup_distance: need N > n (Lambda > 0)")
    nu = (N - n) / n
    if not abs(curve.nu - nu) <= 1e-9:  # nan fails it too
        raise ValueError("sup_distance: curve nu=%r but (N-n)/n=%r" % (curve.nu, nu))
    Z = np.asarray(Z)
    if Z.ndim != 2 or Z.shape[1] != N + 1:
        raise ValueError("sup_distance: need paths of shape (rows, N+1=%d), got %r"
                         % (N + 1, Z.shape))
    ZT = Z.T  # a span's paths are column-major: ZT[i] is contiguous
    cols = N - np.clip(np.floor(n * curve.xs + 1e-9).astype(np.int64), 0, N)
    ys = curve.ys[:, None]
    d = np.zeros(len(Z))  # every |.| is >= +0.0, so a max with it changes no bit
    block = np.empty((_FOLD_COLUMNS, len(Z)))
    for j in range(0, len(cols), _FOLD_COLUMNS):
        c = cols[j:j + _FOLD_COLUMNS]
        v = block[:len(c)]
        np.divide(ZT[c], n, out=v)
        np.subtract(v, ys[j:j + _FOLD_COLUMNS], out=v)
        np.abs(v, out=v)
        np.maximum(d, v.max(axis=0), out=d)
    return d


def _above_floors(Z, cols, floors):
    """Z[:, cols[j]] >= floors[j] for every j, on each row of a batch Z, as a
    running AND over blocks of _FOLD_COLUMNS columns."""
    ZT = Z.T  # a span's paths are column-major: ZT[i] is contiguous
    ok = np.ones(len(Z), dtype=bool)
    for j in range(0, len(cols), _FOLD_COLUMNS):
        ok &= np.all(ZT[cols[j:j + _FOLD_COLUMNS]] >= floors[j:j + _FOLD_COLUMNS, None], axis=0)
    return ok


def sup_distance_batch(N, n, trials, a, seed=0, jobs=1):
    """Monte-Carlo batch of sup-distances against the limit curve (RK4 step 1e-3).

    The curve must pass the closed-form check of solve_completion_curve
    (NumericsError otherwise) before any path is drawn.  Returns the
    batch-statistics dict (JSON-ready): parameters, the per-trajectory
    distances, and quantiles.
    """
    N = integral("sup_distance_batch: N", N)
    n = integral("sup_distance_batch: n", n)
    trials = integral("sup_distance_batch: trials", trials)
    nu = (N - n) / n
    if nu <= 0.0:
        raise ValueError("sup_distance_batch: need N > n")
    curve = solve_completion_curve(nu, a, step=1e-3)
    d = conditioned_paths(N, n, trials, seed=seed, jobs=jobs,
                          reduce=lambda Z: sup_distances_of(Z, curve, N, n))
    qs = np.quantile(d, [0.05, 0.25, 0.5, 0.75, 0.95])
    return {
        "N": N, "n": n, "nu": nu, "a": float(a),
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
    The reference law is i.i.d. Bernoulli(rho(Lambda)) per step.  exact
    walks the `auto_backend` table, so each pattern is within
    s (4N+2) 2^-53 relative of the same walk over correctly rounded ratios.
    """
    N = integral("prefix_law: N", N)
    n = integral("prefix_law: n", n)
    s = integral("prefix_law: s", s)
    if not (1 <= n < N):
        raise ValueError("prefix_law: need 1 <= n < N")
    if not (1 <= s <= min(20, N)):
        raise ValueError("prefix_law: need 1 <= s <= min(20, N)")
    rows = _band_rows(auto_backend(N, n).ratio_table(N, n), N, n)
    rho = f_drift((N - n) / n)

    patt = np.arange(1 << s)
    l = np.full(1 << s, n)
    exact = np.ones(1 << s)
    for j in range(s):
        # a pattern leaves the band only through a factor 0, r(m, m) = 1 kept
        # or r(m, 1) = 0 taken, so exact is +0.0 wherever the clip reads off it
        r = rows[N - j].take(l, mode="clip")
        step = (patt >> j) & 1
        exact *= np.where(step, r, 1.0 - r)
        l -= step
    iid = np.array([rho ** i * (1.0 - rho) ** (s - i) for i in range(s + 1)])[n - l]
    tv = 0.5 * float(np.abs(exact - iid).sum())
    return exact, iid, tv
