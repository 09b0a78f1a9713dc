"""Exact simulation of the conditioned (impatient) collector.

The object being sampled is the reversed chain Z: Z_0 = n, Z_N = 0,
and from state (m, l) = (N - t, Z_t) the chain decrements with
probability r(m, l) = {m-1 l-1}/{m l}.  Its law on completion paths is
the uniform-surjection law conditioned on T_n <= N; no asymptotics are
involved.  The ratios come from one table route, `LogDPBackend`'s
log-free float table, within (4m+2) 2^-53 relative of each r;
`backend=ExactBackend()` gives the big-integer table, every ratio
rounded once; `auto_backend` bounds how often the same seed then gives
a different path.  The chain reads the rows r(m, .) from m = N down to
1 through `stirling._RatioRows`, a block of steps at a time: the whole
band while the default table fits in _TABLE_BUDGET bytes (and for any
`backend=`), and above that a checkpoint every B ~ sqrt(N) rows, each
block re-rolled from its checkpoint over the levels a span's rows can
reach in it, bit for bit the resident table's entries.

Randomness: counter-based Philox streams, one sub-stream per
trajectory index (key = base_seed * 2^64 + index).  Batches are
therefore reproducible and independent of chunking or worker count.

A batch splits into ceil(trials / chunk) spans of rows whose sizes
differ by at most one; with jobs > 1 a count above one is rounded up to
a multiple of jobs, and the spans run in forked worker processes.  Each
span re-keys one Philox bit generator per trajectory.  `_span_runner`
allocates a batch's span buffer and draw block as plain numpy arrays
and has one route that draws and steps a span's rows, a block at a
time; under a floors reduction (`_Floors`: the k-Dyck and window tests
of `automata`) it takes that route twice, culling rows after the first
_PREFIX steps.  No byte of any output depends on the cull.
`conditioned_paths` states what a caller gets, and the memory a batch
with `reduce=` holds whatever the number of trials.
"""

import os
import threading
import time

import numpy as np

from .curve import solve_completion_curve
from .errors import integral
from .specialfn import f_drift
from .stirling import LogDPBackend, _band, _check_band, _RatioRows

_TABLE_BUDGET = 16 << 20  # bytes: a larger default band table is checkpointed, not kept


def auto_backend(N, n):
    """The default ratio table: `LogDPBackend`'s.

    ResourceCapError, before any roll, where the band of (N, n) holds
    over 5 * 10^8 entries (`surjection_log_probability`'s cap).
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
    _check_band("auto_backend", N, n)
    return LogDPBackend()


def _ratio_rows(N, n, backend=None):
    """The rows of the chain from (N, n), a `stirling._RatioRows`.

    The default table is checkpointed where its packed band would take
    more than _TABLE_BUDGET bytes, and resident otherwise; a `backend`'s
    table is resident.
    """
    if backend is None:
        backend = auto_backend(N, n)
        if 8 * _band(N, n)[3] > _TABLE_BUDGET:
            return _RatioRows(N, n)
    return _RatioRows(N, n, backend.ratio_table(N, n))


def _substreams(seed):
    """stream(index, offset=0): the Generator of sub-stream (seed, index),
    `offset` draws in.

    The key is seed * 2^64 + index, for an integer 0 <= seed < 2^64
    (ValueError otherwise).  Each call re-keys one shared Philox bit
    generator through `.state` (key [index, seed], counter offset / 4,
    empty buffer), so it restarts the stream the previous call returned;
    the draws are those of a generator built fresh for that key after it
    has drawn `offset` 64-bit words.  One Philox block holds four words,
    so the offset must be a multiple of 4 and at least 0 (ValueError
    otherwise).  The state dict holds its words as lists of Python ints,
    which the setter reads element by element faster than the scalars of
    uint64 arrays: a call costs about 0.38 us instead of 0.89 us (2-core
    Xeon, Python 3.11.7, numpy 2.4.6).
    """
    seed = integral("seed", seed)
    if not 0 <= seed < 1 << 64:
        raise ValueError("seed must be in [0, 2^64), got %d" % seed)
    bitgen = np.random.Philox(key=0)
    gen = np.random.Generator(bitgen)
    key, counter = [0, seed], [0, 0, 0, 0]
    state = {"bit_generator": "Philox", "state": {"counter": counter, "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}

    def stream(index, offset=0):
        if offset < 0 or offset % 4:
            raise ValueError("sub-stream offset must be a multiple of 4 and >= 0, got %r"
                             % (offset,))
        key[0] = index
        counter[0] = offset // 4
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


_BLOCK_BYTES = 2 << 20  # a draw block: small enough to stay in L2 while it is transposed
_FOLD_COLUMNS = 32  # the columns a built-in reduction reads per step of its fold
_PREFIX = 32  # the steps a floors reduction checks before it culls: 8 Philox blocks of 4 draws


class _Floors:
    """The reduction y_x >= floors[j] at every x = xs[j], for each path.

    On a batch Z of reversed paths y_x is Z[:, N - x], with N + 1 = Z.shape[1],
    so a floor at x is decided at reversed step N - x.  Passed to
    `conditioned_paths` as `reduce`, it lets each span drop the rows that
    fall below a floor within the first _PREFIX steps (see `_span_runner`).
    """

    def __init__(self, xs, floors):
        self.xs, self.floors = xs, floors

    def __call__(self, Z):
        return _above_floors(Z, Z.shape[1] - 1 - self.xs, self.floors)


def _span_runner(rows, N, n, stream, size, reduce):
    """run(start, count): the reversed chain for rows start..start+count-1,
    on the ratio rows `rows`, a `stirling._RatioRows`.

    count <= size.  The buffers are numpy arrays allocated when the runner
    is built and reused by every span it runs: the float64 span buffer of
    (N+1) * size entries, the draw block and two step rows.
    The span buffer holds, for w rows, the int32 levels ZT (N+1, w) from
    its beginning and the uniform of step t for the w rows at floats
    w(t+1) .. w(t+2).  ZT[t+1] ends at byte 4w(t+2), no later than the
    uniforms of step t begin, so the chain overwrites only uniforms
    already read.  walk(start, keep, ZT, t0, t1) runs steps t0 .. t1-1 of
    rows start + keep: row i draws them from stream(i, t0) of `_substreams`
    into a draw block of _BLOCK_BYTES // (8N) rows, and each block's
    transpose is copied into the span buffer while the block is still in
    cache, so the time loop reads and writes contiguous rows without
    temporaries.  The chain steps one block of B rows at a time: at its
    first step a, with levels z, it asks for the block valid on
    [min z - (steps left in the block), max z], the levels its rows can
    reach in it, so a span re-rolls each checkpointed block at most once,
    the prefix's last block included.  z stays on the band, so
    take(mode="clip") only skips the checked copy.
    The prefix: under a `_Floors` reduction with a floor at a reversed
    step <= p, p = _PREFIX or N rounded down to a multiple of 4 below
    that, all rows walk the first p steps.  A row then below such a floor
    is final as False and is dropped, and the s survivors' levels are laid
    out again at stride s to walk the other N - p steps, so each row still
    reads its own sub-stream in order.  Under any other reduction, or
    none, p = 0 and every row survives.  Returns a copy of reduce(Z) on
    the survivors, which must have s entries, with False at each dropped
    row, or, without reduce, the (count, N+1) view Z of the runner's
    buffer, which the next span overwrites.
    """
    p, cull = 0, None  # the prefix steps, and the floors they decide
    if isinstance(reduce, _Floors):
        cols, most = N - reduce.xs, min(_PREFIX, N - N % 4)
        if (cols <= most).any():
            p, cull = most, (cols[cols <= most], reduce.floors[cols <= most])
    block = min(size, max(1, _BLOCK_BYTES // (8 * N)))
    span, draws = np.empty((N + 1) * size), np.empty(block * N)
    thr_row, step_row = np.empty(size), np.empty(size, dtype=bool)

    def levels(w):
        return span.view(np.int32)[:(N + 1) * w].reshape(N + 1, w)

    def walk(start, keep, ZT, t0, t1):
        w = len(keep)
        if not w:
            return  # every row was culled
        UT = span[w * (t0 + 1):w * (t1 + 1)].reshape(t1 - t0, w)
        D = draws[:block * (t1 - t0)].reshape(block, t1 - t0)
        for i0 in range(0, w, block):
            c = min(block, w - i0)
            for j, i in enumerate(keep[i0:i0 + c].tolist()):
                stream(start + i, t0).random(out=D[j])
            np.copyto(UT[:, i0:i0 + c], D[:c].T)
        thr, step = thr_row[:w], step_row[:w]
        for k in range(t0 // rows.B, -(-t1 // rows.B)):
            k0, k1 = k * rows.B, k * rows.B + rows.B  # the steps of block k
            a, e = max(t0, k0), min(t1, k1)
            z = ZT[a]
            rows_k = rows.block(k, int(z.min()) - (k1 - a), int(z.max()))
            for row, u, z1 in zip(rows_k[a - k0:e - k0], UT[a - t0:e - t0], ZT[a + 1:e + 1]):
                row.take(z, out=thr, mode="clip")
                np.less(u, thr, step)
                np.subtract(z, step, z1)
                z = z1

    def run(start, count):
        keep, ZT = np.arange(count), levels(count)
        ZT[0] = n
        if cull is not None:
            walk(start, keep, ZT, 0, p)
            keep = np.flatnonzero(_above_floors(ZT[:p + 1].T, *cull))
            prefix = ZT[:p + 1, keep]  # a copy, laid out again at stride s
            ZT = levels(len(keep))
            ZT[:p + 1] = prefix
        walk(start, keep, ZT, p, N)
        s = len(keep)
        if reduce is None:
            return ZT.T
        out = np.array(reduce(ZT.T))  # a copy: a view of ZT would not outlive the span
        if out.shape[:1] != (s,):
            raise ValueError("conditioned_paths: reduce returned shape %r for %d paths"
                             % (out.shape, s))
        if s == count:
            return out
        flags = np.zeros(count, dtype=bool)
        flags[keep] = out
        return flags

    return run


def conditioned_paths(N, n, trials, backend=None, seed=0, jobs=1, reduce=None):
    """Sample `trials` reversed-chain paths; returns int32 array (trials, N+1).

    Row i is drawn from sub-stream (seed, i), so any contiguous batch of
    rows is reproducible in isolation and the result is independent of
    jobs and of internal chunk sizes.  The seed must be an integer in
    [0, 2^64) (ValueError otherwise).

    `backend` defaults to `auto_backend(N, n)`: the log-free float table
    of `LogDPBackend`, up to 5 * 10^8 band entries N * min(n, N - n + 1)
    (ResourceCapError above, before any roll).
    `backend=ExactBackend()` gives the big-integer table, whose paths
    equal the default's except with the probability `auto_backend`
    bounds.  Any object whose `ratio_table(N, n)`
    returns a table in the packed band layout of `stirling._band` serves:
    a 1-D float64 array holding, for m = 1..N in turn, r(m, l) for
    max(1, m - (N - n)) <= l <= min(m, n), and nothing else.  The chain
    reads only those entries.

    Table memory.  A `backend=` table is resident, and so is the default
    one while its packed band takes at most _TABLE_BUDGET = 16 MiB
    ((2001, 1000) takes 7.6 MiB).  Above that the default table is not
    kept: one upward pass of its roll keeps the s row every B =
    isqrt(N) + 1 rows, (N/B)(n+1) x 8 bytes, and one (B, n+1) block of
    rows, and each span re-rolls each block from its checkpoint over the
    levels its rows can reach there (`stirling._RatioRows`).  That is
    2.0 MB in place of 30.5 MiB at (4001, 2000), and 10.6 MB in place
    of 275 MiB at (12001, 6000).  The paths are the same bytes either way.

    The rows run in ceil(trials / chunk) equal spans, their sizes
    differing by at most one row, with chunk about 4e6/(N+1) rows.
    With `reduce`, each span of paths, a (count, N+1) int32 view of the
    span's buffer, is passed to `reduce`, which must return an array of
    count entries (ValueError otherwise); a copy of it is kept, so it may
    be a view of the span.  The result is those arrays concatenated in
    trajectory order, and no path matrix is kept: memory is one span
    buffer of (N+1) x span float64 (32 MB while N < 15625), which holds
    the uniforms and int32 levels of every step, a draw block of at most
    2 MiB and the reduced outputs, all numpy arrays, which tracemalloc
    counts.  The built-in reductions (`sup_distances_of`, and the k-Dyck
    and window-crossing tests of `automata`) are folds over blocks of
    _FOLD_COLUMNS columns, so each adds one column block of the span,
    _FOLD_COLUMNS x span entries, not a temporary the size of the span.
    The k-Dyck and window tests are floors reductions (`_Floors`): a span
    may decide rows False within the first _PREFIX reversed steps
    (`_span_runner`), and `reduce` then sees only the other rows.  The
    flags are those of the full path matrix.

    `jobs` is first capped at the number of CPUs this process may use.
    With jobs > 1 and more than one span, the span count is rounded up to
    a multiple of `jobs` (at most one span per trial), and the spans run
    in min(jobs, spans) worker processes forked from this one: the ratio rows and `reduce`
    reach them copy-on-write as the pool initializer's arguments, which
    fork does not pickle, and each sends back only its reduced arrays
    (its int32 rows without `reduce`).  Each worker holds one span buffer
    and one draw block, and writes its own copy of a checkpointed table's
    block, and the workers have exited when this returns; an exception
    raised in a worker is re-raised here.  Where the platform cannot
    fork, the spans run serially in this process, with the same output.
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
    rows = _ratio_rows(N, n, backend)

    chunk = max(256, min(65536, int(4e6 // (N + 1))))
    jobs = min(jobs, _cpus())  # the output does not depend on jobs
    spans = -(-trials // chunk)
    if jobs > 1 and spans > 1:
        spans = min(trials, -(-spans // jobs) * jobs)
    size, extra = divmod(trials, spans)
    starts = [i * size + min(i, extra) for i in range(spans)]
    counts = [size + (i < extra) for i in range(spans)]
    run = _span_runner(rows, N, n, stream, counts[0], reduce)
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
    if not 1 <= n < N:
        raise ValueError("sup_distance: need 1 <= n < N (Lambda > 0), got N=%r, n=%r" % (N, n))
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
    if not 1 <= n < N:
        raise ValueError("sup_distance_batch: need 1 <= n < N, got N=%d, n=%d" % (N, n))
    if trials < 1:
        raise ValueError("sup_distance_batch: trials must be >= 1")
    nu = (N - n) / n
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
    walks the `auto_backend` table, read from the top rows of its roll as
    `conditioned_paths` reads them (no resident table above its budget),
    so each pattern is within
    s (4N+2) 2^-53 relative of the same walk over correctly rounded ratios.
    """
    N = integral("prefix_law: N", N)
    n = integral("prefix_law: n", n)
    s = integral("prefix_law: s", s)
    if not (1 <= n < N):
        raise ValueError("prefix_law: need 1 <= n < N")
    if not (1 <= s <= min(20, N)):
        raise ValueError("prefix_law: need 1 <= s <= min(20, N)")
    rows = _ratio_rows(N, n)
    rho = f_drift((N - n) / n)

    patt = np.arange(1 << s)
    l = np.full(1 << s, n)
    exact = np.ones(1 << s)
    for j in range(s):
        # a pattern leaves the band only through a factor 0, r(m, m) = 1 kept
        # or r(m, 1) = 0 taken, so exact is +0.0 wherever the clip reads off it
        k, i = divmod(j, rows.B)
        if not i:
            block = rows.block(k, n - s, n)
        r = block[i].take(l, mode="clip")
        step = (patt >> j) & 1
        exact *= np.where(step, r, 1.0 - r)
        l -= step
    iid = np.array([rho ** i * (1.0 - rho) ** (s - i) for i in range(s + 1)])[n - l]
    tv = 0.5 * float(np.abs(exact - iid).sum())
    return exact, iid, tv
