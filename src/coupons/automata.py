"""Random accessible automata via the conditioned collector.

A complete deterministic transition structure on n states over a
k-letter alphabet, taken uniformly among the surjective ones, is
encoded by a uniform surjection word of length N = kn+1 (one column
for the initial edge, then the k out-edges of each state in BFS
order).  The structure is accessible iff the completion path of the
word satisfies the k-Dyck condition

    y_{l k + 1} >= l + 1        for every l in [0, n-1],

and the limiting probability of that event is Korshunov's constant
1 - k rho(k), where rho(k) = exp(-xi(k-1)).  The same number falls
out of the Pollaczek-Khinchine identity for the negative-drift walk
with step law (1-rho) delta_{-1} + rho delta_{k-1}.
"""

import math

import numpy as np

from .errors import integral
from .sampler import _Floors, _substreams, conditioned_paths
from .specialfn import f_drift
from .stirling import _rows, stirling_exact

_WINDOW_C = 1.0  # estimate_middle_crossing: the constant C of the window I2


def _dyck_flags(k, n):
    # the k-Dyck test as a floors reduction: y_{l k + 1} >= l + 1 for every l
    return _Floors(1 + k * np.arange(n), np.arange(1, n + 1))


def _window_clear(k, xs):
    # k y_x > x - 1 at every column x of xs, as a floors reduction; on
    # integers that is y_x >= (x - 1) // k + 1, and a path crosses where it fails
    return _Floors(xs, (xs - 1) // k + 1)


def _shape(name, k, n):
    """(k, n, N = kn + 1) of an automaton with k >= 2 letters and n >= 2 states."""
    k = integral(name + ": k", k)
    n = integral(name + ": n", n)
    if k < 2 or n < 2:
        raise ValueError("%s: need k >= 2 and n >= 2" % name)
    return k, n, k * n + 1


def _frequency(hits, trials):
    """(hits / trials, its normal-approximation binomial standard error)."""
    est = hits / trials
    return est, math.sqrt(max(est * (1.0 - est), 1e-300) / trials)


def dyck_check(y, k):
    """True iff y_{l k + 1} >= l + 1 for all l in [0, n-1].

    y is y_1..y_N, a completion path: integers with y_1 = 1 and every step
    0 or 1 (ValueError otherwise); a leading y_0 = 0 is dropped.
    """
    k = integral("dyck_check: k", k)
    if k < 1:
        raise ValueError("dyck_check: k must be >= 1")
    raw = np.asarray(y)
    y = raw.astype(np.int64)
    if np.any(y != raw):
        raise ValueError("dyck_check: path entries must be integers")
    if y.ndim == 1 and len(y) and y[0] == 0:
        y = y[1:]
    if y.ndim != 1 or len(y) == 0:
        raise ValueError("dyck_check: need a nonempty 1-d path")
    steps = np.diff(y)
    if y[0] != 1 or np.any((steps < 0) | (steps > 1)):
        raise ValueError("dyck_check: not a completion path (y_1 = 1, steps 0 or 1)")
    N = len(y)
    n = int(y[-1])
    if N != k * n + 1:
        raise ValueError("dyck_check: path length %d != k*n+1 = %d" % (N, k * n + 1))
    return bool(_dyck_flags(k, n)(np.concatenate(([0], y))[None, ::-1])[0])


def surjection_to_diagram(word, n):
    """Canonical boxed diagram of a surjective word: relabel by first appearance.

    Returns (y, marks), both 1-based arrays of length N = len(word).
    """
    n = integral("surjection_to_diagram: n", n)
    raw = np.asarray(word)
    word = raw.astype(np.int64)
    if word.ndim != 1 or np.any(word != raw) or np.any((word < 1) | (word > n)):
        raise ValueError("surjection_to_diagram: word must take integer values in [1..n]")
    first = np.unique(word, return_index=True)[1]  # first index of each letter
    if len(first) != n:
        raise ValueError("surjection_to_diagram: word is not surjective onto [1..n]")
    relabel = np.empty(n + 1, dtype=np.int64)
    relabel[word[np.sort(first)]] = np.arange(1, n + 1)
    marks = relabel[word]
    return np.maximum.accumulate(marks), marks


def structure_from_diagram(marks, k, n):
    """Rebuild the transition structure encoded by a boxed diagram.

    Column 1 is the initial edge; columns (l-1)k+2 .. lk+1 are state l's
    out-edges in alphabet order.  Returns (initial_state, delta) with
    delta[l, c] = target of letter c+1 from state l (row 0 unused).
    """
    k = integral("structure_from_diagram: k", k)
    n = integral("structure_from_diagram: n", n)
    raw = np.asarray(marks)
    marks = raw.astype(np.int64)
    if len(marks) != k * n + 1:
        raise ValueError("structure_from_diagram: need k*n+1 marks")
    if np.any(marks != raw) or np.any((marks < 1) | (marks > n)):
        raise ValueError("structure_from_diagram: marks must be integers in [1..n]")
    initial = int(marks[0])
    delta = np.zeros((n + 1, k), dtype=np.int64)
    delta[1:] = marks[1:].reshape(n, k)
    return initial, delta


def bfs_accessible(marks, k, n):
    """Graph-search oracle: is every state reachable from the initial one?"""
    k = integral("bfs_accessible: k", k)
    n = integral("bfs_accessible: n", n)
    initial, delta = structure_from_diagram(marks, k, n)
    seen = np.zeros(n + 1, dtype=bool)
    stack = [initial]
    seen[initial] = True
    count = 1
    while stack:
        s = stack.pop()
        for t in delta[s]:
            if not seen[t]:
                seen[t] = True
                count += 1
                stack.append(int(t))
    return count == n


def estimate_accessibility(k, n, trials, seed=0, jobs=1):
    """Monte-Carlo accessibility frequency among surjective structures.

    Draws conditioned completion paths at N = kn+1 and applies the Dyck
    test; returns (estimate, stderr) with the normal-approximation
    binomial standard error.
    """
    k, n, N = _shape("estimate_accessibility", k, n)
    flags = conditioned_paths(N, n, trials, seed=seed, jobs=jobs, reduce=_dyck_flags(k, n))
    return _frequency(int(flags.sum()), trials)


def korshunov_constant(k):
    """Limiting accessible fraction 1 - k exp(-xi(k-1)) among surjective ones."""
    k = integral("korshunov_constant: k", k)
    if k < 2:
        raise ValueError("korshunov_constant: need k >= 2")
    return 1.0 - k * f_drift(k - 1.0)


def simulate_walk_max(k, runs, horizon=500, seed=0):
    """Empirical P(max of the mu_k walk over `horizon` steps is <= 0).

    Oracle for pi0: the walk has negative drift, so the finite horizon
    truncation bias is exponentially small in the horizon.
    """
    k = integral("simulate_walk_max: k", k)
    runs = integral("simulate_walk_max: runs", runs)
    horizon = integral("simulate_walk_max: horizon", horizon)
    if k < 2:
        raise ValueError("simulate_walk_max: need k >= 2")
    if runs < 1 or horizon < 1:
        raise ValueError("simulate_walk_max: runs and horizon must be >= 1")
    rho = f_drift(k - 1.0)
    rng = _substreams(seed)(0)
    hits = 0
    done = 0
    while done < runs:
        m = min(max(1, (1 << 20) // horizon), runs - done)  # about 2^20 cells, 16 B each
        u = rng.random((m, horizon))
        steps = np.where(u < rho, np.int32(k - 1), np.int32(-1))
        smax = np.cumsum(steps, axis=1, dtype=np.int32).max(axis=1)
        hits += int((smax <= 0).sum())
        done += m
    return _frequency(hits, runs)


def exact_accessible_count(k, n):
    """(accessible_count, surjective_count) among the n^(kn+1) words, exactly.

    n! g_N(n), g the band rows of {m j} from `stirling._rows` with g(j) zeroed
    for j <= l after column lk+1 (the k-Dyck barrier), and n! {N n}, whose
    stirling_exact cap N <= 5000 applies before the roll.
    """
    k, n, N = _shape("exact_accessible_count", k, n)
    surjective = math.factorial(n) * stirling_exact(N, n)
    for m, (_, _, row) in enumerate(_rows(N, n)):
        if m % k == 1 and m < N:  # column lk+1 with l = m // k: zero levels j <= l
            row[:m // k + 1] = [0] * (m // k + 1)
    return math.factorial(n) * row[n], surjective


def estimate_middle_crossing(k, n, trials, seed=0):
    """Frequency of paths touching the critical line inside the middle window.

    Window I2 = [a n, k n - 2 C k^2 n^(1/3)] in column units, with
    a = e^{-k}/8 and C = _WINDOW_C; a crossing at column x means k y_x <= x - 1.  The
    frequency must vanish as n grows (the limit curve clears the strip).
    """
    k, n, N = _shape("estimate_middle_crossing", k, n)
    a = math.exp(-k) / 8.0
    x_lo = max(1, int(math.ceil(a * n)))
    x_hi = min(N, int(math.floor(k * n - 2.0 * _WINDOW_C * k * k * n ** (1.0 / 3.0))))
    if x_hi < x_lo:
        raise ValueError("estimate_middle_crossing: empty window at n=%d" % n)
    xs = np.arange(x_lo, x_hi + 1)
    clear = conditioned_paths(N, n, trials, seed=seed, reduce=_window_clear(k, xs))
    return _frequency(int((~clear).sum()), trials)


def korshunov_report(k, n, trials, seed=0, jobs=1):
    """JSON-ready experiment record comparing Monte Carlo to the constants."""
    est, se = estimate_accessibility(k, n, trials, seed=seed, jobs=jobs)
    k = int(k)
    rho = f_drift(k - 1.0)
    return {
        "k": k, "n": int(n), "trials": int(trials), "seed": int(seed),
        "estimate": est, "stderr": se,
        "korshunov": korshunov_constant(k),
        # pi0 = -drift/(1-rho) of the walk with steps -1 and k-1
        "pollaczek_pi0": (1.0 - k * rho) / (1.0 - rho),
    }
