import math
from itertools import product

import numpy as np
import pytest

from coupons import (NumericsError, ResourceCapError,
                     bfs_accessible, dyck_check,
                     estimate_accessibility, estimate_middle_crossing,
                     exact_accessible_count, f_drift, korshunov_constant,
                     korshunov_report, simulate_walk_max, stirling_exact,
                     strip_clearance, structure_from_diagram,
                     surjection_to_diagram)
from coupons import sampler

from conftest import traced_peak
from oracles import (accessible_count_reference, completion_path,
                     enumerate_surjective_paths, philox_reference, pollaczek_crossing,
                     walk_max_reference, xi_bisect)

PI0_K2 = 0.7449990250840247


# --- dyck condition ---------------------------------------------------------

def test_dyck_examples():
    # k=2, n=3: need y_1>=1, y_3>=2, y_5>=3
    assert dyck_check([1, 2, 2, 3, 3, 3, 3], 2)
    assert not dyck_check([1, 1, 1, 2, 2, 3, 3], 2)   # y_3 = 1 < 2
    assert not dyck_check([1, 1, 2, 2, 2, 2, 3], 2)   # y_5 = 2 < 3
    # leading 0 is accepted and stripped
    assert dyck_check([0, 1, 2, 2, 3, 3, 3, 3], 2)


def test_dyck_shape_errors():
    with pytest.raises(ValueError):
        dyck_check([1, 2, 2, 3, 3, 3], 2)  # length 6 != 2*3+1
    with pytest.raises(ValueError):
        dyck_check([1, 2, 2], 0)
    with pytest.raises(ValueError):
        dyck_check([[1, 2], [2, 3]], 2)
    with pytest.raises(ValueError):
        dyck_check([0], 2)  # empty once y_0 is dropped


@pytest.mark.parametrize("y", [[0, 1, 1.9, 2, 2, 2],  # not integers
                               [2, 2, 2, 2, 2],       # y_1 = 2
                               [1, 1, 3, 3, 2],       # steps of 2 and -1
                               [0, 0, 1, 1, 2, 2]])   # y_1 = 0 after y_0
def test_dyck_rejects_non_completion_paths(y):
    # each has length k n + 1 for its last value n, so only the path
    # conditions reject it
    with pytest.raises(ValueError, match="integers|completion path"):
        dyck_check(y, 2)


def test_dyck_fastest_and_slowest_paths():
    for k in (2, 3):
        for n in (2, 3, 5):
            N = k * n + 1
            fast = np.minimum(np.arange(1, N + 1), n)  # staircase then flat
            assert dyck_check(fast, k)
            slow = np.maximum(np.arange(1, N + 1) - (N - n), 1)  # flat then climb
            assert not dyck_check(slow, k) or n == 1


def test_dyck_pointwise_monotone():
    # moving a climb one column earlier raises the path, which can only help
    rng = np.random.default_rng(0)
    k, n = 2, 5
    N = k * n + 1
    done = 0
    while done < 100:
        pos = np.sort(rng.choice(N, n, replace=False))
        pos[0] = 0
        if len(np.unique(pos)) != n:
            continue
        incr = np.zeros(N, dtype=np.int64)
        incr[pos] = 1
        y = np.cumsum(incr)
        movable = [i for i in range(1, n) if pos[i] - pos[i - 1] > 1]
        if not movable or not dyck_check(y, k):
            continue
        pos2 = pos.copy()
        pos2[movable[rng.integers(len(movable))]] -= 1
        incr2 = np.zeros(N, dtype=np.int64)
        incr2[pos2] = 1
        y2 = np.cumsum(incr2)
        assert np.all(y2 >= y)
        assert dyck_check(y2, k)
        done += 1


# --- boxed diagrams ----------------------------------------------------------

def test_surjection_to_diagram_example():
    y, marks = surjection_to_diagram([2, 2, 1], 2)
    assert list(y) == [1, 1, 2]
    assert list(marks) == [1, 1, 2]
    y, marks = surjection_to_diagram([3, 1, 3, 2, 1], 3)
    assert list(y) == [1, 2, 2, 3, 3]
    assert list(marks) == [1, 2, 1, 3, 2]


def test_surjection_to_diagram_errors():
    with pytest.raises(ValueError):
        surjection_to_diagram([1, 1, 1], 2)  # not surjective
    with pytest.raises(ValueError):
        surjection_to_diagram([0, 1, 2], 2)  # out of alphabet
    with pytest.raises(ValueError, match="integer"):
        surjection_to_diagram([1.5, 2.7, 1], 2)  # would truncate to [1, 2, 1]


def test_diagram_classes_have_size_n_factorial():
    # canonical diagrams of surjective words on [3]^5: each class has 3! words
    n, N = 3, 5
    classes = {}
    for w in product(range(1, n + 1), repeat=N):
        if len(set(w)) != n:
            continue
        y, marks = surjection_to_diagram(list(w), n)
        classes.setdefault(tuple(marks), 0)
        classes[tuple(marks)] += 1
    assert len(classes) == stirling_exact(N, n)
    assert set(classes.values()) == {math.factorial(n)}


def test_boxed_diagram_validate():
    # every surjective word on [3]^7 gives a boxed diagram: a unit-step path
    # ending at n, marks 1 <= x_i <= y_i, and mark = level where it is first reached
    n, N = 3, 7
    for w in product(range(1, n + 1), repeat=N):
        if len(set(w)) != n:
            continue
        y, marks = surjection_to_diagram(list(w), n)
        assert len(y) == len(marks) == N and y[-1] == n
        d = np.diff(y, prepend=0)
        assert np.all((d == 0) | (d == 1))
        assert np.all((1 <= marks) & (marks <= y))
        firsts = d == 1
        assert np.array_equal(marks[firsts], y[firsts])
    y, marks = surjection_to_diagram([1, 2, 1, 2, 3, 1, 3], 3)
    assert dyck_check(y, 2) and bfs_accessible(marks, 2, 3)


def test_bfs_rejects_marks_outside_the_states():
    for marks in ([1, 0, 1], [1, 5, 1], [1, 1.7, 2]):  # k = 1, n = 2
        with pytest.raises(ValueError, match=r"integers in \[1\.\.n\]"):
            bfs_accessible(marks, 1, 2)
    for marks in ([1, 2], [1, 2, 1, 1]):  # k = 1, n = 2 needs 3 marks
        with pytest.raises(ValueError, match=r"need k\*n\+1 marks"):
            bfs_accessible(marks, 1, 2)
    assert bfs_accessible([1, 2, 1], 1, 2) and not bfs_accessible([1, 1, 2], 1, 2)


def test_dyck_iff_bfs_accessible():
    # per-word equivalence of the path test and the graph search, k=3, n=4
    rng = np.random.default_rng(8)
    k, n = 3, 4
    N = k * n + 1
    checked = 0
    while checked < 400:
        w = rng.integers(1, n + 1, size=N)
        if len(np.unique(w)) != n:
            continue
        y, marks = surjection_to_diagram(w, n)
        assert dyck_check(y, k) == bfs_accessible(marks, k, n)
        checked += 1


def test_diagram_codec_on_random_words():
    # y is the completion path, marks the first-appearance relabel, and
    # state l's out-edges are the column slice marks[(l-1)k+1 : lk+1]
    rng = np.random.default_rng(21)
    for k, n in [(1, 1), (1, 6), (2, 3), (3, 7), (2, 200)]:
        N = k * n + 1
        for _ in range(40):
            w = rng.permutation(np.concatenate(
                [np.arange(1, n + 1), rng.integers(1, n + 1, size=N - n)])).tolist()
            y, marks = surjection_to_diagram(w, n)
            assert y.dtype == marks.dtype == np.int64
            assert tuple(y) == completion_path(w)
            labels = {}
            for x in w:
                labels.setdefault(x, len(labels) + 1)
            assert marks.tolist() == [labels[x] for x in w]
            initial, delta = structure_from_diagram(marks, k, n)
            assert initial == marks[0] and not delta[0].any()
            for l in range(1, n + 1):
                assert np.array_equal(delta[l], marks[(l - 1) * k + 1:l * k + 1])


def test_non_integral_k_and_n_are_rejected():
    calls = [lambda: korshunov_constant(2.7), lambda: korshunov_constant(math.nan),
             lambda: exact_accessible_count(2.5, 3), lambda: exact_accessible_count(2, 3.9),
             lambda: strip_clearance(2.9, 0.1), lambda: dyck_check([1, 2, 2, 3, 3, 3, 3], 2.5),
             lambda: estimate_accessibility(2, 10.5, 10),
             lambda: estimate_middle_crossing(2.5, 100, 10),
             lambda: simulate_walk_max(math.inf, 10), lambda: simulate_walk_max(2, 10.5),
             lambda: simulate_walk_max(2, 10, horizon=7.5)]
    for call in calls:
        with pytest.raises(ValueError, match="must be an integer"):
            call()
    # integral floats and numpy integers are the integers they equal
    assert korshunov_constant(2.0) == korshunov_constant(np.int64(2)) == korshunov_constant(2)
    assert exact_accessible_count(np.int32(2), 3.0) == exact_accessible_count(2, 3)
    assert strip_clearance(np.float64(2.0), 0.1) and strip_clearance(np.int64(3), 0.1)


# --- exact counts ------------------------------------------------------------

def test_exact_accessible_counts():
    assert exact_accessible_count(2, 2) == (24, 30)
    acc, surj = exact_accessible_count(2, 3)
    assert (acc, surj) == (1296, 1806)
    assert surj == math.factorial(3) * stirling_exact(7, 3)
    # the recurrence against every surjective word, Dyck-filtered by its path
    for k, n in ((2, 2), (2, 3), (3, 2), (3, 3)):
        paths, total = enumerate_surjective_paths(k * n + 1, n)
        dyck = sum(c for y, c in paths.items()
                   if all(y[l * k] >= l + 1 for l in range(n)))
        assert exact_accessible_count(k, n) == (dyck, total), (k, n)
    # counted by enumerating all 5^11 words
    assert exact_accessible_count(2, 5) == (19281000, 29607600)


def test_exact_count_matches_column_roll():
    # the band recurrence with its barrier against the full-width in-place roll
    for k in range(2, 7):
        for n in range(2, 21):
            assert exact_accessible_count(k, n) == accessible_count_reference(k, n), (k, n)
    assert exact_accessible_count(2, 300) == accessible_count_reference(2, 300)


def test_exact_count_resource_cap():
    # the one cap is stirling_exact's N <= 5000
    acc, surj = exact_accessible_count(2, 6)
    assert surj == math.factorial(6) * stirling_exact(13, 6) and 0 < acc < surj
    with pytest.raises(ResourceCapError):
        exact_accessible_count(2, 2500)  # N = 5001


# --- constants ----------------------------------------------------------------

def test_korshunov_constant_against_bisection():
    for k in range(2, 11):
        want = 1.0 - k * math.exp(-xi_bisect(k - 1.0))
        assert abs(korshunov_constant(k) - want) <= 1e-13


def test_korshunov_constant_k2_closed_form():
    # at k=2 the constant collapses to xi(1) - 1
    assert abs(korshunov_constant(2) - (xi_bisect(1.0) - 1.0)) <= 1e-13


def test_korshunov_constant_monotone_to_one():
    vals = [korshunov_constant(k) for k in range(2, 15)]
    assert all(0.0 < v < 1.0 for v in vals)
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert 1.0 - korshunov_constant(40) < 1e-15
    with pytest.raises(ValueError):
        korshunov_constant(1)


def test_pollaczek_route():
    pi0, nc = pollaczek_crossing(2)
    assert abs(pi0 - PI0_K2) <= 1e-15
    for k in range(2, 11):
        pi0, nc = pollaczek_crossing(k)
        assert 0.0 < pi0 < 1.0
        assert abs(nc - korshunov_constant(k)) <= 1e-12


def test_walk_max_simulation_matches_pi0():
    # the killed-walk DP is P(max over 500 steps <= 0) exactly; the horizon
    # bias is exponentially small, so it equals pi0 to rounding
    for k in range(2, 11):
        pi0, _ = pollaczek_crossing(k)
        rho = math.exp(-xi_bisect(k - 1.0))
        assert abs(walk_max_reference(k, rho, 500) - pi0) <= 1e-13, k
    # a short run of the sampler against the same DP; criterion 8 runs 1e6 walks
    rho = math.exp(-xi_bisect(1.0))
    est, se = simulate_walk_max(2, 10000, horizon=500, seed=2)
    assert abs(est - walk_max_reference(2, rho, 500)) <= 4.0 * se
    with pytest.raises(ValueError):
        simulate_walk_max(1, 100)
    for runs, horizon in ((0, 500), (100, 0)):
        with pytest.raises(ValueError, match="runs and horizon must be >= 1"):
            simulate_walk_max(2, runs, horizon=horizon)


def test_walk_max_memory_is_flat_in_the_horizon():
    # chunks of about 2^20 cells at 16 B a cell; 20000-run chunks traced 138 MiB
    _, peak = traced_peak(simulate_walk_max, 2, 3000, horizon=3000)
    assert peak < 24 * 2 ** 20, peak


@pytest.mark.parametrize("runs, horizon, seed", [(1000, 3000, 2), (700, 500, 5),
                                                 (2, (1 << 20) + 1, 9)])
def test_walk_max_reads_one_stream_in_order(runs, horizon, seed):
    # chunked by cells, the stream is read in the order of one (runs, horizon) draw
    u = philox_reference(seed, 0).random((runs, horizon))
    steps = np.where(u < f_drift(1.0), 1, -1)
    hits = int((np.cumsum(steps, axis=1).max(axis=1) <= 0).sum())
    assert simulate_walk_max(2, runs, horizon=horizon, seed=seed)[0] == hits / runs


# --- monte carlo accessibility -------------------------------------------------

def test_estimate_accessibility_against_enumeration():
    ref = 1296.0 / 1806.0
    est, se = estimate_accessibility(2, 3, 100000, seed=21)
    assert abs(est - ref) <= 4.0 * se
    with pytest.raises(ValueError):
        estimate_accessibility(2, 3, 0)
    with pytest.raises(ValueError):
        estimate_accessibility(1, 3, 10)


def test_estimate_accessibility_approaches_constant():
    # finite-n estimate should already be near the k=2 limit at n=300,
    # and within sampling error of the exact P_300
    est, se = estimate_accessibility(2, 300, 20000, seed=6)
    assert abs(est - korshunov_constant(2)) <= 0.05
    acc, surj = exact_accessible_count(2, 300)
    assert abs(est - acc / surj) <= 4.0 * se


def test_estimate_accessibility_memory_flat_in_trials():
    # chunks are reduced to Dyck flags and dropped: no (trials, N+1) matrix.
    # A chunk is 1998 rows at N = 2001, so 1998 and 7992 trials run 1 and 4
    # spans of 1998 rows
    peaks = [traced_peak(estimate_accessibility, 2, 1000, trials, jobs=1)[1]
             for trials in (1998, 7992)]
    assert abs(peaks[1] - peaks[0]) < 1e6
    # the peak holds the runner's buffers (34.1 MB): a span buffer of N + 1
    # float64 rows and a draw block of 2 MiB // (8 N) = 131 rows of N columns
    assert min(peaks) > 8 * (1998 * 2002 + 131 * 2001), peaks


def test_estimate_accessibility_above_the_table_budget(monkeypatch):
    # at (12001, 6000) the band would take 275 MiB resident.  Checkpointed,
    # the table is 110 s rows of 6001 floats (5.3 MB) and one block of 110
    # rows (5.3 MB), whatever the trials.  Chunks are 333 rows at N = 12001,
    # so 333 and 999 trials run 1 and 3 spans of 333 rows, and 400 trials
    # fork two workers at jobs=2
    monkeypatch.setattr(sampler, "_cpus", lambda: 2)
    estimate_accessibility(2, 50, 10)  # a first batch's one-off allocations
    results, peaks = zip(*(traced_peak(estimate_accessibility, 2, 6000, trials, jobs=1)
                           for trials in (333, 999)))
    # the runner's buffers (34.0 MB), as in the test above with N = 12001: a
    # span buffer of N + 1 float64 rows and a draw block of 2 MiB // (8 N) =
    # 21 rows; the bounds are on the rest of the peak
    spans = 8 * (333 * 12002 + 21 * 12001)
    rest = [peak - spans for peak in peaks]
    assert 0 < min(rest) and max(rest) < 16e6, peaks
    assert abs(peaks[1] - peaks[0]) <= 0.1 * rest[0], peaks
    assert estimate_accessibility(2, 6000, 999, jobs=2) == results[1]
    assert (estimate_accessibility(2, 6000, 400, jobs=2)
            == estimate_accessibility(2, 6000, 400, jobs=1))


def test_korshunov_report_record():
    rec = korshunov_report(2, 50, 2000, seed=9)
    assert rec["k"] == 2 and rec["n"] == 50 and rec["trials"] == 2000
    assert rec["seed"] == 9
    assert abs(rec["korshunov"] - korshunov_constant(2)) == 0.0
    assert abs(rec["pollaczek_pi0"] - PI0_K2) <= 1e-15
    assert 0.0 < rec["estimate"] < 1.0 and rec["stderr"] > 0.0


# --- middle-window crossing ------------------------------------------------------

def test_middle_crossing_vanishes():
    e20, _ = estimate_middle_crossing(2, 20, 20000, seed=5)
    e40, _ = estimate_middle_crossing(2, 40, 20000, seed=5)
    e80, _ = estimate_middle_crossing(2, 80, 20000, seed=5)
    assert e20 > e40 >= e80
    assert e80 <= 1e-3


def test_middle_crossing_window_errors():
    with pytest.raises(ValueError):
        estimate_middle_crossing(2, 2, 10)  # empty window
    with pytest.raises(ValueError):
        estimate_middle_crossing(1, 100, 10)
