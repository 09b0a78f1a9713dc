import itertools
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from coupons import (ExactBackend, LogDPBackend, NumericsError, QuadratureError,
                     ResourceCapError, bfs_accessible, chi, f_drift, psi_log, psi_log_forms,
                     saddle_diagnostics, stirling_exact, structure_from_diagram,
                     surjection_log_probability, surjection_to_diagram, transition_error)
from coupons import stirling
from coupons.stirling import (_chi_and_transition_error, _explicit_sum, _log_big, _quad,
                              _RatioRows, _rows)

from conftest import traced_peak
from oracles import (dense_table, explicit_sum_reference, ln_p_mpmath, logdp_table_reference,
                     ratio_table_reference, reachable_states, set_partition_count,
                     tail_abs_reference)

CHI_200_100 = -0.0010776744425554736  # frozen at build time from this code path


# --- exact values -------------------------------------------------------

def test_exact_boundary_cases():
    assert stirling_exact(0, 0) == 1
    for m in (1, 2, 5, 9):
        assert stirling_exact(m, m) == 1
        assert stirling_exact(m, 1) == 1


def test_exact_small_against_enumeration():
    assert stirling_exact(3, 2) == set_partition_count(3, 2) == 3
    assert stirling_exact(7, 3) == set_partition_count(7, 3) == 301


def test_exact_argument_and_cap_errors():
    assert stirling_exact(3, 4) == 0
    assert stirling_exact(0, 1) == 0
    with pytest.raises(ValueError):
        stirling_exact(-1, 0)
    with pytest.raises(ResourceCapError):
        stirling_exact(6000, 10)
    assert stirling_exact(5, 2, cap=5) == 15


@pytest.mark.parametrize("fn, args, sizes", [
    (stirling_exact, (10, 5), {0: "m", 1: "l"}),
    (ExactBackend().ratio, (10, 5), {0: "m", 1: "l"}),
    (psi_log, (10, 5), {0: "m", 1: "l"}),
    (psi_log_forms, (10, 5), {0: "m", 1: "l"}),
    (chi, (10, 5), {0: "m", 1: "l"}),
    (transition_error, (10, 5), {0: "m", 1: "l"}),
    (surjection_log_probability, (10, 5), {0: "N", 1: "n"}),
    (ExactBackend().ratio_table, (10, 5), {0: "N", 1: "n"}),
    (LogDPBackend().ratio_table, (10, 5), {0: "N", 1: "n"}),
    (saddle_diagnostics, (1.0, 100), {1: "l"}),
    (surjection_to_diagram, ([2, 1, 2], 2), {1: "n"}),
    (structure_from_diagram, ([1, 2, 1], 1, 2), {1: "k", 2: "n"}),
    (bfs_accessible, ([1, 1, 1], 2, 1), {1: "k", 2: "n"})])
def test_stirling_and_diagram_sizes_must_be_integral(fn, args, sizes):
    # each size in turn given a fractional part, then every size an integral float
    for i, name in sizes.items():
        with pytest.raises(ValueError, match=r"\b%s must be an integer" % name):
            fn(*args[:i], args[i] + 0.5, *args[i + 1:])
    floats = [float(a) if i in sizes else a for i, a in enumerate(args)]
    assert pickle.dumps(fn(*floats)) == pickle.dumps(fn(*args))


@given(st.integers(min_value=1, max_value=60), st.integers(min_value=1, max_value=60))
def test_exact_recurrence(m, l):
    if l > m:
        m, l = l, m
    lhs = stirling_exact(m, l)
    if l <= m - 1:
        rhs = l * stirling_exact(m - 1, l) + stirling_exact(m - 1, l - 1)
    else:
        rhs = stirling_exact(m - 1, l - 1)
    assert lhs == rhs


def test_row_sum_identity():
    # sum_l {m l} (n)_l = n^m with falling factorials, n >= m
    for m in (1, 3, 5, 8):
        for n in (m, m + 2, m + 5):
            total = 0
            for l in range(0, m + 1):
                ff = 1
                for i in range(l):
                    ff *= n - i
                total += stirling_exact(m, l) * ff
            assert total == n ** m


# --- ExactBackend().ratio ----------------------------------------------

def test_ratio_examples():
    ratio = ExactBackend().ratio
    assert ratio(4, 4) == 1.0
    assert abs(ratio(3, 2) - 1.0 / 3.0) <= 1e-16
    assert ratio(5, 1) == 0.0
    with pytest.raises(ValueError):
        ratio(3, 0)


@given(st.integers(min_value=2, max_value=40), st.integers(min_value=1, max_value=40))
def test_complementary_ratio_exact_integers(m, l):
    if l > m:
        m, l = l, m
    if l == m:
        return
    # l {m-1 l} + {m-1 l-1} = {m l} exactly
    assert l * stirling_exact(m - 1, l) + stirling_exact(m - 1, l - 1) \
        == stirling_exact(m, l)


def test_ratio_nearest_double():
    ratio = ExactBackend().ratio
    # r(3,2) = 1/3 must round to the nearest double of 1/3
    assert ratio(3, 2) == 1.0 / 3.0
    # huge case: exact rational vs 80-bit-ish log route sanity
    r = ratio(600, 200)
    assert 0.0 < r < 1.0
    # r(54,2) = {53 1}/{54 2} = 1/(2^53 - 1); rounding twice (floor to a
    # 64-bit quotient, then to a double) lands one ulp off here
    assert ratio(54, 2) == float(Fraction(1, 2 ** 53 - 1))


def _assert_band(R, R_full, N, n):
    # packed R holds R_full's bits on the states the chain from (N, n)
    # reaches, in row-major order, and nothing else
    band = reachable_states(N, n)
    assert R.dtype == np.float64 and R.shape == (np.count_nonzero(band),)
    assert np.array_equal(R, R_full[:N + 1][band])


def test_exact_routes_agree():
    # table, single ratio and the ratio of two exact values: one nearest double;
    # rows 0..60 of a (90, 30) table hold every l <= min(m, 30)
    R = dense_table(ExactBackend().ratio_table(90, 30), 90, 30)
    be = ExactBackend()
    for m in range(1, 61):
        for l in range(1, min(m, 30) + 1):
            want = float(Fraction(stirling_exact(m - 1, l - 1), stirling_exact(m, l)))
            assert R[m, l] == be.ratio(m, l) == want, (m, l)
    _assert_band(ExactBackend().ratio_table(60, 30), R, 60, 30)


def test_rows_feed_a_zeroed_row_forward():
    # row m+1 is rolled from the list yielded as row m: zeros written there
    # (an absorbing barrier) reach every later row
    for m, (_, _, row) in enumerate(_rows(8, 4)):
        if m == 2:
            row[:] = [0] * len(row)
        elif m > 2:
            assert not any(row), m
    for m, (lo, hi, row) in enumerate(_rows(8, 4)):  # untouched: row 8 on its band
        pass
    assert (m, lo, hi) == (8, 4, 4) and row[4] == stirling_exact(8, 4)


def test_explicit_sum_matches_recurrence():
    # single values and ratios come from the explicit sum, tables from the DP
    # rows; a ratio must be the int/int quotient of two DP values.  Rows
    # 0..150 of the (300, 150) band are whole
    be = ExactBackend()
    prev = None
    for m, (_, _, row) in zip(range(151), _rows(300, 150)):
        assert [stirling_exact(m, l) for l in range(151)] == row, m
        for l in range(1, m + 1):  # m = 1 is the only pass with an i = 0 term
            assert be.ratio(m, l) == prev[l - 1] / row[l], (m, l)
        prev = row
    # the 12 points of the bench's verify grid, then l = m - 1 and l = 2 edges
    ms_of_l = {l: [int(round((1.0 + lam) * l)) for lam in (0.5, 1.0, 2.0)]
               for l in (50, 100, 200, 400)}
    ms_of_l.update({799: [800], 2: [3000, 5000]})
    for l, ms in ms_of_l.items():
        for m, (_, _, row) in enumerate(_rows(max(ms), l)):  # (m, l) is on the band
            if m in ms:
                assert stirling_exact(m, l) == row[l], (m, l)
                assert be.ratio(m, l) == prev[l - 1] / row[l], (m, l)
            prev = row
    R = dense_table(ExactBackend().ratio_table(600, 200), 600, 200)  # rows 0..400 are whole
    pairs = [(m, l) for m in range(1, 401, 8) for l in range(1, min(m, 200) + 1, 4)]
    assert len(pairs) >= 1800
    for m, l in pairs:
        assert be.ratio(m, l) == R[m, l], (m, l)


def test_explicit_sum_matches_one_power_per_term():
    # i^(m-1) from the odd-only sieve (a product of two kept odd powers for
    # odd composite i, a shifted odd power for even i) gives the integers of
    # one power per i
    grid = [(int(round((1.0 + lam) * l)), l)
            for lam in (0.5, 1.0, 2.0) for l in (50, 100, 200, 400)]
    small = [(m, l) for l in (1, 2, 3, 4, 8, 9, 16, 25, 27, 32)  # prime powers, l // 2 edge
             for m in sorted({l, l + 1, 2 * l + 3, 5 * l})]
    ends = [(1, 1), (7, 7), (300, 300), (300, 1), (301, 2), (40, 1)]  # m = l and m = 1
    low = [(2, 1), (2, 2)]  # m = 2, where a shift z(m-1) is z; m = 1, (1, 1), is above
    twos = [(m, l) for l in (64, 128, 256, 512, 1024)  # i = 2^z o up to z = 10
            for m in (l, l + 1, 2 * l + 1, 3 * l)]
    points = grid + small + ends + low + twos + [(3001, 997)]
    for m, l in points:
        assert _explicit_sum(m, l) == explicit_sum_reference(m, l), (m, l)


@given(st.integers(min_value=1, max_value=150).flatmap(
    lambda m: st.tuples(st.just(m), st.integers(min_value=1, max_value=m))))
def test_explicit_sum_matches_one_power_per_term_property(ml):
    m, l = ml  # 1 <= l <= m <= 150
    assert _explicit_sum(m, l) == explicit_sum_reference(m, l)


def test_explicit_sum_memo_is_bounded():
    # only the powers of odd o <= l // 2 are kept, about
    # (l/4)(m-1) log2(l/2) bits; keeping every i <= l // 2 would take twice that
    m, l = 2000, 1000
    want, peak = traced_peak(stirling_exact, m, l)
    assert want == explicit_sum_reference(m, l)[0]
    memo = (l // 2 + 1) // 2 * ((m - 1) * math.log2(l // 2) / 8 + 32)
    assert peak <= 1.1 * memo, (peak, memo)


# --- backends -----------------------------------------------------------

def _assert_ratio_bound(E, D):
    # dense tables, row index m: |D/E - 1| <= (4m+2)u on every normal entry of
    # the exact E, and within 2^-1074 absolute below 2^-1022 (the
    # LogDPBackend bound)
    m = np.broadcast_to(np.arange(len(E))[:, None], E.shape)
    err = np.abs(D - E)
    normal = E >= 2.0 ** -1022
    assert np.all(err[normal] <= (4 * m[normal] + 2) * 2.0 ** -53 * E[normal])
    assert np.all(err[~normal] <= 2.0 ** -1074)


def test_logdp_ratio_table_matches_exact():
    for be in (ExactBackend(), LogDPBackend()):
        with pytest.raises(ValueError):
            be.ratio_table(3, 4)  # n > N: no surjection, so no chain
    R1 = ExactBackend().ratio_table(40, 20)
    R2 = LogDPBackend().ratio_table(40, 20)
    assert R1.shape == R2.shape == (np.count_nonzero(reachable_states(40, 20)),)
    _assert_ratio_bound(dense_table(R1, 40, 20), dense_table(R2, 40, 20))
    # rows 0..40 of (60, 20) tables hold every l <= min(m, 20), band or not
    R1 = dense_table(ExactBackend().ratio_table(60, 20), 60, 20)[:41]
    R2 = dense_table(LogDPBackend().ratio_table(60, 20), 60, 20)[:41]
    _assert_ratio_bound(R1, R2)
    R1 = dense_table(ExactBackend().ratio_table(600, 300), 600, 300)
    R2 = dense_table(LogDPBackend().ratio_table(600, 300), 600, 300)
    _assert_ratio_bound(R1, R2)
    # every l <= min(m, 300) with m <= 1500: rows 0..1500 of (1800, 300)
    # tables, which reach the subnormal range (r(1076, 2) is 5e-324)
    R1 = dense_table(ExactBackend().ratio_table(1800, 300), 1800, 300)[:1501]
    R2 = dense_table(LogDPBackend().ratio_table(1800, 300), 1800, 300)[:1501]
    _assert_ratio_bound(R1, R2)
    assert np.any((0.0 < R1) & (R1 < 2.0 ** -1022))


@pytest.mark.parametrize("N, n", [(41, 20), (600, 300), (2001, 1000), (4001, 2001),
                                  (300, 300), (301, 300), (300, 1), (2200, 2000),
                                  (5, 0), (1, 1)])
def test_logdp_ratio_table_matches_scalar_reference(N, n):
    # the vectorized band roll gives the scalar float recurrence's bits
    R_ref = ratio_table_reference(N, n)
    lb = LogDPBackend()
    # rows 0..N of the (N + n, n) band hold every l <= min(m, n)
    D = dense_table(lb.ratio_table(N + n, n), N + n, n)[:N + 1]
    assert np.array_equal(D, R_ref)
    R = lb.ratio_table(N, n)
    _assert_band(R, R_ref, N, n)
    assert np.all((0.0 <= R) & (R <= 1.0))
    m = np.arange(1, min(N, n) + 1)
    assert np.all(D[m, m] == 1.0)
    if n >= 1:
        assert not np.any(D[2:, 1])


@pytest.mark.parametrize("N, n", [(300, 300), (300, 1), (2001, 1000), (2200, 2000),
                                  (300, 0), (0, 0)])
def test_table_size_is_the_reach_count(N, n):
    # the packed tables store one entry per state the chain from (N, n) can
    # visit: none off the band, and none at all when n = 0
    want = np.count_nonzero(reachable_states(N, n))
    for be in (LogDPBackend(), ExactBackend()):
        if be.kind == "Exact" and N > 300:
            continue  # the big-int roll of (2001, 1000) takes seconds
        R = be.ratio_table(N, n)
        assert R.dtype == np.float64 and R.shape == (want,), (be.kind, N, n)


def test_logdp_memory_is_the_returned_table():
    R, peak = traced_peak(LogDPBackend().ratio_table, 2001, 1000)
    assert peak <= R.nbytes + 2 ** 20
    # about half the dense (2002, 1001) grid: a dense table fails here
    assert R.nbytes == 8 * np.count_nonzero(reachable_states(2001, 1000))
    _, peak = traced_peak(surjection_log_probability, 4000, 2000)
    assert peak < 2 ** 20


@pytest.mark.parametrize("N, n", [(2, 1), (3, 2), (61, 60), (200, 1), (601, 300),
                                  (2001, 1000), (4001, 2000)])
@pytest.mark.parametrize("steps", [None, 7])
def test_checkpointed_rows_equal_the_resident_table(N, n, steps, monkeypatch):
    # LogDP's resident table, and every row a checkpointed block hands out,
    # each re-rolled from its checkpoint, on its band levels inside the
    # window asked for, hold the bits of the four-call roll, a frozen copy
    # in the oracles.  B = 7 makes up to 572 short blocks; at (2, 1) B = N,
    # so the upward pass rolls no block, and (3, 2) rolls a partial one
    if steps is not None:
        monkeypatch.setattr(stirling, "_block_steps", lambda N: steps)
    R = logdp_table_reference(N, n)
    assert LogDPBackend().ratio_table(N, n).tobytes() == R.tobytes()
    band = reachable_states(N, n)
    ends = np.cumsum(band.sum(axis=1))  # row m of R ends at ends[m]
    rows = _RatioRows(N, n)
    B = rows.B
    assert B == (steps or math.isqrt(N) + 1)
    blocks = -(-N // B)
    rng = np.random.default_rng(N)
    narrow = []
    for k in [*range(1, blocks), 0]:  # block 0 last: it is no longer held, so re-rolled
        levels = np.flatnonzero(band[N - k * B])
        c = int(rng.choice(levels))
        narrow.append((k, c - int(rng.integers(0, 2 * B)), c + int(rng.integers(0, 9))))
    full = [(k, 0, n) for k in range(blocks)]
    for k, lo, hi in [(0, 0, n)] + narrow + full:
        block = rows.block(k, lo, hi)
        assert len(block) == min(B, N - k * B)
        for j, row in enumerate(block):
            m = N - k * B - j
            levels = np.flatnonzero(band[m])
            inside = (lo <= levels) & (levels <= hi)
            want = R[ends[m] - len(levels):ends[m]][inside]
            assert row[levels[inside]].tobytes() == want.tobytes(), (k, j, lo, hi)
            assert np.isfinite(row).all()


# --- psi, chi, transition error ------------------------------------------

def test_psi_two_forms_agree():
    a, b = psi_log_forms(200, 100)
    assert abs(a - b) <= 1e-9
    with pytest.raises(ValueError):
        psi_log(100, 100)
    with pytest.raises(ValueError):
        psi_log(100, 0)


def test_psi_close_to_exact_log():
    gap = _log_big(stirling_exact(200, 100)) - psi_log(200, 100)
    assert abs(gap) < 0.01


def test_psi_gap_halves_along_ray():
    # lambda = 1 ray: gap ln{2l l} - psi ~ c/l
    gaps = []
    for l in (50, 100, 200, 400):
        gaps.append(_log_big(stirling_exact(2 * l, l)) - psi_log(2 * l, l))
    for g1, g2 in zip(gaps, gaps[1:]):
        assert 0.3 <= g2 / g1 <= 0.7


def test_chi_golden_snapshot():
    v = chi(200, 100)
    assert abs(v - CHI_200_100) <= 1e-9 * abs(CHI_200_100)
    assert v == math.expm1(_log_big(stirling_exact(200, 100)) - psi_log(200, 100))
    assert v < 0.0


def test_chi_first_order_decay():
    for lam in (0.5, 1.0, 2.0):
        c1 = chi(int(round((1 + lam) * 100)), 100)
        c2 = chi(int(round((1 + lam) * 200)), 200)
        assert 0.3 <= c2 / c1 <= 0.7


def test_chi_and_transition_error_uniform_in_lambda():
    # grid l in {50, 200, 800}, d = m - l in {1, 2, 5, 20, l/2, l, 2l, 5l, 20l},
    # m <= 5000: 26 points.  Measured maxima: min(l, d)|chi| = 0.1078 at
    # lambda = 1, l|r - rho| = 0.1106 at lambda = 1/2.  As lambda -> 0 at
    # fixed d, chi(l + d, l) tends to Stirling's relative error for d!,
    # sqrt(2 pi d)(d/e)^d/d! - 1; the gap measured at most 0.0812 d/l^2.
    for l in (50, 200, 800):
        for d in (1, 2, 5, 20, l // 2, l, 2 * l, 5 * l, 20 * l):
            if l + d > 5000:
                continue
            ch, err = _chi_and_transition_error(l + d, l)
            assert min(l, d) * abs(ch) <= 0.11, (l, d)
            assert l * err <= 0.115, (l, d)
            if d <= 20:
                limit = math.expm1(0.5 * math.log(2.0 * math.pi * d) + d * math.log(d) - d
                                   - math.lgamma(d + 1))
                assert abs(ch - limit) <= d / (12.0 * l * l), (l, d)


def test_transition_error_examples():
    assert transition_error(300, 100) < 0.01
    assert transition_error(300, 100) == abs(ExactBackend().ratio(300, 100) - f_drift(2.0))
    with pytest.raises(ValueError):
        transition_error(100, 100)
    with pytest.raises(ValueError):
        transition_error(100, 101)


def test_transition_error_shares_the_chi_cap():
    # both are one explicit-sum pass, capped at m = DEFAULT_EXACT_CAP
    for fn in (chi, transition_error):
        with pytest.raises(ResourceCapError, match="exceeds cap 5000"):
            fn(5001, 2)


# --- surjection probability ----------------------------------------------

def test_surjection_probability_trivial():
    assert surjection_log_probability(5, 1) == 0.0
    want = math.log(6.0 / 27.0)
    assert abs(surjection_log_probability(3, 3) - want) <= 1e-14
    with pytest.raises(ValueError):
        surjection_log_probability(3, 4)


# ln_p_mpmath values of the shapes where it takes more than a few seconds (2-core
# Xeon), each made by
#   PYTHONPATH=src python3 -c "import sys; sys.path.insert(0, 'tests');
#       from oracles import ln_p_mpmath; print(repr(ln_p_mpmath(N, n)))"
# and matched to 1e-14 by ln(n! {N n}) - N ln n from stirling_exact(N, n, cap=N)
LN_P_MPMATH = {(5501, 5000): -3660.089395731216,  # 8.7 s
               (10001, 5000): -895.7091671331231,  # 9.6 s
               (12001, 6000): -1074.9485401718146,  # 13.9 s
               (9600, 8000): -4732.711099607166,  # 22.8 s
               (12000, 8000): -2846.2039282892983}  # 26.3 s
_OUT_OF_RANGE = pytest.mark.xfail(strict=True, reason="the band's law spans more than "
                                  "float64's exponent range (ROADMAP item 22)")


# N = n, N = n + 1, N = 2n + 1, n = 1, P near 1 (ln P = -7.4e-291 at (3001, 5),
# -5.7e-85 at (10^5, 500)), nu = (N - n)/n = 0.1 and the ldp --nu 1 chain; from
# n = 2500 on, shapes where a law rescaled near 1 lost its smallest levels to underflow
@pytest.mark.parametrize("N, n", [(3, 3), (41, 20), (50, 25), (300, 1), (300, 300), (301, 300),
                                  (400, 200), (600, 300), (2000, 2000), (2001, 1000),
                                  (2001, 2000), (2200, 2000), (3001, 5), (3001, 1500),
                                  (4000, 2000), (4001, 2001), (10 ** 4, 1000), (10 ** 5, 500),
                                  (2750, 2500), (4001, 3000), (5501, 5000), (10001, 5000),
                                  (12001, 6000), pytest.param(9600, 8000, marks=_OUT_OF_RANGE),
                                  pytest.param(12000, 8000, marks=_OUT_OF_RANGE)])
def test_surjection_probability_matches_inclusion_exclusion(N, n):
    want = LN_P_MPMATH[N, n] if (N, n) in LN_P_MPMATH else ln_p_mpmath(N, n)
    got = surjection_log_probability(N, n)
    assert got <= 0.0
    assert abs(got - want) <= 1e-12 * abs(want), (got, want)


@given(st.integers(min_value=1, max_value=120).flatmap(
    lambda n: st.tuples(st.integers(min_value=n, max_value=4 * n + 40), st.just(n))))
def test_surjection_probability_matches_inclusion_exclusion_property(Nn):
    # every n <= 120 and N <= 4n + 40 read at most 2.7e-15 relative; the first
    # k = N - n draws are none (k = 0), shorter or longer than the last n
    N, n = Nn
    want = ln_p_mpmath(N, n)
    got = surjection_log_probability(N, n)
    assert got <= 0.0
    assert abs(got - want) <= 1e-13 * abs(want), (N, n, got, want)


def test_surjection_probability_is_exact_on_every_small_shape():
    import mpmath
    with mpmath.workdps(50):
        for n in range(1, 11):
            for N in range(n, 11):
                p = mpmath.mpf(math.factorial(n) * set_partition_count(N, n)) / n ** N
                want = float(mpmath.log(p))
                got = surjection_log_probability(N, n)
                assert abs(got - want) <= 1e-14 * abs(want), (N, n, got, want)


def test_surjection_probability_is_never_positive():
    # the log-space route's cancellation error once returned +2.4e-10, +2.0e-9 and +3.6e-7 here
    for N, n in ((3001, 5), (10 ** 4, 10), (10 ** 5, 5)):
        assert surjection_log_probability(N, n) <= 0.0
    # ln P rounds to 0 (it is about -10^-9690 and -10^-876): +0, not a subnormal or -0
    for n in (5, 50):
        got = surjection_log_probability(10 ** 5, n)
        assert got == 0.0 and math.copysign(1.0, got) == 1.0, (n, got)


def test_surjection_probability_caps_the_band():
    # N * min(n, N - n + 1) entries to roll, 5.001e8 in both cases: over the cap
    for n in (5001, 95000):
        with pytest.raises(ResourceCapError, match="exceeds cap 500000000"):
            surjection_log_probability(10 ** 5, n)


# --- saddle diagnostics ---------------------------------------------------

def test_saddle_diagnostics_lambda_one():
    rep = saddle_diagnostics(1.0, 400)
    assert rep["central_rel_err"] <= 0.025
    assert rep["tail_abs"] <= rep["tail_bound"]
    with pytest.raises(ValueError):
        saddle_diagnostics(1.0, 5)
    with pytest.raises(ValueError):
        saddle_diagnostics(0.0, 100)
    for l in (math.inf, math.nan):
        with pytest.raises(ValueError):
            saddle_diagnostics(1.0, l)


def test_saddle_tail_mass_matches_mpmath():
    # the tail mass sits in a narrow peak at theta0; at these points an
    # adaptive quadrature that misses the peak is off by 1e2-1e5
    for lam, l in ((5.0, 2000), (1.0, 100000)):
        got = saddle_diagnostics(lam, l)["tail_abs"]
        ref = tail_abs_reference(lam, l)
        assert abs(got - ref) <= 1e-8 * ref, (lam, l, got, ref)


def test_quadrature_fails_loudly_on_a_step():
    # a jump inside a panel limits every round to O(panel width) error, so
    # the rounds never agree to 1e-10
    assert abs(_quad(lambda x: x * x, 0.0, 3.0) - 9.0) <= 1e-12
    with pytest.raises(QuadratureError):
        _quad(lambda x: (x > 1.0 / 3.0).astype(float), 0.0, 1.0)


def test_saddle_diagnostics_lambda_range():
    # the central window misses about erfc(sqrt(v) ln l) of the Gaussian
    # mass, above the 10/l budget at lambda = 0.1 (l * error 13.8 to 31.6)
    for l in (100, 2000, 100000):
        with pytest.raises(NumericsError, match="central saddle term"):
            saddle_diagnostics(0.1, l)
        assert saddle_diagnostics(0.15, l)["central_rel_err"] <= 10.0 / l


def test_saddle_diagnostics_reconstructs_stirling():
    rels = []
    for l in (100, 200, 400):
        rep = saddle_diagnostics(1.0, l)
        approx = rep["log_prefactor"] + math.log(rep["central"] + rep["tail"])
        exact = _log_big(stirling_exact(2 * l, l))
        rels.append(abs(math.expm1(approx - exact)))
    # quadrature of the full integral representation is essentially exact
    assert max(rels) <= 1.0 / min(100, 200, 400)
    assert max(rels) <= 1e-9
