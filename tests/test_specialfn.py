import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from coupons import (NumericsError, curve, f_drift, g_theta, rate_j, saddle_params,
                     tail_h, xi_of_lambda)
from coupons.specialfn import _xi_newton, lambert_w0

from oracles import (fd_derivatives_123_4, path_action, path_action_mp, rate_j_reference,
                     xi_bisect, xi_mpmath, xi_newton_reference, xi_via_lambertw)

XI_1 = xi_bisect(1.0)  # independent bisection value of xi(1)


# --- lambert_w0 ---------------------------------------------------------

def test_w0_trivial_points():
    assert lambert_w0(0.0) == 0.0
    assert abs(lambert_w0(math.e) - 1.0) <= 1e-14
    assert lambert_w0(-math.exp(-1.0)) == -1.0


def test_w0_domain_error():
    with pytest.raises(ValueError):
        lambert_w0(-math.exp(-1.0) - 1e-10)


def test_w0_branch_point_clamp():
    # within 1e-15 below the branch point is clamped onto it
    assert lambert_w0(-math.exp(-1.0) - 1e-16) == -1.0


@given(st.floats(min_value=-math.exp(-1.0) + 1e-12, max_value=1e6))
def test_w0_defining_residual(z):
    w = lambert_w0(z)
    assert w >= -1.0
    assert abs(w * math.exp(w) - z) <= 1e-13 * max(abs(z), 1e-6)


def _w0_grid():
    bp = -math.exp(-1.0)
    return np.concatenate([
        np.logspace(-12.0, 6.0, 1801),
        bp + np.logspace(-16.0, -3.0, 131), [np.nextafter(bp, 0.0), bp],
        np.linspace(-1e-3, 1e-3, 101), [-1e-300, 1e-300],
        np.linspace(math.e - 1e-3, math.e + 1e-3, 101), [math.e]])


def test_w0_array_equals_scalar_bit_for_bit():
    z = _w0_grid()
    w = lambert_w0(z)
    assert w.shape == z.shape and w.dtype == np.float64
    assert np.array_equal(w, [lambert_w0(v) for v in z.tolist()])
    assert np.array_equal(lambert_w0(z[:2000].reshape(40, 50)), w[:2000].reshape(40, 50))
    assert type(lambert_w0(1.0)) is float
    assert type(lambert_w0(np.float64(1.0))) is float


def test_w0_array_residual():
    z = _w0_grid()
    w = lambert_w0(z)
    assert np.all(w >= -1.0)
    assert np.all(np.abs(w * np.exp(w) - z) <= 1e-13 * np.maximum(np.abs(z), 1e-290))


def test_w0_array_below_branch_point_rejects_whole_array():
    z = np.array([0.5, -math.exp(-1.0) - 1e-10, 1.0])
    with pytest.raises(ValueError, match="below branch point"):
        lambert_w0(z)


def test_w0_nonfinite_does_not_converge():
    for bad in (math.nan, math.inf):
        with pytest.raises(NumericsError), np.errstate(invalid="ignore"):
            lambert_w0(bad)
        with pytest.raises(NumericsError), np.errstate(invalid="ignore"):
            lambert_w0(np.array([1.0, bad]))


# --- xi_of_lambda -------------------------------------------------------

def test_xi_zero_exact():
    assert xi_of_lambda(0.0) == 0.0
    assert xi_via_lambertw(0.0) == 0.0


def test_xi_at_one_matches_bisection():
    assert abs(xi_of_lambda(1.0) - XI_1) <= 1e-12 * XI_1


def test_xi_large_lambda_asymptote():
    # xi(20) = 21 - 21 e^{-xi(20)}, so the gap is O(lambda e^-lambda)
    assert abs(xi_of_lambda(20.0) - 21.0) < 21.0 * math.exp(-20.0) * 2.0


def test_xi_negative_rejected():
    with pytest.raises(ValueError):
        xi_of_lambda(-0.1)


def test_xi_nonfinite_rejected():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            xi_of_lambda(bad)


def test_xi_dual_route_agreement():
    for lam in np.linspace(0.05, 20.0, 97):
        a = xi_of_lambda(lam)
        b = xi_via_lambertw(lam)
        assert abs(a - b) <= 1e-11 * a


def test_xi_via_lambertw_array_equals_scalar():
    lams = np.concatenate([[0.0], np.logspace(-6.0, 3.0, 400)])
    xis = xi_via_lambertw(lams)
    assert xis[0] == 0.0
    assert np.array_equal(xis, [xi_via_lambertw(l) for l in lams.tolist()])
    with pytest.raises(ValueError):
        xi_via_lambertw(np.array([1.0, -0.5]))


def test_xi_matches_50_digit_roots():
    # measured worst case 6.2e-15; the library checks xi against no second route
    for lam in np.logspace(math.log10(0.05), 4.0, 400).tolist():
        want = xi_mpmath(lam)
        assert abs(xi_of_lambda(lam) - want) <= 1e-14 * want, lam


@pytest.mark.xfail(strict=True, reason="small-lambda residual cancels (ROADMAP item 2)")
@pytest.mark.parametrize("lam", [1e-8, 1e-6, 1e-4, 6.5e-4, 1e-3])
def test_xi_small_lambda_matches_50_digit_roots(lam):
    # relative errors today: 6.3e-2, 7.7e-6, 5.5e-10, 1.6e-11, 4.8e-12;
    # at 6.5e-4 the Newton loop reaches its iteration cap without a signal
    want = xi_mpmath(lam)
    assert abs(xi_of_lambda(lam) - want) <= 1e-14 * want


def test_xi_newton_cycle_exit_is_bit_identical(monkeypatch):
    # leaving a 2-cycle early must return the very double the plain loop
    # returns at its 100-iteration cap, and the sample must contain such
    # cycles; it includes every RK4 slope lambda of the nu = 1 curve
    slopes = []
    monkeypatch.setattr(curve, "_xi_newton", lambda lam: slopes.append(lam) or _xi_newton(lam))
    curve.solve_completion_curve(1.0, 0.2)
    assert len(slopes) > 7000
    rng = np.random.default_rng(1906)
    lams = np.concatenate([np.linspace(1e-4, 10.0, 25000),
                           10.0 ** rng.uniform(-8.0, 4.0, 25000),
                           [0.0006506993242453797],  # drifts without cycling
                           slopes])
    capped = 0
    converged_at = set()
    for lam in lams.tolist():
        want, iters = xi_newton_reference(lam)
        assert _xi_newton(lam) == want, lam
        capped += iters == 100
        converged_at.add(iters)
    assert capped >= 1000
    # the cycle history is kept from k = 8 on: the sample converges on
    # both sides of that gate
    assert {7, 8, 9, 10} <= converged_at


@given(st.floats(min_value=1e-9, max_value=20.0))
def test_xi_bracket_and_identity(lam):
    xi = xi_of_lambda(lam)
    b = 1.0 + lam
    assert lam <= xi * (1.0 + 1e-12)
    assert xi <= min(2.0 * lam, b) * (1.0 + 1e-12)
    # residual of the defining equation
    assert abs(xi - b * (1.0 - math.exp(-xi))) <= 1e-12 * (1.0 + xi)
    # rearranged identity e^-xi (1+lam) = 1 + lam - xi
    assert abs(math.exp(-xi) * b - (b - xi)) <= 1e-11 * b


@given(st.tuples(st.floats(min_value=1e-6, max_value=20.0),
                 st.floats(min_value=1e-6, max_value=20.0)))
def test_xi_strictly_monotone(pair):
    l1, l2 = sorted(pair)
    if l2 - l1 < 1e-9:
        return
    x1, x2 = xi_of_lambda(l1), xi_of_lambda(l2)
    assert x1 < x2
    assert x1 - l1 < x2 - l2  # xi - lambda is increasing too


def test_xi_concave_on_grid():
    grid = np.linspace(0.05, 10.0, 400)
    vals = np.array([xi_of_lambda(l) for l in grid])
    second = np.diff(vals, 2)
    assert np.all(second <= 1e-10)


# --- f_drift ------------------------------------------------------------

def test_f_drift_examples():
    assert f_drift(0.0) == 1.0
    assert abs(f_drift(1.0) - math.exp(-XI_1)) <= 1e-14
    with pytest.raises(ValueError):
        f_drift(-1e-9)


def test_f_drift_decreasing_and_below_reciprocal():
    grid = np.linspace(0.1, 10.0, 100)
    vals = np.array([f_drift(x) for x in grid])
    assert np.all(np.diff(vals) < 0.0)
    assert np.all(vals < 1.0 / (1.0 + grid))
    for x in grid[::7]:
        assert abs(f_drift(x) - math.exp(-xi_of_lambda(x))) <= 1e-12


# --- saddle_params ------------------------------------------------------

def test_saddle_params_lambda_one():
    sp = saddle_params(1.0)
    assert abs(sp.v - (2.0 * (XI_1 - 1.0) / 2.0)) <= 1e-12
    assert 1.0 <= 2.0 * sp.v <= 2.0
    assert sp.gamma_tilde == sp.gamma - sp.v ** 2 / 2.0


def test_saddle_params_domain():
    with pytest.raises(ValueError):
        saddle_params(0.0)
    with pytest.raises(ValueError):
        saddle_params(-1.0)


def test_saddle_params_large_lambda_underflowed_rho():
    # rho = e^-xi underflows to 0.0 above lam ~ 745; rho < 1/(1+lam) still holds
    for lam in (746.0, 2499.0):
        sp = saddle_params(lam)
        assert sp.rho == 0.0 and sp.xi > math.log1p(lam)


@given(st.floats(min_value=1e-4, max_value=20.0))
def test_saddle_params_coefficient_bounds(lam):
    sp = saddle_params(lam)
    b = 1.0 + lam
    assert lam <= 2.0 * sp.v * (1.0 + 1e-10)
    assert 2.0 * sp.v <= b * (1.0 + 1e-10)
    assert 0.0 < sp.rho < 1.0 / b
    assert abs(sp.tau) <= b ** 3
    assert abs(sp.gamma) <= (7.0 / 24.0) * b ** 4
    assert abs(sp.gamma_tilde) <= (13.0 / 24.0) * b ** 4


# --- rate_j -------------------------------------------------------------

def _rate_j_original(xi):
    lnb = math.log(math.expm1(xi))
    return (xi / (1.0 - math.exp(-xi))) * (1.0 - xi + lnb) - lnb


def test_rate_j_against_high_precision():
    assert abs(rate_j(XI_1) - rate_j_reference(XI_1)) <= 1e-10
    assert abs(_rate_j_original(XI_1) - rate_j_reference(XI_1)) <= 1e-10


def test_rate_j_two_forms_agree():
    for xi in np.linspace(0.05, 30.0, 121):
        a = rate_j(xi)
        b = _rate_j_original(xi)
        assert abs(a - b) <= 1e-10 * max(1.0, abs(a))


def test_rate_j_relative_error_over_its_whole_range():
    # ln of the rounded 1 - e^-xi read J 1.4e-7 high at xi = 20 (ldp --nu 19) and
    # xi e^-xi for J from xi = 50.  J's condition number is xi, and the cancelling
    # sum costs about that many ulps; up to 708, where e^-xi leaves the normal range
    for xi in np.geomspace(0.05, 708.0, 400):
        want = rate_j_reference(xi)
        assert abs(rate_j(xi) - want) <= (1e-14 + xi * 2.0 ** -52) * want, xi


def test_rate_j_decreasing_positive_vanishing():
    assert rate_j(1.0) > rate_j(2.0) > rate_j(4.0) > 0.0
    assert 0.0 < rate_j(30.0) < 30.0 * math.exp(-30.0) * 2.0
    for bad in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            rate_j(bad)


@pytest.mark.parametrize("nu", [0.05, 0.2, 0.5, 1.0, 2.0, 4.0, 19.0])
def test_rate_j_is_the_action_of_the_completion_curve(nu):
    # min over paths of the sample-path rate, attained on zeta(nu, .), is the
    # rate J of T_n <= (1+nu) n: the criterion-9 rate from the criterion-12
    # curve.  At nu = 19 (J = 2.1e-9) the float integrand's 1 - zeta cancels
    # and rounds below 0 near x = 1 + nu, so that action is taken in mpmath
    j = rate_j(xi_of_lambda(nu))
    action = path_action_mp(nu) if nu > 4.0 else path_action(nu)
    assert abs(action - j) <= 1e-12 * j


@pytest.mark.parametrize("nu", [0.5, 1.0, 2.0])
def test_completion_curve_action_grows_as_eps_squared(nu):
    # the second variation: zeta is a strict local minimiser, so a bump eps psi
    # adds about c eps^2 > 0; a gain linear in eps would mean zeta is not stationary
    lo, hi = 0.25 * (1.0 + nu), 0.75 * (1.0 + nu)
    w = math.pi / (hi - lo)
    bump = (lambda x: math.cos(w * (x - 0.5 * (lo + hi))) ** 2,
            lambda x: -w * math.sin(2.0 * w * (x - 0.5 * (lo + hi))), lo, hi)
    base = path_action(nu)
    gains = [path_action(nu, eps, bump) - base for eps in (1e-2, 5e-3, 2.5e-3)]
    assert min(gains) > 0.0, gains
    for big, small in zip(gains, gains[1:]):
        assert 3.9 <= big / small <= 4.1, gains


# --- tail_h -------------------------------------------------------------

def test_tail_h_values():
    want = 2.0 / (3.0 * (math.e - 1.0)) / math.pi ** 2
    assert abs(tail_h(1.0) - want) <= 1e-15
    assert tail_h(1e-6) < 2e-7
    for x in np.linspace(0.1, 10.0, 50):
        assert tail_h(x) > 0.0
    for bad in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            tail_h(bad)


# --- g_theta ------------------------------------------------------------

def test_g_at_zero_is_one():
    # a complex-by-real division through the reciprocal once gave 0.9999999999999999
    for lam in (0.3, 1.0, 4.0):
        assert g_theta(lam, 0.0) == 1.0 + 0.0j
        assert g_theta(lam, np.array(0.0)) == 1.0 + 0.0j
        assert g_theta(lam, np.array([0.0]))[0] == 1.0 + 0.0j
        assert g_theta(lam, np.array([-0.5, 0.0, 2.0]))[1] == 1.0 + 0.0j


def test_g_domain_errors():
    with pytest.raises(ValueError):
        g_theta(0.0, 0.1)
    for bad in (3.2, math.nan, np.array([0.1, math.nan])):
        with pytest.raises(ValueError):
            g_theta(1.0, bad)


def test_g_array_matches_scalar():
    # one numpy route: a scalar theta gets the bits it gets inside a longer array
    th = np.linspace(-math.pi, math.pi, 3001)
    for lam in (0.3, 0.5, 1.0, 2.0, 4.0):
        arr = g_theta(lam, th)
        scalars = np.array([g_theta(lam, float(t)) for t in th])
        singles = np.concatenate([g_theta(lam, np.array([t])) for t in th])
        assert scalars.tobytes() == arr.tobytes(), lam
        assert singles.tobytes() == arr.tobytes(), lam
        assert g_theta(lam, th[:3000].reshape(3, 1000, 1)).tobytes() == arr[:3000].tobytes()


def test_g_modulus_bound_lambda_one():
    # |g(theta)| <= exp(-h(xi) theta^2) on a 1000-point grid
    xi = xi_of_lambda(1.0)
    h = tail_h(xi)
    th = np.linspace(-math.pi, math.pi, 1000)
    mod = np.abs(g_theta(1.0, th))
    assert np.all(mod <= 1.0 + 1e-12)
    assert np.all(mod <= np.exp(-h * th ** 2) + 1e-12)


def test_g_taylor_remainder_both_constants():
    # |g - (1 - v t^2 + i tau t^3 + gamma t^4)| <= T |t|^5 for |t| <= 0.1,
    # with the sharp constant 46(1+lam)^6/(120 lam); the weaker
    # (1+lam)^6/(2 lam) stated alongside it is implied a fortiori.  Below
    # |t| ~ 1e-3 the true remainder drops under the double-precision noise
    # of evaluating g (~1e-16, since |g| ~ 1), so the comparison carries a
    # machine-epsilon floor.
    eps = 1e-14
    th = np.concatenate([-np.logspace(-4, -1, 40), np.logspace(-4, -1, 40)])
    for lam in (0.1, 0.5, 1.0, 2.0, 5.0):
        sp = saddle_params(lam)
        poly = (1.0 - sp.v * th ** 2 + 1j * sp.tau * th ** 3 + sp.gamma * th ** 4)
        rem = np.abs(g_theta(lam, th) - poly)
        t_sharp = 46.0 * (1.0 + lam) ** 6 / (120.0 * lam)
        t_weak = (1.0 + lam) ** 6 / (2.0 * lam)
        assert np.all(rem <= t_sharp * np.abs(th) ** 5 + eps)
        assert np.all(rem <= t_weak * np.abs(th) ** 5 + eps)


def test_g_finite_difference_derivatives():
    for lam in (0.5, 1.0, 2.0):
        sp = saddle_params(lam)
        d2, d3, d4 = fd_derivatives_123_4(lambda t: g_theta(lam, t))
        assert abs(d2 - (-2.0 * sp.v)) <= 1e-5 * 2.0 * sp.v
        assert abs(d3 - 6.0j * sp.tau) <= 1e-5 * 6.0 * abs(sp.tau)
        assert abs(d4 - 24.0 * sp.gamma) <= 1e-5 * 24.0 * abs(sp.gamma)
