"""Special functions for the conditioned coupon collector.

Everything here revolves around the implicit equation

    xi = (1 + lam) * (1 - exp(-xi)),          xi(0) = 0,

whose unique positive root xi(lam) is the saddle point governing the
Stirling numbers {(1+lam)l, l}.  Derived quantities:

    rho = exp(-xi)            limiting decrement probability, also the
                              ODE drift F,
    v   = (1+lam)(xi-lam)/2   half the variance of the tilted step law,
    J   = large-deviation rate of P(T_n <= (1+lam) n),
    h   = tail-majorant exponent used by the saddle diagnostics,
    g   = normalized characteristic factor whose l-th power is
          integrated in the saddle-point representation.

xi comes from safeguarded Newton alone, one route for the scalar calls
and for the RK4 curve solver; the independent Lambert-W closed form and
50-digit roots check it in the tests.  lambert_w0 (scalar or array) has
no caller in the library.

All functions are pure; there is no module state.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError

_BRANCH_POINT = -math.exp(-1.0)  # -1/e, domain edge of the W0 branch
_RTOL = 1e-9  # SaddleParams.validate: relative slack of the bracket checks


def lambert_w0(z):
    """Principal branch W0 of the Lambert W function, real arguments.

    Solves w * exp(w) = z for z >= -1/e by at most 50 Halley steps
    (NumericsError if they do not converge, as for nan and inf).
    Arguments up to 1e-15 below the branch point are clamped onto it;
    lower ones raise ValueError.  A scalar gives a float, an ndarray an
    array of its shape, solved element by element.  No library code calls
    it: it is the tests' Lambert-W route to xi, and stays in this module
    while the benchmark tracer binds it.
    """
    if np.ndim(z):
        return np.vectorize(lambert_w0, otypes=[float])(z)
    z = float(z)
    if z < _BRANCH_POINT - 1e-15:
        raise ValueError("lambert_w0: argument %r below branch point -1/e" % z)
    if z <= _BRANCH_POINT:
        return -1.0
    if z == 0.0:
        return 0.0

    # initial guess: series in p = sqrt(2(e z + 1)) near the branch
    # point, log asymptote for large z, identity-ish guess in between
    if math.e * z + 1.0 < 0.36:
        p = math.sqrt(2.0 * (math.e * z + 1.0))
        w = -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * (11.0 / 72.0)))
    elif z >= math.e:
        l1 = math.log(z)
        l2 = math.log(l1)
        w = l1 - l2 + l2 / l1
    else:
        w = z / (1.0 + z)

    tol = 1e-15 * max(abs(z), 1e-290)
    for _ in range(50):
        ew = math.exp(w)
        f = w * ew - z
        if abs(f) <= tol:
            return w
        w1 = w + 1.0
        # Halley step: f / (e^w (w+1) - (w+2) f / (2w+2))
        step = f / (ew * w1 - (w + 2.0) * f / (2.0 * w1))
        w -= step
        if w < -1.0:
            w = -1.0 + 0.25 * (w + step + 1.0)  # keep inside the branch
        # step-size stop: a step below 1e-16 (1+|w|) ends the iteration
        # where the residual recheck passes
        if abs(step) <= 1e-16 * (1.0 + abs(w)) and abs(w * math.exp(w) - z) <= tol:
            return w
    if abs(w * math.exp(w) - z) <= 1e-13 * max(abs(z), 1e-290):
        return w
    raise NumericsError("lambert_w0 did not converge for z=%r" % z)


def _xi_newton(lam):
    # safeguarded Newton on phi(x) = x - (1+lam)(1 - e^-x), bracketed by
    # lam <= xi <= min(2 lam, 1+lam).  The step test asks for less than
    # one ulp, which rounding often never grants: the state (x, lo, hi)
    # then falls into an exact 2-cycle a few ulp wide.  The loop is a
    # function of that state alone, so once it equals the state two
    # iterations back the remaining iterations only alternate (the step
    # test cannot fire inside the cycle), and the member the 100th would
    # return is picked by parity.  Most roots converge within 8 steps, so
    # the history is kept from k = 8 on; a cycle that starts earlier is
    # caught at k = 10 or 11 with the same parity.  No cycle and no
    # converged step: the last iterate is returned unflagged.
    c = 1.0 + lam
    lo = lam
    hi = 2.0 * lam if 2.0 * lam <= c else c  # min(2 lam, c) without the builtin's call cost
    x = 0.5 * (lo + hi)
    x1 = lo1 = hi1 = x2 = lo2 = hi2 = None  # the states 1 and 2 iterations back
    for k in range(100):
        if k >= 8:
            if x == x2 and lo == lo2 and hi == hi2:
                return x if k % 2 == 0 else x1
            x2, lo2, hi2 = x1, lo1, hi1
            x1, lo1, hi1 = x, lo, hi
        ex = math.exp(-x)
        phi = x - c * (1.0 - ex)
        if phi > 0.0:
            hi = x
        else:
            lo = x
        dphi = 1.0 - c * ex
        if dphi > 0.0:
            xn = x - phi / dphi
        else:
            xn = 0.5 * (lo + hi)
        if not (lo <= xn <= hi):
            xn = 0.5 * (lo + hi)
        if abs(xn - x) <= 1e-16 * x:
            return xn
        x = xn
    return x


def xi_of_lambda(lam):
    """Unique positive root of xi = (1+lam)(1-e^-xi); xi(0) = 0.

    One safeguarded Newton loop on the bracket [lam, min(2 lam, 1+lam)],
    stopped by a sub-ulp step or an exact 2-cycle, the same route as
    every slope of the RK4 curve solver.  Against 50-digit
    roots its relative error is at most 1e-14 for lam >= 0.05 (6.2e-15
    measured); below it grows as the residual cancels, to 4.6e-14 at
    1e-2, 4.8e-12 at 1e-3, 5.5e-10 at 1e-4, 7.7e-6 at 1e-6 and 6.3e-2 at
    1e-8, with no signal (the open small-lambda item of the ROADMAP).
    """
    lam = float(lam)
    if not math.isfinite(lam):
        raise ValueError("xi_of_lambda: lambda must be finite, got %r" % lam)
    if lam < 0.0:
        raise ValueError("xi_of_lambda: negative lambda %r" % lam)
    if lam == 0.0:
        return 0.0
    return _xi_newton(lam)


def f_drift(x):
    """F(x) = exp(-xi(x)) = rho(x), the ODE drift; decreasing, F(0)=1."""
    return math.exp(-xi_of_lambda(x))


@dataclass(frozen=True)
class SaddleParams:
    """Saddle-point bundle at ratio lam = (m-l)/l.

    tau is the signed real coefficient t in the cubic Taylor term
    t*(i theta^3) of g, i.e. g'''(0) = 6*tau*i; gamma is the real
    theta^4 coefficient, g''''(0) = 24*gamma.
    """
    lam: float
    xi: float
    rho: float
    v: float
    tau: float
    gamma: float
    gamma_tilde: float

    def validate(self):
        b = 1.0 + self.lam
        if not (abs(self.xi - b * (1.0 - math.exp(-self.xi)))
                <= 1e-12 * (1.0 + self.xi)):
            raise NumericsError("SaddleParams: xi residual too large")
        if not (self.lam <= self.xi * (1 + _RTOL)
                and self.xi <= min(2.0 * self.lam, b) * (1 + _RTOL)):
            raise NumericsError("SaddleParams: xi outside [lam, min(2lam,1+lam)]")
        # rho < 1/(1+lam) checked as xi > ln(1+lam): rho = e^-xi underflows
        # to 0.0 for lam above about 745
        if not (self.rho >= 0.0 and self.xi > math.log1p(self.lam)):
            raise NumericsError("SaddleParams: rho outside [0, 1/(1+lam))")
        if not (self.lam <= 2.0 * self.v * (1 + _RTOL)
                and 2.0 * self.v <= b * (1 + _RTOL)):
            raise NumericsError("SaddleParams: v outside [lam/2, (1+lam)/2]")
        if abs(self.tau) > b ** 3 or abs(self.gamma) > (7.0 / 24.0) * b ** 4 \
                or abs(self.gamma_tilde) > (13.0 / 24.0) * b ** 4:
            raise NumericsError("SaddleParams: coefficient bound violated")
        return self


def saddle_params(lam):
    """All saddle quantities at ratio lam > 0.

    v, tau, gamma are (up to factorials and powers of i) the 2nd/3rd/4th
    derivatives of g at 0, equal to the central moments of the
    zero-truncated Poisson(xi) step shifted by its mean 1+lam:

        g''(0)   = -2 v      = -mu_2,
        g'''(0)  =  6 tau i,   tau = -mu_3 / 6,
        g''''(0) = 24 gamma,   gamma = mu_4 / 24.

    Note: the source presentation of the cubic/quartic coefficients
    carries typos (a sign and two polynomial coefficients); the values
    below are the ones finite differences of g actually reproduce.
    """
    lam = float(lam)
    if lam <= 0.0:
        raise ValueError("saddle_params: lambda must be > 0, got %r" % lam)
    xi = xi_of_lambda(lam)
    b = 1.0 + lam
    rho = math.exp(-xi)
    v = b * (xi - lam) / 2.0
    mu3 = b * (xi * xi - 3.0 * lam * xi + lam * (1.0 + 2.0 * lam))
    mu4 = b * (xi ** 3 + (2.0 - 4.0 * lam) * xi ** 2
               + (1.0 + 6.0 * lam * lam) * xi
               - lam * (3.0 * lam * lam + 3.0 * lam + 1.0))
    tau = -mu3 / 6.0
    gamma = mu4 / 24.0
    return SaddleParams(lam=lam, xi=xi, rho=rho, v=v, tau=tau, gamma=gamma,
                        gamma_tilde=gamma - v * v / 2.0).validate()


def rate_j(xi):
    """Large-deviation rate J(xi) of P(T_n <= (1+lam) n), xi = xi(lam).

    Stable rewriting of
        J = (xi/(1-e^-xi)) (1 - xi + ln(e^xi - 1)) - ln(e^xi - 1):
    multiply through by (1-e^-xi) and regroup,
        (1-e^-xi) J = (xi - 1 + e^-xi) ln(1-e^-xi) + xi e^-xi,
    which avoids the e^xi overflow; the log is log1p(-e^-xi).  Relative
    error against mpmath, over 20,001 xi from 0.05 to 708 (where e^-xi
    leaves the normal range): at most 1e-14 + xi 2^-52, the ulps J's
    condition number xi costs; 6.9e-15 below xi = 20, 1.2e-13 at most.
    """
    xi = float(xi)
    if not 0.0 < xi < math.inf:
        raise ValueError("rate_j: xi must be finite and > 0, got %r" % xi)
    ex = math.exp(-xi)
    one_minus = -math.expm1(-xi)  # 1 - e^-xi, exact for tiny xi
    return ((xi - 1.0 + ex) * math.log1p(-ex) + xi * ex) / one_minus


def tail_h(x):
    """h(x) = (1/pi^2) * 2 x^2 / ((2+x)(e^x - 1)); tail exponent of |g|."""
    x = float(x)
    if not 0.0 < x < math.inf:
        raise ValueError("tail_h: argument must be finite and > 0, got %r" % x)
    return 2.0 * x * x / ((2.0 + x) * math.expm1(x) * math.pi ** 2)


def g_theta(lam, theta):
    """g(theta) = e^{-i(1+lam)theta} (Phi(theta) - rho)/(1 - rho).

    Phi is the characteristic function of Poisson(xi); g is that of the
    zero-truncated Poisson recentered at its mean 1+lam.  Accepts a
    scalar or ndarray theta in [-pi, pi]; |g| <= 1.  A scalar runs as a
    length-1 array, with the bits it gets inside a longer one, and the
    quotient is expm1(xi expm1(i theta))/(1 - rho) + 1, so g(0) = 1 exactly.
    """
    lam = float(lam)
    if lam <= 0.0:
        raise ValueError("g_theta: lambda must be > 0, got %r" % lam)
    th = np.asarray(theta, dtype=float)
    flat = th.reshape(-1)
    if not np.all(np.abs(flat) <= math.pi + 1e-12):  # nan fails too
        raise ValueError("g_theta: theta must be in [-pi, pi]")
    xi = xi_of_lambda(lam)
    rho = math.exp(-xi)
    q = np.expm1(xi * np.expm1(1j * flat)) / (1.0 - rho) + 1.0  # (Phi - rho)/(1 - rho)
    g = np.exp(-1j * (1.0 + lam) * flat) * q
    return complex(g[0]) if th.ndim == 0 else g.reshape(th.shape)
