"""Limiting completion curves of the collector.

The patient limit is zeta_inf(t) = 1 - e^{-t}.  The impatient limit
zeta(nu, .) solves the backwards Cauchy problem

    y'(x) = F((x - y)/y),        y(1 + nu) = 1,

from the anchor (1+nu, 1) down to x = a > 0 (the corner (0,0) is
singular and excluded).  F = exp(-xi(.)) is the same drift that rules
the reversed chain.  The ODE is homogeneous, so along the solution
xi(lambda(x)) = theta x with theta = xi(nu)/(1+nu), which gives

    zeta(nu, x) = (1 - e^{-theta x}) / theta,
    lambda(x) = theta x / (1 - e^{-theta x}) - 1.

That closed form (`_zeta`) is the library's reference for zeta and
lambda.  `solve_completion_curve` still integrates the ODE by RK4, with
each slope's xi from the same Newton route as `xi_of_lambda`; the grid
bytes are the published curve CSV, and every grid point is checked
against the closed form (for `coupons curve` and the curve of
`simulate` alike).  The solution is also trapped in the envelope

    x / (1 + x (1/y0 - 1/x0))  <=  y(x)  <=  x (1 - (x/x0)(1 - y0/x0))

with (x0, y0) = (1+nu, 1), which the solver enforces at every grid
point (a breach signals an integrator bug, not a math fact).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericsError, ResourceCapError, integral
from .specialfn import _xi_newton, xi_of_lambda

# largest accepted |RK4 grid - closed form|
_CLOSED_FORM_TOL = 1e-8
# most RK4 steps one solve takes: about 80 s and two 80 MB grids at ~8 us a step
_RK4_STEP_CAP = 10 ** 7
# curve_to_csv: rows formatted and written per block
_CSV_BLOCK = 4096


def patient_curve(t):
    """zeta_inf(t) = 1 - e^{-t} for t >= 0; a float for a scalar, else an array."""
    t = np.asarray(t, dtype=float)
    if not np.all(t >= 0.0):  # nan fails it too
        raise ValueError("patient_curve: negative or nan time %r" % float(t.min()))
    z = -np.expm1(-t)  # scalars too: math.expm1 can differ from numpy's in the last bit
    return float(z) if z.ndim == 0 else z


def envelope(nu, x):
    """Lower and upper analytic bounds for zeta(nu, x), anchored at (1+nu, 1)."""
    x0 = 1.0 + nu
    c = 1.0 - 1.0 / x0          # 1/y0 - 1/x0 with y0 = 1
    lo = x / (1.0 + x * c)
    hi = x * (1.0 - (x / x0) * c)
    return lo, hi


@dataclass
class Curve:
    """Solved completion curve; xs descend from 1+nu to a."""
    nu: float
    a: float
    step: float
    xs: np.ndarray = field(repr=False)
    ys: np.ndarray = field(repr=False)

    def y_at(self, x):
        """zeta(nu, x) by the closed form, for x in [a, 1+nu]."""
        x = float(x)
        if not self.a - 1e-12 <= x <= 1.0 + self.nu + 1e-12:  # nan fails it too
            raise ValueError("y_at: x=%r outside [%r, %r]" % (x, self.a, 1.0 + self.nu))
        return float(_zeta(self.nu, x))


def _zeta(nu, x):
    # zeta(nu, x) = (1 - e^{-theta x})/theta, theta = xi(nu)/(1+nu); scalars or arrays
    theta = xi_of_lambda(nu) / (1.0 + nu)
    return -np.expm1(-theta * np.asarray(x, dtype=float)) / theta


def _slope(x, y):
    # F((x-y)/y) = exp(-xi) with the Newton root
    lam = (x - y) / y
    if lam < 0.0:
        # roundoff can push x slightly below y right at the anchor
        if lam < -1e-12:
            raise NumericsError("curve solver left the region y <= x")
        lam = 0.0
    if lam == 0.0:
        return 1.0
    return math.exp(-_xi_newton(lam))


def _rk4_path(nu, a, step):
    x0 = 1.0 + nu
    steps = (x0 - a) / step
    if steps == math.inf:
        raise ValueError("solve_completion_curve: (1 + nu - a)/step overflows")
    if steps > _RK4_STEP_CAP:
        raise ResourceCapError("solve_completion_curve: RK4 step count %g exceeds cap %d"
                               % (steps, _RK4_STEP_CAP))
    nsteps = max(1, int(math.ceil(steps - 1e-12)))
    xs = np.empty(nsteps + 1)
    ys = np.empty(nsteps + 1)
    xs[0], ys[0] = x0, 1.0
    y = 1.0
    for i in range(nsteps):
        x = x0 - i * step
        h = min(step, x - a)  # last step lands exactly on a
        k1 = _slope(x, y)
        k2 = _slope(x - 0.5 * h, y - 0.5 * h * k1)
        k3 = _slope(x - 0.5 * h, y - 0.5 * h * k2)
        k4 = _slope(x - h, y - h * k3)
        y = y - (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        xs[i + 1] = x - h
        ys[i + 1] = y
    xs[-1] = a
    return xs, ys


def solve_completion_curve(nu, a, step=1e-3, richardson_check=True):
    """Integrate the Cauchy problem backwards from (1+nu, 1) down to a.

    Classic fixed-step RK4 (bit-reproducible across runs).  Each slope
    uses the Newton root of xi.  When richardson_check is set (the
    default), every grid point must lie within 1e-8 of the closed form
    `_zeta`; that check also catches a wrong xi on the path.  The flag
    keeps its name because the bench tracer (perfbench/tracer.py) reads
    it by name, until the RK4 path leaves the library (ROADMAP item 3).
    NumericsError on any failed check; ResourceCapError when
    (1 + nu - a)/step exceeds 10^7 steps, before anything is allocated.
    """
    nu = float(nu)
    a = float(a)
    step = float(step)
    if not (math.isfinite(nu) and math.isfinite(a) and math.isfinite(step)):
        raise ValueError("solve_completion_curve: nu, a and step must be finite")
    if nu <= 0.0:
        raise ValueError("solve_completion_curve: nu must be > 0")
    if not (0.0 < a < 1.0 + nu):
        raise ValueError("solve_completion_curve: need 0 < a < 1 + nu")
    if not (0.0 < step <= 1e-1):
        raise ValueError("solve_completion_curve: step must be in (0, 0.1]")

    xs, ys = _rk4_path(nu, a, step)

    lo, hi = envelope(nu, xs)
    if np.any(ys < lo - 1e-9) or np.any(ys > hi + 1e-9):
        raise NumericsError("solver output breached the analytic envelope")
    if np.any(ys <= 0.0) or np.any(ys[1:] > xs[1:]):
        raise NumericsError("solver output left the region 0 < y <= x")
    if np.any(np.diff(ys) > 0.0):  # xs descend, so ys must too
        raise NumericsError("solver output is not monotone in x")

    if richardson_check:
        dev = float(np.max(np.abs(ys - _zeta(nu, xs))))
        if dev > _CLOSED_FORM_TOL:
            raise NumericsError("RK4 grid deviates from the closed form by %g, more than %g"
                                % (dev, _CLOSED_FORM_TOL))

    return Curve(nu=nu, a=a, step=step, xs=xs, ys=ys)


def lambda_along(curve, x):
    """lambda(x) = x/zeta(x) - 1 = theta x/(1 - e^{-theta x}) - 1 at curve.nu."""
    x = float(x)
    return x / curve.y_at(x) - 1.0


def strip_clearance(k, eps):
    """Check zeta(x) - eps >= x/k on the window [2 k eps, k - 2 k^2 eps].

    k >= 2 is the automaton alphabet size; the curve is the one for
    nu = k - 1.  Returns True when the strip stays clear (it must, for
    eps <= 1/(2(k+1))).  zeta is concave and x/k linear, so the margin is
    smallest at an end of the window; at the largest eps the window is one
    point, whose two computed ends may differ by rounding.
    """
    k = integral("strip_clearance: k", k)
    if k < 2:
        raise ValueError("strip_clearance: need k >= 2")
    eps = float(eps)
    if not (0.0 < eps <= 1.0 / (2.0 * (k + 1))):
        raise ValueError("strip_clearance: need 0 < eps <= 1/(2(k+1)) = %g"
                         % (1.0 / (2.0 * (k + 1))))
    ends = np.array([2.0 * k * eps, k - 2.0 * k * k * eps])
    return bool(np.all(_zeta(k - 1.0, ends) - eps >= ends / k))


def curve_to_csv(curve, fh):
    """Write `x,y,lambda` rows at 17 significant digits to an open text file.

    One write per block of 4096 rows, so the writer holds O(block) extra
    memory at any curve length.
    """
    fh.write("x,y,lambda\n")
    xs, ys = curve.xs, curve.ys
    for i in range(0, len(xs), _CSV_BLOCK):
        # Python floats format faster than numpy scalars; x / y - 1.0 is the same IEEE op
        fh.write("".join(["%.17g,%.17g,%.17g\n" % (x, y, x / y - 1.0) for x, y in
                          zip(xs[i:i + _CSV_BLOCK].tolist(), ys[i:i + _CSV_BLOCK].tolist())]))
