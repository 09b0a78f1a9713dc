import io
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from coupons import (NumericsError, curve, curve_to_csv, envelope, f_drift,
                     lambda_along, patient_curve, solve_completion_curve,
                     strip_clearance, sup_distance_batch)
from coupons.cli import main

from conftest import traced_peak
from oracles import rk4_path_reference

# frozen from an independent step-1e-6 RK4 with bisection drift
# (regenerate with `python tests/oracles.py`)
GOLDEN_NU1 = {1.0: 0.68929215217758744, 0.5: 0.41240669291826265,
              0.2: 0.18487762363017271}
GOLDEN_LAMBDA_AT_1 = 0.45076365201726909


def test_patient_curve_values():
    assert patient_curve(0.0) == 0.0
    assert abs(patient_curve(math.log(2.0)) - 0.5) <= 1e-15
    ts = np.linspace(0.0, 30.0, 50)
    vals = patient_curve(ts)
    assert np.all(np.diff(vals) > 0.0)
    assert vals[-1] < 1.0 and vals[-1] > 1.0 - 1e-12
    with pytest.raises(ValueError):
        patient_curve(-0.5)
    for bad in (math.nan, np.array([1.0, math.nan])):  # nan is no time either
        with pytest.raises(ValueError):
            patient_curve(bad)


def test_patient_curve_scalar_matches_array():
    # one route: math.expm1 and numpy's expm1 differ in the last bit at some of these t
    for t in np.linspace(0.0, 30.0, 3001):
        got = patient_curve(float(t))
        assert type(got) is float and got == patient_curve(np.array([t]))[0], t


def test_solver_anchor_and_golden_points():
    c = solve_completion_curve(1.0, 0.2)
    assert c.xs[0] == 2.0 and c.ys[0] == 1.0
    assert abs(c.xs[-1] - 0.2) <= 1e-12
    for x, want in GOLDEN_NU1.items():
        assert abs(c.y_at(x) - want) <= 1e-7


def test_solver_domain_errors():
    with pytest.raises(ValueError):
        solve_completion_curve(0.0, 0.1)
    with pytest.raises(ValueError):
        solve_completion_curve(1.0, 2.5)
    with pytest.raises(ValueError):
        solve_completion_curve(1.0, 0.0)
    with pytest.raises(ValueError):
        solve_completion_curve(1.0, 0.1, step=0.5)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError):
            solve_completion_curve(bad, 0.2)
        with pytest.raises(ValueError):
            solve_completion_curve(1.0, bad)
        with pytest.raises(ValueError):
            solve_completion_curve(1.0, 0.2, step=bad)


def test_solver_region_and_slope():
    c = solve_completion_curve(2.0, 0.1)
    assert np.all(c.ys > 0.0)
    assert np.all(c.ys[1:] < c.xs[1:])
    dy = -np.diff(c.ys)   # in increasing-x direction
    dx = -np.diff(c.xs)
    slopes = dy / dx
    assert np.all(slopes > 0.0)
    assert np.all(slopes <= 1.0 + 1e-12)
    # 1 + nu rounds to 1 at nu = 1e-17, so the slope is taken at lambda = 0: y = x
    c = solve_completion_curve(1e-17, 0.5)
    assert np.abs(c.ys - c.xs).max() <= 1e-15


@given(st.floats(min_value=0.2, max_value=4.0),
       st.floats(min_value=0.05, max_value=0.8))
def test_envelope_containment(nu, frac):
    a = frac * (1.0 + nu)
    c = solve_completion_curve(nu, a, step=2e-3, richardson_check=False)
    lo, hi = envelope(nu, c.xs)
    assert np.all(c.ys >= lo - 1e-9)
    assert np.all(c.ys <= hi + 1e-9)


def test_envelope_numbers_nu1_x1():
    lo, hi = envelope(1.0, np.array([1.0]))
    assert abs(lo[0] - 2.0 / 3.0) <= 1e-15
    assert abs(hi[0] - 3.0 / 4.0) <= 1e-15
    c = solve_completion_curve(1.0, 0.2)
    assert 2.0 / 3.0 <= c.y_at(1.0) <= 3.0 / 4.0


def test_richardson_stability():
    # solving with the built-in closed-form check must simply succeed
    solve_completion_curve(1.5, 0.3, step=1e-3, richardson_check=True)


def test_ode_consistency_central_difference():
    c = solve_completion_curve(1.0, 0.2)
    xs, ys = c.xs[::-1], c.ys[::-1]  # ascending
    h = xs[1] - xs[0]
    num = (ys[2:] - ys[:-2]) / (2.0 * h)
    drift = np.array([f_drift((x - y) / y) for x, y in zip(xs[1:-1], ys[1:-1])])
    assert np.max(np.abs(num - drift)) <= 10.0 * h ** 2 + 1e-9


def test_curvature_bound():
    # |y''| <= 1/eta for x >= eta
    c = solve_completion_curve(1.0, 0.2)
    eta = 0.2
    ys = c.ys[::-1]
    h = c.step
    second = np.abs(np.diff(ys, 2)) / h ** 2
    assert np.max(second) <= 1.0 / eta + 0.1


def test_drift_sensitivity_bound():
    # |dF/dy| and |dF/dx| along the curve are <= 2/eta for x >= eta
    c = solve_completion_curve(1.0, 0.25)
    eta = 0.25
    eps = 1e-6
    for x, y in zip(c.xs[:: len(c.xs) // 20], c.ys[:: len(c.ys) // 20]):
        dfdy = (f_drift((x - (y + eps)) / (y + eps))
                - f_drift((x - (y - eps)) / (y - eps))) / (2.0 * eps)
        dfdx = (f_drift((x + eps - y) / y) - f_drift((x - eps - y) / y)) / (2.0 * eps)
        assert abs(dfdy) <= 2.0 / eta + 0.1
        assert abs(dfdx) <= 2.0 / eta + 0.1


def test_lambda_along_curve():
    c = solve_completion_curve(1.0, 0.2)
    assert abs(lambda_along(c, 2.0) - 1.0) <= 1e-12
    lam1 = lambda_along(c, 1.0)
    assert 1.0 / 3.0 <= lam1 <= 1.0 / 2.0
    assert abs(lam1 - GOLDEN_LAMBDA_AT_1) <= 1e-7
    grid = np.linspace(0.25, 1.95, 60)
    vals = [lambda_along(c, x) for x in grid]
    assert np.all(np.diff(vals) > 0.0)
    with pytest.raises(ValueError):
        lambda_along(c, 2.5)


def test_y_at_rejects_x_outside_the_curve():
    c = solve_completion_curve(1.0, 0.2)
    assert c.y_at(0.2) > 0.0 and abs(c.y_at(2.0) - 1.0) <= 1e-12
    for x in (0.1, 2.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="outside"):
            c.y_at(x)
        with pytest.raises(ValueError, match="outside"):
            lambda_along(c, x)


def test_strip_clearance():
    assert strip_clearance(2, 1.0 / 6.0)
    assert strip_clearance(3, 1.0 / 8.0)
    with pytest.raises(ValueError):
        strip_clearance(2, 0.4)
    with pytest.raises(ValueError):
        strip_clearance(1, 0.1)


def test_strip_clearance_at_largest_eps():
    # the window [2 k eps, k - 2 k^2 eps] is one point at eps = 1/(2(k+1)),
    # and its computed ends may cross by one ulp
    for k in range(2, 41):
        assert strip_clearance(k, 1.0 / (2.0 * (k + 1))), k
    for k in range(2, 9):
        for frac in (1e-3, 0.01, 0.1, 0.3, 0.5, 0.9):
            assert strip_clearance(k, frac / (2.0 * (k + 1))), (k, frac)


def test_csv_emission_deterministic():
    c = solve_completion_curve(1.0, 1.5, step=1e-2, richardson_check=False)
    buf1, buf2 = io.StringIO(), io.StringIO()
    curve_to_csv(c, buf1)
    c2 = solve_completion_curve(1.0, 1.5, step=1e-2, richardson_check=False)
    curve_to_csv(c2, buf2)
    assert buf1.getvalue() == buf2.getvalue()
    lines = buf1.getvalue().strip().split("\n")
    assert lines[0] == "x,y,lambda"
    first = lines[1].split(",")
    assert float(first[0]) == 2.0 and float(first[1]) == 1.0
    assert len(lines) == len(c.xs) + 1


def _synthetic_curve(rows):
    xs = np.linspace(2.0, 0.2, rows)
    return curve.Curve(nu=1.0, a=0.2, step=1.8 / (rows - 1), xs=xs, ys=xs / (1.0 + 0.5 * xs))


def test_csv_blocks_write_every_row_once():
    # rows past the first blocks, and a short last block, print as the
    # per-row loop on numpy scalars prints them
    c = _synthetic_curve(2 * curve._CSV_BLOCK + 3)
    buf = io.StringIO()
    curve_to_csv(c, buf)
    want = "x,y,lambda\n" + "".join("%.17g,%.17g,%.17g\n" % (x, y, x / y - 1.0)
                                     for x, y in zip(c.xs, c.ys))
    assert buf.getvalue() == want


def test_csv_writer_memory_is_bounded():
    # one block of rows in flight, not the whole curve: one join of all
    # 2e5 rows (11 MB of text) peaks at about 34 MB traced
    class Sink:
        def write(self, text):
            self.size += len(text)
        size = 0

    c, sink = _synthetic_curve(200000), Sink()
    _, peak = traced_peak(curve_to_csv, c, sink)
    assert sink.size > 10 * 2 ** 20
    assert peak < 2 * 2 ** 20


# --- RK4 path ------------------------------------------------------------------

@pytest.mark.parametrize("nu,a", [(1.0, 0.2), (0.5, 0.1), (3.0, 0.5),
                                  (0.05, 0.01), (10.0, 0.3)])
def test_rk4_path_bytes_match_per_slope_reference(nu, a):
    for step in (1e-3, 5e-4):
        xs, ys = curve._rk4_path(nu, a, step)
        want_xs, want_ys = rk4_path_reference(nu, a, step)
        assert np.array_equal(xs, want_xs) and np.array_equal(ys, want_ys), step
        if step == 1e-3:
            # the closed form against the per-slope oracle; measured max 3.3e-11
            assert np.max(np.abs(curve._zeta(nu, want_xs) - want_ys)) <= 1e-10


def test_perturbed_newton_root_is_caught(monkeypatch):
    # a relative error of 1e-6 in xi on lambda in (0.5, 0.6) moves the grid
    # 6.3e-8 off the closed form; smaller xi errors are for the mpmath grid
    # test of xi_of_lambda to catch
    newton = curve._xi_newton

    def faulty(lam):
        xi = newton(lam)
        return xi * (1.0 + 1e-6) if 0.5 < lam < 0.6 else xi

    monkeypatch.setattr(curve, "_xi_newton", faulty)
    with pytest.raises(NumericsError, match="closed form"):
        solve_completion_curve(1.0, 0.2)
    assert main(["curve", "--nu", "1", "--a", "0.2"]) == 4


def test_solver_memory_is_bounded():
    # the path is two arrays of nsteps + 1 floats
    _, peak = traced_peak(solve_completion_curve, 3.0, 0.5)
    assert peak < 2 * 2 ** 20


# --- closed form ----------------------------------------------------------------

def test_zeta_tends_to_patient_curve():
    x = np.linspace(0.0, 5.0, 501)
    assert np.max(np.abs(curve._zeta(40.0, x) - patient_curve(x))) <= 1e-15


def test_closed_form_check_rejects_inaccurate_grid():
    # this step's grid is 1.24e-8 off the closed form
    with pytest.raises(NumericsError, match="closed form"):
        solve_completion_curve(0.1, 0.033, step=7e-3)
    assert main(["curve", "--nu", "0.1", "--a", "0.033", "--step", "0.007"]) == 4


def test_closed_form_check_catches_one_bad_point(monkeypatch):
    rk4_path = curve._rk4_path

    def faulty(nu, a, step):
        xs, ys = rk4_path(nu, a, step)
        ys[len(ys) // 2] += 2e-8
        return xs, ys

    monkeypatch.setattr(curve, "_rk4_path", faulty)
    with pytest.raises(NumericsError, match="closed form"):
        solve_completion_curve(1.0, 0.2)
    assert main(["curve", "--nu", "1", "--a", "0.2"]) == 4


def test_sup_distance_curve_is_checked(monkeypatch, capsys):
    # the curve that simulate compares paths against gets the closed-form check
    rk4_path = curve._rk4_path

    def faulty(nu, a, step):
        xs, ys = rk4_path(nu, a, step)
        ys[len(ys) // 2] += 2e-8
        return xs, ys

    monkeypatch.setattr(curve, "_rk4_path", faulty)
    with pytest.raises(NumericsError, match="closed form"):
        sup_distance_batch(60, 30, 5, 0.2)
    argv = ["simulate", "--N", "60", "--n", "30", "--trials", "5", "--a", "0.2"]
    assert main(argv) == 4
    assert "closed form" in capsys.readouterr().err


def test_solver_runs_one_rk4_path(monkeypatch):
    rk4_path = curve._rk4_path
    calls = []

    def counted(nu, a, step):
        calls.append(step)
        return rk4_path(nu, a, step)

    monkeypatch.setattr(curve, "_rk4_path", counted)
    solve_completion_curve(1.0, 0.2)
    assert calls == [1e-3]
