"""
Limiting completion curves
==========================

Solve the ODE for the limiting collection profile zeta(nu, .) at a few
densities nu = (N - n)/n, check the a-priori envelope, and compare the
curve against conditioned trajectories at finite n.
"""

import numpy as np

from coupons import (conditioned_paths, envelope, lambda_along,
                     solve_completion_curve, sup_distances_of)

# --- solve a family of curves ------------------------------------------------

for nu in (0.5, 1.0, 2.0):
    c = solve_completion_curve(nu, a=0.1)
    lo, hi = envelope(nu, c.xs)
    print("nu=%.1f: %d grid points on [%.1f, %.1f], "
          "min clearance to lower/upper envelope = %.3e / %.3e "
          "(0 at the right anchor)"
          % (nu, len(c.xs), c.xs[-1], c.xs[0],
             float(np.min(c.ys - lo)), float(np.min(hi - c.ys))))

# the local density parameter lambda = (x - y)/y along the nu=1 curve
c = solve_completion_curve(1.0, a=0.1)
print("\nlambda along the nu=1 curve:")
for x in (0.25, 0.5, 1.0, 1.5, 2.0):
    print("  x=%.2f  zeta=%.6f  lambda=%.6f" % (x, c.y_at(x), lambda_along(c, x)))

# --- finite-n trajectories hug the curve ---------------------------------------

print("\nsup-distance of sampled conditioned paths to the nu=1 curve:")
curve = solve_completion_curve(1.0, a=0.2)
for n in (250, 1000, 4000):
    N = 2 * n
    Z = conditioned_paths(N, n, 60, seed=42)
    d = sup_distances_of(Z, curve, N, n)
    print("  n=%5d  median=%.4f  90%%=%.4f" %
          (n, float(np.median(d)), float(np.quantile(d, 0.9))))
print("(distances shrink like n^{-1/2}: halving per 4x in n)")
