"""
How unlikely is finishing early?
================================

P(T_n <= N) = n! {N n} / n^N decays exponentially in n at fixed
nu = (N-n)/n; the rate J comes out of the same saddle point xi that
drives the Stirling asymptotics.  ln P(T_n <= N) itself comes from the
patient collector's forward law, a float recurrence in which nothing
cancels, so the convergence can be watched digit by digit; at n = 25 it
is checked against the big-integer value.
"""

import math

from coupons import (f_drift, rate_j, saddle_params, surjection_log_probability,
                     xi_of_lambda)

# --- the saddle point ---------------------------------------------------------------

print("xi(lambda): the root of xi = (1+lam)(1-e^-xi), and the drift F = e^-xi")
for lam in (0.1, 0.5, 1.0, 2.0, 5.0):
    print("  lam=%.1f  xi=%.15f  drift F=%.6f" % (lam, xi_of_lambda(lam), f_drift(lam)))

# --- rate function ------------------------------------------------------------------

print("\nrate J and saddle coefficients along lambda:")
for lam in (0.5, 1.0, 2.0):
    p = saddle_params(lam)
    print("  lam=%.1f  J=%.8f  v=%.6f  tau=%+.6f  gamma=%+.6f"
          % (lam, rate_j(p.xi), p.v, p.tau, p.gamma))

# --- exact probabilities vs the limit ------------------------------------------------

nu = 1.0
j = rate_j(xi_of_lambda(nu))
print("\nP(T_n <= 2n) from the forward law, against the predicted e^{-nJ} decay (J=%.8f):" % j)
print("  %6s %16s %16s %12s" % ("n", "ln P / n", "-J", "gap"))
for n in (25, 50, 100, 200, 400):
    lnp = surjection_log_probability(2 * n, n)
    print("  %6d %16.10f %16.10f %12.2e" % (n, lnp / n, -j, abs(lnp / n + j)))
print("(the gap is the (ln n)/n polynomial correction, not an error)")

# the same number from first principles at n=25: 50!-sized integers, no asymptotics
n = 25
from coupons import stirling_exact
p = math.factorial(n) * stirling_exact(2 * n, n) / n ** (2 * n)
print("\ndirect check at n=25: P = %.12e, exp(ln P) = %.12e"
      % (p, math.exp(surjection_log_probability(50, 25))))
