"""
Stirling numbers and the saddle-point approximation
===================================================

Exact {m l} via big integers, ln{m l} from the float route to
ln P(T_n <= N) = ln(n! {N n} n^-N), and the accuracy of Good's saddle
approximation psi:
{m l} = psi(m,l) (1 + chi) with l*chi converging to a constant.
"""

import math

from coupons import (ExactBackend, chi, psi_log, saddle_diagnostics, stirling_exact,
                     surjection_log_probability, transition_error, xi_of_lambda)

print("small exact values:")
for m, l in ((5, 2), (7, 3), (10, 5)):
    print("  {%d %d} = %d" % (m, l, stirling_exact(m, l)))

v = stirling_exact(200, 100)
print("\n{200 100} has %d digits; leading digits %s..."
      % (len(str(v)), str(v)[:12]))

# ln P(T_n <= N) gives ln{N n} = ln P - ln n! + N ln n in floats
print("float ln{200 100} = %.12f  (exact %.12f)"
      % (surjection_log_probability(200, 100) - math.lgamma(101) + 200 * math.log(100),
         math.log(v)))

# --- saddle accuracy: l * chi approaches a constant -----------------------------

print("\nrelative error chi of the saddle approximation at lambda = 1 (m = 2l):")
print("  %6s %14s %14s" % ("l", "chi", "l*chi"))
for l in (50, 100, 200, 400, 800):
    c = chi(2 * l, l)
    print("  %6d %14.6e %14.6f" % (l, c, l * c))

# the chain transition ratio r(m,l) = {m-1 l-1}/{m l} tends to rho = e^{-xi}
print("\ntransition ratio vs its limit rho(1) = %.6f:" % math.exp(-xi_of_lambda(1.0)))
ratio = ExactBackend().ratio
for l in (50, 200, 800):
    m = 2 * l
    print("  l=%4d  r=%.8f  l*|r-rho|=%.5f" % (l, ratio(m, l), l * transition_error(m, l)))

# --- the saddle integral itself --------------------------------------------------

d = saddle_diagnostics(1.0, 400)
print("\nsaddle integral diagnostics at lambda=1, l=400:")
print("  central lobe   = %.10f" % d["central"])
print("  gaussian ref   = %.10f  (rel err %.2e)" % (d["central_ref"], d["central_rel_err"]))
print("  |tail| mass    = %.3e  (bound %.3e)" % (d["tail_abs"], d["tail_bound"]))
recon = d["log_prefactor"] + math.log(d["central"] + d["tail"])
print("  reconstructed ln{800 400} = %.10f" % recon)
print("  exact         ln{800 400} = %.10f" % math.log(stirling_exact(800, 400)))
print("  saddle approx ln psi      = %.10f  (gap is chi ~ %.1e)"
      % (psi_log(800, 400), chi(800, 400)))
