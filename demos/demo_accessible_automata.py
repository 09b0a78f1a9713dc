"""
Accessible automata and Korshunov's constant
============================================

A surjective word over n states with N = kn+1 letters encodes a complete
deterministic transition structure; the structure is accessible exactly
when the completion path clears the k-Dyck staircase.  The accessible
fraction tends to 1 - k rho(k), which also falls out of the
Pollaczek-Khinchine identity for a negative-drift walk.
"""

from coupons import (bfs_accessible, dyck_check, estimate_accessibility,
                     exact_accessible_count, korshunov_constant,
                     pollaczek_crossing, simulate_walk_max,
                     surjection_to_diagram)

# --- one word, two tests ---------------------------------------------------------

word = [2, 1, 2, 3, 1, 3, 2]  # k=2, n=3, N=7
y, marks = surjection_to_diagram(word, 3)
print("word %s -> path %s, marks %s" % (word, y.tolist(), marks.tolist()))
print("dyck test: %s   graph search: %s"
      % (dyck_check(y, 2), bfs_accessible(marks, 2, 3)))

# --- exact tiny cases vs the constant ---------------------------------------------

print("\nexact counts by the k-Dyck barrier recurrence:")
for k, n in ((2, 2), (2, 3), (3, 2)):
    acc, surj = exact_accessible_count(k, n)
    print("  k=%d n=%d: %6d accessible / %6d surjective = %.4f"
          % (k, n, acc, surj, acc / surj))

print("\nKorshunov's constant 1 - k*rho(k):")
for k in (2, 3, 4, 7):
    print("  k=%d: %.10f" % (k, korshunov_constant(k)))
acc, surj = exact_accessible_count(2, 100)
print("  k=2, exact at n=100: %.10f" % (acc / surj))

# --- Monte Carlo convergence -------------------------------------------------------

print("\naccessible fraction among sampled surjective structures (k=2):")
for n in (10, 100, 1000):
    est, se = estimate_accessibility(2, n, 40000, seed=3)
    print("  n=%4d: %.4f +- %.4f   (limit %.4f)"
          % (n, est, 2 * se, korshunov_constant(2)))

# --- the queueing route -------------------------------------------------------------

pi0, nc = pollaczek_crossing(2)
est, se = simulate_walk_max(2, 200000, horizon=500, seed=4)
print("\nPollaczek-Khinchine: pi0 = %.6f, non-crossing = %.6f" % (pi0, nc))
print("walk-maximum simulation: %.6f +- %.6f" % (est, 2 * se))
