"""
Sampling the impatient collector
================================

The collector's word conditioned on finishing by time N is uniform on
surjections, and its completion path read backwards is an inhomogeneous
Markov chain with ratio transitions r(m,l) = {m-1 l-1}/{m l}.  This
script samples it exactly, checks the law on a tiny case against full
enumeration, and shows how fast the chain forgets it is conditioned.
"""

from collections import Counter
from itertools import product

import numpy as np

from coupons import (conditioned_paths, prefix_law, rejection_paths,
                     sample_patient, transition_error)

# --- tiny case: enumerate every word, compare with the chain ---------------------

N, n = 7, 3
law = Counter()
for w in product(range(1, n + 1), repeat=N):
    if len(set(w)) != n:
        continue
    y, seen = [], set()
    for x in w:
        seen.add(x)
        y.append(len(seen))
    law[tuple(y)] += 1
total = sum(law.values())
print("(N,n)=(7,3): %d surjective words over %d paths" % (total, len(law)))

Z = conditioned_paths(N, n, 200000, seed=1)
emp = Counter(tuple(z[::-1][1:]) for z in Z)
print("%6s %22s %10s %10s" % ("rank", "path", "exact", "sampled"))
for i, (path, c) in enumerate(sorted(law.items(), key=lambda kv: -kv[1])[:5]):
    print("%6d %22s %10.5f %10.5f"
          % (i + 1, "".join(map(str, path)), c / total, emp[path] / len(Z)))

# rejection sampling from raw words gives the same law, at exponential cost
Zr = rejection_paths(N, n, 50000, seed=2)
print("rejection route, same top path frequency: %.5f"
      % (Counter(tuple(z[::-1][1:]) for z in Zr).most_common(1)[0][1] / len(Zr)))

# --- the conditioned chain is locally almost i.i.d. ------------------------------

print("\ntotal-variation distance of the first 10 steps from an i.i.d. "
      "Bernoulli(rho) prefix:")
for n_ in (100, 200, 400):
    _, _, tv = prefix_law(2 * n_, n_, 10)
    print("  n=%4d  TV=%.5f   (one-step gap %.2e)"
          % (n_, tv, transition_error(2 * n_, n_)))

# --- patient vs impatient ---------------------------------------------------------

y_imp = conditioned_paths(2000, 1000, 1, seed=7)[0, ::-1]
y_pat, T = sample_patient(1000, seed=7)
print("\nat n=1000: impatient collector holds %d labels at t=n; "
      "patient one holds %d (and finishes only at T=%d)"
      % (y_imp[1000], y_pat[1000], T))
