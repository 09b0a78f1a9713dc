"""Write tests/data/references.json, reference values for the float routes.

Run from the repository root (takes about 15 minutes on a 2-core Xeon):

    python tests/make_references.py

No value comes from the library.  The "ln_p" entries are ln P(T_n <= N):
- on a (nu, n) grid, N = n + max(1, round(nu n)), and at the named shapes
  that take `oracles.ln_p_mpmath` seconds, by inclusion-exclusion in mpmath;
- at N = n + 1 and n + 2 up to n = 10^5, from the closed forms
  {n+1 n} = C(n+1, 2) and {n+2 n} = C(n+2, 3)(3n+1)/4 in 50-digit mpmath,
  the shapes nearest N = n, where the Cauchy-integral route's radius is
  smallest.
Each entry holds N, n, the value to 17 significant digits, the expression
that made it and the seconds it took.  The tests read the file and hold
each route to the bound its docstring states; re-running the script is a
data change, to be recorded with its reason.
"""

import os
import sys
import time

import mpmath

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from oracles import ln_p_mpmath  # noqa: E402

NUS = (0.001, 0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 9.0)
NS = (10, 100, 1000, 10 ** 4)
NAMED = ((5501, 5000), (10001, 5000), (12001, 6000), (9600, 8000), (12000, 8000))
NEAR_N = (10 ** 3, 2 * 10 ** 3, 5 * 10 ** 3, 10 ** 4, 2 * 10 ** 4, 5 * 10 ** 4, 10 ** 5)


def ln_p_near(N, n):
    """ln P(T_n <= N) = ln n! + ln {N n} - N ln n at N = n + 1 or n + 2, in 50-digit mpmath."""
    with mpmath.workdps(50):
        s = mpmath.binomial(n + 1, 2) if N == n + 1 else mpmath.binomial(n + 2, 3) * (3 * n + 1) / 4
        return float(mpmath.loggamma(n + 1) + mpmath.log(s) - N * mpmath.log(n))


def ln_p_entries():
    grid = sorted({(n + max(1, round(nu * n)), n) for nu in NUS for n in NS} | set(NAMED))
    jobs = [(N, n, ln_p_mpmath, "oracles.ln_p_mpmath(%d, %d)" % (N, n)) for N, n in grid]
    jobs += [(n + d, n, ln_p_near, "make_references.ln_p_near(%d, %d)" % (n + d, n))
             for n in NEAR_N for d in (1, 2)]
    for N, n, fn, command in jobs:
        t0 = time.perf_counter()
        value = fn(N, n)
        seconds = time.perf_counter() - t0
        print("%s = %.17g  (%.1f s)" % (command, value, seconds), file=sys.stderr, flush=True)
        yield ('{"N": %d, "n": %d, "value": %.17g, "command": "%s", "seconds": %.2f}'
               % (N, n, value, command, seconds))


def main():
    entries = list(ln_p_entries())
    text = '{\n"ln_p": [\n' + ",\n".join(entries) + "\n]\n}\n"
    os.makedirs(os.path.join(HERE, "data"), exist_ok=True)
    with open(os.path.join(HERE, "data", "references.json"), "w") as f:
        f.write(text)


if __name__ == "__main__":
    main()
