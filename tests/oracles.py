"""Independent oracles for the test suite.

Everything in here deliberately avoids the library's own algorithms:
xi comes from plain interval bisection (not Newton, not Lambert W),
partition counts from explicit enumeration (not the DP recurrence),
path laws from exhaustive word enumeration, derivatives from finite
differences, the rate function from 50-digit arithmetic on the raw
displayed formula, sampler rows from a freshly built Philox generator
(`philox_reference`, not the re-keyed sub-stream) and a scalar chain
walk (not the span-wise vector loop),
conditioned paths also from raw words by rejection (`rejection_paths`,
not the chain) and from tilted geometric stays (`boltzmann_paths`, no
ratio table), the walk's no-crossing probability from a killed-walk
DP (not sampled walks) and from the Pollaczek-Khinchine identity on the
bisection xi (`pollaczek_crossing`), and the saddle integral's tail mass
from mpmath quadrature on graded panels (`tail_abs_reference`, not
Gauss-Legendre), reference roots xi from 50-digit Newton in mpmath
(`xi_mpmath`), ln P(T_n <= N) by inclusion-exclusion in mpmath
(`ln_p_mpmath`, not the forward law), and dense views of packed ratio
tables placed by the reach mask (`dense_table`, not the library's row
bases).  The exceptions are `xi_via_lambertw`, the Lambert-W
closed form built on the library's own `lambert_w0` (a second route to
xi, not a second implementation of W0), and frozen copies of earlier
library code that pin the bits a faster route must reproduce: `xi_newton_reference`, the
plain 100-iteration Newton loop its cycle exit must match, and
`explicit_sum_reference`, the explicit Stirling sum with one big power
per term, whose integers the sieve-built powers must match, and
`ratio_table_reference`, the s-recurrence
on scalar Python floats whose bits the vectorized band roll must match,
and `rk4_path_reference`, the per-slope RK4 path
whose bytes the curve solver must match, and
`accessible_count_reference`, the full-width in-place column roll whose
integers the band-recurrence accessible count must match, and the
whole-grid span reductions `sup_distances_reference`,
`dyck_flags_reference` and `window_crossed_reference`, whose bits the
column-block folds must match.

Run `python tests/oracles.py` to regenerate the fine-step curve
goldens (slow; the frozen values live in the tests).
"""

import math
from collections import Counter
from itertools import product


def xi_bisect(lam, iters=200):
    """Root of x = (1+lam)(1 - e^-x) by bisection on [lam, min(2 lam, 1+lam)]."""
    if lam == 0.0:
        return 0.0
    c = 1.0 + lam
    lo, hi = lam, min(2.0 * lam, c)
    f_lo = lo - c * (1.0 - math.exp(-lo))
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        f_mid = mid - c * (1.0 - math.exp(-mid))
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
        if hi - lo <= 1e-17 * hi:
            break
    return 0.5 * (lo + hi)


def xi_newton_reference(lam):
    """(x, iterations) of the plain safeguarded Newton loop for xi, 100-step cap.

    iterations == 100 means the loop reached the cap without a converged step.
    """
    c = 1.0 + lam
    lo = lam
    hi = min(2.0 * lam, c)
    x = 0.5 * (lo + hi)
    for k in range(100):
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
            return xn, k + 1
        x = xn
    return x, 100


def xi_via_lambertw(lam):
    """Closed form xi = 1 + lam + W0(-(1+lam) e^(-1-lam)), on `coupons.specialfn.lambert_w0`.

    Independent of the library's Newton route.  Loses precision as
    lam -> 0, where the argument nears the W0 branch point -1/e (a
    square-root singularity).  Accepts a scalar (returns a float) or an
    ndarray (returns an array of its shape).
    """
    import numpy as np
    from coupons.specialfn import lambert_w0
    scalar = np.ndim(lam) == 0
    lam = np.asarray(lam, dtype=float)
    negative = lam[lam < 0.0]
    if negative.size:
        raise ValueError("xi_via_lambertw: negative lambda %r" % float(negative[0]))
    c = 1.0 + lam
    xi = np.where(lam == 0.0, 0.0, c + lambert_w0(-c * np.exp(-c)))
    return float(xi) if scalar else xi


def xi_mpmath(lam, dps=50):
    """Positive root of x = (1+lam)(1 - e^-x) by Newton in `dps`-digit mpmath, as a float.

    phi(x) = x + (1+lam) expm1(-x) is convex with phi(0) = 0 and
    phi'(0) = -lam < 0, so Newton started at min(2 lam, 1+lam), right of
    the root, descends onto it without overshooting.
    """
    import mpmath
    with mpmath.workdps(dps):
        c = 1 + mpmath.mpf(lam)
        x = min(2 * mpmath.mpf(lam), c)
        for _ in range(500):
            step = (x + c * mpmath.expm1(-x)) / (1 - c * mpmath.exp(-x))
            x -= step
            if abs(step) <= mpmath.mpf(10) ** (5 - dps) * x:
                return float(x)
    raise RuntimeError("xi_mpmath: no convergence at lambda=%r" % lam)


def ln_p_mpmath(N, n):
    """ln P(T_n <= N), the log-probability that N uniform draws see all n labels, in mpmath.

    Inclusion-exclusion: 1 - P = Sum_{j=1}^{n} (-1)^(j+1) C(n,j) (1 - j/n)^N,
    and ln P = log1p(-(1 - P)), so a P near 1 keeps its relative digits.
    The terms are at most 2^n times 1 - P >= (1 - 1/n)^N, and
    P >= P(T_n <= n) = n!/n^n, so the sum and the log1p lose at most
    log10(2^n n^n / n!) digits, about n log10(2e); 60 more are carried.
    """
    import mpmath
    lost = (n * math.log(2.0 * n) - math.lgamma(n + 1)) / math.log(10.0)
    with mpmath.workdps(int(lost) + 60):
        q = mpmath.mpf(0)
        c = mpmath.mpf(1)  # C(n, j)
        for j in range(1, n + 1):
            c = c * (n - j + 1) / j
            term = c * (1 - mpmath.mpf(j) / n) ** N
            q += term if j % 2 else -term
        return float(mpmath.log1p(-q))


def ratio_table_reference(N, n):
    """Dense (N+1, n+1) r(m, l), l <= min(m, n), by the s-recurrence on Python floats.

    One scalar step at a time over the whole triangle, no band, no
    arrays: s(m, l) = {m l-1}/{m l} with s(m, 1) = 0 and s(m, m) = C(m, 2),
    r(m, l) = s(m-1, l)/(s(m-1, l) + l) and s(m, l) = r(m, l)((l-1) + s(m-1, l-1))
    for l < m, r(m, m) = 1; 0 elsewhere.
    """
    import numpy as np
    R = np.zeros((N + 1, n + 1))
    s = [0.0] * (n + 1)
    for m in range(1, N + 1):
        row, new = R[m], s[:]
        for l in range(1, min(m - 1, n) + 1):
            r = s[l] / (s[l] + l)
            row[l] = r
            new[l] = r * ((l - 1) + s[l - 1])
        if m <= n:
            row[m] = 1.0
            new[m] = float(m * (m - 1) // 2)
        s = new
    return R


def reachable_states(N, n):
    """Boolean (N+1, n+1) mask of the states (m, l), m >= 1, of the chain from (N, n).

    Propagates the support of the reversed chain one column at a time
    from (N, n), using only that {a b} > 0 exactly when 1 <= b <= a or
    a = b = 0: from (m, l) it moves to (m-1, l-1) when {m-1 l-1} > 0 and
    stays at l when l {m-1 l} > 0.  No band formula is involved.  The
    start (N, n) is a state only when {N n} > 0, so n = 0 leaves the mask
    empty.
    """
    import numpy as np
    mask = np.zeros((N + 1, n + 1), dtype=bool)
    mask[N, n] = 1 <= n <= N
    for m in range(N, 1, -1):
        here, below = mask[m], mask[m - 1]
        below[1:n] |= here[2:]  # down from l >= 2; {m-1 0} = 0 for m >= 2
        w = min(m - 1, n)
        below[1:w + 1] |= here[1:w + 1]  # stay at l <= m-1
    return mask


def dense_table(R, N, n):
    """The (N+1, n+1) array of a packed band table R, 0 off the band.

    The packed layout lists the band row by row, m = 1..N, each row in
    increasing l: the row-major order of the `reachable_states` mask,
    which therefore places R without any band formula.  A table whose
    size is not the mask's count raises ValueError.
    """
    import numpy as np
    D = np.zeros((N + 1, n + 1))
    D[reachable_states(N, n)] = R
    return D


def philox_reference(seed, index):
    """A freshly built Generator on Philox(key = seed * 2^64 + index), sub-stream (seed, index)."""
    import numpy as np
    return np.random.Generator(np.random.Philox(key=(seed << 64) | index))


def reversed_chain_reference(rtab, N, n, seed, index):
    """Row `index` of the conditioned sampler, one step at a time.

    Draws the N uniforms of `philox_reference(seed, index)` and walks the
    reversed chain with a scalar loop over the dense ratio table `rtab`
    (see `dense_table`).
    """
    u = philox_reference(seed, index).random(N)
    z = [n]
    for t in range(N):
        z.append(z[-1] - 1 if u[t] < rtab[N - t, z[-1]] else z[-1])
    return z


def rejection_paths(N, n, count, seed=0):
    """Uniform words over [1..n]^N filtered to surjections; reversed paths.

    Returns an int32 array (count, N+1) in the same orientation as
    conditioned_paths.  Independent of the Markov-chain route: this is
    the direct-conditioning oracle.  The words come from the Philox
    stream keyed seed * 2^64, sub-stream 0 of the sampler's keying.
    """
    import numpy as np
    if not (1 <= n <= N):
        raise ValueError("rejection_paths: need 1 <= n <= N")
    if n > 30:
        raise ValueError("rejection_paths: n too large for word enumeration")
    max_attempts = max(1000 * count, 100000)
    rng = philox_reference(seed, 0)
    got, attempts = [], 0
    have = 0
    while have < count:
        if attempts >= max_attempts:
            raise RuntimeError(
                "rejection_paths: %d attempts exhausted with %d/%d accepted"
                % (attempts, have, count))
        m = min(8192, max_attempts - attempts)
        W = rng.integers(1, n + 1, size=(m, N))
        attempts += m
        srt = np.sort(W, axis=1)
        surj = (np.count_nonzero(np.diff(srt, axis=1), axis=1) + 1) == n
        acc = W[surj]
        if len(acc):
            got.append(acc[:count - have])
            have += len(got[-1])
    W = np.concatenate(got)
    seen = np.logical_or.accumulate(W[:, :, None] == np.arange(1, n + 1), axis=1)
    Y = np.pad(seen.sum(axis=2), ((0, 0), (1, 0)))  # forward paths, y_0 = 0
    return Y[:, ::-1].astype(np.int32)


def boltzmann_paths(N, n, count, seed=0):
    """Conditioned paths by Boltzmann tilting and rejection; reversed, as conditioned_paths.

    A surjective word's completion path is fixed by its stays s_j, the
    draws spent at level j after reaching it, and n! prod_j j^(s_j) words
    share it, Sum s_j = N - n.  The stays at levels 1..n-1 are drawn as
    independent geometrics, P(s_j = s) = (1 - jx)(jx)^s, and a proposal
    with rem = N - n - Sum s_j >= 0 is kept with probability (nx)^rem,
    s_n = rem: the law is prod_j j^(s_j) up to a constant for any
    0 < x < 1/n.  x = theta/n with theta = xi(nu)/(1 + nu) from
    `xi_bisect` only sets the acceptance rate.  No chain, no ratio table
    and no Philox sub-stream: the draws come from np.random.default_rng(seed).
    """
    import numpy as np
    if not (1 <= n <= N):
        raise ValueError("boltzmann_paths: need 1 <= n <= N")
    nu = (N - n) / n
    x = xi_bisect(nu) / (1.0 + nu) / n
    rng = np.random.default_rng(seed)
    q = x * np.arange(1, n)  # jx at levels 1..n-1
    Z = np.empty((count, N + 1), dtype=np.int32)
    have = 0
    while have < count:
        stays = rng.geometric(1.0 - q, size=(1024, n - 1)) - 1
        rem = N - n - stays.sum(axis=1)
        keep = (rem >= 0) & (rng.random(1024) < (n * x) ** np.maximum(rem, 0))
        for s, r in zip(stays[keep], rem[keep]):
            if have == count:
                break
            y = np.repeat(np.arange(n + 1), np.concatenate(([1], s + 1, [r + 1])))
            Z[have] = y[::-1]
            have += 1
    return Z


def walk_max_reference(k, rho, horizon):
    """P(S_t <= 0 for t = 1..horizon) for the walk with steps -1 (prob 1-rho), k-1 (rho).

    Killed-walk DP over the positions 0, -1, ..., -horizon: the walk goes
    down by at most one per step, so those positions hold every path whose
    maximum has stayed <= 0, and an up-step that would cross 0 drops its
    mass.  Exact up to rounding, with no Monte Carlo.
    """
    import numpy as np
    p = np.zeros(horizon + 1)  # p[j] = P(S_t = -j and no crossing so far)
    p[0] = 1.0
    up = k - 1
    for _ in range(horizon):
        q = np.zeros_like(p)
        q[1:] = (1.0 - rho) * p[:-1]
        q[:len(p) - up] += rho * p[up:]
        p = q
    return float(p.sum())


def pollaczek_crossing(k):
    """(pi0, non_crossing) of the walk with steps -1 (prob 1-rho), k-1 (rho).

    Stationary-queue route to Korshunov's constant, with rho = e^-xi(k-1)
    from `xi_bisect`: pi0 = -drift/(1-rho) and the no-crossing
    probability is (1-rho) pi0.
    """
    rho = math.exp(-xi_bisect(k - 1.0))
    pi0 = -(k * rho - 1.0) / (1.0 - rho)
    return pi0, (1.0 - rho) * pi0


def tail_abs_reference(lam, l, panels=80, dps=20):
    """Int_{theta0}^{pi} 2 |g(theta)|^l dtheta, theta0 = ln(l)/sqrt(l), in mpmath.

    The tail mass of `saddle_diagnostics`, with xi from `xi_bisect` and
    mpmath's own quadrature on panels graded cubically towards theta0,
    where the integrand is largest.
    """
    import mpmath
    with mpmath.workdps(dps):
        xi = mpmath.mpf(xi_bisect(float(lam)))
        rho = mpmath.exp(-xi)
        th0 = mpmath.log(l) / mpmath.sqrt(l)

        def f(th):
            g = (mpmath.exp(xi * (mpmath.expj(th) - 1)) - rho) / (1 - rho)
            return 2 * mpmath.exp(l * mpmath.log(abs(g)))

        pts = [th0 + (mpmath.pi - th0) * (mpmath.mpf(i) / panels) ** 3
               for i in range(panels + 1)]
        return float(mpmath.quad(f, pts))


def explicit_sum_reference(m, l):
    """({m l}, r(m, l)) for 1 <= l <= m by the explicit sum, one power i^(m-1) per i.

    With u_i = C(l,i) i^(m-1) and s_i = (-1)^(l-i), a = Sum s_i u_i and
    b = Sum s_i i u_i give {m l} = b // l! and r(m, l) = (b - l a)/b.
    """
    a = (-1) ** l if m == 1 else 0  # i = 0 adds (-1)^l 0^(m-1) to a (0^0 = 1), 0 to b
    b = 0
    c = 1  # C(l, i)
    for i in range(1, l + 1):
        c = c * (l - i + 1) // i
        u = c * i ** (m - 1)
        if (l - i) % 2 == 0:
            a += u
            b += i * u
        else:
            a -= u
            b -= i * u
    return b // math.factorial(l), (b - l * a) / b


def set_partition_count(m, l):
    """Count partitions of an m-set into exactly l blocks by enumerating
    restricted growth strings (element i joins block a_i <= 1 + max so far)."""
    if m == 0:
        return 1 if l == 0 else 0

    def walk(pos, top):
        if pos == m:
            return 1 if top == l else 0
        total = 0
        for _ in range(top):          # join one of the blocks already open
            total += walk(pos + 1, top)
        if top < l:                   # or open block top+1
            total += walk(pos + 1, top + 1)
        return total

    return walk(1, 1)  # element 0 always opens block 1


def accessible_count_reference(k, n):
    """(accessible, surjective) word counts at N = kn+1 by the column roll.

    n! g_N(n) by g(j) <- g(j-1) + j g(j) per column over every level, in
    place, with g(j) zeroed for j <= l after column lk+1 (the k-Dyck
    barrier) for the accessible count and no barrier for the surjective one.
    """
    N = k * n + 1

    def roll(barrier):
        g = [0, 1] + [0] * (n - 1)  # after column 1
        for i in range(2, N + 1):
            for j in range(min(i, n), 0, -1):
                g[j] = g[j - 1] + j * g[j]
            if barrier and i % k == 1 and i < N:  # column lk+1, l = i // k
                g[:i // k + 1] = [0] * (i // k + 1)
        return math.factorial(n) * g[n]

    return roll(True), roll(False)


def completion_path(word):
    """y_1..y_N running distinct-count of a word (tuple)."""
    seen = set()
    y = []
    for x in word:
        seen.add(x)
        y.append(len(seen))
    return tuple(y)


def enumerate_surjective_paths(N, n):
    """All n^N words filtered to surjections, grouped by completion path.

    Returns (Counter path -> word count, total surjective words).
    """
    cnt = Counter()
    total = 0
    for w in product(range(1, n + 1), repeat=N):
        if len(set(w)) != n:
            continue
        total += 1
        cnt[completion_path(w)] += 1
    return cnt, total


def fd_derivatives_123_4(g):
    """(g'', g''', g'''') at 0 by central differences with one Richardson step.

    Orders 2 and 3 use h = 1e-3; order 4 uses h = 1e-2 (at 1e-3 the h^-4
    amplification of roundoff already swamps the 1e-5 target).
    """
    def d2(h):
        return (g(h) - 2.0 * g(0.0) + g(-h)) / h ** 2

    def d3(h):
        return (g(2 * h) - 2.0 * g(h) + 2.0 * g(-h) - g(-2 * h)) / (2.0 * h ** 3)

    def d4(h):
        return (g(2 * h) - 4.0 * g(h) + 6.0 * g(0.0) - 4.0 * g(-h) + g(-2 * h)) / h ** 4

    def rich(D, h):
        return (4.0 * D(h / 2.0) - D(h)) / 3.0

    return rich(d2, 1e-3), rich(d3, 1e-3), rich(d4, 1e-2)


def rate_j_reference(xi, dps=50):
    """J(xi) from the raw displayed formula at 50 significant digits."""
    import mpmath
    with mpmath.workdps(dps):
        x = mpmath.mpf(xi)
        lnb = mpmath.log(mpmath.expm1(x))
        val = (x / (1 - mpmath.exp(-x))) * (1 - x + lnb) - lnb
        return float(val)


def rk4_reference(nu, a, step):
    """Independent backwards RK4 with bisection drift; returns (xs, ys) lists."""
    def drift(lam):
        if lam <= 0.0:
            return 1.0
        return math.exp(-xi_bisect(lam))

    def slope(x, y):
        return drift((x - y) / y)

    x0 = 1.0 + nu
    nsteps = int(math.ceil((x0 - a) / step - 1e-12))
    xs, ys = [x0], [1.0]
    y = 1.0
    for i in range(nsteps):
        x = x0 - i * step
        h = min(step, x - a)
        k1 = slope(x, y)
        k2 = slope(x - 0.5 * h, y - 0.5 * h * k1)
        k3 = slope(x - 0.5 * h, y - 0.5 * h * k2)
        k4 = slope(x - h, y - h * k3)
        y = y - (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        xs.append(x - h)
        ys.append(y)
    return xs, ys


def rk4_path_reference(nu, a, step):
    """Frozen per-slope RK4 path of the curve solver; returns (xs, ys) arrays.

    Each slope is the drift F(lam) = exp(-xi(lam)) evaluated on its own,
    as the solver did when every slope called `f_drift`; xi is the plain
    Newton loop of `xi_newton_reference`, whose bits the library's Newton
    reproduces, so these are the curve bytes the solver must keep.
    """
    import numpy as np

    def slope(x, y):
        lam = (x - y) / y
        if lam < 0.0:
            if lam < -1e-12:
                raise ValueError("left the region y <= x")
            lam = 0.0
        if lam == 0.0:
            return 1.0
        return math.exp(-xi_newton_reference(lam)[0])

    x0 = 1.0 + nu
    nsteps = max(1, int(math.ceil((x0 - a) / step - 1e-12)))
    xs = np.empty(nsteps + 1)
    ys = np.empty(nsteps + 1)
    xs[0], ys[0] = x0, 1.0
    y = 1.0
    for i in range(nsteps):
        x = x0 - i * step
        h = min(step, x - a)
        k1 = slope(x, y)
        k2 = slope(x - 0.5 * h, y - 0.5 * h * k1)
        k3 = slope(x - 0.5 * h, y - 0.5 * h * k2)
        k4 = slope(x - h, y - h * k3)
        y = y - (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        xs[i + 1] = x - h
        ys[i + 1] = y
    xs[-1] = a
    return xs, ys


def sup_distances_reference(Z, curve, N, n):
    """Frozen whole-grid `sup_distances_of`: one (rows, grid) pass, no fold."""
    import numpy as np
    idx = np.clip(np.floor(n * curve.xs + 1e-9).astype(np.int64), 0, N)
    vals = Z[:, N - idx] / n
    return np.max(np.abs(vals - curve.ys[None, :]), axis=1)


def dyck_flags_reference(Z, k, n):
    """Frozen whole-grid k-Dyck flags of a batch of reversed paths."""
    import numpy as np
    Y = Z[:, ::-1]  # forward paths with leading 0: Y[:, i] = y_i
    levels = np.arange(n)
    cols = levels * k + 1
    return np.all(Y[:, cols] >= levels + 1, axis=1)


def window_crossed_reference(Z, k, xs):
    """Frozen whole-window test k y_x <= x - 1 of `estimate_middle_crossing`."""
    import numpy as np
    Y = Z[:, ::-1]
    return np.any(k * Y[:, xs] <= xs - 1, axis=1)


if __name__ == "__main__":
    # regenerate the frozen curve goldens (takes a few minutes at 1e-6)
    xs, ys = rk4_reference(1.0, 0.2, 1e-6)
    lookup = {round(x, 9): y for x, y in zip(xs, ys)}
    for want in (1.0, 0.5, 0.2):
        print("zeta(1, %.1f) = %.17g" % (want, lookup[round(want, 9)]))
