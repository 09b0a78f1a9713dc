"""Stirling numbers of the second kind: exact, float, and saddle routes.

{m l} counts partitions of an m-set into l nonempty blocks and obeys

    {m l} = l * {m-1 l} + {m-1 l-1},        {0 0} = 1.

Single exact values and ratios come from the explicit sum

    {m l} = (1/l!) Sum_{i=0}^{l} (-1)^{l-i} C(l,i) i^m

(Graham, Knuth, Patashnik, Concrete Mathematics, eq. 6.19), which costs
l big powers instead of the m*l big-integer steps of the recurrence;
whole ratio tables, which need every row anyway, use the recurrence.
One pass of the sum gives both values a ratio needs: with
u_i = C(l,i) i^(m-1) and s_i = (-1)^(l-i),

    a = Sum s_i u_i = l! {m-1 l},     b = Sum s_i i u_i = l! {m l},

so one power i^(m-1) per i serves both sums, {m l} = b // l!, and by
the recurrence r(m,l) = {m-1 l-1}/{m l} = (b - l a)/b.  The powers come
from a smallest-prime-factor sieve: a big power for each prime i, one
product p^(m-1) (i/p)^(m-1) for each composite i with smallest prime
factor p.  Both factors are at most l/2, so only the powers of
i <= l // 2 are kept, about (l/2)(m-1) log2(l/2) bits (7.4 MB at
(5000, 2500)).  Single values, single ratios and the chi/r-rho grid of
`stirling --verify` all share this pass.

On top of the raw numbers this module evaluates the transition ratio
r(m,l) = {m-1 l-1}/{m l} of the reversed collector chain, the
saddle-point approximation psi (two algebraically equal forms), its
relative error chi, ln P(T_n <= N) = ln(n! {N n} n^-N) (from the patient
collector's forward law, with no Stirling number to cancel), and
quadrature diagnostics of the saddle-point integral representation

    {m l} = (m!/l!) (e^xi - 1)^l xi^{-m} / (2 pi) * Int_{-pi}^{pi} g(theta)^l dtheta.

Ratio tables come from two interchangeable, stateless backends: LogDP
(a float64 recurrence on s(m,l) = {m l-1}/{m l} with no log or exp,
within (4m+2) 2^-53 relative of the exact ratio), the table the sampler
reads at every n, and Exact (big integers, every ratio the nearest
double), the reference it is tested against.  Both roll their
recurrence row by row in one pass and cache nothing between calls, so a
table costs its own size in memory and LogDP holds only three rows of
n+1 floats besides it.
A table for the chain from (N, n) holds only the band the chain can
reach, lo(m) = max(1, m - (N - n)) <= l <= hi(m) = min(m, n) in row m
(each step lowers l by at most one, so after t steps l >= n - t).  It is
packed: one 1-D float64 array with rows m = 1..N one after another and
nothing off the band, so r(m, l) = R[base[m] + l] with base from
`_band`; at N = 2n + 1 that is about half the dense (N+1, n+1)
grid.
"""

import functools
import math

import numpy as np

from .errors import NumericsError, QuadratureError, ResourceCapError, integral
from .specialfn import f_drift, g_theta, saddle_params, tail_h

DEFAULT_EXACT_CAP = 5000
_SURJECTION_CAP = 10 ** 5  # surjection_log_probability: forward law up to this N
_SURJECTION_BAND_CAP = 5 * 10 ** 8  # ... and up to this many band entries rolled
_PANELS = [16 << i for i in range(9)]  # _quad: panel counts 16, 32, ..., 4096
_LN2 = math.log(2.0)


def _band(N, n):
    """(lo, hi, base, size): the band of the chain from (N, n) and its packed layout.

    lo, hi and base are lists over rows m = 0..N.  Row m >= 1 of the band
    is lo(m) = max(1, m - (N - n)) <= l <= hi(m) = min(m, n), the states
    the chain can reach, and row 0 holds {0 0}.  The band is closed under
    {m l} = l {m-1 l} + {m-1 l-1}: the terms off it are 0.  A ratio table
    packs rows 1..N back to back in `size` entries, r(m, l) = R[base[m] + l].
    For n >= 1, base[m] >= -1 for m >= 1, with -1 only where row m is
    l = m alone (at m = 1, and at every m when n = N).
    """
    if not 0 <= n <= N:
        raise ValueError("ratio_table: need 0 <= n <= N, got (%r, %r)" % (N, n))
    m = np.arange(N + 1)
    lo = np.maximum(m - (N - n), 1)
    lo[0] = 0
    hi = np.minimum(m, n)
    ends = np.cumsum(hi - lo + 1) - 1  # r(0, 0) is not stored
    return lo.tolist(), hi.tolist(), (ends - hi - 1).tolist(), int(ends[-1])


def _band_rows(R, N, n):
    """Row views of a packed band table R of the chain from (N, n): rows[m][l] = r(m, l).

    rows[m] is R from base[m] on, or, where base[m] = -1 (row m is l = m
    alone), that one entry.  Read with take(mode="clip"), an index off the
    band reads some finite entry of R instead of raising.
    """
    return [R[b:] if b >= 0 else R[m - 1:m] for m, b in enumerate(_band(N, n)[2])]


def _rows(N, n):
    """Rolling DP: yield (lo, hi, row) for rows m = 0..N of {m l} on the band.

    Each row is a new list of length n+1, 0 off the band, and row m+1 is
    rolled from the list yielded as row m: zeros a caller writes into a
    yielded row (an absorbing barrier) reach every later row.
    """
    band = zip(*_band(N, n)[:2])
    row = [1] + [0] * n  # {0 0} = 1
    yield next(band) + (row,)
    for lo, hi in band:
        prev, row = row, [0] * (n + 1)
        row[lo:hi + 1] = [l * a + b for l, a, b in
                          zip(range(lo, hi + 1), prev[lo:hi + 1], prev[lo - 1:hi])]
        yield lo, hi, row


def _smallest_prime_factors(l):
    """List spf with spf[i] the smallest prime factor of i for 2 <= i <= l; spf[1] = 1."""
    spf = list(range(l + 1))
    # descending p: the last p to write a composite i is its least divisor
    # p >= 2 with p * p <= i, which is prime
    for p in range(math.isqrt(l), 1, -1):
        spf[p * p::p] = [p] * len(range(p * p, l + 1, p))
    return spf


def _explicit_sum(m, l):
    """({m l}, r(m, l)) for 1 <= l <= m, from one pass of the explicit sum.

    i^(m-1) is a power for prime i and pw[p] * pw[i // p] for composite i
    with smallest prime factor p; both factors are <= l // 2, the only
    powers pw keeps.
    """
    a = (-1) ** l if m == 1 else 0  # i = 0 adds (-1)^l 0^(m-1) to a (0^0 = 1), 0 to b
    b = 0
    c = 1  # C(l, i)
    half = l // 2
    spf = _smallest_prime_factors(l)
    pw = [1] * (half + 1)  # pw[i] = i^(m-1) for i <= l // 2
    for i in range(1, l + 1):
        c = c * (l - i + 1) // i
        p = spf[i]
        q = i ** (m - 1) if p == i else pw[p] * pw[i // p]
        if i <= half:
            pw[i] = q
        u = c * q
        if (l - i) % 2 == 0:
            a += u
            b += i * u
        else:
            a -= u
            b -= i * u
    return b // math.factorial(l), (b - l * a) / b


def stirling_exact(m, l, cap=DEFAULT_EXACT_CAP):
    """Exact {m l} as a Python integer, via the explicit alternating sum."""
    m = integral("stirling_exact: m", m)
    l = integral("stirling_exact: l", l)
    if m < 0 or l < 0:
        raise ValueError("stirling_exact: negative argument (%r, %r)" % (m, l))
    if l > m:
        return 0  # no partition of m elements has more than m blocks
    if m > cap:
        raise ResourceCapError(
            "stirling_exact: m=%d exceeds cap %d (raise cap= explicitly)" % (m, cap))
    if l == 0:
        return 1 if m == 0 else 0
    return _explicit_sum(m, l)[0]


def _log_big(x):
    # ln of a positive big integer without overflowing float conversion
    if x <= 0:
        raise ValueError("_log_big: nonpositive")
    nb = x.bit_length()
    if nb <= 900:
        return math.log(x)
    sh = nb - 64
    return math.log(x >> sh) + sh * _LN2


class ExactBackend:
    """Arbitrary-precision backend: r(m,l) is the exact rational, rounded once.

    Python's int / int true division is correctly rounded, so every ratio
    is the double nearest to {m-1 l-1}/{m l}, subnormals included.  A
    single ratio is (b - l a)/b from one pass of the explicit sum, with
    a = l! {m-1 l} and b = l! {m l} (no cap): the same rational, so the
    same rounding; a table rolls the recurrence once over its band.

    The sampler's default table is LogDP's; this one is the reference the
    tests hold it to, and what `backend=ExactBackend()` gives the sampler.
    """

    kind = "Exact"

    def ratio(self, m, l):
        m = integral("ratio: m", m)
        l = integral("ratio: l", l)
        if not (1 <= l <= m):
            raise ValueError("ratio: need 1 <= l <= m, got (%r, %r)" % (m, l))
        return _explicit_sum(m, l)[1]

    def ratio_table(self, N, n):
        """Packed band table R: 1-D float64 with r(m, l) = R[base[m] + l] on the band.

        Band, base and layout are `_band(N, n)`'s: the states the reversed
        chain from (N, n) can visit, nothing else.  Needs 0 <= n <= N.
        """
        N = integral("ratio_table: N", N)
        n = integral("ratio_table: n", n)
        rows = _rows(N, n)
        _, _, prev = next(rows)
        base, size = _band(N, n)[2:]
        R = np.empty(size)
        for (lo, hi, row), b in zip(rows, base[1:]):
            R[b + lo:b + hi + 1] = [a / c for a, c in zip(prev[lo - 1:hi], row[lo:hi + 1])]
            prev = row
        return R


class LogDPBackend:
    """float64 backend: a log-free ratio table.

    The table rolls s(m,l) = {m l-1}/{m l}, with s(m,1) = 0 and
    s(m,m) = C(m,2).  Dividing {m l} = l {m-1 l} + {m-1 l-1} and the
    same recurrence for {m l-1} by {m l} gives

        r(m,l) = s(m-1,l) / (s(m-1,l) + l),
        s(m,l) = r(m,l) * ((l-1) + s(m-1,l-1)),       1 <= l <= m-1,

    and r(m,m) = 1.  Every operand is >= 0, so r is in [0, 1], and the
    entries use only IEEE +, * and /: no log, exp or clip, so their bits
    do not depend on the libm numpy dispatches to.  An entry's bits do
    not depend on the table it is in: (m, l) reads only states with
    l' <= l and m' - l' <= m - l, which every band holding (m, l) holds.

    Bound.  Let e(m,l) be the relative error of s(m,l) and u = 2^-53.
    To first order the two lines give |e_r(m,l)| <= a |e(m-1,l)| + 2u and
    |e(m,l)| <= a |e(m-1,l)| + b |e(m-1,l-1)| + 4u, with weights
    a = l/(s(m-1,l) + l) and b = s(m-1,l-1)/((l-1) + s(m-1,l-1)).
    a + b <= 1 is s(k,l-1)/(l-1) <= s(k,l)/l at k = m-1, which is
    Newton's inequality {k l-1}^2 >= (1 + 1/(l-1)) {k l-2} {k l} for the
    real-rooted polynomial Sum_l {k l} x^l (Harper 1967).  So
    |e(m,l)| <= 4mu by induction on m (the rows' ends are exact), and
    |r_table/r - 1| <= (4m+2)u.  The tests hold every entry to that bound
    against ExactBackend.  It needs normal numbers: where s(m,l) or r
    falls below 2^-1022 (small l, m above about 1000) the error is
    absolute, measured at most 2^-1074, and r(1076, 2) = 5e-324 reads 0.

    This is the table the sampler reads at every n (`auto_backend`); the
    name is that of the log-space DP it replaced.  The backend holds no
    state: a table call's memory is the returned table plus three rows
    of n+1 floats.
    """

    kind = "LogDP"

    def ratio_table(self, N, n):
        """Packed band table R: 1-D float64 with r(m, l) = R[base[m] + l] on the band.

        The layout is ExactBackend.ratio_table's.  Needs 0 <= n <= N.
        Row m writes r(m, l) for l <= m-1 straight into R, then turns the
        s row into row m in place; s[0] stays 0, so r(m, 1) = 0 and
        s(m, 1) = 0 come out of the same four calls.
        """
        N = integral("ratio_table: N", N)
        n = integral("ratio_table: n", n)
        lo, hi, base, size = _band(N, n)
        R = np.empty(size)
        s = np.zeros(n + 1)  # s(m, l), rolled in place
        tmp = np.empty(n + 1)
        ls = np.arange(n + 1, dtype=float)
        for m in range(1, N + 1):
            a, b, h = lo[m], base[m], min(hi[m], m - 1)  # slices are empty where h = a - 1
            r, t = R[b + a:b + h + 1], tmp[a:h + 1]
            np.add(s[a:h + 1], ls[a:h + 1], out=t)
            np.divide(s[a:h + 1], t, out=r)
            np.add(ls[a - 1:h], s[a - 1:h], out=t)
            np.multiply(r, t, out=s[a:h + 1])
            if m <= n:
                R[b + m] = 1.0
                s[m] = m * (m - 1) // 2
        return R


def psi_log_forms(m, l):
    """Both displayed forms of ln psi(m,l); they are algebraically equal.

    Form A:  psi = (1/2pi)(m!/l!)((e^xi-1)/xi^{1+lam})^l sqrt(pi/(v l))
    Form B:  psi = (m!/l!)(e^xi-1)^l xi^{-m} / sqrt(2 pi m (1 - (m/l) e^{-xi}))

    Their equality reduces to m(xi - lam) = 2 l v via (1+lam)e^{-xi} = 1+lam-xi.
    """
    return _psi_log_forms(m, l)[:2]


def _psi_log_forms(m, l):
    """(form A, form B, saddle_params(lambda)): psi_log_forms and its saddle bundle."""
    m = integral("psi_log: m", m)
    l = integral("psi_log: l", l)
    if not (1 <= l < m):
        raise ValueError("psi_log: need 1 <= l < m, got (%r, %r)" % (m, l))
    lam = (m - l) / l
    sp = saddle_params(lam)
    xi, v = sp.xi, sp.v
    lnb = xi + math.log1p(-math.exp(-xi))  # ln(e^xi - 1), overflow-free
    base = math.lgamma(m + 1) - math.lgamma(l + 1)
    form_a = (-math.log(2.0 * math.pi) + base
              + l * (lnb - (1.0 + lam) * math.log(xi))
              + 0.5 * math.log(math.pi / (v * l)))
    form_b = (base + l * lnb - m * math.log(xi)
              - 0.5 * math.log(2.0 * math.pi * m * (1.0 - (m / l) * math.exp(-xi))))
    return form_a, form_b, sp


def psi_log(m, l):
    """ln psi(m,l), with the two displayed forms cross-checked to 1e-9.

    {m l} = psi (1 + chi), min(l, m - l)|chi| <= 0.11 uniformly in lambda (`chi`).
    """
    return _psi_log(m, l)[0]


def _psi_log(m, l):
    """(psi_log(m, l), saddle_params(lambda)): one xi solve serves both."""
    form_a, form_b, sp = _psi_log_forms(m, l)
    if abs(form_a - form_b) > 1e-9 * max(1.0, abs(form_a)):
        raise NumericsError(
            "psi_log forms disagree at (%d, %d): %.17g vs %.17g"
            % (m, l, form_a, form_b))
    return form_a, sp


def _chi_of(s, psi):
    """chi from s = {m l} and psi = psi_log(m, l): expm1 of their log difference."""
    return math.expm1(_log_big(s) - psi)


def chi(m, l):
    """Relative error chi = ({m l} - psi)/psi, via expm1 of a log difference.

    Uniform in lambda = (m - l)/l: min(l, m - l)|chi| <= 0.11 and
    l|r - rho| <= 0.115 (maxima 0.1078 at lambda = 1 and 0.1106 at 1/2 for
    l in {50, 200, 800}, m - l up to 20 l, m <= 5000).  At fixed d = m - l,
    chi -> sqrt(2 pi d)(d/e)^d/d! - 1 (Stirling's error for d!) within d/(12 l^2).
    """
    return _chi_of(stirling_exact(m, l), psi_log(m, l))


def transition_error(m, l):
    """|r(m,l) - rho(lambda)| at lambda = (m-l)/l > 0."""
    if not (1 <= l < m):
        raise ValueError(
            "transition_error: need 1 <= l < m (lambda > 0), got (%r, %r)" % (m, l))
    return abs(ExactBackend().ratio(m, l) - f_drift((m - l) / l))


def _chi_and_transition_error(m, l):
    """(chi(m, l), transition_error(m, l)) from one explicit-sum pass and one xi solve.

    Equal to the two calls bit for bit: rho(lambda) is the saddle
    bundle's exp(-xi), the value f_drift computes from the same xi.
    Outside 1 <= l < m <= DEFAULT_EXACT_CAP it makes the two calls, so
    the error raised is chi's own and no xi is solved.
    """
    if not (1 <= l < m <= DEFAULT_EXACT_CAP):
        return chi(m, l), transition_error(m, l)
    s, r = _explicit_sum(m, l)
    psi, sp = _psi_log(m, l)
    return _chi_of(s, psi), abs(r - sp.rho)


def surjection_log_probability(N, n):
    """ln P(T_n <= N) = ln(n! {N n} n^-N) for the patient collector.

    Pushes the law of y, the number of distinct labels seen, from y = 0
    through N draws; a draw takes y to y + 1 with probability (n - y)/n.
    Only the band max(0, t - (N - n)) <= y <= min(t, n) of levels that can
    still reach n by draw N is kept.  One level leaves it at each of the
    last n draws: with d the mass left below the band and s the rest,
    ln P gains log1p(-d/(s+d)) <= 0.  Nothing cancels, so ln P <= 0.  A
    small s is rescaled by a power of two, which keeps every d/(s+d), and
    a d below 2^-1022 counts as 0, so a ln P that rounds to 0 is 0.0.

    Relative error against inclusion-exclusion in mpmath: 2.1e-16 at
    (3001, 1500), 8e-15 at (10^4, 1000), 1.6e-13 at (3001, 5), 1.8e-13 at
    (10^5, 500) and 1.2e-12 at (10^5, 5000); exactly 0.0 at (10^5, 5) and
    (10^5, 50).  Time on a 2-core Xeon: 0.010 s at (3001, 1500), 0.11 s at
    (10^5, 5), 0.51 s at (10^5, 500) and 3.8 s at (10^5, 5000).  The
    per-draw overhead bounds N: ResourceCapError above N = 10^5, and
    above 5 * 10^8 band entries N * min(n, N - n + 1).
    """
    N = integral("surjection_log_probability: N", N)
    n = integral("surjection_log_probability: n", n)
    if not (1 <= n <= N):
        raise ValueError("surjection_log_probability: need 1 <= n <= N")
    if N > _SURJECTION_CAP:
        raise ResourceCapError("surjection_log_probability: N=%d exceeds cap %d"
                               % (N, _SURJECTION_CAP))
    band = N * min(n, N - n + 1)
    if band > _SURJECTION_BAND_CAP:
        raise ResourceCapError("surjection_log_probability: N=%d, n=%d rolls %d band "
                               "entries, which exceeds cap %d" % (N, n, band, _SURJECTION_BAND_CAP))
    k = N - n  # draws before the first level leaves the band
    y = np.arange(n + 1)
    stay, up = y / n, (n - y) / n
    v = np.zeros(n + 1)  # the law of y on the band, up to a power of two
    v[0] = 1.0
    u = np.empty(n)  # the mass that moves up, by its level before the draw
    # draws 1..k keep y <= w = min(n, k), and no mass moves up from w before draw k + 1
    w = min(n, k)
    v0, v1, vw, uw, upw, stayw = v[:w], v[1:w + 1], v[:w + 1], u[:w], up[:w], stay[:w + 1]
    for _ in range(k):
        np.multiply(v0, upw, out=uw)
        np.multiply(vw, stayw, out=vw)
        np.add(v1, uw, out=v1)
    lnp = 0.0
    for a in range(n):  # draw k + 1 + a takes the band from [a, b] to [a + 1, c + 1]
        b = min(k + a, n)
        c = min(b, n - 1)
        np.multiply(v[a:c + 1], up[a:c + 1], out=u[a:c + 1])
        np.multiply(v[a:b + 1], stay[a:b + 1], out=v[a:b + 1])
        np.add(v[a + 1:c + 2], u[a:c + 1], out=v[a + 1:c + 2])
        d = v.item(a)
        d = d if d >= 2.0 ** -1022 else 0.0  # else a ln P that rounds to 0 ends at -5e-324s
        s = float(v[a + 1:c + 2].sum())
        lnp += math.log1p(-d / (s + d))
        if s < 2.0 ** -500:
            v[a + 1:c + 2] *= math.ldexp(1.0, -math.frexp(s)[1])
    return lnp


@functools.cache
def _gauss_legendre():
    # built on first use: numpy.polynomial is not imported with the package
    from numpy.polynomial.legendre import leggauss
    return leggauss(64)


def _quad(f, a, b):
    """Int_a^b f by composite 64-node Gauss-Legendre on equal panels.

    f maps an array of nodes to values.  The panel count doubles from 16
    until two rounds differ by at most 1e-10 Int|f| (taken on the finer
    nodes, so a cancelling integrand is judged by its magnitude), and
    QuadratureError is raised if that has not happened by 4096 panels.
    """
    x, w = _gauss_legendre()
    prev = None
    for panels in _PANELS:
        half = 0.5 * (b - a) / panels
        mids = a + half * np.arange(1, 2 * panels, 2)
        terms = f(mids[:, None] + half * x) * (half * w)
        val = float(terms.sum())
        if prev is not None and abs(val - prev) <= 1e-10 * float(np.abs(terms).sum()):
            return val
        prev = val
    raise QuadratureError("quadrature failed on [%g, %g]: no agreement by %d panels"
                          % (a, b, _PANELS[-1]))


def saddle_diagnostics(lam, l):
    """Magnitudes of the central and tail parts of the saddle integral.

    Splits Int_{-pi}^{pi} g(theta)^l dtheta at theta0 = ln(l)/sqrt(l).  The
    central part must reproduce the Gaussian value sqrt(pi/(v l)) to
    relative error 10/l, and the absolute tail mass must obey the
    2 pi l^{-h(xi) ln l} majorant; both are enforced here.
    Use lambda >= 0.15: the window misses about erfc(sqrt(v) ln l) of the
    Gaussian mass, over 10/l while v is small; for l = 100..10^5, l times
    the central error measured at most 7.2 at lambda = 0.15, but 13.8 to
    31.6 at lambda = 0.1, where every such l raises NumericsError.
    """
    lam = float(lam)
    if lam <= 0.0:
        raise ValueError("saddle_diagnostics: lambda must be > 0")
    if not (math.isfinite(l) and l >= 10):
        raise ValueError("saddle_diagnostics: need finite l >= 10")
    l = integral("saddle_diagnostics: l", l)
    sp = saddle_params(lam)
    theta0 = math.log(l) / math.sqrt(l)

    central = _quad(lambda th: 2.0 * (g_theta(lam, th) ** l).real, 0.0, theta0)
    tail = _quad(lambda th: 2.0 * (g_theta(lam, th) ** l).real, theta0, math.pi)
    tail_abs = _quad(lambda th: 2.0 * abs(g_theta(lam, th)) ** l, theta0, math.pi)

    central_ref = math.sqrt(math.pi / (sp.v * l))
    rel = abs(central - central_ref) / central_ref
    if rel > 10.0 / l:
        raise NumericsError(
            "central saddle term off by %g (budget %g) at lambda=%g l=%d"
            % (rel, 10.0 / l, lam, l))
    tail_bound = 2.0 * math.pi * l ** (-tail_h(sp.xi) * math.log(l))
    if tail_abs > tail_bound * (1.0 + 1e-9):
        raise NumericsError(
            "tail mass %g exceeds majorant %g at lambda=%g l=%d"
            % (tail_abs, tail_bound, lam, l))

    m = (1.0 + lam) * l
    lnb = sp.xi + math.log1p(-sp.rho)
    log_prefactor = (math.lgamma(m + 1.0) - math.lgamma(l + 1.0)
                     + l * lnb - m * math.log(sp.xi) - math.log(2.0 * math.pi))
    return {
        "lam": lam, "l": l, "theta0": theta0,
        "central": central, "central_ref": central_ref, "central_rel_err": rel,
        "tail": tail, "tail_abs": tail_abs, "tail_bound": tail_bound,
        "log_prefactor": log_prefactor,
    }
