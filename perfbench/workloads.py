"""The two benchmark workloads: CLI calls made from a seed, work units, output checks.

Each workload is one iteration of `coupons.cli.main` calls, made of parts
that each reproduce one command of the paper's criteria (`Korshunov`,
`Simulate`, `Verify`, `Curve`).  `calls(seed)` gives the argument lists,
`units()` the work one iteration does (in the workload's own unit), and
`check(seed, outputs)` returns None when the output bytes of one
iteration at `seed` are correct, or else a message saying what is wrong.
The checks hold at any seed; `digests.json` pins the exact bytes at
DEFAULT_SEED.  `tiny=True` gives a seconds-long version for the self-test.
"""

import json
import math
import statistics

DEFAULT_SEED = 0


def _korshunov_k2():
    # independent of the library: 1 - 2 e^{-xi} with xi = 2 (1 - e^{-xi}), by bisection
    lo, hi = 1.0, 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid - 2.0 * (1.0 - math.exp(-mid)) < 0.0:
            lo = mid
        else:
            hi = mid
    return 1.0 - 2.0 * math.exp(-0.5 * (lo + hi))


class Korshunov:
    """Criterion 7 at N = 2n+1 with LogDP auto-selected: bound by the sampler and memory."""

    name = "korshunov"
    unit = "paths"

    def __init__(self, tiny=False):
        self.trials = 500 if tiny else 10000

    def calls(self, seed):
        return [["korshunov", "--k", "2", "--n", "1000", "--trials", str(self.trials),
                 "--jobs", "2", "--seed", str(seed)]]

    def units(self):
        return self.trials

    def check(self, seed, outputs):
        rec = json.loads(outputs[0])
        if rec["trials"] != self.trials or rec["k"] != 2 or rec["n"] != 1000:
            return "korshunov: record parameters differ from the request"
        want = _korshunov_k2()
        if abs(rec["korshunov"] - want) > 1e-12:
            return "korshunov: constant %r, expected %r" % (rec["korshunov"], want)
        err = abs(rec["estimate"] - want)
        if err > 3.0 * rec["stderr"] + 0.01:
            return "korshunov: |estimate - constant| = %g exceeds 3 stderr + 0.01" % err
        return None


class Simulate:
    """The README simulate command: one LogDP table, a curve solve, few long paths."""

    name = "simulate"
    unit = "paths"

    def __init__(self, tiny=False):
        self.N, self.n, self.trials = (1000, 500, 20) if tiny else (4000, 2000, 200)

    def calls(self, seed):
        return [["simulate", "--N", str(self.N), "--n", str(self.n),
                 "--trials", str(self.trials), "--a", "0.2", "--jobs", "2",
                 "--seed", str(seed)]]

    def units(self):
        return self.trials

    def check(self, seed, outputs):
        rec = json.loads(outputs[0])
        if (rec["N"], rec["n"]) != (self.N, self.n):
            return "simulate: record parameters differ from the request"
        if len(rec["sup_distances"]) != self.trials:
            return "simulate: %d distances for %d trials" % (len(rec["sup_distances"]),
                                                            self.trials)
        q50 = rec["quantiles"]["q50"]
        if not q50 < 0.1:
            return "simulate: median sup-distance %r is not below 0.1" % q50
        return None


class Verify:
    """`stirling --verify` on the default lambdas up to l = 400: big-integer Stirling DP."""

    name = "verify"
    unit = "grid_points"
    _LAMS = ("0.5", "1.0", "2.0")

    def __init__(self, tiny=False):
        self.ells = (50, 100) if tiny else (50, 100, 200, 400)

    def calls(self, seed):
        # the seed only rotates the lambda order: same rows, same work
        r = seed % len(self._LAMS)
        lams = self._LAMS[r:] + self._LAMS[:r]
        return [["stirling", "--verify", "--lams", ",".join(lams),
                 "--ells", ",".join(str(l) for l in self.ells)]]

    def units(self):
        return len(self._LAMS) * len(self.ells)

    def check(self, seed, outputs):
        lines = outputs[0].decode().splitlines()
        if lines[0] != "lam,ell,m,l_abs_chi,l_trans_err" or not lines[-1].startswith("# max"):
            return "verify: unexpected table layout"
        rows = [line.split(",") for line in lines[1:-1]]
        if len(rows) != self.units():
            return "verify: %d rows for %d grid points" % (len(rows), self.units())
        chi, err = {}, {}
        for lam, ell, m, lc, lr in rows:
            lam, ell = float(lam), int(ell)
            if int(m) != int(round((1.0 + lam) * ell)):
                return "verify: m=%s does not match lambda=%g, l=%d" % (m, lam, ell)
            chi[lam, ell], err[lam, ell] = float(lc), float(lr)
        lo, hi = min(self.ells), max(self.ells)
        # criteria 3 and 4: l|chi| and l|r - rho| stay within 4x their grid median,
        # and both errors shrink from the smallest to the largest l
        for name, scaled in (("l|chi|", chi), ("l|r-rho|", err)):
            vals = list(scaled.values())
            if max(vals) > 4.0 * statistics.median(vals):
                return "verify: max %s exceeds 4x its grid median" % name
            for lam in {k[0] for k in scaled}:
                if not scaled[lam, hi] / hi < scaled[lam, lo] / lo:
                    return "verify: %s/l does not shrink at lambda=%g" % (name, lam)
        footer = "# max l|chi| = %.17g, max l|r-rho| = %.17g" % (max(chi.values()),
                                                                 max(err.values()))
        if lines[-1] != footer:
            return "verify: footer disagrees with the table"
        return None


def _rk4_steps(nu, a, step):
    return max(1, math.ceil((1.0 + nu - a) / step - 1e-12))


class Curve:
    """The three criterion-12 curves with the Richardson check: xi solves and RK4."""

    name = "curve"
    unit = "rk4_steps"
    _CURVES = ((1.0, 0.2), (0.5, 0.1), (3.0, 0.5))

    def __init__(self, tiny=False):
        self.step = 5e-3 if tiny else 1e-3

    def _curves(self, seed):
        # the seed only rotates the order of the three curves
        r = seed % len(self._CURVES)
        return self._CURVES[r:] + self._CURVES[:r]

    def calls(self, seed):
        extra = ["--step", repr(self.step)] if self.step != 1e-3 else []
        return [["curve", "--nu", repr(nu), "--a", repr(a)] + extra
                for nu, a in self._curves(seed)]

    def units(self):
        # each solve runs at step and again at step/2 for the Richardson check
        return sum(_rk4_steps(nu, a, self.step) + _rk4_steps(nu, a, self.step / 2)
                   for nu, a in self._CURVES)

    def check(self, seed, outputs):
        for out, (nu, a) in zip(outputs, self._curves(seed)):
            err = self._check_one(out, nu, a)
            if err:
                return err
        return None

    def _check_one(self, out, nu, a):
        lines = out.decode().splitlines()
        if lines[0] != "x,y,lambda":
            return "curve: bad header"
        rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
        if len(rows) != _rk4_steps(nu, a, self.step) + 1:
            return "curve(%g, %g): %d grid points" % (nu, a, len(rows))
        x0 = 1.0 + nu
        if rows[0][:2] != (x0, 1.0) or rows[-1][0] != a:
            return "curve(%g, %g): does not run from (1+nu, 1) down to a" % (nu, a)
        c = 1.0 - 1.0 / x0
        prev = math.inf
        for x, y, lam in rows:
            # analytic envelope of zeta(nu, .), the bound criterion 12 checks
            if not (x / (1.0 + x * c) - 1e-9 <= y <= x * (1.0 - (x / x0) * c) + 1e-9):
                return "curve(%g, %g): y(%r) = %r leaves the envelope" % (nu, a, x, y)
            if y > prev or lam != x / y - 1.0:
                return "curve(%g, %g): bad row at x=%r" % (nu, a, x)
            prev = y
        return None


class Workload:
    """The parts of PARTS run one after another, as one iteration."""

    PARTS = ()

    def __init__(self, tiny=False):
        self.parts = [part(tiny) for part in self.PARTS]

    def calls(self, seed):
        return [argv for part in self.parts for argv in part.calls(seed)]

    def split(self, seed, items):
        """`items`, one per call, cut into one list per part."""
        out, i = [], 0
        for part in self.parts:
            n = len(part.calls(seed))
            out.append(items[i:i + n])
            i += n
        return out

    def check(self, seed, outputs):
        for part, part_outputs in zip(self.parts, self.split(seed, outputs)):
            err = part.check(seed, part_outputs)
            if err:
                return err
        return None


class Sampling(Workload):
    """Conditioned path sampling: many short paths (Korshunov), then few long ones (Simulate)."""

    name = "sampling"
    unit = "paths"
    PARTS = (Korshunov, Simulate)

    def units(self):
        return sum(part.units() for part in self.parts)


class Asymptotics(Workload):
    """Big-integer Stirling DP (Verify), then the criterion-12 curves (Curve)."""

    name = "asymptotics"
    unit = "cli_calls"  # the parts count grid points and RK4 steps, which do not add up
    PARTS = (Verify, Curve)

    def units(self):
        return len(self.calls(DEFAULT_SEED))


WORKLOADS = {w.name: w for w in (Sampling, Asymptotics)}
