"""Command-line front end.

Subcommands: curve, stirling, simulate, korshunov, ldp.  Every run is
deterministic given its full flag set (seed included); Monte-Carlo
subcommands split the seed into one sub-stream per trajectory, so
--jobs changes wall time but never output.

Exit codes: 0 ok, 2 bad parameters/usage, 3 I/O failure, 4 numeric
failure.  Floats print at 17 significant digits in text output; JSON
uses shortest round-trip floats (lossless either way).  The ldp CSV
starts with a "# format_version=1" line.
The environment variable COUPONS_OUTPUT_DIR, when set, is prepended to
relative --out paths.
"""

import argparse
import contextlib
import json
import math
import os
import sys

from . import automata, curve, sampler, stirling
from .errors import NumericsError
from .specialfn import rate_j, xi_of_lambda


def _at_least(low):
    """argparse type: an int >= low."""
    def parse(text):
        v = int(text)
        if v < low:
            raise argparse.ArgumentTypeError("must be >= %d" % low)
        return v
    parse.__name__ = "int"  # argparse reports a non-integer as "invalid int value"
    return parse


def finite(text):
    """argparse type: a float that is neither nan nor +-inf."""
    v = float(text)
    if not math.isfinite(v):
        raise ValueError("not finite: %r" % text)
    return v


def _list_of(kind):
    """argparse type: a nonempty comma-separated list of `kind` values."""
    def parse(text):
        try:
            vals = [kind(x) for x in text.split(",") if x.strip()]
        except ValueError:
            vals = []
        if not vals:
            raise argparse.ArgumentTypeError(
                "expected a nonempty comma-separated list of %s values" % kind.__name__)
        return vals
    return parse


@contextlib.contextmanager
def _destination(out):
    """stdout, or the --out file (under COUPONS_OUTPUT_DIR if relative) open for writing."""
    if out is None:
        yield sys.stdout
    else:
        with open(os.path.join(os.environ.get("COUPONS_OUTPUT_DIR", ""), out), "w") as fh:
            yield fh


def _emit(text, out):
    with _destination(out) as fh:
        fh.write(text)


def _jsonify(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def cmd_curve(args):
    c = curve.solve_completion_curve(args.nu, args.a, step=args.step)
    with _destination(args.out) as fh:
        curve.curve_to_csv(c, fh)  # streamed: the CSV is never held whole
    return 0


def _chain_length(lam, l):
    """round((1 + lam) l); ValueError where (1 + lam) l overflows."""
    m = (1.0 + lam) * l
    if not math.isfinite(m):
        raise ValueError("(1 + lambda) * l overflows at lambda=%r, l=%r" % (lam, l))
    return int(round(m))


def _stirling_verify(grid, out):
    lines = ["lam,ell,m,l_abs_chi,l_trans_err"]
    worst_chi = worst_r = 0.0
    for lam, l, m in grid:
        ch, err = stirling._chi_and_transition_error(m, l)
        lc = l * abs(ch)
        lr = l * err
        worst_chi = max(worst_chi, lc)
        worst_r = max(worst_r, lr)
        lines.append("%.17g,%d,%d,%.17g,%.17g" % (lam, l, m, lc, lr))
    lines.append("# max l|chi| = %.17g, max l|r-rho| = %.17g" % (worst_chi, worst_r))
    _emit("\n".join(lines) + "\n", out)
    return 0


def cmd_stirling(args):
    if args.verify:
        if (args.m, args.l, args.cap) != (None, None, None):
            raise ValueError("stirling --verify: takes no m, l or --cap")
        lams = args.lams or [0.5, 1.0, 2.0]
        ells = args.ells or [50, 100, 200, 400, 800]
        # checked before any solve, which would fail with a message naming neither flag
        if min(lams) <= 0.0:
            raise ValueError("stirling --verify: --lams must be > 0, got %r" % min(lams))
        if min(ells) < 1:
            raise ValueError("stirling --verify: --ells must be >= 1, got %d" % min(ells))
        grid = [(lam, l, _chain_length(lam, l)) for lam in lams for l in ells]
        for lam, l, m in grid:
            if m <= l:
                raise ValueError("stirling --verify: --lams %r with --ells %d gives "
                                 "m = round((1 + lam) l) = %d, need m > l" % (lam, l, m))
        return _stirling_verify(grid, args.out)
    if args.m is None or args.l is None:
        raise ValueError("stirling: need m and l (or --verify)")
    if args.lams or args.ells:
        raise ValueError("stirling: --lams and --ells need --verify")
    m, l = args.m, args.l
    cap = stirling.DEFAULT_EXACT_CAP if args.cap is None else args.cap
    val = stirling.stirling_exact(m, l, cap=cap)
    lines = [str(val)]
    if 1 <= l < m:
        pl = stirling.psi_log(m, l)
        ch = stirling._chi_of(val, pl)
        lines.append("psi_log=%.17g" % pl)
        lines.append("chi=%.17g" % ch)
        lines.append("l_chi=%.17g" % (l * ch))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_simulate(args):
    rec = sampler.sup_distance_batch(args.N, args.n, args.trials, args.a,
                                     seed=args.seed, jobs=args.jobs)
    _emit(_jsonify(rec), args.out)
    return 0


def cmd_korshunov(args):
    rec = automata.korshunov_report(args.k, args.n, args.trials,
                                    seed=args.seed, jobs=args.jobs)
    _emit(_jsonify(rec), args.out)
    return 0


def cmd_ldp(args):
    if args.nu <= 0.0:
        raise ValueError("ldp: nu must be > 0")
    xi = xi_of_lambda(args.nu)
    j = rate_j(xi)
    lines = ["# format_version=1", "n,lnP_over_n,minus_J,gap"]
    for n in args.n:
        if n < 1:
            raise ValueError("ldp: n must be >= 1")
        N = _chain_length(args.nu, n)
        lnp = stirling.surjection_log_probability(N, n)
        rate = lnp / n
        # 0.0 - j: +0 where -j would print -0, when J underflows to 0
        lines.append("%d,%.17g,%.17g,%.17g" % (n, rate, 0.0 - j, abs(rate + j)))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="coupons",
        description="Impatient coupon collector: curves, Stirling asymptotics, "
                    "conditioned sampling, accessible automata.")
    sub = p.add_subparsers(dest="cmd", required=True)

    pc = sub.add_parser("curve", help="solve the limiting completion curve")
    pc.add_argument("--nu", type=finite, required=True)
    pc.add_argument("--a", type=finite, required=True)
    pc.add_argument("--step", type=finite, default=1e-3)
    pc.add_argument("--out", default=None)
    pc.set_defaults(func=cmd_curve)

    ps = sub.add_parser("stirling", help="exact Stirling numbers and diagnostics")
    ps.add_argument("m", type=int, nargs="?", default=None)
    ps.add_argument("l", type=int, nargs="?", default=None)
    ps.add_argument("--cap", type=_at_least(0), default=None)
    ps.add_argument("--verify", action="store_true",
                    help="emit the l|chi| and l|r-rho| bound table")
    ps.add_argument("--lams", type=_list_of(finite), default=None)
    ps.add_argument("--ells", type=_list_of(int), default=None)
    ps.add_argument("--out", default=None)
    ps.set_defaults(func=cmd_stirling)

    pm = sub.add_parser("simulate", help="conditioned-path sup-distance batches")
    pm.add_argument("--N", type=int, required=True)
    pm.add_argument("--n", type=int, required=True)
    pm.add_argument("--trials", type=int, required=True)
    pm.add_argument("--a", type=finite, required=True)
    pm.add_argument("--seed", type=int, default=0)
    pm.add_argument("--jobs", type=_at_least(1), default=1)
    pm.add_argument("--out", default=None)
    pm.set_defaults(func=cmd_simulate)

    pk = sub.add_parser("korshunov", help="accessibility Monte Carlo vs constants")
    pk.add_argument("--k", type=int, required=True)
    pk.add_argument("--n", type=int, required=True)
    pk.add_argument("--trials", type=int, required=True)
    pk.add_argument("--seed", type=int, default=0)
    pk.add_argument("--jobs", type=_at_least(1), default=1)
    pk.add_argument("--out", default=None)
    pk.set_defaults(func=cmd_korshunov)

    pl = sub.add_parser("ldp", help="large-deviation rate vs exact log-probabilities")
    pl.add_argument("--nu", type=finite, required=True)
    pl.add_argument("--n", type=_list_of(int), default=[50, 100, 200])
    pl.add_argument("--out", default=None)
    pl.set_defaults(func=cmd_ldp)

    return p


def main(argv=None):
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(2000000)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except OSError as exc:
        sys.stderr.write("i/o error: %s\n" % exc)
        return 3
    except (NumericsError, RuntimeError) as exc:
        sys.stderr.write("numeric error: %s\n" % exc)
        return 4


if __name__ == "__main__":
    sys.exit(main())
