"""Layer-alone cases at the ROADMAP baseline shapes, each timed once, untraced.

The cheap ones run inside every traced workload run; `run.py --layers`
runs them all, each in a fresh process so its peak RSS is its own, which
re-measures the ROADMAP baseline table with one command.  `tiny=True`
shrinks every shape for the self-test.
"""

import time

# name: (call at the baseline shape, call at the tiny shape); each call gets
# the `coupons` package, imported only when a case runs
CASES = {
    "layer.exact_ratio_table_2000_300": (
        lambda c: c.stirling.ExactBackend().ratio_table(2000, 300),
        lambda c: c.stirling.ExactBackend().ratio_table(400, 60)),
    "layer.logdp_ratio_table_10001_5000": (
        lambda c: c.stirling.LogDPBackend().ratio_table(10001, 5000),
        lambda c: c.stirling.LogDPBackend().ratio_table(1001, 500)),
    "layer.stirling_exact_5000_2500": (
        lambda c: c.stirling.stirling_exact(5000, 2500),
        lambda c: c.stirling.stirling_exact(500, 250)),
    "layer.chi_1600_800": (
        lambda c: c.stirling.chi(1600, 800),
        lambda c: c.stirling.chi(320, 160)),
    "layer.curve_1_0.2": (
        lambda c: c.curve.solve_completion_curve(1.0, 0.2),
        lambda c: c.curve.solve_completion_curve(1.0, 0.2, step=5e-3)),
    "layer.accessibility_2_1000_1e5": (
        lambda c: c.automata.estimate_accessibility(2, 1000, 100000),
        lambda c: c.automata.estimate_accessibility(2, 1000, 1000)),
    "layer.walk_max_2_1e6_500": (
        lambda c: c.automata.simulate_walk_max(2, 1000000, 500),
        lambda c: c.automata.simulate_walk_max(2, 10000, 500)),
    "layer.sup_distance_batch_4000_2000_200": (
        lambda c: c.sampler.sup_distance_batch(4000, 2000, 200, 0.2),
        lambda c: c.sampler.sup_distance_batch(1000, 500, 20, 0.2)),
}

# the cases that take a few seconds at most, run in every traced workload run
CHEAP = ("layer.exact_ratio_table_2000_300", "layer.chi_1600_800",
         "layer.curve_1_0.2", "layer.sup_distance_batch_4000_2000_200")


def time_case(name, tiny=False):
    """Seconds one call of the case takes."""
    import coupons

    call = CASES[name][1 if tiny else 0]
    t0 = time.perf_counter()
    call(coupons)
    return time.perf_counter() - t0
