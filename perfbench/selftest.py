"""Self-test of the output checks: a wrong expected value must be counted.

    python3 perfbench/selftest.py

For each workload, a passing observation (values as the seed commit gives
them) must produce no failure; then each expected value in turn is replaced
by a wrong one, and the checker must count at least one failed check.  A
check or an operation that raises must count as failed too.  Needs neither numpy nor udsets.
"""

import sys

from checks import CHECKERS, EXPECTED, Checks

GOOD = {
    "certify_builtin": {
        "verdict": "certified",
        "best_delta": 0.2580810546875,
        "delta_star": 0.2580810546875,
        "reproduced": True,
        "file_verdict": "certified",
    },
    "paircorr_raster": {
        "croft.audit_ok": True,
        **{
            f"{n}.{k}": v
            for n, dens, s2 in (("disk", 0.2201634457236842, 1.82), ("croft", 0.1846923828125, 1.79))
            for k, v in {
                "density": dens,
                "kappa0": dens * dens,
                "kappa_total": dens,
                "f_in_range": True,
                "n_r": 200,
                "f1": -6.9e-05,
                "f1_rigor": 3.2e-04,
                "s2": s2,
                "roundtrip": True,
            }.items()
        },
    },
    "spectrum_deep": {
        f"{n}.{k}": v
        for n, dens in (("set0", 0.499755859375), ("set1", 0.5009765625))
        for k, v in {
            "density": dens,
            "kappa0": dens * dens,
            "kappa_total": dens,
            "f_in_range": True,
            "n_r": 16,
            "audit_ok": True,
        }.items()
    },
    "udgraph_sample": {
        "greedy100.internal_edges": 0,
        "greedy40.internal_edges": 0,
        "glauber8.internal_edges": 0,
        "greedy2.internal_edges": 0,
        "maxis2.internal_edges": 0,
        "disk.block_structure": True,
        "disk.n_blocks": 16,
        "disk.n_centers": 16,
        "maxis2.exact": True,
        "maxis2.size": 8,
        "greedy2.size": 5,
    },
}


def wrong(key, value):
    """A value that must make the check using it fail."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, str):
        return value + "?"
    if key.endswith("_tol"):
        return -1.0
    return value + 1


def run_checker(workload, obs, exp):
    checks = Checks()
    CHECKERS[workload](checks, obs, exp)
    return checks


def problems(verbose=False):
    """Every way the checkers failed to count a wrong value; empty when sound."""
    found = []
    for workload in CHECKERS:
        base = run_checker(workload, GOOD[workload], EXPECTED[workload])
        if base.failed:
            found.append(f"{workload}: good observation failed {base.failures}")
        for key, value in EXPECTED[workload].items():
            exp = dict(EXPECTED[workload], **{key: wrong(key, value)})
            if run_checker(workload, GOOD[workload], exp).failed == 0:
                found.append(f"{workload}: wrong expected {key!r} went unnoticed")
        if verbose:
            print(f"{workload}: {base.attempted} checks, {len(EXPECTED[workload])} wrong values tried")

    checks = Checks()
    checks.check("raises", lambda: 1 / 0)
    checks.close("nan", float("nan"), 0.0, 1.0)
    checks.fail("operation", RuntimeError("raised before any check"))
    if (checks.attempted, checks.failed) != (3, 3):
        found.append("a raising operation or check, or a NaN, was not counted as failed")
    return found


def main():
    found = problems(verbose=True)
    for p in found:
        print("FAIL:", p)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
