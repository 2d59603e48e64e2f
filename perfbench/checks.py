"""Output checks behind ``check_pass_rate`` (1 - error_rate).

Each workload pass returns a flat dict of observed values (numbers, bools
and strings only).  ``check_<workload>(checks, obs, exp)`` compares them
with the workload's entry in ``EXPECTED``; every comparison is one attempted
check, and a comparison that raises counts as failed.  Keeping observations
plain lets ``selftest.py`` feed each checker a wrong expected value without
running the library.
"""

from __future__ import annotations

import math

# Values every seed must reproduce.  A tolerance entry is the largest
# allowed deviation; a threshold entry is a strict lower bound.
EXPECTED = {
    "certify_builtin": {
        "verdict": "certified",
        "best_delta": 0.2580810546875,
        "reproduced": True,
    },
    "paircorr_raster": {
        "plancherel_tol": 1e-9,
        "disk_s2_above": 1.0,  # clumpiness signature of the disk raster
        "n_r": 200,
        "roundtrip": True,
        "audit_ok": True,
    },
    "spectrum_deep": {
        "plancherel_tol": 1e-9,
        "n_r": 16,
        "audit_ok": True,
    },
    "udgraph_sample": {
        "internal_edges": 0,
        "block_structure": True,
        "disk_blocks": 16,
        "maxis_size": 8,
        "maxis_exact": True,
    },
}


class Checks:
    """Counts attempted and failed checks; remembers the failures by name."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def check(self, name, predicate):
        """Evaluate ``predicate()``; a falsy result or any exception fails."""
        self.attempted += 1
        try:
            ok = bool(predicate())
        except Exception as exc:  # a check that raises is a failed check
            self.failures.append(f"{name}: raised {exc!r}")
            return
        if not ok:
            self.failures.append(name)

    def fail(self, name, exc):
        """Count an operation that raised before its outputs could be checked."""
        self.attempted += 1
        self.failures.append(f"{name}: raised {exc!r}")

    def equal(self, name, got, want):
        self.check(f"{name} == {want!r} (got {got!r})", lambda: got == want)

    def close(self, name, got, want, tol):
        self.check(
            f"|{name} - {want!r}| <= {tol!r} (got {got!r})",
            lambda: math.isfinite(got) and abs(got - want) <= tol,
        )

    def above(self, name, got, bound):
        self.check(f"{name} > {bound!r} (got {got!r})", lambda: got > bound)


def _plancherel(checks, prefix, obs, tol):
    """kappa(0) = density^2 and sum(kappa) + tail = density."""
    dens = obs[f"{prefix}.density"]
    checks.close(f"{prefix}.kappa0", obs[f"{prefix}.kappa0"], dens * dens, tol)
    checks.close(f"{prefix}.kappa_total", obs[f"{prefix}.kappa_total"], dens, tol)


def _curve(checks, prefix, obs, n_r):
    """Every f(r) lies in [-rigor, density + rigor], and all r were evaluated."""
    checks.equal(f"{prefix}.n_r", obs[f"{prefix}.n_r"], n_r)
    checks.check(f"{prefix}.f_in_range", lambda: obs[f"{prefix}.f_in_range"])


def check_certify_builtin(checks, obs, exp):
    checks.equal("verdict", obs["verdict"], exp["verdict"])
    checks.equal("best_delta", obs["best_delta"], exp["best_delta"])
    checks.equal("report.delta_star", obs["delta_star"], exp["best_delta"])
    checks.equal("file.reproduced", obs["reproduced"], exp["reproduced"])
    checks.equal("file.verdict", obs["file_verdict"], exp["verdict"])


def check_paircorr_raster(checks, obs, exp):
    for name in ("disk", "croft"):
        _plancherel(checks, name, obs, exp["plancherel_tol"])
        _curve(checks, name, obs, exp["n_r"])
        # 1-avoiding: f(1) vanishes up to the certified truncation bound
        checks.check(
            f"{name}: |f(1)| <= rigor",
            lambda n=name: abs(obs[f"{n}.f1"]) <= obs[f"{n}.f1_rigor"],
        )
        checks.equal(f"{name}.roundtrip", obs[f"{name}.roundtrip"], exp["roundtrip"])
    checks.above("disk.s2", obs["disk.s2"], exp["disk_s2_above"])
    checks.equal("croft.audit_ok", obs["croft.audit_ok"], exp["audit_ok"])


def check_spectrum_deep(checks, obs, exp):
    for name in ("set0", "set1"):
        _plancherel(checks, name, obs, exp["plancherel_tol"])
        _curve(checks, name, obs, exp["n_r"])
        checks.equal(f"{name}.audit_ok", obs[f"{name}.audit_ok"], exp["audit_ok"])


def check_udgraph_sample(checks, obs, exp):
    for name in ("greedy100", "greedy40", "glauber8", "greedy2", "maxis2"):
        checks.equal(
            f"{name}.internal_edges", obs[f"{name}.internal_edges"], exp["internal_edges"]
        )
    checks.equal("disk.block_structure", obs["disk.block_structure"], exp["block_structure"])
    checks.equal("disk.n_blocks", obs["disk.n_blocks"], exp["disk_blocks"])
    checks.equal("disk.n_blocks vs centers", obs["disk.n_blocks"], obs["disk.n_centers"])
    checks.equal("maxis2.exact", obs["maxis2.exact"], exp["maxis_exact"])
    checks.equal("maxis2.size", obs["maxis2.size"], exp["maxis_size"])
    checks.check(
        "maxis2.size >= greedy2.size",
        lambda: obs["maxis2.size"] >= obs["greedy2.size"],
    )


CHECKERS = {
    "certify_builtin": check_certify_builtin,
    "paircorr_raster": check_paircorr_raster,
    "spectrum_deep": check_spectrum_deep,
    "udgraph_sample": check_udgraph_sample,
}
