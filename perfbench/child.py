"""One workload in one process; prints one JSON object as its last line.

    python3 perfbench/child.py MODE WORKLOAD SEED SECONDS T0

MODE is ``setup`` (set up, report setup_s, exit), ``timed`` (repeat the
pass until SECONDS are used, untraced) or ``traced`` (traced set-up, then a
traced, an untraced and a traced pass; the work counts of the two traced
passes must agree, and the layer metrics come from set-up plus pass 2).
T0 is the parent's ``time.monotonic()`` just before it started this
process, so setup_s includes interpreter start and ``import udsets``.
"""

import json
import os
import resource
import sys
import tempfile
import time
from pathlib import Path

import env

import udsets  # from src/ via PYTHONPATH, checked in main()
from udsets import registry as udregistry

import checks
import workloads


class WorkCountMismatch(RuntimeError):
    """Two runs of the same code did different amounts of exact work."""


def set_up(make_inputs, seed):
    return make_inputs(seed, udregistry.builtin_registry())


def one_pass(run, observe, inputs, workload, results, tracer=None):
    """Time run(), traced when a tracer is given; check outside the timing."""
    with tempfile.TemporaryDirectory(dir=env.OUT) as tmp:
        t = time.perf_counter()
        try:
            if tracer:
                tracer.active = True
            out = run(inputs, Path(tmp))
        except Exception as exc:  # a failed operation is a failed check
            results.fail(f"{workload} pass", exc)
            return time.perf_counter() - t, False
        finally:
            if tracer:
                tracer.active = False
        wall = time.perf_counter() - t
        try:
            obs = observe(out)
        except Exception as exc:
            results.fail(f"{workload} observe", exc)
            return wall, False
        del out  # release the pass's arrays before the next pass
    try:
        checks.CHECKERS[workload](results, obs, checks.EXPECTED[workload])
    except Exception as exc:
        results.fail(f"{workload} checker", exc)
    return wall, True


def exact_counts(stats):
    """The counters that must repeat exactly: everything but times and peaks."""
    return {
        k: v for k, v in stats.items()
        if not k.endswith((".s", ".peak_mb"))
    }


def compare_counts(a, b, what):
    keys = sorted(set(a) | set(b))
    diff = [f"{k}: {a.get(k)} != {b.get(k)}" for k in keys if a.get(k) != b.get(k)]
    if diff:
        raise WorkCountMismatch(f"exact work counts differ ({what}): " + "; ".join(diff))


def check_against_earlier_run(workload, seed, counts):
    """Fail loudly if an earlier traced run of the same source disagrees."""
    store = env.OUT / "workcounts"
    store.mkdir(parents=True, exist_ok=True)
    path = store / f"{workload}-seed{seed}-{env.source_sha256()[:16]}.json"
    if path.exists():
        compare_counts(json.loads(path.read_text()), counts, f"vs {path.name}")
    else:
        path.write_text(json.dumps(counts, sort_keys=True))


def layer_metrics(tracer, pass_id):
    """Set-up plus one traced pass, with the derived ratios."""
    setup, run = tracer.stats["setup"], tracer.stats[pass_id]
    m = {k: setup.get(k, 0.0) + run.get(k, 0.0) for k in set(tracer.names).union(setup, run)}
    lp_calls = m["simplex.solve_lp.calls"]
    m["simplex.solve_lp.feasible_ratio"] = m["simplex.solve_lp.optimal"] / lp_calls if lp_calls else 0.0
    attempts = m["witness.certify_bound.attempts"]
    m["witness.attempts"] = attempts
    m["witness.certified_ratio"] = m["witness.certify_bound.certified_attempts"] / attempts if attempts else 0.0
    m["trace.errors"] = sum(v for k, v in m.items() if k.endswith(".errors"))
    m["trace.spans"] = float(sum(1 for s in tracer.spans if s["pass"] in ("setup", pass_id)))
    return m


def environment():
    import numpy as np
    import scipy

    from udsets import bessel

    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": env.nproc(),
        "threads": {v: os.environ.get(v) for v in env.THREAD_VARS},
        "longdouble_eps": float(np.finfo(np.longdouble).eps),
        "have_extended_precision": bool(bessel.HAVE_EXTENDED_PRECISION),
    }


def main():
    mode, workload, seed, seconds, t0 = sys.argv[1:6]
    seed, seconds, t0 = int(seed), float(seconds), float(t0)
    src = Path(udsets.__file__).resolve().parent
    if src != env.SRC / "udsets":
        raise SystemExit(f"imported udsets from {src}, not from {env.SRC}")
    make_inputs, run, observe = workloads.WORKLOADS[workload]
    inputs = set_up(make_inputs, seed)
    setup_s = time.monotonic() - t0
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return

    env.OUT.mkdir(exist_ok=True)
    results = checks.Checks()
    walls = []
    report = {"setup_s": setup_s, "environment": environment()}
    if mode == "timed":
        start = time.monotonic()
        while True:
            wall, ok = one_pass(run, observe, inputs, workload, results)
            walls.append(wall)
            if len(walls) == 1:
                # set-up plus one pass: later passes only add allocator
                # growth, and how many there are depends on machine speed
                report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if not ok or time.monotonic() - start + max(walls) > seconds:
                break
    else:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            tracer.pass_id, tracer.active = "setup", True
            inputs = set_up(make_inputs, seed)
            tracer.active = False
            # pass1 also warms the process up; pass2 and the untraced pass
            # between them are both warm, so pass2 - untraced is the overhead
            tracer.pass_id = "pass1"
            walls.append(one_pass(run, observe, inputs, workload, results, tracer)[0])
            untraced, _ = one_pass(run, observe, inputs, workload, results)
            tracer.pass_id = "pass2"
            walls.append(one_pass(run, observe, inputs, workload, results, tracer)[0])
        finally:
            tracer.active = False
            tracer.uninstall()
        tag = f"{workload}-seed{seed}"
        tracer.dump(env.OUT / f"spans-{tag}.json")
        counts = exact_counts(tracer.stats["pass2"])
        compare_counts(exact_counts(tracer.stats["pass1"]), counts, "pass1 vs pass2")
        check_against_earlier_run(workload, seed, counts)
        layers = layer_metrics(tracer, "pass2")
        layers["trace.overhead_s"] = walls[-1] - untraced
        report.update(untraced_wall_s=untraced, layers=layers)
    report.update(walls=walls, attempted=results.attempted, failures=results.failures)
    print(json.dumps(report))


if __name__ == "__main__":
    try:
        main()
    except WorkCountMismatch as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(3)
