"""The udsets benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a checkout, against the library in ``src/``; nothing
needs building.  Workloads, metrics, units and bounds are declared in
``BENCHMARK.json``; ``workloads.py`` says why each workload exists.

--trace 0  prints the end-to-end metrics.  Around the workload, set-up runs
           alone in SETUP_SAMPLES - 1 fresh processes; setup_s is the median
           of those and the workload process's own set-up.  The workload
           process repeats its fixed pass, untraced, while the next pass
           still fits in S seconds (at least once); wall_s is the median
           pass, peak_rss_mb the process's peak RSS over set-up and its first
           pass, and check_pass_rate the share of output checks that passed
           (error_rate = 1 - it).
--trace 1  prints the per-layer metrics of one traced run: set-up and one
           pass with every public function of the measured modules wrapped in
           a span.  The process runs traced, untraced and traced passes; the
           last gives the layer metrics and trace.overhead_s is its wall time
           minus the untraced one.  Exact work counts must agree between the
           two traced passes and with any earlier traced run of the same
           sources, or the run fails.

Each child process runs alone, with native thread pools pinned (env.py).
The last stdout line is the JSON result; the full record (environment,
samples, every layer metric) and the spans go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

import env
import selftest

SETUP_SAMPLES = 9
RUN_LIMIT_S = 170.0  # every run, children included, ends within this


def parse_args(names):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def spawn(mode, args, deadline):
    """Run child.py to completion and return its JSON result."""
    t0 = time.monotonic()
    cmd = [
        sys.executable, str(env.BENCH_DIR / "child.py"),
        mode, args.workload, str(args.seed), str(args.seconds), repr(t0),
    ]
    try:
        proc = subprocess.run(
            cmd, env=env.child_env(), cwd=env.ROOT, capture_output=True,
            text=True, timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        raise SystemExit(f"perfbench: {mode} child passed the {RUN_LIMIT_S:.0f} s limit")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: {mode} child exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    deadline = time.monotonic() + RUN_LIMIT_S
    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    args = parse_args([w["name"] for w in spec["workloads"]])
    if not (env.SRC / "udsets" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no udsets sources under {env.SRC}")
    broken = selftest.problems()
    if broken:
        raise SystemExit("perfbench: output checks failed their self-test: " + "; ".join(broken))

    if args.trace:
        child = spawn("traced", args, deadline)
        values = dict(child["layers"])
        values["checks.error_rate"] = len(child["failures"]) / child["attempted"]
        declared = spec["per_layer"]
    else:
        # set-up samples before and after the workload process, so their
        # median spans the run rather than one moment of it
        before = SETUP_SAMPLES // 2
        setups = [spawn("setup", args, deadline)["setup_s"] for _ in range(before)]
        child = spawn("timed", args, deadline)
        setups.append(child["setup_s"])
        setups += [spawn("setup", args, deadline)["setup_s"] for _ in range(SETUP_SAMPLES - 1 - before)]
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(child["walls"]),
            "peak_rss_mb": child["peak_rss_mb"],
            "check_pass_rate": 1.0 - len(child["failures"]) / child["attempted"],
        }
        child["setup_samples"] = setups
        declared = spec["end_to_end"]

    result = {
        "correct": not child["failures"],
        "attempted": child["attempted"],
        "failed": len(child["failures"]),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    record = dict(child, args=vars(args), git_sha=env.git_sha(),
                  src_sha256=env.source_sha256(), values=values, result=result)
    env.OUT.mkdir(exist_ok=True)
    out = env.OUT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True))
    for failure in child["failures"]:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
