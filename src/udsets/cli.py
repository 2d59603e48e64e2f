"""Command-line front end: reproducible experiments with manifests.

Subcommands: construct, paircorr, sample, search, graph, certify, verify,
gamma.  Every run writes its outputs plus a ``manifest.json`` into --out; a
rerun with identical inputs reproduces every output byte for byte (fixed
17-significant-digit CSV formatting, sorted-key JSON, and a named PRNG,
numpy PCG64, seeded only from the command line).

Exit codes: 0 success / certified, 2 failed certificate, 3 infeasible LP,
4 input error (a usage error that argparse rejects included), 5 search
timeout.

``--config FILE`` supplies a JSON object whose entries override the parsed
flags.  Each entry goes through its subcommand's own option, type and
choices included; an unknown key or a rejected value is an input error.
All kernels here are deterministic: J0 on large arrays runs on a pool of
one thread per CPU, and every output keeps its bits whatever the number of
CPUs or BLAS threads.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import constructions, gridio, torus, udgraph, witness
from .errors import DomainError, FeasibilityError, SearchTimeout, UdsetsError
from .registry import builtin_registry, load_registry

TOOL_VERSION = "0.1.0"
PRNG_NAME = "numpy-pcg64"

EXIT_OK = 0
EXIT_FAILED_CERT = 2
EXIT_INFEASIBLE = 3
EXIT_INPUT = 4
EXIT_TIMEOUT = 5

S_PROBES = (0.5, 1.0, 1.96, 2.0)
MAX_RADII = 10**6  # paircorr refuses a longer r grid (one pair_correlation each)


def _outdir(args) -> Path:
    """Create --out.  Callers run it just before their first write, once
    every input is read, so an input error leaves no directory behind."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _manifest(out: Path, command: str, args, seeds, outputs):
    config = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in {"func", "config"} and isinstance(v, (int, float, str, bool, type(None)))
    }
    doc = {
        "command": command,
        "config": config,
        "seeds": list(seeds),
        "tool_version": TOOL_VERSION,
        "prng": PRNG_NAME,
        "outputs": sorted(str(p.name) for p in outputs),
    }
    path = out / "manifest.json"
    path.write_text(gridio.dumps_json(doc))
    return path


def positive_float(text: str) -> float:
    """The type of --r-step, --time-budget, --budget, --margin, --tail-start
    and --epsilon: finite > 0."""
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(text)
    return value


def seed_list(text: str) -> str:
    """The --seeds type: at least one comma-separated int, none repeated, kept
    as text so the manifest records it as given (``cmd_sample`` splits it)."""
    seeds = [int(s) for s in text.split(",") if s != ""]
    if not seeds or len(set(seeds)) != len(seeds):
        raise ValueError(text)
    return text


def _load_registry_arg(spec: str):
    if spec == "builtin":
        return builtin_registry()
    return load_registry(spec)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_construct(args) -> int:
    if args.pattern == "hexdisk":
        pattern = constructions.hex_disk_packing()
        x_used = None
    else:
        x_used = args.x
        if args.optimize or x_used is None:
            x_used, _ = constructions.optimize_croft()
        pattern = constructions.croft_tortoise(x_used)
    rep = constructions.rasterize_report(pattern, args.n, args.k, args.beta)
    out = _outdir(args)
    grid_path = out / f"{args.pattern}_N{args.n}_K{args.k}.gridset.json"
    gridio.save_gridset(grid_path, rep.grid)
    stats = {
        "pattern": args.pattern,
        "x": x_used,
        "beta": args.beta,
        "N": args.n,
        "K": args.k,
        "analytic_density": rep.ideal_density,
        "embedded_density": rep.embedded_density,
        "embedding_perturbation": rep.embedded_density - rep.ideal_density,
        "raster_density": rep.raster_density,
        "block_centers": rep.embedding.n_centers,
        "certified_min_gap": rep.embedding.min_gap,
    }
    stats_path = out / f"{args.pattern}_N{args.n}_K{args.k}.stats.json"
    stats_path.write_text(gridio.dumps_json(stats))
    _manifest(out, "construct", args, [], [grid_path, stats_path])
    print(f"{args.pattern}: raster density {rep.raster_density:.6f} "
          f"(embedded {rep.embedded_density:.6f}, ideal {rep.ideal_density:.6f})")
    return EXIT_OK


def cmd_paircorr(args) -> int:
    if not (math.isfinite(args.r_max) and 0.0 <= args.r_min <= args.r_max):
        raise DomainError(f"need finite 0 <= --r-min <= --r-max: {args.r_min}, {args.r_max}")
    # np.arange below makes ceil(span) radii: count them before allocating
    span = (args.r_max + args.r_step / 2 - args.r_min) / args.r_step
    if not span <= MAX_RADII:
        raise DomainError(f"--r-min to --r-max at --r-step {args.r_step} makes {span:.6g} "
                          f"radii, over the cap of {MAX_RADII}")
    A = gridio.load_gridset(args.set)
    spec = torus.spectrum(A, args.cutoff_m)
    rs = np.arange(args.r_min, args.r_max + args.r_step / 2, args.r_step)
    rows = []
    for r in rs:
        ev = torus.pair_correlation(spec, float(r))
        rows.append((ev.r, ev.value, ev.rigor_bound))
    out = _outdir(args)
    csv_path = out / "paircorr.csv"
    gridio.write_paircorr_csv(csv_path, rows, spec.density)
    _manifest(out, "paircorr", args, [], [csv_path])
    print(f"wrote {csv_path} ({len(rows)} rows, density {spec.density:.6f}, "
          f"{len(spec.ms)} kappa terms kept, mass {spec.omitted_mass:.1e} left out)")
    return EXIT_OK


def _sample_stats(A: torus.GridSet, G: udgraph.UDGraph) -> dict:
    st = udgraph.subset_stats(G, A)
    entry = {"density": st.density, "internal_edges": st.internal_edges}
    if st.density > 0:
        spec = torus.spectrum_auto(A, r_min=min(S_PROBES), tail_target=1e-3)
        for r in S_PROBES:
            entry[f"s_{r}"] = torus.pair_correlation(spec, r).value / spec.density**2
    return entry


def cmd_sample(args) -> int:
    seeds = [int(s) for s in str(args.seeds).split(",") if s != ""]
    G = udgraph.build(args.n, args.k)
    steps = 100 * G.n_vertices if args.steps is None else args.steps
    # every sample is drawn before --out is made: a bad --steps leaves none
    if args.mode == "greedy":
        samples = [udgraph.greedy_mis(G, seed) for seed in seeds]
    else:
        samples = [udgraph.glauber_sample(G, steps, seed) for seed in seeds]
    out = _outdir(args)
    outputs = []
    per_seed = {}
    for seed, ind in zip(seeds, samples):
        A = ind.to_gridset()
        p = out / f"{args.mode}_seed{seed}.gridset.json"
        gridio.save_gridset(p, A)
        outputs.append(p)
        per_seed[str(seed)] = _sample_stats(A, G)
    dens = [v["density"] for v in per_seed.values()]
    agg = {
        "mode": args.mode,
        "N": args.n,
        "K": args.k,
        "steps": steps if args.mode == "glauber" else None,
        "per_seed": per_seed,
        "density_mean": float(np.mean(dens)),
        "density_std": float(np.std(dens)),
    }
    s196 = [v.get("s_1.96") for v in per_seed.values() if "s_1.96" in v]
    if s196:
        agg["s_1.96_mean"] = float(np.mean(s196))
        agg["s_1.96_std"] = float(np.std(s196))
    agg_path = out / "aggregate.json"
    agg_path.write_text(gridio.dumps_json(agg))
    outputs.append(agg_path)
    _manifest(out, "sample", args, seeds, outputs)
    print(f"{args.mode}: {len(seeds)} sample(s), mean density {agg['density_mean']:.5f}")
    return EXIT_OK


def cmd_search(args) -> int:
    G = udgraph.build(args.n, args.k)
    try:
        res = udgraph.max_is_exact(G, time_budget=args.time_budget)
        ind, size, bound, exact = res.indep_set, res.size, res.upper_bound, res.exact
        code = EXIT_OK
    except SearchTimeout as exc:
        ind = exc.best
        size = ind.size
        bound = exc.upper_bound
        exact = False
        code = EXIT_TIMEOUT
    A = ind.to_gridset()
    out = _outdir(args)
    p = out / "best.gridset.json"
    gridio.save_gridset(p, A)
    blocks = udgraph.block_decomposition(A)
    report = {
        "N": args.n,
        "K": args.k,
        "size": size,
        "density": size / G.n_vertices,
        "upper_bound": bound,
        "exact": exact,
        "gap": bound - size,
        "has_block_structure": blocks.has_block_structure,
        "n_blocks": blocks.n_blocks,
    }
    rp = out / "search.json"
    rp.write_text(gridio.dumps_json(report))
    _manifest(out, "search", args, [], [p, rp])
    print(f"search: size {size}, bound {bound}, exact={exact}, "
          f"blocks={blocks.n_blocks} (block structure: {blocks.has_block_structure})")
    return code


def cmd_graph(args) -> int:
    G = udgraph.build(args.n, args.k)
    doc = {
        "N": args.n,
        "K": args.k,
        "vertices": G.n_vertices,
        "edges": G.edge_count,
        "max_degree": G.max_degree,
    }
    out = _outdir(args)
    p = out / "graph.json"
    p.write_text(gridio.dumps_json(doc))
    _manifest(out, "graph", args, [], [p])
    print(f"graph N={args.n} K={args.k}: {G.n_vertices} vertices, "
          f"{G.edge_count} edges, degree {G.max_degree}")
    return EXIT_OK


def cmd_certify(args) -> int:
    reg = _load_registry_arg(args.registry)
    knobs = dict(budget=args.budget, margin=args.margin, tail_start=args.tail_start)
    if args.delta_plus is not None:
        # the attempt every bisection point makes, the quadratic minimized
        res, report, log = witness._attempt(
            reg, args.delta_plus, minimize_quadratic=True, **knobs
        )
        if report is None:
            T = log[-1][1]
            print(f"LP infeasible at delta_plus = {args.delta_plus}, last solved at "
                  f"tail start {T}")
            if witness._tail_independent(res):
                print("a valid Farkas ray proves it at every tail start >= "
                      f"{T}: the ray puts no weight on the tail row "
                      "(it is not written out)")
            elif res.farkas_valid:
                print(f"a valid Farkas ray proves it at tail start {T} only: the "
                      "ray weights the tail row (it is not written out)")
            else:
                print("no valid Farkas ray was found: infeasibility is not proven")
            return EXIT_INFEASIBLE
        coeffs = res.coefficients
    else:
        try:
            outcome = witness.certify_bound(reg, **knobs)
        except FeasibilityError as exc:
            print(f"certification failed: {exc}")
            return EXIT_INFEASIBLE
        coeffs, report = outcome.coefficients, outcome.report
    out = _outdir(args)
    cert_path = out / "certificate.json"
    witness.write_certificate(cert_path, coeffs, report)
    _manifest(out, "certify", args, [], [cert_path])
    print(f"verdict: {report.verdict}; delta_star = {report.delta_star:.6f}; "
          f"gamma = {report.gamma:.6g}")
    return EXIT_OK if report.certified else EXIT_FAILED_CERT


def cmd_verify(args) -> int:
    reg = _load_registry_arg(args.registry)
    try:
        report, reproduced = witness.verify_certificate_file(args.certificate, reg)
    except UdsetsError as exc:
        # malformed/tampered certificates are a failed verification, not a crash
        print(f"verdict: failed: {exc}")
        return EXIT_FAILED_CERT
    print(f"verdict: {report.verdict}; reproduced stored verdict: {reproduced}; "
          f"delta_star = {report.delta_star:.6f}")
    return EXIT_OK if (report.certified and reproduced) else EXIT_FAILED_CERT


def cmd_gamma(args) -> int:
    reg = _load_registry_arg(args.registry)
    doc = witness.load_certificate(args.certificate)
    coeffs = witness.certificate_coefficients(doc, reg)
    try:
        gamma = witness.gamma_extract(coeffs, args.epsilon)
    except FeasibilityError as exc:
        print(f"no admissible gamma: {exc}")
        return EXIT_INFEASIBLE
    print(f"gamma = {gamma:.12g} at epsilon = {args.epsilon}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="udsets",
        description="pair correlations and certified density bounds for "
                    "distance-1-avoiding torus sets",
    )
    ap.add_argument("--config", default=None,
                    help="JSON file whose entries override parsed flags")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("construct", help="build and rasterize a block pattern")
    p.add_argument("pattern", choices=["hexdisk", "croft"])
    p.add_argument("--x", type=float, default=None, help="croft hexagon height")
    p.add_argument("--optimize", action="store_true")
    p.add_argument("--n", type=int, default=128)
    p.add_argument("--k", type=int, default=8)
    p.add_argument("--beta", type=float, default=0.01)
    p.add_argument("--out", default="runs/construct")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("paircorr", help="pair-correlation CSV for a GridSet file")
    p.add_argument("--set", required=True)
    p.add_argument("--r-min", type=float, default=0.0)
    p.add_argument("--r-max", type=float, default=4.0)
    p.add_argument("--r-step", type=positive_float, default=0.01)
    p.add_argument("--cutoff-m", type=int, default=40_000)
    p.add_argument("--out", default="runs/paircorr")
    p.set_defaults(func=cmd_paircorr)

    p = sub.add_parser("sample", help="greedy or Glauber independent-set samples")
    p.add_argument("--mode", choices=["greedy", "glauber"], default="greedy")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seeds", type=seed_list, default="0")
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--out", default="runs/sample")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("search", help="exact maximum independent set (small N*K)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--time-budget", type=positive_float, default=60.0)
    p.add_argument("--out", default="runs/search")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("graph", help="unit-distance cell graph statistics")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", default="runs/graph")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("certify", help="solve the witness LP and verify")
    p.add_argument("--registry", default="builtin")
    p.add_argument("--delta-plus", type=float, default=None)
    p.add_argument("--budget", type=positive_float, default=witness.DEFAULT_BUDGET)
    p.add_argument("--margin", type=positive_float, default=witness.DEFAULT_MARGIN)
    p.add_argument("--tail-start", type=positive_float, default=witness.DEFAULT_TAIL_START)
    p.add_argument("--out", default="runs/certify")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("verify", help="re-verify a certificate file")
    p.add_argument("--certificate", required=True)
    p.add_argument("--registry", default="builtin")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gamma", help="extract the clumpiness constant")
    p.add_argument("--certificate", required=True)
    p.add_argument("--registry", default="builtin")
    p.add_argument("--epsilon", type=positive_float, default=1e-3)
    p.set_defaults(func=cmd_gamma)
    return ap


def _config_value(action: argparse.Action, value):
    """A --config entry as ``action`` stores it; ValueError if it rejects it.

    A switch takes true or false.  Any other entry is spelt as on the command
    line (a string as itself, anything else as its JSON text) and passes the
    action's type and choices; the result must equal the entry, so neither
    "4" nor 4.5 is an int.
    """
    if action.nargs == 0:
        if not isinstance(value, bool):
            raise ValueError(f"expects true or false, got {value!r}")
        return value
    kind = action.type or str
    token = value if isinstance(value, str) else json.dumps(value)
    try:
        parsed = kind(token)
        if parsed != value:
            raise ValueError
    except ValueError:
        raise ValueError(f"{value!r} is not a valid {kind.__name__}") from None
    if action.choices is not None and parsed not in action.choices:
        raise ValueError(f"{value!r} is not one of {sorted(action.choices)}")
    return parsed


def _apply_config(ap: argparse.ArgumentParser, args, overrides) -> None:
    """Override ``args`` with the --config entries, each through the action
    of that name in the chosen subcommand's parser."""
    if not isinstance(overrides, dict):
        raise ValueError("the file must hold a JSON object")
    sub = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    parser = sub.choices[args.subcommand]
    actions = {a.dest: a for a in parser._actions if a.dest != "help"}
    for key, value in overrides.items():
        action = actions.get(key.replace("-", "_"))
        if action is None:
            raise ValueError(f"unknown key {key!r} for {args.subcommand}")
        try:
            setattr(args, action.dest, _config_value(action, value))
        except ValueError as exc:
            raise ValueError(f"key {key!r}: {exc}") from None


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        if exc.code != 2:  # --help exits 0
            raise
        return EXIT_INPUT  # argparse already printed the usage error
    if args.config:
        try:
            _apply_config(ap, args, json.loads(Path(args.config).read_text()))
        except (OSError, ValueError) as exc:
            print(f"bad --config file: {exc}", file=sys.stderr)
            return EXIT_INPUT
    try:
        return args.func(args)
    except SearchTimeout:
        return EXIT_TIMEOUT
    except UdsetsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:  # a missing or unreadable file, a directory
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
