"""The four workloads: seeded inputs, one fixed pass, and its observations.

A workload is ``(make_inputs, run, observe)``.  ``make_inputs(seed, registry)``
turns the seed into plain inputs (set-up time); ``run(inputs, tmp)`` is the
timed pass and calls only public functions of ``udsets`` modules, looked up
on the module at call time so the tracer's wrappers see them; ``observe``
reduces the pass's outputs to the plain values ``checks.py`` compares.

Why these four: each stresses a different share of the layers, so a change
that helps one and hurts another shows on the second.

* certify_builtin  the paper's headline bound; witness + simplex + bessel on
                   a few huge arrays, never torus, udgraph or constructions.
* paircorr_raster  the curve s(r) a user draws; constructions, an FFT-bound
                   spectrum (4864^2 grid), many medium J0 calls, gridio files.
* spectrum_deep    the same torus layer the other way round: a 128^2 FFT
                   but 2^21 cutoff, so lattice enumeration dominates.
* udgraph_sample   the only workload on udgraph: Python-loop samplers and
                   branch-and-bound beside vectorized edge counting.
"""

from __future__ import annotations

import numpy as np

from udsets import constructions, gridio, torus, udgraph, witness
from udsets.registry import Registry

PAIRCORR_CUTOFF = 240_000
DEEP_CUTOFF = 2**21
GLAUBER_STEPS = 200_000


# ---------------------------------------------------------------------------
# certify_builtin: the seed is unused (the builtin certification is fixed)
# ---------------------------------------------------------------------------

def certify_inputs(seed, registry):
    return {"registry": registry}


def certify_run(inp, tmp):
    reg = inp["registry"]
    res = witness.certify_bound(reg)
    path = tmp / "certificate.json"
    witness.write_certificate(path, res.coefficients, res.report)
    file_report, reproduced = witness.verify_certificate_file(path, reg)
    return res, file_report, reproduced


def certify_observe(out):
    res, file_report, reproduced = out
    return {
        "verdict": res.report.verdict,
        "best_delta": float(res.best_delta),
        "delta_star": float(res.report.delta_star),
        "reproduced": bool(reproduced),
        "file_verdict": file_report.verdict,
    }


# ---------------------------------------------------------------------------
# spectral pair-correlation helpers shared by the two torus workloads
# ---------------------------------------------------------------------------

def _jittered(rng, lo, hi, n):
    """n stratified radii in (lo, hi]: one uniform draw per equal slice."""
    u = 1.0 - rng.random(n)  # in (0, 1]
    return [float(lo + (hi - lo) * (i + u[i]) / n) for i in range(n)]


def _spectrum_obs(prefix, spec, curve):
    dens = spec.density
    return {
        f"{prefix}.density": float(dens),
        f"{prefix}.kappa0": float(spec.kappas[spec.ms == 0].sum()),
        f"{prefix}.kappa_total": float(spec.kappas.sum()) + spec.tail_mass,
        f"{prefix}.f_in_range": all(
            -e.rigor_bound <= e.value <= dens + e.rigor_bound for e in curve
        ),
    }


# ---------------------------------------------------------------------------
# paircorr_raster: the seed draws the 200 radii of each curve
# ---------------------------------------------------------------------------

def paircorr_inputs(seed, registry):
    rng = np.random.default_rng(seed)
    return {"registry": registry, "radii": _jittered(rng, 0.0, 4.0, 200)}


def paircorr_run(inp, tmp):
    x_star, _ = constructions.optimize_croft()
    rasters = {
        "disk": constructions.rasterize_report(
            constructions.hex_disk_packing(), 128, 38, beta=0.006
        ),
        "croft": constructions.rasterize_report(
            constructions.croft_tortoise(x_star), 128, 8
        ),
    }
    out = {}
    for name, rep in rasters.items():
        grid = rep.grid
        spec = torus.spectrum(grid, PAIRCORR_CUTOFF)
        curve = [torus.pair_correlation(spec, r) for r in inp["radii"]]
        probes = {r: torus.pair_correlation(spec, r) for r in (1.0, 2.0)}
        csv = tmp / f"{name}.csv"
        gridio.write_paircorr_csv(
            csv, [(e.r, e.value, e.rigor_bound) for e in curve], spec.density
        )
        path = tmp / f"{name}.gridset.json"
        gridio.save_gridset(path, grid)
        loaded = gridio.load_gridset(path)
        out[name] = (grid, spec, curve, probes, csv, loaded)
    croft_grid, croft_spec = out["croft"][:2]
    audit = witness.kappa_constraint_audit(croft_spec, inp["registry"], gridset=croft_grid)
    return out, audit


def paircorr_observe(result):
    out, audit = result
    obs = {"croft.audit_ok": bool(audit.ok)}
    for name, (grid, spec, curve, probes, csv, loaded) in out.items():
        obs.update(_spectrum_obs(name, spec, curve))
        obs[f"{name}.n_r"] = len(csv.read_text().splitlines()) - 1
        obs[f"{name}.f1"] = probes[1.0].value
        obs[f"{name}.f1_rigor"] = probes[1.0].rigor_bound
        obs[f"{name}.s2"] = probes[2.0].value / spec.density**2
        obs[f"{name}.roundtrip"] = bool(
            (loaded.N, loaded.K) == (grid.N, grid.K)
            and np.array_equal(loaded.cells, grid.cells)
        )
    return obs


# ---------------------------------------------------------------------------
# spectrum_deep: the seed draws both random sets and the 16 radii
# ---------------------------------------------------------------------------

def deep_inputs(seed, registry):
    rng = np.random.default_rng(seed)
    set_seeds = rng.integers(0, 2**31, size=2)
    return {
        "t_only": Registry(tuple(registry.t_graphs), (), "t-only"),
        "sets": [torus.random_gridset(16, 8, seed=int(s)) for s in set_seeds],
        "radii": _jittered(rng, 0.25, 4.0, 16),
    }


def deep_run(inp, tmp):
    out = []
    for A in inp["sets"]:
        spec = torus.spectrum(A, DEEP_CUTOFF)
        curve = [torus.pair_correlation(spec, r) for r in inp["radii"]]
        audit = witness.kappa_constraint_audit(spec, inp["t_only"], r_probes=(1.0,), gridset=A)
        out.append((spec, curve, audit))
    return out


def deep_observe(out):
    obs = {}
    for i, (spec, curve, audit) in enumerate(out):
        obs.update(_spectrum_obs(f"set{i}", spec, curve))
        obs[f"set{i}.n_r"] = sum(1 for e in curve if np.isfinite(e.value))
        obs[f"set{i}.audit_ok"] = bool(audit.ok)
    return obs


# ---------------------------------------------------------------------------
# udgraph_sample: the seed draws the sampler seeds
# ---------------------------------------------------------------------------

def udgraph_inputs(seed, registry):
    rng = np.random.default_rng(seed)
    return {"seeds": [int(s) for s in rng.integers(0, 2**31, size=4)]}


def udgraph_run(inp, tmp):
    s100, s40, s8, s2 = inp["seeds"]
    o = {"G100": udgraph.build(100, 10)}
    o["mis100"] = udgraph.greedy_mis(o["G100"], s100)
    o["stats100"] = udgraph.subset_stats(o["G100"], o["mis100"])
    o["G40"] = udgraph.build(40, 10)
    o["mis40"] = udgraph.greedy_mis(o["G40"], s40)
    o["blocks40"] = udgraph.block_decomposition(o["mis40"])
    o["disk"] = constructions.rasterize_report(constructions.hex_disk_packing(), 128, 8, beta=0.01)
    o["disk_blocks"] = udgraph.block_decomposition(o["disk"].grid)
    o["G8"] = udgraph.build(8, 4)
    o["glauber"] = udgraph.glauber_sample(o["G8"], GLAUBER_STEPS, s8)
    o["stats8"] = udgraph.subset_stats(o["G8"], o["glauber"])
    o["G2"] = udgraph.build(2, 5)
    o["greedy2"] = udgraph.greedy_mis(o["G2"], s2)
    o["exact2"] = udgraph.max_is_exact(o["G2"])
    return o


def udgraph_observe(o):
    return {
        "greedy100.internal_edges": o["stats100"].internal_edges,
        "greedy40.internal_edges": udgraph.internal_edge_count(o["G40"], o["mis40"]),
        "glauber8.internal_edges": o["stats8"].internal_edges,
        "greedy2.internal_edges": udgraph.internal_edge_count(o["G2"], o["greedy2"]),
        "maxis2.internal_edges": udgraph.internal_edge_count(o["G2"], o["exact2"].indep_set),
        "disk.block_structure": bool(o["disk_blocks"].has_block_structure),
        "disk.n_blocks": o["disk_blocks"].n_blocks,
        "disk.n_centers": o["disk"].embedding.n_centers,
        "maxis2.exact": bool(o["exact2"].exact),
        "maxis2.size": o["exact2"].size,
        "greedy2.size": o["greedy2"].size,
    }


WORKLOADS = {
    "certify_builtin": (certify_inputs, certify_run, certify_observe),
    "paircorr_raster": (paircorr_inputs, paircorr_run, paircorr_observe),
    "spectrum_deep": (deep_inputs, deep_run, deep_observe),
    "udgraph_sample": (udgraph_inputs, udgraph_run, udgraph_observe),
}
