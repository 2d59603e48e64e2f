"""Acceptance suite: one criterion per numbered test, one printed line each.

Criterion 3's two absolute windows are provably unattainable at the stated
(N = 128, K = 8) parameters for any rasterizer whose output is genuinely
1-avoiding on the 8-torus (at most 16 admissible block centers exist, capping
the density near pi/16, and the N = 128 cell-inclusion loss caps delta^2
below the window at every K).  Those two sub-checks are implemented exactly
as stated and marked strict-xfail; the signature sub-checks pass at the
stated parameters, and a supplementary test demonstrates every window at
compatible frozen parameters (K = 38 embedding).
"""

import itertools
import math
import os
from fractions import Fraction

import numpy as np
import pytest

from udsets import bessel
from udsets.constructions import (
    HEX_DISK_DENSITY,
    hex_disk_packing,
    optimize_croft,
    rasterize_report,
)
from udsets.registry import load_registry
from udsets.torus import (
    GridSet,
    checkerboard,
    linf_unit_pair_density,
    pair_correlation,
    pair_correlation_direct,
    random_gridset,
    spectrum,
    spectrum_auto,
)
from udsets.udgraph import (
    build,
    glauber_chain,
    greedy_mis,
    internal_edge_count,
    subset_stats,
)
from udsets.witness import (
    WitnessCoefficients,
    gamma_extract,
    kappa_constraint_audit,
    quadratic_root,
    spot_audit,
    verify_certificate_file,
    verify_witness,
    witness_eval,
    witness_lipschitz,
    write_certificate,
)


def note(criterion, message):
    print(f"\nACCEPTANCE {criterion}: {message}")


# ---------------------------------------------------------------------------
# 1. constructions
# ---------------------------------------------------------------------------

def test_c01_constructions(disk128, croft128):
    assert abs(disk128.ideal_density - math.pi / (8 * math.sqrt(3))) < 1e-12
    assert abs(disk128.raster_density - disk128.embedded_density) <= 0.01
    assert abs(croft128.raster_density - croft128.embedded_density) <= 0.01
    x_star, dens = optimize_croft()
    assert abs(x_star - 0.96553) <= 2e-3
    assert abs(dens - 0.22936) <= 5e-4
    note(
        "01",
        f"PASS: hexdisk ideal {disk128.ideal_density:.12f}; raster vs embedded "
        f"diff {abs(disk128.raster_density - disk128.embedded_density):.4f}; "
        f"croft optimum x*={x_star:.5f}, density {dens:.5f}",
    )


# ---------------------------------------------------------------------------
# 2. spectral identities on 100 random sets
# ---------------------------------------------------------------------------

def test_c02_spectral_identities():
    rng = np.random.default_rng(20260808)
    probes = (0.25, 0.5, 1.0, 1.96, 2.0)
    worst_gap = 0.0
    for case in range(100):
        N = int(rng.integers(1, 17))
        K = int(rng.integers(3, 9))
        p = float(rng.uniform(0.1, 0.9))
        A = random_gridset(N, K, p=p, seed=1000 + case)
        if A.occupied == 0:
            continue
        spec = spectrum_auto(A, r_min=0.25, tail_target=2e-4)
        kappa0 = spec.kappas[spec.ms == 0][0]
        assert abs(kappa0 - A.density**2) <= 1e-9
        total = float(spec.kappas.sum()) + spec.tail_mass + spec.omitted_mass
        assert abs(total - A.density) <= 1e-9
        for r in probes:
            ev = pair_correlation(spec, r)
            direct = pair_correlation_direct(A, r)
            tol = ev.rigor_bound + 1e-9  # the direct value is exact up to roundoff
            gap = abs(ev.value - direct)
            worst_gap = max(worst_gap, gap - ev.rigor_bound)
            assert gap <= tol, (case, N, K, r, gap, tol)
    note("02", f"PASS: 100 sets, worst |spectral-direct| beyond rigor {worst_gap:.2e}")


# ---------------------------------------------------------------------------
# 3. clumpiness signature
# ---------------------------------------------------------------------------

def test_c03_signature_at_stated_parameters(disk128, disk128_spectrum):
    spec = disk128_spectrum
    f1 = pair_correlation(spec, 1.0)
    assert abs(f1.value) <= f1.rigor_bound
    assert f1.rigor_bound <= 1.5e-3
    f2 = pair_correlation(spec, 2.0)
    s2 = f2.value / disk128.raster_density**2
    assert s2 > 1.5
    # short-range clumpiness: s(r) > 3 up to r = 0.25
    for r in (0.1, 0.25):
        assert pair_correlation(spec, r).value / disk128.raster_density**2 > 3.0
    note(
        "03a",
        f"PASS: stated (N=128, K=8): f(1) = {f1.value:.2e} within rigor "
        f"{f1.rigor_bound:.2e}; s(2) = {s2:.3f} > 1.5; s(0.25) > 3",
    )


@pytest.mark.xfail(
    strict=True,
    reason="delta^2 = 0.0514±0.002 is unattainable at K=8 (≤16 admissible "
    "block centers cap density near pi/16) and at N=128 for any K "
    "(cell-inclusion loss); the supplementary test covers the windows",
)
def test_c03_density_window_at_stated_parameters(disk128):
    d2 = disk128.raster_density**2
    note("03b", f"EXPECTED FAIL: stated delta^2 = {d2:.5f} vs window [0.0494, 0.0534]")
    assert 0.0514 - 0.002 <= d2 <= 0.0514 + 0.002


@pytest.mark.xfail(
    strict=True,
    reason="f(2) = 0.09±0.01 is unattainable at K=8: the densest certified "
    "8-periodic embedding has two distance-2 neighbors per block instead "
    "of six; the supplementary test covers the windows",
)
def test_c03_f2_window_at_stated_parameters(disk128, disk128_spectrum):
    f2 = pair_correlation(disk128_spectrum, 2.0)
    note("03c", f"EXPECTED FAIL: stated f(2) = {f2.value:.5f} vs window [0.08, 0.10]")
    assert 0.08 <= f2.value <= 0.10


def test_c03_supplementary_windows_at_compatible_parameters(disk38):
    # frozen compatible parameters: spectral trio at (N=128, K=38, beta=0.006)
    spec = spectrum(disk38.grid, 240_000)
    f1 = pair_correlation(spec, 1.0)
    f2 = pair_correlation(spec, 2.0)
    s2 = f2.value / disk38.raster_density**2
    assert abs(f1.value) <= f1.rigor_bound <= 1.5e-3
    assert 0.08 <= f2.value <= 0.10
    assert s2 > 1.5
    # density window needs finer cells: (N=320, K=38, beta=0.006)
    dense = rasterize_report(hex_disk_packing(), 320, 38, beta=0.006)
    d2 = dense.raster_density**2
    assert 0.0514 - 0.002 <= d2 <= 0.0514 + 0.002
    note(
        "03d",
        f"PASS: compatible params: f(1) = {f1.value:.2e} ≤ {f1.rigor_bound:.2e}, "
        f"f(2) = {f2.value:.4f} in [0.08, 0.10], s(2) = {s2:.3f} > 1.5, "
        f"delta^2 = {d2:.5f} in [0.0494, 0.0534]",
    )


# ---------------------------------------------------------------------------
# 4. the sup-norm oracle
# ---------------------------------------------------------------------------

def test_c04_linf_checkerboard():
    even = linf_unit_pair_density(checkerboard(4, 4))
    odd = linf_unit_pair_density(checkerboard(5, 4))
    assert abs(even - 0.5) <= 1e-9
    assert abs(odd - 0.0) <= 1e-9
    note("04", f"PASS: checkerboard sup-norm pair density: even N -> {even}, odd N -> {odd}")


# ---------------------------------------------------------------------------
# 5. graph layer
# ---------------------------------------------------------------------------

def _bruteforce_edges(N, K):
    S = N * K
    cells = list(itertools.product(range(S), range(S)))
    edges = set()

    def axis_min_max(a, b):
        lo_a, hi_a = Fraction(a, N), Fraction(a + 1, N)
        lo_b, hi_b = Fraction(b, N), Fraction(b + 1, N)
        dmin = None
        dmax = Fraction(0)
        for w in (-K, 0, K):
            sep = max(lo_b + w - hi_a, lo_a - (hi_b + w))
            cand = max(sep, Fraction(0))
            dmin = cand if dmin is None else min(dmin, cand)
        for ea in (lo_a, hi_a):
            for eb in (lo_b, hi_b):
                d = abs(ea - eb) % K
                d = min(d, K - d)
                dmax = max(dmax, d)
        return dmin, dmax

    for i in range(len(cells)):
        for j in range(i + 1, len(cells)):
            (j1, k1), (j2, k2) = cells[i], cells[j]
            minx, maxx = axis_min_max(j1, j2)
            miny, maxy = axis_min_max(k1, k2)
            if minx**2 + miny**2 <= 1 <= maxx**2 + maxy**2:
                edges.add((i, j))
    return edges


def test_c05_graph_layer(disk128, croft128, disk38):
    combos = [
        (N, K)
        for K in range(3, 13)
        for N in range(1, 13)
        if N * K <= 12
    ]
    for N, K in combos:
        G = build(N, K)
        got = set()
        for v in range(G.n_vertices):
            for u in G.neighbors(v):
                got.add((min(v, int(u)), max(v, int(u))))
        assert got == _bruteforce_edges(N, K), (N, K)
    for N in (8, 16, 32):
        G = build(N, 4)
        assert G.max_degree <= 20 * N
    for rep in (disk128, croft128, disk38):
        G = build(rep.grid.N, rep.grid.K)
        assert internal_edge_count(G, rep.grid) == 0, rep.pattern_name
    note(
        "05",
        f"PASS: exact edge sets on {len(combos)} small tori; degree <= 20N; "
        f"all rasterized constructions have zero internal edges",
    )


# ---------------------------------------------------------------------------
# 6. unconditional certification
# ---------------------------------------------------------------------------

def test_c06_certification(registry, certified, tmp_path):
    out = certified
    assert out.report.certified
    assert out.report.delta_star <= 2.0 / 7.0 + 1e-3
    cert = tmp_path / "certificate.json"
    write_certificate(cert, out.coefficients, out.report)
    report2, reproduced = verify_certificate_file(cert, registry)
    assert reproduced and report2.certified
    fine_min, fine_argmin = spot_audit(
        out.coefficients, out.report.grid_step, out.report.tail_start
    )
    assert fine_min > 0.0
    note(
        "06",
        f"PASS: certified delta_star = {out.report.delta_star:.6f} <= 2/7 + 1e-3; "
        f"file verification reproduced; 10x-finer audit min W = {fine_min:.5f} > 0",
    )


# ---------------------------------------------------------------------------
# 7. conditional published-table certification
# ---------------------------------------------------------------------------

PUBLISHED_TABLE = dict(
    v0=0.0244,
    v1=9.0158,
    v196=1.9724,
    w_m=(0.000949, 0.00394, 0.01952),
    w_t=(0.00937, 0.00199, 0.00220, 0.00164, 0.00149, 0.0479,
         0.0925, 0.00203, 0.00231, 0.00316),
    w_theta=(0.00140, 0.00202, 0.00438, 0.0898, 0.630),
)


@pytest.mark.skipif(
    "UDSETS_REFERENCE_REGISTRY" not in os.environ,
    reason="CONDITIONAL: requires a user-supplied registry transcribing the "
    "M_i, T_i, and externally defined CT graphs (set UDSETS_REFERENCE_REGISTRY)",
)
def test_c07_conditional_published_table():
    reg = load_registry(os.environ["UDSETS_REFERENCE_REGISTRY"])
    if len(reg.m_graphs) != 3 or len(reg.t_graphs) != 10 or len(reg.ct_pairs) != 5:
        pytest.skip("registry does not match the published family shape (3 M, 10 T, 5 CT)")
    c = WitnessCoefficients(registry=reg, **PUBLISHED_TABLE)
    report = verify_witness(c, grid_step=1e-5, margin=3e-3, tail_start=20.0)
    assert report.certified, report.verdict
    assert report.delta_star <= 0.229
    assert gamma_extract(c, 1e-4) > 0.0
    note("07", f"PASS: published-table witness certified, delta_star = {report.delta_star:.6f}")


# ---------------------------------------------------------------------------
# 8. witness mechanics
# ---------------------------------------------------------------------------

def test_c08_witness_mechanics(registry):
    rng = np.random.default_rng(88)
    worst_ratio = 0.0
    for trial in range(10):
        raw = rng.uniform(0.0, 1.0, size=5)
        scale = 15.0 * rng.uniform(0.2, 0.95) / (raw[0] + raw[1] + raw[2] + raw[3] + 2 * raw[4])
        c = WitnessCoefficients(
            v0=scale * raw[0], v1=scale * raw[1], v196=scale * raw[2],
            w_m=(scale * raw[3],), w_t=(scale * raw[4],), w_theta=(),
            registry=registry,
        )
        assert c.budget_sum <= 15.0
        L = witness_lipschitz(c)
        t0 = rng.uniform(0.0, 40.0, size=10_000)
        dt = rng.uniform(1e-6, 1e-2, size=10_000)
        slopes = np.abs(witness_eval(c, t0 + dt) - witness_eval(c, t0)) / dt
        assert np.max(slopes) <= L + 1e-5
        if L > 0:
            worst_ratio = max(worst_ratio, float(np.max(slopes)) / L)
    # parameterized quadratic family against the closed form
    from udsets.registry import CTPair, Registry

    reg_ct = Registry((), (CTPair("ct", 0.0, np.zeros((0, 2)), np.zeros((0, 2)), 1.0),), "x")
    for s_val in np.linspace(0.05, 3.0, 25):
        c = WitnessCoefficients(0, 0, 0, (), (), (float(s_val),), reg_ct)
        delta, _ = quadratic_root(c)
        closed = (-5 * s_val + math.sqrt(25 * s_val**2 + 4 * s_val)) / 2
        assert abs(delta - closed) <= 1e-10
    note(
        "08",
        f"PASS: empirical |dW/dt| never beat the bound (worst ratio {worst_ratio:.3f}); "
        f"quadratic roots match closed form to 1e-10",
    )


# ---------------------------------------------------------------------------
# 9. sampling
# ---------------------------------------------------------------------------

def test_c09_sampling():
    # greedy outputs are maximal independent sets
    for N, K, seed in ((4, 4, 0), (8, 4, 1), (16, 4, 2)):
        G = build(N, K)
        ind = greedy_mis(G, seed)
        ind.assert_independent()
        for v in range(G.n_vertices):
            if not ind.members[v]:
                assert np.any(ind.members[G.neighbors(v)])

    # Glauber on the 9-cell complete torus graph: uniform over 10 states
    G13 = build(1, 3)
    _, snaps = glauber_chain(G13, steps=1_000_000, seed=13, record_every=100)
    assert len(snaps) == 10_000
    states = np.array([int(np.flatnonzero(s)[0]) + 1 if s.any() else 0 for s in snaps])
    freq = np.array([(states == k).mean() for k in range(10)])
    tv = 0.5 * float(np.abs(freq - 0.1).sum())
    assert tv <= 0.02

    # observational aggregate at (N, K) = (100, 10): record, no hard threshold
    G = build(100, 10)
    dens, s196 = [], []
    for seed in range(50):
        ind = greedy_mis(G, seed)
        A = ind.to_gridset()
        assert internal_edge_count(G, A) == 0
        spec = spectrum_auto(A, r_min=1.0, tail_target=1e-3)
        dens.append(A.density)
        s196.append(pair_correlation(spec, 1.96).value / A.density**2)
    dens, s196 = np.array(dens), np.array(s196)
    assert dens.mean() < 0.15  # the soft sparsity reading
    note(
        "09",
        f"PASS: greedy maximal; Glauber TV = {tv:.4f} <= 0.02; greedy(100,10) over "
        f"50 seeds: density {dens.mean():.4f}±{dens.std():.4f}, "
        f"s(1.96) {s196.mean():.3f}±{s196.std():.3f} (recorded)",
    )


# ---------------------------------------------------------------------------
# 10. end-to-end constraint audit
# ---------------------------------------------------------------------------

def test_c10_constraint_audit(registry, disk128, disk128_spectrum, croft128):
    audited = []

    def run_audit(name, A, spec=None, r_probes=(1.0, 1.96)):
        spec = spec if spec is not None else spectrum_auto(A, r_min=1.0, tail_target=5e-4)
        out = kappa_constraint_audit(spec, registry, r_probes=r_probes, gridset=A)
        assert out.ok, (name, [i for i in out.items if not i.ok])
        audited.append(name)

    run_audit("disk raster (128, 8)", disk128.grid, disk128_spectrum)
    run_audit("croft raster (128, 8)", croft128.grid)
    G = build(16, 4)
    run_audit("greedy sample (16, 4)", greedy_mis(G, 3).to_gridset())
    from udsets.udgraph import glauber_sample

    G2 = build(8, 4)
    glauber = glauber_sample(G2, steps=120_000, seed=4).to_gridset()
    if glauber.occupied:
        run_audit("glauber sample (8, 4)", glauber)
    for seed in (0, 1):
        run_audit(f"random set {seed}", random_gridset(8, 4, p=0.4, seed=seed))
    note("10", f"PASS: constraint audit clean on: {', '.join(audited)}")
