"""Constraint-graph registry: validation, profiles, the (G) inequality."""

import json
import math
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest

from udsets import bessel
from udsets.bessel import J0_ABS_ERROR, j0_combination
from udsets.cli import main
from udsets.errors import AlphaMismatchError, GeometryError, SchemaError
from udsets.registry import (
    CTPair,
    builtin_registry,
    constraint_rhs_check,
    ct_constraint_check,
    ct_profile_terms,
    load_registry,
    profile_terms,
)
from udsets.torus import GridSet, _pair_profile, pair_correlation, random_gridset, spectrum
from udsets.udgraph import SmallGraph, max_is_exact


def profile_value(profile, t):
    """const + sum_i c_i J0(r_i t) for a (const, radii, coeffs) profile."""
    const, radii, coeffs = profile
    return j0_combination(radii, coeffs, t, const)


def alpha_oracle(n, edges) -> int:
    """Independence number by plain branch and bound over vertex bitsets:
    take or drop the lowest candidate, pruned only by the candidate count."""
    adj = [0] * n
    for a, b in edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    best = 0

    def rec(cand, size):
        nonlocal best
        if size + cand.bit_count() <= best:
            return
        if cand == 0:
            best = max(best, size)
            return
        v = (cand & -cand).bit_length() - 1
        b = 1 << v
        rec(cand & ~(adj[v] | b), size + 1)
        rec(cand & ~b, size)

    rec((1 << n) - 1, 0)
    return best


@pytest.fixture(scope="module")
def reg():
    return builtin_registry()


def test_builtin_spindle_shape(reg):
    assert len(reg.graphs) == 2
    m = reg.m_graphs[0]
    t = reg.t_graphs[0]
    assert m.n_vertices == 7 and m.n_edges == 11 and m.alpha == 2
    assert t.n_vertices == 7 and t.n_edges == 11 and t.alpha == 2
    assert np.allclose(m.vertices[0], (0.0, 0.0))
    assert max(float(profile_terms(g)[1].max()) for g in reg.graphs) <= 2.0


def test_load_empty_file(tmp_path):
    p = tmp_path / "empty.json"
    p.write_text("")
    reg2 = load_registry(p)
    assert reg2.graphs == () and reg2.ct_pairs == ()


def test_load_rejects_short_edge(tmp_path):
    doc = {
        "schema_version": 1,
        "graphs": [
            {
                "name": "bad",
                "kind": "subgraph",
                "vertices": [["0", "0"], ["0.9", "0"]],
                "edges": [[0, 1]],
                "alpha": 1,
            }
        ],
    }
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(GeometryError):
        load_registry(p)


def test_load_rejects_alpha_mismatch(tmp_path):
    doc = {
        "schema_version": 1,
        "graphs": [
            {
                "name": "tri",
                "kind": "subgraph",
                "vertices": [["0", "0"], ["1", "0"], ["0.5", "0.86602540378443865"]],
                "edges": [[0, 1], [1, 2], [0, 2]],
                "alpha": 2,
            }
        ],
    }
    p = tmp_path / "tri.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(AlphaMismatchError):
        load_registry(p)


def test_exact_alpha_matches_the_oracle_on_random_graphs():
    rng = np.random.default_rng(20261018)
    for _ in range(200):
        n = int(rng.integers(1, 21))
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        if pairs:
            keep = rng.random(len(pairs)) < rng.uniform(0.05, 0.6)
            edges = [pairs[i] for i in np.flatnonzero(keep)]
        else:
            edges = []
        # repeat some edges, some reversed: the registry admits duplicates
        edges += [(b, a) for a, b in edges[: int(rng.integers(0, 4))]]
        assert max_is_exact(SmallGraph(n, edges)).size == alpha_oracle(n, edges), (n, edges)


def _grid_graph_doc(alpha):
    """A 4 x 5 unit square grid: 20 vertices (the alpha check limit), alpha 10."""
    verts = [[str(x), str(y)] for y in range(4) for x in range(5)]
    edges = [[i, i + 1] for i in range(20) if i % 5 != 4]
    edges += [[i, i + 5] for i in range(15)]
    graph = {"name": "grid", "kind": "subgraph", "vertices": verts,
             "edges": edges, "alpha": alpha}
    return {"schema_version": 1, "graphs": [graph]}


def test_alpha_is_checked_at_twenty_vertices(tmp_path):
    p = tmp_path / "grid.json"
    p.write_text(json.dumps(_grid_graph_doc(10)))
    g = load_registry(p).graphs[0]
    assert g.n_vertices == 20 and g.n_edges == 31 and g.alpha == 10
    edges = [tuple(e) for e in _grid_graph_doc(10)["graphs"][0]["edges"]]
    assert alpha_oracle(20, edges) == 10
    for wrong in (9, 11):
        p.write_text(json.dumps(_grid_graph_doc(wrong)))
        with pytest.raises(AlphaMismatchError):
            load_registry(p)


def _spindle_with(**fields):
    """The builtin registry document, its first graph's fields replaced."""
    doc = json.loads(resources.files("udsets.data").joinpath("moser_spindle.json").read_text())
    doc["graphs"][0].update(fields)
    return doc


_CT = {"theta": "0.5", "g1": [["0", "0"], ["1", "0"]], "g2": [["0", "0"]], "c_ct": "1"}
_SPINDLE_EDGES = _spindle_with()["graphs"][0]["edges"]

MALFORMED_REGISTRIES = {
    "graphs [5]": {"schema_version": 1, "graphs": [5]},
    "graphs 5": {"schema_version": 1, "graphs": 5},
    "ct_pairs [5]": {"schema_version": 1, "ct_pairs": [5]},
    "vertex 5": _spindle_with(vertices=[5]),
    "vertices 5": _spindle_with(vertices=5),
    "alpha x": _spindle_with(alpha="x"),
    "alpha 2.7": _spindle_with(alpha=2.7),  # was truncated to 2, and certified
    "alpha 2.0": _spindle_with(alpha=2.0),
    "alpha true": _spindle_with(alpha=True),
    "edge [a, b]": _spindle_with(edges=[["a", "b"]] + _SPINDLE_EDGES[1:]),
    "edge [0]": _spindle_with(edges=[[0]] + _SPINDLE_EDGES[1:]),
    "edge [0.7, 1]": _spindle_with(edges=[[0.7, 1]] + _SPINDLE_EDGES[1:]),  # was (0, 1)
    "edges 5": _spindle_with(edges=5),
    "theta x": {"schema_version": 1, "ct_pairs": [dict(_CT, theta="x")]},
    "c_ct x": {"schema_version": 1, "ct_pairs": [dict(_CT, c_ct="x")]},
}


@pytest.mark.parametrize("name", MALFORMED_REGISTRIES)
def test_malformed_registry_is_a_schema_error(tmp_path, name):
    p = tmp_path / "reg.json"
    p.write_text(json.dumps(MALFORMED_REGISTRIES[name]))
    with pytest.raises(SchemaError):
        load_registry(p)
    out = tmp_path / "out"
    assert main(["certify", "--registry", str(p), "--delta-plus", "0.3", "--out", str(out)]) == 4
    assert not out.exists()


def test_the_unbroken_registries_load(tmp_path):
    p = tmp_path / "reg.json"
    for doc in (_spindle_with(), {"schema_version": 1, "ct_pairs": [_CT]}):
        p.write_text(json.dumps(doc))
        load_registry(p)


def test_load_requires_schema_version(tmp_path):
    p = tmp_path / "nover.json"
    p.write_text('{"graphs": []}')
    with pytest.raises(SchemaError):
        load_registry(p)


def test_m_profile_values(reg):
    m = reg.m_graphs[0]
    assert profile_value(profile_terms(m), 0.0) == pytest.approx(7.0, abs=1e-12)
    # self-consistency: term evaluation equals a direct loop over vertices
    from udsets.bessel import j0

    t = 1.0
    direct = sum(j0(t * float(np.hypot(*v))).value for v in m.vertices)
    assert profile_value(profile_terms(m), t) == pytest.approx(direct, abs=1e-12)


def test_single_vertex_at_origin_profile():
    from udsets.registry import ConstraintGraph

    g = ConstraintGraph("pt", "vertex_sum", np.array([[0.0, 0.0]]), (), 1)
    const, radii, coeffs = profile_terms(g)
    assert const == 1.0 and len(radii) == len(coeffs) == 0
    for t in (0.0, 1.0, 17.3):
        assert profile_value(profile_terms(g), t) == 1.0


def test_t_profile_values(reg):
    t_graph = reg.t_graphs[0]
    assert profile_value(profile_terms(t_graph), 0.0) == pytest.approx(7.0 - 11.0, abs=1e-12)
    const, radii, coeffs = profile_terms(t_graph)
    # the hub vertex at the origin is the exact constant J0(0) = 1
    assert const == 1.0 and np.all(radii > 0.0)
    # all 11 unit edges collapse onto the radius-1 term together with the
    # four unit-radius vertices: net coefficient 4 - 11 = -7
    idx = np.argmin(np.abs(radii - 1.0))
    assert coeffs[idx] == pytest.approx(-7.0)


def test_equilateral_triangle_t_profile_is_zero_at_zero(tmp_path):
    doc = {
        "schema_version": 1,
        "graphs": [
            {
                "name": "tri",
                "kind": "subgraph",
                "vertices": [["0", "0"], ["1", "0"], ["0.5", "0.86602540378443865"]],
                "edges": [[0, 1], [1, 2], [0, 2]],
                "alpha": 1,
            }
        ],
    }
    p = tmp_path / "tri.json"
    p.write_text(json.dumps(doc))
    g = load_registry(p).graphs[0]
    assert profile_value(profile_terms(g), 0.0) == pytest.approx(0.0, abs=1e-12)


def test_ct_profile_counts_and_scaling():
    g1 = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    g2 = np.array([[0.5, 0.5], [2.0, 0.0]])
    p = CTPair("ct", 0.0, g1, g2, 1.0)
    assert profile_value(ct_profile_terms(p), 0.0) == pytest.approx(3.0 - 2.0, abs=1e-12)
    # doubling coordinates and halving t leaves every J0 argument unchanged
    p2 = CTPair("ct2", 0.0, 2 * g1, 2 * g2, 1.0)
    for t in (0.7, 2.3):
        assert profile_value(ct_profile_terms(p2), t / 2) == pytest.approx(
            profile_value(ct_profile_terms(p), t), abs=1e-12
        )
    empty = CTPair("none", 0.0, np.zeros((0, 2)), np.zeros((0, 2)), 0.0)
    assert profile_value(ct_profile_terms(empty), 1.0) == 0.0
    const, radii, coeffs = ct_profile_terms(empty)
    assert const == 0.0 and len(radii) == len(coeffs) == 0


def test_profiles_lipschitz_in_t(reg):
    # |profile(t) - profile(t')| <= 0.6 sum(|c_i| r_i) |t - t'|
    g = reg.t_graphs[0]
    const, radii, coeffs = profile_terms(g)
    L = 0.6 * float(np.sum(np.abs(coeffs) * radii))
    ts = np.linspace(0.0, 30.0, 4001)
    vals = j0_combination(radii, coeffs, ts, const)
    slopes = np.abs(np.diff(vals)) / np.diff(ts)
    assert np.max(slopes) <= L + 1e-6


def test_constraint_check_full_set_and_empty(reg):
    m = reg.m_graphs[0]
    t = reg.t_graphs[0]
    full = spectrum(GridSet.full(2, 4), 64)
    res = constraint_rhs_check(full, t)
    # lhs = |V| - |E| = -4 at the zero shell; rhs = alpha * 1 = 2
    assert res.lhs == pytest.approx(-4.0, abs=1e-6)
    assert res.ok
    res_m = constraint_rhs_check(full, m)
    # vertex sum 7 needs the edge-mass correction: rhs = 2 + 11 * f(1) = 13
    assert res_m.lhs == pytest.approx(7.0, abs=1e-6)
    assert res_m.rhs == pytest.approx(13.0, abs=1e-6)
    assert res_m.ok
    empty_spec = spectrum(GridSet.empty(2, 4), 64)
    res0 = constraint_rhs_check(empty_spec, t)
    assert res0.ok and res0.lhs == pytest.approx(0.0, abs=1e-12)


def test_constraint_check_random_sets_theorem_audit(reg):
    # both constraint forms are theorems for arbitrary sets (the vertex-sum
    # form via the edge-mass correction); any violation means a bug
    for seed in range(20):
        A = random_gridset(8, 4, p=0.35, seed=seed)
        S = spectrum(A, 4000)
        for g in reg.graphs:
            res = constraint_rhs_check(S, g)
            assert res.ok, (seed, res)


def test_profile_checks_charge_bessel_error_per_unit_coefficient(reg):
    # with no tail mass, the Bessel term of the rigor and the rounding of the
    # dot product with kappa are the parts that scale with the profile; the
    # Bessel term must be J0_ABS_ERROR * sum|c| * sum kappa over the J0 terms,
    # not over the merged radii, and the exact constant of a vertex at the
    # origin carries none
    S = replace(spectrum(random_gridset(8, 4, p=0.4, seed=7), 4000), tail_mass=0.0)
    kappa_sum = float(S.kappas.sum())
    nu = len(S.ms) * 2.0**-53

    def dot(const, abs_sum):  # gamma_n sum kappa (|const| + sum|c| (1 + J0 error))
        return nu / (1.0 - nu) * kappa_sum * (abs(const) + abs_sum * (1.0 + J0_ABS_ERROR))

    f1 = pair_correlation(S, 1.0)
    t = reg.t_graphs[0]
    const, radii, coeffs = profile_terms(t)
    assert const == 1.0 and float(np.abs(coeffs).sum()) == 9.0 and len(radii) == 2
    bessel_part = constraint_rhs_check(S, t).rigor - 1e-10 - dot(1.0, 9.0)
    assert bessel_part == pytest.approx(J0_ABS_ERROR * 9.0 * kappa_sum, rel=1e-6, abs=0.0)
    m = reg.m_graphs[0]
    const, radii, coeffs = profile_terms(m)
    assert const == 1.0 and float(np.abs(coeffs).sum()) == 6.0
    bessel_part = (constraint_rhs_check(S, m).rigor - m.n_edges * f1.rigor_bound
                   - 1e-10 - dot(1.0, 6.0))
    assert bessel_part == pytest.approx(J0_ABS_ERROR * 6.0 * kappa_sum, rel=1e-6, abs=0.0)
    h = math.sqrt(3.0) / 2.0
    p = CTPair("tri", 0.0, np.array([[0.0, 0.0], [1.0, 0.0], [0.5, h]]),
               np.array([[0.0, 0.0]]), 0.0)
    const, radii, coeffs = ct_profile_terms(p)
    assert const == -1.0 and len(radii) == 1 and float(np.abs(coeffs).sum()) == 3.0
    bessel_part = ct_constraint_check(S, p).rigor - 1e-10 - dot(-1.0, 3.0)
    assert bessel_part == pytest.approx(J0_ABS_ERROR * 3.0 * kappa_sum, rel=1e-6, abs=0.0)


def origin_ct():
    """A CT pair whose G2 has a vertex at the origin: its profile has the
    constant -1 besides its J0 terms."""
    h = math.sqrt(3.0) / 2.0
    return CTPair("tri", 0.0, np.array([[0.0, 0.0], [1.0, 0.0], [0.5, h]]),
                  np.array([[0.0, 0.0], [0.5, 0.5]]), 0.0)


def test_profile_rigor_covers_a_deeper_cutoff(reg):
    # the rows charge the tail mass against |const| plus each J0 term's
    # envelope at the cutoff frequency; that must still cover how far the
    # pairing moves between a cutoff and a far deeper one
    profiles = [g._profile for g in reg.graphs] + [origin_ct()._profile]
    assert all(const != 0.0 for const, _, _ in profiles)
    for seed in range(6):
        A = random_gridset(8, 4, p=0.35, seed=seed)
        deep = spectrum(A, 400_000)
        for cutoff in (50, 400, 4000):
            S = spectrum(A, cutoff)
            for profile in profiles:
                lhs, rigor = _pair_profile(S, *profile)
                deep_lhs, deep_rigor = _pair_profile(deep, *profile)
                assert abs(lhs - deep_lhs) <= rigor + deep_rigor, (seed, cutoff, profile)


def test_profile_rows_evaluate_no_j0_at_zero(reg, monkeypatch):
    # a vertex at the origin adds the exact constant J0(0) = 1; no row may
    # push a vector of zeros through the Bessel series to get it
    real = bessel.j0_values

    def guarded(x):
        x = np.asarray(x)
        assert x.size == 0 or np.any(x != 0.0), "j0_values on an all-zero array"
        return real(x)

    monkeypatch.setattr(bessel, "j0_values", guarded)
    S = spectrum(random_gridset(8, 4, p=0.35, seed=3), 4000)
    for g in reg.graphs:
        constraint_rhs_check(S, g)
    ct_constraint_check(S, origin_ct())
