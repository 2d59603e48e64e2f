"""Unit-distance cell graph: exactness, samplers, search, block structure."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from udsets.constructions import hex_disk_packing, rasterize
from udsets.errors import DomainError, SearchTimeout
from udsets.torus import GridSet, random_gridset, s
from udsets.udgraph import (
    SmallGraph,
    block_decomposition,
    build,
    glauber_chain,
    glauber_sample,
    greedy_mis,
    internal_edge_count,
    max_is_exact,
    subset_stats,
)

# Moser spindle as an abstract graph: two unit rhombi sharing vertex 0,
# tips 3 and 6 at distance 1.
SPINDLE_EDGES = [
    (0, 1), (0, 2), (1, 3), (2, 3), (1, 2),
    (0, 4), (0, 5), (4, 6), (5, 6), (4, 5),
    (3, 6),
]


def brute_force_edges(N, K):
    """Independent oracle: exact-rational interval test per cell pair."""
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


def graph_edges(G):
    S = G.side
    out = set()
    for v in range(G.n_vertices):
        for u in G.neighbors(v):
            out.add((min(v, int(u)), max(v, int(u))))
    return out


@pytest.mark.parametrize("N,K", [(1, 3), (1, 5), (2, 3), (1, 8), (2, 4)])
def test_edges_match_bruteforce(N, K):
    G = build(N, K)
    assert graph_edges(G) == brute_force_edges(N, K)


def test_g13_is_complete():
    G = build(1, 3)
    assert G.n_vertices == 9
    assert G.max_degree == 8
    assert G.edge_count == 36


def test_no_self_loops_and_degree_bound():
    for N in (2, 8, 16):
        G = build(N, 4)
        assert not np.any((G.offsets[:, 0] == 0) & (G.offsets[:, 1] == 0))
        assert G.max_degree <= 20 * N


def test_subset_stats_trivials():
    G = build(4, 4)
    full = np.ones(G.n_vertices, dtype=bool)
    st = subset_stats(G, full)
    assert st.internal_edges == G.edge_count
    assert st.density == 1.0
    empty = np.zeros(G.n_vertices, dtype=bool)
    assert subset_stats(G, empty).internal_edges == 0


def roll_edge_count(G, F):
    """Independent oracle: one cyclic shift of the subset per neighbor offset."""
    grid = np.asarray(F, dtype=bool).reshape(G.side, G.side)
    total = 0
    for dj, dk in G.offsets:
        total += int(np.count_nonzero(grid & np.roll(grid, (dj, dk), (0, 1))))
    assert total % 2 == 0
    return total // 2


@pytest.mark.parametrize("N,K", [(8, 4), (2, 5), (40, 10)])
def test_internal_edge_count_matches_roll_oracle(N, K):
    G = build(N, K)
    rng = np.random.default_rng(N * 100 + K)
    for p in (0.05, 0.5, 0.9):
        F = rng.random(G.n_vertices) < p
        assert internal_edge_count(G, F) == roll_edge_count(G, F)
    mis = greedy_mis(G, seed=3)
    assert internal_edge_count(G, mis) == roll_edge_count(G, mis.members) == 0


def test_raster_has_zero_internal_edges_small():
    A = rasterize(hex_disk_packing(), 32, 8, beta=0.01)
    G = build(32, 8)
    st = subset_stats(G, A)
    assert st.internal_edges == 0
    assert st.s1_upper == 0.0


def test_s1_upper_dominates_spectral_s1():
    A = random_gridset(16, 4, p=0.5, seed=42)
    G = build(16, 4)
    st = subset_stats(G, A)
    s1 = s(A, 1.0, cutoff_m=40_000)
    assert s1 <= st.s1_upper


def test_greedy_maximal_and_deterministic():
    G = build(4, 4)
    a = greedy_mis(G, seed=5)
    b = greedy_mis(G, seed=5)
    assert np.array_equal(a.members, b.members)
    a.assert_independent()
    # maximality: every vertex outside has a neighbor inside
    for v in range(G.n_vertices):
        if not a.members[v]:
            assert np.any(a.members[G.neighbors(v)])
    c = greedy_mis(G, seed=6)
    assert not np.array_equal(a.members, c.members)


def test_greedy_on_edgeless_graph_takes_everything():
    G = SmallGraph(12, [])
    out = greedy_mis(G, seed=1)
    assert out.size == 12


def test_glauber_edgeless_occupancy_half():
    G = SmallGraph(6, [])
    _, snaps = glauber_chain(G, steps=120_000, seed=3, record_every=12)
    occ = np.mean([s.mean() for s in snaps[200:]])
    assert abs(occ - 0.5) < 3.0 * 0.5 / np.sqrt(len(snaps) - 200)  # 3 sigma, iid bound


def test_glauber_single_edge_uniform_over_three_states():
    G = SmallGraph(2, [(0, 1)])
    _, snaps = glauber_chain(G, steps=90_000, seed=11, record_every=3)
    snaps = snaps[1000:]
    codes = np.array([int(s[0]) + 2 * int(s[1]) for s in snaps])
    freq = np.array([(codes == c).mean() for c in (0, 1, 2)])
    assert np.all(np.abs(freq - 1 / 3) < 0.02)
    assert not np.any(codes == 3)


def test_glauber_reversibility_on_path():
    G = SmallGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    _, snaps = glauber_chain(G, steps=60_000, seed=7, record_every=1)
    codes = [int(np.packbits(s, bitorder="little")[0]) for s in snaps]
    flows = {}
    for a, b in zip(codes, codes[1:]):
        if a != b:
            flows[(a, b)] = flows.get((a, b), 0) + 1
    for (a, b), cnt in flows.items():
        rev = flows.get((b, a), 0)
        sigma = np.sqrt(cnt + rev)
        assert abs(cnt - rev) <= 4.0 * sigma, (a, b, cnt, rev)


def test_glauber_samples_are_independent_sets():
    G = build(2, 4)
    out = glauber_sample(G, steps=10_000, seed=9)
    out.assert_independent()


def test_max_is_exact_edgeless_and_spindle():
    G = SmallGraph(9, [])
    res = max_is_exact(G)
    assert res.size == 9 and res.exact and res.upper_bound == 9

    spindle = SmallGraph(7, SPINDLE_EDGES)
    res = max_is_exact(spindle)
    assert res.size == 2 and res.upper_bound == 2
    # brute force over all 2^7 subsets agrees
    best = 0
    for mask in range(128):
        verts = [v for v in range(7) if mask >> v & 1]
        if all((a not in verts or b not in verts) for a, b in SPINDLE_EDGES):
            best = max(best, len(verts))
    assert best == 2


def test_max_is_exact_small_torus_graph():
    G = build(2, 3)
    res = max_is_exact(G, time_budget=120.0)
    assert res.exact
    out = res.indep_set
    out.assert_independent()
    # exact optimum dominates any 1-avoiding raster at the same resolution
    assert res.size >= 1


def test_max_is_timeout_carries_incumbent():
    G = build(4, 4)
    with pytest.raises(SearchTimeout) as exc:
        max_is_exact(G, time_budget=0.0005)
    assert exc.value.best is not None
    exc.value.best.assert_independent()
    assert exc.value.upper_bound >= exc.value.best.size


def test_max_is_vertex_cap():
    with pytest.raises(DomainError):
        max_is_exact(build(6, 10))


def test_block_decomposition_disk_raster():
    A = rasterize(hex_disk_packing(), 64, 8, beta=0.01)
    rep = block_decomposition(A)
    assert rep.has_block_structure
    assert rep.n_blocks == 16
    assert rep.max_diameter < 1.0
    assert rep.min_separation > 1.0


def test_block_decomposition_full_set_false():
    rep = block_decomposition(GridSet.full(8, 4))
    assert not rep.has_block_structure
    assert rep.n_blocks == 1


def test_block_decomposition_two_cells_straddling_one():
    # two cells whose distance interval straddles 1: same dmax-component no,
    # but separation fails -> not block structure
    S = 8 * 2  # N=8, K=2
    cells = np.zeros((S, S), dtype=bool)
    cells[0, 0] = True
    cells[8, 0] = True  # exactly 1 apart at nearest corners
    rep = block_decomposition(GridSet(2, 8, cells))
    assert not rep.has_block_structure
    assert rep.n_blocks == 2
    assert rep.min_separation <= 1.0


def test_block_decomposition_singletons_at_coarse_scale():
    cells = np.zeros((3, 3), dtype=bool)
    cells[0, 0] = True
    rep = block_decomposition(GridSet(3, 1, cells))
    # a 1x1 cell alone has diameter sqrt(2) >= 1: not a valid block
    assert not rep.has_block_structure
