"""Unit-distance cell graph: exactness, samplers, search, block structure."""

import itertools
import os
import subprocess
import sys
import textwrap
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from udsets.constructions import hex_disk_packing, rasterize
from scipy import ndimage
from scipy.spatial import ConvexHull

from udsets import udgraph
from udsets.errors import DomainError, SearchTimeout
from udsets.torus import GridSet, random_gridset, s
from udsets.udgraph import (
    BlockReport,
    IndepSet,
    SmallGraph,
    UDGraph,
    _offset_edge_mask,
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


def neighbors_oracle(G, v):
    """Neighbor list of v by the modulo formula over ``G.offsets``.

    A ``SmallGraph`` stores its adjacency lists explicitly, so they are their
    own reference.
    """
    if not isinstance(G, UDGraph):
        return G.neighbors(v)
    S = G.side
    j, k = divmod(int(v), S)
    return ((j + G.offsets[:, 0]) % S) * S + (k + G.offsets[:, 1]) % S


def graph_edges(G):
    out = set()
    for v in range(G.n_vertices):
        for u in neighbors_oracle(G, v):
            out.add((min(v, int(u)), max(v, int(u))))
    return out


@pytest.mark.parametrize("N,K", [(1, 3), (1, 5), (2, 3), (1, 8), (2, 4), (3, 5)])
def test_edges_match_bruteforce(N, K):
    G = build(N, K)
    assert graph_edges(G) == brute_force_edges(N, K)


@pytest.mark.parametrize(
    "N,K", [(1, 3), (2, 3), (3, 3), (4, 3), (7, 3), (2, 5), (3, 5), (8, 4), (40, 10), (100, 10)]
)
def test_offsets_match_full_plane_mask(N, K):
    # N K <= 2N + 3 (K = 3, N <= 3): the tested window covers the whole torus
    S = N * K
    want = np.argwhere(_offset_edge_mask(N, S, np.arange(S, dtype=np.int64)))
    got = build(N, K).offsets
    assert got.dtype == np.int64 and np.array_equal(got, want)


def assert_neighbors_match_oracle(G, vertices, chunk=256):
    """``G.neighbors`` equals ``neighbors_oracle`` in values, order and dtype.

    The modulo formula is tabulated as a row term per j and a column term per
    k, so whole chunks of vertices are checked at once.
    """
    S = G.side
    axis = np.arange(S, dtype=np.int64)[:, None]
    row_term = ((axis + G.offsets[:, 0]) % S) * S
    col_term = (axis + G.offsets[:, 1]) % S
    for start in range(0, len(vertices), chunk):
        vs = vertices[start : start + chunk]
        got = [G.neighbors(int(v)) for v in vs]
        assert all(a.dtype == np.int64 for a in got)
        j, k = np.divmod(vs, S)
        assert np.array_equal(np.stack(got), row_term[j] + col_term[k])


@pytest.mark.parametrize("N,K", [(1, 3), (2, 3), (2, 5), (3, 3), (7, 3), (8, 4), (40, 10)])
def test_neighbors_match_modulo_formula_everywhere(N, K):
    # (2, 3) has R = S / 2, so no vertex is interior; (1, 3) and (3, 3) have one
    G = build(N, K)
    assert_neighbors_match_oracle(G, np.arange(G.n_vertices))


def test_neighbors_match_modulo_formula_large_torus():
    G = build(100, 10)
    S, R = G.side, G.N + 1
    j, k = np.divmod(np.arange(G.n_vertices), S)
    interior = (R <= j) & (j < S - R) & (R <= k) & (k < S - R)
    assert np.count_nonzero(interior) == (S - 2 * R) ** 2
    rng = np.random.default_rng(7)
    assert_neighbors_match_oracle(G, np.nonzero(~interior)[0])
    assert_neighbors_match_oracle(G, rng.choice(np.nonzero(interior)[0], 5000, replace=False))
    for v in (0, R * S + R, G.n_vertices - 1):
        G.neighbors(v)[:] = -1  # each call returns a new array
        assert np.array_equal(G.neighbors(v), neighbors_oracle(G, v))


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


def test_independence_and_parity_checks_raise_under_python_O():
    # both checks stay when asserts are compiled away: a set holding an
    # edge, and a graph whose offset (1, 0) has no partner (5, 0), so one
    # adjacent pair of cells counts once, an odd number of ordered pairs
    script = textwrap.dedent(
        """
        import sys
        import numpy as np
        from udsets.udgraph import IndepSet, UDGraph, build, internal_edge_count
        assert sys.flags.optimize
        G = build(2, 3)
        members = np.zeros(G.n_vertices, dtype=bool)
        members[[0, G.neighbors(0)[0]]] = True
        try:
            IndepSet(G, members).assert_independent()
        except AssertionError as e:
            print("independent:", e)
        one_way = UDGraph(2, 3, np.array([[1, 0]]))
        pair = np.zeros((6, 6), dtype=bool)
        pair[0, 0] = pair[1, 0] = True
        try:
            internal_edge_count(one_way, pair)
        except AssertionError as e:
            print("parity:", e)
        """
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == ["independent", "parity"], lines
    assert "neighbour" in lines[0] and "odd" in lines[1]


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


@pytest.mark.parametrize("budget", [0.0, -1.0, float("nan")])
def test_max_is_exact_refuses_a_budget_not_positive(budget):
    # a NaN deadline is never passed: it would turn the budget off
    with pytest.raises(DomainError, match="time_budget"):
        max_is_exact(build(2, 3), time_budget=budget)


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


# ---------------------------------------------------------------------------
# oracles: the plain loops that the fast kernels must reproduce exactly
# ---------------------------------------------------------------------------

def greedy_oracle(G, seed):
    """Sequential greedy insertion over the full permutation."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(G.n_vertices)
    members = np.zeros(G.n_vertices, dtype=bool)
    blocked = np.zeros(G.n_vertices, dtype=bool)
    for v in order:
        if not blocked[v]:
            members[v] = True
            blocked[v] = True
            blocked[neighbors_oracle(G, int(v))] = True
    return members


def glauber_oracle(G, steps, seed, record_every=None):
    """Per-step Glauber that scans the neighbor list at every occupy attempt."""
    rng = np.random.default_rng(seed)
    occ = np.zeros(G.n_vertices, dtype=bool)
    snapshots = []
    verts = rng.integers(0, G.n_vertices, size=steps)
    coins = rng.random(steps)
    for i in range(steps):
        v = int(verts[i])
        if coins[i] < 0.5:
            if not occ[v] and not np.any(occ[neighbors_oracle(G, v)]):
                occ[v] = True
        else:
            occ[v] = False
        if record_every and (i + 1) % record_every == 0:
            snapshots.append(occ.copy())
    return occ, snapshots


def adjacency_bits(G):
    return [
        sum(1 << int(u) for u in set(neighbors_oracle(G, v).tolist()))
        for v in range(G.n_vertices)
    ]


def max_is_popcount_oracle(G):
    """Branch and bound pruned by the candidate popcount alone."""
    n = G.n_vertices
    adj = adjacency_bits(G)
    deg = np.array([len(neighbors_oracle(G, v)) for v in range(n)], dtype=np.int64)
    rank_bit = [1 << int(v) for v in np.argsort(-deg, kind="stable")]
    best_mask, cand = 0, (1 << n) - 1
    for v in np.argsort(deg, kind="stable"):
        b = 1 << int(v)
        if cand & b:
            best_mask |= b
            cand &= ~(adj[int(v)] | b)
    best_size = best_mask.bit_count()
    stack = [((1 << n) - 1, 0, 0)]
    while stack:
        cand, cur_mask, cur_size = stack.pop()
        if cur_size + cand.bit_count() <= best_size:
            continue
        if cand == 0:
            best_size, best_mask = cur_size, cur_mask
            continue
        b = next(b for b in rank_bit if cand & b)
        stack.append((cand & ~b, cur_mask, cur_size))
        stack.append((cand & ~(adj[b.bit_length() - 1] | b), cur_mask | b, cur_size + 1))
    members = np.array([bool(best_mask >> v & 1) for v in range(n)], dtype=bool)
    return members, best_size


def diameter_oracle(j, k, N, S):
    """Cell-union diameter from the corners of every cell."""
    if len(j) == 1:
        return np.sqrt(2.0) / N
    jc = (j - j[0] + S // 2) % S - S // 2
    kc = (k - k[0] + S // 2) % S - S // 2
    if max(jc.max() - jc.min(), kc.max() - kc.min()) + 1 >= S // 2:
        return float("inf")
    pts = np.column_stack([jc, kc]).astype(float)
    corners = np.concatenate([pts + np.array(c) for c in ((0, 0), (0, 1), (1, 0), (1, 1))])
    if len(corners) > 8:
        corners = corners[ConvexHull(corners).vertices]
    d2 = np.max(np.sum((corners[:, None, :] - corners[None, :, :]) ** 2, axis=-1))
    return float(np.sqrt(d2)) / N


def boundary_oracle(grid):
    interior = grid.copy()
    for ax, sh in ((0, 1), (0, -1), (1, 1), (1, -1)):
        interior &= np.roll(grid, sh, axis=ax)
    return grid & ~interior


def find_oracle(parent, x):
    while parent[x] != x:
        x = parent[x]
    return x


def union_oracle(parent, x, y):
    rx, ry = find_oracle(parent, x), find_oracle(parent, y)
    if rx != ry:
        parent[max(rx, ry)] = min(rx, ry)


def torus_label_oracle(grid):
    """Per cell of np.nonzero(grid), the least scipy label of its 8-connected
    component on the torus: the seams are merged one cell pair at a time."""
    S = len(grid)
    lab, n_lab = ndimage.label(grid, structure=np.ones((3, 3), dtype=int))
    parent = list(range(n_lab + 1))
    for shift in (-1, 0, 1):
        for k in np.nonzero(grid[-1, :] & np.roll(grid[0, :], -shift))[0]:
            union_oracle(parent, int(lab[-1, k]), int(lab[0, (k + shift) % S]))
        for j in np.nonzero(grid[:, -1] & np.roll(grid[:, 0], -shift))[0]:
            union_oracle(parent, int(lab[j, -1]), int(lab[(j + shift) % S, 0]))
    return np.array([find_oracle(parent, int(lab[j, k])) for j, k in zip(*np.nonzero(grid))])


def block_oracle(A):
    """Block merge over every pair of provisional components, one at a time."""
    if isinstance(A, IndepSet):
        A = A.to_gridset()
    N, S = A.N, A.side
    grid = A.cells
    if not grid.any():
        return BlockReport([], True, 0, 0.0, float("inf"))
    js, ks = np.nonzero(grid)
    roots = torus_label_oracle(grid) if N >= 3 else np.arange(len(js))
    parent = list(range(max(roots) + 1))
    comp = {}
    for idx, r in enumerate(roots):
        comp.setdefault(int(r), []).append(idx)
    labels = sorted(comp)
    bmask = boundary_oracle(grid)
    bound_of, centers, radius = {}, {}, {}
    for r in labels:
        j, k = js[comp[r]], ks[comp[r]]
        onb = bmask[j, k]
        bound_of[r] = (j[onb], k[onb]) if onb.any() else (j, k)
        jc = (j - j[0] + S // 2) % S - S // 2
        kc = (k - k[0] + S // 2) % S - S // 2
        centers[r] = (j[0] + jc.mean(), k[0] + kc.mean())
        radius[r] = float(np.hypot(jc - jc.mean(), kc - kc.mean()).max() + 1.0)
    pair_gap = {}
    for i, r1 in enumerate(labels):
        for r2 in labels[i + 1 :]:
            dj = (centers[r1][0] - centers[r2][0] + S / 2) % S - S / 2
            dk = (centers[r1][1] - centers[r2][1] + S / 2) % S - S / 2
            if np.hypot(dj, dk) > radius[r1] + radius[r2] + N + 2:
                continue
            (j1, k1), (j2, k2) = bound_of[r1], bound_of[r2]
            dj = np.abs((j1[:, None] - j2[None, :] + S // 2) % S - S // 2)
            dk = np.abs((k1[:, None] - k2[None, :] + S // 2) % S - S // 2)
            dmax2 = (dj + 1) ** 2 + (dk + 1) ** 2
            dmin2 = np.maximum(dj - 1, 0) ** 2 + np.maximum(dk - 1, 0) ** 2
            gap = (float(np.sqrt(dmax2.min())) / N, float(np.sqrt(dmin2.min())) / N)
            pair_gap[(r1, r2)] = gap
            if gap[0] < 1.0:
                union_oracle(parent, r1, r2)
    final = {}
    for r in labels:
        final.setdefault(find_oracle(parent, r), []).extend(comp[r])
    blocks = [(js[np.array(final[r])], ks[np.array(final[r])]) for r in sorted(final)]
    max_diam = max(diameter_oracle(j, k, N, S) for j, k in blocks)
    min_sep = float("inf")
    for (r1, r2), (_, dmin) in pair_gap.items():
        if find_oracle(parent, r1) != find_oracle(parent, r2):
            min_sep = min(min_sep, dmin)
    ok = max_diam < 1.0 and min_sep > 1.0
    return BlockReport(blocks, bool(ok), len(blocks), max_diam, min_sep)


def assert_reports_equal(got, want):
    assert got.n_blocks == want.n_blocks == len(got.blocks)
    for (gj, gk), (wj, wk) in zip(got.blocks, want.blocks):
        assert gj.dtype == wj.dtype and gk.dtype == wk.dtype
        assert np.array_equal(gj, wj) and np.array_equal(gk, wk)
    for name in ("has_block_structure", "max_diameter", "min_separation"):
        g, w = getattr(got, name), getattr(want, name)
        assert type(g) is type(w) and g == w, (name, g, w)


# ---------------------------------------------------------------------------
# the fast kernels against the oracles
# ---------------------------------------------------------------------------

def glauber_cases():
    return [
        (build(8, 4), 20_000, 997),
        (build(2, 4), 20_000, 61),
        (SmallGraph(9, [(v, v + 1) for v in range(8)]), 5_000, 7),
        (SmallGraph(6, []), 5_000, 5),
    ]


@pytest.mark.parametrize("seed", [0, 5, 11])
def test_glauber_matches_oracle_state_and_snapshots(seed):
    for G, steps, every in glauber_cases():
        occ, snaps = glauber_chain(G, steps, seed, record_every=every)
        want_occ, want_snaps = glauber_oracle(G, steps, seed, record_every=every)
        assert np.array_equal(occ, want_occ)
        assert len(snaps) == len(want_snaps) == steps // every
        assert all(np.array_equal(a, b) for a, b in zip(snaps, want_snaps))


@pytest.mark.parametrize("N,K,seed", [(100, 10, 17), (4, 4, 5), (4, 4, 6)])
def test_greedy_matches_sequential_oracle(N, K, seed):
    G = build(N, K)
    assert np.array_equal(greedy_mis(G, seed).members, greedy_oracle(G, seed))


def random_small_graphs(count=20, seed=2024):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 25))
        p = rng.uniform(0.05, 0.6)
        edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p]
        yield SmallGraph(n, edges)


def test_max_is_exact_matches_popcount_oracle():
    graphs = [build(2, 3), build(2, 5), SmallGraph(7, SPINDLE_EDGES)]
    for G in graphs + list(random_small_graphs()):
        res = max_is_exact(G)
        members, size = max_is_popcount_oracle(G)
        assert res.exact and res.size == res.upper_bound == size
        assert np.array_equal(res.indep_set.members, members)


def test_root_clique_cover_bounds_alpha():
    graphs = [build(2, 3), build(2, 5), build(1, 7), SmallGraph(7, SPINDLE_EDGES)]
    for G in graphs + list(random_small_graphs(count=10, seed=7)):
        n = G.n_vertices
        cover = udgraph._clique_cover((1 << n) - 1, adjacency_bits(G), n)
        assert max_is_exact(G).size <= cover <= n
    G = build(2, 5)
    assert udgraph._clique_cover((1 << 100) - 1, adjacency_bits(G), 100) < 100


def test_timeout_bound_is_the_root_clique_cover():
    G = build(4, 4)
    n = G.n_vertices
    cover = udgraph._clique_cover((1 << n) - 1, adjacency_bits(G), n)
    assert cover < n
    with pytest.raises(SearchTimeout) as exc:
        max_is_exact(G, time_budget=0.0005)
    assert exc.value.upper_bound == cover
    assert exc.value.best.size <= cover


def seam_raster():
    """The N = 64 disk raster translated so one block's centre cell sits at
    (0, 0): that block straddles both torus seams."""
    A = rasterize(hex_disk_packing(), 64, 8, beta=0.01)
    j, k = block_decomposition(A).blocks[5]
    cells = np.roll(A.cells, (-int(np.median(j)), -int(np.median(k))), axis=(0, 1))
    return GridSet(A.K, A.N, cells)


def block_cases():
    G40, G8 = build(40, 10), build(8, 4)
    yield greedy_mis(G40, 2)
    yield greedy_mis(G8, 1)
    yield greedy_mis(G8, 4)
    yield rasterize(hex_disk_packing(), 64, 8, beta=0.01)
    yield seam_raster()
    # K = 3: S = 3 N < 3 (N + 5) <= 3 (2 max radius + N + 3), so fewer than
    # 3 centre buckets per axis and every component pair is a candidate
    yield greedy_mis(build(16, 3), 7)
    for p, seed in ((0.05, 1), (0.2, 2), (0.5, 3)):
        yield random_gridset(16, 4, p=p, seed=seed)
        yield random_gridset(2, 5, p=p, seed=seed)  # N < 3: every cell alone


def spiral(S):
    """A one-cell-wide spiral from (1, 1) inwards, its arms two cells apart."""
    cells = np.zeros((S, S), dtype=bool)
    j = k = 1
    cells[j, k] = True
    lengths = [S - 3] + [n for n in range(S - 3, 0, -2) for _ in (0, 1)]
    for (dj, dk), n in zip(itertools.cycle(((0, 1), (1, 0), (0, -1), (-1, 0))), lengths):
        for _ in range(n):
            j, k = j + dj, k + dk
            cells[j, k] = True
    return cells


def seam_cases():
    """Sets whose components the torus seams join in every way."""
    S = 16
    corner = np.zeros((S, S), dtype=bool)
    # two L-shapes joined only through the corner diagonal (0, 0) ~ (S - 1, S - 1)
    corner[0, :3] = corner[:3, 0] = corner[-1, -3:] = corner[-3:, -1] = True
    corner[8, 8] = True
    yield GridSet(4, 4, corner)
    for axis in (0, 1):
        cells = random_gridset(8, 4, p=0.05, seed=5).cells.copy()
        cells[(5, slice(None)) if axis == 0 else (slice(None), 7)] = True  # a full row or column
        yield GridSet(4, 8, cells)
    for N, K in ((4, 4), (5, 3)):  # at odd S the checkerboard's colours meet at the seams
        jj, kk = np.indices((N * K, N * K))
        yield GridSet(K, N, (jj + kk) % 2 == 0)
    for p, seed in ((0.3, 1), (0.5, 2), (0.8, 3)):
        yield random_gridset(3, 1, p=p, seed=seed)  # S = 3: rows j - 1 and j + 1 are adjacent
    yield GridSet(4, 8, np.roll(spiral(32), (16, 11), axis=(0, 1)))  # across both seams


def test_block_decomposition_matches_pairwise_oracle():
    for A in itertools.chain(block_cases(), seam_cases()):
        assert_reports_equal(block_decomposition(A), block_oracle(A))


def test_run_components_match_torus_labelling():
    # the merge joins components that touch, so a labelling that split one
    # could still give the oracle's blocks; compare the labels themselves
    for A in itertools.chain(block_cases(), seam_cases()):
        grid = A.to_gridset().cells if isinstance(A, IndepSet) else A.cells
        least, size = udgraph._run_components(grid)
        got = np.unique(np.repeat(least, size), return_inverse=True)[1]
        want = np.unique(torus_label_oracle(grid), return_inverse=True)[1]
        assert np.array_equal(got, want)


def bit_reversal_path(bits):
    """Edges of a path whose i-th item is i with its bits reversed: hooking
    to the least root halves the roots per round, so it takes bits rounds."""
    ids = np.array([int(f"{i:0{bits}b}"[::-1], 2) for i in range(1 << bits)])
    return ids[:-1], ids[1:]


def test_least_members_match_union_find():
    rng = np.random.default_rng(8)
    graphs = [(1 << 10, *bit_reversal_path(10)), (5, np.zeros(0, int), np.zeros(0, int))]
    for _ in range(20):
        n = int(rng.integers(1, 60))
        m = int(rng.integers(0, 2 * n))
        graphs.append((n, rng.integers(0, n, m), rng.integers(0, n, m)))
    for n, a, b in graphs:
        parent = list(range(n))
        for x, y in zip(a.tolist(), b.tolist()):
            union_oracle(parent, x, y)
        want = [find_oracle(parent, x) for x in range(n)]
        assert udgraph._least_members(n, a, b).tolist() == want


def test_seam_raster_blocks_straddle_both_seams():
    A = seam_raster()
    S = A.side
    rep = block_decomposition(A)
    assert rep.has_block_structure and rep.n_blocks == 16
    straddle = [
        {0, S - 1} <= set(j.tolist()) and {0, S - 1} <= set(k.tolist()) for j, k in rep.blocks
    ]
    assert sum(straddle) == 1


def test_small_chunks_keep_every_output(monkeypatch):
    """Chunk and tile edges fall everywhere when a chunk holds 5 elements."""
    monkeypatch.setattr(udgraph, "_CHUNK", 5)
    G = build(4, 4)
    assert np.array_equal(greedy_mis(G, 3).members, greedy_oracle(G, 3))
    occ, snaps = glauber_chain(G, 2_000, 3, record_every=3)
    want_occ, want_snaps = glauber_oracle(G, 2_000, 3, record_every=3)
    assert np.array_equal(occ, want_occ)
    assert all(np.array_equal(a, b) for a, b in zip(snaps, want_snaps))
    # greedy_mis(build(4, 12), 1) has 4 centre buckets per axis, the others one
    for A in (
        greedy_mis(build(8, 4), 1),
        greedy_mis(build(4, 12), 1),
        rasterize(hex_disk_packing(), 16, 4, beta=0.01),
    ):
        assert_reports_equal(block_decomposition(A), block_oracle(A))


def test_component_diameter_from_boundary_cells():
    interior_seen = False
    for A in (rasterize(hex_disk_packing(), 64, 8, beta=0.01), random_gridset(16, 4, p=0.5, seed=3)):
        N, S = A.N, A.side
        onb = boundary_oracle(A.cells)
        for j, k in block_decomposition(A).blocks:
            got = udgraph._component_diameter(j, k, onb[j, k], N, S)
            want = diameter_oracle(j, k, N, S)
            assert type(got) is type(want) and got == want
            interior_seen |= not onb[j, k].all()
    assert interior_seen


def diameter_cases(rng, S):
    """Cell sets: random blobs (some across the seams), single rows and
    columns, solid and gappy, and the widest spans left finite."""
    jj, kk = np.indices((S, S))
    for _ in range(30):
        cells = np.zeros((S, S), dtype=bool)
        centre = rng.integers(0, S, 2)
        for _ in range(int(rng.integers(1, 4))):
            cj, ck = centre + rng.integers(-6, 7, 2)
            dj = (jj - cj + S // 2) % S - S // 2
            dk = (kk - ck + S // 2) % S - S // 2
            cells |= dj * dj + dk * dk <= rng.uniform(0.3, 7.0) ** 2
        yield cells
    for cols in (slice(10, 30), slice(3, 40, 3), slice(S - 5, S)):
        line = np.zeros((S, S), dtype=bool)
        line[5, cols] = True
        yield line
        yield line.T
    for span in (S // 2 - 2, S // 2 - 1):  # the first finite, the second not
        cells = np.zeros((S, S), dtype=bool)
        cells[[0, span], 3] = True
        yield cells
        yield cells.T
        cells = np.zeros((S, S), dtype=bool)
        cells[np.arange(span + 1), (np.arange(span + 1) % 5 + S - 2) % S] = True
        yield cells


def test_component_diameter_matches_corner_oracle():
    rng = np.random.default_rng(29)
    finite = infinite = 0
    for N, S in ((8, 64), (3, 33)):
        for cells in diameter_cases(rng, S):
            j, k = np.nonzero(cells)
            order = rng.permutation(len(j))  # a block lists its cells in component order
            j, k = j[order], k[order]
            got = udgraph._component_diameter(j, k, boundary_oracle(cells)[j, k], N, S)
            want = diameter_oracle(j, k, N, S)
            assert type(got) is type(want) and got == want
            finite += np.isfinite(got)
            infinite += not np.isfinite(got)
    assert finite and infinite


def test_component_diameter_tiles_its_pairs(monkeypatch):
    # the boundary of a disk of radius S / 4 - 1: its 56 hull vertices make
    # 3,136 pairs, and with 64 pairs to a tile the peak stays near what the
    # 356 cells' own arrays take (about 215 kB when the pairs are untiled)
    monkeypatch.setattr(udgraph, "_CHUNK", 64)
    N, S = 8, 256
    jj, kk = np.indices((S, S))
    ring = boundary_oracle((jj - S // 2) ** 2 + (kk - S // 2) ** 2 <= (S // 4 - 1) ** 2)
    j, k = np.nonzero(ring)
    tracemalloc.start()
    try:
        got = udgraph._component_diameter(j, k, np.ones(len(j), dtype=bool), N, S)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == diameter_oracle(j, k, N, S)
    assert peak <= 100 * (len(j) + udgraph._CHUNK), peak


def direct_gap_d2(b1, b2, S):
    """Min squared dmax and dmin over every cross cell pair, by broadcasting."""
    dj = np.abs((b1[0][:, None] - b2[0][None, :] + S // 2) % S - S // 2)
    dk = np.abs((b1[1][:, None] - b2[1][None, :] + S // 2) % S - S // 2)
    return (
        ((dj + 1) ** 2 + (dk + 1) ** 2).min(),
        (np.maximum(dj - 1, 0) ** 2 + np.maximum(dk - 1, 0) ** 2).min(),
    )


@pytest.mark.parametrize("chunk", [1, 5, 64, 1 << 16])
def test_gap_tiles_match_direct_minima(monkeypatch, chunk):
    # both kernels of the block merge: the broadcast tiles of one cell list
    # against its partners, and the flat sweep over many list pairs
    monkeypatch.setattr(udgraph, "_CHUNK", chunk)
    rng = np.random.default_rng(chunk)

    def cells(m, S):
        return rng.integers(0, S, m), rng.integers(0, S, m)

    for S in (40, 41, 7):
        terms = udgraph._axis_terms(S)
        for _ in range(20):
            b1 = cells(int(rng.integers(1, 40)), S)
            parts = [cells(int(rng.integers(1, 30)), S) for _ in range(int(rng.integers(1, 6)))]
            hi2, lo2 = udgraph._gap_d2(b1, parts, terms)
            assert [(hi, lo) for hi, lo in zip(hi2, lo2)] == [direct_gap_d2(b1, p, S) for p in parts]

            lists = [b1] + parts
            count = np.array([len(c[0]) for c in lists])
            start = np.cumsum(count) - count
            cj, ck = (np.concatenate([c[x] for c in lists]).astype(np.int32) for x in (0, 1))
            first = rng.integers(0, len(lists), 12)
            second = rng.integers(0, len(lists), 12)
            hi2, lo2 = udgraph._pair_gap_d2(cj, ck, start, count, first, second, terms)
            assert [(hi, lo) for hi, lo in zip(hi2, lo2)] == [
                direct_gap_d2(lists[f], lists[p], S) for f, p in zip(first, second)
            ]


@pytest.mark.parametrize(
    "case, former_peak_mb",
    [("disk N=128 K=8", 19.77), ("greedy N=40 K=10", 3.14)],
)
def test_block_decomposition_peak_memory(case, former_peak_mb):
    # tracemalloc peaks of the per-component merge loop that the tiled merge
    # replaced (numpy 2.4.6); a 1 MB margin still catches candidate pairs or
    # cross cell pairs generated untiled (over 6 MB on the greedy set)
    if case.startswith("disk"):
        A = rasterize(hex_disk_packing(), 128, 8, beta=0.01)
    else:
        A = greedy_mis(build(40, 10), 2)
    block_decomposition(A)  # a first call outside the measurement
    tracemalloc.start()
    try:
        block_decomposition(A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (former_peak_mb + 1.0) * 1e6, peak


@pytest.mark.parametrize("far,measured", [((0, 8), True), ((5, 7), False)])
def test_centre_filter_edge(far, measured):
    # two lone cells at N = 4 (radius 1 each): the pair is measured iff the
    # centre distance is at most 1 + 1 + N + 2 = 8 cells
    cells = np.zeros((16, 16), dtype=bool)
    cells[0, 0] = cells[far] = True
    A = GridSet(4, 4, cells)
    rep = block_decomposition(A)
    assert_reports_equal(rep, block_oracle(A))
    assert rep.n_blocks == 2 and np.isfinite(rep.min_separation) == measured
