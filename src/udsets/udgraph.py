"""The discretized unit-distance graph on torus grid cells.

Vertices are the (NK)^2 closed cells of the 1/N grid on the K-torus; two
*distinct* cells are adjacent iff some point of one lies at Euclidean distance
exactly 1 from some point of the other, i.e. dmin <= 1 <= dmax for the cell
pair.  Working in half-cell integer units (2N per unit length) makes the test
exact: per axis, a wrapped index offset w has min distance max(2w-2, 0) and
max distance min(2w+2, 2NK)/2 in those units, so the edge test compares
integer squared distances against (2N)^2 with no floating point at the d = 1
ties.  Adjacency is translation invariant, so the graph is stored as the set
of neighbor offsets rather than per-vertex lists.

Cells are closed, so touching ranges count: at N = 1 a cell has dmax >= 1 on
its own; such self-pairs are deliberately not edges (the graph stays loopless)
and the independence/1-avoidance correspondence is exact for N >= 2.

Samplers (random greedy, hard-core Glauber at fugacity 1) and the exact
branch-and-bound solver accept any object with ``n_vertices`` and
``neighbors(v)``; ``SmallGraph`` wraps explicit adjacency lists for test
geometry such as abstract unit-distance graphs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import DomainError
from .torus import DirectCorrelator, GridSet

__all__ = [
    "UDGraph",
    "SmallGraph",
    "IndepSet",
    "SubsetStats",
    "MaxISResult",
    "BlockReport",
    "build",
    "subset_stats",
    "greedy_mis",
    "glauber_sample",
    "glauber_chain",
    "max_is_exact",
    "block_decomposition",
    "C1_EDGE_TO_S1",
]

# Certified crude constant bridging internal edges to s(1):
# each edge's cells meet the radius-1 circle in an angular window of measure
# <= 4 sqrt(2)/N and overlap area <= 1/N^2, so f(1) <= c1 e /(2 pi N^3 K^2)
# with plenty of slack at c1 = 4 pi sqrt(2).
C1_EDGE_TO_S1 = 4.0 * np.pi * np.sqrt(2.0)

MAX_EXACT_VERTICES = 2500


class SmallGraph:
    """Explicit adjacency lists; the test hook for abstract graphs."""

    def __init__(self, n: int, edges):
        self.n_vertices = n
        adj = [[] for _ in range(n)]
        seen = set()
        for a, b in edges:
            if a == b or not (0 <= a < n and 0 <= b < n):
                raise DomainError(f"bad edge ({a}, {b})")
            if (min(a, b), max(a, b)) in seen:
                continue
            seen.add((min(a, b), max(a, b)))
            adj[a].append(b)
            adj[b].append(a)
        self._adj = [np.array(sorted(x), dtype=np.int64) for x in adj]
        self.edge_count = len(seen)

    def neighbors(self, v: int) -> np.ndarray:
        return self._adj[v]


@dataclass(frozen=True)
class UDGraph:
    N: int
    K: int
    offsets: np.ndarray  # (deg, 2) signed cell offsets, lexicographically sorted

    @property
    def side(self) -> int:
        return self.N * self.K

    @property
    def n_vertices(self) -> int:
        return self.side**2

    @property
    def max_degree(self) -> int:
        return len(self.offsets)

    @property
    def edge_count(self) -> int:
        return self.n_vertices * len(self.offsets) // 2

    def neighbors(self, v: int) -> np.ndarray:
        S = self.side
        j, k = divmod(v, S)
        return ((j + self.offsets[:, 0]) % S) * S + (k + self.offsets[:, 1]) % S


def _offset_edge_mask(N: int, S: int):
    """Boolean (S, S) mask over cell offsets: True where the pair is an edge."""
    d = np.arange(S, dtype=np.int64)
    w = np.minimum(d, S - d)
    mlo = np.maximum(2 * w - 2, 0)
    mhi = np.minimum(2 * w + 2, S)
    lo2 = mlo * mlo
    hi2 = mhi * mhi
    four_n2 = 4 * N * N
    cond = (lo2[:, None] + lo2[None, :] <= four_n2) & (
        four_n2 <= hi2[:, None] + hi2[None, :]
    )
    cond[0, 0] = False  # distinct cells only
    return cond


def build(N: int, K: int) -> UDGraph:
    """The unit-distance cell graph on the K-torus at scale 1/N."""
    if K < 3:
        raise DomainError("K must be >= 3 (unit circle must not self-overlap)")
    if N * K < 3:
        raise DomainError("N*K must be >= 3")
    S = N * K
    cond = _offset_edge_mask(N, S)
    dj, dk = np.nonzero(cond)
    offsets = np.column_stack([dj, dk]).astype(np.int64)
    return UDGraph(N, K, offsets)


@dataclass(frozen=True)
class IndepSet:
    graph: UDGraph | SmallGraph
    members: np.ndarray  # bool over vertex ids

    @property
    def size(self) -> int:
        return int(np.count_nonzero(self.members))

    @property
    def density(self) -> float:
        return self.size / self.graph.n_vertices

    def assert_independent(self):
        for v in np.nonzero(self.members)[0]:
            assert not np.any(self.members[self.graph.neighbors(int(v))]), v

    def to_gridset(self) -> GridSet:
        g = self.graph
        if not isinstance(g, UDGraph):
            raise DomainError("only UDGraph independent sets map to GridSets")
        return GridSet(g.K, g.N, self.members.reshape(g.side, g.side).copy())


@dataclass(frozen=True)
class SubsetStats:
    density: float
    internal_edges: int
    s1_upper: float


def _as_grid_bool(G: UDGraph, F) -> np.ndarray:
    S = G.side
    if isinstance(F, IndepSet):
        F = F.members
    if isinstance(F, GridSet):
        arr = F.cells
        if F.N != G.N or F.K != G.K:
            raise DomainError("GridSet scale disagrees with graph")
        return arr
    arr = np.asarray(F, dtype=bool)
    if arr.size != S * S:
        raise DomainError("subset length must equal the vertex count")
    return arr.reshape(S, S)


def internal_edge_count(G: UDGraph, F) -> int:
    """Edges of G inside F: half the ordered pair counts at G's offsets."""
    counts = DirectCorrelator(GridSet(G.K, G.N, _as_grid_bool(G, F))).counts
    total = int(counts[G.offsets[:, 0], G.offsets[:, 1]].sum())
    assert total % 2 == 0
    return total // 2


def subset_stats(G: UDGraph, F) -> SubsetStats:
    """Density, induced edge count, and the certified s(1) upper bound."""
    grid = _as_grid_bool(G, F)
    dens = float(np.count_nonzero(grid)) / G.n_vertices
    edges = internal_edge_count(G, grid)
    if dens == 0.0:
        s1 = 0.0
    else:
        s1 = C1_EDGE_TO_S1 * edges / (G.N**3 * G.K**2) / dens**2
    return SubsetStats(dens, edges, s1)


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def greedy_mis(G, seed: int) -> IndepSet:
    """Maximal independent set by uniformly random sequential insertion."""
    n = G.n_vertices
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    members = np.zeros(n, dtype=bool)
    blocked = np.zeros(n, dtype=bool)
    for v in order:
        if not blocked[v]:
            members[v] = True
            blocked[v] = True
            blocked[G.neighbors(int(v))] = True
    return IndepSet(G, members)


def glauber_chain(G, steps: int, seed: int, record_every: int | None = None):
    """Single-site hard-core dynamics at fugacity 1.

    Each step picks a uniform vertex and resamples it: occupy with probability
    1/2 when no neighbor is occupied, else vacate.  The uniform distribution
    over independent sets is stationary and reversible for this kernel.
    Returns (final members, list of thinned snapshots).
    """
    if steps < 1:
        raise DomainError("steps must be >= 1")
    n = G.n_vertices
    rng = np.random.default_rng(seed)
    occ = np.zeros(n, dtype=bool)
    snapshots = []
    verts = rng.integers(0, n, size=steps)
    coins = rng.random(steps)
    for i in range(steps):
        v = int(verts[i])
        if coins[i] < 0.5:
            if not occ[v] and not np.any(occ[G.neighbors(v)]):
                occ[v] = True
        else:
            occ[v] = False
        if record_every and (i + 1) % record_every == 0:
            snapshots.append(occ.copy())
    return occ, snapshots


def glauber_sample(G, steps: int, seed: int) -> IndepSet:
    occ, _ = glauber_chain(G, steps, seed)
    return IndepSet(G, occ)


# ---------------------------------------------------------------------------
# exact maximum independent set
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MaxISResult:
    indep_set: IndepSet
    size: int
    upper_bound: int
    exact: bool


def max_is_exact(G, time_budget: float = 60.0, upper_bound_hint: int | None = None) -> MaxISResult:
    """Exhaustive branch-and-bound MIS with bitset candidate sets.

    Exact when the search completes inside the budget (the certificate is the
    exhaustion itself: upper bound == incumbent).  On budget exhaustion raises
    SearchTimeout carrying the incumbent and the best available bound.
    """
    from .errors import SearchTimeout

    n = G.n_vertices
    if n > MAX_EXACT_VERTICES:
        raise DomainError(f"exact search capped at {MAX_EXACT_VERTICES} vertices")
    adj = [0] * n
    deg = np.zeros(n, dtype=np.int64)
    for v in range(n):
        nb = G.neighbors(v)
        deg[v] = len(nb)
        m = 0
        for u in nb:
            m |= 1 << int(u)
        adj[v] = m

    # branch on high-degree vertices first
    order = np.argsort(-deg, kind="stable")
    rank_bit = [1 << int(v) for v in order]

    # greedy incumbent (min-degree first)
    inc_mask = 0
    cand = (1 << n) - 1
    for v in np.argsort(deg, kind="stable"):
        b = 1 << int(v)
        if cand & b:
            inc_mask |= b
            cand &= ~(adj[int(v)] | b)
    best_mask = inc_mask
    best_size = inc_mask.bit_count()

    deadline = time.monotonic() + time_budget
    full = (1 << n) - 1
    hint = upper_bound_hint if upper_bound_hint is not None else n

    stack = [(full, 0, 0)]
    nodes = 0
    while stack:
        cand, cur_mask, cur_size = stack.pop()
        nodes += 1
        if nodes % 4096 == 0 and time.monotonic() > deadline:
            members = np.zeros(n, dtype=bool)
            for v in range(n):
                members[v] = bool(best_mask >> v & 1)
            raise SearchTimeout(
                "branch-and-bound budget exhausted",
                best=IndepSet(G, members),
                upper_bound=min(hint, n),
            )
        if cur_size + cand.bit_count() <= best_size:
            continue
        if cand == 0:
            best_size = cur_size
            best_mask = cur_mask
            continue
        for b in rank_bit:
            if cand & b:
                break
        stack.append((cand & ~b, cur_mask, cur_size))  # exclude
        v = b.bit_length() - 1
        stack.append((cand & ~(adj[v] | b), cur_mask | b, cur_size + 1))  # include

    members = np.zeros(n, dtype=bool)
    for v in range(n):
        members[v] = bool(best_mask >> v & 1)
    return MaxISResult(IndepSet(G, members), best_size, best_size, True)


# ---------------------------------------------------------------------------
# block structure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlockReport:
    blocks: list  # list of (cells_j, cells_k) index arrays
    has_block_structure: bool
    n_blocks: int
    max_diameter: float
    min_separation: float


def _wrapped_delta(a, b, S):
    return (a[:, None] - b[None, :] + S // 2) % S - S // 2


def _pair_dmax_min_and_dmin_min(j1, k1, j2, k2, N, S):
    """Min over cross cell pairs of dmax and of dmin (exact, length units)."""
    dj = np.abs(_wrapped_delta(j1, j2, S))
    dk = np.abs(_wrapped_delta(k1, k2, S))
    dmax2 = (dj + 1) ** 2 + (dk + 1) ** 2
    dmin2 = np.maximum(dj - 1, 0) ** 2 + np.maximum(dk - 1, 0) ** 2
    return (
        float(np.sqrt(dmax2.min())) / N,
        float(np.sqrt(dmin2.min())) / N,
    )


def _component_diameter(j, k, N, S):
    """Exact diameter of a cell union (length units), wrap-recentered."""
    if len(j) == 1:
        return np.sqrt(2.0) / N
    jc = (j - j[0] + S // 2) % S - S // 2
    kc = (k - k[0] + S // 2) % S - S // 2
    span = max(jc.max() - jc.min(), kc.max() - kc.min())
    if span + 1 >= S // 2:
        return float("inf")  # wraps around; certainly not diameter < 1
    # corner extremes: the diameter over a union of cells is attained at
    # corners, i.e. over (dj+1, dk+1) combinations of index differences
    from scipy.spatial import ConvexHull

    pts = np.column_stack([jc, kc]).astype(float)
    corners = np.concatenate(
        [pts + np.array(c) for c in ((0, 0), (0, 1), (1, 0), (1, 1))]
    )
    if len(corners) > 8:
        hull = ConvexHull(corners)
        corners = corners[hull.vertices]
    d2 = np.max(
        np.sum((corners[:, None, :] - corners[None, :, :]) ** 2, axis=-1)
    )
    return float(np.sqrt(d2)) / N


def _boundary_cells(grid):
    interior = grid.copy()
    for ax, sh in ((0, 1), (0, -1), (1, 1), (1, -1)):
        interior &= np.roll(grid, sh, axis=ax)
    return grid & ~interior


def block_decomposition(A) -> BlockReport:
    """Blocks = components of the pairwise max-distance < 1 relation.

    Valid block structure additionally demands every block have diameter < 1
    and distinct blocks be separated by min distance > 1.
    """
    if isinstance(A, IndepSet):
        A = A.to_gridset()
    if not isinstance(A, GridSet):
        raise DomainError("expected a GridSet or IndepSet")
    N, S = A.N, A.side
    grid = A.cells
    if not grid.any():
        return BlockReport([], True, 0, 0.0, float("inf"))

    # union-find over component labels; each branch below sizes ``parent``
    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    if N >= 3:
        # 8-adjacent cells always satisfy dmax < 1; label then torus-merge
        lab, n_lab = ndimage.label(grid, structure=np.ones((3, 3), dtype=int))
        lab = lab.copy()
        parent = list(range(n_lab + 1))
        for shift in (-1, 0, 1):
            row_pairs = grid[-1, :] & np.roll(grid[0, :], -shift)
            for k in np.nonzero(row_pairs)[0]:
                union(int(lab[-1, k]), int(lab[0, (k + shift) % S]))
            col_pairs = grid[:, -1] & np.roll(grid[:, 0], -shift)
            for j in np.nonzero(col_pairs)[0]:
                union(int(lab[j, -1]), int(lab[(j + shift) % S, 0]))
        js, ks = np.nonzero(grid)
        roots = np.array([find(int(lab[j, k])) for j, k in zip(js, ks)])
    else:
        js, ks = np.nonzero(grid)
        roots = np.arange(len(js))
        parent = list(range(len(js) + 1))

    comp = {}
    for idx, r in enumerate(roots):
        comp.setdefault(int(r), []).append(idx)
    labels = sorted(comp)
    cells_of = {r: (js[comp[r]], ks[comp[r]]) for r in labels}

    # merge provisional components whose closest cell pair has dmax < 1,
    # using boundary cells to keep the pair products small
    bmask = _boundary_cells(grid)
    bound_of = {}
    for r in labels:
        j, k = cells_of[r]
        onb = bmask[j, k]
        bound_of[r] = (j[onb], k[onb]) if onb.any() else (j, k)
    centers = {}
    radius = {}
    for r in labels:
        j, k = cells_of[r]
        jc = (j - j[0] + S // 2) % S - S // 2
        kc = (k - k[0] + S // 2) % S - S // 2
        cj, ck = j[0] + jc.mean(), k[0] + kc.mean()
        centers[r] = (cj, ck)
        radius[r] = float(np.hypot(jc - jc.mean(), kc - kc.mean()).max() + 1.0)

    pair_gap = {}
    for i, r1 in enumerate(labels):
        for r2 in labels[i + 1 :]:
            dj = (centers[r1][0] - centers[r2][0] + S / 2) % S - S / 2
            dk = (centers[r1][1] - centers[r2][1] + S / 2) % S - S / 2
            if np.hypot(dj, dk) > radius[r1] + radius[r2] + N + 2:
                continue
            j1, k1 = bound_of[r1]
            j2, k2 = bound_of[r2]
            dmax_min, dmin_min = _pair_dmax_min_and_dmin_min(j1, k1, j2, k2, N, S)
            pair_gap[(r1, r2)] = (dmax_min, dmin_min)
            if dmax_min < 1.0:
                union(r1, r2)

    final = {}
    for r in labels:
        final.setdefault(find(r), []).extend(comp[r])
    blocks = []
    for r in sorted(final):
        idx = np.array(final[r])
        blocks.append((js[idx], ks[idx]))

    max_diam = max(_component_diameter(j, k, N, S) for j, k in blocks)
    merged_root = {r: find(r) for r in labels}
    min_sep = float("inf")
    for (r1, r2), (dmax_min, dmin_min) in pair_gap.items():
        if merged_root[r1] != merged_root[r2]:
            min_sep = min(min_sep, dmin_min)
    ok = max_diam < 1.0 and min_sep > 1.0
    return BlockReport(blocks, bool(ok), len(blocks), max_diam, min_sep)
