"""The discretized unit-distance graph on torus grid cells.

Vertices are the (NK)^2 closed cells of the 1/N grid on the K-torus; two
*distinct* cells are adjacent iff some point of one lies at Euclidean distance
exactly 1 from some point of the other, i.e. dmin <= 1 <= dmax for the cell
pair.  Working in half-cell integer units (2N per unit length) makes the test
exact: per axis, a wrapped index offset w has min distance max(2w-2, 0) and
max distance min(2w+2, 2NK)/2 in those units, so the edge test compares
integer squared distances against (2N)^2 with no floating point at the d = 1
ties.  Adjacency is translation invariant, so the graph is stored as the set
of neighbor offsets rather than per-vertex lists.  An edge needs w <= N + 1
on both axes, so ``build`` tests only those offsets, in O(N^2) memory.

``UDGraph.neighbors`` divides nothing: each graph builds its neighbor tables
once.  An interior vertex, at least R = min(N + 1, S // 2) cells from every
border, gets v plus one flat offset array; any other vertex adds a row entry
and a column entry read from two wrap tables.  Both give the modulo
formula's values in ``offsets`` order, as a new int64 array.

Cells are closed, so touching ranges count: at N = 1 a cell has dmax >= 1 on
its own; such self-pairs are deliberately not edges (the graph stays loopless)
and the independence/1-avoidance correspondence is exact for N >= 2.

Samplers (random greedy, hard-core Glauber at fugacity 1) and the exact
branch-and-bound solver accept any object with ``n_vertices`` and
``neighbors(v)``; ``SmallGraph`` wraps explicit adjacency lists for test
geometry such as abstract unit-distance graphs.  Glauber keeps a count of
occupied neighbors per vertex, so only a change of state reads a neighbor
list; both samplers read their state through ``ndarray.data`` memoryviews,
which give Python bools and ints rather than numpy scalars, and take an
interior vertex's neighbors as flat + v inline.  The exact solver prunes by
the candidate popcount and then by a greedy clique cover of the candidates,
which bounds their independence number from above.  All three give exactly
the results of the plain loops.

The block decomposition runs on numpy alone.  Its provisional components
are those of the rows' runs of cells, joined by hook and jump; it merges
them on whole arrays: segment reductions give their centres, radii and
boundary cells, a bucket grid their candidate pairs, and flat or broadcast
sweeps in bounded tiles the exact gaps of those pairs.  A block's diameter
comes from a monotone chain over its corner rows' ends, in exact integers.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, SearchTimeout
from .torus import GridSet, pair_counts

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

# elements per bulk step: at most one chunk of a sampler's walk, or one tile
# of candidate pairs or of cross cell pairs in the block merge, whose
# temporaries then stay near 1.5 MB
_CHUNK = 1 << 15


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
    """The cell graph on the S x S torus grid, S = N K, vertex v = j S + k.

    ``offsets`` holds each neighbor offset (dj, dk) in [0, S)^2.  The neighbor
    tables are built once from them: each axis offset is signed into [-R, R],
    R the largest wrapped per-axis offset (min(N + 1, S // 2) for ``build``),
    and ``flat`` = sj S + sk keeps ``offsets`` order.  A vertex with
    R <= j, k < S - R is interior, no offset wraps there, and its neighbors
    are v + flat.  Any other vertex reads two wrap tables over x in
    [-R, S + R), (x mod S) S for rows and x mod S for columns, at
    sj + R in the row table's view from entry j on and at sk + R in the
    column table's view from entry k on, so the index arrays are not
    shifted per call.  Both branches give exactly the values of
    ``((j + dj) % S) S + (k + dk) % S`` in ``offsets`` order, as a new int64
    array the caller may modify.
    """

    N: int
    K: int
    offsets: np.ndarray  # (deg, 2) cyclic cell offsets in [0, S), lexicographically sorted
    _tables: tuple = field(init=False, repr=False, compare=False)  # _neighbor_tables(...)

    def __post_init__(self):
        object.__setattr__(self, "_tables", _neighbor_tables(self.side, self.offsets))

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
        S, lo, hi, flat, rj, rk, rows, cols = self._tables
        j, k = divmod(v, S)
        if lo <= j < hi and lo <= k < hi:
            return flat + v
        return rows[j:].take(rj) + cols[k:].take(rk)


def _neighbor_tables(S: int, offsets: np.ndarray) -> tuple:
    """(S, R, S - R, flat, sj + R, sk + R, row wrap, column wrap) for UDGraph."""
    R = int(np.minimum(offsets, S - offsets).max(initial=0))
    signed = np.where(offsets <= R, offsets, offsets - S)
    cols = np.arange(-R, S + R, dtype=np.int64) % S
    return (
        S, R, S - R,
        signed[:, 0] * S + signed[:, 1],
        signed[:, 0] + R,
        signed[:, 1] + R,
        cols * S,
        cols,
    )


def _offset_edge_mask(N: int, S: int, d: np.ndarray):
    """Boolean mask over the offset pairs d x d: True where the pair is an edge.

    ``d`` is a sorted array of per-axis offsets in [0, S) starting at 0.
    """
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
    """The unit-distance cell graph on the K-torus at scale 1/N.

    An edge needs (2w - 2)^2 <= (2N)^2 on each axis, so only the per-axis
    offsets with wrapped offset w <= N + 1 are tested: memory is O(N^2),
    not O(S^2).
    """
    if K < 3:
        raise DomainError("K must be >= 3 (unit circle must not self-overlap)")
    if N * K < 3:
        raise DomainError("N*K must be >= 3")
    S = N * K
    d = np.arange(S, dtype=np.int64)
    d = d[np.minimum(d, S - d) <= N + 1]
    dj, dk = np.nonzero(_offset_edge_mask(N, S, d))
    return UDGraph(N, K, np.column_stack([d[dj], d[dk]]))


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
    counts = pair_counts(GridSet(G.K, G.N, _as_grid_bool(G, F)))
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

def _interior_path(G):
    """(S, lo, hi, flat): a vertex v = j S + k with lo <= j, k < hi has the
    neighbors flat + v, so a sampler's loop need not call ``neighbors``.
    For a graph without neighbor tables no vertex qualifies (lo > hi)."""
    if isinstance(G, UDGraph):
        return G._tables[:4]
    return 1, 1, 0, None


def greedy_mis(G, seed: int) -> IndepSet:
    """Maximal independent set by uniformly random sequential insertion.

    ``order`` is walked in chunks: within a chunk only the vertices still
    unblocked at its start are visited, and each is checked again at its
    turn, so this is the plain sequential walk with most of the blocked
    vertices skipped in bulk.  A visit that finds its vertex already blocked
    is stale.  A walk makes about c of them in chunks of c (0.8-0.95 c on
    G(40, 10) and G(100, 10)), and a chunk's bulk step costs about 50 such
    visits (1.2 us against 27 ns on a 2-vCPU Xeon VM), so c = 7 sqrt(n)
    minimises 50 n / c + c.
    """
    n = G.n_vertices
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    members = np.zeros(n, dtype=bool)
    blocked = np.zeros(n, dtype=bool)
    is_member, is_blocked = members.data, blocked.data
    S, lo, hi, flat = _interior_path(G)
    neighbors = G.neighbors
    step = max(min(_CHUNK, 7 * math.isqrt(n)), 1)
    for start in range(0, n, step):
        chunk = order[start : start + step]
        for v in chunk[~blocked[chunk]].tolist():
            if not is_blocked[v]:
                is_member[v] = True
                is_blocked[v] = True
                j, k = divmod(v, S)
                blocked[flat + v if lo <= j < hi and lo <= k < hi else neighbors(v)] = True
    return IndepSet(G, members)


def glauber_chain(G, steps: int, seed: int, record_every: int | None = None):
    """Single-site hard-core dynamics at fugacity 1.

    Each step picks a uniform vertex and resamples it: occupy with probability
    1/2 when no neighbor is occupied, else vacate.  The uniform distribution
    over independent sets is stationary and reversible for this kernel.
    ``busy[v]`` counts the occupied neighbors of v, so a step reads two
    entries and fetches a neighbor list only when v changes state (neighbor
    lists are duplicate-free, so the fancy-indexed update is exact).
    Snapshots are taken between runs of record_every steps, so the steps
    themselves run in one plain loop.
    Returns (final members, list of thinned snapshots).
    """
    if steps < 1:
        raise DomainError("steps must be >= 1")
    n = G.n_vertices
    rng = np.random.default_rng(seed)
    occ = np.zeros(n, dtype=bool)
    busy = np.zeros(n, dtype=np.int64)
    is_occ, n_busy = occ.data, busy.data
    S, lo, hi, flat = _interior_path(G)
    neighbors = G.neighbors
    snapshots = []
    verts = rng.integers(0, n, size=steps)
    coins = rng.random(steps)

    def run(vs, ups):
        for v, up in zip(vs, ups):
            if up:
                if not is_occ[v] and not n_busy[v]:
                    is_occ[v] = True
                    j, k = divmod(v, S)
                    busy[flat + v if lo <= j < hi and lo <= k < hi else neighbors(v)] += 1
            elif is_occ[v]:
                is_occ[v] = False
                j, k = divmod(v, S)
                busy[flat + v if lo <= j < hi and lo <= k < hi else neighbors(v)] -= 1

    every = abs(record_every or 0)  # snapshots after the steps i with i % record_every == 0
    for start in range(0, steps, _CHUNK):
        stop = min(start + _CHUNK, steps)
        vs = verts[start:stop].tolist()
        ups = (coins[start:stop] < 0.5).tolist()
        done = 0
        for i in range(start + every - start % every, stop + 1, every) if every else ():
            run(vs[done : i - start], ups[done : i - start])
            snapshots.append(occ.copy())
            done = i - start
        run(vs[done:], ups[done:])
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


def _clique_cover(cand: int, adj: list, limit: int) -> int:
    """Size of a greedy clique partition of the bitset ``cand``, or limit + 1.

    Each clique grows from the lowest remaining vertex by repeatedly adding
    the lowest vertex adjacent to all members.  An independent set meets each
    clique at most once, so the count bounds alpha(cand) from above; the scan
    stops as soon as the count exceeds ``limit``.
    """
    count = 0
    while cand:
        count += 1
        if count > limit:
            return count
        b = cand & -cand
        common = adj[b.bit_length() - 1] & cand
        cand &= ~b
        while common:
            b = common & -common
            cand &= ~b
            common &= adj[b.bit_length() - 1]
    return count


def _mask_members(mask: int, n: int) -> np.ndarray:
    """The bool vector of the vertex bitset ``mask``."""
    raw = np.frombuffer(mask.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=n, bitorder="little").astype(bool)


def max_is_exact(G, time_budget: float = 60.0) -> MaxISResult:
    """Exhaustive branch-and-bound MIS with bitset candidate sets.

    A node is pruned when its size plus the popcount of its candidates, or
    plus a greedy clique cover of them, cannot beat the incumbent.  Pruning
    drops only subtrees with no strictly better leaf and the branching order
    is fixed, so the cover bound changes the node count, never the result.
    Exact when the search completes inside the budget (the certificate is the
    exhaustion itself: upper bound == incumbent).  On budget exhaustion raises
    SearchTimeout carrying the incumbent and the root bound: the greedy
    clique cover of all vertices (at most n).
    """
    if not time_budget > 0.0:
        raise DomainError(f"time_budget {time_budget!r}: need > 0")
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

    root_bound = _clique_cover((1 << n) - 1, adj, n)
    deadline = time.monotonic() + time_budget

    stack = [((1 << n) - 1, 0, 0)]
    nodes = 0
    while stack:
        cand, cur_mask, cur_size = stack.pop()
        nodes += 1
        if nodes % 4096 == 0 and time.monotonic() > deadline:
            raise SearchTimeout(
                "branch-and-bound budget exhausted",
                best=IndepSet(G, _mask_members(best_mask, n)),
                upper_bound=root_bound,
            )
        room = best_size - cur_size
        if cand.bit_count() <= room or _clique_cover(cand, adj, room) <= room:
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

    return MaxISResult(IndepSet(G, _mask_members(best_mask, n)), best_size, best_size, True)


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


def _axis_terms(S):
    """Per-axis squared dmax and dmin terms, indexed by an index difference + S.

    Cell units: entry x, for the wrapped offset w = |(x - S + S // 2) % S -
    S // 2|, holds (w + 1)^2 and max(w - 1, 0)^2, so cells with index
    differences (dj, dk) have dmax^2 = hi[dj + S] + hi[dk + S] and dmin^2 =
    lo[dj + S] + lo[dk + S], exact integers.  int32 holds every such sum
    while 2 (S // 2 + 1)^2 < 2^31.
    """
    w = np.abs((np.arange(-S, S) + S // 2) % S - S // 2)
    dtype = np.int32 if 2 * (S // 2 + 1) ** 2 < 2**31 else np.int64
    return ((w + 1) ** 2).astype(dtype), (np.maximum(w - 1, 0) ** 2).astype(dtype)


def _gap_d2(b1, parts, terms):
    """Min squared dmax and dmin over cross cell pairs of b1 and each of parts.

    ``terms`` is ``_axis_terms(S)``.  The partners' cells are laid end to end
    and swept in broadcast tiles of at most ``_CHUNK`` cross pairs (a tall b1
    is split over its rows); per-partner minima are then segment minima of
    the per-cell ones.
    """
    hi_t, lo_t = terms
    S = len(hi_t) // 2
    j1, k1 = b1[0] + S, b1[1] + S
    j2 = np.concatenate([p[0] for p in parts])
    k2 = np.concatenate([p[1] for p in parts])
    rows = min(len(j1), _CHUNK)
    cols = max(_CHUNK // rows, 1)
    hi2 = np.empty(len(j2), dtype=hi_t.dtype)
    lo2 = np.empty(len(j2), dtype=lo_t.dtype)
    for c in range(0, len(j2), cols):
        sl = slice(c, c + cols)
        for r in range(0, len(j1), rows):
            dj = j1[r : r + rows, None] - j2[None, sl]
            dk = k1[r : r + rows, None] - k2[None, sl]
            hi = (hi_t[dj] + hi_t[dk]).min(axis=0)
            lo = (lo_t[dj] + lo_t[dk]).min(axis=0)
            if r:
                np.minimum(hi2[sl], hi, out=hi2[sl])
                np.minimum(lo2[sl], lo, out=lo2[sl])
            else:
                hi2[sl], lo2[sl] = hi, lo
    starts = np.cumsum([0] + [len(p[0]) for p in parts[:-1]])
    return np.minimum.reduceat(hi2, starts), np.minimum.reduceat(lo2, starts)


def _ranges(lo, size):
    """The index ranges lo[r] : lo[r] + size[r], laid end to end."""
    ends = np.cumsum(size)
    if not len(ends) or not ends[-1]:
        return np.zeros(0, dtype=np.intp)
    return np.arange(ends[-1]) + np.repeat(lo - (ends - size), size)


def _tiles(sizes):
    """Runs of consecutive items, each of total size at most ``_CHUNK`` unless
    one item alone is larger: run t holds items cuts[t] : cuts[t + 1]."""
    ends = np.cumsum(sizes)
    cuts = [0]
    while cuts[-1] < len(ends):
        base = int(ends[cuts[-1] - 1]) if cuts[-1] else 0
        cut = int(np.searchsorted(ends, base + _CHUNK, "right"))
        cuts.append(max(cut, cuts[-1] + 1))
    return cuts


def _pair_gap_d2(cj, ck, start, count, first, second, terms):
    """Min squared dmax and dmin over the cross cell pairs of each list pair.

    List c holds the cells (cj, ck)[start[c] : start[c] + count[c]], and pair
    q joins lists first[q] and second[q]; ``terms`` is ``_axis_terms(S)``.
    The cross pairs of all list pairs are laid end to end, a row per cell of
    the first list, and swept in one flat pass per tile of whole list pairs
    of at most ``_CHUNK`` cross pairs (a larger list pair is a tile alone).
    """
    hi_t, lo_t = terms
    S = len(hi_t) // 2
    hi2 = np.empty(len(first), dtype=hi_t.dtype)
    lo2 = np.empty(len(first), dtype=lo_t.dtype)
    m, n = count[first], count[second]
    size = m * n
    cuts = _tiles(size)
    for a, b in zip(cuts[:-1], cuts[1:]):
        rows = _ranges(start[first[a:b]], m[a:b])  # the first-list cell of each row
        width = np.repeat(n[a:b], m[a:b])
        other = _ranges(np.repeat(start[second[a:b]], m[a:b]), width)
        dj = np.repeat(cj[rows] + S, width) - cj[other]
        dk = np.repeat(ck[rows] + S, width) - ck[other]
        seg = np.cumsum(size[a:b]) - size[a:b]
        hi2[a:b] = np.minimum.reduceat(hi_t[dj] + hi_t[dk], seg)
        lo2[a:b] = np.minimum.reduceat(lo_t[dj] + lo_t[dk], seg)
    return hi2, lo2


def _pair_gaps(bj, bk, bstart, bcount, first, second, S):
    """Min squared dmax and dmin over the boundary cells of each component pair.

    A pair whose cross cell pairs fit a ``_CHUNK`` tile joins the flat sweep
    of ``_pair_gap_d2``; the others go to ``_gap_d2``'s broadcast tiles,
    one call per first component.
    """
    terms = _axis_terms(S)
    hi2 = np.empty(len(first), dtype=terms[0].dtype)
    lo2 = np.empty(len(first), dtype=terms[1].dtype)
    small = bcount[first] * bcount[second] <= _CHUNK
    hi2[small], lo2[small] = _pair_gap_d2(
        bj, bk, bstart, bcount, first[small], second[small], terms
    )
    big = np.flatnonzero(~small)
    big = big[np.argsort(first[big], kind="stable")]

    def cells(c):
        return bj[bstart[c] : bstart[c] + bcount[c]], bk[bstart[c] : bstart[c] + bcount[c]]

    for q in np.split(big, np.flatnonzero(np.diff(first[big])) + 1) if len(big) else ():
        hi2[q], lo2[q] = _gap_d2(cells(first[q[0]]), [cells(p) for p in second[q]], terms)
    return hi2, lo2


def _near_pairs(cj, ck, radius, N, S):
    """Component pairs (i, p), i < p, that pass the centre filter.

    A pair passes when its wrapped centre distance is at most radius[i] +
    radius[p] + N + 2 cells, so at most 2 max(radius) + N + 2.  Candidates
    come from nb x nb torus buckets of side S / nb >= 2 max(radius) + N + 3
    (the extra cell absorbs rounding), which puts every passing pair in one
    bucket or two 8-adjacent ones; each bucket meets itself and a forward
    half of its neighbors, so no pair is generated twice.  With fewer than
    3 buckets per axis one bucket holds every component.  Candidates are
    generated and filtered in tiles of about ``_CHUNK``.
    """
    L = len(cj)
    nb = int(S // (2.0 * radius.max() + N + 3))
    if nb < 3:
        nb = 1
    bj = np.minimum((cj % S) * nb // S, nb - 1).astype(np.intp)
    bk = np.minimum((ck % S) * nb // S, nb - 1).astype(np.intp)
    bucket = bj * nb + bk
    members = np.argsort(bucket, kind="stable").astype(np.int32)
    size = np.bincount(bucket, minlength=nb * nb)
    bstart = np.cumsum(size) - size
    pos = np.empty(L, dtype=np.intp)
    pos[members] = np.arange(L)
    # one index range of ``members`` per (component, stencil slot)
    lo, cnt = [pos + 1], [bstart[bucket] + size[bucket] - pos - 1]
    if nb >= 3:
        for oj, ok in ((0, 1), (1, -1), (1, 0), (1, 1)):
            nbr = (bj + oj) % nb * nb + (bk + ok) % nb
            lo.append(bstart[nbr])
            cnt.append(size[nbr])
    lo, cnt = np.stack(lo, axis=1).ravel(), np.stack(cnt, axis=1).ravel()
    owner = np.repeat(np.arange(L, dtype=np.int32), len(lo) // L)
    empty = np.zeros(0, dtype=np.int32)
    firsts, seconds = [empty], [empty]
    cuts = _tiles(cnt)
    for a, b in zip(cuts[:-1], cuts[1:]):
        x = np.repeat(owner[a:b], cnt[a:b])
        y = members[_ranges(lo[a:b], cnt[a:b])]
        i, p = np.minimum(x, y), np.maximum(x, y)
        dj = (cj[i] - cj[p] + S / 2) % S - S / 2
        dk = (ck[i] - ck[p] + S / 2) % S - S / 2
        near = np.hypot(dj, dk) <= radius[i] + radius[p] + N + 2
        firsts.append(i[near])
        seconds.append(p[near])
    return np.concatenate(firsts), np.concatenate(seconds)


def _component_shapes(js, ks, inverse, counts, onb, S):
    """Centre, radius and boundary cells of each provisional component.

    With the cells grouped by component, each in increasing cell order, every
    value is a segment reduction: the offsets wrap-recentred on the
    component's first cell, their mean (the centre, relative to that cell),
    the radius max |offset - mean| + 1, and the boundary cells, or all cells
    of a component that has none.  Returns the centres' j and k, the radii
    and the boundary cells laid end to end as (j, k, start, count).
    """
    order = np.argsort(inverse, kind="stable")
    starts = np.cumsum(counts) - counts
    j, k = js[order], ks[order]
    jc = (j - np.repeat(j[starts], counts) + S // 2) % S - S // 2
    kc = (k - np.repeat(k[starts], counts) + S // 2) % S - S // 2
    mean_j = np.add.reduceat(jc, starts) / counts
    mean_k = np.add.reduceat(kc, starts) / counts
    spread = np.hypot(jc - np.repeat(mean_j, counts), kc - np.repeat(mean_k, counts))
    radius = np.maximum.reduceat(spread, starts) + 1.0
    on = onb[order]
    on |= np.repeat(~np.logical_or.reduceat(on, starts), counts)
    bcount = np.add.reduceat(on, starts, dtype=np.intp)
    return (
        j[starts] + mean_j,
        k[starts] + mean_k,
        radius,
        j[on].astype(np.int32),
        k[on].astype(np.int32),
        np.cumsum(bcount) - bcount,
        bcount,
    )


def _hull_chain(ts, ks, turn):
    """Vertices of the lower (turn 1) or upper (turn -1) hull chain of the
    points (ts[i], ks[i]), ts increasing: Andrew's monotone chain."""
    chain = []
    for t, k in zip(ts.tolist(), ks.tolist()):
        while len(chain) > 1:
            (t0, k0), (t1, k1) = chain[-2], chain[-1]
            if turn * ((t1 - t0) * (k - k0) - (k1 - k0) * (t - t0)) > 0:
                break
            chain.pop()
        chain.append((t, k))
    return chain


def _component_diameter(j, k, boundary, N, S):
    """Exact diameter of a cell union (length units), wrap-recentered.

    The diameter is attained at two vertices of the hull of the cells'
    corners, and only the two end corners of a corner row can be one.  Those
    come from the first and last cell of a cell row, which ``boundary``
    flags: their row neighbor lies outside the union.  Corner row t meets
    cell rows t - 1 and t; the monotone chain keeps the hull vertices among
    the row ends, and the largest squared distance between them is taken in
    tiles of at most ``_CHUNK`` pairs, in exact integers.  Only a union
    covering the whole torus lacks boundary cells, and the span test returns
    before the hull for it.
    """
    if len(j) == 1:
        return np.sqrt(2.0) / N
    jc = (j - j[0] + S // 2) % S - S // 2
    kc = (k - k[0] + S // 2) % S - S // 2
    span = max(jc.max() - jc.min(), kc.max() - kc.min())
    if span + 1 >= S // 2:
        return float("inf")  # wraps around; certainly not diameter < 1
    rows = jc.max() - jc.min() + 1
    lo, hi = np.full(rows + 1, S), np.full(rows + 1, -S)
    row = jc[boundary] - jc.min()
    np.minimum.at(lo[1:], row, kc[boundary])
    np.maximum.at(hi[1:], row, kc[boundary] + 1)
    lo[:-1] = np.minimum(lo[:-1], lo[1:])
    hi[:-1] = np.maximum(hi[:-1], hi[1:])
    ts = np.flatnonzero(lo < hi)
    hull = np.array(_hull_chain(ts, lo[ts], 1) + _hull_chain(ts, hi[ts], -1))
    d2, h = 0, len(hull)
    for c in range(0, h * h, _CHUNK):
        a, b = np.divmod(np.arange(c, min(c + _CHUNK, h * h)), h)
        diff = hull[a] - hull[b]
        d2 = max(d2, int((diff * diff).sum(axis=1).max()))
    return float(np.sqrt(d2)) / N


def _least_members(n, a, b):
    """The least member of each item's component: items range(n), edges (a, b).

    Hook and jump (Shiloach and Vishkin 1982): the larger root of each edge
    between two trees points at the least root across from it, then every
    pointer jumps to its root.  Pointers only decrease, so the trees stay
    acyclic and each root is its tree's least member; an edge inside a tree
    stays there and is dropped.
    """
    lab = np.arange(n)
    while len(a):
        ra, rb = lab[a], lab[b]
        out = ra != rb
        a, b, ra, rb = a[out], b[out], ra[out], rb[out]
        np.minimum.at(lab, np.maximum(ra, rb), np.minimum(ra, rb))
        jumped = lab[lab]
        while not np.array_equal(jumped, lab):
            lab, jumped = jumped, jumped[jumped]
    return lab


def _run_components(grid):
    """Cell count and component of each run of occupied cells in a row.

    Runs are in row-major order, and each component, 8-connected on the
    torus, is named by its least run.  A run of cells c0 .. c1 - 1 in row j
    has the keys j (S + 1) + c0 and + c1, the positions of its two steps in
    the padded rows, so one ``searchsorted`` each finds the runs of row
    (j - 1) mod S whose columns come within one of it; a run ending at
    column S - 1 also meets a run starting at column 0 in rows j - 1, j and
    j + 1.
    """
    S = grid.shape[1]
    step = np.flatnonzero(np.diff(grid, axis=1, prepend=False, append=False))
    start, end = step[0::2], step[1::2]
    row, c0 = np.divmod(start, S + 1)
    c1 = end - row * (S + 1)
    above = (row - 1) % S * (S + 1)
    lo = np.searchsorted(end, above + c0)
    count = np.searchsorted(start, above + c1, "right") - lo
    a, b = [np.repeat(np.arange(len(start)), count)], [_ranges(lo, count)]
    first, last = np.flatnonzero(c0 == 0), np.flatnonzero(c1 == S)
    at0 = np.full(S, -1)
    at0[row[first]] = first
    for d in (-1, 0, 1):
        other = at0[(row[last] + d) % S]
        a.append(last[other >= 0])
        b.append(other[other >= 0])
    return _least_members(len(start), np.concatenate(a), np.concatenate(b)), c1 - c0


def _boundary_cells(grid):
    interior = grid.copy()
    for ax, sh in ((0, 1), (0, -1), (1, 1), (1, -1)):
        interior &= np.roll(grid, sh, axis=ax)
    return grid & ~interior


def block_decomposition(A) -> BlockReport:
    """Blocks = components of the pairwise max-distance < 1 relation.

    Valid block structure additionally demands every block have diameter < 1
    and distinct blocks be separated by min distance > 1.

    Provisional components, 8-connected and merged across the torus seams,
    are merged where their closest cell pair has dmax < 1.  The merge works
    on whole arrays: ``_component_shapes`` reduces the cells grouped by
    component, ``_near_pairs`` finds the pairs near enough to measure, and
    ``_pair_gaps`` measures their exact min dmax and min dmin over boundary
    cells.
    """
    if isinstance(A, IndepSet):
        A = A.to_gridset()
    if not isinstance(A, GridSet):
        raise DomainError("expected a GridSet or IndepSet")
    N, S = A.N, A.side
    grid = A.cells
    if not grid.any():
        return BlockReport([], True, 0, 0.0, float("inf"))

    js, ks = np.nonzero(grid)
    if N >= 3:
        # 8-adjacent cells always satisfy dmax < 1: components of the runs,
        # each numbered by its least run, so by its first cell in row order
        least, size = _run_components(grid)
        comp = (np.cumsum(least == np.arange(len(least))) - 1)[least]
        inverse = np.repeat(comp, size)  # js, ks list the runs' cells in run order
        counts = np.bincount(inverse)
    else:
        inverse = np.arange(len(js))
        counts = np.ones(len(js), dtype=np.intp)

    onb = _boundary_cells(grid)[js, ks]
    cj, ck, radius, *boundary = _component_shapes(js, ks, inverse, counts, onb, S)
    first, second = _near_pairs(cj, ck, radius, N, S)
    hi2, lo2 = _pair_gaps(*boundary, first, second, S)
    del boundary
    dmax_min = np.sqrt(hi2.astype(np.float64)) / N
    dmin_min = np.sqrt(lo2.astype(np.float64)) / N

    merge = dmax_min < 1.0
    final = _least_members(len(counts), first[merge], second[merge])

    # blocks in increasing root order; each lists its components' cells in
    # component order
    cell_final = final[inverse]
    cells = np.lexsort((inverse, cell_final))
    block_idx = np.split(cells, np.flatnonzero(np.diff(cell_final[cells])) + 1)
    blocks = [(js[idx], ks[idx]) for idx in block_idx]
    max_diam = max(_component_diameter(js[idx], ks[idx], onb[idx], N, S) for idx in block_idx)
    apart = final[first] != final[second]
    min_sep = float(dmin_min[apart].min()) if apart.any() else float("inf")
    ok = max_diam < 1.0 and min_sep > 1.0
    return BlockReport(blocks, bool(ok), len(blocks), max_diam, min_sep)
