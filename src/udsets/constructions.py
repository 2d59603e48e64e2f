"""Benchmark 1-avoiding patterns and their certified rasterization.

Two classical block constructions on a hexagonal lattice:

* open disks of radius 1/2 on a lattice of spacing 2;
* "tortoises" (open disk of radius 1/2 intersected with a concentric open
  regular hexagon of height x < 1, flat sides facing the six lattice
  neighbors) on a lattice of spacing 1 + x.

A hexagonal lattice never fits a square torus exactly (it has no square
sublattice), so ``rasterize`` embeds the pattern as the densest *certified*
staggered-row approximant: columns c and rows r are searched near K/spacing
and K/row-height, and a candidate lattice is accepted only if every nonzero
lattice vector v satisfies |v| - 2 (1-beta) ext(v/|v|) > 1, where ext is the
block's support function.  That check makes the shrunk continuous pattern
1-avoiding, and cells are included only when their 1/(1-beta)-dilation lies
inside a (1-beta)-shrunk block, so the raster inherits 1-avoidance.

Densities reported: ideal (the infinite pattern), embedded (the approximant,
still analytic), and raster (cell counting).  Raster converges to embedded at
rate O(1/N) + O(beta); the embedding perturbation is reported, not hidden.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FeasibilityError
from .torus import GridSet

__all__ = [
    "Disk",
    "Tortoise",
    "PlanarPattern",
    "hex_disk_packing",
    "croft_tortoise",
    "tortoise_area",
    "croft_density",
    "optimize_croft",
    "Embedding",
    "embed_pattern",
    "rasterize",
    "rasterize_report",
    "RasterResult",
    "HEX_DISK_DENSITY",
]

HEX_DISK_DENSITY = math.pi / (8.0 * math.sqrt(3.0))
CROFT_SCAN_STEP = 1e-4  # grid step of optimize_croft's scan
_CERT_MARGIN = 1e-7  # float slack for the O(10)-flop gap expressions


@dataclass(frozen=True)
class Disk:
    radius: float

    @property
    def max_extent(self) -> float:
        return self.radius

    def extent(self, phi) -> np.ndarray:
        """Support in direction phi (radians)."""
        return np.full_like(np.asarray(phi, dtype=float), self.radius)

    @property
    def area(self) -> float:
        return math.pi * self.radius**2


@dataclass(frozen=True)
class Tortoise:
    disk_radius: float
    hex_height: float  # distance between opposite flat sides; apothem = height/2

    @property
    def max_extent(self) -> float:
        return min(self.disk_radius, self.hex_height / math.sqrt(3.0))

    def extent(self, phi) -> np.ndarray:
        """Support in direction phi: hexagon flats normal to 0, 60, 120 deg."""
        phi = np.asarray(phi, dtype=float)
        third = math.pi / 3.0
        dev = np.abs(np.mod(phi + third / 2, third) - third / 2)
        hex_support = (self.hex_height / 2.0) / np.cos(dev)
        return np.minimum(self.disk_radius, hex_support)

    @property
    def area(self) -> float:
        return tortoise_area(self.hex_height)


@dataclass(frozen=True)
class PlanarPattern:
    """One block per cell of a planar lattice; basis columns in `basis`."""

    name: str
    basis: np.ndarray  # 2x2, columns are the lattice generators
    block: Disk | Tortoise

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=float).reshape(2, 2)
        basis.setflags(write=False)
        object.__setattr__(self, "basis", basis)

    @property
    def cell_area(self) -> float:
        return abs(float(np.linalg.det(self.basis)))

    @property
    def density(self) -> float:
        return self.block.area / self.cell_area

    @property
    def min_spacing(self) -> float:
        b1, b2 = self.basis[:, 0], self.basis[:, 1]
        cands = [b1, b2, b1 - b2, b1 + b2]
        return min(float(np.hypot(*v)) for v in cands)

    @property
    def boundary_gap(self) -> float:
        """Nearest distance between distinct block boundaries (ideal pattern)."""
        return self.min_spacing - 2.0 * self.block.max_extent


def hex_disk_packing() -> PlanarPattern:
    """Open radius-1/2 disks on the hexagonal lattice of spacing 2."""
    basis = np.array([[2.0, 1.0], [0.0, math.sqrt(3.0)]])
    return PlanarPattern("hexdisk", basis, Disk(0.5))


def tortoise_area(x: float) -> float:
    """Area of disk(1/2) ∩ hexagon(height x), concentric, closed form.

    For x <= sqrt(3)/2 the hexagon sits inside the disk; otherwise the six
    corners are clipped by the circle and circular-sector terms appear.
    """
    if not 0.0 < x < 1.0:
        raise DomainError("hexagon height must lie in (0, 1)")
    if x <= math.sqrt(3.0) / 2.0:
        return (math.sqrt(3.0) / 2.0) * x * x
    return 1.5 * (x * math.sqrt(1.0 - x * x) + math.pi / 6.0 - math.acos(x))


def croft_tortoise(x: float) -> PlanarPattern:
    """Tortoises on the hexagonal lattice of spacing 1 + x."""
    if not 0.0 < x < 1.0:
        raise DomainError("croft parameter x must lie in (0, 1)")
    d = 1.0 + x
    basis = d * np.array([[1.0, 0.5], [0.0, math.sqrt(3.0) / 2.0]])
    return PlanarPattern(f"croft(x={x:.6g})", basis, Tortoise(0.5, x))


def croft_density(x: float) -> float:
    return tortoise_area(x) / ((1.0 + x) ** 2 * math.sqrt(3.0) / 2.0)


def optimize_croft() -> tuple[float, float]:
    """Maximize croft_density on (0, 1): a scan of the grid of step
    CROFT_SCAN_STEP = 1e-4, then golden refinement around its best point."""
    xs = np.arange(CROFT_SCAN_STEP, 1.0, CROFT_SCAN_STEP)
    vals = np.array([croft_density(float(x)) for x in xs])
    i = int(np.argmax(vals))
    lo = xs[max(i - 1, 0)]
    hi = xs[min(i + 1, len(xs) - 1)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = croft_density(c), croft_density(d)
    while b - a > 1e-12:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = croft_density(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = croft_density(d)
    x_star = 0.5 * (a + b)
    return x_star, croft_density(x_star)


# ---------------------------------------------------------------------------
# torus embedding
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Embedding:
    """A certified staggered-row approximant of a hexagonal block pattern."""

    basis: np.ndarray  # 2x2 columns: (b1, 0) and (s, h)
    cols: int
    rows: int
    staggered: bool
    n_centers: int
    min_gap: float  # min over lattice vectors of |v| - 2(1-beta) ext(u)
    embedded_density: float  # analytic, unshrunk blocks

    def centers(self, K: float) -> np.ndarray:
        b1 = self.basis[0, 0]
        s = self.basis[0, 1]
        h = self.basis[1, 1]
        ii, jj = np.meshgrid(np.arange(self.rows), np.arange(self.cols), indexing="ij")
        x = np.mod(jj * b1 + ii * s, K)
        y = np.mod(ii * h, K)
        return np.column_stack([x.ravel(), y.ravel()])


def _gap_certificate(block, b1: float, s: float, h: float, K: float, beta: float):
    """Min certified gap over nonzero lattice vectors (torus-wrapped).

    Returns (ok, min_gap): ok requires gap > 1 + margin for every vector of
    length < 1 + 2*max_extent + margin; longer vectors clear trivially.
    """
    reach = 1.0 + 2.0 * block.max_extent + 0.1
    imax = int(math.ceil(reach / h)) + 1
    jmax = int(math.ceil(reach / b1)) + imax + 1
    ii, jj = np.meshgrid(
        np.arange(-imax, imax + 1), np.arange(-jmax, jmax + 1), indexing="ij"
    )
    vx = jj * b1 + ii * s
    vy = ii * h
    # wrap into the centered fundamental domain of the torus
    vx = np.mod(vx + K / 2, K) - K / 2
    vy = np.mod(vy + K / 2, K) - K / 2
    norm = np.hypot(vx, vy)
    mask = norm > 1e-12
    vx, vy, norm = vx[mask], vy[mask], norm[mask]
    near = norm < reach
    if not np.any(near):
        return True, float("inf")
    phi = np.arctan2(vy[near], vx[near])
    ext = block.extent(phi)
    gaps = norm[near] - 2.0 * (1.0 - beta) * ext
    min_gap = float(np.min(gaps))
    return min_gap > 1.0 + _CERT_MARGIN, min_gap


def embed_pattern(pattern: PlanarPattern, K: int, beta: float) -> Embedding:
    """Densest certified staggered-row embedding of the pattern in the K-torus."""
    if K < 3:
        raise DomainError("K must be >= 3")
    if 2.0 * (1.0 - beta) * pattern.block.max_extent > 1.0:
        raise FeasibilityError(
            "shrunk block diameter exceeds 1; intra-block unit distances unavoidable"
        )
    d = pattern.min_spacing
    row_h = d * math.sqrt(3.0) / 2.0
    c0 = K / d
    r0 = K / row_h
    candidates = []
    for c in range(max(1, math.floor(c0) - 1), math.ceil(c0) + 2):
        b1 = K / c
        for r in range(max(1, math.floor(r0) - 4), math.ceil(r0) + 5):
            h = K / r
            for staggered in (True, False):
                if staggered and r % 2 != 0:
                    continue  # odd stagger does not close up on the torus
                s = b1 / 2.0 if staggered else 0.0
                ok, gap = _gap_certificate(pattern.block, b1, s, h, K, beta)
                if not ok:
                    continue
                n = c * r
                basis = np.array([[b1, s], [0.0, h]])
                dist = float(np.linalg.norm(basis - pattern.basis))
                candidates.append((n, -dist, c, r, staggered, gap, basis))
    if not candidates:
        raise FeasibilityError(
            f"pattern {pattern.name!r} does not embed 1-avoidingly in the {K}-torus"
        )
    n, negdist, c, r, staggered, gap, basis = max(candidates)
    return Embedding(
        basis=basis,
        cols=c,
        rows=r,
        staggered=staggered,
        n_centers=n,
        min_gap=gap,
        embedded_density=n * pattern.block.area / K**2,
    )


# ---------------------------------------------------------------------------
# rasterization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RasterResult:
    grid: GridSet
    pattern_name: str
    beta: float
    embedding: Embedding
    ideal_density: float
    embedded_density: float
    raster_density: float


_HEX_NORMALS = np.array(
    [[math.cos(a), math.sin(a)] for a in (0.0, math.pi / 3.0, 2.0 * math.pi / 3.0)]
)


def _mark_block(cells, center, block: Disk | Tortoise, beta, h_dil, N, S):
    """Mark every cell whose h_dil-dilation lies strictly inside the
    (1 - beta)-shrunk block at ``center``: inside its disk and, for a
    Tortoise, between each of the hexagon's three pairs of flat sides.

    The block's cells form a window of the torus, its rows and columns
    taken mod S, and the window's mask is ORed into it as at most four
    rectangles of basic slices, split where its rows or its columns wrap
    past S.  A window side is jhi - jlo + 1 < 2 R N + 3 cells, with R N <=
    (1 - beta) N / 2 + 1 / (1 - beta) <= N / 2 + 1 for N >= 16 (extent <=
    1/2, h_dil = 1 / (2 N (1 - beta))), so at most N + 4 cells: below S = NK
    for the K >= 3 of every embedding, so no cell appears twice in a
    window."""
    tortoise = isinstance(block, Tortoise)
    radius = (1.0 - beta) * (block.disk_radius if tortoise else block.radius)
    R = (1.0 - beta) * block.max_extent + 2.0 * h_dil
    jlo = math.floor((center[0] - R) * N)
    jhi = math.ceil((center[0] + R) * N)
    klo = math.floor((center[1] - R) * N)
    khi = math.ceil((center[1] + R) * N)
    js = np.arange(jlo, jhi + 1)
    ks = np.arange(klo, khi + 1)
    cx = ((js + 0.5) / N - center[0])[:, None]
    cy = ((ks + 0.5) / N - center[1])[None, :]
    dxa = np.abs(cx) + h_dil
    dya = np.abs(cy) + h_dil
    inside = dxa * dxa + dya * dya < radius * radius
    if tortoise:
        apothem = (1.0 - beta) * block.hex_height / 2.0
        for nx, ny in _HEX_NORMALS:
            reach = h_dil * (abs(nx) + abs(ny))
            inside &= np.abs(cx * nx + cy * ny) + reach < apothem
    for rows, mrows in _wrapped_spans(jlo, len(js), S):
        for cols, mcols in _wrapped_spans(klo, len(ks), S):
            cells[rows, cols] |= inside[mrows, mcols]


def _wrapped_spans(lo, size, S):
    """The torus indices lo, ..., lo + size - 1 mod S (size <= S) as at most
    two (torus slice, window slice) pairs, split where the indices wrap."""
    a = lo % S
    if a + size <= S:
        return [(slice(a, a + size), slice(0, size))]
    cut = S - a
    return [(slice(a, S), slice(0, cut)), (slice(0, size - cut), slice(cut, size))]


def rasterize_report(
    pattern: PlanarPattern, N: int, K: int, beta: float = 0.01
) -> RasterResult:
    """Rasterize with the inclusion rule 'dilated cell inside shrunk block'.

    A cell joins the raster iff its 1/(1-beta)-dilation about its own center
    lies strictly inside the (1-beta)-shrunk open block, so the raster sits
    inside the shrunk pattern, whose 1-avoidance the embedding certified.
    """
    if N < 16:
        raise DomainError("N must be >= 16 for rasterization")
    if not 0.0 <= beta < 0.5:
        raise DomainError("beta must lie in [0, 0.5)")
    emb = embed_pattern(pattern, K, beta)
    S = N * K
    cells = np.zeros((S, S), dtype=bool)
    h_dil = 1.0 / (2.0 * N * (1.0 - beta))
    for center in emb.centers(K):
        _mark_block(cells, center, pattern.block, beta, h_dil, N, S)
    grid = GridSet(K, N, cells)
    return RasterResult(
        grid=grid,
        pattern_name=pattern.name,
        beta=beta,
        embedding=emb,
        ideal_density=pattern.density,
        embedded_density=emb.embedded_density,
        raster_density=grid.density,
    )


def rasterize(pattern: PlanarPattern, N: int, K: int, beta: float = 0.01) -> GridSet:
    return rasterize_report(pattern, N, K, beta).grid
