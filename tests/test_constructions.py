"""Pattern geometry, the Croft optimum, and certified rasterization."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from udsets import constructions
from udsets.constructions import (
    HEX_DISK_DENSITY,
    Disk,
    PlanarPattern,
    croft_density,
    croft_tortoise,
    embed_pattern,
    hex_disk_packing,
    optimize_croft,
    rasterize,
    rasterize_report,
    tortoise_area,
)
from udsets.errors import DomainError, FeasibilityError
from udsets.torus import pair_correlation, spectrum


def tortoise_area_quadrature(x):
    """Independent oracle: polar-sector quadrature of disk ∩ hexagon."""

    def integrand(theta):
        r = min(0.5, (x / 2.0) / math.cos(theta))
        return 0.5 * r * r

    val, err = quad(integrand, 0.0, math.pi / 6.0, epsabs=1e-13)
    return 12.0 * val


def test_hexdisk_analytic_density_exact():
    hd = hex_disk_packing()
    assert abs(hd.density - math.pi / (8.0 * math.sqrt(3.0))) < 1e-12
    assert hd.density == pytest.approx(0.2267, abs=1e-4)
    assert hd.boundary_gap == pytest.approx(1.0, abs=1e-15)
    assert hd.block.radius < 0.5 * hd.min_spacing


def test_tortoise_area_against_quadrature():
    for x in (0.8, 0.9, 0.96553):
        assert tortoise_area(x) == pytest.approx(tortoise_area_quadrature(x), abs=1e-10)


def test_croft_pattern_invariants_and_domain():
    p = croft_tortoise(0.9)
    assert p.block.hex_height < 1.0 and p.block.disk_radius == 0.5
    assert p.min_spacing == pytest.approx(1.9)
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(DomainError):
            croft_tortoise(bad)


def test_croft_limit_matches_hexdisk():
    # x -> 1: the tortoise fills the disk and the density is continuous
    assert croft_density(1 - 1e-9) == pytest.approx(HEX_DISK_DENSITY, abs=1e-6)


def test_optimize_croft_reference_values():
    x_star, dens = optimize_croft()
    assert x_star == pytest.approx(0.96553, abs=2e-3)
    assert dens == pytest.approx(0.22936, abs=5e-4)
    assert dens >= HEX_DISK_DENSITY


def test_embedding_is_deterministic_and_certified():
    hd = hex_disk_packing()
    e1 = embed_pattern(hd, 8, 0.01)
    e2 = embed_pattern(hd, 8, 0.01)
    assert np.array_equal(e1.basis, e2.basis)
    assert (e1.cols, e1.rows, e1.min_gap) == (e2.cols, e2.rows, e2.min_gap)
    assert e1.n_centers == 16 and e1.min_gap > 1.0
    e38 = embed_pattern(hd, 38, 0.01)
    assert e38.n_centers == 418
    assert e38.centers(38).shape == (418, 2)


def test_embedding_rejects_oversized_blocks():
    fat = PlanarPattern("fat", np.array([[3.0, 0.0], [0.0, 3.0]]), Disk(0.9))
    with pytest.raises(FeasibilityError):
        embed_pattern(fat, 8, 0.01)


def test_rasterize_preconditions():
    hd = hex_disk_packing()
    with pytest.raises(DomainError):
        rasterize(hd, 8, 8, 0.01)
    with pytest.raises(DomainError):
        rasterize(hd, 32, 8, 0.7)


def test_raster_density_close_to_embedded():
    for pattern in (hex_disk_packing(), croft_tortoise(0.96553)):
        rep = rasterize_report(pattern, 128, 8, beta=0.01)
        assert abs(rep.raster_density - rep.embedded_density) <= 0.01
        assert rep.ideal_density == pytest.approx(pattern.density)


def test_raster_monotone_in_n():
    hd = hex_disk_packing()
    dens = [rasterize_report(hd, n, 8, 0.01).raster_density for n in (16, 32, 64, 128)]
    assert all(b >= a for a, b in zip(dens, dens[1:]))


def test_croft_raster_denser_than_disk_raster():
    # the orderings hold where both patterns embed near-faithfully
    K, N, beta = 16, 64, 0.01
    d_disk = rasterize_report(hex_disk_packing(), N, K, beta).raster_density
    d_croft = rasterize_report(croft_tortoise(0.96553), N, K, beta).raster_density
    assert d_croft > d_disk


def test_raster_unit_distance_mass_within_rigor():
    rep = rasterize_report(hex_disk_packing(), 64, 8, beta=0.01)
    spec = spectrum(rep.grid, 12_000)
    ev = pair_correlation(spec, 1.0)
    assert abs(ev.value) <= ev.rigor_bound


def _mark_block_nonzero(cells, center, block, beta, h_dil, N, S):
    """Reference: the inclusion rule marked cell by cell through np.nonzero
    and a scatter of the gathered indices."""
    tortoise = isinstance(block, constructions.Tortoise)
    radius = (1.0 - beta) * (block.disk_radius if tortoise else block.radius)
    R = (1.0 - beta) * block.max_extent + 2.0 * h_dil
    js = np.arange(math.floor((center[0] - R) * N), math.ceil((center[0] + R) * N) + 1)
    ks = np.arange(math.floor((center[1] - R) * N), math.ceil((center[1] + R) * N) + 1)
    cx = ((js + 0.5) / N - center[0])[:, None]
    cy = ((ks + 0.5) / N - center[1])[None, :]
    dxa = np.abs(cx) + h_dil
    dya = np.abs(cy) + h_dil
    inside = dxa * dxa + dya * dya < radius * radius
    if tortoise:
        apothem = (1.0 - beta) * block.hex_height / 2.0
        for nx, ny in constructions._HEX_NORMALS:
            reach = h_dil * (abs(nx) + abs(ny))
            inside &= np.abs(cx * nx + cy * ny) + reach < apothem
    jj, kk = np.nonzero(inside)
    cells[js[jj] % S, ks[kk] % S] = True


class _RecordingCells(np.ndarray):
    """A cell array that keeps the index of every write into it."""

    def __setitem__(self, index, value):
        self.writes.append(index)
        super().__setitem__(index, value)


def _mark_both(block, N, K, beta, centers, start):
    """Mark every center into a copy of ``start`` with _mark_block and with
    the reference; returns both arrays and, per center, the indices of the
    writes _mark_block made."""
    S = N * K
    h_dil = 1.0 / (2.0 * N * (1.0 - beta))
    got = start.copy().view(_RecordingCells)
    want = start.copy()
    windows = []
    for center in centers:
        got.writes = []
        constructions._mark_block(got, center, block, beta, h_dil, N, S)
        windows.append(got.writes)
        _mark_block_nonzero(want, center, block, beta, h_dil, N, S)
    return got.view(np.ndarray), want, windows


@pytest.mark.parametrize(
    "name, N, K, beta",
    [
        ("disk", 128, 38, 0.006),
        ("disk", 128, 8, 0.01),
        ("croft", 128, 8, 0.01),
        ("croft", 16, 3, 0.2),
    ],
)
def test_windowed_marking_equals_the_nonzero_rule(name, N, K, beta):
    pattern = hex_disk_packing() if name == "disk" else croft_tortoise(optimize_croft()[0])
    S = N * K
    # blocks across the x seam, the y seam and both, beside the embedding's own
    seams = [(0.01, K / 2), (K / 2, K - 0.02), (0.0, 0.0), (K - 0.01, 0.03), (K - 1e-9, K - 1e-9)]
    centers = np.concatenate([embed_pattern(pattern, K, beta).centers(K), seams])
    start = np.zeros((S, S), dtype=bool)
    start[::7, ::5] = True  # marking ORs into what is already there
    got, want, windows = _mark_both(pattern.block, N, K, beta, centers, start)
    assert np.array_equal(got, want)
    assert np.array_equal(
        got, _mark_both(pattern.block, N, K, beta, centers, np.zeros_like(start))[1] | start
    )
    assert len(windows) == len(centers)
    wrapped = set()
    for writes in windows:
        # at most four rectangles of basic slices inside the torus; a window
        # side is at most N + 4 <= S cells, so they never share a cell
        assert 1 <= len(writes) <= 4
        spans = []
        for index in writes:
            assert len(index) == 2 and all(type(x) is slice and x.step is None for x in index)
            assert all(0 <= x.start < x.stop <= S for x in index)
            spans.append(tuple((x.start, x.stop) for x in index))
        row_spans, col_spans = ({sp[a] for sp in spans} for a in (0, 1))
        assert len(spans) == len(row_spans) * len(col_spans)
        for axis_spans in (row_spans, col_spans):
            assert sum(b - a for a, b in axis_spans) <= N + 4 <= S
        wrapped.add((len(row_spans), len(col_spans)))
    assert {(1, 1), (2, 1), (1, 2), (2, 2)} <= wrapped  # the seam centers wrap
