"""GridSet / Spectrum behavior against independent small-scale oracles."""

import json
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from oracle_bessel import j0_oracle
from udsets import torus
from udsets.bessel import J0_ABS_ERROR, j0_combination, j0_envelope, j0_values
from udsets.constructions import hex_disk_packing, rasterize
from udsets.errors import DegenerateSetError, DomainError, SchemaError, WorkBudgetError
from udsets.gridio import load_gridset, save_gridset
from udsets.torus import (
    GridSet,
    checkerboard,
    linf_unit_pair_density,
    pair_correlation,
    pair_correlation_direct,
    pair_counts,
    random_gridset,
    s,
    spectrum,
    spectrum_auto,
)


def direct_fourier_mass(A, cutoff_m):
    """Independent oracle: sum |1_A^(xi)|^2 by per-cell complex integrals.

    No FFT, no sinc shortcut: each cell contributes the closed-form 1D
    integrals (e^{-i a x}) evaluated endpoint-by-endpoint.
    """
    S = A.side
    js, ks = np.nonzero(A.cells)
    amax = math.isqrt(cutoff_m)
    out = {}
    for a in range(-amax, amax + 1):
        for b in range(-amax, amax + 1):
            m = a * a + b * b
            if m > cutoff_m:
                continue
            xi1 = 2 * math.pi * a / A.K
            xi2 = 2 * math.pi * b / A.K

            def seg(xi, idx):
                lo = idx / A.N
                hi = (idx + 1) / A.N
                if xi == 0.0:
                    return (hi - lo) * np.ones_like(idx, dtype=complex)
                return (np.exp(-1j * xi * hi) - np.exp(-1j * xi * lo)) / (-1j * xi)

            coeff = np.sum(seg(xi1, js) * seg(xi2, ks)) / A.K**2
            out[m] = out.get(m, 0.0) + abs(coeff) ** 2
    return out


def meshgrid_terms(A, cutoff_m, half_plane=True):
    """Reference spectrum: lattice points of the (2 isqrt(cutoff_m) + 1)^2
    meshgrid at once, summed by ``np.bincount`` in row-major order.

    With ``half_plane``, the points a > 0 or a = 0 < b, each with twice its
    power: the points ``spectrum`` walks, in its order, so the two agree bit
    for bit.  Without it, the whole disk with each point's own power, as
    ``spectrum`` summed it before it walked one point of each pair +-xi; the
    two sums then differ by rounding alone.  Returns every nonzero term,
    (ms, kappas, tail_mass).
    """
    S = A.side
    P2 = np.abs(np.fft.rfft2(A.cells.astype(np.float64))) ** 2
    half = S // 2 + 1

    def lookup(a, b):
        p = np.mod(a, S)
        q = np.mod(b, S)
        flip = q >= half
        p = np.where(flip, (-p) % S, p)
        q = np.where(flip, S - q, q)
        return P2[p, q]

    amax = math.isqrt(cutoff_m)
    ax = np.arange(-amax, amax + 1, dtype=np.int64)
    aa, bb = np.meshgrid(ax, ax, indexing="ij")
    m = (aa * aa + bb * bb).ravel()
    keep = m <= cutoff_m
    if half_plane:
        keep &= ((aa > 0) | ((aa == 0) & (bb > 0))).ravel()
    aa = aa.ravel()[keep]
    bb = bb.ravel()[keep]
    m = m[keep]
    norm = 1.0 / (A.K**2 * A.N**2)
    sincs = np.sinc(aa / S) * np.sinc(bb / S)
    power = lookup(aa, bb) * (norm * sincs) ** 2
    if half_plane:
        power *= 2.0
    kappa_by_m = np.bincount(m, weights=power, minlength=int(cutoff_m) + 1)
    dens = A.density
    kappa_by_m[0] = dens * dens
    ms = np.nonzero(kappa_by_m)[0].astype(np.int64)
    kappas = kappa_by_m[ms]
    tail = dens - float(kappas.sum())
    return ms, kappas, max(tail, 0.0)


def kept_terms(ms, kappas):
    """The keep rule on every nonzero term: (kept ms, kept kappas,
    omitted_mass).  kappa(0) and each kappa >= tau = OMIT_BUDGET / len(ms)
    stay; the rest are summed in chunks of SPECTRUM_BLOCK nonzero terms, as
    ``spectrum`` sums them, and the sum is rounded up for its own error."""
    if ms.size == 0:
        return ms, kappas, 0.0
    keep = (kappas >= torus.OMIT_BUDGET / ms.size) | (ms == 0)
    step = torus.SPECTRUM_BLOCK
    omitted = sum(
        float(kappas[i : i + step][~keep[i : i + step]].sum()) for i in range(0, ms.size, step)
    )
    n = int(np.count_nonzero(~keep))
    if n:
        gamma = n * 2.0**-53 / (1.0 - n * 2.0**-53)
        omitted = math.nextafter(omitted * (1.0 + 2.0 * gamma), math.inf)
    return ms[keep], kappas[keep], omitted


def meshgrid_spectrum(A, cutoff_m):
    """The half-plane meshgrid reference after the keep rule: (ms, kappas,
    tail_mass, omitted_mass), as ``assert_same_spectrum`` takes them."""
    ms, kappas, tail = meshgrid_terms(A, cutoff_m)
    ms, kappas, omitted = kept_terms(ms, kappas)
    return ms, kappas, tail, omitted


def assert_same_spectrum(spec, ms, kappas, tail_mass, omitted_mass):
    assert np.array_equal(spec.ms, ms)
    assert np.array_equal(spec.kappas.view(np.int64), kappas.view(np.int64))
    assert spec.tail_mass == tail_mass
    assert spec.omitted_mass == omitted_mass


WALK_CASES = [
    (1, 1, 1),
    (2, 3, 50),
    (1, 3, 10_000),   # isqrt(cutoff) = 100 > S = 3: the power lookup wraps
    (3, 4, 1_000),
    (5, 2, 12_345),
    (4, 8, 65_536),   # about 206k points, half of them walked: two walk blocks
    (3, 5, 99_999),   # not a perfect square, rows end off the circle
    (16, 4, 200),     # 2 isqrt(cutoff) + 1 = 29 < S = 64: a pruned transform
    (15, 5, 300),     # the same at odd S = 75
]


@pytest.mark.parametrize("N, K, cutoff", WALK_CASES)
def test_row_walk_bitwise_equals_meshgrid_oracle(N, K, cutoff):
    A = random_gridset(N, K, p=0.4, seed=N * K + cutoff)
    assert_same_spectrum(spectrum(A, cutoff), *meshgrid_spectrum(A, cutoff))


@pytest.mark.parametrize("N, K, cutoff", WALK_CASES)
def test_half_plane_walk_matches_the_whole_disk(N, K, cutoff):
    # one point of each pair +-xi, doubled, against every point: the same
    # buckets, with sums reordered by the pairing; a term the keep rule keeps
    # on one side only lies within that reordering of tau
    A = random_gridset(N, K, p=0.4, seed=N * K + cutoff)
    spec = spectrum(A, cutoff)
    ms, kappas, tail = meshgrid_terms(A, cutoff, half_plane=False)
    kept = np.isin(ms, spec.ms)
    assert np.count_nonzero(kept) == spec.ms.size
    assert np.all(np.abs(spec.kappas - kappas[kept]) <= 4e-15 * kappas[kept])
    tau = torus.OMIT_BUDGET / ms.size
    one_side = kept != ((kappas >= tau) | (ms == 0))
    assert np.all(np.abs(kappas[one_side] - tau) <= 4e-15 * tau)
    assert abs(spec.tail_mass - tail) <= 1e-15


class _CountingNumpy:
    """numpy for the walk's module, with an ``add.at`` that counts the terms
    it adds."""

    def __init__(self):
        self.terms = 0
        self.add = SimpleNamespace(at=self._add_at)

    def _add_at(self, target, index, values):
        self.terms += len(values)
        np.add.at(target, index, values)

    def __getattr__(self, name):
        return getattr(np, name)


@pytest.mark.parametrize("c_lo, c_hi", [(-1, 1), (-1, 50), (-1, 99_999), (50, 200), (4096, 16_384)])
def test_walk_adds_one_term_per_pair_of_lattice_points(monkeypatch, c_lo, c_hi):
    # one term per pair +-xi: (points - 1) / 2 on a disk, whose origin is
    # left out, and points / 2 on an annulus
    A = random_gridset(3, 5, p=0.4, seed=c_hi)
    P2 = torus._power_spectrum(A, math.isqrt(c_hi))
    counting = _CountingNumpy()
    monkeypatch.setattr(torus, "np", counting)
    torus._walk_disk(A, P2, np.zeros(c_hi + 1), c_lo, c_hi)
    r = math.isqrt(c_hi)
    a, b = np.meshgrid(np.arange(-r, r + 1), np.arange(-r, r + 1))
    m = a * a + b * b
    points = int(np.count_nonzero((c_lo < m) & (m <= c_hi)))
    assert points % 2 == (c_lo < 0)
    assert counting.terms == (points - (c_lo < 0)) // 2


def test_spectrum_auto_bitwise_equals_spectrum_at_its_cutoff():
    # sets of the c02 sweep whose cutoff grows from 4096 by two or more x4 steps
    for case, N, K, p in ((2, 10, 3, 0.698), (3, 1, 6, 0.527), (12, 4, 3, 0.63), (20, 2, 7, 0.445)):
        A = random_gridset(N, K, p=p, seed=1000 + case)
        auto = spectrum_auto(A, r_min=0.25, tail_target=2e-4)
        assert auto.cutoff_m >= 4 * 4 * 4096
        direct = spectrum(A, auto.cutoff_m)
        assert_same_spectrum(auto, direct.ms, direct.kappas, direct.tail_mass, direct.omitted_mass)


def test_spectrum_auto_prunes_to_its_largest_reachable_cutoff(monkeypatch):
    # escalation 64 -> 256 -> 1024, where the budget stops it: the transform
    # keeps the columns q <= isqrt(1024) = 32 of the S/2 = 50 there are, and
    # the walks of the smaller annuli read the same P2
    monkeypatch.setattr(torus, "AUTO_INITIAL_CUTOFF", 64)
    monkeypatch.setattr(torus, "DEFAULT_WORK_BUDGET", 1024 * 100**2)
    shapes = []
    power_spectrum = torus._power_spectrum

    def recorded(A, qmax):
        P2 = power_spectrum(A, qmax)
        shapes.append(P2.shape)
        return P2

    monkeypatch.setattr(torus, "_power_spectrum", recorded)
    A = random_gridset(20, 5, p=0.4, seed=3)
    auto = spectrum_auto(A, r_min=0.25, tail_target=1e-12)
    assert auto.cutoff_m == 1024
    direct = spectrum(A, auto.cutoff_m)
    # rows min(a, 100 - a) <= 32: 65 of the 100
    assert shapes == [(65, 33), (65, 33)]
    assert_same_spectrum(auto, direct.ms, direct.kappas, direct.tail_mass, direct.omitted_mass)


@pytest.mark.parametrize(
    "N, K, block",
    [
        (1, 1, 4),      # S = 1: one row and one column whatever qmax is
        (2, 1, 4),      # S = 2
        (3, 5, 4),      # odd S = 15, row blocks 4, 4, 4, 3; column blocks 4, 4
        (4, 5, 4),      # even S = 20, row blocks that divide it
        (7, 2, 4),      # even S = 14, blocks that do not
        (19, 27, None),  # S = 513 in the module's own blocks: 8 x 64 and 1
    ],
)
def test_pruned_transform_bitwise_equals_the_full_one(monkeypatch, N, K, block):
    if block is not None:
        monkeypatch.setattr(torus, "SPECTRUM_FFT_BLOCK", block)
    assert_pruned_transform_equals_the_full_one(random_gridset(N, K, p=0.4, seed=N * K))


def _repeated_row_grids():
    """Grids with repeated rows, named, with their count of distinct rows."""
    rng = np.random.default_rng(11)
    hexdisk = rasterize(hex_disk_packing(), 16, 4, 0.01)
    row = rng.random(21) < 0.4
    pair = rng.random((2, 21)) < 0.4
    patterns = rng.random((6, 40)) < 0.4
    drawn = patterns[rng.integers(0, 6, 40)]  # repeats in no particular order
    return {
        "hexdisk": (hexdisk, len(np.unique(hexdisk.cells, axis=0))),
        "one row": (GridSet(21, 1, np.tile(row, (21, 1))), 1),
        "two alternating rows": (GridSet(21, 1, pair[np.arange(21) % 2]), 2),
        "six rows drawn": (GridSet(40, 1, drawn), len(np.unique(drawn, axis=0))),
    }


@pytest.mark.parametrize("name", list(_repeated_row_grids()))
def test_pruned_transform_of_repeated_rows_bitwise_equals_the_full_one(monkeypatch, name):
    # blocks of 4 rows, so the table of distinct rows spans several of them
    monkeypatch.setattr(torus, "SPECTRUM_FFT_BLOCK", 4)
    A, n_distinct = _repeated_row_grids()[name]
    distinct, row_id = torus._distinct_rows(A.cells)
    assert distinct.size == n_distinct < A.side
    assert np.array_equal(A.cells[distinct][row_id], A.cells)
    assert_pruned_transform_equals_the_full_one(A)


def assert_pruned_transform_equals_the_full_one(A):
    S = A.side
    full = np.abs(np.fft.rfft2(A.cells.astype(np.float64))) ** 2
    qmaxes = {0, 1, 2, 5, S // 2 - 1, S // 2, S // 2 + 1, S - 1, S, 10 * S}
    for qmax in sorted(q for q in qmaxes if q >= 0):
        P2 = torus._power_spectrum(A, qmax)
        kept = [a for a in range(S) if min(a, S - a) <= qmax]
        width = min(qmax, S // 2) + 1
        assert P2.shape == (len(kept), width), qmax
        assert len(kept) == min(2 * qmax + 1, S)
        want = full[kept, :width]
        assert np.array_equal(P2.view(np.int64), want.view(np.int64)), qmax
        # the walk's row map sends every kept row of the half plane to its place
        rows = torus._p2_rows(S, P2, np.array(kept, dtype=np.int64))
        assert rows.tolist() == list(range(len(kept)))


def test_spectrum_transforms_only_the_walked_columns():
    # with numpy 2.4.6 the whole 4864 x 2433 half-plane transform peaks at
    # 541.7 MiB on this raster; the 489 + 1 columns the walk reads, 91 MiB
    # when their whole transform and its power were held; the row transform
    # plus one block of 64 columns and the power of the 979 rows the walk
    # reads, 45 MiB
    A = random_gridset(128, 38, seed=0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        spectrum(A, 240_000)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 56 * 2**20


def test_spectrum_leaves_out_small_kappa_in_place():
    # a deep spectrum's peak is the kappa array (16 MiB at 2^21) beside its
    # nonzero entries; with numpy 2.4.6 it reads 22.91 MiB before the keep
    # rule and 23.47 MiB with the kept entries compacted in place.  Copying
    # them out instead left this peak alone but raised the benchmark's peak
    # RSS on such spectra by 5-11 %, past its bound
    A = random_gridset(16, 8, seed=1)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        spec = spectrum(A, 2**21)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert 0 < spec.omitted_mass <= torus.OMIT_BUDGET
    assert peak < 24 * 2**20


def test_spectrum_of_a_raster_transforms_each_distinct_row_once():
    # the 4864^2 hexdisk raster has 123 distinct rows: their row transform
    # takes 0.9 MiB where the 4864 rows of the random raster above take 36;
    # with numpy 2.4.6 the spectrum peaks at 14 MiB, against the 45 MiB of
    # that random raster, which this raster took too while every row was
    # transformed
    A = rasterize(hex_disk_packing(), 128, 38, 0.006)
    assert torus._distinct_rows(A.cells)[0].size == 123
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        spectrum(A, 240_000)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


def test_pair_counts_check_integrality_in_place():
    # 1024^2 counts take 8 MiB; the check once held two more such arrays
    # (32 MiB traced peak), now the peak is the inverse FFT's, 20 MiB
    A = random_gridset(8, 128, seed=1)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        counts = pair_counts(A)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert counts[0, 0] == A.occupied
    assert peak < 24 * 2**20


def test_cutoff_above_the_kappa_cap_is_refused():
    assert torus.MAX_CUTOFF_M == 2**26
    with pytest.raises(WorkBudgetError):
        spectrum(GridSet.full(1, 1), 2**26 + 1)


def test_spectrum_auto_stops_escalating_at_the_kappa_cap(monkeypatch):
    monkeypatch.setattr(torus, "MAX_CUTOFF_M", 4 * 4096)
    A = random_gridset(3, 4, p=0.4, seed=0)
    spec = spectrum_auto(A, r_min=0.25, tail_target=1e-12)
    assert spec.cutoff_m == 4 * 4096
    assert spec.tail_mass > 0.0


@pytest.mark.skipif(sys.platform != "linux", reason="address-space cap needs Linux")
def test_spectrum_fits_in_bounded_memory():
    # the meshgrid needed about 900 MB here; the row walk about 110 MB
    pytest.importorskip("resource")
    script = textwrap.dedent(
        """
        import resource
        cap = 512 * 2**20
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
        from udsets.torus import random_gridset, spectrum
        spec = spectrum(random_gridset(3, 4, p=0.4, seed=0), 2**22)
        print(spec.cutoff_m)
        """
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(2**22)]


def test_gridset_freezes_a_view_not_the_callers_array():
    a = np.zeros((8, 8), dtype=bool)
    A = GridSet(2, 4, a)
    assert a.flags.writeable
    assert not A.cells.flags.writeable
    with pytest.raises(ValueError):
        A.cells[0, 0] = True
    a[0, 0] = True  # the caller's array stays usable


def test_density_trivials():
    assert GridSet.empty(4, 2).density == 0.0
    assert GridSet.full(4, 2).density == 1.0
    one = GridSet.empty(4, 2)
    cells = one.cells.copy()
    cells[0, 0] = True
    assert GridSet(2, 4, cells).density == pytest.approx(1 / 64)


def test_spectrum_full_set():
    # every kappa(m > 0) of the full set is FFT noise, about 1e-32 here: the
    # keep rule leaves them all out, and f stays 1
    spec = spectrum(GridSet.full(3, 5), cutoff_m=500)
    assert spec.entries == {0: 1.0}
    assert spec.tail_mass <= 1e-12
    assert 0.0 < spec.omitted_mass <= 1e-30
    ev = pair_correlation(spec, 1.234)
    assert ev.value == 1.0


def test_spectrum_of_the_empty_set_has_no_terms():
    spec = spectrum(GridSet.empty(3, 4), cutoff_m=500)
    assert spec.ms.size == spec.kappas.size == 0
    assert (spec.tail_mass, spec.omitted_mass, spec.density) == (0.0, 0.0, 0.0)


def test_spectrum_always_keeps_kappa0(monkeypatch):
    # a budget that puts tau above every kappa leaves out all but kappa(0);
    # Plancherel still closes with the left-out mass
    A = random_gridset(3, 4, p=0.4, seed=2)
    full = spectrum(A, 2000)
    monkeypatch.setattr(torus, "OMIT_BUDGET", 1e6)
    spec = spectrum(A, 2000)
    assert spec.entries == {0: A.density**2}
    assert spec.tail_mass == full.tail_mass
    assert spec.omitted_mass >= float(full.kappas[1:].sum())
    assert spec.omitted_mass == pytest.approx(float(full.kappas[1:].sum()), rel=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_spectrum_against_direct_fourier_oracle(seed):
    A = random_gridset(2, 4, p=0.5, seed=seed)  # the 8x8-cell case
    cutoff = 400
    spec = spectrum(A, cutoff)
    oracle = direct_fourier_mass(A, cutoff)
    for m, v in oracle.items():
        got = spec.entries.get(m, 0.0)
        assert got == pytest.approx(v, abs=1e-11)
    assert spec.entries[0] == pytest.approx(A.density**2, abs=1e-9)
    total = float(spec.kappas.sum()) + spec.tail_mass + spec.omitted_mass
    assert total == pytest.approx(A.density, abs=1e-9)


def test_plancherel_and_kappa0_random_sets():
    for seed in range(8):
        N = 1 + seed % 4
        K = 3 + seed % 5
        A = random_gridset(N, K, p=0.3 + 0.05 * seed, seed=seed)
        spec = spectrum(A, 2000)
        assert spec.entries[0] == pytest.approx(A.density**2, abs=1e-9)
        total = float(spec.kappas.sum()) + spec.tail_mass + spec.omitted_mass
        assert total == pytest.approx(A.density, abs=1e-9)
        assert np.all(spec.kappas >= 0)


def test_monotone_cutoff_tail():
    A = random_gridset(4, 4, seed=3)
    tails = [spectrum(A, c).tail_mass for c in (50, 200, 800, 3200)]
    assert all(t2 <= t1 + 1e-12 for t1, t2 in zip(tails, tails[1:]))


def test_pair_correlation_r0_and_translation_invariance():
    A = random_gridset(3, 4, seed=11)
    spec = spectrum(A, 1000)
    assert pair_correlation(spec, 0.0).value == A.density
    spec2 = spectrum(A.translate(5, 9), 1000)
    for r in (0.25, 1.0, 2.0):
        v1 = pair_correlation(spec, r).value
        v2 = pair_correlation(spec2, r).value
        assert v1 == pytest.approx(v2, abs=1e-12)


def test_work_budget_error():
    A = random_gridset(256, 4, seed=0)  # (NK)^2 = 2^20
    # 2^25 is within MAX_CUTOFF_M, but 2^25 * 2^20 exceeds DEFAULT_WORK_BUDGET
    with pytest.raises(WorkBudgetError, match="work budget"):
        spectrum(A, 2**25)


def bilinear_counts(counts, sx, sy):
    """Bilinear interpolation of a pair-count array at shifts in cell units."""
    S = counts.shape[0]
    i0 = np.floor(sx).astype(np.int64)
    j0 = np.floor(sy).astype(np.int64)
    fx = sx - i0
    fy = sy - j0
    i0 %= S
    j0 %= S
    i1 = (i0 + 1) % S
    j1 = (j0 + 1) % S
    c = counts
    return (
        c[i0, j0] * (1 - fx) * (1 - fy)
        + c[i1, j0] * fx * (1 - fy)
        + c[i0, j1] * (1 - fx) * fy
        + c[i1, j1] * fx * fy
    )


def midpoint_circle_oracle(A, r, angles=2**16):
    """Circle average of the bilinear interpolant by midpoint quadrature.

    The circle is split where it crosses the grid lines (found here with
    arctan2), so the integrand is smooth on every arc.  About ``angles``
    midpoints are spread over the arcs in proportion to their length, and a
    Richardson step against half as many points removes the h^2 term of the
    midpoint rule, leaving an error far below 1e-12.
    """
    counts = pair_counts(A)
    rho = r * A.N
    if rho == 0.0:
        return counts[0, 0] / A.side**2
    lines = np.arange(-math.floor(rho), math.floor(rho) + 1)
    w = np.sqrt(np.maximum(rho * rho - lines * lines, 0.0))
    cuts = np.concatenate([
        np.arctan2(w, lines), np.arctan2(-w, lines),
        np.arctan2(lines, w), np.arctan2(lines, -w),
    ])
    cuts = np.unique(np.concatenate([cuts % (2 * math.pi), [0.0, 2 * math.pi]]))
    lengths = np.diff(cuts)
    n = 2 * np.maximum(2, np.ceil(angles * lengths / (4 * math.pi)).astype(np.int64))

    def midpoint(n):
        arc = np.repeat(np.arange(lengths.size), n)
        k = np.arange(arc.size) - np.repeat(np.cumsum(n) - n, n)
        step = (lengths / n)[arc]
        theta = cuts[arc] + (k + 0.5) * step
        vals = bilinear_counts(counts, rho * np.cos(theta), rho * np.sin(theta))
        return np.bincount(arc, vals * step, minlength=lengths.size)

    total = float(((4.0 * midpoint(n) - midpoint(n // 2)) / 3.0).sum())
    return total / (2 * math.pi * A.side**2)


def knot_trapezoid_linf(A, refinement=64):
    """The sup-norm pair density by trapezoid integration of the bilinear
    interpolant over the 1/N knots merged with a uniform refinement."""
    counts = pair_counts(A)
    N, S = A.N, A.side
    knots = np.unique(
        np.concatenate([np.arange(-N, N + 1) / N, np.linspace(-1.0, 1.0, refinement)])
    )
    ones = np.ones_like(knots)
    ix = float(np.trapezoid(bilinear_counts(counts, ones * N, knots * N) / S**2, knots))
    iy = float(np.trapezoid(bilinear_counts(counts, knots * N, ones * N) / S**2, knots))
    return (ix + iy) / 4.0 / A.density


def test_pair_counts_are_the_ordered_pair_counts():
    A = random_gridset(2, 3, p=0.5, seed=4)
    counts = pair_counts(A)
    for dx in range(A.side):
        for dy in range(A.side):
            shifted = np.roll(A.cells, (-dx, -dy), axis=(0, 1))
            assert counts[dx, dy] == np.count_nonzero(A.cells & shifted)


def test_direct_oracle_r0_is_density():
    A = random_gridset(3, 5, seed=2)
    assert pair_correlation_direct(A, 0.0) == A.density


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_direct_matches_midpoint_quadrature(seed):
    N = 2 + seed % 3
    K = 3 + seed % 2
    A = random_gridset(N, K, p=0.4, seed=40 + seed)
    S = A.side
    radii = (
        0.0,
        0.3,
        1.0 / N,            # rho = 1: the circle passes through lattice points
        2.0,                # rho = 2N: integer again
        1.96,
        (S / 2 + 0.7) / N,  # rho > S/2: the circle wraps around the torus
    )
    for r in radii:
        assert abs(pair_correlation_direct(A, r) - midpoint_circle_oracle(A, r)) <= 1e-12, r


def test_direct_matches_midpoint_quadrature_on_a_chunked_circle():
    # rho = 9000.3 > 2 * 4096: the quadrant is integrated in three chunks
    A = random_gridset(3, 4, p=0.4, seed=77)
    r = 3000.1
    assert abs(pair_correlation_direct(A, r) - midpoint_circle_oracle(A, r)) <= 1e-12


def test_direct_is_zero_at_unit_distance_on_the_disk_raster(disk128):
    A = disk128.grid  # 1-avoiding by construction
    assert pair_correlation_direct(A, 1.0) == 0.0
    assert pair_correlation_direct(A, 0.0) == A.density


def test_direct_accepts_an_array_of_radii():
    A = random_gridset(3, 4, p=0.4, seed=8)
    radii = np.array([0.0, 0.5, 1.0, 1.96])
    vals = pair_correlation_direct(A, radii)
    assert vals.shape == radii.shape
    assert list(vals) == [pair_correlation_direct(A, float(r)) for r in radii]
    with pytest.raises(DomainError):
        pair_correlation_direct(A, np.array([1.0, -0.5]))
    with pytest.raises(DomainError):
        pair_correlation_direct(A, math.inf)


def test_direct_vs_spectral_cross_oracle():
    # 20 random sets; the exact direct value lies inside the spectral rigor.
    for seed in range(20):
        N = 2 + seed % 3
        K = 3 + seed % 4
        A = random_gridset(N, K, p=0.4, seed=100 + seed)
        spec = spectrum_auto(A, r_min=0.25, tail_target=2e-4)
        for r in (0.25, 1.0, 1.96):
            ev = pair_correlation(spec, r)
            direct = pair_correlation_direct(A, r)
            assert abs(ev.value - direct) <= ev.rigor_bound + 1e-9


def one_term_closed_form(spec, r):
    """f(r) and its rigor bound written out for the single term J0(r t):
    truncation, the left-out mass (|J0| <= 1), J0 error, the rounding of the
    dot product with kappa (gamma_n sum kappa max|J0|, n = len(ms)) and FFT
    slack."""
    xi = (2.0 * math.pi / spec.K) * np.sqrt(np.asarray(spec.ms, dtype=float))
    value = float(j0_values(r * xi) @ spec.kappas)
    arg = r * (2.0 * math.pi / spec.K) * math.sqrt(spec.cutoff_m)
    nu = len(spec.ms) * 2.0**-53
    rigor = (
        spec.tail_mass * j0_envelope(arg)
        + spec.omitted_mass  # times max |J0| = 1
        + J0_ABS_ERROR * float(spec.kappas.sum())
        + nu / (1.0 - nu) * float(spec.kappas.sum()) * (1.0 + J0_ABS_ERROR)
        + torus.SPECTRUM_FFT_SLACK
    )
    return value, rigor


def test_pair_correlation_is_the_one_term_closed_form(disk128_spectrum):
    # f(r) goes through the profile kernel of the constraint rows; at the one
    # term J0(r t) it must still give these floats bit for bit
    spectra = [spectrum(random_gridset(2 + seed % 3, 4, p=0.4, seed=seed), cutoff)
               for seed in range(4) for cutoff in (50, 4000)]
    spectra.append(disk128_spectrum)
    rs = [float(r) for r in np.linspace(0.05, 4.0, 80)] + [1.0, 1.96]
    for spec in spectra:
        for r in rs:
            ev = pair_correlation(spec, r)
            assert (ev.value, ev.rigor_bound) == one_term_closed_form(spec, r), r


def test_pair_profile_charges_the_dot_product_with_kappa():
    # the float64 sum over kappa rounds at the scale of sum kappa |P|: with a
    # large constant in the profile it drifts past every other term of the
    # rigor, and gamma_n sum kappa (|const| + sum|c| (1 + J0 error)) covers it
    S = replace(spectrum(random_gridset(8, 4, p=0.4, seed=7), 4000), tail_mass=0.0)
    kappa_sum = float(S.kappas.sum())
    nu = len(S.ms) * 2.0**-53
    for const in (1e6, 1e9):
        value, rigor = torus._pair_profile(S, const, (1.0,), (1.0,))
        dot = nu / (1.0 - nu) * kappa_sum * (const + 1.0 + J0_ABS_ERROR)
        omitted = S.omitted_mass * (const + 1.0)
        want = omitted + J0_ABS_ERROR * kappa_sum + dot + torus.SPECTRUM_FFT_SLACK
        assert rigor == pytest.approx(want)
        profile = j0_combination((1.0,), (1.0,), S.frequency(S.ms), const)
        exact = sum(Fraction(a) * Fraction(k) for a, k in zip(profile.tolist(), S.kappas.tolist()))
        err = abs(Fraction(value) - exact)
        assert err <= dot
    assert err > rigor - dot  # without the charge, 1e9 would not be covered


def test_pair_correlation_charges_the_left_out_mass(monkeypatch):
    # kappa(2) planted just under tau on a half-torus stripe, whose kappa
    # off the squares m = a^2 are FFT noise near 1e-33: at small r, J0(r
    # xi_2) is near 1, so leaving kappa(2) out moves f by nearly tau.  The
    # budget is raised to 1e-6 so that tau stands above the 1e-10 FFT slack
    # every rigor bound carries.  The exact sum runs over the walked terms,
    # so the Spectrum is given no tail mass
    monkeypatch.setattr(torus, "OMIT_BUDGET", 1e-6)
    cells = np.zeros((10, 10), dtype=bool)
    cells[:5] = True
    A = GridSet(5, 2, cells)
    cutoff = 500
    kappa = np.zeros(cutoff + 1)
    torus._walk_disk(A, torus._power_spectrum(A, math.isqrt(cutoff)), kappa, -1, cutoff)
    kappa[[0, 2]] = 1.0  # kappa(0) = density^2 in _finish; any kappa(2) > 0, to count it
    kappa[2] = 0.999 * torus.OMIT_BUDGET / np.count_nonzero(kappa)
    spec = replace(torus._finish(A, kappa, cutoff), tail_mass=0.0)
    assert 2 not in spec.entries and 1 in spec.entries
    assert spec.omitted_mass >= kappa[2]
    ms = np.flatnonzero(kappa)
    xis = spec.frequency(ms).tolist()
    for r in (0.05, 0.2):
        ev = pair_correlation(spec, r)
        exact = sum(Fraction(k) * Fraction(j0_oracle(r * xi)) for k, xi in zip(kappa[ms], xis))
        gap = abs(Fraction(ev.value) - exact)
        assert gap <= ev.rigor_bound
        assert gap > ev.rigor_bound - spec.omitted_mass  # uncovered without the charge


def test_single_cell_vs_direct():
    cells = np.zeros((8, 8), dtype=bool)
    cells[0, 0] = True
    A = GridSet(4, 2, cells)
    spec = spectrum_auto(A, r_min=0.25, tail_target=1e-5)
    ev = pair_correlation(spec, 0.25)
    direct = pair_correlation_direct(A, 0.25)
    assert abs(ev.value - direct) <= ev.rigor_bound + 1e-9


def test_brute_force_equivalence_all_tiny_sets():
    # all 2^9 GridSets at N=1, K=3: spectral f(r) meets the direct value
    rs = (0.5, 1.0, 2.0)
    for mask in range(512):
        bits = [(mask >> i) & 1 for i in range(9)]
        A = GridSet.from_flat(np.array(bits, dtype=bool), 1, 3)
        if A.occupied == 0:
            continue
        spec = spectrum(A, 10_000)
        for r in rs:
            ev = pair_correlation(spec, r)
            direct = pair_correlation_direct(A, r)
            assert abs(ev.value - direct) <= ev.rigor_bound + 1e-9


def test_s_normalization_and_degenerate():
    A = GridSet.full(2, 4)
    assert s(A, 1.37, cutoff_m=100) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(DegenerateSetError):
        s(GridSet.empty(2, 4), 1.0, cutoff_m=100)


def test_checkerboard_shape_and_kappa0():
    A = checkerboard(2, 2)
    assert A.occupied == 4 and A.side == 4
    assert A.density == pytest.approx(0.25)
    for N in (2, 3, 8):
        spec = spectrum(checkerboard(N, 4), 64)
        assert spec.entries[0] == pytest.approx(1 / 16, abs=1e-12)
    with pytest.raises(DomainError):
        checkerboard(2, 3)


def test_linf_checkerboard_reference_values():
    assert linf_unit_pair_density(checkerboard(4, 4)) == pytest.approx(0.5, abs=1e-9)
    assert linf_unit_pair_density(checkerboard(5, 4)) == pytest.approx(0.0, abs=1e-9)
    assert linf_unit_pair_density(GridSet.full(3, 4)) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(DegenerateSetError):
        linf_unit_pair_density(GridSet.empty(3, 4))


def test_linf_matches_knot_trapezoid():
    for seed in range(8):
        A = random_gridset(1 + seed % 4, 1 + seed % 5, p=0.45, seed=60 + seed)
        if A.occupied == 0:
            continue
        assert abs(linf_unit_pair_density(A) - knot_trapezoid_linf(A)) <= 1e-12, seed


def test_gridset_file_roundtrip(tmp_path):
    A = random_gridset(3, 4, seed=9)
    p = tmp_path / "set.json"
    save_gridset(p, A)
    B = load_gridset(p)
    assert B.N == A.N and B.K == A.K
    assert np.array_equal(A.cells, B.cells)
    # byte-identical re-save
    text1 = p.read_text()
    save_gridset(p, B)
    assert p.read_text() == text1


def _gridset_doc(N, K, payload):
    return json.dumps({"schema_version": 1, "kind": "gridset", "K": K, "N": N,
                       "encoding": "rle0-leb128-base64", "payload": payload})


@pytest.mark.parametrize(
    "N, K, flat, payload",
    [
        # a first bit of 1 opens with a zero-length 0-run: runs 0, 1, 2, 1
        (1, 2, [1, 0, 0, 1], "AAECAQ=="),
        # runs 300 and 100; 300 takes the two-byte varint AC 02
        (4, 5, [0] * 300 + [1] * 100, "rAJk"),
    ],
    ids=["leading 1", "run of 300"],
)
def test_gridset_file_golden_payloads(tmp_path, N, K, flat, payload):
    A = GridSet.from_flat(np.array(flat, dtype=bool), N, K)
    p = tmp_path / "set.json"
    save_gridset(p, A)
    assert json.loads(p.read_text())["payload"] == payload
    assert np.array_equal(load_gridset(p).to_flat(), A.to_flat())


@pytest.mark.parametrize(
    "payload, message",
    [
        ("gA==", "truncated varint"),  # 80: continuation bit, no last byte
        ("BQ==", "longer than"),  # one 0-run of 5 bits on a 4-bit set
        ("Aw==", "shorter than"),  # one 0-run of 3 bits on a 4-bit set
        ("B*A==", "not base64"),  # without the '*' a 0-run of 4: an empty set
    ],
)
def test_gridset_payload_errors(tmp_path, payload, message):
    p = tmp_path / "bad.json"
    p.write_text(_gridset_doc(1, 2, payload))
    with pytest.raises(SchemaError, match=message):
        load_gridset(p)


def test_gridset_file_schema_errors(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{}")
    with pytest.raises(SchemaError):
        load_gridset(p)
    p.write_text('{"schema_version":1,"kind":"gridset","K":2,"N":1,"encoding":"rle0-leb128-base64","payload":"AA=="}')
    with pytest.raises(SchemaError):
        load_gridset(p)
