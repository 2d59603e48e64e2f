"""GridSet / Spectrum behavior against independent small-scale oracles."""

import math

import numpy as np
import pytest

from udsets.errors import DegenerateSetError, DomainError, SchemaError, WorkBudgetError
from udsets.gridio import load_gridset, save_gridset
from udsets.torus import (
    DirectCorrelator,
    GridSet,
    checkerboard,
    linf_unit_pair_density,
    pair_correlation,
    pair_correlation_direct,
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
    spec = spectrum(GridSet.full(2, 4), cutoff_m=50)
    assert spec.entries[0] == pytest.approx(1.0, abs=1e-12)
    assert spec.tail_mass <= 1e-12
    others = [v for m, v in spec.entries.items() if m > 0]
    assert all(abs(v) <= 1e-12 for v in others)
    ev = pair_correlation(spec, 1.234)
    assert ev.value == pytest.approx(1.0, abs=1e-9)


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
    assert float(spec.kappas.sum()) + spec.tail_mass == pytest.approx(
        A.density, abs=1e-9
    )


def test_plancherel_and_kappa0_random_sets():
    for seed in range(8):
        N = 1 + seed % 4
        K = 3 + seed % 5
        A = random_gridset(N, K, p=0.3 + 0.05 * seed, seed=seed)
        spec = spectrum(A, 2000)
        assert spec.entries[0] == pytest.approx(A.density**2, abs=1e-9)
        assert float(spec.kappas.sum()) + spec.tail_mass == pytest.approx(
            A.density, abs=1e-9
        )
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
    A = random_gridset(4, 4, seed=0)
    with pytest.raises(WorkBudgetError):
        spectrum(A, 10**9, work_budget=1e6)


def test_direct_oracle_r0_is_density():
    A = random_gridset(3, 5, seed=2)
    val = pair_correlation_direct(A, 0.0, angle_samples=16, rng_seed=0)
    assert val == pytest.approx(A.density, abs=1e-12)


def test_direct_vs_spectral_cross_oracle():
    # 20 random sets; the two pipelines agree within combined error bounds.
    for seed in range(20):
        N = 2 + seed % 3
        K = 3 + seed % 4
        A = random_gridset(N, K, p=0.4, seed=100 + seed)
        spec = spectrum_auto(A, r_min=0.25, tail_target=2e-4)
        for r in (0.25, 1.0, 1.96):
            ev = pair_correlation(spec, r)
            direct = pair_correlation_direct(A, r, angle_samples=4096, rng_seed=seed)
            # stratified-MC angular error allowance at 4096 strata
            assert abs(ev.value - direct) <= ev.rigor_bound + 2e-3


def test_single_cell_vs_direct():
    cells = np.zeros((8, 8), dtype=bool)
    cells[0, 0] = True
    A = GridSet(4, 2, cells)
    spec = spectrum_auto(A, r_min=0.25, tail_target=1e-5)
    ev = pair_correlation(spec, 0.25)
    direct = pair_correlation_direct(A, 0.25, angle_samples=8192, rng_seed=5)
    assert abs(ev.value - direct) <= ev.rigor_bound + 1e-4


def test_brute_force_equivalence_all_tiny_sets():
    # all 2^9 GridSets at N=1, K=3: spectral f(r) meets the direct oracle
    rs = (0.5, 1.0, 2.0)
    for mask in range(512):
        bits = [(mask >> i) & 1 for i in range(9)]
        A = GridSet.from_flat(np.array(bits, dtype=bool), 1, 3)
        if A.occupied == 0:
            continue
        spec = spectrum(A, 10_000)
        corr = DirectCorrelator(A)
        for r in rs:
            ev = pair_correlation(spec, r)
            theta = (np.arange(512) + 0.5) * (2 * math.pi / 512)
            direct = float(
                corr.autocorrelation(r * np.cos(theta), r * np.sin(theta)).mean()
            )
            assert abs(ev.value - direct) <= ev.rigor_bound + 2e-3


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
    with pytest.raises(DomainError):
        linf_unit_pair_density(checkerboard(4, 4), boundary_samples=3)


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


def test_gridset_file_schema_errors(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{}")
    with pytest.raises(SchemaError):
        load_gridset(p)
    p.write_text('{"schema_version":1,"kind":"gridset","K":2,"N":1,"encoding":"rle0-leb128-base64","payload":"AA=="}')
    with pytest.raises(SchemaError):
        load_gridset(p)
