"""K-periodic grid subsets of the square torus and their pair correlations.

A ``GridSet`` is a union of closed 1/N x 1/N cells on the K x K torus, stored
as a boolean array ``cells[j, k]`` for the cell [j/N,(j+1)/N] x [k/N,(k+1)/N].

Two independent pipelines compute the pair correlation f(r):

* spectral: the indicator's Fourier coefficients are exact products of a cell
  DFT (one FFT of the occupancy grid) and sinc factors, grouped by the squared
  lattice index m = a^2 + b^2, giving the radial mass function kappa(m); then
  f(r) = sum_m J0(r * (2 pi / K) sqrt(m)) kappa(m) with a rigorous truncation
  bound tail_mass * envelope(...).
* direct geometry: the autocorrelation of a cell union is the bilinear
  interpolation of the integer pair-count array (an exact identity, since the
  1D cell autocorrelation is the unit triangle), angle-averaged by seeded
  stratified sampling.

The pair-count array (``DirectCorrelator.counts``, one real FFT round trip)
is computed in one place: it feeds both the direct correlation here and the
internal edge counts of ``udgraph``, which read it at the graph's neighbor
offsets.

The spectral path produces certified `PairCorrEval`s; the direct path is the
cross-validation oracle.  Both are deterministic given their inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bessel import J0_ABS_ERROR, j0_envelope, j0_values
from .errors import DegenerateSetError, DomainError, WorkBudgetError

__all__ = [
    "GridSet",
    "Spectrum",
    "PairCorrEval",
    "DirectCorrelator",
    "spectrum",
    "spectrum_auto",
    "pair_correlation",
    "pair_correlation_direct",
    "s",
    "checkerboard",
    "linf_unit_pair_density",
    "random_gridset",
]

DEFAULT_WORK_BUDGET = 2.0e13
# slack charged for FFT roundoff in kappa sums (S <= ~8192, counts <= 2^26)
SPECTRUM_FFT_SLACK = 1.0e-10


@dataclass(frozen=True)
class GridSet:
    """A K-periodic, scale-1/N locally constant subset of the torus."""

    K: int
    N: int
    cells: np.ndarray  # bool, shape (N*K, N*K); first index is the x cell

    def __post_init__(self):
        if self.K < 1 or self.N < 1:
            raise DomainError("K and N must be positive integers")
        S = self.N * self.K
        # freeze a view: ascontiguousarray returns the caller's own array
        # when it is already a contiguous bool array
        cells = np.ascontiguousarray(self.cells, dtype=bool).view()
        if cells.shape != (S, S):
            raise DomainError(f"cells must have shape ({S}, {S})")
        cells.setflags(write=False)
        object.__setattr__(self, "cells", cells)

    @property
    def side(self) -> int:
        return self.N * self.K

    @property
    def occupied(self) -> int:
        return int(np.count_nonzero(self.cells))

    @property
    def density(self) -> float:
        return self.occupied / self.side**2

    def translate(self, dj: int, dk: int) -> "GridSet":
        return GridSet(self.K, self.N, np.roll(self.cells, (dj, dk), axis=(0, 1)))

    def to_flat(self) -> np.ndarray:
        """Row-major bit order with the x index major: index = j*S + k."""
        return self.cells.reshape(-1).copy()

    @classmethod
    def from_flat(cls, bits, N: int, K: int) -> "GridSet":
        S = N * K
        arr = np.asarray(bits, dtype=bool).reshape(S, S)
        return cls(K, N, arr)

    @classmethod
    def empty(cls, N: int, K: int) -> "GridSet":
        return cls(K, N, np.zeros((N * K, N * K), dtype=bool))

    @classmethod
    def full(cls, N: int, K: int) -> "GridSet":
        return cls(K, N, np.ones((N * K, N * K), dtype=bool))


@dataclass(frozen=True)
class Spectrum:
    """Radial Fourier mass kappa on squared lattice indices m = a^2 + b^2."""

    K: int
    ms: np.ndarray      # int64, sorted ascending, m with kappa(m) > 0
    kappas: np.ndarray  # float64, same length
    cutoff_m: int
    tail_mass: float
    density: float

    @property
    def entries(self) -> dict:
        return {int(m): float(k) for m, k in zip(self.ms, self.kappas)}

    def frequency(self, m) -> np.ndarray:
        """|xi| for squared index m on the dual lattice (2 pi / K) Z^2."""
        return (2.0 * math.pi / self.K) * np.sqrt(np.asarray(m, dtype=float))


@dataclass(frozen=True)
class PairCorrEval:
    r: float
    value: float
    rigor_bound: float


def _power_spectrum_lookup(A: GridSet):
    """|FFT(grid)|^2 with half-plane storage and a conjugate-symmetry lookup."""
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

    return lookup


def spectrum(A: GridSet, cutoff_m: int, work_budget: float = DEFAULT_WORK_BUDGET) -> Spectrum:
    """Radial spectrum of A up to squared lattice index cutoff_m.

    kappa(m) accumulates |1_A^(xi)|^2 over lattice points xi = (2 pi/K)(a, b)
    with a^2 + b^2 = m; the Fourier coefficient of each cell is closed form
    (cell DFT times two sinc factors), so the only numerical error is FFT
    roundoff.  tail_mass is density - sum(kappa), exact by Plancherel.
    """
    if cutoff_m < 1:
        raise DomainError("cutoff_m must be >= 1")
    S = A.side
    if cutoff_m * (S * S) > work_budget:
        raise WorkBudgetError(
            f"cutoff_m * (NK)^2 = {cutoff_m * S * S:.3g} exceeds work budget {work_budget:.3g}"
        )
    lookup = _power_spectrum_lookup(A)
    amax = math.isqrt(cutoff_m)
    ax = np.arange(-amax, amax + 1, dtype=np.int64)
    aa, bb = np.meshgrid(ax, ax, indexing="ij")
    m = (aa * aa + bb * bb).ravel()
    keep = m <= cutoff_m
    aa = aa.ravel()[keep]
    bb = bb.ravel()[keep]
    m = m[keep]
    norm = 1.0 / (A.K**2 * A.N**2)
    sincs = np.sinc(aa / S) * np.sinc(bb / S)
    power = lookup(aa, bb) * (norm * sincs) ** 2
    kappa_by_m = np.bincount(m, weights=power, minlength=int(cutoff_m) + 1)
    dens = A.density
    kappa_by_m[0] = dens * dens  # closed form; the FFT DC term equals it to 1 ulp
    ms = np.nonzero(kappa_by_m)[0].astype(np.int64)
    kappas = kappa_by_m[ms]
    tail = dens - float(kappas.sum())
    if tail < 0.0:
        # Plancherel forbids this beyond roundoff
        if tail < -1e-9:
            raise AssertionError(f"negative tail mass {tail}: spectrum bug")
        tail = 0.0
    return Spectrum(A.K, ms, kappas, int(cutoff_m), tail, dens)


def spectrum_auto(
    A: GridSet,
    r_min: float = 0.5,
    tail_target: float = 1e-4,
    initial_cutoff: int = 4096,
    work_budget: float = DEFAULT_WORK_BUDGET,
) -> Spectrum:
    """Spectrum with cutoff escalated until tail * envelope(r_min ...) <= target.

    Stops early at the work budget; the returned rigor bounds stay valid
    either way, just wider.
    """
    cutoff = initial_cutoff
    spec = spectrum(A, cutoff, work_budget)
    while True:
        arg = r_min * (2.0 * math.pi / A.K) * math.sqrt(spec.cutoff_m)
        env = 1.0 if arg <= 0 else j0_envelope(arg)
        if spec.tail_mass * env <= tail_target:
            return spec
        cutoff *= 4
        if cutoff * A.side**2 > work_budget:
            return spec
        spec = spectrum(A, cutoff, work_budget)


def pair_correlation(S: Spectrum, r: float) -> PairCorrEval:
    """f(r) from the spectrum, with a rigorous truncation + evaluation bound."""
    if not math.isfinite(r) or r < 0:
        raise DomainError("r must be finite and >= 0")
    if r == 0.0:
        return PairCorrEval(0.0, S.density, 0.0)
    args = r * S.frequency(S.ms)
    value = float(j0_values(args) @ S.kappas)
    tail_arg = r * (2.0 * math.pi / S.K) * math.sqrt(S.cutoff_m)
    env = 1.0 if tail_arg <= 0 else j0_envelope(tail_arg)
    rigor = (
        S.tail_mass * env + J0_ABS_ERROR * float(S.kappas.sum()) + SPECTRUM_FFT_SLACK
    )
    return PairCorrEval(r, value, rigor)


class DirectCorrelator:
    """Exact autocorrelation of a GridSet via the integer pair-count array.

    counts[dx, dy] is the number of ordered occupied cell pairs at cyclic cell
    offset (dx, dy); the autocorrelation at a real shift is the bilinear
    interpolation of counts divided by (NK)^2.
    """

    def __init__(self, A: GridSet):
        self.A = A
        self.S = A.side
        F = np.fft.rfft2(A.cells.astype(np.float64))
        counts = np.fft.irfft2(np.abs(F) ** 2, s=(self.S, self.S))
        self.counts = np.rint(counts)
        if not np.all(np.abs(counts - self.counts) < 0.4):
            raise AssertionError("pair-count FFT roundtrip lost integrality")

    def shift_value(self, sx, sy) -> np.ndarray:
        """delta(A ∩ (A - x)) for x = (sx, sy)/N given in cell units."""
        S = self.S
        sx = np.asarray(sx, dtype=float)
        sy = np.asarray(sy, dtype=float)
        i0 = np.floor(sx).astype(np.int64)
        j0_ = np.floor(sy).astype(np.int64)
        fx = sx - i0
        fy = sy - j0_
        i0 %= S
        j0_ %= S
        i1 = (i0 + 1) % S
        j1 = (j0_ + 1) % S
        c = self.counts
        B = (
            c[i0, j0_] * (1 - fx) * (1 - fy)
            + c[i1, j0_] * fx * (1 - fy)
            + c[i0, j1] * (1 - fx) * fy
            + c[i1, j1] * fx * fy
        )
        return B / (S * S)

    def autocorrelation(self, x, y) -> np.ndarray:
        """delta(A ∩ (A - (x, y))) for shifts given in torus length units."""
        return self.shift_value(np.asarray(x) * self.A.N, np.asarray(y) * self.A.N)


def pair_correlation_direct(
    A: GridSet, r: float, angle_samples: int = 4096, rng_seed: int = 0
) -> float:
    """Angle-averaged autocorrelation at radius r (stratified Monte Carlo).

    Each sampled angle is evaluated exactly from cell geometry; only the
    angular average is sampled.  Cross-validation oracle for the spectral
    pipeline; deterministic given rng_seed.
    """
    if angle_samples < 1:
        raise DomainError("angle_samples must be >= 1")
    if not math.isfinite(r) or r < 0:
        raise DomainError("r must be finite and >= 0")
    corr = DirectCorrelator(A)
    rng = np.random.default_rng(rng_seed)
    theta = (np.arange(angle_samples) + rng.random(angle_samples)) * (
        2.0 * math.pi / angle_samples
    )
    vals = corr.autocorrelation(r * np.cos(theta), r * np.sin(theta))
    return float(vals.mean())


def s(A, r: float, cutoff_m: int | None = None) -> float:
    """Normalized pair correlation s(r) = f(r) / density^2.

    Accepts a GridSet (spectrum computed with the default cutoff policy) or a
    precomputed Spectrum.
    """
    if isinstance(A, GridSet):
        if A.occupied == 0:
            raise DegenerateSetError("s(r) undefined for density 0")
        spec = spectrum(A, cutoff_m) if cutoff_m is not None else spectrum_auto(A)
    elif isinstance(A, Spectrum):
        spec = A
        if spec.density == 0.0:
            raise DegenerateSetError("s(r) undefined for density 0")
    else:
        raise TypeError("s expects a GridSet or Spectrum")
    return pair_correlation(spec, r).value / spec.density**2


def checkerboard(N: int, K: int) -> GridSet:
    """Cells with both indices even; needs even K to stay periodic."""
    if K % 2 != 0:
        raise DomainError("checkerboard requires even K")
    S = N * K
    j = np.arange(S)
    cells = ((j % 2 == 0)[:, None]) & ((j % 2 == 0)[None, :])
    return GridSet(K, N, cells)


def linf_unit_pair_density(A: GridSet, boundary_samples: int = 64) -> float:
    """Mean autocorrelation over the sup-norm unit sphere, normalized by density.

    The integrand is piecewise linear in the edge parameter with breakpoints
    on the 1/N grid, so trapezoid integration over the breakpoint knots is
    exact; boundary_samples only adds (harmless) uniform refinement.
    """
    if boundary_samples < 4:
        raise DomainError("boundary_samples must be >= 4")
    if A.occupied == 0:
        raise DegenerateSetError("undefined for the empty set")
    corr = DirectCorrelator(A)
    N = A.N

    knots = np.unique(
        np.concatenate(
            [
                np.arange(-N, N + 1) / N,
                np.linspace(-1.0, 1.0, boundary_samples),
            ]
        )
    )

    def edge_integral(fvals):
        return float(np.trapezoid(fvals, knots))

    ix = edge_integral(corr.autocorrelation(np.ones_like(knots), knots))
    iy = edge_integral(corr.autocorrelation(knots, np.ones_like(knots)))
    mean_over_sphere = (ix + iy) / 4.0  # opposite edges equal by symmetry
    return mean_over_sphere / A.density


def random_gridset(N: int, K: int, p: float = 0.5, seed: int = 0) -> GridSet:
    """IID Bernoulli(p) occupancy; the standard random test set."""
    rng = np.random.default_rng(seed)
    S = N * K
    return GridSet(K, N, rng.random((S, S)) < p)
