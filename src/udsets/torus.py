"""K-periodic grid subsets of the square torus and their pair correlations.

A ``GridSet`` is a union of closed 1/N x 1/N cells on the K x K torus, stored
as a boolean array ``cells[j, k]`` for the cell [j/N,(j+1)/N] x [k/N,(k+1)/N].

Two independent pipelines compute the pair correlation f(r):

* spectral: the indicator's Fourier coefficients are exact products of a cell
  DFT (one FFT of the occupancy grid) and sinc factors, grouped by the squared
  lattice index m = a^2 + b^2, giving the radial mass function kappa(m); then
  f(r) = sum_m J0(r * (2 pi / K) sqrt(m)) kappa(m) with a rigorous truncation
  bound tail_mass * envelope(...), the one-term case of the kernel that pairs
  the registry's profiles with kappa (one rigor formula for both; a profile's
  constant is exact).  A real set's power is even, |F(-xi)|^2 = |F(xi)|^2,
  so the walk visits one point of each pair +-xi of the lattice disk
  a^2 + b^2 <= cutoff, the half plane a > 0 or a = 0 < b, and adds twice its
  power; it goes row by row in blocks of SPECTRUM_BLOCK points.  It reads
  only the columns |q| <= isqrt(cutoff) of the half-plane transform, so only
  those are transformed, and only its rows a with min(a, S - a) <=
  isqrt(cutoff) keep their power (FFT pruning, Markel 1971); a raster row
  that repeats an earlier one is not transformed again.  Memory is
  O(cutoff) for kappa, the (distinct rows) x (min(isqrt(cutoff), S/2) + 1)
  complex row transform, one gathered block of S rows, the power of the
  kept rows and one bounded block of the walk; cutoffs stop at
  MAX_CUTOFF_M = 2^26.
  ``spectrum_auto`` grows the cutoff by walking only the new annulus.  A
  Spectrum keeps kappa(0) and the kappa(m) >= tau = OMIT_BUDGET / (number of
  nonzero kappa) only, so f(r) evaluates J0 where the mass is: of the 55,141
  nonzero kappa of the 4864^2 hex-disk raster at cutoff 240,000, 4,854
  stay.  The mass left out, below OMIT_BUDGET, is recorded as omitted_mass
  and charged to every f(r) and profile at |J0| <= 1.
* direct geometry: the autocorrelation of a cell union is the bilinear
  interpolation of the integer pair-count array (an exact identity, since the
  1D cell autocorrelation is the unit triangle).  Its circle average is
  integrated in closed form, arc by arc between the circle's grid-line
  crossings, and its sup-norm sphere average is an exact trapezoid sum over
  the 1/N knots; both are exact up to float roundoff.

The pair-count array (``pair_counts``, one real FFT round trip) is computed
in one place: it feeds both direct averages here and the internal edge
counts of ``udgraph``, which read it at the graph's neighbor offsets.

The spectral path produces certified `PairCorrEval`s; the direct path is the
exact cross-validation oracle.  Both are deterministic given their inputs.
f(r) and the profile values, sums of kappa(m) P(|xi_m|), are added by
numpy's own pairwise sum, never by BLAS, and J0 keeps every bit on any
number of threads, so their floats depend neither on the BLAS thread count
nor on the CPUs the process may run on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bessel import J0_ABS_ERROR, j0_combination, j0_combination_error, j0_envelope
from .errors import DegenerateSetError, DomainError, WorkBudgetError

__all__ = [
    "GridSet",
    "Spectrum",
    "PairCorrEval",
    "spectrum",
    "spectrum_auto",
    "pair_correlation",
    "pair_correlation_direct",
    "pair_counts",
    "s",
    "checkerboard",
    "linf_unit_pair_density",
    "random_gridset",
]

DEFAULT_WORK_BUDGET = 2.0e13
# slack charged for FFT roundoff in kappa sums (S <= ~8192, counts <= 2^26)
SPECTRUM_FFT_SLACK = 1.0e-10
# largest cutoff_m: its kappa array alone takes 8 (cutoff_m + 1) bytes, 512 MiB
MAX_CUTOFF_M = 2**26
# the first cutoff spectrum_auto walks before escalating by x4
AUTO_INITIAL_CUTOFF = 4096
# lattice points per block of the disk walk; blocks hold whole row segments,
# and a row has at most 2 isqrt(MAX_CUTOFF_M) + 1 = 16385 points.  Also the
# nonzero kappa per chunk of _finish's in-place compaction
SPECTRUM_BLOCK = 2**16
# budget B of the left-out kappa: a Spectrum keeps kappa(m) >= B / (number
# of nonzero kappa), so the mass it leaves out is below B
OMIT_BUDGET = 1.0e-13
# raster rows per block of the row transform in _power_spectrum, and
# transform columns per block of its column transform
SPECTRUM_FFT_BLOCK = 64


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
    ms: np.ndarray      # int64, sorted ascending, m with kappa(m) >= tau, and m = 0
    kappas: np.ndarray  # float64, same length
    cutoff_m: int
    tail_mass: float      # density - sum of every nonzero kappa(m <= cutoff_m)
    omitted_mass: float   # bound on the sum of the nonzero kappa below tau
    density: float

    @property
    def entries(self) -> dict:
        return {int(m): float(k) for m, k in zip(self.ms, self.kappas)}

    def frequency(self, m) -> np.ndarray:
        """|xi| for squared index m on the dual lattice (2 pi / K) Z^2."""
        # one new array, its square root and scaling in place: the bits of
        # (2 pi / K) sqrt(m)
        xi = np.array(m, dtype=float)
        np.sqrt(xi, out=xi)
        xi *= 2.0 * math.pi / self.K
        return xi[()]  # a scalar m gives a scalar


@dataclass(frozen=True)
class PairCorrEval:
    r: float
    value: float
    rigor_bound: float


def _distinct_rows(cells: np.ndarray):
    """(distinct, row_id): the first raster row of each distinct row content,
    ascending, and for every row the place of its content in ``distinct``.

    Rows are keyed by their ``np.packbits`` bytes, so equal keys are equal
    rows.  The rows are packed in one pass, and each key is sliced from the
    packed bytes as it is looked up, so only the keys of distinct rows are
    held at once.
    """
    packed = np.packbits(cells, axis=1)
    n = packed.shape[1]
    flat = packed.tobytes()
    first = {}
    source = [first.setdefault(flat[i * n : (i + 1) * n], i) for i in range(len(cells))]
    return np.unique(source, return_inverse=True)


def _power_spectrum(A: GridSet, qmax: int) -> np.ndarray:
    """|FFT(cells)|^2 at the frequencies (a, q) of the half plane with
    min(a, S - a) <= qmax and q <= min(qmax, S/2).

    The kept rows a come in ascending order: all S of them when 2 qmax + 1
    >= S, else a <= qmax and then a >= S - qmax (``_p2_rows`` maps a row to
    its place).  The 1-D transforms of numpy's 2-D real FFT, so the kept
    entries equal its own bit for bit: a real FFT along each distinct raster
    row, run SPECTRUM_FFT_BLOCK rows at a time and cut to the kept columns
    into a table with one row per distinct row (FFT pruning, Markel 1971:
    only the outputs read and only the distinct inputs), then a complex FFT
    down SPECTRUM_FFT_BLOCK of those columns at a time, each block's S rows
    gathered from the table (the table itself when every row is distinct),
    whose kept rows are squared straight into the compact result.  Beside
    the result, memory is the table, (distinct rows) x (kept columns)
    complex, and one gathered block of S rows with its transform.
    """
    S = A.side
    width = min(qmax, S // 2) + 1
    lo = min(qmax, S - 1) + 1  # rows 0 <= a < lo, then the rows a >= hi
    hi = max(S - qmax, lo)
    step = SPECTRUM_FFT_BLOCK
    distinct, row_id = _distinct_rows(A.cells)
    table = np.empty((distinct.size, width), dtype=np.complex128)
    for i in range(0, distinct.size, step):
        block = slice(i, i + step)
        table[block] = np.fft.rfft(A.cells[distinct[block]].astype(np.float64), axis=1)[:, :width]
    P2 = np.empty((lo + S - hi, width))
    for j in range(0, width, step):
        cols = slice(j, j + step)
        rows = table[:, cols] if distinct.size == S else table[row_id, cols]
        transform = np.fft.fft(rows, axis=0)
        del rows  # before the next block is gathered
        np.abs(transform[:lo], out=P2[:lo, cols])
        np.abs(transform[hi:], out=P2[lo:, cols])
        del transform  # before the next block's transform is made
    return np.square(P2, out=P2)


def _p2_rows(S: int, P2: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The rows of P2 that hold the rows a (0 <= a < S) of the half plane.

    P2 keeps the rows min(a, S - a) <= (len(P2) - 1) // 2, in ascending
    order (all of them when len(P2) = S), so the rows above that bound
    move down by the S - len(P2) rows left out.
    """
    n = P2.shape[0]
    return np.where(a > (n - 1) // 2, a - (S - n), a)


def _isqrt(n: np.ndarray) -> np.ndarray:
    """floor(sqrt(n)) for an int64 array n >= 0, corrected to be exact."""
    r = np.sqrt(n).astype(np.int64)
    r -= r * r > n
    r += (r + 1) * (r + 1) <= n
    return r


def _walk_disk(A: GridSet, P2: np.ndarray, kappa: np.ndarray, c_lo: int, c_hi: int) -> None:
    """Add the power of every lattice point with c_lo < a^2 + b^2 <= c_hi,
    except the origin, into kappa[a^2 + b^2].

    A real set's power is even, |F(-xi)|^2 = |F(xi)|^2, so the walk visits one
    point of each pair +-xi, the half plane a > 0 or a = 0 < b, and adds twice
    its power; doubling is exact.  It visits rows a = 0, 1, ... and b in
    ascending order within a row: one segment per row, or two (b < 0 and
    b > 0) when the row crosses the inner circle; row 0 keeps only b > 0.
    Whole segments are grouped into blocks of about SPECTRUM_BLOCK points,
    and ``np.add.at`` adds a block one point at a time, so every bucket
    receives its terms in row-major order whatever the blocks or the annuli.
    A point's power is P2 at its half-plane image times the squared sinc
    factors, read from 1-D tables over the coordinates.  P2 is a
    ``_power_spectrum`` for some qmax >= isqrt(c_hi): an image's column is at
    most min(isqrt(c_hi), S/2), and its row a has min(a, S - a) <=
    isqrt(c_hi), so it is kept; ``_p2_rows`` finds it from P2's own length.
    """
    S = A.side
    half = S // 2 + 1
    width = P2.shape[1]
    norm = 1.0 / (A.K**2 * A.N**2)
    amax = math.isqrt(c_hi)
    ax = np.arange(-amax, amax + 1, dtype=np.int64)  # coordinate x sits at x + amax
    sinc = np.sinc(ax / S)
    sq = ax * ax
    # half-plane image of (a, b): P2[a mod S, b mod S] when b mod S <= S/2,
    # else P2[-a mod S, S - b mod S] by conjugate symmetry; rows as flat offsets
    q = ax % S
    flip = (q >= half).astype(np.int64)
    col = np.where(flip, S - q, q)
    row_pair = np.stack([_p2_rows(S, P2, ax % S), _p2_rows(S, P2, -ax % S)], axis=1)
    row_pair = row_pair.reshape(-1) * width
    power_flat = P2.reshape(-1)
    # per row a >= 0: |b| <= b_hi is inside c_hi, |b| <= b_lo (-1: none) inside c_lo
    a_sq = sq[amax:]
    b_hi = _isqrt(c_hi - a_sq)
    inner = a_sq <= c_lo
    b_lo = np.full_like(a_sq, -1)
    b_lo[inner] = _isqrt(c_lo - a_sq[inner])
    # segment 2a runs over b in [-b_hi, -b_lo - 1] and segment 2a + 1 over
    # [max(b_lo, 0) + 1, b_hi]; row 0 has no segment 0, so b <= 0 is skipped
    b_mid = np.maximum(b_lo, 0)
    starts = np.stack([amax - b_hi, amax + b_mid + 1], axis=1).reshape(-1)
    lens = np.stack([b_hi - b_lo, b_hi - b_mid], axis=1).reshape(-1)
    lens[0] = 0
    rows = np.repeat(np.arange(amax, ax.size), 2)
    ends = np.cumsum(lens)
    block_of = (ends - lens) // SPECTRUM_BLOCK
    edges = np.concatenate([[0], np.flatnonzero(np.diff(block_of)) + 1, [lens.size]])
    for j0, j1 in zip(edges[:-1], edges[1:]):
        n = lens[j0:j1]
        a = rows[j0:j1]
        b = np.arange(int(n.sum())) + np.repeat(starts[j0:j1] - (np.cumsum(n) - n), n)
        sincs = np.repeat(sinc[a], n) * sinc[b]
        image = row_pair[np.repeat(2 * a, n) + flip[b]] + col[b]
        power = power_flat[image] * (norm * sincs) ** 2
        power *= 2.0
        np.add.at(kappa, np.repeat(sq[a], n) + sq[b], power)


def _check_cutoff(A: GridSet, cutoff_m: int) -> None:
    if cutoff_m < 1:
        raise DomainError("cutoff_m must be >= 1")
    S = A.side
    if cutoff_m * (S * S) > DEFAULT_WORK_BUDGET:
        raise WorkBudgetError(
            f"cutoff_m * (NK)^2 = {cutoff_m * S * S:.3g} exceeds work budget "
            f"{DEFAULT_WORK_BUDGET:.3g}"
        )
    if cutoff_m > MAX_CUTOFF_M:
        raise WorkBudgetError(
            f"cutoff_m = {cutoff_m} exceeds MAX_CUTOFF_M = {MAX_CUTOFF_M}: kappa alone "
            f"would take {8 * (cutoff_m + 1) / 2**20:.0f} MiB"
        )


def _finish(A: GridSet, kappa_by_m: np.ndarray, cutoff_m: int) -> Spectrum:
    """The Spectrum of a walked disk: kappa(0) in closed form, tail by
    Plancherel over every nonzero kappa, then only kappa(0) and the kappa(m)
    >= tau = OMIT_BUDGET / (number of nonzero kappa) kept.

    The left-out kappa number fewer than the nonzero ones and each is below
    tau, so their mass is below OMIT_BUDGET with no sort.  Their float sum,
    in chunks, is off by at most gamma_n of itself for n terms (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002, section
    4.2), so omitted_mass is that sum times 1 + 2 gamma_n >= 1 / (1 -
    gamma_n), rounded one ulp up.  The kept entries move to the front of
    the nonzero arrays in place, SPECTRUM_BLOCK at a time: copying the kept
    entries out while the full arrays live raised the peak RSS of a deep
    spectrum by 5-11 %.  Only when at most half of them stay are they copied
    out of the nonzero arrays, so a sparse Spectrum does not pin the full
    ones.  kappa_by_m is read, never pruned: spectrum_auto grows it across
    escalations.
    """
    dens = A.density
    kappa_by_m[0] = dens * dens  # closed form; the FFT DC term equals it to 1 ulp
    ms = np.nonzero(kappa_by_m)[0]  # intp: int64 on the platforms numpy 2 supports
    kappas = kappa_by_m[ms]
    tail = dens - float(kappas.sum())
    if tail < 0.0:
        # Plancherel forbids this beyond roundoff
        if tail < -1e-9:
            raise AssertionError(f"negative tail mass {tail}: spectrum bug")
        tail = 0.0
    kept = dropped = 0
    omitted = 0.0
    if ms.size:  # the empty set has no nonzero kappa
        tau = OMIT_BUDGET / ms.size
        for i in range(0, ms.size, SPECTRUM_BLOCK):
            chunk = kappas[i : i + SPECTRUM_BLOCK]
            keep = chunk >= tau
            keep[0] |= i == 0  # ms[0] = 0: kappa(0) = density^2 > 0 stays
            n = int(np.count_nonzero(keep))
            omitted += float(chunk[~keep].sum())
            # the kept entries of a chunk are copied out before they land at
            # or before it, so no entry is overwritten before it is read
            ms[kept : kept + n] = ms[i : i + SPECTRUM_BLOCK][keep]
            kappas[kept : kept + n] = chunk[keep]
            kept += n
            dropped += chunk.size - n
    if dropped:
        nu = dropped * 2.0**-53
        omitted = math.nextafter(omitted * (1.0 + 2.0 * nu / (1.0 - nu)), math.inf)
    if 2 * kept <= ms.size:  # views of the few kept would pin the full arrays
        ms, kappas = ms[:kept].copy(), kappas[:kept].copy()
    else:
        ms, kappas = ms[:kept], kappas[:kept]
    return Spectrum(A.K, ms, kappas, int(cutoff_m), tail, omitted, dens)


def spectrum(A: GridSet, cutoff_m: int) -> Spectrum:
    """Radial spectrum of A up to squared lattice index cutoff_m.

    kappa(m) accumulates |1_A^(xi)|^2 over lattice points xi = (2 pi/K)(a, b)
    with a^2 + b^2 = m; the Fourier coefficient of each cell is closed form
    (cell DFT times two sinc factors), so the only numerical error is FFT
    roundoff.  The points xi and -xi have the same power, so each pair adds
    twice the power of its point in the half plane a > 0 or a = 0 < b.
    tail_mass is density - sum(kappa) over every nonzero kappa, exact by
    Plancherel.  Only kappa(0) and the kappa(m) >= OMIT_BUDGET / (number of
    nonzero kappa) are kept in ms and kappas; omitted_mass bounds the sum of
    the rest, so sum(kappas) + tail_mass + omitted_mass = density up to
    rounding (``_finish``).

    That half of the disk a^2 + b^2 <= cutoff_m is walked row by row in
    bounded blocks (``_walk_disk``), so memory is the kappa array,
    8 (cutoff_m + 1) bytes, one block of SPECTRUM_BLOCK points, and the
    D x W complex row transform of the D distinct raster rows (D <= S = NK),
    W = min(isqrt(cutoff_m), S/2) + 1, plus the power P2 of its
    min(2 isqrt(cutoff_m) + 1, S) rows the walk reads and one block of
    SPECTRUM_FFT_BLOCK rows, or of as many columns gathered to S rows.  Cutoffs
    above MAX_CUTOFF_M raise WorkBudgetError before anything is allocated,
    as do cutoffs with cutoff_m * (NK)^2 above DEFAULT_WORK_BUDGET.
    """
    _check_cutoff(A, cutoff_m)
    # before kappa, so the FFT's peak does not hold it
    P2 = _power_spectrum(A, math.isqrt(cutoff_m))
    kappa_by_m = np.zeros(int(cutoff_m) + 1)
    _walk_disk(A, P2, kappa_by_m, -1, cutoff_m)
    return _finish(A, kappa_by_m, cutoff_m)


def spectrum_auto(A: GridSet, r_min: float = 0.5, tail_target: float = 1e-4) -> Spectrum:
    """Spectrum with cutoff escalated until tail * envelope(r_min ...) <= target.

    Starts at cutoff AUTO_INITIAL_CUTOFF = 4096; each x4 escalation walks only
    the new annulus of lattice points into the grown kappa array, reusing the
    power spectrum P2, which keeps the rows and columns of the largest cutoff
    the escalation can reach; a smaller annulus reads a subset of them.  A
    bucket m only receives points with a^2 + b^2 = m, all in one annulus and
    in row-major order, so the result is bit for bit
    ``spectrum(A, result.cutoff_m)``.  Stops early at DEFAULT_WORK_BUDGET or
    at MAX_CUTOFF_M; the returned rigor bounds stay valid either way, just
    wider.
    """
    _check_cutoff(A, AUTO_INITIAL_CUTOFF)
    cutoffs = [AUTO_INITIAL_CUTOFF]
    while 4 * cutoffs[-1] <= MAX_CUTOFF_M and 4 * cutoffs[-1] * A.side**2 <= DEFAULT_WORK_BUDGET:
        cutoffs.append(4 * cutoffs[-1])
    P2 = _power_spectrum(A, math.isqrt(cutoffs[-1]))
    kappa_by_m = np.zeros(0)
    walked = -1
    for cutoff in cutoffs:
        kappa_by_m = np.concatenate([kappa_by_m, np.zeros(cutoff - walked)])
        _walk_disk(A, P2, kappa_by_m, walked, cutoff)
        walked = cutoff
        spec = _finish(A, kappa_by_m, cutoff)
        arg = r_min * (2.0 * math.pi / A.K) * math.sqrt(spec.cutoff_m)
        env = 1.0 if arg <= 0 else j0_envelope(arg)
        if spec.tail_mass * env <= tail_target:
            break
    return spec


def _dot_error(n: int, kappa_sum: float, const: float, coeffs) -> float:
    """Rounding bound of the float64 dot product of n profile values with
    kappa >= 0: gamma_n sum_m kappa(m) |P(|xi_m|)|, gamma_n = n u / (1 - n u)
    and u = 2^-53, in any summation order (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., 2002, section 3.1), with each value
    |P| <= |const| + sum |c_i| (1 + J0_ABS_ERROR).  ``_pair_profile`` sums
    the products with numpy's pairwise ``np.add.reduce``, whose order no
    thread count changes; the bound would hold for any other order too."""
    nu = n * 2.0**-53
    values = abs(const) + float(np.abs(coeffs).sum()) * (1.0 + J0_ABS_ERROR)
    return nu / (1.0 - nu) * kappa_sum * values


def _pair_profile(S: Spectrum, const: float, radii, coeffs):
    """(sum_m kappa(m) P(|xi_m|), rigor) for P(t) = const + sum_i c_i J0(r_i t),
    every r_i > 0: the tail mass meets |P| <= |const| + sum |c_i| env(r_i
    |xi_cut|), the left-out mass |P| <= |const| + sum |c_i| (|J0| <= 1),
    only the J0 terms carry Bessel error (J0(0) = 1 is exact), and the dot
    product with kappa is charged its rounding (``_dot_error``)."""
    vals = j0_combination(radii, coeffs, S.frequency(S.ms), const)
    vals *= S.kappas
    value = float(np.add.reduce(vals))  # numpy's pairwise sum, not BLAS
    args = [r * (2.0 * math.pi / S.K) * math.sqrt(S.cutoff_m) for r in radii]
    osc = sum(abs(c) * (j0_envelope(a) if a > 0 else 1.0) for a, c in zip(args, coeffs))
    kappa_sum = float(S.kappas.sum())
    rigor = (
        S.tail_mass * (abs(const) + osc)
        + S.omitted_mass * (abs(const) + float(np.abs(coeffs).sum()))
        + j0_combination_error(coeffs) * kappa_sum
        + _dot_error(len(S.ms), kappa_sum, const, coeffs)
        + SPECTRUM_FFT_SLACK
    )
    return value, float(rigor)


def pair_correlation(S: Spectrum, r: float) -> PairCorrEval:
    """f(r) from the spectrum, with a rigorous truncation + evaluation bound."""
    if not math.isfinite(r) or r < 0:
        raise DomainError("r must be finite and >= 0")
    if r == 0.0:
        return PairCorrEval(0.0, S.density, 0.0)
    return PairCorrEval(r, *_pair_profile(S, 0.0, (r,), (1.0,)))


def pair_counts(A: GridSet) -> np.ndarray:
    """Integer pair-count array of A (one real FFT round trip).

    counts[dx, dy] is the number of ordered occupied cell pairs at cyclic cell
    offset (dx, dy), held as exact float64 integers.  Its bilinear
    interpolation divided by (NK)^2 is the autocorrelation delta(A ∩ (A - x))
    at every real shift x = (dx, dy)/N.
    """
    S = A.side
    raw = np.fft.irfft2(_power_spectrum(A, S // 2), s=(S, S))
    counts = np.rint(raw)
    raw -= counts  # checked in place: no S x S temporaries beyond these two
    np.abs(raw, out=raw)
    if not np.all(raw < 0.4):
        raise AssertionError("pair-count FFT roundtrip lost integrality")
    return counts


def _circle_integral(counts: np.ndarray, rho: float) -> float:
    """Integral over theta in [0, 2 pi) of the bilinear interpolant of counts
    at (rho cos theta, rho sin theta), in cell units.

    counts[-d] = counts[d], so the circle is twice the first quadrant plus
    twice its mirror image x -> -x.  The quadrant is cut where it crosses the
    grid lines, in angular chunks of about 8192 arcs at most, so memory stays
    bounded at any radius.  On each arc (midpoint angle m, half-width h) the
    interpolant is a + b u + c v + d u v in the cell coordinates (u, v),
    integrated in closed form about the arc midpoint (u_m, v_m), so every
    term stays of the size of the arc.
    """
    S = counts.shape[0]
    edges = np.linspace(0.0, 0.5 * math.pi, 2 + int(rho) // 4096)
    total = 0.0
    for t0, t1 in zip(edges[:-1], edges[1:]):
        xs = np.arange(math.ceil(rho * math.cos(t1)), math.floor(rho * math.cos(t0)) + 1)
        ys = np.arange(math.ceil(rho * math.sin(t0)), math.floor(rho * math.sin(t1)) + 1)
        cuts = np.concatenate([[t0, t1], np.arccos(xs / rho), np.arcsin(ys / rho)])
        cuts = np.unique(np.clip(cuts, t0, t1))
        m, h = 0.5 * (cuts[:-1] + cuts[1:]), 0.5 * np.diff(cuts)
        cm, sm = np.cos(m), np.sin(m)
        i0, j0 = np.floor(rho * cm), np.floor(rho * sm)
        um, vm = rho * cm - i0, rho * sm - j0
        # integrals over t in [-h, h] of cos t - 1 and of (cos t - 1)^2 - sin^2 t
        sin_h = np.sin(h)
        e1 = 2.0 * (sin_h - h)
        q = -e1 - 4.0 * sin_h * np.sin(0.5 * h) ** 2
        int_u = 2.0 * h * um + rho * cm * e1
        int_v = 2.0 * h * vm + rho * sm * e1
        int_uv = 2.0 * h * um * vm + rho * e1 * (um * sm + vm * cm) + rho * rho * sm * cm * q
        i0, j0 = i0.astype(np.int64), j0.astype(np.int64) % S
        j1 = (j0 + 1) % S
        for sign in (1, -1):  # the quadrant, then its mirror x -> -x
            a, b = (sign * i0) % S, (sign * (i0 + 1)) % S
            c00, c10, c01, c11 = counts[a, j0], counts[b, j0], counts[a, j1], counts[b, j1]
            arcs = c00 * 2.0 * h + (c10 - c00) * int_u + (c01 - c00) * int_v
            total += 2.0 * float((arcs + (c11 - c10 - c01 + c00) * int_uv).sum())
    return total


def pair_correlation_direct(A: GridSet, r):
    """Circle average of the autocorrelation of A at radius r, in closed form.

    The autocorrelation is the bilinear interpolant of ``pair_counts(A)``, so
    the average is integrated exactly, arc by arc; the only error is float
    roundoff.  Cross-validation oracle for the spectral pipeline.  ``r`` may
    be an array of radii, which share one pair-count array.
    """
    rs = np.asarray(r, dtype=float)
    if not np.all(np.isfinite(rs)) or np.any(rs < 0):
        raise DomainError("r must be finite and >= 0")
    counts = pair_counts(A)
    norm = 2.0 * math.pi * A.side**2
    vals = np.array(
        [A.density if x == 0 else _circle_integral(counts, x * A.N) / norm for x in rs.flat]
    )
    return float(vals[0]) if rs.ndim == 0 else vals.reshape(rs.shape)


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


def linf_unit_pair_density(A: GridSet) -> float:
    """Mean autocorrelation over the sup-norm unit sphere, normalized by density.

    On the edge x = 1 the autocorrelation is counts[N, k] / (NK)^2 at the
    knots y = k/N and linear in between, so the trapezoid sum over
    k = -N..N is exact; the edge y = 1 reads counts[k, N], and opposite edges
    are equal by symmetry.
    """
    if A.occupied == 0:
        raise DegenerateSetError("undefined for the empty set")
    counts = pair_counts(A)
    N, S = A.N, A.side
    ks = np.arange(-N, N + 1) % S
    weights = np.ones(2 * N + 1)
    weights[[0, -1]] = 0.5  # trapezoid weights on the knots y = k/N
    edges = float(weights @ counts[N % S, ks] + weights @ counts[ks, N % S])
    return edges / (4.0 * N * S * S) / A.density


def random_gridset(N: int, K: int, p: float = 0.5, seed: int = 0) -> GridSet:
    """IID Bernoulli(p) occupancy; the standard random test set."""
    rng = np.random.default_rng(seed)
    S = N * K
    return GridSet(K, N, rng.random((S, S)) < p)
