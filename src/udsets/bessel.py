"""Self-contained evaluation of the Bessel function J0.

J0(|xi|) is the Fourier transform of the unit circle's measure in the plane,
so every numeric module in the toolkit funnels through it, and the
certificate verifier charges its evaluation error against its rigor budget:
each call returns an explicit absolute error bound instead of a bare float.

Algorithm
---------
Two branches with a documented switchover at ``SERIES_CUTOFF`` = 15, both
in float64:

* ``x < 15``: Bessel's integral J0(x) = (1/pi) int_0^pi cos(x sin t) dt by
  the midpoint rule on N = 24 nodes t_j = pi (j + 1/2) / N, folded by the
  symmetry t -> pi - t to the 12 cosines (2/N) sum_{j<12} cos(x sin t_j).
  The integrand is periodic, so the rule converges geometrically (Trefethen
  and Weideman, SIAM Rev. 56 (2014) 385-458), and Jacobi-Anger (DLMF 10.12)
  gives its error exactly: 2 sum_{m>=1} (-1)^m J_{2mN}(x), at most
  4 (x/2)^{2N} / (2N)! (DLMF 10.14.4), 4e-19 at x = 15.  Every term lies in
  [-1, 1], so nothing cancels; the rounding of the nodes and of x sin t_j
  (up to x 2^-52 per cosine), np.cos to 1 ulp and the sum add at most
  (x + 1) 2^-52 + 13 2^-53, 5e-15 at x = 15.
* ``x >= 15``: the Hankel asymptotic expansion
  ``sqrt(2/(pi x)) [P(x) cos(w) - Q(x) sin(w) / x]``, w = x - pi/4, with
  n(x) terms in each of P and Q.  For real arguments the remainder of either
  series is bounded by its first omitted term, whatever the number of terms
  (DLMF 10.17(iii)).  n(x) is the fewest n <= 14 whose first omitted terms
  meet (|a_2n| + |a_2n+1| / x) x^-2n <= 2^-70, and 14 below x ~ 29.19,
  where none does: 14 terms leave out under 5e-14 at x = 15, 6 suffice from
  x ~ 112, 4 from ~ 540, 3 from ~ 2963 and 2 from ~ 1.07e5.  The
  thresholds are computed exactly at import.  The bracket is evaluated as
  one cosine, R cos(w + phi) with u = Q / (x P) = tan(phi) and
  R = P sqrt(1 + u^2): the same first-omitted-term bounds give
  |u| <= 0.00834 at x = 15, and less beyond, so phi is atan's alternating
  series to u^7 (it leaves out under 3e-20), and R < 1.  The value is
  cos(x + (phi - pi/4)) P sqrt((1 + u^2) 2 / (pi x)).

No lookup tables or interpolation: both branches have closed-form error terms,
the asymptotic one including sqrt(2x/pi) 2^-53 for the float64 rounding of
the phase x + (phi - pi/4), which lies below x and is rounded once, at x's
scale; the rest of its float64 noise (the series, u, phi, pi/4, cos to
1 ulp, the square root and the products) is charged as a flat 5e-15.  The
returned ``abs_error_bound`` stays below 1e-12 on [0, 2^26]; tests check it
against exact-rational, ``decimal`` and ``mpmath`` oracles.  The vectorized
``j0_values`` charges that flat bound, ``J0_ABS_ERROR``, so it rejects
arguments above ``FLAT_BOUND_MAX_ARG`` = 2^26.
It evaluates the array in blocks of ``VALUES_BLOCK`` arguments in
cache-sized buffers, and checks each block's domain before it evaluates
it: a block entirely at or above the cutoff runs the Hankel branch in
place, and the midpoint rule runs in place on the arguments of any other
block below the cutoff.  The operations and their order are those of the
whole-array evaluation, and an argument sums its own n(x) Hankel terms in
whatever block it lands, so every value is the same float64.  No value or
bound depends on the platform's ``longdouble``.

The pairing of a profile const + sum_i c_i J0(r_i t) with a spectrum's
kappa, the kernel of every f(r) and registry profile, runs in the same
blocks in one pass (``_j0_profile``): each block forms its frequencies t
from the spectrum's integer m, takes each J0(r_i t) with the block code of
``j0_values``, adds the combination in term order as ``j0_combination``
does and multiplies it by kappa, in one block's buffers, straight into its
slice of the output.  No whole-array frequency, argument or J0 column is
made, and every term is the float64 of the whole-array pipeline.

The blocks of a call of 4 blocks or more are shared out between the
threads of a pool, one per CPU the process may run on (its affinity where
the platform has one), while the calling thread waits.  Each worker pops
the next block off a shared queue and writes only that block's slice of
the output, in buffers the calling thread lends it; numpy releases the GIL
inside the array operations, so the workers run at once.  A value does not
depend on the thread that computes it, so the output keeps every bit
whatever the number of CPUs.  Each worker is pinned to a CPU of its own:
left to the scheduler, threads that hand the GIL to each other hundreds of
times per call were often all woken on one CPU of a 2-vCPU VM, and a third
thread, the caller, taking blocks too made a call slower, not faster.  The
pool is made at the first call that needs it, keeps the CPUs the process
had then, and is dropped in a fork child.  The calling thread waits for
every worker of its call before it returns or raises.  Calls of fewer
blocks, calls on one CPU and calls made from a pool worker run on the
calling thread alone.
"""

from __future__ import annotations

import bisect
import math
import os
import threading
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "BesselEval",
    "j0",
    "j0_envelope",
    "j0_values",
    "j0_combination",
    "j0_combination_error",
    "j0_combination_envelope",
    "J0_ABS_ERROR",
    "FLAT_BOUND_MAX_ARG",
    "SERIES_CUTOFF",
]

SERIES_CUTOFF = 15.0  # switchover from the midpoint rule to the Hankel branch
MIDPOINT_NODES = 24  # N, nodes of the midpoint rule below SERIES_CUTOFF
ASYMPTOTIC_TERMS = 14  # terms kept in each of the P and Q series

# Recorded for run environments; no value or bound reads it.
HAVE_EXTENDED_PRECISION = np.finfo(np.longdouble).eps < 1e-18

# pi to 40 decimals, for nodes that do not depend on the platform's sin
_PI_DIGITS, _PI_SCALE = 31415926535897932384626433832795028841971, 10**40


def _midpoint_nodes(n):
    """sin(pi (j + 1/2) / n) for j < n / 2, each correctly rounded to float64.

    Taylor series in 128-bit fixed point on Python integers, off by far less
    than 2^-100; the quotient of two integers rounds correctly, so each node
    is within 2^-53 of its sine, relatively.
    """
    one = 1 << 128
    nodes = []
    for j in range(n // 2):
        t = _PI_DIGITS * (2 * j + 1) * one // (_PI_SCALE * 2 * n)
        term = total = t
        k = 1
        while term:
            term = term * t * t // (one * one * (k + 1) * (k + 2))
            total += term if k % 4 == 3 else -term
            k += 2
        nodes.append(total / one)
    return tuple(nodes)


_NODES = _midpoint_nodes(MIDPOINT_NODES)


def _hankel_coeffs(n):
    # a_k = prod_{j<=k} -(2j-1)^2 / (k! 8^k), the Hankel coefficients of J0
    a = [1.0]
    for k in range(1, n):
        a.append(a[-1] * -((2 * k - 1) ** 2) / (8.0 * k))
    return np.array(a)


_A = _hankel_coeffs(2 * ASYMPTOTIC_TERMS + 2)
# P uses a_0, a_2, ..., Q uses a_1, a_3, ...; signs (-1)^k are folded in here.
_P = _A[0 : 2 * ASYMPTOTIC_TERMS : 2] * (-1.0) ** np.arange(ASYMPTOTIC_TERMS)
_Q = _A[1 : 2 * ASYMPTOTIC_TERMS + 1 : 2] * (-1.0) ** np.arange(ASYMPTOTIC_TERMS)
# |a_2n| and |a_2n+1|, the first coefficients n-term P and Q omit
_P_NEXT = np.abs(_A[0::2])
_Q_NEXT = np.abs(_A[1::2])

# first omitted terms a Hankel branch value may leave out
_HANKEL_OMIT = 2.0**-70


def _hankel_thresholds():
    """x_n for n = 1 .. ASYMPTOTIC_TERMS - 1: the least float x at which the
    first terms n-term P and Q omit meet (|a_2n| + |a_2n+1| / x) x^-2n <=
    _HANKEL_OMIT, in exact integer arithmetic on |a_k| = ((2k-1)!!)^2 /
    (k! 8^k).  The left side falls in x, so n terms suffice from x_n on; a
    float estimate lands within a few ulps and the exact test settles it.
    """
    num, den = [1], [1]
    for k in range(1, 2 * ASYMPTOTIC_TERMS):
        num.append(num[-1] * (2 * k - 1) ** 2)
        den.append(den[-1] * 8 * k)
    inv_omit = round(1.0 / _HANKEL_OMIT)

    def enough(x, n):  # (|a_2n| x + |a_2n+1|) inv_omit <= x^(2n+1), x = p/q
        p, q = x.as_integer_ratio()
        i, j = 2 * n, 2 * n + 1
        lhs = (num[i] * den[j] * p + num[j] * den[i] * q) * q ** (2 * n) * inv_omit
        return lhs <= p ** (2 * n + 1) * den[i] * den[j]

    out = []
    for n in range(1, ASYMPTOTIC_TERMS):
        lead, second = num[2 * n] / den[2 * n], num[2 * n + 1] / den[2 * n + 1]
        x = 1.0
        for _ in range(12):  # a fixed point; each step shrinks the gap 50-fold or more
            x = ((lead + second / x) * inv_omit) ** (0.5 / n)
        while not enough(x, n):
            x = math.nextafter(x, math.inf)
        while enough(math.nextafter(x, 0.0), n):
            x = math.nextafter(x, 0.0)
        out.append(x)
    return tuple(out)


# _HANKEL_FROM[n - 1] = x_n; x_1 ~ 9e9 lies past the domain, x_13 ~ 29.19
_HANKEL_FROM = _hankel_thresholds()
# the same thresholds ascending, for bisect
_BANDS = _HANKEL_FROM[::-1]


def _hankel_terms(x: float) -> int:
    """Terms the Hankel branch sums in each of P and Q at x >= SERIES_CUTOFF:
    the fewest n whose first omitted terms are at most _HANKEL_OMIT, and
    ASYMPTOTIC_TERMS below x_13 ~ 29.19, where no n <= 13 suffices."""
    return ASYMPTOTIC_TERMS - bisect.bisect_right(_BANDS, x)


_ASY_ROUNDOFF = 5e-15  # float64 evaluation noise of the asymptotic branch
# sqrt(2/pi) rounded up: 0.79788456080286535588 < 0.7978845608028654
_SQRT_2_OVER_PI_UP = 0.7978845608028654

# Flat documented bound for the vectorized interfaces (max over both
# branches on [0, 2^26]; asserted against the oracles in the test suite).
J0_ABS_ERROR = 1.0e-12
# Largest argument of j0_values: the phase-rounding charge
# sqrt(2x/pi) 2^-53 is 7.3e-13 here and 1.03e-12 at 2^27, past 1e-12.
FLAT_BOUND_MAX_ARG = 2.0**26
# arguments per block of j0_values and _j0_profile: a worker's buffer is
# 4 float64 rows (1 MiB) for j0_values and 7 (1.75 MiB) for _j0_profile.
# 2^15 ran spectrum_deep's f(r) faster than 2^14; 2^16 raised the pass's
# peak RSS by ~1.5 MB, 2^15 by ~0.3 MB (2 workers)
VALUES_BLOCK = 2**15


@dataclass(frozen=True)
class BesselEval:
    """A function value together with a certified absolute error bound."""

    value: float
    abs_error_bound: float


def _check_domain(x):
    if not 0.0 <= x <= FLAT_BOUND_MAX_ARG:
        raise DomainError(f"argument must lie in [0, 2**26], got {x!r}")


def _midpoint(x, out, t):
    """J0(x), x < SERIES_CUTOFF, by the midpoint rule, written into ``out``.

    Sums cos(x s) over the nodes s in order and divides by their count;
    ``t`` is a scratch row of x's length.
    """
    np.multiply(x, _NODES[0], out=t)
    np.cos(t, out=out)
    for s in _NODES[1:]:
        np.multiply(x, s, out=t)
        np.cos(t, out=t)
        out += t
    out /= len(_NODES)


def _midpoint_bound(x):
    """Error bound of ``_midpoint`` at x < SERIES_CUTOFF.

    Aliasing: 2 sum_m |J_{2mN}(x)| <= 2 a / (1 - a) <= 4 a, with
    a = (x/2)^{2N} / (2N)! < 1e-19 (DLMF 10.14.4, (2mN)! >= ((2N)!)^m).
    Rounding: each cosine's argument is off by up to x 2^-52 (node and
    product) and np.cos by 1 ulp, up to 2^-52; the 11 additions of terms in
    [-1, 1] lose at most 12^2 2^-53, and the division by 12 one rounding of
    a value in [-1, 1].  Dividing the sum's errors by 12 leaves
    (x + 1) 2^-52 + 13 2^-53.
    """
    n = 2 * MIDPOINT_NODES
    aliasing = 4.0 * (0.5 * x) ** n / math.factorial(n)
    return aliasing + (x + 1.0) * 2.0**-52 + 13.0 * 2.0**-53


def _asymptotic(x, lo, hi, out, buf):
    """J0(x) from the Hankel expansion, written into ``out``; ``lo`` and
    ``hi`` are x's minimum and maximum, which the caller has already reduced.

    Each argument sums _hankel_terms(x) terms of P and Q: Horner runs from
    the top coefficient of the argument with the most terms, and restarts
    every argument at its own top coefficient by multiplying its sums by 0
    instead of 1/x^2, so a value depends on x alone.  Arguments that all
    take the same number of terms need no restart.  Ascending arguments,
    such as a spectrum's frequencies, need none either: their term counts
    fall in contiguous bands, each band starts at its own top coefficient,
    and each Horner step runs on the prefix of the arguments that take it.
    Every argument then meets the operations of the restart, which turns
    its sums into a_k exactly, so each value keeps its bits.  Then, with
    q = Q / x, P cos(w) - q sin(w) = R cos(w + phi) for u = q / P =
    tan(phi) and R = P sqrt(1 + u^2): one cosine of the phase
    x + (phi - pi/4), times P sqrt((1 + u^2) 2 / (pi x)).  |u| < 0.009
    (see ``_asymptotic_bound``), so phi is atan's alternating series to
    u^7.  P^2 + q^2 is never formed, so no intermediate grows past P
    itself.  ``buf`` holds four scratch rows of x's length; every operation
    is in place in them, and ``out`` may be ``x``.
    """
    z, p, q, t = buf
    most, fewest = _hankel_terms(lo), _hankel_terms(hi)
    np.multiply(x, x, out=t)
    np.divide(1.0, t, out=z)
    if most > fewest and not np.less(x[1:], x[:-1], out=t[1:]).any():
        # ascending arguments: band n of those with n terms starts at its
        # own top coefficient, and step k runs on the prefix x < x_{k+1}
        # alone, the arguments with more than k + 1 terms
        cut = np.searchsorted(x, _HANKEL_FROM).tolist()
        ends = [x.size, *cut, 0]  # band n is x[ends[n] : ends[n - 1]]
        for n in range(fewest, most + 1):
            p[ends[n] : ends[n - 1]] = _P[n - 1]
            q[ends[n] : ends[n - 1]] = _Q[n - 1]
        for k in range(most - 2, -1, -1):
            ph, qh, zh = p[: cut[k]], q[: cut[k]], z[: cut[k]]
            ph *= zh
            ph += _P[k]
            qh *= zh
            qh += _Q[k]
    else:
        p.fill(_P[most - 1])
        q.fill(_Q[most - 1])
        for k in range(most - 2, -1, -1):
            step = z
            if k + 1 >= fewest:
                # arguments with k + 1 or fewer terms restart at a_k: their
                # sums times 0 plus a_k are a_k exactly
                np.less(x, _HANKEL_FROM[k], out=t)
                t *= z
                step = t
            p *= step
            p += _P[k]
            q *= step
            q += _Q[k]
    np.multiply(x, p, out=t)
    np.divide(q, t, out=q)  # u = Q / (x P)
    np.multiply(q, q, out=z)  # u^2
    np.multiply(z, -1.0 / 7.0, out=t)
    t += 1.0 / 5.0
    t *= z
    t -= 1.0 / 3.0
    t *= z
    t *= q
    t += q  # phi = u - u^3/3 + u^5/5 - u^7/7
    t -= 0.25 * math.pi
    t += x  # the phase, rounded once at x's scale
    z += 1.0
    np.multiply(x, 0.5 * math.pi, out=q)
    z /= q
    np.sqrt(z, out=z)  # sqrt((1 + u^2) 2 / (pi x))
    z *= p
    np.cos(t, out=out)  # x is read no more, so out may be x itself
    out *= z


def _asymptotic_bound(x, amp):
    """Error bound of ``_asymptotic`` at x, given amp >= sqrt(2/(pi x)).

    Truncation: the first terms that the _hankel_terms(x) terms of P and q
    leave out, times amp.  Rotation: |q| <= |a_1| / x and P >= 1 - |a_2| / x^2 (the
    same first-omitted-term bounds), so |u| <= 0.00834 at x = 15 and less
    beyond; atan's series then leaves out under |u|^9 / 9 < 3e-20, and
    R^2 = P^2 + q^2 = 1 - 1/(8 x^2) + O(x^-4) stays below 1.  Rounding: the
    phase x + (phi - pi/4) lies below x and rounds once by up to x 2^-53,
    which moves the value by up to amp R x 2^-53; everything else (Horner,
    u, phi, the rounding of pi/4, cos to 1 ulp, the square root and the
    products) is float64 noise on terms below amp, under 1e-15 in all at
    x = 15 and less beyond, which _ASY_ROUNDOFF covers.
    """
    n = _hankel_terms(x)
    zn = (1.0 / (x * x)) ** n
    trunc = amp * (_P_NEXT[n] * zn + _Q_NEXT[n] * zn / x)
    return trunc + _ASY_ROUNDOFF + amp * x * 2.0**-53


def j0(x: float) -> BesselEval:
    """J0(x) with a certified absolute error bound: the value of
    ``j0_values`` and the bound of its branch at x.

    Raises DomainError for arguments outside [0, 2**26].
    """
    _check_domain(x)
    value = j0_values(x)
    if x == 0.0:
        return BesselEval(value, 0.0)
    if x < SERIES_CUTOFF:
        return BesselEval(value, _midpoint_bound(x))
    return BesselEval(value, float(_asymptotic_bound(x, j0_envelope(x))))


def j0_envelope(x: float) -> float:
    """A proven upper bound on sup_{y >= x} |J0(y)|.

    Uses the classical bound |J0(y)| <= min(1, sqrt(2/(pi y))), which is
    nonincreasing, so its value at x dominates the whole tail.  It is
    rounded outward: with C >= sqrt(2/pi) and u = 2^-53, fl(C / fl(sqrt x))
    is at least sqrt(2/(pi x)) (1 - u) / (1 + u), and the last product by
    1 + 4u, rounded, lifts that above sqrt(2/(pi x)).  Every step is
    monotone, so the result is still nonincreasing in x.
    """
    if not (x > 0.0) or not math.isfinite(x):
        raise DomainError(f"envelope requires finite x > 0, got {x!r}")
    return min(1.0, _SQRT_2_OVER_PI_UP / math.sqrt(x) * (1.0 + 2.0**-51))


def j0_values(x) -> np.ndarray:
    """Vectorized J0 on [0, 2**26]; absolute error <= J0_ABS_ERROR elementwise.

    Runs in blocks of VALUES_BLOCK arguments (``_values_block``).  Every
    value is the same float64 as on the whole array at once, and as for its
    argument alone.  A call of 4 blocks or more shares them out between the
    workers of a pool (``_run_blocks``).
    """
    x = np.asarray(x, dtype=float)
    flat = np.ascontiguousarray(x).reshape(-1)
    out = np.empty_like(flat)
    _run_blocks(flat.size, 4, lambda starts, buf: _values_blocks(flat, out, starts, buf))
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)


def _values_blocks(flat, out, starts, buf):
    """J0 of the blocks of ``flat`` that begin at the offsets taken off
    ``starts`` (``_take_blocks``), into the same slices of ``out``, in the
    4-row buffer ``buf``."""
    B = VALUES_BLOCK
    _take_blocks(starts, lambda lo: _values_block(flat[lo : lo + B], out[lo : lo + B], buf))


def _values_block(xb, ob, buf):
    """J0 of the block ``xb`` into ``ob``, in the 4-row buffer ``buf`` of
    at least xb's length.  The block's minimum and maximum are reduced once:
    they check its domain, and pick its branch.  A block wholly below
    SERIES_CUTOFF takes the midpoint rule, and one with no argument below it
    the Hankel branch, in place in ``ob``; a block that straddles the cutoff
    gathers its arguments at or above it to the front of ``ob`` for the
    Hankel branch, in place, and those below it into the buffer for the
    midpoint rule, and scatters both.  So a block allocates no float array,
    and a pool worker's heap does not grow by one.  The operations and their
    order are those of the whole-array evaluation."""
    least, most = xb.min(), xb.max()
    # min and max propagate NaN, which then fails both comparisons
    if not (least >= 0.0 and most <= FLAT_BOUND_MAX_ARG):
        raise DomainError("array arguments must lie in [0, 2**26]")
    if most < SERIES_CUTOFF:
        _midpoint(xb, ob, buf[0, : xb.size])
        return
    if least >= SERIES_CUTOFF:
        _asymptotic(xb, least, most, ob, buf[:, : xb.size])
        return
    big = xb >= SERIES_CUTOFF
    n_big = np.count_nonzero(big)
    xl, vals = ob[:n_big], buf[0, :n_big]
    np.compress(big, xb, out=xl)
    _asymptotic(xl, xl.min(), most, xl, buf[:, :n_big])
    np.copyto(vals, xl)  # ob's front is scattered over next
    ob[big] = vals
    small = ~big
    xs, vs, t = buf[:3, : xb.size - n_big]
    np.compress(small, xb, out=xs)
    _midpoint(xs, vs, t)
    ob[small] = vs


def _take_blocks(starts, block):
    """Calls ``block(lo)`` for each offset ``lo`` it pops off the deque
    ``starts``, until ``starts`` is empty.  Threads may share ``starts``:
    deque pops are atomic, so each block is taken once.  A block that
    raises empties ``starts``, so the other threads stop too."""
    while True:
        try:
            lo = starts.popleft()
        except IndexError:
            return
        try:
            block(lo)
        except BaseException:
            starts.clear()
            raise


def _run_blocks(size, rows, task):
    """Runs ``task(starts, buf)`` over the blocks of VALUES_BLOCK of an
    array of ``size``: ``starts`` is a deque of the blocks' offsets, and
    ``buf`` a buffer of ``rows`` rows of one block's length.  The task runs
    once on each pool worker (``_workers``), each with a buffer of its own,
    or on the calling thread alone; it returns once every worker is done,
    and raises the first worker's error."""
    starts = deque(range(0, size, VALUES_BLOCK))
    workers = _workers(len(starts))
    # the buffers come from the calling thread, whose heap reuses them
    bufs = np.empty((max(workers, 1), rows, min(size, VALUES_BLOCK)))
    if workers:
        futures = [_pool().submit(task, starts, buf) for buf in bufs]
        for f in futures:  # every worker is done before any error is raised
            f.exception()
        for f in futures:
            f.result()
    else:
        task(starts, bufs[0])


# The pool of j0_values: one worker per CPU, made at the first call that
# shares its blocks, and dropped in a fork child, whose copy of it would
# have no threads behind it.
_POOL = None
_POOL_LOCK = threading.Lock()
_IN_WORKER = threading.local()


def _cpus():
    """The CPUs this process may run on: its affinity, where the platform
    has one, else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return list(range(os.cpu_count() or 1))


def _workers(blocks):
    """Pool workers that take the blocks of a call while the calling thread
    waits: one per CPU, at most one per 2 blocks.  None, so the calling
    thread takes every block, for calls of under 4 blocks, on one CPU, and
    in a pool worker, so that no worker waits on the pool it runs in."""
    if blocks < 4 or getattr(_IN_WORKER, "flag", False):
        return 0
    cpus = len(_cpus())
    return 0 if cpus == 1 else min(cpus, blocks // 2)


def _start_worker(cpus):
    """Marks a new pool thread as a worker and pins it, and only it, to the
    next CPU of ``cpus``; a CPU it may no longer run on leaves it unpinned."""
    _IN_WORKER.flag = True
    if hasattr(os, "sched_setaffinity"):
        try:
            os.sched_setaffinity(0, {cpus.popleft()})
        except OSError:
            pass


def _pool():
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            from concurrent.futures import ThreadPoolExecutor

            cpus = _cpus()
            _POOL = ThreadPoolExecutor(
                len(cpus), "udsets-j0", initializer=_start_worker, initargs=(deque(cpus),)
            )
        return _POOL


def _drop_pool():
    global _POOL, _POOL_LOCK
    _POOL = None
    _POOL_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):  # POSIX
    os.register_at_fork(after_in_child=_drop_pool)


# ---------------------------------------------------------------------------
# finite J0 combinations  const + sum_i c_i J0(r_i t)
# ---------------------------------------------------------------------------

def j0_combination(radii, coeffs, t, const=0.0):
    """const + sum_i coeffs[i] * J0(radii[i] * t) for scalar or array t.

    Terms are added in the given order, one ``j0_values`` call per radius;
    the absolute error is at most ``j0_combination_error(coeffs)``.
    """
    t = np.asarray(t, dtype=float)
    acc = _j0_sum(const, coeffs, (j0_values(r * t) for r in radii), t.shape)
    return float(acc) if t.ndim == 0 else acc


def _j0_sum(const, coeffs, columns, shape, out=None, scratch=None):
    """const + sum_i coeffs[i] * columns[i] as a float64 array of ``shape``,
    added in the given order: the combine step of ``j0_combination`` and of
    ``_j0_profile``, for callers that already hold the J0 values of each
    term.  The sum goes into ``out`` when given, and each product after the
    first into ``scratch``, which may be the column itself when the caller
    does not keep it; else each goes into a new array."""
    acc = np.empty(shape) if out is None else out
    if len(coeffs) == 0:
        acc.fill(const)
        return acc
    # no zip: its reused result tuple would keep each term's column alive
    # while the next one is made, one array more at the peak
    columns = iter(columns)
    # c_0 col_0 + const is const + c_0 col_0 exactly; the first product goes
    # into acc, since callers may lend columns they keep
    np.multiply(coeffs[0], next(columns), out=acc)
    acc += const
    for c in coeffs[1:]:
        acc += np.multiply(c, next(columns), out=scratch)
    return acc


def _j0_profile(ms, scale, kappas, const, radii, coeffs):
    """kappas * (const + sum_i coeffs[i] J0(radii[i] t)) for t = scale *
    sqrt(ms), ms an int64 array, as one new float64 array: the terms of a
    profile's pairing with kappa, ready for one sum.

    Runs in blocks of VALUES_BLOCK terms, on the pool for 4 blocks or more
    (``_run_blocks``).  Each block forms its t as ``Spectrum.frequency``
    does (float(m), its square root in place, times scale), then for each
    radius in turn r t, its J0 (``_values_block``) and that column's product
    into the block's output slice (``_j0_sum``), and multiplies the slice by
    its kappas.  Every operation is the one the whole-array pipeline makes
    on that element, so every value keeps its bits.  A worker's buffer holds
    7 rows of one block: t, r t, the J0 column and J0's own 4 rows."""
    out = np.empty(ms.size)
    B = VALUES_BLOCK

    def blocks(starts, buf):
        _take_blocks(starts, lambda lo: _profile_block(
            ms[lo : lo + B], kappas[lo : lo + B], out[lo : lo + B], scale, const, radii, coeffs, buf
        ))

    _run_blocks(ms.size, 7, blocks)
    return out


def _profile_block(ms, kappas, out, scale, const, radii, coeffs, buf):
    """One block of ``_j0_profile``: ``ms``, ``kappas`` and ``out`` are
    the block's slices, and ``buf`` 7 rows at least as long."""
    t, rt, col = buf[:3, : ms.size]
    np.copyto(t, ms)  # Spectrum.frequency's operations: float(m), sqrt, scale
    np.sqrt(t, out=t)
    t *= scale

    def columns():  # J0(r t) of each radius in turn, in the one column row
        for r in radii:
            np.multiply(r, t, out=rt)
            _values_block(rt, col, buf[3:])
            yield col

    _j0_sum(const, coeffs, columns(), out.shape, out=out, scratch=col)
    out *= kappas


def j0_combination_error(coeffs) -> float:
    """Certified evaluation error of ``j0_combination``: J0_ABS_ERROR sum |c|."""
    return J0_ABS_ERROR * float(np.abs(coeffs).sum())


def j0_combination_envelope(radii, coeffs, t: float) -> float:
    """sum_i |c_i| j0_envelope(r_i t): bounds |sum_i c_i J0(r_i s)| for s >= t."""
    return float(sum(abs(c) * j0_envelope(r * t) for r, c in zip(radii, coeffs)))
