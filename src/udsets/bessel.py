"""Self-contained evaluation of the Bessel function J0.

J0(|xi|) is the Fourier transform of the unit circle's measure in the plane,
so every numeric module in the toolkit funnels through it, and the
certificate verifier charges its evaluation error against its rigor budget:
each call returns an explicit absolute error bound instead of a bare float.

Algorithm
---------
Two branches with a documented switchover at ``SERIES_CUTOFF`` = 15:

* ``x < 15``: the ascending power series, 60 terms, evaluated by Horner in
  80-bit extended precision (numpy longdouble).  The series is alternating
  with terms up to ~I0(15) ~ 3.4e5, so float64 would lose ~1e-10 to
  cancellation; at 80 bits the running-error bound stays below 8e-13.
* ``x >= 15``: the Hankel asymptotic expansion
  ``sqrt(2/(pi x)) [P(x) cos(w) - Q(x) sin(w)]`` with 14 terms in each of P
  and Q, w = x - pi/4.  For real arguments the remainder of either series is
  bounded by the first omitted term, which at x = 15 is below 5e-14 and
  decreases in x.

No lookup tables or interpolation: both branches have closed-form error terms,
the asymptotic one including sqrt(2x/pi) 2^-53 for the float64 rounding of
the phase x - pi/4.  The returned ``abs_error_bound`` stays below 1e-12 on
[0, 2^26]; tests check it against exact-rational and ``decimal`` oracles.
The vectorized ``j0_values`` charges that flat bound, so it rejects arguments
above ``FLAT_BOUND_MAX_ARG`` = 2^26.  It checks the whole array first, then
evaluates it in blocks of ``VALUES_BLOCK`` arguments; a block entirely at or
above the cutoff runs the Hankel branch in place in cache-sized buffers.  The
operations and their order are those of the whole-array evaluation, so every
value is the same float64.

The 80-bit branch assumes an x87-style longdouble (Linux/x86-64).  On
platforms where longdouble is 64-bit the values remain correct to ~1e-10;
``HAVE_EXTENDED_PRECISION`` records the situation, and the flat bound
``J0_ABS_ERROR`` then charges 5e-9 instead of 1e-12.
"""

from __future__ import annotations

import math
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

SERIES_CUTOFF = 15.0
SERIES_TERMS = 60
ASYMPTOTIC_TERMS = 14  # terms kept in each of the P and Q series

_LD = np.longdouble
HAVE_EXTENDED_PRECISION = np.finfo(_LD).eps < 1e-18

# ---------------------------------------------------------------------------
# series coefficients (exact integers scaled at longdouble precision)
# ---------------------------------------------------------------------------

def _series_coeffs_j0(n):
    # J0(x) = sum_k (-1)^k u^k / (k!)^2,  u = (x/2)^2
    out = [_LD(1)]
    for k in range(1, n):
        out.append(out[-1] / _LD(k * k) * _LD(-1))
    return np.array(out, dtype=_LD)


_J0_COEFFS = _series_coeffs_j0(SERIES_TERMS)
# weights (k+1)|c_k| for the running-error bound of Horner evaluation
_J0_ERRW = np.abs(_J0_COEFFS) * np.arange(1, SERIES_TERMS + 1, dtype=_LD)


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
# first omitted coefficients, for the truncation bound
_P_NEXT = abs(_A[2 * ASYMPTOTIC_TERMS])
_Q_NEXT = abs(_A[2 * ASYMPTOTIC_TERMS + 1])

_EPS80 = float(np.finfo(_LD).eps)
_SERIES_TRUNC = 1e-24  # |t_60| at x = 15 is ~1e-57; generous cover
_ASY_ROUNDOFF = 5e-15  # float64 evaluation noise of the asymptotic branch

# Flat documented bounds for the vectorized interfaces (max over both
# branches on [0, 2^26]; asserted against the oracles in the test suite).
# Without 80-bit longdouble the series runs in float64: its running-error
# bound at the cutoff (u = 56.25) is 1.6e-9, and the fallback charges about
# 3x that to cover the rounding of the coefficients and of u as well.
_ABS_ERROR_EXTENDED = 1.0e-12
_ABS_ERROR_FLOAT64 = 5.0e-9
J0_ABS_ERROR = _ABS_ERROR_EXTENDED if HAVE_EXTENDED_PRECISION else _ABS_ERROR_FLOAT64
# Largest argument of j0_values: the phase-rounding charge
# sqrt(2x/pi) 2^-53 is 7.3e-13 here and 1.03e-12 at 2^27, past 1e-12.
FLAT_BOUND_MAX_ARG = 2.0**26
# arguments per block of j0_values: the Hankel branch's four
# float64 buffers (512 KiB) stay in cache
VALUES_BLOCK = 2**14


@dataclass(frozen=True)
class BesselEval:
    """A function value together with a certified absolute error bound."""

    value: float
    abs_error_bound: float


def _check_domain(x):
    if not 0.0 <= x <= FLAT_BOUND_MAX_ARG:
        raise DomainError(f"argument must lie in [0, 2**26], got {x!r}")


def _horner_ld(coeffs, u):
    acc = np.full_like(u, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc *= u
        acc += c
    return acc


def _series_error_bound(errw, u):
    # Running-error bound for Horner: 2.5 eps * sum (k+1)|c_k| u^k, plus
    # truncation.  The 2.5 covers the two roundings per step with slack.
    bound = _horner_ld(errw, u)
    return 2.5 * _EPS80 * np.asarray(bound, dtype=float) + _SERIES_TRUNC


def _asymptotic(x, out, buf):
    """J0(x) from the Hankel expansion, written into ``out``.

    ``buf`` holds four scratch rows of x's length; every operation is in
    place in them.  Returns the amplitude sqrt(2/(pi x)), a row of ``buf``.
    """
    z, p, q, t = buf
    np.multiply(x, x, out=t)
    np.divide(1.0, t, out=z)
    for acc, coeffs in ((p, _P), (q, _Q)):
        acc.fill(coeffs[-1])
        for c in coeffs[-2::-1]:
            acc *= z
            acc += c
    q /= x
    np.subtract(x, 0.25 * math.pi, out=t)  # the phase w
    np.sin(t, out=z)
    np.cos(t, out=t)
    p *= t
    q *= z
    p -= q  # P cos(w) - Q sin(w) / x
    np.multiply(x, math.pi, out=t)
    np.divide(2.0, t, out=t)
    np.sqrt(t, out=t)
    np.multiply(t, p, out=out)
    return t


def _asymptotic_bound(x, amp):
    """Error bound of ``_asymptotic``: truncation, float64 noise, and the
    rounding of the phase x - pi/4, up to x 2^-53."""
    z = 1.0 / (x * x)
    trunc = amp * (_P_NEXT * z**ASYMPTOTIC_TERMS + _Q_NEXT * z**ASYMPTOTIC_TERMS / x)
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
        u = _LD(x) * _LD(x) / 4
        return BesselEval(value, float(_series_error_bound(_J0_ERRW, u)) + 2e-16)
    amp = math.sqrt(2.0 / (math.pi * x))  # as _asymptotic computes it
    return BesselEval(value, float(_asymptotic_bound(x, amp)))


def j0_envelope(x: float) -> float:
    """A proven upper bound on sup_{y >= x} |J0(y)|.

    Uses the classical bound |J0(y)| <= min(1, sqrt(2/(pi y))), which is
    nonincreasing, so its value at x dominates the whole tail.
    """
    if not (x > 0.0) or not math.isfinite(x):
        raise DomainError(f"envelope requires finite x > 0, got {x!r}")
    return min(1.0, math.sqrt(2.0 / (math.pi * x)))


def j0_values(x) -> np.ndarray:
    """Vectorized J0 on [0, 2**26]; absolute error <= J0_ABS_ERROR elementwise.

    Runs in blocks of VALUES_BLOCK arguments after checking the whole array.
    A block with no argument below SERIES_CUTOFF takes the Hankel branch in
    preallocated buffers; any other block splits into series and Hankel
    arguments.  Every value is the same float64 as on the whole array at once.
    """
    x = np.asarray(x, dtype=float)
    # min and max propagate NaN, which then fails both comparisons
    if x.size and not (x.min() >= 0.0 and x.max() <= FLAT_BOUND_MAX_ARG):
        raise DomainError("array arguments must lie in [0, 2**26]")
    flat = np.ascontiguousarray(x).reshape(-1)
    out = np.empty_like(flat)
    buf = np.empty((4, min(flat.size, VALUES_BLOCK)))
    for lo in range(0, flat.size, VALUES_BLOCK):
        xb = flat[lo : lo + VALUES_BLOCK]
        ob = out[lo : lo + VALUES_BLOCK]
        if xb.min() >= SERIES_CUTOFF:
            _asymptotic(xb, ob, buf[:, : xb.size])
            continue
        small = xb < SERIES_CUTOFF
        u = xb[small].astype(_LD) ** 2 / 4
        ob[small] = _horner_ld(_J0_COEFFS, u).astype(float)
        if not small.all():
            big = ~small
            vals = np.empty(np.count_nonzero(big))
            _asymptotic(xb[big], vals, buf[:, : vals.size])
            ob[big] = vals
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)


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


def _j0_sum(const, coeffs, columns, shape):
    """const + sum_i coeffs[i] * columns[i] as a float64 array of ``shape``,
    added in the given order: the combine step of ``j0_combination``, for
    callers that already hold the J0 values of each term."""
    acc = np.full(shape, const, dtype=float)
    # no zip: its reused result tuple would keep each term's column alive
    # while the next one is made, one array more at the peak
    columns = iter(columns)
    for c in coeffs:
        acc += c * next(columns)
    return acc


def j0_combination_error(coeffs) -> float:
    """Certified evaluation error of ``j0_combination``: J0_ABS_ERROR sum |c|."""
    return J0_ABS_ERROR * float(np.abs(coeffs).sum())


def j0_combination_envelope(radii, coeffs, t: float) -> float:
    """sum_i |c_i| j0_envelope(r_i t): bounds |sum_i c_i J0(r_i s)| for s >= t."""
    return float(sum(abs(c) * j0_envelope(r * t) for r, c in zip(radii, coeffs)))
