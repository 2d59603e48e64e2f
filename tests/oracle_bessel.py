"""Exact-rational power-series oracles for J0, J1 and J_n.

J1 = -J0' is not evaluated by src/udsets/bessel.py; its oracle here audits
the J1 used by the derivative checks (scipy.special.j1).

Independent of src/udsets/bessel.py by construction: partial sums of the
ascending series are accumulated in Fraction arithmetic (the float argument is
taken as the exact binary rational it is), so the only error is the series
truncation, which for 200 terms is far below 1e-30 on [0, 100].  Used to
freeze expected values and to audit the production evaluator's error bounds.
Above x = 100, ``hankel_oracle`` evaluates the Hankel expansion in ``decimal``
arithmetic with pi from Machin's formula.

``jn_oracle`` is the same exact-rational series for J_n of any order n >= 0;
it gives the aliasing terms J_{2mN} of the midpoint rule.

``values_whole_array`` is different in kind: it is the vectorized evaluator
as it was before ``j0_values`` went blockwise, one mask split over the whole
array with both branches written out in allocating numpy expressions, on the
module's own nodes, coefficient tables and term-count thresholds; the Hankel
branch groups the arguments by their number of terms and runs Horner from
each group's own top coefficient, and the rotated form R cos(w + phi)
follows in the same operations.  It is the bitwise reference for the
blocked, in-place evaluation.
"""

import math
from decimal import Decimal, getcontext, localcontext
from fractions import Fraction
from functools import lru_cache

import numpy as np

from udsets import bessel
from udsets.errors import DomainError


@lru_cache(maxsize=4096)
def j0_oracle(x: float, terms: int = 200) -> float:
    """J0(x) from the exact-rational ascending series. Valid for x <= 100."""
    u = Fraction(x) ** 2 / 4
    term = Fraction(1)
    total = Fraction(1)
    for k in range(1, terms):
        term = -term * u / (k * k)
        total += term
    return float(total)


@lru_cache(maxsize=4096)
def j1_oracle(x: float, terms: int = 200) -> float:
    """J1(x) from the exact-rational ascending series. Valid for x <= 100."""
    u = Fraction(x) ** 2 / 4
    term = Fraction(1)
    total = Fraction(1)
    for k in range(1, terms):
        term = -term * u / (k * (k + 1))
        total += term
    return float(Fraction(x) / 2 * total)


@lru_cache(maxsize=256)
def jn_oracle(n: int, x: float, terms: int = 200) -> float:
    """J_n(x) = sum_k (-1)^k (x/2)^(2k+n) / (k! (k+n)!) in exact rationals.
    Valid for x <= 100."""
    half = Fraction(x) / 2
    u = half * half
    term = half**n / math.factorial(n)
    total = term
    for k in range(1, terms):
        term = -term * u / (k * (k + n))
        total += term
    return float(total)


def j0_zero_by_bisection(lo: float, hi: float, iters: int = 80) -> float:
    """Locate a sign change of the oracle J0 by plain bisection."""
    flo = j0_oracle(lo)
    fhi = j0_oracle(hi)
    assert flo * fhi < 0, "bracket must straddle a zero"
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fmid = j0_oracle(mid)
        if fmid == 0.0:
            return mid
        if flo * fmid < 0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def first_j0_zeros(count: int = 10) -> list[float]:
    """The first `count` positive zeros of J0, from oracle sign changes."""
    zeros = []
    step = 0.5
    x = step
    prev, prev_val = 0.0, j0_oracle(0.0)
    while len(zeros) < count:
        val = j0_oracle(x)
        if prev_val * val < 0:
            zeros.append(j0_zero_by_bisection(prev, x))
        prev, prev_val = x, val
        x += step
    return zeros


def _machin_pi() -> Decimal:
    """pi = 16 atan(1/5) - 4 atan(1/239) at the current decimal precision."""
    tiny = Decimal(10) ** -(getcontext().prec + 2)

    def atan_inv(n):
        x = Decimal(1) / n
        total = term = x
        k = 1
        while abs(term) > tiny:
            term *= -x * x
            k += 2
            total += term / k
        return total

    return 16 * atan_inv(5) - 4 * atan_inv(239)


def _cos_sin(w: Decimal):
    """(cos w, sin w) by Taylor series, for 0 <= w < 7."""
    tiny = Decimal(10) ** -(getcontext().prec + 2)
    c = s = Decimal(0)
    term = Decimal(1)  # w^k / k!
    k = 0
    while abs(term) > tiny:
        sign = -1 if (k // 2) % 2 else 1
        if k % 2:
            s += sign * term
        else:
            c += sign * term
        k += 1
        term = term * w / k
    return c, s


def hankel_oracle(x: float, digits: int = 60) -> float:
    """J0(x) from the Hankel expansion in decimal arithmetic.

    J0(x) = sqrt(2/(pi x)) [P cos w - Q sin w], w = x - pi/4,
    with P and Q summed until the terms reach 1e-(digits+2) (or start to
    grow, near k = 2x: for x >= 40 the smallest term is below 1e-34).  The
    phase is formed and reduced mod 2 pi at ``digits`` significant digits,
    so it carries none of the float64 rounding of the evaluator under test.
    """
    with localcontext() as ctx:
        ctx.prec = digits
        X = Decimal(x)  # the exact binary value of x
        pi = _machin_pi()
        tiny = Decimal(10) ** -(digits + 2)
        P = Q = Decimal(0)
        a = Decimal(1)  # a_k / x^k
        prev = None
        k = 0
        while abs(a) > tiny and (prev is None or abs(a) < prev):
            sign = -1 if (k // 2) % 2 else 1
            if k % 2:
                Q += sign * a
            else:
                P += sign * a
            prev = abs(a)
            k += 1
            a = a * -((2 * k - 1) ** 2) / (8 * k * X)
        w = X - pi / 4
        two_pi = 2 * pi
        w -= two_pi * (w / two_pi).to_integral_value(rounding="ROUND_FLOOR")
        c, s = _cos_sin(w)
        amp = (2 / (pi * X)).sqrt()
        return float(amp * (P * c - Q * s))


def _horner(coeffs, z):
    acc = np.full_like(z, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc = acc * z + c
    return acc


def values_whole_array(x):
    """J0(x) elementwise on the whole array at once: the midpoint rule on
    every argument below SERIES_CUTOFF, the Hankel branch on the rest."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        x = x[None]
        scalar = True
    else:
        scalar = False
    if x.size and not (x.min() >= 0.0 and x.max() <= bessel.FLAT_BOUND_MAX_ARG):
        raise DomainError("array arguments must lie in [0, 2**26]")
    out = np.empty_like(x)
    small = x < bessel.SERIES_CUTOFF
    if np.any(small):
        xs = x[small]
        acc = np.cos(xs * bessel._NODES[0])
        for s in bessel._NODES[1:]:
            acc = acc + np.cos(xs * s)
        out[small] = acc / len(bessel._NODES)
    if np.any(~small):
        xl = x[~small]
        z = 1.0 / (xl * xl)
        terms = bessel.ASYMPTOTIC_TERMS - np.searchsorted(bessel._BANDS, xl, side="right")
        p, q = np.empty_like(xl), np.empty_like(xl)
        for n in np.unique(terms):
            band = terms == n
            p[band] = _horner(bessel._P[:n], z[band])
            q[band] = _horner(bessel._Q[:n], z[band])
        # P cos w - (Q / x) sin w as R cos(w + phi), u = Q / (x P) = tan phi
        u = q / (xl * p)
        u2 = u * u
        phi = (((u2 * (-1.0 / 7.0) + 1.0 / 5.0) * u2 - 1.0 / 3.0) * u2) * u + u
        phase = (phi - 0.25 * math.pi) + xl
        amp = np.sqrt((u2 + 1.0) / (xl * (0.5 * math.pi))) * p
        out[~small] = np.cos(phase) * amp
    return float(out[0]) if scalar else out
