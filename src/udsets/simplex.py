"""Self-contained two-phase simplex over 80-bit floats.

Solves   find / minimize c.x   subject to  A x <= b,  x >= 0.

The witness-search LP is small (a dozen variables, a few hundred to a few
thousand grid rows), so a dense tableau is fine.  All arithmetic runs in numpy
longdouble (x87 80-bit on this platform) and pivoting follows Bland's rule, so
runs are deterministic and the accumulated pivot error stays orders of
magnitude below the slack the caller reserves.  Nothing downstream trusts the
solver: certificates are re-verified independently.

Infeasibility is a first-class result: phase 1 ends with a Farkas-style
multiplier vector y >= 0 with y.A >= 0 and y.b < 0, which is returned (and
checked in float64) alongside the status.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SimplexResult", "solve_lp"]

_LD = np.longdouble
_TOL = 1e-16  # pivot tolerance, times max(1, largest |entry| of A and b)
_MAX_ITER = 100_000  # pivots per phase before "iteration_limit"


@dataclass(frozen=True)
class SimplexResult:
    status: str  # "optimal" | "infeasible" | "unbounded" | "iteration_limit"
    x: np.ndarray | None  # float64 copy of the solution (length n)
    objective: float | None
    farkas: np.ndarray | None = None  # row multipliers proving infeasibility
    farkas_valid: bool = False
    iterations: int = 0


def _pivot(T, basis, row, col):
    piv = T[row, col]
    T[row, :] /= piv
    colvals = T[:, col].copy()
    colvals[row] = 0.0
    T -= np.outer(colvals, T[row, :])
    # re-zero the pivot column explicitly to stop error creep
    T[:, col] = 0.0
    T[row, col] = 1.0
    basis[row] = col


def _bland_iterate(T, basis, ncols_dec, tol):
    """Minimize the last row's objective; returns (status, iterations)."""
    m = T.shape[0] - 1
    it = 0
    while True:
        if it >= _MAX_ITER:
            return "iteration_limit", it
        obj = T[-1, :ncols_dec]
        enter = -1
        for j in range(ncols_dec):
            if obj[j] < -tol:
                enter = j
                break
        if enter < 0:
            return "optimal", it
        col = T[:m, enter]
        best_ratio = None
        leave = -1
        for i in range(m):
            if col[i] > tol:
                ratio = T[i, -1] / col[i]
                if (
                    best_ratio is None
                    or ratio < best_ratio - tol
                    or (abs(ratio - best_ratio) <= tol and basis[leave] > basis[i])
                ):
                    best_ratio = ratio
                    leave = i
        if leave < 0:
            return "unbounded", it
        _pivot(T, basis, leave, enter)
        it += 1


def solve_lp(A_ub, b_ub, n_vars, objective=None):
    """Solve  min objective.x  s.t.  A_ub x <= b_ub, x >= 0  (Bland, 80-bit).

    With objective=None this is a pure feasibility solve.
    """
    A = np.asarray(A_ub, dtype=_LD)
    b = np.asarray(b_ub, dtype=_LD)
    m, n = A.shape
    if n != n_vars:
        raise ValueError("A_ub width disagrees with n_vars")
    c = np.zeros(n, dtype=_LD) if objective is None else np.asarray(objective, dtype=_LD)

    # columns: x (n), artificial x0 (1), slacks (m), rhs (1); rows: m + objective
    width = n + 1 + m + 1
    T = np.zeros((m + 1, width), dtype=_LD)
    T[:m, :n] = A
    T[:m, n] = -1.0  # artificial column
    T[:m, n + 1 : n + 1 + m] = np.eye(m, dtype=_LD)
    T[:m, -1] = b
    basis = np.array([n + 1 + i for i in range(m)], dtype=int)

    scale = max(1.0, float(np.max(np.abs(A))), float(np.max(np.abs(b))) if m else 1.0)
    tol = _LD(_TOL) * _LD(scale)

    total_iters = 0
    if np.any(b < 0):
        # phase 1: minimize x0
        T[-1, :] = 0.0
        T[-1, n] = 1.0
        worst = int(np.argmin(T[:m, -1]))
        _pivot(T, basis, worst, n)
        status, it = _bland_iterate(T, basis, n + 1 + m, tol)
        total_iters += it
        if status != "optimal":
            return SimplexResult(status, None, None, iterations=total_iters)
        if -T[-1, -1] > 1e-10 * scale:  # last-row rhs carries -z
            # infeasible; phase-1 duals live in the slack columns of the
            # objective row, certificate y >= 0, yA >= 0, yb < 0
            y = np.asarray(T[-1, n + 1 : n + 1 + m], dtype=float)
            y[np.abs(y) < 1e-14] = 0.0
            Af = np.asarray(A, dtype=float)
            bf = np.asarray(b, dtype=float)
            ok = bool(
                np.all(y >= -1e-9)
                and float(y @ bf) < 0
                and np.all(y @ Af >= -1e-9 * scale)
            )
            return SimplexResult(
                "infeasible", None, None, farkas=y, farkas_valid=ok, iterations=total_iters
            )
        if n in basis:
            # x0 basic at zero: pivot it out on any eligible column
            row = int(np.where(basis == n)[0][0])
            for j in range(n + 1 + m):
                if j != n and abs(T[row, j]) > tol:
                    _pivot(T, basis, row, j)
                    break

    # phase 2
    T[-1, :] = 0.0
    T[-1, :n] = c
    T[-1, n] = _LD(1e30)  # keep the artificial column out of the basis
    for i, bj in enumerate(basis):
        if T[-1, bj] != 0:
            T[-1, :] -= T[-1, bj] * T[i, :]
    status, it = _bland_iterate(T, basis, n + 1 + m, tol)
    total_iters += it
    if status == "unbounded":
        return SimplexResult("unbounded", None, None, iterations=total_iters)
    if status != "optimal":
        return SimplexResult(status, None, None, iterations=total_iters)

    x = np.zeros(n, dtype=_LD)
    for i, bj in enumerate(basis):
        if bj < n:
            x[bj] = T[i, -1]
    xf = np.asarray(x, dtype=float)
    xf[xf < 0] = 0.0  # clamp pivot dust; solutions carry reserved slack
    return SimplexResult(
        "optimal", xf, float(np.dot(np.asarray(c, float), xf)), iterations=total_iters
    )
