"""Self-contained two-phase simplex over 80-bit floats.

Solves   find / minimize c.x   subject to  A x <= b,  x >= 0.

The variables are x (ids 0..n-1), the phase-1 artificial x0 (id n) and one
slack per row (ids n+1..n+m).  The witness-search LP has a dozen variables
and a few hundred to a few thousand grid rows, so the tableau is kept
condensed (V. Chvatal, Linear Programming, Freeman 1983, ch. 2-3): one row
per basic variable plus the objective row, one column per nonbasic variable
plus the rhs, column-major since pivots and ratio tests read columns.  That
is (m + 1) x (n + 2) entries where a dense tableau, with a column for every
variable, holds (m + 1) x (n + m + 2), m of them the slack identity block.
``basis[i]`` is the id of row i's variable and ``nonbasic[j]`` that of
column j.

Every pivot is bitwise the dense one.  A basic variable's dense column is
a unit vector, so at a pivot the leaving variable's column e_row takes the
entering column's slot and goes through the dense update of a unit column;
the entering column, which the dense pivot re-zeroes, is dropped.  All
arithmetic runs in numpy longdouble (x87 80-bit where numpy has it), so runs
are deterministic and the accumulated pivot error stays orders of magnitude
below the slack the caller reserves.  Nothing downstream trusts the solver:
certificates are re-verified independently.

Pivots follow Bland's rule (R. G. Bland, Math. Oper. Res. 2 (1977) 103-107)
with a tolerance tol: the entering variable is the one of least id whose
reduced cost is below -tol; among the rows whose entry in that column
exceeds tol, the leaving row is the one of least basic id whose ratio
rhs / entry is within tol of the least ratio.

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


def _pivot(T, basis, nonbasic, row, col):
    """Swap nonbasic column ``col`` with basic row ``row``."""
    piv = T[row, col]
    colvals = T[:, col].copy()
    colvals[row] = 0.0
    # the leaving variable's column, e_row, takes the entering one's slot
    T[:, col] = 0.0
    T[row, col] = 1.0
    # only the pivot row's nonzero columns change, as x - c * 0 is x; its zeros
    # are not divided either, since a negative pivot would leave them -0.0
    # where the update over every column made them +0.0 again
    prow = T[row]
    nz = prow.nonzero()[0]
    prow[nz] /= piv
    for j in nz:  # one contiguous column at a time: fancy-indexed blocks cost more
        T[:, j] -= colvals * prow[j]
    basis[row], nonbasic[col] = nonbasic[col], basis[row]


def _bland_iterate(T, basis, nonbasic, tol):
    """Minimize the last row's objective; returns (status, iterations)."""
    m = T.shape[0] - 1
    costs, rhs, below = T[-1, :-1], T[:m, -1], -tol
    for it in range(_MAX_ITER):
        entering = (costs < below).nonzero()[0]
        if entering.size == 0:
            return "optimal", it
        enter = entering[nonbasic[entering].argmin()]
        column = T[:m, enter]
        rows = (column > tol).nonzero()[0]
        if rows.size == 0:
            return "unbounded", it
        ratios = rhs[rows] / column[rows]
        ties = rows[ratios <= ratios.min() + tol]
        _pivot(T, basis, nonbasic, ties[basis[ties].argmin()], enter)
    return "iteration_limit", _MAX_ITER


def _tableau(A, b):
    """The starting tableau, its basis (the slacks) and its nonbasic ids.

    Columns: x (n), artificial x0 (1), rhs (1); rows: m + objective.
    """
    m, n = A.shape
    T = np.zeros((m + 1, n + 2), dtype=_LD, order="F")
    T[:m, :n] = A
    T[:m, n] = -1.0  # artificial column
    T[:m, -1] = b
    return T, np.arange(n + 1, n + 1 + m), np.arange(n + 1)


def _price_out(T, basis, cost):
    """Subtract from the objective row each basic row times its variable's
    cost, row by row: the dense tableau's pricing of its basic columns."""
    for i in np.flatnonzero(cost[basis] != 0):
        T[-1, :] -= cost[basis[i]] * T[i, :]


def solve_lp(A_ub, b_ub, objective=None):
    """Solve  min objective.x  s.t.  A_ub x <= b_ub, x >= 0  (Bland, 80-bit).

    With objective=None this is a pure feasibility solve.  A_ub may have no
    rows or no columns: with no rows x = 0 is optimal unless some cost is
    negative (unbounded), and with no columns the LP is feasible exactly
    when b_ub >= 0 (a Farkas ray otherwise).
    """
    A = np.asarray(A_ub, dtype=_LD)
    b = np.asarray(b_ub, dtype=_LD)
    m, n = A.shape
    c = np.zeros(n, dtype=_LD) if objective is None else np.asarray(objective, dtype=_LD)

    T, basis, nonbasic = _tableau(A, b)

    scale = max(1.0, float(np.abs(A).max(initial=0.0)), float(np.abs(b).max(initial=0.0)))
    tol = _LD(_TOL) * _LD(scale)

    total_iters = 0
    if np.any(b < 0):
        # phase 1: minimize x0
        T[-1, n] = 1.0
        worst = int(np.argmin(T[:m, -1]))
        _pivot(T, basis, nonbasic, worst, n)
        status, it = _bland_iterate(T, basis, nonbasic, tol)
        total_iters += it
        if status != "optimal":
            return SimplexResult(status, None, None, iterations=total_iters)
        if -T[-1, -1] > 1e-10 * scale:  # last-row rhs carries -z
            # infeasible; phase-1 duals are the reduced costs of the slacks
            # (0 for a basic one), certificate y >= 0, yA >= 0, yb < 0
            slack = nonbasic > n
            y = np.zeros(m)
            y[nonbasic[slack] - (n + 1)] = T[-1, :-1][slack]
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
            # x0 basic at zero: pivot it out on the eligible column of least id
            row = int(np.flatnonzero(basis == n)[0])
            cols = np.flatnonzero(np.abs(T[row, :-1]) > tol)
            if cols.size:
                _pivot(T, basis, nonbasic, row, cols[np.argmin(nonbasic[cols])])

    # phase 2: costs c, 1e30 on x0 to keep it out of the basis, 0 on slacks
    cost = np.zeros(n + 1 + m, dtype=_LD)
    cost[:n] = c
    cost[n] = _LD(1e30)
    T[-1, :-1] = cost[nonbasic]
    T[-1, -1] = 0.0
    _price_out(T, basis, cost)
    status, it = _bland_iterate(T, basis, nonbasic, tol)
    total_iters += it
    if status != "optimal":
        return SimplexResult(status, None, None, iterations=total_iters)

    x = np.zeros(n, dtype=_LD)
    in_x = basis < n
    x[basis[in_x]] = T[:m, -1][in_x]
    xf = np.asarray(x, dtype=float)
    xf[xf < 0] = 0.0  # clamp pivot dust; solutions carry reserved slack
    return SimplexResult(
        "optimal", xf, float(np.dot(np.asarray(c, float), xf)), iterations=total_iters
    )
