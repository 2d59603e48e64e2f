"""The dense-tableau simplex, the bitwise reference for the condensed one.

This is ``udsets.simplex`` as it was before it moved to the condensed
tableau: one (m + 1) x (n + 1 + m + 1) tableau with a column for every
variable, the m slack columns written as an identity block, and Bland's rule
read off column indices, which are the variable ids.  ``_tableau``,
``_pivot``, ``_bland_iterate`` and ``_price_out`` are kept as they were, and
``dense_solve_lp`` is the earlier ``solve_lp``; it calls them through the
module, so a test can swap one of them (say, the set-up) for another.
"""

import numpy as np

from udsets.simplex import _LD, _MAX_ITER, _TOL, SimplexResult


def _pivot(T, basis, row, col):
    # only the pivot row's nonzero columns change, as x - c * 0 is x; its zeros
    # are not divided either, since a negative pivot would leave them -0.0
    # where the update over every column made them +0.0 again
    nz = np.flatnonzero(T[row])
    piv = T[row, col]
    T[row, nz] /= piv
    colvals = T[:, col].copy()
    colvals[row] = 0.0
    T[:, nz] -= np.outer(colvals, T[row, nz])
    # re-zero the pivot column explicitly to stop error creep
    T[:, col] = 0.0
    T[row, col] = 1.0
    basis[row] = col


def _bland_iterate(T, basis, tol):
    """Minimize the last row's objective; returns (status, iterations)."""
    m = T.shape[0] - 1
    for it in range(_MAX_ITER):
        entering = np.flatnonzero(T[-1, :-1] < -tol)
        if entering.size == 0:
            return "optimal", it
        enter = entering[0]
        rows = np.flatnonzero(T[:m, enter] > tol)
        if rows.size == 0:
            return "unbounded", it
        ratios = T[rows, -1] / T[rows, enter]
        ties = rows[ratios <= ratios.min() + tol]
        _pivot(T, basis, ties[np.argmin(basis[ties])], enter)
    return "iteration_limit", _MAX_ITER


def _tableau(A, b):
    """The starting tableau and its basis, the slacks.

    Columns: x (n), artificial x0 (1), slacks (m), rhs (1); rows: m +
    objective.  The slack block is the identity, written on its diagonal.
    """
    m, n = A.shape
    T = np.zeros((m + 1, n + 1 + m + 1), dtype=_LD)
    T[:m, :n] = A
    T[:m, n] = -1.0  # artificial column
    basis = np.arange(n + 1, n + 1 + m)
    T[np.arange(m), basis] = 1.0
    T[:m, -1] = b
    return T, basis


def _price_out(T, basis, n):
    """Zero the objective row's entries in the basic columns, row by row.

    Only a column <= n can have a cost: the objective row is zero beyond
    x and x0, and subtracting a basis row leaves it zero in every other
    basic column, since ``_pivot`` keeps basic columns exact unit vectors.
    """
    for i in np.flatnonzero(basis <= n):
        bj = basis[i]
        if T[-1, bj] != 0:
            T[-1, :] -= T[-1, bj] * T[i, :]


def dense_solve_lp(A_ub, b_ub, objective=None):
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

    T, basis = _tableau(A, b)

    scale = max(1.0, float(np.abs(A).max(initial=0.0)), float(np.abs(b).max(initial=0.0)))
    tol = _LD(_TOL) * _LD(scale)

    total_iters = 0
    if np.any(b < 0):
        # phase 1: minimize x0
        T[-1, n] = 1.0
        worst = int(np.argmin(T[:m, -1]))
        _pivot(T, basis, worst, n)
        status, it = _bland_iterate(T, basis, tol)
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
            row = int(np.flatnonzero(basis == n)[0])
            cols = np.flatnonzero(np.abs(T[row, :-1]) > tol)
            cols = cols[cols != n]
            if cols.size:
                _pivot(T, basis, row, cols[0])

    # phase 2
    T[-1, :] = 0.0
    T[-1, :n] = c
    T[-1, n] = _LD(1e30)  # keep the artificial column out of the basis
    _price_out(T, basis, n)
    status, it = _bland_iterate(T, basis, tol)
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
