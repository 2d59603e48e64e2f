"""Unit checks for the 80-bit simplex on small LPs with known answers, its
pivot rule against a sequential scan kept as an oracle, and the condensed
tableau against the dense one it replaced (``oracle_simplex``): each pivot,
each phase's starting tableau and each solve's result, bit for bit."""

import tracemalloc

import numpy as np
import oracle_simplex
import pytest

from udsets import simplex, witness
from udsets.simplex import solve_lp


def test_simple_minimization():
    # min -x - y  s.t. x + y <= 1  ->  objective -1 on the face x + y = 1
    res = solve_lp([[1.0, 1.0]], [1.0], objective=[-1.0, -1.0])
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-1.0, abs=1e-12)
    assert res.x.sum() == pytest.approx(1.0, abs=1e-12)


def test_feasibility_with_negative_rhs():
    # x >= 2, x <= 3 (first row written as -x <= -2)
    res = solve_lp([[-1.0], [1.0]], [-2.0, 3.0])
    assert res.status == "optimal"
    assert 2.0 - 1e-12 <= res.x[0] <= 3.0 + 1e-12


def test_two_phase_known_vertex():
    # min x + y s.t. x + 2y >= 4, 3x + y >= 6, x,y >= 0 -> vertex (8/5, 6/5)
    A = [[-1.0, -2.0], [-3.0, -1.0]]
    b = [-4.0, -6.0]
    res = solve_lp(A, b, objective=[1.0, 1.0])
    assert res.status == "optimal"
    assert res.x[0] == pytest.approx(1.6, abs=1e-10)
    assert res.x[1] == pytest.approx(1.2, abs=1e-10)


def test_infeasible_with_farkas():
    # x <= 1 and x >= 2 cannot hold
    res = solve_lp([[1.0], [-1.0]], [1.0, -2.0])
    assert res.status == "infeasible"
    assert res.farkas is not None and res.farkas_valid
    y = res.farkas
    A = np.array([[1.0], [-1.0]])
    b = np.array([1.0, -2.0])
    assert np.all(y >= -1e-12)
    assert y @ b < 0
    assert np.all(y @ A >= -1e-9)


def test_unbounded():
    # min -x with only x - y <= 0: x can grow along x = y
    res = solve_lp([[1.0, -1.0]], [0.0], objective=[-1.0, 0.0])
    assert res.status == "unbounded"


def test_no_rows_is_optimal_at_zero_or_unbounded():
    res = solve_lp(np.zeros((0, 3)), np.zeros(0), objective=[1.0, 0.0, 2.0])
    assert res.status == "optimal" and res.iterations == 0
    assert res.x.tolist() == [0.0, 0.0, 0.0] and res.objective == 0.0
    assert solve_lp(np.zeros((0, 3)), np.zeros(0)).status == "optimal"
    res = solve_lp(np.zeros((0, 2)), np.zeros(0), objective=[1.0, -1.0])
    assert res.status == "unbounded"


def test_no_columns_infeasible_with_farkas():
    # 0 <= 1 holds, 0 <= -1 does not: the ray weights the second row
    res = solve_lp(np.zeros((2, 0)), [1.0, -1.0])
    assert res.status == "infeasible" and res.farkas_valid
    y = res.farkas
    assert y.shape == (2,) and np.all(y >= 0.0) and y @ np.array([1.0, -1.0]) < 0
    res = solve_lp(np.zeros((2, 0)), [1.0, 0.0])
    assert res.status == "optimal" and res.x.shape == (0,)


def test_determinism():
    # separate calls with identical inputs give identical outputs
    rng = np.random.default_rng(7)
    A = rng.normal(size=(40, 5))
    b = rng.uniform(0.5, 2.0, size=40)
    objective = rng.normal(size=5)
    for kwargs in ({"objective": objective}, {}):
        r1 = solve_lp(A, b, **kwargs)
        r2 = solve_lp(A, b, **kwargs)
        assert r1.status == r2.status
        assert np.array_equal(r1.x, r2.x)


# ---------------------------------------------------------------------------
# the pivot rule against the sequential scan, the condensed tableau against
# the dense one
# ---------------------------------------------------------------------------

def _scan_oracle(T, basis, tol):
    """One step of the earlier pivot rule on a dense tableau, a Python scan:
    (status, leave, enter).

    It compares each ratio with the best ratio so far, so its tie window can
    drift from the least ratio; ``_bland_iterate`` measures it from there.
    """
    m = T.shape[0] - 1
    enter = -1
    for j in range(T.shape[1] - 1):
        if T[-1, j] < -tol:
            enter = j
            break
    if enter < 0:
        return "optimal", None, None
    best_ratio = None
    leave = -1
    for i in range(m):
        if T[i, enter] > tol:
            ratio = T[i, -1] / T[i, enter]
            if (
                best_ratio is None
                or ratio < best_ratio - tol
                or (abs(ratio - best_ratio) <= tol and basis[leave] > basis[i])
            ):
                best_ratio = ratio
                leave = i
    if leave < 0:
        return "unbounded", None, enter
    return None, leave, enter


def _dense_pivot(T, basis, row, col):
    """The pivot update over the whole dense tableau, one ``np.outer``: the
    oracle for ``_pivot``, which touches only the pivot row's nonzero
    columns of the condensed one."""
    piv = T[row, col]
    T[row, :] /= piv
    colvals = T[:, col].copy()
    colvals[row] = 0.0
    T -= np.outer(colvals, T[row, :])
    T[:, col] = 0.0
    T[row, col] = 1.0
    basis[row] = col


def _dense_layout(T, basis, nonbasic):
    """The dense tableau a condensed one stands for: its columns in the
    slots of their variable ids, a unit column for each basic variable."""
    m = T.shape[0] - 1
    D = np.zeros((m + 1, T.shape[1] + m), dtype=T.dtype)
    D[:, nonbasic] = T[:, :-1]
    D[np.arange(m), basis] = 1.0
    D[:, -1] = T[:, -1]
    return D


def _same_bits(a, b):
    """Equal values and equal signs of zero: -0.0 == 0.0 for array_equal."""
    if a is None or b is None:
        return a is b
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def _assert_dense_solve_agrees(res, A, b, objective=None):
    """The dense solver's result agrees bitwise: status, iterations,
    objective, x, the Farkas ray with its signs of zero, and its check."""
    dense = oracle_simplex.dense_solve_lp(A, b, objective=objective)
    assert (res.status, res.iterations, res.farkas_valid) == (
        dense.status, dense.iterations, dense.farkas_valid
    )
    assert repr(res.objective) == repr(dense.objective)  # a float's repr is exact
    assert _same_bits(res.x, dense.x) and _same_bits(res.farkas, dense.farkas)


@pytest.fixture
def checked_pivots(monkeypatch):
    """Check every pivot ``_bland_iterate`` makes, and the status it ends
    with, against the scan on the dense tableau it stands for;
    ``["pivots"]`` counts the pivots checked.  Every pivot, Bland's or not,
    leaves the tableau, laid out dense, bitwise as the dense pivot leaves
    the dense layout of a copy of it."""
    seen = {"tol": None, "pivots": 0}
    bland, pivot = simplex._bland_iterate, simplex._pivot

    def checked_bland(T, basis, nonbasic, tol):
        seen["tol"] = tol
        try:
            status, it = bland(T, basis, nonbasic, tol)
        finally:
            seen["tol"] = None
        if status != "iteration_limit":
            assert _scan_oracle(_dense_layout(T, basis, nonbasic), basis, tol)[0] == status
        return status, it

    def checked_pivot(T, basis, nonbasic, row, col):
        dense, dense_basis = _dense_layout(T, basis, nonbasic), basis.copy()
        if seen["tol"] is not None:  # the phase-1 entry and x0 exit are not Bland's
            assert _scan_oracle(dense, basis, seen["tol"]) == (None, row, nonbasic[col])
            seen["pivots"] += 1
        _dense_pivot(dense, dense_basis, row, nonbasic[col])
        pivot(T, basis, nonbasic, row, col)
        assert _same_bits(_dense_layout(T, basis, nonbasic), dense)
        assert np.array_equal(basis, dense_basis)

    monkeypatch.setattr(simplex, "_bland_iterate", checked_bland)
    monkeypatch.setattr(simplex, "_pivot", checked_pivot)
    return seen


def _counting_solves(monkeypatch):
    """Count each witness solve's iterations, and check its result against
    the dense solver's."""
    iterations = []

    def counted(*args, **kwargs):
        res = solve_lp(*args, **kwargs)
        iterations.append(res.iterations)
        _assert_dense_solve_agrees(res, *args, **kwargs)
        return res

    monkeypatch.setattr(witness, "solve_lp", counted)
    return iterations


def test_certify_bound_pivots_match_the_scan(checked_pivots, monkeypatch, registry):
    iterations = _counting_solves(monkeypatch)
    result = witness.certify_bound(registry)
    assert len(iterations) == 14
    assert checked_pivots["pivots"] == sum(iterations) == 214
    assert result.best_delta == 0.2580810546875


def test_single_target_pivots_match_the_scan(checked_pivots, monkeypatch, registry):
    iterations = _counting_solves(monkeypatch)
    witness._attempt(
        registry, 0.30, minimize_quadratic=True,
        budget=witness.DEFAULT_BUDGET, margin=witness.DEFAULT_MARGIN, tail_start=40.0,
    )
    assert iterations and checked_pivots["pivots"] == sum(iterations) > 0


def _random_lps():
    """300 small LPs (A, b, objective): ties, degenerate rhs, all statuses."""
    rng = np.random.default_rng(20261018)
    for k in range(300):
        m, n = int(rng.integers(2, 30)), int(rng.integers(1, 8))
        if k % 2:  # small integers: exact ties in the ratio test
            A = rng.integers(-3, 4, size=(m, n)).astype(float)
        else:
            A = rng.normal(size=(m, n))
        if k % 3 == 0:  # degenerate: every ratio 0
            b = np.zeros(m)
        else:
            b = rng.uniform(-1.0, 2.0, size=m)
        objective = rng.normal(size=n) if k % 5 else None
        yield A, b, objective


def test_random_lp_pivots_match_the_scan(checked_pivots):
    total = 0
    statuses = set()
    for A, b, objective in _random_lps():
        res = solve_lp(A, b, objective=objective)
        _assert_dense_solve_agrees(res, A, b, objective=objective)
        total += res.iterations
        statuses.add(res.status)
    assert checked_pivots["pivots"] == total > 300
    assert {"optimal", "infeasible", "unbounded"} <= statuses


def _tiny_integer_lps():
    """3,000 feasibility LPs of at most 6 rows and 4 columns, entries in
    -1..1, rhs -1 or 0: phase 1 now and then ends with x0 basic at zero."""
    rng = np.random.default_rng(11)
    for _ in range(3000):
        m, n = int(rng.integers(2, 7)), int(rng.integers(1, 5))
        A = rng.integers(-1, 2, size=(m, n)).astype(float)
        yield A, rng.integers(-1, 1, size=m).astype(float)


def test_x0_exit_matches_the_dense_solver(checked_pivots, monkeypatch):
    """The x0 exit pivots on the eligible column of least variable id, as the
    dense solver does; here that is often not the first eligible column."""
    later_column = []
    pivot = simplex._pivot

    def recording(T, basis, nonbasic, row, col):
        if checked_pivots["tol"] is None and basis[row] == T.shape[1] - 2:
            later_column.append(col != np.flatnonzero(T[row, :-1])[0])
        pivot(T, basis, nonbasic, row, col)

    monkeypatch.setattr(simplex, "_pivot", recording)
    for A, b in _tiny_integer_lps():
        _assert_dense_solve_agrees(solve_lp(A, b), A, b)
    assert sum(later_column) > 10


def test_solve_lp_peak_memory():
    """The condensed tableau of a 405 x 5 LP, the size of each certify_bound
    solve, is O(m n): its traced peak is 0.12 MB, where the dense tableau's
    was 2.9 MB."""
    rng = np.random.default_rng(405)
    A = rng.normal(size=(405, 5))
    b = A @ rng.uniform(0.5, 1.0, size=5) + rng.uniform(0.0, 0.5, size=405)
    objective = rng.normal(size=5)
    assert np.any(b < 0)  # both phases run
    solve_lp(A, b, objective=objective)  # warm numpy's caches
    tracemalloc.start()
    try:
        res = solve_lp(A, b, objective=objective)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.status == "optimal" and res.iterations > 0
    assert peak < 0.5e6


# ---------------------------------------------------------------------------
# the tableau set-up against the dense one it replaced
# ---------------------------------------------------------------------------

def _eye_tableau(A, b):
    """The earlier dense set-up: the slack block written as ``np.eye``."""
    m, n = A.shape
    T = np.zeros((m + 1, n + 1 + m + 1), dtype=np.longdouble)
    T[:m, :n] = A
    T[:m, n] = -1.0
    T[:m, n + 1 : n + 1 + m] = np.eye(m, dtype=np.longdouble)
    T[:m, -1] = b
    return T, np.arange(n + 1, n + 1 + m)


def _price_every_row(T, basis, n):
    """The earlier dense phase-2 pricing: a pass over every basis row."""
    for i, bj in enumerate(basis):
        if T[-1, bj] != 0:
            T[-1, :] -= T[-1, bj] * T[i, :]


def _assert_old_setup_agrees(A, b, objective):
    """The dense solver with the earlier set-up gives the same result and, at
    the start of each phase, the tableau the condensed one stands for."""
    tableaus, old_tableaus = [], []
    bland, old_bland = simplex._bland_iterate, oracle_simplex._bland_iterate

    def copying(T, basis, nonbasic, tol):
        tableaus.append(_dense_layout(T, basis, nonbasic))
        return bland(T, basis, nonbasic, tol)

    def old_copying(T, basis, tol):
        old_tableaus.append(T.copy())
        return old_bland(T, basis, tol)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex, "_bland_iterate", copying)
        mp.setattr(oracle_simplex, "_bland_iterate", old_copying)
        mp.setattr(oracle_simplex, "_tableau", _eye_tableau)
        mp.setattr(oracle_simplex, "_price_out", _price_every_row)
        res = solve_lp(A, b, objective=objective)
        _assert_dense_solve_agrees(res, A, b, objective=objective)
    assert len(tableaus) == len(old_tableaus) > 0
    assert all(_same_bits(T, old_T) for T, old_T in zip(tableaus, old_tableaus))
    return res


def test_setup_matches_the_dense_setup_on_the_certify_lps(monkeypatch, registry):
    lps = []

    def recorded(A, b, objective=None):
        lps.append((A, b, objective))
        return solve_lp(A, b, objective=objective)

    monkeypatch.setattr(witness, "solve_lp", recorded)
    witness.certify_bound(registry)
    assert len(lps) == 14
    assert sum(_assert_old_setup_agrees(*lp).iterations for lp in lps) == 214


def test_setup_matches_the_dense_setup_on_random_lps():
    statuses = {_assert_old_setup_agrees(*lp).status for lp in _random_lps()}
    assert {"optimal", "infeasible", "unbounded"} <= statuses


_TOL = np.longdouble(2.0**-10)


@pytest.mark.parametrize(
    "ratios, entries, basics, leave, scan_leave",
    [
        ([1.0, 1.0], [1.0, 1.0], [7, 3], 1, 1),  # exact tie: least basic index
        ([1.0, 1.0 + 0.5 * float(_TOL)], [1.0, 1.0], [7, 3], 1, 1),  # within tol
        ([1.0, 1.0 + 2.0 * float(_TOL)], [1.0, 1.0], [7, 3], 0, 0),  # beyond tol
        ([1.0, 0.5], [1.0, 0.0], [7, 3], 0, 0),  # an entry of 0 is not eligible
        ([1.0, 0.5], [1.0, -2.0], [7, 3], 0, 0),  # nor is a negative one
        # the window runs from the least ratio: 0.9 tol is in it, 1.8 tol is
        # not, though the scan, comparing with the best so far, takes 1.8 tol
        ([0.0, 0.9 * float(_TOL), 1.8 * float(_TOL)], [1.0, 1.0, 1.0], [9, 5, 1], 1, 2),
    ],
)
def test_bland_leaving_row(monkeypatch, ratios, entries, basics, leave, scan_leave):
    m = len(ratios)
    # columns: one that enters (variable 0), the rhs; an eligible row's ratio
    # is its rhs.  The same array is the dense tableau the scan reads.
    T = np.zeros((m + 1, 2), dtype=np.longdouble, order="F")
    T[:m, 0] = entries
    T[:m, -1] = ratios
    T[-1, 0] = -1.0
    basis = np.array(basics)
    assert _scan_oracle(T, basis, _TOL) == (None, scan_leave, 0)
    pivots = []

    def record(T, basis, nonbasic, row, col):
        pivots.append((int(row), int(col)))
        T[-1, :] = 0.0  # optimal after one pivot

    monkeypatch.setattr(simplex, "_pivot", record)
    assert simplex._bland_iterate(T, basis, np.array([0]), _TOL) == ("optimal", 1)
    assert pivots == [(leave, 0)]


def test_bland_entering_column_and_exits(monkeypatch):
    tol = _TOL
    T = np.zeros((3, 4), dtype=np.longdouble, order="F")
    T[-1, :3] = [-0.5 * float(tol), -2.0, -1.0]  # column 0 is within tol of 0
    T[:2, 1] = [-1.0, 0.0]  # column 1 has no positive entry
    basis, nonbasic = np.array([0, 3]), np.array([1, 2, 4])
    assert simplex._bland_iterate(T, basis, nonbasic, tol) == ("unbounded", 0)
    T[-1, 1] = 0.0
    T[:2, 2] = [1.0, 2.0]
    T[:2, -1] = [4.0, 2.0]
    assert simplex._bland_iterate(T, basis, nonbasic, tol) == ("optimal", 1)
    assert basis.tolist() == [0, 4] and nonbasic.tolist() == [1, 2, 3]

    # columns out of id order: the least id enters, not the first column
    # nor the least reduced cost
    T = np.zeros((3, 4), dtype=np.longdouble, order="F")
    T[-1, :3] = [-3.0, -1.0, -2.0]
    T[:2, :3] = 1.0
    T[:2, -1] = [4.0, 2.0]
    pivots = []

    def record(T, basis, nonbasic, row, col):
        pivots.append((int(row), int(col)))
        T[-1, :] = 0.0  # optimal after one pivot

    monkeypatch.setattr(simplex, "_pivot", record)
    assert simplex._bland_iterate(T, np.array([0, 3]), np.array([6, 2, 4]), tol) == (
        "optimal", 1
    )
    assert pivots == [(1, 1)]
