"""Unit checks for the 80-bit simplex on small LPs with known answers."""

import numpy as np
import pytest

from udsets.simplex import solve_lp


def test_simple_minimization():
    # min -x - y  s.t. x + y <= 1  ->  objective -1 on the face x + y = 1
    res = solve_lp([[1.0, 1.0]], [1.0], 2, objective=[-1.0, -1.0])
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-1.0, abs=1e-12)
    assert res.x.sum() == pytest.approx(1.0, abs=1e-12)


def test_feasibility_with_negative_rhs():
    # x >= 2, x <= 3 (first row written as -x <= -2)
    res = solve_lp([[-1.0], [1.0]], [-2.0, 3.0], 1)
    assert res.status == "optimal"
    assert 2.0 - 1e-12 <= res.x[0] <= 3.0 + 1e-12


def test_two_phase_known_vertex():
    # min x + y s.t. x + 2y >= 4, 3x + y >= 6, x,y >= 0 -> vertex (8/5, 6/5)
    A = [[-1.0, -2.0], [-3.0, -1.0]]
    b = [-4.0, -6.0]
    res = solve_lp(A, b, 2, objective=[1.0, 1.0])
    assert res.status == "optimal"
    assert res.x[0] == pytest.approx(1.6, abs=1e-10)
    assert res.x[1] == pytest.approx(1.2, abs=1e-10)


def test_infeasible_with_farkas():
    # x <= 1 and x >= 2 cannot hold
    res = solve_lp([[1.0], [-1.0]], [1.0, -2.0], 1)
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
    res = solve_lp([[1.0, -1.0]], [0.0], 2, objective=[-1.0, 0.0])
    assert res.status == "unbounded"


def test_determinism():
    # separate calls with identical inputs give identical outputs
    rng = np.random.default_rng(7)
    A = rng.normal(size=(40, 5))
    b = rng.uniform(0.5, 2.0, size=40)
    objective = rng.normal(size=5)
    for kwargs in ({"objective": objective}, {}):
        r1 = solve_lp(A, b, 5, **kwargs)
        r2 = solve_lp(A, b, 5, **kwargs)
        assert r1.status == r2.status
        assert np.array_equal(r1.x, r2.x)
