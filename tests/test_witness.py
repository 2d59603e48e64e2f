"""Witness evaluation, the quadratic, gamma extraction, LP, certificates."""

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from udsets import bessel as bessel_module
from udsets import registry as registry_module
from udsets import witness as witness_module
from udsets.bessel import j0_combination
from udsets.constructions import hex_disk_packing, optimize_croft, rasterize
from udsets.errors import DomainError, FeasibilityError, SchemaError
from udsets.registry import ConstraintGraph, CTPair, Registry, builtin_registry
from udsets.torus import random_gridset, spectrum, spectrum_auto
from udsets.witness import (
    CROFT_TARGET_DENSITY,
    DEFAULT_BUDGET,
    DEFAULT_MARGIN,
    LP_INFEASIBLE_WITHOUT_TAIL,
    WitnessCoefficients,
    certify_bound,
    default_solve_grid,
    gamma_coefficient,
    gamma_extract,
    kappa_constraint_audit,
    quadratic_coefficients,
    quadratic_root,
    solve_feasibility,
    spot_audit,
    verification_step,
    verify_certificate_file,
    verify_witness,
    witness_eval,
    witness_lipschitz,
    write_certificate,
    _quadratic_interval_max,
)


@pytest.fixture(scope="module")
def reg():
    return builtin_registry()


def coeffs(reg, **kw):
    base = dict(v0=0.0, v1=0.0, v196=0.0, w_m=(0.0,), w_t=(0.0,), w_theta=())
    base.update(kw)
    return WitnessCoefficients(registry=reg, **base)


def test_croft_target_matches_constructions():
    assert optimize_croft()[1] == pytest.approx(CROFT_TARGET_DENSITY, abs=1e-10)


def test_witness_trivials(reg):
    zero = coeffs(reg)
    ts = np.linspace(0.0, 30.0, 50)
    assert np.all(witness_eval(zero, ts) == 0.0)
    one = coeffs(reg, v0=1.0)
    assert np.all(witness_eval(one, ts) == 1.0)
    assert witness_eval(one, 0.0) == 1.0


def test_witness_rejects_negative_coefficients(reg):
    with pytest.raises(DomainError):
        coeffs(reg, v1=-0.1)


def test_budget_sum_weights(reg):
    c = coeffs(reg, v0=1.0, v1=2.0, v196=3.0, w_m=(0.5,), w_t=(0.25,), w_theta=())
    assert c.budget_sum == pytest.approx(1 + 2 + 3 + 0.5 + 2 * 0.25)


def _explicit_sums(c):
    # (a, b, c, Gamma, budget sum) written out term by term, as the
    # certificate formulas state them: the oracle for the variable table
    reg = c.registry
    a = -(1.0 - c.v196)
    b = (
        c.v0
        + sum(g.alpha * w for g, w in zip(reg.m_graphs, c.w_m))
        + sum(g.alpha * w for g, w in zip(reg.t_graphs, c.w_t))
        - 5.0 * sum(c.w_theta)
    )
    qc = float(sum(c.w_theta))
    gamma = (
        c.v1
        + c.v196
        + sum(g.n_edges * w for g, w in zip(reg.m_graphs, c.w_m))
        + sum(g.n_edges * w for g, w in zip(reg.t_graphs, c.w_t))
        + sum(p.c_ct * w for p, w in zip(reg.ct_pairs, c.w_theta))
    )
    budget = (
        c.v0 + c.v1 + c.v196 + sum(c.w_m) + 2.0 * sum(c.w_t) + 2.0 * sum(c.w_theta)
    )
    return a, b, qc, gamma, budget


def _table_sums(c):
    return (*quadratic_coefficients(c), gamma_coefficient(c), c.budget_sum)


def test_variable_table_matches_explicit_formulas(reg):
    rng = np.random.default_rng(11)
    empty = np.zeros((0, 2))
    two_ct = Registry(
        reg.graphs,
        (CTPair("ct1", 0.0, empty, empty, 1.0), CTPair("ct2", 0.0, empty, empty, 0.37)),
        "two-ct",
    )
    for _ in range(200):
        x = rng.uniform(0.0, 3.0, size=7)
        c = WitnessCoefficients(*x[:3], (x[3],), (x[4],), (), reg)
        # one M and one T graph: every sum has at most one term, so the
        # sequential table sums reproduce the formulas bit for bit
        assert _table_sums(c) == _explicit_sums(c)
        c = WitnessCoefficients(*x[:3], (x[3],), (x[4],), tuple(x[5:]), two_ct)
        # with two CT terms the formulas group the CT sums first; the two
        # orders of adding these <= 7 terms (weights <= 11) differ by a few ulps
        tol = 16 * np.finfo(float).eps * 11.0 * float(np.sum(x))
        for got, want in zip(_table_sums(c), _explicit_sums(c)):
            assert abs(got - want) <= tol


def test_lipschitz_zero_and_radius_guard(reg):
    assert witness_lipschitz(coeffs(reg)) == 0.0

    def one_vertex_at(x):
        g = ConstraintGraph("far", "vertex_sum", np.array([[x, 0.0]]), (), 1)
        far = Registry((g,), (), "far")
        return WitnessCoefficients(1.0, 0.0, 0.0, (0.0,), (), (), far)

    assert witness_lipschitz(one_vertex_at(4.0)) == 0.0
    with pytest.raises(DomainError, match="radius 5.0 exceeds"):
        witness_lipschitz(one_vertex_at(5.0))


def test_lipschitz_bounds_empirical_slopes(reg):
    rng = np.random.default_rng(0)
    for trial in range(5):
        raw = rng.uniform(0.0, 1.0, size=5)
        c = coeffs(
            reg,
            v0=raw[0],
            v1=raw[1],
            v196=raw[2],
            w_m=(raw[3] / 10,),
            w_t=(raw[4] / 10,),
        )
        L = witness_lipschitz(c)
        t0 = rng.uniform(0.0, 30.0, size=2000)
        dt = rng.uniform(1e-6, 1e-3, size=2000)
        slopes = np.abs(witness_eval(c, t0 + dt) - witness_eval(c, t0)) / dt
        assert np.max(slopes) <= L + 1e-5


def test_quadratic_root_trivial_and_family(reg):
    delta, (a, b, qc) = quadratic_root(coeffs(reg, v0=1.0))
    assert (a, b, qc) == (-1.0, 1.0, 0.0)
    assert delta == pytest.approx(1.0, abs=1e-15)

    ct = CTPair("ct", 0.0, np.zeros((0, 2)), np.zeros((0, 2)), 1.0)
    reg_ct = Registry((), (ct,), "synthetic")
    for s_val in (0.3, 1.0, 2.5):
        c = WitnessCoefficients(0, 0, 0, (), (), (s_val,), reg_ct)
        delta, (a, b, qc) = quadratic_root(c)
        closed = (-5 * s_val + math.sqrt(25 * s_val**2 + 4 * s_val)) / 2
        assert delta == pytest.approx(closed, abs=1e-10)
        # bisection cross-check: smallest d >= 0 with a d^2 + b d + c <= 0
        lo, hi = 0.0, 1.0
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if a * mid * mid + b * mid + qc > 0:
                lo = mid
            else:
                hi = mid
        assert delta == pytest.approx(hi, abs=1e-10)
        # root property
        assert abs(a * delta**2 + b * delta + qc) <= 1e-10 * max(abs(a), abs(b), abs(qc), 1)
    assert quadratic_root(WitnessCoefficients(0, 0, 0, (), (), (1.0,), reg_ct))[0] == pytest.approx(
        (math.sqrt(29) - 5) / 2, abs=1e-12
    )
    with pytest.raises(DomainError):
        quadratic_root(coeffs(reg, v196=1.0))


def _assert_gamma_is_largest(c, epsilon):
    # gamma is the largest float keeping Q + gamma * Gamma negative, where
    # Q is the quadratic's maximum on [delta_star + epsilon, 1]
    gamma = gamma_extract(c, epsilon)
    delta, (a, b, qc) = quadratic_root(c)
    Q = _quadratic_interval_max(a, b, qc, delta + epsilon, 1.0)
    Gamma = gamma_coefficient(c)
    assert Q + gamma * Gamma < 0.0
    assert Q + math.nextafter(gamma, math.inf) * Gamma >= 0.0
    return gamma


def test_gamma_extract_reduces_and_monotone(reg):
    c = coeffs(reg, v0=0.12, v1=0.5, v196=0.2, w_m=(0.01,), w_t=(0.005,))
    delta, (a, b, qc) = quadratic_root(c)
    assert delta + 5e-3 < CROFT_TARGET_DENSITY
    g1 = gamma_extract(c, epsilon=1e-3)
    g2 = gamma_extract(c, epsilon=5e-3)
    assert 0.0 < g1 <= g2  # nondecreasing in epsilon
    # at gamma = 0 the perturbed quadratic's max root is delta_star itself
    Gamma = gamma_coefficient(c)
    eps = 1e-3
    d = delta + eps
    assert a * d * d + b * d + qc + g1 * Gamma < 0
    assert a * d * d + b * d + qc + (2.5 * g1) * Gamma > 0  # g1 is near-largest
    # scaling the gamma-carrying coefficients up shrinks gamma
    c_big = coeffs(reg, v0=0.12, v1=2.0, v196=0.2, w_m=(0.01,), w_t=(0.005,))
    assert gamma_extract(c_big, 1e-3) < g1
    for witness, eps in ((c, 1e-3), (c, 5e-3), (c_big, 1e-3)):
        _assert_gamma_is_largest(witness, eps)
    # at epsilon = 1e-9, gamma ~ 1.7e-10 < 2**-28: 80 bisection steps from
    # [0, 1] would stop short of the largest admissible float here
    assert 0.0 < _assert_gamma_is_largest(c, 1e-9) < 2.0**-28


@pytest.mark.parametrize("epsilon", [0.0, -1e-3, math.nan, math.inf])
def test_gamma_extract_refuses_an_epsilon_not_finite_and_positive(reg, epsilon):
    c = coeffs(reg, v0=0.12, v1=0.5, v196=0.2, w_m=(0.01,), w_t=(0.005,))
    with pytest.raises(DomainError, match="epsilon"):
        gamma_extract(c, epsilon)


def test_published_coefficient_table_quadratic():
    # The published dual solution: the quadratic opens upward (v196 > 1) and
    # the certified bound is the smaller root; only alpha/|E| shape matters
    # here, so stub graphs with the right combinatorics suffice.
    from udsets.registry import ConstraintGraph, CTPair, Registry

    two = np.array([[0.0, 0.0], [1.0, 0.0]])

    def mk(name, kind, alpha, n_edges):
        return ConstraintGraph(name, kind, two, tuple((0, 1) for _ in range(n_edges)), alpha)

    ms = tuple(mk(f"m{i}", "vertex_sum", 2, 11) for i in range(3))
    ts = tuple(mk(f"t{i}", "subgraph", 1, 3) for i in range(10))
    cts = tuple(
        CTPair(f"ct{i}", 0.0, np.zeros((0, 2)), np.zeros((0, 2)), 1.0) for i in range(5)
    )
    stub = Registry(ms + ts, cts, "stub")
    c = WitnessCoefficients(
        v0=0.0244, v1=9.0158, v196=1.9724,
        w_m=(0.000949, 0.00394, 0.01952),
        w_t=(0.00937, 0.00199, 0.00220, 0.00164, 0.00149, 0.0479,
             0.0925, 0.00203, 0.00231, 0.00316),
        w_theta=(0.00140, 0.00202, 0.00438, 0.0898, 0.630),
        registry=stub,
    )
    assert c.budget_sum <= 15.0
    delta, (a, b, qc) = quadratic_root(c)
    assert a > 0.0  # upward branch
    assert delta <= 0.229
    assert delta == pytest.approx(0.228983, abs=1e-5)
    assert _assert_gamma_is_largest(c, 1e-4) > 0.0


def test_gamma_extract_infeasible_when_bound_too_weak(reg):
    c = coeffs(reg, v0=0.5, v1=0.5)  # delta_star = 0.5 > croft density
    with pytest.raises(FeasibilityError):
        gamma_extract(c, 1e-3)


def test_verify_constant_witness_certifies(reg):
    rep = verify_witness(coeffs(reg, v0=1.0), grid_step=1e-4, margin=0.01)
    assert rep.certified
    assert rep.min_grid_value == 1.0
    assert rep.delta_star == pytest.approx(1.0)


def test_verify_pure_j0_fails(reg):
    rep = verify_witness(coeffs(reg, v1=1.0), grid_step=1e-4, margin=0.01, tail_start=6.0)
    assert not rep.certified
    assert "grid min" in rep.verdict
    # the dip is the first negative lobe of J0 near 3.83
    assert 3.6 < rep.argmin_t < 4.0


def test_verify_grid_ends_at_tail_start(reg):
    # 0.5 + J0 decreases on [0, 2], so the grid minimum sits at tail_start
    # itself; a grid stopping one step short would report 1.99999
    c = WitnessCoefficients(0.5, 1.0, 0.0, (0.0,), (0.0,), (), reg)
    rep = verify_witness(c, 1e-5, 3e-3, 2.0)
    assert rep.argmin_t == 2.0
    assert rep.min_grid_value == witness_eval(c, 2.0)


def test_verify_grid_step_precondition(reg):
    with pytest.raises(DomainError):
        verify_witness(coeffs(reg, v1=1.0), grid_step=0.5, margin=1e-3)


def _no_grid(*args):
    raise AssertionError("_grid_min reached")


@pytest.mark.parametrize(
    "grid_step, tail_start",
    [(2.0**-40, 40.0), (2.0**-8, 1e12), (2.0**-20, 1024.0), (1e-300, 1e300)],
    ids=["step 2^-40", "tail 1e12", "one point over", "ratio overflows"],
)
def test_verify_refuses_an_oversized_grid_first(reg, monkeypatch, grid_step, tail_start):
    # over 2**30 points: refused before the grid walk, which would not return
    monkeypatch.setattr(witness_module, "_grid_min", _no_grid)
    with pytest.raises(DomainError, match="exceeds 1073741824 points"):
        verify_witness(coeffs(reg, v1=1.0), grid_step, 3e-3, tail_start)


def test_verify_admits_a_grid_of_the_cap(reg, monkeypatch):
    # floor(tail_start / grid_step) + 1 = 2**30 points exactly
    monkeypatch.setattr(witness_module, "_grid_min", _no_grid)
    with pytest.raises(AssertionError, match="_grid_min reached"):
        verify_witness(coeffs(reg, v1=1.0), 2.0**-20, 3e-3, 1024.0 - 2.0**-20)


def test_solve_feasible_then_verifies(reg):
    res = solve_feasibility(reg, 0.30, 40.0)
    assert res.status == "feasible"
    rep = verify_witness(res.coefficients, 1e-4, 3e-3, 40.0)
    assert rep.certified
    assert rep.delta_star <= 0.30 + 1e-9


def test_solve_infeasible_reports_farkas(reg):
    res = solve_feasibility(reg, 0.05, 20.0)
    assert res.status == "infeasible"
    assert res.farkas is not None
    assert res.farkas_valid


def test_certify_bound_monotone_under_registry_growth(certified):
    # the trivial-columns-only registry already certifies some bound; adding
    # spindle constraints can only keep or shrink the feasible target
    empty = Registry((), (), "empty")
    out_empty = certify_bound(empty)
    out_full = certified
    assert out_full.best_delta <= out_empty.best_delta + 5e-3
    assert out_full.report.certified


def _is_power_of_two(x):
    m, _ = math.frexp(x)
    return x > 0.0 and m == 0.5


def test_verification_step_is_largest_power_of_two_below_margin_over_L(reg, certified):
    rng = np.random.default_rng(7)
    witnesses = [certified.coefficients] + [
        coeffs(reg, v0=1.0, v1=rng.uniform(0, 3), v196=rng.uniform(0, 3),
               w_m=(rng.uniform(0, 1),), w_t=(rng.uniform(0, 1),))
        for _ in range(5)
    ]
    for c in witnesses:
        for margin in (DEFAULT_MARGIN, 1e-2, 1.7e-4):
            step = verification_step(c, margin)
            bound = margin / witness_lipschitz(c)
            assert _is_power_of_two(step)
            assert step <= bound < 2.0 * step
    # the builtin certificate: L = 0.6 (v1 + 1.96 v196), step 2**-8
    assert verification_step(certified.coefficients) == 2.0**-8
    assert certified.report.grid_step == 2.0**-8
    # no J0 terms: L = 0, a fixed power of two, and the witness verifies
    flat = coeffs(reg, v0=1.0)
    step = verification_step(flat)
    assert _is_power_of_two(step)
    assert verify_witness(flat, step).certified
    with pytest.raises(DomainError):
        verification_step(flat, 0.0)


def test_solve_grid_only_grows_with_the_tail_start():
    # escalation appends solve-grid rows and never moves the old ones, which
    # is what lets a tail-free Farkas ray refute every larger tail start
    short = default_solve_grid(20.0)
    long_ = default_solve_grid(40.0)
    assert long_[: len(short)].tobytes() == short.tobytes()


def test_builtin_infeasibility_does_not_depend_on_the_tail(reg):
    # at delta = 0.25 (below the certified 0.2581) the LP at T = 20 is
    # infeasible, and its Farkas ray puts zero weight on the tail row ...
    results = {}
    for T in (20.0, 40.0, 80.0):
        results[T] = solve_feasibility(reg, 0.25, T, DEFAULT_BUDGET, DEFAULT_MARGIN)
    first = results[20.0]
    assert first.status == "infeasible"
    tail = first.labels.index("tail")
    assert first.farkas_valid and first.farkas[tail] == 0.0
    # the labelled entry is the one farkas[-1] read: the tail row is still last
    assert tail == len(first.labels) - 1 == len(first.farkas) - 1
    # ... so the escalated LPs are infeasible as well
    assert results[40.0].status == "infeasible"
    assert results[80.0].status == "infeasible"


def _spindle_file_registry():
    return registry_module.load_registry(
        Path(registry_module.__file__).parent / "data" / "moser_spindle.json"
    )


def _ct_registry(reg):
    # one CT pair: a unit triangle against two points, radii <= DEFAULT_RMAX
    h = math.sqrt(3.0) / 2.0
    g1 = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, h]])
    g2 = np.array([[0.5, 0.5], [2.0, 0.0]])
    return Registry(reg.graphs, (CTPair("ct", 0.0, g1, g2, 1.0),), "one-ct")


@pytest.mark.parametrize("tail_start", [1.0, 20.0, 80.0])
@pytest.mark.parametrize("which", ["builtin", "spindle file", "one CT pair"])
def test_row_table_columns_equal_j0_combination(reg, which, tail_start):
    registry = {"builtin": reg, "spindle file": _spindle_file_registry(),
                "one CT pair": _ct_registry(reg)}[which]
    rows = witness_module._lp_rows(registry, tail_start, DEFAULT_BUDGET, DEFAULT_MARGIN)
    ts = np.append(default_solve_grid(min(tail_start, 40.0)), 0.0)
    n_grid = len(ts) - 1
    assert rows.labels == ("grid",) * n_grid + ("w0", "budget", "quadratic", "tail")
    variables = witness_module._var_terms(registry)
    assert rows.A.shape == (n_grid + 4, len(variables))
    for j, v in enumerate(variables):
        want = j0_combination(v.radii, v.coeffs, ts, v.const)
        got = -rows.A[: n_grid + 1, j]
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
    if which == "one CT pair":  # W subtracts the CT profile: A holds it as is
        const, radii, coeffs = registry.ct_pairs[0]._profile
        assert np.array_equal(rows.A[: n_grid + 1, -1], j0_combination(radii, coeffs, ts, const))


def _feasibility_fields(res):
    """A FeasibilityResult as plain comparable values, field by field."""
    c = res.coefficients
    return {
        "status": res.status,
        "coefficients": None if c is None else repr(c.as_dict()),
        "farkas": None if res.farkas is None else repr(res.farkas.tolist()),
        "farkas_valid": res.farkas_valid,
        "iterations": res.iterations,
        "labels": res.labels,
    }


def test_solve_feasibility_keeps_one_row_table_per_arguments(reg, monkeypatch):
    spindle = _spindle_file_registry()
    solves = [  # (registry, delta_plus, tail start, budget, margin)
        (reg, 0.3, 20.0, DEFAULT_BUDGET, DEFAULT_MARGIN),
        (reg, 0.25, 20.0, DEFAULT_BUDGET, DEFAULT_MARGIN),  # same table, another target
        (reg, 0.3, 40.0, DEFAULT_BUDGET, DEFAULT_MARGIN),
        (reg, 0.3, 1.0, DEFAULT_BUDGET, DEFAULT_MARGIN),  # infeasible: a Farkas ray
        (spindle, 0.3, 20.0, DEFAULT_BUDGET, DEFAULT_MARGIN),
        (reg, 0.3, 20.0, 5.0, DEFAULT_MARGIN),
        (reg, 0.3, 20.0, DEFAULT_BUDGET, 0.01),
        (spindle, 0.25, 20.0, DEFAULT_BUDGET, DEFAULT_MARGIN),
    ]
    alone = [_feasibility_fields(solve_feasibility(*args)) for args in solves]
    assert {f["status"] for f in alone} == {"feasible", "infeasible"}
    built = []
    real = witness_module._lp_rows

    def counted(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(witness_module, "_lp_rows", counted)
    rows = {}
    for args, want in zip(solves, alone):
        assert _feasibility_fields(solve_feasibility(*args, rows=rows)) == want
    keys = [(r.registry_hash, T, budget, margin) for r, _, T, budget, margin in solves]
    assert list(rows) == list(dict.fromkeys(keys))  # one table each, in first-use order
    assert len(built) == len(rows)


def _report_fields(report):
    """A CertificateReport as plain comparable values, field by field."""
    return {f.name: repr(getattr(report, f.name)) for f in dataclasses.fields(report)}


def _result_fields(out):
    """A CertifyResult as plain comparable values, field by field."""
    return {
        "best_delta": repr(out.best_delta),
        "coefficients": repr(out.coefficients.as_dict()),
        "report": _report_fields(out.report),
        "attempts": repr(out.attempts),
    }


def test_certify_bound_tables_live_for_one_call(reg):
    # each registry certified in a fresh process ...
    code = (
        "import json, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import test_witness as tw\n"
        "from udsets.registry import builtin_registry\n"
        "reg = builtin_registry()\n"
        "regs = [reg, tw._spindle_file_registry(), tw._ct_registry(reg)]\n"
        "print(json.dumps([tw._result_fields(tw.certify_bound(r)) for r in regs]))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(witness_module.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code, str(Path(__file__).parent)], env=env,
                         capture_output=True, text=True, timeout=300, check=True)
    fresh_builtin, fresh_spindle, fresh_ct = json.loads(out.stdout.splitlines()[-1])
    # ... equals it certified after and before the others in one process
    sequence = [(reg, fresh_builtin), (_spindle_file_registry(), fresh_spindle),
                (_ct_registry(reg), fresh_ct), (reg, fresh_builtin)]
    for registry, fresh in sequence:
        assert _result_fields(certify_bound(registry)) == fresh


def test_row_tables_evaluate_j0_once_per_radius_per_tail_start(reg, monkeypatch):
    # every J0 evaluation, through the witness module or bessel's own name
    # (as witness_eval reaches it), and every verification grid, in order
    events = []
    real = witness_module.j0_values
    real_verify = witness_module.verify_witness

    def counted(x):
        events.append(np.size(x))
        return real(x)

    def recorded(*args):
        c, step, _, T = args[:4]
        events.append((step, T, tuple(witness_module.witness_terms(c)[1])))
        return real_verify(*args)

    monkeypatch.setattr(witness_module, "j0_values", counted)
    monkeypatch.setattr(bessel_module, "j0_values", counted)
    monkeypatch.setattr(witness_module, "verify_witness", recorded)
    radii = {float(r) for v in witness_module._var_terms(reg) for r in v.radii}
    assert len(radii) == 3
    for tail_start, tails in ((5.0, [5.0, 10.0, 20.0]), (20.0, [20.0])):
        events.clear()
        out = certify_bound(reg, tail_start=tail_start)
        assert sorted({T for _, T, _ in out.attempts}) == tails  # one row table each
        # LP rows: one evaluation per radius when a tail start is first
        # solved; verification: one per (radius, grid), none for W(0)
        want, grids = [], iter([e for e in events if isinstance(e, tuple)])
        built, evaluated, terms_read = set(), set(), 0
        for _, T, outcome in out.attempts:
            if T not in built:
                built.add(T)
                want += [len(default_solve_grid(min(T, 40.0))) + 1] * len(radii)
            if outcome.startswith("lp-infeasible"):
                continue
            step, T_verified, terms = next(grids)
            assert T_verified == T
            want.append((step, T, terms))
            n_pts = math.floor(T / step) + 1 + (T % step != 0)  # T itself if off the grid
            want += [n_pts for r in terms if (r, step, T) not in evaluated]
            evaluated.update((r, step, T) for r in terms)
            terms_read += len(terms)
        assert events == want
        assert len(evaluated) < terms_read  # verifications shared columns


def _verifications(monkeypatch):
    """The (arguments, report) of every later verify_witness call."""
    calls = []
    real = witness_module.verify_witness

    def recorded(*args):
        report = real(*args)
        calls.append((args, report))
        return report

    monkeypatch.setattr(witness_module, "verify_witness", recorded)
    return calls


@pytest.mark.parametrize(
    "which, margin",
    [("builtin", 0.01), ("spindle file", DEFAULT_MARGIN), ("one CT pair", DEFAULT_MARGIN)],
)
def test_verification_reports_equal_with_and_without_the_table(reg, monkeypatch, which, margin):
    registry = {"builtin": reg, "spindle file": _spindle_file_registry(),
                "one CT pair": _ct_registry(reg)}[which]
    calls = _verifications(monkeypatch)
    out = certify_bound(registry, margin=margin)
    verdicts = [v for *_, v in out.attempts if not v.startswith("lp-infeasible")]
    assert [r.verdict for _, r in calls] == verdicts and "certified" in verdicts
    for args, report in calls:
        assert isinstance(args[4], dict)
        assert _report_fields(verify_witness(*args[:4])) == _report_fields(report)


def test_verification_table_holds_at_most_one_chunk(certified, monkeypatch):
    c = certified.coefficients
    step = verification_step(c)  # 2**-8
    alone = {T: verify_witness(c, step, DEFAULT_MARGIN, T) for T in (5.0, 10.0, 20.0)}
    monkeypatch.setattr(witness_module, "_CHUNK", 4096)
    calls = []
    real = witness_module.j0_values

    def counted(x):
        calls.append(np.size(x))
        return real(x)

    monkeypatch.setattr(witness_module, "j0_values", counted)
    j0 = {}
    # 1281, 2561 and 5121 points on 2 radii: the columns at 5 are kept, the
    # ones at 10 would overflow the memo, the two-chunk grid at 20 bypasses
    # it, and a second verification at 5 evaluates nothing
    for T, evaluated in ((5.0, [1281] * 2), (10.0, [2561] * 2),
                         (20.0, [4096, 4096, 1025, 1025]), (5.0, [])):
        calls.clear()
        report = verify_witness(c, step, DEFAULT_MARGIN, T, j0)
        assert _report_fields(report) == _report_fields(alone[T])
        assert calls == evaluated
        assert sum(col.size for col in j0.values()) <= 4096
    assert {key: col.size for key, col in j0.items()} == {
        ((step, 5.0), r): 1281 for r in witness_module.witness_terms(c)[1]
    }


def _dup_ct_registry(reg):
    # two coincident G1 points: the CT profile has constant 1, so the
    # witness below has constant 0.25 - 0.75
    g1 = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    return Registry(reg.graphs, (CTPair("dup", 0.0, g1, np.array([[2.0, 0.0]]), 1.0),), "dup")


def test_w_at_zero_equals_witness_eval_bit_for_bit(reg, certified):
    ct = coeffs(_dup_ct_registry(reg), v0=0.25, v1=0.5, w_theta=(0.75,))
    flat = coeffs(reg, v0=1.5)
    assert witness_module.witness_terms(ct)[0] < 0.0
    assert len(witness_module.witness_terms(flat)[1]) == 0
    for c in (certified.coefficients, ct, flat):
        w0 = verify_witness(c, verification_step(c), DEFAULT_MARGIN, 5.0).w_at_zero
        assert w0.hex() == witness_eval(c, 0.0).hex()


# certify_bound(builtin), pinned field by field: any change here changes the
# certificate files
_BUILTIN_REPORT = {
    "w_at_zero": "1.000000001",
    "min_grid_value": "0.00497383863362416",
    "argmin_t": "4.3828125",
    "grid_step": "0.00390625",
    "margin": "0.003",
    "lipschitz_bound": "0.6025050663819902",
    "eval_error": "7.97484499381905e-13",
    "tail_floor": "0.07120941957548249",
    "tail_start": "20.0",
    "tail_const": "0.20251550161809506",
    "tail_osc": "0.13130608204261257",
    "quadratic": "(-0.7846972799429737, 0.20251550161809506, 0.0)",
    "delta_star": "0.2580810546875",
    "gamma": "0.0",
    "verdict": "'certified'",
}
_STOP = LP_INFEASIBLE_WITHOUT_TAIL
_BUILTIN_ATTEMPTS = (
    (0.95, 20.0, "certified"),
    (0.5, 20.0, "certified"),
    (0.275, 20.0, "certified"),
    (0.1625, 20.0, _STOP),
    (0.21875, 20.0, _STOP),
    (0.246875, 20.0, _STOP),
    (0.26093750000000004, 20.0, "certified"),
    (0.25390625, 20.0, _STOP),
    (0.257421875, 20.0, _STOP),
    (0.25917968750000003, 20.0, "certified"),
    (0.25830078125, 20.0, "certified"),
    (0.257861328125, 20.0, _STOP),
    (0.2580810546875, 20.0, "certified"),
    (0.25797119140625, 20.0, _STOP),
)
_BUILTIN_CERTIFICATE_SHA256 = "07521b1c0e722842cda5bbfd99a9613a45e1dc17500a35e6f7663e47922d7808"


def test_certify_bound_stops_futile_escalation(certified):
    assert certified.best_delta == 0.2580810546875
    attempts = certified.attempts
    assert attempts == _BUILTIN_ATTEMPTS
    deltas = [d for d, _, _ in attempts]
    stopped = [d for d, _, v in attempts if v == LP_INFEASIBLE_WITHOUT_TAIL]
    assert len(stopped) == 7
    # a delta refuted without the tail row is never tried at a larger T
    for d in stopped:
        assert deltas.count(d) == 1
    assert sum(1 for *_, v in attempts if v == "certified") == 7


def test_certify_bound_builtin_golden(certified, tmp_path):
    report = certified.report
    assert _report_fields(report) == _BUILTIN_REPORT
    path = tmp_path / "certificate.json"
    write_certificate(path, certified.coefficients, report)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == _BUILTIN_CERTIFICATE_SHA256


def test_certify_bound_raises_the_tail_start_only_for_the_tail_row(reg):
    # at T = 5 the envelope tail row is too strong from 0.275 down: each such
    # LP is infeasible with a ray on the tail row and is solved again at 10
    out = certify_bound(reg, tail_start=5.0)
    assert out.best_delta == 0.2580810546875
    assert out.report.certified and out.report.tail_start == 10.0
    assert len(out.attempts) == 27
    by_target = {}
    for d, T, verdict in out.attempts:
        by_target.setdefault(d, []).append((T, verdict))
    for log in by_target.values():
        # every entry before a target's last is an LP refuted with the tail row
        assert [T for T, _ in log] == [5.0 * 2**k for k in range(len(log))]
        assert all(v == "lp-infeasible" for _, v in log[:-1])


def test_grid_slack_stays_above_a_large_margin(reg):
    # with the solve-grid slack fixed at 5e-3, a 0.01 margin failed every
    # dense-grid minimum: 0.2943359375 in 49 attempts
    out = certify_bound(reg, margin=0.01)
    assert out.best_delta == 0.26478271484375004
    assert len(out.attempts) == 14
    assert out.report.certified and out.report.margin == 0.01
    assert out.report.min_grid_value >= 0.01


def test_a_failed_verification_is_final(reg, monkeypatch):
    real_verify = witness_module.verify_witness
    real_solve = witness_module.solve_feasibility
    solves = []

    def failing(*args):
        return dataclasses.replace(real_verify(*args), verdict="failed: forced")

    def counted(*args, **kwargs):
        solves.append(args[1])
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(witness_module, "verify_witness", failing)
    monkeypatch.setattr(witness_module, "solve_feasibility", counted)
    for d in (0.95, 0.5, 0.275):  # each LP is feasible at T = 20
        solves.clear()
        res, report, log = witness_module._attempt(
            reg, d, budget=DEFAULT_BUDGET, margin=DEFAULT_MARGIN, tail_start=20.0
        )
        assert res.status == "feasible" and not report.certified
        assert solves == [d] and log == [(d, 20.0, "failed: forced")]
    solves.clear()
    with pytest.raises(FeasibilityError, match="no certificate even at delta_plus = 0.95"):
        certify_bound(reg)
    assert solves == [0.95]


def count_profile_builds(monkeypatch):
    """The list that every later profile_terms call appends its graph to."""
    calls = []
    real = registry_module.profile_terms

    def counting(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(registry_module, "profile_terms", counting)
    return calls


def test_verify_witness_reuses_the_witness_terms(certified, monkeypatch):
    # everything verify_witness and gamma_extract read was derived when the
    # witness was built; neither reaches the registry's profiles again
    c = certified.coefficients
    small = coeffs(c.registry, v0=0.12, v1=0.5, v196=0.2, w_m=(0.01,), w_t=(0.005,))
    calls = count_profile_builds(monkeypatch)
    verify_witness(c, verification_step(c), DEFAULT_MARGIN, 5.0)
    gamma_extract(small, 1e-3)
    assert calls == []


def test_certify_bound_builds_each_profile_at_most_once(reg, monkeypatch):
    # a graph builds its profile once, when it is made; the LP rows, every
    # witness and every verification of a certification read that one copy
    calls = count_profile_builds(monkeypatch)
    # count through witness too, should it ever import the name again
    monkeypatch.setattr(witness_module, "profile_terms", registry_module.profile_terms,
                        raising=False)
    assert certify_bound(reg).best_delta == 0.2580810546875
    assert len(calls) <= len(reg.graphs)


def test_j0_and_the_builtin_bound_do_not_depend_on_longdouble(certified, reg, tmp_path):
    # With numpy's longdouble made float64 before udsets loads, J0 on [0, 15]
    # and its flat bound keep every bit, certify_bound keeps its attempts and
    # best_delta, and each process reproduces the other's certificate bit for
    # bit.  Only the LP, whose float64 tableau may stop at another near-tied
    # vertex, is free to differ; the verifier never trusts it.
    here = tmp_path / "here.json"
    there = tmp_path / "there.json"
    write_certificate(here, certified.coefficients, certified.report)
    code = (
        "import sys\n"
        "import numpy as np\n"
        "np.longdouble = np.float64\n"
        "from udsets import bessel, witness\n"
        "from udsets.registry import builtin_registry\n"
        "assert not bessel.HAVE_EXTENDED_PRECISION\n"
        "reg = builtin_registry()\n"
        "out = witness.certify_bound(reg)\n"
        "witness.write_certificate(sys.argv[2], out.coefficients, out.report)\n"
        "xs = np.linspace(0.0, bessel.SERIES_CUTOFF, 3001)\n"
        "print(bessel.j0_values(xs).tobytes().hex())\n"
        "print(repr(bessel.J0_ABS_ERROR), repr(out.best_delta), repr(out.attempts))\n"
        "print(witness.verify_certificate_file(sys.argv[1], reg)[1])\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(witness_module.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code, str(here), str(there)], env=env,
                         capture_output=True, text=True, timeout=300, check=True)
    values, record, reproduced = out.stdout.splitlines()[-3:]
    xs = np.linspace(0.0, bessel_module.SERIES_CUTOFF, 3001)
    assert values == bessel_module.j0_values(xs).tobytes().hex()
    want = (bessel_module.J0_ABS_ERROR, certified.best_delta, certified.attempts)
    assert record == " ".join(map(repr, want))
    assert reproduced == "True"
    rep, reproduced = verify_certificate_file(there, reg)
    assert reproduced and rep.verdict == "certified"
    assert json.loads(there.read_text())["delta_star"] <= 0.2580810546875


def test_step_1e5_certificate_still_reproduces(certified, reg, tmp_path):
    # certificates written with the former fixed step keep their stored step
    c = certified.coefficients
    rep = verify_witness(c, 1e-5, DEFAULT_MARGIN, 20.0)
    assert rep.certified and rep.grid_step == 1e-5
    path = tmp_path / "old.json"
    write_certificate(path, c, rep)
    rep2, reproduced = verify_certificate_file(path, reg)
    assert reproduced
    assert rep2.grid_step == 1e-5
    assert rep2.min_grid_value == rep.min_grid_value


def test_certificate_file_roundtrip_and_tamper(reg, tmp_path):
    res = solve_feasibility(reg, 0.30, 20.0)
    rep = verify_witness(res.coefficients, 1e-4, 3e-3, 20.0)
    path = tmp_path / "cert.json"
    write_certificate(path, res.coefficients, rep)
    rep2, reproduced = verify_certificate_file(path, reg)
    assert reproduced and rep2.certified
    # tamper: negate one coefficient -> malformed input is rejected loudly
    import json

    doc = json.loads(path.read_text())
    doc["coefficients"]["v1"] = -abs(doc["coefficients"]["v1"]) - 0.1
    path.write_text(json.dumps(doc))
    with pytest.raises(DomainError):
        verify_certificate_file(path, reg)
    doc["coefficients"] = {"v0": 1.0}
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError):
        verify_certificate_file(path, reg)


def test_certificate_rejects_wrong_registry(reg, tmp_path):
    res = solve_feasibility(reg, 0.32, 20.0)
    rep = verify_witness(res.coefficients, 1e-4, 3e-3, 20.0)
    path = tmp_path / "cert.json"
    write_certificate(path, res.coefficients, rep)
    with pytest.raises(SchemaError):
        verify_certificate_file(path, Registry((), (), "different"))


def test_spot_audit_stays_positive(reg):
    res = solve_feasibility(reg, 0.30, 20.0)
    rep = verify_witness(res.coefficients, 1e-4, 3e-3, 20.0)
    assert rep.certified
    min_fine, _ = spot_audit(res.coefficients, 1e-4, 20.0)
    assert min_fine > 0.0


def test_kappa_constraint_audit_on_raster(reg):
    A = rasterize(hex_disk_packing(), 32, 8, beta=0.01)
    S = spectrum_auto(A, r_min=1.0, tail_target=2e-4)
    out = kappa_constraint_audit(S, reg, r_probes=(1.0, 1.96), gridset=A)
    assert out.ok, [i for i in out.items if not i.ok]


def test_duality_sanity_on_real_sets(reg):
    # For a set A with gamma_A := max(s(1), s(1.96) - 1, 0), the certified
    # quadratic must satisfy a d^2 + b d + c + gamma_A * Gamma >= 0 at
    # d = density(A): the certificate chain applied to an actual spectrum.
    from udsets.torus import pair_correlation
    from udsets.witness import gamma_coefficient, quadratic_root

    res = solve_feasibility(reg, 0.30, 40.0)
    rep = verify_witness(res.coefficients, 1e-4, 3e-3, 40.0)
    assert rep.certified
    _, (a, b, qc) = quadratic_root(res.coefficients)
    Gamma = gamma_coefficient(res.coefficients)

    sets = [
        rasterize(hex_disk_packing(), 64, 8, beta=0.01),
        random_gridset(8, 4, p=0.5, seed=2),
        random_gridset(8, 6, p=0.25, seed=3),
    ]
    for A in sets:
        spec = spectrum_auto(A, r_min=1.0, tail_target=2e-4)
        d = A.density
        s1 = pair_correlation(spec, 1.0)
        s196 = pair_correlation(spec, 1.96)
        gamma_a = max(
            (s1.value + s1.rigor_bound) / d**2,
            (s196.value + s196.rigor_bound) / d**2 - 1.0,
            0.0,
        )
        lhs = a * d * d + b * d + qc + gamma_a * Gamma
        assert lhs >= -1e-9, (d, gamma_a, lhs)


def test_kappa_constraint_audit_on_random_sets(reg):
    # subgraph (T-type) constraints hold for arbitrary sets; audit D/F2 too
    t_only = Registry(tuple(reg.t_graphs), (), "t-only")
    for seed in (1, 5):
        A = random_gridset(8, 4, p=0.4, seed=seed)
        S = spectrum(A, 4000)
        out = kappa_constraint_audit(S, t_only, r_probes=(1.0,), gridset=A)
        assert out.ok, [i for i in out.items if not i.ok]
