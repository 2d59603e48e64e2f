"""Bessel evaluator versus the exact-rational series oracle."""

import math
import os
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
from collections import deque
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.special import j1 as scipy_j1

from udsets import bessel
from udsets.errors import DomainError

from oracle_bessel import (
    first_j0_zeros,
    hankel_oracle,
    j0_oracle,
    j1_oracle,
    jn_oracle,
    values_whole_array,
)

# Frozen from the 200-term exact-rational oracle (see test_frozen_values).
J0_AT_1 = 0.7651976865579666
J1_AT_1 = 0.4400505857449335
FIRST_J0_ZERO = 2.404825557695773


def test_frozen_values_match_oracle():
    assert j0_oracle(1.0) == pytest.approx(J0_AT_1, abs=1e-15)
    assert j1_oracle(1.0) == pytest.approx(J1_AT_1, abs=1e-15)
    zero = first_j0_zeros(1)[0]
    assert zero == pytest.approx(FIRST_J0_ZERO, abs=1e-12)


def test_j0_trivial_and_frozen_points():
    assert bessel.j0(0.0).value == 1.0
    assert bessel.j0(0.0).abs_error_bound == 0.0
    assert abs(bessel.j0(1.0).value - J0_AT_1) < 1e-12
    assert abs(bessel.j0(FIRST_J0_ZERO).value) < 1e-10


@pytest.mark.parametrize("x", [-1.0, -1e-9, math.inf, math.nan])
def test_domain_errors(x):
    with pytest.raises(DomainError):
        bessel.j0(x)


def test_error_bounds_hold_against_oracle():
    # Dense near the switchover, sparse elsewhere; oracle is valid to x = 100.
    xs = np.concatenate(
        [
            np.linspace(0.0, 3.0, 13),
            np.linspace(3.1, 13.9, 19),
            np.linspace(14.0, 16.0, 21),  # straddles SERIES_CUTOFF
            np.linspace(17.0, 99.0, 24),
        ]
    )
    for x in xs:
        ev0 = bessel.j0(float(x))
        assert ev0.abs_error_bound <= 1e-12
        assert abs(ev0.value - j0_oracle(float(x))) <= ev0.abs_error_bound


def test_vectorized_matches_scalar():
    xs = np.linspace(0.0, 60.0, 601)
    v0 = bessel.j0_values(xs)
    for i in (0, 150, 149, 380, 600):
        assert v0[i] == bessel.j0(float(xs[i])).value


def test_large_argument_bound_stated_domain():
    # The 1e-12 bound is claimed up to 1e4; check bound bookkeeping there.
    for x in (1e3, 1e4):
        ev = bessel.j0(x)
        assert ev.abs_error_bound <= 1e-12
        assert abs(ev.value) <= bessel.j0_envelope(x) + ev.abs_error_bound


def test_hankel_oracle_agrees_with_series_oracle():
    for x in (40.0, 60.0, 99.0):
        assert hankel_oracle(x) == pytest.approx(j0_oracle(x), abs=1e-16)


@pytest.mark.parametrize("x", [1e4, 1e6, bessel.FLAT_BOUND_MAX_ARG])
def test_large_argument_bounds_against_hankel_oracle(x):
    # the phase x - pi/4 rounds by up to x 2^-53; the bound must charge it
    ev = bessel.j0(x)
    assert abs(ev.value - hankel_oracle(x)) <= ev.abs_error_bound <= bessel.J0_ABS_ERROR
    assert bessel.j0_values(np.array([x]))[0] == ev.value


def test_vectorized_domain_ends_at_the_flat_bound_cap():
    above = np.nextafter(bessel.FLAT_BOUND_MAX_ARG, math.inf)
    bessel.j0_values(np.array([0.0, bessel.FLAT_BOUND_MAX_ARG]))
    for bad in (above, math.inf, math.nan, -1.0):
        with pytest.raises(DomainError):
            bessel.j0_values(np.array([1.0, bad]))
    # pair_correlation feeds r times the spectrum's frequencies to j0_values
    from udsets.torus import pair_correlation, random_gridset, spectrum

    S = spectrum(random_gridset(4, 4, p=0.5, seed=1), 100)
    r_cap = bessel.FLAT_BOUND_MAX_ARG / float(np.max(S.frequency(S.ms)))
    pair_correlation(S, r_cap * (1 - 1e-9))
    with pytest.raises(DomainError):
        pair_correlation(S, r_cap * (1 + 1e-9))


def _blocked_inputs():
    """Named argument arrays around the block size of the vectorized evaluator."""
    B = bessel.VALUES_BLOCK
    rng = np.random.default_rng(7)

    def mixed(n):  # both branches, and the cap, in most blocks
        return np.concatenate([[0.0, 15.0, bessel.FLAT_BOUND_MAX_ARG], rng.uniform(0, 40, n)])[:n]

    # block 1 runs from x = 7.5 to 22.5, across SERIES_CUTOFF mid-block
    straddle = np.concatenate([np.full(B // 2, 20.0), np.linspace(0.0, 30.0, 2 * B)])
    wide = np.exp(rng.uniform(-5.0, math.log(bessel.FLAT_BOUND_MAX_ARG), (64, B // 16)))
    cases = {f"size {n}": mixed(n) for n in (0, 1, B - 1, B, B + 1, 3 * B + 7)}
    cases.update({
        "hankel only": rng.uniform(15.0, 2000.0, 2 * B + 3),
        "straddles 15": straddle,
        "0-d": np.array(3.5),
        "0-d hankel": np.array(1e5),
        "2-D": wide,
        "strided": wide[::3, 1::2],
        "transposed": wide.T,
        # whole blocks below SERIES_CUTOFF, then whole blocks above it
        "midpoint only": rng.uniform(0.0, 15.0, 2 * B + 3),
        "midpoint then hankel": np.concatenate(
            [np.linspace(0.0, 14.9, 2 * B), np.linspace(15.0, 500.0, B + 5)]
        ),
    })
    return cases


@pytest.mark.parametrize("name", list(_blocked_inputs()))
def test_blocked_values_bitwise_equal_the_whole_array(name):
    x = _blocked_inputs()[name]
    got, want = bessel.j0_values(x), values_whole_array(x)
    if x.ndim == 0:
        assert isinstance(got, float) and got == want
    else:
        assert got.shape == x.shape
        assert np.array_equal(got.view(np.int64), np.asarray(want).view(np.int64))


@pytest.mark.parametrize("bad", [math.nan, -1.0, bessel.FLAT_BOUND_MAX_ARG * 1.0001])
def test_blocked_values_check_the_last_block(bad):
    x = np.full(3 * bessel.VALUES_BLOCK + 7, 20.0)
    x[-1] = bad
    with pytest.raises(DomainError):
        bessel.j0_values(x)


@pytest.mark.parametrize("block", ["middle", "last"])
@pytest.mark.parametrize("bad", [math.nan, -1.0])
@pytest.mark.parametrize("fill", [5.0, 20.0])
def test_blocked_values_check_every_block(block, bad, fill):
    # blocks of arguments all below SERIES_CUTOFF (fill 5) or all above it
    B = bessel.VALUES_BLOCK
    x = np.full(3 * B + 7, fill)
    x[B + B // 2 if block == "middle" else -1] = bad
    with pytest.raises(DomainError):
        bessel.j0_values(x)


# ---------------------------------------------------------------------------
# the pool: the blocks of one call shared between threads
# ---------------------------------------------------------------------------

def _pool_inputs(seed=11):
    """9 B + 5 arguments, 10 blocks: whole midpoint blocks, whole Hankel
    blocks and blocks that straddle SERIES_CUTOFF."""
    B = bessel.VALUES_BLOCK
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 40.0, 9 * B + 5)
    x[: 2 * B] = rng.uniform(0.0, 15.0, 2 * B)
    x[5 * B : 7 * B] = rng.uniform(15.0, 1e6, 2 * B)
    return x


def _same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


def _run(script):
    """Runs ``script`` in a fresh interpreter on this checkout's udsets and
    returns its stdout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(script)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_workers_one_per_cpu_from_4_blocks_and_none_in_a_worker():
    n = len(bessel._cpus())
    assert [bessel._workers(b) for b in (0, 1, 3)] == [0, 0, 0]
    assert bessel._workers(4) == (0 if n == 1 else 2)
    assert bessel._workers(27) == (0 if n == 1 else min(n, 13))
    assert bessel._pool().submit(bessel._workers, 27).result(timeout=60) == 0


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_each_pool_worker_runs_on_a_cpu_of_its_own():
    # n tasks that wait for each other take all n workers of the pool
    cpus = bessel._cpus()
    meet = threading.Barrier(len(cpus), timeout=60)

    def affinity():
        meet.wait()
        return frozenset(os.sched_getaffinity(0))

    futures = [bessel._pool().submit(affinity) for _ in cpus]
    pins = [f.result(timeout=60) for f in futures]
    assert sorted(pins, key=sorted) == [{c} for c in cpus]


@pytest.mark.parametrize("workers", [0, 1, 2, 3])
def test_pooled_values_bitwise_equal_the_whole_array(monkeypatch, workers):
    monkeypatch.setattr(bessel, "_workers", lambda blocks: workers)
    x = _pool_inputs()
    assert _same_bits(bessel.j0_values(x), values_whole_array(x))


@pytest.mark.parametrize("where", ["first", "last"])
@pytest.mark.parametrize("bad", [math.nan, -1.0])
def test_pooled_values_raise_from_a_workers_block(monkeypatch, where, bad):
    monkeypatch.setattr(bessel, "_workers", lambda blocks: 2)
    x = _pool_inputs()
    x[0 if where == "first" else -1] = bad
    with pytest.raises(DomainError):
        bessel.j0_values(x)
    x = _pool_inputs()  # and the pool serves the next call
    assert _same_bits(bessel.j0_values(x), values_whole_array(x))


def test_pooled_values_raise_only_once_every_worker_is_done(monkeypatch):
    # the first worker fails on the first block at once; the second, which
    # starts 50 ms later, is done before the error is raised
    real = bessel._values_blocks
    started, done = [], []

    def values_blocks(flat, out, starts, buf):
        started.append(True)
        try:
            if len(started) > 1:
                time.sleep(0.05)
            return real(flat, out, starts, buf)
        finally:
            done.append(True)

    monkeypatch.setattr(bessel, "_workers", lambda blocks: 2)
    monkeypatch.setattr(bessel, "_values_blocks", values_blocks)
    x = _pool_inputs()
    x[0] = -1.0
    with pytest.raises(DomainError):
        bessel.j0_values(x)
    assert len(done) == 2


def test_concurrent_callers_each_get_serial_bits(monkeypatch):
    # 4 callers, 6 workers each on the pool, more threads than CPUs,
    # switching threads every 10 us: each call takes every block once
    class Starts(deque):
        def popleft(self):
            lo = super().popleft()
            self.taken.append(lo)
            return lo

    calls = []

    def starts(blocks):
        calls.append(Starts(blocks))
        calls[-1].taken = []
        return calls[-1]

    monkeypatch.setattr(bessel, "deque", starts)
    monkeypatch.setattr(bessel, "_workers", lambda blocks: 6)
    inputs = [_pool_inputs(seed) for seed in range(4)]
    got = [None] * len(inputs)
    start = threading.Barrier(len(inputs), timeout=60)

    def call(k):
        start.wait()
        got[k] = bessel.j0_values(inputs[k])

    threads = [threading.Thread(target=call, args=(k,)) for k in range(len(inputs))]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    blocks = list(range(0, inputs[0].size, bessel.VALUES_BLOCK))
    assert [sorted(c.taken) for c in calls] == [blocks] * len(inputs)
    monkeypatch.setattr(bessel, "_workers", lambda blocks: 0)
    for x, values in zip(inputs, got):
        assert values is not None and _same_bits(values, bessel.j0_values(x))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_a_forked_child_does_not_wait_on_its_parents_pool():
    # the child inherits no pool threads; it must not queue work for them,
    # and dies of SIGALRM if it does
    out = _run("""
        import os
        import signal
        import numpy as np
        from udsets import bessel
        bessel._workers = lambda blocks: 2
        x = np.linspace(0.0, 100.0, 4 * bessel.VALUES_BLOCK)
        want = bessel.j0_values(x)  # starts the pool
        pid = os.fork()
        if pid == 0:
            signal.alarm(30)
            os._exit(0 if np.array_equal(bessel.j0_values(x), want) else 3)
        print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    """)
    assert out == "0"


def test_small_calls_start_no_thread():
    # the builtin certificate and a small spectrum's f(r) evaluate J0 in
    # calls of under 4 blocks, so they never start the pool, whatever the
    # number of CPUs
    out = _run("""
        import threading
        from udsets import bessel, witness
        from udsets.registry import builtin_registry
        from udsets.torus import pair_correlation, random_gridset, spectrum
        bessel._cpus = lambda: list(range(64))
        witness.certify_bound(builtin_registry())
        pair_correlation(spectrum(random_gridset(4, 4, seed=0), 4000), 1.0)
        print(threading.active_count(), bessel._POOL)
    """)
    assert out == "1 None"


# ---------------------------------------------------------------------------
# Hankel branch: terms per argument
# ---------------------------------------------------------------------------

def _hankel_coeff(k):
    """|a_k| = ((2k - 1)!!)^2 / (k! 8^k), the k-th Hankel coefficient of J0."""
    odd = math.prod(range(1, 2 * k, 2))
    return Fraction(odd * odd, math.factorial(k) * 8**k)


def _omitted(x, n):
    """(|a_2n| + |a_2n+1| / x) x^-2n in exact rationals: the first terms
    that n-term P and Q leave out, before the amplitude."""
    X = Fraction(x)
    return (_hankel_coeff(2 * n) + _hankel_coeff(2 * n + 1) / X) / X ** (2 * n)


def test_hankel_thresholds_are_the_least_floats_that_suffice():
    # n terms suffice from x_n on: the omitted terms meet 2^-70 at x_n and
    # miss it one ulp below; the thresholds fall with n, so n(x) is the
    # fewest terms that suffice, and 14 below x_13
    omit = Fraction(1, 2**70)
    thresholds = bessel._HANKEL_FROM
    assert len(thresholds) == bessel.ASYMPTOTIC_TERMS - 1
    assert list(thresholds) == sorted(thresholds, reverse=True)
    for n, x in enumerate(thresholds, start=1):
        below = math.nextafter(x, 0.0)
        assert _omitted(x, n) <= omit < _omitted(below, n), n
        assert bessel._hankel_terms(x) == n
        assert bessel._hankel_terms(below) == n + 1
    assert 29.18 < thresholds[-1] < 29.19
    assert thresholds[0] > bessel.FLAT_BOUND_MAX_ARG  # one term never suffices
    assert bessel._hankel_terms(bessel.SERIES_CUTOFF) == bessel.ASYMPTOTIC_TERMS
    assert bessel._hankel_terms(bessel.FLAT_BOUND_MAX_ARG) == 2
    assert [bessel._hankel_terms(x) for x in (112.0, 540.0, 2963.0)] == [6, 4, 3]


def _band_edges():
    """Every term-count threshold in the domain, SERIES_CUTOFF too, with
    the floats one and two ulps either side."""
    edges = [bessel.SERIES_CUTOFF, *bessel._HANKEL_FROM[1:]]
    xs = []
    for e in edges:
        below, above = math.nextafter(e, 0.0), math.nextafter(e, math.inf)
        xs += [math.nextafter(below, 0.0), below, e, above, math.nextafter(above, math.inf)]
    return np.array(xs)


@pytest.mark.parametrize("tables", ["module", "growing"])
@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
def test_hankel_values_depend_on_the_argument_alone(monkeypatch, order, tables):
    # one block holds every band, so every restart runs; each value must be
    # the one the argument gets alone, whatever its neighbours.  The terms
    # a value leaves out are below 2^-70, so with the module's tables a
    # value summed to the block's most terms is almost always the same
    # float; tables whose terms grow as 2^60k make every left-out term show.
    if tables == "growing":
        grow = 2.0 ** (60 * np.arange(bessel.ASYMPTOTIC_TERMS))
        monkeypatch.setattr(bessel, "_P", grow)
        monkeypatch.setattr(bessel, "_Q", -grow)
    x = np.sort(np.concatenate([_band_edges(), np.linspace(15.0, 4e5, 3000), [bessel.FLAT_BOUND_MAX_ARG]]))
    x = {"ascending": x, "descending": x[::-1], "shuffled": np.random.default_rng(3).permutation(x)}[order]
    got = bessel.j0_values(x)
    alone = np.array([bessel.j0(float(v)).value for v in x])
    assert np.all(np.isfinite(got))
    assert np.array_equal(got.view(np.int64), alone.view(np.int64))
    assert np.array_equal(got.view(np.int64), values_whole_array(x).view(np.int64))


def _sorted_horner_inputs():
    """About 5 blocks of ascending arguments on [0, 2^26]: a block across
    SERIES_CUTOFF, blocks of many term counts with every band edge and its
    neighbours, and whole blocks of one term count (3, on [2963, 1.07e5))."""
    B = bessel.VALUES_BLOCK
    rng = np.random.default_rng(31)
    x = np.concatenate([
        [0.0, bessel.FLAT_BOUND_MAX_ARG],
        _band_edges(),
        np.linspace(0.0, 40.0, B),
        np.exp(rng.uniform(math.log(15.0), math.log(bessel.FLAT_BOUND_MAX_ARG), 2 * B)),
        rng.uniform(3000.0, 1e5, 2 * B),
    ])
    return np.sort(x)


@pytest.mark.parametrize("tables", ["module", "growing"])
@pytest.mark.parametrize("workers", [0, 2])
def test_sorted_horner_bitwise_equals_the_restart_path(monkeypatch, tables, workers):
    # ascending blocks run Horner band by band on prefixes, shuffled ones
    # restart every argument at its top coefficient; the same arguments must
    # get the same bits either way, serially and on the pool.  Tables whose
    # terms grow as 2^60k make a term summed or left out in error show
    if tables == "growing":
        grow = 2.0 ** (60 * np.arange(bessel.ASYMPTOTIC_TERMS))
        monkeypatch.setattr(bessel, "_P", grow)
        monkeypatch.setattr(bessel, "_Q", -grow)
    monkeypatch.setattr(bessel, "_workers", lambda blocks: workers)
    x = _sorted_horner_inputs()
    B = bessel.VALUES_BLOCK
    blocks = [x[i : i + B] for i in range(0, x.size, B)]
    assert any(b[0] < bessel.SERIES_CUTOFF <= b[-1] for b in blocks)
    terms = [(bessel._hankel_terms(b[-1]), bessel._hankel_terms(max(b[0], 15.0))) for b in blocks]
    assert any(few == most for few, most in terms) and any(few < most for few, most in terms)
    shuffle = np.random.default_rng(5).permutation(x.size)
    ascending, shuffled = bessel.j0_values(x), bessel.j0_values(x[shuffle])
    assert np.all(np.isfinite(ascending))
    assert _same_bits(ascending[shuffle], shuffled)
    assert _same_bits(ascending, values_whole_array(x))


def test_hankel_bounds_hold_at_the_band_edges():
    for x in bessel._HANKEL_FROM[1:]:
        for y in (x, math.nextafter(x, 0.0)):
            ev = bessel.j0(y)
            assert abs(ev.value - hankel_oracle(y)) <= ev.abs_error_bound <= bessel.J0_ABS_ERROR, y


# J0' = -J1.  witness_lipschitz charges sup |J0'| < 0.6; these checks read J1
# from scipy, audited against the exact-rational oracle first.

def test_scipy_j1_matches_the_rational_oracle():
    for x in (0.0, 1.0, 1.8411837813406593, 7.5, 14.9, 15.1, 42.0, 99.0):
        assert float(scipy_j1(x)) == pytest.approx(j1_oracle(x), abs=1e-14)


def test_j1_sup_below_0p6():
    xs = np.arange(0.0, 100.0005, 0.001)
    sup = np.max(np.abs(scipy_j1(xs)))
    assert sup < 0.6


def test_finite_difference_derivative():
    h = 1e-4
    xs = np.linspace(h, 100.0, 500)
    fd = (bessel.j0_values(xs + h) - bessel.j0_values(xs - h)) / (2 * h)
    assert np.max(np.abs(fd + scipy_j1(xs))) <= 1e-6 + h * h


def test_sign_changes_near_oracle_zeros():
    for z in first_j0_zeros(10):
        assert bessel.j0(z - 0.1).value * bessel.j0(z + 0.1).value < 0


def test_j0_bounded_by_one():
    xs = np.linspace(0.0, 100.0, 20001)
    assert np.max(np.abs(bessel.j0_values(xs))) <= 1.0 + 1e-12


def test_envelope_dominates_and_monotone():
    for x0 in (0.1, 1.0, 10.0):
        ys = np.arange(x0, x0 + 100.0, 0.01)
        env = bessel.j0_envelope(x0)
        assert np.all(np.abs(bessel.j0_values(ys)) <= env + 1e-12)
    grid = np.linspace(0.1, 1e3, 10_000)
    envs = np.array([bessel.j0_envelope(float(g)) for g in grid])
    assert np.all(np.diff(envs) <= 0)
    assert bessel.j0_envelope(1e6) <= 1e-2
    with pytest.raises(DomainError):
        bessel.j0_envelope(0.0)


def _explicit_combination(radii, coeffs, t, const):
    acc = np.full(np.shape(t), const, dtype=float)
    for r, c in zip(radii, coeffs):
        acc = acc + c * bessel.j0_values(r * np.asarray(t, dtype=float))
    return acc


COMBO_RADII = np.array([0.0, 1.0, 1.7320508075688772, 1.96])
COMBO_COEFFS = np.array([3.0, -2.5, 1.25, -0.375])


def test_j0_combination_bitwise_equals_term_loop_on_arrays():
    t = np.linspace(0.0, 40.0, 2001)
    for const in (0.0, 0.75):
        got = bessel.j0_combination(COMBO_RADII, COMBO_COEFFS, t, const)
        want = _explicit_combination(COMBO_RADII, COMBO_COEFFS, t, const)
        assert got.shape == t.shape
        assert got.tobytes() == want.tobytes()


def test_j0_combination_scalar_and_empty():
    for t in (0.0, 1.3, 27.5):
        got = bessel.j0_combination(COMBO_RADII, COMBO_COEFFS, t, -1.5)
        assert isinstance(got, float)
        assert got == float(_explicit_combination(COMBO_RADII, COMBO_COEFFS, t, -1.5))
    assert bessel.j0_combination([], [], 2.0) == 0.0
    assert bessel.j0_combination(np.array([]), np.array([]), 2.0, 0.25) == 0.25
    t = np.array([0.0, 1.0, 5.0])
    assert np.array_equal(bessel.j0_combination([], [], t, 0.25), np.full(3, 0.25))


def test_j0_sum_leaves_its_columns_unchanged():
    # the sum starts from c_0 col_0 in a new array: columns lent by a memo
    # keep their bits, and the result is bitwise full(const) + sum c col,
    # -0.0 products included (0.0 + -0.0 is 0.0 in either order)
    rng = np.random.default_rng(5)
    cols = [rng.uniform(-1.0, 1.0, 257) for _ in COMBO_COEFFS]
    cols[0][:3] = [0.0, -0.0, 1.0]
    coeffs = np.array([-1.0, *COMBO_COEFFS[1:]])
    kept = [c.copy() for c in cols]
    for const in (0.0, 0.75, -2.0):
        got = bessel._j0_sum(const, coeffs, cols, (257,))
        want = np.full(257, const)
        for c, col in zip(coeffs, kept):
            want = want + c * col
        assert got.tobytes() == want.tobytes()
        assert all(c.tobytes() == k.tobytes() for c, k in zip(cols, kept))
        assert got.tobytes() != np.full(257, const).tobytes()
    assert bessel._j0_sum(0.5, (2.0, 3.0), [1.0, 1.0], ()) == 5.5
    t = np.linspace(0.0, 40.0, 2001)
    t_kept = t.copy()
    bessel.j0_combination(COMBO_RADII, COMBO_COEFFS, t, 0.25)
    assert t.tobytes() == t_kept.tobytes()


def test_j0_combination_holds_one_term_at_a_time():
    # the sum, one term's argument, its J0 values and their scaled copy,
    # and the J0 block buffers: under four arrays of t's size at the peak;
    # keeping the last term's values while the next are made reaches 4.5
    t = np.linspace(0.0, 50.0, 400_000)
    bessel.j0_combination(COMBO_RADII, COMBO_COEFFS, t)
    tracemalloc.start()
    try:
        bessel.j0_combination(COMBO_RADII, COMBO_COEFFS, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * t.nbytes


def test_j0_combination_error_and_envelope():
    assert bessel.j0_combination_error(COMBO_COEFFS) == bessel.J0_ABS_ERROR * 7.125
    assert bessel.j0_combination_error([]) == 0.0
    T = 20.0
    want = sum(abs(c) * bessel.j0_envelope(r * T) for r, c in zip(COMBO_RADII[1:], COMBO_COEFFS[1:]))
    assert bessel.j0_combination_envelope(COMBO_RADII[1:], COMBO_COEFFS[1:], T) == want
    s = np.linspace(T, 200.0, 5001)
    osc = bessel.j0_combination(COMBO_RADII[1:], COMBO_COEFFS[1:], s)
    assert np.all(np.abs(osc) <= want)


def test_midpoint_bound_is_closed_form_and_far_below_the_flat_bound():
    # below the cutoff the scalar bound is aliasing plus rounding; no term
    # depends on the platform, and it grows with x up to ~5e-15 at 15
    N = bessel.MIDPOINT_NODES
    below = math.nextafter(bessel.SERIES_CUTOFF, 0.0)
    xs = [1e-3, 0.5, 1.0, 7.5, 12.0, 14.9, below]
    bounds = [bessel.j0(x).abs_error_bound for x in xs]
    assert bounds == sorted(bounds)
    for x, b in zip(xs, bounds):
        aliasing = 4.0 * (x / 2) ** (2 * N) / math.factorial(2 * N)
        assert b == aliasing + (x + 1.0) * 2.0**-52 + 13.0 * 2.0**-53
        # the charge covers the true aliasing 2 sum_m |J_{2mN}(x)|
        assert aliasing >= 2 * (abs(jn_oracle(2 * N, x)) + abs(jn_oracle(4 * N, x)))
        assert aliasing <= 1e-18
    assert 4.9e-15 < bounds[-1] < 5.1e-15 < 1e-2 * bessel.J0_ABS_ERROR
    assert bessel.J0_ABS_ERROR == 1e-12


def test_midpoint_nodes_are_correctly_rounded_sines():
    # the bound charges each node 2^-53 relative error; mpmath at 40 digits
    # checks that the fixed-point Taylor series gives exactly that
    with mpmath.workdps(40):
        for n in (bessel.MIDPOINT_NODES, 16):
            nodes = bessel._midpoint_nodes(n)
            assert len(nodes) == n // 2
            for j, s in enumerate(nodes):
                exact = mpmath.sin(mpmath.pi * (2 * j + 1) / (2 * n))
                assert abs(mpmath.mpf(s) - exact) <= exact * mpmath.mpf(2) ** -53


@pytest.mark.parametrize("x", [10.0, 12.0, 14.9])
def test_midpoint_error_is_the_aliasing_term(x, monkeypatch):
    # With N = 16 nodes the rule returns J0(x) + 2 sum_m (-1)^m J_{32m}(x)
    # (Jacobi-Anger); here 2 |J_32(x)| >= 5e-14, while J_64(x) is below
    # 1e-30.  Endpoint nodes pi j / N would flip the sign, and a node set
    # off by anything else would miss by far more than 1e-15.
    monkeypatch.setattr(bessel, "_NODES", bessel._midpoint_nodes(16))
    aliasing = -2.0 * jn_oracle(32, x)
    assert abs(aliasing) >= 5e-14
    value = bessel.j0_values(np.array([x]))[0]
    assert abs((value - j0_oracle(x)) - aliasing) <= 1e-15


def test_midpoint_branch_against_mpmath():
    # |value - J0| <= bound <= J0_ABS_ERROR on 3,001 points of [0, 15),
    # J0 from mpmath at 40 digits; the array values are the scalar ones
    xs = np.linspace(0.0, bessel.SERIES_CUTOFF, 3001, endpoint=False)
    values = bessel.j0_values(xs)
    worst = 0.0
    with mpmath.workdps(40):
        for x, v in zip(xs.tolist(), values.tolist()):
            ev = bessel.j0(x)
            assert ev.value == v
            err = abs(mpmath.mpf(v) - mpmath.besselj(0, mpmath.mpf(x)))
            assert err <= ev.abs_error_bound <= bessel.J0_ABS_ERROR
            worst = max(worst, float(err))
    assert worst < 1e-15


def test_hankel_branch_against_mpmath():
    # |value - J0| <= bound <= J0_ABS_ERROR on [15, 2^26], J0 from mpmath at
    # 40 digits, with 2,000 points on [2^25, 2^26]: there the phase
    # x + (phi - pi/4) rounds by up to half an ulp of x, most of its
    # x 2^-53 charge.  The array values are the scalar ones.
    rng = np.random.default_rng(24)
    xs = np.concatenate([
        [bessel.SERIES_CUTOFF, *bessel._HANKEL_FROM[1:], bessel.FLAT_BOUND_MAX_ARG],
        np.exp(rng.uniform(math.log(15.0), math.log(2.0**25), 1000)),
        rng.uniform(2.0**25, 2.0**26, 2000),
    ])
    values = bessel.j0_values(xs)
    uncharged = 0  # errors the bound would miss without its phase charge
    with mpmath.workdps(40):
        for x, v in zip(xs.tolist(), values.tolist()):
            ev = bessel.j0(x)
            assert ev.value == v
            err = abs(mpmath.mpf(v) - mpmath.besselj(0, mpmath.mpf(x)))
            assert err <= ev.abs_error_bound <= bessel.J0_ABS_ERROR, x
            phase = bessel.j0_envelope(x) * x * 2.0**-53
            uncharged += bool(err > ev.abs_error_bound - phase)
    assert uncharged > 1000


def test_cos_is_within_one_ulp_on_j0s_domain():
    # both J0 branches charge np.cos as accurate to 1 ulp: the midpoint rule
    # takes cosines of x sin t in [0, 15), the Hankel branch of phases in
    # [15 - pi/4, 2^26].  Measured against mpmath on arrays, as J0 calls it
    rng = np.random.default_rng(6)
    xs = np.concatenate([
        rng.uniform(0.0, bessel.SERIES_CUTOFF, 2000),
        np.exp(rng.uniform(math.log(14.0), math.log(bessel.FLAT_BOUND_MAX_ARG), 2000)),
    ])
    worst = 0.0
    with mpmath.workdps(40):
        for x, c in zip(xs.tolist(), np.cos(xs).tolist()):
            exact = mpmath.cos(mpmath.mpf(x))
            worst = max(worst, float(abs(mpmath.mpf(c) - exact)) / math.ulp(float(exact)))
    assert worst <= 1.0


def _hankel_ratio(x):
    """|u| = |Q| / (x P) in exact rationals, for the n(x) terms of P and Q
    that the Hankel branch sums at x."""
    X = Fraction(x)
    n = bessel._hankel_terms(x)
    P = sum((-1) ** k * _hankel_coeff(2 * k) / X ** (2 * k) for k in range(n))
    Q = sum((-1) ** k * _hankel_coeff(2 * k + 1) / X ** (2 * k) for k in range(n))
    return abs(Q) / (X * P)


def test_hankel_rotation_premise():
    # phi = atan u by its alternating series to u^7 needs |u| small: below
    # 0.009 at 15 and at every band edge, and 1/(8x) / (1 - 9/(128 x^2)),
    # the bound from the first omitted terms, already is at x = 15
    X = Fraction(bessel.SERIES_CUTOFF)
    assert Fraction(1, 8) / X / (1 - Fraction(9, 128) / X**2) < Fraction(9, 1000)
    assert _hankel_coeff(1) == Fraction(1, 8) and _hankel_coeff(2) == Fraction(9, 128)
    for x in (bessel.SERIES_CUTOFF, *bessel._HANKEL_FROM):
        for y in (x, math.nextafter(x, 0.0)):
            if y >= bessel.SERIES_CUTOFF:
                u = _hankel_ratio(y)
                assert 0 < u < Fraction(9, 1000), y
                assert u**9 / 9 < Fraction(1, 10**19)


# a rational lower bound on pi: pi = 3.14159265358979323846264338327950288419...
PI_LO = Fraction("3.14159265358979323846264338327950288")


def _envelope_is_outward(v, x):
    # v >= sqrt(2 / (pi x)), or v = 1, which bounds |J0| everywhere
    return v == 1.0 or Fraction(v) ** 2 * PI_LO * Fraction(x) >= 2


def test_envelope_rounds_outward():
    rng = np.random.default_rng(11)
    xs = [5e-324, 0.5, 2 / math.pi, 0.7, 1.0, 15.0, 20.0, 640.0, 2.0**26]
    xs += np.exp(rng.uniform(math.log(0.5), math.log(2.0**26), 400)).tolist()
    for x in xs:
        assert _envelope_is_outward(bessel.j0_envelope(x), x), x
    # rounded to nearest, the bare formula falls below the bound it stands for
    nearest = [min(1.0, math.sqrt(2.0 / (math.pi * x))) for x in xs]
    assert sum(not _envelope_is_outward(v, x) for v, x in zip(nearest, xs)) > 100
