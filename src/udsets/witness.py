"""Witness functions, the dual feasibility LP, and rigorous certification.

A witness is a nonnegative combination

    W(t) = v0 + v1 J0(t) + v196 J0(1.96 t)
         + sum_i w_m[i] * (vertex profile of M_i)
         + sum_i w_t[i] * (vertex-minus-edge profile of T_i)
         - sum_i w_theta[i] * (CT profile i)

with W(0) >= 1 and W(t) >= 0 for all t >= 0.  Such a witness forces the
quadratic inequality

    a d^2 + b d + c + gamma * Gamma >= 0,
    a = -(1 - v196),
    b = v0 + sum alpha(M_i) w_m[i] + sum alpha(T_i) w_t[i] - 5 sum w_theta,
    c = sum w_theta,
    Gamma = v1 + v196 + sum |E(M_i)| w_m + sum |E(T_i)| w_t + sum c_ct w_theta,

for the density d of any periodic set with s(1) <= gamma and
s(1.96) <= 1 + gamma.  At gamma = 0 the admissible densities in [0, 1] lie
below a root of the quadratic (the maximum root when it opens downward, the
smaller one when v196 > 1 and the larger root clears 1); that root is the
certified bound delta_star, and gamma_extract recovers the largest
admissible gamma.

Verification is two-grid and never trusts the solver: W is evaluated on a
dense grid with a Lipschitz bound covering the gaps, the tail t > tail_start
is certified analytically by the witness's constant part minus
envelope-bounded oscillatory terms, and every Bessel evaluation error is
charged against the margin.  The dense step is derived from the witness
(``verification_step``: the largest power of two <= margin / L, so every grid
point i * step is exact in float64).  The LP itself runs in 80-bit floats on
a coarse grid (step 0.05 up to min(tail_start, 40)) plus an envelope tail row
at tail_start, with reserved slack so the rounded float64 coefficients still
verify.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .bessel import (
    J0_ABS_ERROR,
    _j0_sum,
    j0_combination,
    j0_combination_envelope,
    j0_combination_error,
    j0_values,
)
from .errors import DomainError, FeasibilityError, SchemaError
from .gridio import dumps_json
from .registry import (
    CheckResult,
    Registry,
    _grouped,
    constraint_rhs_check,
    ct_constraint_check,
)
from .simplex import solve_lp
from .torus import GridSet, Spectrum, pair_correlation, pair_correlation_direct

__all__ = [
    "WitnessCoefficients",
    "CertificateReport",
    "FeasibilityResult",
    "CertifyResult",
    "witness_eval",
    "witness_lipschitz",
    "witness_terms",
    "verification_step",
    "verify_witness",
    "spot_audit",
    "quadratic_root",
    "gamma_extract",
    "solve_feasibility",
    "default_solve_grid",
    "certify_bound",
    "kappa_constraint_audit",
    "write_certificate",
    "load_certificate",
    "certificate_coefficients",
    "verify_certificate_file",
    "CROFT_TARGET_DENSITY",
    "DEFAULT_BUDGET",
]

# Croft-tortoise optimum, frozen from constructions.optimize_croft();
# the density any clumpiness constant is measured against.
CROFT_TARGET_DENSITY = 0.2293647316297585

DEFAULT_BUDGET = 15.0
DEFAULT_MARGIN = 3e-3
DEFAULT_TAIL_START = 20.0
DEFAULT_RMAX = 4.0


@dataclass(frozen=True)
class WitnessCoefficients:
    v0: float
    v1: float
    v196: float
    w_m: tuple
    w_t: tuple
    w_theta: tuple
    registry: Registry
    # set by __post_init__: W as one _Var, sum x_i var_i over _var_terms
    # (equal radii merged, arrays read-only), and the largest profile radius
    _total: _Var = field(init=False, repr=False, compare=False)
    _max_radius: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "v0", float(self.v0))
        object.__setattr__(self, "v1", float(self.v1))
        object.__setattr__(self, "v196", float(self.v196))
        object.__setattr__(self, "w_m", tuple(float(x) for x in self.w_m))
        object.__setattr__(self, "w_t", tuple(float(x) for x in self.w_t))
        object.__setattr__(self, "w_theta", tuple(float(x) for x in self.w_theta))
        if len(self.w_m) != len(self.registry.m_graphs):
            raise DomainError("w_m length disagrees with registry")
        if len(self.w_t) != len(self.registry.t_graphs):
            raise DomainError("w_t length disagrees with registry")
        if len(self.w_theta) != len(self.registry.ct_pairs):
            raise DomainError("w_theta length disagrees with registry")
        x = (self.v0, self.v1, self.v196, *self.w_m, *self.w_t, *self.w_theta)
        for v in x:
            if not (v >= 0.0 and math.isfinite(v)):
                raise DomainError("witness coefficients must be finite and >= 0")
        # one pass in LP order, each sum one term at a time (the order fixes
        # the last bits); J0 terms of zero-weight variables are left out
        sums = dict.fromkeys(_SUMS, 0.0)
        all_radii, all_coeffs = [], []
        max_radius = 0.0
        for xi, var in zip(x, _var_terms(self.registry)):
            for name in sums:
                sums[name] += xi * getattr(var, name)
            max_radius = max(max_radius, float(var.radii.max(initial=0.0)))
            if xi != 0.0:
                all_radii.extend(var.radii)
                all_coeffs.extend(xi * float(co) for co in var.coeffs)
        _, radii, coeffs = _grouped(all_radii, all_coeffs)
        object.__setattr__(self, "_total", _Var(radii=radii, coeffs=coeffs, **sums))
        object.__setattr__(self, "_max_radius", max_radius)

    @property
    def budget_sum(self) -> float:
        """Budget-weighted coefficient sum: T and CT weights count twice."""
        return self._total.budget

    def as_dict(self) -> dict:
        return {
            "v0": self.v0,
            "v1": self.v1,
            "v196": self.v196,
            "w_m": list(self.w_m),
            "w_t": list(self.w_t),
            "w_theta": list(self.w_theta),
        }


class _Var(NamedTuple):
    """One LP variable: its profile const + sum coeffs J0(radii t) and its
    weights in the budget, in Gamma and in the quadratic, whose coefficients
    are a = -1 + sum quad_a x, b = sum quad_b x and c = sum quad_c x."""

    const: float
    radii: np.ndarray
    coeffs: np.ndarray
    budget: float
    quad_a: float
    quad_b: float
    quad_c: float
    gamma: float


_NO_TERMS = np.array([])
_SUMS = ("const", "budget", "quad_a", "quad_b", "quad_c", "gamma")  # scalar _Var fields


def _var_terms(registry: Registry) -> list[_Var]:
    """The LP variables in order: v0, v1, v196, w_m..., w_t..., w_theta....

    Each profile is the one its graph or CT pair builds once (``_profile``);
    the CT sign flip (the witness subtracts CT profiles) is applied here.
    """
    out = [
        _Var(1.0, _NO_TERMS, _NO_TERMS, 1.0, 0.0, 1.0, 0.0, 0.0),  # v0
        _Var(0.0, np.array([1.0]), np.array([1.0]), 1.0, 0.0, 0.0, 0.0, 1.0),  # v1
        _Var(0.0, np.array([1.96]), np.array([1.0]), 1.0, 1.0, 0.0, 0.0, 1.0),  # v196
    ]
    for budget, graphs in ((1.0, registry.m_graphs), (2.0, registry.t_graphs)):
        for g in graphs:
            out.append(_Var(*g._profile, budget, 0.0, float(g.alpha), 0.0, float(g.n_edges)))
    for p in registry.ct_pairs:
        const, radii, coeffs = p._profile
        out.append(_Var(-const, radii, -coeffs, 2.0, 0.0, -5.0, 1.0, float(p.c_ct)))
    return out


def witness_terms(c: WitnessCoefficients):
    """(constant, radii, coefficients) of W with equal radii merged."""
    return c._total.const, c._total.radii, c._total.coeffs


def witness_eval(c: WitnessCoefficients, t):
    """W(t) for scalar or array t (t >= 0)."""
    if np.any(np.asarray(t) < 0):
        raise DomainError("witness arguments must be >= 0")
    const, radii, coeffs = witness_terms(c)
    return j0_combination(radii, coeffs, t, const)


def witness_lipschitz(c: WitnessCoefficients) -> float:
    """0.6 * sum |coef_i| r_i over the J0 terms of W: a global |W'| bound.

    Uses sup |J0'| = sup |J1| < 0.6.  Errors out if any profile radius of an
    LP variable (``_var_terms``) exceeds DEFAULT_RMAX = 4, which would
    invalidate the documented budget chain.
    """
    r = c._max_radius
    if r > DEFAULT_RMAX:
        raise DomainError(f"registry radius {r} exceeds r_max {DEFAULT_RMAX}")
    _, radii, coeffs = witness_terms(c)
    return 0.6 * float(np.sum(np.abs(coeffs) * radii))


# step used when W has no J0 terms (L = 0): W is constant, any step verifies
_FLAT_STEP = 2.0**-4


def verification_step(c: WitnessCoefficients, margin: float = DEFAULT_MARGIN) -> float:
    """Largest power of two <= margin / witness_lipschitz(c).

    The coarsest dense-grid step ``verify_witness`` accepts for ``c``; a
    power of two keeps every grid point i * step exact in float64.
    """
    if not margin > 0.0:
        raise DomainError("margin must be > 0")
    L = witness_lipschitz(c)
    if L == 0.0:
        return _FLAT_STEP
    _, exp = math.frexp(margin / L)  # margin / L = m * 2**exp, 0.5 <= m < 1
    return math.ldexp(1.0, exp - 1)


# ---------------------------------------------------------------------------
# quadratic and gamma
# ---------------------------------------------------------------------------

def quadratic_coefficients(c: WitnessCoefficients):
    """(a, b, c) of the certified quadratic a d^2 + b d + c >= 0."""
    return -(1.0 - c._total.quad_a), c._total.quad_b, c._total.quad_c


def quadratic_root(c: WitnessCoefficients):
    """Certified density bound from a d^2 + b d + qc >= 0 (d admissible).

    For v196 < 1 the parabola opens downward and admissible densities sit
    below the maximum root.  For v196 > 1 it opens upward and the bound is
    the *smaller* root, valid only when the larger root exceeds 1 so that
    the whole window (root1, 1] is excluded; otherwise no density bound
    follows and the certificate is degenerate.
    """
    a, b, qc = quadratic_coefficients(c)
    if a == 0.0:
        if b >= 0.0:
            raise DomainError("degenerate certificate: linear part gives no bound")
        return min(1.0, -qc / b), (a, b, qc)
    disc = b * b - 4.0 * a * qc
    if a < 0.0:
        if disc < 0.0:
            raise DomainError("no real root: certificate vacuous")
        delta_star = (-b - math.sqrt(disc)) / (2.0 * a)
        return delta_star, (a, b, qc)
    # a > 0 (v196 > 1)
    if disc <= 0.0:
        raise DomainError("quadratic nonnegative everywhere: no density bound")
    r1 = (-b - math.sqrt(disc)) / (2.0 * a)
    r2 = (-b + math.sqrt(disc)) / (2.0 * a)
    if r1 < 0.0 or r2 <= 1.0:
        raise DomainError(
            "upward quadratic does not exclude (root, 1]: no density bound"
        )
    return r1, (a, b, qc)


def gamma_coefficient(c: WitnessCoefficients) -> float:
    """The gamma perturbation weight Gamma."""
    return c._total.gamma


def _quadratic_interval_max(a, b, qc, lo, hi):
    vals = [a * lo * lo + b * lo + qc, a * hi * hi + b * hi + qc]
    if a != 0.0:
        v = -b / (2.0 * a)
        if lo < v < hi:
            vals.append(a * v * v + b * v + qc)
    return max(vals)


_GAMMA_CAP = 2.0**19  # reported when every gamma up to it is admissible


def _gamma_search(c: WitnessCoefficients, epsilon: float, root):
    """(gamma, None) on success, (0.0, reason) when no gamma is extractable.

    ``root`` is ``quadratic_root(c)``.  With Q the quadratic's maximum on
    [delta_star + epsilon, 1], gamma is the largest float g with
    Q + g * Gamma < 0, capped at 2**19: -Q / Gamma moved in ulp steps.
    """
    delta_star, (a, b, qc) = root
    if delta_star + epsilon >= CROFT_TARGET_DENSITY:
        return 0.0, (
            f"delta_star + epsilon = {delta_star + epsilon} reaches the target "
            f"density {CROFT_TARGET_DENSITY}; no clumpiness constant extractable"
        )
    Gamma = gamma_coefficient(c)
    Q = _quadratic_interval_max(a, b, qc, delta_star + epsilon, 1.0)

    def admissible(gamma):
        return Q + gamma * Gamma < 0.0

    if not admissible(0.0):
        return 0.0, "quadratic not negative beyond delta_star + epsilon"
    if Gamma == 0.0:
        return 1.0, None  # no gamma sensitivity at all; any gamma <= 1 works
    if admissible(_GAMMA_CAP):
        return _GAMMA_CAP, None
    g = -Q / Gamma  # within a few ulps; admissible is monotone in g
    while not admissible(g):
        g = math.nextafter(g, 0.0)
    while admissible(math.nextafter(g, math.inf)):
        g = math.nextafter(g, math.inf)
    if g <= 0.0:
        return 0.0, "no positive gamma admissible at this epsilon"
    return g, None


def gamma_extract(c: WitnessCoefficients, epsilon: float) -> float:
    """Largest float gamma keeping the perturbed quadratic
    a d^2 + b d + qc + gamma * Gamma negative on [delta_star + epsilon, 1],
    capped at 2**19.

    Precondition: delta_star + epsilon < CROFT_TARGET_DENSITY, so the bound
    still separates from the Croft construction; FeasibilityError otherwise.
    """
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise DomainError(f"epsilon {epsilon!r}: need finite > 0")
    gamma, reason = _gamma_search(c, epsilon, quadratic_root(c))
    if reason is not None:
        raise FeasibilityError(reason)
    return gamma


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CertificateReport:
    w_at_zero: float
    min_grid_value: float
    argmin_t: float
    grid_step: float
    margin: float
    lipschitz_bound: float
    eval_error: float
    tail_floor: float
    tail_start: float
    tail_const: float
    tail_osc: float
    quadratic: tuple
    delta_star: float
    gamma: float
    verdict: str  # "certified" or "failed: <reasons>"

    @property
    def certified(self) -> bool:
        return self.verdict == "certified"


_CHUNK = 1 << 20
_MAX_GRID_POINTS = 1 << 30  # verify_witness refuses more points (1e-5 to 640 is 6.4e7)


def _j0_columns(memo: dict, key, ts, radii):
    """j0_values(r * ts) for each r in ``radii``, in order, lazily.

    ``key`` names the grid and must fix its points ``ts`` exactly.  A column
    is lent from ``memo[key, r]`` when held there; a new one is kept while
    ``memo`` then holds at most _CHUNK values in total.
    """
    held = sum(col.size for col in memo.values())
    for r in radii:
        col = memo.get((key, r))
        if col is None:
            col = j0_values(r * ts)
            if held + col.size <= _CHUNK:
                memo[key, r] = col
                held += col.size
        yield col


def _grid_min(c: WitnessCoefficients, grid_step: float, tail_start: float, j0=None):
    """(min, argmin) of W over i * grid_step, i <= floor(tail_start / grid_step),
    plus tail_start itself when that grid misses it: no gap before the tail
    exceeds one grid step.

    A grid of one chunk reads its J0 columns through the memo ``j0`` when
    given (``_j0_columns``); a longer grid is evaluated chunk by chunk.
    """
    n_pts = int(math.floor(tail_start / grid_step)) + 1
    const, radii, coeffs = witness_terms(c)
    if n_pts > _CHUNK:
        j0 = None  # its key names the whole grid, not one chunk of it
    best = math.inf
    best_t = 0.0
    for start in range(0, n_pts, _CHUNK):
        ts = np.arange(start, min(start + _CHUNK, n_pts), dtype=np.int64) * grid_step
        if start + _CHUNK >= n_pts and ts[-1] < tail_start:
            ts = np.append(ts, tail_start)
        if j0 is None:
            columns = (j0_values(r * ts) for r in radii)
        else:
            columns = _j0_columns(j0, (grid_step, tail_start), ts, radii)
        # term by term as j0_combination adds them: the same float64 values
        acc = _j0_sum(const, coeffs, columns, ts.shape)
        i = int(np.argmin(acc))
        if acc[i] < best:
            best = float(acc[i])
            best_t = float(ts[i])
    return best, best_t


def verify_witness(
    c: WitnessCoefficients,
    grid_step: float,
    margin: float = DEFAULT_MARGIN,
    tail_start: float = DEFAULT_TAIL_START,
    j0: dict | None = None,
) -> CertificateReport:
    """Grid + Lipschitz + tail-envelope verification of W >= 0 and W(0) >= 1.

    ``grid_step`` must be <= margin / L; ``verification_step(c, margin)``
    gives the coarsest such power of two.  A grid of over 2**30 points is
    refused.  Mathematical failures come back as a failed verdict, never
    exceptions.  The reported ``gamma`` is extracted at epsilon = 1e-3
    against the Croft target density.  ``j0`` is a J0 column memo
    (``_j0_columns``) that lends the grid's columns from earlier
    verifications on the same grid; the report is the same without it.
    """
    if not (0.0 < grid_step < math.inf and 0.0 < tail_start < math.inf):
        raise DomainError(f"grid_step {grid_step!r}, tail_start {tail_start!r}: need finite > 0")
    if tail_start / grid_step >= _MAX_GRID_POINTS:  # floor(T / step) + 1 points
        raise DomainError(f"the grid to tail_start exceeds {_MAX_GRID_POINTS} points")
    L = witness_lipschitz(c)
    if L > 0 and grid_step > margin / L:
        raise DomainError(
            f"grid_step {grid_step} too coarse: needs <= margin/L = {margin / L}"
        )
    tail_const, radii, coeffs = witness_terms(c)
    # the constant part is exact; each J0 term carries its certified bound
    eval_err = j0_combination_error(coeffs)
    # J0(0) = 1 exactly: the bits of witness_eval(c, 0.0), with no J0 call
    w0 = float(_j0_sum(tail_const, coeffs, [1.0] * len(coeffs), ()))
    min_grid, argmin_t = _grid_min(c, grid_step, tail_start, j0)
    # W(t) >= const - sum |coef| env(r t) for t >= tail_start, and the
    # envelope is nonincreasing, so its value at tail_start floors the tail
    tail_osc = j0_combination_envelope(radii, coeffs, tail_start)
    tail_floor = tail_const - tail_osc

    reasons = []
    if not w0 >= 1.0 + eval_err:
        reasons.append(f"W(0) = {w0} not certifiably >= 1")
    if not min_grid >= margin:
        reasons.append(f"grid min {min_grid} at t = {argmin_t} below margin {margin}")
    if not margin > L * grid_step / 2.0 + eval_err:
        reasons.append("margin does not cover Lipschitz gap + evaluation error")
    if not tail_floor > 0.0:
        reasons.append(
            f"tail floor {tail_floor} not positive at tail_start {tail_start}"
        )

    root = (math.nan, (math.nan, math.nan, math.nan))
    gamma = 0.0
    try:
        root = quadratic_root(c)
    except DomainError as exc:
        reasons.append(str(exc))
    delta_star, quad = root

    verdict = "certified" if not reasons else "failed: " + "; ".join(reasons)
    if verdict == "certified":
        gamma, _ = _gamma_search(c, 1e-3, root)
    return CertificateReport(
        w_at_zero=w0,
        min_grid_value=min_grid,
        argmin_t=argmin_t,
        grid_step=grid_step,
        margin=margin,
        lipschitz_bound=L,
        eval_error=eval_err,
        tail_floor=tail_floor,
        tail_start=tail_start,
        tail_const=tail_const,
        tail_osc=tail_osc,
        quadratic=quad,
        delta_star=delta_star,
        gamma=gamma,
        verdict=verdict,
    )


def spot_audit(c: WitnessCoefficients, grid_step: float, tail_start: float):
    """Re-scan W on a 10 times finer grid; returns (min value, argmin)."""
    return _grid_min(c, grid_step / 10, tail_start)


# ---------------------------------------------------------------------------
# the feasibility LP
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FeasibilityResult:
    status: str  # "feasible" | "infeasible"
    coefficients: WitnessCoefficients | None
    farkas: np.ndarray | None = None
    farkas_valid: bool = False
    iterations: int = 0
    labels: tuple = ()  # the block of each LP row, as in _LPRows.labels


_SOLVE_STEP = 0.05
_SOLVE_GRID_MAX = 40.0  # the solve grid stops here whatever the tail start (LP size)
# W >= max(_GRID_SLACK, margin + _GRID_SLACK_OVER_MARGIN) on the solve grid:
# above the verification margin, so that W still clears the margin between
# solve-grid points, where the dense verification grid finds its minimum
_GRID_SLACK = 5e-3
_GRID_SLACK_OVER_MARGIN = 2e-3


def default_solve_grid(tail_start: float = DEFAULT_TAIL_START):
    """The LP's solve grid 0, 0.05, ... up to tail_start."""
    return np.arange(0.0, tail_start + _SOLVE_STEP / 2, _SOLVE_STEP)


class _LPRows(NamedTuple):
    """The rows A x <= b of the feasibility LP at one (registry, tail start,
    budget, margin), each labelled by its block: "grid", "w0", "budget",
    "quadratic" or "tail".  Only the quadratic row depends on delta_plus;
    it is zero here, and each solve fills it in its own copy."""

    variables: list  # _var_terms(registry)
    labels: tuple
    A: np.ndarray
    b: np.ndarray


def _lp_rows(registry: Registry, tail_start: float, budget: float, margin: float) -> _LPRows:
    """The labelled row table that ``solve_feasibility`` solves at each target."""
    variables = _var_terms(registry)
    grid_end = min(tail_start, _SOLVE_GRID_MAX)
    t_grid = default_solve_grid(grid_end)
    ts = np.append(t_grid, 0.0)  # the solve grid, then t = 0 for W(0)
    # J0 once per distinct radius; each column then equals
    # j0_combination(v.radii, v.coeffs, ts, v.const) bit for bit
    j0 = {}
    profiles = np.column_stack([
        _j0_sum(v.const, v.coeffs, _j0_columns(j0, grid_end, ts, v.radii), ts.shape)
        for v in variables
    ])
    A = np.vstack([
        -profiles,                              # W(t) >= grid slack, W(0) >= 1 + w0 slack
        [v.budget for v in variables],          # coefficient budget
        np.zeros(len(variables)),               # quadratic at delta_plus, filled per solve
        [j0_combination_envelope(v.radii, v.coeffs, tail_start) - v.const
         for v in variables],                   # tail: constant beats envelope
    ])
    # verify_witness needs W(0) >= 1 + J0_ABS_ERROR sum |c|: reserve twice
    # that at the budget, or 1e-9 where that is less (any budget below 500)
    w0_slack = max(1e-9, 2.0 * J0_ABS_ERROR * budget)
    b = np.concatenate([
        np.full(len(t_grid), -max(_GRID_SLACK, margin + _GRID_SLACK_OVER_MARGIN)),
        [-(1.0 + w0_slack), budget - 1e-9, 0.0, -2.0 * margin],
    ])
    labels = ("grid",) * len(t_grid) + ("w0", "budget", "quadratic", "tail")
    return _LPRows(variables, labels, A, b)


def solve_feasibility(
    registry: Registry,
    delta_plus: float,
    tail_start: float = DEFAULT_TAIL_START,
    budget: float = DEFAULT_BUDGET,
    margin: float = DEFAULT_MARGIN,
    *,
    minimize_quadratic: bool = False,
    rows: dict | None = None,
) -> FeasibilityResult:
    """Find nonnegative witness coefficients for the density target delta_plus.

    The LP's rows come in five labelled blocks: W >= max(5e-3, margin + 2e-3)
    on ``default_solve_grid(min(tail_start, 40))`` ("grid"),
    W(0) >= 1 + max(1e-9, 2 J0_ABS_ERROR budget) ("w0"), the weighted
    coefficient budget ("budget"), the quadratic inequality at delta_plus
    ("quadratic"), and the envelope tail row at tail_start, where the
    constant part beats the oscillatory envelope by 2 * margin ("tail").
    The result's ``labels`` name the block of each row, so a Farkas entry
    is read by its label.  The grid slack exceeds the verification margin,
    whatever the margin, so the rounded float64 solution still verifies on
    the dense verification grid (step <= margin / L, e.g. 2**-8 for the
    builtin witness).

    With minimize_quadratic the solver minimizes the quadratic row instead of
    stopping at the first feasible vertex, driving delta_star below the
    target rather than landing on it.  ``rows`` is a memo of row tables
    (``_lp_rows``) under (registry hash, tail start, budget, margin): every
    row but the quadratic one is read from the table of these arguments,
    built and kept there when missing.
    """
    if not 0.0 < delta_plus < 1.0:
        raise DomainError("delta_plus must lie in (0, 1)")
    key = (registry.registry_hash, tail_start, budget, margin)
    rows = {} if rows is None else rows
    if key not in rows:
        rows[key] = _lp_rows(registry, tail_start, budget, margin)
    table = rows[key]
    d = delta_plus
    qrow = np.array([v.quad_a * (d * d) + v.quad_b * d + v.quad_c for v in table.variables])
    q = table.labels.index("quadratic")
    A, b = table.A.copy(), table.b.copy()
    A[q], b[q] = qrow, d * d
    objective = qrow if minimize_quadratic else None
    res = solve_lp(A, b, objective=objective)
    if res.status == "infeasible":
        return FeasibilityResult(
            "infeasible", None, res.farkas, res.farkas_valid, res.iterations, table.labels
        )
    if res.status != "optimal":
        raise FeasibilityError(f"LP solver returned {res.status}")
    x = res.x
    nm, nt = len(registry.m_graphs), len(registry.t_graphs)
    coeffs = WitnessCoefficients(
        v0=x[0],
        v1=x[1],
        v196=x[2],
        w_m=tuple(x[3 : 3 + nm]),
        w_t=tuple(x[3 + nm : 3 + nm + nt]),
        w_theta=tuple(x[3 + nm + nt :]),
        registry=registry,
    )
    return FeasibilityResult("feasible", coeffs, iterations=res.iterations, labels=table.labels)


@dataclass(frozen=True)
class CertifyResult:
    best_delta: float
    coefficients: WitnessCoefficients
    report: CertificateReport
    attempts: tuple  # (delta_plus, tail_start, outcome) log


# attempt-log outcome when the Farkas ray puts no weight on the tail row
LP_INFEASIBLE_WITHOUT_TAIL = "lp-infeasible: Farkas ray ignores the tail row; stop escalating"


def _tail_independent(res: FeasibilityResult) -> bool:
    """True when the Farkas ray proves infeasibility without the tail row.

    The ray's tail weight is its entry at the row labelled "tail".
    Escalating T only adds "grid" rows (the grid at min(2T, 40) extends the
    one at min(T, 40)) and moves the tail row, so a ray with zero tail
    weight, padded with zeros on the new rows, also refutes every larger T.
    """
    return res.farkas_valid and res.farkas[res.labels.index("tail")] == 0.0


_MAX_TAIL = 640.0  # an infeasible LP's tail start doubles up to this
_BISECT_TOL = 2e-4  # certify_bound stops when its delta_plus bracket is this narrow


def _attempt(
    registry, delta_plus, *, budget, margin, tail_start, minimize_quadratic=False,
    rows=None, j0=None,
):
    """Solve + verify at one delta_plus.

    Returns (last LP result, its verification report or None when that LP
    was infeasible, attempt log).  A feasible LP's witness is verified once,
    at its ``verification_step`` and the LP's tail start, and that verdict
    is final.  An infeasible LP is solved again at twice the tail start, up
    to _MAX_TAIL = 640, only while its Farkas ray weights the tail row: a
    ray that ignores that row refutes every larger T (``_tail_independent``),
    and no larger T can mend a witness that failed verification.

    ``rows`` (LP row tables, for ``solve_feasibility``) and ``j0`` (J0
    columns, for ``verify_witness``) are memo dicts; ``certify_bound``
    passes the same two to all its attempts, so each row table is built,
    and each verification grid's J0 evaluated, once per call.
    """
    if not tail_start > 0.0:
        raise DomainError("tail_start must be > 0")
    T = tail_start
    log = []
    while True:
        # solve-grid rows stay capped at t = 40 (LP size); the envelope tail
        # row at T pushes the constant part up, and the dense verification
        # grid covering [0, T] is sovereign either way
        res = solve_feasibility(
            registry, delta_plus, T, budget, margin,
            minimize_quadratic=minimize_quadratic, rows=rows,
        )
        if res.status == "feasible":
            step = verification_step(res.coefficients, margin)
            report = verify_witness(res.coefficients, step, margin, T, j0)
            log.append((delta_plus, T, report.verdict))
            return res, report, log
        if _tail_independent(res):
            log.append((delta_plus, T, LP_INFEASIBLE_WITHOUT_TAIL))
            return res, None, log
        log.append((delta_plus, T, "lp-infeasible"))
        if 2.0 * T > _MAX_TAIL:
            return res, None, log
        T *= 2.0


def certify_bound(
    registry: Registry,
    *,
    budget: float = DEFAULT_BUDGET,
    margin: float = DEFAULT_MARGIN,
    tail_start: float = DEFAULT_TAIL_START,
) -> CertifyResult:
    """Smallest delta_plus whose witness passes full verification.

    Bisects delta_plus over [0.05, 0.95], starting at 0.95 and stopping
    when the bracket is at most _BISECT_TOL = 2e-4 wide (14 points).  Each
    point is one ``_attempt``: a complete solve + independent verification,
    its tail start raised from ``tail_start`` only while the LP is
    infeasible and its Farkas ray weights the tail row.  The LP rows of
    each tail start are built once per call and shared by its attempts,
    and so are the J0 columns of each verification grid.
    """
    lo, hi = 0.05, 0.95
    dp, best, attempts, rows, j0 = hi, None, [], {}, {}
    while True:
        res, report, log = _attempt(
            registry, dp, budget=budget, margin=margin, tail_start=tail_start, rows=rows, j0=j0
        )
        attempts.extend(log)
        if report is not None and report.certified:
            hi, best = dp, (dp, res.coefficients, report)
        elif best is None:
            raise FeasibilityError(
                f"no certificate even at delta_plus = {dp}; registry too weak"
            )
        else:
            lo = dp
        if hi - lo <= _BISECT_TOL:
            return CertifyResult(*best, tuple(attempts))
        dp = 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# constraint audit against real sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AuditReport:
    items: tuple  # CheckResult
    ok: bool


def kappa_constraint_audit(
    S: Spectrum,
    registry: Registry,
    r_probes=(1.0, 1.96),
    gridset: GridSet | None = None,
) -> AuditReport:
    """Audit (D), (F2), (A1)/(A2)-style identities, (G), and (CT) if loaded.

    The r-probe rows compare the spectral synthesis against the exact
    direct-geometry value when the originating GridSet is supplied; the two
    must agree within the spectral rigor bound plus 1e-9 of roundoff.
    """
    def agreement(name, lhs, rhs, tol):
        return CheckResult(name, lhs, rhs, tol, bool(abs(lhs - rhs) <= tol))

    dens = S.density
    kappa0 = float(S.kappas[S.ms == 0][0]) if np.any(S.ms == 0) else 0.0
    total = float(S.kappas.sum()) + S.tail_mass + S.omitted_mass
    items = [
        agreement("D: kappa(0) = density^2", kappa0, dens * dens, 1e-9),
        agreement("F2: sum kappa + tail + omitted = density", total, dens, 1e-9),
    ]
    if gridset is not None:
        directs = pair_correlation_direct(gridset, np.asarray(r_probes, dtype=float))
        for r, direct in zip(r_probes, directs):
            ev = pair_correlation(S, float(r))
            items.append(agreement(f"A: synthesis vs direct at r={r}", ev.value,
                                   float(direct), ev.rigor_bound + 1e-9))
    items += [constraint_rhs_check(S, g) for g in registry.graphs]
    items += [ct_constraint_check(S, p) for p in registry.ct_pairs]
    return AuditReport(tuple(items), all(i.ok for i in items))


# ---------------------------------------------------------------------------
# certificate files
# ---------------------------------------------------------------------------

def write_certificate(path, c: WitnessCoefficients, report: CertificateReport):
    doc = {
        "schema_version": 1,
        "kind": "witness_certificate",
        "registry_hash": c.registry.registry_hash,
        "coefficients": c.as_dict(),
        "grid_step": report.grid_step,
        "margin": report.margin,
        "tail_start": report.tail_start,
        "delta_star": report.delta_star,
        "gamma": report.gamma,
        "verdict": report.verdict,
    }
    Path(path).write_text(dumps_json(doc))


def load_certificate(path) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: top level must be an object")
    for key in ("schema_version", "kind", "registry_hash", "coefficients",
                "grid_step", "margin", "tail_start", "verdict"):
        if key not in doc:
            raise SchemaError(f"certificate missing field {key!r}")
    if doc["kind"] != "witness_certificate":
        raise SchemaError("not a witness certificate file")
    for key in ("grid_step", "margin", "tail_start"):
        if isinstance(doc[key], bool) or not isinstance(doc[key], (int, float)):
            raise SchemaError(f"certificate field {key!r} must be a number")
    return doc


def certificate_coefficients(doc: dict, registry: Registry) -> WitnessCoefficients:
    """The witness stored in a loaded certificate, bound to ``registry``.

    Raises SchemaError when the certificate was written for another registry
    or its coefficients are missing or malformed.
    """
    if doc["registry_hash"] != registry.registry_hash:
        raise SchemaError("certificate registry hash does not match the registry")
    raw = doc["coefficients"]
    try:
        values = {k: float(raw[k]) for k in ("v0", "v1", "v196")}
        values.update({k: tuple(float(x) for x in raw[k]) for k in ("w_m", "w_t", "w_theta")})
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed coefficients: {exc}") from exc
    return WitnessCoefficients(**values, registry=registry)


def verify_certificate_file(path, registry: Registry):
    """Re-run verification from the file alone; returns (report, reproduced).

    ``reproduced`` is True when the recomputed verdict, delta_star, and gamma
    agree with the stored ones bit-for-bit.
    """
    doc = load_certificate(path)
    c = certificate_coefficients(doc, registry)
    report = verify_witness(
        c, float(doc["grid_step"]), float(doc["margin"]), float(doc["tail_start"])
    )
    stored_delta = doc.get("delta_star")
    reproduced = (
        report.verdict == doc["verdict"]
        and (
            (isinstance(stored_delta, float) and math.isnan(stored_delta))
            if math.isnan(report.delta_star)
            else report.delta_star == stored_delta
        )
        and report.gamma == doc.get("gamma")
    )
    return report, reproduced
