"""Registry of finite graphs that generate linear constraints on kappa.

Two graph kinds feed the witness function:

* vertex_sum ("M-type"): contributes sum_v J0(t |x_v|); its constraint bound
  is alpha(G) + |E(G)| gamma delta.
* subgraph ("T-type"): contributes sum_v J0(t |x_v|) - sum_e J0(t |x-y|),
  where every edge has unit length; bound alpha(G) + |E| gamma delta with the
  unit-distance mass subtracted explicitly.

CT pairs carry two vertex clouds (all-pairs term minus vertex term) and their
own constant c_ct; their vertex data comes from user-supplied files, none is
built in.

Everything is loaded from a JSON schema (documented in the README), validated
geometrically (edges unit within 1e-9) and combinatorially (declared alpha
re-derived by ``udgraph.max_is_exact``, which loads no scipy, for graphs with
at most 20 vertices).  The shipped registry holds the Moser spindle, hub vertex
at the origin, as both kinds.

A profile is (const, radii, coeffs) for const + sum_i c_i J0(r_i t), every
r_i > 0: equal radii merged, each vertex at the origin adding the exact
J0(0) = 1 to const.  Each graph and CT pair builds it once, when it is made,
for the LP variables of ``witness`` and for the graph and CT rows here, which
pair it with kappa through ``torus._pair_profile``, the kernel of f(r).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import AlphaMismatchError, GeometryError, SchemaError
from .torus import Spectrum, _pair_profile, pair_correlation
from .udgraph import SmallGraph, max_is_exact

__all__ = [
    "ConstraintGraph",
    "CTPair",
    "Registry",
    "load_registry",
    "builtin_registry",
    "profile_terms",
    "ct_profile_terms",
    "constraint_rhs_check",
    "ct_constraint_check",
    "CheckResult",
    "UNIT_EDGE_TOL",
]

UNIT_EDGE_TOL = 1e-9
ALPHA_CHECK_LIMIT = 20

KIND_ALIASES = {
    "vertex_sum": "vertex_sum",
    "m": "vertex_sum",
    "subgraph": "subgraph",
    "t": "subgraph",
}


@dataclass(frozen=True)
class ConstraintGraph:
    name: str
    kind: str  # "vertex_sum" | "subgraph"
    vertices: np.ndarray  # (n, 2)
    edges: tuple
    alpha: int
    _profile: tuple = field(init=False, repr=False, compare=False)  # profile_terms(self)

    def __post_init__(self):
        object.__setattr__(self, "_profile", profile_terms(self))

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def vertex_radii(self) -> np.ndarray:
        return np.hypot(self.vertices[:, 0], self.vertices[:, 1])


@dataclass(frozen=True)
class CTPair:
    name: str
    theta: float
    g1: np.ndarray  # (n1, 2)
    g2: np.ndarray  # (n2, 2)
    c_ct: float
    _profile: tuple = field(init=False, repr=False, compare=False)  # ct_profile_terms(self)

    def __post_init__(self):
        object.__setattr__(self, "_profile", ct_profile_terms(self))


@dataclass(frozen=True)
class Registry:
    graphs: tuple  # ConstraintGraph, file order
    ct_pairs: tuple
    registry_hash: str

    @property
    def m_graphs(self):
        return [g for g in self.graphs if g.kind == "vertex_sum"]

    @property
    def t_graphs(self):
        return [g for g in self.graphs if g.kind == "subgraph"]


def _parse_number(value, where) -> float:
    try:
        return float(value)  # decimal strings preferred; plain numbers accepted
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{where}: unparseable number {value!r}") from exc


def _parse_points(raw, where):
    if not (isinstance(raw, list) and all(isinstance(p, list) and len(p) == 2 for p in raw)):
        raise SchemaError(f"{where}: vertices must be a list of [x, y]")
    arr = np.array([[_parse_number(v, where) for v in p] for p in raw]).reshape(-1, 2)
    if not np.all(np.isfinite(arr)):
        raise GeometryError(f"{where}: non-finite coordinate")
    return arr


def _validate_graph(entry, idx) -> ConstraintGraph:
    where = f"graphs[{idx}]"
    for key in ("name", "kind", "vertices", "edges", "alpha"):
        if key not in entry:
            raise SchemaError(f"{where} missing field {key!r}")
    kind = KIND_ALIASES.get(str(entry["kind"]).lower())
    if kind is None:
        raise SchemaError(f"{where}: unknown kind {entry['kind']!r}")
    verts = _parse_points(entry["vertices"], where)
    n = len(verts)
    pairs = entry["edges"]  # JSON integers: type() is int refuses 2.0 and true
    if not (isinstance(pairs, list) and all(
        isinstance(e, list) and len(e) == 2 and all(type(i) is int for i in e) for e in pairs
    )):
        raise SchemaError(f"{where}: edges must be a list of [i, j] vertex indices")
    edges = []
    for a, b in pairs:
        if not (0 <= a < n and 0 <= b < n) or a == b:
            raise SchemaError(f"{where}: bad edge [{a}, {b}]")
        d = float(np.hypot(*(verts[a] - verts[b])))
        if abs(d - 1.0) > UNIT_EDGE_TOL:
            raise GeometryError(
                f"{where}: edge ({a},{b}) has length {d!r}, not unit"
            )
        edges.append((a, b))
    alpha = entry["alpha"]
    if not (type(alpha) is int and alpha >= 1):
        raise SchemaError(f"{where}: alpha must be an integer >= 1, not {alpha!r}")
    if n <= ALPHA_CHECK_LIMIT:
        true_alpha = max_is_exact(SmallGraph(n, edges)).size
        if true_alpha != alpha:
            raise AlphaMismatchError(
                f"{where}: declared alpha {alpha}, exact search finds {true_alpha}"
            )
    verts.setflags(write=False)
    return ConstraintGraph(str(entry["name"]), kind, verts, tuple(edges), alpha)


def _validate_ct(entry, idx) -> CTPair:
    where = f"ct_pairs[{idx}]"
    for key in ("theta", "g1", "g2", "c_ct"):
        if key not in entry:
            raise SchemaError(f"{where} missing field {key!r}")
    g1 = _parse_points(entry["g1"], where)
    g2 = _parse_points(entry["g2"], where)
    c_ct = _parse_number(entry["c_ct"], where)
    if not (c_ct >= 0.0 and math.isfinite(c_ct)):
        raise SchemaError(f"{where}: c_ct must be finite and >= 0")
    g1.setflags(write=False)
    g2.setflags(write=False)
    theta = _parse_number(entry["theta"], where)
    return CTPair(str(entry.get("name", f"ct_{idx}")), theta, g1, g2, c_ct)


def _registry_from_doc(doc, source: str) -> Registry:
    if not isinstance(doc, dict):
        raise SchemaError(f"{source}: top level must be an object")
    if "schema_version" not in doc:
        raise SchemaError(f"{source}: schema_version field required")
    entries = {key: doc.get(key, []) for key in ("graphs", "ct_pairs")}
    for key, items in entries.items():
        if not (isinstance(items, list) and all(isinstance(e, dict) for e in items)):
            raise SchemaError(f"{source}: {key} must be a list of objects")
    graphs = tuple(_validate_graph(e, i) for i, e in enumerate(entries["graphs"]))
    cts = tuple(_validate_ct(e, i) for i, e in enumerate(entries["ct_pairs"]))
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode()).hexdigest()
    return Registry(graphs, cts, digest)


def load_registry(path) -> Registry:
    """Load and validate a registry file; empty files give empty registries."""
    text = Path(path).read_text()
    if not text.strip():
        return Registry((), (), hashlib.sha256(b"").hexdigest())
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON: {exc}") from exc
    return _registry_from_doc(doc, str(path))


def builtin_registry() -> Registry:
    """The shipped Moser-spindle registry (hub vertex at the origin)."""
    text = resources.files("udsets.data").joinpath("moser_spindle.json").read_text()
    return _registry_from_doc(json.loads(text), "builtin:moser_spindle")


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

def _grouped(radii, coeffs):
    """(const, radii, coeffs) of sum_i c_i J0(r_i t), arrays read-only: radii
    equal to 12 decimals (far below UNIT_EDGE_TOL) merged and ascending, the
    radius-0 terms summed into const, since J0(0) = 1 exactly.

    The quantization moves each radius by < 5e-13, shifting J0(r t) by at
    most 0.3e-12 t.  No caller charges that shift yet: it is an open error
    source of the certified margins (ROADMAP item 6).
    """
    out = {}
    for r, c in zip(radii, coeffs):
        key = round(float(r), 12)
        out[key] = out.get(key, 0.0) + float(c)
    const = out.pop(0.0, 0.0)
    items = sorted(out.items())
    radii, coeffs = np.array([r for r, _ in items]), np.array([c for _, c in items])
    radii.flags.writeable = coeffs.flags.writeable = False
    return const, radii, coeffs


def profile_terms(g: ConstraintGraph):
    """(const, radii, coefficients) of the graph's profile
    const + sum_i c_i J0(r_i t), every r_i > 0."""
    radii = list(g.vertex_radii)
    coeffs = [1.0] * g.n_vertices
    if g.kind == "subgraph":
        for a, b in g.edges:
            radii.append(float(np.hypot(*(g.vertices[a] - g.vertices[b]))))
            coeffs.append(-1.0)
    return _grouped(radii, coeffs)


def ct_profile_terms(p: CTPair):
    """(const, radii, coefficients) of the CT profile, G1 pair sum minus G2
    vertex sum, in the form of ``profile_terms``."""
    radii = []
    coeffs = []
    n1 = len(p.g1)
    for i in range(n1):
        for j in range(i + 1, n1):
            radii.append(float(np.hypot(*(p.g1[i] - p.g1[j]))))
            coeffs.append(1.0)
    for v in p.g2:
        radii.append(float(np.hypot(v[0], v[1])))
        coeffs.append(-1.0)
    return _grouped(radii, coeffs)


# ---------------------------------------------------------------------------
# constraint audit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    lhs: float
    rhs: float
    rigor: float
    ok: bool


def constraint_rhs_check(S: Spectrum, g: ConstraintGraph) -> CheckResult:
    """The graph constraint sum_t kappa(t) profile_G(t) <= rhs.

    For subgraph profiles (edge mass subtracted) the bound is alpha(G) delta
    unconditionally.  Vertex-sum profiles drop the subtraction, so the edge
    mass |E| f(1) is added back on the right; it vanishes for 1-avoiding sets.
    """
    lhs, rigor = _pair_profile(S, *g._profile)
    rhs = g.alpha * S.density
    if g.kind == "vertex_sum" and g.n_edges:
        f1 = pair_correlation(S, 1.0)
        rhs += g.n_edges * max(f1.value, 0.0)
        rigor += g.n_edges * f1.rigor_bound
    return CheckResult(g.name, lhs, rhs, rigor, bool(lhs <= rhs + rigor))


def ct_constraint_check(S: Spectrum, p: CTPair) -> CheckResult:
    """The CT constraint sum_t kappa(t) CT-profile(t) >= 5 delta - 1 - c_ct f(1)."""
    lhs, rigor = _pair_profile(S, *p._profile)
    f1 = pair_correlation(S, 1.0)
    rhs = 5.0 * S.density - 1.0 - p.c_ct * f1.value
    rigor += p.c_ct * f1.rigor_bound
    return CheckResult(f"CT {p.name}", lhs, rhs, rigor, bool(lhs >= rhs - rigor))
