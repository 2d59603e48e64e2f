"""On-disk formats: GridSet files and pair-correlation CSV curves.

GridSet file (JSON, one object):

    {
      "schema_version": 1,
      "kind": "gridset",
      "K": <int>, "N": <int>,
      "encoding": "rle0-leb128-base64",
      "payload": "<base64>"
    }

Payload, byte-exactly: flatten the occupancy bits row-major with the x cell
index major (flat index = j * N*K + k).  Encode maximal runs of equal bits as
unsigned LEB128 run lengths, alternating values and starting with a 0-run (a
leading zero-length run when the first bit is 1).  Concatenate the varints and
base64-encode with the standard alphabet and '=' padding.  Decoding the
payload must reproduce exactly (N*K)^2 bits.
"""

from __future__ import annotations

import base64
import json
from pathlib import Path

import numpy as np

from .errors import SchemaError
from .torus import GridSet

__all__ = ["save_gridset", "load_gridset", "write_paircorr_csv", "dumps_json"]

_FMT = "%.17g"


def _leb128(n: int) -> bytes:
    out = bytearray()
    while True:
        byte = n & 0x7F
        n >>= 7
        if n:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def _rle_encode(bits: np.ndarray) -> bytes:
    bits = np.asarray(bits, dtype=np.uint8)
    out = bytearray()
    if bits.size == 0:
        return bytes(out)
    boundaries = np.flatnonzero(np.diff(bits)) + 1
    starts = np.concatenate([[0], boundaries])
    ends = np.concatenate([boundaries, [bits.size]])
    if bits[0] == 1:
        out += _leb128(0)  # leading empty 0-run keeps the alternation fixed
    for a, b in zip(starts, ends):
        out += _leb128(int(b - a))
    return bytes(out)


def _rle_decode(data: bytes, n_bits: int) -> np.ndarray:
    runs = []
    acc = 0
    shift = 0
    for byte in data:
        acc |= (byte & 0x7F) << shift
        if byte & 0x80:
            shift += 7
        else:
            runs.append(acc)
            acc = 0
            shift = 0
    if shift != 0:
        raise SchemaError("truncated varint in RLE payload")
    # checked before allocating, so a file cannot ask for more bits than it holds
    total = sum(runs)
    if total != n_bits:
        side = "longer" if total > n_bits else "shorter"
        raise SchemaError(f"RLE payload {side} than (NK)^2 bits")
    bits = np.zeros(n_bits, dtype=bool)
    pos = 0
    val = False
    for run in runs:
        if val:
            bits[pos : pos + run] = True
        pos += run
        val = not val
    return bits


def dumps_json(obj) -> str:
    """Canonical JSON used everywhere: sorted keys, fixed separators."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def save_gridset(path, A: GridSet) -> None:
    payload = base64.b64encode(_rle_encode(A.to_flat())).decode("ascii")
    doc = {
        "schema_version": 1,
        "kind": "gridset",
        "K": A.K,
        "N": A.N,
        "encoding": "rle0-leb128-base64",
        "payload": payload,
    }
    Path(path).write_text(dumps_json(doc))


def load_gridset(path) -> GridSet:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: top level must be an object")
    for key in ("schema_version", "kind", "K", "N", "encoding", "payload"):
        if key not in doc:
            raise SchemaError(f"gridset file missing field {key!r}")
    if doc["kind"] != "gridset" or doc["encoding"] != "rle0-leb128-base64":
        raise SchemaError("unknown gridset kind or encoding")
    N, K = doc["N"], doc["K"]
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in (N, K)):
        raise SchemaError(f"gridset N and K must be integers, got {N!r} and {K!r}")
    try:
        data = base64.b64decode(doc["payload"])
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"gridset payload is not base64: {exc}") from exc
    bits = _rle_decode(data, (N * K) ** 2)
    return GridSet.from_flat(bits, N, K)


def write_paircorr_csv(path, rows, delta: float) -> None:
    """CSV of (r, fcirc, rigor_bound, s, delta_sq) at 17 significant digits.

    rows: iterable of (r, value, rigor) triples; s = value / delta^2 and the
    constant delta_sq column carries the generic-set baseline.
    """
    delta_sq = delta * delta
    lines = ["r,fcirc,rigor_bound,s,delta_sq"]
    for r, value, rigor in rows:
        s_val = value / delta_sq if delta_sq > 0 else float("nan")
        lines.append(
            ",".join(_FMT % v for v in (r, value, rigor, s_val, delta_sq))
        )
    Path(path).write_text("\n".join(lines) + "\n")
