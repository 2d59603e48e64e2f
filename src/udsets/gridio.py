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
payload must reproduce exactly (N*K)^2 bits; a payload with characters
outside the base64 alphabet, or a run of more than 9 varint bytes (63 bits),
is refused.  So is a file whose (N*K)^2 exceeds MAX_GRIDSET_CELLS, before
anything is decoded or allocated.
"""

from __future__ import annotations

import base64
import json
from pathlib import Path

import numpy as np

from .errors import SchemaError
from .torus import GridSet

__all__ = [
    "save_gridset", "load_gridset", "write_paircorr_csv", "dumps_json", "MAX_GRIDSET_CELLS",
]

_FMT = "%.17g"

# load_gridset refuses more cells: a 32768^2 raster, whose decoded bits alone
# take 1 GiB (one byte each); without it a few payload bytes could ask for
# any number of bits
MAX_GRIDSET_CELLS = 2**30


# bits per chunk of the encoder's run search, varint bytes per chunk of the
# decoder, and output bits per window of the decoder's fill
_RLE_CHUNK = 2**18
# a run of 9 LEB128 bytes holds 63 bits; a longer one is longer than any set
_MAX_VARINT_BYTES = 9


def _leb128(values: np.ndarray) -> bytes:
    """The unsigned LEB128 varints of ``values`` (int64, >= 0), concatenated."""
    nbytes = np.ones(values.size, dtype=np.int64)
    for k in range(1, _MAX_VARINT_BYTES):
        longer = values >> (7 * k) > 0
        if not longer.any():
            break
        nbytes += longer
    ends = np.cumsum(nbytes)
    shifts = 7 * (np.arange(ends[-1]) - np.repeat(ends - nbytes, nbytes))
    out = (np.repeat(values, nbytes) >> shifts & 0x7F).astype(np.uint8)
    out |= 0x80
    out[ends - 1] &= 0x7F  # the last byte of each varint has no continuation bit
    return out.tobytes()


def _rle_encode(bits: np.ndarray) -> bytes:
    """The payload bytes, before base64, of ``bits`` flattened in C order
    (a view of the contiguous ``GridSet.cells``, not a copy)."""
    bits = np.asarray(bits, dtype=bool).reshape(-1)
    if bits.size == 0:
        return b""
    # a first bit of 1 opens with an empty 0-run, keeping the alternation fixed
    parts = [b"\x00"] if bits[0] else []
    start = 0  # where the open run starts
    for i in range(1, bits.size, _RLE_CHUNK):
        j = min(i + _RLE_CHUNK, bits.size)
        new_runs = np.flatnonzero(bits[i:j] != bits[i - 1 : j - 1]) + i
        if new_runs.size:
            parts.append(_leb128(np.diff(new_runs, prepend=start)))
            start = int(new_runs[-1])
    parts.append(_leb128(np.array([bits.size - start])))
    return b"".join(parts)


def _varint_chunks(data: np.ndarray):
    """The LEB128 values in ``data`` (uint8, its last byte ending a varint),
    about _RLE_CHUNK bytes at a time, as nonempty uint64 arrays."""
    carry = data[:0]  # the bytes of a varint the last chunk cut
    for i in range(0, data.size, _RLE_CHUNK):
        chunk = np.concatenate([carry, data[i : i + _RLE_CHUNK]])
        ends = np.flatnonzero(chunk < 0x80) + 1
        nbytes = np.diff(ends, prepend=0)
        cut = int(ends[-1]) if ends.size else 0
        chunk, carry = chunk[:cut], chunk[cut:]
        if carry.size >= _MAX_VARINT_BYTES or np.any(nbytes > _MAX_VARINT_BYTES):
            raise SchemaError(
                f"RLE payload longer than (NK)^2 bits: a run takes more than "
                f"{_MAX_VARINT_BYTES} varint bytes"
            )
        if not cut:
            continue
        starts = ends - nbytes
        shifts = 7 * (np.arange(cut) - np.repeat(starts, nbytes))
        groups = (chunk & 0x7F).astype(np.uint64) << shifts.astype(np.uint64)
        yield np.add.reduceat(groups, starts)


def _rle_decode(data: bytes, n_bits: int) -> np.ndarray:
    """The n_bits flat bits of the payload bytes ``data`` (after base64)."""
    raw = np.frombuffer(data, dtype=np.uint8)
    if raw.size and raw[-1] & 0x80:
        raise SchemaError("truncated varint in RLE payload")
    # checked before allocating, so a file cannot ask for more bits than it
    # holds; runs are below 2^63, and split in 31-bit halves no sum wraps
    total = 0
    for runs in _varint_chunks(raw):
        total += (int(np.sum(runs >> 31)) << 31) + int(np.sum(runs & 0x7FFFFFFF))
    if total != n_bits:
        side = "longer" if total > n_bits else "shorter"
        raise SchemaError(f"RLE payload {side} than (NK)^2 bits")
    bits = np.empty(n_bits, dtype=bool)
    pos = 0  # where the chunk's first run starts
    parity = 0  # the value of the chunk's first run: runs alternate from a 0-run
    for runs in _varint_chunks(raw):
        runs = runs.astype(np.int64)
        ends = pos + np.cumsum(runs)
        values = (np.arange(runs.size) + parity) % 2 == 1
        # one window of at most _RLE_CHUNK output bits at a time, each run
        # clipped to the window
        for w0 in range(pos, int(ends[-1]), _RLE_CHUNK):
            w1 = min(w0 + _RLE_CHUNK, int(ends[-1]))
            i0, i1 = np.searchsorted(ends, [w0, w1], side="right")
            i1 = min(i1 + 1, runs.size)
            lens = np.minimum(ends[i0:i1], w1) - np.maximum(ends[i0:i1] - runs[i0:i1], w0)
            bits[w0:w1] = np.repeat(values[i0:i1], lens)
        pos = int(ends[-1])
        parity = (parity + runs.size) % 2
    return bits


def dumps_json(obj) -> str:
    """Canonical JSON used everywhere: sorted keys, fixed separators."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def save_gridset(path, A: GridSet) -> None:
    payload = base64.b64encode(_rle_encode(A.cells)).decode("ascii")
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
    if N < 1 or K < 1:
        raise SchemaError(f"gridset N and K must be >= 1, got {N} and {K}")
    if (N * K) ** 2 > MAX_GRIDSET_CELLS:
        raise SchemaError(
            f"gridset of (N*K)^2 = {(N * K) ** 2} cells exceeds MAX_GRIDSET_CELLS = "
            f"{MAX_GRIDSET_CELLS}"
        )
    try:
        data = base64.b64decode(doc["payload"], validate=True)
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
