"""The gridset payload codec against the scalar codec it replaced.

``scalar_encode`` and ``scalar_decode`` walk the runs one at a time in
Python, with unbounded integers; the vectorized codec in ``udsets.gridio``
must give the same bytes and the same bits, in any chunk size.
"""

import base64
import json

import numpy as np
import pytest

from udsets import gridio
from udsets.cli import main
from udsets.errors import SchemaError
from udsets.gridio import load_gridset, save_gridset
from udsets.torus import GridSet, random_gridset


def scalar_leb128(n):
    out = bytearray()
    while True:
        byte = n & 0x7F
        n >>= 7
        if n:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def scalar_encode(bits):
    bits = np.asarray(bits, dtype=np.uint8)
    out = bytearray()
    if bits.size == 0:
        return bytes(out)
    boundaries = np.flatnonzero(np.diff(bits)) + 1
    starts = np.concatenate([[0], boundaries])
    ends = np.concatenate([boundaries, [bits.size]])
    if bits[0] == 1:
        out += scalar_leb128(0)
    for a, b in zip(starts, ends):
        out += scalar_leb128(int(b - a))
    return bytes(out)


def scalar_decode(data, n_bits):
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


def _runs(*lengths, first=False):
    """Bits made of runs of the given lengths, alternating from ``first``."""
    return np.repeat((np.arange(len(lengths)) + first) % 2 == 1, lengths)


rng = np.random.default_rng(18)
BIT_ARRAYS = {
    "random p=0.5": rng.random(5000) < 0.5,
    "random p=0.02": rng.random(5000) < 0.02,
    "random p=0.98": rng.random(5000) < 0.98,
    "all zero": np.zeros(4096, dtype=bool),
    "all one": np.ones(4096, dtype=bool),
    "leading 1": _runs(1, 2, 1, first=True),
    "single cell 0": np.zeros(1, dtype=bool),
    "single cell 1": np.ones(1, dtype=bool),
    "runs of 2^7": _runs(2**7, 2**7, 2**7 - 1, 2**7 + 1),
    "runs of 2^14": _runs(2**14, 2**14 - 1, 2**14 + 1, 3, first=True),
    "runs of 2^21": _runs(5, 2**21, 2**21 - 1, 2**21 + 1),
}


@pytest.mark.parametrize(
    "name, chunk",
    [(name, chunk) for name in sorted(BIT_ARRAYS) for chunk in (None, 1, 7, 64)
     if chunk is None or name != "runs of 2^21"],  # 6 M one-bit windows are only slow
)
def test_codec_matches_the_scalar_codec(monkeypatch, name, chunk):
    if chunk is not None:
        monkeypatch.setattr(gridio, "_RLE_CHUNK", chunk)
    bits = BIT_ARRAYS[name]
    data = gridio._rle_encode(bits)
    assert data == scalar_encode(bits)
    decoded = gridio._rle_decode(data, bits.size)
    assert decoded.dtype == bool and np.array_equal(decoded, bits)
    assert np.array_equal(scalar_decode(data, bits.size), bits)


@pytest.mark.parametrize("offset", [-2, -1, 0, 1, 2])
def test_runs_across_chunk_boundaries(monkeypatch, offset):
    monkeypatch.setattr(gridio, "_RLE_CHUNK", 16)
    bits = np.zeros(100, dtype=bool)
    bits[16 + offset : 33 + offset] = True  # a run over the boundaries 16 and 32
    bits[48 + offset] = True  # one of a single bit at the boundary 48
    bits[-1] = True
    data = gridio._rle_encode(bits)
    assert data == scalar_encode(bits)
    assert np.array_equal(gridio._rle_decode(data, bits.size), bits)


def test_varints_across_chunk_boundaries(monkeypatch):
    # two-byte varints at every phase of a 3-byte decoder chunk
    monkeypatch.setattr(gridio, "_RLE_CHUNK", 3)
    bits = _runs(300, 1, 200, 129, 2, 1000, 128)
    data = gridio._rle_encode(bits)
    assert data == scalar_encode(bits)
    assert np.array_equal(gridio._rle_decode(data, bits.size), bits)


def test_save_gridset_writes_the_scalar_payload(tmp_path):
    A = random_gridset(7, 9, p=0.3, seed=5)
    path = tmp_path / "set.json"
    save_gridset(path, A)
    payload = json.loads(path.read_text())["payload"]
    assert payload == base64.b64encode(scalar_encode(A.to_flat())).decode("ascii")
    assert np.array_equal(load_gridset(path).cells, A.cells)


@pytest.mark.parametrize(
    "data, n_bits, message",
    [
        (b"\x80", 4, "truncated varint"),
        (b"\x02\x82", 4, "truncated varint"),
        (b"\x81" * 9 + b"\x01", 4, "longer than"),  # a varint of 10 bytes
        (b"\x80" * 20 + b"\x00", 4, "longer than"),  # 21 bytes, zero groups
        (b"\xff" * 8 + b"\x7f", 4, "longer than"),  # one run of 2^63 - 1 bits
        (b"\x05", 4, "longer than"),
        (b"\x03", 4, "shorter than"),
        (b"", 4, "shorter than"),
    ],
)
def test_decoder_errors(data, n_bits, message):
    with pytest.raises(SchemaError, match=message):
        gridio._rle_decode(data, n_bits)


@pytest.mark.parametrize("chunk", [None, 1])
def test_run_totals_do_not_wrap(monkeypatch, chunk):
    # two runs of 2^63 - 1 and one of 6 total 2^64 + 4: 4 modulo 2^64
    if chunk is not None:
        monkeypatch.setattr(gridio, "_RLE_CHUNK", chunk)
    big = b"\xff" * 8 + b"\x7f"
    data = big + big + b"\x06"
    with pytest.raises(SchemaError, match="longer than"):
        gridio._rle_decode(data, 4)
    with pytest.raises(SchemaError, match="shorter than"):
        gridio._rle_decode(data, 2**64 + 5)
    with pytest.raises(SchemaError, match="longer than"):
        scalar_decode(data, 4)


def test_empty_payload_of_no_bits():
    assert gridio._rle_encode(np.zeros(0, dtype=bool)) == b""
    assert gridio._rle_decode(b"", 0).size == 0


def test_save_gridset_reads_the_cells_without_a_copy(monkeypatch, tmp_path):
    A = GridSet.from_flat(_runs(3, 5, 8, first=True), 4, 1)

    def no_copy(self):
        raise AssertionError("to_flat copies the cells")

    monkeypatch.setattr(GridSet, "to_flat", no_copy)
    save_gridset(tmp_path / "set.json", A)
    assert np.array_equal(load_gridset(tmp_path / "set.json").cells, A.cells)


def _gridset_file(path, N, K, runs):
    payload = base64.b64encode(b"".join(scalar_leb128(r) for r in runs)).decode("ascii")
    path.write_text(json.dumps({"schema_version": 1, "kind": "gridset", "K": K, "N": N,
                                "encoding": "rle0-leb128-base64", "payload": payload}))
    return path


def test_load_gridset_refuses_more_cells_than_the_ceiling(monkeypatch, tmp_path):
    def no_decode(*args):
        raise AssertionError("payload decoded")

    monkeypatch.setattr(gridio, "_rle_decode", no_decode)
    # 16 payload bytes whose two runs add up to the 1e16 cells declared
    huge = _gridset_file(tmp_path / "huge.json", 10**4, 10**4, [5 * 10**15] * 2)
    with pytest.raises(SchemaError, match="exceeds MAX_GRIDSET_CELLS"):
        load_gridset(huge)
    side = 2**15  # (N K)^2 = MAX_GRIDSET_CELLS exactly: admitted
    assert side**2 == gridio.MAX_GRIDSET_CELLS
    for N, K, admitted in ((side, 1, True), (1, side + 1, False), (2**8, 2**7, True)):
        path = _gridset_file(tmp_path / "set.json", N, K, [(N * K) ** 2])
        if admitted:
            with pytest.raises(AssertionError, match="payload decoded"):
                load_gridset(path)
        else:
            with pytest.raises(SchemaError, match="exceeds MAX_GRIDSET_CELLS"):
                load_gridset(path)


@pytest.mark.parametrize("field, value", [("K", -4), ("N", -16), ("K", 0), ("N", 0)])
def test_load_gridset_refuses_a_side_below_one(tmp_path, field, value):
    # with N or K negated the file still declares (N K)^2 cells, which its
    # payload holds; the set once reached numpy's reshape, and paircorr
    # exited 1 with a ValueError where every other malformed input exits 4
    assert main(["construct", "hexdisk", "--n", "16", "--k", "4", "--out", str(tmp_path / "c")]) == 0
    doc = json.loads((tmp_path / "c" / "hexdisk_N16_K4.gridset.json").read_text())
    doc[field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="must be >= 1"):
        load_gridset(bad)
    out = tmp_path / "out"
    assert main(["paircorr", "--set", str(bad), "--out", str(out)]) == 4
    assert not out.exists()
