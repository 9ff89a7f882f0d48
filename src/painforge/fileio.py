"""Every file painforge writes: tensors, JSON-lines files and JSON artifacts.

Tensor file layout (all little-endian):
  bytes 0-3   magic "P3DT"
  byte  4     format version (1)
  byte  5     dtype code: 1 = float32, 2 = float64, 3 = uint8
  byte  6     rank
  byte  7     reserved (0)
  next        rank u32 dimensions
  rest        row-major payload
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np

from .errors import DataError

MAGIC = b"P3DT"
VERSION = 1

_DTYPE_CODES = {1: np.dtype("<f4"), 2: np.dtype("<f8"), 3: np.dtype("u1")}
_CODES_BY_KIND = {np.dtype(np.float32): 1, np.dtype(np.float64): 2, np.dtype(np.uint8): 3}


def save_tensor(path, array: np.ndarray) -> None:
    array = np.ascontiguousarray(array)
    code = _CODES_BY_KIND.get(array.dtype)
    if code is None:
        raise DataError(f"unsupported dtype {array.dtype} for tensor file")
    header = MAGIC + struct.pack("<BBBB", VERSION, code, array.ndim, 0)
    dims = struct.pack(f"<{array.ndim}I", *array.shape)
    payload = array.astype(_DTYPE_CODES[code], copy=False).tobytes(order="C")
    Path(path).write_bytes(header + dims + payload)


def load_tensor(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if len(raw) < 8 or raw[:4] != MAGIC:
        raise DataError(f"{path}: not a tensor file")
    version, code, rank, _ = struct.unpack("<BBBB", raw[4:8])
    if version != VERSION:
        raise DataError(f"{path}: unsupported tensor file version {version}")
    if code not in _DTYPE_CODES:
        raise DataError(f"{path}: unknown dtype code {code}")
    header_end = 8 + 4 * rank
    if len(raw) < header_end:
        raise DataError(f"{path}: header of {len(raw)} bytes is too short for "
                        f"rank {rank}")
    dims = struct.unpack(f"<{rank}I", raw[8:header_end])
    dtype = _DTYPE_CODES[code]
    payload = raw[header_end:]
    if len(payload) != math.prod(dims) * dtype.itemsize:
        raise DataError(f"{path}: payload of {len(payload)} bytes does not match "
                        f"dims {dims} of {dtype}")
    return np.frombuffer(payload, dtype=dtype).reshape(dims).copy()


def dump_json_line(record: dict) -> str:
    """Canonical single-line JSON: sorted keys, no whitespace padding."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def write_json(path, obj) -> None:
    """Pretty JSON artifact: sorted keys, one-space indent, trailing newline."""
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=1) + "\n")


def write_manifest(path, rows: list[dict]) -> None:
    text = "".join(dump_json_line(row) + "\n" for row in rows)
    Path(path).write_text(text)


def append_json_line(path, record: dict) -> None:
    with Path(path).open("a", encoding="utf-8") as fh:
        fh.write(dump_json_line(record) + "\n")


def read_manifest(path) -> list[dict]:
    path = Path(path)
    if not path.exists():
        raise DataError(f"manifest not found: {path}")
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from exc
    rows = []
    for n, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: bad JSON on line {n}") from exc
        if not isinstance(row, dict):
            raise DataError(f"{path}: line {n} is not a JSON object")
        rows.append(row)
    if not rows:
        raise DataError(f"manifest is empty: {path}")
    return rows


def file_sha256(path) -> str:
    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    return h.hexdigest()
