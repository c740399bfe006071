"""On-disk formats.

Signals use the flat binary layout ``CSK1``: magic, u32 length (little
endian), u8 scalar kind (0 = real f64, 1 = complex f64 pairs), then the
little-endian payload.  Dense matrices use ``CSKM``: magic, u32 m, u32 N,
then row-major complex f64 pairs.  Small fixtures may round-trip through
JSON arrays (reals as numbers, complex entries as [re, im] pairs).
Operator descriptors serialize to plain dicts for experiment configs.
"""

from __future__ import annotations

import json
import struct
import sys
from pathlib import Path

import numpy as np

from .operators import (
    DenseOperator,
    GaussianOperator,
    IdentityOperator,
    PartialFourierOperator,
    SamplingOperator,
)

SIGNAL_MAGIC = b"CSK1"
MATRIX_MAGIC = b"CSKM"
# CSK1 scalar kinds: code -> (name, is complex, little-endian payload dtype, dtype read back)
_KINDS = {0: ("real", False, "<f8", np.float64), 1: ("complex", True, "<c16", np.complex128)}


def write_signal(path, x) -> None:
    x = np.asarray(x)
    if x.ndim != 1:
        raise ValueError("signals are 1-D")
    kind = next(code for code, entry in _KINDS.items() if entry[1] == np.iscomplexobj(x))
    with open(path, "wb") as fh:
        fh.write(SIGNAL_MAGIC)
        fh.write(struct.pack("<I", x.size))
        fh.write(struct.pack("<B", kind))
        # a little-endian complex128 is its (re, im) pair of little-endian f8
        fh.write(x.astype(_KINDS[kind][2]).tobytes())


def read_signal(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if raw[:4] != SIGNAL_MAGIC:
        raise ValueError(f"bad signal magic {raw[:4]!r}")
    (n,) = struct.unpack("<I", raw[4:8])
    (kind,) = struct.unpack("<B", raw[8:9])
    if kind not in _KINDS:
        raise ValueError(f"unknown scalar kind {kind}")
    name, _, payload_dtype, dtype = _KINDS[kind]
    payload = raw[9:]
    if len(payload) != np.dtype(payload_dtype).itemsize * n:
        raise ValueError(f"truncated {name} signal payload")
    return np.frombuffer(payload, dtype=payload_dtype).astype(dtype)


def write_matrix(path, matrix) -> None:
    mat = np.asarray(matrix)
    if mat.ndim != 2:
        raise ValueError("matrices are 2-D")
    m, n = mat.shape
    with open(path, "wb") as fh:
        fh.write(MATRIX_MAGIC)
        fh.write(struct.pack("<II", m, n))
        fh.write(mat.astype("<c16").tobytes())


def read_matrix(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if raw[:4] != MATRIX_MAGIC:
        raise ValueError(f"bad matrix magic {raw[:4]!r}")
    m, n = struct.unpack("<II", raw[4:12])
    payload = raw[12:]
    if len(payload) != 16 * m * n:
        raise ValueError("truncated matrix payload")
    mat = np.frombuffer(payload, dtype="<c16").reshape(m, n)
    if not mat.imag.any():
        return mat.real.astype(np.float64)
    return mat.astype(np.complex128)


def signal_to_json(x) -> list:
    x = np.asarray(x)
    if np.iscomplexobj(x):
        return [[float(v.real), float(v.imag)] for v in x]
    return [float(v) for v in x]


def signal_from_json(data) -> np.ndarray:
    if data and isinstance(data[0], (list, tuple)):
        return np.array([complex(re, im) for re, im in data], dtype=np.complex128)
    return np.array(data, dtype=np.float64)


def operator_descriptor(op: SamplingOperator) -> dict:
    """JSON-safe descriptor; dense matrices are inlined (small fixtures only)."""
    if isinstance(op, IdentityOperator):
        return {"kind": "identity", "n": op.n}
    if isinstance(op, GaussianOperator):
        return {"kind": "gaussian", "m": op.m, "n": op.n, "seed": op.seed}
    if isinstance(op, PartialFourierOperator):
        desc = {"kind": "partial_fourier", "m": op.m, "n": op.n}
        if op.seed is not None:
            desc["seed"] = op.seed
        else:
            desc["rows"] = [int(r) for r in op.rows]
        return desc
    if isinstance(op, DenseOperator):
        return {
            "kind": "dense",
            "m": op.m,
            "n": op.n,
            "matrix": [signal_to_json(row) for row in op.matrix],
        }
    raise TypeError(f"cannot describe operator {type(op).__name__}")


def json_int(value) -> int:
    """``int(value)``, exact at any size, for a JSON count or seed; a bool, a string or a
    fraction is an error."""
    if isinstance(value, (bool, str)) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def json_number(value) -> float:
    """``float(value)`` for a finite JSON real; a bool or a string is an error."""
    if isinstance(value, (bool, str)) or not -sys.float_info.max <= value <= sys.float_info.max:
        raise ValueError(f"expected a finite number, got {value!r}")
    return float(value)


def operator_from_descriptor(desc: dict) -> SamplingOperator:
    kind = desc.get("kind")
    if kind == "identity":
        return IdentityOperator(json_int(desc["n"]))
    if kind == "gaussian":
        return GaussianOperator(json_int(desc["m"]), json_int(desc["n"]), json_int(desc["seed"]))
    if kind == "partial_fourier":
        rows = desc.get("rows")
        seed = desc.get("seed")
        return PartialFourierOperator(
            json_int(desc["m"]),
            json_int(desc["n"]),
            seed=None if seed is None else json_int(seed),
            rows=None if rows is None else np.array([json_int(r) for r in rows], dtype=np.int64),
        )
    if kind == "dense":
        if "path" in desc:
            return DenseOperator(read_matrix(desc["path"]))
        rows = [signal_from_json(row) for row in desc["matrix"]]
        return DenseOperator(np.vstack(rows))
    raise ValueError(f"unknown operator kind {kind!r}")


def dump_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=False)
        fh.write("\n")
