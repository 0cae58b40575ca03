"""Binary checkpoint files for named tensor maps.

Layout (all integers little-endian):

    uint32  format version (currently 1)
    uint32  model id length, then that many UTF-8 bytes
    uint32  tensor count
    per tensor, in lexicographic name order:
        uint32  name length, then that many UTF-8 bytes
        uint32  rank, then rank * uint32 dims
        float64[prod(dims)] values, little-endian
    uint64  checksum: first 8 bytes of SHA-256 over everything above

Round trips are bit-exact.  Loading verifies the checksum first, so any
truncation or flipped byte is rejected before the payload is trusted.
"""

from __future__ import annotations

import hashlib
import math
import struct
from pathlib import Path

import numpy as np

from .model import NamedTensorMap

FORMAT_VERSION = 1

_U32 = struct.Struct("<I")
_HEADER = struct.Struct("<II")  # format version, model id length
_CHECKSUM = struct.Struct("<Q")
# tensor dims by rank; the package's parameters have rank 1, 2 or 4
_DIMS = {rank: struct.Struct(f"<{rank}I") for rank in range(5)}


def _dims(rank: int) -> struct.Struct:
    """The struct of a rank-``rank`` tensor's dims, for the encoder and the decoder alike."""
    return _DIMS.get(rank) or struct.Struct(f"<{rank}I")


class CorruptCheckpointError(ValueError):
    """Checkpoint file is truncated or fails its checksum."""


class UnsupportedVersionError(ValueError):
    """Checkpoint was written with an unknown format version."""


def _checksum(payload: bytes) -> int:
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "little")


def save_checkpoint(params: NamedTensorMap, path, model_id: str = "") -> None:
    ident = model_id.encode("utf-8")
    parts = [_HEADER.pack(FORMAT_VERSION, len(ident)), ident, _U32.pack(len(params))]
    for name in sorted(params):
        tensor = np.ascontiguousarray(params[name], dtype="<f8")
        encoded = name.encode("utf-8")
        parts += [_U32.pack(len(encoded)), encoded, _U32.pack(tensor.ndim)]
        parts += [_dims(tensor.ndim).pack(*tensor.shape), tensor.tobytes()]
    payload = b"".join(parts)
    Path(path).write_bytes(payload + _CHECKSUM.pack(_checksum(payload)))


def load_checkpoint_full(path) -> tuple[int, str, NamedTensorMap]:
    """Returns (version, model id, parameter map); verifies the checksum."""
    raw = Path(path).read_bytes()
    if len(raw) < 12:
        raise CorruptCheckpointError(f"{path}: file too short")
    payload = memoryview(raw)[:-8]  # a view: the checksum and the decoder copy nothing
    (stored,) = _CHECKSUM.unpack_from(raw, len(payload))
    if _checksum(payload) != stored:
        raise CorruptCheckpointError(f"{path}: checksum mismatch")
    (version,) = _U32.unpack_from(payload)
    if version != FORMAT_VERSION:
        raise UnsupportedVersionError(f"{path}: unsupported checkpoint version {version}")
    try:
        return _decode(payload)
    except CorruptCheckpointError as exc:
        raise CorruptCheckpointError(f"{path}: {exc}") from None
    except (struct.error, UnicodeDecodeError, ValueError) as exc:
        raise CorruptCheckpointError(f"{path}: malformed payload ({exc})") from exc


def load_checkpoint(path) -> NamedTensorMap:
    return load_checkpoint_full(path)[2]


def _read(fields: struct.Struct, payload: memoryview, offset: int) -> tuple[tuple, int]:
    """The values of ``fields`` at ``offset`` and the offset after them."""
    end = offset + fields.size
    if end > len(payload):
        raise CorruptCheckpointError("payload ends early")
    return fields.unpack_from(payload, offset), end


def _take(payload: memoryview, offset: int, n: int) -> tuple[memoryview, int]:
    """The ``n`` bytes at ``offset``, as a view, and the offset after them."""
    end = offset + n
    if end > len(payload):
        raise CorruptCheckpointError("payload ends early")
    return payload[offset:end], end


def _decode(payload: memoryview) -> tuple[int, str, NamedTensorMap]:
    (version, id_len), offset = _read(_HEADER, payload, 0)  # version checked by the caller
    model_id, offset = _take(payload, offset, id_len)
    (count,), offset = _read(_U32, payload, offset)
    params: NamedTensorMap = {}
    for _ in range(count):
        (name_len,), offset = _read(_U32, payload, offset)
        name, offset = _take(payload, offset, name_len)
        (rank,), offset = _read(_U32, payload, offset)
        dims, offset = _read(_dims(rank), payload, offset)
        values, offset = _take(payload, offset, 8 * math.prod(dims))
        params[str(name, "utf-8")] = np.frombuffer(values, dtype="<f8").reshape(dims).astype(np.float64)
    if offset != len(payload):
        raise CorruptCheckpointError("trailing bytes after last tensor")
    return version, str(model_id, "utf-8"), params
