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
import struct
from pathlib import Path

import numpy as np

from .model import NamedTensorMap

FORMAT_VERSION = 1


class CorruptCheckpointError(ValueError):
    """Checkpoint file is truncated or fails its checksum."""


class UnsupportedVersionError(ValueError):
    """Checkpoint was written with an unknown format version."""


def _checksum(payload: bytes) -> int:
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "little")


def save_checkpoint(params: NamedTensorMap, path, model_id: str = "") -> None:
    parts = [struct.pack("<I", FORMAT_VERSION)]
    ident = model_id.encode("utf-8")
    parts.append(struct.pack("<I", len(ident)) + ident)
    parts.append(struct.pack("<I", len(params)))
    for name in sorted(params):
        tensor = np.ascontiguousarray(params[name], dtype="<f8")
        encoded = name.encode("utf-8")
        parts.append(struct.pack("<I", len(encoded)) + encoded)
        parts.append(struct.pack("<I", tensor.ndim))
        parts.append(struct.pack(f"<{tensor.ndim}I", *tensor.shape))
        parts.append(tensor.tobytes())
    payload = b"".join(parts)
    Path(path).write_bytes(payload + struct.pack("<Q", _checksum(payload)))


def load_checkpoint_full(path) -> tuple[int, str, NamedTensorMap]:
    """Returns (version, model id, parameter map); verifies the checksum."""
    raw = Path(path).read_bytes()
    if len(raw) < 12:
        raise CorruptCheckpointError(f"{path}: file too short")
    payload, (stored,) = raw[:-8], struct.unpack("<Q", raw[-8:])
    if _checksum(payload) != stored:
        raise CorruptCheckpointError(f"{path}: checksum mismatch")
    try:
        return _decode(payload)
    except (struct.error, UnicodeDecodeError, ValueError) as exc:
        if isinstance(exc, (CorruptCheckpointError, UnsupportedVersionError)):
            raise
        raise CorruptCheckpointError(f"{path}: malformed payload ({exc})") from exc


def load_checkpoint(path) -> NamedTensorMap:
    return load_checkpoint_full(path)[2]


def _decode(payload: bytes) -> tuple[int, str, NamedTensorMap]:
    offset = 0

    def take(fmt: str):
        nonlocal offset
        out = struct.unpack_from(fmt, payload, offset)
        offset += struct.calcsize(fmt)
        return out

    def take_bytes(n: int) -> bytes:
        nonlocal offset
        if offset + n > len(payload):
            raise CorruptCheckpointError("payload ends early")
        out = payload[offset : offset + n]
        offset += n
        return out

    (version,) = take("<I")
    if version != FORMAT_VERSION:
        raise UnsupportedVersionError(f"unsupported checkpoint version {version}")
    (id_len,) = take("<I")
    model_id = take_bytes(id_len).decode("utf-8")
    (count,) = take("<I")
    params: NamedTensorMap = {}
    for _ in range(count):
        (name_len,) = take("<I")
        name = take_bytes(name_len).decode("utf-8")
        (rank,) = take("<I")
        dims = take(f"<{rank}I") if rank else ()
        size = int(np.prod(dims)) if dims else 1
        data = np.frombuffer(take_bytes(size * 8), dtype="<f8")
        params[name] = data.reshape(dims).astype(np.float64)
    if offset != len(payload):
        raise CorruptCheckpointError("trailing bytes after last tensor")
    return version, model_id, params
