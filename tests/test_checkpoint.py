import hashlib
import struct
import tracemalloc

import numpy as np
import pytest

from fedfreq.checkpoint import (
    CorruptCheckpointError,
    UnsupportedVersionError,
    load_checkpoint_full,
    save_checkpoint,
)


def sample_params(seed=0):
    rng = np.random.default_rng(seed)
    return {
        "conv1.weight": rng.standard_normal((2, 1, 3, 3)),
        "dense1.weight": rng.standard_normal((9, 4)),
        "dense1.bias": rng.standard_normal(4),
    }


def test_roundtrip_bit_exact(tmp_path):
    params = sample_params()
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, path, model_id="mlp32")
    version, model_id, loaded = load_checkpoint_full(path)
    assert version == 1
    assert model_id == "mlp32"
    assert sorted(loaded) == sorted(params)
    for k in params:
        assert loaded[k].shape == params[k].shape
        assert np.array_equal(loaded[k], params[k])
        assert loaded[k].tobytes() == params[k].tobytes()


def test_truncated_file_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(sample_params(), path)
    raw = path.read_bytes()
    for cut in (len(raw) - 1, len(raw) // 2, 5):
        path.write_bytes(raw[:cut])
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint_full(path)


def test_flipped_byte_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(sample_params(), path)
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 3] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(CorruptCheckpointError):
        load_checkpoint_full(path)


def test_unsupported_version_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(sample_params(), path)
    raw = bytearray(path.read_bytes())
    raw[0:4] = struct.pack("<I", 2)
    # recompute the trailing checksum so only the version is wrong
    payload = bytes(raw[:-8])
    digest = int.from_bytes(hashlib.sha256(payload).digest()[:8], "little")
    raw[-8:] = struct.pack("<Q", digest)
    path.write_bytes(bytes(raw))
    with pytest.raises(UnsupportedVersionError):
        load_checkpoint_full(path)


def test_empty_model_id_and_map(tmp_path):
    path = tmp_path / "empty.ckpt"
    save_checkpoint({}, path)
    version, model_id, loaded = load_checkpoint_full(path)
    assert (version, model_id, loaded) == (1, "", {})


def test_tensor_order_is_name_sorted(tmp_path):
    params = {"b": np.ones(2), "a": np.zeros(3)}
    path = tmp_path / "ordered.ckpt"
    save_checkpoint(params, path)
    raw = path.read_bytes()
    assert raw.find(b"a") < raw.find(b"b")


def _with_checksum(payload: bytes) -> bytes:
    return payload + struct.pack("<Q", int.from_bytes(hashlib.sha256(payload).digest()[:8], "little"))


def test_malformed_payloads_with_a_valid_checksum_are_corrupt(tmp_path):
    # every payload below carries a correct checksum, so the decoder itself
    # must catch it; a claimed size must be refused before it is allocated
    path = tmp_path / "model.ckpt"
    save_checkpoint(sample_params(), path, model_id="mlp32")
    payload = path.read_bytes()[:-8]
    first = 4 + 4 + len(b"mlp32") + 4  # the first tensor's name length field
    name_len = struct.unpack_from("<I", payload, first)[0]
    rank_at = first + 4 + name_len
    bad = [payload[:cut] for cut in range(len(payload))]
    bad.append(payload + b"\0")  # one trailing byte
    bad.append(payload[:rank_at] + struct.pack("<I", 2**31) + payload[rank_at + 4 :])  # rank
    bad.append(payload[:first] + struct.pack("<I", len(payload)) + payload[first + 4 :])  # name
    # the second dim of the first tensor claims 2**32 - 1 entries
    bad.append(payload[: rank_at + 8] + struct.pack("<I", 2**32 - 1) + payload[rank_at + 12 :])
    tracemalloc.start()
    try:
        for blob in bad:
            path.write_bytes(_with_checksum(blob))
            with pytest.raises(CorruptCheckpointError) as info:
                load_checkpoint_full(path)
            assert str(path) in str(info.value)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_loaded_tensors_are_writable_float64_and_share_no_memory(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(sample_params(), path)
    tensors = list(load_checkpoint_full(path)[2].values())
    for i, t in enumerate(tensors):
        assert t.dtype == np.float64 and t.flags.writeable
        assert not any(np.shares_memory(t, other) for other in tensors[i + 1 :])


def test_saved_bytes_follow_the_documented_layout(tmp_path):
    rng = np.random.default_rng(3)
    params = {"b": rng.standard_normal(3), "w": rng.standard_normal((2, 3)), "k": rng.standard_normal((2, 1, 3, 2))}
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, path, model_id="modèle-Δ")
    ident = "modèle-Δ".encode("utf-8")
    expected = (1).to_bytes(4, "little") + len(ident).to_bytes(4, "little") + ident + (3).to_bytes(4, "little")
    for name in ("b", "k", "w"):  # lexicographic order
        t = params[name]
        expected += len(name).to_bytes(4, "little") + name.encode() + t.ndim.to_bytes(4, "little")
        expected += b"".join(n.to_bytes(4, "little") for n in t.shape)
        expected += b"".join(struct.pack("<d", v) for v in t.ravel())
    expected += hashlib.sha256(expected).digest()[:8]
    assert path.read_bytes() == expected
