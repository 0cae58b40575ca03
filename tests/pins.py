"""Pinned digests: the exact bytes that runs tier-1 already makes must not move.

``tests/reference.py`` shares the forward pass, the aggregators, the losses
and the data draw with the package, so a rounding change in any of them
moves both sides of a reference comparison alike.  These digests catch it:
``pinned_digests.json`` holds, for every run or dataset tier-1 builds anyway,
the first 16 hex digits of a SHA-256 over its bytes, next to the numpy
version and the BLAS (name, version and the kernels it picked for this CPU)
they were recorded with.  Bits depend on that build, so where this
environment differs the check skips and names both; ``python tests/pins.py``
exits 0 only where they match.

A change that means to move bits regenerates the file with the whole
tier-1 run (the file's own ``regenerate`` entry), and its diff is the record::

    PYTHONPATH=src python -m pytest -q --pin-digests
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

PIN_FILE = Path(__file__).with_name("pinned_digests.json")
REGENERATE = "PYTHONPATH=src python -m pytest -q --pin-digests"
_CORENAME_CALLS = ("scipy_openblas_get_corename64_", "openblas_get_corename64_", "openblas_get_corename")


def _blas_kernels() -> str | None:
    """The kernel set numpy's bundled OpenBLAS picked for this CPU, e.g. ``Haswell``, or None."""
    package = Path(np.__file__).parent
    for path in sorted([*package.parent.glob("numpy.libs/*openblas*"), *package.glob(".dylibs/*openblas*")]):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for name in _CORENAME_CALLS:
            call = getattr(lib, name, None)
            if call is not None:
                call.argtypes, call.restype = [], ctypes.c_char_p
                return call().decode()
    return None


def environment() -> dict[str, str]:
    """The numpy version and the BLAS that the digests depend on."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy before 1.26 takes no mode argument
        name = "unknown"
    kernels = _blas_kernels()
    return {"numpy": np.__version__, "blas": name if kernels is None else f"{name} ({kernels} kernels)"}


def environments() -> tuple[dict[str, str], dict[str, str]]:
    """The environment the pinned digests were recorded in, and this one."""
    here = environment()
    pinned = json.loads(PIN_FILE.read_text())
    return {key: pinned[key] for key in here}, here


def _digest(blobs) -> str:
    h = hashlib.sha256()
    for blob in blobs:
        h.update(blob)
    return h.hexdigest()[:16]


def run_digest(result) -> str:
    """A run's log rows, best models and outcomes; repr tells every float bit apart."""

    def blobs():
        for row in result.rows:  # vars, not dataclasses.astuple, which deep-copies every field
            yield repr(tuple(vars(row).values())).encode()
        for client, params in sorted(result.best_params.items()):
            for name, value in sorted(params.items()):
                yield f"{client} {name} {value.dtype} {value.shape}".encode()
                yield value.tobytes()
        for outcome in result.clients:
            yield repr(tuple(vars(outcome).values())).encode()

    return _digest(blobs())


def clients_digest(clients) -> str:
    """Every client's features, labels and split sizes, in order."""
    return _digest(
        blob
        for c in clients
        for blob in (c.features.tobytes(), c.labels.tobytes(), repr(tuple(c.splits)).encode())
    )


class Pins:
    """Checks digests against ``PIN_FILE``, or, under ``--pin-digests``, records them."""

    def __init__(self, regenerate: bool) -> None:
        self.regenerate = regenerate
        self.recorded: dict[str, str] = {}

    def check(self, digests: dict[str, str]) -> None:
        """Assert each digest equals its pinned value; skip where the environment differs.

        A key with no pinned value fails (a new case needs a regenerated file);
        a pinned key not given here is left alone, so a ``-k`` selection works.
        """
        if self.regenerate:
            self.recorded.update(digests)
            return
        recorded_under, here = environments()
        if recorded_under != here:
            pytest.skip(f"digests pinned under {recorded_under}; this environment is {here}")
        pinned = json.loads(PIN_FILE.read_text())["digests"]
        moved = {key: (pinned.get(key), got) for key, got in digests.items()}
        moved = {key: pair for key, pair in moved.items() if pair[0] != pair[1]}
        assert not moved, (
            f"bytes moved (key: (pinned, now)): {moved}; "
            f"a change that means to move them regenerates {PIN_FILE.name} with `{REGENERATE}`"
        )

    def write(self) -> None:
        payload = {**environment(), "regenerate": REGENERATE, "digests": dict(sorted(self.recorded.items()))}
        PIN_FILE.write_text(json.dumps(payload, indent=1) + "\n")


if __name__ == "__main__":  # exit 0 where this is the environment the digests were recorded in
    recorded_under, here = environments()
    print(f"digests pinned under {recorded_under}; this environment is {here}")
    sys.exit(recorded_under != here)
