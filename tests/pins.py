"""Pinned digests: the exact bytes that runs tier-1 already makes must not move.

``tests/reference.py`` shares the forward pass, the aggregators, the losses
and the data draw with the package, so a rounding change in any of them
moves both sides of a reference comparison alike.  These digests catch it:
``pinned_digests.json`` holds one for every run or dataset tier-1 builds
anyway, next to the numpy version and the BLAS (name, version and the
kernels it picked for this CPU) they were recorded with.  Bits depend on
that build, so where this environment differs the check skips and names both.

A digest is the first 16 hex digits of a SHA-256 over the files a user
gets.  A run's is two of them, ``"<artifacts> <results>"``: curves.csv then
each ``best_client_j.ckpt`` in client order, as ``orchestrator.emit_report``
writes them, and results.json.  config.echo is left out: its ``out_dir``
line differs with where a run is written, and results.json records the rest
of the config.  A dataset's is one, over the file ``data.save_client``
writes for each client, in order.

A change that means to move bits regenerates the file with the whole
tier-1 run (the file's own ``regenerate`` entry), and its diff is the record::

    PYTHONPATH=src python -m pytest -q --pin-digests

A session that selects tests (a file, ``-k`` or a node id) rewrites only the
keys it recorded; the whole suite writes exactly its own, so the key of a
deleted case goes.  To compare two trees in an environment other than the
pinned one, regenerate the file in both checkouts and diff the two::

    (cd parent && PYTHONPATH=src python -m pytest -q --pin-digests)
    (cd change && PYTHONPATH=src python -m pytest -q --pin-digests)
    diff parent/tests/pinned_digests.json change/tests/pinned_digests.json
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from fedfreq.data import save_client
from fedfreq.model import _openblas
from fedfreq.orchestrator import emit_report

PIN_FILE = Path(__file__).with_name("pinned_digests.json")
REGENERATE = "PYTHONPATH=src python -m pytest -q --pin-digests"
_CORENAME_CALLS = ("scipy_openblas_get_corename64_", "openblas_get_corename64_", "openblas_get_corename")


def _blas_kernels() -> str | None:
    """The kernel set numpy's bundled OpenBLAS picked for this CPU, e.g. ``Haswell``, or None."""
    lib = _openblas()
    for name in _CORENAME_CALLS:  # with no library every lookup gives None
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


def _digest(blobs) -> str:
    h = hashlib.sha256()
    for blob in blobs:
        h.update(blob)
    return h.hexdigest()[:16]


def run_digest(result) -> str:
    """``"<artifacts> <results>"`` over the files ``emit_report`` writes for the run."""
    with tempfile.TemporaryDirectory() as tmp:
        curves, _echo, *checkpoints, results = emit_report(result, tmp)
        return f"{_digest(p.read_bytes() for p in [curves, *checkpoints])} {_digest([results.read_bytes()])}"


def clients_digest(clients) -> str:
    """Over the file ``save_client`` writes for each client, in order."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp, f"client_{j}.fsd") for j in range(len(clients))]
        for client, path in zip(clients, paths):
            save_client(client, path)
        return _digest(path.read_bytes() for path in paths)


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
        pinned, here = json.loads(PIN_FILE.read_text()), environment()
        recorded_under = {key: pinned[key] for key in here}
        if recorded_under != here:
            pytest.skip(f"digests pinned under {recorded_under}; this environment is {here}")
        moved = {key: (pinned["digests"].get(key), got) for key, got in digests.items()}
        moved = {key: pair for key, pair in moved.items() if pair[0] != pair[1]}
        assert not moved, (
            f"bytes moved (key: (pinned, now)): {moved}; "
            f"a change that means to move them regenerates {PIN_FILE.name} with `{REGENERATE}`"
        )

    def write(self, whole_suite: bool) -> None:
        """Write the recorded digests; a session that selected tests keeps every pinned key it did not record."""
        kept = {} if whole_suite else json.loads(PIN_FILE.read_text())["digests"]
        digests = dict(sorted({**kept, **self.recorded}.items()))
        payload = {**environment(), "regenerate": REGENERATE, "digests": digests}
        PIN_FILE.write_text(json.dumps(payload, indent=1) + "\n")

