"""Print byte-identity digests of the run artifacts for the acceptance configs.

Runs ``fedfreq run`` (through ``fedfreq.cli.main``) for every strategy on
mlp32 at two settings, E=5/T=100 and E=1/T=20, plus FEDPROX and PFA_DET on
conv4x8 at E=1/T=20, all with seed 7 and ``data_scale = 0.1``.  It prints one
line per run: the first 16 hex digits of SHA-256 over ``curves.csv``
followed by ``best_client_0..3.ckpt``, then the same for ``results.json``.
A last line digests the five dataset files that ``fedfreq synth-data
--scale 0.1 --seed 7 --ood`` writes, ``client_0..3.fsd`` then ``ood.fsd``.
A refactor that keeps behaviour prints the same lines.

Usage, comparing two checkouts::

    PYTHONPATH=src python tools/artifact_digest.py > after.txt
    PYTHONPATH=../parent/src python tools/artifact_digest.py > before.txt
    diff before.txt after.txt

Each command writes into a scratch directory that is deleted afterwards.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from fedfreq import cli, orchestrator

STRATEGIES = tuple(orchestrator.STRATEGIES)
# (strategy, model_id, local_epochs, total_epochs); the conv runs cover the
# conv layers' training path, which the mlp32 runs never reach
RUNS = (
    *((s, "mlp32", 5, 100) for s in STRATEGIES),
    *((s, "mlp32", 1, 20) for s in STRATEGIES),
    ("FEDPROX", "conv4x8", 1, 20),
    ("PFA_DET", "conv4x8", 1, 20),
)
SEED = 7
DATA_SCALE = 0.1
CLIENTS = 4


def _silent_main(argv: list[str], what: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"{what}: exit code {rc}")


def _digest(blobs: list[bytes]) -> str:
    h = hashlib.sha256()
    for blob in blobs:
        h.update(blob)
    return h.hexdigest()[:16]


def run_digests(strategy: str, model_id: str, local_epochs: int, total_epochs: int) -> tuple[str, str]:
    """Run one config; return the (artifacts, results.json) digests."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp, "run.cfg"), Path(tmp, "out")
        cfg.write_text(
            f"strategy = {strategy}\nmodel_id = {model_id}\nnum_clients = {CLIENTS}\n"
            f"local_epochs = {local_epochs}\ntotal_epochs = {total_epochs}\n"
            f"data_scale = {DATA_SCALE}\nseed = {SEED}\n"
        )
        what = f"{strategy} {model_id} E={local_epochs} T={total_epochs}"
        _silent_main(["run", "--config", str(cfg), "--out-dir", str(out)], what)
        names = ["curves.csv", *(f"best_client_{i}.ckpt" for i in range(CLIENTS))]
        results = (out / "results.json").read_bytes()
        return _digest([(out / n).read_bytes() for n in names]), _digest([results])


def dataset_digest() -> str:
    """Write the scale-0.1 dataset files with ``synth-data``; return their digest."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["synth-data", "--scale", str(DATA_SCALE), "--seed", str(SEED), "--out-dir", tmp, "--ood"]
        _silent_main(argv, "synth-data")
        names = [*(f"client_{i}.fsd" for i in range(CLIENTS)), "ood.fsd"]
        return _digest([Path(tmp, n).read_bytes() for n in names])


def main() -> int:
    for strategy, model_id, local_epochs, total_epochs in RUNS:
        artifacts, results = run_digests(strategy, model_id, local_epochs, total_epochs)
        print(f"{strategy:<10} {model_id:<7} E={local_epochs} T={total_epochs:<3} {artifacts} {results}")
    print(f"synth-data scale={DATA_SCALE} seed={SEED} --ood {dataset_digest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
