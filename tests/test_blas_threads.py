"""Importing fedfreq sets numpy's bundled OpenBLAS to one thread, so no bit depends on the
thread count the caller's environment asks for.

The bit test computes at full size, where OpenBLAS would hand part of a product
to a second thread: scale-1.0 data, scoring of client 1's 3,868 rows, and a run
at ``data_scale = 0.3``.  It runs them in two fresh interpreters, one with
``OPENBLAS_NUM_THREADS=1`` and one with ``2``.  It claims nothing about
OpenBLAS itself on two threads: with some kernel sets (``OPENBLAS_CORETYPE=Haswell``)
its two-thread split of these products rounds differently from one thread.
Both tests skip where no bundled OpenBLAS is found.
"""

import dataclasses
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fedfreq
from fedfreq import model
from fedfreq.data import default_profiles, synth
from fedfreq.model import MODEL_SPECS, init_params, predict_probs, stack_params
from fedfreq.orchestrator import ExperimentConfig, run_experiment

pytestmark = pytest.mark.skipif(not model._set_blas_threads(1), reason="no bundled OpenBLAS found")


def test_importing_fedfreq_sets_the_bundled_openblas_to_one_thread():
    # a fresh interpreter, with no thread variable that would give one thread anyway
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = str(Path(fedfreq.__file__).parent.parent)
    code = "import fedfreq; from fedfreq import model; print(model._blas_thread_calls()[1]())"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "1"


def _full_size_bytes() -> list[bytes]:
    out = []
    clients = synth(default_profiles(1.0), 5).clients
    for c in clients:
        out += [c.features.tobytes(), c.labels.tobytes()]
    x = clients[1].features  # 3,868 rows
    for spec in MODEL_SPECS.values():
        maps = [init_params(spec, seed) for seed in range(4)]
        out.append(predict_probs(maps[0], spec, x).tobytes())
        out.append(predict_probs(stack_params(maps), spec, np.stack([x] * 4)).tobytes())
    cfg = ExperimentConfig(strategy="LOCAL_ONLY", local_epochs=5, total_epochs=5, data_scale=0.3, seed=5)
    result = run_experiment(cfg)
    out.append(repr([dataclasses.astuple(row) for row in result.rows]).encode())
    for j in sorted(result.best_params):
        out += [v.tobytes() for _, v in sorted(result.best_params[j].items())]
    return out


def _digest(blobs: list[bytes]) -> str:
    h = hashlib.sha256()
    for blob in blobs:
        h.update(len(blob).to_bytes(8, "little") + blob)
    return h.hexdigest()[:16]


def test_full_size_products_give_the_same_bits_whatever_thread_count_the_environment_asks_for():
    env = {k: v for k, v in os.environ.items() if k != "OMP_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join([str(Path(fedfreq.__file__).parent.parent), str(Path(__file__).parent)])
    command = [sys.executable, "-c", "import test_blas_threads as t; print(t._digest(t._full_size_bytes()))"]
    runs = [  # both at once: each interpreter computes on one thread
        subprocess.Popen(command, env={**env, "OPENBLAS_NUM_THREADS": n}, stdout=subprocess.PIPE, text=True)
        for n in ("1", "2")
    ]
    digests = [run.communicate()[0].strip() for run in runs]
    assert [run.returncode for run in runs] == [0, 0]
    assert digests[0] == digests[1], digests
