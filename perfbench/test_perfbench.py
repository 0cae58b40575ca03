"""Tests of the benchmark itself; run with ``python -m pytest perfbench``.

They use ``--quick`` runs (a few epochs, two experiment seeds) so the whole
file takes well under a minute.
"""

from __future__ import annotations

import io
import json
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
run.import_fedfreq()

import tracer  # noqa: E402  (needs fedfreq on the path)
import workloads  # noqa: E402

from fedfreq import checkpoint, det, freq_agg, model, orchestrator  # noqa: E402


def _result(argv: list[str]) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), *argv],
        capture_output=True, text=True, timeout=170, cwd=run.ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_declared_metrics_match_the_runner():
    for key, declared in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert [(m["name"], m["unit"]) for m in BENCHMARK[key]] == list(declared)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    result = _result(["--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", trace, "--quick"])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in result["metrics"].items()}
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))
    if trace == "0":
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)


def test_a_burst_over_less_than_half_the_run_leaves_the_p90_alone():
    steady = [0.010 + 0.001 * (i % 10) for i in range(10 * run.BLOCK_OPS)]
    burst = [2 * t if i < 3 * run.BLOCK_OPS else t for i, t in enumerate(steady)]
    assert run.latency_metrics(burst)["op_ms_p90"] == run.latency_metrics(steady)["op_ms_p90"]
    assert run.latency_metrics(burst)["op_ms_mean"] == pytest.approx(1.3 * 14.5)
    assert run.latency_metrics(steady[:50]) == pytest.approx({"op_ms_mean": 14.5, "op_ms_p90": 18.1})


def test_missing_sources_exit_nonzero_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "workloads.py", "tracer.py"):
        (bench / name).write_text((run.HERE / name).read_text())
    proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "det_mlp", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _main_result(argv: list[str]) -> dict:
    out = io.StringIO()
    with redirect_stdout(out):
        assert run.main(argv) == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


def test_corrupted_training_checkpoint_counts_as_failed(monkeypatch):
    original = workloads.TrainingWorkload.op

    def corrupting_op(self, i):
        rc, out = original(self, i)
        path = out / "best_client_0.ckpt"
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        return rc, out

    monkeypatch.setattr(workloads.TrainingWorkload, "op", corrupting_op)
    result = _main_result(["--workload", "det_mlp", "--seed", "1", "--seconds", "0", "--trace", "0", "--quick"])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1


def test_wrong_aggregate_with_a_valid_checksum_counts_as_failed(monkeypatch):
    original = workloads.ServerRoundWorkload._fuse

    def tampering_fuse(self, k, kind, r, out):
        r, written = original(self, k, kind, r, out)
        _, model_id, params = checkpoint.load_checkpoint_full(written[0])
        name = sorted(params)[0]
        params[name] = params[name] + 1e-6
        checkpoint.save_checkpoint(params, written[0], model_id=model_id)
        return r, written

    wl = workloads.ServerRoundWorkload(1, Path(run.tempfile.mkdtemp(dir=run.WORK_BASE)), quick=True)
    try:
        wl.setup()
        monkeypatch.setattr(workloads.ServerRoundWorkload, "_fuse", tampering_fuse)
        errors = wl.check(0, wl.op(0))
    finally:
        run.shutil.rmtree(wl.work)
    kinds = {e.split()[0] for e in errors}
    assert kinds == {"PFA", "FEDAVG"}, errors


def test_tracer_patches_every_binding_and_restores_it():
    original_forward = model.forward
    with tracer.Tracer():
        for namespace in (model, det, orchestrator):
            assert namespace.forward is not original_forward
            assert namespace.forward.__wrapped__ is original_forward
        assert freq_agg.dft2.__wrapped__ is sys.modules["fedfreq.numerics"].dft2.__wrapped__
    for namespace in (model, det, orchestrator):
        assert namespace.forward is original_forward


def test_self_times_add_up_to_the_traced_wall_time():
    spans = [
        ("bench.op", 0.0, 10.0, -1),
        ("model.predict_probs", 1.0, 4.0, 0),
        ("model.forward", 1.5, 3.5, 1),
        ("model.forward", 5.0, 6.0, 0),
    ]
    summary = tracer.summarize(spans, {})
    assert summary["self_s"] == {"bench.op": 6.0, "model.predict_probs": 1.0, "model.forward": 3.0}
    assert summary["calls"]["model.forward"] == 2
    # the forward pass under predict_probs is validation, the other one training
    assert summary["stage_s"]["validate"] == 3.0
    assert summary["stage_s"]["train"] == 1.0
    assert sum(summary["stage_s"].values()) == summary["wall_s"] == 10.0
