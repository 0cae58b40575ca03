"""fedfreq benchmark: end-to-end metrics, or a traced per-module breakdown.

Run from the repository root:

    python3 perfbench/run.py --workload det_mlp --seed 1 --seconds 35 --trace 0

Workloads are described in ``perfbench/README.md``.  With ``--trace 0`` the
last stdout line is a JSON object whose ``metrics`` hold every end-to-end
metric; with ``--trace 1`` they hold every per-layer metric from a run that
alternates untraced and traced operations.  fedfreq is imported from
``src/`` next to this directory; without it the benchmark exits with code 2
and prints no result.  Inputs, outputs and set-up probes live in
``.perfbench_work/`` (removed at exit); a JSON report with the machine facts
and the latency of every operation (when traced, the spans of the last traced
operation instead) is written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_BASE = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("det_mlp", "fedprox_conv", "server_round")
SETUP_PROBES = 4  # fresh processes that repeat set-up; the run's own set-up is one more sample
# op_ms_p90 is taken per block of this many consecutive operations and the
# median over blocks is reported, so a burst of load from the shared host that
# covers less than half of the run does not move it.  Runs with fewer than two
# blocks' worth of operations (the training workloads) use one block.
BLOCK_OPS = 200
PROBE_TIMEOUT_S = 150

# (name, unit) in the order BENCHMARK.json lists them
END_TO_END = (
    ("setup_s", "s"),
    ("op_ms_mean", "ms"),
    ("op_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
    ("macro_f1", "f1"),
    ("ood_macro_f1", "f1"),
    ("boundary_retention", "ratio"),
    ("success_frac", "frac"),
)


def _per_layer() -> tuple[tuple[str, str], ...]:
    names = []
    for fn in ("forward", "backward", "ce_loss", "kl_div", "sgd_step", "predict_probs"):
        names += [(f"model.{fn}.calls", "count"), (f"model.{fn}.self_s", "s")]
    names += [("model.clone_params.calls", "count"), ("model.clone_params.bytes", "B")]
    names += [("det.local_epoch.calls", "count"), ("det.local_epoch.self_s", "s")]
    names += [("det.receive_deputy.calls", "count"), ("det.upload_model.calls", "count")]
    names += [(f"det.epochs.{p}", "count") for p in ("recover", "exchange", "sublimate")]
    for fn in ("pfa_aggregate", "fedavg_aggregate", "low_freq_mask"):
        names += [(f"freq_agg.{fn}.calls", "count"), (f"freq_agg.{fn}.self_s", "s")]
    names += [("freq_agg.bytes_in", "B")]
    for fn in ("dft2", "idft2", "amp_phase", "recompose"):
        names += [(f"numerics.{fn}.calls", "count"), (f"numerics.{fn}.self_s", "s")]
    for fn in ("save_checkpoint", "load_checkpoint_full"):
        names += [(f"checkpoint.{fn}.{k}", u) for k, u in (("calls", "count"), ("self_s", "s"), ("bytes", "B"))]
    for fn in ("macro_f1", "evaluate"):
        names += [(f"metrics.{fn}.calls", "count"), (f"metrics.{fn}.self_s", "s")]
    names += [(f"orchestrator.{fn}.self_s", "s") for fn in ("run_experiment", "emit_report", "save_run_checkpoints")]
    names += [("cli.main.self_s", "s"), ("data.synth.self_s", "s"), ("data.ood_client.self_s", "s")]
    names += [("bench.self_s", "s")]
    names += [(f"stage.{s}_share", "share") for s in ("train", "validate", "aggregate", "io", "other")]
    names += [("trace.overhead_share", "share"), ("trace.spans_per_op", "count")]
    names += [("quality.boundary_delta", "f1")]
    return tuple(names)


PER_LAYER = _per_layer()


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def import_fedfreq() -> None:
    """Import fedfreq from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "fedfreq" / "__init__.py").is_file():
        raise ImportError(f"no fedfreq sources at {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import fedfreq

    if Path(fedfreq.__file__).resolve().parent != (SRC / "fedfreq").resolve():
        raise ImportError(f"fedfreq was imported from {fedfreq.__file__}, not {SRC}")


def timed_setup(workload: str, seed: int, work: Path, quick: bool):
    """Import fedfreq, write the workload's inputs and warm up; returns (seconds, workload)."""
    start = time.perf_counter()
    import_fedfreq()
    import workloads

    wl = workloads.make_workload(workload, seed, work, quick)
    wl.setup()
    return time.perf_counter() - start, wl


def probe_setup(args) -> float:
    """Set-up time measured in a fresh interpreter, so the import is real."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"] + (["--quick"] if args.quick else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


# --- machine facts --------------------------------------------------------------


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git; 'unknown' outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "thread_env": {k: os.environ.get(k) for k in thread_vars},
        "git_commit": git_commit(),
    }


# --- measurement ------------------------------------------------------------------


class Runner:
    """Drives a workload's operations, times them and counts failed checks."""

    def __init__(self, wl) -> None:
        self.wl = wl
        self.attempted = 0
        self.failed = 0

    def run_op(self, i: int, tracer=None) -> float | None:
        """Run and check operation ``i``, traced if a tracer is given; returns
        its seconds, or None if it failed."""
        self.attempted += 1
        try:
            start = time.perf_counter()
            if tracer is None:
                result = self.wl.op(i)
            else:
                with tracer.op():
                    result = self.wl.op(i)
            elapsed = time.perf_counter() - start
            errors = self.wl.check(i, result)
        except Exception:  # an operation that raises is a failed operation, not a crash
            errors = ["raised:\n" + traceback.format_exc()]
        if errors:
            self.failed += 1
            print(f"perfbench: operation {i} failed: {'; '.join(errors)}", file=sys.stderr)
            return None
        return elapsed


def measure(runner: Runner, seconds: float) -> list[float]:
    """Seconds of each operation that passed its checks, in the order run."""
    deadline = time.perf_counter() + seconds
    latencies = []
    i = 0
    while i < runner.wl.min_ops or time.perf_counter() < deadline:
        elapsed = runner.run_op(i)
        if elapsed is not None:
            latencies.append(elapsed)
        i += 1
    return latencies


def latency_metrics(latencies: list[float]) -> dict:
    """Mean latency in ms over the whole run, and p90 as the median over blocks.

    The mean rather than the median: the shared host's speed drifts by up to
    2x over tens of seconds, and a median over a run jumps to whichever speed
    held most of it, while the mean weighs every second of the run alike.
    """
    ms = np.array(latencies) * 1e3
    blocks = np.array_split(ms, max(1, len(ms) // BLOCK_OPS))
    return {
        "op_ms_mean": float(ms.mean()),
        "op_ms_p90": float(np.median([np.percentile(block, 90) for block in blocks])),
    }


def measure_traced(runner: Runner, seconds: float):
    """Alternate untraced and traced operations on the same inputs until time is up.

    Returns the per-layer metrics (median over traced operations for times
    and shares; counts must repeat exactly) and the last traced operation's spans.
    """
    from tracer import Tracer, summarize

    wl = runner.wl
    times = {False: [], True: []}
    per_op: list[dict] = []
    deadline = time.perf_counter() + seconds
    n = 0
    with Tracer() as tracer:
        while n < 4 or time.perf_counter() < deadline:
            traced = n % 2 == 1
            elapsed = runner.run_op((n // 2) * wl.stride, tracer if traced else None)
            if elapsed is not None:
                times[traced].append(elapsed)
                if traced:
                    per_op.append(op_metrics(summarize(tracer.spans, tracer.counters)))
            n += 1
        spans = list(tracer.spans)
    if not per_op or not times[False]:
        return {}, spans
    result = {}
    for name, unit in PER_LAYER:
        values = [m[name] for m in per_op if name in m]
        if not values:
            continue
        if unit in ("s", "share"):
            result[name] = float(statistics.median(values))
        else:
            if len(set(values)) != 1:
                runner.failed += 1
                print(f"perfbench: {name} differs between traced repeats: {values}", file=sys.stderr)
            result[name] = values[-1]
    result["trace.overhead_share"] = statistics.median(times[True]) / statistics.median(times[False]) - 1.0
    return result, spans


def op_metrics(summary: dict) -> dict:
    """Per-layer metrics of one traced operation."""
    from tracer import COUNTERS, ROOT

    out = {}
    for name, _ in PER_LAYER:
        layer, _, kind = name.rpartition(".")
        if name in COUNTERS:
            out[name] = summary["counters"].get(name, 0)
        elif kind == "calls":
            out[name] = summary["calls"].get(layer, 0)
        elif kind == "self_s":
            out[name] = summary["self_s"].get(layer, 0.0)
    out["bench.self_s"] = summary["self_s"][ROOT]
    for stage, seconds in summary["stage_s"].items():
        out[f"stage.{stage}_share"] = seconds / summary["wall_s"]
    out["trace.spans_per_op"] = sum(summary["calls"].values())
    return out


def report_table(per_layer: dict) -> str:
    lines = [f"{'metric':<42} {'value':>14}"]
    for name, unit in PER_LAYER:
        if name in per_layer:
            lines.append(f"{name:<42} {per_layer[name]:>14.6g} {unit}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny runs, for the benchmark's own tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "fedfreq" / "__init__.py").is_file():
        return _fail(f"fedfreq sources not found under {SRC}; run from a full checkout")
    WORK_BASE.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK_BASE))
    try:
        if args.setup_probe:
            seconds, _ = timed_setup(args.workload, args.seed, work, args.quick)
            print(f"{seconds!r}")
            return 0
        setup_samples = [probe_setup(args) for _ in range(0 if args.quick else SETUP_PROBES)]
        seconds, wl = timed_setup(args.workload, args.seed, work, args.quick)
        setup_samples.append(seconds)
        runner = Runner(wl)
        if args.trace:
            metrics, spans = measure_traced(runner, args.seconds)
            quality = wl.quality()
            if "boundary_delta" in quality:
                metrics["quality.boundary_delta"] = quality["boundary_delta"]
            units = dict(PER_LAYER)
        else:
            latencies, spans = measure(runner, args.seconds), None
            metrics = latency_metrics(latencies) if latencies else {}
            metrics.update(wl.quality())
            metrics["setup_s"] = statistics.median(setup_samples)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics["success_frac"] = (runner.attempted - runner.failed) / runner.attempted
            units = dict(END_TO_END)
    except ImportError as exc:
        return _fail(str(exc))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = [name for name in units if name not in metrics]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
    result = {
        "correct": runner.failed == 0 and not missing,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items() if name in metrics
        },
    }
    machine = machine_facts()
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "quick": args.quick, "machine": machine, "result": result,
              "setup_samples_s": setup_samples}
    if args.trace:
        from tracer import summarize

        last = summarize(spans, {})
        report["last_traced_op"] = {"wall_s": last["wall_s"], "self_s": last["self_s"]}
        print(report_table(metrics), file=sys.stderr)
        print(f"last traced op: self times sum to {sum(last['self_s'].values()):.6f} s "
              f"of {last['wall_s']:.6f} s wall", file=sys.stderr)
        report["spans_of_last_traced_op"] = [
            [name, start - spans[0][1], end - spans[0][1], parent] for name, start, end, parent in spans
        ]
    else:
        report["latencies_s"] = latencies
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out_file.write_text(json.dumps(report) + "\n")
    print(json.dumps({"machine": machine}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
