"""Paired A/B measurement of two fedfreq checkouts, written to ``BENCH_<tag>.json``.

``--base`` and ``--change`` are checkout roots.  Every timed section runs
the two sides in ``--pairs`` alternating pairs (:func:`alternate`): the
base runs first in even pairs, the change in odd ones, so drift of a shared
host falls on both sides alike (Kalibera & Jones, "Rigorous Benchmarking in
Reasonable Time", ISMM 2013).  Every timed metric is summarised by one rule
(:func:`compare`): each side's values and quartiles, the quartiles of the
per-pair ratios change/base, the pairs the change wins (ties count for
neither side) and whether a gain is shown: wins in at least 9 pairs in 10,
and medians apart, in the better direction, by more than the base's
interquartile range.  In-process timings are better lower.

The ``perfbench`` section holds one entry per ``--workload``: pair i runs
``perfbench/run.py --trace 0 --seed <--seed + i>`` of each root in a fresh
interpreter, as the benchmark does, for ``BENCHMARK.json``'s
``run_seconds``.  Per end-to-end metric of ``BENCHMARK.json``, in its order
and with its better direction, the file holds the summary above, and per
workload the failed operations of each run.  These runs go first, while
this process is small: Linux counts a parent's resident set into a child's
``ru_maxrss``, which perfbench reports as ``peak_rss_mb``.

The other sections measure what perfbench cannot: a root's
``src/fedfreq`` is imported into this interpreter as ``fedfreq_base`` or
``fedfreq_change`` (the package uses only relative imports), so the two
sides of a pair share the process and its heap, and with them every
per-process setting, such as the BLAS thread count.

- ``acceptance``: one ``fedfreq run`` per strategy at the acceptance
  setting (mlp32, E=5, T=100, data_scale 0.1, K=4), in-process through
  ``cli.main`` into a temporary directory, for every name in the change
  tree's ``orchestrator.STRATEGIES`` that the base tree also knows.  One
  warm-up run per side, then pair i runs experiment seed ``--seed`` + i
  on both sides; the file records whether the two sides wrote
  byte-identical artifacts.
- ``layer``: each tree's own library functions at the training-group shape
  ``LAYER_SHAPE`` (4 clients x 16 rows, stacked): ``forward`` and
  ``descend`` (the backward walk that applies SGD, in place) per model,
  one training-group step per model (``group_step``: mlp32 with deputies
  in the phases ``GROUP_PHASES``, as ``det_mlp`` trains; conv4x8 without
  deputies and with a FedProx pull, as ``fedprox_conv`` trains),
  ``stacked_validation_f1`` of a run's cohort buffer on its padded
  validation splits (``VALIDATION``) and ``pfa_fuse`` of a 4-client stack
  per model, ``ce_loss``, ``kl_div``, ``macro_auc`` on 60 rows (a client's
  test split at data_scale 0.1), and ``save_checkpoint`` /
  ``load_checkpoint_full`` of an mlp32 map.  Both sides get the same
  inputs.  One sample is a loop of calls sized on the base side to take
  about ``LAYER_SAMPLE_S``, in microseconds per call.
- ``memory``: per model and row count in ``MEMORY_ROWS``, each tree's
  tracemalloc peak over one ``predict_probs`` call on that many random
  rows.  The count is exact, so one sample per side is taken.

Usage, from the repository root::

    python bench/ab.py --base ../parent --change . --tag stacked_training \\
        --workload det_mlp --workload fedprox_conv --workload server_round --seed 7000
    python bench/ab.py --base . --change . --tag aa      # A/A: ratios near 1
    python bench/ab.py --base . --change . --quick --workload server_round --out ab.json

``trees`` records per side the root, its git commit, whether it is dirty,
and what a fresh interpreter reads after importing the root's fedfreq: the
BLAS thread count (through ``model._blas_thread_calls``) and the root's
``tests/pins.environment()``, the numpy version and the BLAS with the
kernel set it picked, which the pinned digests depend on; each null where
the tree has no such function.  A root is dirty when ``git status
--porcelain -- src perfbench`` lists anything there: the code that runs on
that side differs from its commit, untracked files included.  A base root
outside a git checkout (one exported with ``git archive``) needs
``--base-commit``, which must name a commit of this repository and is
checked before any run; its ``dirty`` is null.  A change root outside git
is recorded with a null commit.  The machine facts hold cores, BLAS,
numpy, Python, and the BLAS thread count in effect in this process once
both trees are loaded.
``--quick`` makes two pairs unless ``--pairs`` is given, 1-s perfbench
runs, two-round acceptance runs and few-call layer samples: its numbers
mean nothing, it only shows that the script works.
The script checks no timing; perfbench stays the regression gate.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import importlib.util
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
import timeit
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900  # one perfbench run: its set-up probes, its set-up and run_seconds of operations
# run in a checkout's root, prints as JSON the BLAS thread count in effect once fedfreq is
# imported and the root's tests/pins.environment() (numpy, BLAS and kernel set), each null where
# the root has no such function
FRESH_PROBE = """
import importlib.util, json, os
from fedfreq import model
reader = getattr(model, "_blas_thread_calls", None)
calls = reader() if reader is not None else None
environment = None
if os.path.isfile("tests/pins.py"):
    spec = importlib.util.spec_from_file_location("pins", "tests/pins.py")
    pins = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pins)
    environment = getattr(pins, "environment", None)
print(json.dumps({"blas_threads": calls[1]() if calls is not None else None,
                  "environment": environment() if environment is not None else None}))
"""
# the acceptance setting, one fedfreq run per strategy that both trees know
ACCEPTANCE = dict(model_id="mlp32", local_epochs=5, total_epochs=100, data_scale=0.1)
CLIENTS = 4
SIDES = ("base", "change")
ARTIFACTS = ("curves.csv", "results.json", *(f"best_client_{i}.ckpt" for i in range(CLIENTS)))
LAYER_SHAPE = (CLIENTS, 16)  # (clients, rows) of one training-group call
LAYER_SAMPLE_S = 0.02  # seconds of calls in one layer sample (one side of a pair)
AUC_ROWS = 60  # a client's test split at data_scale 0.1
GROUP_PHASES = (0, 1, 2, 2)  # RECOVER, EXCHANGE, SUBLIMATE, SUBLIMATE: every distillation path
# per model, a run's cohort buffer as validation scores it: models per client (2 with deputies,
# as det_mlp trains; 1 as fedprox_conv trains) and the rows of the clients' validation splits
VALIDATION = {"mlp32": (2, (30, 39, 16, 20)), "conv4x8": (1, (15, 19, 8, 10))}
# predict_probs rows: one block, client 1 at data_scale 1.0, and a large split
MEMORY_ROWS = (512, 3868, 20000)


def benchmark() -> dict:
    """The repository's ``BENCHMARK.json``, read when a run needs it, so importing this module needs no such file."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_tree(src: Path, name: str):
    """Import ``src/fedfreq`` as the package ``name``; returns its ``cli`` module."""
    init = src / "fedfreq" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"no fedfreq package under {src}")
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def layer_cases(pkg: str, tmp: Path) -> dict:
    """Zero-argument calls of package ``pkg``'s library functions, by name.

    Inputs are drawn from fixed seeds, so both trees get the same numbers.
    """
    model = importlib.import_module(f"{pkg}.model")
    det = importlib.import_module(f"{pkg}.det")
    freq_agg = importlib.import_module(f"{pkg}.freq_agg")
    checkpoint = importlib.import_module(f"{pkg}.checkpoint")
    rng = np.random.default_rng(0)
    cases = {}
    k, n = LAYER_SHAPE
    for model_id, spec in model.MODEL_SPECS.items():
        stack = model.stack_params([model.init_params(spec, seed) for seed in range(CLIENTS)])
        features = int(np.prod(spec.input_shape))
        x = rng.standard_normal((k, n, features))
        cases[f"forward.{model_id}"] = partial(model.forward, stack, spec, x)
        probs, cache = model.forward(model.clone_params(stack), spec, x)
        # in place: the models drift by 1e-3 of a gradient per call
        cases[f"descend.{model_id}"] = partial(model.descend, cache, rng.standard_normal(probs.shape), 1e-3)
        x, y = rng.standard_normal((k, n, features)), rng.integers(0, spec.classes, size=(k, n))
        # in place, like descend above
        cases[f"group_step.{model_id}"] = group_step_case(model, det, spec, x, y, model_id == "mlp32")
        models, rows = VALIDATION[model_id]
        buffer = cohort_buffer(model, spec, models, CLIENTS)
        splits = det.pad_splits([(rng.standard_normal((n, features)), rng.integers(0, spec.classes, n)) for n in rows])
        cases[f"stacked_validation_f1.{model_id}"] = partial(det.stacked_validation_f1, buffer, spec, splits)
        cases[f"pfa_fuse.{model_id}"] = partial(freq_agg.pfa_fuse, stack, 0.35)

    probs, teacher = rng.dirichlet(np.ones(3), size=(2, k, n))
    cases["ce_loss"] = partial(model.ce_loss, probs, rng.integers(0, 3, size=(k, n)))
    cases["kl_div"] = partial(model.kl_div, probs, teacher)
    mlp32 = model.init_params(model.MODEL_SPECS["mlp32"], 0)
    metrics = importlib.import_module(f"{pkg}.metrics")
    scores = rng.dirichlet(np.ones(3), size=AUC_ROWS)
    cases["macro_auc"] = partial(metrics.macro_auc, scores, rng.integers(0, 3, size=AUC_ROWS), 3)
    path = tmp / f"{pkg}.ckpt"
    cases["save_checkpoint"] = partial(checkpoint.save_checkpoint, mlp32, path, model_id="mlp32")
    cases["save_checkpoint"]()
    cases["load_checkpoint_full"] = partial(checkpoint.load_checkpoint_full, path)
    return cases


def group_step_case(model, det, spec, x: np.ndarray, y: np.ndarray, deputy: bool):
    """A zero-argument training-group step of one tree on the batch ``(x, y)``, in place.

    The step is ``det.group_step`` on a :func:`cohort_buffer`.  With
    ``deputy``, each client trains ``p`` and its deputy in the phases
    ``GROUP_PHASES``; without, ``p`` alone with a FedProx pull toward seed 0.
    """
    phases = np.array(GROUP_PHASES[: len(x)])
    deputy_distils, personal_distils = (phases < 2).tolist(), ((phases > 0) & deputy).tolist()
    buffer = cohort_buffer(model, spec, 1 + deputy, len(x))
    prox = None if deputy else (0.1, model.init_params(spec, 0))
    return partial(det.group_step, buffer, spec, x, y, deputy_distils, personal_distils, 1e-3, prox)


def cohort_buffer(model, spec, models: int, clients: int) -> dict:
    """An ``(M, K, ...)`` buffer of one tree's ``init_params``: model m of client k from seed ``m * K + k``."""
    stack = model.stack_params([model.init_params(spec, seed) for seed in range(models * clients)])
    return {key: v.reshape(models, clients, *v.shape[1:]) for key, v in stack.items()}


def git(where: Path, *args: str) -> str | None:
    """``git -C where args``'s stripped output, or None if git fails or is missing."""
    try:
        done = subprocess.run(["git", "-C", str(where), *args], capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def git_facts(root: Path, given: str | None = None) -> dict:
    """The commit checked out at ``root``, and whether the code that runs there differs from it.

    Outside a git checkout the commit is ``given``, resolved in this
    repository, or None.  Exits if ``given`` is unknown or not the
    checked-out one.
    """
    commit = git(root, "rev-parse", "HEAD")
    if given is not None:
        resolved = git(ROOT, "rev-parse", "--verify", "--quiet", f"{given}^{{commit}}")
        if resolved is None or commit not in (None, resolved):
            raise SystemExit(f"{root}: --base-commit {given} is not a commit of this repository or not {root}'s")
        commit = resolved
    status = git(root, "status", "--porcelain", "--", "src", "perfbench")
    return {"root": str(root), "commit": commit, "dirty": None if status is None else bool(status)}


def fresh_probe(root: Path) -> dict:
    """``FRESH_PROBE``'s two facts, from a fresh interpreter that imports checkout ``root``'s fedfreq."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run([sys.executable, "-c", FRESH_PROBE], cwd=root, env=env,
                          capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        raise SystemExit(f"{root}: the fresh probe exited {done.returncode}\n{done.stderr[-2000:]}")
    return json.loads(done.stdout)


def blas_threads(side: str) -> int | None:
    """The BLAS thread count in effect, read through tree ``side``'s ``model._blas_thread_calls``;
    None where that tree has no such reader or it finds no OpenBLAS."""
    reader = getattr(importlib.import_module(f"fedfreq_{side}.model"), "_blas_thread_calls", None)
    calls = reader() if reader is not None else None
    return calls[1]() if calls is not None else None


def machine_facts() -> dict:
    """The machine, and the BLAS thread count that both loaded trees run with."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {side: blas_threads(side) for side in SIDES},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = (float(v) for v in np.percentile(values, [25, 50, 75]))
    return {"median": median, "q1": q1, "q3": q3}


def alternate(run, pairs: int) -> tuple[list[str], dict]:
    """Calls ``run(side, i)`` for both sides of pairs i = 0..pairs-1, the base first in even pairs.

    Returns the side that went first in each pair, and each side's
    results in pair order.
    """
    first, results = [], {side: [] for side in SIDES}
    for i in range(pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        first.append(order[0])
        for side in order:
            results[side].append(run(side, i))
    return first, results


def compare(base: list[float], change: list[float], better: str = "lower", unit: str = "s") -> dict:
    """One metric's paired summary, and whether it shows a gain of the change.

    A gain is shown when the change is better in at least 9 pairs in 10
    (ties count for neither side) and the medians are apart, in the better
    direction, by more than the base's interquartile range.
    """
    sign = 1.0 if better == "lower" else -1.0  # sign * (base - change) > 0: the change is better
    qb, qc = quartiles(base), quartiles(change)
    wins = sum(sign * (b - c) > 0 for b, c in zip(base, change))
    ratios = [c / b if b else None for b, c in zip(base, change)]
    defined = [r for r in ratios if r is not None]
    return {
        "unit": unit,
        "better": better,
        "base_values": base,
        "change_values": change,
        "base_quartiles": qb,
        "change_quartiles": qc,
        "ratios_change_over_base": ratios,
        "ratio_quartiles": quartiles(defined) if defined else None,
        "change_wins": wins,
        "gain_shown": wins >= 0.9 * len(base) and sign * (qb["median"] - qc["median"]) > qb["q3"] - qb["q1"],
    }


def show(name: str, row: dict, extra: str = "") -> None:
    """Prints one line of a :func:`compare` summary."""
    r = row["ratio_quartiles"] or dict.fromkeys(("median", "q1", "q3"), float("nan"))
    print(f"{name:<34} {row['base_quartiles']['median']:10.4g} -> {row['change_quartiles']['median']:10.4g} "
          f"{row['unit']:<5} change/base {r['median']:.3f} (IQR {r['q1']:.3f}-{r['q3']:.3f}), "
          f"better in {row['change_wins']}/{len(row['base_values'])}, gain shown: {row['gain_shown']}{extra}")


def perfbench(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py --trace 0`` run of checkout ``root`` in a fresh interpreter; returns its result."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        raise SystemExit(f"{root} {workload} seed {seed}: exit code {done.returncode}\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure_perfbench(roots: dict, workload: str, pairs: int, seed: int, seconds: float) -> dict:
    """Paired perfbench runs of one workload, one summary per end-to-end metric of ``BENCHMARK.json``."""
    first, results = alternate(lambda side, i: perfbench(roots[side], workload, seed + i, seconds), pairs)
    metrics = {}
    for metric in benchmark()["end_to_end"]:
        name = metric["name"]
        values = {side: [r["metrics"][name]["value"] for r in results[side]] for side in SIDES}
        metrics[name] = compare(values["base"], values["change"], metric["better"], metric["unit"])
    return {
        "seeds": [seed + i for i in range(pairs)],
        "first": first,
        "failed_ops": {side: [r["failed"] for r in results[side]] for side in SIDES},
        "metrics": metrics,
    }


def timed_run(cli, config: dict, seed: int) -> tuple[float, str]:
    """One ``fedfreq run``; returns (wall seconds, digest of its artifacts)."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp, "run.cfg"), Path(tmp, "out")
        lines = {**config, "num_clients": CLIENTS, "seed": seed}
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
        argv = ["run", "--config", str(cfg), "--out-dir", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            rc = cli.main(argv)
            elapsed = time.perf_counter() - start
        if rc != 0:
            raise SystemExit(f"{config['strategy']} seed {seed}: exit code {rc}")
        h = hashlib.sha256()
        for name in ARTIFACTS:
            h.update((out / name).read_bytes())
        return elapsed, h.hexdigest()


def measure_run(clis: dict, config: dict, pairs: int, seed: int) -> dict:
    """Paired wall times of one ``fedfreq run`` config; pair i runs experiment seed ``seed + i``."""
    for side in SIDES:  # warm-up: imports, caches, first-touch allocations
        timed_run(clis[side], config, seed)
    first, runs = alternate(lambda side, i: timed_run(clis[side], config, seed + i), pairs)
    (base, base_digests), (change, change_digests) = (zip(*runs[side]) for side in SIDES)
    return {
        "config": config,
        "first": first,
        **compare(list(base), list(change)),
        "identical_artifacts": base_digests == change_digests,
    }


def measure_layers(pairs: int, sample_s: float) -> dict:
    """Paired timings of every :func:`layer_cases` call; both trees must be loaded."""
    layer = {}
    with tempfile.TemporaryDirectory() as tmp:
        cases = {side: layer_cases(f"fedfreq_{side}", Path(tmp)) for side in SIDES}
        for name in cases["base"]:
            timers = {side: timeit.Timer(cases[side][name]) for side in SIDES}
            for side in SIDES:  # warm-up
                timers[side].timeit(3)
            count, seconds = timers["base"].autorange()
            number = max(1, round(sample_s * count / seconds))
            _, per_call = alternate(lambda side, i: 1e6 * timers[side].timeit(number) / number, pairs)
            layer[name] = {"calls_per_sample": number, **compare(per_call["base"], per_call["change"], unit="us")}
    return layer


def measure_memory() -> dict:
    """Each tree's tracemalloc peak over one ``predict_probs`` call, per model and ``MEMORY_ROWS`` count."""
    memory = {}
    models = {side: importlib.import_module(f"fedfreq_{side}.model") for side in SIDES}
    for model_id in models["base"].MODEL_SPECS:
        for n in MEMORY_ROWS:
            row = {}
            for side, model in models.items():
                spec = model.MODEL_SPECS[model_id]
                params = model.init_params(spec, 0)
                x = np.random.default_rng(n).standard_normal((n, int(np.prod(spec.input_shape))))
                model.predict_probs(params, spec, x[:1])  # caches (the conv tap index) outside the count
                tracemalloc.start()
                try:
                    model.predict_probs(params, spec, x)
                    row[f"{side}_peak_bytes"] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            row["ratio_change_over_base"] = row["change_peak_bytes"] / row["base_peak_bytes"]
            memory[f"predict_probs.{model_id}.{n}"] = row
    return memory


def main(argv=None) -> int:
    bench = benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, type=Path, help="root of the reference checkout")
    parser.add_argument("--change", required=True, type=Path, help="root of the changed checkout")
    parser.add_argument("--tag", default="ab", help="names the output file BENCH_<tag>.json")
    parser.add_argument("--seed", type=int, default=0, help="seed of each section's first pair")
    parser.add_argument("--out", type=Path, help="output path (default: BENCH_<tag>.json at the repo root)")
    parser.add_argument("--base-commit", help="commit of a base root that is not a git checkout")
    parser.add_argument("--pairs", type=int, help="pairs per measurement (default 10, or 2 with --quick)")
    parser.add_argument("--quick", action="store_true", help="smoke test: tiny runs, two pairs")
    parser.add_argument("--workload", action="append", default=[], choices=[w["name"] for w in bench["workloads"]],
                        help="a perfbench workload to run in fresh-process pairs; repeat for several")
    args = parser.parse_args(argv)
    pairs = args.pairs or (2 if args.quick else 10)
    if pairs < 2:
        parser.error("--pairs must be at least 2")
    roots = {side: getattr(args, side).resolve() for side in SIDES}
    # before any run: a base root of unknown commit ends the script here
    trees = {"base": git_facts(roots["base"], args.base_commit), "change": git_facts(roots["change"])}
    if trees["base"]["commit"] is None:
        raise SystemExit(f"base root {args.base} is not a git checkout: name its commit with --base-commit")
    for side in SIDES:
        trees[side].update(fresh_probe(roots[side]))

    seconds = 1.0 if args.quick else bench["run_seconds"]
    runs = {"perfbench": {}, "acceptance": {}}
    for workload in args.workload:
        row = runs["perfbench"][workload] = measure_perfbench(roots, workload, pairs, args.seed, seconds)
        for name, summary in row["metrics"].items():
            show(f"{workload} {name}", summary)

    clis = {side: load_tree(roots[side] / "src", f"fedfreq_{side}") for side in SIDES}
    base, change = (importlib.import_module(f"fedfreq_{side}.orchestrator").STRATEGIES for side in SIDES)
    for strategy in (s for s in change if s in base):
        config = dict(strategy=strategy, **ACCEPTANCE)
        if args.quick:
            config["total_epochs"] = 2 * config["local_epochs"]
        row = runs["acceptance"][strategy] = measure_run(clis, config, pairs, args.seed)
        show(strategy, row, f", identical artifacts: {row['identical_artifacts']}")

    runs["layer"] = measure_layers(pairs, LAYER_SAMPLE_S / 20 if args.quick else LAYER_SAMPLE_S)
    for name, row in runs["layer"].items():
        show(name, row)

    runs["memory"] = measure_memory()
    for name, row in runs["memory"].items():
        base, change = row["base_peak_bytes"] / 2**20, row["change_peak_bytes"] / 2**20
        print(f"{name:<34} {base:10.4g} -> {change:10.4g} MiB   peak, change/base {row['ratio_change_over_base']:.3f}")

    report = {
        "tag": args.tag,
        "quick": args.quick,
        "clock": "perfbench: perfbench/run.py --trace 0, one fresh process per run, its end-to-end metrics; "
        "acceptance: time.perf_counter around cli.main, seconds per fedfreq run; "
        "layer: timeit (garbage collection off), microseconds per call; "
        "memory: tracemalloc peak of one call, bytes",
        "pairs": pairs,
        "first_seed": args.seed,
        "run_seconds": seconds,
        "machine": machine_facts(),
        "trees": trees,
        **runs,
    }
    out = args.out or ROOT / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
