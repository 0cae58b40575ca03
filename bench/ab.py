"""Paired A/B timing of two fedfreq source trees, written to ``BENCH_<tag>.json``.

Each side is a ``src/`` directory holding a ``fedfreq`` package.  Both are
imported into one interpreter under different names (``fedfreq_base`` and
``fedfreq_change``; the package uses only relative imports), so the two runs
of a pair share the process, its heap and the machine's state at that
moment.  For every setting the script makes one warm-up run per side, then
``--pairs`` pairs of ``fedfreq run`` calls (in-process through
``cli.main``, into a temporary directory that is deleted afterwards).  Pair i
uses experiment seed ``--seed`` + i on both sides, and the side that runs
first alternates from pair to pair.  Per setting it reports the quartiles
of each side's wall times and of the per-pair ratios change/base.  Pairing
and alternation cancel most of the drift of a shared host (Kalibera &
Jones, "Rigorous Benchmarking in Reasonable Time", ISMM 2013).
It also records whether the two sides wrote byte-identical artifacts.
Sharing the process, the two sides also share every per-process setting,
such as the BLAS thread count that importing either tree sets, so a change
to such a setting cannot show here: ``bench/fresh_pairs.py`` runs each
side's perfbench in a fresh process instead.
The ``e2e`` section times the two perfbench training workloads; the
``acceptance`` section times one run per strategy at the acceptance setting
(mlp32, E=5, T=100, data_scale 0.1, K=4): every name in the change tree's
``orchestrator.STRATEGIES`` that the base tree also knows.

The ``server`` section times perfbench's ``server_round`` operation through
each tree's own ``checkpoint`` and ``freq_agg``: per model (mlp32, conv4x8),
load 4 client checkpoints, fuse them with PFA and with FEDAVG, and save the
aggregates into a fresh folder.  One sample is one such round; the inputs
are written once.  Sides pair and alternate as in ``e2e``, with
``SERVER_PAIRS_PER_PAIR`` times ``--pairs`` pairs, since one round takes a
few milliseconds.  Two trees may round PFA differently, so the section
records the largest PFA difference relative to the largest aggregate entry;
the FEDAVG aggregates' saved bytes, and each tree's saved bytes of the same
inputs, are compared for identity.

The ``layer`` section times each tree's own library functions the same way:
``forward`` and ``descend`` (the backward walk that applies SGD, in place)
for mlp32 and conv4x8, ``ce_loss`` and ``kl_div``, all at the
training-group shape ``LAYER_SHAPE`` (4 clients x 16 rows, stacked), one
training-group step per model at that shape (``group_step``:
mlp32 with deputies in the phases ``GROUP_PHASES``, as ``det_mlp`` trains;
conv4x8 without deputies and with a FedProx pull, as ``fedprox_conv``
trains), ``stacked_validation_f1`` of a run's cohort buffer on its padded
validation splits (``VALIDATION``) and ``pfa_fuse`` of a 4-client stack
for each model, ``macro_auc`` on 60 rows (a client's test split at
data_scale 0.1), and ``save_checkpoint`` / ``load_checkpoint_full`` of an
mlp32 map.  Both sides get the same inputs.  One sample is a loop of calls
sized on the base side to take about ``LAYER_SAMPLE_S``; per function the
file holds each side's median time per call and the quartiles of the
paired ratios.

The ``memory`` section holds, per model and row count in ``MEMORY_ROWS``,
each tree's tracemalloc peak over one ``predict_probs`` call on that many
random rows.  The count is exact, so one sample per side is taken.

Usage, from the repository root::

    python bench/ab.py --base ../parent/src --change src --tag stacked_training
    python bench/ab.py --base src --change src --tag aa      # A/A: ratio near 1
    python bench/ab.py --base src --change src --quick --out ab.json

The file holds the machine facts (cores, BLAS, numpy, Python) and the git
commit of each tree.  A base tree outside a git checkout (one exported with
``git archive``) needs ``--base-commit``, which must name a commit of this
repository; it is recorded with ``"dirty": null``.  A change tree outside
git is recorded with ``"commit": null``.  ``--quick`` shrinks
every run to two rounds, every layer sample to a few calls, and makes two
pairs (40 in ``server``): its numbers mean nothing, it only shows that the
script works.
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
import operator
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
import timeit
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np

# the two perfbench training workloads, one fedfreq run each
SETTINGS = {
    "det_mlp": dict(strategy="PFA_DET", model_id="mlp32", local_epochs=5, total_epochs=100, data_scale=0.1),
    "fedprox_conv": dict(strategy="FEDPROX", model_id="conv4x8", local_epochs=1, total_epochs=100, data_scale=0.05),
}
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
# perfbench's server_round operation: per (model, aggregator), load the
# CLIENTS checkpoints, fuse them and save the result
SERVER_KINDS = (("mlp32", "PFA"), ("mlp32", "FEDAVG"), ("conv4x8", "PFA"), ("conv4x8", "FEDAVG"))
SERVER_R = (0.35, 0.48)  # PFA threshold range; one draw per pair, the same on both sides
SERVER_PAIRS_PER_PAIR = 20  # a round takes a few ms: the server section makes 20 x --pairs pairs
SERVER_INPUT_SEED = 3
# predict_probs rows: one block, client 1 at data_scale 1.0, and a large split
MEMORY_ROWS = (512, 3868, 20000)


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


def git_facts(src: Path, given: str | None = None) -> dict:
    """The commit checked out where ``src`` lives, and whether ``src`` differs from it.

    Outside a git checkout the commit is ``given``, resolved in this
    repository, or None.  Exits if ``given`` is unknown or not the
    checked-out one.
    """
    commit = git(src, "rev-parse", "HEAD")
    if given is not None:
        here = Path(__file__).resolve().parent
        resolved = git(here, "rev-parse", "--verify", "--quiet", f"{given}^{{commit}}")
        if resolved is None or commit not in (None, resolved):
            raise SystemExit(f"{src}: --base-commit {given} is not a commit of this repository or not {src}'s")
        commit = resolved
    status = git(src, "status", "--porcelain", "--", ".")
    return {"commit": commit, "dirty": None if status is None else bool(status)}


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
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


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = (float(v) for v in np.percentile(values, [25, 50, 75]))
    return {"median": median, "q1": q1, "q3": q3}


def alternate(run, compare, pairs: int) -> tuple[list[str], dict, list]:
    """Calls ``run(side, i)`` for both sides of pairs i = 0..pairs-1, the first side alternating.

    ``run`` returns (seconds, output).  Returns the side that went first in
    each pair, each side's seconds in pair order, and per pair
    ``compare(base output, change output)``; no output is kept longer.
    """
    first, seconds, compared = [], {side: [] for side in SIDES}, []
    for i in range(pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        first.append(order[0])
        outputs = {}
        for side in order:
            elapsed, outputs[side] = run(side, i)
            seconds[side].append(elapsed)
        compared.append(compare(outputs["base"], outputs["change"]))
    return first, seconds, compared


def paired_summary(seconds: dict, pairs: int) -> dict:
    ratios = [c / b for b, c in zip(seconds["base"], seconds["change"])]
    base, change = quartiles(seconds["base"]), quartiles(seconds["change"])
    faster = sum(r < 1.0 for r in ratios)
    return {
        "base_quartiles_s": base,
        "change_quartiles_s": change,
        "ratio_change_over_base": quartiles(ratios),
        "change_faster_pairs": faster,
        # a gain counts when the change wins 9 pairs in 10 and its median is
        # lower by more than the spread (IQR) of the base's own runs
        "gain_shown": faster >= 0.9 * pairs and base["median"] - change["median"] > base["q3"] - base["q1"],
    }


def measure(clis: dict, config: dict, pairs: int, seed: int) -> dict:
    for side in SIDES:  # warm-up: imports, caches, first-touch allocations
        timed_run(clis[side], config, seed)
    first, seconds, same = alternate(
        lambda side, i: timed_run(clis[side], config, seed + i), operator.eq, pairs
    )
    return {
        "config": config,
        "first": first,
        "base_s": seconds["base"],
        "change_s": seconds["change"],
        **paired_summary(seconds, pairs),
        "identical_artifacts": all(same),
    }


def write_server_inputs(pkg: str, folder: Path) -> dict[str, list[Path]]:
    """Saves CLIENTS client maps per model through package ``pkg``; returns the paths by model id."""
    model = importlib.import_module(f"{pkg}.model")
    checkpoint = importlib.import_module(f"{pkg}.checkpoint")
    folder.mkdir()
    paths = {}
    for model_id, spec in model.MODEL_SPECS.items():
        paths[model_id] = [folder / f"{model_id}_client_{c}.ckpt" for c in range(CLIENTS)]
        for c, path in enumerate(paths[model_id]):
            params = model.init_params(spec, [c, SERVER_INPUT_SEED])
            # the initial biases are 0: give them values, so that every tensor is fused from data
            rng = np.random.default_rng([c, SERVER_INPUT_SEED])
            params = {name: v if v.ndim > 1 else rng.normal(0.0, 0.1, v.shape) for name, v in params.items()}
            checkpoint.save_checkpoint(params, path, model_id=model_id)
    return paths


def server_round(checkpoint, freq_agg, paths: dict, r: float, out: Path) -> list[list[dict]]:
    """perfbench's ``server_round`` operation through one tree's modules; returns the fused maps per kind."""
    fused = []
    for model_id, strategy in SERVER_KINDS:
        loaded = [checkpoint.load_checkpoint_full(path) for path in paths[model_id]]
        maps = [params for _, _, params in loaded]
        request = freq_agg.AggregationRequest(maps, r=r, strategy=strategy)
        if strategy == "PFA":
            maps = freq_agg.pfa_aggregate(request)
        else:
            maps = [freq_agg.fedavg_aggregate(request)]
        for c, params in enumerate(maps):
            checkpoint.save_checkpoint(params, out / f"{model_id}_{strategy}_{c}.ckpt", model_id=loaded[0][1])
        fused.append(maps)
    return fused


def compare_rounds(base, change) -> tuple[float, bool]:
    """(largest PFA |change - base| relative to the largest aggregate entry, FEDAVG bytes identical)."""
    (fused_b, saved_b), (fused_c, saved_c) = base, change
    rel = 0.0
    for (_, strategy), maps_b, maps_c in zip(SERVER_KINDS, fused_b, fused_c):
        if strategy == "PFA":
            delta = max(float(np.max(np.abs(b[k] - c[k]))) for b, c in zip(maps_b, maps_c) for k in b)
            rel = max(rel, delta / max(float(np.max(np.abs(v))) for b in maps_b for v in b.values()))
    return rel, saved_b == saved_c


def measure_server(pairs: int, seed: int) -> dict:
    """Paired timings of one :func:`server_round` per side and pair; both trees must be loaded."""
    modules = {
        side: tuple(importlib.import_module(f"fedfreq_{side}.{m}") for m in ("checkpoint", "freq_agg"))
        for side in SIDES
    }
    with tempfile.TemporaryDirectory() as tmp:
        inputs = {side: write_server_inputs(f"fedfreq_{side}", Path(tmp, f"inputs_{side}")) for side in SIDES}
        saved_alike = all(
            p.read_bytes() == q.read_bytes()
            for model_id in inputs["base"]
            for p, q in zip(inputs["base"][model_id], inputs["change"][model_id])
        )

        def run(side: str, i: int):
            out = Path(tmp, f"round_{side}_{i}")  # a fresh folder, as perfbench writes
            out.mkdir()
            r = float(np.random.default_rng([seed, i]).uniform(*SERVER_R))
            start = time.perf_counter()
            fused = server_round(*modules[side], inputs["base"], r, out)
            elapsed = time.perf_counter() - start
            saved = b"".join(p.read_bytes() for p in sorted(out.glob("*_FEDAVG_*.ckpt")))
            shutil.rmtree(out)
            return elapsed, (fused, saved)

        for side in SIDES:  # warm-up, on a threshold no pair draws
            run(side, pairs)
        first, seconds, compared = alternate(run, compare_rounds, pairs)
    return {
        "kinds": [list(kind) for kind in SERVER_KINDS],
        "first": first,
        "base_s": seconds["base"],
        "change_s": seconds["change"],
        **paired_summary(seconds, pairs),
        "pfa_max_rel_diff": max(rel for rel, _ in compared),
        "fedavg_identical_bytes": all(same for _, same in compared),
        "saved_inputs_identical_bytes": saved_alike,
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
            per_call: dict[str, list[float]] = {side: [] for side in SIDES}
            for i in range(pairs):
                for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                    per_call[side].append(timers[side].timeit(number) / number)
            ratios = [c / b for b, c in zip(per_call["base"], per_call["change"])]
            layer[name] = {
                "calls_per_sample": number,
                "base_us": 1e6 * quartiles(per_call["base"])["median"],
                "change_us": 1e6 * quartiles(per_call["change"])["median"],
                "ratio_change_over_base": quartiles(ratios),
                "change_faster_pairs": sum(r < 1.0 for r in ratios),
            }
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
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, type=Path, help="src/ directory of the reference tree")
    parser.add_argument("--change", required=True, type=Path, help="src/ directory of the changed tree")
    parser.add_argument("--tag", default="ab", help="names the output file BENCH_<tag>.json")
    parser.add_argument("--pairs", type=int, default=15)
    parser.add_argument("--seed", type=int, default=0, help="experiment seed of the first pair")
    parser.add_argument("--quick", action="store_true", help="smoke test: tiny runs, two pairs")
    parser.add_argument("--out", type=Path, help="output path (default: BENCH_<tag>.json at the repo root)")
    parser.add_argument("--base-commit", help="commit of a base tree that is not a git checkout")
    args = parser.parse_args(argv)
    # before any timing: a base tree of unknown commit ends the run here
    trees = {"base": git_facts(args.base.resolve(), args.base_commit), "change": git_facts(args.change.resolve())}
    if trees["base"]["commit"] is None:
        raise SystemExit(f"base tree {args.base} is not in a git checkout: name its commit with --base-commit")

    clis = {side: load_tree(getattr(args, side).resolve(), f"fedfreq_{side}") for side in SIDES}
    pairs = 2 if args.quick else args.pairs
    runs = {"e2e": {}, "acceptance": {}}
    base, change = (importlib.import_module(f"fedfreq_{side}.orchestrator").STRATEGIES for side in SIDES)
    acceptance = {s: dict(strategy=s, **ACCEPTANCE) for s in change if s in base}
    for section, settings in (("e2e", SETTINGS), ("acceptance", acceptance)):
        for name, config in settings.items():
            if args.quick:
                config = {**config, "total_epochs": 2 * config["local_epochs"]}
            row = runs[section][name] = measure(clis, config, pairs, args.seed)
            r = row["ratio_change_over_base"]
            print(f"{name:<13} change/base {r['median']:.3f} (IQR {r['q1']:.3f}-{r['q3']:.3f}), "
                  f"faster in {row['change_faster_pairs']}/{pairs} pairs, "
                  f"gain shown: {row['gain_shown']}, "
                  f"identical artifacts: {row['identical_artifacts']}")

    server_pairs = SERVER_PAIRS_PER_PAIR * pairs
    runs["server"] = row = measure_server(server_pairs, args.seed)
    r = row["ratio_change_over_base"]
    print(f"{'server_round':<13} change/base {r['median']:.3f} (IQR {r['q1']:.3f}-{r['q3']:.3f}), "
          f"faster in {row['change_faster_pairs']}/{server_pairs} pairs, "
          f"gain shown: {row['gain_shown']}, "
          f"PFA max rel diff: {row['pfa_max_rel_diff']:.1e}, "
          f"FEDAVG identical bytes: {row['fedavg_identical_bytes']}")

    layer = measure_layers(pairs, LAYER_SAMPLE_S / 20 if args.quick else LAYER_SAMPLE_S)
    for name, row in layer.items():
        r = row["ratio_change_over_base"]
        print(f"{name:<26} {row['base_us']:9.1f} -> {row['change_us']:9.1f} us/call, "
              f"change/base {r['median']:.3f} (IQR {r['q1']:.3f}-{r['q3']:.3f})")

    memory = measure_memory()
    for name, row in memory.items():
        base, change = row["base_peak_bytes"] / 2**20, row["change_peak_bytes"] / 2**20
        print(f"{name:<26} {base:9.2f} -> {change:9.2f} MiB peak, change/base {row['ratio_change_over_base']:.3f}")

    report = {
        "tag": args.tag,
        "quick": args.quick,
        "clock": "e2e: time.perf_counter around cli.main, seconds per fedfreq run; "
        "server: time.perf_counter around one server round, seconds; "
        "layer: timeit (garbage collection off), microseconds per call; "
        "memory: tracemalloc peak of one call, bytes",
        "pairs": pairs,
        "first_seed": args.seed,
        "machine": machine_facts(),
        "trees": trees,
        **runs,
        "layer": layer,
        "memory": memory,
    }
    out = args.out or Path(__file__).resolve().parent.parent / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
