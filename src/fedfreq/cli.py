"""Command line entry points.

Subcommands: ``synth-data`` (write client dataset files), ``run`` (full
experiment from a config file into the one directory ``--out-dir`` names;
results.json is its last file), ``aggregate`` (offline aggregation over
checkpoints), ``eval`` (score a checkpoint on a dataset file) and ``report``
(summarize a curves.csv log).  A dataset file is a checkpoint-format file with
model id ``fedfreq-dataset``.

Exit codes, one exception type each: 0 success; 2 ``ConfigError`` (including a
config file that is not UTF-8 or holds an unknown key, a ``run`` without
``--out-dir``, a ``synth-data`` ``--seed`` below 0 or ``--scale`` outside
(0, 1], or ``aggregate`` outputs that collide or overwrite an input, on which it
reads nothing); 3 ``DataError`` (including a corrupt checkpoint or dataset file,
or one of an unknown format version, raised as its subclasses
``CorruptCheckpointError`` and ``UnsupportedVersionError``; a file given as a
curves.csv that is not one; a dataset file given as a checkpoint, a checkpoint
holding a tensor that is empty or not finite, or whose tensors do not fit the
model its id names, on any of which ``aggregate`` and ``eval`` write nothing;
checkpoints to aggregate whose model ids or tensor shapes differ, or whose
aggregate is not finite; an ``eval`` checkpoint of an unknown model id; and an
``eval`` dataset file with a non-finite feature, or whose scored split holds
fewer than two classes);
4 ``OSError``, an I/O error (a ``run`` that fails to write leaves no
results.json and no earlier checkpoint); 5 ``DivergenceError``, training
diverged (a parameter stopped being finite; ``run`` writes nothing).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .checkpoint import DataError, load_checkpoint_full, save_checkpoint
from .data import DATASET_ID, check_scale, default_profiles, load_client, ood_client, save_client, synth
from .det import DivergenceError
from .freq_agg import (
    FEDAVG,
    PFA,
    AggregationRequest,
    check_threshold,
    fedavg_aggregate,
    pfa_aggregate,
)
from .metrics import check_two_classes, evaluate
from .model import MODEL_SPECS, check_same_structure, init_params, predict_probs
from .orchestrator import (
    ConfigError,
    emit_report,
    load_config,
    mean_boundary_change,
    read_curves,
    run_experiment,
)

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_IO = 4
EXIT_DIVERGED = 5


def _cmd_synth_data(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    check_scale(args.scale, "--scale", ConfigError)
    profiles = default_profiles(args.scale)
    dataset = synth(profiles, args.seed)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for i, client in enumerate(dataset.clients):
        path = out / f"client_{i}.fsd"
        save_client(client, path)
        print(f"wrote {path} ({client.features.shape[0]} samples)")
    if args.ood:
        client = ood_client(profiles, args.seed)
        path = out / "ood.fsd"
        save_client(client, path)
        print(f"wrote {path} ({client.features.shape[0]} samples)")
    return 0


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    if not args.out_dir:
        raise ConfigError("no output directory: pass --out-dir")
    result = run_experiment(cfg)
    for path in emit_report(result, args.out_dir):
        print(f"wrote {path}")
    print(f"macro F1 {result.macro_f1:.4f}  macro AUC {result.macro_auc:.4f}")
    return 0


def _cmd_aggregate(args) -> int:
    try:
        check_threshold(args.r)
    except ValueError as exc:
        raise ConfigError(f"--r: {exc}") from exc
    out = Path(args.out_dir)
    names = [f"{Path(src).stem}.agg.ckpt" for src in args.checkpoints] if args.strategy == PFA else ["global.ckpt"]
    inputs, written = {Path(src).resolve(): src for src in args.checkpoints}, {}
    for src, name in zip(args.checkpoints, names):  # PFA's output i is input i's; checked before any read
        target = (out / name).resolve()
        if target in inputs:
            raise ConfigError(f"aggregate output {out / name} would overwrite input {inputs[target]}")
        if target in written:
            raise ConfigError(f"inputs {written[target]} and {src} would both write {out / name}")
        written[target] = src
    loaded = [_load_model(path) for path in args.checkpoints]
    for path, (model_id, _) in zip(args.checkpoints, loaded):  # ids outside MODEL_SPECS must match too
        if model_id != loaded[0][0]:
            first = f"{args.checkpoints[0]} holds model {loaded[0][0]!r}"
            raise DataError(f"checkpoints do not match: {first}, {path} holds {model_id!r}")
    maps = [params for _, params in loaded]
    try:
        check_same_structure(maps)
    except ValueError as exc:
        raise DataError(f"checkpoints do not match: {exc}") from exc
    # an overflow shows up as a non-finite aggregate, which the check below reports
    with np.errstate(over="ignore", invalid="ignore"):
        if args.strategy == PFA:
            aggregates = pfa_aggregate(AggregationRequest(maps, r=args.r, strategy=PFA))
        else:
            aggregates = [fedavg_aggregate(AggregationRequest(maps, strategy=FEDAVG))]
    for name, agg in zip(names, aggregates):
        _check_finite(agg, f"aggregate for {out / name}")
    out.mkdir(parents=True, exist_ok=True)
    for name, agg in zip(names, aggregates):
        save_checkpoint(agg, out / name, model_id=loaded[0][0])
        print(f"wrote {out / name}")
    return 0


def _check_finite(params, source) -> None:
    """DataError naming ``source`` and its first tensor, in name order, that is not finite."""
    for name in sorted(params):
        if not np.isfinite(params[name]).all():
            raise DataError(f"{source}: tensor {name!r} is not finite")


def _load_model(path):
    """``(model_id, params)`` of a model checkpoint; DataError on a dataset file, a tensor that is empty or
    not finite, or tensors that do not fit the model their id names in ``MODEL_SPECS``."""
    _, model_id, params = load_checkpoint_full(path)
    if model_id == DATASET_ID:
        raise DataError(f"{path}: a dataset file, not a model checkpoint")
    _check_finite(params, path)
    empty = [name for name in sorted(params) if params[name].size == 0]
    if empty:
        raise DataError(f"{path}: tensor {empty[0]!r} has no entries")
    if model_id in MODEL_SPECS:
        try:
            check_same_structure([init_params(MODEL_SPECS[model_id], 0), params])
        except ValueError as exc:
            raise DataError(f"{path}: tensors do not fit model {model_id!r}: {exc}") from exc
    return model_id, params


def _cmd_eval(args) -> int:
    model_id, params = _load_model(args.checkpoint)
    if model_id not in MODEL_SPECS:
        raise DataError(f"{args.checkpoint}: unknown model id {model_id!r}")
    spec = MODEL_SPECS[model_id]
    client = load_client(args.data)
    _check_finite({"features": client.features}, args.data)
    features, inputs = client.features.shape[1], int(np.prod(spec.input_shape))
    if features != inputs:
        raise DataError(f"{args.data}: {features} features, model {model_id!r} takes {inputs}")
    x, y = client.split_xy(args.split)
    check_two_classes(y, spec.classes, f"{args.data}: split {args.split!r}")
    result = evaluate(predict_probs(params, spec, x), y, spec.classes)
    print(
        json.dumps(
            {
                "split": args.split,
                "samples": int(len(y)),
                "macro_f1": result.macro_f1,
                "macro_auc": result.macro_auc,
                "per_class_f1": list(result.f1),
            },
            indent=2,
        )
    )
    return 0


def _cmd_report(args) -> int:
    rows = read_curves(args.curves)
    clients = sorted({r.client for r in rows})
    print(f"{'client':>6} {'epochs':>6} {'best phi_p':>10} {'final phi_p':>11} {'mean comm delta':>15}")
    for c in clients:
        mine = [r for r in rows if r.client == c]
        phi = [r.phi_p for r in mine if not np.isnan(r.phi_p)]
        best, final = (f"{max(phi):.4f}", f"{phi[-1]:.4f}") if phi else ("n/a", "n/a")
        try:
            delta = f"{mean_boundary_change(rows, c):+.4f}"
        except ValueError:
            delta = "n/a"
        print(f"{c:>6} {len(mine):>6} {best:>10} {final:>11} {delta:>15}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fedfreq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-data", help="generate client dataset files")
    p.add_argument("--scale", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--ood", action="store_true", help="also write the held-out client")
    p.set_defaults(func=_cmd_synth_data)

    p = sub.add_parser("run", help="run an experiment from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", default="")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("aggregate", help="aggregate checkpoint files offline")
    p.add_argument("checkpoints", nargs="+")
    p.add_argument("--strategy", choices=[PFA, FEDAVG], default=PFA)
    p.add_argument("--r", type=float, default=0.35, help="low-frequency threshold for PFA")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_aggregate)

    p = sub.add_parser("eval", help="score a checkpoint on a dataset file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=["train", "val", "test"], default="test")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("report", help="summarize a curves.csv log")
    p.add_argument("--curves", required=True)
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except DivergenceError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
