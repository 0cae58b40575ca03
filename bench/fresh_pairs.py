"""Paired perfbench runs of two checkouts, each in a fresh process, written to ``BENCH_<tag>.json``.

``bench/ab.py`` imports both trees into one interpreter, so whatever is set
once per process (numpy's BLAS thread count, for one) is shared by its two
sides.  This script runs ``perfbench/run.py`` of each checkout root in its
own interpreter, as the benchmark does.  For each workload it makes the given
number of pairs; pair i runs seed ``--seed`` + i on both sides, and the side
that runs first alternates from pair to pair.  Per end-to-end metric, in the
order and with the better direction that ``BENCHMARK.json`` gives, the file
holds each side's values, median and quartiles, the per-pair change/base
ratios, the pairs the change wins (ties count for neither side) and whether
a gain is shown: wins in at least 9 of 10 pairs, and medians apart, in the
better direction, by more than the base's quartile spread.  It also holds
the machine facts and the commit that each side's runs printed, and whether
each checkout differs from its commit.  Only the standard library is used.

Usage, from the repository root::

    python bench/fresh_pairs.py --base ../parent --change . --tag blas_threads \\
        --workload server_round:10 --workload det_mlp:5 --seed 7000
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("base", "change")
ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900  # one perfbench run: its set-up probes, its set-up and --seconds of operations


def perfbench(root: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One ``perfbench/run.py`` run of checkout ``root`` in a fresh interpreter; returns (machine, result)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        raise SystemExit(f"{root} {workload} seed {seed}: exit code {done.returncode}\n{done.stderr[-2000:]}")
    *_, machine, result = done.stdout.strip().splitlines()
    return json.loads(machine)["machine"], json.loads(result)


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(metric: dict, values: dict) -> dict:
    """One end-to-end metric's paired summary; ``values`` holds each side's values in pair order."""
    sign = 1.0 if metric["better"] == "lower" else -1.0  # sign * (base - change) > 0: the change is better
    base, change = quartiles(values["base"]), quartiles(values["change"])
    wins = sum(sign * (b - c) > 0 for b, c in zip(values["base"], values["change"]))
    pairs = len(values["base"])
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        **{f"{side}_values": values[side] for side in SIDES},
        "base_quartiles": base,
        "change_quartiles": change,
        "ratios_change_over_base": [c / b if b else None for b, c in zip(values["base"], values["change"])],
        "change_wins": wins,
        "gain_shown": wins >= 0.9 * pairs and sign * (base["median"] - change["median"]) > base["q3"] - base["q1"],
    }


def git_dirty(root: Path) -> bool | None:
    """Whether checkout ``root`` differs from its commit; None outside git or without git."""
    try:
        done = subprocess.run(["git", "-C", str(root), "status", "--porcelain"], capture_output=True, text=True)
    except OSError:
        return None
    return bool(done.stdout.strip()) if done.returncode == 0 else None


def parse_workload(text: str) -> tuple[str, int]:
    name, _, pairs = text.partition(":")
    return name, int(pairs or 10)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, type=Path, help="root of the reference checkout")
    parser.add_argument("--change", required=True, type=Path, help="root of the changed checkout")
    parser.add_argument("--tag", required=True, help="names the output file BENCH_<tag>.json")
    parser.add_argument("--workload", required=True, action="append", type=parse_workload,
                        help="NAME or NAME:PAIRS (default 10 pairs); repeat for several workloads")
    parser.add_argument("--seed", type=int, required=True, help="perfbench seed of each workload's first pair")
    parser.add_argument("--seconds", type=float, help="run length (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--out", type=Path, help="output path (default: BENCH_<tag>.json at the repo root)")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or benchmark["run_seconds"]
    roots = {side: getattr(args, side).resolve() for side in SIDES}
    if any(pairs < 2 for _, pairs in args.workload):
        raise SystemExit("each workload needs at least 2 pairs")

    machines = {side: [] for side in SIDES}
    workloads = {}
    for workload, pairs in args.workload:
        results = {side: [] for side in SIDES}
        first = []
        for i in range(pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            first.append(order[0])
            for side in order:
                machine, result = perfbench(roots[side], workload, args.seed + i, seconds)
                machines[side].append(machine)
                results[side].append(result)
        row = workloads[workload] = {
            "pairs": pairs,
            "seeds": [args.seed + i for i in range(pairs)],
            "first": first,
            "failed_ops": {side: [r["failed"] for r in results[side]] for side in SIDES},
            "metrics": {},
        }
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            values = {side: [r["metrics"][name]["value"] for r in results[side]] for side in SIDES}
            summary = row["metrics"][name] = compare(metric, values)
            print(f"{workload:<13} {name:<19} {summary['base_quartiles']['median']:10.4g} -> "
                  f"{summary['change_quartiles']['median']:10.4g} {metric['unit']:<5} "
                  f"change better in {summary['change_wins']}/{pairs} pairs, gain shown: {summary['gain_shown']}")

    trees = {}
    for side in SIDES:
        facts = {k: v for k, v in machines[side][0].items() if k != "git_commit"}
        trees[side] = {
            "root": str(roots[side]),
            "commits_printed": sorted({m["git_commit"] for m in machines[side]}),
            "dirty": git_dirty(roots[side]),
            "machine": facts,
        }
    report = {
        "tag": args.tag,
        "command": "perfbench/run.py --trace 0, one fresh process per run",
        "seconds": seconds,
        "trees": trees,
        "workloads": workloads,
    }
    out = args.out or ROOT / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
