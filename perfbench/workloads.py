"""The benchmark's workloads: set-up, one operation, output checks, quality.

Each workload exposes the same small interface to ``run.py``:

- ``setup()`` writes the inputs (from the workload seed only) and warms up;
- ``op(i)`` performs operation ``i`` and returns what ``check`` needs; this
  is the only part that is timed and traced;
- ``check(i, result)`` returns a list of failed checks (empty when correct);
- ``quality()`` returns macro F1, held-out macro F1 and the boundary
  figures, computed from outputs the checks already validated;
- ``min_ops`` is the fewest operations a measured run makes, so that every
  check and quality input is covered;
- the traced run repeats operations ``0, stride, 2*stride, ...``, which all
  have the same inputs.

fedfreq functions are always called through their module attribute
(``checkpoint.save_checkpoint``), never through a name bound here, so the
tracer's wrappers see every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fedfreq import checkpoint, cli, data, freq_agg, metrics, model, orchestrator

CLIENTS = 4
CURVES_HEADER = "epoch,client,phase,ce_loss,kl_loss,phi_d,phi_p,r,comm_event"


@dataclass(frozen=True)
class TrainSpec:
    """One ``fedfreq run`` configuration, repeated over ``configs`` seeds."""

    strategy: str
    model_id: str
    local_epochs: int
    total_epochs: int
    data_scale: float
    configs: int  # distinct experiment seeds per invocation


# The paper's full method at the acceptance setting, and the replacement
# baseline on the conv model with validation after every epoch.  Quality
# figures are means over ``configs`` experiment seeds: even scored on the
# large held-out draws, one seed's F1 differs from the next by about 4%
# (det_mlp) to 9% (fedprox_conv).
TRAINING = {
    "det_mlp": TrainSpec("PFA_DET", "mlp32", 5, 100, 0.1, configs=12),
    "fedprox_conv": TrainSpec("FEDPROX", "conv4x8", 1, 100, 0.05, configs=12),
}
QUICK_TRAINING = {
    "det_mlp": TrainSpec("PFA_DET", "mlp32", 5, 10, 0.1, configs=2),
    "fedprox_conv": TrainSpec("FEDPROX", "conv4x8", 1, 4, 0.05, configs=2),
}


def experiment_seeds(seed: int, count: int) -> list[int]:
    """Distinct experiment seeds drawn from the workload seed."""
    rng = np.random.default_rng([seed, 0x5EED])
    return [int(s) for s in rng.choice(2**31, size=count, replace=False)]


def _silent_main(argv: list[str]) -> int:
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        return cli.main(argv)


class HeldOut:
    """Fixed full-size draws from each client's distribution and from the held-out cohort.

    A run's own test splits hold 16 to 77 samples per client at these data
    scales, and its held-out cohort 21 to 43, so the F1 in results.json
    carries sampling noise of several percent.  The benchmark scores the
    same checkpoints on these draws instead: about 10k client samples and
    3.4k cohort samples.  The draws are the benchmark's measuring instrument,
    not an input, so they do not depend on the workload seed; their seed lies
    outside the range experiment seeds are drawn from.
    """

    SEED = 2**31 + 1
    OOD_DRAWS = 8

    def __init__(self) -> None:
        profiles = data.default_profiles(1.0)
        self.clients = [(c.features, c.labels) for c in data.synth(profiles, self.SEED).clients]
        cohort = [data.ood_client(profiles, self.SEED + k) for k in range(self.OOD_DRAWS)]
        self.ood = (np.concatenate([c.features for c in cohort]), np.concatenate([c.labels for c in cohort]))

    def scores(self, model_id: str, per_client: list[dict]) -> tuple[list[float], list[float]]:
        """Macro F1 of client c's model on client c's draw, and on the cohort."""
        spec = model.MODEL_SPECS[model_id]

        def f1(params, xy):
            probs = model.predict_probs(params, spec, xy[0])
            return metrics.macro_f1(probs.argmax(axis=1), xy[1], spec.classes)

        return [f1(p, xy) for p, xy in zip(per_client, self.clients)], [f1(p, self.ood) for p in per_client]


def boundary_figures(curves_text: str) -> tuple[float, float, float]:
    """(mean over clients of phi_p(t+1)-phi_p(t) at communication epochs,
    sum of phi_p(t+1), sum of phi_p(t)) over the same boundaries."""
    phi: dict[tuple[int, int], float] = {}
    comm: list[tuple[int, int]] = []
    for line in curves_text.splitlines()[1:]:
        parts = line.split(",")
        epoch, client = int(parts[0]), int(parts[1])
        phi[client, epoch] = float(parts[6])
        if int(parts[8]):
            comm.append((client, epoch))
    per_client: dict[int, list[float]] = {}
    after = before = 0.0
    for client, epoch in comm:
        if (client, epoch + 1) in phi:
            a, b = phi[client, epoch + 1], phi[client, epoch]
            per_client.setdefault(client, []).append(a - b)
            after += a
            before += b
    delta = float(np.mean([np.mean(v) for v in per_client.values()]))
    return delta, after, before


class TrainingWorkload:
    """One ``fedfreq run`` per operation, in-process through ``cli.main``."""

    def __init__(self, spec: TrainSpec, seed: int, work: Path) -> None:
        self.spec = spec
        self.seeds = experiment_seeds(seed, spec.configs)
        self.work = work
        self.stride = spec.configs  # operations i = k * configs all run config 0
        self.min_ops = spec.configs + 1  # every config once, plus one rerun
        self.held_out: HeldOut | None = None
        self._digests: dict[int, str] = {}
        self._quality: dict[int, tuple[float, float, float, float, float]] = {}

    def _config_text(self, exp_seed: int, total_epochs: int) -> str:
        s = self.spec
        return (
            f"strategy = {s.strategy}\nmodel_id = {s.model_id}\n"
            f"num_clients = {CLIENTS}\nlocal_epochs = {s.local_epochs}\n"
            f"total_epochs = {total_epochs}\ndata_scale = {s.data_scale}\n"
            f"seed = {exp_seed}\nworkers = 1\n"
        )

    def setup(self) -> None:
        for j, exp_seed in enumerate(self.seeds):
            (self.work / f"exp_{j}.cfg").write_text(self._config_text(exp_seed, self.spec.total_epochs))
        self.held_out = HeldOut()
        # warm-up: one communication round of the first configuration
        warm = self.work / "warmup.cfg"
        warm.write_text(self._config_text(self.seeds[0], self.spec.local_epochs))
        rc = _silent_main(["run", "--config", str(warm), "--out-dir", str(self.work / "warmup")])
        if rc != 0:
            raise RuntimeError(f"warm-up run exited with code {rc}")
        shutil.rmtree(self.work / "warmup")

    def op(self, i: int) -> tuple[int, Path]:
        out = self.work / f"op_{i}"
        cfg = self.work / f"exp_{i % self.spec.configs}.cfg"
        return _silent_main(["run", "--config", str(cfg), "--out-dir", str(out)]), out

    def check(self, i: int, result: tuple[int, Path]) -> list[str]:
        rc, out = result
        try:
            return self._check_outputs(i, rc, out)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _check_outputs(self, i: int, rc: int, out: Path) -> list[str]:
        if rc != 0:
            return [f"exit code {rc}"]
        errors: list[str] = []
        s = self.spec
        curves = (out / "curves.csv").read_bytes()
        lines = curves.decode().splitlines()
        if not lines or lines[0] != CURVES_HEADER:
            return ["curves.csv header"]
        rows = [line.split(",") for line in lines[1:]]
        if len(rows) != CLIENTS * s.total_epochs:
            errors.append(f"curves.csv has {len(rows)} rows, expected {CLIENTS * s.total_epochs}")
        if not all(math.isfinite(float(r[3])) and math.isfinite(float(r[4])) for r in rows):
            errors.append("curves.csv has a non-finite loss")

        results = json.loads((out / "results.json").read_text())
        scores = [results[k] for k in ("macro_f1", "macro_auc", "ood_macro_f1", "ood_macro_auc")]
        for c in results["clients"]:
            scores += [c["test_f1"], c["test_auc"], c["ood_f1"], c["ood_auc"]]
        if not all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in scores):
            errors.append("an F1 or AUC score is non-finite or outside [0, 1]")

        digest = hashlib.sha256(curves)
        best = []
        for c in range(CLIENTS):
            path = out / f"best_client_{c}.ckpt"
            try:
                _, model_id, params = checkpoint.load_checkpoint_full(path)
            except (OSError, ValueError) as exc:
                errors.append(f"{path.name} does not reload: {exc}")
                continue
            if model_id != s.model_id:
                errors.append(f"{path.name} has model id {model_id!r}")
            if not all(np.all(np.isfinite(v)) for v in params.values()):
                errors.append(f"{path.name} holds non-finite parameters")
            digest.update(path.read_bytes())
            best.append(params)

        j = i % s.configs
        first = self._digests.setdefault(j, digest.hexdigest())
        if first != digest.hexdigest():
            errors.append(f"rerun of config {j} is not byte-identical")
        if not errors and j not in self._quality:
            f1, ood = self.held_out.scores(s.model_id, best)
            delta, after, before = boundary_figures(curves.decode())
            self._quality[j] = (float(np.mean(f1)), float(np.mean(ood)), delta, after, before)
        return errors

    def quality(self) -> dict[str, float]:
        q = [self._quality[j] for j in sorted(self._quality)]
        if not q:
            return {}
        return {
            "macro_f1": float(np.mean([v[0] for v in q])),
            "ood_macro_f1": float(np.mean([v[1] for v in q])),
            "boundary_delta": q[0][2],
            "boundary_retention": sum(v[3] for v in q) / sum(v[4] for v in q),
        }


# --- server_round -------------------------------------------------------------

# One server_round operation runs these (model, aggregator) pairs in this order.
SERVER_KINDS = (
    ("mlp32", freq_agg.PFA),
    ("mlp32", freq_agg.FEDAVG),
    ("conv4x8", freq_agg.PFA),
    ("conv4x8", freq_agg.FEDAVG),
)
R_RANGE = (0.35, 0.48)
# The inputs are client models after a short LOCAL_ONLY training, so the
# F1 of what the server delivers is a real figure: 5 epochs at lr 0.15 on
# scale-0.3 data reach about 0.57 macro F1, and vary less between seeds than
# shorter or slower training.  Two input sets shrink that variation further.
INPUT_SETS = 2
INPUT_SCALE = 0.3
INPUT_EPOCHS = 5
INPUT_LR = 0.15
FEDAVG_TOL = 1e-12
SPECTRUM_TOL = 1e-9  # relative to the largest amplitude of the matrix


def as_matrix(t: np.ndarray) -> np.ndarray | None:
    """The 2-D matrix PFA transforms for a parameter, or None for a 1-D one.

    Conv kernels (N, C, d1, d2) become (d1*N, d2*C) matrices with element
    (n, c, x, y) at row n*d1 + x, column c*d2 + y.
    """
    if t.ndim == 4:
        n, c, d1, d2 = t.shape
        return t.transpose(0, 2, 1, 3).reshape(n * d1, c * d2)
    return t if t.ndim == 2 else None


def low_band(rows: int, cols: int, r: float) -> np.ndarray:
    """Unshifted-DFT mask of frequencies with |m| <= floor(r*rows), |n| <= floor(r*cols)."""
    fr = np.abs(np.round(np.fft.fftfreq(rows, d=1.0 / rows)))
    fc = np.abs(np.round(np.fft.fftfreq(cols, d=1.0 / cols)))
    return (fr[:, None] <= math.floor(r * rows)) & (fc[None, :] <= math.floor(r * cols))


def check_pfa(inputs: list[dict], outputs: list[dict], r: float) -> list[str]:
    """PFA outputs share the low-band amplitude mean and keep each input's phase
    and high-band amplitudes; 1-D parameters are the element-wise mean."""
    errors = []
    for name in sorted(inputs[0]):
        ins = [as_matrix(m[name]) for m in inputs]
        outs = [as_matrix(m[name]) for m in outputs]
        if ins[0] is None:
            mean = np.mean([m[name] for m in inputs], axis=0)
            if max(float(np.max(np.abs(o[name] - mean))) for o in outputs) > FEDAVG_TOL:
                errors.append(f"PFA {name}: 1-D parameter is not the mean")
            continue
        f_in = [np.fft.fft2(m) for m in ins]
        f_out = [np.fft.fft2(m) for m in outs]
        band = low_band(*ins[0].shape, r)
        shared = np.mean([np.abs(f) for f in f_in], axis=0)
        tol = SPECTRUM_TOL * max(float(np.max(np.abs(f))) for f in f_in)
        for k, (fi, fo) in enumerate(zip(f_in, f_out)):
            expected = np.where(band, shared, np.abs(fi)) * np.exp(1j * np.angle(fi))
            if float(np.max(np.abs(fo - expected))) > tol:
                errors.append(f"PFA {name}: client {k} spectrum differs from shared amplitude + own phase")
            if float(np.max(np.abs(np.abs(fo[band]) - np.abs(f_out[0][band])))) > tol:
                errors.append(f"PFA {name}: client {k} low-band amplitude is not shared")
    return errors


def check_fedavg(inputs: list[dict], output: dict) -> list[str]:
    return [
        f"FEDAVG {name}: output is not the element-wise mean"
        for name in sorted(inputs[0])
        if float(np.max(np.abs(output[name] - np.mean([m[name] for m in inputs], axis=0)))) > FEDAVG_TOL
    ]


class ServerRoundWorkload:
    """The server side of a round, for both models and both aggregators.

    One operation runs the four (model, aggregator) pairs of SERVER_KINDS in
    order on input set ``i % INPUT_SETS``; each pair loads the 4 client
    checkpoints, fuses them and saves the result.  Timing the four together
    keeps the latency distribution unimodal: one pair alone takes 1 to 7 ms
    depending on the pair, and a median over an even mix of pairs would fall
    in the gap between them.
    """

    def __init__(self, seed: int, work: Path, quick: bool = False) -> None:
        self.seeds = experiment_seeds(seed, INPUT_SETS)
        self.work = work
        self.stride = INPUT_SETS  # operations i = k * INPUT_SETS all use input set 0
        self.min_ops = INPUT_SETS
        self.epochs = 1 if quick else INPUT_EPOCHS
        self._r_rng = np.random.default_rng([seed, 0x2])
        self.held_out: HeldOut | None = None
        self.inputs: list[dict[str, list[dict]]] = []  # per set: model id -> client maps
        self.paths: list[dict[str, list[Path]]] = []
        self._delivered: dict[int, list[list[dict]]] = {}  # per set: outputs by kind
        self._last: list[list[dict]] = []  # outputs of the round checked last

    def setup(self) -> None:
        """Train the input models, write their checkpoints and warm up."""
        for k, exp_seed in enumerate(self.seeds):
            inputs, paths = {}, {}
            for model_id in dict(SERVER_KINDS):
                cfg = orchestrator.ExperimentConfig(
                    strategy="LOCAL_ONLY",
                    model_id=model_id,
                    num_clients=CLIENTS,
                    local_epochs=self.epochs,
                    total_epochs=self.epochs,
                    data_scale=INPUT_SCALE,
                    base_lr=INPUT_LR,
                    seed=exp_seed,
                )
                result = orchestrator.run_experiment(cfg)
                folder = self.work / "inputs" / f"set_{k}" / model_id
                folder.mkdir(parents=True)
                inputs[model_id] = [result.best_params[c] for c in range(CLIENTS)]
                paths[model_id] = [folder / f"client_{c}.ckpt" for c in range(CLIENTS)]
                for params, path in zip(inputs[model_id], paths[model_id]):
                    checkpoint.save_checkpoint(params, path, model_id=model_id)
            self.inputs.append(inputs)
            self.paths.append(paths)
        self.held_out = HeldOut()
        warm_out = self.work / "warmup"
        warm_out.mkdir()
        warm = np.random.default_rng([self.seeds[0], 0x3])
        round_ = [self._fuse(0, kind, float(warm.uniform(*R_RANGE)), warm_out) for kind in SERVER_KINDS]
        errors = self._check_round(0, round_)
        shutil.rmtree(warm_out)
        if errors:
            raise RuntimeError(f"warm-up failed: {errors}")

    def op(self, i: int):
        out = self.work / f"op_{i}"
        out.mkdir()
        k = i % INPUT_SETS
        return [self._fuse(k, kind, float(self._r_rng.uniform(*R_RANGE)), out) for kind in SERVER_KINDS]

    def _fuse(self, k: int, kind: tuple[str, str], r: float, out: Path) -> tuple[float, list[Path]]:
        model_id, strategy = kind
        loaded = [checkpoint.load_checkpoint_full(p) for p in self.paths[k][model_id]]
        maps = [params for _, _, params in loaded]
        if strategy == freq_agg.PFA:
            aggregates = freq_agg.pfa_aggregate(
                freq_agg.AggregationRequest(maps, r=r, strategy=freq_agg.PFA)
            )
            written = [out / f"{model_id}_client_{c}.agg.ckpt" for c in range(CLIENTS)]
            for agg, path in zip(aggregates, written):
                checkpoint.save_checkpoint(agg, path, model_id=loaded[0][1])
        else:
            merged = freq_agg.fedavg_aggregate(
                freq_agg.AggregationRequest(maps, strategy=freq_agg.FEDAVG)
            )
            written = [out / f"{model_id}_global.ckpt"]
            checkpoint.save_checkpoint(merged, written[0], model_id=loaded[0][1])
        return r, written

    def check(self, i: int, result) -> list[str]:
        k = i % INPUT_SETS
        try:
            errors = self._check_round(k, result)
        finally:
            shutil.rmtree(self.work / f"op_{i}", ignore_errors=True)
        if not errors and k not in self._delivered:
            self._delivered[k] = self._last
        return errors

    def _check_round(self, k: int, result) -> list[str]:
        errors, self._last = [], []
        for (model_id, strategy), (r, written) in zip(SERVER_KINDS, result):
            outputs = []
            for path in written:
                try:
                    _, stored_id, params = checkpoint.load_checkpoint_full(path)
                except (OSError, ValueError) as exc:
                    return [f"{path.name} does not reload: {exc}"]
                if stored_id != model_id:
                    return [f"{path.name} has model id {stored_id!r}"]
                outputs.append(params)
            inputs = self.inputs[k][model_id]
            if strategy == freq_agg.PFA:
                errors += check_pfa(inputs, outputs, r)
            else:
                errors += check_fedavg(inputs, outputs[0])
                outputs = outputs * CLIENTS  # every client receives the global model
            self._last.append(outputs)
        return errors

    def quality(self) -> dict[str, float]:
        """Held-out F1 of the models each input set's first round delivered, against the uploads."""
        if not self._delivered:
            return {}
        f1, ood, deltas = [], [], []
        after = before = 0.0
        for k, delivered_by_kind in sorted(self._delivered.items()):
            sent = {m: self.held_out.scores(m, maps)[0] for m, maps in self.inputs[k].items()}
            for (model_id, _), delivered in zip(SERVER_KINDS, delivered_by_kind):
                got, got_ood = self.held_out.scores(model_id, delivered)
                f1 += got
                ood += got_ood
                deltas += [a - b for a, b in zip(got, sent[model_id])]
                after += sum(got)
                before += sum(sent[model_id])
        return {
            "macro_f1": float(np.mean(f1)),
            "ood_macro_f1": float(np.mean(ood)),
            "boundary_delta": float(np.mean(deltas)),
            "boundary_retention": after / before,
        }


def make_workload(name: str, seed: int, work: Path, quick: bool = False):
    if name == "server_round":
        return ServerRoundWorkload(seed, work, quick)
    return TrainingWorkload((QUICK_TRAINING if quick else TRAINING)[name], seed, work)
