"""End-to-end federated experiment runner.

A run executes ``total_epochs / local_epochs`` communication rounds over K
synthetic clients.  Within a round every client trains locally; at the
round boundary the server aggregates uploads with the configured strategy
and pushes the result back down.  Each strategy name is a row of
``STRATEGIES`` with three columns:

- *aggregator*: ``PFA`` (frequency-domain, one aggregate per client),
  ``FEDAVG`` (plain averaging, one shared aggregate) or none (no
  communication, ``LOCAL_ONLY``);
- *deputy*: the aggregate goes to a deputy model and is transferred into
  the untouched personalized model (the ``_DET`` rows; ``PFA_DET`` is the
  full method); otherwise it replaces the client's model;
- *prox*: local training adds a proximal pull ``mu * (w - w_anchor)``
  toward the last delivered model (``FEDPROX``).

Every client/epoch produces one log row (losses, validation scores, phase,
communication flag), which is enough to plot the post-communication
performance drop and its absence under the deputy scheme.  Deployed-model
selection is by best validation macro F1: the personalized model for deputy
strategies, the client's own model for LOCAL_ONLY/PFA_ONLY, and the
aggregated global model (no personalization) for FEDAVG/FEDPROX.

Runs are deterministic for a fixed config: every client draws from RNG
streams keyed by (experiment seed, profile seed), and client training can
be spread over worker threads without changing any result.
"""

from __future__ import annotations

import dataclasses
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .checkpoint import save_checkpoint
from .data import ClientData, ClientProfile, DataError, default_profiles, ood_client, synth
from .det import (
    ClientState,
    DetConfig,
    local_epoch,
    receive_deputy,
    train_step,
    upload_model,
    validation_f1,
)
from .freq_agg import (
    FEDAVG,
    PFA,
    AggregationRequest,
    ScheduleParams,
    fedavg_aggregate,
    pfa_aggregate,
    schedule_r,
)
from .metrics import evaluate
from .model import (
    MODEL_SPECS,
    Batch,
    ModelSpec,
    NamedTensorMap,
    OptimizerState,
    clone_params,
    forward,  # unused here; perfbench's tracer test checks that it rebinds this name
    init_params,
    predict_probs,
)


@dataclass(frozen=True)
class Strategy:
    """One row of the strategy table (see the module docstring)."""

    aggregator: str | None  # PFA, FEDAVG, or None for no communication
    deputy: bool  # deliver into a deputy instead of replacing the model
    prox: bool  # proximal pull toward the last delivered model

    @property
    def deploys_global(self) -> bool:
        """Whether the deployed model is the shared average, not a client's own."""
        return self.aggregator == FEDAVG and not self.deputy


STRATEGIES = {
    "PFA_DET": Strategy(PFA, deputy=True, prox=False),
    "FEDAVG": Strategy(FEDAVG, deputy=False, prox=False),
    "FEDPROX": Strategy(FEDAVG, deputy=False, prox=True),
    "LOCAL_ONLY": Strategy(None, deputy=False, prox=False),
    "PFA_ONLY": Strategy(PFA, deputy=False, prox=False),
    "FEDAVG_DET": Strategy(FEDAVG, deputy=True, prox=False),
}

# sub-stream tags under (seed, profile.seed, tag)
_INIT_STREAM = 1
_SHUFFLE_STREAM = 2


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass
class ExperimentConfig:
    strategy: str = "PFA_DET"
    num_clients: int = 4
    local_epochs: int = 5
    total_epochs: int = 250
    model_id: str = "mlp32"
    r0: float = 0.35
    r1: float = 0.48
    lambda1: float = 0.7
    lambda2: float = 0.9
    prox_mu: float = 0.01
    batch_size: int = 16
    base_lr: float = 1e-2
    lr_halving_period: int = 25
    data_scale: float = 0.1
    seed: int = 0
    out_dir: str = ""
    workers: int = 1

    def validate(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy {self.strategy!r}; choose from {list(STRATEGIES)}")
        if self.model_id not in MODEL_SPECS:
            raise ConfigError(f"unknown model_id {self.model_id!r}; choose from {sorted(MODEL_SPECS)}")
        if self.num_clients < 1:
            raise ConfigError("num_clients must be >= 1")
        if self.local_epochs < 1 or self.total_epochs < 1:
            raise ConfigError("epoch counts must be >= 1")
        if self.total_epochs % self.local_epochs != 0:
            raise ConfigError(
                f"total_epochs ({self.total_epochs}) must be divisible by "
                f"local_epochs ({self.local_epochs})"
            )
        if not 0.0 < self.r0 <= self.r1 < 0.5:
            raise ConfigError(f"need 0 < r0 <= r1 < 0.5, got {self.r0}, {self.r1}")
        if not 0.0 < self.lambda1 < self.lambda2 < 1.0:
            raise ConfigError(f"need 0 < lambda1 < lambda2 < 1, got {self.lambda1}, {self.lambda2}")
        if self.prox_mu < 0:
            raise ConfigError("prox_mu must be >= 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.base_lr < 0:
            raise ConfigError("base_lr must be >= 0")
        if self.lr_halving_period < 1:
            raise ConfigError("lr_halving_period must be >= 1")
        if not 0.0 < self.data_scale <= 1.0:
            raise ConfigError("data_scale must lie in (0, 1]")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse flat ``key = value`` lines; unknown keys are errors."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        values[key] = value
    cfg = ExperimentConfig()
    for key, value in values.items():
        current = getattr(cfg, key)
        try:
            if isinstance(current, int):
                parsed = int(value)
            elif isinstance(current, float):
                parsed = float(value)
            else:
                parsed = value
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {value!r}") from exc
        setattr(cfg, key, parsed)
    cfg.validate()
    return cfg


def load_config(path) -> ExperimentConfig:
    return parse_config_text(Path(path).read_text())


def config_echo(cfg: ExperimentConfig) -> str:
    return "".join(f"{k} = {v}\n" for k, v in sorted(dataclasses.asdict(cfg).items()))


@dataclass
class RoundRow:
    """One curves.csv row: a client's state after one local epoch."""

    epoch: int
    client: int
    phase: str
    ce_loss: float
    kl_loss: float
    phi_d: float
    phi_p: float
    r: float
    comm_event: int


@dataclass
class ClientOutcome:
    client: int
    best_epoch: int
    best_val_f1: float
    test_f1: float
    test_auc: float
    ood_f1: float
    ood_auc: float


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    rows: list[RoundRow]
    clients: list[ClientOutcome]
    macro_f1: float
    macro_auc: float
    ood_macro_f1: float
    ood_macro_auc: float
    best_params: dict[int, NamedTensorMap] = field(repr=False, default_factory=dict)


@dataclass
class _Runtime:
    """Mutable per-client training context owned by one worker at a time."""

    index: int
    data: ClientData
    shuffle_rng: np.random.Generator
    det: ClientState | None = None  # deputy strategies
    model: NamedTensorMap | None = None  # replacement / local strategies
    opt: OptimizerState | None = None
    anchor: NamedTensorMap | None = None  # proximal target, prox strategies only
    best_val: float = -1.0
    best_epoch: int = 0
    best_params: NamedTensorMap | None = None
    epoch_logs: list = field(default_factory=list)
    epoch_logs_offset: int = 0  # global epoch count before the current round


def _make_batches(x, y, batch_size: int, rng: np.random.Generator) -> list[Batch]:
    perm = rng.permutation(len(y))
    return [
        Batch(inputs=x[perm[i : i + batch_size]], labels=y[perm[i : i + batch_size]])
        for i in range(0, len(y), batch_size)
    ]


def _train_round(
    rt: _Runtime, spec: ModelSpec, cfg: ExperimentConfig, strategy: Strategy, det_cfg: DetConfig
) -> None:
    """Train one client for ``local_epochs`` epochs, recording per-epoch logs."""
    x, y = rt.data.train_xy()
    if len(y) == 0:
        raise DataError(f"client {rt.index} has an empty training split")
    val_x, val_y = rt.data.val_xy()
    prox = (cfg.prox_mu, rt.anchor) if strategy.prox and cfg.prox_mu > 0.0 else None
    rt.epoch_logs = []
    for _ in range(cfg.local_epochs):
        batches = _make_batches(x, y, cfg.batch_size, rt.shuffle_rng)
        if rt.det is not None:
            log = local_epoch(rt.det, spec, batches, (val_x, val_y), det_cfg)
            entry = (log.phase.name, log.ce_loss, log.kl_loss, log.phi_d, log.phi_p)
            candidate, val = rt.det.personalized, log.phi_p
        else:
            ce_sum = 0.0
            for batch in batches:
                rt.model, ce, _ = train_step(rt.model, rt.opt, spec, batch, prox=prox)
                ce_sum += ce
            rt.opt.epoch += 1
            val = validation_f1(rt.model, spec, val_x, val_y)
            entry = ("-", ce_sum / len(batches), 0.0, float("nan"), val)
            candidate = rt.model
        rt.epoch_logs.append(entry)
        # a strategy deploying the global model snapshots it at communication
        # points instead (see _communicate)
        if not strategy.deploys_global and val > rt.best_val:
            rt.best_val = val
            rt.best_params = clone_params(candidate)
            rt.best_epoch = rt.epoch_logs_offset + len(rt.epoch_logs)


def run_experiment(
    cfg: ExperimentConfig, profiles: list[ClientProfile] | None = None
) -> ExperimentResult:
    """Run the full protocol and return the report, log rows and best models."""
    cfg.validate()
    if profiles is None:
        base = default_profiles(cfg.data_scale)
        if cfg.num_clients > len(base):
            raise ConfigError(
                f"default profiles support up to {len(base)} clients, "
                f"got num_clients={cfg.num_clients}"
            )
        profiles = base[: cfg.num_clients]
    elif len(profiles) != cfg.num_clients:
        raise ConfigError("num_clients does not match the supplied profiles")

    strategy = STRATEGIES[cfg.strategy]
    spec = MODEL_SPECS[cfg.model_id]
    dataset = synth(profiles, cfg.seed)
    ood = ood_client(profiles, cfg.seed)
    schedule = ScheduleParams(cfg.r0, cfg.r1, cfg.total_epochs)
    det_cfg = DetConfig(cfg.lambda1, cfg.lambda2)

    # one shared initialization: aggregation (plain or frequency-domain) only
    # makes sense when client weight matrices start out aligned
    common_init = init_params(spec, [cfg.seed, _INIT_STREAM])

    runtimes: list[_Runtime] = []
    for i, (profile, cdata) in enumerate(zip(profiles, dataset.clients)):
        rt = _Runtime(
            index=i,
            data=cdata,
            shuffle_rng=np.random.default_rng([cfg.seed, profile.seed, _SHUFFLE_STREAM]),
        )
        opt_kw = dict(base_lr=cfg.base_lr, epoch=0, halving_period=cfg.lr_halving_period)
        if strategy.deputy:
            rt.det = ClientState(
                client_id=i,
                personalized=clone_params(common_init),
                deputy=clone_params(common_init),
                opt_p=OptimizerState(**opt_kw),
                opt_d=OptimizerState(**opt_kw),
            )
        else:
            rt.model = clone_params(common_init)
            rt.opt = OptimizerState(**opt_kw)
            if strategy.prox:
                rt.anchor = clone_params(common_init)
        runtimes.append(rt)

    rows: list[RoundRow] = []
    rounds = cfg.total_epochs // cfg.local_epochs
    pool = ThreadPoolExecutor(max_workers=cfg.workers) if cfg.workers > 1 else None
    try:
        for rnd in range(rounds):
            for rt in runtimes:
                rt.epoch_logs_offset = rnd * cfg.local_epochs
            if pool is not None:
                list(pool.map(lambda rt: _train_round(rt, spec, cfg, strategy, det_cfg), runtimes))
            else:
                for rt in runtimes:
                    _train_round(rt, spec, cfg, strategy, det_cfg)

            t_comm = (rnd + 1) * cfg.local_epochs
            communicates = strategy.aggregator is not None
            for e in range(cfg.local_epochs):
                epoch = rnd * cfg.local_epochs + e + 1
                for rt in runtimes:
                    phase, ce, kl, phi_d, phi_p = rt.epoch_logs[e]
                    rows.append(
                        RoundRow(
                            epoch=epoch,
                            client=rt.index,
                            phase=phase,
                            ce_loss=ce,
                            kl_loss=kl,
                            phi_d=phi_d,
                            phi_p=phi_p,
                            r=schedule_r(epoch, schedule),
                            comm_event=int(communicates and epoch == t_comm),
                        )
                    )
            if communicates:
                _communicate(runtimes, spec, strategy, schedule_r(t_comm, schedule), t_comm)
    finally:
        if pool is not None:
            pool.shutdown()

    return _finalize(cfg, rows, runtimes, spec, ood)


def _communicate(
    runtimes: list[_Runtime], spec: ModelSpec, strategy: Strategy, r: float, t: int
) -> None:
    uploads = [
        upload_model(rt.det) if rt.det is not None else clone_params(rt.model)
        for rt in runtimes
    ]
    if strategy.aggregator == PFA:
        aggregates = pfa_aggregate(AggregationRequest(uploads, r=r, strategy=PFA))
    else:
        global_params = fedavg_aggregate(AggregationRequest(uploads, strategy=FEDAVG))
        aggregates = [global_params] * len(runtimes)
    for rt, agg in zip(runtimes, aggregates):
        if rt.det is not None:
            receive_deputy(rt.det, agg)
            continue
        rt.model = clone_params(agg)
        if strategy.prox:
            rt.anchor = clone_params(agg)
        if strategy.deploys_global:
            # the deployed model is the global aggregate; snapshot it per
            # client whenever it improves on that client's validation split
            val = validation_f1(agg, spec, *rt.data.val_xy())
            if val > rt.best_val:
                rt.best_val = val
                rt.best_params = clone_params(agg)
                rt.best_epoch = t


def _finalize(cfg, rows, runtimes, spec, ood: ClientData) -> ExperimentResult:
    ood_x, ood_y = ood.test_xy()
    outcomes = []
    best_params: dict[int, NamedTensorMap] = {}
    for rt in runtimes:
        params = rt.best_params
        if params is None:  # no epoch improved on -1.0: cannot happen, but stay safe
            params = rt.det.personalized if rt.det is not None else rt.model
        best_params[rt.index] = params
        test_x, test_y = rt.data.test_xy()
        own = evaluate(predict_probs(params, spec, test_x), test_y, spec.classes)
        far = evaluate(predict_probs(params, spec, ood_x), ood_y, spec.classes)
        outcomes.append(
            ClientOutcome(
                client=rt.index,
                best_epoch=rt.best_epoch,
                best_val_f1=rt.best_val,
                test_f1=own.macro_f1,
                test_auc=own.macro_auc,
                ood_f1=far.macro_f1,
                ood_auc=far.macro_auc,
            )
        )
    return ExperimentResult(
        config=cfg,
        rows=rows,
        clients=outcomes,
        macro_f1=sum(c.test_f1 for c in outcomes) / len(outcomes),
        macro_auc=sum(c.test_auc for c in outcomes) / len(outcomes),
        ood_macro_f1=sum(c.ood_f1 for c in outcomes) / len(outcomes),
        ood_macro_auc=sum(c.ood_auc for c in outcomes) / len(outcomes),
        best_params=best_params,
    )


def mean_boundary_change(rows: list[RoundRow], client: int) -> float:
    """Mean change of the deployed model's validation F1 across communications.

    For every epoch t flagged as a communication event with a following
    epoch, accumulates ``phi_p(t+1) - phi_p(t)``.  Negative means the model
    the client trains right after a communication lost validation F1.
    """
    phi = {row.epoch: row.phi_p for row in rows if row.client == client}
    deltas = [
        phi[row.epoch + 1] - phi[row.epoch]
        for row in rows
        if row.client == client and row.comm_event and (row.epoch + 1) in phi
    ]
    if not deltas:
        raise ValueError(f"no communication boundaries logged for client {client}")
    return float(np.mean(deltas))


def results_payload(result: ExperimentResult) -> dict:
    """JSON-ready report: config echo, per-client metrics, macro averages."""
    return {
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "seed": result.config.seed,
        "strategy": result.config.strategy,
        "config": dataclasses.asdict(result.config),
        "clients": [dataclasses.asdict(c) for c in result.clients],
        "macro_f1": result.macro_f1,
        "macro_auc": result.macro_auc,
        "ood_macro_f1": result.ood_macro_f1,
        "ood_macro_auc": result.ood_macro_auc,
    }


def emit_report(rows: list[RoundRow], result: ExperimentResult, out_dir) -> list[Path]:
    """Write curves.csv, results.json and config.echo under ``out_dir``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    curves = out / "curves.csv"
    with curves.open("w") as fh:
        fh.write("epoch,client,phase,ce_loss,kl_loss,phi_d,phi_p,r,comm_event\n")
        for row in rows:
            fh.write(
                f"{row.epoch},{row.client},{row.phase},{row.ce_loss!r},"
                f"{row.kl_loss!r},{row.phi_d!r},{row.phi_p!r},{row.r!r},{row.comm_event}\n"
            )
    results = out / "results.json"
    results.write_text(json.dumps(results_payload(result), indent=2) + "\n")
    echo = out / "config.echo"
    echo.write_text(config_echo(result.config))
    return [curves, results, echo]


def save_run_checkpoints(result: ExperimentResult, out_dir) -> list[Path]:
    """Persist each client's selected model as a checkpoint file."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for client, params in sorted(result.best_params.items()):
        path = out / f"best_client_{client}.ckpt"
        save_checkpoint(params, path, model_id=result.config.model_id)
        paths.append(path)
    return paths
