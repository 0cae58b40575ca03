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
  toward one anchor shared by all clients: the common init until the first
  communication, then the last global model (``FEDPROX``, a FEDAVG row).

All clients live in one ``det.Cohort``, addressed by client, next to one
SGD schedule and one prox anchor.  The cohort holds the clients' training
splits and their batch layout; each epoch every client draws a permutation
of its split from its own stream, and one ``det.train_epoch`` call trains
them all on their permuted splits.  A communication fuses
``Cohort.uploads()`` with the aggregator, and ``Cohort.deliver`` puts the
result in the deputies, if any, else in ``p``.
Every client/epoch gives one log row (losses, validation scores, phase,
communication flag), enough to plot the post-communication performance
drop and its absence under the deputy scheme.  The deployed model is the
one with the best validation macro F1: the personalized model for deputy
strategies, the client's own model for LOCAL_ONLY/PFA_ONLY, and the global
model for FEDAVG/FEDPROX.  A config is checked once, when it is built, and
is frozen; :func:`emit_report` writes the run directory, results.json last.

Runs are deterministic for a fixed config: every client draws from RNG
streams keyed by (experiment seed, profile seed), and each client's numbers
are exactly those it would get training alone; ``tests/reference.py``
replays the protocol client by client, and every strategy must match it.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .checkpoint import save_checkpoint
from .data import ClientData, ClientProfile, DataError, check_scale, default_profiles, ood_client, synth
from .det import Cohort, DetConfig, DetPhase, train_epoch
from .freq_agg import FEDAVG, PFA, ScheduleParams, fedavg_fuse, pfa_fuse, schedule_r
from .metrics import check_two_classes, evaluate
from .model import MODEL_SPECS, NamedTensorMap, OptimizerState, init_params, predict_probs
from .model import forward  # unused here; perfbench's tracer test checks that it rebinds this name


@dataclass(frozen=True)
class Strategy:
    """One row of the strategy table (see the module docstring).

    The *prox* anchor is the common init until the first communication, then
    the last global model, so a prox row must aggregate with FEDAVG (PFA
    makes no global model).
    """

    aggregator: str | None  # PFA, FEDAVG, or None for no communication
    deputy: bool  # deliver into a deputy instead of replacing the model
    prox: bool  # proximal pull toward the global model

    def __post_init__(self) -> None:
        if self.prox and self.aggregator != FEDAVG:
            raise ValueError("a prox pull needs the global model that only FEDAVG makes")

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


@dataclass(frozen=True)
class ExperimentConfig:
    """One run's settings, checked at construction; change one with ``dataclasses.replace``."""

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

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy {self.strategy!r}; choose from {list(STRATEGIES)}")
        if self.model_id not in MODEL_SPECS:
            raise ConfigError(f"unknown model_id {self.model_id!r}; choose from {sorted(MODEL_SPECS)}")
        for key in ("num_clients", "local_epochs", "total_epochs", "batch_size"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1")
        if self.total_epochs % self.local_epochs != 0:
            raise ConfigError(
                f"total_epochs ({self.total_epochs}) must be divisible by "
                f"local_epochs ({self.local_epochs})"
            )
        try:  # the components state their own rules
            ScheduleParams(self.r0, self.r1, self.total_epochs)
            DetConfig(self.lambda1, self.lambda2)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        try:
            OptimizerState(self.base_lr, halving_period=self.lr_halving_period)
        except ValueError as exc:  # name the config keys, not OptimizerState's fields
            raise ConfigError(f"base_lr / lr_halving_period: {exc}") from exc
        for key in ("base_lr", "prox_mu"):  # a NaN slips past every "< 0" check
            if not np.isfinite(getattr(self, key)):
                raise ConfigError(f"{key} must be finite, got {getattr(self, key)}")
        if self.prox_mu < 0:
            raise ConfigError("prox_mu must be >= 0")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        check_scale(self.data_scale, "data_scale", ConfigError)
        if self.workers != 1:
            raise ConfigError(f"workers must be 1 (one process trains every client), got {self.workers}")


_DEFAULTS = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}


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
        if key not in _DEFAULTS:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: config key {key!r} repeats line {values[key][0]}")
        values[key] = lineno, value
    parsed = {}
    for key, (_, value) in values.items():
        try:  # every field is an int, a float or a str, so its default's type parses it
            parsed[key] = type(_DEFAULTS[key])(value)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {value!r}") from exc
    return ExperimentConfig(**parsed)


def load_config(path) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8-sig")  # a byte order mark is not part of a key
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: not a UTF-8 text file") from None
    return parse_config_text(text)


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


_CURVES_FIELDS = dataclasses.fields(RoundRow)
CURVES_HEADER = ",".join(f.name for f in _CURVES_FIELDS)
_PARSE = {"int": int, "str": str, "float": float}  # RoundRow's field annotations


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


def run_experiment(
    cfg: ExperimentConfig, profiles: list[ClientProfile] | None = None
) -> ExperimentResult:
    """Run the full protocol and return the report, log rows and best models."""
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
    # macro AUC is undefined on a test split with one class; fail before any training
    scored = {f"client {i}": c for i, c in enumerate(dataset.clients)}
    for who, cdata in {**scored, "the held-out cohort": ood}.items():
        check_two_classes(cdata.split_xy("test")[1], spec.classes, f"{who}'s test split")
    schedule = ScheduleParams(cfg.r0, cfg.r1, cfg.total_epochs)
    det_cfg = DetConfig(cfg.lambda1, cfg.lambda2)

    # one shared initialization: aggregation (plain or frequency-domain) only
    # makes sense when client weight matrices start out aligned
    common_init = init_params(spec, [cfg.seed, _INIT_STREAM])

    cohort = Cohort(
        [common_init] * cfg.num_clients,
        [common_init] * cfg.num_clients if strategy.deputy else None,
        [cdata.split_xy("train") for cdata in dataset.clients],
        [cdata.split_xy("val") for cdata in dataset.clients],
        cfg.batch_size,
    )
    rngs = [np.random.default_rng([cfg.seed, profile.seed, _SHUFFLE_STREAM]) for profile in profiles]
    opt = OptimizerState(cfg.base_lr, halving_period=cfg.lr_halving_period)
    # one anchor for every client: the common init, then each round's global model
    prox = (cfg.prox_mu, common_init) if strategy.prox and cfg.prox_mu > 0.0 else None

    rows: list[RoundRow] = []
    for epoch in range(1, cfg.total_epochs + 1):
        orders = [rng.permutation(cdata.splits[0]) for cdata, rng in zip(dataset.clients, rngs)]
        log = train_epoch(cohort, spec, orders, det_cfg, opt, prox)
        r = schedule_r(epoch, schedule)
        comm_event = int(strategy.aggregator is not None and epoch % cfg.local_epochs == 0)
        for j in range(cfg.num_clients):  # curves.csv rows
            phase = DetPhase(log.phase[j]).name if strategy.deputy else "-"
            logged = (float(log.ce_loss[j]), float(log.kl_loss[j]), float(log.phi_d[j]), float(log.phi_p[j]))
            rows.append(RoundRow(epoch, j, phase, *logged, r, comm_event))
        if not strategy.deploys_global:  # a global model is snapshot after its delivery instead
            cohort.keep_best(log.phi_p, epoch)
        if comm_event:
            # both aggregators read the p stack in client order: a mean in another order rounds differently
            uploads = cohort.uploads()
            aggregates = pfa_fuse(uploads, r) if strategy.aggregator == PFA else fedavg_fuse(uploads)
            cohort.deliver(aggregates)
            if prox is not None:  # a prox row aggregates with FEDAVG, so this is the global model
                prox = (cfg.prox_mu, aggregates)
            if strategy.deploys_global:  # the deployed model is the global one, now in every p
                cohort.keep_best(cohort.validation_f1(spec)[0], epoch)

    return _finalize(cfg, rows, cohort, dataset.clients, spec, ood)


def _finalize(cfg, rows, cohort: Cohort, clients: list[ClientData], spec, ood: ClientData) -> ExperimentResult:
    ood_x, ood_y = ood.split_xy("test")
    outcomes = []
    best_params: dict[int, NamedTensorMap] = {}
    for j, cdata in enumerate(clients):
        params = best_params[j] = {k: v[j] for k, v in cohort.best.items()}
        test_x, test_y = cdata.split_xy("test")
        own = evaluate(predict_probs(params, spec, test_x), test_y, spec.classes)
        far = evaluate(predict_probs(params, spec, ood_x), ood_y, spec.classes)
        outcomes.append(
            ClientOutcome(
                client=j,
                best_epoch=int(cohort.best_epoch[j]),
                best_val_f1=float(cohort.best_f1[j]),
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
    epoch, accumulates ``phi_p(t+1) - phi_p(t)``, skipping a boundary where
    either value is NaN.  Negative means the model the client trains right
    after a communication lost validation F1.
    """
    phi = {row.epoch: row.phi_p for row in rows if row.client == client and not np.isnan(row.phi_p)}
    deltas = [
        phi[row.epoch + 1] - phi[row.epoch]
        for row in rows
        if row.client == client and row.comm_event and row.epoch in phi and row.epoch + 1 in phi
    ]
    if not deltas:
        raise ValueError(f"no communication boundaries logged for client {client}")
    return float(np.mean(deltas))


def results_payload(result: ExperimentResult) -> dict:
    """JSON-ready report: config echo, per-client metrics, macro averages.

    The config echo leaves out ``out_dir``, so the same config gives the same
    bytes wherever the report is written.
    """
    return {
        "seed": result.config.seed,
        "strategy": result.config.strategy,
        "config": {k: v for k, v in dataclasses.asdict(result.config).items() if k != "out_dir"},
        "clients": [dataclasses.asdict(c) for c in result.clients],
        "macro_f1": result.macro_f1,
        "macro_auc": result.macro_auc,
        "ood_macro_f1": result.ood_macro_f1,
        "ood_macro_auc": result.ood_macro_auc,
    }


def emit_report(result: ExperimentResult, out_dir) -> list[Path]:
    """Write curves.csv, config.echo, each ``best_client_j.ckpt`` and, last, results.json under
    ``out_dir``, after deleting any earlier one, so a directory that holds results.json holds the whole run."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    results = out / "results.json"
    results.unlink(missing_ok=True)
    curves = out / "curves.csv"
    with curves.open("w") as fh:
        fh.write(CURVES_HEADER + "\n")
        for row in result.rows:  # str of a float is its repr, which reads back exactly
            fh.write(",".join(str(getattr(row, f.name)) for f in _CURVES_FIELDS) + "\n")
    echo = out / "config.echo"
    echo.write_text(config_echo(result.config))
    checkpoints = save_run_checkpoints(result, out)
    results.write_text(json.dumps(results_payload(result), indent=2) + "\n")
    return [curves, echo, *checkpoints, results]


def read_curves(path) -> list[RoundRow]:
    """Parse a curves.csv written by :func:`emit_report`.

    Raises DataError, naming the file and line, on a wrong header, a row with
    the wrong field count or a value that does not parse.
    """
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError:
        lines = []  # not text, so not a curves.csv file
    if not lines or lines[0] != CURVES_HEADER:
        raise DataError(f"{path}: not a curves.csv file")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        try:
            if len(parts) != len(_CURVES_FIELDS):
                raise ValueError(f"expected {len(_CURVES_FIELDS)} fields, got {len(parts)}")
            rows.append(RoundRow(*(_PARSE[f.type](v) for f, v in zip(_CURVES_FIELDS, parts))))
        except ValueError as exc:
            raise DataError(f"{path}: line {lineno}: {exc}") from exc
    return rows


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
