"""Deputy-enhanced transfer: the two-model training scheme, run over a cohort of clients.

Each client keeps a *personalized* model ``p`` that is deployed, uploaded
and never overwritten by communication, plus a *deputy* ``d`` that absorbs
every server aggregate.  A freshly delivered deputy performs poorly on the
local task, so each communication window walks through three phases:

- RECOVER: ``p`` trains on cross entropy alone; ``d`` trains on cross
  entropy plus a KL pull toward ``p`` (the local teacher) to win back local
  competence.
- EXCHANGE: once ``phi(d) >= lambda1 * phi(p)`` the two models learn
  mutually -- per batch the deputy updates first (same loss as RECOVER),
  then ``p`` trains on cross entropy plus a KL pull toward the deputy.
- SUBLIMATE: once ``phi(d) >= lambda2 * phi(p)`` the deputy becomes the
  teacher: ``d`` trains on cross entropy alone and ``p`` keeps the
  EXCHANGE-style distillation loss.

``phi`` is macro F1 on the held-out validation split, recomputed once per
local epoch; phases only move forward within a window and reset to RECOVER
whenever a new deputy arrives.  Thresholds are inclusive (``>=``), so
``phi(p) == 0`` jumps straight to SUBLIMATE.

Clients without a deputy run the baselines: aggregates replace ``p``, which
trains on cross entropy alone (plus an optional FedProx pull); the phase
stays RECOVER and ``phi(d)`` logs as NaN.

A run's clients live in one :class:`Cohort`, which takes and returns
everything by client.  Inside, each parameter is one ``(M, K, ...)``
buffer: M = 2 models per client with deputies, M = 1 without, and the
clients in *slot* order, sorted once by training rows (descending,
stable), an order only this module knows.  The cohort holds each client's
training split and fixes the batch layout once, at construction: its
``plan`` lists, batch index by batch index, the groups of neighbouring
slots whose batches have the same row count, each with its views of the
buffer.  :func:`train_epoch` takes each client's permutation of its split
for the epoch and trains the buffer in place, one :func:`group_step` per
group of the plan.  A group step makes one forward pass and one cross
entropy over both models of every client in the group, then the deputy's
step, then ``p``'s; each step applies SGD inside its backward walk
(:func:`model.descend`).  It runs the same per-(model, client) BLAS calls as
each model of each client alone, 1-row batches included, so every client
gets exactly the numbers it would get training alone (see the ``model``
docstring for why merging the models changes no bit).  Batches are never
zero-padded to a common size, because padding changes the rounding: the
32->3 output matmul differs when the row count is not a multiple of 4, and
a 1-row batch takes OpenBLAS's matrix-vector path.

Validation is the exception: one forward pass over the buffer scores every
``p`` and every deputy (:func:`stacked_validation_f1`) on the validation
splits, zero-padded once per run to the longest (:func:`pad_splits`), whose
label range (:class:`metrics.PaddedLabels`) is taken once too.  Every
validation pass of a run is this call on the buffer
(:meth:`Cohort.validation_f1`), the score of a delivered global model
included.  Padding may change the last bits of a probability, but
only each scored row's argmax is used and padded rows are never scored, so
a score can differ from scoring the model alone only where two class
probabilities lie within rounding of each other.  The property tests check that the two agree.

One client outside a run is a :class:`ClientState`; :func:`local_epoch`
trains it as a cohort of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from itertools import pairwise

import numpy as np

from .metrics import PaddedLabels
from .model import (
    ModelSpec,
    NamedTensorMap,
    OptimizerState,
    ce_loss,
    check_same_structure,
    clone_params,
    descend,
    forward,
    kl_div,
    predict_probs,
    stack_params,
)


class DivergenceError(ArithmeticError):
    """A model's parameters stopped being finite during local training."""


class DetPhase(IntEnum):
    RECOVER = 0
    EXCHANGE = 1
    SUBLIMATE = 2


@dataclass(frozen=True)
class DetConfig:
    """Phase thresholds; must satisfy 0 < lambda1 < lambda2 < 1."""

    lambda1: float = 0.7
    lambda2: float = 0.9

    def __post_init__(self) -> None:
        if not 0.0 < self.lambda1 < self.lambda2 < 1.0:
            raise ValueError(
                f"need 0 < lambda1 < lambda2 < 1, got {self.lambda1}, {self.lambda2}"
            )


@dataclass
class ClientState:
    """One client's models and phase; no deputy if replacing.  The caller owns the schedule."""

    personalized: NamedTensorMap
    deputy: NamedTensorMap | None
    phase: DetPhase = DetPhase.RECOVER


@dataclass
class EpochLog:
    """One epoch's losses of ``p``, both phis and the new phase, as ``(K,)`` arrays or scalars."""

    ce_loss: float | np.ndarray
    kl_loss: float | np.ndarray
    phi_d: float | np.ndarray
    phi_p: float | np.ndarray
    phase: DetPhase | np.ndarray


class Cohort:
    """K clients' models and run state, taken and returned by client (see the module docstring).

    Holds copies of client j's ``p[j]`` and deputy ``d[j]`` (every client
    has one or none does) and its splits ``train[j]`` and ``val[j]``.
    Inside, the models are the ``(M, K, ...)`` buffers ``models``, with
    ``p`` and ``d`` as views of their halves, and the splits (validation
    ones padded) are in slot order: the training rows fix it, slot s holds
    client ``clients[s]``, and client j sits in slot ``slots[j]``.
    ``plan`` holds an epoch's ``(i, a, b, group)`` group steps: slots
    ``a:b`` train their batch i, rows from ``i * batch_size``, on the
    ``models`` views ``group``, valid as long as nothing replaces a buffer;
    slot s has ``batches[s]`` batches.  By client: ``phases`` (RECOVER at
    first), ``best``, each client's best ``p`` so far, its validation F1 in
    ``best_f1`` (-1.0 before the first snapshot) and its epoch in
    ``best_epoch``.  An empty training split, or one whose inputs and
    labels differ in row count, raises ValueError naming the client.
    """

    def __init__(
        self,
        p: list[NamedTensorMap],
        d: list[NamedTensorMap] | None,
        train: list[tuple[np.ndarray, np.ndarray]],
        val: list[tuple[np.ndarray, np.ndarray]],
        batch_size: int,
    ) -> None:
        if len(train) != len(p):
            raise ValueError(f"need one training split per client ({len(p)}), got {len(train)}")
        for j, (x, y) in enumerate(train):
            if len(y) == 0:
                raise ValueError(f"client {j}'s training split is empty")
            if len(x) != len(y):
                raise ValueError(f"client {j}'s training split has {len(x)} inputs but {len(y)} labels")
        self.clients = np.array(sorted(range(len(p)), key=lambda j: -len(train[j][1])))  # stable
        self.slots = np.argsort(self.clients)
        self.train = [train[j] for j in self.clients]
        maps = [p[j] for j in self.clients] + ([] if d is None else [d[j] for j in self.clients])
        self.models = {k: v.reshape(-1, len(p), *v.shape[1:]) for k, v in stack_params(maps).items()}
        self.p = {k: v[0] for k, v in self.models.items()}
        self.d = None if d is None else {k: v[1] for k, v in self.models.items()}
        rows = np.array([len(y) for _, y in self.train])
        self.batch_size, self.batches = batch_size, -(-rows // batch_size)
        # each batch index's row count per slot (0: no batch); a group is a run of one nonzero count
        sizes = np.clip(rows - batch_size * np.arange(self.batches[0])[:, None], 0, batch_size)
        self.plan = [
            (i, a, b, {k: v[:, a:b] for k, v in self.models.items()})
            for i, size in enumerate(sizes)
            for a, b in pairwise([0, *np.flatnonzero(np.diff(size)) + 1, len(size)])
            if size[a]
        ]
        self.phases = np.full(len(p), DetPhase.RECOVER)
        self.val = pad_splits([val[j] for j in self.clients])
        self.best = self.uploads()
        self.best_f1 = np.full(len(p), -1.0)
        self.best_epoch = np.zeros(len(p), dtype=np.int64)

    def uploads(self) -> NamedTensorMap:
        """A copy of the ``p`` stack in client order."""
        return {k: v[self.slots] for k, v in self.p.items()}

    def validation_f1(self, spec: ModelSpec) -> np.ndarray:
        """``(M, K)`` macro F1 of every ``p`` (row 0) and deputy (row 1) on its client's split, by client."""
        return stacked_validation_f1(self.models, spec, self.val)[:, self.slots]

    def keep_best(self, f1: np.ndarray, epoch: int) -> None:
        """Snapshot client j's ``p`` wherever ``f1[j]`` beats its best; copies only those rows."""
        better = f1 > self.best_f1
        for k, v in self.best.items():
            v[better] = self.p[k][self.slots[better]]
        self.best_f1[better] = f1[better]
        self.best_epoch[better] = epoch

    def deliver(self, aggregates: NamedTensorMap) -> None:
        """Write a ``(K, ...)`` stack in client order, or one map for every client, into the
        deputies if the cohort has them, else into ``p``; phases go back to RECOVER."""
        for k, v in (self.p if self.d is None else self.d).items():
            v[self.slots] = aggregates[k]
        self.phases[:] = DetPhase.RECOVER


def det_phase_transition(phi_d, phi_p, cfg: DetConfig, current):
    """Next phase from validation scores; never moves backward in a window.

    Scalar scores and phase give a DetPhase; ``(K,)`` arrays give an int array.
    """
    target = np.where(
        phi_d >= cfg.lambda2 * phi_p,
        DetPhase.SUBLIMATE,
        np.where(phi_d >= cfg.lambda1 * phi_p, DetPhase.EXCHANGE, DetPhase.RECOVER),
    )
    after = np.maximum(target, current)
    return DetPhase(int(after)) if after.ndim == 0 else after


def receive_deputy(state: ClientState, aggregated: NamedTensorMap) -> None:
    """Install a server aggregate as the deputy; ``p`` is untouched.

    Resets the phase to RECOVER.  Raises ValueError if the aggregate does
    not structurally match the client's models.
    """
    check_same_structure([state.personalized, aggregated])
    state.deputy = clone_params(aggregated)
    state.phase = DetPhase.RECOVER


def upload_model(state: ClientState) -> NamedTensorMap:
    """Deep copy of the personalized model, safe for the caller to mutate."""
    return clone_params(state.personalized)


def local_epoch(
    state: ClientState,
    spec: ModelSpec,
    train: tuple[np.ndarray, np.ndarray],
    batch_size: int,
    val: tuple[np.ndarray, np.ndarray],
    cfg: DetConfig,
    opt: OptimizerState,
    prox: tuple[float, NamedTensorMap] | None = None,
) -> EpochLog:
    """One client's epoch: :func:`train_epoch` over a cohort of one; updates ``state``."""
    deputy = None if state.deputy is None else [state.deputy]
    cohort = Cohort([state.personalized], deputy, [train], [val], batch_size)
    cohort.phases[0] = state.phase
    log = train_epoch(cohort, spec, [np.arange(len(train[1]))], cfg, opt, prox)
    state.personalized = {k: v[0] for k, v in cohort.p.items()}
    if cohort.d is not None:
        state.deputy = {k: v[0] for k, v in cohort.d.items()}
    state.phase = DetPhase(int(cohort.phases[0]))
    return EpochLog(*(float(v[0]) for v in (log.ce_loss, log.kl_loss, log.phi_d, log.phi_p)), state.phase)


def train_epoch(
    cohort: Cohort,
    spec: ModelSpec,
    orders: list[np.ndarray],
    cfg: DetConfig,
    opt: OptimizerState,
    prox: tuple[float, NamedTensorMap] | None = None,
) -> EpochLog:
    """One local epoch for every client of ``cohort`` at once, then re-evaluate each.

    ``orders[j]`` is client j's permutation of its training split for this
    epoch: the epoch trains on ``(x[orders[j]], y[orders[j]])``, batched by
    ``cohort.plan``.  Every step uses ``opt``'s learning rate; ``opt.epoch``
    advances by one at the end.  ``prox = (mu, anchor)`` pulls every ``p``
    toward the one anchor map.  Each client's phase decides its
    distillation (see the module docstring).  After the pass every
    parameter must be finite, else :class:`DivergenceError` names the
    client, epoch and tensor; then every model is scored on its client's
    validation split and the transition rule updates ``cohort.phases``.
    Returns an :class:`EpochLog` of arrays by client.  Before any training,
    a wrong number of permutations, or one whose length is not its split's
    row count, raises ValueError (naming the client).
    """
    clients, p, d, models = cohort.clients, cohort.p, cohort.d, cohort.models
    if len(orders) != len(clients):
        raise ValueError(f"need one permutation per client ({len(clients)}), got {len(orders)}")
    for j, (_, y) in zip(clients, cohort.train):
        if len(orders[j]) != len(y):
            raise ValueError(f"client {j}'s permutation has {len(orders[j])} entries for {len(y)} rows")
    train = [(x[orders[j]], y[orders[j]]) for j, (x, y) in zip(clients, cohort.train)]  # slot order

    # RECOVER: d learns from p; EXCHANGE: each from the other; SUBLIMATE: p from d
    phases = cohort.phases[clients]
    deputy_distils = (phases < DetPhase.SUBLIMATE).tolist()
    personal_distils = ((phases > DetPhase.RECOVER) & (d is not None)).tolist()
    ce_sum, kl_sum = np.zeros(len(clients)), np.zeros(len(clients))
    lr = opt.lr
    # an overflow shows up as a non-finite parameter, which the check below reports
    with np.errstate(over="ignore", invalid="ignore"):
        for i, a, b, group in cohort.plan:
            rows = slice(i * cohort.batch_size, (i + 1) * cohort.batch_size)
            x = np.array([inputs[rows] for inputs, _ in train[a:b]])  # np.stack costs more
            y = np.array([labels[rows] for _, labels in train[a:b]])
            ce, kl = group_step(group, spec, x, y, deputy_distils[a:b], personal_distils[a:b], lr, prox)
            ce_sum[a:b] += ce
            if kl is not None:
                kl_sum[a:b] += kl

    if not all(np.isfinite(v).all() for v in models.values()):
        named = {"personalized": p} if d is None else {"personalized": p, "deputy": d}
        for name, stack in named.items():
            for key, v in stack.items():
                finite = np.isfinite(v).reshape(len(v), -1).all(axis=1)
                if not finite.all():
                    raise DivergenceError(
                        f"client {clients[~finite].min()} diverged in epoch {opt.epoch + 1}: "
                        f"{name} tensor {key!r} is not finite"
                    )

    phi = cohort.validation_f1(spec)  # (M, K): p, then the deputies
    phi_p, phi_d = phi[0], np.full(len(clients), np.nan)
    if d is not None:
        phi_d = phi[1]
        cohort.phases = det_phase_transition(phi_d, phi_p, cfg, cohort.phases)
    opt.epoch += 1
    ce, kl = ce_sum / cohort.batches, kl_sum / cohort.batches
    return EpochLog(ce[cohort.slots], kl[cohort.slots], phi_d, phi_p, cohort.phases.copy())


def group_step(
    models: NamedTensorMap,
    spec: ModelSpec,
    x: np.ndarray,
    y: np.ndarray,
    deputy_distils: list[bool],
    personal_distils: list[bool],
    lr: float,
    prox: tuple[float, NamedTensorMap] | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """One SGD step of g clients' models on one batch each, in place; returns ``p``'s (CE, KL).

    ``models`` holds ``(M, g, ...)`` views: ``p``, then the deputy if M = 2.
    ``x`` is ``(g, n, ...)`` and ``y`` ``(g, n)``.  One forward pass and
    one CE serve both models.  The deputy steps first, on CE plus, where
    ``deputy_distils``, a KL pull toward ``p``'s probabilities; then ``p``
    steps on CE plus, where ``personal_distils``, a KL pull toward the
    updated deputy's, which takes a second forward pass.  ``prox`` pulls
    only ``p``.  The KL is per client, or None if no client distils.
    """
    probs, cache = forward(models, spec, x)  # (M, g, n, classes)
    ce, dlogits = ce_loss(probs, y)
    teacher_probs = None
    if len(probs) == 2:
        _distil(dlogits[1], probs[1], probs[0], deputy_distils)
        descend(cache, dlogits[1], lr, 1)
        if any(personal_distils):
            teacher_probs = forward({k: v[1] for k, v in models.items()}, spec, x)[0]  # cache freed now
    kl = _distil(dlogits[0], probs[0], teacher_probs, personal_distils)
    descend(cache, dlogits[0], lr, 0, prox)
    return ce[0], kl


def _distil(dlogits, probs, teacher_probs, distils: list[bool]):
    """Adds to ``dlogits``, in place, a KL pull toward ``teacher_probs`` for the clients flagged in
    ``distils``; returns their per-client KL, 0.0 for the others, or None if none is flagged."""
    if not any(distils):
        return None
    kl, dkl = kl_div(probs, teacher_probs)
    if all(distils):
        dlogits += dkl
        return kl
    mask = np.array(distils)
    np.add(dlogits, dkl, out=dlogits, where=mask[:, None, None])
    return np.where(mask, kl, 0.0)


def pad_splits(vals: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, PaddedLabels]:
    """K splits ``(inputs, labels)`` as ``(x, labels)``: split j fills ``counts[j]`` rows of
    ``x[j]`` and of the label rows, zero-padded to the longest split.  Raises ValueError on an
    empty split."""
    counts = np.array([len(y) for _, y in vals])
    x = np.zeros((len(vals), counts.max(), *np.shape(vals[0][0])[1:]))
    y = np.zeros(x.shape[:2], dtype=np.int64)
    for j, (val_x, val_y) in enumerate(vals):
        x[j, : len(val_y)] = val_x
        y[j, : len(val_y)] = val_y
    return x, PaddedLabels(y, counts)


def stacked_validation_f1(
    params: NamedTensorMap, spec: ModelSpec, val: tuple[np.ndarray, PaddedLabels]
) -> np.ndarray:
    """Macro F1 of each of K stacked models on its own split, in one forward pass.

    ``params`` holds ``(K, ...)`` tensors, or an ``(M, K, ...)`` buffer
    whose M models per client are all scored, as ``(M, K)``; a run passes
    its cohort's buffer.  ``val`` is the K splits padded by
    :func:`pad_splits`; padded rows are not scored (see the module docstring
    for why padding is safe here).  Raises ValueError on a label or
    prediction out of class range.
    """
    x, labels = val
    probs = predict_probs(params, spec, x)
    return labels.macro_f1(probs.argmax(axis=-1), spec.classes)
