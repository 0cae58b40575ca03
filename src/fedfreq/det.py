"""Deputy-enhanced transfer: the per-client two-model training scheme.

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

A client without a deputy (``deputy = None``) runs the baselines:
aggregates replace ``p``, which trains on cross entropy alone (plus an
optional FedProx pull); its phase stays RECOVER and ``phi(d)`` logs as NaN.

The SGD schedule is run-wide: the caller owns one ``OptimizerState``, passes
it to every :func:`train_epoch` call and that call advances it by one epoch,
so both models of every client always step at the same learning rate.

All clients train together (:func:`train_epoch`).  Each model's parameters
are stacked along a leading client axis, with the clients sorted once by
batch count (descending, stable), so the clients that still have a batch at
index i are a prefix of the stack.  At each batch index every client with a
batch left makes its deputy step, then its ``p`` step.  The clients of that
prefix train in groups of neighbours whose batches have the same row count;
each group is a slice view of the stack, updated in place.  Each phase gives
a per-client 0/1 distillation mask, and ``p``'s forward pass on a batch
serves both as the deputy's teacher and as ``p``'s own step.  Every client
gets exactly the numbers it would get training alone.  Short batches are
never zero-padded to a common size, because padding changes the rounding:
the 32->3 output matmul differs when the row count is not a multiple of 4,
and a 1-row batch takes OpenBLAS's matrix-vector path.  Clients whose batches
have the same row count, 1-row batches included, run the same per-client
BLAS calls in a stack as alone.

Validation is the exception: after the epoch one forward pass scores every
client's ``p`` and deputy (:func:`stacked_validation_f1`), each client's
split zero-padded to the longest.  Padding may change the last bits of a
validation probability, but only each scored row's argmax is used and
padded rows are never scored, so a score can differ from scoring the model
alone only where two class probabilities lie within rounding of each other.
The property tests check that the two agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable

import numpy as np

from .metrics import stacked_macro_f1
from .model import (
    ModelSpec,
    NamedTensorMap,
    OptimizerState,
    backward,
    ce_loss,
    check_same_structure,
    clone_params,
    forward,
    kl_div,
    predict_probs,
    sgd_step,
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
    """Per-epoch record of the personalized model's losses and both phis."""

    ce_loss: float
    kl_loss: float
    phi_d: float
    phi_p: float
    phase: DetPhase


def det_phase_transition(
    phi_d: float, phi_p: float, cfg: DetConfig, current: DetPhase
) -> DetPhase:
    """Next phase from validation scores; never moves backward in a window."""
    if phi_d >= cfg.lambda2 * phi_p:
        target = DetPhase.SUBLIMATE
    elif phi_d >= cfg.lambda1 * phi_p:
        target = DetPhase.EXCHANGE
    else:
        target = DetPhase.RECOVER
    return max(target, current)


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
    train: Iterable[tuple[np.ndarray, np.ndarray]],
    val: tuple[np.ndarray, np.ndarray],
    cfg: DetConfig,
    opt: OptimizerState,
    prox: tuple[float, NamedTensorMap] | None = None,
) -> EpochLog:
    """One client's epoch: :func:`train_epoch` over a stack of one."""
    return train_epoch([state], spec, [list(train)], [val], cfg, opt, prox)[0]


def train_epoch(
    states: list[ClientState],
    spec: ModelSpec,
    train: list[list[tuple[np.ndarray, np.ndarray]]],
    vals: list[tuple[np.ndarray, np.ndarray]],
    cfg: DetConfig,
    opt: OptimizerState,
    prox: tuple[float, NamedTensorMap] | None = None,
) -> list[EpochLog]:
    """One local epoch for every client at once, then re-evaluate each.

    ``train[j]`` is client j's list of ``(inputs, labels)`` batches and
    ``vals[j]`` its validation split.  Every step uses ``opt``'s learning
    rate, and ``opt.epoch`` advances by one at the end.  ``prox = (mu,
    anchor)`` pulls every personalized model toward the one anchor map.
    Each model's phase decides its distillation (see the module docstring).
    After the pass every parameter must be finite, else
    :class:`DivergenceError`; then both models of every client are scored on
    its validation split (macro F1) in one stacked pass, and the phase
    transition rule is applied.  Without deputies only ``p`` trains and is
    scored.  Every batch is checked before any training: an empty batch
    list, an empty batch or a batch whose inputs and labels differ in row
    count raises ValueError naming the client (and the batch index), as does
    a mix of clients with and without a deputy.
    """
    for j, batches in enumerate(train):
        if not batches:
            raise ValueError(f"client {j}'s training set is empty")
        for i, (x, y) in enumerate(batches):
            if len(y) == 0:
                raise ValueError(f"client {j}'s batch {i} is empty")
            if len(x) != len(y):
                raise ValueError(f"client {j}'s batch {i} has {len(x)} inputs but {len(y)} labels")
    has_deputy = states[0].deputy is not None
    if any((s.deputy is not None) != has_deputy for s in states):
        raise ValueError("either every client trained together has a deputy or none has")

    order = sorted(range(len(states)), key=lambda j: -len(train[j]))  # stable
    p = stack_params([states[j].personalized for j in order])
    d = stack_params([states[j].deputy for j in order]) if has_deputy else None
    phases = np.array([states[j].phase for j in order])
    # RECOVER: d learns from p; EXCHANGE: each from the other; SUBLIMATE: p from d
    deputy_distils = phases < DetPhase.SUBLIMATE
    personal_distils = (phases > DetPhase.RECOVER) & has_deputy
    ce_sum, kl_sum = np.zeros(len(order)), np.zeros(len(order))
    # an overflow shows up as a non-finite parameter, which the check below reports
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(len(train[order[0]])):
            sizes = [len(train[j][i][1]) for j in order if len(train[j]) > i]
            for a, b in _groups(sizes):
                x = np.stack([train[j][i][0] for j in order[a:b]])
                y = np.stack([train[j][i][1] for j in order[a:b]])
                pg = {k: v[a:b] for k, v in p.items()}
                p_probs, p_cache = forward(pg, spec, x)
                teacher_probs = None
                if has_deputy:
                    dg = {k: v[a:b] for k, v in d.items()}
                    d_probs, d_cache = forward(dg, spec, x)
                    _step(dg, d_cache, d_probs, y, p_probs, deputy_distils[a:b], opt)
                    if personal_distils[a:b].any():
                        teacher_probs, _ = forward(dg, spec, x)
                ce, kl = _step(pg, p_cache, p_probs, y, teacher_probs, personal_distils[a:b], opt, prox)
                ce_sum[a:b] += ce
                kl_sum[a:b] += kl

    models = {"personalized": p, "deputy": d} if has_deputy else {"personalized": p}
    for name, stack in models.items():
        for key, v in stack.items():
            if not np.isfinite(v).all():
                j = min(j for s, j in enumerate(order) if not np.isfinite(v[s]).all())
                raise DivergenceError(
                    f"client {j} diverged in epoch {opt.epoch + 1}: "
                    f"{name} tensor {key!r} is not finite"
                )

    # one validation pass scores every p, then every deputy, each on its client's split
    scored = {k: np.concatenate([m[k] for m in models.values()]) for k in p} if has_deputy else p
    scores = stacked_validation_f1(scored, spec, [vals[j] for j in order] * len(models))
    scores = scores.reshape(len(models), len(order))
    rank = {j: s for s, j in enumerate(order)}
    logs = []
    for j, state in enumerate(states):
        s = rank[j]
        state.personalized = {k: v[s] for k, v in p.items()}
        phi_p = float(scores[0, s])
        phi_d = float("nan")
        if has_deputy:
            state.deputy = {k: v[s] for k, v in d.items()}
            phi_d = float(scores[1, s])
            state.phase = det_phase_transition(phi_d, phi_p, cfg, state.phase)
        n = len(train[j])
        logs.append(EpochLog(float(ce_sum[s] / n), float(kl_sum[s] / n), phi_d, phi_p, state.phase))
    opt.epoch += 1
    return logs


def _groups(sizes: list[int]):
    """Slices ``(a, b)`` of neighbouring clients whose batches share a row count."""
    a = 0
    for b in range(1, len(sizes) + 1):
        if b == len(sizes) or sizes[b] != sizes[a]:
            yield a, b
            a = b


def _step(params, cache, probs, labels, teacher_probs, distils, opt, prox=None):
    """One in-place SGD step on CE for a client stack; returns per-client (CE, KL).

    Clients flagged in ``distils`` add a distillation pull toward
    ``teacher_probs``; the others log a KL of 0.0.  ``prox = (mu, anchor)``
    adds the FedProx gradient ``mu * (w - anchor)``, the one anchor map
    broadcast over the stack (the same bits as subtracting it per client).
    """
    ce, dlogits = ce_loss(probs, labels)
    kl = np.zeros(len(distils))
    if distils.any():
        kl_all, dkl = kl_div(probs, teacher_probs)
        dlogits = np.where(distils[:, None, None], dlogits + dkl, dlogits)
        kl = np.where(distils, kl_all, 0.0)
    grads = backward(cache, dlogits)
    if prox is not None:
        mu, anchor = prox
        grads = {k: g + mu * (params[k] - anchor[k]) for k, g in grads.items()}
    sgd_step(params, grads, opt)
    return ce, kl


def validation_f1(
    params: NamedTensorMap, spec: ModelSpec, val_x: np.ndarray, val_y: np.ndarray
) -> float:
    """Macro F1 of one model's argmax predictions on a validation split (a stack of one)."""
    stack = {k: v[None] for k, v in params.items()}
    return float(stacked_validation_f1(stack, spec, [(val_x, val_y)])[0])


def stacked_validation_f1(
    params: NamedTensorMap, spec: ModelSpec, vals: list[tuple[np.ndarray, np.ndarray]]
) -> np.ndarray:
    """Macro F1 of each of K stacked models on its own split ``vals[j]``, in one forward pass.

    ``params`` holds ``(K, ...)`` tensors (a broadcast view scores one model
    on K splits).  Each split is zero-padded to the longest and the padded
    rows are not scored (see the module docstring for why padding is safe
    here).  Raises ValueError on an empty split.
    """
    counts = np.array([len(y) for _, y in vals])
    x = np.zeros((len(vals), counts.max(), *np.shape(vals[0][0])[1:]))
    y = np.zeros(x.shape[:2], dtype=np.int64)
    for j, (val_x, val_y) in enumerate(vals):
        x[j, : len(val_y)] = val_x
        y[j, : len(val_y)] = val_y
    probs = predict_probs(params, spec, x)
    return stacked_macro_f1(probs.argmax(axis=-1), y, counts, spec.classes)
