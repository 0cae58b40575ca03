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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Iterable

import numpy as np

from .metrics import macro_f1
from .model import (
    Batch,
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
)


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
    """One client's models, phase and bookkeeping."""

    client_id: int
    personalized: NamedTensorMap
    deputy: NamedTensorMap
    phase: DetPhase = DetPhase.RECOVER
    phi_d: float | None = None  # None marks a stale value pending evaluation
    phi_p: float | None = None
    opt_p: OptimizerState = field(default_factory=OptimizerState)
    opt_d: OptimizerState = field(default_factory=OptimizerState)
    epoch: int = 0


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


def receive_deputy(state: ClientState, aggregated: NamedTensorMap) -> ClientState:
    """Install a server aggregate as the deputy; ``p`` is untouched.

    Resets the phase to RECOVER and marks the deputy's validation score
    stale.  Raises ValueError if the aggregate does not structurally match
    the client's models.
    """
    check_same_structure([state.personalized, aggregated])
    state.deputy = clone_params(aggregated)
    state.phase = DetPhase.RECOVER
    state.phi_d = None
    return state


def upload_model(state: ClientState) -> NamedTensorMap:
    """Deep copy of the personalized model, safe for the caller to mutate."""
    return clone_params(state.personalized)


def train_step(
    params: NamedTensorMap,
    opt: OptimizerState,
    spec: ModelSpec,
    batch: Batch,
    teacher: NamedTensorMap | None = None,
    prox: tuple[float, NamedTensorMap] | None = None,
) -> tuple[NamedTensorMap, float, float]:
    """One SGD step on CE; returns (new params, CE, KL).

    With ``teacher`` the step adds a distillation pull toward the teacher's
    predictions (KL is 0.0 without one).  With ``prox = (mu, anchor)`` it adds
    the FedProx gradient ``mu * (w - anchor)``.
    """
    probs, cache = forward(params, spec, batch)
    ce, dlogits = ce_loss(probs, batch.labels)
    kl = 0.0
    if teacher is not None:
        teacher_probs, _ = forward(teacher, spec, batch)
        kl, dkl_student, _ = kl_div(probs, teacher_probs)
        dlogits = dlogits + dkl_student
    grads = backward(cache, dlogits)
    if prox is not None:
        mu, anchor = prox
        grads = {k: g + mu * (params[k] - anchor[k]) for k, g in grads.items()}
    return sgd_step(params, grads, opt), ce, kl


def local_epoch(
    state: ClientState,
    spec: ModelSpec,
    train: Iterable[Batch],
    val: tuple[np.ndarray, np.ndarray],
    cfg: DetConfig,
) -> EpochLog:
    """One local training epoch under the current phase, then re-evaluate.

    Per batch the deputy updates first and each model's distillation
    teacher is the other model's current parameters.  After the pass both
    models are scored on the validation split (macro F1) and the phase
    transition rule is applied.  Raises ValueError on an empty batch stream.
    """
    batches = list(train)
    if not batches:
        raise ValueError("training set is empty")
    # RECOVER: d learns from p; EXCHANGE: each from the other; SUBLIMATE: p from d
    deputy_distils = state.phase < DetPhase.SUBLIMATE
    personal_distils = state.phase > DetPhase.RECOVER
    ce_sum = kl_sum = 0.0
    for batch in batches:
        state.deputy, _, _ = train_step(
            state.deputy, state.opt_d, spec, batch, state.personalized if deputy_distils else None
        )
        state.personalized, ce, kl = train_step(
            state.personalized, state.opt_p, spec, batch, state.deputy if personal_distils else None
        )
        ce_sum += ce
        kl_sum += kl

    val_x, val_y = val
    state.phi_d = validation_f1(state.deputy, spec, val_x, val_y)
    state.phi_p = validation_f1(state.personalized, spec, val_x, val_y)
    state.phase = det_phase_transition(state.phi_d, state.phi_p, cfg, state.phase)
    state.epoch += 1
    state.opt_p.epoch += 1
    state.opt_d.epoch += 1
    return EpochLog(
        ce_loss=ce_sum / len(batches),
        kl_loss=kl_sum / len(batches),
        phi_d=state.phi_d,
        phi_p=state.phi_p,
        phase=state.phase,
    )


def validation_f1(
    params: NamedTensorMap, spec: ModelSpec, val_x: np.ndarray, val_y: np.ndarray
) -> float:
    """Macro F1 of the model's argmax predictions on a validation split."""
    probs = predict_probs(params, spec, val_x)
    return macro_f1(probs.argmax(axis=1), val_y, spec.classes)
