"""The federated protocol, run client by client and model by model: the reference for ``run_experiment``.

It shares no orchestration with the package (no cohort, no stacked
clients, no slot order, nothing from ``fedfreq.orchestrator``) and takes
from it only parts that other tests check on their own: ``forward``,
``ce_loss``, ``kl_div`` and ``backward`` (finite differences),
``det_phase_transition`` (the phase state machine), ``pfa_fuse`` and
``fedavg_fuse`` on ``stack_params`` of the uploads in client order (direct
summation), ``macro_f1`` and ``evaluate`` (counting oracles), the data and
``init_params``.

Per epoch, each client shuffles its training split from its own stream.
Per batch the deputy steps first, on cross entropy plus a KL pull toward
``p``'s probabilities unless in SUBLIMATE; then ``p`` steps, adding a KL
pull toward the updated deputy in EXCHANGE and SUBLIMATE.  SGD is
``w - lr * g``; FedProx adds ``mu * (w - anchor)`` to ``p``'s gradient,
the anchor being the common init, then the last global model.  After the
epoch both models are scored on the validation split, the phase moves on,
and ``p`` is kept if it beats the client's best.  Every ``local_epochs``
epochs the clients' ``p`` are fused and each aggregate goes into the
deputy (phase back to RECOVER) or over ``p``; FEDAVG and FEDPROX then keep
the global model, not ``p``, if it beats the best.
"""

from __future__ import annotations

import numpy as np

from fedfreq.data import default_profiles, ood_client, synth
from fedfreq.det import DetPhase, det_phase_transition
from fedfreq.freq_agg import fedavg_fuse, pfa_fuse
from fedfreq.metrics import evaluate, macro_f1
from fedfreq.model import MODEL_SPECS, backward, ce_loss, forward, init_params, kl_div, stack_params

# name: (aggregator, deputy, FedProx pull)
STRATEGIES = {
    "PFA_DET": ("PFA", True, False),
    "FEDAVG": ("FEDAVG", False, False),
    "FEDPROX": ("FEDAVG", False, True),
    "LOCAL_ONLY": (None, False, False),
    "PFA_ONLY": ("PFA", False, False),
    "FEDAVG_DET": ("FEDAVG", True, False),
}
R_EPS = 1e-6  # keeps the threshold strictly inside (0, 0.5)


def sgd(params, grads, lr, pull=None):
    """``w - lr * g``, or with ``pull = (mu, anchor)`` ``w - lr * (g + mu * (w - anchor))``, as new arrays."""
    if pull is None:
        return {k: w - lr * grads[k] for k, w in params.items()}
    mu, anchor = pull
    return {k: w - lr * (grads[k] + mu * (w - anchor[k])) for k, w in params.items()}


def run(cfg, profiles=None):
    """Run ``cfg`` (an ``ExperimentConfig``); returns ``(rows, best_params, outcomes)`` by client.

    ``rows`` are the ``curves.csv`` rows as tuples, epoch-major;
    ``best_params[j]`` is client j's deployed model; ``outcomes[j]`` is
    ``(best_epoch, best_val_f1, test_f1, test_auc, ood_f1, ood_auc)``.
    """
    aggregator, deputy, prox = STRATEGIES[cfg.strategy]
    deploys_global = aggregator == "FEDAVG" and not deputy
    spec = MODEL_SPECS[cfg.model_id]
    profiles = profiles or default_profiles(cfg.data_scale)[: cfg.num_clients]
    clients = synth(profiles, cfg.seed).clients
    rngs = [np.random.default_rng([cfg.seed, profile.seed, 2]) for profile in profiles]
    init = init_params(spec, [cfg.seed, 1])
    p = [init] * len(clients)  # sgd makes new arrays, so the clients may share the init
    d = [init] * len(clients)
    phase = [DetPhase.RECOVER] * len(clients)
    best, best_f1, best_epoch = [init] * len(clients), [-1.0] * len(clients), [0] * len(clients)
    anchor = init
    pulls = prox and cfg.prox_mu > 0.0

    def score(params, client):
        x, y = client.split_xy("val")
        return macro_f1(forward(params, spec, x)[0].argmax(axis=1), y, spec.classes)

    rows = []
    for t in range(1, cfg.total_epochs + 1):
        lr = cfg.base_lr * 0.5 ** ((t - 1) // cfg.lr_halving_period)
        r = min(max(cfg.r0 + (cfg.r1 - cfg.r0) * t / cfg.total_epochs, R_EPS), 0.5 - R_EPS)
        comm = int(aggregator is not None and t % cfg.local_epochs == 0)
        for j, client in enumerate(clients):
            x, y = client.split_xy("train")
            order = rngs[j].permutation(len(y))
            x, y = x[order], y[order]
            ce_sum = kl_sum = 0.0
            for i in range(0, len(y), cfg.batch_size):
                xb, yb = x[i : i + cfg.batch_size], y[i : i + cfg.batch_size]
                probs, cache = forward(p[j], spec, xb)
                if deputy:
                    d_probs, d_cache = forward(d[j], spec, xb)
                    _, grad = ce_loss(d_probs, yb)
                    if phase[j] != DetPhase.SUBLIMATE:
                        grad = grad + kl_div(d_probs, probs)[1]
                    d[j] = sgd(d[j], backward(d_cache, grad), lr)
                ce, grad = ce_loss(probs, yb)
                if deputy and phase[j] != DetPhase.RECOVER:
                    kl, dkl = kl_div(probs, forward(d[j], spec, xb)[0])
                    grad, kl_sum = grad + dkl, kl_sum + kl
                p[j] = sgd(p[j], backward(cache, grad), lr, (cfg.prox_mu, anchor) if pulls else None)
                ce_sum += ce
            batches = -(-len(y) // cfg.batch_size)
            phi_p, phi_d = score(p[j], client), float("nan")
            if deputy:
                phi_d = score(d[j], client)
                phase[j] = det_phase_transition(phi_d, phi_p, cfg, phase[j])
            name = phase[j].name if deputy else "-"
            rows.append((t, j, name, ce_sum / batches, kl_sum / batches, phi_d, phi_p, r, comm))
            if not deploys_global and phi_p > best_f1[j]:
                best[j], best_f1[j], best_epoch[j] = p[j], phi_p, t
        if not comm:
            continue
        uploads = stack_params(p)
        if aggregator == "PFA":
            fused = pfa_fuse(uploads, r)
            arrivals = [{k: v[j] for k, v in fused.items()} for j in range(len(clients))]
        else:
            anchor = fedavg_fuse(uploads)
            arrivals = [anchor] * len(clients)
        for j, client in enumerate(clients):
            if deputy:
                d[j], phase[j] = arrivals[j], DetPhase.RECOVER
            else:
                p[j] = arrivals[j]
            if deploys_global and (phi_p := score(p[j], client)) > best_f1[j]:
                best[j], best_f1[j], best_epoch[j] = p[j], phi_p, t

    ood_x, ood_y = ood_client(profiles, cfg.seed).split_xy("test")
    outcomes = []
    for j, client in enumerate(clients):
        test_x, test_y = client.split_xy("test")
        own = evaluate(forward(best[j], spec, test_x)[0], test_y, spec.classes)
        far = evaluate(forward(best[j], spec, ood_x)[0], ood_y, spec.classes)
        outcomes.append((best_epoch[j], best_f1[j], own.macro_f1, own.macro_auc, far.macro_f1, far.macro_auc))
    return rows, best, outcomes
