"""One client's deputy cycle: recover, exchange, sublimate.

A deputy model absorbs each incoming aggregate so the personalized model is
never overwritten.  This demo delivers a deliberately damaged aggregate and
logs the deputy's validation score climbing back through the phase gates.
The client is a cohort of one, trained and served through the calls a run
makes: ``train_epoch``, ``Cohort.uploads`` and ``Cohort.deliver``.

Run: python demos/05_deputy_transfer.py
"""

import numpy as np

from fedfreq import DetConfig, DetPhase, init_params
from fedfreq.det import Cohort, train_epoch
from fedfreq.model import mlp_spec

rng = np.random.default_rng(3)
spec = mlp_spec(input_dim=6, classes=3)
cfg = DetConfig(lambda1=0.7, lambda2=0.9)

centers = rng.standard_normal((3, 6)) * 0.8
labels = rng.integers(0, 3, size=400)
inputs = centers[labels] + 1.1 * rng.standard_normal((400, 6))
train_x, train_y, val_x, val_y = inputs[:300], labels[:300], inputs[300:], labels[300:]


def orders():
    """This epoch's permutation of each client's training rows (one client here)."""
    return [rng.permutation(len(train_y))]


init = init_params(spec, 3)
# a cohort of one client, batched 16 rows at a time; p and its deputy both start from init
cohort = Cohort([init], [init], [(train_x, train_y)], [(val_x, val_y)], 16)
lr = 0.01  # one learning rate for both models

print("Warm up the personalized model for 8 epochs:")
for _ in range(8):
    log = train_epoch(cohort, spec, orders(), cfg, lr)
print(f"  phi(p) = {log.phi_p[0]:.3f}, phase = {DetPhase(log.phase[0]).name}")

print("\nDeliver a damaged aggregate (heavy noise) as the new deputy:")
noisy = {k: v + 4.0 * rng.standard_normal(v.shape) for k, v in cohort.uploads().items()}
cohort.deliver(noisy)
print(f"  phase reset to {DetPhase(cohort.phases[0]).name}; phi(d) is rescored after the next epoch")
phi_d = cohort.validation_f1(spec)[1, 0]  # row 1 scores the deputies
print(f"  deputy validation F1 at delivery: {phi_d:.3f}")

print("\nEach row: scores after that epoch and the phase the NEXT epoch will")
print("use (gates at 0.7 and 0.9 of phi(p), never moving backward):")
print(f"  {'epoch':>5} {'phi(d)':>7} {'phi(p)':>7} {'next phase':>11}")
for epoch in range(8):
    log = train_epoch(cohort, spec, orders(), cfg, lr)
    print(f"  {epoch + 1:>5} {log.phi_d[0]:>7.3f} {log.phi_p[0]:>7.3f} {DetPhase(log.phase[0]).name:>11}")

print("\nThe upload is always the personalized model, never the deputy:")
up = cohort.uploads()
same = all(np.array_equal(up[k], cohort.p[k]) for k in up)
print(f"  upload == personalized: {same}")
