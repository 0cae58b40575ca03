"""One client's deputy cycle: recover, exchange, sublimate.

A deputy model absorbs each incoming aggregate so the personalized model is
never overwritten.  This demo delivers a deliberately damaged aggregate and
logs the deputy's validation score climbing back through the phase gates.

Run: python demos/05_deputy_transfer.py
"""

import numpy as np

from fedfreq import ClientState, DetConfig, OptimizerState, init_params, local_epoch
from fedfreq.det import receive_deputy, upload_model
from fedfreq.metrics import macro_f1
from fedfreq.model import clone_params, mlp_spec, predict_probs

rng = np.random.default_rng(3)
spec = mlp_spec(input_dim=6, classes=3)
cfg = DetConfig(lambda1=0.7, lambda2=0.9)

centers = rng.standard_normal((3, 6)) * 0.8
labels = rng.integers(0, 3, size=400)
inputs = centers[labels] + 1.1 * rng.standard_normal((400, 6))
train_x, train_y, val_x, val_y = inputs[:300], labels[:300], inputs[300:], labels[300:]


def shuffled():
    order = rng.permutation(len(train_y))
    return train_x[order], train_y[order]


init = init_params(spec, 3)
state = ClientState(personalized=clone_params(init), deputy=clone_params(init))
opt = OptimizerState(base_lr=0.01)  # one schedule for both models

print("Warm up the personalized model for 8 epochs:")
for _ in range(8):
    log = local_epoch(state, spec, shuffled(), 16, (val_x, val_y), cfg, opt)
print(f"  phi(p) = {log.phi_p:.3f}, phase = {log.phase.name}")

print("\nDeliver a damaged aggregate (heavy noise) as the new deputy:")
noisy = {k: v + 4.0 * rng.standard_normal(v.shape) for k, v in upload_model(state).items()}
receive_deputy(state, noisy)
print(f"  phase reset to {state.phase.name}; phi(d) is rescored after the next epoch")
phi_d = macro_f1(predict_probs(state.deputy, spec, val_x).argmax(axis=1), val_y, spec.classes)
print(f"  deputy validation F1 at delivery: {phi_d:.3f}")

print("\nEach row: scores after that epoch and the phase the NEXT epoch will")
print("use (gates at 0.7 and 0.9 of phi(p), never moving backward):")
print(f"  {'epoch':>5} {'phi(d)':>7} {'phi(p)':>7} {'next phase':>11}")
for epoch in range(8):
    log = local_epoch(state, spec, shuffled(), 16, (val_x, val_y), cfg, opt)
    print(f"  {epoch + 1:>5} {log.phi_d:>7.3f} {log.phi_p:>7.3f} {log.phase.name:>11}")

print("\nThe upload is always the personalized model, never the deputy:")
up = upload_model(state)
same = all(np.array_equal(up[k], state.personalized[k]) for k in up)
print(f"  upload == personalized: {same}")
