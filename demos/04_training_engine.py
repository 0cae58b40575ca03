"""The numpy training engine: forward, losses, manual backprop, SGD inside the backward walk.

Run: python demos/04_training_engine.py
"""

import numpy as np

from fedfreq import OptimizerState, backward, ce_loss, forward, init_params, kl_div
from fedfreq.model import descend, mlp_spec

rng = np.random.default_rng(1)
spec = mlp_spec(input_dim=2, classes=3)
params = init_params(spec, seed=1)

# three blobs in the plane
centers = np.array([[2.5, 0.0], [-2.5, 2.0], [0.0, -2.5]])
labels = rng.integers(0, 3, size=240)
inputs = centers[labels] + 0.6 * rng.standard_normal((240, 2))

print("Gradient sanity on one batch (finite differences, one weight):")
x, y = inputs[:16], labels[:16]
probs, cache = forward(params, spec, x)
loss, dlogits = ce_loss(probs, y)
grads = backward(cache, dlogits)
name, idx = "dense1.weight", (0, 0)
step = 1e-6
params[name][idx] += step
hi, _ = ce_loss(forward(params, spec, x)[0], y)
params[name][idx] -= 2 * step
lo, _ = ce_loss(forward(params, spec, x)[0], y)
params[name][idx] += step
print(f"  analytic {grads[name][idx]:+.6f}  finite-difference {(hi - lo) / (2 * step):+.6f}")

print("\nTraining 40 epochs of SGD (lr halves every 25 epochs):")
opt = OptimizerState(base_lr=0.05, halving_period=25)
for epoch in range(40):
    order = rng.permutation(len(labels))
    for i in range(0, len(labels), 16):
        sel = order[i : i + 16]
        probs, cache = forward(params, spec, inputs[sel])
        _, dlogits = ce_loss(probs, labels[sel])
        descend(cache, dlogits, opt.lr)  # updates params in place
    opt.epoch += 1
    if epoch % 10 == 9 or epoch == 0:
        probs, _ = forward(params, spec, inputs)
        loss, _ = ce_loss(probs, labels)
        acc = float(np.mean(probs.argmax(axis=1) == labels))
        print(f"  epoch {epoch + 1:2d}: lr={opt.lr:.4f}  loss={loss:.4f}  accuracy={acc:.3f}")

print("\nKL divergence between two softened predictions (distillation term):")
teacher, _ = forward(init_params(spec, seed=9), spec, inputs[:8])
student, _ = forward(params, spec, inputs[:8])
value, d_student = kl_div(student, teacher)
print(f"  KL(student || teacher) = {value:.4f}")
print(f"  gradient flows to the student only ({np.abs(d_student).max():.2e});")
print("  the teacher's predictions are held constant.")
