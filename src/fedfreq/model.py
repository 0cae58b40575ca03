"""Minimal trainable neural network with manual backpropagation.

Layers: dense, conv2d (valid padding, stride 1), relu, flatten and a
softmax output.  Losses return the gradient with respect to the final
layer's *logits*, so :func:`backward` starts below the softmax (the usual
fused softmax/cross-entropy arrangement).  The optimizer is plain SGD whose
learning rate halves every ``halving_period`` epochs.

Parameters live in plain ``dict[str, np.ndarray]`` maps ("named tensor
maps"); names are unique and all iteration that must be deterministic walks
them in sorted order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

NamedTensorMap = dict[str, np.ndarray]


def check_same_structure(maps: list[NamedTensorMap]) -> list[str]:
    """All maps must share the same keys and per-key shapes; returns sorted keys."""
    if not maps:
        raise ValueError("at least one parameter map is required")
    keys = sorted(maps[0])
    for i, m in enumerate(maps):
        if sorted(m) != keys:
            raise ValueError(f"parameter map {i} names differ from map 0")
        for k in keys:
            if np.shape(m[k]) != np.shape(maps[0][k]):
                raise ValueError(
                    f"parameter map {i} shape mismatch for {k!r}: "
                    f"{np.shape(m[k])} vs {np.shape(maps[0][k])}"
                )
    return keys


PROB_FLOOR = 1e-12  # probabilities are clamped below this before any log


@dataclass(frozen=True)
class Layer:
    kind: str  # dense | conv2d | relu | flatten | softmax_output
    dims: tuple[int, ...] = ()  # dense: (in, out); conv2d: (in_ch, out_ch, kh, kw)


@dataclass(frozen=True)
class ModelSpec:
    """Architecture description: ordered layers, input shape, class count."""

    layers: tuple[Layer, ...]
    input_shape: tuple[int, ...]
    classes: int = 3

    def __post_init__(self) -> None:
        infer_shapes(self)  # raises on incompatible adjacent layers


@dataclass
class Batch:
    """A mini-batch of inputs with integer class labels."""

    inputs: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if len(self.labels) < 1 or self.inputs.shape[0] != len(self.labels):
            raise ValueError("batch needs >= 1 sample and matching label count")


@dataclass
class OptimizerState:
    """SGD schedule state: lr(epoch) = base_lr * 0.5 ** (epoch // period)."""

    base_lr: float = 1e-2
    epoch: int = 0
    halving_period: int = 25

    def __post_init__(self) -> None:
        if self.base_lr < 0:
            raise ValueError("base_lr must be >= 0")
        if self.halving_period < 1:
            raise ValueError("halving_period must be >= 1")

    @property
    def lr(self) -> float:
        return self.base_lr * 0.5 ** (self.epoch // self.halving_period)


def mlp_spec(input_dim: int = 32, classes: int = 3) -> ModelSpec:
    """Default architecture: flatten -> dense(d,64) -> relu -> dense(64,32) -> relu -> dense(32,classes)."""
    return ModelSpec(
        layers=(
            Layer("flatten"),
            Layer("dense", (input_dim, 64)),
            Layer("relu"),
            Layer("dense", (64, 32)),
            Layer("relu"),
            Layer("dense", (32, classes)),
            Layer("softmax_output"),
        ),
        input_shape=(input_dim,),
        classes=classes,
    )


def conv_spec(in_shape: tuple[int, int, int] = (1, 4, 8), classes: int = 3) -> ModelSpec:
    """Small conv variant exercising the kernel-reshape aggregation path."""
    c, h, w = in_shape
    flat = 8 * (h - 2) * (w - 2)
    return ModelSpec(
        layers=(
            Layer("conv2d", (c, 8, 3, 3)),
            Layer("relu"),
            Layer("flatten"),
            Layer("dense", (flat, classes)),
            Layer("softmax_output"),
        ),
        input_shape=in_shape,
        classes=classes,
    )


def infer_shapes(spec: ModelSpec) -> list[tuple[int, ...]]:
    """Shape after each layer (batch dimension omitted); raises on mismatch."""
    shape = tuple(spec.input_shape)
    shapes = []
    for i, layer in enumerate(spec.layers):
        if layer.kind == "dense":
            d_in, d_out = layer.dims
            if shape != (d_in,):
                raise ValueError(f"layer {i}: dense expects ({d_in},), got {shape}")
            shape = (d_out,)
        elif layer.kind == "conv2d":
            c_in, c_out, kh, kw = layer.dims
            if len(shape) != 3 or shape[0] != c_in:
                raise ValueError(f"layer {i}: conv2d expects ({c_in}, H, W), got {shape}")
            if shape[1] < kh or shape[2] < kw:
                raise ValueError(f"layer {i}: kernel {kh}x{kw} larger than input {shape}")
            shape = (c_out, shape[1] - kh + 1, shape[2] - kw + 1)
        elif layer.kind == "flatten":
            shape = (int(np.prod(shape)),)
        elif layer.kind in ("relu", "softmax_output"):
            pass
        else:
            raise ValueError(f"layer {i}: unknown kind {layer.kind!r}")
        shapes.append(shape)
    if shape != (spec.classes,):
        raise ValueError(f"final shape {shape} != class count ({spec.classes},)")
    return shapes


MODEL_SPECS = {
    "mlp32": mlp_spec(32),
    "conv4x8": conv_spec((1, 4, 8)),
}


def _param_names(spec: ModelSpec) -> list[tuple[int, str]]:
    """(layer index, name prefix) for each parameterized layer."""
    names = []
    counts = {"dense": 0, "conv2d": 0}
    for i, layer in enumerate(spec.layers):
        if layer.kind in counts:
            counts[layer.kind] += 1
            prefix = "conv" if layer.kind == "conv2d" else "dense"
            names.append((i, f"{prefix}{counts[layer.kind]}"))
    return names


def init_params(spec: ModelSpec, seed) -> NamedTensorMap:
    """Glorot-uniform weights, zero biases; deterministic for a given seed."""
    rng = np.random.default_rng(seed)
    params: NamedTensorMap = {}
    for i, prefix in _param_names(spec):
        layer = spec.layers[i]
        if layer.kind == "dense":
            d_in, d_out = layer.dims
            s = np.sqrt(6.0 / (d_in + d_out))
            params[f"{prefix}.weight"] = rng.uniform(-s, s, size=(d_in, d_out))
            params[f"{prefix}.bias"] = np.zeros(d_out)
        else:
            c_in, c_out, kh, kw = layer.dims
            fan_in = c_in * kh * kw
            fan_out = c_out * kh * kw
            s = np.sqrt(6.0 / (fan_in + fan_out))
            params[f"{prefix}.weight"] = rng.uniform(-s, s, size=(c_out, c_in, kh, kw))
            params[f"{prefix}.bias"] = np.zeros(c_out)
    return {k: params[k] for k in sorted(params)}


def clone_params(params: NamedTensorMap) -> NamedTensorMap:
    return {k: v.copy() for k, v in params.items()}


@dataclass
class ForwardCache:
    """Forward-pass record consumed by :func:`backward`."""

    spec: ModelSpec
    params: NamedTensorMap
    inputs: list[np.ndarray] = field(repr=False, default_factory=list)
    probs: np.ndarray | None = field(repr=False, default=None)


def forward(params: NamedTensorMap, spec: ModelSpec, batch: Batch) -> tuple[np.ndarray, ForwardCache]:
    """Run the network; returns (probabilities, cache for backward)."""
    x = batch.inputs
    if x.shape[1:] != tuple(spec.input_shape):
        if int(np.prod(x.shape[1:])) != int(np.prod(spec.input_shape)):
            raise ValueError(
                f"batch shape {x.shape[1:]} incompatible with input {spec.input_shape}"
            )
        x = x.reshape(x.shape[0], *spec.input_shape)
    cache = ForwardCache(spec=spec, params=params)
    names = dict(_param_names(spec))
    for i, layer in enumerate(spec.layers):
        cache.inputs.append(x)
        if layer.kind == "dense":
            p = names[i]
            x = x @ params[f"{p}.weight"] + params[f"{p}.bias"]
        elif layer.kind == "conv2d":
            p = names[i]
            x = _conv2d_forward(x, params[f"{p}.weight"], params[f"{p}.bias"])
        elif layer.kind == "relu":
            x = np.maximum(x, 0.0)
        elif layer.kind == "flatten":
            x = x.reshape(x.shape[0], -1)
        else:  # softmax_output
            z = x - x.max(axis=1, keepdims=True)
            e = np.exp(z)
            x = e / e.sum(axis=1, keepdims=True)
    cache.probs = x
    return x, cache


def _conv2d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    # valid convolution, stride 1: accumulate one shifted product per kernel tap
    _, c_in, kh, kw = w.shape
    hh = x.shape[2] - kh + 1
    ww = x.shape[3] - kw + 1
    out = np.zeros((x.shape[0], w.shape[0], hh, ww))
    for i in range(kh):
        for j in range(kw):
            out += np.einsum("bchw,oc->bohw", x[:, :, i : i + hh, j : j + ww], w[:, :, i, j])
    return out + b[None, :, None, None]


def backward(cache: ForwardCache, dlogits: np.ndarray) -> NamedTensorMap:
    """Backpropagate a gradient w.r.t. the final logits through the network.

    Returns a gradient map with exactly the trainable parameter keys.
    Raises ValueError if the cache is incomplete or the gradient shape does
    not match the cached output.
    """
    if cache.probs is None or len(cache.inputs) != len(cache.spec.layers):
        raise ValueError("stale or incomplete forward cache")
    dlogits = np.asarray(dlogits, dtype=np.float64)
    if dlogits.shape != cache.probs.shape:
        raise ValueError(
            f"gradient shape {dlogits.shape} != output shape {cache.probs.shape}"
        )
    names = dict(_param_names(cache.spec))
    grads: NamedTensorMap = {}
    dx = dlogits
    for i in range(len(cache.spec.layers) - 1, -1, -1):
        layer = cache.spec.layers[i]
        x = cache.inputs[i]
        if layer.kind == "softmax_output":
            continue  # losses already differentiate through the softmax
        if layer.kind == "dense":
            p = names[i]
            grads[f"{p}.weight"] = x.T @ dx
            grads[f"{p}.bias"] = dx.sum(axis=0)
            dx = dx @ cache.params[f"{p}.weight"].T
        elif layer.kind == "conv2d":
            p = names[i]
            dw, db, dx = _conv2d_backward(x, cache.params[f"{p}.weight"], dx)
            grads[f"{p}.weight"] = dw
            grads[f"{p}.bias"] = db
        elif layer.kind == "relu":
            dx = dx * (x > 0.0)
        else:  # flatten
            dx = dx.reshape(x.shape)
    return {k: grads[k] for k in sorted(grads)}


def _conv2d_backward(x: np.ndarray, w: np.ndarray, dout: np.ndarray):
    _, c_in, kh, kw = w.shape
    hh, ww = dout.shape[2], dout.shape[3]
    dw = np.zeros_like(w)
    dx = np.zeros_like(x)
    for i in range(kh):
        for j in range(kw):
            window = x[:, :, i : i + hh, j : j + ww]
            dw[:, :, i, j] = np.einsum("bohw,bchw->oc", dout, window)
            dx[:, :, i : i + hh, j : j + ww] += np.einsum(
                "bohw,oc->bchw", dout, w[:, :, i, j]
            )
    db = dout.sum(axis=(0, 2, 3))
    return dw, db, dx


def ce_loss(probs: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross entropy and its gradient w.r.t. the logits.

    Probabilities are clamped below at ``PROB_FLOOR`` before the log.
    """
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n = probs.shape[0]
    picked = np.clip(probs[np.arange(n), labels], PROB_FLOOR, None)
    loss = float(np.mean(-np.log(picked)))
    dlogits = probs.copy()
    dlogits[np.arange(n), labels] -= 1.0
    return loss, dlogits / n


def kl_div(p_probs: np.ndarray, q_probs: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean KL divergence ``sum p*log(p/q)`` over a batch of probability rows.

    Returns ``(value, dlogits_p, dlogits_q)``: gradients w.r.t. the logits
    behind each argument.  In the training losses only the student's side is
    applied; the teacher's distribution is treated as constant.
    """
    p = np.asarray(p_probs, dtype=np.float64)
    q = np.asarray(q_probs, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {q.shape}")
    n = p.shape[0]
    pc = np.clip(p, PROB_FLOOR, None)
    qc = np.clip(q, PROB_FLOOR, None)
    log_ratio = np.log(pc / qc)
    row_kl = (pc * log_ratio).sum(axis=1)
    value = float(np.mean(row_kl))
    dlogits_p = p * (log_ratio - row_kl[:, None]) / n
    dlogits_q = (q - p) / n
    return value, dlogits_p, dlogits_q


def sgd_step(params: NamedTensorMap, grads: NamedTensorMap, opt: OptimizerState) -> NamedTensorMap:
    """One SGD update ``params - lr(epoch) * grads``; returns a new map."""
    if sorted(params) != sorted(grads):
        raise ValueError("gradient map keys do not match parameter map keys")
    lr = opt.lr
    out: NamedTensorMap = {}
    for k in sorted(params):
        if params[k].shape != grads[k].shape:
            raise ValueError(f"shape mismatch for {k!r}")
        out[k] = params[k] - lr * grads[k]
    return out


def predict_probs(params: NamedTensorMap, spec: ModelSpec, inputs: np.ndarray) -> np.ndarray:
    """Class probabilities for a full array of inputs (labels unused)."""
    batch = Batch(inputs=inputs, labels=np.zeros(len(inputs), dtype=np.int64))
    probs, _ = forward(params, spec, batch)
    return probs
