"""Minimal trainable neural network with manual backpropagation.

Layers: dense, conv2d (valid padding, stride 1), relu, flatten and a
softmax output.  Losses return the gradient with respect to the final
layer's *logits*, so :func:`backward` starts below the softmax (the usual
fused softmax/cross-entropy arrangement).  The optimizer is plain SGD whose
learning rate halves every ``halving_period`` epochs.

Parameters live in plain ``dict[str, np.ndarray]`` maps ("named tensor
maps"); names are unique and all iteration that must be deterministic walks
them in sorted order.  Forward, backward, the losses and SGD are written
once, over a leading client axis: a map whose tensors are ``(K, ...)``
stacks holds K clients' models (:func:`stack_params` builds one), and each
client's numbers come out exactly as they would from that client alone.  A
plain map is a stack of one.  Inputs and labels are plain arrays.

A convolution is unfolded and multiplied.  Each client's input is gathered
into one row per (sample, output pixel) through a tap index that is built
once per (input shape, kernel shape); one batched matmul with the flattened
kernels gives the output, one more gives the weight gradient, and the input
gradient is scattered back through the same index.  This rounds differently
from summing one shifted product per kernel tap, the earlier formulation:
a matmul adds a row's taps in BLAS order, not tap by tap, and none of the
faster numpy formulations tried reproduced the per-tap weight-gradient
bits.  The forward pass unfolds at most ``UNFOLD_BLOCK`` samples at a time,
so scoring thousands of rows never holds all their patches at once (the
patch array is ``kh * kw`` times the size of a one-channel input).  When
one block covers the batch, as in every training step, :class:`ForwardCache`
keeps the patches and :func:`backward` multiplies them again instead of
unfolding the input a second time; a larger batch is unfolded again, with
the same bits.
"""

from __future__ import annotations

import functools
import math
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
            name = min(set(m) ^ set(keys))
            raise ValueError(f"parameter map {i} names differ from map 0 at {name!r}")
        for k in keys:
            if np.shape(m[k]) != np.shape(maps[0][k]):
                raise ValueError(
                    f"parameter map {i} shape mismatch for {k!r}: "
                    f"{np.shape(m[k])} vs {np.shape(maps[0][k])}"
                )
    return keys


PROB_FLOOR = 1e-12  # probabilities are clamped below this before any log
UNFOLD_BLOCK = 512  # samples a conv forward pass unfolds at a time (see the module docstring)


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
    # derived: per layer, the (weight key, bias key) of its parameters, or None
    param_keys: tuple[tuple[str, str] | None, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        infer_shapes(self)  # raises on incompatible adjacent layers
        counts = {"dense": 0, "conv2d": 0}
        keys = []
        for layer in self.layers:
            if layer.kind in counts:
                counts[layer.kind] += 1
                prefix = f"{'conv' if layer.kind == 'conv2d' else 'dense'}{counts[layer.kind]}"
                keys.append((f"{prefix}.weight", f"{prefix}.bias"))
            else:
                keys.append(None)
        object.__setattr__(self, "param_keys", tuple(keys))


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


def init_params(spec: ModelSpec, seed) -> NamedTensorMap:
    """Glorot-uniform weights, zero biases; deterministic for a given seed."""
    rng = np.random.default_rng(seed)
    params: NamedTensorMap = {}
    for layer, keys in zip(spec.layers, spec.param_keys):
        if keys is None:
            continue
        w_key, b_key = keys
        if layer.kind == "dense":
            d_in, d_out = layer.dims
            s = np.sqrt(6.0 / (d_in + d_out))
            params[w_key] = rng.uniform(-s, s, size=(d_in, d_out))
            params[b_key] = np.zeros(d_out)
        else:
            c_in, c_out, kh, kw = layer.dims
            fan_in = c_in * kh * kw
            fan_out = c_out * kh * kw
            s = np.sqrt(6.0 / (fan_in + fan_out))
            params[w_key] = rng.uniform(-s, s, size=(c_out, c_in, kh, kw))
            params[b_key] = np.zeros(c_out)
    return {k: params[k] for k in sorted(params)}


def clone_params(params: NamedTensorMap) -> NamedTensorMap:
    return {k: v.copy() for k, v in params.items()}


def stack_params(maps: list[NamedTensorMap]) -> NamedTensorMap:
    """Each tensor of the maps stacked along a new leading client axis, as float64."""
    return {k: np.stack([m[k] for m in maps]).astype(np.float64, copy=False) for k in maps[0]}


@dataclass
class ForwardCache:
    """Forward-pass record consumed by :func:`backward`; tensors carry the client axis."""

    spec: ModelSpec
    params: NamedTensorMap
    lifted: bool  # a plain map run as a one-client stack; backward drops the axis again
    inputs: list[np.ndarray] = field(repr=False, default_factory=list)
    # by layer index: a conv layer's unfolded input, kept when one UNFOLD_BLOCK covered the batch
    patches: dict[int, np.ndarray] = field(repr=False, default_factory=dict)
    probs: np.ndarray | None = field(repr=False, default=None)


def _stacked(params: NamedTensorMap, spec: ModelSpec) -> bool:
    """Whether the tensors carry a leading client axis (read off the first weight)."""
    for layer, keys in zip(spec.layers, spec.param_keys):
        if keys is not None:
            return params[keys[0]].ndim == len(layer.dims) + 1
    return False


def forward(params: NamedTensorMap, spec: ModelSpec, x: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Run the network on an input array; returns (probabilities, cache for backward).

    Every layer works over a leading client axis: with stacked parameters
    (each tensor ``(K, ...)``) ``x`` is ``(K, n, ...)`` and client k's rows
    meet only client k's parameters.  A plain map with inputs ``(n, ...)``
    runs as a one-client stack.
    """
    lifted = not _stacked(params, spec)
    if lifted:
        params = {k: v[None] for k, v in params.items()}
        x = x[None]
    if x.shape[2:] != tuple(spec.input_shape):
        # math.prod, not np.prod: this runs once per batch, and np.prod of a tuple is slow
        if math.prod(x.shape[2:]) != math.prod(spec.input_shape):
            raise ValueError(
                f"batch shape {x.shape[2:]} incompatible with input {spec.input_shape}"
            )
        x = x.reshape(*x.shape[:2], *spec.input_shape)
    cache = ForwardCache(spec=spec, params=params, lifted=lifted)
    for i, (layer, keys) in enumerate(zip(spec.layers, spec.param_keys)):
        cache.inputs.append(x)
        if layer.kind == "dense":
            x = x @ params[keys[0]] + params[keys[1]][:, None, :]
        elif layer.kind == "conv2d":
            x, patches = _conv2d_forward(x, params[keys[0]], params[keys[1]])
            if patches is not None:
                cache.patches[i] = patches
        elif layer.kind == "relu":
            x = np.maximum(x, 0.0)
        elif layer.kind == "flatten":
            x = x.reshape(*x.shape[:2], -1)
        else:  # softmax_output
            z = x - x.max(axis=-1, keepdims=True)
            e = np.exp(z)
            x = e / e.sum(axis=-1, keepdims=True)
    cache.probs = x
    return (x[0] if lifted else x), cache


def _conv2d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """Valid convolution, stride 1: one matmul per block of unfolded samples.

    Returns ``(output, patches)``; ``patches`` is the unfolded input when one
    block covered the batch, else None.
    """
    k, n = x.shape[:2]
    o, kh, kw = w.shape[1], w.shape[3], w.shape[4]
    idx = _tap_index(*x.shape[2:], kh, kw)
    w_cols = w.reshape(k, o, -1).transpose(0, 2, 1)
    out = np.empty((k, n, o, idx.shape[0]))
    patches = None
    for s in range(0, n, UNFOLD_BLOCK):
        patches = _unfold(x[:, s : s + UNFOLD_BLOCK], idx)
        rows = patches @ w_cols  # (K, m * pixels, O)
        out[:, s : s + UNFOLD_BLOCK] = rows.reshape(k, -1, idx.shape[0], o).transpose(0, 1, 3, 2)
    out += b[:, None, :, None]
    patches = patches if n <= UNFOLD_BLOCK else None
    return out.reshape(k, n, o, x.shape[3] - kh + 1, x.shape[4] - kw + 1), patches


def backward(cache: ForwardCache, dlogits: np.ndarray) -> NamedTensorMap:
    """Backpropagate a gradient w.r.t. the final logits through the network.

    Returns a gradient map with exactly the trainable parameter keys, stacked
    like the parameters the cache was made with.  Raises ValueError if the
    cache is incomplete or the gradient shape does not match the cached output.
    """
    if cache.probs is None or len(cache.inputs) != len(cache.spec.layers):
        raise ValueError("stale or incomplete forward cache")
    dlogits = np.asarray(dlogits, dtype=np.float64)
    if cache.lifted:
        dlogits = dlogits[None]
    if dlogits.shape != cache.probs.shape:
        raise ValueError(
            f"gradient shape {dlogits.shape} != output shape {cache.probs.shape}"
        )
    spec = cache.spec
    grads: NamedTensorMap = {}
    dx = dlogits
    # no gradient is needed below the lowest layer with parameters
    lowest = min(i for i, keys in enumerate(spec.param_keys) if keys is not None)
    for i in range(len(spec.layers) - 1, lowest - 1, -1):
        layer, keys, x = spec.layers[i], spec.param_keys[i], cache.inputs[i]
        if layer.kind == "softmax_output":
            continue  # losses already differentiate through the softmax
        if layer.kind == "dense":
            w_key, b_key = keys
            grads[w_key] = x.transpose(0, 2, 1) @ dx
            grads[b_key] = dx.sum(axis=1)
            if i > lowest:
                dx = dx @ cache.params[w_key].transpose(0, 2, 1)
        elif layer.kind == "conv2d":
            w_key, b_key = keys
            grads[w_key], grads[b_key], dx = _conv2d_backward(
                x, cache.params[w_key], dx, i > lowest, cache.patches.get(i)
            )
        elif layer.kind == "relu":
            dx = dx * (x > 0.0)
        else:  # flatten
            dx = dx.reshape(x.shape)
    if cache.lifted:
        return {k: g[0] for k, g in grads.items()}
    return grads


def _conv2d_backward(
    x: np.ndarray, w: np.ndarray, dout: np.ndarray, want_dx: bool, patches: np.ndarray | None
):
    """Weight, bias and (if ``want_dx``) input gradients; ``patches`` is ``x`` unfolded, if kept."""
    k, n, o = dout.shape[:3]
    idx = _tap_index(*x.shape[2:], *w.shape[3:])
    rows = dout.reshape(k, n, o, -1).transpose(0, 1, 3, 2).reshape(k, -1, o)  # (K, n * pixels, O)
    if patches is None:
        patches = _unfold(x, idx)
    dw = (rows.transpose(0, 2, 1) @ patches).reshape(w.shape)
    db = rows.sum(axis=1)
    dx = None
    if want_dx:
        # each patch entry's gradient goes back to the input pixel it was gathered from
        dpatches = (rows @ w.reshape(k, o, -1)).reshape(k, n, *idx.shape)
        dx = np.zeros(x.shape)
        np.add.at(dx.reshape(k, n, -1), (slice(None), slice(None), idx), dpatches)
    return dw, db, dx


@functools.lru_cache(maxsize=None)
def _tap_index(c: int, h: int, w: int, kh: int, kw: int) -> np.ndarray:
    """Flat input offsets, ``(output pixels, c * kh * kw)``, of a valid convolution's patches.

    Row ``y * (w - kw + 1) + z`` lists the pixel's taps in ``(channel, i, j)``
    order, the order of a kernel's ``(in_ch, kh, kw)`` axes.
    """
    pixels = np.arange(h - kh + 1)[:, None] * w + np.arange(w - kw + 1)
    taps = np.arange(c)[:, None, None] * (h * w) + np.arange(kh)[:, None] * w + np.arange(kw)
    idx = pixels.reshape(-1, 1) + taps.reshape(1, -1)
    idx.flags.writeable = False
    return idx


def _unfold(x: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Patch rows ``(K, n * pixels, taps)`` of a ``(K, n, C, H, W)`` input."""
    k, n = x.shape[:2]
    return np.take(x.reshape(k, n, -1), idx, axis=2).reshape(k, n * idx.shape[0], idx.shape[1])


def ce_loss(probs: np.ndarray, labels: np.ndarray) -> tuple[float | np.ndarray, np.ndarray]:
    """Mean cross entropy over the rows and its gradient w.r.t. the logits.

    Takes ``(n, classes)`` probabilities with ``(n,)`` labels, or a client
    stack ``(K, n, classes)`` with ``(K, n)`` labels and then returns one
    loss per client.  Probabilities are clamped below at ``PROB_FLOOR``
    before the log.
    """
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n = probs.shape[-2]
    dlogits = probs.reshape(-1, probs.shape[-1]).copy()  # one row per (client, sample)
    rows = np.arange(dlogits.shape[0])
    picked = dlogits[rows, labels.ravel()]
    loss = (-np.log(np.maximum(picked, PROB_FLOOR))).reshape(labels.shape).sum(axis=-1) / n
    dlogits[rows, labels.ravel()] -= 1.0
    return (float(loss) if loss.ndim == 0 else loss), dlogits.reshape(probs.shape) / n


def kl_div(p_probs: np.ndarray, q_probs: np.ndarray) -> tuple[float | np.ndarray, np.ndarray]:
    """Mean KL divergence ``sum p*log(p/q)`` over a batch of probability rows.

    Returns ``(value, dlogits_p)``: the gradient w.r.t. the logits behind the
    student ``p``.  The teacher's distribution ``q`` is treated as constant.
    Like :func:`ce_loss`, a client stack gives one value per client.
    """
    p = np.asarray(p_probs, dtype=np.float64)
    q = np.asarray(q_probs, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {q.shape}")
    n = p.shape[-2]
    pc = np.maximum(p, PROB_FLOOR)
    log_ratio = np.log(pc / np.maximum(q, PROB_FLOOR))
    row_kl = (pc * log_ratio).sum(axis=-1)
    value = row_kl.sum(axis=-1) / n
    dlogits_p = p * (log_ratio - row_kl[..., None]) / n
    return (float(value) if value.ndim == 0 else value), dlogits_p


def sgd_step(params: NamedTensorMap, grads: NamedTensorMap, opt: OptimizerState) -> NamedTensorMap:
    """One SGD update ``params -= lr(epoch) * grads``, in place; returns ``params``.

    In place, so a map of views into a client stack updates the stack.
    """
    if params.keys() != grads.keys():
        raise ValueError("gradient map keys do not match parameter map keys")
    for k, w in params.items():
        if w.shape != grads[k].shape:
            raise ValueError(f"shape mismatch for {k!r}")
    lr = opt.lr
    for k, w in params.items():
        w -= lr * grads[k]
    return params


def predict_probs(params: NamedTensorMap, spec: ModelSpec, inputs: np.ndarray) -> np.ndarray:
    """Class probabilities for a full array of inputs."""
    return forward(params, spec, np.asarray(inputs, dtype=np.float64))[0]
