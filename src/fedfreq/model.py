"""Minimal trainable neural network with manual backpropagation.

Layers: dense, conv2d (valid padding, stride 1), relu, flatten and a
softmax output.  Losses return the gradient with respect to the final
layer's *logits*, so :func:`backward` starts below the softmax (the usual
fused softmax/cross-entropy arrangement).  The optimizer is plain SGD at a
learning rate the caller passes in; the run's schedule is
``orchestrator.ExperimentConfig.lr``.

Parameters live in plain ``dict[str, np.ndarray]`` maps ("named tensor maps")
that :class:`ModelSpec` names and shapes; iteration that must be deterministic
walks them in sorted order.  Forward, backward, the losses and SGD are written
once, over a leading client axis: a map whose tensors are ``(K, ...)`` stacks
holds K clients' models (:func:`stack_params` builds one), and each client's
numbers come out exactly as they would from that client alone.  A plain map is
a stack of one.  Inputs and labels are plain arrays.

A map may also hold an ``(M, K, ...)`` buffer: M models for each of K
clients, such as a client's personalized model and its deputy, trained on
the same batch.  :func:`forward` broadcasts the ``(K, n, ...)`` batch over
the model axis, so one pass (and one :func:`ce_loss`) serves all M models.
Training then walks back once per model with :func:`descend`, which applies
each layer's SGD update in place as soon as the gradient for the layer
below has been taken (the last use of that layer's weights); :func:`backward`
is the same walk collecting the gradients instead.  None of this changes a
bit: every (model, client) matmul is still one BLAS call on the same shapes
and on contiguous operands laid out as before (``dx @ W.T`` on a transposed
view rounds differently from the same product on a contiguous copy), every
other operation is elementwise or reduces within one model's rows, and an
update ``w -= lr * g`` is the same whether it runs inside the walk or after it.

The training path also works in place where the bits allow it: the dense
bias, a ReLU above the lowest layer with parameters, the softmax and the
SGD scaling ``g *= lr`` write into arrays the pass has just made.  Each
spare temporary of a step's size that is freed at the top of the heap can
push it past glibc's trim threshold (128 KiB unless a freed mmap chunk has
raised it), and the next step then faults those pages back in.

A convolution is unfolded and multiplied.  Each client's input is gathered
into one row per (sample, output pixel) through a tap index that is built
once per (input shape, kernel shape); one batched matmul with the flattened
kernels gives the output, one more gives the weight gradient, and the input
gradient is scattered back through the same index; :func:`backward` reuses
the patches that :class:`ForwardCache` keeps.  :func:`predict_probs` passes
at most ``PREDICT_BLOCK`` samples to one :func:`forward`, so scoring a split
holds one block's activations and patches, not the whole split's.
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass, field
from pathlib import Path

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
# The hot path reduces with np.add.reduce / np.maximum.reduce, the ufunc reductions behind
# ndarray.sum and .max: the same bits, without the ~1 us of Python wrapper per call.
_sum, _max = np.add.reduce, np.maximum.reduce
PREDICT_BLOCK = 512  # samples predict_probs passes to one forward call (see the module docstring)

# OpenBLAS's thread setter and getter: scipy-openblas wheels, then 64-bit-integer and plain builds
_BLAS_THREAD_CALLS = ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_", "openblas_{}_num_threads")


@functools.cache
def _openblas() -> ctypes.CDLL | None:
    """numpy's bundled OpenBLAS (in ``numpy.libs`` next to the package, or ``numpy/.dylibs``), or None."""
    package = Path(np.__file__).parent
    for path in sorted([*package.parent.glob("numpy.libs/*openblas*"), *package.glob(".dylibs/*openblas*")]):
        try:
            return ctypes.CDLL(str(path))  # the copy numpy loaded: one path is opened once
        except OSError:
            continue
    return None


@functools.cache
def _blas_thread_calls():
    """The ``(set, get)`` thread-count functions of :func:`_openblas`, or None."""
    lib = _openblas()
    for name in _BLAS_THREAD_CALLS:  # with no library every lookup gives None
        setter, getter = getattr(lib, name.format("set"), None), getattr(lib, name.format("get"), None)
        if setter is not None and getter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            return setter, getter
    return None


def _set_blas_threads(n: int) -> bool:
    """Sets numpy's bundled OpenBLAS to ``n`` threads; False, changing nothing, where there is none."""
    calls = _blas_thread_calls()
    if calls is not None:
        calls[0](n)
    return calls is not None


# Every product runs on the calling thread: at fedfreq's sizes a second thread gains nothing and
# can cost milliseconds, and with some kernel sets (Haswell) it rounds a product differently.
_set_blas_threads(1)


@dataclass(frozen=True)
class Layer:
    kind: str  # dense | conv2d | relu | flatten | softmax_output
    dims: tuple[int, ...] = ()  # dense: (in, out); conv2d: (in_ch, out_ch, kh, kw)


@dataclass(frozen=True)
class ModelSpec:
    """Architecture description: ordered layers, input shape, class count.

    Building one walks the layers once.  It raises ValueError unless each layer fits the
    shape below it and the last shape is ``(classes,)``, and it derives the fields below,
    which the package reads instead of ``Layer.dims``.
    """

    layers: tuple[Layer, ...]
    input_shape: tuple[int, ...]
    classes: int = 3
    # derived: per layer, the (weight key, bias key) of its parameters, or None
    param_keys: tuple[tuple[str, str] | None, ...] = field(init=False, repr=False, compare=False)
    # derived: parameter key -> tensor shape, in layer order, each weight before its bias
    param_shapes: dict[str, tuple[int, ...]] = field(init=False, repr=False, compare=False)
    # derived: per layer, (index, kind, parameter keys or None, rank of one sample's input)
    plan: tuple[tuple[int, str, tuple[str, str] | None, int], ...] = field(init=False, repr=False, compare=False)
    # derived: index of the lowest layer with parameters (None if no layer has any)
    lowest: int | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "input_shape", tuple(self.input_shape))
        shape = self.input_shape
        counts = {"dense": 0, "conv": 0}
        plan, param_shapes = [], {}
        for i, layer in enumerate(self.layers):
            rank, weight = len(shape), None
            if layer.kind == "dense":
                d_in, d_out = layer.dims
                if shape != (d_in,):
                    raise ValueError(f"layer {i}: dense expects ({d_in},), got {shape}")
                prefix, weight, shape = "dense", (d_in, d_out), (d_out,)
            elif layer.kind == "conv2d":
                c_in, c_out, kh, kw = layer.dims
                if len(shape) != 3 or shape[0] != c_in:
                    raise ValueError(f"layer {i}: conv2d expects ({c_in}, H, W), got {shape}")
                if shape[1] < kh or shape[2] < kw:
                    raise ValueError(f"layer {i}: kernel {kh}x{kw} larger than input {shape}")
                prefix, weight, shape = "conv", (c_out, c_in, kh, kw), (c_out, shape[1] - kh + 1, shape[2] - kw + 1)
            elif layer.kind == "flatten":
                shape = (math.prod(shape),)
            elif layer.kind not in ("relu", "softmax_output"):
                raise ValueError(f"layer {i}: unknown kind {layer.kind!r}")
            keys = None
            if weight is not None:
                counts[prefix] += 1
                keys = (f"{prefix}{counts[prefix]}.weight", f"{prefix}{counts[prefix]}.bias")
                param_shapes[keys[0]], param_shapes[keys[1]] = weight, shape[:1]  # a bias per output
            plan.append((i, layer.kind, keys, rank))
        if shape != (self.classes,):
            raise ValueError(f"final shape {shape} != class count ({self.classes},)")
        object.__setattr__(self, "param_keys", tuple(keys for _, _, keys, _ in plan))
        object.__setattr__(self, "param_shapes", param_shapes)
        object.__setattr__(self, "plan", tuple(plan))
        object.__setattr__(self, "lowest", next((i for i, _, keys, _ in plan if keys is not None), None))


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


MODEL_SPECS = {
    "mlp32": mlp_spec(32),
    "conv4x8": conv_spec((1, 4, 8)),
}


def init_params(spec: ModelSpec, seed) -> NamedTensorMap:
    """Glorot-uniform weights drawn in ``spec.param_shapes`` order, zero biases; deterministic for a given seed."""
    rng = np.random.default_rng(seed)
    params: NamedTensorMap = {}
    for key, shape in spec.param_shapes.items():
        if key.endswith(".bias"):
            params[key] = np.zeros(shape)
        else:
            # fan_in + fan_out, for a dense (in, out) and a conv (out, in, kh, kw) weight alike
            s = np.sqrt(6.0 / ((shape[0] + shape[1]) * math.prod(shape[2:])))
            params[key] = rng.uniform(-s, s, size=shape)
    return {k: params[k] for k in sorted(params)}


def clone_params(params: NamedTensorMap) -> NamedTensorMap:
    return {k: v.copy() for k, v in params.items()}


def stack_params(maps: list[NamedTensorMap]) -> NamedTensorMap:
    """Each tensor of the maps stacked along a new leading client axis, as float64."""
    return {k: np.stack([m[k] for m in maps]).astype(np.float64, copy=False) for k in maps[0]}


@dataclass
class ForwardCache:
    """Forward-pass record consumed by :func:`backward` and :func:`descend`.

    ``inputs[i]`` is layer i's input.  Below and at ``spec.lowest`` it is
    the batch, shared by the models of an ``(M, K, ...)`` buffer; above it,
    it carries the buffer's model axis.  A ReLU above ``spec.lowest`` runs in
    place, so its entry holds the rectified values; ``x > 0`` is the same
    mask on either side of a ReLU.
    """

    spec: ModelSpec
    params: NamedTensorMap
    lifted: bool  # a plain map run as a one-client stack; backward drops the axis again
    inputs: list[np.ndarray] = field(repr=False, default_factory=list)
    # by layer index: a conv layer's unfolded input
    patches: dict[int, np.ndarray] = field(repr=False, default_factory=dict)
    probs: np.ndarray | None = field(repr=False, default=None)


def forward(params: NamedTensorMap, spec: ModelSpec, x: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Run the network on an input array; returns (probabilities, cache for backward).

    Every layer works over the parameters' leading axes.  With a client
    stack (each tensor ``(K, ...)``) ``x`` is ``(K, n, ...)`` and client k's
    rows meet only client k's parameters.  With an ``(M, K, ...)`` buffer of
    M models per client, ``x`` is still ``(K, n, ...)``: the batch is
    broadcast over the model axis (a conv unfolds it once for all M), and
    the probabilities are ``(M, K, n, classes)``.  Each (model, client)
    matmul is the same BLAS call on the same operands as for that client
    alone, so the bits do not depend on what else is in the stack.  A plain
    map with inputs ``(n, ...)`` runs as a one-client stack.
    """
    lowest, lifted = spec.lowest, not _lead(params, spec)
    if lifted:
        params = {k: v[None] for k, v in params.items()}
        x = x[None]
    if x.shape[2:] != spec.input_shape:
        # math.prod, not np.prod: this runs once per batch, and np.prod of a tuple is slow
        if math.prod(x.shape[2:]) != math.prod(spec.input_shape):
            raise ValueError(
                f"batch shape {x.shape[2:]} incompatible with input {spec.input_shape}"
            )
        x = x.reshape(*x.shape[:2], *spec.input_shape)
    inputs, patches = [], {}
    for i, kind, keys, rank in spec.plan:
        inputs.append(x)
        if kind == "dense":
            x = x @ params[keys[0]]
            x += params[keys[1]][..., None, :]  # in place: one temporary fewer (see _backprop)
        elif kind == "conv2d":
            x, patches[i] = _conv2d_forward(x, params[keys[0]], params[keys[1]])
        elif kind == "relu":
            # above the lowest layer with parameters x is this pass's own array: rectify it in
            # place, and backward reads the same mask x > 0 off the output
            x = np.maximum(x, 0.0, out=x if i > lowest else None)
        elif kind == "flatten":
            x = x.reshape(*x.shape[: x.ndim - rank], -1)
        else:  # softmax_output
            x = x - _max(x, axis=-1, keepdims=True)
            np.exp(x, out=x)
            x /= _sum(x, axis=-1, keepdims=True)
    return (x[0] if lifted else x), ForwardCache(spec, params, lifted, inputs, patches, x)


def _conv2d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """Valid convolution, stride 1, as one matmul; returns ``(output, patches)``, the unfolded input.

    ``x`` is ``(..., n, C, H, W)`` and ``w`` ``(..., O, C, kh, kw)``, where
    x's leading axes are w's or their tail.
    """
    lead, (o, _, kh, kw) = w.shape[:-4], w.shape[-4:]
    n = x.shape[-4]
    idx = _tap_index(*x.shape[-3:], kh, kw)
    patches = _unfold(x, idx)
    rows = patches @ w.reshape(lead + (o, -1)).swapaxes(-1, -2)  # (..., n * pixels, O)
    out = np.empty(lead + (n, o, idx.shape[0]))
    out[...] = rows.reshape(lead + (n, idx.shape[0], o)).swapaxes(-1, -2)
    out += b[..., None, :, None]
    return out.reshape(lead + (n, o, x.shape[-2] - kh + 1, x.shape[-1] - kw + 1)), patches


def backward(cache: ForwardCache, dlogits: np.ndarray) -> NamedTensorMap:
    """Backpropagate a gradient w.r.t. the final logits through the network.

    Returns a gradient map with exactly the trainable parameter keys, stacked
    like the parameters the cache was made with.  Raises ValueError if the
    cache is incomplete or the gradient shape does not match the cached output.
    """
    grads = _backprop(cache, dlogits, None, None, None)
    if cache.lifted:
        return {k: g[0] for k, g in grads.items()}
    return grads


def descend(
    cache: ForwardCache,
    dlogits: np.ndarray,
    lr: float,
    m: int | None = None,
    prox: tuple[float, NamedTensorMap] | None = None,
) -> None:
    """One SGD step on the parameters the cache was made with, in place, inside the backward walk.

    The walk is :func:`backward`'s: each layer gets ``w -= lr * g`` as soon
    as the gradient for the layer below it has been taken, which is the
    last use of ``w``.  So the updated bits are those of :func:`backward`
    followed by :func:`sgd_step`, with no gradient map kept.  ``m`` picks
    model m of an ``(M, K, ...)`` buffer (``dlogits`` is then that model's
    ``(K, n, classes)``); None updates every model.  ``prox = (mu, anchor)``
    adds the FedProx gradient ``mu * (w - anchor)``, the one anchor map
    broadcast over the clients (the same bits as subtracting it per client).
    Raises ValueError like :func:`backward`, and if a gradient's shape is
    not its tensor's.
    """
    _backprop(cache, dlogits, m, lr, prox)


def _backprop(cache: ForwardCache, dlogits, m: int | None, lr: float | None, prox) -> NamedTensorMap:
    """The backward walk of :func:`backward` and :func:`descend`, top layer first.

    With ``lr`` None it returns every gradient in a map.  Otherwise each
    layer's tensors get ``w -= lr * (g + prox)`` right after the gradient
    for the layer below has been taken, and the map comes back empty.  ``m``
    picks model m of an ``(M, K, ...)`` buffer.  No gradient is taken below
    the lowest layer with parameters.
    """
    spec, params = cache.spec, cache.params
    if cache.probs is None or len(cache.inputs) != len(spec.layers):
        raise ValueError("stale or incomplete forward cache")
    dx = np.asarray(dlogits, dtype=np.float64)
    if cache.lifted:
        dx = dx[None]
    want = cache.probs.shape
    if m is not None:
        if cache.probs.ndim != 4:
            raise ValueError("a model index needs a cache of an (M, K, ...) buffer")
        want = want[1:]
    if dx.shape != want:
        raise ValueError(f"gradient shape {dx.shape} != output shape {want}")
    lowest = spec.lowest
    grads: NamedTensorMap = {}
    for i, kind, keys, _ in reversed(spec.plan[lowest:]):
        if kind == "softmax_output":
            continue  # losses already differentiate through the softmax
        x = cache.inputs[i]
        if m is not None and i > lowest:
            x = x[m]  # above the lowest layer with parameters, inputs carry the model axis
        if kind == "relu":
            dx = dx * (x > 0.0)
            continue
        if kind == "flatten":
            dx = dx.reshape(x.shape)
            continue
        w_key, b_key = keys
        w = params[w_key] if m is None else params[w_key][m]
        if kind == "dense":
            gw, gb = x.swapaxes(-1, -2) @ dx, _sum(dx, axis=-2)
            if i > lowest:
                dx = dx @ w.swapaxes(-1, -2)
        else:  # conv2d
            patches = cache.patches[i]
            if m is not None and i > lowest:
                patches = patches[m]
            gw, gb, dx = _conv2d_backward(x, w, dx, i > lowest, patches)
        if lr is None:
            grads[w_key], grads[b_key] = gw, gb
            continue
        b = params[b_key] if m is None else params[b_key][m]
        for key, t, g in ((w_key, w, gw), (b_key, b, gb)):
            if g.shape != t.shape:
                raise ValueError(f"shape mismatch for {key!r}")
            if prox is not None:  # in place, the same bits as g + mu * (w - anchor)
                g += prox[0] * (t - prox[1][key])
            # g *= lr, not t -= lr * g: the same bits, and no step-sized temporary to
            # free, which would let glibc trim the heap and fault the pages back in
            g *= lr
            t -= g
    return grads


def _conv2d_backward(x: np.ndarray, w: np.ndarray, dout: np.ndarray, want_dx: bool, patches: np.ndarray):
    """Weight, bias and (if ``want_dx``) input gradients; ``patches`` is ``x`` unfolded."""
    lead, (n, o) = dout.shape[:-4], dout.shape[-4:-2]
    rows = dout.reshape(lead + (n, o, -1)).swapaxes(-1, -2).reshape(lead + (-1, o))  # (..., n * pixels, O)
    dw = (rows.swapaxes(-1, -2) @ patches).reshape(w.shape)
    db = _sum(rows, axis=-2)
    dx = None
    if want_dx:
        # each patch entry's gradient goes back to the input pixel it was gathered from
        idx = _tap_index(*x.shape[-3:], *w.shape[-2:])
        dpatches = (rows @ w.reshape(lead + (o, -1))).reshape(lead + (n, *idx.shape))
        dx = np.zeros(x.shape)
        np.add.at(dx.reshape(x.shape[:-3] + (-1,)), (..., idx), dpatches)
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
    """Patch rows ``(..., n * pixels, taps)`` of a ``(..., n, C, H, W)`` input."""
    # the take method, not np.take: this runs once per conv forward pass, and np.take's dispatch costs more
    return x.reshape(x.shape[:-3] + (-1,)).take(idx, axis=-1).reshape(x.shape[:-4] + (-1, idx.shape[1]))


def ce_loss(probs: np.ndarray, labels: np.ndarray) -> tuple[float | np.ndarray, np.ndarray]:
    """Mean cross entropy over the rows and its gradient w.r.t. the logits.

    Takes ``(n, classes)`` probabilities with ``(n,)`` labels, or a client
    stack ``(K, n, classes)`` with ``(K, n)`` labels and then returns one
    loss per client.  Labels broadcast over any further leading axes: an
    ``(M, K, n, classes)`` buffer's M models share the ``(K, n)`` labels and
    get ``(M, K)`` losses.  Probabilities are clamped below at
    ``PROB_FLOOR`` before the log.
    """
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    lead = probs.shape[:-1]
    if labels.ndim > len(lead) or lead[len(lead) - labels.ndim :] != labels.shape:
        raise ValueError(f"labels {labels.shape} do not fit probabilities {probs.shape}")
    dlogits = probs.reshape(-1, probs.shape[-1]).copy()  # one row per (model, client, sample)
    rows = np.arange(len(dlogits))
    flat = labels.ravel()
    if flat.size != len(rows):  # the models share the labels
        flat = np.concatenate([flat] * (len(rows) // flat.size))
    picked = dlogits[rows, flat]
    loss = _sum((-np.log(np.maximum(picked, PROB_FLOOR))).reshape(lead), axis=-1) / lead[-1]
    dlogits[rows, flat] -= 1.0
    return (float(loss) if loss.ndim == 0 else loss), dlogits.reshape(probs.shape) / lead[-1]


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
    row_kl = _sum(pc * log_ratio, axis=-1)
    value = _sum(row_kl, axis=-1) / n
    dlogits_p = p * (log_ratio - row_kl[..., None]) / n
    return (float(value) if value.ndim == 0 else value), dlogits_p


def sgd_step(params: NamedTensorMap, grads: NamedTensorMap, lr: float) -> NamedTensorMap:
    """One SGD update ``params -= lr * grads``, in place; returns ``params``.

    In place, so a map of views into a client stack updates the stack.
    """
    check_same_structure([params, grads])
    for k, w in params.items():
        w -= lr * grads[k]
    return params


def predict_probs(params: NamedTensorMap, spec: ModelSpec, inputs: np.ndarray) -> np.ndarray:
    """:func:`forward`'s probabilities, computed ``PREDICT_BLOCK`` samples at a time into one output."""
    x = np.asarray(inputs, dtype=np.float64)
    lead = _lead(params, spec)
    before = (slice(None),) * min(len(lead), 1)  # the axes before the sample axis: (n, ...) or (K, n, ...)
    n = x.shape[len(before)]
    out = np.empty(lead + (n, spec.classes))
    for s in range(0, n, PREDICT_BLOCK):
        out[..., s : s + PREDICT_BLOCK, :] = forward(params, spec, x[before + (slice(s, s + PREDICT_BLOCK),)])[0]
    return out


def _lead(params: NamedTensorMap, spec: ModelSpec) -> tuple[int, ...]:
    """The leading axes of ``params``: () for one model's map, (K,) for a stack, (M, K) for a buffer."""
    key = None if spec.lowest is None else spec.param_keys[spec.lowest][0]  # the lowest layer's weight
    return () if key is None else params[key].shape[: -len(spec.param_shapes[key])]
