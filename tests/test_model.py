import tracemalloc
import zlib

import numpy as np
import pytest

from fedfreq.model import (
    MODEL_SPECS,
    PREDICT_BLOCK,
    Layer,
    ModelSpec,
    backward,
    ce_loss,
    clone_params,
    conv_spec,
    descend,
    forward,
    init_params,
    kl_div,
    mlp_spec,
    predict_probs,
    sgd_step,
    stack_params,
)
from helpers import fd_gradient, relative_error


def small_mlp(input_dim=6, hidden=8, classes=3):
    return ModelSpec(
        layers=(
            Layer("flatten"),
            Layer("dense", (input_dim, hidden)),
            Layer("relu"),
            Layer("dense", (hidden, classes)),
            Layer("softmax_output"),
        ),
        input_shape=(input_dim,),
        classes=classes,
    )


def two_conv():
    # a conv above a conv: the upper one unfolds two channels and passes its
    # input gradient down, which a lowest-layer single-channel conv never does
    return ModelSpec(
        layers=(
            Layer("conv2d", (1, 2, 2, 2)),
            Layer("relu"),
            Layer("conv2d", (2, 3, 2, 2)),
            Layer("relu"),
            Layer("flatten"),
            Layer("dense", (24, 3)),
            Layer("softmax_output"),
        ),
        input_shape=(1, 4, 6),
        classes=3,
    )


def random_batch(rng, spec, n=5):
    x = rng.standard_normal((n, *spec.input_shape))
    y = rng.integers(0, spec.classes, size=n)
    return x, y


# --- forward ------------------------------------------------------------------


def test_forward_zero_weights_gives_uniform():
    spec = small_mlp()
    params = {k: np.zeros_like(v) for k, v in init_params(spec, 0).items()}
    x, _ = random_batch(np.random.default_rng(0), spec)
    probs, _ = forward(params, spec, x)
    assert np.allclose(probs, 1.0 / 3.0, atol=1e-12)


def test_forward_softmax_saturation():
    spec = ModelSpec(
        layers=(Layer("dense", (3, 3)), Layer("softmax_output")),
        input_shape=(3,),
        classes=3,
    )
    params = {"dense1.weight": np.eye(3) * 50.0, "dense1.bias": np.zeros(3)}
    probs, _ = forward(params, spec, np.array([[1.0, 0.0, 0.0]]))
    assert probs[0, 0] > 1.0 - 1e-9
    assert probs[0, 1] < 1e-9 and probs[0, 2] < 1e-9


def test_forward_rows_sum_to_one():
    rng = np.random.default_rng(1)
    spec = small_mlp()
    params = init_params(spec, 1)
    for _ in range(100):
        probs, _ = forward(params, spec, random_batch(rng, spec)[0])
        assert np.all(probs >= 0.0)
        assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-9


def test_forward_deterministic():
    rng = np.random.default_rng(2)
    spec = small_mlp()
    params = init_params(spec, 2)
    x, _ = random_batch(rng, spec)
    a, _ = forward(params, spec, x)
    b, _ = forward(params, spec, x)
    assert np.array_equal(a, b)


def test_forward_shape_mismatch():
    spec = small_mlp()
    params = init_params(spec, 0)
    with pytest.raises(ValueError):
        forward(params, spec, np.zeros((2, 5)))


def test_forward_reshapes_flat_input_for_conv():
    spec = conv_spec((1, 4, 8))
    params = init_params(spec, 0)
    probs, _ = forward(params, spec, np.zeros((2, 32)))
    assert probs.shape == (2, 3)


def test_conv_forward_beyond_one_unfold_block_matches_a_loop_convolution():
    spec = ModelSpec(
        layers=(Layer("conv2d", (2, 3, 3, 2)), Layer("flatten"), Layer("dense", (45, 3)), Layer("softmax_output")),
        input_shape=(2, 5, 6),
        classes=3,
    )
    rng = np.random.default_rng(17)
    n = 2 * PREDICT_BLOCK + 37  # predict_probs scores it in two full blocks and a partial one
    x = rng.standard_normal((n, 2, 5, 6))
    params = init_params(spec, 5)
    params["conv1.bias"] = rng.standard_normal(3)
    w, b = params["conv1.weight"], params["conv1.bias"]
    want = np.empty((n, 3, 3, 5))
    for o in range(3):
        for y in range(3):
            for z in range(5):
                want[:, o, y, z] = b[o] + (x[:, :, y : y + 3, z : z + 2] * w[o]).sum(axis=(1, 2, 3))
    _, cache = forward(params, spec, x)
    got = cache.inputs[1][0]  # the conv's output is the flatten layer's input
    assert np.allclose(got, want, rtol=0.0, atol=1e-12)
    # the same client inside a stack of three gets the same bits
    others = [init_params(spec, seed) for seed in (6, 7)]
    stacked = {k: np.stack([others[0][k], params[k], others[1][k]]) for k in params}
    xs = np.stack([rng.standard_normal(x.shape), x, rng.standard_normal(x.shape)])
    probs, stacked_cache = forward(stacked, spec, xs)
    assert np.array_equal(stacked_cache.inputs[1][1], got)
    assert np.array_equal(probs[1], predict_probs(params, spec, x))


def test_model_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec(
            layers=(Layer("dense", (4, 5)), Layer("dense", (6, 3)), Layer("softmax_output")),
            input_shape=(4,),
            classes=3,
        )
    with pytest.raises(ValueError):
        ModelSpec(layers=(Layer("dense", (4, 5)), Layer("softmax_output")), input_shape=(4,), classes=3)


# --- losses ---------------------------------------------------------------------


def test_ce_loss_perfect_prediction():
    probs = np.array([[1.0, 0.0, 0.0]])
    loss, _ = ce_loss(probs, np.array([0]))
    assert loss == 0.0


def test_ce_loss_uniform():
    probs = np.full((4, 3), 1.0 / 3.0)
    loss, _ = ce_loss(probs, np.array([0, 1, 2, 0]))
    assert abs(loss - np.log(3.0)) < 1e-9
    assert abs(loss - 1.09861) < 1e-5


def test_ce_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    logits = rng.standard_normal((6, 3))
    labels = rng.integers(0, 3, size=6)

    def loss_of(z):
        e = np.exp(z - z.max(axis=1, keepdims=True))
        p = e / e.sum(axis=1, keepdims=True)
        return ce_loss(p, labels)[0]

    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    _, analytic = ce_loss(probs, labels)
    fd = fd_gradient(lambda p: loss_of(p["z"]), {"z": logits.copy()})["z"]
    assert relative_error(analytic, fd) < 1e-4


def test_kl_zero_for_identical():
    p = np.array([[0.2, 0.3, 0.5], [0.6, 0.3, 0.1]])
    value, gp = kl_div(p, p.copy())
    assert value == 0.0
    assert np.max(np.abs(gp)) < 1e-12


def test_kl_clamped_example():
    value, _ = kl_div(np.array([[1.0, 0.0]]), np.array([[0.5, 0.5]]))
    assert abs(value - np.log(2.0)) < 1e-9
    assert abs(value - 0.69315) < 1e-5


def test_kl_nonnegative_on_random_pairs():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        p = rng.dirichlet(np.ones(3))
        q = rng.dirichlet(np.ones(3))
        value, _ = kl_div(p[None, :], q[None, :])
        assert value >= 0.0


def test_kl_shape_mismatch():
    with pytest.raises(ValueError):
        kl_div(np.ones((1, 3)) / 3, np.ones((1, 2)) / 2)


def test_kl_gradients_match_finite_differences():
    rng = np.random.default_rng(5)
    zp = rng.standard_normal((4, 3))
    zq = rng.standard_normal((4, 3))

    def softmax(z):
        e = np.exp(z - z.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)

    _, gp = kl_div(softmax(zp), softmax(zq))
    fd_p = fd_gradient(lambda d: kl_div(softmax(d["z"]), softmax(zq))[0], {"z": zp.copy()})["z"]
    assert relative_error(gp, fd_p) < 1e-4


# --- backward -------------------------------------------------------------------


def _loss_ce(params, spec, x, y):
    probs, _ = forward(params, spec, x)
    return ce_loss(probs, y)[0]


def _loss_distill(params, spec, x, y, teacher):
    # both training losses share this shape: CE plus KL(student || teacher)
    # with the teacher held constant; deputy and personalized roles swap
    # which model is the student
    probs, _ = forward(params, spec, x)
    t_probs, _ = forward(teacher, spec, x)
    return ce_loss(probs, y)[0] + kl_div(probs, t_probs)[0]


@pytest.mark.parametrize("spec_builder", [small_mlp, lambda: conv_spec((1, 4, 6)), two_conv])
@pytest.mark.parametrize("composition", ["ce", "deputy", "personalized"])
def test_backward_matches_finite_differences(spec_builder, composition):
    spec = spec_builder()
    # crc32, not hash(): str hashing is salted per process, so hash() would draw a new
    # case on every run and now and then put a ReLU input inside the finite-difference step
    rng = np.random.default_rng(zlib.crc32(f"{composition}{spec.input_shape}".encode()))
    params = init_params(spec, int(rng.integers(0, 1000)))
    teacher = init_params(spec, int(rng.integers(1000, 2000)))
    x, y = random_batch(rng, spec, n=4)

    probs, cache = forward(params, spec, x)
    _, dlogits = ce_loss(probs, y)
    if composition == "ce":
        loss_fn = lambda p: _loss_ce(p, spec, x, y)
    else:
        t_probs, _ = forward(teacher, spec, x)
        _, dkl = kl_div(probs, t_probs)
        dlogits = dlogits + dkl
        loss_fn = lambda p: _loss_distill(p, spec, x, y, teacher)
    analytic = backward(cache, dlogits)
    fd = fd_gradient(loss_fn, clone_params(params))
    assert sorted(analytic) == sorted(params)
    for name in params:
        assert relative_error(analytic[name], fd[name]) < 1e-4, name


@pytest.mark.parametrize("stacked", [False, True])
@pytest.mark.parametrize("spec_builder", [lambda: conv_spec((1, 4, 8)), two_conv])
def test_conv_backward_from_kept_patches_sums_the_parts_gradients(spec_builder, stacked):
    # forward keeps every conv layer's patches, for a batch past PREDICT_BLOCK samples
    # too; the gradient of a batch is the sum of the gradients of its parts
    spec = spec_builder()
    rng = np.random.default_rng(18)
    maps = [init_params(spec, seed) for seed in (18, 19, 20)]
    n = PREDICT_BLOCK + 37
    if stacked:
        params = {k: np.stack([m[k] for m in maps]) for k in maps[0]}
        x = rng.standard_normal((3, n, *spec.input_shape))
    else:
        params, x = maps[0], rng.standard_normal((n, *spec.input_shape))
    probs, cache = forward(params, spec, x)
    convs = [i for i, layer in enumerate(spec.layers) if layer.kind == "conv2d"]
    assert sorted(cache.patches) == convs
    dlogits = rng.standard_normal(probs.shape)
    whole = backward(cache, dlogits)
    parts = []
    for rows in (slice(0, 16), slice(16, n)):
        _, part_cache = forward(params, spec, x[..., rows, :, :, :])
        parts.append(backward(part_cache, dlogits[..., rows, :]))
    for k in params:
        assert np.allclose(whole[k], parts[0][k] + parts[1][k], rtol=1e-9, atol=1e-12), k
    assert any(np.abs(g).max() > 1e-3 for g in whole.values())


@pytest.mark.parametrize("stacked", [False, True])
@pytest.mark.parametrize("n", [PREDICT_BLOCK, PREDICT_BLOCK + 1, PREDICT_BLOCK + 37])
@pytest.mark.parametrize("model_id", ["mlp32", "conv4x8"])
def test_predict_probs_equals_forward_block_by_block(model_id, n, stacked):
    # flat rows as a run scores them; stacked, an (M, K, ...) buffer on (K, n, ...) splits
    spec = MODEL_SPECS[model_id]
    rng = np.random.default_rng(n)
    maps = [init_params(spec, seed) for seed in range(6)]
    if stacked:
        params = {k: np.stack([m[k] for m in maps]).reshape(2, 3, *maps[0][k].shape) for k in maps[0]}
        x = rng.standard_normal((3, n, 32))
    else:
        params, x = maps[0], rng.standard_normal((n, 32))
    got = predict_probs(params, spec, x)
    blocks = [
        forward(params, spec, x[..., s : s + PREDICT_BLOCK, :])[0] for s in range(0, n, PREDICT_BLOCK)
    ]
    assert np.array_equal(got, np.concatenate(blocks, axis=-2))
    whole, _ = forward(params, spec, x)
    assert got.shape == whole.shape
    assert np.array_equal(got.argmax(axis=-1), whole.argmax(axis=-1))


@pytest.mark.parametrize("model_id", ["mlp32", "conv4x8"])
def test_predict_probs_memory_is_bounded_by_one_block(model_id):
    spec = MODEL_SPECS[model_id]
    params = init_params(spec, 0)
    x = np.random.default_rng(0).standard_normal((20_000, 32))
    predict_probs(params, spec, x[:PREDICT_BLOCK])  # builds the conv tap index outside the count
    tracemalloc.start()
    try:
        predict_probs(params, spec, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20  # one unblocked pass peaks near 16 MiB


def test_backward_zero_upstream_gives_zero_gradients():
    spec = small_mlp()
    params = init_params(spec, 7)
    x, _ = random_batch(np.random.default_rng(7), spec)
    probs, cache = forward(params, spec, x)
    grads = backward(cache, np.zeros_like(probs))
    for g in grads.values():
        assert np.all(g == 0.0)


def test_backward_excludes_teacher_parameters():
    spec = small_mlp()
    params = init_params(spec, 8)
    x, y = random_batch(np.random.default_rng(8), spec)
    probs, cache = forward(params, spec, x)
    teacher_probs, _ = forward(init_params(spec, 9), spec, x)
    _, dlogits = ce_loss(probs, y)
    _, dkl = kl_div(probs, teacher_probs)
    grads = backward(cache, dlogits + dkl)
    assert sorted(grads) == sorted(params)  # only the student's keys


def test_backward_rejects_bad_gradient_shape():
    spec = small_mlp()
    params = init_params(spec, 10)
    probs, cache = forward(params, spec, random_batch(np.random.default_rng(10), spec)[0])
    with pytest.raises(ValueError):
        backward(cache, np.zeros((probs.shape[0], probs.shape[1] + 1)))


def test_backward_rejects_stale_cache():
    spec = small_mlp()
    params = init_params(spec, 11)
    probs, cache = forward(params, spec, random_batch(np.random.default_rng(11), spec)[0])
    cache.inputs.pop()
    with pytest.raises(ValueError):
        backward(cache, np.zeros_like(probs))


@pytest.mark.parametrize("with_prox", [False, True])
@pytest.mark.parametrize("stacked", [False, True])
@pytest.mark.parametrize("spec_builder", [small_mlp, two_conv])
def test_descend_applies_exactly_what_backward_and_sgd_step_give(spec_builder, stacked, with_prox):
    spec = spec_builder()
    rng = np.random.default_rng(22)
    maps = [init_params(spec, seed) for seed in (22, 23)]
    if stacked:
        params = {k: np.stack([m[k] for m in maps]) for k in maps[0]}
        x = rng.standard_normal((2, 5, *spec.input_shape))
    else:
        params, x = maps[0], rng.standard_normal((5, *spec.input_shape))
    anchor = init_params(spec, 24)
    probs, cache = forward(params, spec, x)
    dlogits = rng.standard_normal(probs.shape)
    grads = backward(cache, dlogits)
    if with_prox:
        grads = {k: g + 0.3 * (params[k] - anchor[k]) for k, g in grads.items()}
    want = sgd_step(clone_params(params), grads, 0.05)

    descend(cache, dlogits, 0.05, prox=(0.3, anchor) if with_prox else None)  # in place

    for k in want:
        assert np.array_equal(params[k], want[k]), k
    with pytest.raises(ValueError, match="gradient shape"):
        descend(cache, dlogits[..., :-1], 0.05)
    with pytest.raises(ValueError, match="model index"):
        descend(cache, dlogits, 0.05, m=0)  # no (M, K, ...) buffer here


@pytest.mark.parametrize("m", [0, 1])
def test_descend_on_one_model_of_a_buffer_is_that_model_trained_alone(m):
    # two_conv's upper conv takes its input gradient from model m's own patches,
    # which no shipped spec reaches: both put their only conv lowest
    spec = two_conv()
    rng = np.random.default_rng(31)
    models = [stack_params([init_params(spec, seed), init_params(spec, seed + 1)]) for seed in (31, 33)]
    buffer = {k: np.stack([model[k] for model in models]) for k in models[0]}  # (M=2, K=2, ...)
    x = rng.standard_normal((2, 5, *spec.input_shape))
    probs, cache = forward(buffer, spec, x)
    dlogits = rng.standard_normal(probs.shape[1:])

    alone = clone_params(models[m])
    grads = backward(forward(alone, spec, x)[1], dlogits)
    for k, g in grads.items():
        alone[k] -= 0.05 * g
    descend(cache, dlogits, 0.05, m)  # in place

    for k in buffer:
        assert buffer[k][m].tobytes() == alone[k].tobytes(), k
        assert buffer[k][1 - m].tobytes() == models[1 - m][k].tobytes(), k


# --- optimizer ------------------------------------------------------------------


def test_sgd_zero_gradients_no_change():
    params = {"w": np.array([1.0, -2.0])}
    out = sgd_step(params, {"w": np.zeros(2)}, 0.01)
    assert np.array_equal(out["w"], params["w"])


def test_sgd_single_step():
    out = sgd_step({"w": np.array([1.0])}, {"w": np.array([1.0])}, 0.01)
    assert np.allclose(out["w"], [0.99])


def test_sgd_structural_mismatch():
    with pytest.raises(ValueError):
        sgd_step({"w": np.zeros(2)}, {"v": np.zeros(2)}, 0.01)
    with pytest.raises(ValueError):
        sgd_step({"w": np.zeros(2)}, {"w": np.zeros(3)}, 0.01)


# --- training sanity -------------------------------------------------------------


def test_loss_decreases_on_separable_toy_set():
    rng = np.random.default_rng(12)
    spec = small_mlp(input_dim=2, hidden=8, classes=3)
    params = init_params(spec, 12)
    centers = np.array([[3.0, 0.0], [-3.0, 3.0], [0.0, -3.0]])
    labels = rng.integers(0, 3, size=60)
    inputs = centers[labels] + 0.1 * rng.standard_normal((60, 2))
    def current_loss(p):
        probs, _ = forward(p, spec, inputs)
        return ce_loss(probs, labels)[0]

    initial = current_loss(params)
    for _ in range(200):
        probs, cache = forward(params, spec, inputs)
        _, dlogits = ce_loss(probs, labels)
        params = sgd_step(params, backward(cache, dlogits), 0.05)
    assert current_loss(params) < initial


def test_init_params_deterministic_and_bounded():
    spec = mlp_spec(32)
    a = init_params(spec, 123)
    b = init_params(spec, 123)
    for k in a:
        assert np.array_equal(a[k], b[k])
    s = np.sqrt(6.0 / (32 + 64))
    assert np.max(np.abs(a["dense1.weight"])) <= s
    assert np.all(a["dense1.bias"] == 0.0)
    conv = init_params(MODEL_SPECS["conv4x8"], 123)["conv1.weight"]
    assert np.max(np.abs(conv)) <= np.sqrt(6.0 / ((8 + 1) * 9))  # fan_in 1 * 3 * 3, fan_out 8 * 3 * 3
    for spec in (MODEL_SPECS["mlp32"], MODEL_SPECS["conv4x8"], two_conv()):
        params = init_params(spec, 0)
        # layer order, each weight before its bias; init_params returns its map in name order
        assert list(spec.param_shapes) == [k for keys in spec.param_keys if keys is not None for k in keys]
        assert list(params) == sorted(spec.param_shapes)
        assert {k: v.shape for k, v in params.items()} == spec.param_shapes
    # a conv weight is (out_ch, in_ch, kh, kw), where its Layer dims read (in_ch, out_ch, kh, kw)
    assert two_conv().param_shapes["conv2.weight"] == (3, 2, 2, 2)


def test_predict_probs_matches_forward():
    spec = small_mlp()
    params = init_params(spec, 14)
    x = np.random.default_rng(14).standard_normal((7, 6))
    probs = predict_probs(params, spec, x)
    ref, _ = forward(params, spec, x)
    assert np.array_equal(probs, ref)
