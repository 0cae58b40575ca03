import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedfreq.det import (
    ClientState,
    Cohort,
    DetConfig,
    DetPhase,
    DivergenceError,
    EpochLog,
    det_phase_transition,
    group_step,
    local_epoch,
    pad_splits,
    receive_deputy,
    stacked_validation_f1,
    train_epoch,
    upload_model,
)
from fedfreq.metrics import macro_f1
from fedfreq.model import (
    MODEL_SPECS,
    OptimizerState,
    backward,
    ce_loss,
    clone_params,
    forward,
    init_params,
    kl_div,
    mlp_spec,
    predict_probs,
    sgd_step,
)

CFG = DetConfig(0.7, 0.9)
SPEC = mlp_spec(input_dim=6)


def alone_f1(params, spec, x, y):
    """Macro F1 of one model scored alone, on its own unpadded split."""
    return macro_f1(predict_probs(params, spec, x).argmax(axis=1), y, spec.classes)


def make_state(seed=0):
    params = init_params(SPEC, seed)
    return ClientState(personalized=clone_params(params), deputy=clone_params(params))


def make_data(rng, n=40):
    x = rng.standard_normal((n, 6))
    y = rng.integers(0, 3, size=n)
    return x, y


def batches_of(x, y, size=8):
    return [(x[i : i + size], y[i : i + size]) for i in range(0, len(y), size)]


def in_order(train):
    """Each split's identity permutation: an epoch that batches every split as given."""
    return [np.arange(len(y)) for _, y in train]


def cohort_epoch(states, spec, train, batch_size, vals, opt, prox=None):
    """One :func:`train_epoch` over a cohort of ``states`` on the splits ``train`` as given; writes
    each client's models (read from the buffer's slots) and phase back to its state and returns its log."""
    deputies = None if states[0].deputy is None else [s.deputy for s in states]
    cohort = Cohort([s.personalized for s in states], deputies, train, vals, batch_size)
    cohort.phases[:] = [s.phase for s in states]
    log = train_epoch(cohort, spec, in_order(train), CFG, opt, prox)
    logs = []
    for j, (state, s) in enumerate(zip(states, cohort.slots)):
        state.personalized = {k: v[s] for k, v in cohort.p.items()}
        if deputies is not None:
            state.deputy = {k: v[s] for k, v in cohort.d.items()}
        state.phase = DetPhase(cohort.phases[j])
        scores = (log.ce_loss[j], log.kl_loss[j], log.phi_d[j], log.phi_p[j])
        logs.append(EpochLog(*map(float, scores), state.phase))
    return logs


# --- phase transition rule -------------------------------------------------------


def test_transition_examples():
    assert det_phase_transition(0.60, 1.0, CFG, DetPhase.RECOVER) is DetPhase.RECOVER
    assert det_phase_transition(0.75, 1.0, CFG, DetPhase.RECOVER) is DetPhase.EXCHANGE
    assert det_phase_transition(0.95, 1.0, CFG, DetPhase.EXCHANGE) is DetPhase.SUBLIMATE


def test_transition_boundaries_inclusive():
    assert det_phase_transition(0.7 * 1.0, 1.0, CFG, DetPhase.RECOVER) is DetPhase.EXCHANGE
    assert det_phase_transition(0.9 * 1.0, 1.0, CFG, DetPhase.RECOVER) is DetPhase.SUBLIMATE
    phi_p = 0.5
    assert det_phase_transition(CFG.lambda1 * phi_p, phi_p, CFG, DetPhase.RECOVER) is DetPhase.EXCHANGE


def test_transition_never_moves_backward():
    assert det_phase_transition(0.1, 1.0, CFG, DetPhase.EXCHANGE) is DetPhase.EXCHANGE
    assert det_phase_transition(0.1, 1.0, CFG, DetPhase.SUBLIMATE) is DetPhase.SUBLIMATE
    assert det_phase_transition(0.75, 1.0, CFG, DetPhase.SUBLIMATE) is DetPhase.SUBLIMATE


def test_transition_zero_phi_p_jumps_to_sublimate():
    assert det_phase_transition(0.0, 0.0, CFG, DetPhase.RECOVER) is DetPhase.SUBLIMATE


def test_transition_exhaustive_grid():
    grid = np.linspace(0.0, 1.0, 21)
    for current in DetPhase:
        for phi_p in grid:
            for phi_d in grid:
                got = det_phase_transition(float(phi_d), float(phi_p), CFG, current)
                if phi_d >= CFG.lambda2 * phi_p:
                    want = DetPhase.SUBLIMATE
                elif phi_d >= CFG.lambda1 * phi_p:
                    want = DetPhase.EXCHANGE
                else:
                    want = DetPhase.RECOVER
                assert got is max(want, current)


def test_scripted_phi_sequence_walks_all_phases():
    phase = DetPhase.RECOVER
    seen = [phase]
    for ratio in (0.5, 0.75, 0.95):
        phase = det_phase_transition(ratio * 0.8, 0.8, CFG, phase)
        seen.append(phase)
    assert seen == [DetPhase.RECOVER, DetPhase.RECOVER, DetPhase.EXCHANGE, DetPhase.SUBLIMATE]


def test_det_config_validation():
    with pytest.raises(ValueError):
        DetConfig(0.9, 0.7)
    with pytest.raises(ValueError):
        DetConfig(0.0, 0.9)
    with pytest.raises(ValueError):
        DetConfig(0.7, 1.0)


# --- deputy receipt and upload ------------------------------------------------------


def test_receive_deputy_leaves_p_untouched():
    state = make_state()
    before = clone_params(state.personalized)
    aggregate = init_params(SPEC, 99)
    receive_deputy(state, aggregate)
    for k in before:
        assert np.array_equal(state.personalized[k], before[k])


def test_receive_deputy_resets_phase():
    state = make_state()
    state.phase = DetPhase.SUBLIMATE
    receive_deputy(state, init_params(SPEC, 99))
    assert state.phase is DetPhase.RECOVER


def test_receive_deputy_installs_exact_copy():
    state = make_state()
    aggregate = init_params(SPEC, 42)
    receive_deputy(state, aggregate)
    for k in aggregate:
        assert np.array_equal(state.deputy[k], aggregate[k])
    aggregate["dense1.weight"][0, 0] += 1.0  # caller mutation must not leak
    assert state.deputy["dense1.weight"][0, 0] != aggregate["dense1.weight"][0, 0]


def test_receive_deputy_structural_mismatch():
    state = make_state()
    bad = init_params(SPEC, 1)
    bad.pop("dense1.bias")
    with pytest.raises(ValueError):
        receive_deputy(state, bad)


def test_upload_returns_deep_copy():
    state = make_state()
    up = upload_model(state)
    for k in up:
        assert np.array_equal(up[k], state.personalized[k])
    up["dense1.weight"][0, 0] += 5.0
    assert state.personalized["dense1.weight"][0, 0] != up["dense1.weight"][0, 0]


def test_upload_unaffected_by_receive():
    state = make_state()
    before = upload_model(state)
    receive_deputy(state, init_params(SPEC, 123))
    after = upload_model(state)
    for k in before:
        assert np.array_equal(before[k], after[k])


def test_p_bit_stable_across_repeated_receives():
    state = make_state()
    before = clone_params(state.personalized)
    for seed in range(5):
        receive_deputy(state, init_params(SPEC, seed))
    for k in before:
        assert np.array_equal(state.personalized[k], before[k])


# --- local epoch ----------------------------------------------------------------


def test_kl_is_zero_when_deputy_equals_p():
    # at zero learning rate the deputy stays equal to p, so p's distillation
    # pull in EXCHANGE compares two identical distributions on every batch
    state = make_state()
    state.phase = DetPhase.EXCHANGE
    rng = np.random.default_rng(0)
    x, y = make_data(rng)
    log = local_epoch(state, SPEC, (x, y), 8, (x, y), CFG, OptimizerState(base_lr=0.0))
    assert log.kl_loss == 0.0
    assert log.ce_loss > 0.0


def test_local_epoch_zero_lr_freezes_p():
    state = make_state()
    opt = OptimizerState(base_lr=0.0)
    rng = np.random.default_rng(1)
    x, y = make_data(rng)
    before = clone_params(state.personalized)
    for _ in range(3):  # covers RECOVER plus post-transition phases
        local_epoch(state, SPEC, (x, y), 8, (x, y), CFG, opt)
    for k in before:
        assert np.array_equal(state.personalized[k], before[k])


def test_local_epoch_trains_and_logs():
    state = make_state()
    opt = OptimizerState()
    rng = np.random.default_rng(2)
    x, y = make_data(rng, n=48)
    log = local_epoch(state, SPEC, (x, y), 8, (x, y), CFG, opt)
    assert log.ce_loss > 0.0
    assert 0.0 <= log.phi_d <= 1.0
    assert 0.0 <= log.phi_p <= 1.0
    assert opt.epoch == 1
    assert log.phase is state.phase


def test_recover_epoch_logs_no_kl_for_p():
    state = make_state()
    rng = np.random.default_rng(3)
    x, y = make_data(rng)
    log = local_epoch(state, SPEC, (x, y), 8, (x, y), CFG, OptimizerState())
    # the first epoch runs entirely in RECOVER: p sees cross entropy only
    assert log.kl_loss == 0.0


def test_phase_monotone_within_window_and_resets_on_receive():
    state = make_state()
    opt = OptimizerState()
    rng = np.random.default_rng(4)
    x, y = make_data(rng, n=64)
    phases = []
    for _ in range(4):
        log = local_epoch(state, SPEC, (x, y), 8, (x, y), CFG, opt)
        phases.append(log.phase)
    assert all(b >= a for a, b in zip(phases, phases[1:]))
    receive_deputy(state, init_params(SPEC, 5))
    assert state.phase is DetPhase.RECOVER


def test_sublimate_trains_deputy_with_ce_only():
    # with the phase pinned at SUBLIMATE the deputy steps first on each batch,
    # on CE alone, so its trajectory must equal a manual CE-only replay
    state = make_state()
    state.phase = DetPhase.SUBLIMATE
    rng = np.random.default_rng(6)
    x, y = make_data(rng, n=32)
    batches = batches_of(x, y)
    expected = clone_params(state.deputy)
    expected_opt = OptimizerState(base_lr=1e-2)
    for bx, by in batches:
        probs, cache = forward(expected, SPEC, bx)
        _, dlogits = ce_loss(probs, by)
        expected = sgd_step(expected, backward(cache, dlogits), expected_opt)

    local_epoch(state, SPEC, (x, y), 8, (x, y), CFG, OptimizerState(base_lr=1e-2))
    for k in expected:
        assert np.array_equal(state.deputy[k], expected[k])


def test_local_epoch_without_deputy_matches_manual_prox_loop():
    # a replacing strategy's client: one model, trained with a proximal pull
    params = init_params(SPEC, 0)
    state = ClientState(personalized=clone_params(params), deputy=None)
    state_opt = OptimizerState(base_lr=5e-2)
    anchor = init_params(SPEC, 9)
    prox = (0.5, anchor)
    rng = np.random.default_rng(7)
    x, y = make_data(rng, n=40)
    batches = batches_of(x, y)

    expected, unpulled = clone_params(params), clone_params(params)
    opt = OptimizerState(base_lr=5e-2)
    ces = []
    for bx, by in batches:
        for model, mu in ((unpulled, 0.0), (expected, 0.5)):
            probs, cache = forward(model, SPEC, bx)
            ce, dlogits = ce_loss(probs, by)
            grads = {k: g + mu * (model[k] - anchor[k]) for k, g in backward(cache, dlogits).items()}
            sgd_step(model, grads, opt)
        ces.append(ce)  # the pulled model's, stepped last

    log = local_epoch(state, SPEC, (x, y), 8, (x, y), CFG, state_opt, prox)
    for k in expected:
        assert np.array_equal(state.personalized[k], expected[k])
    assert any(not np.array_equal(expected[k], unpulled[k]) for k in expected)  # the pull acts
    assert log.ce_loss == sum(ces) / len(ces)
    assert log.kl_loss == 0.0
    assert np.isnan(log.phi_d)
    assert log.phi_p == alone_f1(expected, SPEC, x, y)
    assert log.phase is DetPhase.RECOVER and state.phase is DetPhase.RECOVER
    assert state.deputy is None
    assert state_opt.epoch == 1


# --- stacked epoch: every client trains as if alone --------------------------------
#
# The reference below is an independent per-client loop over plain 2-D arrays,
# written out here so the stacked code in fedfreq.model is checked against
# arithmetic it does not share.


def _ref_forward(params, spec, x):
    x = x.reshape(len(x), *spec.input_shape)
    inputs = []
    for layer, keys in zip(spec.layers, spec.param_keys):
        inputs.append(x)
        if layer.kind == "dense":
            x = x @ params[keys[0]] + params[keys[1]]
        elif layer.kind == "conv2d":
            w, b = params[keys[0]], params[keys[1]]
            hh, ww = x.shape[2] - w.shape[2] + 1, x.shape[3] - w.shape[3] + 1
            rows = _ref_patch_rows(x, *w.shape[2:]) @ w.reshape(len(w), -1).T
            x = rows.reshape(len(x), hh, ww, len(w)).transpose(0, 3, 1, 2) + b[None, :, None, None]
        elif layer.kind == "relu":
            x = np.maximum(x, 0.0)
        elif layer.kind == "flatten":
            x = x.reshape(len(x), -1)
        else:
            e = np.exp(x - x.max(axis=1, keepdims=True))
            x = e / e.sum(axis=1, keepdims=True)
    return x, inputs


def _ref_patch_origins(shape, kh, kw):
    """(sample, channels, y, z) of each patch of a valid convolution, in row order."""
    n, c, h, w = shape
    return [(s, c, y, z) for s in range(n) for y in range(h - kh + 1) for z in range(w - kw + 1)]


def _ref_patch_rows(x, kh, kw):
    """A valid convolution's input unfolded: one row per patch, taps in (channel, i, j) order."""
    return np.array(
        [
            [x[s, ch, y + i, z + j] for ch, i, j in np.ndindex(c, kh, kw)]
            for s, c, y, z in _ref_patch_origins(x.shape, kh, kw)
        ]
    )


def _ref_backward(params, spec, inputs, dx):
    grads = {}
    for layer, keys, x in reversed(list(zip(spec.layers, spec.param_keys, inputs))):
        if layer.kind == "dense":
            grads[keys[0]], grads[keys[1]] = x.T @ dx, dx.sum(axis=0)
            dx = dx @ params[keys[0]].T
        elif layer.kind == "conv2d":
            w = params[keys[0]]
            rows = dx.transpose(0, 2, 3, 1).reshape(-1, len(w))  # one row per (sample, pixel)
            grads[keys[0]] = (rows.T @ _ref_patch_rows(x, *w.shape[2:])).reshape(w.shape)
            grads[keys[1]] = rows.sum(axis=0)
            dpatch = rows @ w.reshape(len(w), -1)
            dx = np.zeros_like(x)
            for r, (s, c, y, z) in enumerate(_ref_patch_origins(x.shape, *w.shape[2:])):
                for t, (ch, i, j) in enumerate(np.ndindex(c, *w.shape[2:])):
                    dx[s, ch, y + i, z + j] += dpatch[r, t]
        elif layer.kind == "relu":
            dx = dx * (x > 0.0)
        elif layer.kind == "flatten":
            dx = dx.reshape(x.shape)
    return grads


def _ref_step(params, spec, x, y, lr, teacher_probs=None, prox=None):
    """One plain SGD step; returns (new params, CE, KL, probs before the step)."""
    probs, inputs = _ref_forward(params, spec, x)
    n = len(y)
    ce = float(np.mean(-np.log(np.clip(probs[np.arange(n), y], 1e-12, None))))
    dlogits = probs.copy()
    dlogits[np.arange(n), y] -= 1.0
    dlogits = dlogits / n
    kl = 0.0
    if teacher_probs is not None:
        pc, qc = np.clip(probs, 1e-12, None), np.clip(teacher_probs, 1e-12, None)
        log_ratio = np.log(pc / qc)
        row_kl = (pc * log_ratio).sum(axis=1)
        kl = float(np.mean(row_kl))
        dlogits = dlogits + probs * (log_ratio - row_kl[:, None]) / n
    grads = _ref_backward(params, spec, inputs, dlogits)
    if prox is not None:
        mu, anchor = prox
        grads = {k: g + mu * (params[k] - anchor[k]) for k, g in grads.items()}
    return {k: params[k] - lr * grads[k] for k in params}, ce, kl, probs


def _ref_epoch(p, d, phase, spec, batches, lr, prox):
    """The per-client loop: per batch the deputy steps first, then p."""
    ce_sum = kl_sum = 0.0
    for x, y in batches:
        p_probs = _ref_forward(p, spec, x)[0]
        if d is not None:
            d = _ref_step(d, spec, x, y, lr, p_probs if phase < DetPhase.SUBLIMATE else None)[0]
        teacher = _ref_forward(d, spec, x)[0] if d is not None and phase > DetPhase.RECOVER else None
        p, ce, kl, _ = _ref_step(p, spec, x, y, lr, teacher, prox)
        ce_sum += ce
        kl_sum += kl
    return p, d, ce_sum / len(batches), kl_sum / len(batches)


def _client_split(rng, spec, n):
    x = rng.standard_normal((n, int(np.prod(spec.input_shape))))
    y = rng.integers(0, spec.classes, size=n)
    return x, y


@pytest.mark.parametrize("with_deputy", [True, False])
@pytest.mark.parametrize("model_id", ["mlp32", "conv4x8"])
def test_stacked_epoch_matches_a_per_client_loop_bit_for_bit(model_id, with_deputy):
    spec = MODEL_SPECS[model_id]
    rng = np.random.default_rng(11)
    # 3, 3, 4 and 2 batches of 16; clients 0, 1 and 3 end on a 1-row batch,
    # 0 and 1 at the same batch index.  The cohort trains them in slots 1, 2, 0, 3.
    sizes = [33, 33, 50, 17]
    phases = [DetPhase.RECOVER, DetPhase.EXCHANGE, DetPhase.SUBLIMATE, DetPhase.EXCHANGE]
    train = [_client_split(rng, spec, n) for n in sizes]
    vals = [_client_split(rng, spec, 30) for _ in sizes]
    anchor = init_params(spec, 100)  # one map for every client, broadcast over the stack
    states = [
        ClientState(
            personalized=init_params(spec, j),
            deputy=init_params(spec, 50 + j) if with_deputy else None,
            phase=phases[j] if with_deputy else DetPhase.RECOVER,
        )
        for j in range(len(sizes))
    ]
    expected = [
        _ref_epoch(s.personalized, s.deputy, s.phase, spec, batches_of(*train[j], 16), 0.05, (0.3, anchor))
        for j, s in enumerate(states)
    ]
    opt = OptimizerState(base_lr=0.05, epoch=3)

    logs = cohort_epoch(states, spec, train, 16, vals, opt, (0.3, anchor))

    for j, (state, log, (p, d, ce, kl)) in enumerate(zip(states, logs, expected)):
        for k in p:
            assert np.array_equal(state.personalized[k], p[k]), (j, k)
            if with_deputy:
                assert np.array_equal(state.deputy[k], d[k]), (j, k)
        assert log.ce_loss == ce and log.kl_loss == kl, j
        assert log.phi_p == alone_f1(p, spec, *vals[j])
    assert opt.epoch == 4  # one schedule, advanced once for all clients
    # p distils from its deputy outside RECOVER only; KL is exactly 0.0 otherwise
    distils = [log.kl_loss > 0.0 for log in logs]
    assert distils == ([False, True, True, True] if with_deputy else [False] * 4)
    assert logs[0].kl_loss == 0.0


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_permuting_the_clients_permutes_the_outputs(data):
    model_id = data.draw(st.sampled_from(["mlp32", "conv4x8"]))
    k = data.draw(st.integers(1, 5))
    size = data.draw(st.sampled_from([4, 8, 16]))
    sizes = data.draw(st.lists(st.integers(1, 3 * size + 1), min_size=k, max_size=k))
    phases = data.draw(st.lists(st.sampled_from(list(DetPhase)), min_size=k, max_size=k))
    with_deputy = data.draw(st.booleans())
    perm = data.draw(st.permutations(range(k)))
    spec = MODEL_SPECS[model_id]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    train = [_client_split(rng, spec, n) for n in sizes]
    vals = [_client_split(rng, spec, 12) for _ in sizes]

    def fresh_states():
        return [
            ClientState(
                personalized=init_params(spec, j),
                deputy=init_params(spec, 50 + j) if with_deputy else None,
                phase=phases[j],
            )
            for j in range(k)
        ]

    straight, shuffled = fresh_states(), fresh_states()
    logs = cohort_epoch(straight, spec, train, size, vals, OptimizerState(base_lr=0.05))
    moved = cohort_epoch(
        [shuffled[j] for j in perm],
        spec,
        [train[j] for j in perm],
        size,
        [vals[j] for j in perm],
        OptimizerState(base_lr=0.05),
    )
    for pos, j in enumerate(perm):
        a, b = straight[j], shuffled[j]
        for key in a.personalized:
            assert np.array_equal(a.personalized[key], b.personalized[key])
            if with_deputy:
                assert np.array_equal(a.deputy[key], b.deputy[key])
        got, want = moved[pos], logs[j]
        assert (got.ce_loss, got.kl_loss, got.phi_p, got.phase) == (
            want.ce_loss, want.kl_loss, want.phi_p, want.phase
        )
        assert np.array_equal(got.phi_d, want.phi_d, equal_nan=True)


def test_train_epoch_names_the_diverged_client_epoch_and_tensor():
    states = [make_state(seed=j) for j in range(3)]
    # the NaN reaches every tensor of client 1; the first in name order is named
    states[1].personalized["dense2.weight"][0, 0] = np.nan
    rng = np.random.default_rng(12)
    # 40, 40 and 64 rows: client 1 trains in slot 2, and the message names the client
    train = [make_data(rng, n) for n in (40, 40, 64)]
    match = "client 1 diverged in epoch 7: personalized tensor 'dense1.bias' is not finite"
    with pytest.raises(DivergenceError, match=match):
        cohort_epoch(states, SPEC, train, 8, [make_data(rng)] * 3, OptimizerState(epoch=6))


@pytest.mark.parametrize("call", ["Cohort", "local_epoch"])
@pytest.mark.parametrize(
    "bad_split, problem",
    [
        # once a raw IndexError from ce_loss
        (lambda x, y: (x, y[:-1]), "training split has 40 inputs but 39 labels"),
        # once a raw ValueError from a reshape
        (lambda x, y: (x[:0], y[:0]), "training split is empty"),
    ],
    ids=["row_count_mismatch", "empty"],
)
def test_epoch_names_a_bad_split_before_training(call, bad_split, problem):
    rng = np.random.default_rng(14)
    states = [make_state(seed=j) for j in range(3)]
    train = [make_data(rng) for _ in states]
    bad = 1 if call == "Cohort" else 0
    train[bad] = bad_split(*train[bad])
    before = [clone_params(s.personalized) for s in states]
    opt = OptimizerState()
    with pytest.raises(ValueError, match=f"client {bad}'s {problem}"):
        if call == "Cohort":  # a cohort checks its splits once, when it is built
            Cohort([s.personalized for s in states], None, train, [make_data(rng)] * 3, 8)
        else:
            local_epoch(states[0], SPEC, train[0], 8, make_data(rng), CFG, opt)
    # every split is checked before the first step: nothing trained
    for state, params in zip(states, before):
        for k in params:
            assert np.array_equal(state.personalized[k], params[k])
    assert opt.epoch == 0


def test_train_epoch_names_a_bad_permutation_before_training():
    rng = np.random.default_rng(19)
    states = [make_state(seed=j) for j in range(3)]
    # 17, 40 and 25 rows: client 2 trains in slot 1, and the message names the client
    train = [make_data(rng, n) for n in (17, 40, 25)]
    cohort = Cohort([s.personalized for s in states], [s.deputy for s in states], train, [make_data(rng)] * 3, 8)
    before = clone_params(cohort.models)
    opt = OptimizerState()
    orders = in_order(train)
    with pytest.raises(ValueError, match=r"need one permutation per client \(3\), got 2"):
        train_epoch(cohort, SPEC, orders[:2], CFG, opt)
    orders[2] = orders[2][:-1]
    with pytest.raises(ValueError, match="client 2's permutation has 24 entries for 25 rows"):
        train_epoch(cohort, SPEC, orders, CFG, opt)
    for k, v in before.items():
        assert np.array_equal(cohort.models[k], v), k
    assert opt.epoch == 0


# --- stacked validation: padded splits score as each model alone ----------------------


# --- the group step: p and the deputy as one (M, g, ...) buffer ---------------------
#
# The reference is the sequence of separate model calls that trains a group of
# clients as two stacks: each model's own forward pass and CE, the deputy's
# step, the teacher's forward pass, then p's step.


def _separate_step(p, d, spec, x, y, deputy_distils, personal_distils, opt, prox):
    """One step of the (g, ...) stacks ``p`` and ``d`` (None: no deputy), in place; returns p's (CE, KL)."""
    p_probs, p_cache = forward(p, spec, x)
    teacher = None
    if d is not None:
        d_probs, d_cache = forward(d, spec, x)
        _, dlogits = ce_loss(d_probs, y)
        if any(deputy_distils):
            _, dkl = kl_div(d_probs, p_probs)
            dlogits = np.where(np.array(deputy_distils)[:, None, None], dlogits + dkl, dlogits)
        sgd_step(d, backward(d_cache, dlogits), opt)
        if any(personal_distils):
            teacher, _ = forward(d, spec, x)
    ce, dlogits = ce_loss(p_probs, y)
    kl = np.zeros(len(y))
    if any(personal_distils):
        mask = np.array(personal_distils)
        kl_all, dkl = kl_div(p_probs, teacher)
        dlogits = np.where(mask[:, None, None], dlogits + dkl, dlogits)
        kl = np.where(mask, kl_all, 0.0)
    grads = backward(p_cache, dlogits)
    if prox is not None:
        mu, anchor = prox
        grads = {k: g + mu * (p[k] - anchor[k]) for k, g in grads.items()}
    sgd_step(p, grads, opt)
    return ce, kl


_R, _E, _S = DetPhase.RECOVER, DetPhase.EXCHANGE, DetPhase.SUBLIMATE


@pytest.mark.parametrize("phases", [[_R, _E, _S], [_R] * 3, [_E] * 3, [_S] * 3, [_S, _E, _E]])
@pytest.mark.parametrize("rows", [1, 16])
@pytest.mark.parametrize("with_prox", [False, True])
@pytest.mark.parametrize("with_deputy", [True, False])
@pytest.mark.parametrize("model_id", ["mlp32", "conv4x8"])
def test_group_step_matches_separate_model_calls_bit_for_bit(model_id, with_deputy, with_prox, rows, phases):
    spec = MODEL_SPECS[model_id]
    rng = np.random.default_rng(zlib.crc32(f"{model_id}{with_deputy}{with_prox}{rows}".encode()))
    g = len(phases)
    maps = _random_stack(rng, spec, 2 * g)
    buffer = {k: v.reshape(2, g, *v.shape[1:]) for k, v in maps.items()}
    if not with_deputy:
        buffer = {k: np.ascontiguousarray(v[:1]) for k, v in buffer.items()}
    p = {k: v[0].copy() for k, v in buffer.items()}
    d = {k: v[1].copy() for k, v in buffer.items()} if with_deputy else None
    before = clone_params(p)
    x = rng.standard_normal((g, rows, int(np.prod(spec.input_shape))))
    y = rng.integers(0, spec.classes, size=(g, rows))
    prox = (0.3, init_params(spec, 100)) if with_prox else None
    phases = np.array(phases)
    deputy_distils = (phases < DetPhase.SUBLIMATE).tolist()
    personal_distils = ((phases > DetPhase.RECOVER) & with_deputy).tolist()
    lr = 0.05

    ce, kl = group_step(buffer, spec, x, y, deputy_distils, personal_distils, lr, prox)
    want_ce, want_kl = _separate_step(
        p, d, spec, x, y, deputy_distils, personal_distils, OptimizerState(base_lr=lr), prox
    )

    for k in p:
        assert np.array_equal(buffer[k][0], p[k]), k
        if with_deputy:
            assert np.array_equal(buffer[k][1], d[k]), k
    assert np.array_equal(ce, want_ce)
    assert np.array_equal(np.zeros(g) if kl is None else kl, want_kl)
    assert any(not np.array_equal(buffer[k][0], before[k]) for k in p)  # p did train


@pytest.mark.parametrize("with_deputy", [True, False])
def test_cohort_models_stay_views_of_one_buffer(with_deputy):
    # p and the deputies are the two halves of one (M, K, ...) buffer per tensor,
    # and nothing a run does to the cohort may replace a half with a copy
    rng = np.random.default_rng(17)
    states = [make_state(seed=j) for j in range(3)]
    deputies = [s.deputy for s in states] if with_deputy else None
    train = [make_data(rng, n) for n in (40, 17, 25)]
    cohort = Cohort([s.personalized for s in states], deputies, train, [make_data(rng) for _ in states], 8)
    # the plan trains every batch of every slot once: 5, 4 and 3 batches in slots 0, 1 and 2
    steps = sorted((s, i) for i, a, b, _ in cohort.plan for s in range(a, b))
    assert steps == [(s, i) for s, n in enumerate([5, 4, 3]) for i in range(n)]

    def assert_views():
        for k, v in cohort.models.items():
            assert v.shape[:2] == ((2 if with_deputy else 1), 3)
            assert np.shares_memory(cohort.p[k], v[0])
            if with_deputy:
                assert np.shares_memory(cohort.d[k], v[1])
                assert not np.shares_memory(cohort.p[k], cohort.d[k])
        # the plan's views are built once, so they too must still see the buffer
        for _, a, b, group in cohort.plan:
            for k, v in group.items():
                assert np.shares_memory(v, cohort.models[k]), (a, b, k)

    assert_views()
    log = train_epoch(cohort, SPEC, in_order(train), CFG, OptimizerState(base_lr=0.05))
    assert_views()
    aggregates = {k: rng.standard_normal(v.shape) for k, v in cohort.p.items()}
    cohort.deliver(aggregates)
    assert_views()
    target = cohort.d if with_deputy else cohort.p
    for k, v in target.items():
        assert np.array_equal(v, aggregates[k][cohort.clients])  # in slot order
    cohort.keep_best(log.phi_p, 1)
    assert_views()


def test_cohort_speaks_client_order():
    # 17, 40 and 25 rows put clients 0, 1 and 2 in slots 2, 0 and 1: none in its own
    rng = np.random.default_rng(18)
    states = [make_state(seed=j) for j in range(3)]
    for state, phase in zip(states, DetPhase):
        state.phase = phase
    train = [make_data(rng, n) for n in (17, 40, 25)]
    vals = [make_data(rng, n) for n in (9, 30, 14)]
    cohort = Cohort([s.personalized for s in states], [s.deputy for s in states], train, vals, 8)
    cohort.phases[:] = [s.phase for s in states]
    assert cohort.slots.tolist() == [2, 0, 1]

    scores = cohort.validation_f1(SPEC)
    for j, (state, (x, y)) in enumerate(zip(states, vals)):
        assert scores[0, j] == alone_f1(state.personalized, SPEC, x, y), j
        assert scores[1, j] == alone_f1(state.deputy, SPEC, x, y), j
    cohort.keep_best(np.full(3, 0.5), 1)  # every client's initial p

    log = train_epoch(cohort, SPEC, in_order(train), CFG, OptimizerState(base_lr=0.05))
    uploads = cohort.uploads()
    for j, state in enumerate(states):
        alone = local_epoch(state, SPEC, train[j], 8, vals[j], CFG, OptimizerState(base_lr=0.05))
        assert (log.ce_loss[j], log.kl_loss[j], log.phi_d[j], log.phi_p[j], log.phase[j]) == (
            alone.ce_loss, alone.kl_loss, alone.phi_d, alone.phi_p, alone.phase
        ), j
        for k, v in state.personalized.items():
            assert np.array_equal(uploads[k][j], v), (j, k)

    # clients 0 and 2 improve: only their rows take the trained p
    cohort.keep_best(np.array([0.9, 0.1, 0.6]), 2)
    assert cohort.best_epoch.tolist() == [2, 1, 2]
    assert cohort.best_f1.tolist() == [0.9, 0.5, 0.6]
    for k in uploads:
        assert np.array_equal(cohort.best[k][0], uploads[k][0])
        assert np.array_equal(cohort.best[k][1], make_state(seed=1).personalized[k])
        assert np.array_equal(cohort.best[k][2], uploads[k][2])


def _random_stack(rng, spec, k):
    """K models with weights drawn from ``rng`` (biases too, so no logit is trivially tied)."""
    return {
        key: rng.normal(0.0, 0.5, size=(k, *v.shape)) for key, v in init_params(spec, 0).items()
    }


@settings(max_examples=60, deadline=None)
@given(
    model_id=st.sampled_from(["mlp32", "conv4x8"]),
    sizes=st.lists(st.integers(1, 60), min_size=1, max_size=5),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_stacked_validation_equals_scoring_each_model_alone(model_id, sizes, seed, data):
    spec = MODEL_SPECS[model_id]
    k = len(sizes)
    # the classes each split may hold; a split often lacks one or two
    held = [
        sorted(data.draw(st.sets(st.integers(0, spec.classes - 1), min_size=1)))
        for _ in range(k)
    ]
    rng = np.random.default_rng(seed)
    params = _random_stack(rng, spec, k)
    features = int(np.prod(spec.input_shape))
    vals = [(rng.standard_normal((n, features)), rng.choice(c, size=n)) for n, c in zip(sizes, held)]

    scores = stacked_validation_f1(params, spec, pad_splits(vals))
    # one model broadcast over every split, as a global model is scored
    one = {key: np.broadcast_to(v[0], v.shape) for key, v in params.items()}
    broadcast = stacked_validation_f1(one, spec, pad_splits(vals))
    for j, (x, y) in enumerate(vals):
        alone = {key: v[j] for key, v in params.items()}
        assert scores[j] == alone_f1(alone, spec, x, y), j
        first = {key: v[0] for key, v in params.items()}
        assert broadcast[j] == alone_f1(first, spec, x, y), j


def test_epoch_scores_every_model_on_its_own_ragged_split():
    rng = np.random.default_rng(15)
    states = [make_state(seed=j) for j in range(3)]
    for s, phase in zip(states, DetPhase):
        s.phase = phase
    train = [make_data(rng) for _ in states]
    vals = [make_data(rng, n) for n in (7, 31, 18)]
    logs = cohort_epoch(states, SPEC, train, 8, vals, OptimizerState(base_lr=0.05))
    for state, log, (x, y) in zip(states, logs, vals):
        assert log.phi_p == alone_f1(state.personalized, SPEC, x, y)
        assert log.phi_d == alone_f1(state.deputy, SPEC, x, y)


def test_stacked_validation_rejects_an_empty_split():
    rng = np.random.default_rng(16)
    params = _random_stack(rng, SPEC, 2)
    with pytest.raises(ValueError, match="between 1 and n"):
        stacked_validation_f1(params, SPEC, pad_splits([make_data(rng, 5), make_data(rng, 0)]))
