import numpy as np
import pytest

from fedfreq.det import (
    ClientState,
    DetConfig,
    DetPhase,
    det_phase_transition,
    local_epoch,
    receive_deputy,
    train_step,
    upload_model,
)
from fedfreq.model import Batch, OptimizerState, clone_params, init_params, mlp_spec

CFG = DetConfig(0.7, 0.9)
SPEC = mlp_spec(input_dim=6)


def make_state(seed=0, base_lr=1e-2):
    params = init_params(SPEC, seed)
    return ClientState(
        client_id=0,
        personalized=clone_params(params),
        deputy=clone_params(params),
        opt_p=OptimizerState(base_lr=base_lr),
        opt_d=OptimizerState(base_lr=1e-2),
    )


def make_data(rng, n=40):
    x = rng.standard_normal((n, 6))
    y = rng.integers(0, 3, size=n)
    return x, y


def batches_of(x, y, size=8):
    return [Batch(inputs=x[i : i + size], labels=y[i : i + size]) for i in range(0, len(y), size)]


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


def test_receive_deputy_resets_phase_and_marks_stale():
    state = make_state()
    state.phase = DetPhase.SUBLIMATE
    state.phi_d = 0.5
    receive_deputy(state, init_params(SPEC, 99))
    assert state.phase is DetPhase.RECOVER
    assert state.phi_d is None


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
    state = make_state()
    rng = np.random.default_rng(0)
    x, y = make_data(rng)
    batch = batches_of(x, y)[0]
    _, _, kl = train_step(state.deputy, state.opt_d, SPEC, batch, teacher=state.personalized)
    assert kl == 0.0


def test_local_epoch_empty_stream_raises():
    state = make_state()
    with pytest.raises(ValueError):
        local_epoch(state, SPEC, [], make_data(np.random.default_rng(0), n=10), CFG)


def test_local_epoch_zero_lr_freezes_p():
    state = make_state(base_lr=0.0)
    rng = np.random.default_rng(1)
    x, y = make_data(rng)
    before = clone_params(state.personalized)
    for _ in range(3):  # covers RECOVER plus post-transition phases
        local_epoch(state, SPEC, batches_of(x, y), (x, y), CFG)
    for k in before:
        assert np.array_equal(state.personalized[k], before[k])


def test_local_epoch_trains_and_logs():
    state = make_state()
    rng = np.random.default_rng(2)
    x, y = make_data(rng, n=48)
    log = local_epoch(state, SPEC, batches_of(x, y), (x, y), CFG)
    assert log.ce_loss > 0.0
    assert 0.0 <= log.phi_d <= 1.0
    assert 0.0 <= log.phi_p <= 1.0
    assert state.epoch == 1
    assert state.opt_p.epoch == 1 and state.opt_d.epoch == 1
    assert log.phase is state.phase


def test_recover_epoch_logs_no_kl_for_p():
    state = make_state()
    rng = np.random.default_rng(3)
    x, y = make_data(rng)
    log = local_epoch(state, SPEC, batches_of(x, y), (x, y), CFG)
    # the first epoch runs entirely in RECOVER: p sees cross entropy only
    assert log.kl_loss == 0.0


def test_phase_monotone_within_window_and_resets_on_receive():
    state = make_state()
    rng = np.random.default_rng(4)
    x, y = make_data(rng, n=64)
    phases = []
    for _ in range(4):
        log = local_epoch(state, SPEC, batches_of(x, y), (x, y), CFG)
        phases.append(log.phase)
    assert all(b >= a for a, b in zip(phases, phases[1:]))
    receive_deputy(state, init_params(SPEC, 5))
    assert state.phase is DetPhase.RECOVER


def test_sublimate_trains_deputy_with_ce_only():
    # with p frozen (lr 0) and the phase pinned at SUBLIMATE, the deputy's
    # trajectory must equal a manual CE-only replay on the same batches
    state = make_state(base_lr=0.0)
    state.phase = DetPhase.SUBLIMATE
    rng = np.random.default_rng(6)
    x, y = make_data(rng, n=32)
    batches = batches_of(x, y)
    expected = clone_params(state.deputy)
    expected_opt = OptimizerState(base_lr=1e-2)
    from fedfreq.model import backward, ce_loss, forward, sgd_step

    for batch in batches:
        probs, cache = forward(expected, SPEC, batch)
        _, dlogits = ce_loss(probs, batch.labels)
        expected = sgd_step(expected, backward(cache, dlogits), expected_opt)

    local_epoch(state, SPEC, batches, (x, y), CFG)
    for k in expected:
        assert np.array_equal(state.deputy[k], expected[k])
