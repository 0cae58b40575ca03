"""Acceptance suite: one test per criterion, each printing a PASS line.

The experiment-based criteria share one cache of full runs (5 strategies x
5 seeds at scale 0.1, K=4, E=5, T=100), built once per session.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import multiprocessing
import time

import numpy as np
import pytest

from fedfreq.checkpoint import CorruptCheckpointError, load_checkpoint_full, save_checkpoint
from fedfreq.det import DetConfig, DetPhase, det_phase_transition
from fedfreq.freq_agg import (
    PFA,
    AggregationRequest,
    ScheduleParams,
    pfa_aggregate,
    schedule_r,
)
from fedfreq.metrics import macro_auc, macro_f1
from fedfreq.model import (
    OptimizerState,
    backward,
    ce_loss,
    clone_params,
    conv_spec,
    forward,
    init_params,
    kl_div,
)
from fedfreq.numerics import dft2, idft2
from fedfreq.orchestrator import (
    ExperimentConfig,
    mean_boundary_change,
    results_payload,
    run_experiment,
)
from helpers import (
    brute_force_auc,
    brute_force_f1,
    direct_dft2,
    fd_gradient,
    oracle_mask,
    relative_error,
)
from pins import run_digest
from test_model import small_mlp, random_batch

SEEDS = (0, 1, 2, 3, 4)
STRATEGIES = ("PFA_DET", "FEDAVG", "LOCAL_ONLY", "PFA_ONLY", "FEDAVG_DET")


def report(criterion: int, elapsed: float, message: str) -> None:
    print(f"\ncriterion {criterion:2d} PASS ({elapsed:6.1f}s): {message}")


@pytest.fixture(scope="module")
def experiment_cache():
    """All experiment runs needed by criteria 7 and 8, plus build time.

    The runs share nothing, so two spawned processes split them; a run gives
    the same numbers in a fresh interpreter (criterion 9).
    """
    start = time.perf_counter()
    keys = [(strategy, seed) for strategy in STRATEGIES for seed in SEEDS]
    configs = [
        ExperimentConfig(
            strategy=strategy,
            num_clients=4,
            local_epochs=5,
            total_epochs=100,
            data_scale=0.1,
            seed=seed,
        )
        for strategy, seed in keys
    ]
    with multiprocessing.get_context("spawn").Pool(2) as pool:
        runs = dict(zip(keys, pool.map(run_experiment, configs)))
    return runs, time.perf_counter() - start


def test_criterion_1_transform_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    for _ in range(200):
        rows = int(rng.integers(1, 65))
        cols = int(rng.integers(1, 65))
        m = rng.standard_normal((rows, cols))
        f = dft2(m)
        # round trip
        back, _ = idft2(f)
        assert np.max(np.abs(back - m)) < 1e-9
        # Hermitian symmetry by exact index pairing
        ri = (-np.arange(rows)) % rows
        ci = (-np.arange(cols)) % cols
        assert np.max(np.abs(f - np.conj(f[np.ix_(ri, ci)]))) < 1e-10
        # Parseval
        lhs = np.sum(m**2) * m.size
        rhs = np.sum(np.abs(f) ** 2)
        assert abs(lhs - rhs) <= 1e-6 * max(lhs, 1e-30)
        # linearity against a fresh matrix
        y = rng.standard_normal((rows, cols))
        a, b = rng.uniform(-2, 2, size=2)
        assert np.max(np.abs(dft2(a * m + b * y) - (a * f + b * dft2(y)))) < 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(1, elapsed, "round-trip, Hermitian, Parseval, linearity on 200 random matrices")


def test_criterion_2_pfa_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    conv_shapes = [(1, 1, 4, 4), (2, 3, 3, 3), (4, 4, 5, 5), (3, 2, 5, 4)]
    fc_shapes = [(8, 6), (16, 12), (33, 17), (64, 64)]
    checked = 0
    for k in (2, 3):
        for conv_shape, fc_shape, r in zip(conv_shapes, fc_shapes, (0.1, 0.25, 0.35, 0.45)):
            maps = [
                {
                    "conv.weight": rng.standard_normal(conv_shape),
                    "fc.weight": rng.standard_normal(fc_shape),
                }
                for _ in range(k)
            ]
            outputs = pfa_aggregate(AggregationRequest(maps, r=r, strategy=PFA))

            n, c, d1, d2 = conv_shape
            to_matrix = {
                "conv.weight": lambda w: w.transpose(0, 2, 1, 3).reshape(n * d1, c * d2),
                "fc.weight": lambda w: w,
            }
            for key, conv in to_matrix.items():
                spectra = [direct_dft2(conv(m[key])) for m in maps]
                amps = [np.abs(f) for f in spectra]
                mean_amp = np.mean(amps, axis=0)
                mask = oracle_mask(*spectra[0].shape, r)
                for i, out in enumerate(outputs):
                    f_out = direct_dft2(conv(out[key]))
                    expected_amp = np.where(mask, mean_amp, amps[i])
                    expected = expected_amp * np.exp(1j * np.angle(spectra[i]))
                    assert np.max(np.abs(f_out - expected)) < 1e-8
                    checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(2, elapsed, f"direct-summation oracle equivalence on {checked} aggregated spectra")


def test_criterion_3_pfa_consensus_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    for trial in range(20):
        base = {
            "conv.weight": rng.standard_normal((2, 2, int(rng.integers(2, 5)), int(rng.integers(2, 5)))),
            "fc.weight": rng.standard_normal((int(rng.integers(2, 20)), int(rng.integers(2, 20)))),
            "fc.bias": rng.standard_normal(5),
        }
        k = int(rng.integers(1, 5))
        maps = [{kk: v.copy() for kk, v in base.items()} for _ in range(k)]
        r = float(rng.uniform(0.05, 0.49))
        for out in pfa_aggregate(AggregationRequest(maps, r=r, strategy=PFA)):
            for kk in base:
                assert np.max(np.abs(out[kk] - base[kk])) < 1e-8
    elapsed = time.perf_counter() - start
    report(3, elapsed, "identical clients map to themselves for 20 random parameter sets")


def test_criterion_4_gradient_checks():
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    for seed in range(20):
        spec = small_mlp() if seed % 2 == 0 else conv_spec((1, 4, 6))
        params = init_params(spec, seed)
        teacher = init_params(spec, 1000 + seed)
        x, y = random_batch(rng, spec, n=4)
        probs, cache = forward(params, spec, x)
        teacher_probs, _ = forward(teacher, spec, x)
        _, d_ce = ce_loss(probs, y)
        _, d_kl = kl_div(probs, teacher_probs)

        def ce_of(p):
            pr, _ = forward(p, spec, x)
            return ce_loss(pr, y)[0]

        def distill_of(p):
            pr, _ = forward(p, spec, x)
            tpr, _ = forward(teacher, spec, x)
            return ce_loss(pr, y)[0] + kl_div(pr, tpr)[0]

        # CE alone, and the CE+KL(student||teacher) form shared by the
        # deputy (Eq.4-style) and personalized (Eq.5-style) objectives
        for dlogits, loss_fn in ((d_ce, ce_of), (d_ce + d_kl, distill_of)):
            analytic = backward(cache, dlogits)
            fd = fd_gradient(loss_fn, clone_params(params))
            for name in params:
                assert relative_error(analytic[name], fd[name]) < 1e-4
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(4, elapsed, "finite differences confirm gradients for all layer kinds and losses, 20 seeds")


def test_criterion_5_det_state_machine():
    start = time.perf_counter()
    cfg = DetConfig(0.7, 0.9)
    grid = np.linspace(0.0, 1.0, 41)
    for current in DetPhase:
        for phi_p in grid:
            for phi_d in grid:
                got = det_phase_transition(float(phi_d), float(phi_p), cfg, current)
                if phi_d >= 0.9 * phi_p:
                    want = DetPhase.SUBLIMATE
                elif phi_d >= 0.7 * phi_p:
                    want = DetPhase.EXCHANGE
                else:
                    want = DetPhase.RECOVER
                assert got is max(want, current)
    # boundary-inclusive triggers at exactly lambda * phi_p
    for phi_p in (0.25, 0.5, 0.8, 1.0):
        assert det_phase_transition(0.7 * phi_p, phi_p, cfg, DetPhase.RECOVER) is DetPhase.EXCHANGE
        assert det_phase_transition(0.9 * phi_p, phi_p, cfg, DetPhase.RECOVER) is DetPhase.SUBLIMATE
    # scripted walk, monotone within a window, reset on receipt
    phase = DetPhase.RECOVER
    trace = []
    for ratio in (0.5, 0.75, 0.95, 0.2):
        phase = det_phase_transition(ratio * 1.0, 1.0, cfg, phase)
        trace.append(phase)
    assert trace == [
        DetPhase.RECOVER,
        DetPhase.EXCHANGE,
        DetPhase.SUBLIMATE,
        DetPhase.SUBLIMATE,  # no backward move inside a window
    ]
    assert det_phase_transition(0.0, 0.0, cfg, DetPhase.RECOVER) is DetPhase.SUBLIMATE
    elapsed = time.perf_counter() - start
    report(5, elapsed, "exhaustive phi grid, inclusive boundaries, monotone window, degenerate guard")


def test_criterion_6_metric_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(13)
    f1_cases = auc_cases = 0
    for _ in range(1000):
        n = int(rng.integers(1, 50))
        labels = rng.integers(0, 3, size=n)
        preds = rng.integers(0, 3, size=n)
        assert macro_f1(preds, labels, 3) == brute_force_f1(preds, labels, 3)
        f1_cases += 1
        scores = rng.random((n, 3))
        if rng.random() < 0.3:
            scores = np.round(scores, 1)
        try:
            expected = brute_force_auc(scores, labels, 3)
        except ValueError:
            continue
        assert abs(macro_auc(scores, labels, 3) - expected) <= 1e-12
        auc_cases += 1
    elapsed = time.perf_counter() - start
    report(6, elapsed, f"{f1_cases} F1 cases exact, {auc_cases} AUC cases within 1e-12")


def test_criterion_7_retrogress_reproduction(experiment_cache):
    runs, cache_time = experiment_cache
    start = time.perf_counter()
    fedavg_bc = np.zeros(4)
    pfa_bc = np.zeros(4)
    for seed in SEEDS:
        for client in range(4):
            fedavg_bc[client] += mean_boundary_change(runs[("FEDAVG", seed)].rows, client)
            pfa_bc[client] += mean_boundary_change(runs[("PFA_DET", seed)].rows, client)
    fedavg_bc /= len(SEEDS)
    pfa_bc /= len(SEEDS)
    negative_clients = int((fedavg_bc < 0.0).sum())
    assert negative_clients >= 3, fedavg_bc
    assert np.all(pfa_bc >= 0.0), pfa_bc
    elapsed = time.perf_counter() - start
    assert cache_time + elapsed < 600.0
    report(
        7,
        cache_time + elapsed,
        f"FEDAVG boundary drop on {negative_clients}/4 clients "
        f"(mean deltas {np.round(fedavg_bc, 4)}); personalized model non-negative on all "
        f"({np.round(pfa_bc, 4)})",
    )


def test_criterion_8_trend_reproduction(experiment_cache):
    runs, cache_time = experiment_cache
    start = time.perf_counter()
    mean_f1 = {
        s: float(np.mean([runs[(s, seed)].macro_f1 for seed in SEEDS])) for s in STRATEGIES
    }
    assert mean_f1["PFA_DET"] >= mean_f1["FEDAVG"] + 0.02, mean_f1
    assert mean_f1["PFA_DET"] >= mean_f1["LOCAL_ONLY"], mean_f1
    assert mean_f1["PFA_DET"] >= max(mean_f1["PFA_ONLY"], mean_f1["FEDAVG_DET"]), mean_f1
    elapsed = time.perf_counter() - start
    assert cache_time + elapsed < 1800.0
    summary = ", ".join(f"{s}={mean_f1[s]:.4f}" for s in STRATEGIES)
    report(8, cache_time + elapsed, summary)


def test_ood_generalization_trend(experiment_cache):
    # supplementary check from the data module's contract: personalized
    # models do worse on the held-out out-of-range client than at home
    runs, _ = experiment_cache
    own = np.mean([runs[("PFA_DET", seed)].macro_f1 for seed in SEEDS])
    far = np.mean([runs[("PFA_DET", seed)].ood_macro_f1 for seed in SEEDS])
    assert own > far
    print(f"\nsupplementary PASS: own-test F1 {own:.4f} > out-of-distribution {far:.4f}")


def test_the_acceptance_runs_keep_their_pinned_bytes(experiment_cache, pinned):
    runs, _ = experiment_cache
    pinned.check({f"acceptance {strategy} seed={seed}": run_digest(result) for (strategy, seed), result in runs.items()})


def test_criterion_9_determinism_and_persistence(tmp_path):
    start = time.perf_counter()
    cfg = dict(strategy="PFA_DET", total_epochs=30, local_epochs=5, data_scale=0.1, seed=21)
    a = results_payload(run_experiment(ExperimentConfig(**cfg)))
    b = results_payload(run_experiment(ExperimentConfig(**cfg)))
    # the same run in a fresh interpreter: no state may carry over between runs
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        c = results_payload(pool.apply(run_experiment, (ExperimentConfig(**cfg),)))
    assert a == b
    assert a == c

    rng = np.random.default_rng(0)
    params = {"w": rng.standard_normal((4, 4)), "b": rng.standard_normal(4)}
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, path, model_id="mlp32")
    loaded = load_checkpoint_full(path)[2]
    for k in params:
        assert loaded[k].tobytes() == params[k].tobytes()
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0x01
    path.write_bytes(bytes(raw))
    with pytest.raises(CorruptCheckpointError):
        load_checkpoint_full(path)
    path.write_bytes(bytes(raw)[: len(raw) - 9])
    with pytest.raises(CorruptCheckpointError):
        load_checkpoint_full(path)
    elapsed = time.perf_counter() - start
    report(9, elapsed, "bit-identical results across reruns and a fresh interpreter; corrupt checkpoints rejected")


def test_criterion_10_schedule_endpoints():
    start = time.perf_counter()
    schedule = ScheduleParams(r0=0.35, r1=0.48, total_epochs=250)
    assert schedule_r(0, schedule) == 0.35
    assert schedule_r(250, schedule) == 0.48
    opt = OptimizerState(base_lr=1e-2, halving_period=25)
    assert opt.lr == 0.01
    opt.epoch = 25
    assert opt.lr == 0.005
    opt.epoch = 50
    assert opt.lr == 0.0025
    elapsed = time.perf_counter() - start
    report(10, elapsed, "r(0)=0.35, r(T)=0.48, lr halves exactly at epochs 25 and 50")
