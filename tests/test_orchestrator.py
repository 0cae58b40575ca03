import collections
import dataclasses
import json

import numpy as np
import pytest

from fedfreq import orchestrator
from fedfreq.checkpoint import load_checkpoint_full
from fedfreq.data import default_profiles, ood_client, synth
from fedfreq.metrics import evaluate, macro_f1
from fedfreq.model import (
    MODEL_SPECS,
    Batch,
    OptimizerState,
    backward,
    ce_loss,
    clone_params,
    forward,
    init_params,
    predict_probs,
    sgd_step,
)
from fedfreq.orchestrator import (
    ConfigError,
    ExperimentConfig,
    config_echo,
    emit_report,
    load_config,
    mean_boundary_change,
    parse_config_text,
    results_payload,
    run_experiment,
    save_run_checkpoints,
)


def small_cfg(**kw):
    base = dict(
        strategy="PFA_DET",
        total_epochs=20,
        local_epochs=5,
        data_scale=0.1,
        seed=3,
    )
    base.update(kw)
    return ExperimentConfig(**base)


# --- configuration ---------------------------------------------------------------


def test_parse_config_defaults_and_overrides():
    cfg = parse_config_text(
        """
        # comment line
        strategy = FEDAVG
        total_epochs = 50
        local_epochs = 5
        seed = 11
        base_lr = 0.02
        """
    )
    assert cfg.strategy == "FEDAVG"
    assert cfg.total_epochs == 50
    assert cfg.seed == 11
    assert cfg.base_lr == 0.02
    assert cfg.batch_size == 16  # untouched default


def test_parse_config_unknown_key():
    with pytest.raises(ConfigError):
        parse_config_text("nonsense = 1\n")


def test_parse_config_bad_value():
    with pytest.raises(ConfigError):
        parse_config_text("total_epochs = banana\n")


def test_parse_config_missing_equals():
    with pytest.raises(ConfigError):
        parse_config_text("strategy FEDAVG\n")


@pytest.mark.parametrize(
    "field,value",
    [
        ("strategy", "BOGUS"),
        ("model_id", "vgg16"),
        ("total_epochs", 7),  # not divisible by local_epochs=5
        ("r0", 0.6),
        ("lambda1", 0.95),
        ("batch_size", 0),
        ("data_scale", 0.0),
        ("workers", 0),
        ("num_clients", 0),
    ],
)
def test_config_validation_rejects(field, value):
    cfg = ExperimentConfig(**{field: value})
    with pytest.raises(ConfigError):
        cfg.validate()


def test_config_file_roundtrip(tmp_path):
    cfg = small_cfg(strategy="FEDPROX", prox_mu=0.05)
    path = tmp_path / "exp.cfg"
    path.write_text(config_echo(cfg))
    assert load_config(path) == cfg


def test_run_rejects_bad_config_before_work():
    with pytest.raises(ConfigError):
        run_experiment(ExperimentConfig(strategy="BOGUS"))
    with pytest.raises(ConfigError):
        run_experiment(small_cfg(num_clients=9))


# --- degenerate protocol equivalence ------------------------------------------------


def test_local_only_single_client_matches_manual_loop():
    cfg = small_cfg(strategy="LOCAL_ONLY", num_clients=1, total_epochs=10)
    result = run_experiment(cfg)

    # independent replay of the training loop with the same streams
    spec = MODEL_SPECS[cfg.model_id]
    profile = default_profiles(cfg.data_scale)[0]
    client = synth([profile], cfg.seed).clients[0]
    params = init_params(spec, [cfg.seed, 1])
    shuffle_rng = np.random.default_rng([cfg.seed, profile.seed, 2])
    opt = OptimizerState(base_lr=cfg.base_lr, halving_period=cfg.lr_halving_period)
    x, y = client.train_xy()
    val_x, val_y = client.val_xy()
    best_val, best_params = -1.0, None
    for _ in range(cfg.total_epochs):
        perm = shuffle_rng.permutation(len(y))
        for i in range(0, len(y), cfg.batch_size):
            sel = perm[i : i + cfg.batch_size]
            batch = Batch(inputs=x[sel], labels=y[sel])
            probs, cache = forward(params, spec, batch)
            _, dlogits = ce_loss(probs, batch.labels)
            params = sgd_step(params, backward(cache, dlogits), opt)
        opt.epoch += 1
        val = macro_f1(predict_probs(params, spec, val_x).argmax(axis=1), val_y, 3)
        if val > best_val:
            best_val, best_params = val, clone_params(params)

    test_x, test_y = client.test_xy()
    expected = evaluate(predict_probs(best_params, spec, test_x), test_y, 3)
    assert result.clients[0].test_f1 == expected.macro_f1
    assert result.clients[0].test_auc == expected.macro_auc
    assert result.clients[0].best_val_f1 == best_val


def test_fedavg_symmetry_identical_clients():
    profiles = default_profiles(0.1)[:1] * 4  # same profile object: same data and seed
    cfg = small_cfg(strategy="FEDAVG", num_clients=4, total_epochs=10)
    result = run_experiment(cfg, profiles=profiles)
    for epoch in range(1, 11):
        phis = [r.phi_p for r in result.rows if r.epoch == epoch]
        assert len(set(phis)) == 1
    first = result.best_params[0]
    for i in (1, 2, 3):
        for k in first:
            assert np.array_equal(result.best_params[i][k], first[k])


@pytest.mark.parametrize(
    "strategy,aggregator,deputy",
    [
        ("PFA_DET", "pfa_aggregate", True),
        ("PFA_ONLY", "pfa_aggregate", False),
        ("FEDAVG_DET", "fedavg_aggregate", True),
        ("FEDAVG", "fedavg_aggregate", False),
        ("FEDPROX", "fedavg_aggregate", False),
        ("LOCAL_ONLY", None, False),
    ],
)
def test_strategy_uses_only_its_aggregator_and_delivery(monkeypatch, strategy, aggregator, deputy):
    calls = collections.Counter()

    def counting(name):
        original = getattr(orchestrator, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in ("pfa_aggregate", "fedavg_aggregate", "receive_deputy"):
        monkeypatch.setattr(orchestrator, name, counting(name))
    run_experiment(small_cfg(strategy=strategy, total_epochs=10))
    rounds, clients = 2, 4
    expected = collections.Counter()
    if aggregator is not None:
        expected[aggregator] = rounds
    if deputy:
        expected["receive_deputy"] = rounds * clients
    assert calls == expected


def test_fedprox_without_pull_matches_fedavg():
    fedavg = run_experiment(small_cfg(strategy="FEDAVG", total_epochs=10))
    fedprox = run_experiment(small_cfg(strategy="FEDPROX", total_epochs=10, prox_mu=0.0))
    assert repr(fedprox.rows) == repr(fedavg.rows)  # repr: phi_d is NaN in every row
    assert fedprox.clients == fedavg.clients


# --- logging and reports -------------------------------------------------------------


def test_row_count_and_ordering():
    cfg = small_cfg(total_epochs=15)
    result = run_experiment(cfg)
    assert len(result.rows) == 4 * 15
    keys = [(r.epoch, r.client) for r in result.rows]
    assert keys == sorted(keys)


def test_communication_count_invariant():
    for strategy, expected in (("PFA_DET", 4), ("FEDAVG", 4), ("LOCAL_ONLY", 0)):
        cfg = small_cfg(strategy=strategy, total_epochs=20)
        result = run_experiment(cfg)
        for client in range(4):
            events = sum(r.comm_event for r in result.rows if r.client == client)
            assert events == expected


def test_comm_events_at_round_boundaries():
    result = run_experiment(small_cfg(total_epochs=20))
    flagged = {r.epoch for r in result.rows if r.comm_event}
    assert flagged == {5, 10, 15, 20}


def test_phi_d_nan_for_non_deputy_strategies():
    result = run_experiment(small_cfg(strategy="FEDAVG", total_epochs=10))
    assert all(np.isnan(r.phi_d) for r in result.rows)
    assert all(r.phase == "-" for r in result.rows)


def test_mean_boundary_change_computation():
    result = run_experiment(small_cfg(strategy="FEDAVG", total_epochs=20))
    phi = {(r.epoch, r.client): r.phi_p for r in result.rows}
    manual = np.mean([phi[(e + 1, 0)] - phi[(e, 0)] for e in (5, 10, 15)])
    assert abs(mean_boundary_change(result.rows, 0) - manual) < 1e-15


def test_emit_report_files(tmp_path):
    cfg = small_cfg(total_epochs=10)
    result = run_experiment(cfg)
    files = emit_report(result.rows, result, tmp_path)
    assert sorted(f.name for f in files) == ["config.echo", "curves.csv", "results.json"]

    lines = (tmp_path / "curves.csv").read_text().splitlines()
    assert lines[0] == "epoch,client,phase,ce_loss,kl_loss,phi_d,phi_p,r,comm_event"
    assert len(lines) == 1 + 4 * 10

    payload = json.loads((tmp_path / "results.json").read_text())
    per_client = [c["test_f1"] for c in payload["clients"]]
    assert abs(payload["macro_f1"] - sum(per_client) / len(per_client)) < 1e-12
    assert payload["config"]["strategy"] == "PFA_DET"

    echo = (tmp_path / "config.echo").read_text()
    for field in dataclasses.fields(cfg):
        assert field.name in echo


def test_results_reproducible_except_timestamp(tmp_path):
    cfg = small_cfg(total_epochs=10)
    a = results_payload(run_experiment(cfg))
    b = results_payload(run_experiment(cfg))
    a.pop("created_at")
    b.pop("created_at")
    assert a == b


def test_save_run_checkpoints_roundtrip(tmp_path):
    cfg = small_cfg(total_epochs=10)
    result = run_experiment(cfg)
    paths = save_run_checkpoints(result, tmp_path)
    assert len(paths) == 4
    for client, path in enumerate(paths):
        _, model_id, params = load_checkpoint_full(path)
        assert model_id == cfg.model_id
        for k in params:
            assert np.array_equal(params[k], result.best_params[client][k])


# --- determinism ---------------------------------------------------------------------


def test_determinism_across_runs_and_workers():
    cfg1 = small_cfg(total_epochs=10, workers=1)
    cfg4 = small_cfg(total_epochs=10, workers=4)
    r1 = run_experiment(cfg1)
    r2 = run_experiment(small_cfg(total_epochs=10, workers=1))
    r4 = run_experiment(cfg4)
    assert [dataclasses.asdict(c) for c in r1.clients] == [dataclasses.asdict(c) for c in r2.clients]
    assert [c.test_f1 for c in r1.clients] == [c.test_f1 for c in r4.clients]
    assert [c.test_auc for c in r1.clients] == [c.test_auc for c in r4.clients]
    assert r1.macro_f1 == r4.macro_f1
    rows1 = [(r.epoch, r.client, r.phi_p, r.ce_loss) for r in r1.rows]
    rows4 = [(r.epoch, r.client, r.phi_p, r.ce_loss) for r in r4.rows]
    assert rows1 == rows4


def test_fedprox_differs_from_fedavg_and_stays_finite():
    fedavg = run_experiment(small_cfg(strategy="FEDAVG", total_epochs=10))
    fedprox = run_experiment(small_cfg(strategy="FEDPROX", total_epochs=10, prox_mu=0.1))
    assert np.isfinite(fedprox.macro_f1)
    rows_a = [r.ce_loss for r in fedavg.rows]
    rows_p = [r.ce_loss for r in fedprox.rows]
    assert rows_a != rows_p  # proximal pull changes the trajectory


def test_ood_evaluation_present():
    result = run_experiment(small_cfg(total_epochs=10))
    assert 0.0 <= result.ood_macro_f1 <= 1.0
    ood = ood_client(default_profiles(0.1), 3)
    assert len(ood.test_idx) == len(ood.labels)
