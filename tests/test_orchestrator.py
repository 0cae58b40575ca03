import codecs
import dataclasses
import json

import numpy as np
import pytest

from fedfreq import orchestrator
from fedfreq.checkpoint import load_checkpoint_full
from fedfreq.data import DataError, default_profiles, ood_client
from fedfreq.orchestrator import (
    CURVES_HEADER,
    ConfigError,
    ExperimentConfig,
    config_echo,
    emit_report,
    load_config,
    mean_boundary_change,
    parse_config_text,
    read_curves,
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


def test_parse_config_repeated_key_names_both_lines():
    text = "strategy = FEDAVG\nseed = 1\nstrategy = PFA_DET\n"
    with pytest.raises(ConfigError, match="line 3: config key 'strategy' repeats line 1"):
        parse_config_text(text)


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
        ("workers", 4),  # clients train serially
        ("num_clients", 0),
        ("local_epochs", 0),  # both once read "epoch counts must be >= 1"
        ("total_epochs", 0),
        ("prox_mu", -0.1),
        ("lr_halving_period", 0),
        ("base_lr", -0.1),
        ("seed", -1),
        ("base_lr", float("nan")),
        ("base_lr", float("inf")),
        ("prox_mu", float("nan")),
        ("prox_mu", float("inf")),
    ],
)
def test_config_validation_rejects(field, value):
    with pytest.raises(ConfigError, match=field):
        ExperimentConfig(**{field: value})


def test_config_accepts_a_zero_learning_rate():
    assert ExperimentConfig(base_lr=0.0).lr(1) == 0.0  # a legal degenerate case


def test_config_file_roundtrip(tmp_path):
    cfg = small_cfg(strategy="FEDPROX", prox_mu=0.05)
    path = tmp_path / "exp.cfg"
    # a file saved with a UTF-8 byte order mark once failed on the key '\ufeffstrategy'
    for bom in (b"", codecs.BOM_UTF8):
        path.write_bytes(bom + config_echo(cfg).encode())
        assert load_config(path) == cfg


def test_run_rejects_bad_config_before_work(monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("trained before the config check")

    monkeypatch.setattr(orchestrator, "train_epoch", no_training)
    with pytest.raises(ConfigError):
        run_experiment(ExperimentConfig(strategy="BOGUS"))
    with pytest.raises(ConfigError):
        run_experiment(small_cfg(num_clients=9))
    with pytest.raises(ConfigError, match="num_clients does not match the supplied profiles"):
        run_experiment(small_cfg(num_clients=3), default_profiles(0.1))


# --- degenerate protocol equivalence ------------------------------------------------


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


def test_fedprox_without_pull_matches_fedavg():
    fedavg = run_experiment(small_cfg(strategy="FEDAVG", total_epochs=10))
    fedprox = run_experiment(small_cfg(strategy="FEDPROX", total_epochs=10, prox_mu=0.0))
    assert repr(fedprox.rows) == repr(fedavg.rows)  # repr: phi_d is NaN in every row
    assert fedprox.clients == fedavg.clients


# --- logging and reports -------------------------------------------------------------


def test_mean_boundary_change_computation():
    result = run_experiment(small_cfg(strategy="FEDAVG", total_epochs=20))
    phi = {(r.epoch, r.client): r.phi_p for r in result.rows}
    manual = np.mean([phi[(e + 1, 0)] - phi[(e, 0)] for e in (5, 10, 15)])
    assert abs(mean_boundary_change(result.rows, 0) - manual) < 1e-15


def test_mean_boundary_change_skips_a_boundary_with_a_nan_phi_p():
    def row(epoch, phi_p, comm_event):
        return orchestrator.RoundRow(epoch, 0, "-", 0.5, 0.0, np.nan, phi_p, 0.35, comm_event)

    rows = [row(1, np.nan, 1), row(2, 0.4, 0), row(3, 0.5, 1), row(4, 0.25, 0)]
    assert mean_boundary_change(rows, 0) == 0.25 - 0.5
    with pytest.raises(ValueError):
        mean_boundary_change(rows[:2], 0)


def test_single_class_held_out_cohort_fails_before_training(monkeypatch):
    def one_class_cohort(profiles, seed):
        cohort = ood_client(profiles, seed)
        cohort.labels = np.zeros_like(cohort.labels)
        return cohort

    def no_training(*args, **kwargs):
        raise AssertionError("trained before the data check")

    monkeypatch.setattr(orchestrator, "ood_client", one_class_cohort)
    monkeypatch.setattr(orchestrator, "train_epoch", no_training)
    with pytest.raises(DataError, match="the held-out cohort's test split holds 1 of 3 classes"):
        run_experiment(small_cfg())


def test_emit_report_files(tmp_path):
    cfg = small_cfg(total_epochs=10)
    result = run_experiment(cfg)
    files = emit_report(result, tmp_path)
    # results.json last: a directory that holds it holds the whole run
    checkpoints = [f"best_client_{j}.ckpt" for j in range(4)]
    assert [f.name for f in files] == ["curves.csv", "config.echo", *checkpoints, "results.json"]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(f.name for f in files)

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


def test_read_curves_returns_the_emitted_rows(tmp_path):
    result = run_experiment(small_cfg(strategy="FEDPROX", total_epochs=10))
    emit_report(result, tmp_path)
    rows = read_curves(tmp_path / "curves.csv")
    assert repr(rows) == repr(result.rows)  # repr: phi_d is NaN in every row


def test_read_curves_names_file_and_line_of_an_unparsable_value(tmp_path):
    path = tmp_path / "curves.csv"
    path.write_text(f"{CURVES_HEADER}\n1,0,-,0.5,0.0,nan,0.5,0.35,0\n1,1,-,0.5,0.0,nan,0.5,0.35,x\n")
    with pytest.raises(DataError, match="curves.csv: line 3: invalid literal for int"):
        read_curves(path)


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


@pytest.fixture(scope="module")
def two_runs():
    """The same config run twice; both determinism tests share the pair."""
    return run_experiment(small_cfg(total_epochs=10)), run_experiment(small_cfg(total_epochs=10))


def test_determinism_across_runs(two_runs):
    r1, r2 = two_runs
    assert repr(r1.rows) == repr(r2.rows)
    assert r1.clients == r2.clients


def test_results_reproducible_across_reruns(two_runs):
    r1, r2 = two_runs
    assert results_payload(r1) == results_payload(r2)


def test_fedprox_differs_from_fedavg_and_stays_finite():
    fedavg = run_experiment(small_cfg(strategy="FEDAVG", total_epochs=10))
    fedprox = run_experiment(small_cfg(strategy="FEDPROX", total_epochs=10, prox_mu=0.1))
    assert np.isfinite(fedprox.macro_f1)
    rows_a = [r.ce_loss for r in fedavg.rows]
    rows_p = [r.ce_loss for r in fedprox.rows]
    assert rows_a != rows_p  # proximal pull changes the trajectory


@pytest.mark.parametrize("aggregator", [orchestrator.PFA, None])
def test_a_prox_strategy_without_a_global_model_is_rejected(aggregator):
    with pytest.raises(ValueError, match="only FEDAVG"):
        orchestrator.Strategy(aggregator, deputy=False, prox=True)


def test_ood_evaluation_present():
    result = run_experiment(small_cfg(total_epochs=10))
    assert 0.0 <= result.ood_macro_f1 <= 1.0
    ood = ood_client(default_profiles(0.1), 3)
    assert ood.splits == (0, 0, len(ood.labels))
