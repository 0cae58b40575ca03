import collections
import dataclasses
import json

import numpy as np
import pytest

from fedfreq import orchestrator
from fedfreq.checkpoint import load_checkpoint_full
from fedfreq.data import DataError, default_profiles, ood_client, synth
from fedfreq.freq_agg import AggregationRequest, fedavg_aggregate, pfa_aggregate
from fedfreq.metrics import evaluate, macro_f1
from fedfreq.model import (
    MODEL_SPECS,
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
        ("lr_halving_period", 0),
        ("seed", -1),
        ("base_lr", float("nan")),
        ("base_lr", float("inf")),
        ("prox_mu", float("nan")),
        ("prox_mu", float("inf")),
    ],
)
def test_config_validation_rejects(field, value):
    cfg = ExperimentConfig(**{field: value})
    with pytest.raises(ConfigError, match=field):
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
    x, y = client.split_xy("train")
    val_x, val_y = client.split_xy("val")
    best_val, best_params = -1.0, None
    for _ in range(cfg.total_epochs):
        perm = shuffle_rng.permutation(len(y))
        for i in range(0, len(y), cfg.batch_size):
            sel = perm[i : i + cfg.batch_size]
            probs, cache = forward(params, spec, x[sel])
            _, dlogits = ce_loss(probs, y[sel])
            params = sgd_step(params, backward(cache, dlogits), opt)
        opt.epoch += 1
        val = macro_f1(predict_probs(params, spec, val_x).argmax(axis=1), val_y, 3)
        if val > best_val:
            best_val, best_params = val, clone_params(params)

    test_x, test_y = client.split_xy("test")
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

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    # each stack-level fusion counts under the name of the list-of-maps aggregator it backs
    for label, name in (("pfa_aggregate", "pfa_fuse"), ("fedavg_aggregate", "fedavg_fuse")):
        monkeypatch.setattr(orchestrator, name, counting(label, getattr(orchestrator, name)))
    deliver = orchestrator.Cohort.deliver

    def counting_deliver(cohort, aggregates, into_deputy):
        calls["deliver to deputy" if into_deputy else "deliver over p"] += 1
        return deliver(cohort, aggregates, into_deputy)

    monkeypatch.setattr(orchestrator.Cohort, "deliver", counting_deliver)
    run_experiment(small_cfg(strategy=strategy, total_epochs=10))
    rounds = 2
    expected = collections.Counter()
    if aggregator is not None:
        expected[aggregator] = rounds
        expected["deliver to deputy" if deputy else "deliver over p"] = rounds
    assert calls == expected


# --- the cohort's slots and the clients they hold ------------------------------------


def test_permuted_profiles_permute_a_local_only_run_bit_for_bit():
    base = default_profiles(0.1)
    # 14, 17, 8 and 14 batches: clients 0 and 3 tie, and the stable sort keeps them in order
    twin = dataclasses.replace(base[0], seed=10)
    profiles = [base[0], base[1], base[2], twin]
    perm = [3, 2, 0, 1]  # the twin now comes first, so the tie breaks the other way
    cfg = small_cfg(strategy="LOCAL_ONLY", total_epochs=10)
    straight = run_experiment(cfg, profiles=profiles)
    moved = run_experiment(cfg, profiles=[profiles[j] for j in perm])
    for i, j in enumerate(perm):
        rows = [dataclasses.replace(r, client=j) for r in moved.rows if r.client == i]
        assert repr(rows) == repr([r for r in straight.rows if r.client == j]), (i, j)
        for k, v in straight.best_params[j].items():
            assert np.array_equal(moved.best_params[i][k], v), (i, j, k)


@pytest.mark.parametrize("strategy", ["PFA_DET", "PFA_ONLY", "FEDAVG_DET", "FEDAVG"])
def test_a_round_delivers_the_aggregate_of_the_uploads_in_client_order(monkeypatch, strategy):
    rounds = []
    communicate = orchestrator._communicate

    def recording(cohort, spec, strat, r, t):
        uploads = [{k: v[s].copy() for k, v in cohort.p.items()} for s in cohort.slots]
        global_params = communicate(cohort, spec, strat, r, t)
        target = cohort.d if strat.deputy else cohort.p
        delivered = [{k: v[s].copy() for k, v in target.items()} for s in cohort.slots]
        rounds.append((cohort.clients.tolist(), r, uploads, delivered))
        return global_params

    monkeypatch.setattr(orchestrator, "_communicate", recording)
    run_experiment(small_cfg(strategy=strategy, total_epochs=5))
    ((clients, r, uploads, delivered),) = rounds
    assert clients == [1, 0, 3, 2]  # 17, 14, 9 and 8 batches: slot and client order differ
    if orchestrator.STRATEGIES[strategy].aggregator == orchestrator.PFA:
        expected = pfa_aggregate(AggregationRequest(uploads, r=r, strategy=orchestrator.PFA))
    else:
        expected = [fedavg_aggregate(AggregationRequest(uploads, strategy=orchestrator.FEDAVG))] * 4
    for j, (got, want) in enumerate(zip(delivered, expected)):
        for k in want:
            assert np.array_equal(got[k], want[k]), (j, k)


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


def test_fedprox_pulls_toward_the_init_then_the_latest_global_model(monkeypatch):
    cfg = small_cfg(strategy="FEDPROX", num_clients=4, total_epochs=15, local_epochs=5, prox_mu=0.1)
    pulls, global_models = [], []
    train_epoch, fedavg_fuse = orchestrator.train_epoch, orchestrator.fedavg_fuse

    def recording_train_epoch(*args):
        mu, anchor = args[-1]  # prox, the last argument
        pulls.append((mu, clone_params(anchor)))
        return train_epoch(*args)

    def recording_fedavg(stacks):
        out = fedavg_fuse(stacks)
        global_models.append(clone_params(out))
        return out

    monkeypatch.setattr(orchestrator, "train_epoch", recording_train_epoch)
    monkeypatch.setattr(orchestrator, "fedavg_fuse", recording_fedavg)
    run_experiment(cfg)

    init = init_params(MODEL_SPECS[cfg.model_id], [cfg.seed, 1])
    assert len(pulls) == 15 and len(global_models) == 3
    for epoch, (mu, anchor) in enumerate(pulls):
        rnd = epoch // cfg.local_epochs
        expected = init if rnd == 0 else global_models[rnd - 1]
        assert mu == 0.1
        assert sorted(anchor) == sorted(expected)
        assert all(np.array_equal(anchor[k], expected[k]) for k in expected), epoch
    assert not np.array_equal(global_models[0]["dense1.weight"], init["dense1.weight"])


@pytest.mark.parametrize("strategy", ["FEDAVG", "FEDPROX"])
def test_a_global_strategy_keeps_the_best_global_model(monkeypatch, strategy):
    cfg = small_cfg(strategy=strategy, num_clients=4, total_epochs=20, local_epochs=5)
    global_models = []
    fedavg_fuse = orchestrator.fedavg_fuse

    def recording_fedavg(stacks):
        out = fedavg_fuse(stacks)
        global_models.append(clone_params(out))
        return out

    monkeypatch.setattr(orchestrator, "fedavg_fuse", recording_fedavg)
    result = run_experiment(cfg)

    spec = MODEL_SPECS[cfg.model_id]
    dataset = synth(default_profiles(cfg.data_scale)[: cfg.num_clients], cfg.seed)
    assert len(global_models) == 4
    for j, outcome in enumerate(result.clients):
        assert outcome.best_epoch % cfg.local_epochs == 0, j  # only delivered models are snapshot
        deployed = global_models[outcome.best_epoch // cfg.local_epochs - 1]
        for k, v in deployed.items():
            assert result.best_params[j][k].tobytes() == v.tobytes(), (j, k)
        val_x, val_y = dataset.clients[j].split_xy("val")
        want = macro_f1(predict_probs(deployed, spec, val_x).argmax(axis=1), val_y, spec.classes)
        assert outcome.best_val_f1 == want, j


@pytest.mark.parametrize("aggregator", [orchestrator.PFA, None])
def test_a_prox_strategy_without_a_global_model_is_rejected(aggregator):
    with pytest.raises(ValueError, match="only FEDAVG"):
        orchestrator.Strategy(aggregator, deputy=False, prox=True)


def test_ood_evaluation_present():
    result = run_experiment(small_cfg(total_epochs=10))
    assert 0.0 <= result.ood_macro_f1 <= 1.0
    ood = ood_client(default_profiles(0.1), 3)
    assert len(ood.test_idx) == len(ood.labels)
