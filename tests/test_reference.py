"""``run_experiment`` against the protocol reference (``reference.py``), bit for bit, for every strategy."""

import dataclasses

import pytest
import reference

from fedfreq import orchestrator
from fedfreq.data import default_profiles
from fedfreq.orchestrator import ExperimentConfig, run_experiment


def assert_matches_reference(profiles=None, **kw):
    cfg = ExperimentConfig(**{"data_scale": 0.05, "seed": 3, "local_epochs": 5, "total_epochs": 20, **kw})
    result = run_experiment(cfg, profiles)
    rows, best_params, outcomes = reference.run(cfg, profiles)
    # repr: phi_d is NaN under most strategies, and repr tells every float bit apart
    assert [repr(dataclasses.astuple(row)) for row in result.rows] == [repr(row) for row in rows]
    for j, params in enumerate(best_params):
        assert sorted(result.best_params[j]) == sorted(params)
        for k, v in params.items():
            assert result.best_params[j][k].tobytes() == v.tobytes(), (j, k)
    assert [repr(dataclasses.astuple(c)[1:]) for c in result.clients] == [repr(o) for o in outcomes]


def test_the_reference_states_every_strategy():
    assert reference.STRATEGIES == {name: dataclasses.astuple(s) for name, s in orchestrator.STRATEGIES.items()}


@pytest.mark.parametrize("strategy", list(reference.STRATEGIES))
def test_every_strategy_matches_the_reference(strategy):
    assert_matches_reference(strategy=strategy)


@pytest.mark.parametrize(
    "strategy,model_id",
    [("PFA_DET", "mlp32"), ("FEDAVG_DET", "mlp32"), ("FEDPROX", "mlp32"), ("PFA_DET", "conv4x8"), ("FEDPROX", "conv4x8")],
)
def test_communicating_every_epoch_matches_the_reference(strategy, model_id):
    assert_matches_reference(strategy=strategy, model_id=model_id, local_epochs=1, total_epochs=10)


@pytest.mark.parametrize("strategy", ["FEDPROX", "PFA_DET"])
def test_one_client_matches_the_reference(strategy):
    assert_matches_reference(strategy=strategy, num_clients=1, total_epochs=10)


@pytest.mark.parametrize("order", [[0, 1, 2, 3], [3, 2, 0, 1]])
@pytest.mark.parametrize("strategy", ["FEDPROX", "PFA_DET"])
def test_a_tie_in_the_training_row_sort_matches_the_reference(strategy, order):
    base = default_profiles(0.1)
    # 209, 271, 115 and 209 training rows: clients 0 and the twin tie, in either order
    profiles = [base[0], base[1], base[2], dataclasses.replace(base[0], seed=10)]
    assert_matches_reference([profiles[j] for j in order], strategy=strategy, data_scale=0.1, total_epochs=10)


def test_the_halved_learning_rate_matches_the_reference():
    # every other case ends before the default halving period of 25 epochs
    assert_matches_reference(strategy="FEDAVG_DET", local_epochs=3, total_epochs=12, lr_halving_period=4)
