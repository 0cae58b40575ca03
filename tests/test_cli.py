import hashlib
import json
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest

from fedfreq import cli, orchestrator
from fedfreq.checkpoint import CorruptCheckpointError, UnsupportedVersionError, load_checkpoint_full, save_checkpoint
from fedfreq.cli import main
from fedfreq.data import ClientData, DataError, load_client, save_client
from fedfreq.det import DivergenceError
from fedfreq.freq_agg import FEDAVG, PFA, AggregationRequest, fedavg_aggregate, pfa_aggregate
from fedfreq.model import MODEL_SPECS, init_params, mlp_spec
from fedfreq.orchestrator import ConfigError


def test_synth_data_writes_client_files(tmp_path, capsys):
    rc = main(["synth-data", "--scale", "0.1", "--seed", "5", "--out-dir", str(tmp_path), "--ood"])
    assert rc == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["client_0.fsd", "client_1.fsd", "client_2.fsd", "client_3.fsd", "ood.fsd"]
    client = load_client(tmp_path / "client_0.fsd")
    assert len(client.labels) == 299
    ood = load_client(tmp_path / "ood.fsd")
    assert ood.splits == (0, 0, len(ood.labels))


@pytest.mark.parametrize(
    "option, value, code, message",
    [
        # once a raw numpy ValueError, exit 1
        ("--seed", "-1", 2, "config error: --seed must be >= 0, got -1"),
        # these two once exited 3, where the same data_scale in a run config exits 2
        ("--scale", "2", 2, "config error: --scale must lie in (0, 1], got 2.0"),
        ("--scale", "0", 2, "config error: --scale must lie in (0, 1], got 0.0"),
        # a valid scale that leaves a client too few samples is a data error, as in a run
        ("--scale", "0.01", 3, "data error: scale 0.01 gives client"),
    ],
    ids=["negative_seed", "scale_above_1", "zero_scale", "scale_too_small"],
)
def test_synth_data_with_a_bad_option_writes_nothing(tmp_path, capsys, option, value, code, message):
    out = tmp_path / "data"
    assert main(["synth-data", option, value, "--out-dir", str(out)]) == code
    _single_error_line(capsys, message)
    assert not out.exists()


def test_run_from_config_file(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(
        "strategy = PFA_DET\ntotal_epochs = 10\nlocal_epochs = 5\nseed = 2\n"
        f"out_dir = {tmp_path / 'out'}\n"
    )
    rc = main(["run", "--config", str(cfg_path)])
    assert rc == 0
    out = tmp_path / "out"
    for name in ("curves.csv", "results.json", "config.echo", "best_client_0.ckpt"):
        assert (out / name).exists()
    payload = json.loads((out / "results.json").read_text())
    assert payload["strategy"] == "PFA_DET"


def test_aggregate_pfa_outputs_per_client(tmp_path, capsys):
    spec = mlp_spec(8)
    maps = [init_params(spec, seed) for seed in (0, 1)]
    inputs = []
    for i, params in enumerate(maps):
        path = tmp_path / f"client_{i}.ckpt"
        save_checkpoint(params, path, model_id="mlp8")
        inputs.append(str(path))
    rc = main(["aggregate", *inputs, "--strategy", PFA, "--r", "0.3", "--out-dir", str(tmp_path / "agg")])
    assert rc == 0
    expected = pfa_aggregate(AggregationRequest(maps, r=0.3, strategy=PFA))
    for i in range(2):
        _, model_id, loaded = load_checkpoint_full(tmp_path / "agg" / f"client_{i}.agg.ckpt")
        assert model_id == "mlp8"
        for k in loaded:
            assert np.array_equal(loaded[k], expected[i][k])


def test_aggregate_fedavg_single_output(tmp_path, capsys):
    spec = mlp_spec(8)
    maps = [init_params(spec, seed) for seed in (3, 4, 5)]
    inputs = []
    for i, params in enumerate(maps):
        path = tmp_path / f"c{i}.ckpt"
        save_checkpoint(params, path, model_id="mlp8")
        inputs.append(str(path))
    rc = main(["aggregate", *inputs, "--strategy", FEDAVG, "--out-dir", str(tmp_path / "agg")])
    assert rc == 0
    _, _, loaded = load_checkpoint_full(tmp_path / "agg" / "global.ckpt")
    expected = fedavg_aggregate(AggregationRequest(maps, strategy=FEDAVG))
    for k in loaded:
        assert np.array_equal(loaded[k], expected[k])


def test_eval_checkpoint_on_dataset(tmp_path, capsys):
    main(["synth-data", "--scale", "0.1", "--seed", "0", "--out-dir", str(tmp_path)])
    params = init_params(mlp_spec(32), 0)
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(params, ckpt, model_id="mlp32")
    capsys.readouterr()
    rc = main(["eval", "--checkpoint", str(ckpt), "--data", str(tmp_path / "client_0.fsd")])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["split"] == "test"
    assert payload["samples"] == 60
    assert 0.0 <= payload["macro_f1"] <= 1.0


def test_report_summarizes_curves(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(
        "strategy = FEDAVG\ntotal_epochs = 10\nlocal_epochs = 5\nseed = 1\n"
        f"out_dir = {tmp_path / 'out'}\n"
    )
    main(["run", "--config", str(cfg_path)])
    capsys.readouterr()
    rc = main(["report", "--curves", str(tmp_path / "out" / "curves.csv")])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5  # header plus one row per client


def test_exit_code_config_error(tmp_path, capsys):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("strategy = BOGUS\n")
    assert main(["run", "--config", str(cfg_path)]) == 2


@pytest.mark.parametrize(
    "line, message",
    [
        ("seed = -1", "config error: seed must be >= 0, got -1"),
        # FEDPROX once ran plain FEDAVG on a NaN pull, and an infinite pull or a NaN
        # learning rate once exited 5 as a diverged run
        ("prox_mu = nan", "config error: prox_mu must be finite, got nan"),
        ("prox_mu = inf", "config error: prox_mu must be finite, got inf"),
        ("base_lr = nan", "config error: base_lr must be finite, got nan"),
        ("strategy = FEDAVG", "config error: line 2: config key 'strategy' repeats line 1"),
    ],
    ids=["negative_seed", "nan_prox_mu", "inf_prox_mu", "nan_base_lr", "repeated_key"],
)
def test_run_with_a_bad_config_value_exits_2_with_one_line(tmp_path, capsys, line, message):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(f"strategy = FEDPROX\n{line}\nlocal_epochs = 1\ntotal_epochs = 2\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out-dir", str(out)]) == 2
    _single_error_line(capsys, message)
    assert not out.exists()


def test_exit_code_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.fsd"
    bad.write_bytes(b"JUNKJUNKJUNKJUNK" + b"\x00" * 32)
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(init_params(mlp_spec(32), 0), ckpt, model_id="mlp32")
    assert main(["eval", "--checkpoint", str(ckpt), "--data", str(bad)]) == 3


def test_exit_code_corrupt_checkpoint(tmp_path, capsys):
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(init_params(mlp_spec(32), 0), ckpt, model_id="mlp32")
    raw = bytearray(ckpt.read_bytes())
    raw[10] ^= 0xFF
    ckpt.write_bytes(bytes(raw))
    assert main(["eval", "--checkpoint", str(ckpt), "--data", str(tmp_path / "x.fsd")]) == 3


def test_exit_code_io_error(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "missing.cfg")]) == 4


def _single_error_line(capsys, prefix):
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1, err  # one line, no traceback


@pytest.mark.parametrize(
    "error, code, prefix",
    [
        (ConfigError, 2, "config error: "),
        (DataError, 3, "data error: "),
        (CorruptCheckpointError, 3, "data error: "),
        (UnsupportedVersionError, 3, "data error: "),
        (OSError, 4, "io error: "),
        (DivergenceError, 5, "training diverged: "),
    ],
    ids=["ConfigError", "DataError", "CorruptCheckpointError", "UnsupportedVersionError", "OSError", "DivergenceError"],
)
def test_each_exception_type_exits_with_its_code(monkeypatch, capsys, error, code, prefix):
    def fail(args):
        raise error("some problem")

    monkeypatch.setattr(cli, "_cmd_run", fail)
    assert main(["run", "--config", "exp.cfg"]) == code
    _single_error_line(capsys, f"{prefix}some problem\n")


def test_run_with_a_config_file_that_is_not_utf8_exits_2_and_writes_nothing(tmp_path, capsys):
    # a checkpoint given as the config once raised a raw UnicodeDecodeError, exit 1
    cfg_path = tmp_path / "best_client_0.ckpt"
    save_checkpoint(init_params(mlp_spec(32), 0), cfg_path, model_id="mlp32")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out-dir", str(out)]) == 2
    _single_error_line(capsys, f"config error: {cfg_path}: not a UTF-8 text file\n")
    assert not out.exists()


def test_report_of_a_file_that_is_not_utf8_is_a_data_error(tmp_path, capsys):
    # a checkpoint given as the curves once raised a raw UnicodeDecodeError, exit 1
    ckpt = tmp_path / "best_client_0.ckpt"
    save_checkpoint(init_params(mlp_spec(32), 0), ckpt, model_id="mlp32")
    assert main(["report", "--curves", str(ckpt)]) == 3
    _single_error_line(capsys, f"data error: {ckpt}: not a curves.csv file\n")


def test_report_truncated_row_is_a_data_error(tmp_path, capsys):
    curves = tmp_path / "curves.csv"
    curves.write_text("epoch,client,phase,ce_loss,kl_loss,phi_d,phi_p,r,comm_event\n1,0,-,0.5\n")
    assert main(["report", "--curves", str(curves)]) == 3
    _single_error_line(capsys, f"data error: {curves}: line 2: expected 9 fields, got 4")


def test_report_without_a_finite_phi_p_prints_na(tmp_path, capsys):
    curves = tmp_path / "curves.csv"
    curves.write_text(
        "epoch,client,phase,ce_loss,kl_loss,phi_d,phi_p,r,comm_event\n1,0,-,0.5,0.0,nan,nan,0.35,0\n"
    )
    assert main(["report", "--curves", str(curves)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.splitlines()[1].split() == ["0", "1", "n/a", "n/a", "n/a"]


def test_report_skips_a_boundary_with_a_nan_phi_p(tmp_path, capsys):
    curves = tmp_path / "curves.csv"
    curves.write_text(
        "epoch,client,phase,ce_loss,kl_loss,phi_d,phi_p,r,comm_event\n"
        "1,0,-,0.5,0.0,nan,nan,0.35,1\n"
        "2,0,-,0.5,0.0,nan,0.4,0.35,0\n"
    )
    assert main(["report", "--curves", str(curves)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.splitlines()[1].split() == ["0", "2", "0.4000", "0.4000", "n/a"]


def test_run_with_a_single_class_test_split_is_a_data_error(tmp_path, capsys):
    # at this scale and seed, client 1's test split holds only class 0
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(
        "strategy = FEDAVG\nlocal_epochs = 1\ntotal_epochs = 2\ndata_scale = 0.02\nseed = 7\n"
    )
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out-dir", str(out)]) == 3
    _single_error_line(capsys, "data error: client 1's test split holds 1 of 3 classes")
    assert not out.exists()


@pytest.mark.parametrize("strategy", ["PFA_DET", "FEDAVG"])
def test_run_that_diverges_exits_5_and_writes_nothing(tmp_path, capsys, strategy):
    # at this learning rate the weights overflow in the first epoch after the
    # first aggregation; PFA_DET once died in the FFT, FEDAVG once exited 0
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(
        f"strategy = {strategy}\nlocal_epochs = 5\ntotal_epochs = 20\nbase_lr = 1000\nseed = 0\n"
    )
    out = tmp_path / "out"
    with warnings.catch_warnings():  # the one error line is all the user sees
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["run", "--config", str(cfg_path), "--out-dir", str(out)]) == 5
    err = capsys.readouterr().err
    assert err.startswith("training diverged: client ") and err.count("\n") == 1, err
    assert " diverged in epoch 6: " in err and "is not finite" in err, err
    assert not out.exists()


def test_local_only_at_the_same_learning_rate_exits_0_and_predicts_badly(tmp_path, capsys):
    # documented in README: the weights stay finite, so nothing diverged and the
    # run succeeds, but its models predict badly (macro F1 about 0.27)
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("strategy = LOCAL_ONLY\nlocal_epochs = 5\ntotal_epochs = 20\nbase_lr = 1000\nseed = 0\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
    for i in range(4):
        _, _, params = load_checkpoint_full(out / f"best_client_{i}.ckpt")
        assert all(np.isfinite(v).all() for v in params.values()), i
    assert json.loads((out / "results.json").read_text())["macro_f1"] < 0.4


def test_run_without_an_output_directory_exits_2_and_writes_nothing(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "exp.cfg").write_text("strategy = FEDAVG\nlocal_epochs = 1\ntotal_epochs = 2\n")
    assert main(["run", "--config", "exp.cfg"]) == 2
    _single_error_line(capsys, "config error: no output directory: set out_dir in the config or pass --out-dir\n")
    assert [p.name for p in tmp_path.iterdir()] == ["exp.cfg"]


def test_run_whose_checkpoint_write_fails_exits_4_without_results_json(tmp_path, capsys, monkeypatch):
    def full_disk(params, path, model_id):
        raise OSError(f"{path}: no space left on device")

    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("strategy = FEDAVG\nlocal_epochs = 1\ntotal_epochs = 2\nseed = 4\n")
    out = tmp_path / "out"
    # a rerun that failed once left the completed run's results.json next to its own files
    assert main(["run", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
    assert (out / "results.json").exists()
    capsys.readouterr()
    # results.json once came before the checkpoints, so a failed run looked complete
    monkeypatch.setattr(orchestrator, "save_checkpoint", full_disk)
    assert main(["run", "--config", str(cfg_path), "--out-dir", str(out)]) == 4
    _single_error_line(capsys, f"io error: {out / 'best_client_0.ckpt'}: no space left on device\n")
    assert not (out / "results.json").exists()


def test_run_writes_the_same_bytes_in_any_directory(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("strategy = PFA_DET\nlocal_epochs = 1\ntotal_epochs = 2\nseed = 4\n")
    outs = [tmp_path / "a", tmp_path / "elsewhere" / "b"]
    for out in outs:
        assert main(["run", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
    for name in ("results.json", "curves.csv", "best_client_0.ckpt"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def _eval_file(tmp_path, features, labels):
    client = ClientData(features, np.asarray(labels), (0, 0, len(labels)))
    data = tmp_path / "client.fsd"
    save_client(client, data)
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(init_params(mlp_spec(32), 0), ckpt, model_id="mlp32")
    return main(["eval", "--checkpoint", str(ckpt), "--data", str(data)]), data


def test_eval_feature_count_mismatch_is_a_data_error(tmp_path, capsys):
    rc, data = _eval_file(tmp_path, np.zeros((6, 5)), [0, 1, 2, 0, 1, 2])
    assert rc == 3
    _single_error_line(capsys, f"data error: {data}: 5 features, model 'mlp32' takes 32")


def test_eval_label_out_of_range_is_a_data_error(tmp_path, capsys):
    rc, data = _eval_file(tmp_path, np.zeros((6, 32)), [0, 1, 2, 7, 1, 2])
    assert rc == 3
    _single_error_line(capsys, f"data error: {data}: label 7 outside [0, 3)")


@pytest.mark.parametrize(
    "spec, model_id, problem",
    [
        (MODEL_SPECS["conv4x8"], "conv4x8", "client_1.ckpt holds 'conv4x8'"),
        (mlp_spec(8), "mlp32", "parameter map 1 shape mismatch for 'dense1.weight': (8, 64) vs (32, 64)"),
    ],
    ids=["another_model", "same_model_id_other_shapes"],
)
def test_aggregate_mismatched_checkpoints_is_a_data_error(tmp_path, capsys, spec, model_id, problem):
    inputs = [tmp_path / "client_0.ckpt", tmp_path / "client_1.ckpt"]
    save_checkpoint(init_params(MODEL_SPECS["mlp32"], 0), inputs[0], model_id="mlp32")
    save_checkpoint(init_params(spec, 0), inputs[1], model_id=model_id)
    out = tmp_path / "agg"
    assert main(["aggregate", *map(str, inputs), "--out-dir", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: checkpoints do not match: ") and err.count("\n") == 1, err
    assert problem in err, err
    assert not out.exists()


def test_aggregate_of_checkpoints_with_different_model_ids_is_a_data_error(tmp_path, capsys):
    # the same tensors under two model ids: the structures match, the models do not
    params = init_params(MODEL_SPECS["mlp32"], 0)
    inputs = []
    for model_id in ("mlp32", "conv4x8"):
        path = tmp_path / f"{model_id}.ckpt"
        save_checkpoint(params, path, model_id=model_id)
        inputs.append(str(path))
    out = tmp_path / "agg"
    assert main(["aggregate", *inputs, "--strategy", FEDAVG, "--out-dir", str(out)]) == 3
    _single_error_line(
        capsys, f"data error: checkpoints do not match: {inputs[0]} holds model 'mlp32', {inputs[1]} holds 'conv4x8'"
    )
    assert not out.exists()


def test_aggregate_threshold_out_of_range_is_a_config_error(tmp_path, capsys):
    inputs = []
    for seed in (0, 1):
        path = tmp_path / f"c{seed}.ckpt"
        save_checkpoint(init_params(mlp_spec(8), seed), path, model_id="mlp8")
        inputs.append(str(path))
    out = tmp_path / "agg"
    assert main(["aggregate", *inputs, "--r", "0.7", "--out-dir", str(out)]) == 2
    _single_error_line(capsys, "config error: --r: ")
    assert not out.exists()


def _mlp32_checkpoints(tmp_path, poison):
    """Three mlp32 checkpoints; ``poison(i, params)`` may edit client i's map before saving."""
    paths = []
    for i in range(3):
        params = init_params(MODEL_SPECS["mlp32"], i)
        poison(i, params)
        path = tmp_path / f"client_{i}.ckpt"
        save_checkpoint(params, path, model_id="mlp32")
        paths.append(str(path))
    return paths


def _nan_in_client_1(i, params):
    if i == 1:
        params["dense2.weight"][0, 0] = np.nan


@pytest.mark.parametrize("strategy", [PFA, FEDAVG])
def test_aggregate_of_a_non_finite_checkpoint_is_a_data_error(tmp_path, capsys, strategy):
    # PFA once died in the FFT with a raw ValueError; FEDAVG wrote a NaN global.ckpt
    inputs = _mlp32_checkpoints(tmp_path, _nan_in_client_1)
    out = tmp_path / "agg"
    assert main(["aggregate", *inputs, "--strategy", strategy, "--out-dir", str(out)]) == 3
    _single_error_line(capsys, f"data error: {inputs[1]}: tensor 'dense2.weight' is not finite")
    assert not out.exists()


@pytest.mark.parametrize("strategy", [PFA, FEDAVG])
def test_aggregate_that_overflows_is_a_data_error(tmp_path, capsys, strategy):
    # every input is finite, but the mean of two 1e308 entries is not
    def huge(i, params):
        params["dense1.weight"][3, 4] = 1e308

    inputs = _mlp32_checkpoints(tmp_path, huge)
    out = tmp_path / "agg"
    with warnings.catch_warnings():  # the one error line is all the user sees
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["aggregate", *inputs, "--strategy", strategy, "--out-dir", str(out)]) == 3
    first = "client_0.agg.ckpt" if strategy == PFA else "global.ckpt"
    _single_error_line(capsys, f"data error: aggregate for {out / first}: tensor 'dense1.weight' is not finite")
    assert not out.exists()


def test_aggregate_of_a_subnormal_checkpoint_writes_finite_aggregates(tmp_path, capsys):
    # client 1's band amplitudes are subnormal, so shared / |F| overflows the float range
    rng = np.random.default_rng(0)
    inputs = []
    for i in range(3):
        w = rng.normal(size=(8, 6)) * (1e-310 if i == 1 else 1.0)
        save_checkpoint({"w": w}, tmp_path / f"c{i}.ckpt")
        inputs.append(str(tmp_path / f"c{i}.ckpt"))
    out = tmp_path / "agg"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["aggregate", *inputs, "--strategy", PFA, "--r", "0.4", "--out-dir", str(out)]) == 0
    for i in range(3):
        assert np.isfinite(load_checkpoint_full(out / f"c{i}.agg.ckpt")[2]["w"]).all()


def test_eval_of_a_non_finite_checkpoint_is_a_data_error(tmp_path, capsys):
    # it once scored the NaN model (macro F1 0.254) and exited 0
    main(["synth-data", "--scale", "0.1", "--seed", "0", "--out-dir", str(tmp_path)])
    ckpt = _mlp32_checkpoints(tmp_path, _nan_in_client_1)[1]
    capsys.readouterr()
    assert main(["eval", "--checkpoint", ckpt, "--data", str(tmp_path / "client_0.fsd")]) == 3
    out, err = capsys.readouterr()
    assert out == ""  # no scores
    assert err == f"data error: {ckpt}: tensor 'dense2.weight' is not finite\n"


def _conv_params_as_mlp32(params):
    return init_params(MODEL_SPECS["conv4x8"], 0)


def _dense1_cut(params):
    params["dense1.weight"] = params["dense1.weight"][:, :10].copy()
    return params


def _extra_tensor(params):
    params["extra.bias"] = np.zeros(3)
    return params


@pytest.mark.parametrize(
    "edit, problem",
    [
        # these two once died inside forward with a raw ValueError, exit 1
        (_conv_params_as_mlp32, "parameter map 1 names differ from map 0 at 'conv1.bias'"),
        (_dense1_cut, "parameter map 1 shape mismatch for 'dense1.weight': (32, 10) vs (32, 64)"),
        # this one was scored as if the tensor were not there (macro F1 0.239), exit 0
        (_extra_tensor, "parameter map 1 names differ from map 0 at 'extra.bias'"),
    ],
    ids=["conv4x8_tensors", "dense1_cut", "extra_tensor"],
)
def test_eval_of_a_checkpoint_that_does_not_fit_its_model_is_a_data_error(
    tmp_path, capsys, edit, problem
):
    main(["synth-data", "--scale", "0.1", "--seed", "0", "--out-dir", str(tmp_path)])
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(edit(init_params(MODEL_SPECS["mlp32"], 0)), ckpt, model_id="mlp32")
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ckpt), "--data", str(tmp_path / "client_0.fsd")]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"data error: {ckpt}: tensors do not fit model 'mlp32': {problem}\n"


def test_eval_of_a_checkpoint_with_an_unknown_model_id_is_a_data_error(tmp_path, capsys):
    # it once printed "config error" and exited 2, though no config is involved
    main(["synth-data", "--scale", "0.1", "--seed", "0", "--out-dir", str(tmp_path)])
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(init_params(MODEL_SPECS["mlp32"], 0), ckpt, model_id="resnet")
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ckpt), "--data", str(tmp_path / "client_0.fsd")]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"data error: {ckpt}: unknown model id 'resnet'\n"


def _rewrite_payload(path, edit):
    """Replace a checkpoint's payload with ``edit(payload)``, under a valid checksum."""
    payload = edit(path.read_bytes()[:-8])
    digest = int.from_bytes(hashlib.sha256(payload).digest()[:8], "little")
    path.write_bytes(payload + struct.pack("<Q", digest))


def _as_version_2(path):
    """Rewrite a checkpoint's format version to 2, with a valid checksum."""
    _rewrite_payload(path, lambda payload: struct.pack("<I", 2) + payload[4:])


def test_eval_of_a_checkpoint_with_a_tensor_name_that_is_not_utf8_is_a_data_error(tmp_path, capsys):
    # the checksum holds, so only the decoder can tell
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(init_params(MODEL_SPECS["mlp32"], 0), ckpt, model_id="mlp32")
    _rewrite_payload(ckpt, lambda payload: payload.replace(b"dense1.bias", b"\xff" * len(b"dense1.bias"), 1))
    with pytest.raises(CorruptCheckpointError, match="malformed payload"):
        load_checkpoint_full(ckpt)
    assert main(["eval", "--checkpoint", str(ckpt), "--data", str(tmp_path / "x.fsd")]) == 3
    _single_error_line(capsys, f"data error: {ckpt}: malformed payload (")


def test_eval_of_an_unknown_checkpoint_version_is_a_data_error(tmp_path, capsys):
    # it once exited 1 with a raw UnsupportedVersionError traceback
    main(["synth-data", "--scale", "0.1", "--seed", "0", "--out-dir", str(tmp_path)])
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(init_params(MODEL_SPECS["mlp32"], 0), ckpt, model_id="mlp32")
    _as_version_2(ckpt)
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ckpt), "--data", str(tmp_path / "client_0.fsd")]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"data error: {ckpt}: unsupported checkpoint version 2\n"


def test_aggregate_of_an_unknown_checkpoint_version_is_a_data_error(tmp_path, capsys):
    inputs = _mlp32_checkpoints(tmp_path, lambda i, params: None)
    _as_version_2(Path(inputs[2]))
    out = tmp_path / "agg"
    assert main(["aggregate", *inputs, "--out-dir", str(out)]) == 3
    _single_error_line(capsys, f"data error: {inputs[2]}: unsupported checkpoint version 2")
    assert not out.exists()


def test_eval_of_a_single_class_split_is_a_data_error(tmp_path, capsys):
    # it once exited 1 with a raw "AUC undefined" traceback
    rc, data = _eval_file(tmp_path, np.zeros((6, 32)), [0] * 6)
    assert rc == 3
    _single_error_line(capsys, f"data error: {data}: split 'test' holds 1 of 3 classes; macro AUC needs at least two")


def test_eval_of_non_finite_features_is_a_data_error(tmp_path, capsys):
    # it once scored the NaN row and exited 0
    features = np.zeros((6, 32))
    features[4, 7] = np.nan
    rc, data = _eval_file(tmp_path, features, [0, 1, 2, 0, 1, 2])
    assert rc == 3
    _single_error_line(capsys, f"data error: {data}: tensor 'features' is not finite")


def test_eval_of_a_dataset_file_with_a_flipped_byte_is_a_data_error(tmp_path, capsys):
    # the old dataset codec had no checksum: it scored the flipped feature and exited 0
    main(["synth-data", "--scale", "0.1", "--seed", "0", "--out-dir", str(tmp_path)])
    data = tmp_path / "client_0.fsd"
    raw = bytearray(data.read_bytes())
    raw[len(raw) // 3] ^= 0x01
    data.write_bytes(bytes(raw))
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(init_params(mlp_spec(32), 0), ckpt, model_id="mlp32")
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"data error: {data}: checksum mismatch\n"


@pytest.mark.parametrize("strategy", [PFA, FEDAVG])
def test_aggregate_of_dataset_files_is_a_data_error(tmp_path, capsys, strategy):
    # two dataset files of the same row count have the same structure, but they are not models
    inputs = []
    for seed in (0, 1):
        main(["synth-data", "--scale", "0.1", "--seed", str(seed), "--out-dir", str(tmp_path / str(seed))])
        # renamed, so that PFA's two outputs (named after the inputs) are two files
        inputs.append(str((tmp_path / str(seed) / "client_0.fsd").rename(tmp_path / f"seed_{seed}.fsd")))
    capsys.readouterr()
    out = tmp_path / "agg"
    assert main(["aggregate", *inputs, "--strategy", strategy, "--out-dir", str(out)]) == 3
    _single_error_line(capsys, f"data error: {inputs[0]}: a dataset file, not a model checkpoint")
    assert not out.exists()


@pytest.mark.parametrize("strategy", [PFA, FEDAVG])
def test_aggregate_of_an_empty_tensor_is_a_data_error(tmp_path, capsys, strategy):
    # PFA once died in low_freq_mask with a raw traceback; FEDAVG wrote an empty mean
    inputs = []
    for i in range(2):
        path = tmp_path / f"c{i}.ckpt"
        save_checkpoint({"b": np.full(3, float(i)), "w": np.zeros((0, 5))}, path)
        inputs.append(str(path))
    out = tmp_path / "agg"
    assert main(["aggregate", *inputs, "--strategy", strategy, "--out-dir", str(out)]) == 3
    _single_error_line(capsys, f"data error: {inputs[0]}: tensor 'w' has no entries")
    assert not out.exists()


def test_aggregate_whose_outputs_are_one_file_exits_2_and_writes_nothing(tmp_path, capsys):
    # two clients named alike in two run directories once wrote one aggregate over the other, exit 0
    inputs = []
    for seed in (0, 1):
        path = tmp_path / f"run{seed}" / "best_client_0.ckpt"
        path.parent.mkdir()
        save_checkpoint(init_params(mlp_spec(8), seed), path, model_id="mlp8")
        inputs.append(str(path))
    before = [Path(p).read_bytes() for p in inputs]
    out = tmp_path / "agg"
    assert main(["aggregate", *inputs, "--strategy", PFA, "--out-dir", str(out)]) == 2
    message = f"config error: inputs {inputs[0]} and {inputs[1]} would both write {out / 'best_client_0.agg.ckpt'}\n"
    _single_error_line(capsys, message)
    assert not out.exists()
    assert [Path(p).read_bytes() for p in inputs] == before


def test_aggregate_whose_output_is_an_input_exits_2_and_writes_nothing(tmp_path, capsys):
    # a FEDAVG global.ckpt aggregated again into its own directory was once overwritten
    out = tmp_path / "agg"
    out.mkdir()
    inputs = [str(out / "global.ckpt"), str(tmp_path / "b.ckpt")]
    for seed, path in enumerate(inputs):
        save_checkpoint(init_params(mlp_spec(8), seed), path, model_id="mlp8")
    before = [Path(p).read_bytes() for p in inputs]
    # the output is named through another spelling of the same directory
    other = tmp_path / "x" / ".." / "agg"
    assert main(["aggregate", *inputs, "--strategy", FEDAVG, "--out-dir", str(other)]) == 2
    message = f"config error: aggregate output {other / 'global.ckpt'} would overwrite input {inputs[0]}\n"
    _single_error_line(capsys, message)
    assert sorted(p.name for p in out.iterdir()) == ["global.ckpt"]
    assert [Path(p).read_bytes() for p in inputs] == before
