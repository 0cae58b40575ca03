import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedfreq.freq_agg import (
    FEDAVG,
    PFA,
    AggregationRequest,
    fedavg_aggregate,
    low_freq_mask,
    pfa_aggregate,
    pfa_fuse,
    reshape_conv,
    unreshape_conv,
)
from fedfreq.model import MODEL_SPECS, init_params
from fedfreq.numerics import AmpPhase, amp_phase, dft2, idft2, recompose
from fedfreq.orchestrator import ExperimentConfig
from helpers import direct_dft2, oracle_mask


# --- conv reshaping -----------------------------------------------------------


def test_reshape_single_kernel_is_identity():
    w = np.arange(4.0).reshape(1, 1, 2, 2)
    assert np.array_equal(reshape_conv(w), w[0, 0])


def test_reshape_dimensions():
    w = np.zeros((2, 3, 3, 3))
    assert reshape_conv(w).shape == (6, 9)


def test_reshape_index_mapping():
    w = np.zeros((2, 2, 2, 2))
    w[1, 0, 1, 0] = 7.0
    m = reshape_conv(w)
    assert m[3, 0] == 7.0  # row 1*2+1, col 0*2+0


def test_reshape_bijective_by_exhaustion():
    n, c, d1, d2 = 2, 2, 2, 2
    hits = set()
    for idx in np.ndindex(n, c, d1, d2):
        w = np.zeros((n, c, d1, d2))
        w[idx] = 1.0
        m = reshape_conv(w)
        cells = np.argwhere(m == 1.0)
        assert len(cells) == 1
        hits.add(tuple(cells[0]))
    assert len(hits) == n * c * d1 * d2


def test_unreshape_inverts_reshape():
    rng = np.random.default_rng(5)
    for _ in range(50):
        shape = tuple(int(rng.integers(1, 5)) for _ in range(4))
        w = rng.standard_normal(shape)
        assert np.array_equal(unreshape_conv(reshape_conv(w), shape), w)


def test_reshape_errors():
    with pytest.raises(ValueError):
        reshape_conv(np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        unreshape_conv(np.zeros((4, 4)), (2, 2, 2, 3))


def test_stacked_reshape_matches_per_kernel():
    rng = np.random.default_rng(15)
    for _ in range(20):
        kernel = tuple(int(rng.integers(1, 5)) for _ in range(4))
        stack = rng.standard_normal((int(rng.integers(1, 5)), *kernel))
        mats = reshape_conv(stack)
        assert np.array_equal(mats, np.stack([reshape_conv(w) for w in stack]))
        back = unreshape_conv(mats, kernel)
        assert np.array_equal(back, np.stack([unreshape_conv(m, kernel) for m in mats]))
        assert np.array_equal(back, stack)


# --- low-frequency mask ---------------------------------------------------------


def test_mask_4x4_quarter():
    mask = low_freq_mask(4, 4, 0.25)
    assert mask.sum() == 9
    # centered view shows a 3x3 block of ones around the middle
    assert np.array_equal(
        np.fft.fftshift(mask),
        np.array(
            [
                [False, False, False, False],
                [False, True, True, True],
                [False, True, True, True],
                [False, True, True, True],
            ]
        ),
    )


def test_mask_dc_only():
    mask = low_freq_mask(5, 5, 0.05)
    assert mask.sum() == 1
    assert mask[0, 0]


def test_mask_symmetric_under_negation():
    rng = np.random.default_rng(2)
    for _ in range(30):
        rows = int(rng.integers(1, 20))
        cols = int(rng.integers(1, 20))
        r = float(rng.uniform(0.01, 0.49))
        m = low_freq_mask(rows, cols, r)
        for i in range(rows):
            for j in range(cols):
                assert m[i, j] == m[(-i) % rows, (-j) % cols]


def test_mask_matches_oracle():
    rng = np.random.default_rng(9)
    for _ in range(25):
        rows = int(rng.integers(1, 24))
        cols = int(rng.integers(1, 24))
        r = float(rng.uniform(0.01, 0.49))
        assert np.array_equal(low_freq_mask(rows, cols, r), oracle_mask(rows, cols, r))


def test_mask_threshold_validation():
    for bad in (0.0, 0.5, -0.1, 0.9):
        with pytest.raises(ValueError):
            low_freq_mask(4, 4, bad)


# --- threshold schedule ---------------------------------------------------------


def test_schedule_endpoints_and_midpoint():
    cfg = ExperimentConfig(r0=0.35, r1=0.48, total_epochs=250)
    assert cfg.r(0) == 0.35
    assert cfg.r(250) == 0.48
    assert abs(cfg.r(125) - 0.415) < 1e-12


def test_schedule_monotone():
    cfg = ExperimentConfig(r0=0.35, r1=0.48, total_epochs=100)
    values = [cfg.r(t) for t in range(101)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_schedule_epoch_validation():
    cfg = ExperimentConfig(r0=0.35, r1=0.48, total_epochs=10)
    with pytest.raises(ValueError):
        cfg.r(11)
    with pytest.raises(ValueError):
        cfg.r(-1)


def test_schedule_params_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(r0=0.0, r1=0.4, total_epochs=10)
    with pytest.raises(ValueError):
        ExperimentConfig(r0=0.4, r1=0.3, total_epochs=10)
    with pytest.raises(ValueError):
        ExperimentConfig(r0=0.3, r1=0.5, total_epochs=10)


# --- plain averaging ------------------------------------------------------------


def _random_maps(rng, k):
    return [
        {
            "conv1.weight": rng.standard_normal((2, 1, 3, 3)),
            "dense1.weight": rng.standard_normal((6, 4)),
            "dense1.bias": rng.standard_normal(4),
        }
        for _ in range(k)
    ]


def test_fedavg_identity_on_identical_clients():
    rng = np.random.default_rng(0)
    base = _random_maps(rng, 1)[0]
    maps = [{k: v.copy() for k, v in base.items()} for _ in range(3)]
    merged = fedavg_aggregate(AggregationRequest(maps, strategy=FEDAVG))
    for k in base:
        assert np.allclose(merged[k], base[k], atol=1e-15)


def test_fedavg_two_client_mean():
    a = {"w": np.array([1.0, 2.0])}
    b = {"w": np.array([3.0, 6.0])}
    merged = fedavg_aggregate(AggregationRequest([a, b], strategy=FEDAVG))
    assert np.array_equal(merged["w"], np.array([2.0, 4.0]))


def test_fedavg_matches_elementwise_oracle():
    rng = np.random.default_rng(1)
    maps = _random_maps(rng, 3)
    merged = fedavg_aggregate(AggregationRequest(maps, strategy=FEDAVG))
    for key in maps[0]:
        expected = np.zeros_like(maps[0][key])
        for m in maps:
            expected = expected + m[key]
        expected /= len(maps)
        assert np.max(np.abs(merged[key] - expected)) < 1e-12


def test_fedavg_structural_mismatch():
    a = {"w": np.zeros(3)}
    b = {"w": np.zeros(4)}
    with pytest.raises(ValueError):
        fedavg_aggregate(AggregationRequest([a, b], strategy=FEDAVG))
    with pytest.raises(ValueError):
        fedavg_aggregate(AggregationRequest([a, {"v": np.zeros(3)}], strategy=FEDAVG))


def test_strategy_dispatch_guard():
    maps = [{"w": np.zeros(2)}]
    with pytest.raises(ValueError):
        fedavg_aggregate(AggregationRequest(maps, strategy=PFA))
    with pytest.raises(ValueError):
        pfa_aggregate(AggregationRequest(maps, strategy=FEDAVG))


# --- frequency-domain aggregation ------------------------------------------------


def test_pfa_identity_on_identical_clients():
    rng = np.random.default_rng(3)
    base = _random_maps(rng, 1)[0]
    maps = [{k: v.copy() for k, v in base.items()} for _ in range(4)]
    outputs = pfa_aggregate(AggregationRequest(maps, r=0.3, strategy=PFA))
    assert len(outputs) == 4
    for out in outputs:
        for k in base:
            assert np.max(np.abs(out[k] - base[k])) < 1e-8


def test_pfa_single_client_identity():
    rng = np.random.default_rng(4)
    maps = _random_maps(rng, 1)
    (out,) = pfa_aggregate(AggregationRequest(maps, r=0.25, strategy=PFA))
    for k in maps[0]:
        assert np.max(np.abs(out[k] - maps[0][k])) < 1e-8


def test_pfa_two_client_conv_against_direct_summation_oracle():
    rng = np.random.default_rng(6)
    r = 0.25
    tensors = [rng.standard_normal((1, 1, 4, 4)) for _ in range(2)]
    maps = [{"conv1.weight": t} for t in tensors]
    outputs = pfa_aggregate(AggregationRequest(maps, r=r, strategy=PFA))

    spectra = [direct_dft2(t[0, 0]) for t in tensors]
    amps = [np.abs(f) for f in spectra]
    mask = oracle_mask(4, 4, r)
    for i, out in enumerate(outputs):
        f_out = direct_dft2(out["conv1.weight"][0, 0])
        expected_amp = np.where(mask, (amps[0] + amps[1]) / 2.0, amps[i])
        assert np.max(np.abs(np.abs(f_out) - expected_amp)) < 1e-8
        # phases preserved wherever the amplitude is not negligible
        keep = np.abs(f_out) > 1e-9
        phase_diff = np.angle(f_out * np.conj(spectra[i]))
        assert np.max(np.abs(phase_diff[keep])) < 1e-7


def test_pfa_preserves_high_frequencies_and_phase_fc():
    rng = np.random.default_rng(8)
    r = 0.3
    mats = [rng.standard_normal((8, 6)) for _ in range(3)]
    maps = [{"dense1.weight": m} for m in mats]
    outputs = pfa_aggregate(AggregationRequest(maps, r=r, strategy=PFA))
    mask = oracle_mask(8, 6, r)
    mean_amp = np.mean([np.abs(direct_dft2(m)) for m in mats], axis=0)
    for i, out in enumerate(outputs):
        f_in = direct_dft2(mats[i])
        f_out = direct_dft2(out["dense1.weight"])
        assert np.max(np.abs(np.abs(f_out)[~mask] - np.abs(f_in)[~mask])) < 1e-8
        assert np.max(np.abs(np.abs(f_out)[mask] - mean_amp[mask])) < 1e-8
        keep = np.abs(f_out) > 1e-9
        assert np.max(np.abs(np.angle(f_out * np.conj(f_in))[keep])) < 1e-7


def test_pfa_averages_biases_elementwise():
    maps = [{"b": np.array([0.0, 2.0])}, {"b": np.array([4.0, 0.0])}]
    outputs = pfa_aggregate(AggregationRequest(maps, r=0.25, strategy=PFA))
    for out in outputs:
        assert np.array_equal(out["b"], np.array([2.0, 1.0]))


def test_pfa_idempotent_on_consensus():
    rng = np.random.default_rng(10)
    base = _random_maps(rng, 1)[0]
    maps = [{k: v.copy() for k, v in base.items()} for _ in range(3)]
    once = pfa_aggregate(AggregationRequest(maps, r=0.4, strategy=PFA))
    twice = pfa_aggregate(AggregationRequest(once, r=0.4, strategy=PFA))
    for a, b in zip(once, twice):
        for k in a:
            assert np.max(np.abs(a[k] - b[k])) < 1e-8


def test_pfa_commutes_with_client_order():
    # permuting the input maps permutes the outputs; the amplitude mean then
    # sums in another order, so equality holds to rounding, not bit for bit
    rng = np.random.default_rng(14)
    for _ in range(25):
        k = int(rng.integers(2, 6))
        conv = tuple(int(rng.integers(1, 5)) for _ in range(4))
        dense = (int(rng.integers(1, 12)), int(rng.integers(1, 12)))
        bias = int(rng.integers(1, 8))
        maps = [
            {
                "conv.weight": rng.standard_normal(conv),
                "fc.weight": rng.standard_normal(dense),
                "fc.bias": rng.standard_normal(bias),
            }
            for _ in range(k)
        ]
        r = float(rng.uniform(0.01, 0.49))
        perm = rng.permutation(k)
        if np.array_equal(perm, np.arange(k)):
            perm = perm[::-1]
        outputs = pfa_aggregate(AggregationRequest(maps, r=r, strategy=PFA))
        permuted = pfa_aggregate(AggregationRequest([maps[j] for j in perm], r=r, strategy=PFA))
        for i, j in enumerate(perm):
            for name in maps[0]:
                np.testing.assert_allclose(permuted[i][name], outputs[j][name], rtol=0, atol=1e-12)


# --- properties over K = 1..5 clients and both model specs ---------------------------


@st.composite
def _uploads(draw):
    """(maps, r): K random client maps of one model spec and a threshold.

    Each map also holds ``raw.weight``, a 2-D parameter of drawn shape, 1-12
    by 1-12: odd and even column counts, a Nyquist column, and the 1- and
    2-column matrices that no model has.
    """
    spec = MODEL_SPECS[draw(st.sampled_from(["mlp32", "conv4x8"]))]
    k = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-3, 0.5, 30.0]))
    shapes = {name: v.shape for name, v in init_params(spec, 0).items()}
    shapes["raw.weight"] = (draw(st.integers(1, 12)), draw(st.integers(1, 12)))
    maps = [{name: rng.normal(0.0, scale, shape) for name, shape in shapes.items()} for _ in range(k)]
    return maps, draw(st.floats(0.01, 0.49))


def _close(a, b, rel=1e-12):
    """Equal to ``rel`` relative to the larger tensor's largest entry."""
    return np.max(np.abs(a - b)) <= rel * max(np.max(np.abs(a)), np.max(np.abs(b)))


@settings(max_examples=40, deadline=None)
@given(uploads=_uploads(), data=st.data())
def test_pfa_permuting_the_clients_permutes_the_outputs(uploads, data):
    maps, r = uploads
    perm = data.draw(st.permutations(range(len(maps))))
    outputs = pfa_aggregate(AggregationRequest(maps, r=r, strategy=PFA))
    permuted = pfa_aggregate(AggregationRequest([maps[j] for j in perm], r=r, strategy=PFA))
    for i, j in enumerate(perm):  # the amplitude mean sums in another order: equal to rounding
        for name in maps[0]:
            assert _close(permuted[i][name], outputs[j][name]), (i, j, name)


@settings(max_examples=40, deadline=None)
@given(uploads=_uploads())
def test_pfa_of_identical_clients_returns_each_input(uploads):
    maps, r = uploads
    same = [maps[0]] * len(maps)
    for out in pfa_aggregate(AggregationRequest(same, r=r, strategy=PFA)):
        for name, v in maps[0].items():
            assert _close(out[name], v), name


@settings(max_examples=40, deadline=None)
@given(uploads=_uploads())
def test_pfa_outputs_are_real_finite_and_fuse_biases_as_fedavg(uploads):
    maps, r = uploads
    merged = fedavg_aggregate(AggregationRequest(maps, strategy=FEDAVG))
    for out in pfa_aggregate(AggregationRequest(maps, r=r, strategy=PFA)):
        for name, v in out.items():
            assert v.dtype == np.float64 and v.shape == maps[0][name].shape
            assert np.isfinite(v).all(), name
            if v.ndim == 1:
                assert np.array_equal(v, merged[name]), name


def _per_client_reference(maps, r):
    """PFA written client by client on 2-D ``rfft2`` half spectra, band entry by band entry.

    The band is the mask's first ``cols // 2 + 1`` columns.  A band entry F
    becomes ``F * (shared / |F|)``, or the real ``shared`` where ``|F|`` is 0;
    entries outside the band are kept.  ``irfft2`` inverts each half spectrum.
    """
    outputs = [{} for _ in maps]
    for name in maps[0]:
        tensors = [np.asarray(m[name], dtype=np.float64) for m in maps]
        conv = tensors[0].ndim == 4
        if tensors[0].ndim == 1:
            for out in outputs:
                out[name] = np.mean(tensors, axis=0)
            continue
        mats = [reshape_conv(t) if conv else t for t in tensors]
        rows, cols = mats[0].shape
        band = np.argwhere(low_freq_mask(rows, cols, r)[:, : cols // 2 + 1])
        spectra = [np.fft.rfft2(m) for m in mats]
        shared = np.mean([np.abs(f) for f in spectra], axis=0)
        for out, f in zip(outputs, spectra):
            moved = f.copy()
            for i, j in band:
                amp = np.abs(f[i, j])
                moved[i, j] = f[i, j] * (shared[i, j] / amp) if amp > 0 else shared[i, j]
            fused = np.fft.irfft2(moved, s=(rows, cols))
            out[name] = unreshape_conv(fused, tensors[0].shape) if conv else fused
    return outputs


@pytest.mark.parametrize("model_id", ["mlp32", "conv4x8"])
def test_pfa_stack_matches_per_client_reference_bit_for_bit(model_id):
    spec = MODEL_SPECS[model_id]
    maps = [init_params(spec, [seed, 1]) for seed in range(4)]
    for r in (0.05, 0.2, 0.35, 0.48):
        outputs = pfa_aggregate(AggregationRequest(maps, r=r, strategy=PFA))
        for out, ref in zip(outputs, _per_client_reference(maps, r)):
            assert sorted(out) == sorted(ref)
            for name in ref:
                assert np.array_equal(out[name], ref[name]), (model_id, r, name)


@settings(max_examples=40, deadline=None)
@given(uploads=_uploads())
def test_pfa_matches_the_polar_definition(uploads):
    # the fused spectrum is the band's mean amplitude, or the client's own
    # amplitude outside it, under the client's own phase: equal to rounding
    maps, r = uploads
    outputs = pfa_aggregate(AggregationRequest(maps, r=r, strategy=PFA))
    for name, v in maps[0].items():
        if v.ndim == 1:
            continue
        conv = v.ndim == 4
        mats = [reshape_conv(m[name]) if conv else m[name] for m in maps]
        mask = low_freq_mask(*mats[0].shape, r)
        spectra = [amp_phase(dft2(m)) for m in mats]
        mean_amp = np.mean([s.amplitude for s in spectra], axis=0)
        for out, s in zip(outputs, spectra):
            expected, _ = idft2(recompose(AmpPhase(np.where(mask, mean_amp, s.amplitude), s.phase)))
            got = reshape_conv(out[name]) if conv else out[name]
            assert _close(got, expected), name


@pytest.mark.parametrize("model_id", ["mlp32", "conv4x8"])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_pfa_gives_an_all_zero_client_the_shared_amplitude_without_warnings(model_id, k):
    # a zero spectrum entry has phase 0, so the client receives the real shared amplitude
    spec = MODEL_SPECS[model_id]
    maps = [init_params(spec, [seed, 2]) for seed in range(k)]
    maps[0] = {name: np.zeros_like(v) for name, v in maps[0].items()}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for r in (0.05, 0.35, 0.48):
            outputs = pfa_aggregate(AggregationRequest(maps, r=r, strategy=PFA))
            for out in outputs:
                assert all(np.isfinite(v).all() for v in out.values())
            for name, v in maps[0].items():
                if v.ndim == 1:
                    continue
                conv = v.ndim == 4
                mats = [reshape_conv(m[name]) if conv else m[name] for m in maps]
                mask = low_freq_mask(*mats[0].shape, r)
                mean_amp = np.mean([np.abs(dft2(m)) for m in mats], axis=0)
                got = dft2(reshape_conv(outputs[0][name]) if conv else outputs[0][name])
                assert _close(got, np.where(mask, mean_amp, 0.0), rel=1e-9), (r, name)


def test_pfa_keeps_a_subnormal_client_finite_without_warnings():
    # shared / |F| overflows for a subnormal |F|: the entry takes its unit phasor times shared
    rng = np.random.default_rng(0)
    mats = [rng.normal(size=(8, 6)) for _ in range(3)]
    mats[1] = mats[1] * 1e-310
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        outputs = pfa_aggregate(AggregationRequest([{"w": m} for m in mats], r=0.4, strategy=PFA))
    mask = low_freq_mask(8, 6, 0.4)
    spectra = [amp_phase(dft2(m)) for m in mats]
    mean_amp = np.mean([s.amplitude for s in spectra], axis=0)
    for out, s in zip(outputs, spectra):
        assert np.isfinite(out["w"]).all()
        expected, _ = idft2(recompose(AmpPhase(np.where(mask, mean_amp, s.amplitude), s.phase)))
        assert _close(out["w"], expected)


def test_pfa_outputs_are_real_float():
    rng = np.random.default_rng(12)
    maps = _random_maps(rng, 3)
    for out in pfa_aggregate(AggregationRequest(maps, r=0.45, strategy=PFA)):
        for v in out.values():
            assert v.dtype == np.float64


@pytest.mark.parametrize("entry", [np.nan, -np.inf, 1j])
def test_pfa_checks_its_input_as_dft2_does(entry):
    stack = np.ones((2, 4, 3), dtype=np.result_type(entry))
    stack[1, 2, 0] = entry
    with pytest.raises(ValueError) as expected:
        dft2(stack)
    with pytest.raises(ValueError, match=re.escape(str(expected.value))):
        pfa_fuse({"w": stack}, 0.3)


def test_pfa_validation():
    rng = np.random.default_rng(13)
    maps = _random_maps(rng, 2)
    with pytest.raises(ValueError):
        pfa_aggregate(AggregationRequest(maps, r=0.6, strategy=PFA))
    with pytest.raises(ValueError):
        pfa_aggregate(AggregationRequest([], r=0.3, strategy=PFA))
    bad = [maps[0], {k: v[..., :1] for k, v in maps[1].items()}]
    with pytest.raises(ValueError):
        pfa_aggregate(AggregationRequest(bad, r=0.3, strategy=PFA))
