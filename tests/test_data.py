import numpy as np
import pytest

from fedfreq.checkpoint import save_checkpoint
from fedfreq.data import (
    CLASSES,
    DATASET_ID,
    SPLIT_NAMES,
    ClientProfile,
    DataError,
    default_profiles,
    load_client,
    ood_client,
    ood_profile,
    save_client,
    synth,
)
from pins import clients_digest


def test_default_profiles_full_scale_totals():
    totals = [p.n_samples for p in default_profiles(1.0)]
    assert totals == [2987, 3868, 1635, 2000]


def test_default_profiles_desk_scale_totals():
    totals = [p.n_samples for p in default_profiles(0.1)]
    assert totals == [299, 387, 164, 200]  # round-half-up


def test_default_profiles_class_ratios():
    b = default_profiles(1.0)[1]
    assert abs(b.class_proportions[0] - 0.9617) < 1e-4
    assert abs(b.class_proportions[1] - 0.0321) < 1e-4
    assert abs(b.class_proportions[2] - 0.0062) < 1e-4
    for p in default_profiles(0.3):
        assert abs(sum(p.class_proportions) - 1.0) < 1e-9


def test_default_profiles_distinct_transforms():
    rotations = [p.rotation_deg for p in default_profiles(0.1)]
    assert rotations == [0.0, 25.0, 50.0, 75.0]


def test_default_profiles_scale_validation():
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(DataError):
            default_profiles(bad)
    with pytest.raises(DataError):
        default_profiles(0.01)  # client C would get 16 samples


def test_profile_validation():
    with pytest.raises(DataError):
        ClientProfile(20, (0.5, 0.3, 0.2), 0.0, 1.0, (0.0, 0.0), 0)
    with pytest.raises(DataError):
        ClientProfile(100, (0.6, 0.3, 0.2), 0.0, 1.0, (0.0, 0.0), 0)


def test_synth_deterministic():
    profiles = default_profiles(0.1)
    a = synth(profiles, 7)
    b = synth(profiles, 7)
    for ca, cb in zip(a.clients, b.clients):
        assert np.array_equal(ca.features, cb.features)
        assert np.array_equal(ca.labels, cb.labels)
        assert ca.splits == cb.splits


def test_the_desk_scale_data_keeps_its_pinned_bytes(pinned):
    profiles = default_profiles(0.1)
    clients = [*synth(profiles, 7).clients, ood_client(profiles, 7)]
    pinned.check({"synth scale=0.1 seed=7 with the ood client": clients_digest(clients)})


def test_split_sizes_for_200_samples():
    client = synth(default_profiles(0.1), 0).clients[3]  # 200 samples
    assert client.splits == (140, 20, 40)
    assert [len(client.split_xy(name)[1]) for name in SPLIT_NAMES] == [140, 20, 40]


def test_splits_disjoint_and_exhaustive():
    for client in synth(default_profiles(0.1), 3).clients:
        # the split blocks tile the rows, in order, as views, and no drawn row appears twice
        blocks = [client.split_xy(name) for name in SPLIT_NAMES]
        assert sum(client.splits) == len(client.labels) == len(client.features)
        assert np.array_equal(np.concatenate([x for x, _ in blocks]), client.features)
        assert np.array_equal(np.concatenate([y for _, y in blocks]), client.labels)
        assert all(np.shares_memory(x, client.features) for x, y in blocks if len(y))
        assert len(np.unique(client.features, axis=0)) == len(client.labels)


def test_stratification_within_one_of_ideal():
    rng = np.random.default_rng(0)
    for trial in range(30):
        props = rng.dirichlet(np.ones(3) * rng.uniform(0.5, 4.0))
        props = props / props.sum()
        profile = ClientProfile(
            int(rng.integers(40, 500)), tuple(props), 0.0, 1.0, (0.0, 0.0), trial
        )
        client = synth([profile], 11).clients[0]
        for name, ratio in zip(SPLIT_NAMES, (0.7, 0.1, 0.2)):
            got = np.bincount(client.split_xy(name)[1], minlength=3)
            for c in range(3):
                ideal = np.count_nonzero(client.labels == c) * ratio
                assert abs(got[c] - ideal) <= 1.0


def test_split_ratio_totals_largest_remainder():
    rng = np.random.default_rng(1)
    for trial in range(20):
        n = int(rng.integers(40, 400))
        profile = ClientProfile(n, (0.5, 0.3, 0.2), 0.0, 1.0, (0.0, 0.0), trial)
        client = synth([profile], 5).clients[0]
        ideal = [0.7 * n, 0.1 * n, 0.2 * n]
        assert sum(client.splits) == n
        for size, want in zip(client.splits, ideal):
            assert abs(size - want) < 1.0
    # the smallest client a profile allows still trains on 21 rows
    smallest = ClientProfile(30, (0.5, 0.3, 0.2), 0.0, 1.0, (0.0, 0.0), 0)
    assert synth([smallest], 5).clients[0].splits == (21, 3, 6)


def test_seed_isolation():
    profiles = default_profiles(0.1)
    base = synth(profiles, 9)
    tweaked_profiles = default_profiles(0.1)
    object.__setattr__(tweaked_profiles[2], "seed", 77)
    tweaked = synth(tweaked_profiles, 9)
    for i in (0, 1, 3):
        assert np.array_equal(base.clients[i].features, tweaked.clients[i].features)
    assert not np.array_equal(base.clients[2].features, tweaked.clients[2].features)


def test_heterogeneity_hurts_cross_client_transfer():
    # nearest-centroid is a linear classifier; train on one client, test on
    # a client with a different transform
    wins = 0
    for seed in range(5):
        base = default_profiles(0.2)
        src, dst = base[0], base[2]  # rotations 0 vs 50, gains 1.0 vs 0.7
        object.__setattr__(dst, "seed", src.seed)
        ds = synth([src, dst], seed)
        a, b = ds.clients

        x, y = a.split_xy("train")
        centroids = np.stack([x[y == c].mean(axis=0) for c in range(CLASSES)])

        def predict(features):
            d = ((features[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
            return d.argmin(axis=1)

        ax, ay = a.split_xy("test")
        bx, by = b.split_xy("test")
        own = np.mean(predict(ax) == ay)
        cross = np.mean(predict(bx) == by)
        wins += own > cross
    assert wins >= 4


def test_ood_profile_outside_training_range():
    profiles = default_profiles(0.1)
    ood = ood_profile(profiles)
    assert ood.rotation_deg == 110.0
    assert all(ood.rotation_deg > p.rotation_deg for p in profiles)
    assert ood.n_samples == 43  # round-half-up of 0.1 * 427


def test_ood_client_is_evaluation_only():
    profiles = default_profiles(0.1)
    client = ood_client(profiles, 4)
    assert client.splits == (0, 0, len(client.labels))
    assert len(client.split_xy("train")[1]) == len(client.split_xy("val")[1]) == 0
    test_x, test_y = client.split_xy("test")
    assert np.array_equal(test_x, client.features)
    assert np.array_equal(test_y, client.labels)


def test_ood_client_deterministic():
    profiles = default_profiles(0.1)
    a = ood_client(profiles, 4)
    b = ood_client(profiles, 4)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


# --- dataset files ---------------------------------------------------------------


@pytest.mark.parametrize("scale", [0.05, 0.1, 1.0])
def test_every_field_of_a_client_survives_its_dataset_file(tmp_path, scale):
    profiles = default_profiles(scale)
    for i, client in enumerate([*synth(profiles, 6).clients, ood_client(profiles, 6)]):
        path = tmp_path / f"client_{i}.fsd"
        save_client(client, path)
        loaded = load_client(path)
        assert np.array_equal(loaded.features, client.features)
        assert np.array_equal(loaded.labels, client.labels)
        assert loaded.splits == client.splits
        for split in SPLIT_NAMES:
            for got, want in zip(loaded.split_xy(split), client.split_xy(split)):
                assert np.array_equal(got, want)


def test_dataset_file_bad_magic(tmp_path):
    path = tmp_path / "bad.fsd"
    path.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(DataError):
        load_client(path)


def test_dataset_file_truncated(tmp_path):
    client = synth(default_profiles(0.1), 2).clients[0]
    path = tmp_path / "client.fsd"
    save_client(client, path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(DataError):
        load_client(path)


def test_a_flipped_byte_in_a_dataset_file_is_a_data_error(tmp_path):
    # the old codec had no checksum and scored a file with a flipped feature byte
    client = synth(default_profiles(0.1), 2).clients[0]
    path = tmp_path / "client.fsd"
    save_client(client, path)
    raw = path.read_bytes()
    second_label = raw.index(b"labels") + len("labels") + 8 + 8  # past the rank, the dim and one value
    for where in (1, len(raw) // 3, second_label):  # the format version, a feature, a label
        flipped = bytearray(raw)
        flipped[where] ^= 0x01
        path.write_bytes(bytes(flipped))
        with pytest.raises(DataError, match="checksum mismatch"):
            load_client(path)


_DATASET = {"features": np.zeros((4, 2)), "labels": np.zeros(4), "splits": np.array([2, 1, 1])}


@pytest.mark.parametrize(
    "model_id, edit, problem",
    [
        ("mlp32", {}, "not a dataset file"),
        (DATASET_ID, {"extra": np.zeros(1)}, "not a dataset file"),
        (DATASET_ID, {"labels": np.zeros(3)}, "misshapen dataset file"),
        (DATASET_ID, {"splits": np.array([2, 1, 2])}, "do not partition 4 rows"),
        (DATASET_ID, {"splits": np.array([2.5, 0.5, 1])}, "do not partition 4 rows"),
        (DATASET_ID, {"splits": np.array([np.nan, 1, 1])}, "do not partition 4 rows"),
        (DATASET_ID, {"labels": np.array([0, 1, 1.5, 2])}, r"label 1.5 outside \[0, 3\)"),
    ],
    ids=["model_id", "extra_tensor", "row_counts", "split_sum", "fractional_split", "nan_split", "fractional_label"],
)
def test_a_checkpoint_that_is_not_a_dataset_is_a_data_error(tmp_path, model_id, edit, problem):
    path = tmp_path / "client.fsd"
    save_checkpoint({**_DATASET, **edit}, path, model_id=model_id)
    with pytest.raises(DataError, match=problem):
        load_client(path)
