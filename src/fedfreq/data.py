"""Synthetic heterogeneous clients for federated experiments.

Each client draws class-conditional Gaussian features and passes them
through a client-specific affine transform (plane rotation, one gain, a
mean shift in the two noise dims).  The default profiles copy the size and
class-ratio structure of a 4-site, 3-class benchmark (totals 2987 / 3868 /
1635 / 2000, scaled down) so one site is heavily imbalanced and sites
differ in volume.

Feature layout (``FEATURE_DIM = 32``):

- dims 0..1: one strong signal plane that the client rotation acts on, so
  this part of the class structure is *client-specific*;
- dims 2..29: fourteen weak signal planes outside the rotation, *shared*
  across clients.  No client has enough samples to estimate this thin
  structure well on its own, which is the channel along which federation
  can actually help;
- dims 30..31: zero-mean noise where the client mean shift lives.

Class means sit 120 degrees apart in every signal plane, so a rotation by
120 degrees would alias one class onto the next; training clients span
0..75 degrees and the out-of-distribution client sits at 110 degrees.
Client gains and shifts spread widely (0.7x..1.7x, offsets up to 6), which
is what makes element-wise parameter averaging miscalibrated per client.

Splits are 7:1:2 (largest-remainder on the totals) and stratified so that
every per-split class count is within one sample of exact proportionality.

A client in memory is its dataset file: ``features`` (n, d) and ``labels``
(n,) with the rows stored split by split, train block first, and
``splits``, the train, val and test row counts.  A dataset file is a
checkpoint file with model id ``DATASET_ID`` and these three tensors, and
``ClientData.split_xy`` returns one split's rows as views.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .checkpoint import DataError, load_checkpoint_full, save_checkpoint

FEATURE_DIM = 32
CLASSES = 3

SIGNAL_ROT = 0.8  # class-mean radius in the rotated plane (dims 0..1)
SIGNAL_SHARED = 0.25  # class-mean radius in each shared plane
N_SHARED_PLANES = 14  # shared planes occupy dims 2 .. 2*(N+1)-1
NOISE_SIGMA = 1.0

SPLIT_RATIOS = (0.7, 0.1, 0.2)
SPLIT_NAMES = ("train", "val", "test")

# per-class totals of the reference 4-site benchmark
TABLE_COUNTS = (
    (1832, 475, 680),
    (3720, 124, 24),
    (803, 490, 342),
    (1372, 254, 374),
)

# client transforms: (rotation deg, global gain, shift magnitude, shift angle);
# the shift vector lives in the trailing noise dims
DEFAULT_TRANSFORMS = (
    (0.0, 1.00, 0.0, 0.0),
    (25.0, 1.40, 2.0, 90.0),
    (50.0, 0.70, 4.0, 180.0),
    (75.0, 1.70, 6.0, 270.0),
)
OOD_TRANSFORM = (110.0, 1.05, 2.0, 45.0)
OOD_REFERENCE_COUNT = 427  # unseen-cohort size at scale 1.0

DATASET_ID = "fedfreq-dataset"  # the model id of a dataset file
_DATASET_TENSORS = ["features", "labels", "splits"]


@dataclass(frozen=True)
class ClientProfile:
    """Generator settings for one client's data: dims 0..1 rotate by ``rotation_deg``,
    every dim is multiplied by ``gain``, and ``shift`` is added to the noise dims 30..31."""

    n_samples: int
    class_proportions: tuple[float, float, float]
    rotation_deg: float
    gain: float
    shift: tuple[float, float]
    seed: int

    def __post_init__(self) -> None:
        if self.n_samples < 30:
            raise DataError(f"client needs >= 30 samples, got {self.n_samples}")
        if abs(sum(self.class_proportions) - 1.0) > 1e-9:
            raise DataError("class proportions must sum to 1")
        if any(p < 0 for p in self.class_proportions):
            raise DataError("class proportions must be non-negative")


@dataclass
class ClientData:
    """One client's rows in the layout of its dataset file: ``features`` and ``labels`` stored
    split by split, train block first, and ``splits``, the train, val and test row counts."""

    features: np.ndarray
    labels: np.ndarray
    splits: tuple[int, int, int]

    def split_xy(self, split: str) -> tuple[np.ndarray, np.ndarray]:
        """The rows of split ``"train"``, ``"val"`` or ``"test"`` as ``(features, labels)`` views."""
        s = SPLIT_NAMES.index(split)
        rows = slice(sum(self.splits[:s]), sum(self.splits[: s + 1]))
        return self.features[rows], self.labels[rows]


@dataclass
class FederatedDataset:
    clients: list[ClientData]


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def _largest_remainder(total: int, weights: tuple[float, ...]) -> list[int]:
    """Integer allocation of ``total`` by weights; ties go to earlier entries."""
    ideal = [total * w for w in weights]
    alloc = [int(np.floor(v)) for v in ideal]
    order = sorted(range(len(weights)), key=lambda i: (-(ideal[i] - alloc[i]), i))
    for i in order[: total - sum(alloc)]:
        alloc[i] += 1
    return alloc


def _profile(n_samples: int, class_proportions, transform, seed: int) -> ClientProfile:
    """The profile of one transform row: (rotation deg, gain, shift magnitude, shift angle)."""
    rotation, gain, shift_mag, shift_deg = transform
    theta = np.deg2rad(shift_deg)
    shift = (shift_mag * float(np.cos(theta)), shift_mag * float(np.sin(theta)))
    return ClientProfile(n_samples, class_proportions, rotation, gain, shift, seed)


def check_scale(scale: float, name: str = "scale", error: type = DataError) -> None:
    """Raises ``error``, naming the value ``name``, unless ``scale`` lies in (0, 1]."""
    if not 0.0 < scale <= 1.0:
        raise error(f"{name} must lie in (0, 1], got {scale}")


def default_profiles(scale: float) -> list[ClientProfile]:
    """Four clients mirroring the reference benchmark, scaled by ``scale``.

    Sample counts are round-half-up of ``scale`` times the reference totals;
    class proportions keep the reference ratios.  Raises DataError when the
    scale is outside (0, 1] or any scaled count drops below 30.
    """
    check_scale(scale)
    profiles = []
    for i, counts in enumerate(TABLE_COUNTS):
        total = sum(counts)
        n = _round_half_up(scale * total)
        if n < 30:
            raise DataError(f"scale {scale} gives client {i} only {n} samples (< 30)")
        profiles.append(_profile(n, tuple(c / total for c in counts), DEFAULT_TRANSFORMS[i], i))
    return profiles


def class_means() -> np.ndarray:
    """Pre-transform class means: 120-degree layout in each signal plane."""
    means = np.zeros((CLASSES, FEATURE_DIM))
    planes = [(0, SIGNAL_ROT)] + [
        (2 * (i + 1), SIGNAL_SHARED) for i in range(N_SHARED_PLANES)
    ]
    for c in range(CLASSES):
        angle = 2.0 * np.pi * c / CLASSES
        for plane, radius in planes:
            means[c, plane] = radius * np.cos(angle)
            means[c, plane + 1] = radius * np.sin(angle)
    return means


def _rotation_matrix(deg: float) -> np.ndarray:
    rot = np.eye(FEATURE_DIM)
    t = np.deg2rad(deg)
    block = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
    rot[0:2, 0:2] = block  # only the client-specific plane rotates
    return rot


def _stratified_split(class_counts: list[int], total: int) -> list[list[int]]:
    """Allocation matrix [class][split] with exact 7:1:2 split totals.

    Every cell is floor(ideal) or floor(ideal)+1 and both margins are met
    exactly; among valid roundings the one keeping the most fractional mass
    is chosen (deterministic tie-break by enumeration order).
    """
    quotas = _largest_remainder(total, SPLIT_RATIOS)
    ideal = [[c * r for r in SPLIT_RATIOS] for c in class_counts]
    base = [[int(np.floor(v)) for v in row] for row in ideal]
    row_def = [class_counts[c] - sum(base[c]) for c in range(len(class_counts))]
    col_def = [quotas[s] - sum(base[c][s] for c in range(len(class_counts))) for s in range(3)]
    # enumerate the +1 cells per class; margins are small so this is tiny
    options = [list(combinations(range(3), row_def[c])) for c in range(len(class_counts))]
    best, best_mass = None, -1.0
    for choice in product(*options):
        fill = [0, 0, 0]
        for cells in choice:
            for s in cells:
                fill[s] += 1
        if fill != col_def:
            continue
        mass = sum(ideal[c][s] - base[c][s] for c, cells in enumerate(choice) for s in cells)
        if mass > best_mass + 1e-12:
            best, best_mass = choice, mass
    if best is None:
        raise DataError("infeasible stratified split")  # cannot happen with consistent margins
    return [
        [base[c][s] + (1 if s in best[c] else 0) for s in range(3)]
        for c in range(len(class_counts))
    ]


def _draw(profile: ClientProfile, global_seed: int) -> tuple[np.ndarray, np.ndarray]:
    """A profile's ``(features, labels)`` rows in drawing order."""
    rng = np.random.default_rng([int(global_seed), int(profile.seed)])
    counts = _largest_remainder(profile.n_samples, profile.class_proportions)
    labels = np.repeat(np.arange(CLASSES), counts)
    z = rng.standard_normal((profile.n_samples, FEATURE_DIM))
    z *= NOISE_SIGMA  # in place: the same bits as class_means()[labels] + NOISE_SIGMA * noise
    z += class_means()[labels]
    x = z @ _rotation_matrix(profile.rotation_deg).T
    del z
    x *= profile.gain
    x[:, -2:] += profile.shift
    perm = rng.permutation(profile.n_samples)
    return x[perm], labels[perm]


def _generate_client(profile: ClientProfile, global_seed: int) -> ClientData:
    """Each class's first rows go to train, the next to val, the rest to test; every split
    keeps the drawing order."""
    x, labels = _draw(profile, global_seed)
    alloc = _stratified_split(np.bincount(labels, minlength=CLASSES).tolist(), profile.n_samples)
    split_of = np.empty(len(labels), dtype=np.int64)
    for c in range(CLASSES):
        split_of[labels == c] = np.repeat(np.arange(len(SPLIT_NAMES)), alloc[c])
    order = np.argsort(split_of, kind="stable")
    return ClientData(x[order], labels[order], tuple(np.sum(alloc, axis=0).tolist()))


def synth(profiles: list[ClientProfile], global_seed: int) -> FederatedDataset:
    """Generate all client datasets; deterministic in (profiles, seed).

    Each client uses its own RNG stream keyed by (global_seed, profile.seed),
    so one client's data never depends on another's profile.
    """
    return FederatedDataset(clients=[_generate_client(p, global_seed) for p in profiles])


def ood_profile(profiles: list[ClientProfile]) -> ClientProfile:
    """Held-out evaluation profile with a rotation outside the training range."""
    scale = sum(p.n_samples for p in profiles) / sum(sum(c) for c in TABLE_COUNTS[: len(profiles)])
    pooled = np.sum(TABLE_COUNTS, axis=0)
    return _profile(
        max(30, _round_half_up(scale * OOD_REFERENCE_COUNT)),
        tuple(float(c) / float(pooled.sum()) for c in pooled),
        OOD_TRANSFORM,
        9999,
    )


def ood_client(profiles: list[ClientProfile], seed: int) -> ClientData:
    """Out-of-distribution client used only for evaluation (everything is test)."""
    x, labels = _draw(ood_profile(profiles), seed)
    return ClientData(x, labels, (0, 0, len(labels)))


def save_client(client: ClientData, path) -> None:
    """Write ``client`` as a dataset file (see the module docstring)."""
    tensors = {"features": client.features, "labels": client.labels, "splits": np.array(client.splits)}
    save_checkpoint(tensors, path, model_id=DATASET_ID)


def load_client(path) -> ClientData:
    """Read a dataset file; DataError if it fails the checksum, is not a dataset file or is misshapen."""
    _, model_id, tensors = load_checkpoint_full(path)
    if model_id != DATASET_ID or sorted(tensors) != _DATASET_TENSORS:
        raise DataError(f"{path}: not a dataset file")
    features, labels, splits = (tensors[name] for name in _DATASET_TENSORS)
    if features.ndim != 2 or labels.shape != features.shape[:1] or splits.shape != (3,):
        shapes = f"features {features.shape}, labels {labels.shape}, splits {splits.shape}"
        raise DataError(f"{path}: misshapen dataset file ({shapes})")
    counts = splits.tolist()  # Python floats: a NaN or an infinity fails below without a warning
    if any(c < 0 or c % 1 for c in counts) or sum(counts) != len(labels):
        raise DataError(f"{path}: split row counts {counts} do not partition {len(labels)} rows")
    bad = labels[~np.isin(labels, range(CLASSES))]
    if bad.size:
        raise DataError(f"{path}: label {bad[0]:g} outside [0, {CLASSES})")
    return ClientData(features, labels.astype(np.int64), tuple(int(c) for c in counts))
