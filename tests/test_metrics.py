import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedfreq.metrics import (
    PaddedLabels,
    _average_ranks,
    confusion_matrix,
    evaluate,
    macro_auc,
    macro_f1,
    per_class_prf,
)
from helpers import brute_force_auc, brute_force_f1


# --- macro F1 -------------------------------------------------------------------


def test_macro_f1_perfect():
    labels = np.array([0, 1, 2, 0, 1, 2])
    assert macro_f1(labels, labels, 3) == 1.0


def test_macro_f1_hand_computed_case():
    labels = np.array([0, 0, 1, 1, 2, 2])
    preds = np.array([0, 0, 1, 1, 0, 1])
    # confusion by hand (rows true, cols pred): [[2,0,0],[0,2,0],[1,1,0]]
    # class0: P=2/3, R=1, F1=0.8; class1: P=2/3, R=1, F1=0.8; class2: F1=0
    assert abs(macro_f1(preds, labels, 3) - (0.8 + 0.8 + 0.0) / 3.0) < 1e-12
    assert macro_f1(preds, labels, 3) == brute_force_f1(preds, labels, 3)


def test_macro_f1_single_class_collapse():
    labels = np.array([0, 1, 2] * 4)
    preds = np.zeros(12, dtype=int)
    # only class 0 scores: P=1/3, R=1 -> F1=0.5; macro = 1/6
    assert abs(macro_f1(preds, labels, 3) - 1.0 / 6.0) < 1e-12


def test_macro_f1_absent_class_contributes_zero():
    labels = np.array([0, 0, 1, 1])
    preds = np.array([0, 0, 1, 1])
    assert abs(macro_f1(preds, labels, 3) - 2.0 / 3.0) < 1e-12


def test_macro_f1_validation():
    with pytest.raises(ValueError):
        macro_f1(np.array([0, 1]), np.array([0]), 3)
    with pytest.raises(ValueError):
        macro_f1(np.array([0, 3]), np.array([0, 1]), 3)
    with pytest.raises(ValueError):
        macro_f1(np.array([], dtype=int), np.array([], dtype=int), 3)


def test_macro_f1_matches_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(300):
        n = int(rng.integers(1, 40))
        labels = rng.integers(0, 3, size=n)
        preds = rng.integers(0, 3, size=n)
        assert macro_f1(preds, labels, 3) == brute_force_f1(preds, labels, 3)


# --- padded label rows: every confusion matrix --------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    counts=st.lists(st.integers(1, 40), min_size=1, max_size=6),
    classes=st.integers(2, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_padded_macro_f1_is_brute_force_f1_of_every_row(counts, classes, seed):
    rng = np.random.default_rng(seed)
    n = max(counts)
    # padding holds values no scored entry may take: it must not reach any matrix
    preds = rng.integers(-3, classes + 3, size=(len(counts), n))
    labels = rng.integers(-3, classes + 3, size=(len(counts), n))
    for j, c in enumerate(counts):
        # a row may lack some classes entirely, in its labels or its predictions
        present = rng.choice(classes, size=int(rng.integers(1, classes + 1)), replace=False)
        labels[j, :c] = rng.choice(present, size=c)
        preds[j, :c] = rng.integers(0, classes, size=c)
    rows = PaddedLabels(labels, counts)
    got = rows.macro_f1(preds, classes)
    assert got.shape == (len(counts),)
    for j, c in enumerate(counts):
        assert got[j] == brute_force_f1(preds[j, :c], labels[j, :c], classes), j
    # two models on the same rows: one stack of matrices, model-major
    both = rows.confusion(np.stack([preds, labels]), classes)
    assert both.shape == (2, len(counts), classes, classes)
    assert np.array_equal(both[0], rows.confusion(preds, classes))
    for j, c in enumerate(counts):
        assert np.trace(both[1, j]) == c, j  # labels predicting themselves


def test_per_class_prf_of_a_stack_is_per_class_prf_of_each_matrix():
    cms = np.random.default_rng(6).integers(0, 4, size=(5, 3, 3))
    cms[2, :, 1] = 0  # a class never predicted
    stacked = per_class_prf(cms)
    for j, cm in enumerate(cms):
        for got, want in zip(stacked, per_class_prf(cm)):
            assert np.array_equal(got[j], want)


def test_padded_labels_validation():
    preds = labels = np.zeros((2, 4), dtype=int)
    with pytest.raises(ValueError, match="between 1 and n"):
        PaddedLabels(labels, [4, 0])  # an empty row
    with pytest.raises(ValueError, match="between 1 and n"):
        PaddedLabels(labels, [4, 5])  # more entries than the row holds
    with pytest.raises(ValueError, match="K counts"):
        PaddedLabels(labels, [4])
    with pytest.raises(ValueError, match="do not end in"):
        PaddedLabels(labels, [4, 4]).macro_f1(preds[:1], 3)
    bad = labels.copy()
    bad[1, 2] = 3
    with pytest.raises(ValueError, match="label out of class range"):
        PaddedLabels(bad, [4, 4]).macro_f1(preds, 3)
    assert PaddedLabels(bad, [4, 2]).macro_f1(preds, 3).shape == (2,)  # the bad entry is padding
    with pytest.raises(ValueError, match="prediction out of class range"):
        PaddedLabels(labels, [4, 4]).macro_f1(bad, 3)
    assert PaddedLabels(labels, [4, 2]).macro_f1(bad, 3).shape == (2,)


# --- macro AUC ------------------------------------------------------------------


def test_macro_auc_perfect_separation():
    labels = np.array([0, 0, 1, 1, 2, 2])
    scores = np.eye(3)[labels] * 0.8 + 0.1
    assert abs(macro_auc(scores, labels, 3) - 1.0) < 1e-12


def test_macro_auc_constant_scores():
    labels = np.array([0, 1, 2, 0, 1, 2])
    scores = np.full((6, 3), 1.0 / 3.0)
    assert abs(macro_auc(scores, labels, 3) - 0.5) < 1e-12


def test_macro_auc_pairwise_example():
    # positives scored (0.9, 0.4), negatives (0.6, 0.1): 3 wins of 4 pairs
    labels = np.array([0, 0, 1, 1])
    scores = np.zeros((4, 2))
    scores[:, 0] = [0.9, 0.4, 0.6, 0.1]
    scores[:, 1] = 1.0 - scores[:, 0]
    aucs = macro_auc(scores, labels, 2)
    assert abs(aucs - 0.75) < 1e-12


def test_macro_auc_skips_degenerate_classes():
    labels = np.array([0, 0, 1])
    scores = np.array([[0.9, 0.1, 0.0], [0.8, 0.2, 0.0], [0.2, 0.8, 0.0]])
    # class 2 has no positives and is skipped; the others are separable
    assert abs(macro_auc(scores, labels, 3) - 1.0) < 1e-12


def test_macro_auc_undefined_when_all_skipped():
    labels = np.zeros(4, dtype=int)
    with pytest.raises(ValueError):
        macro_auc(np.random.default_rng(0).random((4, 3)), labels, 3)


def test_macro_auc_matches_brute_force():
    rng = np.random.default_rng(1)
    for _ in range(300):
        n = int(rng.integers(2, 30))
        labels = rng.integers(0, 3, size=n)
        scores = rng.random((n, 3))
        if rng.random() < 0.3:
            scores = np.round(scores, 1)  # force ties
        try:
            expected = brute_force_auc(scores, labels, 3)
        except ValueError:
            with pytest.raises(ValueError):
                macro_auc(scores, labels, 3)
            continue
        assert abs(macro_auc(scores, labels, 3) - expected) < 1e-12


def walked_ranks(values):
    """Tie-averaged 1-based ranks by a walk over the sorted values; each NaN, sorted last, stands alone."""
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(len(values))
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([0.0, -0.0, 0.5, 1.0, np.inf, np.nan]) | st.floats(), max_size=60))
def test_average_ranks_equal_the_sorted_walk_bit_for_bit(values):
    values = np.array(values, dtype=np.float64)
    assert _average_ranks(values).tobytes() == walked_ranks(values).tobytes()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_macro_auc_with_heavy_ties_matches_brute_force(data):
    n = data.draw(st.integers(2, 40))
    labels = np.array(data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    # two or three distinct values per class: nearly every score shares its rank
    levels = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=3, unique=True))
    row = st.lists(st.sampled_from(levels), min_size=3, max_size=3)
    scores = np.array(data.draw(st.lists(row, min_size=n, max_size=n)))
    try:
        expected = brute_force_auc(scores, labels, 3)
    except ValueError:
        with pytest.raises(ValueError):
            macro_auc(scores, labels, 3)
        return
    assert abs(macro_auc(scores, labels, 3) - expected) < 1e-12


def test_macro_auc_invariant_under_monotone_transform():
    rng = np.random.default_rng(2)
    labels = rng.integers(0, 3, size=40)
    scores = rng.random((40, 3))
    base = macro_auc(scores, labels, 3)
    assert abs(macro_auc(np.exp(4.0 * scores), labels, 3) - base) < 1e-12
    assert abs(macro_auc(scores**3 + 2.0, labels, 3) - base) < 1e-12


def test_label_permutation_equivariance():
    rng = np.random.default_rng(3)
    labels = rng.integers(0, 3, size=50)
    preds = rng.integers(0, 3, size=50)
    scores = rng.random((50, 3))
    perm = np.array([2, 0, 1])
    f1_base = macro_f1(preds, labels, 3)
    auc_base = macro_auc(scores, labels, 3)
    assert abs(macro_f1(perm[preds], perm[labels], 3) - f1_base) < 1e-12
    inv = np.argsort(perm)
    assert abs(macro_auc(scores[:, inv], perm[labels], 3) - auc_base) < 1e-12


# --- confusion matrix and full evaluation ------------------------------------------


def test_confusion_matrix_row_sums_are_true_counts():
    rng = np.random.default_rng(4)
    labels = rng.integers(0, 3, size=100)
    preds = rng.integers(0, 3, size=100)
    cm = confusion_matrix(preds, labels, 3)
    assert np.array_equal(cm.sum(axis=1), np.bincount(labels, minlength=3))
    assert cm.sum() == 100


def test_confusion_matrix_counts_every_pair():
    rng = np.random.default_rng(7)
    labels = rng.integers(0, 4, size=(5, 9))  # any shape: every entry is one pair
    preds = rng.integers(0, 4, size=(5, 9))
    cm = confusion_matrix(preds, labels, 4)
    for t in range(4):
        for p in range(4):
            assert cm[t, p] == sum(1 for a, b in zip(labels.flat, preds.flat) if (a, b) == (t, p))


def test_confusion_matrix_validation():
    with pytest.raises(ValueError, match="equal-length and non-empty"):
        confusion_matrix([0, 1], [0], 3)
    with pytest.raises(ValueError, match="equal-length and non-empty"):
        confusion_matrix([], [], 3)
    for bad in (-1, 3):
        with pytest.raises(ValueError, match="prediction out of class range"):
            confusion_matrix([0, bad], [0, 1], 3)
        with pytest.raises(ValueError, match="label out of class range"):
            confusion_matrix([0, 1], [0, bad], 3)


def test_per_class_prf_zero_division_convention():
    cm = np.array([[5, 0, 0], [0, 0, 0], [2, 0, 0]])
    precision, recall, f1 = per_class_prf(cm)
    assert f1[1] == 0.0 and f1[2] == 0.0
    assert precision[1] == 0.0 and recall[1] == 0.0


def test_evaluate_coherence():
    rng = np.random.default_rng(5)
    labels = rng.integers(0, 3, size=60)
    probs = rng.dirichlet(np.ones(3), size=60)
    result = evaluate(probs, labels, 3)
    assert abs(result.macro_f1 - sum(result.f1) / 3.0) < 1e-12
    assert result.macro_f1 == macro_f1(probs.argmax(axis=1), labels, 3)
    assert result.macro_auc == macro_auc(probs, labels, 3)
    assert result.confusion.sum() == 60
