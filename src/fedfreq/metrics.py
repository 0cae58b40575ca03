"""Macro-averaged F1 and one-vs-rest AUC for multiclass classification.

Both metrics average per-class values without class weighting so that rare
classes count as much as common ones.  Degenerate cases follow fixed
conventions: a class with zero precision+recall contributes F1 = 0, and AUC
skips classes that have no positives or no negatives (ties count 0.5 via
the Mann-Whitney rank statistic).

Every confusion matrix is counted by :class:`PaddedLabels`, one
``np.bincount`` over K zero-padded label rows; a single split, as
:func:`confusion_matrix` and :func:`macro_f1` take it, is one such row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import DataError


@dataclass(frozen=True)
class EvalResult:
    macro_f1: float
    macro_auc: float
    precision: tuple[float, ...]
    recall: tuple[float, ...]
    f1: tuple[float, ...]
    confusion: np.ndarray


def confusion_matrix(predictions: np.ndarray, labels: np.ndarray, classes: int) -> np.ndarray:
    """``classes x classes`` counts, rows true classes and columns predicted: one :class:`PaddedLabels` row."""
    predictions = np.asarray(predictions, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if predictions.shape != labels.shape or predictions.size < 1:
        raise ValueError("predictions and labels must be equal-length and non-empty")
    rows = PaddedLabels(labels.reshape(1, -1), [labels.size])
    return rows.confusion(predictions.reshape(1, -1), classes)[0]


def per_class_prf(cm: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Precision, recall, F1 per class from a confusion matrix (0 on 0/0).

    A stack of matrices ``(K, classes, classes)`` gives ``(K, classes)`` arrays.
    """
    tp = np.diagonal(cm, axis1=-2, axis2=-1).astype(np.float64)
    # tp <= pred and tp <= true, and precision + recall is 0 only where tp is:
    # every zero denominator meets a zero numerator, and 0 / 1 gives the 0 convention
    precision = tp / np.maximum(cm.sum(axis=-2), 1)
    recall = tp / np.maximum(cm.sum(axis=-1), 1)
    pr = precision + recall
    f1 = 2.0 * precision * recall / np.where(pr > 0, pr, 1.0)
    return precision, recall, f1


def macro_f1(predictions: np.ndarray, labels: np.ndarray, classes: int) -> float:
    """Unweighted mean of per-class F1 = 2PR/(P+R); degenerate classes give 0."""
    cm = confusion_matrix(predictions, labels, classes)
    _, _, f1 = per_class_prf(cm)
    return float(f1.sum() / classes)


class PaddedLabels:
    """K zero-padded label rows ``(K, n)``, of which row j scores its first ``counts[j]`` entries.

    The range of the scored labels is taken once, at construction, so
    scoring model after model on the same splits repeats no label check.
    :meth:`confusion` builds every confusion matrix with one
    ``np.bincount``; padding entries go to a spare bin past the last
    matrix.  Raises ValueError on an empty row.
    """

    def __init__(self, labels: np.ndarray, counts: np.ndarray) -> None:
        labels = np.asarray(labels, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        if labels.ndim != 2 or counts.shape != labels.shape[:1]:
            raise ValueError(
                f"need (K, n) labels and K counts, got {labels.shape} and {counts.shape}"
            )
        k, n = labels.shape
        if k < 1 or counts.min() < 1 or counts.max() > n:
            raise ValueError("every row must score between 1 and n entries")
        self.labels = labels
        self.scored = np.arange(n) < counts[:, None]
        scored = labels[self.scored]
        self.low, self.high = scored.min(), scored.max()

    def confusion(self, predictions: np.ndarray, classes: int) -> np.ndarray:
        """Confusion matrices of ``(..., K, n)`` predictions against these labels.

        Returns ``(..., K, classes, classes)`` counts, rows true classes and
        columns predicted.  Leading axes hold further models scored on the
        same rows.  Raises ValueError on a misshapen array or a scored value
        out of class range.
        """
        predictions = np.asarray(predictions, dtype=np.int64)
        if predictions.shape[-2:] != self.labels.shape:
            raise ValueError(
                f"predictions {predictions.shape} do not end in the labels' shape {self.labels.shape}"
            )
        if self.low < 0 or self.high >= classes:
            raise ValueError("label out of class range")
        flat = predictions.reshape(-1, *self.labels.shape)  # (models, K, n)
        if ((flat < 0) | (flat >= classes)).any(where=self.scored):
            raise ValueError("prediction out of class range")
        # matrix r = m * K + j starts at bin r * classes**2; the label adds its row, the prediction its column
        starts = np.arange(len(flat) * len(self.labels)).reshape(len(flat), -1, 1) * (classes * classes)
        spare = starts.size * classes * classes
        bins = np.where(self.scored, starts + self.labels * classes + flat, spare)
        cm = np.bincount(bins.ravel(), minlength=spare + 1)[:-1]
        return cm.reshape(*predictions.shape[:-1], classes, classes)

    def macro_f1(self, predictions: np.ndarray, classes: int) -> np.ndarray:
        """Macro F1 of ``(..., K, n)`` predictions, as ``(..., K)`` (see :meth:`confusion`)."""
        _, _, f1 = per_class_prf(self.confusion(predictions, classes))
        return f1.sum(axis=-1) / classes


def check_two_classes(labels: np.ndarray, classes: int, what: str) -> None:
    """Raises DataError about ``what`` unless ``labels`` hold two classes or more, as macro AUC needs."""
    held = len(set(np.asarray(labels).tolist()))  # a set: np.unique would import numpy.ma (1.7 MB)
    if held < 2:
        raise DataError(f"{what} holds {held} of {classes} classes; macro AUC needs at least two")


def macro_auc(scores: np.ndarray, labels: np.ndarray, classes: int) -> float:
    """One-vs-rest AUC per class via the rank statistic, macro averaged.

    Classes with zero positives or zero negatives are skipped; if every
    class is skipped the metric is undefined and a ValueError is raised.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if scores.ndim != 2 or scores.shape != (len(labels), classes):
        raise ValueError(f"scores must have shape (n, {classes})")
    aucs = []
    for c in range(classes):
        pos = labels == c
        n_pos = int(pos.sum())
        n_neg = len(labels) - n_pos
        if n_pos == 0 or n_neg == 0:
            continue
        ranks = _average_ranks(scores[:, c])
        u = ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0
        aucs.append(u / (n_pos * n_neg))
    if not aucs:
        raise ValueError("AUC undefined: every class lacks positives or negatives")
    return float(sum(aucs) / len(aucs))


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties assigned the mean rank of their group (each NaN its own group)."""
    order = np.argsort(values, kind="mergesort")
    sorted_vals = values[order]
    starts = np.flatnonzero(np.r_[True, sorted_vals[1:] != sorted_vals[:-1]])
    ends = np.r_[starts[1:], len(values)]
    ranks = np.empty(len(values), dtype=np.float64)
    ranks[order] = np.repeat((starts + ends - 1) / 2.0 + 1.0, ends - starts)
    return ranks


def evaluate(probs: np.ndarray, labels: np.ndarray, classes: int) -> EvalResult:
    """Full evaluation from probability rows: F1, AUC, per-class P/R/F1."""
    probs = np.asarray(probs, dtype=np.float64)
    predictions = probs.argmax(axis=1)
    cm = confusion_matrix(predictions, labels, classes)
    precision, recall, f1 = per_class_prf(cm)
    return EvalResult(
        macro_f1=float(f1.sum() / classes),
        macro_auc=macro_auc(probs, labels, classes),
        precision=tuple(precision),
        recall=tuple(recall),
        f1=tuple(f1),
        confusion=cm,
    )
