"""Pure scoring functions shared by learners, policies, and reports."""

from __future__ import annotations

import enum
import math
from typing import Sequence

import numpy as np

from .errors import AlignmentError, DistributionError


class MetricKind(enum.Enum):
    ACCURACY = "accuracy"
    MACRO_F1 = "macro_f1"
    TOKEN_F1 = "token_f1"
    EXACT_MATCH = "exact_match"


def _as_label_arrays(
    predictions: Sequence, golds: Sequence
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    if len(predictions) != len(golds):
        raise AlignmentError(
            f"{len(predictions)} predictions vs {len(golds)} golds"
        )
    if len(predictions) == 0:
        raise AlignmentError("cannot score an empty batch")
    preds = [np.asarray(p, dtype=np.int64).ravel() for p in predictions]
    gold = [np.asarray(g, dtype=np.int64).ravel() for g in golds]
    for i, (p, g) in enumerate(zip(preds, gold)):
        if p.shape != g.shape:
            raise AlignmentError(
                f"example {i}: prediction has {p.size} slots, gold has {g.size}"
            )
    return preds, gold


def _binary_f1s(tp: np.ndarray, pred_pos: np.ndarray, gold_pos: np.ndarray) -> np.ndarray:
    """Elementwise binary F1 of count arrays: 1.0 where nothing is predicted
    or gold, 0.0 where nothing is right, else the harmonic mean of precision
    and recall, in the float operations of the scalar formula."""
    with np.errstate(divide="ignore", invalid="ignore"):
        precision = tp / pred_pos
        recall = tp / gold_pos
        f1 = 2.0 * precision * recall / (precision + recall)
    return np.where((pred_pos == 0) & (gold_pos == 0), 1.0, np.where(tp == 0, 0.0, f1))


def confusion_counts(groups, shape: tuple[int, ...], size: int) -> np.ndarray:
    """Token counts by gold and predicted label of a ``shape`` grid of
    tables, ``[*table, gold, predicted]``.

    ``groups`` holds ``(table, predictions, golds)`` triples of arrays that
    broadcast together, labels in ``[0, size)``: each token counts in the
    table of flat index ``table``. So tables of unequal token counts are
    counted in one pass.
    """
    cells = [
        ((table * size + golds) * size + predictions).ravel()
        for table, predictions, golds in groups
    ]
    counts = np.bincount(np.concatenate(cells), minlength=math.prod(shape) * size * size)
    return counts.reshape(*shape, size, size)


def macro_f1_from_counts(counts: np.ndarray, classes: Sequence[int]) -> np.ndarray:
    """MacroF1 of each ``confusion_counts`` table over the label indices
    ``classes``: per-class F1 summed in class order, over ``len(classes)``.
    A class absent from both prediction and gold contributes 0."""
    tp = counts.diagonal(axis1=-2, axis2=-1)
    pred_pos = counts.sum(axis=-2)
    gold_pos = counts.sum(axis=-1)
    f1 = np.where((pred_pos == 0) & (gold_pos == 0), 0.0, _binary_f1s(tp, pred_pos, gold_pos))
    total = np.zeros(counts.shape[:-2])
    for c in classes:
        total = total + f1[..., c]
    return total / len(classes)


def token_f1_from_counts(counts: np.ndarray, background: int = 0) -> np.ndarray:
    """TokenF1 of each ``confusion_counts`` table: F1 micro-averaged over
    every label but the one at index ``background``."""
    tokens = counts.sum(axis=(-2, -1))
    tp = counts.trace(axis1=-2, axis2=-1) - counts[..., background, background]
    pred_pos = tokens - counts[..., :, background].sum(axis=-1)
    gold_pos = tokens - counts[..., background, :].sum(axis=-1)
    return _binary_f1s(tp, pred_pos, gold_pos)


def score(
    predictions: Sequence,
    golds: Sequence,
    kind: MetricKind,
    *,
    class_count: int | None = None,
) -> float:
    """Compare predicted label sequences against gold ones.

    ``predictions`` and ``golds`` are parallel sequences of per-example label
    vectors. Single-label tasks pass length-1 vectors. ``class_count`` fixes
    the class universe for MacroF1; without it the universe is whatever
    labels appear in the batch.
    """
    preds, gold = _as_label_arrays(predictions, golds)
    flat_pred = np.concatenate(preds)
    flat_gold = np.concatenate(gold)

    if kind is MetricKind.ACCURACY:
        return float(np.mean(flat_pred == flat_gold))

    if kind is MetricKind.EXACT_MATCH:
        hits = sum(1 for p, g in zip(preds, gold) if np.array_equal(p, g))
        return hits / len(preds)

    if kind not in (MetricKind.TOKEN_F1, MetricKind.MACRO_F1):
        raise ValueError(f"unknown metric kind: {kind!r}")
    # Count over dense indices of the labels seen, the background label 0
    # and the pinned class universe, so that any integer labels count.
    pinned = np.arange(class_count if class_count is not None else 0)
    labels = np.sort(np.concatenate([flat_pred, flat_gold, pinned, [0]]))
    labels = labels[np.concatenate([[True], labels[1:] != labels[:-1]])]
    tokens = (0, np.searchsorted(labels, flat_pred), np.searchsorted(labels, flat_gold))
    counts = confusion_counts([tokens], (), labels.size)
    if kind is MetricKind.TOKEN_F1:
        # Class 0 is background; F1 is micro-averaged over the rest.
        return float(token_f1_from_counts(counts, int(np.searchsorted(labels, 0))))
    if class_count is not None:
        classes = np.searchsorted(labels, pinned)
    else:
        classes = np.flatnonzero(counts.sum(axis=0) + counts.sum(axis=1))
    return float(macro_f1_from_counts(counts, classes.tolist()))


def mean_entropy(distributions: Sequence) -> float:
    """Mean Shannon entropy (natural log) of a batch of distributions."""
    table = np.asarray(distributions, dtype=np.float64)
    if table.ndim != 2 or table.shape[0] == 0 or table.shape[1] == 0:
        raise DistributionError(f"expected a non-empty 2D table, got shape {table.shape}")
    if np.any(table < 0.0):
        raise DistributionError("negative probability mass")
    sums = table.sum(axis=1)
    bad = np.abs(sums - 1.0) > 1e-6
    if np.any(bad):
        row = int(np.argmax(bad))
        raise DistributionError(f"row {row} sums to {sums[row]!r}, not 1")
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(table > 0.0, -table * np.log(table), 0.0)
    value = float(terms.sum(axis=1).mean())
    return max(value, 0.0)
