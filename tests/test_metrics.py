import math
import random

import numpy as np
import pytest

from alol.errors import AlignmentError, DistributionError
from alol.metrics import (
    MetricKind,
    confusion_counts,
    macro_f1_from_counts,
    mean_entropy,
    score,
    token_f1_from_counts,
)

ALL_KINDS = [
    MetricKind.ACCURACY,
    MetricKind.MACRO_F1,
    MetricKind.TOKEN_F1,
    MetricKind.EXACT_MATCH,
]


def test_identical_sequences_score_one_for_every_kind():
    golds = [[1, 2, 0], [0, 1], [2]]
    for kind in ALL_KINDS:
        assert score(golds, golds, kind) == 1.0


def test_accuracy_counts_tokens_not_examples():
    preds = [[1, 1], [0, 0, 0, 0]]
    golds = [[1, 0], [0, 0, 0, 0]]
    assert score(preds, golds, MetricKind.ACCURACY) == 5 / 6


def test_exact_match_one_of_four():
    preds = [[1, 2], [1, 0], [2, 2], [0, 1]]
    golds = [[1, 2], [1, 1], [2, 0], [1, 1]]
    assert score(preds, golds, MetricKind.EXACT_MATCH) == 0.25


def test_exact_match_needs_every_slot():
    preds = [[1, 2, 3]]
    golds = [[1, 2, 0]]
    assert score(preds, golds, MetricKind.EXACT_MATCH) == 0.0


def test_token_f1_two_thirds():
    # TP=2, FP=1, FN=1 against the background class 0.
    preds = [[1, 1, 0, 2]]
    golds = [[1, 1, 1, 0]]
    assert score(preds, golds, MetricKind.TOKEN_F1) == pytest.approx(2 / 3)


def test_token_f1_no_positives_anywhere_is_perfect():
    assert score([[0, 0]], [[0, 0]], MetricKind.TOKEN_F1) == 1.0


def test_token_f1_zero_when_no_true_positive():
    assert score([[1, 0]], [[0, 1]], MetricKind.TOKEN_F1) == 0.0


def test_macro_f1_absent_class_counts_as_zero():
    preds = [[0, 1]]
    golds = [[0, 1]]
    # Classes 0 and 1 are perfect; class 2 never occurs and contributes 0.
    assert score(preds, golds, MetricKind.MACRO_F1, class_count=3) == pytest.approx(2 / 3)
    assert score(preds, golds, MetricKind.MACRO_F1) == 1.0


def test_macro_f1_matches_brute_force():
    rng = random.Random(7)
    for _ in range(50):
        class_count = rng.randint(2, 5)
        preds, golds = [], []
        for _ in range(rng.randint(1, 8)):
            length = rng.randint(1, 6)
            preds.append([rng.randrange(class_count) for _ in range(length)])
            golds.append([rng.randrange(class_count) for _ in range(length)])
        flat_p = [v for row in preds for v in row]
        flat_g = [v for row in golds for v in row]
        expected = 0.0
        for c in range(class_count):
            tp = sum(1 for p, g in zip(flat_p, flat_g) if p == c and g == c)
            pp = sum(1 for p in flat_p if p == c)
            gp = sum(1 for g in flat_g if g == c)
            if tp > 0:
                prec, rec = tp / pp, tp / gp
                expected += 2 * prec * rec / (prec + rec)
        expected /= class_count
        got = score(preds, golds, MetricKind.MACRO_F1, class_count=class_count)
        assert got == pytest.approx(expected)


def test_scores_stay_in_unit_interval_and_permutation_invariant():
    rng = random.Random(11)
    for _ in range(30):
        count = rng.randint(2, 7)
        preds = [[rng.randrange(3) for _ in range(rng.randint(1, 5))] for _ in range(count)]
        golds = [[rng.randrange(3) for _ in range(len(p))] for p in preds]
        order = list(range(count))
        rng.shuffle(order)
        for kind in ALL_KINDS:
            value = score(preds, golds, kind, class_count=3)
            assert 0.0 <= value <= 1.0
            shuffled = score(
                [preds[i] for i in order],
                [golds[i] for i in order],
                kind,
                class_count=3,
            )
            assert shuffled == pytest.approx(value)


def loop_f1(flat_p, flat_g, kind, class_count=None):
    """F1 written as one loop over classes, in the float order of the counts."""

    def binary(tp, pred_pos, gold_pos):
        if pred_pos == 0 and gold_pos == 0:
            return 1.0
        if tp == 0:
            return 0.0
        precision, recall = tp / pred_pos, tp / gold_pos
        return 2.0 * precision * recall / (precision + recall)

    pairs = list(zip(flat_p, flat_g))
    if kind is MetricKind.TOKEN_F1:
        tp = sum(1 for p, g in pairs if p == g and g != 0)
        return binary(tp, sum(1 for p in flat_p if p != 0), sum(1 for g in flat_g if g != 0))
    classes = range(class_count) if class_count is not None else sorted({*flat_p, *flat_g})
    total = 0.0
    for c in classes:
        pred_pos = sum(1 for p in flat_p if p == c)
        gold_pos = sum(1 for g in flat_g if g == c)
        if pred_pos or gold_pos:
            total += binary(sum(1 for p, g in pairs if p == g == c), pred_pos, gold_pos)
    return total / len(classes)


def test_f1_equals_the_class_loop_exactly():
    rng = random.Random(23)
    for _ in range(300):
        low = rng.choice([0, 0, -2])
        high = rng.randint(1, 6)
        class_count = rng.choice([None, high, max(1, high - 2), high + 2])
        flat_g = [rng.randint(low, high - 1) for _ in range(rng.randint(1, 12))]
        flat_p = [rng.randint(low, high - 1) for _ in flat_g]
        for kind in (MetricKind.MACRO_F1, MetricKind.TOKEN_F1):
            got = score([flat_p], [flat_g], kind, class_count=class_count)
            assert got == loop_f1(flat_p, flat_g, kind, class_count)


def test_stacked_confusion_counts_score_like_score():
    rng = np.random.default_rng(29)
    for _ in range(50):
        classes = int(rng.integers(1, 6))
        models = int(rng.integers(1, 7))
        widths = rng.integers(1, 30, size=models)
        preds = [rng.integers(0, classes, size=w) for w in widths]
        golds = [rng.integers(0, classes, size=w) for w in widths]
        # Tables of unequal token counts, counted in one pass.
        grid = (models,)
        counts = confusion_counts(list(zip(range(models), preds, golds)), grid, classes)
        assert counts.shape == (models, classes, classes)
        assert counts.sum(axis=(1, 2)).tolist() == widths.tolist()
        # A group's table indices broadcast over its stacked rows.
        m = int(widths.min())
        table = np.arange(models)[:, None]
        stacked = (table, np.stack([p[:m] for p in preds]), np.stack([g[:m] for g in golds]))
        alone = [(k, p[:m], g[:m]) for k, p, g in zip(range(models), preds, golds)]
        assert np.array_equal(
            confusion_counts([stacked], grid, classes), confusion_counts(alone, grid, classes)
        )
        macro = macro_f1_from_counts(counts, range(classes))
        token = token_f1_from_counts(counts)
        for k in range(models):
            p, g = preds[k], golds[k]
            assert macro[k] == score([p], [g], MetricKind.MACRO_F1, class_count=classes)
            assert token[k] == score([p], [g], MetricKind.TOKEN_F1)
            assert token[k] == loop_f1(p.tolist(), g.tolist(), MetricKind.TOKEN_F1)
            # Without class_count the universe is the labels that occur.
            present = np.flatnonzero(counts[k].sum(axis=0) + counts[k].sum(axis=1))
            assert macro_f1_from_counts(counts[k], present) == score(
                [p], [g], MetricKind.MACRO_F1
            )


def test_length_mismatch_raises_alignment_error():
    with pytest.raises(AlignmentError):
        score([[1]], [[1], [2]], MetricKind.ACCURACY)
    with pytest.raises(AlignmentError):
        score([[1, 2]], [[1]], MetricKind.ACCURACY)
    with pytest.raises(AlignmentError):
        score([], [], MetricKind.ACCURACY)


def test_unknown_metric_kind_raises_value_error():
    # A kind name is not a MetricKind.
    with pytest.raises(ValueError, match="unknown metric kind: 'accuracy'"):
        score([[1, 0]], [[1, 1]], "accuracy")


def test_mean_entropy_binary_values():
    assert mean_entropy([(0.5, 0.5)]) == pytest.approx(math.log(2))
    assert mean_entropy([(1.0, 0.0)]) == 0.0
    assert mean_entropy([(0.5, 0.5), (1.0, 0.0)]) == pytest.approx(math.log(2) / 2)


def test_mean_entropy_bounded_by_log_class_count():
    rng = np.random.default_rng(3)
    for _ in range(40):
        classes = int(rng.integers(2, 6))
        rows = rng.random((int(rng.integers(1, 9)), classes))
        rows /= rows.sum(axis=1, keepdims=True)
        value = mean_entropy(rows)
        assert 0.0 <= value <= math.log(classes) + 1e-12


def test_mean_entropy_matches_brute_force():
    rng = np.random.default_rng(19)
    rows = rng.random((25, 4))
    rows /= rows.sum(axis=1, keepdims=True)
    expected = float(
        np.mean([-sum(p * math.log(p) for p in row if p > 0) for row in rows])
    )
    assert mean_entropy(rows) == pytest.approx(expected)


def test_mean_entropy_rejects_bad_distributions():
    with pytest.raises(DistributionError):
        mean_entropy([(0.5, 0.6)])
    with pytest.raises(DistributionError):
        mean_entropy([(1.2, -0.2)])
    with pytest.raises(DistributionError):
        mean_entropy([])
    with pytest.raises(DistributionError):
        mean_entropy([0.5, 0.5])
