import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from alol.datagen import GenKind, GenSpec, generate
from alol.errors import EmptyEvalError, EmptyFineTuneError, SpecMismatchError
from alol.learners import (
    BATCH_SIZE,
    FitTask,
    LearnerFamily,
    LearnerSpec,
    ModelState,
    evaluate,
    fine_tune,
    fit_stacked,
    gradient,
    initialize,
    loss,
    parameter_count,
    predict_distribution,
    score_stack,
    token_rows,
    train,
)
from alol import learners
from alol.learners import _init_params, _Workspace
from alol.metrics import MetricKind, score
from alol.pool import Example
from alol.rng import PURPOSE_INIT, PURPOSE_SHUFFLE, SplitMix64, derive_seed, shuffled_ranges

from test_rng import ScalarStream

LINEAR = LearnerSpec(
    family=LearnerFamily.LINEAR_SOFTMAX, input_dim=2, class_count=2, learning_rate=0.5
)
MLP = LearnerSpec(
    family=LearnerFamily.MLP, input_dim=2, class_count=2, hidden_dim=4, learning_rate=0.5
)


def single(example_id, values, label):
    return Example(
        id=example_id,
        features=np.asarray(values, dtype=float).reshape(1, -1),
        labels=np.array([label]),
        sequence=False,
    )


def blobs(n, separation, seed, dim=2, classes=2):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        label = i % classes
        center = np.zeros(dim)
        center[label] = separation / math.sqrt(2.0)
        out.append(single(i, center + rng.normal(size=dim), label))
    return out


def test_batch_size_constant():
    assert BATCH_SIZE == 8


def test_parameter_counts():
    assert parameter_count(LINEAR) == 2 * 2 + 2
    assert parameter_count(MLP) == 4 * 2 + 4 + 2 * 4 + 2


def test_spec_validation():
    with pytest.raises(SpecMismatchError):
        LearnerSpec(family=LearnerFamily.MLP, input_dim=2, class_count=2, hidden_dim=0)
    with pytest.raises(SpecMismatchError):
        LearnerSpec(
            family=LearnerFamily.LINEAR_SOFTMAX, input_dim=2, class_count=2, learning_rate=0.0
        )
    with pytest.raises(SpecMismatchError):
        LearnerSpec(family=LearnerFamily.LINEAR_SOFTMAX, input_dim=0, class_count=2)
    with pytest.raises(SpecMismatchError):
        LearnerSpec(family=LearnerFamily.LINEAR_SOFTMAX, input_dim=2, class_count=2, patience=0)
    # parameter_count never reads a linear spec's hidden_dim, so any other
    # than 0 would only tell two equal models apart.
    for hidden in (4, -1):
        with pytest.raises(SpecMismatchError, match="hidden_dim"):
            LearnerSpec(
                family=LearnerFamily.LINEAR_SOFTMAX, input_dim=2, class_count=2, hidden_dim=hidden
            )


def test_model_state_checks_parameter_length():
    with pytest.raises(SpecMismatchError):
        ModelState(spec=LINEAR, parameters=np.zeros(5), seed_lineage=())


def test_empty_labeled_set_returns_seeded_init_exactly():
    examples = blobs(6, 4.0, 0)
    model = train(LINEAR, [], examples, seed=314)
    stream = SplitMix64(derive_seed(314, purpose=PURPOSE_INIT))
    expected = np.array(
        [(2.0 * stream.next_float() - 1.0) * LINEAR.init_scale for _ in range(6)]
    )
    assert np.array_equal(model.parameters, expected)
    assert model.seed_lineage == (derive_seed(314, purpose=PURPOSE_INIT),)
    assert model == initialize(LINEAR, 314)


def test_training_is_bit_identical_across_calls():
    data = blobs(24, 3.0, 1)
    a = train(LINEAR, data, data, seed=7)
    b = train(LINEAR, data, data, seed=7)
    assert a == b
    assert a.fingerprint() == b.fingerprint()
    c = train(LINEAR, data, data, seed=8)
    assert not np.array_equal(a.parameters, c.parameters)


def test_linear_fits_separable_data():
    data = blobs(40, 8.0, 2)
    x = np.concatenate([ex.features for ex in data])
    y = np.concatenate([ex.labels for ex in data])

    def logistic_loss(w):
        logits = x @ w[:2] + w[2]
        return np.mean(np.log1p(np.exp(-logits * np.where(y == 1, 1.0, -1.0))))

    fit = minimize(logistic_loss, np.zeros(3), method="BFGS")
    closed_form_preds = (x @ fit.x[:2] + fit.x[2] > 0).astype(int)
    assert np.mean(closed_form_preds == y) >= 0.99

    model = train(LINEAR, data, data, seed=5)
    assert evaluate(model, data, MetricKind.ACCURACY) >= 0.99


def test_sgd_step_matches_manual_computation():
    data = blobs(3, 2.0, 9)
    spec = LearnerSpec(
        family=LearnerFamily.LINEAR_SOFTMAX,
        input_dim=2,
        class_count=2,
        learning_rate=0.3,
        max_epochs=1,
        patience=5,
    )
    model = train(spec, data, data, seed=21)
    init = initialize(spec, 21)

    order = list(range(3))
    ScalarStream(derive_seed(21, iteration=0, purpose=PURPOSE_SHUFFLE)).shuffle(order)
    batch = [data[i] for i in order]
    params = init.parameters.copy()
    probe = ModelState(spec=spec, parameters=params, seed_lineage=())
    params = params - spec.learning_rate * gradient(probe, batch)
    assert np.allclose(model.parameters, params, atol=0, rtol=0)


def test_fine_tune_rejects_empty_and_keeps_base_frozen():
    data = blobs(10, 3.0, 3)
    base = train(LINEAR, data[:4], data, seed=1)
    before = base.parameters.copy()
    with pytest.raises(EmptyFineTuneError):
        fine_tune(base, [], data, seed=2)
    tuned = fine_tune(base, data[4:], data, seed=2)
    assert np.array_equal(base.parameters, before)
    assert tuned.seed_lineage[: len(base.seed_lineage)] == base.seed_lineage
    again = fine_tune(base, data[4:], data, seed=2)
    assert tuned == again


def test_plateau_stops_after_patience_epochs():
    data = blobs(8, 10.0, 4)
    heavy = train(LINEAR, data, data, seed=6)
    assert evaluate(heavy, data, MetricKind.ACCURACY) == 1.0
    gentle_spec = LearnerSpec(
        family=LearnerFamily.LINEAR_SOFTMAX,
        input_dim=2,
        class_count=2,
        learning_rate=1e-6,
        patience=5,
        max_epochs=200,
    )
    frozen = ModelState(
        spec=gentle_spec, parameters=heavy.parameters, seed_lineage=heavy.seed_lineage
    )
    # Eval accuracy is already 1.0 and cannot improve, so every epoch is
    # insignificant and fine-tuning stops after exactly `patience` epochs.
    tuned = fine_tune(frozen, data, data, seed=11)
    assert len(tuned.seed_lineage) == len(heavy.seed_lineage) + gentle_spec.patience


def test_max_epochs_caps_training():
    spec = LearnerSpec(
        family=LearnerFamily.LINEAR_SOFTMAX,
        input_dim=2,
        class_count=2,
        learning_rate=0.5,
        max_epochs=3,
        patience=50,
    )
    data = blobs(16, 1.0, 8)
    model = train(spec, data, data, seed=0)
    assert len(model.seed_lineage) == 1 + 3


def test_predict_distribution_uniform_for_zero_parameters():
    model = ModelState(spec=LINEAR, parameters=np.zeros(6), seed_lineage=())
    dist = predict_distribution(model, single(0, [3.0, -1.0], 0))
    assert np.allclose(dist, [[0.5, 0.5]])


def test_predict_distribution_normalized():
    rng = np.random.default_rng(12)
    for spec in [LINEAR, MLP]:
        model = ModelState(
            spec=spec,
            parameters=rng.normal(size=parameter_count(spec)),
            seed_lineage=(),
        )
        dist = predict_distribution(model, single(0, rng.normal(size=2), 0))
        assert dist.shape == (1, 2)
        assert abs(dist.sum() - 1.0) < 1e-9
        assert (dist >= 0).all()


def test_predict_distribution_saturates_with_margin_ten():
    # Class-1 logit beats class-0 by 10 on input (1, 0).
    model = ModelState(
        spec=LINEAR, parameters=np.array([0.0, 0.0, 10.0, 0.0, 0.0, 0.0]), seed_lineage=()
    )
    dist = predict_distribution(model, single(0, [1.0, 0.0], 1))
    assert dist[0].max() > 0.9999
    assert dist[0].max() == pytest.approx(1.0 / (1.0 + math.exp(-10.0)))


def test_predict_distribution_per_token():
    model = ModelState(spec=LINEAR, parameters=np.zeros(6), seed_lineage=())
    ex = Example(
        id=0, features=np.zeros((5, 2)), labels=np.zeros(5, dtype=int), sequence=True
    )
    assert predict_distribution(model, ex).shape == (5, 2)


def test_evaluate_three_of_four():
    # Identity weights make the argmax follow the larger feature.
    model = ModelState(
        spec=LINEAR, parameters=np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0]), seed_lineage=()
    )
    data = [
        single(0, [3.0, 0.0], 0),
        single(1, [0.0, 3.0], 1),
        single(2, [3.0, 0.0], 0),
        single(3, [3.0, 0.0], 1),
    ]
    assert evaluate(model, data, MetricKind.ACCURACY) == 0.75
    assert evaluate(model, data[:3], MetricKind.ACCURACY) == 1.0


def test_evaluate_token_f1_harmonic_mean():
    # Predicts class 1 everywhere; gold has one positive of two tokens:
    # precision 0.5, recall 1.0, F1 = 2/3.
    model = ModelState(
        spec=LINEAR, parameters=np.array([0.0, 0.0, 5.0, 5.0, 0.0, 0.0]), seed_lineage=()
    )
    data = [single(0, [1.0, 1.0], 1), single(1, [1.0, 1.0], 0)]
    assert evaluate(model, data, MetricKind.TOKEN_F1) == pytest.approx(2 / 3)


@pytest.mark.parametrize("spec", [LINEAR, MLP], ids=["linear", "mlp"])
@pytest.mark.parametrize("bad", ["all_nan", "one_inf"])
def test_non_finite_model_scores_nan(spec, bad):
    # argmax over a row of NaN logits is 0, so a diverged model used to
    # score as if it predicted label 0 everywhere.
    params = np.full(parameter_count(spec), np.nan)
    if bad == "one_inf":
        params = np.zeros(parameter_count(spec))
        params[0] = np.inf
    model = ModelState(spec=spec, parameters=params, seed_lineage=())
    data = blobs(6, 3.0, 2)
    with np.errstate(invalid="ignore", over="ignore"):
        for metric in MetricKind:
            assert math.isnan(evaluate(model, data, metric)), metric
        assert math.isnan(loss(model, data))


def test_evaluate_and_loss_reject_empty():
    model = initialize(LINEAR, 0)
    with pytest.raises(EmptyEvalError):
        evaluate(model, [], MetricKind.ACCURACY)
    with pytest.raises(EmptyEvalError):
        loss(model, [])
    with pytest.raises(EmptyEvalError):
        gradient(model, [])


def test_loss_uniform_is_log2_and_perfect_is_tiny():
    zero = ModelState(spec=LINEAR, parameters=np.zeros(6), seed_lineage=())
    data = [single(0, [1.0, 0.0], 0), single(1, [0.0, 1.0], 1)]
    assert loss(zero, data) == pytest.approx(math.log(2))
    sharp = ModelState(
        spec=LINEAR,
        parameters=np.array([50.0, 0.0, 0.0, 50.0, 0.0, 0.0]),
        seed_lineage=(),
    )
    assert loss(sharp, data) < 1e-3


def test_loss_is_order_invariant():
    data = blobs(9, 2.0, 5)
    model = train(LINEAR, data, data, seed=3)
    assert loss(model, data) == pytest.approx(loss(model, list(reversed(data))))


def test_dimension_mismatch_raises():
    model = initialize(LINEAR, 0)
    wide = single(0, [1.0, 2.0, 3.0], 0)
    with pytest.raises(SpecMismatchError):
        predict_distribution(model, wide)
    with pytest.raises(SpecMismatchError):
        train(LINEAR, [wide], [wide], seed=0)
    with pytest.raises(SpecMismatchError):
        evaluate(model, [single(0, [1.0, 2.0], 5)], MetricKind.ACCURACY)


@pytest.mark.parametrize(
    "call",
    [
        lambda a2, b3: train(LINEAR, [a2, b3], [a2], seed=1),
        lambda a2, b3: train(LINEAR, [a2], [a2, b3], seed=1),
        lambda a2, b3: fine_tune(initialize(LINEAR, 0), [a2, b3], [a2], seed=1),
        lambda a2, b3: fine_tune(initialize(LINEAR, 0), [a2], [a2, b3], seed=1),
        lambda a2, b3: evaluate(initialize(LINEAR, 0), [a2, b3], MetricKind.ACCURACY),
        lambda a2, b3: loss(initialize(LINEAR, 0), [b3, a2]),
        lambda a2, b3: gradient(initialize(LINEAR, 0), [a2, b3]),
    ],
    ids=["train", "train-eval", "fine_tune", "fine_tune-eval", "evaluate", "loss", "gradient"],
)
def test_mixed_dim_lists_name_the_off_dim_example(call):
    # Lists that mix dims cannot be pooled or padded into one array: the
    # spec check must come first and name the example, as for one example.
    a2, b3 = single(1, [1.0, 2.0], 0), single(7, [1.0, 2.0, 3.0], 1)
    with pytest.raises(SpecMismatchError, match="example 7: feature dim 3"):
        call(a2, b3)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(23)
    for spec in [LINEAR, MLP]:
        for trial in range(10):
            data = [
                single(i, rng.normal(size=2), int(rng.integers(2))) for i in range(4)
            ]
            params = rng.normal(scale=0.8, size=parameter_count(spec))
            model = ModelState(spec=spec, parameters=params, seed_lineage=())
            analytic = gradient(model, data)
            step = 1e-5
            for k in range(params.size):
                forward = params.copy()
                forward[k] += step
                backward = params.copy()
                backward[k] -= step
                fd = (
                    loss(ModelState(spec=spec, parameters=forward, seed_lineage=()), data)
                    - loss(ModelState(spec=spec, parameters=backward, seed_lineage=()), data)
                ) / (2 * step)
                denom = max(abs(fd), abs(analytic[k]), 1e-8)
                assert abs(analytic[k] - fd) / denom < 1e-4


def test_linear_loss_is_convex():
    rng = np.random.default_rng(29)
    data = [single(i, rng.normal(size=2), int(rng.integers(2))) for i in range(12)]
    for _ in range(30):
        theta1 = rng.normal(scale=2.0, size=6)
        theta2 = rng.normal(scale=2.0, size=6)
        alpha = float(rng.random())
        mix = alpha * theta1 + (1 - alpha) * theta2
        blend = alpha * loss(
            ModelState(spec=LINEAR, parameters=theta1, seed_lineage=()), data
        ) + (1 - alpha) * loss(
            ModelState(spec=LINEAR, parameters=theta2, seed_lineage=()), data
        )
        mixed = loss(ModelState(spec=LINEAR, parameters=mix, seed_lineage=()), data)
        assert mixed <= blend + 1e-9


def test_convex_training_is_seed_insensitive_at_convergence():
    data = blobs(40, 8.0, 31)
    eval_set = blobs(40, 8.0, 32)
    a = train(LINEAR, data, eval_set, seed=100)
    b = train(LINEAR, data, eval_set, seed=200)
    diff = abs(
        evaluate(a, eval_set, MetricKind.ACCURACY) - evaluate(b, eval_set, MetricKind.ACCURACY)
    )
    assert diff < 1e-3


def test_fingerprint_tells_models_of_two_seeds_apart():
    model = train(LINEAR, blobs(10, 3.0, 40), blobs(10, 3.0, 41), seed=1)
    other = train(LINEAR, blobs(10, 3.0, 40), blobs(10, 3.0, 41), seed=2)
    assert model.fingerprint() != other.fingerprint()


def tokens(example_id, rng, length, dim=2, classes=2):
    return Example(
        id=example_id,
        features=rng.normal(size=(length, dim)) * 2.0,
        labels=rng.integers(0, classes, size=length),
        sequence=True,
    )


def fit_alone(spec, base, examples, eval_set, seed, metric, loss_based):
    if base is None:
        model = train(spec, examples, eval_set, seed, metric=metric)
    else:
        model = fine_tune(base, examples, eval_set, seed, metric=metric)
    value = -loss(model, eval_set) if loss_based else evaluate(model, eval_set, metric)
    return model, value


def stacked_scores(spec, fit, tasks, loss_based):
    """The stack's eval scores, or its negated eval losses from one
    ``score_stack`` call, as the loss oracle takes them."""
    if loss_based:
        return score_stack(spec, fit.parameters, [t.eval_rows for t in tasks], None)
    return fit.scores


@pytest.mark.parametrize("family", ["linear", "mlp"])
@pytest.mark.parametrize("mode", ["union", "candidate_only", "from_scratch"])
@pytest.mark.parametrize(
    "length, dim",
    [(1, 2), (3, 2), ("ragged", 2), ("long", 32), ("long", 64)],
    ids=["1", "3", "ragged", "long-dim32", "long-dim64"],
)
def test_stacked_fit_matches_each_model_fit_alone(family, mode, length, dim):
    rng = np.random.default_rng(11)
    spec = LearnerSpec(
        family=LearnerFamily.LINEAR_SOFTMAX if family == "linear" else LearnerFamily.MLP,
        input_dim=dim,
        class_count=2,
        hidden_dim=0 if family == "linear" else 4,
        learning_rate=0.5,
        max_epochs=30,
        patience=3,
    )
    # Two runs side by side: each has its own labeled list, eval list and
    # base; with uniform examples their eval lists hold the same token
    # total in another layout, with ragged ones different totals. A ragged
    # candidate holds a longer example than the rest of the stack. A long
    # one holds 40-60 tokens among six examples beside candidates of 2-3
    # tokens each: padded to it, their batches would pass the size from
    # which this build's dgemm kernel, and so the bits, change at inner
    # dim 32 or more.
    ragged = length in ("ragged", "long")
    extra_count = 6 if length == "long" else 2

    def width(i):
        if length == "long":
            return 2 + i % 2
        return 1 + i % 4 if ragged else length

    def candidate_width(k, j):
        if k == 3 and ragged:
            return int(rng.integers(40, 61)) if length == "long" else 5
        return width(k + j)

    def example(example_id, count):
        return tokens(example_id, rng, count, dim=dim)

    labeled = [[example(i + 50 * r, width(i)) for i in range(11)] for r in range(2)]
    evals = [
        [example(200 + i, 1 + i % 4) for i in range(25)],
        [example(300 + i, 1 + (24 - i) % 4) for i in range(22 if ragged else 25)],
    ]
    extras = [
        [example(100 + extra_count * k + j, candidate_width(k, j)) for j in range(extra_count)]
        for k in range(6)
    ]
    seeds = [derive_seed(9, candidate=k + 1) for k in range(6)]
    bases = [
        None if mode == "from_scratch" else train(spec, labeled[r], evals[r], seed=4 + r)
        for r in range(2)
    ]
    eval_rows = [token_rows(spec, e) for e in evals]
    stops = {}
    for runs in (1, 2):
        # Model k belongs to run k % runs.
        tasks = [
            FitTask(
                bases[k % runs],
                extras[k] if mode == "candidate_only" else [*labeled[k % runs], *extras[k]],
                eval_rows[k % runs],
                seeds[k],
            )
            for k in range(6)
        ]
        for metric in MetricKind:
            fit = fit_stacked(spec, tasks, metric=metric)
            for loss_based in (False, True):
                values = stacked_scores(spec, fit, tasks, loss_based)
                for k, (task, value) in enumerate(zip(tasks, values)):
                    model = fit.model(k)
                    alone, alone_value = fit_alone(
                        spec,
                        task.base,
                        task.examples,
                        task.eval_rows.examples,
                        task.seed,
                        metric,
                        loss_based,
                    )
                    assert model.parameters.tobytes() == alone.parameters.tobytes()
                    assert model.seed_lineage == alone.seed_lineage
                    assert value == alone_value
            stops[metric] = {len(lineage) for lineage in fit.lineages}
        # The stack loses models at different epochs along the way.
        assert len(stops[MetricKind.MACRO_F1]) > 1


def test_stacked_fit_needs_one_nonzero_length():
    rng = np.random.default_rng(2)
    eval_set = blobs(4, 2.0, 0)

    def tasks(labeled, extras, evals=None):
        evals = [token_rows(LINEAR, ev) for ev in evals or [eval_set] * len(extras)]
        return [
            FitTask(None, [*labeled, *e], ev, k) for k, (e, ev) in enumerate(zip(extras, evals))
        ]

    def fits(stack):
        fit = fit_stacked(LINEAR, stack)
        assert fit.parameters.shape == (len(stack), parameter_count(LINEAR))

    uniform = [[tokens(i, rng, 2)] for i in range(3)]
    fits(tasks([], uniform))
    fits(tasks([tokens(9, rng, 2)], uniform))
    # Token counts may differ: a task of another widest example runs in
    # another stack.
    fits(tasks([tokens(9, rng, 3)], uniform))
    # One length over all, made of other lists per model.
    pair = [[tokens(5, rng, 2)], [tokens(6, rng, 2), tokens(7, rng, 2)]]
    rows = token_rows(LINEAR, eval_set)
    fits([FitTask(None, [*pair[0], *uniform[0]], rows, 1), FitTask(None, pair[1], rows, 2)])
    # Eval lists may hold different token totals: each total is scored apart.
    fits(tasks([], uniform[:2], [eval_set, blobs(4, 2.0, 1)]))
    fits(tasks([], uniform[:2], [eval_set, blobs(5, 2.0, 1)]))
    ragged = [[tokens(i, rng, 1 + i)] for i in range(3)]
    fits(tasks([], ragged, [eval_set, blobs(5, 2.0, 1), eval_set]))
    # Empty training lists fit for zero epochs.
    fit = fit_stacked(LINEAR, tasks([], [[], []]))
    assert fit.lineages == [[derive_seed(k, purpose=PURPOSE_INIT)] for k in range(2)]
    with pytest.raises(SpecMismatchError):
        fit_stacked(LINEAR, [])
    with pytest.raises(SpecMismatchError):
        fit_stacked(LINEAR, tasks([], uniform + [[tokens(8, rng, 2), tokens(7, rng, 2)]]))
    with pytest.raises(EmptyEvalError):
        fit_stacked(LINEAR, [FitTask(None, blobs(2, 2.0, 0), token_rows(LINEAR, []), 1)])
    with pytest.raises(EmptyEvalError):
        fit_stacked(LINEAR, [FitTask(None, [], token_rows(LINEAR, []), 1)])
    with pytest.raises(SpecMismatchError):
        fit_stacked(LINEAR, [FitTask(initialize(MLP, 1), blobs(2, 2.0, 0), rows, 1)])


@pytest.mark.parametrize("spec", [LINEAR, MLP], ids=["linear", "mlp"])
def test_zero_epoch_fit_is_the_init_or_base_bit_for_bit(spec):
    eval_set = blobs(6, 2.0, 4)
    base = train(spec, blobs(8, 2.0, 5), eval_set, seed=9)
    rows = token_rows(spec, eval_set)
    fit = fit_stacked(spec, [FitTask(None, [], rows, 21), FitTask(base, [], rows, 22)])
    init = initialize(spec, 21)
    assert fit.parameters[0].tobytes() == init.parameters.tobytes()
    assert fit.model(0).seed_lineage == (derive_seed(21, purpose=PURPOSE_INIT),)
    assert fit.model(0) == init
    assert fit.model(1) == base
    assert fit.scores == [evaluate(m, eval_set, MetricKind.ACCURACY) for m in (init, base)]


@pytest.mark.parametrize("spec", [LINEAR, MLP], ids=["linear", "mlp"])
def test_train_without_examples_is_initialize_and_fine_tune_refuses(spec):
    eval_set = blobs(6, 2.0, 4)
    for evals in (eval_set, []):
        model = train(spec, [], evals, seed=33)
        assert model == initialize(spec, 33)
        assert model.parameters.tobytes() == initialize(spec, 33).parameters.tobytes()
        with pytest.raises(EmptyFineTuneError):
            fine_tune(model, [], evals, seed=34)


@pytest.mark.parametrize("spec", [LINEAR, MLP], ids=["linear", "mlp"])
def test_evaluate_equals_metrics_score_on_ragged_sequences(spec):
    dataset, _ = generate(
        GenSpec(
            kind=GenKind.TOKEN_TAGGING,
            n=60,
            input_dim=4,
            class_count=3,
            cluster_separation=3.0,
            noise_fraction=0.2,
            seed=8,
            seq_len_range=(2, 8),
        )
    )
    spec = replace(spec, input_dim=4, class_count=3, max_epochs=15)
    examples = list(dataset.examples)
    models = [initialize(spec, 1), train(spec, examples[:30], examples[30:45], seed=2)]
    for model in models:
        # Per-example predictions scored by metrics.score are the reference.
        preds = [predict_distribution(model, ex).argmax(axis=-1) for ex in examples]
        golds = [ex.labels for ex in examples]
        for metric in MetricKind:
            expected = score(preds, golds, metric, class_count=spec.class_count)
            assert evaluate(model, examples, metric) == expected


def reference_train(spec, examples, eval_set, seed, metric):
    """Plain one-model SGD with early stopping, written from the public pieces."""
    model = initialize(spec, seed)
    lineage = list(model.seed_lineage)
    best = evaluate(model, eval_set, metric)
    plateau = 0
    for epoch in range(spec.max_epochs):
        shuffle_seed = derive_seed(seed, iteration=epoch, purpose=PURPOSE_SHUFFLE)
        lineage.append(shuffle_seed)
        order = list(range(len(examples)))
        ScalarStream(shuffle_seed).shuffle(order)
        for start in range(0, len(order), BATCH_SIZE):
            batch = [examples[i] for i in order[start : start + BATCH_SIZE]]
            step = spec.learning_rate * gradient(model, batch)
            model = ModelState(spec=spec, parameters=model.parameters - step, seed_lineage=())
        current = evaluate(model, eval_set, metric)
        plateau = 0 if current - best >= spec.stop_epsilon else plateau + 1
        best = max(best, current)
        if plateau >= spec.patience:
            break
    return ModelState(spec=spec, parameters=model.parameters, seed_lineage=tuple(lineage))


@pytest.mark.parametrize("spec", [LINEAR, MLP], ids=["linear", "mlp"])
@pytest.mark.parametrize("ragged", [False, True], ids=["uniform", "ragged"])
def test_train_matches_plain_reference_loop(spec, ragged):
    rng = np.random.default_rng(5)
    examples = [tokens(i, rng, 1 + (i % 4 if ragged else 1)) for i in range(21)]
    eval_set = [tokens(100 + i, rng, 1 + i % 3) for i in range(12)]
    spec = replace(spec, max_epochs=25, patience=4)
    for metric in (MetricKind.ACCURACY, MetricKind.TOKEN_F1, MetricKind.EXACT_MATCH):
        model = train(spec, examples, eval_set, seed=17, metric=metric)
        assert model == reference_train(spec, examples, eval_set, 17, metric)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_windowed_fits_equal_the_plain_loop(data):
    # Windows are cut by patience, by max_epochs and, with a small
    # WINDOW_FLOATS, by the floats they may hold; each stacked model must
    # still be the plain one-epoch-at-a-time loop's, bit for bit.
    spec = replace(
        data.draw(st.sampled_from([LINEAR, MLP])),
        patience=data.draw(st.integers(1, 5)),
        max_epochs=data.draw(st.integers(1, 12)),
        stop_epsilon=data.draw(st.sampled_from([1e-4, 0.02, 0.1, 0.5])),
    )
    metric = data.draw(st.sampled_from(list(MetricKind)))
    loss_based = data.draw(st.booleans())
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
    ragged = data.draw(st.booleans())
    ids = iter(range(10**6))

    def example_list(count):
        # Ragged examples hold 1-4 tokens, so a padded batch can hold one
        # token row, which is stepped on that row alone as the plain loop
        # steps it.
        widths = rng.integers(1, 5, size=count) if ragged else [2] * count
        return [tokens(next(ids), rng, int(w)) for w in widths]

    n = data.draw(st.integers(1, 12))
    # One eval list for every model, or a few: the second holds the first's
    # tokens with each example bound one token earlier (2+2 against 1+3),
    # so that the models of one eval group, which holds one token total,
    # count their misses over their own bounds.
    first = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=8))
    bounds = np.cumsum(first)[:-1]
    shifted = np.diff([0, *bounds[bounds > 1] - 1, sum(first)]).tolist()
    lists = data.draw(st.integers(1, 3))
    evals = [first, shifted, data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=8))]
    evals = [token_rows(spec, [tokens(next(ids), rng, w) for w in ws]) for ws in evals[:lists]]
    tasks = [
        FitTask(None, example_list(n), evals[data.draw(st.integers(0, lists - 1))], k)
        for k in range(data.draw(st.integers(1, 6)))
    ]
    floats = data.draw(st.sampled_from([1, 200, 2000, learners.WINDOW_FLOATS]))
    with mock.patch.object(learners, "WINDOW_FLOATS", floats):
        fit = fit_stacked(spec, tasks, metric=metric)
    scores = stacked_scores(spec, fit, tasks, loss_based)
    for k, task in enumerate(tasks):
        eval_set = task.eval_rows.examples
        plain = reference_train(spec, task.examples, eval_set, task.seed, metric)
        value = -loss(plain, eval_set) if loss_based else evaluate(plain, eval_set, metric)
        assert fit.model(k).parameters.tobytes() == plain.parameters.tobytes()
        assert fit.lineages[k] == list(plain.seed_lineage)
        assert scores[k] == value


@pytest.mark.parametrize("spec", [LINEAR, MLP], ids=["linear", "mlp"])
def test_exact_match_fits_score_without_the_per_example_scorer(spec, monkeypatch):
    # Exact match is counted in the window's array passes, as the other
    # metrics are: a stacked fit must never call metrics.score, which stays
    # the reference below. Three eval lists hold 4 tokens cut into other
    # examples, so their models sit in one eval group.
    def refuse(*args, **kwargs):
        raise AssertionError("learners called metrics.score")

    monkeypatch.setattr(learners, "score", refuse)
    rng = np.random.default_rng(23)
    spec = replace(spec, max_epochs=30, patience=3)
    lists = [[2, 2], [1, 3], [1, 1, 2], [3, 1, 2, 2], [1, 1, 1]]
    evals = [[tokens(100 * j + i, rng, w) for i, w in enumerate(ws)] for j, ws in enumerate(lists)]
    tasks = [
        FitTask(None, [tokens(10 * k + i, rng, 1 + i % 3) for i in range(9)], rows, k)
        for k, rows in enumerate(token_rows(spec, ev) for ev in evals * 2)
    ]
    metric = MetricKind.EXACT_MATCH
    fit = fit_stacked(spec, tasks, metric=metric)
    for k, task in enumerate(tasks):
        eval_set = task.eval_rows.examples
        plain = reference_train(spec, task.examples, eval_set, task.seed, metric)
        assert fit.model(k) == plain
        preds = [predict_distribution(plain, ex).argmax(axis=-1) for ex in eval_set]
        assert fit.scores[k] == score(preds, [ex.labels for ex in eval_set], metric)
    assert len({len(lineage) for lineage in fit.lineages}) > 1


@pytest.mark.parametrize("spec", [LINEAR, MLP], ids=["linear", "mlp"])
def test_every_drawn_shuffle_order_is_used(spec, monkeypatch):
    # Each window's orders are drawn when the window is cut, and no active
    # model stops inside a window, so the orders passed through
    # shuffled_ranges are exactly the epochs the models ran.
    drawn = []

    def counting(seeds, n):
        drawn.extend(seeds)
        return shuffled_ranges(seeds, n)

    monkeypatch.setattr(learners, "shuffled_ranges", counting)
    rng = np.random.default_rng(3)
    eval_set = token_rows(spec, [tokens(100 + i, rng, 1 + i % 3) for i in range(10)])
    for patience, epsilon in ((2, 1e-4), (5, 0.05), (40, 1e-4)):
        spec = replace(spec, patience=patience, stop_epsilon=epsilon, max_epochs=60)
        tasks = [
            FitTask(None, [tokens(10 * k + i, rng, 2) for i in range(9)], eval_set, k)
            for k in range(6)
        ]
        drawn.clear()
        fit = fit_stacked(spec, tasks, metric=MetricKind.TOKEN_F1)
        ran = [seed for lineage in fit.lineages for seed in lineage[1:]]
        assert sorted(drawn) == sorted(ran)
        assert len({len(lineage) for lineage in fit.lineages}) > 1


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_stacked_fit_matches_one_at_a_time_fits_for_any_task_mix(data):
    spec = replace(data.draw(st.sampled_from([LINEAR, MLP])), max_epochs=8, patience=2)
    metric = data.draw(st.sampled_from(list(MetricKind)))
    loss_based = data.draw(st.booleans())
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
    # One token count for every example, or None for ragged ones.
    width = data.draw(st.none() | st.integers(1, 4))
    ids = iter(range(10**6))
    made = []

    def example(example_id):
        made.append(tokens(example_id, rng, width or data.draw(st.integers(1, 4))))
        return made[-1]

    def example_list(count):
        return [example(next(ids)) for _ in range(count)]

    def candidate():
        # A new example, one made before (another task's candidate, or in
        # any labeled or eval list), or its twin: another object of its id,
        # which must train as an example of its own.
        how = data.draw(st.sampled_from(["new", "again", "twin"]))
        if how == "new":
            return example(next(ids))
        old = data.draw(st.sampled_from(made))
        return old if how == "again" else example(old.id)

    # Labeled lists are drawn from a small pool, so tasks share some
    # labeled examples as the engine's tasks do, and candidates share
    # Example objects at any position of another task's list.
    n = data.draw(st.integers(1, 10))
    labeled = {}
    evals = [token_rows(spec, example_list(data.draw(st.integers(1, 6)))) for _ in range(3)]
    tasks = []
    for k in range(data.draw(st.integers(1, 6))):
        split = data.draw(st.integers(0, n))
        if split not in labeled:
            labeled[split] = example_list(split)
        base = None
        if data.draw(st.booleans()):
            params = rng.normal(scale=0.5, size=parameter_count(spec))
            base = ModelState(spec=spec, parameters=params, seed_lineage=(k, 1))
        eval_set = evals[data.draw(st.integers(0, 2))]
        examples = [*labeled[split], *(candidate() for _ in range(n - split))]
        tasks.append(FitTask(base, examples, eval_set, k))
    fit = fit_stacked(spec, tasks, metric=metric)
    scores = stacked_scores(spec, fit, tasks, loss_based)
    for k, task in enumerate(tasks):
        alone, value = fit_alone(
            spec,
            task.base,
            task.examples,
            task.eval_rows.examples,
            task.seed,
            metric,
            loss_based,
        )
        assert fit.model(k).parameters.tobytes() == alone.parameters.tobytes()
        assert fit.lineages[k] == list(alone.seed_lineage)
        assert scores[k] == value


@pytest.mark.parametrize("dim, classes", [(10, 3), (10, 16), (16, 3)])
def test_zero_padded_rows_leave_stacked_products_bit_equal(dim, classes):
    # A ragged model's examples are padded with zero rows to its widest.
    # That changes no output bit only while this build's matmul and sum
    # add those zeros exactly, and a product's row bits ignore its row
    # count, which holds here for inner dims below 32; a numpy or BLAS
    # change that breaks it fails here by name rather than as a
    # fingerprint mismatch elsewhere.
    rng = np.random.default_rng(dim * classes)
    for _ in range(100):
        models = int(rng.integers(1, 6))
        counts = rng.integers(1, 9, size=(models, BATCH_SIZE))
        width = int(counts.max())
        x_pad = np.zeros((models, BATCH_SIZE, width, dim))
        delta_pad = np.zeros((models, BATCH_SIZE, width, classes))
        xs, deltas = [], []
        for k in range(models):
            x = rng.normal(size=(int(counts[k].sum()), dim))
            delta = rng.normal(size=(x.shape[0], classes)) / x.shape[0]
            starts = np.concatenate([[0], np.cumsum(counts[k])])
            for i in range(BATCH_SIZE):
                x_pad[k, i, : counts[k, i]] = x[starts[i] : starts[i + 1]]
                delta_pad[k, i, : counts[k, i]] = delta[starts[i] : starts[i + 1]]
            xs.append(x)
            deltas.append(delta)
        x_pad = x_pad.reshape(models, -1, dim)
        delta_pad = delta_pad.reshape(models, -1, classes)
        # Padded per example: the gradient's reductions over rows.
        products = delta_pad.swapaxes(-1, -2) @ x_pad
        sums = delta_pad.sum(axis=-2)
        # The forward pass over the padded rows.
        weights = rng.normal(size=(models, classes, dim))
        logits = x_pad @ weights.swapaxes(-1, -2)
        real = (np.arange(width) < counts[..., None]).reshape(models, -1)
        for k, (x, delta) in enumerate(zip(xs, deltas)):
            assert products[k].tobytes() == (delta.T @ x).tobytes()
            assert sums[k].tobytes() == delta.sum(axis=0).tobytes()
            assert logits[k][real[k]].tobytes() == (x @ weights[k].T).tobytes()


@pytest.mark.parametrize("spec", [LINEAR, MLP], ids=["linear", "mlp"])
def test_one_token_batches_padded_in_a_stack_step_as_the_plain_loop(spec):
    # Nine examples of 1-4 tokens: the last batch of each epoch holds one
    # example, so a model whose example there has one token steps on one
    # row. numpy multiplies a one-row matrix through gemv, and the same row
    # padded in a stack through gemm, whose bits can differ.
    rng = np.random.default_rng(41)
    spec = replace(spec, max_epochs=4, patience=2)
    evals = token_rows(spec, [tokens(900 + i, rng, 2) for i in range(6)])
    metric = MetricKind.ACCURACY
    for trial in range(40):
        lists = [
            [tokens(100 * k + i, rng, int(rng.integers(1, 5))) for i in range(9)]
            for k in range(3)
        ]
        # One list of one-token examples, which the plain loop never pads.
        lists.append([tokens(400 + i, rng, 1) for i in range(9)])
        tasks = [FitTask(None, lists[k], evals, 10 * trial + k) for k in range(4)]
        fit = fit_stacked(spec, tasks, metric=metric)
        for k, task in enumerate(tasks):
            plain = reference_train(spec, task.examples, evals.examples, task.seed, metric)
            assert fit.model(k).parameters.tobytes() == plain.parameters.tobytes()


def test_one_token_eval_list_padded_in_a_stack_scores_as_alone():
    # The logits of this row sit on a tie that gemv, used for a one-row
    # matrix, and gemm, used for the row padded among longer eval lists,
    # broke differently on the build they were found on: scored padded,
    # the model's accuracy read 1.0 against 0.0 alone. An eval list is now
    # stacked only beside lists of its own token total, never padded.
    hexes = [
        "0x1.4dd2f26bd103cp+0",
        "0x1.e4e7cbc69bca3p-1",
        "-0x1.684ffc1daaf28p-1",
        "-0x1.43f2a959cc8bbp+0",
        "0x0.0p+0",
        "-0x1.49bc63cddbc63p+3",
    ]
    params = np.array([float.fromhex(h) for h in hexes])
    model = ModelState(spec=LINEAR, parameters=params, seed_lineage=(1,))
    row = [[float.fromhex("-0x1.299a9bc1a2383p+2"), float.fromhex("-0x1.c015d809d257ep-2")]]
    one = [Example(id=0, features=np.array(row), labels=np.array([0]), sequence=True)]
    rng = np.random.default_rng(0)
    longer = [tokens(1 + i, rng, 3) for i in range(2)]
    tasks = [
        FitTask(model, [], token_rows(LINEAR, one), 1),
        FitTask(model, [], token_rows(LINEAR, longer), 2),
    ]
    for metric in MetricKind:
        fit = fit_stacked(LINEAR, tasks, metric=metric)
        assert fit.scores == [evaluate(model, one, metric), evaluate(model, longer, metric)]


def mean_loss_alone(model, examples):
    """One model's mean token cross-entropy over its pooled rows, from its
    own log-softmax: the loss formula before the stacked scorer took it."""
    rows = token_rows(model.spec, examples)
    affine = learners._affine(learners._unpack(model.spec, model.parameters))
    logp = learners._log_softmax(learners._forward(affine, rows.x)[0])
    return float(-logp[np.arange(len(rows.y)), rows.y].mean())


@pytest.mark.parametrize("family", ["linear", "mlp"])
@pytest.mark.parametrize("dim", [2, 10, 32, 48])
@pytest.mark.parametrize("layout", ["shared", "one-total", "several-totals"])
def test_score_stack_equals_each_model_scored_alone(family, dim, layout):
    # Seven models scored side by side: on one shared list, on their own
    # lists of one token total cut into other examples, or on lists of
    # three totals. Each score must be the model's score alone bit for bit.
    rng = np.random.default_rng(dim)
    spec = LearnerSpec(
        family=LearnerFamily.LINEAR_SOFTMAX if family == "linear" else LearnerFamily.MLP,
        input_dim=dim,
        class_count=3,
        hidden_dim=0 if family == "linear" else 6,
    )
    ids = iter(range(10**6))

    def eval_list(widths):
        return [tokens(next(ids), rng, w, dim=dim, classes=3) for w in widths]

    if layout == "shared":
        shared = token_rows(spec, eval_list([1, 3, 2, 4, 1, 2]))
        rows = [shared] * 7
    elif layout == "one-total":
        cuts = [[12], [6, 6], [1, 11], [4, 4, 4], [2, 3, 7], [1] * 12, [5, 1, 2, 4]]
        rows = [token_rows(spec, eval_list(c)) for c in cuts]
    else:
        rows = [token_rows(spec, eval_list([1 + k % 3] * (2 + k % 3))) for k in range(7)]
    params = rng.normal(size=(7, parameter_count(spec)))
    models = [ModelState(spec=spec, parameters=p, seed_lineage=()) for p in params]
    for metric in [*MetricKind, None]:
        stacked = learners.score_stack(spec, params, rows, metric)
        alone = [
            -mean_loss_alone(m, r.examples) if metric is None else evaluate(m, r.examples, metric)
            for m, r in zip(models, rows)
        ]
        assert [v.hex() for v in stacked] == [v.hex() for v in alone]
    assert [loss(m, r.examples) for m, r in zip(models, rows)] == [
        mean_loss_alone(m, r.examples) for m, r in zip(models, rows)
    ]


@pytest.mark.parametrize("spec", [LINEAR, MLP], ids=["linear", "mlp"])
def test_init_matches_the_scalar_stream(spec):
    rng = np.random.default_rng(305)
    seeds = [0, 1, 2**63 - 1, 2**63, 2**64 - 1]
    seeds += rng.integers(0, 2**64, size=300, dtype=np.uint64).tolist()
    for seed in seeds:
        stream = SplitMix64(seed)
        expected = [
            (2.0 * stream.next_float() - 1.0) * spec.init_scale
            for _ in range(parameter_count(spec))
        ]
        assert _init_params(spec, seed).tobytes() == np.array(expected).tobytes()


def reference_gradient(spec, params, x, one_hot, real=None):
    """The mean token cross-entropy gradient as plain expressions, each a
    new array: the reference the in-place workspace must match bit for bit."""
    d, c, h = spec.input_dim, spec.class_count, spec.hidden_dim
    lead = params.shape[:-1]

    def affine(rows, w, b):
        return rows @ w.swapaxes(-1, -2) + b[..., None, :]

    if spec.family is LearnerFamily.LINEAR_SOFTMAX:
        w, b = params[..., : c * d].reshape(*lead, c, d), params[..., c * d :]
        z, hidden = affine(x, w, b), None
    else:
        w1, b1 = params[..., : h * d].reshape(*lead, h, d), params[..., h * d : h * d + h]
        w2 = params[..., h * d + h : h * d + h + c * h].reshape(*lead, c, h)
        b2 = params[..., h * d + h + c * h :]
        hidden = np.tanh(affine(x, w1, b1))
        z = affine(hidden, w2, b2)
    shifted = z - z.max(axis=-1, keepdims=True)
    log_p = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    delta = np.exp(log_p) - one_hot
    if real is None:
        delta /= x.shape[-2]
    else:
        delta /= np.count_nonzero(real, axis=-1)[..., None, None]
        delta *= real[..., None]
    delta_t = delta.swapaxes(-1, -2)
    if hidden is None:
        return np.concatenate([(delta_t @ x).reshape(*lead, -1), delta.sum(axis=-2)], axis=-1)
    g_w2 = delta_t @ hidden
    g_b2 = delta.sum(axis=-2)
    d_act = (delta @ w2) * (1.0 - hidden * hidden)
    g_w1 = d_act.swapaxes(-1, -2) @ x
    g_b1 = d_act.sum(axis=-2)
    return np.concatenate(
        [g_w1.reshape(*lead, -1), g_b1, g_w2.reshape(*lead, -1), g_b2], axis=-1
    )


@pytest.mark.parametrize("spec", [LINEAR, MLP], ids=["linear", "mlp"])
@pytest.mark.parametrize("models", [1, 7])
@pytest.mark.parametrize("padded", [False, True], ids=["uniform", "padded"])
def test_workspace_step_matches_the_plain_step(spec, models, padded):
    rng = np.random.default_rng(models)
    spec = replace(spec, input_dim=5, class_count=3)
    width = 3

    def batch(count, examples):
        # Rows, gold rows, the reference's mask of token rows (None when
        # there is no padding) and each row's divisor: its model's count
        # of token rows, or inf on padding.
        rows = examples * width
        x = rng.normal(size=(count, rows, spec.input_dim))
        y = rng.integers(0, spec.class_count, size=(count, rows))
        real = None
        denom = np.full((count, rows), rows)
        if padded:
            real = rng.random((count, rows)) < 0.6
            real[:, 0] = True
            x[~real], y[~real] = 0.0, -1
            denom = np.where(real, np.count_nonzero(real, axis=-1)[:, None], np.inf)
        return x, y[..., None] == np.arange(spec.class_count), real, denom

    stack = rng.normal(size=(models, parameter_count(spec)))
    work = _Workspace(spec, stack.copy())
    # A full batch, then the short last batch of an epoch.
    for examples in (BATCH_SIZE, 2):
        x, gold, real, denom = batch(models, examples)
        stack = stack - spec.learning_rate * reference_gradient(spec, stack, x, gold, real)
        work.step(x, gold, denom)
        assert work.params.tobytes() == stack.tobytes()
    # After models leave, the kept models step on in a workspace of their
    # gathered rows.
    kept = [0, 2, 5, 6] if models == 7 else [0]
    work, stack = _Workspace(spec, work.params[kept]), stack[kept]
    for _ in range(2):
        x, gold, real, denom = batch(len(kept), BATCH_SIZE)
        stack = stack - spec.learning_rate * reference_gradient(spec, stack, x, gold, real)
        work.step(x, gold, denom)
        assert work.params.tobytes() == stack.tobytes()
    # The public gradient is the one-model case of the same code.
    if not padded:
        model = ModelState(spec=spec, parameters=stack[0], seed_lineage=())
        whole = Example(id=0, features=x[0], labels=gold[0].argmax(axis=-1), sequence=True)
        expected = reference_gradient(spec, stack[0], x[0], gold[0])
        assert gradient(model, [whole]).tobytes() == expected.tobytes()

    # Saturated models on a fit's own batches, each row divided by the
    # divisor the window gives it. Parameters near 1e150 overflow the
    # first batch's products with features near 1e160, so its deltas hold
    # NaN: the linear logits reach inf, and the mlp's +inf hidden inputs
    # meet a -inf hidden bias. An inf output bias on every other model of
    # a stack of 7 gives its padding rows NaN too. The short last batch
    # holds ordinary features, so its padding rows' terms are finite until
    # divided.
    n = BATCH_SIZE + 2
    lengths = rng.integers(1, width + 1, size=(models, n)) if padded else np.full((models, n), width)
    lengths[0, 0] = width
    if padded:
        lengths[:, -1] = 1
    lists = [
        [
            Example(
                id=i,
                features=rng.normal(size=(w, spec.input_dim)) * (1e160 if i < BATCH_SIZE else 1.0),
                labels=rng.integers(0, spec.class_count, size=w),
                sequence=True,
            )
            for i, w in enumerate(row)
        ]
        for row in lengths.tolist()
    ]
    empty = token_rows(spec, [])
    _, steps = learners._stacked_batches(spec, [FitTask(None, e, empty, 0) for e in lists])

    class Recorder:
        # Stands in for the workspace: keeps each batch it is stepped on.
        params = np.zeros((models, 1))

        def __init__(self):
            self.batches = []

        def step(self, *batch):
            self.batches.append(batch)

    recorder = Recorder()
    steps(recorder, np.arange(models), np.broadcast_to(np.arange(n), (1, models, n)))
    batches = recorder.batches
    stack = 1e150 * rng.normal(size=(models, parameter_count(spec)))
    if spec.family is LearnerFamily.MLP:
        stack[:, spec.hidden_dim * spec.input_dim] = -np.inf
    stack[1::2, -1] = np.inf
    work = _Workspace(spec, stack.copy())
    nan = []
    for x, gold, denom, lone in batches:
        assert lone is None
        real = gold.any(axis=-1) if padded else None
        with np.errstate(over="ignore", invalid="ignore"):
            expected = reference_gradient(spec, stack, x, gold, real)
            assert work.gradient(x, gold, denom).tobytes() == expected.tobytes()
        nan.append(np.isnan(expected).any(axis=-1).tolist())
    assert nan == [[True] * models, [k % 2 == 1 for k in range(models)]]
