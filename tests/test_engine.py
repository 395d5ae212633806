import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alol import engine, learners
from alol.datagen import GenKind, GenSpec, generate
from alol.engine import (
    IterationRecord,
    RunLog,
    SimulationConfig,
    emit_policy_training_examples,
    learning_curve,
    relative_improvement,
    run_simulation,
    run_simulations,
)
from alol.errors import (
    AlignmentError,
    MissingScoresError,
    NanScoreError,
    SpecMismatchError,
    UndefinedPointError,
)
from alol.learners import (
    LearnerFamily,
    LearnerSpec,
    fit_stacked,
    loss,
    predict_distribution,
    token_rows,
    train,
)
from alol.metrics import MetricKind
from alol.policies import (
    PolicyName,
    PolicySpec,
    TrainingMode,
    candidate_fits,
    lowest_argmax,
    select_random,
)
from alol.pool import commit_selection, sample_candidates, split_dataset
from alol.rng import RUN_CHECKPOINT, derive_seed, repeat_seed
from alol.schema import to_json


def small_dataset(n=64, seed=9, noise=0.2):
    spec = GenSpec(
        kind=GenKind.GAUSSIAN_CLUSTERS,
        n=n,
        input_dim=4,
        class_count=2,
        cluster_separation=4.0,
        noise_fraction=noise,
        seed=seed,
    )
    dataset, _ = generate(spec)
    return dataset


def small_learner(**overrides):
    base = dict(
        family=LearnerFamily.LINEAR_SOFTMAX,
        input_dim=4,
        class_count=2,
        learning_rate=0.5,
        max_epochs=20,
    )
    base.update(overrides)
    return LearnerSpec(**base)


def make_config(policy, **overrides):
    base = dict(
        iterations=3,
        candidate_count=4,
        set_size=1,
        policy=policy,
        learner=small_learner(),
        selection_metric=MetricKind.ACCURACY,
        report_metric=MetricKind.ACCURACY,
        master_seed=77,
        partition_sizes=(6, 44, 8, 6),
    )
    base.update(overrides)
    return SimulationConfig(**base)


def test_random_run_shapes_and_choices():
    config = make_config(PolicySpec(name=PolicyName.RANDOM))
    log = run_simulation(config, small_dataset())
    assert len(log.records) == 3
    assert not log.truncated
    assert len(log.initial_labeled_ids) == 6
    for i, record in enumerate(log.records, start=1):
        assert record.iteration == i
        assert record.labeled_size_after == 6 + i
        assert record.scores is None
        assert record.branch is None
        assert record.base_model_fingerprint is None
        assert len(record.candidate_ids) == 4
        scope = derive_seed(77, iteration=i)
        assert record.chosen_index == select_random(4, scope).chosen_index
    assert [r.checkpoint is not None for r in log.records] == [False, False, True]


def test_run_is_deterministic():
    config = make_config(PolicySpec(name=PolicyName.RANDOM))
    dataset = small_dataset()
    assert run_simulation(config, dataset) == run_simulation(config, dataset)


def test_master_seed_changes_run():
    dataset = small_dataset()
    first = run_simulation(
        make_config(PolicySpec(name=PolicyName.RANDOM)), dataset
    )
    second = run_simulation(
        make_config(PolicySpec(name=PolicyName.RANDOM), master_seed=78), dataset
    )
    assert first.initial_labeled_ids != second.initial_labeled_ids


def test_oracle_run_matches_manual_replay():
    # At this size and noise the three checkpoints read three values.
    config = make_config(
        PolicySpec(name=PolicyName.ORACLE),
        iterations=4,
        candidate_count=3,
        checkpoint_every=2,
        partition_sizes=(3, 40, 7, 30),
    )
    dataset = small_dataset(n=80, noise=0.3)
    log = run_simulation(config, dataset)

    pool = split_dataset(dataset, config.partition_sizes, config.master_seed)
    assert log.initial_labeled_ids == pool.labeled
    eval_examples = dataset.subset(pool.eval)
    eval_rows = token_rows(config.learner, eval_examples)
    report = dataset.subset(pool.report)

    def checkpoint(i):
        # The report accuracy of the checkpoint model on the labeled set,
        # counted by hand from each token's argmax.
        model = train(
            config.learner, dataset.subset(pool.labeled), eval_examples,
            derive_seed(config.master_seed, iteration=i, run=RUN_CHECKPOINT),
            metric=config.report_metric,
        )
        hits = sum(
            int(np.count_nonzero(predict_distribution(model, ex).argmax(axis=-1) == ex.labels))
            for ex in report
        )
        return hits / sum(ex.token_count for ex in report), model.fingerprint()

    assert log.initial_checkpoint == checkpoint(0)[0]
    assert [r.iteration for r in log.records if r.checkpoint is not None] == [2, 4]
    for record in log.records:
        scope = derive_seed(config.master_seed, iteration=record.iteration)
        candidates = sample_candidates(pool, 3, 1, scope)
        assert record.candidate_ids == tuple(c.ids for c in candidates)
        labeled = dataset.subset(pool.labeled)
        base = train(
            config.learner, labeled, eval_examples, scope,
            metric=config.selection_metric,
        )
        assert record.base_model_fingerprint == base.fingerprint()
        tasks = candidate_fits(
            base, candidates, dataset, labeled, eval_rows, TrainingMode.FINE_TUNE_UNION, scope
        )
        scores = fit_stacked(config.learner, tasks, metric=config.selection_metric).scores
        assert record.scores == tuple(scores)
        assert record.chosen_index == lowest_argmax(scores)
        pool = commit_selection(pool, candidates[record.chosen_index])
        if record.checkpoint is not None:
            value, fingerprint = checkpoint(record.iteration)
            assert record.checkpoint == value
    assert log.final_model_fingerprint == fingerprint


def test_step_scores_one_row_per_fit_scope(monkeypatch):
    # Three fit scopes: the base fits under the first, row j is the
    # candidates' fit under scope j alone, the choice reads row 0, and the
    # phase is still one base stack and one candidate stack. At this size
    # and rate the rows' loss scores, and their choices, differ by scope.
    config = make_config(
        PolicySpec(name=PolicyName.LOSS_ORACLE),
        candidate_count=3,
        set_size=4,
        learner=small_learner(family=LearnerFamily.MLP, hidden_dim=5, learning_rate=2.0),
    )
    dataset = small_dataset()
    run = engine._start(config, dataset, config.master_seed)
    (step,) = engine._sample(config, dataset, 1, [run])
    labeled = dataset.subset(run.pool.labeled)
    scopes = (step.scope, derive_seed(5, iteration=1), derive_seed(6, iteration=1))
    step.fit_scopes = scopes
    sizes = []

    def counting(spec, tasks, **kwargs):
        sizes.append(len(tasks))
        return fit_stacked(spec, tasks, **kwargs)

    monkeypatch.setattr(engine, "fit_stacked", counting)
    engine._score(config, dataset, [step])
    engine._commit(config, dataset, [step])
    assert sizes == [1, 9]

    eval_set = dataset.subset(run.pool.eval)
    base = train(config.learner, labeled, eval_set, scopes[0], metric=config.selection_metric)
    assert step.base == base
    fits = [
        fit_stacked(
            config.learner,
            candidate_fits(
                base, step.candidates, dataset, labeled, run.eval_rows,
                TrainingMode.FINE_TUNE_UNION, scope,
            ),
            metric=config.selection_metric,
        )
        for scope in scopes
    ]
    rows = tuple(
        tuple(-loss(fit.model(k), eval_set) for k in range(len(step.candidates)))
        for fit in fits
    )
    assert step.scores == rows
    assert lowest_argmax(rows[0]) != lowest_argmax(rows[1])
    assert step.outcome.chosen_index == lowest_argmax(rows[0])
    assert step.outcome.scores == rows[0]


def test_jobs_do_not_change_output():
    config = make_config(PolicySpec(name=PolicyName.ORACLE), iterations=4)
    dataset = small_dataset()
    serial = run_simulation(config, dataset, jobs=1)
    threaded = run_simulation(config, dataset, jobs=8)
    assert to_json(serial) == to_json(threaded)


def test_uncertainty_records_carry_entropy_scores():
    config = make_config(PolicySpec(name=PolicyName.UNCERTAINTY))
    log = run_simulation(config, small_dataset())
    for record in log.records:
        assert record.scores is not None
        assert record.base_model_fingerprint is not None
        assert all(s >= 0.0 for s in record.scores)


def test_learning_curve_contract():
    config = make_config(
        PolicySpec(name=PolicyName.RANDOM), iterations=5, checkpoint_every=2
    )
    log = run_simulation(config, small_dataset())
    curve = learning_curve(log)
    assert [size for size, _ in curve] == [6, 8, 10, 11]
    assert curve[0][1] == log.initial_checkpoint
    for _, value in curve:
        assert 0.0 <= value <= 1.0


def test_epsilon_greedy_branches_recorded():
    config = make_config(
        PolicySpec(name=PolicyName.EPSILON_GREEDY, epsilon=0.5),
        iterations=6,
        master_seed=5,
    )
    log = run_simulation(config, small_dataset())
    branches = {r.branch for r in log.records}
    assert branches == {"explore", "exploit"}
    for record in log.records:
        if record.branch == "explore":
            assert record.scores is None
        else:
            assert record.scores is not None


def test_oracle_switch_stops_scoring_after_budget():
    config = make_config(
        PolicySpec(name=PolicyName.ORACLE_SWITCH, switch_after=2), iterations=4
    )
    log = run_simulation(config, small_dataset())
    for record in log.records:
        if record.iteration <= 2:
            assert record.scores is not None
            assert record.branch == "oracle"
        else:
            assert record.scores is None
            assert record.branch == "random"


def test_log_oracle_scores_fills_random_records():
    config = make_config(
        PolicySpec(name=PolicyName.RANDOM), log_oracle_scores=True
    )
    dataset = small_dataset()
    log = run_simulation(config, dataset)
    plain = run_simulation(
        make_config(PolicySpec(name=PolicyName.RANDOM)), dataset
    )
    for record, plain_record in zip(log.records, plain.records):
        assert record.scores is not None
        assert len(record.scores) == 4
        assert record.chosen_index == plain_record.chosen_index


def test_truncation_fills_final_checkpoint():
    dataset = small_dataset(n=16)
    config = make_config(
        PolicySpec(name=PolicyName.RANDOM),
        iterations=5,
        partition_sizes=(4, 2, 6, 4),
        master_seed=3,
    )
    log = run_simulation(config, dataset)
    assert log.truncated
    assert len(log.records) == 2
    assert log.records[-1].checkpoint is not None
    curve = learning_curve(log)
    assert [size for size, _ in curve] == [4, 6]


@pytest.mark.parametrize("repeats", [1, 3])
def test_pool_running_dry_after_a_checkpoint_keeps_it(monkeypatch, repeats):
    # Two unlabeled ids run dry at iteration 3, one iteration after the
    # checkpoint scheduled at iteration 2: that checkpoint is the last one.
    config = make_config(
        PolicySpec(name=PolicyName.RANDOM),
        iterations=5,
        partition_sizes=(4, 2, 6, 4),
        checkpoint_every=2,
    )
    seen = []
    checkpoints = engine._checkpoints

    def counting(config, dataset, due):
        seen.extend((run.master, i) for run, i in due)
        return checkpoints(config, dataset, due)

    monkeypatch.setattr(engine, "_checkpoints", counting)
    seeds = [repeat_seed(3, r) for r in range(repeats)]
    logs = run_simulations(config, small_dataset(n=16), seeds)
    assert sorted(seen) == sorted((seed, i) for seed in seeds for i in (0, 2))
    for log in logs:
        assert log.truncated
        assert [r.checkpoint is not None for r in log.records] == [False, True]


def test_relative_improvement_example():
    gain = relative_improvement([(100, 52.9)], [(100, 48.3)])
    assert gain[0][0] == 100
    assert gain[0][1] == pytest.approx(9.5238, abs=1e-3)


def test_relative_improvement_alignment_checks():
    with pytest.raises(AlignmentError):
        relative_improvement([(10, 0.5)], [(10, 0.5), (20, 0.6)])
    with pytest.raises(AlignmentError):
        relative_improvement([(10, 0.5)], [(11, 0.5)])
    with pytest.raises(UndefinedPointError):
        relative_improvement([(10, 0.5)], [(10, 0.0)])


def test_emit_policy_training_examples(tmp_path):
    config = make_config(PolicySpec(name=PolicyName.ORACLE), iterations=4)
    dataset = small_dataset()
    log = run_simulation(config, dataset)
    path = tmp_path / "policy.jsonl"
    count = emit_policy_training_examples(log, path)
    assert count == 4
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(lines) == 4
    labeled = set(log.initial_labeled_ids)
    for line, record in zip(lines, log.records):
        assert line["iteration"] == record.iteration
        assert line["labeled_ids"] == sorted(labeled)
        assert line["chosen_index"] == record.chosen_index
        assert line["scores"] == list(record.scores)
        assert line["base_model_fingerprint"] == record.base_model_fingerprint
        labeled.update(record.candidate_ids[record.chosen_index])


def test_emit_rejects_non_oracle_policies(tmp_path):
    config = make_config(PolicySpec(name=PolicyName.RANDOM))
    log = run_simulation(config, small_dataset())
    with pytest.raises(MissingScoresError):
        emit_policy_training_examples(log, tmp_path / "out.jsonl")


def test_emit_skips_unscored_iterations(tmp_path):
    config = make_config(
        PolicySpec(name=PolicyName.EPSILON_GREEDY, epsilon=0.5),
        iterations=6,
        master_seed=5,
    )
    log = run_simulation(config, small_dataset())
    exploits = [r for r in log.records if r.branch == "exploit"]
    path = tmp_path / "policy.jsonl"
    assert emit_policy_training_examples(log, path) == len(exploits)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert [line["iteration"] for line in lines] == [r.iteration for r in exploits]


def test_config_validation():
    with pytest.raises(SpecMismatchError):
        make_config(PolicySpec(name=PolicyName.RANDOM), iterations=0)
    with pytest.raises(SpecMismatchError):
        make_config(
            PolicySpec(name=PolicyName.ORACLE_SWITCH, switch_after=9),
            iterations=3,
        )
    with pytest.raises(SpecMismatchError):
        make_config(PolicySpec(name=PolicyName.RANDOM), checkpoint_every=0)
    with pytest.raises(SpecMismatchError, match="non-negative"):
        make_config(PolicySpec(name=PolicyName.RANDOM), partition_sizes=(6, -1, 8, 6))
    config = make_config(PolicySpec(name=PolicyName.RANDOM))
    with pytest.raises(SpecMismatchError, match="jobs=0"):
        run_simulation(config, small_dataset(), jobs=0)


def test_run_rejects_mismatched_learner_and_empty_partitions():
    dataset = small_dataset()
    config = make_config(
        PolicySpec(name=PolicyName.RANDOM),
        learner=small_learner(input_dim=7, class_count=2),
    )
    with pytest.raises(SpecMismatchError):
        run_simulation(config, dataset)
    config = make_config(
        PolicySpec(name=PolicyName.RANDOM), partition_sizes=(6, 44, 0, 6)
    )
    with pytest.raises(SpecMismatchError):
        run_simulation(config, dataset)


def tagging_dataset(seq_len_range=(2, 5), input_dim=4):
    spec = GenSpec(
        kind=GenKind.TOKEN_TAGGING,
        n=64,
        input_dim=input_dim,
        class_count=2,
        cluster_separation=4.0,
        noise_fraction=0.2,
        seed=9,
        seq_len_range=seq_len_range,
    )
    dataset, _ = generate(spec)
    return dataset


ORACLE = PolicyName.ORACLE
LOCKSTEP_CASES = {
    "random": dict(policy=PolicySpec(name=PolicyName.RANDOM)),
    "longest": dict(policy=PolicySpec(name=PolicyName.LONGEST)),
    "uncertainty": dict(policy=PolicySpec(name=PolicyName.UNCERTAINTY)),
    "oracle": dict(policy=PolicySpec(name=ORACLE)),
    "oracle-candidate-only": dict(
        policy=PolicySpec(name=ORACLE, training_mode=TrainingMode.FINE_TUNE_CANDIDATE_ONLY)
    ),
    "oracle-from-scratch": dict(
        policy=PolicySpec(name=ORACLE, training_mode=TrainingMode.INDEPENDENT_FROM_SCRATCH)
    ),
    "loss-oracle": dict(policy=PolicySpec(name=PolicyName.LOSS_ORACLE)),
    "epsilon-greedy": dict(
        policy=PolicySpec(name=PolicyName.EPSILON_GREEDY, epsilon=0.5), iterations=6
    ),
    "oracle-switch": dict(
        policy=PolicySpec(name=PolicyName.ORACLE_SWITCH, switch_after=2), iterations=4
    ),
    "random-logging-scores": dict(
        policy=PolicySpec(name=PolicyName.RANDOM), log_oracle_scores=True
    ),
    "epsilon-greedy-logging-from-scratch": dict(
        policy=PolicySpec(
            name=PolicyName.EPSILON_GREEDY,
            epsilon=0.5,
            training_mode=TrainingMode.INDEPENDENT_FROM_SCRATCH,
        ),
        iterations=6,
        log_oracle_scores=True,
    ),
    "oracle-no-initial-labels": dict(
        policy=PolicySpec(name=ORACLE), partition_sizes=(0, 44, 8, 6), checkpoint_every=2
    ),
    "oracle-pool-runs-out": dict(
        policy=PolicySpec(name=ORACLE), iterations=5, partition_sizes=(4, 3, 6, 4)
    ),
    "oracle-token-tagging": dict(
        policy=PolicySpec(name=ORACLE),
        selection_metric=MetricKind.MACRO_F1,
        report_metric=MetricKind.TOKEN_F1,
    ),
    # Sequences of 1-60 tokens at input dim 32: a repeat's models padded to
    # the widest example or eval list of the others would take another
    # dgemm kernel than alone, and change bits.
    "oracle-token-tagging-dim32": dict(
        policy=PolicySpec(name=ORACLE),
        learner=small_learner(input_dim=32, family=LearnerFamily.MLP, hidden_dim=16),
        selection_metric=MetricKind.MACRO_F1,
        report_metric=MetricKind.TOKEN_F1,
        partition_sizes=(3, 44, 8, 6),
    ),
    "loss-oracle-token-tagging-dim32": dict(
        policy=PolicySpec(name=PolicyName.LOSS_ORACLE),
        learner=small_learner(input_dim=32),
        selection_metric=MetricKind.MACRO_F1,
        report_metric=MetricKind.TOKEN_F1,
        partition_sizes=(3, 44, 8, 6),
    ),
}


@pytest.mark.parametrize("case", sorted(LOCKSTEP_CASES))
def test_lockstep_repeat_equals_its_single_run(case):
    config = make_config(**LOCKSTEP_CASES[case])
    dataset = small_dataset()
    if "dim32" in case:
        dataset = tagging_dataset((1, 60), input_dim=32)
    elif "tagging" in case:
        dataset = tagging_dataset()
    seeds = [repeat_seed(config.master_seed, r) for r in range(3)]
    logs = run_simulations(config, dataset, seeds)
    assert len(logs) == 3
    for seed, log in zip(seeds, logs):
        alone = run_simulation(replace(config, master_seed=seed), dataset)
        assert log.records == alone.records
        assert log.final_model_fingerprint == alone.final_model_fingerprint
        assert log == alone
        assert to_json(log) == to_json(alone)
    if "epsilon" in case:
        # The repeats draw their branches apart.
        assert len({tuple(r.branch for r in log.records) for log in logs}) > 1
    if "runs-out" in case:
        assert all(log.truncated and log.records[-1].checkpoint is not None for log in logs)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_any_repeat_of_a_lockstep_run_equals_its_single_run(data):
    iterations = data.draw(st.integers(1, 3))
    policy = PolicySpec(
        name=data.draw(st.sampled_from(list(PolicyName))),
        epsilon=data.draw(st.sampled_from([0.0, 0.5, 1.0])),
        switch_after=data.draw(st.integers(0, iterations)),
        training_mode=data.draw(st.sampled_from(list(TrainingMode))),
    )
    tagging = data.draw(st.booleans())
    config = make_config(
        policy,
        iterations=iterations,
        candidate_count=data.draw(st.integers(1, 4)),
        set_size=data.draw(st.integers(1, 2)),
        selection_metric=MetricKind.MACRO_F1 if tagging else MetricKind.ACCURACY,
        master_seed=data.draw(st.integers(0, 2**63)),
        # Three unlabeled ids run out within three iterations of two.
        partition_sizes=(data.draw(st.integers(0, 6)), data.draw(st.sampled_from([3, 44])), 8, 6),
        checkpoint_every=data.draw(st.integers(1, 3)),
        log_oracle_scores=data.draw(st.booleans()),
    )
    if tagging:
        # A batch of one token row, padded to its model's widest example,
        # is stepped on that row alone.
        lengths = data.draw(st.sampled_from([(2, 5), (1, 4), (1, 2), (1, 1)]))
        dataset = tagging_dataset(lengths)
    else:
        dataset = small_dataset()
    seeds = [repeat_seed(config.master_seed, r) for r in range(data.draw(st.integers(1, 3)))]
    logs = run_simulations(config, dataset, seeds)
    assert len(logs) == len(seeds)
    for seed, log in zip(seeds, logs):
        alone = run_simulation(replace(config, master_seed=seed), dataset)
        assert to_json(log) == to_json(alone)


def test_lockstep_repeats_checkpointing_on_one_token_rows_equal_their_single_runs():
    # Each repeat's checkpoint model trains on the one example it picked:
    # in one repeat an example of one token row, in another of two, which
    # pads the first to two rows in the lockstep stack.
    config = make_config(
        PolicySpec(name=PolicyName.RANDOM),
        iterations=1,
        candidate_count=1,
        selection_metric=MetricKind.MACRO_F1,
        master_seed=0,
        partition_sizes=(0, 44, 8, 6),
        checkpoint_every=1,
    )
    dataset = tagging_dataset((1, 2))
    seeds = [repeat_seed(config.master_seed, r) for r in range(2)]
    for seed, log in zip(seeds, run_simulations(config, dataset, seeds)):
        assert to_json(log) == to_json(run_simulation(replace(config, master_seed=seed), dataset))


def phase_sizes(monkeypatch, config, dataset):
    """The number of models in each ``fit_stacked`` call of a 3-repeat run,
    and in each SGD stack those calls run."""
    sizes, stacks = [], []
    sgd = learners._sgd

    def counting(spec, tasks, **kwargs):
        sizes.append(len(tasks))
        return fit_stacked(spec, tasks, **kwargs)

    def counting_stacks(spec, params, tasks, metric):
        stacks.append(len(tasks))
        return sgd(spec, params, tasks, metric)

    monkeypatch.setattr(engine, "fit_stacked", counting)
    monkeypatch.setattr(learners, "_sgd", counting_stacks)
    run_simulations(config, dataset, [1, 2, 3])
    return sizes, stacks


def test_lockstep_fits_each_phase_of_all_repeats_as_one_stack(monkeypatch):
    config = make_config(PolicySpec(name=PolicyName.ORACLE), iterations=3)
    # Per iteration: 3 bases, then 3 x 4 candidates; checkpoints of all
    # three repeats before the loop and after the last iteration. The
    # models of a phase share one operand shape, so each phase is one SGD
    # stack.
    sizes, stacks = phase_sizes(monkeypatch, config, small_dataset())
    assert sizes == stacks == [3] + [3, 12] * 3 + [3]


def test_lockstep_fits_each_phase_of_ragged_repeats_as_one_stack(monkeypatch):
    # Sequences of 2-5 tokens: each phase is one fit_stacked call, which
    # runs one SGD stack per widest training example of its models. At
    # this seed every model's training list holds a 5-token example, so
    # each phase is one SGD stack, though the repeats' eval lists hold
    # 29, 31 and 26 tokens.
    config = make_config(
        PolicySpec(name=PolicyName.ORACLE), iterations=3, selection_metric=MetricKind.MACRO_F1
    )
    sizes, stacks = phase_sizes(monkeypatch, config, tagging_dataset())
    assert sizes == stacks == [3] + [3, 12] * 3 + [3]


def nan_scores(fit):
    """``fit_stacked`` whose models score NaN."""

    def wrapper(spec, tasks, **kwargs):
        return replace(fit(spec, tasks, **kwargs), scores=[float("nan")] * len(tasks))

    return wrapper


def test_nan_score_stops_the_run(monkeypatch):
    monkeypatch.setattr(engine, "fit_stacked", nan_scores(engine.fit_stacked))
    with pytest.raises(NanScoreError):
        run_simulation(make_config(PolicySpec(name=PolicyName.ORACLE)), small_dataset())
