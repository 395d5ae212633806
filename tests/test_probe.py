import math

import pytest

from alol.datagen import GenKind, GenSpec, generate
from alol.errors import NanScoreError, PoolExhaustedError, SpecMismatchError
from alol import engine, learners, probe
from alol.learners import LearnerFamily, LearnerSpec, fit_stacked, token_rows, train
from alol.metrics import MetricKind
from alol.policies import PolicyName, PolicySpec, TrainingMode, candidate_fits, lowest_argmax
from alol.pool import commit_selection, sample_candidates, split_dataset
from alol.probe import (
    MrrConfig,
    random_mrr_baseline,
    rank_of,
    run_mrr_probe,
)
from alol.rng import SplitMix64, derive_seed
from alol.schema import to_json


def cluster_dataset(n=64, seed=21, noise=0.2):
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


def linear_learner(**overrides):
    base = dict(
        family=LearnerFamily.LINEAR_SOFTMAX,
        input_dim=4,
        class_count=2,
        learning_rate=0.5,
        max_epochs=20,
    )
    base.update(overrides)
    return LearnerSpec(**base)


def make_config(**overrides):
    base = dict(
        iterations=5,
        candidate_count=4,
        set_size=1,
        learner=linear_learner(),
        selection_metric=MetricKind.ACCURACY,
        seed_pair=(31, 32),
        partition_sizes=(6, 44, 8, 6),
    )
    base.update(overrides)
    return MrrConfig(**base)


def test_rank_of_counts_strictly_greater():
    assert rank_of(0, [0.5, 0.7, 0.6]) == 3
    assert rank_of(1, [0.5, 0.7, 0.6]) == 1
    assert rank_of(2, [0.5, 0.7, 0.6]) == 2


def test_rank_of_ties_favor_reference():
    assert rank_of(0, [0.5, 0.5]) == 1
    assert rank_of(1, [0.5, 0.5]) == 1
    assert rank_of(2, [0.9, 0.4, 0.4, 0.4]) == 2


def test_rank_of_rejects_bad_index():
    with pytest.raises(SpecMismatchError):
        rank_of(3, [0.1, 0.2, 0.3])
    with pytest.raises(SpecMismatchError):
        rank_of(-1, [0.1])


def test_rank_of_refuses_nan():
    # A NaN second-pass score must not read as agreement with the reference.
    with pytest.raises(NanScoreError):
        rank_of(1, [2.0, math.nan])
    with pytest.raises(NanScoreError):
        rank_of(0, [math.nan, 1.0])


def test_nan_in_second_pass_stops_the_probe():
    def factory(run, iteration):
        return lambda candidate: math.nan if run == 1 else float(candidate.candidate_index)

    with pytest.raises(NanScoreError):
        run_mrr_probe(make_config(iterations=2), cluster_dataset(), scorer_factory=factory)


def test_random_baseline_closed_forms():
    assert random_mrr_baseline(1) == 1.0
    assert random_mrr_baseline(2) == 0.75
    assert random_mrr_baseline(5) == 137 / 300
    with pytest.raises(SpecMismatchError):
        random_mrr_baseline(0)


def test_random_baseline_matches_uniform_rank_simulation():
    stream = SplitMix64(515)
    trials = 100_000
    total = sum(1.0 / (stream.next_below(5) + 1) for _ in range(trials))
    assert total / trials == pytest.approx(137 / 300, abs=0.005)


@pytest.mark.parametrize(
    "learner",
    [
        linear_learner(),
        linear_learner(family=LearnerFamily.MLP, hidden_dim=6),
    ],
)
def test_identical_seeds_give_perfect_mrr(learner):
    config = make_config(learner=learner, seed_pair=(31, 31))
    report = run_mrr_probe(config, cluster_dataset())
    assert report.overall_mrr == 1.0
    assert report.ranks == (1,) * 5


def test_identical_seeds_perfect_under_independent_mode():
    config = make_config(
        seed_pair=(31, 31),
        training_mode=TrainingMode.INDEPENDENT_FROM_SCRATCH,
    )
    report = run_mrr_probe(config, cluster_dataset())
    assert report.overall_mrr == 1.0


def test_probe_is_deterministic():
    config = make_config()
    dataset = cluster_dataset()
    assert run_mrr_probe(config, dataset) == run_mrr_probe(config, dataset)


def test_injected_scores_control_ranks():
    # Iteration 1: both passes agree on candidate 2 -> rank 1.
    # Iteration 2: reference picks 0, second pass puts two above it -> rank 3.
    tables = {
        (0, 1): [0.1, 0.2, 0.9, 0.3],
        (1, 1): [0.4, 0.1, 0.8, 0.2],
        (0, 2): [0.9, 0.1, 0.2, 0.3],
        (1, 2): [0.5, 0.9, 0.7, 0.1],
    }

    def factory(run, iteration):
        return lambda candidate: tables[(run, iteration)][candidate.candidate_index]

    config = make_config(iterations=2)
    report = run_mrr_probe(config, cluster_dataset(), scorer_factory=factory)
    assert report.ranks == (1, 3)
    assert report.overall_mrr == pytest.approx((1.0 + 1 / 3) / 2)


def test_uniform_second_pass_approaches_harmonic_baseline():
    streams = {}

    def factory(run, iteration):
        stream = streams.setdefault(run, SplitMix64(900 + run))
        return lambda candidate: stream.next_float()

    config = make_config(
        iterations=2000,
        candidate_count=5,
        partition_sizes=(0, 2050, 4, 0),
    )
    report = run_mrr_probe(config, cluster_dataset(n=2054), scorer_factory=factory)
    assert report.baseline == pytest.approx(137 / 300)
    assert report.overall_mrr == pytest.approx(137 / 300, abs=0.02)


def test_windows_partition_the_ranks():
    tables = {}

    def factory(run, iteration):
        return lambda candidate: float(-candidate.candidate_index * (run + 1))

    config = make_config(iterations=25, window=10, partition_sizes=(2, 48, 4, 2))
    report = run_mrr_probe(config, cluster_dataset(n=56), scorer_factory=factory)
    spans = [(w.start, w.end) for w in report.windows]
    assert spans == [(1, 10), (11, 20), (21, 25)]
    weighted = sum(w.mrr * (w.end - w.start + 1) for w in report.windows)
    assert weighted / 25 == pytest.approx(report.overall_mrr)


def test_rank_order_invariant_under_monotone_transform():
    def base_factory(run, iteration):
        stream = SplitMix64(run * 1000 + iteration)
        return lambda candidate: stream.next_float() + candidate.candidate_index

    def scaled_factory(run, iteration):
        inner = base_factory(run, iteration)
        return lambda candidate: 2.0 * inner(candidate) + 1.0

    config = make_config(iterations=8)
    dataset = cluster_dataset()
    plain = run_mrr_probe(config, dataset, scorer_factory=base_factory)
    scaled = run_mrr_probe(config, dataset, scorer_factory=scaled_factory)
    assert plain.ranks == scaled.ranks


def test_probe_truncates_when_pool_runs_dry():
    config = make_config(iterations=10, partition_sizes=(4, 3, 6, 3))
    report = run_mrr_probe(config, cluster_dataset(n=16))
    assert report.truncated
    assert len(report.ranks) == 3


def test_probe_raises_when_no_iteration_possible():
    config = make_config(iterations=4, partition_sizes=(4, 0, 6, 6))
    with pytest.raises(PoolExhaustedError):
        run_mrr_probe(config, cluster_dataset(n=16))


def test_config_validation_and_json():
    with pytest.raises(SpecMismatchError):
        make_config(iterations=0)
    with pytest.raises(SpecMismatchError):
        make_config(window=0)
    with pytest.raises(SpecMismatchError):
        make_config(seed_pair=(1, 2, 3))
    with pytest.raises(SpecMismatchError):
        make_config(partition_sizes=(6, 44, -1, 6))
    data = to_json(make_config())
    assert data["seed_pair"] == [31, 32]
    assert data["training_mode"] == "fine_tune_union"
    assert data["selection_metric"] == "accuracy"


@pytest.mark.parametrize("mode", list(TrainingMode))
def test_one_stack_of_both_passes_matches_two_scoring_passes(mode):
    learner = LearnerSpec(
        family=LearnerFamily.MLP,
        input_dim=4,
        class_count=2,
        hidden_dim=5,
        learning_rate=1.0,
        max_epochs=15,
        patience=3,
    )
    config = make_config(learner=learner, iterations=6, training_mode=mode)
    dataset = cluster_dataset()
    report = run_mrr_probe(config, dataset)

    seed_ref, seed_alt = config.seed_pair
    pool = split_dataset(dataset, config.partition_sizes, seed_ref)
    eval_examples = dataset.subset(pool.eval)
    eval_rows = token_rows(learner, eval_examples)
    ranks = []
    for i in range(1, config.iterations + 1):
        scope_ref = derive_seed(seed_ref, iteration=i)
        candidates = sample_candidates(pool, config.candidate_count, 1, scope_ref)
        labeled = dataset.subset(pool.labeled)
        base = None
        if mode is not TrainingMode.INDEPENDENT_FROM_SCRATCH:
            base = train(learner, labeled, eval_examples, scope_ref)
        ref, alt = (
            fit_stacked(
                learner,
                candidate_fits(base, candidates, dataset, labeled, eval_rows, mode, scope),
            ).scores
            for scope in (scope_ref, derive_seed(seed_alt, iteration=i))
        )
        chosen = lowest_argmax(ref)
        ranks.append(rank_of(chosen, alt))
        pool = commit_selection(pool, candidates[chosen])
    assert report.ranks == tuple(ranks)


@pytest.mark.parametrize("mode", list(TrainingMode))
def test_probe_fits_one_base_and_one_candidate_stack_per_iteration(monkeypatch, mode):
    # The probe runs the engine's step: a base stack of one model, then
    # both passes' candidates as one stack of 2K, which share one operand
    # shape and so run as one SGD stack.
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
    config = make_config(iterations=3, training_mode=mode)
    report = run_mrr_probe(config, cluster_dataset())
    assert len(report.ranks) == 3
    per_iteration = [8] if mode is TrainingMode.INDEPENDENT_FROM_SCRATCH else [1, 8]
    assert sizes == stacks == per_iteration * 3


def test_probe_refuses_zero_jobs_and_an_empty_eval_partition():
    dataset = cluster_dataset()
    with pytest.raises(SpecMismatchError, match="jobs=0"):
        run_mrr_probe(make_config(), dataset, jobs=0)
    with pytest.raises(SpecMismatchError, match="eval partition"):
        run_mrr_probe(make_config(partition_sizes=(6, 44, 0, 6)), dataset)


@pytest.mark.parametrize("mode", list(TrainingMode))
def test_reference_pass_is_the_oracle_simulate_step(monkeypatch, mode):
    # The reference pass is the step that an oracle simulate run takes at
    # seed_pair[0]: the same candidates, reference scores and choices.
    seen = []
    commit = probe._commit

    def recording(oracle, dataset, steps):
        commit(oracle, dataset, steps)
        seen.extend(
            (tuple(c.ids for c in s.candidates), s.outcome.chosen_index, s.scores[0])
            for s in steps
        )

    monkeypatch.setattr(probe, "_commit", recording)
    config = make_config(iterations=6, training_mode=mode)
    dataset = cluster_dataset()
    run_mrr_probe(config, dataset)

    assert config.oracle() == engine.SimulationConfig(
        iterations=6,
        candidate_count=4,
        set_size=1,
        policy=PolicySpec(PolicyName.ORACLE, training_mode=mode),
        learner=config.learner,
        selection_metric=MetricKind.ACCURACY,
        report_metric=MetricKind.ACCURACY,
        master_seed=31,
        partition_sizes=(6, 44, 8, 6),
    )
    log = engine.run_simulation(config.oracle(), dataset)
    assert seen == [(r.candidate_ids, r.chosen_index, r.scores) for r in log.records]
