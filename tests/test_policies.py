import numpy as np
import pytest

from alol.datagen import GenKind, GenSpec, generate
from alol.errors import NanScoreError, SpecMismatchError, StaleCandidateError
from alol.learners import (
    LearnerFamily,
    LearnerSpec,
    ModelState,
    fit_stacked,
    initialize,
    token_rows,
    train,
)
from alol.metrics import MetricKind, mean_entropy
from alol.policies import (
    PolicySpec,
    PolicyName,
    TrainingMode,
    candidate_fits,
    epsilon_explore,
    lowest_argmax,
    oracle_candidate_scores,
    select_longest,
    select_random,
    select_uncertainty,
)
from alol.pool import CandidateSet, Dataset, Example, PoolState, sample_candidates
from alol.rng import SplitMix64, derive_seed

from test_learners import fit_alone, stacked_scores


def seq_example(example_id, length, label=0, dim=2):
    return Example(
        id=example_id,
        features=np.full((length, dim), float(example_id)),
        labels=np.full(length, label, dtype=int),
        sequence=True,
    )


def make_dataset(lengths):
    return Dataset(
        examples=tuple(seq_example(i, n) for i, n in enumerate(lengths))
    )


def singletons(*ids):
    return [CandidateSet(ids=(i,), candidate_index=j) for j, i in enumerate(ids)]


def test_lowest_argmax_tie_rule():
    assert lowest_argmax([0.3, 0.7, 0.5]) == 1
    assert lowest_argmax([0.5, 0.5]) == 0
    assert lowest_argmax([1.0]) == 0


def test_lowest_argmax_refuses_nan_and_orders_negative_infinity():
    with pytest.raises(NanScoreError):
        lowest_argmax([0.5, float("nan"), 0.9])
    with pytest.raises(NanScoreError):
        lowest_argmax([float("nan")])
    assert lowest_argmax([-np.inf, 0.1]) == 1
    assert lowest_argmax([-np.inf, -np.inf]) == 0
    assert lowest_argmax([0.2, -np.inf, 0.2]) == 0


def test_policy_spec_validation():
    with pytest.raises(SpecMismatchError):
        PolicySpec(name=PolicyName.EPSILON_GREEDY, epsilon=1.5)
    with pytest.raises(SpecMismatchError):
        PolicySpec(name=PolicyName.ORACLE_SWITCH, switch_after=-1)


def test_select_random_single_candidate():
    assert select_random(1, seed=9).chosen_index == 0


def test_select_random_deterministic_and_uniform():
    outcome = select_random(5, seed=77)
    assert outcome == select_random(5, seed=77)
    counts = [0] * 5
    trials = 100000
    for seed in range(trials):
        counts[select_random(5, seed).chosen_index] += 1
    for c in counts:
        assert abs(c / trials - 0.2) < 0.01


def test_select_longest_examples():
    dataset = make_dataset([4, 4, 5])
    outcome = select_longest(singletons(0, 1, 2), dataset)
    assert outcome.chosen_index == 2
    assert outcome.scores == (4.0, 4.0, 5.0)
    assert select_longest(singletons(0, 1), dataset).chosen_index == 0
    assert select_longest(singletons(2), dataset).chosen_index == 0


def test_select_longest_uses_mean_over_set():
    dataset = make_dataset([2, 10, 5, 5])
    candidates = [
        CandidateSet(ids=(0, 1), candidate_index=0),  # mean 6
        CandidateSet(ids=(2, 3), candidate_index=1),  # mean 5
    ]
    outcome = select_longest(candidates, dataset)
    assert outcome.chosen_index == 0
    assert outcome.scores == (6.0, 5.0)


def test_select_longest_matches_brute_force():
    rng = np.random.default_rng(13)
    for _ in range(25):
        lengths = [int(rng.integers(1, 12)) for _ in range(10)]
        dataset = make_dataset(lengths)
        k, size = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        candidates = [
            CandidateSet(
                ids=tuple(int(v) for v in rng.choice(10, size=size, replace=False)),
                candidate_index=j,
            )
            for j in range(k)
        ]
        means = [float(np.mean([lengths[i] for i in c.ids])) for c in candidates]
        best = max(range(k), key=lambda j: (means[j], -j))
        assert select_longest(candidates, dataset).chosen_index == best


def linear_spec(dim=2, classes=2):
    return LearnerSpec(
        family=LearnerFamily.LINEAR_SOFTMAX,
        input_dim=dim,
        class_count=classes,
        learning_rate=0.5,
    )


def test_select_uncertainty_prefers_flat_distributions():
    # Weights read only the first feature, so example A (zero features) gets
    # a uniform distribution while example B is pushed toward class 1.
    model = ModelState(
        spec=linear_spec(),
        parameters=np.array([0.0, 0.0, 4.0, 0.0, 0.0, 0.0]),
        seed_lineage=(),
    )
    examples = (
        Example(id=0, features=np.zeros((1, 2)), labels=np.array([0]), sequence=False),
        Example(id=1, features=np.array([[1.0, 0.0]]), labels=np.array([0]), sequence=False),
    )
    dataset = Dataset(examples=examples)
    outcome = select_uncertainty(model, singletons(1, 0), dataset)
    assert outcome.chosen_index == 1
    assert outcome.scores[1] > outcome.scores[0]


def test_select_uncertainty_all_equal_ties_to_zero():
    model = ModelState(spec=linear_spec(), parameters=np.zeros(6), seed_lineage=())
    dataset = make_dataset([1, 1, 1])
    outcome = select_uncertainty(model, singletons(0, 1, 2), dataset)
    assert outcome.chosen_index == 0
    assert all(s == pytest.approx(np.log(2)) for s in outcome.scores)


def test_select_uncertainty_matches_brute_force():
    from alol.learners import predict_distribution

    rng = np.random.default_rng(17)
    built = []
    for i in range(8):
        length = int(rng.integers(1, 4))
        built.append(
            Example(
                id=i,
                features=rng.normal(size=(length, 2)),
                labels=np.zeros(length, dtype=int),
                sequence=True,
            )
        )
    dataset = Dataset(examples=tuple(built))
    model = ModelState(spec=linear_spec(), parameters=rng.normal(size=6), seed_lineage=())
    candidates = [
        CandidateSet(ids=(0, 3), candidate_index=0),
        CandidateSet(ids=(5,), candidate_index=1),
        CandidateSet(ids=(2, 7, 1), candidate_index=2),
    ]
    outcome = select_uncertainty(model, candidates, dataset)
    expected = []
    for c in candidates:
        rows = np.concatenate([predict_distribution(model, dataset.get(i)) for i in c.ids])
        expected.append(mean_entropy(rows))
    assert outcome.scores == pytest.approx(tuple(expected))
    assert outcome.chosen_index == int(np.argmax(expected))


def cluster_dataset(n=60, dim=2, classes=2, separation=6.0, noise=0.0, seed=5):
    spec = GenSpec(
        kind=GenKind.GAUSSIAN_CLUSTERS,
        n=n,
        input_dim=dim,
        class_count=classes,
        cluster_separation=separation,
        noise_fraction=noise,
        seed=seed,
    )
    return generate(spec)


def oracle_fixture(seed=5):
    dataset, _ = cluster_dataset(seed=seed)
    pool = PoolState(
        labeled=tuple(range(4)),
        unlabeled=tuple(range(4, 40)),
        eval=tuple(range(40, 56)),
        report=tuple(range(56, 60)),
    )
    base = train(
        linear_spec(),
        dataset.subset(pool.labeled),
        dataset.subset(pool.eval),
        seed=3,
    )
    return dataset, pool, base


def test_select_oracle_with_stub_scores():
    dataset, pool, base = oracle_fixture()
    candidates = sample_candidates(pool, 3, 1, seed=1)
    stub = {0: 0.3, 1: 0.7, 2: 0.5}
    scores = oracle_candidate_scores(pool, candidates, lambda c: stub[c.candidate_index])
    assert scores == (0.3, 0.7, 0.5)
    assert lowest_argmax(scores) == 1

    tie = oracle_candidate_scores(pool, candidates[:2], lambda c: 0.5)
    assert lowest_argmax(tie) == 0


def test_select_oracle_rejects_stale_candidates():
    dataset, pool, base = oracle_fixture()
    stale = [CandidateSet(ids=(0,), candidate_index=0)]  # id 0 is labeled
    with pytest.raises(StaleCandidateError):
        oracle_candidate_scores(pool, stale, lambda c: 0.5)


def test_oracle_modes_build_different_models():
    dataset, pool, base = oracle_fixture()
    candidates = sample_candidates(pool, 3, 1, seed=4)
    labeled = dataset.subset(pool.labeled)
    eval_set = dataset.subset(pool.eval)

    def scores(model, mode):
        rows = token_rows(linear_spec(), eval_set)
        tasks = candidate_fits(model, candidates, dataset, labeled, rows, mode, 7)
        return fit_stacked(linear_spec(), tasks, metric=MetricKind.ACCURACY).scores

    union = scores(base, TrainingMode.FINE_TUNE_UNION)
    cand_only = scores(base, TrainingMode.FINE_TUNE_CANDIDATE_ONLY)
    independent = scores(None, TrainingMode.INDEPENDENT_FROM_SCRATCH)
    assert len(union) == len(cand_only) == len(independent) == 3
    assert all(0.0 <= s <= 1.0 for s in union + cand_only + independent)
    # From scratch, the base is ignored.
    assert scores(base, TrainingMode.INDEPENDENT_FROM_SCRATCH) == independent


def test_fine_tune_modes_require_base():
    dataset, pool, _ = oracle_fixture()
    candidates = sample_candidates(pool, 2, 1, seed=5)
    for mode in (TrainingMode.FINE_TUNE_UNION, TrainingMode.FINE_TUNE_CANDIDATE_ONLY):
        with pytest.raises(SpecMismatchError):
            rows = token_rows(linear_spec(), dataset.subset(pool.eval))
            candidate_fits(None, candidates, dataset, [], rows, mode, 0)


def test_loss_oracle_minimizes_stub_loss():
    dataset, pool, base = oracle_fixture()
    candidates = sample_candidates(pool, 3, 1, seed=6)
    losses = {0: 0.9, 1: 0.2, 2: 0.4}
    scores = oracle_candidate_scores(pool, candidates, lambda c: -losses[c.candidate_index])
    assert lowest_argmax(scores) == 1
    equal = oracle_candidate_scores(pool, candidates, lambda c: -0.5)
    assert lowest_argmax(equal) == 0


def test_loss_oracle_agrees_with_oracle_under_calibrated_stub():
    dataset, pool, base = oracle_fixture()
    candidates = sample_candidates(pool, 4, 1, seed=8)
    metric_stub = {0: 0.2, 1: 0.9, 2: 0.4, 3: 0.6}
    by_metric = oracle_candidate_scores(pool, candidates, lambda c: metric_stub[c.candidate_index])
    by_loss = oracle_candidate_scores(
        pool, candidates, lambda c: -(1.0 - metric_stub[c.candidate_index])
    )
    assert lowest_argmax(by_metric) == lowest_argmax(by_loss)


# The engine runs the oracle on an epsilon-greedy step only when
# ``epsilon_explore`` returns None, the exploit branch.
def test_epsilon_zero_always_exploits():
    for seed in range(50):
        assert epsilon_explore(0.0, 3, seed) is None


def test_epsilon_one_never_invokes_thunk():
    counts = [0] * 4
    for seed in range(20000):
        outcome = epsilon_explore(1.0, 4, seed)
        assert outcome.branch == "explore"
        assert outcome.scores is None
        counts[outcome.chosen_index] += 1
    for c in counts:
        assert abs(c / 20000 - 0.25) < 0.02


@pytest.mark.parametrize("epsilon", [-0.1, 1.5])
def test_epsilon_outside_the_unit_interval_is_refused(epsilon):
    with pytest.raises(SpecMismatchError, match="outside"):
        epsilon_explore(epsilon, 3, 0)


def test_epsilon_explore_fraction():
    trials = 100000
    explored = sum(epsilon_explore(0.3, 5, seed) is not None for seed in range(trials))
    assert abs(explored / trials - 0.3) < 0.01


def test_epsilon_draw_matches_policy_stream():
    # The explore decision consumes the first float of the policy stream and
    # the explore index the next integer, all from one stream.
    from alol.rng import PURPOSE_POLICY

    seed = 424242
    stream = SplitMix64(derive_seed(seed, purpose=PURPOSE_POLICY))
    u = stream.next_float()
    expected_index = stream.next_below(6)
    outcome = epsilon_explore(1.0, 6, seed)
    assert u < 1.0
    assert outcome.chosen_index == expected_index


def test_oracle_finds_informative_examples_on_rigged_data():
    # With many classes a re-drawn label is almost always wrong, so training on
    # a corrupted example measurably hurts eval accuracy while a clean one does
    # not; the oracle should therefore pick clean candidates almost every time.
    spec = LearnerSpec(
        family=LearnerFamily.LINEAR_SOFTMAX,
        input_dim=6,
        class_count=6,
        learning_rate=1.0,
        max_epochs=150,
    )
    from alol.pool import commit_selection, split_dataset

    informative_hits = 0
    decided = 0
    for master in (29, 456):
        dataset, informative = cluster_dataset(
            n=240, dim=6, classes=6, separation=5.0, noise=0.3,
            seed=master * 7 + 1,
        )
        pool = split_dataset(dataset, (4, 112, 120, 4), seed=master * 7 + 2)
        eval_set = dataset.subset(pool.eval)
        for i in range(1, 11):
            scope = derive_seed(master, iteration=i)
            candidates = sample_candidates(pool, 5, 1, scope)
            labeled = dataset.subset(pool.labeled)
            base = train(spec, labeled, eval_set, scope)
            rows = token_rows(spec, eval_set)
            tasks = candidate_fits(
                base, candidates, dataset, labeled, rows, TrainingMode.FINE_TUNE_UNION, scope
            )
            chosen = lowest_argmax(fit_stacked(spec, tasks, metric=MetricKind.ACCURACY).scores)
            kinds = {informative[c.ids[0]] for c in candidates}
            if len(kinds) == 2:
                decided += 1
                informative_hits += informative[candidates[chosen].ids[0]]
            pool = commit_selection(pool, candidates[chosen])
    assert decided >= 15
    assert informative_hits / decided >= 0.8


def one_at_a_time(spec, tasks, metric, loss_based=False):
    """Each task's score from its own ``train`` or ``fine_tune`` fit, then
    ``evaluate`` or the negated ``loss``."""
    fits = (
        fit_alone(spec, t.base, t.examples, t.eval_rows.examples, t.seed, metric, loss_based)
        for t in tasks
    )
    return tuple(value for _, value in fits)


@pytest.mark.parametrize("mode", list(TrainingMode))
@pytest.mark.parametrize("loss_based", [False, True])
def test_stacked_scoring_matches_one_candidate_at_a_time(mode, loss_based):
    dataset, pool, base = oracle_fixture()
    candidates = sample_candidates(pool, 5, 2, seed=6)
    labeled, eval_set = dataset.subset(pool.labeled), dataset.subset(pool.eval)
    rows = token_rows(linear_spec(), eval_set)
    tasks = candidate_fits(base, candidates, dataset, labeled, rows, mode, 13)
    stacked = fit_stacked(linear_spec(), tasks, metric=MetricKind.ACCURACY)
    assert tuple(stacked_scores(linear_spec(), stacked, tasks, loss_based)) == one_at_a_time(
        linear_spec(), tasks, MetricKind.ACCURACY, loss_based
    )


def test_ragged_candidates_are_scored_as_one_stack():
    spec = GenSpec(
        kind=GenKind.TOKEN_TAGGING,
        n=40,
        input_dim=3,
        class_count=3,
        cluster_separation=6.0,
        noise_fraction=0.0,
        seed=3,
        seq_len_range=(2, 5),
    )
    dataset, _ = generate(spec)
    pool = PoolState(
        labeled=(0, 1, 2), unlabeled=tuple(range(3, 30)), eval=tuple(range(30, 40)), report=()
    )
    learner = linear_spec(dim=3, classes=3)
    labeled, eval_set = dataset.subset(pool.labeled), dataset.subset(pool.eval)
    base = train(learner, labeled, eval_set, seed=1)
    candidates = sample_candidates(pool, 4, 1, seed=2)
    rows = token_rows(learner, eval_set)
    mode = TrainingMode.FINE_TUNE_UNION
    tasks = candidate_fits(base, candidates, dataset, labeled, rows, mode, 5)
    for metric in MetricKind:
        # One stack of all four, with the scores of fitting each candidate
        # alone through fine_tune.
        scores = fit_stacked(learner, tasks, metric=metric).scores
        assert len(scores) == 4
        assert one_at_a_time(learner, tasks, metric) == tuple(scores)
