"""Candidate-selection strategies behind one selection contract.

Every policy returns a ``SelectionOutcome``: the chosen candidate index,
the per-candidate scores it computed (if any), and which branch an
epsilon-greedy draw took. Score-based policies always choose the lowest
argmax index, so ties are deterministic and order-stable.

The oracle scoring loop is shared between ``select_oracle``,
``select_loss_oracle``, and the optimization-consistency probe, so all
three see byte-identical candidate models for the same seeds.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import SpecMismatchError, StaleCandidateError
from .learners import (
    LearnerSpec,
    ModelState,
    can_stack,
    evaluate,
    fine_tune,
    fit_stacked,
    loss,
    predict_distribution,
    train,
)
from .metrics import MetricKind, mean_entropy
from .pool import CandidateSet, Dataset, Example, PoolState
from .rng import PURPOSE_POLICY, SplitMix64, derive_seed


class PolicyName(enum.Enum):
    RANDOM = "random"
    LONGEST = "longest"
    UNCERTAINTY = "uncertainty"
    ORACLE = "oracle"
    EPSILON_GREEDY = "epsilon_greedy"
    ORACLE_SWITCH = "oracle_switch"
    LOSS_ORACLE = "loss_oracle"


class TrainingMode(enum.Enum):
    FINE_TUNE_UNION = "fine_tune_union"
    FINE_TUNE_CANDIDATE_ONLY = "fine_tune_candidate_only"
    INDEPENDENT_FROM_SCRATCH = "independent_from_scratch"


@dataclass(frozen=True)
class PolicySpec:
    """A policy name plus the knobs the variant policies need."""

    name: PolicyName
    epsilon: float = 0.0
    switch_after: int = 0
    training_mode: TrainingMode = TrainingMode.FINE_TUNE_UNION

    def __post_init__(self) -> None:
        if not 0.0 <= self.epsilon <= 1.0:
            raise SpecMismatchError(f"epsilon {self.epsilon} outside [0, 1]")
        if self.switch_after < 0:
            raise SpecMismatchError(f"switch_after {self.switch_after} < 0")


@dataclass(frozen=True)
class SelectionOutcome:
    chosen_index: int
    scores: tuple[float, ...] | None = None
    branch: str | None = None


def lowest_argmax(scores: Sequence[float]) -> int:
    """First index attaining the maximum score."""
    return int(np.argmax(np.asarray(scores, dtype=np.float64)))


def _policy_stream(seed: int) -> SplitMix64:
    return SplitMix64(derive_seed(seed, purpose=PURPOSE_POLICY))


def select_random(candidate_count: int, seed: int) -> SelectionOutcome:
    """Uniform choice over the candidate slots."""
    return SelectionOutcome(chosen_index=_policy_stream(seed).next_below(candidate_count))


def select_longest(
    candidates: Sequence[CandidateSet], dataset: Dataset
) -> SelectionOutcome:
    """Choose the set with the highest mean token count."""
    scores = tuple(
        float(np.mean([dataset.get(i).token_count for i in c.ids])) for c in candidates
    )
    return SelectionOutcome(chosen_index=lowest_argmax(scores), scores=scores)


def select_uncertainty(
    model: ModelState, candidates: Sequence[CandidateSet], dataset: Dataset
) -> SelectionOutcome:
    """Choose the set whose pooled token predictions have maximal mean entropy."""
    scores = []
    for c in candidates:
        rows = np.concatenate(
            [predict_distribution(model, dataset.get(i)) for i in c.ids], axis=0
        )
        scores.append(mean_entropy(rows))
    scores = tuple(scores)
    return SelectionOutcome(chosen_index=lowest_argmax(scores), scores=scores)


def _check_fresh(pool: PoolState, candidates: Sequence[CandidateSet]) -> None:
    unlabeled = set(pool.unlabeled)
    for c in candidates:
        for i in c.ids:
            if i not in unlabeled:
                raise StaleCandidateError(
                    f"candidate {c.candidate_index} references id {i} outside the unlabeled pool"
                )


def oracle_candidate_scores(
    base: ModelState | None,
    pool: PoolState,
    candidates: Sequence[CandidateSet],
    dataset: Dataset,
    labeled_examples: Sequence[Example],
    eval_examples: Sequence[Example],
    mode: TrainingMode,
    metric: MetricKind,
    seed: int,
    *,
    jobs: int = 1,
    scorer: Callable[[CandidateSet], float] | None = None,
    spec: LearnerSpec | None = None,
    loss_based: bool = False,
) -> tuple[float, ...]:
    """Score every candidate set by simulating its commitment.

    Candidate j gets its own derived seed, so scores are independent of
    evaluation order. When every training list has one length and every
    example one token count, the K models are fit as one stacked SGD run;
    otherwise one at a time. Both give the same bytes. ``jobs`` must be
    >= 1 and changes nothing: scoring runs in the calling thread.
    ``scorer`` short-circuits the model building for stubbed tests.
    ``loss_based`` scores by negated cross-entropy instead of the metric.
    """
    if jobs < 1:
        raise SpecMismatchError(f"jobs={jobs} must be >= 1")
    _check_fresh(pool, candidates)
    if scorer is not None:
        return tuple(float(scorer(c)) for c in candidates)
    if spec is None:
        if base is None:
            raise SpecMismatchError("need a base model or an explicit learner spec")
        spec = base.spec
    if mode is not TrainingMode.INDEPENDENT_FROM_SCRATCH and base is None:
        raise SpecMismatchError(f"{mode.value} needs a base model")
    shared = [] if mode is TrainingMode.FINE_TUNE_CANDIDATE_ONLY else list(labeled_examples)
    extras = [dataset.subset(c.ids) for c in candidates]
    eval_list = list(eval_examples)
    seeds = [derive_seed(seed, candidate=c.candidate_index + 1) for c in candidates]
    if mode is TrainingMode.INDEPENDENT_FROM_SCRATCH:
        base = None
    if can_stack(shared, extras):
        fit = fit_stacked(
            spec if base is None else base.spec,
            shared,
            extras,
            eval_list,
            seeds,
            base=base,
            metric=metric,
            loss_based=loss_based,
        )
        return tuple(fit.scores)

    def build_and_score(examples: list[Example], cand_seed: int) -> float:
        if base is None:
            model = train(spec, shared + examples, eval_list, cand_seed, metric=metric)
        else:
            model = fine_tune(base, shared + examples, eval_list, cand_seed, metric=metric)
        if loss_based:
            return -loss(model, eval_list)
        return evaluate(model, eval_list, metric)

    return tuple(build_and_score(e, s) for e, s in zip(extras, seeds))


def select_oracle(
    base: ModelState | None,
    pool: PoolState,
    candidates: Sequence[CandidateSet],
    dataset: Dataset,
    labeled_examples: Sequence[Example],
    eval_examples: Sequence[Example],
    mode: TrainingMode,
    metric: MetricKind,
    seed: int,
    *,
    jobs: int = 1,
    scorer: Callable[[CandidateSet], float] | None = None,
    spec: LearnerSpec | None = None,
) -> SelectionOutcome:
    """Fine-tune (or retrain) one model per candidate and pick the best score."""
    scores = oracle_candidate_scores(
        base,
        pool,
        candidates,
        dataset,
        labeled_examples,
        eval_examples,
        mode,
        metric,
        seed,
        jobs=jobs,
        scorer=scorer,
        spec=spec,
    )
    return SelectionOutcome(chosen_index=lowest_argmax(scores), scores=scores)


def select_loss_oracle(
    base: ModelState | None,
    pool: PoolState,
    candidates: Sequence[CandidateSet],
    dataset: Dataset,
    labeled_examples: Sequence[Example],
    eval_examples: Sequence[Example],
    mode: TrainingMode,
    metric: MetricKind,
    seed: int,
    *,
    jobs: int = 1,
    scorer: Callable[[CandidateSet], float] | None = None,
    spec: LearnerSpec | None = None,
) -> SelectionOutcome:
    """Like select_oracle but scores are negated eval-set loss."""
    scores = oracle_candidate_scores(
        base,
        pool,
        candidates,
        dataset,
        labeled_examples,
        eval_examples,
        mode,
        metric,
        seed,
        jobs=jobs,
        scorer=scorer,
        spec=spec,
        loss_based=True,
    )
    return SelectionOutcome(chosen_index=lowest_argmax(scores), scores=scores)


def select_epsilon_greedy(
    epsilon: float,
    oracle_thunk: Callable[[], SelectionOutcome],
    candidate_count: int,
    seed: int,
) -> SelectionOutcome:
    """Explore uniformly with probability ``epsilon``, else run the oracle.

    The explore branch never invokes the thunk, so no candidate models are
    built there.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise SpecMismatchError(f"epsilon {epsilon} outside [0, 1]")
    stream = _policy_stream(seed)
    if stream.next_float() < epsilon:
        return SelectionOutcome(
            chosen_index=stream.next_below(candidate_count), branch="explore"
        )
    return replace(oracle_thunk(), branch="exploit")
