"""Candidate-selection strategies behind one selection contract.

Every policy returns a ``SelectionOutcome``: the chosen candidate index,
the per-candidate scores it computed (if any), and which branch an
epsilon-greedy draw took. Score-based policies always choose the lowest
argmax index, so ties are deterministic and order-stable.

The oracle's candidate fits come from ``candidate_fits``; the simulation
engine fits and scores them as one ``fit_stacked`` run, and the
optimization-consistency probe runs the engine's steps, so both see
byte-identical candidate models for the same seeds. An oracle choice is
the ``lowest_argmax`` of those scores, and ``epsilon_explore`` decides
whether an epsilon-greedy step explores instead.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NanScoreError, SpecMismatchError, StaleCandidateError
from .learners import FitTask, ModelState, TokenRows, predict_distribution
from .learners import evaluate, fine_tune, train  # noqa: F401  (bench/tracing.py wraps these names)
from .metrics import mean_entropy
from .pool import CandidateSet, Dataset, Example, PoolState, stale_id
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
    """First index attaining the maximum score; a NaN score raises ``NanScoreError``."""
    values = np.asarray(scores, dtype=np.float64)
    if np.isnan(values).any():
        raise NanScoreError(f"scores {list(scores)} hold a NaN, so none can be chosen")
    return int(np.argmax(values))


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


def candidate_fits(
    base: ModelState | None,
    candidates: Sequence[CandidateSet],
    dataset: Dataset,
    labeled_examples: Sequence[Example],
    eval_rows: TokenRows,
    mode: TrainingMode,
    seed: int,
) -> list[FitTask]:
    """The fit that scores each candidate set: candidate j trains on
    ``[*labeled_examples, *candidate]``, or on the candidate alone when
    ``mode`` fine-tunes on it only, under the seed derived from ``seed``
    with ``candidate=j+1``, so scores are independent of evaluation order,
    and stops on ``eval_rows``. ``base`` is ignored when ``mode`` trains
    from scratch, and required otherwise."""
    if base is None and mode is not TrainingMode.INDEPENDENT_FROM_SCRATCH:
        raise SpecMismatchError(f"{mode.value} needs a base model")
    labeled = [] if mode is TrainingMode.FINE_TUNE_CANDIDATE_ONLY else labeled_examples
    if mode is TrainingMode.INDEPENDENT_FROM_SCRATCH:
        base = None
    return [
        FitTask(
            base,
            [*labeled, *dataset.subset(c.ids)],
            eval_rows,
            derive_seed(seed, candidate=c.candidate_index + 1),
        )
        for c in candidates
    ]


def oracle_candidate_scores(
    pool: PoolState, candidates: Sequence[CandidateSet], scorer: Callable[[CandidateSet], float]
) -> tuple[float, ...]:
    """Each candidate set's ``scorer`` value, for stubbed oracle tests; the
    sets must still be unlabeled."""
    for c in candidates:
        i = stale_id(pool, c.ids)
        if i is not None:
            raise StaleCandidateError(
                f"candidate {c.candidate_index} references id {i} outside the unlabeled pool"
            )
    return tuple(float(scorer(c)) for c in candidates)


def epsilon_explore(epsilon: float, candidate_count: int, seed: int) -> SelectionOutcome | None:
    """The explore choice of an epsilon-greedy draw, or None when it exploits."""
    if not 0.0 <= epsilon <= 1.0:
        raise SpecMismatchError(f"epsilon {epsilon} outside [0, 1]")
    stream = _policy_stream(seed)
    if stream.next_float() < epsilon:
        return SelectionOutcome(
            chosen_index=stream.next_below(candidate_count), branch="explore"
        )
    return None
