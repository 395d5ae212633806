"""Optimization-consistency probe for the candidate-scoring loop.

The probe replays each iteration's candidate scoring twice, under two
master seeds that differ only in the fine-tuning randomness (the base
model and the candidate sets are shared). The reference run is the
oracle simulation's own iteration step, so its choice advances the pool
exactly as in ``simulate``; the second run only re-ranks. Mean
reciprocal rank of the reference choice under the second run's scores
measures how much the selection depends on optimizer noise: a convex
learner should pin it near 1, a non-convex one should drift toward the
uniform-rank baseline H_K/K.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .engine import SimulationConfig, _commit, _sample, _score, _start
from .errors import NanScoreError, PoolExhaustedError, SpecMismatchError
from .learners import LearnerSpec
from .learners import train  # noqa: F401  (bench/tracing.py wraps this name)
from .metrics import MetricKind
from .policies import PolicyName, PolicySpec, TrainingMode, oracle_candidate_scores
from .pool import CandidateSet, Dataset
from .pool import commit_selection, sample_candidates  # noqa: F401  (bench/tracing.py wraps these)
from .rng import derive_seed


@dataclass(frozen=True)
class MrrConfig:
    iterations: int
    candidate_count: int
    set_size: int
    learner: LearnerSpec
    selection_metric: MetricKind
    seed_pair: tuple[int, int]
    partition_sizes: tuple[int, int, int, int]
    window: int = 10
    training_mode: TrainingMode = TrainingMode.FINE_TUNE_UNION

    def __post_init__(self) -> None:
        if self.window < 1:
            raise SpecMismatchError(f"window={self.window} must be >= 1")
        pair = tuple(int(s) for s in self.seed_pair)
        if len(pair) != 2:
            raise SpecMismatchError(f"seed_pair needs exactly 2 seeds, got {pair}")
        object.__setattr__(self, "seed_pair", pair)
        # The oracle config checks the loop sizes and the partition sizes.
        object.__setattr__(self, "partition_sizes", self.oracle().partition_sizes)

    def oracle(self) -> SimulationConfig:
        """The oracle ``simulate`` config at ``seed_pair[0]`` whose iteration
        step is the probe's reference pass."""
        return SimulationConfig(
            iterations=self.iterations,
            candidate_count=self.candidate_count,
            set_size=self.set_size,
            policy=PolicySpec(PolicyName.ORACLE, training_mode=self.training_mode),
            learner=self.learner,
            selection_metric=self.selection_metric,
            report_metric=self.selection_metric,
            master_seed=self.seed_pair[0],
            partition_sizes=self.partition_sizes,
        )


@dataclass(frozen=True)
class WindowMrr:
    start: int
    end: int
    mrr: float


@dataclass(frozen=True)
class MrrReport:
    windows: tuple[WindowMrr, ...]
    overall_mrr: float
    ranks: tuple[int, ...]
    baseline: float
    truncated: bool


def rank_of(reference_index: int, second_run_scores: Sequence[float]) -> int:
    """Rank of the reference candidate under the second run, ties favor it."""
    if not 0 <= reference_index < len(second_run_scores):
        raise SpecMismatchError(
            f"reference index {reference_index} outside 0..{len(second_run_scores) - 1}"
        )
    if any(math.isnan(s) for s in second_run_scores):
        raise NanScoreError(f"second-run scores {list(second_run_scores)} hold a NaN")
    ref = second_run_scores[reference_index]
    return 1 + sum(1 for s in second_run_scores if s > ref)


def random_mrr_baseline(candidate_count: int) -> float:
    """Expected reciprocal rank under a uniform second-run ranking: H_K/K."""
    if candidate_count < 1:
        raise SpecMismatchError(f"candidate_count={candidate_count} must be >= 1")
    harmonic = sum(Fraction(1, r) for r in range(1, candidate_count + 1))
    return float(harmonic / candidate_count)


def run_mrr_probe(
    config: MrrConfig,
    dataset: Dataset,
    *,
    jobs: int = 1,
    scorer_factory: Callable[[int, int], Callable[[CandidateSet], float]] | None = None,
) -> MrrReport:
    """Score every iteration's candidates under both seeds and rank.

    The reference pass is the oracle simulation's iteration step at
    ``seed_pair[0]``, without checkpoints; the second pass is the step's fit
    scope 2, the iteration scope of ``seed_pair[1]``, whose score row ranks.
    ``scorer_factory(run, iteration)`` can inject a synthetic scorer per
    pass (run 0 = reference, run 1 = second), writing the same two rows, in
    place of model building, for statistical checks of the ranking machinery.
    """
    if jobs < 1:
        raise SpecMismatchError(f"jobs={jobs} must be >= 1")
    seed_ref, seed_alt = config.seed_pair
    oracle = config.oracle()
    run = _start(oracle, dataset, seed_ref)
    if not run.pool.eval:
        raise SpecMismatchError("eval partition must be non-empty")

    ranks: list[int] = []
    for i in range(1, config.iterations + 1):
        steps = _sample(oracle, dataset, i, [run])
        if not steps:
            break
        (step,) = steps
        if scorer_factory is None:
            step.fit_scopes = (step.scope, derive_seed(seed_alt, iteration=i))
            _score(oracle, dataset, steps)
        else:
            step.scores = tuple(
                oracle_candidate_scores(run.pool, step.candidates, scorer_factory(n, i))
                for n in (0, 1)
            )
        _commit(oracle, dataset, steps)
        ranks.append(rank_of(step.outcome.chosen_index, step.scores[1]))

    if not ranks:
        raise PoolExhaustedError("pool exhausted before the first probe iteration")
    reciprocal = [1.0 / r for r in ranks]
    windows: list[WindowMrr] = []
    for start in range(0, len(ranks), config.window):
        chunk = reciprocal[start : start + config.window]
        windows.append(
            WindowMrr(
                start=start + 1,
                end=start + len(chunk),
                mrr=sum(chunk) / len(chunk),
            )
        )
    return MrrReport(
        windows=tuple(windows),
        overall_mrr=sum(reciprocal) / len(reciprocal),
        ranks=tuple(ranks),
        baseline=random_mrr_baseline(config.candidate_count),
        truncated=run.truncated,
    )
