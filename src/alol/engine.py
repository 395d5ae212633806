"""End-to-end simulation driver: B selection iterations plus learning curves.

Each iteration samples K candidate sets, lets the configured policy choose
one, commits it to the labeled pool, and periodically trains a fresh
checkpoint model on the current labeled set to measure a report metric on
the held-out report partition; the checkpoints of all runs due are fit
as one stack and scored in one ``score_stack`` call. The run is a pure
function of (config, dataset): every stochastic call draws from a stream
derived off the master seed with the iteration/candidate/run coordinates,
so the number of runs fit side by side cannot change a byte of the output.

Seed scoping used by the driver (ops mix in their purpose tags themselves):

* dataset split:            master seed
* iteration i scope:        derive(master, iteration=i)  (sampling, policy
                            draws; as the step's one fit scope, the base model)
* candidate j fine-tune:    derived in ``candidate_fits`` from each of the
                            step's fit scopes with candidate=j+1
* checkpoint after iter i:  derive(master, iteration=i, run=1); the
                            pre-loop checkpoint uses iteration=0
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

from .errors import (
    AlignmentError,
    MissingScoresError,
    PoolExhaustedError,
    SpecMismatchError,
    UndefinedPointError,
)
from .learners import (
    FitTask,
    LearnerSpec,
    ModelState,
    TokenRows,
    fit_stacked,
    score_stack,
    token_rows,
)
from .learners import evaluate, train  # noqa: F401  (bench/tracing.py wraps these names)
from .metrics import MetricKind
from .policies import (
    PolicyName,
    PolicySpec,
    SelectionOutcome,
    TrainingMode,
    candidate_fits,
    epsilon_explore,
    lowest_argmax,
    oracle_candidate_scores,  # noqa: F401  (bench/tracing.py wraps this name)
    select_longest,
    select_random,
    select_uncertainty,
)
from .pool import (
    CandidateSet,
    Dataset,
    PoolState,
    commit_selection,
    sample_candidates,
    split_dataset,
)
from .rng import RUN_CHECKPOINT, derive_seed
from .schema import json_line, write_lines

ORACLE_FAMILY = frozenset(
    {
        PolicyName.ORACLE,
        PolicyName.LOSS_ORACLE,
        PolicyName.EPSILON_GREEDY,
        PolicyName.ORACLE_SWITCH,
    }
)


@dataclass(frozen=True)
class SimulationConfig:
    iterations: int
    candidate_count: int
    set_size: int
    policy: PolicySpec
    learner: LearnerSpec
    selection_metric: MetricKind
    report_metric: MetricKind
    master_seed: int
    partition_sizes: tuple[int, int, int, int]
    checkpoint_every: int = 10
    log_oracle_scores: bool = False

    def __post_init__(self) -> None:
        if self.iterations < 1 or self.candidate_count < 1 or self.set_size < 1:
            raise SpecMismatchError(
                f"iterations={self.iterations}, candidate_count={self.candidate_count}, "
                f"set_size={self.set_size} must all be >= 1"
            )
        if self.checkpoint_every < 1:
            raise SpecMismatchError(f"checkpoint_every={self.checkpoint_every} must be >= 1")
        sizes = tuple(int(s) for s in self.partition_sizes)
        if len(sizes) != 4 or any(s < 0 for s in sizes):
            raise SpecMismatchError(f"partition_sizes must be 4 non-negative counts, got {sizes}")
        object.__setattr__(self, "partition_sizes", sizes)
        if (
            self.policy.name is PolicyName.ORACLE_SWITCH
            and self.policy.switch_after > self.iterations
        ):
            raise SpecMismatchError(
                f"switch_after={self.policy.switch_after} exceeds iterations={self.iterations}"
            )


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    candidate_ids: tuple[tuple[int, ...], ...]
    scores: tuple[float, ...] | None
    chosen_index: int
    branch: str | None
    labeled_size_after: int
    checkpoint: float | None
    base_model_fingerprint: str | None


@dataclass(frozen=True)
class RunLog:
    config: SimulationConfig
    initial_labeled_ids: tuple[int, ...]
    initial_checkpoint: float
    records: tuple[IterationRecord, ...]
    final_model_fingerprint: str
    truncated: bool


@dataclass(eq=False)
class _Run:
    """One run's state while the lockstep loop advances it. Its fits stop on
    ``eval_rows`` and its checkpoints score ``report_rows``, each pooled once."""

    master: int
    pool: PoolState
    eval_rows: TokenRows
    report_rows: TokenRows
    initial_labeled_ids: tuple[int, ...]
    initial_checkpoint: float = 0.0
    final_fingerprint: str = ""
    records: list[IterationRecord] = field(default_factory=list)
    truncated: bool = False


@dataclass(eq=False)
class _Step:
    """One run's iteration between sampling and commit. ``scope`` seeds the
    sampling and the preset draws; the base fits under ``fit_scopes[0]``, the
    candidates under each fit scope, and ``scores`` holds a row per fit scope."""

    run: _Run
    scope: int
    fit_scopes: tuple[int, ...]
    candidates: list[CandidateSet]
    outcome: SelectionOutcome | None
    base: ModelState | None = None
    scores: tuple[tuple[float, ...], ...] | None = None


def _checkpoints(config: SimulationConfig, dataset: Dataset, due: list[tuple[_Run, int]]):
    """Train each due run's checkpoint model on its labeled set and score it
    on its report rows, all in one stack; returns (value, fingerprint) per entry."""
    if not due:
        return []
    tasks = [
        FitTask(
            None,
            dataset.subset(run.pool.labeled),
            run.eval_rows,
            derive_seed(run.master, iteration=i, run=RUN_CHECKPOINT),
        )
        for run, i in due
    ]
    fit = fit_stacked(config.learner, tasks, metric=config.report_metric)
    rows = [run.report_rows for run, _ in due]
    values = score_stack(config.learner, fit.parameters, rows, config.report_metric)
    return [(value, fit.model(k).fingerprint()) for k, value in enumerate(values)]


def _preset(
    config: SimulationConfig, i: int, scope: int, candidates: list[CandidateSet], dataset: Dataset
) -> SelectionOutcome | None:
    """The policy's choice at iteration i when it needs no model, else None."""
    name, k = config.policy.name, config.candidate_count
    if name is PolicyName.RANDOM:
        return select_random(k, scope)
    if name is PolicyName.LONGEST:
        return select_longest(candidates, dataset)
    if name is PolicyName.EPSILON_GREEDY:
        return epsilon_explore(config.policy.epsilon, k, scope)
    if name is PolicyName.ORACLE_SWITCH and i > config.policy.switch_after:
        return replace(select_random(k, scope), branch="random")
    return None


# The branch an oracle-scored choice records, per policy.
_ORACLE_BRANCH = {PolicyName.EPSILON_GREEDY: "exploit", PolicyName.ORACLE_SWITCH: "oracle"}


def _start(config: SimulationConfig, dataset: Dataset, master: int) -> _Run:
    """A run's split of ``dataset`` at ``master`` before its first iteration,
    its eval and report rows pooled and checked against the learner."""
    if config.learner.input_dim != dataset.feature_dim:
        raise SpecMismatchError(
            f"learner expects dim {config.learner.input_dim}, dataset has {dataset.feature_dim}"
        )
    pool = split_dataset(dataset, config.partition_sizes, master)
    rows = [token_rows(config.learner, dataset.subset(ids)) for ids in (pool.eval, pool.report)]
    return _Run(master, pool, *rows, pool.labeled)


def _sample(config: SimulationConfig, dataset: Dataset, i: int, live: list[_Run]) -> list[_Step]:
    """Iteration i's candidates and preset choice of each live run; a run
    whose unlabeled pool is too small is marked truncated and left out."""
    steps = []
    for run in live:
        scope = derive_seed(run.master, iteration=i)
        try:
            candidates = sample_candidates(run.pool, config.candidate_count, config.set_size, scope)
        except PoolExhaustedError:
            run.truncated = True
            continue
        outcome = _preset(config, i, scope, candidates, dataset)
        steps.append(_Step(run, scope, (scope,), candidates, outcome))
    return steps


def _score(config: SimulationConfig, dataset: Dataset, steps: list[_Step]) -> None:
    """Fit the base models of the steps that need one as one stack, then
    the candidates of every scored step, under each of its fit scopes, as
    another."""
    name, mode = config.policy.name, config.policy.training_mode
    # A run needs oracle scores when its policy chooses by them, or when
    # it logs them beside a choice that came without scores; it needs a
    # base model for uncertainty or to fine-tune candidates.
    scored = [
        s
        for s in steps
        if (s.outcome is None and name is not PolicyName.UNCERTAINTY)
        or (config.log_oracle_scores and s.outcome is not None and s.outcome.scores is None)
    ]
    needs_base = [
        s
        for s in steps
        if (s.outcome is None and name is PolicyName.UNCERTAINTY)
        or (s in scored and mode is not TrainingMode.INDEPENDENT_FROM_SCRATCH)
    ]
    # Each fitting step's labeled examples, the dataset's own objects, once.
    labeled = {s: dataset.subset(s.run.pool.labeled) for s in [*needs_base, *scored]}
    if needs_base:
        tasks = [FitTask(None, labeled[s], s.run.eval_rows, s.fit_scopes[0]) for s in needs_base]
        fit = fit_stacked(config.learner, tasks, metric=config.selection_metric)
        for k, s in enumerate(needs_base):
            s.base = fit.model(k)
    tasks = [
        task
        for s in scored
        for scope in s.fit_scopes
        for task in candidate_fits(
            s.base, s.candidates, dataset, labeled[s], s.run.eval_rows, mode, scope
        )
    ]
    if not tasks:
        return
    fit = fit_stacked(config.learner, tasks, metric=config.selection_metric)
    values = iter(
        score_stack(config.learner, fit.parameters, [t.eval_rows for t in tasks], None)
        if name is PolicyName.LOSS_ORACLE
        else fit.scores
    )
    for s in scored:
        s.scores = tuple(tuple(next(values) for _ in s.candidates) for _ in s.fit_scopes)


def _commit(config: SimulationConfig, dataset: Dataset, steps: list[_Step]) -> None:
    """Choose each step's candidate and commit it to its run's pool; an
    oracle choice, or a logged preset one, records row 0 of the scores."""
    name = config.policy.name
    for s in steps:
        row = None if s.scores is None else s.scores[0]
        if s.outcome is None and name is PolicyName.UNCERTAINTY:
            s.outcome = select_uncertainty(s.base, s.candidates, dataset)
        elif s.outcome is None:
            s.outcome = SelectionOutcome(lowest_argmax(row), row, _ORACLE_BRANCH.get(name))
        elif row is not None:
            s.outcome = replace(s.outcome, scores=row)
        s.run.pool = commit_selection(s.run.pool, s.candidates[s.outcome.chosen_index])


def run_simulations(
    config: SimulationConfig, dataset: Dataset, seeds: Sequence[int]
) -> list[RunLog]:
    """Run ``config`` once per master seed in ``seeds``, all in lockstep.

    Run r equals ``run_simulation`` of ``config`` at master seed
    ``seeds[r]``, byte for byte: the runs advance one iteration at a time,
    and each phase of an iteration fits the base models, the oracle's
    candidate models and the checkpoint models of every live run side by
    side, in one ``fit_stacked`` call. It stacks the models by operand
    shape and pads only within a model, so no model's products depend on
    the runs beside it.
    """
    if config.partition_sizes[2] == 0 or config.partition_sizes[3] == 0:
        raise SpecMismatchError("eval and report partitions must be non-empty")
    runs = [_start(config, dataset, master) for master in seeds]
    initial = _checkpoints(config, dataset, [(run, 0) for run in runs])
    for run, (value, fingerprint) in zip(runs, initial):
        run.initial_checkpoint, run.final_fingerprint = value, fingerprint

    live = list(runs)
    for i in range(1, config.iterations + 1):
        steps = _sample(config, dataset, i, live)
        _score(config, dataset, steps)
        _commit(config, dataset, steps)

        for s in steps:
            s.run.records.append(
                IterationRecord(
                    iteration=i,
                    candidate_ids=tuple(c.ids for c in s.candidates),
                    scores=s.outcome.scores,
                    chosen_index=s.outcome.chosen_index,
                    branch=s.outcome.branch,
                    labeled_size_after=len(s.run.pool.labeled),
                    checkpoint=None,
                    base_model_fingerprint=None if s.base is None else s.base.fingerprint(),
                )
            )
        # A run's last iteration gets a checkpoint when it is scheduled, or
        # when the run ran out of candidates and that iteration had none.
        scheduled = i % config.checkpoint_every == 0 or i == config.iterations
        due = [
            run
            for run in live
            if run.records and run.records[-1].checkpoint is None and (scheduled or run.truncated)
        ]
        values = _checkpoints(config, dataset, [(run, run.records[-1].iteration) for run in due])
        for run, (value, fingerprint) in zip(due, values):
            run.final_fingerprint = fingerprint
            run.records[-1] = replace(run.records[-1], checkpoint=value)
        live = [s.run for s in steps]
        if not live:
            break

    return [
        RunLog(
            config=replace(config, master_seed=run.master),
            initial_labeled_ids=run.initial_labeled_ids,
            initial_checkpoint=run.initial_checkpoint,
            records=tuple(run.records),
            final_model_fingerprint=run.final_fingerprint,
            truncated=run.truncated,
        )
        for run in runs
    ]


def run_simulation(config: SimulationConfig, dataset: Dataset, *, jobs: int = 1) -> RunLog:
    """Run the selection loop for the configured number of iterations."""
    if jobs < 1:
        raise SpecMismatchError(f"jobs={jobs} must be >= 1")
    (log,) = run_simulations(config, dataset, [config.master_seed])
    return log


def learning_curve(log: RunLog) -> list[tuple[int, float]]:
    """(labeled_size, report_metric) points, starting at the initial set."""
    curve = [(len(log.initial_labeled_ids), log.initial_checkpoint)]
    for record in log.records:
        if record.checkpoint is not None:
            curve.append((record.labeled_size_after, record.checkpoint))
    return curve


def relative_improvement(
    policy_curve: Sequence[tuple[int, float]],
    random_curve: Sequence[tuple[int, float]],
) -> list[tuple[int, float]]:
    """Percent gain of a policy curve over the random curve, per checkpoint."""
    if len(policy_curve) != len(random_curve):
        raise AlignmentError(
            f"curves have {len(policy_curve)} vs {len(random_curve)} checkpoints"
        )
    out: list[tuple[int, float]] = []
    for (size_p, value_p), (size_r, value_r) in zip(policy_curve, random_curve):
        if size_p != size_r:
            raise AlignmentError(f"checkpoint grids differ: {size_p} vs {size_r}")
        if value_r == 0.0:
            raise UndefinedPointError(f"random curve is 0 at labeled size {size_r}")
        out.append((size_p, 100.0 * (value_p - value_r) / value_r))
    return out


def emit_policy_training_examples(log: RunLog, path) -> int:
    """Dump scored iterations as JSON lines for downstream policy training.

    Each line holds the selection inputs (labeled ids, candidate ids, base
    model fingerprint, scores) and the chosen index as the label. Returns
    the number of lines written.
    """
    if log.config.policy.name not in ORACLE_FAMILY:
        raise MissingScoresError(
            f"policy {log.config.policy.name.value} does not produce oracle scores"
        )
    scored = [r for r in log.records if r.scores is not None]
    if not scored:
        raise MissingScoresError("run log holds no scored iterations")
    labeled = set(log.initial_labeled_ids)
    committed: dict[int, list[int]] = {}
    for record in log.records:
        committed[record.iteration] = sorted(labeled)
        labeled.update(record.candidate_ids[record.chosen_index])
    examples = (
        {
            "iteration": record.iteration,
            "labeled_ids": committed[record.iteration],
            "candidate_ids": [list(ids) for ids in record.candidate_ids],
            "base_model_fingerprint": record.base_model_fingerprint,
            "scores": list(record.scores),
            "chosen_index": record.chosen_index,
            "branch": record.branch,
        }
        for record in scored
    )
    write_lines(path, map(json_line, examples))
    return len(scored)
