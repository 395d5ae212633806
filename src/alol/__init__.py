"""Deterministic simulation lab for oracle-driven pool-based active learning."""

from .datagen import GenKind, GenSpec, generate
from .engine import (
    IterationRecord,
    RunLog,
    SimulationConfig,
    emit_policy_training_examples,
    learning_curve,
    relative_improvement,
    run_simulation,
)
from .learners import (
    BATCH_SIZE,
    LearnerFamily,
    LearnerSpec,
    ModelState,
    evaluate,
    fine_tune,
    loss,
    predict_distribution,
    train,
)
from .metrics import MetricKind, mean_entropy, score
from .policies import (
    PolicyName,
    PolicySpec,
    SelectionOutcome,
    TrainingMode,
    select_longest,
    select_random,
    select_uncertainty,
)
from .pool import (
    CandidateSet,
    Dataset,
    Example,
    PoolState,
    commit_selection,
    load_dataset,
    sample_candidates,
    save_dataset,
    split_dataset,
)
from .probe import MrrConfig, MrrReport, random_mrr_baseline, rank_of, run_mrr_probe

__version__ = "0.1.0"

__all__ = [
    "BATCH_SIZE",
    "CandidateSet",
    "Dataset",
    "Example",
    "GenKind",
    "GenSpec",
    "IterationRecord",
    "LearnerFamily",
    "LearnerSpec",
    "MetricKind",
    "ModelState",
    "MrrConfig",
    "MrrReport",
    "PolicyName",
    "PolicySpec",
    "PoolState",
    "RunLog",
    "SelectionOutcome",
    "SimulationConfig",
    "TrainingMode",
    "commit_selection",
    "emit_policy_training_examples",
    "evaluate",
    "fine_tune",
    "generate",
    "learning_curve",
    "load_dataset",
    "loss",
    "mean_entropy",
    "predict_distribution",
    "random_mrr_baseline",
    "rank_of",
    "relative_improvement",
    "run_mrr_probe",
    "run_simulation",
    "sample_candidates",
    "save_dataset",
    "score",
    "select_longest",
    "select_random",
    "select_uncertainty",
    "split_dataset",
    "train",
]
