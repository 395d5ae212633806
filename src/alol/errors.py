"""Exception taxonomy for the active-learning lab.

Every failure mode that callers are expected to distinguish gets its own
class; all of them derive from ``AlolError`` so the CLI can map them onto
exit codes at a single choke point.
"""

from __future__ import annotations


class AlolError(Exception):
    """Base class for all package errors."""


class PartitionInfeasibleError(AlolError):
    """Requested partition sizes exceed the dataset, or overlap is implied."""


class PoolExhaustedError(AlolError):
    """The unlabeled pool cannot supply another candidate set."""


class StaleCandidateError(AlolError):
    """A candidate references an example no longer in the unlabeled pool."""


class SchemaError(AlolError):
    """A config or run-log JSON value is missing, unknown or of the wrong type."""


class SpecMismatchError(AlolError):
    """A model was applied to data whose shape contradicts its spec."""


class EmptyFineTuneError(AlolError):
    """Fine-tuning was requested with an empty example list."""


class EmptyEvalError(AlolError):
    """Evaluation was requested with an empty example list."""


class OverwriteRefusedError(AlolError):
    """An output already exists and overwriting it was not forced."""


class AlignmentError(AlolError):
    """Two learning curves do not share the same labeled-size grid."""


class DistributionError(AlolError):
    """A probability table has bad shape, negatives, or rows not summing to 1."""


class MissingScoresError(AlolError):
    """A run log holds no scored iterations to emit as training examples."""


class GenerationError(AlolError):
    """A synthetic-data request is internally inconsistent."""


class UndefinedPointError(AlolError):
    """Relative improvement is undefined because the baseline value is zero."""


class NanScoreError(AlolError):
    """A selection score is NaN, so no candidate can be ranked by it."""
