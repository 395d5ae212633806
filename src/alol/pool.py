"""Dataset container, partition bookkeeping, and candidate sampling.

The pool owns four pairwise-disjoint id sets over one dataset:

* ``labeled``, the committed training set,
* ``unlabeled``, the pool candidates are drawn from,
* ``eval``, the evaluation set policies use to score candidates,
* ``report``, a held-out set used only for learning-curve checkpoints.

PoolState is an immutable value; every operation returns a new state.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    AlolError,
    PartitionInfeasibleError,
    PoolExhaustedError,
    StaleCandidateError,
)
from .rng import PURPOSE_SAMPLE, PURPOSE_SPLIT, SplitMix64, derive_seed, shuffled_ranges
from .schema import json_line, json_lines, write_lines


def _holds_bool(values, rows: bool = False) -> bool:
    """Whether ``values``, or with ``rows`` one of its rows, holds a bool,
    which numpy reads among numbers as 1 or 0. An array holds none: its
    dtype would be bool."""
    if isinstance(values, np.ndarray):
        return False
    return bool in set(map(type, itertools.chain.from_iterable(values) if rows else values))


@dataclass(frozen=True, eq=False)
class Example:
    """One datapoint: a (token_count, feature_dim) matrix plus per-token labels.

    Single-vector classification examples are stored as one-token sequences;
    ``sequence`` records which payload kind the source file used so round
    trips preserve it.

    The payload rule: ``id`` is an int in [-2**63, 2**64), ``features``
    finite integers or floats shaped (tokens >= 1, dim), one token unless
    ``sequence``, and ``labels`` integers in [0, 2**63) shaped (tokens,);
    anything else (bools, even one among numbers, strings, jagged rows and
    NaN among them) raises ``AlolError`` naming the id. Both arrays are
    kept read-only, as float64 and int64.
    """

    id: int
    features: np.ndarray
    labels: np.ndarray
    sequence: bool
    token_count: int = field(init=False, repr=False)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Example)
            and self.id == other.id
            and self.sequence == other.sequence
            and np.array_equal(self.features, other.features)
            and np.array_equal(self.labels, other.labels)
        )

    def __post_init__(self) -> None:
        where = f"example {self.id}"
        if type(self.id) is not int or not -(2**63) <= self.id < 2**64:
            raise AlolError(f"{where}: id must be an integer in [-2**63, 2**64)")
        try:
            feats, labels = np.asarray(self.features), np.asarray(self.labels)
        except (ValueError, TypeError):
            raise AlolError(f"{where}: features and labels must be number arrays") from None
        shape = feats.shape
        numbers = feats.dtype.kind in "iuf" and len(shape) == 2 and shape[0] >= 1
        if not numbers or not np.isfinite(feats).all() or _holds_bool(self.features, rows=True):
            raise AlolError(f"{where}: features must be finite numbers shaped (tokens, dim)")
        if shape[0] > 1 and not self.sequence:
            raise AlolError(f"{where}: a single vector has one token, got {shape[0]}")
        feats = np.asarray(feats, dtype=np.float64)
        if labels.dtype.kind not in "iu" or labels.shape != (shape[0],) or _holds_bool(self.labels):
            raise AlolError(f"{where}: {shape[0]} tokens need as many integer labels")
        # A uint64 label past 2**63 - 1 wraps negative here and is refused.
        # The few labels of an example are checked as a list, which costs
        # less than a numpy reduction.
        labels = np.asarray(labels, dtype=np.int64)
        if min(labels.tolist()) < 0:
            raise AlolError(f"{where}: negative label")
        feats.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "token_count", feats.shape[0])


@dataclass(frozen=True)
class Dataset:
    """Immutable collection of examples with unique ids, one feature dim and
    one payload kind."""

    examples: tuple[Example, ...]

    def __post_init__(self) -> None:
        if not self.examples:
            raise AlolError("dataset is empty")
        by_id: dict[int, Example] = {}
        dim = self.examples[0].features.shape[1]
        for ex in self.examples:
            if ex.id in by_id:
                raise AlolError(f"duplicate example id {ex.id}")
            if ex.features.shape[1] != dim:
                raise AlolError(f"example {ex.id}: feature dim {ex.features.shape[1]} != {dim}")
            if ex.sequence != self.examples[0].sequence:
                raise AlolError(f"example {ex.id}: mixes single vectors and token sequences")
            by_id[ex.id] = ex
        object.__setattr__(self, "examples", tuple(self.examples))
        object.__setattr__(self, "_by_id", by_id)

    def __len__(self) -> int:
        return len(self.examples)

    @property
    def feature_dim(self) -> int:
        return self.examples[0].features.shape[1]

    @property
    def ids(self) -> tuple[int, ...]:
        return tuple(sorted(self._by_id))

    def get(self, example_id: int) -> Example:
        try:
            return self._by_id[example_id]
        except KeyError:
            raise AlolError(f"unknown example id {example_id}") from None

    def subset(self, ids: Iterable[int]) -> list[Example]:
        return [self.get(i) for i in ids]


@dataclass(frozen=True)
class PoolState:
    """The four disjoint id partitions; sizes change only via commits."""

    labeled: tuple[int, ...]
    unlabeled: tuple[int, ...]
    eval: tuple[int, ...]
    report: tuple[int, ...]

    def __post_init__(self) -> None:
        names = ("labeled", "unlabeled", "eval", "report")
        canon = [tuple(sorted(getattr(self, name))) for name in names]
        for name, p in zip(names, canon):
            object.__setattr__(self, name, p)
        # One set of all ids; only when it comes up short, name the cause.
        if len(set().union(*canon)) != sum(map(len, canon)):
            for name, p in zip(names, canon):
                if len(set(p)) != len(p):
                    raise AlolError(f"duplicate ids inside the {name} partition")
            raise AlolError("partitions overlap")


@dataclass(frozen=True)
class CandidateSet:
    """Ordered distinct unlabeled ids plus the 0-based slot in its iteration."""

    ids: tuple[int, ...]
    candidate_index: int

    def __post_init__(self) -> None:
        ids = tuple(int(i) for i in self.ids)
        if len(set(ids)) != len(ids):
            raise AlolError(f"candidate {self.candidate_index}: duplicate ids {ids}")
        if not ids:
            raise AlolError(f"candidate {self.candidate_index}: empty id list")
        object.__setattr__(self, "ids", ids)


def split_dataset(
    dataset: Dataset, sizes: Sequence[int], seed: int
) -> PoolState:
    """Randomly partition dataset ids into (labeled, unlabeled, eval, report).

    Deterministic for a given seed; ids not covered by the four sizes stay
    unassigned. The labeled slice may be empty.
    """
    if len(sizes) != 4:
        raise PartitionInfeasibleError(f"need 4 partition sizes, got {len(sizes)}")
    counts = [int(s) for s in sizes]
    if any(c < 0 for c in counts):
        raise PartitionInfeasibleError(f"negative partition size in {counts}")
    if sum(counts) > len(dataset):
        raise PartitionInfeasibleError(
            f"partition sizes {counts} need {sum(counts)} examples, dataset has {len(dataset)}"
        )
    ids = dataset.ids
    order = shuffled_ranges([derive_seed(seed, purpose=PURPOSE_SPLIT)], len(ids))[0]
    ids = [ids[k] for k in order.tolist()]
    out: list[tuple[int, ...]] = []
    cursor = 0
    for c in counts:
        out.append(tuple(ids[cursor : cursor + c]))
        cursor += c
    return PoolState(labeled=out[0], unlabeled=out[1], eval=out[2], report=out[3])


def sample_candidates(
    pool: PoolState, candidate_count: int, set_size: int, seed: int
) -> list[CandidateSet]:
    """Draw ``candidate_count`` independent uniform sets of ``set_size`` ids.

    Sets may overlap each other; ids within one set are distinct. Each set
    has its own derived stream, so the draw is independent of evaluation
    order.
    """
    if candidate_count < 1 or set_size < 1:
        raise AlolError(f"need K >= 1 and L >= 1, got K={candidate_count}, L={set_size}")
    universe = pool.unlabeled
    if len(universe) < set_size:
        raise PoolExhaustedError(
            f"unlabeled pool has {len(universe)} ids, need {set_size}"
        )
    sets: list[CandidateSet] = []
    for j in range(candidate_count):
        stream = SplitMix64(derive_seed(seed, candidate=j + 1, purpose=PURPOSE_SAMPLE))
        picks = stream.distinct_below(len(universe), set_size)
        sets.append(CandidateSet(ids=tuple(universe[p] for p in picks), candidate_index=j))
    return sets


def stale_id(pool: PoolState, ids: Iterable[int]) -> int | None:
    """The first of ``ids`` not in the sorted unlabeled ids, by bisection, or None."""
    universe = pool.unlabeled
    return next((i for i in ids if universe[(k := bisect_left(universe, i)) : k + 1] != (i,)), None)


def commit_selection(pool: PoolState, chosen: CandidateSet) -> PoolState:
    """Move the chosen ids from unlabeled to labeled; eval/report untouched."""
    stale = stale_id(pool, chosen.ids)
    if stale is not None:
        raise StaleCandidateError(f"id {stale} is not in the unlabeled pool")
    unlabeled = list(pool.unlabeled)
    for i in chosen.ids:
        del unlabeled[bisect_left(unlabeled, i)]
    return PoolState(
        labeled=(*pool.labeled, *chosen.ids),
        unlabeled=tuple(unlabeled),
        eval=pool.eval,
        report=pool.report,
    )


def load_dataset(path) -> Dataset:
    """Read a JSON-lines dataset file.

    Each line is either {"id", "features": [f, ...], "label": c} or
    {"id", "tokens": [[f, ...], ...], "label": [c, ...]} that passes
    ``Example``'s rule. Mixing the two payload kinds within one file is
    rejected. Every refusal, and every line ``schema.json_lines`` cannot
    decode, raises ``AlolError`` naming ``path:line``.
    """
    examples: list[Example] = []
    kind: str | None = None
    for lineno, record in json_lines(path):
        where = f"{path}:{lineno}"
        if not isinstance(record, dict) or "id" not in record or "label" not in record:
            raise AlolError(f"{where}: expected a JSON object with 'id' and 'label'")
        this_kind = next((k for k in ("tokens", "features") if k in record), None)
        if this_kind is None:
            raise AlolError(f"{where}: neither 'features' nor 'tokens'")
        kind = kind or this_kind
        if kind != this_kind:
            raise AlolError(f"{where}: mixes '{this_kind}' examples into a '{kind}' file")
        sequence = this_kind == "tokens"
        feats, labels = record[this_kind], record["label"]
        if not sequence:
            feats, labels = [feats], [labels]
        try:
            example = Example(id=record["id"], features=feats, labels=labels, sequence=sequence)
        except AlolError as exc:
            raise AlolError(f"{where}: {exc}") from None
        examples.append(example)
    if not examples:
        raise AlolError(f"{path}: no examples")
    return Dataset(examples=tuple(examples))


def save_dataset(dataset: Dataset, path) -> None:
    """Write a dataset back to JSON-lines, preserving the payload kind."""
    write_lines(path, (json_line(_record(ex)) for ex in dataset.examples))


def _record(ex: Example) -> dict:
    """The JSON object of ``ex``'s dataset line."""
    if ex.sequence:
        return {"id": ex.id, "tokens": ex.features.tolist(), "label": ex.labels.tolist()}
    return {"id": ex.id, "features": ex.features[0].tolist(), "label": int(ex.labels[0])}
