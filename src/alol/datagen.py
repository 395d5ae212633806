"""Synthetic dataset generators with a planted informativeness structure.

Both generators draw features from unit-variance Gaussians whose class
means sit at pairwise distance ``cluster_separation`` (scaled standard
basis vectors, so ``input_dim >= class_count`` is required). A
``noise_fraction`` stratum of examples gets its labels re-drawn uniformly
over all classes, independent of the features; those examples carry no
label signal, and the provenance sidecar marks them uninformative. The
sidecar never enters the dataset file itself.

Generation is a pure function of the spec: the payload stream uses the
sampling purpose with run 0, the noise stratum (subset choice plus label
re-draws) uses run 1.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass

import numpy as np

from .errors import AlolError, GenerationError, SchemaError
from .pool import Dataset, Example
from .rng import PURPOSE_SAMPLE, SplitMix64, derive_seed
from .schema import from_json


class GenKind(enum.Enum):
    GAUSSIAN_CLUSTERS = "gaussian_clusters"
    TOKEN_TAGGING = "token_tagging"


@dataclass(frozen=True)
class GenSpec:
    kind: GenKind
    n: int
    input_dim: int
    class_count: int
    cluster_separation: float
    noise_fraction: float
    seed: int
    seq_len_range: tuple[int, int] = (1, 1)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise GenerationError(f"n={self.n} must be >= 1")
        if self.class_count < 2:
            raise GenerationError(f"class_count={self.class_count} must be >= 2")
        if self.input_dim < self.class_count:
            raise GenerationError(
                f"input_dim={self.input_dim} must be >= class_count={self.class_count} "
                "(class means are scaled basis vectors)"
            )
        if not 0.0 <= self.noise_fraction <= 1.0:
            raise GenerationError(f"noise_fraction={self.noise_fraction} outside [0, 1]")
        if self.cluster_separation < 0.0:
            raise GenerationError(f"cluster_separation={self.cluster_separation} < 0")
        lo, hi = (int(v) for v in self.seq_len_range)
        if lo < 1 or lo > hi:
            raise GenerationError(f"seq_len_range=({lo}, {hi}) needs 1 <= min <= max")
        if self.kind is GenKind.GAUSSIAN_CLUSTERS and (lo, hi) != (1, 1):
            raise GenerationError("gaussian_clusters examples are single vectors; use (1, 1)")
        object.__setattr__(self, "seq_len_range", (lo, hi))


def _class_means(spec: GenSpec) -> np.ndarray:
    # Scaled basis vectors: every pair sits exactly cluster_separation apart.
    means = np.zeros((spec.class_count, spec.input_dim))
    scale = spec.cluster_separation / np.sqrt(2.0)
    for c in range(spec.class_count):
        means[c, c] = scale
    return means


def _noise_plan(spec: GenSpec) -> tuple[list[int], SplitMix64]:
    stream = SplitMix64(derive_seed(spec.seed, run=1, purpose=PURPOSE_SAMPLE))
    flip_count = int(spec.noise_fraction * spec.n + 0.5)
    flips = stream.distinct_below(spec.n, flip_count) if flip_count else []
    return flips, stream


def generate(spec: GenSpec) -> tuple[Dataset, dict[int, bool]]:
    """Build the dataset plus an {id: informative} provenance map."""
    means = _class_means(spec)
    points = SplitMix64(derive_seed(spec.seed, purpose=PURPOSE_SAMPLE))
    examples: list[Example] = []

    if spec.kind is GenKind.GAUSSIAN_CLUSTERS:
        for i in range(spec.n):
            label = i % spec.class_count
            vector = means[label] + np.array(
                [points.next_normal() for _ in range(spec.input_dim)]
            )
            examples.append(
                Example(
                    id=i,
                    features=vector.reshape(1, -1),
                    labels=np.array([label]),
                    sequence=False,
                )
            )
    else:
        lo, hi = spec.seq_len_range
        for i in range(spec.n):
            length = lo + (points.next_below(hi - lo + 1) if hi > lo else 0)
            labels = np.array([points.next_below(spec.class_count) for _ in range(length)])
            rows = np.stack(
                [
                    means[label]
                    + np.array([points.next_normal() for _ in range(spec.input_dim)])
                    for label in labels
                ]
            )
            examples.append(Example(id=i, features=rows, labels=labels, sequence=True))

    flips, noise_stream = _noise_plan(spec)
    informative = {ex.id: True for ex in examples}
    for idx in flips:
        ex = examples[idx]
        noisy = np.array(
            [noise_stream.next_below(spec.class_count) for _ in range(ex.token_count)]
        )
        examples[idx] = Example(
            id=ex.id, features=ex.features, labels=noisy, sequence=ex.sequence
        )
        informative[ex.id] = False

    return Dataset(examples=tuple(examples)), informative


def save_provenance(informative: dict[int, bool], path) -> None:
    """Write the sidecar: one {"id", "informative"} JSON object per line."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for example_id in sorted(informative):
            line = {"id": example_id, "informative": informative[example_id]}
            handle.write(json.dumps(line, separators=(",", ":")) + "\n")


@dataclass(frozen=True)
class ProvenanceRecord:
    """One sidecar line."""

    id: int
    informative: bool


def load_provenance(path) -> dict[int, bool]:
    """Read the sidecar. Each line is decoded by ``schema.from_json`` as a
    ``ProvenanceRecord``; a line that is not one raises ``AlolError``
    naming it."""
    out: dict[int, bool] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = from_json(ProvenanceRecord, json.loads(line))
            except (json.JSONDecodeError, SchemaError) as exc:
                raise AlolError(f"{path}:{lineno}: {exc}") from None
            out[record.id] = record.informative
    return out
