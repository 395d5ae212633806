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

The payload stream is read example by example, as a scalar
``SplitMix64`` would read it:

* a token-tagging example takes one length draw,
  ``next_below(max - min + 1)``, when ``seq_len_range`` spans more than
  one length, then one ``next_below(class_count)`` label draw per token;
  a cluster example takes no draw, its label is ``id % class_count``;
* then ``tokens · input_dim`` standard normals, row by row: each
  Box–Muller pair takes two draws ``u1, u2`` and gives the cosine
  normal first and keeps the sine as a spare for the next normal. The
  spare carries across tokens, examples and the integer draws between
  them, so the normals of the whole dataset are the pairs' cosines and
  sines in pair order.

``next_below`` rejects a draw from ``2**64 - 2**64 % bound`` on and takes
the next one. ``generate`` walks a block of examples over a table of the
stream's draws (``rng.stream_draws``) to place the integer draws and the
pairs, then turns the block's pairs into normals in one array pass.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import AlolError, GenerationError, SchemaError
from .pool import Dataset, Example
from .rng import PURPOSE_SAMPLE, SplitMix64, derive_seed, stream_draws
from .schema import MAX_FLOATS, from_json, json_line, json_lines, write_lines


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
        # The class means and one block's draw table are the largest arrays.
        size = max(self.class_count * self.input_dim, _table_size(self, min(BLOCK, self.n)))
        if size > MAX_FLOATS:
            raise GenerationError(f"needs an array of {size} numbers, more than numpy can hold")


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


# Examples per table walk. A block's draw table and its Box–Muller arrays
# are the transient memory of ``generate``. At the benchmark's tagging spec
# (n 600, dim 10, 2-8 tokens) blocks of 64 held about 0.2 MB at their
# peak against 2.0 MB for one table of the whole dataset, and ran no
# slower than larger blocks (see CHANGES.md).
BLOCK = 64


def _table_size(spec: GenSpec, count: int) -> int:
    """The draws of a table for ``count`` examples: all they can take
    unless ``next_below`` rejects one, and one more."""
    lo, hi = spec.seq_len_range
    if spec.kind is GenKind.TOKEN_TAGGING:
        return count * ((hi > lo) + hi + hi * spec.input_dim) + 1
    return count * spec.input_dim + 1


def _below(draws: Sequence[int], at: int, bound: int) -> tuple[int, int]:
    """``next_below(bound)`` read from ``draws`` at ``at``: the value and
    the index after the accepted draw."""
    limit = (1 << 64) - (1 << 64) % bound
    while draws[at] >= limit:
        at += 1
    return draws[at] % bound, at + 1


def _walk(
    spec: GenSpec, draws: Sequence[int], first: int, count: int, spare: int
) -> tuple[list[list[int]], list[int], int, int]:
    """Place the payload draws of examples ``first``..``first + count - 1``.

    ``draws`` are the stream's draws from the block's first on, and
    ``spare`` is 1 when a sine from before the block waits to be used.
    Returns each example's labels, the index in ``draws`` of each
    Box–Muller pair's ``u1`` (its ``u2`` follows), the number of draws the
    block takes, and the spare after it. Raises ``IndexError`` when
    ``draws`` end before the block does.
    """
    lo, hi = spec.seq_len_range
    tagging = spec.kind is GenKind.TOKEN_TAGGING
    labels: list[list[int]] = []
    pairs: list[int] = []
    at = 0
    for i in range(first, first + count):
        if tagging:
            length = lo
            if hi > lo:
                extra, at = _below(draws, at, hi - lo + 1)
                length += extra
            row = []
            for _ in range(length):
                label, at = _below(draws, at, spec.class_count)
                row.append(label)
        else:
            row = [i % spec.class_count]
        labels.append(row)
        normals = len(row) * spec.input_dim - spare
        pairs.extend(range(at, at + normals + normals % 2, 2))
        at += normals + normals % 2
        spare = normals % 2
    if at > len(draws):
        raise IndexError(f"the block takes {at} draws, the table holds {len(draws)}")
    return labels, pairs, at, spare


def _box_muller(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """The Box–Muller normals of the uint64 draw pairs ``(u1[k], u2[k])``,
    read as ``next_float`` reads a draw: cosine, sine, cosine, ...

    Only IEEE-exact steps (``1 - u``, the 2**-53 scaling, products and
    ``sqrt``) run in numpy; ``log``, ``cos`` and ``sin`` go through
    ``math``, as numpy's SIMD loops may differ from libm in the last bit.
    """
    shift = np.uint64(11)
    first = 1.0 - (u1 >> shift).astype(np.float64) * 2.0**-53
    second = (u2 >> shift).astype(np.float64) * 2.0**-53
    count = first.size
    radius = np.fromiter(map(math.log, first.tolist()), np.float64, count)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    angle = ((2.0 * math.pi) * second).tolist()
    normals = np.empty(2 * count)
    normals[0::2] = np.fromiter(map(math.cos, angle), np.float64, count)
    normals[1::2] = np.fromiter(map(math.sin, angle), np.float64, count)
    normals.reshape(count, 2)[...] *= radius[:, None]
    return normals


def generate(spec: GenSpec) -> tuple[Dataset, dict[int, bool]]:
    """Build the dataset plus an {id: informative} provenance map."""
    means = _class_means(spec)
    seed = derive_seed(spec.seed, purpose=PURPOSE_SAMPLE)
    sequence = spec.kind is GenKind.TOKEN_TAGGING
    # Each example's feature rows and labels; the Examples are built once
    # the noise stratum's labels are drawn.
    features: list[np.ndarray] = []
    labels: list[list[int]] = []
    # Draws taken so far, and the sine left from the last block (0 or 1 normals).
    taken, spare = 0, np.empty(0)
    for first in range(0, spec.n, BLOCK):
        count = min(BLOCK, spec.n - first)
        # When next_below rejects a draw, the block is walked again over a
        # table twice as long.
        size = _table_size(spec, count)
        while True:
            table = stream_draws([seed], size, skip=taken)[0]
            try:
                block, pairs, used, odd = _walk(spec, table.data, first, count, spare.size)
                break
            except IndexError:
                size *= 2
        taken += used
        at = np.array(pairs, dtype=np.intp)
        normals = np.concatenate([spare, _box_muller(table[at], table[at + 1])])
        spare = normals[normals.size - odd :]
        flat = [label for row in block for label in row]
        rows = normals[: normals.size - odd].reshape(-1, spec.input_dim) + means[flat]
        ends = np.cumsum([len(row) for row in block]).tolist()
        features += [rows[end - len(row) : end] for row, end in zip(block, ends)]
        labels += block

    flips, noise_stream = _noise_plan(spec)
    for idx in flips:
        labels[idx] = [noise_stream.next_below(spec.class_count) for _ in labels[idx]]
    noisy = set(flips)
    examples = tuple(
        Example(id=i, features=x, labels=row, sequence=sequence)
        for i, (x, row) in enumerate(zip(features, labels))
    )
    return Dataset(examples=examples), {i: i not in noisy for i in range(spec.n)}


def save_provenance(informative: dict[int, bool], path) -> None:
    """Write the sidecar: one {"id", "informative"} JSON object per line."""
    write_lines(
        path, (json_line({"id": i, "informative": informative[i]}) for i in sorted(informative))
    )


@dataclass(frozen=True)
class ProvenanceRecord:
    """One sidecar line."""

    id: int
    informative: bool


def load_provenance(path) -> dict[int, bool]:
    """Read the sidecar. Each line is decoded by ``schema.from_json`` as a
    ``ProvenanceRecord``. A line that is not one, not UTF-8, or JSON that
    cannot be decoded (malformed, nested past the recursion limit, an
    integer past 4300 digits) raises ``AlolError`` naming ``path:line``."""
    out: dict[int, bool] = {}
    for lineno, data in json_lines(path):
        try:
            record = from_json(ProvenanceRecord, data)
        except SchemaError as exc:
            raise AlolError(f"{path}:{lineno}: {exc}") from None
        out[record.id] = record.informative
    return out
