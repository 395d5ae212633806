"""Trainable models with deterministic mini-batch SGD.

Two families: a convex linear softmax classifier and a non-convex
one-hidden-layer tanh perceptron. Sequence payloads are classified per
token with shared parameters, which keeps the linear family genuinely
convex.

All randomness (parameter init, per-epoch shuffles) comes from streams
derived off the caller's seed; the derived seeds are recorded in
``ModelState.seed_lineage`` so a training run can be audited draw by draw.
Identical (spec, data, seed) inputs give bit-identical parameters.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EmptyEvalError, EmptyFineTuneError, SpecMismatchError
from .metrics import (
    MetricKind,
    confusion_counts,
    macro_f1_from_counts,
    score,  # noqa: F401  (bench/tracing.py wraps this name)
    token_f1_from_counts,
)
from .pool import Example
from .rng import (
    MASK64,
    PURPOSE_INIT,
    PURPOSE_SHUFFLE,
    SplitMix64,  # noqa: F401  (bench/tracing.py patches this name)
    derive_seed,
    derive_seeds,
    shuffled_ranges,
    stream_draws,
)
from .schema import MAX_FLOATS, from_json

BATCH_SIZE = 8


class LearnerFamily(enum.Enum):
    LINEAR_SOFTMAX = "linear_softmax"
    MLP = "mlp"


@dataclass(frozen=True)
class LearnerSpec:
    family: LearnerFamily
    input_dim: int
    class_count: int
    hidden_dim: int = 0
    learning_rate: float = 0.1
    max_epochs: int = 200
    patience: int = 5
    stop_epsilon: float = 1e-4
    init_scale: float = 0.1

    def __post_init__(self) -> None:
        if self.input_dim < 1 or self.class_count < 1:
            raise SpecMismatchError(
                f"input_dim={self.input_dim}, class_count={self.class_count} must be >= 1"
            )
        if self.hidden_dim < 0 or (self.family is LearnerFamily.MLP) != (self.hidden_dim > 0):
            raise SpecMismatchError(f"hidden_dim={self.hidden_dim}: mlp needs >= 1, linear 0")
        if self.learning_rate <= 0 or self.init_scale <= 0 or self.stop_epsilon <= 0:
            raise SpecMismatchError("learning_rate, init_scale, stop_epsilon must be > 0")
        if self.max_epochs < 1 or self.patience < 1:
            raise SpecMismatchError("max_epochs and patience must be >= 1")
        # The parameters and each model's shuffle seeds are single arrays.
        if max(parameter_count(self), self.max_epochs) > MAX_FLOATS:
            raise SpecMismatchError("parameters or max_epochs past what one numpy array holds")


def parameter_count(spec: LearnerSpec) -> int:
    d, c, h = spec.input_dim, spec.class_count, spec.hidden_dim
    if spec.family is LearnerFamily.LINEAR_SOFTMAX:
        return c * d + c
    return h * d + h + c * h + c


def spec_from_json(data: dict) -> LearnerSpec:
    """The spec a run log's ``learner`` object describes; the benchmark's
    output checks read it through this name."""
    return from_json(LearnerSpec, data)


@dataclass(frozen=True, eq=False)
class ModelState:
    """Immutable snapshot: spec, flat parameter vector, seeds consumed."""

    spec: LearnerSpec
    parameters: np.ndarray
    seed_lineage: tuple[int, ...]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ModelState)
            and self.spec == other.spec
            and self.seed_lineage == other.seed_lineage
            and np.array_equal(self.parameters, other.parameters)
        )

    def __post_init__(self) -> None:
        params = np.asarray(self.parameters, dtype=np.float64).ravel()
        expected = parameter_count(self.spec)
        if params.size != expected:
            raise SpecMismatchError(
                f"{self.spec.family.value} wants {expected} parameters, got {params.size}"
            )
        params = params.copy()
        params.setflags(write=False)
        object.__setattr__(self, "parameters", params)
        object.__setattr__(self, "seed_lineage", tuple(int(s) for s in self.seed_lineage))

    def fingerprint(self) -> str:
        """SHA-256 of the little-endian float64 parameter bytes."""
        return hashlib.sha256(self.parameters.astype("<f8").tobytes()).hexdigest()


def _check_examples(spec: LearnerSpec, examples: Sequence[Example]) -> None:
    """Raise ``SpecMismatchError`` naming the first example that does not
    fit ``spec``."""
    for ex in examples:
        if ex.features.shape[1] != spec.input_dim:
            raise SpecMismatchError(
                f"example {ex.id}: feature dim {ex.features.shape[1]}, spec wants {spec.input_dim}"
            )
    if examples and np.concatenate([ex.labels for ex in examples]).max() >= spec.class_count:
        ex = next(ex for ex in examples if ex.labels.max() >= spec.class_count)
        raise SpecMismatchError(
            f"example {ex.id}: label {int(ex.labels.max())} >= class_count {spec.class_count}"
        )


def _check_rows(spec: LearnerSpec, examples, x: np.ndarray, y: np.ndarray) -> None:
    """``_check_examples`` of ``examples`` from their pooled feature rows
    ``x`` and labels ``y``: two array checks, and the per-example loop only
    to name the one that fails."""
    if y.size and (x.shape[-1] != spec.input_dim or y.max() >= spec.class_count):
        _check_examples(spec, examples)


@dataclass(frozen=True, eq=False)
class TokenRows:
    """The tokens of ``examples`` pooled once: ``(m, dim)`` feature rows,
    ``(m,)`` labels and each example's first row in them."""

    examples: Sequence[Example]
    x: np.ndarray
    y: np.ndarray
    starts: np.ndarray


def token_rows(spec: LearnerSpec, examples: Sequence[Example]) -> TokenRows:
    """``examples`` pooled and checked against ``spec``: what a fit stops
    on or ``score_stack`` scores, and what ``gradient`` takes its rows
    from. A run pools its eval and report lists once for all its fits."""
    if any(ex.features.shape[1] != spec.input_dim for ex in examples):
        # Rows of several dims cannot be pooled: name the first off-dim one.
        _check_examples(spec, examples)
    if examples:
        x = np.concatenate([ex.features for ex in examples], axis=0)
        y = np.concatenate([ex.labels for ex in examples])
    else:
        x, y = np.empty((0, spec.input_dim)), np.empty(0, dtype=np.int64)
    _check_rows(spec, examples, x, y)
    # Every fit of a run reads these rows; none may write them.
    x.setflags(write=False)
    y.setflags(write=False)
    return TokenRows(examples, x, y, np.cumsum([0, *(ex.token_count for ex in examples)])[:-1])


def _unpack(spec: LearnerSpec, params: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per layer, the weight and bias views of a ``(P,)`` vector, or of a
    ``(K, P)`` stack with a leading K axis."""
    d, c, h = spec.input_dim, spec.class_count, spec.hidden_dim
    shapes = [(c, d)] if spec.family is LearnerFamily.LINEAR_SOFTMAX else [(h, d), (c, h)]
    layers, start = [], 0
    for rows, cols in shapes:
        end = start + rows * cols
        w = params[..., start:end].reshape(*params.shape[:-1], rows, cols)
        layers.append((w, params[..., end : end + rows]))
        start = end + rows
    return layers


def _log_softmax(z: np.ndarray) -> np.ndarray:
    """Log-softmax over the last axis, in place in ``z``. The reductions are
    those of ``z.max`` and ``z.sum``, called without their wrappers."""
    z -= np.maximum.reduce(z, axis=-1, keepdims=True)
    z -= np.log(np.add.reduce(np.exp(z), axis=-1, keepdims=True))
    return z


def _affine(layers: list[tuple[np.ndarray, np.ndarray]]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per layer, the transposed weight and the bias-row views of the
    ``_unpack`` views ``layers``."""
    return [(w.swapaxes(-1, -2), b[..., None, :]) for w, b in layers]


def _forward(affine, x: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Logits for (tokens, dim) rows; also the hidden activations for mlp.
    Under ``_affine`` views of a stack with leading axes L, the logits are
    ``(*L, tokens, classes)``, for shared rows or for rows with a leading
    model axis that broadcasts against L, each slice bit-equal to one
    model's."""
    (w_t, b), *out_layer = affine
    z = np.matmul(x, w_t)
    z += b
    if not out_layer:
        return z, None
    hidden = np.tanh(z, out=z)
    (w_t, b), = out_layer
    z = np.matmul(hidden, w_t)
    z += b
    return z, hidden


class _Workspace:
    """A ``(P,)`` vector or ``(K, P)`` stack of parameters with its layer
    views, taken once, and a gradient buffer of the same shape and views.

    Steps write through the views in place, so a stack that loses models
    takes a new workspace of a gathered copy of the rows it keeps. Every
    float operation and matmul operand layout is that of the plain
    expressions: only destinations differ, which leaves every bit the same.
    """

    def __init__(self, spec: LearnerSpec, params: np.ndarray) -> None:
        self.spec = spec
        self.params = params
        self.grad = np.empty_like(params)
        self.layers = _unpack(spec, params)
        self.affine = _affine(self.layers)
        self.grads = _unpack(spec, self.grad)

    def gradient(self, x: np.ndarray, one_hot: np.ndarray, denom: np.ndarray) -> np.ndarray:
        """Gradient of the mean token cross-entropy, written into ``grad``.

        ``one_hot`` holds the ``_one_hot`` gold labels of the rows of ``x``;
        a stack takes ``(K, rows, dim)`` rows. ``denom`` holds each row's
        divisor: its model's count of token rows, or ``inf`` on a zero
        padding row. A row's term lies in [-1, 1] or is NaN, so a padding
        row's is an exact zero, or keeps its NaN, as masking the mean would
        leave it, and each model's mean is over its token rows alone.
        """
        z, hidden = _forward(self.affine, x)
        delta = np.exp(_log_softmax(z), out=z)
        # Subtracting False (0.0) leaves every non-gold entry unchanged.
        delta -= one_hot
        delta /= denom[..., None]
        (g_w, g_b), *out_layer = self.grads
        if out_layer:
            (g_w2, g_b2), = out_layer
            np.matmul(delta.swapaxes(-1, -2), hidden, out=g_w2)
            np.add.reduce(delta, axis=-2, out=g_b2)
            delta = delta @ self.layers[1][0]
            hidden *= hidden
            delta *= np.subtract(1.0, hidden, out=hidden)
        np.matmul(delta.swapaxes(-1, -2), x, out=g_w)
        np.add.reduce(delta, axis=-2, out=g_b)
        return self.grad

    def step(self, x: np.ndarray, one_hot: np.ndarray, denom: np.ndarray, lone=None) -> None:
        """One SGD step of every model on its batch rows, each row's term
        divided by its ``denom``, in place. The models ``lone``, whose
        padded rows hold one token row, their first, take the gradient of
        that row alone, whose divisor is 1: numpy multiplies a one-row
        matrix through gemv, whose bits can differ from gemm's."""
        grad = self.gradient(x, one_hot, denom)
        if lone is not None and lone.size:
            alone = _Workspace(self.spec, self.params[lone])
            grad[lone] = alone.gradient(x[lone, :1], one_hot[lone, :1], denom[lone, :1])
        grad *= self.spec.learning_rate
        self.params -= grad


def _one_hot(spec: LearnerSpec, y: np.ndarray) -> np.ndarray:
    return y[..., None] == np.arange(spec.class_count)


def _scores(spec: LearnerSpec, params: np.ndarray, evals, metric: MetricKind | None) -> list:
    """Each model's ``metric`` on its ``_eval_stack`` rows, scored from its
    argmax predictions, or for ``metric`` None its negated mean token loss,
    for every snapshot of a ``(W, K, P)`` stack: W copies of the K models,
    one per epoch of a window, as W lists of K scores. No row is padded,
    so each score is that of one model alone. Every score is taken in array
    passes over all the snapshots, a metric from the counts that
    ``metrics.score`` takes. A snapshot whose parameters are not all finite
    scores NaN: its argmax predictions mean nothing."""
    scores = np.empty(params.shape[:2])
    groups = []
    for models, x, y, starts in evals:
        stack = np.take(params, models, axis=1)  # (W, A, P) order, where matmul is fastest
        logits = _forward(_affine(_unpack(spec, stack)), x)[0]
        if metric is None:
            gold = np.take_along_axis(_log_softmax(logits), y[None, ..., None], -1)
            scores[:, models] = gold[..., 0].mean(axis=-1)
            continue
        preds = logits.argmax(axis=-1)
        if metric is MetricKind.ACCURACY:
            # Exact hit counts: the same floats as np.mean.
            scores[:, models] = np.count_nonzero(preds == y, axis=-1) / y.shape[-1]
        elif metric is MetricKind.EXACT_MATCH:
            # Exact miss counts over every model's examples, end to end.
            spans = np.concatenate([a * y.shape[-1] + s for a, s in enumerate(starts)])
            missed = np.logical_or.reduceat((preds != y).reshape(len(preds), -1), spans, axis=-1)
            sizes = np.array([len(s) for s in starts])
            misses = np.add.reduceat(missed, np.cumsum(sizes) - sizes, axis=-1)
            scores[:, models] = (sizes - misses) / sizes
        else:
            # One confusion table per snapshot and model.
            tables = np.arange(scores.size).reshape(scores.shape)[:, models, None]
            groups.append((tables, preds, y))
    if groups:
        # One count and F1 pass over the tokens of every eval total.
        counts = confusion_counts(groups, scores.shape, spec.class_count)
        if metric is MetricKind.MACRO_F1:
            scores = macro_f1_from_counts(counts, range(spec.class_count))
        else:
            scores = token_f1_from_counts(counts)
    scores[~np.isfinite(params).all(axis=-1)] = np.nan
    return scores.tolist()


def _init_params(spec: LearnerSpec, init_seed: int) -> np.ndarray:
    """``(2 * next_float() - 1) * init_scale`` over the init stream, each draw
    converted as ``SplitMix64.next_float`` does."""
    draws = stream_draws([init_seed], parameter_count(spec))[0]
    return (2.0 * ((draws >> 11) * 2**-53) - 1.0) * spec.init_scale


@dataclass(frozen=True, eq=False)
class FitTask:
    """One model to fit: SGD on ``examples`` from ``base``, or without a
    base from the init ``seed`` derives, early-stopped on ``eval_rows``.

    Tasks fit side by side need one training length. They may share
    ``Example`` and row objects: each distinct example of a stack is padded
    and checked once, and eval rows, pooled by ``token_rows`` once, are
    checked as arrays.
    """

    base: ModelState | None
    examples: Sequence[Example]
    eval_rows: TokenRows
    seed: int


def _distinct(objects) -> list:
    """Each object once, by identity, in first-seen order."""
    return list({id(obj): obj for obj in objects}.values())


def _groups(keys: list) -> list[list[int]]:
    """The indices of equal keys, one list per key, in first-seen order."""
    return [[i for i, k in enumerate(keys) if k == key] for key in dict.fromkeys(keys)]


def _padded(spec: LearnerSpec, examples: Sequence[Example], width: int):
    """``examples`` checked against ``spec`` and padded at their ends to
    ``width`` with zero rows of label -1, as one table: ``(E, width, dim)``
    features, their one-hot gold rows (all False on padding) and real-row mask."""
    _check_examples(spec, examples)
    x = np.zeros((len(examples), width, spec.input_dim))
    y = np.full((len(examples), width), -1, dtype=np.int64)
    for i, ex in enumerate(examples):
        x[i, : ex.token_count] = ex.features
        y[i, : ex.token_count] = ex.labels
    return x, _one_hot(spec, y), y >= 0


def _stacked_batches(spec: LearnerSpec, tasks: Sequence[FitTask]):
    """The window steps of ``_sgd`` over tasks of one training length and
    widest token count.

    Every distinct ``Example`` of the tasks, by identity, is padded once
    into one ``_padded`` table of that width, and a ``(K, n)`` index holds
    the table row of each of model k's examples. A window gathers the
    active models' shuffled rows of all its epochs from the table at once,
    laid out ``(W, A, n * width, dim)`` so that each epoch's block is
    contiguous, and steps a workspace through each epoch's batches
    ``(x, gold, denom, lone)``. ``denom`` is each row's divisor for
    ``_Workspace.gradient``: the batch's count of its model's token rows on
    a token row, counted once per window, and ``inf`` on a padding row.
    ``lone`` indexes the models whose padded batch holds a single token
    row, or is None. Returns the floats that one model's epoch gathers, and
    the window ``steps(work, active, orders)``: it returns the parameters
    of ``work`` after each epoch, as ``(W, A, P)`` snapshots.
    """
    examples = _distinct(ex for t in tasks for ex in t.examples)
    width = max((ex.token_count for ex in examples), default=0)
    x_table, gold_table, real_table = _padded(spec, examples, width)
    row = {id(ex): i for i, ex in enumerate(examples)}
    n = len(tasks[0].examples)
    index = np.array([[row[id(ex)] for ex in t.examples] for t in tasks], dtype=np.intp)
    slices = [slice(i * width, (i + BATCH_SIZE) * width) for i in range(0, n, BATCH_SIZE)]
    starts = [rows.start for rows in slices]
    sizes = np.diff([*starts, n * width])
    # Only a last batch of one example can hold a single token row, and at
    # width 1 that batch is a one-row matrix already, as in the plain loop.
    lone_batch = len(slices) - 1 if n % BATCH_SIZE == 1 and width > 1 else None

    def steps(work: _Workspace, active: np.ndarray, orders: np.ndarray) -> np.ndarray:
        # orders[w, a]: the shuffle order of active model a in epoch w.
        picked = index[active[:, None], orders]
        shape = (*orders.shape[:2], -1)
        x = np.take(x_table, picked, axis=0).reshape(*shape, spec.input_dim)
        gold = np.take(gold_table, picked, axis=0).reshape(*shape, spec.class_count)
        real = np.take(real_table, picked, axis=0).reshape(shape)
        # Each model's token rows per batch of each epoch, counted at once.
        tokens = np.add.reduceat(real, starts, axis=-1)
        denom = np.where(real, np.repeat(tokens, sizes, axis=-1), np.inf)
        snapshots = np.empty((*orders.shape[:2], work.params.shape[-1]))
        for snapshot, xw, gw, dw, tw in zip(snapshots, x, gold, denom, tokens):
            for b, rows in enumerate(slices):
                lone = np.flatnonzero(tw[:, b] == 1) if b == lone_batch else None
                work.step(xw[:, rows], gw[:, rows], dw[:, rows], lone)
            snapshot[...] = work.params
        return snapshots

    return n * width * (spec.input_dim + 1), steps


def _eval_stack(rows: Sequence[TokenRows]) -> list:
    """The ``_scores`` evals of models scored on ``rows``, one per model: per
    token total, the positions of the models with rows of that total, their
    rows, shared when one object and else stacked, labels and starts."""
    evals = []
    for positions in _groups([len(r.y) for r in rows]):
        pooled = [rows[r] for r in positions]
        x = pooled[0].x if len(_distinct(pooled)) == 1 else np.stack([p.x for p in pooled])
        evals.append((positions, x, np.stack([p.y for p in pooled]), [p.starts for p in pooled]))
    return evals


def score_stack(spec: LearnerSpec, params: np.ndarray, rows, metric: MetricKind | None) -> list:
    """Model k of the ``(K, P)`` stack ``params`` scored on ``rows[k]`` by
    ``_scores``, which takes every score of a fitted model, each as alone."""
    return _scores(spec, params[None], _eval_stack(rows), metric)[0]


# Floats a window may hold in each of its arrays: the activations and
# argmax of the eval tokens it scores, over every snapshot, and the
# training rows it gathers, over every epoch. The scoring pass's
# temporaries set the peak memory.
WINDOW_FLOATS = 2**16


def _sgd(
    spec: LearnerSpec,
    params: np.ndarray,
    tasks: Sequence[FitTask],
    metric: MetricKind,
) -> tuple[list[list[int]], list[float]]:
    """Mini-batch SGD with early stopping of the ``(K, P)`` stack ``params``, in place.

    Model k trains on ``tasks[k].examples`` under its seed: its own shuffle
    order each epoch, its own eval list and its own early stop, after which
    it leaves the stack. The tasks share one training length and widest
    example; empty training lists fit for zero epochs.

    The stack runs in windows of epochs in which no model can stop. A
    model at plateau p stops no sooner than ``patience - p`` epochs on, as
    its plateau rises by at most one per epoch, so a window lasts the least
    of these over the A active models, cut to ``max_epochs`` and to
    ``WINDOW_FLOATS``. It gathers the batch rows of all its epochs at once
    and steps the active models in place through one ``_Workspace``,
    copying their parameters after each epoch into the window's
    ``(W, A, P)`` array of snapshots, which one ``_scores`` pass scores.
    The plateau and best score are then replayed epoch by epoch, as a loop
    scoring each epoch would. The workspace steps ``params`` itself until a
    model stops; models that stop, all at a window's end, are written back
    to ``params``, and the rest go on in a workspace of a gathered copy of
    their rows. A window's shuffle orders are drawn when it is cut; as no
    active model stops inside it, none go unused. Returns each model's
    epoch shuffle seeds and last eval score.
    """
    if any(not t.eval_rows.examples for t in tasks):
        raise EmptyEvalError("early stopping needs a non-empty eval set")
    train_floats, steps = _stacked_batches(spec, tasks)
    n = len(tasks[0].examples)
    shuffle_seeds = derive_seeds(
        np.array([t.seed & MASK64 for t in tasks], dtype=np.uint64)[:, None],
        iteration=np.arange(spec.max_epochs),
        purpose=PURPOSE_SHUFFLE,
    )
    # Model-epochs per window: each gathers its training rows and scores
    # its eval rows, of hidden and class activations and an argmax.
    eval_tokens = max(len(t.eval_rows.y) for t in tasks)
    eval_floats = eval_tokens * (spec.hidden_dim + spec.class_count + 1)
    room = max(1, WINDOW_FLOATS // max(train_floats, eval_floats))
    work = _Workspace(spec, params)
    active = list(range(len(tasks)))
    evals = _eval_stack([tasks[k].eval_rows for k in active])
    best = _scores(spec, work.params[None], evals, metric)[0]
    last = list(best)
    epochs = [0] * len(tasks)
    # Per active row: its plateau and best score.
    plateau = [0] * len(tasks)
    epoch, end = 0, spec.max_epochs if n else 0
    while epoch < end:
        window = max(1, min(spec.patience - max(plateau), end - epoch, room // len(active)))
        seeds = shuffle_seeds[active, epoch : epoch + window].T.ravel()
        orders = shuffled_ranges(seeds, n).reshape(window, len(active), n)
        # The window's gathered rows are freed before its scoring pass.
        scored = _scores(spec, steps(work, np.array(active), orders), evals, metric)
        for row in scored:
            for r, current in enumerate(row):
                # Significant improvement means beating the best score so
                # far by at least stop_epsilon; patience counts consecutive
                # misses.
                plateau[r] = 0 if current - best[r] >= spec.stop_epsilon else plateau[r] + 1
                best[r] = max(best[r], current)
        epoch += window
        for k, current in zip(active, scored[-1]):
            epochs[k] = epoch
            last[k] = current
        kept = [r for r, p in enumerate(plateau) if p < spec.patience]
        if len(kept) < len(active):
            params[active] = work.params
            active, plateau, best = ([state[r] for r in kept] for state in (active, plateau, best))
            work = _Workspace(spec, work.params[kept])
            if not active:
                break
            evals = _eval_stack([tasks[k].eval_rows for k in active])
    params[active] = work.params
    lineages = [row[:count].tolist() for row, count in zip(shuffle_seeds, epochs)]
    return lineages, last


def initialize(spec: LearnerSpec, seed: int) -> ModelState:
    """Seeded uniform init in [-init_scale, init_scale], no training."""
    init_seed = derive_seed(seed, purpose=PURPOSE_INIT)
    return ModelState(
        spec=spec, parameters=_init_params(spec, init_seed), seed_lineage=(init_seed,)
    )


@dataclass(frozen=True, eq=False)
class StackedFit:
    """K models fit side by side: row k of ``parameters`` and ``lineages[k]``
    make model k, and ``scores[k]`` is its score."""

    spec: LearnerSpec
    parameters: np.ndarray
    lineages: list[list[int]]
    scores: list[float]

    def model(self, k: int) -> ModelState:
        return ModelState(
            spec=self.spec, parameters=self.parameters[k], seed_lineage=self.lineages[k]
        )


def train(
    spec: LearnerSpec,
    labeled: Sequence[Example],
    eval_examples: Sequence[Example],
    seed: int,
    *,
    metric: MetricKind = MetricKind.ACCURACY,
) -> ModelState:
    """Init from seed, then SGD with early stopping on the eval metric.

    An empty labeled set returns the initialized, untrained model.
    """
    if not labeled and not eval_examples:
        return initialize(spec, seed)
    tasks = [FitTask(None, labeled, token_rows(spec, eval_examples), seed)]
    return fit_stacked(spec, tasks, metric=metric).model(0)


def fine_tune(
    base: ModelState,
    examples: Sequence[Example],
    eval_examples: Sequence[Example],
    seed: int,
    *,
    metric: MetricKind = MetricKind.ACCURACY,
) -> ModelState:
    """Continue SGD from ``base.parameters`` on ``examples``; base unchanged."""
    if len(examples) == 0:
        raise EmptyFineTuneError("fine_tune needs at least one example")
    tasks = [FitTask(base, examples, token_rows(base.spec, eval_examples), seed)]
    return fit_stacked(base.spec, tasks, metric=metric).model(0)


def fit_stacked(
    spec: LearnerSpec,
    tasks: Sequence[FitTask],
    *,
    metric: MetricKind = MetricKind.ACCURACY,
) -> StackedFit:
    """Fit one model per task: from its base, or from the init its seed
    derives.

    Every fit of the lab goes through here; ``train`` and ``fine_tune`` are
    the one-task case. Model k's score is its last epoch's eval score.
    Each distinct training example of a stack is checked against ``spec``
    once, as is each distinct eval rows object, as arrays. The tasks need
    one training length; at length 0 every model is its init or base,
    unchanged.

    Models are stacked by operand shape: one ``_sgd`` run per widest
    example of the training lists, which pads each distinct example of its
    tasks once into one table and scores its models per token total
    of their eval rows. Padding happens only within a model, to its own
    widest example, so every product a model takes has the shape of its
    fit alone. One BLAS dependence remains: a padded fit equals the plain
    per-token loop only while a product's row bits ignore its row count,
    which on OpenBLAS 0.3.31 holds for inner dimensions below 32. Every
    batch takes one form: each row's term is divided by its model's token
    count, or by ``inf`` on a padding row, which makes it an exact zero.
    A padded batch of one token row is stepped on that row alone, as
    numpy multiplies a one-row matrix through gemv.
    """
    if len({len(t.examples) for t in tasks}) != 1:
        raise SpecMismatchError("fit_stacked needs training lists of one length")
    if any(t.base is not None and t.base.spec != spec for t in tasks):
        raise SpecMismatchError("a base model has another spec")
    for pooled in _distinct(t.eval_rows for t in tasks):
        _check_rows(spec, pooled.examples, pooled.x, pooled.y)
    bases = [task.base or initialize(spec, task.seed) for task in tasks]
    params = np.array([base.parameters for base in bases])
    # One SGD stack per widest example of a task's training lists.
    widths = [max((ex.token_count for ex in t.examples), default=0) for t in tasks]
    runs, scores = [None] * len(tasks), [None] * len(tasks)
    for group in _groups(widths):
        stack = params[group]
        fits = _sgd(spec, stack, [tasks[k] for k in group], metric)
        params[group] = stack
        for k, run, value in zip(group, *fits):
            runs[k], scores[k] = run, value
    lineages = [[*base.seed_lineage, *run] for base, run in zip(bases, runs)]
    return StackedFit(spec, params, lineages, scores)


def predict_distribution(model: ModelState, example: Example) -> np.ndarray:
    """Per-token softmax distributions, shape (token_count, class_count)."""
    _check_examples(model.spec, [example])
    z, _ = _forward(_affine(_unpack(model.spec, model.parameters)), example.features)
    return np.exp(_log_softmax(z), out=z)


def evaluate(model: ModelState, examples: Sequence[Example], metric: MetricKind) -> float:
    """Score argmax predictions on ``examples`` with the named metric: the
    one-model case of ``score_stack``, which scores every fit."""
    if len(examples) == 0:
        raise EmptyEvalError("evaluate needs at least one example")
    rows = token_rows(model.spec, examples)
    return score_stack(model.spec, model.parameters[None], [rows], metric)[0]


def loss(model: ModelState, examples: Sequence[Example]) -> float:
    """Mean token cross-entropy of the gold labels: minus ``score_stack``'s loss score."""
    if len(examples) == 0:
        raise EmptyEvalError("loss needs at least one example")
    rows = token_rows(model.spec, examples)
    return -score_stack(model.spec, model.parameters[None], [rows], None)[0]


def gradient(model: ModelState, examples: Sequence[Example]) -> np.ndarray:
    """Analytic gradient of ``loss`` at the model's parameters: the
    workspace gradient with the row count as every row's divisor."""
    if len(examples) == 0:
        raise EmptyEvalError("gradient needs at least one example")
    rows = token_rows(model.spec, examples)
    work = _Workspace(model.spec, model.parameters)
    return work.gradient(rows.x, _one_hot(model.spec, rows.y), np.full(len(rows.y), len(rows.y)))
