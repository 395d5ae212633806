"""In-memory spans around the calls one ``alol`` module makes into another.

``Tracer.install`` replaces public functions in the namespace of the module
that calls them (``engine.train``, ``policies.fine_tune``, ``learners.score``
and so on) with wrappers that record a span per call; ``Tracer.uninstall``
puts the originals back. No file of the program changes. Spans live in
memory until ``summary`` folds them into per-layer numbers.

A span is (id, parent id, name, start, end, counters). The parent is the
innermost open span on the same thread; a span opened on a worker thread
with nothing open on it takes the innermost open span of the thread that
installed the tracer, which is where the thread pool was started. A
layer's self time is its spans' durations minus the union of their
children's intervals.
"""

from __future__ import annotations

import itertools
import math
import threading
import time
from collections import defaultdict

from alol import cli, datagen, engine, learners, policies, pool, probe, rng


def _epochs_of_train(args, kwargs, model) -> dict:
    labeled = args[1]
    epochs = len(model.seed_lineage) - 1
    return {"epochs": epochs, "sgd_steps": epochs * math.ceil(len(labeled) / learners.BATCH_SIZE)}


def _epochs_of_fine_tune(args, kwargs, model) -> dict:
    base, examples = args[0], args[1]
    epochs = len(model.seed_lineage) - len(base.seed_lineage)
    return {"epochs": epochs, "sgd_steps": epochs * math.ceil(len(examples) / learners.BATCH_SIZE)}


def _candidates(args, kwargs, scores) -> dict:
    return {"candidates": len(scores)}


def _iterations(args, kwargs, log) -> dict:
    return {"iterations": len(log.records)}


# (module, attribute looked up by the caller, span name, counter function)
TARGETS = (
    (engine, "run_simulation", "engine.run_simulation", _iterations),
    (probe, "run_mrr_probe", "probe.run_mrr_probe", None),
    (datagen, "generate", "datagen.generate", None),
    (cli, "load_dataset", "pool.load_dataset", None),
    (engine, "sample_candidates", "pool.sample_candidates", None),
    (probe, "sample_candidates", "pool.sample_candidates", None),
    (engine, "commit_selection", "pool.commit_selection", None),
    (probe, "commit_selection", "pool.commit_selection", None),
    (engine, "oracle_candidate_scores", "policies.score_candidates", _candidates),
    (policies, "oracle_candidate_scores", "policies.score_candidates", _candidates),
    (probe, "oracle_candidate_scores", "policies.score_candidates", _candidates),
    (engine, "train", "learners.train", _epochs_of_train),
    (probe, "train", "learners.train", _epochs_of_train),
    (policies, "train", "learners.train", _epochs_of_train),
    (policies, "fine_tune", "learners.fine_tune", _epochs_of_fine_tune),
    (engine, "evaluate", "learners.evaluate", None),
    (policies, "evaluate", "learners.evaluate", None),
    (learners, "score", "metrics.score", None),
)

# Layers whose self time a round reports; datagen runs only during set-up.
LAYERS = ("cli", "engine", "probe", "policies", "learners", "rng", "metrics", "pool")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home = self._stack()
        self._saved: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args=(), kwargs=None, counter=None):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        kwargs = kwargs or {}
        stack = self._stack()
        parent = stack[-1] if stack else (self._home[-1] if self._home else 0)
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        counts = counter(args, kwargs, result) if counter else None
        self.spans.append((span_id, parent, name, start, end, counts))
        return result

    def wrap(self, name: str, fn, counter=None):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counter)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module, attr, name, counter in TARGETS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, counter))
        tracer = self

        class TracedSplitMix64(rng.SplitMix64):
            def shuffle(self, items: list) -> None:
                tracer.call("rng.shuffle", super().shuffle, (items,))

        for module in (learners, pool):
            self._saved.append((module, "SplitMix64", module.SplitMix64))
            module.SplitMix64 = TracedSplitMix64

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def summary(self) -> dict[str, float]:
        """Busy time and calls per span name, counters, and self time per layer."""
        out: dict[str, float] = defaultdict(float)
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _, parent, _, start, end, _ in self.spans:
            children[parent].append((start, end))
        for span_id, _, name, start, end, counts in self.spans:
            out[f"{name}_s"] += end - start
            out[f"{name}_calls"] += 1
            for key, value in (counts or {}).items():
                out[f"{name.split('.')[0]}.{key}"] += value
            covered = _union_within(children.get(span_id, ()), start, end)
            out[f"{name.split('.')[0]}.self_s"] += (end - start) - covered
        out["trace.spans"] = len(self.spans)
        return dict(out)


def _union_within(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total
