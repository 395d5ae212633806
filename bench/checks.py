"""Checks of a workload's output files, computed apart from the program.

Selection, seeds, curves, report cells, MRR and the final model's report
metric are recomputed here from the raw files with the benchmark's own
code: its own SplitMix64 seed derivation, lowest-argmax, forward pass,
accuracy and macro-F1. The program is used only where the check names it:
``split_dataset`` to recompute the partitions, ``load_dataset`` to read the
data, and the public ``train`` to retrain the final model. Every check
raises ``CheckError`` with a message naming the file and value.
"""

from __future__ import annotations

import csv
import hashlib
import json
from fractions import Fraction
from pathlib import Path

import numpy as np

from alol import load_dataset, split_dataset, train
from alol.learners import spec_from_json
from alol.metrics import MetricKind

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
PURPOSE_POLICY = 4
RUN_CHECKPOINT = 1
CHECKPOINT_EVERY = 10


class CheckError(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# -- seeds and draws, restated from the README's determinism contract ------


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return (z ^ (z >> 31)) & MASK64


def _splitmix(value: int) -> int:
    return _mix((value + GOLDEN) & MASK64)


def derive(master: int, *, iteration=0, candidate=0, run=0, purpose=0) -> int:
    seed = master & MASK64
    for coordinate in (purpose, iteration, candidate, run):
        seed = _splitmix(seed ^ (coordinate & MASK64))
    return seed


def repeat_seed(master: int, index: int) -> int:
    return master & MASK64 if index == 0 else _splitmix((master + index) & MASK64)


def uniform_below(seed: int, bound: int) -> int:
    """First unbiased draw in [0, bound) from a stream seeded with ``seed``."""
    limit = (1 << 64) - ((1 << 64) % bound)
    state = seed
    while True:
        state = (state + GOLDEN) & MASK64
        draw = _mix(state)
        if draw < limit:
            return draw % bound


def lowest_argmax(scores) -> int:
    best = 0
    for index, value in enumerate(scores):
        if value > scores[best]:
            best = index
    return best


# -- metrics with the benchmark's own forward pass -------------------------


def predict_linear(params: np.ndarray, spec, x: np.ndarray) -> np.ndarray:
    d, c = spec.input_dim, spec.class_count
    weights = params[: c * d].reshape(c, d)
    return (x @ weights.T + params[c * d :]).argmax(axis=1)


def metric_value(kind: str, preds: np.ndarray, gold: np.ndarray, class_count: int) -> float:
    if kind == "accuracy":
        return int((preds == gold).sum()) / len(gold)
    _require(kind == "macro_f1", f"no independent check for metric {kind}")
    total = 0.0
    for c in range(class_count):
        tp = int(((preds == c) & (gold == c)).sum())
        positives = int((preds == c).sum()) + int((gold == c).sum())
        if positives:
            total += 2.0 * tp / positives
    return total / class_count


def fingerprint(params: np.ndarray) -> str:
    return hashlib.sha256(np.asarray(params, dtype="<f8").tobytes()).hexdigest()


# -- files -----------------------------------------------------------------


def read_curve(path: Path) -> tuple[list[tuple[int, float]], set[str]]:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    _require(rows[0] == ["labeled_size", "metric", "policy", "seed"], f"{path}: header {rows[0]}")
    return [(int(r[0]), float(r[1])) for r in rows[1:]], {r[2] for r in rows[1:]}


def _tokens(examples) -> tuple[np.ndarray, np.ndarray]:
    return (
        np.concatenate([ex.features for ex in examples]),
        np.concatenate([ex.labels for ex in examples]),
    )


# -- simulate --------------------------------------------------------------


def check_simulate(config: dict, dataset, out_dir: Path) -> dict:
    """Check every repeat of one ``simulate`` output directory.

    Returns the checked mean curve and the count of oracle decisions whose
    top score was tied.
    """
    summary = json.loads((out_dir / "summary.json").read_text())
    repeats = config.get("repeats", 1)
    policy = config["policy"]["name"]
    metric = config["report_metric"]
    spec = spec_from_json(config["learner"])
    k, size, iterations = config["candidate_count"], config["set_size"], config["iterations"]
    _require(summary["repeats"] == repeats, f"{out_dir}: {summary['repeats']} repeats")
    _require(not any(summary["truncated"]), f"{out_dir}: a repeat was truncated")
    seeds = [repeat_seed(config["master_seed"], r) for r in range(repeats)]
    _require(summary["seeds"] == seeds, f"{out_dir}: repeat seeds {summary['seeds']} != {seeds}")

    curves, ties, decisions = [], 0, 0
    for r, seed in enumerate(seeds):
        where = out_dir / f"run_{r}.json"
        log = json.loads(where.read_text())
        records = log["records"]
        _require(len(records) == iterations, f"{where}: {len(records)} of {iterations} iterations")
        split = split_dataset(dataset, config["partition_sizes"], seed)
        _require(log["initial_labeled_ids"] == list(split.labeled), f"{where}: initial labeled ids")
        held_out = set(split.eval) | set(split.report)
        unlabeled = set(split.unlabeled)
        labeled = set(split.labeled)
        eval_tokens = sum(dataset.get(i).token_count for i in split.eval)
        report_tokens = sum(dataset.get(i).token_count for i in split.report)

        for i, rec in enumerate(records, start=1):
            at = f"{where}: iteration {i}"
            _require(rec["iteration"] == i, f"{at}: numbered {rec['iteration']}")
            candidates = rec["candidate_ids"]
            _require(len(candidates) == k, f"{at}: {len(candidates)} candidates")
            for ids in candidates:
                _require(len(ids) == size and len(set(ids)) == size, f"{at}: candidate {ids}")
                _require(set(ids) <= unlabeled, f"{at}: candidate {ids} not unlabeled")
            chosen = rec["chosen_index"]
            _require(0 <= chosen < k, f"{at}: chosen_index {chosen}")
            scores = rec["scores"]
            if policy == "random":
                scope = derive(seed, iteration=i)
                draw = uniform_below(derive(scope, purpose=PURPOSE_POLICY), k)
                _require(scores is None, f"{at}: random policy logged scores")
                _require(chosen == draw, f"{at}: chosen_index {chosen}, draw gives {draw}")
            else:
                _require(len(scores) == k, f"{at}: {len(scores)} scores")
                best = lowest_argmax(scores)
                _require(chosen == best, f"{at}: chosen_index {chosen}, lowest argmax {best}")
                ties += scores.count(scores[best]) > 1
                decisions += 1
                if config["selection_metric"] == "accuracy":
                    for s in scores:
                        hits = s * eval_tokens
                        _require(
                            abs(hits - round(hits)) < 1e-6,
                            f"{at}: score {s} not a multiple of 1/{eval_tokens}",
                        )
            committed = candidates[chosen]
            _require(not set(committed) & held_out, f"{at}: committed {committed} is held out")
            _require(not set(committed) & labeled, f"{at}: committed {committed} twice")
            labeled |= set(committed)
            unlabeled -= set(committed)
            _require(
                rec["labeled_size_after"] == len(split.labeled) + i * size,
                f"{at}: labeled_size_after {rec['labeled_size_after']}",
            )
            due = i % CHECKPOINT_EVERY == 0 or i == iterations
            _require((rec["checkpoint"] is not None) == due, f"{at}: checkpoint presence")
            if due and metric == "accuracy":
                hits = rec["checkpoint"] * report_tokens
                _require(
                    abs(hits - round(hits)) < 1e-6,
                    f"{at}: checkpoint not a multiple of 1/{report_tokens}",
                )

        curve = [(len(split.labeled), log["initial_checkpoint"])] + [
            (rec["labeled_size_after"], rec["checkpoint"])
            for rec in records
            if rec["checkpoint"] is not None
        ]
        written, labels = read_curve(out_dir / f"curve_{r}.csv")
        _require(labels == {policy}, f"curve_{r}.csv: policy column {labels}")
        _require(
            len(written) == len(curve)
            and all(a[0] == b[0] and _close(a[1], b[1], 1e-8) for a, b in zip(written, curve)),
            f"{out_dir / f'curve_{r}.csv'} does not match run_{r}.json checkpoints",
        )
        curves.append(curve)

        # Retrain the final checkpoint model and score it with our own code.
        model = train(
            spec,
            dataset.subset(sorted(labeled)),
            dataset.subset(split.eval),
            derive(seed, iteration=iterations, run=RUN_CHECKPOINT),
            metric=MetricKind(metric),
        )
        _require(
            fingerprint(model.parameters) == log["final_model_fingerprint"],
            f"{where}: final_model_fingerprint is not reproduced by retraining",
        )
        x, y = _tokens(dataset.subset(split.report))
        value = metric_value(metric, predict_linear(model.parameters, spec, x), y, spec.class_count)
        _require(
            abs(value - records[-1]["checkpoint"]) <= 1e-9,
            f"{where}: last checkpoint {records[-1]['checkpoint']}, recomputed {value}",
        )

    mean = [
        (curves[0][j][0], sum(c[j][1] for c in curves) / len(curves))
        for j in range(len(curves[0]))
    ]
    written, _ = read_curve(out_dir / "mean_curve.csv")
    _require(
        len(written) == len(mean)
        and all(a[0] == b[0] and _close(a[1], b[1], 1e-8) for a, b in zip(written, mean)),
        f"{out_dir / 'mean_curve.csv'} is not the mean of the repeat curves",
    )
    return {"mean_curve": written, "tied_decisions": ties, "decisions": decisions}


def check_report(path: Path, oracle_curve, random_curve) -> None:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    _require(rows[0] == ["labeled_size", "oracle"], f"{path}: header {rows[0]}")
    _require(len(rows) - 1 == len(random_curve), f"{path}: {len(rows) - 1} rows")
    for row, (size_o, o), (size_r, r) in zip(rows[1:], oracle_curve, random_curve):
        expected = 100.0 * (o - r) / r
        _require(
            int(row[0]) == size_o == size_r and _close(float(row[1]), expected, 1e-7),
            f"{path}: row {row}, expected {size_r},{expected}",
        )


def check_simulate_workload(inputs_dir: Path, out_dir: Path, *, oracle_must_win: bool) -> dict:
    """The two simulate runs and the report of one round."""
    oracle_cfg = json.loads((inputs_dir / "oracle.json").read_text())
    random_cfg = json.loads((inputs_dir / "random.json").read_text())
    dataset = load_dataset(inputs_dir / oracle_cfg["dataset"])
    oracle = check_simulate(oracle_cfg, dataset, out_dir / "oracle")
    random = check_simulate(random_cfg, dataset, out_dir / "random")
    check_report(out_dir / "improvement.csv", oracle["mean_curve"], random["mean_curve"])
    if oracle_must_win:
        o, r = oracle["mean_curve"][-1][1], random["mean_curve"][-1][1]
        _require(o > r, f"oracle mean curve ends at {o}, not above random's {r}")
    return {
        "tied_decisions": oracle["tied_decisions"],
        "oracle_decisions": oracle["decisions"],
        "oracle_end": oracle["mean_curve"][-1][1],
        "random_end": random["mean_curve"][-1][1],
    }


# -- probe-mrr -------------------------------------------------------------


def check_probe(inputs_dir: Path, out_dir: Path) -> dict:
    config = json.loads((inputs_dir / "probe.json").read_text())
    summary = json.loads((out_dir / "mrr_summary.json").read_text())
    k, window = config["candidate_count"], config.get("window", 10)
    ranks = summary["ranks"]
    where = out_dir / "mrr_summary.json"
    _require(not summary["truncated"], f"{where}: truncated")
    _require(len(ranks) == config["iterations"], f"{where}: {len(ranks)} ranks")
    _require(
        all(isinstance(r, int) and 1 <= r <= k for r in ranks), f"{where}: rank outside 1..{k}"
    )
    reciprocal = [1.0 / r for r in ranks]
    overall = sum(reciprocal) / len(reciprocal)
    _require(
        _close(summary["overall_mrr"], overall, 1e-12),
        f"{where}: overall_mrr {summary['overall_mrr']}, ranks give {overall}",
    )
    _require(overall < 1.0, f"{where}: overall MRR {overall} is not below 1")
    baseline = sum(Fraction(1, r) for r in range(1, k + 1)) / k
    _require(k != 5 or baseline == Fraction(137, 300), "H_5/5 is not 137/300")
    _require(
        summary["baseline"] == float(baseline),
        f"{where}: baseline {summary['baseline']} != {baseline}",
    )

    with open(out_dir / "mrr.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    header = ["window_start", "window_end", "mrr", "baseline"]
    _require(rows[0] == header, f"mrr.csv header {rows[0]}")
    starts = range(0, len(ranks), window)
    _require(len(rows) - 1 == len(starts), f"mrr.csv: {len(rows) - 1} windows")
    for row, start in zip(rows[1:], starts):
        chunk = reciprocal[start : start + window]
        expected = sum(chunk) / len(chunk)
        _require(
            [int(row[0]), int(row[1])] == [start + 1, start + len(chunk)]
            and _close(float(row[2]), expected, 1e-8)
            and _close(float(row[3]), float(baseline), 1e-8),
            f"mrr.csv: row {row}, expected MRR {expected}",
        )
    return {"overall_mrr": overall, "baseline": float(baseline)}


def check_workload(workload: str, inputs_dir: Path, out_dir: Path) -> dict:
    if workload == "probe_mlp":
        return check_probe(inputs_dir, out_dir / "probe")
    return check_simulate_workload(
        inputs_dir, out_dir, oracle_must_win=workload == "oracle_linear"
    )
