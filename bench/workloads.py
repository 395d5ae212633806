"""The three benchmark workloads: their inputs and the CLI calls of one round.

Every input is a pure function of the benchmark seed. ``inputs`` gives the
JSON files written during set-up; ``round_calls`` gives the ``alol`` argv
lists that one measured round runs, in order.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

NAMES = ("oracle_linear", "probe_mlp", "tagging_f1")

ITERATIONS = {"oracle_linear": 15, "probe_mlp": 80, "tagging_f1": 10}
REPEATS = {"oracle_linear": 4, "tagging_f1": 1}
PARTITIONS = [5, 305, 160, 130]
CANDIDATES = 5


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# Every workload runs at --jobs 1. At --jobs nproc (2 on a 2-vCPU guest) the
# candidate-scoring thread pool made oracle_linear's rounds slower and their
# run-to-run spread twice as wide, so wall_s measured the scheduler more than
# the program.
JOBS = 1


def _gen(workload: str, seed: int) -> dict:
    gen = {
        "command": "gen-data",
        "kind": "gaussian_clusters",
        "n": 600,
        "input_dim": 10,
        "class_count": 3,
        "cluster_separation": 6.0,
        "noise_fraction": 0.3,
        "seed": seed,
    }
    if workload == "tagging_f1":
        gen.update(kind="token_tagging", seq_len_range=[2, 8])
    return gen


def _linear() -> dict:
    return {
        "family": "linear_softmax",
        "input_dim": 10,
        "class_count": 3,
        "learning_rate": 0.1,
        "max_epochs": 200,
        "patience": 40,
    }


def _simulate(workload: str, seed: int, policy: str) -> dict:
    metric = "macro_f1" if workload == "tagging_f1" else "accuracy"
    return {
        "command": "simulate",
        "dataset": "data.jsonl",
        "iterations": ITERATIONS[workload],
        "candidate_count": CANDIDATES,
        "set_size": 1,
        "policy": {"name": policy},
        "learner": _linear(),
        "selection_metric": metric,
        "report_metric": metric,
        "master_seed": 1000 + seed,
        "partition_sizes": PARTITIONS,
        "repeats": REPEATS[workload],
    }


def _probe(seed: int) -> dict:
    return {
        "command": "probe-mrr",
        "dataset": "data.jsonl",
        "iterations": ITERATIONS["probe_mlp"],
        "candidate_count": CANDIDATES,
        "set_size": 1,
        "learner": {
            "family": "mlp",
            "input_dim": 10,
            "class_count": 3,
            "hidden_dim": 16,
            "learning_rate": 2.0,
            "max_epochs": 30,
            "patience": 3,
        },
        "selection_metric": "accuracy",
        "seed_pair": [2000 + seed, 3000 + seed],
        "partition_sizes": PARTITIONS,
    }


def inputs(workload: str, seed: int) -> dict[str, dict]:
    """File name -> JSON content of every config the workload needs."""
    files = {"gen.json": _gen(workload, seed)}
    if workload == "probe_mlp":
        files["probe.json"] = _probe(seed)
    else:
        files["oracle.json"] = _simulate(workload, seed, "oracle")
        files["random.json"] = _simulate(workload, seed, "random")
    return files


def write_inputs(workload: str, seed: int, into: Path) -> None:
    """Write the configs; ``gen_call`` then writes the dataset beside them."""
    into.mkdir(parents=True)
    for name, config in inputs(workload, seed).items():
        (into / name).write_text(json.dumps(config, indent=2) + "\n")


def gen_call(inputs_dir: Path) -> list[str]:
    return [
        "gen-data",
        "--config",
        str(inputs_dir / "gen.json"),
        "--out",
        str(inputs_dir / "data.jsonl"),
    ]


def round_calls(workload: str, inputs_dir: Path, out_dir: Path) -> list[list[str]]:
    """The CLI calls of one round, writing only under ``out_dir``."""
    j = str(JOBS)
    if workload == "probe_mlp":
        return [
            ["probe-mrr", "--config", str(inputs_dir / "probe.json"),
             "--out", str(out_dir / "probe"), "--jobs", j],
        ]
    return [
        ["simulate", "--config", str(inputs_dir / "oracle.json"),
         "--out", str(out_dir / "oracle"), "--jobs", j],
        ["simulate", "--config", str(inputs_dir / "random.json"),
         "--out", str(out_dir / "random"), "--jobs", j],
        ["report", str(out_dir / "oracle" / "mean_curve.csv"),
         "--baseline", str(out_dir / "random" / "mean_curve.csv"),
         "--out", str(out_dir / "improvement.csv")],
    ]
