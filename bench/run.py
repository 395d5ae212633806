"""Benchmark of the alol lab: three workloads through the ``alol`` CLI.

Usage (from the repository root):
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

It imports ``alol`` from ``src/`` beside this directory and exits with an
error when that is missing. One run:

1. writes the workload's inputs (configs and gen-data) for ``--seed``;
2. repeats whole rounds of the workload's CLI calls, in this process, for
   ``--seconds``; with ``--trace 1`` every other round is traced; the
   first round is a warm-up, left out of the medians;
3. times ``SETUP_PASSES`` fresh interpreters that import alol, write the
   configs and run gen-data;
4. checks the first round's outputs with ``checks.py``, and that every
   round and every set-up pass wrote the same bytes.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the full record, with versions,
output hashes and per-round figures, goes to ``bench/results/``, and a
traced run adds the spans of its last traced round there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
if not (ROOT / "src" / "alol" / "__init__.py").is_file():
    sys.exit(f"error: {ROOT / 'src' / 'alol'} not found; run from a checkout of the repository")
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402
from alol import cli  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PASSES = 5
SETUP_TIMEOUT_S = 60

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "learners.fine_tune_s": "s",
    "learners.fine_tune_calls": "count",
    "learners.train_s": "s",
    "learners.train_calls": "count",
    "learners.evaluate_s": "s",
    "learners.epochs": "count",
    "learners.sgd_steps": "count",
    "learners.epoch_us": "us",
    "learners.self_s": "s",
    "rng.shuffle_s": "s",
    "rng.shuffle_calls": "count",
    "rng.self_s": "s",
    "metrics.score_s": "s",
    "metrics.score_calls": "count",
    "metrics.self_s": "s",
    "policies.score_candidates_s": "s",
    "policies.score_candidates_calls": "count",
    "policies.fit_ms": "ms",
    "policies.self_s": "s",
    "engine.run_simulation_s": "s",
    "engine.iterations": "count",
    "engine.self_s": "s",
    "probe.run_mrr_probe_s": "s",
    "probe.self_s": "s",
    "pool.load_dataset_s": "s",
    "pool.sample_candidates_s": "s",
    "pool.commit_selection_s": "s",
    "pool.self_s": "s",
    "datagen.generate_s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_pct": "%",
    "trace.spans": "count",
}


def _cpu_s() -> float:
    """CPU seconds of this process's threads and of the children it waited for."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _tree_hashes(top: Path) -> dict[str, str]:
    return {
        str(p.relative_to(top)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(top.rglob("*"))
        if p.is_file()
    }


def _tree_bytes(top: Path) -> int:
    return sum(p.stat().st_size for p in top.rglob("*") if p.is_file())


def _git_sha() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git; None outside git."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def _versions() -> dict:
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": workloads.nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_sha": _git_sha(),
    }


def run_round(workload: str, inputs: Path, out: Path, tracer) -> tuple[float, float, list[int]]:
    """Wall and CPU seconds from the first CLI call to the last output file."""
    calls = workloads.round_calls(workload, inputs, out)
    codes = []
    cpu0 = _cpu_s()
    wall0 = time.perf_counter()
    for argv in calls:
        codes.append(tracer.call("cli.main", cli.main, (argv,)) if tracer else cli.main(argv))
    wall = time.perf_counter() - wall0
    return wall, _cpu_s() - cpu0, codes


def _layer_figures(summary: dict, out: Path) -> dict:
    fits_s = summary.get("learners.train_s", 0.0) + summary.get("learners.fine_tune_s", 0.0)
    epochs = summary.get("learners.epochs", 0)
    candidates = summary.get("policies.candidates", 0)
    figures = {name: summary.get(name, 0.0) for name in PER_LAYER}
    figures["learners.epoch_us"] = 1e6 * fits_s / epochs if epochs else 0.0
    figures["policies.fit_ms"] = (
        1e3 * summary.get("policies.score_candidates_s", 0.0) / candidates if candidates else 0.0
    )
    figures["cli.output_bytes"] = _tree_bytes(out)
    return figures


def run_rounds(args, inputs: Path, work: Path) -> dict:
    """Whole rounds until ``--seconds`` have passed; round 0's outputs are kept."""
    walls = {False: [], True: []}
    cpus, layers, problems = [], [], []
    attempted = failed = k = 0
    reference = spans = None
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = bool(args.trace) and k % 2 == 1
        out = work / f"round{k}"
        tracer = tracing.Tracer() if traced else None
        if tracer:
            tracer.install()
        try:
            wall, cpu, codes = run_round(args.workload, inputs, out, tracer)
        finally:
            if tracer:
                tracer.uninstall()
        attempted += len(codes)
        failed += sum(code != 0 for code in codes)
        walls[traced].append(wall)
        if tracer:
            layers.append(_layer_figures(tracer.summary(), out))
            spans = tracer.spans
        else:
            cpus.append(cpu)
        hashes = _tree_hashes(out)
        if reference is None:
            reference = hashes
        else:
            if hashes != reference:
                kind = "traced" if traced else "untraced"
                problems.append(f"round {k} ({kind}) wrote other bytes than round 0")
            shutil.rmtree(out)
        k += 1
        # A traced run stops after a traced round, so both kinds are measured.
        if time.perf_counter() >= deadline and not (args.trace and k % 2):
            break
    # Round 0 warms up first calls and caches. It is checked like the others
    # but left out of the medians, unless it is the only untraced round.
    warmup = {"wall_s": walls[False][0], "cpu_s": cpus[0]}
    if len(cpus) > 1:
        del walls[False][0], cpus[0]
    return {
        "rounds": k,
        "attempted": attempted,
        "failed": failed,
        "walls": walls,
        "cpus": cpus,
        "warmup": warmup,
        "layers": layers,
        "problems": problems,
        "output_sha256": reference,
        "output_bytes": _tree_bytes(work / "round0"),
        "spans": spans,
    }


def setup_pass(workload: str, seed: int, into: Path, trace: bool) -> tuple[float, dict | None]:
    """Time one fresh interpreter from its start until the inputs are ready."""
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    argv = [sys.executable, str(BENCH / "prepare.py"), workload, str(seed), str(into), str(int(trace))]
    done = subprocess.run(
        argv,
        capture_output=True,
        text=True,
        timeout=SETUP_TIMEOUT_S,
        check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up pass failed ({done.returncode}): {done.stderr.strip()}")
    report = json.loads(done.stdout.strip().splitlines()[-1])
    if report["code"] != 0:
        raise RuntimeError(f"gen-data exited {report['code']}: {done.stderr.strip()}")
    return report["ready"] - start, report["layers"]


def measure(args, work: Path) -> tuple[dict, list | None]:
    """The run's record, and the spans of its last traced round (None untraced)."""
    inputs = work / "inputs"
    workloads.write_inputs(args.workload, args.seed, inputs)
    if cli.main(workloads.gen_call(inputs)) != 0:
        raise RuntimeError("gen-data failed")
    input_hashes = _tree_hashes(inputs)

    rounds = run_rounds(args, inputs, work)
    problems = rounds["problems"]
    # Read before the set-up passes start, so the children term holds only
    # processes the workload itself started (none today).
    rss_kb = {
        "self": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "children": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }

    setup_s, setup_layers = [], []
    for p in range(SETUP_PASSES):
        seconds, layers = setup_pass(args.workload, args.seed, work / f"setup{p}", bool(args.trace))
        setup_s.append(seconds)
        setup_layers.append(layers)
        if _tree_hashes(work / f"setup{p}") != input_hashes:
            problems.append(f"set-up pass {p} wrote other inputs than the first set-up")

    try:
        facts = checks.check_workload(args.workload, inputs, work / "round0")
    except checks.CheckError as exc:
        problems.append(f"check failed: {exc}")
        facts = {}

    walls = rounds["walls"]
    if args.trace:
        metrics = {name: statistics.median(r[name] for r in rounds["layers"]) for name in PER_LAYER}
        metrics["datagen.generate_s"] = statistics.median(
            layers.get("datagen.generate_s", 0.0) for layers in setup_layers
        )
        traced_wall = statistics.median(walls[True])
        untraced_wall = statistics.median(walls[False])
        metrics["trace.overhead_pct"] = 100.0 * (traced_wall / untraced_wall - 1.0)
        units = PER_LAYER
    else:
        metrics = {
            "wall_s": statistics.median(walls[False]),
            "cpu_s": statistics.median(rounds["cpus"]),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": (rss_kb["self"] + rss_kb["children"]) / 1024.0,
        }
        units = END_TO_END
    result = {
        "correct": not problems,
        "attempted": rounds["attempted"],
        "failed": rounds["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "result": result,
        "problems": problems,
        **_versions(),
        "jobs": workloads.JOBS,
        "rounds": rounds["rounds"],
        "round_wall_s": walls[False],
        "traced_round_wall_s": walls[True],
        "round_cpu_s": rounds["cpus"],
        "warmup_round": rounds["warmup"],
        "setup_s": setup_s,
        "peak_rss_kb": rss_kb,
        "input_sha256": input_hashes,
        "output_sha256": rounds["output_sha256"],
        "output_bytes": rounds["output_bytes"],
        "facts": facts,
    }
    if args.trace:
        # Self times are summed over threads, so with --jobs > 1 a share can exceed 1.
        record["layer_shares"] = {
            layer: metrics[f"{layer}.self_s"] / traced_wall for layer in tracing.LAYERS
        }
    return record, rounds["spans"]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="Benchmark of the alol lab.")
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    work = BENCH / "_work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        record, spans = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    stem = results / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=2) + "\n")
    if spans is not None:
        # One span per line: id, parent id, name, start, end, counters.
        lines = (json.dumps(span) + "\n" for span in spans)
        stem.with_suffix(".spans.jsonl").write_text("".join(lines))
    for problem in record["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
