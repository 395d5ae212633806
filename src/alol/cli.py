"""Command-line front end.

Four subcommands driven by JSON experiment files (validated strictly,
unknown keys rejected), which hold every value a run reads:

* ``gen-data``   writes a synthetic dataset plus its provenance sidecar
* ``simulate``   runs the selection loop for every repeat side by side,
                 writes run logs and learning-curve CSVs plus their mean
* ``probe-mrr``  runs the two-seed consistency probe, writes windowed MRR
* ``report``     turns policy curves plus a baseline curve into a
                 relative-improvement CSV

Exit codes are stable contracts: 0 ok, 1 runtime failure (running out of
memory too), 2 schema violation, 3 refusing to overwrite without --force,
4 curve misalignment.
Every file is written through ``alol.schema``: UTF-8 with LF line endings,
and 9 significant digits for a CSV's floats.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import math
import os
import re
import sys
from pathlib import Path

from . import datagen, engine, probe
from .errors import AlignmentError, AlolError, MissingScoresError, SchemaError
from .pool import load_dataset, save_dataset
from .rng import repeat_seed
from .schema import csv_row, from_json, json_text, read_json, text_lines, to_json, write_lines


@dataclasses.dataclass(frozen=True)
class _SimulateKeys:
    """The keys of a ``simulate`` config that the CLI reads itself."""

    dataset: str
    repeats: int = 1

    def __post_init__(self) -> None:
        if self.repeats < 1:
            raise SchemaError(f"repeats={self.repeats} must be >= 1")


@dataclasses.dataclass(frozen=True)
class _ProbeKeys:
    """The key of a ``probe-mrr`` config that the CLI reads itself."""

    dataset: str


class _CliFailure(Exception):
    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


def _parse(path: str, command: str, cls, own=None) -> tuple:
    """The config file at ``path`` decoded as ``cls``, plus its keys that
    the CLI reads itself decoded as ``own``. Every violation exits 2."""
    try:
        data = read_json(path)
    except AlolError as exc:
        raise _CliFailure(2, str(exc)) from None
    if not isinstance(data, dict) or data.pop("command", None) != command:
        raise _CliFailure(2, f"{path}: expected a JSON object whose command is '{command}'")
    keys = {f.name for f in dataclasses.fields(own)} if own else set()
    mine = {k: data.pop(k) for k in keys & data.keys()}
    try:
        return from_json(cls, data), None if own is None else from_json(own, mine)
    except AlolError as exc:
        raise _CliFailure(2, f"{path}: {exc}") from None


@contextlib.contextmanager
def _staged_writes(paths: list[Path], force: bool, stale=()):
    """Exits 3 if any output path in ``paths`` exists, unless ``force``.
    Otherwise yields ``stage``, which takes one of ``paths``, makes its
    directory and returns a temporary name beside it for the caller to
    write. When the block ends without error, every path in ``paths`` and
    ``stale`` is removed, and then each temporary that was written is moved
    into place with ``os.replace``, in the order of ``paths``; on any exit
    every temporary is removed. A failing write thus leaves no file, final or
    temporary; a failing move leaves no earlier output beside the new ones;
    and the last of ``paths`` is in place only when all the others are."""
    existing = [str(p) for p in paths if p.exists()]
    if existing and not force:
        raise _CliFailure(3, f"refusing to overwrite {existing}; pass --force")
    temporaries = {path: path.with_name(f".{path.name}.{os.getpid()}.tmp") for path in paths}

    def stage(path: Path) -> Path:
        path.parent.mkdir(parents=True, exist_ok=True)
        return temporaries[path]

    try:
        yield stage
        for path in [*paths, *stale]:
            path.unlink(missing_ok=True)
        for path, temporary in temporaries.items():
            if temporary.exists():
                os.replace(temporary, path)
    finally:
        for temporary in temporaries.values():
            temporary.unlink(missing_ok=True)


def _curve_csv(curve, policy_label: str, seed: int) -> list[str]:
    header = "labeled_size,metric,policy,seed"
    return [header, *(csv_row(size, value, policy_label, seed) for size, value in curve)]


def _read_curve_csv(path: str) -> tuple[str, list[tuple[int, float]]]:
    try:
        lines = list(text_lines(path))
    except AlolError as exc:
        raise _CliFailure(2, str(exc)) from None
    if not lines or lines[0][1] != "labeled_size,metric,policy,seed":
        raise _CliFailure(2, f"{path}: expected header 'labeled_size,metric,policy,seed'")
    curve: list[tuple[int, float]] = []
    for lineno, line in lines[1:]:
        cells = line.split(",")
        if len(cells) != 4:
            raise _CliFailure(2, f"{path}:{lineno}: expected 4 columns")
        try:
            size, value = int(cells[0]), float(cells[1])
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise _CliFailure(2, f"{path}:{lineno}: expected an integer size and a finite metric")
        curve.append((size, value))
        label = cells[2]
    if not curve:
        raise _CliFailure(2, f"{path}: no data rows")
    return label, curve


def cmd_gen_data(args) -> int:
    spec, _ = _parse(args.config, "gen-data", datagen.GenSpec)
    out = Path(args.out)
    sidecar = Path(str(out).removesuffix(".jsonl") + ".provenance.jsonl")
    # The sidecar moves into place first: no dataset without its sidecar.
    with _staged_writes([sidecar, out], args.force) as stage:
        dataset, informative = datagen.generate(spec)
        datagen.save_provenance(informative, stage(sidecar))
        save_dataset(dataset, stage(out))
    return 0


_RUN_FILE = re.compile(r"(run_\d+\.json|curve_\d+\.csv|policy_examples_\d+\.jsonl)")


def cmd_simulate(args) -> int:
    config, keys = _parse(args.config, "simulate", engine.SimulationConfig, _SimulateKeys)
    repeats = keys.repeats
    out_dir = Path(args.out)
    dump_policy = config.policy.name in engine.ORACLE_FAMILY
    outputs = []
    for r in range(repeats):
        outputs += [out_dir / f"run_{r}.json", out_dir / f"curve_{r}.csv"]
        if dump_policy:
            outputs.append(out_dir / f"policy_examples_{r}.jsonl")
    # summary.json moves into place last: it marks a complete directory.
    outputs += [out_dir / "mean_curve.csv", out_dir / "summary.json"]
    # Under --force the earlier run's files go too, so none of its repeats
    # is left beside a new run with fewer.
    stale = [p for p in out_dir.glob("*") if _RUN_FILE.fullmatch(p.name)] if args.force else []
    with _staged_writes(outputs, args.force, stale) as stage:
        dataset = load_dataset(Path(args.config).parent / keys.dataset)
        seeds = [repeat_seed(config.master_seed, r) for r in range(repeats)]
        logs = engine.run_simulations(config, dataset, seeds)
        curves = [engine.learning_curve(log) for log in logs]
        # The mean curve is checked before any file is written, so misaligned
        # repeats leave no output directory behind.
        common = min(len(c) for c in curves)
        mean_curve = []
        for k in range(common):
            sizes = {c[k][0] for c in curves}
            if len(sizes) != 1:
                raise AlignmentError(f"repeat curves disagree on checkpoint {k}: {sorted(sizes)}")
            mean_curve.append((curves[0][k][0], sum(c[k][1] for c in curves) / len(curves)))
        label = config.policy.name.value
        for r, (seed_r, log, curve) in enumerate(zip(seeds, logs, curves)):
            write_lines(stage(out_dir / f"run_{r}.json"), [json_text(to_json(log))])
            write_lines(stage(out_dir / f"curve_{r}.csv"), _curve_csv(curve, label, seed_r))
            if dump_policy:
                try:
                    path = stage(out_dir / f"policy_examples_{r}.jsonl")
                    engine.emit_policy_training_examples(log, path)
                except MissingScoresError:
                    pass
        mean_csv = _curve_csv(mean_curve, label, config.master_seed)
        write_lines(stage(out_dir / "mean_curve.csv"), mean_csv)
        summary = {
            "config": to_json(config),
            "repeats": repeats,
            "seeds": seeds,
            "truncated": [log.truncated for log in logs],
            "checkpoints_in_mean_curve": common,
        }
        write_lines(stage(out_dir / "summary.json"), [json_text(summary)])
    return 0


def cmd_probe_mrr(args) -> int:
    config, keys = _parse(args.config, "probe-mrr", probe.MrrConfig, _ProbeKeys)
    out_dir = Path(args.out)
    mrr_csv, summary = out_dir / "mrr.csv", out_dir / "mrr_summary.json"
    # mrr_summary.json moves into place last: it marks a complete directory.
    with _staged_writes([mrr_csv, summary], args.force) as stage:
        dataset = load_dataset(Path(args.config).parent / keys.dataset)
        report = probe.run_mrr_probe(config, dataset, jobs=args.jobs)
        lines = ["window_start,window_end,mrr,baseline"]
        lines += [csv_row(w.start, w.end, w.mrr, report.baseline) for w in report.windows]
        write_lines(stage(mrr_csv), lines)
        record = {
            "config": to_json(config),
            "overall_mrr": report.overall_mrr,
            "baseline": report.baseline,
            "ranks": list(report.ranks),
            "truncated": report.truncated,
        }
        write_lines(stage(summary), [json_text(record)])
    return 0


def cmd_report(args) -> int:
    out = Path(args.out)
    with _staged_writes([out], args.force) as stage:
        _, baseline_curve = _read_curve_csv(args.baseline)
        labels: list[str] = []
        columns: list[list[tuple[int, float]]] = []
        for path in args.curves:
            label, curve = _read_curve_csv(path)
            # A label already taken gets the smallest free suffix _k, k >= 2.
            name, k = label, 1
            while name in labels:
                k += 1
                name = f"{label}_{k}"
            labels.append(name)
            columns.append(engine.relative_improvement(curve, baseline_curve))
        lines = [csv_row("labeled_size", *labels)]
        for k, (size, _) in enumerate(baseline_curve):
            lines.append(csv_row(size, *(col[k][1] for col in columns)))
        write_lines(stage(out), lines)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alol",
        description="Deterministic active-learning simulation lab",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    gen = sub.add_parser("gen-data", help="write a synthetic dataset plus sidecar")
    gen.add_argument("--config", required=True)
    gen.add_argument("--out", required=True)
    gen.add_argument("--force", action="store_true")
    gen.set_defaults(func=cmd_gen_data)

    sim = sub.add_parser("simulate", help="run the selection loop")
    sim.add_argument("--config", required=True)
    sim.add_argument("--out", required=True)
    sim.add_argument("--jobs", type=int, default=1)
    sim.add_argument("--force", action="store_true")
    sim.set_defaults(func=cmd_simulate)

    prb = sub.add_parser("probe-mrr", help="run the two-seed consistency probe")
    prb.add_argument("--config", required=True)
    prb.add_argument("--out", required=True)
    prb.add_argument("--jobs", type=int, default=1)
    prb.add_argument("--force", action="store_true")
    prb.set_defaults(func=cmd_probe_mrr)

    rep = sub.add_parser("report", help="relative improvement of curves over a baseline")
    rep.add_argument("curves", nargs="+")
    rep.add_argument("--baseline", required=True)
    rep.add_argument("--out", required=True)
    rep.add_argument("--force", action="store_true")
    rep.set_defaults(func=cmd_report)
    return parser


# Built once: a parser's objects refer to each other, so each one built
# per call would be left as cyclic garbage.
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    if getattr(args, "jobs", 1) < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (_CliFailure, AlolError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        if isinstance(exc, _CliFailure):
            return exc.code
        return 4 if isinstance(exc, AlignmentError) else 1


if __name__ == "__main__":
    sys.exit(main())
