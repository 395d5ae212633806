import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import alol
from alol import cli, datagen, engine, probe
from alol.cli import main
from alol.datagen import GenKind, GenSpec, generate, load_provenance
from alol.errors import AlolError
from alol.pool import load_dataset, save_dataset


def write_json(path, data):
    path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")


def gen_config(tmp_path, **overrides):
    data = {
        "command": "gen-data",
        "kind": "gaussian_clusters",
        "n": 40,
        "input_dim": 4,
        "class_count": 2,
        "cluster_separation": 4.0,
        "noise_fraction": 0.25,
        "seed": 13,
    }
    data.update(overrides)
    path = tmp_path / "gen.json"
    write_json(path, data)
    return path


def sim_dataset(tmp_path, n=64):
    spec = GenSpec(
        kind=GenKind.GAUSSIAN_CLUSTERS,
        n=n,
        input_dim=4,
        class_count=2,
        cluster_separation=4.0,
        noise_fraction=0.2,
        seed=9,
    )
    dataset, _ = generate(spec)
    path = tmp_path / "dataset.jsonl"
    save_dataset(dataset, path)
    return path


def sim_config(tmp_path, **overrides):
    sim_dataset(tmp_path)
    data = {
        "command": "simulate",
        "dataset": "dataset.jsonl",
        "iterations": 3,
        "candidate_count": 3,
        "set_size": 1,
        "policy": {"name": "oracle"},
        "learner": {
            "family": "linear_softmax",
            "input_dim": 4,
            "class_count": 2,
            "learning_rate": 0.5,
            "max_epochs": 20,
        },
        "selection_metric": "accuracy",
        "report_metric": "accuracy",
        "master_seed": 77,
        "partition_sizes": [6, 44, 8, 6],
    }
    data.update(overrides)
    path = tmp_path / "sim.json"
    write_json(path, data)
    return path


def probe_config(tmp_path, **overrides):
    sim_dataset(tmp_path)
    data = {
        "command": "probe-mrr",
        "dataset": "dataset.jsonl",
        "iterations": 4,
        "candidate_count": 3,
        "set_size": 1,
        "learner": {
            "family": "linear_softmax",
            "input_dim": 4,
            "class_count": 2,
            "learning_rate": 0.5,
            "max_epochs": 20,
        },
        "selection_metric": "accuracy",
        "seed_pair": [31, 31],
        "partition_sizes": [6, 44, 8, 6],
    }
    data.update(overrides)
    path = tmp_path / "probe.json"
    write_json(path, data)
    return path


def fail_second_move(monkeypatch):
    """Make every ``os.replace`` after the first raise, as a full disk would."""
    replace = os.replace
    moves = []

    def failing(source, target):
        moves.append(target)
        if len(moves) > 1:
            raise OSError("disk full")
        replace(source, target)

    monkeypatch.setattr(os, "replace", failing)


def curve_csv(path, rows, policy="policy", seed=1):
    lines = ["labeled_size,metric,policy,seed"]
    for size, value in rows:
        lines.append(f"{size},{value},{policy},{seed}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_gen_data_writes_dataset_and_sidecar(tmp_path):
    config = gen_config(tmp_path)
    out = tmp_path / "data.jsonl"
    assert main(["gen-data", "--config", str(config), "--out", str(out)]) == 0
    dataset = load_dataset(out)
    assert len(dataset.examples) == 40
    informative = load_provenance(tmp_path / "data.provenance.jsonl")
    assert sum(1 for flag in informative.values() if not flag) == 10


def test_gen_data_is_byte_stable(tmp_path):
    config = gen_config(tmp_path)
    first = tmp_path / "a.jsonl"
    second = tmp_path / "b.jsonl"
    assert main(["gen-data", "--config", str(config), "--out", str(first)]) == 0
    assert main(["gen-data", "--config", str(config), "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_python_dash_m_alol_runs_the_cli(tmp_path):
    config = gen_config(tmp_path, kind="token_tagging", seq_len_range=[1, 4])
    src = Path(alol.__file__).resolve().parents[1]
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    out = tmp_path / "module" / "data.jsonl"
    argv = ["gen-data", "--config", str(config), "--out", str(out)]
    done = subprocess.run(
        [sys.executable, "-m", "alol", *argv], env=env, capture_output=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    direct = tmp_path / "direct" / "data.jsonl"
    assert main(["gen-data", "--config", str(config), "--out", str(direct)]) == 0
    for name in ("data.jsonl", "data.provenance.jsonl"):
        assert (out.parent / name).read_bytes() == (direct.parent / name).read_bytes()


def test_gen_data_refuses_overwrite(tmp_path):
    config = gen_config(tmp_path)
    out = tmp_path / "data.jsonl"
    assert main(["gen-data", "--config", str(config), "--out", str(out)]) == 0
    before = out.read_bytes()
    assert main(["gen-data", "--config", str(config), "--out", str(out)]) == 3
    assert out.read_bytes() == before
    assert (
        main(["gen-data", "--config", str(config), "--out", str(out), "--force"])
        == 0
    )


def test_gen_data_crash_leaves_no_file(tmp_path, monkeypatch):
    # The sidecar write fails half way, after the dataset is written: no
    # file, final or temporary, may be left behind.
    def failing(informative, path):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"id":0,')
        raise OSError("disk full")

    monkeypatch.setattr(datagen, "save_provenance", failing)
    config = gen_config(tmp_path)
    out = tmp_path / "out" / "data.jsonl"
    assert main(["gen-data", "--config", str(config), "--out", str(out)]) == 1
    assert list(out.parent.iterdir()) == []


def test_gen_data_force_failing_move_leaves_no_earlier_dataset(tmp_path, monkeypatch):
    # The new sidecar moves into place and the new dataset fails to: the
    # earlier dataset must not be left beside a sidecar that describes
    # another one.
    out = tmp_path / "out" / "data.jsonl"
    assert main(["gen-data", "--config", str(gen_config(tmp_path)), "--out", str(out)]) == 0
    config = gen_config(tmp_path, seed=14)
    expected = tmp_path / "expected" / "data.jsonl"
    assert main(["gen-data", "--config", str(config), "--out", str(expected)]) == 0
    fail_second_move(monkeypatch)
    assert main(["gen-data", "--config", str(config), "--out", str(out), "--force"]) == 1
    sidecar = "data.provenance.jsonl"
    assert [p.name for p in out.parent.iterdir()] == [sidecar]
    assert (out.parent / sidecar).read_bytes() == (expected.parent / sidecar).read_bytes()


@pytest.mark.parametrize("mutation", ["extra", "missing", "wrong_command"])
def test_gen_data_schema_violations(tmp_path, mutation):
    data = {
        "command": "gen-data",
        "kind": "gaussian_clusters",
        "n": 40,
        "input_dim": 4,
        "class_count": 2,
        "cluster_separation": 4.0,
        "noise_fraction": 0.25,
        "seed": 13,
    }
    if mutation == "extra":
        data["bogus_key"] = 1
    elif mutation == "missing":
        del data["n"]
    else:
        data["command"] = "simulate"
    path = tmp_path / "gen.json"
    write_json(path, data)
    out = tmp_path / "data.jsonl"
    assert main(["gen-data", "--config", str(path), "--out", str(out)]) == 2
    assert not out.exists()


def test_malformed_json_reports_schema_error(tmp_path):
    path = tmp_path / "gen.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["gen-data", "--config", str(path), "--out", str(tmp_path / "d.jsonl")]) == 2
    path.write_bytes(b'{"command": "gen-data\x80"}')
    assert main(["gen-data", "--config", str(path), "--out", str(tmp_path / "d.jsonl")]) == 2


def test_simulate_writes_expected_outputs(tmp_path):
    config = sim_config(tmp_path)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    assert (out / "mean_curve.csv").exists()
    assert (out / "summary.json").exists()
    assert (out / "run_0.json").exists()
    assert (out / "curve_0.csv").exists()
    assert (out / "policy_examples_0.jsonl").exists()
    lines = (out / "curve_0.csv").read_text().splitlines()
    assert lines[0] == "labeled_size,metric,policy,seed"
    first = lines[1].split(",")
    assert first[0] == "6"
    assert first[2] == "oracle"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["repeats"] == 1
    assert summary["truncated"] == [False]


def test_simulate_crash_leaves_no_file(tmp_path, monkeypatch):
    # The second repeat's run log fails half way, after the first repeat's
    # files are written: no file, final or temporary, may be left behind.
    write_lines = cli.write_lines

    def failing(path, lines):
        if "run_1" in path.name:
            path.write_text("".join(lines)[:10], encoding="utf-8")
            raise OSError("disk full")
        write_lines(path, lines)

    monkeypatch.setattr(cli, "write_lines", failing)
    config = sim_config(tmp_path, repeats=2)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 1
    assert list(out.iterdir()) == []


def test_simulate_skips_policy_examples_without_scores(tmp_path):
    # Every iteration explores, so the run log holds no oracle scores.
    config = sim_config(tmp_path, policy={"name": "epsilon_greedy", "epsilon": 1.0})
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "curve_0.csv",
        "mean_curve.csv",
        "run_0.json",
        "summary.json",
    ]


def test_simulate_outputs_are_byte_identical_across_runs_and_jobs(tmp_path):
    config = sim_config(tmp_path)
    names = ["mean_curve.csv", "summary.json", "run_0.json", "curve_0.csv"]
    outs = [tmp_path / f"out{k}" for k in range(3)]
    assert main(["simulate", "--config", str(config), "--out", str(outs[0])]) == 0
    assert main(["simulate", "--config", str(config), "--out", str(outs[1])]) == 0
    assert (
        main(
            ["simulate", "--config", str(config), "--out", str(outs[2]), "--jobs", "8"]
        )
        == 0
    )
    for name in names:
        reference = (outs[0] / name).read_bytes()
        assert (outs[1] / name).read_bytes() == reference
        assert (outs[2] / name).read_bytes() == reference


def test_simulate_random_policy_skips_policy_examples(tmp_path):
    config = sim_config(tmp_path, policy={"name": "random"})
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    assert not (out / "policy_examples_0.jsonl").exists()


def test_simulate_log_oracle_scores_flag_fills_records(tmp_path):
    config = sim_config(tmp_path, policy={"name": "random"})
    out = tmp_path / "out"
    code = main(
        [
            "simulate",
            "--config",
            str(config),
            "--out",
            str(out),
            "--log-oracle-scores",
        ]
    )
    assert code == 0
    log = json.loads((out / "run_0.json").read_text())
    assert all(record["scores"] is not None for record in log["records"])


def test_simulate_repeats_average_into_mean_curve(tmp_path):
    config = sim_config(tmp_path, repeats=2)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    assert (out / "curve_1.csv").exists()
    assert (out / "run_1.json").exists()

    def read_values(name):
        rows = (out / name).read_text().splitlines()[1:]
        return [(int(r.split(",")[0]), float(r.split(",")[1])) for r in rows]

    first = read_values("curve_0.csv")
    second = read_values("curve_1.csv")
    mean = read_values("mean_curve.csv")
    assert len(mean) == min(len(first), len(second))
    for (size, value), (s1, v1), (s2, v2) in zip(mean, first, second):
        assert size == s1 == s2
        assert value == pytest.approx((v1 + v2) / 2)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["seeds"][0] == 77
    assert summary["seeds"][1] != 77


def test_repeats_value_never_changes_a_repeats_bytes(tmp_path):
    outs = {}
    for repeats in (1, 2, 3):
        config = sim_config(tmp_path, repeats=repeats)
        outs[repeats] = tmp_path / f"out{repeats}"
        assert main(["simulate", "--config", str(config), "--out", str(outs[repeats])]) == 0
    for name in ("run_0.json", "curve_0.csv", "policy_examples_0.jsonl"):
        assert len({(outs[r] / name).read_bytes() for r in (1, 2, 3)}) == 1
    for name in ("run_1.json", "curve_1.csv", "policy_examples_1.jsonl"):
        assert (outs[2] / name).read_bytes() == (outs[3] / name).read_bytes()


def test_simulate_refuses_overwrite(tmp_path):
    config = sim_config(tmp_path)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 3
    assert (
        main(["simulate", "--config", str(config), "--out", str(out), "--force"]) == 0
    )


def test_simulate_force_removes_repeats_the_new_run_does_not_write(tmp_path):
    out = tmp_path / "out"
    config = sim_config(tmp_path, repeats=3)
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    (out / "notes.txt").write_text("kept\n")
    config = sim_config(tmp_path, repeats=1)
    assert main(["simulate", "--config", str(config), "--out", str(out), "--force"]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "curve_0.csv",
        "mean_curve.csv",
        "notes.txt",
        "policy_examples_0.jsonl",
        "run_0.json",
        "summary.json",
    ]
    assert json.loads((out / "summary.json").read_text())["repeats"] == 1


def test_simulate_force_removes_policy_examples_of_an_earlier_oracle_run(tmp_path):
    out = tmp_path / "out"
    config = sim_config(tmp_path, repeats=2)
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    assert (out / "policy_examples_1.jsonl").exists()
    config = sim_config(tmp_path, repeats=2, policy={"name": "random"})
    assert main(["simulate", "--config", str(config), "--out", str(out), "--force"]) == 0
    assert not list(out.glob("policy_examples_*"))
    assert json.loads((out / "run_1.json").read_text())["config"]["policy"]["name"] == "random"


def test_simulate_force_failing_move_leaves_no_earlier_summary(tmp_path, monkeypatch):
    # The new files fail to move into place after the first one: the
    # earlier run's summary.json must not mark the mixed directory complete.
    out = tmp_path / "out"
    config = sim_config(tmp_path)
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    fail_second_move(monkeypatch)
    config = sim_config(tmp_path, master_seed=78)
    assert main(["simulate", "--config", str(config), "--out", str(out), "--force"]) == 1
    assert not (out / "summary.json").exists()
    assert not list(out.glob(".*.tmp"))


def test_simulate_rejects_unknown_keys(tmp_path):
    config = sim_config(tmp_path, surprise=1)
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")]) == 2


def test_simulate_missing_dataset_is_runtime_error(tmp_path):
    config = sim_config(tmp_path)
    (tmp_path / "dataset.jsonl").unlink()
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")]) == 1


def test_jobs_must_be_positive(tmp_path):
    config = sim_config(tmp_path)
    code = main(
        ["simulate", "--config", str(config), "--out", str(tmp_path / "o"), "--jobs", "0"]
    )
    assert code == 2


def test_seed_override_applies_to_simulate_only(tmp_path, monkeypatch):
    config = sim_config(tmp_path)
    out = tmp_path / "out"
    monkeypatch.setenv("ALOL_SEED_OVERRIDE", "0x2A")
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["master_seed"] == 42

    gen = gen_config(tmp_path)
    with_env = tmp_path / "with_env.jsonl"
    assert main(["gen-data", "--config", str(gen), "--out", str(with_env)]) == 0
    monkeypatch.delenv("ALOL_SEED_OVERRIDE")
    without_env = tmp_path / "without_env.jsonl"
    assert main(["gen-data", "--config", str(gen), "--out", str(without_env)]) == 0
    assert with_env.read_bytes() == without_env.read_bytes()


def test_seed_override_must_be_integer(tmp_path, monkeypatch, capsys):
    # A seed outside the schema's integer range exits 2 as a config file
    # holding it would, and writes no summary.json that the schema refuses.
    config = sim_config(tmp_path)
    out = tmp_path / "o"
    for raw in ["not-a-number", "46116860184273879040000", str(2**64), str(-(2**63) - 1)]:
        monkeypatch.setenv("ALOL_SEED_OVERRIDE", raw)
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 2
        assert "ALOL_SEED_OVERRIDE" in capsys.readouterr().err
        assert not out.exists()


def test_probe_mrr_outputs(tmp_path):
    config = probe_config(tmp_path)
    out = tmp_path / "out"
    assert main(["probe-mrr", "--config", str(config), "--out", str(out)]) == 0
    lines = (out / "mrr.csv").read_text().splitlines()
    assert lines[0] == "window_start,window_end,mrr,baseline"
    cells = lines[1].split(",")
    assert cells[:2] == ["1", "4"]
    assert float(cells[2]) == 1.0
    assert float(cells[3]) == pytest.approx(11 / 18)
    summary = json.loads((out / "mrr_summary.json").read_text())
    assert summary["ranks"] == [1, 1, 1, 1]
    assert summary["overall_mrr"] == 1.0


def test_probe_force_failing_move_leaves_no_earlier_summary(tmp_path, monkeypatch):
    # The new mrr.csv moves into place and mrr_summary.json fails to: the
    # earlier run's summary must not mark the mixed directory complete.
    out = tmp_path / "out"
    assert main(["probe-mrr", "--config", str(probe_config(tmp_path)), "--out", str(out)]) == 0
    fail_second_move(monkeypatch)
    config = probe_config(tmp_path, seed_pair=[31, 32])
    assert main(["probe-mrr", "--config", str(config), "--out", str(out), "--force"]) == 1
    assert [p.name for p in out.iterdir()] == ["mrr.csv"]


def test_probe_rejects_wrong_command(tmp_path):
    config = probe_config(tmp_path, command="simulate")
    assert main(["probe-mrr", "--config", str(config), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize(
    "command, module, step",
    [
        ("gen-data", datagen, "generate"),
        ("simulate", engine, "run_simulations"),
        ("probe-mrr", probe, "run_mrr_probe"),
        ("report", engine, "relative_improvement"),
    ],
)
def test_refusal_and_failure_make_no_output_directory(
    tmp_path, capsys, monkeypatch, command, module, step
):
    # The compute step raises when called. With no earlier output each
    # command exits 1 and makes no output directory. With one earlier output
    # it exits 3 before it reads its inputs (deleted here) or calls the step,
    # and leaves the directory as it was.
    def failing(*args, **kwargs):
        raise AlolError(f"{step} called")

    monkeypatch.setattr(module, step, failing)
    out = tmp_path / "out" / "nested"
    if command == "gen-data":
        argv = ["--config", str(gen_config(tmp_path)), "--out", str(out / "data.jsonl")]
        earlier, inputs = out / "data.provenance.jsonl", []
    elif command == "report":
        curve = tmp_path / "curve.csv"
        curve_csv(curve, [(100, 50.0)])
        argv = [str(curve), "--baseline", str(curve), "--out", str(out / "report.csv")]
        earlier, inputs = out / "report.csv", [curve]
    else:
        make = sim_config if command == "simulate" else probe_config
        argv = ["--config", str(make(tmp_path)), "--out", str(out)]
        earlier = out / ("curve_0.csv" if command == "simulate" else "mrr.csv")
        inputs = [tmp_path / "dataset.jsonl"]
    assert main([command, *argv]) == 1
    assert f"{step} called" in capsys.readouterr().err
    assert not out.parent.exists()
    out.mkdir(parents=True)
    earlier.write_text("earlier\n", encoding="utf-8")
    for path in inputs:
        path.unlink()
    assert main([command, *argv]) == 3
    assert list(out.iterdir()) == [earlier]
    assert earlier.read_text(encoding="utf-8") == "earlier\n"


def test_report_computes_percent_columns(tmp_path):
    baseline = tmp_path / "random.csv"
    policy = tmp_path / "oracle.csv"
    curve_csv(baseline, [(100, 48.3), (200, 50.0)], policy="random")
    curve_csv(policy, [(100, 52.9), (200, 55.0)], policy="oracle")
    out = tmp_path / "report.csv"
    code = main(
        ["report", str(policy), "--baseline", str(baseline), "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "labeled_size,oracle"
    first = lines[1].split(",")
    assert first[0] == "100"
    assert float(first[1]) == pytest.approx(9.5238, abs=1e-3)
    assert float(lines[2].split(",")[1]) == pytest.approx(10.0)


def test_report_crash_leaves_no_file(tmp_path, monkeypatch):
    # The report write fails half way: no file, final or temporary, may be
    # left behind.
    def failing(path, lines):
        path.write_text("".join(lines)[:10], encoding="utf-8")
        raise OSError("disk full")

    monkeypatch.setattr(cli, "write_lines", failing)
    baseline = tmp_path / "curves" / "random.csv"
    policy = tmp_path / "curves" / "oracle.csv"
    baseline.parent.mkdir()
    curve_csv(baseline, [(100, 48.3)], policy="random")
    curve_csv(policy, [(100, 52.9)], policy="oracle")
    out = tmp_path / "out" / "report.csv"
    out.parent.mkdir()
    code = main(["report", str(policy), "--baseline", str(baseline), "--out", str(out)])
    assert code == 1
    assert list(out.parent.iterdir()) == []


def cyclic_garbage(argv):
    """The objects a successful ``main(argv)`` leaves that only a cycle
    collection frees."""
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert main(argv) == 0
        gc.collect()
        return list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


def test_cli_calls_leave_no_parser_garbage(tmp_path):
    # The parser is built once per process. What a simulate call leaves
    # is the pure-Python JSON encoder's closures, which its indented
    # output needs; a report call leaves nothing.
    baseline, policy = tmp_path / "random.csv", tmp_path / "oracle.csv"
    curve_csv(baseline, [(100, 48.3), (200, 50.0)], policy="random")
    curve_csv(policy, [(100, 52.9), (200, 55.0)], policy="oracle")
    report = ["report", str(policy), "--baseline", str(baseline), "--out"]
    assert cyclic_garbage([*report, str(tmp_path / "report.csv")]) == []
    simulate = ["simulate", "--config", str(sim_config(tmp_path)), "--out", str(tmp_path / "o")]
    assert [o for o in cyclic_garbage(simulate) if type(o).__module__ == "argparse"] == []


def test_report_suffixes_duplicate_labels(tmp_path):
    baseline = tmp_path / "random.csv"
    curve_csv(baseline, [(100, 50.0)], policy="random")
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    curve_csv(first, [(100, 55.0)], policy="oracle")
    curve_csv(second, [(100, 60.0)], policy="oracle")
    out = tmp_path / "report.csv"
    code = main(
        [
            "report",
            str(first),
            str(second),
            "--baseline",
            str(baseline),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert out.read_text().splitlines()[0] == "labeled_size,oracle,oracle_2"


def test_report_misaligned_curves_exit_4(tmp_path):
    baseline = tmp_path / "random.csv"
    policy = tmp_path / "oracle.csv"
    curve_csv(baseline, [(100, 48.3)], policy="random")
    curve_csv(policy, [(150, 52.9)], policy="oracle")
    out = tmp_path / "report.csv"
    code = main(
        ["report", str(policy), "--baseline", str(baseline), "--out", str(out)]
    )
    assert code == 4
    assert not out.exists()


def test_report_zero_baseline_exit_1(tmp_path):
    baseline = tmp_path / "random.csv"
    policy = tmp_path / "oracle.csv"
    curve_csv(baseline, [(100, 0.0)], policy="random")
    curve_csv(policy, [(100, 52.9)], policy="oracle")
    code = main(
        [
            "report",
            str(policy),
            "--baseline",
            str(baseline),
            "--out",
            str(tmp_path / "report.csv"),
        ]
    )
    assert code == 1


def test_report_rejects_bad_header(tmp_path):
    baseline = tmp_path / "random.csv"
    baseline.write_text("wrong,header\n1,2\n", encoding="utf-8")
    policy = tmp_path / "oracle.csv"
    curve_csv(policy, [(100, 52.9)], policy="oracle")
    code = main(
        [
            "report",
            str(policy),
            "--baseline",
            str(baseline),
            "--out",
            str(tmp_path / "report.csv"),
        ]
    )
    assert code == 2


def test_report_non_integer_labeled_size_exits_2(tmp_path):
    baseline = tmp_path / "random.csv"
    curve_csv(baseline, [("ten", 48.3)], policy="random")
    policy = tmp_path / "oracle.csv"
    curve_csv(policy, [(10, 52.9)], policy="oracle")
    out = tmp_path / "report.csv"
    code = main(["report", str(policy), "--baseline", str(baseline), "--out", str(out)])
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("where", ["policy", "baseline"])
def test_report_non_finite_metric_exits_2(tmp_path, capsys, cell, where):
    baseline = tmp_path / "random.csv"
    policy = tmp_path / "oracle.csv"
    curves = {"policy": [(5, 52.9), (6, 53.1)], "baseline": [(5, 48.3), (6, 49.0)]}
    curves[where][1] = (6, cell)
    curve_csv(baseline, curves["baseline"], policy="random")
    curve_csv(policy, curves["policy"], policy="oracle")
    out = tmp_path / "report.csv"
    code = main(["report", str(policy), "--baseline", str(baseline), "--out", str(out)])
    assert code == 2
    assert ".csv:3" in capsys.readouterr().err
    assert not out.exists()


def test_report_names_the_file_line_of_a_bad_row_after_a_blank_line(tmp_path, capsys):
    # Rows were numbered after blank lines were dropped: this said oracle.csv:3.
    baseline = tmp_path / "random.csv"
    curve_csv(baseline, [(5, 48.3), (6, 49.0)], policy="random")
    policy = tmp_path / "oracle.csv"
    policy.write_text("labeled_size,metric,policy,seed\n5,52.9,oracle,1\n\n6,x,oracle,1\n")
    out = tmp_path / "report.csv"
    code = main(["report", str(policy), "--baseline", str(baseline), "--out", str(out)])
    assert code == 2
    assert "oracle.csv:4: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, overrides, key",
    [
        ("simulate", {"repeats": 0}, "repeats=0"),
        ("simulate", {"partition_sizes": [6, 44, -1, 6]}, "partition_sizes"),
        ("probe-mrr", {"partition_sizes": [6, 44, -1, 6]}, "partition_sizes"),
    ],
)
def test_refused_counts_exit_2_writing_nothing(tmp_path, capsys, command, overrides, key):
    make = sim_config if command == "simulate" else probe_config
    config, out = make(tmp_path, **overrides), tmp_path / "o"
    assert main([command, "--config", str(config), "--out", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_probe_empty_eval_partition_exits_1(tmp_path, capsys):
    config, out = probe_config(tmp_path, partition_sizes=[6, 44, 0, 6]), tmp_path / "o"
    assert main(["probe-mrr", "--config", str(config), "--out", str(out)]) == 1
    assert "eval partition must be non-empty" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "probe-mrr"])
def test_dataset_of_blank_lines_exits_1(tmp_path, capsys, command):
    make = sim_config if command == "simulate" else probe_config
    config, out = make(tmp_path), tmp_path / "o"
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_text("\n\n  \n", encoding="utf-8")
    assert main([command, "--config", str(config), "--out", str(out)]) == 1
    assert f"{dataset}: no examples" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_non_integer_repeats_exits_2(tmp_path):
    config = sim_config(tmp_path, repeats="x")
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "overrides, key",
    [
        ({"repeats": 2.5}, "repeats"),
        ({"iterations": 3.7}, "iterations"),
        ({"partition_sizes": [6, 44, 8.5, 6]}, "partition_sizes"),
        ({"master_seed": True}, "master_seed"),
        ({"policy": {"name": "oracle_switch", "switch_after": 1.5}}, "switch_after"),
        (
            {"learner": {"family": "linear_softmax", "input_dim": 4, "class_count": 2.5}},
            "class_count",
        ),
    ],
)
def test_simulate_fractional_integer_key_exits_2(tmp_path, capsys, overrides, key):
    config = sim_config(tmp_path, **overrides)
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "overrides, key",
    [
        ({"window": 2.5}, "window"),
        ({"seed_pair": [31, 31.5]}, "seed_pair"),
        ({"candidate_count": "3"}, "candidate_count"),
    ],
)
def test_probe_fractional_integer_key_exits_2(tmp_path, capsys, overrides, key):
    config = probe_config(tmp_path, **overrides)
    out = tmp_path / "o"
    assert main(["probe-mrr", "--config", str(config), "--out", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_integral_float_counts_run_like_integers(tmp_path):
    whole = sim_config(tmp_path, repeats=2, iterations=3.0)
    assert main(["simulate", "--config", str(whole), "--out", str(tmp_path / "a")]) == 0
    plain = sim_config(tmp_path, repeats=2)
    assert main(["simulate", "--config", str(plain), "--out", str(tmp_path / "b")]) == 0
    for name in ("run_0.json", "run_1.json", "mean_curve.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize(
    "payload",
    [{"features": ["x"], "label": 0}, {"tokens": [[1.0], [2.0, 3.0]], "label": [0, 1]}],
)
def test_dataset_line_with_bad_numbers_exits_1(tmp_path, capsys, payload):
    config = sim_config(tmp_path)
    dataset = tmp_path / "dataset.jsonl"
    lines = dataset.read_text(encoding="utf-8").splitlines()
    lines[3] = json.dumps({"id": 3, **payload})
    dataset.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
    assert "dataset.jsonl:4" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["id", "label"])
def test_dataset_line_without_id_or_label_exits_1(tmp_path, key):
    config = sim_config(tmp_path)
    dataset = tmp_path / "dataset.jsonl"
    lines = dataset.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[3])
    del record[key]
    lines[3] = json.dumps(record)
    dataset.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")]) == 1


def test_nan_scores_exit_1(tmp_path, monkeypatch):
    from alol import engine
    from test_engine import nan_scores

    monkeypatch.setattr(engine, "fit_stacked", nan_scores(engine.fit_stacked))
    config = sim_config(tmp_path)
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")]) == 1


def test_misaligned_repeat_curves_exit_4_and_write_nothing(tmp_path, monkeypatch):
    from alol import engine

    curve = engine.learning_curve
    calls = []

    def shifted(log):
        # Repeat 1's checkpoints sit one example later than repeat 0's.
        calls.append(log)
        return [(size + len(calls) - 1, value) for size, value in curve(log)]

    monkeypatch.setattr(engine, "learning_curve", shifted)
    config = sim_config(tmp_path, repeats=2)
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 4
    assert len(calls) == 2
    assert not out.exists()


def with_learner(**changes):
    learner = {
        "family": "linear_softmax",
        "input_dim": 4,
        "class_count": 2,
        "learning_rate": 0.5,
        "max_epochs": 20,
    }
    return {"learner": {**learner, **changes}}


# Each of these configs was accepted or misreported before every key was
# decoded by its field type (a linear learner's hidden_dim, before it had to
# be 0): most exited 0, "log_oracle_scores": "no" read as true, a
# cluster_separation of NaN wrote a dataset that then failed to load, and
# "partition_sizes": 7 exited 2 without naming the key. A JSON literal
# 1e999 parses to the same infinity as the one written here.
@pytest.mark.parametrize(
    "command, overrides, key",
    [
        ("simulate", with_learner(learning_rate=float("nan")), "learner.learning_rate"),
        ("simulate", with_learner(learning_rate=float("inf")), "learner.learning_rate"),
        ("simulate", with_learner(learning_rate="0.5"), "learner.learning_rate"),
        ("simulate", with_learner(learning_rate=True), "learner.learning_rate"),
        ("simulate", {"policy": {"name": "epsilon_greedy", "epsilon": "0.5"}}, "policy.epsilon"),
        ("simulate", with_learner(stop_epsilon=float("nan")), "learner.stop_epsilon"),
        ("simulate", {"log_oracle_scores": "no"}, "log_oracle_scores"),
        ("simulate", {"partition_sizes": 7}, "partition_sizes"),
        ("gen-data", {"n": 40.7}, "n"),
        ("gen-data", {"n": True}, "n"),
        ("gen-data", {"cluster_separation": float("nan")}, "cluster_separation"),
        ("gen-data", {"input_dim": 10**30}, "input_dim"),
        ("simulate", with_learner(input_dim=10**30), "learner.input_dim"),
        ("simulate", with_learner(hidden_dim=3), "learner: hidden_dim"),
    ],
)
def test_malformed_config_exits_2_naming_the_key(tmp_path, capsys, command, overrides, key):
    if command == "simulate":
        config, out = sim_config(tmp_path, **overrides), tmp_path / "o"
        written = [out]
    else:
        config, out = gen_config(tmp_path, **overrides), tmp_path / "data.jsonl"
        written = [out, tmp_path / "data.provenance.jsonl"]
    assert main([command, "--config", str(config), "--out", str(out)]) == 2
    assert f": {key}=" in capsys.readouterr().err
    assert not any(path.exists() for path in written)


# Sizes whose largest array numpy cannot shape ended in a numpy ValueError
# traceback, as did integers past 64 bits (above); a size numpy can shape
# but not allocate (input_dim 2**40) ends in MemoryError, which the next
# test raises in place of asking numpy for such an array.
@pytest.mark.parametrize(
    "command, overrides, key",
    [
        ("gen-data", {"input_dim": 2**61}, "numpy"),
        ("gen-data", {"kind": "token_tagging", "seq_len_range": [1, 2**60]}, "numpy"),
        ("simulate", with_learner(input_dim=2**61), "learner: parameters"),
        ("simulate", with_learner(family="mlp", hidden_dim=2**61), "learner: parameters"),
        ("simulate", with_learner(max_epochs=2**62), "learner: parameters"),
    ],
)
def test_config_sizes_numpy_cannot_shape_exit_2(tmp_path, capsys, command, overrides, key):
    make = sim_config if command == "simulate" else gen_config
    config, out = make(tmp_path, **overrides), tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("error", [MemoryError(), MemoryError("Unable to allocate 24.0 TiB")])
def test_memory_error_exits_1_with_a_message(tmp_path, capsys, monkeypatch, error):
    def generate(spec):
        raise error

    monkeypatch.setattr(datagen, "generate", generate)
    out = tmp_path / "data.jsonl"
    assert main(["gen-data", "--config", str(gen_config(tmp_path)), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {str(error) or 'MemoryError'}\n"
    assert not out.exists()


# numpy read a bool among numbers as 1 or 0, so these lines loaded.
@pytest.mark.parametrize(
    "first, line",
    [
        ('{"id":1,"features":[1.0,2.0],"label":1}', '{"id":0,"features":[1.0,true],"label":0}'),
        (
            '{"id":1,"tokens":[[1.0]],"label":[1]}',
            '{"id":0,"tokens":[[1.0],[2.0]],"label":[true,1]}',
        ),
    ],
)
def test_dataset_line_with_a_bool_among_numbers_exits_1(tmp_path, capsys, first, line):
    config = sim_config(tmp_path)
    (tmp_path / "dataset.jsonl").write_text(f"{first}\n{line}\n", encoding="utf-8")
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "dataset.jsonl:2: example 0: " in err and "Traceback" not in err


# Fuzzing through main: whatever the dataset lines or curve rows, a run
# ends with a documented exit code and no traceback.
FUZZ = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


# JSON that no reader decodes: an array nested past the recursion limit,
# and an integer past Python's 4300-digit limit for int-string conversion.
DEEP = b"[" * 200_000 + b"]" * 200_000
DIGITS = b"9" * 5000


@st.composite
def dataset_lines(draw):
    """The lines of a dataset file: valid 2-feature examples, up to two of
    them replaced by arbitrary text or bytes, by an array nested 200 000
    deep, or with one key set to an arbitrary JSON value or holding a
    5000-digit integer."""
    records = [
        {"id": i, "features": [0.5 * i, (-1.0) ** i], "label": i % 2}
        for i in range(draw(st.integers(4, 12)))
    ]
    lines = [json.dumps(record).encode("utf-8") for record in records]
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(lines)))
        kind = draw(st.sampled_from(["key", "text", "bytes", "deep", "digits"]))
        record = records[at] if at < len(records) else {"id": at, "label": 0}
        if kind == "key":
            key = draw(st.sampled_from(["id", "features", "tokens", "label", "x"]))
            line = json.dumps({**record, key: draw(JSON_VALUES)}).encode("utf-8")
        elif kind == "digits":
            key = draw(st.sampled_from(["id", "features", "label"]))
            number = b"[" + DIGITS + b", 0.5]" if key == "features" else DIGITS
            line = json.dumps({**record, key: "@"}).encode("utf-8").replace(b'"@"', number)
        elif kind == "text":
            line = draw(st.text(max_size=30)).encode("utf-8", "surrogatepass")
        elif kind == "bytes":
            line = draw(st.binary(max_size=30))
        else:
            line = DEEP
        lines[at:at + 1] = [line]
    return lines


def run_main_quietly(argv):
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert code in (0, 1, 2, 3, 4)
    assert "Traceback" not in stderr.getvalue()
    return code


FUZZ_CONFIGS = {
    "simulate": {
        "command": "simulate",
        "dataset": "data.jsonl",
        "iterations": 2,
        "candidate_count": 2,
        "set_size": 1,
        "policy": {"name": "oracle"},
        "learner": {
            "family": "linear_softmax",
            "input_dim": 2,
            "class_count": 2,
            "max_epochs": 3,
        },
        "selection_metric": "accuracy",
        "report_metric": "accuracy",
        "master_seed": 5,
        "partition_sizes": [1, 3, 1, 1],
    },
    "probe-mrr": {
        "command": "probe-mrr",
        "dataset": "data.jsonl",
        "iterations": 2,
        "candidate_count": 2,
        "set_size": 1,
        "learner": {"family": "linear_softmax", "input_dim": 2, "class_count": 2},
        "selection_metric": "accuracy",
        "seed_pair": [3, 4],
        "partition_sizes": [1, 3, 1, 1],
    },
    "gen-data": {
        "command": "gen-data",
        "kind": "gaussian_clusters",
        "n": 8,
        "input_dim": 2,
        "class_count": 2,
        "cluster_separation": 4.0,
        "noise_fraction": 0.25,
        "seed": 13,
    },
}


@FUZZ
@given(lines=dataset_lines())
def test_arbitrary_dataset_lines_exit_with_a_documented_code(lines):
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        (root / "data.jsonl").write_bytes(b"\n".join(lines))
        write_json(root / "sim.json", FUZZ_CONFIGS["simulate"])
        argv = ["simulate", "--config", str(root / "sim.json")]
        code = run_main_quietly(argv + ["--out", str(root / "out")])
        if DEEP in lines or any(DIGITS in line for line in lines):
            assert code == 1
        assert code == 0 or not (root / "out").exists()


@st.composite
def undecodable_configs(draw):
    """A subcommand and the bytes of a config file for it that is an array
    nested 200 000 deep or a 5000-digit integer, or that holds one of them
    under one of its keys, a new key or a key of its learner."""
    command = draw(st.sampled_from(sorted(FUZZ_CONFIGS) + ["report"]))
    value = draw(st.sampled_from([DEEP, DIGITS, b"[" + DIGITS + b"]", b"-" + DIGITS]))
    config = FUZZ_CONFIGS.get(command, FUZZ_CONFIGS["simulate"])
    key = draw(st.sampled_from(sorted(config) + ["x", "learner.learning_rate", None]))
    if key is None:
        return command, value
    if key == "learner.learning_rate":
        config = {**config, "learner": {**config.get("learner", {}), "learning_rate": "@"}}
    else:
        config = {**config, key: "@"}
    return command, json.dumps(config, indent=2).encode("utf-8").replace(b'"@"', value)


@FUZZ
@given(case=undecodable_configs())
def test_undecodable_config_exits_2_writing_nothing(case):
    command, text = case
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        (root / "config.json").write_bytes(text)
        out = root / "out"
        if command == "report":
            curve = str(root / "config.json")
            argv = ["report", curve, "--baseline", curve, "--out", str(out)]
        else:
            argv = [command, "--config", str(root / "config.json"), "--out", str(out)]
        assert run_main_quietly(argv) == 2
        assert sorted(path.name for path in root.iterdir()) == ["config.json"]


CSV_CELLS = st.one_of(
    st.integers(-3, 12).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["", "nan", "-inf", "1e3", " 4", "policy"]),
    st.text(max_size=6),
)


@st.composite
def curve_files(draw):
    """Two curve CSVs on one grid of labeled sizes, with up to two cells of
    each replaced by arbitrary ones, a row cut short, a header that is not
    the curve header, or a last line of arbitrary bytes."""
    sizes = draw(st.lists(st.integers(0, 50), max_size=5))
    files = []
    for _ in range(2):
        rows = [[str(size), repr(draw(st.floats(0, 1))), "policy", "1"] for size in sizes]
        header = draw(st.sampled_from(["labeled_size,metric,policy,seed"] * 3 + ["size,metric"]))
        for _ in range(draw(st.integers(0, 2)) if rows else 0):
            row = rows[draw(st.integers(0, len(rows) - 1))]
            if row and draw(st.booleans()):
                row[draw(st.integers(0, len(row) - 1))] = draw(CSV_CELLS)
            else:
                del row[draw(st.integers(0, len(row))) :]
        lines = [header] + [",".join(row) for row in rows]
        text = "\n".join(lines).encode("utf-8", "surrogatepass") + b"\n"
        files.append(text + draw(st.one_of(*[st.just(b"")] * 3, st.binary(max_size=8))))
    return files


@FUZZ
@given(files=curve_files())
def test_arbitrary_report_rows_exit_with_a_documented_code(files):
    policy, baseline = files
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        (root / "policy.csv").write_bytes(policy)
        (root / "random.csv").write_bytes(baseline)
        argv = ["report", str(root / "policy.csv"), "--baseline", str(root / "random.csv")]
        run_main_quietly(argv + ["--out", str(root / "improvement.csv")])
