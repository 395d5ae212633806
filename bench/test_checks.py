"""The benchmark's checks pass on real output and fail on corrupted copies.

Real outputs come from the workloads' own inputs with fewer iterations, so
the module runs in seconds. Run with ``python3 -m pytest bench/test_checks.py``.
"""

import csv
import json
import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from alol.cli import main as cli_main  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

SEED = 1
SMALL_ITERATIONS = {"oracle_linear": 10, "probe_mlp": 10, "tagging_f1": 3}


@pytest.fixture(scope="module")
def real(tmp_path_factory):
    """workload -> (inputs dir, output dir) of one small round."""
    made = {}
    for workload in workloads.NAMES:
        top = tmp_path_factory.mktemp(workload)
        inputs, out = top / "inputs", top / "out"
        inputs.mkdir()
        for name, config in workloads.inputs(workload, SEED).items():
            if "iterations" in config:
                config["iterations"] = SMALL_ITERATIONS[workload]
            (inputs / name).write_text(json.dumps(config))
        assert cli_main(workloads.gen_call(inputs)) == 0
        for argv in workloads.round_calls(workload, inputs, out):
            assert cli_main(argv) == 0
        made[workload] = inputs, out
    return made


def corrupted_copy(real, workload, tmp_path):
    inputs, out = real[workload]
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    return inputs, copy


def edit_json(path: Path, change) -> None:
    data = json.loads(path.read_text())
    change(data)
    path.write_text(json.dumps(data, indent=2) + "\n")


def nudge_csv(path: Path, row: int, column: int, delta: float) -> None:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    rows[row][column] = f"{float(rows[row][column]) + delta:.9g}"
    path.write_text("\n".join(",".join(r) for r in rows) + "\n")


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_checks_pass_on_real_output(real, workload):
    inputs, out = real[workload]
    checks.check_workload(workload, inputs, out)


@pytest.mark.parametrize("workload", ["oracle_linear", "tagging_f1"])
@pytest.mark.parametrize("policy", ["oracle", "random"])
def test_flipped_chosen_index_fails(real, tmp_path, workload, policy):
    inputs, out = corrupted_copy(real, workload, tmp_path)

    def flip(log):
        record = log["records"][1]
        record["chosen_index"] = (record["chosen_index"] + 1) % len(record["candidate_ids"])

    edit_json(out / policy / "run_0.json", flip)
    with pytest.raises(checks.CheckError, match="chosen_index"):
        checks.check_workload(workload, inputs, out)


@pytest.mark.parametrize(
    "target, match",
    [
        ("oracle/curve_1.csv", "does not match run_1.json"),
        ("random/curve_0.csv", "does not match run_0.json"),
        ("oracle/mean_curve.csv", "is not the mean"),
        ("improvement.csv", "improvement.csv: row"),
    ],
)
def test_nudged_curve_or_report_cell_fails(real, tmp_path, target, match):
    inputs, out = corrupted_copy(real, "oracle_linear", tmp_path)
    nudge_csv(out / target, row=2, column=1, delta=1e-3)
    with pytest.raises(checks.CheckError, match=match):
        checks.check_workload("oracle_linear", inputs, out)


def test_changed_rank_fails(real, tmp_path):
    inputs, out = corrupted_copy(real, "probe_mlp", tmp_path)

    def change(summary):
        summary["ranks"][0] = summary["ranks"][0] % 5 + 1

    edit_json(out / "probe" / "mrr_summary.json", change)
    with pytest.raises(checks.CheckError, match="overall_mrr"):
        checks.check_workload("probe_mlp", inputs, out)


@pytest.mark.parametrize("workload", ["oracle_linear", "tagging_f1"])
def test_altered_fingerprint_fails(real, tmp_path, workload):
    inputs, out = corrupted_copy(real, workload, tmp_path)

    def alter(log):
        digest = log["final_model_fingerprint"]
        log["final_model_fingerprint"] = ("1" if digest[0] == "0" else "0") + digest[1:]

    edit_json(out / "oracle" / "run_0.json", alter)
    with pytest.raises(checks.CheckError, match="final_model_fingerprint"):
        checks.check_workload(workload, inputs, out)
