"""Print the README's reference figures from the traced results of one seed.

Usage (from the repository root):
    for w in oracle_linear probe_mlp tagging_f1; do
        python3 bench/run.py --workload $w --seed 1 --seconds 30 --trace 1
    done
    python3 bench/reference.py 1
"""

import json
import sys
from pathlib import Path

import workloads

RESULTS = Path(__file__).resolve().parent / "results"


def main(seed: str) -> None:
    rows = []
    for workload in workloads.NAMES:
        record = json.loads((RESULTS / f"{workload}-seed{seed}-trace1.json").read_text())
        m = {k: v["value"] for k, v in record["result"]["metrics"].items()}
        fits = m["learners.train_calls"] + m["learners.fine_tune_calls"]
        facts = record["facts"]
        ties = (
            f"{facts['tied_decisions']} of {facts['oracle_decisions']}"
            if "tied_decisions" in facts
            else "n/a"
        )
        shares = ", ".join(
            f"{layer} {100 * share:.0f}%"
            for layer, share in record["layer_shares"].items()
            if share >= 0.005
        )
        rows.append(
            f"| {workload} | {m['learners.epochs'] / fits:.1f} | {ties} | {shares} "
            f"| {m['trace.overhead_pct']:.1f}% |"
        )
    columns = [
        "workload",
        "epochs per fit",
        "oracle decisions tied at the top",
        "layer self time / traced wall",
        "tracing overhead",
    ]
    print("| " + " | ".join(columns) + " |")
    print("| --- | --- | --- | --- | --- |")
    for row in rows:
        print(row)


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "1")
