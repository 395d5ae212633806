"""One set-up pass in a fresh interpreter: import alol, run gen-data, write configs.

Usage: python3 bench/prepare.py WORKLOAD SEED DIR TRACE

Prints one JSON line: the CLOCK_MONOTONIC reading when the inputs were
ready (comparable with the parent's reading taken before it started this
interpreter), the gen-data exit code, and with TRACE=1 the span summary.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from alol import cli  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def main(argv: list[str]) -> int:
    workload, seed, out, trace = argv[0], int(argv[1]), Path(argv[2]), argv[3] == "1"
    tracer = tracing.Tracer() if trace else None
    if tracer:
        tracer.install()
    workloads.write_inputs(workload, seed, out)
    gen = workloads.gen_call(out)
    code = tracer.call("cli.main", cli.main, (gen,)) if tracer else cli.main(gen)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    layers = tracer.summary() if tracer else None
    print(json.dumps({"ready": ready, "code": code, "layers": layers}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
