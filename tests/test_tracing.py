"""The benchmark's tracer (``bench/tracing.py``) against this source tree.

The tracer looks up every name in its ``TARGETS`` when it is installed, so
a refactor that drops one of them breaks every traced benchmark run.
"""

import importlib.util
from pathlib import Path

from alol import cli, learners, pool

from test_cli import probe_config, sim_config

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_against_src():
    tracing = load_tracing()
    originals = {(module, attr): getattr(module, attr) for module, attr, _, _ in tracing.TARGETS}
    randoms = {module: module.SplitMix64 for module in (learners, pool)}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (module, attr), original in originals.items():
            assert getattr(module, attr).__wrapped__ is original
        for module, original in randoms.items():
            assert module.SplitMix64 is not original
    finally:
        tracer.uninstall()
    for (module, attr), original in originals.items():
        assert getattr(module, attr) is original
    for module, original in randoms.items():
        assert module.SplitMix64 is original


def test_traced_simulate_writes_the_untraced_bytes(tmp_path):
    tracing = load_tracing()
    config = sim_config(tmp_path, repeats=2)
    plain, traced = tmp_path / "plain", tmp_path / "traced"
    assert cli.main(["simulate", "--config", str(config), "--out", str(plain)]) == 0
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main(["simulate", "--config", str(config), "--out", str(traced)]) == 0
    finally:
        tracer.uninstall()
    assert tracer.summary()["trace.spans"] > 0
    for path in sorted(plain.iterdir()):
        assert (traced / path.name).read_bytes() == path.read_bytes()


def test_traced_probe_writes_the_untraced_bytes(tmp_path):
    tracing = load_tracing()
    config = probe_config(tmp_path, seed_pair=[31, 37])
    plain, traced = tmp_path / "plain", tmp_path / "traced"
    assert cli.main(["probe-mrr", "--config", str(config), "--out", str(plain)]) == 0
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main(["probe-mrr", "--config", str(config), "--out", str(traced)]) == 0
    finally:
        tracer.uninstall()
    assert tracer.summary()["trace.spans"] > 0
    for path in sorted(plain.iterdir()):
        assert (traced / path.name).read_bytes() == path.read_bytes()
