import ast
import dataclasses
import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alol.datagen import GenKind, GenSpec, generate
from alol.engine import IterationRecord, RunLog, SimulationConfig, run_simulation
from alol.errors import AlolError, SchemaError
from alol.learners import LearnerFamily, LearnerSpec
from alol.metrics import MetricKind
from alol.policies import PolicyName, PolicySpec, TrainingMode
from alol.probe import MrrConfig
from alol.schema import from_json, to_json

LEARNER = LearnerSpec(
    family=LearnerFamily.MLP,
    input_dim=4,
    class_count=2,
    hidden_dim=3,
    learning_rate=0.5,
    max_epochs=20,
    patience=4,
    stop_epsilon=1e-3,
    init_scale=0.2,
)
POLICY = PolicySpec(
    name=PolicyName.EPSILON_GREEDY,
    epsilon=0.25,
    switch_after=2,
    training_mode=TrainingMode.FINE_TUNE_CANDIDATE_ONLY,
)
GEN = GenSpec(
    kind=GenKind.TOKEN_TAGGING,
    n=40,
    input_dim=4,
    class_count=3,
    cluster_separation=6.0,
    noise_fraction=0.25,
    seed=17,
    seq_len_range=(3, 7),
)
SIMULATION = SimulationConfig(
    iterations=3,
    candidate_count=4,
    set_size=1,
    policy=POLICY,
    learner=LEARNER,
    selection_metric=MetricKind.ACCURACY,
    report_metric=MetricKind.MACRO_F1,
    master_seed=77,
    partition_sizes=(6, 44, 8, 6),
    checkpoint_every=3,
    log_oracle_scores=True,
)
MRR = MrrConfig(
    iterations=5,
    candidate_count=4,
    set_size=1,
    learner=LEARNER,
    selection_metric=MetricKind.ACCURACY,
    seed_pair=(31, 32),
    partition_sizes=(6, 44, 8, 6),
    window=2,
    training_mode=TrainingMode.INDEPENDENT_FROM_SCRATCH,
)


def run_log():
    config = SimulationConfig(
        iterations=2,
        candidate_count=3,
        set_size=1,
        policy=PolicySpec(name=PolicyName.ORACLE),
        learner=LearnerSpec(family=LearnerFamily.LINEAR_SOFTMAX, input_dim=4, class_count=2),
        selection_metric=MetricKind.ACCURACY,
        report_metric=MetricKind.ACCURACY,
        master_seed=5,
        partition_sizes=(6, 44, 8, 6),
    )
    dataset, _ = generate(
        GenSpec(
            kind=GenKind.GAUSSIAN_CLUSTERS,
            n=64,
            input_dim=4,
            class_count=2,
            cluster_separation=4.0,
            noise_fraction=0.2,
            seed=9,
        )
    )
    return run_simulation(config, dataset)


@pytest.mark.parametrize(
    "make",
    [lambda: LEARNER, lambda: GEN, lambda: SIMULATION, lambda: MRR, run_log],
    ids=["LearnerSpec", "GenSpec", "SimulationConfig", "MrrConfig", "RunLog"],
)
def test_round_trip(make):
    obj = make()
    assert from_json(type(obj), to_json(obj)) == obj


@dataclasses.dataclass(frozen=True)
class Plain:
    seed: int


@dataclasses.dataclass(frozen=True)
class Flagged:
    seed: int
    extra: int = dataclasses.field(default=0, metadata={"omit_default": True})


def test_omit_default_field_at_its_default_writes_no_key():
    assert json.dumps(to_json(Flagged(3))) == json.dumps(to_json(Plain(3)))
    assert from_json(Flagged, to_json(Flagged(3))) == Flagged(3)
    assert to_json(Flagged(3, extra=5)) == {"seed": 3, "extra": 5}
    assert from_json(Flagged, to_json(Flagged(3, extra=5))) == Flagged(3, extra=5)


def test_to_json_keys_follow_field_order():
    # Output bytes follow dataclass field order; these are the key orders
    # that summary.json, run_<r>.json and mrr_summary.json have always had.
    assert list(to_json(SIMULATION)) == [
        "iterations",
        "candidate_count",
        "set_size",
        "policy",
        "learner",
        "selection_metric",
        "report_metric",
        "master_seed",
        "partition_sizes",
        "checkpoint_every",
        "log_oracle_scores",
    ]
    assert list(to_json(POLICY)) == ["name", "epsilon", "switch_after", "training_mode"]
    assert list(to_json(LEARNER)) == [
        "family",
        "input_dim",
        "class_count",
        "hidden_dim",
        "learning_rate",
        "max_epochs",
        "patience",
        "stop_epsilon",
        "init_scale",
    ]
    assert list(to_json(MRR)) == [
        "iterations",
        "candidate_count",
        "set_size",
        "learner",
        "selection_metric",
        "seed_pair",
        "partition_sizes",
        "window",
        "training_mode",
    ]
    record = IterationRecord(1, ((3,), (4,)), (0.5, 0.25), 0, None, 7, 0.5, "ab")
    assert to_json(record) == {
        "iteration": 1,
        "candidate_ids": [[3], [4]],
        "scores": [0.5, 0.25],
        "chosen_index": 0,
        "branch": None,
        "labeled_size_after": 7,
        "checkpoint": 0.5,
        "base_model_fingerprint": "ab",
    }
    assert list(to_json(run_log())) == [
        "config",
        "initial_labeled_ids",
        "initial_checkpoint",
        "records",
        "final_model_fingerprint",
        "truncated",
    ]


@pytest.mark.parametrize(
    "key, value, expected",
    [
        ("max_epochs", 20.0, 20),
        ("learning_rate", 1, 1.0),
        ("learning_rate", 10**400, None),
        ("max_epochs", 20.5, None),
        ("max_epochs", True, None),
        ("learning_rate", math.inf, None),
        ("learning_rate", "0.5", None),
        ("family", "svm", None),
        ("family", ["mlp"], None),
    ],
)
def test_decoding_by_annotation(key, value, expected):
    data = {**to_json(LEARNER), key: value}
    if expected is None:
        with pytest.raises(SchemaError, match=f"^{key}="):
            from_json(LearnerSpec, data)
    else:
        decoded = getattr(from_json(LearnerSpec, data), key)
        assert decoded == expected and type(decoded) is type(expected)


@pytest.mark.parametrize(
    "seed, accepted",
    [
        (2**64 - 1, True),
        (-(2**63), True),
        (float(2**63), True),
        (2**64, False),
        (-(2**63) - 1, False),
        (10**30, False),
        (1e30, False),
    ],
)
def test_integers_are_refused_outside_64_bits(seed, accepted):
    # numpy holds no integer past this range; the lab's seeds span it.
    data = {**to_json(GEN), "seed": seed}
    if accepted:
        assert from_json(GenSpec, data).seed == seed
    else:
        expected = re.escape("is not an integer in [-2**63, 2**64)")
        with pytest.raises(SchemaError, match=f"^seed=.* {expected}"):
            from_json(GenSpec, data)


def test_errors_name_the_dotted_key():
    data = to_json(SIMULATION)
    data["learner"]["stop_epsilon"] = math.nan
    with pytest.raises(SchemaError, match=r"^learner\.stop_epsilon=nan "):
        from_json(SimulationConfig, data)
    data["learner"]["stop_epsilon"] = 0.5
    data["learner"]["patience"] = 0
    with pytest.raises(SchemaError, match=r"^learner: max_epochs and patience must be >= 1"):
        from_json(SimulationConfig, data)
    data = to_json(run_log())
    data["records"][1]["scores"][2] = "high"
    with pytest.raises(SchemaError, match=r"^records\[1\]\.scores\[2\]='high' "):
        from_json(RunLog, data)
    with pytest.raises(SchemaError, match=r"^policy: unknown keys \['eps'\]"):
        from_json(SimulationConfig, {**to_json(SIMULATION), "policy": {"name": "oracle", "eps": 1}})
    with pytest.raises(SchemaError, match=r"^missing keys \['n', 'seed'\]"):
        from_json(GenSpec, {k: v for k, v in to_json(GEN).items() if k not in ("n", "seed")})
    with pytest.raises(SchemaError, match=r"^seed_pair needs 2 entries, got 3"):
        from_json(MrrConfig, {**to_json(MRR), "seed_pair": [1, 2, 3]})


json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**400), max_value=10**400)
    | st.floats()
    | st.text(max_size=6)
)
json_values = json_scalars | st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


@pytest.mark.parametrize(
    "valid", [LEARNER, POLICY, GEN, SIMULATION, MRR], ids=lambda x: type(x).__name__
)
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(value=json_values)
def test_any_json_value_decodes_or_raises_alol_error(valid, value):
    # The value replaces each key of a valid payload in turn.
    for key in to_json(valid):
        payload = {**to_json(valid), key: value}
        try:
            obj = from_json(type(valid), payload)
        except AlolError:
            continue
        assert isinstance(obj, type(valid))


def test_only_schema_opens_files():
    # Every file's encoding is decided in one module: no other calls open,
    # as a name (the builtin) or as an attribute (io.open, os.open, Path.open).
    callers = []
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "alol").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if name == "open":
                    callers.append(f"{path.name}:{node.lineno}")
    assert [c for c in callers if not c.startswith("schema.py:")] == []
    assert callers, "schema.py reads and writes through open"
