import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from alol.errors import (
    AlolError,
    PartitionInfeasibleError,
    PoolExhaustedError,
    StaleCandidateError,
)
from alol.pool import (
    CandidateSet,
    Dataset,
    Example,
    PoolState,
    commit_selection,
    load_dataset,
    sample_candidates,
    save_dataset,
    split_dataset,
    stale_id,
)
from alol.rng import PURPOSE_SPLIT, derive_seed

from test_cli import JSON_VALUES
from test_rng import ScalarStream

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def single(example_id, values, label):
    return Example(
        id=example_id,
        features=np.asarray(values, dtype=float).reshape(1, -1),
        labels=np.array([label]),
        sequence=False,
    )


def toy_dataset(n, dim=2):
    return Dataset(
        examples=tuple(single(i, [float(i)] * dim, i % 2) for i in range(n))
    )


def test_example_validation():
    with pytest.raises(AlolError):
        Example(id=1, features=np.zeros((2, 3)), labels=np.array([0]), sequence=True)
    with pytest.raises(AlolError):
        Example(id=1, features=np.zeros(3), labels=np.array([0]), sequence=False)
    with pytest.raises(AlolError):
        Example(id=1, features=np.zeros((1, 3)), labels=np.array([-1]), sequence=False)


# Most of these Examples were built before the payload rule moved into
# Example; save_dataset then wrote a line that load_dataset refused (NaN,
# an id past 2**64 - 1), raised TypeError (a numpy id) or silently wrote
# another value (a float label as its integer part, a bool as 1).
@pytest.mark.parametrize(
    "example_id, features, labels",
    [
        (7, [[math.nan, 1.0]], [0]),
        (7, [[1.0], [math.inf]], [0, 1]),
        (7, [[-math.inf]], [0]),
        (7, [[True, False]], [0]),
        (7, [["1.0"]], [0]),
        (7, [[None]], [0]),
        (7, [[1.0], [2.0, 3.0]], [0, 1]),
        (7, [[]], [0, 1]),
        (7, np.zeros((0, 2)), np.zeros(0, dtype=int)),
        (7, [[1.0]], [1.5]),
        (7, [[1.0]], [1.0]),
        (7, [[1.0]], [-1]),
        (7, [[1.0]], [True]),
        (7, [[1.0]], ["0"]),
        (7, [[1.0]], np.array([2**63], dtype=np.uint64)),
        (7, [[1.0]], [[0]]),
        (7.0, [[1.0]], [0]),
        (2**64, [[1.0]], [0]),
        (-(2**63) - 1, [[1.0]], [0]),
        (np.int64(7), [[1.0]], [0]),
        (True, [[1.0]], [0]),
        (7, [[1.0, True]], [0]),
        (7, [[1.0], [2.0]], [True, 1]),
    ],
)
def test_example_refuses_payloads_outside_the_rule_naming_its_id(example_id, features, labels):
    with pytest.raises(AlolError, match=rf"^example {re.escape(str(example_id))}: "):
        Example(id=example_id, features=features, labels=labels, sequence=True)


def test_single_vector_example_holds_one_token():
    # save_dataset wrote only its first token.
    with pytest.raises(AlolError, match="example 3"):
        Example(id=3, features=np.zeros((2, 1)), labels=[0, 1], sequence=False)


def test_dataset_refuses_mixed_payload_kinds():
    # save_dataset would write a file that load_dataset refuses.
    with pytest.raises(AlolError, match="example 1"):
        Dataset(examples=(single(0, [0.0], 0), Example(1, np.zeros((1, 1)), [0], True)))


@st.composite
def buildable_datasets(draw):
    """Datasets drawn from ids, features, labels and payload kinds of many
    types, values and shapes (NaN, infinities, bools, float labels, numpy
    ids, mixed kinds among them); a draw that ``Example`` or ``Dataset``
    refuses is rejected, so every kind of Dataset that can be built is left."""
    sequence, dim = draw(st.booleans()), draw(st.integers(0, 3))
    ids = st.integers(-(2**63) - 1, 2**64)
    ids = draw(st.lists(ids, min_size=1, max_size=5, unique=True))
    examples = []
    for example_id in ids:
        if draw(st.integers(0, 9)) == 0:
            example_id = draw(st.sampled_from([np.int64(example_id % 7), float(example_id)]))
        tokens = draw(st.integers(1, 3)) if sequence else 1
        kind = draw(st.sampled_from(["f8", "f4", "f2", "i8", "u8", "i1", "?"]))
        finite = {"allow_nan": False, "allow_infinity": False}
        finite = finite if kind[0] == "f" and draw(st.integers(0, 4)) else None
        features = draw(hnp.arrays(kind, (tokens, dim), elements=finite))
        kind = draw(st.sampled_from(["i8", "u8", "i4", "u1", "f8"]))
        low = 0 if kind[0] == "u" else -1
        top = 9 if kind == "f8" else min(int(np.iinfo(kind).max), 2**63)
        labels = draw(hnp.arrays(kind, tokens, elements=st.integers(low, top)))
        flip = draw(st.integers(0, 9)) == 0
        examples.append((example_id, features, labels, sequence != flip))
    try:
        return Dataset(examples=tuple(Example(*example) for example in examples))
    except AlolError:
        reject()


@PROPERTY
@given(dataset=buildable_datasets())
def test_every_buildable_dataset_survives_a_jsonl_round_trip(dataset):
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "d.jsonl"
        save_dataset(dataset, path)
        assert load_dataset(path) == dataset


def test_example_token_count():
    ex = Example(
        id=0, features=np.zeros((4, 2)), labels=np.zeros(4, dtype=int), sequence=True
    )
    assert ex.token_count == 4


def test_dataset_rejects_duplicates_and_mixed_dims():
    with pytest.raises(AlolError):
        Dataset(examples=(single(1, [0.0, 0.0], 0), single(1, [1.0, 1.0], 1)))
    with pytest.raises(AlolError):
        Dataset(examples=(single(1, [0.0, 0.0], 0), single(2, [1.0], 1)))


def test_pool_state_rejects_overlap():
    with pytest.raises(AlolError):
        PoolState(labeled=(1, 2), unlabeled=(2, 3), eval=(), report=())
    with pytest.raises(AlolError):
        PoolState(labeled=(1, 1), unlabeled=(), eval=(), report=())


def two_pass_partitions(parts):
    """The partition check in two passes: each partition's own set first,
    naming the first partition that repeats an id, then their union. The
    message it refuses with, or the partitions sorted."""
    names = ("labeled", "unlabeled", "eval", "report")
    canon = [tuple(sorted(p)) for p in parts]
    for name, p in zip(names, canon):
        if len(set(p)) != len(p):
            return f"duplicate ids inside the {name} partition"
    union = set()
    for p in canon:
        union.update(p)
    return "partitions overlap" if len(union) != sum(map(len, canon)) else canon


@st.composite
def partition_lists(draw):
    """Four disjoint lists of distinct ids in [-2**63, 2**64), then up to
    three of those ids inserted again at random places: each a repeat
    inside one list or an overlap of two."""
    ids = draw(st.lists(st.integers(-(2**63), 2**64 - 1), unique=True, max_size=12))
    cuts = sorted(draw(st.lists(st.integers(0, len(ids)), min_size=3, max_size=3)))
    parts = [ids[a:b] for a, b in zip([0, *cuts], [*cuts, len(ids)])]
    for _ in range(draw(st.integers(0, 3)) if ids else 0):
        target = parts[draw(st.integers(0, 3))]
        target.insert(draw(st.integers(0, len(target))), draw(st.sampled_from(ids)))
    return parts


@PROPERTY
@given(parts=partition_lists())
@example(parts=[[1], [1], [2, 2], []])
@example(parts=[[5], [], [], [3, 5, 3]])
def test_pool_state_checks_partitions_as_two_passes_do(parts):
    # A repeat inside a partition is named before any overlap is.
    expected = two_pass_partitions(parts)
    try:
        pool = PoolState(*parts)
    except AlolError as exc:
        assert str(exc) == expected
    else:
        assert [pool.labeled, pool.unlabeled, pool.eval, pool.report] == expected


def toy_pool():
    return PoolState(labeled=(), unlabeled=(1, 2, 3), eval=(), report=())


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Dataset(examples=()), "dataset is empty"),
        (lambda: toy_dataset(3).get(7), "unknown example id 7"),
        (lambda: CandidateSet(ids=(4, 4), candidate_index=2), r"candidate 2: duplicate ids"),
        (lambda: CandidateSet(ids=(), candidate_index=0), "candidate 0: empty id list"),
        (lambda: sample_candidates(toy_pool(), 0, 1, 0), "need K >= 1 and L >= 1"),
        (lambda: sample_candidates(toy_pool(), 1, 0, 0), "need K >= 1 and L >= 1"),
    ],
    ids=["empty-dataset", "unknown-id", "repeated-candidate", "empty-candidate", "k0", "l0"],
)
def test_pool_refusals_raise_the_base_error(call, message):
    with pytest.raises(AlolError, match=message) as caught:
        call()
    assert caught.type is AlolError


def test_split_covers_requested_sizes_disjointly():
    dataset = toy_dataset(10)
    pool = split_dataset(dataset, (2, 6, 1, 1), 7)
    parts = [pool.labeled, pool.unlabeled, pool.eval, pool.report]
    assert [len(p) for p in parts] == [2, 6, 1, 1]
    union = set().union(*map(set, parts))
    assert union == set(range(10))


def test_split_allows_empty_labeled_set():
    pool = split_dataset(toy_dataset(10), (0, 6, 2, 2), 3)
    assert pool.labeled == ()
    assert len(pool.unlabeled) == 6


def test_split_is_deterministic_and_seed_sensitive():
    dataset = toy_dataset(30)
    a = split_dataset(dataset, (5, 15, 5, 5), 11)
    b = split_dataset(dataset, (5, 15, 5, 5), 11)
    c = split_dataset(dataset, (5, 15, 5, 5), 12)
    assert a == b
    assert a != c


def test_split_orders_ids_as_the_scalar_shuffle_does():
    # The split's order comes from rng.shuffled_ranges; it must stay the
    # permutation the scalar shuffle makes of the sorted ids.
    dataset = Dataset(examples=tuple(single(3 * i + 1, [0.0], 0) for i in range(40)))
    for seed in range(200):
        ids = list(dataset.ids)
        ScalarStream(derive_seed(seed, purpose=PURPOSE_SPLIT)).shuffle(ids)
        expected = PoolState(
            labeled=tuple(ids[:4]),
            unlabeled=tuple(ids[4:24]),
            eval=tuple(ids[24:34]),
            report=tuple(ids[34:37]),
        )
        assert split_dataset(dataset, (4, 20, 10, 3), seed) == expected


def test_split_leaves_leftovers_unassigned():
    pool = split_dataset(toy_dataset(10), (1, 2, 1, 1), 0)
    assigned = set(pool.labeled) | set(pool.unlabeled) | set(pool.eval) | set(pool.report)
    assert len(assigned) == 5


def test_split_infeasible_sizes():
    with pytest.raises(PartitionInfeasibleError):
        split_dataset(toy_dataset(10), (4, 4, 2, 1), 0)
    with pytest.raises(PartitionInfeasibleError):
        split_dataset(toy_dataset(10), (-1, 4, 2, 1), 0)
    with pytest.raises(PartitionInfeasibleError):
        split_dataset(toy_dataset(10), (4, 4, 2), 0)


def test_sample_candidates_shapes_and_determinism():
    pool = split_dataset(toy_dataset(20), (5, 10, 3, 2), 1)
    first = sample_candidates(pool, 5, 1, 42)
    second = sample_candidates(pool, 5, 1, 42)
    assert first == second
    assert [c.candidate_index for c in first] == [0, 1, 2, 3, 4]
    unlabeled = set(pool.unlabeled)
    for c in first:
        assert len(c.ids) == 1
        assert set(c.ids) <= unlabeled


def test_sample_candidates_distinct_within_but_overlap_across():
    pool = PoolState(labeled=(), unlabeled=tuple(range(6)), eval=(), report=())
    sets = sample_candidates(pool, 8, 4, 9)
    for c in sets:
        assert len(set(c.ids)) == 4
    all_ids = [frozenset(c.ids) for c in sets]
    # With 8 draws of 4 from 6 ids, some pair of sets must share members.
    assert any(a & b for i, a in enumerate(all_ids) for b in all_ids[i + 1 :])


def test_sample_candidates_exhaustion():
    pool = PoolState(labeled=(), unlabeled=(1, 2, 3), eval=(), report=())
    with pytest.raises(PoolExhaustedError):
        sample_candidates(pool, 2, 5, 0)


def test_sample_candidates_roughly_uniform():
    pool = PoolState(labeled=(), unlabeled=tuple(range(10)), eval=(), report=())
    counts = dict.fromkeys(range(10), 0)
    trials = 4000
    for seed in range(trials):
        for c in sample_candidates(pool, 1, 1, seed):
            counts[c.ids[0]] += 1
    for count in counts.values():
        assert abs(count / trials - 0.1) < 0.02


def test_commit_moves_ids():
    pool = PoolState(labeled=(1,), unlabeled=(2, 3), eval=(), report=())
    after = commit_selection(pool, CandidateSet(ids=(2,), candidate_index=0))
    assert after.labeled == (1, 2)
    assert after.unlabeled == (3,)
    assert after.eval == pool.eval
    assert after.report == pool.report


def test_commit_rejects_stale_candidate():
    pool = PoolState(labeled=(1,), unlabeled=(2, 3), eval=(), report=())
    with pytest.raises(StaleCandidateError):
        commit_selection(pool, CandidateSet(ids=(9,), candidate_index=0))
    with pytest.raises(StaleCandidateError):
        commit_selection(pool, CandidateSet(ids=(1,), candidate_index=0))


def test_commit_and_stale_id_match_set_arithmetic():
    # Pools of random ids with random chosen sets, the partition's first
    # and last ids and runs of neighbours among them: the bisection and the
    # kept runs between the chosen ids must give what sets and sorting give.
    rng = np.random.default_rng(41)
    for _ in range(400):
        ids = rng.permutation(30).tolist()
        cut = int(rng.integers(1, 30))
        pool = PoolState(labeled=tuple(ids[cut:]), unlabeled=tuple(ids[:cut]), eval=(), report=())
        chosen = rng.permutation(ids[:cut])[: rng.integers(1, cut + 1)].tolist()
        after = commit_selection(pool, CandidateSet(ids=chosen, candidate_index=0))
        assert after.unlabeled == tuple(sorted(set(pool.unlabeled) - set(chosen)))
        assert after.labeled == tuple(sorted(set(pool.labeled) | set(chosen)))
        probes = rng.integers(-1, 31, size=int(rng.integers(0, 4))).tolist()
        expected = next((i for i in probes if i not in pool.unlabeled), None)
        assert stale_id(pool, probes) == expected
    assert stale_id(PoolState(labeled=(), unlabeled=(), eval=(), report=()), [0]) == 0


def test_commit_conserves_mass_over_many_iterations():
    dataset = toy_dataset(520)
    pool = split_dataset(dataset, (50, 465, 3, 2), 99)
    total = len(pool.labeled) + len(pool.unlabeled)
    for i in range(460):
        sets = sample_candidates(pool, 5, 1, seed=i)
        pool = commit_selection(pool, sets[0])
        assert len(pool.labeled) + len(pool.unlabeled) == total
        assert len(pool.labeled) == 50 + i + 1
    assert len(pool.labeled) == 510


def test_jsonl_round_trip_classification(tmp_path):
    dataset = toy_dataset(12, dim=3)
    path = tmp_path / "data.jsonl"
    save_dataset(dataset, path)
    loaded = load_dataset(path)
    assert loaded == dataset


def test_jsonl_round_trip_sequences(tmp_path):
    examples = tuple(
        Example(
            id=i,
            features=np.arange((i + 1) * 2, dtype=float).reshape(i + 1, 2),
            labels=np.arange(i + 1) % 3,
            sequence=True,
        )
        for i in range(5)
    )
    dataset = Dataset(examples=examples)
    path = tmp_path / "seq.jsonl"
    save_dataset(dataset, path)
    assert load_dataset(path) == dataset


def test_loader_rejects_mixed_payload_kinds(tmp_path):
    path = tmp_path / "mixed.jsonl"
    path.write_text(
        '{"id":0,"features":[1.0,2.0],"label":1}\n'
        '{"id":1,"tokens":[[1.0,2.0]],"label":[0]}\n'
    )
    with pytest.raises(AlolError):
        load_dataset(path)


def test_loader_refuses_a_file_of_blank_lines(tmp_path):
    path = tmp_path / "blank.jsonl"
    path.write_text("\n  \n\t\n", encoding="utf-8")
    with pytest.raises(AlolError, match=re.escape(f"{path}: no examples")):
        load_dataset(path)


def test_loader_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id":0,"features"\n')
    with pytest.raises(AlolError):
        load_dataset(path)


@pytest.mark.parametrize(
    "line",
    ['{"features": [1.0], "label": 0}', '{"id": 1, "features": [1.0]}', "[1, 2]", "7"],
)
def test_loader_rejects_lines_without_id_label_or_object(tmp_path, line):
    path = tmp_path / "d.jsonl"
    path.write_text(f'{{"id": 0, "features": [0.5], "label": 1}}\n{line}\n', encoding="utf-8")
    with pytest.raises(AlolError, match="d.jsonl:2"):
        load_dataset(path)


@pytest.mark.parametrize(
    "line",
    [
        '{"id": 1, "features": ["x"], "label": 0}',
        '{"id": 1, "features": [[1.0]], "label": 0}',
        '{"id": 1, "features": [1.0], "label": 2.5}',
        '{"id": 1, "features": [1.0], "label": true}',
        '{"id": "one", "features": [1.0], "label": 0}',
        '{"id": 1.5, "features": [1.0], "label": 0}',
        '{"id": 1, "features": [null], "label": 0}',
        '{"id": 1, "features": [NaN], "label": 0}',
        '{"id": 1, "features": [-Infinity], "label": 0}',
    ],
)
def test_loader_rejects_bad_numbers_with_line(tmp_path, line):
    path = tmp_path / "d.jsonl"
    path.write_text(f'{{"id": 0, "features": [0.5], "label": 1}}\n{line}\n', encoding="utf-8")
    with pytest.raises(AlolError, match="d.jsonl:2"):
        load_dataset(path)


@pytest.mark.parametrize(
    "line",
    [
        '{"id": 1, "tokens": [[1.0], [2.0, 3.0]], "label": [0, 1]}',
        '{"id": 1, "tokens": [[1.0], ["x"]], "label": [0, 1]}',
        '{"id": 1, "tokens": [[1.0], [NaN]], "label": [0, 1]}',
        '{"id": 1, "tokens": [[1.0], [2.0]], "label": [0, 1.5]}',
        '{"id": 1, "tokens": [[1.0], [2.0]], "label": 0}',
        '{"id": 1, "tokens": [[1.0], [2.0]], "label": [0]}',
        '{"id": 1, "tokens": [1.0, 2.0], "label": [0, 1]}',
    ],
)
def test_loader_rejects_bad_token_rows_with_line(tmp_path, line):
    path = tmp_path / "d.jsonl"
    path.write_text(
        f'{{"id": 0, "tokens": [[0.5], [0.5]], "label": [1, 0]}}\n{line}\n', encoding="utf-8"
    )
    with pytest.raises(AlolError, match="d.jsonl:2"):
        load_dataset(path)


def test_loader_reads_integer_features_as_floats(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text('{"id": 0, "tokens": [[1, 2], [3.5, 4]], "label": [1, 0]}\n')
    (example,) = load_dataset(path).examples
    assert example.features.dtype == np.float64
    assert example.features.tolist() == [[1.0, 2.0], [3.5, 4.0]]
    assert example.labels.tolist() == [1, 0]


def test_save_is_byte_stable(tmp_path):
    dataset = toy_dataset(8)
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_dataset(dataset, a)
    save_dataset(dataset, b)
    assert a.read_bytes() == b.read_bytes()


def holds_bool(value):
    return isinstance(value, bool) or isinstance(value, list) and any(map(holds_bool, value))


def reference_numbers(value, ndim, kinds, where, problem):
    """The number check of ``load_dataset`` before ``Example`` owned the
    payload rule, kept as the reference for the reader's decisions, with
    the one rule added since: no bool, even among numbers."""
    try:
        array = np.asarray(value)
    except (ValueError, TypeError):
        raise AlolError(f"{where}: {problem}") from None
    if holds_bool(value):
        raise AlolError(f"{where}: {problem}")
    if array.ndim != ndim or array.dtype.kind not in kinds:
        raise AlolError(f"{where}: {problem}")
    if array.dtype.kind == "f" and not np.isfinite(array).all():
        raise AlolError(f"{where}: {problem}")
    return array


def reference_example(example_id, feats, labels, sequence, where):
    """``Example`` with the checks it made before it owned the payload rule."""
    feats = np.asarray(feats, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if feats.ndim != 2 or feats.shape[0] < 1 or labels.shape != (feats.shape[0],):
        raise AlolError(f"{where}: bad shapes")
    if np.any(labels < 0):
        raise AlolError(f"{where}: negative label")
    return Example(id=example_id, features=feats, labels=labels, sequence=sequence)


def reference_load_dataset(path):
    """``load_dataset`` as it was before ``Example`` owned the payload rule."""
    examples = []
    kind = None
    with open(path, "r", encoding="utf-8") as handle:
        try:
            lines = handle.readlines()
        except UnicodeDecodeError as exc:
            raise AlolError(f"{path}: not UTF-8 text ({exc})") from None
        for lineno, line in enumerate(lines, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise AlolError(f"{path}:{lineno}: bad JSON ({exc})") from None
            if not isinstance(record, dict):
                raise AlolError(f"{path}:{lineno}: expected a JSON object")
            if "id" not in record or "label" not in record:
                raise AlolError(f"{path}:{lineno}: needs both 'id' and 'label'")
            where = f"{path}:{lineno}"
            if "tokens" in record:
                this_kind = "tokens"
                feats = reference_numbers(record["tokens"], 2, "iuf", where, "bad 'tokens'")
                labels = reference_numbers(record["label"], 1, "iu", where, "bad 'label'")
                sequence = True
            elif "features" in record:
                this_kind = "features"
                feats = reference_numbers(record["features"], 1, "iuf", where, "bad 'features'")
                feats = feats.reshape(1, -1)
                labels = reference_numbers(record["label"], 0, "iu", where, "bad 'label'")
                labels = labels.reshape(1)
                sequence = False
            else:
                raise AlolError(f"{where}: neither 'features' nor 'tokens'")
            if kind is None:
                kind = this_kind
            elif kind != this_kind:
                raise AlolError(f"{where}: mixes '{this_kind}' examples into a '{kind}' file")
            example_id = int(reference_numbers(record["id"], 0, "iu", where, "bad 'id'"))
            examples.append(reference_example(example_id, feats, labels, sequence, where))
    if not examples:
        raise AlolError(f"{path}: no examples")
    return Dataset(examples=tuple(examples))


ODD_NUMBERS = [True, False, "1", "", None, math.nan, math.inf, -math.inf, 1.5, -1, 0, 2]
ODD_NUMBERS += [2**63 - 1, 2**63, 2**64 - 1, 2**64, -(2**63), -(2**63) - 1]
ODD_VALUES = st.one_of(
    JSON_VALUES,
    st.sampled_from(ODD_NUMBERS),
    st.lists(st.sampled_from(ODD_NUMBERS), max_size=3),
    # Token rows, jagged or not, holding odd numbers.
    st.lists(st.lists(st.sampled_from(ODD_NUMBERS + [0.5, 3]), max_size=3), max_size=3),
    # One odd number as a list or as rows, so the array's dtype is its own.
    st.sampled_from(ODD_NUMBERS).map(lambda number: [number]),
    st.sampled_from(ODD_NUMBERS).map(lambda number: [number] * 2),
    st.sampled_from(ODD_NUMBERS).map(lambda number: [[number]] * 2),
    st.sampled_from(ODD_NUMBERS).map(lambda number: [[number] * 2]),
)


def with_numbers(value, number, first_only):
    """``value`` with its first number, or with every number, replaced by
    ``number``; lists keep their shape."""
    if not isinstance(value, list):
        return number
    if first_only:
        return value and [with_numbers(value[0], number, True)] + value[1:]
    return [with_numbers(item, number, False) for item in value]


@st.composite
def corrupted_dataset_files(draw):
    """The text of a dataset file of one payload kind, with up to three
    lines given an odd value in some key, odd numbers in the shape of the
    payload or labels, a bool in place of one of their numbers, a key
    removed, or other text."""
    sequence, dim = draw(st.booleans()), draw(st.integers(0, 2))
    payload = "tokens" if sequence else "features"
    records = []
    for example_id in range(draw(st.integers(1, 5))):
        tokens = draw(st.integers(1, 3)) if sequence else 1
        rows = [[draw(st.floats(-1e6, 1e6) | st.integers(-9, 9)) for _ in range(dim)]]
        rows *= tokens
        labels = [draw(st.integers(0, 3)) for _ in range(tokens)]
        if sequence:
            records.append({"id": example_id, "tokens": rows, "label": labels})
        else:
            records.append({"id": example_id, "features": rows[0], "label": labels[0]})
    lines = [json.dumps(record) for record in records]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(records) - 1))
        record = records[at]
        action = draw(
            st.sampled_from(["value", "numbers", "numbers", "bool", "bool", "remove", "text"])
        )
        if action == "value":
            key = draw(st.sampled_from(["id", "features", "tokens", "label", "x"]))
            record[key] = draw(ODD_VALUES)
        elif action == "numbers":
            key = draw(st.sampled_from(["id", "label", payload]))
            number, first_only = draw(st.sampled_from(ODD_NUMBERS)), draw(st.booleans())
            record[key] = with_numbers(record.get(key, 0), number, first_only)
        elif action == "bool":
            # numpy reads a bool among numbers as 1 or 0: only the payload
            # rule refuses it on a line that is otherwise valid.
            key = draw(st.sampled_from(["label", payload]))
            numbers = np.array(record.get(key, 0), dtype=object)
            if numbers.size:
                numbers.flat[draw(st.integers(0, numbers.size - 1))] = draw(st.booleans())
                record[key] = numbers.tolist()
        elif action == "remove" and record:
            del record[draw(st.sampled_from(sorted(record)))]
        lines[at] = json.dumps(record)
        if action == "text":
            other = st.sampled_from(["", "[]", "7", "null", "{", '{"id": 1}']) | st.text()
            lines[at] = draw(other)
    return "\n".join(lines) + "\n"


def named_line(error, path):
    found = re.match(re.escape(str(path)) + r":(\d+): ", str(error))
    return found and int(found.group(1))


@settings(PROPERTY, max_examples=600)
@given(text=corrupted_dataset_files())
@example(text='{"id":0,"features":[1.0,true],"label":0}\n')
@example(text='{"id":0,"tokens":[[1.0],[2.0]],"label":[true,1]}\n')
def test_reader_accepts_exactly_the_files_the_reference_decoder_accepts(text):
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "d.jsonl"
        path.write_text(text, encoding="utf-8")
        try:
            expected = reference_load_dataset(path)
        except AlolError as exc:
            with pytest.raises(AlolError) as refused:
                load_dataset(path)
            assert named_line(refused.value, path) == named_line(exc, path)
            return
        dataset = load_dataset(path)
    assert dataset == expected
    for example in dataset.examples:
        assert example.features.dtype == np.float64 and example.labels.dtype == np.int64
        assert not example.features.flags.writeable and not example.labels.flags.writeable
