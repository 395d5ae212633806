import numpy as np
import pytest

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
)
from alol.rng import PURPOSE_SPLIT, derive_seed

from test_rng import ScalarStream


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
