import json

import numpy as np
import pytest
from scipy import stats

from alol import datagen
from alol.datagen import (
    BLOCK,
    GenKind,
    GenSpec,
    _box_muller,
    _class_means,
    _noise_plan,
    _walk,
    generate,
    load_provenance,
    save_provenance,
)
from alol.errors import AlolError, GenerationError
from alol.pool import Dataset, Example, load_dataset, save_dataset
from alol.rng import MASK64, PURPOSE_SAMPLE, derive_seed, stream_draws

from test_rng import ScalarStream


def cluster_spec(**overrides):
    base = dict(
        kind=GenKind.GAUSSIAN_CLUSTERS,
        n=60,
        input_dim=4,
        class_count=3,
        cluster_separation=6.0,
        noise_fraction=0.0,
        seed=17,
    )
    base.update(overrides)
    return GenSpec(**base)


def tagging_spec(**overrides):
    base = dict(
        kind=GenKind.TOKEN_TAGGING,
        n=40,
        input_dim=4,
        class_count=3,
        cluster_separation=6.0,
        noise_fraction=0.0,
        seed=17,
        seq_len_range=(2, 5),
    )
    base.update(overrides)
    return GenSpec(**base)


def nearest_mean_accuracy(dataset, class_count, input_dim, separation):
    means = np.zeros((class_count, input_dim))
    for c in range(class_count):
        means[c, c] = separation / np.sqrt(2.0)
    correct = 0
    total = 0
    for ex in dataset.examples:
        for row, label in zip(ex.features, ex.labels):
            predicted = int(np.argmin(np.linalg.norm(means - row, axis=1)))
            correct += predicted == label
            total += 1
    return correct / total


@pytest.mark.parametrize(
    "overrides",
    [
        {"n": 0},
        {"class_count": 1},
        {"input_dim": 2},
        {"noise_fraction": -0.1},
        {"noise_fraction": 1.5},
        {"cluster_separation": -1.0},
    ],
)
def test_invalid_specs_rejected(overrides):
    with pytest.raises(GenerationError):
        cluster_spec(**overrides)


def test_bad_sequence_ranges_rejected():
    with pytest.raises(GenerationError):
        tagging_spec(seq_len_range=(0, 3))
    with pytest.raises(GenerationError):
        tagging_spec(seq_len_range=(4, 2))
    with pytest.raises(GenerationError):
        cluster_spec(seq_len_range=(2, 3))


def test_generation_is_deterministic():
    first_data, first_prov = generate(cluster_spec(noise_fraction=0.4))
    second_data, second_prov = generate(cluster_spec(noise_fraction=0.4))
    assert first_prov == second_prov
    assert first_data == second_data


def test_seed_changes_payload():
    first, _ = generate(cluster_spec())
    second, _ = generate(cluster_spec(seed=18))
    assert not np.array_equal(
        first.examples[0].features, second.examples[0].features
    )


def test_cluster_shapes_and_label_cycle():
    dataset, informative = generate(cluster_spec(n=12))
    assert len(dataset.examples) == 12
    assert all(informative.values())
    for i, ex in enumerate(dataset.examples):
        assert ex.id == i
        assert ex.features.shape == (1, 4)
        assert ex.labels.shape == (1,)
        assert not ex.sequence
        assert ex.labels[0] == i % 3


def test_tagging_shapes_and_ranges():
    dataset, _ = generate(tagging_spec())
    for ex in dataset.examples:
        assert ex.sequence
        assert 2 <= ex.token_count <= 5
        assert ex.features.shape == (ex.token_count, 4)
        assert all(0 <= label < 3 for label in ex.labels)


def test_tagging_lengths_roughly_uniform():
    dataset, _ = generate(tagging_spec(n=2000))
    lengths = [ex.token_count for ex in dataset.examples]
    counts = [lengths.count(v) for v in (2, 3, 4, 5)]
    assert sum(counts) == 2000
    result = stats.chisquare(counts)
    assert result.pvalue > 0.01


@pytest.mark.parametrize(
    "noise,n,expected",
    [(0.0, 60, 0), (0.5, 7, 4), (0.25, 80, 20), (0.1, 95, 10), (1.0, 60, 60)],
)
def test_noise_count_rounds_half_up(noise, n, expected):
    _, informative = generate(cluster_spec(n=n, noise_fraction=noise))
    flipped = sum(1 for flag in informative.values() if not flag)
    assert flipped == expected


def test_noise_rewrites_labels_not_features():
    clean, _ = generate(cluster_spec(n=40, noise_fraction=0.0))
    noisy, informative = generate(cluster_spec(n=40, noise_fraction=0.5))
    for clean_ex, noisy_ex in zip(clean.examples, noisy.examples):
        assert np.array_equal(clean_ex.features, noisy_ex.features)
        if informative[noisy_ex.id]:
            assert np.array_equal(clean_ex.labels, noisy_ex.labels)


def test_noisy_labels_uniform_over_classes():
    dataset, _ = generate(
        cluster_spec(n=4000, class_count=4, noise_fraction=1.0)
    )
    labels = [ex.labels[0] for ex in dataset.examples]
    counts = [labels.count(c) for c in range(4)]
    result = stats.chisquare(counts)
    assert result.pvalue > 0.01


def test_clean_wide_clusters_are_separable():
    spec = cluster_spec(n=300, cluster_separation=10.0)
    dataset, _ = generate(spec)
    accuracy = nearest_mean_accuracy(dataset, 3, 4, 10.0)
    assert accuracy >= 0.99


def test_fully_noisy_labels_carry_no_signal():
    spec = cluster_spec(n=3000, cluster_separation=10.0, noise_fraction=1.0)
    dataset, _ = generate(spec)
    accuracy = nearest_mean_accuracy(dataset, 3, 4, 10.0)
    sigma = np.sqrt((1 / 3) * (2 / 3) / 3000)
    assert accuracy <= 1 / 3 + 3 * sigma


def test_provenance_round_trip(tmp_path):
    _, informative = generate(cluster_spec(n=30, noise_fraction=0.3))
    path = tmp_path / "prov.jsonl"
    save_provenance(informative, path)
    assert load_provenance(path) == informative


def test_provenance_bytes_stable(tmp_path):
    _, informative = generate(cluster_spec(n=30, noise_fraction=0.3))
    first = tmp_path / "a.jsonl"
    second = tmp_path / "b.jsonl"
    save_provenance(informative, first)
    save_provenance(informative, second)
    assert first.read_bytes() == second.read_bytes()
    lines = first.read_text().splitlines()
    assert json.loads(lines[0]) == {"id": 0, "informative": True}


@pytest.mark.parametrize(
    "bad, key",
    [
        ('{"id": 2, "informative": "false"}', "informative"),
        ('{"id": 2.5, "informative": false}', "id"),
        ('{"id": 2}', "informative"),
        ('{"id": 2, "informative": false, "extra": 1}', "extra"),
        ('[2, false]', "JSON object"),
        ('{"id": 2, "informative": fals', "Expecting"),
    ],
)
def test_provenance_bad_line_raises_naming_it(tmp_path, bad, key):
    # These used to read as informative, as id 2, or raise KeyError.
    path = tmp_path / "prov.jsonl"
    path.write_text('{"id": 0, "informative": true}\n\n' + bad + "\n")
    with pytest.raises(AlolError, match=rf"prov\.jsonl:3: .*{key}"):
        load_provenance(path)


@pytest.mark.parametrize(
    "bad, problem",
    [
        (b'{"id": 2, "informative": "\xff"}', "not UTF-8"),
        (b"[" * 200_000 + b"]" * 200_000, "recursion"),
        (b'{"id": ' + b"7" * 5000 + b', "informative": true}', "digits"),
    ],
    ids=["not-utf8", "nested-200000-deep", "id-of-5000-digits"],
)
def test_provenance_line_that_cannot_be_decoded_raises_naming_it(tmp_path, bad, problem):
    # These raised UnicodeDecodeError, RecursionError and ValueError.
    path = tmp_path / "prov.jsonl"
    path.write_bytes(b'{"id": 0, "informative": true}\n\n' + bad + b"\n")
    with pytest.raises(AlolError, match=rf"prov\.jsonl:3: .*{problem}"):
        load_provenance(path)


def test_provenance_reads_integral_ids(tmp_path):
    path = tmp_path / "prov.jsonl"
    path.write_text('{"id": 4.0, "informative": false}\n')
    assert load_provenance(path) == {4: False}


def test_generated_dataset_survives_jsonl_round_trip(tmp_path):
    dataset, _ = generate(tagging_spec(n=25, noise_fraction=0.2))
    path = tmp_path / "data.jsonl"
    save_dataset(dataset, path)
    assert load_dataset(path) == dataset


def scalar_generate(spec, points=None):
    """The generator as one scalar SplitMix64 call per draw: the reference
    ``generate``'s draw tables must equal bit for bit."""
    means = _class_means(spec)
    if points is None:
        points = ScalarStream(derive_seed(spec.seed, purpose=PURPOSE_SAMPLE))
    examples = []
    lo, hi = spec.seq_len_range
    for i in range(spec.n):
        if spec.kind is GenKind.GAUSSIAN_CLUSTERS:
            labels = [i % spec.class_count]
        else:
            length = lo + (points.next_below(hi - lo + 1) if hi > lo else 0)
            labels = [points.next_below(spec.class_count) for _ in range(length)]
        rows = np.stack(
            [
                means[label] + np.array([points.next_normal() for _ in range(spec.input_dim)])
                for label in labels
            ]
        )
        sequence = spec.kind is GenKind.TOKEN_TAGGING
        examples.append(Example(id=i, features=rows, labels=np.array(labels), sequence=sequence))
    flips, noise_stream = _noise_plan(spec)
    informative = {ex.id: True for ex in examples}
    for idx in flips:
        ex = examples[idx]
        noisy = [noise_stream.next_below(spec.class_count) for _ in range(ex.token_count)]
        examples[idx] = Example(id=ex.id, features=ex.features, labels=noisy, sequence=ex.sequence)
        informative[ex.id] = False
    return Dataset(examples=tuple(examples)), informative


def assert_same_bits(got, expected):
    (dataset, informative), (ref_dataset, ref_informative) = got, expected
    assert informative == ref_informative
    assert len(dataset) == len(ref_dataset)
    for ex, ref in zip(dataset.examples, ref_dataset.examples):
        assert (ex.id, ex.sequence, ex.labels.tolist()) == (ref.id, ref.sequence, ref.labels.tolist())
        assert ex.features.shape == ref.features.shape
        assert ex.features.tobytes() == ref.features.tobytes()


@pytest.mark.parametrize(
    "spec",
    [
        cluster_spec(n=2 * BLOCK + 5, input_dim=5, noise_fraction=0.3),
        cluster_spec(n=BLOCK, input_dim=4, class_count=4, noise_fraction=1.0),
        cluster_spec(n=7, input_dim=3, noise_fraction=0.0, seed=1601),
        tagging_spec(n=2 * BLOCK + 3, input_dim=7, seq_len_range=(1, 9), noise_fraction=0.4),
        tagging_spec(n=BLOCK + 1, input_dim=5, seq_len_range=(3, 3), noise_fraction=1.0),
        tagging_spec(n=BLOCK - 1, input_dim=4, class_count=4, seq_len_range=(2, 8)),
        tagging_spec(n=30, input_dim=3, seq_len_range=(1, 1), seed=11),
    ],
    ids=lambda spec: f"{spec.kind.value}-n{spec.n}-dim{spec.input_dim}-len{spec.seq_len_range}",
)
def test_generate_equals_the_scalar_generator_bit_for_bit(spec):
    assert_same_bits(generate(spec), scalar_generate(spec))


def test_array_box_muller_equals_next_normal_draw_for_draw():
    for seed in (0, 7, derive_seed(1601, purpose=PURPOSE_SAMPLE)):
        draws = stream_draws([seed], 20_000)[0]
        stream = ScalarStream(seed)
        expected = np.array([stream.next_normal() for _ in range(draws.size)])
        assert _box_muller(draws[0::2], draws[1::2]).tobytes() == expected.tobytes()


class InjectedStream(ScalarStream):
    """A stream whose draws at the 0-based ``positions`` read 2**64 - 1,
    above every ``next_below`` ceiling of a bound that is no power of 2."""

    def __init__(self, seed, positions):
        super().__init__(seed)
        self.taken = 0
        self.positions = positions

    def next_uint64(self):
        draw = super().next_uint64()
        self.taken += 1
        return MASK64 if self.taken - 1 in self.positions else draw


def test_walk_skips_a_draw_above_the_ceiling():
    spec = tagging_spec(n=1, input_dim=3, class_count=3, seq_len_range=(2, 4))
    # Length draw rejected, then 4 -> length 2 + 4 % 3 = 3; the second
    # label draw is rejected too. Then 9 normals: 5 pairs from draw 6 on.
    draws = [MASK64, 4, 5, MASK64, 6, 7] + list(range(10, 20))
    labels, pairs, used, spare = _walk(spec, draws, 0, 1, 0)
    assert labels == [[5 % 3, 6 % 3, 7 % 3]]
    assert pairs == [6, 8, 10, 12, 14] and used == 16 and spare == 1
    # With a sine waiting, the block needs 8 normals: 4 pairs.
    assert _walk(spec, draws, 0, 1, 1)[1:] == ([6, 8, 10, 12], 14, 0)
    with pytest.raises(IndexError):
        _walk(spec, draws[:15], 0, 1, 0)


def test_rejected_draws_push_a_block_onto_a_longer_table(monkeypatch):
    # With one length per example a block's table holds one draw to spare,
    # so two rejected label draws make the first block walk a second table.
    # The first block then takes BLOCK·(3 labels + 9 normals) + 2 draws,
    # and the next block's first label draw is rejected as well.
    spec = tagging_spec(n=BLOCK + 4, input_dim=3, seq_len_range=(3, 3), noise_fraction=0.25)
    seed = derive_seed(spec.seed, purpose=PURPOSE_SAMPLE)
    positions = {0, 1, BLOCK * (3 + 9) + 2}
    sizes = []

    def injected(seeds, count, skip=0):
        sizes.append((skip, count))
        table = stream_draws(seeds, count, skip)
        for k in positions:
            if skip <= k < skip + count:
                table[:, k - skip] = MASK64
        return table

    monkeypatch.setattr(datagen, "stream_draws", injected)
    got = generate(spec)
    assert [skip for skip, _ in sizes[:2]] == [0, 0] and sizes[1][1] == 2 * sizes[0][1]
    expected = scalar_generate(spec, InjectedStream(seed, positions))
    assert_same_bits(got, expected)
    assert got[0] != scalar_generate(spec)[0]
