import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alol import rng
from alol.rng import (
    MASK64,
    PURPOSE_INIT,
    PURPOSE_SAMPLE,
    PURPOSE_SHUFFLE,
    PURPOSE_SPLIT,
    SplitMix64,
    derive_seed,
    derive_seeds,
    repeat_seed,
    shuffled_ranges,
    splitmix64,
    stream_draws,
)

# Reference outputs for the standard SplitMix64 algorithm, seed 0 and an
# arbitrary second seed, frozen so any drift in the mixer is caught.
SEED0_OUTPUTS = [
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
]
SEED1234567_OUTPUTS = [
    0x599ED017FB08FC85,
    0x2C73F08458540FA5,
    0x883EBCE5A3F27C77,
]


class ScalarStream(SplitMix64):
    """A SplitMix64 stream with the scalar draws that the array code must
    equal: ``rng.shuffled_ranges`` its ``shuffle``, and ``datagen``'s
    Box–Muller pass its ``next_normal``."""

    _spare_normal = None

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.next_below(i + 1)
            items[i], items[j] = items[j], items[i]

    def next_normal(self) -> float:
        """Standard normal draw (Box-Muller, pairs cached)."""
        if self._spare_normal is not None:
            value, self._spare_normal = self._spare_normal, None
            return value
        u1 = 1.0 - self.next_float()  # (0, 1]; keeps log() finite
        u2 = self.next_float()
        radius = math.sqrt(-2.0 * math.log(u1))
        self._spare_normal = radius * math.sin(2.0 * math.pi * u2)
        return radius * math.cos(2.0 * math.pi * u2)


def test_reference_vectors_seed0():
    stream = SplitMix64(0)
    assert [stream.next_uint64() for _ in range(4)] == SEED0_OUTPUTS


def test_reference_vectors_seed1234567():
    stream = SplitMix64(1234567)
    assert [stream.next_uint64() for _ in range(3)] == SEED1234567_OUTPUTS


def test_splitmix64_function_is_first_stream_output():
    for seed in [0, 1, 1234567, 2**63, MASK64]:
        assert splitmix64(seed) == SplitMix64(seed).next_uint64()


def test_streams_are_reproducible():
    a = SplitMix64(98765)
    b = SplitMix64(98765)
    assert [a.next_uint64() for _ in range(50)] == [b.next_uint64() for _ in range(50)]


def test_derive_seed_is_sensitive_to_every_coordinate():
    base = derive_seed(42, iteration=3, candidate=2, run=1, purpose=PURPOSE_SAMPLE)
    assert base == derive_seed(42, iteration=3, candidate=2, run=1, purpose=PURPOSE_SAMPLE)
    assert base != derive_seed(43, iteration=3, candidate=2, run=1, purpose=PURPOSE_SAMPLE)
    assert base != derive_seed(42, iteration=4, candidate=2, run=1, purpose=PURPOSE_SAMPLE)
    assert base != derive_seed(42, iteration=3, candidate=3, run=1, purpose=PURPOSE_SAMPLE)
    assert base != derive_seed(42, iteration=3, candidate=2, run=0, purpose=PURPOSE_SAMPLE)
    assert base != derive_seed(42, iteration=3, candidate=2, run=1, purpose=PURPOSE_SHUFFLE)


def test_derive_seed_purpose_tags_are_distinct():
    seeds = {
        derive_seed(7, purpose=p)
        for p in [PURPOSE_SPLIT, PURPOSE_SAMPLE, PURPOSE_INIT, PURPOSE_SHUFFLE]
    }
    assert len(seeds) == 4


def test_repeat_seed_identity_at_zero():
    assert repeat_seed(123, 0) == 123
    assert repeat_seed(123, 1) != 123
    assert repeat_seed(123, 1) != repeat_seed(123, 2)
    assert repeat_seed(MASK64 + 5, 0) == 4


def test_next_float_range_and_construction():
    ints = SplitMix64(2024)
    floats = SplitMix64(2024)
    for _ in range(200):
        expected = (ints.next_uint64() >> 11) * 2.0**-53
        value = floats.next_float()
        assert value == expected
        assert 0.0 <= value < 1.0


def test_next_below_stays_in_range():
    stream = SplitMix64(5)
    for bound in [1, 2, 3, 7, 10, 1000]:
        for _ in range(100):
            assert 0 <= stream.next_below(bound) < bound


def test_next_below_one_is_always_zero():
    stream = SplitMix64(17)
    assert all(stream.next_below(1) == 0 for _ in range(20))


def test_next_below_rejects_bad_bound():
    with pytest.raises(ValueError):
        SplitMix64(0).next_below(0)
    with pytest.raises(ValueError):
        SplitMix64(0).next_below(-3)


def test_next_below_roughly_uniform():
    stream = SplitMix64(31337)
    counts = [0] * 5
    n = 50000
    for _ in range(n):
        counts[stream.next_below(5)] += 1
    for c in counts:
        assert abs(c / n - 0.2) < 0.01


def test_shuffle_is_a_permutation_and_deterministic():
    items = list(range(40))
    first = items[:]
    ScalarStream(99).shuffle(first)
    second = items[:]
    ScalarStream(99).shuffle(second)
    assert first == second
    assert sorted(first) == items
    assert first != items


def test_shuffle_matches_manual_fisher_yates():
    items = list(range(25))
    via_method = items[:]
    ScalarStream(4242).shuffle(via_method)
    manual = items[:]
    stream = SplitMix64(4242)
    for i in range(len(manual) - 1, 0, -1):
        j = stream.next_below(i + 1)
        manual[i], manual[j] = manual[j], manual[i]
    assert via_method == manual


def test_distinct_below_properties():
    stream = SplitMix64(808)
    draws = stream.distinct_below(100, 30)
    assert len(draws) == 30
    assert len(set(draws)) == 30
    assert all(0 <= d < 100 for d in draws)
    again = SplitMix64(808).distinct_below(100, 30)
    assert draws == again


def test_distinct_below_full_range_is_permutation():
    draws = SplitMix64(3).distinct_below(8, 8)
    assert sorted(draws) == list(range(8))


def test_distinct_below_rejects_oversized_request():
    with pytest.raises(ValueError):
        SplitMix64(0).distinct_below(3, 5)


def test_next_normal_moments():
    stream = ScalarStream(2718)
    n = 20000
    draws = [stream.next_normal() for _ in range(n)]
    mean = sum(draws) / n
    var = sum((d - mean) ** 2 for d in draws) / n
    assert abs(mean) < 0.05
    assert abs(var - 1.0) < 0.1


def test_next_normal_sequence_is_reproducible():
    a = ScalarStream(55)
    b = ScalarStream(55)
    assert [a.next_normal() for _ in range(31)] == [b.next_normal() for _ in range(31)]
    assert all(math.isfinite(v) for v in [ScalarStream(i).next_normal() for i in range(50)])


SEEDS = [0, 1, 1234567, 2**63, MASK64] + [splitmix64(i) for i in range(20)]


def test_stream_draws_match_the_stream_draw_by_draw():
    table = stream_draws(SEEDS, 40)
    assert table.shape == (len(SEEDS), 40) and table.dtype == np.uint64
    for seed, row in zip(SEEDS, table.tolist()):
        stream = SplitMix64(seed)
        assert row == [stream.next_uint64() for _ in range(40)]
    assert stream_draws([0], 4).tolist() == [SEED0_OUTPUTS]
    assert np.array_equal(stream_draws(SEEDS, 15, skip=25), table[:, 25:])


def draws_below(seeds, bounds):
    """``[SplitMix64(s).next_below(b) for b in bounds]`` for every seed s,
    drawn as ``shuffled_ranges`` draws its swaps."""
    return rng._draws_below(seeds, *rng._bound_table(bounds))


def test_draws_below_falls_back_to_the_stream_after_a_rejection():
    # Near 2**63 about half of all draws fall at or above next_below's
    # rejection limit, so most seeds take the scalar fallback.
    bounds = [2**63 + 1, 2**63 + 3, 2**63 + 2**62, MASK64, 2**63, 3]
    seeds = [splitmix64(i) for i in range(256)]
    limits = np.array([(1 << 64) - (1 << 64) % b for b in bounds], dtype=object)
    rejected = (stream_draws(seeds, len(bounds)).astype(object) >= limits).any(axis=1)
    assert 0 < rejected.sum() < len(seeds)
    rows = draws_below(seeds, bounds)
    assert rows.shape == (len(seeds), len(bounds)) and rows.dtype == np.uint64
    for seed, row in zip(seeds, rows.tolist()):
        stream = SplitMix64(seed)
        assert row == [stream.next_below(b) for b in bounds]
    with pytest.raises(ValueError):
        draws_below(seeds, [3, 0])


@pytest.mark.parametrize("n", [0, 1, 2, 5, 8, 300])
def test_shuffled_ranges_match_the_scalar_shuffle(n):
    orders = shuffled_ranges(SEEDS, n)
    assert orders.shape == (len(SEEDS), n) and orders.dtype == np.int64
    for seed, order in zip(SEEDS, orders.tolist()):
        expected = list(range(n))
        ScalarStream(seed).shuffle(expected)
        assert order == expected


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    seeds=st.lists(st.integers(0, MASK64), max_size=2 * rng.ROW_SWAPS_FROM),
    n=st.integers(0, 90),
    threshold=st.sampled_from([1, rng.ROW_SWAPS_FROM, 10**9]),
)
def test_both_shuffle_paths_equal_the_scalar_shuffle(seeds, n, threshold):
    # The call draws on both sides of ROW_SWAPS_FROM, and a threshold of 1
    # or 10**9 sends every call through the row swaps or the per-order loop.
    with mock.patch.object(rng, "ROW_SWAPS_FROM", threshold):
        orders = shuffled_ranges(seeds, n)
    assert orders.shape == (len(seeds), n) and orders.dtype == np.int64
    for seed, order in zip(seeds, orders.tolist()):
        expected = list(range(n))
        ScalarStream(seed).shuffle(expected)
        assert order == expected


def test_derive_seeds_matches_derive_seed():
    masters = np.array(SEEDS[:6], dtype=np.uint64)[:, None]
    table = derive_seeds(masters, iteration=np.arange(7), candidate=3, purpose=PURPOSE_SHUFFLE)
    for master, row in zip(SEEDS, table.tolist()):
        assert row == [
            derive_seed(master, iteration=i, candidate=3, purpose=PURPOSE_SHUFFLE)
            for i in range(7)
        ]
