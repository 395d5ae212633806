"""Deterministic random streams built on SplitMix64.

Every stochastic draw in the lab comes from a stream seeded with
``derive_seed``: a pure function of the master seed plus the coordinates of
the draw site (iteration, candidate slot, run, purpose). There is no global
RNG state anywhere, which is what makes runs replayable and independent of
scheduling.

Seed coordinate conventions used across the package:

* purpose tags: 0=split, 1=sampling, 2=init, 3=shuffle, 4=policy-draw.
  Purpose tags are applied by the operation that consumes the stream
  (e.g. ``train`` derives its init and shuffle streams internally).
* candidate slot 0 means "no candidate" (base/checkpoint models);
  candidate j of an iteration uses slot j+1.
* run 0 is the simulation itself, run 1 is checkpoint-model training.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

PURPOSE_SPLIT = 0
PURPOSE_SAMPLE = 1
PURPOSE_INIT = 2
PURPOSE_SHUFFLE = 3
PURPOSE_POLICY = 4

RUN_CHECKPOINT = 1


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return (z ^ (z >> 31)) & MASK64


def _mix_array(z: np.ndarray) -> np.ndarray:
    """``_mix`` over a uint64 array, whose arithmetic wraps modulo 2**64,
    in place in ``z``."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def stream_draws(seeds: Sequence[int], count: int, skip: int = 0) -> np.ndarray:
    """Draws ``skip + 1``..``skip + count`` of the stream of each seed,
    shape ``(len(seeds), count)``.

    SplitMix64 is counter-based: draw k of the stream seeded with s is
    ``mix(s + k·GOLDEN)``, so a whole table is array arithmetic.
    """
    steps = np.arange(skip + 1, skip + count + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
    return _mix_array(np.asarray(seeds, dtype=np.uint64)[:, None] + steps)


def _bound_table(bounds) -> tuple[np.ndarray, np.ndarray]:
    """``bounds`` as uint64, and per bound the largest draw ``next_below``
    accepts: it rejects draws from 2**64 - 2**64 % bound on, that is above
    ~(2**64 % bound) in uint64, where (0 - bound) % bound is 2**64 % bound."""
    bound = np.asarray(bounds, dtype=np.uint64)
    if not bound.all():
        raise ValueError("bounds must be positive")
    return bound, ~((np.uint64(0) - bound) % bound)


@functools.lru_cache(maxsize=256)
def _shuffle_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The bound table of a Fisher-Yates shuffle of ``range(n)``: bounds
    n..2, read-only as every call shares it."""
    table = _bound_table(np.arange(n, 1, -1))
    for array in table:
        array.setflags(write=False)
    return table


def _draws_below(seeds: Sequence[int], bound: np.ndarray, ceiling: np.ndarray) -> np.ndarray:
    # Draw k answers bound[k-1] unless next_below would reject it. A
    # rejection shifts every later draw of its stream, so a seed with any
    # rejected draw is drawn again by the scalar stream.
    draws = stream_draws(seeds, bound.size)
    rejected = draws > ceiling
    draws %= bound
    if rejected.any():
        for index in np.flatnonzero(rejected.any(axis=1)).tolist():
            stream = SplitMix64(int(seeds[index]))
            draws[index] = [stream.next_below(b) for b in bound.tolist()]
    return draws


# Orders per call from which shuffled_ranges swaps each position in all
# orders at once. The per-order loop costs about 1.5 + 0.13·n µs an order,
# the row swaps about 1 µs a position whatever the number of orders, on
# top of a fixed cost; the row swaps were faster from about 14 orders on
# at n = 5, 10 at n = 20 and 8 at n = 85 (2-vCPU guest, numpy 2.4.6).
ROW_SWAPS_FROM = 12


def shuffled_ranges(seeds: Sequence[int], n: int) -> np.ndarray:
    """``range(n)`` after a Fisher-Yates shuffle by ``SplitMix64(s)`` for
    every seed s, as one ``(len(seeds), n)`` int64 array: position i, from
    n - 1 down to 1, swaps with position ``next_below(i + 1)``."""
    swaps = _draws_below(seeds, *_shuffle_table(n))
    count = len(swaps)
    if count < ROW_SWAPS_FROM:
        positions = range(n - 1, 0, -1)
        orders = []
        for row in swaps.tolist():
            order = list(range(n))
            for i, j in zip(positions, row):
                order[i], order[j] = order[j], order[i]
            orders.append(order)
        return np.array(orders, dtype=np.int64).reshape(count, n)
    # Order r's entry at position i sits at i·count + r of one flat array,
    # so each position's swap is one gather and one scatter over all orders.
    flat = np.repeat(np.arange(n, dtype=np.int64), count)
    offsets = np.arange(count)
    here = np.arange(n - 1, 0, -1)[:, None] * count + offsets
    there = swaps.T.astype(np.intp)
    there *= count
    there += offsets
    for to, of in zip(np.concatenate([here, there], 1), np.concatenate([there, here], 1)):
        flat[to] = flat[of]
    return np.ascontiguousarray(flat.reshape(n, count).T)


def splitmix64(value: int) -> int:
    """First output of a SplitMix64 stream seeded with ``value``."""
    return _mix((value + _GOLDEN) & MASK64)


def derive_seed(
    master: int,
    *,
    iteration: int = 0,
    candidate: int = 0,
    run: int = 0,
    purpose: int = 0,
) -> int:
    """Mix a master seed with draw-site coordinates into a stream seed.

    Absorption order (purpose, iteration, candidate, run) is fixed; changing
    it would silently re-seed every experiment.
    """
    seed = master & MASK64
    seed = splitmix64(seed ^ (purpose & MASK64))
    seed = splitmix64(seed ^ (iteration & MASK64))
    seed = splitmix64(seed ^ (candidate & MASK64))
    seed = splitmix64(seed ^ (run & MASK64))
    return seed


def derive_seeds(
    master: np.ndarray | int,
    *,
    iteration: np.ndarray | int = 0,
    candidate: np.ndarray | int = 0,
    run: np.ndarray | int = 0,
    purpose: int = 0,
) -> np.ndarray:
    """``derive_seed`` over non-negative integer arrays that broadcast together."""
    seed = np.asarray(master, dtype=np.uint64)
    for coordinate in (purpose, iteration, candidate, run):
        seed = _mix_array((seed ^ np.asarray(coordinate, dtype=np.uint64)) + np.uint64(_GOLDEN))
    return seed


def repeat_seed(master: int, index: int) -> int:
    """Master seed for repeat ``index`` of an averaged experiment.

    Repeat 0 keeps the configured seed so single runs and repeats=1 agree.
    """
    if index == 0:
        return master & MASK64
    return splitmix64((master + index) & MASK64)


class SplitMix64:
    """SplitMix64 stream with the float/int helpers the lab needs.

    Bit-exact by construction: integer arithmetic plus the usual
    53-bit-mantissa float conversion.
    """

    def __init__(self, seed: int) -> None:
        self._state = seed & MASK64

    def next_uint64(self) -> int:
        self._state = (self._state + _GOLDEN) & MASK64
        return _mix(self._state)

    def next_float(self) -> float:
        """Uniform draw in [0, 1)."""
        return (self.next_uint64() >> 11) * 2.0**-53

    def next_below(self, bound: int) -> int:
        """Unbiased uniform integer in [0, bound) via rejection."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            draw = self.next_uint64()
            if draw < limit:
                return draw % bound

    def distinct_below(self, bound: int, count: int) -> list[int]:
        """``count`` distinct integers in [0, bound), in draw order."""
        if count > bound:
            raise ValueError(f"cannot draw {count} distinct values below {bound}")
        seen: set[int] = set()
        out: list[int] = []
        while len(out) < count:
            draw = self.next_below(bound)
            if draw not in seen:
                seen.add(draw)
                out.append(draw)
        return out
