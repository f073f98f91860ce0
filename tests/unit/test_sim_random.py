"""``DeterministicRng``'s integer draws are exactly ``randint``'s, so
the streams every recorded result was built on stay as they were."""

import random

import pytest

from repro.sim.random import DeterministicRng


def _twin(rng: DeterministicRng) -> random.Random:
    ref = random.Random()
    ref.setstate(rng._rng.getstate())
    return ref


def test_uniform_int_draws_randint():
    rng = DeterministicRng(7, "draws")
    ref = _twin(rng)
    for low, high in [(0, 0), (3, 3), (0, 1), (-5, 17), (10, 1 << 40)] * 50:
        assert rng.uniform_int(low, high) == ref.randint(low, high)


def test_uniform_interval_draws_randint():
    rng = DeterministicRng(3, "intervals")
    ref = _twin(rng)
    for mean in [0, 1, 25, 1000] * 50:
        assert rng.uniform_interval(mean) == ref.randint(0, 2 * mean)


def test_empty_range_rejected():
    with pytest.raises(ValueError):
        DeterministicRng(1, "empty").uniform_int(5, 4)
