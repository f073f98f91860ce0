"""Deterministic random streams for reproducible experiments.

Every stochastic component (synthetic send intervals, destination
choices, scheduler jitter) draws from its own named stream so that adding
a new consumer never perturbs existing experiments — the property the
paper's "average of three trials" methodology relies on for variance
control.
"""

from __future__ import annotations

import random
import zlib
from typing import Sequence, TypeVar

T = TypeVar("T")


class DeterministicRng:
    """A named, seeded random stream.

    The stream seed mixes the experiment seed with a CRC of the stream
    name, so streams are decorrelated but fully determined by
    ``(seed, name)``.
    """

    def __init__(self, seed: int, name: str) -> None:
        self.seed = seed
        self.name = name
        mixed = (seed * 0x9E3779B1 + zlib.crc32(name.encode())) & 0xFFFFFFFF
        self._rng = random.Random(mixed)

    # ``randrange(n)`` takes ``_randbelow(n)`` from the stream, as
    # ``randint`` does for an n-value range, so these draws (and every
    # golden built on them) are ``randint``'s.
    def uniform_int(self, low: int, high: int) -> int:
        """Inclusive uniform integer in [low, high]."""
        return low + self._rng.randrange(high - low + 1)

    def uniform_interval(self, mean: int) -> int:
        """Uniformly distributed integer interval with the given mean.

        The paper's synth-N draws send intervals "uniformly distributed
        ... with an average of T_betw cycles"; we use U[0, 2*mean] which
        has exactly that mean.
        """
        return self._rng.randrange(2 * mean + 1)

    def choice(self, seq: Sequence[T]) -> T:
        return self._rng.choice(seq)

    def shuffle(self, seq: list) -> None:
        self._rng.shuffle(seq)

    def random(self) -> float:
        return self._rng.random()

    def fork(self, name: str) -> "DeterministicRng":
        """Derive a sub-stream; forking is stable across runs."""
        return DeterministicRng(self.seed, f"{self.name}/{name}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DeterministicRng seed={self.seed} name={self.name!r}>"
