"""Counter-based deterministic RNG (SplitMix64) with named consumer streams.

Reproducibility is a hard contract for the simulator: the same (seed, config)
must produce byte-identical outputs on every platform, so the stdlib RNG is
off limits.  Every consumer draws from its own stream derived from
(seed, stream, instance); adding a new consumer or a new agent never perturbs
draws made by existing ones.
"""

from __future__ import annotations

import functools
import math

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15

# Stream ids, one per consumer. Never renumber these: stream assignment is
# part of the reproducibility contract.
STREAM_TRAFFIC = 1
STREAM_INJECTION = 2
STREAM_BLUFF_POOL = 3
STREAM_POPULATION = 4


def _mix(z: int) -> int:
    """SplitMix64 output function (finalizer).

    ``next_u64`` and ``random`` repeat these three lines inline, on a state
    already below 2**64, to save a Python call per draw.
    """
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return (z ^ (z >> 31)) & MASK64


@functools.lru_cache(maxsize=64, typed=True)
def _stream_prefix(seed: int, stream: int) -> int:
    """The state ``for_stream`` folds the instance into: seed mixed, then
    folded with stream and remixed.  Typed, so that a float seed equal to a
    cached int seed is still refused."""
    return _mix(_mix(seed & MASK64) ^ ((stream & MASK64) * GOLDEN & MASK64))


class SplitMix64:
    """SplitMix64 generator: state advances by the golden gamma, output is
    the mixed state.  Matches the reference algorithm, so e.g. raw state 0
    yields 0xE220A8397B1DCDAF first.
    """

    __slots__ = ("_state",)

    def __init__(self, state: int):
        self._state = state & MASK64

    @classmethod
    def for_stream(cls, seed: int, stream: int, instance: int = 0) -> "SplitMix64":
        """Derive an independent generator for (seed, stream, instance).

        The initial state is seed mixed, then folded with stream and instance
        via multiply-by-golden-gamma and remixing.  Distinct tuples give
        unrelated state trajectories.  A run derives many instances of few
        (seed, stream) pairs, so the mixed (seed, stream) prefix comes from a
        small cache and each call mixes in only the instance.
        """
        return cls(_mix(_stream_prefix(seed, stream) ^ ((instance & MASK64) * GOLDEN & MASK64)))

    def next_u64(self) -> int:
        z = self._state = (self._state + GOLDEN) & MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def random(self) -> float:
        """Float in [0, 1) with 53 bits of precision: the top 53 bits of
        ``next_u64``, whose body is repeated here to save a call."""
        z = self._state = (self._state + GOLDEN) & MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return ((z ^ (z >> 31)) >> 11) * (1.0 / (1 << 53))

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n), bias-free via rejection."""
        if n <= 0:
            raise ValueError("randrange bound must be positive")
        limit = ((1 << 64) // n) * n
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def expovariate(self, mean: float) -> float:
        """Exponential variate with the given mean."""
        return -math.log(1.0 - self.random()) * mean

    def poisson(self, lam: float) -> int:
        """Poisson count by summing unit exponentials until they exceed lam.

        Stable for any lam (no exp(-lam) underflow); consumes a variable
        number of draws, which is fine inside a private stream.
        """
        if lam <= 0.0:
            return 0
        total = 0.0
        n = 0
        while True:
            total += self.expovariate(1.0)
            if total > lam:
                return n
            n += 1
