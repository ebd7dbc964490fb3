"""Seedable, portable randomness.

Substream seeds are derived by hashing (SHA-256), and every draw is built
on random.Random.random() — the one primitive CPython guarantees stable
across versions — so generated datasets reproduce bit-for-bit anywhere.
`sha256` is CPython's builtin one, as in random.py, and pipeline takes it
from here: hashlib would load OpenSSL (3.6 MiB resident) for a few digests.
"""

from __future__ import annotations

import math
import random
from typing import Sequence, TypeVar

try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256

T = TypeVar("T")


def derive_seed(*parts: int | str) -> int:
    """Stable substream seed from (seed, index, ...) parts."""
    text = ":".join(str(p) for p in parts)
    return int.from_bytes(sha256(text.encode("utf-8")).digest()[:8], "big")


class PortableRandom:
    """Uniform/normal/integer draws and shuffling derived from random() only."""

    def __init__(self, seed: int) -> None:
        self._random = random.Random(seed)

    def random(self) -> float:
        return self._random.random()

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self._random.random()

    def normal(self, mean: float, std: float) -> float:
        # Box-Muller; 1 - random() keeps the log argument in (0, 1]
        u1 = 1.0 - self._random.random()
        u2 = self._random.random()
        return mean + std * math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], both ends inclusive."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        span = hi - lo + 1
        value = lo + int(self._random.random() * span)
        return min(value, hi)

    def shuffled(self, items: Sequence[T]) -> list[T]:
        """Fisher-Yates on a copy; the input is left untouched."""
        out = list(items)
        for i in range(len(out) - 1, 0, -1):
            j = self.randint(0, i)
            out[i], out[j] = out[j], out[i]
        return out
