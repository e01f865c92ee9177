"""Deterministic, splittable random streams.

A :class:`SeedSpec` is a 64-bit root seed plus a tuple of substream labels.
Identical (seed, labels) always yields the identical generator state, on any
platform.  Labels are ints or strings; strings are hashed with SHA-256 so the
derivation does not depend on Python's per-process hash randomization.  The
labels become numpy ``SeedSequence`` spawn-key words, so streams with
distinct labels are independent.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError


@functools.lru_cache(maxsize=65536)
def _label_words(label) -> tuple[int, ...]:
    if isinstance(label, bool):
        raise ParameterError("stream labels must be ints or strings")
    if isinstance(label, int):
        if label < 0:
            raise ParameterError(f"integer stream labels must be >= 0, got {label}")
        return (1, label & 0xFFFFFFFF, (label >> 32) & 0xFFFFFFFF)
    if isinstance(label, str):
        digest = hashlib.sha256(label.encode("utf-8")).digest()
        words = tuple(
            int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)
        )
        return (2,) + words
    raise ParameterError(f"unsupported stream label {label!r}")


def _spawn_key(labels: tuple) -> tuple[int, ...]:
    return tuple(w for label in labels for w in _label_words(label))


@dataclass(frozen=True)
class SeedSpec:
    """Root seed plus a path of substream labels."""

    seed: int
    stream: tuple = ()

    def __post_init__(self) -> None:
        seed = self.seed
        if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed < (1 << 64):
            raise ParameterError(f"seed must be a 64-bit unsigned int, got {seed!r}")
        object.__setattr__(self, "stream", tuple(self.stream))
        for label in self.stream:
            _label_words(label)

    def child(self, *labels) -> "SeedSpec":
        """A named substream; children with distinct labels are independent."""
        return SeedSpec(seed=self.seed, stream=self.stream + tuple(labels))

    def generator(self) -> np.random.Generator:
        """A PCG64 generator positioned at the start of this stream."""
        sequence = np.random.SeedSequence(entropy=self.seed, spawn_key=_spawn_key(self.stream))
        return np.random.Generator(np.random.PCG64(sequence))
