"""Deterministic, splittable random streams.

A :class:`SeedSpec` is a 64-bit root seed plus a tuple of substream labels.
Identical (seed, labels) always yields the identical generator state, on any
platform, regardless of how many workers consume sibling streams.  Labels are
ints or strings; strings are hashed with SHA-256 so the derivation does not
depend on Python's per-process hash randomization.

:meth:`SeedSpec.generators` derives many sibling streams at once.  numpy's
``SeedSequence`` hashes its entropy words one at a time with a running hash
constant whose sequence of values does not depend on the data (O'Neill,
"Developing a seed_seq Alternative", pcg-random.org 2015; the output is
stable under NEP 19).  So a shared label prefix is hashed once, and the label
suffixes of all siblings are hashed side by side as uint32 arrays, giving the
same generator states as one ``SeedSequence`` per stream.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import ParameterError

Label = "int | str"

# SeedSequence's pool size and hashing constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_M32 = 0xFFFFFFFF


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


def _mix(x, y):
    """SeedSequence's mix of two 32-bit words (ints or uint32 arrays)."""
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
    return result ^ (result >> 16)


def _hash_consts(start: int, count: int, mult: int = _MULT_A) -> np.ndarray:
    """The hash constant's next count + 1 values, from start."""
    consts = [start]
    for _ in range(count):
        consts.append((consts[-1] * mult) & _M32)
    return np.array(consts, dtype=np.uint32)


def _prefix_pool(seed: int, key: tuple[int, ...]) -> tuple[np.ndarray, int]:
    """SeedSequence(seed, spawn_key=key)'s pool, and its hash constant after.

    Python ints, word by word, as SeedSequence.mix_entropy does it.  A
    SeedSequence with a spawn key pads its entropy to the pool size with
    zeros, and without one it hashes zeros into the unfilled slots, so
    either way the pool starts from the seed's words and zeros.
    """
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _M32
        value = (value * hash_const) & _M32
        return value ^ (value >> 16)

    pool = [hashmix((seed >> (32 * i)) & _M32) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in key:
        pool = [_mix(pool_word, hashmix(word)) for pool_word in pool]
    return np.array(pool, dtype=np.uint32), hash_const


def _absorb(pool: np.ndarray, hash_const: int, keys: np.ndarray) -> np.ndarray:
    """Mix each row of keys (uint32, shape (rows, L)) into its own copy of pool.

    SeedSequence hashes every entropy word once per pool word, each time
    with the next hash constant, and mixes the result into that pool word.
    The hash does not read the pool, so all of it is one array expression;
    only the mixing runs word by word.
    """
    rows, length = keys.shape
    consts = _hash_consts(hash_const, _POOL_SIZE * length)
    before = consts[:-1].reshape(length, _POOL_SIZE)
    after = consts[1:].reshape(length, _POOL_SIZE)
    hashed = (keys[:, :, None] ^ before) * after
    hashed ^= hashed >> 16
    for j in range(length):
        pool = _mix(pool, hashed[:, j])
    return np.broadcast_to(pool, (rows, _POOL_SIZE))


# generate_state(4, np.uint64) hashes the pool's words twice over, in order.
_STATE_CONSTS = _hash_consts(_INIT_B, 2 * _POOL_SIZE, _MULT_B)


def _pcg64_states(pool: np.ndarray) -> np.ndarray:
    """SeedSequence.generate_state(4, np.uint64) for each pool row."""
    out = (np.tile(pool, 2) ^ _STATE_CONSTS[:-1]) * _STATE_CONSTS[1:]
    out ^= out >> 16
    return out.astype("<u4").view("<u8").astype(np.uint64)


class _PresetState(ISeedSequence):
    """Hands PCG64 a state computed by _pcg64_states."""

    def __init__(self, state: np.ndarray) -> None:
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("a preset state serves only PCG64's generate_state(4, uint64)")
        return self.state


@functools.lru_cache(maxsize=65536)
def _spawn_key(labels: tuple) -> tuple[int, ...]:
    return tuple(w for label in labels for w in _label_words(label))


@dataclass(frozen=True)
class SeedSpec:
    """Root seed plus a path of substream labels."""

    seed: int
    stream: tuple = ()

    def __post_init__(self) -> None:
        if not isinstance(self.seed, int) or not 0 <= self.seed < (1 << 64):
            raise ParameterError(f"seed must be a 64-bit unsigned int, got {self.seed!r}")
        object.__setattr__(self, "stream", tuple(self.stream))
        for label in self.stream:
            _label_words(label)

    def child(self, *labels) -> "SeedSpec":
        """A named substream; children with distinct labels are independent."""
        return SeedSpec(seed=self.seed, stream=self.stream + tuple(labels))

    def seed_sequence(self) -> np.random.SeedSequence:
        return np.random.SeedSequence(entropy=self.seed, spawn_key=_spawn_key(self.stream))

    def generator(self) -> np.random.Generator:
        """A PCG64 generator positioned at the start of this stream."""
        return np.random.Generator(np.random.PCG64(self.seed_sequence()))

    def generators(self, rows) -> list[np.random.Generator]:
        """[self.child(*row).generator() for row in rows], derived in one pass.

        Element i has the same state as self.child(*rows[i]).generator().
        The root seed and this spec's labels are hashed once; the rows'
        labels are hashed side by side, one pass per spawn-key length.  One
        stream is cheaper through generator(), which this is tested against.
        """
        pool, hash_const = _prefix_pool(self.seed, _spawn_key(self.stream))
        keys = [_spawn_key(tuple(row)) for row in rows]
        by_length: dict[int, list[int]] = {}
        for i, key in enumerate(keys):
            by_length.setdefault(len(key), []).append(i)
        out: list = [None] * len(keys)
        for length, indices in by_length.items():
            words = np.array([keys[i] for i in indices], dtype=np.uint32)
            row_pools = _absorb(pool, hash_const, words.reshape(len(indices), length))
            for i, state in zip(indices, _pcg64_states(row_pools)):
                out[i] = np.random.Generator(np.random.PCG64(_PresetState(state)))
        return out
