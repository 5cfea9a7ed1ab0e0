"""Reproducible randomness on named Philox counter streams.

Every draw in this package is addressed, not consumed: a stream is
identified by ``(seed, tag, index)`` and values within it by counter
position, so results do not depend on the order in which callers ask for
them.  Gaussians come from the inverse normal CDF applied to the 53-bit
uniform carved out of each raw 64-bit Philox word.

The stream ``(seed, tag, index)`` is numpy's Philox4x64-10 under the key
``stream_key(seed, tag, index)`` *as numpy stores it*.
``np.random.Philox(key=[a, b])`` converts the list with ``np.asarray``; when
one word is below 2^63 and the other is not, the list becomes float64, so
both words are stored rounded to 53 significant bits (and a word that rounds
up to 2^64 is stored as 0).  About half of all keys are stored rounded.  That
rounding is part of the stream spec: ``words_at`` reproduces it, and every
recorded artifact depends on it.  This module is the only one that names
Philox, ``stream_key`` or ``ndtri``.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

_GOLDEN = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1
_LOW32 = np.uint64(0xFFFFFFFF)

# Philox4x64 round multipliers and Weyl key increments (Random123)
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
_PHILOX_ROUNDS = 10


def _mix(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer on a uint64 array; spreads structured inputs
    over 64 bits (array arithmetic wraps modulo 2^64)."""
    x = x + np.uint64(_GOLDEN)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def _tag_hash(tag: str) -> int:
    h = 0xCBF29CE484222325  # FNV-1a, independent of PYTHONHASHSEED
    for byte in tag.encode():
        h = ((h ^ byte) * 0x100000001B3) & _MASK
    return h


def stream_key(seed: int, tag: str, index: int = 0) -> list[int]:
    """Philox key of the substream ``(seed, tag, index)``."""
    words = _mix(np.array([(seed & _MASK) ^ _tag_hash(tag), index & _MASK], dtype=np.uint64))
    return [int(words[0]), int(words[1])]


def _stored_key(words: np.ndarray) -> np.ndarray:
    """The key numpy stores for each column ``(a, b)`` of a (2, m) uint64
    array: both words rounded through float64 where exactly one is at or
    above 2^63, as ``np.asarray([a, b])`` does (see the module docstring)."""
    top = words >> np.uint64(63)
    mixed = top[0] != top[1]
    rounded = words.astype(np.float64)
    rounded = np.where(rounded < 2.0**64, rounded, 0.0).astype(np.uint64)
    return np.where(mixed, rounded, words)


def _mulhilo(multiplier: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit product ``multiplier * x``, built
    from 32-bit halves so that no partial product overflows."""
    m_lo, m_hi = np.uint64(multiplier & 0xFFFFFFFF), np.uint64(multiplier >> 32)
    x_lo, x_hi = x & _LOW32, x >> np.uint64(32)
    lo_lo = x_lo * m_lo
    hi_lo = x_hi * m_lo
    lo_hi = x_lo * m_hi
    mid = (lo_lo >> np.uint64(32)) + (hi_lo & _LOW32) + (lo_hi & _LOW32)
    high = x_hi * m_hi + (hi_lo >> np.uint64(32)) + (lo_hi >> np.uint64(32))
    return high + (mid >> np.uint64(32)), x * np.uint64(multiplier)


def _first_words(keys: np.ndarray) -> np.ndarray:
    """Philox4x64-10 output word 0 at counter 1 for each key column of a
    (2, m) uint64 array, as ``np.random.Philox(key=[a, b]).random_raw(1)``
    gives it, key rounding included."""
    k0, k1 = _stored_key(keys)
    zero = np.zeros_like(k0)
    c0, c1, c2, c3 = np.ones_like(k0), zero, zero, zero
    for round_ in range(_PHILOX_ROUNDS):
        if round_:
            k0 = k0 + _PHILOX_W[0]
            k1 = k1 + _PHILOX_W[1]
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return c0


def _stream_keys(seed: int, tag: str, indices) -> np.ndarray:
    """``stream_key(seed, tag, i)`` for each ``i`` in ``indices``, as the
    columns of a (2, m) uint64 array, from one ``_mix``."""
    index = np.asarray(indices).astype(np.uint64).ravel()
    seed_word = np.full(index.shape, (seed & _MASK) ^ _tag_hash(tag), dtype=np.uint64)
    return _mix(np.stack([seed_word, index]))


def words_at(seed: int, tag: str, indices) -> np.ndarray:
    """First raw word of each stream ``(seed, tag, i)`` for ``i`` in
    ``indices``, equal to
    ``np.random.Philox(key=stream_key(seed, tag, i)).random_raw(1)[0]``."""
    return _first_words(_stream_keys(seed, tag, indices))


def _unit(words: np.ndarray) -> np.ndarray:
    """Doubles strictly inside (0, 1) from the top 53 bits of each word."""
    return ((words >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


def uniforms_at(seed: int, tag: str, indices) -> np.ndarray:
    """One uniform per stream ``(seed, tag, i)``, from its first word."""
    return _unit(words_at(seed, tag, indices))


def normals_at(seed: int, tag: str, indices) -> np.ndarray:
    """One standard normal per stream ``(seed, tag, i)``, via the inverse CDF."""
    return ndtri(uniforms_at(seed, tag, indices))


def uniforms(seed: int, tag: str, count: int, index: int = 0) -> np.ndarray:
    """``count`` uniforms from the counter stream ``(seed, tag, index)``."""
    return _unit(np.random.Philox(key=stream_key(seed, tag, index)).random_raw(count))


def normals(seed: int, tag: str, count: int, index: int = 0) -> np.ndarray:
    """Standard normals via the inverse CDF on the counter stream."""
    return ndtri(uniforms(seed, tag, count, index))


def _below(u: np.ndarray, high: int) -> np.ndarray:
    return np.minimum((u * high).astype(np.int64), high - 1)


def integers_below(seed: int, tag: str, count: int, high: int, index: int = 0) -> np.ndarray:
    """Integers in [0, high) by scaling 53-bit uniforms (bias < high / 2^53)."""
    return _below(uniforms(seed, tag, count, index), high)


def integers_below_streams(seed: int, tag: str, count: int, high: int, indices) -> np.ndarray:
    """A (len(indices), count) array whose row ``j`` equals
    ``integers_below(seed, tag, count, high, index=indices[j])``.

    The keys of all streams come from one ``_mix`` and are rounded as numpy
    stores them (``_stored_key``); only the Philox words are drawn stream by
    stream."""
    keys = np.ascontiguousarray(_stored_key(_stream_keys(seed, tag, indices)).T)
    words = np.empty((len(keys), count), dtype=np.uint64)
    for row, key in zip(words, keys):
        row[:] = np.random.Philox(key=key).random_raw(count)
    return _below(_unit(words), high)


def generator(seed: int, tag: str, index: int = 0) -> np.random.Generator:
    """A numpy Generator on the named substream, for library distributions."""
    return np.random.Generator(np.random.Philox(key=stream_key(seed, tag, index)))
