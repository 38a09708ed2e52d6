"""Portable pseudo-randomness built on the SplitMix64 stream.

Everything random in this package (permutations, with-replacement draws,
synthetic problem instances) is a pure function of an integer key, so runs
replay bit-identically.  The integer stream itself is exactly portable across
platforms; Gaussian draws additionally go through numpy's log/cos/sin and are
reproducible per platform, numpy SIMD level (log) and glibc's choice of
cos/sin variants by CPU (hwcaps), since numpy takes float64 cos/sin from libm.
"""

from __future__ import annotations

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
_STREAM_SALT = 0xD1B54A32D192ED03


def mix64(z: int) -> int:
    """SplitMix64 output mix (Steele, Lea & Flood) on a 64-bit integer."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK
    return z ^ (z >> 31)


def derive_key(seed: int, stream_id: int) -> int:
    """Key for an independent substream of `seed` (epoch number, tag, ...)."""
    return mix64(mix64(seed) ^ ((stream_id * _STREAM_SALT) & _MASK))


def words(key: int, count: int) -> np.ndarray:
    """`count` uint64 words of the SplitMix64 stream keyed by `key`."""
    z = np.uint64(key & _MASK) + np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX_A)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX_B)
    return z ^ (z >> np.uint64(31))


def standard_normals(key: int, count: int) -> np.ndarray:
    """Standard Gaussian draws via Box-Muller on the keyed stream."""
    pairs = (count + 1) // 2
    w = words(key, 2 * pairs)
    # u1 in (0, 1] so log never sees zero; u2 in [0, 1).
    u1 = ((w[:pairs] >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0 ** -53
    u2 = (w[pairs:] >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
    r = np.sqrt(-2.0 * np.log(u1))
    out = np.empty(2 * pairs)
    out[0::2] = r * np.cos(2.0 * np.pi * u2)
    out[1::2] = r * np.sin(2.0 * np.pi * u2)
    return out[:count]
