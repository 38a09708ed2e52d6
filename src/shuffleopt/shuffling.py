"""Per-epoch index orders for shuffling-based optimizers.

Three schemes:

* ``ig``  -- incremental: the fixed identity order, every epoch;
* ``ss``  -- single shuffle: one random order, reused every epoch;
* ``rr``  -- reshuffle: a fresh random order per epoch.

An epoch's order is a pure function of (kind, base_seed, n, epoch), so any
epoch can be regenerated independently without replaying earlier ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .prng import derive_key, words

_REPLACEMENT_TAG = 0x7265706C61636564  # keeps the i.i.d. stream off the shuffle stream


class SchemeKind(str, Enum):
    INCREMENTAL = "ig"
    SINGLE_SHUFFLE = "ss"
    RESHUFFLE = "rr"


@dataclass(frozen=True)
class ShufflingScheme:
    kind: SchemeKind
    base_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "kind", SchemeKind(self.kind))


def random_permutation(n: int, key: int) -> np.ndarray:
    """Fisher-Yates shuffle of [0, n) driven by the keyed SplitMix64 stream.

    Bounded draws use modulo reduction; the bias is below n / 2**64 per draw,
    far under anything the uniformity checks can resolve.
    """
    order = list(range(n))
    if n >= 2:
        # draw k picks the swap partner of i = n-1-k from [0, i]
        partners = (words(key, n - 1) % np.arange(n, 1, -1, dtype=np.uint64)).tolist()
        for i, j in zip(range(n - 1, 0, -1), partners):
            order[i], order[j] = order[j], order[i]
    return np.array(order, dtype=np.int64)


def generate_permutation(scheme: ShufflingScheme, n: int, epoch: int) -> np.ndarray:
    """Index order for one epoch.  Epochs count from 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if epoch < 1:
        raise ValueError("epoch must be >= 1")
    if scheme.kind is SchemeKind.INCREMENTAL:
        return np.arange(n, dtype=np.int64)
    if scheme.kind is SchemeKind.SINGLE_SHUFFLE:
        return random_permutation(n, derive_key(scheme.base_seed, 0))
    return random_permutation(n, derive_key(scheme.base_seed, epoch))


def uniform_indices(base_seed: int, epoch: int, n: int, count: int) -> np.ndarray:
    """`count` i.i.d. uniform draws from [0, n); the with-replacement sampler."""
    if n < 1:
        raise ValueError("n must be >= 1")
    key = derive_key(base_seed ^ _REPLACEMENT_TAG, epoch)
    return (words(key, count) % np.uint64(n)).astype(np.int64)


def is_permutation(order: np.ndarray) -> bool:
    order = np.asarray(order)
    return bool(np.array_equal(np.sort(order), np.arange(order.size)))
