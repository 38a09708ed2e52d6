import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shuffleopt.prng import words
from shuffleopt.shuffling import (SchemeKind, ShufflingScheme, generate_permutation,
                                  is_permutation, random_permutation, uniform_indices)


def test_incremental_is_identity():
    scheme = ShufflingScheme(SchemeKind.INCREMENTAL, base_seed=99)
    assert generate_permutation(scheme, 4, 17).tolist() == [0, 1, 2, 3]


def test_single_shuffle_constant_across_epochs():
    scheme = ShufflingScheme(SchemeKind.SINGLE_SHUFFLE, base_seed=5)
    first = generate_permutation(scheme, 6, 1)
    for epoch in (2, 5, 9, 100):
        assert np.array_equal(first, generate_permutation(scheme, 6, epoch))
    assert is_permutation(first)


def test_reshuffle_valid_and_varied():
    scheme = ShufflingScheme(SchemeKind.RESHUFFLE, base_seed=5)
    orders = [generate_permutation(scheme, 6, t) for t in range(1, 51)]
    assert all(is_permutation(o) for o in orders)
    distinct = {tuple(o.tolist()) for o in orders}
    assert len(distinct) >= 2


def test_errors():
    scheme = ShufflingScheme(SchemeKind.RESHUFFLE, base_seed=0)
    with pytest.raises(ValueError):
        generate_permutation(scheme, 0, 1)
    with pytest.raises(ValueError):
        generate_permutation(scheme, 3, 0)
    with pytest.raises(ValueError, match="n must be >= 1"):
        uniform_indices(0, 1, 0, 5)


def test_determinism_and_seed_sensitivity():
    a = generate_permutation(ShufflingScheme("rr", 123), 40, 7)
    b = generate_permutation(ShufflingScheme("rr", 123), 40, 7)
    c = generate_permutation(ShufflingScheme("rr", 124), 40, 7)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@given(kind=st.sampled_from(list(SchemeKind)),
       n=st.integers(min_value=1, max_value=64),
       seed=st.integers(min_value=0, max_value=2 ** 63),
       epoch=st.integers(min_value=1, max_value=1000))
@settings(max_examples=200, deadline=None)
def test_always_a_permutation(kind, n, seed, epoch):
    order = generate_permutation(ShufflingScheme(kind, seed), n, epoch)
    assert is_permutation(order)


def test_reshuffle_marginal_uniformity():
    # 60k fresh orders of n=3: each of the 6 must appear with freq 1/6 +- 0.01
    scheme = ShufflingScheme(SchemeKind.RESHUFFLE, base_seed=2718)
    counts = {p: 0 for p in itertools.permutations(range(3))}
    draws = 60_000
    for t in range(1, draws + 1):
        counts[tuple(generate_permutation(scheme, 3, t).tolist())] += 1
    for count in counts.values():
        assert abs(count / draws - 1 / 6) <= 0.01


def test_uniform_indices():
    draws = uniform_indices(9, 3, 12, 500)
    assert draws.min() >= 0 and draws.max() < 12
    assert np.array_equal(draws, uniform_indices(9, 3, 12, 500))
    # i.i.d. draws are (overwhelmingly) not a permutation for count == n
    assert not is_permutation(uniform_indices(9, 3, 500, 500))


def test_random_permutation_small_sizes():
    assert random_permutation(1, 42).tolist() == [0]
    two = random_permutation(2, 42)
    assert sorted(two.tolist()) == [0, 1]


def straight_fisher_yates(n, key):
    """One modulo draw per swap, in the loop."""
    order = list(range(n))
    draws = words(key, max(n - 1, 0)).tolist()
    for i in range(n - 1, 0, -1):
        j = draws[n - 1 - i] % (i + 1)
        order[i], order[j] = order[j], order[i]
    return order


@pytest.mark.parametrize("n", [1, 2, 3, 600, 10000])
def test_random_permutation_is_straight_fisher_yates(n):
    for key in (0, 42, 2 ** 64 - 1, 0x5EED):
        got = random_permutation(n, key)
        assert got.dtype == np.int64
        assert got.tolist() == straight_fisher_yates(n, key)
