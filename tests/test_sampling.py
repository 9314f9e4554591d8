import random

import pytest

from hypercuts.sampling import (LazyWeightedOrder, derive_rng, derive_seed,
                                splitmix64)


def test_splitmix_is_deterministic_and_64bit():
    assert splitmix64(0) == splitmix64(0)
    assert splitmix64(1) != splitmix64(2)
    for x in (0, 1, 2 ** 63, 2 ** 64 - 1):
        assert 0 <= splitmix64(x) < 2 ** 64


def test_derive_seed_independent_of_order():
    seeds = [derive_seed(99, i) for i in range(100)]
    assert len(set(seeds)) == 100
    assert derive_seed(99, 7) == derive_seed(99, 7)
    assert derive_seed(98, 7) != derive_seed(99, 7)
    with pytest.raises(ValueError):
        derive_seed(0, -1)


def test_derive_rng_streams_replay():
    a = [derive_rng(5, i).random() for i in range(10)]
    b = [derive_rng(5, i).random() for i in range(10)]
    assert a == b


def test_lazy_order_matches_eager_draw():
    # a prefix extended over several ensure calls is the order drawn at once
    items = list(range(6))
    weights = [5, 1, 4, 2, 8, 3]
    eager = LazyWeightedOrder(items, weights, random.Random(123))
    eager.ensure(6)
    assert sorted(eager.prefix) == items
    lazy = LazyWeightedOrder(items, weights, random.Random(123))
    lazy.ensure(3)
    first = list(lazy.prefix)
    assert first == eager.prefix[:3]
    lazy.ensure(2)
    assert lazy.prefix == first
    lazy.ensure(6)
    assert lazy.prefix[:3] == first
    assert lazy.prefix == eager.prefix
    assert lazy.exhausted_at == 6


def test_lazy_order_exhaustion():
    order = LazyWeightedOrder([0, 1], [2, 2], random.Random(1))
    order.ensure(10)
    assert sorted(order.prefix) == [0, 1]
    assert order.exhausted_at == 2


def test_lazy_order_empty():
    order = LazyWeightedOrder([], [], random.Random(1))
    order.ensure(3)
    assert order.prefix == []
    assert order.exhausted_at == 0
