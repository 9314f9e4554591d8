import random

import pytest

from hypercuts._engine import draw_below
from hypercuts.sampling import (DrawNode, LazyWeightedOrder, derive_rng,
                                derive_seed, never_keep, splitmix64)
from test_enum_context import ReferenceOrder


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
    root = DrawNode.root(items, weights)
    eager = LazyWeightedOrder(root, random.Random(123), lambda: True)
    eager.ensure(6)
    assert sorted(eager.prefix) == items
    # the second order over the root takes the branches the first marked
    lazy = LazyWeightedOrder(root, random.Random(123), lambda: True)
    lazy.ensure(3)
    first = list(lazy.prefix)
    assert first == eager.prefix[:3]
    lazy.ensure(2)
    assert lazy.prefix == first
    lazy.ensure(6)
    assert lazy.prefix[:3] == first
    assert lazy.prefix == eager.prefix


def test_lazy_order_exhaustion():
    order = LazyWeightedOrder(DrawNode.root([0, 1], [2, 2]),
                              random.Random(1), lambda: True)
    order.ensure(10)
    assert sorted(order.prefix) == [0, 1]


def test_lazy_order_empty():
    order = LazyWeightedOrder(DrawNode.root([], []), random.Random(1),
                              lambda: True)
    order.ensure(3)
    assert order.prefix == []


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 2 ** 31 - 1, 2 ** 31,
                               2 ** 31 + 1, 2 ** 64 + 3])
def test_draw_below_is_randrange(n):
    for seed in range(5):
        rng, ref = random.Random(seed), random.Random(seed)
        for _ in range(50):
            assert draw_below(rng, n) == ref.randrange(n)
            assert rng.getstate() == ref.getstate()


def test_trie_orders_match_the_linear_scan():
    # a trie kept across orders, a trie that stores nothing and the old
    # linear scan all draw the same permutation from the same generator calls
    items = list(range(9))
    weights = [3, 1, 4, 1, 5, 9, 2, 6, 5]
    root = DrawNode.root(items, weights)
    for seed in range(20):
        rngs = [random.Random(seed) for _ in range(3)]
        orders = [LazyWeightedOrder(root, rngs[0], lambda: True),
                  LazyWeightedOrder(DrawNode.root(items, weights), rngs[1],
                                    never_keep),
                  ReferenceOrder(items, weights, rngs[2])]
        for length in (2, 5, 9):
            for order in orders:
                order.ensure(length)
        assert orders[0].prefix == orders[1].prefix == orders[2].prefix
        assert sorted(orders[0].prefix) == items
        assert len({rng.getstate() for rng in rngs}) == 1
    assert any(root.children.values())  # a branch taken twice is stored
