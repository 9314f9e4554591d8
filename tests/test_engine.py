import random
from collections import Counter

import pytest

from hypercuts._engine import (Walk, initial_comps, sample_node, sample_step,
                               side_mask)
from hypercuts.hypergraph import Hypergraph
from hypercuts.multiobjective import bmulti_walk
from hypercuts.node_budgeted import (hmincut_walk, nb_arbitrary_walk,
                                     nb_constant_walk)
from hypercuts.size_constrained import kcut_walk


def test_side_mask_is_the_union_of_the_picked_components():
    comps = (0b0011, 0b0100, 0b11000)
    assert side_mask(comps, 0) == 0
    assert side_mask(comps, 0b101) == 0b11011
    assert side_mask(comps, 0b111) == 0b11111


def test_sample_step_never_draws_zero_weight_edges():
    G = Hypergraph(10, [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)])
    comps = initial_comps(10)
    node = sample_node(list(range(5)), [0, 3, 0, 5, 0])
    rng = random.Random(0)
    counts = Counter()
    for _ in range(4000):
        nxt = sample_step(node, comps, G.edge_masks, rng)
        (eid,) = [e for e, em in enumerate(G.edge_masks) if em in nxt]
        counts[eid] += 1
    assert set(counts) == {1, 3}
    # proportions roughly 3:5
    assert abs(counts[1] / 4000 - 3 / 8) < 0.05
    # successor states are built only for the edges drawn
    assert [nxt is not None for nxt in node[4]] == [False, True, False, True, False]


def test_sample_node_is_none_without_weight():
    assert sample_node([], []) is None
    assert sample_node([0, 1], [0, 0]) is None


@pytest.mark.parametrize("make", [
    lambda G: bmulti_walk(G, (4,)),
    lambda G: nb_constant_walk(G, (3,)),
    lambda G: nb_arbitrary_walk(G, (3,)),
    hmincut_walk,
    lambda G: kcut_walk(G, 2, (1, 1)),
], ids=["bmulti_walk", "nb_constant_walk", "nb_arbitrary_walk",
        "hmincut_walk", "kcut_walk"])
def test_every_walk_is_an_engine_walk(make):
    # one walk loop: every algorithm runs on the engine's cached walk
    G = Hypergraph(4, [(0, 1), (1, 2, 3), (0, 3)], [(1, 2), (2, 1), (3, 1)],
                   [(1,), (2,), (1,), (2,)])
    assert isinstance(make(G), Walk)
