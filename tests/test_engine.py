import random
from collections import Counter

from hypercuts._engine import initial_comps, sample_node, sample_step
from hypercuts.hypergraph import Hypergraph


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
