import math
from fractions import Fraction
from itertools import product

import pytest

from hypercuts._engine import initial_comps
from hypercuts.analysis import gen_random_instance
from hypercuts.hypergraph import (Cut, Hypergraph, InstanceError, INFEASIBLE,
                                  KPartition, delta_partition)
from hypercuts.oracle import oracle_kcut
from hypercuts.sampling import derive_rng
from hypercuts.size_constrained import (alpha_size, kcut_walk,
                                        multi_weight_reduction,
                                        size_constrained_min_k_cut,
                                        success_floor_size)


def triangle():
    return Hypergraph(3, [(0, 1), (1, 2), (0, 2)], [(1,), (1,), (1,)],
                      [(1,), (1,), (1,)])


def test_alpha_size_examples():
    assert alpha_size(6, 2, 2) == Fraction(2, 5)
    assert alpha_size(6, 6, 1) == 0
    assert alpha_size(5, 3, 2) == Fraction(1, 10)
    with pytest.raises(InstanceError):
        alpha_size(6, 1, 1)
    with pytest.raises(InstanceError):
        alpha_size(6, 2, 0)


def test_success_floor_size_values():
    assert success_floor_size(4, 2, (1, 1)) == Fraction(1, 96)
    assert success_floor_size(2, 2, (1, 1)) == Fraction(1, 4)
    assert success_floor_size(6, 3, (1, 1, 1)) == Fraction(1, 7290)
    assert success_floor_size(6, 2, (1, 1)) == Fraction(1, 360)
    with pytest.raises(InstanceError):
        success_floor_size(2, 3, (1, 1, 1))


def test_sizes_canonicalized_sorted():
    # unsorted input is accepted; the prefix sums use the sorted order
    assert success_floor_size(7, 3, (2, 1, 1)) == success_floor_size(7, 3, (1, 1, 2))
    with pytest.raises(InstanceError):
        success_floor_size(7, 3, (0, 1, 1))


def test_infeasible_when_fewer_vertices_than_parts():
    G = triangle()
    assert size_constrained_min_k_cut(G, 4, (1, 1, 1, 1), derive_rng(0, 0)) is INFEASIBLE


def test_triangle_floor():
    G = triangle()
    value, optima = oracle_kcut(G, 2, (1, 1))
    assert value == 2
    trials = 100000
    hits = sum(1 for i in range(trials)
               if size_constrained_min_k_cut(G, 2, (1, 1), derive_rng(1, i)) in optima)
    floor = float(success_floor_size(3, 2, (1, 1)))
    sigma = math.sqrt(floor * (1 - floor) / trials)
    assert hits / trials >= floor - 3 * sigma


def test_small_hypergraph_oracle_example():
    G = Hypergraph(3, [(0, 1, 2), (0, 1)], [(1,), (1,)], [(1,), (1,), (1,)])
    value, optima = oracle_kcut(G, 2, (1, 1))
    assert value == 1 and Cut.of([0]) in optima
    trials = 20000
    hits = sum(1 for i in range(trials)
               if size_constrained_min_k_cut(G, 2, (1, 1), derive_rng(2, i)) in optima)
    floor = float(success_floor_size(3, 2, (1, 1)))
    sigma = math.sqrt(floor * (1 - floor) / trials)
    assert hits / trials >= floor - 3 * sigma


def test_spanning_edges_zero_alpha_branch():
    # every edge spans all vertices: all alphas are zero at the first level
    G = Hypergraph(5, [(0, 1, 2, 3, 4), (0, 1, 2, 3, 4)], [(1,), (1,)],
                   [(1,)] * 5)
    for i in range(40):
        out = size_constrained_min_k_cut(G, 2, (1, 1), derive_rng(3, i))
        assert out == Cut.of([0, 1])  # both spanning edges cross any partition


def test_weight_obliviousness_byte_exact():
    base = gen_random_instance(7, 9, 4, 1, 1, max_weight=5, seed=40,
                               positive_weights=True)
    other_weights = [((w[0] * 3 + 1),) for w in base.vertex_weights]
    G1 = base
    G2 = Hypergraph(base.n, base.edges, base.edge_costs, other_weights)
    for i in range(100):
        a = size_constrained_min_k_cut(G1, 2, (1, 2), derive_rng(4, i))
        b = size_constrained_min_k_cut(G2, 2, (1, 2), derive_rng(4, i))
        assert a == b


def test_output_is_partition_cut_or_full_edge_set():
    # every output is delta of SOME label assignment (the alive edge set of a
    # contracted level equals delta of its supervertex partition), or the
    # full edge set
    G = gen_random_instance(6, 7, 3, 1, 1, max_weight=3, seed=41,
                            positive_weights=True)
    possible = set()
    for labels in product(range(G.n), repeat=G.n):
        possible.add(delta_partition(G, KPartition(labels, G.n)))
    possible.add(Cut.of(range(G.m)))
    for i in range(300):
        out = size_constrained_min_k_cut(G, 2, (1, 1), derive_rng(5, i))
        assert out in possible


def test_alpha_sum_claim():
    # sum over e of alpha_e <= |E \ F| for any size-constrained optimum F
    for seed in range(6):
        G = gen_random_instance(7, 8, 4, 1, 1, max_weight=4, seed=seed,
                                positive_weights=True)
        result = oracle_kcut(G, 2, (1, 2))
        if result is INFEASIBLE:
            continue
        _, optima = result
        node = kcut_walk(G, 2, (1, 2)).expand(initial_comps(G.n))
        if node[0] != "sample":
            continue
        total = node[2]
        sigma_lead = 1
        alpha_sum = Fraction(total, math.comb(G.n, sigma_lead))
        for F in optima:
            assert alpha_sum <= G.m - len(F.edge_ids)


def test_sampled_edges_leave_room():
    # only edges with positive alpha are contracted: |e| <= n - sigma_{k-1}
    G = gen_random_instance(7, 9, 5, 1, 1, max_weight=3, seed=42,
                            positive_weights=True)
    walk = kcut_walk(G, 3, (1, 1, 2))
    node = walk.expand(initial_comps(G.n))
    if node[0] == "sample":
        _, cum, _, present, _, _ = node
        spans = [len(G.edges[eid]) for eid in present]  # singleton components
        prev = 0
        for sz, acc in zip(spans, cum):
            if acc > prev:  # positive sampling weight
                assert sz <= G.n - walk.sigma_lead
            prev = acc


def test_multi_weight_reduction():
    assert multi_weight_reduction([(1, 2, 3), (2, 1, 4)]) == (2, 2, 4)
    assert multi_weight_reduction([(1, 2, 3)]) == (1, 2, 3)
    assert multi_weight_reduction([(2, 2), (2, 2)]) == (2, 2)
    with pytest.raises(InstanceError):
        multi_weight_reduction([])
    with pytest.raises(InstanceError):
        multi_weight_reduction([(1, 2), (1,)])
    with pytest.raises(InstanceError):
        multi_weight_reduction([(0, 1)])


def test_deterministic_replay():
    G = gen_random_instance(7, 9, 4, 1, 1, max_weight=4, seed=43,
                            positive_weights=True)
    a = [size_constrained_min_k_cut(G, 2, (1, 2), derive_rng(6, i))
         for i in range(40)]
    b = [size_constrained_min_k_cut(G, 2, (1, 2), derive_rng(6, i))
         for i in range(40)]
    assert a == b
