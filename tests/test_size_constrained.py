import math
from fractions import Fraction
from itertools import product

import pytest

from hypercuts._engine import initial_comps
from hypercuts.analysis import gen_random_instance
from hypercuts.hypergraph import (Cut, Hypergraph, InstanceError, INFEASIBLE,
                                  delta_partition)
from hypercuts.oracle import oracle_kcut
from hypercuts.sampling import derive_rng
from hypercuts.size_constrained import kcut_walk, success_floor_size


def triangle():
    return Hypergraph(3, [(0, 1), (1, 2), (0, 2)], [(1,), (1,), (1,)],
                      [(1,), (1,), (1,)])


def one_run(walk, rng):
    """The cut of one run of ``walk``, or INFEASIBLE."""
    out = walk.run(rng)
    return INFEASIBLE if out is INFEASIBLE else Cut.from_mask(out[0])


def alphas(n, edges, sizes):
    """alpha_e = C(n-|e|, sigma) / C(n, sigma) at the singleton partition,
    read off the walk's sample node (numerators over C(n, sigma))."""
    walk = kcut_walk(Hypergraph(n, edges), len(sizes), sizes)
    tag, cum, total, eids, _, _ = walk.expand(initial_comps(n))
    assert tag == "sample" and eids == list(range(len(edges)))
    denominator = math.comb(n, walk.sigma_lead)
    return [Fraction(b - a, denominator) for a, b in zip([0] + cum, cum)]


def test_alpha_size_examples():
    spanning = tuple(range(6))
    assert alphas(6, [(0, 1), spanning], (2, 2)) == [Fraction(2, 5), 0]
    assert alphas(6, [(0, 1), spanning], (1, 1)) == [Fraction(2, 3), 0]
    assert alphas(5, [(0, 1, 2)], (2, 2)) == [Fraction(1, 10)]


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
    assert kcut_walk(G, 4, (1, 1, 1, 1)).run(derive_rng(0, 0)) is INFEASIBLE


def test_triangle_floor():
    G = triangle()
    value, optima = oracle_kcut(G, 2, (1, 1))
    assert value == 2
    trials = 100000
    walk = kcut_walk(G, 2, (1, 1))
    hits = sum(1 for i in range(trials)
               if one_run(walk, derive_rng(1, i)) in optima)
    floor = float(success_floor_size(3, 2, (1, 1)))
    sigma = math.sqrt(floor * (1 - floor) / trials)
    assert hits / trials >= floor - 3 * sigma


def test_small_hypergraph_oracle_example():
    G = Hypergraph(3, [(0, 1, 2), (0, 1)], [(1,), (1,)], [(1,), (1,), (1,)])
    value, optima = oracle_kcut(G, 2, (1, 1))
    assert value == 1 and Cut.of([0]) in optima
    trials = 20000
    walk = kcut_walk(G, 2, (1, 1))
    hits = sum(1 for i in range(trials)
               if one_run(walk, derive_rng(2, i)) in optima)
    floor = float(success_floor_size(3, 2, (1, 1)))
    sigma = math.sqrt(floor * (1 - floor) / trials)
    assert hits / trials >= floor - 3 * sigma


def test_spanning_edges_zero_alpha_branch():
    # every edge spans all vertices: all alphas are zero at the first level
    G = Hypergraph(5, [(0, 1, 2, 3, 4), (0, 1, 2, 3, 4)], [(1,), (1,)],
                   [(1,)] * 5)
    walk = kcut_walk(G, 2, (1, 1))
    for i in range(40):
        out = one_run(walk, derive_rng(3, i))
        assert out == Cut.of([0, 1])  # both spanning edges cross any partition


def test_weight_obliviousness_byte_exact():
    base = gen_random_instance(7, 9, 4, 1, 1, max_weight=5, seed=40,
                               positive_weights=True)
    other_weights = [((w[0] * 3 + 1),) for w in base.vertex_weights]
    G1 = base
    G2 = Hypergraph(base.n, base.edges, base.edge_costs, other_weights)
    # the cut is weight-oblivious; the witnessed flag reads the weights
    walk1, walk2 = kcut_walk(G1, 2, (1, 2)), kcut_walk(G2, 2, (1, 2))
    for i in range(100):
        a = walk1.run(derive_rng(4, i))[0]
        b = walk2.run(derive_rng(4, i))[0]
        assert a == b


def test_output_is_partition_cut_or_full_edge_set():
    # every output is delta of SOME label assignment (the alive edge set of a
    # contracted level equals delta of its supervertex partition), or the
    # full edge set
    G = gen_random_instance(6, 7, 3, 1, 1, max_weight=3, seed=41,
                            positive_weights=True)
    possible = set()
    for labels in product(range(G.n), repeat=G.n):
        possible.add(delta_partition(G, labels))
    possible.add(Cut.of(range(G.m)))
    walk = kcut_walk(G, 2, (1, 1))
    for i in range(300):
        out = one_run(walk, derive_rng(5, i))
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


def test_deterministic_replay():
    G = gen_random_instance(7, 9, 4, 1, 1, max_weight=4, seed=43,
                            positive_weights=True)
    walk = kcut_walk(G, 2, (1, 2))  # one cached walk against fresh ones
    a = [one_run(walk, derive_rng(6, i)) for i in range(40)]
    b = [one_run(kcut_walk(G, 2, (1, 2)), derive_rng(6, i))
         for i in range(40)]
    assert a == b
