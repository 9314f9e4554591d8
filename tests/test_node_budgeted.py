import math
import random
from fractions import Fraction

import pytest

from hypercuts._engine import initial_comps, mask_sum, merge_comp_subset
from hypercuts.analysis import gen_random_instance
from hypercuts.hypergraph import Cut, Hypergraph, InstanceError, INFEASIBLE
from hypercuts.node_budgeted import (hmincut_walk, nb_arbitrary_walk,
                                     nb_constant_walk,
                                     nb_multi_enum_constant_rank,
                                     success_floor_node,
                                     success_floor_node_arbitrary)
from hypercuts.oracle import (build_catalog, oracle_min_cut, oracle_nb_bmulti)
from hypercuts.sampling import derive_rng


def contract_infeasible(G, comps, budgets):
    """``comps`` after the constant-rank walk's merge of its budget-violating
    components, or ``comps`` itself when the walk does not merge there."""
    node = nb_constant_walk(G, budgets).expand(comps)
    return node[1] if node[0] == "merge" else comps


def one_run(walk, rng):
    """The cut of one run of ``walk``, or INFEASIBLE."""
    out = walk.run(rng)
    return INFEASIBLE if out is INFEASIBLE else Cut.from_mask(out[0])


def test_contract_infeasible_examples():
    G = Hypergraph(3, [(0, 1), (1, 2)], [(1,), (1,)], [(5,), (1,), (7,)])
    comps = initial_comps(3)
    merged = contract_infeasible(G, comps, (4,))
    assert merged == (0b101, 0b010)
    assert mask_sum([5, 1, 7], merged[0]) == 12
    # all feasible: identity
    assert contract_infeasible(G, comps, (10,)) == comps
    # exactly one infeasible: identity
    assert contract_infeasible(G, comps, (6,)) == comps


def test_contract_infeasible_leaves_at_most_one():
    for seed in range(8):
        G = gen_random_instance(7, 8, 3, 1, 2, max_weight=9, seed=seed)
        wcols = [[w[i] for w in G.vertex_weights] for i in range(2)]
        budgets = (4, 5)
        comps = contract_infeasible(G, initial_comps(G.n), budgets)
        bad = sum(1 for c in comps
                  if any(mask_sum(wcols[i], c) > budgets[i] for i in range(2)))
        assert bad <= 1


def test_success_floors():
    assert success_floor_node(6, 3) == Fraction(1, 240)
    assert success_floor_node_arbitrary(2) == 1
    assert success_floor_node_arbitrary(3) == Fraction(1, 3)
    assert success_floor_node_arbitrary(6) == Fraction(1, 30)
    with pytest.raises(InstanceError):
        success_floor_node(1, 2)
    with pytest.raises(InstanceError):
        success_floor_node_arbitrary(1)


def test_hmincut_contraction_weights():
    # 4 live vertices, a 2-vertex edge of cost 3 weighs (4-2)*3 over the
    # common denominator 4, i.e. beta = 3/2
    G = Hypergraph(4, [(0, 1), (0, 1, 2, 3)], [(3,), (5,)])
    node = hmincut_walk(G).expand(initial_comps(4))
    tag, cum, total, eids, _ = node
    assert tag == "sample"
    assert eids == [0, 1]
    assert cum == [6, 6] and total == 6  # spanning edge has weight zero
    assert Fraction(6, 4) == Fraction(3, 2)


def test_hmincut_spanning_edge_immediate():
    G = Hypergraph(5, [(0, 1, 2, 3, 4)], [(3,)])
    walk = hmincut_walk(G)
    for i in range(10):
        assert one_run(walk, derive_rng(0, i)).edge_ids == (0,)


def test_hmincut_triangle_floor():
    G = Hypergraph(3, [(0, 1), (1, 2), (0, 2)], [(1,), (1,), (1,)])
    cat = build_catalog(G)
    value, mins = oracle_min_cut(cat)
    assert value == 2
    trials = 3000
    walk = hmincut_walk(G)
    hits = sum(1 for i in range(trials)
               if one_run(walk, derive_rng(1, i)) in mins)
    floor = 1 / math.comb(3, 2)
    sigma = math.sqrt(floor * (1 - floor) / trials)
    assert hits / trials >= floor - 3 * sigma


def test_hmincut_disconnected_returns_empty():
    G = Hypergraph(4, [(0, 1), (2, 3)], [(1,), (1,)])
    walk = hmincut_walk(G)
    outs = {one_run(walk, derive_rng(2, i)) for i in range(20)}
    assert Cut.of([]) in outs  # empty cut separates the components


def test_nb_constant_two_vertex_base():
    G = Hypergraph(2, [(0, 1)], [(1,)], [(1,), (1,)])
    walk = nb_constant_walk(G, (5,))
    hits = sum(1 for i in range(1000)
               if one_run(walk, derive_rng(3, i)).edge_ids == (0,))
    assert hits / 1000 >= 0.45


def test_nb_constant_floor_small():
    G = gen_random_instance(6, 9, 3, 1, 1, max_weight=8, seed=12)
    weights = sorted(w[0] for w in G.vertex_weights)
    budgets = (weights[3],)
    result = oracle_nb_bmulti(G, budgets)
    assert result is not INFEASIBLE
    _, optima = result
    trials = 4000
    walk = nb_constant_walk(G, budgets)
    hits = sum(1 for i in range(trials)
               if one_run(walk, derive_rng(4, i)) in optima)
    floor = float(success_floor_node(G.n, G.rank))
    sigma = math.sqrt(floor * (1 - floor) / trials)
    assert hits / trials >= floor - 3 * sigma


def test_nb_constant_heavy_vertex_success_counts_only_feasible_cuts():
    # one vertex busts the budget on both sides of its singleton cut, so the
    # oracle optimum excludes delta({heavy}); hits still clear the floor
    G = Hypergraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 4)],
                   [(1,)] * 6, [(9,), (1,), (1,), (1,), (1,)])
    budgets = (3,)
    result = oracle_nb_bmulti(G, budgets)
    assert result is not INFEASIBLE
    _, optima = result
    heavy_cut = Cut.of([0, 4])  # delta({0})
    assert heavy_cut not in optima
    trials = 2000
    walk = nb_constant_walk(G, budgets)
    hits = 0
    for i in range(trials):
        out = one_run(walk, derive_rng(5, i))
        hits += out in optima
    floor = float(success_floor_node(G.n, G.rank))
    sigma = math.sqrt(floor * (1 - floor) / trials)
    assert hits / trials >= floor - 3 * sigma


def test_nb_arbitrary_all_infeasible():
    G = Hypergraph(3, [(0, 1), (1, 2)], [(1,), (1,)], [(9,), (9,), (9,)])
    assert nb_arbitrary_walk(G, (3,)).run(derive_rng(6, 0)) is INFEASIBLE


def test_nb_arbitrary_alpha_weights():
    # |U| = 4 feasible vertices (U itself busts the budget), edge meeting U
    # once with c = 2 -> weight 3*2 over the common denominator 4
    G = Hypergraph(5, [(0, 1), (1, 2)], [(2,), (4,)],
                   [(9,), (2,), (2,), (2,), (2,)])
    walk = nb_arbitrary_walk(G, (5,))
    node = walk.expand(initial_comps(5))
    tag, cum, total, eids, _ = node
    assert tag == "sample"
    # edge (0,1): feasible outside = 4 - 1 = 3 -> 3*2 = 6
    # edge (1,2): feasible outside = 4 - 2 = 2 -> 2*4 = 8
    assert eids == [0, 1]
    assert cum == [6, 14] and total == 14


def test_nb_arbitrary_floor_small():
    G = gen_random_instance(6, 9, 5, 1, 1, max_weight=8, seed=13)
    assert G.rank >= 4
    weights = sorted(w[0] for w in G.vertex_weights)
    budgets = (weights[3],)
    result = oracle_nb_bmulti(G, budgets)
    _, optima = result
    trials = 2000
    walk = nb_arbitrary_walk(G, budgets)
    hits = sum(1 for i in range(trials)
               if one_run(walk, derive_rng(7, i)) in optima)
    floor = float(success_floor_node_arbitrary(G.n))
    sigma = math.sqrt(floor * (1 - floor) / trials)
    assert hits / trials >= floor - 3 * sigma


def test_nb_arbitrary_alpha_sum_claim():
    # sum over e of alpha_e <= c(E \ F) for any node-budgeted optimum F
    for seed in range(6):
        G = gen_random_instance(6, 8, 4, 1, 1, max_weight=8, seed=seed)
        weights = sorted(w[0] for w in G.vertex_weights)
        budgets = (weights[3],)
        result = oracle_nb_bmulti(G, budgets)
        if result is INFEASIBLE:
            continue
        best, optima = result
        cost = [c[0] for c in G.edge_costs]
        node = nb_arbitrary_walk(G, budgets).expand(initial_comps(G.n))
        if node[0] != "sample":
            continue
        _, cum, total, _, _ = node
        n_feas = sum(1 for v in range(G.n) if G.vertex_weights[v][0] <= budgets[0])
        alpha_sum = Fraction(total, n_feas)
        c_total = sum(cost)
        for F in optima:
            c_f = sum(cost[e] for e in F.edge_ids)
            assert alpha_sum <= c_total - c_f


def test_nb_enum_outputs_are_cuts_and_bounded():
    for seed in range(5):
        G = gen_random_instance(6, 8, 3, 1, 2, max_weight=6, seed=seed)
        cat = build_catalog(G)
        universe = set(cat.costs)
        out = nb_multi_enum_constant_rank(G, derive_rng(8, seed))
        assert out <= universe
        assert len(out) <= G.rank * G.n ** G.t_weights


def test_nb_enum_no_weight_functions():
    G = gen_random_instance(6, 8, 3, 1, 0, seed=3)
    out = nb_multi_enum_constant_rank(G, derive_rng(9, 0))
    assert len(out) <= G.rank * G.n


def test_nb_enum_catches_budget_optima_often():
    # any fixed node-budgeted optimum appears with decent frequency
    G = gen_random_instance(6, 9, 3, 1, 1, max_weight=8, seed=12)
    weights = sorted(w[0] for w in G.vertex_weights)
    budgets = (weights[3],)
    _, optima = oracle_nb_bmulti(G, budgets)
    target = next(iter(sorted(optima, key=lambda c: c.edge_ids)))
    runs = 600
    hits = sum(1 for i in range(runs)
               if target in nb_multi_enum_constant_rank(G, derive_rng(10, i)))
    floor = float(Fraction(1, 2 ** G.rank) / math.comb(G.n, 2))
    sigma = math.sqrt(floor * (1 - floor) / runs)
    assert hits / runs >= floor - 3 * sigma


def test_nb_enum_threshold_monotonicity():
    # fixing everything but the last threshold yields at most rank distinct
    # merged vertex sets of size in [2, rank+1]
    for seed in range(5):
        G = gen_random_instance(7, 8, 3, 1, 2, max_weight=7, seed=seed)
        wcols = [[w[i] for w in G.vertex_weights] for i in range(2)]
        comps = initial_comps(G.n)
        values0 = sorted({mask_sum(wcols[0], c) for c in comps})
        values1 = sorted({mask_sum(wcols[1], c) for c in comps})
        for x0 in values0:
            merged_seen = set()
            for x1 in values1:
                victim = 0
                for c in comps:
                    if mask_sum(wcols[0], c) > x0 or mask_sum(wcols[1], c) > x1:
                        victim |= c
                merged = merge_comp_subset(comps, victim)
                if 1 < len(merged) < G.rank + 2:
                    merged_seen.add(merged)
            assert len(merged_seen) <= G.rank


def test_nb_deterministic_replay():
    G = gen_random_instance(6, 9, 4, 1, 1, max_weight=8, seed=19)
    budgets = (5,)
    walk = nb_arbitrary_walk(G, budgets)  # one cached walk against fresh ones
    a = [one_run(walk, derive_rng(11, i)) for i in range(25)]
    b = [one_run(nb_arbitrary_walk(G, budgets), derive_rng(11, i))
         for i in range(25)]
    assert a == b
