import math
from fractions import Fraction

import pytest

from hypercuts.analysis import gen_lower_bound_instance, gen_random_instance
from hypercuts._engine import contract_comps, initial_comps, present_edge_ids
from hypercuts.hypergraph import Cut, Hypergraph, InstanceError
from hypercuts.multiobjective import (_classes, _EnumContext,
                                      _prune_final_criterion, bmulti_walk,
                                      default_enum_repetitions,
                                      enum_repetition_count,
                                      enumerate_multiobjective,
                                      enumerate_pareto,
                                      interleaving_schedules,
                                      success_floor_edge,
                                      verify_pareto_optimality)
from hypercuts.oracle import (build_catalog, is_cut, oracle_bmulti,
                              oracle_min_cut, oracle_multiobjective,
                              oracle_pareto)
from hypercuts.sampling import derive_rng


def infeasible_classes(G, comps, budgets):
    """The per-criterion classes of ``comps`` as the budgeted walk sees them."""
    return _classes(G.edge_masks, comps, present_edge_ids(G.edge_masks, comps),
                    G.costs_by_criterion(), budgets)


def one_run(walk, rng):
    """The cut of one run of ``walk``."""
    return Cut.from_mask(walk.run(rng)[0])


def enum_once(G, rng):
    """The cuts of one enumeration repetition, unpruned."""
    masks = set()
    _EnumContext(G, G.costs_by_criterion()).run(rng, masks)
    return {Cut.from_mask(m) for m in masks}


def test_infeasible_classes_path_example():
    G = Hypergraph(3, [(0, 1), (1, 2)], [(3, 1), (1, 1)])
    u1, u2 = infeasible_classes(G, initial_comps(3), (3,))
    assert u1 == [0b010]  # c1(delta(b)) = 4 > 3
    assert u2 == [0b001, 0b100]


def test_infeasible_classes_on_contracted_state():
    # after contracting, classes are computed over supervertices with the
    # contracted vertex-cut costs
    G = Hypergraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)],
                   [(3, 1), (1, 1), (3, 1), (1, 1)])
    # edge 0 dies; the merged component sees edges 1 and 3
    comps = contract_comps(initial_comps(4), G.edge_masks[0])
    u1, u2 = infeasible_classes(G, comps, (3,))
    assert u1 == [0b0100, 0b1000]  # both residual-cycle vertices see c1-cost 4 > 3
    assert u2 == [0b0011]          # the merged component sees edges 1,3: c1-cost 2


def test_infeasible_classes_large_budget_and_t1():
    G = Hypergraph(3, [(0, 1), (1, 2)], [(3, 1), (1, 1)])
    comps = initial_comps(3)
    u1, u2 = infeasible_classes(G, comps, (100,))
    assert u1 == [] and u2 == list(comps)
    G1 = Hypergraph(3, [(0, 1), (1, 2)], [(3,), (1,)])
    (only,) = infeasible_classes(G1, comps, ())
    assert only == list(comps)


def test_two_vertex_base_case_frequency():
    G = Hypergraph(2, [(0, 1)], [(1,)])
    walk = bmulti_walk(G, ())
    hits = sum(1 for i in range(1000)
               if one_run(walk, derive_rng(0, i)).edge_ids == (0,))
    assert hits / 1000 >= 0.45
    # any nonempty output is the unique cut
    for i in range(50):
        out = one_run(walk, derive_rng(1, i))
        assert out.edge_ids in ((), (0,))


def test_success_floor_edge_values():
    assert success_floor_edge(5, 2, 1) == Fraction(1, 40)
    assert success_floor_edge(4, 2, 2) == Fraction(1, 16)
    # n = rt sits on the base-case branch of the bound
    assert success_floor_edge(6, 3, 2) == Fraction(1, 64)
    assert success_floor_edge(7, 3, 2) == \
        Fraction(5, 2 ** 6 * 7) / math.comb(5, 4)
    with pytest.raises(InstanceError):
        success_floor_edge(3, 1, 1)


def test_budget_validation():
    G = Hypergraph(2, [(0, 1)], [(1, 2)])
    with pytest.raises(InstanceError):
        bmulti_walk(G, ())
    with pytest.raises(InstanceError):
        bmulti_walk(G, (1, 2))


def test_bmulti_floor_on_lower_bound_instance():
    G = gen_lower_bound_instance(6, 2)
    cat = build_catalog(G)
    optima = oracle_bmulti(cat, (4,))
    floor = success_floor_edge(G.n, G.rank, 2)
    trials = 4000
    walk = bmulti_walk(G, (4,))
    hits = sum(1 for i in range(trials)
               if one_run(walk, derive_rng(3, i)) in optima)
    freq = hits / trials
    sigma = math.sqrt(float(floor) * (1 - float(floor)) / trials)
    assert freq >= float(floor) - 3 * sigma


def test_bmulti_deterministic_replay():
    G = gen_random_instance(6, 9, 3, 2, 0, seed=8)
    walk = bmulti_walk(G, (5,))  # one cached walk against fresh ones
    a = [one_run(walk, derive_rng(4, i)) for i in range(30)]
    b = [one_run(bmulti_walk(G, (5,)), derive_rng(4, i)) for i in range(30)]
    assert a == b


def test_interleaving_schedules():
    assert interleaving_schedules(5, 2, 2) == [(4, 4), (5, 4)]
    assert interleaving_schedules(5, 2, 1) == [(2,)]
    assert interleaving_schedules(4, 2, 2) == []  # base case territory
    scheds = interleaving_schedules(8, 2, 3)
    assert all(s[0] >= s[1] >= s[2] == 6 for s in scheds)
    assert len(scheds) <= 8 ** 2


def test_enum_output_bound_and_membership():
    G = gen_random_instance(5, 8, 2, 2, 0, seed=3)
    cat = build_catalog(G)
    universe = set(cat.costs)
    for i in range(60):
        out = enum_once(G, derive_rng(5, i))
        assert len(out) <= G.n ** (2 - 1)
        assert out <= universe


def test_enum_t1_single_schedule():
    G = gen_random_instance(5, 6, 2, 1, 0, seed=4)
    out = enum_once(G, derive_rng(6, 0))
    assert len(out) <= 1


def test_enum_base_case_small_graph():
    G = Hypergraph(3, [(0, 1), (1, 2)], [(1, 1), (1, 1)])  # n=3 < rt=4
    outs = set()
    for i in range(60):
        outs |= enum_once(G, derive_rng(7, i))
    assert outs <= set(build_catalog(G).costs)


def test_prune_rule_example():
    # vectors A=(1,5) B=(2,2) C=(3,1) D=(2,3): D pruned by B
    G = Hypergraph(5, [(0, 1), (1, 2), (2, 3), (3, 4)],
                   [(1, 5), (2, 2), (3, 1), (2, 3)])
    costs = G.costs_by_criterion()
    masks = {0b0001, 0b0010, 0b0100, 0b1000}
    kept = _prune_final_criterion(masks, G, costs)
    assert kept == {0b0001, 0b0010, 0b0100}
    # idempotent
    assert _prune_final_criterion(kept, G, costs) == kept
    # singleton collection unchanged
    assert _prune_final_criterion({0b1000}, G, costs) == {0b1000}


def test_enumerate_multiobjective_matches_oracle():
    G = gen_random_instance(6, 10, 2, 2, 0, seed=16)
    cat = build_catalog(G)
    out = enumerate_multiobjective(G, derive_rng(8, 0), repetitions=4000)
    assert out == oracle_multiobjective(cat)


def test_verify_true_for_oracle_pareto_false_for_dominated():
    G = gen_random_instance(6, 10, 2, 2, 0, seed=16)
    cat = build_catalog(G)
    pareto = oracle_pareto(cat)
    rng = derive_rng(9, 0)
    for cut in sorted(pareto, key=lambda c: c.edge_ids):
        assert verify_pareto_optimality(G, cut, rng, repetitions_per_criterion=50)
    dominated = [c for c in cat.costs if c not in pareto]
    found_false = 0
    for cut in sorted(dominated, key=lambda c: c.edge_ids):
        if not verify_pareto_optimality(G, cut, rng,
                                        repetitions_per_criterion=3000):
            found_false += 1
    assert found_false >= 0.95 * len(dominated)


@pytest.mark.parametrize("reps", [0, -5])
def test_verify_rejects_fewer_than_one_repetition(reps):
    # (3, 4, 6, 9) has costs (13, 10) and is dominated: searching nothing
    # must not certify it
    G = gen_random_instance(6, 10, 2, 2, 0, seed=16)
    cut = Cut.of((3, 4, 6, 9))
    assert is_cut(G, cut)
    with pytest.raises(InstanceError):
        verify_pareto_optimality(G, cut, derive_rng(0, 0), reps)
    with pytest.raises(InstanceError):
        enumerate_pareto(G, derive_rng(0, 0), repetitions=10,
                         verify_repetitions=reps)


def test_verify_t1_semantics():
    G = gen_random_instance(6, 9, 2, 1, 0, seed=21)
    cat = build_catalog(G)
    value, mins = oracle_min_cut(cat)
    rng = derive_rng(10, 0)
    for cut in sorted(mins, key=lambda c: c.edge_ids):
        assert verify_pareto_optimality(G, cut, rng, 50)
    non_min = sorted((c for c in cat.costs if c not in mins),
                     key=lambda c: c.edge_ids)[:5]
    for cut in non_min:
        assert not verify_pareto_optimality(G, cut, rng, 3000)


def test_enumerate_pareto_subset_and_oracle_match():
    G = gen_random_instance(6, 10, 2, 2, 0, seed=16)
    cat = build_catalog(G)
    rng = derive_rng(11, 0)
    multi = enumerate_multiobjective(G, rng, repetitions=4000)
    rng2 = derive_rng(11, 0)
    pareto = enumerate_pareto(G, rng2, repetitions=4000,
                              verify_repetitions=3000)
    assert pareto <= oracle_multiobjective(cat)
    assert pareto == oracle_pareto(cat)


def test_default_repetitions_formula():
    assert default_enum_repetitions(6, 2, 2) == math.ceil(
        4 * 2 * 16 * 6 ** 4 * math.log(6))


def test_enum_repetition_count_defaults_and_validates():
    G = gen_random_instance(6, 10, 2, 2, 0, seed=16)
    assert enum_repetition_count(G, None) == default_enum_repetitions(6, 2, 2)
    assert enum_repetition_count(G, 7) == 7
    for bad in (0, -3, 1.5, True, "10"):
        with pytest.raises(InstanceError):
            enum_repetition_count(G, bad)


def test_enum_deterministic_replay():
    G = gen_random_instance(6, 10, 2, 2, 0, seed=16)
    a = enumerate_multiobjective(G, derive_rng(12, 0), repetitions=500)
    b = enumerate_multiobjective(G, derive_rng(12, 0), repetitions=500)
    assert a == b
