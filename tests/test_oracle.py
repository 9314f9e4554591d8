import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercuts._engine import delta_mask, ids_mask
from hypercuts.analysis import gen_random_instance
from hypercuts.hypergraph import Cut, Hypergraph, InstanceError, INFEASIBLE
from hypercuts.oracle import (build_catalog, dominates, is_cut,
                              oracle_bmulti, oracle_kcut, oracle_min_cut,
                              oracle_multiobjective, oracle_nb_bmulti,
                              oracle_parametric_t2, oracle_pareto)
from instances import (gen_multiobjective_not_pareto_instance,
                       gen_pareto_not_parametric_instance)


def triangle(costs=None):
    return Hypergraph(3, [(0, 1), (1, 2), (0, 2)],
                      costs or [(1,), (1,), (1,)])


def path4():
    # each single edge of a path is a cut, so cut cost vectors can be dialed in
    edges = [(0, 1), (1, 2), (2, 3), (3, 4)]
    costs = [(1, 5), (2, 2), (3, 1), (2, 3)]
    return Hypergraph(5, edges, costs)


def test_catalog_counts():
    cat = build_catalog(triangle())
    assert len(cat) == 3
    assert all(len(cut) == 2 for cut in cat.costs)
    sp = Hypergraph(4, [(0, 1, 2, 3)], [(1,)])
    assert len(build_catalog(sp)) == 1
    two = Hypergraph(2, [(0, 1)], [(1,)])
    assert len(build_catalog(two)) == 1


def test_catalog_guard():
    G = Hypergraph(21, [(0, 1)], [(1,)])
    with pytest.raises(InstanceError):
        build_catalog(G)
    assert len(build_catalog(G, override_guard=True)) >= 1


def test_dominates():
    assert dominates((3, 4), (3, 5))
    assert not dominates((1, 5), (2, 2))
    assert not dominates((2, 2), (2, 2))
    with pytest.raises(InstanceError):
        dominates((1,), (1, 2))


def test_pareto_multi_on_known_vectors():
    G = path4()
    cat = build_catalog(G)
    by_cost = {cat.costs[c]: c for c in cat.costs}
    a, b, c, d = (by_cost[(1, 5)], by_cost[(2, 2)],
                  by_cost[(3, 1)], by_cost[(2, 3)])
    pareto = oracle_pareto(cat)
    multi = oracle_multiobjective(cat)
    assert {a, b, c} <= pareto and d not in pareto
    assert {a, b, c} <= multi and d not in multi


def test_t1_pareto_equals_min_cut_set():
    G = gen_random_instance(6, 9, 3, 1, 0, seed=2)
    cat = build_catalog(G)
    value, cuts = oracle_min_cut(cat)
    assert oracle_pareto(cat) == cuts == oracle_multiobjective(cat)


def test_bmulti_budget_semantics():
    cat = build_catalog(path4())
    # budget 2 on criterion 1: feasible vectors (1,5),(2,2),(2,3) -> min c2 = 2
    best = oracle_bmulti(cat, (2,))
    assert {cat.costs[c] for c in best} == {(2, 2)}
    assert oracle_bmulti(cat, (0,)) == set()
    with pytest.raises(InstanceError):
        oracle_bmulti(cat, (1, 2))


def test_bmulti_with_cut_costs_as_budgets_iff_multiobjective():
    for seed in range(6):
        G = gen_random_instance(6, 8, 2, 2, 0, seed=seed)
        cat = build_catalog(G)
        multi = oracle_multiobjective(cat)
        for cut in cat.costs:
            budgets = cat.costs[cut][:-1]
            members = oracle_bmulti(cat, budgets)
            assert (cut in members) == (cut in multi)


def test_parametric_requires_t2():
    with pytest.raises(InstanceError):
        oracle_parametric_t2(build_catalog(triangle()))


def test_parametric_witness_instance():
    G = gen_pareto_not_parametric_instance()
    cat = build_catalog(G)
    parametric = oracle_parametric_t2(cat)
    pareto = oracle_pareto(cat)
    vec = {cat.costs[c] for c in parametric}
    assert vec == {(1, 4), (4, 1)}
    assert parametric < pareto


def test_parametric_sweep_matches_dense_grid():
    for seed in range(8):
        G = gen_random_instance(5, 7, 2, 2, 0, seed=seed)
        cat = build_catalog(G)
        swept = oracle_parametric_t2(cat)
        grid = set()
        items = list(cat.costs.items())
        for num in range(1, 400):
            lam = Fraction(num, 400)
            vals = [lam * c1 + (1 - lam) * c2 for _, (c1, c2) in items]
            best = min(vals)
            for (cut, _), v in zip(items, vals):
                if v == best:
                    grid.add(cut)
        assert grid <= swept  # grid can only miss tangency points


def test_containments_on_random_instances():
    strict_pp = strict_pm = False
    instances = [gen_random_instance(6, 8, 3, 2, 0, seed=s) for s in range(10)]
    instances += [gen_pareto_not_parametric_instance(),
                  gen_multiobjective_not_pareto_instance()]
    for G in instances:
        cat = build_catalog(G)
        parametric = oracle_parametric_t2(cat)
        pareto = oracle_pareto(cat)
        multi = oracle_multiobjective(cat)
        assert parametric <= pareto <= multi
        strict_pp |= parametric < pareto
        strict_pm |= pareto < multi
    assert strict_pp and strict_pm


def test_scale_invariance():
    G = gen_random_instance(6, 8, 3, 2, 0, seed=4)
    scaled = Hypergraph(G.n, G.edges, [tuple(7 * c for c in row)
                                       for row in G.edge_costs])
    cat, cat7 = build_catalog(G), build_catalog(scaled)
    assert oracle_pareto(cat) == oracle_pareto(cat7)
    assert oracle_multiobjective(cat) == oracle_multiobjective(cat7)
    assert oracle_parametric_t2(cat) == oracle_parametric_t2(cat7)


def test_nb_bmulti_examples():
    # all weights within budgets: reduces to plain min-cut
    G = gen_random_instance(6, 8, 3, 1, 1, max_weight=3, seed=5)
    value, cuts = oracle_nb_bmulti(G, (100,))
    assert (value, cuts) == oracle_min_cut(build_catalog(G))
    # star with one heavy leaf
    star = Hypergraph(4, [(0, 1), (0, 2), (0, 3)], [(1,), (1,), (1,)],
                      [(1,), (1,), (1,), (5,)])
    value, cuts = oracle_nb_bmulti(star, (3,))
    assert value == 1
    assert all(len(c) == 1 for c in cuts)
    # delta(X) = delta(complement): heavy side excluded but complement works
    assert Cut.of([2]) in cuts  # witness side {3} infeasible, {0,1,2} feasible? no:
    # {0,1,2} weighs 3 <= 3, so the cut isolating vertex 3 is feasible via complement


def test_nb_bmulti_infeasible():
    G = Hypergraph(2, [(0, 1)], [(1,)], [(9,), (9,)])
    assert oracle_nb_bmulti(G, (3,)) is INFEASIBLE


def test_kcut_examples():
    tri = triangle()
    assert oracle_kcut(tri, 2, (1, 1))[0] == 2
    H = Hypergraph(3, [(0, 1, 2), (0, 1)], [(1,), (1,)])
    value, cuts = oracle_kcut(H, 2, (1, 2))
    assert value == 1 and Cut.of([0]) in cuts
    # k = n with unit sizes: every edge crosses
    assert oracle_kcut(tri, 3, (1, 1, 1))[0] == tri.m


def test_kcut_matches_min_cut_for_k2_unit():
    for seed in range(5):
        base = gen_random_instance(6, 8, 3, 0, 1, max_weight=3, seed=seed,
                                   positive_weights=True)
        G = Hypergraph(base.n, base.edges, [(1,)] * base.m,
                       base.vertex_weights)
        value, cuts = oracle_kcut(G, 2, (1, 1))
        mc_value, mc_cuts = oracle_min_cut(build_catalog(G))
        assert value == mc_value
        assert cuts == mc_cuts
        # weighted objective against the same costs agrees too
        Gw = gen_random_instance(6, 8, 3, 1, 1, max_weight=3, seed=seed,
                                 positive_weights=True)
        wv, wcuts = oracle_kcut(Gw, 2, (1, 1), weighted_costs=True)
        mv, mcuts = oracle_min_cut(build_catalog(Gw))
        assert wv == mv and wcuts == mcuts


def test_kcut_rejects_zero_weights_and_guards():
    G = Hypergraph(3, [(0, 1), (1, 2)], [(1,), (1,)], [(0,), (1,), (1,)])
    with pytest.raises(InstanceError):
        oracle_kcut(G, 2, (1, 1))
    big = Hypergraph(13, [(0, 1)], [(1,)])
    with pytest.raises(InstanceError):
        oracle_kcut(big, 2, (1, 1))


def test_kcut_infeasible():
    G = Hypergraph(3, [(0, 1), (1, 2)], [(1,), (1,)])
    assert oracle_kcut(G, 4, (1, 1, 1, 1)) is INFEASIBLE
    # total weight below sigma_k
    G2 = Hypergraph(3, [(0, 1), (1, 2)], [(1,), (1,)], [(1,), (1,), (1,)])
    assert oracle_kcut(G2, 2, (2, 2)) is INFEASIBLE


def test_kcut_permutation_matching_is_permissive():
    # weights force the small part to take the larger bound
    G = Hypergraph(4, [(0, 1), (1, 2), (2, 3)], [(1,), (1,), (1,)],
                   [(5,), (1,), (1,), (1,)])
    value, cuts = oracle_kcut(G, 2, (3, 4))
    # partition ({0}, {1,2,3}) has weights (5, 3): matching 5>=4 & 3>=3 works
    assert value == 1


def test_empty_edge_set_instance():
    G = Hypergraph(4, [], t_costs=2, t_weights=0)
    cat = build_catalog(G)
    assert list(cat.costs) == [Cut.of([])]
    assert oracle_pareto(cat) == {Cut.of([])}


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_is_cut_matches_catalog_membership(data):
    n = data.draw(st.integers(1, 7))
    edge = st.lists(st.integers(0, n - 1), min_size=2, max_size=4, unique=True)
    G = Hypergraph(n, data.draw(st.lists(edge, max_size=8)) if n > 1 else [])
    # a real cut with some of its edges flipped in or out, often none
    side = data.draw(st.integers(0, G.full_mask))
    flips = data.draw(st.sets(st.integers(0, G.m - 1)) if G.m else st.just(()))
    cut = Cut.from_mask(delta_mask(G.edge_masks, side, G.full_mask)
                        ^ ids_mask(flips))
    assert is_cut(G, cut) == (cut in build_catalog(G).costs)
