import random
from fractions import Fraction
from itertools import product

import pytest

from hypercuts.analysis import (LpInstance, gen_lower_bound_instance,
                                gen_random_instance, lp_bruteforce,
                                lp_closed_form, ratio_inequality_check)
from hypercuts.hypergraph import Cut, InstanceError
from hypercuts.oracle import (build_catalog, oracle_bmulti,
                              oracle_multiobjective, oracle_pareto)
from instances import (gen_multiobjective_not_pareto_instance,
                       gen_pareto_not_parametric_instance)


def test_lp_closed_form_examples():
    inst = LpInstance(r=3, gamma=4, n=10, f={9: 1, 8: 1})
    assert lp_closed_form(inst) == Fraction(1, 4)
    # r=2 degenerates to the single j=2 term
    inst2 = LpInstance(r=2, gamma=8, n=10, f={9: Fraction(3, 2)})
    assert lp_closed_form(inst2) == (1 - Fraction(2, 8)) * Fraction(3, 2)
    # minimum taken across both candidate families
    inst3 = LpInstance(r=3, gamma=5, n=10, f={9: 2, 8: 1})
    assert lp_closed_form(inst3) == Fraction(2, 5)


def test_lp_bruteforce_equals_closed_form_on_examples():
    for inst in (LpInstance(r=3, gamma=4, n=10, f={9: 1, 8: 1}),
                 LpInstance(r=2, gamma=8, n=10, f={9: Fraction(3, 2)}),
                 LpInstance(r=3, gamma=5, n=10, f={9: 2, 8: 1})):
        assert lp_bruteforce(inst) == lp_closed_form(inst)


def test_lp_instance_validation():
    with pytest.raises(InstanceError):
        LpInstance(r=3, gamma=3, n=10, f={9: 1, 8: 1})  # gamma < r+1
    with pytest.raises(InstanceError):
        LpInstance(r=3, gamma=4, n=3, f={2: 1, 1: 1})  # n < gamma
    with pytest.raises(InstanceError):
        LpInstance(r=3, gamma=4, n=10, f={9: 1})  # missing f value
    with pytest.raises(InstanceError):
        LpInstance(r=3, gamma=4, n=10, f={9: 1, 8: 0})  # not positive
    with pytest.raises(InstanceError):
        LpInstance(r=1, gamma=4, n=10, f={})  # r+1 > 2 violated


@pytest.mark.parametrize("kwargs", [
    {"r": 3.0, "gamma": 4, "n": 10, "f": {9: 1, 8: 1}},
    {"r": 3, "gamma": 4.0, "n": 10, "f": {9: 1, 8: 1}},
    {"r": 3, "gamma": 4, "n": 10.0, "f": {9: 1, 8: 1}},
    {"r": 3, "gamma": 4, "n": "10", "f": {9: 1, 8: 1}},
    {"r": 3, "gamma": True, "n": 10, "f": {9: 1, 8: 1}},
    {"r": 3, "gamma": 4, "n": True, "f": {9: 1, 8: 1}},
    {"r": 3, "gamma": 4, "n": 10, "f": {9: 0.5, 8: 1}},
    {"r": 3, "gamma": 4, "n": 10, "f": {9: 1, 8: "2"}},
    {"r": 3, "gamma": 4, "n": 10, "f": {9: True, 8: 1}},
    {"r": 2, "gamma": 4, "n": 10, "f": {9: 1.0}},
])
def test_lp_instance_rejects_non_exact_values(kwargs):
    with pytest.raises(InstanceError):
        LpInstance(**kwargs)


@pytest.mark.parametrize("grid_step", [0, -1, 2.0, True, False, "4", Fraction(4)])
def test_lp_bruteforce_rejects_bad_grid_step(grid_step):
    inst = LpInstance(r=3, gamma=4, n=10, f={9: 1, 8: 1})
    with pytest.raises(InstanceError):
        lp_bruteforce(inst, grid_step=grid_step)


def test_lp_instance_table_is_read_only_and_hashable():
    table = {9: 1, 8: 1}
    inst = LpInstance(r=3, gamma=4, n=10, f=table)
    with pytest.raises(TypeError):
        inst.f[8] = -5
    table[8] = -5  # the caller's dict is not the stored table
    assert lp_closed_form(inst) == lp_bruteforce(inst) == Fraction(1, 4)
    twin = LpInstance(r=3, gamma=4, n=10, f={8: Fraction(1), 9: 1})
    assert twin == inst and hash(twin) == hash(inst)
    assert len({inst, twin, LpInstance(r=3, gamma=5, n=10, f={9: 1, 8: 1})}) == 2


def test_lp_bruteforce_accepts_the_smallest_grid_step():
    inst = LpInstance(r=3, gamma=5, n=10, f={9: 2, 8: 1})
    assert lp_bruteforce(inst, grid_step=1) == lp_closed_form(inst)


def test_lp_randomized_sweep():
    rng = random.Random(20)
    for _ in range(120):
        r = rng.randrange(2, 7)
        gamma = rng.randrange(r + 1, 13)
        n = gamma + rng.randrange(0, 6)
        f = {n - j + 1: Fraction(rng.randrange(1, 60), rng.randrange(1, 8))
             for j in range(2, r + 1)}
        inst = LpInstance(r=r, gamma=gamma, n=n, f=f)
        assert lp_closed_form(inst) == lp_bruteforce(inst)


def test_ratio_inequality_examples():
    assert ratio_inequality_check(10, 2, 2)
    assert ratio_inequality_check(9, 2, 1)
    with pytest.raises(InstanceError):
        ratio_inequality_check(5, 1, 1)
    with pytest.raises(InstanceError):
        ratio_inequality_check(6, 4, 2)  # n-e+1 = 3 <= 2*sigma


def test_ratio_inequality_small_sweep():
    for n in range(1, 16):
        for e in range(2, n + 1):
            sigma = 1
            while n - e + 1 > 2 * sigma:
                assert ratio_inequality_check(n, e, sigma)
                sigma += 1


def path_edge_groups(G, t):
    return [[e for e in range(G.m) if G.edge_costs[e][i] == t + 1]
            for i in range(t)]


def test_lower_bound_instance_structure():
    G = gen_lower_bound_instance(8, 2)
    assert G.n == 8 and G.rank == 2 and G.m == 8
    groups = path_edge_groups(G, 2)
    assert [len(g) for g in groups] == [4, 4]
    with pytest.raises(InstanceError):
        gen_lower_bound_instance(3, 2)


def test_lower_bound_uneven_split():
    G = gen_lower_bound_instance(9, 2)
    groups = path_edge_groups(G, 2)
    assert sorted(len(g) for g in groups) == [4, 5]
    assert G.n == 9


def test_lower_bound_pareto_counts():
    for n, t in ((6, 1), (8, 2), (7, 2), (9, 3), (12, 3)):
        G = gen_lower_bound_instance(n, t)
        cat = build_catalog(G)
        pareto = oracle_pareto(cat)
        groups = path_edge_groups(G, t)
        combos = {Cut.of(sel) for sel in product(*groups)}
        expect = 1
        for g in groups:
            expect *= len(g)
        assert len(combos) == expect
        assert expect >= ((n - 2) / t) ** t
        assert combos <= pareto
        scaled = tuple(2 * t for _ in range(t))
        assert all(cat.costs[c] == scaled for c in combos)


def test_lower_bound_bmulti_count():
    # budgets at the one-edge-per-path cost make all those cuts optimal
    G = gen_lower_bound_instance(8, 2)
    cat = build_catalog(G)
    best = oracle_bmulti(cat, (4,))
    groups = path_edge_groups(G, 2)
    combos = {Cut.of(sel) for sel in product(*groups)}
    assert combos <= best
    assert len(best) >= ((8 - 2) / 2) ** 2


def test_gen_random_determinism_and_shape():
    a = gen_random_instance(7, 9, 3, 2, 1, seed=33)
    b = gen_random_instance(7, 9, 3, 2, 1, seed=33)
    assert a.edges == b.edges and a.edge_costs == b.edge_costs
    assert a.vertex_weights == b.vertex_weights
    assert all(2 <= len(e) <= 3 for e in a.edges)
    c = gen_random_instance(7, 9, 3, 2, 1, seed=34)
    assert (a.edges, a.edge_costs) != (c.edges, c.edge_costs)


def test_gen_random_positive_weights():
    G = gen_random_instance(6, 5, 2, 1, 1, max_weight=4, seed=1,
                            positive_weights=True)
    assert all(w[0] >= 1 for w in G.vertex_weights)
    with pytest.raises(InstanceError):
        gen_random_instance(6, 5, 2, 1, 0, seed=1, positive_weights=True)
    with pytest.raises(InstanceError):
        gen_random_instance(3, 5, 4, 1, 0, seed=1)


def test_gen_random_edgeless():
    G = gen_random_instance(5, 0, 2, 2, 0, seed=0)
    cat = build_catalog(G)
    assert list(cat.costs) == [Cut.of([])]
    assert oracle_multiobjective(cat) == {Cut.of([])}


def test_witness_instances_have_advertised_structure():
    G = gen_pareto_not_parametric_instance()
    assert sorted(build_catalog(G).costs.values()) == [(1, 4), (3, 3), (4, 1)]
    H = gen_multiobjective_not_pareto_instance()
    assert sorted(build_catalog(H).costs.values()) == [(2, 4), (4, 4), (6, 2)]
