import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercuts._engine import delta_mask, ids_mask, mask_sum
from hypercuts.analysis import gen_random_instance
from hypercuts.hypergraph import Cut, Hypergraph, InstanceError, INFEASIBLE
from hypercuts.multiobjective import _prune_final_criterion
from hypercuts.oracle import (CutCatalog, build_catalog, dominates, is_cut,
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
    assert all(len(cut.edge_ids) == 2 for cut in cat.costs)
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


def test_min_cut_oracle_rejects_the_empty_catalog_of_one_vertex():
    with pytest.raises(InstanceError, match="catalog is empty"):
        oracle_min_cut(build_catalog(Hypergraph(1, [], [], t_costs=1)))


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


def all_pairs_parametric(catalog):
    """The former ``oracle_parametric_t2``, frozen as a reference: every
    pairwise line intersection in (0,1), the midpoints between them, and
    every cut evaluated at each."""
    items = list(catalog.costs.items())
    if not items:
        return set()
    lines = [(Fraction(c1 - c2), Fraction(c2)) for _, (c1, c2) in items]
    points = set()
    for i, (a1, b1) in enumerate(lines):
        for a2, b2 in lines[i + 1:]:
            if a1 != a2:
                lam = (b2 - b1) / (a1 - a2)
                if 0 < lam < 1:
                    points.add(lam)
    sweep = sorted(points)
    bounds = [Fraction(0)] + sweep + [Fraction(1)]
    candidates = sweep + [(lo + hi) / 2 for lo, hi in zip(bounds, bounds[1:])]
    result = set()
    for lam in candidates:
        values = [a * lam + b for a, b in lines]
        best = min(values)
        result |= {cut for (cut, _), v in zip(items, values) if v == best}
    return result


def test_parametric_matches_the_all_pairs_sweep():
    rng = random.Random(13)
    cat = build_catalog(path4())
    for _ in range(1500):
        # few distinct values: ties and collinear vectors are common
        top = rng.choice([2, 4, 9, 40])
        cat.costs = {Cut.of([i]): (rng.randint(0, top), rng.randint(0, top))
                     for i in range(rng.randrange(12))}
        assert oracle_parametric_t2(cat) == all_pairs_parametric(cat)
    # (0,9) (3,3) (6,0) lie on the envelope; (1,7) and (2,5) on its chord
    cat.costs = {Cut.of([i]): v for i, v in enumerate(
        [(0, 9), (1, 7), (2, 5), (3, 3), (6, 0), (4, 4), (6, 1)])}
    assert oracle_parametric_t2(cat) == {Cut.of([i]) for i in range(5)}
    for seed in range(20):
        cat = build_catalog(gen_random_instance(7, 10, 3, 2, 0, max_cost=6,
                                                seed=seed))
        assert oracle_parametric_t2(cat) == all_pairs_parametric(cat)


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
    assert all(len(c.edge_ids) == 1 for c in cuts)
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
@settings(max_examples=200, deadline=None, derandomize=True,
          database=None)
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


def scanned_catalog(G):
    """``build_catalog``'s first loop: every side scanned edge by edge."""
    costs = {}
    full = G.full_mask
    for side_bits in range(1, 1 << (G.n - 1)):
        side = side_bits << 1
        other = full & ~side
        cut = Cut(tuple(eid for eid, em in enumerate(G.edge_masks)
                        if (em & side) and (em & other)))
        if cut not in costs:
            costs[cut] = G.cut_costs(cut)
    return costs


CATALOG_CASES = {
    "n1": Hypergraph(1, [], t_costs=2),
    "n2": Hypergraph(2, [(0, 1)], [(3, 1)]),
    "n2-edgeless": Hypergraph(2, [], t_costs=1),
    "edgeless": Hypergraph(5, [], t_costs=2),
    # repeated edges and a disconnected vertex give repeated cuts
    "repeats": Hypergraph(5, [(0, 1), (0, 1), (1, 2, 3), (1, 2, 3)],
                          [(1, 2), (2, 1), (0, 3), (3, 0)]),
    "no-costs": Hypergraph(4, [(0, 1), (1, 2), (2, 3)], [(), (), ()],
                           t_costs=0),
}
for _seed, (_n, _m, _r) in enumerate([(6, 8, 2), (8, 12, 3), (9, 10, 4),
                                      (10, 14, 5), (7, 4, 5), (11, 20, 3)]):
    CATALOG_CASES[f"random-n{_n}-r{_r}"] = gen_random_instance(
        _n, _m, _r, 1 + _seed % 3, 0, max_cost=3, seed=_seed)


@pytest.mark.parametrize("name", sorted(CATALOG_CASES))
def test_gray_code_catalog_equals_the_scanned_catalog(name):
    G = CATALOG_CASES[name]
    assert build_catalog(G).costs == scanned_catalog(G)


def all_pairs_pareto(costs):
    return {cut for cut, cost in costs.items()
            if not any(dominates(c2, cost) for c2 in costs.values()
                       if c2 != cost)}


def all_pairs_multiobjective(costs):
    return {cut for cut, cost in costs.items()
            if not any(c2[-1] < cost[-1] and all(
                c2[i] <= cost[i] for i in range(len(cost) - 1))
                for c2 in costs.values())}


def all_pairs_prune(masks, costs):
    """The enumeration's final-criterion prune, every pair compared."""
    vectors = {m: tuple(mask_sum(ci, m) for ci in costs) for m in masks}
    t = len(costs)
    return {m for m, vec in vectors.items()
            if not any(other[-1] < vec[-1]
                       and all(other[i] <= vec[i] for i in range(t - 1))
                       for other in vectors.values())}


@pytest.mark.parametrize("t", [1, 2, 3])
def test_sorted_fronts_equal_all_pairs_filters(t):
    # values in 0..3 over up to 40 cuts: many tied and equal vectors
    rng = random.Random(t)
    for _ in range(300):
        catalog = CutCatalog(Hypergraph(2, [], t_costs=t))
        for eid in range(rng.randrange(41)):
            catalog.costs[Cut((eid,))] = tuple(rng.randrange(4)
                                               for _ in range(t))
        assert oracle_pareto(catalog) == all_pairs_pareto(catalog.costs)
        assert (oracle_multiobjective(catalog)
                == all_pairs_multiobjective(catalog.costs))
        # the same vectors as one-edge cuts in the enumeration's collection
        costs = [[vec[i] for vec in catalog.costs.values()] for i in range(t)]
        masks = {1 << eid for eid in range(len(catalog))}
        assert (_prune_final_criterion(masks, costs)
                == all_pairs_prune(masks, costs))


@pytest.mark.parametrize("name", sorted(n for n in CATALOG_CASES
                                        if n.startswith("random")))
def test_sorted_fronts_equal_all_pairs_filters_on_catalogs(name):
    catalog = build_catalog(CATALOG_CASES[name])
    assert oracle_pareto(catalog) == all_pairs_pareto(catalog.costs)
    assert (oracle_multiobjective(catalog)
            == all_pairs_multiobjective(catalog.costs))


def all_sides_nb_bmulti(G, budgets):
    """``oracle_nb_bmulti`` as every side scanned edge by edge."""
    weights = G.weights_by_criterion()
    full = G.full_mask
    best, best_cuts = None, set()
    for side in range(1, full):
        if any(mask_sum(w, side) > b for w, b in zip(weights, budgets)):
            continue
        other = full & ~side
        ids = tuple(eid for eid, em in enumerate(G.edge_masks)
                    if (em & side) and (em & other))
        value = sum(G.edge_costs[eid][0] for eid in ids)
        if best is None or value < best:
            best, best_cuts = value, {Cut(ids)}
        elif value == best:
            best_cuts.add(Cut(ids))
    return INFEASIBLE if best is None else (best, best_cuts)


NB_CASES = {
    "n1": (Hypergraph(1, [], t_costs=1, vertex_weights=[(1,)]), [(0,), (1,)]),
    "n2": (Hypergraph(2, [(0, 1)], [(3,)], [(2,), (1,)]),
           [(0,), (1,), (2,), (3,)]),
    "edgeless": (Hypergraph(5, [], t_costs=1,
                            vertex_weights=[(1,), (2,), (3,), (1,), (2,)]),
                 [(0,), (1,), (3,), (9,)]),
    "repeats": (Hypergraph(5, [(0, 1), (0, 1), (1, 2, 3), (1, 2, 3)],
                           [(1, 2), (2, 1), (0, 3), (3, 0)],
                           [(1,), (1,), (4,), (1,), (2,)]),
                [(0,), (1,), (2,), (4,), (9,)]),
}
for _seed in range(12):
    _n, _r, _tw = 4 + _seed % 6, 2 + _seed % 4, 1 + _seed % 2
    NB_CASES[f"random-{_seed}-n{_n}-r{_r}-w{_tw}"] = (
        gen_random_instance(_n, 2 * _n, _r, 1 + _seed % 2, _tw, max_cost=3,
                            max_weight=3, seed=_seed),
        # from budget 0, often infeasible, to past the total weight
        [(b,) * _tw for b in range(0, 3 * _n + 1, 2)]
        + [tuple(range(1 + i, 1 + _tw + i)) for i in range(4)])


@pytest.mark.parametrize("name", sorted(NB_CASES))
def test_gray_code_nb_oracle_equals_the_all_sides_oracle(name):
    G, budget_rows = NB_CASES[name]
    for budgets in budget_rows:
        assert oracle_nb_bmulti(G, budgets) == all_sides_nb_bmulti(G, budgets)
