import inspect
import math
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from hypercuts import _engine
from hypercuts._engine import initial_comps
from hypercuts.analysis import gen_random_instance
from hypercuts.hypergraph import (Cut, Hypergraph, InstanceError, INFEASIBLE,
                                  delta_partition)
from hypercuts.multiobjective import bmulti_walk
from hypercuts.node_budgeted import hmincut_walk, nb_constant_walk
from hypercuts.oracle import oracle_kcut
from hypercuts.sampling import derive_rng
from hypercuts.size_constrained import _picks, kcut_walk, success_floor_size
from test_kcut_walk import SHAPES


def triangle():
    return Hypergraph(3, [(0, 1), (1, 2), (0, 2)], [(1,), (1,), (1,)],
                      [(1,), (1,), (1,)])


def one_run(walk, rng):
    """The cut of one run of ``walk``, or INFEASIBLE."""
    out = walk.run(rng)
    return INFEASIBLE if out is INFEASIBLE else Cut.from_mask(out[0])


def alphas(n, edges, sizes):
    """alpha_e = C(n-|e|, sigma) / C(n, sigma) at the singleton partition,
    read off the sample node of the walk's first level (numerators over
    C(n, sigma))."""
    walk = kcut_walk(Hypergraph(n, edges), len(sizes), sizes)
    node = walk.expand(initial_comps(n))
    assert node[0] == "level"
    tag, cum, total, eids = node[2][:4]
    assert tag == "sample" and eids == list(range(len(edges)))
    denominator = math.comb(n, sum(sorted(sizes)[:-1]))
    return [Fraction(b - a, denominator) for a, b in zip([0] + cum, cum)]


def test_alpha_size_examples():
    spanning = tuple(range(6))
    assert alphas(6, [(0, 1), spanning], (2, 2)) == [Fraction(2, 5), 0]
    assert alphas(6, [(0, 1), spanning], (1, 1)) == [Fraction(2, 3), 0]
    assert alphas(5, [(0, 1, 2)], (2, 2)) == [Fraction(1, 10)]


def test_one_candidate_has_the_law_of_sample_then_labels():
    # live = 6, 2 sigma = 4, k = 3: each accepted raw sequence of the first
    # level's draw list decodes to a sorted sample of 4 and its labels, and
    # each of the C(6, 4) * 3^4 labellings comes from exactly 4! sequences,
    # the law of rng.sample followed by randrange(k), with zero tolerance
    G = Hypergraph(6, [(v, v + 1) for v in range(5)])
    tag, draws = kcut_walk(G, 3, (1, 1, 1)).expand(initial_comps(6))[:2]
    assert tag == "level"
    assert [bound for bound, _ in draws] == [6, 5, 4, 3, 3, 3, 3, 3]
    law = Counter(tuple(_picks(raws, 6, 4))
                  for raws in product(*(range(b) for b, _ in draws)))
    assert len(law) == math.comb(6, 4) * 3 ** 4
    assert set(law.values()) == {math.factorial(4)}
    for picks in law:
        sample = [idx for idx, _ in picks]
        assert sample == sorted(set(sample))


@pytest.mark.parametrize("live, k, sizes",
                         [(22, 2, (1, 1)), (25, 2, (1, 1)), (30, 2, (1, 1)),
                          (22, 3, (1, 1, 1))])
def test_pool_picks_have_the_law_of_sample_past_21(live, k, sizes):
    # past 21 live components rng.sample leaves its pool branch, the walk's
    # picks do not: every pick sequence of the level's bounds decodes to a
    # 2 sigma-subset, and each subset comes from exactly (2 sigma)! of them
    s = 2 * sum(sizes[:-1])
    G = Hypergraph(live, [(v, v + 1) for v in range(live - 1)])
    tag, draws = kcut_walk(G, k, sizes).expand(initial_comps(live))[:2]
    assert tag == "level"
    law = Counter(tuple(idx for idx, _ in _picks(list(picks) + [0] * s,
                                                 live, s))
                  for picks in product(*(range(b) for b, _ in draws[:s])))
    assert len(law) == math.comb(live, s)
    assert set(law.values()) == {math.factorial(s)}
    assert all(len(set(sample)) == s for sample in law)


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
    checked = 0
    for seed in range(6):
        G = gen_random_instance(7, 8, 4, 1, 1, max_weight=4, seed=seed,
                                positive_weights=True)
        result = oracle_kcut(G, 2, (1, 2))
        if result is INFEASIBLE:
            continue
        _, optima = result
        node = kcut_walk(G, 2, (1, 2)).expand(initial_comps(G.n))
        if node[0] != "level":
            continue
        total = node[2][2]
        sigma_lead = 1
        alpha_sum = Fraction(total, math.comb(G.n, sigma_lead))
        for F in optima:
            assert alpha_sum <= G.m - len(F.edge_ids)
        checked += 1
    assert checked


def test_sampled_edges_leave_room():
    # only edges with positive alpha are contracted: |e| <= n - sigma_{k-1}
    G = gen_random_instance(7, 9, 5, 1, 1, max_weight=3, seed=42,
                            positive_weights=True)
    walk = kcut_walk(G, 3, (1, 1, 2))
    node = walk.expand(initial_comps(G.n))
    assert node[0] == "level"
    _, cum, _, present = node[2][:4]
    spans = [len(G.edges[eid]) for eid in present]  # singleton components
    sigma_lead = 2
    prev = 0
    for sz, acc in zip(spans, cum):
        if acc > prev:  # positive sampling weight
            assert sz <= G.n - sigma_lead
        prev = acc


def test_deterministic_replay():
    G = gen_random_instance(7, 9, 4, 1, 1, max_weight=4, seed=43,
                            positive_weights=True)
    walk = kcut_walk(G, 2, (1, 2))  # one cached walk against fresh ones
    a = [one_run(walk, derive_rng(6, i)) for i in range(40)]
    b = [one_run(kcut_walk(G, 2, (1, 2)), derive_rng(6, i))
         for i in range(40)]
    assert a == b


def outcome_memo(walk):
    """The walk's per-labelling outcome memo: the dict named ``memo`` that
    the functions its ``expand`` reaches close over."""
    todo = [walk.expand]
    while todo:
        free = inspect.getclosurevars(todo.pop()).nonlocals
        if "memo" in free:
            return free["memo"]
        todo += [f for f in free.values() if inspect.isfunction(f)]
    raise AssertionError("no outcome memo")


def outcome_entries(walk, memo):
    """The outcomes ``walk`` holds: the entries of ``memo`` and of its
    cached draw nodes' tables (a merge state's entry is its target's)."""
    tables = {id(node[2]): len(node[2]) for _, node in walk.cache.values()
              if node[0] == "draw"}
    return len(memo) + sum(tables.values())


def state_slots(key, entry):
    """The slots of the cache entry ``entry`` under ``key``: one for a merge
    alias, else one plus its node's length (the nested sample's for a level
    node)."""
    comps, node = entry
    if key != comps:
        return 1
    return 1 + len((node[2] if node[0] == "level" else node)[1])


def memo_of(walk, family):
    """The labelling memo of a k-cut walk, an empty dict for the others."""
    return outcome_memo(walk) if family == "kcut" else {}


def held_slots(walk, memo):
    """The slots ``walk``'s structures hold, counted the way ``Walk.keep``
    charges them: its cache entries' and one per outcome in ``memo`` or in a
    cached draw node's table."""
    return (sum(state_slots(key, entry) for key, entry in walk.cache.items())
            + outcome_entries(walk, memo))


def capped_walks():
    """``(id, make, family)`` per walk of the outcome budget test: each k-cut
    shape that reaches a draw, a bmulti walk at the shape that held 88,739
    base outcomes after 200,000 runs, and a node-budgeted and a min-cut walk
    whose starts merge or stop at many states."""
    budgeted = gen_random_instance(10, 20, 3, 1, 1, max_weight=4, seed=6,
                                   positive_weights=True)
    return [(shape[0], lambda shape=shape: kcut_walk(*shape[1:5]), "kcut")
            for shape in SHAPES if shape[0] != "n<k"] + [
        ("bmulti", lambda: bmulti_walk(gen_random_instance(
            14, 30, 4, 3, 0, max_cost=8, seed=1), (20, 20)), "bmulti"),
        ("nb-constant", lambda: nb_constant_walk(budgeted, (3,)),
         "nb-constant"),
        ("min-cut", lambda: hmincut_walk(budgeted), "min-cut"),
    ]


@pytest.mark.parametrize("make, family", [w[1:] for w in capped_walks()],
                         ids=[w[0] for w in capped_walks()])
def test_outcome_memo_cap_changes_no_run(make, family, monkeypatch):
    # one slot budget bounds everything a walk keeps, its states, a k-cut
    # walk's labelling memo and every draw node's table together, and
    # changes no run
    unbudgeted = make()
    want = []
    for i in range(2000):
        rng = derive_rng(72, i)
        want.append((unbudgeted.run(rng), rng.getstate()))
    used = _engine._CACHE_SLOTS - unbudgeted.room
    memo = memo_of(unbudgeted, family)
    outcomes = outcome_entries(unbudgeted, memo)
    assert used == held_slots(unbudgeted, memo) and outcomes > 4
    budget = used - outcomes + 4  # the states' slots and four outcomes
    monkeypatch.setattr(_engine, "_CACHE_SLOTS", budget)
    budgeted = make()
    for i in range(2000):
        rng = derive_rng(72, i)
        assert (budgeted.run(rng), rng.getstate()) == want[i], i
        assert (held_slots(budgeted, memo_of(budgeted, family))
                <= budget - budgeted.room <= budget)
    # the budget is reached: a state met on the same runs is left out only
    # when it needs more slots than are left, and with every state kept the
    # outcomes it leaves out (budget < used) left no slot
    left_out = [state_slots(key, entry)
                for key, entry in unbudgeted.cache.items()
                if key == entry[0] and key not in budgeted.cache]
    assert budgeted.room < min(left_out, default=1)
