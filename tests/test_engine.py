import math
import random
import weakref
from collections import Counter
from fractions import Fraction
from itertools import repeat

import pytest

from hypercuts import _engine
from bisect import bisect_right

from hypercuts._engine import (Walk, contract_comps, initial_comps,
                               sample_node, side_mask)
from hypercuts.analysis import gen_random_instance
from hypercuts.hypergraph import Hypergraph
from hypercuts.sampling import derive_rng, draw_below
from hypercuts.multiobjective import bmulti_walk, success_floor_edge
from hypercuts.node_budgeted import (hmincut_walk, nb_arbitrary_walk,
                                     nb_constant_walk, nb_inputs,
                                     success_floor_node,
                                     success_floor_node_arbitrary)
from hypercuts.size_constrained import _picks, kcut_walk, success_floor_size


def test_side_mask_is_the_union_of_the_picked_components():
    comps = (0b0011, 0b0100, 0b11000)
    assert side_mask(comps, 0) == 0
    assert side_mask(comps, 0b101) == 0b11011
    assert side_mask(comps, 0b111) == 0b11111


def draw_raws(draws, rng):
    """The raw draws of a level or draw node's ``draws``: per ``(bound,
    bits)``, ``getrandbits(bits)`` until a value below ``bound``."""
    raws = []
    for bound, bits in draws:
        r = rng.getrandbits(bits)
        while r >= bound:
            r = rng.getrandbits(bits)
        raws.append(r)
    return raws


def path_outcome(G, sizes, label_masks):
    """The outcome a k-cut candidate labelling of the unit-weight path G
    settles to: every edge, unwitnessed, when a part is empty."""
    if 0 in label_masks:
        return G.full_mask >> 1, False
    crossing = sum(1 << v for v in range(G.n - 1)
                   if not any(lm >> v & 3 == 3 for lm in label_masks))
    parts = sorted(bin(lm).count("1") for lm in label_masks)
    return crossing, all(p >= s for p, s in zip(parts, sorted(sizes)))


@pytest.mark.parametrize("n", range(1, 31))
def test_draw_sample_is_rng_sample(n):
    # a k-cut level candidate labels 2 sigma of its live components, n >= 1
    # of them left outside: the picks of a partial Fisher-Yates shuffle,
    # whose pool draws the level lists as data at every live; up to 21 live
    # components they are rng.sample(range(live), 2 sigma)'s own draws
    for k, sizes in ((2, (1, 1)), (3, (1, 1, 1)), (2, (3, 3))):
        s = 2 * sum(sizes[:-1])
        live = s + n
        G = Hypergraph(live, [(v, v + 1) for v in range(live - 1)])
        walk = kcut_walk(G, k, sizes)
        tag, draws, _, decode = walk.expand(walk.start)
        assert tag == "level"
        assert draws == [(b, b.bit_length())
                         for b in range(live, live - s, -1)] + [
                             (k, k.bit_length())] * s
        for seed in range(5):
            rng, ref = random.Random(seed), random.Random(seed)
            pool, chosen = list(range(live)), []
            for i in range(live, live - s, -1):
                j = ref.randrange(i)
                chosen.append(pool[j])
                pool[j] = pool[i - 1]
            chosen.sort()
            labels = [ref.randrange(k) for _ in chosen]
            if live <= 21:
                sam = random.Random(seed)
                assert sorted(sam.sample(range(live), s)) == chosen
                assert [sam.randrange(k) for _ in chosen] == labels
                assert sam.getstate() == ref.getstate()
            raws = draw_raws(draws, rng)
            assert rng.getstate() == ref.getstate()
            assert list(_picks(raws, live, s)) == list(zip(chosen, labels))
            want = [0] * k
            for idx, lab in zip(chosen, labels):
                want[lab] |= 1 << idx
            want[k - 1] |= G.full_mask & ~sum(1 << idx for idx in chosen)
            assert decode(walk.start, raws) == path_outcome(G, sizes, want)


def test_sample_step_never_draws_zero_weight_edges():
    # a walk whose start is the sample node and which stops, with no draw,
    # with the state its one step reached
    G = Hypergraph(10, [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)])
    node = sample_node(list(range(5)), [0, 3, 0, 5, 0])

    def reached(comps, raws):
        return comps

    walk = Walk(G, lambda comps, parent=None:
                node if comps == initial_comps(10)
                else ("draw", (), {}, reached), None, None)
    rng = random.Random(0)
    counts = Counter()
    for _ in range(4000):
        nxt = walk.run(rng)
        (eid,) = [e for e, em in enumerate(G.edge_masks) if em in nxt]
        counts[eid] += 1
    assert walk.cache[walk.start] == (walk.start, node)
    assert walk.cache[walk.start][1] is node
    assert set(counts) == {1, 3}
    # proportions roughly 3:5
    assert abs(counts[1] / 4000 - 3 / 8) < 0.05
    # successors are linked only for the edges drawn, each to its cache entry
    assert [link is not None for link in node[4]] == [False, True, False, True, False]
    assert all(link is walk.cache[link[0]] for link in node[4] if link)


def test_sample_node_is_none_without_weight():
    assert sample_node([], []) is None
    assert sample_node([0, 1], [0, 0]) is None


def test_sample_node_rejects_a_negative_total():
    # draw_below would loop forever on it
    with pytest.raises(ValueError):
        sample_node([0, 1], [2, -5])


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


@pytest.mark.parametrize("make, floor", [
    (lambda G: bmulti_walk(G, (4,)), lambda G: success_floor_edge(G.n, 3, 2)),
    (lambda G: nb_constant_walk(G, (3,)), lambda G: success_floor_node(G.n, 3)),
    (lambda G: nb_arbitrary_walk(G, (3,)),
     lambda G: success_floor_node_arbitrary(G.n)),
    (hmincut_walk, lambda G: Fraction(1, math.comb(G.n, 2))),
    (lambda G: kcut_walk(G, 2, (1, 1)),
     lambda G: success_floor_size(G.n, 2, (1, 1))),
    (lambda G: kcut_walk(G, G.n + 1, (1,) * (G.n + 1)), lambda G: 1),
], ids=["bmulti_walk", "nb_constant_walk", "nb_arbitrary_walk",
        "hmincut_walk", "kcut_walk", "kcut_walk-n-below-k"])
@pytest.mark.parametrize("n", [4, 7])
def test_every_walk_carries_its_success_floor(make, floor, n):
    # rank 3 and t_costs 2: at n = 7 the bmulti floor leaves its n <= rt
    # branch
    G = Hypergraph(n, [(0, 1), (1, 2, 3), (0, 3)], [(1, 2), (2, 1), (3, 1)],
                   [(1,)] * n)
    walk = make(G)
    assert isinstance(walk.floor, Fraction)
    assert walk.floor == floor(G)


def sorted_contract(comps, mask):
    """``contract_comps`` as it was first written: merge, then sort by
    lowest set bit."""
    merged = 0
    rest = []
    for c in comps:
        if c & mask:
            merged |= c
        else:
            rest.append(c)
    if merged:
        rest.append(merged)
        rest.sort(key=lambda c: c & -c)
    return tuple(rest)


def test_contract_comps_matches_the_sorting_version():
    rng = random.Random(11)
    for _ in range(4000):
        n = rng.randrange(1, 16)
        comps = initial_comps(n)
        # a random partition: a few random merges of the singletons
        for _ in range(rng.randrange(n + 1)):
            comps = sorted_contract(comps,
                                    rng.getrandbits(n) & rng.getrandbits(n))
        mask = rng.getrandbits(n + 2) & rng.getrandbits(n + 2)
        assert contract_comps(comps, mask) == sorted_contract(comps, mask)


def comparable(node, comps):
    """The fields of a node that are functions of its state ``comps`` alone:
    tables a walk fills as it goes (``nexts``, a draw node's outcomes) are
    left out, but each outcome a draw node keeps must be its decoder's, and
    a decoder counts by what it makes of a few seeded draws."""
    tag = node[0]
    if tag == "sample":
        return (tag, node[1], node[2], node[3], node[5], node[6])
    if tag == "merge":
        return node
    decoded = [node[-1](comps, draw_raws(node[1], random.Random(seed)))
               for seed in range(4)]
    if tag == "level":
        return (tag, node[1], decoded, comparable(node[2], comps))
    assert all(node[3](comps, list(key)) == out
               for key, out in node[2].items()), comps
    return (tag, node[1], decoded)


# (n, m, rank, cost criteria) with n <= 10 and ranks 2-5: the budgeted walk
# samples only above rank * t components.  Costs run 0..4 and weights 1..4,
# so ties, zero-cost edges and budget-violating components all occur.
GRID = [(10, 14, 2, 3), (10, 14, 3, 2), (10, 12, 4, 2), (9, 12, 5, 1)]


def grid_instance(shape):
    n, m, rank, t = shape
    return gen_random_instance(n, m, rank, t, 1, max_cost=4, max_weight=4,
                               seed=n * 100 + rank, positive_weights=True)


def grid_node_budget(G):
    weights = sorted(w[0] for w in G.vertex_weights)
    return (weights[G.n // 2] + weights[-1],)


def walk_families(G):
    costs = sorted(c[0] for c in G.edge_costs)
    node_budget = grid_node_budget(G)
    budgets = (costs[len(costs) // 2] * 2,) * (G.t_costs - 1)
    return {
        "bmulti": bmulti_walk(G, budgets),
        "nb-constant": nb_constant_walk(G, node_budget),
        "nb-arbitrary": nb_arbitrary_walk(G, node_budget),
        "hmincut": hmincut_walk(G),
        "kcut": kcut_walk(G, 2, (1, 2)),
    }


@pytest.mark.parametrize("family", ["bmulti", "nb-constant", "nb-arbitrary",
                                    "hmincut", "kcut"])
@pytest.mark.parametrize("shape", GRID, ids=lambda s: "n%d-m%d-r%d-t%d" % s)
def test_incremental_expansion_equals_expansion_from_scratch(family, shape):
    # a cache miss after a sample step expands from the parent node; every
    # node cached that way must equal the one expand(comps) builds alone
    G = grid_instance(shape)
    walk = walk_families(G)[family]
    for i in range(2000):
        walk.run(derive_rng(5, i))
    inherited = 0
    for comps, (key, node) in walk.cache.items():
        if key is not comps:  # a merge state's entry is its target's
            assert walk.expand(comps) == ("merge", key), comps
            continue
        fresh = walk.expand(comps)
        assert comparable(node, comps) == comparable(fresh, comps), comps
        if node[0] == "draw" and family != "kcut":
            # one decoder per walk: equal nodes but for the outcomes kept
            assert node[:2] + node[3:] == fresh[:2] + fresh[3:], comps
        sample = node[2] if node[0] == "level" else node
        if sample[0] == "sample":
            inherited += sum(link[0] in walk.cache for link in sample[4]
                             if link is not None)
    assert inherited >= 10


@pytest.mark.parametrize("shape", GRID, ids=lambda s: "n%d-m%d-r%d-t%d" % s)
def test_nb_arbitrary_takes_the_min_cut_weights_once_its_feasible_set_fits(
        shape):
    # where the union U of the feasible components fits the budget, the
    # arbitrary-rank walk's node samples or stops as the min-cut walk's
    # does; the switch is absorbing, so every linked successor's U fits too
    G = grid_instance(shape)
    walk = walk_families(G)["nb-arbitrary"]
    min_cut = hmincut_walk(G)
    fits, _ = nb_inputs(G, grid_node_budget(G))

    def union_fits(comps):
        """At most one component violates, and the others' union fits."""
        feasible = [c for c in comps if fits(c)]
        return len(feasible) >= len(comps) - 1 and fits(sum(feasible))

    for i in range(2000):
        walk.run(derive_rng(5, i))
    fitting = linked = 0
    for comps, (_, node) in walk.cache.items():
        if not union_fits(comps):
            continue
        fitting += 1
        want = min_cut.expand(comps)
        assert node[0] == want[0], comps
        if node[0] == "sample":
            assert (node[3], node[1]) == (want[3], want[1]), comps
            for link in node[4]:
                if link is not None:
                    assert union_fits(link[0]), link[0]
                    linked += 1
    assert fitting >= 10 and linked >= 20


@pytest.mark.parametrize("shape", GRID, ids=lambda s: "n%d-m%d-r%d-t%d" % s)
def test_min_cut_walk_is_the_arbitrary_rank_walk_where_every_set_fits(shape):
    # at budgets of each weight column's total every vertex set fits, so
    # the two walks make the same generator calls and outcomes run by run
    G = grid_instance(shape)
    totals = tuple(sum(col) for col in G.weights_by_criterion())
    min_cut, arbitrary = hmincut_walk(G), nb_arbitrary_walk(G, totals)
    for i in range(300):
        a, b = derive_rng(7, i), derive_rng(7, i)
        assert min_cut.run(a) == arbitrary.run(b), i
        assert a.getstate() == b.getstate(), i
    assert len(min_cut.cache) == len(arbitrary.cache) >= 20
    # the min-cut walk knows every set fits, so it labels no component
    assert all(node[6] is None for _, node in min_cut.cache.values()
               if node[0] == "sample")


@pytest.mark.parametrize("family", ["hmincut", "nb-arbitrary", "kcut"])
def test_counts_of_edges_wider_than_a_byte_expand_alike(family):
    # one edge meets 270 singletons, a count too large for a byte, so the
    # counts of those states are held as a tuple
    n = 300
    edges = [tuple(range(270))] + [(v, v + 1) for v in range(269, n - 1)]
    G = Hypergraph(n, edges, [(1,)] * len(edges), [(1,)] * n)
    walk = {"hmincut": hmincut_walk, "kcut": lambda G: kcut_walk(G, 2, (1, 1)),
            "nb-arbitrary": lambda G: nb_arbitrary_walk(G, (150,))}[family](G)
    for i in range(20):
        walk.run(derive_rng(9, i))
    wide = 0
    for comps, (_, node) in walk.cache.items():
        assert comparable(node, comps) == comparable(walk.expand(comps),
                                                  comps), comps
        sample = node[2] if node[0] == "level" else node
        wide += sample[0] == "sample" and isinstance(sample[5], tuple)
    assert wide >= 100


def merging_start():
    """An instance whose vertices 1, 5 and 6 each weigh 4, over a node
    budget of 3: a node-budgeted walk merges them at its start."""
    return gen_random_instance(10, 20, 3, 1, 1, max_weight=4, seed=6,
                               positive_weights=True)


@pytest.mark.parametrize("make", [
    lambda: bmulti_walk(gen_random_instance(9, 16, 2, 2, 0, seed=3), (9,)),
    lambda: kcut_walk(gen_random_instance(10, 20, 3, 1, 1, max_weight=4, seed=3,
                                          positive_weights=True), 2, (1, 2)),
    lambda: nb_constant_walk(merging_start(), (3,)),
    lambda: nb_arbitrary_walk(merging_start(), (3,)),
], ids=["bmulti", "kcut", "nb-constant", "nb-arbitrary"])
def test_walk_cache_cap_changes_no_outcome(monkeypatch, make):
    # the node-budgeted walks merge at their start, so past the cap they
    # also meet merge states whose entries are built anew on each visit
    uncapped = make()
    rng = random.Random(8)
    want = [(uncapped.run(rng), rng.getstate()) for _ in range(400)]
    assert len(uncapped.cache) > 30
    monkeypatch.setattr(_engine, "_WALK_CACHE_CAP", 30)
    capped = make()
    rng = random.Random(8)
    for expected in want:
        assert (capped.run(rng), rng.getstate()) == expected
        assert len(capped.cache) <= 30


@pytest.mark.parametrize("family", ["bmulti", "nb-constant", "nb-arbitrary",
                                    "hmincut", "kcut"])
def test_every_walk_ends_at_a_draw_node(family):
    # expand gives sample, draw and level nodes (merges resolve at the
    # cache); every draw is a getrandbits rejection draw that can end, a
    # k-cut draw is CPython's randrange(bound), a base subset draw is one
    # getrandbits(live) call and a Karger walk stops with no draw
    stops = 0
    for shape in GRID:
        walk = walk_families(grid_instance(shape))[family]
        for _ in walk.runs(derive_rng(5, i) for i in range(2000)):
            pass
        for comps, node in walk.cache.values():
            assert node[0] in ("sample", "draw", "level"), comps
            if node[0] == "sample":
                continue
            for bound, bits in node[1]:
                assert 0 < bound <= 1 << bits, comps
                assert family != "kcut" or bits == bound.bit_length(), comps
            if node[0] == "level":
                assert node[2][0] == "sample", comps
                continue
            stops += 1
            if family in ("bmulti", "nb-constant"):
                assert node[1] == ((1 << len(comps), len(comps)),), comps
            elif family != "kcut":
                assert node[1] == (), comps
    assert stops >= 10


@pytest.mark.parametrize("family", ["bmulti", "nb-constant", "nb-arbitrary",
                                    "hmincut", "kcut"])
def test_a_dropped_walk_is_freed_at_once(family):
    # no reference cycle holds a walk, its cache or its kept outcomes: a
    # process that drops one walk and builds the next (a CLI call each)
    # needs no garbage collection to reuse the memory
    walk = walk_families(grid_instance(GRID[1]))[family]
    for _ in walk.runs(derive_rng(5, i) for i in range(500)):
        pass
    assert walk.kept > 0
    ref = weakref.ref(walk)
    del walk
    assert ref() is None


def frozen_sample_step(node, comps, edge_masks, rng):
    """Successor of ``comps`` under one draw from a sample node."""
    idx = bisect_right(node[1], draw_below(rng, node[2]))
    nexts = node[4]
    nxt = nexts[idx]
    if nxt is None:
        nxt = nexts[idx] = contract_comps(comps, edge_masks[node[3][idx]])
    return nxt


def frozen_run(walk, rng, cap):
    """``Walk.run`` written plainly, its sample step the function
    ``frozen_sample_step`` and its draws ``draw_raws``, caching at most
    ``cap`` states."""
    comps = walk.start
    cache = walk.cache
    masks = walk.masks
    pending = []
    prev = prev_comps = None
    while True:
        node = cache.get(comps)
        if node is None:
            node = walk.expand(
                comps, None if prev is None else (prev, prev_comps))
            if len(cache) < cap:
                cache[comps] = node
        tag = node[0]
        if tag == "sample":
            prev, prev_comps = node, comps
            comps = frozen_sample_step(node, comps, masks, rng)
        elif tag == "merge":
            prev = None
            comps = node[1]
        elif tag == "level":
            pending.append((node[3], comps, draw_raws(node[1], rng)))
            prev, prev_comps = node[2], comps
            comps = frozen_sample_step(prev, comps, masks, rng)
        else:  # a draw node
            break
    entry = (node[3], comps, draw_raws(node[1], rng))
    # innermost first: the outermost level whose coin comes up 0 survives
    for candidate in reversed(pending):
        if draw_below(rng, len(candidate[1])) == 0:
            entry = candidate
    decode, comps, raws = entry
    return decode(comps, raws)


@pytest.mark.parametrize("cap", [_engine._WALK_CACHE_CAP, 30],
                         ids=["uncapped", "capped-30"])
@pytest.mark.parametrize("family", ["bmulti", "nb-constant", "nb-arbitrary",
                                    "hmincut", "kcut"])
@pytest.mark.parametrize("shape", GRID, ids=lambda s: "n%d-m%d-r%d-t%d" % s)
def test_walk_run_matches_the_frozen_loop(monkeypatch, shape, family, cap):
    # the same outcome from the same generator calls, run after run, on a
    # warm walk and on one whose cache fills up
    G = grid_instance(shape)
    monkeypatch.setattr(_engine, "_WALK_CACHE_CAP", cap)
    walk, reference = walk_families(G)[family], walk_families(G)[family]
    for i in range(300):
        a, b = derive_rng(7, i), derive_rng(7, i)
        assert walk.run(a) == frozen_run(reference, b, cap), i
        assert a.getstate() == b.getstate(), i
    assert len(walk.cache) == min(cap, len(reference.cache))


def mixed_walk(G):
    """A k-cut walk whose draw nodes draw nothing and stop with a fixed
    outcome instead on the states where vertex 1 has joined vertex 0: some
    runs stop after draws and some with none, level candidates pending
    either way."""
    walk = kcut_walk(G, 2, (1, 2))
    expand = walk.expand

    def fixed(comps, raws):
        return 0, False

    def mixed(comps, parent=None):
        node = expand(comps, parent)
        if node[0] == "draw" and comps[0] & 2:
            return ("draw", (), {}, fixed)
        return node

    walk.expand = mixed
    return walk


def runs_families(G):
    return {**walk_families(G), "mixed": mixed_walk(G)}


RUNS_FAMILIES = ["bmulti", "nb-constant", "nb-arbitrary", "hmincut", "kcut",
                 "mixed"]


@pytest.mark.parametrize("cap", [_engine._WALK_CACHE_CAP, 30],
                         ids=["uncapped", "capped-30"])
@pytest.mark.parametrize("family", RUNS_FAMILIES)
@pytest.mark.parametrize("shape", GRID, ids=lambda s: "n%d-m%d-r%d-t%d" % s)
def test_runs_equals_one_run_per_generator(monkeypatch, shape, family, cap):
    # runs(rngs) is run(rng) once per generator: the same outcome and
    # generator state after every walk and the same states cached, whether
    # the walks share one generator or each has its own
    G = grid_instance(shape)
    monkeypatch.setattr(_engine, "_WALK_CACHE_CAP", cap)
    single, batched = runs_families(G)[family], runs_families(G)[family]
    rng = random.Random(4)
    want = [(single.run(rng), rng.getstate()) for _ in range(300)]
    rng = random.Random(4)
    assert [(out, rng.getstate())
            for out in batched.runs(repeat(rng, 300))] == want
    want = []
    for i in range(300):
        rng = derive_rng(7, i)
        want.append((single.run(rng), rng.getstate()))
    rngs = [derive_rng(7, i) for i in range(300)]
    assert [(out, rngs[i].getstate())
            for i, out in enumerate(batched.runs(rngs))] == want
    assert list(batched.cache) == list(single.cache)
    assert len(batched.cache) <= cap


@pytest.mark.parametrize("cap", [_engine._WALK_CACHE_CAP, 30],
                         ids=["uncapped", "capped-30"])
@pytest.mark.parametrize("family", RUNS_FAMILIES)
@pytest.mark.parametrize("shape", GRID[:2],
                         ids=lambda s: "n%d-m%d-r%d-t%d" % s)
def test_links_are_the_cache_entries(monkeypatch, shape, family, cap):
    # a sample node's successor link is the successor's own cache entry,
    # never a copy of it, and no link keeps an uncached state alive; a merge
    # state's entry is its target's own entry
    G = grid_instance(shape)
    monkeypatch.setattr(_engine, "_WALK_CACHE_CAP", cap)
    walk = runs_families(G)[family]
    for _ in walk.runs(derive_rng(3, i) for i in range(600)):
        pass
    links = 0
    for comps, entry in walk.cache.items():
        key, node = entry
        if key is not comps:
            assert walk.expand(comps) == ("merge", key), comps
            assert walk.cache.get(key) is entry, comps
            continue
        sample = node[2] if node[0] == "level" else node
        if sample[0] != "sample":
            continue
        for link in sample[4]:
            if link is not None:
                assert walk.cache.get(link[0]) is link, link[0]
                links += 1
    assert links >= 10


@pytest.mark.parametrize("family", ["bmulti", "nb-constant"])
@pytest.mark.parametrize("seed", range(6))
def test_base_outcomes_witness_by_the_problems_rule(family, seed):
    # every subset a cached base draw can make: its cut crosses the side,
    # and it is witnessed exactly when the side is proper (bmulti) and, for
    # nb-constant, when it or its complement fits the node budget; so is
    # every outcome the node has kept
    G = gen_random_instance(8, 12, 3, 2, 1, max_cost=4, max_weight=4,
                            seed=80 + seed, positive_weights=True)
    weight = [w[0] for w in G.vertex_weights]
    budget = sum(weight) * 2 // 5
    full = G.full_mask

    def fits(side):
        return sum(w for v, w in enumerate(weight) if side >> v & 1) <= budget

    if family == "bmulti":
        walk = walk_families(G)["bmulti"]
    else:
        walk = nb_constant_walk(G, (budget,))
    for i in range(300):
        walk.run(derive_rng(seed, i))
    checked = complement_only = kept = 0
    for comps, (key, node) in walk.cache.items():
        if node[0] != "draw":
            continue
        assert node[1] == ((1 << len(key), len(key)),), key
        # a merge state's entry is its target's: its decoder, read on the
        # sides of the unmerged components
        for bits in range(1 << len(comps)):
            side = sum(c for i, c in enumerate(comps) if bits >> i & 1)
            proper = 0 != side != full
            if family == "nb-constant":
                witnessed = proper and (fits(side) or fits(full & ~side))
                complement_only += (witnessed and not fits(side))
            else:
                witnessed = proper
            cut = sum(1 << eid for eid, e in enumerate(G.edges)
                      if {side >> v & 1 for v in e} == {0, 1})
            assert node[3](comps, [bits]) == (cut, witnessed), (comps, bits)
            if key is comps and (bits,) in node[2]:
                assert node[2][bits,] == (cut, witnessed), (comps, bits)
                kept += 1
            checked += 1
    assert checked >= 100 and kept >= 50
    assert family == "bmulti" or complement_only > 0
