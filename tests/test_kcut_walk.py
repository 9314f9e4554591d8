"""The k-cut walk on the engine against the level loop it replaced.

``ReferenceWalker`` is the size-constrained walker as it was written before
it ran on ``_engine.Walk``: its own level loop, state cache and start state,
except that its candidate's picks are a partial Fisher-Yates shuffle at
every component count, where that walker called ``rng.sample``.  The engine
walk must return the same outcome from the same generator calls, so after
every run both generators must be in the same state.  The reference also
records which branches a run took, so each shape below is checked to reach
the branch it is named after.

``LabelListDecode`` is the decode of a level's candidate as it was written
before it built the label masks in one pass: a label per component, a set of
the labels used, then a second pass over the components.  The one-pass
decode must settle every raw draw of a level to the same outcome.
"""

from bisect import bisect_right
from itertools import product
from math import comb

import pytest

from hypercuts._engine import (contract_comps, ids_mask, initial_comps,
                               mask_sum, present_edge_ids, sample_node)
from hypercuts.analysis import gen_random_instance
from hypercuts.hypergraph import Hypergraph, INFEASIBLE
from hypercuts.sampling import derive_rng
from hypercuts.size_constrained import _picks, kcut_walk


def _sample_step(node, comps, masks, rng):
    """Successor of ``comps`` under one draw from a sample node."""
    idx = bisect_right(node[1], rng.randrange(node[2]))
    nexts = node[4]
    nxt = nexts[idx]
    if nxt is None:
        nxt = nexts[idx] = contract_comps(comps, masks[node[3][idx]])
    return nxt


class ReferenceWalker:
    def __init__(self, G, k, sizes, weighted_costs):
        self.k = k
        self.sizes = tuple(sorted(sizes))
        self.sigma_lead = sum(self.sizes[:-1])
        self.base_limit = max(2 * self.sigma_lead, sum(self.sizes))
        self.masks = G.edge_masks
        self.cost = G.costs_by_criterion()[0] if weighted_costs else [1] * G.m
        weights = G.weights_by_criterion()
        self.vertex_w = weights[0] if weights else [1] * G.n
        self.start = initial_comps(G.n)
        self.cache = {}
        self.seen = set()

    def run(self, rng):
        if len(self.start) < self.k:
            self.seen.add("infeasible")
            return INFEASIBLE
        comps = self.start
        cache = self.cache
        pending = []
        while True:
            node = cache.get(comps)
            if node is None:
                node = cache[comps] = self.expand(comps)
            if node[0] == "base":
                self.seen.add("base")
                result = self._base_cut(comps, rng)
                break
            candidate = self._level_candidate(comps, node[-1], rng)
            if node[0] == "terminal":
                self.seen.add("terminal")
                result = candidate
                break
            self.seen.add("level")
            pending.append((candidate, len(comps)))
            comps = _sample_step(node, comps, self.masks, rng)
        for candidate, live in reversed(pending):
            if rng.randrange(live) == 0:
                result = candidate
        return result

    def expand(self, comps):
        live = len(comps)
        masks = self.masks
        present = present_edge_ids(masks, comps)
        alive = ids_mask(present)
        if live <= self.base_limit:
            return ("base", alive)
        node = sample_node(present, [
            comb(live - sum(1 for c in comps if c & masks[eid]),
                 self.sigma_lead) * self.cost[eid] for eid in present])
        return ("terminal", alive) if node is None else node + (alive,)

    def _witnessed(self, label_masks):
        if any(m == 0 for m in label_masks):
            return False
        part_w = sorted(mask_sum(self.vertex_w, lm) for lm in label_masks)
        return all(w >= s for w, s in zip(part_w, self.sizes))

    def _base_cut(self, comps, rng):
        k = self.k
        label_masks = [0] * k
        for c in comps:
            label_masks[rng.randrange(k)] |= c
        return self._crossing(label_masks), self._witnessed(label_masks)

    def _level_candidate(self, comps, alive, rng):
        k = self.k
        live = len(comps)
        # rng.sample's pool picks, which it leaves above 21 components
        pool, chosen = list(range(live)), []
        for i in range(live, live - 2 * self.sigma_lead, -1):
            j = rng.randrange(i)
            chosen.append(pool[j])
            pool[j] = pool[i - 1]
        chosen.sort()
        label_masks = [0] * k
        picked = 0
        for idx in chosen:
            lab = rng.randrange(k)
            label_masks[lab] |= comps[idx]
            picked |= comps[idx]
        rest = 0
        for c in comps:
            if not (c & picked):
                rest |= c
        label_masks[k - 1] |= rest
        if any(m == 0 for m in label_masks):
            self.seen.add("improper")
            return alive, False
        return self._crossing(label_masks), self._witnessed(label_masks)

    def _crossing(self, label_masks):
        out = 0
        for eid, em in enumerate(self.masks):
            inside = False
            for lm in label_masks:
                if em & lm == em:
                    inside = True
                    break
            if not inside:
                out |= 1 << eid
        return out


def _spanning_instance():
    # sigma_{k-1} = 3 and every edge has at least 5 of the 7 vertices, so
    # every alpha C(7-|e|, 3) is zero at the first level
    edges = [(0, 1, 2, 3, 4), (1, 2, 3, 4, 5, 6), (0, 2, 3, 5, 6),
             tuple(range(7))]
    return Hypergraph(7, edges, [(1,)] * 4, [(1,)] * 7)


# (id, instance, k, sizes, weighted_costs, the branch the shape must reach)
SHAPES = [
    ("n<k", Hypergraph(3, [(0, 1), (1, 2), (0, 2)]), 4, (1, 1, 1, 1), False,
     "infeasible"),
    ("base-only", gen_random_instance(4, 5, 3, 1, 1, seed=60,
                                      positive_weights=True),
     2, (2, 2), False, "base"),
    ("all-alpha-zero", _spanning_instance(), 2, (3, 3), False, "terminal"),
    ("improper", gen_random_instance(8, 12, 3, 1, 1, max_weight=4, seed=61,
                                     positive_weights=True),
     3, (1, 1, 1), False, "improper"),
    ("k2-weighted", gen_random_instance(9, 14, 4, 1, 1, max_weight=4,
                                        seed=62, positive_weights=True),
     2, (2, 1), True, "level"),
    ("k3", gen_random_instance(9, 13, 4, 1, 1, max_weight=3, seed=63,
                               positive_weights=True),
     3, (2, 1, 1), False, "level"),
    ("k4", gen_random_instance(10, 15, 3, 1, 1, max_weight=3, seed=64,
                               positive_weights=True),
     4, (1, 1, 1, 1), False, "level"),
    # sample size 2 from 24 live components, above the 21 where CPython's
    # rng.sample leaves the pool picks that the walk draws at every live
    ("set-branch", gen_random_instance(24, 30, 3, 1, 1, max_weight=3,
                                       seed=65, positive_weights=True),
     2, (1, 2), True, "level"),
    # sigma_{k-1} = 3: each candidate labels a sample of 6
    ("sample-6", gen_random_instance(11, 16, 3, 1, 1, max_weight=3, seed=66,
                                     positive_weights=True),
     3, (2, 2, 1), False, "level"),
]


def _same_runs(make_engine, make_reference, seed, runs):
    """Runs both walks on twin generators; returns the branches taken."""
    seen = set()
    for i in range(runs):
        engine, reference = make_engine(), make_reference()
        a, b = derive_rng(seed, i), derive_rng(seed, i)
        assert engine.run(a) == reference.run(b), i
        assert a.getstate() == b.getstate(), i
        seen |= reference.seen
    return seen


@pytest.mark.parametrize("G, k, sizes, weighted, branch",
                         [shape[1:] for shape in SHAPES],
                         ids=[shape[0] for shape in SHAPES])
def test_engine_walk_matches_reference_loop(G, k, sizes, weighted, branch):
    # one warm walk of each kind reused across runs
    engine = kcut_walk(G, k, sizes, weighted)
    reference = ReferenceWalker(G, k, sizes, weighted)
    seen = _same_runs(lambda: engine, lambda: reference, 70, 300)
    assert branch in seen
    # fresh walks for every run
    _same_runs(lambda: kcut_walk(G, k, sizes, weighted),
               lambda: ReferenceWalker(G, k, sizes, weighted), 71, 40)


class LabelListDecode:
    """A level candidate's outcome by a label list, with an uncapped memo
    of outcomes by label masks; ``ReferenceWalker`` computes each one."""

    def __init__(self, G, k, sizes):
        self.k = k
        self.walker = ReferenceWalker(G, k, sizes, False)
        self.sample_size = 2 * self.walker.sigma_lead
        self.memo = {}

    def labelled(self, comps, labels):
        label_masks = [0] * self.k
        for c, lab in zip(comps, labels):
            label_masks[lab] |= c
        key = tuple(label_masks)
        out = self.memo.get(key)
        if out is None:
            out = self.memo[key] = (self.walker._crossing(key),
                                    self.walker._witnessed(key))
        return out

    def settle(self, alive, comps, raws):
        labels = [self.k - 1] * len(comps)
        for idx, lab in _picks(raws, len(comps), self.sample_size):
            labels[idx] = lab
        if len(set(labels)) < self.k:
            return alive, False
        return self.labelled(comps, labels)


@pytest.mark.parametrize("k, sizes", [(2, (1, 1)), (2, (2, 2)),
                                      (3, (1, 1, 2))])
def test_mask_decode_matches_label_list_decode(k, sizes):
    # every raw draw of the levels at 7, 6 and 5 live components, one of
    # them merged from the first 2, 3 or 4 vertices; the picks' labels
    # can leave a part empty at every level
    G = gen_random_instance(8, 12, 3, 1, 1, max_weight=3, seed=67,
                            positive_weights=True)
    walk = kcut_walk(G, k, sizes)
    reference = LabelListDecode(G, k, sizes)
    seen = set()
    for merged in (0b11, 0b111, 0b1111):
        comps = contract_comps(initial_comps(G.n), merged)
        node = walk.expand(comps)
        assert node[0] == "level"
        draws, decode = node[1], node[-1]
        alive = ids_mask(present_edge_ids(G.edge_masks, comps))
        for raws in product(*(range(bound) for bound, _ in draws)):
            out = decode(comps, list(raws))
            assert out == reference.settle(alive, comps, list(raws)), raws
            seen.add(out[1] if out[0] != alive else "alive")
    assert {True, "alive"} <= seen


class Scripted:
    """A generator whose ``getrandbits`` returns the given values in turn."""

    def __init__(self, values):
        self.values = iter(values)

    def getrandbits(self, bits):
        r = next(self.values)
        assert 0 <= r < 1 << bits
        return r


def test_empty_part_settles_before_the_memo_is_read():
    # the triangle at k = 2, sizes (1, 1): a level at 3 live components
    # (2 picks, then a label for each), then a base draw at 2
    walk = kcut_walk(Hypergraph(3, [(0, 1), (1, 2), (0, 2)]), 2, (1, 1))
    # the base draw labels both components 1: its masks (0, 0b111) are
    # memoised as their crossing edges, none, and the level's candidate
    # loses its coin
    rng = Scripted([0, 0, 0, 0, 0, 1, 1, 1])
    assert walk.run(rng) == (0, False)
    # the level picks components 0 and 2 and labels both 1, the same masks
    # once the rest takes label 1; it survives, and an empty part settles
    # to every present edge
    rng = Scripted([0, 0, 1, 1, 0, 0, 0, 0])
    assert walk.run(rng) == (0b111, False)
    assert next(rng.values, None) is None
