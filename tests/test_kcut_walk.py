"""The k-cut walk on the engine against the level loop it replaced.

``ReferenceWalker`` is the size-constrained walker as it was written before
it ran on ``_engine.Walk``: its own level loop, state cache and start state,
except that its candidate's picks are a partial Fisher-Yates shuffle at
every component count, where that walker called ``rng.sample``.  The engine
walk must return the same outcome from the same generator calls, so after
every run both generators must be in the same state.  The reference also
records which branches a run took, so each shape below is checked to reach
the branch it is named after.
"""

from bisect import bisect_right
from math import comb

import pytest

from hypercuts._engine import (contract_comps, ids_mask, initial_comps,
                               mask_sum, present_edge_ids, sample_node)
from hypercuts.analysis import gen_random_instance
from hypercuts.hypergraph import Hypergraph, INFEASIBLE
from hypercuts.sampling import derive_rng
from hypercuts.size_constrained import kcut_walk


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
