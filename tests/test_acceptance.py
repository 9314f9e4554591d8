"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Statistical criteria use the one-sided 3-sigma policy: the algorithms come
with proven success-probability floors, so a check passes when the empirical
frequency is at most three binomial standard deviations below its floor.
Exact criteria (counts, closed forms, containments) use no tolerance.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import math
import time
from fractions import Fraction
from itertools import product

from hypercuts.analysis import (LpInstance, gen_lower_bound_instance,
                                gen_random_instance, lp_bruteforce,
                                lp_closed_form, ratio_inequality_check)
from hypercuts.harness import estimate, pipeline_equivalence
from hypercuts.hypergraph import Cut, Hypergraph
from hypercuts.multiobjective import verify_pareto_optimality
from hypercuts.node_budgeted import (hmincut_walk, success_floor_node,
                                     success_floor_node_arbitrary)
from hypercuts.oracle import (build_catalog, oracle_min_cut,
                              oracle_multiobjective, oracle_parametric_t2,
                              oracle_pareto)
from hypercuts.sampling import derive_rng, derive_seed
from hypercuts.size_constrained import kcut_walk, success_floor_size
from instances import (gen_multiobjective_not_pareto_instance,
                       gen_pareto_not_parametric_instance)

import random


def _report(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def _median_budget(catalog):
    values = sorted(cost[0] for cost in catalog.costs.values())
    return (values[len(values) // 2],)


def test_criterion_1_bmulti_floor():
    """Budgeted min-cut empirical frequency clears its floor on 10 instances."""
    t0 = time.time()
    results = []
    for i in range(10):
        rank = 2 if i < 5 else 3
        G = gen_random_instance(6, 10, rank, 2, 0, max_cost=8, seed=100 + i)
        budgets = _median_budget(build_catalog(G))
        rep = estimate(G, "bmulti", budgets=budgets, seed=derive_seed(1, i))
        assert rep.trials == max(1000, math.ceil(30 / rep.floor))
        results.append(rep)
    elapsed = time.time() - t0
    ok = all(r.passed for r in results) and elapsed <= 120
    worst = min(r.z_slack for r in results)
    _report(1, ok, f"10 instances, min z-slack {worst:.1f}, {elapsed:.1f}s (limit 120s)")
    assert all(r.passed for r in results)
    assert elapsed <= 120


def _pipeline_corpus():
    return [gen_random_instance(6, m, 2, 2, 0, max_cost=8, seed=seed)
            for m, seed in ((9, 16), (10, 23), (11, 31), (9, 47), (10, 58))]


def test_criterion_2_enumeration_pipelines():
    """Both enumeration pipelines equal the oracle sets in >= 18/20 runs."""
    t0 = time.time()
    multi_hits = pareto_hits = runs = 0
    for idx, G in enumerate(_pipeline_corpus()):
        report = pipeline_equivalence(G, seed=derive_seed(2, idx), runs=4)
        multi_hits += report["multi_exact_runs"]
        pareto_hits += report["pareto_exact_runs"]
        runs += report["runs"]
    elapsed = time.time() - t0
    ok = runs == 20 and multi_hits >= 18 and pareto_hits >= 18 and elapsed <= 600
    _report(2, ok, f"multi {multi_hits}/20 exact, pareto {pareto_hits}/20 exact, "
                   f"{elapsed:.0f}s (limit 600s)")
    assert multi_hits >= 18
    assert pareto_hits >= 18
    assert elapsed <= 600


def test_criterion_3_pareto_verifier():
    """Verifier: TRUE on all oracle-pareto cuts, FALSE on >= 95% of dominated."""
    true_ok = true_total = 0
    false_ok = false_total = 0
    for idx, G in enumerate(_pipeline_corpus()):
        catalog = build_catalog(G)
        pareto = oracle_pareto(catalog)
        rng = derive_rng(3, idx)
        for cut in sorted(pareto, key=lambda c: c.edge_ids):
            true_total += 1
            true_ok += verify_pareto_optimality(G, cut, rng)
        dominated = [c for c in catalog.costs if c not in pareto]
        for cut in sorted(dominated, key=lambda c: c.edge_ids):
            false_total += 1
            false_ok += not verify_pareto_optimality(G, cut, rng)
    ok = true_ok == true_total and false_ok >= 0.95 * false_total
    _report(3, ok, f"TRUE {true_ok}/{true_total} pareto, "
                   f"FALSE {false_ok}/{false_total} dominated")
    assert true_ok == true_total
    assert false_ok >= 0.95 * false_total


def test_criterion_4_lower_bound_family():
    """Hub-path instances: exact pareto counts and equal cost vectors."""
    outcomes = []
    for n, t, min_count in ((8, 2, 9), (11, 3, 27)):
        G = gen_lower_bound_instance(n, t)
        catalog = build_catalog(G)
        pareto = oracle_pareto(catalog)
        groups = [[e for e in range(G.m) if G.edge_costs[e][i] == t + 1]
                  for i in range(t)]
        combos = {Cut.of(sel) for sel in product(*groups)}
        expected_combos = 1
        for g in groups:
            expected_combos *= len(g)
        scaled = tuple(2 * t for _ in range(t))
        outcomes.append((
            len(pareto) >= min_count,
            len(combos) == expected_combos == (4 ** t),
            combos <= pareto,
            all(catalog.costs[c] == scaled for c in combos),
        ))
    ok = all(all(o) for o in outcomes)
    _report(4, ok, f"(8,2): pareto>=9 with all 16 one-edge-per-path cuts; "
                   f"(11,3): pareto>=27 with all 64; equal cost vectors")
    assert ok


def test_criterion_5_node_budgeted_floors():
    """Node-budgeted algorithms clear their floors (constant and arbitrary rank)."""
    t0 = time.time()
    reports = []
    for i, seed in enumerate((12, 26, 39)):
        G = gen_random_instance(6, 10, 3, 1, 1, max_cost=8, max_weight=8,
                                seed=seed)
        assert G.rank == 3
        weights = sorted(w[0] for w in G.vertex_weights)
        rep = estimate(G, "nb-bmulti-constant", budgets=(weights[3],),
                       seed=derive_seed(5, i))
        assert rep.floor == success_floor_node(6, 3) == Fraction(1, 240)
        reports.append(rep)
    for i, seed in enumerate((13, 27, 41)):
        G = gen_random_instance(6, 9, 5, 1, 1, max_cost=8, max_weight=8,
                                seed=seed)
        weights = sorted(w[0] for w in G.vertex_weights)
        rep = estimate(G, "nb-bmulti-arbitrary", budgets=(weights[3],),
                       seed=derive_seed(5, 10 + i))
        assert rep.floor == success_floor_node_arbitrary(6) == Fraction(1, 30)
        reports.append(rep)
    elapsed = time.time() - t0
    ok = all(r.passed for r in reports) and elapsed <= 180
    worst = min(r.z_slack for r in reports)
    _report(5, ok, f"6 instances, min z-slack {worst:.1f}, "
                   f"{elapsed:.1f}s (limit 180s)")
    assert all(r.passed for r in reports)
    assert elapsed <= 180


def test_criterion_6_hypergraph_min_cut_floor_and_best_of():
    """Non-uniform min-cut floor, plus best-of-batch agreement >= 95/100."""
    G = gen_random_instance(6, 9, 5, 1, 0, max_cost=8, seed=14)
    assert G.rank == 5
    rep = estimate(G, "hmincut", seed=derive_seed(6, 0))
    assert rep.floor == Fraction(1, 15)

    value, _ = oracle_min_cut(build_catalog(G))
    batch_size = math.ceil(math.comb(6, 2) * math.log(6))
    walk = hmincut_walk(G)
    batches_ok = 0
    for b in range(100):
        best = None
        for j in range(batch_size):
            mask, _ = walk.run(derive_rng(derive_seed(6, 1 + b), j))
            cut = Cut.from_mask(mask)
            cost = sum(G.edge_costs[e][0] for e in cut.edge_ids)
            best = cost if best is None else min(best, cost)
        batches_ok += best == value
    ok = rep.passed and batches_ok >= 95
    _report(6, ok, f"floor z-slack {rep.z_slack:.1f}; "
                   f"best-of-{batch_size} matched oracle min in {batches_ok}/100 batches")
    assert rep.passed
    assert batches_ok >= 95


def test_criterion_7_size_constrained_floor_and_obliviousness():
    """Size-constrained k-cut floors plus byte-exact weight obliviousness."""
    t0 = time.time()
    reports = []
    G7 = gen_random_instance(7, 9, 3, 1, 1, max_weight=4, seed=15,
                             positive_weights=True)
    reports.append(estimate(G7, "kcut", k=2, sizes=(1, 1), seed=derive_seed(7, 0)))
    G6 = gen_random_instance(6, 8, 3, 1, 1, max_weight=4, seed=15,
                             positive_weights=True)
    reports.append(estimate(G6, "kcut", k=2, sizes=(1, 1), seed=derive_seed(7, 1)))
    reports.append(estimate(G6, "kcut", k=3, sizes=(1, 1, 2), seed=derive_seed(7, 2)))
    assert reports[0].floor == success_floor_size(7, 2, (1, 1)) == Fraction(1, 588)
    assert reports[2].floor == success_floor_size(6, 3, (1, 1, 2))

    # weight obliviousness: same seed, different weight annotations
    other = Hypergraph(G6.n, G6.edges, G6.edge_costs,
                       [((w[0] * 5 + 2),) for w in G6.vertex_weights])
    # compares the cuts only: the witnessed flag reads the weights
    walk_a, walk_b = kcut_walk(G6, 3, (1, 1, 2)), kcut_walk(other, 3, (1, 1, 2))
    oblivious = True
    for i in range(100):
        a = Cut.from_mask(walk_a.run(derive_rng(71, i))[0])
        b = Cut.from_mask(walk_b.run(derive_rng(71, i))[0])
        oblivious &= json.dumps(list(a.edge_ids)) == json.dumps(list(b.edge_ids))
    elapsed = time.time() - t0
    ok = all(r.passed for r in reports) and oblivious
    worst = min(r.z_slack for r in reports)
    _report(7, ok, f"3 floor checks (min z-slack {worst:.1f}), "
                   f"weight-oblivious over 100 seeds, {elapsed:.0f}s")
    assert all(r.passed for r in reports)
    assert oblivious


def test_criterion_8_lp_closed_form_sweep():
    """Closed-form LP optimum equals brute force on a 500-instance sweep."""
    rng = random.Random(8)
    mismatches = 0
    for _ in range(500):
        r = rng.randrange(2, 7)
        gamma = rng.randrange(r + 1, 13)
        n = gamma + rng.randrange(0, 9)
        f = {n - j + 1: Fraction(rng.randrange(1, 100), rng.randrange(1, 10))
             for j in range(2, r + 1)}
        inst = LpInstance(r=r, gamma=gamma, n=n, f=f)
        mismatches += lp_closed_form(inst) != lp_bruteforce(inst)
    ok = mismatches == 0
    _report(8, ok, f"500 instances (gamma<=12, r<=6), {mismatches} mismatches")
    assert mismatches == 0


def test_criterion_9_ratio_inequality_sweep():
    """Binomial ratio inequality holds exhaustively for n <= 30."""
    cases = violations = 0
    for n in range(1, 31):
        for e in range(2, n + 1):
            sigma = 1
            while n - e + 1 > 2 * sigma:
                cases += 1
                violations += not ratio_inequality_check(n, e, sigma)
                sigma += 1
    ok = violations == 0 and cases > 0
    _report(9, ok, f"{cases} (n,e,sigma) triples, {violations} violations")
    assert violations == 0


def test_criterion_10_containment_chain():
    """Parametric <= pareto <= multiobjective on 50 instances, strict somewhere."""
    rng = random.Random(10)
    instances = [gen_pareto_not_parametric_instance(),
                 gen_multiobjective_not_pareto_instance()]
    while len(instances) < 50:
        n = rng.randrange(4, 8)
        m = rng.randrange(n, n + 6)
        instances.append(gen_random_instance(n, m, 2, 2, 0, max_cost=8,
                                             seed=rng.randrange(10 ** 6)))
    holds = 0
    strict_pp = strict_pm = False
    for G in instances:
        catalog = build_catalog(G)
        parametric = oracle_parametric_t2(catalog)
        pareto = oracle_pareto(catalog)
        multi = oracle_multiobjective(catalog)
        holds += parametric <= pareto <= multi
        strict_pp |= parametric < pareto
        strict_pm |= pareto < multi
    ok = holds == 50 and strict_pp and strict_pm
    _report(10, ok, f"containments hold on {holds}/50 instances; "
                    f"strict parametric<pareto: {strict_pp}, "
                    f"strict pareto<multiobjective: {strict_pm}")
    assert holds == 50
    assert strict_pp and strict_pm
