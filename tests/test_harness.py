import math
from fractions import Fraction

import pytest

from hypercuts import harness, sampling
from hypercuts.analysis import gen_random_instance
from hypercuts.harness import (PROBLEMS, TrialReport, default_trials,
                               estimate, instance_digest, pipeline_equivalence,
                               solve)
from hypercuts.hypergraph import Cut, Hypergraph, InstanceError, INFEASIBLE
from hypercuts.node_budgeted import nb_arbitrary_walk
from hypercuts.oracle import build_catalog, oracle_bmulti, oracle_nb_bmulti
from hypercuts.sampling import BestOf, best_of_n, derive_rng
from hypercuts.size_constrained import kcut_walk


def small_instance():
    return gen_random_instance(6, 9, 2, 2, 0, max_cost=8, seed=16)


def budgets_for(G):
    cat = build_catalog(G)
    c1 = sorted(cost[0] for cost in cat.costs.values())
    return (c1[len(c1) // 2],)


def test_default_trials():
    assert default_trials(Fraction(1, 240)) == 7200
    assert default_trials(Fraction(1, 2)) == 1000
    with pytest.raises(InstanceError):
        default_trials(Fraction(0))


def _nb_instance(n, rank, seed):
    G = gen_random_instance(n, 2 * n, rank, 1, 1, max_cost=5, seed=seed)
    assert (G.n, G.rank) == (n, rank)
    return G


# Each shape has 30/floor > 1000, so a wrong floor changes the count.
@pytest.mark.parametrize("run, trials", [
    # 30 / (1/240): success_floor_edge(6, 2, 2)
    (lambda: solve(small_instance(), "bmulti",
                   budgets=budgets_for(small_instance())), 7200),
    # 30 / (1/240): success_floor_node(6, 3)
    (lambda: solve(_nb_instance(6, 3, 1), "nb-bmulti-constant",
                   budgets=(12,)), 7200),
    # 30 / (1/63): success_floor_node_arbitrary(8)
    (lambda: solve(_nb_instance(8, 2, 2), "nb-bmulti-arbitrary",
                   budgets=(12,)), 1890),
    # 30 / (1/360): success_floor_size(6, 2, (1, 1))
    (lambda: solve(small_instance(), "kcut", k=2, sizes=(1, 1)), 10800),
    # ceil(C(6,2) ln 6)
    (lambda: solve(small_instance(), "hmincut"), 27),
    # 30 / (1/C(9,2))
    (lambda: estimate(gen_random_instance(9, 14, 2, 1, 0, seed=5),
                      "hmincut"), 1080),
    # n < k: floor 1
    (lambda: estimate(Hypergraph(2, [(0, 1)]), "kcut", k=3,
                      sizes=(1, 1, 1)), 1000),
], ids=["bmulti", "nb-constant", "nb-arbitrary", "kcut", "hmincut",
        "estimate-hmincut", "estimate-kcut-n-below-k"])
def test_default_trial_counts(run, trials):
    assert run().trials == trials


def test_estimate_bmulti_report_fields():
    G = small_instance()
    rep = estimate(G, "bmulti", budgets=budgets_for(G), trials=2000, seed=3)
    assert rep.trials == 2000
    assert 0 <= rep.successes <= rep.trials
    assert rep.frequency == rep.successes / 2000
    assert rep.floor == Fraction(1, 240)
    assert rep.passed
    d = rep.to_dict()
    assert d["floor"] == "1/240"
    assert d["instance"] == instance_digest(G)


def test_estimate_reproducible():
    G = small_instance()
    a = estimate(G, "bmulti", budgets=budgets_for(G), trials=1500, seed=9)
    b = estimate(G, "bmulti", budgets=budgets_for(G), trials=1500, seed=9)
    assert a.to_dict() == b.to_dict()
    c = estimate(G, "bmulti", budgets=budgets_for(G), trials=1500, seed=10)
    assert c.successes != a.successes or c.seed != a.seed


def test_estimate_accepts_one_shot_budget_iterables():
    G = small_instance()
    budgets = budgets_for(G)
    want = estimate(G, "bmulti", budgets=budgets, trials=300, seed=5)
    got = estimate(G, "bmulti", budgets=iter(budgets), trials=300, seed=5)
    assert got.to_dict() == want.to_dict()
    H = gen_random_instance(6, 9, 2, 2, 1, max_cost=8, seed=16,
                            positive_weights=True)
    for algorithm in ("nb-bmulti-constant", "nb-bmulti-arbitrary"):
        want = estimate(H, algorithm, budgets=(20,), trials=300, seed=5)
        got = estimate(H, algorithm, budgets=iter((20,)), trials=300, seed=5)
        assert got.to_dict() == want.to_dict()
    want = estimate(H, "kcut", k=2, sizes=(1, 1), trials=300, seed=5)
    got = estimate(H, "kcut", k=2, sizes=iter((1, 1)), trials=300, seed=5)
    assert got.to_dict() == want.to_dict()


def test_solve_kcut_accepts_one_shot_sizes():
    # the default trial count reads the sizes after the walk is built
    H = gen_random_instance(6, 9, 2, 2, 1, max_cost=8, seed=16,
                            positive_weights=True)
    assert (solve(H, "kcut", k=2, sizes=iter((1, 2)))
            == solve(H, "kcut", k=2, sizes=(1, 2)))


def test_estimate_jobs_matches_serial():
    G = small_instance()
    serial = estimate(G, "bmulti", budgets=budgets_for(G), trials=800, seed=4)
    parallel = estimate(G, "bmulti", budgets=budgets_for(G), trials=800,
                        seed=4, jobs=2)
    assert serial.successes == parallel.successes


def _walked_report(algorithm, G, walk, optima, trials, seed):
    """The report ``estimate`` gives, from running every trial's walk."""
    outs = [walk.run(derive_rng(seed, idx)) for idx in range(trials)]
    if optima is INFEASIBLE:
        return TrialReport(algorithm, instance_digest(G), trials,
                           sum(out is INFEASIBLE for out in outs), Fraction(1),
                           seed, note="instance infeasible; counting "
                           "INFEASIBLE agreement")
    masks = {cut.mask() for cut in optima}
    return TrialReport(algorithm, instance_digest(G), trials,
                       sum(out[0] in masks for out in outs), walk.floor, seed,
                       optima=len(optima))


# starts that are terminal: n < k, and one edge spanning every vertex
TERMINAL_STARTS = {
    "kcut-n-below-k": (Hypergraph(2, [(0, 1)]), "kcut",
                       {"k": 3, "sizes": (1, 1, 1)},
                       lambda G: kcut_walk(G, 3, (1, 1, 1)),
                       lambda G: INFEASIBLE),
    "nb-arbitrary-spanning-edge": (
        Hypergraph(3, [(0, 1, 2)], [(1,)], [(1,)] * 3),
        "nb-bmulti-arbitrary", {"budgets": (1,)},
        lambda G: nb_arbitrary_walk(G, (1,)),
        lambda G: oracle_nb_bmulti(G, (1,))[1]),
}


@pytest.mark.parametrize("case", sorted(TERMINAL_STARTS))
@pytest.mark.parametrize("jobs", [1, 2])
def test_estimate_counts_a_terminal_start_without_walking(case, jobs,
                                                          monkeypatch):
    G, algorithm, kwargs, make_walk, oracle = TERMINAL_STARTS[case]
    walk = make_walk(G)
    assert walk.expand(walk.start)[0] == "terminal"
    want = _walked_report(algorithm, G, walk, oracle(G), 1000, 5)
    calls = []
    monkeypatch.setattr(harness, "derive_rng",
                        lambda *args: calls.append(args))
    got = estimate(G, algorithm, seed=5, jobs=jobs, **kwargs)
    assert got == want
    assert calls == []


def test_estimate_fixed_target():
    G = small_instance()
    cat = build_catalog(G)
    optima = oracle_bmulti(cat, budgets_for(G))
    target = sorted(optima, key=lambda c: c.edge_ids)[0]
    rep = estimate(G, "bmulti", budgets=budgets_for(G), trials=1500, seed=6,
                   fixed_target=target)
    assert rep.passed
    with pytest.raises(InstanceError):
        estimate(G, "bmulti", budgets=budgets_for(G), trials=100, seed=6,
                 fixed_target=Cut.of([0]) if Cut.of([0]) not in optima
                 else Cut.of([0, 1]))


def test_estimate_infeasible_agreement():
    G = Hypergraph(3, [(0, 1), (1, 2)], [(1,), (1,)], [(9,), (9,), (9,)])
    rep = estimate(G, "nb-bmulti-arbitrary", budgets=(3,), trials=50, seed=0)
    assert rep.successes == rep.trials
    assert "infeasible" in rep.note


def test_estimate_rejects_empty_budget_set():
    G = small_instance()
    with pytest.raises(InstanceError):
        estimate(G, "bmulti", budgets=(0,), trials=10, seed=0)


def test_estimate_zero_trials():
    G = small_instance()
    with pytest.raises(InstanceError):
        estimate(G, "bmulti", budgets=budgets_for(G), trials=0, seed=0)


def test_estimate_unknown_algorithm():
    with pytest.raises(InstanceError):
        estimate(small_instance(), "nope", trials=10, seed=0)


def test_estimate_hmincut_and_kcut_quick():
    G = gen_random_instance(6, 9, 4, 1, 1, max_weight=4, seed=30,
                            positive_weights=True)
    rep = estimate(G, "hmincut", trials=1500, seed=2)
    assert rep.passed
    rep2 = estimate(G, "kcut", k=2, sizes=(1, 1), trials=3000, seed=2)
    assert rep2.passed


def test_trial_report_z_slack_degenerate_sigma():
    rep = TrialReport("x", "d", 10, 10, Fraction(1), 0)
    assert rep.z_slack == math.inf and rep.passed
    rep2 = TrialReport("x", "d", 10, 0, Fraction(1), 0)
    assert rep2.z_slack == -math.inf and not rep2.passed


def test_pipeline_equivalence_small():
    G = small_instance()
    report = pipeline_equivalence(G, seed=7, runs=3, repetitions=4000,
                                  verify_repetitions=2000)
    assert report["runs"] == 3
    assert report["multi_exact_runs"] == 3
    assert report["pareto_exact_runs"] == 3
    assert len(report["per_run"]) == 3


def test_pipeline_reports_misses_with_tiny_repetitions():
    G = small_instance()
    report = pipeline_equivalence(G, seed=7, runs=2, repetitions=1,
                                  verify_repetitions=1)
    # informational: misses appear in the report, nothing raises
    assert report["runs"] == 2
    assert all("multi_exact" in row for row in report["per_run"])


@pytest.mark.parametrize("verify_repetitions", [0, -5])
def test_pipeline_rejects_fewer_than_one_verify_repetition(verify_repetitions):
    with pytest.raises(InstanceError):
        pipeline_equivalence(small_instance(), seed=7, runs=1, repetitions=10,
                             verify_repetitions=verify_repetitions)


def test_pipeline_reproducible():
    G = small_instance()
    a = pipeline_equivalence(G, seed=8, runs=2, repetitions=500,
                             verify_repetitions=200)
    b = pipeline_equivalence(G, seed=8, runs=2, repetitions=500,
                             verify_repetitions=200)
    assert a == b


@pytest.mark.parametrize("solve", [
    lambda G: solve(G, "bmulti", budgets=(5,), trials=0),
    lambda G: solve(G, "bmulti", budgets=(), trials=5),
    lambda G: solve(G, "bmulti", budgets=(-1,), trials=5),
    lambda G: solve(G, "nb-bmulti-constant", budgets=(5,), trials=0),
    lambda G: solve(G, "nb-bmulti-arbitrary", budgets=(5,), trials=0),
    lambda G: solve(G, "nb-bmulti-constant", budgets=(5, 5), trials=5),
    lambda G: solve(G, "nb-bmulti-sideways", budgets=(5,), trials=5),
    lambda G: solve(G, "hmincut", trials=0),
    lambda G: solve(G, "kcut", k=2, sizes=(1, 1), trials=0),
    lambda G: solve(G, "kcut", k=3, sizes=(1, 1), trials=5),
    lambda G: solve(G, "kcut", k=2, sizes=(0, 1), trials=5),
    lambda G: solve(Hypergraph(2, [(0, 1)]), "kcut", k=3, sizes=(1, 1, 1),
                    trials=0),
])
def test_solve_validates_like_the_one_shot_solvers(solve):
    G = gen_random_instance(6, 9, 2, 2, 1, max_cost=8, seed=16,
                            positive_weights=True)
    with pytest.raises(InstanceError):
        solve(G)


def _nb_weighted_instance():
    return gen_random_instance(6, 9, 2, 2, 1, max_cost=8, seed=16,
                               positive_weights=True)


# one (instance, params, trials or None for the row's default) per row of
# PROBLEMS; a new row fails the test below until it has a case here
SOLVE_CASES = {
    "bmulti": (small_instance, lambda G: {"budgets": budgets_for(G)}, 3000),
    "nb-bmulti-constant": (_nb_weighted_instance,
                           lambda G: {"budgets": (20,)}, None),
    "nb-bmulti-arbitrary": (_nb_weighted_instance,
                            lambda G: {"budgets": (20,)}, None),
    "hmincut": (small_instance, lambda G: {}, None),
    "kcut": (small_instance, lambda G: {"k": 2, "sizes": (1, 2)}, None),
}


@pytest.mark.parametrize("algorithm", sorted(PROBLEMS))
def test_solve_best_of_n_reaches_the_oracle_optimum(algorithm):
    make, params_of, trials = SOLVE_CASES[algorithm]
    G = make()
    params = params_of(G)
    make_walk, oracle, _ = PROBLEMS[algorithm]
    optima = oracle(G, **params)
    assert optima is not INFEASIBLE
    best = solve(G, algorithm, trials=trials, seed=1, **params)
    walk = make_walk(G, **params)
    if trials is None:
        trials = (27 if algorithm == "hmincut"  # ceil(C(6,2) ln 6)
                  else default_trials(walk.floor))
    assert best.trials == trials and best.infeasible_runs == 0
    assert best.cut in optima
    assert best.value == walk.value(best.cut.mask())


@pytest.mark.parametrize("case", sorted(TERMINAL_STARTS))
def test_solve_counts_a_terminal_start_without_walking(case, monkeypatch):
    G, algorithm, kwargs, make_walk, _ = TERMINAL_STARTS[case]
    walk = make_walk(G)
    walk.fixed_outcome = lambda: None  # the reference runs every trial
    want = best_of_n(walk, None, 5)
    calls = []
    monkeypatch.setattr(sampling, "derive_rng",
                        lambda *args: calls.append(args))
    got = solve(G, algorithm, seed=5, **kwargs)
    assert got == want
    assert calls == []


def test_solve_kcut_below_k_finds_no_cut_on_every_trial():
    best = solve(Hypergraph(2, [(0, 1)]), "kcut", k=3, sizes=(1, 1, 1))
    assert best == BestOf(None, None, 1000, 1000)


def test_estimate_rejects_a_fixed_target_on_an_infeasible_instance():
    # no cut is optimal where no vertex set fits the budgets
    G = Hypergraph(3, [(0, 1), (1, 2)], [(1,), (1,)], [(9,), (9,), (9,)])
    with pytest.raises(InstanceError, match="not oracle-optimal"):
        estimate(G, "nb-bmulti-arbitrary", budgets=(3,), trials=50,
                 fixed_target=Cut.of([0]))


@pytest.mark.parametrize("run", [solve, estimate])
def test_an_unknown_keyword_raises_type_error(run):
    with pytest.raises(TypeError):
        run(small_instance(), "hmincut", trials=10, budgets=(3,))
