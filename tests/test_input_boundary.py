"""Costs, weights, budgets, sizes and counts enter only through checked paths.

The solvers read edge costs and vertex weights from their ``Hypergraph``
alone, so no public function of the algorithm modules takes a ``costs`` or
``weights`` parameter.  Budget and size vectors and every count go through
``exact_int``/``exact_ints``: anything but an exact ``int`` (bools included)
raises ``InstanceError``, never ``TypeError`` and never a result.
"""

import inspect
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercuts import multiobjective, node_budgeted, size_constrained
from hypercuts.analysis import gen_random_instance
from hypercuts.harness import estimate, pipeline_equivalence, solve
from hypercuts.hypergraph import Hypergraph, InstanceError
from hypercuts.multiobjective import (enumerate_multiobjective,
                                      enumerate_pareto,
                                      verify_pareto_optimality)
from hypercuts.oracle import (build_catalog, oracle_bmulti, oracle_kcut,
                              oracle_min_cut, oracle_multiobjective,
                              oracle_nb_bmulti, oracle_pareto)
from hypercuts.sampling import best_of_n
from hypercuts.size_constrained import kcut_walk

ALGORITHM_MODULES = (multiobjective, node_budgeted, size_constrained)


def public_callables(module):
    for name, obj in sorted(vars(module).items()):
        if (not name.startswith("_") and callable(obj)
                and getattr(obj, "__module__", None) == module.__name__):
            yield name, obj


@pytest.mark.parametrize("module", ALGORITHM_MODULES,
                         ids=lambda m: m.__name__)
def test_no_public_callable_takes_costs_or_weights(module):
    names = [name for name, _ in public_callables(module)]
    assert names  # the scan sees the module's functions
    offenders = [name for name, obj in public_callables(module)
                 if {"costs", "weights"} & set(inspect.signature(obj).parameters)]
    assert offenders == []


def instance():
    # t_costs = 2, t_weights = 1 with positive weights: every solver applies
    return gen_random_instance(4, 6, 2, 2, 1, max_cost=5, seed=3,
                               positive_weights=True)


def cost_free_instance():
    return Hypergraph(4, [(0, 1), (1, 2), (2, 3)], [(), (), ()],
                      [(1,), (1,), (1,), (1,)], t_costs=0, t_weights=1)


REJECTED = {
    "bmulti float budget": lambda G: solve(G, "bmulti", budgets=(3.5,)),
    "bmulti bool budget": lambda G: solve(G, "bmulti", budgets=(True,)),
    "bmulti str budget": lambda G: solve(G, "bmulti", budgets=("3",)),
    "bmulti scalar budget": lambda G: solve(G, "bmulti", budgets=3),
    "nb float budget": lambda G: solve(G, "nb-bmulti-constant",
                                                budgets=(2.5,)),
    "nb arbitrary float budget": lambda G: solve(
        G, "nb-bmulti-arbitrary", budgets=(2.5,)),
    "kcut float size": lambda G: solve(G, "kcut", k=2, sizes=(1.5, 1)),
    "kcut float k": lambda G: solve(G, "kcut", k=2.0, sizes=(1, 1)),
    "kcut bool size": lambda G: solve(G, "kcut", k=2, sizes=(True, 1)),
    "estimate float budget": lambda G: estimate(G, "bmulti", budgets=(3.5,)),
    "estimate float node budget": lambda G: estimate(
        G, "nb-bmulti-constant", budgets=(2.5,), trials=10),
    "estimate float trials": lambda G: estimate(G, "hmincut", trials=50.0),
    "estimate zero jobs": lambda G: estimate(G, "hmincut", trials=10, jobs=0),
    "estimate negative jobs": lambda G: estimate(G, "hmincut", trials=10,
                                                 jobs=-2),
    "estimate float jobs": lambda G: estimate(G, "hmincut", trials=10,
                                              jobs=2.0),
    "hmincut float trials": lambda G: solve(G, "hmincut", trials=5.5),
    "bmulti bool trials": lambda G: solve(G, "bmulti", budgets=(3,),
                                              trials=True),
    "kcut float trials": lambda G: solve(G, "kcut", k=2, sizes=(1, 1),
                                             trials=3.0),
    "enumerate float repetitions": lambda G: enumerate_multiobjective(
        G, random.Random(0), 10.0),
    "pareto float verify repetitions": lambda G: enumerate_pareto(
        G, random.Random(0), 10, 5.0),
    "verify float repetitions": lambda G: verify_pareto_optimality(
        G, next(iter(build_catalog(G).costs)), random.Random(0), 2.5),
    "pipeline float runs": lambda G: pipeline_equivalence(G, 0, 1.0, 10, 10),
    "pipeline zero jobs": lambda G: pipeline_equivalence(G, 0, 1, 10, 10,
                                                         jobs=0),
}


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_non_integer_inputs_raise_instance_error(case):
    with pytest.raises(InstanceError):
        REJECTED[case](instance())


@pytest.mark.parametrize("call", [
    lambda G: solve(G, "kcut", k=2, sizes=(1, 1), trials=10,
                    weighted_costs=True),
    lambda G: estimate(G, "kcut", k=2, sizes=(1, 1), weighted_costs=True),
    lambda G: oracle_kcut(G, 2, (1, 1), weighted_costs=True),
    lambda G: solve(G, "hmincut", trials=10),
    lambda G: oracle_nb_bmulti(G, (2,)),
    lambda G: oracle_min_cut(build_catalog(G)),
    lambda G: oracle_multiobjective(build_catalog(G)),
    lambda G: oracle_pareto(build_catalog(G)),
    lambda G: oracle_bmulti(build_catalog(G), ()),
    lambda G: pipeline_equivalence(G, 0, 1),
], ids=["solve_kcut", "estimate", "oracle_kcut", "solve_hmincut",
        "oracle_nb_bmulti", "oracle_min_cut", "oracle_multiobjective",
        "oracle_pareto", "oracle_bmulti", "pipeline_equivalence"])
def test_edge_costs_needed_but_absent(call):
    with pytest.raises(InstanceError):
        call(cost_free_instance())


def test_unweighted_kcut_runs_without_cost_criteria():
    walk = kcut_walk(cost_free_instance(), 2, (1, 1))
    assert walk.value(0b111) == 3


non_ints = (st.floats(allow_nan=False) | st.booleans() | st.text(max_size=2)
            | st.fractions() | st.none())


class _Walk:
    """Stands in for a solver walk; a count that gets through runs it."""

    value = staticmethod(lambda mask: 0)

    def run(self, rng):
        raise AssertionError("ran with an unchecked count")


@given(st.data(), non_ints)
@settings(max_examples=150, deadline=None)
def test_non_int_vectors_and_counts_raise_only_instance_error(data, bad):
    G = instance()
    vector = data.draw(st.sampled_from([(bad,), (1, bad), bad]))
    calls = [
        lambda: solve(G, "bmulti", budgets=vector, trials=5),
        lambda: solve(G, "nb-bmulti-constant", budgets=vector,
                      trials=5),
        lambda: solve(G, "kcut", k=2, sizes=vector, trials=5),
        lambda: estimate(G, "bmulti", budgets=vector, trials=5),
        lambda: estimate(G, "kcut", k=2, sizes=vector, trials=5),
    ]
    if bad is not None:  # None selects the default count
        calls += [
            lambda: solve(G, "kcut", k=bad, sizes=(1, 1), trials=5),
            lambda: best_of_n(_Walk(), bad, 0),
            lambda: solve(G, "hmincut", trials=bad),
            lambda: estimate(G, "hmincut", trials=bad),
            lambda: estimate(G, "hmincut", trials=5, jobs=bad),
            lambda: enumerate_multiobjective(G, random.Random(0), bad),
            lambda: enumerate_pareto(G, random.Random(0), 5, bad),
            lambda: pipeline_equivalence(G, 0, bad, 5, 5),
        ]
    call = data.draw(st.sampled_from(calls))
    with pytest.raises(InstanceError):
        call()
