"""Costs, weights, budgets, sizes and counts enter only through checked paths.

The solvers read edge costs and vertex weights from their ``Hypergraph``
alone, so no public function of the algorithm modules takes a ``costs`` or
``weights`` parameter.  Budget and size vectors, every count and every seed
go through ``exact_int``/``exact_ints``: anything but an exact ``int`` (bools
included) raises ``InstanceError``, never ``TypeError`` and never a result.
So do the integers of every success floor, schedule, repetition default,
instance generator and seeding function, each with its minimum.  A cut's
edge ids go through ``Hypergraph.cut_ids`` the same way: ids of the
instance, strictly increasing.
"""

import inspect
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercuts import multiobjective, node_budgeted, size_constrained
from hypercuts.analysis import (LpInstance, gen_lower_bound_instance,
                                gen_random_instance, lemma_lp_sweep,
                                ratio_inequality_check,
                                ratio_inequality_sweep)
from hypercuts.harness import (best_of_n, estimate, pipeline_equivalence,
                               solve)
from hypercuts.hypergraph import Cut, Hypergraph, InstanceError
from hypercuts.multiobjective import (default_enum_repetitions,
                                      default_verify_repetitions,
                                      enumerate_multiobjective,
                                      enumerate_pareto,
                                      interleaving_schedules,
                                      success_floor_edge,
                                      verify_pareto_optimality)
from hypercuts.node_budgeted import (hmincut_walk, success_floor_node,
                                     success_floor_node_arbitrary)
from hypercuts.oracle import (build_catalog, is_cut, oracle_bmulti,
                              oracle_kcut, oracle_min_cut,
                              oracle_multiobjective, oracle_nb_bmulti,
                              oracle_pareto)
from hypercuts.sampling import derive_seed, trial_rngs
from hypercuts.size_constrained import kcut_walk, success_floor_size

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
    "hmincut_walk one vertex": lambda G: hmincut_walk(Hypergraph(1, [])),
}


def _all_trial_rngs(**kwargs):
    return list(trial_rngs(**kwargs))


# (name, function, valid keyword arguments, the minimum of each integer
# argument given the others, None for a seed).  Each such argument made a
# float, a bool or one below its minimum is a row of REJECTED.
INTEGER_ARGUMENTS = [
    ("LpInstance", LpInstance, {"r": 3, "gamma": 4, "n": 10, "f": {9: 1, 8: 1}},
     {"r": 2, "gamma": 4, "n": 4}),
    ("ratio_inequality_check", ratio_inequality_check,
     {"n": 10, "e": 2, "sigma": 2}, {"n": 1, "e": 2, "sigma": 1}),
    ("lemma_lp_sweep", lemma_lp_sweep, {"seed": 8, "count": 2},
     {"seed": None, "count": 1}),
    ("ratio_inequality_sweep", ratio_inequality_sweep, {"max_n": 6},
     {"max_n": 4}),
    ("gen_lower_bound_instance", gen_lower_bound_instance, {"n": 8, "t": 2},
     {"n": 4, "t": 1}),
    ("gen_random_instance", gen_random_instance,
     {"n": 6, "m": 9, "rank": 2, "t_costs": 2, "t_weights": 1, "max_cost": 8,
      "max_weight": 8, "seed": 0, "positive_weights": True},
     {"n": 2, "m": 0, "rank": 2, "t_costs": 0, "t_weights": 1, "max_cost": 0,
      "max_weight": 1, "seed": None}),
    *((fn.__name__, fn, {"n": 6, "r": 2, "t": 2}, {"n": 1, "r": 2, "t": 1})
      for fn in (success_floor_edge, interleaving_schedules,
                 default_enum_repetitions, default_verify_repetitions)),
    ("success_floor_node", success_floor_node, {"n": 6, "r": 2},
     {"n": 2, "r": 2}),
    ("success_floor_node_arbitrary", success_floor_node_arbitrary, {"n": 6},
     {"n": 2}),
    ("success_floor_size", success_floor_size, {"n": 6, "k": 2, "sizes": (1, 1)},
     {"n": 2, "k": 2}),
    ("derive_seed", derive_seed, {"master_seed": 5, "index": 3},
     {"master_seed": None, "index": 0}),
    ("trial_rngs", _all_trial_rngs, {"master_seed": 5, "start": 3, "count": 4},
     {"master_seed": None, "start": 0, "count": 0}),
]


def _spoiled(fn, kwargs, name, value):
    return lambda G: fn(**{**kwargs, name: value})


for _name, _fn, _kwargs, _minima in INTEGER_ARGUMENTS:
    for _arg, _least in _minima.items():
        _bad = {"float": float(_kwargs[_arg]), "bool": True}
        if _least is not None:
            _bad["below minimum"] = _least - 1
        for _kind, _value in _bad.items():
            REJECTED[f"{_name} {_kind} {_arg}"] = _spoiled(_fn, _kwargs, _arg,
                                                           _value)


def test_integer_arguments_are_valid_as_given():
    # each row spoils one argument of a call that succeeds
    for _, fn, kwargs, _ in INTEGER_ARGUMENTS:
        fn(**kwargs)


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
@settings(max_examples=150, deadline=None, derandomize=True,
          database=None)
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
    calls += [  # None is no seed either
        lambda: best_of_n(_Walk(), 5, bad),
        lambda: solve(G, "hmincut", trials=5, seed=bad),
        lambda: estimate(G, "hmincut", trials=5, seed=bad),
        lambda: pipeline_equivalence(G, bad, 1, 5, 5),
        lambda: gen_random_instance(6, 9, 2, 2, 0, seed=bad),
        lambda: derive_seed(bad, 0),
    ]
    calls += [  # no floor, schedule, default or generator takes None
        lambda: LpInstance(r=3, gamma=bad, n=10, f={9: 1, 8: 1}),
        lambda: ratio_inequality_check(10, bad, 2),
        lambda: gen_lower_bound_instance(8, bad),
        lambda: gen_random_instance(6, 9, 2, bad, 0),
        lambda: success_floor_edge(6, 2, bad),
        lambda: interleaving_schedules(6, bad, 2),
        lambda: default_enum_repetitions(bad, 2, 2),
        lambda: default_verify_repetitions(6, 2, bad),
        lambda: success_floor_node(bad, 2),
        lambda: success_floor_node_arbitrary(bad),
        lambda: success_floor_size(bad, 2, (1, 1)),
        lambda: derive_seed(0, bad),
        lambda: list(trial_rngs(0, bad, 3)),
        lambda: list(trial_rngs(0, 0, bad)),
    ]
    call = data.draw(st.sampled_from(calls))
    with pytest.raises(InstanceError):
        call()


@pytest.mark.parametrize("ids", [(-1,), (-1, 2), (9,), (99,), (1.0,),
                                 (3, 1), (2, 2)], ids=str)
def test_cut_ids_outside_the_instance_raise_instance_error(ids):
    # a negative id would index the edge costs from the end, and an id out
    # of order or repeated would count its costs twice
    G = gen_random_instance(6, 9, 2, 2, 0, max_cost=8, seed=3)
    with pytest.raises(InstanceError):
        is_cut(G, Cut(ids))
    with pytest.raises(InstanceError):
        verify_pareto_optimality(G, Cut(ids), random.Random(0), 50)
    with pytest.raises(InstanceError):
        G.cut_costs(Cut(ids))


def test_a_repeated_id_is_not_counted_twice():
    # (3, 6, 8) is pareto-optimal at costs (14, 2); summed with edge 3
    # twice it would cost (18, 2), and the verifier would refute it
    G = gen_random_instance(6, 9, 2, 2, 0, seed=16)
    cut = Cut((3, 6, 8))
    assert G.cut_costs(cut) == (14, 2)
    assert verify_pareto_optimality(G, cut, random.Random(0), 200)
    with pytest.raises(InstanceError, match="strictly increasing"):
        verify_pareto_optimality(G, Cut((3, 6, 8, 3)), random.Random(0), 200)


def test_a_fixed_target_out_of_order_names_its_ids():
    # the min cut is (0, 1, 5, 6): listed in reverse, the error names the
    # order of its ids, not the optimum
    G = gen_random_instance(6, 9, 2, 1, 0, seed=3)
    with pytest.raises(InstanceError, match="strictly increasing"):
        estimate(G, "hmincut", trials=10, fixed_target=Cut((6, 5, 1, 0)))
    rep = estimate(G, "hmincut", trials=10, fixed_target=Cut.of((6, 5, 1, 0)))
    assert rep.fixed_target == Cut((0, 1, 5, 6))
    assert rep.to_dict()["fixed_target"] == [0, 1, 5, 6]


# (name, call with the flag set to ``value``).  A flag is True or False, so
# no truthy object (a string "no", say) can switch it on.
BOOLEAN_FLAGS = [
    ("kcut_walk weighted_costs",
     lambda G, value: kcut_walk(G, 2, (1, 1), weighted_costs=value)),
    ("solve kcut weighted_costs",
     lambda G, value: solve(G, "kcut", k=2, sizes=(1, 1), trials=5,
                            weighted_costs=value)),
    ("oracle_kcut weighted_costs",
     lambda G, value: oracle_kcut(G, 2, (1, 1), weighted_costs=value)),
    ("oracle_kcut override_guard",
     lambda G, value: oracle_kcut(G, 2, (1, 1), override_guard=value)),
    ("build_catalog override_guard",
     lambda G, value: build_catalog(G, override_guard=value)),
    ("oracle_nb_bmulti override_guard",
     lambda G, value: oracle_nb_bmulti(G, (2,), override_guard=value)),
    ("gen_random_instance positive_weights",
     lambda G, value: gen_random_instance(6, 9, 2, 1, 1, seed=4,
                                          positive_weights=value)),
]


@pytest.mark.parametrize("value", ["no", 0, 1, None], ids=repr)
@pytest.mark.parametrize("name, call", BOOLEAN_FLAGS,
                         ids=[name for name, _ in BOOLEAN_FLAGS])
def test_boolean_flags_take_only_booleans(name, call, value):
    G = instance()
    for flag in (True, False):
        call(G, flag)
    with pytest.raises(InstanceError, match=name.split()[-1]):
        call(G, value)


def test_a_string_flag_neither_weighs_cuts_nor_passes_the_guard():
    G = gen_random_instance(6, 9, 2, 1, 1, seed=4, positive_weights=True)
    assert kcut_walk(G, 2, (1, 1), weighted_costs=True).value(0b111) == 11
    assert kcut_walk(G, 2, (1, 1), weighted_costs=False).value(0b111) == 3
    big = Hypergraph(22, [(v, v + 1) for v in range(21)], [(1,)] * 21)
    for value in ("no", False):
        with pytest.raises(InstanceError, match="guard"):
            build_catalog(big, override_guard=value)
