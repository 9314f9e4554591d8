"""Hand-built instances the tests share."""

from hypercuts import Hypergraph


def gen_pareto_not_parametric_instance() -> Hypergraph:
    """Triangle whose third cut is pareto-optimal but sits strictly above the
    lower convex envelope of the other two, hence is not a parametric min-cut.

    Cut cost vectors: (1,4), (4,1) and (3,3).
    """
    edges = [(0, 1), (0, 2), (1, 2)]
    costs = [(1, 1), (0, 3), (3, 0)]
    return Hypergraph(3, edges, costs, t_weights=0)


def gen_multiobjective_not_pareto_instance() -> Hypergraph:
    """Triangle with a budget-optimal cut that is dominated.

    Cut cost vectors: (2,4), (6,2) and (4,4); the (4,4) cut ties the budget
    optimum at b=(4,) yet is dominated by (2,4).
    """
    edges = [(0, 1), (0, 2), (1, 2)]
    costs = [(2, 1), (0, 3), (4, 1)]
    return Hypergraph(3, edges, costs, t_weights=0)
