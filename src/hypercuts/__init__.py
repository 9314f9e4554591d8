"""Random-contraction algorithms for multicriteria hypergraph cuts.

Library layout:

* ``hypergraph``      core types (Hypergraph, Cut, KPartition), the cut
                      primitives and instance (de)serialization
* ``_engine``         partitions as component bitmasks and the cached walk
* ``multiobjective``  edge-cost budgeted min-cut, enumeration and pareto pipelines
* ``node_budgeted``   node-weight budgeted variants and plain hypergraph min-cut
* ``size_constrained`` size-constrained min-k-cut
* ``oracle``          exhaustive ground truth for small instances
* ``analysis``        closed-form checks and instance generators
* ``harness``         Monte-Carlo floor estimation against the oracles
* ``cli``             the ``hypercuts`` command-line front end
"""

from .hypergraph import (Cut, KPartition, Hypergraph, InstanceError,
                         INFEASIBLE, delta, delta_partition, cut_cost,
                         load_instance, save_instance)

__version__ = "0.1.0"

__all__ = [
    "Cut", "KPartition", "Hypergraph", "InstanceError", "INFEASIBLE",
    "delta", "delta_partition", "cut_cost",
    "load_instance", "save_instance", "__version__",
]
