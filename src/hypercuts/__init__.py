"""Random-contraction algorithms for multicriteria hypergraph cuts.

Library layout:

* ``hypergraph``      core types (Hypergraph, Cut), exact-integer input
                      checks and instance (de)serialization
* ``_engine``         partitions as component bitmasks and the cached walk
* ``sampling``        seeded per-trial generators and weighted-draw orders
* ``multiobjective``  edge-cost budgeted min-cut, enumeration and pareto pipelines
* ``node_budgeted``   node-weight budgeted variants and plain hypergraph min-cut
* ``size_constrained`` size-constrained min-k-cut
* ``oracle``          exhaustive ground truth for small instances
* ``analysis``        closed-form checks and sweeps, instance generators
* ``harness``         the seeded trial loops: best-of-N and floor checks
* ``cli``             the ``hypercuts`` command-line front end

Each randomized algorithm has two entry points: ``<algo>_walk(G, ...)``
builds the cached walk, whose ``run(rng)`` is one run, and
``harness.solve(G, algorithm, ...)`` keeps the best of N seeded runs.
"""

from .hypergraph import (Cut, Hypergraph, InstanceError, INFEASIBLE,
                         load_instance, save_instance)

__version__ = "0.1.0"

__all__ = [
    "Cut", "Hypergraph", "InstanceError", "INFEASIBLE",
    "load_instance", "save_instance", "__version__",
]
