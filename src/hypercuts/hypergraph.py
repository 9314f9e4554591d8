"""Vertex-weighted, multi-cost hypergraphs and the contraction primitive.

A hypergraph holds n vertices (ids 0..n-1), an ordered list of hyperedges
with stable ids 0..m-1 (duplicates allowed, each with its own id), a vector
of non-negative integer costs per edge (one entry per cost criterion) and a
vector of non-negative integer weights per vertex (one entry per weight
criterion).  Costs and weights are exact integers throughout: dominance and
budget comparisons never involve floating point.

Contraction states are partitions of the vertex set, kept as sorted tuples
of component bitmasks (see ``_engine``); the hypergraph itself is never
modified.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

from ._engine import ids_mask

__all__ = [
    "Cut",
    "Hypergraph",
    "InstanceError",
    "INFEASIBLE",
    "delta_partition",
    "load_instance",
    "save_instance",
]


class InstanceError(ValueError):
    """Raised for malformed instance documents or invalid constructions."""


class _Infeasible:
    """Distinguished 'no feasible solution' outcome (not an error)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFEASIBLE"

    def __bool__(self):
        return False


INFEASIBLE = _Infeasible()


@dataclass(frozen=True)
class Cut:
    """A cut as a canonical (sorted, deduplicated) tuple of original edge ids."""

    edge_ids: tuple[int, ...]

    @staticmethod
    def of(ids) -> "Cut":
        return Cut(tuple(sorted(set(ids))))

    @staticmethod
    def from_mask(mask: int) -> "Cut":
        ids = []
        i = 0
        while mask:
            if mask & 1:
                ids.append(i)
            mask >>= 1
            i += 1
        return Cut(tuple(ids))

    def mask(self) -> int:
        return ids_mask(self.edge_ids)

    def __iter__(self):
        return iter(self.edge_ids)

    def __len__(self):
        return len(self.edge_ids)

    def __contains__(self, eid):
        return eid in self.edge_ids


def exact_int(value, what: str, minimum: int | None = None) -> int:
    """``value`` if it is an int (at least ``minimum``, when given); bools
    and every other type are rejected, so no count, id, cost, weight or LP
    parameter is ever truncated or coerced."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise InstanceError(f"{what} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise InstanceError(f"{what} must be >= {minimum}, got {value}")
    return value


def exact_ints(values, length: int, what: str,
               minimum: int = 0) -> tuple[int, ...]:
    """``values`` as a tuple of ``length`` exact ints, each at least
    ``minimum``: the one way budget and size vectors enter an algorithm."""
    try:
        values = tuple(values)
    except TypeError:
        raise InstanceError(f"{what}s must be a sequence of integers, "
                            f"got {values!r}") from None
    if len(values) != length:
        raise InstanceError(f"expected {length} {what}s, got {len(values)}")
    for value in values:
        exact_int(value, what, minimum)
    return values


class Hypergraph:
    """Immutable hypergraph with per-edge cost vectors and per-vertex weights."""

    def __init__(self, n, edges, edge_costs=None, vertex_weights=None,
                 t_costs=None, t_weights=None):
        exact_int(n, "vertex count", 1)
        for count, what in ((t_costs, "t_costs"), (t_weights, "t_weights")):
            if count is not None:
                exact_int(count, what, 0)
        self.n = n
        self.edges = []
        for e in edges:
            vs = tuple(sorted({exact_int(v, "vertex id") for v in e}))
            if len(vs) < 2:
                raise InstanceError(f"hyperedge {e!r} has fewer than 2 distinct vertices")
            if vs[0] < 0 or vs[-1] >= n:
                raise InstanceError(f"hyperedge {e!r} mentions an unknown vertex")
            self.edges.append(vs)
        self.m = len(self.edges)

        if edge_costs is None:
            edge_costs = [(1,) * (t_costs if t_costs is not None else 1)] * self.m
        if len(edge_costs) != self.m:
            raise InstanceError("edge_costs must have one row per edge")
        if t_costs is not None:
            self.t_costs = t_costs
        else:
            self.t_costs = len(edge_costs[0]) if self.m else 0
        self.edge_costs = []
        for row in edge_costs:
            row = tuple(exact_int(c, "edge cost") for c in row)
            if len(row) != self.t_costs:
                raise InstanceError("cost rows must all have the same length")
            if any(c < 0 for c in row):
                raise InstanceError("edge costs must be non-negative")
            self.edge_costs.append(row)

        if vertex_weights is None:
            vertex_weights = [(() if t_weights is None else (0,) * t_weights)] * n
        if len(vertex_weights) != n:
            raise InstanceError("vertex_weights must have one row per vertex")
        if t_weights is not None:
            self.t_weights = t_weights
        else:
            self.t_weights = len(vertex_weights[0]) if n else 0
        self.vertex_weights = []
        for row in vertex_weights:
            row = tuple(exact_int(w, "vertex weight") for w in row)
            if len(row) != self.t_weights:
                raise InstanceError("weight rows must all have the same length")
            if any(w < 0 for w in row):
                raise InstanceError("vertex weights must be non-negative")
            self.vertex_weights.append(row)

        # Bitmask per edge over vertex ids; used by every algorithm hot path.
        self.edge_masks = []
        for vs in self.edges:
            m = 0
            for v in vs:
                m |= 1 << v
            self.edge_masks.append(m)
        self.full_mask = (1 << n) - 1

    @property
    def rank(self) -> int:
        """Size of the largest hyperedge (2 for an edgeless hypergraph)."""
        return max((len(e) for e in self.edges), default=2)

    def costs_by_criterion(self) -> list[list[int]]:
        """Transpose of edge_costs: one integer list per criterion.  Every
        algorithm reads its edge costs here, so this is where an instance
        without cost criteria is rejected."""
        if self.t_costs < 1:
            raise InstanceError("instance carries no edge costs")
        return [[row[i] for row in self.edge_costs] for i in range(self.t_costs)]

    def weights_by_criterion(self) -> list[list[int]]:
        """Transpose of vertex_weights: one integer list per criterion
        (none when the instance carries no weights)."""
        return [[row[i] for row in self.vertex_weights]
                for i in range(self.t_weights)]

    def cut_costs(self, cut: Cut) -> tuple[int, ...]:
        totals = [0] * self.t_costs
        for eid in cut.edge_ids:
            row = self.edge_costs[eid]
            for i in range(self.t_costs):
                totals[i] += row[i]
        return tuple(totals)

    def __repr__(self):
        return (f"Hypergraph(n={self.n}, m={self.m}, rank={self.rank}, "
                f"t_costs={self.t_costs}, t_weights={self.t_weights})")


def delta_partition(G: Hypergraph, labels) -> Cut:
    """Cut of edges whose vertex labels are non-constant, for a label tuple
    with one entry per vertex."""
    if len(labels) != G.n:
        raise InstanceError("partition must label every vertex")
    ids = []
    for eid, vs in enumerate(G.edges):
        first = labels[vs[0]]
        if any(labels[v] != first for v in vs[1:]):
            ids.append(eid)
    return Cut(tuple(ids))


_FIELDS = ("n", "t_costs", "t_weights", "edges", "edge_costs", "vertex_weights")


def _rows(doc, field: str) -> list:
    rows = doc[field]
    if not isinstance(rows, (list, tuple)) or \
            not all(isinstance(row, (list, tuple)) for row in rows):
        raise InstanceError(f"{field} must be a list of lists")
    return rows


def load_instance(data) -> Hypergraph:
    """Parse an instance document (JSON bytes/str or an already-parsed dict).

    Every count, vertex id, cost and weight must be a JSON integer; anything
    else (floats, booleans, strings) raises InstanceError.  Size-1 hyperedges
    are dropped with a warning (they cross no cut); edge ids are re-numbered
    0..m-1 over the surviving edges.
    """
    if isinstance(data, (bytes, bytearray, str)):
        try:
            doc = json.loads(data)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise InstanceError(f"malformed instance document: {exc}") from exc
    else:
        doc = data
    if not isinstance(doc, dict):
        raise InstanceError("instance document must be a JSON object")
    missing = [f for f in _FIELDS if f not in doc]
    if missing:
        raise InstanceError(f"instance document missing fields: {missing}")

    for field in ("n", "t_costs", "t_weights"):
        exact_int(doc[field], field)
    doc_edges = _rows(doc, "edges")
    doc_costs = _rows(doc, "edge_costs")
    if len(doc_costs) != len(doc_edges):
        raise InstanceError("edge_costs must have one row per edge")
    edges, costs = [], []
    for idx, e in enumerate(doc_edges):
        if len(e) == 0:
            raise InstanceError(f"edge {idx} is empty")
        if len({exact_int(v, "vertex id") for v in e}) == 1:
            warnings.warn(f"dropping size-1 hyperedge {idx} (crosses no cut)",
                          stacklevel=2)
            continue
        edges.append(e)
        costs.append(doc_costs[idx])

    return Hypergraph(doc["n"], edges, costs, _rows(doc, "vertex_weights"),
                      t_costs=doc["t_costs"], t_weights=doc["t_weights"])


def save_instance(G: Hypergraph) -> bytes:
    doc = {
        "n": G.n,
        "t_costs": G.t_costs,
        "t_weights": G.t_weights,
        "edges": [list(e) for e in G.edges],
        "edge_costs": [list(c) for c in G.edge_costs],
        "vertex_weights": [list(w) for w in G.vertex_weights],
    }
    return json.dumps(doc, sort_keys=True).encode()
