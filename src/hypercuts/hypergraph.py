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


@dataclass(frozen=True, slots=True)
class Cut:
    """A cut as a canonical (sorted, deduplicated) tuple of original edge ids."""

    edge_ids: tuple[int, ...]

    @staticmethod
    def of(ids) -> "Cut":
        return Cut(tuple(sorted(set(ids))))

    @staticmethod
    def from_mask(mask: int) -> "Cut":
        # bin(mask)[:1:-1] lists the bits lowest first
        return Cut(tuple([i for i, bit in enumerate(bin(mask)[:1:-1])
                          if bit == "1"]))

    def mask(self) -> int:
        return ids_mask(self.edge_ids)


def exact_int(value, what: str, minimum: int | None = None) -> int:
    """``value`` if it is an int (at least ``minimum``, when given); bools
    and every other type are rejected, so no count, id, cost, weight or LP
    parameter is ever truncated or coerced."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise InstanceError(f"{what} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise InstanceError(f"{what} must be >= {minimum}, got {value}")
    return value


def exact_bool(value, what: str) -> bool:
    """``value`` if it is True or False; a flag is never read from a truthy
    int, string or None."""
    if value is not True and value is not False:
        raise InstanceError(f"{what} must be True or False, got {value!r}")
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


def _table(rows, count: int, width: int | None, owner: str, noun: str):
    """``(width, rows)`` for a cost or weight table: ``count`` rows (one per
    edge or vertex) of ``width`` non-negative exact ints each, ``width``
    being the first row's length when None (0 without rows)."""
    if len(rows) != count:
        raise InstanceError(f"{owner}_{noun}s must have one row per {owner}")
    if width is None:
        width = len(rows[0]) if count else 0
    what = f"{owner} {noun}"
    table = []
    for row in rows:
        row = tuple(exact_int(x, what, 0) for x in row)
        if len(row) != width:
            raise InstanceError(f"{noun} rows must all have the same length")
        table.append(row)
    return width, table


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
            edge_costs = [(1,) * (1 if t_costs is None else t_costs)] * self.m
        self.t_costs, self.edge_costs = _table(edge_costs, self.m, t_costs,
                                               "edge", "cost")
        if vertex_weights is None:
            vertex_weights = [(0,) * (t_weights or 0)] * n
        self.t_weights, self.vertex_weights = _table(
            vertex_weights, n, t_weights, "vertex", "weight")
        # Bitmask per edge over vertex ids; used by every algorithm hot path.
        self.edge_masks = [ids_mask(vs) for vs in self.edges]
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

    def cut_ids(self, cut: Cut) -> tuple[int, ...]:
        """``cut``'s edge ids, checked to be this hypergraph's edge ids in the
        strictly increasing form of ``Cut.of``: none negative, none twice."""
        for last, eid in zip((-1, *cut.edge_ids), cut.edge_ids):
            if not last < exact_int(eid, "edge id") < self.m:
                ids = (f"this instance's edge ids are 0..{self.m - 1}, strictly "
                       "increasing" if self.m else "this instance has no edges")
                raise InstanceError(f"cut names edge {eid}; {ids}")
        return cut.edge_ids

    def cut_costs(self, cut: Cut) -> tuple[int, ...]:
        totals = [0] * self.t_costs
        for eid in self.cut_ids(cut):
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

    # the constructor's minimums, so a bad count is named before any row is
    # checked against it
    for field, minimum in (("n", 1), ("t_costs", 0), ("t_weights", 0)):
        exact_int(doc[field], field, minimum)
    doc_edges = _rows(doc, "edges")
    # every edge's row, a dropped edge's too, is checked before the drop
    _, doc_costs = _table(_rows(doc, "edge_costs"), len(doc_edges),
                          doc["t_costs"], "edge", "cost")
    edges, costs = [], []
    for idx, e in enumerate(doc_edges):
        if len(e) == 0:
            raise InstanceError(f"edge {idx} is empty")
        vs = {exact_int(v, "vertex id") for v in e}
        if not all(0 <= v < doc["n"] for v in vs):
            raise InstanceError(f"hyperedge {e!r} mentions an unknown vertex")
        if len(vs) == 1:
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
