import copy
import dataclasses
import json
import pickle
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercuts._engine import (contract_comps, delta_mask, initial_comps,
                               mask_sum, present_edge_ids)
from hypercuts.hypergraph import (INFEASIBLE, Cut, Hypergraph, InstanceError,
                                  delta_partition, load_instance,
                                  save_instance)


def triangle():
    return Hypergraph(3, [(0, 1), (1, 2), (0, 2)], [(1,), (1,), (1,)])


def delta(G, side):
    """Cut of the edges crossing (side, complement)."""
    return Cut.from_mask(delta_mask(G.edge_masks, side, G.full_mask))


def test_constructor_validation():
    with pytest.raises(InstanceError):
        Hypergraph(3, [(0,)])
    with pytest.raises(InstanceError):
        Hypergraph(3, [(0, 5)])
    with pytest.raises(InstanceError):
        Hypergraph(3, [(0, 1)], [(-1,)])
    with pytest.raises(InstanceError):
        Hypergraph(3, [(0, 1)], [(1,)], [(0,), (-2,), (0,)])
    with pytest.raises(InstanceError):
        Hypergraph(0, [])
    # one cost row per edge and one weight row per vertex, each of one length
    with pytest.raises(InstanceError, match="one row per edge"):
        Hypergraph(3, [(0, 1)], [(1,), (1,)])
    with pytest.raises(InstanceError, match="cost rows"):
        Hypergraph(3, [(0, 1), (1, 2)], [(1,), (1, 2)])
    with pytest.raises(InstanceError, match="one row per vertex"):
        Hypergraph(3, [(0, 1)], [(1,)], [(0,), (0,)])
    with pytest.raises(InstanceError, match="weight rows"):
        Hypergraph(3, [(0, 1)], [(1,)], [(0,), (0, 1), (0,)])


def test_duplicate_edges_keep_distinct_ids():
    G = Hypergraph(2, [(0, 1), (0, 1)], [(1,), (5,)])
    assert G.m == 2
    assert G.edge_costs[0] != G.edge_costs[1]


def test_rank():
    assert triangle().rank == 2
    assert Hypergraph(4, [(0, 1), (0, 1, 2, 3)], [(1,), (1,)]).rank == 4
    assert Hypergraph(3, []).rank == 2


def test_contract_merges_and_kills_inner_edges():
    G = Hypergraph(3, [(0, 1), (1, 2), (0, 1, 2)], [(1,)] * 3)
    comps = contract_comps(initial_comps(3), G.edge_masks[0])
    assert comps == (0b011, 0b100)
    assert present_edge_ids(G.edge_masks, comps) == [1, 2]


def test_contract_singleton_is_noop():
    comps = initial_comps(3)
    assert contract_comps(comps, 0b010) == comps
    assert present_edge_ids(triangle().edge_masks, comps) == [0, 1, 2]


def test_contract_weights_add():
    G = Hypergraph(3, [(0, 1), (1, 2)], [(1,), (1,)], [(1,), (2,), (4,)])
    comps = contract_comps(initial_comps(3), 0b101)
    assert comps == (0b101, 0b010)
    wcol = [w[0] for w in G.vertex_weights]
    assert [mask_sum(wcol, c) for c in comps] == [5, 2]


def test_delta_examples():
    T = triangle()
    assert delta(T, 0b001).edge_ids == (0, 2)
    assert delta(T, 0b011).edge_ids == (1, 2)
    G = Hypergraph(3, [(0, 1, 2)], [(1,)])
    assert delta(G, 0b011).edge_ids == (0,)
    # the empty and the full side induce no cut
    assert delta(T, 0).edge_ids == ()
    assert delta(T, T.full_mask).edge_ids == ()


def test_delta_partition_examples():
    T = triangle()
    assert delta_partition(T, (0, 1, 1)).edge_ids == (0, 2)
    assert delta_partition(T, (0, 0, 0)).edge_ids == ()
    G = Hypergraph(3, [(0, 1, 2)], [(1,)])
    assert delta_partition(G, (0, 1, 2)).edge_ids == (0,)
    with pytest.raises(InstanceError):
        delta_partition(T, (0, 1))


def test_cut_cost():
    G = Hypergraph(3, [(0, 1), (1, 2)], [(3, 9), (4, 9)])
    assert G.cut_costs(Cut.of([0, 1])) == (7, 18)
    assert G.cut_costs(Cut.of([])) == (0, 0)


def test_cut_canonical():
    assert Cut.of([3, 1, 3]).edge_ids == (1, 3)
    assert Cut.of([1, 3]) == Cut.of([3, 1])
    assert Cut.from_mask(0b1010).edge_ids == (1, 3)
    assert Cut.of([1, 3]).mask() == 0b1010


def test_cut_is_slotted_and_copies_equal_it():
    cut = Cut.of([9, 1, 4])
    assert not hasattr(cut, "__dict__")
    copies = [pickle.loads(pickle.dumps(cut, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in copies + [copy.deepcopy(cut), copy.copy(cut)]:
        assert other == cut and hash(other) == hash(cut)
        assert other.edge_ids == (1, 4, 9)
        assert {other: 1}[cut] == 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        cut.edge_ids = ()


def test_load_minimal_instance():
    doc = {"n": 2, "t_costs": 1, "t_weights": 0, "edges": [[0, 1]],
           "edge_costs": [[1]], "vertex_weights": [[], []]}
    G = load_instance(json.dumps(doc))
    assert G.m == 1 and G.rank == 2


def test_load_drops_singleton_edges_with_warning():
    doc = {"n": 2, "t_costs": 1, "t_weights": 0, "edges": [[0], [0, 1]],
           "edge_costs": [[5], [7]], "vertex_weights": [[], []]}
    with pytest.warns(UserWarning, match="size-1"):
        G = load_instance(json.dumps(doc))
    assert G.m == 1
    assert G.edge_costs[0] == (7,)


def test_load_rejections():
    with pytest.raises(InstanceError):
        load_instance(b"not json")
    with pytest.raises(InstanceError):
        load_instance(json.dumps({"n": 2}))
    bad = {"n": 2, "t_costs": 1, "t_weights": 0, "edges": [[]],
           "edge_costs": [[1]], "vertex_weights": [[], []]}
    with pytest.raises(InstanceError):
        load_instance(json.dumps(bad))
    bad["edges"] = [[0, 4]]
    with pytest.raises(InstanceError):
        load_instance(json.dumps(bad))
    bad["edges"] = [[0, 1]]
    bad["edge_costs"] = [[-1]]
    with pytest.raises(InstanceError):
        load_instance(json.dumps(bad))
    # a size-1 edge is dropped only once its ids and cost row are checked
    for edge, row in (([7, 7], [1]), ([2, 2], [2.5]), ([2, 2], [1, 2])):
        bad = {"n": 3, "t_costs": 1, "t_weights": 0, "edges": [[0, 1], edge],
               "edge_costs": [[1], row], "vertex_weights": [[], [], []]}
        with pytest.raises(InstanceError):
            load_instance(json.dumps(bad))


# a negative count, named by the loader before any row is read against it
NEGATIVE_COUNTS = [
    ({"n": 2, "t_costs": -1, "t_weights": 0, "edges": [[0, 1]],
      "edge_costs": [[1]], "vertex_weights": [[], []]},
     "t_costs must be >= 0, got -1"),
    ({"n": -3, "t_costs": 1, "t_weights": 0, "edges": [[0, 1]],
      "edge_costs": [[1]], "vertex_weights": []},
     "n must be >= 1, got -3"),
]


@pytest.mark.parametrize("doc, message", NEGATIVE_COUNTS, ids=["t_costs", "n"])
def test_load_names_a_negative_count(doc, message):
    with pytest.raises(InstanceError, match=f"^{message}$"):
        load_instance(json.dumps(doc))


# three edges with one cost row short, which would index past the rows, and
# one row over, which would be dropped, were the rows not counted
@pytest.mark.parametrize("rows", [[[2], [3]], [[2], [3], [5], [7]]])
def test_load_rejects_a_cost_row_count_other_than_the_edge_count(rows):
    doc = {"n": 3, "t_costs": 1, "t_weights": 0,
           "edges": [[0, 1], [1, 2], [0, 2]], "edge_costs": rows,
           "vertex_weights": [[], [], []]}
    with pytest.raises(InstanceError,
                       match="^edge_costs must have one row per edge$"):
        load_instance(json.dumps(doc))


def _doc():
    return {"n": 3, "t_costs": 1, "t_weights": 1, "edges": [[0, 1], [1, 2]],
            "edge_costs": [[2], [3]], "vertex_weights": [[1], [2], [4]]}


def _set(doc, path, value):
    *head, last = path
    target = doc
    for key in head:
        target = target[key]
    target[last] = value
    return doc


@pytest.mark.parametrize("path,value", [
    (("edge_costs", 0, 0), 1.7),
    (("edge_costs", 0, 0), True),
    (("edge_costs", 1, 0), "3"),
    (("vertex_weights", 2, 0), 2.5),
    (("vertex_weights", 0, 0), False),
    (("n",), "3"),
    (("n",), 3.0),
    (("n",), True),
    (("t_costs",), "1"),
    (("t_costs",), None),
    (("t_weights",), 1.0),
    (("edges", 0, 1), 1.0),
    (("edges", 1, 0), "1"),
    (("edges", 0, 0), False),
    (("edges", 0), 7),
    (("edge_costs",), {"0": [2]}),
    (("vertex_weights",), 3),
])
def test_load_rejects_non_integer_values(path, value):
    with pytest.raises(InstanceError):
        load_instance(json.dumps(_set(_doc(), path, value)))
    assert load_instance(json.dumps(_doc())).edge_costs == [(2,), (3,)]


def test_constructor_rejects_non_integers():
    with pytest.raises(InstanceError):
        Hypergraph(3, [(0, 1)], [(1.5,)])
    with pytest.raises(InstanceError):
        Hypergraph(3, [(0, 1)], [(True,)])
    with pytest.raises(InstanceError):
        Hypergraph(3, [(0, 1)], [(1,)], [(1,), (0.5,), (1,)])
    with pytest.raises(InstanceError):
        Hypergraph(3.0, [(0, 1)])
    with pytest.raises(InstanceError):
        Hypergraph(3, [(0, 1.0)])
    with pytest.raises(InstanceError):
        Hypergraph(3, [(0, 1)], t_costs=-1)


def test_load_rejects_undecodable_bytes():
    with pytest.raises(InstanceError):
        load_instance(b"\xff\xfe\x00")


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 8) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12)


@st.composite
def malformed_documents(draw):
    doc = _doc()
    for _ in range(draw(st.integers(1, 3))):
        target, paths = doc, []
        while isinstance(target, (dict, list)) and target:
            keys = sorted(target) if isinstance(target, dict) else range(len(target))
            key = draw(st.sampled_from(list(keys)))
            paths.append(key)
            if draw(st.booleans()):
                break
            target = target[key]
        if paths:
            _set(doc, paths, draw(json_values))
    if draw(st.booleans()):
        doc.pop(draw(st.sampled_from(sorted(doc))))
    return doc


@given(st.one_of(malformed_documents(), json_values, st.binary(max_size=24)))
@settings(max_examples=300, deadline=None, derandomize=True,
          database=None)
def test_malformed_documents_raise_only_instance_error(doc):
    data = doc if isinstance(doc, bytes) else json.dumps(doc)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            G = load_instance(data)
    except InstanceError:
        return
    values = [G.n, G.t_costs, G.t_weights]
    values += [v for e in G.edges for v in e]
    values += [c for row in G.edge_costs for c in row]
    values += [w for row in G.vertex_weights for w in row]
    assert all(type(v) is int for v in values)


def test_save_load_round_trip():
    G = Hypergraph(4, [(0, 1), (1, 2, 3)], [(1, 2), (3, 4)],
                   [(1,), (0,), (2,), (5,)])
    data = save_instance(G)
    H = load_instance(data)
    assert H.n == G.n and H.edges == G.edges
    assert H.edge_costs == G.edge_costs and H.vertex_weights == G.vertex_weights
    assert save_instance(H) == data


def test_load_takes_a_parsed_document_as_the_bytes_path_does():
    G = Hypergraph(4, [(0, 1), (1, 2, 3)], [(1, 2), (3, 4)],
                   [(1,), (0,), (2,), (5,)])
    data = save_instance(G)
    assert save_instance(load_instance(json.loads(data))) == data


def test_infeasible_is_falsy_and_named():
    assert not INFEASIBLE
    assert repr(INFEASIBLE) == "INFEASIBLE"


# ----------------------------------------------------------- property tests

small_hypergraphs = st.integers(2, 7).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.lists(st.integers(0, n - 1), min_size=2, max_size=min(4, n),
                     unique=True).filter(lambda e: len(e) >= 2),
            min_size=1, max_size=8),
    ))


@st.composite
def hypergraph_and_contractions(draw):
    n, edges = draw(small_hypergraphs)
    G = Hypergraph(n, edges, [(1,)] * len(edges))
    steps = draw(st.lists(st.integers(0, len(edges) - 1), max_size=4))
    return G, steps


@given(hypergraph_and_contractions())
@settings(max_examples=60, deadline=None, derandomize=True,
          database=None)
def test_contraction_invariants(data):
    G, steps = data
    comps = initial_comps(G.n)
    for eid in steps:
        comps = contract_comps(comps, G.edge_masks[eid])
    # a partition of V, sorted by lowest bit
    union = 0
    for c in comps:
        assert c and not c & union
        union |= c
    assert union == G.full_mask
    assert list(comps) == sorted(comps, key=lambda c: c & -c)
    # present edges span two or more parts, the others lie inside one
    present = present_edge_ids(G.edge_masks, comps)
    for eid, em in enumerate(G.edge_masks):
        spans = sum(1 for c in comps if c & em)
        assert (spans >= 2) == (eid in present)
    # delta symmetric under complement, and it holds every present edge
    if len(comps) >= 2:
        for c in comps:
            assert delta(G, c) == delta(G, G.full_mask & ~c)
        crossing = set()
        for c in comps:
            crossing |= set(delta(G, c).edge_ids)
        assert crossing == set(present)


@given(small_hypergraphs, st.data())
@settings(max_examples=60, deadline=None, derandomize=True,
          database=None)
def test_delta_partition_matches_delta_for_bipartitions(ne, data):
    n, edges = ne
    G = Hypergraph(n, edges, [(1,)] * len(edges))
    labels = tuple(data.draw(st.integers(0, 1)) for _ in range(n))
    if len(set(labels)) < 2:
        return
    side = sum(1 << v for v in range(n) if labels[v] == 0)
    assert delta_partition(G, labels) == delta(G, side)
