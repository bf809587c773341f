import copy
import dataclasses
import json
import pickle
import random

import pytest

from multitrek import (
    CycleError,
    MixedGraph,
    SchemaError,
    canonical_dag,
    parse_graph,
    serialize_graph,
    validate_acyclic,
)
import multitrek.graphs as graphs_module
from conftest import random_mixed


def test_construction_normalizes():
    g = MixedGraph(
        vertices=(3, 1, 2, 2),
        directed_edges=((1, 2), (1, 2), (2, 3)),
        multidirected_edges=((3, 1), (1, 3)),
    )
    assert g.vertices == (1, 2, 3)
    assert g.directed_edges == ((1, 2), (2, 3))
    assert g.multidirected_edges == ((1, 3),)


def test_construction_rejects_bad_input():
    with pytest.raises(ValueError):
        MixedGraph(vertices=(1,), directed_edges=((1, 1),))
    with pytest.raises(ValueError):
        MixedGraph(vertices=(1, 2), directed_edges=((1, 3),))
    with pytest.raises(ValueError):
        MixedGraph(vertices=(1, 2), multidirected_edges=((1,),))
    with pytest.raises(ValueError):
        MixedGraph(vertices=(1, 2), multidirected_edges=((1, 5),))
    with pytest.raises(ValueError):
        MixedGraph(vertices=(-1, 2))
    with pytest.raises(ValueError):
        MixedGraph(vertices=(1, 2), labels={7: "x"})
    # ids that are no ints are refused, not rounded or read as 1
    with pytest.raises(ValueError, match="is not an integer"):
        MixedGraph(vertices=(True, 2.9, 3), directed_edges=((1.2, 2.7),))
    with pytest.raises(ValueError, match="is not an integer"):
        MixedGraph(vertices=(1, 2), directed_edges=((True, 2),))
    with pytest.raises(ValueError, match="is not an integer"):
        MixedGraph(vertices=(1, 2, 3), multidirected_edges=((1, 2.0),))
    with pytest.raises(ValueError, match="is not an integer"):
        MixedGraph(vertices=("1", 2))
    with pytest.raises(ValueError, match="is not an integer"):
        MixedGraph(vertices=(1, 2), labels={True: "x"})  # would serialize as key "True"


def test_accessors(two_root_dag):
    g = two_root_dag
    assert g.children(1) == (4, 6, 7)
    assert g.parents(6) == (1, 2)
    assert g.index_of(4) == 2  # vertex 3 is absent
    assert g.adjacency()[2] == (6, 8)
    assert g.is_dag


def test_toposort_known_order(two_root_dag):
    assert validate_acyclic(two_root_dag) == (1, 2, 4, 5, 6, 7, 8)


def test_toposort_properties():
    rng = random.Random(2024)
    for _ in range(50):
        g = random_mixed(rng)
        order = validate_acyclic(g)
        assert sorted(order) == list(g.vertices)
        pos = {v: i for i, v in enumerate(order)}
        for u, v in g.directed_edges:
            assert pos[u] < pos[v]
        # deterministic
        assert validate_acyclic(g) == order


def test_cycle_reported():
    g = MixedGraph(vertices=(1, 2, 3), directed_edges=((1, 2), (2, 3), (3, 1)))
    with pytest.raises(CycleError) as exc:
        validate_acyclic(g)
    cyc = exc.value.cycle
    assert cyc[0] == cyc[-1]
    edges = set(g.directed_edges)
    assert all((a, b) in edges for a, b in zip(cyc, cyc[1:]))


def test_cycle_found_behind_acyclic_prefix():
    # 1 -> 2 feeds a cycle 2 -> 3 -> 4 -> 2 with a dangling tail 4 -> 5
    g = MixedGraph(
        vertices=(1, 2, 3, 4, 5),
        directed_edges=((1, 2), (2, 3), (3, 4), (4, 2), (4, 5)),
    )
    with pytest.raises(CycleError):
        validate_acyclic(g)


def test_canonical_dag_single_hyperedge(latent_triple):
    res = canonical_dag(latent_triple)
    assert res.dag.is_dag
    assert res.dag.vertices == (1, 2, 3, 4)
    assert res.dag.directed_edges == ((4, 1), (4, 2), (4, 3))
    assert res.latent_map == {(1, 2, 3): 4}
    assert res.latent_of[4] == (1, 2, 3)
    assert res.original_vertices == (1, 2, 3)


def test_canonical_dag_multiple_hyperedges(pairwise_triple):
    res = canonical_dag(pairwise_triple)
    assert res.dag.vertices == (1, 2, 3, 4, 5, 6)
    assert res.latent_map == {(1, 2): 4, (1, 3): 5, (2, 3): 6}
    assert set(res.dag.directed_edges) == {
        (4, 1), (4, 2), (5, 1), (5, 3), (6, 2), (6, 3),
    }


def test_canonical_dag_noop_on_dag(two_root_dag):
    res = canonical_dag(two_root_dag)
    assert res.dag == two_root_dag
    assert res.latent_map == {}
    assert res.original_vertices == two_root_dag.vertices


# What a graph keeps once computed: its topological order, child and parent
# lists and canonical DAG.
KEPT = ("topological_order", "child_lists", "parent_lists", "_canonical")


def derived(g):
    """Every kept value of g, in comparable form."""
    canon = canonical_dag(g)
    return (
        validate_acyclic(g),
        dict(g.child_lists),
        dict(g.parent_lists),
        (canon.dag, dict(canon.latent_map), dict(canon.latent_of), canon.original_vertices),
    )


def shuffled_ids(rng, g):
    """g with its vertex ids permuted, so that id order is no topological order."""
    ids = dict(zip(g.vertices, rng.sample(g.vertices, len(g.vertices))))
    return MixedGraph(
        vertices=g.vertices,
        directed_edges=tuple((ids[a], ids[b]) for a, b in g.directed_edges),
        multidirected_edges=tuple(tuple(ids[x] for x in h) for h in g.multidirected_edges),
    )


def test_each_kept_value_is_computed_once_and_read_only(monkeypatch):
    g = MixedGraph(
        vertices=(1, 2, 3, 5), directed_edges=((5, 1), (3, 1), (5, 2)), multidirected_edges=((1, 2, 3),)
    )
    calls = []
    for name in ("_topological_order", "_lists", "_reduce"):
        compute = getattr(graphs_module, name)
        monkeypatch.setattr(
            graphs_module, name, lambda *a, _f=compute, _n=name: calls.append(_n) or _f(*a)
        )
    first = derived(g)
    assert sorted(calls) == ["_lists", "_lists", "_reduce", "_topological_order"]
    assert derived(g) == first and len(calls) == 4
    assert validate_acyclic(g) is g.topological_order and canonical_dag(g) is canonical_dag(g)
    assert g.child_lists is g.child_lists and g.parent_lists is g.parent_lists
    for mapping in (g.child_lists, g.parent_lists, canonical_dag(g).latent_map, canonical_dag(g).latent_of):
        with pytest.raises(TypeError):
            mapping[1] = ()
    for name in KEPT:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(g, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(g, name)
    # a cyclic graph keeps no order: every call raises
    cyclic = MixedGraph(vertices=(1, 2), directed_edges=((1, 2), (2, 1)))
    for _ in range(2):
        with pytest.raises(CycleError):
            validate_acyclic(cyclic)


def test_kept_values_equal_a_fresh_graphs_and_their_definitions():
    rng = random.Random(2606)
    for _ in range(60):
        g = shuffled_ids(rng, random_mixed(rng, max_vertices=8))
        used = derived(g)
        fresh = MixedGraph(g.vertices, g.directed_edges, g.multidirected_edges)
        assert derived(g) == used == derived(fresh)
        for v in g.vertices:
            assert g.children(v) == tuple(b for a, b in g.directed_edges if a == v)
            assert g.parents(v) == tuple(a for a, b in g.directed_edges if b == v)
        assert g.adjacency() == {v: g.children(v) for v in g.vertices}
        order = validate_acyclic(g)
        pos = {v: i for i, v in enumerate(order)}
        assert sorted(order) == list(g.vertices)
        assert all(pos[a] < pos[b] for a, b in g.directed_edges)


def test_warm_caches_leave_equality_hashing_and_serialization_alone():
    rng = random.Random(2607)
    for _ in range(30):
        g = shuffled_ids(rng, random_mixed(rng, max_vertices=7))
        twin = MixedGraph(g.vertices, g.directed_edges, g.multidirected_edges)
        cold = (hash(g), repr(g), serialize_graph(g))
        derived(g)
        assert all(name in vars(g) for name in KEPT)
        assert g == twin and twin == g and hash(g) == hash(twin)
        assert (hash(g), repr(g), serialize_graph(g)) == cold
        for copied in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g), copy.copy(g)):
            assert copied == g and not any(name in vars(copied) for name in KEPT)
            assert derived(copied) == derived(g)


def test_json_round_trip():
    rng = random.Random(7)
    for _ in range(50):
        g = random_mixed(rng)
        assert parse_graph(serialize_graph(g)) == g


def test_serialize_canonical(latent_triple):
    text = serialize_graph(latent_triple)
    assert "\n" not in text and ": " not in text
    doc = json.loads(text)
    assert doc == {
        "vertices": [1, 2, 3],
        "directed_edges": [],
        "multidirected_edges": [[1, 2, 3]],
    }
    assert text == serialize_graph(parse_graph(text))


def test_parse_labels_round_trip():
    g = MixedGraph(vertices=(1, 2), directed_edges=((1, 2),), labels={1: "x", 2: "y"})
    back = parse_graph(serialize_graph(g))
    assert back.labels == {1: "x", 2: "y"}


@pytest.mark.parametrize("key", ["1_0", " 3", "+3", "03", "\u0663"])
def test_parse_refuses_label_keys_that_are_not_canonical(key):
    doc = {"vertices": [3, 10], "directed_edges": [], "multidirected_edges": [], "labels": {key: "x"}}
    with pytest.raises(SchemaError) as exc:
        parse_graph(json.dumps(doc))
    assert str(exc.value) == f"/labels/{key}: key must be an integer"


@pytest.mark.parametrize("edges", ["[[1, 2.0]]", "[[true, 2]]", "[1, 2]", "{}"])
def test_parse_refuses_edges_that_are_no_id_pairs(edges):
    with pytest.raises(SchemaError, match="^/directed_edges"):
        parse_graph('{"vertices":[1,2],"directed_edges":%s,"multidirected_edges":[]}' % edges)


def test_parse_refuses_nesting_too_deep_to_decode():
    with pytest.raises(SchemaError, match="^/: invalid JSON: "):
        parse_graph("[" * 100_000 + "]" * 100_000)


def test_parse_rejects_malformed():
    with pytest.raises(SchemaError):
        parse_graph("not json")
    with pytest.raises(SchemaError):
        parse_graph("[1,2]")
    with pytest.raises(SchemaError):
        parse_graph('{"directed_edges":[]}')  # vertices missing
    with pytest.raises(SchemaError):
        parse_graph(
            '{"vertices":[1,2],"directed_edges":[],"multidirected_edges":[],"nope":1}'
        )
    with pytest.raises(SchemaError):
        parse_graph('{"vertices":[1,"a"],"directed_edges":[],"multidirected_edges":[]}')
    with pytest.raises(SchemaError):
        parse_graph(
            '{"vertices":[1,2],"directed_edges":[[1,2,3]],"multidirected_edges":[]}'
        )
    with pytest.raises(CycleError):
        parse_graph(
            '{"vertices":[1,2],"directed_edges":[[1,2],[2,1]],"multidirected_edges":[]}'
        )
