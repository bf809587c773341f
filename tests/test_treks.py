import itertools
import random

import numpy as np
import pytest

from multitrek import (
    BudgetExceeded,
    DirectedPath,
    KTrek,
    MixedGraph,
    SampleMatrix,
    canonical_dag,
    certify_decision,
    check_ktrek_separation,
    checked_sides,
    decide_vanishing,
    det_by_split_trek_systems,
    det_by_trek_systems,
    enumerate_ktreks,
    enumerate_paths,
    enumerate_split_treks,
    exists_disjoint_path_system,
    exists_split_trek_system_no_sided_intersection,
    exists_trek_system_no_sided_intersection,
    find_ktrek_separating_sets,
    find_sided_intersection,
    make_trek_system,
    reachable_from,
    sample_generic_instance,
    trek_system_from_doc,
    trek_system_to_doc,
)
import multitrek.moments as moments_module
import multitrek.treks as treks_module
from multitrek.errors import InternalInconsistency
from multitrek.estimation import test_determinant_zero as determinant_flag
from multitrek.treks import _FlowNetwork, _reaching, _SplitGraph, first_linked_top, system_defect
from conftest import (
    all_paths,
    random_dag,
    random_mixed,
    random_sides,
    side_paths_by_pairs,
    trek_flow_by_pairs,
)


def test_reachable_from(two_root_dag):
    assert reachable_from(two_root_dag, 1) == frozenset({1, 4, 5, 6, 7})
    assert reachable_from(two_root_dag, 2) == frozenset({2, 6, 8})
    assert reachable_from(two_root_dag, 5) == frozenset({5})


def test_reaching_is_forward_reach_in_the_graph_minus_the_blockers(two_root_dag, menger_gap):
    # The reverse search from the targets against the definition: the
    # vertices of G - A whose forward reach in G - A meets the targets.
    rng = random.Random(43)
    graphs = [two_root_dag, menger_gap[0]] + [random_mixed(rng, max_vertices=8) for _ in range(60)]
    for g in graphs:
        for _ in range(4):
            targets = rng.sample(g.vertices, rng.randint(1, len(g.vertices)))
            avoid = rng.sample(g.vertices, rng.randint(0, len(g.vertices) - 1))
            keep = set(g.vertices) - set(avoid)
            minus = MixedGraph(
                vertices=tuple(keep),
                directed_edges=tuple(
                    (a, b) for a, b in g.directed_edges if a in keep and b in keep
                ),
            )
            assert _reaching(g, targets, avoid) == frozenset(
                v for v in keep if reachable_from(minus, v) & set(targets)
            )
        assert _reaching(g, targets) == frozenset(
            v for v in g.vertices if reachable_from(g, v) & set(targets)
        )


def test_enumerate_paths_fixture(two_root_dag):
    assert [p.vertices for p in enumerate_paths(two_root_dag, 1, 5)] == [(1, 4, 5)]
    assert enumerate_paths(two_root_dag, 2, 5) == []
    assert [p.vertices for p in enumerate_paths(two_root_dag, 4, 4)] == [(4,)]
    with pytest.raises(ValueError):
        enumerate_paths(two_root_dag, 1, 99)


def test_enumerate_paths_matches_oracle_and_is_sorted():
    rng = random.Random(41)
    for _ in range(40):
        g = random_dag(rng, max_vertices=7)
        u, v = rng.choice(g.vertices), rng.choice(g.vertices)
        got = [p.vertices for p in enumerate_paths(g, u, v)]
        assert got == sorted(all_paths(g, u, v))


def test_enumerate_paths_budget():
    # layered graph with 2^4 parallel routes
    edges = []
    for layer in range(4):
        a, b1, b2, c = 3 * layer + 1, 3 * layer + 2, 3 * layer + 3, 3 * layer + 4
        edges += [(a, b1), (a, b2), (b1, c), (b2, c)]
    g = MixedGraph(vertices=tuple(range(1, 14)), directed_edges=tuple(edges))
    assert len(enumerate_paths(g, 1, 13)) == 16
    with pytest.raises(BudgetExceeded):
        enumerate_paths(g, 1, 13, budget=7)


def test_ktrek_validation():
    p = DirectedPath((1, 4))
    with pytest.raises(ValueError):
        KTrek(paths=(p, p))  # no top at all
    with pytest.raises(ValueError):
        KTrek(paths=(p, p), top_vertex=1, top_hyperedge=(1, 2))
    with pytest.raises(ValueError):
        KTrek(paths=(p, DirectedPath((2, 4))), top_vertex=1)
    with pytest.raises(ValueError):
        KTrek(paths=(p, DirectedPath((3, 4))), top_hyperedge=(1, 2))


def test_enumerate_ktreks_fixture(two_root_dag):
    g = two_root_dag
    t68 = enumerate_ktreks(g, (6, 8))
    assert len(t68) == 1
    assert t68[0].top_vertex == 2
    assert [p.vertices for p in t68[0].paths] == [(2, 6), (2, 8)]

    t765 = enumerate_ktreks(g, (7, 6, 5))
    assert len(t765) == 1
    assert t765[0].sources == (1, 1, 1)
    assert [p.vertices for p in t765[0].paths] == [(1, 7), (1, 6), (1, 4, 5)]

    assert enumerate_ktreks(g, (5, 6, 8)) == []
    with pytest.raises(ValueError):
        enumerate_ktreks(g, (6,))


def test_enumerate_ktreks_hyperedge_top(latent_triple):
    treks = enumerate_ktreks(latent_triple, (1, 2))
    assert len(treks) == 1
    assert treks[0].top_hyperedge == (1, 2, 3)
    assert treks[0].sources == (1, 2)
    # coinciding sources are reported once, with the vertex top
    same = enumerate_ktreks(latent_triple, (1, 1))
    assert len(same) == 1
    assert same[0].top_vertex == 1


def test_disjoint_path_system_fixture(two_root_dag):
    g = two_root_dag
    got = exists_disjoint_path_system(g, (1, 2), (7, 8))
    assert got is not None
    assert [p.vertices for p in got] == [(1, 7), (2, 8)]
    # only 1 -> 7 works, so 2 must take 6
    got = exists_disjoint_path_system(g, (1, 2), (6, 7))
    assert got is not None
    assert got[0].source == 1 and got[1].source == 2
    assert {p.sink for p in got} == {6, 7}
    assert exists_disjoint_path_system(g, (1,), (8,)) is None
    assert exists_disjoint_path_system(g, (), ()) == []
    with pytest.raises(ValueError):
        exists_disjoint_path_system(g, (1, 1), (7, 8))
    with pytest.raises(ValueError):
        exists_disjoint_path_system(g, (1,), (7, 8))


def brute_force_disjoint(g, r, s):
    for perm in itertools.permutations(range(len(s))):
        pools = [all_paths(g, r[i], s[perm[i]]) for i in range(len(r))]
        for combo in itertools.product(*pools):
            seen = set()
            if all(x not in seen and not seen.add(x) for p in combo for x in p):
                return True
    return False


def test_disjoint_path_system_matches_brute_force():
    rng = random.Random(42)
    for _ in range(60):
        g = random_dag(rng, max_vertices=6)
        n = rng.randint(1, min(2, len(g.vertices)))
        r = tuple(sorted(rng.sample(g.vertices, n)))
        s = tuple(sorted(rng.sample(g.vertices, n)))
        got = exists_disjoint_path_system(g, r, s)
        assert (got is not None) == brute_force_disjoint(g, r, s)
        if got is not None:
            assert [p.source for p in got] == list(r)
            assert sorted(p.sink for p in got) == sorted(s)
            used = [x for p in got for x in p.vertices]
            assert len(used) == len(set(used))
            assert all(p.is_path_of(g) for p in got)


def test_make_trek_system_signs(two_root_dag):
    g = two_root_dag
    t1 = enumerate_ktreks(g, (4, 7))[0]
    t2 = enumerate_ktreks(g, (6, 8))[0]
    sysA = make_trek_system((t1, t2), ((4, 6), (7, 8)))
    assert sysA.sign == 1
    assert sysA.induced_permutations == ((0, 1),)

    c1 = enumerate_ktreks(g, (6, 8))[0]
    c2 = enumerate_ktreks(g, (8, 6))[0]
    sysB = make_trek_system((c1, c2), ((6, 8), (6, 8)))
    assert sysB.induced_permutations == ((1, 0),)
    assert sysB.sign == -1

    with pytest.raises(ValueError):
        make_trek_system((t2, t1), ((4, 6), (7, 8)))  # misaligned with side 1
    with pytest.raises(ValueError):
        make_trek_system((t1, t1), ((4, 4), (7, 7)))  # side 2 not covered


def test_find_sided_intersection(two_root_dag):
    g = two_root_dag
    t1 = enumerate_ktreks(g, (4, 7))[0]
    t2 = enumerate_ktreks(g, (6, 8))[0]
    clean = make_trek_system((t1, t2), ((4, 6), (7, 8)))
    assert find_sided_intersection(clean) is None

    c1 = enumerate_ktreks(g, (6, 8))[0]
    c2 = enumerate_ktreks(g, (8, 6))[0]
    crossing = make_trek_system((c1, c2), ((6, 8), (6, 8)))
    w = find_sided_intersection(crossing)
    assert w is not None
    assert w.shared_vertex == 2 and w.side == 1
    assert (w.trek_index_a, w.trek_index_b) == (0, 1)


def test_search_finds_fixture_systems(two_root_dag):
    g = two_root_dag
    res = exists_trek_system_no_sided_intersection(g, ((4, 6), (7, 8)))
    assert res.found
    assert find_sided_intersection(res.system) is None
    assert {t.top_vertex for t in res.system.treks} == {1, 2}

    res3 = exists_trek_system_no_sided_intersection(g, ((4, 6), (5, 8), (7, 8)))
    assert res3.found
    assert find_sided_intersection(res3.system) is None
    sinks = [tuple(p.sink for p in t.paths) for t in res3.system.treks]
    assert sorted(sinks) == [(4, 5, 7), (6, 8, 8)]

    assert not exists_trek_system_no_sided_intersection(g, ((5,), (8,))).found


def test_search_on_mixed_graphs(latent_triple, pairwise_triple):
    res = exists_trek_system_no_sided_intersection(latent_triple, ((1,), (2,), (3,)))
    assert res.found
    assert res.system.treks[0].top_hyperedge == (1, 2, 3)
    assert not exists_trek_system_no_sided_intersection(
        pairwise_triple, ((1,), (2,), (3,))
    ).found


def brute_force_si_free_system(g, sides, open_first_side=False):
    # Row j holds a trek into side 1's j-th vertex; rows are tried in every
    # combination, abandoning one as soon as two of its treks share a vertex
    # on a checked side (every side, or sides 2..k when side 1 is open).
    checked = range(1 if open_first_side else 0, len(sides))
    pools = [
        [t for sinks in itertools.product((a,), *sides[1:]) for t in enumerate_ktreks(g, sinks)]
        for a in sides[0]
    ]

    def extend(rows, used):
        if len(rows) == len(pools):
            return all(
                sorted(r.paths[i].sink for r in rows) == sorted(sides[i])
                for i in range(1, len(sides))
            )
        for trek in pools[len(rows)]:
            verts = [set(trek.paths[i].vertices) for i in checked]
            if not any(v & u for v, u in zip(verts, used)):
                if extend(rows + [trek], [u | v for u, v in zip(used, verts)]):
                    return True
        return False

    return extend([], [set() for _ in checked])


def test_search_matches_brute_force():
    # the decision semantics for mixed graphs is the hidden-variable
    # reduction, so the oracle enumerates on the canonical DAG (where
    # treks topped by one hyperedge share its latent source)
    rng = random.Random(43)
    for _ in range(50):
        g = random_mixed(rng, max_vertices=6, edge_prob=0.35, max_hyperedges=1)
        k = rng.randint(2, 3)
        n = rng.randint(1, 2)
        sides = random_sides(rng, g, k, n)
        res = exists_trek_system_no_sided_intersection(g, sides)
        assert res.found == brute_force_si_free_system(canonical_dag(g).dag, sides)
        if res.found:
            assert find_sided_intersection(res.system) is None
            for trek in res.system.treks:
                for path in trek.paths:
                    assert path.is_path_of(g)


def test_open_search_matches_brute_force():
    rng = random.Random(46)
    found = repeats = 0
    for case in range(200):
        g = random_mixed(rng, max_vertices=6, edge_prob=0.4, max_hyperedges=1)
        k = rng.choice((3, 5))
        # n = 3 at k = 5 would leave the brute force thousands of treks per row
        n = rng.randint(1, min(3 if k == 3 else 2, len(g.vertices)))
        sides = random_sides(rng, g, k, n)
        if n > 1 and case % 3 == 0:
            first = rng.sample(g.vertices, n - 1)
            sides = (tuple(sorted(first + [rng.choice(first)])),) + sides[1:]
            repeats += 1
        res = exists_trek_system_no_sided_intersection(g, sides, open_first_side=True)
        assert res.found == brute_force_si_free_system(canonical_dag(g).dag, sides, True)
        if res.found:
            found += 1
            assert system_defect(g, res.system, open_first_side=True) is None
    assert 40 <= found <= 160 and repeats >= 30  # 122 found, 37 repeats


def test_open_side_paths_share_an_inner_vertex():
    # Tops 1 and 2 reach side 1 only through vertex 3, so both side-1 paths
    # pass it and its vertex arc carries 2 units of the open flow; onto the
    # repeated vertex 4 the edge arc 3 -> 4 carries 2 units as well.
    g = MixedGraph((1, 2, 3, 4, 5), ((1, 3), (2, 3), (3, 4), (3, 5)))
    assert not exists_trek_system_no_sided_intersection(g, ((4, 5), (1, 2), (1, 2))).found
    for side_one in ((4, 5), (4, 4)):
        sides = (side_one, (1, 2), (1, 2))
        res = exists_trek_system_no_sided_intersection(g, sides, open_first_side=True)
        assert res.found
        assert [t.paths[0].vertices for t in res.system.treks] == [
            (top, 3, sink) for top, sink in zip((1, 2), side_one)
        ]
        assert system_defect(g, res.system, open_first_side=True) is None


def test_split_graph_queries_match_one_network_per_query():
    # One split graph answers many queries in random order: each top set and
    # side, closed (through 1) or open (through n, where side 1 may repeat a
    # vertex), gives the paths, or the None, of a network built for that
    # query alone.  Half the graphs are canonical DAGs of hyperedge graphs.
    rng = random.Random(2602)
    outcomes = []
    for case in range(80):
        if case % 2:
            g = random_dag(rng, max_vertices=8, edge_prob=0.4)
        else:
            g = canonical_dag(random_mixed(rng, max_vertices=6, max_hyperedges=2)).dag
        n = rng.randint(1, min(3, len(g.vertices)))
        candidates = rng.sample(g.vertices, rng.randint(n, len(g.vertices)))
        sides = [tuple(rng.sample(g.vertices, n)) for _ in range(3)]
        if n > 1:
            first = rng.sample(g.vertices, n - 1)
            sides.append(tuple(first + [rng.choice(first)]))
        split = _SplitGraph(g, candidates, itertools.chain(*sides))
        queries = [
            (tuple(rng.sample(candidates, n)), side, through)
            for _ in range(8)
            for side in sides
            for through in (1, n)
        ]
        rng.shuffle(queries)
        for tops, side, through in queries:
            got = split.paths(tops, side, through)
            assert got == side_paths_by_pairs(g, tops, side, through)
            outcomes.append(got is None)
    assert 1000 <= outcomes.count(True) and 1000 <= outcomes.count(False)  # 3140 None, 1660 found


def test_order_two_flow_matches_the_network_keyed_by_node_pairs():
    # Every system and every minimum separator of the doubled-graph flow.
    rng = random.Random(2603)
    separators = 0
    for _ in range(200):
        dag = canonical_dag(random_mixed(rng, max_vertices=6, edge_prob=0.35, max_hyperedges=1)).dag
        sides = random_sides(rng, dag, 2, rng.randint(1, min(4, len(dag.vertices))))
        result = treks_module._trek_flow(dag, sides)
        assert result == trek_flow_by_pairs(dag, sides)
        separators += result.separator is not None
    assert 30 <= separators <= 170  # 50 separators, 150 systems


class _SplitGraphByPairs:
    """A stand-in for _SplitGraph that builds a network per query."""

    def __init__(self, dag, tops, side_vertices):
        self.dag = dag

    def linked(self, tops, side, through):
        # the paths stand in for the flow that walk turns into them
        return side_paths_by_pairs(self.dag, tops, side, through)

    def walk(self, tops, paths):
        return paths


def test_searches_on_one_split_graph_match_one_network_per_flow(monkeypatch):
    # Both searches return the results, obstruction logs included, that a
    # network built per flow gives.
    rng = random.Random(2604)
    cases = []
    for _ in range(60):
        g = random_dag(rng, max_vertices=7, edge_prob=0.4)
        k = rng.choice((3, 4))
        cases.append((g, random_sides(rng, g, k, rng.randint(1, min(2, len(g.vertices))))))

    def run():
        return [
            (
                first_linked_top(g, sides, open_first_side=len(sides) % 2 == 1),
                exists_split_trek_system_no_sided_intersection(g, sides),
            )
            for g, sides in cases
        ]

    got = run()
    monkeypatch.setattr(treks_module, "_SplitGraph", _SplitGraphByPairs)
    monkeypatch.setattr(moments_module, "_SplitGraph", _SplitGraphByPairs)
    assert run() == got
    assert 10 <= sum(linked.found for linked, _ in got) <= 50  # 25 linked
    assert 10 <= sum(split.found for _, split in got) <= 50  # 32 split-trek systems


def test_searches_walk_only_the_flows_of_their_witness(monkeypatch):
    # The k-trek search pushes one flow per (top set, side) it tries, and the
    # split-trek search never pushes the same (column, side) flow twice.
    # Neither walks a flow it does not return, so a k >= 3 Vanishes search
    # walks nothing, and a found one walks n units per side of its witness.
    pushes, walks, queries = [], [], []
    push, walk, linked = _FlowNetwork.push, _FlowNetwork.walk, _SplitGraph.linked
    monkeypatch.setattr(_FlowNetwork, "push", lambda net, *a: pushes.append(a) or push(net, *a))
    monkeypatch.setattr(_FlowNetwork, "walk", lambda net, *a: walks.append(a) or walk(net, *a))
    monkeypatch.setattr(
        _SplitGraph, "linked", lambda split, *a: queries.append(a) or linked(split, *a)
    )

    def run(search, *args, **kwargs):
        del pushes[:], walks[:], queries[:]
        res = search(*args, **kwargs)
        assert len(pushes) == len(queries)
        assert len(walks) == n * k * res.found
        return res

    rng = random.Random(2605)
    partly_linked = {True: 0, False: 0}  # k-trek searches that tried a top set linked to side 1 only
    split_found = 0
    for _ in range(400):
        g = random_dag(rng, max_vertices=10, edge_prob=0.4)
        k = rng.choice((3, 4))
        n = rng.randint(2, min(3, len(g.vertices)))
        sides = random_sides(rng, g, k, n)
        res = run(exists_trek_system_no_sided_intersection, g, sides, open_first_side=k % 2 == 1)
        assert len(pushes) == sum(o.blocked_side for o in res.obstructions) + k * res.found
        partly_linked[res.found] += any(o.blocked_side > 1 for o in res.obstructions)
        if len(g.vertices) <= 7:  # the split-trek search tries many more columns
            split_found += run(exists_split_trek_system_no_sided_intersection, g, sides).found
            assert len(set(queries)) == len(queries)
    assert partly_linked[True] >= 8 and partly_linked[False] >= 25  # 16 and 49
    assert split_found >= 80  # 163


@pytest.mark.parametrize(
    "graph, sides, search",
    [
        ("star", ((1,), (2,)), exists_trek_system_no_sided_intersection),
        ("star", ((1,), (2,), (3,)), exists_trek_system_no_sided_intersection),
        ("latent_triple", ((1,), (2,), (3,)), exists_trek_system_no_sided_intersection),
        ("star", ((1,), (2,), (1,), (2,)), exists_split_trek_system_no_sided_intersection),
    ],
    ids=["k2-dag", "k3-dag", "k3-mixed", "split-k4"],
)
def test_every_public_search_checks_its_witness_once(graph, sides, search, request, monkeypatch):
    # The searches find a system on these cases; a check that finds a defect
    # must surface it, and each search checks the witness it returns once,
    # in the graph it was given (re-expressed over hyperedges when mixed).
    g = request.getfixturevalue(graph)
    assert search(g, sides).found
    checked = []

    def defective(checked_graph, system, open_first_side=False):
        checked.append((checked_graph, system))
        return "planted defect"

    monkeypatch.setattr(treks_module, "system_defect", defective)
    with pytest.raises(InternalInconsistency, match="^returned witness planted defect$"):
        search(g, sides)
    assert len(checked) == 1 and checked[0][0] is g
    assert all(
        (t.top_hyperedge is not None) == (not g.is_dag) for t in checked[0][1].treks
    )


def test_order_two_flow_matches_brute_force_with_minimum_separators():
    rng = random.Random(45)
    vanishing = 0
    for _ in range(300):
        g = random_mixed(rng, max_vertices=6, edge_prob=0.35, max_hyperedges=1)
        n = rng.randint(1, min(4, len(g.vertices)))
        sides = random_sides(rng, g, 2, n)
        dag = canonical_dag(g).dag
        res = exists_trek_system_no_sided_intersection(g, sides, budget=0)
        assert res.found == brute_force_si_free_system(dag, sides)
        assert res.obstructions == ()
        if res.found:
            assert res.separator is None
            continue
        vanishing += 1
        size = len(res.separator[0]) + len(res.separator[1])
        assert size < n
        assert check_ktrek_separation(dag, sides, res.separator)
        if size:
            assert find_ktrek_separating_sets(dag, sides, budget=size - 1) is None
    assert vanishing >= 30


def test_order_two_search_has_no_open_side(two_root_dag):
    with pytest.raises(ValueError, match="no open side"):
        exists_trek_system_no_sided_intersection(
            two_root_dag, ((4, 6), (7, 8)), open_first_side=True
        )


def test_search_budget(two_root_dag):
    # The cap bounds the top-set enumeration, which runs from order 3 on;
    # the order-2 flow enumerates nothing.
    with pytest.raises(BudgetExceeded):
        exists_trek_system_no_sided_intersection(
            two_root_dag, ((4, 6), (5, 8), (7, 8)), budget=0
        )
    assert exists_trek_system_no_sided_intersection(
        two_root_dag, ((4, 6), (7, 8)), budget=0
    ).found


# Two tops over two sinks: few paths per source, many treks and systems.
K22 = MixedGraph((1, 2, 3, 4), ((1, 3), (1, 4), (2, 3), (2, 4)))
K22_SIDES = ((3, 4), (3, 4))
# Two paths 1 -> 4.
DIAMOND = MixedGraph((1, 2, 3, 4), ((1, 2), (1, 3), (2, 4), (3, 4)))
# The two_root_dag fixture; on these sides no top set is linked, so all
# three candidates are tried.
TWO_ROOTS = MixedGraph((1, 2, 4, 5, 6, 7, 8), ((1, 4), (1, 6), (1, 7), (2, 6), (2, 8), (4, 5)))
UNLINKED_SIDES = ((4, 5), (4, 5), (5, 8))


@pytest.mark.parametrize(
    "call, tripped, enough, what",
    [
        (lambda b: enumerate_ktreks(K22, (3, 4), b), 1, 2, "k-treks into (3, 4)"),
        (lambda b: det_by_trek_systems(K22, sample_generic_instance(K22, 2, 1), K22_SIDES, b),
         3, 13, "trek-system candidates"),
        (lambda b: det_by_split_trek_systems(K22, sample_generic_instance(K22, 2, 1), K22_SIDES, b),
         9, 13, "trek-system candidates"),
        (lambda b: exists_split_trek_system_no_sided_intersection(K22, K22_SIDES * 2, b),
         1, 2, "split-system column candidates"),
        (lambda b: check_ktrek_separation(K22, ((3,), (4,)), ((), ()), b),
         0, 1, "separation top candidates"),
        (lambda b: enumerate_paths(DIAMOND, 1, 4, b), 1, 2, "paths 1->4"),
        (lambda b: exists_trek_system_no_sided_intersection(TWO_ROOTS, UNLINKED_SIDES, b),
         2, 3, "candidate top sets"),
        (lambda b: enumerate_split_treks(K22, (3, 4), b), 8, 9, "split-trek candidates into (3, 4)"),
        (lambda b: find_ktrek_separating_sets(K22, ((3,), (4,)), budget=2, cap=b),
         4, 5, "separating-set candidates"),
    ],
    ids=["ktreks", "trek-systems", "split-trek-systems", "split-columns", "separation",
         "paths", "top-sets", "split-treks", "separating-sets"],
)
def test_every_enumeration_cap_raises_budget_exceeded(call, tripped, enough, what):
    with pytest.raises(BudgetExceeded) as exc:
        call(tripped)
    assert (exc.value.what, exc.value.budget) == (what, tripped)
    call(enough)


def test_separation_basics(two_root_dag):
    g = two_root_dag
    sides = ((4, 6), (7, 8))
    assert check_ktrek_separation(g, sides, (g.vertices, g.vertices))
    assert check_ktrek_separation(g, sides, ((1, 2), ()))
    assert not check_ktrek_separation(g, sides, ((), ()))
    with pytest.raises(ValueError):
        check_ktrek_separation(g, sides, ((),))


def test_empty_blockers_iff_no_treks():
    rng = random.Random(44)
    for _ in range(40):
        g = random_mixed(rng, max_vertices=6, max_hyperedges=1)
        k = rng.randint(2, 3)
        sides = random_sides(rng, g, k, 1)
        empty = tuple(() for _ in range(k))
        any_trek = any(
            enumerate_ktreks(g, sinks) for sinks in itertools.product(*sides)
        )
        assert check_ktrek_separation(g, sides, empty) == (not any_trek)


def test_find_separating_sets(two_root_dag):
    g = two_root_dag
    sides = ((4, 6), (7, 8))
    assert find_ktrek_separating_sets(g, sides, budget=1) is None
    found = find_ktrek_separating_sets(g, sides, budget=2)
    assert found is not None
    assert sum(len(a) for a in found) == 2
    assert check_ktrek_separation(g, sides, found)
    assert found == find_ktrek_separating_sets(g, sides, budget=2)
    with pytest.raises(BudgetExceeded):
        find_ktrek_separating_sets(g, sides, budget=2, cap=3)


def test_system_doc_round_trip(two_root_dag, latent_triple):
    res = exists_trek_system_no_sided_intersection(two_root_dag, ((4, 6), (5, 8), (7, 8)))
    doc = trek_system_to_doc(res.system)
    assert trek_system_from_doc(doc) == res.system

    res2 = exists_trek_system_no_sided_intersection(latent_triple, ((1,), (2,), (3,)))
    doc2 = trek_system_to_doc(res2.system)
    assert trek_system_from_doc(doc2) == res2.system


# The three order-3 configurations drawn by the acceptance suite's master
# seed where the paper's criterion is one-directional: no trek system is
# free of sided intersections, yet the determinant is nonzero.  Letting
# side-1 paths meet (a matching of tops onto side 1) finds a witness.
ODD_ORDER_MISSES = (
    (
        MixedGraph(
            tuple(range(1, 9)),
            ((1, 4), (1, 7), (1, 8), (2, 3), (2, 4), (2, 5), (3, 5), (3, 7), (6, 8), (7, 8)),
        ),
        ((3, 8), (2, 3), (2, 3)),
    ),
    (
        MixedGraph(
            tuple(range(1, 9)),
            ((1, 3), (1, 6), (2, 3), (2, 6), (2, 7), (3, 4), (3, 5), (3, 6), (3, 7),
             (3, 8), (4, 7), (7, 8)),
        ),
        ((2, 3, 7), (3, 6, 8), (1, 2, 6)),
    ),
    (
        MixedGraph((1, 2, 3, 4), ((1, 2), (1, 3), (2, 4))),
        ((2, 3, 4), (1, 2, 3), (1, 3, 4)),
    ),
)


@pytest.mark.parametrize("case", range(len(ODD_ORDER_MISSES)))
def test_paper_criterion_misses_odd_order_nonvanishing(case):
    g, sides = ODD_ORDER_MISSES[case]
    assert not exists_trek_system_no_sided_intersection(g, sides).found

    res = exists_trek_system_no_sided_intersection(g, sides, open_first_side=True)
    assert res.found
    assert find_sided_intersection(res.system, open_first_side=True) is None
    assert find_sided_intersection(res.system).side == 1

    d = decide_vanishing(g, sides, mode="certain")
    assert d.verdict == "NotVanishes"
    assert d.algebraic_record[0]["determinant"].startswith("nonzero-polynomial(")
    assert certify_decision(g, d.to_doc()) == (True, "certificate verified")


# 1 -> 4 and 2 -> 5 give disjoint paths; 1 -> 3 -> 4 and 2 -> 3 -> 5 meet at 3.
FORK = MixedGraph((1, 2, 3, 4, 5), ((1, 3), (1, 4), (2, 3), (2, 5), (3, 4), (3, 5)))


def _with_witness(sides, paths_by_trek):
    """A NotVanishes decision on FORK with its witness system replaced."""
    doc = decide_vanishing(FORK, sides, mode="randomized", seed=1).to_doc()
    assert doc["verdict"] == "NotVanishes"
    treks = [
        KTrek(paths=tuple(DirectedPath(p) for p in paths), top_vertex=paths[0][0])
        for paths in paths_by_trek
    ]
    system = make_trek_system(treks, sides)
    doc["combinatorial_certificate"] = {"trek_system": trek_system_to_doc(system)}
    return doc


def test_certify_allows_side_one_meetings_at_odd_order_only():
    rejected = (False, "certificate system has a sided intersection")

    odd_side2 = _with_witness(
        ((1, 2), (4, 5), (1, 2)), [((1,), (1, 3, 4), (1,)), ((2,), (2, 3, 5), (2,))]
    )
    assert certify_decision(FORK, odd_side2) == rejected

    even_side1 = _with_witness(((4, 5), (1, 2)), [((1, 3, 4), (1,)), ((2, 3, 5), (2,))])
    assert certify_decision(FORK, even_side1) == rejected

    odd_side1 = _with_witness(
        ((4, 5), (1, 2), (1, 2)), [((1, 3, 4), (1,), (1,)), ((2, 3, 5), (2,), (2,))]
    )
    assert certify_decision(FORK, odd_side1) == (True, "certificate verified")


# Every entry point that takes sides validates them through checked_sides.
_SIDE_GRAPH = MixedGraph((1, 2, 3), ((1, 2), (1, 3)))


_SIDE_INSTANCE = sample_generic_instance(_SIDE_GRAPH, 2, 0)
_SIDE_DATA = SampleMatrix(
    data=np.random.default_rng(0).normal(size=(20, 3)), vertices=(1, 2, 3)
)
SIDES_ENTRY_POINTS = {
    "checked_sides": lambda s: checked_sides(_SIDE_GRAPH.vertices, s),
    "trek_search": lambda s: exists_trek_system_no_sided_intersection(_SIDE_GRAPH, s),
    "split_search": lambda s: exists_split_trek_system_no_sided_intersection(_SIDE_GRAPH, s),
    "trek_expansion": lambda s: det_by_trek_systems(_SIDE_GRAPH, _SIDE_INSTANCE, s),
    "split_expansion": lambda s: det_by_split_trek_systems(_SIDE_GRAPH, _SIDE_INSTANCE, s),
    "decide": lambda s: decide_vanishing(_SIDE_GRAPH, s, seed=0),
    "bootstrap": lambda s: determinant_flag(_SIDE_DATA, s, len(s), n_boot=2, seed=0),
}


MALFORMED_SIDES = (
    (((1,),), "need at least two sides"),
    (((1,), (1, 2)), "sides must be nonempty and of equal size"),
    (((), ()), "sides must be nonempty and of equal size"),
    (((1,), (9,)), "side (9,) leaves the vertex set"),
)


@pytest.mark.parametrize("entry", sorted(SIDES_ENTRY_POINTS))
@pytest.mark.parametrize("case", range(len(MALFORMED_SIDES)))
def test_entry_points_reject_malformed_sides_alike(entry, case):
    sides, message = MALFORMED_SIDES[case]
    with pytest.raises(ValueError) as info:
        SIDES_ENTRY_POINTS[entry](sides)
    assert str(info.value) == message


def test_open_search_matches_repeated_side_one_vertex_by_position():
    # Side 1 repeats vertex 1 at positions 1 and 3; tops 0 and 1 both reach
    # it, so each takes one of those positions.  Sides that need a disjoint
    # path system may not repeat a vertex.
    g = MixedGraph((0, 1, 2, 3), ((0, 1), (0, 2), (0, 3)))
    sides = ((1, 2, 1), (1, 2, 3), (1, 2, 3))
    res = exists_trek_system_no_sided_intersection(g, sides, open_first_side=True)
    assert res.found
    assert [t.paths[0].sink for t in res.system.treks] == [1, 2, 1]
    assert find_sided_intersection(res.system, open_first_side=True) is None
    assert trek_system_from_doc(trek_system_to_doc(res.system)) == res.system
    with pytest.raises(ValueError, match="repeats a vertex"):
        exists_trek_system_no_sided_intersection(g, sides)
    with pytest.raises(ValueError, match="repeats a vertex"):
        exists_trek_system_no_sided_intersection(g, (sides[1], sides[0], sides[2]), open_first_side=True)
