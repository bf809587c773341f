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
from multitrek.estimation import test_determinant_zero as determinant_flag
from multitrek.treks import reach_sets
from conftest import all_paths, random_dag, random_mixed, random_sides


def test_reachable_from(two_root_dag):
    assert reachable_from(two_root_dag, 1) == frozenset({1, 4, 5, 6, 7})
    assert reachable_from(two_root_dag, 2) == frozenset({2, 6, 8})
    assert reachable_from(two_root_dag, 5) == frozenset({5})


def test_reach_sets_match_reachable_from(two_root_dag, menger_gap):
    for g in (two_root_dag, menger_gap[0]):
        assert reach_sets(g) == {v: reachable_from(g, v) for v in g.vertices}


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


def brute_force_si_free_system(g, sides):
    n = len(sides[0])
    pool = []
    for sinks in itertools.product(*sides):
        pool.extend(enumerate_ktreks(g, sinks))
    for rows in itertools.product(pool, repeat=n):
        if [r.paths[0].sink for r in rows] != list(sides[0]):
            continue
        if any(
            sorted(r.paths[i].sink for r in rows) != sorted(sides[i])
            for i in range(1, len(sides))
        ):
            continue
        shared = False
        for i in range(len(sides)):
            seen = set()
            for r in rows:
                for x in r.paths[i].vertices:
                    if x in seen:
                        shared = True
                    seen.add(x)
        if not shared:
            return True
    return False


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


def test_search_budget(two_root_dag):
    with pytest.raises(BudgetExceeded):
        exists_trek_system_no_sided_intersection(
            two_root_dag, ((4, 6), (7, 8)), budget=0
        )


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
