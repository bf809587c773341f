import copy
import itertools
import json
import random
import time

import pytest

from multitrek import (
    Decision,
    InternalInconsistency,
    MixedGraph,
    TrekSearchResult,
    canonical_dag,
    certify_decision,
    decide_vanishing,
    detect_common_cause,
    exists_trek_system_no_sided_intersection,
    find_sided_intersection,
    graph_hash,
    symbolic_instance,
    trek_system_from_doc,
)
from multitrek.cumulants import _DeterminantPlan
from multitrek.oracle import EXIT_NOT_VANISHES, EXIT_VANISHES, instance_seed
from multitrek.treks import first_linked_top
from conftest import (
    has_perfect_3d_matching,
    nonzero_top_by_path_polynomials,
    random_mixed,
    random_sides,
    three_dm_instance,
)


def test_star_not_vanishes_both_modes(star):
    sides = ((1,), (2,), (3,))
    d = decide_vanishing(star, sides, mode="randomized", seed=3)
    assert d.verdict == "NotVanishes"
    assert d.exit_code == EXIT_NOT_VANISHES
    assert len(d.algebraic_record) == 5
    assert [e["seed"] for e in d.algebraic_record] == [
        instance_seed(3, t) for t in range(5)
    ]
    assert any(e["determinant"] != "0/1" for e in d.algebraic_record)
    assert "trek_system" in d.combinatorial_certificate

    c = decide_vanishing(star, sides, mode="certain")
    assert c.verdict == "NotVanishes"
    assert c.seed is None and c.trials is None and c.value_range is None
    assert c.algebraic_record[0]["seed"] is None
    assert c.algebraic_record[0]["determinant"].startswith("nonzero-polynomial(")


def test_collider_vanishes_both_modes(collider):
    sides = ((1,), (2,), (3,))
    d = decide_vanishing(collider, sides, mode="randomized", seed=3)
    assert d.verdict == "Vanishes"
    assert d.exit_code == EXIT_VANISHES
    assert all(e["determinant"] == "0/1" for e in d.algebraic_record)
    assert "obstructions" in d.combinatorial_certificate

    c = decide_vanishing(collider, sides, mode="certain")
    assert c.verdict == "Vanishes"
    assert c.algebraic_record == ({"seed": None, "determinant": "0"},)


def test_repeated_vertex_side_policy(chain2):
    d = decide_vanishing(chain2, ((1, 1), (1, 2)), mode="randomized", seed=0)
    assert d.verdict == "Vanishes"
    assert d.combinatorial_certificate == {"policy": "repeated vertex within a side"}
    assert d.algebraic_record == ()
    ok, reason = certify_decision(chain2, d.to_doc())
    assert ok, reason


def test_decide_validation(chain2):
    with pytest.raises(ValueError):
        decide_vanishing(chain2, (((1,)),))
    with pytest.raises(ValueError):
        decide_vanishing(chain2, ((1,), (1, 2)), seed=0)
    with pytest.raises(ValueError):
        decide_vanishing(chain2, ((), ()), seed=0)
    with pytest.raises(ValueError):
        decide_vanishing(chain2, ((1,), (9,)), seed=0)
    with pytest.raises(ValueError):
        decide_vanishing(chain2, ((1,), (2,)), mode="guess", seed=0)
    with pytest.raises(ValueError):
        decide_vanishing(chain2, ((1,), (2,)), mode="randomized")


def test_graph_hash_distinguishes(star, collider):
    assert graph_hash(star) == graph_hash(star)
    assert graph_hash(star) != graph_hash(collider)
    assert len(graph_hash(star)) == 64


def test_decision_json_deterministic(star):
    a = decide_vanishing(star, ((1,), (2,)), seed=11)
    b = decide_vanishing(star, ((1,), (2,)), seed=11)
    assert a == b
    assert a.to_json() == b.to_json()
    doc = json.loads(a.to_json())
    assert doc["verdict"] == "NotVanishes"
    assert doc["order"] == 2
    assert doc["value_range"] == 997


def test_detect_common_cause_wraps(star):
    d = detect_common_cause(star, (1, 2, 3), seed=4)
    e = decide_vanishing(star, ((1,), (2,), (3,)), seed=4)
    assert d == e
    with pytest.raises(ValueError):
        detect_common_cause(star, (1,), seed=4)


def test_certify_round_trips(star, collider, latent_triple):
    d = decide_vanishing(star, ((1,), (2,), (3,)), seed=5)
    assert certify_decision(star, d.to_doc()) == (True, "certificate verified")

    v = decide_vanishing(collider, ((1,), (2,), (3,)), seed=5)
    assert certify_decision(collider, v.to_doc()) == (True, "vanishing re-verified")

    m = decide_vanishing(latent_triple, ((1,), (2,), (3,)), seed=5)
    assert m.verdict == "NotVanishes"
    ok, reason = certify_decision(latent_triple, m.to_doc())
    assert ok, reason

    # round trip through JSON too
    assert certify_decision(star, json.loads(d.to_json()))[0]


def test_certify_rejects_tampering(star, collider):
    d = decide_vanishing(star, ((1,), (2,), (3,)), seed=6)
    doc = d.to_doc()

    assert certify_decision(collider, doc) == (False, "graph hash does not match")

    bad = copy.deepcopy(doc)
    bad["algebraic_record"][0]["determinant"] = "1/2"
    ok, reason = certify_decision(star, bad)
    assert not ok and "does not replay" in reason

    bad = copy.deepcopy(doc)
    bad["verdict"] = "Vanishes"
    ok, reason = certify_decision(star, bad)
    assert not ok and "nonzero determinant" in reason

    bad = copy.deepcopy(doc)
    del bad["combinatorial_certificate"]["trek_system"]
    ok, reason = certify_decision(star, bad)
    assert not ok and "missing trek system" in reason

    bad = copy.deepcopy(doc)
    bad["combinatorial_certificate"]["trek_system"]["treks"][0]["paths"][0] = [3, 1]
    ok, reason = certify_decision(star, bad)
    assert not ok

    bad = copy.deepcopy(doc)
    bad["combinatorial_certificate"]["trek_system"]["sign"] = -d.combinatorial_certificate[
        "trek_system"
    ]["sign"]
    ok, reason = certify_decision(star, bad)
    assert not ok and "sign" in reason

    bad = copy.deepcopy(doc)
    bad["verdict"] = "Maybe"
    ok, reason = certify_decision(star, bad)
    assert not ok and "unknown verdict" in reason

    for sides in ([[1], [9]], [[1]], [1, 2]):
        bad = copy.deepcopy(doc)
        bad["sides"] = sides
        ok, reason = certify_decision(star, bad)
        assert not ok and "sides are malformed" in reason


def test_modes_agree_on_random_graphs():
    rng = random.Random(61)
    for _ in range(20):
        g = random_mixed(rng, max_vertices=5, edge_prob=0.4, max_hyperedges=1)
        k = rng.randint(2, 3)
        n = rng.randint(1, 2)
        sides = random_sides(rng, g, k, n)
        rand = decide_vanishing(g, sides, mode="randomized", seed=rng.getrandbits(16))
        cert = decide_vanishing(g, sides, mode="certain")
        assert rand.verdict == cert.verdict
        search = exists_trek_system_no_sided_intersection(
            g, sides, open_first_side=k % 2 == 1
        )
        assert (rand.verdict == "NotVanishes") == search.found
        ok, reason = certify_decision(g, rand.to_doc())
        assert ok, reason


# Five-vertex witness of the paper criterion's odd-order blind spot: no
# intersection-free trek system exists between these sides, yet the
# order-3 determinant is the nonzero monomial 2*e3_2*e3_3*l2_3*l3_4^2.
# The oracle's odd-order rule lets side-1 paths meet and finds a witness.
GAP_GRAPH = MixedGraph((1, 2, 3, 4, 5), ((2, 3), (2, 5), (3, 4), (3, 5)))
GAP_SIDES = ((3, 4), (2, 3), (2, 4))

# Decisions on GAP_GRAPH / GAP_SIDES as earlier versions wrote them, with a
# "gap" certificate: certain mode, and randomized mode at seed 8.
_GAP_NOTE = (
    "no intersection-free trek system exists, yet the determinant is nonzero: "
    "at orders >= 3 absence of a system is not sufficient for vanishing (systems "
    "meeting only on side 1 need not cancel), so the verdict follows the algebraic record"
)
LEGACY_GAP_CERTAIN = (
    '{"algebraic_record":[{"determinant":"nonzero-polynomial(1 terms)","seed":null}],'
    '"combinatorial_certificate":{"gap":"' + _GAP_NOTE + '",'
    '"obstructions":[{"blocked_side":1,"top":[2,3]}]},'
    '"graph_hash":"baa06edbc468e844b119c63a06b42c9644c15a8395a88ae647ee9b02bbf3fe28",'
    '"mode":"certain","order":3,"seed":null,"sides":[[3,4],[2,3],[2,4]],'
    '"trials":null,"value_range":null,"verdict":"NotVanishes"}'
)
LEGACY_GAP_SEED8 = (
    '{"algebraic_record":[{"determinant":"3636524102400/1","seed":8000025},'
    '{"determinant":"-7651313227800/1","seed":8000026},'
    '{"determinant":"8140065906420/1","seed":8000027},'
    '{"determinant":"1750290780336/1","seed":8000028},'
    '{"determinant":"221877046116/1","seed":8000029}],'
    '"combinatorial_certificate":{"gap":"' + _GAP_NOTE + '",'
    '"obstructions":[{"blocked_side":1,"top":[2,3]}]},'
    '"graph_hash":"baa06edbc468e844b119c63a06b42c9644c15a8395a88ae647ee9b02bbf3fe28",'
    '"mode":"randomized","order":3,"seed":8,"sides":[[3,4],[2,3],[2,4]],'
    '"trials":5,"value_range":997,"verdict":"NotVanishes"}'
)


def test_blind_spot_returns_gap_decision():
    search = exists_trek_system_no_sided_intersection(GAP_GRAPH, GAP_SIDES)
    assert not search.found

    for mode, seed in (("randomized", 5), ("certain", None)):
        d = decide_vanishing(GAP_GRAPH, GAP_SIDES, mode=mode, seed=seed)
        assert d.verdict == "NotVanishes"
        assert d.exit_code == EXIT_NOT_VANISHES
        assert all(e["determinant"] not in ("0", "0/1") for e in d.algebraic_record)
        assert "gap" not in d.combinatorial_certificate
        system = trek_system_from_doc(d.combinatorial_certificate["trek_system"])
        meeting = find_sided_intersection(system)
        assert meeting is not None and meeting.side == 1
        assert find_sided_intersection(system, open_first_side=True) is None

    r = decide_vanishing(GAP_GRAPH, GAP_SIDES, mode="randomized", seed=5)
    assert all(e["determinant"] != "0/1" for e in r.algebraic_record)


def test_gap_certify_round_trip_and_tampering():
    d = json.loads(LEGACY_GAP_CERTAIN)
    ok, reason = certify_decision(GAP_GRAPH, d)
    assert ok and "gap verified" in reason

    r = json.loads(LEGACY_GAP_SEED8)
    ok, reason = certify_decision(GAP_GRAPH, r)
    assert ok and "gap verified" in reason

    bad = copy.deepcopy(d)
    del bad["combinatorial_certificate"]["obstructions"]
    ok, reason = certify_decision(GAP_GRAPH, bad)
    assert not ok and "obstruction log" in reason

    bad = copy.deepcopy(d)
    bad["verdict"] = "Vanishes"
    ok, reason = certify_decision(GAP_GRAPH, bad)
    assert not ok

    # a gap marker smuggled into an order-2 decision must be rejected
    star = MixedGraph((0, 1, 2), ((0, 1), (0, 2)))
    two = decide_vanishing(star, ((1,), (2,)), mode="certain")
    bad = copy.deepcopy(two.to_doc())
    bad["combinatorial_certificate"] = {
        "gap": "forged",
        "obstructions": [],
    }
    ok, reason = certify_decision(star, bad)
    assert not ok and "order 2" in reason


def test_order2_disagreement_raises(monkeypatch):
    import multitrek.oracle as oracle_module

    g = MixedGraph((1, 2), ())  # no treks between 1 and 2 at all
    monkeypatch.setattr(oracle_module._DeterminantPlan, "at_seed", lambda plan, seed: 1)
    with pytest.raises(InternalInconsistency, match="order-2"):
        decide_vanishing(g, ((1,), (2,)), mode="randomized", seed=1)


def test_witness_with_zero_determinant_raises(monkeypatch, star):
    # The search names the nonzero term at every order: the order-2 flow
    # by the tops of its own treks, the k-trek search by its first linked
    # top set.  The oracle consults no second enumeration, so one that
    # would find nothing or fail changes nothing.
    import multitrek.oracle as oracle_module

    def no_enumeration(*args, **kwargs):
        raise AssertionError("the oracle ran a second top-set enumeration")

    monkeypatch.setattr(oracle_module._DeterminantPlan, "at_seed", lambda plan, seed: 0)
    monkeypatch.setattr(oracle_module, "first_linked_top", no_enumeration)
    for mode, seed in (("randomized", 2), ("certain", None)):
        d = decide_vanishing(star, ((1,), (2,)), mode=mode, seed=seed)
        assert d.algebraic_record[-1] == {"seed": None, "determinant": "nonzero-polynomial(top [0])"}
    monkeypatch.setattr(
        oracle_module, "first_linked_top", lambda *args, **kwargs: TrekSearchResult(system=None)
    )
    for mode, seed in (("randomized", 2), ("certain", None)):
        d = decide_vanishing(star, ((1,), (2,), (3,)), mode=mode, seed=seed)
        assert d.algebraic_record[-1] == {"seed": None, "determinant": "nonzero-polynomial(top [0])"}


def test_randomized_fluke_resolved_symbolically(monkeypatch, star):
    # all randomized draws read zero, but the symbolic recheck sees the
    # truth: the decision stands and records the recheck entry
    import multitrek.oracle as oracle_module

    monkeypatch.setattr(oracle_module._DeterminantPlan, "at_seed", lambda plan, seed: 0)
    for sides in (((1,), (2,)), ((1,), (2,), (3,))):
        d = decide_vanishing(star, sides, mode="randomized", seed=9)
        assert d.verdict == "NotVanishes"
        assert "trek_system" in d.combinatorial_certificate
        assert d.algebraic_record[-1] == {"seed": None, "determinant": "nonzero-polynomial(top [0])"}
        assert all(e["determinant"] == "0/1" for e in d.algebraic_record[:-1])


def test_side_one_repeat_at_odd_order_is_decided():
    # Equal mode-1 slices force a zero determinant only at even orders; at
    # odd orders a repeat on side 1 alone is decided like any other input.
    fork = MixedGraph((0, 1, 2), ((0, 1), (0, 2)))
    sides = ((1, 1), (1, 2), (1, 2))
    for mode, seed in (("randomized", 7), ("certain", None)):
        d = decide_vanishing(fork, sides, mode=mode, seed=seed)
        assert d.verdict == "NotVanishes"
        assert "trek_system" in d.combinatorial_certificate
        assert certify_decision(fork, d.to_doc()) == (True, "certificate verified")

    # The repeat sits at positions 1 and 3 of side 1.
    star = MixedGraph((0, 1, 2, 3), ((0, 1), (0, 2), (0, 3)))
    d = decide_vanishing(star, ((1, 2, 1), (1, 2, 3), (1, 2, 3)), mode="certain")
    assert d.verdict == "NotVanishes"
    assert certify_decision(star, d.to_doc()) == (True, "certificate verified")

    # A repeat on a signed side, or on side 1 at even order, forces zero.
    for forced in (((1, 2), (1, 1), (1, 2)), ((1, 1), (1, 2)), ((1, 1), (1, 2), (1, 2), (1, 2))):
        d = decide_vanishing(fork, forced, seed=7)
        assert d.combinatorial_certificate == {"policy": "repeated vertex within a side"}
        assert certify_decision(fork, d.to_doc()) == (True, "policy short-circuit verified")

    # A policy document for the odd-order side-1 repeat states a false verdict.
    forged = decide_vanishing(fork, ((1, 1), (1, 2)), seed=7).to_doc()
    forged.update(sides=[list(s) for s in sides], order=3)
    assert certify_decision(fork, forged) == (
        False, "policy certificate does not apply to these sides"
    )


# One hyperedge over four vertices and nothing else: a single latent top,
# so no system of two treks between (1, 2) and (3, 4) exists.
SHARED_TOP = MixedGraph((1, 2, 3, 4), multidirected_edges=((1, 2, 3, 4),))


def _shared_top_system(sides):
    return {
        "treks": [
            {"paths": [[1], [3]], "top": {"hyperedge": [1, 2, 3, 4], "sources": [1, 3]}},
            {"paths": [[2], [4]], "top": {"hyperedge": [1, 2, 3, 4], "sources": [2, 4]}},
        ],
        "side_endpoints": [list(s) for s in sides],
        "permutations": [[0, 1]],
        "sign": 1,
    }


def test_certify_rejects_forged_not_vanishes_documents():
    sides = ((1, 2), (3, 4))
    d = decide_vanishing(SHARED_TOP, sides, seed=3)
    assert d.verdict == "Vanishes"
    forged = d.to_doc()
    forged["verdict"] = "NotVanishes"
    forged["combinatorial_certificate"] = {"trek_system": _shared_top_system(sides)}
    ok, _ = certify_decision(SHARED_TOP, forged)
    assert not ok

    # Either defect alone is enough.  Two treks may not share a hyperedge
    # top, even beside a genuinely nonzero record ...
    g = MixedGraph((1, 2, 3, 4), ((1, 3), (2, 4)), ((1, 2, 3, 4),))
    real = decide_vanishing(g, sides, seed=3).to_doc()
    assert real["verdict"] == "NotVanishes"
    shared = copy.deepcopy(real)
    shared["combinatorial_certificate"] = {"trek_system": _shared_top_system(sides)}
    assert certify_decision(g, shared) == (False, "certificate treks share a hyperedge top")

    # ... and a valid witness needs a nonzero record beside it.
    bare = copy.deepcopy(real)
    bare["algebraic_record"] = []
    assert certify_decision(g, bare) == (
        False, "non-vanishing verdict carries no nonzero determinant"
    )
    assert certify_decision(g, real) == (True, "certificate verified")


# Vanishing at order 2 through vertex 3 on side 2; the hyperedge's latent
# has canonical-DAG id 6.
ORDER_TWO_GRAPH = MixedGraph((1, 2, 3, 4, 5), ((1, 3), (3, 4), (3, 5)), ((1, 2, 3),))
ORDER_TWO_SIDES = ((1, 2), (4, 5))

# Order-2 decisions on ORDER_TWO_GRAPH as versions before the order-2 flow
# wrote them, with an obstruction log in place of a separator: randomized
# mode at seed 3, and certain mode.
LEGACY_ORDER_TWO_SEED3 = (
    '{"algebraic_record":[{"determinant":"0/1","seed":3000010},'
    '{"determinant":"0/1","seed":3000011},{"determinant":"0/1","seed":3000012},'
    '{"determinant":"0/1","seed":3000013},{"determinant":"0/1","seed":3000014}],'
    '"combinatorial_certificate":{"obstructions":[{"blocked_side":2,"top":[1,6]}]},'
    '"graph_hash":"c5909bb84f76dfbb9ec2ad4d4b440a8cdc5ef87219348cab5f7191c49498f25e",'
    '"mode":"randomized","order":2,"seed":3,"sides":[[1,2],[4,5]],"trials":5,'
    '"value_range":997,"verdict":"Vanishes"}'
)
LEGACY_ORDER_TWO_CERTAIN = (
    '{"algebraic_record":[{"determinant":"0","seed":null}],'
    '"combinatorial_certificate":{"obstructions":[{"blocked_side":2,"top":[1,6]}]},'
    '"graph_hash":"c5909bb84f76dfbb9ec2ad4d4b440a8cdc5ef87219348cab5f7191c49498f25e",'
    '"mode":"certain","order":2,"seed":null,"sides":[[1,2],[4,5]],"trials":null,'
    '"value_range":null,"verdict":"Vanishes"}'
)


def test_order_two_decisions_certify_and_take_no_budget():
    rng = random.Random(62)
    verdicts = []
    for _ in range(40):
        g = random_mixed(rng, max_vertices=7, edge_prob=0.3, max_hyperedges=2)
        n = rng.randint(1, min(3, len(g.vertices)))
        sides = random_sides(rng, g, 2, n)
        for mode, seed in (("randomized", rng.getrandbits(16)), ("certain", None)):
            d = decide_vanishing(g, sides, mode=mode, seed=seed, budget=0)
            verdicts.append(d.verdict)
            if d.verdict == "Vanishes":
                assert list(d.combinatorial_certificate) == ["separator"]
                expected = (True, "separator verified")
            else:
                expected = (True, "certificate verified")
            assert certify_decision(g, json.loads(d.to_json()), budget=0) == expected
    assert verdicts.count("Vanishes") >= 10 and verdicts.count("NotVanishes") >= 10


def test_order_two_record_names_the_flow_tops():
    # On 0 -> 2 with sides (2), (2) both {0} and {2} are linked top sets.
    # The flow's trek is the one-vertex trek at 2, so the record names [2];
    # documents naming the first linked set [0] still certify.
    g = MixedGraph((0, 2), ((0, 2),))
    d = decide_vanishing(g, ((2,), (2,)), mode="certain", budget=0)
    assert d.algebraic_record == ({"seed": None, "determinant": "nonzero-polynomial(top [2])"},)
    doc = json.loads(d.to_json())
    assert certify_decision(g, doc, budget=0) == (True, "certificate verified")
    doc["algebraic_record"] = [{"seed": None, "determinant": "nonzero-polynomial(top [0])"}]
    assert certify_decision(g, doc, budget=0) == (True, "certificate verified")


def test_legacy_order_two_obstruction_logs_still_certify():
    for text in (LEGACY_ORDER_TWO_SEED3, LEGACY_ORDER_TWO_CERTAIN):
        assert certify_decision(ORDER_TWO_GRAPH, json.loads(text), budget=0) == (
            True, "vanishing re-verified"
        )
    fresh = decide_vanishing(ORDER_TWO_GRAPH, ORDER_TWO_SIDES, seed=3).to_doc()
    legacy = json.loads(LEGACY_ORDER_TWO_SEED3)
    assert fresh["combinatorial_certificate"] == {"separator": [[], [3]]}
    del fresh["combinatorial_certificate"], legacy["combinatorial_certificate"]
    assert fresh == legacy


@pytest.mark.parametrize("side", [[2.0], [True]], ids=["float", "bool"])
def test_side_ids_must_be_ints(star, side):
    # 2.0 == 2 and True == 1 are vertex ids by equality, but not ints.
    message = f"side {tuple(side)} holds a vertex id that is not an int"
    with pytest.raises(ValueError) as info:
        decide_vanishing(star, [side, [3]], seed=6)
    assert str(info.value) == message
    doc = decide_vanishing(star, ((int(side[0]),), (3,)), seed=6).to_doc()
    assert certify_decision(star, doc) == (True, "certificate verified")
    doc["sides"] = [side, [3]]
    assert certify_decision(star, doc) == (False, f"decision sides are malformed: {message}")


def test_certify_rejects_malformed_documents_with_a_reason(star, collider):
    doc = decide_vanishing(star, ((1,), (2,)), seed=6).to_doc()
    for field, value, reason in (
        ("algebraic_record", [5], "the algebraic record must be a list of JSON objects"),
        ("algebraic_record", 5, "the algebraic record must be a list of JSON objects"),
        ("algebraic_record", [{"seed": "7", "determinant": "1/1"}],
         "recorded seed '7' is not an integer"),
        ("combinatorial_certificate", ["trek_system"],
         "the combinatorial certificate must be a JSON object"),
    ):
        bad = copy.deepcopy(doc)
        bad[field] = value
        assert certify_decision(star, bad) == (False, reason)
    bad = copy.deepcopy(doc)
    bad["combinatorial_certificate"] = {"trek_system": 5}
    ok, reason = certify_decision(star, bad)
    assert not ok and reason.startswith("malformed trek system")
    # Repeats force zero, but only a policy certificate may say so.
    bad = json.loads(LEGACY_ORDER_TWO_SEED3)
    bad["sides"] = [[1, 1], [4, 5]]
    assert certify_decision(ORDER_TWO_GRAPH, bad) == (
        False, "the sides repeat a vertex, which only a policy certificate covers"
    )

    vanishing = decide_vanishing(ORDER_TWO_GRAPH, ORDER_TWO_SIDES, seed=3).to_doc()
    unknown = "which is no vertex of the canonical DAG"
    for separator, reason in (
        ([[3]], "separator must be two lists of vertex ids"),
        ([3, []], "separator must be two lists of vertex ids"),
        ({"A": [], "B": [3]}, "separator must be two lists of vertex ids"),
        ([["3"], []], f"separator names '3', {unknown}"),
        ([[], [True]], f"separator names True, {unknown}"),
        ([[9], []], f"separator names 9, {unknown}"),
        ([[6], [3]], "separator is not smaller than the sides"),
        ([[6], []], "separator does not t-separate the sides"),
    ):
        bad = copy.deepcopy(vanishing)
        bad["combinatorial_certificate"] = {"separator": separator}
        assert certify_decision(ORDER_TWO_GRAPH, bad) == (False, reason)

    order_three = decide_vanishing(collider, ((1,), (2,), (3,)), seed=6).to_doc()
    assert order_three["verdict"] == "Vanishes"
    order_three["combinatorial_certificate"] = {"separator": [[], []]}
    assert certify_decision(collider, order_three) == (
        False, "a separator certifies order 2 only, not order 3"
    )


@pytest.mark.parametrize(
    "graph, field, value, reason",
    [
        ("star", "paths", [[0.9, True], [False, 2.5], [0, 3]], "/treks/0/paths/0/0: must be an integer"),
        ("star", "paths", [[0, True], [0, 2], [0, 3]], "/treks/0/paths/0/1: must be an integer"),
        ("star", "top", {"vertex": 0.0}, "/treks/0/top/vertex: must be an integer"),
        ("star", "top", {"vertex": False}, "/treks/0/top/vertex: must be an integer"),
        ("latent", "top", {"hyperedge": [1, 2.0, 3], "sources": [1, 2, 3]},
         "/treks/0/top/hyperedge/1: must be an integer"),
        ("latent", "top", {"hyperedge": [True, 2, 3], "sources": [1, 2, 3]},
         "/treks/0/top/hyperedge/0: must be an integer"),
        ("star", "side_endpoints", [[1.0], [2], [3]], "/side_endpoints/0/0: must be an integer"),
        ("star", "side_endpoints", [[1], [2], [3.0]], "/side_endpoints/2/0: must be an integer"),
    ],
)
def test_certify_refuses_witness_ids_that_are_no_json_ints(star, latent_triple, graph, field, value, reason):
    # Each value equals the stored id under int(), which once let the witness verify.
    g = {"star": star, "latent": latent_triple}[graph]
    doc = decide_vanishing(g, ((1,), (2,), (3,)), seed=1).to_doc()
    system = doc["combinatorial_certificate"]["trek_system"]
    if field == "side_endpoints":
        system[field] = value
    else:
        system["treks"][0][field] = value
    assert certify_decision(g, doc) == (False, f"malformed trek system: {reason}")


@pytest.mark.parametrize("sign", [True, 1.0, "1"])
def test_certify_refuses_a_sign_that_is_no_json_int(star, sign):
    doc = decide_vanishing(star, ((1,), (2,), (3,)), seed=1).to_doc()
    assert doc["combinatorial_certificate"]["trek_system"]["sign"] == 1
    doc["combinatorial_certificate"]["trek_system"]["sign"] = sign
    assert certify_decision(star, doc) == (False, "stored sign does not match the recomputed sign")


def test_certify_rejects_vanishing_documents_without_a_certificate(star, collider):
    # Only a policy entry, a separator or an obstruction log certifies a
    # vanishing verdict; any other certificate is refused by its shape.
    reason = "vanishing certificate needs a separator or an obstruction log"
    order_two = json.loads(LEGACY_ORDER_TWO_SEED3)
    order_three = decide_vanishing(collider, ((1,), (2,), (3,)), seed=6).to_doc()
    assert order_three["verdict"] == "Vanishes"
    for g, doc in ((ORDER_TWO_GRAPH, order_two), (collider, order_three)):
        for certificate in (
            {},
            {"whatever": 1},
            {"obstructions": "nonsense"},
            {"obstructions": [5]},
            {"obstructions": [{"top": [1]}]},
            {"obstructions": [{"top": "1", "blocked_side": 1}]},
            {"obstructions": [{"top": [1.0], "blocked_side": 1}]},
            {"obstructions": [{"top": [1], "blocked_side": "1"}]},
            {"obstructions": [{"top": [1], "blocked_side": 1, "extra": 0}]},
        ):
            bad = copy.deepcopy(doc)
            bad["combinatorial_certificate"] = certificate
            assert certify_decision(g, bad, budget=0) == (False, reason)
    # The log's shape is checked, not its content: legacy logs still pass.
    bad = copy.deepcopy(order_three)
    bad["combinatorial_certificate"] = {"obstructions": [{"top": [9], "blocked_side": 7}]}
    assert certify_decision(collider, bad) == (True, "vanishing re-verified")

    gap = json.loads(LEGACY_GAP_CERTAIN)
    gap["combinatorial_certificate"]["obstructions"] = "nonsense"
    assert certify_decision(GAP_GRAPH, gap) == (
        False, "gap certificate is missing the obstruction log"
    )


def test_certify_rejects_each_tampered_claim_with_its_reason(monkeypatch, star, collider):
    import multitrek.oracle as oracle_module

    sides = ((1,), (2,), (3,))
    found = decide_vanishing(star, sides, seed=6).to_doc()
    certain = decide_vanishing(star, sides, mode="certain").to_doc()
    empty = decide_vanishing(collider, sides, seed=6).to_doc()
    assert (found["verdict"], empty["verdict"]) == ("NotVanishes", "Vanishes")

    bad = copy.deepcopy(empty)
    bad["algebraic_record"] = [{"seed": None, "determinant": "nonzero-polynomial(1 terms)"}]
    assert certify_decision(collider, bad) == (
        False, "vanishing verdict carries a nonzero determinant"
    )

    # A claimed vanishing where the search finds a witness, at orders 2 and 3 ...
    for order_sides in (sides[:2], sides):
        bad = decide_vanishing(star, order_sides, seed=6).to_doc()
        bad.update(verdict="Vanishes", algebraic_record=[])
        bad["combinatorial_certificate"] = {"obstructions": []}
        assert certify_decision(star, bad) == (
            False, "a trek system without sided intersection exists after all"
        )
    # ... and a gap claimed where the closed search finds one.
    bad = copy.deepcopy(found)
    bad["combinatorial_certificate"] = {"gap": "forged", "obstructions": []}
    assert certify_decision(star, bad) == (
        False, "a trek system without sided intersection exists after all"
    )

    bad = copy.deepcopy(empty)
    bad["verdict"] = "NotVanishes"
    bad["combinatorial_certificate"] = {"gap": "forged", "obstructions": []}
    assert certify_decision(collider, bad) == (
        False, "gap certificate carries no nonzero evidence"
    )

    bad = copy.deepcopy(certain)
    bad["sides"] = [[1], [3], [2]]
    assert certify_decision(star, bad) == (
        False, "trek system endpoints do not match the decision sides"
    )

    bad = copy.deepcopy(found)
    bad["combinatorial_certificate"]["trek_system"]["treks"][0] = {
        "paths": [[3, 1], [3, 2], [3]], "top": {"vertex": 3}
    }
    assert certify_decision(star, bad) == (
        False, "certificate path [3, 1] is not a path of the graph"
    )

    latent = MixedGraph((1, 2, 3), multidirected_edges=((1, 2, 3),))
    bad = decide_vanishing(latent, sides, seed=6).to_doc()
    top = bad["combinatorial_certificate"]["trek_system"]["treks"][0]["top"]
    assert top["hyperedge"] == [1, 2, 3]
    top["hyperedge"] = [1, 2, 3, 4]
    assert certify_decision(latent, bad) == (
        False, "certificate hyperedge [1, 2, 3, 4] is not in the graph"
    )

    # An empty search beside a nonzero polynomial: the search is also the
    # zero test, so only the record can refuse the document, by a replayed
    # draw or by a named top set.
    monkeypatch.setattr(
        oracle_module,
        "exists_trek_system_no_sided_intersection",
        lambda *args, **kwargs: TrekSearchResult(system=None),
    )
    for doc in (found, certain):
        bad = copy.deepcopy(doc)
        bad["verdict"] = "Vanishes"
        bad["combinatorial_certificate"] = {"obstructions": []}
        assert certify_decision(star, bad) == (
            False, "vanishing verdict carries a nonzero determinant"
        )


# The k = 5, n = 3 document whose symbolic recheck once expanded the full
# polynomial determinant, 6**4 products of polynomial entries, and did not
# return in minutes; the search, which is also the zero test, answers in
# milliseconds.
FIVE_SIDES_GRAPH = MixedGraph(
    (1, 2, 3, 4, 5, 6, 7),
    ((1, 2), (1, 3), (1, 6), (2, 3), (2, 5), (2, 6), (3, 4), (3, 6), (4, 7), (5, 7), (6, 7)),
    ((1, 2, 4, 7), (1, 6, 7)),
)
FIVE_SIDES = ((4, 5, 6), (1, 3, 5), (1, 5, 7), (1, 4, 6), (2, 5, 6))


def test_zero_test_certifies_the_order_five_vanishing_document():
    d = decide_vanishing(FIVE_SIDES_GRAPH, FIVE_SIDES, seed=287)
    assert d.verdict == "Vanishes"
    assert certify_decision(FIVE_SIDES_GRAPH, d.to_doc()) == (True, "vanishing re-verified")
    c = decide_vanishing(FIVE_SIDES_GRAPH, FIVE_SIDES, mode="certain")
    assert c.verdict == "Vanishes"
    assert c.algebraic_record == ({"seed": None, "determinant": "0"},)


def _tops_of(det, k: int) -> set:
    """The n-sets T of the noise monomials kappa_T that occur in a symbolic determinant."""
    prefix = f"e{k}_"
    tops = set()
    for mono in det.terms if det else ():
        top = tuple(sorted(int(name[len(prefix):]) for name, exp in mono if name.startswith(prefix)))
        assert all(exp == 1 for name, exp in mono if name.startswith(prefix))
        tops.add(top)
    return tops


def test_zero_test_matches_the_full_expansion_on_random_graphs():
    # Every n-set T passes the path-polynomial reference and the flow test
    # iff kappa_T occurs in the fully expanded determinant, and both name
    # the first such T.  A repeat on side 1 at odd k exercises the
    # permanent.  The full expansion of an n = 3 determinant can take half
    # a minute on six vertices, so those graphs stay smaller.
    rng = random.Random(64)
    shapes = ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (5, 1), (5, 2))
    verdicts = []
    for i in range(150):
        k, n = shapes[i % len(shapes)]
        g = random_mixed(rng, max_vertices=5 if n < 3 else 4, edge_prob=0.45, max_hyperedges=1)
        if len(g.vertices) < n:
            continue
        sides = list(random_sides(rng, g, k, n))
        if k % 2 and n > 1 and i % 3 == 0:
            sides[0] = (sides[0][0],) * n
        dag = canonical_dag(g).dag
        plan = _DeterminantPlan(dag, sides)
        tops = _tops_of(plan.at(symbolic_instance(dag, k)), k)
        for top in itertools.combinations(dag.vertices, n):
            assert (nonzero_top_by_path_polynomials(dag, sides, [top]) is not None) == (top in tops)
            assert first_linked_top(dag, sides, [top], open_first_side=k % 2 == 1).found == (top in tops)
        position = {v: i for i, v in enumerate(dag.vertices)}
        first = min(tops, key=lambda t: [position[v] for v in t]) if tops else None
        assert nonzero_top_by_path_polynomials(dag, sides) == first
        assert first_linked_top(dag, sides, open_first_side=k % 2 == 1).top == first

        rand = decide_vanishing(g, sides, seed=rng.getrandbits(16))
        cert = decide_vanishing(g, sides, mode="certain")
        assert rand.verdict == cert.verdict == ("NotVanishes" if tops else "Vanishes")
        verdicts.append(cert.verdict)
    assert verdicts.count("Vanishes") >= 10 and verdicts.count("NotVanishes") >= 10


def test_flow_zero_test_matches_the_path_polynomial_reference():
    # On 1,500 random mixed graphs (k = 2..5, n <= 3, side-1 repeats at odd
    # k), the flow test agrees with the path-polynomial reference on every
    # n-set T of canonical-DAG vertices.  From order 3 on certain mode
    # records the reference's first T, or "0"; at order 2 it records "0"
    # exactly when the reference finds no T, and else a T (the flow's
    # tops) whose term the reference finds nonzero.
    rng = random.Random(65)
    mismatches = []
    linked = 0
    for i in range(1500):
        k, n = 2 + i % 4, rng.randint(1, 3)
        g = random_mixed(rng, max_vertices=5, edge_prob=0.5, max_hyperedges=1)
        if len(g.vertices) < n:
            continue
        sides = list(random_sides(rng, g, k, n))
        if k % 2 and n > 1 and rng.random() < 0.3:
            sides[0] = tuple(rng.choice(g.vertices) for _ in range(n))
        dag = canonical_dag(g).dag
        for top in itertools.combinations(dag.vertices, n):
            expected = nonzero_top_by_path_polynomials(dag, sides, [top]) is not None
            linked += expected
            if first_linked_top(dag, sides, [top], open_first_side=k % 2 == 1).found != expected:
                mismatches.append((g, sides, top))
        first = nonzero_top_by_path_polynomials(dag, sides)
        record = decide_vanishing(g, sides, mode="certain").algebraic_record
        if k == 2 and first is not None:
            (entry,) = record
            named = json.loads(entry["determinant"].removeprefix("nonzero-polynomial(top ")[:-1])
            if nonzero_top_by_path_polynomials(dag, sides, [tuple(named)]) is None:
                mismatches.append((g, sides, named))
        elif record != ({"seed": None, "determinant": "0" if first is None
                         else f"nonzero-polynomial(top {list(first)})"},):
            mismatches.append((g, sides, first))
    assert mismatches == []
    assert linked >= 1000


def _dense_dag(seed: int, p: int, q: float, k: int, n: int):
    """Edges i -> j (i < j) of vertices 0..p-1, each with probability q, and
    k sides of n vertices from the upper half."""
    rng = random.Random(seed)
    edges = tuple((i, j) for i, j in itertools.combinations(range(p), 2) if rng.random() < q)
    sides = tuple(tuple(sorted(rng.sample(range(p // 2, p), n))) for _ in range(k))
    return MixedGraph(tuple(range(p)), edges), sides


def test_certain_mode_on_a_dense_dag_reads_the_search():
    # Path polynomials on this DAG have one term per path, so a zero test
    # that expands them takes seconds; the flows take milliseconds.
    g, sides = _dense_dag(1, p=22, q=0.6, k=3, n=2)
    assert (len(g.directed_edges), sides) == (143, ((18, 20), (13, 20), (12, 19)))
    start = time.perf_counter()
    d = decide_vanishing(g, sides, mode="certain")
    assert time.perf_counter() - start < 1.0
    assert d.algebraic_record == ({"seed": None, "determinant": "nonzero-polynomial(top [0, 1])"},)
    assert certify_decision(g, d.to_doc()) == (True, "certificate verified")


def test_certify_named_top_is_re_derived(star):
    sides = ((1,), (2,), (3,))
    doc = decide_vanishing(star, sides, mode="certain").to_doc()
    assert doc["algebraic_record"] == [{"seed": None, "determinant": "nonzero-polynomial(top [0])"}]
    assert certify_decision(star, doc) == (True, "certificate verified")

    # Vertex 1 has no path into sides 2 and 3: its factors are zero.
    bad = copy.deepcopy(doc)
    bad["algebraic_record"][0]["determinant"] = "nonzero-polynomial(top [1])"
    assert certify_decision(star, bad) == (False, "recorded top [1] has a zero factor")

    # Documents written before the factored test count the polynomial's terms.
    legacy = copy.deepcopy(doc)
    legacy["algebraic_record"][0]["determinant"] = "nonzero-polynomial(1 terms)"
    assert certify_decision(star, legacy) == (True, "certificate verified")


def test_certify_named_top_must_be_an_n_set_of_dag_vertices():
    doc = decide_vanishing(GAP_GRAPH, GAP_SIDES, mode="certain").to_doc()
    entry = doc["algebraic_record"][0]["determinant"]
    assert entry == "nonzero-polynomial(top [2, 3])"
    assert certify_decision(GAP_GRAPH, doc) == (True, "certificate verified")
    for top in ("[2, 2]", "[2]", "[2, 3, 4]", "[2, 9]", "[2, true]", '[2, "3"]', "[2, 3", "2, 3"):
        bad = copy.deepcopy(doc)
        recorded = f"nonzero-polynomial(top {top})"
        bad["algebraic_record"][0]["determinant"] = recorded
        assert certify_decision(GAP_GRAPH, bad) == (
            False, f"recorded top in {recorded!r} is no 2-set of canonical-DAG vertices"
        )
    # Vertex 1 is isolated; [3, 4] reaches side 2 = (2, 3) through 3 alone.
    for top in ([1, 3], [3, 4]):
        bad = copy.deepcopy(doc)
        bad["algebraic_record"][0]["determinant"] = f"nonzero-polynomial(top {top})"
        assert certify_decision(GAP_GRAPH, bad) == (False, f"recorded top {top} has a zero factor")


# One document of each verdict and certificate shape: a NotVanishes witness,
# an order-2 separator and an order-3 obstruction log.
TAMPER_CASES = {
    "not-vanishes": (MixedGraph((1, 2, 3, 4), ((1, 2), (1, 3), (2, 4), (3, 4))), ((2,), (3,))),
    "separator": (MixedGraph((1, 2, 3), ((1, 3), (2, 3))), ((1,), (2,))),
    "obstruction-log": (MixedGraph((1, 2, 3), ((1, 3), (2, 3))), ((1,), (2,), (3,))),
}
UNREADABLE = "is no known form"


@pytest.mark.parametrize("mode", ["randomized", "certain"])
@pytest.mark.parametrize("case", sorted(TAMPER_CASES))
@pytest.mark.parametrize(
    "entry, reason",
    [
        ({"seed": None, "determinant": "banana"}, f"recorded symbolic determinant 'banana' {UNREADABLE}"),
        ({"seed": None, "determinant": 5}, f"recorded symbolic determinant 5 {UNREADABLE}"),
        ({"seed": None, "determinant": None}, f"recorded symbolic determinant None {UNREADABLE}"),
        ({"seed": None, "determinant": "nonzero-polynomial(garbage"},
         f"recorded symbolic determinant 'nonzero-polynomial(garbage' {UNREADABLE}"),
        ({"seed": None, "determinant": "nonzero-polynomial(garbage)"},
         f"recorded symbolic determinant 'nonzero-polynomial(garbage)' {UNREADABLE}"),
        ({"seed": None, "determinant": "0/1"}, f"recorded symbolic determinant '0/1' {UNREADABLE}"),
        ({"seed": None, "determinant": "nonzero-polynomial(0 terms)"},
         "recorded term count in 'nonzero-polynomial(0 terms)' is no positive integer"),
        ({"seed": None, "determinant": "nonzero-polynomial(01 terms)"},
         "recorded term count in 'nonzero-polynomial(01 terms)' is no positive integer"),
        ({"seed": None, "determinant": "nonzero-polynomial( 1 terms)"},
         "recorded term count in 'nonzero-polynomial( 1 terms)' is no positive integer"),
        ({"foo": 1}, "each algebraic record entry needs exactly the keys seed and determinant"),
        ({"seed": None}, "each algebraic record entry needs exactly the keys seed and determinant"),
        ({"seed": None, "determinant": "0", "note": 1},
         "each algebraic record entry needs exactly the keys seed and determinant"),
    ],
)
def test_certify_refuses_an_unreadable_record_entry(mode, case, entry, reason):
    g, sides = TAMPER_CASES[case]
    doc = decide_vanishing(g, sides, mode=mode, seed=4).to_doc()
    assert certify_decision(g, doc)[0]
    doc["algebraic_record"].append(entry)
    assert certify_decision(g, doc) == (False, reason)


@pytest.mark.parametrize("mode", ["randomized", "certain"])
@pytest.mark.parametrize("case", sorted(TAMPER_CASES))
def test_certify_reads_every_symbolic_form_by_the_verdict(mode, case):
    g, sides = TAMPER_CASES[case]
    doc = decide_vanishing(g, sides, mode=mode, seed=4).to_doc()
    vanishes = doc["verdict"] == "Vanishes"
    assert vanishes == (case != "not-vanishes")
    # "0" goes with Vanishes only; each nonzero form, the term count that
    # versions before the factored zero test wrote among them, with NotVanishes only.
    for determinant in ("0", "nonzero-polynomial(12 terms)", "nonzero-polynomial(top [1])"):
        entry_doc = copy.deepcopy(doc)
        entry_doc["algebraic_record"].append({"seed": None, "determinant": determinant})
        ok, reason = certify_decision(g, entry_doc)
        if vanishes == (determinant == "0"):
            assert ok, reason
        elif vanishes:
            assert (ok, reason) == (False, "vanishing verdict carries a nonzero determinant")
        else:
            assert (ok, reason) == (False, "non-vanishing verdict carries a zero polynomial")
    # A policy short-circuit evaluates nothing, so its record stays empty.
    policy = decide_vanishing(g, ((1, 1), (2, 3)), mode=mode, seed=4).to_doc()
    assert certify_decision(g, policy) == (True, "policy short-circuit verified")
    policy["algebraic_record"] = [{"seed": None, "determinant": "0"}]
    assert certify_decision(g, policy) == (False, "a policy certificate carries no algebraic record")


def test_every_written_document_certifies():
    rng = random.Random(62)
    for trial in range(24):
        g = random_mixed(rng, max_vertices=6, edge_prob=0.4, max_hyperedges=trial % 2)
        k = 2 + trial % 3
        sides = random_sides(rng, g, k, rng.randint(1, 2))
        for mode in ("randomized", "certain"):
            doc = json.loads(decide_vanishing(g, sides, mode=mode, seed=trial).to_json())
            ok, reason = certify_decision(g, doc)
            assert ok, (trial, mode, reason)


def test_three_dimensional_matching_decides_like_brute_force():
    # The reduction at first_linked_top: a linked top set is a perfect 3D
    # matching, at k = 3 (side 1 open) and at k = 4 (Z repeated as side 4).
    rng = random.Random(61)
    verdicts = []
    for q in (2, 3, 4):
        for i in range(10):
            g, sides, triples = three_dm_instance(rng, q, planted=i % 2 == 0)
            expected = "NotVanishes" if has_perfect_3d_matching(triples, q) else "Vanishes"
            for k in (3, 4):
                for mode in ("certain", "randomized"):
                    seed = None if mode == "certain" else 1000 * q + i
                    d = decide_vanishing(g, (sides + sides[2:])[:k], mode=mode, seed=seed, trials=1)
                    assert d.verdict == expected, (q, triples, k, mode)
                    assert certify_decision(g, d.to_doc())[0], (q, triples, k, mode)
                    verdicts.append(d.verdict)
    assert verdicts.count("Vanishes") >= 30 and verdicts.count("NotVanishes") >= 60  # 40 and 80


@pytest.mark.parametrize("name, value", [("seed", 1.5), ("seed", True), ("trials", 2.5), ("trials", True)])
@pytest.mark.parametrize("mode", ["randomized", "certain"])
def test_seed_and_trials_must_be_ints(star, mode, name, value):
    # seed=1.5 once wrote a document its own certify refused, True a JSON
    # true, and trials=2.5 let a TypeError out.
    options = {"mode": mode, "seed": 7, "trials": 2, name: value}
    for decide, where in ((decide_vanishing, ((1,), (2,))), (detect_common_cause, (1, 2))):
        with pytest.raises(ValueError) as info:
            decide(star, where, **options)
        assert str(info.value) == f"{name} {value!r} is not an integer"


@pytest.mark.parametrize("mode", ["randomized", "certain"])
def test_a_negative_seed_is_refused(star, mode):
    # random.Random seeds by absolute value, so seed -1 drew the instances of
    # positive trial seeds: _draws(-1000002, 6) equals _draws(1000002, 6).
    for decide, where in ((decide_vanishing, ((1,), (2,))), (detect_common_cause, (1, 2))):
        with pytest.raises(ValueError) as info:
            decide(star, where, mode=mode, seed=-1, trials=2)
        assert str(info.value) == "seed must be >= 0, got -1"


# A randomized decision written with seed -1, before seeds had to be >= 0:
# 1 -> 2, 1 -> 3 on sides (2), (3), two trials.
NEGATIVE_SEED_DOCUMENT = (
    '{"algebraic_record":[{"determinant":"21766656/1","seed":-1000002},'
    '{"determinant":"2975476/1","seed":-1000001}],'
    '"combinatorial_certificate":{"trek_system":{"permutations":[[0]],"side_endpoints":[[2],'
    '[3]],"sign":1,"treks":[{"paths":[[1,2],[1,3]],"top":{"vertex":1}}]}},'
    '"graph_hash":"c4e3132c088ee68b9cb86a0711805dc13974f5c6e8086caa6fef12bb64561032",'
    '"mode":"randomized","order":2,"seed":-1,"sides":[[2],[3]],"trials":2,"value_range":997,'
    '"verdict":"NotVanishes"}'
)


def test_a_document_written_with_a_negative_seed_still_certifies():
    g = MixedGraph((1, 2, 3), ((1, 2), (1, 3)))
    doc = json.loads(NEGATIVE_SEED_DOCUMENT)
    assert [entry["seed"] for entry in doc["algebraic_record"]] == [-1000002, -1000001]
    assert certify_decision(g, doc) == (True, "certificate verified")


# Policy documents on chain2 = 1 -> 2, sides (1, 1), (1, 2), at seed 7.
POLICY_DOCUMENT = (
    '{"algebraic_record":[],"combinatorial_certificate":{"policy":"repeated vertex within a side"},'
    '"graph_hash":"c4b2db4c752bbbe7091daa35f133f2cbfaa661f831a86b9d775593c28be339b1",'
    '"mode":"MODE","order":2,"seed":7,"sides":[[1,1],[1,2]],"trials":null,"value_range":null,'
    '"verdict":"Vanishes"}'
)


@pytest.mark.parametrize("mode", ["randomized", "certain"])
def test_policy_document_is_pinned(chain2, mode):
    # The policy picks the certificate: an empty record, null trials and
    # null value_range, whatever the mode.
    d = decide_vanishing(chain2, ((1, 1), (1, 2)), mode=mode, seed=7, trials=3)
    assert d.to_json() == POLICY_DOCUMENT.replace("MODE", mode)
    assert d.exit_code == EXIT_VANISHES
    doc = d.to_doc()
    assert certify_decision(chain2, doc) == (True, "policy short-circuit verified")
    for field, value in (("trials", 3), ("value_range", 997)):
        assert certify_decision(chain2, {**doc, field: value}) == (
            False, f"a {mode}-mode document without draws records {field} {value!r}"
        )


def test_certify_checks_how_the_document_says_it_was_made(star):
    sides = ((1,), (2,), (3,))
    doc = decide_vanishing(star, sides, seed=7).to_doc()
    assert certify_decision(star, doc) == (True, "certificate verified")
    seeds = [entry["seed"] for entry in doc["algebraic_record"]]
    assert seeds == [instance_seed(7, t) for t in range(5)]
    record = doc["algebraic_record"]
    for changes, reason in (
        ({"order": 7}, "recorded order 7 is not the number of sides, 3"),
        ({"order": 3.0}, "recorded order 3.0 is not the number of sides, 3"),
        ({"mode": "banana"}, "unknown mode 'banana'"),
        ({"trials": 99}, "the record's seeded entries number 5, not the 99 recorded trials"),
        ({"trials": True}, "recorded trials True is no positive integer"),
        ({"value_range": 5}, "recorded value_range 5 is not 997"),
        ({"value_range": 997.0}, "recorded value_range 997.0 is not 997"),
        ({"seed": 12345}, "the seeded entries are not the trial seeds of seed 12345, in order"),
        ({"seed": None}, "a randomized document needs an integer seed, not None"),
        ({"algebraic_record": record[:1]}, "the record's seeded entries number 1, not the 5 recorded trials"),
        ({"algebraic_record": record[::-1]}, "the seeded entries are not the trial seeds of seed 7, in order"),
        ({"mode": "certain"}, "a certain-mode document without draws records trials 5"),
    ):
        assert certify_decision(star, {**copy.deepcopy(doc), **changes}) == (False, reason), changes

    # Certain mode records no draw, so no trials, value_range or seeded entry.
    certain = decide_vanishing(star, sides, mode="certain").to_doc()
    assert certify_decision(star, certain) == (True, "certificate verified")
    for changes, reason in (
        ({"mode": "randomized"}, "a randomized document needs an integer seed, not None"),
        ({"mode": "randomized", "seed": 7}, "recorded trials None is no positive integer"),
        ({"trials": 5}, "a certain-mode document without draws records trials 5"),
        ({"value_range": 997}, "a certain-mode document without draws records value_range 997"),
        ({"algebraic_record": certain["algebraic_record"] + record[:1]},
         "a certain-mode document without draws records seeds [7000022]"),
    ):
        assert certify_decision(star, {**copy.deepcopy(certain), **changes}) == (False, reason), changes

    # The claims are checked first: a document that fails one keeps its reason.
    bad = {**copy.deepcopy(doc), "order": 7, "verdict": "Maybe"}
    assert certify_decision(star, bad) == (False, "unknown verdict 'Maybe'")
