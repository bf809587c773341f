import itertools
import json
import random
from fractions import Fraction

import pytest

from multitrek import (
    DiagonalSpec,
    HyperedgeSpec,
    MissingOrder,
    MixedGraph,
    ModelInstance,
    NoiseCumulants,
    SchemaError,
    Tensor,
    canonical_dag,
    cumulant_entry,
    cumulant_entry_by_trek_rule,
    det_by_trek_systems,
    det_matrix,
    exists_trek_system_no_sided_intersection,
    hyperdeterminant,
    instance_from_json,
    instance_to_json,
    model_cumulant,
    path_matrix,
    sample_generic_instance,
    subtensor,
    subtensor_determinant,
    symbolic_instance,
    tucker_apply,
    validate_instance,
)
from multitrek import cumulants
from multitrek.cumulants import noise_entry
from multitrek.polynomial import Poly
from conftest import (
    all_paths,
    draws_by_randrange,
    hyperdet_by_leibniz,
    minor_det_by_path_systems,
    non_integral_twin,
    random_dag,
    random_mixed,
    random_sides,
)


def v(name):
    return Poly.var(name)


def test_path_matrix_fixture(two_root_dag):
    g = two_root_dag
    lam = {e: v(f"l{e[0]}_{e[1]}") for e in g.directed_edges}
    m = path_matrix(g, lam)
    i = g.index_of
    assert m[i(1)][i(5)] == v("l1_4") * v("l4_5")
    assert m[i(1)][i(1)] == Poly.const(1)
    assert m[i(2)][i(5)] == Poly.const(0)
    assert m[i(2)][i(6)] == v("l2_6")
    assert m[i(5)][i(4)] == Poly.const(0)


def test_path_matrix_matches_path_sums():
    rng = random.Random(51)
    for _ in range(25):
        g = random_dag(rng, max_vertices=7)
        lam = {e: Fraction(rng.randint(-4, 4)) for e in g.directed_edges}
        m = path_matrix(g, lam)
        for a in g.vertices:
            for b in g.vertices:
                total = Fraction(0)
                for path in all_paths(g, a, b):
                    w = Fraction(1)
                    for x, y in zip(path, path[1:]):
                        w *= lam[(x, y)]
                    total += w
                assert m[g.index_of(a)][g.index_of(b)] == total
    # Mixed graphs (hyperedges play no part), float weights, and weights that
    # leave some edges out (a missing edge weighs 0).  The floats are small
    # multiples of 1/4, so every path sum is exact in any addition order.
    for _ in range(25):
        g = random_mixed(rng, max_vertices=7, max_hyperedges=2)
        lam = {e: rng.randint(-8, 8) / 4 for e in g.directed_edges if rng.random() < 0.8}
        m = path_matrix(g, lam)
        for a in g.vertices:
            for b in g.vertices:
                total = 0.0
                for path in all_paths(g, a, b):
                    w = 1.0
                    for x, y in zip(path, path[1:]):
                        w *= lam.get((x, y), 0.0)
                    total += w
                assert m[g.index_of(a)][g.index_of(b)] == total


def test_gvl_minor_identity():
    rng = random.Random(52)
    for _ in range(40):
        g = random_dag(rng, max_vertices=6)
        lam = {e: Fraction(rng.randint(-4, 4)) for e in g.directed_edges}
        m = path_matrix(g, lam)
        n = rng.randint(1, min(2, len(g.vertices)))
        rows = tuple(sorted(rng.sample(g.vertices, n)))
        cols = tuple(sorted(rng.sample(g.vertices, n)))
        minor = [[m[g.index_of(r)][g.index_of(s)] for s in cols] for r in rows]
        assert det_matrix(minor) == minor_det_by_path_systems(g, lam, rows, cols)


def test_trek_rule_equals_tucker():
    rng = random.Random(53)
    for _ in range(40):
        g = random_mixed(rng, max_vertices=6, max_hyperedges=2)
        k = rng.randint(2, 4)
        inst = sample_generic_instance(g, k, rng_seed=rng.getrandbits(32))
        idx = tuple(rng.choice(g.vertices) for _ in range(k))
        assert cumulant_entry_by_trek_rule(g, inst, idx) == cumulant_entry(g, inst, idx)


def test_model_cumulant_symmetric_and_entrywise(latent_triple):
    rng = random.Random(54)
    g = latent_triple
    inst = sample_generic_instance(g, 3, rng_seed=9)
    t = model_cumulant(g, inst, 3)
    assert t.dims == (3, 3, 3)
    for idx in itertools.product(range(3), repeat=3):
        for perm in itertools.permutations(idx):
            assert t.at(idx) == t.at(perm)
        verts = tuple(g.vertices[i] for i in idx)
        assert t.at(idx) == cumulant_entry(g, inst, verts)
    # the cross-entry is exactly the hyperedge noise parameter
    e123 = inst.noise_at(3).hyper.entries[(1, 2, 3)]
    assert t.at((0, 1, 2)) == e123


def test_model_cumulant_matches_the_trek_rule_and_the_tucker_product():
    # model_cumulant and the determinant plans evaluate on one entry plan, so
    # every entry is checked against routes outside it: the trek rule on
    # mixed graphs, and on DAGs the noise tensor pushed through the path
    # matrix in every mode.
    rng = random.Random(60)
    shapes = set()
    for _ in range(60):
        g = random_mixed(rng, max_vertices=5, max_hyperedges=2)
        k = rng.randint(2, 4)
        inst = non_integral_twin(sample_generic_instance(g, k, rng.getrandbits(32)), rng)
        p = len(g.vertices)
        t = model_cumulant(g, inst, k)
        assert t.dims == (p,) * k
        by_trek_rule = {}
        for idx in itertools.product(range(p), repeat=k):
            key = tuple(sorted(g.vertices[i] for i in idx))
            if key not in by_trek_rule:
                by_trek_rule[key] = cumulant_entry_by_trek_rule(g, inst, key)
            assert t.at(idx) == by_trek_rule[key]
        if not g.multidirected_edges:
            noise = Tensor.of(
                (p,) * k,
                [
                    noise_entry(inst, k, [g.vertices[i] for i in idx])
                    for idx in itertools.product(range(p), repeat=k)
                ],
            )
            assert t == tucker_apply(noise, path_matrix(g, inst.lam))
        shapes.add((k, bool(g.multidirected_edges)))
    assert shapes == {(k, mixed) for k in (2, 3, 4) for mixed in (False, True)}


def test_fig_pair_symbolic(latent_triple, pairwise_triple):
    sym3 = symbolic_instance(latent_triple, 3)
    assert cumulant_entry(latent_triple, sym3, (1, 2, 3)) == v("e3_1_2_3")
    sym3b = symbolic_instance(pairwise_triple, 3)
    assert cumulant_entry(pairwise_triple, sym3b, (1, 2, 3)) == Poly.const(0)


def test_worked_example_symbolic_facts(two_root_dag):
    g = two_root_dag
    sym2 = symbolic_instance(g, 2)
    sym3 = symbolic_instance(g, 3)

    c45 = cumulant_entry(g, sym2, (4, 5))
    assert c45 == v("e2_4") * v("l4_5") + v("e2_1") * v("l1_4") * v("l1_4") * v("l4_5")

    c567 = cumulant_entry(g, sym3, (5, 6, 7))
    assert c567 == v("e3_1") * v("l1_4") * v("l4_5") * v("l1_6") * v("l1_7")

    assert cumulant_entry(g, sym3, (5, 6, 8)) == Poly.const(0)

    d2 = subtensor_determinant(g, sym2, ((4, 6), (7, 8)))
    assert d2 == v("e2_1") * v("e2_2") * v("l1_4") * v("l1_7") * v("l2_6") * v("l2_8")

    d3 = subtensor_determinant(g, sym3, ((4, 6), (5, 8), (7, 8)))
    expected = (
        v("e3_1") * v("e3_2")
        * v("l1_4") * v("l1_4") * v("l4_5") * v("l1_7")
        * v("l2_6") * v("l2_8") * v("l2_8")
    )
    assert d3 == expected


def test_det_routes_agree_on_dags():
    # The expansion is exact at every order.  At even orders the paper's
    # criterion is exact too: an empty search means a zero determinant.
    rng = random.Random(55)
    for _ in range(30):
        g = random_dag(rng, max_vertices=6)
        k = rng.randint(2, 4)
        n = rng.randint(1, min(2, len(g.vertices)))
        sides = random_sides(rng, g, k, n)
        inst = sample_generic_instance(g, k, rng_seed=rng.getrandbits(32))
        direct = subtensor_determinant(g, inst, sides)
        expanded = det_by_trek_systems(g, inst, sides)
        dense = hyperdeterminant(
            subtensor(
                model_cumulant(g, inst, k),
                [[g.index_of(x) for x in side] for side in sides],
            )
        )
        assert direct == expanded == dense
        if k % 2 == 0 and not exists_trek_system_no_sided_intersection(g, sides).found:
            assert dense == 0


def test_expansion_blind_spot_witness():
    # Five-vertex witness of the paper criterion's odd-order blind spot:
    # every trek system between these sides has a sided meeting, and for
    # the two surviving-monomial systems the meeting lies only on side 1,
    # where the tail swap keeps the sign at odd order.  The determinant
    # is the single nonzero monomial 2*e3_2*e3_3*l2_3*l3_4^2, which the
    # expansion (unfiltered on side 1) recovers.
    g = MixedGraph((1, 2, 3, 4, 5), ((2, 3), (2, 5), (3, 4), (3, 5)))
    sides = ((3, 4), (2, 3), (2, 4))
    sym = symbolic_instance(g, 3)
    expected = (
        Poly.const(2)
        * v("e3_2") * v("e3_3")
        * v("l2_3") * v("l3_4") * v("l3_4")
    )
    assert subtensor_determinant(g, sym, sides) == expected
    assert exists_trek_system_no_sided_intersection(g, sides).found is False
    assert det_by_trek_systems(g, sym, sides) == expected


def test_blind_spot_occurs_with_disjoint_sides():
    # The blind spot does not require overlapping sides: here the sides
    # are pairwise disjoint and the mismatch still occurs at order 3.
    g = MixedGraph(
        (1, 2, 3, 4, 5, 6),
        ((1, 2), (1, 3), (2, 4), (2, 6), (4, 5), (4, 6), (5, 6)),
    )
    sides = ((5, 6), (1, 2), (3, 4))
    sym = symbolic_instance(g, 3)
    dense = subtensor_determinant(g, sym, sides)
    assert dense  # nonzero polynomial
    assert exists_trek_system_no_sided_intersection(g, sides).found is False
    assert det_by_trek_systems(g, sym, sides) == dense


def test_det_by_trek_systems_rejects_mixed(latent_triple):
    inst = sample_generic_instance(latent_triple, 2, rng_seed=1)
    with pytest.raises(ValueError, match="canonical_dag"):
        det_by_trek_systems(latent_triple, inst, ((1,), (2,)))


def test_det_routes_agree_via_canonical_dag():
    # mixed graphs: the system expansion applies after the reduction
    rng = random.Random(56)
    for _ in range(15):
        g = canonical_dag(random_mixed(rng, max_vertices=5, max_hyperedges=1)).dag
        k = rng.randint(2, 3)
        sides = random_sides(rng, g, k, 1)
        inst = sample_generic_instance(g, k, rng_seed=rng.getrandbits(32))
        assert det_by_trek_systems(g, inst, sides) == subtensor_determinant(
            g, inst, sides
        )


def test_sample_generic_instance_deterministic(two_root_dag):
    g = two_root_dag
    a = sample_generic_instance(g, 4, rng_seed=77)
    b = sample_generic_instance(g, 4, rng_seed=77)
    assert a == b
    assert a != sample_generic_instance(g, 4, rng_seed=78)
    validate_instance(g, a)
    assert sorted(a.noise) == [2, 3, 4]
    for val in a.lam.values():
        assert val != 0 and 1 <= abs(val) <= 997
    with pytest.raises(ValueError):
        sample_generic_instance(g, 1, rng_seed=0)


PINNED_GRAPH = MixedGraph(
    vertices=(1, 2, 3, 4),
    directed_edges=((1, 2), (2, 4)),
    multidirected_edges=((1, 3, 4), (2, 3)),
)
PINNED_INSTANCE = (
    '{"lambda":{"1->2":"482/1","2->4":"593/1"},"noise":{"2":{"diag":{"1":"-909/1",'
    '"2":"-776/1","3":"-272/1","4":"-652/1"},"hyper":{"[1,3]":"511/1","[1,4]":"-540/1",'
    '"[2,3]":"-557/1","[3,4]":"987/1"}},"3":{"diag":{"1":"532/1","2":"-793/1",'
    '"3":"-212/1","4":"746/1"},"hyper":{"[1,1,3]":"-727/1","[1,1,4]":"669/1",'
    '"[1,3,3]":"-218/1","[1,3,4]":"-60/1","[1,4,4]":"644/1","[2,2,3]":"400/1",'
    '"[2,3,3]":"813/1","[3,3,4]":"-128/1","[3,4,4]":"-143/1"}}}}'
)


def test_seeded_instance_is_pinned():
    """Seeded instances feed stored decision documents, so their draw order is fixed."""
    assert instance_to_json(sample_generic_instance(PINNED_GRAPH, 3, 2024)) == PINNED_INSTANCE
    sym = symbolic_instance(PINNED_GRAPH, 3)
    assert [str(x) for x in sym.lam.values()] == ["l1_2", "l2_4"]
    assert str(sym.noise_at(2).diag.values[3]) == "e2_3"
    assert str(sym.noise_at(3).hyper.entries[(1, 3, 4)]) == "e3_1_3_4"
    # Same shape: the same keys carry a draw and a variable.
    drawn = sample_generic_instance(PINNED_GRAPH, 3, 2024)
    for order in (2, 3):
        drawn_keys = drawn.noise_at(order).hyper.entries.keys()
        assert drawn_keys == sym.noise_at(order).hyper.entries.keys()


def test_draws_follow_the_randrange_stream():
    """The written-out draw gives the values that randrange gave, so every
    stored seed keeps its instance."""
    for seed in range(2000):
        reference = draws_by_randrange(seed, 120, cumulants.VALUE_RANGE)
        count = seed % 121
        assert cumulants._draws(seed, count) == reference[:count]
        assert cumulants._draws(seed, 120) == reference


def _all_fraction_twin(inst: ModelInstance) -> ModelInstance:
    """The same instance with every value a Fraction, as earlier versions stored it.

    The constructors normalise integral values to ints, so the twin is
    built past them.
    """
    twin = ModelInstance(lam={}, noise={})
    object.__setattr__(twin, "lam", {e: Fraction(x) for e, x in inst.lam.items()})
    noise = {}
    for order, nc in inst.noise.items():
        diag, hyper = DiagonalSpec({}), HyperedgeSpec({})
        object.__setattr__(diag, "values", {v: Fraction(x) for v, x in nc.diag.values.items()})
        object.__setattr__(hyper, "entries", {k: Fraction(x) for k, x in nc.hyper.entries.items()})
        noise[order] = NoiseCumulants(diag=diag, hyper=hyper)
    object.__setattr__(twin, "noise", noise)
    return twin


def test_generic_instances_compute_in_ints():
    inst = sample_generic_instance(PINNED_GRAPH, 3, 2024)
    values = list(inst.lam.values())
    for nc in inst.noise.values():
        values += list(nc.diag.values.values()) + list(nc.hyper.entries.values())
    assert values and all(type(x) is int for x in values)
    dag = canonical_dag(PINNED_GRAPH).dag
    generic = sample_generic_instance(dag, 3, 2024)
    det = subtensor_determinant(dag, generic, ((1, 2), (3, 4), (2, 4)))
    assert type(det) is int and det != 0
    assert det == subtensor_determinant(dag, _all_fraction_twin(generic), ((1, 2), (3, 4), (2, 4)))


def test_non_integral_parameters_stay_fractions():
    text = (
        '{"lambda":{"1->2":"3/2","2->3":"4/2"},'
        '"noise":{"2":{"diag":{"1":"1/3","2":"-5/1","3":"7/1"}},'
        '"3":{"diag":{"1":"2/1","2":"1/2","3":"-1/1"}}}}'
    )
    inst = instance_from_json(text)
    assert inst.lam[(1, 2)] == Fraction(3, 2) and type(inst.lam[(1, 2)]) is Fraction
    assert inst.lam[(2, 3)] == 2 and type(inst.lam[(2, 3)]) is int
    assert type(inst.noise_at(2).diag.values[1]) is Fraction
    assert type(inst.noise_at(2).diag.values[2]) is int
    assert instance_to_json(inst) == instance_to_json(_all_fraction_twin(inst))
    g = MixedGraph(vertices=(1, 2, 3), directed_edges=((1, 2), (2, 3)))
    twin = _all_fraction_twin(inst)
    for sides in (((1, 2), (2, 3)), ((1, 3), (2, 3), (1, 2)), ((1,), (3,), (2,))):
        mixed = subtensor_determinant(g, inst, sides)
        assert mixed == subtensor_determinant(g, twin, sides)
        assert mixed == hyperdeterminant(
            subtensor(model_cumulant(g, inst, len(sides)), [[v - 1 for v in s] for s in sides])
        )


@pytest.mark.parametrize("k, n", [(2, 5), (3, 3)])
def test_subtensor_determinant_reads_each_entry_once(monkeypatch, k, n):
    # One evaluation per distinct sorted entry key, not one per subtensor
    # position: with equal sides the n**k positions share C(n+k-1, k) keys.
    g = random_dag(random.Random(7), max_vertices=6, min_vertices=6)
    inst = sample_generic_instance(g, k, rng_seed=11)
    sides = tuple(tuple(range(1, n + 1)) for _ in range(k))
    real = cumulants._entry_value
    calls = []

    def counting_entry(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cumulants, "_entry_value", counting_entry)
    det = subtensor_determinant(g, inst, sides)
    keys = {tuple(sorted(vertices)) for vertices in itertools.product(*sides)}
    assert len(calls) == len(keys) < n**k
    assert det == hyperdeterminant(
        subtensor(model_cumulant(g, inst, k), [[g.index_of(x) for x in side] for side in sides])
    )


def _trek_rule_determinant(g, inst, sides, one):
    """The Leibniz sum over entries from the trek rule, each sorted key read once."""
    memo = {}

    def entry(pos):
        key = tuple(sorted(side[i] for side, i in zip(sides, pos)))
        if key not in memo:
            memo[key] = cumulant_entry_by_trek_rule(g, inst, key)
        return memo[key]

    return hyperdet_by_leibniz(len(sides[0]), len(sides), entry, one)


def test_plan_matches_leibniz_over_trek_rule_on_mixed_graphs():
    rng = random.Random(57)
    hyper_cases = 0
    for _ in range(300):
        g = random_mixed(rng, max_vertices=6, max_hyperedges=2)
        k = rng.randint(2, 4)
        n = rng.randint(1, min(2, len(g.vertices)))
        sides = random_sides(rng, g, k, n)
        inst = non_integral_twin(sample_generic_instance(g, k, rng.getrandbits(32)), rng)
        hyper_cases += bool(inst.noise_at(k).hyper.entries)
        assert subtensor_determinant(g, inst, sides) == _trek_rule_determinant(
            g, inst, sides, Fraction(1)
        )
    assert hyper_cases >= 100


def test_plan_at_seed_matches_sampled_instance():
    rng = random.Random(58)
    for _ in range(60):
        dag = canonical_dag(random_mixed(rng, max_vertices=7, max_hyperedges=2)).dag
        k = rng.randint(2, 4)
        n = rng.randint(1, min(3, len(dag.vertices)))
        sides = random_sides(rng, dag, k, n)
        plan = cumulants._DeterminantPlan(dag, sides)
        for seed in (rng.getrandbits(32), rng.getrandbits(32)):
            assert plan.at_seed(seed) == plan.at(sample_generic_instance(dag, k, seed))


def test_plan_symbolic_matches_leibniz():
    rng = random.Random(59)
    for _ in range(25):
        g = random_mixed(rng, max_vertices=4, max_hyperedges=1, max_hyper_order=3)
        k = rng.randint(2, 3)
        sides = random_sides(rng, g, k, rng.randint(1, 2) if len(g.vertices) > 1 else 1)
        sym = symbolic_instance(g, k)
        det = cumulants._DeterminantPlan(g, sides).at(sym)
        assert det == _trek_rule_determinant(g, sym, sides, Poly.const(1))


def test_symbolic_instance_coverage(latent_triple):
    sym = symbolic_instance(latent_triple, 3)
    validate_instance(latent_triple, sym)
    assert sym.lam == {}
    hyper2 = sym.noise_at(2).hyper.entries
    assert set(hyper2) == {(1, 2), (1, 3), (2, 3)}
    hyper3 = sym.noise_at(3).hyper.entries
    assert (1, 2, 3) in hyper3 and (1, 1, 2) in hyper3


def test_noise_order_missing(chain2):
    inst = ModelInstance(
        lam={(1, 2): Fraction(1)},
        noise={2: NoiseCumulants(diag=DiagonalSpec({1: 1, 2: 1}))},
    )
    assert cumulant_entry(chain2, inst, (1, 2)) == 1
    with pytest.raises(MissingOrder):
        cumulant_entry(chain2, inst, (1, 2, 2))


def test_validate_instance_rejects(two_root_dag, latent_triple):
    with pytest.raises(ValueError):
        validate_instance(
            two_root_dag,
            ModelInstance(lam={(4, 1): 1}, noise={}),
        )
    with pytest.raises(ValueError):
        validate_instance(
            two_root_dag,
            ModelInstance(
                lam={},
                noise={2: NoiseCumulants(diag=DiagonalSpec({3: 1}))},
            ),
        )
    with pytest.raises(ValueError):
        validate_instance(
            latent_triple,
            ModelInstance(
                lam={},
                noise={
                    2: NoiseCumulants(
                        diag=DiagonalSpec({}),
                        hyper=HyperedgeSpec({(1, 2, 3): 1}),
                    )
                },
            ),
        )
    with pytest.raises(ValueError):
        HyperedgeSpec({(2, 2): 1})


@pytest.mark.parametrize("order_key", ["-3", "0", "1"])
def test_instance_json_rejects_noise_orders_below_two(order_key):
    text = '{"lambda":{},"noise":{"%s":{"diag":{"1":"1/1"}}}}' % order_key
    with pytest.raises(SchemaError, match=f"^/noise/{order_key}: order must be >= 2$"):
        instance_from_json(text)


@pytest.mark.parametrize("vertex", ["x", "1.0"])
def test_instance_json_rejects_diagonal_keys_that_are_no_vertex_ids(vertex):
    text = '{"lambda":{},"noise":{"2":{"diag":{"%s":"1/1"}}}}' % vertex
    with pytest.raises(SchemaError, match=f"^/noise/2/diag/{vertex}: vertex id must be an integer$"):
        instance_from_json(text)


NON_CANONICAL_IDS = ["1_0", " 3", "+3", "03", "\u0663"]  # the last is ARABIC-INDIC DIGIT THREE


@pytest.mark.parametrize("bad", NON_CANONICAL_IDS)
@pytest.mark.parametrize(
    "template, where, message",
    [
        ('{"lambda":{"%s->2":"1"},"noise":{}}', "/lambda/%s->2", "expected 'u->v' key"),
        ('{"lambda":{"1->%s":"1"},"noise":{}}', "/lambda/1->%s", "expected 'u->v' key"),
        ('{"lambda":{},"noise":{"%s":{"diag":{"1":"1"}}}}', "/noise/%s", "order must be an integer"),
        ('{"lambda":{},"noise":{"2":{"diag":{"%s":"1"}}}}', "/noise/2/diag/%s", "vertex id must be an integer"),
    ],
    ids=["lambda-tail", "lambda-head", "order", "diag"],
)
def test_instance_json_refuses_ids_that_are_not_canonical(bad, template, where, message):
    with pytest.raises(SchemaError) as exc:
        instance_from_json(template % bad)
    assert str(exc.value) == f"{where % bad}: {message}"


@pytest.mark.parametrize("value", ["1_0/3", "+7", "1/02"])
def test_instance_json_refuses_rationals_that_are_not_canonical(value):
    with pytest.raises(SchemaError, match="^/noise/2/diag/1: not a rational: "):
        instance_from_json('{"lambda":{},"noise":{"2":{"diag":{"1":"%s"}}}}' % value)


@pytest.mark.parametrize(
    "key, where",
    [("[1, 2.0]", "/1"), ("[true, 2]", "/0"), ("{}", ""), ("[1,", ""), ("[" * 100_000 + "]" * 100_000, "")],
    ids=["float", "bool", "object", "truncated", "deep"],
)
def test_instance_json_refuses_hyper_keys_that_are_no_id_lists(key, where):
    doc = {"lambda": {}, "noise": {"2": {"diag": {"1": "1"}, "hyper": {key: "1"}}}}
    with pytest.raises(SchemaError) as exc:
        instance_from_json(json.dumps(doc))
    assert exc.value.path == f"/noise/2/hyper/{key}{where}"


@pytest.mark.parametrize("order", [-1, 0, 1])
def test_model_cumulant_rejects_orders_below_two(chain2, order):
    inst = sample_generic_instance(chain2, 2, rng_seed=3)
    with pytest.raises(ValueError, match="^order must be >= 2$"):
        model_cumulant(chain2, inst, order)


def test_instance_json_round_trip(latent_triple):
    inst = sample_generic_instance(latent_triple, 3, rng_seed=5)
    back = instance_from_json(instance_to_json(inst))
    assert back == inst
    text = instance_to_json(inst)
    assert text == instance_to_json(back)
    assert "\n" not in text
