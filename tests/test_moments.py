"""Tests for moment tensors, split-treks, and the conjecture scanner."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from conftest import (
    hyperdet_by_leibniz,
    moment_by_noise_moments,
    non_integral_twin,
    random_dag,
    random_mixed,
    random_sides,
    split_system_by_column_product,
)
from multitrek import (
    BudgetExceeded,
    MissingOrder,
    MixedGraph,
    Tensor,
    canonical_dag,
    check_moment_theorem_k3,
    cumulant_entry,
    cumulant_entry_by_trek_rule,
    det_by_split_trek_systems,
    enumerate_ktreks,
    enumerate_split_treks,
    exists_split_trek_system_no_sided_intersection,
    exists_trek_system_no_sided_intersection,
    model_cumulant,
    model_moment,
    moment_entry,
    moment_subtensor_determinant,
    moments_from_cumulants,
    sample_generic_instance,
    scan_conjecture,
    split_trek_from_paths,
    symbolic_instance,
)
import multitrek.cumulants as cumulants
from multitrek.cumulants import _DeterminantPlan, _partitions, noise_entry
from multitrek.moments import ConjectureReport, _edge_threshold
from multitrek.treks import _reaching, _side_paths


F = Fraction


def one_var_cumulants(c2, c3, c4):
    return {
        2: Tensor.of((1, 1), [F(c2)]),
        3: Tensor.of((1, 1, 1), [F(c3)]),
        4: Tensor.of((1, 1, 1, 1), [F(c4)]),
    }


class TestMomentsFromCumulants:
    def test_single_variable_orders_two_to_four(self):
        # mu2 = c2, mu3 = c3, mu4 = c4 + 3*c2^2 for one mean-zero variable.
        mom = moments_from_cumulants(one_var_cumulants(5, 7, 11))
        assert mom[2].at((0, 0)) == F(5)
        assert mom[3].at((0, 0, 0)) == F(7)
        assert mom[4].at((0, 0, 0, 0)) == F(11) + 3 * F(5) ** 2

    def test_bivariate_fourth_order_entry(self):
        c2 = Tensor.build((2, 2), lambda ix: F(2 + ix[0] + ix[1]))
        c4 = Tensor.build((2, 2, 2, 2), lambda ix: F(1 + sum(ix)))
        mom = moments_from_cumulants({2: c2, 4: c4})
        # Pairings of four slots: one 4-block plus three 2+2 splits.
        expected = (
            c4.at((0, 0, 1, 1))
            + c2.at((0, 0)) * c2.at((1, 1))
            + 2 * c2.at((0, 1)) ** 2
        )
        assert mom[4].at((0, 0, 1, 1)) == expected

    def test_even_orders_do_not_need_order_three(self):
        c2 = Tensor.of((1, 1), [F(3)])
        c4 = Tensor.of((1, 1, 1, 1), [F(4)])
        mom = moments_from_cumulants({2: c2, 4: c4})
        assert set(mom) == {2, 4}
        assert mom[4].at((0, 0, 0, 0)) == F(4) + 3 * F(3) ** 2

    def test_fourth_order_without_second_is_rejected(self):
        with pytest.raises(MissingOrder):
            moments_from_cumulants(
                {3: Tensor.of((1, 1, 1), [F(1)]), 4: Tensor.of((1, 1, 1, 1), [F(1)])}
            )

    def test_output_tensors_are_symmetric(self):
        c2 = Tensor.of((2, 2), [F(1), F(2), F(2), F(5)])
        c3 = Tensor.build((2, 2, 2), lambda ix: F(1 + sorted(ix)[0] + 2 * sorted(ix)[-1]))
        mom = moments_from_cumulants({2: c2, 3: c3})
        assert mom[3].at((0, 1, 1)) == mom[3].at((1, 1, 0)) == mom[3].at((1, 0, 1))

    def test_asymmetric_input_rejected(self):
        bad = Tensor.of((2, 2), [F(1), F(2), F(3), F(4)])
        with pytest.raises(ValueError, match="symmetric"):
            moments_from_cumulants({2: bad})

    def test_dimension_mismatch_rejected(self):
        c2 = Tensor.of((1, 1), [F(1)])
        c3 = Tensor.build((2, 2, 2), lambda ix: F(0))
        with pytest.raises(ValueError):
            moments_from_cumulants({2: c2, 3: c3})

    def test_order_below_two_rejected(self):
        with pytest.raises(ValueError):
            moments_from_cumulants({1: Tensor.of((1,), [F(1)]), 2: Tensor.of((1, 1), [F(1)])})


class TestModelMoment:
    def test_matches_cumulant_chain_on_random_instances(self):
        rng = random.Random(20240601)
        for _ in range(12):
            g = random_dag(rng, max_vertices=5)
            inst = sample_generic_instance(g, 4, rng.randrange(10**6))
            cums = {k: model_cumulant(g, inst, k) for k in (2, 3, 4)}
            mom = moments_from_cumulants(cums)
            for k in (2, 3, 4):
                assert model_moment(g, inst, k) == mom[k]

    def test_third_moment_equals_third_cumulant(self, two_root_dag):
        inst = sample_generic_instance(two_root_dag, 3, 77)
        assert model_moment(two_root_dag, inst, 3) == model_cumulant(two_root_dag, inst, 3)

    def test_two_chain_fourth_order_formula(self, chain2):
        inst = sample_generic_instance(chain2, 4, 5)
        lam = inst.lam[(1, 2)]

        def mu2(v):
            return noise_entry(inst, 2, (v, v))

        def mu4(v):
            return noise_entry(inst, 4, (v, v, v, v)) + 3 * mu2(v) ** 2

        n4 = model_moment(chain2, inst, 4)
        i = chain2.index_of(2)
        expected = mu4(1) * lam**4 + 6 * lam**2 * mu2(1) * mu2(2) + mu4(2)
        assert n4.at((i, i, i, i)) == expected

    def test_odd_order_needs_odd_noise_cumulants(self, chain2):
        inst = sample_generic_instance(chain2, 4, 5)
        trimmed = inst.__class__(
            lam=inst.lam,
            noise={order: val for order, val in inst.noise.items() if order != 3},
        )
        assert model_moment(chain2, trimmed, 4) == model_moment(chain2, inst, 4)
        with pytest.raises(MissingOrder):
            model_moment(chain2, trimmed, 3)

    def test_missing_middle_order_raises_even_where_pairs_vanish(self):
        # Five independent vertices: every pair factor is zero, yet the
        # partition ((0, 1, 2), (3, 4)) still asks for the order-3 cumulant.
        g = MixedGraph(vertices=(1, 2, 3, 4, 5))
        inst = sample_generic_instance(g, 5, 3)
        trimmed = inst.__class__(lam=inst.lam, noise={o: v for o, v in inst.noise.items() if o != 3})
        with pytest.raises(MissingOrder):
            moment_entry(g, trimmed, (1, 2, 3, 4, 5))
        with pytest.raises(MissingOrder):
            model_moment(g, trimmed, 5)
        assert moment_entry(g, inst, (1, 2, 3, 4, 5)) == 0

    def test_zero_weights_leave_raw_noise_moments(self, chain2):
        inst = sample_generic_instance(chain2, 3, 9)
        zeroed = inst.__class__(lam={(1, 2): F(0)}, noise=inst.noise)
        n2 = model_moment(chain2, zeroed, 2)
        assert n2.at((0, 1)) == 0
        assert n2.at((0, 0)) == noise_entry(zeroed, 2, (1, 1))
        assert n2.at((1, 1)) == noise_entry(zeroed, 2, (2, 2))

    def test_moment_entry_matches_dense_tensor(self, two_root_dag):
        inst = sample_generic_instance(two_root_dag, 3, 13)
        n3 = model_moment(two_root_dag, inst, 3)
        idx = two_root_dag.index_of
        for v in ((4, 5, 6), (7, 7, 8), (5, 5, 5)):
            assert moment_entry(two_root_dag, inst, v) == n3.at(tuple(idx(x) for x in v))

    def test_rejects_graphs_with_hyperedges(self, latent_triple):
        inst = sample_generic_instance(latent_triple, 3, 1)
        with pytest.raises(ValueError, match="canonical_dag"):
            model_moment(latent_triple, inst, 3)
        with pytest.raises(ValueError, match="canonical_dag"):
            moment_subtensor_determinant(latent_triple, inst, ((1,), (2,), (3,)))


class TestMomentRouteAgainstNoiseMoments:
    """The partition route against moment_by_noise_moments, which sums noise
    moments over V^k without any cumulant-to-moment conversion."""

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_tensor_entries_and_determinants(self, k):
        rng = random.Random(7100 + k)
        for _ in range(6):
            g = random_dag(rng, max_vertices=4 if k == 5 else 5)
            inst = sample_generic_instance(g, k, rng.randrange(10**6))
            ref = moment_by_noise_moments(g, inst, k)
            tensor = model_moment(g, inst, k)
            for idx in itertools.product(range(len(g.vertices)), repeat=k):
                assert tensor.at(idx) == ref(tuple(g.vertices[i] for i in idx))
            for _ in range(10):
                indices = tuple(rng.choice(g.vertices) for _ in range(k))
                assert moment_entry(g, inst, indices) == ref(indices)
            n = min(rng.choice((1, 2)), len(g.vertices))
            sides = random_sides(rng, g, k, n)

            def entry(pos):
                return ref(tuple(sides[m][i] for m, i in enumerate(pos)))

            expected = hyperdet_by_leibniz(n, k, entry, 1)
            assert moment_subtensor_determinant(g, inst, sides) == expected

    def test_symbolic_determinant(self):
        g = MixedGraph(vertices=(1, 2, 3), directed_edges=((1, 2), (1, 3), (2, 3)))
        inst = symbolic_instance(g, 4)
        ref = moment_by_noise_moments(g, inst, 4)
        sides = ((1, 2), (2, 3), (1, 3), (2, 3))

        def entry(pos):
            return ref(tuple(sides[m][i] for m, i in enumerate(pos)))

        assert moment_subtensor_determinant(g, inst, sides) == hyperdet_by_leibniz(2, 4, entry, 1)


class TestMomentPlan:
    """The moment plan against dense references, and its seeded draws."""

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_plan_and_entries_match_references(self, k):
        # Int and non-integral Fraction values on 30 DAGs per order, symbolic
        # values on the small ones among every third.
        rng = random.Random(7200 + k)
        for case in range(30):
            g = random_dag(rng, max_vertices=4 if k == 5 else 5)
            sampled = sample_generic_instance(g, k, rng.randrange(10**6))
            insts = [(sampled, False), (non_integral_twin(sampled, rng), False)]
            if case % 3 == 0 and len(g.vertices) <= 4:
                insts.append((symbolic_instance(g, k), True))
            n = min(rng.choice((1, 2)), len(g.vertices))
            sides = random_sides(rng, g, k, n)
            plan = _DeterminantPlan(g, sides, moments=True)
            indices = tuple(rng.choice(g.vertices) for _ in range(k))
            positions = tuple(g.index_of(v) for v in indices)
            for inst, symbolic in insts:
                ref = moment_by_noise_moments(g, inst, k)

                def entry(pos):
                    return ref(tuple(sides[m][i] for m, i in enumerate(pos)))

                assert plan.at(inst) == hyperdet_by_leibniz(n, k, entry, 1)
                moment, cumulant = moment_entry(g, inst, indices), cumulant_entry(g, inst, indices)
                if symbolic:  # full tensors hold rationals only
                    assert moment == ref(indices)
                    assert cumulant == cumulant_entry_by_trek_rule(g, inst, indices)
                else:
                    assert moment == model_moment(g, inst, k).at(positions)
                    assert cumulant == model_cumulant(g, inst, k).at(positions)

    @pytest.mark.parametrize("k", [4, 5])
    def test_lower_order_at_seed_reads_the_order_k_instance(self, k):
        # _parameter_layout(g, h) is a prefix of _parameter_layout(g, k) and
        # the draws are sequential, so an order-h plan needs no k.
        rng = random.Random(7300 + k)
        for _ in range(12):
            g = canonical_dag(random_mixed(rng, max_vertices=5, max_hyperedges=1)).dag
            seed = rng.getrandbits(32)
            inst = sample_generic_instance(g, k, seed)
            for h in range(2, k + 1):
                sides = random_sides(rng, g, h, rng.randint(1, 2))
                for moments in (False, True):
                    plan = _DeterminantPlan(g, sides, moments=moments)
                    assert plan.at_seed(seed) == plan.at(inst)


    @staticmethod
    def sharing_sides(rng, k):
        """A DAG and k sides of one size drawn from few vertices, so they share some."""
        g = random_dag(rng, max_vertices=5)
        n = rng.randint(1, min(2, len(g.vertices)))
        pool = rng.sample(g.vertices, min(len(g.vertices), n + 1))
        return g, [tuple(sorted(rng.sample(pool, n))) for _ in range(k)]

    @pytest.mark.parametrize("k", [4, 5, 6])
    def test_parts_match_independent_plans(self, k):
        # Every part of h <= k - 2 sides, from the case plan's values at a
        # seed, against a plan built for the part alone at that seed.
        rng = random.Random(2610 + k)
        for _ in range(8 if k < 6 else 4):
            g, sides = self.sharing_sides(rng, k)
            plan = _DeterminantPlan(g, sides, moments=True)
            for seed in (rng.getrandbits(32), rng.getrandbits(32)):
                values = plan.cumulants_at_seed(seed)
                assert plan.determinant(values) == plan.at_seed(seed)
                for h in range(2, k - 1):
                    for group in itertools.combinations(range(k), h):
                        fresh = _DeterminantPlan(g, [sides[i] for i in group], moments=True)
                        assert plan.part_determinant(group, values) == fresh.at_seed(seed)

    def test_each_group_builds_its_tables_once(self, monkeypatch):
        # The key table and block indices of a part depend on its group only,
        # so seeds after the first (and a list spelling the group) reuse them.
        rng = random.Random(2630)
        g, sides = self.sharing_sides(rng, 5)
        plan = _DeterminantPlan(g, sides, moments=True)
        groups = ((0, 2), [0, 2], (1, 3, 4))
        seeds = (11, 12, 13)
        expected = [
            _DeterminantPlan(g, [sides[i] for i in group], moments=True).at_seed(seed)
            for seed in seeds for group in groups
        ]
        built = []
        key_table = cumulants._key_table
        monkeypatch.setattr(cumulants, "_key_table", lambda cols: built.append(cols) or key_table(cols))
        got = [
            plan.part_determinant(group, values)
            for values in map(plan.cumulants_at_seed, seeds) for group in groups
        ]
        assert got == expected
        assert len(built) == 2

    @pytest.mark.parametrize("k", [4, 5, 6])
    def test_every_block_a_part_reads_is_a_case_key(self, k):
        # A block of a part key has at most k - 2 positions, so the other
        # positions of a full key form a block of their own.
        rng = random.Random(2620 + k)
        for _ in range(10):
            g, sides = self.sharing_sides(rng, k)
            plan = _DeterminantPlan(g, sides, moments=True)
            col = {v: c for c, v in enumerate(sorted({v for side in sides for v in side}))}
            for h in range(2, k - 1):
                for group in itertools.combinations(range(k), h):
                    for cols in itertools.product(*([col[v] for v in sides[i]] for i in group)):
                        key = sorted(cols)
                        for partition in _partitions(h):
                            for block in partition:
                                assert tuple(key[x] for x in block) in plan._cumulant_index


class TestEnumerateSplitTreks:
    def test_k3_split_treks_are_exactly_common_source_triples(self):
        rng = random.Random(42)
        for _ in range(15):
            g = random_dag(rng, max_vertices=5)
            sinks = tuple(rng.choice(g.vertices) for _ in range(3))
            split = enumerate_split_treks(g, sinks, budget=200_000)
            treks = enumerate_ktreks(g, sinks, budget=200_000)
            split_paths = sorted(s.sort_key() for s in split)
            trek_paths = sorted(tuple(p.vertices for p in t.paths) for t in treks)
            assert split_paths == trek_paths

    def test_disjoint_pair_graph_has_one_split_trek(self):
        g = MixedGraph(vertices=(1, 2, 3, 4, 5, 6), directed_edges=((1, 3), (1, 4), (2, 5), (2, 6)))
        found = enumerate_split_treks(g, (3, 4, 5, 6))
        assert len(found) == 1
        (st,) = found
        assert st.sources == (1, 1, 2, 2)
        assert st.top_partition == ((1, (0, 1)), (2, (2, 3)))
        assert st.sinks == (3, 4, 5, 6)

    def test_fork_with_distinct_sinks_has_none(self, factorization_dag):
        assert enumerate_split_treks(factorization_dag, (1, 2, 3, 4)) == []

    def test_results_sorted_and_deduplicated(self, star):
        out = enumerate_split_treks(star, (1, 2))
        keys = [st.sort_key() for st in out]
        assert keys == sorted(keys)
        assert len(keys) == len(set(keys))

    def test_budget_counts_candidate_combinations(self, star):
        with pytest.raises(BudgetExceeded):
            enumerate_split_treks(star, (1, 2, 3), budget=3)

    def test_rejects_fewer_than_two_sinks(self, star):
        with pytest.raises(ValueError):
            enumerate_split_treks(star, (1,))

    def test_split_trek_from_paths_rejects_lone_source(self, star):
        (p1,) = enumerate_ktreks(star, (1, 2))[0].paths[0:1]
        paths = enumerate_ktreks(star, (1, 2))[0].paths
        with pytest.raises(ValueError, match="fewer than two"):
            split_trek_from_paths([paths[0], p1.__class__(vertices=(2,))])


class TestSplitTrekSearch:
    def test_paired_forks_admit_an_intersection_free_system(self):
        g = MixedGraph(vertices=(1, 2, 3, 4, 5, 6), directed_edges=((1, 3), (1, 4), (2, 5), (2, 6)))
        res = exists_split_trek_system_no_sided_intersection(g, ((3, 5), (4, 6)))
        assert res.found
        sys = res.system
        assert sys.side_endpoints == ((3, 5), (4, 6))
        assert all(st.sources in ((1, 1), (2, 2)) for st in sys.treks)

    def test_fork_with_four_distinct_sinks_has_none(self, factorization_dag):
        res = exists_split_trek_system_no_sided_intersection(
            factorization_dag, ((1,), (2,), (3,), (4,))
        )
        assert not res.found

    def test_agrees_with_trek_search_at_k3_on_random_dags(self):
        rng = random.Random(99)
        for _ in range(25):
            g = random_dag(rng, max_vertices=6)
            sides = random_sides(rng, g, 3, rng.randint(1, 2))
            split = exists_split_trek_system_no_sided_intersection(g, sides, budget=500_000)
            trek = exists_trek_system_no_sided_intersection(g, sides, budget=500_000)
            assert split.found == trek.found

    def test_matches_the_column_product_reference_on_random_dags(self):
        # The pruned search finds the reference's first system, byte for
        # byte, and draws no more than the reference: at every budget where
        # the reference finishes, the search finishes with the same answer.
        rng = random.Random(23)
        compared = 0
        for _ in range(1500):
            g = random_dag(rng, max_vertices=7, edge_prob=rng.choice((0.3, 0.5, 0.7)))
            k, n = rng.randint(2, 5), rng.randint(1, min(3, len(g.vertices)))
            sides = random_sides(rng, g, k, n)
            found = exists_split_trek_system_no_sided_intersection(g, sides)
            try:
                ref = split_system_by_column_product(g, sides, 10_000)
            except BudgetExceeded:
                pass
            else:
                compared += 1
                assert found.found == ref.found
                assert found.system == ref.system
            for budget in (0, 1, 2, 5, 50):
                try:
                    ref = split_system_by_column_product(g, sides, budget)
                except BudgetExceeded:
                    continue
                assert exists_split_trek_system_no_sided_intersection(g, sides, budget).system == ref.system
        assert compared >= 1400

    def test_decides_a_case_the_column_product_cannot_finish(self):
        g = MixedGraph(
            vertices=(1, 2, 3, 4, 5, 6),
            directed_edges=((1, 2), (1, 3), (1, 5), (2, 3), (2, 4), (2, 5), (4, 5), (4, 6), (5, 6)),
        )
        sides = ((3, 4, 5), (2, 3, 5), (2, 4, 5), (4, 5, 6), (1, 3, 5))
        # The pruned search finds no system in exactly 5,539 draws.
        assert not exists_split_trek_system_no_sided_intersection(g, sides, budget=5_539).found
        with pytest.raises(BudgetExceeded):
            exists_split_trek_system_no_sided_intersection(g, sides, budget=5_538)
        # With no system, the product loop draws every column tuple and, on
        # each tuple with a path system on every side, every bijection with
        # side 1 fixed: 8,204,800 draws.
        columns = [list(itertools.combinations(sorted(_reaching(g, side)), 3)) for side in sides]
        linked = [[c for c in cs if _side_paths(g, c, side, 1)] for cs, side in zip(columns, sides)]
        draws = math.prod(map(len, columns)) + math.prod(map(len, linked)) * 6 ** 4
        assert (math.prod(map(len, columns)), math.prod(map(len, linked)), draws) == (40_000, 6_300, 8_204_800)
        with pytest.raises(BudgetExceeded):
            split_system_by_column_product(g, sides, 10_000)

    def test_rejects_mismatched_and_repeated_sides(self, star):
        with pytest.raises(ValueError):
            exists_split_trek_system_no_sided_intersection(star, ((1, 2), (3,)))
        with pytest.raises(ValueError):
            exists_split_trek_system_no_sided_intersection(star, ((1, 1), (2, 3)))

    def test_rejects_graphs_with_hyperedges(self, latent_triple):
        with pytest.raises(ValueError, match="canonical_dag"):
            exists_split_trek_system_no_sided_intersection(latent_triple, ((1,), (2,)))


class TestDeterminantRoutes:
    def test_split_trek_expansion_matches_dense_determinant(self):
        # The expansion is exact at every order.  At even orders an empty
        # split search also means a zero determinant on these draws.
        rng = random.Random(314)
        for _ in range(12):
            g = random_dag(rng, max_vertices=5)
            k = rng.choice((2, 3, 4))
            sides = random_sides(rng, g, k, rng.randint(1, 2))
            inst = sample_generic_instance(g, k, rng.randrange(10**6))
            direct = moment_subtensor_determinant(g, inst, sides)
            assert direct == det_by_split_trek_systems(g, inst, sides, budget=500_000)
            if k % 2 == 0 and not exists_split_trek_system_no_sided_intersection(
                g, sides, budget=500_000
            ).found:
                assert direct == 0

    def test_blind_spot_witness(self):
        # Same five-vertex witness as on the cumulant side (the order-3
        # moment tensor of a model with diagonal third-order noise equals
        # the cumulant tensor): no intersection-free split-trek system
        # exists while the determinant is nonzero; the expansion, which
        # leaves side 1 unfiltered, recovers it.
        g = MixedGraph((1, 2, 3, 4, 5), ((2, 3), (2, 5), (3, 4), (3, 5)))
        sides = ((3, 4), (2, 3), (2, 4))
        inst = sample_generic_instance(g, 3, 0)
        dense = moment_subtensor_determinant(g, inst, sides)
        assert dense != 0
        assert exists_split_trek_system_no_sided_intersection(g, sides).found is False
        assert det_by_split_trek_systems(g, inst, sides) == dense

    def test_lower_order_plans_give_the_fresh_determinants(self):
        # Plans of every order and side set, each evaluated at the seeds of
        # one order-4 instance family: the reference for the scan's parts.
        rng = random.Random(315)
        for _ in range(8):
            g = random_dag(rng, max_vertices=6)
            seeds = [rng.randrange(10**6) for _ in range(3)]
            insts = [sample_generic_instance(g, 4, s) for s in seeds]
            for k in (4, 2, 3, 2, 4):
                sides = random_sides(rng, g, k, rng.randint(1, 2))
                plan = _DeterminantPlan(g, sides, moments=True)
                for seed, inst in zip(seeds, insts):
                    assert plan.at_seed(seed) == moment_subtensor_determinant(g, inst, sides)

    def test_fork_determinant_factors_and_vanishes(self, factorization_dag):
        inst = sample_generic_instance(factorization_dag, 4, 11)
        sides = ((1,), (2,), (3,), (4,))
        assert moment_subtensor_determinant(factorization_dag, inst, sides) == 0
        # One complementary pair of lower-order factors: sources 1 and 2 are
        # isolated, so their block vanishes, while the fork block does not.
        assert moment_subtensor_determinant(factorization_dag, inst, ((1,), (2,))) == 0
        assert moment_subtensor_determinant(factorization_dag, inst, ((3,), (4,))) != 0


class TestMomentTheoremK3:
    def test_star_and_collider(self, star, collider):
        star_inst = sample_generic_instance(star, 3, 3)
        assert check_moment_theorem_k3(star, star_inst, ((1,), (2,), (3,)))
        col_inst = sample_generic_instance(collider, 3, 3)
        assert check_moment_theorem_k3(collider, col_inst, ((1,), (2,), (3,)))

    def test_holds_on_random_dags(self):
        # A pinned sample with no blind-spot configuration in it; the
        # equivalence fails on rare side layouts (next test), so this
        # loop documents the common case, not a universal law.
        rng = random.Random(606)
        for _ in range(20):
            g = random_dag(rng, max_vertices=6)
            sides = random_sides(rng, g, 3, rng.randint(1, 2))
            inst = sample_generic_instance(g, 3, rng.randrange(10**6))
            assert check_moment_theorem_k3(g, inst, sides, budget=500_000)

    def test_blind_spot_witness_returns_false(self):
        # The checker honestly reports configurations where split-trek
        # absence fails to force a zero determinant.
        g = MixedGraph((1, 2, 3, 4, 5), ((2, 3), (2, 5), (3, 4), (3, 5)))
        sides = ((3, 4), (2, 3), (2, 4))
        inst = sample_generic_instance(g, 3, 0)
        assert not check_moment_theorem_k3(g, inst, sides)

    def test_requires_exactly_three_sides(self, star):
        inst = sample_generic_instance(star, 4, 1)
        with pytest.raises(ValueError, match="three"):
            check_moment_theorem_k3(star, inst, ((1,), (2,)))


class TestScanConjecture:
    @pytest.mark.parametrize("prob", ["0", "1", "1/2", "1/3", "2/5", "999/1000"])
    def test_edge_threshold_splits_the_draws_as_the_probability_does(self, prob):
        # random() returns m / 2**53; the draws below the threshold are those below prob.
        prob = Fraction(prob)
        threshold = _edge_threshold(prob)
        t = math.ceil(prob * 2**53)
        assert threshold * 2**53 == t
        for m in range(t - 2, t + 2):
            assert (m / 2**53 < threshold) == (m / 2**53 < prob) == (m < t)

    def test_small_scan_reports_clean_agreement(self):
        report = scan_conjecture(4, {"cases": 12, "max_vertices": 5}, seed=3, trials=3)
        assert isinstance(report, ConjectureReport)
        assert report.cases_scanned == 12
        assert report.agreements + len(report.disagreements) == 12
        assert not [d for d in report.disagreements if d["direction"] == "if"]
        assert not report.lower_order_violations

    def test_report_is_pinned(self):
        # Two only-if records, each with a symbolic recheck, and six lower-order checks.
        ensemble = {"cases": 8, "edge_prob": "1/2", "k": 4, "max_vertices": 6, "set_size": 2}
        report = scan_conjecture(4, ensemble, seed=18, trials=5)
        assert report.to_json() == (
            '{"agreements":6,"cases_scanned":8,"disagreements":[{"algebraic_zero":true,"case":6,'
            '"certain_recheck_zero":true,"combinatorial_absent":false,"direction":"only-if",'
            '"graph":"{\\"directed_edges\\":[[1,5],[2,3],[2,5],[4,6]],'
            '\\"multidirected_edges\\":[],\\"vertices\\":[1,2,3,4,5,6]}",'
            '"instance_seeds":[3258224721,3258224722,3258224723,3258224724,3258224725],'
            '"sides":[[2,3],[3,6],[1,4],[1,3]]},{"algebraic_zero":true,"case":7,'
            '"certain_recheck_zero":true,"combinatorial_absent":false,"direction":"only-if",'
            '"graph":"{\\"directed_edges\\":[[1,6],[2,3],[3,4],[3,5],[4,5],[4,6]],'
            '\\"multidirected_edges\\":[],\\"vertices\\":[1,2,3,4,5,6]}",'
            '"instance_seeds":[4275879842,4275879843,4275879844,4275879845,4275879846],'
            '"sides":[[2,3],[4,6],[4,5],[5,6]]}],'
            '"lower_order_checked":6,"lower_order_violations":[]}'
        )

    def test_if_record_when_only_the_first_trial_is_zero(self, monkeypatch):
        # No split-trek system exists on this edgeless case; forcing the
        # determinant nonzero at every trial but the first must give an
        # "if" record, since one zero trial does not make the case zero.
        ensemble = {"cases": 1, "edge_prob": 0, "max_vertices": 6, "set_size": 1}
        seen = []

        def cumulants_at_seed(plan, seed):
            seen.append(seed)
            return [seed]

        monkeypatch.setattr(_DeterminantPlan, "cumulants_at_seed", cumulants_at_seed)
        monkeypatch.setattr(_DeterminantPlan, "determinant", lambda plan, values: int(values != seen[:1]))
        report = scan_conjecture(4, ensemble, seed=0, trials=3)
        assert seen == [3246154361, 3246154362]
        assert report.to_json() == (
            '{"agreements":0,"cases_scanned":1,"disagreements":[{"algebraic_zero":false,'
            '"case":0,"combinatorial_absent":true,"direction":"if","graph":'
            '"{\\"directed_edges\\":[],\\"multidirected_edges\\":[],\\"vertices\\":[1,2,3,4,5]}",'
            '"instance_seeds":[3246154361,3246154362,3246154363],"sides":[[5],[2],[3],[2]]}],'
            '"lower_order_checked":0,"lower_order_violations":[]}'
        )

    def test_a_case_nonzero_at_its_first_trial_evaluates_one_trial(self, monkeypatch):
        # The first nonzero determinant settles the case: no further trial,
        # no recheck and no lower-order check runs, and the record still
        # names every seed the case would have drawn.
        ensemble = {"cases": 1, "edge_prob": 0, "max_vertices": 6, "set_size": 1}
        seen = []

        def cumulants_at_seed(plan, seed):
            seen.append((plan.order, seed))
            return [seed]

        monkeypatch.setattr(_DeterminantPlan, "cumulants_at_seed", cumulants_at_seed)
        monkeypatch.setattr(_DeterminantPlan, "determinant", lambda plan, values: 1)
        report = scan_conjecture(4, ensemble, seed=0, trials=3)
        assert seen == [(4, 3246154361)]
        assert report.disagreements[0]["instance_seeds"] == [3246154361, 3246154362, 3246154363]

    @pytest.mark.parametrize("field, value", [
        ("seed", 1.5), ("seed", True), ("seed", "x"), ("trials", True), ("trials", 2.5),
    ])
    def test_seed_and_trials_must_be_ints(self, field, value):
        kwargs = {"seed": 0, "trials": 2, field: value}
        with pytest.raises(ValueError) as info:
            scan_conjecture(4, {"cases": 1, "max_vertices": 4}, **kwargs)
        assert str(info.value) == f"{field} {value!r} is not an integer"

    def test_a_negative_seed_is_refused(self):
        with pytest.raises(ValueError) as info:
            scan_conjecture(4, {"cases": 1, "max_vertices": 4}, seed=-5)
        assert str(info.value) == "seed must be >= 0, got -5"

    def test_lower_order_violation_record_is_pinned(self, monkeypatch):
        # The order-4 determinant reads zero and every order-2 part nonzero, so
        # every two-block split of the all-zero case is a violation; each
        # record carries the case's provenance beside its groups.
        monkeypatch.setattr(_DeterminantPlan, "determinant", lambda plan, values: 0)
        monkeypatch.setattr(_DeterminantPlan, "part_determinant", lambda plan, group, values: 1)
        ensemble = {"cases": 1, "edge_prob": 0, "max_vertices": 4, "set_size": 1}
        provenance = (
            '"case":0,"graph":"{\\"directed_edges\\":[],\\"multidirected_edges\\":[],'
            '\\"vertices\\":[1,2,3]}",'
        )
        tail = '"instance_seeds":[4156669319,4156669320],"sides":[[3],[2],[2],[2]]}'
        violations = ",".join(
            "{" + provenance + f'"group_1":{g1},"group_2":{g2},' + tail
            for g1, g2 in (("[0,1]", "[2,3]"), ("[0,2]", "[1,3]"), ("[0,3]", "[1,2]"))
        )
        assert scan_conjecture(4, ensemble, seed=0, trials=2).to_json() == (
            '{"agreements":1,"cases_scanned":1,"disagreements":[],"lower_order_checked":3,'
            f'"lower_order_violations":[{violations}]}}'
        )

    @pytest.mark.parametrize("h_value, built, evaluated", [
        (0, [4], [4, 4, 2, 2, 2, 2, 2, 2]),
        (1, [4], [4, 4, 2, 2, 2, 2, 2, 2]),
    ])
    def test_a_zero_h_part_builds_no_rest_plan(self, monkeypatch, h_value, built, evaluated):
        # The case's plan is the only one built: each part of a split takes
        # its determinant from the case's values.  A violation needs both
        # parts nonzero, so a split whose first group of h sides reads zero
        # at every trial evaluates no rest part, while a nonzero one goes on
        # to its rest part.
        ensemble = {"cases": 1, "edge_prob": 0, "max_vertices": 4, "set_size": 1}
        orders, seen, parts = [], [], []
        init = _DeterminantPlan.__init__

        def counting_init(plan, g, sides, moments=False):
            orders.append(len(sides))
            init(plan, g, sides, moments)

        def determinant(plan, values):
            seen.append(plan.order)
            return 0

        def part_determinant(plan, group, values):
            seen.append(len(group))
            parts.append(group)
            return h_value

        monkeypatch.setattr(_DeterminantPlan, "__init__", counting_init)
        monkeypatch.setattr(_DeterminantPlan, "determinant", determinant)
        monkeypatch.setattr(_DeterminantPlan, "part_determinant", part_determinant)
        report = scan_conjecture(4, ensemble, seed=0, trials=2)
        assert report.lower_order_checked == 3
        assert len(report.lower_order_violations) == 3 * h_value
        assert (orders, seen) == (built, evaluated)
        rests = [group for group in parts if 0 not in group]
        assert rests == ([(2, 3), (1, 3), (1, 2)] if h_value else [])

    def test_randomized_fluke_is_resolved_by_the_symbolic_recheck(self, monkeypatch):
        # On a complete DAG vertex 1 tops a split-trek into any sinks, so a
        # system exists and the determinant is a nonzero polynomial.
        ensemble = {"cases": 1, "edge_prob": 1, "max_vertices": 4, "set_size": 1}
        clean = scan_conjecture(4, ensemble, seed=0, trials=3).to_doc()
        assert (clean["agreements"], clean["lower_order_checked"]) == (1, 0)

        # Zero at every trial: the recheck finds the nonzero polynomial, so the
        # case is an agreement, and its all-zero trials run the three
        # lower-order checks.
        monkeypatch.setattr(_DeterminantPlan, "determinant", lambda plan, values: 0)
        monkeypatch.setattr(_DeterminantPlan, "part_determinant", lambda plan, group, values: 0)
        report = scan_conjecture(4, ensemble, seed=0, trials=3)
        assert report.to_doc() == {
            "agreements": 1,
            "cases_scanned": 1,
            "disagreements": [],
            "lower_order_checked": 3,
            "lower_order_violations": [],
        }

        # Zero at the first trial only: not all zero, so no recheck and no
        # lower-order checks.
        seen = []

        def cumulants_at_seed(plan, seed):
            seen.append(seed)
            return [seed]

        monkeypatch.setattr(_DeterminantPlan, "cumulants_at_seed", cumulants_at_seed)
        monkeypatch.setattr(_DeterminantPlan, "determinant", lambda plan, values: int(values != seen[:1]))
        assert scan_conjecture(4, ensemble, seed=0, trials=3).to_doc() == clean
        assert len(seen) == 2

    def test_scan_is_deterministic(self):
        ens = {"cases": 6, "max_vertices": 4}
        a = scan_conjecture(4, ens, seed=8, trials=2)
        b = scan_conjecture(4, ens, seed=8, trials=2)
        assert a.to_json() == b.to_json()

    def test_report_document_shape(self):
        report = scan_conjecture(4, {"cases": 4, "max_vertices": 4}, seed=1, trials=2)
        doc = report.to_doc()
        assert set(doc) == {
            "cases_scanned",
            "agreements",
            "disagreements",
            "lower_order_checked",
            "lower_order_violations",
        }

    def test_rejects_k_below_four(self):
        with pytest.raises(ValueError, match="k >= 4"):
            scan_conjecture(3, {}, seed=0)

    def test_rejects_unknown_ensemble_keys(self):
        with pytest.raises(ValueError, match="unknown"):
            scan_conjecture(4, {"cases": 2, "verts": 4}, seed=0)

    def test_rejects_inconsistent_k(self):
        with pytest.raises(ValueError):
            scan_conjecture(4, {"k": 5}, seed=0)

    def test_accepts_fractional_edge_probability_string(self):
        report = scan_conjecture(4, {"cases": 2, "max_vertices": 4, "edge_prob": "1/3"}, seed=2, trials=1)
        assert report.cases_scanned == 2
