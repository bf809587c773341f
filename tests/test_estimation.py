"""Tests for simulation, sample cumulants, the bootstrap flag, and data I/O."""

import hashlib
import itertools
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import multitrek.estimation as estimation
from multitrek import (
    InvalidBootstrapCount,
    MixedGraph,
    NoiseSpec,
    OrderUnsupported,
    SampleMatrix,
    SchemaError,
    canonical_dag,
    model_cumulant,
    population_instance,
    read_sample_binary,
    read_sample_csv,
    sample_cumulant,
    simulate_lsem,
    write_sample_binary,
    write_sample_csv,
)
from multitrek import test_determinant_zero as determinant_flag
from multitrek.tensors import hyperdet_from_getter, orbit_table

from conftest import moments_by_key

F = Fraction

# Finite data whose fourth powers of column 1 leave the float range.
BIG = [[1e100, 2.0], [-1e100, 1.0], [3.0, 0.5]]


class TestNoiseSpec:
    def test_exponential_cumulants(self):
        spec = NoiseSpec({1: ("exponential", 1)})
        assert spec.cumulant(1, 2) == 1
        assert spec.cumulant(1, 3) == 2
        assert spec.cumulant(1, 4) == 6

    @pytest.mark.parametrize("tag", [["uniform"], None, 3], ids=["list", "null", "int"])
    def test_tag_that_is_no_string_is_unknown(self, tag):
        with pytest.raises(ValueError, match=re.escape(f"unknown noise tag {tag!r} at vertex 1")):
            NoiseSpec({1: (tag, 1)})

    def test_exponential_rate_scaling(self):
        spec = NoiseSpec({1: ("exponential", 2)})
        assert spec.cumulant(1, 2) == F(1, 4)
        assert spec.cumulant(1, 3) == F(2, 8)
        assert spec.cumulant(1, 4) == F(6, 16)

    def test_uniform_cumulants(self):
        spec = NoiseSpec({1: ("uniform", 3)})
        assert spec.cumulant(1, 2) == F(9, 3)
        assert spec.cumulant(1, 3) == 0
        assert spec.cumulant(1, 4) == F(-2 * 81, 15)

    def test_laplace_cumulants(self):
        spec = NoiseSpec({1: ("laplace", F(1, 2))})
        assert spec.cumulant(1, 2) == F(1, 2)
        assert spec.cumulant(1, 3) == 0
        assert spec.cumulant(1, 4) == F(12, 16)

    def test_gamma_cumulants(self):
        spec = NoiseSpec({1: ("gamma", 3, F(1, 5))})
        for k in (2, 3, 4):
            fact = {2: 1, 3: 2, 4: 6}[k]
            assert spec.cumulant(1, k) == 3 * fact * F(1, 5) ** k

    def test_first_cumulant_is_zero_after_centering(self):
        spec = NoiseSpec({1: ("gamma", 2, 7)})
        assert spec.cumulant(1, 1) == 0

    def test_order_five_unsupported(self):
        spec = NoiseSpec({1: ("uniform", 1)})
        with pytest.raises(OrderUnsupported):
            spec.cumulant(1, 5)

    def test_rejects_bad_specs(self):
        with pytest.raises(ValueError, match="unknown noise tag"):
            NoiseSpec({1: ("cauchy", 1)})
        with pytest.raises(ValueError, match="parameter"):
            NoiseSpec({1: ("uniform", 1, 2)})
        with pytest.raises(ValueError, match="negative"):
            NoiseSpec({1: ("laplace", -1)})
        with pytest.raises(ValueError, match="rate"):
            NoiseSpec({1: ("exponential", 0)})

    def test_samples_are_centered(self):
        spec = NoiseSpec({1: ("exponential", 2), 2: ("gamma", 3, 1)})
        rng = np.random.default_rng(0)
        for v in (1, 2):
            draws = spec.sample(v, rng, 200_000)
            assert abs(draws.mean()) < 0.02


class TestSimulate:
    def test_deterministic_per_seed(self, chain2):
        noise = NoiseSpec({1: ("exponential", 1), 2: ("uniform", 1)})
        a = simulate_lsem(chain2, {(1, 2): 0.5}, noise, 50, seed=7)
        b = simulate_lsem(chain2, {(1, 2): 0.5}, noise, 50, seed=7)
        c = simulate_lsem(chain2, {(1, 2): 0.5}, noise, 50, seed=8)
        assert np.array_equal(a.data, b.data)
        assert not np.array_equal(a.data, c.data)
        assert a.vertices == (1, 2)

    def test_chain_columns_follow_the_weights(self, chain2):
        noise = NoiseSpec({1: ("uniform", 1), 2: ("uniform", F(1, 100))})
        sm = simulate_lsem(chain2, {(1, 2): 2.0}, noise, 2000, seed=1)
        x1, x2 = sm.data[:, 0], sm.data[:, 1]
        resid = x2 - 2.0 * x1
        assert np.std(resid) < 0.01  # only the tiny own-noise remains
        assert np.std(x2 - x1) > 0.1

    def test_latent_vertices_need_noise_and_are_dropped(self, latent_triple):
        canon = canonical_dag(latent_triple)
        latent = canon.dag.vertices[-1]
        with pytest.raises(ValueError, match="misses vertices"):
            simulate_lsem(
                latent_triple,
                {},
                NoiseSpec({v: ("uniform", 1) for v in latent_triple.vertices}),
                10,
                seed=0,
            )
        full = NoiseSpec(
            {v: ("uniform", 1) for v in latent_triple.vertices} | {latent: ("exponential", 1)}
        )
        fan_out = {(latent, v): 1.0 for v in latent_triple.vertices}
        sm = simulate_lsem(latent_triple, fan_out, full, 2000, seed=3)
        assert sm.vertices == latent_triple.vertices
        # The shared latent noise correlates all three columns.
        corr = np.corrcoef(sm.data.T)
        assert np.all(corr[np.triu_indices(3, 1)] > 0.2)

    def test_data_bytes_are_pinned(self):
        # The path sums add their float terms in one fixed order.  Here three
        # directed paths run 1 -> 5, and taking the children of each vertex in
        # reverse order changes the last bit of the 1 -> 5 path sum, and so
        # the data.  Vertex 6 is the latent of the hyperedge (canonical-DAG
        # id).  The rows also pass through one BLAS product, so the pin holds
        # for a given float kernel, such as the OpenBLAS that numpy wheels bundle.
        g = MixedGraph(
            vertices=(1, 2, 3, 4, 5),
            directed_edges=((1, 2), (1, 3), (1, 4), (2, 3), (2, 5), (3, 5), (4, 5)),
            multidirected_edges=((2, 3, 4),),
        )
        lam = {
            (1, 2): 0.69, (1, 3): -1.74, (1, 4): 1.03, (2, 3): 0.36, (2, 5): -0.79,
            (3, 5): -1.88, (4, 5): 1.46, (6, 2): -0.11, (6, 3): 0.88, (6, 4): 1.52,
        }
        noise = NoiseSpec({
            1: ("uniform", 1), 2: ("exponential", 2), 3: ("laplace", F(1, 2)),
            4: ("gamma", 2, 1), 5: ("uniform", 3), 6: ("exponential", 1),
        })
        sm = simulate_lsem(g, lam, noise, 64, seed=11)
        assert sm.data.shape == (64, 5)
        assert hashlib.sha256(sm.data.tobytes()).hexdigest() == (
            "5b6ae9d5ea64bcf355257ade6b26e6a3c450f702c5492697737ffc419612d772"
        )

    def test_rejects_empty_sample(self, chain2):
        noise = NoiseSpec({1: ("uniform", 1), 2: ("uniform", 1)})
        with pytest.raises(ValueError, match=">= 1"):
            simulate_lsem(chain2, {(1, 2): 1.0}, noise, 0, seed=0)

    def test_rejects_a_negative_seed(self, chain2):
        noise = NoiseSpec({1: ("uniform", 1), 2: ("uniform", 1)})
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            simulate_lsem(chain2, {(1, 2): 1.0}, noise, 5, seed=-1)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "spec, weight, reason",
        [
            (("uniform", F(10**308)), 0.5, "the noise at vertex 1"),
            (("laplace", F(10**308)), 0.5, "the noise at vertex 1"),
            (("exponential", F(1, 10**320)), 0.5, "the noise at vertex 1"),
            (("uniform", F(10**400)), 0.5, "the noise at vertex 1"),
            (("uniform", F(10**300)), 1e300, "the value at vertex 2"),
        ],
        ids=["uniform", "laplace", "exponential", "no-float", "weighted-value"],
    )
    def test_values_past_the_float_range_name_their_vertex(self, chain2, spec, weight, reason):
        noise = NoiseSpec({1: spec, 2: ("uniform", 1)})
        with pytest.raises(ValueError, match=f"^{reason} leaves the float range$"):
            simulate_lsem(chain2, {(1, 2): weight}, noise, 200, seed=0)

    @pytest.mark.parametrize("weight", [F(10**400), 10**400], ids=["fraction", "int"])
    def test_a_weight_too_large_for_a_float_names_its_edge(self, chain2, weight, monkeypatch):
        noise = NoiseSpec({1: ("uniform", 1), 2: ("uniform", 1)})

        def no_draw(*args):
            raise AssertionError("drew noise")

        monkeypatch.setattr(NoiseSpec, "sample", no_draw)
        with pytest.raises(ValueError, match="^the weight on edge 1->2 is too large for a float$"):
            simulate_lsem(chain2, {(1, 2): weight}, noise, 5, seed=0)


class TestSampleMatrix:
    def test_validation(self):
        with pytest.raises(ValueError, match="2-D"):
            SampleMatrix(data=np.zeros(3), vertices=(1, 2, 3))
        with pytest.raises(ValueError, match="one column per vertex"):
            SampleMatrix(data=np.zeros((2, 3)), vertices=(1, 2))
        with pytest.raises(ValueError, match="finite"):
            SampleMatrix(data=np.array([[np.nan, 0.0]]), vertices=(1, 2))
        with pytest.raises(ValueError, match="at least one row"):
            SampleMatrix(data=np.zeros((0, 2)), vertices=(1, 2))

    def test_repeated_labels_are_refused(self, tmp_path):
        with pytest.raises(ValueError, match=r"vertex labels \[1, 1, 2\] repeat a vertex"):
            SampleMatrix(data=np.zeros((2, 3)), vertices=(1, 1, 2))
        path = tmp_path / "repeat.csv"
        path.write_text("1,1,2\n0.5,1.0,2.0\n")
        with pytest.raises(ValueError, match="repeat a vertex"):
            read_sample_csv(path)

    def test_data_is_an_immutable_copy(self):
        raw = np.zeros((2, 2))
        sm = SampleMatrix(data=raw, vertices=(1, 2))
        raw[0, 0] = 5.0
        assert sm.data[0, 0] == 0.0
        with pytest.raises(ValueError):
            sm.data[0, 0] = 1.0

    def test_column_lookup(self):
        sm = SampleMatrix(data=np.zeros((1, 2)), vertices=(4, 9))
        assert sm.column(9) == 1
        with pytest.raises(ValueError, match="no column"):
            sm.column(5)


class TestSampleCumulant:
    def test_second_order_matches_biased_covariance(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(400, 3))
        sm = SampleMatrix(data=x, vertices=(1, 2, 3))
        c2 = sample_cumulant(sm, 2)
        cov = np.cov(x.T, bias=True)
        for i in range(3):
            for j in range(3):
                assert c2.at((i, j)) == pytest.approx(cov[i, j], abs=1e-12)

    def test_tensors_are_exactly_symmetric(self):
        rng = np.random.default_rng(5)
        sm = SampleMatrix(data=rng.exponential(size=(150, 3)), vertices=(1, 2, 3))
        for k in (3, 4):
            t = sample_cumulant(sm, k)
            idx = (0, 1, 2) if k == 3 else (0, 1, 2, 2)
            base = t.at(idx)
            for perm in itertools.permutations(idx):
                assert t.at(perm) == base

    def test_consistency_with_population_cumulants(self, chain2):
        noise = NoiseSpec({1: ("exponential", 1), 2: ("uniform", 1)})
        lam = {(1, 2): F(1, 2)}
        sm = simulate_lsem(chain2, {(1, 2): 0.5}, noise, 400_000, seed=42)
        pop = population_instance(chain2, lam, noise, 4)
        for k in (2, 3, 4):
            est = sample_cumulant(sm, k)
            truth = model_cumulant(chain2, pop, k)
            err = max(
                abs(est.at(idx) - float(truth.at(idx)))
                for idx in np.ndindex(*([2] * k))
            )
            assert err < 0.15

    @pytest.mark.parametrize("rows", [1, 2, 5, 17, 64, 300])
    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
    def test_entries_equal_the_per_key_moments_bit_for_bit(self, tmp_path, p, k, rows):
        rng = np.random.default_rng(1000 * p + 10 * k + rows)
        x = rng.gamma(0.5, 2.0, size=(rows, p)) * rng.choice((-3.0, 0.25, 7.0), size=p)
        sm = SampleMatrix(data=x, vertices=tuple(range(1, p + 1)))
        moment = moments_by_key(x - x.mean(axis=0))
        keys, table = orbit_table(p, k)
        expected = [estimation._cumulant_value(moment, keys[i]) for i in table]
        write_sample_binary(sm, tmp_path / "x.mtrk")
        for data in (sm, read_sample_binary(tmp_path / "x.mtrk")):
            assert list(sample_cumulant(data, k).entries) == expected

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_an_entry_past_the_float_range_names_its_vertices(self, k):
        big = {2: 1e200, 3: 1e150, 4: 1e100}[k]  # its k-th power leaves the float range
        sm = SampleMatrix(data=[[big, 2.0], [-big, 1.0], [3.0, 0.5]], vertices=(4, 9))
        with pytest.raises(ValueError) as info:
            sample_cumulant(sm, k)
        vertices = [4] * k
        assert str(info.value) == (
            f"the order-{k} sample cumulant at vertices {vertices} leaves the float range"
        )

    def test_order_out_of_range(self):
        sm = SampleMatrix(data=np.zeros((5, 1)), vertices=(1,))
        for k in (1, 5):
            with pytest.raises(OrderUnsupported):
                sample_cumulant(sm, k)

    def test_population_instance_requires_full_cover(self, chain2):
        with pytest.raises(ValueError, match="cover"):
            population_instance(chain2, {}, NoiseSpec({1: ("uniform", 1)}), 2)


class TestDeterminantFlag:
    def test_collider_flags_zero_and_star_does_not(self, star, collider):
        noise4 = NoiseSpec({v: ("exponential", 1) for v in range(4)})
        sides = ((1,), (2,), (3,))
        sm_star = simulate_lsem(
            star, {(0, 1): 0.9, (0, 2): 0.8, (0, 3): 1.1}, noise4, 40_000, seed=101
        )
        res_star = determinant_flag(sm_star, sides, 3, n_boot=60, seed=5)
        assert not res_star.flag
        assert abs(res_star.statistic) > 2 * res_star.bootstrap_sd

        noise3 = NoiseSpec({v: ("exponential", 1) for v in (1, 2, 3)})
        sm_col = simulate_lsem(collider, {(1, 3): 0.9, (2, 3): 0.8}, noise3, 40_000, seed=101)
        res_col = determinant_flag(sm_col, sides, 3, n_boot=60, seed=5)
        assert res_col.flag

    def test_deterministic_per_seed(self, collider):
        noise = NoiseSpec({v: ("uniform", 1) for v in (1, 2, 3)})
        sm = simulate_lsem(collider, {(1, 3): 1.0, (2, 3): 1.0}, noise, 2000, seed=0)
        a = determinant_flag(sm, ((1,), (3,)), 2, n_boot=25, seed=9)
        b = determinant_flag(sm, ((1,), (3,)), 2, n_boot=25, seed=9)
        assert a == b
        assert a.to_doc() == {
            "statistic": a.statistic,
            "bootstrap_sd": a.bootstrap_sd,
            "flag": a.flag,
        }

    def test_validation(self):
        sm = SampleMatrix(data=np.random.default_rng(1).normal(size=(60, 3)), vertices=(1, 2, 3))
        with pytest.raises(InvalidBootstrapCount):
            determinant_flag(sm, ((1,), (2,)), 2, n_boot=0, seed=0)
        with pytest.raises(ValueError, match="sides but k"):
            determinant_flag(sm, ((1,), (2,)), 3, n_boot=5, seed=0)
        with pytest.raises(OrderUnsupported):
            determinant_flag(sm, tuple(((v,) for v in (1, 2, 3, 1, 2))), 5, n_boot=5, seed=0)
        with pytest.raises(ValueError, match="nonempty"):
            determinant_flag(sm, ((), ()), 2, n_boot=5, seed=0)

    def test_single_replicate_has_zero_sd(self):
        sm = SampleMatrix(data=np.random.default_rng(2).normal(size=(50, 2)), vertices=(1, 2))
        res = determinant_flag(sm, ((1,), (2,)), 2, n_boot=1, seed=0)
        assert res.bootstrap_sd == 0.0

    def test_rejects_a_negative_seed(self):
        sm = SampleMatrix(data=np.random.default_rng(2).normal(size=(50, 2)), vertices=(1, 2))
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            determinant_flag(sm, ((1,), (2,)), 2, n_boot=5, seed=-1)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "data, sides, seed, message",
        [
            (BIG, ((1,), (1,), (1,), (1,)), 3, "the bootstrap statistic leaves the float range"),
            ([[1.4e77, 1.0], [0.0, 2.0], [1.0, 0.5], [2.0, 1.0]], ((1,), (1,), (1,), (1,)), 1,
             "bootstrap replicate 0 leaves the float range"),
            (BIG, ((1,), (1,), (2,), (2,)), 3,
             "the bootstrap standard deviation leaves the float range"),
        ],
        ids=["statistic", "replicate", "sd"],
    )
    def test_values_past_the_float_range_are_refused(self, data, sides, seed, message):
        sm = SampleMatrix(data=data, vertices=(1, 2))
        with pytest.raises(ValueError, match=f"^{message}$"):
            determinant_flag(sm, sides, 4, n_boot=4, seed=seed)


def gathered_bootstrap(data, sides, k, n_boot, seed):
    """Reference bootstrap: gather each replicate's drawn rows, recentre
    them and recompute every moment (what the count weights replace)."""
    needed = sorted({v for side in sides for v in side})
    pos = {v: i for i, v in enumerate(needed)}
    sub = data.data[:, [data.column(v) for v in needed]]
    n = len(sides[0])

    def statistic(x):
        xc = x - x.mean(axis=0)

        def moment(idx):
            key = sorted(idx)
            prod = xc[:, key[0]].copy()
            for i in key[1:]:
                prod *= xc[:, i]
            return float(prod.mean())

        def entry(p):
            idx = tuple(pos[sides[m][i]] for m, i in enumerate(p))
            if k < 4:
                return moment(idx)
            i, j, l, r = idx
            return (moment(idx) - moment((i, j)) * moment((l, r))
                    - moment((i, l)) * moment((j, r)) - moment((i, r)) * moment((j, l)))

        return float(hyperdet_from_getter(n, k, entry))

    stat = statistic(sub)
    rows = sub.shape[0]
    stats = [
        statistic(sub[np.random.default_rng(child).integers(0, rows, rows)])
        for child in np.random.SeedSequence(seed).spawn(n_boot)
    ]
    sd = float(np.std(stats, ddof=1)) if n_boot > 1 else 0.0
    return stat, sd, bool(abs(stat) <= 2.0 * sd)


BATCHED_CASES = [
    (((1,), (3,)), 10),
    (((1, 2), (3, 4)), 10),
    (((2, 2), (1, 3)), 10),
    (((1,), (2,), (4,)), 10),
    (((1, 2), (2, 3), (3, 4)), 10),
    (((1, 1), (2, 3), (3, 4)), 10),
    (((1,), (2,), (3,), (4,)), 10),
    (((1, 2), (3, 4), (1, 3), (2, 4)), 10),
    (((4, 4), (1, 2), (2, 3), (3, 1)), 10),
    (((1,), (2,), (3,)), 1),
    (((1, 2), (3, 4), (2, 4), (1, 3)), 1),
]


class TestBatchedBootstrap:
    """The count-weight bootstrap against a per-replicate gather."""

    @pytest.fixture(scope="class")
    def skewed(self):
        g = MixedGraph(vertices=(0, 1, 2, 3, 4),
                       directed_edges=((0, 1), (0, 2), (0, 3), (1, 4), (2, 4)))
        lam = {(0, 1): 0.9, (0, 2): 0.7, (0, 3): 1.1, (1, 4): 0.5, (2, 4): 0.6}
        noise = NoiseSpec({v: ("gamma", 2, 1) for v in g.vertices})
        return simulate_lsem(g, lam, noise, 3000, seed=11)

    @pytest.mark.parametrize("sides,n_boot", BATCHED_CASES)
    def test_matches_gathered_replicates(self, skewed, sides, n_boot):
        k = len(sides)
        res = determinant_flag(skewed, sides, k, n_boot=n_boot, seed=4)
        stat, sd, flag = gathered_bootstrap(skewed, sides, k, n_boot, seed=4)
        assert res.statistic == stat
        assert res.flag == flag
        if k % 2 == 0 and len(set(sides[0])) < len(sides[0]):
            # Equal slices along a signed mode: every replicate determinant
            # is zero, so both spreads are rounding noise.
            assert max(res.bootstrap_sd, sd) < 1e-12
        else:
            assert res.bootstrap_sd == pytest.approx(sd, rel=1e-9, abs=0.0)
        if n_boot == 1:
            assert res.bootstrap_sd == 0.0

    @pytest.mark.parametrize("sides,n_boot", BATCHED_CASES)
    def test_matches_per_key_moments_bit_for_bit(self, skewed, sides, n_boot, monkeypatch):
        k = len(sides)
        res = determinant_flag(skewed, sides, k, n_boot=n_boot, seed=4)
        # The reference reads C-ordered columns and builds each moment on its own.
        table = estimation._monomial_table
        monkeypatch.setattr(
            estimation, "_moments_of", lambda xf, keys: moments_by_key(np.ascontiguousarray(xf))
        )
        monkeypatch.setattr(
            estimation, "_monomial_table", lambda xf, col: table(np.ascontiguousarray(xf), col)
        )
        ref = determinant_flag(skewed, sides, k, n_boot=n_boot, seed=4)
        assert (res.statistic, res.bootstrap_sd) == (ref.statistic, ref.bootstrap_sd)

    def test_blocks_of_replicates_give_the_same_result(self, skewed, monkeypatch):
        sides = ((1, 2), (2, 3), (3, 4), (1, 4))
        whole = determinant_flag(skewed, sides, 4, n_boot=7, seed=2)
        rows = skewed.n_samples
        stat, sd, flag = gathered_bootstrap(skewed, sides, 4, 7, seed=2)
        # W blocks of 3, 3 and 1 replicates, then of one replicate each;
        # Z (45 columns here) splits into row blocks in both settings.
        for bound in (3 * rows + 1, rows - 1):
            monkeypatch.setattr(estimation, "BOOTSTRAP_CHUNK_FLOATS", bound)
            blocked = determinant_flag(skewed, sides, 4, n_boot=7, seed=2)
            assert blocked.statistic == whole.statistic == stat
            assert blocked.flag == whole.flag == flag
            assert blocked.bootstrap_sd == pytest.approx(whole.bootstrap_sd, rel=1e-12, abs=0.0)
            assert blocked.bootstrap_sd == pytest.approx(sd, rel=1e-9, abs=0.0)


class TestDataIO:
    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        sm = SampleMatrix(data=rng.normal(size=(20, 3)), vertices=(2, 5, 9))
        path = tmp_path / "x.csv"
        write_sample_csv(sm, path)
        back = read_sample_csv(path)
        assert back.vertices == (2, 5, 9)
        assert np.array_equal(back.data, sm.data)  # repr() round-trips floats

    def test_csv_with_text_labels_renumbers(self, tmp_path):
        sm = SampleMatrix(data=np.ones((2, 2)), vertices=(7, 8))
        path = tmp_path / "named.csv"
        write_sample_csv(sm, path, labels={7: "left", 8: "right"})
        with open(path) as fh:
            assert fh.readline().strip() == "left,right"
        back = read_sample_csv(path)
        assert back.vertices == (1, 2)

    @pytest.mark.parametrize("header", ["1_0,2", "+5,9", "05,9", "5, 9", "\u0665,9"])
    def test_csv_header_of_non_canonical_ids_numbers_the_columns(self, tmp_path, header):
        path = tmp_path / "odd.csv"
        path.write_text(header + "\n0.5,1.5\n")
        assert read_sample_csv(path).vertices == (1, 2)

    @pytest.mark.parametrize(
        "labels, bad",
        [({7: "left,x", 8: "right"}, "'left,x' of vertex 7"),
         ({7: "left\nx"}, "'left\\nx' of vertex 7"),
         ({7: "8", 8: "7"}, "'8' of vertex 7"),
         ({8: "9"}, "'9' of vertex 8")],
        ids=["comma", "newline", "swapped-ids", "foreign-id"],
    )
    def test_csv_refuses_labels_that_do_not_read_back(self, tmp_path, labels, bad):
        sm = SampleMatrix(data=np.ones((2, 2)), vertices=(7, 8))
        path = tmp_path / "bad.csv"
        with pytest.raises(ValueError, match=re.escape(f"label {bad} would not read back as its column")):
            write_sample_csv(sm, path, labels=labels)
        assert not path.exists()

    def test_csv_label_may_spell_its_own_id(self, tmp_path):
        sm = SampleMatrix(data=np.ones((2, 2)), vertices=(7, 8))
        path = tmp_path / "own.csv"
        write_sample_csv(sm, path, labels={7: "7"})
        assert read_sample_csv(path).vertices == (7, 8)

    @pytest.mark.parametrize(
        "body, where, cell",
        [("1_0,2.5\n", "/rows/0/0", "'1_0'"),
         ("0.5,1.5\n 3 ,1.0\n", "/rows/1/0", "' 3 '"),
         ("0.5,1.5\n3,\u0663\n", "/rows/1/1", "'\u0663'"),
         ("0.5,1.5\t\n", "/rows/0/1", "'1.5\\t'"),
         ("0.5,\n", "/rows/0/1", "''"),
         ("0.5,x\n", "/rows/0/1", "'x'")],
        ids=["underscore", "space", "non-ascii-digit", "tab", "empty", "word"],
    )
    def test_csv_refuses_cells_that_repr_does_not_write(self, tmp_path, body, where, cell):
        path = tmp_path / "odd.csv"
        path.write_text("1,2\n" + body, encoding="utf-8")
        with pytest.raises(SchemaError) as exc:
            read_sample_csv(path)
        assert exc.value.path == where
        assert str(exc.value) == f"{where}: not a number: {cell}"

    @pytest.mark.parametrize(
        "body, where, found",
        [("0.5,1.5\n0.5\n", "/rows/1", 1), ("0.5,1.5,2.5\n", "/rows/0", 3)],
        ids=["short", "long"],
    )
    def test_csv_refuses_ragged_rows(self, tmp_path, body, where, found):
        path = tmp_path / "ragged.csv"
        path.write_text("1,2\n" + body)
        with pytest.raises(SchemaError) as exc:
            read_sample_csv(path)
        assert exc.value.path == where
        assert str(exc.value) == f"{where}: expected 2 cells, found {found}"

    def test_csv_reads_crlf_line_ends(self, tmp_path):
        path = tmp_path / "crlf.csv"
        path.write_bytes(b"1,2\r\n0.5,1.5\r\n")
        assert read_sample_csv(path).data.tolist() == [[0.5, 1.5]]

    def test_csv_reads_every_finite_repr_spelling(self, tmp_path):
        values = [0.0, -0.0, 1.5, -2.25, 1e-05, 1e16, -1.7976931348623157e308, 5e-324, 123456789.0]
        path = tmp_path / "spellings.csv"
        path.write_text("1\n" + "".join(repr(v) + "\n" for v in values))
        assert read_sample_csv(path).data[:, 0].tolist() == values

    def test_csv_rejects_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_sample_csv(path)

    def test_binary_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        sm = SampleMatrix(data=rng.normal(size=(17, 4)), vertices=(1, 2, 3, 4))
        path = tmp_path / "x.mtrk"
        write_sample_binary(sm, path)
        raw = path.read_bytes()
        assert raw[:4] == b"MTRK"
        assert len(raw) == 16 + 17 * 4 * 8
        back = read_sample_binary(path)
        assert back.vertices == (1, 2, 3, 4)
        assert np.array_equal(back.data, sm.data)
        assert back.data.base is None and not back.data.flags.writeable

    def test_binary_read_copies_the_payload_once(self, tmp_path):
        sm = SampleMatrix(data=np.ones((20_000, 4)), vertices=(1, 2, 3, 4))
        path = tmp_path / "x.mtrk"
        write_sample_binary(sm, path)
        read_sample_binary(path)
        tracemalloc.start()
        try:
            read_sample_binary(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The file's bytes and the owned matrix, but no second copy of the payload.
        assert peak < 2.5 * sm.data.nbytes

    def test_binary_rejects_bad_magic_and_truncation(self, tmp_path):
        good = tmp_path / "x.mtrk"
        sm = SampleMatrix(data=np.zeros((3, 2)), vertices=(1, 2))
        write_sample_binary(sm, good)
        bad_magic = tmp_path / "bad.mtrk"
        bad_magic.write_bytes(b"NOPE" + good.read_bytes()[4:])
        with pytest.raises(ValueError, match="not a MTRK"):
            read_sample_binary(bad_magic)
        truncated = tmp_path / "trunc.mtrk"
        truncated.write_bytes(good.read_bytes()[:-8])
        with pytest.raises(ValueError, match="truncated"):
            read_sample_binary(truncated)
