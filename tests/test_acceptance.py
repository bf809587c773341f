"""Acceptance suite: one test per shipped guarantee.

Every test records a single pass/fail line (printed in the terminal
summary under "acceptance criteria") before asserting, so a red run
still reports the measured numbers.  All randomness is driven by the
fixed master seed below; the sampled ensembles are drawn naturally
(uniform sides, no filtering), so these tests measure the library on
unselected inputs.
"""

import json
import random
import statistics
import time
from fractions import Fraction

from conftest import (
    minor_det_by_path_systems,
    random_dag,
    random_mixed,
    random_sides,
    record_acceptance,
)

from multitrek import (
    InternalInconsistency,
    MixedGraph,
    NoiseSpec,
    Tensor,
    canonical_dag,
    cauchy_binet_check,
    check_moment_theorem_k3,
    cumulant_entry,
    decide_vanishing,
    det_by_trek_systems,
    detect_common_cause,
    find_ktrek_separating_sets,
    hyperdeterminant,
    instance_to_json,
    model_cumulant,
    model_moment,
    moments_from_cumulants,
    path_matrix,
    population_instance,
    sample_cumulant,
    sample_generic_instance,
    scan_conjecture,
    serialize_graph,
    simulate_lsem,
    subtensor_determinant,
    symbolic_instance,
)
from multitrek import test_determinant_zero as determinant_flag
from multitrek.cli import EXIT_ERROR, run
from multitrek.cumulants import noise_entry
from multitrek.moments import ConjectureReport
from multitrek.oracle import NOT_VANISHES, VANISHES

MASTER_SEED = 20240814

BLIND_SPOT_NOTE = (
    "at odd orders the absence of an intersection-free trek system does not "
    "force the determinant to vanish (systems meeting only on the first side "
    "need not cancel), so an unselected sample can legitimately contain such "
    "configurations; they surface here as honest disagreements"
)


# -- criterion 1: worked-example fidelity -----------------------------------


def test_criterion_1_worked_example_facts(two_root_dag):
    """Five closed-form facts about one seven-vertex graph, checked on ten
    random rational instances each, in under a second."""
    g = two_root_dag
    t0 = time.perf_counter()
    bad = []
    for trial in range(10):
        inst = sample_generic_instance(g, 3, MASTER_SEED + trial)
        lam = inst.lam
        e2 = {v: noise_entry(inst, 2, (v, v)) for v in g.vertices}
        e3 = {v: noise_entry(inst, 3, (v, v, v)) for v in g.vertices}

        # entry (4,5): two treks, top at 4 and top at 1
        fact1 = lam[(4, 5)] * (e2[4] + e2[1] * lam[(1, 4)] ** 2)
        # entry (5,6,7): the only common ancestor is 1
        fact2 = e3[1] * lam[(1, 4)] * lam[(4, 5)] * lam[(1, 6)] * lam[(1, 7)]
        # entry (5,6,8): vertices 5 and 8 share no ancestor
        # order-2 minor rows (4,6) x cols (7,8): one crossing-free system
        fact4 = e2[1] * e2[2] * lam[(1, 4)] * lam[(1, 7)] * lam[(2, 6)] * lam[(2, 8)]
        # order-3 minor (4,6)x(5,8)x(7,8): a single surviving system pair
        fact5 = (
            e3[1] * e3[2]
            * lam[(1, 4)] ** 2 * lam[(4, 5)] * lam[(1, 7)]
            * lam[(2, 6)] * lam[(2, 8)] ** 2
        )

        checks = {
            "entry_45": cumulant_entry(g, inst, (4, 5)) == fact1,
            "entry_567": cumulant_entry(g, inst, (5, 6, 7)) == fact2,
            "entry_568": cumulant_entry(g, inst, (5, 6, 8)) == 0,
            "det2_dense": subtensor_determinant(g, inst, ((4, 6), (7, 8))) == fact4,
            "det2_treks": det_by_trek_systems(g, inst, ((4, 6), (7, 8))) == fact4,
            "det3_dense": subtensor_determinant(g, inst, ((4, 6), (5, 8), (7, 8))) == fact5,
            "det3_treks": det_by_trek_systems(g, inst, ((4, 6), (5, 8), (7, 8))) == fact5,
        }
        bad.extend(f"trial {trial}: {name}" for name, ok in checks.items() if not ok)
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 1.0
    record_acceptance(
        f"criterion 1: {'PASS' if ok else 'FAIL'} — five closed-form facts x 10 "
        f"rational instances, {len(bad)} mismatches, {elapsed:.3f}s (< 1s)"
    )
    assert not bad, f"closed-form mismatches: {bad}"
    assert elapsed < 1.0, f"took {elapsed:.3f}s, limit is 1s"


# -- criterion 2: combinatorial vs randomized-evaluation equivalence --------


def test_criterion_2_route_agreement_on_random_dags():
    """500 unselected DAGs (up to 8 vertices, edge probability 1/2), orders
    2..4, side sizes 1..3: the trek-system search and the five-trial
    randomized determinant evaluation must return the same answer."""
    t0 = time.perf_counter()
    rng = random.Random(MASTER_SEED)
    disagreements = []
    for case in range(500):
        g = random_dag(rng, max_vertices=8, edge_prob=0.5)
        k = rng.choice((2, 3, 4))
        n = min(rng.choice((1, 2, 3)), len(g.vertices))
        sides = random_sides(rng, g, k, n)
        seed = rng.getrandbits(32)
        entry = {
            "case": case,
            "graph": serialize_graph(g),
            "sides": [list(s) for s in sides],
            "seed": seed,
        }
        try:
            d = decide_vanishing(g, sides, mode="randomized", seed=seed)
        except InternalInconsistency as exc:
            entry["kind"] = f"hard inconsistency: {exc}"
            disagreements.append(entry)
            continue
        if "gap" in d.combinatorial_certificate:
            entry["kind"] = "search empty, determinant nonzero"
            disagreements.append(entry)
        elif d.algebraic_record and d.algebraic_record[-1]["seed"] is None:
            entry["kind"] = "witness system, sampled determinants all zero"
            disagreements.append(entry)
    elapsed = time.perf_counter() - t0
    ok = not disagreements and elapsed < 600.0
    record_acceptance(
        f"criterion 2: {'PASS' if ok else 'FAIL'} — 500 random DAGs, "
        f"{len(disagreements)} route disagreements, {elapsed:.1f}s (< 600s)"
    )
    assert elapsed < 600.0, f"took {elapsed:.1f}s, limit is 600s"
    assert not disagreements, (
        f"{len(disagreements)} route disagreements in an unselected sample; "
        f"{BLIND_SPOT_NOTE}. cases: {json.dumps(disagreements, default=str)}"
    )


# -- criterion 3: hyperedge reduction ----------------------------------------


def test_criterion_3_latent_reduction_consistency(latent_triple, pairwise_triple):
    """Decisions on a mixed graph agree with decisions on its latent-variable
    expansion, and the classic three-variable pair behaves as documented."""
    t0 = time.perf_counter()
    rng = random.Random(MASTER_SEED)
    mismatches = []
    for case in range(200):
        g = random_mixed(rng, max_vertices=6, edge_prob=0.4, max_hyperedges=2, max_hyper_order=4)
        k = rng.choice((2, 3, 4))
        n = min(rng.choice((1, 2)), len(g.vertices))
        sides = random_sides(rng, g, k, n)
        seed = rng.getrandbits(32)
        direct = decide_vanishing(g, sides, mode="randomized", seed=seed)
        expanded = decide_vanishing(canonical_dag(g).dag, sides, mode="randomized", seed=seed)
        if direct.verdict != expanded.verdict:
            mismatches.append({"case": case, "graph": serialize_graph(g), "sides": sides})

    # the shared-cause contrast: one order-3 hyperedge vs pairwise-only
    latent_entry = cumulant_entry(latent_triple, symbolic_instance(latent_triple, 3), (1, 2, 3))
    pairwise_entry = cumulant_entry(pairwise_triple, symbolic_instance(pairwise_triple, 3), (1, 2, 3))
    contrast_ok = (
        bool(latent_entry)
        and not pairwise_entry
        and detect_common_cause(latent_triple, (1, 2, 3), mode="certain").verdict == NOT_VANISHES
        and detect_common_cause(pairwise_triple, (1, 2, 3), mode="certain").verdict == VANISHES
    )
    elapsed = time.perf_counter() - t0
    ok = not mismatches and contrast_ok and elapsed < 300.0
    record_acceptance(
        f"criterion 3: {'PASS' if ok else 'FAIL'} — 200 mixed graphs vs latent "
        f"expansion, {len(mismatches)} verdict mismatches, three-variable "
        f"contrast {'ok' if contrast_ok else 'BROKEN'}, {elapsed:.1f}s (< 300s)"
    )
    assert not mismatches, f"reduction mismatches: {mismatches}"
    assert contrast_ok
    assert elapsed < 300.0, f"took {elapsed:.1f}s, limit is 300s"


# -- criterion 4: separation phenomena ---------------------------------------


def test_criterion_4_separation_duality(menger_gap):
    """At order 3 a vanishing determinant need not come with a small blocking
    tuple (pinned example); at order 2 the duality is exact on 500 random
    side pairs: vanishing iff some blocking pair of total size n-1 exists."""
    t0 = time.perf_counter()
    g, sides = menger_gap
    gap_decision = decide_vanishing(g, sides, mode="certain")
    gap_ok = gap_decision.verdict == VANISHES and find_ktrek_separating_sets(g, sides, budget=1) is None

    rng = random.Random(MASTER_SEED)
    failures = []
    for case in range(200):
        g2 = random_dag(rng, max_vertices=8, edge_prob=0.5)
        n = min(rng.choice((1, 2, 3)), len(g2.vertices))
        sides2 = random_sides(rng, g2, 2, n)
        vanishes = decide_vanishing(g2, sides2, mode="randomized", seed=rng.getrandbits(32)).verdict == VANISHES
        separator = find_ktrek_separating_sets(g2, sides2, budget=n - 1)
        if vanishes != (separator is not None):
            failures.append({"case": case, "graph": serialize_graph(g2), "sides": sides2})
    elapsed = time.perf_counter() - t0
    ok = gap_ok and not failures
    record_acceptance(
        f"criterion 4: {'PASS' if ok else 'FAIL'} — order-3 vanishing without a "
        f"small blocker {'reproduced' if gap_ok else 'BROKEN'}; order-2 duality "
        f"on 200 random DAGs, {len(failures)} violations, {elapsed:.1f}s"
    )
    assert gap_ok, "the pinned vanishing-without-separator example broke"
    assert not failures, f"order-2 duality violations: {failures}"


# -- criterion 5: multilinear-algebra identities ------------------------------


def test_criterion_5_determinant_identities():
    """The contracted-determinant expansion and the path-system minor rule,
    each on 200 random exact instances."""
    t0 = time.perf_counter()
    rng = random.Random(MASTER_SEED)
    cb_failures = 0
    for _ in range(200):
        p = rng.randint(1, 3)
        n = rng.randint(1, 3)
        k = rng.randint(2, 4)
        dims = (p, n) + (p,) * (k - 2)
        a = Tensor.build(dims, lambda idx: Fraction(rng.randint(-9, 9)))
        b = [[Fraction(rng.randint(-9, 9)) for _ in range(p)] for _ in range(n)]
        if not cauchy_binet_check(a, b):
            cb_failures += 1

    minor_failures = 0
    for case in range(200):
        g = random_dag(rng, max_vertices=6, edge_prob=0.5)
        lam = sample_generic_instance(g, 2, rng.getrandbits(32)).lam
        m = min(rng.choice((1, 2, 3)), len(g.vertices))
        rows = tuple(sorted(rng.sample(g.vertices, m)))
        cols = tuple(sorted(rng.sample(g.vertices, m)))
        mat = path_matrix(g, lam)
        pos = {v: i for i, v in enumerate(g.vertices)}
        minor = Tensor.of((m, m), [mat[pos[r]][pos[c]] for r in rows for c in cols])
        if hyperdeterminant(minor) != minor_det_by_path_systems(g, lam, rows, cols):
            minor_failures += 1
    elapsed = time.perf_counter() - t0
    ok = cb_failures == 0 and minor_failures == 0
    record_acceptance(
        f"criterion 5: {'PASS' if ok else 'FAIL'} — contracted-determinant "
        f"expansion {200 - cb_failures}/200, path-system minor rule "
        f"{200 - minor_failures}/200, exact arithmetic, {elapsed:.1f}s"
    )
    assert cb_failures == 0
    assert minor_failures == 0


# -- criterion 6: moment-side results -----------------------------------------


def test_criterion_6_moment_side_results():
    """Order-3 moment/cumulant route agreement on 200 unselected cases, the
    exact moment-from-cumulant chain at orders 2..4, and an order-4
    agreement scan of at least 100 cases with a report artifact."""
    t0 = time.perf_counter()
    rng = random.Random(MASTER_SEED)
    k3_failures = []
    for case in range(200):
        g = random_dag(rng, max_vertices=6, edge_prob=0.5)
        n = min(rng.choice((1, 2)), len(g.vertices))
        sides = random_sides(rng, g, 3, n)
        inst = sample_generic_instance(g, 3, rng.getrandbits(32))
        if not check_moment_theorem_k3(g, inst, sides):
            k3_failures.append({"case": case, "graph": serialize_graph(g), "sides": sides})

    chain_failures = 0
    for case in range(25):
        g = random_dag(rng, max_vertices=5, edge_prob=0.5)
        inst = sample_generic_instance(g, 4, rng.getrandbits(32))
        cumulants = {k: model_cumulant(g, inst, k) for k in (2, 3, 4)}
        moments = moments_from_cumulants(cumulants)
        for k in (2, 3, 4):
            if model_moment(g, inst, k) != moments[k]:
                chain_failures += 1

    report = scan_conjecture(
        4, {"cases": 120, "max_vertices": 6, "set_size": 2}, seed=MASTER_SEED, trials=3
    )
    if_disagreements = [d for d in report.disagreements if d["direction"] == "if"]
    only_if = [d for d in report.disagreements if d["direction"] == "only-if"]
    scan_ok = (
        isinstance(report, ConjectureReport)
        and report.cases_scanned >= 100
        and not if_disagreements
    )
    elapsed = time.perf_counter() - t0
    ok = not k3_failures and chain_failures == 0 and scan_ok
    record_acceptance(
        f"criterion 6: {'PASS' if ok else 'FAIL'} — order-3 route agreement "
        f"{200 - len(k3_failures)}/200, moment-chain consistency "
        f"{75 - chain_failures}/75 tensor comparisons, order-4 scan "
        f"{report.cases_scanned} cases with {len(if_disagreements)} "
        f"if-direction and {len(only_if)} reported only-if records, "
        f"{len(report.lower_order_violations)} factorization violations, "
        f"{elapsed:.1f}s"
    )
    assert not k3_failures, (
        f"order-3 route disagreements in an unselected sample; {BLIND_SPOT_NOTE}. "
        f"cases: {json.dumps(k3_failures, default=str)}"
    )
    assert chain_failures == 0
    assert scan_ok, "order-4 scan found an if-direction disagreement or ran short"


# -- criterion 7: estimation loop ---------------------------------------------


def test_criterion_7_estimation_loop(chain2):
    """Bootstrap zero test separates a shared-cause star from a collider in
    at least 95 of 100 replications at n = 100000, and sample cumulants of a
    million-row simulation sit within 0.05 of the model tensors."""
    t0 = time.perf_counter()
    star = MixedGraph(vertices=(0, 1, 2, 3), directed_edges=((0, 1), (0, 2), (0, 3)))
    star_lam = {(0, 1): 0.9, (0, 2): 0.8, (0, 3): 1.1}
    collider = MixedGraph(vertices=(1, 2, 3), directed_edges=((1, 3), (2, 3)))
    collider_lam = {(1, 3): 0.2, (2, 3): 0.15}
    star_noise = NoiseSpec({v: ("exponential", 1) for v in star.vertices})
    collider_noise = NoiseSpec({v: ("exponential", 1) for v in collider.vertices})
    sides = ((1,), (2,), (3,))

    joint_successes = 0
    for rep in range(100):
        sim_seed = MASTER_SEED + rep
        boot_seed = MASTER_SEED + 50_000 + rep
        star_data = simulate_lsem(star, star_lam, star_noise, 100_000, sim_seed)
        collider_data = simulate_lsem(collider, collider_lam, collider_noise, 100_000, sim_seed)
        star_test = determinant_flag(star_data, sides, 3, n_boot=60, seed=boot_seed)
        collider_test = determinant_flag(collider_data, sides, 3, n_boot=60, seed=boot_seed)
        if (not star_test.flag) and collider_test.flag:
            joint_successes += 1

    lam = {(1, 2): 0.5}
    spec = NoiseSpec({1: ("uniform", 1), 2: ("uniform", Fraction(3, 2))})
    population = population_instance(chain2, {(1, 2): Fraction(1, 2)}, spec, 4)
    worst = 0.0
    for seed in (0, 1, 2):
        data = simulate_lsem(chain2, lam, spec, 1_000_000, seed)
        for k in (2, 3, 4):
            model = model_cumulant(chain2, population, k)
            sample = sample_cumulant(data, k)
            gap = max(abs(float(m) - s) for m, s in zip(model.entries, sample.entries))
            worst = max(worst, gap)
    elapsed = time.perf_counter() - t0
    ok = joint_successes >= 95 and worst < 0.05
    record_acceptance(
        f"criterion 7: {'PASS' if ok else 'FAIL'} — star/collider bootstrap "
        f"separation {joint_successes}/100 (>= 95), worst cumulant deviation "
        f"{worst:.2e} (< 0.05), {elapsed:.1f}s"
    )
    assert joint_successes >= 95, f"only {joint_successes}/100 joint successes"
    assert worst < 0.05, f"worst sample-vs-model cumulant gap {worst}"


# -- criterion 8: command-line determinism ------------------------------------


def test_criterion_8_cli_determinism(capsys, tmp_path, star, chain2):
    """Every subcommand, run twice with fixed seeds, prints byte-identical
    output and the same exit code."""
    t0 = time.perf_counter()
    star_path = tmp_path / "star.json"
    star_path.write_text(serialize_graph(star))
    chain_path = tmp_path / "chain.json"
    chain_path.write_text(serialize_graph(chain2))
    instance_path = tmp_path / "instance.json"
    instance_path.write_text(instance_to_json(sample_generic_instance(star, 3, 1)))
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(
        {"lambda": {"1->2": "1/2"}, "noise": {"1": ["exponential", 1], "2": ["uniform", 1]}}
    ))
    decision_path = tmp_path / "decision.json"
    decision_path.write_text(
        decide_vanishing(star, ((1,), (2,), (3,)), mode="randomized", seed=7).to_json()
    )
    ensemble_path = tmp_path / "ensemble.json"
    ensemble_path.write_text(json.dumps({"cases": 3, "max_vertices": 4, "k": 4}))
    data_path = tmp_path / "data.csv"

    commands = {
        "check": ["check", "--graph", str(star_path), "--sets", "1,2;2,3;1,3", "--seed", "11"],
        "common-cause": ["common-cause", "--graph", str(star_path), "--vars", "1,2,3", "--seed", "3"],
        "parametrize": ["parametrize", "--graph", str(star_path), "--instance", str(instance_path), "--order", "3"],
        "simulate": ["simulate", "--graph", str(chain_path), "--model", str(model_path),
                     "--n", "200", "--seed", "5", "--out", str(data_path)],
        "estimate": ["estimate", "--data", str(data_path), "--order", "2",
                     "--sets", "1;2", "--boot", "40", "--seed", "9"],
        "scan-conjecture": ["scan-conjecture", "--ensemble", str(ensemble_path), "--seed", "5", "--trials", "2"],
        "certify": ["certify", "--decision", str(decision_path), "--graph", str(star_path)],
    }
    unstable = []
    for name, argv in commands.items():
        code1 = run(list(argv))
        out1 = capsys.readouterr().out
        code2 = run(list(argv))
        out2 = capsys.readouterr().out
        if not out1 or code1 == EXIT_ERROR or (code1, out1) != (code2, out2):
            unstable.append(name)
    elapsed = time.perf_counter() - t0
    ok = not unstable
    record_acceptance(
        f"criterion 8: {'PASS' if ok else 'FAIL'} — {len(commands) - len(unstable)}"
        f"/{len(commands)} subcommands byte-identical across repeated seeded "
        f"runs, {elapsed:.1f}s"
    )
    assert not unstable, f"non-deterministic or failing subcommands: {unstable}"


# -- criterion 9: estimation at orders 5 and 6 --------------------------------


def test_criterion_9_estimation_at_orders_five_and_six(chain2, capsys, tmp_path):
    """Sample cumulants at orders 5 and 6 sit within five standard errors of
    the model tensors, the spread measured over 20 simulations of 200,000
    rows.  And a hidden common cause of five variables shows in data: on a
    hyperedge over 1..5 and on the same vertices without edges, simulate,
    estimate --order 5 and the bootstrap flag on sides 1;2;3;4;5 separate
    the two in at least 6 of 8 seeded pairs of 100,000 rows, beside the
    oracle's verdicts, and the sample kappa(1..5) sits within five standard
    errors of the model value, the spread measured over the 8 seeds."""
    t0 = time.perf_counter()
    spec = NoiseSpec({1: ("exponential", 1), 2: ("uniform", 1)})
    population = population_instance(chain2, {(1, 2): Fraction(1, 2)}, spec, 6)
    worst_z = 0.0
    for k in (5, 6):
        model = [float(m) for m in model_cumulant(chain2, population, k).entries]
        samples = [
            sample_cumulant(simulate_lsem(chain2, {(1, 2): 0.5}, spec, 200_000, MASTER_SEED + rep), k)
            for rep in range(20)
        ]
        for m, values in zip(model, zip(*(s.entries for s in samples))):
            worst_z = max(worst_z, abs(statistics.fmean(values) - m) / _standard_error(values))

    vertices = [1, 2, 3, 4, 5]
    graphs = {
        "hyperedge": MixedGraph(vertices=tuple(vertices), multidirected_edges=(tuple(vertices),)),
        "none": MixedGraph(vertices=tuple(vertices)),
    }
    # canonical_dag names the hyperedge's latent source 6
    models = {
        "hyperedge": {"lambda": {f"6->{v}": 1 for v in vertices},
                      "noise": {str(v): ["exponential", 1] for v in vertices + [6]}},
        "none": {"lambda": {}, "noise": {str(v): ["exponential", 1] for v in vertices}},
    }
    sets = ";".join(map(str, vertices))
    entry = sum(v * 5 ** (4 - v) for v in range(5))  # row-major position of (1, 2, 3, 4, 5)

    def cli(*argv):
        assert run(list(map(str, argv))) != EXIT_ERROR
        return json.loads(capsys.readouterr().out)

    verdicts, kappas, flags = {}, {}, {}
    for name, g in graphs.items():
        graph_path, model_path = tmp_path / f"{name}.json", tmp_path / f"{name}-model.json"
        graph_path.write_text(serialize_graph(g))
        model_path.write_text(json.dumps(models[name]))
        verdicts[name] = cli("check", "--graph", graph_path, "--sets", sets, "--seed", 1)["verdict"]
        lifted = canonical_dag(g).dag
        lam = {edge: 1 for edge in lifted.directed_edges}
        noise = NoiseSpec({v: ("exponential", 1) for v in lifted.vertices})
        model = model_cumulant(lifted, population_instance(lifted, lam, noise, 5), 5).at((0, 1, 2, 3, 4))
        kappas[name], flags[name] = [], []
        for rep in range(8):
            data = tmp_path / f"{name}-{rep}.mtrk"
            cli("simulate", "--graph", graph_path, "--model", model_path,
                "--n", 100_000, "--seed", MASTER_SEED + rep, "--out", data)
            kappas[name].append(cli("estimate", "--data", data, "--order", 5)["entries"][entry])
            flags[name].append(cli("estimate", "--data", data, "--order", 5, "--sets", sets,
                                   "--boot", 25, "--seed", MASTER_SEED + 50_000 + rep)["flag"])
        kappas[name] = (model, statistics.fmean(kappas[name]), _standard_error(kappas[name]))
    separated = sum(not h and e for h, e in zip(flags["hyperedge"], flags["none"]))
    kappa_z = max(abs(mean - model) / se for model, mean, se in kappas.values())
    elapsed = time.perf_counter() - t0
    expected = {"hyperedge": NOT_VANISHES, "none": VANISHES}
    ok = worst_z <= 5 and kappa_z <= 5 and separated >= 6 and verdicts == expected
    record_acceptance(
        f"criterion 9: {'PASS' if ok else 'FAIL'} — orders 5-6 worst gap {worst_z:.2f} "
        f"standard errors (<= 5) over 20 x 200,000 rows; k = 5 hidden cause: "
        f"kappa(1..5) {kappas['hyperedge'][1]:.1f} (model {kappas['hyperedge'][0]}) with the "
        f"hyperedge, {kappas['none'][1]:.4f} (model 0) without, flag separation "
        f"{separated}/8 (>= 6), oracle {verdicts['hyperedge']}/{verdicts['none']}, {elapsed:.1f}s"
    )
    assert worst_z <= 5, f"orders 5-6 sample-vs-model gap of {worst_z} standard errors"
    assert kappa_z <= 5, f"kappa(1..5) off its model value by {kappa_z} standard errors"
    assert separated >= 6, f"only {separated}/8 seeded pairs separated"
    assert verdicts == expected


def _standard_error(values) -> float:
    return statistics.stdev(values) / len(values) ** 0.5
