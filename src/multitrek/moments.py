"""Moment tensors and split-treks.

Moments come from cumulants by the moment-cumulant formula for a
centered vector, a sum over the set partitions of the positions
(_partitions), taken by the cumulant module's one partition kernel
(_partition_value).  Full moment tensors, single entries and subtensor
determinants take it inside the entry plan (_EntryPlan) over the
cumulant values the plan reads; moments_from_cumulants takes it over
given cumulant tensors, and a noise component's moments over its
cumulants.  The scan builds one determinant plan per case and per
lower-order side group and evaluates it at each seed without building
an instance.  The noise moments of independent components are products of
per-vertex moments, nonzero only when no vertex appears exactly once.
The trek notion that matches this support is the *split-trek*: k paths
into the given sinks whose every source is shared by at least two of
them (a single common source is the special case).  Split-treks fill
the same TrekSystem, verifier, search result and signed expansion as
k-treks.

At k = 3 moments equal cumulants: a found split-trek system certifies a
nonzero determinant, and the converse fails only on the rare side-1
configurations that check_moment_theorem_k3 reports.  At k >= 4 the
analogous "only if" direction is open; scan_conjecture samples random DAGs and reports
any disagreement instead of asserting it away.

DAGs only: graphs with multidirected edges should be lifted with
canonical_dag first, since the hidden-variable moments are exactly the
moments of the lifted model with latent columns ignored.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import BudgetExceeded, InternalInconsistency, MissingOrder
from .graphs import MixedGraph, serialize_graph
from .polynomial import Poly
from .ser import canonical_json, frac_from_str
from .tensors import Tensor, signed_permutations, symmetric_tensor
from .treks import (
    DEFAULT_BUDGET,
    DirectedPath,
    Trek,
    TrekSearchResult,
    _paths_into,
    _reaching,
    _verify_system,
    checked_sides,
    exists_disjoint_path_system,
    make_trek_system,
    repeated_side,
    signed_system_sum,
)
from .cumulants import (
    ModelInstance,
    _DeterminantPlan,
    _model_tensor,
    _partition_value,
    _partitions,
    _times_path_weights,
    noise_entry,
    symbolic_instance,
)


# -- moment/cumulant duality -------------------------------------------------


def moments_from_cumulants(cumulants: Mapping[int, Tensor]) -> dict[int, Tensor]:
    """Moment tensors from cumulant tensors of a centered vector, per order."""
    orders = sorted(int(o) for o in cumulants)
    if not orders:
        raise ValueError("no cumulant tensors given")
    tensors = {int(o): t for o, t in cumulants.items()}
    first = tensors[orders[0]]
    p = first.dims[0]
    kind = first.scalar
    for o in orders:
        t = tensors[o]
        if o < 2:
            raise ValueError("cumulant orders must be >= 2")
        if t.order != o or t.dims != tuple([p] * o):
            raise ValueError(f"tensor at order {o} must have dims {[p] * o}")
        if t.scalar != kind:
            raise ValueError("mixed scalar kinds in the cumulant family")
        if t != symmetric_tensor(p, o, t.at, kind):
            raise ValueError(f"cumulant tensor at order {o} is not symmetric")

    def moment(key: tuple[int, ...]) -> object:
        def cumulant(block: tuple[int, ...]) -> object:
            size = len(block)
            if size not in tensors:
                raise MissingOrder(f"partition block of size {size} needs the order-{size} cumulant tensor")
            return tensors[size].at(tuple(key[x] for x in block))

        return _partition_value(_partitions(len(key)), cumulant)

    return {o: symmetric_tensor(p, o, moment, kind) for o in orders}


def _vertex_moment(inst: ModelInstance, v: int, mult: int, memo: dict) -> object:
    """Central moment of one noise component from its cumulants (exact duality)."""
    key = (v, mult)
    if key not in memo:
        memo[key] = _partition_value(
            _partitions(mult), lambda block: noise_entry(inst, len(block), (v,) * len(block))
        )
    return memo[key]


def _require_dag(g: MixedGraph) -> None:
    if g.multidirected_edges:
        raise ValueError(
            "moment semantics is defined over DAGs; lift hidden variables with canonical_dag first"
        )


def model_moment(g: MixedGraph, inst: ModelInstance, order: int) -> Tensor:
    """Order-k moment tensor of the observed vector; exact and symmetric.

    One moment plan over every sorted key: each entry is the partition
    sum over cumulant values at just the block orders that occur: k, and
    2..k-2 (the rest of the positions must split into blocks of size
    >= 2), so order 4 needs orders 2 and 4.
    """
    _require_dag(g)
    return _model_tensor(g, inst, order, moments=True)


def moment_entry(g: MixedGraph, inst: ModelInstance, indices: Sequence[int]) -> object:
    """Single moment entry (vertex ids): a moment plan over singleton sides."""
    _require_dag(g)
    return _DeterminantPlan(g, [(v,) for v in indices], moments=True).at(inst)


def moment_subtensor_determinant(
    g: MixedGraph, inst: ModelInstance, sides: Sequence[Sequence[int]]
) -> object:
    """det of the moment subtensor at the instance, by one moment plan."""
    _require_dag(g)
    return _DeterminantPlan(g, sides, moments=True).at(inst)


# -- split-treks -------------------------------------------------------------


@dataclass(frozen=True)
class SplitTrek(Trek):
    """k directed paths into given sinks, every source shared by >= 2 of them.

    top_partition groups path positions by their common source, sorted
    by source vertex; a single group of size k is the common-source
    special case.
    """

    top_partition: tuple[tuple[int, tuple[int, ...]], ...]

    def __post_init__(self) -> None:
        covered: list[int] = []
        for source, positions in self.top_partition:
            if len(positions) < 2:
                raise ValueError(f"source {source} is shared by fewer than two paths")
            for pos in positions:
                if self.paths[pos].source != source:
                    raise ValueError(f"path {pos} does not start at its group source {source}")
            covered.extend(positions)
        if sorted(covered) != list(range(len(self.paths))):
            raise ValueError("top partition must cover the path positions exactly once")
        sources = [s for s, _ in self.top_partition]
        if sources != sorted(set(sources)):
            raise ValueError("groups must have distinct sources in increasing order")


def split_trek_from_paths(paths: Sequence[DirectedPath]) -> SplitTrek:
    """Group the paths by source; fails if some source is not shared."""
    groups: dict[int, list[int]] = {}
    for pos, path in enumerate(paths):
        groups.setdefault(path.source, []).append(pos)
    partition = tuple(
        (source, tuple(positions)) for source, positions in sorted(groups.items())
    )
    return SplitTrek(paths=tuple(paths), top_partition=partition)


def enumerate_split_treks(
    g: MixedGraph, sinks: Sequence[int], budget: int = DEFAULT_BUDGET
) -> list[SplitTrek]:
    """All split-treks into the ordered sinks, lexicographic by path tuples.

    Exhausts every combination of one incoming path per sink and keeps
    the ones whose source multiset has no singleton.  The budget counts
    candidate combinations, valid or not.
    """
    _require_dag(g)
    k = len(sinks)
    if k < 2:
        raise ValueError("a split-trek needs k >= 2 sinks")
    vset = set(g.vertices)
    if any(s not in vset for s in sinks):
        raise ValueError(f"sinks {tuple(sinks)} must belong to the graph")
    return _split_treks(sinks, [_paths_into(g, s, budget) for s in sinks], budget)


def _split_treks(
    sinks: Sequence[int], pools: Sequence[Sequence[DirectedPath]], budget: int
) -> list[SplitTrek]:
    """The split-treks among the combinations of one path from each pool,
    pool i holding every path into sinks[i] in lexicographic order."""
    out: list[SplitTrek] = []
    count = 0
    for combo in itertools.product(*pools):
        count += 1
        if count > budget:
            raise BudgetExceeded(f"split-trek candidates into {tuple(sinks)}", budget)
        counts = Counter(p.source for p in combo)
        if any(c == 1 for c in counts.values()):
            continue
        out.append(split_trek_from_paths(combo))
    return out


def exists_split_trek_system_no_sided_intersection(
    g: MixedGraph, sides: Sequence[Sequence[int]], budget: int = DEFAULT_BUDGET
) -> TrekSearchResult:
    """Search for an intersection-free system of split-treks between the sides.

    In an intersection-free system the n side-i sources are distinct
    and the side-i paths are vertex-disjoint, so candidates decompose
    per side: an n-subset of possible sources (a *column*) plus a
    disjoint path system onto S_i, found by max flow and memoized per
    column.  What remains is pairing columns row-wise so every trek's
    source multiset is singleton-free; rows are matched by brute force
    over per-side bijections with side 1 fixed.  Any existing system
    induces such columns and bijections, so the search is exhaustive.
    The result carries no obstruction log.
    """
    _require_dag(g)
    side_lists = checked_sides(g.vertices, sides)
    repeat = repeated_side(side_lists, open_first_side=False)
    if repeat is not None:
        raise ValueError(f"side {repeat} repeats a vertex")
    n = len(side_lists[0])
    k = len(side_lists)

    flow = functools.cache(
        lambda i, columns: exists_disjoint_path_system(g, columns, side_lists[i])
    )
    count = 0
    column_choices = [
        list(itertools.combinations(sorted(_reaching(g, side)), n))
        for side in side_lists
    ]
    perms, _ = signed_permutations(n)
    for cols in itertools.product(*column_choices):
        count += 1
        if count > budget:
            raise BudgetExceeded("split-system column candidates", budget)
        per_side = []
        for i in range(k):
            got = flow(i, cols[i])
            if got is None:
                break
            per_side.append(got)
        if len(per_side) < k:
            continue
        chosen = None
        for betas in itertools.product(perms, repeat=k - 1):
            count += 1
            if count > budget:
                raise BudgetExceeded("split-system column candidates", budget)
            ok = True
            for x in range(n):
                row = [cols[0][x]] + [cols[i + 1][betas[i][x]] for i in range(k - 1)]
                if any(c == 1 for c in Counter(row).values()):
                    ok = False
                    break
            if ok:
                chosen = betas
                break
        if chosen is None:
            continue
        treks = []
        for x in range(n):
            paths = [per_side[0][x]] + [
                per_side[i + 1][chosen[i][x]] for i in range(k - 1)
            ]
            treks.append(split_trek_from_paths(paths))
        treks.sort(key=lambda trek: side_lists[0].index(trek.paths[0].sink))
        system = make_trek_system(treks, side_lists)
        _verify_system(g, system, open_first_side=False)
        return TrekSearchResult(system=system)
    return TrekSearchResult(system=None)


# -- split-trek expansion of the moment determinant --------------------------


def split_trek_monomial(inst: ModelInstance, trek: SplitTrek, _memo: dict | None = None) -> object:
    """The noise moment at the trek's sources-with-multiplicity times its path weights."""
    if _memo is None:
        _memo = {}
    term = 1
    for source, positions in trek.top_partition:
        term = term * _vertex_moment(inst, source, len(positions), _memo)
        if not term:
            return 0
    return _times_path_weights(inst, term, trek.paths)


def det_by_split_trek_systems(
    g: MixedGraph,
    inst: ModelInstance,
    sides: Sequence[Sequence[int]],
    budget: int = DEFAULT_BUDGET,
) -> object:
    """Moment subtensor determinant as a signed sum over split-trek systems.

    Exact at every order; see signed_system_sum.
    """
    _require_dag(g)
    mu_memo: dict = {}
    paths_into = functools.cache(lambda sink: _paths_into(g, sink, budget))
    return signed_system_sum(
        checked_sides(g.vertices, sides),
        lambda sinks: _split_treks(sinks, [paths_into(s) for s in sinks], budget),
        lambda trek: split_trek_monomial(inst, trek, mu_memo),
        budget,
    )


# -- the k=3 theorem and the k>=4 scan ---------------------------------------


def check_moment_theorem_k3(
    g: MixedGraph,
    inst: ModelInstance,
    sides: Sequence[Sequence[int]],
    budget: int = DEFAULT_BUDGET,
) -> bool:
    """Probe the order-3 equivalence between split-treks and moment vanishing.

    Returns whether "the determinant at the instance is zero" agrees
    with "no intersection-free split-trek system exists".  Agreement
    holds on most configurations, and a found system does certify a
    generically nonzero determinant.  The converse direction genuinely
    fails on rare side configurations: at odd orders a system whose
    treks meet only on side 1 keeps its sign under the tail swap, so
    such systems need not cancel out of the determinant even though
    the intersection-free search comes up empty.  A False return on a
    generic instance exhibits exactly that blind spot (the test suite
    pins a five-vertex witness).
    """
    side_lists = [tuple(s) for s in sides]
    if len(side_lists) != 3:
        raise ValueError("this check is specific to three sides")
    det = moment_subtensor_determinant(g, inst, side_lists)
    absent = not exists_split_trek_system_no_sided_intersection(g, side_lists, budget).found
    return bool(not det) == absent


@dataclass(frozen=True)
class ConjectureReport:
    """Outcome of a randomized scan of the split-trek vanishing criterion.

    agreements + disagreements always account for every case; the
    lower_order fields track the factorization property (a vanishing
    order-k determinant forces a vanishing determinant on one part of
    every two-block split of the sides into orders h and k-h).
    """

    cases_scanned: int
    agreements: int
    disagreements: tuple[dict, ...]
    lower_order_checked: int
    lower_order_violations: tuple[dict, ...]

    def __post_init__(self) -> None:
        if self.agreements + len(self.disagreements) != self.cases_scanned:
            raise InternalInconsistency("scan bookkeeping does not add up")

    def to_doc(self) -> dict:
        return {
            "cases_scanned": self.cases_scanned,
            "agreements": self.agreements,
            "disagreements": list(self.disagreements),
            "lower_order_checked": self.lower_order_checked,
            "lower_order_violations": list(self.lower_order_violations),
        }

    def to_json(self) -> str:
        return canonical_json(self.to_doc())


def _ensemble_number(ensemble: Mapping, key: str, default: int | Fraction) -> Fraction:
    """ensemble[key] (or the default) as a Fraction: a finite number or an "a/b" string."""
    value = ensemble.get(key, default)
    if isinstance(value, str):
        return frac_from_str(value, f"/{key}")
    if isinstance(value, bool) or not isinstance(value, (int, float, Fraction)) or not math.isfinite(value):
        raise ValueError(f"ensemble {key} must be a number, got {value!r}")
    return Fraction(value)


def _ensemble_count(ensemble: Mapping, key: str, default: int) -> int:
    """ensemble[key] (or the default) as an int; 3, 3.0 and "3" pass, 4.5 and "3/2" do not."""
    value = _ensemble_number(ensemble, key, default)
    if value.denominator != 1:
        raise ValueError(f"ensemble {key} must be a whole number, got {ensemble[key]!r}")
    return int(value)


def _ensemble_params(ensemble: Mapping, k: int) -> tuple[int, Fraction, int, int]:
    if not isinstance(ensemble, Mapping):
        raise ValueError("the ensemble must be a JSON object")
    known = {"max_vertices", "edge_prob", "cases", "k", "set_size"}
    unknown = set(ensemble) - known
    if unknown:
        raise ValueError(f"unknown ensemble keys {sorted(unknown)}")
    max_vertices = _ensemble_count(ensemble, "max_vertices", 6)
    cases = _ensemble_count(ensemble, "cases", 100)
    set_size = _ensemble_count(ensemble, "set_size", 1)
    prob = _ensemble_number(ensemble, "edge_prob", Fraction(1, 2))
    if _ensemble_count(ensemble, "k", k) != k:
        raise ValueError(f"ensemble says k={ensemble['k']} but the scan was asked for k={k}")
    if max_vertices < 2 or cases < 1 or set_size < 1 or set_size > max_vertices:
        raise ValueError("ensemble parameters out of range")
    if not 0 <= prob <= 1:
        raise ValueError("edge_prob must lie in [0, 1]")
    return max_vertices, prob, cases, set_size


def scan_conjecture(
    k: int,
    ensemble: Mapping,
    seed: int,
    trials: int = 5,
    budget: int = DEFAULT_BUDGET,
) -> ConjectureReport:
    """Randomized agreement scan between det N^(k) and the split-trek criterion.

    Per case: sample a DAG and k sides, decide combinatorially, then
    evaluate the determinant exactly at `trials` random instances.
    Combinatorial absence with a nonzero determinant is recorded as an
    "if" disagreement: at even orders no such case has ever been
    observed (the side-1 cancellation argument covers them), while at
    odd orders such cases provably exist, so an "if" record from an
    odd-order scan documents the known blind spot rather than a bug.
    The converse pattern gets an automatic symbolic recheck and is
    recorded as an "only-if" disagreement just when the determinant
    really is the zero polynomial (this direction is open, so such
    cases are reported, never raised).  Cases with all-zero
    determinants also get the lower-order factorization checks.
    """
    if k < 4:
        raise ValueError("the scan targets k >= 4; k = 3 is settled exactly")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    max_vertices, prob, cases, set_size = _ensemble_params(ensemble, k)
    rng = random.Random(seed)
    agreements = 0
    disagreements: list[dict] = []
    lower_checked = 0
    lower_violations: list[dict] = []
    for case in range(cases):
        m = rng.randint(max(2, set_size), max_vertices)
        vertices = tuple(range(1, m + 1))
        edges = tuple(
            (a, b)
            for a, b in itertools.combinations(vertices, 2)
            if rng.random() < prob
        )
        g = MixedGraph(vertices=vertices, directed_edges=edges)
        sides = [tuple(sorted(rng.sample(vertices, set_size))) for _ in range(k)]
        base = rng.getrandbits(32)

        absent = not exists_split_trek_system_no_sided_intersection(g, sides, budget).found
        seeds = [base + t for t in range(trials)]
        plan = _DeterminantPlan(g, sides, moments=True)
        dets = [plan.at_seed(s) for s in seeds]
        all_zero = all(not d for d in dets)

        record = {
            "case": case,
            "graph": serialize_graph(g),
            "sides": [list(s) for s in sides],
            "combinatorial_absent": absent,
            "algebraic_zero": all_zero,
            "instance_seeds": seeds,
        }
        if absent == all_zero:
            agreements += 1
        elif absent:
            record["direction"] = "if"
            disagreements.append(record)
        else:
            sym = plan.at(symbolic_instance(g, k))
            really_zero = not (isinstance(sym, Poly) and sym)
            if really_zero:
                record["direction"] = "only-if"
                record["certain_recheck_zero"] = True
                disagreements.append(record)
            else:
                agreements += 1  # randomized fluke, resolved by the symbolic recheck

        if all_zero:
            for h in range(2, k - 1):
                if k - h < h:
                    break
                for group in itertools.combinations(range(k), h):
                    if k - h == h and 0 not in group:
                        continue
                    rest = tuple(i for i in range(k) if i not in group)
                    lower_checked += 1
                    # An order-h plan's draws are a prefix of the order-k instance's.
                    h_plan = _DeterminantPlan(g, [sides[i] for i in group], moments=True)
                    rest_plan = _DeterminantPlan(g, [sides[i] for i in rest], moments=True)
                    h_zero = all(not h_plan.at_seed(s) for s in seeds)
                    rest_zero = all(not rest_plan.at_seed(s) for s in seeds)
                    if not h_zero and not rest_zero:
                        lower_violations.append(
                            {
                                "case": case,
                                "graph": serialize_graph(g),
                                "sides": [list(s) for s in sides],
                                "group_1": list(group),
                                "group_2": list(rest),
                                "instance_seeds": seeds,
                            }
                        )
    return ConjectureReport(
        cases_scanned=cases,
        agreements=agreements,
        disagreements=tuple(disagreements),
        lower_order_checked=lower_checked,
        lower_order_violations=tuple(lower_violations),
    )
