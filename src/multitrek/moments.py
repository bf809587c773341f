"""Moment tensors and split-treks.

Moments come from cumulants by the moment-cumulant formula for a
centered vector, a sum over the set partitions of the positions
(_partitions), taken by the cumulant module's one partition kernel
(_partition_value).  Full moment tensors, single entries and subtensor
determinants take it inside the entry plan (_EntryPlan) over the
cumulant values the plan reads; moments_from_cumulants takes it over
given cumulant tensors, and a noise component's moments over its
cumulants.  The scan builds one determinant plan per case and
evaluates it at each seed without building an instance; the
lower-order parts of a case read that plan's cumulant values.  The
noise moments of independent components are products of
per-vertex moments, nonzero only when no vertex appears exactly once.
The trek notion that matches this support is the *split-trek*: k paths
into the given sinks whose every source is shared by at least two of
them (a single common source is the special case).  Split-treks fill
the same TrekSystem, verifier, search result and signed expansion as
k-treks.  The intersection-free system search picks a column of
sources per side, depth first, and prunes a prefix by the row states
it can reach: a row with more unshared sources than sides remain can
never be completed.

At k = 3 moments equal cumulants: a found split-trek system certifies a
nonzero determinant, and the converse fails only on the rare side-1
configurations that check_moment_theorem_k3 reports.  At k >= 4 the
analogous "only if" direction is open; scan_conjecture samples random DAGs and reports
any disagreement instead of asserting it away.  A case's trials stop at
its first nonzero determinant.

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
from typing import Iterator, Mapping, Sequence

from .errors import InternalInconsistency, MissingOrder
from .graphs import MixedGraph, serialize_graph
from .polynomial import Poly
from .ser import canonical_json, checked_seed, frac_from_str, in_float_range, strict_int
from .tensors import Tensor, signed_permutations, symmetric_tensor
from .treks import (
    DEFAULT_BUDGET,
    DirectedPath,
    Trek,
    TrekSearchResult,
    _Cap,
    _checked_ids,
    _paths_into,
    _reaching,
    _SplitGraph,
    _verify_system,
    checked_sides,
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
    if len(sinks) < 2:
        raise ValueError("a split-trek needs k >= 2 sinks")
    _checked_ids(set(g.vertices), tuple(sinks), "sink tuple")
    return _split_treks(sinks, [_paths_into(g, s, budget) for s in sinks], budget)


def _split_treks(
    sinks: Sequence[int], pools: Sequence[Sequence[DirectedPath]], budget: int
) -> list[SplitTrek]:
    """The split-treks among the combinations of one path from each pool,
    pool i holding every path into sinks[i] in lexicographic order."""
    cap = _Cap(budget, f"split-trek candidates into {tuple(sinks)}")
    return [
        split_trek_from_paths(combo)
        for combo in cap(itertools.product(*pools))
        if 1 not in Counter(p.source for p in combo).values()
    ]


@functools.lru_cache(maxsize=1 << 16)
def _next_row_states(state: tuple, col: tuple[int, ...], left: int) -> frozenset:
    """The row states that the bijections of col onto the rows of state
    reach with at most ``left`` singleton sources in every row.

    A row is a sorted source multiset that keeps each source at most
    twice, since a third copy pairs off nothing; a state lists its rows
    sorted.
    """
    reached = set()
    for b in signed_permutations(len(col))[0]:
        rows = sorted(
            row if row.count(v) > 1 else tuple(sorted(row + (v,)))
            for row, v in zip(state, (col[x] for x in b))
        )
        if all(sum(row.count(v) == 1 for v in row) <= left for row in rows):
            reached.add(tuple(rows))
    return frozenset(reached)


def exists_split_trek_system_no_sided_intersection(
    g: MixedGraph, sides: Sequence[Sequence[int]], budget: int = DEFAULT_BUDGET
) -> TrekSearchResult:
    """Search for an intersection-free system of split-treks between the sides.

    In an intersection-free system the n side-i sources are distinct
    and the side-i paths are vertex-disjoint, so candidates decompose
    per side: an n-subset of possible sources (a *column*) plus a
    disjoint path system onto S_i, found by max flow on one split graph
    per search (treks._SplitGraph) and memoized per side and column;
    only the flows of the chosen columns are walked into paths.
    What remains is pairing columns row-wise so every trek's source
    multiset is singleton-free.  Any existing system
    induces such columns and per-side bijections, so the search is
    exhaustive.

    The columns are chosen depth first over the sides, each side's in
    lexicographic order.  The search carries the reachable row states:
    the rows' source multisets under some per-side bijection, side 1
    fixed, each source kept at most twice (a third copy pairs off
    nothing) and the rows sorted (every later side tries every
    bijection, so row order is immaterial).  A state dies when one of
    its rows has more singleton sources than sides remain, for each
    later side adds one source per row and so pairs off at most one
    singleton.  A column is dropped, before its flow runs, when it
    leaves no live state, and then when its side has no disjoint path
    system.  A blocked prefix rules out every completion, so the first
    column tuple to survive is the first one, in the order of the
    product of the sides' columns, with a path system on every side and
    a singleton-free bijection; the first such bijection, side 1 fixed,
    then gives the treks.

    The budget counts each dropped column, the found tuple and each
    bijection tried on it.  A dropped column stands for at least one
    tuple of that product, so the search draws no more than the product
    has tuples up to the one it finds.  A side with no column ends the
    search at once.  The result carries no obstruction log.
    """
    _require_dag(g)
    side_lists = checked_sides(g.vertices, sides)
    repeat = repeated_side(side_lists, open_first_side=False)
    if repeat is not None:
        raise ValueError(f"side {repeat} repeats a vertex")
    n, k = len(side_lists[0]), len(side_lists)
    cap = _Cap(budget, "split-system column candidates")
    reaching = [sorted(_reaching(g, side)) for side in side_lists]
    column_choices = [list(itertools.combinations(sources, n)) for sources in reaching]
    if not all(column_choices):
        return TrekSearchResult(system=None)
    split = _SplitGraph(g, itertools.chain(*reaching), itertools.chain(*side_lists))
    flow = functools.cache(lambda side, columns: split.linked(columns, side, 1))
    perms, _ = signed_permutations(n)

    def walk(i: int, states: frozenset, prefix: tuple) -> Iterator[tuple | None]:
        """None for each column dropped below the prefix, then the first
        surviving column tuple, if any."""
        left = k - 1 - i
        for col in column_choices[i]:
            live = frozenset().union(*(_next_row_states(state, col, left) for state in states))
            if not live or not flow(side_lists[i], col):
                yield None
            elif left:
                yield from walk(i + 1, live, prefix + (col,))
            else:
                yield prefix + (col,)

    start = frozenset({((),) * n})
    cols = next((cols for cols in cap(walk(0, start, ())) if cols is not None), None)
    if cols is None:
        return TrekSearchResult(system=None)
    # The first per-side bijections, side 1 fixed (perms[0] is the
    # identity), under which every row's source multiset is singleton-free.
    chosen = next(
        bijections for bijections in cap(itertools.product(perms[:1], *[perms] * (k - 1)))
        if all(
            1 not in Counter(col[b[x]] for col, b in zip(cols, bijections)).values()
            for x in range(n)
        )
    )
    paths = [split.walk(col, flow(side, col)) for side, col in zip(side_lists, cols)]
    treks = [split_trek_from_paths([p[b[x]] for p, b in zip(paths, chosen)]) for x in range(n)]
    treks.sort(key=lambda trek: side_lists[0].index(trek.paths[0].sink))
    system = make_trek_system(treks, side_lists)
    _verify_system(g, system, open_first_side=False)
    return TrekSearchResult(system=system)


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
    absent = not exists_split_trek_system_no_sided_intersection(g, side_lists, budget).found
    det = moment_subtensor_determinant(g, inst, side_lists)
    return bool(not det) == absent


@dataclass(frozen=True)
class ConjectureReport:
    """Outcome of a randomized scan of the split-trek vanishing criterion.

    agreements + disagreements always account for every case; the
    lower_order fields test the factorization conjecture (a vanishing
    order-k determinant forces a vanishing determinant on one part of
    every two-block split of the sides into orders h and k-h).  It is
    false at k = 5: the order-5 scan of {"cases":5,"k":5,"max_vertices":6,
    "set_size":2} at seed 53 records 2 -> 3 -> 4 with sides (1,2), (3,4),
    (2,3), (1,2), (2,4), whose order-5 moment determinant is the zero
    polynomial at symbolic_instance(g, 5) while the parts (0, 3) and
    (1, 2, 4) are nonzero polynomials.  A lower-order record still rests
    on the randomized trials only, with no symbolic recheck.
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
    """ensemble[key] (or the default) as a Fraction: a finite number or an "a/b" string that fits a float."""
    value = ensemble.get(key, default)
    if isinstance(value, str):
        value = frac_from_str(value, f"/{key}")
    numeric = isinstance(value, (int, float, Fraction)) and not isinstance(value, bool)
    if not numeric or not math.isfinite(in_float_range(value, f"/{key}")):
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


def _edge_threshold(prob: Fraction) -> float:
    """The float t with random() < t exactly when random() < prob, for prob in [0, 1].

    random() returns m / 2**53 for an integer m, and m < prob * 2**53
    exactly when m < ceil(prob * 2**53), an integer <= 2**53 that a float
    holds exactly; comparing with t spares a Fraction comparison per draw.
    """
    return math.ldexp(math.ceil(prob * 2**53), -53)


def scan_conjecture(
    k: int,
    ensemble: Mapping,
    seed: int,
    trials: int = 5,
    budget: int = DEFAULT_BUDGET,
) -> ConjectureReport:
    """Randomized agreement scan between det N^(k) and the split-trek criterion.

    Per case: sample a DAG and k sides, decide combinatorially, then
    evaluate the determinant exactly at up to `trials` random instances,
    stopping at the first nonzero one, which settles that the
    determinant is not all zero; the record still names every seed.
    Combinatorial absence with a nonzero determinant is recorded as an
    "if" disagreement: at even orders no such case has ever been
    observed (the side-1 cancellation argument covers them), while at
    odd orders such cases provably exist, so an "if" record from an
    odd-order scan documents the known blind spot rather than a bug.
    The converse pattern gets an automatic symbolic recheck and is
    recorded as an "only-if" disagreement just when the determinant
    really is the zero polynomial (this direction is open, so such
    cases are reported, never raised).  Cases with all-zero
    determinants also get the lower-order factorization checks: for h in
    2..k // 2, every split of the sides into groups of h and k - h (side
    1 in the first group when the two are equal).  The case's plan is the
    only one built: it keeps each seed's cumulant values while the case
    stays all zero, and each part of a split takes its determinant from
    them (_DeterminantPlan.part_determinant), with no plan of its own and
    no seed drawn again.  A case's provenance (case, graph, sides,
    instance_seeds) is built with its first record and shared by its
    disagreement record and its violation records; agreements counts the
    cases without a disagreement record.  A seed, budget or trials that
    is no int, bools included, is refused with a ValueError naming it,
    and so is a negative seed or budget (ser.checked_seed).
    """
    if k < 4:
        raise ValueError("the scan targets k >= 4; k = 3 is settled exactly")
    checked_seed(seed)
    checked_seed(budget, "budget")
    if strict_int(trials, "trials") < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    max_vertices, prob, cases, set_size = _ensemble_params(ensemble, k)
    threshold = _edge_threshold(prob)
    rng = random.Random(seed)
    disagreements: list[dict] = []
    lower_checked = 0
    lower_violations: list[dict] = []
    for case in range(cases):
        m = rng.randint(max(2, set_size), max_vertices)
        vertices = tuple(range(1, m + 1))
        edges = tuple(
            (a, b)
            for a, b in itertools.combinations(vertices, 2)
            if rng.random() < threshold
        )
        g = MixedGraph(vertices=vertices, directed_edges=edges)
        sides = [tuple(sorted(rng.sample(vertices, set_size))) for _ in range(k)]
        base = rng.getrandbits(32)

        absent = not exists_split_trek_system_no_sided_intersection(g, sides, budget).found
        seeds = [base + t for t in range(trials)]
        plan = _DeterminantPlan(g, sides, moments=True)
        kept = []  # each seed's cumulant values, while every determinant is zero
        for s in seeds:
            values = plan.cumulants_at_seed(s)
            if plan.determinant(values):
                break
            kept.append(values)
        all_zero = len(kept) == trials
        provenance = functools.cache(lambda: {
            "case": case,
            "graph": serialize_graph(g),
            "sides": [list(s) for s in sides],
            "instance_seeds": seeds,
        })
        if absent != all_zero:
            record = {**provenance(), "combinatorial_absent": absent, "algebraic_zero": all_zero}
            if absent:
                disagreements.append({**record, "direction": "if"})
            else:
                sym = plan.at(symbolic_instance(g, k))
                if not (isinstance(sym, Poly) and sym):  # else a fluke the recheck resolves
                    disagreements.append(
                        {**record, "direction": "only-if", "certain_recheck_zero": True}
                    )

        if all_zero:
            for h in range(2, k // 2 + 1):
                for group in itertools.combinations(range(k), h):
                    if k - h == h and 0 not in group:
                        continue
                    rest = tuple(i for i in range(k) if i not in group)
                    lower_checked += 1
                    # A violation needs both parts nonzero, so a zero h part ends the check.
                    if all(not plan.part_determinant(group, values) for values in kept):
                        continue
                    if any(plan.part_determinant(rest, values) for values in kept):
                        lower_violations.append(
                            {**provenance(), "group_1": list(group), "group_2": list(rest)}
                        )
    return ConjectureReport(
        cases_scanned=cases,
        agreements=cases - len(disagreements),
        disagreements=tuple(disagreements),
        lower_order_checked=lower_checked,
        lower_order_violations=tuple(lower_violations),
    )
