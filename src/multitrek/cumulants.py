"""Parametrized cumulant tensors of a linear structural equation model.

An instance assigns a rational weight to every directed edge and noise
cumulants per order: diagonal values per vertex, plus (for mixed
graphs) entries on index multisets supported by a hyperedge.  The
order-k cumulant tensor of the observed vector is the noise tensor
pushed through the k-fold Tucker product with (I - Lambda)^{-1}, whose
(j, i) entry is the sum of path monomials from j to i.

Rational values are stored in normal form (ser.as_rational): an
integral value is an int, any other rational a Fraction.  Generic
instances draw nonzero integers, so path sums, entries and determinants
over them stay in int arithmetic; Fraction appears only where a value
is not an integer (e.g. "3/2" in an instance file).

Everything here is ring-generic: values may be rationals or the sparse
polynomials from .polynomial, which is how the symbolic vanishing
checks reuse the same code paths.

Every parameter of an instance has one place in a layout
(_parameter_layout): edge weights first, then the noise of each order.
Generic instances draw their values in that order and symbolic
instances name theirs after it, so the draw order of a seed is fixed in
one place.  Every cumulant value, and every moment value (moments.py),
is evaluated on one entry plan (_EntryPlan) built once per graph and
set of distinct sorted entry keys: the topological sweep for the path
sums into the key vertices, the layout slot of each parameter it reads,
the noise support terms, and each key as a sum over partitions of
distinct cumulant keys.  A subtensor determinant (_DeterminantPlan)
takes the keys of its sides, a single entry is the plan over singleton
sides, and a full tensor (model_cumulant) takes every sorted key and
broadcasts it by symmetry.  Graph-only work is done once per plan;
evaluating it at an instance, or at a seed without building the
instance, does only the arithmetic.  Whether the cumulant determinant
is the zero polynomial is not decided here: on a DAG it is a question
of vertex-disjoint path systems, which the trek search answers by max
flows (treks.first_linked_top).

Each exact operation has one kernel: the plan's sweep takes every path
sum (path_matrix is the sweep with every vertex as a column),
_partition_value every partition sum (the moment module's too), and
tensors.hyperdet_from_table every determinant.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from .errors import MissingOrder, SchemaError
from .graphs import MixedGraph, validate_acyclic
from .polynomial import Poly
from .ser import (
    as_rational,
    canonical_json,
    frac_from_str,
    frac_to_str,
    read_edge,
    read_int,
    read_ints,
    read_json,
    strict_int,
)
from .tensors import DiagonalSpec, Tensor, hyperdet_from_table, orbit_table, symmetric_from_values
from .treks import DEFAULT_BUDGET, KTrek, checked_sides, enumerate_ktreks, signed_system_sum


def _coerce_scalar(x):
    """Rationals (ints, Fractions, "a/b" strings) in normal form: an int when
    integral, else a Fraction.  Other ring elements (polynomials) pass through."""
    if isinstance(x, (int, Fraction)):
        return as_rational(x)
    if isinstance(x, str):
        return as_rational(frac_from_str(x))
    return x


@dataclass(frozen=True)
class HyperedgeSpec:
    """Off-diagonal noise entries keyed by sorted index multisets.

    Keys must not be all-equal (those live in the diagonal spec); the
    tensor value at any permutation of a key is the stored value, so
    symmetry holds by construction.
    """

    entries: Mapping[tuple[int, ...], object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        clean = {}
        for key, val in self.entries.items():
            tup = tuple(sorted(strict_int(i) for i in key))
            if len(set(tup)) < 2:
                raise ValueError(f"all-equal multiset {tup} belongs in the diagonal spec")
            clean[tup] = _coerce_scalar(val)
        object.__setattr__(self, "entries", dict(sorted(clean.items())))


@dataclass(frozen=True)
class NoiseCumulants:
    """Noise cumulants of one order: diagonal part plus hyperedge part."""

    diag: DiagonalSpec
    hyper: HyperedgeSpec = field(default_factory=HyperedgeSpec)


@dataclass(frozen=True)
class ModelInstance:
    """Edge weights plus noise cumulants per order."""

    lam: Mapping[tuple[int, int], object]
    noise: Mapping[int, NoiseCumulants]

    def __post_init__(self) -> None:
        lam = {
            (strict_int(u), strict_int(v)): _coerce_scalar(x) for (u, v), x in self.lam.items()
        }
        object.__setattr__(self, "lam", dict(sorted(lam.items())))
        noise = {strict_int(k, "noise order"): v for k, v in self.noise.items()}
        object.__setattr__(self, "noise", dict(sorted(noise.items())))

    def noise_at(self, order: int) -> NoiseCumulants:
        if order not in self.noise:
            raise MissingOrder(f"no noise cumulants at order {order}")
        return self.noise[order]


def validate_instance(g: MixedGraph, inst: ModelInstance) -> None:
    """Check supports: lambda on edges, hyper keys inside some hyperedge."""
    edges = set(g.directed_edges)
    for e in inst.lam:
        if e not in edges:
            raise ValueError(f"lambda entry {e} is not a directed edge of the graph")
    vset = set(g.vertices)
    hsets = [set(h) for h in g.multidirected_edges]
    for order, nc in inst.noise.items():
        for v in nc.diag.values:
            if v not in vset:
                raise ValueError(f"diagonal noise at unknown vertex {v}")
        for key in nc.hyper.entries:
            if len(key) != order:
                raise ValueError(f"hyper key {key} has size {len(key)}, expected {order}")
            if not any(set(key) <= hs for hs in hsets):
                raise ValueError(f"hyper key {key} is not supported by any hyperedge")


# -- path matrix -----------------------------------------------------------


def path_matrix(g: MixedGraph, lam: Mapping[tuple[int, int], object]) -> list[list]:
    """(I - Lambda)^{-1} as path sums: entry (j, i) sums weight products over paths j -> i.

    The sweep of an entry plan with every vertex as a column (hyperedges
    are ignored), so no path enumeration; works for any scalar ring
    (rationals, floats, polynomials).
    """
    edges = set(g.directed_edges)
    for e in lam:
        if tuple(e) not in edges:
            raise ValueError(f"lambda entry {e} is not a directed edge of the graph")
    plan = _EntryPlan(g, 1, g.vertices, ())  # order 1 lays out the edge weights alone
    paths = plan._path_sums([lam.get(key, 0) for _, key in plan._params])
    p = len(g.vertices)
    return [paths[r * p : (r + 1) * p] for r in range(p)]


# -- trek-rule routes -------------------------------------------------------


def trek_monomial(inst: ModelInstance, trek: KTrek) -> object:
    """E at the trek's sources times the product of its path weights."""
    term = noise_entry(inst, len(trek.paths), trek.sources)
    return _times_path_weights(inst, term, trek.paths) if term else 0


def _times_path_weights(inst: ModelInstance, term: object, paths) -> object:
    """term times the edge weights along the paths."""
    for path in paths:
        for a, b in zip(path.vertices, path.vertices[1:]):
            w = inst.lam.get((a, b), 0)
            if not w:
                return 0
            term = term * w
    return term


def noise_entry(inst: ModelInstance, order: int, indices: Sequence[int]) -> object:
    """Noise tensor entry at an arbitrary index tuple (diagonal or hyperedge)."""
    nc = inst.noise_at(order)
    key = tuple(sorted(indices))
    if len(set(key)) == 1:
        return nc.diag.values.get(key[0], 0)
    return nc.hyper.entries.get(key, 0)


def cumulant_entry_by_trek_rule(
    g: MixedGraph,
    inst: ModelInstance,
    indices: Sequence[int],
    budget: int = DEFAULT_BUDGET,
) -> object:
    """Cumulant entry as a sum of monomials over all k-treks into the indices.

    Must agree with the entry plan (cumulant_entry, model_cumulant)
    exactly; that agreement is one of the package's core self-tests.
    """
    total = 0
    for trek in enumerate_ktreks(g, tuple(indices), budget):
        total = total + trek_monomial(inst, trek)
    return total


def det_by_trek_systems(
    g: MixedGraph,
    inst: ModelInstance,
    sides: Sequence[Sequence[int]],
    budget: int = DEFAULT_BUDGET,
) -> object:
    """Cumulant subtensor determinant as a signed sum over k-trek systems.

    Exact at every order; see signed_system_sum.
    """
    if g.multidirected_edges:
        # The sided-intersection-free restriction is a DAG identity; with
        # free hyperedge noise entries the skipped systems need not cancel.
        raise ValueError(
            "det_by_trek_systems needs a DAG; reduce with canonical_dag first"
        )
    return signed_system_sum(
        checked_sides(g.vertices, sides),
        lambda sinks: enumerate_ktreks(g, sinks, budget),
        lambda trek: trek_monomial(inst, trek),
        budget,
    )


# -- generic instances ------------------------------------------------------

# The "order" that marks an edge weight in a parameter layout; noise orders start at 2.
_WEIGHT = 1
VALUE_RANGE = 997  # generic instance values are nonzero ints +-1..+-VALUE_RANGE


def _parameter_layout(g: MixedGraph, k_max: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Every parameter of an instance up to order k_max as (order, key), in the
    one fixed order in which generic instances draw them.

    First the edge weights (order _WEIGHT, key (u, v)), then per order
    2..k_max the diagonal noise of every vertex (key (v,)) and the
    hyperedge noise of every admissible multiset of each hyperedge.
    """
    layout = [(_WEIGHT, e) for e in g.directed_edges]
    for order in range(2, k_max + 1):
        layout += [(order, (v,)) for v in g.vertices]
        hyper: dict[tuple[int, ...], None] = {}
        for h in g.multidirected_edges:
            for key in itertools.combinations_with_replacement(sorted(set(h)), order):
                if len(set(key)) >= 2:
                    hyper[key] = None
        layout += [(order, key) for key in hyper]
    return tuple(layout)


def _draws(seed: int, count: int) -> list[int]:
    """The first ``count`` values of the seeded generic instance, in layout order:
    nonzero ints +-1..+-VALUE_RANGE, each drawn as a magnitude and then a sign.

    The magnitude is 1 + r for the first r = getrandbits(10) below
    VALUE_RANGE, which is what randrange(1, VALUE_RANGE + 1) draws on
    CPython 3.10-3.12; written out, the stream depends on this package
    alone.  The sign is negative unless random() < 0.5.
    """
    rng = random.Random(seed)
    getrandbits, uniform = rng.getrandbits, rng.random
    bits = VALUE_RANGE.bit_length()
    values = []
    for _ in range(count):
        r = getrandbits(bits)
        while r >= VALUE_RANGE:
            r = getrandbits(bits)
        values.append(r + 1 if uniform() < 0.5 else -r - 1)
    return values


def _instance_of(
    k_max: int, layout: Sequence[tuple[int, tuple[int, ...]]], values: Sequence
) -> ModelInstance:
    """The instance holding values[i] at parameter layout[i], with noise at orders 2..k_max."""
    lam = {}
    diag: dict[int, dict] = {order: {} for order in range(2, k_max + 1)}
    hyper: dict[int, dict] = {order: {} for order in range(2, k_max + 1)}
    for (order, key), value in zip(layout, values):
        if order == _WEIGHT:
            lam[key] = value
        elif len(key) == 1:
            diag[order][key[0]] = value
        else:
            hyper[order][key] = value
    noise = {
        order: NoiseCumulants(diag=DiagonalSpec(diag[order]), hyper=HyperedgeSpec(hyper[order]))
        for order in diag
    }
    return ModelInstance(lam=lam, noise=noise)


def sample_generic_instance(g: MixedGraph, k_max: int, rng_seed: int) -> ModelInstance:
    """Random instance for polynomial identity testing; deterministic per seed.

    Edge weights and noise values are nonzero ints +-1..+-VALUE_RANGE,
    drawn in the order of _parameter_layout.  Diagonal noise covers every
    vertex at orders 2..k_max; hyperedge noise covers every admissible
    multiset of each hyperedge.
    """
    if k_max < 2:
        raise ValueError("k_max must be >= 2")
    layout = _parameter_layout(g, k_max)
    return _instance_of(k_max, layout, _draws(rng_seed, len(layout)))


def symbolic_instance(g: MixedGraph, k_max: int) -> ModelInstance:
    """Instance whose values are independent polynomial variables.

    A determinant vanishes on the whole model iff it is the zero
    polynomial in these variables; the moment scan's recheck expands it
    on this instance.  The decision oracle decides the cumulant
    determinant without it, by trek flows (treks.first_linked_top).  The
    variable of edge (u, v) is "lu_v"; that of the order-k noise at a
    multiset i_1..i_m is "ek_i_1_..._i_m".
    """
    layout = _parameter_layout(g, k_max)
    return _instance_of(k_max, layout, [
        Poly.var(("l" if order == _WEIGHT else f"e{order}_") + "_".join(map(str, key)))
        for order, key in layout
    ])


# -- subtensor determinants ---------------------------------------------------


@functools.cache
def _partitions(k: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Set partitions of range(k) with every block of size >= 2: the block holding
    position 0 ranges over combinations in lexicographic order, then the rest recursively."""

    def split(positions: tuple[int, ...]):
        if not positions:
            yield ()
            return
        first, rest = positions[0], positions[1:]
        for size in range(1, len(rest) + 1):
            for combo in itertools.combinations(rest, size):
                remaining = tuple(x for x in rest if x not in combo)
                for tail in split(remaining):
                    yield ((first,) + combo,) + tail

    return tuple(split(tuple(range(k))))


class _EntryPlan:
    """Cumulant entries, or with ``moments`` moment entries, of one order on
    one graph at distinct sorted keys of column positions, with the work
    that no parameter value changes done once.

    Each entry is a sum over partitions of a product of cumulant values
    over the blocks: a cumulant entry is the one-block partition, a moment
    entry has the blocks of _partitions(k) (the moment-cumulant formula of
    a centered vector), so it reads noise orders 2..k-2 and k.  A cumulant
    value at vertices (i_1..i_m) is the noise core pushed through the path
    sums: the sum over support terms, the diagonal noise of a vertex j or
    a hyperedge noise entry at an arrangement (j_1..j_m), of the noise
    value times the path sums j_1 -> i_1, ..., j_m -> i_m.  The plan holds
    the topological sweep that fills the path-sum columns (rows only for
    vertices with a path into a column), the slot of each edge weight and
    read noise parameter in the instance layout (_parameter_layout), the
    support terms of each read order grouped by their first row, and each
    key's partitions over distinct cumulant keys.  at(inst) gives the
    entries, in key order, at any instance; at_seed(seed) gives them at
    sample_generic_instance(g, k, seed) from the drawn values alone,
    without building that instance; cumulants_at_seed(seed) stops at the
    distinct cumulant values, which the entries are partition sums of.
    """

    def __init__(
        self, g: MixedGraph, order: int, columns: Sequence, keys: Sequence, moments: bool = False
    ) -> None:
        topo = validate_acyclic(g)
        self.graph = g
        partitions = _partitions(order) if moments else ((tuple(range(order)),),)
        # the noise orders the entries read; a plan without keys reads only path sums
        orders = {len(block) for partition in partitions for block in partition} if keys else set()

        layout = _parameter_layout(g, order)
        self._n_drawn = len(layout)
        self._slots = tuple(i for i, (o, _) in enumerate(layout) if o == _WEIGHT or o in orders)
        self._params = tuple(layout[i] for i in self._slots)
        param_of = {param: i for i, param in enumerate(self._params)}

        col = {v: c for c, v in enumerate(columns)}
        q = len(columns)
        children = g.child_lists
        reach: dict[int, int] = {}  # bitmask of the columns v has a directed path into
        for v in reversed(topo):
            mask = 1 << col[v] if v in col else 0
            for c in children[v]:
                mask |= reach[c]
            reach[v] = mask
        rows = [v for v in g.vertices if reach[v]]
        base = {v: r * q for r, v in enumerate(rows)}
        unit = [0] * (len(rows) * q)
        for v, c in col.items():
            unit[base[v] + c] = 1
        self._unit = tuple(unit)

        def bits(mask: int) -> tuple[int, ...]:
            return tuple(c for c in range(q) if mask >> c & 1)

        sweep = []
        for v in reversed(topo):
            links = tuple(
                (base[c], param_of[(_WEIGHT, (v, c))], bits(reach[c]))
                for c in children[v]
                if reach[c]
            )
            if links:
                sweep.append((base[v], links))
        self._sweep = tuple(sweep)

        # Support terms per read order, one group per row vertex j: the slot
        # of j's diagonal noise, and (slot, offsets of the rows after the
        # first) for every distinct arrangement, starting at j, of each
        # hyperedge multiset within the rows.  A key reads the groups whose
        # row has a path into its first column.
        hyper: dict[int, dict[int, list]] = {o: {v: [] for v in rows} for o in orders}
        for o, key in self._params:
            if o != _WEIGHT and len(key) > 1 and all(reach[v] for v in key):
                slot = param_of[(o, key)]
                for perm in sorted(set(itertools.permutations(key))):
                    hyper[o][perm[0]].append((slot, tuple(base[v] for v in perm[1:])))
        groups = {
            o: [(v, (base[v], param_of[(o, (v,))], tuple(hyper[o][v]))) for v in rows]
            for o in orders
        }
        into = {
            o: [tuple(group for v, group in groups[o] if reach[v] >> c & 1) for c in range(q)]
            for o in orders
        }

        # Each entry's partitions, as lists of indices into the distinct
        # cumulant keys; with a single one-block partition every entry is its
        # own cumulant key.
        self._cumulant_index: dict[tuple[int, ...], int] = {}
        self._entries = None
        if len(partitions) > 1:
            distinct = defaultdict(itertools.count().__next__)  # ids in first-seen order
            self._entries = _block_indices(keys, partitions, distinct.__getitem__)
            self._cumulant_index = dict(distinct)
        cumulant_keys = keys if self._entries is None else list(self._cumulant_index)
        self._cumulants = tuple((into[len(key)][key[0]], key[0], key[1:]) for key in cumulant_keys)

    def at(self, inst: ModelInstance) -> list:
        """The entries at ``inst``; int, Fraction or Poly values alike."""
        validate_instance(self.graph, inst)
        return self._finish(self._cumulant_values([
            inst.lam.get(key, 0) if order == _WEIGHT else noise_entry(inst, order, key)
            for order, key in self._params
        ]))

    def at_seed(self, seed: int) -> list:
        """The entries at sample_generic_instance(graph, k, seed) for any
        k >= order: the layout up to the plan's order is a prefix of the
        layout up to k, and the draws are sequential."""
        return self._finish(self.cumulants_at_seed(seed))

    def cumulants_at_seed(self, seed: int) -> list:
        """The distinct cumulant values the entries read, at the seed of
        at_seed, in the order of the plan's distinct cumulant keys."""
        drawn = _draws(seed, self._n_drawn)
        return self._cumulant_values([drawn[i] for i in self._slots])

    def _path_sums(self, params: Sequence) -> list:
        """The path sums into the columns at the plan's parameter values (only
        the edge weights, which lead the layout, are read): the sum from the
        r-th row vertex (of those with a path into a column, in vertex order)
        into column c sits at r * len(columns) + c."""
        paths = list(self._unit)
        for row, links in self._sweep:
            for child, slot, cols in links:
                w = params[slot]
                if not w:
                    continue
                for c in cols:
                    x = paths[child + c]
                    if x:
                        paths[row + c] = paths[row + c] + w * x
        return paths

    def _cumulant_values(self, params: Sequence) -> list:
        """The distinct cumulant values at the values of the plan's parameters,
        in layout order."""
        paths = self._path_sums(params)
        return [_entry_value(*key, params, paths) for key in self._cumulants]

    def _finish(self, values: Sequence) -> list:
        """The entries from the distinct cumulant values."""
        return values if self._entries is None else _partition_sums(self._entries, values)


def _entry_value(
    groups: Sequence, first: int, rest: Sequence[int], params: Sequence, paths: Sequence
) -> object:
    """One cumulant entry at the columns (first, *rest): over the groups
    (row, slot, hyper), params[slot] times the path sums at row + each
    column, plus for each (slot, rows) of hyper params[slot] times the path
    sums at row + first and at rows + rest, cell by cell.  A group whose
    first path sum is zero is skipped whole, and a term is dropped at its
    first zero factor."""
    total = 0
    for row, slot, hyper in groups:
        lead = paths[row + first]
        if not lead:
            continue
        term = params[slot]
        if term:
            term = term * lead
            for c in rest:
                factor = paths[row + c]
                if not factor:
                    break
                term = term * factor
            else:
                total = total + term
        for slot, rows in hyper:
            term = params[slot]
            if not term:
                continue
            term = term * lead
            for r, c in zip(rows, rest):
                factor = paths[r + c]
                if not factor:
                    break
                term = term * factor
            else:
                total = total + term
    return total


def _partition_value(partitions: Iterable[Sequence], value_of: Callable) -> object:
    """The sum over the partitions of the product of value_of over their blocks:
    the moment-cumulant formula of a centered vector (McCullagh 1987) when a
    block's value is the cumulant at it.  The first block of every partition
    is always asked for, and a product stops at its first zero factor."""
    total = 0
    for blocks in partitions:
        term = value_of(blocks[0])
        for block in blocks[1:]:
            if not term:
                break
            term = term * value_of(block)
        if term:
            total = total + term
    return total


def _block_indices(
    keys: Iterable[tuple[int, ...]], partitions: Sequence[Sequence], index: Callable
) -> list:
    """Per key, per partition, index(the sorted key of each block): a block
    picks its positions from the sorted key, so its key is sorted too."""
    getters = [[operator.itemgetter(*block) for block in partition] for partition in partitions]
    return [[[index(get(key)) for get in blocks] for blocks in getters] for key in keys]


def _partition_sums(entries: Iterable, values: Sequence) -> list:
    """Per entry of _block_indices, its partition sum over the indexed values."""
    return [_partition_value(partitions, values.__getitem__) for partitions in entries]


@functools.lru_cache(maxsize=1 << 12)
def _key_table(
    side_columns: tuple[tuple[int, ...], ...],
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The sorted key of each subtensor position, in row-major order, as an
    index into the distinct keys in first-seen order; (table, keys).  Kept
    per side-column pattern, so each value is a tuple."""
    keys: dict[tuple[int, ...], int] = {}
    positions = itertools.product(*side_columns)
    table = tuple(keys.setdefault(tuple(sorted(cols)), len(keys)) for cols in positions)
    return table, tuple(keys)


class _DeterminantPlan(_EntryPlan):
    """det C^(k)[S_1..S_k], or with ``moments`` det N^(k)[S_1..S_k], on one
    graph and one list of sides: the entry plan over the distinct sorted
    entry keys of the subtensor, with the table from each subtensor
    position to its key, so that at(inst) and at_seed(seed) give the
    determinant; at_seed(seed) is determinant(cumulants_at_seed(seed)).
    Singleton sides give a single entry: the determinant of a
    1 x ... x 1 tensor.
    """

    def __init__(
        self, g: MixedGraph, sides: Sequence[Sequence[int]], moments: bool = False
    ) -> None:
        side_lists = checked_sides(g.vertices, sides)
        self.order, self.n = len(side_lists), len(side_lists[0])
        columns = sorted({v for side in side_lists for v in side})
        col = {v: c for c, v in enumerate(columns)}
        self._side_columns = tuple(tuple(col[v] for v in side) for side in side_lists)
        self._table, keys = _key_table(self._side_columns)
        self._parts: dict[tuple[int, ...], tuple] = {}  # part_determinant's tables per group
        super().__init__(g, self.order, columns, keys, moments)

    def determinant(self, values: Sequence) -> object:
        """The determinant from the distinct cumulant values (cumulants_at_seed)."""
        entries = super()._finish(values)
        return hyperdet_from_table(self.n, self.order, [entries[s] for s in self._table])

    _finish = determinant

    def part_determinant(self, group: Sequence[int], values: Sequence) -> object:
        """det N^(h) on the sides at the h positions ``group`` of a moment
        plan, h <= k - 2, from the plan's distinct cumulant values at a seed
        (cumulants_at_seed): what _DeterminantPlan(g, those sides,
        moments=True).at_seed(seed) gives, with no plan built and no seed
        drawn.  Each moment entry of the part is the partition sum
        (_partition_value) over the values of its blocks, and the
        determinant comes from hyperdet_from_table.

        This is exact.  The order-h layout is a prefix of the order-k
        layout, so at a seed the values are the ones an order-h plan
        computes.  And every block a part reads is among the plan's
        distinct cumulant keys.  A block B of a part key has at most
        h <= k - 2 positions.  Give the other k - h sides any positions:
        that makes a full key of the plan, and its k - |B| >= 2 positions
        outside B form one block of their own.  So B is a block of some
        partition of some full key.

        The key table and block indices depend on the group only, so each
        group's are built once per plan.
        """
        group = tuple(group)
        if group not in self._parts:
            table, keys = _key_table(tuple(self._side_columns[i] for i in group))
            index = self._cumulant_index.__getitem__
            self._parts[group] = table, _block_indices(keys, _partitions(len(group)), index)
        table, entries = self._parts[group]
        moments = _partition_sums(entries, values)
        return hyperdet_from_table(self.n, len(group), [moments[s] for s in table])


def _model_tensor(g: MixedGraph, inst: ModelInstance, order: int, moments: bool) -> Tensor:
    """The order-k cumulant (with ``moments``, moment) tensor of the observed
    vector: one entry plan over the sorted keys of orbit_table, whose values
    symmetric_from_values broadcasts."""
    if order < 2:
        raise ValueError("order must be >= 2")
    p = len(g.vertices)
    keys = orbit_table(p, order)[0]
    return symmetric_from_values(p, order, _EntryPlan(g, order, g.vertices, keys, moments).at(inst))


def model_cumulant(g: MixedGraph, inst: ModelInstance, order: int) -> Tensor:
    """Order-k cumulant tensor of the observed vector; exact and symmetric."""
    return _model_tensor(g, inst, order, moments=False)


def cumulant_entry(g: MixedGraph, inst: ModelInstance, indices: Sequence[int]) -> object:
    """Single cumulant entry (vertex ids): a determinant plan over singleton sides."""
    return _DeterminantPlan(g, [(v,) for v in indices]).at(inst)


def subtensor_determinant(
    g: MixedGraph,
    inst: ModelInstance,
    sides: Sequence[Sequence[int]],
) -> object:
    """det of the cumulant subtensor at the instance, by one determinant plan."""
    return _DeterminantPlan(g, sides).at(inst)


# -- JSON interface ---------------------------------------------------------


def instance_to_json(inst: ModelInstance) -> str:
    lam = {f"{u}->{v}": frac_to_str(Fraction(x)) for (u, v), x in inst.lam.items()}
    noise: dict[str, dict] = {}
    for order, nc in inst.noise.items():
        entry: dict[str, dict] = {
            "diag": {str(v): frac_to_str(Fraction(x)) for v, x in nc.diag.values.items()}
        }
        if nc.hyper.entries:
            entry["hyper"] = {
                canonical_json(list(key)): frac_to_str(Fraction(x))
                for key, x in nc.hyper.entries.items()
            }
        noise[str(order)] = entry
    return canonical_json({"lambda": lam, "noise": noise})


def instance_from_json(text: str) -> ModelInstance:
    doc = read_json(text)
    if not isinstance(doc, dict) or "lambda" not in doc or "noise" not in doc:
        raise SchemaError("/", 'expected keys "lambda" and "noise"')
    for key in ("lambda", "noise"):
        if not isinstance(doc[key], dict):
            raise SchemaError(f"/{key}", "expected an object")
    lam = {
        read_edge(key, f"/lambda/{key}"): frac_from_str(val, f"/lambda/{key}")
        for key, val in doc["lambda"].items()
    }
    noise = {}
    for order_key, nc_doc in doc["noise"].items():
        at = f"/noise/{order_key}"
        order = read_int(order_key, at, "order must be an integer")
        if order < 2:
            raise SchemaError(at, "order must be >= 2")
        if not isinstance(nc_doc, dict) or not isinstance(nc_doc.get("diag"), dict):
            raise SchemaError(at, 'expected an object with key "diag"')
        if not isinstance(nc_doc.get("hyper", {}), dict):
            raise SchemaError(f"{at}/hyper", "expected an object")
        diag = {}
        for v, x in nc_doc["diag"].items():
            where = f"{at}/diag/{v}"
            diag[read_int(v, where, "vertex id must be an integer")] = frac_from_str(x, where)
        hyper = {}
        for key, x in nc_doc.get("hyper", {}).items():
            where = f"{at}/hyper/{key}"
            hyper[tuple(read_ints(read_json(key, where), where))] = frac_from_str(x, where)
        noise[order] = NoiseCumulants(diag=DiagonalSpec(diag), hyper=HyperedgeSpec(hyper))
    return ModelInstance(lam=lam, noise=noise)
