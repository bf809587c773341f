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
polynomials from .polynomial, which is how the symbolic ("certain")
vanishing checks reuse the same code paths.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .errors import MissingOrder, SchemaError
from .graphs import MixedGraph, validate_acyclic
from .polynomial import Poly
from .ser import as_rational, canonical_json, frac_from_str, frac_to_str
from .tensors import DiagonalSpec, Tensor, hyperdet_from_getter, symmetric_tensor
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
            tup = tuple(sorted(int(i) for i in key))
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
            (int(u), int(v)): _coerce_scalar(x)
            for (u, v), x in sorted(self.lam.items())
        }
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "noise", {int(k): v for k, v in sorted(self.noise.items())})

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

    Computed by dynamic programming over the topological order, so no
    path enumeration; works for any scalar ring (rationals, floats,
    polynomials).
    """
    edges = set(g.directed_edges)
    for e in lam:
        if tuple(e) not in edges:
            raise ValueError(f"lambda entry {e} is not a directed edge of the graph")
    order = validate_acyclic(g)
    idx = {v: i for i, v in enumerate(g.vertices)}
    p = len(g.vertices)
    m: list[list] = [[0] * p for _ in range(p)]
    for i in range(p):
        m[i][i] = 1
    children = g.adjacency()
    for v in reversed(order):
        j = idx[v]
        for c in children[v]:
            w = lam.get((v, c), 0)
            if not w:
                continue
            row_c = m[idx[c]]
            row_j = m[j]
            for i in range(p):
                if row_c[i]:
                    row_j[i] = row_j[i] + w * row_c[i]
    return m


# -- cumulant assembly -----------------------------------------------------


def noise_support(g: MixedGraph, inst: ModelInstance, order: int) -> dict[tuple[int, ...], object]:
    """Nonzero noise entries at full index tuples (all permutations filled in)."""
    nc = inst.noise_at(order)
    full: dict[tuple[int, ...], object] = {}
    for v, val in nc.diag.values.items():
        if val:
            full[(v,) * order] = val
    for key, val in nc.hyper.entries.items():
        if not val:
            continue
        for perm in set(itertools.permutations(key)):
            full[perm] = val
    return full


def model_cumulant(g: MixedGraph, inst: ModelInstance, order: int) -> Tensor:
    """Order-k cumulant tensor of the observed vector; exact and symmetric."""
    values = _tucker_values(g, inst, (order,))[order]
    return symmetric_tensor(len(g.vertices), order, values.__getitem__)


def _tucker_values(g: MixedGraph, inst: ModelInstance, orders: Sequence[int]) -> dict[int, dict]:
    """The Tucker route: the cumulant values of each order at every sorted
    position key, the noise cumulants (noise_support) pushed through one path matrix."""
    validate_instance(g, inst)
    m = path_matrix(g, inst.lam)
    idx = {v: i for i, v in enumerate(g.vertices)}
    out = {}
    for order in orders:
        support = _support_by_first_row(noise_support(g, inst, order), idx)
        keys = itertools.combinations_with_replacement(range(len(idx)), order)
        out[order] = {key: _tucker_entry(support, m, key) for key in keys}
    return out


def _support_by_first_row(
    support: Mapping[tuple[int, ...], object], idx: Mapping[int, int]
) -> dict[int, list]:
    """Support tuples as path-matrix rows, grouped by the row of their first index."""
    groups: dict[int, list] = {}
    for jtuple, val in support.items():
        rows = [idx[j] for j in jtuple]
        groups.setdefault(rows[0], []).append((rows[1:], val))
    return groups


def _tucker_entry(groups: Mapping[int, list], m: list[list], positions: tuple[int, ...]) -> object:
    """Sum of val * m[j_1][i_1] * ... * m[j_k][i_k] over the support tuples (j, val).

    A group whose first factor m[j_1][i_1] is zero is skipped whole.
    """
    first, rest = positions[0], positions[1:]
    total = 0
    for j0, terms in groups.items():
        lead = m[j0][first]
        if not lead:
            continue
        for rows, val in terms:
            term = val * lead
            for j, i in zip(rows, rest):
                factor = m[j][i]
                if not factor:
                    term = 0
                    break
                term = term * factor
            total = total + term
    return total


def cumulant_entry(
    g: MixedGraph,
    inst: ModelInstance,
    indices: Sequence[int],
    _cache: dict | None = None,
) -> object:
    """Single cumulant entry by the Tucker route (vertex ids, not positions)."""
    return _cached_entry(g, inst, indices, _cache)


def _cached_entry(
    g: MixedGraph, inst: ModelInstance, indices: Sequence[int], cache: dict | None = None
) -> object:
    """One entry of model_cumulant (vertex ids); ``cache`` carries work across calls."""
    if cache is None:
        cache = {}
    if "m" not in cache:
        validate_instance(g, inst)
        cache["m"] = path_matrix(g, inst.lam)
        cache["idx"] = {v: i for i, v in enumerate(g.vertices)}
    order = len(indices)
    if ("support", order) not in cache:
        cache[("support", order)] = _support_by_first_row(noise_support(g, inst, order), cache["idx"])
    key = tuple(sorted(indices))
    memo = cache.setdefault(("entries", order), {})
    if key not in memo:
        rows = tuple(cache["idx"][v] for v in key)
        memo[key] = _tucker_entry(cache[("support", order)], cache["m"], rows)
    return memo[key]


def _determinant_by_entries(
    g: MixedGraph,
    inst: ModelInstance,
    sides: Sequence[Sequence[int]],
    entry,
) -> object:
    """det of the subtensor whose entries ``entry(g, inst, vertices, cache)`` gives."""
    side_lists = [list(s) for s in sides]
    cache: dict = {}

    def at(pos: tuple[int, ...]) -> object:
        vertices = tuple(side_lists[m][i] for m, i in enumerate(pos))
        return entry(g, inst, vertices, cache)

    return hyperdet_from_getter(len(side_lists[0]), len(side_lists), at)


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

    Must agree with the Tucker route exactly; that agreement is one of
    the package's core self-tests.
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


def _instance_of(g: MixedGraph, k_max: int, value: Callable) -> ModelInstance:
    """The instance shape shared by the generic and symbolic instances.

    value(prefix, indices) makes each parameter, in a fixed order: edge
    weights ("l", (u, v)), then per order 2..k_max the diagonal noise of
    every vertex ("e{order}_", (v,)) and the hyperedge noise of every
    admissible multiset of each hyperedge ("e{order}_", multiset).
    """
    lam = {(u, v): value("l", (u, v)) for u, v in g.directed_edges}
    noise = {}
    for order in range(2, k_max + 1):
        prefix = f"e{order}_"
        diag = {v: value(prefix, (v,)) for v in g.vertices}
        hyper: dict[tuple[int, ...], object] = {}
        for h in g.multidirected_edges:
            for key in itertools.combinations_with_replacement(sorted(set(h)), order):
                if len(set(key)) >= 2 and key not in hyper:
                    hyper[key] = value(prefix, key)
        noise[order] = NoiseCumulants(diag=DiagonalSpec(diag), hyper=HyperedgeSpec(hyper))
    return ModelInstance(lam=lam, noise=noise)


def sample_generic_instance(g: MixedGraph, k_max: int, rng_seed: int) -> ModelInstance:
    """Random instance for polynomial identity testing; deterministic per seed.

    Edge weights and noise values are nonzero ints +-1..+-997.
    Diagonal noise covers every vertex at orders 2..k_max; hyperedge
    noise covers every admissible multiset of each hyperedge.
    """
    if k_max < 2:
        raise ValueError("k_max must be >= 2")
    rng = random.Random(rng_seed)

    def draw(_prefix: str, _indices: tuple[int, ...]) -> int:
        magnitude = rng.randint(1, 997)
        return magnitude if rng.random() < 0.5 else -magnitude

    return _instance_of(g, k_max, draw)


def symbolic_instance(g: MixedGraph, k_max: int) -> ModelInstance:
    """Instance whose values are independent polynomial variables.

    Used by the certain decision mode: a determinant vanishes on the
    whole model iff it is the zero polynomial in these variables.
    """
    return _instance_of(g, k_max, lambda prefix, idx: Poly.var(prefix + "_".join(map(str, idx))))


def subtensor_determinant(
    g: MixedGraph,
    inst: ModelInstance,
    sides: Sequence[Sequence[int]],
) -> object:
    """det of the cumulant subtensor at the instance, entries computed on demand."""
    return _determinant_by_entries(g, inst, sides, cumulant_entry)


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
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("/", f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "lambda" not in doc or "noise" not in doc:
        raise SchemaError("/", 'expected keys "lambda" and "noise"')
    for key in ("lambda", "noise"):
        if not isinstance(doc[key], dict):
            raise SchemaError(f"/{key}", "expected an object")
    lam = {}
    for key, val in doc["lambda"].items():
        try:
            u, v = key.split("->")
            lam[(int(u), int(v))] = frac_from_str(val, f"/lambda/{key}")
        except ValueError as exc:
            raise SchemaError(f"/lambda/{key}", "expected 'u->v' key") from exc
    noise = {}
    for order_key, nc_doc in doc["noise"].items():
        try:
            order = int(order_key)
        except ValueError as exc:
            raise SchemaError(f"/noise/{order_key}", "order must be an integer") from exc
        if not isinstance(nc_doc, dict) or not isinstance(nc_doc.get("diag"), dict):
            raise SchemaError(f"/noise/{order_key}", 'expected an object with key "diag"')
        if not isinstance(nc_doc.get("hyper", {}), dict):
            raise SchemaError(f"/noise/{order_key}/hyper", "expected an object")
        diag = {
            int(v): frac_from_str(x, f"/noise/{order_key}/diag/{v}")
            for v, x in nc_doc["diag"].items()
        }
        hyper = {}
        for hkey, x in nc_doc.get("hyper", {}).items():
            try:
                key_list = json.loads(hkey)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"/noise/{order_key}/hyper/{hkey}", "bad multiset key") from exc
            if not isinstance(key_list, list) or not all(type(i) is int for i in key_list):
                raise SchemaError(f"/noise/{order_key}/hyper/{hkey}", "expected a list of vertex ids")
            hyper[tuple(key_list)] = frac_from_str(x, f"/noise/{order_key}/hyper/{hkey}")
        noise[order] = NoiseCumulants(diag=DiagonalSpec(diag), hyper=HyperedgeSpec(hyper))
    return ModelInstance(lam=lam, noise=noise)
