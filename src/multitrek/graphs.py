"""Mixed graphs: DAGs plus multidirected hyperedges.

A mixed graph is a set of vertices, an acyclic set of directed edges,
and a set of multidirected edges (hyperedges of order >= 2, stored as
sorted multisets).  A hyperedge of order 2 is the classical bidirected
edge; a hyperedge models a hidden common cause of its endpoints.  The
canonical-DAG reduction replaces each hyperedge with a fresh latent
source vertex pointing at its endpoints.
"""

from __future__ import annotations

import functools
import heapq
import itertools
from dataclasses import dataclass, field, fields
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import CycleError, SchemaError
from .ser import canonical_json, read_int, read_ints, read_json, strict_int


@dataclass(frozen=True)
class MixedGraph:
    """Immutable mixed graph G = (V, D, H).

    ``vertices`` is a sorted tuple of distinct non-negative ints,
    ``directed_edges`` a sorted tuple of (u, v) pairs, and
    ``multidirected_edges`` a sorted tuple of internally sorted vertex
    multisets of size >= 2.  Construction refuses ids that are not ints
    (booleans included), normalizes (sorts, dedups) and validates
    endpoints; acyclicity is checked separately by validate_acyclic.

    The graph keeps what it derives from its edges once it has computed
    it: its topological order, child and parent lists and canonical DAG.
    These are read-only values outside the fields, so equality, hashing,
    repr, pickles and serialize_graph see the fields alone.
    """

    vertices: tuple[int, ...]
    directed_edges: tuple[tuple[int, int], ...] = ()
    multidirected_edges: tuple[tuple[int, ...], ...] = ()
    labels: Mapping[int, str] | None = None

    def __post_init__(self) -> None:
        ids = (self.vertices, *self.directed_edges, *self.multidirected_edges, self.labels or ())
        for x in itertools.chain(*ids):
            strict_int(x)
        verts = tuple(sorted(set(self.vertices)))
        if any(v < 0 for v in verts):
            raise ValueError("vertex ids must be non-negative integers")
        vset = set(verts)
        edges = tuple(sorted(set((u, v) for u, v in self.directed_edges)))
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at {u}")
            if u not in vset or v not in vset:
                raise ValueError(f"edge ({u},{v}) has an endpoint outside the vertex set")
        hyper = tuple(sorted(set(tuple(sorted(h)) for h in self.multidirected_edges)))
        for h in hyper:
            if len(h) < 2:
                raise ValueError(f"multidirected edge {h} has order < 2")
            for x in h:
                if x not in vset:
                    raise ValueError(f"multidirected edge {h} mentions unknown vertex {x}")
        if self.labels is not None:
            for v in self.labels:
                if v not in vset:
                    raise ValueError(f"label for unknown vertex {v}")
            object.__setattr__(self, "labels", dict(sorted(self.labels.items())))
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "directed_edges", edges)
        object.__setattr__(self, "multidirected_edges", hyper)

    def __getstate__(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    # -- basic accessors -------------------------------------------------

    @property
    def is_dag(self) -> bool:
        """True when there are no multidirected edges."""
        return not self.multidirected_edges

    @functools.cached_property
    def topological_order(self) -> tuple[int, ...]:
        """What validate_acyclic returns; CycleError on a cyclic graph."""
        return _topological_order(self)

    @functools.cached_property
    def child_lists(self) -> Mapping[int, tuple[int, ...]]:
        """Sorted child lists keyed by vertex (every vertex present), read-only."""
        return _lists(self.vertices, self.directed_edges)

    @functools.cached_property
    def parent_lists(self) -> Mapping[int, tuple[int, ...]]:
        """Sorted parent lists keyed by vertex (every vertex present), read-only."""
        return _lists(self.vertices, sorted((b, a) for a, b in self.directed_edges))

    @functools.cached_property
    def _canonical(self) -> CanonicalDagResult:
        return _reduce(self)

    def children(self, v: int) -> tuple[int, ...]:
        return self.child_lists.get(v, ())

    def parents(self, v: int) -> tuple[int, ...]:
        return self.parent_lists.get(v, ())

    def index_of(self, v: int) -> int:
        """Dense position of vertex v in the sorted vertex tuple."""
        return self.vertices.index(v)

    def adjacency(self) -> Mapping[int, tuple[int, ...]]:
        """The child lists (child_lists)."""
        return self.child_lists


def _lists(
    vertices: tuple[int, ...], pairs: Iterable[tuple[int, int]]
) -> Mapping[int, tuple[int, ...]]:
    """The second members of the sorted pairs grouped by first member, per vertex."""
    out: dict[int, list[int]] = {v: [] for v in vertices}
    for u, v in pairs:
        out[u].append(v)
    return MappingProxyType({v: tuple(vs) for v, vs in out.items()})


@dataclass(frozen=True)
class CanonicalDagResult:
    """Outcome of the hidden-variable reduction.

    ``dag`` has no multidirected edges; ``latent_map`` sends each original
    hyperedge to its fresh latent vertex id; ``original_vertices`` marks
    the vertices that existed before the reduction.
    """

    dag: MixedGraph
    latent_map: Mapping[tuple[int, ...], int]
    original_vertices: tuple[int, ...]

    latent_of: Mapping[int, tuple[int, ...]] = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "latent_map", MappingProxyType(dict(self.latent_map)))
        object.__setattr__(
            self, "latent_of", MappingProxyType({v: h for h, v in self.latent_map.items()})
        )


def validate_acyclic(g: MixedGraph) -> tuple[int, ...]:
    """Topologically order the directed part, smallest vertex id first.

    Returns a vertex ordering in which every directed edge goes forward.
    Raises CycleError carrying one offending cycle (as a closed vertex
    sequence) when the directed part is cyclic.  The order is computed
    once per graph and kept (MixedGraph.topological_order); parse_graph
    fills it in.
    """
    return g.topological_order


def _topological_order(g: MixedGraph) -> tuple[int, ...]:
    children = g.child_lists
    indeg = {v: 0 for v in g.vertices}
    for _, v in g.directed_edges:
        indeg[v] += 1
    ready = [v for v in g.vertices if indeg[v] == 0]
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for c in children[v]:
            indeg[c] -= 1
            if indeg[c] == 0:
                heapq.heappush(ready, c)
    if len(order) == len(g.vertices):
        return tuple(order)
    raise CycleError(_find_cycle(g, {v for v in g.vertices if v not in set(order)}))


def _find_cycle(g: MixedGraph, candidates: set[int]) -> tuple[int, ...]:
    """Locate one directed cycle among the unresolved vertices.

    Every leftover of Kahn's algorithm keeps at least one leftover
    parent, so walking parent links must revisit a vertex; the revisit
    closes a cycle, reported in edge direction.
    """
    parent: dict[int, list[int]] = {v: [] for v in candidates}
    for u, v in g.directed_edges:
        if u in candidates and v in candidates:
            parent[v].append(u)
    start = min(candidates)
    seen = {start: 0}
    walk = [start]
    while True:
        v = min(parent[walk[-1]])
        if v in seen:
            return (v,) + tuple(reversed(walk[seen[v]:]))
        seen[v] = len(walk)
        walk.append(v)


def canonical_dag(g: MixedGraph) -> CanonicalDagResult:
    """Replace every hyperedge with a fresh latent source vertex.

    The latent for the r-th hyperedge (1-based, in sorted hyperedge
    order) gets id ``max(original ids) + r`` and is listed after the
    original vertices, so certificates citing latents are reproducible
    across runs.  A graph with no hyperedges
    comes back unchanged with an empty latent map.  The result is
    computed once per graph and kept, so canonical_dag(g) is
    canonical_dag(g).
    """
    return g._canonical


def _reduce(g: MixedGraph) -> CanonicalDagResult:
    if not g.multidirected_edges:
        return CanonicalDagResult(dag=g, latent_map={}, original_vertices=g.vertices)
    base = max(g.vertices)
    latent_map = {h: base + r for r, h in enumerate(g.multidirected_edges, start=1)}
    vertices = g.vertices + tuple(latent_map[h] for h in g.multidirected_edges)
    edges = list(g.directed_edges)
    for h, v in latent_map.items():
        edges.extend((v, x) for x in set(h))
    dag = MixedGraph(vertices=vertices, directed_edges=tuple(edges), labels=g.labels)
    return CanonicalDagResult(dag=dag, latent_map=latent_map, original_vertices=g.vertices)


# -- JSON interface ------------------------------------------------------

_KEYS = {"vertices", "directed_edges", "multidirected_edges", "labels"}


def parse_graph(text: str) -> MixedGraph:
    """Parse the JSON graph document; validates schema and acyclicity."""
    doc = read_json(text)
    if not isinstance(doc, dict):
        raise SchemaError("/", "top level must be an object")
    for key in ("vertices", "directed_edges", "multidirected_edges"):
        if key not in doc:
            raise SchemaError(f"/{key}", "missing")
    for key in doc:
        if key not in _KEYS:
            raise SchemaError(f"/{key}", "unknown key")
    verts = read_ints(doc["vertices"], "/vertices")
    edges = read_ints(doc["directed_edges"], "/directed_edges", 2)
    for i, e in enumerate(edges):
        if len(e) != 2:
            raise SchemaError(f"/directed_edges/{i}", "must be a pair")
    hyper = read_ints(doc["multidirected_edges"], "/multidirected_edges", 2)
    for i, h in enumerate(hyper):
        if len(h) < 2:
            raise SchemaError(f"/multidirected_edges/{i}", "order must be >= 2")
    labels = None
    if "labels" in doc:
        if not isinstance(doc["labels"], dict):
            raise SchemaError("/labels", "must be an object")
        labels = {}
        for k, v in doc["labels"].items():
            if not isinstance(v, str):
                raise SchemaError(f"/labels/{k}", "label must be a string")
            labels[read_int(k, f"/labels/{k}", "key must be an integer")] = v
    try:
        g = MixedGraph(verts, edges, hyper, labels)
    except ValueError as exc:
        raise SchemaError("/", str(exc)) from exc
    validate_acyclic(g)
    return g


def serialize_graph(g: MixedGraph) -> str:
    """Canonical single-line JSON; parse_graph round-trips it byte-for-byte."""
    doc: dict[str, object] = {
        "vertices": list(g.vertices),
        "directed_edges": [list(e) for e in g.directed_edges],
        "multidirected_edges": [list(h) for h in g.multidirected_edges],
    }
    if g.labels:
        doc["labels"] = {str(k): v for k, v in g.labels.items()}
    return canonical_json(doc)

