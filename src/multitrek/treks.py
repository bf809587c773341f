"""Treks, trek systems, and multi-trek separation.

A k-trek into sinks (i_1..i_k) is a tuple of k directed paths whose
sources either coincide at a single top vertex or all lie inside one
multidirected hyperedge.  A trek system is n k-treks whose side-i
endpoints cover the ordered set S_i; two of its treks have a *sided
intersection* when their side-i paths share a vertex.  The central
question — does a system without sided intersection exist? — is at
order 2 classical trek separation (Sullivant, Talaska and Draisma
2010): one max flow on a graph doubled into a reversed copy for side A
and a forward copy for side B either carries n treks or leaves a
minimum cut, a t-separator (C_A, C_B) with |C_A| + |C_B| < n.  From
order 3 on it reduces to finding n distinct candidate tops from which
every side admits a vertex-disjoint path system, which is one max flow
per side with capacity 1 on every vertex; a search asks all its flows
of one split-vertex network (_SplitGraph) built once per call.  The
exact rule at odd orders
opens side 1 (``open_first_side``): the same flow lets each vertex
carry up to n side-1 paths, and each side-1 position takes one.  The
enumeration of top sets (first_linked_top) is also the exact test of
whether the cumulant determinant is the zero polynomial, at every
order.  Graphs with hyperedges are searched on their
canonical DAG, so separators and obstruction tops cite canonical-DAG
vertex ids, latents included.  The same trek-system machinery serves
the moment side: split-treks fill the same TrekSystem, pass the same
verifier and feed the same signed expansion.

Every "which vertices reach this side" question — the useful tops of a
search, the sources of treks and paths into given sinks, the open sides
of a separation check — is answered by one reverse search over parent
lists from the whole side at once (``_reaching``), which may avoid a
blocking set: a vertex counts when it has a directed path into the
side that meets no blocked vertex, endpoints included.

All enumerations are capped (default 10^6 items) by drawing their
candidates through a ``_Cap``, the one place that counts; exceeding a
cap is an explicit BudgetExceeded, never silent truncation.  The order-2
flow enumerates nothing and takes no cap.  Orderings are lexicographic
or fixed by insertion order throughout, so certificates reproduce
across runs.
"""

from __future__ import annotations

import functools
import itertools
from collections import deque
from dataclasses import dataclass
from typing import Callable, Container, Iterable, Iterator, Mapping, Sequence

from .errors import BudgetExceeded, InternalInconsistency
from .graphs import MixedGraph, canonical_dag
from .ser import read_ints, strict_int
from .tensors import perm_sign, signed_permutations

DEFAULT_BUDGET = 10**6


class _Cap:
    """A count of drawn candidates: calling it on an iterable yields the
    items and raises BudgetExceeded(what, budget) when item budget + 1 is
    drawn.  Several streams may draw from one cap."""

    def __init__(self, budget: int, what: str) -> None:
        self.budget, self.what, self.drawn = budget, what, 0

    def __call__(self, items: Iterable) -> Iterator:
        for item in items:
            self.drawn += 1
            if self.drawn > self.budget:
                raise BudgetExceeded(self.what, self.budget)
            yield item


@dataclass(frozen=True)
class DirectedPath:
    """A directed walk (automatically simple in a DAG); one vertex is a valid trivial path."""

    vertices: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.vertices:
            raise ValueError("a path needs at least one vertex")
        object.__setattr__(self, "vertices", tuple(strict_int(v) for v in self.vertices))

    @property
    def source(self) -> int:
        return self.vertices[0]

    @property
    def sink(self) -> int:
        return self.vertices[-1]

    def is_path_of(self, g: MixedGraph) -> bool:
        edges = set(g.directed_edges)
        vset = set(g.vertices)
        return all(v in vset for v in self.vertices) and all(
            (a, b) in edges for a, b in zip(self.vertices, self.vertices[1:])
        )


@dataclass(frozen=True)
class Trek:
    """k directed paths into ordered sinks; KTrek and SplitTrek say how they are topped."""

    paths: tuple[DirectedPath, ...]
    top_hyperedge = None  # the supporting hyperedge, on KTreks that have one

    @property
    def order(self) -> int:
        return len(self.paths)

    @property
    def sources(self) -> tuple[int, ...]:
        return tuple(p.source for p in self.paths)

    @property
    def sinks(self) -> tuple[int, ...]:
        return tuple(p.sink for p in self.paths)

    def sort_key(self) -> tuple[tuple[int, ...], ...]:
        return tuple(p.vertices for p in self.paths)


@dataclass(frozen=True)
class KTrek(Trek):
    """k directed paths topped by one vertex or supported by one hyperedge."""

    top_vertex: int | None = None
    top_hyperedge: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if (self.top_vertex is None) == (self.top_hyperedge is None):
            raise ValueError("exactly one of top_vertex / top_hyperedge must be set")
        srcs = self.sources
        if self.top_vertex is not None:
            if any(s != self.top_vertex for s in srcs):
                raise ValueError(f"sources {srcs} do not coincide at top {self.top_vertex}")
        else:
            if not set(srcs) <= set(self.top_hyperedge):
                raise ValueError(f"sources {srcs} not supported by hyperedge {self.top_hyperedge}")


@dataclass(frozen=True)
class TrekSystem:
    """n treks covering the ordered sides, with induced permutations and sign.

    The treks are KTreks, or SplitTreks on the moment side.  Treks are
    ordered so that trek j ends at side_endpoints[0][j] on side 1;
    induced_permutations[i-2][j] is the position in side i of trek j's
    side-i sink, and sign is the product of those permutations' signs.
    """

    treks: tuple[Trek, ...]
    side_endpoints: tuple[tuple[int, ...], ...]
    induced_permutations: tuple[tuple[int, ...], ...]
    sign: int


@dataclass(frozen=True)
class SidedIntersectionWitness:
    """Two treks of a system sharing shared_vertex on one side (1-based)."""

    trek_index_a: int
    trek_index_b: int
    side: int
    shared_vertex: int


@dataclass(frozen=True)
class TopObstruction:
    """A candidate top set R and a side with no disjoint path system from R.

    The k-trek search (orders >= 3) logs the first blocked side of each
    top set it tries.
    """

    top: tuple[int, ...]
    blocked_side: int


@dataclass(frozen=True)
class TrekSearchResult:
    """Either a verified intersection-free system, or why none exists.

    At order 2 an empty result carries a minimum t-separator
    (C_A, C_B) in canonical-DAG ids; from order 3 on the k-trek search
    carries the per-top obstructions of its enumeration; a found k-trek
    system carries, at every order, the sorted top set T its treks run
    from, linked to every side, in canonical-DAG ids.  The split-trek
    search carries none of these.
    """

    system: TrekSystem | None
    obstructions: tuple[TopObstruction, ...] = ()
    separator: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    top: tuple[int, ...] | None = None

    @property
    def found(self) -> bool:
        return self.system is not None


# -- reachability and path enumeration -----------------------------------


def reachable_from(g: MixedGraph, u: int) -> frozenset[int]:
    """Vertices reachable from u by directed edges, u included."""
    return _reach(g.child_lists, (u,))


def _reaching(g: MixedGraph, targets: Iterable[int], avoid: Iterable[int] = ()) -> frozenset[int]:
    """Vertices with a directed path into targets meeting no vertex of avoid (endpoints count)."""
    return _reach(g.parent_lists, targets, frozenset(avoid))


def _reach(
    children: Mapping[int, Sequence[int]], starts: Iterable[int], avoid: Container[int] = ()
) -> frozenset[int]:
    seen = {u for u in starts if u not in avoid}
    stack = list(seen)
    while stack:
        for c in children[stack.pop()]:
            if c not in seen and c not in avoid:
                seen.add(c)
                stack.append(c)
    return frozenset(seen)


def enumerate_paths(
    g: MixedGraph, u: int, v: int, budget: int = DEFAULT_BUDGET
) -> list[DirectedPath]:
    """All directed paths u -> v, lexicographic by vertex sequence.

    The trivial path [u] is returned when u == v; the list is empty
    when v is unreachable.  Raises BudgetExceeded past the cap.
    """
    vset = set(g.vertices)
    if u not in vset or v not in vset:
        raise ValueError(f"vertices {u},{v} must belong to the graph")
    return _paths_into(g, v, budget, (u,))


def _paths_into(
    g: MixedGraph, v: int, budget: int, sources: Iterable[int] | None = None
) -> list[DirectedPath]:
    """The directed paths into v from each of sources in turn (default: every
    vertex with a path into v, ascending), lexicographic by vertex sequence
    per source, by one reverse search.  Raises BudgetExceeded past the cap
    on the paths from one source."""
    children = g.child_lists
    into_v = _reaching(g, (v,))

    def dfs(path: list[int]) -> Iterator[DirectedPath]:
        cur = path[-1]
        if cur == v:
            yield DirectedPath(tuple(path))
            return
        for c in children[cur]:
            if c in into_v:
                path.append(c)
                yield from dfs(path)
                path.pop()

    starts = sorted(into_v) if sources is None else [u for u in sources if u in into_v]
    return [path for u in starts for path in _Cap(budget, f"paths {u}->{v}")(dfs([u]))]


# -- trek enumeration -----------------------------------------------------


def enumerate_ktreks(
    g: MixedGraph, sinks: Sequence[int], budget: int = DEFAULT_BUDGET
) -> list[KTrek]:
    """All k-treks into the ordered sinks, in lexicographic path order.

    Tops of both kinds are covered: a common source vertex, or a source
    tuple drawn from one hyperedge.  One tuple of paths is one trek; a
    trek whose sources coincide is reported with its vertex top even
    when a hyperedge also supports it.
    """
    k = len(sinks)
    if k < 2:
        raise ValueError("a k-trek needs k >= 2 sinks")
    vset = set(g.vertices)
    if any(s not in vset for s in sinks):
        raise ValueError(f"sinks {tuple(sinks)} must belong to the graph")
    reaching = {s: _reaching(g, (s,)) for s in set(sinks)}
    into = [reaching[s] for s in sinks]

    # A vertex t is the one-member top (t,), whose only source tuple is (t,) * k.
    source_tuples: set[tuple[int, ...]] = set()
    for top in itertools.chain(((t,) for t in g.vertices), g.multidirected_edges):
        members = sorted(set(top))
        source_tuples.update(itertools.product(
            *([m for m in members if m in reaching] for reaching in into)
        ))

    # One reverse search per distinct sink: its pool holds the paths from
    # each source some tuple sends into it, grouped by source.
    sources: dict[int, set[int]] = {}
    for srcs in source_tuples:
        for a, b in zip(srcs, sinks):
            sources.setdefault(b, set()).add(a)
    paths: dict[tuple[int, int], list[DirectedPath]] = {}
    for b, starts in sources.items():
        for path in _paths_into(g, b, budget, sorted(starts)):
            paths.setdefault((path.source, b), []).append(path)

    cap = _Cap(budget, f"k-treks into {tuple(sinks)}")
    treks: list[KTrek] = []
    for srcs in sorted(source_tuples):
        top_vertex = srcs[0] if all(s == srcs[0] for s in srcs) else None
        top_hyperedge = None
        if top_vertex is None:
            top_hyperedge = min(
                h for h in g.multidirected_edges if set(srcs) <= set(h)
            )
        treks.extend(
            KTrek(paths=tuple(combo), top_vertex=top_vertex, top_hyperedge=top_hyperedge)
            for combo in cap(itertools.product(*(paths[pair] for pair in zip(srcs, sinks))))
        )
    treks.sort(key=KTrek.sort_key)
    return treks


# -- vertex-disjoint path systems via max flow ----------------------------


class _FlowNetwork:
    """Integral max flow by shortest augmenting paths, on arc arrays.

    Arc a runs to head[a], and arc a ^ 1 is its reverse, added with it at
    capacity 0; adj[u] lists the ids of the arcs leaving u in insertion
    order.  Breadth-first search scans each node's arcs in that order and
    no step iterates over a set, so the flow found (and every witness
    read from it) depends only on the order the arcs were added.  An arc
    at capacity 0 without flow has no residual capacity either way, so no
    search takes it.  Each augmentation pushes one unit.
    """

    def __init__(self, size: int) -> None:
        self.adj: list[list[int]] = [[] for _ in range(size)]
        self.head: list[int] = []
        self.cap: list[int] = []
        self.flow: list[int] = []

    def add_arc(self, a: int, b: int, capacity: int = 1) -> int:
        """Add the arc a -> b and its reverse; the arc's id."""
        arc = len(self.head)
        self.head += (b, a)
        self.cap += (capacity, 0)
        self.adj[a].append(arc)
        self.adj[b].append(arc + 1)
        return arc

    def push(self, src: int, snk: int, want: int) -> tuple[int, dict[int, int]]:
        """Send up to ``want`` units from zero flow; the value sent and the
        last search's tree, each reached node keyed to the arc into it.

        When fewer than ``want`` units go through, the tree's nodes are
        the source side of a minimum cut.
        """
        adj, head, cap = self.adj, self.head, self.cap
        flow = self.flow = [0] * len(head)
        sent = 0
        via = {src: -1}
        while sent < want:
            via = {src: -1}
            queue = deque([src])
            while queue and snk not in via:
                u = queue.popleft()
                for arc in adj[u]:
                    w = head[arc]
                    if w not in via and cap[arc] > flow[arc]:
                        via[w] = arc
                        queue.append(w)
            if snk not in via:
                break
            node = snk
            while node != src:
                arc = via[node]
                flow[arc] += 1
                flow[arc ^ 1] -= 1
                node = head[arc ^ 1]
            sent += 1
        return sent, via

    def walk(self, node: int, stop: int) -> list[int]:
        """The nodes of one unit of flow from node to stop.

        Each arc taken loses that unit, so the next walk follows another.
        """
        adj, head, flow = self.adj, self.head, self.flow
        seq = [node]
        while node != stop:
            arc = next(a for a in adj[node] if flow[a] > 0)
            flow[arc] -= 1
            node = head[arc]
            seq.append(node)
        return seq


class _SplitGraph:
    """A DAG's vertex-split network, built once for many linkage queries.

    Vertex i is the arc from its in-node 2i to its out-node 2i + 1, and
    edge (a, b) the arc from a's out-node to b's in-node.  Then come a
    source arc into the in-node of each candidate top and a sink arc out
    of the out-node of each side vertex, each group in vertex order, all
    at capacity 0.  A query gives the vertex and edge arcs its capacity
    and raises the arcs of its tops and side positions by one each, so a
    side that repeats a vertex raises that arc as often; it restores them
    after its flow.  Arcs at capacity 0 are invisible to the flow, and
    every node keeps the relative order of its other arcs, so a query
    finds the flow and paths of a network built for it alone.

    A linkage query (linked) returns the flow it pushed without walking
    it; walk turns a returned flow into its paths.  A search walks only
    the flows of the witness it returns, and each flow once pushed is
    kept, never pushed again.
    """

    def __init__(self, dag: MixedGraph, tops: Iterable[int], side_vertices: Iterable[int]) -> None:
        self.vertices = dag.vertices
        self.idx = idx = {v: i for i, v in enumerate(dag.vertices)}
        p = len(dag.vertices)
        self.src, self.snk = 2 * p, 2 * p + 1
        net = self.net = _FlowNetwork(2 * p + 2)  # vertex i: in-node 2i, out-node 2i + 1
        for i in range(p):
            net.add_arc(2 * i, 2 * i + 1, 0)
        for a, b in dag.directed_edges:
            net.add_arc(2 * idx[a] + 1, 2 * idx[b], 0)
        self.inner = len(net.head)  # the vertex and edge arcs, each beside its reverse
        self.source = {v: net.add_arc(self.src, 2 * idx[v], 0) for v in sorted(set(tops))}
        self.sink = {
            v: net.add_arc(2 * idx[v] + 1, self.snk, 0) for v in sorted(set(side_vertices))
        }

    def linked(self, tops: Sequence[int], side: Sequence[int], through: int) -> list[int] | None:
        """The flow of _side_paths on this network, unwalked, else None: tops
        among its candidate tops, side vertices among its side vertices."""
        net, n = self.net, len(tops)
        cap = net.cap
        cap[0 : self.inner : 2] = [through] * (self.inner // 2)
        raised = [self.source[v] for v in tops] + [self.sink[v] for v in side]
        for arc in raised:
            cap[arc] += 1
        sent = net.push(self.src, self.snk, n)[0]
        for arc in raised:
            cap[arc] -= 1
        return net.flow if sent == n else None

    def walk(self, tops: Sequence[int], flow: list[int]) -> list[DirectedPath]:
        """The paths of a flow that linked returned for these tops, aligned
        with them; the flow itself is left as it is."""
        net, idx = self.net, self.idx
        net.flow = list(flow)
        # A walk alternates out-nodes and in-nodes and ends at the sink, an
        # odd position: its even positions are the out-nodes of the path.
        walks = [net.walk(2 * idx[v] + 1, self.snk) for v in tops]
        return [DirectedPath(tuple(self.vertices[x // 2] for x in w[::2])) for w in walks]

    def paths(
        self, tops: Sequence[int], side: Sequence[int], through: int
    ) -> list[DirectedPath] | None:
        """_side_paths on this network: linked, then walk."""
        flow = self.linked(tops, side, through)
        return None if flow is None else self.walk(tops, flow)


def exists_disjoint_path_system(
    g: MixedGraph, r: Sequence[int], s: Sequence[int]
) -> list[DirectedPath] | None:
    """A system of #R vertex-disjoint paths from R onto S, else None.

    Unit vertex capacities via vertex splitting; integral max flow, so
    polynomial.  The returned list is aligned with R's order (path i
    starts at r[i]); endpoints cover S exactly.  The entry for outside
    input: the package's searches call _side_paths, unchecked.
    """
    rr, ss = list(r), list(s)
    if len(rr) != len(ss):
        raise ValueError("R and S must have equal size")
    if len(set(rr)) != len(rr) or len(set(ss)) != len(ss):
        raise ValueError("R and S must consist of distinct vertices")
    if not set(rr + ss) <= set(g.vertices):
        raise ValueError("R and S must belong to the graph")
    return _side_paths(g, rr, ss, 1)


def _side_paths(
    dag: MixedGraph, tops: Sequence[int], side: Sequence[int], through: int
) -> list[DirectedPath] | None:
    """One path from each top onto its own position of the side, else None.

    Every vertex and edge carries up to ``through`` paths (vertex
    splitting), each top starts one and each side position takes one,
    so a side that repeats a vertex takes that many.  With ``through =
    1`` the paths are vertex-disjoint; with ``through = n`` they only
    need distinct positions (the open side 1).  Aligned with ``tops``.
    The one-shot entry: a search that asks many queries holds one
    _SplitGraph and asks it instead.
    """
    return _SplitGraph(dag, tops, side).paths(tops, side, through)


# -- sides -----------------------------------------------------------------


def checked_sides(
    vertices: Iterable[int], sides: Sequence[Sequence[int]]
) -> tuple[tuple[int, ...], ...]:
    """The sides as tuples: at least two, of equal nonzero size, over known vertices.

    A vertex id must be an int, not a bool or a float that equals one.
    Repeated vertices pass; where a repeat matters, repeated_side says so.
    """
    side_lists = tuple(tuple(side) for side in sides)
    if len(side_lists) < 2:
        raise ValueError("need at least two sides")
    n = len(side_lists[0])
    if n == 0 or any(len(side) != n for side in side_lists):
        raise ValueError("sides must be nonempty and of equal size")
    vset = set(vertices)
    for side in side_lists:
        if any(isinstance(v, bool) or not isinstance(v, int) for v in side):
            raise ValueError(f"side {side} holds a vertex id that is not an int")
        if any(v not in vset for v in side):
            raise ValueError(f"side {side} leaves the vertex set")
    return side_lists


def repeated_side(
    sides: Sequence[Sequence[int]], open_first_side: bool
) -> tuple[int, ...] | None:
    """The first side that repeats a vertex, side 1 exempt when open; else None.

    Such a repeat blocks every disjoint path system onto its side.  With
    ``open_first_side = k odd`` (the oracle's rule) it also forces a zero
    determinant: equal slices along a signed mode (2..k, or 1 at even k).
    """
    for i, side in enumerate(sides):
        if len(set(side)) != len(side) and not (open_first_side and i == 0):
            return tuple(side)
    return None


# -- trek systems ----------------------------------------------------------


def make_trek_system(treks: Sequence[Trek], sides: Sequence[Sequence[int]]) -> TrekSystem:
    """Assemble a TrekSystem, computing induced permutations and sign.

    Treks must already be ordered so trek j's side-1 sink is sides[0][j];
    every side's sinks must cover that side exactly.
    """
    k = len(sides)
    n = len(treks)
    side_lists = [list(side) for side in sides]
    for j, trek in enumerate(treks):
        if trek.order != k:
            raise ValueError(f"trek {j} has order {trek.order}, expected {k}")
        if trek.paths[0].sink != side_lists[0][j]:
            raise ValueError("treks are not aligned with side 1's order")
    perms: list[tuple[int, ...]] = []
    for i in range(1, k):
        positions = []
        for trek in treks:
            sink = trek.paths[i].sink
            try:
                positions.append(side_lists[i].index(sink))
            except ValueError:
                raise ValueError(f"sink {sink} is not in side {i + 1}") from None
        if sorted(positions) != list(range(n)):
            raise ValueError(f"side {i + 1} endpoints do not cover the side exactly")
        perms.append(tuple(positions))
    sign = 1
    for p in perms:
        sign *= perm_sign(p)
    return TrekSystem(
        treks=tuple(treks),
        side_endpoints=tuple(tuple(side) for side in side_lists),
        induced_permutations=tuple(perms),
        sign=sign,
    )


def find_sided_intersection(
    system: TrekSystem, open_first_side: bool = False
) -> SidedIntersectionWitness | None:
    """First (side, trek pair, smallest vertex) shared on one side, if any.

    With ``open_first_side`` meetings on side 1 are allowed and only
    sides 2..k are checked.
    """
    return sided_intersection_of_paths([
        [] if open_first_side and i == 0 else [trek.paths[i] for trek in system.treks]
        for i in range(len(system.side_endpoints))
    ])


def sided_intersection_of_paths(
    paths_by_side: Sequence[Sequence[DirectedPath]],
) -> SidedIntersectionWitness | None:
    for i, side_paths in enumerate(paths_by_side):
        for a in range(len(side_paths)):
            va = set(side_paths[a].vertices)
            for b in range(a + 1, len(side_paths)):
                shared = va & set(side_paths[b].vertices)
                if shared:
                    return SidedIntersectionWitness(
                        trek_index_a=a, trek_index_b=b, side=i + 1, shared_vertex=min(shared)
                    )
    return None


def exists_trek_system_no_sided_intersection(
    g: MixedGraph,
    sides: Sequence[Sequence[int]],
    budget: int = DEFAULT_BUDGET,
    open_first_side: bool = False,
) -> TrekSearchResult:
    """Search for an intersection-free system of k-treks between the sides.

    By default this is the paper's criterion: every side needs a
    vertex-disjoint path system from n distinct tops.  A found system
    certifies that the cumulant subtensor determinant is generically
    nonzero at every order, and at even orders an empty result proves
    that it vanishes identically.  At odd orders the converse fails on
    rare configurations: systems whose treks meet only on side 1 carry
    equal signs and need not cancel.

    At order 2 one max flow on the doubled graph decides the search (see
    _trek_flow); ``budget`` is unused there, and an empty result carries
    a minimum t-separator instead of obstructions.  Side 1 cannot be
    open at order 2.

    With ``open_first_side=True`` side 1 is open: on it each vertex
    carries up to n paths and each side-1 position takes one, so the
    side-1 paths may meet and side 1 may repeat a vertex; sides 2..k
    still need disjoint path systems (a repeat on a side that needs one
    is a ValueError).  This is the exact rule at odd orders: the search
    then finds a system iff the cumulant determinant is a nonzero
    polynomial (proof at first_linked_top).

    Hyperedges are handled through the canonical DAG and the found
    system is re-expressed over the original vertices (treks topped at
    a latent become hyperedge-supported treks).  Separators and
    obstruction-log tops cite canonical-DAG vertex ids, so latent ids
    can appear there.
    """
    side_lists = checked_sides(g.vertices, sides)
    if open_first_side and len(side_lists) == 2:
        raise ValueError("the order-2 search has no open side")
    repeat = repeated_side(side_lists, open_first_side)
    if repeat is not None:
        raise ValueError(f"side {repeat} repeats a vertex")
    canon = canonical_dag(g)
    if len(side_lists) == 2:
        result = _trek_flow(canon.dag, side_lists)
    else:
        result = first_linked_top(canon.dag, side_lists, open_first_side=open_first_side, budget=budget)
    if result.system is None:
        return result
    if not g.is_dag:  # a trek topped at a latent is supported by its hyperedge
        treks = [
            KTrek(
                tuple(DirectedPath(p.vertices[1:]) for p in t.paths),
                top_hyperedge=canon.latent_of[t.top_vertex],
            ) if t.top_vertex in canon.latent_of else t
            for t in result.system.treks
        ]
        result = TrekSearchResult(make_trek_system(treks, side_lists), result.obstructions, top=result.top)
    _verify_system(g, result.system, open_first_side)
    return result


def first_linked_top(
    dag: MixedGraph,
    sides: Sequence[Sequence[int]],
    tops: Iterable[Sequence[int]] | None = None,
    open_first_side: bool = False,
    budget: int = DEFAULT_BUDGET,
) -> TrekSearchResult:
    """The first top set T linked to every side, with its trek system, or the log of blocked T.

    T runs over the n-sets, in itertools.combinations order, of the
    vertices with a path into every side, or over ``tops``.  T is linked
    to a side when one path runs from each vertex of T onto its own
    position of the side, one flow per side (_side_paths) on one split
    graph per search (_SplitGraph): capacity 1 on a closed side, so its
    paths are vertex-disjoint, capacity n on side 1 when it is open, so
    they may meet.  Only the k flows of the returned T are walked into
    paths; a blocked T's linked sides are never walked.  The found
    system's treks run from T, and the result names T in the DAG's
    vertex ids; each T tried before logs its first blocked side.  The
    public search checks the witness.  Raises BudgetExceeded past
    ``budget`` top sets.

    With side 1 open exactly at odd k (the oracle's rule) this is also
    the exact zero test of the cumulant determinant on a DAG.  The noise
    core is diagonal, so Cauchy-Binet applied once per
    mode gives

        Det C^(k)[S_1..S_k] = sum_T kappa_T {det|perm}(B[T,S_1]) prod_{m>=2} det(B[T,S_m])

    over the n-sets T, with kappa_T the product of the order-k noise
    cumulants of the vertices of T and B = (I - Lambda)^{-1} the path
    sums.  Side 1 takes the determinant at even k and the permanent at
    odd k: its mode carries no permutation, so reordering T flips the
    sign of the k - 1 signed factors only.  Distinct T give distinct
    monomials kappa_T and B holds no kappa, so Det is the zero polynomial
    iff every coefficient is; a coefficient is a product of polynomials,
    nonzero iff every factor is.  A minor det(B[T,S_m]) is a signed sum
    over the vertex-disjoint path systems from T onto S_m
    (Lindstrom-Gessel-Viennot); distinct systems use distinct edge sets,
    so their monomials differ, and the minor is nonzero iff such a system
    exists.  The permanent is decided by its support: a path sum adds one
    monomial per path, so every cell and every product of cells has
    nonnegative coefficients, a sum of such polynomials is zero only if
    every summand is, and the permanent is nonzero iff some permutation
    meets no zero cell, that is iff T matches onto the side-1 positions
    it reaches, which is what the open flow decides.  So the first
    linked T is the first nonzero term of the determinant, and none
    exists iff it vanishes identically.

    So the enumeration of C(u, n) top sets cannot be avoided in the worst
    case: 3-dimensional matching (3DM; Karp 1972) reduces to it.  Each
    triple is a top vertex with one edge to each of its x, y and z; the
    sides are X, Y and Z, plus Z again as side 4 at k = 4.  Every path
    has one edge, so T is linked to a side, open or closed, iff it
    matches onto it, and a linked T is a perfect matching.  With the
    trek system as certificate, NotVanishes is NP-complete from k = 3
    on, while at k = 2 one max flow decides (_trek_flow).
    """
    n, k = len(sides[0]), len(sides)
    through = [n if open_first_side else 1] + [1] * (k - 1)  # path capacity per side
    if tops is None:
        into = [_reaching(dag, side) for side in sides]
        useful = [v for v in dag.vertices if all(v in reaching for reaching in into)]
        tops = itertools.combinations(useful, n)
    else:
        tops = [tuple(top) for top in tops]
        useful = [v for top in tops for v in top]
    split = _SplitGraph(dag, useful, itertools.chain(*sides))
    obstructions: list[TopObstruction] = []
    for top in _Cap(budget, "candidate top sets")(tops):
        # each side's flow in turn (None where T is not linked), up to the first None
        flows = (split.linked(top, side, c) for side, c in zip(sides, through))
        linked = list(itertools.takewhile(bool, flows))
        if len(linked) < k:
            obstructions.append(TopObstruction(top=top, blocked_side=len(linked) + 1))
            continue
        per_side = [split.walk(top, flow) for flow in linked]
        # Place the treks in side 1's order; a repeated vertex takes its
        # treks in top order, one per position.
        by_sink: dict[int, list[KTrek]] = {}
        for j, v in enumerate(top):
            trek = KTrek(paths=tuple(paths[j] for paths in per_side), top_vertex=v)
            by_sink.setdefault(trek.paths[0].sink, []).append(trek)
        system = make_trek_system([by_sink[v].pop(0) for v in sides[0]], sides)
        return TrekSearchResult(system=system, obstructions=tuple(obstructions), top=top)
    return TrekSearchResult(system=None, obstructions=tuple(obstructions))


def _trek_flow(dag: MixedGraph, sides: tuple[tuple[int, ...], ...]) -> TrekSearchResult:
    """The order-2 search as one max flow on the doubled graph.

    Copy 1 is the DAG reversed and side A feeds it from the source; copy
    2 is the DAG itself and side B drains it into the sink; an arc from
    v in copy 1 to v in copy 2 turns a trek at its top.  Every vertex
    has capacity 1 in each copy and every other arc capacity n, so a
    unit of flow is a trek, a flow of value n is a system without sided
    intersection (tops are distinct because each is used once in copy
    1), and a smaller flow leaves a minimum cut made of vertex arcs
    only: its copy-1 and copy-2 vertices t-separate the sides with
    total size below n (Sullivant, Talaska and Draisma 2010).  A found
    result names its treks' sorted tops, linked to both sides by the
    vertex-disjoint paths of each copy.  The public search checks the witness.
    """
    side_a, side_b = sides
    n = len(side_a)
    idx = {v: i for i, v in enumerate(dag.vertices)}
    p = len(dag.vertices)
    src, snk = 4 * p, 4 * p + 1
    # vertex i: copy-1 in/out nodes 4i, 4i + 1; copy-2 in/out nodes 4i + 2, 4i + 3
    net = _FlowNetwork(4 * p + 2)
    for i in range(p):
        net.add_arc(4 * i, 4 * i + 1)
        net.add_arc(4 * i + 1, 4 * i + 2, n)
        net.add_arc(4 * i + 2, 4 * i + 3)
    for u, w in dag.directed_edges:
        net.add_arc(4 * idx[w] + 1, 4 * idx[u], n)
        net.add_arc(4 * idx[u] + 3, 4 * idx[w] + 2, n)
    for v in side_a:
        net.add_arc(src, 4 * idx[v], n)
    for v in side_b:
        net.add_arc(4 * idx[v] + 3, snk, n)
    sent, reached = net.push(src, snk, n)
    if sent < n:
        # the cut arcs are vertex arcs, in copy 1 (c = 0) or copy 2 (c = 2)
        separator = tuple(
            tuple(
                v for i, v in enumerate(dag.vertices)
                if 4 * i + c in reached and 4 * i + c + 1 not in reached
            )
            for c in (0, 2)
        )
        return TrekSearchResult(system=None, separator=separator)
    treks = []
    for a in side_a:
        nodes = net.walk(4 * idx[a], snk)[:-1]
        up = [dag.vertices[x // 4] for x in reversed(nodes) if x % 4 == 1]
        down = [dag.vertices[x // 4] for x in nodes if x % 4 == 3]
        treks.append(KTrek(paths=(DirectedPath(up), DirectedPath(down)), top_vertex=up[0]))
    system = make_trek_system(treks, sides)
    return TrekSearchResult(system=system, top=tuple(sorted(t.top_vertex for t in treks)))


def system_defect(
    g: MixedGraph, system: TrekSystem, open_first_side: bool = False
) -> str | None:
    """Why the system is no intersection-free witness in g, else None.

    Every path must be a path of g, hyperedge tops must be distinct
    hyperedges of g (one hyperedge is one latent top of the canonical
    DAG), and no two treks may share a vertex on one side (sides 2..k
    only, when side 1 is open).
    """
    for trek in system.treks:
        for path in trek.paths:
            if not path.is_path_of(g):
                return f"path {list(path.vertices)} is not a path of the graph"
    hyperedges = [t.top_hyperedge for t in system.treks if t.top_hyperedge is not None]
    for h in hyperedges:
        if h not in g.multidirected_edges:
            return f"hyperedge {list(h)} is not in the graph"
    if len(set(hyperedges)) != len(hyperedges):
        return "treks share a hyperedge top"
    if find_sided_intersection(system, open_first_side) is not None:
        return "system has a sided intersection"
    return None


def _verify_system(g: MixedGraph, system: TrekSystem, open_first_side: bool) -> None:
    """Independent check of every returned witness."""
    defect = system_defect(g, system, open_first_side)
    if defect is not None:
        raise InternalInconsistency(f"returned witness {defect}")


# -- the signed trek-system expansion --------------------------------------


def signed_system_sum(
    sides: Sequence[Sequence[int]],
    treks_into: Callable[[tuple[int, ...]], Sequence],
    monomial: Callable[[object], object],
    budget: int = DEFAULT_BUDGET,
) -> object:
    """Subtensor determinant as a signed sum over trek systems (sides from checked_sides).

    ``treks_into`` lists the treks into a sink tuple (k-treks, or
    split-treks on the moment side); ``monomial`` gives a trek's term.
    Each system of n treks, trek j into row j of side 1 and row
    sigma_i(j) of side i, whose paths on sides 2..k are pairwise
    disjoint adds sign(sigma_2)...sign(sigma_k) times its monomials.
    A tail swap at a shared vertex of side i >= 2 negates one sign, so
    the skipped systems cancel in pairs and the sum is exact at every
    order; side 1 is not filtered, because a swap there multiplies the
    sign by (-1)**(k-1), which cancels nothing at odd k.
    """
    k = len(sides)
    n = len(sides[0])
    pool = functools.cache(treks_into)
    cap = _Cap(budget, "trek-system candidates")
    total = 0
    perms, signs = signed_permutations(n)
    for combo in itertools.product(range(len(perms)), repeat=k - 1):
        sign = 1
        for c in combo:
            sign *= signs[c]
        pools = [
            pool((sides[0][j],) + tuple(sides[i + 1][perms[c][j]] for i, c in enumerate(combo)))
            for j in range(n)
        ]
        if any(not trek_pool for trek_pool in pools):
            continue
        for system in cap(itertools.product(*pools)):
            if sided_intersection_of_paths(
                [[trek.paths[i] for trek in system] for i in range(1, k)]
            ) is not None:
                continue
            term = 1
            for trek in system:
                term = term * monomial(trek)
                if not term:
                    break
            if not term:
                continue
            total = total + (term if sign > 0 else -term)
    return total


# -- k-trek separation -----------------------------------------------------


def check_ktrek_separation(
    g: MixedGraph,
    sides: Sequence[Sequence[int]],
    blockers: Sequence[Sequence[int]],
    budget: int = DEFAULT_BUDGET,
) -> bool:
    """True iff every k-trek between the sides is blocked.

    (A_1..A_k) separates when every k-trek into any sink tuple from
    S_1 x ... x S_k has, on some side j, a path through A_j (endpoints
    count).  Decided by per-side reachability avoiding A_j, which is
    exhaustive: a trek exists iff some top offers every side an
    avoiding path.
    """
    if len(blockers) != len(sides):
        raise ValueError("need one blocking set per side")
    vset = set(g.vertices)
    for group in [*sides, *blockers]:
        if any(v not in vset for v in group):
            raise ValueError("sides and blockers must belong to the graph")
    # per side, the tops with a path into it that avoids its blocking set
    opens = [_reaching(g, side, a) for side, a in zip(sides, blockers)]
    tops = itertools.chain(((t,) for t in g.vertices), g.multidirected_edges)
    for top in _Cap(budget, "separation top candidates")(tops):
        if all(any(m in reaching for m in top) for reaching in opens):
            return False
    return True


def find_ktrek_separating_sets(
    g: MixedGraph,
    sides: Sequence[Sequence[int]],
    budget: int,
    cap: int = DEFAULT_BUDGET,
) -> tuple[tuple[int, ...], ...] | None:
    """Smallest-total-size separating tuple (A_1..A_k) with total <= budget.

    Exhaustive, smallest total size first, lexicographic tie-break; None
    when no tuple within the budget separates.  ``cap`` bounds the
    number of tuples tried.
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    k = len(sides)
    verts = list(g.vertices)
    candidates = _Cap(cap, "separating-set candidates")
    for total in range(budget + 1):
        for sizes in itertools.product(range(total + 1), repeat=k):
            if sum(sizes) != total:
                continue
            for combo in candidates(itertools.product(
                *(itertools.combinations(verts, size) for size in sizes)
            )):
                if check_ktrek_separation(g, sides, combo, budget=cap):
                    return tuple(tuple(a) for a in combo)
    return None


# -- JSON shapes for certificates -----------------------------------------


def trek_system_to_doc(system: TrekSystem) -> dict:
    treks = []
    for trek in system.treks:
        top: dict[str, object]
        if trek.top_vertex is not None:
            top = {"vertex": trek.top_vertex}
        else:
            top = {"hyperedge": list(trek.top_hyperedge), "sources": list(trek.sources)}
        treks.append({"paths": [list(p.vertices) for p in trek.paths], "top": top})
    return {
        "treks": treks,
        "side_endpoints": [list(side) for side in system.side_endpoints],
        "permutations": [list(p) for p in system.induced_permutations],
        "sign": system.sign,
    }


def trek_system_from_doc(doc: dict) -> TrekSystem:
    treks = []
    for i, entry in enumerate(doc["treks"]):
        paths = tuple(map(DirectedPath, read_ints(entry["paths"], f"/treks/{i}/paths", 2)))
        top = entry["top"]
        if "vertex" in top:
            treks.append(KTrek(paths=paths, top_vertex=read_ints(top["vertex"], f"/treks/{i}/top/vertex", 0)))
        else:
            members = read_ints(top["hyperedge"], f"/treks/{i}/top/hyperedge")
            treks.append(KTrek(paths=paths, top_hyperedge=tuple(sorted(members))))
    return make_trek_system(treks, read_ints(doc["side_endpoints"], "/side_endpoints", 2))


def obstructions_to_doc(obstructions: Iterable[TopObstruction]) -> list[dict]:
    return [
        {"top": list(o.top), "blocked_side": o.blocked_side} for o in obstructions
    ]
