"""Shared fixtures and brute-force oracles for the test-suite.

The oracles here (path enumeration, permutation-expansion determinants,
disjoint path systems) are deliberately independent re-implementations:
they exist to cross-check the package, so they must not call into the
routines they validate.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
from collections import Counter, deque
from fractions import Fraction
from typing import Iterable, Sequence

import pytest

from multitrek import DiagonalSpec, HyperedgeSpec, MixedGraph, ModelInstance, NoiseCumulants
from multitrek.moments import split_trek_from_paths
from multitrek.polynomial import Poly
from multitrek.treks import (
    DirectedPath,
    KTrek,
    TrekSearchResult,
    _Cap,
    _reaching,
    _side_paths,
    make_trek_system,
)

# -- frozen graphs ---------------------------------------------------------


@pytest.fixture
def two_root_dag() -> MixedGraph:
    # Two independent roots with overlapping descendant sets; vertex 3 is
    # intentionally absent so ids and dense positions differ.
    return MixedGraph(
        vertices=(1, 2, 4, 5, 6, 7, 8),
        directed_edges=((1, 4), (1, 6), (1, 7), (2, 6), (2, 8), (4, 5)),
    )


@pytest.fixture
def star() -> MixedGraph:
    return MixedGraph(vertices=(0, 1, 2, 3), directed_edges=((0, 1), (0, 2), (0, 3)))


@pytest.fixture
def collider() -> MixedGraph:
    return MixedGraph(vertices=(1, 2, 3), directed_edges=((1, 3), (2, 3)))


@pytest.fixture
def chain2() -> MixedGraph:
    return MixedGraph(vertices=(1, 2), directed_edges=((1, 2),))


@pytest.fixture
def latent_triple() -> MixedGraph:
    # One order-3 multidirected edge; third cross-cumulant is non-zero.
    return MixedGraph(vertices=(1, 2, 3), multidirected_edges=((1, 2, 3),))


@pytest.fixture
def pairwise_triple() -> MixedGraph:
    # Pairwise multidirected edges only; third cross-cumulant vanishes.
    return MixedGraph(
        vertices=(1, 2, 3), multidirected_edges=((1, 2), (1, 3), (2, 3))
    )


@pytest.fixture
def menger_gap() -> tuple[MixedGraph, tuple[tuple[int, ...], ...]]:
    """Graph + sides where the order-3 determinant vanishes yet no
    blocking tuple of total size <= n-1 = 1 exists (found by search,
    then frozen; both decision modes confirm the vanishing)."""
    g = MixedGraph(
        vertices=(1, 2, 3, 4, 5, 6),
        directed_edges=((1, 4), (1, 5), (2, 4), (2, 5), (3, 5), (5, 6)),
    )
    return g, ((3, 4), (1, 6), (2, 5))


@pytest.fixture
def factorization_dag() -> MixedGraph:
    # det N^(4)_{1,2,3,4} = 0 and det N^(2)_{1,2} = 0 while
    # det N^(2)_{3,4} != 0: the order-4 vanishing factors through a
    # lower-order vanishing on one complementary pair of sides.
    return MixedGraph(vertices=(1, 2, 3, 4, 5), directed_edges=((5, 3), (5, 4)))


# -- random generators -----------------------------------------------------


def random_dag(
    rng: random.Random,
    max_vertices: int = 8,
    edge_prob: float = 0.5,
    min_vertices: int = 2,
) -> MixedGraph:
    p = rng.randint(min_vertices, max_vertices)
    vs = tuple(range(1, p + 1))
    edges = tuple(
        (a, b) for a, b in itertools.combinations(vs, 2) if rng.random() < edge_prob
    )
    return MixedGraph(vertices=vs, directed_edges=edges)


def random_mixed(
    rng: random.Random,
    max_vertices: int = 7,
    edge_prob: float = 0.4,
    max_hyperedges: int = 2,
    max_hyper_order: int = 4,
) -> MixedGraph:
    g = random_dag(rng, max_vertices=max_vertices, edge_prob=edge_prob)
    hyper = []
    for _ in range(rng.randint(0, max_hyperedges)):
        size = rng.randint(2, min(max_hyper_order, len(g.vertices)))
        hyper.append(tuple(sorted(rng.sample(g.vertices, size))))
    return MixedGraph(
        vertices=g.vertices,
        directed_edges=g.directed_edges,
        multidirected_edges=tuple(hyper),
    )


def random_sides(
    rng: random.Random, g: MixedGraph, k: int, n: int
) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(sorted(rng.sample(g.vertices, n))) for _ in range(k))


def three_dm_instance(
    rng: random.Random, q: int, planted: bool
) -> tuple[MixedGraph, tuple[tuple[int, ...], ...], list[tuple[int, int, int]]]:
    """A seeded 3-dimensional-matching instance as a DAG: (graph, sides, triples).

    There are 2q triples over X = Y = Z = range(q); with ``planted`` the
    first q of them, before shuffling, form a perfect matching.  Triple
    t is vertex t with one edge to each of its x, y and z; element e of
    X, Y and Z is vertex 2q + e, 3q + e and 4q + e, and the sides are X,
    Y and Z in that order; a decision at k = 4 repeats Z as side 4.
    """
    triples = []
    if planted:
        ys, zs = rng.sample(range(q), q), rng.sample(range(q), q)
        triples = list(zip(range(q), ys, zs))
    while len(triples) < 2 * q:
        triples.append(tuple(rng.randrange(q) for _ in range(3)))
    rng.shuffle(triples)
    edges = tuple(
        (t, (c + 2) * q + e) for t, triple in enumerate(triples) for c, e in enumerate(triple)
    )
    sides = tuple(tuple(range((c + 2) * q, (c + 3) * q)) for c in range(3))
    return MixedGraph(vertices=tuple(range(5 * q)), directed_edges=edges), sides, triples


def has_perfect_3d_matching(triples: Sequence[tuple[int, int, int]], q: int) -> bool:
    """Brute force: do some q of the triples cover every element of each coordinate?"""
    return any(
        all(len({triple[c] for triple in chosen}) == q for c in range(3))
        for chosen in itertools.combinations(triples, q)
    )


def non_integral_twin(inst: ModelInstance, rng: random.Random) -> ModelInstance:
    """The instance with every value a small Fraction: mostly non-integral, some zero."""

    def value(_):
        return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 5, 7)))

    return ModelInstance(
        lam={e: value(x) for e, x in inst.lam.items()},
        noise={
            order: NoiseCumulants(
                diag=DiagonalSpec({v: value(x) for v, x in nc.diag.values.items()}),
                hyper=HyperedgeSpec({key: value(x) for key, x in nc.hyper.entries.items()}),
            )
            for order, nc in inst.noise.items()
        },
    )


# -- independent oracles ---------------------------------------------------


def all_paths(g: MixedGraph, u: int, v: int) -> list[tuple[int, ...]]:
    """Every directed path u -> v by naive DFS (trivial path included)."""
    adj: dict[int, list[int]] = {a: [] for a in g.vertices}
    for a, b in g.directed_edges:
        adj[a].append(b)
    out: list[tuple[int, ...]] = []

    def walk(path: list[int]) -> None:
        if path[-1] == v:
            out.append(tuple(path))
        for w in adj[path[-1]]:
            walk(path + [w])

    walk([u])
    return out


def perm_sign_by_inversions(perm: tuple[int, ...]) -> int:
    inv = sum(
        1
        for i in range(len(perm))
        for j in range(i + 1, len(perm))
        if perm[i] > perm[j]
    )
    return -1 if inv % 2 else 1


def det_by_permutation_expansion(rows: list[list[Fraction]]) -> Fraction:
    n = len(rows)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        term = Fraction(perm_sign_by_inversions(perm))
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


def hyperdet_by_leibniz(n: int, k: int, entry, one):
    """Order-k Leibniz sum over (k-1)-tuples of permutations, every term kept.

    Terms in itertools order, each multiplied row by row from ``one``;
    the oracle for multitrek.tensors' determinant routes.
    """
    total = 0
    for perms in itertools.product(itertools.permutations(range(n)), repeat=k - 1):
        sign = 1
        for perm in perms:
            sign *= perm_sign_by_inversions(perm)
        term = one
        for i in range(n):
            term = term * entry((i,) + tuple(perm[i] for perm in perms))
        total = total + (term if sign > 0 else -term)
    return total


def moment_by_noise_moments(g: MixedGraph, inst, k: int):
    """Order-k moments of the observed vector, straight from the noise moments.

    Returns entry(indices) for vertex-id tuples: the sum over j in V^k of
    E[eps_j1 ... eps_jk] * m[j_1][i_1] * ... * m[j_k][i_k], with
    m = (I - Lambda)^{-1} = sum of the powers of Lambda (nilpotent on a
    DAG).  E[eps_j] multiplies, over the distinct vertices of j, the
    closed-form moment of that multiplicity: mu_1 = 0, mu_2 = k2,
    mu_3 = k3, mu_4 = k4 + 3 k2^2, mu_5 = k5 + 10 k3 k2.
    """
    vs = g.vertices
    p = len(vs)
    pos = {v: i for i, v in enumerate(vs)}
    lam = [[inst.lam.get((u, v), 0) for v in vs] for u in vs]
    power = [[int(i == j) for j in range(p)] for i in range(p)]
    m = [row[:] for row in power]
    for _ in range(p):
        power = [[sum(power[i][t] * lam[t][j] for t in range(p)) for j in range(p)] for i in range(p)]
        m = [[m[i][j] + power[i][j] for j in range(p)] for i in range(p)]

    def kappa(order, v):
        return inst.noise[order].diag.values.get(v, 0) if order in inst.noise else 0

    def mu(mult, v):
        if mult == 1:
            return 0
        if mult == 4:
            return kappa(4, v) + 3 * kappa(2, v) * kappa(2, v)
        if mult == 5:
            return kappa(5, v) + 10 * kappa(3, v) * kappa(2, v)
        return kappa(mult, v)

    noise = {}
    for j in itertools.product(vs, repeat=k):
        value = 1
        for v in set(j):
            value = value * mu(j.count(v), v)
        if value:
            noise[j] = value

    def entry(indices):
        total = 0
        for j, value in noise.items():
            term = value
            for jt, it in zip(j, indices):
                term = term * m[pos[jt]][pos[it]]
            total = total + term
        return total

    return entry


def minor_det_by_path_systems(
    g: MixedGraph,
    lam: dict[tuple[int, int], Fraction],
    rows: tuple[int, ...],
    cols: tuple[int, ...],
) -> Fraction:
    """Signed sum over vertex-disjoint path systems rows -> cols.

    Brute force over all path combinations; the oracle for the
    path-matrix minor identity.
    """
    n = len(rows)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        sign = perm_sign_by_inversions(perm)
        pools = [all_paths(g, rows[i], cols[perm[i]]) for i in range(n)]
        for combo in itertools.product(*pools):
            seen: set[int] = set()
            disjoint = True
            for path in combo:
                for x in path:
                    if x in seen:
                        disjoint = False
                        break
                    seen.add(x)
                if not disjoint:
                    break
            if not disjoint:
                continue
            weight = Fraction(sign)
            for path in combo:
                for a, b in zip(path, path[1:]):
                    weight *= lam[(a, b)]
            total += weight
    return total


def nonzero_top_by_path_polynomials(
    dag: MixedGraph, sides: Sequence[Sequence[int]], tops: Iterable[Sequence[int]] | None = None
) -> tuple[int, ...] | None:
    """The first n-set T of DAG vertices, in itertools.combinations order
    or over ``tops``, whose every factor of the cumulant determinant is a
    nonzero polynomial, else None.

    The determinant is sum_T kappa_T {det|perm}(B[T,S_1]) prod_{m>=2}
    det(B[T,S_m]), with the permanent on side 1 at odd k.  Each path sum
    B[t][s] is a Poly with one monomial per path (variable "lu_v" per
    edge), and each factor is expanded in full by the Leibniz formula; the
    reference for the flow zero test, multitrek.treks.first_linked_top.
    """
    n, k = len(sides[0]), len(sides)

    @functools.cache
    def path_sum(u: int, v: int) -> Poly:
        total = Poly()
        for path in all_paths(dag, u, v):
            term = Poly.const(1)
            for a, b in zip(path, path[1:]):
                term = term * Poly.var(f"l{a}_{b}")
            total = total + term
        return total

    for top in itertools.combinations(dag.vertices, n) if tops is None else tops:
        for m, side in enumerate(sides):
            factor = Poly()
            for perm in itertools.permutations(range(n)):
                term = Poly.const(1 if m == 0 and k % 2 else perm_sign_by_inversions(perm))
                for i in range(n):
                    term = term * path_sum(top[i], side[perm[i]])
                factor = factor + term
            if not factor:
                break
        else:
            return tuple(top)
    return None


def split_system_by_column_product(
    g: MixedGraph, sides: Sequence[Sequence[int]], budget: int
) -> TrekSearchResult:
    """The split-trek system search as a loop over the full product of columns.

    Draws every tuple of per-side columns (n-subsets of the vertices that
    reach the side) in itertools.product order, runs each side's disjoint
    path flow up to the first side with none, and on a tuple with a
    system on every side tries every per-side bijection, side 1 fixed,
    until every row's source multiset is singleton-free.  The budget
    counts tuples and bijections alike.  The reference for the pruned
    search, multitrek.moments.exists_split_trek_system_no_sided_intersection.
    """
    side_lists = [tuple(side) for side in sides]
    n, k = len(side_lists[0]), len(side_lists)
    flow = functools.cache(lambda i, columns: _side_paths(g, columns, side_lists[i], 1))
    cap = _Cap(budget, "split-system column candidates")
    column_choices = [
        list(itertools.combinations(sorted(_reaching(g, side)), n)) for side in side_lists
    ]
    perms = list(itertools.permutations(range(n)))
    for cols in cap(itertools.product(*column_choices)):
        per_side = list(itertools.takewhile(bool, (flow(i, c) for i, c in enumerate(cols))))
        if len(per_side) < k:
            continue
        chosen = next((
            bijections for bijections in cap(itertools.product(perms[:1], *[perms] * (k - 1)))
            if all(
                1 not in Counter(col[b[x]] for col, b in zip(cols, bijections)).values()
                for x in range(n)
            )
        ), None)
        if chosen is None:
            continue
        treks = [
            split_trek_from_paths([paths[b[x]] for paths, b in zip(per_side, chosen)])
            for x in range(n)
        ]
        treks.sort(key=lambda trek: side_lists[0].index(trek.paths[0].sink))
        return TrekSearchResult(system=make_trek_system(treks, side_lists))
    return TrekSearchResult(system=None)


# -- max flow on a network keyed by node pairs -------------------------------


class FlowNetworkByPairs:
    """Integral max flow by shortest augmenting paths, capacities and flows
    keyed by (tail, head) pairs, one network per question.  A pair added
    again adds its capacity to the first; the reverse pair shares the
    adjacency entries.  The reference for the arc arrays of
    multitrek.treks._FlowNetwork."""

    def __init__(self, size: int) -> None:
        self.adj: list[list[int]] = [[] for _ in range(size)]
        self.cap: dict[tuple[int, int], int] = {}
        self.flow: dict[tuple[int, int], int] = {}

    def add_arc(self, a: int, b: int, capacity: int = 1) -> None:
        if (a, b) not in self.cap:
            self.adj[a].append(b)
            self.adj[b].append(a)
            self.cap[(a, b)] = self.cap[(b, a)] = 0
            self.flow[(a, b)] = self.flow[(b, a)] = 0
        self.cap[(a, b)] += capacity

    def push(self, src: int, snk: int, want: int) -> tuple[int, dict[int, int]]:
        cap, flow = self.cap, self.flow
        sent = 0
        prev: dict[int, int] = {src: src}
        while sent < want:
            prev = {src: src}
            queue = deque([src])
            while queue and snk not in prev:
                u = queue.popleft()
                for w in self.adj[u]:
                    if w not in prev and cap[(u, w)] - flow[(u, w)] > 0:
                        prev[w] = u
                        queue.append(w)
            if snk not in prev:
                break
            node = snk
            while node != src:
                pu = prev[node]
                flow[(pu, node)] += 1
                flow[(node, pu)] -= 1
                node = pu
            sent += 1
        return sent, prev

    def walk(self, node: int, stop: int) -> list[int]:
        seq = [node]
        while seq[-1] != stop:
            nxt = next(w for w in self.adj[seq[-1]] if self.flow[(seq[-1], w)] > 0)
            self.flow[(seq[-1], nxt)] -= 1
            seq.append(nxt)
        return seq


def side_paths_by_pairs(
    dag: MixedGraph, tops: Sequence[int], side: Sequence[int], through: int
) -> list[DirectedPath] | None:
    """One path from each top onto its own side position, on a vertex-split
    network built for this question alone: vertex arcs, edge arcs, then a
    source arc per top and a sink arc per side position, each group in
    vertex order.  The reference for multitrek.treks._SplitGraph.paths."""
    idx = {v: i for i, v in enumerate(dag.vertices)}
    p = len(dag.vertices)
    src, snk = 2 * p, 2 * p + 1
    net = FlowNetworkByPairs(2 * p + 2)
    for i in range(p):
        net.add_arc(2 * i, 2 * i + 1, through)
    for a, b in dag.directed_edges:
        net.add_arc(2 * idx[a] + 1, 2 * idx[b], through)
    for v in sorted(tops):
        net.add_arc(src, 2 * idx[v])
    for v in sorted(side):
        net.add_arc(2 * idx[v] + 1, snk)
    if net.push(src, snk, len(tops))[0] < len(tops):
        return None
    return [
        DirectedPath(tuple(dag.vertices[x // 2] for x in net.walk(2 * idx[v] + 1, snk)[::2]))
        for v in tops
    ]


def trek_flow_by_pairs(dag: MixedGraph, sides: Sequence[Sequence[int]]) -> TrekSearchResult:
    """The order-2 search on the doubled graph, on a network keyed by node
    pairs.  The reference for multitrek.treks._trek_flow."""
    side_a, side_b = sides
    n = len(side_a)
    idx = {v: i for i, v in enumerate(dag.vertices)}
    p = len(dag.vertices)
    src, snk = 4 * p, 4 * p + 1
    net = FlowNetworkByPairs(4 * p + 2)
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


# -- symmetric tensors, their JSON and seeded draws -------------------------


def symmetric_by_sorting(p: int, order: int, value_of, kind) -> list:
    """Row-major entries of the symmetric tensor: each position reads value_of
    at its own sorted index, converted to ``kind``."""
    return [kind(value_of(tuple(sorted(idx)))) for idx in itertools.product(range(p), repeat=order)]


def tensor_json_by_entry(t) -> str:
    """A tensor's JSON line with every entry formatted on its own."""
    entries = list(t.entries)
    if t.scalar == "rational":
        entries = [f"{e.numerator}/{e.denominator}" for e in entries]
    doc = {"order": t.order, "dims": list(t.dims), "scalar": t.scalar, "entries": entries}
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def draws_by_randrange(seed: int, count: int, value_range: int) -> list[int]:
    """The generic-instance draws as randrange gives them: a magnitude in
    1..value_range, then a sign from random()."""
    rng = random.Random(seed)
    values = []
    for _ in range(count):
        magnitude = rng.randrange(1, value_range + 1)
        values.append(magnitude if rng.random() < 0.5 else -magnitude)
    return values


# -- sample moments ----------------------------------------------------------


def moments_by_key(xc):
    """Memoized central product moments of the centered columns xc, each
    built on its own: a copy of its first column (in sorted key order),
    multiplied in place by the key's other columns, then averaged.  The
    reference for the prefix walk, multitrek.estimation._moments_of."""
    memo = {}

    def moment(idx):
        key = tuple(sorted(idx))
        if key not in memo:
            prod = xc[:, key[0]].copy()
            for i in key[1:]:
                prod *= xc[:, i]
            memo[key] = float(prod.mean())
        return memo[key]

    return moment


def cumulant_by_pairs(moment, idx):
    """Denominator-n sample cumulant of the columns idx (k <= 4) from their
    central moments: the order-4 formula written out, pair by pair.  The
    reference for multitrek.estimation._cumulant_of at k <= 4."""
    k = len(idx)
    if k in (2, 3):
        return moment(idx)
    i, j, l, r = idx
    return (
        moment(idx)
        - moment((i, j)) * moment((l, r))
        - moment((i, l)) * moment((j, r))
        - moment((i, r)) * moment((j, l))
    )


def set_partitions(positions):
    """Every set partition of the positions, singleton blocks included, by
    placing each position in turn into an earlier block or a new one."""
    if not positions:
        yield []
        return
    first, rest = positions[0], positions[1:]
    for partition in set_partitions(rest):
        for b in range(len(partition)):
            yield partition[:b] + [[first] + partition[b]] + partition[b + 1:]
        yield [[first]] + partition


# -- acceptance reporting --------------------------------------------------

ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
