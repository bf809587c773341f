"""Dense order-k tensors over exact rationals or floats.

Carries the cumulant/moment/noise tensors and the combinatorial
(Cayley) determinant of a cubical tensor: the signed sum over
(k-1)-tuples of permutations

    det(T) = sum_{s_2..s_k} sign(s_2)...sign(s_k) prod_i T[i, s_2(i), ..., s_k(i)].

Mode 1 carries no permutation and hence no sign: two equal slices force
a zero determinant along modes >= 2 at every k, and along mode 1 exactly
at even k (swapping the two rows permutes each of the k - 1 signed modes,
which multiplies every term by (-1)**(k-1)).

A determinant is evaluated from one row-major table of the subtensor's
entries and routed by its shape: at k = 2 with exact entries (int or
Fraction) it is an ordinary matrix determinant, taken by Bareiss
elimination in O(n^3); every other case (k >= 3, polynomial or float
entries) runs one row recursion, Laplace expansion by minors, whose
steps are built once per (n, k).  Its sums run in a fixed order, so
float results repeat to the last bit.

The Tucker product (tucker_apply), the reference that the trek rule and
the entry plan are tested against, computes its definition: contract_mode
on every mode in turn, each entry a sum over one index read by Tensor.at.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from .errors import DimMismatch, IndexOutOfRange, NotCubical, SchemaError
from .ser import as_rational, canonical_json, frac_from_str, frac_to_str, in_float_range, read_ints, read_json, strict_int

Scalar = Fraction | float

RATIONAL = "rational"
FLOAT = "float"
_KINDS = {RATIONAL: Fraction, FLOAT: float}


@dataclass(frozen=True)
class Tensor:
    """Immutable dense tensor; ``entries`` is row-major of length prod(dims).

    The scalar kind is uniform: "rational" entries are Fractions,
    "float" entries are Python floats.  Ints in the input are coerced
    to the declared kind.
    """

    order: int
    dims: tuple[int, ...]
    entries: tuple[Scalar, ...]
    scalar: str

    def __post_init__(self) -> None:
        if self.order != len(self.dims):
            raise DimMismatch(f"order {self.order} != len(dims) {self.dims}")
        if any(d < 0 for d in self.dims):
            raise DimMismatch(f"negative dimension in {self.dims}")
        if len(self.entries) != math.prod(self.dims):
            raise DimMismatch(
                f"{len(self.entries)} entries for dims {self.dims}"
            )
        kind = _KINDS.get(self.scalar)
        if kind is None:
            raise ValueError(f"unknown scalar kind {self.scalar!r}")
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if not set(map(type, self.entries)) <= {kind}:
            object.__setattr__(
                self, "entries", tuple(e if type(e) is kind else kind(e) for e in self.entries)
            )

    @classmethod
    def of(cls, dims: Sequence[int], entries: Iterable[Scalar], scalar: str | None = None) -> "Tensor":
        """Build a tensor, inferring the scalar kind when not given."""
        ent = list(entries)
        if scalar is None:
            scalar = FLOAT if any(isinstance(e, float) for e in ent) else RATIONAL
        return cls(order=len(dims), dims=tuple(dims), entries=tuple(ent), scalar=scalar)

    @classmethod
    def build(cls, dims: Sequence[int], fn: Callable[[tuple[int, ...]], Scalar], scalar: str = RATIONAL) -> "Tensor":
        """Materialize fn over all multi-indices in row-major order."""
        ent = [fn(idx) for idx in itertools.product(*(range(d) for d in dims))]
        return cls(order=len(dims), dims=tuple(dims), entries=tuple(ent), scalar=scalar)

    def at(self, idx: Sequence[int]) -> Scalar:
        """Entry at a multi-index (0-based)."""
        if len(idx) != self.order:
            raise IndexOutOfRange(f"index {tuple(idx)} has wrong length for dims {self.dims}")
        off = 0
        for d, i in zip(self.dims, idx):
            if not 0 <= i < d:
                raise IndexOutOfRange(f"index {tuple(idx)} out of range for dims {self.dims}")
            off = off * d + i
        return self.entries[off]


@dataclass(frozen=True)
class DiagonalSpec:
    """Diagonal order-k tensor given by its on-diagonal values per vertex.

    Rational values are kept in normal form (ser.as_rational): an int
    when integral, else a Fraction.  Other ring elements (polynomials)
    pass through untouched so symbolic instances can reuse the type.
    """

    values: Mapping[int, Scalar]

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "values",
            {
                v: as_rational(x) if isinstance(x, (int, Fraction)) else x
                for v, x in sorted((strict_int(v), x) for v, x in self.values.items())
            },
        )

    def expand(self, vertices: Sequence[int], order: int) -> Tensor:
        """Dense tensor over the given vertex ordering; zero off the diagonal."""
        p = len(vertices)

        def fn(idx: tuple[int, ...]) -> Fraction:
            if all(i == idx[0] for i in idx):
                return self.values.get(vertices[idx[0]], Fraction(0))
            return Fraction(0)

        return Tensor.build([p] * order, fn, RATIONAL)


@functools.cache
def orbit_table(p: int, order: int) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The orbits of a symmetric order-k tensor over p indices: the sorted keys
    in combinations_with_replacement order, and for each row-major position
    the index of its key.  Built once per (p, order)."""
    keys = tuple(itertools.combinations_with_replacement(range(p), order))
    index = {key: i for i, key in enumerate(keys)}
    return keys, tuple(index[tuple(sorted(idx))] for idx in itertools.product(range(p), repeat=order))


def symmetric_tensor(p: int, order: int, value_of: Callable, scalar: str = RATIONAL) -> Tensor:
    """Symmetric order-k tensor over p indices: value_of(key) once per sorted key
    of orbit_table, broadcast through its table to every permutation."""
    return symmetric_from_values(p, order, [value_of(key) for key in orbit_table(p, order)[0]], scalar)


def symmetric_from_values(p: int, order: int, values: Sequence, scalar: str = RATIONAL) -> Tensor:
    """Symmetric order-k tensor over p indices whose i-th sorted key (in
    orbit_table order) holds values[i].  Each value is converted to the
    scalar kind once, and every position of its orbit holds that one
    object, so the work beyond the broadcast is per distinct entry."""
    kind = _KINDS[scalar]
    distinct = [v if type(v) is kind else kind(v) for v in values]
    return Tensor(order, (p,) * order, tuple(map(distinct.__getitem__, orbit_table(p, order)[1])), scalar)


def tucker_apply(t: Tensor, m: Sequence[Sequence[Scalar]]) -> Tensor:
    """Tucker product of t with the square matrix m applied along every mode.

    Result entry (i_1..i_k) = sum over (j_1..j_k) of
    t[j_1..j_k] * m[j_1][i_1] * ... * m[j_k][i_k], which is contract_mode
    on mode 1, then mode 2, and so on; exact when inputs are exact.
    """
    rows = [list(r) for r in m]
    d = len(rows)
    if any(dim != d for dim in t.dims) or any(len(r) != d for r in rows):
        raise DimMismatch(f"tensor dims {t.dims} need a square {t.dims[0] if t.dims else 0}-matrix")
    for mode in range(t.order):
        t = contract_mode(t, mode, rows)
    return t


def contract_mode(t: Tensor, mode: int, m: Sequence[Sequence[Scalar]]) -> Tensor:
    """Contract one mode of t with m along m's first index.

    Result entry with i_mode = a equals sum_j t[..., j, ...] * m[j][a];
    the mode's dimension becomes the number of columns of m.  The result
    holds floats when t or m does, else rationals.
    """
    rows = [list(r) for r in m]
    if len(rows) != t.dims[mode]:
        raise DimMismatch(f"mode {mode} has dim {t.dims[mode]}, matrix has {len(rows)} rows")
    if any(len(row) != len(rows[0]) for row in rows):
        raise DimMismatch(f"matrix rows have lengths {[len(row) for row in rows]}")
    dims = t.dims[:mode] + (len(rows[0]) if rows else 0,) + t.dims[mode + 1:]
    floats = t.scalar == FLOAT or any(isinstance(x, float) for row in rows for x in row)

    def entry(idx: tuple[int, ...]) -> Scalar:
        head, a, tail = idx[:mode], idx[mode], idx[mode + 1:]
        return sum(t.at(head + (j,) + tail) * row[a] for j, row in enumerate(rows) if row[a])

    return Tensor.build(dims, entry, FLOAT if floats else RATIONAL)


def hyperdeterminant(t: Tensor) -> Scalar:
    """Combinatorial determinant of a cubical order-k tensor (k >= 2)."""
    if t.order < 2:
        raise NotCubical(f"order {t.order} < 2")
    n = t.dims[0]
    if any(d != n for d in t.dims):
        raise NotCubical(f"dims {t.dims} are not all equal")
    det = hyperdet_from_table(n, t.order, t.entries)
    return Fraction(det) if t.scalar == RATIONAL else float(det)


def hyperdet_from_getter(n: int, order: int, entry: Callable[[tuple[int, ...]], object]):
    """Determinant of the cubical tensor whose entries ``entry`` supplies.

    ``entry`` maps a 0-based multi-index to a scalar; any value type
    supporting +, -, * and truthiness-as-nonzero works (rationals,
    floats, polynomials).  It is called exactly once per position,
    n**order times in row-major order, and the table is handed to
    hyperdet_from_table, which picks the route by shape.  Returns the
    int 1 for n = 0 (the empty product).
    """
    table = [entry(idx) for idx in itertools.product(range(n), repeat=order)]
    return hyperdet_from_table(n, order, table)


def hyperdet_from_table(n: int, order: int, table: Sequence):
    """Determinant of the cubical tensor with row-major entries ``table``.

    At order 2 with int or Fraction entries this is det_matrix, exact
    Bareiss elimination.  Every other table takes the row recursion of
    _laplace_steps, Laplace expansion by minors, which needs only a ring:
    the sum over rows 0..i-1 is kept per state, row i extends each
    nonzero one by each nonzero entry it may pick, and sums that reach
    one state add up.  A zero entry in row 0 reads as the int 0, the
    empty sum.  Every sum runs in a fixed order, so float results repeat
    to the last bit; at n <= 2 no two prefixes reach one state, and they
    are the Leibniz sum's, bit for bit.
    """
    if n == 0:
        return 1
    if order == 2 and all(isinstance(x, (int, Fraction)) for x in table):
        return det_matrix([table[i * n : (i + 1) * n] for i in range(n)])
    first, rows = _laplace_steps(n, order)
    sums = [table[off] or 0 for off in first]
    for width, steps in rows:
        reached = [0] * width
        for partial, moves in zip(sums, steps):
            if partial:
                for to, off, flip in moves:
                    val = table[off]
                    if val:
                        val = partial * val
                        reached[to] = reached[to] - val if flip else reached[to] + val
        sums = reached
    return sums[0]


def _laplace_step_count(n: int, order: int) -> int:
    """The steps of the row recursion on an n-cube of order k: row i starts
    from C(n, i)**(k-1) states, each with (n - i)**(k-1) column choices."""
    return sum((math.comb(n, i) * (n - i)) ** (order - 1) for i in range(n))


@functools.cache
def _laplace_steps(n: int, order: int) -> tuple[tuple[int, ...], tuple[tuple[int, tuple], ...]]:
    """The row recursion of hyperdet_from_table on an n-cube of order k,
    built once per (n, k) after _laplace_step_count is charged to
    DEFAULT_BUDGET.  A state is the tuple of used-column bitmasks of
    modes 2..k.  A row picks one unused column per mode, flips the sign
    once per used column above each pick and numbers the states it
    reaches in first-reached order.  Returns row 0's table offsets, one
    per state it reaches, and for each later row the number of states
    it reaches and, per state it leaves, its (state, offset, flip) steps.
    """
    from .treks import DEFAULT_BUDGET, _Cap  # treks imports this module

    _Cap(DEFAULT_BUDGET, f"order-{order} determinant steps").charge(_laplace_step_count(n, order))
    states: dict[tuple[int, ...], int] = {(0,) * (order - 1): 0}
    rows = []
    for i in range(n):
        reached: dict[tuple[int, ...], int] = {}
        steps = []
        for used in states:
            moves = []
            for cols in itertools.product(*([c for c in range(n) if not mask >> c & 1] for mask in used)):
                state = tuple(mask | 1 << c for mask, c in zip(used, cols))
                off = functools.reduce(lambda off, c: off * n + c, cols, i)
                flips = sum((mask >> (c + 1)).bit_count() for mask, c in zip(used, cols))
                moves.append((reached.setdefault(state, len(reached)), off, flips % 2 == 1))
            steps.append(tuple(moves))
        rows.append((len(reached), tuple(steps)))
        states = reached
    return tuple(off for _, off, _ in rows[0][1][0]), tuple(rows[1:])


@functools.cache
def signed_permutations(n: int) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The permutations of range(n) in itertools order and their signs,
    cached per n for the trek-system expansion and the split-trek search."""
    perms = tuple(itertools.permutations(range(n)))
    return perms, tuple(perm_sign(p) for p in perms)


def perm_sign(p: Sequence[int]) -> int:
    """Sign of a permutation given as a sequence of 0-based positions."""
    inversions = sum(
        1 for a in range(len(p)) for b in range(a + 1, len(p)) if p[a] > p[b]
    )
    return -1 if inversions % 2 else 1


def det_matrix(rows: Sequence[Sequence[Scalar]]) -> Scalar:
    """Determinant by fraction-free (Bareiss) elimination.

    Entries must be ints or elements of a field (Fraction, float), not
    polynomials: each step divides by the previous pivot.  Exact for
    int and Fraction entries: every division is exact, and two ints
    divide with //, so int matrices never leave the integers.
    """
    n = len(rows)
    if n == 0:
        return 1
    if any(len(r) != n for r in rows):
        raise DimMismatch("matrix is not square")
    a = [list(r) for r in rows]
    sign = 1
    prev = 1
    for col in range(n - 1):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            return a[col][col]  # the whole column is zero
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            sign = -sign
        top = a[col]
        for row in a[col + 1:]:
            for c in range(col + 1, n):
                num = top[col] * row[c] - row[col] * top[c]
                ints = isinstance(num, int) and isinstance(prev, int)
                row[c] = num // prev if ints else num / prev
        prev = top[col]
    return a[-1][-1] if sign > 0 else -a[-1][-1]


def subtensor(t: Tensor, sides: Sequence[Sequence[int]]) -> Tensor:
    """Restrict each mode i to the ordered index list sides[i] (0-based)."""
    if len(sides) != t.order:
        raise DimMismatch(f"{len(sides)} index lists for order-{t.order} tensor")
    for mode, side in enumerate(sides):
        for i in side:
            if not 0 <= i < t.dims[mode]:
                raise IndexOutOfRange(f"index {i} out of range in mode {mode + 1}")
    lists = [list(s) for s in sides]

    def fn(idx: tuple[int, ...]) -> Scalar:
        return t.at(tuple(lists[m][i] for m, i in enumerate(idx)))

    return Tensor.build([len(s) for s in lists], fn, t.scalar)


def cauchy_binet_check(a: Tensor, b: Sequence[Sequence[Scalar]]) -> bool:
    """Verify det(a contracted with b along mode 2) against the minor expansion.

    ``a`` has dims (p, n, p, ..., p) and ``b`` is n x p.  The identity
    det(a.b) = sum over size-p subsets I of [n] of det(a_I) * det(b_I)
    holds because mode 2 is a signed mode of the determinant.  Intended
    for exact scalars; a test oracle, not a decision-path routine.
    """
    rows = [list(r) for r in b]
    if a.order < 2:
        raise DimMismatch("need order >= 2")
    p = a.dims[0]
    n = a.dims[1]
    if any(a.dims[m] != p for m in range(a.order) if m != 1):
        raise DimMismatch(f"dims {a.dims} must be p in every mode but the second")
    if len(rows) != n or any(len(r) != p for r in rows):
        raise DimMismatch(f"matrix must be {n}x{p}")
    lhs = hyperdeterminant(contract_mode(a, 1, rows))
    rhs: Scalar = Fraction(0) if a.scalar == RATIONAL else 0.0
    full = list(range(p))
    for subset in itertools.combinations(range(n), p):
        a_i = subtensor(a, [full, list(subset)] + [full] * (a.order - 2))
        b_i = [rows[i] for i in subset]
        rhs += hyperdeterminant(a_i) * det_matrix(b_i)
    return lhs == rhs


# -- JSON interface ------------------------------------------------------


def tensor_to_json(t: Tensor) -> str:
    """The tensor as one canonical JSON line; rationals as "a/b" strings.

    Each distinct entry object is formatted once: positions that hold the
    same object (every orbit of a symmetric tensor) share its text.  The
    memo is keyed by id(), which t.entries keeps valid for the whole call.
    """
    entries: list[object]
    if t.scalar == RATIONAL:
        text: dict[int, str] = {}
        entries = []
        for e in t.entries:
            s = text.get(id(e))
            if s is None:
                s = text[id(e)] = frac_to_str(e)
            entries.append(s)
    else:
        entries = list(t.entries)
    doc = {"order": t.order, "dims": list(t.dims), "scalar": t.scalar, "entries": entries}
    return canonical_json(doc)


def tensor_from_json(text: str) -> Tensor:
    doc = read_json(text)
    if not isinstance(doc, dict):
        raise SchemaError("/", "top level must be an object")
    for key in ("order", "dims", "scalar", "entries"):
        if key not in doc:
            raise SchemaError(f"/{key}", "missing")
    scalar = doc["scalar"]
    if scalar not in (RATIONAL, FLOAT):
        raise SchemaError("/scalar", f"unknown kind {scalar!r}")
    entries = doc["entries"]
    if not isinstance(entries, list):
        raise SchemaError("/entries", "must be an array")
    for i, e in enumerate(entries):  # rationals as "a/b" strings, floats as JSON numbers
        if scalar == RATIONAL:
            entries[i] = frac_from_str(e, f"/entries/{i}")
        elif type(e) not in (int, float):
            raise SchemaError(f"/entries/{i}", f"a float entry must be a JSON number, got {e!r}")
        else:
            in_float_range(e, f"/entries/{i}")
    return Tensor(
        order=read_ints(doc["order"], "/order", 0),
        dims=tuple(read_ints(doc["dims"], "/dims")),
        entries=tuple(entries),
        scalar=scalar,
    )
