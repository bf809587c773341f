"""Simulation and finite-sample estimation.

Closes the loop from population statements to data: simulate the
structural system X = eps (I - Lambda)^{-1} with independent centered
non-Gaussian noise, estimate cumulant tensors from the sample, and
bootstrap a determinant statistic.  A cumulant of central moments, of a
sample, of bootstrap replicates or of uniform noise, is one fold over
the model side's set partitions at every order (_cumulant_of).  The
work that grows with the order is counted before any is built and
charged to the package's one cap (treks._Cap): more than
DEFAULT_BUDGET cumulant terms (partitions times entries) or, for the
bootstrap statistic, Leibniz terms is a BudgetExceeded.  Sides pass
the one vertex-id rule (treks.checked_sides).

Every sample moment comes from one depth-first walk over the prefixes
of the sorted index keys that are asked for (_moments_of): the data
are centered straight into F order, and each product is its prefix's
product times one contiguous column, so a walk holds at most k product
columns.  Each mean is one np.add.reduce of its product column divided
by the row count, the arithmetic of ndarray.mean without its Python
frame.  The bootstrap's monomial table reads the same F-ordered
columns.  A value past the float range, in an estimate or in the
bootstrap, is a ValueError, never a NaN or infinity in the output.

Each sample is one array: a matrix the module builds itself (an MTRK
payload read straight into it, the parsed CSV rows, the simulated
columns) becomes its SampleMatrix without a further copy
(SampleMatrix._adopt); the public constructor copies.

The determinant flag is a labeled heuristic: |statistic| <= 2 sd under
a nonparametric bootstrap, with no coverage guarantee of any kind.  It
exists to demonstrate the estimation loop, not as a calibrated test.

The bootstrap resamples by count weights.  Each replicate draws row
indices from its own seed stream; np.bincount turns them into a row of
W holding how often each row was drawn.  A resampled moment is the
count-weighted mean of the same products over the original rows, so
this equals gathering the drawn rows, without the gather.  One product
W @ Z with the monomial table Z (products of the needed columns,
centered at the full-sample mean, one column per index multiset the
determinant's entries expand into) gives the raw moments of every
replicate in a block; each replicate's central moments follow by
binomial expansion at its own means.  W is taken in blocks of
replicates and Z in blocks of rows, each of at most
BOOTSTRAP_CHUNK_FLOATS floats (32 MB) but never less than one
replicate or one row.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import os
import stat
import struct
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .cumulants import ModelInstance, NoiseCumulants, _fold_size, _partitions, path_matrix
from .errors import InvalidBootstrapCount, OrderUnsupported, SchemaError
from .graphs import MixedGraph, canonical_dag
from .ser import canonical_int, checked_seed, read_float, strict_int, write_output
from .tensors import (
    FLOAT, DiagonalSpec, Tensor, hyperdet_from_getter, orbit_table, symmetric_from_values,
)
from .treks import DEFAULT_BUDGET, _Cap, checked_sides

_TAGS = {"uniform": 1, "exponential": 1, "laplace": 1, "gamma": 2}

MAGIC = b"MTRK"


@dataclass(frozen=True)
class NoiseSpec:
    """Per-vertex centered noise distributions.

    Entries map a vertex to ("uniform", half_width), ("exponential",
    rate), ("laplace", scale) or ("gamma", shape, scale); exponential
    and gamma draws are shifted to mean zero.  Parameters are kept as
    exact Fractions so population cumulants stay rational.
    """

    entries: Mapping[int, tuple]

    def __post_init__(self) -> None:
        clean: dict[int, tuple] = {}
        for v, spec in sorted((strict_int(v), spec) for v, spec in self.entries.items()):
            tag, *params = spec
            if not isinstance(tag, str) or tag not in _TAGS:
                raise ValueError(f"unknown noise tag {tag!r} at vertex {v}")
            if len(params) != _TAGS[tag]:
                raise ValueError(f"{tag} noise takes {_TAGS[tag]} parameter(s), got {params}")
            params = tuple(Fraction(x) for x in params)
            if any(x < 0 for x in params):
                raise ValueError(f"negative parameter for {tag} noise at vertex {v}")
            if tag == "exponential" and params[0] == 0:
                raise ValueError("exponential rate must be positive")
            if tag == "gamma" and params[0] == 0:
                raise ValueError("gamma shape must be positive")
            clean[v] = (tag,) + params
        object.__setattr__(self, "entries", clean)

    def cumulant(self, v: int, order: int) -> Fraction:
        """Exact cumulant of the (centered) noise at one vertex, any order r >= 1:
        Laplace 2 (r-1)! b^r at even r, gamma s (r-1)! theta^r from r = 2 on
        (exponential: s = 1, theta = 1/rate), uniform _cumulant_of its moments
        a^r / (r+1) at even r; 0 otherwise."""
        if order < 1:
            raise OrderUnsupported(f"noise cumulants start at order 1, got {order}")
        tag, *params = self.entries[v]
        if tag == "uniform":
            moments = [0 if r % 2 else params[0] ** r / (r + 1) for r in range(order + 1)]
            return Fraction(_cumulant_of(lambda block: moments[len(block)], (v,) * order))
        if tag == "laplace":
            return 2 * math.factorial(order - 1) * params[0] ** order if order % 2 == 0 else Fraction(0)
        shape, scale = (Fraction(1), 1 / params[0]) if tag == "exponential" else params
        return shape * math.factorial(order - 1) * scale**order if order > 1 else Fraction(0)

    def sample(self, v: int, rng: np.random.Generator, n: int) -> np.ndarray:
        tag, *params = self.entries[v]
        if tag == "uniform":
            a = float(params[0])
            return rng.uniform(-a, a, n)
        if tag == "laplace":
            return rng.laplace(0.0, float(params[0]), n)
        if tag == "exponential":
            scale = 1.0 / float(params[0])
            return rng.exponential(scale, n) - scale
        shape, scale = float(params[0]), float(params[1])
        return rng.gamma(shape, scale, n) - shape * scale


@dataclass(frozen=True)
class SampleMatrix:
    """n x p float data with n >= 1; column i belongs to vertices[i], no label twice.

    The constructor keeps a read-only copy of ``data``.
    """

    data: np.ndarray
    vertices: tuple[int, ...]

    def __post_init__(self) -> None:
        self._settle(np.array(self.data, dtype=np.float64, order="C"))  # owned copy

    @classmethod
    def _adopt(cls, data: np.ndarray, vertices: tuple[int, ...]) -> SampleMatrix:
        """A SampleMatrix over an array this module made and hands over:
        the same checks as the constructor, but a C-ordered float64 array
        is kept as it is (made read-only in place) instead of copied."""
        sm = object.__new__(cls)
        object.__setattr__(sm, "vertices", vertices)
        sm._settle(np.asarray(data, dtype=np.float64, order="C"))
        return sm

    def _settle(self, arr: np.ndarray) -> None:
        if arr.ndim != 2:
            raise ValueError("sample data must be a 2-D matrix")
        if arr.shape[0] == 0:
            raise ValueError("sample data needs at least one row")
        if arr.shape[1] != len(self.vertices):
            raise ValueError("one column per vertex required")
        if not np.all(np.isfinite(arr)):
            raise ValueError("sample data must be finite")
        vertices = tuple(strict_int(v) for v in self.vertices)
        if len(set(vertices)) != len(vertices):
            raise ValueError(f"vertex labels {list(vertices)} repeat a vertex")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "vertices", vertices)

    @property
    def n_samples(self) -> int:
        return self.data.shape[0]

    def column(self, v: int) -> int:
        try:
            return self.vertices.index(v)
        except ValueError:
            raise ValueError(f"vertex {v} has no column") from None


def simulate_lsem(
    g: MixedGraph,
    lam: Mapping[tuple[int, int], float],
    noise: NoiseSpec,
    n: int,
    seed: int,
) -> SampleMatrix:
    """Draw n i.i.d. rows of the structural system; deterministic per seed.

    Multidirected edges are realized through the canonical DAG: the
    noise spec must then also cover the latent vertices (ids assigned
    by canonical_dag), whose columns are dropped from the output.  A weight,
    draw or value past the float range is a ValueError naming its edge or vertex.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    checked_seed(seed)
    weights = {}
    for (u, v), w in lam.items():
        try:
            weights[(u, v)] = float(w)
        except OverflowError:
            raise ValueError(f"the weight on edge {u}->{v} is too large for a float") from None
    canon = canonical_dag(g)
    dag = canon.dag
    missing = [v for v in dag.vertices if v not in noise.entries]
    if missing:
        raise ValueError(
            f"noise spec misses vertices {missing} (latent ids come from canonical_dag)"
        )
    m = path_matrix(dag, weights)
    rng = np.random.default_rng(seed)
    eps = np.empty((n, len(dag.vertices)))
    with np.errstate(all="ignore"):  # a value past the float range is refused below, by vertex
        for i, v in enumerate(dag.vertices):
            try:
                eps[:, i] = noise.sample(v, rng, n)
            except OverflowError:  # numpy's uniform refuses a range past the float range
                eps[:, i] = np.inf
        x = eps @ np.asarray(m, dtype=np.float64)
    if not np.isfinite(x).all():  # a non-finite draw reaches x too: m has a unit diagonal
        what, values = ("noise", eps) if not np.isfinite(eps).all() else ("value", x)
        vertex = dag.vertices[int(np.argmin(np.isfinite(values).all(axis=0)))]
        raise ValueError(f"the {what} at vertex {vertex} leaves the float range")
    # canonical_dag lists the latent vertices after the observed ones.
    observed = len(canon.original_vertices)
    data = x if observed == x.shape[1] else x[:, :observed].copy()
    return SampleMatrix._adopt(data, canon.original_vertices)


def population_instance(
    g: MixedGraph,
    lam: Mapping[tuple[int, int], object],
    noise: NoiseSpec,
    k_max: int,
) -> ModelInstance:
    """The exact ModelInstance a simulation converges to (for comparing
    sample_cumulant against model_cumulant)."""
    noise_map = {}
    for order in range(2, k_max + 1):
        diag = {v: noise.cumulant(v, order) for v in g.vertices if v in noise.entries}
        if set(diag) != set(g.vertices):
            raise ValueError("noise spec must cover every vertex")
        noise_map[order] = NoiseCumulants(diag=DiagonalSpec(diag))
    return ModelInstance(lam={e: Fraction(w) for e, w in lam.items()}, noise=noise_map)


# -- sample cumulants --------------------------------------------------------


def _moments_of(
    xf: np.ndarray, keys: Iterable[tuple[int, ...]]
) -> Callable[[tuple[int, ...]], float]:
    """Central product moments of the centered, F-ordered columns xf that
    _cumulant_of reads for the entry keys: each key's own moment and the
    moment of every block of its partitions.  The lookup takes sorted keys
    only; every block of a sorted key, taken in its order, is sorted too.

    One depth-first walk visits the prefixes of those sorted keys in sorted
    order.  prods[d] is the product of the current key's first d + 1
    columns: a key of one index reads its column of xf in place, a longer
    key multiplies its prefix's product, which the walk visited last at its
    depth, by one contiguous column of xf into column d - 1 of the scratch.
    A mean is np.add.reduce of the product over the row count: the sum and
    the division ndarray.mean makes, so the same bits.
    """
    needed = set()
    for key in map(tuple, map(sorted, keys)):
        needed.update((key,), (get(key) for _, blocks in _fold(len(key)) for get in blocks))
    rows = xf.shape[0]
    columns = [xf[:, c] for c in range(xf.shape[1])]
    depth = max(map(len, needed), default=1)
    scratch = np.empty((rows, depth - 1), order="F")
    outs = [scratch[:, d] for d in range(depth - 1)]
    prods: list = [None] * depth
    memo = {}
    for key in sorted({key[:d] for key in needed for d in range(1, len(key) + 1)}):
        d = len(key) - 1
        if d:
            prods[d] = np.multiply(prods[d - 1], columns[key[-1]], out=outs[d - 1])
        else:
            prods[0] = columns[key[0]]
        if key in needed:
            memo[key] = float(np.add.reduce(prods[d]) / rows)
    return memo.__getitem__


@functools.cache
def _fold(k: int) -> tuple[tuple[int, tuple[Callable, ...]], ...]:
    """Per partition of _partitions(k) into b >= 2 blocks, in table order,
    (-1)^(b-1) (b-1)! and one getter per block (blocks have size >= 2)."""
    return tuple(
        ((-1) ** (len(blocks) - 1) * math.factorial(len(blocks) - 1),
         tuple(operator.itemgetter(*block) for block in blocks))
        for blocks in _partitions(k) if len(blocks) > 1
    )


def _cumulant_of(moment: Callable, idx: tuple[int, ...]):
    """The cumulant at idx from central moments, on floats, arrays of
    replicates and Fractions alike: the whole-block moment, then each
    term of _fold added in turn (the moment-to-cumulant formula)."""
    total = moment(idx)
    for term, blocks in _fold(len(idx)):
        for get in blocks:
            term = term * moment(get(idx))
        total = total + term
    return total


def sample_cumulant(data: SampleMatrix, k: int) -> Tensor:
    """Plug-in sample cumulant tensor (denominator n), exactly symmetric, at any k >= 2.

    Each entry is computed once per sorted multi-index and broadcast,
    so the output is symmetric to the last bit.  The moments come from
    one prefix walk (_moments_of): every product is the same left fold
    of contiguous columns in sorted key order that a per-key loop takes,
    and its mean is numpy's pairwise sum of a contiguous column (one
    np.add.reduce) over the row count, as ndarray.mean takes it, so each
    entry equals that loop's to the last bit.  The keys of orbit_table
    are sorted, so their moments are read with no sort.  The mean
    subtracted is taken over axis 0 of the C-ordered data, where numpy
    sums each column row by row; it sums an F-ordered column pairwise,
    which can differ in the last bit, so only the subtraction writes F
    order.  An entry past the float range is a ValueError naming its
    vertices.
    """
    if k < 2:
        raise OrderUnsupported(f"sample cumulants start at order 2, got {k}")
    x = data.data
    terms = _fold_size(k) * math.comb(x.shape[1] + k - 1, k)
    _Cap(DEFAULT_BUDGET, f"order-{k} cumulant terms").charge(terms)
    keys = orbit_table(x.shape[1], k)[0]
    with np.errstate(all="ignore"):  # a value past the float range is refused below
        moment = _moments_of(np.subtract(x, x.mean(axis=0), order="F"), keys)
        values = [_cumulant_of(moment, key) for key in keys]
    if not np.isfinite(values).all():
        key = keys[int(np.argmin(np.isfinite(values)))]
        vertices = [data.vertices[i] for i in key]
        raise ValueError(
            f"the order-{k} sample cumulant at vertices {vertices} leaves the float range"
        )
    return symmetric_from_values(x.shape[1], k, values, FLOAT)


# -- bootstrap determinant test ----------------------------------------------

# Most floats one block of the count-weight matrix W, or of the monomial
# table Z, holds (32 MB): a W block takes BOOTSTRAP_CHUNK_FLOATS // rows
# replicates and a Z block BOOTSTRAP_CHUNK_FLOATS // columns rows, each
# at least one.
BOOTSTRAP_CHUNK_FLOATS = 1 << 22


@dataclass(frozen=True)
class DeterminantTest:
    """Point statistic, bootstrap spread, and the 2-sd zero flag."""

    statistic: float
    bootstrap_sd: float
    flag: bool

    def to_doc(self) -> dict:
        return {
            "statistic": self.statistic,
            "bootstrap_sd": self.bootstrap_sd,
            "flag": self.flag,
        }


def _monomial_table(xc: np.ndarray, col: dict[tuple[int, ...], int]) -> np.ndarray:
    """Z with column col[key] the product of the centered columns a sorted
    index key names, built from the column of its prefix (keys come in
    column order, sorted by degree and closed under prefixes)."""
    z = np.empty((xc.shape[0], len(col)), order="F")
    for key, c in col.items():
        if len(key) == 1:
            z[:, c] = xc[:, key[0]]
        else:
            np.multiply(z[:, col[key[:-1]]], xc[:, key[-1]], out=z[:, c])
    return z


def _recentred(raw: np.ndarray, col: dict[tuple[int, ...], int]) -> Callable:
    """Memoized central moments of every replicate (one row of raw each).

    raw holds each replicate's moments about the full-sample mean; the
    replicate's own means are raw[:, col[(i,)]].  A central moment is
    the binomial expansion of prod_t (x_t - mean_t) over the key's
    positions: each subset S of positions keeps the raw moment of S and
    multiplies by -mean for every position outside S.
    """
    memo: dict[tuple[int, ...], np.ndarray] = {}

    def moment(idx: tuple[int, ...]) -> np.ndarray:
        key = tuple(sorted(idx))
        if key not in memo:
            total = np.zeros(raw.shape[0])
            for inside in itertools.product((False, True), repeat=len(key)):
                kept = tuple(i for i, keep in zip(key, inside) if keep)
                term = raw[:, col[kept]] if kept else 1.0
                for i, keep in zip(key, inside):
                    if not keep:
                        term = term * -raw[:, col[(i,)]]
                total += term
            memo[key] = total
        return memo[key]

    return moment


@np.errstate(all="ignore")  # a value past the float range is refused by name below
def test_determinant_zero(
    data: SampleMatrix,
    sides: Sequence[Sequence[int]],
    k: int,
    n_boot: int,
    seed: int,
) -> DeterminantTest:
    """Bootstrap heuristic for "is this cumulant subtensor determinant zero?".

    The statistic is the hyperdeterminant of the sample-cumulant
    subtensor indexed by the sides; the flag fires when it lies within
    two bootstrap standard deviations of zero.  Heuristic only — no
    size or power guarantee.  Deterministic per seed: each replicate
    resamples rows under its own stream spawned from the master seed,
    evaluated by count weights in blocks (see the module docstring).
    A statistic, replicate or spread past the float range is a
    ValueError.
    """
    side_lists = checked_sides(data.vertices, sides)
    if len(side_lists) != k:
        raise ValueError(f"got {len(side_lists)} sides but k={k}")
    n = len(side_lists[0])
    _Cap(DEFAULT_BUDGET, f"order-{k} cumulant terms").charge(_fold_size(k) * n**k)
    _Cap(DEFAULT_BUDGET, f"order-{k} determinant terms").charge(math.factorial(n) ** (k - 1))
    if n_boot < 1:
        raise InvalidBootstrapCount(f"n_boot must be >= 1, got {n_boot}")
    checked_seed(seed)

    # Only the columns the subtensor touches participate, which keeps
    # bootstrap replicates cheap on wide data.
    needed = sorted({v for side in side_lists for v in side})
    cols = [data.column(v) for v in needed]
    pos = {v: i for i, v in enumerate(needed)}
    sub = data.data[:, cols]
    rows = sub.shape[0]
    xf = np.subtract(sub, sub.mean(axis=0), order="F")
    positions = list(itertools.product(range(n), repeat=k))
    indices = [tuple(pos[side_lists[m][i]] for m, i in enumerate(p)) for p in positions]

    memo = _moments_of(xf, indices)

    def point(idx: tuple[int, ...]) -> float:  # an entry index is unsorted
        return memo(tuple(sorted(idx)))

    entries = dict(zip(positions, (_cumulant_of(point, idx) for idx in indices)))
    stat = float(hyperdet_from_getter(n, k, entries.__getitem__))
    if not math.isfinite(stat):
        raise ValueError("the bootstrap statistic leaves the float range")

    # Every sub-multiset of an entry's index: the raw moments that the
    # central moments of the entry and of its blocks expand into.
    parts = {
        part for idx in indices for d in range(1, k + 1)
        for part in itertools.combinations(sorted(idx), d)
    }
    col = {key: c for c, key in enumerate(sorted(parts, key=lambda key: (len(key), key)))}
    block = max(1, BOOTSTRAP_CHUNK_FLOATS // rows)
    span = max(1, BOOTSTRAP_CHUNK_FLOATS // len(col))
    children = np.random.SeedSequence(seed).spawn(n_boot)
    stats = np.empty(n_boot)
    for start in range(0, n_boot, block):
        batch = children[start : start + block]
        w = np.empty((len(batch), rows))
        for b, child in enumerate(batch):
            draws = np.random.default_rng(child).integers(0, rows, rows)
            w[b] = np.bincount(draws, minlength=rows)
        raw = sum(
            w[:, r : r + span] @ _monomial_table(xf[r : r + span], col)
            for r in range(0, rows, span)
        )
        moment = _recentred(raw / rows, col)
        values = np.column_stack([_cumulant_of(moment, idx) for idx in indices])
        for b, row in enumerate(values.tolist()):
            entries = dict(zip(positions, row))
            stats[start + b] = hyperdet_from_getter(n, k, entries.__getitem__)
    if not np.isfinite(stats).all():
        replicate = int(np.argmin(np.isfinite(stats)))
        raise ValueError(f"bootstrap replicate {replicate} leaves the float range")
    sd = float(np.std(stats, ddof=1)) if n_boot > 1 else 0.0
    if not math.isfinite(sd):
        raise ValueError("the bootstrap standard deviation leaves the float range")
    return DeterminantTest(
        statistic=stat, bootstrap_sd=sd, flag=bool(abs(stat) <= 2.0 * sd)
    )


# -- data I/O ----------------------------------------------------------------


def write_sample_csv(
    sm: SampleMatrix, path: str | Path, labels: Mapping[int, str] | None = None
) -> None:
    """CSV with one header row of vertex labels (vertex ids by default); a
    label with a comma or a line break, or that spells another id, is refused."""
    labels = labels or {}
    for v, label in labels.items():
        if any(c in label for c in ",\r\n") or canonical_int(label) not in (None, v):
            raise ValueError(f"label {label!r} of vertex {v} would not read back as its column")
    lines = [",".join(labels.get(v, str(v)) for v in sm.vertices)]
    lines.extend(",".join(map(repr, row)) for row in sm.data.tolist())
    write_output(path, ("\n".join(lines) + "\n").encode("utf-8"))


def read_sample_csv(path: str | Path) -> SampleMatrix:
    """A header of vertex ids names the columns; any other header numbers them 1..p.
    Data row r needs one cell per column (else SchemaError at /rows/<r>), each
    read by read_float at /rows/<r>/<column>; rows and columns count from 0."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if not header:
            raise ValueError("empty CSV")
        names = header.split(",")
        ids = tuple(map(canonical_int, names))  # a header of labels numbers the columns
        vertices = ids if None not in ids else tuple(range(1, len(names) + 1))
        lines = (line.rstrip("\n") for line in fh if line != "\n")
        rows = []
        for r, line in enumerate(lines):
            cells = line.split(",")
            if len(cells) != len(names):
                raise SchemaError(f"/rows/{r}", f"expected {len(names)} cells, found {len(cells)}")
            rows.append([read_float(cell, f"/rows/{r}/{c}") for c, cell in enumerate(cells)])
    data = np.array(rows, dtype=np.float64) if rows else np.empty((0, len(names)))
    return SampleMatrix._adopt(data, vertices)


def write_sample_binary(sm: SampleMatrix, path: str | Path) -> None:
    """16-byte header (magic "MTRK", u32 rows, u32 cols, 4 reserved bytes),
    then row-major little-endian float64."""
    rows, cols = sm.data.shape
    header = MAGIC + struct.pack("<II", rows, cols) + b"\x00" * 4
    write_output(path, header, np.ascontiguousarray(sm.data, dtype="<f8"))


def read_sample_binary(path: str | Path) -> SampleMatrix:
    """The MTRK file write_sample_binary writes, columns numbered 1..cols.

    The payload is read straight into the matrix's one array.  A regular
    file's size is checked against its header before that array is
    allocated, so a header that claims more rows than the file holds is
    refused first; a pipe, which has no size, is read whole first.
    """
    with open(path, "rb") as fh:
        header = fh.read(16)
        if len(header) < 16 or header[:4] != MAGIC:
            raise ValueError("not a MTRK data file")
        rows, cols = struct.unpack("<II", header[4:12])
        expected = 16 + rows * cols * 8
        info = os.fstat(fh.fileno())
        payload = None if stat.S_ISREG(info.st_mode) else fh.read()
        size = info.st_size if payload is None else 16 + len(payload)
        if size == expected:
            data = np.empty((rows, cols), dtype="<f8")
            if payload is None:
                size = 16 + fh.readinto(data)  # short if the file shrank since fstat
            else:
                data[...] = np.frombuffer(payload, dtype="<f8").reshape(rows, cols)
    if size != expected:
        raise ValueError(f"truncated MTRK file: expected {expected} bytes, got {size}")
    return SampleMatrix._adopt(data, tuple(range(1, cols + 1)))
