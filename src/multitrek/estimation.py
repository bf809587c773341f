"""Simulation and finite-sample estimation.

Closes the loop from population statements to data: simulate the
structural system X = eps (I - Lambda)^{-1} with independent centered
non-Gaussian noise, estimate cumulant tensors from the sample, and
bootstrap a determinant statistic.

Every sample moment comes from one depth-first walk over the prefixes
of the sorted index keys that are asked for (_moments_of): the data
are centered straight into F order, and each product is its prefix's
product times one contiguous column, so a walk holds at most k product
columns.  The bootstrap's monomial table reads the same F-ordered
columns.  A value past the float range, in an estimate or in the
bootstrap, is a ValueError, never a NaN or infinity in the output.

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

import itertools
import math
import struct
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .cumulants import ModelInstance, NoiseCumulants, path_matrix
from .errors import InvalidBootstrapCount, OrderUnsupported, SchemaError
from .graphs import MixedGraph, canonical_dag
from .ser import canonical_int, checked_seed, read_float, strict_int
from .tensors import (
    FLOAT, DiagonalSpec, Tensor, hyperdet_from_getter, orbit_table, symmetric_from_values,
)
from .treks import checked_sides

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
        """Exact population cumulant of the (centered) noise at one vertex."""
        tag, *params = self.entries[v]
        if order == 1:
            return Fraction(0)
        if order not in (2, 3, 4):
            raise OrderUnsupported(f"noise cumulants implemented for orders 2..4, got {order}")
        if tag == "uniform":
            a = params[0]
            return {2: a * a / 3, 3: Fraction(0), 4: Fraction(-2) * a**4 / 15}[order]
        if tag == "laplace":
            b = params[0]
            return {2: 2 * b * b, 3: Fraction(0), 4: 12 * b**4}[order]
        if tag == "exponential":
            rate = params[0]
            shape, scale = Fraction(1), 1 / rate
        else:
            shape, scale = params
        factorial = {2: 1, 3: 2, 4: 6}[order]
        return shape * factorial * scale**order

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
    """n x p float data with n >= 1; column i belongs to vertices[i], no label twice."""

    data: np.ndarray
    vertices: tuple[int, ...]

    def __post_init__(self) -> None:
        arr = np.array(self.data, dtype=np.float64, order="C")  # owned copy
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
    keep = [dag.vertices.index(v) for v in canon.original_vertices]
    return SampleMatrix(data=x[:, keep], vertices=canon.original_vertices)


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
    _cumulant_value reads for the entry keys: each key's own moment and, at
    k = 4, its pair moments.

    One depth-first walk visits the prefixes of those sorted keys in sorted
    order.  Column d of the scratch holds the product of the current key's
    first d + 1 columns: a key of one index copies its column, a longer key
    multiplies its prefix's product, which the walk visited last at its
    depth, by one contiguous column of xf.
    """
    needed = set()
    for key in map(tuple, map(sorted, keys)):
        needed.add(key)
        if len(key) == 4:
            needed.update(itertools.combinations(key, 2))
    scratch = np.empty((xf.shape[0], max(map(len, needed), default=0)), order="F")
    memo = {}
    for key in sorted({key[:d] for key in needed for d in range(1, len(key) + 1)}):
        prod = scratch[:, len(key) - 1]
        if len(key) == 1:
            prod[...] = xf[:, key[0]]
        else:
            np.multiply(scratch[:, len(key) - 2], xf[:, key[-1]], out=prod)
        if key in needed:
            memo[key] = float(prod.mean())
    return lambda idx: memo[tuple(sorted(idx))]


def _cumulant_value(moment: Callable, idx: tuple[int, ...]):
    """Denominator-n sample cumulant of the columns idx (k <= 4) from their
    central moments; works on floats and on arrays of replicates alike."""
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


def sample_cumulant(data: SampleMatrix, k: int) -> Tensor:
    """Plug-in sample cumulant tensor (denominator n), exactly symmetric.

    Each entry is computed once per sorted multi-index and broadcast,
    so the output is symmetric to the last bit.  The moments come from
    one prefix walk (_moments_of): every product is the same left fold
    of contiguous columns in sorted key order that a per-key loop takes,
    and its mean is numpy's pairwise sum of a contiguous column, so each
    entry equals that loop's to the last bit.  The mean subtracted is
    taken over axis 0 of the C-ordered data, where numpy sums each column
    row by row; it sums an F-ordered column pairwise, which can differ in
    the last bit, so only the subtraction writes F order.  An entry past
    the float range is a ValueError naming its vertices.
    """
    if k not in (2, 3, 4):
        raise OrderUnsupported(f"sample cumulants implemented for orders 2..4, got {k}")
    x = data.data
    keys = orbit_table(x.shape[1], k)[0]
    with np.errstate(all="ignore"):  # a value past the float range is refused below
        moment = _moments_of(np.subtract(x, x.mean(axis=0), order="F"), keys)
        values = [_cumulant_value(moment, key) for key in keys]
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
    if k not in (2, 3, 4):
        raise OrderUnsupported(f"sample cumulants implemented for orders 2..4, got {k}")
    n = len(side_lists[0])
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

    point = _moments_of(xf, indices)
    entries = dict(zip(positions, (_cumulant_value(point, idx) for idx in indices)))
    stat = float(hyperdet_from_getter(n, k, entries.__getitem__))
    if not math.isfinite(stat):
        raise ValueError("the bootstrap statistic leaves the float range")

    # Every sub-multiset of an entry's index: the raw moments that the
    # entry's central moments (and, at k = 4, its pair moments) expand into.
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
        values = np.column_stack([_cumulant_value(moment, idx) for idx in indices])
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
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(labels.get(v, str(v)) for v in sm.vertices) + "\n")
        for row in sm.data:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


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
    return SampleMatrix(data=data, vertices=vertices)


def write_sample_binary(sm: SampleMatrix, path: str | Path) -> None:
    """16-byte header (magic "MTRK", u32 rows, u32 cols, 4 reserved bytes),
    then row-major little-endian float64."""
    rows, cols = sm.data.shape
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<II", rows, cols) + b"\x00" * 4)
        fh.write(np.ascontiguousarray(sm.data, dtype="<f8").tobytes())


def read_sample_binary(path: str | Path) -> SampleMatrix:
    raw = Path(path).read_bytes()
    if len(raw) < 16 or raw[:4] != MAGIC:
        raise ValueError("not a MTRK data file")
    rows, cols = struct.unpack("<II", raw[4:12])
    expected = 16 + rows * cols * 8
    if len(raw) != expected:
        raise ValueError(f"truncated MTRK file: expected {expected} bytes, got {len(raw)}")
    data = np.frombuffer(raw, dtype="<f8", offset=16).reshape(rows, cols)
    return SampleMatrix(data=data, vertices=tuple(range(1, cols + 1)))
