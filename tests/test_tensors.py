import itertools
import math
import random
from fractions import Fraction

import pytest

from multitrek import (
    DiagonalSpec,
    DimMismatch,
    IndexOutOfRange,
    NotCubical,
    SchemaError,
    Tensor,
    cauchy_binet_check,
    det_matrix,
    hyperdeterminant,
    subtensor,
    tensor_from_json,
    tensor_to_json,
    tucker_apply,
)
from multitrek.tensors import (
    TERM_LIST_MAX,
    _leibniz_terms,
    contract_mode,
    hyperdet_from_getter,
    hyperdet_from_table,
    orbit_table,
    symmetric_from_values,
    symmetric_tensor,
)
from multitrek.polynomial import Poly
from conftest import (
    det_by_permutation_expansion,
    hyperdet_by_leibniz,
    symmetric_by_sorting,
    tensor_json_by_entry,
)


def rand_tensor(rng, dims):
    total = 1
    for d in dims:
        total *= d
    return Tensor.of(dims, [Fraction(rng.randint(-5, 5)) for _ in range(total)])


def rand_matrix(rng, n, m):
    return [[Fraction(rng.randint(-5, 5)) for _ in range(m)] for _ in range(n)]


def test_tensor_of_validates():
    with pytest.raises(DimMismatch):
        Tensor.of((2, 2), [1, 2, 3])
    t = Tensor.of((2, 2), [1, 2, 3, 4])
    assert t.at((1, 0)) == 3
    with pytest.raises(IndexOutOfRange):
        t.at((2, 0))
    with pytest.raises(IndexOutOfRange):
        t.at((0,))


def test_build_row_major():
    t = Tensor.build((2, 3), lambda idx: Fraction(10 * idx[0] + idx[1]))
    assert t.entries == tuple(
        Fraction(10 * i + j) for i in range(2) for j in range(3)
    )


def test_det_matrix_matches_permutation_expansion():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = rand_matrix(rng, n, n)
        assert det_matrix(m) == det_by_permutation_expansion(m)
    assert det_matrix([]) == Fraction(1)


def test_det_matrix_is_exact_on_ints():
    # Two ints divide with //, so no float ever appears.
    assert det_matrix([[2, 1], [1, 1]]) == 1
    assert type(det_matrix([[2, 1], [1, 1]])) is int
    big = det_matrix([[10**17 + 1, 3], [7, 10**17]])
    assert big == 10000000000000000099999999999999979 and type(big) is int
    rng = random.Random(15)
    for _ in range(40):
        n = rng.randint(1, 5)
        m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert det_matrix(m) == det_by_permutation_expansion(m)
    assert det_matrix([[0, 1, 2], [0, 3, 4], [0, 5, 6]]) == 0
    assert det_matrix([[0, 1], [1, 0]]) == -1
    assert det_matrix([[Fraction(1, 2), 1], [3, Fraction(2, 3)]]) == Fraction(-8, 3)


def test_hyperdet_order2_is_matrix_det():
    rng = random.Random(6)
    for _ in range(30):
        n = rng.randint(1, 4)
        m = rand_matrix(rng, n, n)
        t = Tensor.of((n, n), [x for row in m for x in row])
        assert hyperdeterminant(t) == det_matrix(m)


def test_hyperdet_rejects_non_cubical():
    with pytest.raises(NotCubical):
        hyperdeterminant(Tensor.of((2, 3), [1] * 6))
    with pytest.raises(NotCubical):
        hyperdeterminant(Tensor.of((3,), [1, 2, 3]))


def test_hyperdet_signed_modes_alternate():
    # swapping two slices in any mode but the first flips the sign
    rng = random.Random(7)
    for mode in (1, 2):
        t = rand_tensor(rng, (2, 2, 2))
        d = hyperdeterminant(t)

        def swapped(idx):
            j = list(idx)
            j[mode] = 1 - j[mode]
            return t.at(tuple(j))

        ts = Tensor.build((2, 2, 2), swapped)
        assert hyperdeterminant(ts) == -d


def test_hyperdet_equal_slices_in_signed_mode_vanish():
    rng = random.Random(8)
    t = rand_tensor(rng, (3, 3, 3))

    def glued(idx):
        # copy slice j=0 over j=1: mode 2 has two equal slices
        j = (idx[0], 0 if idx[1] <= 1 else idx[1], idx[2])
        return t.at(j)

    assert hyperdeterminant(Tensor.build((3, 3, 3), glued)) == 0


def test_hyperdet_mode_one_is_unsigned():
    # two equal slices along the FIRST mode need not kill the determinant
    eye = [1, 0, 0, 1]
    t = Tensor.of((2, 2, 2), eye + eye)
    assert hyperdeterminant(t) == Fraction(2)


def test_hyperdet_from_getter_matches_dense():
    rng = random.Random(9)
    for _ in range(20):
        n = rng.randint(1, 3)
        k = rng.randint(2, 4)
        t = rand_tensor(rng, (n,) * k)
        assert hyperdet_from_getter(n, k, t.at) == hyperdeterminant(t)
    assert hyperdet_from_getter(0, 3, lambda i: Fraction(0)) == 1


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_hyperdet_from_getter_matches_leibniz(n, k):
    rng = random.Random(100 * k + n)
    size = n**k
    ints = [rng.choice([0, rng.randint(-9, 9)]) for _ in range(size)]
    fracs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(size)]
    x = Poly.var("x")
    polys = [x * rng.randint(-3, 3) + rng.randint(-3, 3) for _ in range(size)]
    for table, one in ((ints, 1), (fracs, Fraction(1)), (polys, Poly.const(1))):
        entry = table_getter(table, n, k)
        assert hyperdet_from_getter(n, k, entry) == hyperdet_by_leibniz(n, k, entry, one)
    # Floats stay on the Leibniz route, in its term order: bit-identical.
    floats = [rng.uniform(-2.0, 2.0) for _ in range(size)]
    entry = table_getter(floats, n, k)
    got = hyperdet_from_getter(n, k, entry)
    # n = 0 is the empty product, the int 1.
    assert type(got) is (float if n else int) and got == hyperdet_by_leibniz(n, k, entry, 1.0)


def table_getter(table, n, k):
    def entry(idx):
        assert len(idx) == k
        off = 0
        for i in idx:
            off = off * n + i
        return table[off]

    return entry


def test_order_two_int_determinant_stays_int():
    m = [[3, 1, 4], [1, 5, 9], [2, 6, 5]]
    det = hyperdet_from_getter(3, 2, lambda idx: m[idx[0]][idx[1]])
    assert det == det_by_permutation_expansion(m) and type(det) is int


def test_tucker_identity_and_composition():
    rng = random.Random(10)
    for _ in range(15):
        n = rng.randint(1, 3)
        k = rng.randint(2, 3)
        t = rand_tensor(rng, (n,) * k)
        eye = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        assert tucker_apply(t, eye) == t
        m1 = rand_matrix(rng, n, n)
        m2 = rand_matrix(rng, n, n)
        prod = [
            [sum((m1[i][a] * m2[a][j] for a in range(n)), Fraction(0)) for j in range(n)]
            for i in range(n)
        ]
        assert tucker_apply(tucker_apply(t, m1), m2) == tucker_apply(t, prod)


def test_tucker_rejects_shape_mismatch():
    t = Tensor.of((2, 2), [1, 2, 3, 4])
    with pytest.raises(DimMismatch):
        tucker_apply(t, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_contract_mode_rectangular():
    t = Tensor.of((2, 2), [1, 2, 3, 4])
    m = [[Fraction(1), Fraction(0), Fraction(2)], [Fraction(0), Fraction(1), Fraction(3)]]
    out = contract_mode(t, 1, m)
    assert out.dims == (2, 3)
    # entry (i, a) = sum_j t[i][j] m[j][a]
    assert out.at((0, 2)) == 1 * 2 + 2 * 3
    with pytest.raises(DimMismatch):
        contract_mode(t, 0, [[1, 2]])


@pytest.mark.parametrize(
    "m", [[[1, 2], [3]], [[1, 2], [3, 4, 5]], [[1], [3, 4]]], ids=["short", "long", "first-short"]
)
def test_contract_mode_refuses_a_ragged_matrix(m):
    with pytest.raises(DimMismatch, match="matrix rows have lengths"):
        contract_mode(Tensor.of((2, 2), [1, 2, 3, 4]), 0, m)


def contract_by_sum(t, mode, m):
    """contract_mode written out: every input entry times every column of m."""
    cols = len(m[0])
    dims = t.dims[:mode] + (cols,) + t.dims[mode + 1:]
    out = {idx: 0 for idx in itertools.product(*(range(d) for d in dims))}
    for idx in itertools.product(*(range(d) for d in t.dims)):
        for a in range(cols):
            out[idx[:mode] + (a,) + idx[mode + 1:]] += t.at(idx) * m[idx[mode]][a]
    return dims, [out[idx] for idx in sorted(out)]


def tucker_by_sum(t, m):
    """tucker_apply written out: the sum over every (j_1..j_k) at every (i_1..i_k)."""
    ranges = [range(d) for d in t.dims]
    entries = []
    for i in itertools.product(*ranges):
        total = 0
        for j in itertools.product(*ranges):
            term = t.at(j)
            for j_r, i_r in zip(j, i):
                term *= m[j_r][i_r]
            total += term
        entries.append(total)
    return entries


def asymmetric_tensors(rng):
    """Random rational cubical tensors of orders 1 to 3, none of them symmetric."""
    for k in (1, 2, 3):
        for n in (2, 3):
            t = rand_tensor(rng, (n,) * k)
            while k > 1 and all(
                t.at(idx) == t.at(perm)
                for idx in itertools.product(range(n), repeat=k)
                for perm in itertools.permutations(idx)
            ):
                t = rand_tensor(rng, (n,) * k)
            yield t


def test_contract_mode_computes_its_defining_sum_on_every_mode():
    rng = random.Random(20)
    for t in asymmetric_tensors(rng):
        n = t.dims[0]
        for mode in range(t.order):
            for cols in (1, n + 1):
                m = rand_matrix(rng, n, cols)
                dims, entries = contract_by_sum(t, mode, m)
                out = contract_mode(t, mode, m)
                assert (out.dims, out.entries, out.scalar) == (dims, tuple(entries), "rational")


def test_tucker_apply_computes_its_defining_sum():
    rng = random.Random(21)
    for t in asymmetric_tensors(rng):
        m = rand_matrix(rng, t.dims[0], t.dims[0])
        out = tucker_apply(t, m)
        assert (out.dims, out.entries, out.scalar) == (t.dims, tuple(tucker_by_sum(t, m)), "rational")


def test_float_contraction_of_integer_values_is_exact():
    rng = random.Random(22)
    t = Tensor.of((2, 3, 2), [float(rng.randint(-5, 5)) for _ in range(12)])
    m = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(3)]
    dims, entries = contract_by_sum(t, 1, m)
    out = contract_mode(t, 1, m)
    assert (out.dims, out.entries, out.scalar) == (dims, tuple(entries), "float")
    # A float in the matrix makes a rational tensor's result float too.
    r = rand_tensor(rng, (2, 2))
    square = [[float(rng.randint(-5, 5)) for _ in range(2)] for _ in range(2)]
    out = tucker_apply(r, square)
    assert (out.scalar, out.entries) == ("float", tuple(tucker_by_sum(r, square)))


def test_diagonal_spec_expand():
    spec = DiagonalSpec({1: Fraction(2), 3: Fraction(5)})
    t = spec.expand((1, 2, 3), 3)
    assert t.at((0, 0, 0)) == 2
    assert t.at((1, 1, 1)) == 0
    assert t.at((2, 2, 2)) == 5
    assert t.at((0, 1, 2)) == 0


def test_subtensor_selects():
    t = Tensor.build((3, 3), lambda idx: Fraction(3 * idx[0] + idx[1]))
    s = subtensor(t, [(2, 0), (1,)])
    assert s.dims == (2, 1)
    assert s.at((0, 0)) == 7  # row 2, col 1
    assert s.at((1, 0)) == 1
    with pytest.raises(IndexOutOfRange):
        subtensor(t, [(3,), (0,)])


def test_cauchy_binet_random_exact():
    rng = random.Random(11)
    for _ in range(30):
        p = rng.randint(1, 3)
        n = rng.randint(p, 4)
        k = rng.randint(2, 3)
        a = rand_tensor(rng, (p, n) + (p,) * (k - 2))
        b = rand_matrix(rng, n, p)
        assert cauchy_binet_check(a, b)


def test_json_round_trip_rational_and_float():
    rng = random.Random(12)
    t = rand_tensor(rng, (2, 2, 2))
    assert tensor_from_json(tensor_to_json(t)) == t
    f = Tensor.of((2,), [0.5, -1.25], scalar="float")
    assert tensor_from_json(tensor_to_json(f)) == f
    text = tensor_to_json(t)
    assert "\n" not in text and ": " not in text


@pytest.mark.parametrize("scalar, kind", [("rational", Fraction), ("float", float)])
def test_symmetric_tensor_is_the_sorted_broadcast(scalar, kind):
    def value_of(key):
        return Fraction(sum((j + 1) * (i + 2) ** 2 for j, i in enumerate(key)) - 30, 3)

    for p in range(6):
        for order in range(1, 5):
            keys, table = orbit_table(p, order)
            assert keys == tuple(itertools.combinations_with_replacement(range(p), order))
            t = symmetric_tensor(p, order, value_of, scalar)
            assert (t.dims, t.scalar) == ((p,) * order, scalar)
            assert t.entries == tuple(symmetric_by_sorting(p, order, value_of, kind))
            assert all(type(e) is kind for e in t.entries)
            # One converted object per orbit, shared by all of its positions.
            first = {}
            assert all(first.setdefault(i, e) is e for i, e in zip(table, t.entries))
            assert len(first) == len(keys)


def test_symmetric_from_values_reads_the_values_in_sorted_key_order():
    assert symmetric_from_values(2, 2, [1, 2, 3]).entries == tuple(map(Fraction, (1, 2, 2, 3)))
    floats = symmetric_from_values(2, 3, [1.0, 2, 3, 4], "float")
    assert floats.entries == (1.0, 2.0, 2.0, 3.0, 2.0, 3.0, 3.0, 4.0)


def test_tensor_to_json_matches_formatting_every_entry():
    rng = random.Random(25)
    sym = symmetric_tensor(4, 3, lambda key: Fraction(rng.randint(-50, 50), rng.randint(1, 9)))
    parsed = tensor_from_json(tensor_to_json(sym))
    # Read back, equal entries are distinct objects.
    assert parsed == sym and len({id(e) for e in parsed.entries}) == len(parsed.entries)
    # One object at positions of different orbits; -1 and -2 have equal hashes.
    x, y, z = Fraction(1, 3), Fraction(-1), Fraction(-2)
    shared = Tensor.of((2, 3), [x, y, z, z, y, x])
    floats = symmetric_tensor(3, 2, lambda key: key[0] - key[1] / 4, "float")
    for t in (sym, parsed, rand_tensor(rng, (2, 3, 2)), shared, floats, Tensor.of((0, 2), [])):
        assert tensor_to_json(t) == tensor_json_by_entry(t)


@pytest.mark.parametrize(
    "order, dims, where",
    [("true", "[1]", "/order"), ("1.0", "[1]", "/order"), ("1", "[1.9]", "/dims/0"),
     ("1", "[true]", "/dims/0"), ("1", '"1"', "/dims")],
)
def test_json_order_and_dims_must_be_json_ints(order, dims, where):
    text = '{"order":%s,"dims":%s,"scalar":"rational","entries":["1/1"]}' % (order, dims)
    with pytest.raises(SchemaError) as exc:
        tensor_from_json(text)
    assert exc.value.path == where


@pytest.mark.parametrize(
    "scalar, entries, where",
    [("rational", '[true,"1/2"]', "/entries/0"), ("rational", '["1/1",0.5]', "/entries/1"),
     ("rational", '["1/1",2]', "/entries/1"), ("float", '[1.0,true]', "/entries/1"),
     ("float", '["1.5",1.0]', "/entries/0"), ("float", '[1.0,"nan"]', "/entries/1"),
     ("float", '[1.0,null]', "/entries/1"), ("rational", '"12"', "/entries"),
     ("float", '[1.0,1%s]' % ("0" * 400), "/entries/1"), ("float", '[-1%s,1.0]' % ("0" * 400), "/entries/0")],
)
def test_json_entries_are_read_as_tensor_to_json_writes_them(scalar, entries, where):
    text = '{"order":1,"dims":[2],"scalar":"%s","entries":%s}' % (scalar, entries)
    with pytest.raises(SchemaError) as exc:
        tensor_from_json(text)
    assert exc.value.path == where


def test_json_rational_entries_need_not_fit_in_a_float():
    huge = "1" + "0" * 400
    t = tensor_from_json('{"order":1,"dims":[1],"scalar":"rational","entries":["%s/3"]}' % huge)
    assert t.entries == (Fraction(int(huge), 3),)


def test_json_float_entries_may_be_any_json_number():
    t = tensor_from_json('{"order":1,"dims":[3],"scalar":"float","entries":[1,-2.5,NaN]}')
    assert t.entries[:2] == (1.0, -2.5) and type(t.entries[0]) is float
    assert t.entries[2] != t.entries[2]


def test_json_rejects_malformed():
    with pytest.raises(SchemaError):
        tensor_from_json("[")
    with pytest.raises(SchemaError):
        tensor_from_json('{"dims":[2],"scalar":"rational","entries":["1","2"]}')
    with pytest.raises(SchemaError):
        tensor_from_json(
            '{"order":1,"dims":[2],"scalar":"nope","entries":[1,2]}'
        )
    with pytest.raises(SchemaError):
        tensor_from_json(
            '{"order":1,"dims":[2],"scalar":"rational","entries":["1/0"]}'
        )


@pytest.mark.parametrize("k", [2, 3, 4, 5])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_term_lists_match_leibniz_on_tables_with_zeros(n, k):
    # Shapes of at most TERM_LIST_MAX terms read a kept term list, larger ones
    # stream; both give the reference's value, float bits included.
    terms = math.factorial(n) ** (k - 1)
    assert (_leibniz_terms(n, k) is None) == (terms > TERM_LIST_MAX)
    rng = random.Random(1000 * k + n)
    size = n**k

    def table(draw):
        return [draw() if rng.random() >= 1 / 3 else draw() * 0 for _ in range(size)]

    x, y = Poly.var("x"), Poly.var("y")
    tables = [(table(lambda: rng.uniform(-2.0, 2.0)), 1.0)]
    if terms <= 20_000:  # the reference multiplies every term out; n = 4, k = 5 has 331,776
        tables += [
            (table(lambda: rng.randint(1, 9) * rng.choice((-1, 1))), 1),
            (table(lambda: Fraction(rng.randint(1, 9), rng.randint(1, 4)) * rng.choice((-1, 1))), Fraction(1)),
            (table(lambda: x * rng.randint(1, 3) - y * rng.randint(0, 3) + 1), Poly.const(1)),
        ]
    for entries, one in tables:
        got = hyperdet_from_table(n, k, entries)
        want = hyperdet_by_leibniz(n, k, table_getter(entries, n, k), one)
        if isinstance(one, float):
            assert float(got).hex() == float(want).hex()
        else:
            assert got == want
