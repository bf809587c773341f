import itertools
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
from multitrek.tensors import contract_mode, hyperdet_from_getter
from multitrek.polynomial import Poly
from conftest import det_by_permutation_expansion, hyperdet_by_leibniz


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
