import random
from fractions import Fraction

import pytest

from multitrek.polynomial import Poly


def rand_poly(rng, names=("x", "y", "z")):
    p = Poly.const(0)
    for _ in range(rng.randint(0, 4)):
        term = Poly.const(Fraction(rng.randint(-4, 4)))
        for name in names:
            for _ in range(rng.randint(0, 2)):
                term = term * Poly.var(name)
        p = p + term
    return p


def rand_env(rng, names=("x", "y", "z")):
    return {n: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for n in names}


def test_ring_identities_under_evaluation():
    rng = random.Random(31)
    for _ in range(60):
        a, b, c = (rand_poly(rng) for _ in range(3))
        env = rand_env(rng)
        ea, eb, ec = a.evaluate(env), b.evaluate(env), c.evaluate(env)
        assert (a + b).evaluate(env) == ea + eb
        assert (a - b).evaluate(env) == ea - eb
        assert (a * b).evaluate(env) == ea * eb
        assert ((a + b) * c).evaluate(env) == (ea + eb) * ec
        assert (a * b == b * a) and (a + b == b + a)
        assert ((a + b) + c) == (a + (b + c))


def test_zero_and_constants():
    z = Poly.const(0)
    assert not z and z.n_terms == 0
    x = Poly.var("x")
    assert (x - x) == z
    assert x + 0 == x and 0 + x == x
    assert x * 1 == x and 2 * x == x + x
    assert 1 - x == Poly.const(1) - x
    assert bool(x)


def test_scalar_product_matches_the_constant_product():
    # An int or Fraction factor scales the coefficients: same terms, in the
    # same order, as the product with the constant polynomial.
    rng = random.Random(33)
    for _ in range(60):
        a = rand_poly(rng)
        for c in (0, 1, -1, 3, Fraction(2, 3), Fraction(4, 2), True):
            for product in (a * c, c * a):
                general = Poly.__mul__(a, Poly.const(c))
                assert product == general
                assert list(product.terms.items()) == list(general.terms.items())
                assert all(type(x) in (int, Fraction) for x in product.terms.values())
        assert a * 1 is a and 1 * a is a


def test_variable_powers_merge():
    x = Poly.var("x")
    p = x * x * x
    assert p.n_terms == 1
    assert p.evaluate({"x": Fraction(2)}) == 8
    assert repr(p) == "x^3"


def test_integral_coefficients_are_ints():
    x = Poly.var("x")
    p = x * Fraction(1, 2) * 2 + Poly.const(Fraction(6, 3))
    assert all(type(c) is int for c in p.terms.values())
    assert p == x + 2
    half = x * Fraction(1, 2)
    assert half.terms == {(("x", 1),): Fraction(1, 2)}
    assert type(half.terms[(("x", 1),)]) is Fraction


def test_equality_and_hash():
    x, y = Poly.var("x"), Poly.var("y")
    assert x * y == y * x
    assert hash(x * y) == hash(y * x)
    assert x != y
    assert Poly.const(3) == 3


def test_immutability():
    p = Poly.var("x")
    with pytest.raises(AttributeError):
        p.terms = {}


def test_repr_sorted_and_stable():
    x, y = Poly.var("x"), Poly.var("y")
    p = 2 * x + y * y - 3
    assert repr(p) == repr(2 * x + y * y - 3)
    assert repr(Poly.const(0)) == "0"
