"""The input readers in multitrek.ser: what they take and what they refuse."""

import re
from fractions import Fraction

import numpy as np
import pytest

from multitrek import (
    DiagonalSpec,
    DirectedPath,
    HyperedgeSpec,
    ModelInstance,
    NoiseCumulants,
    NoiseSpec,
    SampleMatrix,
    SchemaError,
)
from multitrek.ser import (
    checked_seed,
    frac_from_str,
    frac_to_str,
    in_float_range,
    read_edge,
    read_float,
    read_int,
    read_ints,
    read_json,
)

# Spellings that int() accepts but that name no id canonically.
NON_CANONICAL = ["1_0", " 3", "3 ", "+3", "03", "00", "-0", "-03", "٣", "3\n", ""]


@pytest.mark.parametrize("value", [0, 3, -3, 10, 12345678901234567890])
def test_read_int_takes_what_str_writes(value):
    assert read_int(str(value)) == value


@pytest.mark.parametrize("text", NON_CANONICAL + ["x", "1.0", "1e3", "--3", "0x1", None, 3])
def test_read_int_refuses_every_other_spelling(text):
    with pytest.raises(SchemaError, match=r"^/where: no id$"):
        read_int(text, "/where", "no id")


@pytest.mark.parametrize("key, edge", [("1->2", (1, 2)), ("10->0", (10, 0)), ("-1->2", (-1, 2))])
def test_read_edge(key, edge):
    assert read_edge(key, "/lambda") == edge


@pytest.mark.parametrize("key", ["1_0->2", "1-> 2", "+1->2", "1->02", "1->2->3", "1-2", "->2", "1->"])
def test_read_edge_refuses_malformed_keys(key):
    with pytest.raises(SchemaError, match=re.escape(f"/lambda/{key}: expected 'u->v' key") + "$"):
        read_edge(key, f"/lambda/{key}")


@pytest.mark.parametrize(
    "text, value",
    [("3/4", Fraction(3, 4)), ("-3/4", Fraction(-3, 4)), ("6/8", Fraction(3, 4)), ("7", Fraction(7)),
     ("0/1", Fraction(0)), ("-7", Fraction(-7))],
)
def test_frac_from_str(text, value):
    assert frac_from_str(text) == value


@pytest.mark.parametrize(
    "text", ["1_0/3", "+7", "1/02", " 1/2", "1/ 2", "1/-2", "1/0", "-0/1", "1/2/3", "1/", "/2", "1.5"]
)
def test_frac_from_str_refuses_non_canonical_rationals(text):
    with pytest.raises(SchemaError, match="^/x: not a rational: "):
        frac_from_str(text, "/x")


@pytest.mark.parametrize("value", [True, 3, 0.5, None, ["1/2"]])
def test_frac_from_str_needs_a_string(value):
    with pytest.raises(SchemaError, match="a rational must be an 'a/b' string"):
        frac_from_str(value, "/x")


def test_frac_round_trip():
    for x in [Fraction(0), Fraction(-5, 3), Fraction(10**30, 7)]:
        assert frac_from_str(frac_to_str(x)) == x


@pytest.mark.parametrize("text", ["not json", "", "[1,", "[" * 100_000 + "]" * 100_000])
def test_read_json_refuses_what_does_not_decode(text):
    with pytest.raises(SchemaError, match="^/here: invalid JSON: "):
        read_json(text, "/here")


def test_read_json_default_pointer_is_the_root():
    with pytest.raises(SchemaError, match="^/: invalid JSON: "):
        read_json("{")


@pytest.mark.parametrize("value", [True, False, 1.0, 2.5, "1", None])
def test_json_ints_refuse_bools_floats_and_strings(value):
    with pytest.raises(SchemaError, match="^/v: must be an integer$"):
        read_ints(value, "/v", 0)
    with pytest.raises(SchemaError, match="^/v/1: must be an integer$"):
        read_ints([1, value], "/v")
    with pytest.raises(SchemaError, match="^/v/0/1: must be an integer$"):
        read_ints([[1, value]], "/v", 2)


def test_json_int_arrays():
    assert read_ints(-4, "/v", 0) == -4
    assert read_ints([1, 2], "/v") == [1, 2]
    assert read_ints([[1], []], "/v", 2) == [[1], []]
    with pytest.raises(SchemaError, match="^/v: must be an array$"):
        read_ints({"0": 1}, "/v")
    with pytest.raises(SchemaError, match="^/v/0: must be an array$"):
        read_ints([1], "/v", 2)


@pytest.mark.parametrize(
    "value",
    [0.0, -0.0, 1.5, 1e-05, 1e16, 5e-324, 1.7976931348623157e308, float("inf"), -float("inf"), float("nan")],
)
def test_read_float_takes_what_repr_writes(value):
    assert repr(read_float(repr(value))) == repr(value)


@pytest.mark.parametrize("text", ["1_0", " 3", "3 ", "3\t", "\u0663", "1.5\r", "", "x", "1,5"])
def test_read_float_refuses_other_spellings(text):
    with pytest.raises(SchemaError, match=re.escape(f"/cell: not a number: {text!r}") + "$"):
        read_float(text, "/cell")


@pytest.mark.parametrize(
    "value",
    [0, 2**1023, 1.5, float("inf"), Fraction(1, 10**400), Fraction(-(2**1023), 3)],
)
def test_in_float_range_passes_what_float_takes(value):
    assert in_float_range(value, "/x") is value


@pytest.mark.parametrize("value", [10**400, -(2**1024), Fraction(10**400, 3), Fraction(-(10**400), 7)])
def test_in_float_range_refuses_what_overflows(value):
    with pytest.raises(SchemaError, match="^/x: too large for a float$"):
        in_float_range(value, "/x")


_NOISE = {2: NoiseCumulants(DiagonalSpec({1: 1, 2: 1}))}
# Each value type at one id, under MixedGraph's rule (see test_graphs): 1.7,
# 2.0 and True once passed through int() as 1, 2 and 1.
_ID_TAKERS = {
    "DirectedPath": lambda x: DirectedPath((x, 2)),
    "ModelInstance edge": lambda x: ModelInstance(lam={(x, 2): 3}, noise=_NOISE),
    "ModelInstance noise order": lambda x: ModelInstance(lam={(1, 2): 3}, noise={x: _NOISE[2]}),
    "DiagonalSpec": lambda x: DiagonalSpec({x: 1}),
    "HyperedgeSpec": lambda x: HyperedgeSpec({(x, 3): 1}),
    "NoiseSpec": lambda x: NoiseSpec({x: ("uniform", 1)}),
    "SampleMatrix": lambda x: SampleMatrix(data=np.zeros((1, 2)), vertices=(3, x)),
}


@pytest.mark.parametrize("value", [1.7, 2.0, True], ids=["float", "integral-float", "bool"])
@pytest.mark.parametrize("taker", sorted(_ID_TAKERS))
def test_every_value_type_refuses_an_id_that_is_no_int(taker, value):
    what = "noise order" if taker.endswith("noise order") else "vertex id"
    with pytest.raises(ValueError) as info:
        _ID_TAKERS[taker](value)
    assert str(info.value) == f"{what} {value!r} is not an integer"
    _ID_TAKERS[taker](2)  # the int itself passes


# Each value type given a str id beside an int one, which no sort can order:
# the id rule must see every id before the entries are sorted.
_MIXED_ID_TAKERS = {
    "ModelInstance edge": lambda: ModelInstance(lam={("a", 2): 3, (1, 2): 3}, noise=_NOISE),
    "ModelInstance noise order": lambda: ModelInstance(lam={}, noise={"a": _NOISE[2], 2: _NOISE[2]}),
    "DiagonalSpec": lambda: DiagonalSpec({"a": 1, 1: 2}),
    "HyperedgeSpec": lambda: HyperedgeSpec({("a", 3): 1, (1, 3): 1}),
    "NoiseSpec": lambda: NoiseSpec({"a": ("uniform", 1), 1: ("uniform", 1)}),
}


@pytest.mark.parametrize("taker", sorted(_MIXED_ID_TAKERS))
def test_a_str_id_beside_an_int_one_is_refused_by_the_id_rule(taker):
    what = "noise order" if taker.endswith("noise order") else "vertex id"
    with pytest.raises(ValueError) as info:
        _MIXED_ID_TAKERS[taker]()
    assert str(info.value) == f"{what} 'a' is not an integer"


@pytest.mark.parametrize("seed, error", [
    (-1, "seed must be >= 0, got -1"),
    (True, "seed True is not an integer"),
    (1.0, "seed 1.0 is not an integer"),
    ("3", "seed '3' is not an integer"),
])
def test_the_seed_rule_refuses_negative_and_non_int_seeds(seed, error):
    with pytest.raises(ValueError) as info:
        checked_seed(seed)
    assert str(info.value) == error
    assert checked_seed(0) == 0 and checked_seed(2**40) == 2**40
