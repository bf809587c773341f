"""Canonical serialization helpers.

All JSON the package emits goes through canonical_json so that equal
values serialize to identical bytes: keys sorted, separators compact,
rationals rendered as "numerator/denominator" strings.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import SchemaError


def frac_to_str(x: Fraction) -> str:
    """Render a rational as "a/b" with b >= 1, e.g. Fraction(3) -> "3/1"."""
    return f"{x.numerator}/{x.denominator}"


def frac_from_str(s: str, path: str = "") -> Fraction:
    """Parse "a/b" (or a plain integer string) back into a Fraction."""
    try:
        if "/" in s:
            num, den = s.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(path or "/", f"not a rational: {s!r}") from exc


def as_rational(x: int | Fraction) -> int | Fraction:
    """A rational in normal form: an int when integral, else a Fraction.

    Integral values stay in int arithmetic, which needs no gcd per
    operation; Fraction is kept for the values that need it.
    """
    if type(x) is int:
        return x
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def canonical_json(obj: object) -> str:
    """Serialize to a single deterministic line (sorted keys, no spaces)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
