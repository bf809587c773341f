"""Sparse multivariate polynomials over the rationals.

Coefficients are kept in normal form (ser.as_rational): an int when
integral, else a Fraction, so integer-coefficient polynomials never
pay for Fraction arithmetic.

Just enough ring structure for symbolic vanishing checks: named
variables, +, *, negation, and an exact zero test.  Variables are
plain strings; a monomial is a sorted tuple of (variable, exponent)
pairs, so representation and iteration order are deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .ser import as_rational

Monomial = tuple[tuple[str, int], ...]


class Poly:
    """Immutable sparse polynomial: {monomial: nonzero coefficient}."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, int | Fraction] | None = None) -> None:
        clean = {}
        if terms:
            for mono, coef in terms.items():
                c = as_rational(coef)
                if c:
                    clean[mono] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Poly is immutable")

    @classmethod
    def const(cls, c: Fraction | int) -> "Poly":
        return cls({(): c})

    @classmethod
    def var(cls, name: str) -> "Poly":
        return cls({((name, 1),): 1})

    @staticmethod
    def _coerce(other: object) -> "Poly | None":
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.const(other)
        return None

    def __add__(self, other: object) -> "Poly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms = dict(self.terms)
        for mono, coef in o.terms.items():
            terms[mono] = terms.get(mono, 0) + coef
        return Poly(terms)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: object) -> "Poly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: object) -> "Poly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other: object) -> "Poly":
        if isinstance(other, (int, Fraction)):
            # A constant scales the coefficients; no monomial changes.
            return self if other == 1 else Poly({m: c * other for m, c in self.terms.items()})
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms: dict[Monomial, int | Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in o.terms.items():
                mono = _merge(m1, m2)
                terms[mono] = terms.get(mono, 0) + c1 * c2
        return Poly(terms)

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    def evaluate(self, env: Mapping[str, Fraction]) -> Fraction:
        total = Fraction(0)
        for mono, coef in self.terms.items():
            val = coef
            for name, exp in mono:
                val *= env[name] ** exp
            total += val
        return total

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms):
            coef = self.terms[mono]
            factors = [f"{name}^{exp}" if exp > 1 else name for name, exp in mono]
            body = "*".join(factors)
            if body:
                parts.append(f"{coef}*{body}" if coef != 1 else body)
            else:
                parts.append(str(coef))
        return " + ".join(parts)


def _merge(m1: Monomial, m2: Monomial) -> Monomial:
    exps: dict[str, int] = {}
    for name, exp in m1 + m2:
        exps[name] = exps.get(name, 0) + exp
    return tuple(sorted(exps.items()))
