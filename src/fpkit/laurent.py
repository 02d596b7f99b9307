"""Integer-coefficient Laurent polynomials in one formal variable.

Used both for genus polynomials in ``y`` and for virtual circle
representations in ``t`` (finite sums of powers ``t^k``, k any integer).
All arithmetic is exact; evaluation at an integer or ``Fraction`` point is
exact as well.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterable, Mapping
from fractions import Fraction

Coefficients = Mapping[int, int] | Iterable[tuple[int, int]]


@dataclasses.dataclass(init=False, frozen=True)
class LaurentPoly:
    """A Laurent polynomial with integer coefficients.

    Stored as a tuple of ``(exponent, coefficient)`` pairs sorted by
    exponent, with zero coefficients stripped.  The zero polynomial is the
    empty tuple.

    >>> LaurentPoly({0: 1, 1: -1, 2: 1})
    LaurentPoly('1 - y + y^2')
    >>> LaurentPoly({-1: 2}) * LaurentPoly({1: 3})
    LaurentPoly('6')
    >>> LaurentPoly({2: 0})
    LaurentPoly('0')
    """

    terms: tuple[tuple[int, int], ...]

    def __init__(self, coefficients: Coefficients = ()):
        if isinstance(coefficients, Mapping):
            items = coefficients.items()
        else:
            items = coefficients
        merged: dict[int, int] = {}
        for exponent, coefficient in items:
            merged[exponent] = merged.get(exponent, 0) + coefficient
        terms = tuple(sorted((k, c) for k, c in merged.items() if c != 0))
        object.__setattr__(self, "terms", terms)

    @classmethod
    def zero(cls) -> LaurentPoly:
        return cls()

    @classmethod
    def one(cls) -> LaurentPoly:
        return cls({0: 1})

    @classmethod
    def monomial(cls, exponent: int, coefficient: int = 1) -> LaurentPoly:
        return cls({exponent: coefficient})

    @classmethod
    def from_exponents(cls, exponents: Iterable[int]) -> LaurentPoly:
        """Sum of monomials ``t^k``, one per listed exponent (with multiplicity).

        >>> LaurentPoly.from_exponents([-1, 2, 2])
        LaurentPoly('y^-1 + 2y^2')
        """
        return cls((k, 1) for k in exponents)

    def coefficients(self) -> dict[int, int]:
        return dict(self.terms)

    def coefficient(self, exponent: int) -> int:
        for k, c in self.terms:
            if k == exponent:
                return c
        return 0

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Largest exponent; raises on the zero polynomial."""
        if not self.terms:
            raise ValueError("zero polynomial has no degree")
        return self.terms[-1][0]

    def valuation(self) -> int:
        """Smallest exponent; raises on the zero polynomial."""
        if not self.terms:
            raise ValueError("zero polynomial has no valuation")
        return self.terms[0][0]

    def is_polynomial(self) -> bool:
        """True when no negative exponents occur."""
        return not self.terms or self.terms[0][0] >= 0

    def mirror(self, pivot: int) -> LaurentPoly:
        """Substitute the variable by its inverse and multiply by ``var^pivot``.

        Sends the exponent ``k`` to ``pivot - k``.

        >>> LaurentPoly({0: 1, 1: -1, 2: 1}).mirror(2)
        LaurentPoly('1 - y + y^2')
        """
        return LaurentPoly((pivot - k, c) for k, c in self.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other: int | LaurentPoly) -> LaurentPoly:
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return LaurentPoly(list(self.terms) + list(other.terms))

    __radd__ = __add__

    def __neg__(self) -> LaurentPoly:
        return LaurentPoly((k, -c) for k, c in self.terms)

    def __sub__(self, other: int | LaurentPoly) -> LaurentPoly:
        return self + (-other)

    def __rsub__(self, other: int | LaurentPoly) -> LaurentPoly:
        return (-self) + other

    def __mul__(self, other: int | LaurentPoly) -> LaurentPoly:
        if isinstance(other, int):
            return LaurentPoly((k, c * other) for k, c in self.terms)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        acc: dict[int, int] = {}
        for i, a in self.terms:
            for j, b in other.terms:
                k = i + j
                acc[k] = acc.get(k, 0) + a * b
        return LaurentPoly(acc)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> LaurentPoly:
        if exponent < 0:
            raise ValueError("negative powers are not defined for LaurentPoly")
        result = LaurentPoly.one()
        for _ in range(exponent):
            result = result * self
        return result

    def __call__(self, value):
        """Evaluate exactly at an integer or Fraction point.

        >>> LaurentPoly({0: 1, 1: -1, 2: 1})(-1)
        3
        >>> LaurentPoly({-2: 1})(2)
        Fraction(1, 4)
        """
        if isinstance(value, int) and self.terms and self.terms[0][0] < 0:
            value = Fraction(value)
        return sum(c * value**k for k, c in self.terms)

    def fmt(self, var: str = "y") -> str:
        """Human-readable rendering in ascending exponent order.

        >>> LaurentPoly({0: 1, 1: -1, 2: 1}).fmt()
        '1 - y + y^2'
        >>> LaurentPoly({-1: 1, 3: -2}).fmt(var="t")
        't^-1 - 2t^3'
        """
        if not self.terms:
            return "0"
        parts: list[str] = []
        for k, c in self.terms:
            sign = " - " if (c < 0 and parts) else " + " if parts else "-" if c < 0 else ""
            power = "" if k == 0 else var if k == 1 else f"{var}^{k}"
            magnitude = "" if (abs(c) == 1 and power) else str(abs(c))
            parts.append(sign + magnitude + power)
        return "".join(parts)

    def __str__(self) -> str:
        return self.fmt()

    def __repr__(self) -> str:
        return f"LaurentPoly('{self.fmt()}')"
