"""Integer-coefficient Laurent polynomials in one formal variable.

Used both for genus polynomials in ``y`` and for virtual circle
representations in ``t`` (finite sums of powers ``t^k``, k any integer).
All arithmetic is exact.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterable, Mapping

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
    def from_exponents(cls, exponents: Iterable[int]) -> LaurentPoly:
        """Sum of monomials ``t^k``, one per listed exponent (with multiplicity).

        >>> LaurentPoly.from_exponents([-1, 2, 2])
        LaurentPoly('y^-1 + 2y^2')
        """
        return cls((k, 1) for k in exponents)

    def coefficients(self) -> dict[int, int]:
        return dict(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Largest exponent; raises on the zero polynomial."""
        if not self.terms:
            raise ValueError("zero polynomial has no degree")
        return self.terms[-1][0]

    def is_polynomial(self) -> bool:
        """True when no negative exponents occur."""
        return not self.terms or self.terms[0][0] >= 0

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
        result = LaurentPoly({0: 1})
        for _ in range(exponent):
            result = result * self
        return result

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
