"""Integer-coefficient Laurent polynomials in the genus variable ``y``.

fpkit computes genus polynomials as packed integers and keeps the results
here; the only arithmetic is the exact product of two of them.
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

    def coefficients(self) -> dict[int, int]:
        return dict(self.terms)

    def __mul__(self, other: LaurentPoly) -> LaurentPoly:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        acc: dict[int, int] = {}
        for i, a in self.terms:
            for j, b in other.terms:
                k = i + j
                acc[k] = acc.get(k, 0) + a * b
        return LaurentPoly(acc)

    def fmt(self) -> str:
        """Human-readable rendering in ``y``, in ascending exponent order.

        >>> LaurentPoly({0: 1, 1: -1, 2: 1}).fmt()
        '1 - y + y^2'
        >>> LaurentPoly({-1: 1, 3: -2}).fmt()
        'y^-1 - 2y^3'
        """
        if not self.terms:
            return "0"
        parts: list[str] = []
        for k, c in self.terms:
            sign = " - " if (c < 0 and parts) else " + " if parts else "-" if c < 0 else ""
            power = "" if k == 0 else "y" if k == 1 else f"y^{k}"
            magnitude = "" if (abs(c) == 1 and power) else str(abs(c))
            parts.append(sign + magnitude + power)
        return "".join(parts)

    def __str__(self) -> str:
        return self.fmt()

    def __repr__(self) -> str:
        return f"LaurentPoly('{self.fmt()}')"
