"""Exact localization sums over fixed-point data.

Every quantity here is a finite sum over fixed points of symmetric
functions of the weights divided by the weight product, evaluated in exact
rational arithmetic over the lcm of the weight products.  That lcm and its
cofactors are computed once per data object, not once per sum, and so is
the running-product table behind :func:`residue_sum`; every other sum goes
through :func:`localize`.  A Chern monomial reads the elementary symmetric
functions of each point's weights off one or two packed integer products,
with one big-integer step per weight; one cut per call, chosen by bit
cost, says which products every point packs.  The genus polynomial from
fixed-point data is assembled from the Betti counts.  That of the standard
projective model is also computed independently from its characteristic
power series, as a residue sum evaluated as one packed integer and
assembled from its digits, which the same digit reader reads, to check the
two routes.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import prod

from .core import FixedPointData, ValidationError, _bundle, _check_int, betti_numbers
from .laurent import LaurentPoly

_ZERO = Fraction(0)  # what a vanishing sum returns, without a gcd


def localize(data: FixedPointData, columns: Iterable[Sequence[int]]) -> list[Fraction]:
    """The localization kernel: sum_i column[i] / e_i for every column.

    Each column holds one integer numerator per point, in point order, and
    e_i is the weight product of point i.  The lcm of the products and the
    signed cofactors lcm // e_i come from ``data.common_denominator``, which
    computes them once per data object, so each column is a single integer
    dot product over that common denominator.
    """
    denominator, cofactors = data.common_denominator
    totals = (sum(map(operator.mul, column, cofactors)) for column in columns)
    return [Fraction(total, denominator) if total else _ZERO for total in totals]


def _residue_numerators(data: FixedPointData, top: int) -> list[int]:
    # entry r is sum_i c_i s_i^r (cofactors c_i, weight sums s_i) for r up to
    # max(n, top), kept in a plain memo, since it grows with the requested power
    table = data.__dict__.get("_residue_numerators")
    if table is None or len(table) <= top:
        terms = data.common_denominator[1]
        sums = [p.weight_sum for p in data.points]
        table = [sum(terms)]
        for _ in range(max(data.n, top)):
            terms = list(map(operator.mul, terms, sums))
            table.append(sum(terms))
        data.__dict__["_residue_numerators"] = table
    return table


def residue_sum(data: FixedPointData, power: int) -> Fraction:
    """The exact sum over points of (weight sum)^power / (weight product).

    Vanishes for all ``power < n`` on data coming from an actual action; at
    ``power = n`` it is the top self-intersection number of the first Chern
    class.  All powers up to max(n, power) come from one running product
    kept on the data object, at about the cost of one :func:`localize`
    call; a higher power rebuilds it up to that power.
    """
    power = _check_int(power, "power", 0)
    numerator = _residue_numerators(data, power)[power]
    return Fraction(numerator, data.common_denominator[0]) if numerator else _ZERO


def residue_constraints_hold(data: FixedPointData) -> bool:
    """True when residue_sum(data, r) vanishes for every r in 0..n-1."""
    return not any(_residue_numerators(data, data.n)[: data.n])


def _balanced_digits(acc: int, bits: int, count: int) -> list[int]:
    """The ``count`` lowest balanced base-2^bits digits of ``acc``, lowest
    first, each in [-2^(bits - 1), 2^(bits - 1)).

    The digit rule of every packed polynomial in fpkit.  For a base R >= 3
    and the window of the R integers from -floor(R/2) on, every integer x
    is sum_k d_k R^k for exactly one finite digit sequence in the window:
    d_0 is the window's one integer congruent to x mod R, and the rest are
    the digits of x' = (x - d_0) / R, where |x'| <= (|x| + R/2) / R < |x|
    for x != 0.  So d_0..d_(k-1) depend only on x mod R^k, and they are the
    coefficients below degree k of an integer polynomial p with p(R) = x
    (mod R^k) when those lie in the window.  Here R = 2^bits, bits >= 2;
    a digit is acc mod R, less R with a carry of 1 when it is >= R/2.
    """
    digit_mask, half = (1 << bits) - 1, 1 << bits - 1
    digits = []
    for _ in range(count):
        digit = acc & digit_mask
        acc >>= bits
        if digit >= half:
            digit -= 1 << bits
            acc += 1
        digits.append(digit)
    return digits


def _packing(n: int, width: int, top: int, low: int, backward: bool) -> tuple[int, int]:
    """The digit width and count with which :func:`_elementary_symmetric`
    packs sigma_low..sigma_top of n values of absolute value at most W =
    ``width`` in the given direction; their product is the cost, in bits,
    that :func:`chern_monomial` compares its cuts by.

    Forward, the digits are sigma_0..sigma_top, and |sigma_j| <= C(n, j) W^j
    is at most (nW)^top < 2^(top * bit_length(nW)) and 2^n W^top <
    2^(n + top * bit_length(W)), so 2 + the smaller exponent bits hold each.
    Backward, they are sigma_n..sigma_low, and each j >= low has |sigma_j|
    <= min(2^n, n^(n - low)) W^n, which sets the width the same way.
    """
    if backward:
        return 2 + min(n, (n - low) * n.bit_length()) + n * width.bit_length(), n - low + 1
    return 2 + min(top * (n * width).bit_length(), n + top * width.bit_length()), top + 1


def _elementary_symmetric(
    values: Sequence[int], top: int, low: int = 0, backward: bool = False
) -> list[int]:
    """Entry j is sigma_j of ``values`` for low <= j <= top <= len(values);
    an entry below ``low`` is sigma_j or 0.

    Forward, prod (1 + v z) is one integer at z = 2^bits, taken modulo
    2^(bits (top + 1)) with one big-integer step per weight; its lowest
    top + 1 digits (:func:`_balanced_digits`) are sigma_0..sigma_top.
    Backward, prod (v + z) modulo z^(n - low + 1) is taken the same way, and
    digit k is sigma_(n - k).  :func:`_packing` gives the digit width.
    """
    bits, count = _packing(len(values), max(map(abs, values)), top, low, backward)
    mask, acc = (1 << bits * count) - 1, 1
    if backward:
        for v in values:
            acc = ((acc << bits) + acc * v) & mask
        return [0] * low + _balanced_digits(acc, bits, count)[::-1][: top - low + 1]
    for v in values:
        acc = (acc + (acc * v << bits)) & mask
    return _balanced_digits(acc, bits, count)


def chern_monomial(data: FixedPointData, indices: Iterable[int]) -> Fraction:
    """Evaluate the Chern monomial c_{i_1} ... c_{i_k} by summation over
    fixed points; its indices must sum to n.

    Each Chern class c_j contributes the j-th elementary symmetric
    polynomial of the point's weights; the product over the monomial's
    indices is divided by the weight product and summed exactly.  The data
    is taken at face value; no realizability check is attempted.

    The sigma_j come from one cut per call, taken for every point: a cut
    (b, a) packs forward up to b and backward from a, where b = 0 or
    a = n + 1 packs nothing on that side.  The cuts are the two ends,
    forward only (largest index, n + 1) and backward only (0, smallest
    index), then each pair of neighbouring distinct indices, so that
    [n - 1, 1] packs two low and two high digits instead of n.  The cut
    with the fewest bits (:func:`_packing`, at the largest weight size of
    the data) wins; a tie keeps the earlier cut in that order.
    """
    indices = tuple(_check_int(i, "Chern index", 1) for i in indices)
    if not indices:
        raise ValidationError("a Chern monomial needs at least one index")
    if sum(indices) != data.n:
        raise ValidationError(f"monomial degree {sum(indices)} does not match n = {data.n}")
    n, top, low = data.n, max(indices), min(indices)
    rows = [p.weights for p in data.points]  # each ascending, so its ends bound it
    width = max(max(map(operator.itemgetter(-1), rows)), -min(map(operator.itemgetter(0), rows)))

    def cost(b: int, a: int) -> int:
        forward = prod(_packing(n, width, b, low, False)) if b else 0
        return forward + (prod(_packing(n, width, top, a, True)) if a <= n else 0)

    distinct = sorted(set(indices))
    b, a = min([(top, n + 1), (0, low), *zip(distinct, distinct[1:])], key=lambda c: cost(*c))
    # sigma_0 = 1, and entries above b come from the backward packing
    sigmas = [
        (_elementary_symmetric(w, b, low) if b else [1])
        + (_elementary_symmetric(w, top, a, True)[b + 1 :] if a <= n else [])
        for w in rows
    ]
    return localize(data, [[prod(s[i] for i in indices) for s in sigmas]])[0]


def line_bundle_power(data: FixedPointData, bundle: Sequence[int]) -> Fraction:
    """Top self-intersection of a line bundle from its weights: sum of
    a_i^n / e_i.

    ``bundle`` is a tuple or a list of integers, one per point.  The
    caller's normalization of the bundle weights is used as-is; only
    shift-invariant downstream conclusions are geometrically meaningful.
    """
    return localize(data, [[a**data.n for a in _bundle(bundle, data.point_count)]])[0]


def chi_y_from_data(data: FixedPointData) -> LaurentPoly:
    """The genus polynomial from fixed-point data: the sum over d of
    (-1)^d b_{2d} y^d, where b_{2d} counts the points with d negative weights."""
    terms = [(d, -b if d & 1 else b) for d, b in enumerate(betti_numbers(data)) if b]
    return LaurentPoly._from_terms(tuple(terms))


# -- residue route for the standard projective model -------------------------

def chi_y_hrr_projective(n: int) -> LaurentPoly:
    """The genus polynomial of the dimension-n projective model from its
    characteristic power series, without reading any fixed-point data.

    The n Chern roots contribute the (n+1)-fold product of the series
    Q(x) = x(1 + y e^{-x}) / (1 - e^{-x}) divided by the value (1 + y) that
    the trivial summand of the twisted tangent sum contributes; the genus
    is the coefficient of x^n.  That coefficient is the residue at x = 0 of
    ((1 + y e^{-x}) / (1 - e^{-x}))^{n+1} dx.  Substituting u = 1 - e^{-x},
    so e^{-x} = 1 - u and dx = du / (1 - u), turns it into the coefficient
    of u^n in (1 + y - yu)^{n+1} / (1 - u), that is the sum over k <= n of
    C(n+1, k) (-y)^k (1 + y)^{n+1-k}.  Every term keeps a factor 1 + y, so
    the genus is the integer polynomial
    sum over k <= n of C(n+1, k) (-y)^k (1 + y)^{n-k}.

    That sum is evaluated as one integer at y = 2^bits by homogeneous
    Horner over c_k = C(n+1, k): after step j the value is the sum over
    k >= n - j of c_k (-y)^(k-n+j) (1 + y)^(n-k), so each step multiplies
    by -y (a shift) and adds c_(n-j) times the running power (1 + y)^j (a
    shift and an add).  Its n + 1 digits (:func:`_balanced_digits`) are the
    genus coefficients, as each coefficient of y^m, the sum over k of
    c_k (-1)^k C(n-k, m-k), is at most the sum over k <= n of c_k 2^(n-k)
    in absolute value: that is (3^(n+1) - 1) / 2, the full binomial sum
    3^(n+1) / 2 less its k = n+1 term 1/2, below 2^(2n+1) = 2^(bits - 1).
    """
    n = _check_int(n, "dimension", 1)
    bits = 2 * n + 2
    acc, binomial, power = n + 1, n + 1, 1  # c_n, c_n, (1 + y)^0
    for j in range(1, n + 1):
        binomial = binomial * (n - j + 1) // (j + 1)  # c_(n-j)
        power += power << bits
        acc = binomial * power - (acc << bits)
    digits = enumerate(_balanced_digits(acc, bits, n + 1))
    return LaurentPoly._from_terms(tuple([(d, c) for d, c in digits if c]))


def k_coefficients(chi: LaurentPoly, n: int) -> tuple[int, ...]:
    """Re-expand a genus polynomial of degree <= n in powers of (y+1).

    The constant coefficient equals the Euler characteristic when the input
    polynomial came from fixed-point data.

    With X = y + 1, chi(X - 1) = sum_i c_i (X - 1)^i is one integer at
    X = 2^bits by Horner (each step multiplies by X - 1: a shift and a
    subtraction).  Its n + 1 digits (:func:`_balanced_digits`) are the
    coefficients k_j, as |k_j| = |sum_i c_i C(i, j) (-1)^(i-j)| is at most
    2^n sum_i |c_i|, below 2^(bits - 2).
    """
    n = _check_int(n, "dimension", 0)
    if not isinstance(chi, LaurentPoly):
        raise ValidationError(f"genus input must be a LaurentPoly, got {chi!r}")
    if chi.terms:  # sorted by exponent, so its ends are the lowest and highest
        if chi.terms[0][0] < 0:
            raise ValidationError("genus input must be a polynomial (no negative powers)")
        if chi.terms[-1][0] > n:
            raise ValidationError(f"polynomial degree {chi.terms[-1][0]} exceeds n = {n}")
    coefficients = chi.coefficients()
    bits = 2 + n + sum(map(abs, coefficients.values())).bit_length()
    acc = 0
    for i in range(n, -1, -1):
        acc = (acc << bits) - acc + coefficients.get(i, 0)
    return tuple(_balanced_digits(acc, bits, n + 1))


def c1cn1_from_k2(k2: int, euler: int, n: int) -> int:
    """Recover the Chern number c_1 c_{n-1} = 12 k2 - n(3n - 5)/2 euler from
    the quadratic coefficient k2 of the genus in powers of (y + 1), the
    integer that :func:`k_coefficients` returns, and the Euler
    characteristic.  Every argument must be an integer.
    """
    n = _check_int(n, "dimension", 1)
    euler = _check_int(euler, "Euler characteristic")
    k2 = _check_int(k2, "k2")
    return 12 * k2 - n * (3 * n - 5) // 2 * euler  # n(3n - 5) is even, so this is exact
