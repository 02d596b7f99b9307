"""Bounded exhaustive search over small weight configurations.

Candidate data has n+1 points whose weight multisets are drawn (with
repetition) from all size-n multisets over [-B, B] without 0.  Survivors
are the candidates passing the residue constraints, plus optional
projective-profile and affine-relation filters.

The enumeration is an exact integer join.  Over the lcm ``scale`` of the
pool's weight products, entry (s, e) has the residue terms c s^r for
r = 0..n-1, with c = scale / e.  As |c| <= scale and |s| <= n B, a sum of at
most m = n+1 entries has every term sum below radix/2 in absolute value, for
radix = 2 m scale (n B)^(n-1) + 1.  Each entry's key packs its terms as
sum_r c s^r radix^r; packing is additive, and by the digit rule proved at
``localization._balanced_digits`` its term sums are the balanced digits
of the packed sum in (-radix/2, radix/2), so a packed sum of at most m
entries is zero exactly when every residue constraint r < n
holds.  The join takes the packed sum of every multiset of h = m // 2 pool
entries once.  A candidate splits into a head, an h-multiset preceded by
one more entry when m is odd, and a tail h-multiset.  One set intersection
per head's first entry (a single one when m is even) finds the tail sums
that some head negates; only the multisets with such sums become index
tuples, which are paired and sorted.  Each joined candidate is re-checked
against every residue constraint before the filters.  The stream is
canonically ordered and byte-deterministic: the multiset pool is sorted by
(weight sum, weight product, weights) and candidates are emitted in
lexicographic order of their non-decreasing pool-index tuples, which makes
every emitted candidate's points already canonically sorted.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import operator
from collections.abc import Iterator
from fractions import Fraction

from .core import (
    FixedPointData,
    ValidationError,
    _check_int,
    projective_profile,
)
from .hattori import (
    BundleDerivationError,
    RigidityVerdict,
    derive_bundle_weights,
    hattori_verdict,
)
from .localization import residue_constraints_hold
# Unused here: check_tracer in bench/smoke.py reads fpkit.search.residue_sum.
from .localization import residue_sum  # noqa: F401


class SearchSpaceError(ValidationError):
    """The requested space exceeds the configured leaf budget."""


@dataclasses.dataclass(frozen=True)
class SearchSpec:
    """Parameters of one bounded sweep.

    ``k0``, when set, keeps only survivors whose weight sums satisfy the
    affine relation weight_sum_i = k0 * a_i + offset for some integers a_i;
    ``None`` means no such filter.  For k0 = p/q in lowest terms the filter
    is ``derive_bundle_weights(data, p)``: as gcd(p, q) = 1, the quotient
    (s_i - s_0) / (p/q) = q (s_i - s_0) / p is an integer exactly when p
    divides s_i - s_0, so k0 = p/q keeps exactly what k0 = p keeps.
    ``max_leaves`` bounds the raw number of point-multiset combinations
    before pruning.
    """

    n: int
    bound: int
    require_projective_profile: bool = False
    k0: int | Fraction | None = None
    max_leaves: int = 10**8

    def __post_init__(self):
        for name in ("n", "bound", "max_leaves"):
            object.__setattr__(self, name, _check_int(getattr(self, name), name, 1))
        if self.k0 is not None:
            if isinstance(self.k0, bool) or not isinstance(self.k0, (int, Fraction)):
                raise ValidationError(
                    f"k0 must be an integer or exact rational, got {self.k0!r}"
                )
            if self.k0 < 0:
                raise ValidationError(f"k0 must be nonnegative, got {self.k0}")

    @property
    def point_count(self) -> int:
        return self.n + 1


@dataclasses.dataclass(frozen=True)
class RigidityExperiment:
    """Partition of the survivor stream by the rigidity pipeline.

    ``counterexamples`` holds survivors that satisfy the hypotheses
    (derivable, pairwise distinct bundle weights with a nonzero integral
    top power, as every line bundle on a closed manifold has) yet fail the
    conclusion; a correct theorem makes it empty, so any member is the
    headline of the report.  ``hypothesis_failures`` pairs each remaining
    survivor with the reason it falls outside the theorem's scope.
    """

    survivors: tuple[FixedPointData, ...]
    matches: tuple[FixedPointData, ...]
    counterexamples: tuple[tuple[FixedPointData, RigidityVerdict], ...]
    hypothesis_failures: tuple[tuple[FixedPointData, str], ...]

    @property
    def survivor_count(self) -> int:
        return len(self.survivors)


def _weight_pool(spec: SearchSpec) -> list[tuple[int, int, tuple[int, ...]]]:
    values = [w for w in range(-spec.bound, spec.bound + 1) if w != 0]
    pool = [
        (sum(combo), math.prod(combo), combo)
        for combo in itertools.combinations_with_replacement(values, spec.n)
    ]
    pool.sort()
    return pool


def leaf_count(spec: SearchSpec) -> int:
    """Raw combinations of point multisets in the sweep's space."""
    # size-n multisets over the 2B admissible values, then (n+1)-multisets
    # of those
    pool_size = math.comb(2 * spec.bound + spec.n - 1, spec.n)
    return math.comb(pool_size + spec.point_count - 1, spec.point_count)


def _accept(spec: SearchSpec, data: FixedPointData) -> bool:
    if not residue_constraints_hold(data):
        return False
    if spec.require_projective_profile and not projective_profile(data):
        return False
    if spec.k0 is not None:
        try:
            derive_bundle_weights(data, spec.k0.numerator)
        except BundleDerivationError:
            return False
    return True


def _join(keys: list[int], m: int) -> list[tuple[int, ...]]:
    """Every non-decreasing m-tuple of indices into ``keys`` whose keys sum
    to zero, in lexicographic order.

    With h = m // 2, a tuple is a prefix of m - 2h indices (none, or one
    index i), then an h-multiset starting at or after the prefix, which
    together make the head, then a tail h-multiset starting at or after the
    head's last index.
    """
    size, h = len(keys), m // 2
    # in lexicographic order, so the multisets starting at or after index i
    # are the last C(size - i + h - 1, h)
    sums = list(map(sum, itertools.combinations_with_replacement(keys, h)))
    tail_sums = set(sums)
    prefixes = [((i,), keys[i], i) for i in range(size)] if m % 2 else [((), 0, 0)]
    hits = []
    needed: set[int] = set()
    for prefix, base, first in prefixes:
        start = len(sums) - math.comb(size - first + h - 1, h)
        # the tail sums -(base + s) over the head multiset sums s here
        heads = map(operator.sub, itertools.repeat(-base), sums[start:])
        found = tail_sums.intersection(heads)
        if found:
            hits.append((prefix, base, first, found))
            needed |= found
            needed.update(map(operator.sub, itertools.repeat(-base), found))
    # freed before the pairing allocates, as the cyclic collector would walk
    # them on every full collection
    del tail_sums
    mask = bytes(map(needed.__contains__, sums))
    groups: dict[int, list[tuple[int, ...]]] = {}  # lexicographic in each sum
    for total, multiset in zip(
        itertools.compress(sums, mask),
        itertools.compress(itertools.combinations_with_replacement(range(size), h), mask),
    ):
        groups.setdefault(total, []).append(multiset)
    del sums, mask
    joined = []
    for prefix, base, first, found in hits:
        for total in found:
            tails = groups[total]
            for head in groups[-base - total]:
                if head[0] >= first:
                    last = head[-1]
                    joined.extend((*prefix, *head, *tail) for tail in tails if tail[0] >= last)
    joined.sort()
    return joined


def enumerate_survivors(spec: SearchSpec) -> Iterator[FixedPointData]:
    """Yield every survivor of the sweep in canonical order.

    Raises SearchSpaceError when the raw space exceeds the spec's leaf
    budget.  That budget bounds the join's memory too: for a pool of P
    entries, the key sums of the h-multisets and their set each hold
    C(P + h - 1, h) entries, and index tuples are built only for the
    multisets whose sum can close a candidate; C(P + h - 1, h) never
    exceeds the raw leaves.
    """
    # the raw leaves number at least 2^n (the pool has at least n+1 entries and
    # C(2n+1, n+1) >= 2^n) and at least 2B, so a huge n or B needs no count
    budget = spec.max_leaves
    if spec.n >= budget.bit_length() or 2 * spec.bound > budget or leaf_count(spec) > budget:
        raise SearchSpaceError(
            f"search space has more than {budget} raw leaves; raise max_leaves to proceed"
        )
    pool = _weight_pool(spec)
    n, m = spec.n, spec.point_count
    scale = math.lcm(*(product for _, product, _ in pool))
    radix = 2 * m * scale * (n * spec.bound) ** (n - 1) + 1
    keys = [sum((scale // e) * s**r * radix**r for r in range(n)) for s, e, _ in pool]
    for indices in _join(keys, m):
        # pool weights are ascending multisets of nonzero ints: canonical rows
        data = FixedPointData._from_rows(n, [pool[i][2] for i in indices])
        if _accept(spec, data):
            yield data


def rigidity_experiment(spec: SearchSpec) -> RigidityExperiment:
    """Sweep the space and sort every survivor into match, counterexample,
    or hypothesis failure by its rigidity verdict."""
    survivors: list[FixedPointData] = []
    matches: list[FixedPointData] = []
    counterexamples: list[tuple[FixedPointData, RigidityVerdict]] = []
    failures: list[tuple[FixedPointData, str]] = []
    for data in enumerate_survivors(spec):
        survivors.append(data)
        try:
            verdict = hattori_verdict(data)
        except BundleDerivationError as exc:
            failures.append((data, str(exc)))
            continue
        # the hypotheses in order of precedence: a derivable bundle, pairwise
        # distinct bundle weights, a nonvanishing and integral top power.  A
        # survivor's derived weights a_i give weight sums s_i = (n+1) a_i + c,
        # which are distinct when the a_i are; a zero top power sum a_i^n / e_i
        # would then join the residue constraints r < n in an invertible
        # Vandermonde system in the nonzero 1/e_i, so quasi_ample fails here
        # only on repeated weights
        if not verdict.quasi_ample:
            failures.append((data, "derived bundle weights are not pairwise distinct"))
        elif verdict.bundle_power.denominator != 1:
            failures.append((data, "top power of the derived bundle is not an integer"))
        elif verdict.passes:
            matches.append(data)
        else:
            counterexamples.append((data, verdict))
    return RigidityExperiment(
        survivors=tuple(survivors),
        matches=tuple(matches),
        counterexamples=tuple(counterexamples),
        hypothesis_failures=tuple(failures),
    )
