"""Bounded exhaustive search over small weight configurations.

Candidate data has n+1 points whose weight multisets are drawn (with
repetition) from all size-n multisets over [-B, B] without 0.  Survivors
are the candidates passing the residue constraints, plus optional
projective-profile and affine-relation filters.  The enumeration is an
exact integer depth-first search: over the lcm ``scale`` of the pool's
weight products each entry has the signed cofactor c = scale / e and the
moment c * s, so a prefix carries its r = 0 and r = 1 residue sums, times
``scale``, as two integer partials.  A prefix whose r = 0 partial the
remaining points cannot cancel is pruned, and the last point is looked up
rather than looped over: r = 0 pins its cofactor and, for n >= 2, r = 1
pins its moment.  Each closed candidate is re-checked against every
residue constraint before the filters.  The stream is canonically ordered
and byte-deterministic: the multiset pool is sorted by (weight sum, weight
product, weights) and candidates are emitted in lexicographic order of
their non-decreasing pool-index tuples, which makes every emitted
candidate's points already canonically sorted.
"""

from __future__ import annotations

import bisect
import dataclasses
import itertools
import math
from collections.abc import Iterator
from fractions import Fraction

from .core import FixedPointData, FixedPointDatum, ValidationError, projective_profile
from .hattori import BundleDerivationError, RigidityVerdict, hattori_verdict
from .localization import residue_constraints_hold
# Unused: bench/smoke.py checks that the tracer patches this name; drop it once
# the benchmark traces localization.localize (ROADMAP item 1).
from .localization import residue_sum  # noqa: F401


class SearchSpaceError(RuntimeError):
    """The requested space exceeds the configured leaf budget."""


@dataclasses.dataclass(frozen=True)
class SearchSpec:
    """Parameters of one bounded sweep.

    ``k0``, when set, keeps only survivors whose weight sums satisfy the
    affine relation weight_sum_i = k0 * a_i + offset for some integers a_i;
    ``None`` means no such filter.  A rational k0 = p/q in lowest terms keeps
    exactly what k0 = p keeps.  ``max_leaves`` bounds the raw number of
    point-multiset combinations before pruning.
    """

    n: int
    bound: int
    require_projective_profile: bool = False
    k0: int | Fraction | None = None
    max_leaves: int = 10**8

    def __post_init__(self):
        for name in ("n", "bound"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ValidationError(
                    f"{name} must be a positive integer, got {value!r}"
                )
        if not isinstance(self.max_leaves, int) or self.max_leaves < 1:
            raise ValidationError(
                f"max_leaves must be a positive integer, got {self.max_leaves!r}"
            )
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
    """Raw combinations of point multisets the sweep would visit unpruned."""
    # size-n multisets over the 2B admissible values, then (n+1)-multisets
    # of those
    pool_size = math.comb(2 * spec.bound + spec.n - 1, spec.n)
    return math.comb(pool_size + spec.point_count - 1, spec.point_count)


def _satisfies_relation(sums: list[int], k0: int | Fraction) -> bool:
    # an integer solution of sum_i = k0 * a_i + offset exists iff all
    # pairwise sum differences are integer multiples of k0; % is exact on
    # Fractions too
    if k0 == 0:
        return len(set(sums)) == 1
    return all((s - sums[0]) % k0 == 0 for s in sums)


def _accept(spec: SearchSpec, data: FixedPointData) -> bool:
    if not residue_constraints_hold(data):
        return False
    if spec.require_projective_profile and not projective_profile(data):
        return False
    if spec.k0 is not None:
        sums = [p.weight_sum for p in data.points]
        if not _satisfies_relation(sums, spec.k0):
            return False
    return True


def _build(n: int, entries: list[tuple[int, int, tuple[int, ...]]]) -> FixedPointData:
    points = tuple(
        FixedPointDatum(f"P{i + 1}", entry[2]) for i, entry in enumerate(entries)
    )
    return FixedPointData(n, points)


def enumerate_survivors(spec: SearchSpec) -> Iterator[FixedPointData]:
    """Yield every survivor of the sweep in canonical order.

    The stream is identical across runs: candidates are visited by the
    first point's pool index, in pool order.  Raises SearchSpaceError when
    the raw space exceeds the spec's leaf budget.
    """
    # the raw leaves number at least 2^n (the pool has at least n+1 entries and
    # C(2n+1, n+1) >= 2^n) and at least 2B, so a huge n or B needs no count
    budget = spec.max_leaves
    if spec.n >= budget.bit_length() or 2 * spec.bound > budget or leaf_count(spec) > budget:
        raise SearchSpaceError(
            f"search space has more than {budget} raw leaves; raise max_leaves to proceed"
        )
    pool = _weight_pool(spec)
    m = spec.point_count
    # residue sums r = 0 and r = 1 over the common denominator `scale`
    scale = math.lcm(*(product for _, product, _ in pool))
    cofactors = [scale // product for _, product, _ in pool]
    moments = [c * s if spec.n > 1 else 0 for c, (s, _, _) in zip(cofactors, pool)]
    closing: dict[tuple[int, int], list[int]] = {}
    for index, key in enumerate(zip(cofactors, moments)):
        closing.setdefault(key, []).append(index)
    chosen: list[int] = []

    def descend(start: int, r0: int, r1: int) -> Iterator[FixedPointData]:
        # r0 and r1 are the prefix's residue sums at powers 0 and 1, times scale
        depth = len(chosen)
        # each further point shifts r0 by at most scale
        if abs(r0) > (m - depth) * scale:
            return
        for index in range(start, len(pool)):
            chosen.append(index)
            next_r0, next_r1 = r0 + cofactors[index], r1 + moments[index]
            if depth + 2 < m:
                yield from descend(index, next_r0, next_r1)
            # r = 0 pins the last point's cofactor and r = 1 its moment
            elif (last := closing.get((-next_r0, -next_r1))) is not None:
                for final in last[bisect.bisect_left(last, index):]:
                    data = _build(spec.n, [pool[i] for i in chosen + [final]])
                    if _accept(spec, data):
                        yield data
            chosen.pop()

    yield from descend(0, 0, 0)


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
