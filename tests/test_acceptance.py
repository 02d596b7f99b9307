"""Acceptance gate.

One test per acceptance criterion, named test_criterion_NN_*; the conftest
hook prints a pass/fail line per criterion at the end of a run.  All
comparisons are exact (rational arithmetic, no tolerances); the criteria
that pin a runtime assert it with a wall-clock measurement.
"""

import random
import time
from fractions import Fraction
from math import comb

from fpkit.core import (
    BundleWeights,
    FixedPointData,
    FixedPointDatum,
    serialize,
)
from fpkit.hattori import (
    check_condition_c,
    derive_bundle_weights,
    first_chern_candidates,
    hattori_verdict,
)
from fpkit.laurent import LaurentPoly
from fpkit.localization import (
    c1cn1_from_k2,
    c1_power,
    chern_monomial,
    chi_y_from_data,
    chi_y_hrr_projective,
    k_coefficients,
    line_bundle_power,
    localize,
    residue_constraints_hold,
    residue_sum,
)
from fpkit.models import linear_pn, pair_restriction_check
from fpkit.search import SearchSpec, enumerate_survivors, rigidity_experiment

TUPLES_PER_DIMENSION = 20


def random_distinct(rng, count):
    return tuple(rng.sample(range(-60, 61), count))


def test_criterion_01_residue_identities():
    started = time.perf_counter()
    rng = random.Random(101)
    for n in range(1, 7):
        for _ in range(TUPLES_PER_DIMENSION):
            data = linear_pn(random_distinct(rng, n + 1))
            for r in range(n):
                assert residue_sum(data, r) == 0
            assert residue_sum(data, n) == (n + 1) ** n
    assert time.perf_counter() - started < 5.0


def test_criterion_02_chi_y_consistency():
    started = time.perf_counter()
    rng = random.Random(102)
    for n in range(1, 11):
        expected = LaurentPoly({i: (-1) ** i for i in range(n + 1)})
        assert chi_y_hrr_projective(n) == expected
        assert chi_y_from_data(linear_pn(random_distinct(rng, n + 1))) == expected
    assert time.perf_counter() - started < 10.0


def test_criterion_03_k2_extraction():
    rng = random.Random(103)
    for n in range(2, 9):
        chi = chi_y_from_data(linear_pn(random_distinct(rng, n + 1)))
        coefficients = k_coefficients(chi, n)
        assert coefficients[0] == n + 1
        assert coefficients[2] == comb(n + 1, 3)
        assert c1cn1_from_k2(coefficients[2], n + 1, n) == n * (n + 1) ** 2 // 2


def test_criterion_04_quasi_ampleness():
    rng = random.Random(104)
    for n in range(1, 7):
        for _ in range(TUPLES_PER_DIMENSION):
            data = linear_pn(random_distinct(rng, n + 1))
            assert line_bundle_power(data, data.bundle) == 1
            assert hattori_verdict(data, data.bundle).quasi_ample
            inverted = BundleWeights(tuple(-a for a in data.bundle.values))
            assert line_bundle_power(data, inverted) == (-1) ** n
            assert hattori_verdict(data, inverted).quasi_ample


def test_criterion_05_condition_c():
    rng = random.Random(105)
    for n in range(1, 7):
        for _ in range(TUPLES_PER_DIMENSION):
            values = random_distinct(rng, n + 1)
            data = linear_pn(values)
            derived = derive_bundle_weights(data)
            assert derived.values == tuple(a - values[0] for a in values)
            certificate = check_condition_c(data, derived, n + 1)
            assert certificate.k0 == n + 1
            assert certificate.offset == -sum(derived.values)


def test_criterion_06_rigidity_pipeline():
    rng = random.Random(106)
    for n in range(1, 6):
        assert hattori_verdict(linear_pn(random_distinct(rng, n + 1))).passes

    for _ in range(100):
        n = rng.randint(1, 4)
        data = linear_pn(random_distinct(rng, n + 1))
        target = rng.randrange(data.point_count)
        slot = rng.randrange(n)
        weights = list(data.points[target].weights)
        original = weights[slot]
        replacement = original
        while replacement in (original, 0):
            replacement = rng.randint(-70, 70)
        weights[slot] = replacement
        points = list(data.points)
        points[target] = FixedPointDatum(points[target].label, tuple(weights))
        perturbed = FixedPointData(n, tuple(points), data.bundle)
        verdict = hattori_verdict(perturbed)
        assert not verdict.passes
        assert [m.label for m in verdict.mismatches] == [data.points[target].label]


def test_criterion_07_hyperplane_restriction():
    rng = random.Random(107)
    for n in range(2, 7):
        values = random_distinct(rng, n + 1)
        ambient = linear_pn(values)
        hypersurface = linear_pn(values[:-1])
        report = pair_restriction_check(ambient, hypersurface)
        assert report.passes
        assert report.omitted_label == ambient.labels[-1]
        for i, row in enumerate(report.points):
            assert row.embeds
            assert row.normal_weight == values[i] - values[-1]
            assert row.expected_normal == values[i] - values[-1]


def test_criterion_08_standard_chern_numbers():
    rng = random.Random(108)
    for n in range(2, 7):
        data = linear_pn(random_distinct(rng, n + 1))
        for i in range(1, n + 1):
            monomial = (i,) + (1,) * (n - i)
            assert chern_monomial(data, monomial) == comb(n + 1, i) * (n + 1) ** (
                n - i
            )


def test_criterion_09_first_chern_solver():
    expected = {
        3: [(Fraction(4), True), (Fraction(2), True)],
        5: [(Fraction(6), True), (Fraction(3), False)],
        7: [(Fraction(8), True), (Fraction(4), True)],
        2: [(Fraction(3), True), (Fraction(3, 2), False)],
    }
    for n, rows in expected.items():
        assert [
            (c.value, c.admissible) for c in first_chern_candidates(n)
        ] == rows
    for n in range(1, 101):
        half = first_chern_candidates(n)[1]
        assert half.admissible == (n % 4 == 3)


def test_criterion_10_search_rigidity_experiment():
    started = time.perf_counter()
    for spec in (SearchSpec(n=1, bound=10), SearchSpec(n=2, bound=4)):
        streams = []
        for _ in range(3):
            experiment = rigidity_experiment(spec)
            assert experiment.counterexamples == ()
            for data in experiment.matches:
                assert hattori_verdict(data).passes
            streams.append("".join(serialize(d) for d in experiment.survivors))
        assert len(set(streams)) == 1
    # at bound 8 the residue constraints admit data with a fractional top
    # bundle power, which no manifold has; it is a hypothesis failure
    assert rigidity_experiment(SearchSpec(n=2, bound=8)).counterexamples == ()
    assert time.perf_counter() - started < 300.0


def test_criterion_11_distinctness():
    # on data meeting the residue constraints, a nonzero top power forces
    # pairwise distinct weight sums
    nonzero = 0
    for spec in (SearchSpec(n=1, bound=10), SearchSpec(n=2, bound=4)):
        for data in enumerate_survivors(spec):
            if c1_power(data) != 0:
                nonzero += 1
                sums = [p.weight_sum for p in data.points]
                assert len(set(sums)) == len(sums), data
    assert nonzero == 16

    # with at most n distinct weight sums the residue constraints r < n
    # are a Vandermonde system in the groups' reciprocal-product sums, so each
    # group's sum and the top power vanish.  One group of weight sum 3
    # (1/2 - 1/4 - 1/4), and two groups of weight sums -3 and 3
    grouped = ((1, 2), (-1, 4), (-1, 4))
    two_groups = (*grouped, (-1, -2), (1, -4), (1, -4))
    for rows in (grouped, two_groups):
        data = FixedPointData(
            2, tuple(FixedPointDatum(f"P{i}", w) for i, w in enumerate(rows, 1))
        )
        sums = sorted({p.weight_sum for p in data.points})
        assert residue_constraints_hold(data)
        assert len(sums) <= data.n
        columns = [[int(p.weight_sum == s) for p in data.points] for s in sums]
        assert localize(data, columns) == [0] * len(sums)
        assert c1_power(data) == 0
