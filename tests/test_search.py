import dataclasses
import hashlib
import itertools
import json
import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpkit import search
from fpkit.cli import main
from fpkit.core import (
    FixedPointData,
    FixedPointDatum,
    ValidationError,
    iter_documents,
    loads,
    serialize,
    to_json,
    validate,
)
from fpkit.hattori import derive_bundle_weights
from fpkit.localization import residue_constraints_hold
from fpkit.models import linear_pn
from fpkit.search import (
    RigidityExperiment,
    SearchSpaceError,
    SearchSpec,
    _accept,
    _join,
    enumerate_survivors,
    leaf_count,
    rigidity_experiment,
)


def weight_lists(data):
    return [list(point.weights) for point in data.points]


def test_spec_validation():
    with pytest.raises(ValidationError):
        SearchSpec(n=0, bound=3)
    with pytest.raises(ValidationError):
        SearchSpec(n=1, bound=0)
    with pytest.raises(ValidationError):
        SearchSpec(n=1, bound=3, k0=-1)
    with pytest.raises(ValidationError):
        SearchSpec(n=1, bound=3, max_leaves=0)
    with pytest.raises(
        ValidationError, match="k0 must be an integer or exact rational, got '3'$"
    ):
        SearchSpec(n=1, bound=1, k0="3")


def test_search_space_error_is_a_validation_error():
    # so the CLI maps a refused space to exit 2 through one except clause
    assert issubclass(SearchSpaceError, ValidationError)


@pytest.mark.parametrize("name", ["n", "bound", "max_leaves"])
def test_spec_rejects_booleans(name):
    # bool is an int subclass, so True would otherwise read as 1
    with pytest.raises(ValidationError, match=f"{name} must be a positive integer"):
        SearchSpec(**{"n": 1, "bound": 3, name: True})


def test_leaf_count_matches_hand_computation():
    # n=1, B=3: pool of 6 singletons, pairs with repetition: C(7,2) = 21
    assert leaf_count(SearchSpec(n=1, bound=3)) == 21
    # n=2, B=4: pool C(9,2) = 36 multisets, triples: C(38,3) = 8436
    assert leaf_count(SearchSpec(n=2, bound=4)) == 8436


def test_size_guard_trips():
    # the last three are refused without counting: 2^n and 2B both bound the
    # raw leaves from below
    for spec in (
        SearchSpec(n=2, bound=4, max_leaves=100),
        SearchSpec(n=10**6, bound=1),
        SearchSpec(n=2, bound=10**800),
        SearchSpec(n=20, bound=1, max_leaves=10**6),
    ):
        with pytest.raises(SearchSpaceError, match="raise max_leaves"):
            list(enumerate_survivors(spec))


def test_n1_survivors_are_mirror_pairs():
    survivors = list(enumerate_survivors(SearchSpec(n=1, bound=3)))
    assert [weight_lists(d) for d in survivors] == [
        [[-3], [3]],
        [[-2], [2]],
        [[-1], [1]],
    ]


def test_survivors_revalidate_from_serialized_form():
    for data in enumerate_survivors(SearchSpec(n=2, bound=3)):
        reloaded = validate(json.loads(serialize(data)))
        assert residue_constraints_hold(reloaded)


@pytest.mark.parametrize("n, bound", [(2, 3), (2, 8), (3, 3)])
def test_survivors_equal_their_validated_documents(n, bound):
    survivors = list(enumerate_survivors(SearchSpec(n=n, bound=bound)))
    assert survivors
    for data in survivors:
        reference = loads(to_json(data))
        assert data == reference and hash(data) == hash(reference)
        assert data.common_denominator == reference.common_denominator


def test_an_int_subclass_spec_gives_the_same_serializable_survivors():
    class Count(int):
        pass

    spec = SearchSpec(n=Count(2), bound=Count(3), max_leaves=Count(10**6))
    assert all(type(getattr(spec, name)) is int for name in ("n", "bound", "max_leaves"))
    survivors = list(enumerate_survivors(spec))
    assert survivors == list(enumerate_survivors(SearchSpec(n=2, bound=3)))
    assert [validate(json.loads(serialize(data))) for data in survivors] == survivors


def test_survivor_stream_reads_back_as_documents():
    survivors = list(enumerate_survivors(SearchSpec(n=1, bound=2)))
    stream = "".join(serialize(data) for data in survivors)
    docs = [validate(doc) for doc in iter_documents(stream)]
    assert docs == survivors


def test_enumeration_is_deterministic_across_runs():
    spec = SearchSpec(n=2, bound=3)
    streams = [
        "".join(serialize(d) for d in enumerate_survivors(spec)) for _ in range(3)
    ]
    assert len(set(streams)) == 1


def test_enumeration_rechecks_the_residue_constraints_of_every_joined_tuple(monkeypatch):
    spec = SearchSpec(n=2, bound=2)
    expected = [weight_lists(d) for d in enumerate_survivors(spec)]
    # m copies of the first pool entry: equal weight products, so the r = 0
    # residue sum is m / e, not zero
    join = search._join
    monkeypatch.setattr(search, "_join", lambda keys, m: join(keys, m) + [(0,) * m])
    assert [weight_lists(d) for d in enumerate_survivors(spec)] == expected


def test_bound_monotonicity():
    small = {
        tuple(tuple(p.weights) for p in d.points)
        for d in enumerate_survivors(SearchSpec(n=2, bound=2))
    }
    large = {
        tuple(tuple(p.weights) for p in d.points)
        for d in enumerate_survivors(SearchSpec(n=2, bound=3))
    }
    assert small <= large


def test_profile_filter_keeps_the_reference_model():
    spec = SearchSpec(n=2, bound=3, require_projective_profile=True)
    model = weight_lists(linear_pn((0, 1, 3)))
    assert model in [weight_lists(d) for d in enumerate_survivors(spec)]


def test_condition_c_filter_with_default_multiplier():
    # n=1 mirror pairs have weight sums -w, w; difference 2w is always
    # divisible by n+1 = 2, so the filter keeps everything
    spec = SearchSpec(n=1, bound=3, k0=2)
    assert len(list(enumerate_survivors(spec))) == 3


def test_condition_c_filter_with_zero_multiplier():
    spec = SearchSpec(n=1, bound=3, k0=0)
    assert list(enumerate_survivors(spec)) == []


@pytest.mark.parametrize("bound", [3, 4])
def test_fractional_multiplier_keeps_what_its_numerator_keeps(bound):
    # s_i = (p/q) a_i + offset with integer a_i holds iff p divides every
    # difference s_i - s_0, as q is prime to p
    half = list(enumerate_survivors(SearchSpec(n=2, bound=bound, k0=Fraction(3, 2))))
    assert half
    assert half == list(enumerate_survivors(SearchSpec(n=2, bound=bound, k0=3)))


def test_rigidity_experiment_small_sweep():
    experiment = rigidity_experiment(SearchSpec(n=1, bound=5))
    assert isinstance(experiment, RigidityExperiment)
    assert experiment.survivor_count == 5
    assert len(experiment.matches) == 5
    assert experiment.counterexamples == ()
    assert experiment.hypothesis_failures == ()


def test_rigidity_experiment_partitions_survivors():
    experiment = rigidity_experiment(SearchSpec(n=2, bound=4))
    assert experiment.survivor_count == len(experiment.matches) + len(
        experiment.counterexamples
    ) + len(experiment.hypothesis_failures)
    assert experiment.counterexamples == ()
    recognized = (
        "derived bundle weights are not pairwise distinct",
        "top power of the derived bundle is not an integer",
        "bundle derivation failed",
    )
    for _, reason in experiment.hypothesis_failures:
        assert reason.startswith(recognized)


@pytest.mark.parametrize("n, bound, repeated", [(2, 8, 4), (3, 4, 32), (2, 12, 10)])
def test_quasi_ampleness_fails_on_survivors_only_by_repeated_weights(n, bound, repeated):
    # distinct derived weights and a zero top power would make the residue
    # constraints an invertible Vandermonde system in the nonzero 1/e_i
    reason = "derived bundle weights are not pairwise distinct"
    experiment = rigidity_experiment(SearchSpec(n=n, bound=bound))
    flagged = [data for data, why in experiment.hypothesis_failures if why == reason]
    assert len(flagged) == repeated
    for data in flagged:
        derived = derive_bundle_weights(data)
        assert len(set(derived)) < len(derived), data


def test_survivor_meeting_every_hypothesis_but_failing_is_a_counterexample(
    monkeypatch, capsys
):
    import fpkit.search

    original = fpkit.search.hattori_verdict

    def failing(data):
        # keeps the real verdict's hypothesis_failure, so a survivor outside
        # the theorem's scope stays a hypothesis failure
        verdict = original(data)
        return dataclasses.replace(
            verdict, passes=False, quasi_ample=True, bundle_power=Fraction(1)
        )

    monkeypatch.setattr(fpkit.search, "hattori_verdict", failing)
    experiment = rigidity_experiment(SearchSpec(n=2, bound=3))
    derivable = [
        data
        for data in experiment.survivors
        if not any(data is failed for failed, _ in experiment.hypothesis_failures)
    ]
    assert derivable
    assert [data for data, _ in experiment.counterexamples] == derivable
    assert experiment.matches == ()
    assert main(["search", "--n", "2", "--bound", "3"]) == 1
    assert json.loads(capsys.readouterr().out)["counterexample_count"] == len(derivable)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=1, max_value=3))
def test_every_survivor_passes_residue_constraints(bound):
    for data in enumerate_survivors(SearchSpec(n=2, bound=bound)):
        assert residue_constraints_hold(data)


def test_rigidity_experiment_evaluates_one_bundle_power_per_failing_verdict(monkeypatch):
    # a passing verdict takes its top power from the Lagrange identity; every
    # classified verdict that fails runs the localization kernel exactly once
    import fpkit.localization

    calls = []
    original = fpkit.localization.line_bundle_power

    def counted(data, bundle):
        calls.append(data)
        return original(data, bundle)

    monkeypatch.setattr(fpkit.localization, "line_bundle_power", counted)
    experiment = rigidity_experiment(SearchSpec(n=2, bound=8))
    underivable = {
        id(data)
        for data, reason in experiment.hypothesis_failures
        if reason.startswith("bundle derivation failed")
    }
    matched = {id(data) for data in experiment.matches}
    failing = [
        data
        for data in experiment.survivors
        if id(data) not in underivable and id(data) not in matched
    ]
    assert len(experiment.survivors) - len(underivable) == 33
    assert len(matched) == 28
    assert len(failing) == 5
    assert [id(data) for data in calls] == [id(data) for data in failing]


def old_satisfies_relation(sums, k0):
    # the search's own relation test before its filter called
    # derive_bundle_weights, kept as the reference
    if k0 == 0:
        return len(set(sums)) == 1
    return all((s - sums[0]) % k0 == 0 for s in sums)


@st.composite
def weight_sums(draw):
    # base + step * a_i, some nudged off that lattice, so both outcomes occur
    base, step = draw(st.integers(-20, 20)), draw(st.integers(0, 7))
    offsets = st.tuples(st.integers(-3, 3), st.sampled_from((0, 0, 0, 1, 2)))
    return [base + step * a + nudge
            for a, nudge in draw(st.lists(offsets, min_size=3, max_size=6))]


MULTIPLIERS = st.one_of(
    st.integers(0, 7), st.builds(Fraction, st.integers(0, 7), st.integers(1, 7))
)


@given(weight_sums(), MULTIPLIERS)
def test_condition_c_filter_matches_the_old_relation_test(sums, k0):
    # n >= 2 weights per point: sum s is (s - (n-1) w, w, ..., w), nonzero
    # with w = 1 unless s = n - 1, where w = 2 gives -(n-1)
    n = len(sums) - 1
    points = []
    for index, s in enumerate(sums):
        w = 2 if s == n - 1 else 1
        points.append(FixedPointDatum(f"P{index}", (s - (n - 1) * w,) + (w,) * (n - 1)))
    data = FixedPointData(n, points)
    assert [p.weight_sum for p in data.points] == sums
    with pytest.MonkeyPatch.context() as patch:
        # the filter alone: such data rarely meets the residue constraints
        patch.setattr("fpkit.search.residue_constraints_hold", lambda data: True)
        accepted = _accept(SearchSpec(n=n, bound=1, k0=k0), data)
    assert accepted == old_satisfies_relation(sums, k0)


def test_cli_fractional_multiplier_writes_its_numerators_stream(tmp_path, capsys):
    streams = []
    for k0 in ("3/2", "3"):
        output = tmp_path / "survivors.json"
        argv = ["search", "--n", "2", "--bound", "3", "--require-condition-c",
                "--k0", k0, "--output", str(output)]
        assert main(argv) == 0
        streams.append(output.read_bytes())
    assert streams[0] and streams[0] == streams[1]
    capsys.readouterr()
    # n = 1 survivors have weight sums -w and w, never equal
    assert main(["search", "--n", "1", "--bound", "2", "--require-condition-c",
                 "--k0", "0"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert (document["k0"], document["survivor_count"]) == ("0", 0)


# -- a test-local brute force as the reference enumeration --------------------

FILTERS = [
    {},
    {"require_projective_profile": True},
    {"k0": 0},
    {"k0": 2},
    {"k0": Fraction(3, 2)},
]


def reference_survivors(n, bound, require_projective_profile=False, k0=None):
    # every (n+1)-multiset of the sorted pool, plain Fraction residue sums
    values = [w for w in range(-bound, bound + 1) if w != 0]
    pool = sorted(
        (sum(combo), math.prod(combo), combo)
        for combo in itertools.combinations_with_replacement(values, n)
    )
    out = []
    for candidate in itertools.combinations_with_replacement(pool, n + 1):
        if any(
            sum(Fraction(s**r, e) for s, e, _ in candidate) != 0 for r in range(n)
        ):
            continue
        weights = [combo for _, _, combo in candidate]
        if require_projective_profile and sorted(
            sum(w < 0 for w in combo) for combo in weights
        ) != list(range(n + 1)):
            continue
        if k0 is not None:
            sums = [s for s, _, _ in candidate]
            if k0 == 0 and len(set(sums)) != 1:
                continue
            if k0 != 0 and any(
                (Fraction(s - sums[0]) / k0).denominator != 1 for s in sums
            ):
                continue
        out.append(weights)
    return out


@pytest.mark.parametrize(
    "n,bound",
    [(1, b) for b in range(1, 5)]
    + [(2, b) for b in range(1, 5)]
    + [(3, 1), (3, 2)]
    + [(n, 1) for n in range(4, 8)],
)
def test_enumeration_matches_reference_brute_force(n, bound):
    # n = 4..7 join tails of h = 2, 3, 3 and 4 points onto the searched heads
    # k0 = n+1 is the multiplier of the projective model
    for options in FILTERS + [{"k0": n + 1}]:
        survivors = enumerate_survivors(SearchSpec(n=n, bound=bound, **options))
        assert [
            [tuple(p.weights) for p in data.points] for data in survivors
        ] == reference_survivors(n, bound, **options), options


@settings(max_examples=300, deadline=None)
@given(
    keys=st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=10),
    m=st.integers(min_value=2, max_value=6),
)
def test_join_matches_brute_force(keys, m):
    # small keys repeat, include 0 and give many equal multiset sums; m covers
    # both the empty prefix (even) and the one-index prefix (odd)
    assert _join(keys, m) == [
        indices
        for indices in itertools.combinations_with_replacement(range(len(keys)), m)
        if sum(keys[i] for i in indices) == 0
    ]


def test_rigidity_sweeps_at_3_3_and_4_2_are_fast():
    started = time.perf_counter()
    counts = [
        rigidity_experiment(SearchSpec(n=n, bound=bound)).survivor_count
        for n, bound in ((3, 3), (4, 2))
    ]
    assert time.perf_counter() - started < 2.0
    assert counts == [21, 8]


# sha256 of stdout and of the --output stream of `fpkit search`, recorded from
# the depth-first search with a last-point closure that the join replaced
PINNED_SEARCHES = [
    (["--n", "3", "--bound", "3"], None,
     "e03e99c6ab622930bf5fb1233cd1ad16e4b000588fd6e8f6c602f04cc5c8641d",
     "1305de4fe6aec197cfb19ea137f97e99954415b138342b1a1d9292568da6caf5"),
    (["--n", "3", "--bound", "4"], None,
     "de7d5c67dc4d2d07bb39dc31afaf5bd2fedb819e98f752c06e3ebf990ec3e28e",
     "32cecc611afcfbdd72f98f17b2e5936a33d54570962f40fe1ffc63e90f2f0fd5"),
    (["--n", "4", "--bound", "2"], None,
     "d143b42108d4d1f6f58fac13f3778cddae84bee0a1869ecbc39cbfb13c6652bc",
     "9e2e8b1fe56e1e6e3167fff0240f54459c0aaca88d53b9870604c2aeaec2cb44"),
    (["--n", "5", "--bound", "2"], None,
     "208c9df626dce9b5c80110f0b2c7e1d029bea8b4f13eeb0598f380f9e68dc17b",
     "5d811278b606b83dcdc19db4cdeb0c61fe80a648d5b9a6b8645bc5e7af788448"),
    (["--n", "4", "--bound", "3"], "1000000000",
     "b6b8a0aa486bb61600e4aca23ebebc89be09482ef8ae92fbb18050bc5a5e003f",
     "8856bf396f5c5e6ee476264360fd14a0471500ecd0c3a1824e8fe2ac780b513d"),
    (["--n", "3", "--bound", "4", "--require-profile"], None,
     "2876591e825bcd576343bcd742db42921043179400ad66cd0e1d680e8b750e65",
     "2ef2b7b172e61cc33b801bf464e96f2ae5c1a317e58b67f4ee6cfb8763414fd7"),
]


@pytest.mark.parametrize("args,max_leaves,stdout_digest,stream_digest", PINNED_SEARCHES)
def test_search_output_is_pinned(
    args, max_leaves, stdout_digest, stream_digest, tmp_path, monkeypatch, capsys
):
    if max_leaves is None:
        monkeypatch.delenv("FPKIT_MAX_LEAVES", raising=False)
    else:
        monkeypatch.setenv("FPKIT_MAX_LEAVES", max_leaves)
    output = tmp_path / "survivors.json"
    assert main(["search", *args, "--output", str(output)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == stdout_digest
    assert hashlib.sha256(output.read_bytes()).hexdigest() == stream_digest


def test_rigidity_sweeps_at_4_3_and_5_2_are_fast():
    # about 8 s with the last-point closure alone
    started = time.perf_counter()
    counts = [
        rigidity_experiment(SearchSpec(n=n, bound=bound, max_leaves=10**9)).survivor_count
        for n, bound in ((4, 3), (5, 2))
    ]
    assert time.perf_counter() - started < 1.5
    assert counts == [226, 220]
