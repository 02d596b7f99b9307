"""The package's public names, which resolve on first use, the CLI's
start-up, which loads only the modules that every command needs, and the
two kinds of error its functions raise."""

import dataclasses
import importlib
import json
import os
import subprocess
import sys

import pytest

import fpkit

# defining module -> public names, in the order of fpkit.__all__
PUBLIC = {
    "core": [
        "FixedPointData", "FixedPointDatum", "ValidationError", "betti_numbers",
        "dump", "iter_documents", "load", "loads", "projective_profile",
        "serialize", "validate",
    ],
    "hattori": [
        "BundleDerivationError", "ChernClassCandidate", "ConditionCCertificate",
        "PointMismatch", "RigidityVerdict", "derive_bundle_weights",
        "first_chern_candidates", "hattori_verdict",
    ],
    "laurent": ["LaurentPoly"],
    "localization": [
        "c1cn1_from_k2", "chern_monomial", "chi_y_from_data",
        "chi_y_hrr_projective", "k_coefficients", "line_bundle_power",
        "residue_constraints_hold", "residue_sum",
    ],
    "models": [
        "PairRestrictionReport", "PointRestriction", "linear_pn",
        "pair_restriction_check",
    ],
    "search": [
        "RigidityExperiment", "SearchSpaceError", "SearchSpec", "enumerate_survivors",
        "leaf_count", "rigidity_experiment",
    ],
}
DEFINED_IN = {name: module for module, names in PUBLIC.items() for name in names}

STARTUP = """
import contextlib, io, json, sys
sys.path.insert(0, {root!r})
import fpkit
loaded = [sorted(m for m in sys.modules if m.startswith("fpkit"))]
import fpkit.cli
fpkit.cli.build_parser()
loaded.append(sorted(m for m in sys.modules if m.startswith("fpkit")))
with open({path!r}, "w") as handle:
    json.dump({document!r}, handle)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [fpkit.cli.main([command, {path!r}]) for command in ("validate", "report")]
loaded.append(sorted(m for m in sys.modules if m.startswith("fpkit")))
print(json.dumps([codes, *loaded]))
"""

CP2 = {
    "n": 2,
    "fixed_points": [
        {"label": "P1", "weights": [-3, -1]},
        {"label": "P2", "weights": [-2, 1]},
        {"label": "P3", "weights": [2, 3]},
    ],
    "bundle_weights": [0, 1, 3],
}


def test_cli_starts_without_the_rigidity_model_and_search_modules(tmp_path):
    # neither start-up nor validate and report load hattori, models or search
    root = os.path.dirname(os.path.dirname(fpkit.__file__))
    script = STARTUP.format(root=root, path=str(tmp_path / "cp2.json"), document=CP2)
    completed = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True,
    )
    codes, after_package, after_parser, after_commands = json.loads(completed.stdout)
    assert codes == [0, 0]
    assert after_package == ["fpkit"]
    assert after_parser == after_commands == [
        "fpkit", "fpkit.cli", "fpkit.core", "fpkit.laurent", "fpkit.localization",
    ]


def test_public_names_are_unchanged_and_in_order():
    assert fpkit.__all__ == ["__version__", *DEFINED_IN]
    assert len(fpkit.__all__) == 39


def test_each_public_name_is_its_module_object():
    listed = dir(fpkit)
    for name, module in DEFINED_IN.items():
        defined = getattr(importlib.import_module(f"fpkit.{module}"), name)
        assert getattr(fpkit, name) is defined, name
        assert name in listed, name


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'frobnicate'"):
        fpkit.frobnicate


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from fpkit import *", namespace)
    assert set(fpkit.__all__) <= set(namespace)
    assert namespace["hattori_verdict"] is importlib.import_module(
        "fpkit.hattori").hattori_verdict


CP2_DATA = fpkit.linear_pn((0, 1, 3))


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda path: fpkit.loads("{"), id="malformed-document"),
        pytest.param(lambda path: fpkit.load(path / "missing.json"), id="unreadable-file"),
        pytest.param(lambda path: fpkit.dump(CP2_DATA, path / "no" / "x.json"), id="unwritable"),
        pytest.param(lambda path: fpkit.residue_sum(CP2_DATA, -1), id="below-minimum"),
        pytest.param(lambda path: fpkit.residue_sum(CP2_DATA, 1.5), id="not-an-integer"),
        pytest.param(lambda path: fpkit.chern_monomial(CP2_DATA, [0, 2]), id="zero-index"),
        pytest.param(lambda path: fpkit.chern_monomial(CP2_DATA, (1,)), id="wrong-degree"),
        pytest.param(
            lambda path: dataclasses.replace(CP2_DATA, bundle=5), id="bundle-not-a-sequence"
        ),
        pytest.param(
            lambda path: fpkit.line_bundle_power(CP2_DATA, None), id="power-of-no-bundle"
        ),
        pytest.param(
            lambda path: list(fpkit.enumerate_survivors(fpkit.SearchSpec(2, 8, max_leaves=1))),
            id="past-the-leaf-budget",
        ),
    ],
)
def test_a_checked_value_raises_validation_error(call, tmp_path):
    with pytest.raises(fpkit.ValidationError):
        call(tmp_path)


@pytest.mark.parametrize(
    "call, error",
    [
        pytest.param(lambda: fpkit.FixedPointDatum("P", 5), TypeError, id="datum-weights"),
        pytest.param(lambda: fpkit.FixedPointData(2, 5), TypeError, id="data-points"),
        pytest.param(lambda: fpkit.linear_pn(5), TypeError, id="linear-model-values"),
        pytest.param(lambda: fpkit.chern_monomial(CP2_DATA, 5), TypeError, id="monomial"),
        pytest.param(
            lambda: fpkit.pair_restriction_check(CP2_DATA, fpkit.linear_pn((0, 1)), 5),
            TypeError,
            id="embedding",
        ),
        pytest.param(lambda: fpkit.hattori_verdict(None), AttributeError, id="verdict-data"),
    ],
)
def test_an_argument_of_the_wrong_kind_raises_what_python_raises(call, error):
    # not checked: the error is Python's own, not a ValidationError
    with pytest.raises(error) as raised:
        call()
    assert not isinstance(raised.value, fpkit.ValidationError)
