"""The package's public names, which resolve on first use, and the CLI's
start-up, which loads only the modules that every command needs."""

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
        "BundleWeights", "FixedPointData", "FixedPointDatum", "ValidationError",
        "betti_numbers", "dump", "iter_documents", "load", "loads",
        "projective_profile", "serialize", "validate",
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
import sys
sys.path.insert(0, {root!r})
import fpkit
loaded = [sorted(m for m in sys.modules if m.startswith("fpkit"))]
import fpkit.cli
fpkit.cli.build_parser()
loaded.append(sorted(m for m in sys.modules if m.startswith("fpkit")))
import json
print(json.dumps(loaded))
"""


def test_cli_starts_without_the_rigidity_model_and_search_modules():
    root = os.path.dirname(os.path.dirname(fpkit.__file__))
    completed = subprocess.run(
        [sys.executable, "-c", STARTUP.format(root=root)],
        capture_output=True, text=True, check=True,
    )
    after_package, after_parser = json.loads(completed.stdout)
    assert after_package == ["fpkit"]
    assert after_parser == [
        "fpkit", "fpkit.cli", "fpkit.core", "fpkit.laurent", "fpkit.localization",
    ]


def test_public_names_are_unchanged_and_in_order():
    assert fpkit.__all__ == ["__version__", *DEFINED_IN]
    assert len(fpkit.__all__) == 40


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
