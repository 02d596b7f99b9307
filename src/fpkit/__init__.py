"""Exact localization toolkit for circle-action fixed-point data.

The package models the discrete fixed-point data of a circle action with
isolated fixed points (a weight multiset per point, optionally one line
bundle weight per point), evaluates Chern numbers and genus polynomials by
exact rational localization sums, certifies the hypotheses and conclusion
of Hattori's rigidity theorem, generates the standard linear models on
projective space, and exhaustively sweeps small weight configurations for
would-be counterexamples.

Importing the package loads none of its modules: each public name below
imports its defining module on first access (PEP 562), so a process pays
only for the modules it uses.
"""

__version__ = "0.1.0"

# defining module -> the public names it exports, in ``__all__`` order
_EXPORTS = {
    "core": (
        "BundleWeights", "FixedPointData", "FixedPointDatum", "ValidationError",
        "betti_numbers", "dump", "iter_documents", "load", "loads",
        "projective_profile", "serialize", "validate",
    ),
    "hattori": (
        "BundleDerivationError", "ChernClassCandidate", "ConditionCCertificate",
        "ConditionCError", "PointMismatch", "RigidityVerdict", "check_condition_c",
        "derive_bundle_weights", "first_chern_candidates", "hattori_verdict",
    ),
    "laurent": ("LaurentPoly",),
    "localization": (
        "c1cn1_from_k2", "c1_power", "chern_monomial", "chi_y_from_data",
        "chi_y_hrr_projective", "k_coefficients", "line_bundle_power",
        "residue_constraints_hold", "residue_sum",
    ),
    "models": (
        "PairRestrictionReport", "PointRestriction", "linear_pn",
        "pair_restriction_check",
    ),
    "search": (
        "RigidityExperiment", "SearchSpaceError", "SearchSpec", "enumerate_survivors",
        "leaf_count", "rigidity_experiment",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    """Import the module defining the public ``name`` and cache the name here."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib  # not at start-up, where nothing else needs it

    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
