"""Exact localization toolkit for circle-action fixed-point data.

The package models the discrete fixed-point data of a circle action with
isolated fixed points (a weight multiset per point, optionally one line
bundle weight per point), evaluates Chern numbers and genus polynomials by
exact rational localization sums, certifies the hypotheses and conclusion
of Hattori's rigidity theorem, generates the standard linear models on
projective space, and exhaustively sweeps small weight configurations for
would-be counterexamples.
"""

__version__ = "0.1.0"

from .core import (
    BundleWeights,
    FixedPointData,
    FixedPointDatum,
    ValidationError,
    betti_numbers,
    dump,
    iter_documents,
    load,
    loads,
    projective_profile,
    serialize,
    to_document,
    validate,
)
from .hattori import (
    BundleDerivationError,
    ChernClassCandidate,
    ConditionCCertificate,
    ConditionCError,
    DistinctnessReport,
    PointMismatch,
    RigidityVerdict,
    check_condition_c,
    derive_bundle_weights,
    distinctness_analysis,
    first_chern_candidates,
    hattori_verdict,
)
from .laurent import LaurentPoly
from .localization import (
    c1cn1_from_k2,
    c1_power,
    chern_monomial,
    chi_y_from_data,
    chi_y_hrr_projective,
    k_coefficients,
    line_bundle_power,
    residue_constraints_hold,
    residue_sum,
)
from .models import (
    PairRestrictionReport,
    PointRestriction,
    linear_pn,
    pair_restriction_check,
)
from .search import (
    RigidityExperiment,
    SearchSpaceError,
    SearchSpec,
    enumerate_survivors,
    leaf_count,
    rigidity_experiment,
)

__all__ = [
    "__version__",
    "BundleWeights",
    "FixedPointData",
    "FixedPointDatum",
    "ValidationError",
    "betti_numbers",
    "dump",
    "iter_documents",
    "load",
    "loads",
    "projective_profile",
    "serialize",
    "to_document",
    "validate",
    "BundleDerivationError",
    "ChernClassCandidate",
    "ConditionCCertificate",
    "ConditionCError",
    "DistinctnessReport",
    "PointMismatch",
    "RigidityVerdict",
    "check_condition_c",
    "derive_bundle_weights",
    "distinctness_analysis",
    "first_chern_candidates",
    "hattori_verdict",
    "LaurentPoly",
    "c1cn1_from_k2",
    "c1_power",
    "chern_monomial",
    "chi_y_from_data",
    "chi_y_hrr_projective",
    "k_coefficients",
    "line_bundle_power",
    "residue_constraints_hold",
    "residue_sum",
    "PairRestrictionReport",
    "PointRestriction",
    "linear_pn",
    "pair_restriction_check",
    "RigidityExperiment",
    "SearchSpaceError",
    "SearchSpec",
    "enumerate_survivors",
    "leaf_count",
    "rigidity_experiment",
]
