"""Output oracles that share no code path with fpkit.

Every expected value here comes from a closed form or from the
benchmark's own exact arithmetic.  For the linear action on projective
space with distinct integer weights a_0..a_n:

- point i has the weights a_i - a_j (j != i) and bundle weights a;
- the residue sums vanish below power n and c_1^n = (n+1)^n;
- every even Betti number is 1 and chi_y = sum_k (-y)^k;
- a Chern monomial c_{i_1}...c_{i_k} is prod_j C(n+1, i_j), because the
  total Chern class is (1 + h)^(n+1) with h^n = 1;
- the rigidity verdict passes with normalized bundle a_i - a_0.

Each ``check_*`` function returns ``None`` for a correct outcome and a
one-line reason otherwise.  A CLI outcome is ``(exit_code, stdout, stderr)``.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb, prod

SCHEMA_VERSION = "1"

# Survivor counts of `fpkit search --n N --bound B` at the commit that
# defined this benchmark.  The residue constraints alone decide them, so a
# change to the hypothesis gate or the search engine must keep them.
SEED_SURVIVORS = {
    (1, 1): 1,
    (1, 2): 2,
    (1, 3): 3,
    (2, 1): 0,
    (2, 2): 1,
    (2, 3): 3,
    (2, 8): 41,
    (3, 3): 21,
    (4, 2): 8,
}


# -- documents -----------------------------------------------------------------

def linear_doc(values, with_bundle=True):
    """The linear model on distinct integers ``values``, as a plain dict."""
    points = [
        {
            "label": f"P{i + 1}",
            "weights": sorted(a - b for j, b in enumerate(values) if j != i),
        }
        for i, a in enumerate(values)
    ]
    doc = {"n": len(values) - 1, "fixed_points": points}
    if with_bundle:
        doc["bundle_weights"] = list(values)
    return doc


def canonical_text(doc):
    """The documented canonical form: keys n, fixed_points, bundle_weights;
    weights ascending; two-space indent; trailing newline."""
    out = {
        "n": doc["n"],
        "fixed_points": [
            {"label": p["label"], "weights": sorted(p["weights"])}
            for p in doc["fixed_points"]
        ],
    }
    if "bundle_weights" in doc:
        out["bundle_weights"] = list(doc["bundle_weights"])
    return json.dumps(out, indent=2) + "\n"


def parse_stream(text):
    """Split concatenated JSON documents with the standard decoder only."""
    decoder = json.JSONDecoder()
    docs, position = [], 0
    while True:
        while position < len(text) and text[position].isspace():
            position += 1
        if position == len(text):
            return docs
        doc, position = decoder.raw_decode(text, position)
        docs.append(doc)


def denominator_digits(doc):
    """Decimal digits of prod |e_i| over the points: the size of the
    integer an all-points common-denominator sum carries."""
    return decimal_digits(prod(abs(prod(p["weights"])) for p in doc["fixed_points"]))


def decimal_digits(value):
    """Digits of a positive integer, without str() and its length limit."""
    digits = max(1, int(value.bit_length() * 0.30102999566398120))
    while 10**digits <= value:
        digits += 1
    while digits > 1 and 10 ** (digits - 1) > value:
        digits -= 1
    return digits


def residue_constraints_hold(weight_lists):
    """sum_i s_i^r / e_i == 0 for r = 0..n-1, in exact rationals."""
    n = len(weight_lists[0])
    sums = [sum(ws) for ws in weight_lists]
    products = [prod(ws) for ws in weight_lists]
    return all(
        sum(Fraction(s**r, e) for s, e in zip(sums, products)) == 0
        for r in range(n)
    )


def leaf_count(n, bound):
    """Raw (n+1)-multisets of size-n weight multisets over [-B, B] \\ {0}."""
    pool = comb(2 * bound + n - 1, n)
    return comb(pool + n, n + 1)


# -- closed forms for the linear model -------------------------------------------

def chi_y_coefficients(n):
    return {k: (-1) ** k for k in range(n + 1)}


def chi_y_text(n):
    return "1" + "".join(
        (" - " if k % 2 else " + ") + ("y" if k == 1 else f"y^{k}")
        for k in range(1, n + 1)
    )


def expected_report(n):
    return {
        "schema_version": SCHEMA_VERSION,
        "n": n,
        "point_count": n + 1,
        "euler_characteristic": n + 1,
        "betti": [1] * (n + 1),
        "projective_profile": True,
        "residue_sums": ["0"] * n + [str((n + 1) ** n)],
        "c1_power": str((n + 1) ** n),
        "chi_y": {
            "coefficients": {str(k): c for k, c in chi_y_coefficients(n).items()},
            "text": chi_y_text(n),
        },
        # chi_y at y = t - 1 is sum_k (1 - t)^k
        "k_coefficients": [(-1) ** j * comb(n + 1, j + 1) for j in range(n + 1)],
        "c1cn1": (n + 1) * comb(n + 1, 2) if n >= 2 else None,
    }


def expected_hattori(values):
    n = len(values) - 1
    return {
        "schema_version": SCHEMA_VERSION,
        "passes": True,
        "normalized_bundle": [a - values[0] for a in values],
        "quasi_ample": True,
        "bundle_power": "1",
        "condition_c": {"k0": n + 1, "offset": sum(values[0] - b for b in values)},
        "condition_c_violation": None,
        "mismatches": [],
    }


def expected_pair(values):
    n = len(values) - 1
    last = values[-1]
    return {
        "schema_version": SCHEMA_VERSION,
        "passes": True,
        "omitted_label": f"P{n + 1}",
        "points": [
            {
                "label": f"P{i + 1}",
                "image": f"P{i + 1}",
                "embeds": True,
                "missing": [],
                "normal_weight": values[i] - last,
                "expected_normal": values[i] - last,
            }
            for i in range(n)
        ],
    }


def chern_monomial_value(n, indices):
    return prod(comb(n + 1, i) for i in indices)


# -- checks ---------------------------------------------------------------------

def _exit(outcome, code):
    rc, _, err = outcome
    if "Traceback" in err:
        return "traceback on stderr"
    if rc != code:
        return f"exit code {rc}, expected {code}"
    return None


def _json(outcome):
    try:
        return json.loads(outcome[1]), None
    except json.JSONDecodeError as exc:
        return None, f"stdout is not one JSON document: {exc}"


def check_fields(outcome, code, expected):
    """Exit code ``code`` and every key of ``expected`` equal in the
    stdout document; keys the program adds beyond these are allowed."""
    error = _exit(outcome, code)
    if error:
        return error
    payload, error = _json(outcome)
    if error:
        return error
    for key, value in expected.items():
        if payload.get(key) != value:
            return f"field {key!r} is {payload.get(key)!r}, expected {value!r}"
    return None


def check_invalid(outcome):
    """Invalid input: exit 2, a one-line diagnostic, nothing on stdout."""
    error = _exit(outcome, 2)
    if error:
        return error
    if outcome[1]:
        return "invalid input produced stdout"
    if not outcome[2].startswith("error:"):
        return "invalid input gave no 'error:' diagnostic"
    return None


def check_rigidity_fails(outcome):
    error = check_fields(outcome, 1, {"passes": False})
    if error:
        return error
    if not json.loads(outcome[1]).get("mismatches"):
        return "perturbed bundle reported no mismatch"
    return None


def check_text(outcome, code, stdout, file_text=None, expected_file=None):
    error = _exit(outcome, code)
    if error:
        return error
    if outcome[1] != stdout:
        return "stdout differs from the canonical form"
    if file_text != expected_file:
        return "written file differs from the canonical form"
    return None


NOT_REQUESTED = object()


def check_search(outcome, n, bound, stream_text=NOT_REQUESTED):
    """Survivor count as at the seed commit, a consistent partition and
    exit code, and every survivor re-checked against the residue
    constraints with this module's own exact sum.  ``stream_text`` is the
    --output file's content, None when the file is missing."""
    payload, error = _json(outcome)
    if error:
        return error
    counts = [payload.get(k) for k in (
        "survivor_count", "match_count", "counterexample_count",
        "hypothesis_failure_count")]
    survivors, matches, counterexamples, failures = counts
    if survivors != SEED_SURVIVORS[(n, bound)]:
        return f"survivor count {survivors}, expected {SEED_SURVIVORS[(n, bound)]}"
    if matches + counterexamples + failures != survivors:
        return "matches + counterexamples + failures != survivors"
    error = _exit(outcome, 1 if counterexamples else 0)
    if error:
        return error
    listed = (
        payload["matches"]
        + [c["weights"] for c in payload["counterexamples"]]
        + [f["weights"] for f in payload["hypothesis_failures"]]
    )
    if len(listed) != survivors:
        return "listed survivors disagree with the counts"
    if stream_text is None:
        return "survivor stream was not written"
    if stream_text is not NOT_REQUESTED:
        try:
            streamed = [
                [p["weights"] for p in doc["fixed_points"]]
                for doc in parse_stream(stream_text)
            ]
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            return f"survivor stream unreadable: {exc}"
        if sorted(streamed) != sorted(listed):
            return "survivor stream disagrees with the report"
    for weights in listed:
        if len(weights) != n + 1 or any(
            len(ws) != n or not all(0 < abs(w) <= bound for w in ws)
            for ws in weights
        ):
            return f"survivor {weights} is outside the search space"
        if not residue_constraints_hold(weights):
            return f"survivor {weights} breaks the residue constraints"
    for weights in payload["matches"]:
        sums = [sum(ws) for ws in weights]
        shifted = [s - sums[0] for s in sums]
        if any(d % (n + 1) for d in shifted):
            return f"match {weights} has no bundle"
        a = [d // (n + 1) for d in shifted]
        if any(
            sorted(a[i] - a[j] for j in range(n + 1) if j != i) != sorted(ws)
            for i, ws in enumerate(weights)
        ):
            return f"match {weights} is not of linear form"
    return None


def check_documents(data_list, docs):
    """Library read-back: one validated object per document, same points."""
    if len(data_list) != len(docs):
        return f"read {len(data_list)} documents, expected {len(docs)}"
    for data, doc in zip(data_list, docs):
        got = (data.n, [(p.label, list(p.weights)) for p in data.points])
        want = (
            doc["n"],
            [(p["label"], sorted(p["weights"])) for p in doc["fixed_points"]],
        )
        if got != want:
            return f"document read back as {got}, expected {want}"
    return None


def check_equal(value, expected):
    return None if value == expected else f"got {value!r}, expected {expected!r}"
