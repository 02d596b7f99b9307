"""Command-line front door.

Exit codes are uniform across commands: 0 for success or a passing
verdict, 1 for a semantic failure (a negative verdict on valid input), 2
for invalid input.  Reports are JSON documents on stdout with a
"schema_version" field; diagnostics go to stderr.  Exact rationals are
serialized as fraction strings and polynomials both as a coefficient map
and a human-readable string.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from collections.abc import Sequence
from fractions import Fraction
from typing import TYPE_CHECKING

from . import __version__
from .core import (
    FixedPointData,
    ValidationError,
    _read_text,
    betti_numbers,
    iter_documents,
    loads,
    projective_profile,
    serialize,
    to_json,
    validate,
)
from .localization import (
    c1cn1_from_k2,
    chi_y_from_data,
    k_coefficients,
    residue_sum,
)

# hattori, models and search are imported inside the commands that run
# them, so that starting the CLI, and every other command, skips them
if TYPE_CHECKING:
    from .hattori import RigidityVerdict
    from .laurent import LaurentPoly

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INVALID = 2


def _document(fields: dict) -> str:
    """A command's JSON document: the schema version, then ``fields``."""
    return to_json({"schema_version": SCHEMA_VERSION, **fields})


def _poly_payload(poly: LaurentPoly) -> dict:
    return {
        "coefficients": {str(k): c for k, c in poly.terms},
        "text": poly.fmt(),
    }


def _read(path: str) -> str:
    try:
        return _read_text(path)  # the parsers skip a leading BOM
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc


def _load(path: str) -> FixedPointData:
    return loads(_read(path))


def _load_stream(path: str) -> list[FixedPointData]:
    """Every document of a file of one or more concatenated documents."""
    documents = [validate(raw) for raw in iter_documents(_read(path))]
    if not documents:
        raise ValidationError(f"{path} holds no document")
    return documents


def _write_output(text: str, path: str | None = None) -> None:
    """The one writer of command output: stdout, or the file at ``path``."""
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from exc


def _parse_weights(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in raw.split(",") if part.strip() != "")
    except ValueError:
        raise ValidationError(f"weights must be comma-separated integers, got {raw!r}")


def _parse_k0(raw: str) -> Fraction:
    # int on each part, so the str conversion limit also caps the digits
    numerator, slash, denominator = raw.partition("/")
    try:
        return Fraction(int(numerator), int(denominator) if slash else 1)
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"k0 must be an integer or fraction like 3/2, got {raw!r}")


def _parse_embedding(raw: str) -> dict[str, str]:
    mapping = {}
    for part in raw.split(","):
        if not part.strip():
            continue
        source, separator, image = part.partition("=")
        if not separator or not source.strip() or not image.strip():
            raise ValidationError(
                f"embedding entries must look like LABEL=LABEL, got {part!r}"
            )
        if source.strip() in mapping:
            raise ValidationError(f"embedding maps {source.strip()!r} twice")
        mapping[source.strip()] = image.strip()
    if not mapping:
        raise ValidationError("embedding is empty")
    return mapping


def cmd_validate(args: argparse.Namespace) -> int:
    documents = _load_stream(args.path)
    _write_output("".join(serialize(data) for data in documents))
    return EXIT_OK


def _report(data: FixedPointData) -> dict:
    chi = chi_y_from_data(data)
    coefficients = k_coefficients(chi, data.n)
    residue_sums = [residue_sum(data, r) for r in range(data.n + 1)]
    return {
        "n": data.n,
        "point_count": data.point_count,
        "euler_characteristic": data.point_count,
        "betti": list(betti_numbers(data)),
        "projective_profile": projective_profile(data),
        "residue_sums": residue_sums,
        "c1_power": residue_sums[data.n],
        "chi_y": _poly_payload(chi),
        "k_coefficients": list(coefficients),
        "c1cn1": (
            c1cn1_from_k2(coefficients[2], data.point_count, data.n)
            if data.n >= 2
            else None
        ),
    }


def cmd_report(args: argparse.Namespace) -> int:
    documents = _load_stream(args.path)
    _write_output("".join(_document(_report(data)) for data in documents))
    return EXIT_OK


def cmd_hattori(args: argparse.Namespace) -> int:
    from .hattori import BundleDerivationError, hattori_verdict

    data = _load(args.path)
    try:
        verdict = hattori_verdict(data)
    except BundleDerivationError as exc:
        _write_output(_document({"passes": False, "error": str(exc)}))
        return EXIT_FAIL
    _write_output(_document(vars(verdict)))
    return EXIT_OK if verdict.passes else EXIT_FAIL


def cmd_model(args: argparse.Namespace) -> int:
    from .models import linear_pn

    weights = _parse_weights(args.weights)
    if args.n is not None and args.n != len(weights) - 1:
        raise ValidationError(
            f"--n {args.n} disagrees with {len(weights)} weights "
            f"(expected n + 1 of them)"
        )
    # the ambient weights are validated under --hyperplane as well
    data = linear_pn(weights)
    if args.hyperplane:
        if len(weights) < 3:
            raise ValidationError(
                "--hyperplane needs at least three ambient weights, since the "
                f"hyperplane of P^1 has dimension 0; got {len(weights)}"
            )
        data = linear_pn(weights[:-1])
    _write_output(serialize(data), args.output)
    return EXIT_OK


def cmd_pair(args: argparse.Namespace) -> int:
    from .models import pair_restriction_check

    ambient = _load(args.ambient)
    hypersurface = _load(args.hypersurface)
    embedding = _parse_embedding(args.embedding) if args.embedding else None
    report = pair_restriction_check(ambient, hypersurface, embedding)
    _write_output(_document(vars(report)))
    return EXIT_OK if report.passes else EXIT_FAIL


def _weights_payload(data: FixedPointData) -> list[list[int]]:
    return [list(point.weights) for point in data.points]


def _counterexample_payload(data: FixedPointData, verdict: RigidityVerdict) -> dict:
    payload = {"weights": _weights_payload(data), **vars(verdict)}
    del payload["passes"], payload["condition_c"]
    return payload


def cmd_search(args: argparse.Namespace) -> int:
    from .search import SearchSpec, rigidity_experiment

    override = os.environ.get("FPKIT_MAX_LEAVES")
    try:
        max_leaves = SearchSpec.max_leaves if override is None else int(override)
    except ValueError:
        raise ValidationError(f"FPKIT_MAX_LEAVES must be an integer, got {override!r}")
    if args.k0 is not None and not args.require_condition_c:
        raise ValidationError("--k0 only applies together with --require-condition-c")
    k0 = Fraction(args.n + 1) if args.k0 is None else _parse_k0(args.k0)
    spec = SearchSpec(
        n=args.n,
        bound=args.bound,
        require_projective_profile=args.require_profile,
        k0=k0 if args.require_condition_c else None,
        max_leaves=max_leaves,
    )
    experiment = rigidity_experiment(spec)
    if args.output is not None:
        stream = "".join(serialize(data) for data in experiment.survivors)
        _write_output(stream, args.output)
    document = {
        "n": spec.n,
        "bound": spec.bound,
        "require_projective_profile": spec.require_projective_profile,
        "require_condition_c": spec.k0 is not None,
        "k0": spec.k0,
        "survivor_count": experiment.survivor_count,
        "match_count": len(experiment.matches),
        "counterexample_count": len(experiment.counterexamples),
        "hypothesis_failure_count": len(experiment.hypothesis_failures),
        "matches": [_weights_payload(data) for data in experiment.matches],
        "counterexamples": [
            _counterexample_payload(data, verdict)
            for data, verdict in experiment.counterexamples
        ],
        "hypothesis_failures": [
            {"weights": _weights_payload(data), "reason": reason}
            for data, reason in experiment.hypothesis_failures
        ],
    }
    _write_output(_document(document))
    return EXIT_OK if not experiment.counterexamples else EXIT_FAIL


def cmd_c1candidates(args: argparse.Namespace) -> int:
    from .hattori import first_chern_candidates

    _write_output(_document({"n": args.n, "candidates": first_chern_candidates(args.n)}))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    """The fpkit parser, built once per process; callers must not mutate it."""
    return _parsers()[0]


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    # the top-level parser and its subparsers by command name, built once
    parser = argparse.ArgumentParser(
        prog="fpkit",
        description=(
            "Exact localization calculator for circle-action fixed-point data: "
            "validation, Chern numbers, genus polynomials, rigidity "
            "certification, model generation, and bounded searches."
        ),
    )
    parser.add_argument("--version", action="version", version=f"fpkit {__version__}")
    commands = parser.add_subparsers(dest="command")

    for name, handler, summary in (
        ("validate", cmd_validate, "validate a data file and echo it canonically"),
        ("report", cmd_report, "full localization report for a data file"),
        ("hattori", cmd_hattori, "run the rigidity pipeline on a data file"),
    ):
        sub = commands.add_parser(name, help=summary)
        sub.add_argument("path", help="fixed-point data file")
        sub.set_defaults(handler=handler)

    sub = commands.add_parser("model", help="emit linear projective-space data")
    sub.add_argument("--weights", required=True, help="comma-separated distinct integers")
    sub.add_argument("--n", type=int, help="expected dimension (weights must number n+1)")
    sub.add_argument(
        "--hyperplane",
        action="store_true",
        help="emit the invariant hyperplane of the ambient weights instead",
    )
    sub.add_argument("--output", help="write the document here instead of stdout")
    sub.set_defaults(handler=cmd_model)

    sub = commands.add_parser("pair", help="check a hypersurface restriction")
    sub.add_argument("ambient", help="ambient data file")
    sub.add_argument("hypersurface", help="hypersurface data file")
    sub.add_argument(
        "--embedding",
        help="comma-separated LABEL=LABEL pairs (default matches labels)",
    )
    sub.set_defaults(handler=cmd_pair)

    sub = commands.add_parser("search", help="sweep small weight configurations")
    sub.add_argument("--n", type=int, required=True, help="complex dimension")
    sub.add_argument("--bound", type=int, required=True, help="weight magnitude bound")
    sub.add_argument(
        "--require-profile",
        action="store_true",
        help="keep only survivors with the projective negative-count profile",
    )
    sub.add_argument(
        "--require-condition-c",
        action="store_true",
        help="keep only survivors admitting the affine weight-sum relation",
    )
    sub.add_argument("--k0", help="relation multiplier (integer or fraction; default n+1)")
    sub.add_argument("--output", help="write the survivor stream to this file")
    sub.set_defaults(handler=cmd_search)

    sub = commands.add_parser("c1candidates", help="admissible first-Chern-number roots")
    sub.add_argument("--n", type=int, required=True, help="complex dimension")
    sub.set_defaults(handler=cmd_c1candidates)

    return parser, commands.choices


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command; may be called repeatedly in one process.

    When the first argument names a command, that command's subparser reads
    the rest directly; anything else goes through the top-level parser.
    """
    parser, commands = _parsers()
    argv = sys.argv[1:] if argv is None else argv
    try:
        if argv and argv[0] in commands:
            args = commands[argv[0]].parse_args(argv[1:])
        else:
            args = parser.parse_args(argv)
            if args.command is None:
                parser.error("the following arguments are required: command")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    raise SystemExit(main())
