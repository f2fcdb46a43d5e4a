"""Command-line front end: validate carriers and drive the correspondence
checks, with human-readable or JSON reports.

Exit codes: 0 all findings pass; 1 a mathematical finding failed (a theorem
was violated, which means a build bug); 2 input or parse error; 3 an
enumeration bound was exceeded. Bounds default to 10**6 enumerated objects per
call and follow --max-enumeration or the TRUSSKIT_MAX_ENUM environment
variable. JSON output is byte-deterministic for fixed inputs; elapsed time is
only shown in the human-readable form.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

from .baer_kaplansky import check_inner_structure, verify_baer_kaplansky
from .endo import build_endo_truss
from .errors import BoundExceeded
from .groups import parse_group_spec
from .heaps import FiniteHeap, heap_from_group, validate_heap
from .modules import (
    RModule,
    coordinate_module,
    equivalence_from_truss_iso,
    example_non_iso,
    find_module_equivalence,
    module_zn,
    regular_module,
    truss_iso_from_equivalence,
    validate_module,
)
from .rings import make_field_fp, make_product_ring, make_ring_zn, ring_as_truss, validate_ring
from .trusses import FiniteTruss, enumerate_truss_morphisms, validate_truss
from .validation import Check, ValidationReport, report_once


def _split_preset(spec: str) -> tuple[str, str]:
    if ":" not in spec:
        raise ValueError(f"preset {spec!r} needs the form name:arg or a .json path")
    name, arg = spec.split(":", 1)
    return name, arg.removesuffix("-module")


def _load_json(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from None


def _heap_from_spec(spec: str, max_enum: int | None) -> FiniteHeap:
    if spec.endswith(".json"):
        return FiniteHeap.from_json_dict(_load_json(spec))
    name, arg = _split_preset(spec)
    if name == "from-group":
        return heap_from_group(parse_group_spec(arg), max_enum)
    raise ValueError(f"unknown heap preset {name!r}; use from-group:SPEC or a .json file")


def _truss_from_spec(spec: str, max_enum: int | None):
    if spec.endswith(".json"):
        return FiniteTruss.from_json_dict(_load_json(spec))
    name, arg = _split_preset(spec)
    if name == "endo":
        return build_endo_truss(parse_group_spec(arg), max_enum)
    if name == "zn":
        return ring_as_truss(make_ring_zn(int(arg), max_enum), max_enum)
    if name == "fp":
        return ring_as_truss(make_field_fp(int(arg), max_enum), max_enum)
    if name == "fpxfp":
        field = make_field_fp(int(arg), max_enum)
        return ring_as_truss(make_product_ring(field, field, max_enum), max_enum)
    raise ValueError(
        f"unknown truss preset {name!r}; use endo:SPEC, zn:N, fp:P, fpxfp:P or a .json file"
    )


def _module_from_spec(spec: str, max_enum: int | None) -> RModule:
    if spec.endswith(".json"):
        return RModule.from_json_dict(_load_json(spec))
    name, arg = _split_preset(spec)
    if name == "zn":
        return module_zn(int(arg), max_enum)
    if name == "fp":
        return regular_module(make_field_fp(int(arg), max_enum), max_enum)
    if name == "fpxfp":
        field = make_field_fp(int(arg), max_enum)
        return regular_module(make_product_ring(field, field, max_enum), max_enum)
    if name == "example-non-iso":
        field = make_field_fp(int(arg), max_enum)
        ring = make_product_ring(field, field, max_enum)
        return coordinate_module(ring, 0, max_enum)
    raise ValueError(
        f"unknown module preset {name!r}; use zn:N, fp:P, fpxfp:P, "
        f"example-non-iso:P or a .json file"
    )


def _valid_module(spec: str, max_enum: int | None) -> RModule:
    """The module `spec` names, once its ring and action pass every law; a
    failed law is an input error (ValueError), not a finding."""
    m = _module_from_spec(spec, max_enum)
    for report in (report_once(m.ring, validate_ring, max_enum), report_once(m, validate_module, max_enum)):
        report.raise_on_failure(f"{spec} is not a module")
    return m


def cmd_validate(args, max_enum: int | None) -> ValidationReport:
    if args.heap:
        subject = _heap_from_spec(args.heap, max_enum)
        checks = validate_heap(subject).checks
        inputs = {"heap": args.heap, "size": subject.size}
    elif args.truss:
        subject = _truss_from_spec(args.truss, max_enum)
        checks = validate_truss(subject, max_enum).checks
        inputs = {"truss": args.truss, "size": subject.size}
    else:
        subject = _module_from_spec(args.module, max_enum)
        ring = report_once(subject.ring, validate_ring, max_enum)
        checks = tuple(replace(c, law="ring-" + c.law) for c in ring.checks)
        checks += report_once(subject, validate_module, max_enum).checks
        inputs = {
            "module": args.module,
            "ring_size": subject.ring.size,
            "module_size": subject.group.cardinality,
        }
    return ValidationReport("validate", checks, inputs)


def cmd_bk(args, max_enum: int | None) -> ValidationReport:
    from .endo import heap_isos

    left = parse_group_spec(args.left)
    right = parse_group_spec(args.right)
    result = verify_baer_kaplansky(left, right, brute_force=args.brute_force, max_enum=max_enum)
    enumerated = result.truss_iso_count is not None
    checks = (
        Check("heap_iso_count", None, value=result.heap_iso_count),
        Check("truss_iso_count", None, enumerated,
              value=result.truss_iso_count if enumerated else "not_enumerated"),
        Check("theta_upsilon_roundtrip", result.theta_upsilon_roundtrip),
        Check("upsilon_injective", result.upsilon_injective),
        Check("groups_isomorphic", None, value=result.groups_isomorphic),
        Check("consistent", result.consistent),
    )
    witnesses = None
    if 0 < result.heap_iso_count <= 8:
        witnesses = {
            "heap_isos": [hm.to_json_dict() for hm in heap_isos(left, right, max_enum)]
        }
    inputs = {"left": args.left, "right": args.right, "brute_force": args.brute_force}
    return ValidationReport("bk", checks, inputs, witnesses, document=result.to_json_dict())


def cmd_inner(args, max_enum: int | None) -> ValidationReport:
    left = parse_group_spec(args.left)
    right = parse_group_spec(args.right)
    source = build_endo_truss(left, max_enum)
    target = build_endo_truss(right, max_enum)
    inputs = {"left": args.left, "right": args.right}
    try:
        morphisms = enumerate_truss_morphisms(source, target, max_enum)
    except BoundExceeded as exc:
        return ValidationReport("inner", (Check("enumeration", None, False, value=f"skipped: {exc}"),), inputs)
    all_results: dict[str, bool] = {}
    for phi in morphisms:
        for law, ok in check_inner_structure(phi, max_enum).items():
            all_results[law] = all_results.get(law, True) and ok
    checks = [Check("truss_morphism_count", None, value=len(morphisms))]
    checks += [Check(law, ok) for law, ok in sorted(all_results.items())]
    return ValidationReport("inner", tuple(checks), inputs)


def cmd_module_bk(args, max_enum: int | None) -> ValidationReport:
    if args.second is None:
        name, arg = _split_preset(args.first)
        if name != "example-non-iso":
            raise ValueError("single-argument form expects example-non-iso:P")
        example = example_non_iso(int(arg), max_enum)
        data = example.to_json_dict()
        checks = (
            Check("truss_iso_exists", True),
            Check("module_hom_count", None, value=data["module_hom_count"]),
            Check("module_iso_exists", not data["module_iso_exists"], value=data["module_iso_exists"]),
            Check("groups_isomorphic", None, value=data["groups_isomorphic"]),
            Check("consistent", data["consistent"]),
        )
        witnesses = {
            "truss_iso_mapping": data["truss_iso_mapping"],
            "equivalence_mu": data["equivalence_mu"],
        }
        return ValidationReport("module-bk", checks, {"example": args.first}, witnesses)

    left = _valid_module(args.first, max_enum)
    right = _valid_module(args.second, max_enum)
    inputs = {"left": args.first, "right": args.second}
    eq = find_module_equivalence(left, right, max_enum)
    checks = [Check("equivalent_over_end_rings", None, value=eq is not None)]
    witnesses = None
    if eq is None:
        from .modules import build_linear_endo_truss
        from .trusses import enumerate_truss_isos

        source = build_linear_endo_truss(left, max_enum)
        target = build_linear_endo_truss(right, max_enum)
        try:
            iso_exists, certified = bool(enumerate_truss_isos(source, target, max_enum)), True
        except BoundExceeded:
            iso_exists, certified = None, False
        checks.append(
            Check("truss_iso_exists", None, certified, value="unknown" if iso_exists is None else iso_exists)
        )
        # the correspondence demands: no equivalence <=> no truss isomorphism
        consistent = None if iso_exists is None else (iso_exists is False)
        checks.append(Check("consistent", consistent, certified))
    else:
        phi = truss_iso_from_equivalence(eq, max_enum=max_enum)
        back = equivalence_from_truss_iso(phi, left, right, max_enum)
        roundtrip = back.mu.matrix == eq.mu.matrix and all(
            back.rho_of(u).matrix == v.matrix for u, v in eq.rho_pairs
        )
        checks.append(Check("truss_iso_exists", True))
        checks.append(Check("roundtrip_recovers_equivalence", roundtrip))
        checks.append(Check("consistent", roundtrip))
        witnesses = {
            "mu": [list(row) for row in eq.mu.matrix],
            "truss_iso_mapping": list(phi.mapping),
        }
    return ValidationReport("module-bk", tuple(checks), inputs, witnesses)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--max-enumeration",
        type=int,
        default=None,
        metavar="N",
        help="cap on enumerated objects per call (default 10^6; "
        "env TRUSSKIT_MAX_ENUM)",
    )
    common.add_argument("--json", action="store_true", help="emit a JSON report")

    parser = argparse.ArgumentParser(
        prog="trusskit",
        description="Exhaustive verification of heap, truss and module structure "
        "and of the endomorphism-truss correspondence, at desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common],
                       help="run the exhaustive validators on one carrier")
    kind = p.add_mutually_exclusive_group(required=True)
    kind.add_argument("--heap", metavar="SPEC", help="from-group:SPEC or table .json")
    kind.add_argument("--truss", metavar="SPEC",
                      help="endo:SPEC, zn:N, fp:P, fpxfp:P or table .json")
    kind.add_argument("--module", metavar="SPEC",
                      help="zn:N, fp:P, fpxfp:P, example-non-iso:P or .json")

    p = sub.add_parser("bk", parents=[common], help="verify the group-level correspondence")
    p.add_argument("left", help="group spec such as 2,2")
    p.add_argument("right")
    p.add_argument("--brute-force", action="store_true",
                   help="also count truss isomorphisms by a search independent of "
                   "conjugation (reported not_enumerated if the search exceeds the cap)")

    p = sub.add_parser("inner", parents=[common], help="check the inner structure of every truss morphism")
    p.add_argument("left")
    p.add_argument("right")

    p = sub.add_parser("module-bk", parents=[common], help="verify the module-level correspondence")
    p.add_argument("first", metavar="MODULE", help="module preset or example-non-iso:P")
    p.add_argument("second", metavar="MODULE", nargs="?", default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    max_enum = args.max_enumeration
    if max_enum is None:
        env = os.environ.get("TRUSSKIT_MAX_ENUM")
        if env is not None:
            try:
                max_enum = int(env)
            except ValueError:
                print(f"error: TRUSSKIT_MAX_ENUM={env!r} is not an integer", file=sys.stderr)
                return 2

    handlers = {
        "validate": cmd_validate,
        "bk": cmd_bk,
        "inner": cmd_inner,
        "module-bk": cmd_module_bk,
    }
    start = time.perf_counter()
    try:
        report = handlers[args.command](args, max_enum)
    except BoundExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - start

    if args.json:
        print(json.dumps(report.to_json_dict(), indent=2, sort_keys=False))
    else:
        print(report.human(elapsed))
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
