"""Command-line front end: validate carriers and drive the correspondence
checks, with human-readable or JSON reports.

Exit codes: 0 all findings pass; 1 a mathematical finding failed (a theorem
was violated, which means a build bug); 2 input or parse error; 3 an
enumeration bound was exceeded, or an array the bounds admitted did not fit
in memory (reported as one `error: out of memory: ...` line naming the
allocation). Bounds default to 10**6 enumerated objects per
call and follow --max-enumeration or the TRUSSKIT_MAX_ENUM environment
variable. JSON output is byte-deterministic for fixed inputs; elapsed time is
only shown in the human-readable form. When stdout is closed before the report
is written (`trusskit ... | head -1`), the status is still the findings' own,
0 or 1, and no traceback is printed.

`main(argv)` may be called repeatedly in one process: the argument parser is
built on the first call and reused, and nothing else is kept between calls.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .baer_kaplansky import (
    conjugate_rows,
    inner_structure_rows,
    laws_passed,
    verify_baer_kaplansky,
    verify_correspondence,
)
from .endo import HeapMorphism, build_endo_truss
from .errors import BoundExceeded
from .groups import matrix_images, parse_group_spec
from .heaps import FiniteHeap, heap_from_group, validate_heap
from .modules import (
    RModule,
    _matrix_stack,
    build_linear_endo_truss,
    coordinate_module,
    example_non_iso,
    find_module_equivalence,
    regular_module,
    validate_module,
)
from .rings import FiniteRing, make_field_fp, make_product_ring, make_ring_zn, ring_as_truss, validate_ring
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
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise ValueError(f"{path} is not valid JSON: {exc}") from None


def _heap_from_spec(spec: str, max_enum: int | None) -> FiniteHeap:
    if spec.endswith(".json"):
        return FiniteHeap.from_json_dict(_load_json(spec))
    name, arg = _split_preset(spec)
    if name == "from-group":
        return heap_from_group(parse_group_spec(arg), max_enum)
    raise ValueError(f"unknown heap preset {name!r}; use from-group:SPEC or a .json file")


def _ring_preset(name: str, arg: str, max_enum: int | None) -> FiniteRing | None:
    """The ring of a zn:N, fp:P or fpxfp:P preset, or None for another name."""
    if name == "zn":
        return make_ring_zn(int(arg), max_enum)
    if name in ("fp", "fpxfp"):
        field = make_field_fp(int(arg), max_enum)
        return field if name == "fp" else make_product_ring(field, field, max_enum)
    return None


def _truss_from_spec(spec: str, max_enum: int | None):
    if spec.endswith(".json"):
        return FiniteTruss.from_json_dict(_load_json(spec))
    name, arg = _split_preset(spec)
    if name == "endo":
        return build_endo_truss(parse_group_spec(arg), max_enum)
    ring = _ring_preset(name, arg, max_enum)
    if ring is not None:
        return ring_as_truss(ring, max_enum)
    raise ValueError(
        f"unknown truss preset {name!r}; use endo:SPEC, zn:N, fp:P, fpxfp:P or a .json file"
    )


def _module_from_spec(spec: str, max_enum: int | None) -> RModule:
    if spec.endswith(".json"):
        return RModule.from_json_dict(_load_json(spec))
    name, arg = _split_preset(spec)
    if name == "example-non-iso":
        return coordinate_module(_ring_preset("fpxfp", arg, max_enum), 0, max_enum)
    ring = _ring_preset(name, arg, max_enum)
    if ring is not None:
        return regular_module(ring, max_enum)
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
            "heap_isos": [HeapMorphism.from_values(left, right, row).to_json_dict() for row in result.heap_isos]
        }
    inputs = {"left": args.left, "right": args.right, "brute_force": args.brute_force}
    return ValidationReport("bk", checks, inputs, witnesses, document=result.to_json_dict())


def cmd_inner(args, max_enum: int | None) -> ValidationReport:
    left = parse_group_spec(args.left)
    right = parse_group_spec(args.right)
    source = build_endo_truss(left, max_enum)
    target = source if right == left else build_endo_truss(right, max_enum)
    inputs = {"left": args.left, "right": args.right}
    try:
        morphisms = enumerate_truss_morphisms(source, target, max_enum)
    except BoundExceeded as exc:
        return ValidationReport("inner", (Check("enumeration", None, False, value=f"skipped: {exc}"),), inputs)
    # the zero constant is always a morphism, so F has a row
    F = np.stack([phi.mapping for phi in morphisms])
    passed = laws_passed(*inner_structure_rows(source, target, F, max_enum))
    checks = [Check("truss_morphism_count", None, value=len(morphisms))]
    checks += [Check(law, ok) for law, ok in sorted(passed.items())]
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
    right = left if args.second == args.first else _valid_module(args.second, max_enum)
    inputs = {"left": args.first, "right": args.second}
    eq = find_module_equivalence(left, right, max_enum)
    g, h = left.group, right.group
    source, target = build_linear_endo_truss(left, max_enum), build_linear_endo_truss(right, max_enum)
    # the value table of the heap isomorphism (mu, 0); the brute force runs only without one
    values = matrix_images(_matrix_stack([] if eq is None else [eq.mu], g, h), g, h)
    roundtrip, injective, count = verify_correspondence(source, target, values, eq is None, max_enum)
    checks = [Check("equivalent_over_end_rings", None, value=eq is not None)]
    witnesses = None
    if eq is None:
        certified = count is not None
        checks.append(Check("truss_iso_exists", None, certified, value=count > 0 if certified else "unknown"))
        # the correspondence demands: no equivalence <=> no truss isomorphism
        checks.append(Check("consistent", count == 0 if certified else None, certified))
    else:
        phi = conjugate_rows(source, target, values, max_enum)[0]
        # the pairs (u, v) must run over E_R(M)'s homs u, with v the hom of Phi(u, 0)
        rho = target.decode(phi[source.encode(np.arange(len(source.homs)), 0)])[0]
        us = _matrix_stack([u for u, _ in eq.rho_pairs], g, g)
        vs = _matrix_stack([v for _, v in eq.rho_pairs], h, h)
        roundtrip = roundtrip and np.array_equal(us, source.homs) and np.array_equal(vs, target.homs[rho])
        checks.append(Check("truss_iso_exists", True))
        checks.append(Check("roundtrip_recovers_equivalence", roundtrip))
        checks.append(Check("consistent", roundtrip and injective))
        witnesses = {"mu": [list(row) for row in eq.mu.matrix], "truss_iso_mapping": phi.tolist()}
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every `main` call in this process, built on the first
    one, so the parser tree is not rebuilt per call. Parsing leaves it
    unchanged, and it holds nothing from any call's arguments."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
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
    except MemoryError as exc:  # an allocation the object caps admitted but memory could not hold
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - start

    status = 0 if report.passed else 1
    try:
        if args.json:
            print(json.dumps(report.to_json_dict(), indent=2, sort_keys=False))
        else:
            print(report.human(elapsed))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early (`| head`): the findings still decide the
        # status, and what is left in the buffer goes to devnull at exit
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return status


if __name__ == "__main__":
    sys.exit(main())
