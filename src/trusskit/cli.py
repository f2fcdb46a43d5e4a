"""Command-line front end: validate carriers and drive the correspondence
checks, with human-readable or JSON reports.

Exit codes: 0 all findings pass; 1 a mathematical finding failed (a theorem
was violated, which means a build bug), as a failed check or, when a
conjugation is not a truss isomorphism, as one `error:` line; 2 input or
parse error; 3 an enumeration bound was exceeded, or an array the bounds
admitted did not fit in memory (reported as one `error: out of memory: ...`
line naming the allocation). Bounds default to 10**6 enumerated objects per
call and follow --max-enumeration. JSON output is byte-deterministic for fixed
inputs; elapsed time is only shown in the human-readable form. When stdout is
closed before the report is written (`trusskit ... | head -1`), the status is
still the findings' own, 0 or 1, and no traceback is printed.

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
    inner_structure_rows,
    laws_passed,
    verify_baer_kaplansky,
    verify_correspondence,
)
from .endo import HeapMorphism, _bijective_rows, build_endo_truss
from .errors import BoundExceeded, NotAnIsomorphism
from .groups import groups_isomorphic, matrix_images, parse_group_spec
from .heaps import FiniteHeap, heap_from_group, validate_heap
from .modules import (
    RModule,
    _matrix_stack,
    build_linear_endo_truss,
    coordinate_module,
    example_non_iso,
    find_module_equivalence,
    module_homs,
    regular_module,
    validate_module,
)
from .rings import FiniteRing, make_field_fp, make_product_ring, make_ring_zn, ring_as_truss, validate_ring
from .trusses import FiniteTruss, _affine_search, validate_truss
from .validation import Check, ValidationReport, report_once


def _split_preset(spec: str) -> tuple[str, str]:
    if ":" not in spec:
        raise ValueError(f"preset {spec!r} needs the form name:arg or a .json path")
    name, arg = spec.split(":", 1)
    return name, arg.removesuffix("-module")


_BLOCK = 1 << 16  # characters of an array body checked at a time: bounds the masks, not the array


def _plain_block(text: str) -> np.ndarray | None:
    """The int64 array of `text` when it is `ws int (ws , ws int)* ws` or ws
    alone, ASCII, each int `0|[1-9][0-9]{0,17}` (so it fits int64) and ws
    JSON whitespace; None otherwise. The grammar is checked on the bytes,
    with and without whitespace, before `np.fromstring`, which is laxer,
    reads the numbers. A check that the lengths rule out is skipped."""
    if not text.isascii():
        return None
    raw = text.encode()
    compact = raw.translate(None, b" \t\n\r")
    if compact.translate(None, b"0123456789,"):  # a byte that is no digit, comma or whitespace
        return None
    if not compact:
        return np.zeros(0, np.int64)
    t = np.frombuffer(compact, np.uint8)
    d = t > 47  # a digit, else a comma
    starts = d[1:] > d[:-1]  # starts[i]: a number starts at i + 1
    commas = compact.count(b",")
    # t alternates numbers and single commas ...
    if not (d[0] and d[-1]) or np.count_nonzero(starts) != commas:
        return None
    if len(raw) > len(compact):  # ... and no whitespace splits a number
        digit = np.frombuffer(raw, np.uint8) > 47
        if np.count_nonzero(digit[1:] > digit[:-1]) + digit[0] != commas + 1:
            return None
    longest = len(compact) - 2 * commas  # no number is longer: the others have a digit each
    if longest > 1 and (t[0] == 48 and d[1] or (starts[:-1] & (t[1:-1] == 48) & d[2:]).any()):  # a leading 0
        return None
    if longest > 18:
        run = d
        for k in (1, 2, 4, 8, 3):  # run[i]: d[i : i + 2, 4, 8, 16, then 19] are all digits
            run = run[:-k] & run[k:]
        if run.any():
            return None
    return np.fromstring(compact, dtype=np.int64, sep=",", count=commas + 1)


def _plain_ints(s: str, start: int, end: int) -> np.ndarray | None:
    """The int64 array of the array body `s[start:end]` when it is plain
    (`_plain_block`), else None. A longer body than `_BLOCK` characters is
    read in blocks of about that size cut at commas, so it is plain when it
    is a run of plain blocks, none of them empty."""
    if end - start <= _BLOCK:
        return _plain_block(s[start:end])
    out, pos = np.empty(s.count(",", start, end) + 1, np.int64), 0
    while start <= end:
        stop = s.rfind(",", start, start + _BLOCK)
        if stop < 0:
            stop = s.find(",", start + _BLOCK, end)
        if stop < 0 or end - start <= _BLOCK:
            stop = end
        ints = _plain_block(s[start:stop])
        if ints is None or not ints.size:
            return None
        out[pos : pos + ints.size] = ints
        pos += ints.size
        start = stop + 1
    return out


class _TableDecoder(json.JSONDecoder):
    """`json.loads`, except that each plain array (`_plain_ints`) becomes
    a read-only int64 array read by numpy, with no list of Python ints in
    between. Objects are parsed by the stdlib's Python `JSONObject`; every
    other value, other arrays among them, goes to the stdlib's C scanner at
    its position, so it decodes, or fails with the same message, as under
    `json.loads`. (`json.scanner.py_make_scanner` would not: its number
    pattern reads `1١` as 11.)"""

    def __init__(self) -> None:
        super().__init__()
        c_scan, memo = self.scan_once, {}

        def scan_once(s: str, idx: int):
            if s.startswith("{", idx):
                return json.decoder.JSONObject((s, idx + 1), self.strict, scan_once, None, None, memo)
            if s.startswith("[", idx):
                close = s.find("]", idx)
                table = None if close < 0 else _plain_ints(s, idx + 1, close)
                if table is not None:
                    table.flags.writeable = False  # nothing else holds it: `errors.int_table` keeps it
                    return table, close + 1
            return c_scan(s, idx)

        self.scan_once = scan_once

    def decode(self, s: str):
        try:
            return super().decode(s)
        except RecursionError:  # objects nested deeper than the Python parse reaches: the C decoder's verdict
            return json.JSONDecoder().decode(s)


def _load_json(path: str) -> dict:
    """The document at `path`, its plain integer arrays as int64 arrays
    (`_TableDecoder`); ValueError when it cannot be read or decoded."""
    try:
        return json.loads(Path(path).read_text(), cls=_TableDecoder)
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


def _preset_int(spec: str, arg: str) -> int:
    """The integer argument `arg` of the preset `spec`."""
    try:
        return int(arg)
    except ValueError as exc:
        raise ValueError(f"bad preset {spec!r}: {exc}") from None


def _ring_preset(spec: str, name: str, arg: str, max_enum: int | None) -> FiniteRing | None:
    """The ring of a zn:N, fp:P or fpxfp:P preset, or None for another name."""
    if name not in ("zn", "fp", "fpxfp"):
        return None
    n = _preset_int(spec, arg)
    if name == "zn":
        return make_ring_zn(n, max_enum)
    field = make_field_fp(n, max_enum)
    return field if name == "fp" else make_product_ring(field, field, max_enum)


def _truss_from_spec(spec: str, max_enum: int | None):
    if spec.endswith(".json"):
        return FiniteTruss.from_json_dict(_load_json(spec))
    name, arg = _split_preset(spec)
    if name == "endo":
        return build_endo_truss(parse_group_spec(arg), max_enum)
    ring = _ring_preset(spec, name, arg, max_enum)
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
        return coordinate_module(_ring_preset(spec, "fpxfp", arg, max_enum), 0, max_enum)
    ring = _ring_preset(spec, name, arg, max_enum)
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
    if result.witnesses is not None:
        witnesses = {
            "heap_isos": [HeapMorphism.from_values(left, right, row).to_json_dict() for row in result.witnesses]
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
        F = _affine_search(source, target, False, max_enum)
    except BoundExceeded as exc:
        return ValidationReport("inner", (Check("enumeration", None, False, value=f"skipped: {exc}"),), inputs)
    # the zero constant is always a morphism, so F has a row
    passed = laws_passed(*inner_structure_rows(source, target, F, max_enum))
    checks = [Check("truss_morphism_count", None, value=len(F))]
    checks += [Check(law, ok) for law, ok in sorted(passed.items())]
    return ValidationReport("inner", tuple(checks), inputs)


def cmd_module_bk(args, max_enum: int | None) -> ValidationReport:
    if args.second is None:
        name, arg = _split_preset(args.first)
        if name != "example-non-iso":
            raise ValueError("single-argument form expects example-non-iso:P")
        left, right = example_non_iso(_preset_int(args.first, arg), max_enum)
        inputs = {"example": args.first}
    else:
        left = _valid_module(args.first, max_enum)
        right = left if args.second == args.first else _valid_module(args.second, max_enum)
        inputs = {"left": args.first, "right": args.second}
    eq = find_module_equivalence(left, right, max_enum)
    g, h = left.group, right.group
    source, target = build_linear_endo_truss(left, max_enum), build_linear_endo_truss(right, max_enum)
    # the value table of the heap isomorphism (mu, 0); the brute force runs only without one
    values = matrix_images(_matrix_stack([] if eq is None else [eq.mu], g, h), g, h)
    roundtrip, count, phi = verify_correspondence(source, target, values, eq is None, max_enum)
    checks = [Check("equivalent_over_end_rings", None, value=eq is not None)]
    witnesses = None
    if eq is None:
        certified = count is not None
        checks.append(Check("truss_iso_exists", None, certified, value=count > 0 if certified else "unknown"))
        # the correspondence demands: no equivalence <=> no truss isomorphism
        checks.append(Check("consistent", count == 0 if certified else None, certified))
    else:
        # the pairs (u, v) must run over E_R(M)'s homs u, with v the hom of Phi(u, 0)
        rho = target.decode(phi[source.encode(np.arange(len(source.homs)), 0)])[0]
        us = _matrix_stack([u for u, _ in eq.rho_pairs], g, g)
        vs = _matrix_stack([v for _, v in eq.rho_pairs], h, h)
        roundtrip = roundtrip and np.array_equal(us, source.homs) and np.array_equal(vs, target.homs[rho])
        checks.append(Check("truss_iso_exists", True))
        checks.append(Check("roundtrip_recovers_equivalence", roundtrip))
        checks.append(Check("consistent", roundtrip))
        witnesses = {"mu": [list(row) for row in eq.mu.matrix], "truss_iso_mapping": phi.tolist()}
    if args.second is None:  # the example: isomorphic trusses, yet no module isomorphism
        homs = module_homs(left, right, max_enum)
        iso_exists = bool(_bijective_rows(matrix_images(homs, g, h), h.cardinality).any())
        checks.append(Check("module_hom_count", None, value=len(homs)))
        checks.append(Check("module_iso_exists", not iso_exists, value=iso_exists))
        checks.append(Check("groups_isomorphic", None, value=groups_isomorphic(g, h)))
    return ValidationReport("module-bk", tuple(checks), inputs, witnesses)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--max-enumeration",
        type=int,
        default=None,
        metavar="N",
        help="cap on enumerated objects per call (default 10^6)",
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
    p.add_argument("first", metavar="MODULE", help="module preset or .json; example-non-iso:P alone "
                   "checks F_p x 0 against 0 x F_p over F_p x F_p, and that no module map between them is bijective")
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
    handlers = {
        "validate": cmd_validate,
        "bk": cmd_bk,
        "inner": cmd_inner,
        "module-bk": cmd_module_bk,
    }
    start = time.perf_counter()
    try:
        report = handlers[args.command](args, args.max_enumeration)
    except BoundExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # an allocation the object caps admitted but memory could not hold
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 3
    except (ValueError, NotAnIsomorphism) as exc:  # malformed input, or a violated theorem
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, NotAnIsomorphism) else 2
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
