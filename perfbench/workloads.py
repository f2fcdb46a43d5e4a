"""The benchmark's workloads: job lists of trusskit CLI invocations, their
seeded inputs, and the checks that judge every answer.

A job is one argv for `trusskit.cli.main`. Every job asks for `--json` and
is judged from its exit code and JSON output alone, against answers the
benchmark knows without the code under test: recorded counts (re-derived by
`python3 perfbench/oracle.py`), the invariant-factor comparison in
`oracle.py`, and law evaluations on the tables the benchmark wrote itself.

Why each workload exists (the layers it stresses):

* bk: pure-Python conjugation and extraction, one HeapMorphism.compose per
  carrier element per heap isomorphism, so endo, groups and baer_kaplansky
  dominate and the heap/truss validators do almost nothing. It mixes pairs
  whose E(G) fits the dense preservation check (n <= 100) with pairs that skip
  it silently.
* validate: dense-table validation of heaps, trusses, rings and modules with
  no conjugation. The valid half checks presets exhaustively; the corrupted
  half loads seeded single-entry corruptions of the same tables from .json
  and stops at a counterexample.
* search: the |t|^|s| candidate filter behind `inner` and `bk --brute-force`,
  check_inner_structure, and the module equivalence search, which neither bk
  nor validate calls.
* tables: validate and search as one job list, the table-level work with no
  conjugation. It is the second workload of BENCHMARK.json: one long run of
  it is steadier on a noisy machine than two short ones.
* frontier: the targets out of reach today. Every job fails by design (the
  deadline, exit 3, a skipped or sampled finding), each in its own child
  process under an address-space limit, so it is the workload where turning a
  refusal into an exact answer shows, through failed_frac.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracle

# |H| * |Aut G| for isomorphic G, H; 0 otherwise. Keyed by the bk argument pair.
HEAP_ISO_COUNTS = {
    ("4", "2,2"): 0,
    ("2,2", "4"): 0,
    ("2,2", "2,2"): 24,
    ("8", "8"): 32,
    ("9", "9"): 54,
    ("12", "12"): 48,
    ("16", "16"): 128,
    ("2,4", "2,4"): 64,
    ("6", "2,3"): 12,
    ("8", "2,4"): 0,
    ("2,2,2", "2,4"): 0,
    ("9", "3,3"): 0,
    ("", ""): 1,
    ("2", "2"): 2,
    ("3", "3"): 6,
    ("2", "3"): 0,
    ("2,2,2", "2,2,2"): 1344,
    ("4,4", "4,4"): 1536,
}

# Truss morphisms E(Z/m) -> E(Z/n), keyed by the `inner` argument pair.
TRUSS_MORPHISM_COUNTS = {
    ("2", "3"): 4,
    ("3", "2"): 3,
    ("2", "4"): 5,
    ("2", "5"): 6,
    ("2", "6"): 28,
    ("2", "8"): 9,
    ("2", "2"): 7,
    ("1", "2"): 3,
    ("3", "3"): 13,
}

# Whether two modules are equivalent over their endomorphism rings.
# "z2sq-over-f2" is Z/2 x Z/2 as a vector space over F_2, written as .json:
# its endomorphism ring has 16 elements against 4 for fpxfp:2 on the same group.
MODULE_EQUIVALENT = {
    ("zn:4", "zn:4"): True,
    ("zn:6", "zn:6"): True,
    ("zn:9", "zn:9"): True,
    ("fp:5", "fp:5"): True,
    ("zn:5", "fp:5"): True,
    ("fpxfp:2", "fpxfp:2"): True,
    ("fpxfp:3", "fpxfp:3"): True,
    ("zn:4", "zn:6"): False,
    ("zn:6", "fp:5"): False,
    ("fpxfp:2", "z2sq-over-f2"): False,
}

# The cap `inner 2 6` and `inner 2 8` need: 36^4 and 64^4 candidate maps.
BIG_ENUM = "100000000"


@dataclass
class Job:
    argv: list[str]
    check: Callable[[dict], str | None]  # the wrong-answer reason, or None
    exit_code: int = 0


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    isolated: bool = False  # each job in its own child process


# ---------------------------------------------------------------- judging


# Reasons that mean the answer itself was wrong or could not be checked;
# the other reasons are refusals (deadline, memory limit, exit 3, a skipped or
# sampled finding).
WRONG = ("wrong", "unchecked", "exception")


def judge(job: Job, rc: int, stdout: str) -> str | None:
    """None when the job's answer is right and complete, else the reason it
    failed. Refusals name what was refused; wrong answers start 'wrong'."""
    if rc == 3:
        return "exit 3 (cap refusal)"
    if rc != job.exit_code:
        return f"wrong exit code {rc}, expected {job.exit_code}"
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError:
        return "wrong: output is not JSON"
    for r in payload.get("results", ()):
        if r.get("exhaustive") is False:
            return f"not exhaustive: {r['name']} = {r['value']}"
    return job.check(payload)


def _results(payload) -> dict:
    return {r["name"]: r for r in payload.get("results", ())}


def _all_passed(payload) -> str | None:
    for r in payload.get("results", ()):
        if r["passed"] is False:
            return f"wrong: {r['name']} failed"
    return None


# ---------------------------------------------------------------- bk


def bk_job(left: str, right: str, brute_force: bool = False) -> Job:
    heap_isos = HEAP_ISO_COUNTS[left, right]
    iso = oracle.isomorphic(left, right)

    def check(p):
        if p.get("groups_isomorphic") is not iso:
            return f"wrong: groups_isomorphic {p.get('groups_isomorphic')}, expected {iso}"
        if p.get("heap_iso_count") != heap_isos:
            return f"wrong: heap_iso_count {p.get('heap_iso_count')}, expected {heap_isos}"
        if p.get("consistent") is not True or p.get("theta_upsilon_roundtrip") is not True:
            return "wrong: not consistent"
        if brute_force and p.get("truss_iso_count") != heap_isos:
            return f"wrong: truss_iso_count {p.get('truss_iso_count')}, expected {heap_isos}"
        return None

    argv = ["bk", left, right, "--json"] + (["--brute-force"] if brute_force else [])
    return Job(argv, check)


BK_PAIRS = [
    ("4", "2,2"),
    ("2,2", "4"),
    ("2,2", "2,2"),
    ("8", "8"),
    ("9", "9"),
    ("12", "12"),
    ("16", "16"),
    ("2,4", "2,4"),
    ("6", "2,3"),
    ("8", "2,4"),
    ("2,2,2", "2,4"),
    ("9", "3,3"),
]


# ---------------------------------------------------------------- validate


def valid_job(flag: str, spec: str) -> Job:
    return Job(["validate", flag, spec, "--json"], _all_passed)


_COUNTEREXAMPLE = re.compile(r"counterexample \(([-\d, ]*)\)")


def corrupted_job(flag: str, path: str, tables: dict, violated) -> Job:
    """A table with one entry changed: the CLI must report a failed law, and
    each reported counterexample must violate its law on the written table."""

    def check(p):
        failed = [r for r in p.get("results", ()) if r["passed"] is False]
        if not failed:
            return "wrong: corrupted table reported valid"
        for r in failed:
            m = _COUNTEREXAMPLE.fullmatch(str(r["value"]))
            if m is None:
                return f"wrong: {r['name']} failed without a counterexample"
            ce = tuple(int(x) for x in m.group(1).split(",") if x.strip())
            if not violated(tables, r["name"], ce):
                return f"wrong: {ce} does not violate {r['name']}"
        return None

    return Job(["validate", flag, path, "--json"], check, exit_code=1)


# Presets with at most 32 carrier elements: above 32, heap associativity is
# only sampled, which counts as a failed job (those cases sit in frontier).
HEAP_GROUPS = ["32", "2,16", "4,8", "2,2,8", "2,2,2,2,2", "27", "3,9", "25", "30", "31"]
TRUSS_PRESETS = ["zn:32", "zn:30", "zn:27", "fp:31", "fpxfp:5", "fpxfp:3", "endo:2", "endo:3", "endo:4", "endo:5"]
MODULE_PRESETS = ["zn:32", "zn:12", "fp:31", "fpxfp:5", "fpxfp:3", "example-non-iso:7", "example-non-iso:5"]


def truss_tables(spec: str) -> dict:
    name, arg = spec.split(":")
    n = int(arg)
    if name in ("zn", "fp"):
        mult, one = oracle.zn_ring(n)
        return {"ternary": oracle.heap_table((n,)), "mult": mult, "unit": one}
    if name == "fpxfp":
        mult, one = oracle.product_ring(n)
        return {"ternary": oracle.heap_table((n, n)), "mult": mult, "unit": int(one)}
    tern, mult, unit = oracle.cyclic_endo_truss(n)
    return {"ternary": tern, "mult": mult, "unit": unit}


def module_tables(spec: str) -> tuple[dict, dict]:
    """(tables for the law evaluator, trusskit module JSON)."""
    name, _, arg = spec.partition(":")
    if name in ("zn", "fp"):
        p = int(arg)
        ring_orders, (mul_r, one) = (p,), oracle.zn_ring(p)
        group_orders, action = (p,), mul_r
    elif name == "fpxfp":
        p = int(arg)
        ring_orders, (mul_r, one) = (p, p), oracle.product_ring(p)
        group_orders, action = (p, p), mul_r
    elif name == "example-non-iso":
        p = int(arg)
        ring_orders, (mul_r, one) = (p, p), oracle.product_ring(p)
        group_orders = (p,)
        r = oracle.elements(ring_orders)
        action = (r[:, 0:1] * np.arange(p)[None, :]) % p
    elif name == "z2sq-over-f2":  # F_2 acting on Z/2 x Z/2 by scalars
        ring_orders, (mul_r, one) = (2,), oracle.zn_ring(2)
        group_orders = (2, 2)
        action = np.array([[0, 0, 0, 0], [0, 1, 2, 3]])
    else:
        raise ValueError(f"unknown module {spec!r}")
    tables = {
        "action": np.asarray(action, dtype=np.int64),
        "add_m": oracle.add_table(group_orders),
        "add_r": oracle.add_table(ring_orders),
        "mul_r": mul_r,
        "one": int(one),
    }
    one_coords = [int(x) for x in oracle.elements(ring_orders)[int(one)]]
    doc = {
        "ring": {"orders": list(ring_orders), "mult": mul_r.ravel().tolist(), "one": one_coords},
        "module": {"orders": list(group_orders), "action": tables["action"].ravel().tolist()},
    }
    return tables, doc


def _corrupt(rng: random.Random, kind: str, tables: dict, keys: list[str]) -> dict:
    """A copy of `tables` with one seeded entry of one of `keys` changed, such
    that some law provably fails."""
    for _ in range(1000):
        key = rng.choice(keys)
        table = tables[key].copy()
        flat = table.reshape(-1)
        pos = rng.randrange(flat.size)
        bound = tables["ternary"].shape[0] if key != "action" else tables["add_m"].shape[0]
        flat[pos] = (int(flat[pos]) + rng.randrange(1, bound)) % bound
        out = dict(tables, **{key: table})
        cell = np.unravel_index(pos, table.shape) if key == "ternary" else None
        if oracle.some_law_fails(kind, out, cell):
            return out
    raise RuntimeError(f"no single-entry corruption of this {kind} breaks a law")


def _truss_doc(t: dict) -> dict:
    n = t["ternary"].shape[0]
    return {"size": n, "ternary": t["ternary"].ravel().tolist(), "mult": t["mult"].ravel().tolist(), "unit": t["unit"]}


# ---------------------------------------------------------------- search


def inner_job(left: str, right: str, max_enum: str | None = None) -> Job:
    count = TRUSS_MORPHISM_COUNTS.get((left, right))

    def check(p):
        got = _results(p).get("truss_morphism_count", {}).get("value")
        if count is None:
            return "unchecked: no recorded truss morphism count"
        if got != count:
            return f"wrong: truss_morphism_count {got}, expected {count}"
        return _all_passed(p)

    cap = [] if max_enum is None else ["--max-enumeration", max_enum]
    return Job(["inner", left, right, "--json"] + cap, check)


def module_pair_job(left: str, right: str, right_arg: str | None = None) -> Job:
    equivalent = MODULE_EQUIVALENT[left, right]

    def check(p):
        res = _results(p)
        got = res.get("equivalent_over_end_rings", {}).get("value")
        if got is not equivalent:
            return f"wrong: equivalent_over_end_rings {got}, expected {equivalent}"
        if res.get("consistent", {}).get("passed") is not True:
            return "wrong: not consistent"
        return _all_passed(p)

    return Job(["module-bk", left, right_arg or right, "--json"], check)


def example_job(p: int) -> Job:
    def check(payload):
        res = _results(payload)
        if res.get("module_hom_count", {}).get("value") != 1:
            return "wrong: the coordinate ideals admit only the zero module map"
        if res.get("module_iso_exists", {}).get("value") is not False:
            return "wrong: module_iso_exists"
        if res.get("groups_isomorphic", {}).get("value") is not True:
            return "wrong: groups_isomorphic"
        if res.get("consistent", {}).get("passed") is not True:
            return "wrong: not consistent"
        return _all_passed(payload)

    return Job(["module-bk", f"example-non-iso:{p}", "--json"], check)


# ---------------------------------------------------------------- building


def build(name: str, seed: int, workdir: Path) -> Workload:
    """The workload's jobs in a seeded order; corrupted tables and module
    files are written under `workdir`."""
    rng = random.Random(seed)
    if name == "bk":
        jobs = [bk_job(left, right) for left, right in BK_PAIRS]
    elif name == "validate":
        jobs = _validate_jobs(rng, workdir)
    elif name == "search":
        jobs = _search_jobs(workdir)
    elif name == "tables":
        jobs = _validate_jobs(rng, workdir) + _search_jobs(workdir)
    elif name == "frontier":
        jobs = [
            bk_job("2,2,2", "2,2,2"),
            bk_job("4,4", "4,4"),
            valid_job("--truss", "endo:3,3"),
            valid_job("--truss", "endo:9"),
            valid_job("--heap", "from-group:2,4,8"),
            inner_job("2,2", "2,2"),
            inner_job("3", "3"),
            example_job(11),
        ]
    else:
        raise ValueError(f"unknown workload {name!r}")
    rng.shuffle(jobs)
    return Workload(name, jobs, isolated=name == "frontier")


def _write(workdir: Path, name: str, doc: dict) -> str:
    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / name
    path.write_text(json.dumps(doc))
    return str(path)


def _validate_jobs(rng: random.Random, workdir: Path) -> list[Job]:
    jobs = [valid_job("--heap", f"from-group:{g}") for g in HEAP_GROUPS]
    jobs += [valid_job("--truss", spec) for spec in TRUSS_PRESETS]
    jobs += [valid_job("--module", spec) for spec in MODULE_PRESETS]
    for g in HEAP_GROUPS:
        bad = _corrupt(rng, "heap", {"ternary": oracle.heap_table(oracle.parse_orders(g))}, ["ternary"])
        doc = {"size": bad["ternary"].shape[0], "ternary": bad["ternary"].ravel().tolist()}
        path = _write(workdir, f"heap-{g}.json", doc)
        jobs.append(corrupted_job("--heap", path, bad, oracle.heap_violated))
    for spec in TRUSS_PRESETS:
        bad = _corrupt(rng, "truss", truss_tables(spec), ["ternary", "mult"])
        path = _write(workdir, f"truss-{spec.replace(':', '-')}.json", _truss_doc(bad))
        jobs.append(corrupted_job("--truss", path, bad, oracle.truss_violated))
    for spec in MODULE_PRESETS:
        tables, doc = module_tables(spec)
        bad = _corrupt(rng, "module", tables, ["action"])
        doc["module"]["action"] = bad["action"].ravel().tolist()
        path = _write(workdir, f"module-{spec.replace(':', '-')}.json", doc)
        jobs.append(corrupted_job("--module", path, bad, oracle.module_violated))
    return jobs


def _search_jobs(workdir: Path) -> list[Job]:
    jobs = [
        inner_job(left, right, BIG_ENUM if (left, right) in (("2", "6"), ("2", "8")) else None)
        for left, right in TRUSS_MORPHISM_COUNTS
        if (left, right) != ("3", "3")
    ]
    jobs += [bk_job(left, right, brute_force=True) for left, right in [("", ""), ("2", "2"), ("3", "3"), ("2", "3")]]
    _, doc = module_tables("z2sq-over-f2")
    z2sq = _write(workdir, "z2sq-over-f2.json", doc)
    for left, right in MODULE_EQUIVALENT:
        jobs.append(module_pair_job(left, right, z2sq if right == "z2sq-over-f2" else None))
    jobs += [example_job(p) for p in (2, 3, 5, 7)]
    return jobs
