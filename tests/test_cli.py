import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trusskit.baer_kaplansky
import trusskit.cli
import trusskit.endo
from trusskit import EndoTruss, HeapMorphism, build_endo_truss
from trusskit.cli import main
from trusskit.groups import GroupHom


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_truss_preset(capsys):
    code, out, _ = run(capsys, "validate", "--truss", "endo:2")
    assert code == 0
    assert "[PASS]" in out and "[FAIL]" not in out


def test_validate_trivial_endomorphism_truss(capsys):
    # E(1) has one element, and its generator chain no generator
    code, out, _ = run(capsys, "validate", "--truss", "endo:", "--json")
    assert code == 0
    results = json.loads(out)["results"]
    assert len(results) == 7 and all(r["passed"] is True and r["exhaustive"] is True for r in results)


def test_validate_heap_preset(capsys):
    code, out, _ = run(capsys, "validate", "--heap", "from-group:4")
    assert code == 0


def test_validate_module_preset(capsys):
    code, out, _ = run(capsys, "validate", "--module", "example-non-iso:2")
    assert code == 0


def test_validate_module_checks_the_ring(tmp_path, capsys):
    path = tmp_path / "bad_ring.json"
    module = {"orders": [], "action": [0, 0, 0]}
    path.write_text(json.dumps({"ring": {"orders": [3], "mult": [1] * 9, "one": [1]}, "module": module}))
    code, out, _ = run(capsys, "validate", "--module", str(path))
    assert code == 1
    assert [line.split()[1] for line in out.splitlines() if "[FAIL]" in line] == [
        "ring-left-distributivity", "ring-right-distributivity", "ring-unit"
    ]
    code, out, _ = run(capsys, "validate", "--module", "zn:4", "--json")
    assert code == 0
    assert [r["name"] for r in json.loads(out)["results"]] == [
        "ring-mult-associativity", "ring-left-distributivity", "ring-right-distributivity", "ring-unit",
        "unital", "action-associativity", "additive-in-module", "additive-in-ring",
    ]


def test_validate_module_validates_ring_and_action_once(capsys, monkeypatch):
    # the preset's construction validates its ring and action; the report
    # reuses those runs instead of validating both again
    calls = {"validate_ring": 0, "validate_module": 0}
    for name in calls:
        original = getattr(trusskit, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for modname, module in list(sys.modules.items()):
            if modname.split(".")[0] == "trusskit" and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    code, out, _ = run(capsys, "validate", "--module", "zn:32", "--json")
    assert code == 0 and json.loads(out)["results"]
    assert calls == {"validate_ring": 1, "validate_module": 1}


def test_validate_rejects_unknown_preset(capsys):
    code, _, err = run(capsys, "validate", "--heap", "mystery:4")
    assert code == 2
    assert "unknown heap preset" in err


def test_bk_json_schema(capsys):
    code, out, _ = run(capsys, "bk", "2", "2", "--brute-force", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["truss_iso_count"] == 2
    assert data["heap_iso_count"] == 2
    assert data["consistent"] is True
    assert set(data) == {
        "left", "right", "heap_iso_count", "truss_iso_count",
        "theta_upsilon_roundtrip", "upsilon_injective", "groups_isomorphic", "consistent",
    }


def test_bk_negative_pair(capsys):
    code, out, _ = run(capsys, "bk", "4", "2,2")
    assert code == 0
    assert "[FAIL]" not in out
    assert "groups_isomorphic = False" in out


def test_bk_not_enumerated(capsys):
    code, out, _ = run(capsys, "bk", "3", "3", "--json")
    data = json.loads(out)
    assert code == 0
    assert data["truss_iso_count"] == "not_enumerated"
    assert data["heap_iso_count"] == 6


def test_bk_brute_force_z3(capsys):
    code, out, _ = run(capsys, "bk", "3", "3", "--brute-force", "--json")
    data = json.loads(out)
    assert code == 0
    assert data["truss_iso_count"] == 6


def test_bk_brute_force_beyond_nine_elements(capsys):
    # E(Z/2 x Z/2) has 64 elements: the search runs at every carrier size
    code, out, _ = run(capsys, "bk", "2,2", "2,2", "--brute-force", "--json")
    data = json.loads(out)
    assert code == 0
    assert data["heap_iso_count"] == 24
    assert data["truss_iso_count"] == 24
    assert data["consistent"] is True


def test_bk_brute_force_over_cap_is_not_enumerated(capsys):
    # the 64 x 64 tables fit under 10^4, the isomorphism search does not
    code, out, _ = run(capsys, "bk", "2,2", "2,2", "--brute-force", "--json",
                       "--max-enumeration", "10000")
    data = json.loads(out)
    assert code == 0
    assert data["truss_iso_count"] == "not_enumerated"
    assert data["heap_iso_count"] == 24
    assert data["consistent"] is True


def test_bk_json_deterministic(capsys):
    _, first, _ = run(capsys, "bk", "2", "2", "--json")
    _, second, _ = run(capsys, "bk", "2", "2", "--json")
    assert first == second


def test_module_bk_json_deterministic(capsys):
    _, first, _ = run(capsys, "module-bk", "example-non-iso:2", "--json")
    _, second, _ = run(capsys, "module-bk", "example-non-iso:2", "--json")
    assert first == second
    _, third, _ = run(capsys, "inner", "2", "2", "--json")
    _, fourth, _ = run(capsys, "inner", "2", "2", "--json")
    assert third == fourth


def test_bk_parse_error(capsys):
    code, _, err = run(capsys, "bk", "bogus", "2")
    assert code == 2
    assert "error" in err


def test_inner_small_pair(capsys):
    code, out, _ = run(capsys, "inner", "2", "2")
    assert code == 0
    assert "truss_morphism_count = 7" in out
    assert "[FAIL]" not in out


def test_inner_bound_skip(capsys):
    # a cap below the images the search tries skips, with a note
    code, out, _ = run(capsys, "inner", "3", "3", "--max-enumeration", "100")
    assert code == 0
    assert "skipped" in out
    code, out, _ = run(capsys, "inner", "3", "3")
    assert code == 0
    assert "truss_morphism_count = 13" in out


def test_module_bk_example(capsys):
    code, out, _ = run(capsys, "module-bk", "example-non-iso:2", "--json")
    assert code == 0
    data = json.loads(out)
    names = {r["name"]: r for r in data["results"]}
    assert names["consistent"]["passed"] is True
    assert data["witnesses"]["truss_iso_mapping"]


def test_module_bk_identity_pair(capsys):
    code, out, _ = run(capsys, "module-bk", "zn:4", "zn:4")
    assert code == 0
    assert "roundtrip_recovers_equivalence" in out


def test_module_bk_inequivalent_pair(capsys):
    code, out, _ = run(capsys, "module-bk", "zn:2", "fp:3-module")
    assert code == 0
    assert "equivalent_over_end_rings = False" in out
    assert "truss_iso_exists = False" in out


def _results(out):
    return {r["name"]: r for r in json.loads(out)["results"]}


def test_module_bk_equal_size_inequivalent_pair_is_searched(capsys):
    # Z/4 and F_2 x F_2 both give 16-element linear endomorphism trusses
    code, out, _ = run(capsys, "module-bk", "zn:4", "fpxfp:2", "--json")
    assert code == 0
    results = _results(out)
    assert results["equivalent_over_end_rings"]["value"] is False
    assert results["truss_iso_exists"]["value"] is False
    assert results["truss_iso_exists"]["exhaustive"] is True
    assert results["consistent"]["passed"] is True


def test_module_bk_over_cap_search_is_unknown(capsys):
    # the equivalence search fits under 255, the 16 x 16 tables of the
    # isomorphism search do not
    code, out, _ = run(capsys, "module-bk", "zn:4", "fpxfp:2", "--json",
                       "--max-enumeration", "255")
    assert code == 0
    results = _results(out)
    assert results["equivalent_over_end_rings"]["value"] is False
    assert results["truss_iso_exists"]["value"] == "unknown"
    assert results["truss_iso_exists"]["exhaustive"] is False
    assert results["consistent"]["passed"] is None
    assert results["consistent"]["exhaustive"] is False


def test_bound_exceeded_exit_code(capsys):
    code, _, err = run(capsys, "validate", "--truss", "endo:2",
                       "--max-enumeration", "10")
    assert code == 3
    assert "cap is 10" in err


def run_limited(*argv) -> subprocess.CompletedProcess:
    """The CLI in a child process with a 300 MB address space (and one
    BLAS thread, whose stacks would otherwise count against it)."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (300_000 * 1024,) * 2)

    src = str(Path(__file__).parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, "-m", "trusskit.cli", *argv],
        capture_output=True, text=True, env=env, preexec_fn=limit, timeout=120,
    )


def test_bk_over_the_carrier_cap_is_refused_before_enumerating():
    # Hom(Z/10^6, Z/10^6) passes the cap and E(Z/10^6)'s 10^12 elements do
    # not: exit 3 in a 300 MB address space, before Hom is enumerated
    done = run_limited("bk", "1000000", "2")
    assert done.returncode == 3, done.stderr
    assert [line[:6] for line in done.stderr.splitlines()] == ["error:"]
    assert "carrier of E(Z/1000000)" in done.stderr


def test_an_allocation_over_the_address_space_exits_3():
    # the object caps admit the 1 GiB (512, 512, 512) heap table of E(Z/2 x
    # Z/2 x Z/2)'s hom factor at this cap, but 300 MB cannot hold it: exit
    # 3 with one error line naming the array, not exit 1 with a traceback
    done = run_limited("validate", "--truss", "endo:2,2,2", "--max-enumeration", "1000000000")
    assert (done.returncode, done.stdout) == (3, ""), done.stderr
    assert [line[:6] for line in done.stderr.splitlines()] == ["error:"]
    assert "out of memory: Unable to allocate" in done.stderr and "(512, 512, 512)" in done.stderr


def test_ring_laws_fit_a_small_address_space():
    # the ring and module laws are certified on generators, not on n^3
    # arrays: Z/1000 reaches the n^3 heap-table guard (exit 3) instead of
    # asking for 7.45 GiB, and the module Z/300 passes every law
    done = run_limited("validate", "--truss", "zn:1000")
    assert (done.returncode, done.stdout) == (3, ""), done.stderr
    assert [line[:6] for line in done.stderr.splitlines()] == ["error:"]
    assert "heap table of Z/1000 would enumerate 1000000000 objects" in done.stderr
    done = run_limited("validate", "--module", "zn:300", "--json")
    assert done.returncode == 0, done.stderr
    results = json.loads(done.stdout)["results"]
    assert len(results) == 8 and all(r["passed"] is True and r["exhaustive"] is True for r in results)


def test_endomorphism_truss_laws_fit_a_small_address_space():
    # E(Z/3 x Z/3) has 729 elements: its laws are certified on its factored
    # tables and generator chain, so a cap that admits n^3 asks for no n^3
    # array. E((Z/2)^3) has 4096 elements; the default cap refuses the heap
    # tables of its factors.
    done = run_limited("validate", "--truss", "endo:3,3", "--max-enumeration", "1000000000", "--json")
    assert done.returncode == 0, done.stderr
    results = json.loads(done.stdout)["results"]
    assert len(results) == 7 and all(r["passed"] is True and r["exhaustive"] is True for r in results)
    done = run_limited("validate", "--truss", "endo:2,2,2")
    assert (done.returncode, done.stdout) == (3, ""), done.stderr
    assert [line[:6] for line in done.stderr.splitlines()] == ["error:"]


def test_e_z64_laws_hold_no_n_by_n_table():
    # E(Z/64) has 4096 elements: a block of rows at a time, its laws need no
    # 128 MiB n x n table, which a 300 MB address space could not hold twice
    done = run_limited("validate", "--truss", "endo:64", "--max-enumeration", "20000000", "--json")
    assert done.returncode == 0, done.stderr
    results = json.loads(done.stdout)["results"]
    assert len(results) == 7 and all(r["passed"] is True and r["exhaustive"] is True for r in results)


def test_bk_heap_iso_tables_are_refused_in_a_small_address_space():
    # bk builds no table of all 49152 heap isomorphisms of Z/2 x Z/2 x Z/16;
    # End(Z/2 x Z/2 x Z/16) has 4096 homs, whose (4096, 4096) factored tables
    # are refused before they are built
    done = run_limited("bk", "2,2,16", "2,2,16")
    assert (done.returncode, done.stdout) == (3, ""), done.stderr
    assert done.stderr == (
        "error: factored tables of E(Z/2 x Z/2 x Z/16) "
        "would enumerate 16777216 objects; cap is 1000000 (raise max_enum to override)\n"
    )


def _contract_docs():
    """(flag, document, path to a JSON list of integers in it) for a heap,
    a truss and a module file that pass every law."""
    from trusskit import heap_from_group, make_group, make_ring_zn, module_zn, ring_as_truss

    heap = heap_from_group(make_group([2])).to_json_dict()
    truss = ring_as_truss(make_ring_zn(2)).to_json_dict()
    module = module_zn(2).to_json_dict()
    yield "--heap", heap, ("ternary",)
    for key in ("ternary", "mult"):
        yield "--truss", truss, (key,)
    for path in (("ring", "orders"), ("ring", "mult"), ("ring", "one"), ("module", "orders"), ("module", "action")):
        yield "--module", module, path


_CONTRACT = list(_contract_docs())
_NOT_INTS = [True, False, 1.0, 0.5, "1", None, [0], [], 2**63, -(2**63) - 1, 10**40]


@pytest.mark.parametrize("flag,doc,path", _CONTRACT, ids=["/".join((f, *p)) for f, _, p in _CONTRACT])
def test_json_table_entries_that_are_not_int64_exit_2(flag, doc, path, tmp_path, capsys):
    file = tmp_path / "doc.json"
    file.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", flag, str(file), "--json")
    assert code == 0 and json.loads(out)
    for value in _NOT_INTS:
        spoiled = json.loads(json.dumps(doc))
        entries = spoiled
        for key in path:
            entries = entries[key]
        entries[0] = value
        file.write_text(json.dumps(spoiled))
        code, out, err = run(capsys, "validate", flag, str(file), "--json")
        assert (code, out) == (2, ""), (value, err)
        assert err.startswith("error: ") and err.count("\n") == 1, (value, err)


def test_bk_and_inner_build_no_hom_or_heap_morphism_objects(capsys, monkeypatch):
    # Hom(G, H) and the heap isomorphisms stay arrays: bk 2,4 2,4 has 64
    # heap isomorphisms, too many to print as witnesses; bk 2 2 prints its 2
    # in the human form
    built = []
    for cls in (GroupHom, HeapMorphism):
        real = cls.__post_init__
        monkeypatch.setattr(cls, "__post_init__", lambda self, real=real: (built.append(self), real(self))[1])
    for argv in (["bk", "2,4", "2,4", "--json"], ["inner", "2", "3", "--json"]):
        code, out, _ = run(capsys, *argv)
        assert code == 0 and json.loads(out)
    assert built == []
    code, out, _ = run(capsys, "bk", "2", "2")
    assert code == 0 and "witness heap_isos" in out
    assert {type(x) for x in built} == {GroupHom, HeapMorphism}


def test_env_var_bound(capsys, monkeypatch):
    monkeypatch.setenv("TRUSSKIT_MAX_ENUM", "10")
    code, _, err = run(capsys, "validate", "--truss", "endo:2")
    assert code == 3
    monkeypatch.setenv("TRUSSKIT_MAX_ENUM", "junk")
    code, _, err = run(capsys, "validate", "--truss", "endo:2")
    assert code == 2


def test_flag_overrides_env(capsys, monkeypatch):
    monkeypatch.setenv("TRUSSKIT_MAX_ENUM", "10")
    code, _, _ = run(capsys, "validate", "--truss", "endo:2",
                     "--max-enumeration", "1000000")
    assert code == 0


def test_validate_truss_from_json_file(tmp_path, capsys):
    from trusskit import make_ring_zn, ring_as_truss

    path = tmp_path / "truss.json"
    path.write_text(json.dumps(ring_as_truss(make_ring_zn(3)).to_json_dict()))
    code, out, _ = run(capsys, "validate", "--truss", str(path))
    assert code == 0


def test_module_bk_accepts_json_files(tmp_path, capsys):
    from trusskit import module_zn

    path = tmp_path / "m.json"
    path.write_text(json.dumps(module_zn(4).to_json_dict()))
    code, out, _ = run(capsys, "module-bk", str(path), "zn:4")
    assert code == 0
    assert "roundtrip_recovers_equivalence" in out


def test_validate_detects_broken_table_file(tmp_path, capsys):
    from trusskit import make_ring_zn, ring_as_truss

    data = ring_as_truss(make_ring_zn(3)).to_json_dict()
    data["mult"][4] = (data["mult"][4] + 1) % 3
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "validate", "--truss", str(path))
    assert code == 1
    assert "[FAIL]" in out


class _Conjugated(Exception):
    pass


@pytest.mark.parametrize(
    "left,right,cap,n",
    [("2,2", "2,2", "1000", 64), ("4,4", "4,4", None, 4096), ("2,2,2", "2,2,2", None, 4096)],
)
def test_bk_refuses_over_cap_tables_before_conjugating(capsys, monkeypatch, left, right, cap, n):
    # E(G) has n elements: a cap of n - 1 refuses its carrier before any
    # conjugation, while a cap below n * n (the size of the multiplication
    # table bk no longer builds) reaches the conjugation step
    def conjugation(*args, **kwargs):
        raise _Conjugated

    monkeypatch.setattr(trusskit.baer_kaplansky, "conjugate_rows", conjugation)
    code, out, err = run(capsys, "bk", left, right, "--json", "--max-enumeration", str(n - 1))
    assert code == 3 and out == ""
    name = "Z/" + " x Z/".join(left.split(","))
    assert err == (
        f"error: carrier of E({name}) would enumerate {n} objects; cap is {n - 1} "
        "(raise max_enum to override)\n"
    )
    assert n * n > int(cap or 1000000)
    with pytest.raises(_Conjugated):
        main(["bk", left, right, "--json"] + ([] if cap is None else ["--max-enumeration", cap]))


def test_bk_certifies_preservation_without_retract_tables(capsys, monkeypatch):
    # every extraction checks preservation on the retract's generators, so
    # bk keeps no n x n table, here for n = 729
    built = []

    def recording(g, max_enum=None):
        built.append(build_endo_truss(g, max_enum))
        return built[-1]

    monkeypatch.setattr(trusskit.baer_kaplansky, "build_endo_truss", recording)
    code, out, _ = run(capsys, "bk", "3,3", "3,3", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["heap_iso_count"] == 432 and data["consistent"] is True
    # one E(3,3) serves as both source and target
    assert len(built) == 1

    def arrays(value):
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, tuple):
            for item in value:
                yield from arrays(item)

    n = built[0].size
    kept = [a.size for value in vars(built[0]).values() for a in arrays(value)]
    assert kept and max(kept) < n * n


@pytest.mark.parametrize(
    "argv, trusses",
    [(["bk", "2", "2", "--brute-force"], 1), (["inner", "2", "2"], 1), (["bk", "6", "2,3"], 2), (["inner", "2", "3"], 2)],
)
def test_one_endomorphism_truss_per_named_group(argv, trusses, capsys, monkeypatch):
    # E(G) is built once when both sides name the same group (bk 3,3 3,3 is
    # counted above); 6 and 2,3 are isomorphic but not the same group
    built = []
    real = EndoTruss.__post_init__
    monkeypatch.setattr(EndoTruss, "__post_init__", lambda self: (built.append(self), real(self))[1])
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0 and json.loads(out)
    assert len(built) == trusses


def test_bk_non_isomorphic_pair_is_not_refused(capsys):
    # 2,2,2 and 2,4 are not isomorphic: no conjugation, no n x n tables, exit 0
    code, out, _ = run(capsys, "bk", "2,2,2", "2,4", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["groups_isomorphic"] is False and data["consistent"] is True


def _bk_document(left: str, right: str, count: str) -> str:
    """The bytes `bk LEFT RIGHT --json` prints for a non-isomorphic pair."""
    def orders(spec):
        return ",\n".join(f"      {order}" for order in spec.split(","))

    return f"""{{
  "left": {{
    "orders": [
{orders(left)}
    ]
  }},
  "right": {{
    "orders": [
{orders(right)}
    ]
  }},
  "heap_iso_count": 0,
  "truss_iso_count": {count},
  "theta_upsilon_roundtrip": true,
  "upsilon_injective": true,
  "groups_isomorphic": false,
  "consistent": true
}}
"""


@pytest.mark.parametrize("left,right,count", [
    ("4", "2,2", "0"), ("8", "2,4", "0"), ("9", "3,3", "0"), ("8", "2,2", '"not_enumerated"'),
])
def test_bk_json_bytes_of_non_isomorphic_pairs(left, right, count, capsys):
    code, out, err = run(capsys, "bk", left, right, "--json")
    assert (code, out, err) == (0, _bk_document(left, right, count), "")


class _Built(Exception):
    pass


def test_bk_builds_trusses_only_for_a_round_trip_or_a_search(capsys, monkeypatch):
    # a non-isomorphic pair has no heap isomorphism to round-trip, and
    # |E(G)| != |E(H)| rules out a truss isomorphism: counting decides it.
    # Only --brute-force on equal sizes (|E(Z/8)| = |E(Z/2 x Z/2)| = 64)
    # builds both trusses, to search them
    def built(*args, **kwargs):
        raise _Built

    with monkeypatch.context() as patched:
        patched.setattr(trusskit.baer_kaplansky, "build_endo_truss", built)
        patched.setattr(trusskit.endo, "hom_enumerate", built)
        for argv in (["4", "2,2"], ["2,2,2", "2,4"], ["8", "2,2"], ["2", "3", "--brute-force"]):
            code, out, _ = run(capsys, "bk", *argv, "--json")
            assert code == 0 and json.loads(out)["consistent"] is True, argv
        with pytest.raises(_Built):
            main(["bk", "8", "2,2", "--brute-force", "--json"])
    code, out, _ = run(capsys, "bk", "8", "2,2", "--brute-force", "--json")
    data = json.loads(out)
    assert code == 0 and (data["truss_iso_count"], data["consistent"]) == (0, True)


def test_bk_decides_unequal_trusses_it_could_not_hold():
    # E(Z/2^5) has 2^30 elements, which the cap admits, on a 6.25 GiB stack
    # of 2^25 homs that 300 MB cannot hold; E(Z/32) has 1024: no truss is built
    done = run_limited("bk", "2,2,2,2,2", "32", "--max-enumeration", "2000000000", "--json")
    assert done.returncode == 0, done.stderr
    data = json.loads(done.stdout)
    assert (data["truss_iso_count"], data["consistent"]) == (0, True)


# garbage JSON for the validate table loaders: arbitrary values, and
# well-shaped tables of random content, whole or with one field (at any
# depth) replaced by an arbitrary value
_leaf = st.none() | st.booleans() | st.integers(-3, 40) | st.integers() | st.floats(
    allow_nan=False, allow_infinity=False
) | st.text(max_size=3)
_KEYS = ["size", "ternary", "mult", "unit", "ring", "module", "orders", "action", "one"]
_any = st.recursive(
    _leaf,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=2), inner, max_size=5),
    max_leaves=12,
)


def _entries(count, bound):
    return st.lists(st.integers(0, bound - 1), min_size=count, max_size=count)


def _heap_doc(n):
    return st.fixed_dictionaries({"size": st.just(n), "ternary": _entries(n**3, n)})


def _truss_doc(n):
    return st.fixed_dictionaries({
        "size": st.just(n),
        "ternary": _entries(n**3, n),
        "mult": _entries(n**2, n),
        "unit": st.none() | st.integers(0, n - 1),
    })


def _module_doc(p, q):
    ring = st.fixed_dictionaries({"orders": st.just([p]), "mult": _entries(p * p, p), "one": _entries(1, p)})
    module = st.fixed_dictionaries({"orders": st.just([q]), "action": _entries(p * q, q)})
    return st.fixed_dictionaries({"ring": ring, "module": module})


def _spoiled(doc):
    def at(key):
        inner = _spoiled(doc[key]) if isinstance(doc[key], dict) else st.nothing()
        return (_any | inner).map(lambda value: {**doc, key: value})

    return st.sampled_from(sorted(doc)).flatmap(at)


def _garbage(shaped):
    return _any | shaped | shaped.flatmap(_spoiled)


_sizes = st.integers(1, 3)
_DOCS = {
    "--heap": _garbage(_sizes.flatmap(_heap_doc)),
    "--truss": _garbage(_sizes.flatmap(_truss_doc)),
    "--module": _garbage(st.tuples(_sizes, _sizes).flatmap(lambda pq: _module_doc(*pq))),
}


@pytest.mark.parametrize("flag", list(_DOCS))
def test_validate_garbage_json_exits_cleanly(flag):
    @settings(max_examples=150, deadline=None)
    @given(_DOCS[flag])
    def check(doc):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "doc.json"
            path.write_text(json.dumps(doc))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["validate", flag, str(path), "--json"])
        assert code in (0, 1, 2, 3), code
        if code == 2:
            assert err.getvalue().startswith("error: ")
        if code in (0, 1):
            results = json.loads(out.getvalue())["results"]
            assert any(r["passed"] is False for r in results) == (code == 1)

    check()


@pytest.mark.parametrize("flag", list(_DOCS))
def test_validate_deeply_nested_json_is_an_input_error(flag, tmp_path, capsys):
    # json.loads gives up on deep nesting with RecursionError: malformed
    # input (exit 2, one error line), not a violated theorem (exit 1)
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000)
    code, out, err = run(capsys, "validate", flag, str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


# a refused command prints one line, the same one whatever the guard's
# subject costs to format
@pytest.mark.parametrize("argv, message", [
    (["bk", "1000000", "2"], "carrier of E(Z/1000000) would enumerate 1000000000000 objects; cap is 1000000"),
    (["bk", "2,2,16", "2,2,16"], "factored tables of E(Z/2 x Z/2 x Z/16) would enumerate 16777216 objects; "
     "cap is 1000000"),
    (["validate", "--truss", "zn:1000"], "heap table of Z/1000 would enumerate 1000000000 objects; cap is 1000000"),
    (["bk", "2,2,4", "2,2,4"], "factored tables of E(Z/2 x Z/2 x Z/4) would enumerate 1048576 objects; "
     "cap is 1000000"),
    (["validate", "--truss", "endo:2,2,2"], "heap tables of the factors of E(Z/2 x Z/2 x Z/2) would enumerate "
     "134218240 objects; cap is 1000000"),
    (["validate", "--heap", "from-group:2,2", "--max-enumeration", "63"],
     "heap table of Z/2 x Z/2 would enumerate 64 objects; cap is 63"),
    # a non-isomorphic pair sizes both trusses, g's first, before deciding by counting
    (["bk", "2", "1001"], "carrier of E(Z/1001) would enumerate 1002001 objects; cap is 1000000"),
    (["bk", "1001", "1000000"], "carrier of E(Z/1001) would enumerate 1002001 objects; cap is 1000000"),
])
def test_refusal_messages(argv, message, capsys):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == f"error: {message} (raise max_enum to override)\n"


@pytest.mark.parametrize("argv, code, message", [
    (["module-bk", "zn:4"], 2, "single-argument form expects example-non-iso:P"),
    (["module-bk", "example-non-iso:4"], 2, "4 is not prime"),
    (["module-bk", "example-non-iso:2", "--max-enumeration", "3"], 3, None),
    (["validate", "--truss", "zn:abc"], 2, "bad preset 'zn:abc': invalid literal for int() with base 10: 'abc'"),
    (["validate", "--module", "fp:"], 2, "bad preset 'fp:': invalid literal for int() with base 10: ''"),
    (["module-bk", "example-non-iso:abc"], 2,
     "bad preset 'example-non-iso:abc': invalid literal for int() with base 10: 'abc'"),
])
def test_preset_refusals_print_one_error_line(argv, code, message, capsys):
    got, out, err = run(capsys, *argv)
    assert (got, out) == (code, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    if message is not None:
        assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv, code", [
    (["inner", "2,2", "2,2", "--json"], 0),
    (["validate", "--truss", "tests/data/endo_z2_truss_corrupt_mult.json"], 1),
])
def test_closed_stdout_keeps_the_findings_status(argv, code):
    # the reader of stdout is gone before the report is written (as in
    # `| head -1`): the status is still the findings' own, with no traceback
    read, write = os.pipe()
    os.close(read)
    root = Path(__file__).parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    try:
        done = subprocess.run([sys.executable, "-m", "trusskit.cli", *argv], stdout=write,
                              stderr=subprocess.PIPE, text=True, env=env, cwd=root, timeout=120)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (code, "")


def test_parse_errors_and_help_leave_later_calls_unchanged(capsys):
    first = run(capsys, "bk", "2", "2", "--json")
    assert first[0] == 0
    for argv in (["bk", "2", "2", "--brute-force", "--max-enumeration", "5", "--bogus"], ["bk"], ["--help"],
                 ["bk", "--help"], ["validate", "--heap", "from-group:2", "--truss", "zn:2"]):
        with pytest.raises(SystemExit):
            main(argv)
    assert run(capsys, "bk", "2", "2", "--brute-force", "--json")[0] == 0
    assert run(capsys, "bk", "2", "2", "--json") == first


def test_main_builds_its_parser_once(capsys, monkeypatch):
    calls = []
    real = trusskit.cli.build_parser
    monkeypatch.setattr(trusskit.cli, "build_parser", lambda: (calls.append(1), real())[1])
    trusskit.cli._parser.cache_clear()
    try:
        for argv in (["bk", "2", "2"], ["inner", "2", "2"], ["validate", "--truss", "endo:2"], ["bk", "x", "2"]):
            run(capsys, *argv)
        with pytest.raises(SystemExit):
            main(["--help"])
        assert len(calls) == 1
    finally:
        trusskit.cli._parser.cache_clear()


def test_importing_the_cli_builds_no_parser():
    src = str(Path(__file__).parent.parent / "src")
    done = subprocess.run(
        [sys.executable, "-c", "import trusskit.cli as c; print(c._parser.cache_info().currsize)"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120,
    )
    assert (done.returncode, done.stdout) == (0, "0\n"), done.stderr
