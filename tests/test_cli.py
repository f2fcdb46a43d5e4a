import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trusskit.baer_kaplansky
from trusskit import build_endo_truss
from trusskit.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_truss_preset(capsys):
    code, out, _ = run(capsys, "validate", "--truss", "endo:2")
    assert code == 0
    assert "[PASS]" in out and "[FAIL]" not in out


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
    # bk builds no n x n table, here for n = 729
    built = []

    def recording(g, max_enum=None):
        built.append(build_endo_truss(g, max_enum))
        return built[-1]

    monkeypatch.setattr(trusskit.baer_kaplansky, "build_endo_truss", recording)
    code, out, _ = run(capsys, "bk", "3,3", "3,3", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["heap_iso_count"] == 432 and data["consistent"] is True
    assert len(built) == 2 and all("_retract_cache" not in t.__dict__ for t in built)


def test_bk_non_isomorphic_pair_is_not_refused(capsys):
    # 2,2,2 and 2,4 are not isomorphic: no conjugation, no n x n tables, exit 0
    code, out, _ = run(capsys, "bk", "2,2,2", "2,4", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["groups_isomorphic"] is False and data["consistent"] is True


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
