"""The module correspondence on tables: `module_homs`, `validate_induced_action`
and both directions of the truss correspondence, checked against the
element-by-element oracles in conftest, plus the table-entry checks shared by
every carrier type and the `module-bk` input contract."""

import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    as_objects,
    conjugate_homs_by_composition,
    equivalence_is_valid_by_objects,
    hom_enumerate_by_loop,
    identity_hom,
    induced_action_report_by_loop,
    invert_hom,
    last_generator_breaker,
    module_by_callable,
    module_homs_by_loop,
    module_law_masks,
    module_report_dense,
    module_table,
    ring_by_callable,
    truss_iso_by_element,
)

import trusskit.cli
import trusskit.modules
from trusskit import (
    BoundExceeded,
    FiniteHeap,
    FiniteTruss,
    InvalidEquivalence,
    TrussMorphism,
    ModuleEquivalence,
    NotAnIsomorphism,
    RModule,
    build_linear_endo_truss,
    coordinate_module,
    end_ring,
    example_non_iso,
    find_module_equivalence,
    heap_from_group,
    make_field_fp,
    make_group,
    make_product_ring,
    make_ring_zn,
    module_zn,
    regular_module,
    ring_as_truss,
    validate_induced_action,
    validate_module,
)
from trusskit.baer_kaplansky import conjugate_homs, conjugate_rows, verify_correspondence
from trusskit.cli import main
from trusskit.endo import _bijective_rows, _linear_isos
from trusskit.groups import (
    GroupHom,
    compose_homs,
    groups_isomorphic,
    hom_enumerate,
    invariant_factors,
    matrix_images,
    np_add_table,
)
from trusskit.modules import (
    equivalence_from_truss_iso,
    equivalence_is_valid,
    module_homs,
    truss_iso_from_equivalence,
)
from trusskit.rings import FiniteRing, validate_ring
from trusskit.trusses import dense_tables

DATA = Path(__file__).parent / "data"

R22 = make_product_ring(make_field_fp(2), make_field_fp(2))
R33 = make_product_ring(make_field_fp(3), make_field_fp(3))


def _scalar_module(n: int, orders: list[int]) -> RModule:
    """Z/n acting on a product of cyclic groups by reducing scalars."""
    return module_by_callable(
        make_ring_zn(n), make_group(orders),
        lambda r, x: tuple((r[0] * c) % k for c, k in zip(x, orders)),
    )


MODULES = {
    "zn:4": module_zn(4),
    "z2-over-z4": _scalar_module(4, [2]),
    "zn:2": module_zn(2),
    "z2sq-over-f2": _scalar_module(2, [2, 2]),
    "fpxfp:2": regular_module(R22),
    "fx0:2": coordinate_module(R22, 0),
    "0xf:2": coordinate_module(R22, 1),
    "fx0:3": coordinate_module(R33, 0),
    "0xf:3": coordinate_module(R33, 1),
    "zn:6": module_zn(6),
    "z3-over-z6": _scalar_module(6, [3]),
    "z2-over-z6": _scalar_module(6, [2]),
    "zn:5": module_zn(5),
    "fp:5": regular_module(make_field_fp(5)),
}

RING_SHARING_PAIRS = [
    (a, b) for a, b in itertools.product(MODULES, repeat=2) if MODULES[a].ring == MODULES[b].ring
]


def mutations(m: RModule):
    """Every module table with one action entry changed, unvalidated."""
    size = m.group.cardinality
    for pos, old in enumerate(m.action_table.ravel().tolist()):
        for new in range(size):
            if new != old:
                table = m.action_table.ravel().tolist()
                table[pos] = new
                yield RModule(m.ring, m.group, tuple(table))


def _matrices(homs):
    """The matrices of GroupHom objects as a nested list, like a stack's `tolist()`."""
    return [[list(row) for row in f.matrix] for f in homs]


@pytest.mark.parametrize("left,right", RING_SHARING_PAIRS, ids=[f"{a}|{b}" for a, b in RING_SHARING_PAIRS])
def test_module_homs_agree_with_loop_on_ring_sharing_pairs(left, right):
    m, n = MODULES[left], MODULES[right]
    assert module_homs(m, n).tolist() == _matrices(module_homs_by_loop(m, n))


@pytest.mark.parametrize("name", ["zn:4", "z2-over-z4", "z2sq-over-f2", "fpxfp:2", "fx0:2"])
def test_module_homs_agree_with_loop_on_action_mutations(name):
    m = MODULES[name]
    cases = 0
    for bad in mutations(m):
        for s, t in ((bad, bad), (bad, m), (m, bad)):
            assert module_homs(s, t).tolist() == _matrices(module_homs_by_loop(s, t))
            cases += 1
    assert cases == 3 * m.action_table.size * (m.group.cardinality - 1)


@pytest.mark.parametrize("left,right", [("fpxfp:2", "fpxfp:2"), ("zn:6", "z3-over-z6"), ("fx0:3", "0xf:3")])
def test_module_homs_agree_with_loop_one_hom_per_chunk(monkeypatch, left, right):
    monkeypatch.setattr(trusskit.modules, "_HOM_CHUNK", 1)
    m, n = MODULES[left], MODULES[right]
    assert module_homs(m, n).tolist() == _matrices(module_homs_by_loop(m, n))


def _ring_additive_action(ring: FiniteRing, k: int, value) -> RModule:
    """The unvalidated action r.x = r * value(x) of the ring Z/n on Z/k, k
    dividing n: additive in the ring element whatever `value` is, so
    `module_homs` compares only the ring's generator rows against it."""
    return RModule(ring, make_group([k]), [(r * value(x)) % k for r in range(ring.size) for x in range(k)])


# (n, k, value, orders): an action r.x = r * value(x) of Z/n on Z/k that
# breaks another law (the zero action is not unital; x -> x^2 is neither
# unital nor additive in x), checked against Z/n acting on `orders` by
# scalars and on itself, over the same ring
RING_ADDITIVE_ONLY = {
    "zero-z2-on-z2": (2, 2, lambda x: 0, [2, 2]),
    "zero-z4-on-z2": (4, 2, lambda x: 0, [2]),
    "square-z4-on-z4": (4, 4, lambda x: x * x, [2, 4]),
    "square-z3-on-z3": (3, 3, lambda x: x * x, [3, 3]),
}


@pytest.mark.parametrize("name", list(RING_ADDITIVE_ONLY))
def test_module_homs_agree_with_loop_on_actions_additive_only_in_the_ring(name):
    n, k, value, orders = RING_ADDITIVE_ONLY[name]
    valid = _scalar_module(n, orders)
    bad = _ring_additive_action(valid.ring, k, value)
    report = validate_module(bad)
    assert report.check("additive-in-ring").passed and not report.passed
    for other in (bad, valid, regular_module(valid.ring)):
        for s, t in ((bad, other), (other, bad)):
            assert module_homs(s, t).tolist() == _matrices(module_homs_by_loop(s, t))


def test_module_homs_filter_every_row_when_the_cap_refuses_the_report():
    # Z/12 on itself with 5.1 moved: not additive in the ring element, and at a
    # cap of 100 its report (on a 144-entry addition table) is refused
    good = module_zn(12)
    table = good.action_table.copy()
    table[5, 1] = 0
    bad = RModule(good.ring, good.group, table)
    with pytest.raises(BoundExceeded):
        validate_module(bad, 100)
    for s, t in ((bad, good), (good, bad), (bad, bad)):
        assert module_homs(s, t, 100).tolist() == _matrices(module_homs_by_loop(s, t))


@pytest.mark.parametrize("name", ["zn:4", "fpxfp:2", "fx0:3"])
def test_induced_action_agrees_with_loop_on_every_mutation(name):
    m = MODULES[name]
    cases = failing = 0
    for module in itertools.chain([m], mutations(m)):
        for e in m.group.elements():
            report = validate_induced_action(module, e)
            assert report == induced_action_report_by_loop(module, e)
            cases += 1
            failing += not report.passed
    assert cases == (1 + m.action_table.size * (m.group.cardinality - 1)) * m.group.cardinality
    assert failing == cases - m.group.cardinality  # every mutation breaks a law at every base point


def all_equivalences(m: RModule, n: RModule):
    """Every additive isomorphism conjugating End(M) onto End(N), as an
    equivalence; built from the loop oracle, not from the library's search."""
    end_m, end_n = module_homs_by_loop(m, m), module_homs_by_loop(n, n)
    by_matrix = {v.matrix: v for v in end_n}
    for mu in hom_enumerate_by_loop(m.group, n.group):
        if not mu.is_bijective:
            continue
        inv = invert_hom(mu)
        conj = [compose_homs(compose_homs(mu, u), inv) for u in end_m]
        if {c.matrix for c in conj} == set(by_matrix):
            yield ModuleEquivalence(m, n, mu, tuple((u, by_matrix[c.matrix]) for u, c in zip(end_m, conj)))


EQUIVALENT_PAIRS = [
    ("zn:4", "zn:4"), ("zn:6", "zn:6"), ("zn:5", "fp:5"), ("fpxfp:2", "fpxfp:2"),
    ("fx0:2", "0xf:2"), ("fx0:3", "0xf:3"), ("z2sq-over-f2", "z2sq-over-f2"),
]


@pytest.mark.parametrize("left,right", EQUIVALENT_PAIRS, ids=[f"{a}|{b}" for a, b in EQUIVALENT_PAIRS])
def test_truss_iso_from_equivalence_agrees_with_per_element_map(left, right):
    m, n = MODULES[left], MODULES[right]
    source, target = build_linear_endo_truss(m), build_linear_endo_truss(n)
    equivalences = list(all_equivalences(m, n))
    assert equivalences
    for eq in equivalences:
        phi = truss_iso_from_equivalence(eq)
        assert tuple(phi.mapping.tolist()) == truss_iso_by_element(eq, source, target)
        back = equivalence_from_truss_iso(phi, m, n)
        assert back.mu.matrix == eq.mu.matrix
        assert all(back.rho_of(u).matrix == v.matrix for u, v in eq.rho_pairs)


ISOMORPHIC_GROUP_PAIRS = [
    (a, b) for a, b in itertools.product(MODULES, repeat=2) if groups_isomorphic(MODULES[a].group, MODULES[b].group)
]


def _positions_or_error(run):
    """The family positions `run()` gives, or "ValueError" where a conjugate leaves the family."""
    try:
        return tuple(run())
    except ValueError:
        return "ValueError"


@pytest.mark.parametrize("left,right", ISOMORPHIC_GROUP_PAIRS, ids=[f"{a}|{b}" for a, b in ISOMORPHIC_GROUP_PAIRS])
def test_conjugate_homs_agrees_with_the_oracle_on_linear_trusses(left, right):
    # conjugating E_R(M)'s family by a group isomorphism either lands in
    # E_R(N)'s, position for position as the oracle, or leaves it for both
    source, target = build_linear_endo_truss(MODULES[left]), build_linear_endo_truss(MODULES[right])
    g, h = source.group, target.group
    isos = _linear_isos(g, h, None)
    for f, hm in zip(isos, as_objects(isos, g, h)):
        got = _positions_or_error(lambda: conjugate_homs(source._apply, target, f[None])[0].tolist())
        assert got == _positions_or_error(lambda: conjugate_homs_by_composition(hm.linear, source, target))


def test_conjugate_homs_leaves_the_f2_x_f2_family_by_a_shear():
    # of the six automorphisms of Z/2 x Z/2 only the identity and the swap
    # keep the diagonal maps diagonal; the full End of z2sq-over-f2 leaves
    # the four diagonal maps under every automorphism
    diagonal, full = build_linear_endo_truss(MODULES["fpxfp:2"]), build_linear_endo_truss(MODULES["z2sq-over-f2"])
    isos = _linear_isos(diagonal.group, diagonal.group, None)
    kept = [_positions_or_error(lambda: conjugate_homs(diagonal._apply, diagonal, f[None])[0]) for f in isos]
    assert len(isos) == 6 and len(kept) - kept.count("ValueError") == 2
    for f in isos:
        assert _positions_or_error(lambda: conjugate_homs(full._apply, diagonal, f[None])[0]) == "ValueError"


def test_extraction_rejects_a_truss_iso_onto_the_wrong_family():
    # E(Z/2 x Z/2) over F_2 is the full endomorphism truss; over F_2 x F_2
    # only the diagonal maps are linear, so rho leaves End(N)
    m, n = MODULES["z2sq-over-f2"], MODULES["fpxfp:2"]
    eq = next(all_equivalences(m, m))
    phi = truss_iso_from_equivalence(eq)
    with pytest.raises(NotAnIsomorphism):
        equivalence_from_truss_iso(phi, m, n)


def _broken_zn4() -> RModule:
    m = module_zn(4)
    table = m.action_table.ravel().tolist()
    table[5] = (table[5] + 1) % 4
    return RModule(m.ring, m.group, tuple(table))


def test_equivalence_is_valid_is_false_when_end_is_not_closed():
    bad = _broken_zn4()
    eq = find_module_equivalence(bad, bad)
    assert eq is not None
    assert equivalence_is_valid(eq) is False
    with pytest.raises(InvalidEquivalence):
        truss_iso_from_equivalence(eq)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_module_bk_refuses_a_module_file_that_breaks_a_law(tmp_path, capsys):
    data = module_zn(4).to_json_dict()
    bad_action = json.loads(json.dumps(data))
    bad_action["module"]["action"] = _broken_zn4().action_table.ravel().tolist()
    bad_ring = json.loads(json.dumps(data))
    bad_ring["ring"]["mult"][5] = (bad_ring["ring"]["mult"][5] + 1) % 4
    action_path, ring_path = tmp_path / "bad.json", tmp_path / "bad_ring.json"
    action_path.write_text(json.dumps(bad_action))
    ring_path.write_text(json.dumps(bad_ring))
    cases = [
        ((str(action_path), str(action_path)), "fails unital at (1,)"),
        ((str(action_path), "zn:4"), "fails unital at (1,)"),
        (("zn:4", str(action_path)), "fails unital at (1,)"),
        ((str(ring_path), "zn:4"), "ring on 4 elements fails mult-associativity"),
    ]
    for argv, law in cases:
        code, out, err = run(capsys, "module-bk", *argv, "--json")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "is not a module" in err and law in err
    for path in (action_path, ring_path):
        code, out, _ = run(capsys, "validate", "--module", str(path))
        assert code == 1 and "[FAIL]" in out


GOLDEN = {
    "module_bk_example_non_iso_3.json": ["example-non-iso:3"],
    "module_bk_fpxfp_2_fpxfp_2.json": ["fpxfp:2", "fpxfp:2"],
    "module_bk_zn_5_fp_5.json": ["zn:5", "fp:5"],
    "module_bk_zn_4_zn_6.json": ["zn:4", "zn:6"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_module_bk_json_matches_golden_bytes(capsys, name):
    code, out, err = run(capsys, "module-bk", *GOLDEN[name], "--json")
    assert (code, err) == (0, "")
    assert out == (DATA / name).read_text()


def test_table_checks_keep_their_messages():
    z4 = make_ring_zn(4)
    m = module_zn(4)
    cases = [
        (lambda: FiniteHeap(2, (0,) * 7), "ternary table needs 8 entries, got 7"),
        (lambda: FiniteHeap(2, (0,) * 7 + (2,)), "ternary table entry out of carrier range"),
        (lambda: FiniteTruss(FiniteHeap(1, (0,)), (0, 0)), "multiplication table needs 1 entries"),
        (lambda: FiniteTruss(FiniteHeap(1, (0,)), (-1,)), "multiplication table entry out of range"),
        (lambda: FiniteRing(z4.additive, (0,) * 15, z4.one), "multiplication table needs 16 entries"),
        (lambda: FiniteRing(z4.additive, (0,) * 15 + (4,), z4.one), "multiplication table entry out of range"),
        (lambda: RModule(m.ring, m.group, (0,) * 17), "action table needs 16 entries"),
        (lambda: RModule(m.ring, m.group, (0,) * 15 + (-1,)), "action table entry out of module range"),
    ]
    for build, message in cases:
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message


@pytest.mark.parametrize("huge", [2**63, -(2**63) - 1, 10**40])
def test_table_entries_beyond_int64_raise_value_error(huge):
    with pytest.raises(ValueError, match="out of carrier range"):
        FiniteHeap(2, (0,) * 7 + (huge,))
    m = module_zn(2)
    with pytest.raises(ValueError, match="out of module range"):
        RModule(m.ring, m.group, (0, 0, 0, huge))
    with pytest.raises(ValueError, match="out of range"):
        FiniteRing(m.ring.additive, (0, 0, 0, huge), m.ring.one)


def test_tables_are_read_only_int64_arrays():
    import numpy as np

    h = FiniteHeap(1, np.zeros(1, dtype=np.int32))
    assert h.ternary_table.dtype == np.int64 and h.ternary_table.shape == (1, 1, 1)
    assert not h.ternary_table.flags.writeable
    # lookups hand out Python ints and bools, not numpy scalars
    ring, m = make_ring_zn(4), module_zn(4)
    t = ring_as_truss(ring)
    phi = TrussMorphism(t, t, np.arange(4, dtype=np.int16))
    values = [ring.mul_index(2, 3), m.act_index(3, 3), phi(2), *ring.mul((2,), (3,)), *m.act((3,), (3,))]
    assert [type(v) for v in values] == [int] * 5
    assert phi.is_bijective is True and TrussMorphism(t, t, (0, 0, 1, 2)).is_bijective is False


def test_huge_json_entries_exit_2(tmp_path, capsys):
    heap = {"size": 2, "ternary": [0] * 7 + [2**70]}
    module = module_zn(2).to_json_dict()
    module["module"]["action"][3] = 2**70
    for flag, doc in (("--heap", heap), ("--module", module)):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "validate", flag, str(path))
        assert (code, out) == (2, "") and "out of" in err
    code, _, err = run(capsys, "module-bk", str(path), "zn:2")
    assert code == 2 and "out of module range" in err


def test_tables_keep_the_array_they_were_checked_as():
    import numpy as np

    ring = make_ring_zn(4)
    m = module_zn(4)
    source = np.zeros(8, dtype=np.int64)
    heap = FiniteHeap(2, source)
    source[0] = 1
    truss = FiniteTruss(heap, (0, 0, 0, 1))
    for table, shape in [
        (heap.ternary_table, (2, 2, 2)),
        (truss.mult_table, (2, 2)),
        (ring.mult_table, (4, 4)),
        (m.action_table, (4, 4)),
    ]:
        assert table.shape == shape and table.dtype == np.int64
        assert not table.flags.writeable
    assert heap.ternary_table[0, 0, 0] == 0 and source.flags.writeable
    assert dense_tables(truss)[0] is truss.mult_table and dense_tables(truss)[1] is heap.ternary_table


def test_tables_compare_by_value_however_they_were_built():
    # from a row-major list, from an array and through JSON: equal, with
    # equal hashes; one entry changed: unequal, by every route
    import numpy as np

    ring, m = make_ring_zn(4), module_zn(4)
    heap, truss = heap_from_group(make_group([4])), ring_as_truss(ring)
    cases = [
        (heap, heap.ternary_table, lambda table: FiniteHeap(4, table)),
        (truss, truss.mult_table, lambda table: FiniteTruss(truss.heap, table, truss.unit)),
        (ring, ring.mult_table, lambda table: FiniteRing(ring.additive, table, ring.one)),
        (m, m.action_table, lambda table: RModule(ring, m.group, table)),
    ]
    for obj, table, build in cases:
        flat = table.ravel().tolist()
        changed = flat.copy()
        changed[1] = (changed[1] + 1) % 4
        for entries, equal in ((flat, True), (changed, False)):
            built = build(entries)
            for copy in (built, build(np.array(entries)), type(obj).from_json_dict(built.to_json_dict())):
                assert (copy == obj) is equal and (copy != obj) is not equal
                assert hash(copy) == hash(obj) or not equal


@pytest.mark.parametrize("entry", [True, 1.0, "1", None, [1], 2**63], ids=repr)
@pytest.mark.parametrize("table", ["ternary", "truss mult", "ring mult", "module action"])
def test_a_malformed_table_entry_exits_2(tmp_path, capsys, table, entry):
    heap = {"size": 2, "ternary": [0] * 8}
    truss = ring_as_truss(make_ring_zn(2)).to_json_dict()
    module = module_zn(2).to_json_dict()
    flag, doc, entries = {
        "ternary": ("--heap", heap, heap["ternary"]),
        "truss mult": ("--truss", truss, truss["mult"]),
        "ring mult": ("--module", module, module["ring"]["mult"]),
        "module action": ("--module", module, module["module"]["action"]),
    }[table]
    entries[1] = entry
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", flag, str(path))
    assert (code, out) == (2, "")
    assert [line[:6] for line in err.splitlines()] == ["error:"]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_module_bk_example_runs_the_pair_path(p, tmp_path, capsys):
    # the example reports what `module-bk` reports on its two ideals, read
    # from module files, plus its three findings about module maps
    paths = []
    for side, module in zip(("left", "right"), example_non_iso(p)):
        paths.append(tmp_path / f"{side}.json")
        paths[-1].write_text(json.dumps(module.to_json_dict()))
    code, out, err = run(capsys, "module-bk", f"example-non-iso:{p}", "--json")
    assert (code, err) == (0, "")
    example = json.loads(out)
    code, out, err = run(capsys, "module-bk", *map(str, paths), "--json")
    assert (code, err) == (0, "")
    pair = json.loads(out)
    names = ["equivalent_over_end_rings", "truss_iso_exists", "roundtrip_recovers_equivalence", "consistent"]
    assert example["results"][:4] == pair["results"]
    assert [c["name"] for c in pair["results"]] == names
    assert example["witnesses"] == pair["witnesses"]
    assert [c["name"] for c in example["results"][4:]] == ["module_hom_count", "module_iso_exists", "groups_isomorphic"]


def test_module_bk_example_fails_on_a_module_isomorphism(monkeypatch, capsys):
    # a module-hom step that also returns the identity of Z/2 makes a
    # bijective module map: the law fails, and the exit is 1
    real = trusskit.cli.module_homs

    def with_identity(m, n, max_enum=None):
        homs = real(m, n, max_enum)
        return np.concatenate([homs, np.eye(n.group.rank, m.group.rank, dtype=np.int64)[None]])

    monkeypatch.setattr(trusskit.cli, "module_homs", with_identity)
    code, out, _ = run(capsys, "module-bk", "example-non-iso:2", "--json")
    results = {c["name"]: c for c in json.loads(out)["results"]}
    assert code == 1
    assert results["module_iso_exists"]["passed"] is False and results["module_iso_exists"]["value"] is True
    assert results["module_hom_count"]["value"] == 2
    assert results["consistent"]["passed"] is True


def test_module_bk_computes_each_end_once(monkeypatch, capsys):
    calls = []
    real = trusskit.modules.module_homs

    def counted(m, n, max_enum=None):
        calls.append((m, n))
        return real(m, n, max_enum)

    monkeypatch.setattr(trusskit.modules, "module_homs", counted)
    code, out, _ = run(capsys, "module-bk", "fpxfp:2", "fpxfp:2", "--json")
    assert code == 0 and json.loads(out)["witnesses"]["mu"]
    assert len(calls) == 1 and all(m is n for m, n in calls)


def test_cached_truss_does_not_bypass_the_carrier_cap():
    from trusskit import BoundExceeded

    # E_R(M) is built once per module. Hom(Z/4, Z/4) has 4 maps, E_R(Z/4)
    # has 16 elements: a cap of 15 passes the first guard and refuses the
    # cached carrier on every path
    m = module_zn(4)
    assert build_linear_endo_truss(m) is build_linear_endo_truss(m)
    eq = find_module_equivalence(m, m)
    assert equivalence_is_valid(eq) and end_ring(m).ring.size == 4
    for call in (
        lambda: build_linear_endo_truss(m, 15),
        lambda: find_module_equivalence(m, m, 15),
        lambda: equivalence_is_valid(eq, 15),
        lambda: end_ring(m, 15),
    ):
        with pytest.raises(BoundExceeded, match="linear endomorphism truss carrier"):
            call()


def _dual_numbers_module(p: int = 2) -> RModule:
    """F_p[x]/(x^2) acting on itself: a p^2-element End(M) on Z/p x Z/p,
    like F_p x F_p's, but not conjugate to it."""
    ring = ring_by_callable(make_group([p, p]), lambda a, b: (a[0] * b[0] % p, (a[0] * b[1] + a[1] * b[0]) % p), (1, 0))
    return regular_module(ring)


def _search_pairs():
    pairs = [(MODULES[a], MODULES[b]) for a, b in EQUIVALENT_PAIRS]
    pairs += [(MODULES[a], MODULES[b]) for a, b in [("zn:4", "zn:6"), ("zn:6", "fp:5"), ("fpxfp:2", "z2sq-over-f2")]]
    pairs += [(_dual_numbers_module(), MODULES["fpxfp:2"]), (_broken_zn4(), _broken_zn4())]
    pairs += [example_non_iso(2), example_non_iso(3)]
    return pairs


def _as_matrices(eq):
    if eq is None:
        return None
    return eq.mu.matrix, [(u.matrix, v.matrix) for u, v in eq.rho_pairs]


def test_search_one_hom_per_block_agrees_with_the_default(monkeypatch):
    pairs = _search_pairs()
    default = [_as_matrices(find_module_equivalence(m, n)) for m, n in pairs]
    monkeypatch.setattr(trusskit.modules, "_HOM_CHUNK", 1)
    assert [_as_matrices(find_module_equivalence(m, n)) for m, n in pairs] == default
    assert None in default and default.count(None) < len(default)


def _first_equivalence_one_mu_at_a_time(m, n):
    """The search's oracle: (mu, the conjugates' matrices) of the first
    bijective mu in `hom_enumerate` order whose conjugates `conjugate_homs`
    places in E_R(N), trying one mu at a time, or None."""
    g, h = m.group, n.group
    source, target = build_linear_endo_truss(m), build_linear_endo_truss(n)
    if not groups_isomorphic(g, h) or len(source.homs) != len(target.homs):
        return None
    for mat in hom_enumerate(g, h):
        mu = matrix_images(mat[None], g, h)
        if _bijective_rows(mu, h.cardinality)[0]:
            try:
                conj = conjugate_homs(source._apply, target, mu)[0]
            except ValueError:
                continue
            return mat.tolist(), target.homs[conj].tolist()
    return None


@pytest.mark.parametrize("chunk", [None, 40])
def test_search_of_a_block_of_mu_finds_the_first_hit_of_the_one_at_a_time_loop(chunk, monkeypatch):
    # dual numbers over F_p against themselves (equivalent) and against
    # F_p x F_p (not), and F_3 x F_3 against itself; a chunk of 40 entries
    # splits Hom(M, N) into blocks of a few maps, and the bijective mu of a
    # block into several lookups
    fpxfp = {p: regular_module(make_product_ring(make_field_fp(p), make_field_fp(p))) for p in (2, 3, 5)}
    pairs = [(_dual_numbers_module(p), other) for p in (2, 3, 5) for other in (_dual_numbers_module(p), fpxfp[p])]
    pairs.append((fpxfp[3], fpxfp[3]))
    if chunk is not None:
        monkeypatch.setattr(trusskit.modules, "_HOM_CHUNK", chunk)
    found = []
    for m, n in pairs:
        eq = find_module_equivalence(m, n)
        got = eq and (np.array(eq.mu.matrix).tolist(), np.array([v.matrix for _, v in eq.rho_pairs]).tolist())
        assert got == _first_equivalence_one_mu_at_a_time(m, n)
        found.append(eq is not None)
    assert found == [True, False] * 3 + [True]


def test_search_evaluates_hom_one_block_at_a_time(monkeypatch):
    # Hom(Z/2 x Z/2, Z/2 x Z/2) has 16 maps; a chunk of 24 entries is 3
    # maps' (4, 2) coordinate arrays, and no map conjugates End(M) onto End(N)
    m, n = _dual_numbers_module(), MODULES["fpxfp:2"]
    build_linear_endo_truss(m), build_linear_endo_truss(n)
    sizes = []
    real = trusskit.modules.matrix_images

    def counted(mats, g, h):
        sizes.append(len(mats))
        return real(mats, g, h)

    monkeypatch.setattr(trusskit.modules, "matrix_images", counted)
    monkeypatch.setattr(trusskit.modules, "_HOM_CHUNK", 24)
    assert find_module_equivalence(m, n) is None
    assert sizes == [3] * 5 + [1]


def test_cached_end_does_not_bypass_the_cap():
    from trusskit import BoundExceeded

    # Hom(Z/2 x Z/2, Z/2 x Z/2) has 16 maps; End(M) is cached by the search
    m = regular_module(R22)
    eq = find_module_equivalence(m, m)
    assert equivalence_is_valid(eq)
    with pytest.raises(BoundExceeded, match="Hom"):
        equivalence_is_valid(eq, max_enum=15)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_module_factory_tables_match_the_callable_oracle(p):
    f = make_field_fp(p)
    r = make_product_ring(f, f)
    for ring in (f, r):
        m = regular_module(ring)
        assert tuple(m.action_table.ravel().tolist()) == module_table(ring, ring.additive, ring.mul)
    for coord in (0, 1):
        m = coordinate_module(r, coord)
        assert m.group.orders == (p,)
        assert tuple(m.action_table.ravel().tolist()) == module_table(r, m.group, lambda a, x: ((a[coord] * x[0]) % p,))


@pytest.mark.parametrize("name", sorted(MODULES))
def test_end_ring_as_module_matches_the_callable_oracle(name):
    er = end_ring(MODULES[name])
    m = er.as_module()
    index = er.ring.additive.index
    assert tuple(m.action_table.ravel().tolist()) == module_table(er.ring, m.group, lambda u, x: er.homs_by_index[index(u)](x))


@pytest.mark.parametrize("name", [*sorted(MODULES), "zn:12", "zn:720"])
def test_end_ring_is_a_validated_ring_in_invariant_factor_form(name):
    # zn:720's End is Z/720, whose primes 2, 3 and 5 each appear to a different power
    m = MODULES[name] if name in MODULES else module_zn(int(name[3:]))
    er = end_ring(m)
    assert er.ring.additive == invariant_factors(er.ring.additive)
    assert validate_ring(er.ring).passed
    assert validate_module(er.as_module()).passed


@pytest.mark.parametrize("left,right", EQUIVALENT_PAIRS, ids=[f"{a}|{b}" for a, b in EQUIVALENT_PAIRS])
def test_equivalence_is_a_ring_isomorphism_of_end_rings_carrying_one_action_onto_the_other(left, right):
    # the module theorem read through end_ring: rho, charted on both end
    # rings, is a ring isomorphism, and mu(u.x) = rho(u).mu(x); fx0:3|0xf:3
    # are the two ideals of example_non_iso(3)
    m, n = MODULES[left], MODULES[right]
    eq = find_module_equivalence(m, n)
    em, en = end_ring(m), end_ring(n)
    where = {v.matrix: j for j, v in enumerate(en.homs_by_index)}
    rho = np.array([where[eq.rho_of(u).matrix] for u in em.homs_by_index])
    assert sorted(rho.tolist()) == list(range(en.ring.size))
    add_m, add_n = np_add_table(em.ring.additive), np_add_table(en.ring.additive)
    assert (rho[add_m] == add_n[rho[:, None], rho[None, :]]).all()
    assert (rho[em.ring.mult_table] == en.ring.mult_table[rho[:, None], rho[None, :]]).all()
    assert rho[em.ring.additive.index(em.ring.one)] == en.ring.additive.index(en.ring.one)
    mu = matrix_images(np.array([eq.mu.matrix]), m.group, n.group)[0]
    assert (mu[em.as_module().action_table] == en.as_module().action_table[rho[:, None], mu[None, :]]).all()


def test_end_rings_of_f2xf2_and_of_z2sq_over_f2_differ_in_size():
    m, n = MODULES["fpxfp:2"], MODULES["z2sq-over-f2"]
    assert (end_ring(m).ring.size, end_ring(n).ring.size) == (4, 16)
    assert find_module_equivalence(m, n) is None


def ring_mutations(ring: FiniteRing):
    """Every ring with one multiplication entry changed, unvalidated."""
    for pos, old in enumerate(ring.mult_table.ravel().tolist()):
        for new in range(ring.size):
            if new != old:
                table = ring.mult_table.ravel().tolist()
                table[pos] = new
                yield FiniteRing(ring.additive, tuple(table), ring.one)


@pytest.mark.parametrize("name", ["zn:4", "z2-over-z4", "z2sq-over-f2", "fpxfp:2", "fx0:2", "fx0:3", "z3-over-z6"])
def test_module_report_matches_the_dense_oracle_on_every_mutation(name):
    # action mutations break the additivity certificates; ring mutations
    # under the same action break the ring's distributivity, which the
    # associativity certificate needs as well
    m = MODULES[name]
    modules = [m, *mutations(m), *(RModule(r, m.group, m.action_table) for r in ring_mutations(m.ring))]
    for module in modules:
        assert validate_module(module) == module_report_dense(module)
    ring_broken = [RModule(r, m.group, m.action_table) for r in ring_mutations(m.ring)]
    assert any(not module_report_dense(x).check("action-associativity").passed for x in ring_broken)


@pytest.mark.parametrize("name", ["zn:4", "z2-over-z4", "fpxfp:2", "fx0:3"])
def test_module_certificates_over_the_dense_cap_report_genuine_counterexamples(name):
    # a cap that admits the addition tables but not the dense scans of
    # associativity and additivity in the ring: a failed certificate
    # reports its own case, which still breaks the law
    m = MODULES[name]
    rn, mn = m.ring.size, m.group.cardinality
    cap = max(rn, mn) ** 2
    assert rn * rn * mn > cap
    for module in [*mutations(m), *(RModule(r, m.group, m.action_table) for r in ring_mutations(m.ring))]:
        report, dense = validate_module(module, cap), module_report_dense(module)
        masks = module_law_masks(module)
        for check, want in zip(report.checks, dense.checks):
            assert (check.law, check.passed, check.exhaustive) == (want.law, want.passed, True)
            if not check.passed:
                assert masks[check.law][check.counterexample]


def test_module_certificates_need_every_generator():
    # Z/2 x Z/3 acting on itself, with one row (a module element's
    # additivity) or one column (a ring element's) replaced by a map that is
    # additive along (1, 0) only
    m = regular_module(make_product_ring(make_ring_zn(2), make_ring_zn(3)))
    breaker = last_generator_breaker(m.group)
    for law, transpose in (("additive-in-module", False), ("additive-in-ring", True)):
        act = np.array(m.action_table).reshape(6, 6)
        act = act.T.copy() if transpose else act
        act[5] = breaker
        bad = RModule(m.ring, m.group, tuple((act.T if transpose else act).reshape(-1).tolist()))
        report = validate_module(bad)
        assert report == module_report_dense(bad)
        assert not report.check(law).passed


def _equivalences_in_the_tests():
    for left, right in EQUIVALENT_PAIRS:
        yield from all_equivalences(MODULES[left], MODULES[right])
    for m, n in [(module_zn(4), module_zn(4)), (coordinate_module(R22, 0), coordinate_module(R22, 1))]:
        yield find_module_equivalence(m, n)
    for p in (2, 3):
        yield find_module_equivalence(*example_non_iso(p))


def test_equivalence_check_agrees_with_the_object_oracle():
    cases = []
    for eq in _equivalences_in_the_tests():
        cases.append(eq)
        pairs = eq.rho_pairs
        if len(pairs) > 1:  # rho with two images swapped
            swapped = ((pairs[0][0], pairs[1][1]), (pairs[1][0], pairs[0][1]), *pairs[2:])
            cases.append(ModuleEquivalence(eq.source, eq.target, eq.mu, swapped))
    bad = _broken_zn4()
    cases.append(find_module_equivalence(bad, bad))  # End(M) not closed under sums
    # P = [[1, 1], [0, 1]] on Z/2 x Z/2: over F_2, with mu the identity and
    # rho(u) = P u P^-1, rho is a ring automorphism of End(M) = M_2(F_2)
    # but not conjugation by mu; over F_2 x F_2, with mu = P and
    # u = P^-1 v P, the pairs conjugate correctly but their domain is not
    # the diagonal End(M)
    k4 = make_group([2, 2])
    P = GroupHom(k4, k4, ((1, 1), (0, 1)))
    P_inv = invert_hom(P)
    m = MODULES["z2sq-over-f2"]
    pairs = tuple((u, compose_homs(compose_homs(P, u), P_inv)) for u in hom_enumerate_by_loop(k4, k4))
    cases.append(ModuleEquivalence(m, m, identity_hom(k4), pairs))
    m = MODULES["fpxfp:2"]
    end = [v for v in hom_enumerate_by_loop(k4, k4) if v.matrix[0][1] == v.matrix[1][0] == 0]
    pairs = tuple((compose_homs(compose_homs(P_inv, v), P), v) for v in end)
    cases.append(ModuleEquivalence(m, m, P, pairs))
    verdicts = [equivalence_is_valid(eq) for eq in cases]
    assert verdicts == [equivalence_is_valid_by_objects(eq) for eq in cases]
    assert True in verdicts and False in verdicts


def test_equivalence_check_agrees_with_the_object_oracle_on_rho_mutations():
    # every single-pair change of the rho of example_non_iso(3): one pair's
    # image, or one pair's argument, replaced by any other endomorphism of
    # the group; plus a mu that is not bijective
    eq = find_module_equivalence(*example_non_iso(3))
    g, h = eq.source.group, eq.target.group
    pairs = list(eq.rho_pairs)
    cases = []
    for i, (u, v) in enumerate(pairs):
        changed = [(u, w) for w in hom_enumerate_by_loop(h, h) if w.matrix != v.matrix]
        changed += [(w, v) for w in hom_enumerate_by_loop(g, g) if w.matrix != u.matrix]
        for pair in changed:
            cases.append(ModuleEquivalence(eq.source, eq.target, eq.mu, tuple(pairs[:i] + [pair] + pairs[i + 1 :])))
    for mu in hom_enumerate_by_loop(g, h):
        cases.append(ModuleEquivalence(eq.source, eq.target, mu, eq.rho_pairs))
    verdicts = [equivalence_is_valid(case) for case in cases]
    assert verdicts == [equivalence_is_valid_by_objects(case) for case in cases]
    assert verdicts.count(True) == 2  # the two scalings mu = 1, 2 of Z/3


def test_equivalence_check_agrees_with_the_object_oracle_on_dropped_and_repeated_pairs():
    # the pairs must cover End(M) and End(N); a repeated pair is accepted,
    # as the object oracle accepts it
    cases = []
    for eq in (find_module_equivalence(*example_non_iso(3)), find_module_equivalence(MODULES["fpxfp:2"], MODULES["fpxfp:2"])):
        pairs = list(eq.rho_pairs)
        for changed in [pairs[:i] + pairs[i + 1 :] for i in range(len(pairs))] + [pairs + [p] for p in pairs]:
            cases.append(ModuleEquivalence(eq.source, eq.target, eq.mu, tuple(changed)))
    verdicts = [equivalence_is_valid(eq) for eq in cases]
    assert verdicts == [equivalence_is_valid_by_objects(eq) for eq in cases]
    assert verdicts == ([False] * 3 + [True] * 3) + ([False] * 4 + [True] * 4)


# the equivalent pairs of the benchmark's module jobs and the coordinate
# ideals over F_3 x F_3, each with its number of truss isomorphisms:
# equivalences times |N|
THEOREM_PAIRS = {
    "zn:4|zn:4": (lambda: (module_zn(4), module_zn(4)), 8),
    "zn:6|zn:6": (lambda: (module_zn(6), module_zn(6)), 12),
    "zn:9|zn:9": (lambda: (module_zn(9), module_zn(9)), 54),
    "fp:5|fp:5": (lambda: (regular_module(make_field_fp(5)),) * 2, 20),
    "zn:5|fp:5": (lambda: (module_zn(5), regular_module(make_field_fp(5))), 20),
    "fpxfp:2|fpxfp:2": (lambda: (regular_module(R22),) * 2, 8),
    "fpxfp:3|fpxfp:3": (lambda: (regular_module(R33),) * 2, 72),
    "fx0:3|0xf:3": (lambda: (coordinate_module(R33, 0), coordinate_module(R33, 1)), 6),
}


def _translations(eq) -> np.ndarray:
    """The value tables of the heap isomorphisms (mu, t), t in N, of an
    equivalence, element indices of N."""
    g, h = eq.source.group, eq.target.group
    images = [eq.mu(g.element_at(i)) for i in range(g.cardinality)]
    return np.array([[h.index(h.add(y, t)) for y in images] for t in h.elements()], dtype=np.int64)


@pytest.mark.parametrize("name", sorted(THEOREM_PAIRS))
def test_module_theorem_in_both_directions_on_the_shared_check(name):
    # every translation of every equivalence, found by a loop over
    # Hom(M, N), conjugates to a truss isomorphism that extraction undoes,
    # and the brute-force search finds no other
    build, expected = THEOREM_PAIRS[name]
    m, n = build()
    equivalences = list(all_equivalences(m, n))
    isos = np.concatenate([_translations(eq) for eq in equivalences])
    source, target = build_linear_endo_truss(m), build_linear_endo_truss(n)
    roundtrip, count, first = verify_correspondence(source, target, isos, brute_force=True)
    assert (roundtrip, count) == (True, expected)
    assert np.array_equal(first, conjugate_rows(source, target, isos[:1])[0])
    assert len(isos) == len(equivalences) * n.group.cardinality == expected


def test_module_theorem_counts_no_truss_isomorphism_between_unequal_groups():
    # E_R(F_3 x F_3) and E_R(Z/9) both have 81 elements, so the search runs
    m, n = regular_module(R33), module_zn(9)
    source, target = build_linear_endo_truss(m), build_linear_endo_truss(n)
    assert source.size == target.size == 81
    isos = np.zeros((0, m.group.cardinality), dtype=np.int64)
    assert verify_correspondence(source, target, isos, brute_force=True) == (True, 0, None)
