import itertools
import json

import pytest
from conftest import (
    as_objects,
    carrier,
    constant_index,
    find_ring_isomorphism,
    heap_morphisms,
    is_linear_heap_morphism,
    linear_heap_morphisms,
    module_by_callable,
    mult,
    ternary,
)

from trusskit import (
    InvalidEquivalence,
    ModuleEquivalence,
    NotAnIsomorphism,
    RModule,
    build_endo_truss,
    build_linear_endo_truss,
    coordinate_module,
    end_ring,
    enumerate_truss_isos,
    example_non_iso,
    find_module_equivalence,
    induced_action,
    make_field_fp,
    make_group,
    make_product_ring,
    make_ring_zn,
    module_zn,
    regular_module,
    validate_induced_action,
    validate_module,
    validate_truss,
)
from trusskit.cli import main
from trusskit.groups import groups_isomorphic
from trusskit.modules import (
    equivalence_from_truss_iso,
    equivalence_is_valid,
    module_homs,
    truss_iso_from_equivalence,
)

F2 = make_field_fp(2)
R22 = make_product_ring(F2, F2)
FX0 = coordinate_module(R22, 0)
ZXF = coordinate_module(R22, 1)
M_Z4 = module_zn(4)


def z2_over_z4():
    return module_by_callable(make_ring_zn(4), make_group([2]), lambda r, m: ((r[0] * m[0]) % 2,))


def test_coordinate_ideal_module_is_valid():
    report = validate_module(FX0)
    assert report.passed and report.exhaustive
    assert FX0.act((1, 0), (1,)) == (1,)
    assert FX0.act((0, 1), (1,)) == (0,)


def test_reduction_module_is_valid():
    m = z2_over_z4()
    assert validate_module(m).passed
    assert m.act((3,), (1,)) == (1,)


def test_validator_locates_corrupted_action():
    m = z2_over_z4()
    table = m.action_table.ravel().tolist()
    table[3] = 1 - table[3]
    bad = RModule(m.ring, m.group, tuple(table))
    report = validate_module(bad)
    assert not report.passed
    assert any(c.counterexample is not None for c in report.failures())


def test_induced_action_at_zero_is_original():
    for m in (M_Z4, FX0, z2_over_z4()):
        zero = m.group.zero
        for r in m.ring.elements():
            for x in m.group.elements():
                assert induced_action(m, zero, r, x) == m.act(r, x)


def test_induced_action_unit_fixes_points():
    for e in M_Z4.group.elements():
        for x in M_Z4.group.elements():
            assert induced_action(M_Z4, e, M_Z4.ring.one, x) == x


def test_induced_action_arithmetic_example():
    # 3 . 1 - 3 . 2 + 2 = 3 - 6 + 2 = -1 = 3 in Z/4
    assert induced_action(M_Z4, (2,), (3,), (1,)) == (3,)


@pytest.mark.parametrize("module", [M_Z4, FX0], ids=["z4", "fx0"])
def test_induced_module_structures_validate_at_every_base_point(module):
    for e in module.group.elements():
        report = validate_induced_action(module, e)
        assert report.passed and report.exhaustive


def test_module_homs_between_the_two_ideals():
    homs = module_homs(FX0, ZXF)
    assert [f.matrix for f in as_objects(homs, FX0.group, ZXF.group)] == [((0,),)]


def test_module_homs_need_same_ring():
    with pytest.raises(ValueError):
        module_homs(M_Z4, FX0)


def test_end_ring_of_ideal_is_prime_field():
    er = end_ring(FX0)
    assert er.ring.size == 2
    assert find_ring_isomorphism(er.ring, F2) is not None
    assert validate_module(er.as_module()).passed


def test_end_ring_of_zn_is_zn():
    er = end_ring(M_Z4)
    assert er.ring.additive.orders == (4,)
    assert find_ring_isomorphism(er.ring, make_ring_zn(4)) is not None
    # ring multiplication is composition, inner factor applied first
    u = er.homs_by_index[er.ring.additive.index((2,))]
    assert u((1,)) == (2,)


def test_linear_heap_morphisms_of_ideal():
    members = linear_heap_morphisms(FX0, FX0)
    assert len(members) == 4  # 2 homs x 2 translations
    for phi in members:
        assert is_linear_heap_morphism(FX0, FX0, phi)


@pytest.mark.parametrize(
    "m,n",
    [(M_Z4, M_Z4), (FX0, ZXF), (FX0, FX0)],
    ids=["z4", "ideal-cross", "ideal-endo"],
)
def test_closed_form_equals_brute_filter_of_heap_morphisms(m, n):
    closed = set(linear_heap_morphisms(m, n))
    filtered = {
        phi for phi in heap_morphisms(m.group, n.group)
        if is_linear_heap_morphism(m, n, phi)
    }
    assert closed == filtered


def test_linear_endo_truss_of_zn_equals_full_endo_truss():
    e_linear = build_linear_endo_truss(M_Z4)
    e_full = build_endo_truss(make_group([4]))
    assert set(carrier(e_linear)) == set(carrier(e_full))
    assert validate_truss(e_linear).passed


def test_linear_endo_truss_is_closed_subtruss():
    e = build_linear_endo_truss(FX0)
    assert validate_truss(e).passed
    full = build_endo_truss(FX0.group)
    assert set(carrier(e)) <= set(carrier(full))
    for i in range(e.size):
        for j in range(e.size):
            assert carrier(e)[mult(e, i, j)] in set(carrier(e))
            for k in range(e.size):
                assert carrier(e)[ternary(e, i, j, k)] in set(carrier(e))


def test_closed_form_equals_every_base_point_filter():
    # the linear members are exactly the heap morphisms that are module maps
    # for the structure deformed at every base point at once
    cases = [
        (M_Z4, M_Z4),
        (FX0, ZXF),
        (regular_module(make_ring_zn(2)), regular_module(make_ring_zn(2))),
    ]
    for m, n in cases:
        closed = set(linear_heap_morphisms(m, n))
        filtered = {
            phi
            for phi in heap_morphisms(m.group, n.group)
            if all(
                phi(induced_action(m, e, r, x))
                == induced_action(n, phi(e), r, phi(x))
                for e in m.group.elements()
                for r in m.ring.elements()
                for x in m.group.elements()
            )
        }
        assert closed == filtered


def test_zero_map_absorbs_within_linear_part():
    e = build_linear_endo_truss(M_Z4)
    zero_idx = constant_index(e, M_Z4.group.zero)
    linear_part = [
        i for i, phi in enumerate(carrier(e)) if phi.translation == M_Z4.group.zero
    ]
    for i in linear_part:
        assert mult(e, i, zero_idx) == zero_idx
        assert mult(e, zero_idx, i) == zero_idx


def test_identity_equivalence_for_equal_modules():
    eq = find_module_equivalence(M_Z4, M_Z4)
    assert eq is not None
    assert eq.mu.matrix == ((1,),)
    assert equivalence_is_valid(eq)


def test_equivalence_between_the_two_ideals():
    eq = find_module_equivalence(FX0, ZXF)
    assert eq is not None
    assert eq.mu.is_bijective
    assert equivalence_is_valid(eq)


def test_no_equivalence_across_cardinalities():
    assert find_module_equivalence(regular_module(make_ring_zn(2)),
                                   regular_module(make_ring_zn(3))) is None


def test_truss_iso_from_identity_equivalence_is_identity():
    eq = find_module_equivalence(M_Z4, M_Z4)
    phi = truss_iso_from_equivalence(eq)
    assert tuple(phi.mapping.tolist()) == tuple(range(16))


def test_truss_iso_multiplicativity_exhaustive():
    eq = find_module_equivalence(FX0, ZXF)
    phi = truss_iso_from_equivalence(eq)
    s, t = phi.source, phi.target
    for i in range(s.size):
        for j in range(s.size):
            assert phi.mapping[mult(s, i, j)] == mult(t, phi.mapping[i], phi.mapping[j])
            for k in range(s.size):
                assert phi.mapping[ternary(s, i, j, k)] == ternary(
                    t, phi.mapping[i], phi.mapping[j], phi.mapping[k]
                )


def test_equivalence_roundtrip_through_truss_iso():
    for m, n in [(M_Z4, M_Z4), (FX0, ZXF)]:
        eq = find_module_equivalence(m, n)
        phi = truss_iso_from_equivalence(eq)
        back = equivalence_from_truss_iso(phi, m, n)
        assert back.mu.matrix == eq.mu.matrix
        for u, v in eq.rho_pairs:
            assert back.rho_of(u).matrix == v.matrix
        assert equivalence_is_valid(back)


def test_extracted_rho_is_the_unique_field_automorphism():
    eq = find_module_equivalence(FX0, ZXF)
    phi = truss_iso_from_equivalence(eq)
    back = equivalence_from_truss_iso(phi, FX0, ZXF)
    for u, v in back.rho_pairs:
        assert u.matrix == v.matrix  # both End-rings are the two scalar maps


def test_invalid_equivalence_is_rejected():
    eq = find_module_equivalence(FX0, ZXF)
    swapped = tuple((u, eq.rho_pairs[1 - i][1]) for i, (u, _) in enumerate(eq.rho_pairs))
    broken = ModuleEquivalence(FX0, ZXF, eq.mu, swapped)
    assert not equivalence_is_valid(broken)
    with pytest.raises(InvalidEquivalence):
        truss_iso_from_equivalence(broken)


def test_every_enumerable_truss_iso_yields_an_equivalence():
    from conftest import is_truss_morphism

    e_m = build_linear_endo_truss(FX0)
    e_n = build_linear_endo_truss(ZXF)
    isos = enumerate_truss_isos(e_m, e_n)
    assert isos
    # the absorber-prefiltered search agrees with the raw bijection filter
    raw = sorted(
        p for p in itertools.permutations(range(e_m.size))
        if is_truss_morphism(e_m, e_n, p)
    )
    assert sorted(tuple(phi.mapping.tolist()) for phi in isos) == raw
    for phi in isos:
        eq = equivalence_from_truss_iso(phi, FX0, ZXF)
        assert equivalence_is_valid(eq)


def test_non_iso_morphism_is_rejected_by_extraction():
    e_m = build_linear_endo_truss(FX0)
    from trusskit.trusses import TrussMorphism

    collapse = TrussMorphism(e_m, e_m, (0,) * e_m.size)
    with pytest.raises(NotAnIsomorphism):
        equivalence_from_truss_iso(collapse, FX0, FX0)


@pytest.mark.parametrize("p", [2, 3])
def test_example_non_iso(p, capsys):
    left, right = example_non_iso(p)
    truss_iso = truss_iso_from_equivalence(find_module_equivalence(left, right))
    assert main(["module-bk", f"example-non-iso:{p}", "--json"]) == 0
    data = {c["name"]: c for c in json.loads(capsys.readouterr().out)["results"]}
    assert data["consistent"]["passed"]
    assert not any(f.is_bijective for f in as_objects(module_homs(left, right), left.group, right.group))
    assert groups_isomorphic(left.group, right.group)
    assert truss_iso.source.size == p * p
    assert validate_truss(truss_iso.source).passed
    assert data["truss_iso_exists"]["passed"] is True
    assert data["module_iso_exists"]["value"] is False
    if p == 2:
        assert data["module_hom_count"]["value"] == 1


def test_module_json_roundtrip():
    m = z2_over_z4()
    assert RModule.from_json_dict(m.to_json_dict()) == m
    with pytest.raises(ValueError):
        RModule.from_json_dict({"ring": m.ring.to_json_dict()})


def test_pairing_is_componentwise_heap_bijection():
    # (hom, translation) pairs combine slotwise under the pointwise ternary op
    from conftest import heap_ternary

    members = linear_heap_morphisms(FX0, ZXF)
    seen = {(phi.linear.matrix, phi.translation) for phi in members}
    assert len(seen) == len(members)
    for a, b, c in itertools.product(members, repeat=3):
        combined = heap_ternary(a, b, c)
        assert combined.translation == ZXF.group.ternary(
            a.translation, b.translation, c.translation
        )
        assert combined in set(members)
