import itertools

import numpy as np
import pytest
from conftest import (
    as_objects,
    carrier,
    conjugate_by_composition,
    constant_index,
    constant_morphism,
    heap_inverse,
    identity_morphism,
    identity_truss_morphism,
    inner_structure,
    intertwiner_at,
    intertwiner_correspondence,
    is_constant,
    truss_tables,
    unique_intertwiner,
)

from trusskit import (
    NotAnIsomorphism,
    build_endo_truss,
    check_inner_structure,
    enumerate_truss_isos,
    enumerate_truss_morphisms,
    heap_iso_from_truss_iso,
    heap_isos,
    make_group,
    parse_group_spec,
    truss_iso_from_heap_iso,
    verify_baer_kaplansky,
)
from trusskit.groups import hom_enumerate
from trusskit.modules import build_linear_endo_truss, regular_module
from trusskit.rings import make_field_fp, make_product_ring
from trusskit.trusses import TrussMorphism

Z2 = make_group([2])
Z3 = make_group([3])
E2 = build_endo_truss(Z2)
E3 = build_endo_truss(Z3)


def test_extraction_of_identity():
    assert heap_iso_from_truss_iso(identity_truss_morphism(E2)) == identity_morphism(Z2)


def test_conjugation_of_identity():
    ident = identity_morphism(Z2)
    assert tuple(truss_iso_from_heap_iso(ident, E2, E2).mapping.tolist()) == (0, 1, 2, 3)


def test_conjugation_by_swap():
    swap = next(m for m in as_objects(heap_isos(Z2, Z2), Z2, Z2) if m.translation == (1,))
    phi = truss_iso_from_heap_iso(swap, E2, E2)
    # carrier order: const0, const1, identity, swap
    assert tuple(phi.mapping.tolist()) == (1, 0, 2, 3)
    assert heap_iso_from_truss_iso(phi) == swap


def test_brute_forced_isos_extract_to_the_two_heap_isos():
    extracted = {heap_iso_from_truss_iso(phi) for phi in enumerate_truss_isos(E2, E2)}
    assert extracted == set(as_objects(heap_isos(Z2, Z2), Z2, Z2))


def test_six_distinct_truss_autos_of_e3():
    isos = as_objects(heap_isos(Z3, Z3), Z3, Z3)
    assert len(isos) == 6
    conjugations = {tuple(truss_iso_from_heap_iso(hm, E3, E3).mapping.tolist()) for hm in isos}
    assert len(conjugations) == 6


def test_extraction_rejects_non_isomorphism():
    collapse = TrussMorphism(E2, E2, (0, 0, 0, 0))
    with pytest.raises(NotAnIsomorphism):
        heap_iso_from_truss_iso(collapse)


def test_conjugation_rejects_non_iso_heap_morphism():
    const = constant_morphism(Z2, (0,))
    with pytest.raises(NotAnIsomorphism):
        truss_iso_from_heap_iso(const, E2, E2)


def test_witness_satisfies_conjugation_law():
    for hm in as_objects(heap_isos(Z3, Z3), Z3, Z3):
        phi = truss_iso_from_heap_iso(hm, E3, E3)
        extracted = heap_iso_from_truss_iso(phi)
        assert extracted == hm
        assert extracted.linear.is_bijective
        inv = heap_inverse(hm)
        for i, alpha in enumerate(carrier(E3)):
            assert carrier(E3)[phi.mapping[i]] == hm.compose(alpha).compose(inv)


def test_verify_json_schema_and_positive_case():
    result = verify_baer_kaplansky(Z2, Z2, brute_force=True)
    data = result.to_json_dict()
    assert set(data) == {
        "left",
        "right",
        "heap_iso_count",
        "truss_iso_count",
        "theta_upsilon_roundtrip",
        "upsilon_injective",
        "groups_isomorphic",
        "consistent",
    }
    assert data["heap_iso_count"] == 2
    assert data["truss_iso_count"] == 2
    assert data["theta_upsilon_roundtrip"] is True
    assert data["consistent"] is True


def test_verify_negative_case():
    result = verify_baer_kaplansky(make_group([4]), make_group([2, 2]))
    assert result.heap_iso_count == 0
    assert result.truss_iso_count == 0
    assert not result.groups_isomorphic
    assert result.consistent


def test_verify_normalized_pair():
    result = verify_baer_kaplansky(make_group([6]), parse_group_spec("2,3"))
    assert result.heap_iso_count == 12  # 6 translations x 2 automorphisms
    assert result.truss_iso_count is None  # brute force not requested
    assert result.to_json_dict()["truss_iso_count"] == "not_enumerated"
    assert result.consistent


def test_verify_brute_force_beyond_nine_elements():
    v = parse_group_spec("2,2")
    result = verify_baer_kaplansky(v, v, brute_force=True)
    assert result.heap_iso_count == result.truss_iso_count == 24
    assert result.theta_upsilon_roundtrip and result.consistent
    # the 64 x 64 tables fit under 10^4, the isomorphism search does not
    capped = verify_baer_kaplansky(v, v, brute_force=True, max_enum=10**4)
    assert capped.truss_iso_count is None
    assert capped.to_json_dict()["truss_iso_count"] == "not_enumerated"
    assert capped.heap_iso_count == 24
    assert capped.consistent


def test_inner_structure_of_isomorphism_is_trivial():
    swap = next(m for m in as_objects(heap_isos(Z2, Z2), Z2, Z2) if m.translation == (1,))
    phi = truss_iso_from_heap_iso(swap, E2, E2)
    inner = inner_structure(phi)
    assert all(all(v == 0 for v in row) for row in inner.idempotent.matrix)
    assert inner.coset == (inner.offset,)
    assert inner.intertwiners == (swap,)
    assert unique_intertwiner(phi) == swap
    # with a vanishing idempotent, the intertwiner ignores the base point
    for b in Z2.elements():
        assert intertwiner_at(phi, b) == swap


def test_inner_structure_of_collapse_map():
    collapse = TrussMorphism(E2, E2, (0, 0, 0, 0))
    inner = inner_structure(collapse)
    assert inner.offset == (0,)
    assert inner.intertwiners == (constant_morphism(Z2, (0,)),)
    assert unique_intertwiner(collapse) == constant_morphism(Z2, (0,))


def _all_truss_morphisms():
    yield from ((E2, E2, phi) for phi in enumerate_truss_morphisms(E2, E2))
    yield from ((E2, E3, phi) for phi in enumerate_truss_morphisms(E2, E3))


def test_inner_laws_for_every_enumerated_morphism():
    count = 0
    for source, target, phi in _all_truss_morphisms():
        count += 1
        results = check_inner_structure(phi)
        assert all(results.values()), (phi.mapping, results)
        inner = inner_structure(phi)
        h = target.group
        # base-point maps always intertwine, for every b
        for b in h.elements():
            assert intertwiner_at(phi, b) in set(inner.intertwiners)
        # the value at zero pins each intertwiner down: xi == xi_{xi(0)}
        for xi in inner.intertwiners:
            assert intertwiner_at(phi, xi(source.group.zero)) == xi
        # and on the coset the correspondence evaluates to its own index
        for c, xi_c in intertwiner_correspondence(phi, inner):
            assert xi_c(source.group.zero) == c
    assert count == 7 + 4


def test_corollary_unique_intertwiner():
    for source, target, phi in _all_truss_morphisms():
        images = [carrier(target)[j] for j in phi.mapping]
        applicable = any(
            is_constant(images[constant_index(source, a)])
            for a in source.group.elements()
        )
        xi = unique_intertwiner(phi)
        if applicable:
            assert xi is not None
            assert len(inner_structure(phi).intertwiners) == 1
            for i, alpha in enumerate(carrier(source)):
                assert images[i].compose(xi) == xi.compose(alpha)
        else:
            assert xi is None


def test_morphism_sending_all_to_unit_has_no_unique_intertwiner():
    to_unit = TrussMorphism(E2, E2, (E2.unit,) * 4)
    assert unique_intertwiner(to_unit) is None
    assert len(inner_structure(to_unit).intertwiners) == 2


@pytest.mark.parametrize(
    "left,right",
    [([2, 4], [2, 4]), ([2, 4], [8]), ([8], [8]), ([7], [7]), ([5], [2, 3])],
)
def test_verify_sweep_on_larger_groups(left, right):
    result = verify_baer_kaplansky(make_group(left), make_group(right))
    assert result.consistent
    g, h = make_group(left), make_group(right)
    expected_isos = h.cardinality * sum(1 for f in as_objects(hom_enumerate(g, h), g, h) if f.is_bijective)
    assert result.heap_iso_count == expected_isos


def test_trivial_group_and_padded_presentation():
    triv = make_group([])
    result = verify_baer_kaplansky(triv, triv, brute_force=True)
    assert result.heap_iso_count == 1 and result.truss_iso_count == 1
    assert result.consistent
    # an order-1 factor changes the presentation but not the correspondence
    padded = verify_baer_kaplansky(make_group([1, 2]), Z2, brute_force=True)
    assert padded.heap_iso_count == 2 and padded.truss_iso_count == 2
    assert padded.consistent


def test_surjective_semigroup_morphisms_preserve_constants():
    # mult-only morphisms (heap structure ignored), surjective ones
    ms, _ = truss_tables(E2)
    mt = ms
    found = []
    for cand in itertools.product(range(4), repeat=4):
        f = np.array(cand)
        if (f[ms] == mt[f[:, None], f[None, :]]).all() and len(set(cand)) == 4:
            found.append(cand)
    assert found  # at least the two truss automorphisms are here
    cs = set(E2.constant_indices)
    for cand in found:
        assert {cand[i] for i in cs} <= cs


@pytest.mark.parametrize(
    "left,right", [("6", "2,3"), ("2,2", "2,2"), ("8", "8"), ("9", "9"), ("12", "12"), ("2,4", "2,4"), ("16", "16")]
)
def test_conjugation_agrees_with_per_element_composition(left, right):
    g, h = parse_group_spec(left), parse_group_spec(right)
    s, t = build_endo_truss(g), build_endo_truss(h)
    isos = as_objects(heap_isos(g, h), g, h)
    assert isos
    for hm in isos:
        assert tuple(truss_iso_from_heap_iso(hm, s, t).mapping.tolist()) == conjugate_by_composition(hm, s, t)


def test_conjugation_on_linear_endo_truss_agrees_with_per_element_composition():
    # End of F2 x F2 as a module over itself has 4 linear homs on Z/2 x Z/2;
    # a heap iso whose linear part does not normalise them conjugates out of
    # the family, and both routes must then refuse
    field = make_field_fp(2)
    e = build_linear_endo_truss(regular_module(make_product_ring(field, field)))
    assert len(e.homs) == 4
    kept = 0
    for hm in as_objects(heap_isos(e.group, e.group), e.group, e.group):
        try:
            expected = conjugate_by_composition(hm, e, e)
        except ValueError:
            with pytest.raises(ValueError):
                truss_iso_from_heap_iso(hm, e, e)
            continue
        assert tuple(truss_iso_from_heap_iso(hm, e, e).mapping.tolist()) == expected
        kept += 1
    assert 0 < kept < len(heap_isos(e.group, e.group))


def test_morphisms_of_dense_trusses_are_refused():
    # a dense copy of E(Z/2) has truss morphisms of its own, but the
    # correspondence reads the factored tables of endomorphism trusses
    from conftest import to_finite_truss

    from trusskit import equivalence_from_truss_iso, module_zn

    dense = to_finite_truss(E2)
    phi = enumerate_truss_isos(dense, dense)[0]
    for refused in (heap_iso_from_truss_iso, check_inner_structure):
        with pytest.raises(TypeError, match="endomorphism trusses"):
            refused(phi)
    with pytest.raises(TypeError, match="endomorphism trusses"):
        equivalence_from_truss_iso(phi, module_zn(2), module_zn(2))
