import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import decompose, heap_morphisms, heap_ternary, left_absorbers

from trusskit import (
    BoundExceeded,
    EndoTruss,
    HeapMorphism,
    NotAHeapMorphism,
    build_endo_truss,
    constant_morphism,
    heap_isos,
    hom_enumerate,
    identity_hom,
    identity_morphism,
    make_group,
    groups_isomorphic,
    parse_group_spec,
)
from trusskit.groups import GroupHom

Z2 = make_group([2])
Z3 = make_group([3])
Z4 = make_group([4])
K4 = make_group([2, 2])


def test_evaluation():
    ident = identity_morphism(Z4)
    assert ident((3,)) == (3,)
    const = constant_morphism(Z4, (2,))
    for x in Z4.elements():
        assert const(x) == (2,)
    affine = HeapMorphism(GroupHom(Z4, Z4, ((2,),)), (1,))
    assert affine((3,)) == (3,)  # 2*3 + 1 = 7 = 3 mod 4


def test_decompose_translation():
    values = {x: Z4.add(x, (1,)) for x in Z4.elements()}
    hm = decompose(Z4, Z4, values)
    assert hm.linear.matrix == identity_hom(Z4).matrix
    assert hm.translation == (1,)


def test_decompose_rejects_squaring():
    values = {x: ((x[0] * x[0]) % 4,) for x in Z4.elements()}  # table 0,1,0,1
    assert [values[x] for x in Z4.elements()] == [(0,), (1,), (0,), (1,)]
    with pytest.raises(NotAHeapMorphism):
        decompose(Z4, Z4, values)


def test_decompose_additive_map_has_zero_translation():
    for f in hom_enumerate(K4, K4):
        hm = decompose(K4, K4, {x: f(x) for x in K4.elements()})
        assert hm.translation == K4.zero
        assert hm.linear.matrix == f.matrix


@pytest.mark.parametrize("src,dst", [([2], [2]), ([4], [2, 2]), ([2, 4], [4])])
def test_decompose_roundtrip(src, dst):
    g, h = make_group(src), make_group(dst)
    for hm in heap_morphisms(g, h):
        assert decompose(g, h, dict(zip(g.elements(), hm.values()))) == hm


def test_heap_morphism_counts():
    assert len(heap_morphisms(Z2, Z2)) == 4
    assert len(heap_isos(Z2, Z2)) == 2
    assert len(heap_isos(Z3, Z3)) == 6
    assert len(heap_isos(Z4, K4)) == 0
    assert not groups_isomorphic(Z4, K4)


def test_endo_truss_sizes():
    assert build_endo_truss(Z2).size == 4
    assert build_endo_truss(Z3).size == 9
    assert build_endo_truss(K4).size == 64


def test_unit_is_identity_morphism():
    e = build_endo_truss(Z4)
    assert e.carrier[e.unit] == identity_morphism(Z4)
    for i in range(e.size):
        assert e.mult(e.unit, i) == i
        assert e.mult(i, e.unit) == i


def test_constants_form_closed_subtruss():
    e = build_endo_truss(Z3)
    cs = set(e.constant_indices)
    assert len(cs) == 3
    for i in cs:
        assert e.carrier[i].is_constant
        for j in cs:
            assert e.mult(i, j) == i  # constants absorb on the left
            for k in cs:
                assert e.ternary(i, j, k) in cs


def test_hat_laws():
    g = Z4
    e = build_endo_truss(g)
    for a in g.elements():
        for b in g.elements():
            ha, hb = constant_morphism(g, a), constant_morphism(g, b)
            assert ha.compose(hb) == ha
            for c in g.elements():
                hc = constant_morphism(g, c)
                assert heap_ternary(ha, hb, hc) == constant_morphism(g, g.ternary(a, b, c))
    # phi o (constant at a) = constant at phi(a)
    for phi in e.carrier:
        for a in g.elements():
            assert phi.compose(constant_morphism(g, a)) == constant_morphism(g, phi(a))


def test_constant_iff_fixed_by_all_constants():
    g = Z4
    e = build_endo_truss(g)
    for phi in e.carrier:
        fixed = all(
            phi.compose(constant_morphism(g, a)) == phi for a in g.elements()
        )
        assert fixed == phi.is_constant
        if phi.is_constant:
            for alpha in e.carrier:
                assert phi.compose(alpha) == phi


@pytest.mark.parametrize("orders", [[2], [3], [4], [2, 2]])
def test_left_absorbers_are_the_constants(orders):
    e = build_endo_truss(make_group(orders))
    assert left_absorbers(e) == e.constant_indices


@pytest.mark.parametrize("orders", [[6], [2, 2], [8]])
def test_pair_composition_agrees_with_pointwise(orders):
    g = make_group(orders)
    e = build_endo_truss(g)
    for alpha in e.carrier:
        for beta in e.carrier:
            composite = alpha.compose(beta)
            for x in g.elements():
                assert composite(x) == alpha(beta(x))


def test_pair_ternary_agrees_with_pointwise():
    g = Z4
    e = build_endo_truss(g)
    carrier = e.carrier
    for i in range(0, e.size, 3):
        for j in range(0, e.size, 3):
            for k in range(0, e.size, 3):
                combined = heap_ternary(carrier[i], carrier[j], carrier[k])
                assert e.ternary(i, j, k) == e.index_of(combined)
                for x in g.elements():
                    assert combined(x) == g.ternary(carrier[i](x), carrier[j](x), carrier[k](x))


def test_index_of_roundtrip():
    e = build_endo_truss(K4)
    for i in range(e.size):
        assert e.index_of(e.carrier[i]) == i
    for a in K4.elements():
        assert e.carrier[e.constant_index(a)] == constant_morphism(K4, a)


def test_inverse_of_heap_iso():
    for hm in heap_isos(Z4, Z4):
        inv = hm.inverse()
        for x in Z4.elements():
            assert inv(hm(x)) == x
            assert hm(inv(x)) == x


def test_dense_tables_agree_with_on_demand_operations():
    e = build_endo_truss(make_group([6]))
    mult, tern = e._dense_tables()
    for i in range(e.size):
        for j in range(e.size):
            assert int(mult[i, j]) == e.mult(i, j)
    for i in range(0, e.size, 5):
        for j in range(0, e.size, 5):
            for k in range(0, e.size, 5):
                assert int(tern[i, j, k]) == e.ternary(i, j, k)


def test_dense_cache_does_not_bypass_the_cap():
    e = build_endo_truss(make_group([12]))  # n = 144, n^3 over the default cap
    e._dense_tables(10**9)
    with pytest.raises(BoundExceeded):
        e._dense_tables()


def test_family_missing_zero_raises_on_constants():
    t = EndoTruss(Z2, (identity_hom(Z2),))
    with pytest.raises(ValueError):
        _ = t.constant_indices


def test_heap_morphism_json():
    hm = HeapMorphism(GroupHom(Z4, Z4, ((3,),)), (2,))
    assert hm.to_json_dict() == {"linear": [[3]], "translation": [2]}


@st.composite
def _endo_with_morphisms(draw, count):
    orders = draw(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=2))
    e = build_endo_truss(make_group(orders))
    picks = [draw(st.integers(min_value=0, max_value=e.size - 1)) for _ in range(count)]
    return e, [e.carrier[i] for i in picks]


@settings(max_examples=80, deadline=None)
@given(_endo_with_morphisms(4))
def test_composition_distributes_over_ternary(data):
    e, (alpha, beta, gamma, delta) = data
    combined = heap_ternary(alpha, beta, gamma)
    assert delta.compose(combined) == heap_ternary(
        delta.compose(alpha), delta.compose(beta), delta.compose(gamma)
    )
    assert combined.compose(delta) == heap_ternary(
        alpha.compose(delta), beta.compose(delta), gamma.compose(delta)
    )


@settings(max_examples=60, deadline=None)
@given(_endo_with_morphisms(5))
def test_morphism_level_heap_axioms(data):
    e, (a, b, c, d, x) = data
    assert heap_ternary(a, a, b) == b
    assert heap_ternary(b, a, a) == b
    assert heap_ternary(a, b, c) == heap_ternary(c, b, a)
    assert heap_ternary(heap_ternary(a, b, c), d, x) == heap_ternary(a, b, heap_ternary(c, d, x))
    assert a.compose(b).compose(c) == a.compose(b.compose(c))


@pytest.mark.parametrize(
    "left,right",
    [("2", "2"), ("4", "2,2"), ("6", "2,3"), ("2,2", "2,2"), ("8", "8"), ("2,4", "2,4"),
     ("9", "3,3"), ("12", "12"), ("3", "1,3")],
)
def test_heap_isos_match_filtered_heap_morphisms(left, right):
    g, h = parse_group_spec(left), parse_group_spec(right)
    filtered = tuple(m for m in heap_morphisms(g, h) if m.is_isomorphism)
    assert heap_isos(g, h) == filtered


@pytest.mark.parametrize("spec", ["", "6", "2,4", "3,3", "2,2,2"])
def test_hom_positions_agree_with_a_row_lookup(spec):
    import numpy as np

    e = build_endo_truss(parse_group_spec(spec))
    rows = e._generator_images
    lookup = {tuple(row): i for i, row in enumerate(rows.tolist())}
    order = np.random.default_rng(7).permutation(len(rows))
    queries = rows[order].reshape(len(rows), 1, -1)
    assert e.hom_positions(queries).tolist() == [[lookup[tuple(r)]] for r in rows[order].tolist()]


def test_hom_positions_refuse_a_hom_outside_the_family():
    import numpy as np

    from trusskit import zero_hom

    # {0, id} on Z/2 x Z/2: the map taking the first generator as id does
    # and the second as 0 does matches one family row per column, not both
    fam = EndoTruss(K4, (zero_hom(K4, K4), identity_hom(K4)))
    rows = fam._generator_images
    assert fam.hom_positions(rows[[1, 0, 1]]).tolist() == [1, 0, 1]
    with pytest.raises(ValueError, match="not closed"):
        fam.hom_positions(np.array([rows[1, 0], rows[0, 1]]))
