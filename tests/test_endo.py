import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import (
    NotAHeapMorphism,
    as_objects,
    carrier,
    constant_index,
    constant_morphism,
    decompose,
    factored_rows_by_composition,
    heap_inverse,
    heap_morphisms,
    heap_ternary,
    heap_values,
    identity_hom,
    identity_morphism,
    index_of,
    is_constant,
    left_absorbers,
    mult,
    row_ids_by_column,
    ternary,
    truss_tables,
    zero_hom,
)

import trusskit.endo
from trusskit import (
    BoundExceeded,
    EndoTruss,
    HeapMorphism,
    build_endo_truss,
    heap_isos,
    make_group,
    parse_group_spec,
)
from trusskit.endo import _bijective_rows, _distinct_rows, _row_ids
from trusskit.groups import (
    GroupHom,
    aut_count,
    groups_isomorphic,
    hom_count,
    hom_enumerate,
    matrix_images,
)

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
    for f in as_objects(hom_enumerate(K4, K4), K4, K4):
        hm = decompose(K4, K4, {x: f(x) for x in K4.elements()})
        assert hm.translation == K4.zero
        assert hm.linear.matrix == f.matrix


@pytest.mark.parametrize("src,dst", [([2], [2]), ([4], [2, 2]), ([2, 4], [4])])
def test_decompose_roundtrip(src, dst):
    g, h = make_group(src), make_group(dst)
    for hm in heap_morphisms(g, h):
        assert decompose(g, h, dict(zip(g.elements(), heap_values(hm)))) == hm


def test_heap_morphism_counts():
    assert len(heap_morphisms(Z2, Z2)) == 4
    assert len(heap_isos(Z2, Z2)) == 2
    assert len(heap_isos(Z3, Z3)) == 6
    assert len(heap_isos(Z4, K4)) == 0
    assert not groups_isomorphic(Z4, K4)


def test_heap_iso_tables_are_refused_over_the_cap():
    # 20 heap isomorphisms of Z/5, 100 table entries, from 25 heap morphisms
    with pytest.raises(BoundExceeded, match="value tables of the heap isomorphisms"):
        heap_isos(make_group([5]), make_group([5]), max_enum=99)
    assert heap_isos(make_group([5]), make_group([5]), max_enum=100).shape == (20, 5)


def test_heap_iso_tables_are_refused_before_hom_is_evaluated(monkeypatch):
    # |Aut(Z/2 x Z/2 x Z/16)| = 768 gives the 768 * 64 * 64 table entries
    # without evaluating any of the 4096 homs
    def evaluated(*args):
        raise AssertionError("Hom(G, H) was evaluated")

    monkeypatch.setattr(trusskit.endo, "hom_enumerate", evaluated)
    monkeypatch.setattr(trusskit.endo, "matrix_images", evaluated)
    g = make_group([2, 2, 16])
    with pytest.raises(BoundExceeded) as info:
        heap_isos(g, g)
    assert str(info.value) == (
        "value tables of the heap isomorphisms Z/2 x Z/2 x Z/16 -> Z/2 x Z/2 x Z/16 "
        "would enumerate 3145728 objects; cap is 1000000 (raise max_enum to override)"
    )
    assert heap_isos(g, make_group([4, 4, 4])).shape == (0, 64)


def _group_types(limit: int, prev: int = 1, size: int = 1):
    """Every finite abelian group of order at most `limit`, once each, as its
    invariant factors d_1 | d_2 | ..."""
    yield ()
    for d in range(max(2, prev), limit // size + 1):
        if d % prev == 0:
            for rest in _group_types(limit, d, size * d):
                yield (d,) + rest


# 109 of the 117 groups of order <= 64: the other eight have more than 2^16
# endomorphisms to evaluate, which takes seconds each; a few of them are
# checked against known orders below
_AUT_GROUPS = [o for o in _group_types(64) if hom_count(make_group(o), make_group(o)) <= 2**16]
_AUT_GROUPS += [(6,), (2, 3), (3, 4, 2), (10, 6), (1, 4, 1), (1,)]


@pytest.mark.parametrize("orders", _AUT_GROUPS, ids=[",".join(map(str, o)) or "trivial" for o in _AUT_GROUPS])
def test_aut_count_matches_the_bijective_homs(orders):
    g = make_group(orders)
    homs = hom_enumerate(g, g, 2**18)
    step = 4096
    found = sum(
        int(_bijective_rows(matrix_images(homs[i : i + step], g, g), g.cardinality).sum())
        for i in range(0, len(homs), step)
    )
    assert aut_count(g) == found


def test_aut_count_of_large_groups_matches_known_orders():
    # |GL_5(F_2)|, |GL_6(F_2)|, |GL_4(F_2)| * |Aut(Z/3)| and |GL_3(Z/4)| = 2^9 |GL_3(F_2)|
    assert len(_AUT_GROUPS) == 109 + 6
    known = {(2,) * 5: 9999360, (2,) * 6: 20158709760, (2, 2, 2, 6): 40320, (4, 4, 4): 86016}
    for orders, count in known.items():
        assert aut_count(make_group(orders)) == count


def test_heap_iso_counts_of_the_benchmark_pairs():
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads

    for (left, right), count in workloads.HEAP_ISO_COUNTS.items():
        g, h = parse_group_spec(left), parse_group_spec(right)
        assert (aut_count(g) * h.cardinality if groups_isomorphic(g, h) else 0) == count
        assert len(heap_isos(g, h)) == count


def test_endo_truss_sizes():
    assert build_endo_truss(Z2).size == 4
    assert build_endo_truss(Z3).size == 9
    assert build_endo_truss(K4).size == 64


def test_unit_is_identity_morphism():
    e = build_endo_truss(Z4)
    assert carrier(e)[e.unit] == identity_morphism(Z4)
    for i in range(e.size):
        assert mult(e, e.unit, i) == i
        assert mult(e, i, e.unit) == i


def test_constants_form_closed_subtruss():
    e = build_endo_truss(Z3)
    cs = set(e.constant_indices)
    assert len(cs) == 3
    for i in cs:
        assert is_constant(carrier(e)[i])
        for j in cs:
            assert mult(e, i, j) == i  # constants absorb on the left
            for k in cs:
                assert ternary(e, i, j, k) in cs


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
    for phi in carrier(e):
        for a in g.elements():
            assert phi.compose(constant_morphism(g, a)) == constant_morphism(g, phi(a))


def test_constant_iff_fixed_by_all_constants():
    g = Z4
    e = build_endo_truss(g)
    for phi in carrier(e):
        fixed = all(
            phi.compose(constant_morphism(g, a)) == phi for a in g.elements()
        )
        assert fixed == is_constant(phi)
        if is_constant(phi):
            for alpha in carrier(e):
                assert phi.compose(alpha) == phi


@pytest.mark.parametrize("orders", [[2], [3], [4], [2, 2]])
def test_left_absorbers_are_the_constants(orders):
    e = build_endo_truss(make_group(orders))
    assert left_absorbers(e) == e.constant_indices


@pytest.mark.parametrize("orders", [[6], [2, 2], [8]])
def test_pair_composition_agrees_with_pointwise(orders):
    g = make_group(orders)
    e = build_endo_truss(g)
    for alpha in carrier(e):
        for beta in carrier(e):
            composite = alpha.compose(beta)
            for x in g.elements():
                assert composite(x) == alpha(beta(x))


def test_pair_ternary_agrees_with_pointwise():
    g = Z4
    e = build_endo_truss(g)
    elems = carrier(e)
    for i in range(0, e.size, 3):
        for j in range(0, e.size, 3):
            for k in range(0, e.size, 3):
                combined = heap_ternary(elems[i], elems[j], elems[k])
                assert ternary(e, i, j, k) == index_of(e, combined)
                for x in g.elements():
                    assert combined(x) == g.ternary(elems[i](x), elems[j](x), elems[k](x))


def test_index_of_roundtrip():
    e = build_endo_truss(K4)
    for i in range(e.size):
        assert index_of(e, carrier(e)[i]) == i
    for a in K4.elements():
        assert carrier(e)[constant_index(e, a)] == constant_morphism(K4, a)


def test_inverse_of_heap_iso():
    for hm in as_objects(heap_isos(Z4, Z4), Z4, Z4):
        inv = heap_inverse(hm)
        for x in Z4.elements():
            assert inv(hm(x)) == x
            assert hm(inv(x)) == x


def test_dense_tables_agree_with_on_demand_operations():
    e = build_endo_truss(make_group([6]))
    mult_table, tern = truss_tables(e)
    for i in range(e.size):
        for j in range(e.size):
            assert int(mult_table[i, j]) == mult(e, i, j)
    for i in range(0, e.size, 5):
        for j in range(0, e.size, 5):
            for k in range(0, e.size, 5):
                assert int(tern[i, j, k]) == ternary(e, i, j, k)


def test_family_missing_zero_raises_on_constants():
    t = EndoTruss(Z2, [identity_hom(Z2).matrix])
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
    return e, [carrier(e)[i] for i in picks]


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
    assert as_objects(heap_isos(g, h), g, h) == filtered


@pytest.mark.parametrize("spec", ["", "6", "2,4", "3,3", "2,2,2"])
def test_hom_positions_agree_with_a_row_lookup(spec):
    import numpy as np

    e = build_endo_truss(parse_group_spec(spec))
    rows = e._generator_images
    lookup = {tuple(row): i for i, row in enumerate(rows.tolist())}
    order = np.random.default_rng(7).permutation(len(rows))
    queries = rows[order].reshape(len(rows), 1, -1)
    assert e.hom_positions(queries).tolist() == [[lookup[tuple(r)]] for r in rows[order].tolist()]


def test_hom_positions_sort_the_family_once(monkeypatch):
    e = build_endo_truss(parse_group_spec("2,4"))
    rows = e._generator_images
    first = e.hom_positions(rows)
    sorts = []
    unique = np.unique
    monkeypatch.setattr(np, "unique", lambda *a, **k: sorts.append(1) or unique(*a, **k))
    assert np.array_equal(e.hom_positions(rows[::-1]), first[::-1])
    assert not sorts


def test_hom_positions_refuse_a_hom_outside_the_family():
    import numpy as np

    # {0, id} on Z/2 x Z/2: the map taking the first generator as id does
    # and the second as 0 does matches one family row per column, not both
    fam = EndoTruss(K4, [zero_hom(K4, K4).matrix, identity_hom(K4).matrix])
    rows = fam._generator_images
    assert fam.hom_positions(rows[[1, 0, 1]]).tolist() == [1, 0, 1]
    with pytest.raises(ValueError, match="not closed"):
        fam.hom_positions(np.array([rows[1, 0], rows[0, 1]]))


@pytest.mark.parametrize("spec", ["6", "2,4", "3,3"])
def test_factored_tables_one_row_per_block_match_the_oracle(spec, monkeypatch):
    monkeypatch.setattr(trusskit.endo, "_QUERY_ENTRIES", 1)
    e = build_endo_truss(parse_group_spec(spec))
    ft = e.factored_tables()
    compose, add = factored_rows_by_composition(e, range(len(e.homs)))
    assert ft.compose.tolist() == compose and ft.add.tolist() == add


def test_factored_tables_of_e_2_2_2_match_one_query_and_the_oracle():
    # built in blocks of rows, the tables equal the single (H, H, rank)
    # query and, on a seeded sample of rows, composition of GroupHoms
    e = build_endo_truss(parse_group_spec("2,2,2"))
    ft = e.factored_tables()
    imgs = e._generator_images
    assert len(e.homs) * len(e.homs) * 3 > trusskit.endo._QUERY_ENTRIES
    assert np.array_equal(ft.compose, e.hom_positions(ft.apply[:, imgs]))
    assert np.array_equal(ft.add, e.hom_positions(ft.gadd[imgs[:, None, :], imgs[None, :, :]]))
    rows = random.Random(222).sample(range(len(e.homs)), 8)
    compose, add = factored_rows_by_composition(e, rows)
    assert ft.compose[rows].tolist() == compose and ft.add[rows].tolist() == add


def test_factored_tables_peak_stays_under_twice_their_bytes():
    e = build_endo_truss(parse_group_spec("2,2,2"))
    tracemalloc.start()
    try:
        ft = e.factored_tables()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * sum(table.nbytes for table in ft)


def test_endo_truss_keeps_a_reduced_int64_stack_and_refuses_bad_families():
    e = EndoTruss(Z4, [[[5]], [[0]], [[3]]])
    assert e.homs.dtype == np.int64 and e.homs.tolist() == [[[1]], [[0]], [[3]]]
    with pytest.raises(ValueError, match="duplicates"):
        EndoTruss(Z4, [[[1]], [[0]], [[5]]])
    with pytest.raises(ValueError, match="endomorphism"):
        EndoTruss(K4, [[[1]]])


def test_endo_truss_refuses_a_matrix_that_is_not_a_homomorphism():
    # [[1, 0], [1, 1]] on Z/2 x Z/4 sends the order-2 generator to (1, 1),
    # of order 4: 2 * 1 is not 0 mod 4
    g = make_group([2, 4])
    homs = hom_enumerate(g, g).tolist()
    assert len(EndoTruss(g, homs).homs) == 32
    with pytest.raises(ValueError, match="not a homomorphism"):
        EndoTruss(g, homs + [[[1, 0], [1, 1]]])


@pytest.mark.parametrize("bound,cols", [(1, 3), (2, 1), (3, 7), (7, 30), (1000, 12), ((1 << 40) - 3, 5), (1 << 56, 3)])
def test_packed_row_ids_equal_renumbering_after_every_column(bound, cols):
    # columns are packed into one int64 code until the next could overflow:
    # 2^40 over 5 columns renumbers after every second column
    rng = np.random.default_rng(bound + cols)
    for count in (0, 1, 2, 57):
        rows = rng.integers(0, bound, (count, cols))
        rows[count // 2 :] = rows[: count - count // 2]  # repeated rows
        rows[: count // 4, : cols // 2] = 0  # and rows sharing a prefix
        for code in (None, rng.integers(0, 5, count), np.arange(count)):
            ids = _row_ids(rows, bound, code)
            assert np.array_equal(ids, row_ids_by_column(rows, bound, code)), (count, code)
        assert not count or _distinct_rows(rows, bound) == len({tuple(r) for r in rows.tolist()})
