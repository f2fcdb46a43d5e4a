import pytest
import numpy as np
from conftest import (
    as_objects,
    brute_force_group_iso_exists,
    brute_force_hom_count,
    hom_add,
    hom_enumerate_by_loop,
    identity_hom,
    invert_hom,
    zero_hom,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from trusskit import BoundExceeded, decompose_abelian, make_group, parse_group_spec
from trusskit.groups import (
    GroupHom,
    compose_homs,
    group_to_json,
    groups_isomorphic,
    hom_count,
    hom_enumerate,
    invariant_factors,
    np_add_table,
    np_elements,
)


def test_make_group_basics():
    assert make_group([2]).cardinality == 2
    assert make_group([2, 2]).cardinality == 4
    assert make_group([]).cardinality == 1
    assert make_group([1, 1]).cardinality == 1


@pytest.mark.parametrize("orders", [[0], [-1], [2, 0]])
def test_make_group_rejects_nonpositive(orders):
    with pytest.raises(ValueError):
        make_group(orders)


def test_arithmetic():
    z4 = make_group([4])
    assert z4.add((3,), (2,)) == (1,)
    assert z4.sub((1,), (3,)) == (2,)
    assert z4.neg((3,)) == (1,)
    k4 = make_group([2, 2])
    assert k4.add((1, 0), (1, 1)) == (0, 1)
    for a in k4.elements():
        assert k4.add(a, k4.zero) == a
    with pytest.raises(ValueError):
        z4.add((1,), (0, 0))


def test_enumeration_order():
    assert tuple(make_group([2]).elements()) == ((0,), (1,))
    assert tuple(make_group([2, 2]).elements()) == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert tuple(make_group([]).elements()) == ((),)


def test_index_roundtrip():
    g = make_group([2, 3, 4])
    for i, e in enumerate(g.elements()):
        assert g.index(e) == i
        assert g.element_at(i) == e


def test_hom_enumerate_examples():
    z2, z3, z4 = make_group([2]), make_group([3]), make_group([4])
    homs = hom_enumerate(z2, z4)
    assert homs.dtype == np.int64 and homs.shape == (2, 1, 1)
    assert [h.matrix for h in as_objects(homs, z2, z4)] == [((0,),), ((2,),)]
    assert len(hom_enumerate(z2, z3)) == 1  # only the zero map
    assert len(hom_enumerate(make_group([2, 2]), make_group([2, 2]))) == 16


@pytest.mark.parametrize(
    "src,dst",
    [([2], [4]), ([2], [3]), ([2, 2], [2, 2]), ([2, 2], [4]), ([6], [6]),
     ([3], [9]), ([4], [4]), ([2], [16])],
)
def test_hom_count_against_function_filter(src, dst):
    g, h = make_group(src), make_group(dst)
    expected = brute_force_hom_count(g, h)
    assert hom_count(g, h) == expected
    assert len(hom_enumerate(g, h)) == expected


def test_hom_application_and_composition():
    z4 = make_group([4])
    ident = identity_hom(z4)
    assert ident((3,)) == (3,)
    doubling = GroupHom(z4, z4, ((2,),))
    assert doubling((3,)) == (2,)
    squared = compose_homs(doubling, doubling)
    for x in z4.elements():
        assert squared(x) == doubling(doubling(x))
        assert squared(x) == (0,)  # 4x = 0 in Z/4


def test_hom_rejects_ill_defined_matrix():
    z2, z4 = make_group([2]), make_group([4])
    with pytest.raises(ValueError):
        GroupHom(z2, z4, ((1,),))  # 2*1 != 0 mod 4


def test_homs_are_additive():
    g, h = make_group([2, 4]), make_group([8])
    for f in as_objects(hom_enumerate(g, h), g, h):
        for a in g.elements():
            for b in g.elements():
                assert f(g.add(a, b)) == h.add(f(a), f(b))


def test_invariant_factors():
    assert invariant_factors(make_group([2, 4])).orders == (2, 4)
    assert invariant_factors(make_group([6, 2])).orders == (2, 6)
    assert invariant_factors(make_group([1, 1])).orders == ()
    assert invariant_factors(make_group([6])).orders == (6,)
    assert invariant_factors(make_group([2, 3])).orders == (6,)


def test_isomorphism_agrees_with_bijection_search():
    pairs = [([6], [2, 3]), ([4], [2, 2]), ([2, 2], [2, 2]), ([8], [2, 4]), ([4], [4])]
    for left, right in pairs:
        g, h = make_group(left), make_group(right)
        assert groups_isomorphic(g, h) == brute_force_group_iso_exists(g, h)


def test_invert_hom():
    g = make_group([2, 4])
    for f in as_objects(hom_enumerate(g, g), g, g):
        if not f.is_bijective:
            continue
        inv = invert_hom(f)
        for x in g.elements():
            assert inv(f(x)) == x
            assert f(inv(x)) == x


def test_zero_hom_first_in_enumeration():
    g, h = make_group([4]), make_group([2, 4])
    assert as_objects(hom_enumerate(g, h), g, h)[0].matrix == zero_hom(g, h).matrix


# the trivial group, order-1 factors, coprime and nested orders, and ranks 1-3
DIFFERENTIAL_GROUPS = ["", "1", "2", "3", "4", "6", "8", "9", "12", "1,3", "2,2", "2,3", "2,4", "3,3", "3,9", "4,8", "2,2,2"]


def test_hom_enumerate_matches_the_loop_on_every_pair():
    for left in DIFFERENTIAL_GROUPS:
        g = parse_group_spec(left)
        for right in DIFFERENTIAL_GROUPS:
            h = parse_group_spec(right)
            stack = hom_enumerate(g, h)
            assert stack.dtype == np.int64 and stack.shape == (hom_count(g, h), h.rank, g.rank)
            assert stack.tolist() == [[list(row) for row in f.matrix] for f in hom_enumerate_by_loop(g, h)]


def test_group_spec_parsing():
    assert parse_group_spec("2,2").orders == (2, 2)
    assert parse_group_spec("").orders == ()
    with pytest.raises(ValueError):
        parse_group_spec("2,x")
    with pytest.raises(ValueError):
        parse_group_spec("0")


def test_group_json_roundtrip():
    g = make_group([2, 6])
    assert make_group(group_to_json(g)["orders"]) == g


@pytest.mark.parametrize("orders", [[6], [2, 4], [2, 2], [12], [2, 2, 3]])
def test_decompose_abelian_recovers_structure(orders):
    g = make_group(orders)
    carrier = list(g.elements())
    pres = decompose_abelian(carrier, g.add, g.zero)
    assert pres.group.cardinality == g.cardinality
    assert groups_isomorphic(pres.group, g)
    # the chart must be an additive bijection
    assert len(pres.to_coords) == g.cardinality
    for a in carrier:
        for b in carrier:
            lhs = pres.to_coords[g.add(a, b)]
            rhs = pres.group.add(pres.to_coords[a], pres.to_coords[b])
            assert lhs == rhs
    for coords, elem in pres.from_coords.items():
        assert pres.to_coords[elem] == coords


def test_decompose_abelian_on_hom_group():
    g = make_group([4])
    homs = list(as_objects(hom_enumerate(g, g), g, g))
    pres = decompose_abelian(homs, hom_add, zero_hom(g, g))
    assert pres.group.orders == (4,)


orders_strategy = st.lists(st.integers(min_value=1, max_value=6), min_size=0, max_size=3)


@settings(max_examples=60, deadline=None)
@given(orders_strategy)
def test_invariant_factors_idempotent_and_cardinality(orders):
    g = make_group(orders)
    normal = invariant_factors(g)
    assert normal.cardinality == g.cardinality
    assert invariant_factors(normal).orders == normal.orders
    assert all(normal.orders[i] and normal.orders[i + 1] % normal.orders[i] == 0
               for i in range(len(normal.orders) - 1))


@settings(max_examples=40, deadline=None)
@given(orders_strategy, st.data())
def test_ternary_is_malcev(orders, data):
    g = make_group(orders)
    elems = list(g.elements())
    a = data.draw(st.sampled_from(elems))
    b = data.draw(st.sampled_from(elems))
    assert g.ternary(a, a, b) == b
    assert g.ternary(b, a, a) == b
    c = data.draw(st.sampled_from(elems))
    assert g.ternary(a, b, c) == g.ternary(c, b, a)


@pytest.mark.parametrize("orders", [(), (1,), (6,), (2, 4), (3, 1, 2), (2, 2, 2)])
def test_np_elements_lists_the_elements_once_read_only(orders):
    g = make_group(orders)
    elems = np_elements(g)
    assert elems.dtype == np.int64 and elems.shape == (g.cardinality, g.rank)
    assert [tuple(row) for row in elems.tolist()] == list(g.elements())
    assert np_elements(g) is elems and not elems.flags.writeable


@pytest.mark.parametrize("orders", [(), (1,), (6,), (2, 4), (3, 1, 2), (2, 2, 2)])
def test_np_add_table_is_built_once_read_only_and_guarded_on_every_call(orders):
    g = make_group(orders)
    table = np_add_table(g)
    elems = list(g.elements())
    assert table.tolist() == [[g.index(g.add(a, b)) for b in elems] for a in elems]
    assert np_add_table(g) is table and not table.flags.writeable
    n = g.cardinality
    if n > 1:  # a cap must be positive
        with pytest.raises(BoundExceeded, match="addition table"):
            np_add_table(g, max_enum=n * n - 1)
    assert np_add_table(g, max_enum=n * n) is table
