import pytest
from conftest import find_ring_isomorphism

from trusskit import (
    make_field_fp,
    make_group,
    make_product_ring,
    make_ring_zn,
    ring_as_truss,
    validate_ring,
    validate_truss,
)
from trusskit.rings import FiniteRing, is_prime, make_ring


def test_zn_and_field_factories():
    z4 = make_ring_zn(4)
    assert z4.size == 4
    assert z4.one == (1,)
    assert z4.mul((3,), (3,)) == (1,)
    assert validate_ring(z4).passed
    f2 = make_field_fp(2)
    assert f2.size == 2
    with pytest.raises(ValueError):
        make_field_fp(4)
    with pytest.raises(ValueError):
        make_field_fp(1)


def test_zero_ring():
    r = make_ring_zn(1)
    assert r.size == 1
    assert validate_ring(r).passed


def test_prime_detection():
    assert [p for p in range(1, 20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]


def test_product_ring_componentwise():
    f2 = make_field_fp(2)
    r = make_product_ring(f2, f2)
    assert r.size == 4
    assert r.one == (1, 1)
    assert r.mul((1, 0), (0, 1)) == (0, 0)
    assert r.mul((1, 1), (1, 0)) == (1, 0)
    assert validate_ring(r).passed


def test_validator_catches_corruption():
    z4 = make_ring_zn(4)
    table = list(z4.mult_table)
    table[5] = (table[5] + 2) % 4  # 1*1 becomes 3
    bad = FiniteRing(z4.additive, tuple(table), z4.one)
    report = validate_ring(bad)
    assert not report.passed


def test_make_ring_rejects_broken_mult():
    g = make_group([4])
    with pytest.raises(ValueError):
        make_ring(g, lambda a, b: ((a[0] + b[0]) % 4,), (1,))  # addition is not a ring product


def test_ring_as_truss():
    t = ring_as_truss(make_ring_zn(4))
    report = validate_truss(t)
    assert report.passed


def test_ring_isomorphism_search():
    z4 = make_ring_zn(4)
    f2 = make_field_fp(2)
    r = make_product_ring(f2, f2)
    assert find_ring_isomorphism(z4, z4) is not None
    assert find_ring_isomorphism(z4, r) is None  # additive groups differ
    assert find_ring_isomorphism(r, r) is not None
    assert find_ring_isomorphism(z4, make_ring_zn(5)) is None


def test_ring_json_roundtrip():
    r = make_product_ring(make_field_fp(2), make_field_fp(3))
    assert FiniteRing.from_json_dict(r.to_json_dict()) == r
    with pytest.raises(ValueError):
        FiniteRing.from_json_dict({"orders": [2], "mult": [0, 0, 0, 1]})
