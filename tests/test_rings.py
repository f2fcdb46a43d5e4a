import numpy as np
import pytest
from conftest import (
    find_ring_isomorphism,
    last_generator_breaker,
    ring_by_callable,
    ring_law_masks,
    ring_report_dense,
    ring_table,
)

from trusskit import (
    make_field_fp,
    make_group,
    make_product_ring,
    make_ring_zn,
    ring_as_truss,
    validate_ring,
    validate_truss,
)
from trusskit.groups import np_add_table
from trusskit.rings import FiniteRing, additivity_failures, is_prime


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
    table = z4.mult_table.ravel().tolist()
    table[5] = (table[5] + 2) % 4  # 1*1 becomes 3
    bad = FiniteRing(z4.additive, tuple(table), z4.one)
    report = validate_ring(bad)
    assert not report.passed


def test_make_ring_rejects_broken_mult():
    g = make_group([4])
    with pytest.raises(ValueError):
        ring_by_callable(g, lambda a, b: ((a[0] + b[0]) % 4,), (1,))  # addition is not a ring product


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


def _product_mult(r, s):
    kr = r.additive.rank
    return lambda a, b: r.mul(a[:kr], b[:kr]) + s.mul(a[kr:], b[kr:])


@pytest.mark.parametrize("n", range(1, 41))
def test_zn_table_matches_the_callable_oracle(n):
    r = make_ring_zn(n)
    assert tuple(r.mult_table.ravel().tolist()) == ring_table(r.additive, lambda a, b: ((a[0] * b[0]) % n,))
    assert r.one == (1 % n,)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_field_and_product_tables_match_the_callable_oracle(p):
    f = make_field_fp(p)
    assert tuple(f.mult_table.ravel().tolist()) == ring_table(f.additive, lambda a, b: ((a[0] * b[0]) % p,))
    for left, right in [(f, f), (f, make_ring_zn(4)), (make_ring_zn(6), f)]:
        r = make_product_ring(left, right)
        assert r.additive.orders == left.additive.orders + right.additive.orders
        assert tuple(r.mult_table.ravel().tolist()) == ring_table(r.additive, _product_mult(left, right))
        assert r.one == left.one + right.one
    r = make_product_ring(make_product_ring(f, make_ring_zn(2)), f)
    assert tuple(r.mult_table.ravel().tolist()) == ring_table(r.additive, _product_mult(make_product_ring(f, make_ring_zn(2)), f))


def ring_mutations(r: FiniteRing):
    """Every ring with one multiplication entry of r changed, unvalidated."""
    for pos, old in enumerate(r.mult_table.ravel().tolist()):
        for new in range(r.size):
            if new != old:
                table = r.mult_table.ravel().tolist()
                table[pos] = new
                yield FiniteRing(r.additive, tuple(table), r.one)


RINGS = {
    "zn:4": lambda: make_ring_zn(4),
    "zn:6": lambda: make_ring_zn(6),
    "f2xf2": lambda: make_product_ring(make_field_fp(2), make_field_fp(2)),
    "z2xz3": lambda: make_product_ring(make_ring_zn(2), make_ring_zn(3)),
    "zn:1": lambda: make_ring_zn(1),
}


@pytest.mark.parametrize("name", sorted(RINGS))
def test_ring_report_matches_the_dense_oracle_on_every_mutation(name):
    # the certificates, and the lexicographic scans behind their failures,
    # give the dense arrays' verdicts and first counterexamples; a ring whose
    # distributivity fails is scanned for associativity in full, since its
    # generator triples prove nothing then
    r = RINGS[name]()
    cases = 0
    for ring in [r, *ring_mutations(r)]:
        assert validate_ring(ring) == ring_report_dense(ring)
        cases += 1
    assert cases == 1 + r.size**2 * (r.size - 1)


@pytest.mark.parametrize("name", ["zn:4", "zn:6", "f2xf2", "z2xz3"])
def test_ring_certificates_over_the_dense_cap_report_genuine_counterexamples(name):
    # with n^2 under the cap and n^3 over it, a failed certificate reports
    # its own case, a counterexample of the law all the same
    r = RINGS[name]()
    cap = r.size**3 - 1
    for ring in ring_mutations(r):
        report, dense = validate_ring(ring, cap), ring_report_dense(ring)
        masks = ring_law_masks(ring)
        for check, want in zip(report.checks, dense.checks):
            assert (check.law, check.passed, check.exhaustive) == (want.law, want.passed, True)
            if not check.passed:
                assert masks[check.law][check.counterexample]


def test_additivity_certificate_needs_every_generator():
    g = make_group([2, 3])
    add = np_add_table(g)
    F = np.array([last_generator_breaker(g)])
    assert additivity_failures(F, add, add, g.generators).any()
    assert not additivity_failures(F, add, add, g.generators[:-1]).any()
    # as a row and as a column of Z/2 x Z/3's multiplication, it breaks
    # one distributivity, which a certificate without (0, 1) would miss
    r = make_product_ring(make_ring_zn(2), make_ring_zn(3))
    for law, transpose in (("left-distributivity", False), ("right-distributivity", True)):
        M = np.array(r.mult_table).reshape(6, 6)
        M = M.T.copy() if transpose else M
        M[5] = last_generator_breaker(g)
        bad = FiniteRing(r.additive, tuple((M.T if transpose else M).reshape(-1).tolist()), r.one)
        report = validate_ring(bad)
        assert report == ring_report_dense(bad)
        assert not report.check(law).passed
