import itertools

import numpy as np
import pytest
from conftest import retract_at, retract_iso, scan_heap_associativity, ternary
from hypothesis import given, settings
from hypothesis import strategies as st

import trusskit.heaps
from trusskit import (
    FiniteHeap,
    heap_from_group,
    make_group,
    parse_group_spec,
    validate_heap,
)
from trusskit.groups import np_add_table
from trusskit.heaps import group_ternary, is_abelian_group, walk_chain
from trusskit.validation import Check

SMALL_GROUPS = [[2], [3], [4], [2, 2], [5], [6], [8], [2, 4]]


def test_ternary_from_group_examples():
    z5 = make_group([5])
    h = heap_from_group(z5)
    assert ternary(h, 1, 2, 3) == 2  # 1 - 2 + 3
    k4 = make_group([2, 2])
    hk = heap_from_group(k4)
    i = k4.index
    assert ternary(hk, i((1, 0)), i((1, 1)), i((0, 1))) == i((0, 0))


@pytest.mark.parametrize("orders", [[32], [2, 16], [2, 2, 8], [3, 9], [30], [2, 2, 2, 2, 2], [1], []])
def test_heap_from_group_is_the_coordinate_formula(orders):
    # the gather over the addition table against a - b + c, coordinate by coordinate
    g = make_group(orders)
    elems = list(g.elements())
    expected = [g.index(g.ternary(a, b, c)) for a in elems for b in elems for c in elems]
    assert heap_from_group(g).ternary_table.ravel().tolist() == expected


@pytest.mark.parametrize("orders", SMALL_GROUPS)
def test_group_heaps_validate(orders):
    h = heap_from_group(make_group(orders))
    report = validate_heap(h)
    assert report.passed
    assert report.exhaustive
    assert report.check("abelian").passed


def test_malcev_forced():
    h = heap_from_group(make_group([6]))
    for a in range(6):
        for b in range(6):
            assert ternary(h, a, a, b) == b
            assert ternary(h, b, a, a) == b


def test_validator_flags_malcev_violation():
    # [a,b,c] := a on a 2-element carrier breaks [a,a,b] = b
    table = tuple(a for a in range(2) for _ in range(2) for _ in range(2))
    report = validate_heap(FiniteHeap(2, table))
    check = report.check("malcev")
    assert not check.passed
    assert check.counterexample is not None


def test_validator_rejects_every_single_mutation_z4():
    h = heap_from_group(make_group([4]))
    base = h.ternary_table.ravel().tolist()
    for pos in range(len(base)):
        for wrong in range(4):
            if wrong == base[pos]:
                continue
            mutated = base.copy()
            mutated[pos] = wrong
            assert not validate_heap(FiniteHeap(4, tuple(mutated))).passed


@pytest.mark.parametrize("orders", [[33], [2, 4, 8]], ids=["33", "2,4,8"])
def test_every_law_exhaustive_above_32(orders):
    h = heap_from_group(make_group(orders))
    report = validate_heap(h)
    assert report.passed and report.exhaustive
    assert report.check("associativity").checked == h.size**5


def test_mutated_heap_above_32_fails_exhaustively():
    table = heap_from_group(make_group([33])).ternary_table.ravel().tolist()
    pos = (5 * 33 + 7) * 33 + 11  # [5,7,11] = 9 becomes 10
    table[pos] = (table[pos] + 1) % 33
    bad = FiniteHeap(33, tuple(table))
    report = validate_heap(bad)
    assert not report.passed and report.exhaustive
    ce = report.check("associativity").counterexample
    assert ce is not None and ce == scan_heap_associativity(bad.ternary_table)


def test_retract_at_zero_reproduces_group_table():
    g = make_group([4])
    h = heap_from_group(g)
    r = retract_at(h, 0)
    assert r.identity == 0
    for a in g.elements():
        for b in g.elements():
            assert r.add(g.index(a), g.index(b)) == g.index(g.add(a, b))


def test_retract_at_two_is_isomorphic_group():
    h = heap_from_group(make_group([4]))
    r = retract_at(h, 2)
    assert r.identity == 2
    assert r.is_abelian()
    # a -> [a, 2, 0] carries (carrier, +_2) to (carrier, +_0) additively
    iso = retract_iso(h, 2, 0)
    r0 = retract_at(h, 0)
    assert sorted(iso) == list(range(4))
    for a in range(4):
        for b in range(4):
            assert iso[r.add(a, b)] == r0.add(iso[a], iso[b])


@pytest.mark.parametrize("orders", [[4], [6], [2, 2]])
def test_retract_roundtrip_every_base_point(orders):
    h = heap_from_group(make_group(orders))
    for b in range(h.size):
        assert retract_at(h, b).to_heap() == h


def test_retract_iso_identity_and_swap():
    h2 = heap_from_group(make_group([2]))
    assert retract_iso(h2, 0, 0) == (0, 1)
    assert retract_iso(h2, 0, 1) == (1, 0)


def test_retract_iso_z4_exhaustive_additivity():
    h = heap_from_group(make_group([4]))
    iso = retract_iso(h, 0, 2)
    assert iso == (2, 3, 0, 1)  # a -> a + 2
    r0, r2 = retract_at(h, 0), retract_at(h, 2)
    for a in range(4):
        for b in range(4):
            assert iso[r0.add(a, b)] == r2.add(iso[a], iso[b])


@pytest.mark.parametrize("orders", [[2], [3], [4], [2, 2], [5], [6]])
def test_retract_iso_additive_for_every_base_pair(orders):
    h = heap_from_group(make_group(orders))
    n = h.size
    for b in range(n):
        rb = retract_at(h, b, validate=False)
        for b2 in range(n):
            iso = retract_iso(h, b, b2, validate=False)
            assert sorted(iso) == list(range(n))
            rb2 = retract_at(h, b2, validate=False)
            for x in range(n):
                for y in range(n):
                    assert iso[rb.add(x, y)] == rb2.add(iso[x], iso[y])


def test_validator_rejects_every_single_mutation_order_eight():
    h = heap_from_group(make_group([8]))
    base = h.ternary_table.ravel().tolist()
    for pos in range(len(base)):
        for wrong in range(8):
            if wrong == base[pos]:
                continue
            mutated = base.copy()
            mutated[pos] = wrong
            assert not validate_heap(FiniteHeap(8, tuple(mutated))).passed


def test_retract_rejects_invalid_heap():
    table = tuple(a for a in range(2) for _ in range(2) for _ in range(2))
    bad = FiniteHeap(2, table)
    report = validate_heap(bad)
    assert not (report.check("malcev").passed and report.check("associativity").passed)
    with pytest.raises(ValueError):
        retract_at(bad, 0)


def test_heap_json_roundtrip():
    h = heap_from_group(make_group([3]))
    assert FiniteHeap.from_json_dict(h.to_json_dict()) == h
    with pytest.raises(ValueError):
        FiniteHeap.from_json_dict({"size": 2})
    with pytest.raises(ValueError):
        FiniteHeap(2, (0,) * 7)
    with pytest.raises(ValueError):
        FiniteHeap(2, (0, 0, 0, 0, 0, 0, 0, 9))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=2))
def test_heaps_from_groups_always_validate(orders):
    report = validate_heap(heap_from_group(make_group(orders)))
    assert report.passed


@pytest.mark.parametrize("spec", ["8", "2,4", "2,2,2"])
def test_associativity_certificate_agrees_with_scan_on_every_mutation(spec):
    # every single-entry mutation of the heap table: the retract certificate
    # must give the same verdict and counterexample as the n^5 scan, and
    # Mal'cev and abelian (read off the retract once it certifies) the same
    # as the dense compares
    h = heap_from_group(parse_group_spec(spec))
    n = h.size
    idx = np.arange(n)
    base = h.ternary_table.flatten()
    failures = dict.fromkeys(["associativity", "malcev", "abelian"], 0)
    for pos in range(base.size):
        for wrong in range(n):
            if wrong == base[pos]:
                continue
            table = base.copy()
            table[pos] = wrong
            T = table.reshape(n, n, n)
            report = validate_heap(FiniteHeap(n, tuple(table.tolist())))
            assoc = report.check("associativity")
            expected = scan_heap_associativity(T)
            assert (assoc.passed, assoc.counterexample) == (expected is None, expected), pos
            assert assoc.exhaustive and assoc.checked == n**5
            dense = {
                "malcev": (T[idx[:, None], idx[:, None], idx] != idx) | (T[idx, idx[:, None], idx[:, None]] != idx),
                "abelian": T != T.transpose(2, 1, 0),
            }
            for law, bad in dense.items():
                check = report.check(law)
                expected = tuple(int(x) for x in np.argwhere(bad)[0]) if bad.any() else None
                assert (check.passed, check.counterexample, check.checked) == (expected is None, expected, bad.size)
            for law in failures:
                failures[law] += not report.check(law).passed
    assert all(failures.values()), failures


def test_valid_and_associative_tables_need_no_scan(monkeypatch):
    # the certificate alone passes every group heap, with no n^5 scan, no
    # n^3 transposed compare and no ternary table built, and a table that is
    # associative but not Mal'cev; the scan is only for failing tables
    def no_scan(*args):
        raise AssertionError("scanned a table the certificate should pass")

    heaps = [heap_from_group(parse_group_spec(spec)) for spec in ["", "2", "8", "2,4", "3,3", "2,2,2", "33"]]
    monkeypatch.setattr(trusskit.heaps, "_assoc_scan", no_scan)
    first = FiniteHeap(3, tuple(a for a in range(3) for _ in range(9)))  # [a,b,c] = a
    report = validate_heap(first)
    assert report.check("associativity").passed and not report.check("malcev").passed
    monkeypatch.setattr(trusskit.heaps, "_abelian_check", no_scan)
    monkeypatch.setattr(trusskit.heaps, "group_ternary", no_scan)
    for h in heaps:
        assert validate_heap(h).passed


def test_a_non_abelian_group_is_certified_associative_and_not_abelian():
    # the heap a b^-1 c of S_3: its retract, S_3 itself, certifies
    # associativity, and is not commutative, so abelian falls to the dense
    # compare for its first counterexample; S_3's table is no abelian group's
    perms = list(itertools.permutations(range(3)))  # the identity first
    mul = np.array([[perms.index(tuple(p[i] for i in q)) for q in perms] for p in perms])
    T = group_ternary(mul)
    report = validate_heap(FiniteHeap(6, T))
    assert report.check("malcev").passed and report.check("associativity").passed
    abelian = report.check("abelian")
    assert abelian.counterexample == tuple(int(x) for x in np.argwhere(T != T.transpose(2, 1, 0))[0])
    assert not is_abelian_group(mul, 0)
    assert is_abelian_group(np_add_table(make_group([6])), 0)


def test_non_associative_retract_is_not_certified():
    # [a,b,c] = (a*b)*c over a magma with identity 0 that is not associative:
    # the table factors through its retract, so only the retract's own
    # associativity check can reject it
    magma = np.array([[0, 1, 2], [1, 0, 0], [2, 0, 0]])
    T = magma[magma]
    report = validate_heap(FiniteHeap(3, tuple(T.reshape(-1).tolist())))
    assoc = report.check("associativity")
    assert not assoc.passed
    assert assoc.counterexample == scan_heap_associativity(T) == (0, 1, 0, 1, 2)


def test_a_retract_whose_cosets_overlap_stops_the_walk_and_reports_every_law():
    # A[x, y] = 0 if x == y else max(x, y), and [a,b,c] = A[a,c]: the chain
    # walk meets an element twice at its second generator and raises, so
    # `order` stays within the carrier (unchecked, it would double with
    # each generator); Light's test then runs on every element, Mal'cev and
    # associativity report what the dense compare and the scan report, and
    # abelian (A is symmetric) passes on the transposed compare
    n = 40
    idx = np.arange(n)
    A = np.where(idx[:, None] == idx, 0, np.maximum(idx[:, None], idx))
    with pytest.raises(ValueError, match="cosets of a generator overlap"):
        walk_chain(A, 0)
    T = np.broadcast_to(A[:, None, :], (n, n, n))
    report = validate_heap(FiniteHeap(n, T))
    malcev = (T[idx[:, None], idx[:, None], idx] != idx) | (T[idx, idx[:, None], idx[:, None]] != idx)
    assert report.check("malcev").counterexample == tuple(int(x) for x in np.argwhere(malcev)[0])
    assert report.check("associativity").counterexample == scan_heap_associativity(T)
    assert report.check("abelian") == Check("abelian", True, True, n**3)
    assert [check.passed for check in report.checks] == [False, False, True]
