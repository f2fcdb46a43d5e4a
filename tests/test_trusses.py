import itertools
import random

import numpy as np
import pytest
from conftest import (
    as_objects,
    dense_preserves,
    dense_truss_checks,
    identity_truss_morphism,
    is_truss_morphism,
    left_absorbers,
    retract_affine,
    retract_preserves,
    scan_distributivity,
    scan_heap_associativity,
    to_finite_truss,
    truss_tables,
    walk_chain_by_cosets,
)

import trusskit.heaps
import trusskit.trusses
from trusskit import (
    BoundExceeded,
    FiniteHeap,
    FiniteTruss,
    build_endo_truss,
    enumerate_truss_isos,
    enumerate_truss_morphisms,
    example_non_iso,
    heap_isos,
    make_field_fp,
    make_group,
    make_product_ring,
    make_ring_zn,
    module_zn,
    parse_group_spec,
    regular_module,
    ring_as_truss,
    truss_iso_from_heap_iso,
    truss_morphism_preserves,
    validate_truss,
)
from trusskit.baer_kaplansky import conjugate_rows
from trusskit.endo import EndoTruss
from trusskit.modules import build_linear_endo_truss
from trusskit.trusses import TrussMorphism, affine_rows, preserving_rows, walk_chain

# count of truss endomorphisms of E(Z/2) among all 4^4 maps, frozen from the
# exhaustive oracle (re-derived below against the plain-loop checker)
E2_ENDO_COUNT = 7


def test_ring_viewed_as_truss_is_valid():
    t = ring_as_truss(make_ring_zn(4))
    report = validate_truss(t)
    assert report.passed and report.exhaustive
    assert t.unit == 1


def test_corrupted_mult_entry_is_located():
    t = ring_as_truss(make_ring_zn(4))
    table = t.mult_table.ravel().tolist()
    table[6] = (table[6] + 1) % 4  # 1*2 becomes 3
    bad = FiniteTruss(t.heap, tuple(table), t.unit)
    report = validate_truss(bad)
    assert not report.passed
    assert any(c.counterexample is not None for c in report.failures())


def test_endo_truss_validates():
    e2 = build_endo_truss(make_group([2]))
    assert validate_truss(e2).passed
    assert validate_truss(to_finite_truss(e2)).passed


def test_left_absorbers_of_ring_truss():
    assert left_absorbers(ring_as_truss(make_ring_zn(4))) == (0,)


def test_truss_endomorphism_enumeration_matches_plain_filter():
    e2 = build_endo_truss(make_group([2]))
    fast = enumerate_truss_morphisms(e2, e2)
    assert len(fast) == E2_ENDO_COUNT
    slow = [
        m
        for m in itertools.product(range(4), repeat=4)
        if is_truss_morphism(e2, e2, m)
    ]
    assert [tuple(f.mapping.tolist()) for f in fast] == slow
    for f in fast:
        assert is_truss_morphism(e2, e2, f.mapping)
        assert truss_morphism_preserves(f)


def test_truss_isos_against_all_bijections():
    e2 = build_endo_truss(make_group([2]))
    fast = enumerate_truss_isos(e2, e2)
    raw = [
        p
        for p in itertools.permutations(range(4))
        if is_truss_morphism(e2, e2, p)
    ]
    assert sorted(tuple(f.mapping.tolist()) for f in fast) == sorted(raw)
    assert len(fast) == 2


def test_no_isos_between_different_cardinalities():
    e2 = build_endo_truss(make_group([2]))
    e3 = build_endo_truss(make_group([3]))
    assert enumerate_truss_isos(e2, e3) == ()


def test_enumerated_morphisms_between_different_trusses():
    e2 = build_endo_truss(make_group([2]))
    e3 = build_endo_truss(make_group([3]))
    morphisms = enumerate_truss_morphisms(e2, e3)
    assert all(is_truss_morphism(e2, e3, m.mapping) for m in morphisms)
    # no bijection can exist, but morphisms do (e.g. everything to a constant)
    assert len(morphisms) > 0
    assert all(not m.is_bijective for m in morphisms)


def test_morphism_enumeration_bound():
    e3 = build_endo_truss(make_group([3]))
    # the search tries 135 candidate images; a cap of 100 still admits the
    # 81-entry retract tables it reads
    with pytest.raises(BoundExceeded):
        enumerate_truss_morphisms(e3, e3, max_enum=100)
    assert len(enumerate_truss_morphisms(e3, e3)) == 13


def test_identity_morphism_preserves():
    t = build_endo_truss(make_group([3]))
    ident = identity_truss_morphism(t)
    assert ident.is_bijective
    assert truss_morphism_preserves(ident)
    # a dense carrier is certified on its own generator chain
    assert truss_morphism_preserves(identity_truss_morphism(ring_as_truss(make_ring_zn(3))))


def test_unitless_truss_validates_without_unit_check():
    t = ring_as_truss(make_ring_zn(4))
    unitless = FiniteTruss(t.heap, t.mult_table, None)
    report = validate_truss(unitless)
    assert report.passed
    with pytest.raises(KeyError):
        report.check("unit")


def test_truss_json_roundtrip():
    t = ring_as_truss(make_ring_zn(3))
    back = FiniteTruss.from_json_dict(t.to_json_dict())
    assert back == t
    with pytest.raises(ValueError):
        FiniteTruss.from_json_dict({"size": 2, "ternary": [0] * 8})
    with pytest.raises(ValueError):
        FiniteTruss(t.heap, (0,) * 5)


# isomorphic pairs whose endomorphism trusses have at most 100 elements
CONJUGATION_PAIRS = [
    ("", ""), ("1", "1,1"), ("2", "2"), ("3", "3"), ("4", "4"), ("2,2", "2,2"),
    ("5", "5"), ("6", "2,3"), ("3,2", "6"), ("7", "7"), ("8", "8"), ("9", "9"),
    ("10", "2,5"),
]


def _mutations(mapping, n, rng):
    """The map itself, the map with two images swapped, and the map with one
    image changed."""
    swapped, changed = list(mapping), list(mapping)
    i, j = rng.sample(range(len(mapping)), 2) if len(mapping) > 1 else (0, 0)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    k = rng.randrange(len(mapping))
    changed[k] = (changed[k] + rng.randrange(1, n)) % n if n > 1 else 0
    return [tuple(mapping), tuple(swapped), tuple(changed)]


@pytest.mark.parametrize("left,right", CONJUGATION_PAIRS)
def test_structural_preservation_agrees_with_dense_on_conjugations(left, right):
    rng = random.Random(f"{left}/{right}")
    g, h = parse_group_spec(left), parse_group_spec(right)
    s, t = build_endo_truss(g), build_endo_truss(h)
    assert s.size <= 100
    verdicts = []
    for hm in as_objects(heap_isos(g, h), g, h):
        conj = truss_iso_from_heap_iso(hm, s, t)
        for mapping in _mutations(conj.mapping, t.size, rng):
            tm = TrussMorphism(s, t, mapping)
            verdict = truss_morphism_preserves(tm)
            assert verdict == dense_preserves(tm), mapping
            verdicts.append(verdict)
    assert verdicts[0::3] == [True] * (len(verdicts) // 3)
    if s.size > 1:
        assert not all(verdicts)


@pytest.mark.parametrize("left,right", [("2", "3"), ("2", "4"), ("3", "2"), ("2", "2,2")])
def test_structural_preservation_agrees_with_dense_across_sizes(left, right):
    # maps between trusses of different sizes: every truss morphism, every
    # constant map, and the mutations of each
    rng = random.Random(f"{left}/{right}")
    s = build_endo_truss(parse_group_spec(left))
    t = build_endo_truss(parse_group_spec(right))
    maps = [(c,) * s.size for c in range(t.size)]
    if t.size**s.size <= 10**6:
        maps += [m.mapping.tolist() for m in enumerate_truss_morphisms(s, t)]
    verdicts = set()
    for base in maps:
        for mapping in _mutations(base, t.size, rng):
            tm = TrussMorphism(s, t, mapping)
            verdict = truss_morphism_preserves(tm)
            assert verdict == dense_preserves(tm), mapping
            verdicts.add(verdict)
    assert verdicts == {True, False}


def _certificate_carrier(spec):
    """E(G) for a group spec, or the linear sub-truss of a module preset."""
    if spec == "zn:6":
        return build_linear_endo_truss(module_zn(6))
    if spec == "fpxfp:2":
        field = make_field_fp(2)
        return build_linear_endo_truss(regular_module(make_product_ring(field, field)))
    return build_endo_truss(parse_group_spec(spec))


@pytest.mark.parametrize("spec,sample", [("2,4", None), ("9", None), ("3,3", 12), ("fpxfp:2", None), ("zn:6", None)])
def test_generator_certificate_agrees_with_retract_oracle(spec, sample):
    # conjugations, their swap and single-entry mutations, their translates
    # y -> phi(y) +_0 c (affine maps that mostly do not preserve mult, so
    # they reach the product half of the certificate), and their twists
    # (u, e) -> phi(u, sigma(e)) by a transposition sigma of two nonzero
    # group elements (additive along the family, not along the group)
    rng = random.Random(spec)
    t = _certificate_carrier(spec)
    hom, element = t.decode(np.arange(t.size))
    isos = as_objects(heap_isos(t.group, t.group), t.group, t.group)
    if sample:
        isos = rng.sample(isos, sample)
    conjugations = []
    for hm in isos:
        try:
            conjugations.append(truss_iso_from_heap_iso(hm, t, t))
        except ValueError:
            pass  # conjugates out of a linear family
    rejected = {"additive": 0, "product": 0}
    for conj in conjugations:
        translates = [tuple(t.plus(conj.mapping, c).tolist()) for c in rng.sample(range(t.size), 2)]
        a, b = rng.sample(range(1, t.group.cardinality), 2)
        sigma = np.where(element == a, b, np.where(element == b, a, element))
        twist = tuple(conj.mapping[t.encode(hom, sigma)].tolist())
        for mapping in _mutations(conj.mapping, t.size, rng) + translates + [twist]:
            tm = TrussMorphism(t, t, mapping)
            verdict = truss_morphism_preserves(tm)
            assert verdict == retract_preserves(tm), mapping
            if not verdict:
                rejected["product" if retract_affine(tm) else "additive"] += 1
    assert conjugations and all(rejected.values()), rejected


def _truss_preset(spec):
    name, arg = spec.split(":")
    if name == "endo":
        return to_finite_truss(build_endo_truss(parse_group_spec(arg)))
    if name == "zn":
        return ring_as_truss(make_ring_zn(int(arg)))
    field = make_field_fp(int(arg))
    return ring_as_truss(make_product_ring(field, field))


@pytest.mark.parametrize("spec", ["endo:2", "zn:6", "fpxfp:2"])
def test_truss_certificates_agree_with_scans_on_every_mutation(spec):
    # every single-entry mutation of the ternary and mult tables: the
    # retract certificates must give the same verdicts and counterexamples
    # as the n^5 heap scan and the n^4 distributivity scans
    t = _truss_preset(spec)
    n = t.size
    tern = t.heap.ternary_table.flatten()
    mult = t.mult_table.flatten()
    laws = ("heap-associativity", "left-distributivity", "right-distributivity")
    failed = dict.fromkeys(laws, 0)
    for key, base in (("ternary", tern), ("mult", mult)):
        for pos in range(base.size):
            for wrong in range(n):
                if wrong == base[pos]:
                    continue
                table = base.copy()
                table[pos] = wrong
                T = (table if key == "ternary" else tern).reshape(n, n, n)
                M = (table if key == "mult" else mult).reshape(n, n)
                heap = FiniteHeap(n, tuple(T.reshape(-1).tolist()))
                report = validate_truss(FiniteTruss(heap, tuple(M.reshape(-1).tolist()), t.unit))
                expected = {
                    "heap-associativity": scan_heap_associativity(T),
                    "left-distributivity": scan_distributivity(M, T, "left"),
                    "right-distributivity": scan_distributivity(M, T, "right"),
                }
                for law in laws:
                    check = report.check(law)
                    verdict = (check.passed, check.counterexample)
                    assert verdict == (expected[law] is None, expected[law]), (key, pos, law)
                    assert check.exhaustive
                    failed[law] += not check.passed
    assert all(failed.values()), failed


def test_valid_trusses_need_no_scan(monkeypatch):
    # on valid trusses the retract certificates alone pass the heap and both
    # distributivity laws
    def no_scan(*args):
        raise AssertionError("scanned a table the certificate should pass")

    monkeypatch.setattr(trusskit.heaps, "_assoc_scan", no_scan)
    monkeypatch.setattr(trusskit.trusses, "sliced_scan", no_scan)
    for spec in ["endo:2", "endo:4", "endo:2,2", "zn:6", "fpxfp:2", "zn:9"]:
        assert validate_truss(_truss_preset(spec)).passed, spec
    assert validate_truss(build_endo_truss(parse_group_spec("3"))).passed


@pytest.mark.parametrize("spec", ["", "1", "2", "3", "4", "5", "6", "8", "9", "2,2", "2,3", "12"])
def test_factored_validation_agrees_with_the_dense_oracle(spec):
    # and the one validator gives the same checks on E(G)'s dense copy
    e = build_endo_truss(parse_group_spec(spec))
    assert validate_truss(e).checks == dense_truss_checks(e) == validate_truss(to_finite_truss(e, 10**9), 10**9).checks


@pytest.mark.parametrize("spec", ["zn:4", "zn:6", "fpxfp:2", "endo:2", "endo:3", "endo:4"])
def test_dense_preservation_certificate_agrees_with_dense(spec):
    # identities, every truss endomorphism, every constant map and the
    # mutations of each, on ring trusses and dense copies of E(G)
    rng = random.Random(spec)
    t = _truss_preset(spec)
    maps = [tuple(range(t.size))] + [(c,) * t.size for c in range(t.size)]
    maps += [m.mapping.tolist() for m in enumerate_truss_morphisms(t, t)]
    verdicts = set()
    for base in maps:
        for mapping in _mutations(base, t.size, rng):
            tm = TrussMorphism(t, t, mapping)
            verdict = truss_morphism_preserves(tm)
            assert verdict == dense_preserves(tm), mapping
            verdicts.add(verdict)
    assert verdicts == {True, False}


@pytest.mark.parametrize("spec", ["zn:3", "endo:2"])
def test_broken_dense_heaps_have_no_generator_chain(spec):
    # every one-entry change of the ternary table breaks a heap law, and
    # the chain is refused with ValueError before its retract is walked
    t = _truss_preset(spec)
    n = t.size
    tern = t.heap.ternary_table.flatten()
    for pos in range(tern.size):
        for wrong in {int(tern[pos]) + 1, int(tern[pos]) - 1} - {-1, n}:
            table = tern.copy()
            table[pos] = wrong
            broken = FiniteTruss(FiniteHeap(n, tuple(table.tolist())), t.mult_table, t.unit)
            with pytest.raises(ValueError, match="not an abelian heap"):
                preserving_rows(broken, broken, np.arange(n)[None])
            with pytest.raises(ValueError, match="not an abelian heap"):
                enumerate_truss_morphisms(broken, broken)
            assert not validate_truss(broken).passed


def test_linear_sub_truss_validation_agrees_with_the_dense_oracle():
    f2 = make_field_fp(2)
    e = build_linear_endo_truss(regular_module(make_product_ring(f2, f2)))
    assert len(e.homs) == 4 < len(build_endo_truss(e.group).homs)
    assert validate_truss(e).checks == dense_truss_checks(e)


def test_validation_caches_do_not_bypass_the_cap():
    # the factored tables and the chain are cached by the first run; a
    # second run under a lower cap is still refused, by the n^2 products
    # and by the factored tables' own guard
    e = build_endo_truss(make_group([12]))  # n = 144, H = m = 12
    assert validate_truss(e, 10**9).passed
    assert "_factored_cache" in e.__dict__ and "_chain_cache" in e.__dict__
    with pytest.raises(BoundExceeded, match="products of a 144-element truss"):
        validate_truss(e, max_enum=e.size**2 - 1)
    with pytest.raises(BoundExceeded, match="factored tables"):
        validate_truss(e, max_enum=12**2 - 1)
    with pytest.raises(BoundExceeded, match="factored tables"):
        e.generator_chain(max_enum=12**2 - 1)


def _corrupted_trusses(spec):
    """(changed tables, a fresh E(G) whose factored tables differ from the
    true ones there) for every one-entry change of compose and apply, every
    one of add and gadd that keeps one zero in each row, and every pair of
    an add and a gadd change, which breaks the heap on both factors."""
    base = build_endo_truss(parse_group_spec(spec))
    ft = base.factored_tables()
    zeros = {"add": base.zero // base._m, "gadd": 0}
    changes = []
    for name, bound in (("compose", len(ft.compose)), ("apply", base._m), ("add", len(ft.add)), ("gadd", base._m)):
        table = getattr(ft, name)
        for pos, old in np.ndenumerate(table):
            for new in range(bound):
                if new != old and zeros.get(name) not in (old, new):
                    changed = table.copy()
                    changed[pos] = new
                    changes.append((name, changed))
    both = [[a, g] for a in changes if a[0] == "add" for g in changes if g[0] == "gadd"]
    for fields in [[change] for change in changes] + both:
        e = EndoTruss(base.group, base.homs)
        e.__dict__["_factored_cache"] = ft._replace(**dict(fields))
        yield "+".join(name for name, _ in fields), e


VIOLATED = {  # whether the dense tables (M, T) break a law at a case
    "mult-associativity": lambda M, T, a, b, c: M[M[a, b], c] != M[a, M[b, c]],
    "left-distributivity": lambda M, T, d, a, b, c: M[d, T[a, b, c]] != T[M[d, a], M[d, b], M[d, c]],
    "right-distributivity": lambda M, T, d, a, b, c: M[T[a, b, c], d] != T[M[a, d], M[b, d], M[c, d]],
}


@pytest.mark.parametrize("spec", ["2", "3"])
def test_factored_validation_agrees_with_the_dense_oracle_on_corrupted_tables(spec):
    # each law's verdict, domain and first counterexample must match, on
    # the heap's factors as on the multiplication
    failed = dict.fromkeys(["compose", "apply", "add", "gadd", "add+gadd"], 0)
    for name, e in _corrupted_trusses(spec):
        report = validate_truss(e)
        assert report.checks == dense_truss_checks(e), name
        failed[name] += not report.passed
        if name in ("compose", "apply"):
            # with no room for the n^3 scan, a failed certificate reports
            # its own case, which must still break the law
            M, T = truss_tables(e)
            capped = validate_truss(e, max_enum=e.size**3 - 1)
            assert [c.passed for c in capped.checks] == [c.passed for c in report.checks], name
            for c in capped.failures():
                assert c.law not in VIOLATED or VIOLATED[c.law](M, T, *c.counterexample), (name, c)
    assert failed["compose"] and failed["apply"], failed
    if spec == "3":  # Z/2 leaves no entry to change in a table of two elements
        assert (failed["add"], failed["gadd"], failed["add+gadd"]) == (6, 6, 36), failed


# every abelian group of order at most 16 but Z/2^4, whose 2^16
# endomorphisms would need 2^32-entry factored tables
CHAIN_GROUPS = [
    "", "2", "3", "4", "2,2", "5", "6", "7", "8", "2,4", "2,2,2", "9", "3,3", "10", "11", "12", "2,6",
    "13", "14", "15", "16", "2,8", "4,4", "2,2,4",
]


def _chain_carriers() -> dict:
    """Carrier builders by name: E(G) on CHAIN_GROUPS, the linear trusses of
    the regular modules fpxfp:2, fpxfp:3, zn:4, zn:6 and of the coordinate
    ideals of example_non_iso(2, 3), and the zn:N, fp:P and fpxfp:P ring
    trusses."""
    carriers = {f"endo:{g}": lambda g=g: build_endo_truss(parse_group_spec(g), 1 << 21) for g in CHAIN_GROUPS}
    rings = {f"fpxfp:{p}": lambda p=p: make_product_ring(make_field_fp(p), make_field_fp(p)) for p in (2, 3, 5)}
    rings |= {f"zn:{n}": lambda n=n: make_ring_zn(n) for n in range(1, 13)}
    rings |= {f"fp:{p}": lambda p=p: make_field_fp(p) for p in (2, 3, 5, 7, 11)}
    for name in ("fpxfp:2", "fpxfp:3", "zn:4", "zn:6"):
        carriers[f"linear:{name}"] = lambda name=name: build_linear_endo_truss(regular_module(rings[name]()))
    for p, side in itertools.product((2, 3), (0, 1)):
        carriers[f"linear:example-{side}:{p}"] = lambda p=p, i=side: build_linear_endo_truss(example_non_iso(p)[i])
    carriers |= {name: lambda ring=ring: ring_as_truss(ring()) for name, ring in rings.items()}
    return carriers


CHAIN_CARRIERS = _chain_carriers()


def _assert_same_chain(chain, oracle):
    for field in ("basis", "sizes", "order", "products"):
        assert np.array_equal(getattr(chain, field), getattr(oracle, field)), field
    assert len(chain.shifted) == len(oracle.shifted)
    assert all(np.array_equal(a, b) for a, b in zip(chain.shifted, oracle.shifted))


@pytest.mark.parametrize("name", CHAIN_CARRIERS)
def test_the_chain_walk_on_addition_tables_equals_the_coset_walk(name):
    # on E(G), the walks on G's and the family's addition tables, composed,
    # give the greedy chain the coset walk finds on the carrier
    t = CHAIN_CARRIERS[name]()
    _assert_same_chain(t.generator_chain(1 << 21), walk_chain_by_cosets(t, 1 << 21))


def _assert_valid_chain(t, chain):
    """The chain's defining properties, read by `plus` on the carrier."""
    assert sorted(chain.order.tolist()) == list(range(t.size)) and chain.sizes[-1] == t.size
    assert np.array_equal(chain.products, t.product(chain.basis[:, None], chain.basis))
    for j in range(1, len(chain.basis)):
        s, prev = chain.basis[j], chain.order[: chain.sizes[j - 1]]
        span = chain.order[: chain.sizes[j]]
        assert s not in prev and np.isin(t.plus(span[:, None], span), span).all()  # a subgroup
        cosets = span.reshape(-1, len(prev))
        assert np.array_equal(cosets[1:], t.plus(cosets[:-1], s))  # each coset in span_{j-1}'s order
        assert np.array_equal(chain.shifted[j - 1], t.plus(span, s))
        assert np.isin(chain.shifted[j - 1][-len(prev) :], prev).all()  # the wrap


@pytest.mark.parametrize("orders,homs", [
    ([4], [[[5]], [[0]], [[3]], [[2]]]),
    ([3], [[[4]], [[0]], [[2]]]),
    ([2, 2], None),  # End(Z/2 x Z/2) reversed: the zero hom last
])
def test_a_family_whose_zero_hom_is_not_first_has_a_valid_chain(orders, homs):
    g = make_group(orders)
    e = EndoTruss(g, build_endo_truss(g).homs[::-1] if homs is None else homs)
    assert e.zero > 0
    _assert_valid_chain(e, e.generator_chain())


def _broken_factor(spec, name, pos, value):
    base = build_endo_truss(parse_group_spec(spec))
    ft = base.factored_tables()
    table = getattr(ft, name).copy()
    table[pos] = value
    e = EndoTruss(base.group, base.homs)
    e.__dict__["_factored_cache"] = ft._replace(**{name: table})
    return e


@pytest.mark.parametrize("spec,name,pos,value", [
    ("2", "gadd", (1, 1), 1),  # 1 + 1 = 1: no multiple of 1 is ever 0
    ("2", "add", (1, 1), 1),
    ("3", "gadd", (0, 1), 2),  # 0 + 1 = 2: 1 is not in its own coset 0 + 1
])
def test_the_chain_walk_refuses_a_factor_that_is_not_a_group(spec, name, pos, value):
    e = _broken_factor(spec, name, pos, value)
    with pytest.raises(ValueError, match="not an abelian group"):
        e.generator_chain()
    with pytest.raises(ValueError, match="not an abelian group"):
        preserving_rows(e, e, np.arange(e.size)[None])
    table = getattr(e.factored_tables(), name)
    with pytest.raises(ValueError, match="not an abelian group"):
        walk_chain(table, 0 if name == "gadd" else e.zero // e._m)


def _one_entry_mutations(rows: np.ndarray, values) -> np.ndarray:
    """Every row with one entry changed, at every position, to each of
    `values()` other than the entry itself."""
    out = []
    for row in rows:
        for pos, old in enumerate(row.tolist()):
            for new in values():
                if new != old:
                    out.append(row.copy())
                    out[-1][pos] = new
    return np.array(out)


def _conjugations_in_the_family(s, t, isos: np.ndarray) -> np.ndarray:
    """The conjugation rows of the heap isomorphisms `isos` whose conjugates
    stay in t's hom family, one row at a time."""
    F = []
    for row in isos:
        try:
            F.append(conjugate_rows(s, t, row[None])[0])
        except ValueError:
            pass
    return np.array(F)


def _affine_case(name):
    """(source, target, rows): the conjugation rows of the bk pair `name`
    or of the heap isomorphisms of F_3 x F_3 that conjugate its linear
    truss E_R onto itself, or the rows x -> d*x of zn:6, with every
    one-entry change of each (three seeded wrong values per entry on
    carriers above 64 elements)."""
    if name == "zn:6":
        t = ring_as_truss(make_ring_zn(6))
        M = t.mult_table
        return t, t, np.concatenate([M, _one_entry_mutations(M, lambda: range(t.size))])
    if name == "E_R(fpxfp:3)":
        f3 = make_field_fp(3)
        s = t = build_linear_endo_truss(regular_module(make_product_ring(f3, f3)))
        F = _conjugations_in_the_family(s, t, heap_isos(s.group, s.group))
        assert len(F) == 72 and len(s.homs) == 9  # 8 equivalences, each with 9 translations
    else:
        g, h = (parse_group_spec(spec) for spec in name.split(" -> "))
        s, t = build_endo_truss(g), build_endo_truss(h)
        F = conjugate_rows(s, t, heap_isos(g, h))
    rng = random.Random(name)
    values = (lambda: rng.sample(range(t.size), 3)) if t.size > 64 else (lambda: range(t.size))
    return s, t, np.concatenate([F, _one_entry_mutations(F, values)])


@pytest.mark.parametrize("name", ["2,2 -> 2,2", "6 -> 2,3", "2,4 -> 2,4", "E_R(fpxfp:3)", "zn:6"])
def test_affine_rows_is_affinity_on_every_pair_with_a_real_first_case(name):
    # blocks of 61 rows start at many offsets, so the first failing case
    # falls at many levels of the chain, and often at several at once; the
    # mask is compared with every pair x, y on a seeded sample of the rows
    # where n^2 a row for all of them would be too many
    s, t, F = _affine_case(name)
    chain = s.generator_chain()
    sample = set(random.Random(name).sample(range(len(F)), min(len(F), (1 << 24) // s.size**2)))
    levels = set()
    for start in range(0, len(F), 61):
        block = F[start : start + 61]
        mask, case = affine_rows(t, block, chain)
        for r in sorted(sample.intersection(range(start, start + len(block)))):
            assert mask[r - start] == retract_affine(TrussMorphism(s, t, block[r - start])), r
        if case is None:
            assert mask.all(), start
            continue
        r, x, sj = case
        f = block[r]
        assert r == np.flatnonzero(~mask)[0], start  # the first failing row
        assert t.plus(f[s.plus(x, sj)], f[s.zero]) != t.plus(f[x], f[sj]), start
        levels.add(int(np.nonzero(chain.basis == sj)[0][0]))
    k = len(chain.basis) - 1
    assert k in levels and (k == 1 or min(levels) < k), levels
