"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line (run with `pytest tests/test_acceptance.py -v -s` to see them). Every
check is exact and exhaustive over its stated domain; no tolerances anywhere.
"""

import itertools
from contextlib import contextmanager

from conftest import (
    as_objects,
    brute_force_hom_count,
    carrier,
    constant_index,
    heap_morphisms,
    inner_structure,
    intertwiner_correspondence,
    invert_hom,
    is_constant,
    is_truss_morphism,
    linear_heap_morphisms,
    module_by_callable,
    to_finite_truss,
    unique_intertwiner,
)

from trusskit import (
    FiniteHeap,
    FiniteTruss,
    RModule,
    build_endo_truss,
    build_linear_endo_truss,
    coordinate_module,
    enumerate_truss_isos,
    enumerate_truss_morphisms,
    equivalence_from_truss_iso,
    example_non_iso,
    find_module_equivalence,
    heap_from_group,
    heap_isos,
    heap_iso_from_truss_iso,
    induced_action,
    make_field_fp,
    make_group,
    make_product_ring,
    make_ring_zn,
    module_zn,
    regular_module,
    ring_as_truss,
    truss_iso_from_equivalence,
    truss_iso_from_heap_iso,
    truss_morphism_preserves,
    validate_heap,
    validate_module,
    validate_truss,
)
from trusskit.groups import compose_homs
from trusskit.modules import equivalence_is_valid, module_homs

GROUP_ORDERS = [(2,), (3,), (4,), (2, 2), (5,), (6,)]
GROUPS = [make_group(o) for o in GROUP_ORDERS]
ENDO = {g.orders: build_endo_truss(g) for g in GROUPS}


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} [{label}]: FAIL")
        raise
    print(f"ACCEPTANCE {number} [{label}]: PASS")


TRUSS_LAWS = ("mult-associativity", "left-distributivity", "right-distributivity", "unit")


def test_criterion_1_axiom_suites():
    with criterion(1, "axiom suites and carrier size"):
        for g in GROUPS:
            heap_report = validate_heap(heap_from_group(g))
            assert heap_report.passed and heap_report.exhaustive
            endo = ENDO[g.orders]
            truss_report = validate_truss(endo)
            assert truss_report.passed
            # every law is exhaustive at every carrier size; the heap and
            # distributivity laws are certified through the retract in n^3
            for law in TRUSS_LAWS:
                assert truss_report.check(law).exhaustive
            end_count = brute_force_hom_count(g, g)
            assert endo.size == g.cardinality * end_count


def test_criterion_2_theta_upsilon_bijection():
    with criterion(2, "extraction inverts conjugation"):
        for g in GROUPS:
            for h in GROUPS:
                eg, eh = ENDO[g.orders], ENDO[h.orders]
                isos = as_objects(heap_isos(g, h), g, h)
                conjugations = [truss_iso_from_heap_iso(hm, eg, eh) for hm in isos]
                for hm, phi in zip(isos, conjugations):
                    assert truss_morphism_preserves(phi) and phi.is_bijective
                    assert heap_iso_from_truss_iso(phi) == hm
                assert len({tuple(phi.mapping.tolist()) for phi in conjugations}) == len(conjugations)
        # raw search over all 24 bijections of the 4-element carriers
        e2 = ENDO[(2,)]
        raw = [
            p for p in itertools.permutations(range(4)) if is_truss_morphism(e2, e2, p)
        ]
        assert len(raw) == 2  # |H| * #Aut(Z/2) = 2 * 1
        assert len(enumerate_truss_isos(e2, e2)) == 2


def test_criterion_3_negative_direction():
    with criterion(3, "non-isomorphic groups have no truss iso"):
        z4, k4 = make_group([4]), make_group([2, 2])
        e1, e2 = ENDO[(4,)], ENDO[(2, 2)]
        assert e1.size == 16 and e2.size == 64
        assert enumerate_truss_isos(e1, e2) == ()
        assert as_objects(heap_isos(z4, k4), z4, k4) == ()
        from trusskit import verify_baer_kaplansky
        from trusskit.groups import groups_isomorphic

        assert not groups_isomorphic(z4, k4)
        assert verify_baer_kaplansky(z4, k4).consistent


def _enumerated_morphism_sets():
    e2, e3 = ENDO[(2,)], ENDO[(3,)]
    return [
        (e2, e2, enumerate_truss_morphisms(e2, e2)),
        (e2, e3, enumerate_truss_morphisms(e2, e3)),
    ]


def test_criterion_4_inner_structure():
    with criterion(4, "inner structure of every truss morphism"):
        total = 0
        for source, target, morphisms in _enumerated_morphism_sets():
            assert morphisms
            h = target.group
            for phi in morphisms:
                total += 1
                inner = inner_structure(phi)
                eps, off = inner.idempotent, inner.offset
                assert compose_homs(eps, eps).matrix == eps.matrix
                assert eps(off) == h.zero
                assert len(inner.intertwiners) > 0
                image = {eps(x) for x in h.elements()}
                assert len(inner.intertwiners) == len(image)
                pairs = intertwiner_correspondence(phi, inner)  # raises if not bijective
                assert len(pairs) == len(inner.intertwiners)
        assert total == 11


def test_criterion_5_corollary():
    with criterion(5, "unique intertwiner when a constant maps to a constant"):
        seen_applicable = 0
        for source, target, morphisms in _enumerated_morphism_sets():
            for phi in morphisms:
                images = [carrier(target)[j] for j in phi.mapping]
                applicable = any(
                    is_constant(images[constant_index(source, a)])
                    for a in source.group.elements()
                )
                if not applicable:
                    assert unique_intertwiner(phi) is None
                    continue
                seen_applicable += 1
                xi = unique_intertwiner(phi)
                assert xi is not None
                assert len(inner_structure(phi).intertwiners) == 1
                for i, alpha in enumerate(carrier(source)):
                    assert images[i].compose(xi) == xi.compose(alpha)
        assert seen_applicable > 0


def test_criterion_6_linear_morphism_oracle():
    with criterion(6, "closed form matches the every-base-point filter"):
        f2 = make_field_fp(2)
        r22 = make_product_ring(f2, f2)
        cases = [
            (module_zn(4), module_zn(4)),
            (coordinate_module(r22, 0), coordinate_module(r22, 1)),
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


def test_criterion_7_example_non_iso():
    with criterion(7, "isomorphic trusses over non-isomorphic modules"):
        for p in (2, 3):
            ex = example_non_iso(p)
            assert truss_morphism_preserves(ex.truss_iso)
            assert ex.truss_iso.is_bijective
            homs = as_objects(module_homs(ex.left, ex.right), ex.left.group, ex.right.group)
            assert not any(f.is_bijective for f in homs)
            assert ex.groups_isomorphic


def test_criterion_8_module_roundtrip():
    with criterion(8, "equivalence and truss iso invert each other"):
        f2 = make_field_fp(2)
        r22 = make_product_ring(f2, f2)
        instances = [
            (module_zn(4), module_zn(4)),
            (coordinate_module(r22, 0), coordinate_module(r22, 1)),
            (module_zn(2), module_zn(2)),
        ]
        for m, n in instances:
            eq = find_module_equivalence(m, n)
            assert eq is not None
            phi = truss_iso_from_equivalence(eq)
            back = equivalence_from_truss_iso(phi, m, n)
            mu_inv_conj = {
                u.matrix: back.rho_of(u).matrix for u, _ in back.rho_pairs
            }
            mu_inv = invert_hom(back.mu)
            for u, _ in back.rho_pairs:
                expected = compose_homs(compose_homs(back.mu, u), mu_inv)
                assert mu_inv_conj[u.matrix] == expected.matrix
            assert back.mu.matrix == eq.mu.matrix
        # converse: every enumerable truss iso yields a valid equivalence
        for m, n in instances:
            em, en = build_linear_endo_truss(m), build_linear_endo_truss(n)
            if em.size > 9 or en.size > 9:
                continue
            isos = enumerate_truss_isos(em, en)
            assert isos
            for phi in isos:
                assert equivalence_is_valid(equivalence_from_truss_iso(phi, m, n))
        for p in (2, 3):
            ex = example_non_iso(p)
            em = ex.truss_iso.source
            en = ex.truss_iso.target
            for phi in enumerate_truss_isos(em, en):
                assert equivalence_is_valid(
                    equivalence_from_truss_iso(phi, ex.left, ex.right)
                )


def _detects_all_heap_mutations(heap: FiniteHeap) -> bool:
    base = heap.ternary_table.ravel().tolist()
    n = heap.size
    for pos in range(len(base)):
        for wrong in range(n):
            if wrong == base[pos]:
                continue
            mutated = base.copy()
            mutated[pos] = wrong
            if validate_heap(FiniteHeap(n, tuple(mutated))).passed:
                return False
    return True


def _detects_all_truss_mutations(t: FiniteTruss) -> bool:
    n = t.size
    tern = t.heap.ternary_table.ravel().tolist()
    for pos in range(len(tern)):
        for wrong in range(n):
            if wrong == tern[pos]:
                continue
            mutated = tern.copy()
            mutated[pos] = wrong
            bad = FiniteTruss(FiniteHeap(n, tuple(mutated)), t.mult_table, t.unit)
            if validate_truss(bad).passed:
                return False
    mult = t.mult_table.ravel().tolist()
    for pos in range(len(mult)):
        for wrong in range(n):
            if wrong == mult[pos]:
                continue
            mutated = mult.copy()
            mutated[pos] = wrong
            bad = FiniteTruss(t.heap, tuple(mutated), t.unit)
            if validate_truss(bad).passed:
                return False
    return True


def _detects_all_module_mutations(m: RModule) -> bool:
    base = m.action_table.ravel().tolist()
    size = m.group.cardinality
    for pos in range(len(base)):
        for wrong in range(size):
            if wrong == base[pos]:
                continue
            mutated = base.copy()
            mutated[pos] = wrong
            if validate_module(RModule(m.ring, m.group, tuple(mutated))).passed:
                return False
    return True


def test_criterion_9_mutation_detection():
    with criterion(9, "validators detect every single-entry corruption"):
        for g in GROUPS:
            assert _detects_all_heap_mutations(heap_from_group(g))
        f2 = make_field_fp(2)
        r22 = make_product_ring(f2, f2)
        trusses = [
            to_finite_truss(ENDO[(2,)]),
            ring_as_truss(make_ring_zn(4)),
            to_finite_truss(build_linear_endo_truss(coordinate_module(r22, 0))),
        ]
        for t in trusses:
            assert _detects_all_truss_mutations(t)
        modules = [
            module_zn(4),
            coordinate_module(r22, 0),
            module_by_callable(make_ring_zn(4), make_group([2]),
                        lambda r, x: ((r[0] * x[0]) % 2,)),
        ]
        for m in modules:
            assert _detects_all_module_mutations(m)
