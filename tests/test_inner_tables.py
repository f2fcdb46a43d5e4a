"""The table-based inner-structure laws and heap-isomorphism extraction,
checked against the per-element oracles in conftest.py: the laws against
`inner_laws_by_composition`, the extraction against `heap_iso_by_decompose`."""

import itertools

import numpy as np
import pytest
from conftest import heap_iso_by_decompose, inner_laws_by_composition

import trusskit.baer_kaplansky as bk
from trusskit import (
    BoundExceeded,
    NotAnIsomorphism,
    build_endo_truss,
    check_inner_structure,
    enumerate_truss_morphisms,
    heap_iso_from_truss_iso,
    heap_isos,
    parse_group_spec,
    truss_iso_from_heap_iso,
)
from trusskit.endo import EndoTruss
from trusskit.trusses import TrussMorphism

UP_TO_4 = ["", "2", "3", "4", "2,2"]
LAW_PAIRS = list(itertools.product(UP_TO_4, repeat=2)) + [("2", "5"), ("2", "6"), ("2", "8")]
# the isomorphic pairs of the benchmark's bk workload and its --brute-force jobs
BK_ISO_PAIRS = [("", ""), ("2", "2"), ("3", "3"), ("2,2", "2,2"), ("8", "8"), ("9", "9"),
                ("12", "12"), ("16", "16"), ("2,4", "2,4"), ("6", "2,3")]

_ENDO = {}


def endo(spec: str) -> EndoTruss:
    if spec not in _ENDO:
        _ENDO[spec] = build_endo_truss(parse_group_spec(spec))
    return _ENDO[spec]


def single_entry_mutations(phi: TrussMorphism, count: int):
    """Up to `count` maps that differ from phi in one entry, spread over the
    carrier, each entry moved to the next target index."""
    n, nt = phi.source.size, phi.target.size
    for i in sorted(set(np.linspace(0, n - 1, min(count, n)).astype(int).tolist())):
        mapping = list(phi.mapping)
        mapping[i] = (mapping[i] + 1) % nt
        yield TrussMorphism(phi.source, phi.target, tuple(mapping))


@pytest.mark.parametrize("left,right", LAW_PAIRS)
def test_laws_agree_with_the_composition_oracle(left, right):
    s, t = endo(left), endo(right)
    morphisms = enumerate_truss_morphisms(s, t)
    assert morphisms
    for phi in morphisms:
        assert check_inner_structure(phi) == inner_laws_by_composition(phi), phi.mapping


# every map into the one-element E(1) is a morphism
@pytest.mark.parametrize("left,right", [(a, b) for a, b in LAW_PAIRS if "2,2" not in (a, b) and b != ""])
def test_laws_agree_with_the_oracle_on_maps_that_are_not_morphisms(left, right):
    s, t = endo(left), endo(right)
    seen = 0
    for phi in enumerate_truss_morphisms(s, t):
        for bad in single_entry_mutations(phi, 4):
            got = check_inner_structure(bad)
            assert got == inner_laws_by_composition(bad), bad.mapping
            seen += not all(got.values())
    assert seen  # some mutation fails a law


def test_a_row_that_intertwines_but_is_not_affine_is_no_intertwiner():
    # E(Z/2) -> E(Z/4) fixing both constants and the identity and sending the
    # swap to y -> 1 - y is no truss morphism. Every row of X is then the
    # map 0 -> 0, 1 -> 1, which intertwines but is not a heap morphism.
    s, t = endo("2"), endo("4")
    pos = {h.matrix[0][0]: i for i, h in enumerate(t.homs)}
    phi = TrussMorphism(s, t, tuple(t.encode([pos[0], pos[0], pos[1], pos[3]], [0, 1, 0, 1]).tolist()))
    results = check_inner_structure(phi)
    assert results == inner_laws_by_composition(phi)
    assert results["intertwiners_nonempty"] is False


def test_laws_return_plain_booleans():
    for phi in enumerate_truss_morphisms(endo("2"), endo("4")):
        assert all(type(v) is bool for v in check_inner_structure(phi).values())


def test_a_broken_hom_table_fails_only_the_closure(monkeypatch):
    # E(1) -> E(Z/3) onto the identity map, with the identity's table
    # corrupted to send 1 to 0: the idempotent's image {0, 2} is then no
    # coset. Every other law still holds, so only the closure sees it.
    s, t = endo(""), endo("3")
    phi = TrussMorphism(s, t, (t.unit,))
    assert all(check_inner_structure(phi).values())
    tables = t.factored_tables()
    apply = tables.apply.copy()
    apply[t.decode(t.unit)[0], 1] = 0
    broken = tables._replace(apply=apply)
    original = EndoTruss.factored_tables
    monkeypatch.setattr(
        EndoTruss, "factored_tables", lambda self, max_enum=None: broken if self is t else original(self, max_enum)
    )
    results = check_inner_structure(phi)
    assert results.pop("correspondence_bijective") is False
    assert all(results.values())


def test_laws_refuse_over_the_cap():
    phi = enumerate_truss_morphisms(endo("2"), endo("4"))[0]
    with pytest.raises(BoundExceeded, match="intertwiner check"):
        check_inner_structure(phi, max_enum=10)


def _conjugations():
    for left, right in BK_ISO_PAIRS:
        s, t = endo(left), endo(right)
        for hm in heap_isos(s.group, t.group):
            yield hm, truss_iso_from_heap_iso(hm, s, t)


def _outcome(extract, phi):
    try:
        return extract(phi)
    except NotAnIsomorphism as exc:
        return ("NotAnIsomorphism", str(exc))


def test_extraction_agrees_with_the_oracle_on_every_conjugation():
    count = 0
    for hm, phi in _conjugations():
        assert heap_iso_from_truss_iso(phi) == heap_iso_by_decompose(phi) == hm
        count += 1
    assert count == 1 + 2 + 6 + 24 + 32 + 54 + 48 + 128 + 64 + 12


def test_extraction_refuses_single_entry_mutations_like_the_oracle():
    for _, phi in _conjugations():
        for bad in single_entry_mutations(phi, 3):
            assert _outcome(heap_iso_from_truss_iso, bad) == _outcome(heap_iso_by_decompose, bad)


@pytest.mark.parametrize("left,right", [("4", "4"), ("2,4", "2,4"), ("8", "8"), ("9", "9"), ("6", "2,3")])
def test_extraction_decodes_like_the_oracle_without_the_preservation_check(left, right, monkeypatch):
    # with preservation skipped, maps with two entries swapped reach the
    # decoding: a constant sent to a non-constant, or constants permuted
    # into a table that is not affine
    monkeypatch.setattr(bk, "preserving_rows", lambda s, t, F, max_enum=None: np.ones(len(F), dtype=bool))
    s, t = endo(left), endo(right)
    consts = list(s.constant_indices)
    outcomes = set()
    for hm in heap_isos(s.group, t.group)[:8]:
        phi = truss_iso_from_heap_iso(hm, s, t)
        for i, j in [(consts[1], consts[-1]), (consts[2], consts[3]), (consts[0], s.unit)]:
            mapping = list(phi.mapping)
            mapping[i], mapping[j] = mapping[j], mapping[i]
            bad = TrussMorphism(s, t, tuple(mapping))
            got = _outcome(heap_iso_from_truss_iso, bad)
            assert got == _outcome(heap_iso_by_decompose, bad)
            outcomes.add(got[1].split(":")[0] if isinstance(got, tuple) else "iso")
    assert "image of a constant map is not constant" in outcomes
    assert "extracted map is not a heap morphism" in outcomes
