"""The table-based inner-structure laws and heap-isomorphism extraction,
checked against the per-element oracles in conftest.py: the laws against
`inner_laws_by_composition`, the extraction against `heap_iso_by_decompose`.
The laws are checked both one map at a time and as blocks of maps through
`inner_structure_rows`."""

import itertools
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import as_objects, conjugate_homs_by_composition, heap_iso_by_decompose, inner_laws_by_composition

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
from trusskit.baer_kaplansky import conjugate_homs
from trusskit.endo import EndoTruss, _linear_isos
from trusskit.trusses import TrussMorphism

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import TRUSS_MORPHISM_COUNTS  # noqa: E402

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
        mapping = phi.mapping.tolist()
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
    pos = {h.matrix[0][0]: i for i, h in enumerate(as_objects(t.homs, t.group, t.group))}
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


def test_a_coset_whose_rows_repeat_fails_the_correspondence():
    # E(Z/2) -> E(Z/4) constant at (2x, 0), no truss morphism: the coset is
    # {0, 2} and both its rows are the zero intertwiner, so the two row sets
    # agree and the coset is closed, but the rows are not distinct
    s, t = endo("2"), endo("4")
    pos = {h.matrix[0][0]: i for i, h in enumerate(as_objects(t.homs, t.group, t.group))}
    phi = TrussMorphism(s, t, (int(t.encode(pos[2], 0)),) * s.size)
    results = check_inner_structure(phi)
    assert results == inner_laws_by_composition(phi)
    assert results["correspondence_bijective"] is False and results["values_at_zero_in_coset"] is True


def test_a_broken_hom_table_with_a_coset_missing_the_offset_fails_the_closure(monkeypatch):
    # E(1) -> E(Z/4) onto x -> x + 3, with the identity's table corrupted to
    # the constant 1: the coset 1 + 3 = {0} misses the offset 3, so
    # 0 - 3 + 0 = 1 leaves it, while every row of X is 0 and so passes the
    # value test of the closure
    s, t = endo(""), endo("4")
    phi = TrussMorphism(s, t, (t.unit + 3,))
    tables = t.factored_tables()
    apply = tables.apply.copy()
    apply[t.decode(t.unit)[0]] = 1
    broken = tables._replace(apply=apply)
    original = EndoTruss.factored_tables
    monkeypatch.setattr(
        EndoTruss, "factored_tables", lambda self, max_enum=None: broken if self is t else original(self, max_enum)
    )
    results = check_inner_structure(phi)
    assert results["correspondence_bijective"] is False
    assert results["intertwiners_nonempty"] and results["values_at_zero_in_coset"]


def test_laws_refuse_over_the_cap():
    phi = enumerate_truss_morphisms(endo("2"), endo("4"))[0]
    with pytest.raises(BoundExceeded, match="intertwiner check"):
        check_inner_structure(phi, max_enum=10)


def _conjugations():
    for left, right in BK_ISO_PAIRS:
        s, t = endo(left), endo(right)
        for hm in as_objects(heap_isos(s.group, t.group), s.group, t.group):
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


def test_conjugate_homs_agrees_with_the_hom_halves_of_the_oracle():
    # the hom half of a conjugation depends only on the group isomorphism
    count = 0
    for left, right in BK_ISO_PAIRS:
        s, t = endo(left), endo(right)
        isos = _linear_isos(s.group, t.group, None)
        got = conjugate_homs(s._apply, t, isos)
        for f, row in zip(as_objects(isos, s.group, t.group), got):
            assert tuple(row.tolist()) == conjugate_homs_by_composition(f.linear, s, t)
            count += 1
    assert count == 1 + 1 + 2 + 6 + 4 + 6 + 4 + 8 + 8 + 2


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
    for hm in as_objects(heap_isos(s.group, t.group)[:8], s.group, t.group):
        phi = truss_iso_from_heap_iso(hm, s, t)
        for i, j in [(consts[1], consts[-1]), (consts[2], consts[3]), (consts[0], s.unit)]:
            mapping = phi.mapping.tolist()
            mapping[i], mapping[j] = mapping[j], mapping[i]
            bad = TrussMorphism(s, t, tuple(mapping))
            got = _outcome(heap_iso_from_truss_iso, bad)
            assert got == _outcome(heap_iso_by_decompose, bad)
            outcomes.add(got[1].split(":")[0] if isinstance(got, tuple) else "iso")
    assert "image of a constant map is not constant" in outcomes
    assert "extracted map is not a heap morphism" in outcomes


# the `inner` pairs of the benchmark, whose morphism counts it records, and
# E(Z/2 x Z/2), where corollary_unique applies to some morphisms only
KERNEL_PAIRS = list(TRUSS_MORPHISM_COUNTS) + [("2,2", "2,2")]
BIG = 10**8


def _maps(s: EndoTruss, t: EndoTruss) -> list[TrussMorphism]:
    """Every morphism s -> t, up to 4 single-entry mutants of each of the
    first 8, and 6 random maps."""
    rng = np.random.default_rng(0)
    morphisms = enumerate_truss_morphisms(s, t, BIG)
    maps = list(morphisms) + [bad for phi in morphisms[:8] for bad in single_entry_mutations(phi, 4)]
    return maps + [TrussMorphism(s, t, rng.integers(0, t.size, s.size)) for _ in range(6)]


def _stack(maps: list[TrussMorphism]) -> np.ndarray:
    return np.stack([phi.mapping for phi in maps])


@pytest.mark.parametrize("left,right", KERNEL_PAIRS)
def test_block_laws_agree_with_one_row_calls_and_the_oracle(left, right):
    s, t = endo(left), endo(right)
    maps = _maps(s, t)
    laws, applies = bk.inner_structure_rows(s, t, _stack(maps), BIG)
    assert laws.shape == (len(maps), len(bk.INNER_LAWS)) and applies.shape == (len(maps),)
    for phi, row, applied in zip(maps, laws, applies):
        got = bk.laws_passed(row[None], applied[None])
        assert got == check_inner_structure(phi, BIG) == inner_laws_by_composition(phi, BIG), phi.mapping
    assert not laws.all()  # some map fails a law


def test_corollary_applies_to_some_morphisms_of_e_z2_squared_only():
    s = endo("2,2")
    applies = bk.inner_structure_rows(s, s, _stack(enumerate_truss_morphisms(s, s)))[1]
    assert applies.any() and not applies.all()


@pytest.mark.parametrize("rows", [1, 7])
def test_small_blocks_give_the_default_table(rows, monkeypatch):
    s = endo("2,2")
    F = _stack(_maps(s, s))
    want = bk.inner_structure_rows(s, s, F)
    per_row = s.group.cardinality ** 2 * s.size
    monkeypatch.setattr(bk, "_LAW_BLOCK_ENTRIES", rows * per_row)
    got = bk.inner_structure_rows(s, s, F)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@pytest.mark.parametrize("left,right", [("2", "6"), ("2,2", "2,2")])
def test_failing_rows_leave_the_laws_of_passing_rows_unchanged(left, right):
    s, t = endo(left), endo(right)
    F = _stack(_maps(s, t))
    laws, applies = bk.inner_structure_rows(s, t, F, BIG)
    passing = laws.all(axis=1)
    assert passing.any() and not passing.all()
    alone = bk.inner_structure_rows(s, t, F[passing], BIG)
    assert np.array_equal(alone[0], laws[passing]) and np.array_equal(alone[1], applies[passing])
    perm = np.random.default_rng(1).permutation(len(F))  # failing rows spread between passing ones
    shuffled = bk.inner_structure_rows(s, t, F[perm], BIG)
    assert np.array_equal(shuffled[0], laws[perm]) and np.array_equal(shuffled[1], applies[perm])


def test_a_block_is_refused_over_the_cap_with_the_one_row_text():
    s, t = endo("3"), endo("2")
    morphisms = enumerate_truss_morphisms(s, t)
    with pytest.raises(BoundExceeded) as one:
        check_inner_structure(morphisms[0], max_enum=40)
    with pytest.raises(BoundExceeded) as block:
        bk.inner_structure_rows(s, t, _stack(morphisms), max_enum=40)
    assert str(block.value) == str(one.value)
    assert str(one.value).startswith("intertwiner check E(Z/3) -> E(Z/2) would enumerate 54 objects; cap is 40")
