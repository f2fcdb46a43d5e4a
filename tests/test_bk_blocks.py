"""The row-batched conjugation, certificate and extraction kernels behind
`verify_baer_kaplansky`, each checked on multi-row blocks against its
per-element oracle in conftest.py, and the mutations a block must catch in
exactly the row that carries them."""

import json
import random

import numpy as np
import pytest
from conftest import (
    as_objects,
    constant_index,
    conjugate_by_composition,
    grid_tables,
    heap_iso_by_decompose,
    retract_affine,
    retract_preserves,
)

import trusskit.baer_kaplansky as bk
from trusskit import NotAnIsomorphism, build_endo_truss, parse_group_spec, verify_baer_kaplansky
from trusskit.baer_kaplansky import conjugate_rows, extract_rows, heap_iso_from_truss_iso
from trusskit.cli import main
from trusskit.endo import heap_isos
from trusskit.groups import aut_count
from trusskit.trusses import TrussMorphism, preserving_rows, truss_morphism_preserves

# the isomorphic pairs of the benchmark's bk workload, and E(Z/3 x Z/3)
BK_PAIRS = [("2,2", "2,2"), ("8", "8"), ("9", "9"), ("12", "12"), ("16", "16"), ("2,4", "2,4"), ("6", "2,3")]
SAMPLE = {("3,3", "3,3"): 12}


def _block(left, right):
    """E(G), E(H), a seeded sample (or all) of the heap isomorphisms as
    objects, their value tables and their conjugations as one block."""
    g, h = parse_group_spec(left), parse_group_spec(right)
    s, t = build_endo_truss(g), build_endo_truss(h)
    values = heap_isos(g, h)
    if (left, right) in SAMPLE:
        values = values[random.Random(left).sample(range(len(values)), SAMPLE[left, right])]
    return s, t, as_objects(values, g, h), values, conjugate_rows(s, t, values)


@pytest.mark.parametrize("left,right", BK_PAIRS + list(SAMPLE))
def test_block_kernels_agree_with_the_oracles(left, right):
    s, t, isos, values, F = _block(left, right)
    assert len(F) > 1
    for hm, row in zip(isos, F):
        assert tuple(row.tolist()) == conjugate_by_composition(hm, s, t)
        assert heap_iso_by_decompose(TrussMorphism(s, t, row)) == hm
    expected = [retract_preserves(TrussMorphism(s, t, row)) for row in F]
    assert preserving_rows(s, t, F).tolist() == expected == [True] * len(F)
    assert np.array_equal(extract_rows(s, t, F), values)


def _mutations(s, t, rng):
    """Maps near a conjugation row: one entry changed (not bijective), two
    translates y -> row(y) +_0 c, a fibre twist (u, e) -> row(u, sigma(e))
    by a transposition sigma of two nonzero group elements, and a coset
    shift y -> row(y) +_0 c for y outside span_{k-1} of the source's
    generator chain, with c + c != 0: additive along every generator of
    the chain but the last, s_k."""
    k, step = rng.randrange(s.size), rng.randrange(1, t.size)
    hom, element = s.decode(np.arange(s.size))
    a, b = rng.sample(range(1, s.group.cardinality), 2)
    twist = s.encode(hom, np.where(element == a, b, np.where(element == b, a, element)))
    chain = s.generator_chain()
    outside = np.ones(s.size, dtype=bool)
    outside[chain.order[: chain.sizes[-2]]] = False
    c = rng.choice([c for c in range(t.size) if t.plus(c, c) != t.constant_indices[0]])
    shift = np.where(outside, c, t.constant_indices[0])

    def changed(row):
        row = row.copy()
        row[k] = (row[k] + step) % t.size
        return row

    translates = [lambda row, c=c: t.plus(row, c) for c in rng.sample(range(1, t.size), 2)]
    return [changed, *translates, lambda row: row[twist], lambda row: t.plus(row, shift)]


def _outcome(fn, *args):
    try:
        fn(*args)
    except NotAnIsomorphism as exc:
        return str(exc)
    return "passed"


def _expected(phi):
    """The outcome of extracting from phi, from the oracles: bijectivity,
    then `retract_preserves`, then `heap_iso_by_decompose`."""
    if not phi.is_bijective:
        return "morphism is not bijective"
    if not retract_preserves(phi):
        return "morphism does not preserve the truss operations"
    return _outcome(heap_iso_by_decompose, phi)


@pytest.mark.parametrize("left,right", [("8", "8"), ("2,4", "2,4"), ("3,3", "3,3")])
def test_a_mutation_fails_exactly_its_row(left, right, monkeypatch):
    rng = random.Random(f"{left}/{right}")
    s, t, _, _, F = _block(left, right)
    rejected = {"additive": 0, "product": 0}
    for r in rng.sample(range(len(F)), 3):
        for mutate in _mutations(s, t, rng):
            block = F.copy()
            block[r] = mutate(F[r])
            one = TrussMorphism(s, t, block[r])
            preserved = retract_preserves(one)
            assert preserving_rows(s, t, block).tolist() == [preserved if i == r else True for i in range(len(F))]
            if not preserved:
                rejected["product" if retract_affine(one) else "additive"] += 1
            expected = _expected(one)
            assert _outcome(heap_iso_from_truss_iso, one) == _outcome(extract_rows, s, t, block) == expected

            # the same mutation in row r of verify_baer_kaplansky's first block
            mutated, first = [], conjugate_rows

            def conjugate(*args):
                out = first(*args)
                if not mutated:
                    i = min(r, len(out) - 1)
                    out[i] = mutate(out[i])
                    mutated.append(TrussMorphism(s, t, out[i]))
                return out

            monkeypatch.setattr(bk, "conjugate_rows", conjugate)
            got = _outcome(verify_baer_kaplansky, s.group, t.group)
            monkeypatch.undo()
            assert got == _outcome(heap_iso_from_truss_iso, mutated[0]) == _expected(mutated[0])
    assert all(rejected.values()), rejected


def test_a_coset_translate_is_seen_only_by_the_last_additive_column():
    # the identity of E(Z/4) with the coset of the hom 2*id translated by
    # the constant 1: no product of basis elements lands in the cosets of
    # 2*id or 3*id, so of the whole certificate only the additive column of
    # the last generator, (id, 0), rejects it
    s, t, _, _, F = _block("4", "4")
    e = np.arange(4)
    row = np.arange(s.size)
    row[s.encode(2, e)] = s.encode(2, (e + 1) % 4)
    one = TrussMorphism(s, t, row)
    assert one.is_bijective and not retract_affine(one)
    block = F.copy()
    r = next(i for i in range(len(F)) if np.array_equal(F[i], np.arange(s.size)))
    block[r] = row
    assert preserving_rows(s, t, block).tolist() == [i != r for i in range(len(F))]
    expected = _expected(one)
    assert expected == "morphism does not preserve the truss operations"
    assert _outcome(heap_iso_from_truss_iso, one) == _outcome(extract_rows, s, t, block) == expected


def test_a_map_that_breaks_only_the_wrap_relation_is_rejected():
    # (u, e) -> (u, 0) from E(Z/2) to E(Z/4) is multiplicative, and every
    # chain sum but those of the last cosets holds: (id, 0) + (id, 0) is 0
    # in E(Z/2) but (2 id, 0) in E(Z/4), so only the wrap relation
    # r_j*f(s_j) = f(r_j*s_j) rejects it
    s, t = build_endo_truss(parse_group_spec("2")), build_endo_truss(parse_group_spec("4"))
    one = TrussMorphism(s, t, (0, 0, 4, 4))
    f = one.mapping
    sm, tm = grid_tables(s)[0], grid_tables(t)[0]
    assert (f[sm] == tm[f[:, None], f[None, :]]).all()
    chain = s.generator_chain()
    bad = []
    for j, xs in enumerate(chain.shifted, 1):
        fails = t.plus(f[xs], f[chain.basis[0]]) != t.plus(f[chain.order[: len(xs)]], f[chain.basis[j]])
        # the last coset, the last sizes[j - 1] entries, is the wrap
        assert not fails[: len(xs) - chain.sizes[j - 1]].any()
        bad.append(fails.any())
    assert any(bad)
    assert preserving_rows(s, t, f[None]).tolist() == [False] == [retract_preserves(one)]
    assert truss_morphism_preserves(one) is retract_preserves(one) is False


@pytest.mark.parametrize("left,right", BK_PAIRS)
def test_basis_columns_decide_injectivity_like_whole_rows(left, right, monkeypatch):
    # a block with one row repeated: the round trip fails at the repeat,
    # and upsilon_injective, read off it, is the verdict on whole rows,
    # with and without the repeat
    g, h = parse_group_spec(left), parse_group_spec(right)
    seen = []
    first = conjugate_rows

    def recording(*args, repeat=False):
        out = first(*args)
        if repeat and len(out) > 1:
            out[1] = out[0]
        seen.append(out)
        return out

    for repeat in (False, True):
        seen.clear()
        monkeypatch.setattr(bk, "conjugate_rows", lambda *args: recording(*args, repeat=repeat))
        result = verify_baer_kaplansky(g, h)
        rows = np.concatenate(seen)
        assert result.upsilon_injective == (len(np.unique(rows, axis=0)) == len(rows)) == (not repeat)
        assert result.theta_upsilon_roundtrip == (not repeat)


def test_the_first_failing_row_names_the_error():
    # two failing rows in one block: the earlier one is reported, whichever
    # check each fails
    s, t, _, _, F = _block("8", "8")
    changed, translate = _mutations(s, t, random.Random(8))[:2]
    for first, second in [(changed, translate), (translate, changed)]:
        block = F.copy()
        block[2], block[5] = first(F[2]), second(F[5])
        expected = _expected(TrussMorphism(s, t, block[2]))
        assert expected != _expected(TrussMorphism(s, t, block[5]))
        assert _outcome(extract_rows, s, t, block) == expected


def test_an_ill_defined_generator_image_is_named_like_the_oracle(monkeypatch):
    # with preservation skipped, swapping the images of the constants at
    # (1, 0) (order 2) and (0, 1) (order 4) sends a generator of order 2 to
    # an element of order 4: no hom, as GroupHom words it
    monkeypatch.setattr(bk, "preserving_rows", lambda s, t, F, max_enum=None: np.ones(len(F), dtype=bool))
    s, t, _, _, F = _block("2,4", "2,4")
    i, j = constant_index(s, (1, 0)), constant_index(s, (0, 1))
    block = F.copy()
    block[3, [i, j]] = block[3, [j, i]]
    expected = _outcome(heap_iso_by_decompose, TrussMorphism(s, t, block[3]))
    assert "is not a multiple of 2; map is ill-defined on generator 0" in expected
    assert _outcome(extract_rows, s, t, block) == expected


@pytest.mark.parametrize("a,b,wrong", [((0, 2), (1, 1), (0, 2)), ((1, 3), (1, 2), (1, 2))])
def test_a_table_off_its_generators_hom_is_named_like_the_oracle(monkeypatch, a, b, wrong):
    # with preservation skipped, swapping the images of the constants at two
    # elements other than 0 and the generators keeps a bijection that sends
    # constants to constants and the generator images of a hom, which the
    # translated table leaves first at the lesser of the two
    monkeypatch.setattr(bk, "preserving_rows", lambda s, t, F, max_enum=None: np.ones(len(F), dtype=bool))
    s, t, _, _, F = _block("2,4", "2,4")
    i, j = constant_index(s, a), constant_index(s, b)
    block = F.copy()
    block[3, [i, j]] = block[3, [j, i]]
    expected = _outcome(heap_iso_by_decompose, TrussMorphism(s, t, block[3]))
    assert expected == f"extracted map is not a heap morphism: translated table is not additive: disagrees at {wrong}"
    assert _outcome(extract_rows, s, t, block) == expected


def _misconjugating(monkeypatch, r):
    """Patch `conjugate_rows` so that row r of all the rows it is handed,
    counted across calls, is conjugated as if its translation were moved
    by h's last generator d: the row becomes the conjugation of the heap
    isomorphism x -> v(x) + d, still a truss isomorphism, so extraction
    accepts it but gives back a different row. Returns the list that
    receives the value table of the row when it is met."""
    real, seen, hit = bk.conjugate_rows, [0], []

    def conjugate(source, target, values, max_enum=None):
        out = real(source, target, values, max_enum)
        i = r - seen[0]
        if 0 <= i < len(values):
            moved = target.factored_tables().gadd[values[i], target.group.generators[-1]]
            out[i] = real(source, target, moved[None], max_enum)[0]
            hit.append(values[i].copy())
        seen[0] += len(values)
        return out

    monkeypatch.setattr(bk, "conjugate_rows", conjugate)
    return hit


@pytest.mark.parametrize("left,right", [("2,4", "2,4"), ("6", "2,3"), ("1,2,2", "2,1,2")])
def test_every_generating_row_is_round_tripped(left, right, monkeypatch):
    # bk runs the round trip on |Aut(G)| linear rows and one translation
    # row per generator of H of order above 1; a wrong conjugation in any
    # one of them fails the round trip
    g, h = parse_group_spec(left), parse_group_spec(right)
    rows = aut_count(g) + sum(1 for n in h.orders if n > 1)
    kinds = set()
    for r in range(rows):
        hit = _misconjugating(monkeypatch, r)
        result = verify_baer_kaplansky(g, h)
        monkeypatch.undo()
        assert len(hit) == 1
        kinds.add("linear" if hit[0][0] == 0 else "translation")
        assert not result.theta_upsilon_roundtrip and not result.consistent
    assert kinds == {"linear", "translation"}
    # and no more rows than that are handed out
    hit = _misconjugating(monkeypatch, rows)
    assert verify_baer_kaplansky(g, h).consistent and not hit


@pytest.mark.parametrize("kind", ["linear", "translation"])
def test_a_wrong_conjugation_of_one_generating_row_fails_the_cli(kind, capsys, monkeypatch):
    # bk 8 8 has the 4 linear rows x -> ux, u a unit, then x -> x + 1
    r = {"linear": 2, "translation": 4}[kind]
    hit = _misconjugating(monkeypatch, r)
    code = main(["bk", "8", "8", "--json"])
    data = json.loads(capsys.readouterr().out)
    assert len(hit) == 1 and (hit[0][0] == 0) == (kind == "linear")
    assert code == 1
    assert data["theta_upsilon_roundtrip"] is False and data["consistent"] is False
    assert data["heap_iso_count"] == 32


@pytest.mark.parametrize("argv", [["bk", "8", "8"], ["module-bk", "zn:4", "zn:4"]])
@pytest.mark.parametrize("fault", ["not bijective", "outside the family"])
def test_a_conjugation_that_is_no_truss_iso_exits_1_with_one_error_line(argv, fault, capsys, monkeypatch):
    # a conjugation that is not a bijection, or that leaves the target's
    # hom family, violates the theorem: exit 1 with one line, not a
    # traceback and not exit 2, the code of malformed input
    real = bk.conjugate_rows

    def conjugate(source, target, values, max_enum=None):
        if fault == "outside the family":
            target.hom_positions(np.full(target.group.rank, -1))  # the family's own ValueError
        out = real(source, target, values, max_enum)
        out[0, 1] = out[0, 0]
        return out

    monkeypatch.setattr(bk, "conjugate_rows", conjugate)
    code = main(argv + ["--json"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err == {
        "not bijective": "error: morphism is not bijective\n",
        "outside the family": "error: conjugation by a heap isomorphism leaves the target truss: "
        "homomorphism family is not closed under the required operation\n",
    }[fault]
