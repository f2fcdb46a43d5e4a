"""The affine search behind `enumerate_truss_morphisms` and
`enumerate_truss_isos`, against the brute-force oracles where they are
feasible and against the group correspondence beyond them."""

import functools
import io
import itertools
import json
import tracemalloc
from contextlib import redirect_stdout

import numpy as np
import pytest
from conftest import (
    as_objects,
    brute_force_truss_isos,
    brute_force_truss_morphisms,
    module_by_callable,
    to_finite_truss,
)

from trusskit import (
    BoundExceeded,
    build_endo_truss,
    build_linear_endo_truss,
    coordinate_module,
    enumerate_truss_isos,
    enumerate_truss_morphisms,
    heap_isos,
    make_field_fp,
    make_group,
    make_product_ring,
    make_ring_zn,
    module_zn,
    parse_group_spec,
    ring_as_truss,
    truss_iso_from_heap_iso,
    truss_morphism_preserves,
)
from trusskit.cli import main
from trusskit.trusses import _affine_search


@functools.lru_cache(maxsize=None)
def endo(spec: str):
    return build_endo_truss(parse_group_spec(spec))


@functools.lru_cache(maxsize=None)
def linear(name: str):
    """Linear endomorphism trusses of the modules in test_modules.py."""
    r22 = make_product_ring(make_field_fp(2), make_field_fp(2))
    r33 = make_product_ring(make_field_fp(3), make_field_fp(3))
    modules = {
        "fx0:2": lambda: coordinate_module(r22, 0),
        "0xf:2": lambda: coordinate_module(r22, 1),
        "fx0:3": lambda: coordinate_module(r33, 0),
        "0xf:3": lambda: coordinate_module(r33, 1),
        "zn:2": lambda: module_zn(2),
        "zn:3": lambda: module_zn(3),
        "z2-over-z4": lambda: module_by_callable(
            make_ring_zn(4), make_group([2]), lambda r, m: ((r[0] * m[0]) % 2,)
        ),
    }
    return build_linear_endo_truss(modules[name]())


# the eight `inner` pairs of the benchmark's tables workload
TABLES_PAIRS = [("2", "3"), ("3", "2"), ("2", "4"), ("2", "5"), ("2", "6"), ("2", "8"), ("2", "2"), ("1", "2")]
TRIVIAL_PAIRS = [
    ("", ""), ("", "1,1"), ("", "2"), ("", "3"), ("", "4"), ("", "2,2"),
    ("2", ""), ("3", ""), ("4", ""),
]


@pytest.mark.parametrize("left,right", TABLES_PAIRS + TRIVIAL_PAIRS)
def test_morphisms_match_the_oracle(left, right):
    s, t = endo(left), endo(right)
    found = enumerate_truss_morphisms(s, t)
    assert tuple(tuple(m.mapping.tolist()) for m in found) == brute_force_truss_morphisms(s, t)


LINEAR = ["fx0:2", "0xf:2", "fx0:3", "0xf:3", "zn:2", "zn:3", "z2-over-z4"]
SMALL_TRUSSES = [("endo", spec) for spec in ("", "2", "3", "1,2")] + [("linear", name) for name in LINEAR]


def _truss(kind, name):
    return endo(name) if kind == "endo" else linear(name)


def _pairs(feasible):
    return [
        (a, b)
        for a, b in itertools.product(SMALL_TRUSSES, repeat=2)
        if feasible(_truss(*a).size, _truss(*b).size)
    ]


@pytest.mark.parametrize("a,b", _pairs(lambda ns, nt: ns == nt and ns <= 9))
def test_isos_match_the_oracle(a, b):
    s, t = _truss(*a), _truss(*b)
    found = enumerate_truss_isos(s, t)
    assert tuple(tuple(m.mapping.tolist()) for m in found) == brute_force_truss_isos(s, t)
    assert all(m.is_bijective for m in found)


@pytest.mark.parametrize(
    "a,b", [(a, b) for a, b in _pairs(lambda ns, nt: nt**ns <= 10**5) if "linear" in (a[0], b[0])]
)
def test_morphisms_between_linear_trusses_match_the_oracle(a, b):
    s, t = _truss(*a), _truss(*b)
    found = enumerate_truss_morphisms(s, t)
    assert tuple(tuple(m.mapping.tolist()) for m in found) == brute_force_truss_morphisms(s, t)


# |H| times the number of automorphisms of H
ISO_COUNTS = {"2": 2, "3": 6, "4": 8, "2,2": 24, "5": 20, "6": 12, "8": 32}


@pytest.mark.parametrize("spec", ISO_COUNTS)
def test_isos_are_the_heap_iso_conjugations(spec):
    g, e = parse_group_spec(spec), endo(spec)
    found = [m.mapping.tolist() for m in enumerate_truss_isos(e, e)]
    conjugations = sorted(truss_iso_from_heap_iso(hm, e, e).mapping.tolist() for hm in as_objects(heap_isos(g, g), g, g))
    assert found == conjugations
    assert len(found) == ISO_COUNTS[spec]


# truss morphisms E(G) -> E(H) for |G|, |H| <= 4; the pairs without Z/4 or
# Z/2 x Z/2 on both sides are also checked against the oracle above
UP_TO_4 = ["", "2", "3", "4", "2,2"]
INNER_COUNTS = {
    ("", ""): 1, ("", "2"): 3, ("", "3"): 4, ("", "4"): 5, ("", "2,2"): 17,
    ("2", ""): 1, ("2", "2"): 7, ("2", "3"): 4, ("2", "4"): 5, ("2", "2,2"): 129,
    ("3", ""): 1, ("3", "2"): 3, ("3", "3"): 13, ("3", "4"): 5, ("3", "2,2"): 17,
    ("4", ""): 1, ("4", "2"): 7, ("4", "3"): 4, ("4", "4"): 21, ("4", "2,2"): 129,
    ("2,2", ""): 1, ("2,2", "2"): 3, ("2,2", "3"): 4, ("2,2", "4"): 5, ("2,2", "2,2"): 65,
}


@pytest.mark.parametrize("left,right", itertools.product(UP_TO_4, repeat=2))
def test_inner_is_exhaustive_up_to_order_4(left, right):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["inner", left, right, "--json"])
    assert code == 0
    results = json.loads(out.getvalue())["results"]
    assert results[0]["name"] == "truss_morphism_count"
    assert results[0]["value"] == INNER_COUNTS[left, right]
    assert len(results) > 1
    assert all(r["exhaustive"] and r["passed"] is not False for r in results)


def test_every_found_map_preserves_both_operations():
    s, t = endo("2"), endo("2,2")
    found = enumerate_truss_morphisms(s, t)
    assert found and all(truss_morphism_preserves(m) for m in found)
    assert len({tuple(m.mapping.tolist()) for m in found}) == len(found)


def test_search_counts_its_own_candidates_against_the_cap():
    # E(Z/2 x Z/2) -> E(Z/2 x Z/2) tries far fewer images than 64^64 maps,
    # but more than 10^4
    s = endo("2,2")
    with pytest.raises(BoundExceeded, match="truss morphism search"):
        enumerate_truss_morphisms(s, s, max_enum=10**4)
    with pytest.raises(BoundExceeded, match="truss morphism search"):
        enumerate_truss_isos(s, s, max_enum=10**4)


def test_search_pruning_is_pinned_by_its_candidate_count():
    # the images tried on E(Z/2 x Z/2): a weaker pruning would try more and
    # turn these exact answers into refusals
    s = endo("2,2")
    for search, tried, found in ((enumerate_truss_morphisms, 51648, 65), (enumerate_truss_isos, 14976, 24)):
        assert len(search(s, s, max_enum=tried)) == found
        with pytest.raises(BoundExceeded, match="truss morphism search"):
            search(s, s, max_enum=tried - 1)


def test_search_extends_a_block_of_rows_at_a_time():
    # E(Z/2 x Z/4) has 256 elements; extending every partial map at once
    # traced over 180 MiB of tables, a block of rows at a time under 50
    s = endo("2,4")
    s.generator_chain()  # the factored tables and chain are cached on E(G)
    tracemalloc.start()
    try:
        assert len(enumerate_truss_isos(s, s)) == 64
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 96 * 2**20


# the ring trusses Z/2 and Z/3, and E(Z/2) as dense and as factored tables
CARRIERS = {
    "zn:2": lambda: ring_as_truss(make_ring_zn(2)),
    "zn:3": lambda: ring_as_truss(make_ring_zn(3)),
    "dense-endo:2": lambda: to_finite_truss(endo("2")),
    "endo:2": lambda: endo("2"),
}


@pytest.mark.parametrize("a,b", [(a, b) for a in CARRIERS for b in CARRIERS if (a, b) != ("endo:2", "endo:2")])
def test_dense_and_mixed_carriers_match_the_oracle(a, b):
    # every carrier has one interface: the search runs from and into a
    # dense truss as it does between endomorphism trusses
    s, t = CARRIERS[a](), CARRIERS[b]()
    assert tuple(tuple(m.mapping.tolist()) for m in enumerate_truss_morphisms(s, t)) == brute_force_truss_morphisms(s, t)
    assert tuple(tuple(m.mapping.tolist()) for m in enumerate_truss_isos(s, t)) == brute_force_truss_isos(s, t)


def test_a_refused_search_names_a_truss_of_any_carrier():
    # the search reads `product` and `plus` of any carrier, so its guard
    # names a truss, dense or factored; `inner` prints the refusal as its
    # skipped enumeration
    dense = ring_as_truss(make_ring_zn(5))
    for s, t in ((dense, dense), (endo("2"), endo("2"))):
        with pytest.raises(BoundExceeded) as info:
            enumerate_truss_morphisms(s, t, max_enum=t.size**2 - 1)
        assert info.value.what == f"multiplication and retract tables of a {t.size}-element truss"
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["inner", "2", "2,2,2", "--json"]) == 0
    assert json.loads(out.getvalue())["results"] == [{
        "name": "enumeration",
        "passed": None,
        "value": "skipped: multiplication and retract tables of a 4096-element truss would enumerate "
        "16777216 objects; cap is 1000000 (raise max_enum to override)",
        "exhaustive": False,
    }]


def test_a_refused_search_leaves_the_source_unbuilt():
    # the target's n x n guard runs before the source's generator chain, so
    # a refused search into E(Z/4 x Z/4) builds no factored table of
    # E(Z/2 x Z/2 x Z/2); when the source's own guard would refuse too,
    # `inner` names the target's tables
    source = build_endo_truss(make_group([2, 2, 2]))
    with pytest.raises(BoundExceeded) as info:
        enumerate_truss_isos(source, endo("4,4"))
    assert info.value.what == "multiplication and retract tables of a 4096-element truss"
    assert "_factored_cache" not in source.__dict__ and "_chain_cache" not in source.__dict__
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["inner", "2,2,16", "2,2,2", "--json"]) == 0
    assert json.loads(out.getvalue())["results"][0]["value"] == (
        "skipped: multiplication and retract tables of a 4096-element truss would enumerate "
        "16777216 objects; cap is 1000000 (raise max_enum to override)"
    )


def _search_carriers():
    """Pairs of the endomorphism, linear and dense carriers above, with
    E(Z/8) -> E(Z/2 x Z/2), whose equal sizes admit no isomorphism."""
    pairs = [(endo(a), endo(b)) for a, b in TABLES_PAIRS + TRIVIAL_PAIRS + [("8", "2,2")]]
    pairs += [(_truss(*a), _truss(*b)) for a, b in _pairs(lambda ns, nt: nt**ns <= 10**5)]
    return pairs + [(CARRIERS[a](), CARRIERS[b]()) for a in CARRIERS for b in CARRIERS]


def test_search_rows_are_the_public_morphisms():
    # `inner` and `bk --brute-force` read the search's sorted int64 rows;
    # the public enumerations hand out one TrussMorphism per row
    for s, t in _search_carriers():
        for injective, public in ((False, enumerate_truss_morphisms), (True, enumerate_truss_isos)):
            rows, found = _affine_search(s, t, injective, None), public(s, t)
            assert rows.dtype == np.int64 and rows.shape == (len(found), s.size)
            if found:
                assert np.array_equal(rows, np.stack([m.mapping for m in found]))
                assert rows.tolist() == sorted(rows.tolist())
