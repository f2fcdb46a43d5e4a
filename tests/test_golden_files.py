"""Frozen interchange files: loading them must reproduce the live objects
exactly, so the JSON formats cannot drift silently."""

import json
from pathlib import Path

from conftest import decompose

from trusskit import (
    FiniteTruss,
    HeapMorphism,
    build_endo_truss,
    make_group,
    validate_truss,
)
from trusskit.groups import GroupHom

DATA = Path(__file__).parent / "data"


def test_endo_z2_truss_golden():
    loaded = FiniteTruss.from_json_dict(json.loads((DATA / "endo_z2_truss.json").read_text()))
    assert loaded.size == 4
    assert loaded.unit == 2
    assert validate_truss(loaded).passed
    rebuilt = build_endo_truss(make_group([2])).to_finite_truss()
    assert loaded == rebuilt


def test_affine_morphism_golden():
    data = json.loads((DATA / "affine_z4_morphism.json").read_text())
    z4 = make_group([4])
    hm = HeapMorphism(GroupHom(z4, z4, tuple(tuple(r) for r in data["linear"])),
                      tuple(data["translation"]))
    assert hm.to_json_dict() == data
    assert hm.is_isomorphism
    # x -> 3x + 3 on Z/4
    assert hm.values() == ((3,), (2,), (1,), (0,))
    assert decompose(z4, z4, hm.values()) == hm
