"""Frozen interchange files and CLI outputs: loading the files must
reproduce the live objects exactly, and the CLI must print the committed
bytes, so neither the JSON formats nor the reports can drift silently."""

import json
import re
import shlex
from pathlib import Path

import pytest
from conftest import decompose, heap_values, to_finite_truss

from trusskit import (
    FiniteTruss,
    HeapMorphism,
    build_endo_truss,
    make_group,
    validate_truss,
)
from trusskit.cli import main
from trusskit.groups import GroupHom

ROOT = Path(__file__).parent.parent
DATA = Path(__file__).parent / "data"


def test_endo_z2_truss_golden():
    loaded = FiniteTruss.from_json_dict(json.loads((DATA / "endo_z2_truss.json").read_text()))
    assert loaded.size == 4
    assert loaded.unit == 2
    assert validate_truss(loaded).passed
    rebuilt = to_finite_truss(build_endo_truss(make_group([2])))
    assert loaded == rebuilt


def test_affine_morphism_golden():
    data = json.loads((DATA / "affine_z4_morphism.json").read_text())
    z4 = make_group([4])
    hm = HeapMorphism(GroupHom(z4, z4, tuple(tuple(r) for r in data["linear"])),
                      tuple(data["translation"]))
    assert hm.to_json_dict() == data
    assert hm.is_isomorphism
    # x -> 3x + 3 on Z/4
    assert heap_values(hm) == ((3,), (2,), (1,), (0,))
    assert decompose(z4, z4, heap_values(hm)) == hm


def readme_commands() -> list[list[str]]:
    """The argv of every `trusskit` line in README's sh blocks, without --json."""
    blocks = re.findall(r"```sh\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    lines = [line for block in blocks for line in block.splitlines() if line.startswith("trusskit ")]
    return [[a for a in shlex.split(line.split("#")[0])[1:] if a != "--json"] for line in lines]


# README's examples exit 0; the corrupted table pins a [FAIL] line with its
# counterexample, and exit 1. The two `inner` runs pin the laws of 65 maps,
# corollary_unique applying to some of them only, and of 28 maps.
CLI_RUNS = [(argv, 0) for argv in readme_commands()] + [
    (["validate", "--truss", "tests/data/endo_z2_truss_corrupt_mult.json"], 1),
    (["inner", "2,2", "2,2"], 0),
    (["inner", "2", "6", "--max-enumeration", "100000000"], 0),
]


def _golden_stem(argv: list[str]) -> str:
    return re.sub(r"[^A-Za-z0-9]+", "_", " ".join(argv)).strip("_")


def test_every_cli_golden_belongs_to_a_run():
    stems = {_golden_stem(argv) for argv, _ in CLI_RUNS}
    assert {p.name for p in (DATA / "cli").iterdir()} == {s + e for s in stems for e in (".txt", ".json")}


@pytest.mark.parametrize("form", ["txt", "json"])
@pytest.mark.parametrize("argv, code", CLI_RUNS, ids=[_golden_stem(a) for a, _ in CLI_RUNS])
def test_cli_output_matches_golden(argv, code, form, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    golden = (DATA / "cli" / f"{_golden_stem(argv)}.{form}").read_text()
    for _ in range(2):  # a second call in the same process prints the same bytes
        assert main(argv + (["--json"] if form == "json" else [])) == code
        out = re.sub(r"elapsed: \d+\.\d{3}s", "elapsed: <masked>", capsys.readouterr().out)
        assert out == golden
