"""What the benchmark under perfbench/ needs from the package and the tests:
every traced function resolves, the untraced `unchecked` count patches
extraction and restores it, the lookup counter reads validator reports, the
oracles perfbench/oracle.py imports from conftest.py exist, and every job of
the bk and tables workloads passes the benchmark's own judge."""

import sys
from pathlib import Path

import conftest
import pytest
from conftest import identity_truss_morphism

import trusskit.baer_kaplansky
import trusskit.cli  # noqa: F401  (imports every traced module)
from trusskit import build_endo_truss, make_group, validate_truss
from trusskit.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_every_traced_target_resolves():
    for module, attr, _, _ in tracer.TARGETS:
        owner, name, original = tracer._resolve(module, attr)
        assert callable(original), f"{module}.{attr}"
        assert getattr(owner, name) is not None


def test_unchecked_count_patches_extraction_and_undoes_it():
    original = trusskit.baer_kaplansky.heap_iso_from_truss_iso
    bound = [(mod, name) for mod, name in tracer._bindings(original)]
    assert bound
    stats = {"unchecked": 0}
    patches = tracer.count_unchecked(stats)
    try:
        patched = trusskit.baer_kaplansky.heap_iso_from_truss_iso
        assert patched is not original
        assert all(getattr(mod, name) is patched for mod, name in bound)
        phi = identity_truss_morphism(build_endo_truss(make_group([2])))
        assert patched(phi) == original(phi)
        assert stats["unchecked"] == 0
    finally:
        patches.undo()
    assert all(getattr(mod, name) is original for mod, name in bound)


def test_conftest_keeps_the_oracles_the_benchmark_imports():
    for name in ("all_value_tables", "table_is_additive", "brute_force_group_iso_exists"):
        assert callable(getattr(conftest, name))


def test_lookup_counter_reads_validator_reports():
    stat = {"lookups": 0, "sampled": 0}
    tracer._count_lookups(stat, {}, validate_truss(build_endo_truss(make_group([2]))))
    assert stat == {"lookups": 1688, "sampled": 0}


@pytest.mark.parametrize("name", ["bk", "tables"])
def test_every_workload_job_passes_the_judge(name, tmp_path, capsys):
    jobs = workloads.build(name, 1, tmp_path).jobs
    assert jobs
    for job in jobs:
        rc = main(list(job.argv))
        out = capsys.readouterr().out
        assert workloads.judge(job, rc, out) is None, job.argv
