"""The names `import trusskit` exposes: what the CLI runs on plus the paper's
objects. Helpers stay in their submodules, so a new top-level name is a
decision made here, not a side effect of an import in `__init__`. The object
round trip, which no command runs, also stays in its submodules, where the
tests and the benchmark's tracer import it."""

import inspect

import trusskit

PUBLIC = [
    "AbGroup", "BoundExceeded", "Check", "EndoTruss", "EndomorphismRing", "FiniteHeap", "FiniteTruss",
    "GroupHom", "HeapMorphism", "InvalidEquivalence", "ModuleEquivalence", "NotAnIsomorphism", "RModule",
    "TrussKitError", "TrussMorphism", "ValidationReport", "build_endo_truss", "build_linear_endo_truss",
    "coordinate_module", "end_ring", "enumerate_truss_isos", "enumerate_truss_morphisms", "example_non_iso",
    "find_module_equivalence", "heap_from_group", "induced_action", "make_field_fp", "make_group",
    "make_product_ring", "make_ring_zn", "module_zn", "parse_group_spec", "regular_module", "ring_as_truss",
    "truss_morphism_preserves", "validate_heap", "validate_induced_action", "validate_module",
    "validate_ring", "validate_truss", "verify_baer_kaplansky",
]


def test_top_level_names_are_the_fixed_list():
    names = sorted(n for n, v in vars(trusskit).items() if not n.startswith("_") and not inspect.ismodule(v))
    assert names == PUBLIC


# the object round trip, which no command runs: importable from its submodules only
ROUND_TRIP = {
    "endo": ["heap_isos"],
    "baer_kaplansky": ["check_inner_structure", "heap_iso_from_truss_iso", "truss_iso_from_heap_iso"],
    "modules": ["equivalence_from_truss_iso", "truss_iso_from_equivalence"],
}


def test_the_round_trip_resolves_in_its_submodules_only():
    for module, names in ROUND_TRIP.items():
        for name in names:
            assert callable(getattr(getattr(trusskit, module), name))
            assert name not in vars(trusskit)
