"""The names `import trusskit` exposes: what the CLI runs on plus the paper's
objects. Helpers stay in their submodules, so a new top-level name is a
decision made here, not a side effect of an import in `__init__`."""

import inspect

import trusskit

PUBLIC = [
    "AbGroup", "BoundExceeded", "Check", "EndoTruss", "EndomorphismRing", "FiniteHeap", "FiniteTruss",
    "GroupHom", "HeapMorphism", "InvalidEquivalence", "ModuleEquivalence", "NotAnIsomorphism", "RModule",
    "TrussKitError", "TrussMorphism", "ValidationReport", "build_endo_truss", "build_linear_endo_truss",
    "check_inner_structure", "coordinate_module", "end_ring", "enumerate_truss_isos",
    "enumerate_truss_morphisms", "equivalence_from_truss_iso", "example_non_iso", "find_module_equivalence",
    "heap_from_group", "heap_iso_from_truss_iso", "heap_isos", "induced_action", "make_field_fp", "make_group",
    "make_product_ring", "make_ring_zn", "module_zn", "parse_group_spec", "regular_module", "ring_as_truss",
    "truss_iso_from_equivalence", "truss_iso_from_heap_iso", "truss_morphism_preserves", "validate_heap",
    "validate_induced_action", "validate_module", "validate_ring", "validate_truss", "verify_baer_kaplansky",
]


def test_top_level_names_are_the_fixed_list():
    names = sorted(n for n, v in vars(trusskit).items() if not n.startswith("_") and not inspect.ismodule(v))
    assert names == PUBLIC
