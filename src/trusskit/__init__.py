"""trusskit: exact finite-algebra toolkit for heaps, trusses, and the
correspondence between abelian-group isomorphisms and endomorphism-truss
isomorphisms, extended to finite modules over finite rings.

Everything is computed with exact integer arithmetic over explicit finite
carriers, and every structural claim the package makes can be re-verified by
the exhaustive validators and enumerators it ships with. The names exported
here are the ones the CLI runs on plus the paper's objects. Helpers stay in
their submodules, and so does the object round trip, which no command runs:
the tests and the benchmark's tracer import it from there.
"""

from .errors import BoundExceeded, InvalidEquivalence, NotAnIsomorphism, TrussKitError
from .validation import Check, ValidationReport
from .groups import AbGroup, GroupHom, make_group, parse_group_spec
from .heaps import FiniteHeap, heap_from_group, validate_heap
from .trusses import (
    FiniteTruss,
    TrussMorphism,
    enumerate_truss_isos,
    enumerate_truss_morphisms,
    truss_morphism_preserves,
    validate_truss,
)
from .endo import EndoTruss, HeapMorphism, build_endo_truss
from .baer_kaplansky import verify_baer_kaplansky
from .rings import make_field_fp, make_product_ring, make_ring_zn, ring_as_truss, validate_ring
from .modules import (
    EndomorphismRing,
    ModuleEquivalence,
    RModule,
    build_linear_endo_truss,
    coordinate_module,
    end_ring,
    example_non_iso,
    find_module_equivalence,
    induced_action,
    module_zn,
    regular_module,
    validate_induced_action,
    validate_module,
)

__version__ = "0.1.0"
