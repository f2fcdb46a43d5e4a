"""trusskit: exact finite-algebra toolkit for heaps, trusses, and the
correspondence between abelian-group isomorphisms and endomorphism-truss
isomorphisms, extended to finite modules over finite rings.

Everything is computed with exact integer arithmetic over explicit finite
carriers, and every structural claim the package makes can be re-verified by
the exhaustive validators and enumerators it ships with.
"""

from .errors import (
    BoundExceeded,
    InvalidEquivalence,
    NotAHeapMorphism,
    NotAnIsomorphism,
    TrussKitError,
    DEFAULT_MAX_ENUM,
)
from .validation import Check, ValidationReport
from .groups import (
    AbGroup,
    AbelianPresentation,
    Element,
    GroupHom,
    compose_homs,
    decompose_abelian,
    enumerate_elements,
    group_from_json,
    group_to_json,
    groups_isomorphic,
    hom_add,
    hom_count,
    hom_enumerate,
    hom_sub,
    hom_ternary,
    identity_hom,
    invariant_factors,
    invert_hom,
    make_group,
    parse_group_spec,
    zero_hom,
)
from .heaps import (
    FiniteHeap,
    RetractGroup,
    heap_from_group,
    is_abelian_heap,
    is_valid_heap,
    retract_at,
    retract_iso,
    validate_heap,
)
from .trusses import (
    FiniteTruss,
    TrussMorphism,
    enumerate_truss_isos,
    enumerate_truss_morphisms,
    identity_truss_morphism,
    truss_morphism_preserves,
    validate_truss,
)
from .endo import (
    EndoTruss,
    HeapMorphism,
    build_endo_truss,
    constant_morphism,
    heap_isos,
    identity_morphism,
)
from .baer_kaplansky import (
    BKVerification,
    check_inner_structure,
    heap_iso_from_truss_iso,
    truss_iso_from_heap_iso,
    verify_baer_kaplansky,
)
from .rings import (
    FiniteRing,
    find_ring_isomorphism,
    is_prime,
    make_field_fp,
    make_product_ring,
    make_ring,
    make_ring_zn,
    ring_as_truss,
    validate_ring,
)
from .modules import (
    EndomorphismRing,
    ModuleEquivalence,
    NonIsoExample,
    RModule,
    build_linear_endo_truss,
    coordinate_module,
    end_ring,
    equivalence_from_truss_iso,
    equivalence_is_valid,
    example_non_iso,
    find_module_equivalence,
    induced_action,
    is_linear_heap_morphism,
    linear_heap_morphisms,
    make_module,
    module_homs,
    module_zn,
    regular_module,
    truss_iso_from_equivalence,
    validate_induced_action,
    validate_module,
)

__version__ = "0.1.0"
