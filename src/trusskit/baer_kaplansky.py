"""Constructive Baer-Kaplansky correspondence for finite abelian groups.

Two finite abelian groups are isomorphic exactly when their endomorphism
trusses are, and the two directions are explicit:

* from a truss isomorphism Phi: E(G) -> E(H), evaluate the image of each
  constant map at zero to get a heap isomorphism G -> H
  (`heap_iso_from_truss_iso`);
* from a heap isomorphism phi: G -> H, conjugate, alpha -> phi o alpha o
  phi^{-1} (`truss_iso_from_heap_iso`).

These are mutually inverse; `verify_baer_kaplansky` certifies that on concrete
groups by enumeration. Beyond isomorphisms, every truss morphism Phi between
endomorphism trusses carries an inner structure: the image of the zero constant
splits into an idempotent endomorphism plus an offset annihilated by it, and
the heap morphisms intertwining Phi (those xi with Phi(alpha) o xi = xi o
alpha) are classified by the coset offset + image of the idempotent
(`inner_structure`, `intertwiner_at`, `intertwiner_correspondence`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .endo import (
    EndoTruss,
    HeapMorphism,
    build_endo_truss,
    decompose,
    heap_isos,
    heap_morphisms,
    heap_ternary,
)
from .errors import NotAHeapMorphism, NotAnIsomorphism, TrussKitError
from .groups import (
    AbGroup,
    Element,
    GroupHom,
    groups_isomorphic,
    group_to_json,
    np_hom_images,
)
from .trusses import TrussMorphism, enumerate_truss_isos, truss_morphism_preserves

BRUTE_FORCE_CARRIER_CAP = 9


def _endo_ends(phi: TrussMorphism) -> tuple[EndoTruss, EndoTruss]:
    if not isinstance(phi.source, EndoTruss) or not isinstance(phi.target, EndoTruss):
        raise TypeError("morphism must run between endomorphism trusses")
    return phi.source, phi.target


def _require_truss_iso(phi: TrussMorphism, max_enum: int | None) -> None:
    if not phi.is_bijective:
        raise NotAnIsomorphism("morphism is not bijective")
    if not truss_morphism_preserves(phi, max_enum):
        raise NotAnIsomorphism("morphism does not preserve the truss operations")


def heap_iso_from_truss_iso(phi: TrussMorphism, max_enum: int | None = None) -> HeapMorphism:
    """Extract the heap isomorphism G -> H inducing a truss isomorphism.

    Sends a to the value of Phi(constant at a) at zero; raises
    NotAnIsomorphism if Phi fails bijectivity or preservation, or if some
    constant's image is not constant (impossible for genuine isomorphisms).
    """
    eg, eh = _endo_ends(phi)
    _require_truss_iso(phi, max_enum)
    values = {}
    for a in eg.group.elements():
        image = eh.carrier[phi.mapping[eg.constant_index(a)]]
        if not image.is_constant:
            raise NotAnIsomorphism("image of a constant map is not constant")
        values[a] = image.translation
    try:
        hm = decompose(eg.group, eh.group, values)
    except NotAHeapMorphism as exc:
        raise NotAnIsomorphism(f"extracted map is not a heap morphism: {exc}") from None
    if not hm.is_isomorphism:
        raise NotAnIsomorphism("extracted heap morphism is not bijective")
    return hm


def truss_iso_from_heap_iso(
    hm: HeapMorphism, source: EndoTruss, target: EndoTruss, max_enum: int | None = None
) -> TrussMorphism:
    """Conjugation alpha -> hm o alpha o hm^{-1} as a truss isomorphism.

    For hm = (f, t) and alpha = (u, e) the conjugate is
    (f u f^{-1}, f(e) + t - (f u f^{-1})(t)): each hom u is conjugated once,
    on the generators, and the translations follow by table lookups.
    """
    if hm.source != source.group or hm.target != target.group:
        raise ValueError("heap morphism does not run between the truss base groups")
    if not hm.is_isomorphism:
        raise NotAnIsomorphism("heap morphism is not bijective")
    src, tgt = source.factored_tables(max_enum), target.factored_tables(max_enum)
    f = np_hom_images([hm.linear], source.group, target.group)[0]
    f_inv = np.argsort(f)
    # generator images of f u f^{-1}, then their positions in the target family
    conj = target.hom_positions(f[src.apply[:, f_inv[target._generators]]])
    t = target.group.index(hm.translation)
    shifted = tgt.gadd[f, t]  # f(e) + t
    trans = tgt.gadd[shifted[None, :], tgt.gneg[tgt.apply[conj, t]][:, None]]
    mapping = conj[:, None] * target._m + trans
    return TrussMorphism(source, target, tuple(mapping.reshape(-1).tolist()))


@dataclass(frozen=True)
class ConjugationWitness:
    """A matched triple: truss isomorphism, the heap isomorphism inducing it by
    conjugation, and the group isomorphism a -> phi(a) - phi(0)."""

    truss_iso: TrussMorphism
    heap_iso: HeapMorphism
    group_iso: GroupHom


def witness_from_truss_iso(phi: TrussMorphism, max_enum: int | None = None) -> ConjugationWitness:
    hm = heap_iso_from_truss_iso(phi, max_enum=max_enum)
    return ConjugationWitness(phi, hm, hm.linear)


@dataclass(frozen=True)
class BKVerification:
    left: AbGroup
    right: AbGroup
    heap_iso_count: int
    truss_iso_count: int | None
    theta_upsilon_roundtrip: bool
    upsilon_injective: bool
    groups_isomorphic: bool
    consistent: bool

    def to_json_dict(self) -> dict:
        return {
            "left": group_to_json(self.left),
            "right": group_to_json(self.right),
            "heap_iso_count": self.heap_iso_count,
            "truss_iso_count": (
                "not_enumerated" if self.truss_iso_count is None else self.truss_iso_count
            ),
            "theta_upsilon_roundtrip": self.theta_upsilon_roundtrip,
            "groups_isomorphic": self.groups_isomorphic,
            "consistent": self.consistent,
        }


def verify_baer_kaplansky(
    g: AbGroup,
    h: AbGroup,
    brute_force: bool = False,
    max_enum: int | None = None,
) -> BKVerification:
    """Certify both directions of the correspondence between g and h.

    Checks that extraction undoes conjugation on every heap isomorphism, that
    conjugation is injective into the truss isomorphisms, that the brute-force
    isomorphism count (when requested and feasible) matches |h| times the
    number of group isomorphisms, and that groups are isomorphic exactly when
    a truss isomorphism exists.
    """
    eg = build_endo_truss(g, max_enum)
    eh = build_endo_truss(h, max_enum)
    giso = groups_isomorphic(g, h)
    if giso:
        # every extraction needs the n x n tables: refuse an over-cap pair
        # before any isomorphism or conjugation is built
        eg._retract_guard(max_enum)
    isos = heap_isos(g, h, max_enum)
    conjugations = [truss_iso_from_heap_iso(hm, eg, eh, max_enum) for hm in isos]
    # each extraction re-checks that its input preserves both operations
    extracted = [heap_iso_from_truss_iso(phi, max_enum) for phi in conjugations]
    roundtrip = extracted == list(isos)
    injective = len({phi.mapping for phi in conjugations}) == len(conjugations)

    def conjugate(hm: HeapMorphism) -> tuple[int, ...]:
        return truss_iso_from_heap_iso(hm, eg, eh, max_enum).mapping

    truss_iso_count: int | None
    enumerated = None
    if eg.size != eh.size:
        truss_iso_count = 0
    elif brute_force and eg.size <= BRUTE_FORCE_CARRIER_CAP:
        enumerated = enumerate_truss_isos(eg, eh, max_enum)
        truss_iso_count = len(enumerated)
        roundtrip = roundtrip and all(
            conjugate(heap_iso_from_truss_iso(phi, max_enum)) == phi.mapping
            for phi in enumerated
        )
    else:
        truss_iso_count = None
        roundtrip = roundtrip and all(
            conjugate(hm) == phi.mapping for hm, phi in zip(extracted, conjugations)
        )

    consistent = injective and roundtrip and (giso == (len(isos) > 0))
    if truss_iso_count is not None:
        consistent = consistent and (giso == (truss_iso_count > 0))
        if enumerated is not None:
            consistent = consistent and truss_iso_count == len(isos)
    else:
        consistent = consistent and (len(conjugations) > 0) == giso
    return BKVerification(
        g, h, len(isos), truss_iso_count, roundtrip, injective, giso, consistent
    )


@dataclass(frozen=True, eq=False)
class InnerStructure:
    """Inner data of a truss morphism Phi: E(G) -> E(H).

    The image of the zero constant splits as idempotent + offset with
    idempotent(offset) = 0; `intertwiners` collects the heap morphisms xi with
    Phi(alpha) o xi = xi o alpha for every alpha, and `coset` is offset +
    image(idempotent), which indexes them bijectively.
    """

    idempotent: GroupHom
    offset: Element
    intertwiners: tuple[HeapMorphism, ...]
    coset: tuple[Element, ...]


def _phi_images(phi: TrussMorphism) -> tuple[EndoTruss, EndoTruss, list[HeapMorphism]]:
    eg, eh = _endo_ends(phi)
    return eg, eh, [eh.carrier[j] for j in phi.mapping]


def inner_structure(phi: TrussMorphism, max_enum: int | None = None) -> InnerStructure:
    eg, eh, images = _phi_images(phi)
    zero_image = images[eg.constant_index(eg.group.zero)]
    idempotent, offset = zero_image.linear, zero_image.translation
    h = eh.group
    candidates = heap_morphisms(eg.group, h, max_enum)
    intertwiners = tuple(
        xi
        for xi in candidates
        if all(
            images[i].compose(xi) == xi.compose(alpha)
            for i, alpha in enumerate(eg.carrier)
        )
    )
    seen: dict[Element, None] = {}
    for x in h.elements():
        seen.setdefault(h.add(idempotent(x), offset))
    return InnerStructure(idempotent, offset, intertwiners, tuple(seen))


def intertwiner_at(phi: TrussMorphism, b: Element) -> HeapMorphism:
    """The heap morphism a -> Phi(constant at a)(b); always an intertwiner."""
    eg, eh, images = _phi_images(phi)
    values = {
        a: images[eg.constant_index(a)](eh.group.element(b))
        for a in eg.group.elements()
    }
    return decompose(eg.group, eh.group, values)


def intertwiner_correspondence(
    phi: TrussMorphism, inner: InnerStructure | None = None, max_enum: int | None = None
) -> tuple[tuple[Element, HeapMorphism], ...]:
    """The bijection coset -> intertwiners, c -> (a -> Phi(constant at a)(c)).

    Verifies bijectivity and heap-morphism-ness before returning; a failure
    here would falsify the classification and raises TrussKitError.
    """
    if inner is None:
        inner = inner_structure(phi, max_enum)
    pairs = tuple((c, intertwiner_at(phi, c)) for c in inner.coset)
    values = [xi for _, xi in pairs]
    if len(set(values)) != len(values) or set(values) != set(inner.intertwiners):
        raise TrussKitError("coset does not classify the intertwiners bijectively")
    eh_group = inner.intertwiners[0].target if inner.intertwiners else None
    by_coset = dict(pairs)
    if eh_group is not None:
        for c1 in inner.coset:
            for c2 in inner.coset:
                for c3 in inner.coset:
                    combined = eh_group.ternary(c1, c2, c3)
                    if combined not in by_coset:
                        raise TrussKitError("coset is not closed under the ternary operation")
                    expected = heap_ternary(by_coset[c1], by_coset[c2], by_coset[c3])
                    if by_coset[combined] != expected:
                        raise TrussKitError("correspondence is not a heap morphism")
    return pairs


def unique_intertwiner(phi: TrussMorphism, max_enum: int | None = None) -> HeapMorphism | None:
    """When some constant map has constant image under Phi, the intertwiner is
    unique; returns it, or None when no constant has constant image."""
    eg, eh, images = _phi_images(phi)
    if not any(
        images[eg.constant_index(a)].is_constant for a in eg.group.elements()
    ):
        return None
    inner = inner_structure(phi, max_enum)
    if len(inner.intertwiners) != 1:
        raise TrussKitError("expected a unique intertwiner")
    return inner.intertwiners[0]


def check_inner_structure(phi: TrussMorphism, max_enum: int | None = None) -> dict[str, bool]:
    """Boolean summary of the inner-structure laws for one truss morphism."""
    from .groups import compose_homs

    eg, eh, images = _phi_images(phi)
    h = eh.group
    inner = inner_structure(phi, max_enum)
    eps, off = inner.idempotent, inner.offset
    results = {
        "idempotent": compose_homs(eps, eps).matrix == eps.matrix,
        "offset_annihilated": eps(off) == h.zero,
        "intertwiners_nonempty": len(inner.intertwiners) > 0,
    }
    image_size = len({eps(x) for x in h.elements()})
    results["count_matches_image"] = len(inner.intertwiners) == image_size
    try:
        intertwiner_correspondence(phi, inner, max_enum)
        results["correspondence_bijective"] = True
    except TrussKitError:
        results["correspondence_bijective"] = False
    results["values_at_zero_in_coset"] = all(
        xi(eg.group.zero) in set(inner.coset) for xi in inner.intertwiners
    )
    if any(images[eg.constant_index(a)].is_constant for a in eg.group.elements()):
        try:
            xi = unique_intertwiner(phi, max_enum)
        except TrussKitError:
            results["corollary_unique"] = False
        else:
            results["corollary_unique"] = xi is not None and all(
                images[i].compose(xi) == xi.compose(alpha)
                for i, alpha in enumerate(eg.carrier)
            )
    return results
