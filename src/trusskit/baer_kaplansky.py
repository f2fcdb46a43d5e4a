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
(`check_inner_structure`). Everything here reads the factored tables of E(G)
and E(H), never one heap morphism object per carrier element.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .endo import EndoTruss, HeapMorphism, build_endo_truss, heap_isos
from .errors import BoundExceeded, NotAnIsomorphism, guard, resolve_max_enum
from .groups import (
    AbGroup,
    GroupHom,
    groups_isomorphic,
    group_to_json,
    np_hom_images,
)
from .trusses import TrussMorphism, enumerate_truss_isos, truss_morphism_preserves


def _endo_ends(phi: TrussMorphism) -> tuple[EndoTruss, EndoTruss]:
    if not isinstance(phi.source, EndoTruss) or not isinstance(phi.target, EndoTruss):
        raise TypeError("morphism must run between endomorphism trusses")
    return phi.source, phi.target


def heap_iso_from_truss_iso(phi: TrussMorphism, max_enum: int | None = None) -> HeapMorphism:
    """Extract the heap isomorphism G -> H inducing a truss isomorphism.

    Sends a to the value of Phi(constant at a) at zero: the heap morphism is
    built from its values on the generators and checked against every value.
    Raises NotAnIsomorphism if Phi fails bijectivity or preservation, or if
    some constant's image is not constant (impossible for genuine
    isomorphisms).
    """
    eg, eh = _endo_ends(phi)
    if not phi.is_bijective:
        raise NotAnIsomorphism("morphism is not bijective")
    if not truss_morphism_preserves(phi, max_enum):
        raise NotAnIsomorphism("morphism does not preserve the truss operations")
    images = phi._array[list(eg.constant_indices)]
    if not np.isin(images, eh.constant_indices).all():
        raise NotAnIsomorphism("image of a constant map is not constant")
    g, h = eg.group, eh.group
    ft = eh.factored_tables(max_enum)
    values = eh.decode(images)[1]
    linear = ft.gadd[values, ft.gneg[values[0]]]  # x -> values[x] - values[0]
    columns = [h.element_at(int(linear[x])) for x in eg.generators]
    matrix = tuple(tuple(col[j] for col in columns) for j in range(h.rank))
    not_additive = "extracted map is not a heap morphism: translated table is not additive"
    try:
        hm = HeapMorphism(GroupHom(g, h, matrix), h.element_at(int(values[0])))
    except ValueError as exc:
        raise NotAnIsomorphism(f"{not_additive}: {exc}") from None
    wrong = np.flatnonzero(np_hom_images([hm.linear], g, h)[0] != linear)
    if len(wrong):
        raise NotAnIsomorphism(f"{not_additive}: disagrees at {g.element_at(int(wrong[0]))}")
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
    conj = target.hom_positions(f[src.apply[:, f_inv[target.generators]]])
    t = target.group.index(hm.translation)
    shifted = tgt.gadd[f, t]  # f(e) + t
    trans = tgt.gadd[shifted[None, :], tgt.gneg[tgt.apply[conj, t]][:, None]]
    mapping = target.encode(conj[:, None], trans)
    return TrussMorphism(source, target, tuple(mapping.reshape(-1).tolist()))


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
            "upsilon_injective": self.upsilon_injective,
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
    isos = heap_isos(g, h, max_enum)
    conjugations = [truss_iso_from_heap_iso(hm, eg, eh, max_enum) for hm in isos]
    # each extraction re-checks that its input preserves both operations
    extracted = [heap_iso_from_truss_iso(phi, max_enum) for phi in conjugations]
    roundtrip = extracted == list(isos)
    injective = len({phi.mapping for phi in conjugations}) == len(conjugations)

    truss_iso_count: int | None = None
    enumerated = None
    if eg.size != eh.size:
        truss_iso_count = 0
    elif brute_force:
        try:
            enumerated = enumerate_truss_isos(eg, eh, max_enum)
        except BoundExceeded:
            pass  # reported as not enumerated
        else:
            truss_iso_count = len(enumerated)
            roundtrip = roundtrip and all(
                truss_iso_from_heap_iso(heap_iso_from_truss_iso(phi, max_enum), eg, eh, max_enum).mapping
                == phi.mapping
                for phi in enumerated
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


def check_inner_structure(phi: TrussMorphism, max_enum: int | None = None) -> dict[str, bool]:
    """Boolean summary of the inner-structure laws for one truss morphism.

    An intertwiner xi satisfies xi(a) = Phi(constant at a)(xi(0)) (take
    alpha = constant at a), so it is row xi(0) of the |H| x |G| table
    X[c, a] = Phi(constant at a)(c). The intertwiners are therefore the
    distinct rows that are heap morphisms and satisfy Phi(alpha)(X[c, x]) =
    X[c, alpha(x)] for every alpha and x, one per value at zero. The laws
    compare them with the split Phi(constant at 0) = idempotent + offset and
    the coset offset + image(idempotent).
    """
    eg, eh = _endo_ends(phi)
    g, h = eg.group, eh.group
    m, k = g.cardinality, h.cardinality
    guard(k * m * max(eg.size, k), resolve_max_enum(max_enum), f"intertwiner check E({g}) -> E({h})")
    gt, ht = eg.factored_tables(max_enum), eh.factored_tables(max_enum)

    def ternary(a, b, c):
        return ht.gadd[ht.gadd[a, ht.gneg[b]], c]

    u, e = eg.decode(np.arange(eg.size))
    alpha = gt.gadd[gt.apply[u], e[:, None]]  # alpha[i, x]: element i of E(G) at x
    v, t = eh.decode(phi._array)
    image = ht.gadd[ht.apply[v], t[:, None]]  # image[i, y]: Phi(element i) at y
    const = list(eg.constant_indices)
    X = image[const].T
    # a row is a heap morphism iff x -> X[c, x] - X[c, 0] is additive on the generators
    lin = ht.gadd[X, ht.gneg[X[:, :1]]]
    gens = eg.generators
    affine = (lin[:, gt.gadd[:, gens]] == ht.gadd[lin[:, :, None], lin[:, None, gens]]).all(axis=(1, 2))
    intertwines = (image[:, X] == X[:, alpha].swapaxes(0, 1)).all(axis=(0, 2))
    rows = np.flatnonzero(affine & intertwines)
    at_zero = np.unique(X[rows, 0])  # one value per intertwiner
    eps, off = v[const[0]], t[const[0]]
    eps_image = np.unique(ht.apply[eps])
    coset = np.unique(ht.gadd[eps_image, off])
    # c -> row c on the coset preserves every ternary iff it preserves
    # [c1, off, c3] for all c1, c3: a map of heaps is affine at any base point
    c1, c3 = coset[:, None], coset[None, :]
    tern = ternary(c1, off, c3)
    closed = np.isin(tern, coset).all() and (X[tern] == ternary(X[c1], X[off], X[c3])).all()
    coset_rows = np.unique(X[coset], axis=0)
    results = {
        "idempotent": bool(ht.compose[eps, eps] == eps),
        "offset_annihilated": bool(ht.apply[eps, off] == 0),
        "intertwiners_nonempty": len(rows) > 0,
        "count_matches_image": len(at_zero) == len(eps_image),
        "correspondence_bijective": bool(
            len(coset_rows) == len(coset)
            and np.array_equal(coset_rows, np.unique(X[rows], axis=0))
            and closed
        ),
        "values_at_zero_in_coset": bool(np.isin(at_zero, coset).all()),
    }
    if np.isin(phi._array[const], eh.constant_indices).any():
        results["corollary_unique"] = len(at_zero) == 1
    return results
