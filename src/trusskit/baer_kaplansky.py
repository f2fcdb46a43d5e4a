"""Constructive Baer-Kaplansky correspondence for finite abelian groups.

Two finite abelian groups are isomorphic exactly when their endomorphism
trusses are, and the two directions are explicit:

* from a truss isomorphism Phi: E(G) -> E(H), evaluate the image of each
  constant map at zero to get a heap isomorphism G -> H (`extract_rows`);
* from a heap isomorphism phi: G -> H, conjugate, alpha -> phi o alpha o
  phi^{-1} (`conjugate_rows`).

Both run on blocks of rows: a (B, n) int64 array of carrier maps, or a
(B, |G|) array of heap-morphism value tables. `heap_iso_from_truss_iso` and
`truss_iso_from_heap_iso` are their one-row cases. The two directions are
mutually inverse; `verify_baer_kaplansky` certifies that on concrete groups
by feeding every heap isomorphism through both, a block of rows at a time,
so no object is built per isomorphism. Beyond isomorphisms, every truss
morphism Phi between endomorphism trusses carries an inner structure: the
image of the zero constant splits into an idempotent endomorphism plus an
offset annihilated by it, and the heap morphisms intertwining Phi (those xi
with Phi(alpha) o xi = xi o alpha) are classified by the coset offset +
image of the idempotent (`check_inner_structure`). Everything here reads the
factored tables of E(G) and E(H), never one heap morphism object per
carrier element.
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
    matrix_images,
    np_elements,
    np_hom_images,
)
from .trusses import TrussMorphism, enumerate_truss_isos, preserving_rows


def _endo_ends(phi: TrussMorphism) -> tuple[EndoTruss, EndoTruss]:
    if not isinstance(phi.source, EndoTruss) or not isinstance(phi.target, EndoTruss):
        raise TypeError("morphism must run between endomorphism trusses")
    return phi.source, phi.target


# Carrier-map entries (rows x n) that `verify_baer_kaplansky` conjugates and
# extracts at a time, which bounds every rows x n array the kernels build.
# Set by measurement: 2^15 and more raised the peak RSS of the `bk`
# benchmark, and at n = 4096 blocks of 4 rows ran as fast as blocks of 16.
_BLOCK_ENTRIES = 1 << 14

_NOT_ADDITIVE = "extracted map is not a heap morphism: translated table is not additive"


def _bijective_rows(rows: np.ndarray, size: int) -> np.ndarray:
    """Mask of the rows that are permutations of range(size)."""
    if rows.shape[1] != size:
        return np.zeros(len(rows), dtype=bool)
    seen = np.zeros((len(rows), size), dtype=bool)
    seen[np.arange(len(rows))[:, None], rows] = True
    return seen.all(axis=1)


def _distinct_rows(rows: np.ndarray, bound: int) -> int:
    """The number of distinct rows of a non-empty array of entries in
    [0, bound): each row is read as a base-`bound` integer one column at a
    time, renumbered after each column so the codes stay below
    len(rows) * bound. (The first np.unique(axis=0) of a process alone
    costs about 1.5 MB of peak RSS.)"""
    code = np.zeros(len(rows), dtype=np.int64)
    for col in rows.T:
        code = np.unique(code * bound + col, return_inverse=True)[1]
    return int(code.max()) + 1


def extract_rows(source: EndoTruss, target: EndoTruss, F: np.ndarray, max_enum: int | None = None) -> np.ndarray:
    """(B, |G|) value tables, element indices of H, of the heap
    isomorphisms a -> Phi(constant at a)(0) extracted from the rows Phi of
    F, a (B, n) array of maps E(G) -> E(H) by target index.

    Every row is checked in this order: bijective, preserves both
    operations (`preserving_rows`), sends constants to constants, its
    generator images define a hom, the hom agrees with the translated table,
    the hom is bijective. The first row that fails a check raises
    NotAnIsomorphism naming the first check it fails.
    """
    g, h = source.group, target.group
    ft = target.factored_tables(max_enum)
    images = F[:, list(source.constant_indices)]
    values = target.decode(images)[1]
    linear = ft.gadd[values, ft.gneg[values[:, :1]]]  # x -> values[x] - values[0]
    # coords[b, i, j]: coordinate j of the image of generator i, which
    # defines a hom iff ord(generator i) * coords[b, i, j] = 0 mod m_j
    coords = np_elements(h).astype(np.uint64)[linear[:, source.generators]]
    defined = ((np.array(g.orders, dtype=np.uint64)[:, None] * coords) % np.array(h.orders, dtype=np.uint64) == 0)
    table = matrix_images(coords.swapaxes(1, 2), g, h)
    passed = np.stack([
        _bijective_rows(F, target.size),
        preserving_rows(source, target, F, max_enum),
        np.isin(images, target.constant_indices).all(axis=1),
        defined.all(axis=(1, 2)),
        (table == linear).all(axis=1),
        _bijective_rows(table, h.cardinality),
    ], axis=1)
    if not passed.all():
        row = int(np.flatnonzero(~passed.all(axis=1))[0])
        check = int(np.argmin(passed[row]))
        if check == 3:
            try:
                GroupHom(g, h, coords[row].T.tolist())
            except ValueError as exc:
                raise NotAnIsomorphism(f"{_NOT_ADDITIVE}: {exc}") from None
        if check == 4:
            wrong = int(np.argmax(table[row] != linear[row]))
            raise NotAnIsomorphism(f"{_NOT_ADDITIVE}: disagrees at {g.element_at(wrong)}")
        raise NotAnIsomorphism((
            "morphism is not bijective",
            "morphism does not preserve the truss operations",
            "image of a constant map is not constant",
            _NOT_ADDITIVE,
            _NOT_ADDITIVE,
            "extracted heap morphism is not bijective",
        )[check])
    return values


def conjugate_rows(source: EndoTruss, target: EndoTruss, values: np.ndarray, max_enum: int | None = None) -> np.ndarray:
    """(B, n) maps alpha -> hm o alpha o hm^{-1}, E(G) -> E(H) by target
    index, for the heap isomorphisms hm whose value tables, element indices
    of H, are the rows of `values`.

    For hm = (f, t) and alpha = (u, e) the conjugate is
    (f u f^{-1}, f(e) + t - (f u f^{-1})(t)): each hom u is conjugated once,
    on the generators, and the translations follow by table lookups. Raises
    ValueError when a conjugate falls outside the target's hom family.
    """
    src, tgt = source.factored_tables(max_enum), target.factored_tables(max_enum)
    t = values[:, :1]
    f = tgt.gadd[values, tgt.gneg[t]]
    f_inv = np.argsort(f, axis=1)
    # generator images of f u f^{-1}, then their positions in the target family
    u_images = src.apply[:, f_inv[:, target.generators]].swapaxes(0, 1)
    conj = target.hom_positions(f[np.arange(len(f))[:, None, None], u_images])
    trans = tgt.gadd[values[:, None, :], tgt.gneg[tgt.apply[conj, t]][:, :, None]]
    return target.encode(conj[:, :, None], trans).reshape(len(values), -1)


def _value_tables(hms, target: EndoTruss, max_enum: int | None) -> np.ndarray:
    """(B, |G|) value tables, element indices of H, of heap morphisms G -> H."""
    h = target.group
    linear = np_hom_images([hm.linear for hm in hms], hms[0].source, h)
    coords = np.array([hm.translation for hm in hms], dtype=np.int64).reshape(len(hms), h.rank)
    translation = coords @ np.array(h._strides, dtype=np.int64)
    return target.factored_tables(max_enum).gadd[linear, translation[:, None]]


def heap_iso_from_truss_iso(phi: TrussMorphism, max_enum: int | None = None) -> HeapMorphism:
    """Extract the heap isomorphism G -> H inducing a truss isomorphism:
    a -> Phi(constant at a)(0), by `extract_rows` on Phi's one row, which
    raises NotAnIsomorphism if Phi is not a truss isomorphism."""
    eg, eh = _endo_ends(phi)
    values = extract_rows(eg, eh, phi._array[None], max_enum)[0]
    h, ft = eh.group, eh.factored_tables(max_enum)
    linear = ft.gadd[values, ft.gneg[values[0]]]
    columns = [h.element_at(int(linear[x])) for x in eg.generators]
    matrix = tuple(tuple(col[j] for col in columns) for j in range(h.rank))
    return HeapMorphism(GroupHom(eg.group, h, matrix), h.element_at(int(values[0])))


def truss_iso_from_heap_iso(
    hm: HeapMorphism, source: EndoTruss, target: EndoTruss, max_enum: int | None = None
) -> TrussMorphism:
    """Conjugation alpha -> hm o alpha o hm^{-1} as a truss isomorphism:
    `conjugate_rows` on hm's one row."""
    if hm.source != source.group or hm.target != target.group:
        raise ValueError("heap morphism does not run between the truss base groups")
    if not hm.is_isomorphism:
        raise NotAnIsomorphism("heap morphism is not bijective")
    mapping = conjugate_rows(source, target, _value_tables([hm], target, max_enum), max_enum)[0]
    return TrussMorphism(source, target, mapping)


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
    a truss isomorphism exists. The heap isomorphisms go through
    `conjugate_rows` and `extract_rows` a block of `_BLOCK_ENTRIES` carrier
    entries at a time; only the basis columns {0} u S of each conjugation
    are kept, for the injectivity check.
    """
    eg = build_endo_truss(g, max_enum)
    eh = build_endo_truss(h, max_enum)
    giso = groups_isomorphic(g, h)
    isos = heap_isos(g, h, max_enum)
    roundtrip, keys = True, []
    if isos:
        basis = eg.generator_tables(max_enum)[0]
        rows = max(1, _BLOCK_ENTRIES // eg.size)
        for start in range(0, len(isos), rows):
            values = _value_tables(isos[start : start + rows], eh, max_enum)
            F = conjugate_rows(eg, eh, values, max_enum)
            # extraction re-checks that each conjugation is a truss isomorphism
            roundtrip &= np.array_equal(extract_rows(eg, eh, F, max_enum), values)
            keys.append(F[:, basis])
    # rows that pass the certificate are affine, so two of them agree
    # everywhere iff they agree on the basis {0} u S
    injective = not isos or _distinct_rows(np.concatenate(keys), eh.size) == len(isos)

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
            if enumerated:
                F = np.stack([phi._array for phi in enumerated])
                back = conjugate_rows(eg, eh, extract_rows(eg, eh, F, max_enum), max_enum)
                roundtrip &= np.array_equal(back, F)

    consistent = injective and roundtrip and (giso == (len(isos) > 0))
    if truss_iso_count is not None:
        consistent = consistent and (giso == (truss_iso_count > 0))
        if enumerated is not None:
            consistent = consistent and truss_iso_count == len(isos)
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
