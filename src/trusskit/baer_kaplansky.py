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
mutually inverse; `verify_correspondence` certifies that by feeding heap
isomorphisms through both, a block of rows at a time, so no object is built
per isomorphism. It checks both of the paper's theorems: `bk` runs it on
E(G) and E(H), `module-bk` on the linear sub-trusses E_R(M) and E_R(N).

Beyond isomorphisms, every truss morphism Phi between endomorphism trusses
carries an inner structure: the image of the zero constant splits into an
idempotent endomorphism plus an offset annihilated by it, and the heap
morphisms intertwining Phi (those xi with Phi(alpha) o xi = xi o alpha) are
classified by the coset offset + image of the idempotent.
`inner_structure_rows` checks these laws on a block of maps at once, each
set of elements of H a bool mask per row, and `check_inner_structure` is
its one-row case. Everything here reads the factored tables of E(G) and
E(H), never one heap morphism object per carrier element.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .endo import (
    EndoTruss,
    HeapMorphism,
    _bijective_rows,
    _distinct_rows,
    _heap_isos,
    _row_ids,
    build_endo_truss,
    heap_isos,
)
from .errors import BoundExceeded, NotAnIsomorphism, guard, resolve_max_enum
from .groups import AbGroup, GroupHom, groups_isomorphic, group_to_json, matrix_images, np_elements
from .trusses import TrussMorphism, enumerate_truss_isos, preserving_rows


def _endo_ends(phi: TrussMorphism) -> tuple[EndoTruss, EndoTruss]:
    if not isinstance(phi.source, EndoTruss) or not isinstance(phi.target, EndoTruss):
        raise TypeError("morphism must run between endomorphism trusses")
    return phi.source, phi.target


# Carrier-map entries (rows x n) that `verify_correspondence` conjugates and
# extracts at a time, which bounds every rows x n array the kernels build,
# with a floor of 8 rows a block. Set by measurement: 2^15 and more raised
# the peak RSS of the `bk` benchmark, and at n = 4096 blocks of 4 rows ran as
# fast as blocks of 16. Above n = 2^11 the floor wins: one row a block made
# per-call costs dominate (`bk 101 101`, n = 10201: 9.6 s -> 6.4-8.3 s, peak
# RSS 42 -> 44 MB).
_BLOCK_ENTRIES = 1 << 14

_NOT_ADDITIVE = "extracted map is not a heap morphism: translated table is not additive"


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
    coords = np_elements(h).astype(np.uint64)[linear[:, g.generators]]
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
    u_images = src.apply[:, f_inv[:, target.group.generators]].swapaxes(0, 1)
    conj = target.hom_positions(f[np.arange(len(f))[:, None, None], u_images])
    trans = tgt.gadd[values[:, None, :], tgt.gneg[tgt.apply[conj, t]][:, :, None]]
    return target.encode(conj[:, :, None], trans).reshape(len(values), -1)


def heap_iso_from_truss_iso(phi: TrussMorphism, max_enum: int | None = None) -> HeapMorphism:
    """Extract the heap isomorphism G -> H inducing a truss isomorphism:
    a -> Phi(constant at a)(0), by `extract_rows` on Phi's one row, which
    raises NotAnIsomorphism if Phi is not a truss isomorphism."""
    eg, eh = _endo_ends(phi)
    return HeapMorphism.from_values(eg.group, eh.group, extract_rows(eg, eh, phi.mapping[None], max_enum)[0])


def truss_iso_from_heap_iso(
    hm: HeapMorphism, source: EndoTruss, target: EndoTruss, max_enum: int | None = None
) -> TrussMorphism:
    """Conjugation alpha -> hm o alpha o hm^{-1} as a truss isomorphism:
    `conjugate_rows` on hm's one row."""
    g, h = source.group, target.group
    if hm.source != g or hm.target != h:
        raise ValueError("heap morphism does not run between the truss base groups")
    linear = matrix_images(np.array(hm.linear.matrix, dtype=np.int64).reshape(1, h.rank, g.rank), g, h)
    if not _bijective_rows(linear, h.cardinality)[0]:
        raise NotAnIsomorphism("heap morphism is not bijective")
    values = target.factored_tables(max_enum).gadd[linear, h.index(hm.translation)]
    return TrussMorphism(source, target, conjugate_rows(source, target, values, max_enum)[0])


@dataclass(frozen=True)
class BKVerification:
    left: AbGroup
    right: AbGroup
    # (K, |left|) value tables of the heap isomorphisms, in `heap_isos` order
    heap_isos: np.ndarray = field(compare=False, repr=False)
    truss_iso_count: int | None
    theta_upsilon_roundtrip: bool
    upsilon_injective: bool
    groups_isomorphic: bool
    consistent: bool

    @property
    def heap_iso_count(self) -> int:
        return len(self.heap_isos)

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


def verify_correspondence(
    source: EndoTruss, target: EndoTruss, isos: np.ndarray, brute_force: bool = False, max_enum: int | None = None
) -> tuple[bool, bool, int | None]:
    """(roundtrip, injective, truss_iso_count) of the heap isomorphisms
    G -> H whose value tables are the rows of `isos`, between endomorphism
    trusses on G and H, full or linear. Each row is conjugated and extracted
    back, a block of `_BLOCK_ENTRIES` carrier entries (at least 8 rows) at
    a time, and the conjugations are compared on the source chain's basis
    0, s_1..s_k.
    The count is 0 for carriers of unequal size, else, when `brute_force`
    is set and the search fits the cap, the number of `enumerate_truss_isos`,
    each of which must come back from extraction and conjugation; else
    None."""
    roundtrip, keys = True, []
    if len(isos):
        basis = source.generator_chain(max_enum).basis
        rows = max(8, _BLOCK_ENTRIES // source.size)
        for start in range(0, len(isos), rows):
            values = isos[start : start + rows]
            F = conjugate_rows(source, target, values, max_enum)
            # extraction re-checks that each conjugation is a truss isomorphism
            roundtrip &= np.array_equal(extract_rows(source, target, F, max_enum), values)
            keys.append(F[:, basis])
    # rows that pass the certificate are affine, so two of them agree
    # everywhere iff they agree on the chain's basis
    injective = not len(isos) or _distinct_rows(np.concatenate(keys), target.size) == len(isos)

    truss_iso_count: int | None = None
    if source.size != target.size:
        truss_iso_count = 0
    elif brute_force:
        try:
            enumerated = enumerate_truss_isos(source, target, max_enum)
        except BoundExceeded:
            pass  # reported as not enumerated
        else:
            truss_iso_count = len(enumerated)
            if enumerated:
                F = np.stack([phi.mapping for phi in enumerated])
                back = conjugate_rows(source, target, extract_rows(source, target, F, max_enum), max_enum)
                roundtrip &= np.array_equal(back, F)
    return roundtrip, injective, truss_iso_count


def verify_baer_kaplansky(
    g: AbGroup,
    h: AbGroup,
    brute_force: bool = False,
    max_enum: int | None = None,
) -> BKVerification:
    """Certify both directions of the correspondence between g and h:
    `verify_correspondence` on E(g), E(h) and every heap isomorphism, whose
    number the brute-force count (when requested and feasible) must match;
    and g, h are isomorphic exactly when a truss isomorphism exists. When
    h == g, one E(g) serves as both source and target, and its End(g) value
    table yields the heap isomorphisms."""
    eg = build_endo_truss(g, max_enum)
    giso = groups_isomorphic(g, h)
    if h == g:  # End(g) is enumerated and evaluated once, for E(g) and its isomorphisms
        eh, isos = eg, _heap_isos(g, g, lambda: eg._apply, max_enum)
    else:
        eh, isos = build_endo_truss(h, max_enum), heap_isos(g, h, max_enum)
    roundtrip, injective, truss_iso_count = verify_correspondence(eg, eh, isos, brute_force, max_enum)
    consistent = injective and roundtrip and (giso == (len(isos) > 0))
    if truss_iso_count is not None:
        consistent = consistent and (giso == (truss_iso_count > 0))
        if brute_force:
            consistent = consistent and truss_iso_count == len(isos)
    return BKVerification(g, h, isos, truss_iso_count, roundtrip, injective, giso, consistent)


# Columns of the law table of `inner_structure_rows`, in the key order of
# `check_inner_structure`.
INNER_LAWS = (
    "idempotent", "offset_annihilated", "intertwiners_nonempty", "count_matches_image",
    "correspondence_bijective", "values_at_zero_in_coset", "corollary_unique",
)

# Entries of the largest array `inner_structure_rows` builds at a time, the
# (rows, n, |H|, |G|) intertwining comparison.
_LAW_BLOCK_ENTRIES = 1 << 18


def inner_structure_rows(
    source: EndoTruss, target: EndoTruss, F: np.ndarray, max_enum: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The inner-structure laws of the rows Phi of F, a (K, n) array of maps
    E(G) -> E(H) by target index: a (K, 7) bool table with the columns
    `INNER_LAWS`, and the (K,) mask of the rows where corollary_unique
    applies (Phi sends some constant to a constant); elsewhere its column
    reads True.

    An intertwiner xi satisfies xi(a) = Phi(constant at a)(xi(0)) (take
    alpha = constant at a), so it is row xi(0) of the |H| x |G| table
    X[c, a] = Phi(constant at a)(c). The intertwiners are therefore the
    distinct rows that are heap morphisms and satisfy Phi(alpha)(X[c, x]) =
    X[c, alpha(x)] for every alpha and x, one per value at zero. The laws
    compare them with the split Phi(constant at 0) = idempotent + offset and
    the coset offset + image(idempotent). Each set of elements of H is a
    (rows, |H|) mask, and rows of X are compared by their `_row_ids`. F is
    read a block of about `_LAW_BLOCK_ENTRIES` entries at a time; the guard
    counts the |H| |G| max(n, |H|) entries of one row.
    """
    g, h = source.group, target.group
    m, k = g.cardinality, h.cardinality
    per_row = k * m * max(source.size, k)
    guard(per_row, resolve_max_enum(max_enum), "intertwiner check E({}) -> E({})", g, h)
    gt, ht = source.factored_tables(max_enum), target.factored_tables(max_enum)
    u, e = source.decode(np.arange(source.size))
    alpha = gt.gadd[gt.apply[u], e[:, None]]  # alpha[i, x]: element i of E(G) at x
    const, gens, ks = list(source.constant_indices), g.generators, np.arange(k)
    zero_hom = target.decode(target.zero)[0]
    laws = np.empty((len(F), len(INNER_LAWS)), dtype=bool)
    applies = np.empty(len(F), dtype=bool)
    step = max(1, _LAW_BLOCK_ENTRIES // per_row)
    for start in range(0, len(F), step):
        v, t = target.decode(F[start : start + step])
        B = len(v)
        b = np.arange(B)[:, None]
        image = ht.gadd[ht.apply[v], t[:, :, None]]  # image[r, i, y]: Phi_r(element i) at y
        X = image[:, const].swapaxes(1, 2)
        # a row is a heap morphism iff x -> X[c, x] - X[c, 0] is additive on the generators
        lin = ht.gadd[X, ht.gneg[X[:, :, :1]]]
        affine = (lin[:, :, gt.gadd[:, gens]] == ht.gadd[lin[..., None], lin[:, :, None, gens]]).all(axis=(2, 3))
        intertwines = (image[b[:, :, None, None], np.arange(len(alpha))[:, None, None], X[:, None]]
                       == X[:, :, alpha].swapaxes(1, 2)).all(axis=(1, 3))
        inter = affine & intertwines
        eps, off = v[:, const[0]], t[:, const[0]]
        at_zero, eps_image, coset = np.zeros((3, B, k), dtype=bool)
        at_zero[np.nonzero(inter)[0], X[:, :, 0][inter]] = True  # one value per intertwiner
        eps_image[b, ht.apply[eps]] = True
        coset[b, ht.gadd[ht.apply[eps], off[:, None]]] = True
        # c -> row c on the coset preserves every ternary iff it preserves
        # [c1, off, c3] for all c1, c3: a map of heaps is affine at any base point
        tern = ht.gadd[ht.gadd[ks, ht.gneg[off][:, None]][:, :, None], ks]  # c1 - off + c3
        lhs = X[b[:, :, None], tern]
        rhs = ht.gadd[ht.gadd[X, ht.gneg[X[b, off[:, None]]]][:, :, None], X[:, None]]
        ok = coset[b[:, :, None], tern] & (lhs == rhs).all(axis=3)
        closed = (ok | ~(coset[:, :, None] & coset[:, None, :])).all(axis=(1, 2))
        # ids sort by row of F first, so each row's ids are a range from its least
        ids = _row_ids(X.reshape(B * k, m), k, np.repeat(np.arange(B), k)).reshape(B, k)
        ids -= ids.min(axis=1, keepdims=True)
        coset_rows, inter_rows = np.zeros((2, B, k), dtype=bool)
        coset_rows[np.nonzero(coset)[0], ids[coset]] = True
        inter_rows[np.nonzero(inter)[0], ids[inter]] = True
        count = at_zero.sum(axis=1)
        rows = slice(start, start + B)
        applies[rows] = (v[:, const] == zero_hom).any(axis=1)
        laws[rows] = np.stack([
            ht.compose[eps, eps] == eps,
            ht.apply[eps, off] == 0,
            inter.any(axis=1),
            count == eps_image.sum(axis=1),
            (coset_rows.sum(axis=1) == coset.sum(axis=1)) & (coset_rows == inter_rows).all(axis=1) & closed,
            ~(at_zero & ~coset).any(axis=1),
            (count == 1) | ~applies[rows],
        ], axis=1)
    return laws, applies


def laws_passed(laws: np.ndarray, applies: np.ndarray) -> dict[str, bool]:
    """Each law of `inner_structure_rows` by name, True iff every row passes
    it; corollary_unique only when it applies to some row."""
    passed = dict(zip(INNER_LAWS, laws.all(axis=0).tolist()))
    if not applies.any():
        del passed["corollary_unique"]
    return passed


def check_inner_structure(phi: TrussMorphism, max_enum: int | None = None) -> dict[str, bool]:
    """Boolean summary of the inner-structure laws for one truss morphism:
    `inner_structure_rows` on Phi's one row."""
    eg, eh = _endo_ends(phi)
    return laws_passed(*inner_structure_rows(eg, eh, phi.mapping[None], max_enum))
