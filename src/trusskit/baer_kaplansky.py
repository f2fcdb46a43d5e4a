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
per isomorphism; extraction is then a left inverse, so conjugation is
injective. `conjugate_homs`, the hom half of a conjugation, is shared with
`modules`. It checks both of the paper's theorems: `module-bk` runs
it on the linear sub-trusses E_R(M) and E_R(N), and `bk`
(`verify_baer_kaplansky`) on E(G) and E(H) with the group isomorphisms and
one translation per generator of H, which generate every heap
isomorphism; both directions are multiplicative, so the round trip on these
rows is the round trip on all |Aut(G)| |H| of them. (Non-isomorphic G and H
have none, and `bk` decides them by counting.)

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
    _linear_isos,
    _row_ids,
    _translated,
    build_endo_truss,
    endo_truss_size,
)
from .errors import BoundExceeded, NotAnIsomorphism, guard, resolve_max_enum
from .groups import AbGroup, additivity_failures, groups_isomorphic, group_to_json, matrix_images
from .trusses import TrussMorphism, _affine_search, preserving_rows


def _endo_ends(phi: TrussMorphism) -> tuple[EndoTruss, EndoTruss]:
    if not isinstance(phi.source, EndoTruss) or not isinstance(phi.target, EndoTruss):
        raise TypeError("morphism must run between endomorphism trusses")
    return phi.source, phi.target


# Carrier-map entries (rows x n) that `verify_correspondence` conjugates and
# extracts at a time, which bounds every rows x n array the kernels build,
# with a floor of 8 rows a block. Set by measurement: 2^15 and more raised
# the peak RSS of the `bk` benchmark, and at n = 4096 blocks of 4 rows ran as
# fast as blocks of 16. Above n = 2^11 the floor wins: with one row a block
# the per-call costs dominate (in-process `bk 4,8 4,8`, n = 16384 and 130
# rows: 0.26 s with one row a block, 0.18 s with 8; 2 CPUs, one BLAS thread).
_BLOCK_ENTRIES = 1 << 14

_NOT_ADDITIVE = "extracted map is not a heap morphism: translated table is not additive"


def extract_rows(source: EndoTruss, target: EndoTruss, F: np.ndarray, max_enum: int | None = None) -> np.ndarray:
    """(B, |G|) value tables, element indices of H, of the heap
    isomorphisms a -> Phi(constant at a)(0) extracted from the rows Phi of
    F, a (B, n) array of maps E(G) -> E(H) by target index.

    Every row is checked in this order: bijective, preserves both
    operations (`preserving_rows`), sends constants to constants, its
    translated table x -> Phi(constant at x)(0) - Phi(constant at 0)(0) is
    additive (`additivity_failures`), and that table is bijective. The
    first row that fails a check raises NotAnIsomorphism naming the first
    check it fails; a table that is not additive is named by its generator
    images, when they define no hom, or else by the first element where
    the hom they define disagrees with it.
    """
    g, h = source.group, target.group
    ft = target.factored_tables(max_enum)
    image_homs, values = target.decode(F[:, list(source.constant_indices)])
    linear = ft.gadd[values, ft.gneg[values[:, :1]]]  # x -> values[x] - values[0]
    passed = np.stack([
        _bijective_rows(F, target.size),
        preserving_rows(source, target, F, max_enum),
        (image_homs == target.zero // h.cardinality).all(axis=1),
        ~additivity_failures(linear, source.factored_tables(max_enum).gadd, ft.gadd, g.generators).any(axis=(1, 2)),
        _bijective_rows(linear, h.cardinality),
    ], axis=1)
    if not passed.all():
        row = int(np.flatnonzero(~passed.all(axis=1))[0])
        check = int(np.argmin(passed[row]))
        if check == 3:
            try:
                hom = HeapMorphism.from_values(g, h, values[row]).linear
            except ValueError as exc:
                raise NotAnIsomorphism(f"{_NOT_ADDITIVE}: {exc}") from None
            table = matrix_images(np.array(hom.matrix, dtype=np.int64)[None], g, h)[0]
            wrong = int(np.argmax(table != linear[row]))
            raise NotAnIsomorphism(f"{_NOT_ADDITIVE}: disagrees at {g.element_at(wrong)}")
        raise NotAnIsomorphism((
            "morphism is not bijective",
            "morphism does not preserve the truss operations",
            "image of a constant map is not constant",
            _NOT_ADDITIVE,
            "extracted heap morphism is not bijective",
        )[check])
    return values


def conjugate_homs(apply: np.ndarray, target: EndoTruss, f: np.ndarray) -> np.ndarray:
    """(B, H) target family positions of f u f^{-1}, read on H's generators,
    for each row f of `f`, the value table of a group isomorphism G -> H,
    and each of the H homs u whose value tables are the rows of `apply`.
    Raises ValueError when a conjugate falls outside the target's family."""
    f_inv = np.argsort(f, axis=1)
    u_images = apply[:, f_inv[:, target.group.generators]].swapaxes(0, 1)
    return target.hom_positions(f[np.arange(len(f))[:, None, None], u_images])


def conjugate_rows(source: EndoTruss, target: EndoTruss, values: np.ndarray, max_enum: int | None = None) -> np.ndarray:
    """(B, n) maps alpha -> hm o alpha o hm^{-1}, E(G) -> E(H) by target
    index, for the heap isomorphisms hm whose value tables, element indices
    of H, are the rows of `values`.

    For hm = (f, t) and alpha = (u, e) the conjugate is
    (f u f^{-1}, f(e) + t - (f u f^{-1})(t)): the homs are conjugated by
    `conjugate_homs`, and the translations follow by table lookups. Raises
    ValueError when a conjugate falls outside the target's hom family.
    """
    src, tgt = source.factored_tables(max_enum), target.factored_tables(max_enum)
    t = values[:, :1]
    conj = conjugate_homs(src.apply, target, tgt.gadd[values, tgt.gneg[t]])
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


# The most heap isomorphisms whose value tables `verify_baer_kaplansky`
# gathers as witnesses.
_WITNESSES = 8


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
    # (K, |left|) value tables of the K heap isomorphisms, in `heap_isos`
    # order, when 0 < K <= _WITNESSES; else None
    witnesses: np.ndarray | None = field(compare=False, repr=False)

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


def _conjugated(source: EndoTruss, target: EndoTruss, values: np.ndarray, max_enum: int | None) -> np.ndarray:
    """`conjugate_rows`, a conjugate outside the target's family (a violated theorem) raised as NotAnIsomorphism."""
    try:
        return conjugate_rows(source, target, values, max_enum)
    except ValueError as exc:
        raise NotAnIsomorphism(f"conjugation by a heap isomorphism leaves the target truss: {exc}") from None


def verify_correspondence(
    source: EndoTruss, target: EndoTruss, isos: np.ndarray, brute_force: bool = False, max_enum: int | None = None
) -> tuple[bool, int | None]:
    """(roundtrip, truss_iso_count) of the heap isomorphisms G -> H whose
    value tables are the rows of `isos`, between endomorphism trusses on G
    and H, full or linear: whether extraction after conjugation gives back
    every row. The rows are a generating set of the heap isomorphisms
    (`bk`; see `verify_baer_kaplansky`) or the single isomorphism (mu, 0)
    of a module equivalence (`module-bk`). Each row is conjugated and
    extracted back, a block of `_BLOCK_ENTRIES` carrier entries (at least
    8 rows) at a time; a passed round trip makes extraction a left inverse,
    which proves conjugation injective.
    The count is 0 for carriers of unequal size, else, when `brute_force`
    is set and the search fits the cap, the number of truss isomorphisms
    the affine search finds (the rows of `enumerate_truss_isos`), each of
    which must come back from extraction and conjugation; else None.
    A conjugation that is not a truss isomorphism, or leaves the target's
    hom family, violates the theorem and raises NotAnIsomorphism."""
    roundtrip = True
    rows = max(8, _BLOCK_ENTRIES // source.size)
    for start in range(0, len(isos), rows):
        values = isos[start : start + rows]
        F = _conjugated(source, target, values, max_enum)
        # extraction re-checks that each conjugation is a truss isomorphism
        roundtrip &= np.array_equal(extract_rows(source, target, F, max_enum), values)

    truss_iso_count: int | None = None
    if source.size != target.size:
        truss_iso_count = 0
    elif brute_force:
        try:
            F = _affine_search(source, target, True, max_enum)
        except BoundExceeded:
            pass  # reported as not enumerated
        else:
            truss_iso_count = len(F)
            if len(F):
                back = _conjugated(source, target, extract_rows(source, target, F, max_enum), max_enum)
                roundtrip &= np.array_equal(back, F)
    return roundtrip, truss_iso_count


def verify_baer_kaplansky(
    g: AbGroup,
    h: AbGroup,
    brute_force: bool = False,
    max_enum: int | None = None,
) -> BKVerification:
    """Certify both directions of the correspondence between g and h:
    `verify_correspondence` on E(g), E(h) and a generating set of the heap
    isomorphisms, whose number the brute-force count (when requested and
    feasible) must match; and g, h are isomorphic exactly when a truss
    isomorphism exists. When h == g, one E(g) serves as both source and
    target, and its End(g) value table yields the group isomorphisms.

    Every heap isomorphism is an affine map tau_t o f, f a group
    isomorphism g -> h and tau_t the translation by t in h (Baer; Certaine).
    So the rows are every group isomorphism f, and tau_s o f_0 for each
    generator s of h of order above 1, f_0 the first f: |Aut(g)| + rank(h)
    rows, where there are |Aut(g)| |h| heap isomorphisms. (The generator of
    an order-1 factor is 0, and tau_0 o f_0 would repeat the row f_0.)
    Extraction after conjugation, e o conj, is the identity on these rows,
    and then on every heap isomorphism:
    * conj(phi) = (alpha -> phi alpha phi^-1) is multiplicative as a
      formula: conj(phi psi) = conj(phi) conj(psi), conj(phi^-1) = conj(phi)^-1.
    * e(Phi)(a) = Phi(c_a)(0), c_a the constant at a, is multiplicative on
      bijections that send constants to constants, as `extract_rows` checks
      of every row: then Phi(c_a) = c_e(Phi)(a), so e(Phi Psi) = e(Phi) e(Psi)
      and e(Phi^-1) = e(Phi)^-1.
    * tau_s = (tau_s o f_0) o f_0^-1, so e(conj(tau_s)) = tau_s, hence
      e(conj(tau_t)) = tau_t for every t, a sum of generators, and
      e(conj(tau_t o f)) = tau_t o f.
    So `theta_upsilon_roundtrip` holds on every heap isomorphism, and
    conjugation, with extraction as a left inverse, is injective: the round
    trip is also `upsilon_injective`. `heap_iso_count` is |Aut(g)| |h|, and
    the value tables of all heap isomorphisms are gathered only as at most
    `_WITNESSES` witnesses.

    E(g) and E(h) are built only when something reads them: when g and h
    are isomorphic, or when they are not, |E(g)| = |E(h)| and `brute_force`
    asks for the search. Otherwise counting decides, with both carriers
    sized (and guarded, g first) by `endo_truss_size`: g and h are not
    isomorphic, so there is no heap isomorphism and nothing to round-trip
    (`theta_upsilon_roundtrip` and `upsilon_injective` hold vacuously), and
    when |E(g)| != |E(h)| there is no bijection E(g) -> E(h), so
    `truss_iso_count` is 0; with equal sizes and no search it is None."""
    giso = groups_isomorphic(g, h)
    if giso:
        eg = build_endo_truss(g, max_enum)
        if h == g:  # End(g) is enumerated and evaluated once, for E(g) and its isomorphisms
            eh, linear = eg, _linear_isos(g, g, max_enum, eg._apply)
        else:
            eh, linear = build_endo_truss(h, max_enum), _linear_isos(g, h, max_enum)
        shifts = np.array([s for s in h.generators if s], dtype=np.int64)
        rows = np.concatenate([linear, _translated(linear[:1], h, shifts, max_enum)])
        roundtrip, truss_iso_count = verify_correspondence(eg, eh, rows, brute_force, max_enum)
    else:
        linear = np.empty((0, g.cardinality), dtype=np.int64)
        equal = endo_truss_size(g, max_enum) == endo_truss_size(h, max_enum)
        roundtrip, truss_iso_count = True, None if equal else 0
        if equal and brute_force:
            eg, eh = build_endo_truss(g, max_enum), build_endo_truss(h, max_enum)
            roundtrip, truss_iso_count = verify_correspondence(eg, eh, linear, True, max_enum)
    heap_iso_count = len(linear) * h.cardinality
    consistent = roundtrip and (giso == (heap_iso_count > 0))
    if truss_iso_count is not None:
        consistent = consistent and (giso == (truss_iso_count > 0))
        if brute_force:
            consistent = consistent and truss_iso_count == heap_iso_count
    witnesses = None
    if 0 < heap_iso_count <= _WITNESSES:
        witnesses = _translated(linear, h, np.arange(h.cardinality), max_enum)
    return BKVerification(
        g, h, heap_iso_count, truss_iso_count, roundtrip, roundtrip, giso, consistent, witnesses
    )


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
    const, ks = list(source.constant_indices), np.arange(k)
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
        # a row is a heap morphism iff x -> X[c, x] - X[c, 0] is additive
        lin = ht.gadd[X, ht.gneg[X[:, :, :1]]].reshape(B * k, m)
        affine = ~additivity_failures(lin, gt.gadd, ht.gadd, g.generators).any(axis=(1, 2)).reshape(B, k)
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
