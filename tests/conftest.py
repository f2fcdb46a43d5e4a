"""Shared brute-force oracles, deliberately independent of the library's own
enumeration routes: they filter raw value tables / bijections by the defining
identities, nothing else."""

import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from trusskit import AbGroup, HeapMorphism, NotAHeapMorphism, NotAnIsomorphism, TrussKitError
from trusskit.endo import EndoTruss
from trusskit.errors import guard, resolve_max_enum
from trusskit.groups import Element, GroupHom, compose_homs, hom_enumerate, hom_ternary
from trusskit.trusses import dense_tables


def all_value_tables(g: AbGroup, h: AbGroup):
    """Every total map g -> h, as a value tuple aligned with g's element order."""
    targets = list(h.elements())
    return itertools.product(targets, repeat=g.cardinality)


def table_is_additive(g: AbGroup, h: AbGroup, values) -> bool:
    elems = list(g.elements())
    pos = {e: i for i, e in enumerate(elems)}
    for a in elems:
        fa = values[pos[a]]
        for b in elems:
            if values[pos[g.add(a, b)]] != h.add(fa, values[pos[b]]):
                return False
    return True


def brute_force_hom_count(g: AbGroup, h: AbGroup) -> int:
    """#additive maps by filtering all |h|^|g| functions."""
    return sum(1 for v in all_value_tables(g, h) if table_is_additive(g, h, v))


def brute_force_group_iso_exists(g: AbGroup, h: AbGroup) -> bool:
    """Search all bijections g -> h for an additive one."""
    if g.cardinality != h.cardinality:
        return False
    elems_g = list(g.elements())
    pos = {e: i for i, e in enumerate(elems_g)}
    for perm in itertools.permutations(h.elements()):
        if all(
            perm[pos[g.add(a, b)]] == h.add(perm[pos[a]], perm[pos[b]])
            for a in elems_g
            for b in elems_g
        ):
            return True
    return False


def dense_preserves(tm, max_enum: int = 10**9) -> bool:
    """Preservation of mult and ternary checked entry by entry on the dense
    (n^2, n^3) tables, for carriers of any kind."""
    sm, st = dense_tables(tm.source, max_enum)
    tm_m, tm_t = dense_tables(tm.target, max_enum)
    f = np.array(tm.mapping, dtype=np.int64)
    if (f[sm] != tm_m[f[:, None], f[None, :]]).any():
        return False
    return not (f[st] != tm_t[f[:, None, None], f[None, :, None], f[None, None, :]]).any()


def retract_affine(tm, max_enum: int = 10**9) -> bool:
    """Whether f(x + y) + f(0) = f(x) + f(y) for every pair, on the n x n
    retract-addition tables of two endomorphism trusses: f preserves the
    ternary operation."""
    s, t = tm.source, tm.target
    f = np.array(tm.mapping, dtype=np.int64)
    _, sa, s0 = s._retract_tables(max_enum)
    _, ta, _ = t._retract_tables(max_enum)
    return not (ta[:, f[s0]][f[sa]] != ta[f[:, None], f[None, :]]).any()


def retract_preserves(tm, max_enum: int = 10**9) -> bool:
    """Preservation of mult and ternary on the n x n retract tables of two
    endomorphism trusses, entry by entry for mult, for carriers too large
    for `dense_preserves`."""
    f = np.array(tm.mapping, dtype=np.int64)
    sm = tm.source._retract_tables(max_enum)[0]
    tm_m = tm.target._retract_tables(max_enum)[0]
    return not (f[sm] != tm_m[f[:, None], f[None, :]]).any() and retract_affine(tm, max_enum)


def filter_candidates(cands: np.ndarray, sm, st, tm, tt) -> np.ndarray:
    """Keep the rows of a (k, ns) candidate-map array preserving both dense
    tables; multiplication constraints run first since they prune most
    cheaply."""
    ns = sm.shape[0]
    mask = np.ones(len(cands), dtype=bool)
    for i in range(ns):
        for j in range(ns):
            live = cands[mask]
            if not len(live):
                return cands[:0]
            sub = mask.nonzero()[0]
            ok = live[:, sm[i, j]] == tm[live[:, i], live[:, j]]
            mask[sub[~ok]] = False
    cands = cands[mask]
    if not len(cands):
        return cands
    mask = np.ones(len(cands), dtype=bool)
    for i in range(ns):
        for j in range(ns):
            for k in range(ns):
                live = cands[mask]
                if not len(live):
                    return cands[:0]
                sub = mask.nonzero()[0]
                ok = live[:, st[i, j, k]] == tt[live[:, i], live[:, j], live[:, k]]
                mask[sub[~ok]] = False
    return cands[mask]


def brute_force_truss_morphisms(s, t) -> tuple[tuple[int, ...], ...]:
    """Every map s -> t preserving both dense tables, by filtering all
    |t|^|s| total maps, in lexicographic map order."""
    ns, nt = s.size, t.size
    total = nt**ns
    sm, st = dense_tables(s, 10**9)
    tm, tt = dense_tables(t, 10**9)
    found = []
    chunk = 1 << 14
    for start in range(0, total, chunk):
        ids = np.arange(start, min(start + chunk, total))
        cands = np.stack(np.unravel_index(ids, (nt,) * ns), axis=1)
        found.extend(tuple(int(x) for x in row) for row in filter_candidates(cands, sm, st, tm, tt))
    return tuple(found)


def left_absorbers(t) -> tuple[int, ...]:
    """Elements x with x*y = x for every y."""
    M, _ = dense_tables(t)
    n = M.shape[0]
    return tuple(int(i) for i in range(n) if bool((M[i] == i).all()))


def is_truss_morphism(s, t, mapping) -> bool:
    """Plain-loop recheck that a map preserves both operations; independent of
    the vectorized filters used by the enumerators."""
    ns = s.size
    f = list(mapping)
    for i in range(ns):
        for j in range(ns):
            if f[s.mult(i, j)] != t.mult(f[i], f[j]):
                return False
    for i in range(ns):
        for j in range(ns):
            for k in range(ns):
                if f[s.ternary(i, j, k)] != t.ternary(f[i], f[j], f[k]):
                    return False
    return True


def brute_force_truss_isos(s, t) -> tuple[tuple[int, ...], ...]:
    """Every bijection s -> t preserving both dense tables, sorted: all
    bijections sending left absorbers onto left absorbers (which every
    bijective morphism does), filtered."""
    if s.size != t.size:
        return ()
    n = s.size
    abs_s, abs_t = left_absorbers(s), left_absorbers(t)
    if len(abs_s) != len(abs_t):
        return ()
    rest_s = [i for i in range(n) if i not in set(abs_s)]
    rest_t = [i for i in range(n) if i not in set(abs_t)]
    rows = []
    for pa in itertools.permutations(abs_t):
        for pr in itertools.permutations(rest_t):
            row = [0] * n
            for src, dst in zip(abs_s, pa):
                row[src] = dst
            for src, dst in zip(rest_s, pr):
                row[src] = dst
            rows.append(row)
    sm, st = dense_tables(s, 10**9)
    tm, tt = dense_tables(t, 10**9)
    kept = filter_candidates(np.array(rows, dtype=np.int64).reshape(-1, n), sm, st, tm, tt)
    return tuple(sorted(tuple(int(x) for x in row) for row in kept))


def conjugate_by_composition(hm, source, target) -> tuple[int, ...]:
    """Conjugation alpha -> hm o alpha o hm^{-1}, one heap-morphism
    composition per carrier element; raises ValueError when a conjugate falls
    outside the target's homomorphism family."""
    inv = hm.inverse()
    return tuple(target.index_of(hm.compose(alpha).compose(inv)) for alpha in source.carrier)


def scan_heap_associativity(T: np.ndarray):
    """The lexicographically first (a,b,c,d,e) with [[a,b,c],d,e] !=
    [a,b,[c,d,e]] in a dense ternary table, or None: all n^5 cases."""
    n = T.shape[0]
    rows = np.arange(n)
    for a in range(n):
        Ta = T[a]
        left = T[Ta]  # [b,c,d,e] -> T[Ta[b,c], d, e]
        right = Ta[rows[:, None, None, None], T[None, :, :, :]]  # Ta[b, T[c,d,e]]
        bad = left != right
        if bad.any():
            return (a,) + tuple(int(x) for x in np.argwhere(bad)[0])
    return None


def scan_distributivity(M: np.ndarray, T: np.ndarray, side: str):
    """The lexicographically first (d,a,b,c) with d*[a,b,c] != [da,db,dc]
    (side "left") or [a,b,c]*d != [ad,bd,cd] (side "right"), or None: all
    n^4 cases."""
    for d in range(M.shape[0]):
        Md = M[d] if side == "left" else M[:, d]
        lhs = Md[T]
        rhs = T[Md[:, None, None], Md[None, :, None], Md[None, None, :]]
        bad = lhs != rhs
        if bad.any():
            return (d,) + tuple(int(x) for x in np.argwhere(bad)[0])
    return None


def module_homs_by_loop(m, n):
    """Hom_R(M, N) by the per-element filter: the additive maps f with
    f(r.x) = r.f(x) for every ring element r and module element x."""
    from trusskit.groups import hom_enumerate

    return tuple(
        f
        for f in hom_enumerate(m.group, n.group)
        if all(f(m.act(r, x)) == n.act(r, f(x)) for r in m.ring.elements() for x in m.group.elements())
    )


def induced_action_report_by_loop(m, e):
    """The four module laws of (M, +_e, ._e), each scanned element by element
    in lexicographic order with a +_e b = a - e + b and r ._e x = r.x - r.e + e."""
    from trusskit import Check, ValidationReport
    from trusskit.modules import induced_action

    g, ring = m.group, m.ring
    elems, relems = list(g.elements()), list(ring.elements())
    ri = ring.additive.index

    def padd(a, b):
        return g.ternary(a, e, b)

    def pact(r, x):
        return induced_action(m, e, r, x)

    def first(cases, holds):
        return next((case for case in cases if not holds(*case)), None)

    def check(law, cases, count, holds, index):
        bad = first(cases, holds)
        return Check(law, bad is None, True, count, None if bad is None else index(*bad))

    rrx = [(r, s, x) for r in relems for s in relems for x in elems]
    rxy = [(r, x, y) for r in relems for x in elems for y in elems]
    checks = (
        check("unital", [(x,) for x in elems], len(elems),
              lambda x: pact(ring.one, x) == x, lambda x: (g.index(x),)),
        check("action-associativity", rrx, len(rrx),
              lambda r, s, x: pact(ring.mul(r, s), x) == pact(r, pact(s, x)),
              lambda r, s, x: (ri(r), ri(s), g.index(x))),
        check("additive-in-module", rxy, len(rxy),
              lambda r, x, y: pact(r, padd(x, y)) == padd(pact(r, x), pact(r, y)),
              lambda r, x, y: (ri(r), g.index(x), g.index(y))),
        check("additive-in-ring", rrx, len(rrx),
              lambda r, s, x: pact(ring.add(r, s), x) == padd(pact(r, x), pact(s, x)),
              lambda r, s, x: (ri(r), ri(s), g.index(x))),
    )
    return ValidationReport(f"induced action at {e}", checks)


def truss_iso_by_element(eq, source, target) -> tuple[int, ...]:
    """The map (u, a) -> (rho(u), mu(a)) of an equivalence, one carrier
    element at a time."""
    from trusskit import HeapMorphism

    return tuple(
        target.index_of(HeapMorphism(eq.rho_of(alpha.linear), eq.mu(alpha.translation)))
        for alpha in source.carrier
    )


# ---------------------------------------------------------------- heap morphisms one element at a time


def heap_ternary(f: HeapMorphism, g: HeapMorphism, h: HeapMorphism) -> HeapMorphism:
    """Pointwise [f,g,h]: linear parts and translations combine independently."""
    return HeapMorphism(
        hom_ternary(f.linear, g.linear, h.linear),
        f.target.ternary(f.translation, g.translation, h.translation),
    )


def decompose(
    source: AbGroup,
    target: AbGroup,
    values: Sequence[Element] | Mapping[Element, Element],
) -> HeapMorphism:
    """Split a total value table G -> H into (linear, translation).

    The translation is forced to be the image of zero and the linear part to be
    the translated table; raises NotAHeapMorphism when that candidate fails to
    be additive (checked on every element, not just generators).
    """
    if isinstance(values, Mapping):
        table = dict(values)
    else:
        values = tuple(values)
        if len(values) != source.cardinality:
            raise NotAHeapMorphism("value table does not cover the source group")
        table = dict(zip(source.elements(), values))
    if set(table) != set(source.elements()):
        raise NotAHeapMorphism("value table does not cover the source group")
    translation = target.element(table[source.zero])
    linear_values = {x: target.sub(table[x], translation) for x in table}
    rows = []
    for j in range(target.rank):
        row = []
        for i in range(source.rank):
            gen = source.element(1 if k == i else 0 for k in range(source.rank))
            row.append(linear_values[gen][j])
        rows.append(tuple(row))
    try:
        linear = GroupHom(source, target, tuple(rows))
    except ValueError as exc:
        raise NotAHeapMorphism(f"translated table is not additive: {exc}") from None
    for x, v in linear_values.items():
        if linear(x) != v:
            raise NotAHeapMorphism(
                f"translated table is not additive: disagrees at {x}"
            )
    return HeapMorphism(linear, translation)


def heap_morphisms(g: AbGroup, h: AbGroup, max_enum: int | None = None) -> tuple[HeapMorphism, ...]:
    """All heap morphisms g -> h as (hom, translation) pairs, hom-major order."""
    homs = hom_enumerate(g, h, max_enum)
    guard(len(homs) * h.cardinality, resolve_max_enum(max_enum), f"heap morphisms {g} -> {h}")
    return tuple(HeapMorphism(hom, trans) for hom in homs for trans in h.elements())


def heap_iso_by_decompose(phi) -> HeapMorphism:
    """Extraction a -> Phi(constant at a)(0) from one heap morphism object per
    carrier element, split by `decompose`, with the library's messages.
    Bijectivity is checked first; preservation is not checked at all, so
    compare it with the library only on maps that preserve both operations,
    that are not bijective, or with the library's preservation check off."""
    eg, eh = phi.source, phi.target
    if not phi.is_bijective:
        raise NotAnIsomorphism("morphism is not bijective")
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


# ---------------------------------------------------------------- inner structure by composition


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


def _phi_images(phi) -> tuple[EndoTruss, EndoTruss, list[HeapMorphism]]:
    eg, eh = phi.source, phi.target
    return eg, eh, [eh.carrier[j] for j in phi.mapping]


def inner_structure(phi, max_enum: int | None = None) -> InnerStructure:
    """Filter every heap morphism G -> H by Phi(alpha) o xi == xi o alpha,
    composing per carrier element."""
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


def intertwiner_at(phi, b: Element) -> HeapMorphism:
    """The heap morphism a -> Phi(constant at a)(b); always an intertwiner."""
    eg, eh, images = _phi_images(phi)
    values = {
        a: images[eg.constant_index(a)](eh.group.element(b))
        for a in eg.group.elements()
    }
    return decompose(eg.group, eh.group, values)


def intertwiner_correspondence(
    phi, inner: InnerStructure | None = None, max_enum: int | None = None
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


def unique_intertwiner(phi, max_enum: int | None = None) -> HeapMorphism | None:
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


def inner_laws_by_composition(phi, max_enum: int | None = None) -> dict[str, bool]:
    """The inner-structure laws of `check_inner_structure`, from
    `inner_structure` and the correspondence above."""
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
