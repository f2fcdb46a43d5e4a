"""Shared test oracles, deliberately independent of the library's table
kernels: the per-element view of homomorphisms, heap morphisms,
endomorphism trusses, retracts, linear heap morphisms and ring and module
tables built from callables (one object or one lookup per element), and
brute-force searches that filter raw value tables /
bijections by the defining identities, nothing else. One oracle,
`bk_by_every_heap_iso`, does use the library's round-trip kernel: on every
heap isomorphism, where `bk` runs it on a generating set."""

import itertools
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from trusskit import (
    AbGroup,
    Check,
    FiniteHeap,
    FiniteTruss,
    HeapMorphism,
    NotAnIsomorphism,
    TrussKitError,
    ValidationReport,
    build_endo_truss,
    heap_isos,
    induced_action,
    validate_heap,
)
from trusskit.baer_kaplansky import verify_correspondence
from trusskit.endo import EndoTruss
from trusskit.errors import guard, resolve_max_enum
from trusskit.groups import (
    Element,
    GroupHom,
    compose_homs,
    groups_isomorphic,
    hom_count,
    np_add_table,
)
from trusskit.heaps import _heap_checks
from trusskit.modules import make_module, module_homs
from trusskit.rings import make_ring
from trusskit.trusses import GeneratorChain, TrussMorphism, dense_tables
from trusskit.validation import law_check


class NotAHeapMorphism(TrussKitError):
    """A value table does not split into an additive part plus a translation."""


# ---------------------------------------------------------------- objects one element at a time


def hom_add(f: GroupHom, g: GroupHom) -> GroupHom:
    """The pointwise sum f + g, entrywise on the matrices."""
    if f.source != g.source or f.target != g.target:
        raise ValueError("homomorphisms must share source and target")
    rows = tuple(
        tuple((x + y) % m for x, y in zip(rf, rg))
        for rf, rg, m in zip(f.matrix, g.matrix, f.target.orders)
    )
    return GroupHom(f.source, f.target, rows)


def zero_hom(g: AbGroup, h: AbGroup) -> GroupHom:
    return GroupHom(g, h, tuple((0,) * g.rank for _ in range(h.rank)))


def identity_hom(g: AbGroup) -> GroupHom:
    rows = tuple(
        tuple(1 if i == j else 0 for i in range(g.rank)) for j in range(g.rank)
    )
    return GroupHom(g, g, rows)


def hom_enumerate_by_loop(g: AbGroup, h: AbGroup, max_enum: int | None = None) -> tuple[GroupHom, ...]:
    """All homomorphisms g -> h, one GroupHom per matrix, in lexicographic
    matrix order: entry [j][i] runs over the multiples of m_j/gcd(n_i, m_j),
    the last entry fastest."""
    guard(hom_count(g, h), resolve_max_enum(max_enum), "Hom({}, {})", g, h)
    positions = [(j, i) for j in range(h.rank) for i in range(g.rank)]
    gcds = {(j, i): math.gcd(g.orders[i], h.orders[j]) for j, i in positions}
    homs = []
    for picks in itertools.product(*(range(gcds[pos]) for pos in positions)):
        entries = dict(zip(positions, picks))
        rows = tuple(
            tuple(entries[j, i] * (h.orders[j] // gcds[j, i]) for i in range(g.rank))
            for j in range(h.rank)
        )
        homs.append(GroupHom(g, h, rows))
    return tuple(homs)


def invert_hom(f: GroupHom) -> GroupHom:
    """Inverse of a bijective homomorphism, via preimages of target generators."""
    if not f.is_bijective:
        raise ValueError("homomorphism is not bijective")
    preimage = {f(x): x for x in f.source.elements()}
    cols = []
    for j in range(f.target.rank):
        gen = tuple(1 if k == j else 0 for k in range(f.target.rank))
        cols.append(preimage[f.target.element(gen)])
    rows = tuple(
        tuple(cols[j][i] for j in range(f.target.rank)) for i in range(f.source.rank)
    )
    inv = GroupHom(f.target, f.source, rows)
    if compose_homs(inv, f).matrix != identity_hom(f.source).matrix:
        raise ValueError("inverse reconstruction failed")  # pragma: no cover
    return inv


def as_objects(rows: np.ndarray, g: AbGroup, h: AbGroup) -> tuple:
    """The library's arrays as objects: a (k, rank h, rank g) matrix stack
    (`hom_enumerate`, `module_homs`, `EndoTruss.homs`) as GroupHoms, a
    (k, |g|) array of value tables (`heap_isos`) as HeapMorphisms split by
    `decompose`."""
    if rows.ndim == 3:
        return tuple(GroupHom(g, h, matrix) for matrix in rows.tolist())
    return tuple(decompose(g, h, [h.element_at(v) for v in row]) for row in rows.tolist())


def family(e: EndoTruss) -> tuple[GroupHom, ...]:
    """E's hom family as objects, in family order."""
    return _kept(e, "_oracle_family", lambda: as_objects(e.homs, e.group, e.group))


def hom_index(e: EndoTruss, f: GroupHom) -> int:
    """The family position of f, by matrix lookup; ValueError outside it."""
    positions = _kept(e, "_oracle_positions", lambda: {u.matrix: i for i, u in enumerate(family(e))})
    try:
        return positions[f.matrix]
    except KeyError:
        raise ValueError("homomorphism family is not closed under the required operation") from None


def heap_values(hm: HeapMorphism) -> tuple[Element, ...]:
    """The image of every source element, in source enumeration order."""
    return tuple(hm(x) for x in hm.source.elements())


def is_constant(hm: HeapMorphism) -> bool:
    return all(all(x == 0 for x in row) for row in hm.linear.matrix)


def heap_inverse(hm: HeapMorphism) -> HeapMorphism:
    """Inverse heap isomorphism: y -> f^{-1}(y) - f^{-1}(h0)."""
    inv = invert_hom(hm.linear)
    return HeapMorphism(inv, hm.source.neg(inv(hm.translation)))


def constant_morphism(source: AbGroup, value: Element, target: AbGroup | None = None) -> HeapMorphism:
    """The heap morphism sending every element to `value`."""
    target = source if target is None else target
    return HeapMorphism(zero_hom(source, target), target.element(value))


def identity_morphism(g: AbGroup) -> HeapMorphism:
    return HeapMorphism(identity_hom(g), g.zero)


def identity_truss_morphism(t) -> TrussMorphism:
    return TrussMorphism(t, t, tuple(range(t.size)))


def hom_ternary(f: GroupHom, g: GroupHom, h: GroupHom) -> GroupHom:
    """Entrywise f - g + h; the pointwise heap operation on homomorphisms."""
    if not f.source == g.source == h.source or not f.target == g.target == h.target:
        raise ValueError("homomorphisms must share source and target")
    rows = tuple(
        tuple((x - y + z) % m for x, y, z in zip(rf, rg, rh))
        for rf, rg, rh, m in zip(f.matrix, g.matrix, h.matrix, f.target.orders)
    )
    return GroupHom(f.source, f.target, rows)


def _kept(t: EndoTruss, key: str, build):
    """`build()`, computed once per truss and kept on it, as the truss keeps
    its own cached tables."""
    if key not in t.__dict__:
        t.__dict__[key] = build()
    return t.__dict__[key]


def carrier(e: EndoTruss) -> tuple[HeapMorphism, ...]:
    """The heap morphism at every carrier index of E(G) or a sub-truss."""
    def build():
        return tuple(HeapMorphism(hom, x) for hom in family(e) for x in e.group.elements())

    return _kept(e, "_oracle_carrier", build)


def index_of(e: EndoTruss, phi: HeapMorphism) -> int:
    if phi.source != e.group or phi.target != e.group:
        raise ValueError("morphism does not act on this group")
    return hom_index(e, phi.linear) * e.group.cardinality + e.group.index(phi.translation)


def factored_rows_by_composition(e: EndoTruss, rows) -> tuple[list, list]:
    """Rows `rows` of E's factored compose and add tables: the family
    positions of homs[a] o homs[b] and homs[a] + homs[b], one GroupHom each."""
    homs = family(e)
    compose = [[hom_index(e, compose_homs(homs[a], v)) for v in homs] for a in rows]
    add = [[hom_index(e, hom_add(homs[a], v)) for v in homs] for a in rows]
    return compose, add


def constant_index(e: EndoTruss, a: Element) -> int:
    return e.constant_indices[e.group.index(e.group.element(a))]


def mult(t, i: int, j: int) -> int:
    """x*y by carrier index: a table lookup in a FiniteTruss, a composition
    of (hom, translation) pairs in an EndoTruss."""
    if not isinstance(t, EndoTruss):
        return int(t.mult_table[i, j])
    g, m = t.group, t.group.cardinality
    elems = _kept(t, "_oracle_elements", lambda: tuple(g.elements()))
    memo = _kept(t, "_oracle_compose", dict)
    (h1, e1), (h2, e2) = divmod(i, m), divmod(j, m)
    homs = family(t)
    if (h1, h2) not in memo:
        memo[h1, h2] = hom_index(t, compose_homs(homs[h1], homs[h2]))
    e = g.add(homs[h1](elems[e2]), elems[e1])
    return memo[h1, h2] * m + g.index(e)


def ternary(t, i: int, j: int, k: int) -> int:
    """[x,y,z] by carrier index: a table lookup in a FiniteHeap or
    FiniteTruss, the pointwise x - y + z of (hom, translation) pairs in an
    EndoTruss."""
    if not isinstance(t, EndoTruss):
        h = t.heap if isinstance(t, FiniteTruss) else t
        return int(h.ternary_table[i, j, k])
    g, m = t.group, t.group.cardinality
    elems = _kept(t, "_oracle_elements", lambda: tuple(g.elements()))
    memo = _kept(t, "_oracle_ternary", dict)
    (h1, e1), (h2, e2), (h3, e3) = divmod(i, m), divmod(j, m), divmod(k, m)
    if (h1, h2, h3) not in memo:
        homs = family(t)
        memo[h1, h2, h3] = hom_index(t, hom_ternary(homs[h1], homs[h2], homs[h3]))
    e = g.ternary(elems[e1], elems[e2], elems[e3])
    return memo[h1, h2, h3] * m + g.index(e)


def grid_tables(t, max_enum: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(mult, add): the n x n tables of a carrier's `product` and `plus`
    over the whole grid, guarded by n^2 and kept on the carrier."""
    n = t.size
    guard(n * n, resolve_max_enum(max_enum), "grid tables of a {}-element truss", n)
    x, y = np.arange(n)[:, None], np.arange(n)
    return _kept(t, "_oracle_grid", lambda: (t.product(x, y, max_enum), t.plus(x, y, max_enum)))


def truss_tables(t, max_enum: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(mult, ternary): the n x n and n^3 index tables of a FiniteTruss, or
    of an endomorphism truss with [x,y,z] = x - y + z in the retract at the
    zero constant, read from its grid tables and guarded by n^3."""
    if isinstance(t, FiniteTruss):
        return dense_tables(t)
    guard(t.size**3, resolve_max_enum(max_enum), "dense tables of a {}-element endomorphism truss", t.size)
    mult, add = grid_tables(t, max_enum)
    return mult, add[add[:, np.nonzero(add == t.zero)[1]]]


def to_finite_truss(e: EndoTruss, max_enum: int | None = None) -> FiniteTruss:
    """E(G) as dense tables."""
    mult_table, tern = truss_tables(e, max_enum)
    return FiniteTruss(FiniteHeap(e.size, tern), mult_table, unit=e.unit)


def _is_heap(h: FiniteHeap) -> bool:
    """Heap axioms only (Mal'cev + associativity); abelian-ness not required."""
    report = validate_heap(h)
    return report.check("malcev").passed and report.check("associativity").passed


@dataclass(frozen=True)
class RetractGroup:
    """Group structure a +_b c = [a,b,c] obtained by fixing the middle slot at b."""

    size: int
    add_table: tuple[int, ...]
    identity: int

    def __post_init__(self) -> None:
        table = tuple(int(x) for x in self.add_table)
        if len(table) != self.size**2:
            raise ValueError("addition table has wrong length")
        object.__setattr__(self, "add_table", table)

    def add(self, a: int, b: int) -> int:
        return self.add_table[a * self.size + b]

    @cached_property
    def inverse_table(self) -> tuple[int, ...]:
        out = []
        for a in range(self.size):
            row = self.add_table[a * self.size : (a + 1) * self.size]
            try:
                out.append(row.index(self.identity))
            except ValueError:
                raise ValueError(f"element {a} has no inverse") from None
        return tuple(out)

    def inverse(self, a: int) -> int:
        return self.inverse_table[a]

    def to_heap(self) -> FiniteHeap:
        """The induced heap [a,b,c] = a + (-b) + c of this group."""
        n = self.size
        A = np.array(self.add_table, dtype=np.int64).reshape(n, n)
        inv = np.array(self.inverse_table, dtype=np.int64)
        X = A[:, inv]  # X[a,b] = a + (-b)
        T = A[X]  # T[a,b,c] = (a + (-b)) + c
        return FiniteHeap(n, tuple(T.reshape(-1).tolist()))

    def is_abelian(self) -> bool:
        n = self.size
        A = np.array(self.add_table, dtype=np.int64).reshape(n, n)
        return bool((A == A.T).all())


def retract_at(h: FiniteHeap, b: int, validate: bool = True) -> RetractGroup:
    """The retract group (carrier, +_b, identity b); requires a valid heap."""
    if not 0 <= b < h.size:
        raise ValueError(f"base point {b} outside carrier")
    if validate and not _is_heap(h):
        raise ValueError("not a valid heap; retract undefined")
    n = h.size
    table = tuple(ternary(h, a, b, c) for a in range(n) for c in range(n))
    return RetractGroup(n, table, b)


def retract_iso(h: FiniteHeap, b: int, b_prime: int, validate: bool = True) -> tuple[int, ...]:
    """The map a -> [a, b, b'], an isomorphism (carrier, +_b) -> (carrier, +_b')."""
    if validate and not _is_heap(h):
        raise ValueError("not a valid heap")
    return tuple(ternary(h, a, b, b_prime) for a in range(h.size))


def find_ring_isomorphism(r, s, max_enum: int | None = None):
    """First additive isomorphism that also preserves product and unit, or None.

    Brute force over the bijective additive homomorphisms; intended for the
    small rings that appear as endomorphism rings.
    """
    if r.size != s.size:
        return None
    for f in hom_enumerate_by_loop(r.additive, s.additive, max_enum):
        if not f.is_bijective:
            continue
        if f(r.one) != s.one:
            continue
        if all(
            f(r.mul(a, b)) == s.mul(f(a), f(b))
            for a in r.elements()
            for b in r.elements()
        ):
            return f
    return None


def linear_heap_morphisms(m, n, max_enum: int | None = None) -> tuple[HeapMorphism, ...]:
    """Heap morphisms whose linear part commutes with the action: all pairs
    (action-commuting hom, translation), hom-major order."""
    homs = as_objects(module_homs(m, n, max_enum), m.group, n.group)
    guard(
        len(homs) * n.group.cardinality,
        resolve_max_enum(max_enum),
        "linear heap morphisms",
    )
    return tuple(
        HeapMorphism(f, t) for f in homs for t in n.group.elements()
    )


def is_linear_heap_morphism(m, n, phi: HeapMorphism) -> bool:
    """Membership test via the closed form phi(r.x) = r.phi(x) - r.phi(0) + phi(0)."""
    g = n.group
    phi0 = phi(m.group.zero)
    for r in m.ring.elements():
        for x in m.group.elements():
            lhs = phi(m.act(r, x))
            rhs = g.ternary(n.act(r, phi(x)), n.act(r, phi0), phi0)
            if lhs != rhs:
                return False
    return True


# ---------------------------------------------------------------- brute-force searches


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
    sm, st = truss_tables(tm.source, max_enum)
    tm_m, tm_t = truss_tables(tm.target, max_enum)
    f = np.array(tm.mapping, dtype=np.int64)
    if (f[sm] != tm_m[f[:, None], f[None, :]]).any():
        return False
    return not (f[st] != tm_t[f[:, None, None], f[None, :, None], f[None, None, :]]).any()


def retract_affine(tm, max_enum: int = 10**9) -> bool:
    """Whether f(x + y) + f(z) = f(x) + f(y) for every pair, on the grid
    tables of the two retracts: f preserves the ternary operation."""
    s, t = tm.source, tm.target
    f = np.array(tm.mapping, dtype=np.int64)
    sa, ta = grid_tables(s, max_enum)[1], grid_tables(t, max_enum)[1]
    return not (ta[:, f[s.zero]][f[sa]] != ta[f[:, None], f[None, :]]).any()


def retract_preserves(tm, max_enum: int = 10**9) -> bool:
    """Preservation of mult and ternary on the grid tables, entry by entry
    for mult, for carriers too large for `dense_preserves`."""
    f = np.array(tm.mapping, dtype=np.int64)
    sm, tm_m = grid_tables(tm.source, max_enum)[0], grid_tables(tm.target, max_enum)[0]
    return not (f[sm] != tm_m[f[:, None], f[None, :]]).any() and retract_affine(tm, max_enum)


def walk_chain_by_cosets(t, max_enum: int | None = None) -> GeneratorChain:
    """t's generator chain walked by `plus` one coset at a time, each s_j
    the least carrier index outside span_{j-1}: each coset of span_{j-1}
    lies wholly inside it or wholly outside, and the first inside one is
    the wrap span_{j-1} + r_j*s_j."""
    in_span = np.zeros(t.size, dtype=bool)
    in_span[t.zero] = True
    basis, order, shifted = [t.zero], np.array([t.zero]), []
    while not in_span.all():
        basis.append(int(np.argmin(in_span)))
        cosets = [t.plus(order, basis[-1], max_enum)]
        while not in_span[cosets[-1][0]]:
            in_span[cosets[-1]] = True
            cosets.append(t.plus(cosets[-1], basis[-1], max_enum))
        order = np.concatenate([order, *cosets[:-1]])
        shifted.append(np.concatenate(cosets))
    basis = np.array(basis)
    sizes = np.array([1] + [len(xs) for xs in shifted])
    return GeneratorChain(basis, sizes, order, tuple(shifted), t.product(basis[:, None], basis, max_enum))


def row_ids_by_column(rows: np.ndarray, bound: int, code: np.ndarray | None = None) -> np.ndarray:
    """`endo._row_ids` renumbered after every column."""
    code = np.zeros(len(rows), dtype=np.int64) if code is None else code
    for col in rows.T:
        code = np.unique(code * bound + col, return_inverse=True)[1]
    return code


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
    sm, st = truss_tables(s, 10**9)
    tm, tt = truss_tables(t, 10**9)
    found = []
    chunk = 1 << 14
    for start in range(0, total, chunk):
        ids = np.arange(start, min(start + chunk, total))
        cands = np.stack(np.unravel_index(ids, (nt,) * ns), axis=1)
        found.extend(tuple(int(x) for x in row) for row in filter_candidates(cands, sm, st, tm, tt))
    return tuple(found)


def left_absorbers(t) -> tuple[int, ...]:
    """Elements x with x*y = x for every y."""
    M, _ = truss_tables(t)
    n = M.shape[0]
    return tuple(int(i) for i in range(n) if bool((M[i] == i).all()))


def is_truss_morphism(s, t, mapping) -> bool:
    """Plain-loop recheck that a map preserves both operations; independent of
    the vectorized filters used by the enumerators."""
    ns = s.size
    f = list(mapping)
    for i in range(ns):
        for j in range(ns):
            if f[mult(s, i, j)] != mult(t, f[i], f[j]):
                return False
    for i in range(ns):
        for j in range(ns):
            for k in range(ns):
                if f[ternary(s, i, j, k)] != ternary(t, f[i], f[j], f[k]):
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
    sm, st = truss_tables(s, 10**9)
    tm, tt = truss_tables(t, 10**9)
    kept = filter_candidates(np.array(rows, dtype=np.int64).reshape(-1, n), sm, st, tm, tt)
    return tuple(sorted(tuple(int(x) for x in row) for row in kept))


def conjugate_by_composition(hm, source, target) -> tuple[int, ...]:
    """Conjugation alpha -> hm o alpha o hm^{-1}, one heap-morphism
    composition per carrier element; raises ValueError when a conjugate falls
    outside the target's homomorphism family."""
    inv = heap_inverse(hm)
    return tuple(index_of(target, hm.compose(alpha).compose(inv)) for alpha in carrier(source))


def conjugate_homs_by_composition(f: GroupHom, source, target) -> tuple[int, ...]:
    """The hom half of `conjugate_by_composition` by the heap isomorphism
    (f, 0): the target family position of the image of each (u, 0), u in
    the source's family order; raises ValueError like it."""
    conj = conjugate_by_composition(HeapMorphism(f, target.group.zero), source, target)
    m, n = source.group.cardinality, target.group.cardinality
    return tuple(conj[u * m] // n for u in range(len(source.homs)))


def bk_by_every_heap_iso(g: AbGroup, h: AbGroup, brute_force: bool = False, max_enum: int | None = None) -> dict:
    """`verify_baer_kaplansky`'s verdicts from the round trip of every heap
    isomorphism g -> h (`heap_isos`), where the library runs it on a
    generating set: `verify_correspondence` on all |Aut(g)| |h| rows, with
    the consistency rule of `bk`."""
    eg = build_endo_truss(g, max_enum)
    eh = eg if h == g else build_endo_truss(h, max_enum)
    isos = heap_isos(g, h, max_enum)
    roundtrip, count, _ = verify_correspondence(eg, eh, isos, brute_force, max_enum)
    injective = roundtrip
    iso = groups_isomorphic(g, h)
    consistent = injective and roundtrip and iso == (len(isos) > 0)
    if count is not None:
        consistent = consistent and iso == (count > 0)
        if brute_force:
            consistent = consistent and count == len(isos)
    return {
        "heap_iso_count": len(isos),
        "truss_iso_count": count,
        "theta_upsilon_roundtrip": roundtrip,
        "upsilon_injective": injective,
        "consistent": consistent,
    }


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


def scan_distributivity(M: np.ndarray, T: np.ndarray, side: str, start: int = 0):
    """The lexicographically first (d,a,b,c) with d >= start and d*[a,b,c]
    != [da,db,dc] (side "left") or [a,b,c]*d != [ad,bd,cd] (side "right"),
    or None: all n^4 cases from d = start on."""
    for d in range(start, M.shape[0]):
        Md = M[d] if side == "left" else M[:, d]
        lhs = Md[T]
        rhs = T[Md[:, None, None], Md[None, :, None], Md[None, None, :]]
        bad = lhs != rhs
        if bad.any():
            return (d,) + tuple(int(x) for x in np.argwhere(bad)[0])
    return None


def dense_truss_checks(t, max_enum: int | None = 10**9) -> tuple[Check, ...]:
    """The checks `validate_truss` reports, computed on the dense tables
    (`truss_tables`): the heap laws of the n^3 ternary table, associativity
    over all n^3 triples, each distributivity by `scan_distributivity`, and
    the unit law. Once the heap holds, the scan starts at the first row d
    with d(a + c) != [da, d0, dc] in the retract at 0, since a map of heaps
    preserves [a,b,c] iff it does so through a retract; every earlier row
    passes."""
    M, T = truss_tables(t, max_enum)
    n = len(M)
    idx = np.arange(n)
    heap = _heap_checks(T)
    checks = [replace(c, law="heap-" + c.law) for c in heap]
    checks.append(law_check("mult-associativity", M[M] != M[idx[:, None, None], M[None, :, :]]))
    for side, L in (("left", M), ("right", M.T)):
        start = 0
        if heap[0].passed and heap[1].passed:
            bad = (L[:, T[:, 0, :]] != T[L[:, :, None], L[:, 0, None, None], L[:, None, :]]).any(axis=(1, 2))
            start = int(np.argmax(bad)) if bad.any() else n
        ce = scan_distributivity(M, T, side, start)
        checks.append(Check(f"{side}-distributivity", ce is None, True, n**4, ce))
    if t.unit is not None:
        checks.append(law_check("unit", (M[t.unit] != idx) | (M[:, t.unit] != idx), 2 * n))
    return tuple(checks)


def ring_table(additive: AbGroup, mult) -> tuple[int, ...]:
    """The row-major multiplication table of a callable on elements, one
    element pair at a time."""
    elems = list(additive.elements())
    return tuple(additive.index(additive.element(mult(a, b))) for a in elems for b in elems)


def module_table(ring, group: AbGroup, action) -> tuple[int, ...]:
    """The row-major action table of a callable (ring element, module
    element) -> module element, one pair at a time."""
    return tuple(group.index(group.element(action(r, x))) for r in ring.elements() for x in group.elements())


def ring_by_callable(additive: AbGroup, mult, one, max_enum: int | None = None):
    """`make_ring` on the tabulated callable."""
    return make_ring(additive, ring_table(additive, mult), one, max_enum)


def module_by_callable(ring, group: AbGroup, action, max_enum: int | None = None):
    """`make_module` on the tabulated callable."""
    return make_module(ring, group, module_table(ring, group, action), max_enum)


def last_generator_breaker(g: AbGroup) -> list[int]:
    """On g = Z/2 x Z/3, the value table of (a, b) -> (a + h(b), 0) with
    h = 0, 1, 1: additive along the generator (1, 0) but not along (0, 1),
    so an additivity certificate without the last generator passes it."""
    h = {0: 0, 1: 1, 2: 1}
    return [g.index(((a + h[b]) % 2, 0)) for a, b in g.elements()]


def ring_law_masks(r) -> dict[str, np.ndarray]:
    """The failing cases of each ring law as a dense array over its domain:
    (a, b, c) for associativity and distributivity, (a,) for the unit."""
    M = r.mult_table
    A = np_add_table(r.additive)
    idx = np.arange(r.size)
    one = r.additive.index(r.one)
    return {
        "mult-associativity": M[M] != M[idx[:, None, None], M[None, :, :]],
        "left-distributivity": M[idx[:, None, None], A[None, :, :]] != A[M[:, :, None], M[:, None, :]],
        "right-distributivity": M[A] != A[M[:, None, :], M[None, :, :]],
        "unit": (M[one] != idx) | (M[:, one] != idx),
    }


def ring_report_dense(r) -> ValidationReport:
    """`validate_ring`'s report from the dense arrays, failing at each law's
    lexicographically first counterexample."""
    checks = tuple(
        law_check(law, bad, 2 * r.size if law == "unit" else None) for law, bad in ring_law_masks(r).items()
    )
    return ValidationReport(f"ring on {r.size} elements", checks)


def module_law_masks(m) -> dict[str, np.ndarray]:
    """The failing cases of each module law as a dense array: (r, s, x) for
    associativity and additivity in the ring, (r, x, y) for additivity in
    the module, (x,) for unitality."""
    act, add = m.action_table, np_add_table(m.group)
    add_r, mul_r = np_add_table(m.ring.additive), m.ring.mult_table
    idx_r = np.arange(act.shape[0])
    return {
        "unital": act[m.ring.additive.index(m.ring.one)] != np.arange(act.shape[1]),
        "action-associativity": act[mul_r] != act[idx_r[:, None, None], act[None, :, :]],
        "additive-in-module": act[idx_r[:, None, None], add[None, :, :]] != add[act[:, :, None], act[:, None, :]],
        "additive-in-ring": act[add_r] != add[act[:, None, :], act[None, :, :]],
    }


def module_report_dense(m) -> ValidationReport:
    """`validate_module`'s report from the dense arrays of each law."""
    rn, mn = m.action_table.shape
    checks = tuple(law_check(law, bad) for law, bad in module_law_masks(m).items())
    return ValidationReport(f"module ({rn}-element ring on {mn} elements)", checks)


def equivalence_is_valid_by_objects(eq, max_enum: int | None = None) -> bool:
    """Every defining identity of a claimed equivalence, one GroupHom pair
    at a time: rho's domain and image are End(M) and End(N), v o mu = mu o u,
    and rho preserves composition, sums and the identity."""
    if not eq.mu.is_bijective:
        return False
    g, h = eq.source.group, eq.target.group
    end_m = as_objects(module_homs(eq.source, eq.source, max_enum), g, g)
    end_n = as_objects(module_homs(eq.target, eq.target, max_enum), h, h)
    if {u.matrix for u, _ in eq.rho_pairs} != {u.matrix for u in end_m}:
        return False
    if {v.matrix for _, v in eq.rho_pairs} != {v.matrix for v in end_n}:
        return False
    for u, v in eq.rho_pairs:
        if compose_homs(v, eq.mu).matrix != compose_homs(eq.mu, u).matrix:
            return False
    rho = {u.matrix: v.matrix for u, v in eq.rho_pairs}
    for u1, v1 in eq.rho_pairs:
        for u2, v2 in eq.rho_pairs:
            if rho.get(compose_homs(u1, u2).matrix) != compose_homs(v1, v2).matrix:
                return False
            if rho.get(hom_add(u1, u2).matrix) != hom_add(v1, v2).matrix:
                return False
    return rho.get(identity_hom(g).matrix) == identity_hom(h).matrix


def module_homs_by_loop(m, n):
    """Hom_R(M, N) by the per-element filter: the additive maps f with
    f(r.x) = r.f(x) for every ring element r and module element x."""
    return tuple(
        f
        for f in hom_enumerate_by_loop(m.group, n.group)
        if all(f(m.act(r, x)) == n.act(r, f(x)) for r in m.ring.elements() for x in m.group.elements())
    )


def induced_action_report_by_loop(m, e):
    """The four module laws of (M, +_e, ._e), each scanned element by element
    in lexicographic order with a +_e b = a - e + b and r ._e x = r.x - r.e + e."""
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
              lambda r, s, x: pact(ring.additive.add(r, s), x) == padd(pact(r, x), pact(s, x)),
              lambda r, s, x: (ri(r), ri(s), g.index(x))),
    )
    return ValidationReport(f"induced action at {e}", checks)


def truss_iso_by_element(eq, source, target) -> tuple[int, ...]:
    """The map (u, a) -> (rho(u), mu(a)) of an equivalence, one carrier
    element at a time."""
    return tuple(
        index_of(target, HeapMorphism(eq.rho_of(alpha.linear), eq.mu(alpha.translation)))
        for alpha in carrier(source)
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
    homs = hom_enumerate_by_loop(g, h, max_enum)
    guard(len(homs) * h.cardinality, resolve_max_enum(max_enum), "heap morphisms {} -> {}", g, h)
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
        image = carrier(eh)[phi.mapping[constant_index(eg, a)]]
        if not is_constant(image):
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
    return eg, eh, [carrier(eh)[j] for j in phi.mapping]


def inner_structure(phi, max_enum: int | None = None) -> InnerStructure:
    """Filter every heap morphism G -> H by Phi(alpha) o xi == xi o alpha,
    composing per carrier element."""
    eg, eh, images = _phi_images(phi)
    zero_image = images[constant_index(eg, eg.group.zero)]
    idempotent, offset = zero_image.linear, zero_image.translation
    h = eh.group
    candidates = heap_morphisms(eg.group, h, max_enum)
    intertwiners = tuple(
        xi
        for xi in candidates
        if all(
            images[i].compose(xi) == xi.compose(alpha)
            for i, alpha in enumerate(carrier(eg))
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
        a: images[constant_index(eg, a)](eh.group.element(b))
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
        is_constant(images[constant_index(eg, a)]) for a in eg.group.elements()
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
    if any(is_constant(images[constant_index(eg, a)]) for a in eg.group.elements()):
        try:
            xi = unique_intertwiner(phi, max_enum)
        except TrussKitError:
            results["corollary_unique"] = False
        else:
            results["corollary_unique"] = xi is not None and all(
                images[i].compose(xi) == xi.compose(alpha)
                for i, alpha in enumerate(carrier(eg))
            )
    return results
