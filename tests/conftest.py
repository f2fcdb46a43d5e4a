"""Shared brute-force oracles, deliberately independent of the library's own
enumeration routes: they filter raw value tables / bijections by the defining
identities, nothing else."""

import itertools

import numpy as np

from trusskit import AbGroup
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
