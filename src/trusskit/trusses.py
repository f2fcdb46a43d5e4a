"""Finite trusses: abelian heaps carrying an associative multiplication that
distributes over the ternary operation on both sides,

    d[a,b,c] = [da,db,dc]  and  [a,b,c]d = [ad,bd,cd].

Carriers are dense tables (FiniteTruss) or the endomorphism trusses of
`endo`, read through their factored tables: a vectorised `product`, the
retract's `plus` and `generator_chain`, and the n x n `_retract_tables`.
`validate_truss` certifies the laws on generators of the retract, and
`preserving_rows` a block of maps on the source's chain; the enumerators
extend maps along that chain into the target's retract tables. Morphisms
are total maps preserving both operations; units, when present, need not
map to units (only heap + semigroup structure is preserved).
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import guard, int_table, json_int, json_ints, resolve_max_enum
from .heaps import FiniteHeap, _heap_checks
from .validation import Check, ValidationReport, certified_check, first, law_check, multiadditive_check, sliced_scan


@dataclass(frozen=True)
class FiniteTruss:
    """Dense-table truss; `unit` is the index of a two-sided multiplicative
    identity or None."""

    heap: FiniteHeap
    mult_table: tuple[int, ...]
    unit: int | None = None

    def __post_init__(self) -> None:
        n = self.heap.size
        table, array = int_table(
            self.mult_table, n**2, n,
            "multiplication table needs {need} entries", "multiplication table entry out of range",
        )
        if self.unit is not None and not 0 <= self.unit < n:
            raise ValueError("unit index out of range")
        object.__setattr__(self, "mult_table", table)
        object.__setattr__(self, "_mult_array", array.reshape(n, n))

    @property
    def size(self) -> int:
        return self.heap.size

    def to_json_dict(self) -> dict:
        return {
            "size": self.size,
            "ternary": list(self.heap.ternary_table),
            "mult": list(self.mult_table),
            "unit": self.unit,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "FiniteTruss":
        if not isinstance(data, dict) or not {"size", "ternary", "mult"} <= set(data):
            raise ValueError("truss JSON must carry 'size', 'ternary' and 'mult'")
        heap = FiniteHeap.from_json_dict(data)
        unit = data.get("unit")
        unit = None if unit is None else json_int(unit, "'unit'")
        return cls(heap, json_ints(data["mult"], "'mult'"), unit)


def dense_tables(t: FiniteTruss) -> tuple[np.ndarray, np.ndarray]:
    """(mult, ternary): the n x n and n^3 index tables of a FiniteTruss."""
    return t._mult_array, t.heap._array


def unit_law(M: np.ndarray, unit: int) -> Check:
    """unit*a = a = a*unit on a multiplication table, over 2n cases."""
    idx = np.arange(len(M))
    return law_check("unit", (M[unit] != idx) | (M[:, unit] != idx), 2 * len(M))


def _factored_heap_checks(t, max_enum: int | None) -> tuple[Check, Check, Check]:
    """The heap laws of an endomorphism truss G x homs, on its factors: the
    ternary operation acts on each factor apart, so a law fails at a
    carrier tuple iff it fails at its hom positions or at its elements. The
    first carrier counterexample is the lesser of the factors' firsts, each
    lifted with the other coordinate at index 0."""
    ft, m = t.factored_tables(max_enum), t._m
    guard(len(ft.add) ** 3 + m**3, resolve_max_enum(max_enum), "heap tables of the factors of E({})", t.group)
    factors = ((ft.add, t._zero_hom_pos), (ft.gadd, 0))  # each with its heap [a,b,c] = a - b + c
    homs, elems = (_heap_checks(add[add[:, np.nonzero(add == zero)[1]]]) for add, zero in factors)
    checks = []
    for hom, elem in zip(homs, elems):
        lifted = (hom.counterexample and tuple(h * m for h in hom.counterexample), elem.counterexample)
        found = [ce for ce in lifted if ce]
        checks.append(Check(hom.law, not found, True, hom.checked * elem.checked, min(found, default=None)))
    return tuple(checks)


def validate_truss(t, max_enum: int | None = None) -> ValidationReport:
    """Exhaustively verify the heap laws, semigroup associativity, two-sided
    distributivity over the ternary operation, and the unit law when a unit
    is designated, on a FiniteTruss or an endomorphism truss.

    Once the heap holds, the laws are certified on its retract at z, with
    addition A and generators S (every element of a FiniteTruss, the
    generator chain of an endomorphism truss). A map of heaps preserves
    [a,b,c] iff it is affine (Baer; Certaine), iff f(x + s) = [fx, fz, fs]
    for every x and s in S: n^2 |S| lookups for the rows x -> d*x, as many
    for the columns. Then (a*b)*c and a*(b*c) are affine in each argument,
    so ({z} u S)^3 decides associativity. A failure reports the first
    counterexample by a scan from the certificate's first failing row (from
    0 if the heap fails), one n^3 slice per row, which an endomorphism truss
    runs only when n^3 fits the cap; otherwise the certificate's own case.
    """
    if isinstance(t, FiniteTruss):
        M, T = dense_tables(t)
        A, z, heap = T[:, 0, :], 0, _heap_checks(T)
    else:
        heap, (M, A, z), T = _factored_heap_checks(t, max_enum), t._retract_tables(max_enum), None
    n = len(M)
    dense = T is not None or n**3 <= resolve_max_enum(max_enum)
    neg = np.nonzero(A == z)[1]
    is_heap = heap[0].passed and heap[1].passed
    # a generator chain needs a group: on a broken one its coset walk may not end
    basis = np.arange(n) if T is not None or not is_heap else t.generator_chain(max_enum).basis
    S = basis[1:] if n > 1 else basis

    def scan(L: np.ndarray, start: int) -> tuple[int, ...] | None:
        # (d, a, b, c) with L[d, [a,b,c]] != [L[d,a], L[d,b], L[d,c]]. An endomorphism
        # truss's heap holds (its family is closed under +), so it scans only when dense
        T3 = A[A[:, neg]] if T is None else T
        return sliced_scan(lambda d: L[d][T3] != T3[np.ix_(L[d], L[d], L[d])], n, start)

    def distributivity(law: str, L: np.ndarray) -> Check:
        if not is_heap:
            ce = scan(L, 0)
            return Check(law, ce is None, True, n**4, ce)
        # bad[d, x, j]: L[d, x + s_j] != [L[d,x], L[d,z], L[d,s_j]], a block of rows of
        # about 2^18 entries at a time
        step = max(1, (1 << 18) // (n * len(S)))
        Ls = (L[d : d + step] for d in range(0, n, step))
        bad = np.concatenate([Ld[:, A[:, S]] != A[A[Ld, neg[Ld[:, z, None]]][:, :, None], Ld[:, None, S]] for Ld in Ls])
        return certified_check(
            law, bad, n**4, lambda ce: (ce[0], ce[1], z, int(S[ce[2]])), (lambda: scan(L, first(bad)[0])) if dense else None
        )

    left, right = distributivity("left-distributivity", M), distributivity("right-distributivity", M.T)
    assoc = multiadditive_check(  # (a*b)*c == a*(b*c)
        "mult-associativity", lambda a, b, c: M[M[a, b], c] != M[a, M[b, c]], (basis,) * 3,
        is_heap and left.passed and right.passed, lambda: sliced_scan(lambda a: M[M[a]] != M[a][M], n), n**3, dense,
    )
    checks = [*(replace(c, law="heap-" + c.law) for c in heap), assoc, left, right]
    if t.unit is not None:
        checks.append(unit_law(M, t.unit))
    return ValidationReport(f"truss on {n} elements", tuple(checks))


@dataclass(frozen=True)
class TrussMorphism:
    """Total map between truss carriers, by target indices."""

    source: object
    target: object
    mapping: tuple[int, ...]  # also taken as an int64 array, stored as a tuple

    def __post_init__(self) -> None:
        mapping, array = int_table(
            self.mapping, self.source.size, self.target.size,
            "mapping length differs from source carrier size", "mapping value outside target carrier",
        )
        object.__setattr__(self, "mapping", mapping)
        object.__setattr__(self, "_array", array)

    def __call__(self, i: int) -> int:
        return self.mapping[i]

    @cached_property
    def is_bijective(self) -> bool:
        return self.source.size == self.target.size and len(set(self.mapping)) == len(self.mapping)


def truss_morphism_preserves(tm: TrussMorphism, max_enum: int | None = None) -> bool:
    """Whether a TrussMorphism between carriers with factored tables (the
    endomorphism trusses and their linear sub-trusses) preserves mult and
    ternary: `preserving_rows` on its one row."""
    return bool(preserving_rows(tm.source, tm.target, tm._array[None], max_enum)[0])


def preserving_rows(s, t, F: np.ndarray, max_enum: int | None = None) -> np.ndarray:
    """Mask of the rows of F, a (B, |s|) array of maps s -> t by target
    index, that preserve mult and ternary, certified on the source's
    `generator_chain`; carriers without factored tables raise TypeError.

    A map of abelian heaps preserves [a,b,c] = a - b + c iff it is affine
    (Baer; Certaine): g = f - f(0) is additive in the retracts. g is
    additive on span_j iff it is on span_{j-1} and f(x + s_j) + f(0) =
    f(x) + f(s_j) for every x in span_j: the cosets give g(v + k*s_j) =
    g(v) + k*g(s_j), and the last one wraps to the relation
    g(r_j*s_j) = r_j*g(s_j). That is sum_j |span_j| <= 2n lookups a row.
    For affine f, y -> f(x*y) and y -> f(x)*f(y) are affine by
    distributivity, and so are both sides in x; affine maps agreeing on
    the basis 0, s_1..s_k agree everywhere, so f preserves mult iff
    f(x*y) = f(x)*f(y) on the basis pairs.
    """
    for end in (s, t):
        if not hasattr(end, "factored_tables"):
            raise TypeError(f"{type(end).__name__} does not expose factored tables")
    chain = s.generator_chain(max_enum)
    fb = F[:, chain.basis]
    ok = (F[:, chain.products] == t.product(fb[:, :, None], fb[:, None, :], max_enum)).all(axis=(1, 2))
    for j, xs in enumerate(chain.shifted, 1):  # one level at a time: B x |span_j| arrays
        x = F[:, chain.order[: len(xs)]]
        ok &= (t.plus(F[:, xs], fb[:, :1], max_enum) == t.plus(x, fb[:, j, None], max_enum)).all(axis=1)
    return ok


def _affine_search(s, t, injective: bool, max_enum: int | None) -> tuple[TrussMorphism, ...]:
    """Every truss morphism s -> t (every injective one if asked), sorted by
    mapping, from the source's `generator_chain` and the target's
    `_retract_tables`.

    A map between abelian heaps preserves [a,b,c] iff it is f = L + c with
    L additive on the retracts and c = f(0) (Baer; Certaine). The search
    fixes c, then extends L one generator s_j at a time: each image y of
    s_j must satisfy r_j*y = L(r_j*s_j), and sets L(v + k*s_j) = L(v) + k*y
    for v in span_{j-1} and 0 < k < r_j. All |t| images are tried at once
    per partial map. At level j a partial map is pruned on the basis pairs
    (a, b) in ({0} u s_1..s_j)^2 with a*b in span_j, each pair once, and,
    for isomorphisms, when L sends a nonzero element to 0. At the last
    level f is affine, and both sides of f(a*b) = f(a)*f(b) are affine in
    a and in b, so the basis pairs decide it. The images tried are counted
    against `max_enum` as the search runs. Partial maps are extended and
    pruned a block of rows at a time, so the tables built for one generator
    stay near 2^20 entries however many images are tried.
    """
    if not hasattr(s, "factored_tables"):
        raise TypeError(f"{type(s).__name__} does not expose factored tables")
    if not hasattr(t, "_retract_tables"):
        raise TypeError(f"{type(t).__name__} does not expose retract tables")
    ns, nt = s.size, t.size
    if injective and ns != nt:
        return ()
    chain = s.generator_chain(max_enum)
    tm, ta, t0 = t._retract_tables(max_enum)
    limit = resolve_max_enum(max_enum)
    what = "truss morphism search (candidate images tried)"
    tried = nt
    guard(tried, limit, what)
    # the level at which each basis pair is checked: that of its later
    # factor or of its product, whichever enters the span last
    position = np.argsort(chain.order)  # the inverse permutation
    depth = np.arange(len(chain.basis))
    due = np.maximum(np.maximum(depth[:, None], depth), np.searchsorted(chain.sizes, position[chain.products], "right"))

    def multiplicative(L: np.ndarray, c: np.ndarray, level: int) -> np.ndarray:
        a, b = np.nonzero(due == level)
        fa, fb, fab = (ta[L[:, cols], c[:, None]] for cols in (chain.basis[a], chain.basis[b], chain.products[a, b]))
        return (fab == tm[fa, fb]).all(axis=1)

    c = np.arange(nt)  # f(0), one partial map per row
    L = np.full((nt, ns), t0, dtype=np.int64)  # defined on the span's columns
    keep = multiplicative(L, c, 0)
    c, L = c[keep], L[keep]
    ys = np.arange(nt)
    block = max(1, (1 << 20) // ns)  # rows extended at a time: bounds the tables built
    for level in range(1, len(chain.basis)):
        g, prev, size = chain.basis[level], chain.sizes[level - 1], chain.sizes[level]
        rg = chain.shifted[level - 1][size - prev]  # (r-1)*g + g = r*g, in span_{j-1}
        ky = [np.full(nt, t0)]  # ky[k][y] = k*y in the target retract, k <= r
        while len(ky) <= size // prev:
            ky.append(ta[ky[-1], ys])
        tried += len(c) * nt
        guard(tried, limit, what)
        rows, y = np.nonzero(ky[-1][None, :] == L[:, rg][:, None])
        span, new = chain.order[:prev], chain.order[prev:size]
        multiples = np.stack(ky[1:-1])  # multiples[k - 1][y] = k*y, 0 < k < r
        cs, Ls = [c[:0]], [L[:0]]
        for start in range(0, len(rows), block):
            r, yb = rows[start : start + block], y[start : start + block]
            Lb, cb = L[r], c[r]
            vals = ta[Lb[:, None, span], multiples[:, yb].T[:, :, None]].reshape(len(r), -1)
            if injective:
                ok = (vals != t0).all(axis=1)
                Lb, cb, vals = Lb[ok], cb[ok], vals[ok]
            Lb[:, new] = vals
            keep = multiplicative(Lb, cb, level)
            cs.append(cb[keep])
            Ls.append(Lb[keep])
        c, L = np.concatenate(cs), np.concatenate(Ls)
    F = ta[L, c[:, None]]
    F = F[np.lexsort(F.T[::-1])]
    return tuple(TrussMorphism(s, t, row) for row in F)


def enumerate_truss_morphisms(s, t, max_enum: int | None = None) -> tuple[TrussMorphism, ...]:
    """All maps s -> t preserving ternary and mult, in lexicographic map
    order, by the affine search on the retracts (`_affine_search`)."""
    return _affine_search(s, t, False, max_enum)


def enumerate_truss_isos(s, t, max_enum: int | None = None) -> tuple[TrussMorphism, ...]:
    """All bijective truss morphisms s -> t in lexicographic map order: the
    affine search pruned on injectivity."""
    return _affine_search(s, t, True, max_enum)
