"""Finite trusses: abelian heaps carrying an associative multiplication that
distributes over the ternary operation on both sides,

    d[a,b,c] = [da,db,dc]  and  [a,b,c]d = [ad,bd,cd].

Carriers are given by dense tables (FiniteTruss) or by any object with
`size`, `unit` and `_dense_tables` (the n x n multiplication and n^3 ternary
tables); the endomorphism trusses of `endo` plug in that way, and
`validate_truss` reads only those. The endomorphism trusses also expose
their factored tables through a vectorised `product`, the retract's `plus`
and the retract's `generator_chain`. `preserving_rows` certifies a block
of maps on the source's chain with no n x n table; the morphism and
isomorphism enumerators extend maps along the same chain into the target's
`_retract_tables` (n x n multiplication and retract addition). Those three
take only such carriers. Morphisms are total maps preserving both
operations; units, when present, are not required to map to units (only
heap + semigroup structure is preserved).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import guard, int_table, json_int, json_ints, resolve_max_enum
from .heaps import FiniteHeap, _heap_checks
from .validation import Check, ValidationReport, first, law_check


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

    def _dense_tables(self, max_enum: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        return self._mult_array, self.heap._array

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


def dense_tables(t, max_enum: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(mult, ternary) index tables for any truss-like object, materializing on
    demand for lazily represented carriers."""
    fn = getattr(t, "_dense_tables", None)
    if fn is None:
        raise TypeError(f"{type(t).__name__} does not expose truss tables")
    return fn(max_enum)


def _first_nondistributive_row(L: np.ndarray, T: np.ndarray) -> int | None:
    """The first d whose row x -> L[d, x] does not preserve the heap T, or
    None; T must be a certified heap. A map between heaps preserves it iff
    f(a + c) = [f(a), f(0), f(c)] in the retract at 0."""
    A = T[:, 0, :]
    bad = (L[:, A] != T[L[:, :, None], L[:, 0, None, None], L[:, None, :]]).any(axis=(1, 2))
    return int(np.argmax(bad)) if bad.any() else None


def _distributivity_scan(L: np.ndarray, T: np.ndarray, start: int = 0) -> tuple[int, ...] | None:
    """The lexicographically first (d,a,b,c) with d >= start and
    L[d, [a,b,c]] != [L[d,a], L[d,b], L[d,c]], or None; one n^3 slice per d."""
    for d in range(start, L.shape[0]):
        Ld = L[d]
        bad = Ld[T] != T[Ld[:, None, None], Ld[None, :, None], Ld[None, None, :]]
        if bad.any():
            return first(bad, (d,))
    return None


def mult_associativity(M: np.ndarray) -> Check:
    """(a*b)*c = a*(b*c) on a multiplication table, over n^3 cases."""
    return law_check("mult-associativity", M[M] != M[np.arange(len(M))[:, None, None], M[None, :, :]])


def unit_law(M: np.ndarray, unit: int) -> Check:
    """unit*a = a = a*unit on a multiplication table, over 2n cases."""
    idx = np.arange(len(M))
    return law_check("unit", (M[unit] != idx) | (M[:, unit] != idx), 2 * len(M))


def validate_truss(t, max_enum: int | None = None) -> ValidationReport:
    """Exhaustively verify the axioms of the underlying abelian heap,
    semigroup associativity, two-sided distributivity over the ternary
    table, and the unit law when a unit is designated.

    Once the heap is certified, distributivity is checked through its
    retract in n^3 lookups, and when that check fails the scan starts at
    the first failing row d; otherwise the n^4 scan runs from d = 0. Either
    way it reports the lexicographically first counterexample.
    """
    M, T = dense_tables(t, max_enum)
    n = int(M.shape[0])
    heap = _heap_checks(T)
    checks = [replace(c, law="heap-" + c.law) for c in heap]
    checks.append(mult_associativity(M))

    is_heap = heap[0].passed and heap[1].passed
    for law, L in (("left-distributivity", M), ("right-distributivity", M.T)):
        start = _first_nondistributive_row(L, T) if is_heap else 0
        ce = None if start is None else _distributivity_scan(L, T, start)
        checks.append(Check(law, ce is None, True, n**4, ce))

    unit = getattr(t, "unit", None)
    if unit is not None:
        checks.append(unit_law(M, unit))
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
