"""Finite trusses: abelian heaps carrying an associative multiplication that
distributes over the ternary operation on both sides,

    d[a,b,c] = [da,db,dc]  and  [a,b,c]d = [ad,bd,cd].

Carriers are given by dense tables (FiniteTruss) or by any object with
`size`, `unit` and `_dense_tables` (the n x n multiplication and n^3 ternary
tables); the endomorphism trusses of `endo` plug in that way, and
`validate_truss` reads only those. The endomorphism trusses also expose
their factored tables through a vectorised `product`, the retract's `plus`
and the retract's generators, on which `preserving_rows` certifies a block
of maps with no n x n table, and `_retract_tables` (n x n multiplication and
retract addition), which the morphism and isomorphism enumerators read.
Those three take only such carriers. Morphisms are total maps preserving
both operations; units, when present, are not required to map to units
(only heap + semigroup structure is preserved).
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


def _distributes(L: np.ndarray, T: np.ndarray) -> bool:
    """Whether every row x -> L[d, x] preserves the heap T: a map between
    heaps does iff f(a + c) = [f(a), f(0), f(c)] in the retract at 0."""
    A = T[:, 0, :]
    return not (L[:, A] != T[L[:, :, None], L[:, 0, None, None], L[:, None, :]]).any()


def _distributivity_scan(L: np.ndarray, T: np.ndarray) -> tuple[int, ...] | None:
    """The lexicographically first (d,a,b,c) with L[d, [a,b,c]] !=
    [L[d,a], L[d,b], L[d,c]], or None; one n^3 slice per d."""
    for d in range(L.shape[0]):
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
    retract in n^3 lookups; otherwise, or when that check fails, the n^4
    scan reports the lexicographically first counterexample.
    """
    M, T = dense_tables(t, max_enum)
    n = int(M.shape[0])
    heap = _heap_checks(T)
    checks = [replace(c, law="heap-" + c.law) for c in heap]
    checks.append(mult_associativity(M))

    is_heap = heap[0].passed and heap[1].passed
    for law, L in (("left-distributivity", M), ("right-distributivity", M.T)):
        ce = None if is_heap and _distributes(L, T) else _distributivity_scan(L, T)
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
    index, that preserve mult and ternary, certified on the generators S of
    the source retract at the zero constant (`generator_tables`); carriers
    without factored tables raise TypeError.

    A map of abelian heaps preserves [a,b,c] = a - b + c iff it is affine
    (Baer; Certaine): f(x + y) + f(0) = f(x) + f(y) in the retracts, which
    holds for every y once it holds for every y in S (n*|S| lookups a row).
    For affine f, y -> f(x*y) and y -> f(x)*f(y) are affine by
    distributivity, and so are both sides in x; affine maps agreeing on
    {0} u S agree everywhere, so f preserves mult iff f(x*y) = f(x)*f(y) on
    ({0} u S)^2.
    """
    for end in (s, t):
        if not hasattr(end, "factored_tables"):
            raise TypeError(f"{type(end).__name__} does not expose factored tables")
    basis, sums, products = s.generator_tables(max_enum)
    fb = F[:, basis]
    ok = (F[:, products] == t.product(fb[:, :, None], fb[:, None, :], max_enum)).all(axis=(1, 2))
    for j in range(len(basis) - 1):  # one generator at a time: B x n arrays, not B x n x |S|
        ok &= (t.plus(F[:, sums[:, j]], fb[:, :1], max_enum) == t.plus(F, fb[:, j + 1, None], max_enum)).all(axis=1)
    return ok


def _respects_mult(F: np.ndarray, x: np.ndarray, z: np.ndarray, sm: np.ndarray, tm: np.ndarray) -> np.ndarray:
    """Mask of the rows of F (partial maps, by source index) with
    F[x*z] = F[x]*F[z] for every pair (x[i], z[i]), checked a block of pairs
    at a time on the rows still alive. Blocks start at one pair and double,
    up to 2^20 lookups, so rows that fail early cost few lookups."""
    keep = np.ones(len(F), dtype=bool)
    start, step = 0, 1
    while start < len(x):
        live = np.flatnonzero(keep)
        if not len(live):
            break
        step = min(step, max(1, (1 << 20) // len(live)))
        xs, zs, rows = x[start : start + step], z[start : start + step], live[:, None]
        keep[live] = (F[rows, sm[xs, zs]] == tm[F[rows, xs], F[rows, zs]]).all(axis=1)
        start, step = start + step, 2 * step
    return keep


def _affine_search(s, t, injective: bool, max_enum: int | None) -> tuple[TrussMorphism, ...]:
    """Every truss morphism s -> t (every injective one if asked), sorted by
    mapping, for carriers that expose `_retract_tables`.

    A map between abelian heaps preserves [a,b,c] iff it is f = L + c with
    L additive on the retracts and c = f(0) (Baer; Certaine). The search
    fixes c, then extends L one generator g of the source retract at a
    time: the least element outside the span so far. With r the least k > 0
    such that k*g lies in that span, each image y of g must satisfy
    r*y = L(r*g), which for r = ord(g) is ord(g)*y = 0, and sets
    L(v + k*g) = L(v) + k*y for v in the span and 0 < k < r. All |t| images
    are tried at once per partial map. A partial map survives while f
    preserves every product x*z with x, z and x*z in its span and, for
    isomorphisms, while L sends no nonzero element to 0. The images tried
    are counted against `max_enum` as the search runs. The partial maps are
    extended and pruned a block of rows at a time, so the tables built for
    one generator stay near 2^20 entries however many images are tried.
    """
    for end in (s, t):
        if not hasattr(end, "_retract_tables"):
            raise TypeError(f"{type(end).__name__} does not expose retract tables")
    ns, nt = s.size, t.size
    if injective and ns != nt:
        return ()
    (sm, sa, s0), (tm, ta, t0) = s._retract_tables(max_enum), t._retract_tables(max_enum)
    limit = resolve_max_enum(max_enum)
    what = "truss morphism search (candidate images tried)"
    tried = nt
    guard(tried, limit, what)
    c = np.arange(nt)  # f(0), one partial map per row
    L = np.full((nt, ns), t0, dtype=np.int64)  # defined on the span's columns
    in_span = np.zeros(ns, dtype=bool)
    in_span[s0] = True
    checked = np.zeros((ns, ns), dtype=bool)  # pairs whose product was checked
    ys = np.arange(nt)

    def unchecked_pairs():
        nonlocal checked
        defined = in_span[:, None] & in_span[None, :] & in_span[sm]
        x, z = np.nonzero(defined & ~checked)
        checked = defined
        return x, z

    keep = _respects_mult(ta[L, c[:, None]], *unchecked_pairs(), sm, tm)
    c, L = c[keep], L[keep]
    block = max(1, (1 << 20) // ns)  # rows extended at a time: bounds the tables built
    while len(c) and not in_span.all():
        g = int(np.argmin(in_span))
        steps = [g]  # k*g for 0 < k < r
        rg = int(sa[g, g])
        while not in_span[rg]:
            steps.append(rg)
            rg = int(sa[rg, g])
        ky = [np.full(nt, t0)]  # ky[k][y] = k*y in the target retract, k <= r
        while len(ky) <= len(steps) + 1:
            ky.append(ta[ky[-1], ys])
        tried += len(c) * nt
        guard(tried, limit, what)
        rows, y = np.nonzero(ky[-1][None, :] == L[:, rg][:, None])
        span = np.flatnonzero(in_span)
        new = sa[span[None, :], np.array(steps)[:, None]].reshape(-1)
        multiples = np.stack(ky[1:-1])  # multiples[k - 1][y] = k*y, 0 < k < r
        in_span[new] = True
        x, z = unchecked_pairs()
        cs, Ls = [c[:0]], [L[:0]]
        for start in range(0, len(rows), block):
            r, yb = rows[start : start + block], y[start : start + block]
            Lb, cb = L[r], c[r]
            vals = ta[Lb[:, None, span], multiples[:, yb].T[:, :, None]].reshape(len(r), -1)
            if injective:
                ok = (vals != t0).all(axis=1)
                Lb, cb, vals = Lb[ok], cb[ok], vals[ok]
            Lb[:, new] = vals
            keep = _respects_mult(ta[Lb, cb[:, None]], x, z, sm, tm)
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
