"""Finite trusses: abelian heaps carrying an associative multiplication that
distributes over the ternary operation on both sides,

    d[a,b,c] = [da,db,dc]  and  [a,b,c]d = [ad,bd,cd].

Carriers may be given by dense tables (FiniteTruss) or by any object exposing
the same indexed interface (size, ternary, mult, unit, _dense_tables); the
endomorphism trusses built elsewhere plug in that way, and also expose
`_retract_tables` (n x n multiplication and retract addition) for checks that
need no n^3 table. Morphisms are total maps preserving both operations; units,
when present, are not required to map to units (only heap + semigroup
structure is preserved).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import guard, int_table, json_int, json_ints, resolve_max_enum
from .heaps import FiniteHeap, _heap_checks
from .validation import Check, ValidationReport


@dataclass(frozen=True)
class FiniteTruss:
    """Dense-table truss; `unit` is the index of a two-sided multiplicative
    identity or None."""

    heap: FiniteHeap
    mult_table: tuple[int, ...]
    unit: int | None = None

    def __post_init__(self) -> None:
        n = self.heap.size
        table = int_table(
            self.mult_table, n**2, n,
            "multiplication table needs {need} entries", "multiplication table entry out of range",
        )
        if self.unit is not None and not 0 <= self.unit < n:
            raise ValueError("unit index out of range")
        object.__setattr__(self, "mult_table", table)

    @property
    def size(self) -> int:
        return self.heap.size

    def ternary(self, a: int, b: int, c: int) -> int:
        return self.heap.ternary(a, b, c)

    def mult(self, a: int, b: int) -> int:
        return self.mult_table[a * self.size + b]

    def _dense_tables(self, max_enum: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        n = self.size
        mult = np.array(self.mult_table, dtype=np.int64).reshape(n, n)
        return mult, self.heap._array

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


def _first(prefix: tuple[int, ...], bad: np.ndarray) -> tuple[int, ...]:
    return prefix + tuple(int(x) for x in np.argwhere(bad)[0])


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
            return _first((d,), bad)
    return None


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
    checks = [Check("heap-" + c.law, c.passed, c.exhaustive, c.checked, c.counterexample) for c in heap]

    bad = M[M] != M[np.arange(n)[:, None, None], M[None, :, :]]
    checks.append(
        Check("mult-associativity", not bad.any(), True, n**3, None if not bad.any() else _first((), bad))
    )

    is_heap = heap[0].passed and heap[1].passed
    for law, L in (("left-distributivity", M), ("right-distributivity", M.T)):
        ce = None if is_heap and _distributes(L, T) else _distributivity_scan(L, T)
        checks.append(Check(law, ce is None, True, n**4, ce))

    unit = getattr(t, "unit", None)
    if unit is not None:
        idx = np.arange(n)
        bad = (M[unit] != idx) | (M[:, unit] != idx)
        checks.append(
            Check("unit", not bad.any(), True, 2 * n, None if not bad.any() else _first((), bad))
        )
    return ValidationReport(f"truss on {n} elements", tuple(checks))


def left_absorbers(t) -> tuple[int, ...]:
    """Elements x with x*y = x for every y."""
    M, _ = dense_tables(t)
    n = M.shape[0]
    return tuple(int(i) for i in range(n) if bool((M[i] == i).all()))


@dataclass(frozen=True)
class TrussMorphism:
    """Total map between truss carriers, by target indices."""

    source: object
    target: object
    mapping: tuple[int, ...]

    def __post_init__(self) -> None:
        mapping = tuple(int(x) for x in self.mapping)
        if len(mapping) != self.source.size:
            raise ValueError("mapping length differs from source carrier size")
        if mapping and not (0 <= min(mapping) and max(mapping) < self.target.size):
            raise ValueError("mapping value outside target carrier")
        object.__setattr__(self, "mapping", mapping)

    def __call__(self, i: int) -> int:
        return self.mapping[i]

    @cached_property
    def is_bijective(self) -> bool:
        return self.source.size == self.target.size and len(set(self.mapping)) == len(self.mapping)


def identity_truss_morphism(t) -> TrussMorphism:
    return TrussMorphism(t, t, tuple(range(t.size)))


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


def truss_morphism_preserves(tm: TrussMorphism, max_enum: int | None = None) -> bool:
    """Vectorized check that a TrussMorphism preserves mult and ternary.

    When both ends expose `_retract_tables`, their carriers are abelian heaps
    by construction (endomorphism trusses are), and a map between abelian
    heaps preserves [a,b,c] = a - b + c iff x -> f(x) - f(0) is additive on
    the retracts (Baer; Certaine): f(x + y) + f(0) = f(x) + f(y). That takes
    n^2 lookups and no n^3 table. Other carriers, whose tables need not be
    heaps, are checked on the dense tables.
    """
    s, t = tm.source, tm.target
    f = np.array(tm.mapping, dtype=np.int64)
    if hasattr(s, "_retract_tables") and hasattr(t, "_retract_tables"):
        sm, sa, s0 = s._retract_tables(max_enum)
        tm_m, ta, _ = t._retract_tables(max_enum)
        pairs = f[:, None] * t.size + f[None, :]  # flat index of (f(x), f(y))
        if (f[sm] != tm_m.take(pairs)).any():
            return False
        return not (ta[:, f[s0]][f[sa]] != ta.take(pairs)).any()
    sm, st = dense_tables(s, max_enum)
    tm_m, tm_t = dense_tables(t, max_enum)
    if (f[sm] != tm_m[f[:, None], f[None, :]]).any():
        return False
    return not (f[st] != tm_t[f[:, None, None], f[None, :, None], f[None, None, :]]).any()


def _filter_candidates(cands: np.ndarray, sm, st, tm, tt) -> np.ndarray:
    """Keep the rows of a (k, ns) candidate-map array preserving both tables;
    multiplication constraints run first since they prune most cheaply."""
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


def enumerate_truss_morphisms(s, t, max_enum: int | None = None) -> tuple[TrussMorphism, ...]:
    """All maps s -> t preserving ternary and mult, by exhaustive filtering of
    the |t|^|s| total maps, in lexicographic map order."""
    limit = resolve_max_enum(max_enum)
    ns, nt = s.size, t.size
    total = nt**ns
    guard(total, limit, f"truss morphism candidates ({nt}^{ns})")
    sm, st = dense_tables(s, max_enum)
    tm, tt = dense_tables(t, max_enum)
    found: list[TrussMorphism] = []
    chunk = 1 << 14
    dims = (nt,) * ns
    for start in range(0, total, chunk):
        ids = np.arange(start, min(start + chunk, total))
        cands = np.stack(np.unravel_index(ids, dims), axis=1)
        for row in _filter_candidates(cands, sm, st, tm, tt):
            found.append(TrussMorphism(s, t, tuple(int(x) for x in row)))
    return tuple(found)


def enumerate_truss_isos(s, t, max_enum: int | None = None) -> tuple[TrussMorphism, ...]:
    """All bijective truss morphisms s -> t by brute force over permutations.

    Candidates are restricted to bijections matching left absorbers to left
    absorbers (a necessary condition for bijective morphisms), then filtered on
    the multiplication and ternary tables.
    """
    if s.size != t.size:
        return ()
    limit = resolve_max_enum(max_enum)
    n = s.size
    abs_s, abs_t = left_absorbers(s), left_absorbers(t)
    if len(abs_s) != len(abs_t):
        return ()
    rest_s = [i for i in range(n) if i not in set(abs_s)]
    rest_t = [i for i in range(n) if i not in set(abs_t)]
    total = math.factorial(len(abs_s)) * math.factorial(len(rest_s))
    guard(total, limit, f"bijections respecting absorbers ({total})")
    sm, st = dense_tables(s, max_enum)
    tm, tt = dense_tables(t, max_enum)
    rows = np.empty((total, n), dtype=np.int64)
    k = 0
    for pa in itertools.permutations(abs_t):
        for pr in itertools.permutations(rest_t):
            row = rows[k]
            for src, dst in zip(abs_s, pa):
                row[src] = dst
            for src, dst in zip(rest_s, pr):
                row[src] = dst
            k += 1
    kept = _filter_candidates(rows, sm, st, tm, tt)
    morphisms = [TrussMorphism(s, t, tuple(int(x) for x in row)) for row in kept]
    morphisms.sort(key=lambda m: m.mapping)
    return tuple(morphisms)
