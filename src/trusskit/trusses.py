"""Finite trusses: abelian heaps carrying an associative multiplication that
distributes over the ternary operation on both sides,

    d[a,b,c] = [da,db,dc]  and  [a,b,c]d = [ad,bd,cd].

Every carrier has one interface: `size`, `unit`, `zero` (the retract's base
point), the retract's `plus` and `product` on index arrays,
`retract_factors` (a block of carrier indices as coordinates in the factors
of the retract, each with its addition table) and `generator_chain`
(`walk_chain` on a retract's addition table), read from the dense tables of
a FiniteTruss (one factor, the retract itself) or the factored ones of an
endomorphism truss (`endo`: two factors, the homs and the group, and a
chain that composes the walks on them). Along the chain `validate_truss`
certifies the laws and `preserving_rows` a block of maps, both by one
affinity check (`affine_rows`, one level of the chain at a time, on the
decoded coordinates), and the enumerators extend maps.
Morphisms preserve both operations; units need not map to units.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, reduce
from typing import NamedTuple

import numpy as np

from .errors import TableFields, guard, int_table, json_int, json_ints, resolve_max_enum
from .heaps import FiniteHeap, _heap_checks, group_ternary
from .validation import Check, ValidationReport, first, law_check, multiadditive_check, sliced_scan


class GeneratorChain(NamedTuple):
    """Generators s_1..s_k of a retract at its zero, span_j = <s_1..s_j>
    (span_0 = {0}). span_j is order[:sizes[j]]: span_{j-1}, then the cosets
    span_{j-1} + k*s_j for 0 < k < r_j, each in span_{j-1}'s order, where
    r_j is the least r > 0 with r*s_j in span_{j-1}. shifted[j - 1] is
    span_j + s_j in span_j's order; its last coset wraps into span_{j-1}.
    On a dense truss each s_j is the least carrier index outside span_{j-1}.
    On an endomorphism truss G x homs the chain is G's (at the zero hom),
    then the family's times |G|; when the zero hom is the family's first
    (as in every family `hom_enumerate` and `module_homs` give) that is the
    same least-index choice, otherwise a valid chain that is not."""

    basis: np.ndarray  # (k + 1,) the zero, then s_1..s_k
    sizes: np.ndarray  # (k + 1,) |span_0| = 1, ..., |span_k| = n
    order: np.ndarray  # (n,)
    shifted: tuple[np.ndarray, ...]  # k arrays, sum_j |span_j| <= 2n entries in all
    products: np.ndarray  # (k + 1, k + 1) basis[a] * basis[b]


def walk_chain(add: np.ndarray, zero: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """(basis, sizes, order, shifted) of the `GeneratorChain` of the abelian
    group with addition table `add` (n x n) and zero `zero`, each s_j the
    least index outside span_{j-1}. Per generator the multiples k*s_j are
    read one lookup at a time up to the first in span_{j-1}, r_j*s_j, and
    the cosets span_{j-1} + k*s_j for 0 < k <= r_j by one gather. ValueError
    when the table is not a group's: no multiple among the first n lies in
    the span, or s_j is not in its own coset."""
    n = len(add)
    in_span = np.zeros(n, dtype=bool)
    in_span[zero] = True
    basis, order, shifted = [zero], np.array([zero]), []
    while not in_span.all():
        s = int(np.argmin(in_span))
        multiples = [s]
        while not in_span[multiples[-1]]:
            if len(multiples) == n:
                raise ValueError("retract is not an abelian group: no multiple of a generator lies in the span")
            multiples.append(int(add[multiples[-1], s]))
        cosets = add[order, np.array(multiples)[:, None]]
        in_span[cosets[:-1]] = True
        if not in_span[s]:
            raise ValueError("retract is not an abelian group: a generator is not in its own coset")
        basis.append(s)
        order = np.concatenate([order, cosets[:-1].ravel()])
        shifted.append(cosets.ravel())
    return np.array(basis), np.array([1] + [len(xs) for xs in shifted]), order, tuple(shifted)


@dataclass(frozen=True, eq=False)
class FiniteTruss(TableFields):
    """Dense-table truss: `mult_table[a, b]` is a*b, a read-only (n, n)
    int64 array; `unit` is the index of a two-sided multiplicative identity
    or None."""

    heap: FiniteHeap
    mult_table: np.ndarray
    unit: int | None = None
    zero = 0  # the retract's base point, not a field

    def __post_init__(self) -> None:
        n = self.heap.size
        table = int_table(
            self.mult_table, (n, n), n,
            "multiplication table needs {need} entries", "multiplication table entry out of range",
        )
        if self.unit is not None and not 0 <= self.unit < n:
            raise ValueError("unit index out of range")
        object.__setattr__(self, "mult_table", table)

    @property
    def size(self) -> int:
        return self.heap.size

    def plus(self, x, y, max_enum: int | None = None) -> np.ndarray:
        """x + y = [x, 0, y], broadcast over index arrays like `product`."""
        return dense_tables(self)[1][x, 0, y]

    def product(self, x, y, max_enum: int | None = None) -> np.ndarray:
        return dense_tables(self)[0][x, y]

    def retract_factors(self, F, max_enum: int | None = None) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """F itself, with the retract's n x n table T[:, 0, :]: one factor."""
        return ((F, self._retract),)

    @cached_property
    def _retract(self) -> np.ndarray:
        return np.ascontiguousarray(dense_tables(self)[1][:, 0, :])

    @cached_property
    def _heap_report(self) -> tuple[Check, Check, Check]:  # run once for the validator and the chain
        return _heap_checks(dense_tables(self)[1])

    def generator_chain(self, max_enum: int | None = None) -> GeneratorChain:
        """The chain of the retract T[:, 0, :] at 0 (`walk_chain`), kept on
        the truss, or ValueError when the ternary table fails a heap law."""
        if not all(c.passed for c in self._heap_report):
            raise ValueError("ternary table is not an abelian heap: its retract has no generator chain")
        return self._chain

    @cached_property
    def _chain(self) -> GeneratorChain:
        basis, sizes, order, shifted = walk_chain(dense_tables(self)[1][:, 0, :], 0)
        return GeneratorChain(basis, sizes, order, shifted, self.product(basis[:, None], basis))

    def to_json_dict(self) -> dict:
        heap = self.heap.to_json_dict()
        return {**heap, "mult": self.mult_table.ravel().tolist(), "unit": self.unit}

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
    return t.mult_table, t.heap.ternary_table


def unit_law(left: np.ndarray, right: np.ndarray) -> Check:
    """unit*a = a = a*unit over 2n cases, on the rows unit*a and a*unit."""
    idx = np.arange(len(left))
    return law_check("unit", (left != idx) | (right != idx), 2 * len(left))


def _factored_heap_checks(t, max_enum: int | None) -> tuple[Check, Check, Check]:
    """The heap laws of an endomorphism truss G x homs, on its factors: the
    ternary operation acts on each factor apart, so a law fails at a
    carrier tuple iff it fails at its hom positions or at its elements. The
    first carrier counterexample is the lesser of the factors' firsts, each
    lifted with the other coordinate at index 0."""
    ft, m = t.factored_tables(max_enum), t._m
    guard(len(ft.add) ** 3 + m**3, resolve_max_enum(max_enum), "heap tables of the factors of E({})", t.group)
    homs, elems = _heap_checks(group_ternary(ft.add, t.zero // m)), _heap_checks(group_ternary(ft.gadd))
    checks = []
    for hom, elem in zip(homs, elems):
        lifted = (hom.counterexample and tuple(h * m for h in hom.counterexample), elem.counterexample)
        found = [ce for ce in lifted if ce]
        checks.append(Check(hom.law, not found, True, hom.checked * elem.checked, min(found, default=None)))
    return tuple(checks)


def affine_rows(t, F: np.ndarray, chain: GeneratorChain, max_enum: int | None = None):
    """(mask, case): which rows f of F, maps into t by target index from the
    carrier `chain` walks, are affine, and a case (r, x, s_j) of the first
    row r that is not, with f(x + s_j) + f(z) != f(x) + f(s_j), or None.
    A map of abelian heaps preserves [a,b,c] = a - b + c iff it is affine
    (Baer; Certaine): g = f - f(z) is additive. g is additive on span_j iff
    it is on span_{j-1} and f(x + s_j) + f(z) = f(x) + f(s_j) for every x
    in span_j: the cosets give g(v + k*s_j) = g(v) + k*g(s_j), and the last
    wraps to g(r_j*s_j) = r_j*g(s_j). That is at most 2|F[0]| lookups a row,
    read one level at a time with the column f(s_j) broadcast (each span at
    least doubles, so the levels add up to less than 2n entries a row), so
    no array is larger than B x n. The case is the least of the failing
    levels' first cases, each the first (row, x) at its level.

    F is decoded once into t's `retract_factors`: a map into a product of
    groups is affine iff each coordinate is, and an equation holds in the
    product iff it holds in every factor, so each level is checked on every
    factor's coordinates by flat gathers in its addition table.
    """
    # per factor: its coordinates times its order k, and at the basis, so
    # that add[a, b] is the flat take add.take(a * k + b)
    factors = [(C * len(add), C[:, chain.basis], add) for C, add in t.retract_factors(F, max_enum)]
    ok, cases = np.ones(len(F), dtype=bool), []
    for j, xs in enumerate(chain.shifted, 1):
        x, s = chain.order[: len(xs)], chain.basis[j]
        bad = reduce(np.logical_or, (
            add.take(Ck[:, xs] + Cb[:, :1]) != add.take(Ck[:, x] + Cb[:, j, None]) for Ck, Cb, add in factors
        ))
        if bad.any():
            ok &= ~bad.any(axis=1)
            r, i = first(bad)
            cases.append((r, int(x[i]), int(s)))
    return ok, min(cases, default=None)


def validate_truss(t, max_enum: int | None = None) -> ValidationReport:
    """Exhaustively verify the heap laws (on the dense table of a
    FiniteTruss, on the two factors of an endomorphism truss), semigroup
    associativity, two-sided distributivity and the unit law if any.

    Once the heap holds, each distributivity is `affine_rows` on the rows
    x -> d*x (left) or x -> x*d (right), made by `product` about 2^18
    entries at a time up to the first failing block; then the chain's
    triples decide associativity, both sides being affine in each argument.
    A failure is scanned from the certificate's first failing row (from 0
    if the heap fails), one n^3 slice per row, if the carrier holds its n^3
    table or n^3 fits the cap; else the certificate's case is reported."""
    n, z, idx = t.size, t.zero, np.arange(t.size)
    finite = isinstance(t, FiniteTruss)
    heap = t._heap_report if finite else _factored_heap_checks(t, max_enum)
    limit = resolve_max_enum(max_enum)
    guard(n * n, limit, "products of a {}-element truss", n)
    dense = finite or n**3 <= limit
    chain = t.generator_chain(max_enum) if all(c.passed for c in heap) else None

    def mul(a, b):
        return t.product(a, b, max_enum)

    def distributivity(law: str, rows) -> Check:
        def scan(start: int) -> tuple[int, ...] | None:  # (d, a, b, c): L[d, [a,b,c]] != [L[d,a], L[d,b], L[d,c]]
            T = dense_tables(t)[1] if finite else group_ternary(t.plus(idx[:, None], idx, max_enum), z)

            def bad(d: int) -> np.ndarray:  # T[r[a], r[b], r[c]] by one flat take
                r = rows(d)
                return r[T] != T.take(r[:, None, None] * (n * n) + (r[:, None] * n + r))

            return sliced_scan(bad, n, start)

        if chain is None:
            ce = scan(0)
            return Check(law, ce is None, True, n**4, ce)
        step = max(1, (1 << 18) // n)
        for d in range(0, n, step):
            case = affine_rows(t, rows(idx[d : d + step, None]), chain, max_enum)[1]
            if case is not None:
                r, x, s = case
                return Check(law, False, True, n**4, scan(d + r) if dense else (d + r, x, z, s))
        return Check(law, True, True, n**4)

    left = distributivity("left-distributivity", lambda d: mul(d, idx))
    right = distributivity("right-distributivity", lambda d: mul(idx, d))

    def assoc_scan() -> tuple[int, ...] | None:
        M = mul(idx[:, None], idx)
        return sliced_scan(lambda a: M[M[a]] != M[a][M], n)

    assoc = multiadditive_check(  # (a*b)*c == a*(b*c)
        "mult-associativity", lambda a, b, c: mul(mul(a, b), c) != mul(a, mul(b, c)),
        (idx if chain is None else chain.basis,) * 3, chain is not None and left.passed and right.passed,
        assoc_scan, n**3, dense,
    )
    checks = [*(replace(c, law="heap-" + c.law) for c in heap), assoc, left, right]
    if t.unit is not None:
        checks.append(unit_law(mul(t.unit, idx), mul(idx, t.unit)))
    return ValidationReport(f"truss on {n} elements", tuple(checks))


@dataclass(frozen=True, eq=False)
class TrussMorphism(TableFields):
    """Total map between truss carriers, by target indices."""

    source: object
    target: object
    mapping: np.ndarray  # taken as a sequence or an array, stored as a read-only int64 array

    def __post_init__(self) -> None:
        mapping = int_table(
            self.mapping, (self.source.size,), self.target.size,
            "mapping length differs from source carrier size", "mapping value outside target carrier",
        )
        object.__setattr__(self, "mapping", mapping)

    def __call__(self, i: int) -> int:
        return int(self.mapping[i])

    @cached_property
    def is_bijective(self) -> bool:
        return self.source.size == self.target.size and len(np.unique(self.mapping)) == len(self.mapping)


def truss_morphism_preserves(tm: TrussMorphism, max_enum: int | None = None) -> bool:
    """Whether a TrussMorphism preserves both operations: `preserving_rows`."""
    return bool(preserving_rows(tm.source, tm.target, tm.mapping[None], max_enum)[0])


def preserving_rows(s, t, F: np.ndarray, max_enum: int | None = None) -> np.ndarray:
    """Mask of the rows of F, a (B, |s|) array of maps s -> t by target
    index, that preserve both operations: the `affine_rows` on the source's
    `generator_chain` that are multiplicative on its basis 0, s_1..s_k. For
    affine f both sides of f(x*y) = f(x)*f(y) are affine in x and in y (by
    distributivity), and affine maps agreeing on the basis agree everywhere."""
    chain = s.generator_chain(max_enum)
    fb = F[:, chain.basis]
    ok = (F[:, chain.products] == t.product(fb[:, :, None], fb[:, None, :], max_enum)).all(axis=(1, 2))
    return ok & affine_rows(t, F, chain, max_enum)[0]


def _affine_search(s, t, injective: bool, max_enum: int | None) -> np.ndarray:
    """Every truss morphism s -> t (every injective one if asked) as a
    (K, |s|) int64 array of maps by target index, rows in lexicographic
    order, (0, |s|) when there is none, from the source's `generator_chain`
    and the target's n x n tables of `product` and `plus`, built once per
    call.

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
    against `max_enum` as the search runs. Partial maps are extended a block
    of rows at a time, so the tables built per generator stay near 2^20
    entries however many images are tried."""
    ns, nt = s.size, t.size
    if injective and ns != nt:
        return np.empty((0, ns), dtype=np.int64)
    limit = resolve_max_enum(max_enum)
    guard(nt * nt, limit, "multiplication and retract tables of a {}-element truss", nt)
    chain = s.generator_chain(max_enum)  # after the guard: a refused search builds nothing
    ys = np.arange(nt)
    tm, ta, t0 = t.product(ys[:, None], ys, max_enum), t.plus(ys[:, None], ys, max_enum), t.zero
    what, tried = "truss morphism search (candidate images tried)", nt
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
    block = max(1, (1 << 20) // ns)  # rows extended at a time: bounds the tables built
    for level in range(1, len(chain.basis)):
        prev, size = chain.sizes[level - 1], chain.sizes[level]
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
    return F[np.lexsort(F.T[::-1])]


def enumerate_truss_morphisms(s, t, max_enum: int | None = None) -> tuple[TrussMorphism, ...]:
    """All maps s -> t preserving ternary and mult, in lexicographic map
    order, by the affine search on the retracts (`_affine_search`)."""
    return tuple(TrussMorphism(s, t, row) for row in _affine_search(s, t, False, max_enum))


def enumerate_truss_isos(s, t, max_enum: int | None = None) -> tuple[TrussMorphism, ...]:
    """All bijective truss morphisms s -> t in lexicographic map order: the
    affine search pruned on injectivity."""
    return tuple(TrussMorphism(s, t, row) for row in _affine_search(s, t, True, max_enum))
