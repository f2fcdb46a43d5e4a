"""Finite heaps as dense ternary tables, with exhaustive validators.

A heap is a set with a ternary operation [a,b,c] that is associative,
    [[a,b,c],d,e] = [a,b,[c,d,e]],
and satisfies the Mal'cev identities [a,a,b] = b = [b,a,a]. It is abelian when
[a,b,c] = [c,b,a]. Fixing the middle slot of an abelian heap yields an abelian
group (a retract); conversely a group induces a heap via a - b + c.

Associativity is certified through the retract at 0 (Baer; Certaine): a
table is associative if a + c = [a,0,c] is associative and
[a,b,c] = a + [0,b,0] + c for all a, b, c, and given Mal'cev only if. The
retract's associativity is decided by Light's test on the generators its
chain walk finds (n^2 lookups a generator), the second identity by one pass
over the table (n^3 lookups), and once both hold the table is abelian iff
the retract is commutative (n^2). So every size is checked exhaustively.
When the certificate fails, associativity is scanned in lexicographic order
(n^5), one n^3 slice at a time, up to its first counterexample, and abelian
symmetry by comparing the table with its transpose. A group's addition
table is certified on its own (`is_abelian_group`), with no n^3 table: its
heap a - b + c then passes every law.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TableFields, guard, int_table, json_int, json_ints, resolve_max_enum
from .groups import AbGroup, np_add_table
from .validation import Check, ValidationReport, first, law_check


@dataclass(frozen=True, eq=False)
class FiniteHeap(TableFields):
    """Explicit heap on carrier {0, ..., size-1}; `ternary_table[a, b, c]`
    is [a,b,c], a read-only (size, size, size) int64 array. Built from a
    row-major sequence or an array of any shape."""

    size: int
    ternary_table: np.ndarray

    def __post_init__(self) -> None:
        n = self.size
        if n < 1:
            raise ValueError("carrier must be nonempty")
        table = int_table(
            self.ternary_table, (n, n, n), n,
            "ternary table needs {need} entries, got {got}", "ternary table entry out of carrier range",
        )
        object.__setattr__(self, "ternary_table", table)

    def to_json_dict(self) -> dict:
        return {"size": self.size, "ternary": self.ternary_table.ravel().tolist()}

    @classmethod
    def from_json_dict(cls, data: dict) -> "FiniteHeap":
        if not isinstance(data, dict) or "size" not in data or "ternary" not in data:
            raise ValueError("heap JSON must carry 'size' and 'ternary'")
        return cls(json_int(data["size"], "'size'"), json_ints(data["ternary"], "'ternary'"))


def group_ternary(add: np.ndarray, zero: int = 0) -> np.ndarray:
    """[a,b,c] = a - b + c = add[add[a, -b], c], the ternary table of the
    group with addition table `add` and zero `zero`."""
    return add[add[:, np.nonzero(add == zero)[1]]]


def heap_from_group(g: AbGroup, max_enum: int | None = None) -> FiniteHeap:
    """The heap [a,b,c] = a - b + c over g's elements: `group_ternary`."""
    n = g.cardinality
    guard(n**3, resolve_max_enum(max_enum), "heap table of {}", g)
    return FiniteHeap(n, group_ternary(np_add_table(g, max_enum)))


def _malcev_check(T: np.ndarray) -> Check:
    idx = np.arange(T.shape[0])
    left = T[idx[:, None], idx[:, None], idx[None, :]]  # [a,a,b] at (a,b)
    right = T[idx[None, :], idx[:, None], idx[:, None]]  # [b,a,a] at (a,b)
    return law_check("malcev", (left != idx[None, :]) | (right != idx[None, :]))


def _abelian_check(T: np.ndarray) -> Check:
    return law_check("abelian", T != T.transpose(2, 1, 0))


def walk_chain(add: np.ndarray, zero: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """(basis, sizes, order, shifted) of the `trusses.GeneratorChain` of the
    abelian group with addition table `add` (n x n) and zero `zero`, each
    s_j the least index outside span_{j-1}. Per generator the multiples
    k*s_j are read one lookup at a time up to the first in span_{j-1},
    r_j*s_j, and the cosets span_{j-1} + k*s_j for 0 < k <= r_j by one
    gather. ValueError when the table is not a group's: no multiple among
    the first n lies in the span, the cosets meet the span or each other
    (a group's are disjoint, so `order` never outgrows n), or s_j is not in
    its own coset. Every element is reached from the basis by `add`, so the
    basis generates any table the walk completes on, group or not."""
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
        if np.count_nonzero(in_span) != len(order) + cosets[:-1].size:
            raise ValueError("retract is not an abelian group: the cosets of a generator overlap")
        if not in_span[s]:
            raise ValueError("retract is not an abelian group: a generator is not in its own coset")
        basis.append(s)
        order = np.concatenate([order, cosets[:-1].ravel()])
        shifted.append(cosets.ravel())
    return np.array(basis), np.array([1] + [len(xs) for xs in shifted]), order, tuple(shifted)


def _light_test(A: np.ndarray, S: np.ndarray) -> bool:
    """Whether (x*s)*y = x*(s*y) for all x, y and every s in S, where x*y =
    A[x, y]: for S generating A that is A's associativity (Light's test;
    Clifford and Preston I, 1961, §1.2). n^2 |S| lookups, a block of rows x
    at a time near 2^18 entries."""
    n = len(A)
    sy = A[S]
    step = max(1, (1 << 18) // (n * len(S)))
    for x in range(0, n, step):
        rows = A[x : x + step]
        if (A[rows[:, S]] != rows[:, sy]).any():
            return False
    return True


def is_abelian_group(add: np.ndarray, zero: int) -> bool:
    """Whether `add` (n x n) is an abelian group's addition table with zero
    `zero`: zero is an identity, `add` is commutative, the walk completes
    and Light's test on its basis passes. That makes `add` a commutative
    monoid in which every element is v + k*s_j, v in span_{j-1}, with
    r_j*s_j in span_{j-1}, so by induction on j every element has an
    inverse. Then a - b + c (`group_ternary`) passes every heap law.
    O(n^2 log n) lookups."""
    if (add[zero] != np.arange(len(add))).any() or (add != add.T).any():
        return False
    try:
        basis = walk_chain(add, zero)[0]
    except ValueError:
        return False
    return _light_test(add, basis)


def group_heap_checks(n: int) -> tuple[Check, Check, Check]:
    """The checks `_heap_checks` reports on the heap of an abelian group of
    order n: every law passed over all its cases. The case counts repeat
    the ones `_malcev_check`, `_heap_checks` and `_abelian_check` read off
    an (n, n, n) table's shape."""
    return Check("malcev", True, True, n * n), Check("associativity", True, True, n**5), Check("abelian", True, True, n**3)


def _retract_certifies(T: np.ndarray, A: np.ndarray, S: np.ndarray) -> bool:
    """Whether the retract A = T[:, 0, :] is associative (`_light_test` on S,
    which generates A) and T[a,b,c] = A[A[a, T[0,b,0]], c]. That proves T
    associative; given Mal'cev, every associative T passes. The second is
    compared a block of rows a at a time, so its n^3 gather stays near 2^18
    entries however large n is."""
    if not _light_test(A, S):
        return False
    n, nu = len(A), T[0, :, 0]
    step = max(1, (1 << 18) // (n * n))
    for a in range(0, n, step):
        rows = slice(a, a + step)
        if (A[A[rows][:, nu]] != T[rows]).any():
            return False
    return True


def _assoc_scan(T: np.ndarray) -> tuple[int, ...] | None:
    """The lexicographically first (a,b,c,d,e) with [[a,b,c],d,e] !=
    [a,b,[c,d,e]], or None; one n^3 slice per (a, b)."""
    n = T.shape[0]
    for a in range(n):
        for b in range(n):
            Tab = T[a, b]
            bad = T[Tab] != Tab[T]  # T[Tab[c], d, e] vs Tab[T[c, d, e]]
            if bad.any():
                return first(bad, (a, b))
    return None


def _heap_checks(T: np.ndarray) -> tuple[Check, Check, Check]:
    """Mal'cev, associativity and abelian checks of a dense ternary table.
    Light's test runs on the basis of the retract's walk, or on every
    element when the walk raises. Once the retract certifies associativity,
    the table is abelian iff the retract is commutative; the n^5 scan and
    the n^3 transposed compare run only when that fails."""
    A = np.ascontiguousarray(T[:, 0, :])
    try:
        S = walk_chain(A, 0)[0]
    except ValueError:
        S = np.arange(len(A))
    certified = _retract_certifies(T, A, S)
    ce = None if certified else _assoc_scan(T)
    assoc = Check("associativity", ce is None, True, T.shape[0] ** 5, ce)
    abelian = Check("abelian", True, True, T.size) if certified and (A == A.T).all() else _abelian_check(T)
    return _malcev_check(T), assoc, abelian


def validate_heap(h: FiniteHeap) -> ValidationReport:
    """Check the Mal'cev identities, associativity, and abelian symmetry.

    Each law reports its first counterexample in lexicographic scan order.
    """
    return ValidationReport(f"heap on {h.size} elements", _heap_checks(h.ternary_table))
