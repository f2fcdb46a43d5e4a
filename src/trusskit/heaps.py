"""Finite heaps as dense ternary tables, with exhaustive validators.

A heap is a set with a ternary operation [a,b,c] that is associative,
    [[a,b,c],d,e] = [a,b,[c,d,e]],
and satisfies the Mal'cev identities [a,a,b] = b = [b,a,a]. It is abelian when
[a,b,c] = [c,b,a]. Fixing the middle slot of an abelian heap yields an abelian
group (a retract); conversely a group induces a heap via a - b + c.

Associativity is certified through the retract at 0 (Baer; Certaine): a
table is associative if a + c = [a,0,c] is associative and
[a,b,c] = a + [0,b,0] + c for all a, b, c, and given Mal'cev only if. Both
take n^3 lookups, so every size is checked exhaustively. When the
certificate fails, the n^5 scan runs in lexicographic order, one n^3 slice
at a time, and stops at its first counterexample.
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


def _retract_certifies(T: np.ndarray) -> bool:
    """Whether A[a,c] = T[a,0,c] is associative and T[a,b,c] =
    A[A[a, T[0,b,0]], c]. That proves T associative; given Mal'cev, every
    associative T passes. Both are compared a block of rows a at a time, so
    the n^3 gathers stay near 2^18 entries however large n is."""
    n = T.shape[0]
    A = T[:, 0, :]
    idx = np.arange(n)
    step = max(1, (1 << 18) // (n * n))
    for a in range(0, n, step):
        rows = slice(a, a + step)
        if (A[A[rows]] != A[idx[rows, None, None], A[None, :, :]]).any():
            return False
        if (A[A[rows][:, T[0, :, 0]]] != T[rows]).any():
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
    """Mal'cev, associativity and abelian checks of a dense ternary table."""
    n = T.shape[0]
    ce = None if _retract_certifies(T) else _assoc_scan(T)
    assoc = Check("associativity", ce is None, True, n**5, ce)
    return _malcev_check(T), assoc, _abelian_check(T)


def validate_heap(h: FiniteHeap) -> ValidationReport:
    """Check the Mal'cev identities, associativity, and abelian symmetry.

    Each law reports its first counterexample in lexicographic scan order.
    """
    return ValidationReport(f"heap on {h.size} elements", _heap_checks(h.ternary_table))
