"""Finite unital rings on explicit abelian-group carriers.

A ring is an abelian group plus a multiplication table over the enumerated
elements and a designated unit. `make_ring` takes that table as integers
(element indices, row-major); the factories for Z/n, prime fields and
binary products build it by broadcasting over element indices.

`validate_ring` decides associativity, two-sided distributivity and the
unit law exhaustively, by certificates over the additive generators S:
each row x -> a*x is additive iff a*(x+g) = a*x + a*g for every x and every
g in S (n^2 |S| lookups), and the columns likewise. Once both
distributivities hold, (a*b)*c and a*(b*c) are additive in each argument,
so associativity needs only the triples of ({0} u S)^3; otherwise it is
scanned in full, one n^2 slice at a time. A failed certificate reports the
law's lexicographically first counterexample when the n^3 scan fits the
cap, and the certificate's own case, itself a counterexample, when not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import guard, int_table, json_ints, resolve_max_enum
from .groups import AbGroup, Element, _prime_factors, make_group, np_add_table
from .heaps import heap_from_group
from .trusses import FiniteTruss, unit_law
from .validation import ValidationReport, certified_check, multiadditive_check, report_once, sliced_scan


@dataclass(frozen=True)
class FiniteRing:
    additive: AbGroup
    mult_table: tuple[int, ...]
    one: Element

    def __post_init__(self) -> None:
        n = self.additive.cardinality
        table, array = int_table(
            self.mult_table, n * n, n,
            "multiplication table needs {need} entries", "multiplication table entry out of range",
        )
        if not self.additive.contains(self.one):
            raise ValueError("unit is not an element of the additive group")
        object.__setattr__(self, "mult_table", table)
        object.__setattr__(self, "_mult_array", array.reshape(n, n))

    @property
    def size(self) -> int:
        return self.additive.cardinality

    def elements(self):
        return self.additive.elements()

    def mul_index(self, i: int, j: int) -> int:
        return self.mult_table[i * self.size + j]

    def mul(self, a: Element, b: Element) -> Element:
        g = self.additive
        return g.element_at(self.mul_index(g.index(a), g.index(b)))

    def to_json_dict(self) -> dict:
        return {
            "orders": list(self.additive.orders),
            "mult": list(self.mult_table),
            "one": list(self.one),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "FiniteRing":
        if not isinstance(data, dict) or not {"orders", "mult", "one"} <= set(data):
            raise ValueError("ring JSON must carry 'orders', 'mult' and 'one'")
        additive = make_group(json_ints(data["orders"], "ring 'orders'"))
        mult = json_ints(data["mult"], "ring 'mult'")
        return cls(additive, mult, json_ints(data["one"], "ring 'one'"))


def _guard_mult(n: int, max_enum: int | None) -> None:
    guard(n * n, resolve_max_enum(max_enum), "ring multiplication table")


def make_ring(additive: AbGroup, table, one: Element, max_enum: int | None = None) -> FiniteRing:
    """The ring on `additive` whose multiplication table `table` (n x n
    element indices, as an array or a row-major sequence) has unit `one`;
    ValueError unless `validate_ring` passes."""
    _guard_mult(additive.cardinality, max_enum)
    ring = FiniteRing(additive, table, additive.element(one))
    report_once(ring, validate_ring, max_enum).raise_on_failure("construction is not a unital ring")
    return ring


def make_ring_zn(n: int, max_enum: int | None = None) -> FiniteRing:
    """The ring Z/n with its usual multiplication; n = 1 gives the zero ring."""
    if n < 1:
        raise ValueError("modulus must be >= 1")
    _guard_mult(n, max_enum)
    i = np.arange(n, dtype=np.int64)
    return make_ring(make_group([n]), (i[:, None] * i[None, :]) % n, (1 % n,), max_enum)


def is_prime(p: int) -> bool:
    return p >= 2 and _prime_factors(p) == {p: 1}


def make_field_fp(p: int, max_enum: int | None = None) -> FiniteRing:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return make_ring_zn(p, max_enum)


def make_product_ring(r: FiniteRing, s: FiniteRing, max_enum: int | None = None) -> FiniteRing:
    """Componentwise product of two rings. The element (a, b) has index
    i_a |s| + i_b, so the table is R[i, j] |s| + S[k, l] at row i|s| + k
    and column j|s| + l."""
    R, S = r._mult_array, s._mult_array
    _guard_mult(r.size * s.size, max_enum)
    table = R[:, None, :, None] * s.size + S[None, :, None, :]
    g = make_group(r.additive.orders + s.additive.orders)
    return make_ring(g, table.reshape(g.cardinality, g.cardinality), r.one + s.one, max_enum)


def generator_columns(g: AbGroup) -> list[int]:
    """Element indices of g's generators, or [0] for the trivial group of
    rank 0, so that the additivity certificates below also pin f(0) = 0."""
    return g.generators or [0]


def additivity_failures(F: np.ndarray, add_src: np.ndarray, add_tgt: np.ndarray, gens) -> np.ndarray:
    """bad[i, x, j]: F[i, x + g_j] != F[i, x] + F[i, g_j], for the rows of a
    (k, n) table F from the group with addition table add_src into the group
    with addition table add_tgt, and element indices gens generating the
    source. A row is additive iff its cells are all False: x = 0 gives
    f(0) = 0, and f(x + y) = f(x) + f(y) follows by induction on y as a sum
    of generators."""
    gens = np.asarray(gens, dtype=np.int64)
    return F[:, add_src[:, gens]] != add_tgt[F[:, :, None], F[:, None, gens]]


def validate_ring(r: FiniteRing, max_enum: int | None = None) -> ValidationReport:
    """Exhaustive associativity, distributivity and unit checks, by the
    generator certificates of the module docstring."""
    M, n, one = r._mult_array, r.size, r.additive.index(r.one)
    A = np_add_table(r.additive, max_enum)
    gens = generator_columns(r.additive)
    left = additivity_failures(M, A, A, gens)  # (a, x, j): a*(x + g_j)
    right = additivity_failures(M.T, A, A, gens)  # (c, x, j): (x + g_j)*c
    dense = n**3 <= resolve_max_enum(max_enum)
    basis = np.array([0, *gens], dtype=np.int64)
    checks = (
        # (a*b)*c == a*(b*c)
        multiadditive_check(
            "mult-associativity", lambda a, b, c: M[M[a, b], c] != M[a, M[b, c]], (basis,) * 3,
            not (left.any() or right.any()), lambda: sliced_scan(lambda a: M[M[a]] != M[a][M], n), n**3, dense,
        ),
        # a*(b+c) == a*b + a*c
        certified_check(
            "left-distributivity", left, n**3, lambda ce: (ce[0], ce[1], gens[ce[2]]),
            (lambda: sliced_scan(lambda a: M[a][A] != A[M[a][:, None], M[a][None, :]], n)) if dense else None,
        ),
        # (a+b)*c == a*c + b*c
        certified_check(
            "right-distributivity", right, n**3, lambda ce: (ce[1], gens[ce[2]], ce[0]),
            (lambda: sliced_scan(lambda a: M[A[a]] != A[M[a][None, :], M], n)) if dense else None,
        ),
        unit_law(M[one], M[:, one]),
    )
    return ValidationReport(f"ring on {n} elements", checks)


def ring_as_truss(r: FiniteRing, max_enum: int | None = None) -> FiniteTruss:
    """View a ring as a truss: heap a - b + c, ring multiplication, ring unit."""
    heap = heap_from_group(r.additive, max_enum)
    return FiniteTruss(heap, r._mult_array, unit=r.additive.index(r.one))
