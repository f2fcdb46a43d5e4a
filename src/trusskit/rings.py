"""Finite unital rings on explicit abelian-group carriers.

A ring is an abelian group plus a multiplication table over the enumerated
elements and a designated unit. Factories cover Z/n, prime fields, and binary
products; `validate_ring` checks associativity, two-sided distributivity and
the unit law exhaustively.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import guard, int_table, json_ints, resolve_max_enum
from .groups import AbGroup, Element, _prime_factors, make_group, np_add_table
from .heaps import heap_from_group
from .trusses import FiniteTruss, mult_associativity, unit_law
from .validation import ValidationReport, law_check, report_once


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

    @property
    def zero(self) -> Element:
        return self.additive.zero

    def elements(self):
        return self.additive.elements()

    def mul_index(self, i: int, j: int) -> int:
        return self.mult_table[i * self.size + j]

    def mul(self, a: Element, b: Element) -> Element:
        g = self.additive
        return g.element_at(self.mul_index(g.index(a), g.index(b)))

    def add(self, a: Element, b: Element) -> Element:
        return self.additive.add(a, b)

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


def make_ring(additive: AbGroup, mult, one: Element, max_enum: int | None = None) -> FiniteRing:
    """Materialize a ring from a multiplication callable on elements."""
    n = additive.cardinality
    guard(n * n, resolve_max_enum(max_enum), "ring multiplication table")
    elems = list(additive.elements())
    table = tuple(
        additive.index(additive.element(mult(a, b))) for a in elems for b in elems
    )
    ring = FiniteRing(additive, table, additive.element(one))
    report_once(ring, validate_ring, max_enum).raise_on_failure("construction is not a unital ring")
    return ring


def make_ring_zn(n: int, max_enum: int | None = None) -> FiniteRing:
    """The ring Z/n with its usual multiplication; n = 1 gives the zero ring."""
    if n < 1:
        raise ValueError("modulus must be >= 1")
    g = make_group([n])
    return make_ring(g, lambda a, b: ((a[0] * b[0]) % n,), (1 % n,), max_enum)


def is_prime(p: int) -> bool:
    return p >= 2 and _prime_factors(p) == {p: 1}


def make_field_fp(p: int, max_enum: int | None = None) -> FiniteRing:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return make_ring_zn(p, max_enum)


def make_product_ring(r: FiniteRing, s: FiniteRing, max_enum: int | None = None) -> FiniteRing:
    """Componentwise product of two rings."""
    g = make_group(r.additive.orders + s.additive.orders)
    kr = r.additive.rank

    def mult(a: Element, b: Element) -> Element:
        left = r.mul(a[:kr], b[:kr])
        right = s.mul(a[kr:], b[kr:])
        return left + right

    return make_ring(g, mult, r.one + s.one, max_enum)


def validate_ring(r: FiniteRing, max_enum: int | None = None) -> ValidationReport:
    """Exhaustive associativity, distributivity and unit checks."""
    M = r._mult_array
    A = np_add_table(r.additive, max_enum)
    idx = np.arange(r.size)
    checks = (
        mult_associativity(M),
        # a*(b+c) == a*b + a*c
        law_check("left-distributivity", M[idx[:, None, None], A[None, :, :]] != A[M[:, :, None], M[:, None, :]]),
        # (a+b)*c == a*c + b*c
        law_check("right-distributivity", M[A] != A[M[:, None, :], M[None, :, :]]),
        unit_law(M, r.additive.index(r.one)),
    )
    return ValidationReport(f"ring on {r.size} elements", checks)


def ring_as_truss(r: FiniteRing, max_enum: int | None = None) -> FiniteTruss:
    """View a ring as a truss: heap a - b + c, ring multiplication, ring unit."""
    heap = heap_from_group(r.additive, max_enum)
    return FiniteTruss(heap, r.mult_table, unit=r.additive.index(r.one))


def find_ring_isomorphism(r: FiniteRing, s: FiniteRing, max_enum: int | None = None):
    """First additive isomorphism that also preserves product and unit, or None.

    Brute force over the bijective additive homomorphisms; intended for the
    small rings that appear as endomorphism rings.
    """
    from .groups import hom_enumerate

    if r.size != s.size:
        return None
    for f in hom_enumerate(r.additive, s.additive, max_enum):
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
