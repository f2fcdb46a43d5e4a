"""Finite unital rings on explicit abelian-group carriers.

A ring is an abelian group plus a multiplication table over the enumerated
elements and a designated unit. `make_ring` takes that table as integers
(element indices, row-major); the factories for Z/n, prime fields and
binary products build it by broadcasting over element indices.

`action_laws` is the one law kernel of rings and modules: associativity
and additivity in each argument of a ring acting on a group, each by a
certificate on generators with a dense scan behind each failure.
`validate_ring` runs it on the ring acting on itself, where additivity in
each argument is distributivity on each side, and adds the unit law.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TableFields, guard, int_table, json_ints, resolve_max_enum
from .groups import AbGroup, Element, _prime_factors, make_group, np_add_table
from .heaps import heap_from_group
from .trusses import FiniteTruss, unit_law
from .validation import Check, ValidationReport, certified_check, multiadditive_check, report_once, sliced_scan


@dataclass(frozen=True, eq=False)
class FiniteRing(TableFields):
    """`mult_table[i, j]` is the element index of the product of elements
    i and j, a read-only (n, n) int64 array."""

    additive: AbGroup
    mult_table: np.ndarray
    one: Element

    def __post_init__(self) -> None:
        n = self.additive.cardinality
        table = int_table(
            self.mult_table, (n, n), n,
            "multiplication table needs {need} entries", "multiplication table entry out of range",
        )
        if not self.additive.contains(self.one):
            raise ValueError("unit is not an element of the additive group")
        object.__setattr__(self, "mult_table", table)

    @property
    def size(self) -> int:
        return self.additive.cardinality

    def elements(self):
        return self.additive.elements()

    def mul_index(self, i: int, j: int) -> int:
        return int(self.mult_table[i, j])

    def mul(self, a: Element, b: Element) -> Element:
        g = self.additive
        return g.element_at(self.mul_index(g.index(a), g.index(b)))

    def to_json_dict(self) -> dict:
        return {
            "orders": list(self.additive.orders),
            "mult": self.mult_table.ravel().tolist(),
            "one": list(self.one),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "FiniteRing":
        if not isinstance(data, dict) or not {"orders", "mult", "one"} <= set(data):
            raise ValueError("ring JSON must carry 'orders', 'mult' and 'one'")
        additive = make_group(json_ints(data["orders"], "ring 'orders'"))
        mult = json_ints(data["mult"], "ring 'mult'")
        return cls(additive, mult, tuple(json_ints(data["one"], "ring 'one'")))


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
    R, S = r.mult_table, s.mult_table
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


def action_laws(
    act: np.ndarray, add: np.ndarray, gens, zero: int, mul_r: np.ndarray, add_r: np.ndarray, gens_r,
    distributes: bool, laws: tuple[str, str, str], max_enum: int | None,
) -> tuple[Check, Check, Check]:
    """The laws `laws`, associativity and additivity in the module and in the
    ring element, of an (rn, mn) action table `act` on the group with
    addition `add`, zero `zero` and generators `gens`, by the ring with
    multiplication `mul_r`, addition `add_r` and generators `gens_r`, whose
    two-sided distributivity is `distributes`.

    Each additivity is certified on its generators (rn mn |gens| and
    mn rn |gens_r| lookups). Once both hold and the ring distributes,
    (r*s).x and r.(s.x) are additive in each argument, so associativity is
    decided on zero and generators; else it is scanned one slice per ring
    element. A failure reports the law's lexicographically first
    counterexample when its dense scan fits the cap, else the certificate's
    own case, itself a counterexample."""
    rn, mn = act.shape
    limit = resolve_max_enum(max_enum)
    in_module = additivity_failures(act, add, add, gens)  # (r, x, j): r.(x + g_j)
    in_ring = additivity_failures(act.T, add_r, add, gens_r)  # (x, r, j): (r + g_j).x
    certified = distributes and not (in_module.any() or in_ring.any())
    basis_r = np.array([0, *gens_r], dtype=np.int64)
    return (
        # (r*s).x == r.(s.x)
        multiadditive_check(
            laws[0], lambda r, s, x: act[mul_r[r, s], x] != act[r, act[s, x]],
            (basis_r, basis_r, np.array([zero, *gens], dtype=np.int64)), certified,
            lambda: sliced_scan(lambda r: act[mul_r[r]] != act[r][act], rn), rn * rn * mn, rn * rn * mn <= limit,
        ),
        # r.(x+y) == r.x + r.y
        certified_check(
            laws[1], in_module, rn * mn * mn, lambda ce: (ce[0], ce[1], gens[ce[2]]),
            (lambda: sliced_scan(lambda r: act[r][add] != add[act[r][:, None], act[r][None, :]], rn))
            if rn * mn * mn <= limit else None,
        ),
        # (r+s).x == r.x + s.x
        certified_check(
            laws[2], in_ring, rn * rn * mn, lambda ce: (ce[1], gens_r[ce[2]], ce[0]),
            (lambda: sliced_scan(lambda r: act[add_r[r]] != add[act[r][None, :], act], rn))
            if rn * rn * mn <= limit else None,
        ),
    )


def validate_ring(r: FiniteRing, max_enum: int | None = None) -> ValidationReport:
    """Exhaustive associativity, distributivity and unit checks: `action_laws`
    on the ring acting on itself, whose additivity in each argument is the
    distributivity that gates it, then the two-sided unit."""
    M, one, gens = r.mult_table, r.additive.index(r.one), generator_columns(r.additive)
    A = np_add_table(r.additive, max_enum)
    names = ("mult-associativity", "left-distributivity", "right-distributivity")
    laws = action_laws(M, A, gens, 0, M, A, gens, True, names, max_enum)
    return ValidationReport(f"ring on {r.size} elements", (*laws, unit_law(M[one], M[:, one])))


def ring_as_truss(r: FiniteRing, max_enum: int | None = None) -> FiniteTruss:
    """View a ring as a truss: heap a - b + c, ring multiplication, ring unit."""
    heap = heap_from_group(r.additive, max_enum)
    return FiniteTruss(heap, r.mult_table, unit=r.additive.index(r.one))
