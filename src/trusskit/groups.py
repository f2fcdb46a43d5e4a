"""Exact arithmetic for finite abelian groups in cyclic coordinates.

A group is a direct sum Z/n1 x ... x Z/nk of cyclic factors; elements are
coordinate tuples reduced modulo the factor orders. Homomorphisms are integer
matrices A with A[j][i] the contribution of source factor i to target factor j,
constrained by n_i * A[j][i] == 0 (mod m_j) so that generators land on elements
annihilated by their source order.

All arithmetic uses exact machine integers with explicit modular reduction;
every value is immutable after construction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from .errors import ORDER_CAP, guard, resolve_max_enum

Element = tuple[int, ...]


@dataclass(frozen=True)
class AbGroup:
    """Finite abelian group given by its list of cyclic factor orders."""

    orders: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "orders", tuple(int(n) for n in self.orders))
        for n in self.orders:
            if n < 1:
                raise ValueError(f"cyclic orders must be >= 1, got {n}")
            if n > ORDER_CAP:
                raise ValueError(f"cyclic order {n} exceeds the overflow cap {ORDER_CAP}")

    @cached_property
    def cardinality(self) -> int:
        return math.prod(self.orders)

    @property
    def rank(self) -> int:
        return len(self.orders)

    @cached_property
    def zero(self) -> Element:
        return (0,) * len(self.orders)

    @cached_property
    def _strides(self) -> tuple[int, ...]:
        out, acc = [], 1
        for n in reversed(self.orders):
            out.append(acc)
            acc *= n
        return tuple(reversed(out))

    @cached_property
    def _np_elements(self) -> np.ndarray:
        """`np_elements`, built once: coordinate j of element i is (i // stride_j) % n_j."""
        strides, orders = (np.array(a, dtype=np.int64) for a in (self._strides, self.orders))
        elems = (np.arange(self.cardinality)[:, None] // strides) % orders
        elems.flags.writeable = False
        return elems

    @cached_property
    def _np_add_table(self) -> np.ndarray:
        """`np_add_table`, built once: the coordinate sums of every pair,
        read back as element indices."""
        elems, orders = self._np_elements, np.array(self.orders, dtype=np.int64)
        table = ((elems[:, None, :] + elems[None, :, :]) % orders) @ np.array(self._strides, dtype=np.int64)
        table.flags.writeable = False
        return table

    @cached_property
    def generators(self) -> list[int]:
        """Element indices of the cyclic generators, 1 in one coordinate."""
        return [(1 % n) * s for n, s in zip(self.orders, self._strides)]

    def element(self, coords: Iterable[int]) -> Element:
        coords = tuple(coords)
        if len(coords) != len(self.orders):
            raise ValueError(f"expected {len(self.orders)} coordinates, got {len(coords)}")
        return tuple(c % n for c, n in zip(coords, self.orders))

    def contains(self, a: Element) -> bool:
        return len(a) == len(self.orders) and all(
            0 <= c < n for c, n in zip(a, self.orders)
        )

    def add(self, a: Element, b: Element) -> Element:
        return tuple((x + y) % n for x, y, n in zip(a, b, self.orders, strict=True))

    def sub(self, a: Element, b: Element) -> Element:
        return tuple((x - y) % n for x, y, n in zip(a, b, self.orders, strict=True))

    def neg(self, a: Element) -> Element:
        return tuple((-x) % n for x, n in zip(a, self.orders, strict=True))

    def ternary(self, a: Element, b: Element, c: Element) -> Element:
        """The heap operation a - b + c."""
        return tuple(
            (x - y + z) % n for x, y, z, n in zip(a, b, c, self.orders, strict=True)
        )

    def index(self, a: Element) -> int:
        return sum(c * s for c, s in zip(a, self._strides, strict=True))

    def element_at(self, i: int) -> Element:
        if not 0 <= i < self.cardinality:
            raise IndexError(f"element index {i} out of range")
        out = []
        for n, s in zip(self.orders, self._strides):
            out.append((i // s) % n)
        return tuple(out)

    def elements(self) -> Iterator[Element]:
        """All elements in lexicographic coordinate order."""
        return itertools.product(*(range(n) for n in self.orders))

    def __str__(self) -> str:
        if not self.orders:
            return "Z/1"
        return " x ".join(f"Z/{n}" for n in self.orders)


def make_group(orders: Iterable[int]) -> AbGroup:
    """Build the direct sum of cyclic groups of the given orders (each >= 1)."""
    return AbGroup(tuple(orders))


@dataclass(frozen=True)
class GroupHom:
    """Group homomorphism between cyclic decompositions, as an integer matrix.

    matrix[j][i] is the coefficient sending source factor i into target factor
    j; entries are stored reduced mod the target order and must be multiples of
    m_j / gcd(n_i, m_j), otherwise the map is ill-defined on generators.
    """

    source: AbGroup
    target: AbGroup
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        m_orders = self.target.orders
        n_orders = self.source.orders
        rows = tuple(tuple(int(x) for x in row) for row in self.matrix)
        if len(rows) != len(m_orders):
            raise ValueError(f"matrix needs {len(m_orders)} rows, got {len(rows)}")
        reduced = []
        for j, (row, m) in enumerate(zip(rows, m_orders)):
            if len(row) != len(n_orders):
                raise ValueError(f"row {j} needs {len(n_orders)} entries, got {len(row)}")
            row = tuple(x % m for x in row)
            for i, (x, n) in enumerate(zip(row, n_orders)):
                if (n * x) % m != 0:
                    raise ValueError(
                        f"entry [{j}][{i}]={x} is not a multiple of "
                        f"{m // math.gcd(n, m)}; map is ill-defined on generator {i}"
                    )
            reduced.append(row)
        object.__setattr__(self, "matrix", tuple(reduced))

    def __call__(self, a: Element) -> Element:
        if len(a) != len(self.source.orders):
            raise ValueError("element does not belong to the source group")
        return tuple(
            sum(c * x for c, x in zip(row, a)) % m
            for row, m in zip(self.matrix, self.target.orders)
        )

    @cached_property
    def is_bijective(self) -> bool:
        if self.source.cardinality != self.target.cardinality:
            return False
        seen = {self(x) for x in self.source.elements()}
        return len(seen) == self.target.cardinality


def compose_homs(f: GroupHom, g: GroupHom) -> GroupHom:
    """The composite f o g (g applied first)."""
    if g.target != f.source:
        raise ValueError("cannot compose: inner target differs from outer source")
    rows = []
    for j, m in enumerate(f.target.orders):
        row = []
        for i in range(len(g.source.orders)):
            row.append(
                sum(f.matrix[j][k] * g.matrix[k][i] for k in range(len(f.source.orders))) % m
            )
        rows.append(tuple(row))
    return GroupHom(g.source, f.target, tuple(rows))


def hom_count(g: AbGroup, h: AbGroup) -> int:
    """|Hom(g, h)| by the gcd formula over all factor pairs."""
    return math.prod(
        math.gcd(n, m) for n in g.orders for m in h.orders
    )


def hom_enumerate(g: AbGroup, h: AbGroup, max_enum: int | None = None) -> np.ndarray:
    """All homomorphisms g -> h as a (|Hom|, rank h, rank g) int64 stack of
    matrices, in a fixed lexicographic order.

    Entry [j][i] runs over the gcd(n_i, m_j) multiples of m_j/gcd(n_i, m_j),
    the last entry fastest; the all-zero map always comes first.
    """
    total = hom_count(g, h)
    guard(total, resolve_max_enum(max_enum), "Hom({}, {})", g, h)
    m_orders = np.array(h.orders, dtype=np.int64)
    gcds = np.gcd.outer(m_orders, np.array(g.orders, dtype=np.int64))
    stack = np.empty((total, *gcds.shape), dtype=np.int64)
    digits = np.arange(total)
    for j, i in reversed(list(np.ndindex(gcds.shape))):
        digits, stack[:, j, i] = np.divmod(digits, gcds[j, i])
    return stack * (m_orders[:, None] // gcds)


def _prime_factors(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _prime_exponents(g: AbGroup) -> dict[int, list[int]]:
    """The exponents of each prime p | |g| in g's cyclic orders, in order."""
    exponents: dict[int, list[int]] = {}
    for n in g.orders:
        for p, e in _prime_factors(n).items():
            exponents.setdefault(p, []).append(e)
    return exponents


def invariant_factors(g: AbGroup) -> AbGroup:
    """Canonical divisor-chain form d_1 | d_2 | ... | d_l with every d_i >= 2."""
    exponents = _prime_exponents(g)
    for plist in exponents.values():
        plist.sort(reverse=True)
    depth = max((len(v) for v in exponents.values()), default=0)
    factors = []
    for k in range(depth):
        d = 1
        for p, plist in exponents.items():
            if k < len(plist):
                d *= p ** plist[k]
        factors.append(d)
    factors.reverse()
    return AbGroup(tuple(factors))


def aut_count(g: AbGroup) -> int:
    """|Aut(g)|, the product over the p-parts Z/p^e_1 x ... x Z/p^e_k
    (e_1 <= ... <= e_k) of prod_j (p^d_j - p^(j-1)) p^(e_j (k - d_j))
    p^((e_j - 1)(k - c_j + 1)), with d_j and c_j the last and first
    positions of e_j (Hillar and Rhea, Amer. Math. Monthly 114, 2007)."""
    total = 1
    for p, es in _prime_exponents(g).items():
        es.sort()
        k = len(es)
        for j, e in enumerate(es, start=1):
            c = es.index(e) + 1
            d = k - es[::-1].index(e)
            total *= (p**d - p ** (j - 1)) * p ** (e * (k - d)) * p ** ((e - 1) * (k - c + 1))
    return total


def groups_isomorphic(g: AbGroup, h: AbGroup) -> bool:
    return invariant_factors(g).orders == invariant_factors(h).orders


def parse_group_spec(spec: str) -> AbGroup:
    """Parse "n1,n2,..." into a group; the empty string is the trivial group."""
    spec = spec.strip()
    if not spec:
        return AbGroup(())
    try:
        orders = tuple(int(part) for part in spec.split(","))
    except ValueError as exc:
        raise ValueError(f"bad group spec {spec!r}: {exc}") from None
    return make_group(orders)


def group_to_json(g: AbGroup) -> dict:
    return {"orders": list(g.orders)}


def np_elements(g: AbGroup) -> np.ndarray:
    """(|g|, rank) read-only array of coordinates in enumeration order."""
    return g._np_elements


def np_add_table(g: AbGroup, max_enum: int | None = None) -> np.ndarray:
    """(n, n) read-only table of element indices for the group addition,
    built once per group; the guard runs on every call."""
    n = g.cardinality
    guard(n * n, resolve_max_enum(max_enum), "addition table of {}", g)
    return g._np_add_table


def matrix_images(mats: np.ndarray, g: AbGroup, h: AbGroup) -> np.ndarray:
    """(k, |g|) table: the index in h of the image of each element of g
    under each of k hom matrices, given as a (k, rank h, rank g) array of
    entries reduced mod the target orders."""
    elems = np_elements(g).astype(np.uint64)
    mats = mats.astype(np.uint64)
    orders = np.array(h.orders, dtype=np.uint64)
    coords = np.zeros((len(mats), len(elems), h.rank), dtype=np.uint64)
    for i in range(g.rank):  # one source coordinate at a time: k x |g| x rank h arrays
        # entries and coordinates are below 2**32, so each product fits in uint64
        term = mats[:, None, :, i] * elems[None, :, i, None]
        term %= orders
        coords += term
        coords %= orders
    return (coords @ np.array(h._strides, dtype=np.uint64)).astype(np.int64)


def additivity_failures(F: np.ndarray, add_src: np.ndarray, add_tgt: np.ndarray, gens) -> np.ndarray:
    """bad[i, x, j]: F[i, x + g_j] != F[i, x] + F[i, g_j], for the rows of a
    (k, n) table F from the group with addition table add_src into the group
    with addition table add_tgt, and element indices gens generating the
    source. A row is additive iff its cells are all False: x = 0 gives
    f(0) = 0, and f(x + y) = f(x) + f(y) follows by induction on y as a sum
    of generators."""
    gens = np.asarray(gens, dtype=np.int64)
    return F[:, add_src[:, gens]] != add_tgt[F[:, :, None], F[:, None, gens]]


def cyclic_decomposition(add: np.ndarray, zero: int) -> tuple[tuple[int, ...], np.ndarray]:
    """(orders, elements) of the abelian group with index addition table
    `add` and zero `zero`: the group is AbGroup(orders), in invariant-factor
    form, with elements[i] its element of index i. Each generator is x - t:
    x of the largest order r modulo the span S, read off repeated gathers of
    `add`, and t in S with r*t = r*x, which exists as every earlier generator
    was chosen the same way. So <x - t> meets S in 0, and its cosets extend
    `elements` in one gather, as `heaps.walk_chain` builds its order; the
    first generator is the fastest coordinate. ValueError when the cosets
    overlap, as a group's never do."""
    n, every = len(add), np.arange(len(add))
    in_span = every == zero
    orders, elements = [], np.array([zero])
    while not in_span.all():
        order, multiple = np.zeros(n, dtype=np.int64), every
        for r in range(1, n + 1):
            order[(order == 0) & in_span[multiple]] = r
            if order.all():
                break  # r is the largest order and multiple[x] = r*x
            multiple = add[multiple, every]
        coset = add[int(np.argmax(order)), elements]
        powers = [zero, int(coset[np.argmax(multiple[coset] == zero)])]  # x - t is the y in x + S with r*y = 0
        while len(powers) < r:
            powers.append(int(add[powers[-1], powers[1]]))
        elements = add[elements, np.array(powers)[:, None]].ravel()
        in_span[elements] = True
        if np.count_nonzero(in_span) != len(elements):
            raise ValueError("table is not an abelian group's: the cosets of a generator overlap")
        orders.append(r)
    return tuple(reversed(orders)), elements
