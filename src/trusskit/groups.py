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
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from .errors import ORDER_CAP, guard, resolve_max_enum

Element = tuple[int, ...]

T = TypeVar("T")


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

    def scale(self, k: int, a: Element) -> Element:
        return tuple((k * x) % n for x, n in zip(a, self.orders, strict=True))

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


def enumerate_elements(g: AbGroup, max_enum: int | None = None) -> tuple[Element, ...]:
    """All elements of g, lexicographically ordered, guarded by the size cap."""
    guard(g.cardinality, resolve_max_enum(max_enum), f"elements of {g}")
    return tuple(g.elements())


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

    def values(self) -> tuple[Element, ...]:
        """Image of every source element, in source enumeration order."""
        return tuple(self(x) for x in self.source.elements())


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


def _entrywise(f: GroupHom, g: GroupHom, op: Callable[[int, int], int]) -> GroupHom:
    if f.source != g.source or f.target != g.target:
        raise ValueError("homomorphisms must share source and target")
    rows = tuple(
        tuple(op(x, y) % m for x, y in zip(rf, rg))
        for rf, rg, m in zip(f.matrix, g.matrix, f.target.orders)
    )
    return GroupHom(f.source, f.target, rows)


def hom_add(f: GroupHom, g: GroupHom) -> GroupHom:
    return _entrywise(f, g, lambda x, y: x + y)


def hom_sub(f: GroupHom, g: GroupHom) -> GroupHom:
    return _entrywise(f, g, lambda x, y: x - y)


def hom_ternary(f: GroupHom, g: GroupHom, h: GroupHom) -> GroupHom:
    """Entrywise f - g + h; the pointwise heap operation on homomorphisms."""
    return hom_add(hom_sub(f, g), h)


def zero_hom(g: AbGroup, h: AbGroup) -> GroupHom:
    return GroupHom(g, h, tuple((0,) * g.rank for _ in range(h.rank)))


def identity_hom(g: AbGroup) -> GroupHom:
    rows = tuple(
        tuple(1 if i == j else 0 for i in range(g.rank)) for j in range(g.rank)
    )
    return GroupHom(g, g, rows)


def hom_count(g: AbGroup, h: AbGroup) -> int:
    """|Hom(g, h)| by the gcd formula over all factor pairs."""
    return math.prod(
        math.gcd(n, m) for n in g.orders for m in h.orders
    )


def hom_enumerate(g: AbGroup, h: AbGroup, max_enum: int | None = None) -> tuple[GroupHom, ...]:
    """All homomorphisms g -> h in a fixed lexicographic matrix order.

    Every admissible matrix entry runs over the multiples of m_j/gcd(n_i, m_j);
    the all-zero map always comes first.
    """
    total = hom_count(g, h)
    guard(total, resolve_max_enum(max_enum), f"Hom({g}, {h})")
    positions = [(j, i) for j in range(h.rank) for i in range(g.rank)]
    gcds = {
        (j, i): math.gcd(g.orders[i], h.orders[j]) for j, i in positions
    }
    steps = {(j, i): h.orders[j] // gcds[j, i] for j, i in positions}
    homs = []
    for picks in itertools.product(*(range(gcds[pos]) for pos in positions)):
        entries = dict(zip(positions, picks))
        rows = tuple(
            tuple(entries[j, i] * steps[j, i] for i in range(g.rank))
            for j in range(h.rank)
        )
        homs.append(GroupHom(g, h, rows))
    return tuple(homs)


def invert_hom(f: GroupHom) -> GroupHom:
    """Inverse of a bijective homomorphism, via preimages of target generators."""
    if not f.is_bijective:
        raise ValueError("homomorphism is not bijective")
    preimage = {f(x): x for x in f.source.elements()}
    cols = []
    for j in range(f.target.rank):
        gen = tuple(1 if k == j else 0 for k in range(f.target.rank))
        cols.append(preimage[f.target.element(gen)])
    rows = tuple(
        tuple(cols[j][i] for j in range(f.target.rank)) for i in range(f.source.rank)
    )
    inv = GroupHom(f.target, f.source, rows)
    if compose_homs(inv, f).matrix != identity_hom(f.source).matrix:
        raise ValueError("inverse reconstruction failed")  # pragma: no cover
    return inv


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


def invariant_factors(g: AbGroup) -> AbGroup:
    """Canonical divisor-chain form d_1 | d_2 | ... | d_l with every d_i >= 2."""
    exponents: dict[int, list[int]] = {}
    for n in g.orders:
        for p, e in _prime_factors(n).items():
            exponents.setdefault(p, []).append(e)
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


def group_from_json(data: dict) -> AbGroup:
    if not isinstance(data, dict) or "orders" not in data:
        raise ValueError("group JSON must be an object with an 'orders' list")
    return make_group(data["orders"])


def np_elements(g: AbGroup) -> np.ndarray:
    """(|g|, rank) array of coordinates in enumeration order."""
    if g.rank == 0:
        return np.zeros((1, 0), dtype=np.int64)
    return np.array(list(g.elements()), dtype=np.int64)


def np_add_table(g: AbGroup, max_enum: int | None = None) -> np.ndarray:
    """(n, n) table of element indices for the group addition."""
    n = g.cardinality
    guard(n * n, resolve_max_enum(max_enum), f"addition table of {g}")
    if g.rank == 0:
        return np.zeros((1, 1), dtype=np.int64)
    elems = np_elements(g)
    orders = np.array(g.orders, dtype=np.int64)
    strides = np.array(g._strides, dtype=np.int64)
    sums = (elems[:, None, :] + elems[None, :, :]) % orders
    return sums @ strides


def np_hom_images(homs: Sequence[GroupHom], g: AbGroup, h: AbGroup) -> np.ndarray:
    """(len(homs), |g|) table: the index in h of each hom's image of each
    element of g, in enumeration order."""
    mats = np.array([f.matrix for f in homs], dtype=np.uint64).reshape(len(homs), h.rank, g.rank)
    return matrix_images(mats, g, h)


def matrix_images(mats: np.ndarray, g: AbGroup, h: AbGroup) -> np.ndarray:
    """(k, |g|) table: the index in h of the image of each element of g
    under each of k hom matrices, given as a (k, rank h, rank g) array of
    entries reduced mod the target orders."""
    elems = np_elements(g).astype(np.uint64)
    mats = mats.astype(np.uint64)
    orders = np.array(h.orders, dtype=np.uint64)
    # entries and coordinates are below 2**32, so each product fits in uint64
    terms = (mats[:, None, :, :] * elems[None, :, None, :]) % orders[:, None]
    coords = terms.sum(axis=-1) % orders
    return (coords @ np.array(h._strides, dtype=np.uint64)).astype(np.int64)


@dataclass(frozen=True, eq=False)
class AbelianPresentation:
    """A coordinate chart for an abstractly given finite abelian group.

    Built from a carrier plus an addition callable; `group` lists the cyclic
    orders of a basis (elementary divisors, primes ascending and exponents
    descending within each prime), and the two dicts translate between carrier
    values and coordinate tuples.
    """

    group: AbGroup
    basis: tuple
    to_coords: dict
    from_coords: dict


def _p_group_type(sizes_by_power: list[int], p: int) -> list[int]:
    # sizes_by_power[k] = #{x : p^k * x = 0}; recover the partition of exponents.
    logs = []
    for c in sizes_by_power:
        e = 0
        while p**e < c:
            e += 1
        if p**e != c:
            raise ValueError("carrier is not a valid abelian p-group")
        logs.append(e)
    counts = [logs[k] - logs[k - 1] for k in range(1, len(logs))]
    parts = []
    for j in range(1, (counts[0] if counts else 0) + 1):
        parts.append(sum(1 for s in counts if s >= j))
    return sorted(parts, reverse=True)


def decompose_abelian(
    carrier: Sequence[T], add: Callable[[T, T], T], zero: T
) -> AbelianPresentation:
    """Find a cyclic-factor basis of a finite abelian group given as a table.

    Works prime by prime: the shape of each p-component is read off the sizes
    of the p^k-torsion layers, then a basis matching that shape is found by
    backtracking over elements of the exact orders, checking independence by
    span growth. Intended for the small carriers that arise as endomorphism
    rings; cost is polynomial in |carrier| for fixed rank.
    """
    n = len(carrier)
    order_of: dict[T, int] = {}
    for x in carrier:
        k, y = 1, x
        while y != zero:
            y = add(y, x)
            k += 1
            if k > n:
                raise ValueError("addition table does not describe a group")
        order_of[x] = k

    basis: list[tuple[T, int]] = []
    for p in sorted(_prime_factors(n)):
        component = [x for x in carrier if _is_p_power(order_of[x], p)]
        sizes = [1]
        k = 1
        while sizes[-1] < len(component):
            # orders in a p-component are p-powers, so "divides p^k" is "<= p^k"
            sizes.append(sum(1 for x in component if order_of[x] <= p**k))
            k += 1
            if k > 64:
                raise ValueError("p-torsion layers do not stabilize")
        shape = _p_group_type(sizes, p)
        found = _find_p_basis(component, add, zero, order_of, p, shape)
        if found is None:
            raise ValueError("no basis found; carrier is not an abelian group")
        basis.extend((b, p**e) for b, e in zip(found, shape))

    span: dict[T, tuple[int, ...]] = {zero: ()}
    for b, d in basis:
        powers = [zero]
        for _ in range(d - 1):
            powers.append(add(powers[-1], b))
        span = {
            add(s, powers[t]): coords + (t,)
            for s, coords in span.items()
            for t in range(d)
        }
    if len(span) != n:
        raise ValueError("basis span does not cover the carrier")
    group = AbGroup(tuple(d for _, d in basis))
    to_coords = {x: c for x, c in span.items()}
    from_coords = {c: x for x, c in span.items()}
    return AbelianPresentation(group, tuple(b for b, _ in basis), to_coords, from_coords)


def _is_p_power(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


def _find_p_basis(component, add, zero, order_of, p, shape):
    def extend(chosen, span):
        slot = len(chosen)
        if slot == len(shape):
            return chosen
        want = p ** shape[slot]
        for cand in component:
            if order_of[cand] != want:
                continue
            multiples = [zero]
            for _ in range(want - 1):
                multiples.append(add(multiples[-1], cand))
            new_span = {add(s, m) for s in span for m in multiples}
            if len(new_span) != len(span) * want:
                continue
            result = extend(chosen + [cand], new_span)
            if result is not None:
                return result
        return None

    return extend([], {zero})
