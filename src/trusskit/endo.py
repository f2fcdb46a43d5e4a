"""Heap morphisms between abelian groups and the endomorphism truss of a group.

Every heap morphism G -> H splits uniquely as x -> f(x) + h0 with f a group
homomorphism and h0 the image of zero (Baer; Certaine), so morphisms are
stored in that decomposed (linear, translation) form. Composition and the
pointwise ternary operation then act on the pairs:

    (f, a) o (g, b)      = (f o g, f(b) + a)
    [(f,a), (g,b), (h,c)] = (f - g + h, a - b + c)

The heap endomorphisms of G with these two operations form a truss E(G); the
same construction restricted to any composition- and difference-closed set of
homomorphisms (e.g. the module-linear ones) yields a sub-truss, so EndoTruss
takes the homomorphism family as a parameter.

Homomorphism families are (H, rank, rank) int64 matrix stacks in
`hom_enumerate`'s order, and `heap_isos` hands out value tables, so E(G) and
the heap isomorphisms make no object per map; GroupHom and HeapMorphism
objects are built only where the API hands one out. EndoTruss offers the
carrier interface of `trusses` (`zero`, the retract's `plus`, `product` and
`generator_chain`) on its small factored tables, and builds no n x n table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import guard, resolve_max_enum
from .groups import (
    AbGroup,
    Element,
    GroupHom,
    aut_count,
    compose_homs,
    groups_isomorphic,
    hom_count,
    hom_enumerate,
    matrix_images,
    np_add_table,
    np_elements,
)
from .trusses import GeneratorChain, walk_chain


@dataclass(frozen=True)
class HeapMorphism:
    """Map x -> linear(x) + translation between the heaps of two groups."""

    linear: GroupHom
    translation: Element

    def __post_init__(self) -> None:
        if not self.linear.target.contains(self.translation):
            raise ValueError("translation is not an element of the target group")

    @property
    def source(self) -> AbGroup:
        return self.linear.source

    @property
    def target(self) -> AbGroup:
        return self.linear.target

    def __call__(self, x: Element) -> Element:
        return self.target.add(self.linear(x), self.translation)

    def compose(self, other: "HeapMorphism") -> "HeapMorphism":
        """self o other (other applied first)."""
        if other.target != self.source:
            raise ValueError("cannot compose: groups do not match")
        lin = compose_homs(self.linear, other.linear)
        trans = self.target.add(self.linear(other.translation), self.translation)
        return HeapMorphism(lin, trans)

    @property
    def is_isomorphism(self) -> bool:
        return self.linear.is_bijective

    def to_json_dict(self) -> dict:
        return {
            "linear": [list(row) for row in self.linear.matrix],
            "translation": list(self.translation),
        }

    @classmethod
    def from_values(cls, source: AbGroup, target: AbGroup, values) -> "HeapMorphism":
        """The heap morphism with the affine value table `values` (element
        indices of target, in source's element order): its value at zero and
        the translated images of source's generators."""
        coords = np_elements(target)[np.asarray(values)]
        linear = (coords - coords[0]) % np.array(target.orders, dtype=np.int64)
        return cls(GroupHom(source, target, linear[source.generators].T.tolist()), tuple(coords[0].tolist()))


def _bijective_rows(rows: np.ndarray, size: int) -> np.ndarray:
    """Mask of the rows that are permutations of range(size)."""
    if rows.shape[1] != size:
        return np.zeros(len(rows), dtype=bool)
    seen = np.zeros((len(rows), size), dtype=bool)
    seen[np.arange(len(rows))[:, None], rows] = True
    return seen.all(axis=1)


def _row_ids(rows: np.ndarray, bound: int, code: np.ndarray | None = None) -> np.ndarray:
    """Ids 0, 1, ... of the rows of an array of entries in [0, bound), equal
    exactly where the rows and their starting `code`s (default 0) are, and
    in the lexicographic order of (code, row): each row is read as a
    base-`bound` integer one column at a time, renumbered after each column
    so the codes stay below len(rows) * bound. (The first np.unique(axis=0)
    of a process alone costs about 1.5 MB of peak RSS.)"""
    code = np.zeros(len(rows), dtype=np.int64) if code is None else code
    for col in rows.T:
        code = np.unique(code * bound + col, return_inverse=True)[1]
    return code


def _distinct_rows(rows: np.ndarray, bound: int) -> int:
    """The number of distinct rows of a non-empty array of entries in [0, bound)."""
    return int(_row_ids(rows, bound).max()) + 1


def heap_isos(g: AbGroup, h: AbGroup, max_enum: int | None = None) -> np.ndarray:
    """The bijective heap morphisms g -> h as a (K, |g|) array of value
    tables, element indices of h: the bijective homs in `hom_enumerate`
    order, each with every translation in element order, so K is |h| times
    the number of group isomorphisms g -> h, |Aut(g)| when g and h are
    isomorphic and 0 otherwise. Refused before Hom(g, h) is enumerated when
    the |Hom(g, h)| * |h| heap morphisms exceed the cap, or when the K * |g|
    entries of the tables do."""
    return _heap_isos(g, h, lambda: matrix_images(hom_enumerate(g, h, max_enum), g, h), max_enum)


def _heap_isos(g: AbGroup, h: AbGroup, hom_images, max_enum: int | None) -> np.ndarray:
    """`heap_isos`, with the (|Hom(g, h)|, |g|) value tables of Hom(g, h),
    in `hom_enumerate` order, from `hom_images()`, called only once both
    guards pass. For g = h these are the `_apply` table of E(g)."""
    limit = resolve_max_enum(max_enum)
    guard(hom_count(g, h) * h.cardinality, limit, "heap morphisms {} -> {}", g, h)
    autos = aut_count(g) if groups_isomorphic(g, h) else 0
    guard(autos * h.cardinality * g.cardinality, limit, "value tables of the heap isomorphisms {} -> {}", g, h)
    if not autos:
        return np.empty((0, g.cardinality), dtype=np.int64)
    images = hom_images()
    linear = images[_bijective_rows(images, h.cardinality)]
    # |Hom(g, h)| >= |h| when |g| = |h|, so the guard covers h's |h|^2 table
    add = np_add_table(h, max_enum)
    return add[linear[:, None, :], np.arange(h.cardinality)[:, None]].reshape(-1, g.cardinality)


# entries of the query arrays `factored_tables` passes to `hom_positions` at
# a time. Set by measurement on E(Z/2^3): at 2^16 the tables take as long as
# in one query, and the traced peak is 1.3 times the tables, not 5 times.
_QUERY_ENTRIES = 1 << 16


class FactoredTables(NamedTuple):
    """Index tables of E(G) over a family of H homs of a group with m elements.

    compose[a, b] and add[a, b] are the family positions of homs[a] o homs[b]
    and homs[a] + homs[b]; apply[a, e] is the element index of homs[a](e);
    gadd and gneg are the group's addition and negation.
    """

    compose: np.ndarray  # (H, H)
    add: np.ndarray  # (H, H)
    apply: np.ndarray  # (H, m)
    gadd: np.ndarray  # (m, m)
    gneg: np.ndarray  # (m,)


@dataclass(frozen=True, eq=False)
class EndoTruss:
    """The truss of heap endomorphisms of a group built on a homomorphism family.

    With `homs` = End(G) this is the full endomorphism truss E(G), realized as
    the semidirect-product carrier G x homs: carrier index h*|G| + e denotes the
    morphism (homs[h], element e). `homs` is an (H, rank, rank) int64 stack
    of homomorphism matrices, stored reduced mod the group's orders. The
    family must contain the zero and identity maps and be closed under
    composition and pointwise difference; the full End(G) and the
    module-linear subfamilies used elsewhere all qualify.
    """

    group: AbGroup
    homs: np.ndarray

    def __post_init__(self) -> None:
        homs = np.asarray(self.homs, dtype=np.int64)
        if homs.ndim != 3 or homs.shape[1:] != (self.group.rank,) * 2:
            raise ValueError("every homomorphism must be an endomorphism of the group")
        orders = np.array(self.group.orders, dtype=np.int64)
        homs = homs % orders[:, None]
        if (homs % (orders[:, None] // np.gcd.outer(orders, orders))).any():  # n_i A[j][i] != 0 mod m_j
            raise ValueError("family contains a matrix that is not a homomorphism of the group")
        flat = homs.reshape(len(homs), -1)
        if len(flat) and _distinct_rows(flat, int(flat.max(initial=0)) + 1) != len(flat):
            raise ValueError("homomorphism family contains duplicates")
        homs.flags.writeable = False
        object.__setattr__(self, "homs", homs)

    @property
    def size(self) -> int:
        return len(self.homs) * self.group.cardinality

    @cached_property
    def _m(self) -> int:
        return self.group.cardinality

    @cached_property
    def unit(self) -> int:
        """Index of the identity morphism: (id, 0)."""
        return int(self.hom_positions(np.array(self.group.generators, dtype=np.int64))) * self._m

    @cached_property
    def zero(self) -> int:
        """Index of the zero constant (0, 0), the retract's base point."""
        return int(self.hom_positions(np.zeros(self.group.rank, dtype=np.int64))) * self._m

    @cached_property
    def constant_indices(self) -> tuple[int, ...]:
        """Carrier indices of the constant morphisms, in element order."""
        return tuple(self.zero + j for j in range(self._m))

    def decode(self, indices) -> tuple[np.ndarray, np.ndarray]:
        """(family positions, element indices) of carrier indices."""
        indices = np.asarray(indices, dtype=np.int64)
        homs = indices // self._m  # several times faster than np.divmod
        return homs, indices - homs * self._m

    def encode(self, homs, elements) -> np.ndarray:
        """Carrier indices of (homs[h], element e); element index 0 is zero."""
        return np.asarray(homs, dtype=np.int64) * self._m + elements

    @cached_property
    def _apply(self) -> np.ndarray:
        """(H, |G|): element index of homs[a] applied to element b."""
        return matrix_images(self.homs, self.group, self.group)

    @cached_property
    def _generator_images(self) -> np.ndarray:
        """(H, rank): element indices of each hom's images of the generators."""
        return self._apply[:, self.group.generators]

    @cached_property
    def _family_keys(self) -> tuple[list[np.ndarray], np.ndarray]:
        """The sorted codes of the family's generator-image prefixes, one
        array per column, and the family position of each full code. Each
        row is read as a mixed-radix integer, base |G|, one column at a
        time; after each column the codes are renumbered by the family's
        prefixes, so they stay below H * |G| where |G|^rank could overflow."""
        family = self._generator_images
        fam, keys = np.zeros(len(family), dtype=np.int64), []
        for col in family.T:
            key, fam = np.unique(fam * self._m + col, return_inverse=True)
            keys.append(key)
        pos = np.empty(len(family), dtype=np.int64)
        pos[fam] = np.arange(len(family))
        return keys, pos

    def hom_positions(self, images: np.ndarray) -> np.ndarray:
        """Family positions of the homs whose generator images fill the last
        axis of `images`, by `searchsorted` in the cached `_family_keys`;
        raises ValueError for a hom outside the family."""
        keys, pos = self._family_keys
        shape = images.shape[:-1]
        queries = images.reshape(math.prod(shape), self.group.rank)
        code = np.zeros(len(queries), dtype=np.int64)
        missing = np.zeros(len(queries), dtype=bool)
        for col, key in enumerate(keys):
            raw = code * self._m + queries[:, col]
            code = np.minimum(np.searchsorted(key, raw), len(key) - 1)
            missing |= key[code] != raw
        if missing.any():
            raise ValueError("homomorphism family is not closed under the required operation")
        return pos[code].reshape(shape)

    def factored_tables(self, max_enum: int | None = None) -> FactoredTables:
        """The small tables E(G) = G x homs is built from; guarded by the
        larger of H^2 and |G|^2 before any cached copy is handed out."""
        H, m = len(self.homs), self._m
        guard(max(H, m) ** 2, resolve_max_enum(max_enum), "factored tables of E({})", self.group)
        cached = self.__dict__.get("_factored_cache")
        if cached is None:
            gadd = np_add_table(self.group, max_enum)
            gneg = np.nonzero(gadd == 0)[1]
            apply, imgs = self._apply, self._generator_images
            compose, add = np.empty((H, H), dtype=np.int64), np.empty((H, H), dtype=np.int64)
            step = max(1, _QUERY_ENTRIES // (H * max(1, self.group.rank)))
            for a in range(0, H, step):  # the (rows, H, rank) queries, a block of rows at a time
                rows = slice(a, a + step)
                compose[rows] = self.hom_positions(apply[rows][:, imgs])
                add[rows] = self.hom_positions(gadd[imgs[rows, None, :], imgs[None, :, :]])
            cached = FactoredTables(compose=compose, add=add, apply=apply, gadd=gadd, gneg=gneg)
            self.__dict__["_factored_cache"] = cached
        return cached

    def generator_chain(self, max_enum: int | None = None) -> GeneratorChain:
        """The retract's generator chain (`walk_chain`)."""
        self.factored_tables(max_enum)  # its guard runs before the cache is read
        return walk_chain(self, max_enum)

    def product(self, x, y, max_enum: int | None = None) -> np.ndarray:
        """Carrier indices of x*y = (u o v, u(b) + a) for x = (u, a) and
        y = (v, b), broadcast; tables are read by (faster) flat gathers."""
        ft, H, m = self.factored_tables(max_enum), len(self.homs), self._m
        (u, a), (v, b) = self.decode(x), self.decode(y)
        ub = ft.apply.ravel()[u * m + b]
        return self.encode(ft.compose.ravel()[u * H + v], ft.gadd.ravel()[ub * m + a])

    def plus(self, x, y, max_enum: int | None = None) -> np.ndarray:
        """Carrier indices of x + y = (u + v, a + b) in the retract at the
        zero constant, broadcast over arrays of carrier indices."""
        ft, H, m = self.factored_tables(max_enum), len(self.homs), self._m
        (u, a), (v, b) = self.decode(x), self.decode(y)
        return self.encode(ft.add.ravel()[u * H + v], ft.gadd.ravel()[a * m + b])


def build_endo_truss(g: AbGroup, max_enum: int | None = None) -> EndoTruss:
    """E(g): all heap endomorphisms of g with composition and pointwise
    ternary; the carrier |Hom(g, g)| * |g| is guarded before End(g) is built."""
    guard(hom_count(g, g) * g.cardinality, resolve_max_enum(max_enum), "carrier of E({})", g)
    return EndoTruss(g, hom_enumerate(g, g, max_enum))
