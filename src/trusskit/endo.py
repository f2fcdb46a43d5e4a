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
carrier interface of `trusses` (`zero`, the retract's `plus`, `product`,
`retract_factors` and `generator_chain`) on its small factored tables, and
builds no n x n table. The retract is the direct product of the groups
(homs, +) and G, so its generator chain is walked on the two factors'
addition tables and composed, and a map into it is checked affine on its
decoded coordinates in the two factors.
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


def _packed(
    rows: np.ndarray, bound: int, code: np.ndarray | None = None
) -> tuple[np.ndarray, list[tuple[int, np.ndarray]]]:
    """(codes, cuts): each row of an array of entries in [0, bound) read as
    a base-`bound` integer after its starting `code` (default 0), columns
    packed into one int64 code until the next could overflow. There the
    codes are renumbered by their rank among the distinct codes so far,
    which `cuts` keeps as (column, those sorted codes). Packing keeps the
    lexicographic order of (code, row), and the codes are equal exactly
    where the rows and their starting codes are."""
    code = np.zeros(len(rows), dtype=np.int64) if code is None else code
    top, cuts = int(code.max(initial=0)) + 1, []  # codes lie in [0, top)
    for j, col in enumerate(rows.T):
        if top * bound > 1 << 63:  # the packed codes would not fit an int64
            prefixes, code = np.unique(code, return_inverse=True)
            cuts.append((j, prefixes))
            top = len(prefixes)
        code, top = code * bound + col, top * bound
    return code, cuts


def _row_ids(rows: np.ndarray, bound: int, code: np.ndarray | None = None) -> np.ndarray:
    """Ids 0, 1, ... of the rows of an array of entries in [0, bound), equal
    exactly where the rows and their starting `code`s (default 0) are, and
    in the lexicographic order of (code, row): the `_packed` codes
    renumbered, so the ids are those of renumbering after every column.
    (The first np.unique(axis=0) of a process alone costs about 1.5 MB of
    peak RSS.)"""
    return np.unique(_packed(rows, bound, code)[0], return_inverse=True)[1]


def heap_isos(g: AbGroup, h: AbGroup, max_enum: int | None = None) -> np.ndarray:
    """The bijective heap morphisms g -> h as a (K, |g|) array of value
    tables, element indices of h: the bijective homs in `hom_enumerate`
    order, each with every translation in element order, so K is |h| times
    the number of group isomorphisms g -> h, |Aut(g)| when g and h are
    isomorphic and 0 otherwise. Refused before Hom(g, h) is enumerated when
    the |Hom(g, h)| * |h| heap morphisms exceed the cap, or when the K * |g|
    entries of the tables do."""
    limit = resolve_max_enum(max_enum)
    guard(hom_count(g, h) * h.cardinality, limit, "heap morphisms {} -> {}", g, h)
    autos = aut_count(g) if groups_isomorphic(g, h) else 0
    guard(autos * h.cardinality * g.cardinality, limit, "value tables of the heap isomorphisms {} -> {}", g, h)
    linear = _linear_isos(g, h, max_enum)
    # |Hom(g, h)| >= |h| when |g| = |h|, so the first guard covers h's |h|^2 table
    return _translated(linear, h, np.arange(h.cardinality), max_enum)


def _linear_isos(g: AbGroup, h: AbGroup, max_enum: int | None, images: np.ndarray | None = None) -> np.ndarray:
    """The group isomorphisms g -> h as an (|Aut(g)|, |g|) array of value
    tables, or (0, |g|) when g and h are not isomorphic: the bijective rows
    of `images`, the (|Hom(g, h)|, |g|) value tables of Hom(g, h) in
    `hom_enumerate` order, which are evaluated here unless given (for g = h,
    the `_apply` table of E(g))."""
    if not groups_isomorphic(g, h):
        return np.empty((0, g.cardinality), dtype=np.int64)
    if images is None:
        images = matrix_images(hom_enumerate(g, h, max_enum), g, h)
    return images[_bijective_rows(images, h.cardinality)]


def _translated(linear: np.ndarray, h: AbGroup, translations: np.ndarray, max_enum: int | None) -> np.ndarray:
    """The value tables x -> f(x) + t, for each row f of `linear` and then
    each t of `translations` (element indices of h), f-major."""
    add = np_add_table(h, max_enum)
    return add[linear[:, None, :], translations[:, None]].reshape(-1, linear.shape[1])


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

    Each hom is keyed by one int64 code, its generator images read in base
    |G| (`_family_keys`), so a lookup of homs by their generator images
    (`hom_positions`) is one `searchsorted` wherever |G|^rank fits an
    int64, and duplicates are read off the sorted codes.
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
        homs.flags.writeable = False
        object.__setattr__(self, "homs", homs)
        keys = self._family_keys[1]  # a hom is its generator images, so equal codes are equal homs
        if (keys[1:] == keys[:-1]).any():
            raise ValueError("homomorphism family contains duplicates")

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
        """(H, rank): element indices of each hom's images of the generators,
        read off the matrices' columns (the generators' images)."""
        return self.homs.swapaxes(1, 2) @ np.array(self.group._strides, dtype=np.int64)

    @cached_property
    def _family_keys(self) -> tuple[list[tuple[int, np.ndarray]], np.ndarray, np.ndarray]:
        """(cuts, keys, pos): every family hom keyed by one int64 code, its
        generator images read in base |G| and packed by `_packed`, whose
        cuts (none where |G|^rank fits an int64) the queries follow; keys
        are the sorted codes and pos[i] the family position of keys[i]."""
        code, cuts = _packed(self._generator_images, self._m)
        pos = np.argsort(code)
        return cuts, code[pos], pos

    def _hom_lookup(self, images: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(positions, found): the family position of each hom whose
        generator images fill the last axis of `images`, and whether the
        family holds it (where not, the position is some family member's).
        Each query is packed like the family's codes, its prefix at a cut
        renumbered by a `searchsorted` in the family's prefixes, and its
        code looked up by one more in the sorted keys."""
        cuts, keys, pos = self._family_keys
        shape = images.shape[:-1]
        queries = images.reshape(math.prod(shape), self.group.rank)
        code, found, start = np.zeros(len(queries), dtype=np.int64), True, 0
        for stop, known in (*cuts, (self.group.rank, keys)):
            for col in queries.T[start:stop]:
                code = code * self._m + col
            at = np.searchsorted(known, code)
            np.minimum(at, len(known) - 1, out=at)
            found = found & (known[at] == code)
            code, start = at, stop
        return pos[code].reshape(shape), found.reshape(shape)

    def hom_positions(self, images: np.ndarray) -> np.ndarray:
        """Family positions of the homs whose generator images fill the last
        axis of `images` (`_hom_lookup`); raises ValueError for a hom
        outside the family."""
        positions, found = self._hom_lookup(images)
        if not found.all():
            raise ValueError("homomorphism family is not closed under the required operation")
        return positions

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
        """The chain of the retract, the product of the groups (homs, +) and
        G, kept on the truss: `walk_chain` on G's addition at 0 and on the
        family's at the zero hom, composed as G's levels at the zero hom,
        then the family's levels times |G| (see `GeneratorChain`)."""
        ft, m = self.factored_tables(max_enum), self._m  # its guard runs before the cache is read
        chain = self.__dict__.get("_chain_cache")
        if chain is None:
            zero_hom = self.zero // m
            g_basis, g_sizes, g_order, g_shifted = walk_chain(ft.gadd, 0)
            f_basis, f_sizes, f_order, f_shifted = walk_chain(ft.add, zero_hom)
            basis = np.concatenate([zero_hom * m + g_basis, f_basis[1:] * m])
            shifted = [zero_hom * m + xs for xs in g_shifted]
            shifted += [(xs[:, None] * m + g_order).ravel() for xs in f_shifted]
            chain = GeneratorChain(
                basis, np.concatenate([g_sizes, f_sizes[1:] * m]), (f_order[:, None] * m + g_order).ravel(),
                tuple(shifted), self.product(basis[:, None], basis, max_enum),
            )
            self.__dict__["_chain_cache"] = chain
        return chain

    def retract_factors(self, F, max_enum: int | None = None) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """The coordinates of the carrier indices F in the retract's two
        factors, each with its addition table: (family positions, the
        family's `add`) and (element indices, G's `gadd`)."""
        ft = self.factored_tables(max_enum)
        homs, elements = self.decode(F)
        return (homs, ft.add), (elements, ft.gadd)

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


def endo_truss_size(g: AbGroup, max_enum: int | None = None) -> int:
    """|E(g)| = |Hom(g, g)| * |g|, counted without enumerating End(g);
    raises BoundExceeded when it exceeds the cap."""
    size = hom_count(g, g) * g.cardinality
    guard(size, resolve_max_enum(max_enum), "carrier of E({})", g)
    return size


def build_endo_truss(g: AbGroup, max_enum: int | None = None) -> EndoTruss:
    """E(g): all heap endomorphisms of g with composition and pointwise
    ternary; the carrier is guarded (`endo_truss_size`) before End(g) is built."""
    endo_truss_size(g, max_enum)
    return EndoTruss(g, hom_enumerate(g, g, max_enum))
