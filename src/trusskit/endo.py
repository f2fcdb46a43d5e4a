"""Heap morphisms between abelian groups and the endomorphism truss of a group.

Every heap morphism G -> H splits uniquely as x -> f(x) + h0 with f a group
homomorphism and h0 the image of zero, so morphisms are stored in that
decomposed (linear, translation) form. Composition and the pointwise ternary
operation then act on the pairs:

    (f, a) o (g, b)      = (f o g, f(b) + a)
    [(f,a), (g,b), (h,c)] = (f - g + h, a - b + c)

The heap endomorphisms of G with these two operations form a truss E(G); the
same construction restricted to any composition- and difference-closed set of
homomorphisms (e.g. the module-linear ones) yields a sub-truss, so EndoTruss
takes the homomorphism family as a parameter.
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
    compose_homs,
    hom_enumerate,
    hom_ternary,
    identity_hom,
    invert_hom,
    np_add_table,
    np_hom_images,
    zero_hom,
)
from .heaps import FiniteHeap
from .trusses import FiniteTruss


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
    def is_constant(self) -> bool:
        return all(all(x == 0 for x in row) for row in self.linear.matrix)

    @property
    def is_isomorphism(self) -> bool:
        return self.linear.is_bijective

    def inverse(self) -> "HeapMorphism":
        """Inverse heap isomorphism: y -> f^{-1}(y) - f^{-1}(h0)."""
        inv = invert_hom(self.linear)
        return HeapMorphism(inv, self.source.neg(inv(self.translation)))

    def values(self) -> tuple[Element, ...]:
        return tuple(self(x) for x in self.source.elements())

    def to_json_dict(self) -> dict:
        return {
            "linear": [list(row) for row in self.linear.matrix],
            "translation": list(self.translation),
        }


def constant_morphism(source: AbGroup, value: Element, target: AbGroup | None = None) -> HeapMorphism:
    """The heap morphism sending every element to `value`."""
    target = source if target is None else target
    return HeapMorphism(zero_hom(source, target), target.element(value))


def identity_morphism(g: AbGroup) -> HeapMorphism:
    return HeapMorphism(identity_hom(g), g.zero)


def heap_isos(g: AbGroup, h: AbGroup, max_enum: int | None = None) -> tuple[HeapMorphism, ...]:
    """The bijective heap morphisms g -> h as (hom, translation) pairs,
    hom-major order; count is |h| times the number of group isomorphisms
    g -> h. Refused when the |Hom(g, h)| * |h| heap morphisms exceed the cap."""
    homs = hom_enumerate(g, h, max_enum)
    guard(len(homs) * h.cardinality, resolve_max_enum(max_enum), f"heap morphisms {g} -> {h}")
    return tuple(HeapMorphism(hom, trans) for hom in homs if hom.is_bijective for trans in h.elements())


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


@dataclass(frozen=True)
class EndoTruss:
    """The truss of heap endomorphisms of a group built on a homomorphism family.

    With `homs` = End(G) this is the full endomorphism truss E(G), realized as
    the semidirect-product carrier G x homs: carrier index h*|G| + e denotes the
    morphism (homs[h], element e). The family must contain the zero and identity
    maps and be closed under composition and pointwise difference; the full
    End(G) and the module-linear subfamilies used elsewhere all qualify.
    """

    group: AbGroup
    homs: tuple[GroupHom, ...]

    def __post_init__(self) -> None:
        for f in self.homs:
            if f.source != self.group or f.target != self.group:
                raise ValueError("every homomorphism must be an endomorphism of the group")
        if len(set(h.matrix for h in self.homs)) != len(self.homs):
            raise ValueError("homomorphism family contains duplicates")

    @property
    def size(self) -> int:
        return len(self.homs) * self.group.cardinality

    @cached_property
    def _m(self) -> int:
        return self.group.cardinality

    @cached_property
    def _elements(self) -> tuple[Element, ...]:
        return tuple(self.group.elements())

    @cached_property
    def _hom_pos(self) -> dict[tuple, int]:
        return {h.matrix: i for i, h in enumerate(self.homs)}

    @cached_property
    def carrier(self) -> tuple[HeapMorphism, ...]:
        return tuple(
            HeapMorphism(hom, e) for hom in self.homs for e in self._elements
        )

    @cached_property
    def unit(self) -> int:
        """Index of the identity morphism."""
        ident = identity_hom(self.group)
        return self._hom_index(ident) * self._m + self.group.index(self.group.zero)

    @cached_property
    def _zero_hom_pos(self) -> int:
        return self._hom_index(zero_hom(self.group, self.group))

    @cached_property
    def constant_indices(self) -> tuple[int, ...]:
        """Carrier indices of the constant morphisms, in element order."""
        base = self._zero_hom_pos * self._m
        return tuple(base + j for j in range(self._m))

    def _hom_index(self, f: GroupHom) -> int:
        try:
            return self._hom_pos[f.matrix]
        except KeyError:
            raise ValueError(
                "homomorphism family is not closed under the required operation"
            ) from None

    def index_of(self, phi: HeapMorphism) -> int:
        if phi.source != self.group or phi.target != self.group:
            raise ValueError("morphism does not act on this group")
        return self._hom_index(phi.linear) * self._m + self.group.index(phi.translation)

    def constant_index(self, a: Element) -> int:
        return self._zero_hom_pos * self._m + self.group.index(self.group.element(a))

    def decode(self, indices) -> tuple[np.ndarray, np.ndarray]:
        """(family positions, element indices) of carrier indices."""
        indices = np.asarray(indices, dtype=np.int64)
        homs = indices // self._m  # several times faster than np.divmod
        return homs, indices - homs * self._m

    def encode(self, homs, elements) -> np.ndarray:
        """Carrier indices of (homs[h], element e); element index 0 is zero."""
        return np.asarray(homs, dtype=np.int64) * self._m + elements

    def mult(self, i: int, j: int) -> int:
        h1, e1 = divmod(i, self._m)
        h2, e2 = divmod(j, self._m)
        comp = self._compose_memo.get((h1, h2))
        if comp is None:
            comp = self._hom_index(compose_homs(self.homs[h1], self.homs[h2]))
            self._compose_memo[h1, h2] = comp
        g = self.group
        e = g.add(self.homs[h1](self._elements[e2]), self._elements[e1])
        return comp * self._m + g.index(e)

    def ternary(self, i: int, j: int, k: int) -> int:
        h1, e1 = divmod(i, self._m)
        h2, e2 = divmod(j, self._m)
        h3, e3 = divmod(k, self._m)
        key = (h1, h2, h3)
        pos = self._ternary_memo.get(key)
        if pos is None:
            pos = self._hom_index(hom_ternary(self.homs[h1], self.homs[h2], self.homs[h3]))
            self._ternary_memo[key] = pos
        g = self.group
        e = g.ternary(self._elements[e1], self._elements[e2], self._elements[e3])
        return pos * self._m + g.index(e)

    @cached_property
    def _compose_memo(self) -> dict:
        return {}

    @cached_property
    def _ternary_memo(self) -> dict:
        return {}

    @cached_property
    def _apply(self) -> np.ndarray:
        """(H, |G|): element index of homs[a] applied to element b."""
        return np_hom_images(self.homs, self.group, self.group)

    @cached_property
    def generators(self) -> list[int]:
        """Element indices of the cyclic generators, 1 in one coordinate."""
        return [(1 % n) * s for n, s in zip(self.group.orders, self.group._strides)]

    @cached_property
    def _generator_images(self) -> np.ndarray:
        """(H, rank): element indices of each hom's images of the generators."""
        return self._apply[:, self.generators]

    def hom_positions(self, images: np.ndarray) -> np.ndarray:
        """Family positions of the homs whose generator images fill the last
        axis of `images`; raises ValueError for a hom outside the family."""
        family = self._generator_images
        shape = images.shape[:-1]
        queries = images.reshape(math.prod(shape), family.shape[1])
        # each row read as a mixed-radix integer, base |G|, one column at a
        # time; after each column the codes are renumbered by the family's
        # prefixes, so they stay below H * |G| where |G|^rank could overflow
        fam = np.zeros(len(family), dtype=np.int64)
        code = np.zeros(len(queries), dtype=np.int64)
        missing = np.zeros(len(queries), dtype=bool)
        for col in range(family.shape[1]):
            keys, fam = np.unique(fam * self._m + family[:, col], return_inverse=True)
            raw = code * self._m + queries[:, col]
            code = np.minimum(np.searchsorted(keys, raw), len(keys) - 1)
            missing |= keys[code] != raw
        if missing.any():
            raise ValueError("homomorphism family is not closed under the required operation")
        pos = np.empty(len(family), dtype=np.int64)
        pos[fam] = np.arange(len(family))
        return pos[code].reshape(shape)

    def factored_tables(self, max_enum: int | None = None) -> FactoredTables:
        """The small tables E(G) = G x homs is built from; guarded by the
        larger of H^2 and |G|^2 before any cached copy is handed out."""
        H, m = len(self.homs), self._m
        guard(max(H, m) ** 2, resolve_max_enum(max_enum), f"factored tables of E({self.group})")
        cached = self.__dict__.get("_factored_cache")
        if cached is None:
            gadd = np_add_table(self.group, max_enum)
            gneg = np.nonzero(gadd == 0)[1]
            apply, imgs = self._apply, self._generator_images
            cached = FactoredTables(
                compose=self.hom_positions(apply[:, imgs]),
                add=self.hom_positions(gadd[imgs[:, None, :], imgs[None, :, :]]),
                apply=apply,
                gadd=gadd,
                gneg=gneg,
            )
            self.__dict__["_factored_cache"] = cached
        return cached

    def generator_tables(self, max_enum: int | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(basis, sums, products), computed once from the factored tables:
        the zero constant, then generators S of the retract (homs, +) x
        (G, +) at it, the constants at the group's generators and (h, 0) for
        greedy generators h of the family (each the least position outside
        the span so far); sums[x, j] = x + S[j]; products of basis pairs."""
        ft = self.factored_tables(max_enum)
        cached = self.__dict__.get("_generators_cache")
        if cached is None:
            in_span = np.zeros(len(self.homs), dtype=bool)
            in_span[self._zero_hom_pos] = True
            hom_gens = []
            while not in_span.all():
                hom_gens.append(int(np.argmin(in_span)))
                # span + <h> is the union of the cosets span + k*h, each
                # wholly inside the span or wholly outside it
                coset = ft.add[np.flatnonzero(in_span), hom_gens[-1]]
                while not in_span[coset[0]]:
                    in_span[coset] = True
                    coset = ft.add[coset, hom_gens[-1]]
            constants = self.encode(self._zero_hom_pos, np.array([0, *self.generators]))
            basis = np.concatenate([constants, self.encode(hom_gens, 0)])
            sums = self.plus(np.arange(self.size)[:, None], basis[1:], max_enum)
            cached = (basis, sums, self.product(basis[:, None], basis[None, :], max_enum))
            self.__dict__["_generators_cache"] = cached
        return cached

    def product(self, x, y, max_enum: int | None = None) -> np.ndarray:
        """Carrier indices of x*y = (u o v, u(b) + a) for x = (u, a) and
        y = (v, b), broadcast over arrays of carrier indices."""
        ft = self.factored_tables(max_enum)
        (u, a), (v, b) = self.decode(x), self.decode(y)
        return self.encode(ft.compose[u, v], ft.gadd[ft.apply[u, b], a])

    def plus(self, x, y, max_enum: int | None = None) -> np.ndarray:
        """Carrier indices of x + y = (u + v, a + b) in the retract at the
        zero constant, broadcast over arrays of carrier indices."""
        ft = self.factored_tables(max_enum)
        (u, a), (v, b) = self.decode(x), self.decode(y)
        return self.encode(ft.add[u, v], ft.gadd[a, b])

    def _retract_tables(self, max_enum: int | None = None) -> tuple[np.ndarray, np.ndarray, int]:
        """(mult, add, zero): the n x n tables of `product` and `plus` and the
        zero constant, for the affine search and the dense tables. Guarded by
        n^2 before the cache is read."""
        n = self.size
        guard(n * n, resolve_max_enum(max_enum), f"multiplication and retract tables of a {n}-element endomorphism truss")
        cached = self.__dict__.get("_retract_cache")
        if cached is None:
            x, y = np.arange(n)[:, None], np.arange(n)
            cached = (self.product(x, y, max_enum), self.plus(x, y, max_enum), self.constant_indices[0])
            self.__dict__["_retract_cache"] = cached
        return cached

    def _dense_tables(self, max_enum: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """(mult, ternary) with [x,y,z] = x - y + z in the retract; guarded
        by n^3 before the cache is read."""
        n = self.size
        guard(n**3, resolve_max_enum(max_enum), f"dense tables of a {n}-element endomorphism truss")
        cached = self.__dict__.get("_dense_cache")
        if cached is None:
            mult, add, zero = self._retract_tables(max_enum)
            neg = np.nonzero(add == zero)[1]
            cached = (mult, add[add[:, neg]])
            self.__dict__["_dense_cache"] = cached
        return cached

    def to_finite_truss(self, max_enum: int | None = None) -> FiniteTruss:
        mult, tern = self._dense_tables(max_enum)
        heap = FiniteHeap(self.size, tuple(int(x) for x in tern.reshape(-1)))
        return FiniteTruss(heap, tuple(int(x) for x in mult.reshape(-1)), unit=self.unit)


def build_endo_truss(g: AbGroup, max_enum: int | None = None) -> EndoTruss:
    """E(g): all heap endomorphisms of g with composition and pointwise ternary."""
    homs = hom_enumerate(g, g, max_enum)
    guard(len(homs) * g.cardinality, resolve_max_enum(max_enum), f"carrier of E({g})")
    return EndoTruss(g, homs)
