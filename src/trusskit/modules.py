"""Finite modules over finite rings, their linear heap morphisms, and the
module-level truss correspondence.

A module is a ring, an abelian group, and a validated action table of
element indices; `make_module` takes that table as integers, and the
factories build it by broadcasting over element indices. `validate_module`
checks unitality and then runs `rings.action_laws`, the law kernel that
also validates rings, with the ring's distributivity as the gate of its
associativity certificate. Each element e of a module induces a deformed
structure: addition a +_e b = a - e + b and action r ._e m = r.m - r.e + e,
and `validate_induced_action` runs the same laws on those deformed tables.
The heap morphisms whose linear part commutes with the action are exactly
the maps respecting every one of those deformed module structures at once.
They form a sub-truss E_R(M) of the endomorphism truss of the underlying
group, built once per module by `build_linear_endo_truss` on End(M) =
`module_homs(M, M)`, which filters Hom(M, N) on the action tables. Every
question "is this hom in End(M)?" is answered by that truss's
`hom_positions`, and `end_ring` reads the ring End(M) off its factored
tables.

Two modules over possibly different rings are equivalent over their
endomorphism rings when some additive isomorphism mu conjugates one
endomorphism ring onto the other; `find_module_equivalence` searches Hom(M, N)
a block at a time for such a mu, and `equivalence_is_valid` rechecks one,
both by `conjugate_homs`, the hom half of the group-level conjugation. The
truss isomorphisms between the E_R are then the group-level conjugations by
the heap isomorphisms (mu, t), so `baer_kaplansky.verify_correspondence`
checks their round trip on E_R(M) and E_R(N) as it does on E(G) and E(H).
On one equivalence, `truss_iso_from_equivalence` builds the conjugation by
(mu, 0) with `truss_iso_from_heap_iso`, and `equivalence_from_truss_iso`
reads mu back with `heap_iso_from_truss_iso` and rho(u) off the image of
(u, 0). `example_non_iso` returns the classic pair showing that the truss isomorphism
class is coarser than the module isomorphism class: the ideals F_p x 0 and
0 x F_p of F_p x F_p, whose linear endomorphism trusses are isomorphic
though no module isomorphism joins them; `module-bk` checks the pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .baer_kaplansky import _endo_ends, conjugate_homs, heap_iso_from_truss_iso, truss_iso_from_heap_iso
from .endo import EndoTruss, HeapMorphism, _bijective_rows
from .errors import (
    InvalidEquivalence,
    NotAnIsomorphism,
    TableFields,
    guard,
    int_table,
    json_ints,
    resolve_max_enum,
)
from .groups import (
    AbGroup,
    Element,
    GroupHom,
    decompose_abelian,
    groups_isomorphic,
    hom_count,
    hom_enumerate,
    make_group,
    matrix_images,
    np_add_table,
    np_elements,
)
from .rings import (
    FiniteRing,
    action_laws,
    generator_columns,
    make_field_fp,
    make_product_ring,
    make_ring_zn,
    validate_ring,
)
from .trusses import TrussMorphism, truss_morphism_preserves
from .validation import Check, ValidationReport, law_check, report_once


@dataclass(frozen=True, eq=False)
class RModule(TableFields):
    """Left module: action table rows indexed by ring elements, columns by
    module elements, entries element indices of the module group; a
    read-only (|ring|, |group|) int64 array."""

    ring: FiniteRing
    group: AbGroup
    action_table: np.ndarray

    def __post_init__(self) -> None:
        rn, mn = self.ring.size, self.group.cardinality
        table = int_table(
            self.action_table, (rn, mn), mn,
            "action table needs {need} entries", "action table entry out of module range",
        )
        object.__setattr__(self, "action_table", table)

    def act_index(self, i: int, j: int) -> int:
        return int(self.action_table[i, j])

    def act(self, r: Element, m: Element) -> Element:
        i = self.ring.additive.index(r)
        j = self.group.index(m)
        return self.group.element_at(self.act_index(i, j))

    def to_json_dict(self) -> dict:
        return {
            "ring": self.ring.to_json_dict(),
            "module": {
                "orders": list(self.group.orders),
                "action": self.action_table.ravel().tolist(),
            },
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "RModule":
        if not isinstance(data, dict) or not {"ring", "module"} <= set(data):
            raise ValueError("module JSON must carry 'ring' and 'module'")
        ring = FiniteRing.from_json_dict(data["ring"])
        mod = data["module"]
        if not isinstance(mod, dict) or not {"orders", "action"} <= set(mod):
            raise ValueError("'module' must carry 'orders' and 'action'")
        group = make_group(json_ints(mod["orders"], "module 'orders'").tolist())
        return cls(ring, group, json_ints(mod["action"], "module 'action'"))


def _guard_action(rn: int, mn: int, max_enum: int | None) -> None:
    guard(rn * mn, resolve_max_enum(max_enum), "module action table")


def make_module(ring: FiniteRing, group: AbGroup, table, max_enum: int | None = None) -> RModule:
    """The module whose action table `table` (ring element x module element
    -> element index of group, as an array or a row-major sequence) passes
    `validate_module`; ValueError otherwise."""
    _guard_action(ring.size, group.cardinality, max_enum)
    module = RModule(ring, group, table)
    report_once(module, validate_module, max_enum).raise_on_failure("action does not satisfy the module axioms")
    return module


def module_zn(n: int, max_enum: int | None = None) -> RModule:
    """Z/n as a module over the ring Z/n."""
    return regular_module(make_ring_zn(n, max_enum), max_enum)


def regular_module(ring: FiniteRing, max_enum: int | None = None) -> RModule:
    """The ring acting on its own additive group by left multiplication."""
    return make_module(ring, ring.additive, ring.mult_table, max_enum)


def coordinate_module(ring: FiniteRing, coord: int, max_enum: int | None = None) -> RModule:
    """For a product ring, the ideal supported on one coordinate, presented
    abstractly on that factor's cyclic group: r.m = r[coord] m."""
    orders = ring.additive.orders
    if not 0 <= coord < len(orders):
        raise ValueError("coordinate out of range")
    p = orders[coord]
    _guard_action(ring.size, p, max_enum)
    table = (np_elements(ring.additive)[:, coord, None] * np.arange(p)) % p
    return make_module(ring, make_group([p]), table, max_enum)


def _action_checks(
    m: RModule, act: np.ndarray, add: np.ndarray, gens: list[int], zero: int, max_enum: int | None
) -> tuple[Check, ...]:
    """Unitality, then the laws of `action_laws`, of an action table `act`
    of m's ring over the group addition table `add`, whose zero and
    generators have element indices `zero` and `gens`."""
    ring = m.ring
    add_r = np_add_table(ring.additive, max_enum)
    ring_report = report_once(ring, validate_ring, max_enum)
    distributes = all(ring_report.check(law).passed for law in ("left-distributivity", "right-distributivity"))
    laws = action_laws(
        act, add, gens, zero, ring.mult_table, add_r, generator_columns(ring.additive), distributes,
        ("action-associativity", "additive-in-module", "additive-in-ring"), max_enum,
    )
    return (law_check("unital", act[ring.additive.index(ring.one)] != np.arange(act.shape[1])), *laws)


def validate_module(m: RModule, max_enum: int | None = None) -> ValidationReport:
    """Exhaustive unitality, associativity and bi-additivity of the action:
    `_action_checks` on the action table."""
    rn, mn = m.action_table.shape
    add = np_add_table(m.group, max_enum)
    checks = _action_checks(m, m.action_table, add, generator_columns(m.group), 0, max_enum)
    return ValidationReport(f"module ({rn}-element ring on {mn} elements)", checks)


def induced_action(m: RModule, e: Element, r: Element, x: Element) -> Element:
    """The deformed action r ._e x = r.x - r.e + e."""
    g = m.group
    return g.ternary(m.act(r, x), m.act(r, e), e)


def validate_induced_action(m: RModule, e: Element, max_enum: int | None = None) -> ValidationReport:
    """Check that (M, +_e, ._e) satisfies the module axioms: the laws of
    `validate_module` on the deformed tables a +_e b = a - e + b (identity
    e) and r ._e x = r.x - r.e + e."""
    g = m.group
    add = np_add_table(g, max_enum)
    neg = np.nonzero(add == 0)[1]
    i = g.index(g.element(e))
    act = m.action_table
    add_e = add[add[:, neg[i]]]
    act_e = add[add[act, neg[act[:, i]][:, None]], i]
    # x -> x + e carries (M, +) onto (M, +_e), zero to e, generators to g + e
    gens_e = add[generator_columns(g), i].tolist()
    return ValidationReport(f"induced action at {e}", _action_checks(m, act_e, add_e, gens_e, i, max_enum))


# entries of the largest array `module_homs` builds for one chunk of homs
_HOM_CHUNK = 1 << 20


def module_homs(m: RModule, n: RModule, max_enum: int | None = None) -> np.ndarray:
    """All additive maps commuting with the ring action (same ring required),
    as the sub-stack of `hom_enumerate`'s matrices whose image table F has
    F[act_M[r, x]] = act_N[r, F[x]], filtered a chunk of homs at a time."""
    if m.ring != n.ring:
        raise ValueError("modules must share the acting ring")
    homs = hom_enumerate(m.group, n.group, max_enum)
    act_m, act_n = m.action_table, n.action_table
    rn, mn = act_m.shape
    step = max(1, _HOM_CHUNK // (mn * max(rn, m.group.rank * n.group.rank)))
    kept = np.zeros(len(homs), dtype=bool)
    for start in range(0, len(homs), step):
        F = matrix_images(homs[start : start + step], m.group, n.group)
        kept[start : start + step] = (F[:, act_m] == act_n[:, F].swapaxes(0, 1)).all(axis=(1, 2))
    return homs[kept]


def _group_homs(stack: np.ndarray, g: AbGroup, h: AbGroup) -> tuple[GroupHom, ...]:
    """One GroupHom per matrix of a (k, rank h, rank g) stack."""
    return tuple(GroupHom(g, h, matrix) for matrix in stack.tolist())


@dataclass(frozen=True, eq=False)
class EndomorphismRing:
    """End(M) over the acting ring, presented as a FiniteRing.

    `homs_by_index[i]` is the endomorphism sitting at additive element index i;
    composition is the ring multiplication (inner map applied first is the
    right factor: u*v acts as x -> u(v(x)))."""

    module: RModule
    ring: FiniteRing
    homs_by_index: tuple[GroupHom, ...]

    def as_module(self, max_enum: int | None = None) -> RModule:
        """The original module viewed over this endomorphism ring
        (evaluation): row i of the action table is the image table of
        homs_by_index[i]."""
        group = self.module.group
        _guard_action(self.ring.size, group.cardinality, max_enum)
        stack = _matrix_stack(self.homs_by_index, group, group)
        return make_module(self.ring, group, matrix_images(stack, group, group), max_enum)


def end_ring(m: RModule, max_enum: int | None = None) -> EndomorphismRing:
    """Package the action-commuting endomorphisms as a validated unital ring:
    `decompose_abelian` runs over E_R(M)'s family positions with its factored
    sum table, and the ring's table is its composition table relabelled."""
    e = build_linear_endo_truss(m, max_enum)
    ft, family = e.factored_tables(max_enum), range(len(e.homs))
    zero, one = e.decode([e.zero, e.unit])[0].tolist()
    add = ft.add.tolist()
    pres = decompose_abelian(family, lambda a, b: add[a][b], zero)
    index = np.array([pres.group.index(pres.to_coords[a]) for a in family])  # ring element of each position
    positions = np.argsort(index)  # family position of each ring element
    ring = FiniteRing(pres.group, index[ft.compose[np.ix_(positions, positions)]], pres.to_coords[one])
    validate_ring(ring, max_enum).raise_on_failure("endomorphism ring failed validation")
    return EndomorphismRing(m, ring, _group_homs(e.homs[positions], m.group, m.group))


def build_linear_endo_truss(m: RModule, max_enum: int | None = None) -> EndoTruss:
    """The sub-truss E_R(M) of E(M) on the action-commuting heap
    endomorphisms, built once per module. The caps on Hom(M, M) and then on
    the carrier are checked before the cached truss is handed out."""
    limit = resolve_max_enum(max_enum)
    guard(hom_count(m.group, m.group), limit, "Hom({0}, {0})", m.group)
    cached = m.__dict__.get("_end_cache")
    if cached is None:
        cached = m.__dict__["_end_cache"] = EndoTruss(m.group, module_homs(m, m, max_enum))
    guard(cached.size, limit, "linear endomorphism truss carrier")
    return cached


@dataclass(frozen=True, eq=False)
class ModuleEquivalence:
    """Witness that two modules are equivalent over their endomorphism rings:
    an additive isomorphism mu with rho(u) = mu o u o mu^{-1} carrying one
    endomorphism ring bijectively onto the other."""

    source: RModule
    target: RModule
    mu: GroupHom
    rho_pairs: tuple[tuple[GroupHom, GroupHom], ...]

    @cached_property
    def _rho(self) -> dict:
        return {u.matrix: v for u, v in self.rho_pairs}

    def rho_of(self, u: GroupHom) -> GroupHom:
        return self._rho[u.matrix]


def _matrix_stack(homs, g: AbGroup, h: AbGroup) -> np.ndarray | None:
    """The (k, rank h, rank g) stack of GroupHoms g -> h, or None when one
    of them runs between other groups."""
    if any(f.source != g or f.target != h for f in homs):
        return None
    return np.array([f.matrix for f in homs], dtype=np.int64).reshape(len(homs), h.rank, g.rank)


def equivalence_is_valid(eq: ModuleEquivalence, max_enum: int | None = None) -> bool:
    """Recheck the defining identities of a claimed equivalence on family
    positions: the pairs' u cover End(M) (`hom_positions` in E_R(M)), each
    v is rho(u) = mu u mu^{-1} (`conjugate_homs` into E_R(N)), rho covers
    End(N), and End(M) is closed under sums."""
    if not eq.mu.is_bijective:
        return False
    g, h = eq.source.group, eq.target.group
    source, target = build_linear_endo_truss(eq.source, max_enum), build_linear_endo_truss(eq.target, max_enum)
    mu = _matrix_stack([eq.mu], g, h)
    U = _matrix_stack([u for u, _ in eq.rho_pairs], g, g)
    V = _matrix_stack([v for _, v in eq.rho_pairs], h, h)
    if mu is None or U is None or V is None:
        return False
    try:  # raises for a u outside End(M), a conjugate outside End(N) or a sum outside End(M)
        pu = source.hom_positions(matrix_images(U, g, g)[:, g.generators])
        rho = conjugate_homs(source._apply, target, matrix_images(mu, g, h))[0]
        source.factored_tables(max_enum)
    except ValueError:
        return False
    # rho, a conjugation by a bijection, is injective: it covers End(N) iff |End(M)| = |End(N)|
    return len(np.unique(pu)) == len(source.homs) == len(target.homs) and np.array_equal(V, target.homs[rho[pu]])


def find_module_equivalence(
    m: RModule, n: RModule, max_enum: int | None = None
) -> ModuleEquivalence | None:
    """Search additive isomorphisms mu for one conjugating End(M) onto End(N).

    Candidates run in the deterministic homomorphism order, a block of
    Hom(M, N) at a time; the first hit is returned. A bijective mu is a hit
    when `conjugate_homs` places mu u mu^{-1}, for every u in End(M), in
    E_R(N). Returns None when no additive bijection works (in particular
    when the groups are not isomorphic)."""
    if not groups_isomorphic(m.group, n.group):
        return None
    g, h = m.group, n.group
    source, target = build_linear_endo_truss(m, max_enum), build_linear_endo_truss(n, max_enum)
    if len(source.homs) != len(target.homs):
        return None
    homs = hom_enumerate(g, h, max_enum)
    step = max(1, _HOM_CHUNK // (g.cardinality * max(1, h.rank)))
    for start in range(0, len(homs), step):
        mus = matrix_images(homs[start : start + step], g, h)
        for pos in np.flatnonzero(_bijective_rows(mus, h.cardinality)):
            try:
                found = conjugate_homs(source._apply, target, mus[pos, None])[0]
            except ValueError:
                continue
            # conjugation is injective, so the positions cover End(N)
            pairs = tuple(zip(_group_homs(source.homs, g, g), _group_homs(target.homs[found], h, h)))
            return ModuleEquivalence(m, n, GroupHom(g, h, homs[start + pos].tolist()), pairs)
    return None


def truss_iso_from_equivalence(eq: ModuleEquivalence, max_enum: int | None = None) -> TrussMorphism:
    """The truss isomorphism (u, a) -> (rho(u), mu(a)) induced by an
    equivalence: conjugation by the heap isomorphism (mu, 0), as rho(u) =
    mu u mu^{-1}.

    The result is validated to be a bijective morphism; a failure raises
    InvalidEquivalence (the input pair did not satisfy its contract)."""
    if not equivalence_is_valid(eq, max_enum):
        raise InvalidEquivalence("equivalence fails its defining identities")
    source, target = build_linear_endo_truss(eq.source, max_enum), build_linear_endo_truss(eq.target, max_enum)
    phi = truss_iso_from_heap_iso(HeapMorphism(eq.mu, eq.target.group.zero), source, target, max_enum)
    if not phi.is_bijective or not truss_morphism_preserves(phi, max_enum):
        raise InvalidEquivalence("induced map is not a truss isomorphism")
    return phi


def equivalence_from_truss_iso(
    phi: TrussMorphism,
    source_module: RModule,
    target_module: RModule,
    max_enum: int | None = None,
) -> ModuleEquivalence:
    """Extract (mu, rho) from a truss isomorphism between linear endo trusses.

    mu is the linear part of the heap isomorphism `heap_iso_from_truss_iso`
    extracts; rho(u) is the linear part of Phi(u, 0). The pair is checked
    with `equivalence_is_valid`."""
    source, target = _endo_ends(phi)
    if source.group != source_module.group or target.group != target_module.group:
        raise ValueError("truss morphism does not match the given modules")
    mu = heap_iso_from_truss_iso(phi, max_enum).linear
    # the image of (u, 0) has hom rho(u)
    images = phi.mapping[source.encode(np.arange(len(source.homs)), 0)]
    rho = _group_homs(target.homs[target.decode(images)[0]], target.group, target.group)
    pairs = tuple(zip(_group_homs(source.homs, source.group, source.group), rho))
    eq = ModuleEquivalence(source_module, target_module, mu, pairs)
    if not equivalence_is_valid(eq, max_enum):
        raise NotAnIsomorphism("extracted pair is not a module equivalence")
    return eq


def example_non_iso(p: int = 2, max_enum: int | None = None) -> tuple[RModule, RModule]:
    """The coordinate ideals (F_p x 0, 0 x F_p) over F_p x F_p, each
    validated: equivalent over their endomorphism rings, so their linear
    trusses are isomorphic, yet the only module map between them is 0."""
    field = make_field_fp(p, max_enum)
    ring = make_product_ring(field, field, max_enum)
    return coordinate_module(ring, 0, max_enum), coordinate_module(ring, 1, max_enum)
