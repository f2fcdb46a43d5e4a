"""Finite modules over finite rings, their linear heap morphisms, and the
module-level truss correspondence.

A module is a ring, an abelian group, and a validated action table. Each
element e of a module induces a deformed structure: addition a +_e b =
a - e + b and action r ._e m = r.m - r.e + e, and `validate_induced_action`
runs the laws of `validate_module` on those deformed tables. The heap
morphisms whose linear part commutes with the action (`linear_heap_morphisms`)
are exactly the maps respecting every one of those deformed module structures
at once. They form a sub-truss E_R(M) of the endomorphism truss of the
underlying group (`build_linear_endo_truss`); `module_homs` finds their linear
parts by filtering Hom(M, N) on the action tables.

Two modules over possibly different rings are equivalent over their
endomorphism rings when some additive isomorphism mu conjugates one
endomorphism ring onto the other; `find_module_equivalence` searches for such
a mu. The truss isomorphisms between the E_R are then the group-level
conjugations by the heap isomorphism (mu, 0): `truss_iso_from_equivalence`
builds one with `truss_iso_from_heap_iso`, and `equivalence_from_truss_iso`
reads mu back with `heap_iso_from_truss_iso` and rho(u) off the image of
(u, 0). `example_non_iso` builds the classic witness that the truss
isomorphism class is coarser than the module isomorphism class: over
F_p x F_p the ideals F_p x 0 and 0 x F_p have isomorphic linear endomorphism
trusses yet admit no module isomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .baer_kaplansky import heap_iso_from_truss_iso, truss_iso_from_heap_iso
from .endo import EndoTruss, HeapMorphism
from .errors import (
    InvalidEquivalence,
    NotAnIsomorphism,
    guard,
    int_table,
    json_ints,
    resolve_max_enum,
)
from .groups import (
    AbGroup,
    Element,
    GroupHom,
    compose_homs,
    decompose_abelian,
    groups_isomorphic,
    hom_add,
    hom_count,
    hom_enumerate,
    identity_hom,
    invert_hom,
    make_group,
    np_add_table,
    np_hom_images,
    zero_hom,
)
from .rings import FiniteRing, make_field_fp, make_product_ring, validate_ring
from .trusses import TrussMorphism, truss_morphism_preserves
from .validation import Check, ValidationReport, law_check, report_once


@dataclass(frozen=True)
class RModule:
    """Left module: action table rows indexed by ring elements, columns by
    module elements, entries element indices of the module group."""

    ring: FiniteRing
    group: AbGroup
    action_table: tuple[int, ...]

    def __post_init__(self) -> None:
        rn, mn = self.ring.size, self.group.cardinality
        table, array = int_table(
            self.action_table, rn * mn, mn,
            "action table needs {need} entries", "action table entry out of module range",
        )
        object.__setattr__(self, "action_table", table)
        object.__setattr__(self, "_action_array", array.reshape(rn, mn))

    def act_index(self, i: int, j: int) -> int:
        return self.action_table[i * self.group.cardinality + j]

    def act(self, r: Element, m: Element) -> Element:
        i = self.ring.additive.index(r)
        j = self.group.index(m)
        return self.group.element_at(self.act_index(i, j))

    def to_json_dict(self) -> dict:
        return {
            "ring": self.ring.to_json_dict(),
            "module": {
                "orders": list(self.group.orders),
                "action": list(self.action_table),
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
        group = make_group(json_ints(mod["orders"], "module 'orders'"))
        return cls(ring, group, json_ints(mod["action"], "module 'action'"))


def make_module(
    ring: FiniteRing,
    group: AbGroup,
    action,
    max_enum: int | None = None,
) -> RModule:
    """Materialize a module from an action callable (ring elt, module elt) -> elt."""
    rn, mn = ring.size, group.cardinality
    guard(rn * mn, resolve_max_enum(max_enum), "module action table")
    table = tuple(
        group.index(group.element(action(r, m)))
        for r in ring.elements()
        for m in group.elements()
    )
    module = RModule(ring, group, table)
    report_once(module, validate_module, max_enum).raise_on_failure("action does not satisfy the module axioms")
    return module


def module_zn(n: int, max_enum: int | None = None) -> RModule:
    """Z/n as a module over the ring Z/n."""
    from .rings import make_ring_zn

    ring = make_ring_zn(n, max_enum)
    return regular_module(ring, max_enum)


def regular_module(ring: FiniteRing, max_enum: int | None = None) -> RModule:
    """The ring acting on its own additive group by left multiplication."""
    return make_module(ring, ring.additive, ring.mul, max_enum)


def coordinate_module(ring: FiniteRing, coord: int, max_enum: int | None = None) -> RModule:
    """For a product ring, the ideal supported on one coordinate, presented
    abstractly on that factor's cyclic group."""
    orders = ring.additive.orders
    if not 0 <= coord < len(orders):
        raise ValueError("coordinate out of range")
    group = make_group([orders[coord]])

    def action(r: Element, m: Element) -> Element:
        return ((r[coord] * m[0]) % orders[coord],)

    return make_module(ring, group, action, max_enum)


def _action_checks(m: RModule, act: np.ndarray, add: np.ndarray, max_enum: int | None) -> tuple[Check, ...]:
    """Unitality, associativity and bi-additivity of an action table `act`
    of m's ring over the group addition table `add`."""
    rn, mn = act.shape
    add_r = np_add_table(m.ring.additive, max_enum)
    mul_r = m.ring._mult_array
    idx_r = np.arange(rn)
    one = m.ring.additive.index(m.ring.one)
    return (
        law_check("unital", act[one] != np.arange(mn)),
        law_check("action-associativity", act[mul_r] != act[idx_r[:, None, None], act[None, :, :]]),
        law_check(
            "additive-in-module",
            act[idx_r[:, None, None], add[None, :, :]] != add[act[:, :, None], act[:, None, :]],
        ),
        law_check("additive-in-ring", act[add_r] != add[act[:, None, :], act[None, :, :]]),
    )


def validate_module(m: RModule, max_enum: int | None = None) -> ValidationReport:
    """Exhaustive unitality, associativity and bi-additivity of the action."""
    rn, mn = m._action_array.shape
    checks = _action_checks(m, m._action_array, np_add_table(m.group, max_enum), max_enum)
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
    act = m._action_array
    add_e = add[add[:, neg[i]]]
    act_e = add[add[act, neg[act[:, i]][:, None]], i]
    return ValidationReport(f"induced action at {e}", _action_checks(m, act_e, add_e, max_enum))


# entries of the largest array `module_homs` builds for one chunk of homs
_HOM_CHUNK = 1 << 20


def module_homs(m: RModule, n: RModule, max_enum: int | None = None) -> tuple[GroupHom, ...]:
    """All additive maps commuting with the ring action (same ring required):
    the homs whose image table F has F[act_M[r, x]] = act_N[r, F[x]],
    filtered a chunk of homs at a time."""
    if m.ring != n.ring:
        raise ValueError("modules must share the acting ring")
    homs = hom_enumerate(m.group, n.group, max_enum)
    act_m, act_n = m._action_array, n._action_array
    rn, mn = act_m.shape
    step = max(1, _HOM_CHUNK // (mn * max(rn, m.group.rank * n.group.rank)))
    kept = []
    for start in range(0, len(homs), step):
        chunk = homs[start : start + step]
        F = np_hom_images(chunk, m.group, n.group)
        ok = (F[:, act_m] == act_n[:, F].swapaxes(0, 1)).all(axis=(1, 2))
        kept.extend(chunk[i] for i in np.flatnonzero(ok))
    return tuple(kept)


def _end_homs(m: RModule, max_enum: int | None) -> tuple[GroupHom, ...]:
    """`module_homs(m, m)`, computed once per module; the cap on Hom(M, M)
    is checked before the cached tuple is handed out."""
    guard(hom_count(m.group, m.group), resolve_max_enum(max_enum), f"Hom({m.group}, {m.group})")
    cached = m.__dict__.get("_end_cache")
    if cached is None:
        cached = m.__dict__["_end_cache"] = module_homs(m, m, max_enum)
    return cached


@dataclass(frozen=True, eq=False)
class EndomorphismRing:
    """End(M) over the acting ring, presented as a FiniteRing.

    `homs_by_index[i]` is the endomorphism sitting at additive element index i;
    composition is the ring multiplication (inner map applied first is the
    right factor: u*v acts as x -> u(v(x)))."""

    module: RModule
    ring: FiniteRing
    homs_by_index: tuple[GroupHom, ...]

    @cached_property
    def _hom_to_index(self) -> dict:
        return {f.matrix: i for i, f in enumerate(self.homs_by_index)}

    def index_of(self, f: GroupHom) -> int:
        return self._hom_to_index[f.matrix]

    def as_module(self, max_enum: int | None = None) -> RModule:
        """The original module viewed over this endomorphism ring (evaluation)."""
        additive = self.ring.additive

        def action(u: Element, x: Element) -> Element:
            return self.homs_by_index[additive.index(u)](x)

        return make_module(self.ring, self.module.group, action, max_enum)


def end_ring(m: RModule, max_enum: int | None = None) -> EndomorphismRing:
    """Package the action-commuting endomorphisms as a validated unital ring."""
    homs = _end_homs(m, max_enum)
    pres = decompose_abelian(list(homs), hom_add, zero_hom(m.group, m.group))
    additive = pres.group
    size = additive.cardinality
    by_index = tuple(pres.from_coords[additive.element_at(i)] for i in range(size))
    lookup = {f.matrix: i for i, f in enumerate(by_index)}
    table = []
    for u in by_index:
        for v in by_index:
            table.append(lookup[compose_homs(u, v).matrix])
    one = pres.to_coords[identity_hom(m.group)]
    ring = FiniteRing(additive, tuple(table), one)
    validate_ring(ring, max_enum).raise_on_failure("endomorphism ring failed validation")
    return EndomorphismRing(m, ring, by_index)


def linear_heap_morphisms(m: RModule, n: RModule, max_enum: int | None = None) -> tuple[HeapMorphism, ...]:
    """Heap morphisms whose linear part commutes with the action: all pairs
    (action-commuting hom, translation), hom-major order."""
    homs = module_homs(m, n, max_enum)
    guard(
        len(homs) * n.group.cardinality,
        resolve_max_enum(max_enum),
        "linear heap morphisms",
    )
    return tuple(
        HeapMorphism(f, t) for f in homs for t in n.group.elements()
    )


def is_linear_heap_morphism(m: RModule, n: RModule, phi: HeapMorphism) -> bool:
    """Membership test via the closed form phi(r.x) = r.phi(x) - r.phi(0) + phi(0)."""
    g = n.group
    phi0 = phi(m.group.zero)
    for r in m.ring.elements():
        for x in m.group.elements():
            lhs = phi(m.act(r, x))
            rhs = g.ternary(n.act(r, phi(x)), n.act(r, phi0), phi0)
            if lhs != rhs:
                return False
    return True


def build_linear_endo_truss(m: RModule, max_enum: int | None = None) -> EndoTruss:
    """The sub-truss of E(M) on the action-commuting heap endomorphisms."""
    homs = _end_homs(m, max_enum)
    guard(
        len(homs) * m.group.cardinality,
        resolve_max_enum(max_enum),
        "linear endomorphism truss carrier",
    )
    return EndoTruss(m.group, homs)


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


def equivalence_is_valid(eq: ModuleEquivalence, max_enum: int | None = None) -> bool:
    """Recheck every defining identity of a claimed equivalence."""
    if not eq.mu.is_bijective:
        return False
    end_m = _end_homs(eq.source, max_enum)
    end_n = _end_homs(eq.target, max_enum)
    if {u.matrix for u, _ in eq.rho_pairs} != {u.matrix for u in end_m}:
        return False
    if {v.matrix for _, v in eq.rho_pairs} != {v.matrix for v in end_n}:
        return False
    mu_inv = invert_hom(eq.mu)
    for u, v in eq.rho_pairs:
        if compose_homs(compose_homs(eq.mu, u), mu_inv).matrix != v.matrix:
            return False
        if compose_homs(v, eq.mu).matrix != compose_homs(eq.mu, u).matrix:
            return False
    # ring-isomorphism laws for rho, checked directly on the stored pairs; if
    # the action is not additive, End(M) need not be closed under sums, and a
    # sum outside rho's domain fails the law
    rho = {u.matrix: v.matrix for u, v in eq.rho_pairs}
    for u1, v1 in eq.rho_pairs:
        for u2, v2 in eq.rho_pairs:
            if rho.get(compose_homs(u1, u2).matrix) != compose_homs(v1, v2).matrix:
                return False
            if rho.get(hom_add(u1, u2).matrix) != hom_add(v1, v2).matrix:
                return False
    return rho.get(identity_hom(eq.source.group).matrix) == identity_hom(eq.target.group).matrix


def find_module_equivalence(
    m: RModule, n: RModule, max_enum: int | None = None
) -> ModuleEquivalence | None:
    """Search additive isomorphisms mu for one conjugating End(M) onto End(N).

    Candidates run in the deterministic homomorphism order; the first hit is
    returned. Returns None when no additive bijection works (in particular
    when the groups are not isomorphic)."""
    if not groups_isomorphic(m.group, n.group):
        return None
    end_m = _end_homs(m, max_enum)
    end_n = _end_homs(n, max_enum)
    if len(end_m) != len(end_n):
        return None
    target_matrices = {v.matrix for v in end_n}
    by_matrix = {v.matrix: v for v in end_n}
    for mu in hom_enumerate(m.group, n.group, max_enum):
        if not mu.is_bijective:
            continue
        mu_inv = invert_hom(mu)
        conj = [compose_homs(compose_homs(mu, u), mu_inv) for u in end_m]
        if {c.matrix for c in conj} != target_matrices:
            continue
        pairs = tuple((u, by_matrix[c.matrix]) for u, c in zip(end_m, conj))
        return ModuleEquivalence(m, n, mu, pairs)
    return None


def truss_iso_from_equivalence(eq: ModuleEquivalence, max_enum: int | None = None) -> TrussMorphism:
    """The truss isomorphism (u, a) -> (rho(u), mu(a)) induced by an
    equivalence: conjugation by the heap isomorphism (mu, 0), as rho(u) =
    mu u mu^{-1}.

    The result is validated to be a bijective morphism; a failure raises
    InvalidEquivalence (the input pair did not satisfy its contract)."""
    if not equivalence_is_valid(eq, max_enum):
        raise InvalidEquivalence("equivalence fails its defining identities")
    phi = truss_iso_from_heap_iso(
        HeapMorphism(eq.mu, eq.target.group.zero),
        build_linear_endo_truss(eq.source, max_enum),
        build_linear_endo_truss(eq.target, max_enum),
        max_enum,
    )
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
    if not isinstance(phi.source, EndoTruss) or not isinstance(phi.target, EndoTruss):
        raise TypeError("morphism must run between endomorphism trusses")
    source, target = phi.source, phi.target
    if source.group != source_module.group or target.group != target_module.group:
        raise ValueError("truss morphism does not match the given modules")
    mu = heap_iso_from_truss_iso(phi, max_enum).linear
    # the image of (u, 0) has hom rho(u)
    images = phi._array[source.encode(np.arange(len(source.homs)), 0)]
    pairs = tuple(zip(source.homs, (target.homs[pos] for pos in target.decode(images)[0])))
    eq = ModuleEquivalence(source_module, target_module, mu, pairs)
    if not equivalence_is_valid(eq, max_enum):
        raise NotAnIsomorphism("extracted pair is not a module equivalence")
    return eq


@dataclass(frozen=True, eq=False)
class NonIsoExample:
    """Certificates for the coordinate-ideal example over F_p x F_p."""

    p: int
    left: RModule
    right: RModule
    equivalence: ModuleEquivalence
    truss_iso: TrussMorphism
    module_hom_count: int
    module_iso_exists: bool
    groups_isomorphic: bool

    @property
    def consistent(self) -> bool:
        return not self.module_iso_exists and self.groups_isomorphic

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "truss_iso_exists": True,
            "truss_iso_mapping": list(self.truss_iso.mapping),
            "equivalence_mu": [list(row) for row in self.equivalence.mu.matrix],
            "module_hom_count": self.module_hom_count,
            "module_iso_exists": self.module_iso_exists,
            "groups_isomorphic": self.groups_isomorphic,
            "consistent": self.consistent,
        }


def example_non_iso(p: int = 2, max_enum: int | None = None) -> NonIsoExample:
    """Build both coordinate ideals over F_p x F_p and certify that their
    linear endomorphism trusses are isomorphic while no module isomorphism
    exists between the modules themselves."""
    field = make_field_fp(p, max_enum)
    ring = make_product_ring(field, field, max_enum)
    left = coordinate_module(ring, 0, max_enum)
    right = coordinate_module(ring, 1, max_enum)
    eq = find_module_equivalence(left, right, max_enum)
    if eq is None:
        raise NotAnIsomorphism("expected an equivalence over the endomorphism rings")
    phi = truss_iso_from_equivalence(eq, max_enum=max_enum)
    homs = module_homs(left, right, max_enum)
    iso_exists = any(f.is_bijective for f in homs)
    return NonIsoExample(
        p=p,
        left=left,
        right=right,
        equivalence=eq,
        truss_iso=phi,
        module_hom_count=len(homs),
        module_iso_exists=iso_exists,
        groups_isomorphic=groups_isomorphic(left.group, right.group),
    )
