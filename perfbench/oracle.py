"""Ground truth the benchmark computes on its own, without trusskit.

Groups are given by their cyclic orders. Elements are indexed in
lexicographic coordinate order (last coordinate fastest), which is the index
convention of the trusskit JSON table formats, so the tables built here can be
written out as `.json` inputs and the counterexamples the CLI reports can be
re-evaluated on them.

Run `python3 perfbench/oracle.py` to re-derive every recorded expected answer
in `perfbench/workloads.py` from these definitions and, where feasible,
cross-check them with the brute-force oracles in `tests/conftest.py` (which
take trusskit groups, so only that cross-check imports the package). It
prints each check and exits non-zero on a mismatch.
"""

from __future__ import annotations

import itertools
import math
import sys

import numpy as np


# ---------------------------------------------------------------- groups


def prime_factors(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def parse_orders(spec: str) -> tuple[int, ...]:
    spec = spec.strip()
    return tuple(int(x) for x in spec.split(",")) if spec else ()


def invariant_factors(orders: tuple[int, ...]) -> tuple[int, ...]:
    """Divisor chain d_1 | ... | d_l (all d_i >= 2) of the group with these
    cyclic orders, from the prime-power decomposition."""
    powers: dict[int, list[int]] = {}
    for n in orders:
        for p, e in prime_factors(n).items():
            powers.setdefault(p, []).append(p**e)
    for v in powers.values():
        v.sort(reverse=True)
    depth = max((len(v) for v in powers.values()), default=0)
    chain = [
        math.prod(v[k] for v in powers.values() if k < len(v)) for k in range(depth)
    ]
    return tuple(reversed(chain))


def isomorphic(left: str, right: str) -> bool:
    return invariant_factors(parse_orders(left)) == invariant_factors(parse_orders(right))


def elements(orders) -> np.ndarray:
    """(n, rank) coordinates in index order."""
    if not orders:
        return np.zeros((1, 0), dtype=np.int64)
    return np.array(list(itertools.product(*(range(n) for n in orders))), dtype=np.int64)


def index_of(coords: np.ndarray, orders) -> np.ndarray:
    """Index of each coordinate row (last axis) in lexicographic order."""
    idx = np.zeros(coords.shape[:-1], dtype=np.int64)
    for k, n in enumerate(orders):
        idx = idx * n + coords[..., k] % n
    return idx


def add_table(orders) -> np.ndarray:
    e = elements(orders)
    return index_of(e[:, None, :] + e[None, :, :], orders)


def heap_table(orders) -> np.ndarray:
    """[a,b,c] = a - b + c as an (n, n, n) index table."""
    e = elements(orders)
    return index_of(e[:, None, None, :] - e[None, :, None, :] + e[None, None, :, :], orders)


def aut_count(orders) -> int:
    """|Aut G| by trying every image of the standard generators: the images
    define a homomorphism when each has order dividing its generator's order,
    and it is an automorphism when the images span the whole group."""
    orders = tuple(orders)
    elems = [tuple(int(x) for x in row) for row in elements(orders)]
    n_elems = len(elems)

    def mod(v):
        return tuple(x % n for x, n in zip(v, orders))

    options = [
        [y for y in elems if all((n * c) % m == 0 for c, m in zip(y, orders))] for n in orders
    ]
    count = 0
    for images in itertools.product(*options):
        span = {
            mod(tuple(sum(k * y[j] for k, y in zip(ks, images)) for j in range(len(orders))))
            for ks in itertools.product(*(range(n) for n in orders))
        }
        count += len(span) == n_elems
    return count


# ---------------------------------------------------------------- rings, trusses, modules


def zn_ring(n: int) -> tuple[np.ndarray, int]:
    """(mult table, index of one) of Z/n."""
    e = np.arange(n)
    return (e[:, None] * e[None, :]) % n, 1 % n


def product_ring(p: int) -> tuple[np.ndarray, int]:
    """(mult table, index of one) of F_p x F_p on cyclic orders (p, p)."""
    e = elements((p, p))
    return index_of(e[:, None, :] * e[None, :, :], (p, p)), index_of(np.array([1, 1]), (p, p))


def cyclic_endo_truss(n: int) -> tuple[np.ndarray, np.ndarray, int]:
    """(ternary, mult, unit) of E(Z/n): carrier index k*n + e is the map
    x -> k x + e; composition (k1,e1)(k2,e2) = (k1 k2, k1 e2 + e1) and the
    ternary operation act pointwise."""
    kk, ee = np.divmod(np.arange(n * n), n)
    mult = ((kk[:, None] * kk[None, :]) % n) * n + (kk[:, None] * ee[None, :] + ee[:, None]) % n
    tern = heap_table((n, n))
    return tern, mult, n  # the identity, x -> 1 x + 0


# ---------------------------------------------------------------- laws
# Each law takes the tables and one reported counterexample tuple and says
# whether the law really fails there. The tuple layout is the CLI's: the
# scan indices of the first mismatch.


def _heap_law(T, law, ce):
    if law == "malcev" and len(ce) == 2:
        a, b = ce
        return T[a, a, b] != b or T[b, a, a] != b
    if law == "associativity" and len(ce) == 5:
        a, b, c, d, e = ce
        return T[T[a, b, c], d, e] != T[a, b, T[c, d, e]]
    if law == "abelian" and len(ce) == 3:
        a, b, c = ce
        return T[a, b, c] != T[c, b, a]
    return False


def heap_violated(tables, law, ce) -> bool:
    return bool(_heap_law(tables["ternary"], law, ce))


def truss_violated(tables, law, ce) -> bool:
    T, M, unit = tables["ternary"], tables["mult"], tables["unit"]
    if law.startswith("heap-"):
        return bool(_heap_law(T, law[len("heap-"):], ce))
    if law == "mult-associativity" and len(ce) == 3:
        a, b, c = ce
        return bool(M[M[a, b], c] != M[a, M[b, c]])
    if law == "left-distributivity" and len(ce) == 4:
        d, a, b, c = ce
        return bool(M[d, T[a, b, c]] != T[M[d, a], M[d, b], M[d, c]])
    if law == "right-distributivity" and len(ce) == 4:
        d, a, b, c = ce
        return bool(M[T[a, b, c], d] != T[M[a, d], M[b, d], M[c, d]])
    if law == "unit" and len(ce) == 1 and unit is not None:
        (i,) = ce
        return bool(M[unit, i] != i or M[i, unit] != i)
    return False


def module_violated(tables, law, ce) -> bool:
    act, add_m, add_r, mul_r, one = (
        tables["action"], tables["add_m"], tables["add_r"], tables["mul_r"], tables["one"]
    )
    if law == "unital" and len(ce) == 1:
        (m,) = ce
        return bool(act[one, m] != m)
    if law == "action-associativity" and len(ce) == 3:
        r, s, m = ce
        return bool(act[mul_r[r, s], m] != act[r, act[s, m]])
    if law == "additive-in-module" and len(ce) == 3:
        r, a, b = ce
        return bool(act[r, add_m[a, b]] != add_m[act[r, a], act[r, b]])
    if law == "additive-in-ring" and len(ce) == 3:
        r, s, m = ce
        return bool(act[add_r[r, s], m] != add_m[act[r, m], act[s, m]])
    return False


def some_law_fails(kind: str, tables, cell) -> bool:
    """Whether the table violates some law, found by scanning every law except
    heap associativity in full and associativity through the changed cell
    `cell` (a ternary-table position). Used to accept a corruption only when
    it provably breaks the structure."""
    if kind == "module":
        act, add_m, add_r, mul_r, one = (
            tables["action"], tables["add_m"], tables["add_r"], tables["mul_r"], tables["one"]
        )
        r = np.arange(act.shape[0])
        return bool(
            (act[one] != np.arange(act.shape[1])).any()
            or (act[mul_r] != act[r[:, None, None], act[None, :, :]]).any()
            or (act[r[:, None, None], add_m[None, :, :]] != add_m[act[:, :, None], act[:, None, :]]).any()
            or (act[add_r] != add_m[act[:, None, :], act[None, :, :]]).any()
        )
    T = tables["ternary"]
    n = T.shape[0]
    i = np.arange(n)
    if (T[i[:, None], i[:, None], i[None, :]] != i[None, :]).any():
        return True
    if (T[i[None, :], i[:, None], i[:, None]] != i[None, :]).any():
        return True
    if (T != T.transpose(2, 1, 0)).any():
        return True
    if cell is not None:
        a, b, c = cell
        inner_left = T[T[a, b, c]] != T[a, b][T[c]]  # [[a,b,c],d,e] vs [a,b,[c,d,e]]
        outer = T[T[:, :, a], b, c] != T[:, :, T[a, b, c]]  # [[x,y,a],b,c] vs [x,y,[a,b,c]]
        if inner_left.any() or outer.any():
            return True
    if kind == "heap":
        return False
    M, unit = tables["mult"], tables["unit"]
    if (M[M] != M[i[:, None, None], M[None, :, :]]).any():
        return True
    for d in range(n):
        for Md in (M[d], M[:, d]):
            if (Md[T] != T[Md[:, None, None], Md[None, :, None], Md[None, None, :]]).any():
                return True
    return unit is not None and bool((M[unit] != i).any() or (M[:, unit] != i).any())


# ---------------------------------------------------------------- truss morphisms


def count_truss_morphisms(src, dst) -> int:
    """Number of maps src -> dst preserving ternary and mult, by depth-first
    search over value tables with every constraint checked as soon as all
    its entries are assigned. `src` and `dst` are (ternary, mult) tables."""
    sT, sM = (np.asarray(x).tolist() for x in src)
    tT, tM = (np.asarray(x).tolist() for x in dst)
    n, m = len(sM), len(tM)
    # a constraint is checked at the largest source index it mentions
    mult_at = [[] for _ in range(n)]
    tern_at = [[] for _ in range(n)]
    for a in range(n):
        for b in range(n):
            r = sM[a][b]
            mult_at[max(a, b, r)].append((a, b, r))
            for c in range(n):
                r = sT[a][b][c]
                tern_at[max(a, b, c, r)].append((a, b, c, r))
    f = [0] * n

    def extend(i: int) -> int:
        if i == n:
            return 1
        total = 0
        for v in range(m):
            f[i] = v
            if all(f[r] == tM[f[a]][f[b]] for a, b, r in mult_at[i]) and all(
                f[r] == tT[f[a]][f[b]][f[c]] for a, b, c, r in tern_at[i]
            ):
                total += extend(i + 1)
        return total

    return extend(0)


def cyclic_truss(n: int):
    tern, mult, _ = cyclic_endo_truss(n)
    return tern, mult


# ---------------------------------------------------------------- modules


def additive_maps(src_orders, dst_orders) -> list[tuple[int, ...]]:
    """Every additive map as a value tuple (element index -> element index),
    from the images of the standard generators: any images whose orders
    divide their generator's order."""
    src, dst = elements(src_orders), elements(dst_orders)
    options = [
        [y for y in dst if all((n * c) % m == 0 for c, m in zip(y, dst_orders))] for n in src_orders
    ]
    out = []
    for images in itertools.product(*options):
        img = np.array(images, dtype=np.int64).reshape(len(src_orders), len(dst_orders))
        out.append(tuple(int(v) for v in index_of(src @ img, dst_orders)))
    return out


def module_equivalent(left, right) -> bool:
    """Whether some additive bijection mu carries End(M) onto End(N) by
    conjugation. Each module is (group orders, action table)."""
    (gl, act_l), (gr, act_r) = left, right
    if invariant_factors(gl) != invariant_factors(gr):
        return False

    def ends(orders, act):
        return {
            f for f in additive_maps(orders, orders)
            if all(f[act[r][m]] == act[r][f[m]] for r in range(len(act)) for m in range(len(f)))
        }

    end_l, end_r = ends(gl, act_l), ends(gr, act_r)
    n = len(act_l[0])
    for mu in additive_maps(gl, gr):
        if len(set(mu)) != n:
            continue
        inv = [0] * n
        for x, y in enumerate(mu):
            inv[y] = x
        if {tuple(mu[u[inv[y]]] for y in range(n)) for u in end_l} == end_r:
            return True
    return False


# ---------------------------------------------------------------- re-deriving the recorded answers


def _conftest_checks(root) -> list[tuple[str, bool]]:
    """Cross-checks against the brute-force oracles in tests/conftest.py
    (they filter raw value tables), on the groups small enough for them."""
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(root / "tests"))
    import conftest
    from trusskit import make_group

    out = []
    for orders in [(2,), (3,), (4,), (2, 2), (5,), (6,), (2, 3)]:
        g = make_group(orders)
        autos = sum(
            1
            for v in conftest.all_value_tables(g, g)
            if len(set(v)) == g.cardinality and conftest.table_is_additive(g, g, v)
        )
        out.append((f"conftest |Aut {orders}| = {autos}", autos == aut_count(orders)))
    for left, right in [("4", "2,2"), ("6", "2,3"), ("2,4", "8")]:
        got = conftest.brute_force_group_iso_exists(
            make_group(parse_orders(left)), make_group(parse_orders(right))
        )
        out.append((f"conftest iso({left}, {right}) = {got}", got == isomorphic(left, right)))
    return out


def verify_recorded(root, quick: bool = False) -> list[tuple[str, bool]]:
    """Check every recorded expected answer; `quick` skips the slow ones."""
    sys.path.insert(0, str(root / "perfbench"))
    import workloads

    out = []
    for (left, right), count in workloads.HEAP_ISO_COUNTS.items():
        want = len(list(itertools.product(*(range(n) for n in parse_orders(right))))) * (
            aut_count(parse_orders(left)) if isomorphic(left, right) else 0
        )
        out.append((f"heap isos {left} -> {right} = {count}", want == count))
    for (left, right), count in workloads.TRUSS_MORPHISM_COUNTS.items():
        if quick and int(right or 1) ** 2 > 16:
            continue
        want = count_truss_morphisms(cyclic_truss(int(left or 1)), cyclic_truss(int(right or 1)))
        out.append((f"truss morphisms E({left}) -> E({right}) = {count}", want == count))
    for (left, right), equivalent in workloads.MODULE_EQUIVALENT.items():
        modules = []
        for spec in (left, right):
            tables, doc = workloads.module_tables(spec)
            modules.append((tuple(doc["module"]["orders"]), tables["action"].tolist()))
        want = module_equivalent(*modules)
        out.append((f"{left} ~ {right} over End = {equivalent}", want == equivalent))
    if not quick:
        out.extend(_conftest_checks(root))
    return out


if __name__ == "__main__":
    from pathlib import Path

    results = verify_recorded(Path(__file__).resolve().parent.parent)
    for label, ok in results:
        print(("ok   " if ok else "FAIL ") + label)
    sys.exit(0 if all(ok for _, ok in results) else 1)
