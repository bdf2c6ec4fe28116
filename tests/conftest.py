import random
from itertools import permutations, product
from typing import Iterable

import numpy as np
import pytest

from groupcent import (
    ActionSpec,
    alternating,
    center,
    central_quotient,
    centralizer,
    checks,
    cyclic,
    derived_subgroup,
    dihedral,
    direct_product,
    elementary_abelian,
    extraspecial2,
    frobenius_cq_cn,
    from_table,
    gf,
    heisenberg,
    is_abelian,
    is_CA_group,
    is_F_group,
    is_elementary_abelian,
    is_prime,
    isomorphic,
    largest_prime_divisor,
    prime_power,
    profile,
    quaternion8,
    quotient,
    semidirect,
    symmetric,
)
from groupcent import analytics, fields
from groupcent.checks import FAIL, PASS, SKIP, _quotient_order
from groupcent.core import (
    FiniteGroup,
    Subgroup,
    _centralizer_orders,
    _generators,
    _is_closed,
    conjugate_elements,
)
from groupcent.errors import AbelianGroupError, BadParameter, InvariantViolation, PreconditionNotMet


@pytest.fixture(scope="session")
def catalog():
    return checks.default_catalog()


@pytest.fixture(scope="session")
def catalog_groups(catalog):
    """name -> built group, for every default catalog entry."""
    return {entry.name: entry.build() for entry in catalog}


@pytest.fixture(scope="session")
def suite_report():
    """One shared run of the full default suite."""
    return checks.run_suite()


def cyclic_extension(q, n, r):
    """C_q:C_n, the generator of C_n acting on C_q as x -> r x."""
    action = tuple(tuple(x * pow(r, j, q) % q for x in range(q)) for j in range(n))
    return semidirect(ActionSpec(cyclic(q), cyclic(n), action), name=f"C{q}:C{n}(r={r})")


def special_linear2(p):
    """SL(2, p) on its 2 x 2 matrices of determinant 1 mod p."""
    mats = [m for m in product(range(p), repeat=4) if (m[0] * m[3] - m[1] * m[2]) % p == 1]
    index = {m: i for i, m in enumerate(mats)}

    def mul(a, b):
        return (
            (a[0] * b[0] + a[1] * b[2]) % p, (a[0] * b[1] + a[1] * b[3]) % p,
            (a[2] * b[0] + a[3] * b[2]) % p, (a[2] * b[1] + a[3] * b[3]) % p,
        )

    return from_table([[index[mul(a, b)] for b in mats] for a in mats], name=f"SL(2,{p})")


def _with_relabelled(groups, picks):
    """groups plus a relabelled copy of each group at the given positions."""
    copies = [groups[i] for i in picks]
    return groups + [relabel_group(g, random.Random(g.order).sample(range(g.order), g.order)) for g in copies]


@pytest.fixture(scope="session")
def semi_pool():
    """p-groups around the semi-extraspecial boundary. Several are special
    (G' = Z(G), G/Z elementary abelian) without being semi-extraspecial."""
    d8, q8 = dihedral(8), quaternion8()
    h2, h3, h4 = heisenberg(gf(2)), heisenberg(gf(3)), heisenberg(gf(2, 2))
    groups = [dihedral(2**k) for k in range(4, 10)]
    groups += [
        direct_product(a, b)
        for a, b in (
            (d8, cyclic(2)), (q8, cyclic(2)), (d8, cyclic(4)), (d8, d8), (q8, q8),
            (h2, h2), (h3, h3), (h4, cyclic(2)), (h3, cyclic(3)),
            (extraspecial2(2, "plus"), cyclic(2)), (extraspecial2(2, "minus"), cyclic(2)),
        )
    ]
    groups += [
        cyclic_extension(9, 3, 4),
        cyclic_extension(25, 5, 6),
        cyclic_extension(27, 3, 10),
        cyclic_extension(16, 4, 3),
    ]
    return _with_relabelled(groups, (7, 10, 14, 18, 19))


@pytest.fixture(scope="session")
def family_pool():
    """Groups next to the census families: same orders, same element-order
    counts in part, or a center that rules the family out."""
    s3, c3sq = symmetric(3), elementary_abelian(3, 2)
    inversion = (tuple(range(9)), tuple(c3sq.inverses.tolist()))
    groups = [
        dihedral(12),
        cyclic_extension(3, 4, 2),
        direct_product(cyclic(3), s3),
        semidirect(ActionSpec(c3sq, cyclic(2), inversion), name="Dih(C3^2)"),
        direct_product(cyclic(5), s3),
        direct_product(cyclic(3), dihedral(10)),
        frobenius_cq_cn(7, 6, 3),
        cyclic(8),
        direct_product(cyclic(2), cyclic(4)),
    ]
    return _with_relabelled(groups, (1, 3, 4, 8))


@pytest.fixture(scope="session")
def central_series_pool():
    """Nilpotent groups whose order is not a prime power, then groups whose
    upper central series stops at a nontrivial center."""
    s3 = symmetric(3)
    groups = [
        direct_product(dihedral(8), cyclic(3)),
        direct_product(quaternion8(), cyclic(5)),
        direct_product(heisenberg(gf(3)), cyclic(2)),
        dihedral(12),
        direct_product(cyclic(3), s3),
        direct_product(s3, cyclic(4)),
    ]
    return _with_relabelled(groups, (1, 5))


@pytest.fixture(scope="session")
def centerless_pool():
    """Centerless direct products, each with many centralizers, plus a
    relabelled copy of each."""
    s3 = symmetric(3)
    groups = [
        direct_product(s3, s3),
        direct_product(alternating(4), s3),
        direct_product(frobenius_cq_cn(5, 4, 2), s3),
        direct_product(frobenius_cq_cn(13, 4, 5), frobenius_cq_cn(7, 3, 2)),
        direct_product(alternating(5), s3),
    ]
    return _with_relabelled(groups, range(len(groups)))


@pytest.fixture(scope="session")
def oracle_pool(catalog_groups, semi_pool, family_pool, central_series_pool, centerless_pool):
    """The catalog with a relabelled copy of each entry up to order 128, then
    the four pools, which hold relabelled copies of their own."""
    groups = list(catalog_groups.values())
    groups += [
        relabel_group(g, random.Random(g.order).sample(range(g.order), g.order))
        for g in groups if g.order <= 128
    ]
    return groups + semi_pool + family_pool + central_series_pool + centerless_pool


def by_check(suite_report, check_id):
    return [r for r in suite_report.results if r.check_id == check_id]


def loop_prime_power(n):
    """Oracle for core.prime_power: trial division up to the first prime
    divisor p, then n must be a power of p."""
    if n < 2:
        return None
    for p in range(2, n + 1):
        if p * p > n:
            return (n, 1)
        if n % p == 0:
            k, m = 0, n
            while m % p == 0:
                m //= p
                k += 1
            return (p, k) if m == 1 else None
    return None


def loop_largest_prime_divisor(n):
    """Oracle for core.largest_prime_divisor, by trial division."""
    best = 1
    m = n
    for p in range(2, n + 1):
        if p * p > m:
            break
        while m % p == 0:
            best = p
            m //= p
    return m if m > 1 else best


def loop_prime_factors(n):
    """Oracle for core._prime_factors: the distinct primes, largest first,
    by repeated loop_largest_prime_divisor, then each one's multiplicity,
    as ascending (p, k) pairs."""
    primes, m = [], n
    while m > 1:
        r = loop_largest_prime_divisor(m)
        primes.append(r)
        while m % r == 0:
            m //= r
    factors = []
    for r in reversed(primes):
        k, m = 0, n
        while m % r == 0:
            m //= r
            k += 1
        factors.append((r, k))
    return factors


def brute_force_bad_triple(table):
    """Oracle for from_table's associativity test: the O(n^3) scan over every
    triple. Returns the first (i, j, k) with (ij)k != i(jk), scanning k
    outermost, or None when the table is associative."""
    arr = np.asarray(table, dtype=np.int64)
    for k in range(arr.shape[0]):
        lhs = arr[arr, k]
        rhs = arr[:, arr[:, k]]
        if not np.array_equal(lhs, rhs):
            i, j = map(int, np.argwhere(lhs != rhs)[0])
            return (i, j, k)
    return None


def brute_force_inverses(table):
    """Oracle for from_table's inverses: the first two-sided identity e found
    by scanning every row and column, then for each x the first y with
    xy = yx = e. Returns the inverses as a tuple, or None when the table has
    no two-sided identity or some element has no two-sided inverse."""
    arr = np.asarray(table)
    n = arr.shape[0]
    e = next((e for e in range(n) if all(arr[e, x] == x == arr[x, e] for x in range(n))), None)
    if e is None:
        return None
    inverses = [next((y for y in range(n) if arr[x, y] == e == arr[y, x]), None) for x in range(n)]
    return None if None in inverses else tuple(inverses)


def loop_element_orders(table, identity):
    """Oracle for from_table's element orders: raise each element to
    successive powers one step at a time."""
    arr = np.asarray(table)
    orders = []
    for i in range(arr.shape[0]):
        k, x = 1, i
        while x != identity:
            x = int(arr[x, i])
            k += 1
        orders.append(k)
    return tuple(orders)


def relabel_group(g, perm):
    """The same group with element i renamed perm[i], validated afresh."""
    perm = np.asarray(perm, dtype=np.int64)
    table = np.empty((g.order, g.order), dtype=np.int64)
    table[np.ix_(perm, perm)] = perm[g.table]
    return from_table(table, name=f"{g.name}~")


def bfs_greedy_generators(table, identity):
    """Oracle for from_table's generating set: the element-at-a-time closure
    that re-walks every reached element with every generator."""
    n = table.shape[0]
    reached = np.zeros(n, dtype=bool)
    reached[identity] = True
    gens: list[int] = []
    while not reached.all():
        g = int(np.argmin(reached))
        gens.append(g)
        frontier = list(np.nonzero(reached)[0])
        reached[g] = True
        frontier.append(g)
        while frontier:
            x = frontier.pop()
            for h in gens:
                y = int(table[x, h])
                if not reached[y]:
                    reached[y] = True
                    frontier.append(y)
    return gens


def right_closure(G, gens):
    """Elements reached from the identity by right multiplication by gens."""
    seen, stack = {G.identity}, [G.identity]
    while stack:
        x = stack.pop()
        for s in gens:
            y = G.mul(x, s)
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


def loop_tabulate_permutations(perms):
    """Oracle for the permutation tabulation: compose each pair and look the
    result up in a dict."""
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(a[b[i]] for i in range(len(b)))] for b in perms] for a in perms]


def loop_permutation_closure(degree, gens):
    """Oracle for the elements of from_permutations: every product of the
    generators, found by composing one more at a time, sorted."""
    seen = {tuple(range(degree))}
    stack = list(seen)
    while stack:
        a = stack.pop()
        for g in gens:
            b = tuple(a[g[i]] for i in range(degree))
            if b not in seen:
                seen.add(b)
                stack.append(b)
    return sorted(seen)


def enumerated_permutations(n, even_only=False):
    """Oracle for the element lists of symmetric and alternating: every
    permutation of 0..n-1 from itertools, sorted, keeping only those with an
    even number of inversions when even_only is set."""

    def parity(p):
        return sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n)) % 2

    return sorted(p for p in permutations(range(n)) if not (even_only and parity(p)))


def _containment(rows: np.ndarray) -> np.ndarray:
    # |A n B| = |A| iff A <= B; float32 counts are exact below 2^24 elements.
    f = rows.astype(np.float32)
    return f @ f.T == rows.sum(axis=1)[:, None]


def unique_rows_centralizers(G):
    """Oracle for analytics._centralizers: the distinct rows of a boolean K
    computed here from the table, by np.unique(axis=0) over the packed rows,
    unmemoized."""
    if is_abelian(G):
        raise AbelianGroupError(f"{G.name} is abelian; its only centralizer is itself")
    k = G.table == G.table.T
    _, first, inverse = np.unique(
        np.packbits(k, axis=1), axis=0, return_index=True, return_inverse=True
    )
    elems = [np.flatnonzero(k[x]).tolist() for x in first]
    # G is the one row of size |G|, so it sorts last
    canon = sorted(range(first.size), key=lambda i: (len(elems[i]), elems[i]))
    index = np.argsort(canon)[inverse.reshape(-1)]
    reps = first[canon]
    rows = k[reps]
    # x lies in C(x), so whatever commutes with all of C(x) lies in C(x): that is Z(x).
    z_rows = np.array([k[r].all(axis=0) for r in rows])

    n = rows.shape[0]
    if n < 4:
        raise InvariantViolation(f"{G.name} reports n={n}; no group has 2 or 3 centralizers")
    zg = z_rows[-1]
    sizes = rows[:-1].sum(axis=1)
    if not (((zg.sum() < sizes) & (sizes < G.order)).all() and rows[:-1][:, zg].all()):
        raise InvariantViolation("proper centralizer fails the strict sandwich Z(G) < C < G")
    if not z_rows.any(axis=0).all():
        raise InvariantViolation("the Z(x) together with the center do not cover the group")

    abelian = (z_rows == rows).all(axis=1)
    return analytics._Centralizers(index, reps, z_rows, _containment(rows), abelian)


def loop_centralizers(G):
    """Oracle for the commuting matrix: C(x) of every element x, one
    t[:, x] == t[x, :] comparison per element."""
    t = G.table
    return [frozenset(np.flatnonzero(t[:, i] == t[i, :]).tolist()) for i in range(G.order)]


def loop_commute_pairwise(G, elems):
    """Oracle for the abelian test on a subset: scan its sub-table."""
    h = np.asarray(sorted(elems), dtype=np.int64)
    sub = G.table[np.ix_(h, h)]
    return bool((sub == sub.T).all())


def loop_profile(G):
    """Oracle for profile: the distinct proper centralizers in (size,
    elements) order and Z(x) of every x, as frozensets. Z(x) is the center
    of C(x), found by a sub-table scan."""
    cz = loop_centralizers(G)
    proper = sorted({c for c in cz if len(c) < G.order}, key=lambda c: (len(c), sorted(c)))
    z = []
    for c in cz:
        h = np.asarray(sorted(c), dtype=np.int64)
        sub = G.table[np.ix_(h, h)]
        z.append(frozenset(h[(sub == sub.T).all(axis=1)].tolist()))
    return proper, z


def loop_pairs(G, settings, xs):
    """The pairs the checks draw, in Python ints: (x, y) for x in xs and every
    y up to the exhaustive cap, else seeded samples, 32-bit word 2i of one
    getrandbits draw picking x of pair i and word 2i + 1 its y, each word w
    scaled to [0, b) as (w * b) >> 32."""
    n = G.order
    if n <= settings.exhaustive_cap:
        return "exhaustive", list(product(xs, range(n)))
    k = settings.sample_pairs
    bits = random.Random(settings.seed).getrandbits(64 * k)
    words = [(bits >> (32 * i)) & 0xFFFFFFFF for i in range(2 * k)]
    return "sampled", [
        (xs[(words[2 * i] * len(xs)) >> 32], (words[2 * i + 1] * n) >> 32) for i in range(k)
    ]


def loop_pair_checks(G, settings):
    """Oracle for the np1, co1 and zclass1 checks: the frozenset loops over
    the same pairs, stopping at the first failing pair."""
    cz = loop_centralizers(G)
    _, zs = loop_profile(G)
    everything = list(G.elements())
    noncentral = [x for x in everything if len(cz[x]) < G.order]
    tests = {
        "np1": (everything, lambda x, y: (cz[x] <= cz[y]) == (zs[y] <= zs[x]), ("x", "y")),
        "co1": (everything, lambda x, y: (y in zs[x]) == (zs[y] <= zs[x]), ("x", "y")),
        "zclass1": (
            noncentral,
            lambda x, g: frozenset(G.conj(a, g) for a in zs[x]) == zs[G.conj(x, g)],
            ("x", "g"),
        ),
    }
    out = {}
    for cid, (xs, holds, names) in tests.items():
        mode, pairs = loop_pairs(G, settings, xs)
        bad = next((p for p in pairs if not holds(*p)), None)
        if bad is None:
            out[cid] = ("pass", {"mode": mode, "pairs": len(pairs)})
        else:
            out[cid] = ("fail", dict(zip(names, bad)))
    return out


def formula_pair_checks(G, settings, cz):
    """Oracle for the np1, co1 and zclass1 checks over the centralizer arrays
    cz, real or planted: their array formulas as they read before the numpy
    pair build, on the pairs of loop_pairs, with g b g^-1 gathered once per
    pair, and the Z(y) <= Z(x) side read from a matrix product over the Z
    rows. The verdict names the first failing pair."""
    t, inv, index = G.table, G.inverses, cz.index
    z_contains = _containment(cz.z_rows)

    def np1(x, y):
        return cz.contains[index[x], index[y]] == z_contains[index[y], index[x]]

    def co1(x, y):
        return cz.z_rows[index[x], y] == z_contains[index[y], index[x]]

    def zclass1(x, g):
        pull = t[t[g], inv[g][:, None]]
        conj_x = t[t[inv[g], x], g]
        return (cz.z_rows[index[x][:, None], pull] == cz.z_rows[index[conj_x]]).all(axis=1)

    everything = list(G.elements())
    noncentral = np.flatnonzero(~cz.z_rows[-1]).tolist()
    tests = {
        "np1": (everything, np1, ("x", "y")),
        "co1": (everything, co1, ("x", "y")),
        "zclass1": (noncentral, zclass1, ("x", "g")),
    }
    out = {}
    for cid, (xs, holds, names) in tests.items():
        mode, listed = loop_pairs(G, settings, xs)
        pairs = np.array(listed, dtype=np.int64).reshape(-1, 2)
        bad = np.flatnonzero(~holds(pairs[:, 0], pairs[:, 1]))
        if bad.size:
            out[cid] = ("fail", dict(zip(names, pairs[bad[0]].tolist())))
        else:
            out[cid] = ("pass", {"mode": mode, "pairs": len(pairs)})
    return out


def formula_cyclic_table(n):
    """Oracle for constructions.cyclic: (i + j) mod n in int64."""
    return (np.arange(n)[:, None] + np.arange(n)[None, :]) % n


def formula_elementary_abelian_table(p, k):
    """Oracle for constructions.elementary_abelian: digit-wise addition base
    p, one int64 n x n term per digit, as the table read before it was built
    one leading digit at a time."""
    n = p**k
    idx = np.arange(n)
    table = np.zeros((n, n), dtype=np.int64)
    for i in range(k):
        di = (idx[:, None] // p**i) % p
        dj = (idx[None, :] // p**i) % p
        table += ((di + dj) % p) * p**i
    return table


def loop_field_tables(field):
    """Oracle for FiniteField.add_table and mul_table: the tables as they
    were once filled, one pair of codes at a time through decode, polynomial
    arithmetic and encode, with no digit array and no exp/log pair."""
    q = field.order
    add = np.zeros((q, q), dtype=np.int32)
    mul = np.zeros((q, q), dtype=np.int32)
    for a in range(q):
        da = field.decode(a)
        for b in range(a, q):
            db = field.decode(b)
            add[a, b] = add[b, a] = field.encode([x + y for x, y in zip(da, db)])
            prod = fields._poly_mod(fields._poly_mul(da, db, field.p), field.modulus, field.p)
            mul[a, b] = mul[b, a] = field.encode(prod)
    return add, mul


def formula_heisenberg_table(field):
    """Oracle for constructions.heisenberg: the table as it read before the
    digit-axis broadcast, by n x n gathers over the element digits in int64."""
    add, mul = field.add_table, field.mul_table
    q = field.order
    idx = np.arange(q**3)
    a1, b1, c1 = (idx // q**2)[:, None], ((idx // q) % q)[:, None], (idx % q)[:, None]
    a2, b2, c2 = (idx // q**2)[None, :], ((idx // q) % q)[None, :], (idx % q)[None, :]
    a3 = add[a1, a2]
    b3 = add[b1, b2]
    c3 = add[add[c1, c2], mul[a1, b2]]
    return (a3.astype(np.int64) * q + b3) * q + c3


def loop_quaternion8_table():
    """Oracle for constructions.quaternion8: the Hamilton product of the
    units 1, -1, i, -i, j, -j, k, -k as 4-tuples, indexed in that order."""
    units = [
        (1, 0, 0, 0), (-1, 0, 0, 0),
        (0, 1, 0, 0), (0, -1, 0, 0),
        (0, 0, 1, 0), (0, 0, -1, 0),
        (0, 0, 0, 1), (0, 0, 0, -1),
    ]
    index = {u: i for i, u in enumerate(units)}

    def hprod(q1, q2):
        a1, b1, c1, d1 = q1
        a2, b2, c2, d2 = q2
        return (
            a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
        )

    return np.array([[index[hprod(u, v)] for v in units] for u in units], dtype=np.int64)


def formula_direct_product_table(A, B):
    """Oracle for core.direct_product: (a1, b1)(a2, b2) = (a1 a2, b1 b2), the
    pair (a, b) indexed as a * |B| + b, in int64."""
    nb = B.order
    idx = np.arange(A.order * nb)
    a, b = idx // nb, idx % nb
    ta, tb = A.table.astype(np.int64), B.table.astype(np.int64)
    return ta[a[:, None], a[None, :]] * nb + tb[b[:, None], b[None, :]]


def formula_semidirect_table(spec):
    """Oracle for constructions.semidirect: (k1, h1)(k2, h2) =
    (k1 * action(h1)(k2), h1 h2), the pair (k, h) indexed as k * |H| + h, in
    int64."""
    nh = spec.complement.order
    idx = np.arange(spec.kernel.order * nh)
    k, h = idx // nh, idx % nh
    act = np.asarray(spec.action, dtype=np.int64)
    tk, th = spec.kernel.table.astype(np.int64), spec.complement.table.astype(np.int64)
    return tk[k[:, None], act[h[:, None], k[None, :]]] * nh + th[h[:, None], h[None, :]]


def assert_centralizers_match_loops(G, settings_list):
    """The commuting-matrix results for G equal the loop oracles: sizes,
    distinct centralizers and their order, Z(x), the F and CA predicates,
    and the np1/co1/zclass1 pairs, verdicts and pair counts under each
    settings."""
    cz = loop_centralizers(G)
    proper, zs = loop_profile(G)
    assert (G.table == G.table.T).sum(axis=1).tolist() == [len(c) for c in cz]
    assert _centralizer_orders(G).tolist() == [len(c) for c in cz]
    assert [centralizer(G, x).element_set for x in G.elements()] == cz
    prof = profile(G)
    assert [c.element_set for c in prof.proper_centralizers] == proper
    assert [prof.z_of[x].element_set for x in G.elements()] == zs
    for x, i in prof.element_to_centralizer.items():
        assert proper[i] == cz[x]
    loop_f = not any(a < b for a in proper for b in proper)
    assert is_F_group(G) == loop_f
    assert is_CA_group(G) == all(loop_commute_pairwise(G, c) for c in proper)
    noncentral = [x for x in G.elements() if len(cz[x]) < G.order]
    for settings in settings_list:
        for xs in (list(G.elements()), noncentral):
            drawn = checks._pairs(G, settings, xs).tolist()
            assert drawn == [list(p) for p in loop_pairs(G, settings, xs)[1]]
        for cid, want in loop_pair_checks(G, settings).items():
            got = checks.run_check(cid, G, settings)
            assert (got.status, dict(got.details)) == want, cid


def quotient_is_extraspecial(G):
    """Oracle for is_extraspecial, as it read before Beisiegel's criterion:
    Z(G) = G' of prime order p, with G/Z of exponent p."""
    pp = prime_power(G.order)
    if pp is None:
        return False
    p = pp[0]
    zg, dg = center(G), derived_subgroup(G)
    if zg.elements != dg.elements or zg.order != p:
        return False
    q = central_quotient(G).quotient
    return all(o in (1, p) for o in q.element_orders)


def quotient_central_partition(G):
    """Oracle for central_partition, as it read over the rebuilt central
    quotient: project each Z(x) through its projection and scan the
    components of G/Z."""
    z_rows = analytics._centralizers(G).z_rows[:-1]
    qr = central_quotient(G)
    q = qr.quotient
    proj = np.asarray(qr.projection, dtype=np.int64)

    seen = {tuple(np.unique(proj[z]).tolist()) for z in z_rows}
    components = tuple(sorted(seen, key=lambda e: (len(e), e)))

    for comp in components:
        if len(comp) < 2 or not _is_closed(q, np.asarray(comp, dtype=np.int64)):
            raise InvariantViolation("a projected component is not a nontrivial subgroup")

    witness = None
    owner: dict[int, int] = {}
    is_partition = True
    for i, comp in enumerate(components):
        for e in comp:
            if e == q.identity:
                continue
            if e in owner:
                is_partition = False
                witness = {"kind": "overlap", "element": e, "components": [owner[e], i]}
                break
            owner[e] = i
        if not is_partition:
            break
    if is_partition and len(owner) != q.order - 1:
        missing = next(e for e in range(q.order) if e != q.identity and e not in owner)
        is_partition = False
        witness = {"kind": "uncovered", "element": missing}

    # the family is normal iff conjugating by each generator keeps it
    comp_sets = {frozenset(c) for c in components}
    moved = next(
        ((g, i) for g in _generators(q) for i, comp in enumerate(components)
         if frozenset(conjugate_elements(q, comp, g).tolist()) not in comp_sets),
        None,
    )
    if moved is not None and witness is None:
        witness = {"kind": "not-normal", "conjugator": moved[0], "component": moved[1]}

    return analytics.PartitionReport(components, is_partition, moved is None, witness)


def quotient_sandwich_chains(G):
    """Oracle for the sandwich chains: |C(xZ)| read from a boolean
    commuting matrix of the rebuilt central quotient."""
    qr = central_quotient(G)
    upper = (G.table == G.table.T).sum(axis=1)
    q = qr.quotient.table
    middle = (q == q.T).sum(axis=1)[np.asarray(qr.projection)]
    return tuple(map(tuple, np.stack([upper // center(G).order, middle, upper], 1).tolist()))


def quotient_has_exponent(G, p):
    """Oracle for the x^p-in-Z test: every element of the rebuilt G/Z has
    order 1 or p."""
    return all(o in (1, p) for o in central_quotient(G).quotient.element_orders)


def quotient_is_elementary(G, p, k):
    """Oracle for checks._quotient_is_elementary: is the rebuilt G/Z
    elementary abelian of order p^k?"""
    q = central_quotient(G).quotient
    return q.order == p**k and is_elementary_abelian(q, p)


def loop_index_p_subgroups(G, H, p):
    """All subgroups of index p inside a small abelian subgroup H of G."""
    subs = {(G.identity,): None}
    grew = True
    while grew:
        grew = False
        for base in list(subs):
            for z in H.elements:
                cand = table_generated_subgroup(G, set(base) | {z}).elements
                if len(cand) <= H.order and cand not in subs:
                    if set(cand) <= H.element_set:
                        subs[cand] = None
                        grew = True
    target = H.order // p
    return [Subgroup(G, e) for e in sorted(subs) if len(e) == target]


def quotient_semi_extraspecial(G):
    """Oracle for is_semi_extraspecial by its definition: build G/N for every
    maximal subgroup N of the center and test that it is extraspecial."""
    pp = prime_power(G.order)
    if pp is None:
        return False
    p = pp[0]
    zg = center(G)
    if zg.order == 1 or zg.order == G.order:
        return False
    for n_sub in loop_index_p_subgroups(G, zg, p):
        if not quotient_is_extraspecial(quotient(G, n_sub).quotient):
            return False
    return True


def iso_known_family(G):
    """Oracle for the family recognition in the checks: isomorphism tests
    against the reference groups (capped at order 512)."""
    n = G.order
    if n == 12 and not is_abelian(G) and isomorphic(G, alternating(4)):
        return "A4"
    if n == 8 and isomorphic(G, quaternion8()):
        return "Q8"
    if n == 8 and isomorphic(G, dihedral(8)):
        return "D8"
    if n >= 6 and n % 2 == 0 and (n // 2) % 2 == 1 and isomorphic(G, dihedral(n)):
        return "dihedral_odd"
    if quotient_is_extraspecial(G) and n % 2 == 0:
        return "extraspecial_2"
    return None


def _subgroup(G, members):
    return Subgroup(G, tuple(sorted({int(m) for m in members})))


def table_generated_subgroup(G: FiniteGroup, gens: Iterable[int]) -> Subgroup:
    """Oracle for generated_subgroup, as it read before the coset-at-a-time
    closure: multiply the whole set by itself until it stops growing."""
    gen_list = [int(g) for g in gens]
    if any(g < 0 or g >= G.order for g in gen_list):
        raise BadParameter("generator index out of range")
    elems = np.unique(np.array(gen_list + [G.identity], dtype=np.int64))
    while True:
        products = np.unique(G.table[np.ix_(elems, elems)])
        if products.size == elems.size:
            return _subgroup(G, elems)
        elems = np.unique(np.append(elems, products))


def table_derived_subgroup(G):
    """Oracle for derived_subgroup, as it read with the n x n commutator
    table K[a, b] = a b a^-1 b^-1: the closure of every commutator."""
    t = G.table
    k = t[t, np.asarray(G.inverses)[t.T]]
    return table_generated_subgroup(G, np.unique(k))


def table_is_nilpotent(G):
    """Oracle for is_nilpotent, as it read with the n x n commutator table:
    Z_{i+1} holds the x with [x, y] in Z_i for every y in G."""
    t = G.table
    k = t[t, np.asarray(G.inverses)[t.T]]
    mask = np.zeros(G.order, dtype=bool)
    mask[G.identity] = True
    while True:
        new = mask[k].all(axis=1)
        if new.all():
            return True
        if np.array_equal(new, mask):
            return False
        mask = new


def loop_is_frobenius_prime_cyclic(G):
    """Oracle for checks._is_frobenius_prime_cyclic, as it read with a walk
    over the powers of each candidate kernel and complement generator."""
    q = largest_prime_divisor(G.order)
    m = G.order // q
    if m == 1:
        return False
    sizes = (G.table == G.table.T).sum(axis=1)
    orders = G.element_orders
    for x in range(G.order):
        if orders[x] != q or sizes[x] != q:
            continue
        kernel = [x]
        y = x
        while True:
            y = G.mul(y, x)
            if y == G.identity:
                break
            kernel.append(y)
        kernel_set = set(kernel)
        for h in range(G.order):
            if orders[h] != m:
                continue
            z, disjoint = h, True
            while z != G.identity:
                if z in kernel_set:
                    disjoint = False
                    break
                z = G.mul(z, h)
            if disjoint:
                return True
    return False


def loop_check_npcor1(G, s):
    """Oracle for the npcor1 check: a loop over the prime-order centralizers
    and every proper one, stopping at the first containment."""
    prof = profile(G)
    contains = analytics._centralizers(G).contains
    prime_ones = [i for i, c in enumerate(prof.proper_centralizers) if is_prime(c.order)]
    for i in prime_ones:
        for j in range(len(prof.proper_centralizers)):
            if i != j and contains[i, j]:
                return FAIL, {"prime_centralizer": i, "containing_centralizer": j}
    return PASS, {"prime_order_centralizers": len(prime_ones)}


def loop_check_bbc(G, s):
    """Oracle for the bbc check, through the bound report."""
    n, qz = analytics.cent_count(G), _quotient_order(G)
    details = {"n": n, "quotient_order": qz}
    holds = analytics.bounds(n, qz).satisfied["factorial_bound"]
    return (PASS, details) if holds else (FAIL, details)


def loop_check_bc1a(G, s):
    """Oracle for the bc1a check: the distinct Z(x) subgroups of the profile."""
    if not is_F_group(G):
        return SKIP, {"reason": "not an F-group"}
    n, qz = analytics.cent_count(G), _quotient_order(G)
    bound = (n - 2) ** 2
    if qz > bound:
        return FAIL, {"n": n, "quotient_order": qz, "bound": bound}
    zorder = center(G).order
    prof = profile(G)
    stricter = all(
        (z.order // zorder) ** 2 < qz for z in set(prof.z_of.values()) if z.order > zorder
    )
    details = {"n": n, "quotient_order": qz, "bound": bound, "strict_hypothesis": stricter}
    if stricter and qz >= bound:
        return FAIL, details
    return PASS, details


def loop_check_bbu(G, s):
    """Oracle for the bbu check: a sub-table abelian scan per centralizer."""
    pp = prime_power(G.order)
    if pp is None or pp[1] != 6 or not analytics.is_ultraspecial(G):
        return SKIP, {"reason": "not an ultraspecial group of order p^6"}
    n = analytics.cent_count(G)
    prof = profile(G)
    for c in prof.proper_centralizers:
        if not loop_commute_pairwise(G, c.elements):
            return FAIL, {"nonabelian_centralizer_order": c.order}
    covers = set().union(*(c.elements for c in prof.proper_centralizers)) == set(G.elements())
    qz = _quotient_order(G)
    details = {
        "n": n,
        "abelian_proper_centralizers": len(prof.proper_centralizers),
        "covers_group": covers,
        "quotient_order": qz,
        "ca_group": is_CA_group(G),
    }
    ok = (
        len(prof.proper_centralizers) == n - 1
        and covers
        and qz == (n - 2) ** 2
        and details["ca_group"]
    )
    return (PASS, details) if ok else (FAIL, details)


def loop_check_za1(G, s):
    """Oracle for the za1 check: a sub-table abelian scan per centralizer,
    after the precondition of nonabelian_centralizer_check."""
    try:
        analytics.nonabelian_centralizer_check(G)
    except PreconditionNotMet as exc:
        return SKIP, {"reason": str(exc)}
    proper = profile(G).proper_centralizers
    abelian = [i for i, c in enumerate(proper) if loop_commute_pairwise(G, c.elements)]
    if not abelian:
        ct = analytics.conjugate_type(G)
        return PASS, {"p": ct.p, "k": ct.k, "proper_centralizers": len(proper)}
    return FAIL, {"abelian_centralizer": abelian[0], "order": proper[abelian[0]].order}


#: check id -> its loop oracle, for the checks that read the centralizer rows
LOOP_CHECKS = {
    "npcor1": loop_check_npcor1,
    "bbc": loop_check_bbc,
    "bc1a": loop_check_bc1a,
    "bbu": loop_check_bbu,
    "za1": loop_check_za1,
}
