import random
from itertools import product

import numpy as np
import pytest

from groupcent import centralizer, checks, from_table, is_CA_group, is_F_group, profile
from groupcent.core import _commuting_matrix


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


def by_check(suite_report, check_id):
    return [r for r in suite_report.results if r.check_id == check_id]


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
    table = np.empty((g.order, g.order), dtype=np.int64)
    for i in range(g.order):
        for j in range(g.order):
            table[perm[i], perm[j]] = perm[g.mul(i, j)]
    return from_table(table, name=f"{g.name}~")


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
    """The pairs the checks draw, as the loops drew them: (x, y) for x in xs
    and every y up to the exhaustive cap, else seeded samples."""
    n = G.order
    if n <= settings.exhaustive_cap:
        return "exhaustive", list(product(xs, range(n)))
    rng = random.Random(settings.seed)
    return "sampled", [(rng.choice(xs), rng.randrange(n)) for _ in range(settings.sample_pairs)]


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


def assert_centralizers_match_loops(G, settings_list):
    """The commuting-matrix results for G equal the loop oracles: sizes,
    distinct centralizers and their order, Z(x), the F and CA predicates,
    and the np1/co1/zclass1 pairs, verdicts and pair counts under each
    settings."""
    cz = loop_centralizers(G)
    proper, zs = loop_profile(G)
    assert _commuting_matrix(G).sum(axis=1).tolist() == [len(c) for c in cz]
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
