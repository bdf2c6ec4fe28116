"""Table construction, subgroup machinery, quotients, recognizers."""

import dataclasses
import gc
import random
import sys
import threading
import tracemalloc
import weakref
from functools import partial
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from groupcent import (
    ActionSpec,
    CentralizerProfile,
    FiniteGroup,
    QuotientResult,
    Subgroup,
    center,
    central_product,
    centralizer,
    cyclic,
    derived_subgroup,
    dihedral,
    direct_product,
    exponent,
    from_table,
    generated_subgroup,
    is_abelian,
    is_cyclic,
    is_elementary_abelian,
    is_nilpotent,
    is_normal,
    is_perfect,
    isomorphic,
    largest_prime_divisor,
    prime_power,
    profile,
    quaternion8,
    quotient,
    semidirect,
    subgroup_as_group,
    symmetric,
    alternating,
    elementary_abelian,
    extraspecial2,
    frobenius_cq_cn,
    gf,
    heisenberg,
)
from groupcent import core
from groupcent.cli import build_analysis
from groupcent.errors import (
    BadParameter,
    NotAGroup,
    NotNormal,
    NotPrime,
    OrderCapExceeded,
    TooLarge,
)

from conftest import (
    bfs_greedy_generators,
    brute_force_bad_triple,
    brute_force_inverses,
    formula_direct_product_table,
    loop_element_orders,
    loop_largest_prime_divisor,
    loop_prime_factors,
    loop_prime_power,
    right_closure,
    table_derived_subgroup,
    table_generated_subgroup,
    table_is_nilpotent,
)


def compose(p, q):
    return tuple(p[q[i]] for i in range(len(q)))


def relabel(table, perm):
    """The same magma with element i renamed perm[i]."""
    out = [[0] * len(table) for _ in table]
    for i, row in enumerate(table):
        for j, v in enumerate(row):
            out[perm[i]][perm[j]] = perm[v]
    return out


# A Latin square with identity 0 that is not a group (an order-5 loop).
LOOP5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]

# Identity 0 and two-sided inverses (every element is an involution), but
# row 1 repeats 3, so it is not a Latin square and cannot be associative.
NON_LATIN = [
    [0, 1, 2, 3],
    [1, 0, 3, 3],
    [2, 3, 0, 1],
    [3, 2, 1, 0],
]


def s3_table_by_hand():
    """Oracle: tabulate S3 from raw permutation composition."""
    perms = sorted(
        {(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)}
    )
    idx = {p: i for i, p in enumerate(perms)}
    return [[idx[compose(a, b)] for b in perms] for a in perms]


class TestFromTable:
    def test_trivial_group(self):
        g = from_table([[0]], name="1")
        assert g.order == 1 and g.identity == 0 and g.element_orders == (1,)

    def test_s3_from_permutation_composition(self):
        g = from_table(s3_table_by_hand(), name="S3")
        assert g.order == 6
        assert sorted(g.element_orders) == [1, 2, 2, 2, 3, 3]

    def test_identity_discovered_not_pinned(self):
        # relabel C3 so the identity sits at index 2
        g = from_table(relabel(cyclic(3).table.tolist(), [2, 0, 1]))
        assert g.identity == 2

    def test_nonassociative_triple_rejected(self):
        with pytest.raises(NotAGroup, match="associativity"):
            from_table(LOOP5)

    def test_missing_identity_rejected(self):
        with pytest.raises(NotAGroup, match="identity"):
            from_table([[1, 0], [1, 0]])

    def test_out_of_range_rejected(self):
        with pytest.raises(NotAGroup, match="entries"):
            from_table([[0, 1], [1, 5]])

    def test_non_square_rejected(self):
        with pytest.raises(NotAGroup, match="square"):
            from_table([[0, 1, 2], [1, 2, 0]])

    def test_ragged_rows_rejected(self):
        # numpy raises a bare ValueError on rows of unequal length
        with pytest.raises(NotAGroup, match=r"^table must be square, got rows of unequal length$"):
            from_table([[0, 1], [1]])

    @pytest.mark.parametrize(
        "table,match",
        [
            ([[0.9, 1.2], [1.0, 0.4]], "integers"),
            (np.array([[0, 1], [1, 2**32]], dtype=np.int64), "entries"),
            (np.array([[0, 1], [1, -(2**32)]], dtype=np.int64), "entries"),
        ],
        ids=["floats", "wraps_high", "wraps_low"],
    )
    def test_entries_checked_before_the_int32_cast(self, table, match):
        # each of these casts to the C2 table [[0, 1], [1, 0]]
        with pytest.raises(NotAGroup, match=match):
            from_table(table)

    def test_light_validation_matches_full(self):
        g = cyclic(30)
        assert brute_force_bad_triple(g.table) is None
        rebuilt = from_table(g.table)
        assert rebuilt.element_orders == loop_element_orders(g.table, g.identity)

    @pytest.mark.parametrize(
        "table",
        [LOOP5, relabel(LOOP5, [2, 0, 1, 4, 3]), NON_LATIN],
        ids=["loop", "relabelled_loop", "non_latin"],
    )
    def test_light_validation_catches_bad_triple(self, table):
        assert brute_force_bad_triple(table) is not None
        with pytest.raises(NotAGroup, match="associativity fails on triple"):
            from_table(table)

    def test_table_is_read_only(self):
        g = cyclic(4)
        with pytest.raises(ValueError):
            g.table[0, 0] = 1


# groups of each order up to 5, whose tables are perturbed into magmas
SMALL_GROUPS = {
    1: [cyclic(1)], 2: [cyclic(2)], 3: [cyclic(3)],
    4: [cyclic(4), elementary_abelian(2, 2)], 5: [cyclic(5)],
}


@st.composite
def magmas_with_identity(draw):
    """A table of order 1 to 5 with a two-sided identity at a drawn index:
    a relabelled group with up to three entries changed, or random entries."""
    n = draw(st.integers(1, 5))
    cell = st.integers(0, n - 1)
    if draw(st.booleans()):
        g = draw(st.sampled_from(SMALL_GROUPS[n]))
        perm = draw(st.permutations(range(n)))
        table, e = relabel(g.table.tolist(), perm), perm[g.identity]
        for _ in range(draw(st.integers(0, 3))):
            table[draw(cell)][draw(cell)] = draw(cell)
    else:
        table = draw(st.lists(st.lists(cell, min_size=n, max_size=n), min_size=n, max_size=n))
        e = draw(cell)
    for x in range(n):
        table[e][x] = table[x][e] = x
    return table


def accepted(table):
    """from_table's verdict, with the group when it accepts."""
    try:
        return from_table(table)
    except NotAGroup:
        return None


class TestValidation:
    """from_table validates by the identity, one power walk that finds the
    orders and inverses, the generating set and Light's test."""

    def test_non_unit_named(self):
        # identity 1; element 0 is idempotent, so its powers stay at 0
        with pytest.raises(NotAGroup, match=r"^powers of element 0 never reach the identity$"):
            from_table([[0, 0], [0, 1]])

    def test_left_identity_is_not_enough(self):
        # both diagonal entries are fixed and both rows are 0, 1; no column is
        with pytest.raises(NotAGroup, match=r"^no two-sided identity element$"):
            from_table([[0, 1], [0, 1]])

    def test_band_refused_before_light(self, monkeypatch):
        # an identity 0 adjoined to a left-zero band (ab = a): greedy would
        # pick all 1023 other elements as generators for Light's test
        n = 1024
        band = np.repeat(np.arange(n)[:, None], n, axis=1)
        band[0] = np.arange(n)

        def fail(arr, gens):
            raise AssertionError("Light's test ran")

        monkeypatch.setattr(core, "_validate_light_associativity", fail)
        with pytest.raises(NotAGroup, match=r"^powers of element 1 never reach the identity$"):
            from_table(band)

    @staticmethod
    def assert_matches_oracles(table):
        g, inverses = accepted(table), brute_force_inverses(table)
        assert (g is not None) == (brute_force_bad_triple(table) is None and inverses is not None), table
        if g is not None:
            assert tuple(g.inverses.tolist()) == inverses

    def test_accepts_exactly_the_groups_up_to_order_3(self):
        # every table of order 1 to 3 with identity 0
        for n in (1, 2, 3):
            for cells in product(range(n), repeat=(n - 1) ** 2):
                table = [list(range(n))] + [[i] + [0] * (n - 1) for i in range(1, n)]
                for k, v in enumerate(cells):
                    table[1 + k // (n - 1)][1 + k % (n - 1)] = v
                self.assert_matches_oracles(table)

    @given(magmas_with_identity())
    @settings(max_examples=300, deadline=None)
    def test_accepts_exactly_the_groups(self, table):
        self.assert_matches_oracles(table)

    def test_inverses_are_two_sided(self, oracle_pool):
        # the pool holds relabelled copies, with the identity away from 0
        groups = oracle_pool + [from_table(relabel(symmetric(4).table.tolist(), list(range(23, -1, -1))))]
        assert any(g.identity != 0 for g in groups)
        for g in groups:
            x = np.arange(g.order)
            assert (g.table[x, g.inverses] == g.identity).all(), g.name
            assert (g.table[g.inverses, x] == g.identity).all(), g.name

    def test_traced_peak(self):
        # the copy, then Light's two n x n gathers and the next generator's
        # first: no n x n array for the identity or the inverses
        table = dihedral(2048).table
        tracemalloc.start()
        try:
            from_table(table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.1 * table.nbytes, peak / table.nbytes


def assert_uint16_tables(groups):
    for g in groups:
        for a in (g.table, g.inverses):
            assert a.dtype == np.uint16 and not a.flags.writeable, g.name


class TestTableDtype:
    def test_oracle_pool(self, oracle_pool):
        assert_uint16_tables(oracle_pool)

    def test_derived_groups(self):
        d12, q8 = dihedral(12), quaternion8()
        doubling = tuple(tuple(x * 2**j % 7 for x in range(7)) for j in range(3))
        assert_uint16_tables([
            quotient(d12, center(d12)).quotient,
            subgroup_as_group(d12, derived_subgroup(d12)),
            core.renamed(d12, "D12 renamed"),
            direct_product(d12, q8),
            central_product(dihedral(8), q8),
            semidirect(ActionSpec(cyclic(7), cyclic(3), doubling)),
        ])

    @pytest.mark.parametrize("dtype", [np.int64, np.uint16])
    def test_user_table_is_copied(self, dtype):
        src = dihedral(12).table.astype(dtype)
        before = src.copy()
        g = from_table(src)
        assert src.flags.writeable and np.array_equal(src, before)
        assert not np.shares_memory(g.table, src)


class TestOrderCap:
    # each entry returns the call to trace; the factors are built before tracing starts
    @pytest.mark.parametrize(
        "setup,match",
        [
            # a zero-memory view of a 16385 x 16385 table
            (lambda: partial(from_table, np.broadcast_to(np.zeros((1, 1), np.uint8), (16385, 16385))),
             "order 16385 .* 536936450 bytes"),
            (lambda: partial(cyclic, 16385), "order 16385"),
            (lambda: partial(dihedral, 16386), "order 16386"),
            (lambda: partial(elementary_abelian, 2, 15), "order 32768"),
            (lambda: partial(direct_product, cyclic(128), cyclic(129)), "order 16512"),
            (lambda: partial(semidirect, ActionSpec(cyclic(128), cyclic(129), ())), "order 16512"),
            # each family check computes its order before the builder builds
            (lambda: partial(symmetric, 8), "order 40320"),
            (lambda: partial(alternating, 8), "order 20160"),
            (lambda: partial(extraspecial2, 7, "plus"), "order 32768"),
            (lambda: partial(heisenberg, gf(3, 3)), "order 19683"),
            # 10 has order 103 mod 1031: refused before the action and C1031 are built
            (lambda: partial(frobenius_cq_cn, 1031, 103, 10), "order 106193"),
        ],
        ids=["from_table_view", "cyclic", "dihedral", "elementary_abelian",
             "direct_product", "semidirect", "symmetric", "alternating",
             "extraspecial2", "heisenberg", "frobenius"],
    )
    def test_raised_before_allocating(self, setup, match):
        build = setup()
        tracemalloc.start()
        try:
            with pytest.raises(TooLarge, match=match):
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak

    def test_largest_order_passes_the_check(self):
        assert core._check_order(core.TABLE_ORDER_CAP) == 16384

    def test_order_too_long_to_print_is_named_by_a_power_of_two(self):
        # str() of an int above 4300 digits raises ValueError
        with pytest.raises(TooLarge) as info:
            core._check_order(10**5000)
        want = "order 2^16609 or more exceeds 16384: its uint16 table would take 2^33220 or more bytes"
        assert str(info.value) == want


class TestGeneratingSet:
    def test_matches_element_closure_oracle(self, oracle_pool):
        for g in oracle_pool:
            gens = core._generators(g)
            assert gens == tuple(bfs_greedy_generators(g.table, g.identity)), g.name
            assert right_closure(g, gens) == set(g.elements()), g.name

    def test_found_once_by_from_table(self, monkeypatch):
        table = symmetric(4).table
        calls = []
        inner = core._greedy_generators

        def counting(table, identity):
            calls.append(identity)
            return inner(table, identity)

        monkeypatch.setattr(core, "_greedy_generators", counting)
        g = from_table(table, name="S4 copy")
        assert len(calls) == 1

        def fail(table, identity):
            raise AssertionError("generating set searched again")

        monkeypatch.setattr(core, "_greedy_generators", fail)
        h = core.renamed(g, "S4 renamed")
        assert build_analysis(g)["cent_count"] == build_analysis(h)["cent_count"] == 14
        assert core._generators(h) == core._generators(g) == tuple(inner(g.table, g.identity))


class TestCenterAndCentralizer:
    def test_center_s3_trivial(self):
        g = symmetric(3)
        assert center(g).elements == (g.identity,)

    def test_center_q8(self):
        g = quaternion8()
        z = center(g)
        assert z.order == 2
        assert all(g.element_orders[e] <= 2 for e in z)

    def test_center_abelian_is_whole_group(self):
        g = cyclic(6)
        assert center(g).order == 6

    def test_centralizer_of_identity_is_group(self):
        g = symmetric(4)
        assert centralizer(g, g.identity).order == g.order

    def test_centralizer_against_scan_oracle(self):
        g = symmetric(3)
        for x in g.elements():
            brute = sorted(h for h in g.elements() if g.mul(h, x) == g.mul(x, h))
            assert list(centralizer(g, x).elements) == brute

    def test_centralizer_transposition_in_s3(self):
        g = symmetric(3)
        t = next(x for x in g.elements() if g.element_orders[x] == 2)
        assert centralizer(g, t).elements == tuple(sorted((g.identity, t)))

    def test_centralizer_of_i_in_q8(self):
        g = quaternion8()
        i = next(x for x in g.elements() if g.element_orders[x] == 4)
        c = centralizer(g, i)
        assert c.order == 4 and i in c

    def test_centralizer_orders_against_scan_oracle(self, family_pool):
        # the one row sum of K, and the center and abelian verdict read off it
        for g in family_pool:
            t, n = g.table.tolist(), g.order
            brute = [sum(t[x][y] == t[y][x] for y in range(n)) for x in range(n)]
            assert core._centralizer_orders(g).tolist() == brute, g.name
            assert core._center_elements(g).tolist() == [x for x in range(n) if brute[x] == n]
            assert is_abelian(g) == (min(brute) == n)

    def test_row_counts_match_the_int64_row_sum(self):
        # summed as uint8 into uint16: exact up to rows of TABLE_ORDER_CAP entries
        rng = np.random.default_rng(5)
        for shape, density in (((1, 1), 0.5), ((7, 300), 0.5), ((64, 1536), 0.9), ((3, 4097), 0.02)):
            b = rng.random(shape) < density
            assert np.array_equal(core._row_counts(b), b.sum(axis=1))
            assert core._row_counts(b).dtype == np.int64
        b = rng.random((40, 50)) < 0.5
        assert np.array_equal(core._row_counts(b[::3, ::2]), b[::3, ::2].sum(axis=1))
        full = np.ones((1, core.TABLE_ORDER_CAP), dtype=bool)
        assert core._row_counts(full).tolist() == full.sum(axis=1).tolist() == [16384]

    @staticmethod
    def assert_packed_bool_k(groups):
        # rows of whole 64-bit words, in np.packbits order, with zero padding
        for g in groups:
            n, k = g.order, core._commuting_matrix(g)
            assert k.dtype == np.uint8 and k.shape == (n, 8 * -(-n // 64)), g.name
            assert not k.flags.writeable
            assert not np.unpackbits(k, axis=1)[:, n:].any(), g.name
            bool_k = g.table == g.table.T
            assert np.array_equal(np.unpackbits(k, axis=1, count=n).view(bool), bool_k), g.name
            assert np.array_equal(core._centralizer_orders(g), bool_k.sum(axis=1)), g.name
            xs = np.arange(0, n, 3)
            assert np.array_equal(core._commuting_rows(g, xs), bool_k[xs])
            assert np.array_equal(core._commuting_rows(g, n - 1), bool_k[n - 1])

    def test_commuting_matrix_is_packed_bool_k(self, oracle_pool):
        self.assert_packed_bool_k(oracle_pool)

    def test_commuting_matrix_pads_rows_to_whole_words(self):
        # n mod 64 is 62, 62, 0, 2 and 6
        self.assert_packed_bool_k(dihedral(n) for n in (62, 126, 128, 130, 1030))

    def test_center_is_intersection_of_centralizers(self):
        for g in (symmetric(4), quaternion8(), dihedral(12)):
            common = set(g.elements())
            for x in g.elements():
                common &= centralizer(g, x).element_set
            assert common == center(g).element_set

    def test_out_of_range_element(self):
        with pytest.raises(BadParameter):
            centralizer(cyclic(3), 7)

    def test_non_integer_element_rejected(self):
        with pytest.raises(BadParameter, match="integers"):
            centralizer(symmetric(3), 1.5)

    def test_bool_element_is_its_integer(self):
        g = symmetric(3)
        assert centralizer(g, True) == centralizer(g, 1)


class TestGeneratedAndDerived:
    def test_empty_generators(self):
        g = symmetric(3)
        assert generated_subgroup(g, []).elements == (g.identity,)

    def test_three_cycle_generates_a3(self):
        g = symmetric(3)
        c = next(x for x in g.elements() if g.element_orders[x] == 3)
        assert generated_subgroup(g, [c]).order == 3

    def test_transposition_and_cycle_generate_s3(self):
        g = symmetric(3)
        t = next(x for x in g.elements() if g.element_orders[x] == 2)
        c = next(x for x in g.elements() if g.element_orders[x] == 3)
        assert generated_subgroup(g, [t, c]).order == 6

    def test_non_integer_generator_rejected(self):
        with pytest.raises(BadParameter, match="integers"):
            generated_subgroup(symmetric(3), [1.7])

    def test_matches_product_table_oracle(self, oracle_pool):
        for g in oracle_pool:
            rng = random.Random(g.order)
            for k in (1, 1, 2, 3):
                gens = rng.sample(range(g.order), k)
                want = table_generated_subgroup(g, gens).elements
                assert generated_subgroup(g, gens).elements == want, (g.name, gens)

    def test_derived_of_abelian_trivial(self):
        g = cyclic(12)
        assert derived_subgroup(g).elements == (g.identity,)

    def test_derived_s3_is_a3(self):
        g = symmetric(3)
        d = derived_subgroup(g)
        assert d.order == 3
        # oracle: every commutator lands inside
        for a in g.elements():
            for b in g.elements():
                comm = g.mul(g.mul(a, b), g.inv(g.mul(b, a)))
                assert comm in d

    def test_derived_q8_equals_center(self):
        g = quaternion8()
        assert derived_subgroup(g).elements == center(g).elements


class TestNormalityAndQuotient:
    def test_center_always_normal(self):
        for g in (symmetric(4), quaternion8(), dihedral(16)):
            assert is_normal(g, center(g))

    def test_order2_subgroup_of_s3_not_normal(self):
        g = symmetric(3)
        t = next(x for x in g.elements() if g.element_orders[x] == 2)
        assert not is_normal(g, generated_subgroup(g, [t]))

    def test_a3_normal_in_s3(self):
        g = symmetric(3)
        c = next(x for x in g.elements() if g.element_orders[x] == 3)
        assert is_normal(g, generated_subgroup(g, [c]))

    def test_quotient_by_trivial_is_isomorphic(self):
        g = symmetric(3)
        qr = quotient(g, generated_subgroup(g, []))
        assert qr.quotient.order == 6
        assert sorted(qr.quotient.element_orders) == sorted(g.element_orders)

    def test_q8_mod_center_is_klein(self):
        g = quaternion8()
        qr = quotient(g, center(g))
        assert qr.quotient.order == 4
        assert exponent(qr.quotient) == 2

    def test_quotient_nonnormal_rejected(self):
        g = symmetric(3)
        t = next(x for x in g.elements() if g.element_orders[x] == 2)
        with pytest.raises(NotNormal):
            quotient(g, generated_subgroup(g, [t]))

    def test_quotient_validates_n_once(self, monkeypatch):
        # one closure gather per call, and BadParameter before NotNormal
        real, calls = core._require_subgroup, []
        monkeypatch.setattr(core, "_require_subgroup", lambda G, H: calls.append(H) or real(G, H))
        g = symmetric(3)
        assert quotient(g, center(g)).quotient.order == 6 and len(calls) == 1
        transpositions = [x for x in g.elements() if g.element_orders[x] == 2]
        for bad, message in (
            (Subgroup(g, tuple(sorted([g.identity, *transpositions[:2]]))), "element set is not a subgroup"),
            (center(symmetric(3)), "subgroup belongs to a different group"),
        ):
            with pytest.raises(BadParameter, match=message):
                quotient(g, bad)
        with pytest.raises(NotNormal):
            quotient(g, generated_subgroup(g, transpositions[:1]))
        assert len(calls) == 4

    def test_projection_is_homomorphism(self):
        g = dihedral(12)
        qr = quotient(g, center(g))
        proj, q = qr.projection, qr.quotient
        for a in g.elements():
            for b in g.elements():
                assert proj[g.mul(a, b)] == q.mul(proj[a], proj[b])
        assert set(proj) == set(range(q.order))
        assert q.order * qr.normal_subgroup.order == g.order


class TestSubgroupAsGroup:
    def test_whole_group(self):
        g = symmetric(3)
        h = subgroup_as_group(g, generated_subgroup(g, list(g.elements())))
        assert h.order == 6 and sorted(h.element_orders) == sorted(g.element_orders)

    def test_a3_in_s3_is_c3(self):
        g = symmetric(3)
        c = next(x for x in g.elements() if g.element_orders[x] == 3)
        h = subgroup_as_group(g, generated_subgroup(g, [c]))
        assert isomorphic(h, cyclic(3))

    def test_i_in_q8_is_c4(self):
        g = quaternion8()
        i = next(x for x in g.elements() if g.element_orders[x] == 4)
        h = subgroup_as_group(g, generated_subgroup(g, [i]))
        assert isomorphic(h, cyclic(4))

    def test_order_multiset_preserved(self):
        g = symmetric(4)
        sub = generated_subgroup(g, [next(x for x in g.elements() if g.element_orders[x] == 4)])
        h = subgroup_as_group(g, sub)
        assert sorted(h.element_orders) == sorted(g.element_orders[e] for e in sub)

    def test_unclosed_set_rejected(self):
        g = symmetric(3)
        t = next(x for x in g.elements() if g.element_orders[x] == 2)
        c = next(x for x in g.elements() if g.element_orders[x] == 3)
        with pytest.raises(BadParameter):
            subgroup_as_group(g, Subgroup(g, tuple(sorted({g.identity, t, c}))))


class TestDirectProduct:
    def test_product_with_trivial(self):
        g = symmetric(3)
        p = direct_product(g, from_table([[0]]))
        assert np.array_equal(p.table, g.table)

    def test_s3_x_s3(self):
        p = direct_product(symmetric(3), symmetric(3))
        assert p.order == 36 and center(p).order == 1

    def test_c6_x_a5(self):
        p = direct_product(cyclic(6), alternating(5))
        assert p.order == 360 and center(p).order == 6

    @pytest.mark.parametrize(
        "build",
        [lambda: (symmetric(4), dihedral(14)), lambda: (alternating(5), cyclic(7)),
         lambda: (quaternion8(), from_table([[0]]))],
        ids=["S4xD14", "A5xC7", "Q8x1"],
    )
    def test_matches_int64_formula(self, build):
        a, b = build()
        assert np.array_equal(direct_product(a, b).table, formula_direct_product_table(a, b))


class TestRecognizers:
    def test_elementary_abelian(self):
        assert is_elementary_abelian(elementary_abelian(2, 2), 2)
        assert not is_elementary_abelian(cyclic(4), 2)
        assert is_elementary_abelian(from_table([[0]]), 3)
        with pytest.raises(NotPrime):
            is_elementary_abelian(cyclic(4), 4)

    def test_perfect(self):
        assert is_perfect(alternating(5))
        assert not is_perfect(symmetric(4))

    def test_nilpotent(self):
        assert is_nilpotent(dihedral(8))
        assert not is_nilpotent(symmetric(3))
        assert is_nilpotent(quaternion8())

    def test_cyclic_and_exponent(self):
        assert is_cyclic(cyclic(15))
        assert not is_cyclic(elementary_abelian(3, 2))
        assert exponent(quaternion8()) == 4
        assert exponent(symmetric(3)) == 6

    def test_abelian(self):
        assert is_abelian(cyclic(9))
        assert not is_abelian(dihedral(10))


class TestCommutatorsFromGenerators:
    def test_match_table_routes(self, oracle_pool):
        for g in oracle_pool:
            assert derived_subgroup(g).elements == table_derived_subgroup(g).elements, g.name
            assert is_nilpotent(g) == table_is_nilpotent(g), g.name

    def test_central_series_pool_verdicts(self, central_series_pool):
        # three nilpotent groups of composite non-prime-power order, then
        # three whose upper central series stops at a nontrivial center
        verdicts = [is_nilpotent(g) for g in central_series_pool[:6]]
        assert verdicts == [True] * 3 + [False] * 3
        assert all(center(g).order > 1 for g in central_series_pool)

    def test_trivial_group(self):
        g = from_table([[0]])
        assert derived_subgroup(g).elements == (0,)
        assert is_nilpotent(g)
        assert is_perfect(g)

    def test_is_nilpotent_is_memoized(self, monkeypatch):
        g = from_table(dihedral(12).table, name="D12 copy")
        calls = []
        inner = core._generator_commutators

        def counting(G, xs):
            calls.append(G)
            return inner(G, xs)

        monkeypatch.setattr(core, "_generator_commutators", counting)
        assert not is_nilpotent(g)
        assert len(calls) == 1
        assert not is_nilpotent(g)
        assert len(calls) == 1

    def test_analysis_keeps_no_square_integer_array(self):
        g = from_table(dihedral(24).table, name="D24 copy")
        build_analysis(g)
        stack, square = list(g._memo.values()), []
        while stack:
            v = stack.pop()
            if isinstance(v, (tuple, list)):
                stack.extend(v)
            elif isinstance(v, np.ndarray) and v.shape == (g.order, g.order):
                square.append(v.dtype)
        # the commuting matrix is kept packed, 8 elements to a byte
        assert not square


class TestIsomorphic:
    def test_same_object(self):
        g = symmetric(4)
        assert isomorphic(g, g)

    def test_q8_vs_d8(self):
        assert not isomorphic(quaternion8(), dihedral(8))

    def test_q8_quotient_vs_klein(self):
        q8 = quaternion8()
        qr = quotient(q8, center(q8))
        assert isomorphic(qr.quotient, elementary_abelian(2, 2))

    def test_different_orders(self):
        assert not isomorphic(cyclic(4), cyclic(5))

    def test_same_order_profile_different_groups(self):
        # C4 x C4 vs C2 x C8 differ already in order multisets
        a = direct_product(cyclic(4), cyclic(4))
        b = direct_product(cyclic(2), cyclic(8))
        assert not isomorphic(a, b)

    def test_symmetric_on_relabelled_copy(self):
        g = alternating(4)
        rng = np.random.default_rng(7)
        perm = rng.permutation(g.order)
        table = np.empty_like(np.asarray(g.table))
        for i in range(g.order):
            for j in range(g.order):
                table[perm[i], perm[j]] = perm[g.mul(i, j)]
        h = from_table(table, name="A4-relabelled")
        assert isomorphic(g, h) and isomorphic(h, g)

    def test_cap_enforced(self):
        big = cyclic(600)
        with pytest.raises(OrderCapExceeded):
            isomorphic(big, big)


class TestNumberTheoryHelpers:
    @pytest.mark.parametrize(
        "n,want",
        [(12, 3), (42, 7), (128, 2), (97, 97), (2, 2), (16381, 16381), (16383, 127), (16384, 2)],
    )
    def test_largest_prime_divisor(self, n, want):
        assert largest_prime_divisor(n) == want

    def test_largest_prime_divisor_undefined(self):
        for n in (0, 1):
            with pytest.raises(BadParameter, match=r"^largest prime divisor is undefined for n < 2$"):
                largest_prime_divisor(n)

    def test_prime_power(self):
        assert prime_power(8) == (2, 3)
        assert prime_power(81) == (3, 4)
        assert prime_power(12) is None
        assert prime_power(1) is None
        assert prime_power(0) is None
        assert prime_power(7) == (7, 1)
        assert prime_power(2) == (2, 1)
        assert prime_power(16381) == (16381, 1)
        assert prime_power(16383) is None  # 3 * 43 * 127
        assert prime_power(16384) == (2, 14)

    def test_factorization_matches_the_trial_division_loops(self):
        # every order up to the table cap, and the n < 2 cases
        for n in range(-1, 2**14 + 1):
            factors = core._prime_factors(n)
            assert factors == loop_prime_factors(n), n
            assert prime_power(n) == loop_prime_power(n), n
            if n >= 2:
                assert largest_prime_divisor(n) == loop_largest_prime_divisor(n), n


def _holds_group_object(value) -> bool:
    """Is value, or anything inside it, a FiniteGroup, Subgroup or
    QuotientResult?"""
    if isinstance(value, (FiniteGroup, Subgroup, QuotientResult)):
        return True
    if isinstance(value, dict):
        return any(_holds_group_object(v) for v in value.items())
    if isinstance(value, (tuple, list, set, frozenset)):
        return any(_holds_group_object(v) for v in value)
    if dataclasses.is_dataclass(value):
        return any(_holds_group_object(getattr(value, f.name)) for f in dataclasses.fields(value))
    return False


class TestMemoLifetime:
    @pytest.mark.parametrize(
        "build",
        [lambda: from_table(symmetric(4).table, name="S4 copy"), lambda: dihedral(64)],
        ids=["table_copy", "builder"],
    )
    def test_analysed_group_is_freed_when_dropped(self, build):
        g = build()
        build_analysis(g)
        table = weakref.ref(g.table)
        del g
        gc.collect()
        assert table() is None

    def test_freed_without_cycle_collector(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            for build in (lambda: from_table(symmetric(4).table, name="S4 copy"), lambda: dihedral(64)):
                g = build()
                build_analysis(g)
                assert not any(_holds_group_object(v) for v in g._memo.values()), g.name
                table = weakref.ref(g.table)
                del g
                assert table() is None
        finally:
            if enabled:
                gc.enable()

    def test_analysis_memo_holds_no_profile(self):
        g = from_table(symmetric(4).table, name="S4 copy")
        build_analysis(g)
        assert profile(g).n == 14
        assert not any(isinstance(v, CentralizerProfile) for v in g._memo.values())

    def test_threads_analysing_one_cold_group_agree(self):
        g = from_table(symmetric(4).table, name="S4 copy")
        bodies = [None] * 8

        def work(i):
            bodies[i] = build_analysis(g)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(bodies))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert bodies[0] is not None and all(b == bodies[0] for b in bodies)
