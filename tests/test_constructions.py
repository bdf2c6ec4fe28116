"""Family builders: orders, centers, defining properties."""

import tracemalloc

import numpy as np
import pytest

from groupcent import (
    ActionSpec,
    alternating,
    center,
    central_product,
    centralizer,
    cyclic,
    derived_subgroup,
    dihedral,
    direct_product,
    elementary_abelian,
    exponent,
    extraspecial2,
    frobenius_cq_cn,
    from_permutations,
    from_table,
    gf,
    heisenberg,
    is_abelian,
    is_prime,
    isomorphic,
    prime_power,
    quaternion8,
    quotient,
    semidirect,
    smallest_frobenius_unit,
    subgroup_as_group,
    symmetric,
)
from groupcent import build_group, constructions, core, parse_spec
from groupcent.specs import load_cayley, load_permutations, save_cayley
from groupcent.errors import (
    BadOrder,
    BadParameter,
    NotAnAction,
    NotAPermutation,
    NotCentralIso,
    TooLarge,
)

from conftest import (
    brute_force_bad_triple,
    enumerated_permutations,
    formula_cyclic_table,
    formula_elementary_abelian_table,
    formula_heisenberg_table,
    formula_semidirect_table,
    loop_element_orders,
    loop_permutation_closure,
    loop_quaternion8_table,
    loop_tabulate_permutations,
    relabel_group,
    right_closure,
)


class TestNamedFamilies:
    def test_dihedral6_is_s3(self):
        assert isomorphic(dihedral(6), symmetric(3))

    def test_quaternion_single_involution(self):
        g = quaternion8()
        assert sum(1 for o in g.element_orders if o == 2) == 1

    def test_quaternion_matches_the_hamilton_product(self):
        table = quaternion8().table
        assert table.dtype == np.uint16
        assert np.array_equal(table, loop_quaternion8_table())

    def test_a4_order_and_center(self):
        g = alternating(4)
        assert g.order == 12 and center(g).order == 1

    def test_orders(self):
        assert symmetric(5).order == 120
        assert alternating(5).order == 60
        assert dihedral(14).order == 14
        assert elementary_abelian(3, 2).order == 9
        assert cyclic(11).order == 11

    @pytest.mark.parametrize("two_n", [8, 12, 10, 30])
    def test_dihedral_matches_reference_formula(self, two_n):
        half = two_n // 2
        want = [[0] * two_n for _ in range(two_n)]
        for f1 in (0, 1):
            for i1 in range(half):
                for f2 in (0, 1):
                    sign = 1 if f2 == 0 else -1
                    for i2 in range(half):
                        want[f1 * half + i1][f2 * half + i2] = (
                            (f1 ^ f2) * half + (i2 + sign * i1) % half
                        )
        assert dihedral(two_n).table.tolist() == want

    @pytest.mark.parametrize("bad", [4, 5, 7])
    def test_dihedral_bad_parameter(self, bad):
        with pytest.raises(BadParameter):
            dihedral(bad)

    def test_symmetric_degree_cap(self):
        # the table budget admits S7 (order 5040) and refuses S8 (40320)
        assert (symmetric(6).order, symmetric(7).order) == (720, 5040)
        with pytest.raises(TooLarge):
            symmetric(8)

    def test_elementary_abelian_needs_prime(self):
        with pytest.raises(BadParameter):
            elementary_abelian(6, 2)

    @pytest.mark.parametrize("n", [1, 2, 7, 64, 257])
    def test_cyclic_matches_reference_formula(self, n):
        assert np.array_equal(cyclic(n).table, formula_cyclic_table(n))

    @pytest.mark.parametrize(
        "p,k", [(2, 0), (2, 1), (2, 7), (3, 1), (3, 4), (5, 2), (7, 2), (11, 1), (16381, 0)]
    )
    def test_elementary_abelian_matches_digit_formula(self, p, k):
        assert np.array_equal(elementary_abelian(p, k).table, formula_elementary_abelian_table(p, k))

    def test_abelian_builders_allocate_no_wider_table(self):
        # every builder that hands its table to core._group, at order 4096 or
        # near it, traces little beyond its uint16 table: no int64 n x n
        # array, no copy and no Light's test. Measured 1.007 (cyclic),
        # 1.251 (elementary_abelian: the C2^11 table lives beside the last
        # product), 1.010 (heisenberg) and 1.060 (alternating) times the table
        builds = {
            "cyclic": (lambda: cyclic(4096), 1.05),
            "elementary_abelian": (lambda: elementary_abelian(2, 12), 1.3),
            "heisenberg": (lambda: heisenberg(gf(2, 4)), 1.05),
            "from_permutations": (lambda: alternating(7), 1.1),
        }
        ratio = {}
        for name, (build, _) in builds.items():
            tracemalloc.start()
            try:
                g = build()
                ratio[name] = tracemalloc.get_traced_memory()[1] / g.table.nbytes
            finally:
                tracemalloc.stop()
        assert all(ratio[name] <= bound for name, (_, bound) in builds.items()), ratio


def inner_action(K, m):
    """C_m acting on K by conjugation, x -> g^j x g^-j for the first g of
    order m in K."""
    g = K.element_orders.index(m)
    action, power = [], K.identity
    for _ in range(m):
        action.append(tuple(K.conj(x, K.inv(power)) for x in K.elements()))
        power = K.mul(power, g)
    return ActionSpec(K, cyclic(m), tuple(action))


class TestSemidirect:
    def test_trivial_action_is_direct_product(self):
        K, H = cyclic(4), cyclic(3)
        action = tuple(tuple(range(4)) for _ in range(3))
        g = semidirect(ActionSpec(K, H, action))
        assert is_abelian(g) and isomorphic(g, cyclic(12))

    def test_c3_by_c2_inversion_is_s3(self):
        K, H = cyclic(3), cyclic(2)
        action = (tuple(range(3)), tuple((-x) % 3 for x in range(3)))
        g = semidirect(ActionSpec(K, H, action))
        assert isomorphic(g, symmetric(3))

    def test_c7_by_c3_multiplication_by_2(self):
        g = frobenius_cq_cn(7, 3, 2)
        assert g.order == 21 and center(g).order == 1

    def test_non_automorphism_rejected(self):
        K, H = cyclic(4), cyclic(2)
        swap = (0, 2, 1, 3)  # not an automorphism of C4
        with pytest.raises(NotAnAction, match=r"^action of complement element 1 is not an automorphism$"):
            semidirect(ActionSpec(K, H, (tuple(range(4)), swap)))

    def test_non_homomorphism_rejected(self):
        # phi_1 = inversion forces phi_2 = phi_1 o phi_1 = identity; the
        # first pair whose product fails is (1, 1)
        K, H = cyclic(5), cyclic(4)
        inv = tuple((-x) % 5 for x in range(5))
        with pytest.raises(NotAnAction, match=r"^action is not a homomorphism at \(1, 1\)$"):
            semidirect(ActionSpec(K, H, (tuple(range(5)), inv, inv, inv)))

    # 65536 read as uint16 would be 0, and the row the identity; the floats
    # read as int64 would be (0, 3, 2, 1), the automorphism x -> -x; numpy
    # refuses the nested row with a bare ValueError
    @pytest.mark.parametrize(
        "row",
        [(0, 1, 2), (0, 1, 1, 3), (65536, 1, 2, 3), (0.4, 3.9, 2.2, 1.7), ((0,), 3, 2, 1)],
        ids=["ragged", "repeated", "past-uint16", "floats", "nested"],
    )
    def test_non_permutation_rejected(self, row):
        K, H = cyclic(4), cyclic(2)
        message = r"^action of complement element 1 is not a permutation of the kernel$"
        with pytest.raises(NotAnAction, match=message):
            semidirect(ActionSpec(K, H, (tuple(range(4)), row)))

    def test_one_permutation_per_complement_element(self):
        with pytest.raises(NotAnAction, match=r"^need one permutation per complement element, got 1$"):
            semidirect(ActionSpec(cyclic(4), cyclic(2), (tuple(range(4)),)))

    @pytest.mark.parametrize(
        "spec",
        [
            # C101 by C4 acting by x -> 10x, a unit of order 4
            lambda: ActionSpec(cyclic(101), cyclic(4), tuple(
                tuple(x * 10**j % 101 for x in range(101)) for j in range(4)
            )),
            lambda: ActionSpec(elementary_abelian(3, 2), cyclic(2), (
                tuple(range(9)), tuple(elementary_abelian(3, 2).inverses.tolist())
            )),
            # non-abelian kernels, acted on by conjugation
            lambda: inner_action(symmetric(3), 2),
            lambda: inner_action(alternating(4), 3),
            lambda: inner_action(symmetric(4), 2),
        ],
        ids=["C101:C4", "Dih(C3^2)", "S3:C2", "A4:C3", "S4:C2"],
    )
    def test_matches_int64_formula(self, spec):
        spec = spec()
        assert np.array_equal(semidirect(spec).table, formula_semidirect_table(spec))

    def test_product_table_traced_peak(self):
        # a large kernel and a small complement: the gathered kernel table,
        # half the product table, lives beside it, and neither is copied
        K, H = cyclic(512), cyclic(2)
        action = np.array([np.arange(512), -np.arange(512) % 512])
        tracemalloc.start()
        try:
            table = constructions._product_table(K.table, H.table, action)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(table, formula_semidirect_table(ActionSpec(K, H, action.tolist())))
        assert peak <= 1.6 * table.nbytes, peak / table.nbytes

    def test_automorphism_test_traced_peak(self, monkeypatch):
        # each row is tested on uint16 gathers of the kernel table: 2.5 times
        # its bytes with the comparison, against 5.5 with an int64 arr[K.table]
        K, H = cyclic(1024), cyclic(2)
        action = (tuple(range(1024)), tuple(-x % 1024 for x in range(1024)))
        monkeypatch.setattr(constructions, "_product_table", lambda *args: None)
        monkeypatch.setattr(constructions, "_group", lambda table, name, identity: None)
        tracemalloc.start()
        try:
            semidirect(ActionSpec(K, H, action))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * K.table.nbytes, peak / K.table.nbytes


class TestFrobenius:
    @pytest.mark.parametrize(
        "q,n,r,order", [(5, 4, 2, 20), (7, 3, 2, 21), (7, 6, 3, 42), (11, 5, 3, 55)]
    )
    def test_construction(self, q, n, r, order):
        g = frobenius_cq_cn(q, n, r)
        assert g.order == order and center(g).order == 1

    def test_wrong_order_unit_rejected(self):
        with pytest.raises(BadOrder):
            frobenius_cq_cn(7, 3, 3)  # 3 has order 6 mod 7

    def test_non_unit_rejected(self):
        with pytest.raises(BadOrder):
            frobenius_cq_cn(7, 3, 7)

    def test_composite_kernel_rejected(self):
        with pytest.raises(BadParameter):
            frobenius_cq_cn(9, 2, 8)

    def test_smallest_unit_helper(self):
        assert smallest_frobenius_unit(7, 3) == 2
        assert smallest_frobenius_unit(5, 4) == 2
        with pytest.raises(BadParameter):
            smallest_frobenius_unit(7, 5)  # 5 does not divide 6

    def test_wrong_order_message(self):
        with pytest.raises(BadOrder, match=r"^r=3 has multiplicative order 6 mod 7, need 3$"):
            constructions._check_frobenius(7, 3, 3)

    def test_smallest_unit_matches_the_power_walk(self):
        for q in filter(is_prime, range(200)):
            orders = {}  # r -> multiplicative order mod q, walked power by power
            for r in range(1, q):
                k, x = 1, r
                while x != 1:
                    x, k = x * r % q, k + 1
                orders[r] = k
            for n in range(2, q):
                if (q - 1) % n == 0:
                    want = min(r for r, k in orders.items() if k == n)
                    assert smallest_frobenius_unit(q, n) == want, (q, n)

    def test_fixed_point_freeness(self):
        g = frobenius_cq_cn(13, 4, 5)
        # no non-identity complement element commutes with a non-identity
        # kernel element: kernel = pairs (k, 0), complement = (0, j)
        n = 4
        for j in range(1, 4):
            comp = j  # (0, j) has index 0*n + j
            for k in range(1, 13):
                ker = k * n
                assert g.mul(comp, ker) != g.mul(ker, comp)


class TestCentralProduct:
    def test_d8_d8(self):
        g = central_product(dihedral(8), dihedral(8))
        assert g.order == 32 and center(g).order == 2

    def test_d8_q8_not_isomorphic_to_d8_d8(self):
        a = central_product(dihedral(8), dihedral(8))
        b = central_product(dihedral(8), quaternion8())
        assert not isomorphic(a, b)

    def test_trivial_centers_give_direct_product(self):
        g = central_product(symmetric(3), symmetric(3))
        assert g.order == 36

    def test_order_formula(self):
        a, b = dihedral(8), quaternion8()
        g = central_product(a, b)
        assert g.order * 2 == a.order * b.order

    def test_large_center_needs_explicit_iso(self):
        with pytest.raises(NotCentralIso):
            central_product(cyclic(4), cyclic(4))

    def test_bad_explicit_iso_rejected(self):
        a = cyclic(2)
        with pytest.raises(NotCentralIso):
            central_product(a, a, iso={0: 1, 1: 0})  # sends identity to non-identity


class TestExtraspecial2:
    def test_base_cases(self):
        assert isomorphic(extraspecial2(1, "plus"), dihedral(8))
        assert isomorphic(extraspecial2(1, "minus"), quaternion8())

    def test_order32_plus(self):
        g = extraspecial2(2, "plus")
        assert g.order == 32
        assert center(g).order == 2
        assert derived_subgroup(g).elements == center(g).elements

    def test_order128(self):
        assert extraspecial2(3, "minus").order == 128
        assert extraspecial2(3, "plus").order == 128

    def test_variants_differ_by_involution_count(self):
        plus = sum(1 for o in extraspecial2(2, "plus").element_orders if o == 2)
        minus = sum(1 for o in extraspecial2(2, "minus").element_orders if o == 2)
        assert (plus, minus) == (19, 11)

    def test_bad_parameters(self):
        # order 2^15 is over the table budget, 2^11 is not
        with pytest.raises(TooLarge):
            extraspecial2(7, "plus")
        assert extraspecial2(5, "plus").order == 2048
        with pytest.raises(BadParameter):
            extraspecial2(2, "both")


class TestHeisenberg:
    def test_gf2_is_d8(self):
        assert isomorphic(heisenberg(gf(2)), dihedral(8))

    def test_gf3_exponent_three(self):
        g = heisenberg(gf(3))
        assert g.order == 27 and exponent(g) == 3 and center(g).order == 3

    def test_gf4_sizes(self):
        g = heisenberg(gf(2, 2))
        assert g.order == 64 and center(g).order == 4

    @pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])
    def test_center_and_derived_have_field_order(self, p, e):
        g = heisenberg(gf(p, e))
        q = p**e
        assert g.order == q**3
        assert center(g).order == q
        assert derived_subgroup(g).elements == center(g).elements

    def test_uniform_centralizer_order(self):
        from groupcent import centralizer

        g = heisenberg(gf(2, 2))
        zset = center(g).element_set
        sizes = {centralizer(g, x).order for x in g.elements() if x not in zset}
        assert sizes == {16}  # q^2

    def test_unsupported_field_order(self):
        # GF(27) builds; Heis(27), of order 19683, is over the table budget
        with pytest.raises(TooLarge, match="^order 19683 exceeds"):
            heisenberg(gf(3, 3))

    def test_field_orders_are_those_within_the_table_budget(self):
        accepted = []
        for q in filter(prime_power, range(2, 100)):
            try:
                constructions._check_heisenberg(*prime_power(q))
            except TooLarge:
                continue
            accepted.append(q)
        assert accepted == [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25]

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
    def test_table_matches_digit_formula(self, q):
        field = gf(*prime_power(q))
        assert np.array_equal(heisenberg(field).table, formula_heisenberg_table(field))


class TestFromPermutations:
    def test_a5_generators(self):
        g = from_permutations(5, [(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)])
        assert g.order == 60

    def test_empty_generators(self):
        assert from_permutations(4, []).order == 1

    def test_single_5_cycle(self):
        g = from_permutations(5, [(1, 2, 3, 4, 0)])
        assert isomorphic(g, cyclic(5))

    def test_non_bijection_rejected(self):
        with pytest.raises(NotAPermutation):
            from_permutations(3, [(0, 0, 2)])

    def test_ragged_generator_rejected(self):
        # numpy refuses the nested image with a bare ValueError
        with pytest.raises(NotAPermutation, match=r"^\(0, \[1\], 2\) is not a permutation of 0\.\.2$"):
            from_permutations(3, [[0, [1], 2]])

    def test_float_images_are_not_truncated(self):
        # int() would read the generator as the transposition (1, 0, 2)
        with pytest.raises(NotAPermutation, match=r"^\(1\.5, 0\.2, 2\.7\) is not a permutation of 0\.\.2$"):
            from_permutations(3, [[1.5, 0.2, 2.7]])

    def test_tables_match_loop_oracle(self):
        cases = []
        for n in range(1, 6):
            cases.append((n, [constructions._cycle(n, i, 2) for i in range(n - 1)]))
            cases.append((n, [constructions._cycle(n, i, 3) for i in range(n - 2)]))
        # the Frobenius group of order 21 acting on 7 points
        cases.append((7, [(1, 2, 3, 4, 5, 6, 0), (0, 2, 4, 6, 1, 3, 5)]))
        # points above 255, whose ranks a byte-wise order would get wrong
        cycle = list(range(260))
        cycle[0], cycle[256], cycle[1], cycle[259] = 256, 1, 259, 0
        cases.append((260, [cycle]))
        groups = [(from_permutations(n, gens), loop_permutation_closure(n, gens)) for n, gens in cases]
        assert [g.order for g, _ in groups] == [1, 1, 2, 1, 6, 3, 24, 12, 120, 60, 21, 4]
        for g, perms in groups:
            assert np.array_equal(g.table, loop_tabulate_permutations(perms)), g.name

    @pytest.mark.parametrize("n", range(1, 6))
    def test_symmetric_and_alternating_match_enumeration(self, n):
        # both are closures of adjacent cycles; the oracle lists every
        # permutation and filters by parity
        for g, even_only in ((symmetric(n), False), (alternating(n), True)):
            want = loop_tabulate_permutations(enumerated_permutations(n, even_only))
            assert np.array_equal(g.table, want), g.name

    def test_closure_cap(self, monkeypatch):
        # the closure stops at the table budget, whatever it is
        monkeypatch.setattr(constructions, "TABLE_ORDER_CAP", 10)
        with pytest.raises(TooLarge, match=r"^the permutations generate more than 10 elements$"):
            from_permutations(5, [(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)])

    def test_over_budget_closure_names_no_order(self, tmp_path):
        # S8's transpositions: the closure stops at 16385 elements, which is
        # a count, not the order; the builder's own check names the order
        transpositions = [constructions._cycle(8, i, 2) for i in range(7)]
        perm_file = tmp_path / "s8.perm"
        perm_file.write_text("degree 8 generators 7\n" + "".join(" ".join(map(str, p)) + "\n" for p in transpositions))
        for build in (lambda: from_permutations(8, transpositions), lambda: build_group(f"perm:{perm_file}")):
            with pytest.raises(TooLarge) as info:
                build()
            assert str(info.value) == "the permutations generate more than 16384 elements"
        with pytest.raises(TooLarge, match="^order 40320 exceeds 16384"):
            symmetric(8)
        with pytest.raises(TooLarge, match="^order 40320 exceeds 16384"):
            parse_spec("builtin:symmetric:8")

    def test_long_cycle_allocates_little_beyond_its_table(self):
        # 255 elements on 256 points: a 130 KB table, and no m x m x d array
        cycle = [*range(1, 255), 0, 255]
        tracemalloc.start()
        try:
            g = from_permutations(256, [cycle])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.order == 255
        assert peak < 4 * 2**20, peak


def test_every_builder_output_revalidates():
    for g in (
        dihedral(10),
        quaternion8(),
        symmetric(4),
        alternating(5),
        extraspecial2(2, "minus"),
        heisenberg(gf(3)),
        frobenius_cq_cn(5, 4, 2),
        direct_product(cyclic(2), dihedral(8)),
    ):
        assert brute_force_bad_triple(g.table) is None
        rebuilt = from_table(g.table, name=g.name)
        assert rebuilt.element_orders == g.element_orders
        assert rebuilt.identity == g.identity and np.array_equal(rebuilt.inverses, g.inverses)
        assert core._generators(rebuilt) == core._generators(g)
        assert g.element_orders == loop_element_orders(g.table, g.identity)


def relabelled_factors(oracle_pool):
    """One relabelled pool group (identity away from 0) of each order up to
    64, smallest first."""
    by_order = {g.order: g for g in oracle_pool if g.identity != 0 and g.order <= 64}
    return [by_order[n] for n in sorted(by_order)]


def inner_involution_spec(K):
    """K by a relabelled C2 acting by conjugation with K's first involution."""
    t = K.element_orders.index(2)
    H = relabel_group(cyclic(2), [1, 0])  # identity at 1
    action = [None, None]
    action[H.identity] = tuple(K.elements())
    action[1 - H.identity] = tuple(K.conj(x, t) for x in K.elements())
    return ActionSpec(K, H, tuple(action))


def constructions_of(oracle_pool):
    """construction -> the groups it makes from relabelled pool groups, at
    two orders or more each."""
    pool = relabelled_factors(oracle_pool)
    nonabelian = [g for g in pool if not is_abelian(g)]
    centered = [g for g in nonabelian if center(g).order > 1]
    pairable = [g for g in oracle_pool if g.identity != 0 and g.order <= 16 and center(g).order == 2 < g.order]

    def first_noncentral(g):
        return int(np.argmax(core._centralizer_orders(g) < g.order))

    return {
        "direct_product": [direct_product(a, b) for a, b in zip(pool[:3], pool[3:6])],
        "quotient": [quotient(g, center(g)).quotient for g in centered[:3]]
        + [quotient(g, derived_subgroup(g)).quotient for g in nonabelian[:3]],
        "subgroup_as_group": [subgroup_as_group(g, centralizer(g, first_noncentral(g))) for g in nonabelian[:3]]
        + [subgroup_as_group(g, derived_subgroup(g)) for g in nonabelian[3:6]],
        "semidirect": [semidirect(inner_involution_spec(K)) for K in pool if 2 in K.element_orders][:3],
        "central_product": [central_product(a, b) for a, b in zip(pairable[:3], pairable[1:4])],
    }


def builder_families():
    """handed-off builder -> its groups, at two orders or more except Q8."""
    return {
        "cyclic": [cyclic(n) for n in (1, 2, 7, 60, 255)],
        "elementary_abelian": [elementary_abelian(p, k) for p, k in ((2, 0), (2, 3), (3, 2), (2, 6), (5, 3))],
        "quaternion8": [quaternion8()],
        "heisenberg": [heisenberg(gf(p, e)) for p, e in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1))],
        "from_permutations": [symmetric(n) for n in (1, 3, 4, 5)]
        + [alternating(n) for n in (4, 5)]
        + [from_permutations(7, [(1, 2, 3, 4, 5, 6, 0), (0, 2, 4, 6, 1, 3, 5)])],
    }


class TestValidationBoundary:
    """Only outside tables run Light's test. direct_product, quotient,
    subgroup_as_group, semidirect and central_product, and the builders
    but dihedral, hand their tables to core._group; tier-1 proves them."""

    def test_builders_equal_their_revalidated_tables(self):
        rng = np.random.default_rng(31)
        for kind, groups in builder_families().items():
            assert kind == "quaternion8" or len({g.order for g in groups}) >= 2, kind
            for g in groups:
                name = (kind, g.name)
                rebuilt = from_table(g.table)
                assert g.identity == rebuilt.identity, name
                assert np.array_equal(g.inverses, rebuilt.inverses), name
                assert g.element_orders == rebuilt.element_orders, name
                assert core._generators(g) == core._generators(rebuilt), name
                if g.order <= 64:
                    assert brute_force_bad_triple(g.table) is None, name
                # a relabelled copy, identity away from 0 once order > 1,
                # compared through the relabelling
                perm = rng.permutation(g.order)
                if g.order > 1 and perm[g.identity] == g.identity:
                    perm = np.roll(perm, 1)
                moved = relabel_group(g, perm)
                assert moved.identity == perm[g.identity], name
                assert np.array_equal(moved.inverses[perm], perm[g.inverses]), name
                assert [moved.element_orders[y] for y in perm] == list(g.element_orders), name
                assert right_closure(moved, perm[list(core._generators(g))]) == set(range(g.order)), name

    def test_constructions_equal_their_revalidated_tables(self, oracle_pool):
        for kind, groups in constructions_of(oracle_pool).items():
            assert len({g.order for g in groups}) >= 2, kind
            assert any(g.identity != 0 for g in groups), kind
            for g in groups:
                name = (kind, g.name)
                rebuilt = from_table(g.table)
                assert g.identity == rebuilt.identity, name
                assert np.array_equal(g.inverses, rebuilt.inverses), name
                assert g.element_orders == rebuilt.element_orders, name
                assert core._generators(g) == core._generators(rebuilt), name
                if g.order <= 64:
                    assert brute_force_bad_triple(g.table) is None, name

    def test_only_the_constructions_skip_light(self, monkeypatch, tmp_path):
        # dihedral alone keeps from_table; extraspecial2 builds dihedral(8)
        d8, q8, s3 = dihedral(8), quaternion8(), symmetric(3)
        doubling = tuple(tuple(x * 2**j % 7 for x in range(7)) for j in range(3))
        c7, c3 = cyclic(7), cyclic(3)
        cayley, perm = tmp_path / "d8.cayley", tmp_path / "s3.perm"
        save_cayley(d8, cayley)
        perm.write_text("degree 3 generators 2\n1 0 2\n0 2 1\n")

        def fail(arr, gens):
            raise AssertionError("Light's test ran")

        monkeypatch.setattr(core, "_validate_light_associativity", fail)
        assert direct_product(d8, s3).order == 48
        assert quotient(d8, center(d8)).quotient.order == 4
        assert subgroup_as_group(s3, derived_subgroup(s3)).order == 3
        assert semidirect(ActionSpec(c7, c3, doubling)).order == 21
        assert central_product(d8, q8).order == 32
        assert load_permutations(perm).order == 6
        assert cyclic(5).order == 5
        assert elementary_abelian(2, 3).order == 8
        assert quaternion8().order == 8
        assert symmetric(3).order == 6
        assert alternating(4).order == 12
        assert heisenberg(gf(3)).order == 27
        assert frobenius_cq_cn(5, 4, 2).order == 20
        assert from_permutations(4, [(1, 2, 3, 0)]).order == 4
        for build in (
            lambda: from_table(d8.table),
            lambda: load_cayley(cayley),
            lambda: dihedral(10),
            lambda: extraspecial2(2, "minus"),
        ):
            with pytest.raises(AssertionError, match="^Light's test ran$"):
                build()

    def test_fresh_table_is_frozen_not_copied(self):
        table = dihedral(12).table.copy()
        g = core._group(table, "D12 fresh", dihedral(12).identity)
        assert g.table is table and not table.flags.writeable

    def test_direct_product_traced_peak(self):
        # the product table and the power walk's arrays: no copy, and no
        # n x n gather of Light's test
        a, b = dihedral(64), cyclic(32)
        tracemalloc.start()
        try:
            g = direct_product(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * g.table.nbytes, peak / g.table.nbytes
