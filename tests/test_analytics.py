"""Centralizer profiles, partitions, predicates, bounds."""

import random

import numpy as np
import pytest

from groupcent import (
    ActionSpec,
    CheckSettings,
    alternating,
    bounds,
    cent_count,
    central_partition,
    central_quotient,
    centralizer,
    conjugate_type,
    cyclic,
    derived_subgroup,
    dihedral,
    direct_product,
    elementary_abelian,
    exp_bound_holds,
    extraspecial2,
    frobenius_cq_cn,
    gcd_condition,
    gf,
    heisenberg,
    is_CA_group,
    is_F_group,
    is_I_group,
    is_elementary_abelian,
    is_extraspecial,
    is_perfect,
    is_semi_extraspecial,
    is_ultraspecial,
    is_abelian,
    isomorphic,
    nonabelian_centralizer_check,
    perfect_quotient_check,
    profile,
    quaternion8,
    quotient_centralizer_sandwich,
    run_check,
    semidirect,
    subgroup_as_group,
    symmetric,
    center,
    prime_power,
)
from groupcent import analytics, checks, core
from groupcent.analytics import _perfect_central_quotient
from groupcent.checks import _quotient_is_elementary
from groupcent.errors import (
    AbelianGroupError,
    BadN,
    BadParameter,
    CentralElementError,
    InvariantViolation,
    NotPerfectQuotient,
    PreconditionNotMet,
)

from conftest import (
    assert_centralizers_match_loops,
    formula_pair_checks,
    quotient_central_partition,
    quotient_has_exponent,
    quotient_is_elementary,
    quotient_is_extraspecial,
    quotient_sandwich_chains,
    quotient_semi_extraspecial,
    relabel_group,
    special_linear2,
    unique_rows_centralizers,
)


def brute_cent_count(G):
    """Oracle: dedupe raw centralizer element sets, counting G itself."""
    sets = set()
    for x in G.elements():
        sets.add(frozenset(h for h in G.elements() if G.mul(h, x) == G.mul(x, h)))
    return len(sets)


class TestProfile:
    @pytest.mark.parametrize(
        "builder,n",
        [
            (lambda: symmetric(3), 5),
            (lambda: alternating(4), 6),
            (lambda: symmetric(4), 14),
            (lambda: quaternion8(), 4),
            (lambda: dihedral(8), 4),
        ],
    )
    def test_known_counts(self, builder, n):
        assert cent_count(builder()) == n

    @pytest.mark.parametrize("half", [3, 5, 7, 9, 11, 13, 15, 6, 512, 515, 1023, 1024])
    def test_odd_dihedrals(self, half):
        # D_2m: the rotations, G, and for odd m one C(s) = {1, s} per
        # reflection s; for even m, z = r^(m/2) is central and the reflections
        # s and sz share C(s) = {1, z, s, sz}.
        want = half + 2 if half % 2 else half // 2 + 2
        assert cent_count(dihedral(2 * half)) == want

    def test_against_brute_oracle(self):
        sampled = CheckSettings(exhaustive_cap=0, sample_pairs=60, seed=11)
        for g in (
            symmetric(4),
            dihedral(12),
            frobenius_cq_cn(5, 4, 2),
            quaternion8(),
            alternating(5),
            heisenberg(gf(2, 2)),
            extraspecial2(3, "minus"),
            direct_product(symmetric(3), symmetric(3)),
            relabel_group(symmetric(4), [(7 * i + 3) % 24 for i in range(24)]),
            relabel_group(frobenius_cq_cn(7, 3, 2), [20 - i for i in range(21)]),
        ):
            assert cent_count(g) == brute_cent_count(g)
            assert_centralizers_match_loops(g, [CheckSettings(), sampled])

    def test_abelian_rejected(self):
        with pytest.raises(AbelianGroupError):
            profile(cyclic(6))

    def test_profile_structure(self):
        g = alternating(4)
        prof = profile(g)
        assert prof.n == len(prof.proper_centralizers) + 1
        zset = center(g).element_set
        for x in g.elements():
            if x in zset:
                continue
            c = prof.proper_centralizers[prof.element_to_centralizer[x]]
            assert c.elements == centralizer(g, x).elements
            assert x in prof.z_of[x]

    def test_proper_centralizers_sorted_canonically(self):
        prof = profile(symmetric(4))
        keys = [(c.order, c.elements) for c in prof.proper_centralizers]
        assert keys == sorted(keys)


class TestPredicates:
    def test_s4_not_f_group(self):
        assert not is_F_group(symmetric(4))

    def test_a4_is_f_group(self):
        assert is_F_group(alternating(4))

    def test_extraspecial_f_group(self):
        assert is_F_group(extraspecial2(2, "plus"))

    @pytest.mark.parametrize(
        "builder", [quaternion8, lambda: dihedral(8), lambda: alternating(4), lambda: dihedral(14)]
    )
    def test_ca_families(self, builder):
        assert is_CA_group(builder())

    def test_large_extraspecial_not_ca(self):
        assert not is_CA_group(extraspecial2(2, "plus"))

    def test_heisenberg_gf4_is_ca(self):
        assert is_CA_group(heisenberg(gf(2, 2)))

    def test_i_group(self):
        assert is_I_group(extraspecial2(2, "minus"))
        assert is_I_group(heisenberg(gf(3)))
        assert not is_I_group(symmetric(3))

    def test_ca_implies_f_over_samples(self):
        for g in (quaternion8(), dihedral(10), alternating(4), heisenberg(gf(2, 2))):
            assert not is_CA_group(g) or is_F_group(g)


class TestConjugateType:
    def test_heis3(self):
        ct = conjugate_type(heisenberg(gf(3)))
        assert (ct.is_uniform, ct.m, ct.p, ct.k) == (True, 3, 3, 1)

    def test_heis4(self):
        ct = conjugate_type(heisenberg(gf(2, 2)))
        assert (ct.is_uniform, ct.m, ct.p, ct.k) == (True, 4, 2, 2)

    def test_s3_not_uniform(self):
        assert not conjugate_type(symmetric(3)).is_uniform

    def test_uniform_iff_i_group(self):
        for g in (symmetric(4), quaternion8(), heisenberg(gf(5)), dihedral(12)):
            assert conjugate_type(g).is_uniform == is_I_group(g)


class TestCentralPartition:
    def test_a4_component_sizes(self):
        rep = central_partition(alternating(4))
        assert sorted(len(c) for c in rep.components) == [3, 3, 3, 3, 4]
        assert rep.is_partition and rep.is_normal and rep.witness is None

    def test_s4_overlap_witness(self):
        rep = central_partition(symmetric(4))
        assert not rep.is_partition
        assert rep.witness is not None and rep.witness["kind"] == "overlap"

    def test_extraspecial_partitions(self):
        for a, v in ((1, "plus"), (2, "minus"), (3, "plus")):
            rep = central_partition(extraspecial2(a, v))
            assert rep.is_partition and rep.is_normal

    def test_matches_f_group_on_assorted_groups(self):
        for g in (
            symmetric(3),
            symmetric(4),
            alternating(5),
            dihedral(16),
            heisenberg(gf(2, 2)),
            direct_product(symmetric(3), symmetric(3)),
        ):
            rep = central_partition(g)
            assert is_F_group(g) == (rep.is_partition and rep.is_normal)


def _plant_z_rows(monkeypatch, g, rows):
    """Make the record of g report the given proper Z rows, then Z(G)."""
    real = analytics._centralizers(g)
    fake = real._replace(z_rows=np.vstack([rows, real.z_rows[-1:]]))
    monkeypatch.setattr(analytics, "_centralizers", lambda G: fake)


def _frobenius_56():
    """C2^3:C7, the complement acting on the kernel as the units of GF(8)
    act on its additive group. It is centerless, so G/Z is G."""
    f = gf(2, 3)
    units = [1]
    for _ in range(6):
        units.append(f.mul(units[-1], 2))
    action = tuple(tuple(f.mul(u, v) for v in range(8)) for u in units)
    return semidirect(ActionSpec(elementary_abelian(2, 3), cyclic(7), action), name="C2^3:C7")


class TestPlantedPartitionPasses:
    # planted Z rows that no group reports: each closure case must raise
    # what the quotient oracle raises, and the normality pass must give its
    # witness
    REFUSED = "^a projected component is not a nontrivial subgroup$"

    def _assert_refused(self, g):
        for route in (central_partition, quotient_central_partition):
            with pytest.raises(InvariantViolation, match=self.REFUSED):
                route(g)

    def test_non_closed_row_in_a_class_of_several(self, monkeypatch):
        # D10: five Z rows {1, s} of size 2, then the rotations; the middle
        # one of the five becomes {s0, s1}, which lacks s0 s0 = 1
        g = dihedral(10)
        rows = analytics._centralizers(g).z_rows[:-1].copy()
        assert core._row_counts(rows).tolist() == [2, 2, 2, 2, 2, 5]
        rows[2] = rows[0] ^ rows[1]
        _plant_z_rows(monkeypatch, g, rows)
        self._assert_refused(g)

    def test_non_closed_row_alone_in_its_class(self, monkeypatch):
        # the rotations of D10 with one of them swapped for a reflection
        g = dihedral(10)
        rows = analytics._centralizers(g).z_rows[:-1].copy()
        rows[5] ^= rows[0]
        assert core._row_counts(rows).tolist() == [2, 2, 2, 2, 2, 5]
        _plant_z_rows(monkeypatch, g, rows)
        self._assert_refused(g)

    def test_non_closed_row_in_a_later_chunk(self, monkeypatch):
        # with room for two rows of the size-2 class per gather, the class
        # splits into three chunks and the planted row is in the last
        g = dihedral(10)
        real = analytics._centralizers(g)
        weight = g.order + 3 * 2 * 2
        monkeypatch.setattr(analytics, "_GATHER_LIMIT", 2 * weight)
        assert [(c.start, c.stop) for c in analytics._chunks(np.full(5, weight))] == [(0, 2), (2, 4), (4, 5)]
        assert analytics._rows_closed(g, real.z_rows)
        rows = real.z_rows[:-1].copy()
        rows[4] = rows[0] ^ rows[1]
        _plant_z_rows(monkeypatch, g, rows)
        self._assert_refused(g)

    def test_component_of_one_coset(self, monkeypatch):
        # D12 has Z(G) = {1, r^3}: a Z row equal to it is a closed set of two
        # elements that projects to the identity coset alone
        g = dihedral(12)
        real = analytics._centralizers(g)
        rows = real.z_rows[:-1].copy()
        rows[1] = real.z_rows[-1]
        assert core._row_counts(rows)[1] == 2
        _plant_z_rows(monkeypatch, g, rows)
        self._assert_refused(g)

    def test_partition_that_is_not_normal(self, monkeypatch):
        # C2^3:C7 is partitioned by one plane of the kernel, the four kernel
        # elements off it (each with the identity), and the eight Sylow
        # 7-subgroups; the complement moves the plane, so the family is not
        # normal
        g = _frobenius_56()
        real = analytics._centralizers(g)
        plane = np.zeros(g.order, dtype=bool)
        plane[[7 * v for v in range(4)]] = True
        lines = np.zeros((4, g.order), dtype=bool)
        lines[:, g.identity] = True
        lines[np.arange(4), [7 * v for v in range(4, 8)]] = True
        sylow = [r for r in real.z_rows[:-1] if r.sum() == 7]
        assert len(sylow) == 8
        _plant_z_rows(monkeypatch, g, np.vstack([plane, lines, sylow]))
        rep = central_partition(g)
        assert rep.is_partition and not rep.is_normal
        assert rep.witness["kind"] == "not-normal"
        assert rep == quotient_central_partition(g)


class TestCentralizerRows:
    def test_match_unique_rows_oracle(self, oracle_pool):
        # the pool and a relabelled copy of each of its groups, so the
        # canonical order is checked under relabelling
        copies = [
            relabel_group(g, random.Random(g.order + 1).sample(range(g.order), g.order))
            for g in oracle_pool if not is_abelian(g)
        ]
        for g in oracle_pool + copies:
            if is_abelian(g):
                continue
            got, want = analytics._centralizers(g), unique_rows_centralizers(g)
            for field, a, b in zip(want._fields, got, want):
                assert a.dtype == b.dtype and np.array_equal(a, b), (g.name, field)

    @pytest.mark.parametrize(
        "build",
        [lambda: dihedral(8), lambda: symmetric(4), lambda: dihedral(12)],
        ids=["D8", "S4", "D12"],
    )
    def test_z_containment_is_its_own_subset_test(self, build):
        # K with one bit flipped in one direction only still passes the count,
        # sandwich and covering checks. contains is read at the row
        # representatives and np1 tests Z(y) <= Z(x) on the Z rows, so they
        # disagree and np1 fails; a subset side read off contains would let
        # np1 pass. The bit goes into the group's memo entry for the packed K,
        # so the centralizer orders are counted from the same planted K.
        k = analytics._commuting_matrix(build()).copy()
        k[1, 0] ^= 0x80
        g = build()
        g._memo[core._commuting_matrix.__wrapped__] = k
        cz = analytics._centralizers(g)
        assert analytics._centralizer_orders(g)[1] == np.unpackbits(k[1]).sum()
        got = run_check("np1", g)
        assert got.status == checks.FAIL
        assert (got.status, dict(got.details)) == formula_pair_checks(g, CheckSettings(), cz)["np1"]

    def test_record_keeps_no_copy_of_k(self):
        # one Z row per centralizer, one contains bit per pair of rows, and a
        # few words per element and per row: no row of K and no containment
        # matrix of the Z rows
        g = dihedral(1030)
        cz = analytics._centralizers(g)
        m, n = cz.reps.size, g.order
        assert m == 517
        assert sum(a.nbytes for a in cz) <= m * n + m * m + 16 * (n + m)


class TestCosetLabels:
    @pytest.mark.parametrize(
        "pool",
        ["catalog_groups", "semi_pool", "family_pool", "central_series_pool", "centerless_pool"],
    )
    def test_match_quotient_oracles(self, request, pool):
        groups = request.getfixturevalue(pool)
        if isinstance(groups, dict):
            groups = list(groups.values())
            groups += [
                relabel_group(g, random.Random(g.order).sample(range(g.order), g.order))
                for g in groups if g.order <= 128 and not is_abelian(g)
            ]
        for g in groups:
            reps, label = analytics._central_cosets(g)
            assert label.tolist() == list(central_quotient(g).projection)
            assert reps.tolist() == [label.tolist().index(c) for c in range(reps.size)]
            for p in (2, 3, 5):
                assert analytics._pth_powers_central(g, p) == quotient_has_exponent(g, p), g.name
                for k in (2, 4):
                    want = quotient_is_elementary(g, p, k)
                    assert _quotient_is_elementary(g, p, k) == want, (g.name, p, k)
            if is_abelian(g):
                continue
            assert central_partition(g) == quotient_central_partition(g), g.name
            assert analytics._sandwich_chains(g) == quotient_sandwich_chains(g), g.name

    def test_planted_uncovered_coset(self, monkeypatch):
        # every real family covers G/Z, so drop one reflection's Z(x) from a
        # relabelled S3: the rest neither covers G/Z nor is conjugation-closed
        g = relabel_group(symmetric(3), [4, 2, 5, 0, 3, 1])
        real = analytics._centralizers(g)
        fake = real._replace(z_rows=real.z_rows[1:])
        monkeypatch.setattr(analytics, "_centralizers", lambda G: fake)
        rep = central_partition(g)
        assert rep == quotient_central_partition(g)
        assert rep.witness["kind"] == "uncovered" and not rep.is_normal

    def test_planted_nonabelian_quotient(self, monkeypatch):
        # no group here has a non-abelian G/Z of order p^4 and exponent p, so
        # plant G' = G in Heis(9), whose G/Z is C3^4
        g = heisenberg(gf(3, 2))
        assert _quotient_is_elementary(g, 3, 4)
        monkeypatch.setattr(checks, "_derived_elements", lambda G: np.arange(G.order))
        assert not _quotient_is_elementary(g, 3, 4)


class TestSpecialPGroups:
    def test_extraspecial_by_construction(self):
        assert is_extraspecial(extraspecial2(2, "minus"))
        assert is_extraspecial(heisenberg(gf(3)))

    def test_d8_c2_not_extraspecial(self):
        g = direct_product(dihedral(8), cyclic(2))
        assert not is_extraspecial(g)
        assert center(g).order == 4 and derived_subgroup(g).order == 2

    def test_heis4_semi_and_ultra(self):
        g = heisenberg(gf(2, 2))
        assert is_semi_extraspecial(g) and is_ultraspecial(g)
        assert derived_subgroup(g).order == 4  # sqrt of [G : G'] = 16

    def test_heis8_ultraspecial_but_not_p6(self):
        g = heisenberg(gf(2, 3))
        assert is_ultraspecial(g)

    def test_extraspecial_is_semi(self):
        assert is_semi_extraspecial(quaternion8())
        assert is_ultraspecial(quaternion8())  # |G'| = 2, [G:G'] = 4

    def test_abelian_not_special(self):
        assert not is_extraspecial(elementary_abelian(2, 3))
        assert not is_semi_extraspecial(cyclic(8))

    def test_criterion_matches_quotient_route(self, catalog_groups, semi_pool):
        """Beisiegel's criterion agrees with building G/N for every maximal
        N in the center, and is_extraspecial with the direct test."""
        for g in [*catalog_groups.values(), *semi_pool]:
            assert is_semi_extraspecial(g) == quotient_semi_extraspecial(g), g.name
            assert is_extraspecial(g) == quotient_is_extraspecial(g), g.name
        special = [
            g for g in semi_pool
            if derived_subgroup(g).elements == center(g).elements
            and is_elementary_abelian(central_quotient(g).quotient, prime_power(g.order)[0])
        ]
        semi = [quotient_semi_extraspecial(g) for g in special]
        # the pool holds special groups on both sides of the criterion
        assert True in semi and False in semi
        assert any(quotient_semi_extraspecial(g) for g in semi_pool if center(g).order > 2)


class TestBounds:
    def test_exact_power_of_two_path(self):
        rep = bounds(12, 100)
        assert rep.bound_f == 100
        assert rep.bound_general == 1024  # 2 * 8^3
        assert rep.satisfied == {
            "bound_f": True,
            "bound_general": True,
            "factorial_bound": True,
        }

    def test_n5(self):
        assert bounds(5, 9).bound_f == 9

    def test_regime_comparison_n12(self):
        rep = bounds(12, 1)
        assert rep.bound_f == 100 < rep.bound_general == 1024

    def test_small_n_edge(self):
        rep = bounds(4, 4)
        assert rep.bound_general == 4 and rep.satisfied["bound_general"] is True

    def test_violation_detected(self):
        rep = bounds(5, 10)
        assert rep.satisfied["bound_f"] is False
        assert rep.satisfied["bound_general"] is False  # 10 > max(9, 2)

    def test_transcendental_branch(self):
        rep = bounds(13, 400)  # (n-2)^2 = 121 < 400 <= 2*9^log2(9) ~ 2120
        assert rep.satisfied["bound_general"] is True
        rep2 = bounds(13, 4000)
        assert rep2.satisfied["bound_general"] is False

    def test_general_verdict_above_eleven_is_the_exponential_one(self):
        # the sb1 check reads bound_general for n > 11, where (n-2)^2 lies
        # below 2(n-4)^log2(n-4); q runs across both
        for n in range(12, 64):
            edge = int(bounds(n, 1).bound_general)
            for q in (1, (n - 2) ** 2, (n - 2) ** 2 + 1, edge - 1, edge, edge + 1):
                assert bounds(n, q).satisfied["bound_general"] == exp_bound_holds(q, n), (n, q)

    def test_factorial_strictness(self):
        assert bounds(4, 6).satisfied["factorial_bound"] is False  # 6 = 3! not < 3!

    def test_bad_n(self):
        with pytest.raises(BadN):
            bounds(3, 4)

    # n = 20 takes the exact branch (16 = 2^4) and n = 21 the decimal one,
    # where ln(-3/2) raised decimal.InvalidOperation
    @pytest.mark.parametrize("n", [20, 21])
    @pytest.mark.parametrize("q", [0, -3])
    def test_quotient_order_below_one_refused(self, n, q):
        for bound in (lambda: bounds(n, q), lambda: exp_bound_holds(q, n), lambda: gcd_condition(n, q)):
            with pytest.raises(BadN, match=r"^quotient order must be positive$"):
                bound()


class TestGcdCondition:
    def test_examples(self):
        assert gcd_condition(16, 16)  # gcd(14, 16) = 2
        assert gcd_condition(6, 12)  # gcd(4, 12) = 4
        assert not gcd_condition(5, 8)  # gcd(3, 8) = 1


class TestSandwich:
    def test_q8(self):
        g = quaternion8()
        i = next(x for x in g.elements() if g.element_orders[x] == 4)
        assert quotient_centralizer_sandwich(g, i) == (2, 4, 4)

    def test_a4_three_cycle(self):
        g = alternating(4)
        c = next(x for x in g.elements() if g.element_orders[x] == 3)
        assert quotient_centralizer_sandwich(g, c) == (3, 3, 3)

    def test_extraspecial32(self):
        g = extraspecial2(2, "plus")
        x = next(x for x in g.elements() if x not in center(g).element_set)
        assert quotient_centralizer_sandwich(g, x) == (8, 16, 16)

    def test_d12_middle_below_upper(self):
        # D12/Z is S3: a rotation of order 6 maps to a 3-cycle, a reflection
        # to a transposition, and both centralize less there than in D12
        g = dihedral(12)
        zg = center(g).element_set
        r = next(x for x in g.elements() if g.element_orders[x] == 6)
        s = next(x for x in g.elements() if g.element_orders[x] == 2 and x not in zg)
        assert quotient_centralizer_sandwich(g, r) == (3, 3, 6)
        assert quotient_centralizer_sandwich(g, s) == (2, 2, 4)

    def test_central_element_rejected(self):
        g = quaternion8()
        with pytest.raises(CentralElementError):
            quotient_centralizer_sandwich(g, g.identity)

    @pytest.mark.parametrize("x", [-1, 8, 1.5], ids=["negative", "order", "float"])
    def test_out_of_range_element_rejected(self, x):
        g = dihedral(8)
        with pytest.raises(BadParameter):
            quotient_centralizer_sandwich(g, x)

    def test_bool_element_is_its_integer(self):
        g = symmetric(3)
        assert quotient_centralizer_sandwich(g, True) == quotient_centralizer_sandwich(g, 1)


class TestPerfectQuotient:
    def test_order_count_matches_quotient(self, catalog_groups, semi_pool, family_pool):
        # in SL(2,5) the center lies inside G' = G, so |G' n Z| counts
        sl25 = special_linear2(5)
        verdicts = set()
        for g in [*catalog_groups.values(), *semi_pool, *family_pool, sl25]:
            want = is_perfect(central_quotient(g).quotient)
            assert _perfect_central_quotient(g) == want, g.name
            verdicts.add(want)
        assert verdicts == {True, False}
        assert center(sl25).order == 2 and run_check("cg118", sl25).status == "pass"

    def test_c6_x_a5(self):
        g = direct_product(cyclic(6), alternating(5))
        rep = perfect_quotient_check(g)
        assert rep.cent_count == rep.derived_cent_count == 22
        assert rep.derived_order == 60

    def test_report_is_memoized(self, monkeypatch):
        groups = [alternating(5), direct_product(cyclic(6), alternating(5))]
        first = [perfect_quotient_check(g) for g in groups]

        def fail(G, H):
            raise AssertionError("derived subgroup rebuilt")

        monkeypatch.setattr(analytics, "subgroup_as_group", fail)
        assert [perfect_quotient_check(g) for g in groups] == first
        assert [run_check("cg118", g).status for g in groups] == ["pass", "pass"]

    def test_a5_trivial_case(self):
        rep = perfect_quotient_check(alternating(5))
        assert rep.cent_count == rep.derived_cent_count == 22

    def test_s4_rejected(self):
        with pytest.raises(NotPerfectQuotient):
            perfect_quotient_check(symmetric(4))

    def test_oracle_count_for_a5(self):
        g = alternating(5)
        sets = set()
        for x in g.elements():
            sets.add(frozenset(h for h in g.elements() if g.mul(h, x) == g.mul(x, h)))
        assert len(sets) == 22


class TestNonabelianCentralizers:
    @pytest.mark.parametrize("a,v", [(2, "plus"), (2, "minus"), (3, "plus"), (3, "minus")])
    def test_extraspecial_pass(self, a, v):
        assert nonabelian_centralizer_check(extraspecial2(a, v))

    @pytest.mark.parametrize("builder", [lambda: dihedral(8), quaternion8])
    def test_boundary_rejected(self, builder):
        with pytest.raises(PreconditionNotMet):
            nonabelian_centralizer_check(builder())

    def test_non_p_group_rejected(self):
        with pytest.raises(PreconditionNotMet):
            nonabelian_centralizer_check(symmetric(4))


class TestQuotientIsomorphismTargets:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_heisenberg_central_quotient_cp_cp(self, p):
        g = heisenberg(gf(p))
        assert cent_count(g) == p + 2
        assert isomorphic(central_quotient(g).quotient, elementary_abelian(p, 2))

    @pytest.mark.parametrize("p", [2, 3])
    def test_heisenberg_square_field(self, p):
        g = heisenberg(gf(p, 2))
        n = cent_count(g)
        assert n == p**2 + 2
        q = central_quotient(g).quotient
        assert q.order == p**4 == (n - 2) ** 2
        assert isomorphic(q, elementary_abelian(p, 4))

    def test_derived_as_group(self):
        g = direct_product(cyclic(6), alternating(5))
        d = subgroup_as_group(g, derived_subgroup(g))
        assert d.order == 60 and cent_count(d) == 22
