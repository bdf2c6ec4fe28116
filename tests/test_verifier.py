"""Check registry, suite mechanics, catalog, and search."""

import dataclasses
import gc
import json
import random
import sys
import threading
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from groupcent import (
    CatalogEntry,
    CheckSettings,
    SearchQuery,
    alternating,
    analytics,
    central_quotient,
    checks,
    conjugate_type,
    cyclic,
    default_catalog,
    dihedral,
    direct_product,
    elementary_abelian,
    extraspecial2,
    frobenius_cq_cn,
    gf,
    heisenberg,
    is_abelian,
    is_CA_group,
    is_I_group,
    isomorphic,
    prime_power,
    quaternion8,
    run_check,
    run_suite,
    search,
    specs,
    symmetric,
)
from groupcent.analytics import ConjugateTypeReport
from groupcent.cli import _load_catalog_file, build_analysis
from groupcent.checks import DEFAULT_SEED, _known_family, _pair_verdict, _quotient_is_elementary, check_ids
from groupcent.errors import BadParameter, InvariantViolation, UnknownCheckId
from groupcent.specs import parse_spec

from conftest import (
    LOOP_CHECKS,
    formula_pair_checks,
    iso_known_family,
    loop_check_npcor1,
    loop_commute_pairwise,
    loop_pairs,
    loop_is_frobenius_prime_cyclic,
    loop_profile,
    relabel_group,
)

# the full check index; a registry drift is a bug
EXPECTED_CHECK_IDS = (
    "np1", "co1", "npcor1", "np155", "zclass1", "zclass5",
    "1np", "np22", "np2",
    "bc1a", "bc1b", "1sb", "sb1", "bbc", "xx",
    "5sb", "52sb", "np2b", "np2a",
    "semi", "bbu",
    "np12a", "np12b", "t1", "thm1", "ccor1", "cg118", "za1", "tom11",
)


def test_registry_matches_expected_index():
    assert check_ids() == EXPECTED_CHECK_IDS


def test_unknown_check_id():
    with pytest.raises(UnknownCheckId):
        run_check("nonsense", symmetric(3))


class TestRunCheck:
    def test_np12a_frobenius_equality(self):
        r = run_check("np12a", frobenius_cq_cn(7, 3, 2))
        assert r.status == "pass"
        assert r.details["n"] == 9 and r.details["q"] == 7
        assert r.details["equality"] and r.details["frobenius_prime_kernel"]

    def test_t1_extraspecial_equality(self):
        r = run_check("t1", extraspecial2(2, "minus"))
        assert r.status == "pass"
        assert r.details["n"] == 16 and r.details["equality"]

    def test_za1_boundary_skip(self):
        r = run_check("za1", dihedral(8))
        assert r.status == "skip"
        assert "does not exceed" in r.details["reason"]

    def test_abelian_group_skips(self):
        r = run_check("np1", cyclic(12))
        assert r.status == "skip" and "abelian" in r.details["reason"]

    def test_pair_verdict_names_the_first_failing_pair(self):
        # no catalog group fails a pair check, so feed the verdict directly
        g, s = dihedral(8), CheckSettings()
        pairs = np.array([[0, 1], [2, 3], [4, 5]])
        ok = np.array([True, False, False])
        assert _pair_verdict(g, s, pairs, ok, ("x", "g")) == ("fail", {"x": 2, "g": 3})
        passed = _pair_verdict(g, s, pairs, ok | True, ("x", "y"))
        assert passed == ("pass", {"mode": "exhaustive", "pairs": 3})

    def test_sampled_draw_at_edge_settings(self):
        # no pairs at all, a negative seed (random.Random seeds with its
        # absolute value) and a seed past 64 bits, against the int oracle
        g = dihedral(128)
        for s in (CheckSettings(sample_pairs=0), CheckSettings(seed=-7), CheckSettings(seed=2**100 + 1)):
            for xs in ([5], [1, 64, 127], list(range(128))):
                drawn = checks._pairs(g, s, xs)
                assert drawn.shape == (s.sample_pairs, 2) and drawn.dtype == np.int64
                assert drawn.tolist() == [list(p) for p in loop_pairs(g, s, xs)[1]], (s, xs)
        assert (checks._pairs(g, CheckSettings(seed=-7), range(128))
                == checks._pairs(g, CheckSettings(seed=7), range(128))).all()
        got = run_check("np1", g, CheckSettings(sample_pairs=0))
        assert (got.status, dict(got.details)) == ("pass", {"mode": "sampled", "pairs": 0})

    @pytest.mark.parametrize("bad", [-1, 2.5, "200"], ids=["negative", "float", "str"])
    def test_sample_pairs_must_be_a_non_negative_integer(self, bad):
        # a negative count reached random.getrandbits, whose ValueError lost every suite row
        with pytest.raises(BadParameter, match=r"^sample_pairs must be a non-negative integer, got "):
            CheckSettings(sample_pairs=bad)

    def test_bound_report_is_computed_once_per_group(self, monkeypatch):
        g = symmetric(4)
        cold = {cid: run_check(cid, g) for cid in ("1sb", "bc1b")}
        body = build_analysis(g)

        def refuse(n, q_order):
            raise RuntimeError("bounds recomputed")

        monkeypatch.setattr(checks, "bounds", refuse)
        want = {"n": 14, "quotient_order": 24, "bound_general": 4197.184791733326}
        for cid, row in cold.items():
            warm = run_check(cid, g)
            assert warm == row and (warm.status, warm.details) == ("pass", want)
        assert build_analysis(g) == body
        # sb1 and bbc, run for the first time, read the same report
        assert run_check("sb1", g).status == run_check("bbc", g).status == "pass"
        with pytest.raises(RuntimeError, match="bounds recomputed"):
            run_check("1sb", symmetric(4))

    def test_every_skip_has_reason(self, catalog_groups):
        for g in catalog_groups.values():
            for cid in EXPECTED_CHECK_IDS:
                r = run_check(cid, g)
                if r.status == "skip":
                    assert r.details.get("reason"), (cid, g.name)

    def test_np12b_s3_equality(self):
        r = run_check("np12b", symmetric(3))
        assert r.status == "pass" and r.details["equality"] and r.details["is_S3"]

    def test_thm1_and_ccor1_family_labels(self):
        r = run_check("thm1", alternating(4))
        assert r.status == "pass" and r.details["family"] == "A4"
        r = run_check("ccor1", quaternion8())
        assert r.status == "pass" and r.details["family"] == "Q8"

    def test_bbu_heisenberg_witness(self):
        from groupcent import gf, heisenberg

        r = run_check("bbu", heisenberg(gf(2, 2)))
        assert r.status == "pass"
        assert r.details["abelian_proper_centralizers"] == 5
        assert r.details["covers_group"] and r.details["ca_group"]
        r9 = run_check("bbu", heisenberg(gf(3, 2)))
        assert r9.status == "pass"
        assert r9.details["abelian_proper_centralizers"] == 10


class TestCheckMemo:
    """run_check keeps its results in the group's own memo under the check
    function, as memoized keeps any derived value; a sampled check's result
    above the exhaustive cap depends on the seed and is never stored."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """check id -> number of times its function ran, through a counting
        wrapper put into the registry in place of every check."""
        counts = Counter()
        for cid, (fn, doc) in list(checks.REGISTRY.items()):
            def counting(G, s, fn=fn, cid=cid):
                counts[cid] += 1
                return fn(G, s)

            monkeypatch.setitem(checks.REGISTRY, cid, (counting, doc))
        return counts

    @staticmethod
    def run_all(g, settings):
        return [run_check(cid, g, settings) for cid in check_ids()]

    @staticmethod
    def runs(sampled, other):
        """The call counts when each sampled check ran `sampled` times and
        every other check `other` times."""
        return Counter({cid: sampled if cid in checks.SAMPLED_CHECKS else other for cid in check_ids()})

    def test_small_group_runs_each_check_once_across_seeds(self, calls):
        g = symmetric(4)
        rows = [self.run_all(g, CheckSettings(seed=seed)) for seed in (1, 2, 3)]
        assert calls == Counter(dict.fromkeys(check_ids(), 1))
        assert rows[0] == rows[1] == rows[2]
        assert all(a is b for a, b in zip(rows[0], rows[2]))

    def test_sampled_group_reruns_for_each_new_seed(self, calls):
        # and for a repeated seed too: no sampled result is kept to reuse
        g = heisenberg(gf(3, 2))
        assert g.order > CheckSettings().exhaustive_cap
        rows = [self.run_all(g, CheckSettings(seed=seed)) for seed in (1, 1, 2, 2, 1)]
        assert calls == self.runs(5, 1)
        assert rows[0] == rows[1] == rows[4] and rows[2] == rows[3]

    def test_sampled_group_holds_no_sampled_result(self, calls):
        g = heisenberg(gf(3, 2))
        rows = [self.run_all(g, CheckSettings(seed=seed)) for seed in range(50)]
        stored = {fn for fn, _ in checks.REGISTRY.values()} & set(g._memo)
        assert stored == {fn for cid, (fn, _) in checks.REGISTRY.items() if cid not in checks.SAMPLED_CHECKS}
        assert len(stored) == len(checks.REGISTRY) - 3 == 26
        for first, last in zip(rows[0], rows[-1]):
            if first.check_id in checks.SAMPLED_CHECKS:
                assert first is not last
            else:
                assert first is last is g._memo[checks.REGISTRY[first.check_id][0]], first.check_id
        assert calls == self.runs(50, 1)

    def test_exhaustive_cap_decides_what_is_stored(self, calls):
        g = symmetric(4)
        default = self.run_all(g, CheckSettings())
        sampled = self.run_all(g, CheckSettings(exhaustive_cap=0))
        assert self.run_all(g, CheckSettings(exhaustive_cap=0)) == sampled
        assert calls == self.runs(3, 1)
        modes = [r.details.get("mode") for r in (default[0], sampled[0])]
        assert modes == ["exhaustive", "sampled"]
        self.run_all(g, CheckSettings(exhaustive_cap=0, seed=1))
        self.run_all(g, CheckSettings(exhaustive_cap=0, sample_pairs=10, seed=1))
        assert calls == self.runs(5, 1)
        # at order <= the cap the exhaustive result is stored, whatever the seed
        assert self.run_all(g, CheckSettings(seed=7)) == default
        assert all(a is b for a, b in zip(self.run_all(g, CheckSettings(seed=8)), default))
        assert calls == self.runs(5, 1)

    def test_exceptions_are_not_cached(self, monkeypatch):
        failures = iter([InvariantViolation("first call fails")])

        def flaky(G, s):
            for exc in failures:
                raise exc
            return "pass", {"ran": True}

        monkeypatch.setitem(checks.REGISTRY, "bbc", (flaky, "patched"))
        g = symmetric(4)
        with pytest.raises(InvariantViolation):
            run_check("bbc", g)
        assert run_check("bbc", g).details == {"ran": True}

    def test_threads_alternating_seeds_get_their_own_results(self, monkeypatch):
        # each result names the seed it was computed under, so a result filed
        # under another thread's key would show up as a wrong seed; the check
        # yields the interpreter as a numpy kernel would. It stands in for a
        # sampled check, as only those are keyed by the seed.
        def echo(G, s):
            time.sleep(0)
            return "pass", {"seed": s.seed}

        monkeypatch.setitem(checks.REGISTRY, "np1", (echo, "patched"))
        g = symmetric(4)
        wrong = []

        def worker(k):
            for i in range(300):
                seed = (i + k) % 3
                got = run_check("np1", g, CheckSettings(exhaustive_cap=0, seed=seed))
                if got.details["seed"] != seed:
                    wrong.append((seed, got.details["seed"]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
        assert echo not in g._memo

    def test_new_seed_reruns_only_the_sampled_checks(self, calls):
        g = dihedral(128)
        assert g.order > CheckSettings().exhaustive_cap
        first = self.run_all(g, CheckSettings(seed=1))
        assert calls == self.runs(1, 1)
        second = self.run_all(g, CheckSettings(seed=2))
        assert calls == self.runs(2, 1)
        assert second == first
        assert all((a is b) == (a.check_id not in checks.SAMPLED_CHECKS) for a, b in zip(first, second))

    def test_unsampled_checks_read_no_settings(self, catalog_groups):
        # a check outside SAMPLED_CHECKS is memoized under the key None, so it
        # must give one result whatever the settings: two settings that differ
        # in every field agree, and so does settings that refuse to be read
        class Unreadable:
            def __getattr__(self, name):
                raise AssertionError(f"read settings.{name}")

        a = CheckSettings()
        b = CheckSettings(exhaustive_cap=0, sample_pairs=7, seed=a.seed + 1)
        groups = [g for g in catalog_groups.values() if not is_abelian(g)]
        groups += [dihedral(128), heisenberg(gf(3, 2))]
        unsampled = [(cid, fn) for cid, (fn, _) in checks.REGISTRY.items()
                     if cid not in checks.SAMPLED_CHECKS]
        assert len(unsampled) == len(checks.REGISTRY) - 3
        for g in groups:
            for cid, fn in unsampled:
                assert fn(g, a) == fn(g, b) == fn(g, Unreadable()), (cid, g.name)

    def test_shared_result_is_not_exposed_through_as_dict(self):
        g = symmetric(4)
        row = run_check("np1", g).as_dict()
        row["details"]["pairs"] = -1
        assert run_check("np1", g).details["pairs"] == 24 * 24


class TestCentralizerRows:
    @pytest.mark.parametrize(
        "pool", ["catalog_groups", "family_pool", "central_series_pool", "centerless_pool"]
    )
    def test_match_loop_oracles(self, request, pool):
        groups = request.getfixturevalue(pool)
        s = CheckSettings()
        for g in groups.values() if isinstance(groups, dict) else groups:
            if is_abelian(g):
                continue
            frob = checks._is_frobenius_prime_cyclic(g)
            assert frob == loop_is_frobenius_prime_cyclic(g), g.name
            for cid, loop in LOOP_CHECKS.items():
                got = run_check(cid, g, s)
                assert (got.status, dict(got.details)) == loop(g, s), (cid, g.name)
                json.dumps(got.details)
            proper, _ = loop_profile(g)
            assert is_CA_group(g) == all(loop_commute_pairwise(g, c) for c in proper), g.name
            orders = {len(c) for c in proper}
            assert is_I_group(g) == (len(orders) == 1), g.name
            indices = {g.order // o for o in orders}
            want = ConjugateTypeReport(is_uniform=False)
            if len(indices) == 1:
                m = indices.pop()
                want = ConjugateTypeReport(True, m, *(prime_power(m) or (None, None)))
            ct = conjugate_type(g)
            assert ct == want, g.name
            json.dumps([ct.m, ct.p, ct.k])

    def test_npcor1_names_the_first_containment_in_row_major_order(self, monkeypatch):
        # no group fails npcor1, so plant containments in A5's rows: rows 0-9
        # are its C3s, 10-14 its V4s (not of prime order) and 15-20 its C5s
        g = alternating(5)
        real = analytics._centralizers(g)
        assert analytics._proper_sizes(g)[[0, 10, 15, 20]].tolist() == [3, 4, 5, 5]
        contains = real.contains.copy()
        for i, j in ((10, 0), (16, 2), (15, 20)):
            assert not contains[i, j]
            contains[i, j] = True
        fake = real._replace(contains=contains)
        for module in (analytics, checks):
            monkeypatch.setattr(module, "_centralizers", lambda G: fake)
        got = run_check("npcor1", g)
        assert (got.status, dict(got.details)) == loop_check_npcor1(g, CheckSettings())
        assert got.details == {"prime_centralizer": 15, "containing_centralizer": 20}

    @pytest.mark.parametrize(
        "field,i,j,readers",
        [
            ("contains", 2, 7, {"np1"}),
            # Z_4 gains 7 and stops lying in two other Z rows, which co1 reads too
            ("z_rows", 4, 7, {"np1", "co1", "zclass1"}),
            # Z_3 gains 5, whose Z(5) then lies in it: co1 stays consistent
            ("z_rows", 3, 5, {"np1", "zclass1"}),
        ],
        ids=["contains-2-7", "z_rows-4-7", "z_rows-3-5"],
    )
    def test_planted_bit_matches_formula_witnesses(self, monkeypatch, field, i, j, readers):
        # no group fails np1, co1 or zclass1, so flip one bit of a relabelled
        # S4's arrays; the first failing pair, in pair order, is the witness.
        # The two sampled settings differ only in the seed, and the planted
        # contains and z_rows bits are first hit at different pairs under
        # them, so a memo that ignored the seed would return a stale witness.
        g = relabel_group(symmetric(4), random.Random(4).sample(range(24), 24))
        real = analytics._centralizers(g)
        planted = getattr(real, field).copy()
        planted[i, j] ^= True
        fake = real._replace(**{field: planted})
        monkeypatch.setattr(checks, "_centralizers", lambda G: fake)
        sampled = (CheckSettings(exhaustive_cap=0), CheckSettings(exhaustive_cap=0, seed=1))
        for s in (CheckSettings(), *sampled):
            want = formula_pair_checks(g, s, fake)
            for cid, expected in want.items():
                got = run_check(cid, g, s)
                assert (got.status, dict(got.details)) == expected, (cid, s)
            if s.exhaustive_cap:
                assert {cid for cid, (status, _) in want.items() if status == "fail"} == readers

    @pytest.mark.parametrize(
        "i,j,same_size,image_inside",
        [
            # a reflection row of D128 gains an element: at the first failing
            # pair it is Z(x^g), so only the size test tells them apart
            (1, 3, False, True),
            (1, 40, False, True),
            # the rotation row gains or loses an element, and conjugation keeps
            # rotations there: one size, so only the image test catches it
            (32, 0, True, False),
            (32, 17, True, False),
        ],
        ids=["size-1-3", "size-1-40", "image-32-0", "image-32-17"],
    )
    def test_planted_z_row_matches_the_pull_formula_when_sampled(
        self, monkeypatch, i, j, same_size, image_inside
    ):
        # zclass1 compares |Z(x)| with |Z(x^g)| and conjugates the members of
        # Z(x) only; the pull formula compares the whole rows. Each plant is
        # first caught, under each of three seeds, by the test the case names.
        g = relabel_group(dihedral(128), random.Random(7).sample(range(128), 128))
        real = analytics._centralizers(g)
        assert real.reps.size == 34 and real.z_rows[32].sum() == 64
        planted = real.z_rows.copy()
        planted[i, j] ^= True
        fake = real._replace(z_rows=planted)
        monkeypatch.setattr(checks, "_centralizers", lambda G: fake)
        t, inv = g.table, g.inverses

        def members(x):
            return set(np.flatnonzero(planted[real.index[x]]).tolist())

        for seed in (DEFAULT_SEED, 1, 2):
            s = CheckSettings(seed=seed)
            want = formula_pair_checks(g, s, fake)["zclass1"]
            got = run_check("zclass1", g, s)
            assert (got.status, dict(got.details)) == want, seed
            assert got.status == "fail"
            x, c = got.details["x"], got.details["g"]
            zx, zc = members(x), members(int(t[t[inv[c], x], c]))
            image = {int(t[t[inv[c], z], c]) for z in zx}
            assert (len(zx) == len(zc), image <= zc) == (same_size, image_inside), seed

    def test_planted_abelian_rows(self, monkeypatch):
        # no group is a counterexample to za1 or bbu, so plant abelian flags:
        # E128 meets za1's hypothesis, Heis(4) is ultraspecial of order 2^6.
        # run_check memoizes its result on the group, so each plant gets a
        # freshly built group.
        real = analytics._centralizers

        def plant(g, rows, value):
            cz = real(g)
            abelian = np.array(cz.abelian)
            abelian[rows] = value
            fake = cz._replace(abelian=abelian)
            for module in (analytics, checks):
                monkeypatch.setattr(module, "_centralizers", lambda G: fake)
            return cz.reps.size - 1

        g = extraspecial2(3, "plus")
        last = plant(g, [-2], True)
        assert not analytics.nonabelian_centralizer_check(g)
        r = run_check("za1", g)
        assert (r.status, r.details) == ("fail", {"abelian_centralizer": last - 1, "order": 64})
        g = extraspecial2(3, "plus")
        plant(g, [5, -2], True)
        r = run_check("za1", g)
        assert (r.status, r.details) == ("fail", {"abelian_centralizer": 5, "order": 64})
        g = extraspecial2(3, "plus")
        plant(g, slice(0, -2), True)
        assert not is_CA_group(g)
        g = heisenberg(gf(2, 2))
        plant(g, [3], False)
        r = run_check("bbu", g)
        assert (r.status, r.details) == ("fail", {"nonabelian_centralizer_order": 16})


class TestPlantedFailures:
    """No catalog group fails these checks, so each case plants a wrong value
    in the checks namespace on a freshly built group (run_check memoizes its
    result on the group) and asserts the exact verdict."""

    @pytest.mark.parametrize(
        "cid,build,name,value,want",
        [
            # Heis(3) has n = 5 and uniform type (3, 1); index 4 = 2^2 and 2 does not divide 3
            ("np2", lambda: heisenberg(gf(3)), "conjugate_type",
             ConjugateTypeReport(True, 4, 2, 2), ("fail", {"n": 5, "m": 4, "p": 2})),
            ("np2", lambda: heisenberg(gf(3)), "conjugate_type", ConjugateTypeReport(True, 6),
             ("fail", {"m": 6, "reason": "uniform index is not a prime power"})),
            # S3 x S3 has n = 25 and |G/Z| = 36: gcd(23, 36) = 1, and 2 * 23 > 36
            ("1np", lambda: direct_product(symmetric(3), symmetric(3)), "is_F_group", True,
             ("fail", {"n": 25, "quotient_order": 36, "gcd": 1})),
            ("xx", lambda: direct_product(symmetric(3), symmetric(3)), "is_F_group", True,
             ("fail", {"n": 25, "quotient_order": 36, "squared": 529})),
            # D8 has center {0, 2}: a broken chain at a central x is skipped
            ("np155", lambda: dihedral(8), "_sandwich_chains",
             [(4, 4, 8), (2, 4, 4), (8, 1, 8), (4, 2, 4), (2, 4, 4), (2, 4, 4), (2, 4, 4), (2, 4, 4)],
             ("fail", {"x": 3, "chain": [4, 2, 4]})),
            ("np155", lambda: dihedral(8), "_sandwich_chains",
             [(4, 4, 8), (2, 8, 4), (4, 4, 8), (2, 4, 4), (2, 4, 4), (2, 4, 4), (2, 4, 4), (2, 4, 4)],
             ("fail", {"x": 1, "chain": [2, 8, 4]})),
            # D10 is centerless with q = 5, n = 7 = q + 2, and Frobenius with kernel C5
            ("np12a", lambda: dihedral(10), "cent_count", 6, ("fail", {"n": 6, "q": 5})),
            ("np12a", lambda: dihedral(10), "_is_frobenius_prime_cyclic", False,
             ("fail", {"n": 7, "q": 5, "equality": True, "frobenius_prime_kernel": False})),
            ("np12b", lambda: dihedral(10), "cent_count", 11, ("fail", {"n": 11, "order": 10})),
            ("np12b", lambda: dihedral(10), "cent_count", 9,
             ("fail", {"n": 9, "order": 10, "equality": True, "is_S3": False})),
            # D8: n = 4 = |G|/2, and extraspecial
            ("t1", lambda: dihedral(8), "cent_count", 5, ("fail", {"n": 5, "order": 8})),
            ("t1", lambda: dihedral(8), "is_extraspecial", False,
             ("fail", {"n": 4, "order": 8, "equality": True, "extraspecial_2": False})),
            # A4: n = 6 = |G|/2, an F-group and a CA-group
            ("thm1", lambda: alternating(4), "is_F_group", False,
             ("fail", {"n": 6, "f_group_with_large_count": False, "family": "A4",
                       "catalog_relative": True})),
            ("thm1", lambda: alternating(4), "_known_family", None,
             ("fail", {"n": 6, "f_group_with_large_count": True, "family": None,
                       "catalog_relative": True})),
            ("ccor1", lambda: alternating(4), "is_CA_group", False,
             ("fail", {"n": 6, "ca_group_with_large_count": False, "family": "A4",
                       "catalog_relative": True})),
            ("ccor1", lambda: alternating(4), "_known_family", None,
             ("fail", {"n": 6, "ca_group_with_large_count": True, "family": None,
                       "catalog_relative": True})),
        ],
        ids=["np2-not-dividing", "np2-not-prime-power", "1np", "xx", "np155-lower", "np155-upper",
             "np12a-bound", "np12a-frobenius", "np12b-bound", "np12b-equality", "t1-bound",
             "t1-extraspecial", "thm1-not-F", "thm1-no-family", "ccor1-not-CA", "ccor1-no-family"],
    )
    def test_planted_value_fails_with_its_witness(self, monkeypatch, cid, build, name, value, want):
        g = build()
        monkeypatch.setattr(checks, name, lambda G: value)
        got = run_check(cid, g)
        assert (got.status, dict(got.details)) == want


class TestPlantedBoundFailures:
    """No catalog group breaks a bound, so each case plants the centralizer
    count n and |G/Z| that the checks read from their own namespace, on a
    freshly built group (run_check and the bound report are memoized on the
    group), and asserts the exact verdict."""

    D8 = staticmethod(lambda: dihedral(8))  # F-group, nilpotent: n = 4, |G/Z| = 4
    HEIS3 = staticmethod(lambda: heisenberg(gf(3)))  # semi-extraspecial: n = 5, |G/Z| = 9

    @pytest.mark.parametrize(
        "cid,build,n,qz,want",
        [
            # S3: n = 5 <= 11, bound (n-2)^2 = 9
            ("tom11", lambda: symmetric(3), None, 10,
             ("fail", {"n": 5, "quotient_order": 10, "bound": 9})),
            # (n-1)! = 24 for S3
            ("bbc", lambda: symmetric(3), None, 24, ("fail", {"n": 5, "quotient_order": 24})),
            # n = 12: 2 (n-4)^log2(n-4) = 2 * 8^3 = 1024, exactly
            ("sb1", lambda: symmetric(3), 12, 1025, ("fail", {"n": 12, "quotient_order": 1025})),
            ("1sb", lambda: symmetric(3), 12, 1025,
             ("fail", {"n": 12, "quotient_order": 1025, "bound_general": 1024})),
            # S4 is not an F-group, so bc1b reads the general bound
            ("bc1b", lambda: symmetric(4), 12, 1025,
             ("fail", {"n": 12, "quotient_order": 1025, "bound_general": 1024})),
            ("np22", D8, None, 6,
             ("fail", {"quotient_order": 6, "reason": "central quotient order is not a prime power"})),
            ("np22", D8, 5, None, ("fail", {"n": 5, "p": 2, "k": 2})),
            ("bc1a", D8, None, 5, ("fail", {"n": 4, "quotient_order": 5, "bound": 4})),
            # every Z(x)/Z of D8 has order 2, and 2^2 < 9: equality under the
            # small-Z(x) hypothesis
            ("bc1a", D8, 5, 9,
             ("fail", {"n": 5, "quotient_order": 9, "bound": 9, "strict_hypothesis": True})),
            ("semi", HEIS3, None, 10, ("fail", {"n": 5, "p": 3, "quotient_order": 10})),
            ("semi", HEIS3, 6, None, ("fail", {"n": 6, "p": 3, "quotient_order": 9})),
        ],
        ids=["tom11", "bbc", "sb1", "1sb", "bc1b", "np22-not-prime-power", "np22-not-dividing",
             "bc1a-bound", "bc1a-strict", "semi-bound", "semi-not-dividing"],
    )
    def test_planted_bound_fails_with_its_witness(self, monkeypatch, cid, build, n, qz, want):
        g = build()
        if n is not None:
            monkeypatch.setattr(checks, "cent_count", lambda G: n)
        if qz is not None:
            monkeypatch.setattr(checks, "_quotient_order", lambda G: qz)
        got = run_check(cid, g)
        assert (got.status, dict(got.details)) == want

    @pytest.mark.parametrize(
        "cid,module,want",
        [
            ("sb1", analytics, {"n": 12, "quotient_order": 1025}),
            # the bound report reaches the comparison only above (n-2)^2
            ("1sb", analytics, {"n": 12, "quotient_order": 1025, "bound_general": 1024}),
        ],
    )
    def test_guard_band_verdict_is_indeterminate(self, monkeypatch, cid, module, want):
        g = symmetric(3)
        monkeypatch.setattr(checks, "cent_count", lambda G: 12)
        monkeypatch.setattr(checks, "_quotient_order", lambda G: 1025)
        monkeypatch.setattr(module, "exp_bound_holds", lambda q_order, n: None)
        got = run_check(cid, g)
        assert (got.status, dict(got.details)) == ("indeterminate", want)

    def test_sb1_passes_between_the_two_bounds(self, monkeypatch):
        # n = 12: (n-2)^2 = 100 < 1024 = 2 (n-4)^log2(n-4), exactly
        monkeypatch.setattr(checks, "cent_count", lambda G: 12)
        monkeypatch.setattr(checks, "_quotient_order", lambda G: 1024)
        got = run_check("sb1", symmetric(3))
        assert (got.status, dict(got.details)) == ("pass", {"n": 12, "quotient_order": 1024})


def _partition_plant(**fields):
    """central_partition of the group with the given fields replaced."""

    def planted(G):
        return dataclasses.replace(analytics.central_partition(G), **fields)

    return {"central_partition": planted}


def _uniform_plant(m, p, k, n=None):
    """A uniform conjugate type (m, 1) with m = p^k, and n when given."""
    planted = {"conjugate_type": lambda G: ConjugateTypeReport(True, m, p, k)}
    if n is not None:
        planted["cent_count"] = lambda G: n
    return planted


def _raising_plant(name, exc):
    def raising(G):
        raise exc

    return {name: raising}


_OVERLAP = {"kind": "overlap", "element": 1, "components": [0, 1]}
_MOVED = {"kind": "not-normal", "conjugator": 1, "component": 0}
_COVERED = "G'Z covers only 59 of 60 elements"
_COUNTS = "|Cent(C6xA5)| = 22 but its derived subgroup has 21"


class TestPlantedAnalyticsInputs:
    """No group fails zclass5, the uniform-type checks or cg118, so each case
    plants what they read from ``central_partition``, ``conjugate_type`` or
    ``perfect_quotient_check`` (and n where a bound needs it) in the checks
    namespace, on a freshly built group, and asserts the exact verdict.
    ``plants`` maps each name to the function put in its place."""

    @pytest.mark.parametrize(
        "cid,build,plants,want",
        [
            # D8 is an F-group, and its three Z(x)/Z have order 2
            ("zclass5", lambda: dihedral(8), _partition_plant(is_partition=False, witness=_OVERLAP),
             ("fail", {"f_group": True, "is_partition": False, "is_normal": True,
                       "component_sizes": [2, 2, 2], "witness": _OVERLAP})),
            ("zclass5", lambda: dihedral(8), _partition_plant(is_normal=False, witness=_MOVED),
             ("fail", {"f_group": True, "is_partition": True, "is_normal": False,
                       "component_sizes": [2, 2, 2], "witness": _MOVED})),
            # S4 is not an F-group; a normal partition would make it one
            ("zclass5", lambda: symmetric(4), _partition_plant(is_partition=True, witness=None),
             ("fail", {"f_group": False, "is_partition": True, "is_normal": True,
                       "component_sizes": [2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 4, 4], "witness": None})),
            # S3 as type (3, 1): n - 2 = 3, but G/Z = S3 is not C3 x C3
            ("5sb", lambda: symmetric(3), _uniform_plant(3, 3, 1),
             ("fail", {"n": 5, "p": 3, "n_minus_2_equals_p": True, "quotient_is_CpxCp": False})),
            # A4 as type (4, 1): n - 2 = 4, but G/Z = A4 is not C2^4
            ("52sb", lambda: alternating(4), _uniform_plant(4, 2, 2),
             ("fail", {"n": 6, "p": 2, "n_minus_2_equals_p2": True, "quotient_is_Cp4": False})),
            # D8 as type (3, 1): |G/Z| = 4 = (n-2)^2, but G/Z is not C3 x C3
            ("np2b", lambda: dihedral(8), _uniform_plant(3, 3, 1),
             ("fail", {"n": 4, "quotient_order": 4, "equality": True, "quotient_is_CpxCp": False})),
            ("np2b", lambda: symmetric(3), _uniform_plant(3, 3, 1, n=4),
             ("fail", {"n": 4, "quotient_order": 6, "bound": 4})),
            # D8 as type (4, 1): |G/Z| = 4 = (n-2)^2, but G/Z is not C2^4
            ("np2a", lambda: dihedral(8), _uniform_plant(4, 2, 2),
             ("fail", {"n": 4, "quotient_order": 4, "equality": True, "quotient_is_Cp4": False})),
            ("np2a", lambda: symmetric(3), _uniform_plant(4, 2, 2, n=4),
             ("fail", {"n": 4, "quotient_order": 6, "bound": 4})),
            # A5 and C6 x A5 have a perfect central quotient
            ("cg118", lambda: alternating(5),
             _raising_plant("perfect_quotient_check", InvariantViolation(_COVERED)),
             ("fail", {"reason": _COVERED})),
            ("cg118", lambda: direct_product(cyclic(6), alternating(5)),
             _raising_plant("perfect_quotient_check", InvariantViolation(_COUNTS)),
             ("fail", {"reason": _COUNTS})),
        ],
        ids=["zclass5-overlap", "zclass5-not-normal", "zclass5-not-F", "5sb", "52sb", "np2b-equality",
             "np2b-bound", "np2a-equality", "np2a-bound", "cg118-A5", "cg118-C6xA5"],
    )
    def test_planted_input_fails_with_its_witness(self, monkeypatch, cid, build, plants, want):
        g = build()
        for name, fn in plants.items():
            monkeypatch.setattr(checks, name, fn)
        got = run_check(cid, g)
        assert (got.status, dict(got.details)) == want


def _parametrized(test, name):
    """The value of one argument in each parametrize case of a test."""
    [mark] = [m for m in test.pytestmark if m.name == "parametrize"]
    names, cases = mark.args[:2]
    i = [n.strip() for n in names.split(",")].index(name)
    return [case[i] for case in cases]


def test_every_check_has_a_planted_failure():
    # the ids the planted tests above assert a FAIL for, so a new check
    # cannot land without one
    planted = {
        *_parametrized(TestPlantedFailures.test_planted_value_fails_with_its_witness, "cid"),
        *_parametrized(TestPlantedBoundFailures.test_planted_bound_fails_with_its_witness, "cid"),
        *_parametrized(TestPlantedAnalyticsInputs.test_planted_input_fails_with_its_witness, "cid"),
        *set().union(
            *_parametrized(TestCentralizerRows.test_planted_bit_matches_formula_witnesses, "readers")
        ),
        "npcor1",  # test_npcor1_names_the_first_containment_in_row_major_order
        "za1", "bbu",  # test_planted_abelian_rows
    }
    assert planted == set(checks.REGISTRY)


class TestRecognition:
    def test_known_family_matches_isomorphism_route(self, catalog_groups, family_pool):
        found = set()
        for g in [*catalog_groups.values(), *family_pool]:
            family = _known_family(g)
            assert family == iso_known_family(g), g.name
            found.add(family)
        assert found == {"A4", "Q8", "D8", "dihedral_odd", "extraspecial_2", None}

    def test_elementary_quotient_matches_isomorphism(self, catalog_groups, semi_pool):
        hits = 0
        for g in [*catalog_groups.values(), *semi_pool]:
            q = central_quotient(g).quotient
            for p, k in ((2, 2), (2, 4), (3, 2), (3, 4), (5, 2)):
                want = isomorphic(q, elementary_abelian(p, k))
                assert _quotient_is_elementary(g, p, k) == want, (g.name, p, k)
                hits += want
        assert hits


class TestCatalog:
    def test_size(self, catalog):
        assert len(catalog) >= 35

    def test_all_entries_build(self, catalog_groups):
        assert all(g.order >= 1 for g in catalog_groups.values())

    def test_names_unique(self, catalog):
        names = [e.name for e in catalog]
        assert len(names) == len(set(names))

    @pytest.mark.parametrize(
        "name,n",
        [("D6", 5), ("Heis(4)", 6), ("E32+", 16), ("S4", 14), ("S3xS3", 25)],
    )
    def test_expected_counts_present(self, catalog, name, n):
        entry = next(e for e in catalog if e.name == name)
        assert entry.expected["cent_count"] == n

    def test_required_members(self, catalog):
        names = {e.name for e in catalog}
        for required in (
            "D6", "D20", "Q8", "E8+", "E128-", "Heis(2)", "Heis(9)",
            "C5:C4(r=2)", "C13:C4(r=5)", "A4", "S4", "A5", "S5",
            "S3xS3", "C6xA5", "D8xC2", "C12", "C2^3", "C15",
        ):
            assert required in names

    def test_default_catalog_is_a_fresh_list_of_the_same_entries(self):
        first, second = default_catalog(), default_catalog()
        assert first is not second and len(first) == len(second) == 37
        assert all(a is b for a, b in zip(first, second))

    def test_entry_keeps_its_group(self):
        entry = CatalogEntry("D6", "builtin:dihedral:6")
        assert entry.build() is entry.build()
        assert entry.build() is not CatalogEntry("D6", "builtin:dihedral:6").build()

    def test_threads_racing_on_an_entry_get_one_group(self):
        entry, got = CatalogEntry("S3xD10", "builtin:symmetric:3*builtin:dihedral:10"), []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=lambda: got.append(entry.build())) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and len(got) == 8
        assert all(g is entry.build() for g in got)

    def test_dropped_catalogs_free_their_groups(self):
        # a catalog's groups, and the check results in their memos, go with
        # the catalog: three suites over distinct groups of about 0.5 MiB of
        # table each retain nothing once their entries are dropped
        run_suite([CatalogEntry("D510", "builtin:dihedral:510")])  # first-use state
        gc.collect()
        tracemalloc.start()
        try:
            base, retained = tracemalloc.get_traced_memory()[0], []
            for n in (512, 514, 516):
                run_suite([CatalogEntry(f"D{n}", f"builtin:dihedral:{n}")])
                retained.append(tracemalloc.get_traced_memory()[0] - base)
        finally:
            tracemalloc.stop()
        assert max(retained) < 0.25 * 2**20, retained

    def test_extended_catalog_file_parses(self):
        # the opt-in catalog of groups above the default catalog's orders;
        # every spec is within its family's domain and the table budget
        path = Path(__file__).resolve().parents[1] / "catalogs" / "extended.json"
        entries = _load_catalog_file(str(path))
        assert [e.name for e in entries] == [
            "S6", "A6", "A7", "S7", "Heis(11)", "Heis(13)", "Heis(16)", "E2048+", "E2048-",
        ]
        for entry in entries:
            parse_spec(entry.builder_spec)


class TestSuite:
    def test_default_catalog_all_green(self, suite_report):
        assert suite_report.summary["fail"] == 0
        assert suite_report.summary["error"] == 0
        assert suite_report.summary["indeterminate"] == 0
        assert suite_report.summary["pass"] > 600

    def test_deterministic_order_and_repeatability(self, suite_report):
        again = run_suite()
        assert [r.as_dict() for r in again.results] == [
            r.as_dict() for r in suite_report.results
        ]

    def test_jobs_do_not_change_results(self, suite_report):
        parallel = run_suite(jobs=4)
        assert [r.as_dict() for r in parallel.results] == [
            r.as_dict() for r in suite_report.results
        ]

    def test_order_above_isomorphism_cap_keeps_every_row(self):
        rep = run_suite(
            [CatalogEntry("D1030", "builtin:dihedral:1030"), CatalogEntry("S3", "builtin:symmetric:3")]
        )
        assert rep.summary["total"] == 58 and rep.summary["error"] == 0
        assert rep.summary["fail"] == 0

    def test_empty_catalog(self):
        rep = run_suite([])
        assert rep.results == () and rep.summary["total"] == 0

    def test_corrupted_entry_isolated(self, tmp_path):
        bad = tmp_path / "broken.cayley"
        # non-associative Latin square with identity
        bad.write_text(
            "5\n"
            "0 1 2 3 4\n"
            "1 0 3 4 2\n"
            "2 4 0 1 3\n"
            "3 2 4 0 1\n"
            "4 3 1 2 0\n",
            encoding="utf-8",
        )
        catalog = [
            CatalogEntry("good", "builtin:dihedral:6"),
            CatalogEntry("broken", f"cayley:{bad}"),
            CatalogEntry("also-good", "builtin:quaternion8"),
        ]
        rep = run_suite(catalog)
        errors = [r for r in rep.results if r.status == "error"]
        assert len(errors) == 1 and errors[0].group_name == "broken"
        assert rep.summary["fail"] == 0
        assert {r.group_name for r in rep.results if r.status == "pass"} >= {"good", "also-good"}

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("target", ["bbc", "expected"])
    def test_raising_check_keeps_every_other_row(self, monkeypatch, jobs, target):
        catalog = [
            CatalogEntry("D6", "builtin:dihedral:6", {"cent_count": 5}),
            CatalogEntry("C4", "builtin:cyclic:4", {"order": 4}),
            CatalogEntry("Q8", "builtin:quaternion8"),
        ]
        clean = run_suite(catalog, jobs=jobs).results

        def boom(*args):
            raise InvariantViolation("patched to raise")

        if target == "expected":
            monkeypatch.setattr(checks, "_expected_result", boom)
        else:
            monkeypatch.setitem(checks.REGISTRY, target, (boom, "patched"))
        rep = run_suite(catalog, jobs=jobs)
        assert [(r.check_id, r.group_name) for r in rep.results] == [
            (r.check_id, r.group_name) for r in clean
        ]
        hit = [a for a, b in zip(rep.results, clean) if a != b]
        # abelian groups skip every check before the check function runs
        want = {"D6", "C4"} if target == "expected" else {"D6", "Q8"}
        assert {r.group_name for r in hit} == want
        assert all(r.check_id == target and r.status == "error" for r in hit)
        assert all(r.details == {"reason": "patched to raise"} for r in hit)
        assert rep.summary["error"] == len(want)

    def test_expected_mismatch_fails(self):
        catalog = [CatalogEntry("D6", "builtin:dihedral:6", {"cent_count": 7})]
        rep = run_suite(catalog)
        fails = [r for r in rep.results if r.status == "fail"]
        assert len(fails) == 1 and fails[0].check_id == "expected"
        assert fails[0].details["cent_count"]["measured"] == 5

    def test_order_is_catalog_major_registry_minor(self, suite_report):
        per_group: dict[str, list[str]] = {}
        group_sequence = []
        for r in suite_report.results:
            if r.group_name not in per_group:
                group_sequence.append(r.group_name)
            per_group.setdefault(r.group_name, []).append(r.check_id)
        assert group_sequence == [e.name for e in default_catalog()]
        for name, ids in per_group.items():
            without_expected = [c for c in ids if c != "expected"]
            assert tuple(without_expected) == EXPECTED_CHECK_IDS, name


class TestSearch:
    def test_cent_eq_half_census(self):
        hits = search(SearchQuery("cent_eq_half"))
        by_name = {h.name for h in hits}
        assert "A4" in by_name
        for h in hits:
            assert h.name == "A4" or h.family in ("extraspecial_2", "Q8", "D8")

    def test_cent_eq_half_plus_two(self):
        hits = {h.name: h for h in search(SearchQuery("cent_eq_half_plus_two"))}
        assert {"S4", "D6", "D10", "D14", "D18"} <= set(hits)
        assert not hits["S4"].f_group
        assert hits["S4"].family is None

    def test_max_order_clamp(self):
        hits = search(SearchQuery("cent_eq_half", max_order=20))
        assert all(h.order <= 20 for h in hits)
        assert {h.name for h in hits} >= {"Q8", "D8", "A4"}

    def test_restrict_to_f_groups(self):
        hits = search(SearchQuery("cent_ge_half", restrict="f"))
        assert all(h.f_group for h in hits)
        assert "S4" not in {h.name for h in hits}

    def test_custom_predicate(self):
        hits = search(SearchQuery(lambda n, order, z: n == order - 1))
        assert {h.name for h in hits} == {"D6"}

    def test_search_after_suite_builds_nothing(self, monkeypatch):
        run_suite()

        def refuse(spec):
            raise AssertionError(f"{spec} built again")

        monkeypatch.setattr(specs, "build_group", refuse)
        assert {h.name for h in search(SearchQuery("cent_eq_half", max_order=20))} >= {"Q8", "D8", "A4"}

    def test_unknown_predicate(self):
        with pytest.raises(UnknownCheckId):
            search(SearchQuery("cent_eq_everything"))
