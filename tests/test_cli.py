"""Spec grammar, file formats, report rendering, exit codes."""

import enum
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from groupcent import (
    CheckSettings,
    alternating,
    build_group,
    cent_count,
    checks,
    cyclic,
    dihedral,
    elementary_abelian,
    extraspecial2,
    frobenius_cq_cn,
    gf,
    heisenberg,
    load_cayley,
    load_permutations,
    parse_spec,
    quaternion8,
    renamed,
    run_suite,
    save_cayley,
    specs,
    symmetric,
)
from groupcent import cli
from groupcent.cli import _EXACT_FACTORIAL_MAX_N, Report, build_analysis, main
from groupcent.errors import (
    BadOrder,
    BadParameter,
    FormatError,
    InvariantViolation,
    NotAGroup,
    SpecParseError,
    TooLarge,
    UnknownFamily,
)


def child_env() -> dict[str, str]:
    """The environment of a child interpreter: src on its path, and the
    parent's PYTHONDONTWRITEBYTECODE, so that a run that writes no bytecode
    cache has no child write one into src."""
    env = {"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"}
    if "PYTHONDONTWRITEBYTECODE" in os.environ:
        env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
    return env


class TestParseSpec:
    def test_dihedral(self):
        spec = parse_spec("builtin:dihedral:14")
        part = spec.parts[0]
        assert part.family == "dihedral" and part.args == ("14",)

    def test_frobenius(self):
        spec = parse_spec("builtin:frobenius:7:3:2")
        assert spec.parts[0].args == ("7", "3", "2")
        assert build_group(spec).order == 21

    def test_odd_dihedral_rejected_at_parse(self):
        with pytest.raises(SpecParseError):
            parse_spec("builtin:dihedral:7")

    def test_unknown_family(self):
        with pytest.raises(UnknownFamily):
            parse_spec("builtin:monster:1")

    def test_position_reported(self):
        with pytest.raises(SpecParseError, match="position"):
            parse_spec("builtin:dihedral:6*builtin:dihedral:9")

    def test_product_spec(self):
        g = build_group("builtin:symmetric:3*builtin:symmetric:3")
        assert g.order == 36

    def test_product_budget_is_met_before_any_builtin_is_built(self, monkeypatch, tmp_path):
        # D16384 is within the budget alone, and its product with the file's
        # C2 is not: refused once the file is read, before dihedral runs
        c2 = tmp_path / "c2.txt"
        c2.write_text("2\n0 1\n1 0\n", encoding="utf-8")

        def refuse(*args):
            raise AssertionError("the dihedral builder ran")

        _, check, types = specs._FAMILIES["dihedral"]
        monkeypatch.setitem(specs._FAMILIES, "dihedral", (refuse, check, types))
        for spec in (f"builtin:dihedral:16384*cayley:{c2}", f"cayley:{c2}*builtin:dihedral:16384"):
            with pytest.raises(TooLarge, match="^order 32768 exceeds 16384"):
                build_group(spec)
        assert build_group(f"cayley:{c2}*builtin:quaternion8").order == 16

    def test_bad_scheme(self):
        with pytest.raises(SpecParseError):
            parse_spec("ftp:whatever")

    def test_wrong_arity(self):
        with pytest.raises(SpecParseError):
            parse_spec("builtin:heisenberg:3")


# family -> (builder, argument tuples in and out of the builder's domain,
# the first one in it)
FAMILY_DOMAINS = {
    "cyclic": (cyclic, [(1,), (5,), (0,), (-3,)]),
    "elementary_abelian": (
        elementary_abelian, [(2, 3), (3, 0), (5, 1), (6, 2), (1, 1), (2, -1), (-2, 2)]
    ),
    "dihedral": (dihedral, [(6,), (14,), (4,), (5,), (7,), (0,), (-6,)]),
    "quaternion8": (quaternion8, [()]),
    "symmetric": (symmetric, [(1,), (3,), (5,), (0,), (6,), (-1,)]),
    "alternating": (alternating, [(1,), (4,), (5,), (0,), (6,)]),
    "extraspecial2": (
        extraspecial2,
        [(1, "plus"), (2, "minus"), (0, "plus"), (5, "minus"), (2, "both"), (1, "Plus")],
    ),
    # (3, 3): GF(27) builds, and Heis(27) is over the table budget
    "heisenberg": (
        lambda p, e: heisenberg(gf(p, e)),
        [(2, 1), (3, 1), (2, 2), (7, 1), (3, 2), (4, 1), (3, 3), (11, 1), (2, 0), (1, 1), (-2, 2)],
    ),
    "frobenius": (
        frobenius_cq_cn,
        [(7, 3, 2), (5, 4, 2), (7, 3, 9), (7, 3, -5), (7, 3, 3), (7, 3, 7), (7, 3, 0),
         (9, 2, 8), (7, 1, 1), (7, 6, 2), (1, 2, 1)],
    ),
}


class TestFamilyDomains:
    """parse_spec rejects exactly the arguments that the builder rejects."""

    def test_table_covers_every_family(self):
        assert set(FAMILY_DOMAINS) == set(specs._FAMILIES)

    @pytest.mark.parametrize(
        "family,args",
        [(f, a) for f, (_, tuples) in FAMILY_DOMAINS.items() for a in tuples],
    )
    def test_parse_rejects_what_the_builder_rejects(self, family, args):
        builder = FAMILY_DOMAINS[family][0]
        try:
            built = builder(*args)
        except TooLarge as exc:
            # a group over the table budget is refused at parse with the same error
            with pytest.raises(TooLarge) as info:
                parse_spec(":".join(["builtin", family, *map(str, args)]))
            assert str(info.value) == str(exc)
            return
        except (BadParameter, BadOrder) as exc:
            built, message = None, str(exc)
        text = ":".join(["builtin", family, *map(str, args)])
        if built is None:
            with pytest.raises(SpecParseError) as info:
                parse_spec(text)
            assert str(info.value).endswith(" (at position 0)")
            # gf(p, e) may reject a field under its own message before the
            # heisenberg builder runs its check; every other message is the builder's
            if family != "heisenberg" or message.startswith("field order"):
                assert str(info.value) == f"{message} (at position 0)"
        else:
            assert build_group(parse_spec(text)).table.tobytes() == built.table.tobytes()

    @pytest.mark.parametrize("family", sorted(FAMILY_DOMAINS))
    def test_check_returns_the_order(self, family):
        args = tuple(convert(a) for convert, a in zip(specs._FAMILIES[family][2], self.VALID[family]))
        assert specs._FAMILIES[family][1](*args) == FAMILY_DOMAINS[family][0](*args).order

    @pytest.mark.parametrize(
        "text,message",
        [
            ("builtin:cyclic:20000", "order 20000 exceeds 16384"),
            # each part is under the budget, and their product is over it
            ("builtin:dihedral:16384*builtin:cyclic:2", "order 32768 exceeds 16384"),
            ("builtin:symmetric:7*builtin:symmetric:7", "order 25401600 exceeds 16384"),
        ],
        ids=["cyclic", "dihedral_x_cyclic", "symmetric_x_symmetric"],
    )
    def test_over_budget_refused_at_parse(self, monkeypatch, text, message):
        def fail(*args, **kwargs):
            raise AssertionError("a group was built at parse")

        for family, (_, check, types) in list(specs._FAMILIES.items()):
            monkeypatch.setitem(specs._FAMILIES, family, (fail, check, types))
        for module in (specs, specs.cons):
            monkeypatch.setattr(module, "from_table", fail)
        monkeypatch.setattr(specs, "direct_product", fail)
        with pytest.raises(TooLarge, match=f"^{message}: its uint16 table"):
            parse_spec(text)

    def test_rejected_part_names_its_position(self):
        with pytest.raises(SpecParseError, match=r"got 7 \(at position 19\)$"):
            parse_spec("builtin:dihedral:6*builtin:dihedral:7")

    # the first tuple of each family is in its domain; here as spec text
    VALID = {f: tuple(map(str, tuples[0])) for f, (_, tuples) in FAMILY_DOMAINS.items()}

    @pytest.mark.parametrize(
        "family,wrong",
        [(f, a + ("1",)) for f, a in VALID.items()] + [(f, a[:-1]) for f, a in VALID.items() if a],
    )
    def test_wrong_argument_count(self, family, wrong):
        with pytest.raises(SpecParseError, match=rf"got {len(wrong)} \(at position 0\)"):
            parse_spec(":".join(["builtin", family, *wrong]))

    @pytest.mark.parametrize(
        "family,i",
        [(f, i) for f, args in VALID.items() for i, a in enumerate(args) if a.lstrip("-").isdigit()],
    )
    @pytest.mark.parametrize("junk", ["x", "", "2.0", "0x10"])
    def test_non_integer_argument(self, family, i, junk):
        args = list(self.VALID[family])
        args[i] = junk
        with pytest.raises(SpecParseError, match=rf"argument {i + 1} must be an integer"):
            parse_spec(":".join(["builtin", family, *args]))

    @pytest.mark.parametrize(
        "text,want",
        [
            ("builtin:dihedral:+14", "D14"),
            ("builtin:dihedral:1_4", "D14"),
            ("builtin:cyclic: 5", "C5"),
            ("builtin:dihedral: 6 ", "D6"),
            ("builtin:dihedral: 5", None),
            ("builtin:dihedral:+7", None),
            ("builtin:elementary_abelian:+2:1_0", "C2^10"),
        ],
    )
    def test_int_spellings_build_or_fail_at_parse(self, text, want):
        # each argument goes through int() once, for the parse check and the
        # build alike, so a spelling that parses never reaches a builder as text
        if want is None:
            with pytest.raises(SpecParseError, match="position"):
                parse_spec(text)
        else:
            spec = parse_spec(text)
            assert build_group(spec).name == want

    def test_int_spellings_exit_cleanly(self, capsys):
        assert main(["analyze", "builtin:dihedral:+14", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["order"] == 14
        assert main(["analyze", "builtin:dihedral: 5"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: dihedral order") and "Traceback" not in err

    @pytest.mark.parametrize(
        "spec,message",
        [
            ("builtin:cyclic:" + "9" * 3000, "order 2^9965 or more exceeds 16384: its uint16 table "
             "would take 2^19932 or more bytes"),
            ("builtin:dihedral:" + "9" * 3000 + "8", "order 2^9969 or more exceeds 16384"),
            ("builtin:elementary_abelian:3:1000000", "order 3^1000000 exceeds 16384"),
            ("builtin:elementary_abelian:3:100000000", "order 3^100000000 exceeds 16384"),
            ("builtin:heisenberg:3:100000000", "field order 3^100000000 not supported"),
            # 2^61 - 1 is prime: no trial division, even for a group of order 1
            ("builtin:elementary_abelian:2305843009213693951:0", "order 2305843009213693951 exceeds"),
            ("builtin:frobenius:2305843009213693951:2:3", "order 2305843009213693951 exceeds"),
            # each family's order meets the budget at parse, before anything is built
            ("builtin:symmetric:8", "order 40320 exceeds 16384"),
            ("builtin:alternating:8", "order 20160 exceeds 16384"),
            ("builtin:extraspecial2:7:plus", "order 32768 exceeds 16384"),
            ("builtin:heisenberg:3:3", "order 19683 exceeds 16384"),
            ("builtin:frobenius:16381:4095:5", "order 67080195 exceeds 16384"),
        ],
        ids=["cyclic", "dihedral", "ea_1e6", "ea_1e8", "heisenberg", "ea_prime", "frobenius",
             "symmetric_8", "alternating_8", "extraspecial2_7", "heisenberg_27", "frobenius_16381"],
    )
    def test_argument_past_the_cap_exits_3_at_once(self, capsys, spec, message):
        # compared with the table cap before a power, a primality test or
        # the order of a unit, and never printed whole when too long to print
        start = time.perf_counter()
        assert main(["analyze", spec]) == 3
        assert time.perf_counter() - start < 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1


    @pytest.mark.parametrize("digits", [4301, 5000])
    def test_argument_past_the_digit_limit_is_too_large(self, capsys, digits):
        # int() refuses such a literal for its length alone, so it is named
        # too large, not malformed
        assert main(["analyze", "builtin:cyclic:" + "9" * digits]) == 3
        err = capsys.readouterr().err
        assert err == f"error: cyclic: argument 1 is too large: {digits} digits (at position 0)\n"

    @pytest.mark.parametrize("junk", ["9" * 5000 + "x", "9" * 5000 + "_", "0x" + "f" * 5000])
    def test_long_malformed_argument_is_not_an_integer(self, junk):
        with pytest.raises(SpecParseError, match="argument 1 must be an integer"):
            parse_spec("builtin:cyclic:" + junk)


class TestCayleyFiles:
    def test_trivial_file(self, tmp_path):
        f = tmp_path / "one.cayley"
        f.write_text("1\n0\n", encoding="utf-8")
        assert load_cayley(f).order == 1

    def test_round_trip_s3(self, tmp_path):
        f = tmp_path / "s3.cayley"
        save_cayley(symmetric(3), f)
        g = load_cayley(f)
        assert g.name == "S3" and cent_count(g) == 5

    def test_bad_index_rejected(self, tmp_path):
        f = tmp_path / "bad.cayley"
        f.write_text("2\n0 1\n1 7\n", encoding="utf-8")
        with pytest.raises(FormatError, match="line 3"):
            load_cayley(f)

    def test_short_row_rejected(self, tmp_path):
        f = tmp_path / "bad.cayley"
        f.write_text("2\n0 1\n1\n", encoding="utf-8")
        with pytest.raises(FormatError):
            load_cayley(f)

    def test_nongroup_table_rejected(self, tmp_path):
        f = tmp_path / "loop.cayley"
        f.write_text(
            "5\n0 1 2 3 4\n1 0 3 4 2\n2 4 0 1 3\n3 2 4 0 1\n4 3 1 2 0\n",
            encoding="utf-8",
        )
        with pytest.raises(NotAGroup):
            load_cayley(f)

    def test_comments_and_name_header(self, tmp_path):
        f = tmp_path / "named.cayley"
        f.write_text("# name: tiny\n# another comment\n1\n0\n", encoding="utf-8")
        assert load_cayley(f).name == "tiny"


    def test_name_comment_after_the_data(self, tmp_path):
        f = tmp_path / "late.cayley"
        f.write_text("# name: early\n1\n0\n# name: late\n", encoding="utf-8")
        assert load_cayley(f).name == "late"

    @pytest.mark.parametrize("order", ["\u00b2", "\u2075"])
    def test_order_int_cannot_read_is_a_format_error(self, tmp_path, order):
        # superscript digits pass str.isdigit() but not int()
        f = tmp_path / "sup.cayley"
        f.write_text(f"{order}\n0\n", encoding="utf-8")
        with pytest.raises(FormatError, match="line 1: expected the group order"):
            load_cayley(f)

    def test_order_past_the_digit_limit_is_too_large(self, tmp_path):
        f = tmp_path / "big.cayley"
        f.write_text("9" * 5000 + "\n0\n", encoding="utf-8")
        with pytest.raises(TooLarge, match=r"^line 1: the order is too large: 5000 digits$"):
            load_cayley(f)

    def test_order_meets_the_budget_before_any_row_is_read(self, tmp_path):
        # the row is malformed, so a loader that read it would fail otherwise
        f = tmp_path / "big.cayley"
        f.write_text("16385\nx\n", encoding="utf-8")
        with pytest.raises(TooLarge, match="^order 16385 exceeds 16384"):
            load_cayley(f)

    def test_file_past_the_digit_limit_exits_3(self, tmp_path, capsys):
        f = tmp_path / "big.cayley"
        f.write_text("9" * 5000 + "\n0\n", encoding="utf-8")
        assert main(["analyze", f"cayley:{f}"]) == 3
        assert capsys.readouterr().err == "error: line 1: the order is too large: 5000 digits\n"


class TestPermutationFiles:
    def test_a5_file(self, tmp_path):
        f = tmp_path / "a5.perm"
        f.write_text(
            "degree 5 generators 2\n1 2 0 3 4\n0 1 3 4 2\n", encoding="utf-8"
        )
        assert load_permutations(f).order == 60

    def test_identity_only(self, tmp_path):
        f = tmp_path / "triv.perm"
        f.write_text("degree 3 generators 1\n0 1 2\n", encoding="utf-8")
        assert load_permutations(f).order == 1

    def test_non_bijective_rejected(self, tmp_path):
        f = tmp_path / "bad.perm"
        f.write_text("degree 3 generators 1\n0 0 2\n", encoding="utf-8")
        with pytest.raises(FormatError):
            load_permutations(f)

    def test_bad_header_rejected(self, tmp_path):
        f = tmp_path / "bad.perm"
        f.write_text("3 1\n0 1 2\n", encoding="utf-8")
        with pytest.raises(FormatError, match="header"):
            load_permutations(f)


    def test_name_comment_after_the_data(self, tmp_path):
        f = tmp_path / "late.perm"
        f.write_text("degree 3 generators 1\n1 2 0\n# name: C3 late\n", encoding="utf-8")
        g = load_permutations(f)
        assert (g.name, g.order) == ("C3 late", 3)

    def test_unnamed_file_takes_its_stem(self, tmp_path):
        f = tmp_path / "stem.perm"
        f.write_text("# a comment\n\ndegree 3 generators 1\n1 2 0\n", encoding="utf-8")
        assert load_permutations(f).name == "stem"

    @pytest.mark.parametrize(
        "header", ["degree \u00b3 generators 1", "degree 3 generators", "degree 3 gens 1"]
    )
    def test_header_int_cannot_read_is_a_format_error(self, tmp_path, header):
        f = tmp_path / "bad.perm"
        f.write_text(f"{header}\n1 2 0\n", encoding="utf-8")
        with pytest.raises(FormatError, match="line 1: expected header"):
            load_permutations(f)

    @pytest.mark.parametrize(
        "header,what",
        [
            ("degree " + "9" * 5000 + " generators 1", "the degree"),
            ("degree 3 generators " + "9" * 5000, "the generator count"),
        ],
        ids=["degree", "count"],
    )
    def test_header_number_past_the_digit_limit_is_too_large(self, tmp_path, header, what):
        f = tmp_path / "big.perm"
        f.write_text(f"{header}\n1 2 0\n", encoding="utf-8")
        with pytest.raises(TooLarge, match=f"^line 1: {what} is too large: 5000 digits$"):
            load_permutations(f)

    def test_file_past_the_digit_limit_exits_3(self, tmp_path, capsys):
        f = tmp_path / "big.perm"
        f.write_text("degree " + "9" * 5000 + " generators 1\n0\n", encoding="utf-8")
        assert main(["analyze", f"perm:{f}"]) == 3
        assert capsys.readouterr().err == "error: line 1: the degree is too large: 5000 digits\n"


class TestAnalyzeCommand:
    def test_a4_json_schema(self, capsys):
        assert main(["analyze", "builtin:alternating:4", "--format", "json"]) == 0
        body = json.loads(capsys.readouterr().out)
        assert list(body) == [
            "group", "order", "center_order", "cent_count",
            "conjugate_type", "flags", "partition", "bounds", "checks",
        ]
        assert body["cent_count"] == 6
        assert body["flags"]["f_group"] and body["flags"]["ca_group"]

    def test_dihedral_above_isomorphism_cap(self, capsys):
        assert main(["analyze", "builtin:dihedral:1030", "--format", "json"]) == 0
        body = json.loads(capsys.readouterr().out)
        assert (body["order"], body["center_order"], body["cent_count"]) == (1030, 1, 517)
        assert body["flags"]["f_group"] and body["flags"]["ca_group"]
        thm1 = next(c for c in body["checks"] if c["check"] == "thm1")
        assert thm1["status"] == "pass" and thm1["details"]["family"] == "dihedral_odd"

    def test_centerless_above_factorial_digit_limit(self, capsys):
        # n = 2049 centralizers; (n-1)! has 5895 digits, above the 4300-digit
        # limit of int-to-str conversion, so the bound is written as text.
        assert main(["analyze", "builtin:dihedral:4094", "--format", "json"]) == 0
        body = json.loads(capsys.readouterr().out)
        assert (body["center_order"], body["cent_count"]) == (1, 2049)
        assert body["bounds"]["factorial_bound"] == "2048!"
        assert body["bounds"]["satisfied"]["factorial_bound"] is True

    def test_factorial_bound_exact_up_to_digit_limit(self):
        assert len(str(math.factorial(_EXACT_FACTORIAL_MAX_N - 1))) <= 4300
        assert math.factorial(_EXACT_FACTORIAL_MAX_N) >= 10**4300

    def test_json_round_trip(self, capsys):
        main(["analyze", "builtin:heisenberg:3:1", "--format", "json"])
        out = capsys.readouterr().out
        body = json.loads(out)
        assert json.loads(json.dumps(body)) == body

    def test_abelian_analysis(self, capsys):
        assert main(["analyze", "builtin:cyclic:12", "--format", "json"]) == 0
        body = json.loads(capsys.readouterr().out)
        assert body["cent_count"] is None
        assert body["flags"]["abelian"] is True
        assert all(c["status"] == "skip" for c in body["checks"])

    def test_text_report_mentions_count(self, capsys):
        main(["analyze", "builtin:alternating:4"])
        out = capsys.readouterr().out
        assert "cent count:   6" in out


    @staticmethod
    def boom(*args):
        raise InvariantViolation("patched to raise")

    def test_raising_check_keeps_every_other_row(self, capsys, monkeypatch):
        assert main(["analyze", "builtin:dihedral:6", "--format", "json"]) == 0
        clean = json.loads(capsys.readouterr().out)
        monkeypatch.setitem(checks.REGISTRY, "bbc", (self.boom, "patched"))
        assert main(["analyze", "builtin:dihedral:6", "--format", "json"]) == 3
        body = json.loads(capsys.readouterr().out)
        assert list(body) == list(clean)
        assert [c["check"] for c in body["checks"]] == list(checks.check_ids())
        error = {"check": "bbc", "group": "D6", "status": "error",
                 "details": {"reason": "patched to raise"}}
        assert body["checks"] == [error if c["check"] == "bbc" else c for c in clean["checks"]]
        assert {k: v for k, v in body.items() if k != "checks"} == {
            k: v for k, v in clean.items() if k != "checks"
        }

    def test_raising_check_text_names_its_reason(self, capsys, monkeypatch):
        monkeypatch.setitem(checks.REGISTRY, "tom11", (self.boom, "patched"))
        assert main(["analyze", "builtin:dihedral:6"]) == 3
        out = capsys.readouterr().out
        assert "  error         tom11  (patched to raise)\n" in out
        assert sum(line.startswith("  pass ") for line in out.splitlines()) > 0


class TestVerifyCommand:
    def test_default_green_exit(self, capsys):
        assert main(["verify", "--format", "json"]) == 0
        body = json.loads(capsys.readouterr().out)
        assert body["summary"]["fail"] == 0

    def test_jobs_byte_identical(self, capsys):
        main(["verify", "--format", "json", "--jobs", "1"])
        one = capsys.readouterr().out
        main(["verify", "--format", "json", "--jobs", "4"])
        four = capsys.readouterr().out
        assert one == four

    def test_failing_catalog_exits_1(self, tmp_path, capsys):
        cat = tmp_path / "cat.json"
        cat.write_text(
            json.dumps([{"name": "D6", "spec": "builtin:dihedral:6", "expected": {"cent_count": 99}}]),
            encoding="utf-8",
        )
        assert main(["verify", "--catalog", str(cat)]) == 1
        assert "fail" in capsys.readouterr().out

    def test_broken_catalog_entry_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "missing.cayley"
        cat = tmp_path / "cat.json"
        cat.write_text(
            json.dumps([{"name": "gone", "spec": f"cayley:{bad}"}]), encoding="utf-8"
        )
        assert main(["verify", "--catalog", str(cat)]) == 3
        capsys.readouterr()

    def test_raising_check_exits_3(self, tmp_path, capsys, monkeypatch):
        def boom(*args):
            raise InvariantViolation("patched to raise")

        monkeypatch.setitem(checks.REGISTRY, "bbc", (boom, "patched"))
        cat = tmp_path / "cat.json"
        cat.write_text(json.dumps([{"name": "D6", "spec": "builtin:dihedral:6"}]), encoding="utf-8")
        assert main(["verify", "--catalog", str(cat), "--format", "json"]) == 3
        body = json.loads(capsys.readouterr().out)
        assert body["summary"]["error"] == 1 and body["summary"]["total"] == 29

    @pytest.mark.parametrize(
        "entry",
        [
            {"name": "D6", "spec": 5},
            {"name": "D6", "spec": ["a"]},
            {"name": "D6", "spec": None},
            {"name": 6, "spec": "builtin:dihedral:6"},
            {"name": "D6", "spec": "builtin:dihedral:6", "expected": [1]},
            {"name": "D6", "spec": "builtin:dihedral:6", "expected": "cent_count"},
        ],
    )
    def test_bad_catalog_entry_shape_exits_3(self, tmp_path, capsys, entry):
        cat = tmp_path / "cat.json"
        good = {"name": "D8", "spec": "builtin:dihedral:8"}
        cat.write_text(json.dumps([good, entry]), encoding="utf-8")
        assert main(["verify", "--catalog", str(cat)]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: catalog entry 1") and err.count("\n") == 1

    def test_null_expected_is_no_expectation(self, tmp_path, capsys):
        cat = tmp_path / "cat.json"
        cat.write_text(
            json.dumps([{"name": "D6", "spec": "builtin:dihedral:6", "expected": None}]),
            encoding="utf-8",
        )
        assert main(["verify", "--catalog", str(cat), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["summary"]["total"] == 29

    def test_bad_spec_entry_keeps_every_other_row(self, tmp_path, capsys):
        cat = tmp_path / "cat.json"
        cat.write_text(
            json.dumps([
                {"name": "D6", "spec": "builtin:dihedral:6"},
                {"name": "odd", "spec": "builtin:dihedral:7"},
                {"name": "signed", "spec": "builtin:dihedral:+14"},
                {"name": "junk", "spec": "builtin:cyclic:1_4x"},
            ]),
            encoding="utf-8",
        )
        assert main(["verify", "--catalog", str(cat), "--format", "json"]) == 3
        results = json.loads(capsys.readouterr().out)["results"]
        groups = [r["group"] for r in results]
        assert groups.count("D6") == 29 and groups.count("signed") == 29
        errors = [(r["group"], r["check"]) for r in results if r["status"] == "error"]
        assert errors == [("odd", "build"), ("junk", "build")]

    @pytest.mark.parametrize("jobs", ["0", "-1", "-5"])
    def test_jobs_below_one_is_a_usage_error(self, capsys, jobs):
        assert main(["verify", "--jobs", jobs]) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"argument --jobs: must be at least 1, got {jobs}" in err

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_run_suite_refuses_jobs_below_one(self, jobs):
        with pytest.raises(BadParameter, match="jobs must be >= 1"):
            run_suite([], jobs=jobs)

    def test_malformed_catalog_file_exits_3(self, tmp_path, capsys):
        cat = tmp_path / "cat.json"
        cat.write_text("{not json", encoding="utf-8")
        assert main(["verify", "--catalog", str(cat)]) == 3
        capsys.readouterr()


class TestWarmEqualsCold:
    """Reports made after the catalog groups hold check results from another
    seed equal the reports of a fresh process."""

    @staticmethod
    def cold(argv):
        proc = subprocess.run(
            [sys.executable, "-m", "groupcent.cli", *argv],
            capture_output=True,
            text=True,
            env=child_env(),
            cwd=Path(__file__).resolve().parents[1],
            check=True,
        )
        return proc.stdout

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_verify_at_a_second_seed(self, capsys, jobs):
        run_suite(jobs=jobs, settings=CheckSettings(seed=11))
        argv = ["verify", "--format", "json", "--jobs", str(jobs), "--seed", "12"]
        assert main(argv) == 0
        assert capsys.readouterr().out == self.cold(argv)

    def test_analyze_after_verify(self):
        run_suite(settings=CheckSettings(seed=11))
        for settings in (CheckSettings(), CheckSettings(seed=12)):
            for entry in checks.default_catalog():
                fresh = renamed(build_group(entry.builder_spec), entry.name)
                warm = build_analysis(entry.build(), settings)
                assert warm == build_analysis(fresh, settings), (entry.name, settings)


class TestSearchCommand:
    def test_search_json(self, capsys):
        assert main(["search", "cent_eq_half", "--format", "json"]) == 0
        body = json.loads(capsys.readouterr().out)
        names = {m["group"] for m in body["matches"]}
        assert "A4" in names and "E128+" in names

    def test_search_restrict(self, capsys):
        assert main(["search", "cent_ge_half", "--restrict", "ca-group", "--format", "json"]) == 0
        body = json.loads(capsys.readouterr().out)
        assert all(m["ca_group"] for m in body["matches"])


class _Name(str):
    pass


class _Level(enum.IntEnum):
    LOW = 1


# every JSON value json.dumps writes, and the values and keys it converts
_SYNTHETIC = {
    "text": "caf\u00e9 \u4e2d \U0001f600 \x00\x1f\x7f \"quoted\" back\\slash /\t\n",
    "numbers": [0, -1, 2**64 + 1, -(2**70), 0.1, -0.0, 1e300, float("nan"), float("inf"),
                float("-inf")],
    "words": [True, False, None],
    "empty": [{}, [], {"a": {}, "b": [[]], "c": [{}, []]}],
    "tuple": (1, "two", (3.0, None), []),
    "keys": {7: "int", 2.5: "float", True: "bool", False: "false", None: "none", "s": "str"},
    "deep": [{"k": {3: [1, (2, {"x": float("nan")})], "m": [{"n": [[[]]]}]}}],
    _Name("subclass"): _Name("value"),
    "enum": [_Level.LOW, {_Level.LOW: _Level.LOW}],
}


class TestJsonWriter:
    """A JSON report is json.dumps(body, indent=2) and a newline, byte for
    byte, and a body json.dumps refuses is refused with its error."""

    @pytest.fixture
    def bodies(self, monkeypatch):
        seen = []

        class Recording(Report):
            def render(self):
                seen.append(self.body)
                return super().render()

        monkeypatch.setattr(cli, "Report", Recording)
        return seen

    @staticmethod
    def assert_written_as_json_dumps(body):
        assert Report("analysis", "json", body).render() == json.dumps(body, indent=2) + "\n"

    def test_catalog_analysis_bodies(self):
        for entry in checks.default_catalog():
            self.assert_written_as_json_dumps(build_analysis(entry.build()))

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_verify_body(self, capsys, bodies, jobs):
        assert main(["verify", "--format", "json", "--jobs", str(jobs)]) == 0
        [body] = bodies
        assert capsys.readouterr().out == json.dumps(body, indent=2) + "\n"

    @pytest.mark.parametrize("restrict", [None, "f-group", "ca-group"])
    @pytest.mark.parametrize("predicate", sorted(checks._NAMED_PREDICATES))
    def test_search_bodies(self, capsys, bodies, predicate, restrict):
        argv = ["search", predicate, "--format", "json"]
        assert main(argv + (["--restrict", restrict] if restrict else [])) == 0
        [body] = bodies
        assert capsys.readouterr().out == json.dumps(body, indent=2) + "\n"

    def test_synthetic_body(self):
        self.assert_written_as_json_dumps(_SYNTHETIC)
        self.assert_written_as_json_dumps({"nested": _SYNTHETIC, "list": [_SYNTHETIC]})

    @pytest.mark.parametrize(
        "bad", [np.int64(1), {1, 2}, object(), {(1, 2): "tuple key"}],
        ids=["numpy-int", "set", "object", "tuple-key"],
    )
    def test_unserializable_value_raises_as_json_dumps(self, bad):
        body = {"results": [{"check": "np1", "details": {"x": bad}}]}
        with pytest.raises(TypeError) as want:
            json.dumps(body, indent=2)
        with pytest.raises(TypeError) as got:
            Report("suite", "json", body).render()
        assert str(got.value) == str(want.value)

    def test_circular_body_raises_as_json_dumps(self):
        body = {"results": []}
        body["results"].append(body)
        with pytest.raises(ValueError, match="^Circular reference detected$"):
            Report("suite", "json", body).render()


class TestExportCommand:
    def test_export_reload(self, tmp_path, capsys):
        out = tmp_path / "d14.cayley"
        assert main(["export", "builtin:dihedral:14", str(out)]) == 0
        g = load_cayley(out)
        assert g.order == 14 and cent_count(g) == 9

    def test_export_uses_lf_endings(self, tmp_path):
        out = tmp_path / "q8.cayley"
        main(["export", "builtin:quaternion8", str(out)])
        raw = out.read_bytes()
        assert b"\r" not in raw and raw.endswith(b"\n")


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert main(["no-such-command"]) == 2
        capsys.readouterr()

    def test_input_error_spec(self, capsys):
        assert main(["analyze", "builtin:dihedral:7"]) == 3
        capsys.readouterr()

    def test_input_error_missing_file(self, tmp_path, capsys):
        assert main(["analyze", f"cayley:{tmp_path}/absent.cayley"]) == 3
        capsys.readouterr()

    def test_subprocess_entrypoint(self):
        proc = subprocess.run(
            [sys.executable, "-m", "groupcent.cli", "analyze", "builtin:symmetric:3"],
            capture_output=True,
            text=True,
            env=child_env(),
            cwd=Path(__file__).resolve().parents[1],
        )
        assert proc.returncode == 0
        assert "cent count:   5" in proc.stdout


class TestImportCost:
    @pytest.fixture(scope="class")
    def imports(self):
        """One fresh interpreter runs analyze and verify; per module, whether
        importing numpy loaded it and whether it is loaded after the two
        commands, with the numpy version."""
        script = "\n".join([
            "import contextlib, io, sys",
            "import numpy",
            "mods = ('numpy.ma', 'numpy.random')",
            "before = [m in sys.modules for m in mods]",
            "from groupcent import cli",
            "with contextlib.redirect_stdout(io.StringIO()):",
            "    assert cli.main(['analyze', 'builtin:dihedral:512', '--format', 'json']) == 0",
            "    assert cli.main(['verify', '--format', 'json']) == 0",
            "print(numpy.__version__, *before, *[m in sys.modules for m in mods])",
        ])
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=child_env(),
            cwd=Path(__file__).resolve().parents[1],
            check=True,
        )
        version, ma_before, random_before, ma_after, random_after = proc.stdout.split()
        return {
            "version": version,
            "numpy.ma": (ma_before, ma_after),
            "numpy.random": (random_before, random_after),
        }

    def test_analyze_and_verify_add_no_numpy_ma_import(self, imports):
        # In numpy 2 a plain np.unique call imports numpy.ma the first time
        # it runs; numpy 1 imports numpy.ma with numpy itself. So the two
        # commands must leave it as importing numpy left it.
        version = imports["version"]
        before, after = imports["numpy.ma"]
        assert after == before
        if int(version.split(".")[0]) >= 2:
            assert after == "False"

    def test_analyze_and_verify_add_no_numpy_random_import(self, imports):
        # numpy 2 loads numpy.random on its first use, numpy 1 with numpy
        # itself. Sampled pairs are drawn with the stdlib's random, so the two
        # commands must leave it as importing numpy left it.
        version = imports["version"]
        before, after = imports["numpy.random"]
        assert after == before
        if int(version.split(".")[0]) >= 2:
            assert after == "False"
