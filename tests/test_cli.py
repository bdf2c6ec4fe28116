"""Spec grammar, file formats, report rendering, exit codes."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from groupcent import (
    CheckSettings,
    build_group,
    cent_count,
    checks,
    load_cayley,
    load_permutations,
    parse_spec,
    renamed,
    run_suite,
    save_cayley,
    symmetric,
)
from groupcent.cli import _EXACT_FACTORIAL_MAX_N, build_analysis, main
from groupcent.errors import (
    FormatError,
    InvariantViolation,
    NotAGroup,
    SpecParseError,
    UnknownFamily,
)


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

    def test_bad_scheme(self):
        with pytest.raises(SpecParseError):
            parse_spec("ftp:whatever")

    def test_wrong_arity(self):
        with pytest.raises(SpecParseError):
            parse_spec("builtin:heisenberg:3")


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
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
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
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
            cwd=Path(__file__).resolve().parents[1],
        )
        assert proc.returncode == 0
        assert "cent count:   5" in proc.stdout
