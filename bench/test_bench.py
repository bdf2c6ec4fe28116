"""Self-tests of the benchmark: its inputs, its correctness gate, and the
agreement between BENCHMARK.json and the metrics run.py prints.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import worker  # noqa: E402
from groupcent import checks, cli, core, specs  # noqa: E402

GOLDEN = json.loads((HERE / "golden.json").read_text())


def test_relabelled_tables_are_groups_with_the_base_invariants():
    for name, spec in worker.CHURN_BASES[:6]:
        base = specs.build_group(spec)
        perm = np.random.default_rng(3).permutation(base.order)
        table = worker.relabel(base.table, perm)
        G = core.from_table(table, name)
        assert G.identity == perm[base.identity]
        assert G.table[perm[1], perm[2]] == perm[base.table[1, 2]]
        body = cli.build_analysis(G, checks.CheckSettings())
        assert worker.invariants(body) == GOLDEN["churn"][name]


def test_churn_inputs_are_reproducible_from_the_seed():
    a, b, c = worker.churn_inputs(5), worker.churn_inputs(5), worker.churn_inputs(6)
    assert len(a) == len(worker.CHURN_BASES) * worker.CHURN_COPIES
    assert [n for n, _ in a] == [n for n, _ in b]
    assert all(np.array_equal(x, y) for (_, x), (_, y) in zip(a, b))
    assert any(not np.array_equal(x, y) for (_, x), (_, y) in zip(a, c))
    # no table repeats within one run
    assert len({t.tobytes() for _, t in a}) == len(a)


def test_workload_inputs_depend_only_on_the_seed():
    for w in ("catalog_verify", "large_ladder"):
        one, two = worker.make_inputs(w, 9), worker.make_inputs(w, 9)
        assert repr(one) == repr(two)


def _golden_outputs() -> dict:
    """Outputs of one correct repetition of every kind, built from golden.json."""
    return {
        "verify": {"exit": 0, "sha256": GOLDEN["verify_sha256"],
                   "summary": dict(GOLDEN["verify_summary"])},
        "searches": {k: {"exit": 0, "hits": list(v)} for k, v in GOLDEN["searches"].items()},
        "warm_verify": {"exit": 0, "sha256": GOLDEN["verify_sha256"]},
        "catalog_analyze": dict(GOLDEN["catalog_analyze"]),
        "ladder": dict(GOLDEN["ladder"]),
        "probe": {"outcome": "raised", "error": "OrderCapExceeded"},
        "churn": [(name, run._digest(inv)) for name, inv in GOLDEN["churn"].items()],
    }


def test_gate_accepts_the_golden_outputs():
    assert run.gate(_golden_outputs(), GOLDEN) == []


def test_golden_summary_matches_the_recorded_verify_run():
    assert GOLDEN["verify_summary"] == {"total": 1110, "pass": 637, "skip": 473, "fail": 0,
                                        "indeterminate": 0, "error": 0}


def _flip_one_check_status(out: dict) -> None:
    name, inv = next(iter(GOLDEN["churn"].items()))
    inv = copy.deepcopy(inv)
    cid, status = next(iter(inv["checks"].items()))
    inv["checks"][cid] = "fail" if status == "pass" else "pass"
    out["churn"][0] = (name, run._digest(inv))


def _tamper_search(out: dict) -> None:
    out["searches"]["cent_eq_half|None"]["hits"].pop()


def _tamper_summary(out: dict) -> None:
    out["verify"]["summary"]["pass"] -= 1
    out["verify"]["summary"]["fail"] += 1


def _tamper_ladder(out: dict) -> None:
    out["ladder"]["builtin:dihedral:512"] = "0" * 64


def _tamper_probe(out: dict) -> None:
    out["probe"] = {"outcome": "ok", **run.PROBE_EXPECTED, "cent_count": 516}


def _tamper_exit(out: dict) -> None:
    out["warm_verify"]["exit"] = 1


@pytest.mark.parametrize("tamper", [_flip_one_check_status, _tamper_search, _tamper_summary,
                                    _tamper_ladder, _tamper_probe, _tamper_exit])
def test_gate_rejects_a_tampered_output(tamper):
    out = _golden_outputs()
    tamper(out)
    assert run.gate(out, GOLDEN)


def test_gate_accepts_a_probe_that_succeeds_correctly():
    out = _golden_outputs()
    out["probe"] = {"outcome": "ok", **run.PROBE_EXPECTED}
    assert run.gate(out, GOLDEN) == []


def test_benchmark_json_names_the_metrics_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert list(run.CHECK_IDS) == list(checks.check_ids())
    assert [fn for _, fn in worker.CACHED] == list(run.CACHED)


def test_every_span_the_traced_run_records_is_a_per_layer_metric():
    span = worker.Spans(True)
    rows: list = []
    for spec in ("builtin:dihedral:8", "builtin:cyclic:4"):
        worker.layer_sequence(specs.build_group(spec), checks.CheckSettings(), span, rows)
    names = set(span.totals())
    assert names <= set(run.BUSY_SPANS)
    assert {f"checks.{c}" for c in run.CHECK_IDS} <= names
    assert len(rows) == 2 * len(run.CHECK_IDS)
