"""groupcent benchmark: one workload, measured for a fixed time, outputs gated.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

It benchmarks the package in ``src/`` of the checkout it sits in.  Every
repetition runs ``bench/worker.py`` in a fresh interpreter, one at a time.
It starts repetitions until the next one would end after ``--seconds``, and
always runs at least one.

``--trace 0`` times the workload as a user runs it and reports the
end-to-end metrics as medians over the repetitions.  ``--trace 1`` runs the
per-layer call sequence with spans off and with spans on, alternately, and
reports the per-layer metrics of the traced repetitions together with the
tracing overhead (traced total minus untraced total).

Every output is checked against ``bench/golden.json``, recorded by
``bench/record_golden.py`` at the commit that introduced the benchmark.  A
repetition with a wrong output is never part of a metric, and the run
reports ``"correct": false``.
The last line of stdout is the result; the lines before it give details:
the machine, sample counts, and the metrics under the names used in
``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("catalog_verify", "catalog_verify_j2", "large_ladder", "relabel_churn")
MIN_SETUPS = 9
# groupcent calls no BLAS routine, but numpy's import starts a BLAS thread
# pool.  Its start-up took 0.05 to 0.15 s of a 0.2 s set-up and made
# setup_s unsteady; with one BLAS thread the import takes about 0.06 s.
SINGLE_THREADED_BLAS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                        "MKL_NUM_THREADS": "1"}
# A run must end within 180 s, whatever its workers do.
RUN_LIMIT_S = 170

# What a successful analysis of the dihedral:1030 probe must show:
# D(2*515) has trivial center and 515 + 2 centralizers, and is a CA-group.
PROBE_EXPECTED = {"order": 1030, "center_order": 1, "cent_count": 517,
                  "f_group": True, "ca_group": True}

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "first_s": "s",
    "followup_s": "s",
    "peak_rss_mb": "MB",
    "end_rss_mb": "MB",
}

CHECK_IDS = (
    "np1", "co1", "npcor1", "np155", "zclass1", "zclass5", "1np", "np22", "np2",
    "bc1a", "bc1b", "1sb", "sb1", "bbc", "xx", "5sb", "52sb", "np2b", "np2a",
    "semi", "bbu", "np12a", "np12b", "t1", "thm1", "ccor1", "cg118", "za1", "tom11",
)
CACHED = ("center", "derived_subgroup", "isomorphic", "profile", "central_quotient",
          "is_F_group", "is_CA_group", "conjugate_type", "central_partition")
BUSY_SPANS = (
    ["constructions.build", "core.from_table", "core.center", "core.derived_subgroup",
     "core.is_nilpotent", "core.is_perfect"]
    + [f"analytics.{f}" for f in (
        "central_quotient", "profile", "conjugate_type", "is_F_group", "is_CA_group",
        "is_I_group", "central_partition", "is_extraspecial", "is_semi_extraspecial",
        "is_ultraspecial", "bounds")]
    + [f"checks.{c}" for c in CHECK_IDS]
    + ["cli.build_analysis", "cli.render", "cli.search", "cli.verify"]
)

PER_LAYER = {  # name -> (unit, better)
    "constructions.build.calls": ("count", "lower"),
    "core.from_table.calls": ("count", "lower"),
    "core.from_table.cells": ("count", "lower"),
    "core.table_mb": ("MB", "lower"),
    **{f"{s}.busy_s": ("s", "lower") for s in BUSY_SPANS},
    "checks.rows": ("count", "higher"),
    "checks.skip_frac": ("fraction", "lower"),
    "checks.error_rows": ("count", "lower"),
    **{f"cache.{f}.{k}": ("count", better) for f in CACHED
       for k, better in (("hits", "higher"), ("misses", "lower"))},
    "cache.present": ("count", "higher"),
    "trace.untraced_s": ("s", "lower"),
    "trace.traced_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


# ---------------------------------------------------------------------------
# correctness gate


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def gate(outputs: dict, golden: dict) -> list[str]:
    """Every way the outputs of one repetition differ from golden.json;
    empty when they are all correct."""
    bad: list[str] = []

    def same(what: str, got, want) -> None:
        if got != want:
            bad.append(f"{what}: got {str(got)[:200]}, want {str(want)[:200]}")

    if "verify" in outputs:
        v = outputs["verify"]
        same("verify exit", v["exit"], 0)
        same("verify sha256", v["sha256"], golden["verify_sha256"])
        same("verify summary", v["summary"], golden["verify_summary"])
    if "searches" in outputs:
        same("search queries", sorted(outputs["searches"]), sorted(golden["searches"]))
        for key, hit in outputs["searches"].items():
            same(f"search {key} exit", hit["exit"], 0)
            same(f"search {key} hits", hit["hits"], golden["searches"].get(key))
    if "warm_verify" in outputs:
        same("warm verify exit", outputs["warm_verify"]["exit"], 0)
        same("warm verify sha256", outputs["warm_verify"]["sha256"], golden["verify_sha256"])
    if "catalog_analyze" in outputs:
        for name, want in golden["catalog_analyze"].items():
            same(f"analyze {name}", outputs["catalog_analyze"].get(name), want)
    if "ladder" in outputs:
        for spec, want in golden["ladder"].items():
            same(f"analyze {spec}", outputs["ladder"].get(spec), want)
    if "probe" in outputs:
        probe = outputs["probe"]
        if probe["outcome"] == "ok":
            same("probe", {k: probe[k] for k in PROBE_EXPECTED}, PROBE_EXPECTED)
    if "churn" in outputs:
        want = {name: _digest(inv) for name, inv in golden["churn"].items()}
        if not outputs["churn"]:
            bad.append("churn: no groups")
        for i, (name, digest) in enumerate(outputs["churn"]):
            if digest != want.get(name):
                bad.append(f"churn group {i} ({name}): invariants differ from the base group")
    return bad


# ---------------------------------------------------------------------------
# repetitions


def run_worker(workload: str, seed: int, mode: str, deadline: float) -> dict | None:
    """One fresh-interpreter repetition; None if it failed or ran past the
    run's deadline."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode],
            capture_output=True, text=True, timeout=max(deadline - time.monotonic(), 1),
            env={**os.environ, **SINGLE_THREADED_BLAS},
        )
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"{workload} {mode}: no result before the run's deadline\n")
        return None
    if proc.returncode != 0:
        sys.stderr.write(f"{workload} {mode}: exit {proc.returncode}\n{proc.stderr[-3000:]}")
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def repeat(modes: list[str], workload: str, seed: int, seconds: float,
           deadline: float) -> list[tuple[str, dict | None]]:
    """Run the modes in turn until the next one would end after ``seconds``;
    each mode runs at least once."""
    done: list[tuple[str, dict | None]] = []
    start = time.monotonic()
    longest = 0.0
    i = 0
    while True:
        t0 = time.monotonic()
        mode = modes[i % len(modes)]
        done.append((mode, run_worker(workload, seed, mode, deadline)))
        longest = max(longest, time.monotonic() - t0)
        i += 1
        if i >= len(modes) and time.monotonic() - start + longest > seconds:
            return done


def machine() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__}


def e2e_metrics(reps: list[dict]) -> dict:
    return {name: median([r[name] for r in reps]) for name in END_TO_END if name != "setup_s"}


def detail_e2e(workload: str, reps: list[dict], raised: int, attempted: int) -> dict:
    """The metrics under the names of bench/README.md, with sample counts."""
    first = median([r["first_s"] for r in reps])
    followup = median([r["followup_s"] for r in reps])
    out: dict = {"retained_mb": median([r["retained_mb"] for r in reps]),
                 "failed_frac": raised / attempted}
    if workload.startswith("catalog_verify"):
        out.update(verify_s=first, query_s=followup)
    elif workload == "large_ladder":
        out.update(build_s=first, analyze_s=followup,
                   probe=reps[0]["outputs"]["probe"],
                   probe_s=median([r["probe_s"] for r in reps]))
    else:
        samples = sorted(ms for r in reps for ms in r["group_ms"])
        deciles = quantiles(samples, n=10)
        out.update(group_ms_p50=median(samples), group_ms_p90=deciles[-1],
                   group_ms_samples=len(samples),
                   groups_per_s=median([r["attempted"] / (r["first_s"] + r["followup_s"])
                                        for r in reps]))
    return out


def layer_metrics(traced: list[dict], untraced: list[dict]) -> dict:
    def med(fn) -> float:
        return median([fn(r) for r in traced])

    def span(r: dict, name: str, key: str) -> float:
        return r["spans"].get(name, {}).get(key, 0)

    m = {
        "constructions.build.calls": med(lambda r: span(r, "constructions.build", "calls")),
        "core.from_table.calls": med(lambda r: span(r, "core.from_table", "calls")),
        "core.from_table.cells": med(lambda r: r["cells"]),
        "core.table_mb": med(lambda r: r["table_mb"]),
        "checks.rows": med(lambda r: r["rows"]),
        "checks.skip_frac": med(lambda r: r["skip_rows"] / max(r["rows"], 1)),
        "checks.error_rows": med(lambda r: r["error_rows"]),
        "cache.present": med(lambda r: len(r["caches"])),
    }
    for s in BUSY_SPANS:
        m[f"{s}.busy_s"] = med(lambda r: span(r, s, "busy_s"))
    for f in CACHED:
        for k in ("hits", "misses"):
            m[f"cache.{f}.{k}"] = med(lambda r: r["caches"].get(f, {}).get(k, 0))
    m["trace.traced_s"] = med(lambda r: r["total_s"])
    m["trace.untraced_s"] = median([r["total_s"] for r in untraced])
    m["trace.overhead_s"] = m["trace.traced_s"] - m["trace.untraced_s"]
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not (SRC / "groupcent" / "__init__.py").is_file():
        sys.stderr.write(f"no groupcent package to benchmark: {SRC / 'groupcent'} is missing\n")
        return 2
    golden = json.loads((HERE / "golden.json").read_text())

    modes = ["e2e"] if not args.trace else (
        ["layers", "traced"] if args.seed % 2 else ["traced", "layers"])
    done = repeat(modes, args.workload, args.seed, args.seconds, deadline)
    if not args.trace:
        have = len(done)
        while have < MIN_SETUPS:
            done.append(("setup", run_worker(args.workload, args.seed, "setup", deadline)))
            have += 1

    valid: dict[str, list[dict]] = {m: [] for m in ("setup", *modes)}
    attempted = failed = raised = 0
    problems: list[str] = []
    for mode, rep in done:
        if rep is None:
            attempted += 1
            failed += 1
            continue
        attempted += rep.get("attempted", 0)
        raised += rep.get("raised", 0)
        bad = gate(rep["outputs"], golden)
        problems += [f"{mode}: {b}" for b in bad]
        if not bad:
            valid[mode].append(rep)

    correct = failed == 0 and not problems and all(valid[m] for m in modes)
    detail: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                    "machine": machine(),
                    "repetitions": {m: len(v) for m, v in valid.items() if v},
                    "invalid": problems[:20]}
    metrics: dict = {}
    if correct and not args.trace:
        reps = valid["e2e"]
        metrics = {"setup_s": median([r["setup_s"] for r in reps + valid["setup"]]),
                   **e2e_metrics(reps)}
        detail["named_metrics"] = detail_e2e(args.workload, reps, raised, attempted)
        units = END_TO_END
    elif correct:
        metrics = layer_metrics(valid["traced"], valid["layers"])
        detail["cache_counters_present"] = sorted(valid["traced"][0]["caches"])
        units = {k: u for k, (u, _) in PER_LAYER.items()}
    print(json.dumps(detail, indent=1))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
