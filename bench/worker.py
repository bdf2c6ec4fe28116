"""One repetition of one benchmark workload, in a fresh interpreter.

    python3 bench/worker.py <workload> <seed> <mode>

``mode`` is one of

* ``setup``    import groupcent and generate the inputs, nothing else;
* ``e2e``      the workload as a user runs it, with no tracing;
* ``layers``   the per-layer call sequence with spans off;
* ``traced``   the same sequence with spans on.

``bench/run.py`` starts this script once per repetition, because
groupcent's caches live for the whole process: a second pass in the same
interpreter would measure cache hits, not the work.  The script sits in
``bench/`` of a checkout and imports groupcent from ``src/`` there.
The last line of stdout is one JSON object with the timings and the outputs
that ``run.py`` checks against ``golden.json``.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from concurrent.futures import ThreadPoolExecutor  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import groupcent  # noqa: E402
from groupcent import analytics, checks, cli, core, specs  # noqa: E402
from groupcent.errors import GroupTheoryError  # noqa: E402

# --- catalog_verify(_j2): the default catalog, verified cold, then queried warm.
SEARCHES = tuple(
    (pred, restrict)
    for pred in ("cent_eq_half", "cent_eq_half_plus_two", "cent_ge_half")
    for restrict in (None, "f-group", "ca-group")
)

# --- large_ladder: orders 512..1536, where validation and quotient rebuilds
# dominate.  Two orders are above 1024 and take the generator-based test.
LADDER = (
    "builtin:heisenberg:2:3",
    "builtin:heisenberg:3:2",
    "builtin:dihedral:512",
    "builtin:alternating:5*builtin:symmetric:3*builtin:cyclic:2",
    "builtin:heisenberg:2:3*builtin:cyclic:3",
    "builtin:frobenius:13:4:5*builtin:frobenius:7:3:2",
)
# Run after the ladder and never timed: when the benchmark was introduced it
# raised OrderCapExceeded (the isomorphism cap in family recognition).
PROBE = "builtin:dihedral:1030"

# --- relabel_churn: small catalog groups under random relabellings, each
# analysed once and dropped.  Every group is non-abelian and of order <= 64,
# so every pair check runs exhaustively.
CHURN_BASES = (
    ("D8", "builtin:dihedral:8"),
    ("D12", "builtin:dihedral:12"),
    ("D20", "builtin:dihedral:20"),
    ("Q8", "builtin:quaternion8"),
    ("E8-", "builtin:extraspecial2:1:minus"),
    ("E32+", "builtin:extraspecial2:2:plus"),
    ("E32-", "builtin:extraspecial2:2:minus"),
    ("Heis(3)", "builtin:heisenberg:3:1"),
    ("Heis(4)", "builtin:heisenberg:2:2"),
    ("C5:C4(r=2)", "builtin:frobenius:5:4:2"),
    ("C7:C6(r=3)", "builtin:frobenius:7:6:3"),
    ("C11:C5(r=3)", "builtin:frobenius:11:5:3"),
    ("C13:C4(r=5)", "builtin:frobenius:13:4:5"),
    ("A4", "builtin:alternating:4"),
    ("S4", "builtin:symmetric:4"),
    ("A5", "builtin:alternating:5"),
    ("S3xS3", "builtin:symmetric:3*builtin:symmetric:3"),
    ("D8xC2", "builtin:dihedral:8*builtin:cyclic:2"),
)
CHURN_COPIES = 10

# Cached functions whose cache_info() the traced run reads, where it exists.
CACHED = (
    ("core", "center"), ("core", "derived_subgroup"), ("core", "isomorphic"),
    ("analytics", "profile"), ("analytics", "central_quotient"),
    ("analytics", "is_F_group"), ("analytics", "is_CA_group"),
    ("analytics", "conjugate_type"), ("analytics", "central_partition"),
)

ANALYTICS_PREDICATES = (
    "profile", "conjugate_type", "is_F_group", "is_CA_group", "is_I_group",
    "central_partition", "is_extraspecial", "is_semi_extraspecial", "is_ultraspecial",
)


# ---------------------------------------------------------------------------
# inputs


def relabel(table: np.ndarray, perm) -> np.ndarray:
    """The table of the same group with element i renamed perm[i]:
    T'[perm i, perm j] = perm T[i, j]."""
    pi = np.asarray(perm, dtype=table.dtype)
    out = np.empty_like(table)
    out[np.ix_(pi, pi)] = pi[table]
    return out


def churn_inputs(seed: int) -> list[tuple[str, np.ndarray]]:
    """CHURN_COPIES relabellings of each base group, shuffled; drawn from seed."""
    rng = random.Random(seed)
    items = []
    for name, spec in CHURN_BASES:
        table = specs.build_group(spec).table
        for _ in range(CHURN_COPIES):
            perm = list(range(table.shape[0]))
            rng.shuffle(perm)
            items.append((name, relabel(table, perm)))
    rng.shuffle(items)
    return items


def make_inputs(workload: str, seed: int) -> dict:
    rng = random.Random(seed)
    if workload.startswith("catalog_verify"):
        searches = list(SEARCHES)
        rng.shuffle(searches)
        return {
            "jobs": 2 if workload.endswith("_j2") else 1,
            "searches": searches,
            "verify_seed": rng.randrange(1, 2**31),
            "catalog": checks.default_catalog(),
        }
    settings = checks.CheckSettings(seed=rng.randrange(1, 2**31))
    if workload == "large_ladder":
        return {"settings": settings, "ladder": [(s, specs.parse_spec(s)) for s in LADDER]}
    if workload == "relabel_churn":
        return {"settings": settings, "groups": churn_inputs(seed)}
    raise SystemExit(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# helpers


def rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def cli_run(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def search_argv(pred: str, restrict: str | None) -> list[str]:
    return ["search", pred, "--format", "json"] + (["--restrict", restrict] if restrict else [])


def analysis_json(G, settings) -> str:
    return cli.Report("analysis", "json", cli.build_analysis(G, settings)).render()


def invariants(body: dict) -> dict:
    """The relabelling-invariant part of an analysis body: everything except
    element indices (partition witness, check details)."""
    part = body["partition"]
    return {
        "order": body["order"],
        "center_order": body["center_order"],
        "cent_count": body["cent_count"],
        "conjugate_type": body["conjugate_type"],
        "flags": body["flags"],
        "partition": None if part is None else {
            k: part[k] for k in ("is_partition", "is_normal", "component_sizes")},
        "bounds": body["bounds"],
        "checks": {c["check"]: c["status"] for c in body["checks"]},
    }


# ---------------------------------------------------------------------------
# end-to-end repetitions (no tracing).  An exception in a timed operation
# ends the repetition; run.py counts it as failed.


def e2e_catalog(inp: dict, out: dict) -> None:
    jobs = str(inp["jobs"])
    t0 = time.perf_counter()
    code, text = cli_run(["verify", "--format", "json", "--jobs", jobs])
    t1 = time.perf_counter()
    out["outputs"]["verify"] = {"exit": code, "sha256": sha(text),
                                "summary": json.loads(text)["summary"]}
    searches = {}
    for pred, restrict in inp["searches"]:
        code, text = cli_run(search_argv(pred, restrict))
        searches[f"{pred}|{restrict}"] = {
            "exit": code, "hits": [h["group"] for h in json.loads(text)["matches"]]}
    code, text = cli_run(["verify", "--format", "json", "--jobs", jobs,
                          "--seed", str(inp["verify_seed"])])
    t2 = time.perf_counter()
    out["outputs"]["searches"] = searches
    out["outputs"]["warm_verify"] = {"exit": code, "sha256": sha(text)}
    out["first_s"], out["followup_s"] = t1 - t0, t2 - t1
    out["attempted"] = 2 + len(inp["searches"])


def e2e_ladder(inp: dict, out: dict) -> None:
    build_s = analyze_s = 0.0
    digests = {}
    for text_spec, spec in inp["ladder"]:
        t0 = time.perf_counter()
        G = specs.build_group(spec)
        t1 = time.perf_counter()
        digests[text_spec] = sha(analysis_json(G, inp["settings"]))
        t2 = time.perf_counter()
        build_s += t1 - t0
        analyze_s += t2 - t1
        del G
    out["first_s"], out["followup_s"] = build_s, analyze_s
    out["outputs"]["ladder"] = digests

    t0 = time.perf_counter()
    try:
        body = cli.build_analysis(specs.build_group(PROBE), inp["settings"])
        probe = {"outcome": "ok", **{k: body[k] for k in ("order", "center_order", "cent_count")},
                 "f_group": body["flags"]["f_group"], "ca_group": body["flags"]["ca_group"]}
        del body
    except GroupTheoryError as exc:
        probe = {"outcome": "raised", "error": type(exc).__name__}
    out["probe_s"] = time.perf_counter() - t0
    out["outputs"]["probe"] = probe
    out["attempted"] = len(inp["ladder"]) + 1
    out["raised"] = int(probe["outcome"] == "raised")


def invariant_digest(body: dict) -> str:
    return sha(json.dumps(invariants(body), sort_keys=True))


def e2e_churn(inp: dict, out: dict) -> None:
    groups = inp.pop("groups")
    build_s = analyze_s = 0.0
    per_group_ms = []
    found = []
    settings = inp["settings"]
    for name, table in groups:
        t0 = time.perf_counter()
        G = core.from_table(table, name)
        t1 = time.perf_counter()
        body = cli.build_analysis(G, settings)
        cli.Report("analysis", "json", body).render()
        t2 = time.perf_counter()
        build_s += t1 - t0
        analyze_s += t2 - t1
        per_group_ms.append((t2 - t0) * 1e3)
        found.append((name, invariant_digest(body)))
        del G, body
    out["attempted"] = len(groups)
    del groups
    out["first_s"], out["followup_s"] = build_s, analyze_s
    out["group_ms"] = per_group_ms
    out["outputs"]["churn"] = found


# ---------------------------------------------------------------------------
# the per-layer call sequence, spans on or off


class Spans:
    """Wall time and call count per span name, kept in memory until the end.
    Spans do not nest.  Threads share the event list: one append is atomic."""

    def __init__(self, on: bool):
        self.on = on
        self.events: list[tuple[str, float]] = []

    def __call__(self, name: str, fn, *args):
        if not self.on:
            return fn(*args)
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.events.append((name, time.perf_counter() - t0))

    def totals(self) -> dict[str, dict]:
        agg: dict[str, dict] = {}
        for name, dt in self.events:
            a = agg.setdefault(name, {"calls": 0, "busy_s": 0.0})
            a["calls"] += 1
            a["busy_s"] += dt
        return agg


def layer_sequence(G, settings, span: Spans, rows: list) -> str:
    """Every layer's public functions on one built group, lowest layer first,
    so each span mostly holds its own layer's work.  Returns the analysis JSON."""
    span("core.center", core.center, G)
    span("core.derived_subgroup", core.derived_subgroup, G)
    span("core.is_nilpotent", core.is_nilpotent, G)
    span("core.is_perfect", core.is_perfect, G)
    span("analytics.central_quotient", analytics.central_quotient, G)
    if not core.is_abelian(G):
        for fn in ANALYTICS_PREDICATES:
            span(f"analytics.{fn}", getattr(analytics, fn), G)
        span("analytics.bounds", analytics.bounds,
             analytics.cent_count(G), G.order // core.center(G).order)
    own = [span(f"checks.{cid}", checks.run_check, cid, G, settings).as_dict()
           for cid in checks.check_ids()]
    body = span("cli.build_analysis", cli.build_analysis, G, settings)
    text = span("cli.render", cli.Report("analysis", "json", body).render)
    if own != body["checks"]:
        raise RuntimeError(f"{G.name}: run_check rows differ from build_analysis rows")
    rows.extend(own)
    return text


def layers(workload: str, inp: dict, span: Spans, out: dict) -> None:
    rows: list[dict] = []
    table_bytes: list[int] = []
    cells: list[int] = []

    def built(G):
        table_bytes.append(G.table.nbytes + G.inverses.nbytes)
        cells.append(G.order**2)
        return G

    def build(fn, *args):
        G = span("constructions.build", fn, *args)
        # Validate the built table once more through the public entry point,
        # so that core.from_table's span measures default validation on this
        # workload's tables.  It is not a part of the build span: a builder
        # may validate differently (heisenberg uses the generator test above
        # order 512).
        span("core.from_table", core.from_table, G.table, G.name)
        return built(G)

    if workload.startswith("catalog_verify"):
        def one(entry):
            G = build(entry.build)
            return entry.name, sha(layer_sequence(G, checks.CheckSettings(), span, rows))

        with ThreadPoolExecutor(max_workers=inp["jobs"]) as pool:
            out["outputs"]["catalog_analyze"] = dict(pool.map(one, inp["catalog"]))
        searches = {}
        for pred, restrict in inp["searches"]:
            code, text = span("cli.search", cli_run, search_argv(pred, restrict))
            searches[f"{pred}|{restrict}"] = {
                "exit": code, "hits": [h["group"] for h in json.loads(text)["matches"]]}
        code, text = span("cli.verify", cli_run,
                          ["verify", "--format", "json", "--jobs", str(inp["jobs"]),
                           "--seed", str(inp["verify_seed"])])
        out["outputs"]["searches"] = searches
        out["outputs"]["warm_verify"] = {"exit": code, "sha256": sha(text)}
        out["attempted"] = len(inp["catalog"]) + len(searches) + 1
    elif workload == "large_ladder":
        digests = {}
        for text_spec, spec in inp["ladder"]:
            G = build(specs.build_group, spec)
            digests[text_spec] = sha(layer_sequence(G, inp["settings"], span, rows))
            del G
        out["outputs"]["ladder"] = digests
        out["attempted"] = len(digests)
    else:
        found = []
        for name, table in inp.pop("groups"):
            G = built(span("core.from_table", core.from_table, table, name))
            found.append((name, invariant_digest(json.loads(
                layer_sequence(G, inp["settings"], span, rows)))))
            del G
        out["outputs"]["churn"] = found
        out["attempted"] = len(found)

    out["cells"] = sum(cells)
    out["rows"] = len(rows)
    out["skip_rows"] = sum(r["status"] == "skip" for r in rows)
    out["error_rows"] = sum(r["status"] == "error" for r in rows)
    out["table_mb"] = sum(table_bytes) / 2**20
    caches = {}
    for mod, fn in CACHED:
        info = getattr(getattr(getattr(groupcent, mod), fn, None), "cache_info", None)
        if info is not None:
            ci = info()
            caches[fn] = {"hits": ci.hits, "misses": ci.misses}
    out["caches"] = caches
    out["spans"] = span.totals()


# ---------------------------------------------------------------------------


def main(argv: list[str]) -> int:
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    if Path(groupcent.__file__).resolve().parent != (SRC / "groupcent").resolve():
        sys.stderr.write(f"groupcent imported from {groupcent.__file__}, not from {SRC}\n")
        return 2
    inp = make_inputs(workload, seed)
    gc.collect()
    out: dict = {"setup_s": time.perf_counter() - T_START, "outputs": {}}
    rss_setup = rss_mb()
    t0 = time.perf_counter()
    if mode == "e2e":
        {"large_ladder": e2e_ladder, "relabel_churn": e2e_churn}.get(
            workload, e2e_catalog)(inp, out)
    elif mode in ("layers", "traced"):
        layers(workload, inp, Spans(mode == "traced"), out)
    elif mode != "setup":
        raise SystemExit(f"unknown mode {mode!r}")
    out["total_s"] = time.perf_counter() - t0
    del inp
    gc.collect()
    out["end_rss_mb"] = rss_mb()
    out["retained_mb"] = out["end_rss_mb"] - rss_setup
    out["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
