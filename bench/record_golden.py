"""Write bench/golden.json: the outputs every benchmark repetition must match.

    python3 bench/record_golden.py

Run it from the root of a checkout, at the commit whose outputs are the
reference.  A later commit must reproduce these outputs; re-recording them
there would hide a change in the program's results.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import worker as w  # noqa: E402
from groupcent import checks, cli, specs  # noqa: E402


def main() -> int:
    digests = set()
    for extra in (["--jobs", "1"], ["--jobs", "2"], ["--jobs", "1", "--seed", "7"]):
        code, text = w.cli_run(["verify", "--format", "json", *extra])
        if code != 0:
            raise SystemExit(f"verify {extra} exited {code}")
        digests.add(w.sha(text))
    if len(digests) != 1:
        raise SystemExit("verify output depends on --jobs or --seed")
    summary = json.loads(text)["summary"]

    searches = {}
    for pred, restrict in w.SEARCHES:
        code, text = w.cli_run(w.search_argv(pred, restrict))
        searches[f"{pred}|{restrict}"] = [h["group"] for h in json.loads(text)["matches"]]

    catalog_analyze = {e.name: w.sha(w.analysis_json(e.build(), checks.CheckSettings()))
                       for e in checks.default_catalog()}

    # The benchmark draws the sampling seed from --seed, so the reference
    # must not depend on it.
    ladder = {}
    for spec in w.LADDER:
        G = specs.build_group(spec)
        found = {w.sha(w.analysis_json(G, checks.CheckSettings(seed=s))) for s in (1, 0x5EED)}
        if len(found) != 1:
            raise SystemExit(f"analyze {spec} depends on the sampling seed")
        ladder[spec] = found.pop()

    churn = {name: w.invariants(cli.build_analysis(specs.build_group(spec), checks.CheckSettings()))
             for name, spec in w.CHURN_BASES}

    golden = {
        "verify_sha256": digests.pop(),
        "verify_summary": summary,
        "searches": searches,
        "catalog_analyze": catalog_analyze,
        "ladder": ladder,
        "churn": churn,
    }
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
