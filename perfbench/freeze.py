#!/usr/bin/env python3
"""Write reference.json: the outputs of every pooled job config.

The references are frozen at the commit that introduced the benchmark, so
later changes are checked against that code's answers. Re-running this on a
later commit would make the checks compare a program with itself; do it only
when a pool entry is added, and then only for the new entry.

    python3 perfbench/freeze.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from jobs import config_key, pool_entries

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from decolab import cli  # noqa: E402


def main() -> int:
    refs = {}
    with tempfile.TemporaryDirectory(dir=BENCH) as tmp:
        for scenario, units, params in pool_entries():
            cfg = Path(tmp) / "config.json"
            out = Path(tmp) / "out.json"
            cfg.write_text(json.dumps({"scenario": scenario, "units": units,
                                       "params": params}), encoding="utf-8")
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                code = cli.main(["run", str(cfg), "--output", str(out),
                                 "--format", "json"])
            if code != 0:
                print(f"{scenario} {params}: exit {code}", file=sys.stderr)
                return 1
            payload = json.loads(out.read_text(encoding="utf-8"))
            # the last summary line carries the wall time; keep the physics
            summary = printed.getvalue().splitlines()[:-1]
            refs[config_key(scenario, units, params)] = {
                "columns": payload["columns"], "summary": "\n".join(summary)}
    (BENCH / "reference.json").write_text(
        json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(refs)} references")
    return 0


if __name__ == "__main__":
    sys.exit(main())
