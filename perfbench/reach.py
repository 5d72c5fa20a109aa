"""One-shot reach sweep: every suite once at each (n, max_degree) grid point.

    python3 perfbench/reach.py

Each cell is one fresh ``wmfock verify --suite S --n N --max-degree D
--jobs 1`` process.  The sweep prints wall time (set-up plus work), peak
RSS, exit code and the report's SHA-256 per cell, and writes the same rows
to ``.bench_build/perfbench/reach.json``.  A cell that runs longer than
``TIMEOUT_S`` is killed and shown as a timeout.  The sweep takes about a
minute, too slow to be one of the gated workloads.
"""

from __future__ import annotations

import json
import os
import sys
import time

from run import ROOT, spawn
from workloads import sha256_file

SUITES = ("relations", "ck", "projections", "masa", "spectrum", "gauge")
GRID = ((2, 10), (3, 8), (4, 6), (5, 6))  # (n, max_degree), ROADMAP item 1
TIMEOUT_S = 300.0  # per cell


def main() -> int:
    out_dir = os.path.join(ROOT, ".bench_build", "perfbench", "reach")
    os.makedirs(out_dir, exist_ok=True)
    report = os.path.join(out_dir, "report.json")
    rows = []
    print("%-12s %7s %9s %8s %3s  %s" % ("suite", "(n,d)", "wall_s", "rss_mb", "rc", "sha256"))
    for suite in SUITES:
        for n, d in GRID:
            if os.path.exists(report):
                os.remove(report)
            argv = ["cli", "verify", "--suite", suite, "--n", str(n), "--max-degree", str(d),
                    "--jobs", "1", "--out", report]
            proc = spawn(argv, out_dir, time.monotonic() + TIMEOUT_S)
            written = proc.rc in (0, 1) and os.path.exists(report)
            row = {"suite": suite, "n": n, "maxDegree": d, "rc": proc.rc,
                   "wall_s": proc.setup_s + proc.run_s if written else None,
                   "peak_rss_mb": proc.rss_mb,
                   "sha256": sha256_file(report) if written else None}
            rows.append(row)
            print("%-12s %7s %9s %8.1f %3d  %s" % (
                suite, "(%d,%d)" % (n, d),
                "%.2f" % row["wall_s"] if written else "timeout" if proc.rc < 0 else "-",
                proc.rss_mb, proc.rc, row["sha256"] or proc.stderr.strip()[-80:]), flush=True)
    with open(os.path.join(out_dir, "reach.json"), "w", encoding="utf-8") as handle:
        json.dump(rows, handle, indent=2)
    return 0 if all(row["rc"] == 0 for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
