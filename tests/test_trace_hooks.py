"""The benchmark's per-layer tracer still finds every layer it wraps.

``perfbench/tracer.py`` patches layer functions and methods by name.  A
rename in ``src`` would make every traced benchmark iteration fail, so this
test installs the tracer on small CLI runs.  The two spectrum runs repeat
the ``spectrum-dataset`` workload's reconcile at a small size: one
enumeration per format, and every emitted byte written.  The CLI multiplies
words on the kernel only, so the script then multiplies two ``SparseOp``s
itself to show that the patched dictionary product still counts.  It runs
in a fresh interpreter because the tracer patches module globals and class
methods for the life of the process.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = r"""
import json, os, sys
root, out_dir = sys.argv[1:3]
sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
import wmfock.cli
from wmfock.sparse import SparseOp
from tracer import Tracer

tracer = Tracer()
tracer.install()
tracer.open_root()
rcs = [wmfock.cli.main(argv + ["--out", os.devnull]) for argv in (
    ["verify", "--suite", "all", "--n", "2", "--max-degree", "3"],
    ["gauge", "--n", "2", "--max-degree", "2", "--roots", "2"],
)] + [wmfock.cli.main(["spectrum", "--n", "2", "--max-degree", "8", "--format", fmt,
                       "--out", os.path.join(out_dir, "points." + fmt)])
      for fmt in ("csv", "svg")]
SparseOp.identity(2) @ SparseOp.identity(2)
tracer.close_root()
print(json.dumps({"rcs": rcs, "trace": tracer.export()}))
"""


def test_tracer_installs_and_counts_kernel_layers(tmp_path):
    result = subprocess.run([sys.executable, "-c", SCRIPT, ROOT, str(tmp_path)],
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    out = json.loads(result.stdout)
    assert out["rcs"] == [0, 0, 0, 0]
    calls = {}
    for name, _, n in out["trace"]["calls"]:
        calls[name] = calls.get(name, 0) + n
    for name in ("fock.column_map", "gauge.phase_matmul", "sparse.matmul"):
        assert calls.get(name, 0) > 0, name
    for name in ("fock.column_map", "words.left_extend", "words.monomial_map"):
        assert name in out["trace"]["caches"], name
    assert calls["spectrum.enumerate_spectrum"] == 2
    written = sum(os.path.getsize(tmp_path / ("points." + fmt)) for fmt in ("csv", "svg"))
    assert out["trace"]["bytes"]["spectrum.emit"] == written
