"""wmfock benchmark: fresh-process workloads timed from outside the package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every measured iteration starts fresh
``wmfock`` processes (``--jobs 1``, one client, closed loop), because the
package's ``lru_cache``s live as long as the process and every real CLI call
pays their cold fill.  One discarded warm-up process (byte-code compilation)
comes first; then iterations run back to back until the next one would end
after ``--seconds``, counted from before the warm-up; at least one always
runs.

``--trace 0`` prints the end-to-end metrics, each the median over the
run's iterations (``setup_s`` over its processes), with its extremes and
sample count.
``--trace 1`` alternates untraced and traced iterations and prints the
per-layer metrics of the traced ones, plus ``trace.overhead_s``.  The traced
reports must be byte-identical to the untraced ones, and the traced counts
must reconcile with the reports.

Every iteration is checked (exit codes, failing checks, counts, SHA-256 of
the reports); the last line is one JSON object, and the exit code is 1 if
any iteration failed.  Outputs go to ``.bench_build/perfbench/``; the spans
of a traced run are written there as ``trace-<workload>-seed<N>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import workloads as W

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
DEADLINE_S = 170.0  # the whole run, including the warm-up


@dataclass
class Proc:
    """What one child process reported and what the kernel measured."""

    rc: int
    setup_s: float
    run_s: float
    cpu_s: float
    rss_mb: float
    trace: Optional[dict]
    stderr: str


def spawn(child_args: List[str], out_dir: str, deadline: float,
          traced: bool = False) -> Proc:
    timing = os.path.join(out_dir, "timing.json")
    errors = os.path.join(out_dir, "stderr.txt")
    if os.path.exists(timing):
        os.remove(timing)
    cmd = [sys.executable, CHILD, timing, *(["--trace"] if traced else []), *child_args]
    with open(errors, "w+", encoding="utf-8") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(max(1.0, deadline - start), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        proc.returncode = rc = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read()
    marks: Dict = {}
    if os.path.exists(timing):
        with open(timing, encoding="utf-8") as handle:
            marks = json.load(handle)
    if rc == 0 and marks.get("rc") != 0:
        rc = 1
    t_ready = marks.get("t_ready", start)
    return Proc(rc, t_ready - start, marks.get("t_done", t_ready) - t_ready,
                usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                marks.get("trace"), stderr)


class Iteration:
    """One pass over a workload's processes, with its verdict."""

    def __init__(self, workload: W.Workload, plan: List[List[str]], out_dir: str,
                 deadline: float, traced: bool):
        self.traced = traced
        for path in workload.outputs(out_dir):
            if os.path.exists(path):
                os.remove(path)
        self.procs = [spawn(args, out_dir, deadline, traced=traced) for args in plan]
        self.problems: List[str] = []
        for proc in self.procs:
            if proc.rc != 0:
                self.problems.append("exit code %d: %s" % (proc.rc, proc.stderr.strip()[-400:]))
        self.items, self.digests = 0, {}
        self.trace = self._merged_trace() if traced and not self.problems else None
        if not self.problems:
            try:
                self.items, problems, self.digests = workload.check(out_dir)
                self.problems.extend(problems)
                if traced:
                    self.problems.extend(workload.reconcile(self.trace, out_dir))
            except (OSError, ValueError, KeyError) as exc:
                self.problems.append("unreadable output: %r" % exc)
        self.run_s = sum(proc.run_s for proc in self.procs)
        self.cpu_s = sum(proc.cpu_s for proc in self.procs)
        self.rss_mb = max(proc.rss_mb for proc in self.procs)

    def _merged_trace(self) -> dict:
        """Traces of the iteration's processes, merged (counts and times add)."""
        merged: Dict = {"calls": [], "total_s": {}, "self_s": {}, "spans": [],
                        "basis_states": 0, "distinct_unitaries": 0,
                        "bytes": {}, "caches": {}}
        for number, proc in enumerate(self.procs):
            t = proc.trace
            merged["calls"].extend(t["calls"])
            for key in ("total_s", "self_s", "bytes"):
                for name, value in t[key].items():
                    merged[key][name] = merged[key].get(name, 0) + value
            for name, info in t["caches"].items():
                acc = merged["caches"].setdefault(name, {"hits": 0, "misses": 0})
                acc["hits"] += info["hits"]
                acc["misses"] += info["misses"]
            merged["spans"].extend([number] + span for span in t["spans"])
            merged["basis_states"] += t["basis_states"]
            merged["distinct_unitaries"] += t["distinct_unitaries"]
        return merged


# -- per-layer metrics from a merged trace ------------------------------------

COUNT, SECONDS, RATIO, BYTES = "count", "s", "ratio", "bytes"


def layer_metrics(trace: dict) -> Dict[str, tuple]:
    calls: Dict[str, int] = {}
    for name, _, n in trace["calls"]:
        calls[name] = calls.get(name, 0) + n
    total, own = trace["total_s"], trace["self_s"]

    def hit_ratio(name):
        info = trace["caches"][name]
        looked_up = info["hits"] + info["misses"]
        return info["hits"] / looked_up if looked_up else 0.0

    unitary_calls = calls.get("gauge.gauge_unitary", 0)
    out = {
        "fock.enumerate_basis.s": (total.get("fock.enumerate_basis", 0.0), SECONDS),
        "fock.basis_states": (trace["basis_states"], COUNT),
        "fock.column_map.calls": (calls.get("fock.column_map", 0), COUNT),
        "fock.column_map.hit_ratio": (hit_ratio("fock.column_map"), RATIO),
        "fock.check_guarded_identity.calls": (calls.get("fock.check_guarded_identity", 0), COUNT),
        "fock.check_guarded_identity.s": (total.get("fock.check_guarded_identity", 0.0), SECONDS),
        "words.rewrite.calls": (calls.get("words.rewrite", 0), COUNT),
        "words.rewrite.s": (total.get("words.rewrite", 0.0), SECONDS),
        "words.left_extend.hit_ratio": (hit_ratio("words.left_extend"), RATIO),
        "words.evaluate_word.calls": (calls.get("words.evaluate_word", 0), COUNT),
        "words.evaluate_word.s": (total.get("words.evaluate_word", 0.0), SECONDS),
        "words.evaluate.s": (total.get("words.evaluate", 0.0), SECONDS),
        "words.monomial_map.hit_ratio": (hit_ratio("words.monomial_map"), RATIO),
        "words.precedes.calls": (calls.get("words.precedes", 0), COUNT),
        "words.projection_product.calls": (calls.get("words.projection_product", 0), COUNT),
        "words.projection_product.s": (total.get("words.projection_product", 0.0), SECONDS),
        "sparse.matmul.calls": (calls.get("sparse.matmul", 0), COUNT),
        "sparse.matmul.s": (total.get("sparse.matmul", 0.0), SECONDS),
        "sparse.restrict_columns.s": (total.get("sparse.restrict_columns", 0.0), SECONDS),
        "masa.expectation.calls": (calls.get("masa.expectation", 0), COUNT),
        "masa.rank_one_projection.calls": (calls.get("masa.rank_one_projection", 0), COUNT),
        "spectrum.enumerate_spectrum.s": (total.get("spectrum.enumerate_spectrum", 0.0), SECONDS),
        "spectrum.emit_csv.s": (total.get("spectrum.emit_csv", 0.0), SECONDS),
        "spectrum.emit_svg.s": (total.get("spectrum.emit_svg", 0.0), SECONDS),
        "spectrum.emit.bytes": (trace["bytes"].get("spectrum.emit", 0), BYTES),
        "spectrum.verify_multiplicativity.s":
            (total.get("spectrum.verify_multiplicativity", 0.0), SECONDS),
        "spectrum.functional_apply.calls": (calls.get("spectrum.functional_apply", 0), COUNT),
        "spectrum.boundary_convergence_report.s":
            (total.get("spectrum.boundary_convergence_report", 0.0), SECONDS),
        "gauge.gauge_unitary.calls": (unitary_calls, COUNT),
        "gauge.gauge_unitary.s": (total.get("gauge.gauge_unitary", 0.0), SECONDS),
        "gauge.gauge_unitary.distinct_ratio":
            (trace["distinct_unitaries"] / unitary_calls if unitary_calls else 0.0, RATIO),
        "gauge.check_covariance.calls": (calls.get("gauge.check_covariance", 0), COUNT),
        "gauge.check_covariance.s": (total.get("gauge.check_covariance", 0.0), SECONDS),
        "gauge.check_group_law.s": (total.get("gauge.check_group_law", 0.0), SECONDS),
        "gauge.phase_matmul.calls": (calls.get("gauge.phase_matmul", 0), COUNT),
        "gauge.phase_matmul.s": (total.get("gauge.phase_matmul", 0.0), SECONDS),
    }
    for suite in ("relations", "ck", "projections", "masa", "spectrum", "gauge",
                  "soundness_check"):
        out["suites.%s.self_s" % suite] = (own.get("suites." + suite, 0.0), SECONDS)
    out["cli.report_write.s"] = (total.get("cli.report_write", 0.0), SECONDS)
    out["cli.report.bytes"] = (trace["bytes"].get("cli.report", 0), BYTES)
    return out


# -- reporting -----------------------------------------------------------------


def describe(name: str, values: List[float], unit: str) -> str:
    """Median, extremes and sample count, and the highest percentile that has
    at least ten samples beyond it when there are enough samples for one."""
    ordered = sorted(values)
    count = len(ordered)
    text = "%-24s median %.6g %s of %d; min %.6g, max %.6g" % (
        name, statistics.median(ordered), unit, count, ordered[0], ordered[-1])
    if count >= 11:
        text += "; p%.0f %.6g" % (100.0 * (count - 10) / count, ordered[count - 11])
    else:
        text += "; no percentile has ten samples beyond it"
    return text


def machine_facts() -> str:
    return "machine: nproc %s, Python %s, %s %s" % (
        os.cpu_count(), platform.python_version(), platform.system(), platform.machine())


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "wmfock", "__init__.py")):
        print("error: no wmfock sources under %s; run from a repository checkout"
              % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    workload = W.WORKLOADS[args.workload]
    out_dir = os.path.join(ROOT, ".bench_build", "perfbench", workload.name)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    print(machine_facts())
    print("workload %s, seed %d, %g s, trace %d" % (workload.name, args.seed,
                                                   args.seconds, args.trace))
    plan = workload.plan(args.seed, out_dir)
    iterations = measure(workload, plan, out_dir, args.seconds, bool(args.trace), deadline)

    failed = sum(1 for it in iterations if it.problems)
    attempted = len(iterations)
    for number, it in enumerate(iterations):
        for problem in it.problems:
            print("FAIL iteration %d%s: %s" % (number, " (traced)" if it.traced else "",
                                              problem))
    print("fail_ratio %.6g (%d failed of %d attempted)" % (failed / attempted, failed,
                                                         attempted))
    plain = [it for it in iterations if not it.traced and not it.problems]
    traced = [it for it in iterations if it.traced and not it.problems]
    metrics: Dict[str, dict] = {}
    if plain and (traced or not args.trace):
        print("digests: %s" % " ".join("%s=%s" % kv for kv in sorted(plain[0].digests.items())))
        print("items per iteration: %d" % plain[0].items)
        print("run_s per iteration: %s" % " ".join("%.4f" % it.run_s for it in plain))
        series = {
            "setup_s": ([p.setup_s for it in plain for p in it.procs], "s"),
            "run_s": ([it.run_s for it in plain], "s"),
            "cpu_s": ([it.cpu_s for it in plain], "s"),
            "items_per_s": ([it.items / it.run_s for it in plain], "1/s"),
            "peak_rss_mb": ([it.rss_mb for it in plain], "MB"),
        }
        for name, (values, unit) in series.items():
            print(describe(name, values, unit))
            metrics[name] = {"value": statistics.median(values), "unit": unit}
        if args.trace:
            metrics = traced_metrics(traced, metrics["run_s"]["value"])
            path = os.path.join(os.path.dirname(out_dir), "trace-%s-seed%d.json"
                                % (workload.name, args.seed))
            with open(path, "w", encoding="utf-8") as handle:
                json.dump({"workload": workload.name, "seed": args.seed,
                           "iterations": [it.trace for it in traced]}, handle)
            print("spans and counts written to %s" % os.path.relpath(path, ROOT))
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def measure(workload: W.Workload, plan: List[List[str]], out_dir: str, seconds: float,
            traced: bool, deadline: float):
    """Warm up, then iterate in a closed loop until ``seconds`` have passed.

    With ``traced`` every untraced iteration is followed by a traced one,
    whose reports must be byte-identical to the untraced reports.
    """
    stop_at = time.monotonic() + seconds
    spawn(plan[0], out_dir, deadline)  # byte-code compilation, page cache; discarded
    iterations: List[Iteration] = []
    while True:
        started = time.monotonic()
        plain = Iteration(workload, plan, out_dir, deadline, traced=False)
        iterations.append(plain)
        if traced:
            copy = Iteration(workload, plan, out_dir, deadline, traced=True)
            if plain.digests and copy.digests != plain.digests:
                copy.problems.append("traced reports differ from untraced: %r vs %r"
                                     % (copy.digests, plain.digests))
            iterations.append(copy)
        # stop before an iteration that would end after the measuring window
        finish = 2 * time.monotonic() - started
        if finish > stop_at or finish > deadline:
            return iterations


def traced_metrics(traced: List[Iteration], untraced_run_s: float) -> Dict[str, dict]:
    """Per-layer medians over the traced iterations; overhead compares the
    median traced ``run_s`` with the median untraced one."""
    for name in ("run_s", "cpu_s"):
        print(describe("traced " + name, [getattr(it, name) for it in traced], "s"))
    per_layer = [layer_metrics(it.trace) for it in traced]
    metrics = {}
    for name, (_, unit) in per_layer[0].items():
        metrics[name] = {"value": statistics.median(m[name][0] for m in per_layer),
                         "unit": unit}
    metrics["trace.overhead_s"] = {
        "value": statistics.median(it.run_s for it in traced) - untraced_run_s, "unit": "s"}
    for name, metric in metrics.items():
        print("%-40s %.6g %s" % (name, metric["value"], metric["unit"]))
    return metrics


if __name__ == "__main__":
    sys.exit(main())
