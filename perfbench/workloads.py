"""The four benchmark workloads: generated inputs, child commands, checks.

Why each workload exists, and which layer metric should move which
end-to-end metric on it, is recorded in ``perfbench/WORKLOADS.md``.  Only
``verify-all`` and ``spectrum-dataset`` are listed in ``BENCHMARK.json`` and
gated with bounds; ``soundness`` and ``gauge-bundle`` run the same way on
request, but their run-to-run spread on a shared host exceeds any allowed
bound (see WORKLOADS.md).

A workload turns ``--seed`` into inputs, names the fresh processes that make
up one iteration, and judges what they wrote: exit codes, failing checks,
case/word/point counts and the SHA-256 of every report against the digests
recorded below.  A traced iteration is also reconciled against its report,
so that a wrapper that misses a call site fails instead of under-counting.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

# The seed the numbers in WORKLOADS.md were taken with, and a held-out seed
# for confirming a claimed gain on inputs not used while writing the change.
PRIMARY_SEED = 1
HELD_OUT_SEED = 7

# -- fixed CLI invocations --------------------------------------------------

VERIFY_ARGS = ("verify", "--suite", "all", "--n", "4", "--max-degree", "6",
               "--c", "1/2", "--jobs", "1")
VERIFY_N, VERIFY_ROOTS = 4, (1, 2, 4, 8)  # gauge suite default roots
GAUGE_N, GAUGE_DEGREE, GAUGE_ROOTS = 3, 12, 8
GAUGE_ARGS = ("gauge", "--n", str(GAUGE_N), "--max-degree", str(GAUGE_DEGREE),
              "--roots", str(GAUGE_ROOTS), "--unitary", "paper")

# -- soundness: an exhaustive sweep with heavy prefix sharing, then seeded
# random words that share little work ----------------------------------------

EXHAUSTIVE_N, EXHAUSTIVE_LEN, EXHAUSTIVE_DEGREE = 2, 6, 8
RANDOM_N, RANDOM_DEGREE, RANDOM_WORDS, RANDOM_MAX_LEN = 3, 10, 10000, 12
# exhaustive_words enumerates 2n + 2 spellings per letter
EXHAUSTIVE_WORDS = sum((2 * EXHAUSTIVE_N + 2) ** k for k in range(1, EXHAUSTIVE_LEN + 1))

# -- spectrum dataset: c comes from the seed.  All values share the
# denominator 7, because the cost of the exact coordinates grows with the
# size of c's denominator; a mixed list would make run time vary by seed ----

SPECTRUM_N, SPECTRUM_DEGREE = 3, 60
SPECTRUM_C = ("2/7", "3/7", "4/7", "5/7", "6/7")

# -- recorded outputs at the seed commit --------------------------------------

EXPECTED = {
    "verify-all": {
        "cases": 382757,
        "sha256": "35ae90f7b517a1dcb8b58be9b2ca04de2825de5d42616180c144e271045f5e41"},
    "gauge-bundle": {
        "cases": 442,
        "sha256": "b33dc4e420b3be1c7b0ac0d860dc0cb4fa9ad4d4a5490a130b267918cf15790b"},
    "soundness": {
        # with no failing word the report depends only on the word counts
        "sha256": "324f0448774b39d439e5524c95feb376d7fea36ec2667adb462ea14a68aeab77",
        "inputs_sha256": {
            PRIMARY_SEED: "fde57cb5a6436edd083f175bad8279a8d7b2617fd8d12736f79fac427c7f006b",
            HELD_OUT_SEED: "2eb8fa3d1a0f7092cbc24d29d16660b380d103c7033a6fbdcc30fdf9b08b12c3"}},
    "spectrum-dataset": {
        "points": 41728,
        "sha256": {  # c -> digests of the csv and svg datasets
            "2/7": {"csv": "2412677a1b021c70abbeca20dda47d2a8bccaf10d7ef36cee29e26eee8888d8d",
                    "svg": "ef586019e352687788cf7e0f024c1d04d560da9d2c3213450ef4ec02720d4ab6"},
            "3/7": {"csv": "9e9b8369a88be39754103d515b215b43feb32eab6265048c4e7a3822b40e8925",
                    "svg": "fd1fd5b1ec5820235c8df27aeca17e7840fe933f8684333002c6167ce863ee3b"},
            "4/7": {"csv": "02ee872731af8b22b12f8df96e962eab39dce92fd7593ad69cee704d0bfb08e1",
                    "svg": "3350457f6bb1930e094ec87f819f01b5d9f523adb1310567ad812f765d9990ad"},
            "5/7": {"csv": "3f77c5d73a2df0c556b3de8af9e012e30e9a3d6f951223424c20f0f5b61533de",
                    "svg": "e4f6254a8389b4a2b5cf30004cabfb529c7db132bbd87810e58a2ef8b380934b"},
            "6/7": {"csv": "4fc14cbe138f42e0feabe66c1ca523e5702a503f03f4af9e9351eb0f8415465d",
                    "svg": "e22b767985206c37419ee2d90a22abe97ebe989d6a3ad49d8c7a2da27ee2c22d"},
        }},
}


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _report_cases(report: dict) -> Tuple[int, int]:
    checks = report["checks"]
    return (sum(check["cases"] for check in checks),
            sum(check["failures"] for check in checks))


def _check_case(report: dict, name: str) -> int:
    for check in report["checks"]:
        if check["name"] == name:
            return check["cases"]
    raise KeyError(name)


def _calls(trace: dict, name: str, parent: Optional[str] = None) -> int:
    return sum(n for fn, caller, n in trace["calls"]
               if fn == name and (parent is None or caller == parent))


def _expect_equal(problems: List[str], what: str, got, want) -> None:
    if got != want:
        problems.append("%s: got %r, want %r" % (what, got, want))


def gauge_unitary_calls(n: int, roots: Sequence[int], cli_details: bool) -> int:
    """Closed-form number of ``gauge_unitary`` calls.

    Per K the gauge suite makes (n+1)K shift covariance checks, K vacuum and
    nK generator checks with the phase-only unitary (one unitary each), and
    ``check_group_law`` builds K + 2K^2 unitaries.  ``wmfock gauge`` then
    repeats the (n+1)K covariance checks for its details table.
    """
    total = sum(2 * (n + 1) * K + K + 2 * K * K for K in roots)
    if cli_details:
        total += sum((n + 1) * K for K in roots)
    return total


class Workload:
    name = ""

    def plan(self, seed: int, out_dir: str) -> List[List[str]]:
        """Write the inputs for ``seed``; return one child argv per process."""
        raise NotImplementedError

    def outputs(self, out_dir: str) -> List[str]:
        raise NotImplementedError

    def check(self, out_dir: str) -> Tuple[int, List[str], Dict[str, str]]:
        """(items, problems, digests) for the files one iteration wrote."""
        raise NotImplementedError

    def reconcile(self, trace: dict, out_dir: str) -> List[str]:
        return []


class VerifyAll(Workload):
    name = "verify-all"

    def plan(self, seed, out_dir):
        print("inputs: seed-independent; --seed %d only labels the run; "
              "wmfock %s" % (seed, " ".join(VERIFY_ARGS)))
        return [["cli", *VERIFY_ARGS, "--out", os.path.join(out_dir, "report.json")]]

    def outputs(self, out_dir):
        return [os.path.join(out_dir, "report.json")]

    def check(self, out_dir):
        path, = self.outputs(out_dir)
        problems: List[str] = []
        with open(path, encoding="utf-8") as handle:
            cases, failures = _report_cases(json.load(handle))
        _expect_equal(problems, "failing checks", failures, 0)
        _expect_equal(problems, "reported cases", cases, EXPECTED[self.name]["cases"])
        digest = sha256_file(path)
        _expect_equal(problems, "report sha256", digest, EXPECTED[self.name]["sha256"])
        return cases, problems, {"report.json": digest}

    def reconcile(self, trace, out_dir):
        with open(self.outputs(out_dir)[0], encoding="utf-8") as handle:
            report = json.load(handle)
        problems: List[str] = []
        _expect_equal(problems, "projection_product calls in verify_multiplicativity",
                      _calls(trace, "words.projection_product",
                             "spectrum.verify_multiplicativity"),
                      _check_case(report, "spectrum/functionals-multiplicative"))
        _expect_equal(problems, "projection_product calls in the projections suite",
                      _calls(trace, "words.projection_product", "suites.projections"),
                      _check_case(report, "projections/product-rule-matches-matrix-oracle"))
        _expect_equal(problems, "rewrite calls in the masa suite",
                      _calls(trace, "words.rewrite", "suites.masa"),
                      _check_case(report, "masa/expectation-of-random-words"))
        _expect_equal(problems, "gauge_unitary calls",
                      _calls(trace, "gauge.gauge_unitary"),
                      gauge_unitary_calls(VERIFY_N, VERIFY_ROOTS, cli_details=False))
        return problems


class GaugeBundle(Workload):
    name = "gauge-bundle"

    def plan(self, seed, out_dir):
        print("inputs: seed-independent; --seed %d only labels the run; "
              "wmfock %s" % (seed, " ".join(GAUGE_ARGS)))
        return [["cli", *GAUGE_ARGS, "--out", os.path.join(out_dir, "report.json")]]

    def outputs(self, out_dir):
        return [os.path.join(out_dir, "report.json")]

    check = VerifyAll.check

    def reconcile(self, trace, out_dir):
        problems: List[str] = []
        _expect_equal(problems, "gauge_unitary calls",
                      _calls(trace, "gauge.gauge_unitary"),
                      gauge_unitary_calls(GAUGE_N, (GAUGE_ROOTS,), cli_details=True))
        _expect_equal(problems, "distinct gauge unitaries",
                      trace["distinct_unitaries"], 2 * GAUGE_ROOTS)
        return problems


class Soundness(Workload):
    name = "soundness"

    def plan(self, seed, out_dir):
        rng = random.Random(seed)
        letters = ["a0"] + ["a%d%s" % (i, star) for i in range(1, RANDOM_N + 1)
                            for star in ("", "*")]
        lines = []
        for _ in range(RANDOM_WORDS):
            length = rng.randint(1, RANDOM_MAX_LEN)
            lines.append(" ".join(rng.choice(letters) for _ in range(length)))
        words_path = os.path.join(out_dir, "words.txt")
        with open(words_path, "w", encoding="utf-8", newline="") as handle:
            handle.write("\n".join(lines) + "\n")
        histogram = Counter(len(line.split()) for line in lines)
        digest = sha256_file(words_path)
        print("inputs: exhaustive n=%d words of length <= %d at max_degree %d (%d words, "
              "seed-independent)" % (EXHAUSTIVE_N, EXHAUSTIVE_LEN, EXHAUSTIVE_DEGREE,
                                     EXHAUSTIVE_WORDS))
        print("inputs: %d random n=%d words at max_degree %d from seed %d, sha256 %s"
              % (RANDOM_WORDS, RANDOM_N, RANDOM_DEGREE, seed, digest))
        print("inputs: word-length histogram %s"
              % " ".join("%d:%d" % kv for kv in sorted(histogram.items())))
        want = EXPECTED[self.name]["inputs_sha256"].get(seed)
        if want is not None and digest != want:
            raise SystemExit("generated words for seed %d have sha256 %s, recorded %s"
                               % (seed, digest, want))
        return [["soundness", words_path, os.path.join(out_dir, "report.json")]]

    def outputs(self, out_dir):
        return [os.path.join(out_dir, "report.json")]

    def check(self, out_dir):
        path, = self.outputs(out_dir)
        problems: List[str] = []
        with open(path, encoding="utf-8") as handle:
            report = json.load(handle)
        parts = (report["exhaustive"]["result"], report["random"]["result"])
        cases = sum(part["cases"] for part in parts)
        _expect_equal(problems, "failing words", sum(part["failures"] for part in parts), 0)
        _expect_equal(problems, "exhaustive words", parts[0]["cases"], EXHAUSTIVE_WORDS)
        _expect_equal(problems, "random words", parts[1]["cases"], RANDOM_WORDS)
        digest = sha256_file(path)
        _expect_equal(problems, "report sha256", digest, EXPECTED[self.name]["sha256"])
        return cases, problems, {"report.json": digest}

    def reconcile(self, trace, out_dir):
        problems: List[str] = []
        words = EXHAUSTIVE_WORDS + RANDOM_WORDS
        _expect_equal(problems, "rewrite calls in soundness_check",
                      _calls(trace, "words.rewrite", "suites.soundness_check"), words)
        _expect_equal(problems, "evaluate_word calls in soundness_check",
                      _calls(trace, "words.evaluate_word", "suites.soundness_check"), words)
        return problems


class SpectrumDataset(Workload):
    name = "spectrum-dataset"
    formats = ("csv", "svg")

    def plan(self, seed, out_dir):
        self.c = random.Random(seed).choice(SPECTRUM_C)
        print("inputs: c = %s drawn from seed %d out of {%s}; n=%d, max_degree %d"
              % (self.c, seed, ", ".join(SPECTRUM_C), SPECTRUM_N, SPECTRUM_DEGREE))
        return [["cli", "spectrum", "--n", str(SPECTRUM_N), "--max-degree",
                 str(SPECTRUM_DEGREE), "--c", self.c, "--format", fmt, "--out", path]
                for fmt, path in zip(self.formats, self.outputs(out_dir))]

    def outputs(self, out_dir):
        return [os.path.join(out_dir, "points.%s" % fmt) for fmt in self.formats]

    def check(self, out_dir):
        csv_path, svg_path = self.outputs(out_dir)
        problems: List[str] = []
        with open(csv_path, encoding="utf-8") as handle:
            csv_points = sum(1 for _ in handle) - 1
        with open(svg_path, encoding="utf-8") as handle:
            svg_points = sum(1 for line in handle
                             if line.startswith(("<circle ", '<rect x="')))
        _expect_equal(problems, "csv points", csv_points, EXPECTED[self.name]["points"])
        _expect_equal(problems, "svg points", svg_points, csv_points)
        digests = {"points.csv": sha256_file(csv_path), "points.svg": sha256_file(svg_path)}
        want = EXPECTED[self.name]["sha256"][self.c]
        for fmt in self.formats:
            _expect_equal(problems, "points.%s sha256" % fmt,
                          digests["points." + fmt], want[fmt])
        return csv_points + svg_points, problems, digests

    def reconcile(self, trace, out_dir):
        problems: List[str] = []
        _expect_equal(problems, "enumerate_spectrum calls",
                      _calls(trace, "spectrum.enumerate_spectrum"), len(self.formats))
        written = sum(os.path.getsize(path) for path in self.outputs(out_dir))
        _expect_equal(problems, "emitted bytes", trace["bytes"]["spectrum.emit"], written)
        return problems


WORKLOADS = {w.name: w for w in (VerifyAll(), Soundness(), GaugeBundle(), SpectrumDataset())}
