"""Whole reports pinned byte for byte, and failure payloads that stay readable.

The digests are SHA-256 sums of the JSON the CLI writes.  A change meant to
leave every verdict alone must leave these bytes alone; a change that moves
a report on purpose records the new digests here and says why.  Beside its
digest, the benchmark's verify-all report is pinned as its table of
``(name, cases, failures)`` rows, so a failed pin names the checks that
moved.  :func:`report_moves` lists them for any two reports; run as

    PYTHONPATH=src python tests/test_reports.py OLD.json NEW.json

it prints what moved between two report files.
"""

import hashlib
import json
import sys

import pytest

from wmfock import cli
from wmfock.fock import TruncationParams
from wmfock.suites import _guarded_word_check, _symbols

# the verify-all workload of the benchmark
VERIFY_ALL = ("verify", "--suite", "all", "--n", "4", "--max-degree", "6", "--c", "1/2",
              "--jobs", "1")
GOLDEN = {
    ("verify", "--suite", "all", "--jobs", "1", "--n", "2", "--max-degree", "4"):
        "b4854cc84d169391b0b3d423d67016af5bb4a13b5c92dd4637679a120b9b1eb1",
    ("verify", "--suite", "all", "--jobs", "1", "--n", "3", "--max-degree", "5"):
        "551d8d6cbec0d8a1f396b98653da5c6c115bcbf4494f2e7a3582974f2124de04",
    ("gauge", "--n", "2", "--max-degree", "3", "--roots", "4"):
        "ccd5991c8be2775033d98106095183aca1b3b8d536bfdb41bb95781d14946ff0",
    # the spectrum suite off c = 1/2, where c**r and 1 - c**r differ
    ("verify", "--suite", "spectrum", "--n", "3", "--max-degree", "8", "--c", "3/7"):
        "10572d9ebee5015467b2d21e3d174a2a93f712da00b62a674424255898b63992",
    # the benchmark's sizes: the verify-all and gauge-bundle workloads, and
    # the masa suite one letter past them
    VERIFY_ALL:
        "35ae90f7b517a1dcb8b58be9b2ca04de2825de5d42616180c144e271045f5e41",
    ("verify", "--suite", "masa", "--n", "5", "--max-degree", "6", "--jobs", "1"):
        "002064da7c921ae307afa2191268183d82dee738a6621e820d28fd5e22e0ff4f",
    ("gauge", "--n", "3", "--max-degree", "12", "--roots", "8", "--unitary", "paper"):
        "b33dc4e420b3be1c7b0ac0d860dc0cb4fa9ad4d4a5490a130b267918cf15790b",
    # the projection order at reach sizes: 210 and 330 projections
    ("verify", "--suite", "projections", "--jobs", "1", "--n", "6", "--max-degree", "6"):
        "6b6918ccc7913fc85c3959eecbf4b03086b3ce87ef6eca8bf57fce1c9143f78f",
    ("verify", "--suite", "projections", "--jobs", "1", "--n", "7", "--max-degree", "6"):
        "78a39362a4ea0413d1c8fecb4751a352ef404dd047fa25f7bc1b20a1c2805b88",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN))
def test_report_digest(argv, tmp_path):
    out = tmp_path / "report.json"
    assert cli.main(list(argv) + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[argv]


VERIFY_ALL_TABLE = (  # (name, cases, failures) of each check, in report order
    ("relations/creator-pair-vanishes-1-2", 70, 0),
    ("relations/annihilator-pair-vanishes-2-1", 210, 0),
    ("relations/creator-pair-vanishes-1-3", 70, 0),
    ("relations/annihilator-pair-vanishes-3-1", 210, 0),
    ("relations/creator-pair-vanishes-1-4", 70, 0),
    ("relations/annihilator-pair-vanishes-4-1", 210, 0),
    ("relations/creator-pair-vanishes-2-3", 70, 0),
    ("relations/annihilator-pair-vanishes-3-2", 210, 0),
    ("relations/creator-pair-vanishes-2-4", 70, 0),
    ("relations/annihilator-pair-vanishes-4-2", 210, 0),
    ("relations/creator-pair-vanishes-3-4", 70, 0),
    ("relations/annihilator-pair-vanishes-4-3", 210, 0),
    ("relations/mixed-pair-vanishes-1-2", 126, 0),
    ("relations/mixed-pair-vanishes-1-3", 126, 0),
    ("relations/mixed-pair-vanishes-1-4", 126, 0),
    ("relations/mixed-pair-vanishes-2-1", 126, 0),
    ("relations/mixed-pair-vanishes-2-3", 126, 0),
    ("relations/mixed-pair-vanishes-2-4", 126, 0),
    ("relations/mixed-pair-vanishes-3-1", 126, 0),
    ("relations/mixed-pair-vanishes-3-2", 126, 0),
    ("relations/mixed-pair-vanishes-3-4", 126, 0),
    ("relations/mixed-pair-vanishes-4-1", 126, 0),
    ("relations/mixed-pair-vanishes-4-2", 126, 0),
    ("relations/mixed-pair-vanishes-4-3", 126, 0),
    ("relations/vacuum-projection-definition", 126, 0),
    ("relations/vacuum-projection-idempotent", 210, 0),
    ("relations/vacuum-projection-selfadjoint", 1, 0),
    ("relations/vacuum-projection-rank-one", 1, 0),
    ("relations/adjoint-is-transpose-1", 1, 0),
    ("relations/adjoint-is-transpose-2", 1, 0),
    ("relations/adjoint-is-transpose-3", 1, 0),
    ("relations/adjoint-is-transpose-4", 1, 0),
    ("ck/range-projections-sum-to-identity", 210, 0),
    ("ck/support-projection-decomposition-1", 126, 0),
    ("ck/support-projection-decomposition-2", 126, 0),
    ("ck/support-projection-decomposition-3", 126, 0),
    ("ck/support-projection-decomposition-4", 126, 0),
    ("ck/range-projections-orthogonal", 20, 0),
    ("ck/incidence-matrix-lower-triangular", 25, 0),
    ("projections/product-rule-matches-matrix-oracle", 4900, 0),
    ("projections/order-antisymmetric", 4830, 0),
    ("projections/pivot-range", 4, 0),
    ("masa/rank-one-projections", 126, 0),
    ("masa/expectation-of-monomials", 9800, 0),
    ("masa/expectation-of-random-words", 500, 0),
    ("masa/expectation-positive-on-squares", 200, 0),
    ("masa/expectation-unital-idempotent", 2, 0),
    ("masa/diagonal-completeness", 6, 0),
    ("spectrum/interior-coordinates-exact", 840, 0),
    ("spectrum/boundary-point-shape", 176, 0),
    ("spectrum/vertices-classified", 16, 0),
    ("spectrum/functionals-multiplicative", 352800, 0),
    ("spectrum/boundary-limits-monotone", 3520, 0),
    ("gauge/shift-unitary-covariance-K1", 5, 0),
    ("gauge/phase-only-unitary-covariance-vacuum-K1", 1, 0),
    ("gauge/phase-only-unitary-deviations-confined-K1", 1, 0),
    ("gauge/shift-unitary-group-law-K1", 1, 0),
    ("gauge/vacuum-generator-spectrum-K1", 1, 0),
    ("gauge/quotient-relation-K1", 1, 0),
    ("gauge/shift-unitary-covariance-K2", 10, 0),
    ("gauge/phase-only-unitary-covariance-vacuum-K2", 2, 0),
    ("gauge/phase-only-unitary-deviations-confined-K2", 16, 0),
    ("gauge/shift-unitary-group-law-K2", 4, 0),
    ("gauge/vacuum-generator-spectrum-K2", 1, 0),
    ("gauge/quotient-relation-K2", 1, 0),
    ("gauge/shift-unitary-covariance-K4", 20, 0),
    ("gauge/phase-only-unitary-covariance-vacuum-K4", 4, 0),
    ("gauge/phase-only-unitary-deviations-confined-K4", 96, 0),
    ("gauge/shift-unitary-group-law-K4", 16, 0),
    ("gauge/vacuum-generator-spectrum-K4", 1, 0),
    ("gauge/quotient-relation-K4", 1, 0),
    ("gauge/shift-unitary-covariance-K8", 40, 0),
    ("gauge/phase-only-unitary-covariance-vacuum-K8", 8, 0),
    ("gauge/phase-only-unitary-deviations-confined-K8", 448, 0),
    ("gauge/shift-unitary-group-law-K8", 64, 0),
    ("gauge/vacuum-generator-spectrum-K8", 1, 0),
    ("gauge/quotient-relation-K8", 1, 0),
)


def report_moves(old, new):
    """What moved from report ``old`` to report ``new``, one line each: every
    key of a check (``cases``, ``failures``, ``firstFailure`` and the rest)
    whose value changed, appeared or went, in ``new``'s check order, then
    every check added, then every check removed."""
    before = {check["name"]: check for check in old["checks"]}
    after = {check["name"]: check for check in new["checks"]}

    def show(check, key):
        return json.dumps(check[key], sort_keys=True) if key in check else "(absent)"

    def fields(check):
        return json.dumps({k: v for k, v in check.items() if k != "name"}, sort_keys=True)

    lines = []
    for name, now in after.items():
        was = before.get(name, now)
        lines.extend("moved %s: %s %s -> %s" % (name, key, show(was, key), show(now, key))
                     for key in sorted(was.keys() | now.keys())
                     if show(was, key) != show(now, key))
    lines.extend("added %s: %s" % (name, fields(after[name]))
                 for name in after if name not in before)
    lines.extend("removed %s: %s" % (name, fields(before[name]))
                 for name in before if name not in after)
    return lines


def _table_report(rows):
    return {"checks": [dict(zip(("name", "cases", "failures"), row)) for row in rows]}


def test_verify_all_check_table(tmp_path):
    out = tmp_path / "report.json"
    assert cli.main(list(VERIFY_ALL) + ["--out", str(out)]) == 0
    report = json.loads(out.read_bytes())
    table = tuple((c["name"], c["cases"], c["failures"]) for c in report["checks"])
    moves = report_moves(_table_report(VERIFY_ALL_TABLE), _table_report(table))
    assert table == VERIFY_ALL_TABLE, "\n".join(moves or ["the same rows, reordered"])
    assert len(table) == 77 and sum(cases for _, cases, _ in table) == 382757


def test_report_moves_lists_moved_added_and_removed_checks():
    old = {"checks": [
        {"name": "a", "cases": 3, "failures": 0, "firstFailure": None},
        {"name": "b", "cases": 5, "failures": 0, "firstFailure": None},
        {"name": "gone", "cases": 1, "failures": 0, "firstFailure": None},
    ]}
    new = {"checks": [
        {"name": "new", "cases": 2, "failures": 1, "firstFailure": {"p": 1}},
        {"name": "b", "cases": 6, "failures": 1, "firstFailure": {"mu": [1, 0]}},
        {"name": "a", "cases": 3, "failures": 0, "firstFailure": None},
    ]}
    assert report_moves(old, new) == [
        "moved b: cases 5 -> 6",
        "moved b: failures 0 -> 1",
        'moved b: firstFailure null -> {"mu": [1, 0]}',
        'added new: {"cases": 2, "failures": 1, "firstFailure": {"p": 1}}',
        'removed gone: {"cases": 1, "failures": 0, "firstFailure": null}',
    ]
    assert report_moves(old, old) == []


def test_false_identity_payload_renders_rationals():
    params = TruncationParams(2, 4)
    a1_a1star = _symbols((1, False), (1, True))
    # a1 a1* fixes the vacuum, so neither side below is the zero operator
    check = _guarded_word_check(params, "false-identity", [(1, a1_a1star)], [])
    assert check["failures"] == 1
    failure = check["firstFailure"]
    assert failure["basis_position"] == 0
    assert failure["lhs_column"] == [[0, "1/1"]]
    assert failure["rhs_column"] == []
    check = _guarded_word_check(params, "false-identity", [], [(-1, a1_a1star)])
    assert check["firstFailure"]["lhs_column"] == []
    assert check["firstFailure"]["rhs_column"] == [[0, "-1/1"]]


if __name__ == "__main__":
    old_path, new_path = sys.argv[1:]
    with open(old_path) as old_file, open(new_path) as new_file:
        print("\n".join(report_moves(json.load(old_file), json.load(new_file))))
