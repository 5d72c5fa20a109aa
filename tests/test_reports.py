"""Whole reports pinned byte for byte, and failure payloads that stay readable.

The digests are SHA-256 sums of the JSON the CLI writes.  A change meant to
leave every verdict alone must leave these bytes alone; a change that moves
a report on purpose records the new digests here and says why.
"""

import hashlib

import pytest

from wmfock import cli
from wmfock.fock import TruncationParams
from wmfock.suites import _guarded_word_check, _symbols

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
    ("verify", "--suite", "all", "--n", "4", "--max-degree", "6", "--c", "1/2",
     "--jobs", "1"):
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
