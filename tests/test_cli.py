"""Command-line interface: output conventions and the exit-code contract."""

import hashlib
import json
import subprocess
import sys
import tracemalloc

import pytest

from wmfock import cli

CLI = [sys.executable, "-m", "wmfock.cli"]


def run_cli(*args, **kwargs):
    return subprocess.run(CLI + list(args), capture_output=True, text=True, **kwargs)


def test_reduce_prints_normal_form():
    result = run_cli("reduce", "--n", "2", "a1 a1*")
    assert result.returncode == 0
    assert result.stdout == "1/1 · P0 + 1/1 · a*(1,0) a(1,0)\n"


def test_reduce_zero_word():
    result = run_cli("reduce", "--n", "2", "a1 a2*")
    assert result.returncode == 0
    assert result.stdout == "0\n"


def test_verify_report_schema_and_exit_zero():
    result = run_cli("verify", "--n", "2", "--max-degree", "6", "--suite", "relations")
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["suite"] == "relations"
    assert report["n"] == 2 and report["maxDegree"] == 6
    for check in report["checks"]:
        assert set(check) >= {"name", "cases", "failures", "firstFailure"}
        assert check["failures"] == 0


def test_verify_all_aggregates_suites():
    result = run_cli("verify", "--n", "2", "--max-degree", "4", "--suite", "all")
    assert result.returncode == 0
    report = json.loads(result.stdout)
    prefixes = {check["name"].split("/")[0] for check in report["checks"]}
    assert prefixes == {"relations", "ck", "projections", "masa", "spectrum", "gauge"}


def test_usage_errors_exit_two():
    assert run_cli("verify", "--n", "1").returncode == 2
    assert run_cli("verify", "--suite", "bogus").returncode == 2
    assert run_cli("reduce", "--n", "2", "a9").returncode == 2
    assert run_cli("reduce", "--n", "2", "z1").returncode == 2
    assert run_cli("spectrum", "--c", "0.5").returncode == 2
    assert run_cli("spectrum", "--c", "3/2").returncode == 2
    assert run_cli("verify", "--c", "1/0").returncode == 2
    assert run_cli("spectrum", "--c", "0/0").returncode == 2
    assert run_cli("spectrum", "--n", "4", "--format", "svg").returncode == 2


@pytest.mark.parametrize("command", ["verify", "spectrum"])
@pytest.mark.parametrize("c", ["0", "1"])
def test_c_at_either_end_exits_two(command, c, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main([command, "--c", c])
    assert exit_info.value.code == 2
    assert capsys.readouterr().err.endswith(
        "wmfock: error: --c must lie strictly between 0 and 1\n")


def test_io_error_exit_three(tmp_path):
    target = tmp_path / "missing" / "report.json"
    result = run_cli("verify", "--n", "2", "--max-degree", "4",
                     "--suite", "relations", "--out", str(target))
    assert result.returncode == 3
    assert "i/o error" in result.stderr


def test_spectrum_csv_contains_worked_point(tmp_path):
    out = tmp_path / "points.csv"
    result = run_cli("spectrum", "--n", "2", "--max-degree", "8", "--c", "1/2",
                     "--format", "csv", "--out", str(out))
    assert result.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "kind,provenance,x1,x2,x1_dec,x2_dec"
    assert "interior,(1;1),3/4,1/2,0.75,0.5" in lines


def test_spectrum_svg_rejects_dimension_before_enumerating(monkeypatch, capsys):
    import wmfock.cli

    def must_not_be_read(cfg):
        raise AssertionError("read a point of the spectrum for an svg it cannot draw")
        yield  # a generator, as the stream is: calling it reads no point

    monkeypatch.setattr(wmfock.cli, "enumerate_spectrum", must_not_be_read)
    argv = ["spectrum", "--format", "svg", "--n", "4", "--max-degree", "40"]
    assert wmfock.cli.main(argv) == 2
    assert "svg emission supports n = 2 or 3 only; use csv" in capsys.readouterr().err


# the (2, 20, 5/7) golden digests of tests/test_spectrum.py
_SPECTRUM_DIGESTS = {
    "csv": "02036d8656db95b3b400d8ac2f84864603c624e8f3882b812df1a1377cf8c1b3",
    "svg": "da4fd8dceabe2c705a34151e74f6a4a8271bce368f5e1076fc7a62892caf958c",
}


@pytest.mark.parametrize("fmt", sorted(_SPECTRUM_DIGESTS))
def test_spectrum_streams_the_points_into_the_emitter(tmp_path, monkeypatch, fmt):
    name = "emit_" + fmt
    emit = getattr(cli, name)
    received = []

    def spy(points, cfg):
        received.append(points)
        return emit(points, cfg)

    monkeypatch.setattr(cli, name, spy)
    out = tmp_path / ("points." + fmt)
    argv = ["spectrum", "--n", "2", "--max-degree", "20", "--c", "5/7",
            "--format", fmt, "--out", str(out)]
    assert cli.main(argv) == 0
    points, = received
    assert not isinstance(points, (list, tuple)) and iter(points) is points
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _SPECTRUM_DIGESTS[fmt]


def test_spectrum_svg(tmp_path):
    out = tmp_path / "points.svg"
    result = run_cli("spectrum", "--n", "2", "--max-degree", "3",
                     "--format", "svg", "--out", str(out))
    assert result.returncode == 0
    assert out.read_text().startswith("<svg ")


def test_gauge_report(tmp_path):
    out = tmp_path / "gauge.json"
    result = run_cli("gauge", "--n", "2", "--max-degree", "3", "--roots", "4",
                     "--unitary", "paper", "--out", str(out))
    assert result.returncode == 0
    report = json.loads(out.read_text())
    assert report["unitary"] == "paper"
    assert report["vacuumSpectrum"]["root_exponents"] == [0, 1, 2, 3]
    assert report["quotientRelation"]["ok"] is True
    deviating = [d for d in report["covarianceDetails"] if not d["ok"]]
    assert deviating, "the phase-only unitary must show its documented deviations"
    entry = deviating[0]["failingEntries"][0]
    assert set(entry) == {"blockRow", "blockCol", "basisRow", "basisCol",
                          "gotExponent", "wantExponent"}


def test_expect_command():
    result = run_cli("expect", "--n", "2", "a1 a1*")
    assert result.returncode == 0
    assert result.stdout.splitlines()[0] == "expectation: 1/1 · P0 + 1/1 · a*(1,0) a(1,0)"
    assert "pass" in result.stdout.splitlines()[1]


def test_expect_refuses_an_empty_guard_band():
    # guard 2 > max degree 1: no column lies in the band, so nothing is checked
    result = run_cli("expect", "--n", "2", "--max-degree", "1", "a1 a1 a1* a1*")
    assert result.returncode == 2
    assert result.stdout.splitlines() == [
        "expectation: 1/1 · P0 + 1/1 · a*(1,0) P0 a(1,0) + 1/1 · a*(2,0) a(2,0)"]
    assert "nothing checked" in result.stderr
    assert "--max-degree 2" in result.stderr
    smallest = run_cli("expect", "--n", "2", "--max-degree", "2", "a1 a1 a1* a1*")
    assert smallest.returncode == 0
    assert smallest.stdout.splitlines()[1] == "matrix-oracle (guard 2, 1 columns): pass"


def test_jobs_flag_produces_identical_report():
    sequential = run_cli("verify", "--n", "2", "--max-degree", "4", "--suite", "all")
    parallel = run_cli("verify", "--n", "2", "--max-degree", "4", "--suite", "all",
                       "--jobs", "3")
    assert sequential.returncode == parallel.returncode == 0
    assert sequential.stdout == parallel.stdout


def test_write_output_slices_keep_the_utf8_bytes(tmp_path, capsysbinary, monkeypatch):
    size = cli._WRITE_SLICE
    # the three bytes of the euro sign straddle the first byte boundary at
    # ``size``; the text is longer than two slices
    text = "a" * (size - 1) + "\u20ac" + "\u00e9" * size + "\nb\n"
    assert len(text) > 2 * size
    want = text.encode("utf-8")
    path = tmp_path / "out.txt"
    cli._write_output(text, str(path))
    assert path.read_bytes() == want
    cli._write_output(text, None)
    assert capsysbinary.readouterr().out == want

    class Recorder:
        def __init__(self):
            self.parts = []

        def write(self, part):
            self.parts.append(part)

    recorder = Recorder()
    monkeypatch.setattr(sys, "stdout", recorder)
    cli._write_output(text, None)
    assert "".join(recorder.parts) == text
    assert max(map(len, recorder.parts)) == size


def test_write_output_holds_one_slice_beside_the_text(tmp_path):
    # an ASCII slice and its encoding take about 2.1 slices on CPython
    # 3.10-3.13; one whole-text write would take 12
    size = cli._WRITE_SLICE
    assert size <= 1 << 16
    text = "a" * (6 * size + 5)
    path = tmp_path / "out.txt"
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        cli._write_output(text, str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.read_text(encoding="utf-8") == text
    assert peak - start < 3 * size
