"""Command-line front door.

Subcommands: ``verify`` (run suites, JSON report), ``reduce`` (normal form
of a word), ``spectrum`` (CSV/SVG dataset), ``gauge`` (bundle verdicts),
``expect`` (symbolic expectation with oracle cross-check).

Exit codes: 0 success, 1 check failures, 2 usage errors, 3 I/O errors.
Identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from contextlib import nullcontext
from fractions import Fraction
from typing import Optional, Sequence

from . import gauge as gauge_mod
from . import suites
from .fock import TruncationParams
from .spectrum import SpectrumConfig, emit_csv, emit_svg, enumerate_spectrum
from .words import (GeneratorIndexError, WordSyntaxError, creation_guard,
                    evaluate, evaluate_word, parse_word, rewrite)

_RATIONAL = re.compile(r"^-?\d+(/0*[1-9]\d*)?$")  # no zero denominator


def _fraction_arg(text: str) -> Fraction:
    # only p/q or integer text; decimal input would smuggle in inexactness
    if not _RATIONAL.match(text):
        raise argparse.ArgumentTypeError(
            "rationals must be written as p/q with q > 0 or as an integer, got %r" % text)
    return Fraction(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wmfock",
        description="Verification laboratory for the weakly monotone "
                    "Cuntz-Krieger generators on a truncated Fock space.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, degree_default: int = 6) -> None:
        p.add_argument("--n", type=int, default=2, help="number of generators (>= 2)")
        p.add_argument("--max-degree", type=int, default=degree_default,
                       help="maximal retained tensor degree (>= 1)")

    p_verify = sub.add_parser("verify", help="run verification suites")
    common(p_verify)
    p_verify.add_argument("--c", type=_fraction_arg, default=Fraction(1, 2),
                          help="spectrum parameter as p/q in (0,1)")
    p_verify.add_argument("--roots", type=int, default=None,
                          help="single K for the gauge suite (default: 1,2,4,8)")
    p_verify.add_argument("--suite", default="all",
                          choices=list(suites.SUITE_NAMES) + ["all"])
    p_verify.add_argument("--out", default=None, help="report path (default stdout)")
    p_verify.add_argument("--jobs", type=int, default=1,
                          help="fan independent suites out to processes")

    p_reduce = sub.add_parser("reduce", help="print the normal form of a word")
    common(p_reduce)
    p_reduce.add_argument("word", help="word in the grammar a<digits>[*], whitespace-separated")

    p_spec = sub.add_parser("spectrum", help="emit the spectrum dataset")
    common(p_spec, degree_default=8)
    p_spec.add_argument("--c", type=_fraction_arg, default=Fraction(1, 2))
    p_spec.add_argument("--format", default="csv", choices=["csv", "svg"])
    p_spec.add_argument("--out", default=None, help="output path (default stdout)")

    p_gauge = sub.add_parser("gauge", help="gauge covariance and spectrum verdicts")
    common(p_gauge, degree_default=3)
    p_gauge.add_argument("--roots", type=int, default=4, help="number of circle samples K")
    p_gauge.add_argument("--unitary", default="shift", choices=["paper", "shift"],
                         help="variant whose per-entry details are embedded")
    p_gauge.add_argument("--out", default=None)

    p_expect = sub.add_parser("expect", help="symbolic expectation of a word")
    common(p_expect)
    p_expect.add_argument("word")
    return parser


def _validate_common(args) -> Optional[str]:
    if args.n < 2:
        return "--n must be at least 2"
    if args.max_degree < 1:
        return "--max-degree must be at least 1"
    try:
        if getattr(args, "c", None) is not None:
            SpectrumConfig(args.n, args.max_degree, args.c)  # the one check of 0 < c < 1
    except ValueError as exc:
        return "--%s" % exc
    return None


_WRITE_SLICE = 1 << 16  # characters handed to the encoder per write: 64 KiB


def _write_output(text: str, path: Optional[str]) -> None:
    """Write ``text`` to ``path``, or to stdout when ``path`` is None.

    The text goes out in slices of at most ``_WRITE_SLICE`` characters, so
    only one slice and its encoding are held beside it.  A slice ends
    between code points, so the bytes are those of one whole-text write.
    """
    with nullcontext(sys.stdout) if path is None else \
            open(path, "w", encoding="utf-8", newline="") as handle:
        for start in range(0, len(text), _WRITE_SLICE):
            handle.write(text[start:start + _WRITE_SLICE])


def _cmd_verify(args) -> int:
    roots = (args.roots,) if args.roots is not None else None
    if args.suite == "all":
        report = suites.run_all(args.n, args.max_degree, args.c, roots,
                                jobs=max(1, args.jobs))
    else:
        report = suites.run_suite(args.suite, args.n, args.max_degree, args.c, roots)
    _write_output(json.dumps(report, indent=2, sort_keys=True) + "\n", args.out)
    return 1 if suites.total_failures(report) else 0


def _cmd_reduce(args) -> int:
    word = parse_word(args.word, args.n)
    print(rewrite(word, args.n).render())
    return 0


def _cmd_spectrum(args) -> int:
    cfg = SpectrumConfig(args.n, args.max_degree, args.c)
    emit = emit_csv if args.format == "csv" else emit_svg
    _write_output(emit(enumerate_spectrum(cfg), cfg), args.out)  # the stream is read once
    return 0


def _cmd_gauge(args) -> int:
    report = suites.gauge_suite(args.n, args.max_degree, (args.roots,))
    params = TruncationParams(args.n, args.max_degree)
    rep = gauge_mod.BundleRep(params, args.roots)
    variant = (gauge_mod.PAPER_UNITARY if args.unitary == "paper"
               else gauge_mod.BLOCK_SHIFT_UNITARY)
    details = []
    for i in range(args.n + 1):
        for w in range(args.roots):
            failures = gauge_mod.check_covariance(rep, i, w, variant)
            details.append({"i": i, "w": w, "ok": not failures, "failingEntries": failures})
    report["unitary"] = args.unitary
    report["covarianceDetails"] = details
    report["vacuumSpectrum"] = gauge_mod.vacuum_operator_spectrum(rep)
    report["quotientRelation"] = gauge_mod.check_quotient_relation(rep)
    _write_output(json.dumps(report, indent=2, sort_keys=True) + "\n", args.out)
    return 1 if suites.total_failures(report) else 0


def _cmd_expect(args) -> int:
    params = TruncationParams(args.n, args.max_degree)
    word = parse_word(args.word, args.n)
    symbolic = rewrite(word, args.n).diagonal_part()
    print("expectation: %s" % symbolic.render())
    guard = creation_guard(word)
    if guard > args.max_degree:
        # the guard band is empty: a pass here would compare no column
        print("error: nothing checked: guard %d exceeds --max-degree %d; "
              "use --max-degree %d or more" % (guard, args.max_degree, guard),
              file=sys.stderr)
        return 2
    cutoff = params.degree_prefix(args.max_degree - guard)
    ok = evaluate_word(word, params).diagonal(cutoff) == \
        evaluate(symbolic, params).diagonal(cutoff)
    print("matrix-oracle (guard %d, %d columns): %s"
          % (guard, cutoff, "pass" if ok else "FAIL"))
    return 0 if ok else 1


_HANDLERS = {
    "verify": _cmd_verify,
    "reduce": _cmd_reduce,
    "spectrum": _cmd_spectrum,
    "gauge": _cmd_gauge,
    "expect": _cmd_expect,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    problem = _validate_common(args)
    if problem:
        parser.error(problem)  # exits with status 2
    try:
        return _HANDLERS[args.command](args)
    except (WordSyntaxError, GeneratorIndexError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("i/o error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
