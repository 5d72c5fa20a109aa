"""One fresh wmfock process, as a user would start it, with its timing marks.

    child.py TIMING [--trace] cli ARGV...
    child.py TIMING [--trace] soundness WORDS REPORT

``cli`` runs ``wmfock.cli.main(ARGV)``; ``soundness`` parses the word file
and runs ``suites.soundness_check`` on the exhaustive sweep and on the
words.  ``t_ready`` is taken at the first call into the work (the CLI
handler, or the first soundness check), after import and argument parsing;
``t_done`` once the report or dataset has been written.  ``--trace``
installs the layer wrappers of ``tracer.py``.  Times use the system-wide monotonic clock, so
the parent can subtract its own spawn time.  TIMING receives one JSON
object; the exit code is the CLI's.
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def run_cli(argv, ready):
    from wmfock import cli

    original = cli._HANDLERS[argv[0]]

    def marked(args):
        ready()
        return original(args)

    cli._HANDLERS[argv[0]] = marked
    return cli.main(argv)


def run_soundness(words_path, report_path, ready):
    import workloads as W
    from wmfock import suites
    from wmfock.fock import TruncationParams
    from wmfock.words import parse_word

    with open(words_path, encoding="utf-8") as handle:
        words = [parse_word(line, W.RANDOM_N) for line in handle.read().splitlines()]
    ready()
    exhaustive = suites.soundness_check(
        suites.exhaustive_words(W.EXHAUSTIVE_N, W.EXHAUSTIVE_LEN),
        TruncationParams(W.EXHAUSTIVE_N, W.EXHAUSTIVE_DEGREE))
    sampled = suites.soundness_check(words, TruncationParams(W.RANDOM_N, W.RANDOM_DEGREE))
    report = {
        "exhaustive": {"n": W.EXHAUSTIVE_N, "maxLength": W.EXHAUSTIVE_LEN,
                       "maxDegree": W.EXHAUSTIVE_DEGREE, "result": exhaustive},
        "random": {"n": W.RANDOM_N, "maxDegree": W.RANDOM_DEGREE, "result": sampled},
    }
    with open(report_path, "w", encoding="utf-8", newline="") as handle:
        handle.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 1 if exhaustive["failures"] or sampled["failures"] else 0


def main(argv):
    timing_path, rest = argv[0], list(argv[1:])
    traced = "--trace" in rest
    rest = [arg for arg in rest if arg != "--trace"]
    sys.path.insert(0, SRC)
    import wmfock

    if not os.path.abspath(wmfock.__file__).startswith(SRC + os.sep):
        raise SystemExit("wmfock was imported from %s, not from %s" % (wmfock.__file__, SRC))
    import wmfock.cli  # noqa: F401  (load every layer before wrapping)

    tracer = None
    if traced:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    marks = {}

    def ready():
        marks["t_ready"] = time.monotonic()
        if tracer is not None:
            tracer.open_root()

    if rest[0] == "cli":
        rc = run_cli(rest[1:], ready)
    elif rest[0] == "soundness":
        rc = run_soundness(rest[1], rest[2], ready)
    else:
        raise SystemExit("unknown child kind %r" % rest[0])
    marks["t_done"] = time.monotonic()
    out = dict(marks, rc=rc)
    if tracer is not None:
        tracer.close_root()
        out["trace"] = tracer.export()
    with open(timing_path, "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
