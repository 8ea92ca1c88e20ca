"""Command-line front end: JSON in, JSON out, exit codes for batch use.

Exit status: 0 success, 1 invalid input (a usage error, malformed JSON,
JSON nested too deeply, bad descriptor, an unreadable or non-UTF-8 file,
an integer too long to convert to or from text), 2 an indeterminate
classification, 3 a violated internal invariant.
Logs go to standard error at the level named by the ``CREMONA_LOG``
environment variable; reports go to the output path (default stdout).
``logging`` is imported and set up on the first log record, or at start
when ``CREMONA_LOG`` is set, so a run that logs nothing never loads it.
Each command imports the modules it needs when it runs, so importing this
module loads no computational module; a process builds its parser once,
on the first ``main`` call.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .errors import CremonaError, IntegerTooLong, InvalidDescriptor, InvariantViolation, excerpt

EXIT_OK = 0
EXIT_INVALID_INPUT = 1
EXIT_INDETERMINATE = 2
EXIT_INVARIANT_VIOLATION = 3


def _read_json(path: str):
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise
    except ValueError:
        raise IntegerTooLong(
            "an input integer has more digits than int() converts from text") from None
    except RecursionError:
        raise InvalidDescriptor("at $: arrays and objects nest too deeply to read") from None


def _write_report(path: str, doc) -> None:
    from . import jsonio

    try:
        payload = jsonio.dumps(doc)
    except ValueError:
        raise IntegerTooLong(
            "a report integer has more digits than str() converts to text") from None
    if path == "-":
        sys.stdout.write(payload)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(payload)


def _cmd_classify(args) -> int:
    from . import jsonio
    from .classifier import classify, link_feasibility

    descriptor = jsonio.parse_descriptor(_read_json(args.input))
    verdict = classify(descriptor)
    doc = jsonio.verdict_json(verdict)
    if args.links and verdict.outcome == "maximal":
        doc["links"] = jsonio.link_report_json(link_feasibility(descriptor, verdict))
    _write_report(args.output, doc)
    if verdict.outcome == "indeterminate":
        _log("info", "indeterminate verdict: %s", verdict.reason)
        return EXIT_INDETERMINATE
    return EXIT_OK


def _cmd_construct(args) -> int:
    from . import jsonio

    model = jsonio.parse_model(jsonio.expect_obj(_read_json(args.input), "$"), args.kind)
    emit = jsonio.exceptional_model_json if args.kind == "exceptional" else jsonio.z22_model_json
    _write_report(args.output, emit(model))
    return EXIT_OK


def _cmd_minus_one_count(args) -> int:
    from . import jsonio
    from .picard import BlowupLattice, enumerate_minus_one_classes

    classes = enumerate_minus_one_classes(BlowupLattice(args.r))
    report = {"r": args.r, "count": len(classes)}
    if args.list:
        report["classes"] = [jsonio.divisor_json(d) for d in classes]
    _write_report(args.output, report)
    return EXIT_OK


def _cmd_invariant_rank(args) -> int:
    from . import jsonio
    from .picard import invariant_sublattice

    action = jsonio.parse_action(_read_json(args.input), "$")
    rank, basis = invariant_sublattice(action)
    _write_report(args.output, {"r": action.lattice.r, "rank": rank,
                                "basis": [jsonio.divisor_json(d) for d in basis]})
    return EXIT_OK


def _cmd_genus(args) -> int:
    from . import jsonio
    from .picard import BlowupLattice, adjunction_genus, intersect

    obj = jsonio.expect_obj(_read_json(args.input), "$")
    lattice = BlowupLattice(jsonio.expect_int(obj.get("r"), "$.r"))
    divisor = jsonio.parse_divisor(obj.get("divisor"), "$.divisor")
    _write_report(args.output, {"genus": adjunction_genus(lattice, divisor),
                                "self_intersection": intersect(lattice, divisor, divisor)})
    return EXIT_OK


def _cmd_canonical(args) -> int:
    from . import jsonio
    from .square_class import delta_canonical_form, triplet_canonical_form

    obj = jsonio.expect_obj(_read_json(args.input), "$")
    if args.shape == "triplet":
        canon = triplet_canonical_form(jsonio.parse_triplet(obj.get("triplet"), "$.triplet"))
    else:
        canon = delta_canonical_form(jsonio.parse_p1_points(obj.get("delta"), "$.delta"))
    _write_report(args.output, jsonio.invariant_json(canon))
    return EXIT_OK


def _cmd_verify(args) -> int:
    from . import suites

    if args.suite not in suites.SUITES:
        _log("error", "unknown suite %r; choose from %s", args.suite, ", ".join(suites.SUITES))
        return EXIT_INVALID_INPUT
    results = suites.run_suite(args.suite)
    checks = [
        {"name": name, "status": "ok" if error is None else "failed", "error": error}
        for name, error in results
    ]
    failed = [c for c in checks if c["status"] == "failed"]
    _write_report(args.output, {"suite": args.suite, "checks": checks,
                                "failures": len(failed)})
    for c in failed:
        _log("error", "check %s failed: %s", c["name"], c["error"])
    return EXIT_INVARIANT_VIOLATION if failed else EXIT_OK


def _int_arg(text: str) -> int:
    try:
        return int(text)
    except ValueError:  # argparse's own message would quote all of a long value
        raise argparse.ArgumentTypeError(f"invalid int value: {excerpt(text)}") from None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by later ones."""
    parser = argparse.ArgumentParser(
        prog="cremona",
        description="Classify algebraic subgroup models of the plane Cremona group.")
    sub = parser.add_subparsers(dest="command", required=True)

    def io_flags(p):
        p.add_argument("--input", "-i", default="-", help="input JSON path, - for stdin")
        p.add_argument("--output", "-o", default="-", help="report path, - for stdout")

    p = sub.add_parser("classify", help="classify a surface descriptor")
    io_flags(p)
    p.add_argument("--links", action="store_true",
                   help="include the link feasibility report for maximal verdicts")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("construct", help="build a bundle model from geometric data")
    p.add_argument("kind", choices=("four-lines", "three-lines-conic", "z22", "exceptional"))
    io_flags(p)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("lattice", help="lattice computations")
    lsub = p.add_subparsers(dest="lattice_cmd", required=True)
    q = lsub.add_parser("minus-one-count", help="count (-1)-classes of a blowup lattice")
    q.add_argument("--r", type=_int_arg, required=True, help="number of blown-up points")
    q.add_argument("--list", action="store_true", help="include the classes themselves")
    q.add_argument("--output", "-o", default="-")
    q.set_defaults(func=_cmd_minus_one_count)
    q = lsub.add_parser("invariant-rank", help="rank and basis of the fixed sublattice")
    io_flags(q)
    q.set_defaults(func=_cmd_invariant_rank)
    q = lsub.add_parser("genus", help="adjunction genus of a divisor class")
    io_flags(q)
    q.set_defaults(func=_cmd_genus)

    p = sub.add_parser("canonical", help="canonical forms modulo Moebius maps")
    p.add_argument("shape", choices=("triplet", "delta"))
    io_flags(p)
    p.set_defaults(func=_cmd_canonical)

    p = sub.add_parser("verify", help="run a named invariant suite")
    p.add_argument("--suite", default="all", help="suite name (default: all)")
    p.add_argument("--output", "-o", default="-")
    p.set_defaults(func=_cmd_verify)

    return parser


def _configure_logging():
    """Set up logging unless it already is, and return the ``cremona`` logger."""
    import logging

    level = getattr(logging, os.environ.get("CREMONA_LOG", "warning").upper(), None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="%(levelname)s %(name)s: %(message)s")
    return logging.getLogger("cremona")


def _log(level: str, message: str, *args) -> None:
    getattr(_configure_logging(), level)(message, *args)


def main(argv=None) -> int:
    if "CREMONA_LOG" in os.environ:
        _configure_logging()
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, after printing the usage; here
        # 2 means an indeterminate verdict
        if exc.code == 2:
            return EXIT_INVALID_INPUT
        raise
    try:
        return args.func(args)
    except json.JSONDecodeError as exc:
        _log("error", "malformed JSON at line %d column %d: %s", exc.lineno, exc.colno, exc.msg)
        return EXIT_INVALID_INPUT
    except (OSError, UnicodeDecodeError) as exc:
        _log("error", "cannot read or write: %s", exc)
        return EXIT_INVALID_INPUT
    except InvariantViolation as exc:
        _log("error", "internal invariant violation: %s", exc)
        return EXIT_INVARIANT_VIOLATION
    except CremonaError as exc:
        _log("error", "%s: %s", type(exc).__name__, exc)
        return EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
