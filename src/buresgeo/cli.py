"""Command-line front end: ``fidelity``, ``triangle`` and ``verify``.

Every successful command writes exactly one machine-readable envelope to
stdout (JSON, or CSV where the triangle command is asked for it) and all
diagnostics to stderr.  Each command only computes: it returns its
result and any failure line, and main alone writes them, through
_respond, the JSON envelope built in one place with the parsed
arguments as its inputs.
Exit codes: 0 success, 1 verification or consistency failure, 2 usage
error, 141 stdout closed before the envelope was written (128 + SIGPIPE;
stderr gets one ``error:`` line and no traceback).  Exit 1 also covers a
route's own consistency check (a fidelity outside [0, 1], a negative
eigenvalue) failing inside ``fidelity`` or ``verify``: stderr then gets
one ``verification failed:`` line and stdout stays empty.  Any other
ValueError a command raises is a usage error.
"""

import argparse
import functools
import json
import os
import sys
from json.encoder import encode_basestring_ascii

from . import verify as verify_mod
from .hyperbolic import _polyline_count, _polylines, _triangle
from .measures import _RouteError
from .qubit import REGIMES, _in_ball

__all__ = ["main"]

SCHEMA_VERSION = "1"
EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
# 128 + SIGPIPE: what a shell reports for a writer whose reader has stopped.
EXIT_PIPE = 141

# A spread among routes beyond this is reported as an internal
# inconsistency (it should never fire; the verified bound is 1e-10).
ROUTE_DISAGREEMENT = 1e-8

_EDGES = (("AB", "disk_a", "disk_b"), ("AC", "disk_a", "disk_c"), ("BC", "disk_b", "disk_c"))


# Formats of a point, 2 or 3 floats, written in one call.
_POINTS = {2: "[%.17g,%.17g]", 3: "[%.17g,%.17g,%.17g]"}


class _Json(str):
    """Text already written as JSON, which _emit passes through as it is."""


def _polyline_json(line) -> _Json:
    """A (count, 2) float array of points as _emit writes its .tolist(), in one format call."""
    text = "[%s]" % ",".join([_POINTS[2]] * len(line)) % tuple(line.reshape(-1).tolist())
    return _Json(text if "n" not in text else _emit(line.tolist()))  # nan, inf: null


def _emit(value) -> str:
    """Serialize the envelope deterministically (insertion-ordered keys).

    Takes Python values only: arrays are passed as ``.tolist()``.  Floats
    are written with 17 significant digits, which read back to the same
    64-bit float, and as null where they are not finite, which JSON cannot
    hold.  A point, a list or tuple of 2 or 3 floats such as a polyline
    point or a Bloch vector, takes one format call; a whole polyline is
    passed as _polyline_json's text.
    """
    if isinstance(value, float):
        text = "%.17g" % value
        return "null" if text[-1] in "nf" else text  # nan, inf, -inf
    if isinstance(value, dict):
        items = [encode_basestring_ascii(k) + ":" + _emit(v) for k, v in value.items()]
        return "{" + ",".join(items) + "}"
    if isinstance(value, (list, tuple)):
        point = _POINTS.get(len(value))
        # value[-1] is value[1] or value[2]: all the items are checked.
        if point and isinstance(value[0], float) and isinstance(value[1], float) and isinstance(value[-1], float):
            text = point % tuple(value)
            if "n" not in text:  # finite: only digits, '.', '-', 'e' and '+'
                return text
        return "[" + ",".join([_emit(item) for item in value]) + "]"
    if isinstance(value, str):
        # _Json text as it is; any other str as json.dumps writes it.
        return value if type(value) is _Json else encode_basestring_ascii(value)
    return json.dumps(value)


def _csv(lines) -> str:
    """The triangle's polylines, lists of (x, y) per edge in _EDGES order, as CSV rows.

    Each row takes one format call; floats are written as in _emit, and
    a non-finite one as nan or inf.
    """
    rows = ["edge,index,x,y"]
    for (name, _, _), line in zip(_EDGES, lines):
        rows += ["%s,%d,%.17g,%.17g" % (name, i, x, y) for i, (x, y) in enumerate(line)]
    return "\n".join(rows)


def _flagged(flag: str, check, value):
    """check(value), with flag put in front of the message of a ValueError it raises."""
    try:
        return check(value)
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None


def _parse_triple(text: str, flag: str):
    """The Bloch vector in text, validated once, as a tuple of three floats, and its norm, a float."""
    try:
        x, y, z = [float(p) for p in text.split(",")]  # a wrong count fails to unpack
    except ValueError:
        raise ValueError(f"{flag} expects three comma-separated reals, got {text!r}") from None
    return _flagged(flag, _in_ball, (x, y, z))


def _cmd_fidelity(args):
    args.u, ru = _parse_triple(args.u, "--u")
    args.v, rv = _parse_triple(args.v, "--v")
    report = verify_mod._compare(args.u, ru, args.v, rv)
    result = report._asdict()
    result["regime_flags"] = sorted(report.regime_flags)
    # Written so that a NaN spread fails too.
    if not report.max_pairwise_diff <= ROUTE_DISAGREEMENT:
        return result, (
            f"theorem violation: routes disagree by {report.max_pairwise_diff:.3e} "
            f"(> {ROUTE_DISAGREEMENT:.0e})"
        )
    return result, None


def _cmd_triangle(args):
    args.u, ru = _parse_triple(args.u, "--u")
    args.v, rv = _parse_triple(args.v, "--v")
    tri = _triangle(args.u, ru, args.v, rv)
    count = _flagged("--samples-per-edge", _polyline_count, args.samples_per_edge)
    ends = [(complex(*getattr(tri, start)), complex(*getattr(tri, end))) for _, start, end in _EDGES]
    lines = _polylines(ends, count)
    if args.format == "csv":
        return _csv(lines.tolist()), None
    result = tri._asdict()
    result["polylines"] = {name: _polyline_json(line) for (name, _, _), line in zip(_EDGES, lines)}
    return result, None


def _cmd_verify(args):
    if not args.tolerance > 0.0:
        raise ValueError("--tolerance must be positive")
    summary = verify_mod.sweep(args.seed, args.trials, args.regime_u, args.regime_v)
    if not summary.max_diff <= args.tolerance:  # a NaN spread fails too
        return summary._asdict(), (
            f"verification failed: max_diff {summary.max_diff:.3e} > tolerance {args.tolerance:.3e}"
        )
    return summary._asdict(), None


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built on the first main() call and reused: parse_args keeps no state
    # between calls, and importing the module stays as cheap as before.
    # Each command's own parser is kept in ``commands``, by name, for main.
    parser = argparse.ArgumentParser(
        prog="buresgeo",
        description="Bures fidelity between qubit states, three ways, cross-verified.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fid = sub.add_parser("fidelity", help="fidelity and trace distance for one pair of states")
    fid.add_argument("--u", required=True, help="Bloch vector as x,y,z")
    fid.add_argument("--v", required=True, help="Bloch vector as x,y,z")
    fid.add_argument("--format", choices=["json"], default="json")
    fid.set_defaults(handler=_cmd_fidelity)

    tri = sub.add_parser("triangle", help="rapidity triangle data for plotting")
    tri.add_argument("--u", required=True, help="Bloch vector as x,y,z")
    tri.add_argument("--v", required=True, help="Bloch vector as x,y,z")
    tri.add_argument("--samples-per-edge", type=int, default=32, dest="samples_per_edge")
    tri.add_argument("--format", choices=["json", "csv"], default="json")
    tri.set_defaults(handler=_cmd_triangle)

    ver = sub.add_parser("verify", help="seeded Monte Carlo route-agreement sweep")
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--trials", type=int, default=10000)
    ver.add_argument("--regime-u", choices=list(REGIMES), default="uniform_ball", dest="regime_u")
    ver.add_argument("--regime-v", choices=list(REGIMES), default="uniform_ball", dest="regime_v")
    ver.add_argument("--tolerance", type=float, default=1e-10)
    ver.set_defaults(handler=_cmd_verify)

    parser.commands = {"fidelity": fid, "triangle": tri, "verify": ver}
    return parser


_VECTOR_FLAGS = ("--u", "--v")


def _join_vector_flags(argv) -> list:
    """Rewrite each ``--u X`` / ``--v X`` pair as ``--u=X``.

    argparse takes a separate value that starts with '-' and a digit,
    such as -0.5,0,0, for an option and rejects it; the joined form is
    always read as the flag's value.
    """
    out = []
    args = iter(argv)
    for arg in args:
        if arg in _VECTOR_FLAGS:
            value = next(args, None)
            out.append(arg if value is None else f"{arg}={value}")
        else:
            out.append(arg)
    return out


def _respond(command: str, args) -> int:
    """Run the parsed request of ``command`` and write its output; return the exit code.

    The handler returns (result, failure): the record as a dict, or the
    CSV text, and None or its one stderr line.  The envelope's inputs are
    args without the handler, after the handler has stored its validated
    vectors back in them.  This is the one place that writes stdout.
    """
    inputs = vars(args)
    handler = inputs.pop("handler")
    try:
        result, failure = handler(args)
    except _RouteError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_FAILED
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if type(result) is not str:
        result = _emit({"schema_version": SCHEMA_VERSION, "command": command, "inputs": inputs, "result": result})
    try:
        sys.stdout.write(result + "\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader has gone.  Python's flush at exit would fail again and
        # print "Exception ignored": stdout's descriptor is pointed at
        # os.devnull instead, as the signal module's documentation advises.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: stdout closed before the envelope was written", file=sys.stderr)
        return EXIT_PIPE
    if failure is not None:
        print(failure, file=sys.stderr)
        return EXIT_FAILED
    return EXIT_OK


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser()
    # A known command's arguments go to that command's parser alone, one
    # parse instead of two, and it reports their errors under its own
    # usage line; no argv, -h or an unknown command goes to the top level,
    # which never returns a request: it prints help or a usage error.
    command = argv[0] if argv else None
    if command in parser.commands:
        parser, argv = parser.commands[command], argv[1:]
    try:
        args = parser.parse_args(_join_vector_flags(argv))
    except SystemExit as exc:
        # argparse has already written its diagnostic; fold --help to 0.
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    return _respond(command, args)


if __name__ == "__main__":
    sys.exit(main())
