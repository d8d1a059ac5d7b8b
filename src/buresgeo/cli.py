"""Command-line front end: ``fidelity``, ``triangle`` and ``verify``.

Every successful command writes exactly one machine-readable envelope to
stdout (JSON, or CSV where the triangle command is asked for it) and all
diagnostics to stderr.  Exit codes: 0 success, 1 verification or
consistency failure, 2 usage error.
"""

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring_ascii

from . import verify as verify_mod
from .hyperbolic import _polyline_count, _polylines, _triangle
from .qubit import REGIMES, _in_ball, np

__all__ = ["main"]

SCHEMA_VERSION = "1"
EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2

# A spread among routes beyond this is reported as an internal
# inconsistency (it should never fire; the verified bound is 1e-10).
ROUTE_DISAGREEMENT = 1e-8

_EDGES = (("AB", "disk_a", "disk_b"), ("AC", "disk_a", "disk_c"), ("BC", "disk_b", "disk_c"))


class _UsageError(Exception):
    pass


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


def _envelope(command: str, inputs: dict, result: dict) -> str:
    return _emit(
        {
            "schema_version": SCHEMA_VERSION,
            "command": command,
            "inputs": inputs,
            "result": result,
        }
    )


def _csv(lines) -> str:
    """The triangle's polylines, lists of (x, y) per edge in _EDGES order, as CSV rows.

    Each row takes one format call; floats are written as in _emit, and
    a non-finite one as nan or inf.
    """
    rows = ["edge,index,x,y"]
    for (name, _, _), line in zip(_EDGES, lines):
        rows += ["%s,%d,%.17g,%.17g" % (name, i, x, y) for i, (x, y) in enumerate(line)]
    return "\n".join(rows)


def _parse_triple(text: str, flag: str):
    """The Bloch vector in text, validated once, as a tuple of three floats, and its norm, a float."""
    parts = text.split(",")
    if len(parts) != 3:
        raise _UsageError(f"{flag} expects three comma-separated reals, got {text!r}")
    try:
        values = tuple([float(p) for p in parts])
    except ValueError:
        raise _UsageError(f"{flag} expects three comma-separated reals, got {text!r}") from None
    try:
        return _in_ball(values)
    except ValueError as exc:
        raise _UsageError(f"{flag}: {exc}") from None


def _cmd_fidelity(args) -> int:
    u, ru = _parse_triple(args.u, "--u")
    v, rv = _parse_triple(args.v, "--v")
    report = verify_mod._compare(u, ru, v, rv)
    result = report._asdict()
    result["regime_flags"] = sorted(report.regime_flags)
    print(_envelope("fidelity", {"u": report.u, "v": report.v, "format": args.format}, result))
    # Written so that a NaN spread fails too.
    if not report.max_pairwise_diff <= ROUTE_DISAGREEMENT:
        print(
            f"theorem violation: routes disagree by {report.max_pairwise_diff:.3e} "
            f"(> {ROUTE_DISAGREEMENT:.0e})",
            file=sys.stderr,
        )
        return EXIT_FAILED
    return EXIT_OK


def _cmd_triangle(args) -> int:
    u, ru = _parse_triple(args.u, "--u")
    v, rv = _parse_triple(args.v, "--v")
    try:
        tri = _triangle(np.array(u), ru, np.array(v), rv)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    try:
        count = _polyline_count(args.samples_per_edge)
    except ValueError as exc:
        raise _UsageError(f"--samples-per-edge: {exc}") from None
    ends = [(complex(*getattr(tri, start)), complex(*getattr(tri, end))) for _, start, end in _EDGES]
    lines = _polylines(ends, count)

    if args.format == "csv":
        print(_csv(lines.tolist()))
        return EXIT_OK

    result = tri._asdict()
    result["polylines"] = {name: _polyline_json(line) for (name, _, _), line in zip(_EDGES, lines)}
    inputs = {
        "u": list(u),
        "v": list(v),
        "samples_per_edge": args.samples_per_edge,
        "format": args.format,
    }
    print(_envelope("triangle", inputs, result))
    return EXIT_OK


def _cmd_verify(args) -> int:
    if not args.tolerance > 0.0:
        raise _UsageError("--tolerance must be positive")
    try:
        summary = verify_mod.sweep(args.seed, args.trials, args.regime_u, args.regime_v)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    inputs = {
        "seed": args.seed,
        "trials": args.trials,
        "regime_u": args.regime_u,
        "regime_v": args.regime_v,
        "tolerance": args.tolerance,
    }
    print(_envelope("verify", inputs, summary._asdict()))
    if not summary.max_diff <= args.tolerance:  # a NaN spread fails too
        print(
            f"verification failed: max_diff {summary.max_diff:.3e} > tolerance "
            f"{args.tolerance:.3e}",
            file=sys.stderr,
        )
        return EXIT_FAILED
    return EXIT_OK


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


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser()
    # A known command's arguments go to that command's parser alone, one
    # parse instead of two, and it reports their errors under its own
    # usage line; no argv, -h or an unknown command goes to the top level.
    if argv and argv[0] in parser.commands:
        parser, argv = parser.commands[argv[0]], argv[1:]
    try:
        args = parser.parse_args(_join_vector_flags(argv))
    except SystemExit as exc:
        # argparse has already written its diagnostic; fold --help to 0.
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.handler(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
