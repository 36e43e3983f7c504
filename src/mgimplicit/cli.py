"""Command-line interface.

Subcommands::

    implicit info FILE
    implicit region (FILE | --blocks R1,R2,.. --gamma A,B,..) [--plot PATH]
    implicit matrix FILE --nu A,B,.. [--out PATH]
    implicit implicitize FILE [--nu A,B,..] [--points N] [--seed S] [--out PATH]
    implicit verify FILE --poly PATH

Vector options (``--nu``, ``--blocks``, ``--gamma``) accept a leading minus
sign in either spelling, ``--nu -1,5`` or ``--nu=-1,5``.

Exit codes: 0 success / verified, 1 validation or usage error,
2 computation finished but unverified or inconclusive, 141 standard output
closed by the reader before all output was written (e.g. ``| head``).
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from pathlib import Path

from .complexes import representation_matrix
from .implicitize import PipelineError, evaluation_points, run_pipeline, verify_implicit
from .multipoly import PolyParseError, parse_poly
from .problem import ProblemValidationError, hypersurface_check, load_problem
from .regions import (
    BlockStructure,
    _smallest_strand_corner,
    ascii_region_plot,
    check_strand_degree,
    complement_corners,
    describe_region,
    region_RB,
    strand_dim,
    svg_region_plot,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_UNVERIFIED = 2
# 128 + SIGPIPE, what a shell reports for a writer killed by a closed pipe
EXIT_BROKEN_PIPE = 141

VECTOR_OPTIONS = ("--nu", "--blocks", "--gamma")


def _parse_vector(text, what):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ProblemValidationError(f"{what} must be a comma-separated integer vector, got {text!r}")


def _check_out_path(out):
    """Reject an output PATH that cannot be written (a directory, or a file
    in a missing directory) before any work is done; creates nothing."""
    if not out:
        return
    path = Path(out)
    if path.is_dir():
        code = errno.EISDIR
    elif not path.parent.is_dir():
        code = errno.ENOTDIR if path.parent.exists() else errno.ENOENT
    else:
        return
    raise ProblemValidationError(f"cannot write {out}: [Errno {code}] {os.strerror(code)}: {out!r}")


def _write_or_print(payload, out):
    if not out:
        print(payload)
        return
    try:
        Path(out).write_text(payload + "\n")
    except OSError as exc:
        raise ProblemValidationError(f"cannot write {out}: {exc}") from exc


def cmd_info(args):
    pf = load_problem(args.file)
    inst = pf.instance()
    blocks = inst.blocks
    corners = complement_corners(blocks, inst.gamma)
    nu = _smallest_strand_corner(blocks, corners)
    points = evaluation_points(inst, nu)
    if args.json:
        payload = {
            "schema": "problem-info/1",
            "blocks": pf.blocks,
            "r": list(blocks.r),
            "n": inst.n,
            "gamma": list(inst.gamma),
            "target_vars": list(inst.target.names),
            "complement_corners": [list(c) for c in corners],
            "suggested_nu": list(nu),
            "strand_dims": {str(list(c)): strand_dim(blocks, c) for c in corners},
            "evaluation_points": points,
        }
        print(json.dumps(payload, indent=2))
        return EXIT_OK
    print(f"blocks: {' ; '.join(' '.join(g) for g in pf.blocks)}  (r = {blocks.r})")
    print(f"polynomials: {len(inst.f)}  (n = {inst.n})")
    print(f"target variables: {' '.join(inst.target.names)}")
    print(f"gamma: {inst.gamma}")
    print(f"complement corners: {', '.join(str(c) for c in corners)}")
    print(f"suggested nu: {nu}")
    print("strand dimensions near the suggestion:")
    for c in corners:
        mark = "  <- suggested" if c == nu else ""
        print(f"  nu = {c}: {strand_dim(blocks, c)}{mark}")
    print(
        f"evaluation points at the suggestion: {points['determinant']} per maximal minor, "
        f"at most {points['verification']} for verification"
    )
    return EXIT_OK


def cmd_region(args):
    if args.plot != "-":
        _check_out_path(args.plot)
    if args.file:
        if args.blocks or args.gamma:
            raise ProblemValidationError("region takes a FILE or --blocks and --gamma, not both")
        inst = load_problem(args.file).instance()
        blocks, gamma = inst.blocks, inst.gamma
    else:
        if not (args.blocks and args.gamma):
            raise ProblemValidationError("region needs a FILE or both --blocks and --gamma")
        blocks = BlockStructure(_parse_vector(args.blocks, "--blocks"))
        gamma = _parse_vector(args.gamma, "--gamma")
    corners = complement_corners(blocks, gamma)
    if args.json:
        region = region_RB(blocks, gamma)
        nu = _smallest_strand_corner(blocks, corners)
        payload = {
            "schema": "region/1",
            "r": list(blocks.r),
            "gamma": list(gamma),
            "parts": [
                {"alpha": [j + 1 for j in sorted(part.alpha)], "shift": list(part.shift)}
                for part in region.parts
            ],
            "complement_corners": [list(c) for c in corners],
            "suggested_nu": list(nu),
            "suggested_strand_dim": strand_dim(blocks, nu),
        }
        print(json.dumps(payload, indent=2))
    else:
        print(describe_region(blocks, gamma, corners))
    if args.plot:
        if blocks.s != 2:
            print("plot refused: only two-block regions can be drawn", file=sys.stderr)
        elif args.plot == "-":
            print(ascii_region_plot(blocks, gamma, corners))
        else:
            _write_or_print(svg_region_plot(blocks, gamma, corners), args.plot)
            print(f"plot written to {args.plot}", file=sys.stderr)
    return EXIT_OK


def cmd_matrix(args):
    _check_out_path(args.out)
    inst = load_problem(args.file).instance()
    nu = _parse_vector(args.nu, "--nu")
    warnings = check_strand_degree(inst.blocks, inst.gamma, nu)
    for w in warnings:
        print(w, file=sys.stderr)
    m = representation_matrix(inst, nu, warn_region=False)
    payload = json.dumps(m.to_json_dict(extra={"nu": list(nu), "warnings": warnings}), indent=2)
    _write_or_print(payload, args.out)
    return EXIT_OK


def cmd_implicitize(args):
    _check_out_path(args.out)
    pf = load_problem(args.file)
    inst = pf.instance()
    hypersurface_check(inst)
    nu = _parse_vector(args.nu, "--nu") if args.nu else None
    try:
        result = run_pipeline(inst, nu, points=args.points, seed=args.seed)
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNVERIFIED
    for w in result.warnings:
        print(f"warning: {w}", file=sys.stderr)
    _write_or_print(result.to_json(), args.out)
    return EXIT_OK if result.verified else EXIT_UNVERIFIED


def cmd_verify(args):
    inst = load_problem(args.file).instance()
    try:
        text = Path(args.poly).read_text()
    except OSError as exc:
        raise ProblemValidationError(f"cannot read {args.poly}: {exc}")
    try:
        delta = parse_poly(text.strip(), inst.target)
    except PolyParseError as exc:
        raise ProblemValidationError(f"polynomial file: {exc}")
    if delta.is_zero():
        raise ProblemValidationError("the zero polynomial vanishes vacuously; nothing to verify")
    ok = verify_implicit(delta, inst)
    print("vanishes exactly on the parametrization" if ok else "does NOT vanish on the parametrization")
    return EXIT_OK if ok else EXIT_UNVERIFIED


def build_parser():
    parser = argparse.ArgumentParser(
        prog="implicit",
        description="Implicit equations of multigraded rational hypersurfaces via strand matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="summarize a problem file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("region", help="print the unreliable region, corners and suggested nu")
    p.add_argument("file", nargs="?")
    p.add_argument("--blocks", help="comma-separated block dimensions r_1,..,r_s")
    p.add_argument("--gamma", help="comma-separated degree a_1,..,a_s")
    p.add_argument("--plot", help="write an SVG plot to PATH ('-' for ASCII to stdout; s = 2 only)")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("matrix", help="emit the strand matrix M_nu as JSON")
    p.add_argument("file")
    p.add_argument("--nu", required=True, help="strand degree, e.g. 3,1")
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("implicitize", help="run the full pipeline and emit the result as JSON")
    p.add_argument("file")
    p.add_argument("--nu", help="strand degree (defaults to the suggested corner)")
    p.add_argument("--points", type=int, default=20, help="random points for the rank-drop check")
    p.add_argument("--seed", type=int, default=0, help="seed for the rank-drop points (not for delta)")
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_implicitize)

    p = sub.add_parser(
        "verify", help="test a candidate implicit equation by exact evaluation on the strand grid"
    )
    p.add_argument("file")
    p.add_argument("--poly", required=True, help="file containing one target-ring polynomial")
    p.set_defaults(func=cmd_verify)

    return parser


def _attach_negative_vectors(argv):
    """Glue ``--nu -1,5`` into ``--nu=-1,5``: argparse reads a separate value
    with a leading minus as an option flag."""
    out = []
    for arg in argv:
        if out and out[-1] in VECTOR_OPTIONS and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = parser.parse_args(_attach_negative_vectors(argv))
    except SystemExit as exc:
        # remap argparse's own exit codes onto the documented scheme
        code = exc.code if isinstance(exc.code, int) else 1
        return EXIT_OK if code == 0 else EXIT_VALIDATION
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader went away; point stdout at devnull so that the flush at
        # interpreter exit does not fail a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
