"""Command line interface: file ingestion, dispatch, machine-readable reports.

Every command prints one canonical JSON report on stdout: the text of
json.dumps(report, sort_keys=True, indent=2) and a newline, written piece by
piece from io.canonical_pieces.
Exit codes: 0 success, 1 input or validation error (a usage error in the
arguments included), 2 mathematical finding (a verified-hypothesis identity
failed).  Timing goes to stderr so stdout stays byte-deterministic across
runs.

Each command is declared once, in the table COMMANDS: its report name,
help, arguments and handler, in usage order; build_parser loops over it.  A
handler loads its files through an _Inputs, one method per kind of file,
which records their paths in load order, and returns only the report's
result; _run wraps it into the report, whose inputs are those paths.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time

import trialg.io as tio  # by dotted name: -X importtime does not time an import through trialg.__getattr__

from . import __version__
from .errors import InputError, TheoremViolation, TrialgError
from .sigmamaps import MAP_KINDS

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_FINDING = 2


def _report(command: str, paths: list[str], result: dict) -> dict:
    """The report of a command; each input's sha256 is that of the bytes parsed."""
    inputs = [{"path": p, "sha256": tio.parsed_sha256[p]} for p in paths]
    return {"command": command, "inputs": inputs, "result": result, "version": __version__}


def _print(obj):
    """Write obj to stdout as canonical JSON and a newline, piece by piece."""
    sys.stdout.writelines(tio.canonical_pieces(obj))
    sys.stdout.write("\n")


def _emit(report: dict) -> int:
    _print(report)
    return EXIT_OK


class _Inputs:
    """The input files of one command, each kind of file loaded one way (sigma
    with its AutBlocks, which refuse a map that is not a block-preserving
    automorphism); paths lists every file in load order."""

    def __init__(self):
        self.paths = []

    def _path(self, path: str) -> str:
        self.paths.append(path)
        return path

    def algebra(self, path: str):
        return tio.load_algebra(self._path(path))

    def triangular(self, path: str, allow_zero_m: bool = False):
        return tio.load_triangular(self._path(path), allow_zero_m=allow_zero_m)

    def linmap(self, path: str, tri):
        return tio.load_linmap(self._path(path), tri.field)

    def sigma(self, path: str, tri):
        sigma = self.linmap(path, tri)
        from .structure import block_decompose

        return sigma, block_decompose(tri, sigma)

    def bilinmap(self, path: str, tri):
        return tio.load_bilinmap_on(self._path(path), tri.total)


# -- command handlers: each returns the result of its report ----------------


def _cmd_validate(args, load: _Inputs) -> dict:
    alg = load.algebra(args.algebra)
    return {"valid": True, "dim": alg.dim, "field": alg.field.to_json(),
            "commutative": alg.is_commutative()}


def _cmd_triangular_build(args, load: _Inputs) -> dict:
    tri = load.triangular(args.triangular, allow_zero_m=args.allow_zero_M)
    lf, rf = tri.faithfulness()
    return {"dims": {"A": tri.A.dim, "M": tri.M.dim_m, "B": tri.B.dim, "total": tri.dim},
            "field": tri.field.to_json(), "left_faithful": lf, "right_faithful": rf}


def _cmd_center(args, load: _Inputs) -> dict:
    tri = load.triangular(args.triangular)
    from .structure import center_T

    return {"center": center_T(tri).to_json()}


def _cmd_sigma_center(args, load: _Inputs) -> dict:
    tri = load.triangular(args.triangular)
    _, blocks = load.sigma(args.sigma, tri)
    from .structure import sigma_center

    z, eta = sigma_center(tri, blocks)
    return {"sigma_center": z.to_json(), "eta": None if eta is None else
            {"matrix": eta.matrix.to_json()["matrix"], "domain_dim": eta.domain.dim}}


def _cmd_radical(args, load: _Inputs) -> dict:
    alg = load.algebra(args.algebra)
    from .structure import radical

    return {"radical": radical(alg).to_json()}


def _cmd_nil_radical(args, load: _Inputs) -> dict:
    tri = load.triangular(args.triangular)
    from .structure import nil_radical_T

    return {"nil_radical": nil_radical_T(tri).to_json()}


def _cmd_solve(args, load: _Inputs) -> dict:
    tri = load.triangular(args.triangular)
    sigma = load.linmap(args.sigma, tri) if args.sigma else None
    from .spaces import solve_space

    return {"space": solve_space(args.kind, tri, sigma).to_json()}


def _cmd_split_biderivation(args, load: _Inputs) -> dict:
    tri = load.triangular(args.triangular)
    sigma, _ = load.sigma(args.sigma, tri)
    D = load.bilinmap(args.bid, tri)
    from .classify import extremal_split

    return extremal_split(tri, D, sigma).to_json()


def _cmd_inner_witness(args, load: _Inputs) -> dict:
    tri = load.triangular(args.triangular)
    sigma, blocks = load.sigma(args.sigma, tri)
    D = load.bilinmap(args.bid, tri)
    from .classify import inner_biderivation_witness, innerness_hypotheses

    hyp = innerness_hypotheses(tri, blocks)
    witness = inner_biderivation_witness(tri, D, sigma,
                                         hypotheses=hyp if hyp.all_pass() else None)
    return {"hypotheses": hyp.to_json(),
            "witness": None if witness is None else witness.to_json(tri.field)}


def _cmd_commuting_blocks(args, load: _Inputs) -> dict:
    tri = load.triangular(args.triangular)
    _, blocks = load.sigma(args.sigma, tri)
    theta = load.linmap(args.map, tri)
    from .classify import commuting_blocks

    cb, report = commuting_blocks(tri, theta, blocks)
    return {"report": report.to_json(), "blocks": cb.to_json()}


def _cmd_properness(args, load: _Inputs) -> dict:
    tri = load.triangular(args.triangular)
    _, blocks = load.sigma(args.sigma, tri)
    theta = load.linmap(args.map, tri)
    from .classify import properness

    return properness(tri, theta, blocks).to_json()


def _cmd_endo_classify(args, load: _Inputs) -> dict:
    tri = load.triangular(args.triangular, allow_zero_m=True)
    phi = load.linmap(args.map, tri)
    from .classify import endo_blocks, endo_mono_epi

    eb, report = endo_blocks(tri, phi)
    result = {"report": report.to_json(), "blocks": eb.to_json()}
    if eb.reassemble(tri) == phi:
        result["mono_epi"] = endo_mono_epi(tri, eb, phi).to_json()
    return result


def _cmd_partible(args, load: _Inputs) -> dict:
    tri = load.triangular(args.triangular, allow_zero_m=True)
    if not args.sigma:
        from .classify import partibility_sufficient

        return {"report": partibility_sufficient(tri).to_json()}
    sigma = load.linmap(args.sigma, tri)
    from .classify import partible_witness

    witness = partible_witness(tri, sigma)
    fmt = tri.field.format
    if witness is None:  # a proof: sigma(1_A) has A-part other than 1_A or B-part nonzero
        return {"witness": None, "sigma_p": [fmt(v) for v in sigma.apply(tri.p)],
                "note": "sigma is not partible: the A-part of sigma_p = sigma(1_A) is not 1_A "
                        "or its B-part is not 0"}
    return {"witness": {"z": [fmt(v) for v in witness.z], "sigma_bar": witness.sigma_bar.to_json()}}


def _cmd_fixtures_emit(args, load: _Inputs) -> dict:
    written = tio.emit_fixture(args.name, args.out_dir)
    return {"written": [{"path": p, "sha256": digest} for p, digest in written.items()]}


# Each command once, in usage order: its report name (its words, then any
# {argument} the name also shows), help, arguments and handler.  An argument
# is a positional, "--opt" a required option, "--opt?" an optional one and
# "--opt!" a flag; the kind and fixture name arguments take their choices
# from MAP_KINDS and io.FIXTURE_NAMES.
COMMANDS = (
    ("validate", "validate an algebra file", "algebra", _cmd_validate),
    ("triangular build", "build and validate a triangular algebra", "triangular --allow-zero-M!",
     _cmd_triangular_build),
    ("center", "center of a triangular algebra", "triangular", _cmd_center),
    ("sigma-center", "twisted center for a block-preserving automorphism", "triangular --sigma",
     _cmd_sigma_center),
    ("radical", "largest nil ideal of an algebra", "algebra", _cmd_radical),
    ("nil-radical", "nil radical of a triangular algebra", "triangular", _cmd_nil_radical),
    ("solve {kind}", "solve a complete map space", "kind triangular --sigma?", _cmd_solve),
    ("split-biderivation", "extremal + corner-vanishing split", "triangular --sigma --bid",
     _cmd_split_biderivation),
    ("inner-witness", "inner witness for a corner-vanishing biderivation", "triangular --sigma --bid",
     _cmd_inner_witness),
    ("commuting-blocks", "block description of a twisted commuting map", "triangular --sigma --map",
     _cmd_commuting_blocks),
    ("properness", "properness of a twisted commuting map", "triangular --sigma --map",
     _cmd_properness),
    ("endo classify", "block structure and mono/epi criteria", "triangular --map", _cmd_endo_classify),
    ("partible", "partibility witness or sufficiency report", "triangular --sigma?", _cmd_partible),
    ("fixtures emit", "write the canonical fixture files", "name out_dir", _cmd_fixtures_emit),
)
# the help of each command group, the first word of a two-word command
GROUP_HELP = {"triangular": "triangular-algebra commands", "endo": "endomorphism commands",
              "fixtures": "fixture commands"}


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors raise InputError, so that main
    reports them like any other bad input; its subparsers share the class."""

    def error(self, message):
        raise InputError("%s: %s" % (self.prog, message))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process from COMMANDS and
    shared by every main call: parse_args fills a fresh namespace on each
    call, so no state carries between calls.  Callers must not modify it."""
    choices = {"kind": MAP_KINDS, "name": tio.FIXTURE_NAMES}
    parser = _Parser(
        prog="trialg",
        description="Exact computer algebra for triangular algebras Trian(A, M, B).")
    top = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for report, help_text, arguments, handler in COMMANDS:
        *group, word = (w for w in report.split() if not w.startswith("{"))
        if group and group[0] not in groups:
            groups[group[0]] = top.add_parser(group[0], help=GROUP_HELP[group[0]]).add_subparsers(
                dest="subcommand", required=True)
        p = (groups[group[0]] if group else top).add_parser(word, help=help_text)
        for arg in arguments.split():
            name = arg.rstrip("?!")
            if arg.endswith("!"):
                p.add_argument(name, action="store_true")
            elif arg.startswith("--"):
                p.add_argument(name, required=not arg.endswith("?"))
            else:
                p.add_argument(name, choices=choices.get(name))
        p.set_defaults(func=handler, report=report)
    return parser


def _input_error(exc: TrialgError) -> int:
    _print({"error": {"type": type(exc).__name__, "message": str(exc)}, "version": __version__})
    sys.stderr.write("error: %s\n" % exc)
    return EXIT_INPUT


def _run(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
    except InputError as exc:  # a usage error; -h and --help still print and exit 0
        return _input_error(exc)
    start = time.monotonic()
    try:
        inputs = _Inputs()
        result = args.func(args, inputs)
        code = _emit(_report(args.report.format_map(vars(args)), inputs.paths, result))
    except TheoremViolation as exc:
        _print({"finding": str(exc), "version": __version__})
        sys.stderr.write("finding: %s\n" % exc)
        return EXIT_FINDING
    except TrialgError as exc:
        return _input_error(exc)
    finally:
        sys.stderr.write("elapsed_ms: %d\n" % int((time.monotonic() - start) * 1000))
    return code


def main(argv=None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()  # here, so a closed stdout cannot fail at interpreter exit
    except BrokenPipeError:  # the reader is gone: send the rest of stdout to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_INPUT
    return code


if __name__ == "__main__":
    sys.exit(main())
