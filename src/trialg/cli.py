"""Command line interface: file ingestion, dispatch, machine-readable reports.

Every command prints one canonical JSON report (sorted keys) on stdout.
Exit codes: 0 success, 1 input or validation error (a usage error in the
arguments included), 2 mathematical finding (a verified-hypothesis identity
failed).  Timing goes to stderr so stdout stays byte-deterministic across
runs.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import os
import sys
import time

from . import __version__, io as tio
from .errors import InputError, TheoremViolation, TrialgError
from .sigmamaps import block_decompose

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_FINDING = 2

SOLVE_CLI_KINDS = ("derivation", "sigma_derivation", "biderivation",
                   "sigma_biderivation", "sigma_commuting")


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _report(command: str, paths: list[str], result: dict) -> dict:
    return {
        "command": command,
        "inputs": [{"path": p, "sha256": _sha256(p)} for p in paths],
        "result": result,
        "version": __version__,
    }


def _emit(report: dict) -> int:
    sys.stdout.write(tio.canonical_json(report))
    sys.stdout.write("\n")
    return EXIT_OK


def _load_sigma_blocks(tri, sigma_path: str):
    sigma = tio.load_linmap(sigma_path, tri.field)
    return sigma, block_decompose(tri, sigma)


# -- command handlers -------------------------------------------------------


def _cmd_validate(args) -> int:
    alg = tio.load_algebra(args.algebra)
    result = {"valid": True, "dim": alg.dim, "field": alg.field.to_json(),
              "commutative": alg.is_commutative()}
    return _emit(_report("validate", [args.algebra], result))


def _cmd_triangular_build(args) -> int:
    tri = tio.load_triangular(args.triangular, allow_zero_m=args.allow_zero_M)
    lf, rf = tri.faithfulness()
    result = {
        "dims": {"A": tri.A.dim, "M": tri.M.dim_m, "B": tri.B.dim, "total": tri.dim},
        "field": tri.field.to_json(),
        "left_faithful": lf,
        "right_faithful": rf,
    }
    return _emit(_report("triangular build", [args.triangular], result))


def _cmd_center(args) -> int:
    tri = tio.load_triangular(args.triangular)
    from .algcore import center_T

    z = center_T(tri)
    return _emit(_report("center", [args.triangular], {"center": z.to_json()}))


def _cmd_sigma_center(args) -> int:
    tri = tio.load_triangular(args.triangular)
    _, blocks = _load_sigma_blocks(tri, args.sigma)
    from .sigmamaps import sigma_center

    z, eta = sigma_center(tri, blocks)
    result = {"sigma_center": z.to_json(), "eta": None if eta is None else
              {"matrix": eta.matrix.to_json()["matrix"], "domain_dim": eta.domain.dim}}
    return _emit(_report("sigma-center", [args.triangular, args.sigma], result))


def _cmd_radical(args) -> int:
    alg = tio.load_algebra(args.algebra)
    from .algcore import radical

    rad = radical(alg)
    return _emit(_report("radical", [args.algebra], {"radical": rad.to_json()}))


def _cmd_nil_radical(args) -> int:
    tri = tio.load_triangular(args.triangular)
    from .algcore import nil_radical_T

    rad = nil_radical_T(tri)
    return _emit(_report("nil-radical", [args.triangular], {"nil_radical": rad.to_json()}))


def _cmd_solve(args) -> int:
    tri = tio.load_triangular(args.triangular)
    sigma = None
    paths = [args.triangular]
    if args.sigma:
        sigma = tio.load_linmap(args.sigma, tri.field)
        paths.append(args.sigma)
    from .spaces import solve_space

    space = solve_space(args.kind, tri, sigma)
    return _emit(_report("solve %s" % args.kind, paths, {"space": space.to_json()}))


def _cmd_split_biderivation(args) -> int:
    tri = tio.load_triangular(args.triangular)
    sigma, _ = _load_sigma_blocks(tri, args.sigma)
    D = tio.load_bilinmap_on(args.bid, tri.total)
    from .classify import extremal_split

    split = extremal_split(tri, D, sigma)
    fmt = tri.field.format
    result = {
        "corner_value": [fmt(v) for v in split.corner_value],
        "extremal": split.psi.to_json(),
        "residual": split.residual.to_json(),
    }
    return _emit(_report("split-biderivation", [args.triangular, args.sigma, args.bid], result))


def _cmd_inner_witness(args) -> int:
    tri = tio.load_triangular(args.triangular)
    sigma, blocks = _load_sigma_blocks(tri, args.sigma)
    D = tio.load_bilinmap_on(args.bid, tri.total)
    from .classify import inner_biderivation_witness, innerness_hypotheses

    hyp = innerness_hypotheses(tri, blocks)
    witness = inner_biderivation_witness(tri, D, sigma,
                                         hypotheses=hyp if hyp.all_pass() else None)
    fmt = tri.field.format
    result = {"hypotheses": hyp.to_json()}
    if witness is None:
        result["witness"] = None
    else:
        result["witness"] = {"lambda": [fmt(v) for v in witness.lam],
                             "lambda_A": [fmt(v) for v in witness.lam_a]}
    return _emit(_report("inner-witness", [args.triangular, args.sigma, args.bid], result))


def _cmd_commuting_blocks(args) -> int:
    tri = tio.load_triangular(args.triangular)
    _, blocks = _load_sigma_blocks(tri, args.sigma)
    theta = tio.load_linmap(args.map, tri.field)
    from .classify import commuting_blocks

    cb, report = commuting_blocks(tri, theta, blocks)
    result = {
        "report": report.to_json(),
        "blocks": {name: getattr(cb, name).to_json()
                   for name in ("delta1", "delta2", "delta3", "mu1", "mu2", "mu3")},
    }
    return _emit(_report("commuting-blocks", [args.triangular, args.sigma, args.map], result))


def _cmd_properness(args) -> int:
    tri = tio.load_triangular(args.triangular)
    _, blocks = _load_sigma_blocks(tri, args.sigma)
    theta = tio.load_linmap(args.map, tri.field)
    from .classify import properness

    res = properness(tri, theta, blocks)
    fmt = tri.field.format
    result = res.to_json()
    if res.witness is not None:
        result["witness"] = {"lambda": [fmt(v) for v in res.witness.lam],
                             "omega": res.witness.omega.to_json()}
    return _emit(_report("properness", [args.triangular, args.sigma, args.map], result))


def _cmd_endo_classify(args) -> int:
    tri = tio.load_triangular(args.triangular, allow_zero_m=True)
    phi = tio.load_linmap(args.map, tri.field)
    from .classify import endo_blocks, endo_mono_epi

    eb, report = endo_blocks(tri, phi)
    result = {
        "report": report.to_json(),
        "blocks": {name: getattr(eb, name).to_json()
                   for name in ("chi1", "chi2", "chi3", "gamma1", "gamma2", "gamma3", "h")},
    }
    if eb.reassemble(tri) == phi:
        result["mono_epi"] = endo_mono_epi(tri, eb, phi).to_json()
    return _emit(_report("endo classify", [args.triangular, args.map], result))


def _cmd_partible(args) -> int:
    tri = tio.load_triangular(args.triangular, allow_zero_m=True)
    paths = [args.triangular]
    if args.sigma:
        sigma = tio.load_linmap(args.sigma, tri.field)
        paths.append(args.sigma)
        from .classify import partible_witness

        witness = partible_witness(tri, sigma)
        fmt = tri.field.format
        if witness is None:  # a proof: sigma(1_A) has A-part other than 1_A or B-part nonzero
            result = {"witness": None, "sigma_p": [fmt(v) for v in sigma.apply(tri.p)],
                      "note": "sigma is not partible: the A-part of sigma_p = sigma(1_A) is not 1_A "
                              "or its B-part is not 0"}
        else:
            result = {"witness": {"z": [fmt(v) for v in witness.z],
                                  "sigma_bar": witness.sigma_bar.to_json()}}
    else:
        from .classify import partibility_sufficient

        result = {"report": partibility_sufficient(tri).to_json()}
    return _emit(_report("partible", paths, result))


def _cmd_fixtures_emit(args) -> int:
    written = tio.emit_fixture(args.name, args.out_dir)
    report = {
        "command": "fixtures emit",
        "inputs": [],
        "result": {"written": [{"path": p, "sha256": _sha256(p)} for p in written]},
        "version": __version__,
    }
    return _emit(report)


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors raise InputError, so that main
    reports them like any other bad input; its subparsers share the class."""

    def error(self, message):
        raise InputError("%s: %s" % (self.prog, message))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process and shared by every
    main call: parse_args fills a fresh namespace on each call, so no state
    carries between calls.  Callers must not modify it."""
    parser = _Parser(
        prog="trialg",
        description="Exact computer algebra for triangular algebras Trian(A, M, B).")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate an algebra file")
    p.add_argument("algebra")
    p.set_defaults(func=_cmd_validate)

    tri_parser = sub.add_parser("triangular", help="triangular-algebra commands")
    tsub = tri_parser.add_subparsers(dest="subcommand", required=True)
    p = tsub.add_parser("build", help="build and validate a triangular algebra")
    p.add_argument("triangular")
    p.add_argument("--allow-zero-M", action="store_true")
    p.set_defaults(func=_cmd_triangular_build)

    p = sub.add_parser("center", help="center of a triangular algebra")
    p.add_argument("triangular")
    p.set_defaults(func=_cmd_center)

    p = sub.add_parser("sigma-center", help="twisted center for a block-preserving automorphism")
    p.add_argument("triangular")
    p.add_argument("--sigma", required=True)
    p.set_defaults(func=_cmd_sigma_center)

    p = sub.add_parser("radical", help="largest nil ideal of an algebra")
    p.add_argument("algebra")
    p.set_defaults(func=_cmd_radical)

    p = sub.add_parser("nil-radical", help="nil radical of a triangular algebra")
    p.add_argument("triangular")
    p.set_defaults(func=_cmd_nil_radical)

    p = sub.add_parser("solve", help="solve a complete map space")
    p.add_argument("kind", choices=SOLVE_CLI_KINDS)
    p.add_argument("triangular")
    p.add_argument("--sigma")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("split-biderivation", help="extremal + corner-vanishing split")
    p.add_argument("triangular")
    p.add_argument("--sigma", required=True)
    p.add_argument("--bid", required=True)
    p.set_defaults(func=_cmd_split_biderivation)

    p = sub.add_parser("inner-witness", help="inner witness for a corner-vanishing biderivation")
    p.add_argument("triangular")
    p.add_argument("--sigma", required=True)
    p.add_argument("--bid", required=True)
    p.set_defaults(func=_cmd_inner_witness)

    p = sub.add_parser("commuting-blocks", help="block description of a twisted commuting map")
    p.add_argument("triangular")
    p.add_argument("--sigma", required=True)
    p.add_argument("--map", required=True)
    p.set_defaults(func=_cmd_commuting_blocks)

    p = sub.add_parser("properness", help="properness of a twisted commuting map")
    p.add_argument("triangular")
    p.add_argument("--sigma", required=True)
    p.add_argument("--map", required=True)
    p.set_defaults(func=_cmd_properness)

    endo_parser = sub.add_parser("endo", help="endomorphism commands")
    esub = endo_parser.add_subparsers(dest="subcommand", required=True)
    p = esub.add_parser("classify", help="block structure and mono/epi criteria")
    p.add_argument("triangular")
    p.add_argument("--map", required=True)
    p.set_defaults(func=_cmd_endo_classify)

    p = sub.add_parser("partible", help="partibility witness or sufficiency report")
    p.add_argument("triangular")
    p.add_argument("--sigma")
    p.set_defaults(func=_cmd_partible)

    fx_parser = sub.add_parser("fixtures", help="fixture commands")
    fsub = fx_parser.add_subparsers(dest="subcommand", required=True)
    p = fsub.add_parser("emit", help="write the canonical fixture files")
    p.add_argument("name", choices=("F1", "F2", "F3", "F4"))
    p.add_argument("out_dir")
    p.set_defaults(func=_cmd_fixtures_emit)

    return parser


def _input_error(exc: TrialgError) -> int:
    sys.stdout.write(tio.canonical_json(
        {"error": {"type": type(exc).__name__, "message": str(exc)},
         "version": __version__}))
    sys.stdout.write("\n")
    sys.stderr.write("error: %s\n" % exc)
    return EXIT_INPUT


def _run(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
    except InputError as exc:  # a usage error; -h and --help still print and exit 0
        return _input_error(exc)
    start = time.monotonic()
    try:
        code = args.func(args)
    except TheoremViolation as exc:
        sys.stdout.write(tio.canonical_json({"finding": str(exc), "version": __version__}))
        sys.stdout.write("\n")
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
