#!/usr/bin/env python3
"""Line census of src/trialg: which executable lines of its function bodies
the programs run, as one JSON object on stdout.

    python tests/reach.py

In this one process, with sys.settrace recording the line events of
src/trialg frames (its global trace function returns None for every other
file), it runs the programs:

- the demos and README's Quick tour;
- cli.main on every row of cli.COMMANDS over the emitted F1 and F4 (ARGVS),
  validate and radical on F2, one usage error, and the inputs of
  more_inputs: files that fail to load or validate, maps that fail their
  identities, and instances whose reports take other branches, some of them
  with TRIALG_BUDGET=1;
- tools/ladder.py --max-dim 18 --repeats 1 --min-seconds 0;
- perfbench's three WORKLOADS at seed 1: its input generator, run.setup, one
  round of Job.run and rowgen_profile;

and then one call of each LIBRARY_ONLY definition.  It writes its inputs
under the current directory (perfbench's under perfbench/_work there), so
run it in a scratch directory.  The script is not a program: the inputs it
prepares itself and the arguments of the LIBRARY_ONLY calls are made with
the trace off.

The census lines are the executable lines of every function body, read from
the line tables of the code objects compiled from each file: nested
functions, lambdas and comprehensions count, def lines (decorators and
signature) and module and class bodies do not.  "reached" and "unreached"
list every module-level function and method, each with "where" (the file
and line of its def), "qualname" and "lines" (its length); a definition is
reached when any of its body lines ran, "by": "programs", or
"library_only" when only the LIBRARY_ONLY calls ran it.  "lines" holds the
counts ("body", "reached" by programs, "exempt" per rule), the
"unreached" body lines, each "where" file:line with its definition's
"qualname" and its "exempt" rule, and the "stale_exempt" entries of EXEMPT.
A line no program runs is exempt when it is (a, "raise") part of a raise
statement or of an except clause that only raises, (b, "library_only") run
by the LIBRARY_ONLY calls or in a definition that only they run, or (c,
"exempt") in a definition listed in EXEMPT.  tests/test_cli.py asserts that
every other body line runs and that no EXEMPT entry is stale.
"""

from __future__ import annotations

import ast
import contextlib
import glob
import importlib
import inspect
import io
import json
import os
import runpy
import sys
import time
import types
from unittest import mock

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# The definitions that no program runs, kept on purpose: the paper
# constructions that a later theorems command is to report, the dense edge of
# Subspace, and instance families.
LIBRARY_ONLY = (
    "classify.inner_sigma_derivation", "classify.inner_sigma_biderivation", "classify.sigma_derivation_blocks",
    "classify.properness_sufficiency", "exactla.Subspace.from_vectors", "fixtures.ut2_tensor_flip",
    "randomgen.random_faithful_instances", "randomgen.random_instances",
)

# Rule (c): the definitions whose unreached lines are kept on purpose, each
# with its reason.  An entry under which no unreached line is left (a program
# now runs them all) is stale and fails the guard.
TESTS_COMPARE = "value equality that tier-1 tests assert; no program compares these values"
DEBUG_REPR = "the repr that debugging and pytest's assertion messages print"
THEOREM_CHECK = "the negative answer of a check that verifies a theorem on its input; programs only ask it " \
                "where the theorem holds, and a failure is a TheoremViolation"
EXEMPT = {
    "__init__.__getattr__": "trialg.<submodule> after a bare `import trialg` "
                            "(test_submodule_attribute_after_bare_import); programs import submodules by name",
    "__init__.__dir__": "dir(trialg) lists the lazy names (test_public_names_are_the_submodules_objects)",
    "algcore.FinAlgebra.__eq__": TESTS_COMPARE,
    "algcore.TriAlgebra.__eq__": TESTS_COMPARE,
    "sigmamaps.BilinMap.__eq__": TESTS_COMPARE,
    "exactla.LinMap.__add__": "tier-1 tests and this census's own inputs sum solved maps; programs do not",
    "sigmamaps.BilinMap.__add__": "tier-1 tests sum solved bilinear maps; programs do not",
    "sigmamaps.BilinMap.__init__": "the public constructor from a dense tensor, which tier-1 tests use; "
                                   "io reads sparse entries instead",
    "algcore.FinAlgebra.__repr__": DEBUG_REPR,
    "algcore.TriAlgebra.__repr__": DEBUG_REPR,
    "exactla.LinMap.__repr__": DEBUG_REPR,
    "exactla.Subspace.__repr__": DEBUG_REPR,
    "sigmamaps.BilinMap.__repr__": DEBUG_REPR,
    "exactla.RationalField.__repr__": "tier-1 test ids (ids=str) print the field",
    "exactla.PrimeField.__repr__": "tier-1 test ids (ids=str) print the field",
    "cli._run": "exit 2 on a TheoremViolation, which no correct input raises "
                "(test_cli's synthetic finding reaches it)",
    "cli.main": "a reader that closed stdout (BrokenPipeError); the census runs main in-process "
                "(test_cli's closed-stdout build reaches it)",
    "structure.nilpotency": THEOREM_CHECK,
    "structure.is_nilpotent_subspace": THEOREM_CHECK,
    "classify._thm0_conditions": "violations that the report-only endomorphism here does not show: "
                                 "non-multiplicative corner blocks and corner images that do not annihilate",
    "classify._annihilation_hypothesis": "a zero twisted center and a singular one-dimensional rational one: "
                                         "no fixture or randomgen catalog instance has either",
    "classify.properness": "diag(delta2, mu2) leaving Z_sigma: no fixture or catalog instance has it",
    "classify.endo_blocks": "an endomorphism that moves M out of M: no fixture or catalog instance has one",
    "classify._sub_triangular": "a zero ideal: only the demo splits an automorphism, and both its ideals are nonzero",
}

# One argv list per row of cli.COMMANDS (a row missing here fails the run),
# over an instance directory: its T, sigma1, D the sum of the solved
# sigma1-biderivation basis, D0 the residual of D's extremal split, theta a
# sigma1-commuting map and A the corner algebra of T as an algebra file.
# "fixtures emit" runs when the instances are emitted.
ARGVS = {
    "validate": [["validate", "{A}"]],
    "triangular build": [["triangular", "build", "{T}"], ["triangular", "build", "{T}", "--allow-zero-M"]],
    "center": [["center", "{T}"]],
    "sigma-center": [["sigma-center", "{T}", "--sigma", "{sigma}"]],
    "radical": [["radical", "{A}"]],
    "nil-radical": [["nil-radical", "{T}"]],
    "solve {kind}": [["solve", "{kind}", "{T}"]],
    "split-biderivation": [["split-biderivation", "{T}", "--sigma", "{sigma}", "--bid", "{D}"]],
    "inner-witness": [["inner-witness", "{T}", "--sigma", "{sigma}", "--bid", "{D0}"]],
    "commuting-blocks": [["commuting-blocks", "{T}", "--sigma", "{sigma}", "--map", "{theta}"]],
    "properness": [["properness", "{T}", "--sigma", "{sigma}", "--map", "{theta}"]],
    "endo classify": [["endo", "classify", "{T}", "--map", "{sigma}"]],
    "partible": [["partible", "{T}", "--sigma", "{sigma}"], ["partible", "{T}"]],
    "fixtures emit": [],
}


# The comprehension code objects: a body only inside a function (at module or
# class level they run on import; from Python 3.12 most are inlined anyway).
COMPREHENSIONS = ("<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>")


def body_lines(tree: ast.Module, filename: str) -> set:
    """The executable lines of every function body in a parsed source: the
    line table of each function's code object and of the lambdas,
    comprehensions and functions nested in it, less the def lines
    (decorators and signature).  Module and class bodies are not function
    bodies."""
    headers = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            headers.update(range(min([node.lineno] + [d.lineno for d in node.decorator_list]), node.body[0].lineno))
    lines = set()

    def walk(code, in_body):
        for const in code.co_consts:
            if not isinstance(const, types.CodeType):
                continue
            body = bool(const.co_flags & inspect.CO_OPTIMIZED) and (in_body or const.co_name not in COMPREHENSIONS)
            if body:
                lines.update(line for _, _, line in const.co_lines() if line is not None)
            walk(const, body)

    walk(compile(tree, filename, "exec", dont_inherit=True), False)
    return lines - headers


def raise_lines(tree: ast.Module) -> set:
    """Rule (a), the error exits: the lines of each raise statement, and the
    header of each except clause whose body only raises."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise):
            out.update(range(node.lineno, node.end_lineno + 1))
        elif isinstance(node, ast.ExceptHandler) and all(isinstance(s, ast.Raise) for s in node.body):
            out.update(range(node.lineno, node.body[0].lineno))
    return out


def definitions(tree: ast.Module) -> list:
    """(qualname, first line, last line) of each module-level function and
    method; a decorated definition starts at its first decorator."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            defs = [(node.name + "." + sub.name, sub) for sub in node.body if isinstance(sub, kinds)]
        else:
            defs = [(node.name, node)] if isinstance(node, kinds) else []
        for qualname, fn in defs:
            found.append((qualname, min([fn.lineno] + [d.lineno for d in fn.decorator_list]), fn.end_lineno))
    return found


class Tracer:
    """The lines run in the given files while on() is active, a set per
    file: sys.settrace line events on their frames only (no program starts
    a thread)."""

    def __init__(self, files):
        self.lines = {name: set() for name in files}
        self._local = {name: self._recorder(seen.add) for name, seen in self.lines.items()}

    @staticmethod
    def _recorder(add):
        def local(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return local
        return local

    @contextlib.contextmanager
    def on(self):
        local = self._local.get

        def trace(frame, event, arg):
            return local(frame.f_code.co_filename)

        sys.settrace(trace)
        try:
            yield
        finally:
            sys.settrace(None)

    def snapshot(self) -> dict:
        return {name: set(seen) for name, seen in self.lines.items()}


def quiet():
    """Programs print; their stdout and stderr are dropped."""
    stack = contextlib.ExitStack()
    stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
    stack.enter_context(contextlib.redirect_stderr(io.StringIO()))
    return stack


def run_demos_and_tour(tracer):
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        tour = fh.read().split("```python\n", 1)[1].split("```", 1)[0]
    with tracer.on(), quiet():
        for path in sorted(glob.glob(os.path.join(ROOT, "demos", "*.py"))):
            runpy.run_path(path, run_name="__main__")
        exec(compile(tour, "README.md", "exec"), {"__name__": "__main__"})


def prepare_instance(directory):
    """Add A, D, D0 and (without theta1.json) theta to an emitted fixture."""
    tio = importlib.import_module("trialg.io")
    classify = importlib.import_module("trialg.classify")
    solve_space = importlib.import_module("trialg.spaces").solve_space

    paths = {stem: os.path.join(directory, stem + ".json") for stem in ("T", "A", "D", "D0")}
    paths.update(sigma=os.path.join(directory, "sigma1.json"), theta=os.path.join(directory, "theta1.json"))
    tri = tio.load_triangular(paths["T"])
    sigma = tio.load_linmap(paths["sigma"], tri.field)
    bider = solve_space("sigma_biderivation", tri, sigma).basis_maps()
    D = sum(bider[1:], bider[0])
    tio._dump_json(tio.algebra_to_json(tri.A), paths["A"])
    tio._dump_json(D.to_json(), paths["D"])
    tio._dump_json(classify.extremal_split(tri, D, sigma).residual.to_json(), paths["D0"])
    if not os.path.exists(paths["theta"]):
        comm = solve_space("sigma_commuting", tri, sigma).basis_maps()
        tio._dump_json(sum(comm[1:], comm[0]).to_json(), paths["theta"])
    return paths


def run_cli(tracer, work):
    cli = importlib.import_module("trialg.cli")
    kinds = importlib.import_module("trialg.sigmamaps").MAP_KINDS
    missing = [row[0] for row in cli.COMMANDS if row[0] not in ARGVS]
    if missing:
        raise SystemExit("reach.py: no argv for the CLI commands %s" % missing)
    dirs = {name: os.path.join(work, name) for name in ("F1", "F2", "F4")}
    with tracer.on(), quiet():
        for name, directory in dirs.items():
            cli.main(["fixtures", "emit", name, directory])
    argvs, prepared = [], {}
    for name in ("F1", "F4"):
        paths = prepared[name] = prepare_instance(dirs[name])
        for report, templates in ARGVS.items():
            for template in templates:
                for kind in (kinds if report == "solve {kind}" else [None]):
                    argv = [arg.format(kind=kind, **paths) for arg in template]
                    argvs.append(argv + ["--sigma", paths["sigma"]] if kind and kinds[kind].twisted else argv)
    f2 = os.path.join(dirs["F2"], "A.json")
    argvs += [["validate", f2], ["radical", f2], ["no-such-command"]]
    inputs, budget_argvs = more_inputs(work, prepared["F1"], prepared["F4"])
    with tracer.on(), quiet():
        for argv in argvs + inputs:
            cli.main(argv)
    # a budget of 1, as tier-1 CI's console-path step sets it: no enumeration decides
    with mock.patch.dict(os.environ, TRIALG_BUDGET="1"), tracer.on(), quiet():
        for argv in budget_argvs:
            cli.main(argv)


def more_inputs(work, f1, f4) -> tuple:
    """(argvs, argvs to run with TRIALG_BUDGET=1) over the inputs that the
    fixtures do not give: files that fail to load or to validate, an algebra
    file without "basis" over F_53 (above the trial divisors, so Miller-Rabin
    runs), a corner whose characteristic is too small for the trace form, a
    triangular file whose corners are file names, maps that are not
    endomorphisms, automorphisms or biderivations, and instances whose
    reports differ from the fixtures': the twist of fixtures.ut2_tensor_flip
    (not partible), an endomorphism of the regular Trian(UT_2, UT_2, UT_2)
    that kills M (its corner conditions are only reported), a corner M_2(Q),
    that algebra over F_2, and two instances of randomgen's catalog over Q."""
    tio = importlib.import_module("trialg.io")
    fixtures = importlib.import_module("trialg.fixtures")
    exactla = importlib.import_module("trialg.exactla")
    build_triangular = importlib.import_module("trialg.algcore").build_triangular
    spaces = importlib.import_module("trialg.spaces")
    catalog = dict(importlib.import_module("trialg.randomgen").instance_catalog(exactla.QQ))
    os.makedirs(work, exist_ok=True)
    paths = {}

    def write(name, obj):
        paths[name] = os.path.join(work, name + ".json")
        tio._dump_json(obj, paths[name])
        return paths[name]

    def algebra(field, dim, unit, mul):
        return {"field": field, "dim": dim, "unit": unit, "mul": [list(e) + ["1"] for e in mul]}

    def bumped(bid, field, entry):
        """A bilinear file with 1 added to the coefficient of e_k in D(e_i, e_j)."""
        with open(bid, encoding="utf-8") as fh:
            obj = json.load(fh)
        old = {tuple(e[:3]): e[3] for e in obj["tensor"]}.get(entry, "0")
        obj["tensor"].append(list(entry) + [field.format(field.add(field.coerce(old), field.one))])
        return obj

    rational = {"kind": "rational"}
    # basis 1, x, y with x y = x and every other product of x, y zero: (x y) y = x, x (y y) = 0
    write("non_associative", algebra(rational, 3, ["1", "0", "0"],
                                     [(0, 0, 0), (0, 1, 1), (0, 2, 2), (1, 0, 1), (2, 0, 2), (1, 2, 1)]))
    write("unit_law", {"field": rational, "dim": 1, "unit": ["1"], "mul": [[0, 0, 0, "2"]]})
    # Q^3 in the basis f1, f1 + f2, f2 + f3, where f1 (f2 + f3) = 0
    write("q3_rebased", {"field": rational, "dim": 3, "unit": ["1", "0", "1"],
                         "mul": [[0, 0, 0, "1"], [0, 1, 0, "1"], [1, 0, 0, "1"], [1, 1, 1, "1"], [1, 2, 1, "1"],
                                 [1, 2, 0, "-1"], [2, 1, 1, "1"], [2, 1, 0, "-1"], [2, 2, 2, "1"]]})
    for p in (53, 1, 43 * 47):
        write("prime_%d" % p, algebra({"kind": "prime", "p": p}, 1, ["1"], [(0, 0, 0)]))
    write("ut2_f2", tio.algebra_to_json(fixtures.upper_triangular_algebra(exactla.GF(2), 2)))
    flip, flip_sigma = fixtures.ut2_tensor_flip()
    write("flip_T", tio.triangular_to_json(flip))
    write("flip_sigma", flip_sigma.to_json())
    corners = tio.triangular_to_json(fixtures.fixture_f1())
    for part in ("A", "M", "B"):
        write("by_name_" + part, corners[part])
    write("by_name_T", {part: "by_name_%s.json" % part for part in ("A", "M", "B")})
    with open(os.path.join(work, "not_utf8.json"), "wb") as fh:
        fh.write(b"\xff\xfe{}")
    # F1's identity with e_0 added to the image of m: unital, not multiplicative
    rows = [[int(k == j) for j in range(3)] for k in range(3)]
    rows[0][1] = 1
    write("f1_bumped_identity", exactla.LinMap(exactla.QQ, rows).to_json())
    write("f1_bumped_bid", bumped(f1["D"], exactla.QQ, (1, 0, 0)))  # fails in the second slot first
    write("f4_bumped_bid", bumped(f4["D"], exactla.GF(5), (0, 0, 0)))
    regular = {}
    for field in (exactla.QQ, exactla.GF(2)):
        ut2 = fixtures.upper_triangular_algebra(field, 2)
        regular[field] = build_triangular(ut2, fixtures.regular_bimodule(ut2), ut2)
    write("regular_T", tio.triangular_to_json(regular[exactla.QQ]))
    write("regular_f2_T", tio.triangular_to_json(regular[exactla.GF(2)]))
    t = regular[exactla.QQ].total
    write("regular_kill_m", exactla.LinMap.from_images(
        exactla.QQ, [t.basis_vector(j) if j in (0, 2, 6, 8) else t.zero_vector() for j in range(9)], 9, 9).to_json())
    # A = M_2(Q) on the columns M = Q^2, B = Q; E_ij has index 2 i + j
    write("m2_A", algebra(rational, 4, ["1", "0", "0", "1"],
                          [(2 * i + j, 2 * j + l, 2 * i + l) for i in range(2) for j in range(2) for l in range(2)]))
    write("m2_M", {"dimA": 4, "dimM": 2, "dimB": 1, "left": [[2 * i + j, j, i, "1"] for i in range(2) for j in range(2)],
                   "right": [[m, 0, m, "1"] for m in range(2)]})
    write("m2_B", algebra(rational, 1, ["1"], [(0, 0, 0)]))
    write("m2_T", {part: "m2_%s.json" % part for part in ("A", "M", "B")})
    inst = {}
    for name in ("product_regular", "left_scalar_product"):
        directory = os.path.join(work, name)
        os.makedirs(directory, exist_ok=True)
        tri = catalog[name]()
        tio._dump_json(tio.triangular_to_json(tri), os.path.join(directory, "T.json"))
        tio._dump_json(tri.total.identity_map().to_json(), os.path.join(directory, "sigma1.json"))
        if name == "left_scalar_product":  # its commuting basis map 5 is not proper: mu1(1) leaves pi_B(Z)
            theta = spaces.solve_space("sigma_commuting", tri, tri.total.identity_map()).basis_maps()[5]
            tio._dump_json(theta.to_json(), os.path.join(directory, "theta1.json"))
        inst[name] = prepare_instance(directory)
    validate = [["validate", paths[name]] for name in ("non_associative", "unit_law", "q3_rebased", "prime_53",
                                                        "prime_1", "prime_2021")]
    argvs = validate + [
        ["validate", os.path.join(work, "not_utf8.json")], ["radical", paths["ut2_f2"]],
        ["triangular", "build", paths["by_name_T"]], ["partible", paths["flip_T"], "--sigma", paths["flip_sigma"]],
        ["endo", "classify", f1["T"], "--map", f1["theta"]],
        ["endo", "classify", f1["T"], "--map", paths["f1_bumped_identity"]],
        ["partible", f1["T"], "--sigma", f1["theta"]],
        ["split-biderivation", f1["T"], "--sigma", f1["sigma"], "--bid", paths["f1_bumped_bid"]],
        ["split-biderivation", f4["T"], "--sigma", f4["sigma"], "--bid", paths["f4_bumped_bid"]],
        ["endo", "classify", paths["regular_T"], "--map", paths["regular_kill_m"]],
        ["partible", paths["regular_T"], "--sigma", paths["regular_kill_m"]],
        ["partible", paths["m2_T"]],
        ["inner-witness", inst["product_regular"]["T"], "--sigma", inst["product_regular"]["sigma"],
         "--bid", inst["product_regular"]["D0"]],
        ["properness", inst["left_scalar_product"]["T"], "--sigma", inst["left_scalar_product"]["sigma"],
         "--map", inst["left_scalar_product"]["theta"]],
    ]
    budget_argvs = [["partible", f4["T"]], ["inner-witness", f4["T"], "--sigma", f4["sigma"], "--bid", f4["D0"]],
                    ["partible", paths["regular_f2_T"]]]
    return argvs, budget_argvs


def run_ladder(tracer):
    with tracer.on(), quiet():
        ladder = runpy.run_path(os.path.join(ROOT, "tools", "ladder.py"))
        ladder["main"](["--max-dim", "18", "--repeats", "1", "--min-seconds", "0"])


def run_perfbench(tracer):
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    with tracer.on(), quiet():
        run = importlib.import_module("run")
        for make in run.WORKLOADS.values():
            g, jobs, loads = make(1)
            prog = run.setup(loads)
            first = {}
            for job in jobs:
                first.setdefault(job.key, (job,) + tuple(job.run(prog)))
            run.rowgen_profile(prog, first)


def library_only_calls() -> list:
    """(function, args) for each LIBRARY_ONLY entry, in its order."""
    mod = {name: importlib.import_module("trialg." + name)
           for name in ("classify", "exactla", "fixtures", "randomgen", "spaces", "structure")}
    f1 = mod["fixtures"].fixture_f1()
    sigma = mod["fixtures"].sigma1(f1)
    blocks = mod["structure"].block_decompose(f1, sigma)
    d = mod["spaces"].solve_space("sigma_derivation", f1, sigma).basis_maps()[0]
    args = {
        "classify.inner_sigma_derivation": (f1, f1.p, sigma),
        "classify.inner_sigma_biderivation": (f1, mod["fixtures"].lambda1(f1), sigma),
        "classify.sigma_derivation_blocks": (f1, d, blocks),
        "classify.properness_sufficiency": (f1, blocks),
        "exactla.Subspace.from_vectors": (mod["exactla"].QQ, 2, [[1, 2]]),
        "fixtures.ut2_tensor_flip": (),
        "randomgen.random_faithful_instances": (mod["exactla"].GF(5), 1, 1),
        "randomgen.random_instances": (mod["exactla"].GF(5), 1, 1),
    }
    calls = []
    for name in LIBRARY_ONLY:
        module, *attrs = name.split(".")
        fn = mod[module]
        for attr in attrs:
            fn = getattr(fn, attr)
        calls.append((fn, args[name]))
    return calls


def file_census(source: str, module: str, programs: set, everything: set) -> tuple:
    """(body lines, definitions, unreached) of one source file, given the
    lines that the programs ran (programs) and that they and the LIBRARY_ONLY
    calls ran (everything).  definitions lists (module.qualname, first line,
    last line, by), by being "programs", "library_only" or None; unreached
    maps each body line no program runs to (module.qualname, exemption), the
    exemption "raise", "library_only", "exempt" or None."""
    tree = ast.parse(source)
    body, raises = body_lines(tree, module), raise_lines(tree)
    defs, owner = [], {}
    for qualname, first, last in definitions(tree):
        name = module + "." + qualname
        mine = {line for line in body if first <= line <= last}
        by = "programs" if mine & programs else "library_only" if mine & everything else None
        owner.update(dict.fromkeys(mine, (name, by == "library_only")))
        defs.append((name, first, last, by))
    unreached = {}
    for line in sorted(body - programs):
        name, library_only = owner.get(line, (module + ".<module>", False))
        if line in raises:
            exempt = "raise"
        elif line in everything or name in LIBRARY_ONLY or library_only:
            exempt = "library_only"
        else:
            exempt = "exempt" if name in EXEMPT else None
        unreached[line] = (name, exempt)
    return body, defs, unreached


def census(by_programs: dict, by_all: dict) -> dict:
    """The report of the lines run by the programs (by_programs) and by
    programs and LIBRARY_ONLY calls together (by_all), both {path: lines}."""
    out = {"reached": [], "unreached": []}
    unreached, counts = [], dict.fromkeys(("raise", "library_only", "exempt"), 0)
    body_count = reached_count = 0
    for path in sorted(by_all):
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        module, rel = os.path.basename(path)[:-3], os.path.relpath(path, ROOT)
        body, defs, lines = file_census(source, module, by_programs[path], by_all[path])
        for name, first, last, by in defs:
            entry = {"where": "%s:%d" % (rel, first), "qualname": name.split(".", 1)[1], "lines": last - first + 1}
            out["reached" if by else "unreached"].append(dict(entry, by=by) if by else entry)
        body_count += len(body)
        reached_count += len(body) - len(lines)
        for line, (name, exempt) in lines.items():
            if exempt:
                counts[exempt] += 1
            unreached.append({"where": "%s:%d" % (rel, line), "qualname": name, "exempt": exempt})
    stale = sorted(set(EXEMPT) - {entry["qualname"] for entry in unreached if entry["exempt"] == "exempt"})
    return dict(out, lines={"body": body_count, "reached": reached_count, "exempt": counts,
                            "unreached": unreached, "stale_exempt": stale})


def main() -> int:
    started = time.perf_counter()
    sys.path.insert(0, SRC)
    tracer = Tracer(sorted(glob.glob(os.path.join(SRC, "trialg", "*.py"))))
    work = os.path.abspath("reach-inputs")
    run_demos_and_tour(tracer)
    if os.path.dirname(sys.modules["trialg"].__file__) != os.path.join(SRC, "trialg"):
        raise SystemExit("reach.py: trialg was not imported from %s" % SRC)
    run_cli(tracer, work)
    run_ladder(tracer)
    run_perfbench(tracer)
    by_programs = tracer.snapshot()
    calls = library_only_calls()
    with tracer.on():
        for fn, args in calls:
            fn(*args)
    report = census(by_programs, tracer.lines)
    report["seconds"] = round(time.perf_counter() - started, 1)
    json.dump(report, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
