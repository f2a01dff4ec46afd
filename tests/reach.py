#!/usr/bin/env python3
"""Reach census of src/trialg: which of its functions and methods the
programs run, as one JSON object on stdout.

    python tests/reach.py

In this one process, with sys.setprofile recording every Python function
entered, it runs the programs:

- the demos and README's Quick tour;
- perfbench's three WORKLOADS at seed 1: its input generator, run.setup, one
  round of Job.run and rowgen_profile;
- tools/ladder.py --max-dim 18 --repeats 1 --min-seconds 0;
- cli.main on every row of cli.COMMANDS over the emitted F1 and F4 (ARGVS),
  validate and radical on F2, one usage error and one unreadable file;

and then one call of each LIBRARY_ONLY definition.  It writes its inputs
under the current directory (perfbench's under perfbench/_work there), so
run it in a scratch directory.  The script is not a program: the inputs it
prepares itself (an algebra file of T's corner A, a biderivation D and the
residual D0 of its extremal split, F4's commuting map) and the arguments of
the LIBRARY_ONLY calls are made with the profiler off.

"reached" and "unreached" list every module-level function and method of
src/trialg, dunder methods and nested functions aside, each with "where"
(the file and line of its def), "qualname" and "lines" (its length).  A
reached one has "by": "programs", or "library_only" when only the
LIBRARY_ONLY calls reach it.  tests/test_cli.py asserts that only Field's
interface stubs are unreached.
"""

from __future__ import annotations

import ast
import contextlib
import glob
import importlib
import io
import json
import os
import runpy
import sys
import time

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


def definitions() -> dict:
    """{(path, first line of the code object): (qualname, lines)} of each
    module-level function and method of src/trialg but the dunders; a
    decorated function's code starts at its first decorator."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = {}
    for path in sorted(glob.glob(os.path.join(SRC, "trialg", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                defs = [(node.name + "." + sub.name, sub) for sub in node.body if isinstance(sub, kinds)]
            else:
                defs = [(node.name, node)] if isinstance(node, kinds) else []
            for qualname, fn in defs:
                if fn.name.startswith("__") and fn.name.endswith("__"):
                    continue
                first = min([fn.lineno] + [d.lineno for d in fn.decorator_list])
                found[(path, first)] = (qualname, fn.end_lineno - first + 1)
    return found


class Profiler:
    """The code objects entered while on() is active (no program starts a
    thread)."""

    def __init__(self):
        self.codes = {}

    @contextlib.contextmanager
    def on(self):
        codes = self.codes

        def profile(frame, event, arg):
            if event == "call":
                code = frame.f_code
                codes[id(code)] = code  # the value keeps the id from being reused

        sys.setprofile(profile)
        try:
            yield
        finally:
            sys.setprofile(None)

    def entered(self) -> set:
        return {(os.path.realpath(c.co_filename), c.co_firstlineno) for c in self.codes.values()}


def quiet():
    """Programs print; their stdout and stderr are dropped."""
    stack = contextlib.ExitStack()
    stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
    stack.enter_context(contextlib.redirect_stderr(io.StringIO()))
    return stack


def run_demos_and_tour(prof):
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        tour = fh.read().split("```python\n", 1)[1].split("```", 1)[0]
    with prof.on(), quiet():
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


def run_cli(prof, work):
    cli = importlib.import_module("trialg.cli")
    kinds = importlib.import_module("trialg.sigmamaps").MAP_KINDS
    missing = [row[0] for row in cli.COMMANDS if row[0] not in ARGVS]
    if missing:
        raise SystemExit("reach.py: no argv for the CLI commands %s" % missing)
    dirs = {name: os.path.join(work, name) for name in ("F1", "F2", "F4")}
    with prof.on(), quiet():
        for name, directory in dirs.items():
            cli.main(["fixtures", "emit", name, directory])
    argvs = []
    for name in ("F1", "F4"):
        paths = prepare_instance(dirs[name])
        for report, templates in ARGVS.items():
            for template in templates:
                for kind in (kinds if report == "solve {kind}" else [None]):
                    argv = [arg.format(kind=kind, **paths) for arg in template]
                    argvs.append(argv + ["--sigma", paths["sigma"]] if kind and kinds[kind].twisted else argv)
    f2 = os.path.join(dirs["F2"], "A.json")
    unreadable = os.path.join(work, "not_utf8.json")
    with open(unreadable, "wb") as fh:
        fh.write(b"\xff\xfe{}")
    argvs += [["validate", f2], ["radical", f2], ["no-such-command"], ["validate", unreadable]]
    with prof.on(), quiet():
        for argv in argvs:
            cli.main(argv)


def run_ladder(prof):
    with prof.on(), quiet():
        ladder = runpy.run_path(os.path.join(ROOT, "tools", "ladder.py"))
        ladder["main"](["--max-dim", "18", "--repeats", "1", "--min-seconds", "0"])


def run_perfbench(prof):
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    with prof.on(), quiet():
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


def census(defs, by_programs, by_all) -> dict:
    out = {"reached": [], "unreached": []}
    for (path, first), (qualname, lines) in sorted(defs.items()):
        entry = {"where": "%s:%d" % (os.path.relpath(path, ROOT), first), "qualname": qualname, "lines": lines}
        if (path, first) in by_all:
            entry["by"] = "programs" if (path, first) in by_programs else "library_only"
            out["reached"].append(entry)
        else:
            out["unreached"].append(entry)
    return out


def main() -> int:
    started = time.perf_counter()
    sys.path.insert(0, SRC)
    defs = {(os.path.realpath(path), first): v for (path, first), v in definitions().items()}
    prof = Profiler()
    work = os.path.abspath("reach-inputs")
    run_demos_and_tour(prof)
    run_cli(prof, work)
    run_ladder(prof)
    run_perfbench(prof)
    by_programs = prof.entered()
    calls = library_only_calls()
    with prof.on():
        for fn, args in calls:
            fn(*args)
    report = census(defs, by_programs, prof.entered())
    report["seconds"] = round(time.perf_counter() - started, 1)
    json.dump(report, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
