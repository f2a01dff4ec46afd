#!/usr/bin/env python3
"""trialg benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload solve-q-std --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; it imports trialg from ``src/``.  It
writes the seeded inputs, times the set-up, runs whole rounds of the
workload's fixed job list in this one process until ``--seconds`` have
passed, checks every output with the independent checker, and prints one
JSON object as the last line of stdout.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` wraps the program's layers, reports the
per-layer metrics and writes spans and counters to
``perfbench/_work/trace-<workload>-<seed>.json``.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import random
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join("perfbench", "_work")
SETUP_REPEATS = 9
BILINEAR_CAP = 9


class Job:
    """One operation of a round: a CLI argv run through ``cli.main``, or a
    direct ``solve_space`` call on loaded files."""

    def __init__(self, key, argv=None, solve=None, malformed=False):
        self.key = key
        self.argv = argv
        self.solve = solve  # (kind, T path, sigma path) for direct solves
        self.malformed = malformed

    def run(self, prog):
        if self.solve is not None:
            kind, t_path, s_path = self.solve
            tri = prog.io.load_triangular(t_path)
            sigma = prog.io.load_linmap(s_path, tri.field)
            space = prog.spaces.solve_space(kind, tri, sigma, bilinear_dim_cap=BILINEAR_CAP)
            return 0, prog.io.canonical_json(space.to_json()) + "\n"
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = prog.cli.main(self.argv)
        except Exception as exc:  # an escaped traceback is an outcome to count
            code = "escaped %s" % type(exc).__name__
        return code, out.getvalue()

    def outcome_ok(self, code, text):
        """Exit 0 with one JSON object; a malformed input must exit 1 with
        exactly one JSON error object."""
        import check

        try:
            obj = check.one_json(text)
        except check.CheckFailed:
            return False
        if self.malformed:
            return code == 1 and "error" in obj
        return code == 0


class Prog:
    """The trialg modules the jobs call, imported fresh by ``setup``."""

    def __init__(self):
        self.cli = importlib.import_module("trialg.cli")
        self.io = importlib.import_module("trialg.io")
        self.spaces = importlib.import_module("trialg.spaces")


def purge_trialg():
    for name in [m for m in sys.modules if m == "trialg" or m.startswith("trialg.")]:
        del sys.modules[name]


def setup(loads):
    """Cold set-up: import trialg and load each distinct input once."""
    purge_trialg()
    prog = Prog()
    tris = {}
    for kind, path, tri_path in loads:
        if kind == "triangular":
            tris[path] = prog.io.load_triangular(path)
        elif kind == "algebra":
            prog.io.load_algebra(path)
        else:
            load = prog.io.load_linmap if kind == "linmap" else prog.io.load_bilinmap
            load(path, tris[tri_path].field)
    return prog


# -- workloads ----------------------------------------------------------------


def solve_q_std(seed):
    import gen

    g = gen.gen_solve_q_std(os.path.join(WORK, "solve-q-std-%d" % seed), seed)
    jobs = []
    for s in g["sigmas"]:
        for kind in ("sigma_derivation", "sigma_commuting"):
            jobs.append(Job((kind, s), argv=["solve", kind, g["T"], "--sigma", s]))
    loads = [("triangular", g["T"], None)] + [("linmap", s, g["T"]) for s in g["sigmas"]]
    return g, jobs, loads


def elim_q_rebased(seed):
    import gen

    g = gen.gen_elim_q_rebased(os.path.join(WORK, "elim-q-rebased-%d" % seed), seed)
    jobs = [Job(("bid", s["sigma"]), solve=("sigma_biderivation", g["T"], s["sigma"]))
            for s in g["sets"]]
    loads = [("triangular", g["T"], None)] + [("linmap", s["sigma"], g["T"]) for s in g["sets"]]
    return g, jobs, loads


MALFORMED = {
    # a negative tensor index, accepted today and silently wrapped around
    "bad_negative_index.json": {"field": {"kind": "rational"}, "dim": 1, "basis": ["1"],
                                "unit": ["1"], "mul": [[-1, -1, -1, "1"]]},
    # a float index, which escapes today as a TypeError traceback
    "bad_float_index.json": {"field": {"kind": "rational"}, "dim": 1, "basis": ["1"],
                             "unit": ["1"], "mul": [[0.5, 0, 0, "1"]]},
    # a non-numeric prime, which escapes today as a ValueError traceback
    "bad_prime.json": {"field": {"kind": "prime", "p": "five"}, "dim": 1, "basis": ["1"],
                       "unit": ["1"], "mul": [[0, 0, 0, "1"]]},
}


def catalog_argvs(inst):
    T, s, A = inst["T"], inst["sigma"], inst["A"]
    argvs = [["validate", A], ["radical", A], ["triangular", "build", T], ["center", T],
             ["sigma-center", T, "--sigma", s], ["nil-radical", T]]
    argvs += [["solve", kind, T] for kind in ("derivation", "biderivation")]
    argvs += [["solve", kind, T, "--sigma", s]
              for kind in ("sigma_derivation", "sigma_commuting", "sigma_biderivation")]
    argvs += [["split-biderivation", T, "--sigma", s, "--bid", inst["D"]],
              ["inner-witness", T, "--sigma", s, "--bid", inst["D0"]],
              ["endo", "classify", T, "--map", s],
              ["partible", T, "--sigma", s], ["partible", T]]
    if inst["faithful"]:
        argvs += [["commuting-blocks", T, "--sigma", s, "--map", inst["theta"]],
                  ["properness", T, "--sigma", s, "--map", inst["theta"]]]
    return argvs


def cli_catalog(seed):
    import gen

    out = os.path.join(WORK, "cli-catalog-%d" % seed)
    g = gen.gen_cli_catalog(out, seed)
    argvs = []
    for inst in g["instances"]:
        argvs += catalog_argvs(inst)
    f2 = os.path.join(g["F2"], "A.json")
    argvs += [["validate", f2], ["radical", f2]]
    argvs += [["fixtures", "emit", name, os.path.join(out, "emit", name)]
              for name in ("F1", "F2", "F3", "F4")]
    jobs = [Job(tuple(a), argv=a) for a in argvs]
    for name, obj in MALFORMED.items():
        path = gen._write(os.path.join(out, name), obj)
        jobs.append(Job(("malformed", name), argv=["validate", path], malformed=True))
    loads = [("algebra", f2, None)]
    for inst in g["instances"]:
        loads += [("triangular", inst["T"], None), ("algebra", inst["A"], None),
                  ("linmap", inst["sigma"], inst["T"]), ("linmap", inst["theta"], inst["T"]),
                  ("bilinmap", inst["D"], inst["T"]), ("bilinmap", inst["D0"], inst["T"])]
    return g, jobs, loads


WORKLOADS = {"solve-q-std": solve_q_std, "elim-q-rebased": elim_q_rebased,
             "cli-catalog": cli_catalog}


# -- checks -------------------------------------------------------------------


def check_outputs(workload, g, first, seed):
    """Independent checks of each distinct job's first output (later repeats
    were compared byte for byte during the run)."""
    import arith
    import check

    rng = random.Random("check:%s:%d" % (workload, seed))
    if workload == "solve-q-std":
        tri = arith.Trian.load(g["T"])
        for (kind, s_path), (job, code, text) in first.items():
            report = check.one_json(text)
            check.check_cli_report(job.argv, report, rng, {})
            sig = arith.read_matrix(tri.F, arith.read_json(s_path))
            check.check_complete(kind, tri, sig, report["result"]["space"])
    elif workload == "elim-q-rebased":
        prog = Prog()
        tri = arith.Trian.load(g["T"])
        T_std = prog.io.load_triangular(g["T_std"])
        for s in g["sets"]:
            job, code, text = first[("bid", s["sigma"])]
            sp = check.one_json(text)
            sig = arith.read_matrix(tri.F, arith.read_json(s["sigma"]))
            check.check_space("sigma_biderivation", tri, sig, sp, rng)
            # the same algebra and automorphism in the standard basis
            sig_std = prog.io.load_linmap(s["std_sigma"], T_std.field)
            std_dim = prog.spaces.solve_space("sigma_biderivation", T_std, sig_std,
                                              bilinear_dim_cap=BILINEAR_CAP, verify=False).dim
            check.require(sp["dim"] == std_dim, "basis change moved the dim from %d to %d"
                          % (std_dim, sp["dim"]))
    else:
        ctx = {}
        for key, (job, code, text) in first.items():
            if job.malformed:
                continue
            check.check_cli_report(job.argv, check.one_json(text), rng, ctx)
        check.catalog_invariants(ctx, g["instances"])


# -- per-layer metrics ----------------------------------------------------------


def rowgen_profile(prog, first):
    """Row generation and elimination of each distinct solve, measured apart:
    rows come from the ``spaces._*_rows`` generators, reduce time is
    ``kernel_sparse`` on the materialized unique rows, and row-generation time
    is ``solve_space(..., verify=False)`` minus that."""
    sp = prog.spaces
    LinMap = importlib.import_module("trialg.sigmamaps").LinMap
    exactla = importlib.import_module("trialg.exactla")
    out = []
    for job, code, text in first.values():
        if job.solve is not None:
            kind, t_path, s_path = job.solve
        elif job.argv[0] == "solve":
            kind, t_path = job.argv[1], job.argv[2]
            s_path = job.argv[4] if len(job.argv) > 4 else None
        else:
            continue
        tri = prog.io.load_triangular(t_path)
        alg = tri.total
        n = alg.dim
        sigma = (prog.io.load_linmap(s_path, tri.field) if s_path
                 else LinMap.identity(tri.field, n))
        if "biderivation" in kind:
            gen_rows, ncols = sp._biderivation_rows, n ** 3
        elif "derivation" in kind:
            gen_rows, ncols = sp._derivation_rows, n ** 2
        else:
            gen_rows, ncols = sp._commuting_rows, n ** 2
        t0 = time.perf_counter()
        sp.solve_space(kind, tri, sigma if s_path else None, bilinear_dim_cap=BILINEAR_CAP,
                       verify=False)
        t_solve = time.perf_counter() - t0
        rows = list(gen_rows(alg, sigma))
        unique = list(sp._dedup_rows(rows))
        t0 = time.perf_counter()
        sub = exactla.kernel_sparse(tri.field, unique, ncols)
        t_kernel = time.perf_counter() - t0
        # Fractions over Q, ints (numerator = the residue) over F_p
        bits = max((max(abs(v.numerator).bit_length(), v.denominator.bit_length())
                    for vec in sub.basis for v in vec), default=0)
        out.append({"kind": kind, "rows_generated": len(rows), "rows_unique": len(unique),
                    "unknowns": ncols, "pivots": ncols - sub.dim,
                    "row_nnz": sum(len(r) for r in unique), "max_bits": bits,
                    "rowgen_ms": (t_solve - t_kernel) * 1e3, "reduce_ms": t_kernel * 1e3})
    return out


def layer_metrics(tracer, counts, round_jobs, jobs_total, first_out, profile):
    """Per-layer metrics: times are self milliseconds per job over the whole
    traced run, counts are per job of the first round (they repeat exactly)."""
    def per(layer):
        return counts.get(layer, 0) / round_jobs

    def prof(key):  # mean over the distinct solves
        return sum(p[key] for p in profile) / len(profile) if profile else 0

    m = {
        "io.parse_ms": (tracer.ms("io.parse") / jobs_total, "ms"),
        "io.input_bytes": (counts["input_bytes"] / round_jobs, "bytes"),
        "algcore.build_ms": (tracer.ms("algcore.build") / jobs_total, "ms"),
        "sigmamaps.aut_checks": (per("sigmamaps.aut_check"), "count"),
        "sigmamaps.aut_check_ms": (tracer.ms("sigmamaps.aut_check") / jobs_total, "ms"),
        "sigmamaps.maps_verified": (per("sigmamaps.verify"), "count"),
        "sigmamaps.verify_ms": (tracer.ms("sigmamaps.verify") / jobs_total, "ms"),
        "spaces.rows_generated": (prof("rows_generated"), "count"),
        "spaces.rows_unique": (prof("rows_unique"), "count"),
        "spaces.rowgen_ms": (prof("rowgen_ms"), "ms"),
        "exactla.unknowns": (prof("unknowns"), "count"),
        "exactla.pivots": (prof("pivots"), "count"),
        "exactla.row_nnz": (prof("row_nnz"), "count"),
        "exactla.max_bits": (max((p["max_bits"] for p in profile), default=0), "bits"),
        "exactla.reduce_ms": (prof("reduce_ms"), "ms"),
        "cli.emit_ms": (tracer.ms("cli.emit", "cli.emit.json") / jobs_total, "ms"),
        "cli.output_bytes": (sum(len(t) for _, _, t in first_out) / round_jobs, "bytes"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


# -- main ---------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "trialg", "__init__.py")):
        sys.stderr.write("perfbench: no trialg sources under %s; run it in a checkout "
                         "of the repository\n" % SRC)
        return 2
    os.chdir(ROOT)
    sys.path[:0] = [SRC, HERE]

    g, jobs, loads = WORKLOADS[args.workload](args.seed)
    print("inputs %s seed %d digest %s" % (args.workload, args.seed, g["digest"]))

    import speed

    sampler = speed.Sampler()
    with sampler:
        timer = speed.Timer(sampler)
        for _ in range(SETUP_REPEATS):
            started = timer.start()
            prog = setup(loads)
            timer.stop("setup", started)
    setups = [sec for _, sec in timer.settle()]

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    first = {}
    lat = {job.key: [] for job in jobs}
    counts = None
    mismatched = []
    attempted = failed = 0
    unexpected = []
    sampler = speed.Sampler(tracer=tracer)
    timer = speed.Timer(sampler)
    t_start = time.perf_counter()
    with sampler:
        while True:
            for job in jobs:
                started = timer.start()
                code, text = job.run(prog)
                timer.stop(job.key, started)
                attempted += 1
                if not job.outcome_ok(code, text):
                    failed += 1
                    if not job.malformed:
                        unexpected.append((job.key, code, text[:200]))
                if job.key not in first:
                    first[job.key] = (job, code, text)
                elif first[job.key][2] != text:
                    mismatched.append(job.key)
            if tracer is not None and counts is None:
                counts = dict(tracer.calls, input_bytes=tracer.input_bytes)
                spans = tracer.spans
                tracer.spans = None
            if time.perf_counter() - t_start >= args.seconds:
                break
    wall = time.perf_counter() - t_start
    busy = 0.0  # job time at the reference speed
    for key, sec in timer.settle():
        lat[key].append(sec)
        busy += sec
    speeds = timer.speeds()
    print("raw wall %.3f s for %d jobs; machine speed / reference: median %.3f, range %.3f-%.3f"
          % (wall, attempted, statistics.median(speeds), min(speeds), max(speeds)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    correct = not unexpected and not mismatched
    for key, code, text in unexpected[:3]:
        sys.stderr.write("unexpected outcome of %r: %r %r\n" % (key, code, text))
    for key in mismatched[:3]:
        sys.stderr.write("output of %r differs between repeats\n" % (key,))
    import check

    try:
        check_outputs(args.workload, g, first, args.seed)
    except check.CheckFailed as exc:
        correct = False
        sys.stderr.write("check failed: %s\n" % exc)

    if args.trace:
        profile = rowgen_profile(prog, first)
        metrics = layer_metrics(tracer, counts, len(jobs), attempted,
                                first.values(), profile)
        path = os.path.join(WORK, "trace-%s-%d.json" % (args.workload, args.seed))
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "jobs": attempted,
                       "wall_s": wall, "jobs_per_s": attempted / busy,
                       "self_ms": {k: v / 1e6 for k, v in sorted(tracer.self_ns.items())},
                       "calls": tracer.calls, "first_round_counts": counts,
                       "rowgen_profile": profile, "first_round_spans": spans}, fh)
        sys.stderr.write("traced jobs_per_s %.4f; trace written to %s\n"
                         % (attempted / busy, path))
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "jobs_per_s": {"value": attempted / busy, "unit": "1/s"},
            # the median over the round's jobs of each job's median latency: a
            # pooled median of a mix of slow and fast job kinds would fall in
            # the gap between them
            "job_p50_ms": {"value": statistics.median(statistics.median(v) for v in lat.values())
                           * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
