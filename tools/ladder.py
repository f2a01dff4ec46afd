"""North-star ladder: unverified and verified solve times of the three twisted
kinds, and the time to emit each solved space, one JSON object on stdout.

    python tools/ladder.py                  # every rung up to dim 45
    python tools/ladder.py --max-dim 135    # also UT_6 to UT_9 (dims 63, 84, 108, 135)
    python tools/ladder.py --max-dim 18 --repeats 1 --min-seconds 0

The rungs are F1, F2, F3 over Q, F1, F2, F4 over F_5 (F4 is F3 over F_5), and
the regular Trian(UT_k, UT_k, UT_k) for k = 2..9 (dims 9, 18, 30, 45, 63, 84,
108, 135) over Q and over F_5, each with its fixture twist (sigma2 on F2, the corner
negation sigma1 on the triangular algebras).  For every rung and kind the
script times solve_space(kind, T, sigma, verify=False) and verify=True, each
on a fresh instance (so no cached automorphism verdict or map data carries
over), and the report layer, io.canonical_json(space.to_json()), on each
verified space; it reports the best time of each.  In one more, untimed pass
it streams the last verified space's report, io.canonical_pieces of
space.to_json(), into a sha256 under tracemalloc and reports the peak as
emit_peak_mb; that digest must equal basis_sha256, else the script exits
with status 1.  Each solve mode runs at
least --repeats solves and goes on until its solves add up to --min-seconds
(at most 200 solves), so that the sub-millisecond rungs are sampled as well
as the large ones.  Both modes must return the same basis; a mismatch exits
with status 1.  Each row carries basis_sha256, the sha256 of the emitted
report of the verified space, so that two runs (say on two versions of src/)
can be compared for identical bases row by row, and generators, the size of
the generating set on whose pairs the derivation rule is imposed and checked
(FinAlgebra.generators; 5k - 2 on the regular Trian(UT_k, UT_k, UT_k)).
Each sigma_derivation and sigma_commuting row also carries rows and row_nnz,
the number of rows that spaces._derivation_rows or _commuting_rows yields
for the solve and their nonzero entries, and forced and core_rows, what the
peel of the reduce (exactla._peel) makes of those rows: the columns it
forces to zero and the rows, repeats included, it leaves to Gauss-Jordan.
They are counted on a fresh instance at the twist the solve resolves
(sigmamaps.map_twist), outside the timed solves.

Each sigma_biderivation row of a triangular rung (every rung but F2) also
times the theorem layer: extremal_split of each basis map of the verified
space, then inner_biderivation_witness on its residual.  It runs --repeats
passes, each on a fresh (T, sigma) and its freshly solved verified space
(the solve untimed), so that no pass reuses the twisted center and block
data that an earlier pass kept on its instance, and reports the best pass
(theorem_ms).  It carries theorem_sha256, the sha256 of their reports in
basis order, written as the split-biderivation and inner-witness commands
write them; every pass must give the same reports, else it is null and the
script exits with status 1.  The script imports trialg from src/ beside this
directory and uses only the standard library.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import sys
import time
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from trialg.algcore import TriAlgebra, build_triangular  # noqa: E402
from trialg.classify import extremal_split, inner_biderivation_witness  # noqa: E402
from trialg.exactla import GF, QQ, _peel  # noqa: E402
from trialg.fixtures import (  # noqa: E402
    fixture_f1,
    fixture_f2,
    fixture_f3,
    fixture_f4,
    sigma1,
    upper_triangular_algebra,
)
from trialg.io import canonical_json, canonical_pieces  # noqa: E402
from trialg.randomgen import regular_bimodule  # noqa: E402
from trialg.sigmamaps import map_twist  # noqa: E402
from trialg.spaces import _commuting_rows, _derivation_rows, solve_space  # noqa: E402

KINDS = ("sigma_derivation", "sigma_commuting", "sigma_biderivation")
MAX_SOLVES = 200


def _triangular(make):
    def build():
        tri = make()
        return tri, sigma1(tri)
    return build


def _regular(field, k):
    def make():
        ut = upper_triangular_algebra(field, k)
        return build_triangular(ut, regular_bimodule(ut), upper_triangular_algebra(field, k))
    return _triangular(make)


def rungs(max_dim: int):
    """(name, field name, dim, build) per rung; build() makes a fresh (T, sigma)."""
    out = []
    for fname, field in (("Q", QQ), ("F_5", GF(5))):
        fixtures = [("F1", _triangular(lambda f=field: fixture_f1(f))),
                    ("F2", lambda f=field: fixture_f2(f))]
        if field is QQ:
            fixtures.append(("F3", _triangular(fixture_f3)))
        else:
            fixtures.append(("F4", _triangular(fixture_f4)))
        for name, build in fixtures:
            t, _ = build()
            out.append((name, fname, t.dim, build))
        for k in range(2, 10):
            dim = 3 * k * (k + 1) // 2
            out.append(("UT_%d" % k, fname, dim, _regular(field, k)))
    return [r for r in out if r[2] <= max_dim]


def _timed(fn):
    gc.collect()
    start = time.perf_counter()
    out = fn()
    return time.perf_counter() - start, out


def emit_peak(space):
    """(MB, sha256): the tracemalloc peak of streaming the report of space,
    built beforehand, into a sha256, and that digest."""
    report = space.to_json()
    digest = hashlib.sha256()
    tracemalloc.start()
    try:
        for piece in canonical_pieces(report):
            digest.update(piece.encode())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2 ** 20, digest.hexdigest()


def measure(kind, build, repeats, min_seconds):
    """(unverified s, verified s, emit s, same basis, space dim, rounds, the
    sha256 of the emitted verified space, the last verified space)."""
    best = {False: float("inf"), True: float("inf"), "emit": float("inf")}
    spent = {False: 0.0, True: 0.0}
    bases = {}
    digest = None
    r = 0
    while r < repeats or (min(spent.values()) < min_seconds and r < MAX_SOLVES):
        for verify in ((False, True) if r % 2 == 0 else (True, False)):
            t, sigma = build()
            sec, space = _timed(lambda: solve_space(kind, t, sigma, verify=verify))
            best[verify] = min(best[verify], sec)
            spent[verify] += sec
            bases[verify] = space.subspace
            if verify:
                sec, text = _timed(lambda: canonical_json(space.to_json()))
                best["emit"] = min(best["emit"], sec)
                digest = hashlib.sha256(text.encode()).hexdigest()
                last = space
        r += 1
    return (best[False], best[True], best["emit"], bases[False] == bases[True], bases[True].dim, r, digest,
            last)


def row_counts(kind, build):
    """(rows, nonzero entries, forced columns, core rows) of the rows the
    solve of a linear kind reduces, on a fresh (T, sigma) from build(); the
    last two as exactla._peel finds them."""
    t, sigma = build()
    alg = getattr(t, "total", t)
    make = _derivation_rows if kind == "sigma_derivation" else _commuting_rows
    rows = list(make(alg, map_twist(kind, alg, sigma)))
    forced, core = _peel(rows)
    return len(rows), sum(map(len, rows)), len(forced), len(core)


def theorem_layer(build, repeats):
    """(s, sha256): the best of repeats timings of extremal_split on every
    basis map of a verified sigma-biderivation space plus
    inner_biderivation_witness on its residual, each pass on a fresh
    (T, sigma) from build() and its verified space, solved untimed; and the
    sha256 of their reports in basis order, None when passes differ."""
    sec, digests = float("inf"), set()
    for _ in range(repeats):
        tri, sigma = build()
        maps = solve_space("sigma_biderivation", tri, sigma).basis_maps()
        took, results = _timed(lambda: [(split, inner_biderivation_witness(tri, split.residual, sigma))
                                        for split in (extremal_split(tri, D, sigma) for D in maps)])
        sec = min(sec, took)
        reports = [{**split.to_json(), "witness": None if w is None else w.to_json(tri.field)}
                   for split, w in results]
        digests.add(hashlib.sha256(canonical_json(reports).encode()).hexdigest())
    return sec, digests.pop() if len(digests) == 1 else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--max-dim", type=int, default=45, help="skip rungs above this dim")
    ap.add_argument("--repeats", type=int, default=3, help="least number of timed solves per rung and mode")
    ap.add_argument("--min-seconds", type=float, default=0.2,
                    help="least total solve time per rung and mode")
    args = ap.parse_args(argv)
    rows = []
    ok = True
    for name, fname, dim, build in rungs(args.max_dim):
        t, _ = build()
        generators = len(getattr(t, "total", t).generators())
        for kind in KINDS:
            unverified, verified, emit, same, space_dim, solves, digest, space = measure(
                kind, build, args.repeats, args.min_seconds)
            peak, streamed = emit_peak(space)
            ok = ok and same and streamed == digest
            row = {"rung": name, "field": fname, "dim": dim, "kind": kind,
                   "space_dim": space_dim, "generators": generators, "same_basis": same,
                   "solves": solves,
                   "unverified_ms": round(unverified * 1e3, 2),
                   "verified_ms": round(verified * 1e3, 2),
                   "ratio": round(verified / unverified, 2),
                   "emit_ms": round(emit * 1e3, 2), "emit_peak_mb": round(peak, 2), "basis_sha256": digest}
            theorem = ""
            if kind != "sigma_biderivation":
                row["rows"], row["row_nnz"], row["forced"], row["core_rows"] = row_counts(kind, build)
            elif isinstance(t, TriAlgebra):
                sec, row["theorem_sha256"] = theorem_layer(build, args.repeats)
                ok = ok and row["theorem_sha256"] is not None
                row["theorem_ms"] = round(sec * 1e3, 2)
                theorem = "  theorem %8.2f ms" % row["theorem_ms"]
            rows.append(row)
            sys.stderr.write("%-5s %-3s dim %2d %-18s %9.2f %9.2f ms  x%.2f  emit %8.2f ms%s%s%s\n"
                             % (name, fname, dim, kind, unverified * 1e3, verified * 1e3,
                                verified / unverified, emit * 1e3, theorem, "" if same else "  BASES DIFFER",
                                "" if streamed == digest else "  STREAM DIFFERS"))
    json.dump({"python": platform.python_version(), "machine": platform.machine(),
               "protocol": "best of at least %d solves per rung and mode, continued until "
                           "they add up to %g s (at most %d), fresh instance per solve, "
                           "gc.collect() before each; emit_ms is the best time of "
                           "io.canonical_json(space.to_json()) over the verified spaces; "
                           "emit_peak_mb is the tracemalloc peak, in MiB, of streaming "
                           "io.canonical_pieces(space.to_json()) of the last verified space into a "
                           "sha256, the report built beforehand, in an untimed pass; "
                           "theorem_ms is the best of %d timings of the theorem layer on the "
                           "verified sigma_biderivation space of a triangular rung, each on a fresh "
                           "instance and space, solved untimed; rows and row_nnz count the rows "
                           "spaces._derivation_rows or _commuting_rows yields for a sigma_derivation "
                           "or sigma_commuting solve and their nonzero entries, and forced and "
                           "core_rows the columns exactla._peel forces and the rows it keeps for "
                           "elimination, on a fresh instance, untimed"
                           % (args.repeats, args.min_seconds, MAX_SOLVES, args.repeats),
               "all_bases_identical": ok, "rungs": rows}, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
