"""Seeded inputs for the three workloads, written as trialg JSON files.

The regular triangular algebras, their block-preserving automorphisms and the
block-preserving basis change are built here with the benchmark's own
arithmetic (``arith``).  The ``cli-catalog`` shapes come from trialg's
``randomgen.instance_catalog`` and the fixtures from ``io.emit_fixture``; the
twisted commuting map and the biderivation fed to the theorem-level commands
are basis maps of spaces solved by ``spaces.solve_space``, and the checker
re-verifies them independently.

Every input set is summarised by a SHA-256 digest over its files, so a drift
in the inputs shows in the benchmark's output.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from fractions import Fraction

import arith
from arith import QField

Q = QField()


def _write(path, obj):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return path


def digest(paths) -> str:
    h = hashlib.sha256()
    for p in sorted(paths):
        h.update(os.path.basename(p).encode())
        with open(p, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def _entries(F, table):
    return [[i, j, k, F.fmt(c)] for (i, j), ks in sorted(table.items()) for k, c in ks if F.norm(c)]


def ut_table(n):
    """Structure constants of UT_n on the matrix units E_ij, i <= j, lexicographic."""
    units = [(i, j) for i in range(n) for j in range(i, n)]
    index = {u: t for t, u in enumerate(units)}
    table = {}
    for a, (i, j) in enumerate(units):
        for b, (k, l) in enumerate(units):
            if j == k:
                table[(a, b)] = [(index[(i, l)], Fraction(1))]
    unit = [Fraction(1 if i == j else 0) for (i, j) in units]
    return len(units), table, unit


def regular_trian(n):
    """Trian(UT_n, UT_n, UT_n) with the regular bimodule, as dense pieces."""
    d, table, unit = ut_table(n)
    return {"A": (d, table, unit), "M": (d, table, table), "B": (d, table, unit)}


def _mat_table(F, d, table):
    """Dense tensor t[i][j] = vector from sparse structure constants."""
    t = [[[F.zero] * d for _ in range(d)] for _ in range(d)]
    for (i, j), ks in table.items():
        for k, c in ks:
            t[i][j][k] = F.norm(t[i][j][k] + c)
    return t


def _rebase_tensor(F, t, P_i, P_j, Pinv_k):
    """Tensor of (x, y) -> t(x, y) in the bases given by the columns of P_i, P_j,
    read back through Pinv_k."""
    di, dj = len(P_i), len(P_j)
    dk = len(Pinv_k)
    out = {}
    for a in range(di):
        for b in range(dj):
            v = [F.zero] * dk
            for s in range(di):
                if not P_i[s][a]:
                    continue
                for r in range(dj):
                    if not P_j[r][b]:
                        continue
                    c = P_i[s][a] * P_j[r][b]
                    for k, w in enumerate(t[s][r]):
                        if w:
                            v[k] += c * w
            img = arith.apply(F, Pinv_k, v)
            ks = [(k, c) for k, c in enumerate(img) if c]
            if ks:
                out[(a, b)] = ks
    return out


def unit_lu(d):
    """P = U L for the unit upper U and unit lower L with every off-diagonal
    entry 1; returns (P, P^-1).  det P = 1, so P is invertible over every field.

    The basis change is the same for every seed: seeded signs in U and L moved
    the cost of one rebased solve between 2.7 s and 6.2 s (see README)."""
    U = [[Fraction(1 if j >= i else 0) for j in range(d)] for i in range(d)]
    L = [[Fraction(1 if j <= i else 0) for j in range(d)] for i in range(d)]
    P = arith.matmul(Q, U, L)
    cols = [arith.solve(Q, P, [Fraction(int(i == j)) for i in range(d)]) for j in range(d)]
    Pinv = [list(r) for r in zip(*cols)]
    return P, Pinv


def trian_obj(F, pieces, bases=None):
    """JSON object of Trian(A, M, B) from sparse pieces, optionally rewritten
    in new block bases {'A': (P, Pinv), 'M': ..., 'B': ...}."""
    da, ta, ua = pieces["A"]
    dm, tl, tr = pieces["M"]
    db, tb, ub = pieces["B"]
    if bases is not None:
        (PA, PAi), (PM, PMi), (PB, PBi) = bases["A"], bases["M"], bases["B"]
        ta = _rebase_tensor(F, _mat_table(F, da, ta), PA, PA, PAi)
        tb = _rebase_tensor(F, _mat_table(F, db, tb), PB, PB, PBi)
        tl = _rebase_tensor(F, _mat_table(F, da, tl), PA, PM, PMi)
        tr = _rebase_tensor(F, _mat_table(F, dm, tr), PM, PB, PMi)
        ua = arith.apply(F, PAi, ua)
        ub = arith.apply(F, PBi, ub)

    def alg(d, t, u):
        return {"field": F.to_json(), "dim": d, "basis": ["e%d" % i for i in range(d)],
                "unit": [F.fmt(v) for v in u], "mul": _entries(F, t)}

    return {"A": alg(da, ta, ua), "B": alg(db, tb, ub),
            "M": {"field": F.to_json(), "dimA": da, "dimM": dm, "dimB": db,
                  "basis": ["m%d" % i for i in range(dm)],
                  "left": _entries(F, tl), "right": _entries(F, tr)}}


def _invertible(tri_alg, rng, coeff):
    """A random element with an invertible left multiplication."""
    F = tri_alg.F
    for _ in range(200):
        x = [F.norm(coeff()) for _ in range(tri_alg.dim)]
        if arith.rank(F, tri_alg.left_mat(x)) == tri_alg.dim:
            return x
    return list(tri_alg.unit)


def block_sigma(tri: arith.Trian, rng, coeff, corner_scale):
    """x -> u s(x) u^-1: conjugation by the diagonal unit u = a0 + b0 after the
    corner scaling s, which multiplies the M-part by c.  Image-in-columns."""
    F, T = tri.F, tri.T
    a0 = _invertible(tri.A, rng, coeff)
    b0 = _invertible(tri.B, rng, coeff)
    u = a0 + [F.zero] * tri.dm + b0
    u_inv = arith.solve(F, T.left_mat(u), T.unit)
    c = F.norm(corner_scale)
    cols = []
    for j in range(T.dim):
        x = T.e(j)
        if tri.da <= j < tri.da + tri.dm:
            x = arith.scale(F, c, x)
        cols.append(T.mul(T.mul(u, x), u_inv))
    return [list(r) for r in zip(*cols)]


def _matrix_obj(F, m):
    return {"convention": "image-in-columns", "matrix": [[F.fmt(v) for v in row] for row in m]}


def _q_coeff(rng):
    # unit-size coefficients keep the entry sizes of sigma, and so the cost of
    # a solve, about the same for every seed
    return lambda: Fraction(rng.choice((-1, 1)))


def _q_scale(rng):
    return Fraction(rng.choice((-2, 2)))


def gen_solve_q_std(out, seed, sigmas=4):
    """Regular Trian(UT_2, UT_2, UT_2) over Q, standard basis, with seeded
    block-preserving sigma_1 .. sigma_k."""
    rng = random.Random("solve-q-std:%d" % seed)
    t_path = _write(os.path.join(out, "T.json"), trian_obj(Q, regular_trian(2)))
    tri = arith.Trian.load(t_path)
    paths = [t_path]
    for s in range(sigmas):
        sig = block_sigma(tri, rng, _q_coeff(rng), _q_scale(rng))
        paths.append(_write(os.path.join(out, "sigma%d.json" % s), _matrix_obj(Q, sig)))
    return {"T": t_path, "sigmas": paths[1:], "digest": digest(paths)}


def gen_elim_q_rebased(out, seed, copies=4):
    """Regular Trian(UT_2, UT_2, UT_2) over Q rewritten in a dense block basis
    P, with seeded block-preserving automorphisms carried to it as P^-1 s P."""
    rng = random.Random("elim-q-rebased:%d" % seed)
    pieces = regular_trian(2)
    std = arith.Trian(trian_obj(Q, pieces))
    d = std.T.dim
    P = [[Fraction(0)] * d for _ in range(d)]
    Pinv = [[Fraction(0)] * d for _ in range(d)]
    bases = {}
    off = 0
    for k in ("A", "M", "B"):
        Pk, Pki = bases[k] = unit_lu(pieces[k][0])
        for i in range(len(Pk)):
            for j in range(len(Pk)):
                P[off + i][off + j] = Pk[i][j]
                Pinv[off + i][off + j] = Pki[i][j]
        off += len(Pk)
    t_path = _write(os.path.join(out, "T.json"), trian_obj(Q, pieces, bases))
    std_path = _write(os.path.join(out, "T_std.json"), trian_obj(Q, pieces))
    sets = []
    paths = [t_path, std_path]
    for c in range(copies):
        sig = block_sigma(std, rng, _q_coeff(rng), _q_scale(rng))
        sig_new = arith.matmul(Q, arith.matmul(Q, Pinv, sig), P)
        s_path = _write(os.path.join(out, "sigma%d.json" % c), _matrix_obj(Q, sig_new))
        std_sig = _write(os.path.join(out, "std_sigma%d.json" % c), _matrix_obj(Q, sig))
        sets.append({"sigma": s_path, "std_sigma": std_sig})
        paths += [s_path, std_sig]
    return {"T": t_path, "T_std": std_path, "sets": sets, "digest": digest(paths)}


def residual_biderivation(tri: arith.Trian, sig, D):
    """D minus the extremal part (x, y) -> [x, [y, x0]_s]_s at x0 = D(p, p),
    where [x, y]_s = s(x) y - y x.  It vanishes at (p, p)."""
    F, T = tri.F, tri.T
    n = T.dim
    x0 = arith.bilin(F, D, tri.p, tri.p)
    if not any(x0):
        return D

    def comm(x, y):
        return arith.sub(F, T.mul(arith.apply(F, sig, x), y), T.mul(y, x))

    inner = [comm(T.e(j), x0) for j in range(n)]
    return [[arith.sub(F, D[i][j], comm(T.e(i), inner[j])) for j in range(n)] for i in range(n)]


def _tensor_obj(F, t):
    n = len(t)
    return {"dim": n, "tensor": [[i, j, k, F.fmt(c)] for i in range(n) for j in range(n)
                                 for k, c in enumerate(t[i][j]) if c]}


def gen_cli_catalog(out, seed):
    """F1-F4 and every randomgen catalog shape over F_5, each with seeded sigma,
    theta (a basis map of the solved sigma-commuting space), D (a basis map of
    the solved sigma-biderivation space) and D0 (D minus its extremal part)."""
    from trialg import io as tio
    from trialg.exactla import GF
    from trialg.randomgen import instance_catalog
    from trialg.spaces import solve_space

    rng = random.Random("cli-catalog:%d" % seed)
    paths = []
    instances = []
    for name in ("F1", "F2", "F3", "F4"):
        written = tio.emit_fixture(name, os.path.join(out, name))
        paths += written
    shapes = [(name, make()) for name, make in instance_catalog(GF(5))]
    shapes = [(fx, None) for fx in ("F1", "F3", "F4")] + shapes
    for name, tri_prog in shapes:
        d = os.path.join(out, name)
        if tri_prog is None:
            t_path = os.path.join(d, "T.json")
            tri = arith.Trian.load(t_path)
            sig = arith.read_matrix(tri.F, arith.read_json(os.path.join(d, "sigma1.json")))
        else:
            t_path = _write(os.path.join(d, "T.json"), tio.triangular_to_json(tri_prog))
            tri = arith.Trian.load(t_path)
            sig = block_sigma(tri, rng, lambda: rng.randrange(5), rng.randrange(1, 5))
        F = tri.F
        a_path = _write(os.path.join(d, "A.json"), arith.read_json(t_path)["A"])
        s_path = _write(os.path.join(d, "sigma.json"), _matrix_obj(F, sig))
        T = tio.load_triangular(t_path)
        sigma = tio.load_linmap(s_path, T.field)
        comm = solve_space("sigma_commuting", T, sigma).basis_maps()
        bid = solve_space("sigma_biderivation", T, sigma).basis_maps()
        theta = comm[rng.randrange(len(comm))]
        D = bid[rng.randrange(len(bid))]
        th_path = _write(os.path.join(d, "theta.json"), theta.to_json())
        D_path = _write(os.path.join(d, "D.json"), D.to_json())
        Dt = arith.read_tensor(F, arith.read_json(D_path))
        D0_path = _write(os.path.join(d, "D0.json"),
                         _tensor_obj(F, residual_biderivation(tri, sig, Dt)))
        l, r = tri.faithful()
        instances.append({"name": name, "dir": d, "T": t_path, "A": a_path, "sigma": s_path,
                          "theta": th_path, "D": D_path, "D0": D0_path, "faithful": l and r})
        paths += [t_path, a_path, s_path, th_path, D_path, D0_path]
    return {"instances": instances, "F2": os.path.join(out, "F2"), "digest": digest(paths)}
