"""Independent checks of trialg's outputs.

Nothing here calls trialg: the checks re-read the input files with ``arith``
and recompute, with their own Fraction and mod-p arithmetic, what each report
asserts.  Each failed check raises ``CheckFailed`` with a message that names
the job.
"""

from __future__ import annotations

import hashlib
import json

import arith
from arith import PField

# a large prime: dim ker_p >= dim ker_Q always, with equality unless p divides
# one of the system's minors, which for these small-integer systems it does not
BIG_P = 2 ** 31 - 1


class CheckFailed(Exception):
    pass


def require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def one_json(text: str) -> dict:
    """The output must be exactly one JSON object and a newline."""
    require(text.endswith("\n"), "output does not end with a newline")
    try:
        obj, end = json.JSONDecoder().raw_decode(text)
    except json.JSONDecodeError as exc:
        raise CheckFailed("output is not JSON: %s" % exc) from None
    require(text[end:] == "\n", "output holds more than one JSON value")
    require(isinstance(obj, dict), "output is not a JSON object")
    return obj


def parse_vecs(F, rows):
    return [[F.parse(v) for v in r] for r in rows]


def rref_ok(F, basis):
    """Canonical RREF: leading 1s in strictly increasing columns, zero above and
    below every pivot."""
    pivots = []
    for row in basis:
        lead = next((c for c, v in enumerate(row) if v), None)
        require(lead is not None, "zero vector in a basis")
        require(row[lead] == F.one, "pivot entry is not 1")
        require(not pivots or lead > pivots[-1], "pivots do not increase")
        pivots.append(lead)
    for c in pivots:
        require(sum(1 for row in basis if row[c]) == 1, "pivot column %d not cleared" % c)
    return pivots


def rand_vec(F, n, rng):
    return [F.norm(rng.randint(-3, 3)) for _ in range(n)]


def identity_mat(F, n):
    return [[F.one if i == j else F.zero for j in range(n)] for i in range(n)]


def unflatten_linear(vec, n):
    return [vec[k * n:(k + 1) * n] for k in range(n)]


def unflatten_bilinear(vec, n):
    return [[vec[(i * n + j) * n:(i * n + j + 1) * n] for j in range(n)] for i in range(n)]


LINEAR_KINDS = ("derivation", "sigma_derivation", "commuting", "sigma_commuting")


def check_map(kind, T: arith.Alg, sig, vec, rng, samples=3):
    """The map with flattened coordinates vec satisfies its defining identity
    at seeded random elements."""
    F, n = T.F, T.dim
    sx = (lambda x: arith.apply(F, sig, x))
    for _ in range(samples):
        x, y, z = rand_vec(F, n, rng), rand_vec(F, n, rng), rand_vec(F, n, rng)
        if kind in ("derivation", "sigma_derivation"):
            d = unflatten_linear(vec, n)
            lhs = arith.apply(F, d, T.mul(x, y))
            rhs = arith.add(F, T.mul(arith.apply(F, d, x), y), T.mul(sx(x), arith.apply(F, d, y)))
            require(lhs == rhs, "%s basis map fails d(xy) = d(x)y + s(x)d(y)" % kind)
        elif kind in ("commuting", "sigma_commuting"):
            th = unflatten_linear(vec, n)
            for w in (x, arith.add(F, x, y)):
                tw = arith.apply(F, th, w)
                require(T.mul(sx(w), tw) == T.mul(tw, w), "%s basis map fails [x, t(x)]_s = 0" % kind)
        else:
            D = unflatten_bilinear(vec, n)
            xy = T.mul(x, y)
            lhs = arith.bilin(F, D, xy, z)
            rhs = arith.add(F, T.mul(arith.bilin(F, D, x, z), y), T.mul(sx(x), arith.bilin(F, D, y, z)))
            require(lhs == rhs, "%s basis map fails the first-slot identity" % kind)
            lhs = arith.bilin(F, D, z, xy)
            rhs = arith.add(F, T.mul(arith.bilin(F, D, z, x), y), T.mul(sx(x), arith.bilin(F, D, z, y)))
            require(lhs == rhs, "%s basis map fails the second-slot identity" % kind)


def linear_system_dim(kind, T: arith.Alg, sig):
    """dim of the solution space of a linear-map identity over F_p, p = BIG_P,
    from this module's own constraint rows (unknowns d[k][l] at k*n + l)."""
    F = T.F
    P = PField(BIG_P) if F.p == 0 else F
    n = T.dim

    def red(v):
        v = F.norm(v)
        return P.norm(v.numerator * pow(v.denominator, -1, P.p)) if F.p == 0 else v

    mulr = [[[red(c) for c in T.mul(T.e(i), T.e(j))] for j in range(n)] for i in range(n)]
    sigr = [[red(c) for c in row] for row in sig]

    def pmul(x, y):
        out = [0] * n
        for i, xi in enumerate(x):
            if xi:
                for j, yj in enumerate(y):
                    if yj:
                        for k, c in enumerate(mulr[i][j]):
                            if c:
                                out[k] += xi * yj * c
        return [P.norm(v) for v in out]

    def papply(m, x):
        return [P.norm(sum(a * b for a, b in zip(row, x))) for row in m]

    def e(i):
        v = [0] * n
        v[i] = 1
        return v

    rows = []
    if kind in ("derivation", "sigma_derivation"):
        # d(e_i e_j) - d(e_i) e_j - s(e_i) d(e_j), linear in the unknowns
        for i in range(n):
            si = papply(sigr, e(i))
            for j in range(n):
                acc = [dict() for _ in range(n)]
                for k in range(n):
                    for l in range(n):
                        ek = e(k)
                        # E_kl sends e_l to e_k
                        term = [mulr[i][j][l] * c for c in ek]
                        if i == l:
                            term = [a - b for a, b in zip(term, pmul(ek, e(j)))]
                        if j == l:
                            term = [a - b for a, b in zip(term, pmul(si, ek))]
                        for m, c in enumerate(term):
                            if c % P.p:
                                acc[m][k * n + l] = c
                rows += acc
    else:
        xs = [e(i) for i in range(n)]
        xs += [[a + b for a, b in zip(e(i), e(j))] for i in range(n) for j in range(i + 1, n)]
        for x in xs:
            sx = papply(sigr, x)
            acc = [dict() for _ in range(n)]
            for k in range(n):
                left = pmul(sx, e(k))
                right = pmul(e(k), x)
                for l in range(n):
                    if not x[l]:
                        continue
                    for m in range(n):
                        c = x[l] * (left[m] - right[m])
                        if c % P.p:
                            acc[m][k * n + l] = c
            rows += acc
    return n * n - arith.sparse_rank(P, rows)


def check_space(kind, tri: arith.Trian, sig, sp, rng):
    """RREF shape, ambient size and the defining identity at random points of
    one solved space (``MapSpace.to_json`` form); returns the parsed basis."""
    F, T = tri.F, tri.T
    n = T.dim
    require(sp["kind"] == kind, "space kind %r, expected %r" % (sp["kind"], kind))
    require(sp["ambient_dim"] == (n ** 2 if kind in LINEAR_KINDS else n ** 3), "wrong ambient dim")
    basis = parse_vecs(F, sp["basis"])
    require(sp["dim"] == len(basis), "dim disagrees with the basis length")
    rref_ok(F, basis)
    if sig is None:
        sig = identity_mat(F, n)
    for vec in basis:
        check_map(kind, T, sig, vec, rng)
    return basis


def check_complete(kind, tri: arith.Trian, sig, sp):
    """A linear-map space is complete: its dim equals the kernel dim of this
    module's own constraint system mod BIG_P (which is never smaller)."""
    dim_p = linear_system_dim(kind, tri.T, sig if sig is not None else identity_mat(tri.F, tri.T.dim))
    require(sp["dim"] == dim_p, "%s: dim %d over Q, %d over F_p (p = %d)"
            % (kind, sp["dim"], dim_p, BIG_P))


def intersection_dim(F, U, W):
    return len(U) + len(W) - arith.rank(F, U + W) if U and W else 0


def _sha(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _is_nilpotent(A: arith.Alg, x):
    y = list(x)
    for _ in range(A.dim + 1):
        y = A.mul(y, x)
        if not any(y):
            return True
    return not any(y)


def _twisted_central(T, sig, z):
    F = T.F
    return all(T.mul(arith.apply(F, sig, T.e(i)), z) == T.mul(z, T.e(i)) for i in range(T.dim))


def _kernel_dim(F, n, maps):
    """dim of the common kernel of the linear maps x -> f(x) given as callables."""
    rows = []
    for f in maps:
        cols = [f([F.one if k == j else F.zero for k in range(n)]) for j in range(n)]
        rows += [list(r) for r in zip(*cols)]
    return n - arith.rank(F, rows)


def _block(tri, mat, src, dst):
    da, dm = tri.da, tri.dm
    ranges = {"A": range(0, da), "M": range(da, da + dm), "B": range(da + dm, tri.T.dim)}
    return [[mat[k][j] for j in ranges[src]] for k in ranges[dst]]


def check_cli_report(argv, report, rng, ctx):
    """The identity each command's report asserts, recomputed from its input files."""
    cmd = report["command"]
    res = report["result"]
    require(report["inputs"] == [{"path": p, "sha256": _sha(p)} for p in _input_paths(argv)],
            "%s: input hashes disagree with the files" % cmd)
    if cmd == "fixtures emit":
        for w in res["written"]:
            require(_sha(w["path"]) == w["sha256"], "fixtures emit: hash of %s" % w["path"])
        return
    if cmd in ("validate", "radical"):
        A = arith.algebra_from_obj(arith.read_json(argv[1]))
        F = A.F
        if cmd == "validate":
            comm = all(A.mul(A.e(i), A.e(j)) == A.mul(A.e(j), A.e(i))
                       for i in range(A.dim) for j in range(A.dim))
            require(res["dim"] == A.dim and res["commutative"] == comm, "validate: dim/commutative")
        else:
            rad = parse_vecs(F, res["radical"]["basis"])
            rref_ok(F, rad)
            require(all(_is_nilpotent(A, r) for r in rad), "radical: a basis vector is not nilpotent")
            ctx.setdefault("radical_zero", {})[argv[1]] = not rad
        return
    path = argv[2] if cmd in ("triangular build", "endo classify") or cmd.startswith("solve") \
        else argv[1]
    tri = arith.Trian.load(path)
    F, T, n = tri.F, tri.T, tri.T.dim
    opt = {argv[i]: argv[i + 1] for i in range(len(argv) - 1) if argv[i].startswith("--")}
    sig = arith.read_matrix(F, arith.read_json(opt["--sigma"])) if "--sigma" in opt else None
    if cmd == "triangular build":
        d = res["dims"]
        lf, rf = tri.faithful()
        require((d["A"], d["M"], d["B"], d["total"]) == (tri.da, tri.dm, tri.db, n)
                and (res["left_faithful"], res["right_faithful"]) == (lf, rf),
                "triangular build: dims or faithfulness")
    elif cmd in ("center", "sigma-center"):
        s = sig if sig is not None else identity_mat(F, n)
        key = "center" if cmd == "center" else "sigma_center"
        Z = parse_vecs(F, res[key]["basis"])
        rref_ok(F, Z)
        require(all(_twisted_central(T, s, z) for z in Z), "%s: a basis vector is not central" % cmd)
        dim = _kernel_dim(F, n, [
            (lambda x, i=i: arith.sub(F, T.mul(arith.apply(F, s, T.e(i)), x), T.mul(x, T.e(i))))
            for i in range(n)])
        require(len(Z) == dim, "%s: dim %d, the commutant kernel has dim %d" % (cmd, len(Z), dim))
    elif cmd == "nil-radical":
        R = parse_vecs(F, res["nil_radical"]["basis"])
        rref_ok(F, R)
        require(all(_is_nilpotent(T, r) for r in R), "nil-radical: a basis vector is not nilpotent")
        require(len(R) >= tri.dm, "nil-radical misses the corner M")
    elif cmd.startswith("solve"):
        kind = cmd.split()[1]
        basis = check_space(kind, tri, sig, res["space"], rng)
        ctx.setdefault("dims", {})[(path, kind)] = len(basis)
        ctx.setdefault("spaces", {})[(path, kind)] = basis
    elif cmd == "split-biderivation":
        D = arith.read_tensor(F, arith.read_json(opt["--bid"]))
        E = arith.read_tensor(F, res["extremal"])
        Rt = arith.read_tensor(F, res["residual"])
        require(all(arith.add(F, E[i][j], Rt[i][j]) == D[i][j] for i in range(n) for j in range(n)),
                "split-biderivation: extremal + residual != D")
        require(parse_vecs(F, [res["corner_value"]])[0] == arith.bilin(F, D, tri.p, tri.p),
                "split-biderivation: corner value is not D(p, p)")
        require(not any(arith.bilin(F, Rt, tri.p, tri.p)), "split-biderivation: residual(p, p) != 0")
    elif cmd == "inner-witness":
        D0 = arith.read_tensor(F, arith.read_json(opt["--bid"]))
        hyp = res["hypotheses"]["hypotheses"]
        if res["witness"] is None:
            require(any(h["verdict"] != "pass" for h in hyp),
                    "inner-witness: no witness although every hypothesis passes")
        else:
            lam = parse_vecs(F, [res["witness"]["lambda"]])[0]
            require(all(D0[i][j] == T.mul(lam, arith.sub(F, T.mul(T.e(i), T.e(j)), T.mul(T.e(j), T.e(i))))
                        for i in range(n) for j in range(n)),
                    "inner-witness: D0 != lambda [x, y]")
            require(_twisted_central(T, sig, lam), "inner-witness: lambda is not twisted-central")
    elif cmd == "commuting-blocks":
        th = arith.read_matrix(F, arith.read_json(opt["--map"]))
        b = res["blocks"]
        want = {"delta1": ("A", "A"), "delta2": ("M", "A"), "delta3": ("B", "A"),
                "mu1": ("A", "B"), "mu2": ("M", "B"), "mu3": ("B", "B")}
        for name, (src, dst) in want.items():
            require(arith.read_matrix(F, b[name]) == _block(tri, th, src, dst),
                    "commuting-blocks: %s is not the %s->%s block of theta" % (name, src, dst))
    elif cmd == "properness":
        th = arith.read_matrix(F, arith.read_json(opt["--map"]))
        require(len(set(res["verdicts"].values())) == 1, "properness: verdicts disagree")
        require(res["proper"] == (res.get("witness") is not None), "properness: witness/verdict")
        if res["proper"]:
            lam = parse_vecs(F, [res["witness"]["lambda"]])[0]
            om = arith.read_matrix(F, res["witness"]["omega"])
            require(_twisted_central(T, sig, lam), "properness: lambda is not twisted-central")
            for j in range(n):
                oj = arith.apply(F, om, T.e(j))
                require(arith.apply(F, th, T.e(j)) == arith.add(F, T.mul(lam, T.e(j)), oj),
                        "properness: theta != lambda x + omega(x)")
                require(_twisted_central(T, sig, oj), "properness: omega leaves the twisted center")
    elif cmd == "endo classify":
        phi = arith.read_matrix(F, arith.read_json(opt["--map"]))
        if "mono_epi" in res:
            r = arith.rank(F, phi)
            require(res["mono_epi"]["rank"] == r and res["mono_epi"]["injective"] == (r == n),
                    "endo classify: rank %d, recomputed %d" % (res["mono_epi"]["rank"], r))
        b = res["blocks"]
        for name, (src, dst) in {"chi1": ("A", "A"), "chi2": ("A", "M"), "chi3": ("A", "B"),
                                 "gamma1": ("B", "B"), "gamma2": ("B", "M"), "gamma3": ("B", "A"),
                                 "h": ("M", "M")}.items():
            require(arith.read_matrix(F, b[name]) == _block(tri, phi, src, dst),
                    "endo classify: %s is not the %s->%s block of phi" % (name, src, dst))
    elif cmd == "partible":
        if sig is not None:
            w = res["witness"]
            if w is not None:
                z = parse_vecs(F, [w["z"]])[0]
                sbar = arith.read_matrix(F, w["sigma_bar"])
                require(all(T.mul(z, arith.apply(F, sig, T.e(j))) == T.mul(arith.apply(F, sbar, T.e(j)), z)
                            for j in range(n)), "partible: z sigma != sigma_bar z")
        else:
            rep = res["report"]
            passes = any(h["verdict"] == "pass" for h in rep["hypotheses"])
            require((rep["verdict"] == "partible") == passes, "partible: verdict vs certificates")
            ctx.setdefault("nil_a", {})[path] = next(
                h["verdict"] for h in rep["hypotheses"] if h["name"] == "nil_radical_A_zero")
    else:
        raise CheckFailed("no check for command %r" % cmd)


def _input_paths(argv):
    """The files a command reads, in the order its report lists them."""
    if argv[0] == "fixtures":
        return []
    pos = [a for i, a in enumerate(argv) if not a.startswith("--")
           and (i == 0 or not argv[i - 1].startswith("--"))]
    pos = [a for a in pos if a.endswith(".json")]
    opts = [argv[i + 1] for i in range(len(argv) - 1) if argv[i].startswith("--")
            and argv[i] != "--allow-zero-M"]
    return pos + opts


def catalog_invariants(ctx, instances):
    """Invariants across the cli-catalog reports: F1's sigma-biderivation space
    has dim 4, F_5 dims are at least the Q dims of the same structure (F4 vs F3),
    the Posner intersection vanishes on faithful instances, and the partibility
    report's nil-radical verdict for A agrees with the radical of A."""
    dims, spaces = ctx["dims"], ctx["spaces"]
    by_name = {inst["name"]: inst for inst in instances}
    f1 = dims[(by_name["F1"]["T"], "sigma_biderivation")]
    require(f1 == 4, "F1 sigma-biderivation space has dim %d, expected 4" % f1)
    for (path, kind), d in dims.items():
        if path == by_name["F3"]["T"]:
            dp = dims[(by_name["F4"]["T"], kind)]
            require(dp >= d, "%s: dim over F_5 is %d < %d over Q" % (kind, dp, d))
    for inst in instances:
        tri = arith.Trian.load(inst["T"])
        if inst["faithful"]:
            der = spaces[(inst["T"], "sigma_derivation")]
            comm = spaces[(inst["T"], "sigma_commuting")]
            require(intersection_dim(tri.F, der, comm) == 0,
                    "%s: nonzero Posner intersection on a faithful instance" % inst["name"])
        nil_a = ctx["nil_a"][inst["T"]]
        if nil_a != "undecided":
            require((nil_a == "pass") == ctx["radical_zero"][inst["A"]],
                    "%s: partible's nil-radical verdict disagrees with radical(A)" % inst["name"])
