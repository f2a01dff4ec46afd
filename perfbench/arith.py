"""Exact arithmetic for the benchmark's generator and checker.

This module shares no code with trialg: scalars are ``fractions.Fraction``
over Q and plain ints reduced mod p over F_p, algebras are sparse structure
constants read straight from the JSON files, and ``rank`` is a small Gaussian
elimination.  The checker uses it to recompute what trialg reports.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction


class QField:
    """The rationals; scalars are ``Fraction`` values."""

    p = 0
    zero = Fraction(0)
    one = Fraction(1)

    def parse(self, s) -> Fraction:
        return Fraction(s)

    def fmt(self, a) -> str:
        a = Fraction(a)
        return str(a.numerator) if a.denominator == 1 else "%d/%d" % (a.numerator, a.denominator)

    def norm(self, a):
        return Fraction(a)

    def inv(self, a):
        return 1 / Fraction(a)

    def to_json(self):
        return {"kind": "rational"}


class PField:
    """Integers mod a prime p; scalars are ints in [0, p)."""

    zero = 0
    one = 1

    def __init__(self, p: int):
        self.p = p

    def parse(self, s) -> int:
        return int(s) % self.p

    def fmt(self, a) -> str:
        return str(a % self.p)

    def norm(self, a):
        return a % self.p

    def inv(self, a):
        return pow(a % self.p, -1, self.p)

    def to_json(self):
        return {"kind": "prime", "p": self.p}


def field_of(obj):
    return QField() if obj["kind"] == "rational" else PField(int(obj["p"]))


def rank(F, rows) -> int:
    """Rank of a list of dense rows, by plain Gaussian elimination."""
    rows = [[F.norm(v) for v in r] for r in rows if any(r)]
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = F.inv(rows[r][c])
        prow = [F.norm(v * inv) for v in rows[r]]
        rows[r] = prow
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [F.norm(a - f * b) for a, b in zip(rows[i], prow)]
        r += 1
        if r == len(rows):
            break
    return r


def sparse_rank(F, rows) -> int:
    """Rank of sparse rows given as {column: value} dicts (mod p fast path)."""
    pivots: dict[int, dict] = {}
    for row in rows:
        row = {c: F.norm(v) for c, v in row.items() if F.norm(v)}
        while row:
            c = min(row)
            prow = pivots.get(c)
            if prow is None:
                inv = F.inv(row[c])
                pivots[c] = {k: F.norm(v * inv) for k, v in row.items()}
                break
            f = row[c]
            for k, v in prow.items():
                nv = F.norm(row.get(k, 0) - f * v)
                if nv:
                    row[k] = nv
                else:
                    row.pop(k, None)
    return len(pivots)


def solve(F, mat, rhs):
    """One solution x of mat x = rhs (square, invertible), or None."""
    n = len(mat)
    aug = [[F.norm(v) for v in row] + [F.norm(b)] for row, b in zip(mat, rhs)]
    for c in range(n):
        piv = next((i for i in range(c, n) if aug[i][c]), None)
        if piv is None:
            return None
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = F.inv(aug[c][c])
        aug[c] = [F.norm(v * inv) for v in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [F.norm(a - f * b) for a, b in zip(aug[i], aug[c])]
    return [row[n] for row in aug]


def matmul(F, a, b):
    return [[F.norm(sum(x * y for x, y in zip(row, col))) for col in zip(*b)] for row in a]


def apply(F, mat, vec):
    """Image of vec under an image-in-columns matrix."""
    return [F.norm(sum(m * v for m, v in zip(row, vec) if v)) for row in mat]


class Alg:
    """A finite-dimensional algebra given by sparse structure constants."""

    def __init__(self, F, dim: int, table: dict, unit):
        self.F = F
        self.dim = dim
        self.table = table  # (i, j) -> [(k, c), ...]
        self.unit = list(unit)

    def mul(self, x, y):
        F = self.F
        out = [F.zero] * self.dim
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, yj in enumerate(y):
                if not yj:
                    continue
                for k, c in self.table.get((i, j), ()):
                    out[k] += xi * yj * c
        return [F.norm(v) for v in out]

    def e(self, i):
        v = [self.F.zero] * self.dim
        v[i] = self.F.one
        return v

    def left_mat(self, x):
        """Matrix (image in columns) of y -> x y."""
        cols = [self.mul(x, self.e(j)) for j in range(self.dim)]
        return [list(r) for r in zip(*cols)]


def add(F, x, y):
    return [F.norm(a + b) for a, b in zip(x, y)]


def sub(F, x, y):
    return [F.norm(a - b) for a, b in zip(x, y)]


def scale(F, c, x):
    return [F.norm(c * a) for a in x]


def _table(F, entries):
    table: dict = {}
    for i, j, k, c in entries:
        table.setdefault((i, j), []).append((k, F.parse(c)))
    return table


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _part(obj, base):
    return read_json(os.path.join(base, obj)) if isinstance(obj, str) else obj


def algebra_from_obj(obj) -> Alg:
    F = field_of(obj["field"])
    return Alg(F, obj["dim"], _table(F, obj["mul"]), [F.parse(v) for v in obj["unit"]])


class Trian:
    """Trian(A, M, B) on the basis A, then M, then B."""

    def __init__(self, obj, base="."):
        a, m, b = (_part(obj[k], base) for k in ("A", "M", "B"))
        self.F = F = field_of(a["field"])
        self.da, self.dm, self.db = a["dim"], m["dimM"], b["dim"]
        self.A, self.B = algebra_from_obj(a), algebra_from_obj(b)
        self.left = _table(F, m["left"])
        self.right = _table(F, m["right"])
        da, dm = self.da, self.dm
        table: dict = {}
        for (i, j), ks in self.A.table.items():
            table[(i, j)] = list(ks)
        for (i, j), ks in self.left.items():
            table[(i, da + j)] = [(da + k, c) for k, c in ks]
        for (i, j), ks in self.right.items():
            table[(da + i, da + dm + j)] = [(da + k, c) for k, c in ks]
        for (i, j), ks in self.B.table.items():
            table[(da + dm + i, da + dm + j)] = [(da + dm + k, c) for k, c in ks]
        unit = self.A.unit + [F.zero] * dm + self.B.unit
        self.T = Alg(F, da + dm + self.db, table, unit)
        self.p = self.A.unit + [F.zero] * (dm + self.db)

    @classmethod
    def load(cls, path):
        return cls(read_json(path), os.path.dirname(os.path.abspath(path)))

    def faithful(self):
        """(left, right): does A (resp. B) act faithfully on M?"""
        F, da, dm, db = self.F, self.da, self.dm, self.db

        def act_rows(dim_src, table, left):
            rows = []
            for s in range(dim_src):
                img = []
                for j in range(dm):
                    v = [F.zero] * dm
                    for k, c in table.get((s, j) if left else (j, s), ()):
                        v[k] += c
                    img.extend(v)
                rows.append(img)
            return rows

        return (rank(F, act_rows(da, self.left, True)) == da,
                rank(F, act_rows(db, self.right, False)) == db)


def read_matrix(F, obj):
    return [[F.parse(v) for v in row] for row in obj["matrix"]]


def read_tensor(F, obj):
    n = obj["dim"]
    t = [[[F.zero] * n for _ in range(n)] for _ in range(n)]
    for i, j, k, c in obj["tensor"]:
        t[i][j][k] = F.parse(c)
    return t


def bilin(F, t, x, y):
    n = len(t)
    out = [F.zero] * n
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j, yj in enumerate(y):
            if not yj:
                continue
            c = xi * yj
            for k, v in enumerate(t[i][j]):
                if v:
                    out[k] += c * v
    return [F.norm(v) for v in out]
