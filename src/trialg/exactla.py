"""Exact scalar arithmetic and deterministic linear algebra over Q and F_p.

Scalars are plain ``Fraction`` values over the rationals and plain ``int``
residues over a prime field; a :class:`Field` object carries the arithmetic.
:class:`FieldScalar` wraps a raw value together with its field for the wire
format and for element-level use.  No floating point anywhere.

Row reduction is fully deterministic (leftmost pivot, first row, exact
arithmetic), so every reduced row-echelon form and every solution-space basis
is canonical and reproducible bit for bit.

Hot loops test raw scalars for zero by truthiness (``if v:``), which is exact
because ``Fraction`` values are normalized and F_p residues are always
reduced to [0, p) by ``PrimeField.coerce`` and every field operation.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .errors import (
    AmbientMismatch,
    FieldMismatch,
    InputError,
    NotInSpan,
    ShapeMismatch,
)

__all__ = [
    "QQ",
    "GF",
    "Field",
    "RationalField",
    "PrimeField",
    "FieldScalar",
    "Mat",
    "Subspace",
    "rref",
    "kernel_basis",
    "solve_linear",
    "subspace_ops",
]


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3e24."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """Arithmetic context for raw scalar values."""

    kind = "abstract"
    characteristic = 0

    zero = None
    one = None

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def coerce(self, x):
        """Raw value from int, string, Fraction, or FieldScalar."""
        raise NotImplementedError

    def format(self, a) -> str:
        raise NotImplementedError

    def scalar(self, x) -> "FieldScalar":
        return FieldScalar(self, self.coerce(x))

    def to_json(self):
        raise NotImplementedError


class RationalField(Field):
    """The rationals; raw values are ``Fraction`` (lowest terms, positive denominator)."""

    kind = "rational"
    characteristic = 0
    zero = Fraction(0)
    one = Fraction(1)

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / a

    def coerce(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, FieldScalar):
            if x.field is not self:
                raise FieldMismatch("scalar from %r used over Q" % (x.field,))
            return x.value
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, str):
            try:
                return Fraction(x.strip())
            except (ValueError, ZeroDivisionError) as exc:
                raise InputError("bad rational literal %r" % (x,)) from exc
        raise InputError("cannot coerce %r to a rational" % (x,))

    def format(self, a) -> str:
        if a.denominator == 1:
            return str(a.numerator)
        return "%d/%d" % (a.numerator, a.denominator)

    def to_json(self):
        return {"kind": "rational"}

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


QQ = RationalField()

_prime_field_cache: dict[int, "PrimeField"] = {}


class PrimeField(Field):
    """F_p for prime p; raw values are ints reduced to [0, p)."""

    kind = "prime"

    def __init__(self, p: int):
        if not _is_prime(p):
            raise InputError("p = %r is not prime" % (p,))
        self.p = p
        self.characteristic = p
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0 mod %d" % self.p)
        return pow(a, self.p - 2, self.p)

    def coerce(self, x):
        if isinstance(x, FieldScalar):
            if x.field != self:
                raise FieldMismatch("scalar from %r used over F_%d" % (x.field, self.p))
            return x.value
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, str):
            s = x.strip()
            try:
                return int(s) % self.p
            except ValueError as exc:
                raise InputError("bad residue literal %r for F_%d" % (x, self.p)) from exc
        raise InputError("cannot coerce %r into F_%d" % (x, self.p))

    def format(self, a) -> str:
        return str(a % self.p)

    def to_json(self):
        return {"kind": "prime", "p": self.p}

    def __repr__(self):
        return "GF(%d)" % self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


def GF(p: int) -> PrimeField:
    """Cached prime field constructor."""
    fld = _prime_field_cache.get(p)
    if fld is None:
        fld = PrimeField(p)
        _prime_field_cache[p] = fld
    return fld


def field_from_json(obj) -> Field:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise InputError("field descriptor must be an object with a 'kind'")
    if obj["kind"] == "rational":
        return QQ
    if obj["kind"] == "prime":
        p = obj.get("p")
        if isinstance(p, bool) or not isinstance(p, int):
            raise InputError("prime field needs an integer 'p', got %r" % (p,))
        return GF(p)
    raise InputError("unknown field kind %r" % (obj["kind"],))


class FieldScalar:
    """One exact scalar: a normalized fraction or a residue mod p.

    Serializes as "num/den" over Q (denominator omitted when 1) and as the
    decimal residue over F_p.
    """

    __slots__ = ("field", "value")

    def __init__(self, field: Field, value):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "value", field.coerce(value))

    def __setattr__(self, *a):
        raise AttributeError("FieldScalar is immutable")

    def _raw(self, other):
        if isinstance(other, FieldScalar):
            if other.field != self.field:
                raise FieldMismatch("mixed scalar fields %r / %r" % (self.field, other.field))
            return other.value
        return self.field.coerce(other)

    def __add__(self, other):
        return FieldScalar(self.field, self.field.add(self.value, self._raw(other)))

    __radd__ = __add__

    def __sub__(self, other):
        return FieldScalar(self.field, self.field.sub(self.value, self._raw(other)))

    def __rsub__(self, other):
        return FieldScalar(self.field, self.field.sub(self._raw(other), self.value))

    def __mul__(self, other):
        return FieldScalar(self.field, self.field.mul(self.value, self._raw(other)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return FieldScalar(self.field, self.field.div(self.value, self._raw(other)))

    def __neg__(self):
        return FieldScalar(self.field, self.field.neg(self.value))

    def __eq__(self, other):
        if isinstance(other, FieldScalar):
            return self.field == other.field and self.value == other.value
        try:
            return self.value == self.field.coerce(other)
        except (InputError, FieldMismatch):
            return NotImplemented

    def __hash__(self):
        return hash((self.field, self.value))

    def is_zero(self) -> bool:
        return self.value == self.field.zero

    def __str__(self):
        return self.field.format(self.value)

    def __repr__(self):
        return "FieldScalar(%r, %s)" % (self.field, self)


# ---------------------------------------------------------------------------
# dense matrices
# ---------------------------------------------------------------------------


class Mat:
    """Dense immutable matrix of raw field values."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field: Field, rows: Iterable[Sequence], ncols: int | None = None):
        rows = tuple(tuple(field.coerce(v) for v in row) for row in rows)
        if rows:
            ncols = len(rows[0])
            for row in rows:
                if len(row) != ncols:
                    raise ShapeMismatch("ragged rows")
        elif ncols is None:
            ncols = 0
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "nrows", len(rows))
        object.__setattr__(self, "ncols", ncols)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, *a):
        raise AttributeError("Mat is immutable")

    @staticmethod
    def identity(field: Field, n: int) -> "Mat":
        one, zero = field.one, field.zero
        return Mat(field, [[one if i == j else zero for j in range(n)] for i in range(n)], n)

    @staticmethod
    def zeros(field: Field, nrows: int, ncols: int) -> "Mat":
        zero = field.zero
        return Mat(field, [[zero] * ncols for _ in range(nrows)], ncols)

    def _check(self, other: "Mat"):
        if self.field != other.field:
            raise FieldMismatch("mixed fields %r / %r" % (self.field, other.field))

    def entry(self, i: int, j: int):
        return self.rows[i][j]

    def scalar(self, i: int, j: int) -> FieldScalar:
        return FieldScalar(self.field, self.rows[i][j])

    def row(self, i: int) -> tuple:
        return self.rows[i]

    def col(self, j: int) -> tuple:
        return tuple(r[j] for r in self.rows)

    def transpose(self) -> "Mat":
        return Mat(self.field, list(zip(*self.rows)) if self.rows else [], self.nrows)

    def __add__(self, other: "Mat") -> "Mat":
        self._check(other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ShapeMismatch("add %dx%d and %dx%d" % (self.nrows, self.ncols, other.nrows, other.ncols))
        add = self.field.add
        return Mat(self.field, [[add(a, b) for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)], self.ncols)

    def __sub__(self, other: "Mat") -> "Mat":
        self._check(other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ShapeMismatch("sub %dx%d and %dx%d" % (self.nrows, self.ncols, other.nrows, other.ncols))
        sub = self.field.sub
        return Mat(self.field, [[sub(a, b) for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)], self.ncols)

    def scale(self, c) -> "Mat":
        c = self.field.coerce(c)
        mul = self.field.mul
        return Mat(self.field, [[mul(c, v) for v in row] for row in self.rows], self.ncols)

    def __neg__(self) -> "Mat":
        neg = self.field.neg
        return Mat(self.field, [[neg(v) for v in row] for row in self.rows], self.ncols)

    def __matmul__(self, other: "Mat") -> "Mat":
        self._check(other)
        if self.ncols != other.nrows:
            raise ShapeMismatch("matmul %dx%d by %dx%d" % (self.nrows, self.ncols, other.nrows, other.ncols))
        add, mul, zero = self.field.add, self.field.mul, self.field.zero
        cols = other.rows
        out = []
        for r in self.rows:
            acc = [zero] * other.ncols
            for k, v in enumerate(r):
                if not v:
                    continue
                rk = cols[k]
                for j, w in enumerate(rk):
                    if w:
                        acc[j] = add(acc[j], mul(v, w))
            out.append(acc)
        return Mat(self.field, out, other.ncols)

    def apply(self, vec: Sequence) -> tuple:
        """Matrix-vector product."""
        if len(vec) != self.ncols:
            raise ShapeMismatch("apply %dx%d to vector of length %d" % (self.nrows, self.ncols, len(vec)))
        add, mul, zero = self.field.add, self.field.mul, self.field.zero
        vec = [self.field.coerce(v) for v in vec]
        out = []
        for r in self.rows:
            acc = zero
            for v, w in zip(r, vec):
                if v and w:
                    acc = add(acc, mul(v, w))
            out.append(acc)
        return tuple(out)

    def stack(self, other: "Mat") -> "Mat":
        self._check(other)
        if self.ncols != other.ncols:
            raise ShapeMismatch("stack widths %d and %d" % (self.ncols, other.ncols))
        return Mat(self.field, self.rows + other.rows, self.ncols)

    def is_zero(self) -> bool:
        zero = self.field.zero
        return all(v == zero for row in self.rows for v in row)

    def rank(self) -> int:
        return len(rref(self)[1])

    def trace(self):
        if self.nrows != self.ncols:
            raise ShapeMismatch("trace of non-square matrix")
        acc = self.field.zero
        for i in range(self.nrows):
            acc = self.field.add(acc, self.rows[i][i])
        return acc

    def inverse(self) -> "Mat | None":
        """Exact inverse, or None if singular."""
        n = self.nrows
        if n != self.ncols:
            raise ShapeMismatch("inverse of non-square matrix")
        aug = Mat(self.field, [list(r) + list(e) for r, e in zip(self.rows, Mat.identity(self.field, n).rows)], 2 * n)
        red, pivots = rref(aug)
        if list(pivots) != list(range(n)):
            return None
        return Mat(self.field, [row[n:] for row in red.rows[:n]], n)

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.field == other.field
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.field, self.ncols, self.rows))

    def __repr__(self):
        fmt = self.field.format
        body = "; ".join(" ".join(fmt(v) for v in row) for row in self.rows)
        return "Mat(%r, [%s])" % (self.field, body)


# ---------------------------------------------------------------------------
# row reduction engine
# ---------------------------------------------------------------------------
#
# Rows are sparse {column: value} dicts; the accumulated pivot rows form an
# online echelon basis, fully back-substituted at the end.  Output is the
# unique RREF of the row space, independent of input order.


def _sparse_reduce(field: Field, rows, ncols: int) -> dict[int, dict]:
    zero, one = field.zero, field.one
    sub, mul, inv = field.sub, field.mul, field.inv
    pivots: dict[int, dict] = {}
    for raw in rows:
        row = {c: v for c, v in raw.items() if v}
        while row:
            c = min(row)
            piv = pivots.get(c)
            if piv is None:
                lead = row.pop(c)
                if lead != one:
                    s = inv(lead)
                    row = {k: mul(s, v) for k, v in row.items()}
                row[c] = one
                pivots[c] = row
                break
            factor = row.pop(c)
            for k, v in piv.items():
                if k == c:
                    continue
                nv = sub(row.get(k, zero), mul(factor, v))
                if not nv:
                    row.pop(k, None)
                else:
                    row[k] = nv
    # full back-substitution: clear every pivot column from the other rows
    for c in sorted(pivots, reverse=True):
        piv = pivots[c]
        for c2, row in pivots.items():
            if c2 == c or c not in row:
                continue
            factor = row.pop(c)
            for k, v in piv.items():
                if k == c:
                    continue
                nv = sub(row.get(k, zero), mul(factor, v))
                if not nv:
                    row.pop(k, None)
                else:
                    row[k] = nv
    return pivots


def _dense_rows(field: Field, pivots: dict[int, dict], ncols: int) -> list[tuple]:
    zero = field.zero
    out = []
    for c in sorted(pivots):
        row = [zero] * ncols
        for k, v in pivots[c].items():
            row[k] = v
        out.append(tuple(row))
    return out


def _rows_to_sparse(rows):
    for row in rows:
        yield {c: v for c, v in enumerate(row) if v}


def rref(m: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Unique reduced row-echelon form and its pivot columns.

    The output has the same shape as the input; zero rows are kept at the
    bottom.
    """
    pivots = _sparse_reduce(m.field, _rows_to_sparse(m.rows), m.ncols)
    dense = _dense_rows(m.field, pivots, m.ncols)
    zero_row = tuple([m.field.zero] * m.ncols)
    while len(dense) < m.nrows:
        dense.append(zero_row)
    return Mat(m.field, dense, m.ncols), tuple(sorted(pivots))


def kernel_sparse(field: Field, rows, ncols: int) -> "Subspace":
    """Kernel of a linear system given as sparse constraint rows."""
    pivots = _sparse_reduce(field, rows, ncols)
    zero, one, neg = field.zero, field.one, field.neg
    free = [c for c in range(ncols) if c not in pivots]
    vecs = []
    for f in free:
        v = [zero] * ncols
        v[f] = one
        for c, row in pivots.items():
            w = row.get(f)
            if w is not None:
                v[c] = neg(w)
        vecs.append(v)
    return Subspace.from_vectors(field, ncols, vecs)


def kernel_basis(m: Mat) -> "Subspace":
    """Canonical basis of the right kernel {v : m v = 0}."""
    return kernel_sparse(m.field, _rows_to_sparse(m.rows), m.ncols)


def solve_linear(m: Mat, rhs: Sequence) -> tuple | None:
    """Particular solution of m x = rhs with zeros in all free coordinates.

    Returns None when the system is inconsistent.
    """
    if len(rhs) != m.nrows:
        raise ShapeMismatch("rhs length %d for %d equations" % (len(rhs), m.nrows))
    field = m.field
    zero = field.zero
    rhs = [field.coerce(v) for v in rhs]
    n = m.ncols

    def aug_rows():
        for row, b in zip(m.rows, rhs):
            d = {c: v for c, v in enumerate(row) if v != zero}
            if b != zero:
                d[n] = b
            yield d

    pivots = _sparse_reduce(field, aug_rows(), n + 1)
    if n in pivots:
        return None
    x = [zero] * n
    for c, row in pivots.items():
        x[c] = row.get(n, zero)
    return tuple(x)


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------


class Subspace:
    """Span of vectors, stored as the unique RREF basis (one vector per row)."""

    __slots__ = ("field", "ambient_dim", "basis", "pivots")

    def __init__(self, field: Field, ambient_dim: int, basis: tuple, pivots: tuple):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "pivots", pivots)

    def __setattr__(self, *a):
        raise AttributeError("Subspace is immutable")

    @staticmethod
    def from_vectors(field: Field, ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        vecs = [tuple(field.coerce(v) for v in vec) for vec in vectors]
        for v in vecs:
            if len(v) != ambient_dim:
                raise AmbientMismatch("vector length %d in ambient %d" % (len(v), ambient_dim))
        pivots = _sparse_reduce(field, _rows_to_sparse(vecs), ambient_dim)
        dense = _dense_rows(field, pivots, ambient_dim)
        return Subspace(field, ambient_dim, tuple(dense), tuple(sorted(pivots)))

    @staticmethod
    def zero(field: Field, ambient_dim: int) -> "Subspace":
        return Subspace(field, ambient_dim, (), ())

    @staticmethod
    def full(field: Field, ambient_dim: int) -> "Subspace":
        ident = Mat.identity(field, ambient_dim)
        return Subspace(field, ambient_dim, ident.rows, tuple(range(ambient_dim)))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_zero(self) -> bool:
        return not self.basis

    def matrix(self) -> Mat:
        return Mat(self.field, self.basis, self.ambient_dim)

    def _check(self, other: "Subspace"):
        if self.field != other.field:
            raise FieldMismatch("mixed fields")
        if self.ambient_dim != other.ambient_dim:
            raise AmbientMismatch("ambient %d vs %d" % (self.ambient_dim, other.ambient_dim))

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.field, self.ambient_dim, self.basis))

    def try_coords(self, vec: Sequence) -> tuple | None:
        """Coefficients of vec in this RREF basis, or None if not in the span."""
        field = self.field
        vec = tuple(field.coerce(v) for v in vec)
        if len(vec) != self.ambient_dim:
            raise AmbientMismatch("vector length %d in ambient %d" % (len(vec), self.ambient_dim))
        coeffs = tuple(vec[p] for p in self.pivots)
        sub, mul = field.sub, field.mul
        residual = list(vec)
        for c, row in zip(coeffs, self.basis):
            if not c:
                continue
            for k, v in enumerate(row):
                if v:
                    residual[k] = sub(residual[k], mul(c, v))
        if any(residual):
            return None
        return coeffs

    def coords(self, vec: Sequence) -> tuple:
        """Like try_coords but raises NotInSpan."""
        c = self.try_coords(vec)
        if c is None:
            raise NotInSpan("vector is not in the span")
        return c

    def contains_vector(self, vec: Sequence) -> bool:
        return self.try_coords(vec) is not None

    def contains(self, other: "Subspace") -> bool:
        self._check(other)
        return all(self.contains_vector(v) for v in other.basis)

    def sum(self, other: "Subspace") -> "Subspace":
        self._check(other)
        return Subspace.from_vectors(self.field, self.ambient_dim, list(self.basis) + list(other.basis))

    def intersect(self, other: "Subspace") -> "Subspace":
        """Intersection via the kernel of [A^T | -B^T]."""
        self._check(other)
        field = self.field
        n = self.ambient_dim
        ra, rb = self.dim, other.dim
        zero, neg = field.zero, field.neg
        rows = []
        for k in range(n):
            d = {}
            for i in range(ra):
                v = self.basis[i][k]
                if v:
                    d[i] = v
            for j in range(rb):
                v = other.basis[j][k]
                if v:
                    d[ra + j] = neg(v)
            rows.append(d)
        pair_kernel = kernel_sparse(field, rows, ra + rb)
        add, mul = field.add, field.mul
        vecs = []
        for coeffs in pair_kernel.basis:
            v = [zero] * n
            for i in range(ra):
                c = coeffs[i]
                if not c:
                    continue
                for k, w in enumerate(self.basis[i]):
                    if w:
                        v[k] = add(v[k], mul(c, w))
            vecs.append(v)
        return Subspace.from_vectors(field, n, vecs)

    def to_json(self):
        fmt = self.field.format
        return {
            "ambient_dim": self.ambient_dim,
            "dim": self.dim,
            "pivots": list(self.pivots),
            "basis": [[fmt(v) for v in row] for row in self.basis],
        }

    def __repr__(self):
        return "Subspace(dim=%d, ambient=%d)" % (self.dim, self.ambient_dim)


def subspace_ops(mode: str, a: Subspace, b):
    """Set-style operations on spans: equal | contains | intersect | sum | coords."""
    if mode == "equal":
        a._check(b)
        return a == b
    if mode == "contains":
        return a.contains(b)
    if mode == "intersect":
        return a.intersect(b)
    if mode == "sum":
        return a.sum(b)
    if mode == "coords":
        return a.coords(b)
    raise InputError("unknown subspace op %r" % (mode,))
