"""Exact scalar arithmetic and deterministic linear algebra over Q and F_p.

Scalars are plain ``Fraction`` values over the rationals and plain ``int``
residues over a prime field; a :class:`Field` object carries the arithmetic,
reads input literals into raw values (``coerce``) and writes the wire format
(``format``).  No floating point anywhere.

Row reduction is fully deterministic (exact arithmetic, each row's pivot at
its least column), so every reduced row-echelon form and every
solution-space basis is canonical and reproducible bit for bit.

Kernels and spans share a first step, a peel, the first step of the
structured Gaussian elimination of LaMacchia and Odlyzko: a row left with
one nonzero entry e_f once the columns forced so far are dropped forces
column f, and passes repeat until none is forced anew, with no arithmetic
(at dim 135 it forces 94 % of the sigma-derivation columns).

A kernel is computed by narrowing (narrowed_kernel).  It starts from the
unit vectors on the columns the peel does not force, and each row of the
core left narrows them in turn: a row that annihilates every vector is
skipped, and otherwise one vector it does not annihilate is combined into
the others it does not annihilate and dropped.  The systems of trialg are
tall and mostly redundant (the peel leaves 189 of the 594 rows of the
Der_sigma system of the elim-q-rebased benchmark, on 81 unknowns, of rank
73).  A redundant row costs only its dot products with the vectors that
hold its columns, where Gauss-Jordan would clear it to zero, and no pivot is
back-substituted.  Any kernel basis spans the one kernel, and
Subspace._from_rows makes its canonical RREF.

A span is its RREF, made by _sparse_reduce: each forced column f is the
RREF row e_f, and the core is reduced by online Gauss-Jordan.  The pivot
rows are kept fully reduced as rows arrive, each holding no pivot column but
its own, so there is no back-substitution pass at the end.  An incoming row
is cleared in one pass over its entries in pivot columns; as no pivot row
holds another pivot column, no step fills one.  What is left, if anything,
becomes a pivot row at its least column c, and c is then eliminated from the
earlier pivot rows that hold it.  Those are found through an index from each
non-pivot column to the pivot rows that took an entry there; an entry that
later cancels leaves a stale index entry, which is checked on use.

The work is done on Python ints, fraction-free in the manner of Bareiss.
Over Q each incoming row is scaled to its primitive integer form: denominators
cleared, the gcd of the entries divided out, the lead (the entry at the least
column) made positive.  A row is reduced by a pivot row of lead b by
cross-multiplication, row = b' * row - a' * pivot for the row's entry a and
a' = a / g, b' = b / g with g = gcd(a, b), so no fraction is ever formed.
The gcd of the row is taken only after a step with b' != 1, which scales the
row (lazy content); pivot rows of lead 1, the common case, cost nothing extra.
Rows built in integers already (IntegerRows, as the constraint-row builders
make them) skip the clearing of denominators.  Over F_p the same loops run
on residues, with monic pivots and one ``% p`` per updated entry instead of
field-method calls.  The narrowing takes the same step (_combine), with the
dot products of two vectors with a row in place of a column's entries.  The
pivot rows come back in integer form, in ascending pivot column:
integer_kernel reads off them the annihilator of a span (the second-slot
conditions of a biderivation solve), and only Subspace._from_rows,
span_coefficients and LinMap.inverse divide by the lead (field_values).

A LinMap is a linear map stored only as its sparse columns, column j the
nonzero (k, c) of the image of e_j; its dense matrix is a view made on each
read.  It is the one map type of trialg, for automorphisms, their blocks, the
slots of a bilinear map and every solved map alike, and sits here below the
row reduction that inverts it and the algebra layer that evaluates it.

A Subspace stores one form of its basis: the sparse RREF rows, the pivot
rows of _sparse_reduce in field values, each a tuple of its nonzero (column,
value) sorted by column, in pivot order.  Subspace.reduce is the one
reduction of a sparse vector against them, behind membership (holds, of a
whole list such as a map's columns), containment, coordinates and
intersections; the image of a subspace under f is
f.compose(sub.inclusion()).image().  The dense basis, from_vectors,
contains_vector, coords and combine are thin edges over this core for
element-level callers.  span_coefficients, on blocks of sparse entries, is
the one solve for coefficients and reduces its transposed system itself;
LinMap.kernel is the one kernel, and the RREF of a list of rows is the
Subspace they span.

derived is the one cache of trialg: whatever is made on first use and kept
lives in the store of one immutable instance, with no global cache.

Hot loops test raw scalars for zero by truthiness (``if v:``), which is exact
because ``Fraction`` values are normalized and F_p residues are always
reduced to [0, p) by ``PrimeField.coerce`` and every field operation.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import (
    AmbientMismatch,
    DimMismatch,
    FieldMismatch,
    InputError,
    NotInSpan,
    NotInvertible,
    ShapeMismatch,
)

__all__ = [
    "QQ",
    "GF",
    "Field",
    "RationalField",
    "PrimeField",
    "LinMap",
    "Subspace",
    "span_coefficients",
]


# Miller-Rabin with the first 13 primes as bases decides primality exactly
# below this bound, the least strong pseudoprime to all of them; larger
# moduli are refused.
_PRIME_BOUND = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < _PRIME_BOUND."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
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
    """Arithmetic context for raw scalar values.  RationalField and
    PrimeField implement add, sub, mul and neg on raw values, coerce (a raw
    value from an int, a string literal, or over Q a Fraction), format and
    to_json."""

    kind = "abstract"
    characteristic = 0

    zero = None
    one = None


@lru_cache(maxsize=1024)
def _parse_rational(text: str) -> Fraction:
    """Fraction(text), parsed once per distinct literal: the entries of an
    input file are mostly a few literals such as "0" and "1".  A literal that
    fails raises on every call, since a raise is not cached."""
    return Fraction(text)


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

    def coerce(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int) and not isinstance(x, bool):
            return Fraction(x)
        if isinstance(x, str):
            try:
                if "e" in x or "E" in x:  # Fraction would expand "1e3000000" into a 10-Mbit integer
                    raise ValueError("exponent notation")
                return _parse_rational(x.strip())
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
        if p >= _PRIME_BOUND:
            raise InputError("p = %r is beyond the exact primality test (p < %d)" % (p, _PRIME_BOUND))
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

    def coerce(self, x):
        if isinstance(x, int) and not isinstance(x, bool):
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


# ---------------------------------------------------------------------------
# the store of derived data
# ---------------------------------------------------------------------------


def derived(obj, key, make=None):
    """obj's entry under key in its store, made by make() on the first call
    and kept; if make raises nothing is kept.  With no make the entry is only
    read (None if not made).  The store is a dict in the attribute _derived,
    set on the first entry, so an object that never uses it costs nothing.
    Keys are a name, or (name, sigma) for data that depends on a twist."""
    try:
        return obj._derived[key]
    except (AttributeError, KeyError):
        if make is None:
            return None
    store = getattr(obj, "_derived", None)
    if store is None:
        store = {}
        object.__setattr__(obj, "_derived", store)
    value = store[key] = make()
    return value


# ---------------------------------------------------------------------------
# linear maps (sparse columns)
# ---------------------------------------------------------------------------


def _sparse(vec) -> tuple:
    """The nonzero (k, c) of a dense vector, in order of k."""
    return tuple((k, c) for k, c in enumerate(vec) if c)


def _sorted_nonzero(acc: dict) -> tuple:
    """The nonzero (k, c) of a {k: c} dict, sorted by k."""
    return tuple(sorted(item for item in acc.items() if item[1])) if acc else ()


def _merge(u, v, op, zero) -> tuple:
    """The sparse vector with entries op(u_k, v_k), for sparse vectors u, v
    (tuples of nonzero (k, c)) and op the add or sub of a field."""
    acc = dict(u)
    for k, c in v:
        acc[k] = op(acc.get(k, zero), c)
    return _sorted_nonzero(acc)


class LinMap:
    """Linear map between coordinate spaces (usually one algebra), stored
    only as its sparse columns: columns[j] lists the nonzero (k, c) of the
    image of e_j, sorted by k, c the coefficient of e_k (a raw value of
    field, k below dst_dim).  Every operation works on the columns; rows, the
    dense matrix with entry [k][j] the coefficient of e_k in the image of
    e_j, is a read-only view made anew on each read, for printing and tests.

    The public constructor takes that dense matrix as input values (int, str,
    Fraction), coerces every entry, checks the shape and converts it to
    columns once.  LinMap._trusted takes columns of raw values made by trialg
    itself, never values read from input.  A map keeps in its store (derived)
    its columns lifted to integers over Q (lifted()) and its hash.
    """

    __slots__ = ("field", "src_dim", "dst_dim", "columns", "_derived")

    def __init__(self, field: Field, rows: Iterable[Sequence], src_dim: int | None = None,
                 dst_dim: int | None = None):
        rows = [tuple(field.coerce(v) for v in row) for row in rows]
        ncols = len(rows[0]) if rows else src_dim or 0
        for row in rows:
            if len(row) != ncols:
                raise ShapeMismatch("ragged rows")
        expected = (len(rows) if dst_dim is None else dst_dim, ncols if src_dim is None else src_dim)
        if (len(rows), ncols) != expected:
            raise DimMismatch("map matrix is %dx%d, expected %dx%d" % ((len(rows), ncols) + expected))
        self._set(field, tuple(map(_sparse, zip(*rows))) if rows else ((),) * ncols, len(rows))

    def _set(self, field: Field, columns: tuple, dst_dim: int):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "src_dim", len(columns))
        object.__setattr__(self, "dst_dim", dst_dim)
        object.__setattr__(self, "columns", columns)

    @classmethod
    def _trusted(cls, field: Field, columns: Iterable[Sequence], dst_dim: int) -> "LinMap":
        """The map with these columns of raw values of field, in the form of
        LinMap.columns, taken as they are: no coercion and no check."""
        self = object.__new__(cls)
        self._set(field, tuple(map(tuple, columns)), dst_dim)
        return self

    def __setattr__(self, *a):
        raise AttributeError("LinMap is immutable")

    @staticmethod
    def identity(field: Field, n: int) -> "LinMap":
        one = field.one
        return LinMap._trusted(field, [((j, one),) for j in range(n)], n)

    @staticmethod
    def from_images(field: Field, images: list, src_dim: int, dst_dim: int) -> "LinMap":
        """Build a src_dim -> dst_dim map from the list of basis-vector
        images, coerced entry by entry."""
        if len(images) != src_dim or any(len(img) != dst_dim for img in images):
            raise DimMismatch("images do not fit a %d -> %d map" % (src_dim, dst_dim))
        coerce = field.coerce
        return LinMap._trusted(field, (_sparse(map(coerce, img)) for img in images), dst_dim)

    def lifted(self) -> tuple:
        """The integer form (den, ints) of the columns (see integer_form): over
        F_p (1, the columns themselves), over Q made once and kept in the store."""
        if self.field.characteristic:
            return 1, self.columns
        return derived(self, "lifted", self._lift)

    def _lift(self) -> tuple:
        den, (ints,) = _lift((self.columns,))
        return den, ints

    def _sparse_rows(self) -> list:
        """The rows of the matrix as sparse {j: c} dicts, each in order of j."""
        rows = [{} for _ in range(self.dst_dim)]
        for j, col in enumerate(self.columns):
            for k, c in col:
                rows[k][j] = c
        return rows

    @property
    def rows(self) -> tuple:
        """The dense matrix, made anew on each read."""
        zero, n = self.field.zero, self.src_dim
        return tuple(tuple(_dense(zero, n, row.items())) for row in self._sparse_rows())

    def image_of_basis(self, j: int) -> tuple:
        """Column j as a dense vector: the image of e_j."""
        return tuple(_dense(self.field.zero, self.dst_dim, self.columns[j]))

    def apply(self, vec: Sequence) -> tuple:
        if len(vec) != self.src_dim:
            raise ShapeMismatch("apply %dx%d to vector of length %d" % (self.dst_dim, self.src_dim, len(vec)))
        add, mul, coerce = self.field.add, self.field.mul, self.field.coerce
        out = [self.field.zero] * self.dst_dim
        for w, col in zip(map(coerce, vec), self.columns):
            if w:
                for k, c in col:
                    out[k] = add(out[k], mul(c, w))
        return tuple(out)

    def compose(self, other: "LinMap") -> "LinMap":
        """self after other."""
        if other.dst_dim != self.src_dim:
            raise DimMismatch("compose %d->%d after %d->%d"
                              % (self.src_dim, self.dst_dim, other.src_dim, other.dst_dim))
        self._check(other)
        # column j of the product is self applied to column j of other
        add, mul, zero = self.field.add, self.field.mul, self.field.zero
        cols = self.columns
        images = []
        for col in other.columns:
            acc = {}
            for k, c in col:
                for l, v in cols[k]:
                    acc[l] = add(acc.get(l, zero), mul(c, v))
            images.append(_sorted_nonzero(acc))
        return LinMap._trusted(self.field, images, self.dst_dim)

    def _check(self, other: "LinMap", op: str | None = None):
        """Both maps over one field, and for op (add or sub) of one shape."""
        if self.field != other.field:
            raise FieldMismatch("mixed fields %r / %r" % (self.field, other.field))
        if op and (self.dst_dim, self.src_dim) != (other.dst_dim, other.src_dim):
            raise ShapeMismatch("%s %dx%d and %dx%d"
                                % (op, self.dst_dim, self.src_dim, other.dst_dim, other.src_dim))

    def _merged(self, other: "LinMap", op, name: str) -> "LinMap":
        self._check(other, name)
        zero = self.field.zero
        return LinMap._trusted(self.field, (_merge(u, v, op, zero) for u, v in zip(self.columns, other.columns)),
                               self.dst_dim)

    def __add__(self, other: "LinMap") -> "LinMap":
        return self._merged(other, self.field.add, "add")

    def __sub__(self, other: "LinMap") -> "LinMap":
        return self._merged(other, self.field.sub, "sub")

    def __neg__(self) -> "LinMap":
        neg = self.field.neg
        return LinMap._trusted(self.field, (tuple((k, neg(c)) for k, c in col) for col in self.columns),
                               self.dst_dim)

    def inverse(self) -> "LinMap":
        """Exact inverse of a square map; NotInvertible if it is singular.

        The sparse rows of [self | I] are reduced once: the map is invertible
        exactly when the pivot columns are 0, ..., n-1, and pivot row i over
        its lead then holds row i of the inverse in columns n, ..., 2n-1.
        """
        n = self.dst_dim
        if n != self.src_dim:
            raise ShapeMismatch("inverse of non-square matrix")
        field = self.field
        rows = self._sparse_rows()
        for i, row in enumerate(rows):
            row[n + i] = field.one
        pivots = _sparse_reduce(field, rows, 2 * n)
        if any(c >= n for c in pivots):
            raise NotInvertible("map is not invertible")
        cols = [[] for _ in range(n)]
        for i, row in pivots.items():
            for c, v in field_values(field.characteristic, row[i], row).items():
                if c >= n:
                    cols[c - n].append((i, v))
        return LinMap._trusted(field, cols, n)

    def rank(self) -> int:
        """The rank, as the number of pivots of the column space."""
        return len(_sparse_reduce(self.field, map(dict, self.columns), self.dst_dim))

    def is_bijective(self) -> bool:
        return self.src_dim == self.dst_dim and self.rank() == self.src_dim

    def is_identity(self) -> bool:
        return self.src_dim == self.dst_dim and self == LinMap.identity(self.field, self.src_dim)

    def is_zero(self) -> bool:
        return not any(self.columns)

    def kernel(self) -> "Subspace":
        """{v : self v = 0}, with its canonical RREF basis."""
        return kernel_sparse(self.field, self._sparse_rows(), self.src_dim)

    def image(self) -> "Subspace":
        return Subspace._from_rows(self.field, self.dst_dim, map(dict, self.columns))

    def __eq__(self, other):
        return (
            isinstance(other, LinMap)
            and self.field == other.field
            and self.dst_dim == other.dst_dim
            and self.columns == other.columns
        )

    def __hash__(self):
        return derived(self, "hash", lambda: hash((self.field, self.dst_dim, self.columns)))

    def to_json(self):
        fmt = self.field.format
        return {"convention": "image-in-columns", "matrix": [[fmt(v) for v in row] for row in self.rows]}

    def __repr__(self):
        return "LinMap(%d -> %d)" % (self.src_dim, self.dst_dim)


# ---------------------------------------------------------------------------
# the integer form: the only passages between field values and Python ints
# ---------------------------------------------------------------------------
#
# The integer form of field values is (den, ints), ints = den * the values
# entry by entry, in the same shape: over F_p den = 1 and ints are the
# residues themselves, shared and kept nowhere; over Q den is the least common
# denominator.


def _lift(rows) -> tuple:
    """(den, ints) over Q of rows of sparse vectors of Fractions."""
    den = lcm(*[c.denominator for row in rows for vec in row for _, c in vec])
    return den, tuple(tuple(tuple((k, c.numerator * (den // c.denominator)) for k, c in vec) if vec else ()
                            for vec in row)
                      for row in rows)


def integer_form(p: int, table) -> tuple:
    """The integer form of a product table (rows of sparse vectors) over the
    field of characteristic p, kept in its store (derived) over Q; a map's is
    LinMap.lifted().  No table (None) has the form (1, None)."""
    if p or table is None:
        return 1, table
    return derived(table, "lifted", lambda: _lift(table))


def integer_vector(p: int, values) -> tuple:
    """The integer form of a dense vector of field values (ints a list), made
    anew over Q."""
    if p:
        return 1, values
    den = lcm(*[v.denominator for v in values])
    return den, [v.numerator * (den // v.denominator) for v in values]


def is_nonzero(p: int, acc: dict) -> bool:
    """Whether an integer accumulator {k: int} is nonzero in the field (over F_p, mod p)."""
    return any(acc.values()) and (not p or any(map(p.__rmod__, acc.values())))


def nonzero_rows(p: int, rows: dict) -> dict:
    """The integer accumulators of a block {key: acc}, keys ascending, each with
    the entries that vanish in the field dropped (over F_p, the residues of the
    others), and without the rows left empty: one call per block, not per row."""
    out = {}
    for key in sorted(rows):
        acc = rows[key]  # an empty one costs no comprehension
        row = acc and ({k: r for k, v in acc.items() if (r := v % p)} if p else {k: v for k, v in acc.items() if v})
        if row:
            out[key] = row
    return out


def field_values(p: int, den: int, acc: dict) -> dict:
    """The field values acc_k / den of the entries of acc nonzero in the field."""
    if p:
        return {k: v * pow(den, -1, p) % p for k, v in acc.items() if v % p}
    return {k: Fraction(v, den) for k, v in acc.items() if v}


def canonical_row(p: int, row: dict) -> dict:
    """The one form of every nonzero multiple of a sparse row of nonzero ints
    (residues over F_p): monic over F_p, over Q primitive (the gcd of the
    entries divided out) with a positive lead, the entry at the least column."""
    lead = row[min(row)]
    if p:
        s = pow(lead, p - 2, p)
        return row if s == 1 else {c: v * s % p for c, v in row.items()}
    g = gcd(*row.values())
    if lead < 0:
        g = -g
    return row if g == 1 else {c: v // g for c, v in row.items()}


def _integer_row(p: int, raw) -> dict:
    """The canonical_row of the integer form of a sparse row of field values,
    lifted as by integer_vector in the pass that drops its zeros (a hot path)."""
    if p:
        return canonical_row(p, {c: v for c, v in raw.items() if v})
    den = lcm(*[v.denominator for v in raw.values()])
    return canonical_row(p, {c: v.numerator * (den // v.denominator) for c, v in raw.items() if v})


# ---------------------------------------------------------------------------
# row reduction engine
# ---------------------------------------------------------------------------
#
# Rows are sparse {column: value} dicts.  _peel takes out the columns that
# single-entry rows force, with no arithmetic.  narrowed_kernel narrows the
# unit vectors on the other columns by the multi-entry core left, with a
# column -> vectors index to find the vectors a row meets; any kernel basis
# will do, as Subspace._from_rows makes the canonical one.  _sparse_reduce
# reduces the core by online Gauss-Jordan (see the module docstring), with a
# column -> pivot-rows index to find the rows a new pivot column must be
# cleared from; it is kept for spans and ranks, and its output is the unique
# RREF of the row space, independent of input order, as integer pivot rows
# in ascending pivot column.  The callers that need field values make them
# (field_values).


class IntegerRows:
    """Sparse rows whose entries are Python ints: over Q each one a nonzero
    integer multiple of the row of field values it stands for, over F_p
    residues in [0, p).  algcore.product_rule_rows builds such rows, and
    narrowed_kernel and _sparse_reduce read them straight as integers,
    without the denominator pass of _integer_row."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = rows

    def __iter__(self):
        return iter(self.rows)


def _combine(row: dict, a: int, piv: dict, b: int, p: int):
    """row = b' * row - a' * piv for integer rows, in place, with a' = a / g,
    b' = b / g for g = gcd(a, b): the combination that cancels a, a linear
    form of row, against b, the same form of piv (an entry, or a dot product).

    Over F_p b is 1 and row -= a * piv, each entry reduced mod p.  Over Q a
    step with b' != 1 scales the row by b', a factor the result often still
    shares, so only after such a step is the row's gcd taken and divided out
    (lazy content).
    """
    if p:
        for k, v in piv.items():
            nv = (row.get(k, 0) - a * v) % p
            if nv:
                row[k] = nv
            else:
                row.pop(k, None)
        return
    if b != 1:
        g = gcd(a, b)
        a, b = a // g, b // g
        if b != 1:
            for k in row:
                row[k] *= b
    for k, v in piv.items():
        nv = row.get(k, 0) - a * v
        if nv:
            row[k] = nv
        else:
            row.pop(k, None)
    if b != 1 and row:
        g = gcd(*row.values())
        if g != 1:
            for k in row:
                row[k] //= g


def _eliminate(row: dict, c: int, piv: dict, p: int):
    """Clear column c of an integer row with the pivot row piv, in place: a
    _combine at their entries there, the pivot monic over F_p and of positive
    lead over Q."""
    _combine(row, row[c], piv, piv[c], p)


def _peel(rows) -> tuple[set, list]:
    """(forced, core) of sparse rows, read once: the columns forced by rows
    left with one nonzero entry once the forced columns are dropped, found by
    passes until none is forced anew, and the other nonzero rows, each a new
    dict without its forced entries."""
    forced, core = set(), []
    for raw in rows:
        row = raw if all(raw.values()) else {c: v for c, v in raw.items() if v}
        if len(row) > 1:
            core.append(dict(row))
        else:
            forced.update(row)
    known = -1
    while known < len(forced):
        known, kept = len(forced), []
        for row in core:
            if forced.isdisjoint(row):
                kept.append(row)
                continue
            live = [c for c in row if c not in forced]
            if len(live) > 1:
                kept.append({c: row[c] for c in live})
            elif live:
                forced.add(live[0])
        core = kept
    return forced, core


def _sparse_reduce(field: Field, rows, ncols: int) -> dict[int, dict]:
    """The RREF of the sparse rows as integer pivot rows {pivot column: row},
    in ascending pivot column: each the canonical_row of its RREF row
    (primitive with a positive lead over Q, monic over F_p), so that
    field_values(p, row[c], row) is the RREF row at c.

    Each column _peel forces is the pivot row {f: 1}.  The core goes through
    online Gauss-Jordan on its canonical integer forms (canonical_row, through
    _integer_row for rows of field values); a row in the span of the pivot
    rows so far, a repeat say, is cleared to zero and dropped.  The pivot rows
    stay fully reduced: a new row is cleared of every pivot column it holds
    (and brought back to its canonical form, which a row no pivot touched
    still has), and its own pivot column c is then cleared from the earlier
    pivot rows that hold it.  holders[c] names them: a pivot row is listed
    under each column it gains, and stays listed when its entry there cancels
    later, so each name is checked on use.
    """
    p = field.characteristic
    integer = isinstance(rows, IntegerRows)
    forced, core = _peel(rows)
    pivots: dict[int, dict] = {f: {f: 1} for f in forced}
    holders: defaultdict[int, list] = defaultdict(list)
    for row in core:
        row = canonical_row(p, row) if integer else _integer_row(p, row)
        hits = [k for k in row if k in pivots]
        if hits:
            for k in hits:
                _eliminate(row, k, pivots[k], p)
            if not row:
                continue
            row = canonical_row(p, row)
        c = min(row)
        others = [k for k in row if k != c]
        for k in others:
            holders[k].append(c)
        for lead in holders.pop(c, ()):
            piv = pivots[lead]
            if c in piv:
                for k in others:
                    if k not in piv:
                        holders[k].append(lead)
                _eliminate(piv, c, row, p)
        pivots[c] = row
    # _eliminate takes no gcd after a step by a pivot of lead 1: a row of lead above 1 may share one
    return {c: row if row[c] == 1 else canonical_row(p, row) for c, row in sorted(pivots.items())}


def _dense(zero, n: int, entries) -> list:
    """The length-n list holding these (column, value) entries, zero elsewhere."""
    vec = [zero] * n
    for k, v in entries:
        vec[k] = v
    return vec


def integer_kernel(field: Field, pivots: dict[int, dict], ncols: int) -> list[dict]:
    """Kernel basis of a system already reduced by _sparse_reduce, as sparse
    IntegerRows rows read straight off its integer pivot rows: per free column
    f, the vector with 1 at f and minus column f of the RREF rows, times the
    lcm den of the leads of the pivot rows that hold f (1 over F_p).  Handed
    the RREF of a basis of a space W, it returns a basis of the annihilator
    of W, whose own annihilator is W again: spaces._biderivation_space reads
    its second-slot conditions off Der_sigma this way.  A kernel of
    constraint rows is narrowed_kernel's."""
    p = field.characteristic
    cols = {f: [] for f in range(ncols) if f not in pivots}
    for c, row in pivots.items():
        for k, v in row.items():
            if k != c:
                cols[k].append((c, v))
    dens = {f: lcm(*[pivots[c][c] for c, _ in col]) for f, col in cols.items()}
    return [{f: dens[f], **{c: p - v if p else -v * (dens[f] // pivots[c][c]) for c, v in col}}
            for f, col in cols.items()]


def narrowed_kernel(field: Field, rows, ncols: int) -> list[dict]:
    """A kernel basis of sparse constraint rows below ncols, as IntegerRows
    rows: over Q integer vectors, over F_p residues.

    It starts from the unit vectors e_f on the columns f that _peel does not
    force and narrows them by each core row in turn.  The dot products of the
    row with the vectors that hold one of its columns (touch, a column ->
    vectors index kept exact) are taken; if all vanish the row is skipped.
    Else the vector j of fewest entries among those the row does not
    annihilate is combined into each other such vector i, so that the row
    annihilates it, and dropped: _combine at their dot products, over Q
    fraction-free with lazy content, over F_p on residues.
    """
    p = field.characteristic
    lift = not p and not isinstance(rows, IntegerRows)
    forced, core = _peel(rows)
    vecs = {f: {f: 1} for f in range(ncols) if f not in forced}
    touch = {f: {f} for f in vecs}
    for row in core:
        if lift:
            row = _integer_row(0, row)
        dots = defaultdict(int)
        for c, a in row.items():
            for i in touch[c]:
                dots[i] += a * vecs[i][c]
        live = [i for i, d in dots.items() if (d % p if p else d)]
        if not live:
            continue
        j = min(live, key=lambda i: (len(vecs[i]), i))
        vj, b = vecs.pop(j), dots[j]
        for k in vj:
            touch[k].discard(j)
        s = pow(b, -1, p) if p else None
        for i in live:
            if i != j:
                vi = vecs[i]
                _combine(vi, dots[i] * s % p if p else dots[i], vj, b, p)
                for k in vj:
                    if k in vi:
                        touch[k].add(i)
                    else:
                        touch[k].discard(i)
    return list(vecs.values())


def kernel_sparse(field: Field, rows, ncols: int) -> "Subspace":
    """Kernel of a linear system given as sparse constraint rows, with its
    canonical RREF basis: the basis narrowed_kernel narrows, reduced by
    Subspace._from_rows."""
    return Subspace._from_rows(field, ncols, IntegerRows(narrowed_kernel(field, rows, ncols)))


def span_coefficients(field: Field, vectors: Sequence[Iterable], target: Iterable) -> tuple | None:
    """Coefficients c with sum_i c[i] * vectors[i] = target, zero at every
    free index, or None when target is not in the span of the vectors; each
    vector and the target given as blocks of sparse (k, c) entries of raw
    values (a LinMap's columns, say), entry (k, c) of block t at coordinate
    (t, k).  The transposed system is reduced with the target as column
    ncols = len(vectors), its rows built only where some vector or the target
    is nonzero, as the other rows are zero; the target values are taken as
    they are."""
    ncols, zero = len(vectors), field.zero
    rows = defaultdict(dict)
    for i, vec in enumerate((*vectors, target)):
        for t, block in enumerate(vec):
            for k, v in block:
                rows[t, k][i] = v
    pivots = _sparse_reduce(field, (rows[c] for c in sorted(rows)), ncols + 1)
    if ncols in pivots:
        return None
    x = [zero] * ncols
    for c, row in pivots.items():
        x[c] = field_values(field.characteristic, row[c], row).get(ncols, zero)
    return tuple(x)


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------


def _coerced(field: Field, n: int, vec: Sequence) -> tuple:
    """The nonzero entries of a dense vector of input values, coerced, in an
    ambient space of dim n: the way in of the dense edges of Subspace."""
    vec = tuple(map(field.coerce, vec))
    if len(vec) != n:
        raise AmbientMismatch("vector length %d in ambient %d" % (len(vec), n))
    return _sparse(vec)


class Subspace:
    """Span of vectors, stored as its unique RREF basis in sparse form.

    rows holds the RREF rows in pivot order, each a tuple of the nonzero
    (column, value) sorted by column, and pivots their pivot columns.  Every
    method works on rows: reduce(entries) is the one reduction of a sparse
    vector against them, inclusion() the map from basis coordinates into the
    ambient space.  basis, the rows as dense vectors, is a read-only view made
    on first read and kept in the store (derived), a dense edge like
    from_vectors, contains_vector, coords and combine.
    """

    __slots__ = ("field", "ambient_dim", "rows", "pivots", "_derived")

    def __init__(self, field: Field, ambient_dim: int, rows: tuple, pivots: tuple):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "pivots", pivots)

    def __setattr__(self, *a):
        raise AttributeError("Subspace is immutable")

    @staticmethod
    def from_vectors(field: Field, ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        return Subspace._from_rows(field, ambient_dim, (dict(_coerced(field, ambient_dim, v)) for v in vectors))

    @staticmethod
    def _from_rows(field: Field, ambient_dim: int, rows) -> "Subspace":
        """The span of sparse rows {column: raw value of field} below
        ambient_dim, taken as they are (no coercion, no length check)."""
        p, pivots = field.characteristic, _sparse_reduce(field, rows, ambient_dim)
        return Subspace(field, ambient_dim,
                        tuple(tuple(sorted(field_values(p, row[c], row).items())) for c, row in pivots.items()),
                        tuple(pivots))

    @staticmethod
    def full(field: Field, ambient_dim: int) -> "Subspace":
        return Subspace(field, ambient_dim, tuple(((c, field.one),) for c in range(ambient_dim)),
                        tuple(range(ambient_dim)))

    @property
    def basis(self) -> tuple:
        """The RREF rows as dense ambient vectors, made once."""
        return derived(self, "basis", lambda: tuple(tuple(_dense(self.field.zero, self.ambient_dim, row))
                                                    for row in self.rows))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def is_zero(self) -> bool:
        return not self.rows

    def _check(self, other: "Subspace"):
        if self.field != other.field:
            raise FieldMismatch("mixed fields")
        if self.ambient_dim != other.ambient_dim:
            raise AmbientMismatch("ambient %d vs %d" % (self.ambient_dim, other.ambient_dim))

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self.rows == other.rows
        )

    def reduce(self, entries) -> dict:
        """{k: c}, the nonzero entries of v - sum_k v[p_k] * b_k for the vector
        v with these (k, c) entries (raw values, k below ambient_dim), over the
        RREF rows b_k and their pivots p_k: empty exactly when v lies in the
        span, and linear in v.  Only the rows at pivots v holds are read; no
        row holds another's pivot, so v[p_k] is unchanged until row k."""
        sub, mul, zero = self.field.sub, self.field.mul, self.field.zero
        at = derived(self, "at_pivot", lambda: dict(zip(self.pivots, self.rows)))
        vec = dict(entries)
        for p in [k for k in vec if k in at]:
            c = vec[p]
            if c:
                for k, v in at[p]:
                    vec[k] = sub(vec.get(k, zero), mul(c, v))
        return {k: c for k, c in vec.items() if c}

    def holds(self, vectors) -> bool:
        """Whether every vector, each given by its (k, c) entries as in reduce
        (the columns of a LinMap, the rows of a Subspace), lies in the span."""
        return not any(map(self.reduce, vectors))

    def try_coords(self, entries) -> tuple | None:
        """Coefficients in the RREF basis of the vector with these (k, c)
        entries, its entries at the pivots, or None if it is not in the span."""
        vec = dict(entries)
        return None if self.reduce(vec.items()) else tuple(vec.get(p, self.field.zero) for p in self.pivots)

    def inclusion(self) -> LinMap:
        """The map from coordinates in the RREF basis into the ambient space,
        column k the row b_k; f.compose(sub.inclusion()).image() is f(sub)."""
        return derived(self, "inclusion", lambda: LinMap._trusted(self.field, self.rows, self.ambient_dim))

    # -- dense edges: vectors of input values, for element-level callers ------

    def combine(self, coeffs: Sequence) -> tuple:
        """The ambient vector sum_k coeffs[k] * b_k over the RREF rows b_k,
        one coefficient per row: the inclusion applied to coeffs."""
        if len(coeffs) != self.dim:
            raise ShapeMismatch("%d coefficients for a %d-dim subspace" % (len(coeffs), self.dim))
        return self.inclusion().apply(coeffs)

    def coords(self, vec: Sequence) -> tuple:
        """try_coords of a dense vector, NotInSpan if it is not in the span."""
        c = self.try_coords(_coerced(self.field, self.ambient_dim, vec))
        if c is None:
            raise NotInSpan("vector is not in the span")
        return c

    def contains_vector(self, vec: Sequence) -> bool:
        return not self.reduce(_coerced(self.field, self.ambient_dim, vec))

    def contains(self, other: "Subspace") -> bool:
        self._check(other)
        return self.holds(other.rows)

    def sum(self, other: "Subspace") -> "Subspace":
        self._check(other)
        return Subspace._from_rows(self.field, self.ambient_dim, map(dict, self.rows + other.rows))

    def intersect(self, other: "Subspace") -> "Subspace":
        """Intersection: the combinations sum_j y_j c_j of the rows c_j of
        other that lie in self, where y runs over the kernel of the map
        y -> reduce(sum_j y_j c_j) (reduce is linear), carried into the
        ambient space by the inclusion of other."""
        self._check(other)
        residues = LinMap._trusted(self.field, (_sorted_nonzero(self.reduce(row)) for row in other.rows),
                                   self.ambient_dim)
        return other.inclusion().compose(residues.kernel().inclusion()).image()

    def to_json(self):
        """Rows written densely, the zero formatted once."""
        fmt = self.field.format
        zero, n = fmt(self.field.zero), self.ambient_dim
        return {
            "ambient_dim": n,
            "dim": self.dim,
            "pivots": list(self.pivots),
            "basis": [_dense(zero, n, [(k, fmt(v)) for k, v in row]) for row in self.rows],
        }

    def __repr__(self):
        return "Subspace(dim=%d, ambient=%d)" % (self.dim, self.ambient_dim)
