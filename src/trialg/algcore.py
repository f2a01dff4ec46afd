"""Finite-dimensional algebras, bimodules, and the triangular construction.

An algebra is a structure-constant tensor ``mul[i][j][k]`` (coefficient of
``e_k`` in ``e_i * e_j``) together with the coefficient vector of its unit;
associativity and the unit laws are checked at construction.  A triangular
algebra Trian(A, M, B) is assembled from two algebras and an (A, B)-bimodule
into one total algebra carrying the Peirce idempotents p and q.

Also here: centers and twisted centers, annihilators and faithfulness, the
faithful quotient, nilpotency, the Koethe/Jacobson radical via the trace form,
and exhaustive idempotent-based structure checks over small prime fields.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field as dc_field

from .errors import (
    BudgetExceeded,
    CharTooSmall,
    DimMismatch,
    FieldMismatch,
    InputError,
    NonAssociative,
    NotFaithful,
    NotInvertible,
    TheoremViolation,
    UnitLawViolation,
    ZeroModule,
)
from .exactla import Field, Mat, Subspace, kernel_sparse

DEFAULT_BUDGET = 10**6


def enumeration_budget() -> int:
    """Element-enumeration budget; override with TRIALG_BUDGET."""
    raw = os.environ.get("TRIALG_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    try:
        return int(raw)
    except ValueError as exc:
        raise InputError("TRIALG_BUDGET must be an integer, got %r" % (raw,)) from exc


class FinAlgebra:
    """Unital associative algebra given by structure constants."""

    __slots__ = ("field", "dim", "basis_names", "mul", "unit", "_pairs", "_left_mats", "_right_mats",
                 "_automorphisms")

    def __init__(self, field: Field, mul, unit, basis_names=None, check: bool = True):
        dim = len(mul)
        mul = tuple(
            tuple(tuple(field.coerce(c) for c in vec) for vec in row) for row in mul
        )
        for row in mul:
            if len(row) != dim or any(len(vec) != dim for vec in row):
                raise DimMismatch("structure tensor is not dim^3")
        unit = tuple(field.coerce(c) for c in unit)
        if len(unit) != dim:
            raise DimMismatch("unit vector length %d for dim %d" % (len(unit), dim))
        if basis_names is None:
            basis_names = tuple("e%d" % i for i in range(dim))
        else:
            basis_names = tuple(str(n) for n in basis_names)
            if len(basis_names) != dim:
                raise DimMismatch("need %d basis names" % dim)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "basis_names", basis_names)
        object.__setattr__(self, "mul", mul)
        object.__setattr__(self, "unit", unit)
        pairs = tuple(
            tuple(tuple((k, c) for k, c in enumerate(vec) if c) for vec in row)
            for row in mul
        )
        object.__setattr__(self, "_pairs", pairs)
        object.__setattr__(self, "_left_mats", {})
        object.__setattr__(self, "_right_mats", {})
        # matrices of maps that sigmamaps.require_automorphism verified on this instance
        object.__setattr__(self, "_automorphisms", set())
        if check:
            self._validate()

    def __setattr__(self, *a):
        raise AttributeError("FinAlgebra is immutable")

    # -- construction checks ------------------------------------------------

    def _validate(self):
        dim = self.dim
        for i in range(dim):
            ei = self.basis_vector(i)
            if self.mul_vec(self.unit, ei) != ei or self.mul_vec(ei, self.unit) != ei:
                raise UnitLawViolation(i)
        for i in range(dim):
            for j in range(dim):
                ij = self.mul[i][j]
                for k in range(dim):
                    left = self.mul_vec(ij, self.basis_vector(k))
                    right = self.mul_vec(self.basis_vector(i), self.mul[j][k])
                    if left != right:
                        raise NonAssociative(i, j, k)

    # -- vector arithmetic ----------------------------------------------------

    def basis_vector(self, i: int) -> tuple:
        zero, one = self.field.zero, self.field.one
        return tuple(one if k == i else zero for k in range(self.dim))

    def zero_vector(self) -> tuple:
        return tuple([self.field.zero] * self.dim)

    def coerce_vector(self, vec) -> tuple:
        vec = tuple(self.field.coerce(v) for v in vec)
        if len(vec) != self.dim:
            raise DimMismatch("vector length %d for dim %d" % (len(vec), self.dim))
        return vec

    def mul_vec(self, x, y) -> tuple:
        field = self.field
        zero, add, mul = field.zero, field.add, field.mul
        acc = [zero] * self.dim
        pairs = self._pairs
        for i, xi in enumerate(x):
            if not xi:
                continue
            row = pairs[i]
            for j, yj in enumerate(y):
                if not yj:
                    continue
                f = mul(xi, yj)
                for k, c in row[j]:
                    acc[k] = add(acc[k], mul(f, c))
        return tuple(acc)

    def add_vec(self, x, y) -> tuple:
        add = self.field.add
        return tuple(add(a, b) for a, b in zip(x, y))

    def sub_vec(self, x, y) -> tuple:
        sub = self.field.sub
        return tuple(sub(a, b) for a, b in zip(x, y))

    def smul_vec(self, c, x) -> tuple:
        c = self.field.coerce(c)
        mul = self.field.mul
        return tuple(mul(c, v) for v in x)

    def commutator(self, x, y) -> tuple:
        return self.sub_vec(self.mul_vec(x, y), self.mul_vec(y, x))

    def power(self, x, k: int) -> tuple:
        acc = self.unit
        for _ in range(k):
            acc = self.mul_vec(acc, x)
        return acc

    def left_mul_mat(self, x) -> Mat:
        """Matrix of y -> x*y (columns are images of basis vectors)."""
        cols = [self.mul_vec(x, self.basis_vector(j)) for j in range(self.dim)]
        return Mat(self.field, list(zip(*cols)) if cols else [], self.dim)

    def right_mul_mat(self, x) -> Mat:
        cols = [self.mul_vec(self.basis_vector(j), x) for j in range(self.dim)]
        return Mat(self.field, list(zip(*cols)) if cols else [], self.dim)

    def basis_left_mat(self, i: int) -> Mat:
        m = self._left_mats.get(i)
        if m is None:
            m = self.left_mul_mat(self.basis_vector(i))
            self._left_mats[i] = m
        return m

    def basis_right_mat(self, i: int) -> Mat:
        m = self._right_mats.get(i)
        if m is None:
            m = self.right_mul_mat(self.basis_vector(i))
            self._right_mats[i] = m
        return m

    def invert(self, x) -> tuple:
        """Two-sided inverse of x, or NotInvertible."""
        from .exactla import solve_linear

        y = solve_linear(self.left_mul_mat(x), self.unit)
        if y is None or self.mul_vec(y, x) != self.unit:
            raise NotInvertible("element has no inverse")
        return y

    def is_commutative(self) -> bool:
        zero = self.zero_vector()
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                if self.commutator(self.basis_vector(i), self.basis_vector(j)) != zero:
                    return False
        return True

    def element(self, vec) -> "AlgebraElement":
        return AlgebraElement(self, self.coerce_vector(vec))

    def format_vector(self, vec) -> str:
        field = self.field
        terms = []
        for name, v in zip(self.basis_names, vec):
            if v == field.zero:
                continue
            s = field.format(v)
            if s == "1":
                terms.append(name)
            elif s == "-1":
                terms.append("-" + name)
            else:
                terms.append("%s*%s" % (s, name))
        if not terms:
            return "0"
        out = terms[0]
        for t in terms[1:]:
            out += (" - " + t[1:]) if t.startswith("-") else (" + " + t)
        return out

    def __eq__(self, other):
        return (
            isinstance(other, FinAlgebra)
            and self.field == other.field
            and self.mul == other.mul
            and self.unit == other.unit
        )

    def __hash__(self):
        return hash((self.field, self.mul, self.unit))

    def __repr__(self):
        return "FinAlgebra(dim=%d, field=%r)" % (self.dim, self.field)


class AlgebraElement:
    """Element of a FinAlgebra with operator arithmetic (convenience wrapper)."""

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra: FinAlgebra, coeffs):
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "coeffs", algebra.coerce_vector(coeffs))

    def __setattr__(self, *a):
        raise AttributeError("AlgebraElement is immutable")

    def _peer(self, other) -> tuple:
        if isinstance(other, AlgebraElement):
            if other.algebra != self.algebra:
                raise FieldMismatch("elements of different algebras")
            return other.coeffs
        return self.algebra.coerce_vector(other)

    def __add__(self, other):
        return AlgebraElement(self.algebra, self.algebra.add_vec(self.coeffs, self._peer(other)))

    def __sub__(self, other):
        return AlgebraElement(self.algebra, self.algebra.sub_vec(self.coeffs, self._peer(other)))

    def __mul__(self, other):
        if isinstance(other, AlgebraElement) or (isinstance(other, (tuple, list)) and len(other) == self.algebra.dim):
            return AlgebraElement(self.algebra, self.algebra.mul_vec(self.coeffs, self._peer(other)))
        return AlgebraElement(self.algebra, self.algebra.smul_vec(other, self.coeffs))

    def __rmul__(self, other):
        return AlgebraElement(self.algebra, self.algebra.smul_vec(other, self.coeffs))

    def __neg__(self):
        return AlgebraElement(self.algebra, self.algebra.smul_vec(self.algebra.field.neg(self.algebra.field.one), self.coeffs))

    def __eq__(self, other):
        if isinstance(other, AlgebraElement):
            return self.algebra == other.algebra and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash((self.algebra, self.coeffs))

    def is_zero(self) -> bool:
        return all(v == self.algebra.field.zero for v in self.coeffs)

    def inverse(self) -> "AlgebraElement":
        return AlgebraElement(self.algebra, self.algebra.invert(self.coeffs))

    def __repr__(self):
        return self.algebra.format_vector(self.coeffs)


def validate_algebra(field: Field, mul, unit, basis_names=None) -> FinAlgebra:
    """Build a FinAlgebra, reporting the first failing axiom triple."""
    return FinAlgebra(field, mul, unit, basis_names, check=True)


# ---------------------------------------------------------------------------
# bimodules and the triangular construction
# ---------------------------------------------------------------------------


class Bimodule:
    """(A, B)-bimodule data: left tensor l[a][m][m'] and right tensor r[m][b][m']."""

    __slots__ = ("field", "dim_a", "dim_m", "dim_b", "left", "right", "basis_names")

    def __init__(self, field: Field, dim_a: int, dim_m: int, dim_b: int, left, right, basis_names=None):
        left = tuple(tuple(tuple(field.coerce(c) for c in vec) for vec in row) for row in left)
        right = tuple(tuple(tuple(field.coerce(c) for c in vec) for vec in row) for row in right)
        if len(left) != dim_a or any(len(row) != dim_m or any(len(v) != dim_m for v in row) for row in left):
            raise DimMismatch("left action tensor must be dimA x dimM x dimM")
        if len(right) != dim_m or any(len(row) != dim_b or any(len(v) != dim_m for v in row) for row in right):
            raise DimMismatch("right action tensor must be dimM x dimB x dimM")
        if basis_names is None:
            basis_names = tuple("m%d" % i for i in range(dim_m))
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "dim_a", dim_a)
        object.__setattr__(self, "dim_m", dim_m)
        object.__setattr__(self, "dim_b", dim_b)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "basis_names", tuple(basis_names))

    def __setattr__(self, *a):
        raise AttributeError("Bimodule is immutable")

    @staticmethod
    def zero(field: Field, dim_a: int, dim_b: int) -> "Bimodule":
        return Bimodule(field, dim_a, 0, dim_b, [[] for _ in range(dim_a)], [])


class TriAlgebra:
    """Trian(A, M, B) with its total algebra, Peirce idempotents, and block maps."""

    __slots__ = ("A", "M", "B", "total", "p", "q", "range_a", "range_m", "range_b", "_faithful")

    def __init__(self, A: FinAlgebra, M: Bimodule, B: FinAlgebra, total: FinAlgebra):
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "total", total)
        da, dm, db = A.dim, M.dim_m, B.dim
        object.__setattr__(self, "range_a", range(0, da))
        object.__setattr__(self, "range_m", range(da, da + dm))
        object.__setattr__(self, "range_b", range(da + dm, da + dm + db))
        zero = total.field.zero
        p = list(total.zero_vector())
        for i, v in zip(self.range_a, A.unit):
            p[i] = v
        q = list(total.zero_vector())
        for i, v in zip(self.range_b, B.unit):
            q[i] = v
        object.__setattr__(self, "p", tuple(p))
        object.__setattr__(self, "q", tuple(q))
        object.__setattr__(self, "_faithful", [None])
        del zero

    def __setattr__(self, *a):
        raise AttributeError("TriAlgebra is immutable")

    @property
    def dim(self) -> int:
        return self.total.dim

    @property
    def field(self) -> Field:
        return self.total.field

    # -- block plumbing -----------------------------------------------------

    def part_a(self, x) -> tuple:
        return tuple(x[i] for i in self.range_a)

    def part_m(self, x) -> tuple:
        return tuple(x[i] for i in self.range_m)

    def part_b(self, x) -> tuple:
        return tuple(x[i] for i in self.range_b)

    def embed_a(self, a) -> tuple:
        v = list(self.total.zero_vector())
        for i, c in zip(self.range_a, a):
            v[i] = self.field.coerce(c)
        return tuple(v)

    def embed_m(self, m) -> tuple:
        v = list(self.total.zero_vector())
        for i, c in zip(self.range_m, m):
            v[i] = self.field.coerce(c)
        return tuple(v)

    def embed_b(self, b) -> tuple:
        v = list(self.total.zero_vector())
        for i, c in zip(self.range_b, b):
            v[i] = self.field.coerce(c)
        return tuple(v)

    def assemble(self, a, m, b) -> tuple:
        v = list(self.embed_a(a))
        for i, c in zip(self.range_m, m):
            v[i] = self.field.coerce(c)
        for i, c in zip(self.range_b, b):
            v[i] = self.field.coerce(c)
        return tuple(v)

    def element(self, vec) -> AlgebraElement:
        return self.total.element(vec)

    def subspace_a(self) -> Subspace:
        return Subspace.from_vectors(self.field, self.dim, [self.total.basis_vector(i) for i in self.range_a])

    def subspace_m(self) -> Subspace:
        return Subspace.from_vectors(self.field, self.dim, [self.total.basis_vector(i) for i in self.range_m])

    def subspace_b(self) -> Subspace:
        return Subspace.from_vectors(self.field, self.dim, [self.total.basis_vector(i) for i in self.range_b])

    # -- bimodule actions inside the blocks ----------------------------------

    def act_left(self, a, m) -> tuple:
        """a . m for a in A-coordinates, m in M-coordinates."""
        return self.part_m(self.total.mul_vec(self.embed_a(a), self.embed_m(m)))

    def act_right(self, m, b) -> tuple:
        return self.part_m(self.total.mul_vec(self.embed_m(m), self.embed_b(b)))

    def faithfulness(self) -> tuple[bool, bool]:
        cached = self._faithful[0]
        if cached is None:
            ann = annihilators(self)
            cached = (ann.left_faithful, ann.right_faithful)
            self._faithful[0] = cached
        return cached

    def is_faithful(self) -> bool:
        lf, rf = self.faithfulness()
        return lf and rf

    def __eq__(self, other):
        return isinstance(other, TriAlgebra) and self.total == other.total and \
            self.A.dim == other.A.dim and self.B.dim == other.B.dim

    def __hash__(self):
        return hash((self.total, self.A.dim, self.B.dim))

    def __repr__(self):
        return "TriAlgebra(dims=%d+%d+%d, field=%r)" % (self.A.dim, self.M.dim_m, self.B.dim, self.field)


def build_triangular(A: FinAlgebra, M: Bimodule, B: FinAlgebra, allow_zero_m: bool = False,
                     basis_names=None) -> TriAlgebra:
    """Assemble Trian(A, M, B) and validate the total algebra.

    M = 0 is rejected unless allow_zero_m is set (diagonal algebras are only
    meaningful for the block-splitting results).
    """
    if A.field != M.field or B.field != M.field:
        raise FieldMismatch("A, M, B must share one field")
    if M.dim_a != A.dim or M.dim_b != B.dim:
        raise DimMismatch("bimodule tensors sized for (%d, %d), algebras are (%d, %d)"
                          % (M.dim_a, M.dim_b, A.dim, B.dim))
    if M.dim_m == 0 and not allow_zero_m:
        raise ZeroModule("M = 0 requires allow_zero_m=True")
    field = A.field
    da, dm, db = A.dim, M.dim_m, B.dim
    n = da + dm + db
    zero_vec = [field.zero] * n

    def emb(block: int, vec) -> list:
        out = list(zero_vec)
        off = (0, da, da + dm)[block]
        for i, v in enumerate(vec):
            out[off + i] = v
        return out

    mul = [[list(zero_vec) for _ in range(n)] for _ in range(n)]
    for i in range(da):
        for j in range(da):
            mul[i][j] = emb(0, A.mul[i][j])
        for j in range(dm):
            mul[i][da + j] = emb(1, M.left[i][j])
    for i in range(dm):
        for j in range(db):
            mul[da + i][da + dm + j] = emb(1, M.right[i][j])
    for i in range(db):
        for j in range(db):
            mul[da + dm + i][da + dm + j] = emb(2, B.mul[i][j])
    unit = emb(0, A.unit)
    for i, v in enumerate(B.unit):
        unit[da + dm + i] = v
    if basis_names is None:
        basis_names = tuple(A.basis_names) + tuple(M.basis_names) + tuple(B.basis_names)
    total = validate_algebra(field, mul, unit, basis_names)
    tri = TriAlgebra(A, M, B, total)
    _check_peirce(tri)
    return tri


def _check_peirce(tri: TriAlgebra):
    t = tri.total
    p, q = tri.p, tri.q
    if t.mul_vec(p, p) != p or t.mul_vec(q, q) != q:
        raise TheoremViolation("p, q are not idempotent")
    z = t.zero_vector()
    if t.mul_vec(p, q) != z or t.mul_vec(q, p) != z:
        raise TheoremViolation("p, q are not orthogonal")
    if t.add_vec(p, q) != t.unit:
        raise TheoremViolation("p + q != 1")


# ---------------------------------------------------------------------------
# centers
# ---------------------------------------------------------------------------


def center_direct(alg: FinAlgebra) -> Subspace:
    """Kernel of x -> ([e_i, x])_i: the commutant-style center computation."""
    field = alg.field
    zero = field.zero
    rows = []
    for i in range(alg.dim):
        diff = alg.basis_left_mat(i) - alg.basis_right_mat(i)
        for r in diff.rows:
            d = {c: v for c, v in enumerate(r) if v != zero}
            if d:
                rows.append(d)
    return kernel_sparse(field, rows, alg.dim)


def sigma_center_direct(alg: FinAlgebra, sigma_mat: Mat) -> Subspace:
    """Kernel of x -> (sigma(e_i) x - x e_i)_i over all basis vectors."""
    field = alg.field
    zero = field.zero
    rows = []
    for i in range(alg.dim):
        s_ei = sigma_mat.col(i)
        diff = alg.left_mul_mat(s_ei) - alg.basis_right_mat(i)
        for r in diff.rows:
            d = {c: v for c, v in enumerate(r) if v != zero}
            if d:
                rows.append(d)
    return kernel_sparse(field, rows, alg.dim)


def center_T(tri: TriAlgebra) -> Subspace:
    """Center of Trian(A, M, B) from its block description.

    Diagonal pairs (a, b) with a central in A, b central in B, and am = mb on
    every basis m, embedded back into the total algebra.
    """
    field = tri.field
    zero = field.zero
    da, db = tri.A.dim, tri.B.dim
    rows = []
    # membership in Z(A) x Z(B): impose the commutant equations directly
    for i in range(tri.A.dim):
        diff = tri.A.basis_left_mat(i) - tri.A.basis_right_mat(i)
        for r in diff.rows:
            d = {c: v for c, v in enumerate(r) if v != zero}
            if d:
                rows.append(d)
    for i in range(tri.B.dim):
        diff = tri.B.basis_left_mat(i) - tri.B.basis_right_mat(i)
        for r in diff.rows:
            d = {da + c: v for c, v in enumerate(r) if v != zero}
            if d:
                rows.append(d)
    dm = tri.M.dim_m
    # am = mb on every basis m
    for j in range(dm):
        for mp in range(dm):
            d = {}
            for i in range(da):
                v = tri.M.left[i][j][mp]
                if v != zero:
                    d[i] = v
            for k in range(db):
                v = tri.M.right[j][k][mp]
                if v != zero:
                    d[da + k] = field.sub(d.get(da + k, zero), v)
            if d:
                rows.append(d)
    pair_space = kernel_sparse(field, rows, da + db)
    zm = [zero] * dm
    vecs = [tri.assemble(v[:da], zm, v[da:]) for v in pair_space.basis]
    return Subspace.from_vectors(field, tri.dim, vecs)


# ---------------------------------------------------------------------------
# annihilators, tau, faithful quotient
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AnnihilatorReport:
    """L, R inside A, B plus the annihilators of M taken in the total algebra."""

    L: Subspace
    R: Subspace
    lann_t: Subspace
    rann_t: Subspace
    left_faithful: bool
    right_faithful: bool


def annihilators(tri: TriAlgebra) -> AnnihilatorReport:
    field = tri.field
    zero = field.zero
    da, dm, db = tri.A.dim, tri.M.dim_m, tri.B.dim
    # L = {a : a.m_j = 0 for all j}
    rows = []
    for j in range(dm):
        for mp in range(dm):
            d = {i: tri.M.left[i][j][mp] for i in range(da) if tri.M.left[i][j][mp] != zero}
            if d:
                rows.append(d)
    L = kernel_sparse(field, rows, da)
    rows = []
    for j in range(dm):
        for mp in range(dm):
            d = {k: tri.M.right[j][k][mp] for k in range(db) if tri.M.right[j][k][mp] != zero}
            if d:
                rows.append(d)
    R = kernel_sparse(field, rows, db)
    # annihilators of M inside the total algebra
    t = tri.total
    lrows, rrows = [], []
    for j in tri.range_m:
        rm = t.basis_right_mat(j)  # x -> x * m_j
        for r in rm.rows:
            d = {c: v for c, v in enumerate(r) if v != zero}
            if d:
                lrows.append(d)
        lm = t.basis_left_mat(j)  # x -> m_j * x
        for r in lm.rows:
            d = {c: v for c, v in enumerate(r) if v != zero}
            if d:
                rrows.append(d)
    lann = kernel_sparse(field, lrows, t.dim)
    rann = kernel_sparse(field, rrows, t.dim)
    report = AnnihilatorReport(L, R, lann, rann, L.is_zero(), R.is_zero())
    if report.left_faithful and report.right_faithful and dm > 0:
        mb = Subspace.from_vectors(field, t.dim, [t.basis_vector(i) for i in list(tri.range_m) + list(tri.range_b)])
        am = Subspace.from_vectors(field, t.dim, [t.basis_vector(i) for i in list(tri.range_a) + list(tri.range_m)])
        if lann != mb:
            raise TheoremViolation("left annihilator of a faithful corner bimodule must be M + B")
        if rann != am:
            raise TheoremViolation("right annihilator of a faithful corner bimodule must be A + M")
    return report


@dataclass(frozen=True)
class SubspaceMap:
    """Linear map between two subspaces, in their RREF-basis coordinates."""

    domain: Subspace
    codomain: Subspace
    matrix: Mat  # codomain-coords image of each domain basis vector, in columns

    def apply_ambient(self, vec) -> tuple:
        """Apply to an ambient vector of the domain, returning an ambient vector."""
        coords = self.domain.coords(vec)
        img = self.matrix.apply(coords)
        field = self.matrix.field
        out = [field.zero] * self.codomain.ambient_dim
        for c, row in zip(img, self.codomain.basis):
            if c == field.zero:
                continue
            for k, v in enumerate(row):
                if v != field.zero:
                    out[k] = field.add(out[k], field.mul(c, v))
        return tuple(out)

    def is_bijective(self) -> bool:
        return self.matrix.nrows == self.matrix.ncols and self.matrix.rank() == self.matrix.nrows

    def inverse(self) -> "SubspaceMap":
        inv = self.matrix.inverse()
        if inv is None:
            raise NotInvertible("subspace map is not invertible")
        return SubspaceMap(self.codomain, self.domain, inv)


def project_subspace(sub: Subspace, indices, new_dim: int | None = None) -> Subspace:
    """Coordinate projection of a subspace onto the listed positions."""
    indices = list(indices)
    if new_dim is None:
        new_dim = len(indices)
    vecs = [tuple(v[i] for i in indices) for v in sub.basis]
    return Subspace.from_vectors(sub.field, new_dim, vecs)


def tau_iso(tri: TriAlgebra) -> SubspaceMap:
    """The isomorphism pi_A(Z) -> pi_B(Z) with am = m tau(a), faithful case only."""
    if not tri.is_faithful():
        raise NotFaithful("tau requires M faithful on both sides")
    field = tri.field
    Z = center_T(tri)
    da = tri.A.dim
    pa = project_subspace(Z, tri.range_a, da)
    pb = project_subspace(Z, tri.range_b, tri.B.dim)
    # basis z of Z: the a-part determines the b-part in the faithful case
    from .exactla import solve_linear

    a_cols = Mat(field, list(zip(*[tri.part_a(z) for z in Z.basis])) if Z.basis else [], Z.dim)
    cols = []
    for u in pa.basis:
        coeffs = solve_linear(a_cols, u)
        if coeffs is None:
            raise TheoremViolation("projection of the center is inconsistent")
        b = [field.zero] * tri.B.dim
        for c, z in zip(coeffs, Z.basis):
            if c == field.zero:
                continue
            for k, v in enumerate(tri.part_b(z)):
                b[k] = field.add(b[k], field.mul(c, v))
        cols.append(pb.coords(b))
    matrix = Mat(field, list(zip(*cols)) if cols else [], len(pa.basis))
    tau = SubspaceMap(pa, pb, matrix)
    # verify am = m tau(a) on all basis pairs
    for u in pa.basis:
        tb = tau.apply_ambient(u)
        for j in range(tri.M.dim_m):
            m = tri.total.basis_vector(list(tri.range_m)[j])
            left = tri.total.mul_vec(tri.embed_a(u), m)
            right = tri.total.mul_vec(m, tri.embed_b(tb))
            if left != right:
                raise TheoremViolation("tau fails am = m tau(a) on a basis pair")
    if not tau.is_bijective():
        raise TheoremViolation("tau is not bijective")
    return tau


def quotient_algebra(alg: FinAlgebra, ideal: Subspace) -> tuple[FinAlgebra, Mat]:
    """Quotient by a two-sided ideal subspace.

    Returns the quotient algebra on the non-pivot coordinates and the
    projection matrix (quotient coordinates of each original basis vector, in
    columns).
    """
    field = alg.field
    n = alg.dim
    if ideal.ambient_dim != n:
        raise DimMismatch("ideal lives in the wrong ambient space")
    piv = set(ideal.pivots)
    keep = [i for i in range(n) if i not in piv]

    def reduce_vec(vec) -> tuple:
        v = list(vec)
        for p, row in zip(ideal.pivots, ideal.basis):
            c = v[p]
            if c == field.zero:
                continue
            for k, w in enumerate(row):
                if w != field.zero:
                    v[k] = field.sub(v[k], field.mul(c, w))
        return tuple(v[i] for i in keep)

    dim_q = len(keep)
    mul = [[reduce_vec(alg.mul[i][j]) for j in keep] for i in keep]
    unit = reduce_vec(alg.unit)
    names = tuple(alg.basis_names[i] for i in keep)
    quotient = validate_algebra(field, mul, unit, names)
    proj_cols = [reduce_vec(alg.basis_vector(i)) for i in range(n)]
    proj = Mat(field, list(zip(*proj_cols)) if proj_cols else [], n)
    del dim_q
    return quotient, proj


def faithful_quotient(tri: TriAlgebra) -> TriAlgebra:
    """Trian(A/L, M, B/R): the faithful model of the same triangular algebra."""
    ann = annihilators(tri)
    field = tri.field
    Aq, pa = quotient_algebra(tri.A, ann.L)
    Bq, pb = quotient_algebra(tri.B, ann.R)
    keep_a = [i for i in range(tri.A.dim) if i not in set(ann.L.pivots)]
    keep_b = [i for i in range(tri.B.dim) if i not in set(ann.R.pivots)]
    dm = tri.M.dim_m
    # induced actions: act by any representative (L M = M R = 0 makes this well defined)
    left = [[tri.M.left[i][j] for j in range(dm)] for i in keep_a]
    right = [[tri.M.right[j][k] for k in keep_b] for j in range(dm)]
    Mq = Bimodule(field, Aq.dim, dm, Bq.dim, left, right, tri.M.basis_names)
    out = build_triangular(Aq, Mq, Bq, allow_zero_m=(dm == 0))
    if dm > 0 and not out.is_faithful():
        raise TheoremViolation("faithful quotient is not faithful")
    del pa, pb
    return out


# ---------------------------------------------------------------------------
# nilpotency and radicals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NilpotencyResult:
    nilpotent: bool
    index: int | None  # least k with x^k = 0


def nilpotency(alg: FinAlgebra, x) -> NilpotencyResult:
    """Compute powers up to dim+1; x is nilpotent iff some power vanishes."""
    x = alg.coerce_vector(x)
    zero = alg.zero_vector()
    acc = x
    for k in range(1, alg.dim + 2):
        if acc == zero:
            return NilpotencyResult(True, k)
        acc = alg.mul_vec(acc, x)
    return NilpotencyResult(False, None)


def nilpotency_T(tri: TriAlgebra, x) -> NilpotencyResult:
    """Nilpotency in the total algebra, cross-checked against the corner parts.

    An element a + m + b is nilpotent exactly when a and b are; a mismatch
    would be a genuine finding.
    """
    x = tri.total.coerce_vector(x)
    res = nilpotency(tri.total, x)
    parts = nilpotency(tri.A, tri.part_a(x)).nilpotent and nilpotency(tri.B, tri.part_b(x)).nilpotent
    if res.nilpotent != parts:
        raise TheoremViolation("nilpotency of a + m + b disagrees with its corner parts")
    return res


def subspace_product(alg: FinAlgebra, u: Subspace, v: Subspace) -> Subspace:
    vecs = [alg.mul_vec(x, y) for x in u.basis for y in v.basis]
    return Subspace.from_vectors(alg.field, alg.dim, vecs)


def is_ideal(alg: FinAlgebra, sub: Subspace) -> bool:
    for i in range(alg.dim):
        ei = alg.basis_vector(i)
        for v in sub.basis:
            if not sub.contains_vector(alg.mul_vec(ei, v)):
                return False
            if not sub.contains_vector(alg.mul_vec(v, ei)):
                return False
    return True


def is_nilpotent_subspace(alg: FinAlgebra, sub: Subspace) -> bool:
    """True when some power of the subspace (as a set of products) vanishes."""
    cur = sub
    for _ in range(alg.dim + 1):
        if cur.is_zero():
            return True
        cur = subspace_product(alg, cur, sub)
    return cur.is_zero()


def radical(alg: FinAlgebra) -> Subspace:
    """Largest nil ideal, computed as the trace-form kernel of the left
    regular representation (valid in characteristic 0 or p > dim).

    The result is verified to be a nilpotent two-sided ideal before being
    returned.
    """
    p = alg.field.characteristic
    if p != 0 and p <= alg.dim:
        raise CharTooSmall(p, alg.dim)
    field = alg.field
    lmats = [alg.basis_left_mat(i) for i in range(alg.dim)]
    gram = Mat(field, [[(lmats[i] @ lmats[j]).trace() for j in range(alg.dim)] for i in range(alg.dim)],
               alg.dim)
    from .exactla import kernel_basis

    rad = kernel_basis(gram)
    if not is_ideal(alg, rad):
        raise TheoremViolation("trace-form kernel is not an ideal")
    if not is_nilpotent_subspace(alg, rad):
        raise TheoremViolation("trace-form kernel is not nil")
    for v in rad.basis:
        if not nilpotency(alg, v).nilpotent:
            raise TheoremViolation("radical basis vector is not nilpotent")
    return rad


def nil_radical_T(tri: TriAlgebra) -> Subspace:
    """Koethe radical of the triangular algebra: rad(A) + M + rad(B)."""
    rad_a = radical(tri.A)
    rad_b = radical(tri.B)
    t = tri.total
    vecs = [tri.embed_a(v) for v in rad_a.basis]
    vecs += [t.basis_vector(i) for i in tri.range_m]
    vecs += [tri.embed_b(v) for v in rad_b.basis]
    out = Subspace.from_vectors(tri.field, tri.dim, vecs)
    if rad_a.is_zero() and rad_b.is_zero():
        m_block = tri.subspace_m()
        if out != m_block:
            raise TheoremViolation("with semiprimitive corners the nil radical must be exactly M")
    return out


# ---------------------------------------------------------------------------
# idempotent-based structure checks
# ---------------------------------------------------------------------------


@dataclass
class StructureReport:
    """Verdict of a structure check with the method that decided it."""

    mode: str
    verdict: str  # "holds" | "fails" | "undecided"
    method: str
    witness: tuple | None = None
    idempotents: list | None = None
    implications: dict | None = None
    notes: list = dc_field(default_factory=list)

    def to_json(self):
        out = {"mode": self.mode, "verdict": self.verdict, "method": self.method,
               "notes": list(self.notes)}
        if self.witness is not None:
            out["witness"] = [str(v) for v in self.witness]
        if self.idempotents is not None:
            out["idempotents"] = [[str(v) for v in e] for e in self.idempotents]
        if self.implications is not None:
            out["implications"] = self.implications
        return out


def _enumerate_elements(alg: FinAlgebra, budget: int):
    p = alg.field.characteristic
    if p == 0:
        raise BudgetExceeded("cannot enumerate an infinite field")
    count = p ** alg.dim
    if count > budget:
        raise BudgetExceeded("p^dim = %d exceeds budget %d" % (count, budget))
    for combo in itertools.product(range(p), repeat=alg.dim):
        yield tuple(combo)


def _all_idempotents(alg: FinAlgebra, budget: int) -> list[tuple]:
    out = []
    for x in _enumerate_elements(alg, budget):
        if alg.mul_vec(x, x) == x:
            out.append(x)
    return out


def _is_central(alg: FinAlgebra, x) -> bool:
    for i in range(alg.dim):
        if alg.commutator(x, alg.basis_vector(i)) != alg.zero_vector():
            return False
    return True


def _condition_I_exhaustive(alg: FinAlgebra, budget: int) -> tuple[str, tuple | None]:
    """Does every idempotent e with eA(1-e) = 0 satisfy (1-e)Ae = 0?"""
    one = alg.unit
    zero = alg.zero_vector()
    for e in _all_idempotents(alg, budget):
        f = alg.sub_vec(one, e)
        left_dead = all(
            alg.mul_vec(alg.mul_vec(e, alg.basis_vector(i)), f) == zero for i in range(alg.dim)
        )
        if not left_dead:
            continue
        right_dead = all(
            alg.mul_vec(alg.mul_vec(f, alg.basis_vector(i)), e) == zero for i in range(alg.dim)
        )
        if not right_dead:
            return "fails", e
    return "holds", None


def _nondegenerate_exhaustive(alg: FinAlgebra, budget: int) -> tuple[str, tuple | None]:
    zero = alg.zero_vector()
    for a in _enumerate_elements(alg, budget):
        if a == zero:
            continue
        if all(alg.mul_vec(alg.mul_vec(a, alg.basis_vector(i)), a) == zero for i in range(alg.dim)):
            return "fails", a
    return "holds", None


def _degeneracy_witness_from_radical(alg: FinAlgebra, rad: Subspace) -> tuple | None:
    """Nonzero a with aAa = 0, taken from the last nonzero power of the radical."""
    if rad.is_zero():
        return None
    cur = rad
    prev = rad
    for _ in range(alg.dim + 1):
        nxt = subspace_product(alg, cur, rad)
        if nxt.is_zero():
            break
        prev, cur = cur, nxt
    a = cur.basis[0] if not cur.is_zero() else prev.basis[0]
    zero = alg.zero_vector()
    if all(alg.mul_vec(alg.mul_vec(a, alg.basis_vector(i)), a) == zero for i in range(alg.dim)):
        return a
    return None


def structure_checks(alg: FinAlgebra, mode: str, budget: int | None = None) -> StructureReport:
    """condition_I | nondegenerate | idempotents | central_idempotents.

    Exhaustive over F_p within the enumeration budget; over Q only exact
    sufficient criteria run (commutativity, semiprimitivity via the trace
    form) and everything else is reported undecided.
    """
    if budget is None:
        budget = enumeration_budget()
    p = alg.field.characteristic
    exhaustive_ok = p != 0 and p ** alg.dim <= budget

    if mode == "idempotents":
        idems = _all_idempotents(alg, budget)  # raises BudgetExceeded over Q
        return StructureReport(mode, "holds", "exhaustive", idempotents=idems)

    if mode == "central_idempotents":
        if alg.is_commutative():
            return StructureReport(mode, "holds", "commutative")
        if exhaustive_ok:
            for e in _all_idempotents(alg, budget):
                if not _is_central(alg, e):
                    return StructureReport(mode, "fails", "exhaustive", witness=e)
            return StructureReport(mode, "holds", "exhaustive")
        return StructureReport(mode, "undecided", "none",
                               notes=["not commutative and not enumerable"])

    if mode == "nondegenerate":
        if exhaustive_ok:
            verdict, witness = _nondegenerate_exhaustive(alg, budget)
            return StructureReport(mode, verdict, "exhaustive", witness=witness)
        try:
            rad = radical(alg)
        except CharTooSmall:
            return StructureReport(mode, "undecided", "none", notes=["char too small for trace form"])
        if rad.is_zero():
            # zero Koethe radical forces non-degeneracy
            return StructureReport(mode, "holds", "radical", notes=["radical = 0"])
        witness = _degeneracy_witness_from_radical(alg, rad)
        if witness is not None:
            return StructureReport(mode, "fails", "radical", witness=witness)
        return StructureReport(mode, "undecided", "radical",
                               notes=["nonzero radical but no witness found"])

    if mode == "condition_I":
        report = StructureReport(mode, "undecided", "none")
        if alg.is_commutative():
            report.verdict, report.method = "holds", "commutative"
        elif exhaustive_ok:
            verdict, witness = _condition_I_exhaustive(alg, budget)
            report.verdict, report.method, report.witness = verdict, "exhaustive", witness
        else:
            nondeg = structure_checks(alg, "nondegenerate", budget)
            if nondeg.verdict == "holds":
                report.verdict, report.method = "holds", "nondegenerate"
            else:
                report.notes.append("no exact sufficient criterion applied")
        if exhaustive_ok:
            # verify commutative => central idempotents => Condition (I) on this instance
            comm = alg.is_commutative()
            central = structure_checks(alg, "central_idempotents", budget).verdict == "holds"
            cond = (report.verdict == "holds") if report.method == "exhaustive" \
                else _condition_I_exhaustive(alg, budget)[0] == "holds"
            report.implications = {"commutative": comm, "central_idempotents": central,
                                   "condition_I": cond}
            if (comm and not central) or (central and not cond):
                raise TheoremViolation("idempotent implication chain fails on this instance")
        return report

    raise InputError("unknown structure check mode %r" % (mode,))
