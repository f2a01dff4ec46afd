"""Linear and bilinear maps on algebras, twisted-map predicates, and the
sigma-commutator calculus.

Matrix convention everywhere: entry [k][j] of a map matrix is the coefficient
of e_k in the image of e_j (images live in the columns).  Bilinear maps are
order-3 tensors t[i][j][k]: the coefficient of e_k in D(e_i, e_j).

Commuting-style conditions are quadratic in the argument; they are checked on
basis vectors and on all sums of two basis vectors, which is equivalent to the
full condition away from characteristic 2 and is reported as a quadratic-span
check in characteristic 2.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algcore import FinAlgebra, TriAlgebra, project_subspace, sigma_center_direct
from .errors import (
    DimMismatch,
    FieldMismatch,
    NotBlockPreserving,
    NotFaithful,
    NotInvertible,
    SigmaMissing,
    SigmaNotAutomorphism,
    TheoremViolation,
)
from .exactla import Field, Mat, Subspace, kernel_sparse

LINEAR_KINDS = (
    "endomorphism",
    "automorphism",
    "derivation",
    "sigma_derivation",
    "commuting",
    "sigma_commuting",
)
BILINEAR_KINDS = ("biderivation", "sigma_biderivation")


class LinMap:
    """Total linear map between coordinate spaces (usually one algebra)."""

    __slots__ = ("field", "src_dim", "dst_dim", "mat")

    def __init__(self, field: Field, mat: Mat | list, src_dim: int | None = None, dst_dim: int | None = None):
        if not isinstance(mat, Mat):
            mat = Mat(field, mat, src_dim)
        if mat.field != field:
            raise FieldMismatch("map matrix over the wrong field")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "src_dim", mat.ncols if src_dim is None else src_dim)
        object.__setattr__(self, "dst_dim", mat.nrows if dst_dim is None else dst_dim)
        if (mat.nrows, mat.ncols) != (self.dst_dim, self.src_dim):
            raise DimMismatch("map matrix is %dx%d, expected %dx%d"
                              % (mat.nrows, mat.ncols, self.dst_dim, self.src_dim))
        object.__setattr__(self, "mat", mat)

    def __setattr__(self, *a):
        raise AttributeError("LinMap is immutable")

    @staticmethod
    def identity(field: Field, n: int) -> "LinMap":
        return LinMap(field, Mat.identity(field, n))

    @staticmethod
    def zero(field: Field, src_dim: int, dst_dim: int | None = None) -> "LinMap":
        if dst_dim is None:
            dst_dim = src_dim
        return LinMap(field, Mat.zeros(field, dst_dim, src_dim))

    @staticmethod
    def from_images(field: Field, images: list, src_dim: int | None = None, dst_dim: int | None = None) -> "LinMap":
        """Build from the list of basis-vector images."""
        if src_dim is None:
            src_dim = len(images)
        if dst_dim is None:
            dst_dim = len(images[0]) if images else 0
        rows = [[field.coerce(img[k]) for img in images] for k in range(dst_dim)]
        return LinMap(field, Mat(field, rows, src_dim), src_dim, dst_dim)

    def apply(self, vec) -> tuple:
        return self.mat.apply(vec)

    def image_of_basis(self, j: int) -> tuple:
        return self.mat.col(j)

    def compose(self, other: "LinMap") -> "LinMap":
        """self after other."""
        if other.dst_dim != self.src_dim:
            raise DimMismatch("compose %d->%d after %d->%d"
                              % (self.src_dim, self.dst_dim, other.src_dim, other.dst_dim))
        return LinMap(self.field, self.mat @ other.mat, other.src_dim, self.dst_dim)

    def __add__(self, other: "LinMap") -> "LinMap":
        return LinMap(self.field, self.mat + other.mat, self.src_dim, self.dst_dim)

    def __sub__(self, other: "LinMap") -> "LinMap":
        return LinMap(self.field, self.mat - other.mat, self.src_dim, self.dst_dim)

    def scale(self, c) -> "LinMap":
        return LinMap(self.field, self.mat.scale(c), self.src_dim, self.dst_dim)

    def __neg__(self) -> "LinMap":
        return LinMap(self.field, -self.mat, self.src_dim, self.dst_dim)

    def inverse(self) -> "LinMap":
        inv = self.mat.inverse()
        if inv is None:
            raise NotInvertible("map is not invertible")
        return LinMap(self.field, inv, self.dst_dim, self.src_dim)

    def rank(self) -> int:
        return self.mat.rank()

    def is_bijective(self) -> bool:
        return self.src_dim == self.dst_dim and self.rank() == self.src_dim

    def is_identity(self) -> bool:
        return self.src_dim == self.dst_dim and self.mat == Mat.identity(self.field, self.src_dim)

    def is_zero(self) -> bool:
        return self.mat.is_zero()

    def kernel(self) -> Subspace:
        from .exactla import kernel_basis

        return kernel_basis(self.mat)

    def image(self) -> Subspace:
        return Subspace.from_vectors(self.field, self.dst_dim,
                                     [self.mat.col(j) for j in range(self.src_dim)])

    def flatten(self) -> tuple:
        """Row-major flattening: index k*src_dim + j."""
        return tuple(v for row in self.mat.rows for v in row)

    @staticmethod
    def unflatten(field: Field, flat, src_dim: int, dst_dim: int | None = None) -> "LinMap":
        if dst_dim is None:
            dst_dim = len(flat) // src_dim
        rows = [flat[k * src_dim:(k + 1) * src_dim] for k in range(dst_dim)]
        return LinMap(field, Mat(field, rows, src_dim), src_dim, dst_dim)

    def __eq__(self, other):
        return isinstance(other, LinMap) and self.mat == other.mat

    def __hash__(self):
        return hash(self.mat)

    def to_json(self):
        fmt = self.field.format
        return {"convention": "image-in-columns",
                "matrix": [[fmt(v) for v in row] for row in self.mat.rows]}

    def __repr__(self):
        return "LinMap(%d -> %d)" % (self.src_dim, self.dst_dim)


class BilinMap:
    """Total bilinear map A x A -> A as an order-3 tensor t[i][j][k]."""

    __slots__ = ("field", "dim", "tensor")

    def __init__(self, field: Field, tensor):
        dim = len(tensor)
        tensor = tuple(tuple(tuple(field.coerce(c) for c in vec) for vec in row) for row in tensor)
        for row in tensor:
            if len(row) != dim or any(len(v) != dim for v in row):
                raise DimMismatch("bilinear tensor is not dim^3")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "tensor", tensor)

    def __setattr__(self, *a):
        raise AttributeError("BilinMap is immutable")

    @staticmethod
    def zero(field: Field, dim: int) -> "BilinMap":
        z = field.zero
        return BilinMap(field, [[[z] * dim for _ in range(dim)] for _ in range(dim)])

    @staticmethod
    def from_function(alg: FinAlgebra, fn) -> "BilinMap":
        """Tabulate fn(e_i, e_j) over all basis pairs."""
        vals = [[alg.coerce_vector(fn(alg.basis_vector(i), alg.basis_vector(j)))
                 for j in range(alg.dim)] for i in range(alg.dim)]
        return BilinMap(alg.field, vals)

    def value(self, i: int, j: int) -> tuple:
        return self.tensor[i][j]

    def apply(self, x, y) -> tuple:
        field = self.field
        zero, add, mul = field.zero, field.add, field.mul
        acc = [zero] * self.dim
        for i, xi in enumerate(x):
            if not xi:
                continue
            row = self.tensor[i]
            for j, yj in enumerate(y):
                if not yj:
                    continue
                f = mul(xi, yj)
                for k, c in enumerate(row[j]):
                    if c:
                        acc[k] = add(acc[k], mul(f, c))
        return tuple(acc)

    def __add__(self, other: "BilinMap") -> "BilinMap":
        add = self.field.add
        return BilinMap(self.field, [[[add(a, b) for a, b in zip(v1, v2)]
                                      for v1, v2 in zip(r1, r2)]
                                     for r1, r2 in zip(self.tensor, other.tensor)])

    def __sub__(self, other: "BilinMap") -> "BilinMap":
        sub = self.field.sub
        return BilinMap(self.field, [[[sub(a, b) for a, b in zip(v1, v2)]
                                      for v1, v2 in zip(r1, r2)]
                                     for r1, r2 in zip(self.tensor, other.tensor)])

    def is_zero(self) -> bool:
        zero = self.field.zero
        return all(c == zero for row in self.tensor for vec in row for c in vec)

    def is_symmetric(self) -> bool:
        n = self.dim
        return all(self.tensor[i][j] == self.tensor[j][i] for i in range(n) for j in range(i + 1, n))

    def flatten(self) -> tuple:
        """Row-major flattening: index (i*dim + j)*dim + k."""
        return tuple(c for row in self.tensor for vec in row for c in vec)

    @staticmethod
    def unflatten(field: Field, flat, dim: int) -> "BilinMap":
        t = [[[flat[(i * dim + j) * dim + k] for k in range(dim)] for j in range(dim)] for i in range(dim)]
        return BilinMap(field, t)

    def __eq__(self, other):
        return isinstance(other, BilinMap) and self.field == other.field and self.tensor == other.tensor

    def __hash__(self):
        return hash((self.field, self.tensor))

    def to_json(self):
        fmt = self.field.format
        zero = self.field.zero
        entries = [[i, j, k, fmt(c)]
                   for i, row in enumerate(self.tensor)
                   for j, vec in enumerate(row)
                   for k, c in enumerate(vec) if c != zero]
        return {"dim": self.dim, "tensor": entries}

    def __repr__(self):
        return "BilinMap(dim=%d)" % self.dim


# ---------------------------------------------------------------------------
# verdicts and predicates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Witness:
    """First failing evaluation of a predicate."""

    indices: tuple
    element: tuple  # the nonzero discrepancy, as a coefficient vector
    description: str = ""

    def to_json(self, field: Field):
        return {"indices": list(self.indices),
                "value": [field.format(v) for v in self.element],
                "description": self.description}


@dataclass(frozen=True)
class Verdict:
    kind: str
    holds: bool
    witness: Witness | None = None
    notes: tuple = ()

    def __bool__(self):
        return self.holds

    def to_json(self, field: Field):
        out = {"kind": self.kind, "holds": self.holds, "notes": list(self.notes)}
        if self.witness is not None:
            out["witness"] = self.witness.to_json(field)
        return out


def _check_square(alg: FinAlgebra, f: LinMap):
    if f.src_dim != alg.dim or f.dst_dim != alg.dim:
        raise DimMismatch("map is %d->%d on an algebra of dim %d" % (f.src_dim, f.dst_dim, alg.dim))
    if f.field != alg.field:
        raise FieldMismatch("map and algebra over different fields")


def is_endomorphism(alg: FinAlgebra, f: LinMap) -> Verdict:
    """Unital and multiplicative on all basis pairs."""
    _check_square(alg, f)
    if f.apply(alg.unit) != alg.unit:
        diff = alg.sub_vec(f.apply(alg.unit), alg.unit)
        return Verdict("endomorphism", False, Witness((-1,), diff, "f(1) - 1"))
    for i in range(alg.dim):
        fi = f.image_of_basis(i)
        for j in range(alg.dim):
            lhs = f.apply(alg.mul[i][j])
            rhs = alg.mul_vec(fi, f.image_of_basis(j))
            if lhs != rhs:
                return Verdict("endomorphism", False,
                               Witness((i, j), alg.sub_vec(lhs, rhs), "f(e_i e_j) - f(e_i) f(e_j)"))
    return Verdict("endomorphism", True)


def is_automorphism(alg: FinAlgebra, f: LinMap) -> Verdict:
    v = is_endomorphism(alg, f)
    if not v.holds:
        return Verdict("automorphism", False, v.witness)
    if not f.is_bijective():
        return Verdict("automorphism", False, Witness((-1,), alg.zero_vector(), "not bijective"))
    return Verdict("automorphism", True)


def require_automorphism(alg: FinAlgebra, sigma: LinMap | None) -> LinMap:
    """sigma itself once it is verified to be an automorphism of alg.

    A passing verdict is remembered on the algebra instance, keyed by the
    immutable matrix, so later checks of an equal sigma on the same object
    return at once; failures are never remembered.
    """
    if sigma is None:
        raise SigmaMissing("this predicate needs an automorphism")
    if sigma.mat in alg._automorphisms:
        return sigma
    v = is_automorphism(alg, sigma)
    if not v.holds:
        raise SigmaNotAutomorphism(str(v.witness.description if v.witness else "not an automorphism"))
    alg._automorphisms.add(sigma.mat)
    return sigma


def is_sigma_derivation(alg: FinAlgebra, d: LinMap, sigma: LinMap) -> Verdict:
    """d(xy) = d(x) y + sigma(x) d(y) on all basis pairs."""
    _check_square(alg, d)
    for i in range(alg.dim):
        di = d.image_of_basis(i)
        si = sigma.image_of_basis(i)
        for j in range(alg.dim):
            lhs = d.apply(alg.mul[i][j])
            rhs = alg.add_vec(alg.mul_vec(di, alg.basis_vector(j)),
                              alg.mul_vec(si, d.image_of_basis(j)))
            if lhs != rhs:
                return Verdict("sigma_derivation", False,
                               Witness((i, j), alg.sub_vec(lhs, rhs),
                                       "d(e_i e_j) - d(e_i) e_j - sigma(e_i) d(e_j)"))
    return Verdict("sigma_derivation", True)


def sigma_commutator_vec(alg: FinAlgebra, x, y, sigma: LinMap) -> tuple:
    """[x, y]_sigma = sigma(x) y - y x."""
    return alg.sub_vec(alg.mul_vec(sigma.apply(x), y), alg.mul_vec(y, x))


def _commuting_verdict(alg: FinAlgebra, theta: LinMap, sigma: LinMap, kind: str) -> Verdict:
    """[x, Theta(x)]_sigma = 0 via singles plus pairwise sums.

    Equivalent to the full quadratic condition unless char = 2, where the
    verdict covers the quadratic span only (noted).
    """
    _check_square(alg, theta)
    notes = ()
    if alg.field.characteristic == 2:
        notes = ("verified on quadratic span only (char 2)",)
    zero = alg.zero_vector()
    for i in range(alg.dim):
        x = alg.basis_vector(i)
        val = sigma_commutator_vec(alg, x, theta.apply(x), sigma)
        if val != zero:
            return Verdict(kind, False, Witness((i, i), val, "[e_i, Theta(e_i)]_sigma"), notes)
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            x = alg.add_vec(alg.basis_vector(i), alg.basis_vector(j))
            val = sigma_commutator_vec(alg, x, theta.apply(x), sigma)
            if val != zero:
                return Verdict(kind, False,
                               Witness((i, j), val, "[x, Theta(x)]_sigma at x = e_i + e_j"), notes)
    return Verdict(kind, True, None, notes)


def classify_linear(kind: str, alg: FinAlgebra, f: LinMap, sigma: LinMap | None = None) -> Verdict:
    """Exact verdict for one linear-map predicate, with a first-failure witness."""
    if kind == "endomorphism":
        return is_endomorphism(alg, f)
    if kind == "automorphism":
        return is_automorphism(alg, f)
    if kind == "derivation":
        ident = LinMap.identity(alg.field, alg.dim)
        v = is_sigma_derivation(alg, f, ident)
        return Verdict("derivation", v.holds, v.witness)
    if kind == "sigma_derivation":
        sigma = require_automorphism(alg, sigma)
        return is_sigma_derivation(alg, f, sigma)
    if kind == "commuting":
        ident = LinMap.identity(alg.field, alg.dim)
        return _commuting_verdict(alg, f, ident, "commuting")
    if kind == "sigma_commuting":
        sigma = require_automorphism(alg, sigma)
        return _commuting_verdict(alg, f, sigma, "sigma_commuting")
    return _unknown_kind(kind)


def _unknown_kind(kind):
    from .errors import InputError

    raise InputError("unknown classification kind %r" % (kind,))


def _slot_verdicts(alg: FinAlgebra, D: BilinMap, sigma: LinMap, kind: str) -> Verdict:
    n = alg.dim
    for i in range(n):
        si = sigma.image_of_basis(i)
        for j in range(n):
            eij = alg.mul[i][j]
            for k in range(n):
                # first slot: D(e_i e_j, e_k) = D(e_i, e_k) e_j + sigma(e_i) D(e_j, e_k)
                lhs = D.apply(eij, alg.basis_vector(k))
                rhs = alg.add_vec(alg.mul_vec(D.value(i, k), alg.basis_vector(j)),
                                  alg.mul_vec(si, D.value(j, k)))
                if lhs != rhs:
                    return Verdict(kind, False,
                                   Witness((i, j, k), alg.sub_vec(lhs, rhs), "first-slot failure at (e_i e_j, e_k)"))
                # second slot: D(e_k, e_i e_j) = D(e_k, e_i) e_j + sigma(e_i) D(e_k, e_j)
                lhs = D.apply(alg.basis_vector(k), eij)
                rhs = alg.add_vec(alg.mul_vec(D.value(k, i), alg.basis_vector(j)),
                                  alg.mul_vec(si, D.value(k, j)))
                if lhs != rhs:
                    return Verdict(kind, False,
                                   Witness((k, i, j), alg.sub_vec(lhs, rhs), "second-slot failure at (e_k, e_i e_j)"))
    return Verdict(kind, True)


def classify_bilinear(kind: str, alg: FinAlgebra, D: BilinMap, sigma: LinMap | None = None) -> Verdict:
    """Exact verdict for biderivation-style predicates, witness is a basis triple."""
    if D.dim != alg.dim:
        raise DimMismatch("bilinear map of dim %d on algebra of dim %d" % (D.dim, alg.dim))
    if kind == "biderivation":
        ident = LinMap.identity(alg.field, alg.dim)
        v = _slot_verdicts(alg, D, ident, "biderivation")
        return v
    if kind == "sigma_biderivation":
        sigma = require_automorphism(alg, sigma)
        v = _slot_verdicts(alg, D, sigma, "sigma_biderivation")
        if v.holds:
            # sanity: a twisted biderivation kills the unit in each slot
            zero = alg.zero_vector()
            for i in range(alg.dim):
                if D.apply(alg.basis_vector(i), alg.unit) != zero or \
                        D.apply(alg.unit, alg.basis_vector(i)) != zero:
                    raise TheoremViolation("sigma-biderivation does not vanish on the unit")
        return v
    return _unknown_kind(kind)


# ---------------------------------------------------------------------------
# twisted-center machinery on triangular algebras
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AutBlocks:
    """Diagonal blocks (f, g) and corner block nu of a block-preserving automorphism."""

    tri: TriAlgebra
    f: LinMap  # on A
    g: LinMap  # on B
    nu: LinMap  # on M
    source: LinMap  # the automorphism of the total algebra

    def verify(self):
        tri = self.tri
        if not is_automorphism(tri.A, self.f).holds:
            raise TheoremViolation("A-block of a block-preserving automorphism must be an automorphism")
        if not is_automorphism(tri.B, self.g).holds:
            raise TheoremViolation("B-block must be an automorphism")
        if not self.nu.is_bijective():
            raise TheoremViolation("M-block must be bijective")
        for i in range(tri.A.dim):
            a = tri.A.basis_vector(i)
            fa = self.f.image_of_basis(i)
            for j in range(tri.M.dim_m):
                m = [tri.field.zero] * tri.M.dim_m
                m[j] = tri.field.one
                lhs = self.nu.apply(tri.act_left(a, m))
                rhs = tri.act_left(fa, self.nu.image_of_basis(j))
                if lhs != rhs:
                    raise TheoremViolation("nu(am) != f(a) nu(m) on a basis pair")
        for j in range(tri.M.dim_m):
            nm = self.nu.image_of_basis(j)
            for k in range(tri.B.dim):
                b = tri.B.basis_vector(k)
                m = [tri.field.zero] * tri.M.dim_m
                m[j] = tri.field.one
                lhs = self.nu.apply(tri.act_right(m, b))
                rhs = tri.act_right(nm, self.g.image_of_basis(k))
                if lhs != rhs:
                    raise TheoremViolation("nu(mb) != nu(m) g(b) on a basis pair")


def block_decompose(tri: TriAlgebra, sigma: LinMap) -> AutBlocks:
    """Split a block-preserving automorphism of the total algebra into (f, g, nu)."""
    v = is_automorphism(tri.total, sigma)
    if not v.holds:
        from .errors import NotAutomorphism

        raise NotAutomorphism("block decomposition needs an automorphism")
    field = tri.field
    zero = field.zero
    blocks = (("A", tri.range_a), ("M", tri.range_m), ("B", tri.range_b))
    for name, rng in blocks:
        outside = [i for i in range(tri.dim) if i not in rng]
        for j in rng:
            img = sigma.image_of_basis(j)
            if any(img[i] != zero for i in outside):
                raise NotBlockPreserving((name, j, img))
    f = LinMap.from_images(field, [tri.part_a(sigma.image_of_basis(j)) for j in tri.range_a],
                           tri.A.dim, tri.A.dim)
    nu = LinMap.from_images(field, [tri.part_m(sigma.image_of_basis(j)) for j in tri.range_m],
                            tri.M.dim_m, tri.M.dim_m)
    g = LinMap.from_images(field, [tri.part_b(sigma.image_of_basis(j)) for j in tri.range_b],
                           tri.B.dim, tri.B.dim)
    blocks_out = AutBlocks(tri, f, g, nu, sigma)
    blocks_out.verify()
    return blocks_out


def blocks_to_total(tri: TriAlgebra, f: LinMap, g: LinMap, nu: LinMap) -> LinMap:
    """Assemble the total-algebra map with the given diagonal and corner blocks."""
    images = []
    zm = [tri.field.zero] * tri.M.dim_m
    zb = [tri.field.zero] * tri.B.dim
    za = [tri.field.zero] * tri.A.dim
    for j in range(tri.A.dim):
        images.append(tri.assemble(f.image_of_basis(j), zm, zb))
    for j in range(tri.M.dim_m):
        images.append(tri.assemble(za, nu.image_of_basis(j), zb))
    for j in range(tri.B.dim):
        images.append(tri.assemble(za, zm, g.image_of_basis(j)))
    return LinMap.from_images(tri.field, images, tri.dim, tri.dim)


def sigma_center(tri: TriAlgebra, blocks: AutBlocks, want_eta: bool = True
                 ) -> tuple[Subspace, "SubspaceMapEta | None"]:
    """Twisted center of the triangular algebra from its block description.

    Z_sigma = diagonal pairs (a, b) with a in the f-twisted center of A, b in
    the g-twisted center of B, and a m = nu(m) b on every basis m.  When the
    bimodule is faithful on both sides, also returns the isomorphism eta from
    pi_B(Z_sigma) to pi_A(Z_sigma) with eta(b) m = nu(m) b.
    """
    tri_check(tri, blocks)
    field = tri.field
    zero = field.zero
    da, dm, db = tri.A.dim, tri.M.dim_m, tri.B.dim
    rows = []
    for i in range(da):
        s_ei = blocks.f.image_of_basis(i)
        diff = tri.A.left_mul_mat(s_ei) - tri.A.basis_right_mat(i)
        for r in diff.rows:
            d = {c: v for c, v in enumerate(r) if v != zero}
            if d:
                rows.append(d)
    for i in range(db):
        s_ei = blocks.g.image_of_basis(i)
        diff = tri.B.left_mul_mat(s_ei) - tri.B.basis_right_mat(i)
        for r in diff.rows:
            d = {da + c: v for c, v in enumerate(r) if v != zero}
            if d:
                rows.append(d)
    # a m_j = nu(m_j) b on every basis m_j
    for j in range(dm):
        nu_mj = blocks.nu.image_of_basis(j)
        for mp in range(dm):
            d = {}
            for i in range(da):
                v = tri.M.left[i][j][mp]
                if v != zero:
                    d[i] = v
            for k in range(db):
                acc = zero
                for t, nv in enumerate(nu_mj):
                    if nv != zero:
                        acc = field.add(acc, field.mul(nv, tri.M.right[t][k][mp]))
                if acc != zero:
                    d[da + k] = field.sub(d.get(da + k, zero), acc)
            if d:
                rows.append(d)
    pair_space = kernel_sparse(field, rows, da + db)
    zm = [zero] * dm
    vecs = [tri.assemble(v[:da], zm, v[da:]) for v in pair_space.basis]
    z_sigma = Subspace.from_vectors(field, tri.dim, vecs)
    if not want_eta:
        return z_sigma, None
    if not tri.is_faithful():
        raise NotFaithful("eta needs the bimodule faithful on both sides")
    eta = _eta_from_center(tri, blocks, z_sigma)
    return z_sigma, eta


@dataclass(frozen=True)
class SubspaceMapEta:
    """eta between the diagonal projections of the twisted center."""

    domain: Subspace  # pi_B(Z_sigma)
    codomain: Subspace  # pi_A(Z_sigma)
    matrix: Mat

    def apply(self, b) -> tuple:
        coords = self.domain.coords(b)
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

    def apply_inverse(self, a) -> tuple:
        inv = self.matrix.inverse()
        if inv is None:
            raise NotInvertible("eta is not invertible")
        coords = self.codomain.coords(a)
        img = inv.apply(coords)
        field = self.matrix.field
        out = [field.zero] * self.domain.ambient_dim
        for c, row in zip(img, self.domain.basis):
            if c == field.zero:
                continue
            for k, v in enumerate(row):
                if v != field.zero:
                    out[k] = field.add(out[k], field.mul(c, v))
        return tuple(out)


def _eta_from_center(tri: TriAlgebra, blocks: AutBlocks, z_sigma: Subspace) -> SubspaceMapEta:
    from .exactla import solve_linear

    field = tri.field
    da, db = tri.A.dim, tri.B.dim
    pa = project_subspace(z_sigma, tri.range_a, da)
    pb = project_subspace(z_sigma, tri.range_b, db)
    b_cols = Mat(field, list(zip(*[tri.part_b(z) for z in z_sigma.basis])) if z_sigma.basis else [],
                 z_sigma.dim)
    cols = []
    for u in pb.basis:
        coeffs = solve_linear(b_cols, u)
        if coeffs is None:
            raise TheoremViolation("projection of the twisted center is inconsistent")
        a = [field.zero] * da
        for c, z in zip(coeffs, z_sigma.basis):
            if c == field.zero:
                continue
            for k, v in enumerate(tri.part_a(z)):
                a[k] = field.add(a[k], field.mul(c, v))
        cols.append(pa.coords(a))
    matrix = Mat(field, list(zip(*cols)) if cols else [], len(pb.basis))
    eta = SubspaceMapEta(pb, pa, matrix)
    # verify eta(b) m = nu(m) b on all basis pairs, and invertibility
    for u in pb.basis:
        a = eta.apply(u)
        for j in range(tri.M.dim_m):
            m = [field.zero] * tri.M.dim_m
            m[j] = field.one
            lhs = tri.act_left(a, m)
            rhs = tri.act_right(blocks.nu.image_of_basis(j), u)
            if lhs != rhs:
                raise TheoremViolation("eta(b) m != nu(m) b on a basis pair")
    if matrix.nrows != matrix.ncols or (matrix.ncols and matrix.rank() != matrix.ncols):
        raise TheoremViolation("eta is not bijective")
    return eta


def tri_check(tri: TriAlgebra, blocks: AutBlocks):
    if blocks.tri is not tri and blocks.tri != tri:
        raise FieldMismatch("blocks belong to a different triangular algebra")


def sigma_center_oracle(tri: TriAlgebra, sigma: LinMap) -> Subspace:
    """Direct kernel of x -> [e_i, x]_sigma over all basis vectors."""
    return sigma_center_direct(tri.total, sigma.mat)


# ---------------------------------------------------------------------------
# (alpha, beta) reduction
# ---------------------------------------------------------------------------


def is_alpha_beta_derivation(alg: FinAlgebra, d: LinMap, alpha: LinMap, beta: LinMap) -> Verdict:
    """d(xy) = beta(x) d(y) + d(x) alpha(y) on all basis pairs.

    With alpha the identity this is exactly the sigma-derivation condition for
    sigma = beta.
    """
    _check_square(alg, d)
    for i in range(alg.dim):
        di = d.image_of_basis(i)
        bi = beta.image_of_basis(i)
        for j in range(alg.dim):
            lhs = d.apply(alg.mul[i][j])
            rhs = alg.add_vec(alg.mul_vec(bi, d.image_of_basis(j)),
                              alg.mul_vec(di, alpha.image_of_basis(j)))
            if lhs != rhs:
                return Verdict("alpha_beta_derivation", False,
                               Witness((i, j), alg.sub_vec(lhs, rhs), "twisted Leibniz failure"))
    return Verdict("alpha_beta_derivation", True)


def is_alpha_beta_biderivation(alg: FinAlgebra, D: BilinMap, alpha: LinMap, beta: LinMap) -> Verdict:
    n = alg.dim
    for i in range(n):
        bi = beta.image_of_basis(i)
        for j in range(n):
            eij = alg.mul[i][j]
            aj = alpha.image_of_basis(j)
            for k in range(n):
                lhs = D.apply(eij, alg.basis_vector(k))
                rhs = alg.add_vec(alg.mul_vec(bi, D.value(j, k)),
                                  alg.mul_vec(D.value(i, k), aj))
                if lhs != rhs:
                    return Verdict("alpha_beta_biderivation", False,
                                   Witness((i, j, k), alg.sub_vec(lhs, rhs), "first-slot failure"))
                lhs = D.apply(alg.basis_vector(k), eij)
                rhs = alg.add_vec(alg.mul_vec(bi, D.value(k, j)),
                                  alg.mul_vec(D.value(k, i), aj))
                if lhs != rhs:
                    return Verdict("alpha_beta_biderivation", False,
                                   Witness((k, i, j), alg.sub_vec(lhs, rhs), "second-slot failure"))
    return Verdict("alpha_beta_biderivation", True)


def is_alpha_beta_commuting(alg: FinAlgebra, theta: LinMap, alpha: LinMap, beta: LinMap) -> Verdict:
    """Theta(x) alpha(x) = beta(x) Theta(x), checked on the quadratic span."""
    _check_square(alg, theta)
    notes = ()
    if alg.field.characteristic == 2:
        notes = ("verified on quadratic span only (char 2)",)
    zero = alg.zero_vector()

    def residual(x):
        tx = theta.apply(x)
        return alg.sub_vec(alg.mul_vec(tx, alpha.apply(x)), alg.mul_vec(beta.apply(x), tx))

    for i in range(alg.dim):
        val = residual(alg.basis_vector(i))
        if val != zero:
            return Verdict("alpha_beta_commuting", False, Witness((i, i), val, ""), notes)
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            val = residual(alg.add_vec(alg.basis_vector(i), alg.basis_vector(j)))
            if val != zero:
                return Verdict("alpha_beta_commuting", False,
                               Witness((i, j), val, "at x = e_i + e_j"), notes)
    return Verdict("alpha_beta_commuting", True, None, notes)


@dataclass(frozen=True)
class ReduceResult:
    reduced: LinMap | BilinMap
    sigma: LinMap
    input_verdict: Verdict
    output_verdict: Verdict


def alpha_beta_reduce(alg: FinAlgebra, obj: LinMap | BilinMap, alpha: LinMap, beta: LinMap,
                      commuting: bool = False) -> ReduceResult:
    """Compose with alpha^{-1}; the twist collapses to sigma = alpha^{-1} beta.

    The twisted-map property of the input and the sigma-map property of the
    output are both checked and must agree; disagreement would falsify the
    reduction identity itself.
    """
    require_automorphism(alg, alpha)
    require_automorphism(alg, beta)
    alpha_inv = alpha.inverse()
    sigma = alpha_inv.compose(beta)
    if isinstance(obj, BilinMap):
        reduced = BilinMap(alg.field,
                           [[alpha_inv.apply(obj.value(i, j)) for j in range(alg.dim)]
                            for i in range(alg.dim)])
        vin = is_alpha_beta_biderivation(alg, obj, alpha, beta)
        vout = classify_bilinear("sigma_biderivation", alg, reduced, sigma)
    else:
        reduced = alpha_inv.compose(obj)
        if commuting:
            vin = is_alpha_beta_commuting(alg, obj, alpha, beta)
            vout = classify_linear("sigma_commuting", alg, reduced, sigma)
        else:
            vin = is_alpha_beta_derivation(alg, obj, alpha, beta)
            vout = classify_linear("sigma_derivation", alg, reduced, sigma)
    if vin.holds != vout.holds:
        raise TheoremViolation("twisted-map reduction changed the verdict")
    return ReduceResult(reduced, sigma, vin, vout)


# ---------------------------------------------------------------------------
# inner automorphisms
# ---------------------------------------------------------------------------


def inner_automorphism(alg: FinAlgebra, u) -> LinMap:
    """Conjugation x -> u^{-1} x u by an invertible element."""
    u = alg.coerce_vector(u)
    u_inv = alg.invert(u)
    images = [alg.mul_vec(alg.mul_vec(u_inv, alg.basis_vector(j)), u) for j in range(alg.dim)]
    return LinMap.from_images(alg.field, images, alg.dim, alg.dim)


def scaling_automorphism(tri: TriAlgebra, c) -> LinMap:
    """a + m + b -> a + c m + b for a unit scalar c."""
    field = tri.field
    c = field.coerce(c)
    if c == field.zero:
        raise NotInvertible("scaling by zero")
    images = []
    for j in range(tri.dim):
        v = list(tri.total.basis_vector(j))
        if j in tri.range_m:
            v = [field.mul(c, x) for x in v]
        images.append(v)
    return LinMap.from_images(field, images, tri.dim, tri.dim)
