"""Complete solution spaces of map equations, plus the inner and extremal
constructors and the block form of twisted derivations.

Each defining identity is bilinear (or trilinear) in its arguments, so imposing
it on basis tuples yields an exact linear system in the flattened map
coordinates; the solution space is its kernel, returned with a canonical RREF
basis.  Flattening is row-major: a linear map matrix entry [k][j] sits at
k*dim + j, a bilinear tensor entry [i][j][k] at (i*dim + j)*dim + k.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algcore import FinAlgebra, TriAlgebra
from .errors import (
    CentralElement,
    CommutativeAlgebra,
    InputError,
    NotSigmaCentral,
    NotSigmaDerivation,
    PreconditionFails,
    TheoremViolation,
)
from .exactla import Mat, Subspace, kernel_sparse, solve_linear
from .sigmamaps import (
    AutBlocks,
    BilinMap,
    LinMap,
    block_decompose,
    classify_bilinear,
    classify_linear,
    require_automorphism,
    sigma_commutator_vec,
)

SOLVE_KINDS = ("derivation", "sigma_derivation", "biderivation",
               "sigma_biderivation", "sigma_commuting", "commuting")
DEFAULT_BILINEAR_DIM_CAP = 8


@dataclass(frozen=True)
class MapSpace:
    """Solution space of one map equation over flattened coordinates."""

    kind: str
    algebra: FinAlgebra
    sigma: LinMap | None
    subspace: Subspace

    @property
    def dim(self) -> int:
        return self.subspace.dim

    def is_linear_kind(self) -> bool:
        return self.kind in ("derivation", "sigma_derivation", "commuting", "sigma_commuting")

    def basis_maps(self):
        n = self.algebra.dim
        if self.is_linear_kind():
            return [LinMap.unflatten(self.algebra.field, v, n, n) for v in self.subspace.basis]
        return [BilinMap.unflatten(self.algebra.field, v, n) for v in self.subspace.basis]

    def contains(self, m: LinMap | BilinMap) -> bool:
        return self.subspace.contains_vector(m.flatten())

    def coords(self, m: LinMap | BilinMap) -> tuple:
        return self.subspace.coords(m.flatten())

    def to_json(self):
        fmt = self.algebra.field.format
        return {
            "kind": self.kind,
            "ambient_dim": self.subspace.ambient_dim,
            "dim": self.dim,
            "flattening": "row-major",
            "basis": [[fmt(v) for v in row] for row in self.subspace.basis],
        }


def _algebra_of(t) -> FinAlgebra:
    return t.total if isinstance(t, TriAlgebra) else t


def _dedup_rows(rows):
    seen = set()
    for r in rows:
        if not r:
            continue
        key = tuple(sorted(r.items()))
        if key in seen:
            continue
        seen.add(key)
        yield r


def _derivation_rows(alg: FinAlgebra, sigma: LinMap):
    """d(e_i e_j) = d(e_i) e_j + sigma(e_i) d(e_j), flattened unknowns d[k][j]."""
    n = alg.dim
    field = alg.field
    zero, sub, add = field.zero, field.sub, field.add
    left_sigma = [alg.left_mul_mat(sigma.image_of_basis(i)) for i in range(n)]
    right = [alg.basis_right_mat(j) for j in range(n)]
    for i in range(n):
        ls = left_sigma[i].rows
        for j in range(n):
            cij = alg.mul[i][j]
            rj = right[j].rows
            for m in range(n):
                row: dict[int, object] = {}
                for l, c in enumerate(cij):
                    if c:
                        row[m * n + l] = add(row.get(m * n + l, zero), c)
                for t in range(n):
                    v = rj[m][t]
                    if v:
                        key = t * n + i
                        nv = sub(row.get(key, zero), v)
                        if not nv:
                            row.pop(key, None)
                        else:
                            row[key] = nv
                    w = ls[m][t]
                    if w:
                        key = t * n + j
                        nv = sub(row.get(key, zero), w)
                        if not nv:
                            row.pop(key, None)
                        else:
                            row[key] = nv
                if row:
                    yield row


def _commuting_rows(alg: FinAlgebra, sigma: LinMap):
    """sigma(x) Theta(x) - Theta(x) x = 0 for x over basis vectors and pairwise sums."""
    n = alg.dim
    field = alg.field
    zero, add, mul = field.zero, field.add, field.mul

    def rows_for(x):
        lsx = alg.left_mul_mat(sigma.apply(x)).rows
        rx = alg.right_mul_mat(x).rows
        for m in range(n):
            row: dict[int, object] = {}
            for t in range(n):
                coeff = field.sub(lsx[m][t], rx[m][t])
                if not coeff:
                    continue
                for s, xs in enumerate(x):
                    if xs:
                        key = t * n + s
                        nv = add(row.get(key, zero), mul(coeff, xs))
                        if not nv:
                            row.pop(key, None)
                        else:
                            row[key] = nv
            if row:
                yield row

    for i in range(n):
        yield from rows_for(alg.basis_vector(i))
    for i in range(n):
        for j in range(i + 1, n):
            yield from rows_for(alg.add_vec(alg.basis_vector(i), alg.basis_vector(j)))


def _biderivation_rows(alg: FinAlgebra, sigma: LinMap):
    """Both slot conditions over all basis triples, unknowns t[i][j][k]."""
    n = alg.dim
    field = alg.field
    zero, sub, add = field.zero, field.sub, field.add
    left_sigma = [alg.left_mul_mat(sigma.image_of_basis(i)).rows for i in range(n)]
    right = [alg.basis_right_mat(j).rows for j in range(n)]

    def idx(a, b, c):
        return (a * n + b) * n + c

    for i in range(n):
        ls = left_sigma[i]
        for j in range(n):
            cij = alg.mul[i][j]
            rj = right[j]
            for k in range(n):
                for m in range(n):
                    # first slot: D(e_i e_j, e_k) - D(e_i, e_k) e_j - sigma(e_i) D(e_j, e_k)
                    row: dict[int, object] = {}
                    for l, c in enumerate(cij):
                        if c:
                            key = idx(l, k, m)
                            row[key] = add(row.get(key, zero), c)
                    for t in range(n):
                        v = rj[m][t]
                        if v:
                            key = idx(i, k, t)
                            nv = sub(row.get(key, zero), v)
                            if not nv:
                                row.pop(key, None)
                            else:
                                row[key] = nv
                        w = ls[m][t]
                        if w:
                            key = idx(j, k, t)
                            nv = sub(row.get(key, zero), w)
                            if not nv:
                                row.pop(key, None)
                            else:
                                row[key] = nv
                    if row:
                        yield row
                    # second slot: D(e_k, e_i e_j) - D(e_k, e_i) e_j - sigma(e_i) D(e_k, e_j)
                    row = {}
                    for l, c in enumerate(cij):
                        if c:
                            key = idx(k, l, m)
                            row[key] = add(row.get(key, zero), c)
                    for t in range(n):
                        v = rj[m][t]
                        if v:
                            key = idx(k, i, t)
                            nv = sub(row.get(key, zero), v)
                            if not nv:
                                row.pop(key, None)
                            else:
                                row[key] = nv
                        w = ls[m][t]
                        if w:
                            key = idx(k, j, t)
                            nv = sub(row.get(key, zero), w)
                            if not nv:
                                row.pop(key, None)
                            else:
                                row[key] = nv
                    if row:
                        yield row


def solve_space(kind: str, t, sigma: LinMap | None = None,
                bilinear_dim_cap: int = DEFAULT_BILINEAR_DIM_CAP,
                verify: bool = True) -> MapSpace:
    """Kernel of the stacked defining identity; every basis map re-passes its
    own predicate before the space is returned."""
    alg = _algebra_of(t)
    field = alg.field
    n = alg.dim
    if kind not in SOLVE_KINDS:
        raise InputError("unknown solve kind %r" % (kind,))
    twisted = kind.startswith("sigma_")
    if twisted:
        sigma = require_automorphism(alg, sigma)
    else:
        if sigma is not None:
            raise InputError("kind %r takes no twist map" % (kind,))
        sigma = LinMap.identity(field, n)
    if kind in ("biderivation", "sigma_biderivation"):
        if n > bilinear_dim_cap:
            raise InputError("bilinear solve capped at dim %d (got %d)" % (bilinear_dim_cap, n))
        rows = _biderivation_rows(alg, sigma)
        ncols = n ** 3
    elif kind in ("derivation", "sigma_derivation"):
        rows = _derivation_rows(alg, sigma)
        ncols = n ** 2
    else:
        rows = _commuting_rows(alg, sigma)
        ncols = n ** 2
    sub = kernel_sparse(field, _dedup_rows(rows), ncols)
    space = MapSpace(kind, alg, sigma if twisted else None, sub)
    if verify:
        check_sigma = sigma if twisted else None
        for m in space.basis_maps():
            if isinstance(m, BilinMap):
                v = classify_bilinear(kind, alg, m, check_sigma)
            else:
                v = classify_linear(kind, alg, m, check_sigma)
            if not v.holds:
                raise TheoremViolation("solved %s space contains a non-solution" % kind)
    return space


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def inner_sigma_derivation(t, x0, sigma: LinMap) -> LinMap:
    """x -> [x, x0]_sigma; always a sigma-derivation."""
    alg = _algebra_of(t)
    x0 = alg.coerce_vector(x0)
    images = [sigma_commutator_vec(alg, alg.basis_vector(j), x0, sigma) for j in range(alg.dim)]
    d = LinMap.from_images(alg.field, images, alg.dim, alg.dim)
    v = classify_linear("sigma_derivation", alg, d, sigma)
    if not v.holds:
        raise TheoremViolation("inner twisted derivation failed its own identity")
    return d


def is_sigma_central(t, x, sigma: LinMap) -> bool:
    alg = _algebra_of(t)
    x = alg.coerce_vector(x)
    zero = alg.zero_vector()
    return all(sigma_commutator_vec(alg, alg.basis_vector(i), x, sigma) == zero
               for i in range(alg.dim))


def inner_sigma_biderivation(t, lam, sigma: LinMap) -> BilinMap:
    """(x, y) -> lambda [x, y] for a twisted-central lambda on a noncommutative algebra."""
    alg = _algebra_of(t)
    lam = alg.coerce_vector(lam)
    zero = alg.zero_vector()
    noncomm = any(alg.commutator(alg.basis_vector(i), alg.basis_vector(j)) != zero
                  for i in range(alg.dim) for j in range(i + 1, alg.dim))
    if not noncomm:
        raise CommutativeAlgebra("inner twisted biderivations need [T, T] != 0")
    if not is_sigma_central(alg, lam, sigma):
        raise NotSigmaCentral("lambda is not twisted-central")
    vals = [[alg.mul_vec(lam, alg.commutator(alg.basis_vector(i), alg.basis_vector(j)))
             for j in range(alg.dim)] for i in range(alg.dim)]
    D = BilinMap(alg.field, vals)
    v = classify_bilinear("sigma_biderivation", alg, D, sigma)
    if not v.holds:
        raise TheoremViolation("inner twisted biderivation failed its own identity")
    return D


def extremal_sigma_biderivation(t, x0, sigma: LinMap) -> BilinMap:
    """(x, y) -> [x, [y, x0]_sigma]_sigma for x0 outside the twisted center
    with [[T, T], x0]_sigma = 0.

    Symmetry and the biderivation identity are re-verified on the result.
    """
    alg = _algebra_of(t)
    x0 = alg.coerce_vector(x0)
    if is_sigma_central(alg, x0, sigma):
        raise CentralElement("x0 lies in the twisted center")
    zero = alg.zero_vector()
    for i in range(alg.dim):
        for j in range(alg.dim):
            comm = alg.commutator(alg.basis_vector(i), alg.basis_vector(j))
            if sigma_commutator_vec(alg, comm, x0, sigma) != zero:
                raise PreconditionFails((i, j))
    inner = [sigma_commutator_vec(alg, alg.basis_vector(j), x0, sigma) for j in range(alg.dim)]
    vals = [[sigma_commutator_vec(alg, alg.basis_vector(i), inner[j], sigma)
             for j in range(alg.dim)] for i in range(alg.dim)]
    psi = BilinMap(alg.field, vals)
    if not psi.is_symmetric():
        raise TheoremViolation("extremal twisted biderivation is not symmetric")
    v = classify_bilinear("sigma_biderivation", alg, psi, sigma)
    if not v.holds:
        raise TheoremViolation("extremal twisted biderivation failed its own identity")
    return psi


def inner_derivation_witness(t, d: LinMap, sigma: LinMap) -> tuple | None:
    """Solve [x, x0]_sigma = d(x) for x0; None when d is not inner."""
    alg = _algebra_of(t)
    rows = []
    rhs = []
    for j in range(alg.dim):
        mj = alg.left_mul_mat(sigma.image_of_basis(j)) - alg.basis_right_mat(j)
        rows.extend(mj.rows)
        rhs.extend(d.image_of_basis(j))
    x0 = solve_linear(Mat(alg.field, rows, alg.dim), rhs)
    if x0 is None:
        return None
    if inner_sigma_derivation(alg, x0, sigma).mat != d.mat:
        raise TheoremViolation("inner-derivation solve returned a non-witness")
    return x0


# ---------------------------------------------------------------------------
# block form of twisted derivations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DerivationBlocks:
    """Block data (d_A, d_B, m_d, xi) of a twisted derivation of a triangular
    algebra: d(a + m + b) = d_A(a) + (f(a) m_d - m_d b + xi(m)) + d_B(b)."""

    tri: TriAlgebra
    blocks: AutBlocks
    d_a: LinMap
    d_b: LinMap
    m_d: tuple
    xi: LinMap

    def reassemble(self) -> LinMap:
        tri = self.tri
        field = tri.field
        images = []
        for j in range(tri.A.dim):
            a = tri.A.basis_vector(j)
            mpart = tri.act_left(self.blocks.f.apply(a), self.m_d)
            images.append(tri.assemble(self.d_a.image_of_basis(j), mpart, [field.zero] * tri.B.dim))
        for j in range(tri.M.dim_m):
            images.append(tri.assemble([field.zero] * tri.A.dim, self.xi.image_of_basis(j),
                                       [field.zero] * tri.B.dim))
        for j in range(tri.B.dim):
            b = tri.B.basis_vector(j)
            mpart = tuple(field.neg(v) for v in tri.act_right(self.m_d, b))
            images.append(tri.assemble([field.zero] * tri.A.dim, mpart, self.d_b.image_of_basis(j)))
        return LinMap.from_images(field, images, tri.dim, tri.dim)


def sigma_derivation_blocks(tri: TriAlgebra, d: LinMap, blocks: AutBlocks) -> DerivationBlocks:
    """Extract (d_A, d_B, m_d, xi) and verify the block identities exactly.

    m_d is the corner part of d(p); reassembly reproducing d is the normative
    contract for the sign conventions.
    """
    alg = tri.total
    v = classify_linear("sigma_derivation", alg, d, blocks.source)
    if not v.holds:
        raise NotSigmaDerivation(str(v.witness.indices if v.witness else ""))
    field = tri.field
    d_a = LinMap.from_images(field, [tri.part_a(d.image_of_basis(j)) for j in tri.range_a],
                             tri.A.dim, tri.A.dim)
    d_b = LinMap.from_images(field, [tri.part_b(d.image_of_basis(j)) for j in tri.range_b],
                             tri.B.dim, tri.B.dim)
    xi = LinMap.from_images(field, [tri.part_m(d.image_of_basis(j)) for j in tri.range_m],
                            tri.M.dim_m, tri.M.dim_m)
    m_d = tri.part_m(d.apply(tri.p))
    hw = DerivationBlocks(tri, blocks, d_a, d_b, m_d, xi)
    _verify_derivation_blocks(hw, d)
    return hw


def _verify_derivation_blocks(hw: DerivationBlocks, d: LinMap):
    tri = hw.tri
    from .sigmamaps import is_sigma_derivation

    if not is_sigma_derivation(tri.A, hw.d_a, hw.blocks.f).holds:
        raise TheoremViolation("corner block d_A is not an f-twisted derivation")
    if not is_sigma_derivation(tri.B, hw.d_b, hw.blocks.g).holds:
        raise TheoremViolation("corner block d_B is not a g-twisted derivation")
    # xi(a m) = d_A(a) m + f(a) xi(m) and xi(m b) = xi(m) b + nu(m) d_B(b)
    field = tri.field
    dm = tri.M.dim_m
    for i in range(tri.A.dim):
        a = tri.A.basis_vector(i)
        fa = hw.blocks.f.image_of_basis(i)
        da = hw.d_a.image_of_basis(i)
        for j in range(dm):
            m = [field.zero] * dm
            m[j] = field.one
            lhs = hw.xi.apply(tri.act_left(a, m))
            rhs = tuple(field.add(x, y) for x, y in
                        zip(tri.act_left(da, m), tri.act_left(fa, hw.xi.image_of_basis(j))))
            if lhs != rhs:
                raise TheoremViolation("xi fails its left action identity")
    for j in range(dm):
        m = [field.zero] * dm
        m[j] = field.one
        nm = hw.blocks.nu.image_of_basis(j)
        for k in range(tri.B.dim):
            b = tri.B.basis_vector(k)
            lhs = hw.xi.apply(tri.act_right(m, b))
            rhs = tuple(field.add(x, y) for x, y in
                        zip(tri.act_right(hw.xi.image_of_basis(j), b),
                            tri.act_right(nm, hw.d_b.image_of_basis(k))))
            if lhs != rhs:
                raise TheoremViolation("xi fails its right action identity")
    if hw.reassemble().mat != d.mat:
        raise TheoremViolation("block reassembly does not reproduce the twisted derivation")


# ---------------------------------------------------------------------------
# twisted Posner intersection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PosnerResult:
    intersection: Subspace
    derivation_space: MapSpace
    commuting_space: MapSpace
    faithful: bool

    @property
    def dim(self) -> int:
        return self.intersection.dim


def posner_intersection(tri: TriAlgebra, sigma: LinMap) -> PosnerResult:
    """Intersection of the twisted-derivation and twisted-commuting spaces.

    For a faithful instance with block-preserving sigma the intersection must
    vanish; a nonzero intersection there is raised as a finding.
    """
    block_decompose(tri, sigma)  # the reduction assumes block preservation
    faithful = tri.is_faithful()
    der = solve_space("sigma_derivation", tri, sigma)
    comm = solve_space("sigma_commuting", tri, sigma)
    inter = der.subspace.intersect(comm.subspace)
    result = PosnerResult(inter, der, comm, faithful)
    if faithful and inter.dim != 0:
        raise TheoremViolation(
            "nonzero twisted-commuting twisted derivation on a faithful instance (dim %d)"
            % inter.dim)
    return result
