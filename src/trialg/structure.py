"""The theorem half of the algebra layer: centers, annihilators and
faithfulness, the faithful quotient and tau, nilpotency, radicals and
structure checks, the block decomposition of a block-preserving automorphism
of a triangular algebra, and the inner and scaling automorphisms.

Only the commands that run these import this module (center, sigma-center,
radical, nil-radical and every command that decomposes a twist), as the
theorem checkers of classify do; TriAlgebra.faithfulness imports it on its
first call.  The solve path (cli, io, spaces) never loads it.

Every (twisted) center is read off algcore.twisted_ad: sigma_center_direct is
the kernel of FinAlgebra.center_map, and the center of Trian(A, M, B) for the
blocks (f, g, nu) of an automorphism comes from its block description
(twisted_center_T: the corner centers and a m = nu(m) b, coupling_rows).
The Koethe/Jacobson radical is the kernel of the trace form (kept in the
algebra's store), and structure_checks decides Condition (I),
nondegeneracy and the idempotents, exhaustive over F_p^n (enumerated at most
once per check, within TRIALG_BUDGET, the only budget) and by exact criteria
otherwise.

Every subspace is built from sparse rows: algcore.block_span moves rows of
A, M's unit rows and rows of B into their blocks of T (rad(A) + M + rad(B),
the annihilator checks), diagonal_pairs and project_subspace re-index kernel
rows, and is_ideal is one inclusion of the columns of L_v and R_v.

In the one store of each instance (exactla.derived), block_decompose keeps
each verified AutBlocks on the TriAlgebra, and an AutBlocks Z_sigma, the
corner twisted centers, the projections of Z_sigma and eta.  A map that fails
is kept nowhere.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field

from .algcore import (
    Bimodule,
    FinAlgebra,
    SparseTable,
    TriAlgebra,
    _mul_map,
    _sparse_table,
    block_span,
    build_triangular,
    enumeration_budget,
    product_rule_failure,
    twisted_ad,
    unit_m,
)
from .errors import (
    BudgetExceeded,
    CharTooSmall,
    DimMismatch,
    FieldMismatch,
    InputError,
    NotAutomorphism,
    NotBlockPreserving,
    NotFaithful,
    NotInvertible,
    TheoremViolation,
)
from .exactla import Field, LinMap, Subspace, _sparse, derived, kernel_sparse, span_coefficients
from .sigmamaps import automorphism_verdict

# ---------------------------------------------------------------------------
# centers
# ---------------------------------------------------------------------------


def coupling_rows(tri: TriAlgebra, m, nu_m) -> list:
    """Sparse rows of a m = nu(m) b over the pair unknowns (a, b), a first:
    the nonzero rows of [a -> a m | b -> -nu(m) b], in ascending output
    coordinate of M."""
    cols = tri.left_action_on(m).columns + tri.right_action_on(tuple(map(tri.field.neg, nu_m))).columns
    return [row for row in LinMap._trusted(tri.field, cols, tri.M.dim_m)._sparse_rows() if row]


def diagonal_pairs(tri: TriAlgebra, rows) -> Subspace:
    """Kernel of sparse rows over the pair unknowns (a, b), embedded as a + b
    in the total algebra: each kernel row with its b-part moved past M."""
    da, dm = tri.A.dim, tri.M.dim_m
    pairs = kernel_sparse(tri.field, rows, da + tri.B.dim)
    return Subspace._from_rows(tri.field, tri.dim, ({k if k < da else k + dm: c for k, c in row}
                                                    for row in pairs.rows))


def sigma_center_direct(alg: FinAlgebra, sigma: LinMap) -> Subspace:
    """Kernel of x -> ([e_i, x]_sigma)_i over all basis vectors (FinAlgebra.center_map)."""
    return alg.center_map(sigma).kernel()


def center_direct(alg: FinAlgebra) -> Subspace:
    """Kernel of x -> ([e_i, x])_i: the commutant-style center computation."""
    return sigma_center_direct(alg, alg.identity_map())


def twisted_center_T(tri: TriAlgebra, f: LinMap, g: LinMap, nu: LinMap) -> Subspace:
    """Twisted center of Trian(A, M, B) for the blocks (f, g, nu) of an automorphism.

    Diagonal pairs (a, b) with a in the f-twisted center of A, b in the
    g-twisted center of B, and a m = nu(m) b on every basis m, embedded back
    into the total algebra.
    """
    field, da, dm = tri.field, tri.A.dim, tri.M.dim_m
    rows = itertools.chain(
        tri.A.center_map(f)._sparse_rows(),
        ({da + j: v for j, v in row.items()} for row in tri.B.center_map(g)._sparse_rows()),
        *(coupling_rows(tri, unit_m(field, dm, j), nu.image_of_basis(j)) for j in range(dm)))
    return diagonal_pairs(tri, rows)


def center_T(tri: TriAlgebra) -> Subspace:
    """Center of Trian(A, M, B) from its block description: the twisted center
    for identity blocks (a central in A, b central in B, am = mb)."""
    return twisted_center_T(tri, tri.A.identity_map(), tri.B.identity_map(),
                            LinMap.identity(tri.field, tri.M.dim_m))


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


def _annihilator(field: Field, table: SparseTable, ncols: int, gs) -> Subspace:
    """{x : x g = 0 for every basis vector g listed in gs}, for table[i][g]
    the product of basis vectors i and g (x ranges over ncols coordinates):
    the kernel of one row per g and output coordinate."""
    rows = {}
    for i, row in enumerate(table):
        for g in gs:
            for k, c in row[g]:
                rows.setdefault((g, k), {})[i] = c
    return kernel_sparse(field, rows.values(), ncols)


def annihilators(tri: TriAlgebra) -> AnnihilatorReport:
    field = tri.field
    dm = tri.M.dim_m
    t = tri.total
    # L = {a : a m_j = 0 for all j}, R = {b : m_j b = 0 for all j}
    L = _annihilator(field, tri.M._left_pairs, tri.A.dim, range(dm))
    R = _annihilator(field, tri.M._right_pairs.transpose(), tri.B.dim, range(dm))
    # annihilators of M inside the total algebra: x m_j = 0, resp. m_j x = 0
    lann = _annihilator(field, t._pairs, t.dim, tri.range_m)
    rann = _annihilator(field, t._pairs.transpose(), t.dim, tri.range_m)
    report = AnnihilatorReport(L, R, lann, rann, L.is_zero(), R.is_zero())
    if report.left_faithful and report.right_faithful and dm > 0:
        if lann != block_span(tri, (), True, Subspace.full(field, tri.B.dim).rows):
            raise TheoremViolation("left annihilator of a faithful corner bimodule must be M + B")
        if rann != block_span(tri, Subspace.full(field, tri.A.dim).rows, True, ()):
            raise TheoremViolation("right annihilator of a faithful corner bimodule must be A + M")
    return report


@dataclass(frozen=True)
class SubspaceMap:
    """Linear map between two subspaces, in their RREF-basis coordinates."""

    domain: Subspace
    codomain: Subspace
    matrix: LinMap  # codomain coordinates of the image of each domain basis vector

    def apply_ambient(self, vec) -> tuple:
        """Apply to an ambient vector of the domain, returning an ambient vector."""
        return self.codomain.combine(self.matrix.apply(self.domain.coords(vec)))

    def is_bijective(self) -> bool:
        return self.matrix.is_bijective()

    def inverse(self) -> "SubspaceMap":
        return SubspaceMap(self.codomain, self.domain, self.matrix.inverse())


def project_subspace(sub: Subspace, indices) -> Subspace:
    """Coordinate projection of a subspace onto the listed positions: each
    row with its entries there moved to their places in the list."""
    at = {i: t for t, i in enumerate(indices)}
    return Subspace._from_rows(sub.field, len(at), ({at[k]: c for k, c in row if k in at} for row in sub.rows))


def eta_from_center(tri: TriAlgebra, z: Subspace, projections: tuple, nu: LinMap) -> SubspaceMap:
    """eta: pi_B(Z) -> pi_A(Z) with eta(b) m = nu(m) b, for Z the twisted center
    of the blocks with corner block nu (faithful case) and projections
    (pi_A(Z), pi_B(Z)).  Verified as L_eta(b) = R_b o nu for every basis
    vector b of pi_B(Z), and for bijectivity.
    """
    field, da, off_b = tri.field, tri.A.dim, tri.A.dim + tri.M.dim_m
    pa, pb = projections
    # the corner parts of the rows of Z, each in its corner's coordinates
    parts_a = LinMap._trusted(field, (tuple(e for e in row if e[0] < da) for row in z.rows), da)
    parts_b = [(tuple((k - off_b, c) for k, c in row if k >= off_b),) for row in z.rows]
    cols = []
    for u in pb.rows:
        coeffs = span_coefficients(field, parts_b, (u,))
        if coeffs is None:
            raise TheoremViolation("projection of the twisted center is inconsistent")
        cols.append(pa.coords(parts_a.apply(coeffs)))
    eta = SubspaceMap(pb, pa, LinMap._trusted(field, map(_sparse, cols), pa.dim))
    for u in pb.basis:
        if tri.left_action(eta.apply_ambient(u)) != tri.right_action(u).compose(nu):
            raise TheoremViolation("eta(b) m != nu(m) b on a basis pair")
    if not eta.is_bijective():
        raise TheoremViolation("eta is not bijective")
    return eta


def tau_iso(tri: TriAlgebra) -> SubspaceMap:
    """The isomorphism pi_A(Z) -> pi_B(Z) with am = m tau(a), faithful case only:
    eta for the identity blocks, inverted."""
    if not tri.is_faithful():
        raise NotFaithful("tau requires M faithful on both sides")
    z = center_T(tri)
    projections = project_subspace(z, tri.range_a), project_subspace(z, tri.range_b)
    return eta_from_center(tri, z, projections, LinMap.identity(tri.field, tri.M.dim_m)).inverse()


def quotient_algebra(alg: FinAlgebra, ideal: Subspace) -> tuple[FinAlgebra, LinMap]:
    """Quotient by a two-sided ideal subspace.

    Returns the quotient algebra on the non-pivot coordinates and the
    projection onto them (the quotient coordinates of each original basis
    vector in its columns).
    """
    field = alg.field
    n = alg.dim
    if ideal.ambient_dim != n:
        raise DimMismatch("ideal lives in the wrong ambient space")
    piv = set(ideal.pivots)
    keep = [i for i in range(n) if i not in piv]

    def reduce_vec(entries) -> tuple:
        """The quotient coordinates of the vector with these (k, c)."""
        v = ideal.reduce(entries)
        return tuple(v.get(i, field.zero) for i in keep)

    pairs = alg._pairs
    table = _sparse_table((reduce_vec(pairs[i][j]) for j in keep) for i in keep)
    unit = reduce_vec(enumerate(alg.unit))
    names = tuple(alg.basis_names[i] for i in keep)
    quotient = FinAlgebra._trusted(field, table, unit, names)
    proj_cols = [reduce_vec(((i, field.one),)) for i in range(n)]
    return quotient, LinMap._trusted(field, map(_sparse, proj_cols), len(keep))


def faithful_quotient(tri: TriAlgebra) -> TriAlgebra:
    """Trian(A/L, M, B/R): the faithful model of the same triangular algebra."""
    ann = annihilators(tri)
    field = tri.field
    Aq, _ = quotient_algebra(tri.A, ann.L)
    Bq, _ = quotient_algebra(tri.B, ann.R)
    keep_a = [i for i in range(tri.A.dim) if i not in set(ann.L.pivots)]
    keep_b = [i for i in range(tri.B.dim) if i not in set(ann.R.pivots)]
    dm = tri.M.dim_m
    # induced actions: act by any representative (L M = M R = 0 makes this well defined)
    left = SparseTable(tri.M._left_pairs[i] for i in keep_a)
    right = SparseTable(tuple(row[k] for k in keep_b) for row in tri.M._right_pairs)
    Mq = Bimodule._trusted(field, Aq.dim, dm, Bq.dim, left, right, tri.M.basis_names)
    out = build_triangular(Aq, Mq, Bq, allow_zero_m=(dm == 0))
    if dm > 0 and not out.is_faithful():
        raise TheoremViolation("faithful quotient is not faithful")
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


def subspace_product(alg: FinAlgebra, u: Subspace, v: Subspace) -> Subspace:
    """The span of the products x y, x in u and y in v: the columns of
    L_x o the inclusion of v, for x over the basis of u."""
    incl = v.inclusion()
    return Subspace._from_rows(alg.field, alg.dim, (dict(col) for x in u.basis
                                                    for col in alg.left_mul_mat(x).compose(incl).columns))


def is_ideal(alg: FinAlgebra, sub: Subspace) -> bool:
    """e_i v and v e_i lie in sub for every basis vector v of sub and every i:
    sub holds the columns of L_v and of R_v."""
    n, right = alg.dim, alg._pairs.transpose()
    return all(sub.holds(alg.left_mul_mat(v).columns) and sub.holds(_mul_map(alg.field, right, v, n, n).columns)
               for v in sub.basis)


def is_nilpotent_subspace(alg: FinAlgebra, sub: Subspace) -> bool:
    """True when some power of the subspace (as a set of products) vanishes."""
    cur = sub
    for _ in range(alg.dim + 1):
        if cur.is_zero():
            return True
        cur = subspace_product(alg, cur, sub)
    return cur.is_zero()


def _trace_form_rows(alg: FinAlgebra):
    """The nonzero entries of each row i of the trace form of the left
    regular representation, read off the product table: tr(L_i L_j) is the
    sum over a of the e_a-coefficient of e_i (e_j e_a)."""
    field = alg.field
    add, mul, zero = field.add, field.mul, field.zero
    pairs = alg._pairs
    for i in range(alg.dim):
        left = [dict(prods) for prods in pairs[i]]  # left[k][a]: e_a in e_i e_k
        row = {}
        for j, row_j in enumerate(pairs):
            acc = zero
            for a, prods in enumerate(row_j):
                for k, c in prods:
                    d = left[k].get(a)
                    if d:
                        acc = add(acc, mul(c, d))
            if acc:
                row[j] = acc
        yield row


def radical(alg: FinAlgebra) -> Subspace:
    """Largest nil ideal, computed as the trace-form kernel of the left
    regular representation (valid in characteristic 0 or p > dim).

    The result is verified to be a nilpotent two-sided ideal and kept in
    alg's store; CharTooSmall is raised on every call.
    """
    p = alg.field.characteristic
    if p != 0 and p <= alg.dim:
        raise CharTooSmall(p, alg.dim)

    def make():
        rad = kernel_sparse(alg.field, _trace_form_rows(alg), alg.dim)
        if not is_ideal(alg, rad):
            raise TheoremViolation("trace-form kernel is not an ideal")
        if not is_nilpotent_subspace(alg, rad):
            raise TheoremViolation("trace-form kernel is not nil")
        for v in rad.basis:
            if not nilpotency(alg, v).nilpotent:
                raise TheoremViolation("radical basis vector is not nilpotent")
        return rad
    return derived(alg, "radical", make)


def nil_radical_T(tri: TriAlgebra) -> Subspace:
    """Koethe radical of the triangular algebra: rad(A) + M + rad(B)."""
    rad_a = radical(tri.A)
    rad_b = radical(tri.B)
    out = block_span(tri, rad_a.rows, True, rad_b.rows)
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


def _enumerate_elements(p: int, dim: int):
    """Every vector of F_p^dim, in lexicographic order.  Reads
    enumeration_budget() first; BudgetExceeded over Q or beyond the budget."""
    budget = enumeration_budget()
    if p == 0:
        raise BudgetExceeded("cannot enumerate an infinite field")
    count = p ** dim
    if count > budget:
        raise BudgetExceeded("p^dim = %d exceeds budget %d" % (count, budget))
    return itertools.product(range(p), repeat=dim)


def _sandwich_zero(alg: FinAlgebra, x, y) -> bool:
    """x A y = 0: x e_i y vanishes for every basis vector e_i."""
    zero = alg.zero_vector()
    return all(alg.mul_vec(alg.mul_vec(x, alg.basis_vector(i)), y) == zero for i in range(alg.dim))


def _central_witness(alg: FinAlgebra, idems: list) -> tuple | None:
    """The first idempotent that is not central, if any."""
    return next((e for e in idems if not twisted_ad(alg, alg.identity_map(), e).is_zero()), None)


def _nondegenerate_by_radical(alg: FinAlgebra) -> StructureReport:
    """A zero Koethe radical forces non-degeneracy; a nonzero one gives a
    witness a with aAa = 0 from its last nonzero power."""
    try:
        rad = radical(alg)
    except CharTooSmall:
        return StructureReport("nondegenerate", "undecided", "none", notes=["char too small for trace form"])
    if rad.is_zero():
        return StructureReport("nondegenerate", "holds", "radical", notes=["radical = 0"])
    cur = rad  # radical() verified that some power of rad vanishes
    while not (nxt := subspace_product(alg, cur, rad)).is_zero():
        cur = nxt
    a = cur.basis[0]
    if _sandwich_zero(alg, a, a):
        return StructureReport("nondegenerate", "fails", "radical", witness=a)
    return StructureReport("nondegenerate", "undecided", "radical", notes=["nonzero radical but no witness found"])


def structure_checks(alg: FinAlgebra, mode: str) -> StructureReport:
    """condition_I | nondegenerate | idempotents | central_idempotents.

    Exhaustive over F_p^dim, enumerated at most once per call within
    enumeration_budget() (read on every call); over Q or beyond the budget
    only exact sufficient criteria run (commutativity, semiprimitivity via the
    trace form) and the rest is undecided, but idempotents raises BudgetExceeded.
    """
    try:
        elements = _enumerate_elements(alg.field.characteristic, alg.dim)
    except BudgetExceeded:
        if mode == "idempotents":
            raise
        elements = None
    if mode not in ("condition_I", "nondegenerate", "idempotents", "central_idempotents"):
        raise InputError("unknown structure check mode %r" % (mode,))

    if mode == "nondegenerate":
        if elements is None:
            return _nondegenerate_by_radical(alg)
        zero = alg.zero_vector()
        witness = next((a for a in elements if a != zero and _sandwich_zero(alg, a, a)), None)
        return StructureReport(mode, "holds" if witness is None else "fails", "exhaustive", witness=witness)

    comm = alg.is_commutative()
    if mode == "central_idempotents" and comm:
        return StructureReport(mode, "holds", "commutative")
    idems = None if elements is None else [x for x in elements if alg.mul_vec(x, x) == x]
    if mode == "idempotents":
        return StructureReport(mode, "holds", "exhaustive", idempotents=idems)
    if mode == "central_idempotents":
        if idems is None:
            return StructureReport(mode, "undecided", "none", notes=["not commutative and not enumerable"])
        witness = _central_witness(alg, idems)
        return StructureReport(mode, "holds" if witness is None else "fails", "exhaustive", witness=witness)

    report = StructureReport(mode, "undecided", "none")
    # the witness: an idempotent e with eA(1-e) = 0 but (1-e)Ae != 0
    pairs = [(e, alg.sub_vec(alg.unit, e)) for e in idems or ()]
    witness = next((e for e, f in pairs if _sandwich_zero(alg, e, f) and not _sandwich_zero(alg, f, e)), None)
    if comm:
        report.verdict, report.method = "holds", "commutative"
    elif idems is not None:
        report.verdict, report.method, report.witness = \
            "holds" if witness is None else "fails", "exhaustive", witness
    elif _nondegenerate_by_radical(alg).verdict == "holds":
        report.verdict, report.method = "holds", "nondegenerate"
    else:
        report.notes.append("no exact sufficient criterion applied")
    if idems is not None:
        # verify commutative => central idempotents => Condition (I) on this instance
        central = comm or _central_witness(alg, idems) is None
        cond = witness is None
        report.implications = {"commutative": comm, "central_idempotents": central, "condition_I": cond}
        if (comm and not central) or (central and not cond):
            raise TheoremViolation("idempotent implication chain fails on this instance")
    return report


# ---------------------------------------------------------------------------
# twisted-center machinery on triangular algebras
# ---------------------------------------------------------------------------


def _corner_range(tri: TriAlgebra, name: str) -> range:
    """The coordinates of corner "A", "M" or "B" in the total algebra."""
    return {"A": tri.range_a, "M": tri.range_m, "B": tri.range_b}[name]


def block_of(tri: TriAlgebra, f: LinMap, src: str, dst: str) -> LinMap:
    """The block of a map f on the total algebra from corner src to corner
    dst (each "A", "M" or "B"): e_j of src goes to the dst part of f(e_j).
    Its columns are those of f at src, cut to dst."""
    rs, rd = _corner_range(tri, src), _corner_range(tri, dst)
    lo, hi = rd.start, rd.stop
    return LinMap._trusted(tri.field, [tuple((k - lo, c) for k, c in f.columns[j] if lo <= k < hi) for j in rs],
                           len(rd))


def from_blocks(tri: TriAlgebra, blocks: dict) -> LinMap:
    """The map on the total algebra with the blocks {(src, dst): LinMap},
    as block_of reads them, and zero in every block not given."""
    cols = [[] for _ in range(tri.dim)]
    for (src, dst), block in blocks.items():
        lo = _corner_range(tri, dst).start
        for j, col in zip(_corner_range(tri, src), block.columns):
            cols[j].extend((lo + k, c) for k, c in col)
    return LinMap._trusted(tri.field, map(sorted, cols), tri.dim)


@dataclass(frozen=True)
class AutBlocks:
    """Diagonal blocks (f, g) and corner block nu of a block-preserving
    automorphism, and the data read off them, each made on first use and kept
    in its store (derived): center, corner_centers, projections and eta."""

    tri: TriAlgebra
    f: LinMap  # on A
    g: LinMap  # on B
    nu: LinMap  # on M
    source: LinMap  # the automorphism of the total algebra

    def verify(self):
        tri = self.tri
        left, right = tri.M._left_pairs, tri.M._right_pairs
        if not automorphism_verdict(tri.A, self.f).holds:
            raise TheoremViolation("A-block of a block-preserving automorphism must be an automorphism")
        if not automorphism_verdict(tri.B, self.g).holds:
            raise TheoremViolation("B-block must be an automorphism")
        if not self.nu.is_bijective():
            raise TheoremViolation("M-block must be bijective")
        if product_rule_failure(left, self.nu, ((self.f, self.nu, left),)):
            raise TheoremViolation("nu(am) != f(a) nu(m) on a basis pair")
        if product_rule_failure(right, self.nu, ((self.nu, self.g, right),)):
            raise TheoremViolation("nu(mb) != nu(m) g(b) on a basis pair")

    @property
    def center(self) -> Subspace:
        """Z_sigma, from the block description (twisted_center_T)."""
        return derived(self, "center", lambda: twisted_center_T(self.tri, self.f, self.g, self.nu))

    @property
    def corner_centers(self) -> tuple[Subspace, Subspace]:
        """(Z_f(A), Z_g(B)), the twisted centers of the corners."""
        return derived(self, "corner_centers", lambda: (sigma_center_direct(self.tri.A, self.f),
                                                        sigma_center_direct(self.tri.B, self.g)))

    @property
    def projections(self) -> tuple[Subspace, Subspace]:
        """(pi_A(Z_sigma), pi_B(Z_sigma))."""
        return derived(self, "projections", lambda: (project_subspace(self.center, self.tri.range_a),
                                                     project_subspace(self.center, self.tri.range_b)))

    @property
    def eta(self) -> SubspaceMap | None:
        """eta: pi_B(Z_sigma) -> pi_A(Z_sigma), eta(b) m = nu(m) b; None unless M is faithful."""
        return derived(self, "eta", lambda: eta_from_center(self.tri, self.center, self.projections, self.nu)
                       if self.tri.is_faithful() else None)


def block_decompose(tri: TriAlgebra, sigma: LinMap) -> AutBlocks:
    """Split a block-preserving automorphism of the total algebra into (f, g, nu).
    The verified AutBlocks is kept in tri's store under ("blocks", sigma); a
    map that fails is kept nowhere and checked again on every call."""
    def make():
        if not automorphism_verdict(tri.total, sigma).holds:
            raise NotAutomorphism("block decomposition needs an automorphism")
        t = tri.total
        for name, rng in (("A", tri.range_a), ("M", tri.range_m), ("B", tri.range_b)):
            for j in rng:
                if any(k not in rng for k, _ in sigma.columns[j]):
                    raise NotBlockPreserving("sigma maps basis vector %d (%r) of block %s to %s, outside %s" % (
                        j, t.basis_names[j], name, t.format_vector(sigma.image_of_basis(j)), name))
        blocks = AutBlocks(tri, block_of(tri, sigma, "A", "A"), block_of(tri, sigma, "B", "B"),
                           block_of(tri, sigma, "M", "M"), sigma)
        blocks.verify()
        return blocks
    return derived(tri, ("blocks", sigma), make)


def sigma_center(tri: TriAlgebra, blocks: AutBlocks) -> tuple[Subspace, SubspaceMap | None]:
    """(Z_sigma, eta) of the blocks (AutBlocks.center and AutBlocks.eta): eta
    is None unless the bimodule is faithful on both sides."""
    if blocks.tri is not tri and blocks.tri != tri:
        raise FieldMismatch("blocks belong to a different triangular algebra")
    return blocks.center, blocks.eta


# ---------------------------------------------------------------------------
# inner automorphisms
# ---------------------------------------------------------------------------


def inner_automorphism(alg: FinAlgebra, u) -> LinMap:
    """Conjugation x -> u^{-1} x u by an invertible element, R_u o L_{u^-1}
    read off the product table and its transpose."""
    u, n = alg.coerce_vector(u), alg.dim
    return _mul_map(alg.field, alg._pairs.transpose(), u, n, n).compose(alg.left_mul_mat(alg.invert(u)))


def scaling_automorphism(tri: TriAlgebra, c) -> LinMap:
    """a + m + b -> a + c m + b for a unit scalar c."""
    field = tri.field
    c = field.coerce(c)
    if not c:
        raise NotInvertible("scaling by zero")
    one, m = field.one, tri.range_m
    return LinMap._trusted(field, (((j, c if j in m else one),) for j in range(tri.dim)), tri.dim)
