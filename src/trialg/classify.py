"""Theorem-level decompositions and hypothesis checkers for triangular
algebras: the extremal-plus-inner splitting of twisted biderivations, the
block description and properness of twisted commuting maps, the block
structure of corner-preserving endomorphisms, and partibility certificates.
Also here: the constructors these read off the solved spaces (the inner
sigma-derivation x -> [x, x0]_sigma read off algcore.twisted_ad, the inner
biderivation lambda [., .] and the extremal biderivation, each re-verified),
the block form of twisted derivations (sigma_derivation_blocks) and the
twisted Posner intersection.  They sit
here, not in spaces, so that a one-shot solve does not load them.

Every checker verifies its hypotheses before asserting a conclusion; a
conclusion that fails with verified hypotheses raises TheoremViolation, which
is a reportable finding rather than a silent failure.  Every commutator [x, y]
is read off FinAlgebra.bracket_map, made once per algebra: the inner-witness
system solves on the columns of L_z o [., .], z in the twisted center, and
[A, A] is its image.
Z_sigma, its projections, the corner twisted centers and eta are read off the
AutBlocks of sigma, made once per (T, sigma), and every bimodule action off
the action maps of TriAlgebra.
Every subspace is built from sparse rows (the corner-kernel ideals by
algcore.block_span, f(ker g) as the image of f o the inclusion of ker g); a
value space is one inclusion of all columns of a map (Subspace.holds), and
the direct properness solve runs on the columns of L_z and Theta reduced
against Z_sigma.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field, fields

from .algcore import (
    Bimodule,
    FinAlgebra,
    SparseTable,
    TriAlgebra,
    _sparse_table,
    basis_and_pair_sums,
    block_span,
    build_triangular,
    enumeration_budget,
    product_rule_failure,
    product_rule_rows,
    quadratic_failure,
    twisted_ad,
)
from .errors import (
    BudgetExceeded,
    CharTooSmall,
    CentralElement,
    CommutativeAlgebra,
    NotAutomorphism,
    NotBlockPreserving,
    NotEndomorphism,
    NotFaithful,
    NotMPreserving,
    NotSigmaBiderivation,
    NotSigmaCentral,
    NotSigmaCommuting,
    NotSigmaDerivation,
    PreconditionFails,
    TheoremViolation,
)
from .exactla import IntegerRows, Subspace, _sparse, kernel_sparse, span_coefficients
from .sigmamaps import (
    BilinMap,
    LinMap,
    automorphism_verdict,
    classify_bilinear,
    classify_linear,
    is_endomorphism,
    require_holds,
)
from .spaces import MapSpace, _algebra_of, solve_space
from .structure import (
    AutBlocks,
    _enumerate_elements,
    annihilators,
    block_decompose,
    block_of,
    coupling_rows,
    diagonal_pairs,
    from_blocks,
    inner_automorphism,
    is_ideal,
    radical,
    structure_checks,
    subspace_product,
)

# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass
class Hypothesis:
    name: str
    verdict: str  # "pass" | "fail" | "undecided"
    evidence: str = ""

    def to_json(self):
        return dict(vars(self))


@dataclass
class TheoremReport:
    theorem: str
    hypotheses: list = dc_field(default_factory=list)
    verdict: str = ""
    witnesses: list = dc_field(default_factory=list)
    violations: list = dc_field(default_factory=list)
    notes: list = dc_field(default_factory=list)

    def all_pass(self) -> bool:
        return all(h.verdict == "pass" for h in self.hypotheses)

    def to_json(self):
        return {**vars(self), "hypotheses": [h.to_json() for h in self.hypotheses]}


# ---------------------------------------------------------------------------
# inner and extremal constructors
# ---------------------------------------------------------------------------


def inner_sigma_derivation(t, x0, sigma: LinMap) -> LinMap:
    """x -> [x, x0]_sigma, twisted_ad(alg, sigma, x0); always a sigma-derivation."""
    alg = _algebra_of(t)
    d = twisted_ad(alg, sigma, x0)
    v = classify_linear("sigma_derivation", alg, d, sigma)
    if not v.holds:
        raise TheoremViolation("inner twisted derivation failed its own identity")
    return d


def is_sigma_central(t, x, sigma: LinMap) -> bool:
    return twisted_ad(_algebra_of(t), sigma, x).is_zero()


def inner_sigma_biderivation(t, lam, sigma: LinMap) -> BilinMap:
    """(x, y) -> lambda [x, y] for a twisted-central lambda on a noncommutative algebra."""
    alg = _algebra_of(t)
    lam = alg.coerce_vector(lam)
    if alg.is_commutative():
        raise CommutativeAlgebra("inner twisted biderivations need [T, T] != 0")
    if not is_sigma_central(alg, lam, sigma):
        raise NotSigmaCentral("lambda is not twisted-central")
    n, cols = alg.dim, alg.left_mul_mat(lam).compose(alg.bracket_map()).columns  # entry [i][j] at i*n + j
    D = BilinMap._trusted(alg.field, SparseTable(cols[i * n:(i + 1) * n] for i in range(n)))
    v = classify_bilinear("sigma_biderivation", alg, D, sigma)
    if not v.holds:
        raise TheoremViolation("inner twisted biderivation failed its own identity")
    return D


def extremal_sigma_biderivation(t, x0, sigma: LinMap) -> BilinMap:
    """(x, y) -> [x, [y, x0]_sigma]_sigma for x0 outside the twisted center
    with [[T, T], x0]_sigma = 0, PreconditionFails naming the first (i, j) in
    row-major order where [[e_i, e_j], x0]_sigma, column i*n + j of
    inner o [., .] for inner = twisted_ad(alg, sigma, x0), does not vanish.
    Symmetry and the biderivation identity are re-verified on the result.
    """
    alg = _algebra_of(t)
    inner = twisted_ad(alg, sigma, x0)
    if inner.is_zero():
        raise CentralElement("x0 lies in the twisted center")
    failing = next((c for c, col in enumerate(inner.compose(alg.bracket_map()).columns) if col), None)
    if failing is not None:
        raise PreconditionFails(divmod(failing, alg.dim))
    table = zip(*(twisted_ad(alg, sigma, inner.image_of_basis(j)).columns for j in range(alg.dim)))
    psi = BilinMap._trusted(alg.field, SparseTable(table))
    if not psi.is_symmetric():
        raise TheoremViolation("extremal twisted biderivation is not symmetric")
    v = classify_bilinear("sigma_biderivation", alg, psi, sigma)
    if not v.holds:
        raise TheoremViolation("extremal twisted biderivation failed its own identity")
    return psi


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
        return from_blocks(tri, {("A", "A"): self.d_a, ("M", "M"): self.xi, ("B", "B"): self.d_b,
                                 ("A", "M"): tri.left_action_on(self.m_d).compose(self.blocks.f),
                                 ("B", "M"): -tri.right_action_on(self.m_d)})


def sigma_derivation_blocks(tri: TriAlgebra, d: LinMap, blocks: AutBlocks) -> DerivationBlocks:
    """Extract (d_A, d_B, m_d, xi) and verify the block identities exactly.

    m_d is the corner part of d(p); reassembly reproducing d is the normative
    contract for the sign conventions.
    """
    require_holds(classify_linear("sigma_derivation", tri.total, d, blocks.source), NotSigmaDerivation)
    m_d = tri.part_m(d.apply(tri.p))
    hw = DerivationBlocks(tri, blocks, block_of(tri, d, "A", "A"), block_of(tri, d, "B", "B"), m_d,
                          block_of(tri, d, "M", "M"))
    _verify_derivation_blocks(hw, d)
    return hw


def _verify_derivation_blocks(hw: DerivationBlocks, d: LinMap):
    tri = hw.tri
    field = tri.field
    if not classify_linear("sigma_derivation", tri.A, hw.d_a, hw.blocks.f).holds:
        raise TheoremViolation("corner block d_A is not an f-twisted derivation")
    if not classify_linear("sigma_derivation", tri.B, hw.d_b, hw.blocks.g).holds:
        raise TheoremViolation("corner block d_B is not a g-twisted derivation")
    # xi(a m) = d_A(a) m + f(a) xi(m) and xi(m b) = xi(m) b + nu(m) d_B(b)
    left, right = tri.M._left_pairs, tri.M._right_pairs
    id_m, id_b = LinMap.identity(field, tri.M.dim_m), tri.B.identity_map()
    if product_rule_failure(left, hw.xi, ((hw.d_a, id_m, left), (hw.blocks.f, hw.xi, left))):
        raise TheoremViolation("xi fails its left action identity")
    if product_rule_failure(right, hw.xi, ((hw.xi, id_b, right), (hw.blocks.nu, hw.d_b, right))):
        raise TheoremViolation("xi fails its right action identity")
    if hw.reassemble() != d:
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


# ---------------------------------------------------------------------------
# extremal + inner splitting of twisted biderivations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExtremalSplit:
    psi: BilinMap
    residual: BilinMap
    corner_value: tuple  # D(p, p)

    def to_json(self):
        fmt = self.psi.field.format
        return {"corner_value": [fmt(v) for v in self.corner_value],
                "extremal": self.psi.to_json(), "residual": self.residual.to_json()}


def extremal_split(tri: TriAlgebra, D: BilinMap, sigma: LinMap) -> ExtremalSplit:
    """Split D into the extremal part attached to D(p, p) plus a residual
    vanishing at (p, p)."""
    alg = tri.total
    require_holds(classify_bilinear("sigma_biderivation", alg, D, sigma), NotSigmaBiderivation)
    x0 = D.apply(tri.p, tri.p)
    zero = alg.zero_vector()
    if x0 == zero:
        return ExtremalSplit(BilinMap.zero(alg.field, alg.dim), D, x0)
    # the corner value must land in the strictly upper block and outside Z_sigma
    pxq = alg.mul_vec(alg.mul_vec(tri.p, x0), tri.q)
    if pxq != x0:
        raise TheoremViolation("D(p, p) is not concentrated in the corner block")
    try:
        psi = extremal_sigma_biderivation(alg, x0, sigma)
    except (CentralElement, PreconditionFails) as exc:
        raise TheoremViolation("extremal construction rejected D(p, p): %s" % exc) from exc
    residual = D - psi
    if residual.apply(tri.p, tri.p) != zero:
        raise TheoremViolation("residual does not vanish at (p, p)")
    rv = classify_bilinear("sigma_biderivation", alg, residual, sigma)
    if not rv.holds:
        raise TheoremViolation("residual is not a twisted biderivation")
    return ExtremalSplit(psi, residual, x0)


# ---------------------------------------------------------------------------
# inner witnesses for twisted biderivations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InnerWitness:
    lam: tuple  # element of the total algebra, twisted-central
    lam_a: tuple  # its corner-A part

    def to_json(self, field):
        return {"lambda": [field.format(v) for v in self.lam],
                "lambda_A": [field.format(v) for v in self.lam_a]}


def inner_biderivation_witness(tri: TriAlgebra, D0: BilinMap, sigma: LinMap,
                               hypotheses: TheoremReport | None = None
                               ) -> InnerWitness | None:
    """Solve D0 = lambda [.,.] over the twisted center; None when not inner.

    When a hypotheses report with all four conditions passing is supplied (or
    computed by the caller), a None result is escalated to a finding.
    """
    alg = tri.total
    require_holds(classify_bilinear("sigma_biderivation", alg, D0, sigma), NotSigmaBiderivation)
    zero = alg.zero_vector()
    if D0.apply(tri.p, tri.p) != zero:
        raise PreconditionFails("inner witnesses require D(p, p) = 0")
    z_sigma = block_decompose(tri, sigma).center
    field = alg.field
    # L_z o [., .] for z in the twisted center: column i*n + j is entry [i][j] of D0's table
    brackets, target = alg.bracket_map(), tuple(itertools.chain(*D0.table))
    gens = [alg.left_mul_mat(z).compose(brackets).columns for z in z_sigma.basis]
    coeffs = span_coefficients(field, gens, target)
    if coeffs is None:
        if hypotheses is not None and hypotheses.all_pass():
            raise TheoremViolation("hypotheses verified but a corner-vanishing twisted "
                                   "biderivation is not inner")
        return None
    lam = z_sigma.combine(coeffs)
    if alg.left_mul_mat(lam).compose(brackets).columns != target:
        raise TheoremViolation("inner witness solve returned a non-witness")
    lam_a = tri.part_a(lam)
    # cross-check the corner action: D0(p, m) = lam_a . m on every corner basis vector
    for j in tri.range_m:
        m = alg.basis_vector(j)
        if D0.apply(tri.p, m) != alg.mul_vec(lam, m):
            raise TheoremViolation("inner witness fails D(p, m) = lambda_A m")
    return InnerWitness(lam, lam_a)


def innerness_hypotheses(tri: TriAlgebra, blocks: AutBlocks) -> TheoremReport:
    """The four innerness hypotheses for corner-vanishing twisted biderivations.

    (i) the diagonal projections of the twisted center fill the twisted
    centers of the corners; (ii) a noncommutative corner exists; (iii) no
    nonzero twisted-central element annihilates a nonzero element (strong
    reading of the annihilation condition, see notes); (iv) every
    intertwining map on the corner bimodule is of scalar-action form.
    """
    enumeration_budget()  # a malformed TRIALG_BUDGET fails every call, not only the enumerating ones
    report = TheoremReport("inner twisted biderivations")

    # (i) projections of the twisted center
    pa, pb = blocks.projections
    zfa, zgb = blocks.corner_centers
    ok = pa == zfa and pb == zgb
    report.hypotheses.append(Hypothesis(
        "center_projections", "pass" if ok else "fail",
        "dim pi_A(Z)=%d vs dim Z_f(A)=%d; dim pi_B(Z)=%d vs dim Z_g(B)=%d"
        % (pa.dim, zfa.dim, pb.dim, zgb.dim)))

    # (ii) a noncommutative corner
    noncomm = (not tri.A.is_commutative()) or (not tri.B.is_commutative())
    report.hypotheses.append(Hypothesis(
        "noncommutative_corner", "pass" if noncomm else "fail",
        "A commutative: %s, B commutative: %s" % (tri.A.is_commutative(), tri.B.is_commutative())))

    # (iii) no nonzero twisted-central annihilator
    report.hypotheses.append(_annihilation_hypothesis(tri, blocks.center))

    # (iv) intertwiners are of scalar-action form
    s1 = _intertwiner_space(tri, blocks)
    s2 = _scalar_action_space(tri, blocks)
    if not s1.contains(s2):
        raise TheoremViolation("scalar-action maps must always intertwine")
    ok4 = s1 == s2
    report.hypotheses.append(Hypothesis(
        "intertwiners_scalar", "pass" if ok4 else "fail",
        "dim intertwiners=%d, dim scalar-action=%d" % (s1.dim, s2.dim)))

    report.verdict = "all hypotheses pass" if report.all_pass() else "hypotheses incomplete"
    report.notes.append(
        "annihilation condition implemented in the strong reading: no nonzero "
        "twisted-central element annihilates any nonzero element")
    return report


def _annihilation_hypothesis(tri: TriAlgebra, z_sigma: Subspace) -> Hypothesis:
    alg = tri.total
    if z_sigma.dim == 0:
        return Hypothesis("central_annihilation", "pass", "twisted center is zero")
    p = tri.field.characteristic
    if p != 0:
        try:
            combos = _enumerate_elements(p, z_sigma.dim)
        except BudgetExceeded:
            return Hypothesis("central_annihilation", "undecided",
                              "span of size %d exceeds budget" % p ** z_sigma.dim)
        for combo in combos:
            if any(combo) and alg.left_mul_mat(z_sigma.combine(combo)).rank() != alg.dim:
                return Hypothesis("central_annihilation", "fail",
                                  "lambda with singular left multiplication found")
        return Hypothesis("central_annihilation", "pass",
                          "exhaustive over %d elements" % (p ** z_sigma.dim))
    if z_sigma.dim == 1:
        lam = z_sigma.basis[0]
        if alg.left_mul_mat(lam).rank() == alg.dim:
            return Hypothesis("central_annihilation", "pass", "rank test on the 1-dim center")
        return Hypothesis("central_annihilation", "fail", "basis element annihilates a vector")
    return Hypothesis("central_annihilation", "undecided",
                      "rational twisted center of dim > 1")


def _intertwiner_space(tri: TriAlgebra, blocks: AutBlocks) -> Subspace:
    """Maps xi on M with xi(a m b) = f(a) xi(m) b, as a flattened subspace.

    M is unital, so this is xi(a m) = f(a) xi(m) together with xi(m b) = xi(m) b.
    """
    left, right = tri.M._left_pairs, tri.M._right_pairs
    dm = tri.M.dim_m
    sides = ((left, ((blocks.f, None, left),)),
             (right, ((None, tri.B.identity_map(), right),)))
    rows = [row for table, terms in sides
            for block in product_rule_rows(table, terms, dm)[1] for row in block.values()]
    return kernel_sparse(tri.field, IntegerRows(rows), dm * dm)


def _scalar_action_space(tri: TriAlgebra, blocks: AutBlocks) -> Subspace:
    """Span of the maps L_lam0 (m -> lam0 m) and R_mu0 o nu (m -> nu(m) mu0)
    for lam0 in Z_f(A) and mu0 in Z_g(B), flattened as _intertwiner_space
    (entry [k][j] at k*dim M + j) from their columns."""
    zfa, zgb = blocks.corner_centers
    dm = tri.M.dim_m
    gens = [tri.left_action(lam0) for lam0 in zfa.basis]
    gens += [tri.right_action(mu0).compose(blocks.nu) for mu0 in zgb.basis]
    return Subspace._from_rows(tri.field, dm * dm, ({k * dm + j: c for j, col in enumerate(g.columns) for k, c in col}
                                                    for g in gens))


# ---------------------------------------------------------------------------
# twisted commuting maps: block description, properness, sufficiency
# ---------------------------------------------------------------------------


class _CornerBlocks:
    """The corner blocks of a map, one dataclass field each, whose metadata
    names its (source, target) corners; read off the map at those corners
    and written by field name."""

    @classmethod
    def of(cls, tri: TriAlgebra, f: LinMap):
        return cls(**{fd.name: block_of(tri, f, *fd.metadata["block"]) for fd in fields(cls)})

    def to_json(self):
        return {fd.name: getattr(self, fd.name).to_json() for fd in fields(self)}


@dataclass(frozen=True)
class CommutingBlocks(_CornerBlocks):
    """The six corner blocks of a twisted commuting map."""

    delta1: LinMap = dc_field(metadata={"block": ("A", "A")})
    delta2: LinMap = dc_field(metadata={"block": ("M", "A")})
    delta3: LinMap = dc_field(metadata={"block": ("B", "A")})
    mu1: LinMap = dc_field(metadata={"block": ("A", "B")})
    mu2: LinMap = dc_field(metadata={"block": ("M", "B")})
    mu3: LinMap = dc_field(metadata={"block": ("B", "B")})


def commuting_blocks(tri: TriAlgebra, theta: LinMap, blocks: AutBlocks
                     ) -> tuple[CommutingBlocks, TheoremReport]:
    """Extract the six corner blocks of a twisted commuting map and verify the
    whole block description, including the closed form of its M-block."""
    alg = tri.total
    require_holds(classify_linear("sigma_commuting", alg, theta, blocks.source), NotSigmaCommuting)
    if not tri.is_faithful():
        raise NotFaithful("the block description needs a faithful bimodule")
    cb = CommutingBlocks.of(tri, theta)
    report = TheoremReport("block description of twisted commuting maps")
    _verify_commuting_blocks(tri, theta, blocks, cb)
    report.verdict = "all conditions verified"
    return cb, report


def _verify_commuting_blocks(tri: TriAlgebra, theta: LinMap, blocks: AutBlocks,
                             cb: CommutingBlocks):
    field, dm = tri.field, tri.M.dim_m
    nu = blocks.nu
    left, right = tri.M._left_pairs, tri.M._right_pairs
    right_t = right.transpose()
    ident_m, ident_b = LinMap.identity(field, dm), tri.B.identity_map()
    # the closed form L_delta1(1) - R_mu1(1) o nu of the M-block, and
    # R_mu3(1) o nu - L_delta3(1) of condition (vi)
    mblock = tri.left_action(cb.delta1.apply(tri.A.unit)) - tri.right_action(cb.mu1.apply(tri.A.unit)).compose(nu)
    vi_form = tri.right_action(cb.mu3.apply(tri.B.unit)).compose(nu) - tri.left_action(cb.delta3.apply(tri.B.unit))

    # M-block: zero on the corners, the closed form on M
    if not block_of(tri, theta, "A", "M").is_zero():
        raise TheoremViolation("Theta(A) has a nonzero M-part")
    if not block_of(tri, theta, "B", "M").is_zero():
        raise TheoremViolation("Theta(B) has a nonzero M-part")
    if block_of(tri, theta, "M", "M") != mblock:
        raise TheoremViolation("M-block of Theta differs from its closed form")
    # value spaces: each twisted center holds all columns of its blocks
    zfa, zgb = blocks.corner_centers
    for name, center, corner in (("delta2", zfa, "A"), ("mu2", zgb, "B"), ("mu1", zgb, "B"), ("delta3", zfa, "A")):
        if not center.holds(getattr(cb, name).columns):
            raise TheoremViolation("%s does not map into the twisted center of %s" % (name, corner))
    # (i), (ii): corner commuting conditions
    if not classify_linear("sigma_commuting", tri.A, cb.delta1, blocks.f).holds:
        raise TheoremViolation("delta1 is not twisted-commuting on A")
    if not classify_linear("sigma_commuting", tri.B, cb.mu3, blocks.g).holds:
        raise TheoremViolation("mu3 is not twisted-commuting on B")
    # the minus signs of the conditions are carried by negated tables
    neg_left, neg_right, neg_right_t = (t.negated(field) for t in (left, right, right_t))
    # (iii) delta1(a) m - nu(m) mu1(a) = f(a) mblock(m) on the basis pairs (a, m)
    if product_rule_failure(left, None, ((cb.delta1, ident_m, left), (cb.mu1, nu, neg_right_t),
                                         (blocks.f, mblock, neg_left))):
        raise TheoremViolation("condition (iii) fails on a basis pair")
    # (iv) nu(m) mu3(b) - delta3(b) m = vi_form(m) b on the basis pairs (b, m)
    if product_rule_failure(right_t, None, ((cb.mu3, nu, right_t), (cb.delta3, ident_m, neg_left),
                                            (ident_b, vi_form, neg_right_t))):
        raise TheoremViolation("condition (iv) fails on a basis pair")
    # (v) delta2(m) m = nu(m) mu2(m) on singles and pairs of M, hence on all of M
    if quadratic_failure(((cb.delta2, ident_m, left), (nu, cb.mu2, neg_right)), dm):
        raise TheoremViolation("condition (v) fails on the quadratic span")
    # (vi)
    if mblock != vi_form:
        raise TheoremViolation("condition (vi) fails on a basis vector")


@dataclass(frozen=True)
class ProperWitness:
    lam: tuple  # twisted-central element of the total algebra
    omega: LinMap  # twisted-central-valued remainder


@dataclass
class PropernessResult:
    proper: bool
    witness: ProperWitness | None
    violated: str | None
    verdicts: dict

    def to_json(self):
        out = {"proper": self.proper, "verdicts": self.verdicts}
        if self.violated:
            out["violated"] = self.violated
        if self.witness is not None:
            fmt = self.witness.omega.field.format
            out["witness"] = {"lambda": [fmt(v) for v in self.witness.lam],
                              "omega": self.witness.omega.to_json()}
        return out


def properness(tri: TriAlgebra, theta: LinMap, blocks: AutBlocks) -> PropernessResult:
    """Decide whether a twisted commuting map splits as lambda x + Omega(x).

    Three independent verdicts are computed (two center-membership criteria
    and a direct linear solve for the pair); they must agree.
    """
    cb, _ = commuting_blocks(tri, theta, blocks)
    field = tri.field
    alg = tri.total
    z_sigma, eta = blocks.center, blocks.eta
    pa, pb = blocks.projections
    dm = tri.M.dim_m
    off_b = tri.A.dim + dm
    # diag(delta2, mu2): column j is delta2(m_j) + mu2(m_j), the B-part moved past M
    diag_ok = z_sigma.holds(d + tuple((off_b + k, c) for k, c in m)
                            for d, m in zip(cb.delta2.columns, cb.mu2.columns))
    # criterion on unit images
    d1_one = cb.delta1.apply(tri.A.unit)
    mu1_one = cb.mu1.apply(tri.A.unit)
    crit_iii = pa.contains_vector(d1_one) and pb.contains_vector(mu1_one) and diag_ok
    # criterion on full corner images
    crit_ii = pb.holds(cb.mu1.columns) and pa.holds(cb.delta3.columns) and diag_ok
    # direct solve for lambda with Theta - lambda . ( ) twisted-central-valued
    direct = _direct_proper_solve(tri, theta, z_sigma)
    verdicts = {"unit_criterion": crit_iii, "image_criterion": crit_ii,
                "direct_solve": direct is not None}
    if len(set(verdicts.values())) != 1:
        raise TheoremViolation("properness criteria disagree: %r" % (verdicts,))
    if not crit_iii:
        which = []
        if not pa.contains_vector(d1_one):
            which.append("delta1(1) outside pi_A(Z_sigma)")
        if not pb.contains_vector(mu1_one):
            which.append("mu1(1) outside pi_B(Z_sigma)")
        if not diag_ok:
            which.append("diag(delta2, mu2) leaves Z_sigma")
        return PropernessResult(False, None, "; ".join(which), verdicts)
    lam = tri.assemble(
        tuple(field.sub(x, y) for x, y in zip(d1_one, eta.apply_ambient(mu1_one))),
        [field.zero] * dm,
        tuple(field.sub(x, y) for x, y in zip(eta.inverse().apply_ambient(d1_one), mu1_one)),
    )
    if not z_sigma.contains_vector(lam):
        raise TheoremViolation("constructed lambda is not twisted-central")
    lam_mul = alg.left_mul_mat(lam)
    omega = theta - lam_mul
    if not z_sigma.holds(omega.columns):
        raise TheoremViolation("remainder map is not twisted-central-valued")
    return PropernessResult(True, ProperWitness(lam, omega), None, verdicts)


def _direct_proper_solve(tri: TriAlgebra, theta: LinMap, z_sigma: Subspace) -> tuple | None:
    """Find lambda in the twisted center with Theta(e_j) - lambda e_j in it for all j.

    Membership is imposed through the reduction against the center subspace
    (Subspace.reduce), which is linear and vanishes exactly on it, so the
    system stays linear in the center coordinates of lambda: block j of each
    vector is the reduced column j of L_z, z over the basis of the center, and
    of Theta.
    """
    reduce = z_sigma.reduce
    gens = [[reduce(col).items() for col in tri.total.left_mul_mat(z).columns] for z in z_sigma.basis]
    return span_coefficients(tri.field, gens, [reduce(col).items() for col in theta.columns])


def properness_sufficiency(tri: TriAlgebra, blocks: AutBlocks) -> TheoremReport:
    """Sufficient conditions for every twisted commuting map to be proper.

    The single-element recovery condition (iii) is searched over corner basis
    vectors and pairwise sums only; a miss is reported as undecided, never as
    a refutation.
    """
    report = TheoremReport("properness of all twisted commuting maps")
    field = tri.field
    pa, pb = blocks.projections
    zfa, zgb = blocks.corner_centers
    comm_a = _commutator_span(tri.A)
    comm_b = _commutator_span(tri.B)
    ok1 = (zfa == pa) or comm_b.dim == tri.B.dim
    report.hypotheses.append(Hypothesis(
        "A_side", "pass" if ok1 else "fail",
        "Z_f(A) == pi_A(Z): %s; [B,B] = B: %s" % (zfa == pa, comm_b.dim == tri.B.dim)))
    ok2 = (zgb == pb) or comm_a.dim == tri.A.dim
    report.hypotheses.append(Hypothesis(
        "B_side", "pass" if ok2 else "fail",
        "Z_g(B) == pi_B(Z): %s; [A,A] = A: %s" % (zgb == pb, comm_a.dim == tri.A.dim)))
    m0 = _search_recovering_element(tri, blocks)
    if m0 is not None:
        report.hypotheses.append(Hypothesis("single_element_recovery", "pass",
                                            "m0 found in the search family"))
        report.witnesses.append({"m0": [field.format(v) for v in m0]})
    else:
        report.hypotheses.append(Hypothesis("single_element_recovery", "undecided",
                                            "not found among basis vectors and pairwise sums"))
        report.notes.append("the search family (basis vectors and pairwise sums) is incomplete")
    report.verdict = "all hypotheses pass" if report.all_pass() else "hypotheses incomplete"
    return report


def _commutator_span(alg: FinAlgebra) -> Subspace:
    """[A, A]: the image of the commutator map."""
    return alg.bracket_map().image()


def _search_recovering_element(tri: TriAlgebra, blocks: AutBlocks):
    """The first m0 among the basis vectors and pair sums of M whose diagonal
    pairs with a m0 = nu(m0) b are exactly Z_sigma, or None."""
    for m0 in basis_and_pair_sums(tri.field, tri.M.dim_m):
        if diagonal_pairs(tri, coupling_rows(tri, m0, blocks.nu.apply(m0))) == blocks.center:
            return m0
    return None


# ---------------------------------------------------------------------------
# corner-preserving endomorphisms: blocks, mono/epi, ideal splitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EndoBlocks(_CornerBlocks):
    """The seven blocks of an endomorphism outside M -> A and M -> B."""

    chi1: LinMap = dc_field(metadata={"block": ("A", "A")})
    chi2: LinMap = dc_field(metadata={"block": ("A", "M")})
    chi3: LinMap = dc_field(metadata={"block": ("A", "B")})
    gamma1: LinMap = dc_field(metadata={"block": ("B", "B")})
    gamma2: LinMap = dc_field(metadata={"block": ("B", "M")})
    gamma3: LinMap = dc_field(metadata={"block": ("B", "A")})
    h: LinMap = dc_field(metadata={"block": ("M", "M")})

    def reassemble(self, tri: TriAlgebra) -> LinMap:
        """The map with these blocks and zero M -> A and M -> B blocks."""
        return from_blocks(tri, {fd.metadata["block"]: getattr(self, fd.name) for fd in fields(self)})


def endo_blocks(tri: TriAlgebra, phi: LinMap) -> tuple[EndoBlocks, TheoremReport]:
    """Seven-block decomposition of a unital endomorphism of the total algebra.

    The corner-structure identities are asserted (raised as findings on
    failure) when the endomorphism maps M onto M, which is the hypothesis
    under which they are guaranteed; with M mapped strictly into itself they
    are evaluated and reported only.
    """
    require_holds(is_endomorphism(tri.total, phi), NotEndomorphism)
    eb = EndoBlocks.of(tri, phi)
    report = TheoremReport("block structure of corner-preserving endomorphisms")
    m_into = block_of(tri, phi, "M", "A").is_zero() and block_of(tri, phi, "M", "B").is_zero()
    m_onto = m_into and eb.h.rank() == tri.M.dim_m
    report.hypotheses.append(Hypothesis("maps_M_into_M", "pass" if m_into else "fail"))
    report.hypotheses.append(Hypothesis("maps_M_onto_M", "pass" if m_onto else "fail"))
    if m_into and eb.reassemble(tri) != phi:
        raise TheoremViolation("block reassembly does not reproduce the endomorphism")
    if m_into:
        _thm0_conditions(tri, eb, report, assert_strict=m_onto)
        if eb.h.is_bijective():
            _thm1_conditions(tri, eb, report)
        anti = eb.chi1.is_zero() and eb.gamma1.is_zero()
        if anti:
            report.notes.append("anti-partible shape: both diagonal corner blocks vanish")
        report.verdict = "anti-partible" if anti else "corner-preserving blocks verified"
    else:
        report.verdict = "not corner-preserving; extraction only"
    return eb, report


def _thm0_conditions(tri: TriAlgebra, eb: EndoBlocks, report: TheoremReport, assert_strict: bool):
    A, B = tri.A, tri.B

    def fail(msg: str):
        if assert_strict:
            raise TheoremViolation(msg)
        report.violations.append(msg)

    for name, src, dst, f in (("chi1", A, A, eb.chi1), ("gamma3", B, A, eb.gamma3),
                              ("chi3", A, B, eb.chi3), ("gamma1", B, B, eb.gamma1)):
        if product_rule_failure(src._pairs, f, ((f, f, dst._pairs),)):
            fail("%s is not multiplicative" % name)
    im_chi1, im_gamma3 = eb.chi1.image(), eb.gamma3.image()
    im_chi3, im_gamma1 = eb.chi3.image(), eb.gamma1.image()
    if not subspace_product(A, im_chi1, im_gamma3).is_zero() or \
            not subspace_product(A, im_gamma3, im_chi1).is_zero():
        fail("images of chi1 and gamma3 do not annihilate each other")
    if not subspace_product(B, im_chi3, im_gamma1).is_zero() or \
            not subspace_product(B, im_gamma1, im_chi3).is_zero():
        fail("images of chi3 and gamma1 do not annihilate each other")
    if not (is_ideal(A, im_chi1) and is_ideal(A, im_gamma3)):
        fail("corner images are not ideals of A")
    if not (is_ideal(B, im_chi3) and is_ideal(B, im_gamma1)):
        fail("corner images are not ideals of B")
    if not (im_chi1.sum(im_gamma3).dim == A.dim and im_chi1.intersect(im_gamma3).is_zero()):
        fail("A is not the direct sum of the two corner images")
    if not (im_chi3.sum(im_gamma1).dim == B.dim and im_chi3.intersect(im_gamma1).is_zero()):
        fail("B is not the direct sum of the two corner images")
    report.notes.append("corner-image direct sums evaluated")


def _thm1_conditions(tri: TriAlgebra, eb: EndoBlocks, report: TheoremReport):
    ann = annihilators(tri)
    A, B = tri.A, tri.B

    def fail(msg):
        raise TheoremViolation(msg)

    if not ann.L.contains(eb.gamma3.image()):
        fail("image of gamma3 leaves the left annihilator of M")
    if not ann.R.contains(eb.chi3.image()):
        fail("image of chi3 leaves the right annihilator of M")
    if not ann.L.contains(eb.chi1.kernel()):
        fail("kernel of chi1 leaves the left annihilator of M")
    if not ann.R.contains(eb.gamma1.kernel()):
        fail("kernel of gamma1 leaves the right annihilator of M")
    left, right = tri.M._left_pairs, tri.M._right_pairs
    # chi2(a a') = chi1(a) chi2(a') with chi2(a) = chi1(a) chi2(1), and
    # gamma2(b b') = gamma2(b) gamma1(b') with gamma2(b) = gamma2(1) gamma1(b)
    for name, scale, alg, term, scaled in (
            ("chi2", "chi1", A, (eb.chi1, eb.chi2, left),
             tri.left_action_on(eb.chi2.apply(A.unit)).compose(eb.chi1)),
            ("gamma2", "gamma1", B, (eb.gamma2, eb.gamma1, right),
             tri.right_action_on(eb.gamma2.apply(B.unit)).compose(eb.gamma1))):
        block = getattr(eb, name)
        bad = product_rule_failure(alg._pairs, block, (term,))
        # row i's unit scaling is checked before row i's products
        rows = range(bad[0][0] + 1) if bad else range(alg.dim)
        if any(block.columns[i] != scaled.columns[i] for i in rows):
            fail("%s is not %s-scaled from its unit value" % (name, scale))
        if bad:
            fail("%s fails its product rule" % name)
    if not eb.chi2.kernel().contains(eb.chi1.kernel()):
        fail("kernel of chi1 is not inside kernel of chi2")
    if not eb.gamma2.kernel().contains(eb.gamma1.kernel()):
        fail("kernel of gamma1 is not inside kernel of gamma2")
    report.notes.append("bijective-h block identities verified")


@dataclass
class MonoEpiReport:
    mono_criteria: dict
    epi_criteria: dict
    mono: bool
    epi: bool
    rank: int
    injective: bool
    surjective: bool
    consistent: bool

    def to_json(self):
        return dict(vars(self))


def endo_mono_epi(tri: TriAlgebra, eb: EndoBlocks, phi: LinMap) -> MonoEpiReport:
    """Kernel/image criteria for injectivity and surjectivity, cross-checked
    against the rank of the full matrix.

    Both the literal intersection reading and the sum reading of the
    surjectivity image conditions are evaluated; the sum reading feeds the
    verdict, the rank check is ground truth.  A disagreement under the
    onto-M hypothesis is a finding.
    """
    m_into = eb.reassemble(tri) == phi
    if not m_into:
        raise NotMPreserving("mono/epi criteria need phi(M) inside M")
    A, B = tri.A, tri.B
    m1 = eb.h.kernel().is_zero()
    m2 = eb.chi1.kernel().intersect(eb.chi3.kernel()).is_zero()
    m3 = eb.gamma1.kernel().intersect(eb.gamma3.kernel()).is_zero()
    mono = m1 and m2 and m3
    e1 = eb.h.rank() == tri.M.dim_m
    # f(ker g), the image of the inclusion of ker g under f
    chi1_ker3 = eb.chi1.compose(eb.chi3.kernel().inclusion()).image()
    gamma3_ker1 = eb.gamma3.compose(eb.gamma1.kernel().inclusion()).image()
    gamma1_ker3 = eb.gamma1.compose(eb.gamma3.kernel().inclusion()).image()
    chi3_ker1 = eb.chi3.compose(eb.chi1.kernel().inclusion()).image()
    e2_sum = chi1_ker3.sum(gamma3_ker1).dim == A.dim
    e3_sum = gamma1_ker3.sum(chi3_ker1).dim == B.dim
    e2_lit = chi1_ker3.intersect(gamma3_ker1).dim == A.dim
    e3_lit = gamma1_ker3.intersect(chi3_ker1).dim == B.dim
    epi = e1 and e2_sum and e3_sum
    rank = phi.rank()
    injective = rank == tri.dim
    surjective = rank == tri.dim
    consistent = (mono == injective) and (epi == surjective)
    report = MonoEpiReport(
        {"kernel_h": m1, "kernel_chi": m2, "kernel_gamma": m3},
        {"h_onto": e1, "A_sum": e2_sum, "B_sum": e3_sum,
         "A_intersection_literal": e2_lit, "B_intersection_literal": e3_lit},
        mono, epi, rank, injective, surjective, consistent,
    )
    if not consistent and eb.h.rank() == tri.M.dim_m:
        raise TheoremViolation("mono/epi criteria disagree with the rank check: %r"
                               % report.to_json())
    return report


@dataclass
class IdealSplit:
    ideal_i: Subspace
    ideal_j: Subspace
    tri_i: TriAlgebra | None
    tri_j: TriAlgebra | None
    phi_i: LinMap | None
    phi_j: LinMap | None
    witness_i: "PartibleWitness | None"
    anti_partible_j: bool


def ideal_split(tri: TriAlgebra, phi: LinMap) -> IdealSplit:
    """Split T into invariant ideals I (triangular, restriction partible) and
    J (diagonal, restriction anti-partible) from the corner-block kernels."""
    if not automorphism_verdict(tri.total, phi).holds:
        raise NotAutomorphism("ideal splitting needs an automorphism")
    eb, _ = endo_blocks(tri, phi)
    if eb.reassemble(tri) != phi:
        raise NotMPreserving("ideal splitting needs phi(M) = M")
    t = tri.total
    ker_chi3, ker_gamma3 = eb.chi3.kernel(), eb.gamma3.kernel()
    ker_chi1, ker_gamma1 = eb.chi1.kernel(), eb.gamma1.kernel()
    sub_i = block_span(tri, ker_chi3.rows, True, ker_gamma3.rows)
    sub_j = block_span(tri, ker_chi1.rows, False, ker_gamma1.rows)
    if not is_ideal(t, sub_i) or not is_ideal(t, sub_j):
        raise TheoremViolation("corner-kernel blocks are not ideals")
    if sub_i.sum(sub_j).dim != tri.dim or not sub_i.intersect(sub_j).is_zero():
        raise TheoremViolation("the two ideals do not decompose the algebra")
    for sub in (sub_i, sub_j):
        if phi.compose(sub.inclusion()).image() != sub:
            raise TheoremViolation("ideal is not invariant under the automorphism")
    tri_i, phi_i = _sub_triangular(tri, ker_chi3, ker_gamma3, True, phi)
    tri_j, phi_j = _sub_triangular(tri, ker_chi1, ker_gamma1, False, phi)
    witness_i = None
    if tri_i is not None and phi_i is not None:
        witness_i = partible_witness(tri_i, phi_i)
        if witness_i is None:
            raise TheoremViolation("restriction to the triangular ideal is not partible "
                                   "within the witness family")
    anti = True
    if tri_j is not None and phi_j is not None:
        ebj, _ = endo_blocks(tri_j, phi_j)
        anti = ebj.chi1.is_zero() and ebj.gamma1.is_zero()
        if not anti:
            raise TheoremViolation("restriction to the diagonal ideal is not anti-partible")
    return IdealSplit(sub_i, sub_j, tri_i, tri_j, phi_i, phi_j, witness_i, anti)


def _sub_triangular(tri: TriAlgebra, sub_a: Subspace, sub_b: Subspace, include_m: bool,
                    phi: LinMap):
    """Build Trian(sub_a, M or 0, sub_b) and restrict phi to it.

    Returns (None, None) for the zero ideal.
    """
    field = tri.field
    dm = tri.M.dim_m if include_m else 0
    if sub_a.dim == 0 and sub_b.dim == 0 and dm == 0:
        return None, None
    # the rows of sub_a, of M and of sub_b, in the blocks of T, form the RREF
    # basis of the ideal in this order, and it carries them as they are
    ideal = block_span(tri, sub_a.rows, include_m, sub_b.rows)

    def coords(sub: Subspace, entries, leaves: str) -> tuple:
        c = sub.try_coords(entries)
        if c is None:
            raise TheoremViolation(leaves)
        return c

    # the unit of the ideal: component of 1 in this ideal within the I + J split
    unit_coords = _ideal_unit(tri, ideal)

    def corner(sub: Subspace, alg: FinAlgebra, unit, prefix: str) -> FinAlgebra:
        """The corner algebra on the basis of sub, its products u v (the
        columns of L_u o the inclusion of sub) in their coordinates."""
        leaves = "corner product leaves the corner ideal"
        incl = sub.inclusion()
        table = _sparse_table((coords(sub, col, leaves) for col in alg.left_mul_mat(u).compose(incl).columns)
                              for u in sub.basis)
        return FinAlgebra._trusted(field, table, unit, [prefix + str(i) for i in range(sub.dim)])

    alg_a = corner(sub_a, tri.A, unit_coords[: sub_a.dim], "a")
    alg_b = corner(sub_b, tri.B, unit_coords[sub_a.dim + dm:], "b")
    # M, or the zero bimodule when dm = 0: row a of left is L_a, row j of right column j of each R_b
    left = SparseTable(tri.left_action(a).columns if include_m else () for a in sub_a.basis)
    rights = [tri.right_action(b).columns for b in sub_b.basis]
    right = SparseTable(tuple(cols[j] for cols in rights) for j in range(dm))
    bm = Bimodule._trusted(field, sub_a.dim, dm, sub_b.dim, left, right)
    sub_tri = build_triangular(alg_a, bm, alg_b, allow_zero_m=True)
    images = [coords(ideal, col, "vector leaves the invariant ideal")
              for col in phi.compose(ideal.inclusion()).columns]
    phi_sub = LinMap._trusted(field, map(_sparse, images), ideal.dim)
    return sub_tri, phi_sub


def _ideal_unit(tri: TriAlgebra, ideal: Subspace) -> tuple:
    """Coordinates (in the RREF basis of the ideal) of the unit component in it."""
    # 1 * v = v for v in the ideal; the component of 1 inside the ideal is the
    # unique idempotent acting as the identity there: solve sum_c c_i (v_i v_j) = v_j,
    # block j of vector i the column j of L_{v_i} o the inclusion, of the target v_j
    incl = ideal.inclusion()
    prods = [tri.total.left_mul_mat(v).compose(incl).columns for v in ideal.basis]
    sol = span_coefficients(tri.field, prods, incl.columns)
    if sol is None:
        raise TheoremViolation("invariant ideal has no unit")
    return sol


# ---------------------------------------------------------------------------
# partibility
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PartibleWitness:
    z: tuple  # invertible element with sigma = conj_z . sigma_bar
    sigma_bar: LinMap
    blocks: AutBlocks


def partible_witness(tri: TriAlgebra, sigma: LinMap) -> PartibleWitness | None:
    """Factor sigma as an inner automorphism after a block-preserving one,
    sigma(x) = z^-1 sigma_bar(x) z, or None when sigma is not partible.

    None is a proof.  An automorphism tau is block-preserving iff tau(p) = p
    for p = 1_A: then tau(A) = tau(pTp) = pTp = A, and likewise for M and B;
    conversely tau(p) in A and tau(1 - p) in B add up to 1, so tau(p) = p.
    So sigma is partible iff z q z^-1 = p for some invertible z, where
    q = sigma(p) = q_A + q_M + q_B.  For z = a + m + b the A- and B-parts of
    z q z^-1 are a q_A a^-1 and b q_B b^-1, since (1 - p) T p = 0, so
    z q z^-1 = p forces q_A = 1_A and q_B = 0.  Conversely, if q = p + q_M,
    then z = 1 + q_M has inverse 1 - q_M, and z q z^-1 = p because
    p q_M = q_M and q_M p = q_M^2 = 0.  Hence sigma is partible iff q_A = 1_A
    and q_B = 0, and then z = 1 + q_M is a witness (z = 1 when sigma is
    block-preserving already).
    """
    if not automorphism_verdict(tri.total, sigma).holds:
        raise NotAutomorphism("partibility witnesses need an automorphism")
    t = tri.total
    try:
        blocks = block_decompose(tri, sigma)
        return PartibleWitness(t.unit, sigma, blocks)
    except NotBlockPreserving:
        pass
    e = sigma.apply(tri.p)
    if tuple(tri.part_a(e)) != tuple(tri.A.unit):
        return None
    if any(tri.part_b(e)):
        return None
    q_m = tri.embed_m(tri.part_m(e))
    z = t.add_vec(t.unit, q_m)
    sigma_bar = inner_automorphism(t, t.sub_vec(t.unit, q_m)).compose(sigma)  # x -> z sigma(x) z^-1
    try:
        blocks = block_decompose(tri, sigma_bar)
    except NotBlockPreserving as exc:
        raise TheoremViolation("conjugation by 1 + q_M does not preserve the blocks") from exc
    # verify sigma = conj_z . sigma_bar exactly
    if inner_automorphism(t, z).compose(sigma_bar) != sigma:
        raise TheoremViolation("witness recomposition does not reproduce sigma")
    return PartibleWitness(z, sigma_bar, blocks)


def partibility_sufficient(tri: TriAlgebra) -> TheoremReport:
    """Certificates that force every automorphism to be partible: an
    idempotent-symmetry corner or a semiprimitive corner.  Never claims
    non-partibility."""
    report = TheoremReport("partibility of the triangular algebra")
    corners = (("A", tri.A), ("B", tri.B))
    cond = {name: structure_checks(alg, "condition_I") for name, alg in corners}
    for name, _ in corners:
        report.hypotheses.append(Hypothesis("condition_I_" + name, _as_verdict(cond[name].verdict),
                                            "method: %s" % cond[name].method))
    nil = {}  # name -> whether the corner's radical is zero; None when it is out of range
    for name, alg in corners:
        try:
            nil[name] = radical(alg).is_zero()
        except CharTooSmall:
            nil[name] = None
        report.hypotheses.append(Hypothesis(
            "nil_radical_%s_zero" % name,
            "pass" if nil[name] else ("undecided" if nil[name] is None else "fail")))
    certs = ["%s satisfies the idempotent condition" % name for name, _ in corners
             if cond[name].verdict == "holds"]
    certs += ["%s has zero nil radical" % name for name, _ in corners if nil[name]]
    if certs:
        report.verdict = "partible"
        report.witnesses.extend(certs)
        if bool(nil["A"]) != bool(nil["B"]):
            # the semiprimitivity certificate is stated one-sided; the
            # alternative argument via the corner nil radical needs both
            # sides, so record which reading is in force
            report.notes.append(
                "nil-radical certificate applied one-sided (only one corner "
                "is semiprimitive); the two-sided variant does not apply")
    else:
        report.verdict = "undecided"
        report.notes.append("no sufficient certificate found; partibility is not refuted")
    return report


def _as_verdict(v: str) -> str:
    return {"holds": "pass", "fails": "fail"}.get(v, "undecided")
