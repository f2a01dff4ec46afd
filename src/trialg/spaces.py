"""Complete solution spaces of map equations, plus the inner and extremal
constructors, which read every sigma-commutator off algcore.twisted_ad and
every commutator off FinAlgebra.bracket_map ([., .] : T (x) T -> T, made once
per algebra, so that lambda [., .] is L_lambda o [., .]), and the block form
of twisted derivations.

Each defining identity is bilinear (or trilinear) in its arguments, so imposing
it on basis tuples yields an exact linear system in the flattened map
coordinates; the solution space is its kernel, returned with a canonical RREF
basis.  The rows are algcore.product_rule_rows of the terms the predicates
check (sigmamaps.derivation_terms, commuting_terms), on the pairs they check
them on.  A biderivation is a
derivation in each slot, so it is solved as a linear map k -> D(., e_k) into
Der_sigma, with the reduced derivation rows imposed on the second slot: n*r
unknowns for r = dim Der_sigma instead of n^3.  Flattening is row-major: a
linear map matrix entry [k][j] at k*dim + j, a bilinear tensor entry
[i][j][k] at (i*dim + j)*dim + k.

The derivation rule d(xy) = sigma(x) d(y) + d(x) y is imposed only on the
pairs (s, j) with e_s in the generating set S of the algebra
(FinAlgebra.generators) once sigma is known to be multiplicative, as
solve_space makes it by verifying that sigma is an automorphism.  Then the x
at which the rule holds for every y form a subalgebra
(sigmamaps._derivation_type_failure expands the product), so a map that satisfies the rule on S x basis
satisfies it everywhere: the restricted system has the kernel of the full
one, and so the same canonical RREF.  The same lemma lets verification
check S x basis first, for a map and for each biderivation slot.  The
sigma-commuting identity is quadratic in x, so its rows and checks take
every single and polarized pair (algcore.polarized_passes).

Every system is built in Python ints on the integer forms of exactla, by the
same code over both fields, and handed to the reduce as exactla.IntegerRows:
over Q each row is a positive integer multiple of the row of its identity
(product_rule_rows reports the factor), over F_p its residues.  The
biderivation coefficient kernel stays in integers too: it is read off the
pivot rows (exactla.integer_kernel) without an RREF of its own, lifted to
tensors in ints, and only the lifted tensors are reduced to the canonical
basis.  The derivation kernel delta_1 ... delta_r comes from integer_kernel
as well.  Over Q twist and identity keep their integer forms in their stores
(exactla.derived), so verifying the r basis maps of a space lifts sigma and
the identity once, not r times; over F_p nothing is lifted.

A space is kept as the sparse RREF rows of its Subspace.  Its basis maps are
built straight from those rows (a linear map's columns, a bilinear map's
table), and to_json writes the rows as Subspace.to_json does, so neither a
solve nor its report makes the dense basis view; MapSpace.contains and coords
read a map's sparse columns or table in that flattening.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .algcore import (
    FinAlgebra,
    SparseTable,
    TriAlgebra,
    polarized_passes,
    product_rule_failure,
    product_rule_rows,
    twisted_ad,
)
from .errors import (
    AmbientMismatch,
    CentralElement,
    CommutativeAlgebra,
    InputError,
    NotInSpan,
    NotSigmaCentral,
    NotSigmaDerivation,
    PreconditionFails,
    TheoremViolation,
)
from .exactla import (
    IntegerRows,
    Subspace,
    _integer_row,
    _sparse_reduce,
    integer_kernel,
    integer_vector,
    kernel_sparse,
    nonzero_rows,
    span_coefficients,
)
from .sigmamaps import (
    MAP_KINDS,
    AutBlocks,
    BilinMap,
    LinMap,
    _check_square,
    _multiplicative,
    block_decompose,
    block_of,
    classify_bilinear,
    classify_linear,
    commuting_terms,
    derivation_terms,
    from_blocks,
    map_twist,
    require_holds,
)


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
        return not MAP_KINDS[self.kind].bilinear

    def basis_maps(self):
        """The basis as maps, each built from its sparse RREF row (entries in
        row-major order): no map passes through a dense vector."""
        field, n = self.algebra.field, self.algebra.dim
        maps = []
        if self.is_linear_kind():
            for row in self.subspace.rows:
                cols = [[] for _ in range(n)]
                for kj, v in row:
                    cols[kj % n].append((kj // n, v))
                maps.append(LinMap._trusted(field, cols, n))
            return maps
        for row in self.subspace.rows:
            table = [[()] * n for _ in range(n)]
            for ij, entries in itertools.groupby(row, key=lambda e: e[0] // n):
                table[ij // n][ij % n] = tuple((key % n, v) for key, v in entries)
            maps.append(BilinMap._trusted(field, SparseTable(map(tuple, table))))
        return maps

    def _entries(self, m: LinMap | BilinMap) -> list:
        """The nonzero entries of m.flatten(), read off m's columns or table in
        the flattening basis_maps inverts; AmbientMismatch for another length."""
        if isinstance(m, BilinMap):
            n, size = m.dim, m.dim ** 3
            entries = [((i * n + j) * n + k, c) for i, row in enumerate(m.table) for j, vec in enumerate(row)
                       for k, c in vec]
        else:
            n, size = m.src_dim, m.src_dim * m.dst_dim
            entries = [(k * n + j, c) for j, col in enumerate(m.columns) for k, c in col]
        if size != self.subspace.ambient_dim:
            raise AmbientMismatch("vector length %d in ambient %d" % (size, self.subspace.ambient_dim))
        return entries

    def contains(self, m: LinMap | BilinMap) -> bool:
        return not self.subspace.reduce(self._entries(m))

    def coords(self, m: LinMap | BilinMap) -> tuple:
        c = self.subspace.try_coords(self._entries(m))
        if c is None:
            raise NotInSpan("vector is not in the span")
        return c

    def to_json(self):
        sub = self.subspace.to_json()
        return {
            "kind": self.kind,
            "ambient_dim": sub["ambient_dim"],
            "dim": sub["dim"],
            "flattening": "row-major",
            "basis": sub["basis"],
        }


def _algebra_of(t) -> FinAlgebra:
    return t.total if isinstance(t, TriAlgebra) else t


def _dedup_rows(rows):
    """The nonzero rows, each once up to a nonzero scalar factor, as given.

    solve_space leaves this to _sparse_reduce, which skips a row whose integer
    form it has already seen; this generator picks out the same rows apart,
    keyed by the primitive integer form with positive lead
    (exactla._integer_row over Q).  Over F_p, whose p the residues do not
    carry, that key catches only multiples by an integer ratio, and the
    reduce's monic key the rest.
    """
    seen = set()
    for r in rows:
        key = frozenset(_integer_row(0, r).items())
        if key and key not in seen:
            seen.add(key)
            yield r


def _derivation_rows(alg: FinAlgebra, sigma: LinMap) -> IntegerRows:
    """d(e_i e_j) = d(e_i) e_j + sigma(e_i) d(e_j), flattened unknowns d[k][j]:
    on the pairs with e_i a generator (FinAlgebra.generators) when sigma is
    known to be multiplicative (the identity, or an automorphism verified on
    alg), which leaves the kernel unchanged, else on all pairs."""
    order = itertools.product(alg.generators(), range(alg.dim)) if _multiplicative(alg, sigma) else None
    _, blocks = product_rule_rows(alg._pairs, derivation_terms(alg, None, sigma), alg.dim, order)
    return IntegerRows(row for block in blocks for row in block.values())


def _commuting_rows(alg: FinAlgebra, sigma: LinMap) -> IntegerRows:
    """sigma(x) Theta(x) - Theta(x) x = 0 in the passes quadratic_failure
    checks (algcore.polarized_passes), flattened unknowns Theta[k][j]: at each
    e_i, then sigma(e_i) Theta(e_j) + sigma(e_j) Theta(e_i) - Theta(e_i) e_j
    - Theta(e_j) e_i at each pair i < j."""
    passes = polarized_passes(commuting_terms(alg, None, sigma), alg.dim)
    return IntegerRows(row for terms, pairs in passes
                       for block in product_rule_rows(None, terms, alg.dim, pairs)[1] for row in block.values())


def _biderivation_rows(alg: FinAlgebra, sigma: LinMap):
    """Both slot conditions over all basis triples, unknowns t[i][j][k]: the
    direct n^3 system.  solve_space goes through Der_sigma instead
    (_biderivation_space); these rows are the oracle it is tested against.

    For each basis pair (i, j) and each k, the derivation rows of D(., e_k) and
    of D(e_k, .), relabelled from d[o][l] onto t[l][k][o] and t[k][l][o],
    alternating per row.
    """
    n = alg.dim
    first = [[(l * n + k) * n + o for o in range(n) for l in range(n)] for k in range(n)]
    second = [[(k * n + l) * n + o for o in range(n) for l in range(n)] for k in range(n)]
    for block in product_rule_rows(alg._pairs, derivation_terms(alg, None, sigma), n)[1]:
        for k in range(n):
            fk, sk = first[k], second[k]
            for row in block.values():
                yield {fk[key]: v for key, v in row.items()}
                yield {sk[key]: v for key, v in row.items()}


def _biderivation_space(alg: FinAlgebra, sigma: LinMap) -> Subspace:
    """Bider_sigma as the linear maps k -> D(., e_k) into Der_sigma whose
    second slot is a sigma-derivation too.

    The derivation system is reduced once; its kernel gives delta_1 ...
    delta_r and its pivot rows P the second-slot conditions.  D(., e_k) =
    sum_s c[k][s] delta_s, unknowns c[k][s] at k*r + s, is a derivation in its
    first slot by construction.  For each l, every P must vanish on
    y -> D(e_l, y), whose entry [o][k] is sum_s c[k][s] delta_s[o][l].  Each
    kernel vector c lifts to t[l][k][o] = sum_s c[k][s] delta_s[o][l].

    The whole coefficient step runs on Python ints, the same code over both
    fields.  Each P is taken in its integer form (exactla.integer_vector) and
    each delta_s as exactla.integer_kernel returns it, each a nonzero multiple
    (over F_p the residues themselves).  Scaling P scales its rows; scaling
    delta_s by lambda_s rescales the unknowns c[k][s], and the lift uses the
    same scaled deltas, so the lifted tensors span the same space.  The
    coefficient kernel is read straight off the pivot rows in integer form
    (exactla.integer_kernel), with no canonical RREF of its own: any kernel
    basis lifts to tensors that span Bider_sigma, and Subspace._from_rows,
    handed them as IntegerRows, makes the one canonical basis.
    """
    field, n, p = alg.field, alg.dim, alg.field.characteristic
    pivots = _sparse_reduce(field, _derivation_rows(alg, sigma), n * n)
    deltas = integer_kernel(field, pivots, n * n)
    r = len(deltas)
    at = [[] for _ in range(n * n)]  # at[o*n + l]: the nonzero (s, delta_s[o][l])
    for s, delta in enumerate(deltas):
        for key, v in delta.items():
            at[key].append((s, v))
    # each pivot row P in integer form, as its entries (o, k*r, P[o][k])
    prows = [[(key // n, key % n * r, c) for key, c in integer_vector(p, prow)[1].items()]
             for prow in pivots.values()]
    rows = []
    for l in range(n):
        at_l = at[l::n]  # at_l[o]: the nonzero (s, delta_s[o][l])
        block = {}  # the nonempty row of each pivot row P, by its position
        for i, prow in enumerate(prows):
            row = {}
            for o, kr, c in prow:
                for s, v in at_l[o]:
                    row[kr + s] = row.get(kr + s, 0) + c * v
            if row:
                block[i] = row
        rows += nonzero_rows(p, block).values()
    coeffs = integer_kernel(field, _sparse_reduce(field, IntegerRows(rows), n * r), n * r)
    tensors = {}
    for i, c in enumerate(coeffs):
        t = tensors[i] = {}
        for ks, cks in c.items():
            k, s = divmod(ks, r)
            for key, v in deltas[s].items():
                o, l = divmod(key, n)
                idx = (l * n + k) * n + o
                t[idx] = t.get(idx, 0) + cks * v
    return Subspace._from_rows(field, n ** 3, IntegerRows(nonzero_rows(p, tensors).values()))


def solve_space(kind: str, t, sigma: LinMap | None = None,
                bilinear_dim_cap: int | None = None,
                verify: bool = True) -> MapSpace:
    """Kernel of the defining identity of a kind of MAP_KINDS, at the twist
    map_twist resolves (the identity for an untwisted kind); every basis map
    re-passes its own predicate before the space is returned.  A bilinear
    solve of an algebra above bilinear_dim_cap, when one is given, is
    refused."""
    alg = _algebra_of(t)
    n = alg.dim
    if kind not in MAP_KINDS:
        raise InputError("unknown solve kind %r" % (kind,))
    mk, twist = MAP_KINDS[kind], map_twist(kind, alg, sigma)
    if mk.bilinear:
        if bilinear_dim_cap is not None and n > bilinear_dim_cap:
            raise InputError("bilinear solve capped at dim %d (got %d)" % (bilinear_dim_cap, n))
        sub = _biderivation_space(alg, twist)
    else:
        rows = (_derivation_rows if mk.identity == "derivation" else _commuting_rows)(alg, twist)
        sub = kernel_sparse(alg.field, rows, n * n)
    space = MapSpace(kind, alg, sigma, sub)
    if verify:
        classify = classify_bilinear if mk.bilinear else classify_linear
        for m in space.basis_maps():
            if not classify(kind, alg, m, sigma).holds:
                raise TheoremViolation("solved %s space contains a non-solution" % kind)
    return space


# ---------------------------------------------------------------------------
# constructors
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


def inner_derivation_witness(t, d: LinMap, sigma: LinMap) -> tuple | None:
    """Solve [x, x0]_sigma = d(x) for x0, the coefficients of d's columns in
    those of the twisted_ad(alg, sigma, e_j); None when d is not inner."""
    alg = _algebra_of(t)
    _check_square(alg, d)
    cols = [twisted_ad(alg, sigma, alg.basis_vector(j)).columns for j in range(alg.dim)]
    x0 = span_coefficients(alg.field, cols, d.columns)
    if x0 is None:
        return None
    if inner_sigma_derivation(alg, x0, sigma) != d:
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
