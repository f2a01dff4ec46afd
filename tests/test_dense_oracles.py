"""The sparse trace form, radical, annihilators, composition and inverse
against the dense matrix forms they replaced, kept here as references: the
n^2 products L_i L_j of left multiplication matrices and their traces, the
stacked multiplication matrices of x -> x m_j and x -> m_j x, the dense
matrix product, and the inverse read off a textbook Gauss-Jordan of the
dense [M | I].
The multiplication maps built from n mul_vec products (left_mul_by_mul_vec,
and right_mul_mat, which other test modules import) are references too:
left_mul_mat, read off the product table, must equal the first.  So are the
element-level operations that no program of trialg runs, which the tests of
every module import from here: smul_vec and commutator by mul_vec, act_left
and act_right as products in the total algebra, value, flatten and
unflatten_bilinear.

Every dense RREF, kernel and solve here is the textbook Gauss-Jordan of
test_exactla (_gauss_jordan), never trialg's own row reduction, which is what
the sparse forms run on.

Every instance of instance_catalog (with a random block-preserving twist)
and of random_instances is checked over Q, F_5, F_3 and F_2.

LinMap, stored as its sparse columns, is checked against its dense rows on
random maps over Q and F_5, 0-dimensional sides among them: the operations,
rank, kernel and image (the last three against the textbook Gauss-Jordan),
and equality and hashing, which must tell apart maps that differ only in
their target dimension.

Subspace, stored as its sparse RREF rows, is checked against the dense forms
it replaced: the nonzero rows of the dense RREF, the residual and the linear
combination taken over dense rows, the intersection through the dense
kernel of [A^T | -B^T], and the dense to_json.  It runs on random subspaces
over Q, F_5 and F_2 (the zero and the full subspace and ambient dim 0
among them) and on the centers and radicals of every instance_catalog
entry.

The associativity check, which visits only the triples where a side can be
nonzero, is checked against the loop over all n^3 basis triples it
replaced: both must name the same first failing triple on associative
tables, on associative tables with one product changed, and on random
sparse tables, over Q, F_5, F_3 and F_2.

The bimodule action maps, coupling_rows and the block data that AutBlocks
keeps (the twisted center, the corner centers, the projections and eta) are
checked against dense products, dense kernels and a dense solve.

The reduction of a pair of twists (alpha, beta) to the one twist
sigma = alpha^{-1} beta, through which the tests decide every (alpha, beta)
identity (_reduce, _reduced), is checked against the (alpha, beta) identities
evaluated with mul_vec and apply on every basis pair, single, pair sum and
triple, over Q and F_5.

structure_checks, in all four modes, is checked against a brute force over
F_p^n with dense products on every corner of instance_catalog and on the
exterior algebra on two generators over F_2, F_3 and F_5, and on UT_2 and
UT_3 over F_2 and F_3: the verdict, the method, the first witness, the
implication chain and the idempotent list."""

import itertools
import random
from fractions import Fraction

import pytest

from trialg.algcore import (Bimodule, FinAlgebra, SparseTable, _associativity_failure, _bracket_map, build_triangular,
                            twisted_ad, unit_m)
from trialg.classify import (_commutator_span, endo_blocks, extremal_sigma_biderivation, extremal_split, ideal_split,
                             inner_biderivation_witness, inner_sigma_biderivation, inner_sigma_derivation,
                             is_sigma_central)
from trialg.errors import CentralElement, CharTooSmall, NotBlockPreserving, NotInvertible, PreconditionFails
from trialg.exactla import GF, QQ, LinMap, Subspace, derived, integer_form, kernel_sparse
from test_exactla import _gauss_jordan
from trialg.fixtures import phi_one_plus_m, product_field_algebra, sigma1, upper_triangular_algebra
from trialg.randomgen import (_random_invertible, instance_catalog, random_block_preserving_sigma, random_instances,
                              regular_bimodule)
from trialg.sigmamaps import BilinMap, Verdict, Witness, classify_bilinear, classify_linear, sigma_commutator_vec
from trialg.spaces import solve_space
from trialg.structure import (_trace_form_rows, annihilators, block_decompose, center_direct, center_T, coupling_rows,
                              inner_automorphism, nil_radical_T, project_subspace, radical, sigma_center,
                              sigma_center_direct, structure_checks)

FIELDS = [QQ, GF(5), GF(3), GF(2)]


def _instances(field):
    """(tri, sigma) for every catalog instance, then five random ones."""
    rng = random.Random(8500)
    out = []
    for _, make in instance_catalog(field):
        tri = make()
        out.append((tri, random_block_preserving_sigma(tri, rng)))
    return out + [(tri, sigma) for _, tri, sigma in random_instances(field, 5, 8600)]


def _mul_vec_map(alg, cols) -> LinMap:
    return LinMap(alg.field, zip(*cols), alg.dim)


def left_mul_by_mul_vec(alg, x) -> LinMap:
    """The map y -> x y, its column j the product x e_j by mul_vec."""
    return _mul_vec_map(alg, [alg.mul_vec(x, alg.basis_vector(j)) for j in range(alg.dim)])


def right_mul_mat(alg, x) -> LinMap:
    """The map y -> y x, its column j the product e_j x by mul_vec."""
    return _mul_vec_map(alg, [alg.mul_vec(alg.basis_vector(j), x) for j in range(alg.dim)])


# Element-level operations that no program of trialg runs, kept here as dense
# references for the tests of every module: scalar multiples and commutators
# by mul_vec, the bimodule actions as dense products in the total algebra, the
# values of a bilinear map as dense vectors, and the row-major flattenings of
# maps (a LinMap's at k*src_dim + j, a BilinMap's at (i*dim + j)*dim + k).


def smul_vec(alg, c, x) -> tuple:
    """c x, for c an input value."""
    c = alg.field.coerce(c)
    return tuple(alg.field.mul(c, v) for v in x)


def commutator(alg, x, y) -> tuple:
    """[x, y] = x y - y x by mul_vec."""
    return alg.sub_vec(alg.mul_vec(x, y), alg.mul_vec(y, x))


def act_left(tri, a, m) -> tuple:
    """a . m for a in A-coordinates and m in M-coordinates, by a dense product
    in the total algebra."""
    return tri.part_m(tri.total.mul_vec(tri.assemble(a, (), ()), tri.embed_m(m)))


def act_right(tri, m, b) -> tuple:
    """m . b by a dense product, like act_left."""
    return tri.part_m(tri.total.mul_vec(tri.embed_m(m), tri.assemble((), (), b)))


def value(D: BilinMap, i: int, j: int) -> tuple:
    """D(e_i, e_j) as a dense vector, read off D's table."""
    vec = [D.field.zero] * D.dim
    for k, c in D.table[i][j]:
        vec[k] = c
    return tuple(vec)


def flatten(obj) -> tuple:
    """The row-major flattening of a LinMap (its dense rows, concatenated) or
    of a BilinMap (its values, concatenated)."""
    if isinstance(obj, BilinMap):
        return tuple(c for i in range(obj.dim) for j in range(obj.dim) for c in value(obj, i, j))
    return tuple(v for row in obj.rows for v in row)


def unflatten_bilinear(field, flat, n: int) -> BilinMap:
    """The bilinear map on n basis vectors whose flattening is flat."""
    return BilinMap(field, [[flat[(i * n + j) * n:(i * n + j + 1) * n] for j in range(n)] for i in range(n)])


def _dense_product(a: LinMap, b: LinMap) -> LinMap:
    """a times b by dense rows."""
    add, mul, zero = a.field.add, a.field.mul, a.field.zero
    rows = []
    for r in a.rows:
        out = [zero] * b.src_dim
        for k, v in enumerate(r):
            for j, w in enumerate(b.rows[k]):
                out[j] = add(out[j], mul(v, w))
        rows.append(out)
    return LinMap(a.field, rows, b.src_dim)


def _dense_trace(m: LinMap):
    acc = m.field.zero
    for i in range(m.dst_dim):
        acc = m.field.add(acc, m.rows[i][i])
    return acc


def _dense_trace_form(alg) -> LinMap:
    """tr(L_i L_j) from the n^2 products of the left multiplication matrices."""
    lmats = [left_mul_by_mul_vec(alg, alg.basis_vector(i)) for i in range(alg.dim)]
    return LinMap(alg.field, [[_dense_trace(_dense_product(a, b)) for b in lmats] for a in lmats],
                        alg.dim)


def _stacked_annihilators(tri) -> tuple:
    """L, R, lann_T and rann_T as kernels of stacked dense systems: the dense
    actions of each corner basis vector on each basis vector of M, and the
    multiplication matrices by each basis vector of M."""
    field = tri.field
    da, dm, db = tri.A.dim, tri.M.dim_m, tri.B.dim
    ea = [tri.A.basis_vector(i) for i in range(da)]
    eb = [tri.B.basis_vector(k) for k in range(db)]
    em = [unit_m(field, dm, j) for j in range(dm)]
    left = [[act_left(tri, a, m) for m in em] for a in ea]
    right = [[act_right(tri, m, b) for b in eb] for m in em]
    L = _dense_kernel(field, [[left[i][j][mp] for i in range(da)] for j in range(dm) for mp in range(dm)], da)
    R = _dense_kernel(field, [[right[j][k][mp] for k in range(db)] for j in range(dm) for mp in range(dm)], db)
    t = tri.total
    ms = [t.basis_vector(j) for j in tri.range_m]
    lann = _dense_kernel(field, [r for m in ms for r in right_mul_mat(t, m).rows], t.dim)
    rann = _dense_kernel(field, [r for m in ms for r in left_mul_by_mul_vec(t, m).rows], t.dim)
    return L, R, lann, rann


def _rref_inverse(m: LinMap):
    """The inverse read off the Gauss-Jordan rref of the dense [m | I], or
    None."""
    n = m.dst_dim
    ident = LinMap.identity(m.field, n)
    red, pivots = _gauss_jordan(m.field, [r + e for r, e in zip(m.rows, ident.rows)], 2 * n)
    if pivots != list(range(n)):
        return None
    return LinMap(m.field, [row[n:] for row in red], n)


def _dense_kernel(field, rows, ncols: int) -> Subspace:
    """{v : rows v = 0} by Gauss-Jordan: per free column f of the RREF of the
    rows, the vector with 1 at f and minus column f of the pivot rows, and
    the subspace whose rows are the RREF of those vectors."""
    red, pivots = _gauss_jordan(field, rows, ncols)
    null = []
    for f in (c for c in range(ncols) if c not in pivots):
        vec = [field.zero] * ncols
        vec[f] = field.one
        for row, c in zip(red, pivots):
            vec[c] = field.neg(row[f])
        null.append(vec)
    basis, null_pivots = _gauss_jordan(field, null, ncols)
    return Subspace(field, ncols, _sparse(basis), tuple(null_pivots))


def _random_dense(field, rng, dst: int, src: int) -> list:
    """A dst x src matrix, each entry nonzero with a density drawn per map."""
    values = ([Fraction(v) for v in (1, -1, 2, 3)] + [Fraction(1, 2), Fraction(-2, 3)]
              if field is QQ else list(range(1, field.characteristic)))
    density = rng.choice((0.15, 0.5, 0.9))
    return [[rng.choice(values) if rng.random() < density else field.zero for _ in range(src)]
            for _ in range(dst)]


def _random_maps(field, rng) -> list:
    """(dense rows, map) for random maps of every shape up to 5 x 5, 0 x n
    and n x 0 among them, several per shape."""
    out = []
    for dst in range(6):
        for src in range(6):
            for _ in range(3):
                dense = _random_dense(field, rng, dst, src)
                out.append((dense, LinMap(field, dense, src, dst)))
    return out


def _dense_apply(field, dense, x) -> tuple:
    out = []
    for row in dense:
        acc = field.zero
        for v, w in zip(row, x):
            acc = field.add(acc, field.mul(v, w))
        out.append(acc)
    return tuple(out)


def _rebased(alg, rng, values):
    """alg in the basis of the columns of a random unitriangular P, its
    structure constants P^-1 (P e_i)(P e_j): most products of basis vectors
    then have several terms, where a matrix-unit basis has one."""
    field, n = alg.field, alg.dim
    P = LinMap(field, [[field.one if i == j else rng.choice(values) if j > i else field.zero
                        for j in range(n)] for i in range(n)])
    Pinv = P.inverse()
    cols = [P.image_of_basis(i) for i in range(n)]
    return FinAlgebra(field, [[Pinv.apply(alg.mul_vec(x, y)) for y in cols] for x in cols],
                      Pinv.apply(alg.unit))


@pytest.mark.parametrize("field", [QQ, GF(5), GF(2)], ids=str)
def test_left_mul_mat_against_mul_vec(field):
    """left_mul_mat, read off the product table, is the map of the products
    x e_j by mul_vec, on the total algebra and the corners of every instance,
    each also in a random basis, at each basis vector, the unit and random
    elements."""
    rng = random.Random(8950 + field.characteristic)
    values = ([Fraction(v) for v in (0, 0, 1, -1, 3)] + [Fraction(1, 2), Fraction(-2, 3)]
              if field is QQ else list(range(field.characteristic)) + [0])
    checked = 0
    for tri, _ in _instances(field):
        for base in (tri.A, tri.B, tri.total):
            alg = _rebased(base, rng, values)
            xs = [alg.basis_vector(i) for i in range(alg.dim)] + [alg.unit, alg.zero_vector()]
            xs += [tuple(rng.choice(values) for _ in range(alg.dim)) for _ in range(4)]
            for x in xs:
                for a in (base, alg):
                    assert a.left_mul_mat(x) == left_mul_by_mul_vec(a, x)
                    checked += 1
    assert checked > 200


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_trace_form_and_radical(field):
    """The trace form read off the product table equals the traces of the
    dense products in every characteristic; where the radical is defined by
    it (char 0 or p > dim), radical is the kernel of the dense form."""
    radicals = 0
    for tri, _ in _instances(field):
        for alg in (tri.A, tri.B, tri.total):
            gram = _dense_trace_form(alg)
            assert list(_trace_form_rows(alg)) == [{j: v for j, v in enumerate(r) if v} for r in gram.rows]
            p = field.characteristic
            if p and p <= alg.dim:
                with pytest.raises(CharTooSmall):
                    radical(alg)
                continue
            assert radical(alg) == _dense_kernel(field, gram.rows, alg.dim)
            radicals += 1
    assert radicals


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_annihilators(field):
    unfaithful = 0
    for tri, _ in _instances(field):
        ann = annihilators(tri)
        assert (ann.L, ann.R, ann.lann_t, ann.rann_t) == _stacked_annihilators(tri)
        unfaithful += not (ann.left_faithful and ann.right_faithful)
    assert unfaithful


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_compose_and_inverse(field):
    """compose against the dense product, on square and rectangular maps
    (the projection onto A and the embedding of A), and inverse against the
    rref of [M | I] on invertible and singular maps."""
    rng = random.Random(8700)
    p = field.characteristic
    singular = invertible = 0
    for tri, sigma in _instances(field):
        t = tri.total
        x = tuple(field.coerce(rng.randrange(p or 7)) for _ in range(t.dim))
        proj = LinMap.from_images(field, [tri.part_a(t.basis_vector(j)) for j in range(t.dim)], t.dim, tri.A.dim)
        emb = LinMap.from_images(field, [tri.assemble(tri.A.basis_vector(j), (), ()) for j in range(tri.A.dim)],
                                 tri.A.dim, t.dim)
        square = [sigma, t.left_mul_mat(x), t.left_mul_mat(tri.p)]
        for f in square + [proj, emb]:
            for g in square + [proj, emb]:
                if f.src_dim == g.dst_dim:
                    assert f.compose(g) == _dense_product(f, g)
        for f in square + [proj.compose(emb)] + [m for _, m in _random_maps(field, rng) if m.src_dim == m.dst_dim]:
            expect = _rref_inverse(f)
            if expect is None:
                with pytest.raises(NotInvertible):
                    f.inverse()
                singular += 1
            else:
                assert f.inverse() == expect
                invertible += 1
    assert singular and invertible


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=str)
def test_linmap_against_dense_rows(field):
    """Each operation of a map stored as sparse columns against the same
    operation on the dense rows it was made from."""
    rng = random.Random(8750)
    add, sub, neg = field.add, field.sub, field.neg
    cases = _random_maps(field, rng)
    maps = [m for _, m in cases]
    for dense, m in cases:
        n = m.src_dim
        assert m.rows == tuple(map(tuple, dense)) and m.dst_dim == len(dense)
        assert m.is_zero() == (not any(v for row in dense for v in row))
        assert [m.image_of_basis(j) for j in range(n)] == [tuple(row[j] for row in dense) for j in range(n)]
        x = tuple(field.coerce(rng.randrange(-3, 4)) for _ in range(n))
        assert m.apply(x) == _dense_apply(field, dense, x)
        dense_other = _random_dense(field, rng, m.dst_dim, n)
        other = LinMap(field, dense_other, n, m.dst_dim)
        for got, op in ((m + other, add), (m - other, sub)):
            assert got.rows == tuple(tuple(map(op, r1, r2)) for r1, r2 in zip(dense, dense_other))
        assert (-m).rows == tuple(tuple(map(neg, row)) for row in dense)
        # rank, kernel and image against the textbook Gauss-Jordan of the rows and the columns
        _, pivots = _gauss_jordan(field, dense, n)
        assert m.rank() == len(pivots)
        null = _dense_kernel(field, dense, n)
        assert null.dim == n - len(pivots) and all(not any(_dense_apply(field, dense, vec)) for vec in null.basis)
        assert m.kernel() == null
        columns = [tuple(row[j] for row in dense) for j in range(n)]
        assert m.image().basis == tuple(_gauss_jordan(field, columns, m.dst_dim)[0])
        assert m.is_bijective() == (m.src_dim == m.dst_dim == len(pivots))
        for g in maps[::7]:
            if g.dst_dim == n:
                assert m.compose(g) == _dense_product(m, g)
    # equality and hashing see the target dimension, which no column shows on a zero map
    for src in (0, 3):
        narrow, wide = LinMap.zero(field, src, 2), LinMap.zero(field, src, 4)
        assert narrow != wide and hash(narrow) != hash(wide) and len({narrow, wide}) == 2
        assert narrow == LinMap(field, [[0] * src] * 2, src, 2) and hash(narrow) == hash(LinMap.zero(field, src, 2))
    assert len(set(maps)) == len(set(map(lambda m: (m.dst_dim, m.src_dim, m.rows), maps)))


# ---------------------------------------------------------------------------
# Subspace against its dense forms
# ---------------------------------------------------------------------------

SUBSPACE_FIELDS = [QQ, GF(5), GF(2)]


def _dense_rref_rows(field, n, vectors) -> tuple:
    """(rows, pivots): the nonzero rows of the Gauss-Jordan RREF of the
    vectors."""
    red, pivots = _gauss_jordan(field, vectors, n)
    return tuple(red), tuple(pivots)


def _dense_residual(field, rows, pivots, vec) -> tuple:
    residual = list(vec)
    for p, row in zip(pivots, rows):
        c = vec[p]
        if not c:
            continue
        for k, v in enumerate(row):
            if v:
                residual[k] = field.sub(residual[k], field.mul(c, v))
    return tuple(residual)


def _dense_combination(field, n, rows, coeffs) -> tuple:
    vec = [field.zero] * n
    for c, row in zip(coeffs, rows):
        if not c:
            continue
        for k, w in enumerate(row):
            if w:
                vec[k] = field.add(vec[k], field.mul(c, w))
    return tuple(vec)


def _dense_intersection(field, n, rows_a, rows_b) -> tuple:
    """The rref rows of the intersection: each vector (a, b) of the dense
    kernel of [A^T | -B^T] gives sum_i a_i A_i."""
    ra = len(rows_a)
    system = [[row[k] for row in rows_a] + [field.neg(row[k]) for row in rows_b] for k in range(n)]
    vecs = [_dense_combination(field, n, rows_a, pair[:ra])
            for pair in _dense_kernel(field, system, ra + len(rows_b)).basis]
    return _dense_rref_rows(field, n, vecs)


def _dense_json(field, n, rows, pivots) -> dict:
    return {"ambient_dim": n, "dim": len(rows), "pivots": list(pivots),
            "basis": [[field.format(v) for v in row] for row in rows]}


def _random_vector(field, n, rng) -> tuple:
    """Entries mostly zero, the rest small, so that spans overlap."""
    return tuple(field.coerce(rng.choice([0, 0, 1, -1, rng.randrange(-4, 5)])) for _ in range(n))


def _random_spanning_sets(field, rng) -> list:
    """(n, vectors): the zero and the full span, ambient dim 0, and random
    spans of up to n + 2 vectors, drawn from a pool per n so that spans
    overlap, some vectors repeated or scaled."""
    out = [(0, []), (0, [()]), (1, []), (3, [(field.one, field.zero, field.one)])]
    for n in (0, 1, 2, 3, 4, 6, 9):
        out.append((n, [tuple(field.one if i == j else field.zero for j in range(n)) for i in range(n)]))
        pool = [_random_vector(field, n, rng) for _ in range(n + 1)]
        for _ in range(6):
            vecs = rng.sample(pool, rng.randrange(len(pool))) + [_random_vector(field, n, rng)]
            if rng.random() < 0.5:
                vecs.append(tuple(field.mul(field.coerce(3), v) for v in vecs[0]))
            out.append((n, vecs))
    return out


def _entries(vec) -> tuple:
    return tuple((k, v) for k, v in enumerate(vec) if v)


def _sparse(rows) -> tuple:
    return tuple(map(_entries, rows))


def _check_subspace(sub: Subspace, rows: tuple, pivots: tuple, rng):
    """sub against its dense rref rows: rows, pivots, the dense view, the
    reduction (reduce, holds, try_coords) of members, of random vectors, of a
    vector outside the span and of the columns of maps, the linear
    combination and to_json."""
    field, n = sub.field, sub.ambient_dim
    assert sub.pivots == tuple(pivots)
    assert sub.rows == _sparse(rows)
    assert sub.basis == tuple(map(tuple, rows))
    assert sub.dim == len(rows) and sub.is_zero() == (not rows)
    assert sub.to_json() == _dense_json(field, n, rows, pivots)
    free = [f for f in range(n) if f not in pivots]
    for _ in range(4):
        coeffs = tuple(field.coerce(rng.randrange(-3, 4)) for _ in rows)
        member = sub.combine(coeffs)
        assert member == _dense_combination(field, n, rows, coeffs)
        assert sub.reduce(_entries(member)) == {} and sub.holds([_entries(member)])
        assert sub.try_coords(_entries(member)) == coeffs and sub.coords(member) == coeffs
        vec = _random_vector(field, n, rng)
        want = _dense_residual(field, rows, pivots, vec)
        assert sub.reduce(_entries(vec)) == dict(_entries(want))
        assert sub.holds([_entries(member), _entries(vec)]) == (not any(want))
        assert sub.try_coords(_entries(vec)) == (None if any(want) else tuple(vec[p] for p in pivots))
        if free:  # e_f at a column without a pivot is outside the span, and so is member + e_f
            f = rng.choice(free)
            outside = tuple(field.add(c, field.one) if k == f else c for k, c in enumerate(member))
            assert _dense_residual(field, rows, pivots, outside) == tuple(field.one if k == f else field.zero
                                                                           for k in range(n))
            assert sub.reduce(_entries(outside)) == {f: field.one}
            assert sub.try_coords(_entries(outside)) is None and not sub.contains_vector(outside)
            cols = [member, vec, outside]
        else:
            cols = [member, vec]
        # the columns of a map: held exactly when no column has a dense residual
        m = LinMap.from_images(field, cols, len(cols), n)
        assert sub.holds(m.columns) == all(not any(_dense_residual(field, rows, pivots, c)) for c in cols)
        assert sub.holds(m.columns[:1])


def _check_pair(a: Subspace, b: Subspace, dense_a: tuple, dense_b: tuple) -> bool:
    """sum, intersect and contains of two subspaces against the dense rows;
    True when the intersection is neither zero nor all of a or b."""
    field, n = a.field, a.ambient_dim
    total = a.sum(b)
    rows, pivots = _dense_rref_rows(field, n, list(dense_a) + list(dense_b))
    assert (total.rows, total.pivots) == (_sparse(rows), tuple(pivots))
    meet = a.intersect(b)
    rows, pivots = _dense_intersection(field, n, dense_a, dense_b)
    assert (meet.rows, meet.pivots) == (_sparse(rows), tuple(pivots))
    assert a.contains(b) == all(not any(_dense_residual(field, dense_a, a.pivots, v)) for v in dense_b)
    assert a.contains(meet) and b.contains(meet) and total.contains(a) and total.contains(b)
    return 0 < meet.dim < min(a.dim, b.dim)


@pytest.mark.parametrize("field", SUBSPACE_FIELDS, ids=str)
def test_subspace_against_dense_forms_random(field):
    rng = random.Random(8800)
    subs = []
    for n, vecs in _random_spanning_sets(field, rng):
        sub = Subspace.from_vectors(field, n, vecs)
        rows, pivots = _dense_rref_rows(field, n, vecs)
        _check_subspace(sub, rows, pivots, rng)
        subs.append((sub, rows))
    full, zero = Subspace.full(field, 4), Subspace.from_vectors(field, 4, [])
    _check_subspace(full, LinMap.identity(field, 4).rows, tuple(range(4)), rng)
    assert zero.rows == () and zero.pivots == ()
    pairs = proper = 0
    for a, rows_a in subs:
        for b, rows_b in subs + [(full, LinMap.identity(field, 4).rows), (zero, ())]:
            if a.ambient_dim == b.ambient_dim:
                proper += _check_pair(a, b, rows_a, rows_b)
                pairs += 1
    assert pairs > 400 and proper > 15


@pytest.mark.parametrize("field", SUBSPACE_FIELDS, ids=str)
def test_subspace_against_dense_forms_catalog(field):
    """The centers and, where they are defined, the radicals of every
    instance_catalog entry, each pair of them in the same ambient space."""
    rng = random.Random(8900)
    radicals = 0
    for _, make in instance_catalog(field):
        tri = make()
        subs = [center_T(tri), center_direct(tri.total), center_direct(tri.A), center_direct(tri.B)]
        for get in (lambda: nil_radical_T(tri), lambda: radical(tri.total), lambda: radical(tri.A)):
            try:
                subs.append(get())
                radicals += 1
            except CharTooSmall:
                pass
        dense = []
        for sub in subs:
            rows = [tuple(dict(row).get(k, field.zero) for k in range(sub.ambient_dim)) for row in sub.rows]
            red, pivots = _dense_rref_rows(field, sub.ambient_dim, rows)
            assert red == tuple(rows)
            _check_subspace(sub, red, pivots, rng)
            dense.append(red)
        for a, rows_a in zip(subs, dense):
            for b, rows_b in zip(subs, dense):
                if a.ambient_dim == b.ambient_dim:
                    _check_pair(a, b, rows_a, rows_b)
    assert radicals


# -- associativity ----------------------------------------------------------


def _all_triples_associativity_failure(pairs: SparseTable, p: int) -> tuple | None:
    """The least failing triple (i, j, k), found by visiting all n^3 basis
    triples."""
    tab = pairs if p else integer_form(0, pairs)[1]
    n = len(tab)
    for i, row in enumerate(tab):
        for j, ij in enumerate(row):
            jrow = tab[j]
            for k in range(n):
                jk = jrow[k]
                if not (ij or jk):
                    continue
                acc = {}
                for a, c in ij:
                    for b, d in tab[a][k]:
                        acc[b] = acc.get(b, 0) + c * d
                for a, c in jk:
                    for b, d in row[a]:
                        acc[b] = acc.get(b, 0) - c * d
                if any(acc.values()) and (not p or any(map(p.__rmod__, acc.values()))):
                    return i, j, k
    return None


def _random_scalar(field, rng):
    """A nonzero constant of field."""
    while True:
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if field is QQ else rng.randrange(field.characteristic)
        if c:
            return c


def _random_product(field, n, density, rng) -> tuple:
    return tuple((k, _random_scalar(field, rng)) for k in range(n) if rng.random() < density)


def _random_table(field, n, density, rng) -> SparseTable:
    """Each product e_i e_j is nonzero with probability density."""
    return SparseTable(tuple(_random_product(field, n, density, rng) if rng.random() < density else ()
                             for _ in range(n)) for _ in range(n))


def _with_product_changed(table: SparseTable, field, rng) -> SparseTable:
    """table with one product e_i e_j replaced by a random one."""
    n = len(table)
    i, j = rng.randrange(n), rng.randrange(n)
    rows = [list(row) for row in table]
    rows[i][j] = _random_product(field, n, 0.4, rng)
    return SparseTable(map(tuple, rows))


@pytest.mark.parametrize("field", [QQ, GF(5), GF(3), GF(2)], ids=str)
def test_associativity_failure_against_all_triples(field):
    rng = random.Random(9100)
    p = field.characteristic
    associative = [tri.total._pairs for tri, _ in _instances(field)]
    tables = associative + [_with_product_changed(t, field, rng) for t in associative for _ in range(3)]
    tables += [_random_table(field, rng.randint(1, 12), rng.choice((0.05, 0.1, 0.2, 0.4)), rng) for _ in range(120)]
    failures = 0
    for table in tables:
        want = _all_triples_associativity_failure(table, p)
        assert _associativity_failure(table, p) == want
        failures += want is not None
    assert all(_associativity_failure(t, p) is None for t in associative)
    assert failures > len(tables) // 4


# -- the sigma-commutator ----------------------------------------------------
#
# Every [x, y]_sigma of trialg is read off algcore.twisted_ad.  The dense
# formulas it replaced are kept here: sigma(x) y - y x by mul_vec, inner
# derivations and centrality from n such products, lambda [e_i, e_j] and the
# extremal map from n^2 of them, and the inner biderivation witness as the
# dense transposed system (one row per flattened coordinate, zero rows
# included), solved by Gauss-Jordan.
# Every ordinary commutator [x, y] of the theorem layer is read off
# algcore._bracket_map, checked here against commutator by mul_vec, and
# conjugation x -> u^-1 x u against u^-1 x u by mul_vec.


def _dense_commutator(alg, x, y, sigma) -> tuple:
    """[x, y]_sigma = sigma(x) y - y x by dense products."""
    return alg.sub_vec(alg.mul_vec(sigma.apply(x), y), alg.mul_vec(y, x))


def _dense_inner_derivation(alg, x0, sigma) -> LinMap:
    return LinMap.from_images(alg.field, [_dense_commutator(alg, alg.basis_vector(j), x0, sigma)
                                          for j in range(alg.dim)], alg.dim, alg.dim)


def _dense_center(alg, sigma) -> Subspace:
    """The kernel of x -> ([e_i, x]_sigma)_i, its matrix stacked from the
    dense inner derivations of the basis vectors."""
    n = alg.dim
    cols = [flatten(_dense_inner_derivation(alg, alg.basis_vector(j), sigma)) for j in range(n)]
    return _dense_kernel(alg.field, [[col[r] for col in cols] for r in range(n * n)], n)


def _dense_bracket(alg, lam) -> BilinMap:
    """(x, y) -> lam [x, y], lam times the n^2 dense commutators."""
    return BilinMap.from_function(alg, lambda x, y: alg.mul_vec(lam, commutator(alg, x, y)))


def _dense_extremal(alg, x0, sigma) -> tuple:
    """("central", None), ("precondition", the first failing (i, j) in
    row-major order) or ("psi", the map [x, [y, x0]_sigma]_sigma)."""
    n, zero = alg.dim, alg.zero_vector()
    e = [alg.basis_vector(i) for i in range(n)]
    if all(_dense_commutator(alg, e[i], x0, sigma) == zero for i in range(n)):
        return "central", None
    for i in range(n):
        for j in range(n):
            if _dense_commutator(alg, commutator(alg, e[i], e[j]), x0, sigma) != zero:
                return "precondition", (i, j)
    return "psi", BilinMap.from_function(
        alg, lambda x, y: _dense_commutator(alg, x, _dense_commutator(alg, y, x0, sigma), sigma))


def _extremal_outcome(alg, x0, sigma) -> tuple:
    """extremal_sigma_biderivation's answer in the form of _dense_extremal."""
    try:
        return "psi", extremal_sigma_biderivation(alg, x0, sigma)
    except CentralElement:
        return "central", None
    except PreconditionFails as exc:
        return "precondition", exc.args[0]


def _dense_span_coefficients(field, vectors, target):
    """The coefficients of target in the dense vectors, zero at every free
    index, or None: the last column of the Gauss-Jordan RREF of the system
    whose columns are the vectors and the target, one row per coordinate."""
    k = len(vectors)
    aug, pivots = _gauss_jordan(field, [tuple(v[i] for v in vectors) + (target[i],) for i in range(len(target))],
                                k + 1)
    if k in pivots:
        return None
    coeffs = [field.zero] * k
    for c, row in zip(pivots, aug):
        coeffs[c] = row[k]
    return tuple(coeffs)


def _dense_biderivation_lambda(tri, D0, sigma):
    """lam in Z_sigma with D0 = lam [., .], or None: the flattened D0 in the
    span of the flattened dense lam [., .] over the dense Z_sigma basis."""
    alg = tri.total
    z_sigma = _dense_center(alg, sigma)
    gens = [flatten(_dense_bracket(alg, z)) for z in z_sigma.basis]
    coeffs = _dense_span_coefficients(alg.field, gens, flatten(D0))
    return None if coeffs is None else z_sigma.combine(coeffs)


def _commutator_cases(field) -> list:
    """_instances(field) and the regular Trian(UT_3, UT_3, UT_3) with the
    corner negation."""
    ut = upper_triangular_algebra(field, 3)
    tri = build_triangular(ut, regular_bimodule(ut), upper_triangular_algebra(field, 3))
    return _instances(field) + [(tri, sigma1(tri))]


def _elements(alg, rng) -> list:
    """The basis vectors, the unit and three random elements."""
    p = alg.field.characteristic
    xs = [alg.basis_vector(i) for i in range(alg.dim)] + [alg.unit]
    return xs + [alg.coerce_vector([rng.randrange(-2, 3) % (p or 7) for _ in range(alg.dim)]) for _ in range(3)]


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_sigma_commutator_against_dense_products(field):
    """twisted_ad at every element, inner sigma-derivations, centrality and
    the sigma-centers (direct and from the blocks) against the dense forms;
    the commutator span of every corner and total algebra too."""
    rng = random.Random(9300)
    central = noncentral = 0
    for tri, sigma in _commutator_cases(field):
        alg = tri.total
        z_sigma = _dense_center(alg, sigma)
        assert sigma_center_direct(alg, sigma) == z_sigma
        assert sigma_center(tri, block_decompose(tri, sigma))[0] == z_sigma
        for x in _elements(alg, rng) + list(z_sigma.basis):
            dense = _dense_inner_derivation(alg, x, sigma)
            assert twisted_ad(alg, sigma, x) == dense
            assert inner_sigma_derivation(tri, x, sigma) == dense
            assert is_sigma_central(tri, x, sigma) == dense.is_zero()
            y = _elements(alg, rng)[-1]
            assert sigma_commutator_vec(alg, y, x, sigma) == _dense_commutator(alg, y, x, sigma)
            central += dense.is_zero()
            noncentral += not dense.is_zero()
        for a in (tri.A, tri.B, alg):
            assert center_direct(a) == _dense_center(a, a.identity_map())
            comms = [commutator(a, a.basis_vector(i), a.basis_vector(j)) for i in range(a.dim) for j in range(a.dim)]
            assert _commutator_span(a) == Subspace.from_vectors(field, a.dim, comms)
    assert central and noncentral


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_bracket_and_extremal_against_dense_products(field):
    """lam [., .] for lam in the sigma-center, and the extremal map or the
    error it raises (CentralElement, or PreconditionFails and its (i, j)) at
    every element, each corner value D(p, p) of the sigma-biderivation space
    and every sigma-central basis vector."""
    rng = random.Random(9400)
    outcomes = set()
    brackets = 0
    for tri, sigma in _commutator_cases(field):
        alg = tri.total
        z_sigma = _dense_center(alg, sigma)
        if not alg.is_commutative():
            for lam in z_sigma.basis:
                assert inner_sigma_biderivation(tri, lam, sigma) == _dense_bracket(alg, lam)
                brackets += 1
        space = solve_space("sigma_biderivation", tri, sigma)
        seeds = _elements(alg, rng) + list(z_sigma.basis)
        seeds += [D.apply(tri.p, tri.p) for D in space.basis_maps()]
        for x0 in seeds:
            want = _dense_extremal(alg, x0, sigma)
            assert _extremal_outcome(alg, x0, sigma) == want
            outcomes.add(want[0])
    assert brackets and outcomes == {"central", "precondition", "psi"}


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_inner_witnesses_against_dense_systems(field):
    """The inner biderivation witness of the residual of extremal_split on
    every basis map of Bider_sigma and of lam [., .]: the same lambda as the
    dense system, or None for both."""
    found = set()
    for tri, sigma in _commutator_cases(field):
        alg = tri.total
        biders = [extremal_split(tri, D, sigma).residual
                  for D in solve_space("sigma_biderivation", tri, sigma).basis_maps()]
        if not alg.is_commutative():
            biders += [_dense_bracket(alg, z) for z in _dense_center(alg, sigma).basis]
        for D0 in biders:
            want = _dense_biderivation_lambda(tri, D0, sigma)
            got = inner_biderivation_witness(tri, D0, sigma)
            assert (got and got.lam) == want
            found.add(want is None)
    assert found == {True, False}


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_bracket_map_and_conjugation_against_dense_products(field):
    """Column i*n + j of _bracket_map is the dense commutator [e_i, e_j], and
    inner_automorphism(alg, u) the map of the dense products u^-1 e_j u, with
    u^-1 read off the Gauss-Jordan inverse of the dense L_u, on the corners
    and the total algebra of every case, each also in a random basis, for the
    unit and random invertible u; an element without inverse is refused."""
    rng = random.Random(9600)
    values = ([Fraction(v) for v in (0, 0, 1, -1, 3)] + [Fraction(1, 2)]
              if field is QQ else list(range(field.characteristic)) + [0])
    conjugations = 0
    for tri, _ in _commutator_cases(field):
        for base in (tri.A, tri.B, tri.total):
            for alg in (base, _rebased(base, rng, values)):
                n = alg.dim
                e = [alg.basis_vector(i) for i in range(n)]
                brackets = _bracket_map(alg)
                assert (brackets.src_dim, brackets.dst_dim) == (n * n, n)
                assert [brackets.image_of_basis(i * n + j) for i in range(n) for j in range(n)] == \
                    [commutator(alg, x, y) for x in e for y in e]
                units = [alg.unit] + [_random_invertible(alg, rng, field.characteristic or 7) for _ in range(3)]
                for u in units:
                    u_inv = _rref_inverse(left_mul_by_mul_vec(alg, u)).apply(alg.unit)
                    dense = LinMap.from_images(field, [alg.mul_vec(alg.mul_vec(u_inv, x), u) for x in e], n, n)
                    assert inner_automorphism(alg, u) == dense
                    conjugations += u != alg.unit
                if n:
                    assert _rref_inverse(left_mul_by_mul_vec(alg, alg.zero_vector())) is None
                    with pytest.raises(NotInvertible):
                        inner_automorphism(alg, alg.zero_vector())
    assert conjugations


# Every bimodule action is read off the action tables as a sparse map
# (TriAlgebra.left_action, right_action, left_action_on, right_action_on),
# checked here against the dense products act_left and act_right in the total
# algebra, and coupling_rows against the dense system of a m = nu(m) b.  The
# twisted center and the data read off it, which AutBlocks makes once per
# (T, sigma), are checked against the dense kernels and a dense solve for eta.


def _action_elements(alg, rng) -> list:
    """The basis vectors and two random elements of an algebra or of M (as
    coordinates of length dim)."""
    p, dim = alg.field.characteristic, alg.dim
    xs = [alg.basis_vector(i) for i in range(dim)]
    return xs + [alg.coerce_vector([rng.randrange(-2, 3) % (p or 7) for _ in range(dim)]) for _ in range(2)]


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_action_maps_and_coupling_rows_against_dense_products(field):
    """L_a and R_b on M, a -> a m and b -> m b, for basis vectors and random
    elements, and the kernel of coupling_rows(tri, m, nu(m)) against the
    dense kernel of a m - nu(m) b over the pair unknowns (a, b)."""
    rng = random.Random(9700)
    couplings = 0
    for tri, sigma in _commutator_cases(field):
        da, dm, db = tri.A.dim, tri.M.dim_m, tri.B.dim
        em = [unit_m(field, dm, j) for j in range(dm)]
        ea = [tri.A.basis_vector(i) for i in range(da)]
        eb = [tri.B.basis_vector(k) for k in range(db)]
        for a in _action_elements(tri.A, rng):
            assert tri.left_action(a) == LinMap.from_images(field, [act_left(tri, a, m) for m in em], dm, dm)
        for b in _action_elements(tri.B, rng):
            assert tri.right_action(b) == LinMap.from_images(field, [act_right(tri, m, b) for m in em], dm, dm)
        ms = [tri.part_m(v) for v in _action_elements(tri.total, rng)[da:]]
        nu = block_decompose(tri, sigma).nu
        for m in ms:
            assert tri.left_action_on(m) == LinMap.from_images(field, [act_left(tri, a, m) for a in ea], da, dm)
            assert tri.right_action_on(m) == LinMap.from_images(field, [act_right(tri, m, b) for b in eb], db, dm)
            nu_m = nu.apply(m)
            dense = [[act_left(tri, a, m)[o] for a in ea] + [field.neg(act_right(tri, nu_m, b)[o]) for b in eb]
                     for o in range(dm)]
            want = _dense_kernel(field, dense, da + db)
            assert kernel_sparse(field, coupling_rows(tri, m, nu_m), da + db) == want
            couplings += want.dim < da + db
    assert couplings


def _dense_eta(tri, pa: Subspace, pb: Subspace, nu: LinMap) -> LinMap:
    """eta in the bases of pb and pa, column i the coordinates of the a in pa
    with a m_j = nu(m_j) u_i for every j, solved on the flattened dense
    actions."""
    field, dm = tri.field, tri.M.dim_m
    em = [unit_m(field, dm, j) for j in range(dm)]
    gens = [[c for m in em for c in act_left(tri, a, m)] for a in pa.basis]
    cols = [_dense_span_coefficients(field, gens, [c for m in em for c in act_right(tri, nu.apply(m), u)])
            for u in pb.basis]
    assert None not in cols
    return LinMap.from_images(field, cols, pb.dim, pa.dim)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_block_data_against_dense_solves(field):
    """AutBlocks.center, corner_centers, projections and eta against the dense
    kernels, coordinate projections and a dense solve for eta (None on a
    non-faithful instance, where sigma_center returns (Z_sigma, None));
    block_decompose returns the blocks it kept for an equal sigma and raises
    again on a sigma that is not block-preserving, keeping nothing."""
    faithful = unfaithful = refused = 0
    for tri, sigma in _commutator_cases(field):
        blocks = block_decompose(tri, sigma)
        assert block_decompose(tri, LinMap(field, sigma.rows)) is blocks
        z_sigma = _dense_center(tri.total, sigma)
        assert blocks.center == z_sigma == sigma_center_direct(tri.total, sigma)
        assert blocks.corner_centers == (_dense_center(tri.A, blocks.f), _dense_center(tri.B, blocks.g))
        pa, pb = project_subspace(z_sigma, tri.range_a), project_subspace(z_sigma, tri.range_b)
        assert blocks.projections == (pa, pb)
        if tri.is_faithful():
            eta = blocks.eta
            assert (eta.domain, eta.codomain) == (pb, pa)
            assert eta.matrix == _dense_eta(tri, pa, pb, blocks.nu)
            faithful += 1
        else:
            assert blocks.eta is None
            assert sigma_center(tri, blocks) == (z_sigma, None)
            unfaithful += 1
        if tri.M.dim_m:
            t = tri.total
            conj = inner_automorphism(t, t.add_vec(t.unit, t.basis_vector(tri.range_m[0])))
            for _ in range(2):
                with pytest.raises(NotBlockPreserving):
                    block_decompose(tri, conj)
            assert derived(tri, ("blocks", conj)) is None
            refused += 1
    assert faithful and unfaithful and refused


def _dead_summand(field):
    """Trian(k x k, k, k x k) with the second factors acting as zero, and the
    automorphism that swaps the two dead diagonal lines (as in test_classify,
    over any field)."""
    zero, one = field.zero, field.one
    m = Bimodule(field, 2, 1, 2, [[[one]], [[zero]]], [[[one], [zero]]])
    tri = build_triangular(product_field_algebra(field, 2), m, product_field_algebra(field, 2))
    imgs = [tri.total.basis_vector(i) for i in range(5)]
    imgs[1], imgs[4] = imgs[4], imgs[1]
    return tri, LinMap.from_images(field, imgs, 5, 5)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_ideal_split_with_a_zero_bimodule_ideal(field):
    """ideal_split on an automorphism whose diagonal ideal J has M = 0: the
    sub-triangular algebra of J has no M, and the actions of the ideal I,
    read off the action maps, are the dense products of the corner bases."""
    tri, phi = _dead_summand(field)
    spl = ideal_split(tri, phi)
    assert spl.tri_j is not None and spl.tri_j.M.dim_m == 0 and spl.anti_partible_j
    eb, _ = endo_blocks(tri, phi)
    sub_a, sub_b = eb.chi3.kernel(), eb.gamma3.kernel()
    tri_i, dm = spl.tri_i, tri.M.dim_m
    em = [unit_m(field, dm, j) for j in range(dm)]
    for i, a in enumerate(sub_a.basis):
        assert [act_left(tri_i, tri_i.A.basis_vector(i), m) for m in em] == [act_left(tri, a, m) for m in em]
    for k, b in enumerate(sub_b.basis):
        assert [act_right(tri_i, m, tri_i.B.basis_vector(k)) for m in em] == [act_right(tri, m, b) for m in em]


# -- the (alpha, beta) reduction ----------------------------------------------


def _reduce(alg, obj, alpha, beta):
    """(alpha^{-1} o obj, alpha^{-1} beta): the map and the one twist sigma
    to which a pair of twists (alpha, beta) reduces, for alpha an
    automorphism."""
    alpha_inv = alpha.inverse()
    if isinstance(obj, BilinMap):
        reduced = BilinMap.from_function(alg, lambda x, y: alpha_inv.apply(obj.apply(x, y)))
    else:
        reduced = alpha_inv.compose(obj)
    return reduced, alpha_inv.compose(beta)


def _reduced(kind, alg, obj, alpha, beta):
    """The verdict of the (alpha, beta) form of the sigma-kind `kind` on obj:
    d(xy) = beta(x) d(y) + d(x) alpha(y) (each slot of a bilinear map), or
    beta(x) Theta(x) = Theta(x) alpha(x).  For alpha an automorphism, obj
    satisfies it exactly when alpha^{-1} o obj satisfies the sigma-identity
    for sigma = alpha^{-1} beta (_reduce), since alpha^{-1} of the
    (alpha, beta) residual is the sigma residual of alpha^{-1} o obj.
    classify_* decides the reduced map at sigma; its witness keeps its
    indices, and its element is mapped back by alpha to the (alpha, beta)
    residual."""
    reduced, sigma = _reduce(alg, obj, alpha, beta)
    if isinstance(obj, BilinMap):
        v = classify_bilinear(kind, alg, reduced, sigma)
    else:
        v = classify_linear(kind, alg, reduced, sigma)
    if v.witness is None:
        return v
    w = v.witness
    return Verdict(v.kind, v.holds, Witness(w.indices, alpha.apply(w.element), w.description), v.notes)


def _dense_alpha_beta_failure(kind, alg, obj, alpha, beta):
    """(indices, residual) of the first failure of the (alpha, beta) identity
    of kind on obj, or None, each side evaluated with mul_vec and apply: the
    commuting kind at e_i, then at e_i + e_j for i < j; the derivation kind on
    the pairs (i, j) in row-major order; the biderivation kind on the triples
    (i, j, k), first slot before second, reported as (i, j, k) or (k, i, j)."""
    n, e, mul, sub = alg.dim, alg.basis_vector, alg.mul_vec, alg.sub_vec
    if kind == "sigma_commuting":
        xs = [((i, i), e(i)) for i in range(n)]
        xs += [((i, j), alg.add_vec(e(i), e(j))) for i, j in itertools.combinations(range(n), 2)]
        for at, x in xs:
            t = obj.apply(x)
            r = sub(mul(beta.apply(x), t), mul(t, alpha.apply(x)))
            if any(r):
                return at, r
        return None

    def residual(d, x, y):
        return sub(sub(d(mul(x, y)), mul(beta.apply(x), d(y))), mul(d(x), alpha.apply(y)))

    if kind == "sigma_derivation":
        return next(((ij, r) for ij in itertools.product(range(n), repeat=2)
                     for r in [residual(obj.apply, e(ij[0]), e(ij[1]))] if any(r)), None)
    for i, j, k in itertools.product(range(n), repeat=3):
        z = e(k)
        for at, d in (((i, j, k), lambda x: obj.apply(x, z)), ((k, i, j), lambda y: obj.apply(z, y))):
            r = residual(d, e(i), e(j))
            if any(r):
                return at, r
    return None


def _bumped(obj, rng):
    """obj with one entry, chosen by rng, raised by one."""
    flat = list(flatten(obj))
    pos = rng.randrange(len(flat))
    flat[pos] = obj.field.add(flat[pos], obj.field.one)
    if isinstance(obj, BilinMap):
        return unflatten_bilinear(obj.field, flat, obj.dim)
    n = obj.src_dim
    return LinMap(obj.field, [flat[k * n:(k + 1) * n] for k in range(n)])


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=str)
def test_alpha_beta_reduction_against_dense_evaluation(field):
    """On every catalog instance, alpha and beta are random block-preserving
    twists, one of them composed with the inner automorphism by 1 + m, which
    is not block-preserving, on every other instance.  The maps are the first
    two basis maps of each solved sigma-space, sigma = alpha^{-1} beta, pushed
    forward by alpha, and each of them with one entry bumped.  _reduced and
    the dense (alpha, beta) evaluation agree on the verdict, the first failing
    indices and the residual there."""
    rng = random.Random(8700 + field.characteristic)
    outcomes = set()
    for index, (name, make) in enumerate(instance_catalog(field)):
        tri = make()
        alg = tri.total
        alpha, beta = random_block_preserving_sigma(tri, rng), random_block_preserving_sigma(tri, rng)
        if index % 2:
            alpha = alpha.compose(phi_one_plus_m(tri))
        else:
            beta = phi_one_plus_m(tri).compose(beta)
        sigma = alpha.inverse().compose(beta)
        for kind in ("sigma_derivation", "sigma_commuting", "sigma_biderivation"):
            for m in solve_space(kind, alg, sigma, verify=False).basis_maps()[:2]:
                if isinstance(m, BilinMap):
                    pushed = BilinMap.from_function(alg, lambda x, y: alpha.apply(m.apply(x, y)))
                else:
                    pushed = alpha.compose(m)
                for obj in (pushed, _bumped(pushed, rng)):
                    v = _reduced(kind, alg, obj, alpha, beta)
                    ref = _dense_alpha_beta_failure(kind, alg, obj, alpha, beta)
                    assert v.holds == (ref is None), (name, kind)
                    if ref is not None:
                        assert (v.witness.indices, v.witness.element) == ref, (name, kind)
                    outcomes.add((kind, v.holds))
    assert len(outcomes) == 6


def _dense_structure_reports(alg) -> dict:
    """(verdict, method, witness, implications, idempotents) of each
    structure_checks mode, by a brute force over F_p^n whose products are
    read off the dense structure constants c[i][j][k]."""
    field, n = alg.field, alg.dim
    add, sub, mul, zero = field.add, field.sub, field.mul, field.zero
    c = [[[zero] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k, v in alg._pairs[i][j]:
                c[i][j][k] = v

    def prod(x, y):
        out = [zero] * n
        for i, a in enumerate(x):
            for j, b in enumerate(y):
                if a and b:
                    ab = mul(a, b)
                    out = [add(o, mul(ab, c[i][j][k])) for k, o in enumerate(out)]
        return tuple(out)

    basis = [tuple(field.one if k == i else zero for k in range(n)) for i in range(n)]
    null = tuple([zero] * n)
    kills = lambda x, y: all(prod(prod(x, e), y) == null for e in basis)  # x A y = 0
    elements = list(itertools.product(range(field.characteristic), repeat=n))
    idems = [x for x in elements if prod(x, x) == x]
    comm = all(prod(a, b) == prod(b, a) for a in basis for b in basis)
    central = next((e for e in idems if any(prod(e, b) != prod(b, e) for b in basis)), None)
    cond = next((e for e in idems if kills(e, tuple(map(sub, alg.unit, e)))
                 and not kills(tuple(map(sub, alg.unit, e)), e)), None)
    degenerate = next((a for a in elements if a != null and kills(a, a)), None)
    verdict = lambda w: "holds" if w is None else "fails"
    chain = {"commutative": comm, "central_idempotents": comm or central is None, "condition_I": cond is None}
    return {
        "idempotents": ("holds", "exhaustive", None, None, idems),
        "central_idempotents": ("holds", "commutative", None, None, None) if comm
        else (verdict(central), "exhaustive", central, None, None),
        "nondegenerate": (verdict(degenerate), "exhaustive", degenerate, None, None),
        "condition_I": (("holds", "commutative", None) if comm else (verdict(cond), "exhaustive", cond))
        + (chain, None),
    }


def _exterior_algebra(field) -> FinAlgebra:
    """The exterior algebra on x and y (basis 1, x, y, xy; yx = -xy), which
    is noncommutative when p != 2 and whose only idempotents, 0 and 1, are
    central."""
    mul = [[[0] * 4 for _ in range(4)] for _ in range(4)]
    for i in range(4):
        mul[0][i][i] = mul[i][0][i] = 1
    mul[1][2][3], mul[2][1][3] = 1, -1
    return FinAlgebra(field, mul, [1, 0, 0, 0], ["1", "x", "y", "xy"])


@pytest.mark.parametrize("field", [GF(5), GF(3), GF(2)], ids=str)
def test_structure_checks_against_brute_force(field):
    algebras = [alg for _, make in instance_catalog(field) for tri in (make(),) for alg in (tri.A, tri.B)]
    algebras.append(_exterior_algebra(field))
    if field.characteristic < 5:
        algebras += [upper_triangular_algebra(field, 2), upper_triangular_algebra(field, 3)]
    seen = set()
    for alg in algebras:
        for mode, expected in _dense_structure_reports(alg).items():
            rep = structure_checks(alg, mode)
            assert (rep.verdict, rep.method, rep.witness, rep.implications, rep.idempotents) == expected, mode
            seen.add((mode, rep.verdict, rep.method))
    # both verdicts of every exhaustive check (over F_2 the exterior algebra is
    # commutative, and no noncommutative algebra here passes), and the commutative shortcut
    verdicts = ("holds", "fails") if field.characteristic != 2 else ("fails",)
    assert {(mode, verdict, "exhaustive") for mode in ("condition_I", "central_idempotents") for verdict in verdicts} \
        | {("nondegenerate", "holds", "exhaustive"), ("nondegenerate", "fails", "exhaustive"),
           ("condition_I", "holds", "commutative")} <= seen
