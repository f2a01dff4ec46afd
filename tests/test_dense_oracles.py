"""The sparse trace form, radical, annihilators, composition and inverse
against the dense matrix forms they replaced, kept here as references: the
n^2 products L_i L_j of left multiplication matrices and their traces, the
stacked multiplication matrices of x -> x m_j and x -> m_j x, the dense
matrix product, and the inverse read off the rref of the dense [M | I].

Every instance of instance_catalog (with a random block-preserving twist)
and of random_instances is checked over Q, F_5, F_3 and F_2."""

import random

import pytest

from trialg.algcore import _trace_form_rows, annihilators, radical, unit_m
from trialg.errors import CharTooSmall, NotInvertible
from trialg.exactla import GF, QQ, Mat, kernel_basis, rref
from trialg.randomgen import instance_catalog, random_block_preserving_sigma, random_instances
from trialg.sigmamaps import LinMap

FIELDS = [QQ, GF(5), GF(3), GF(2)]


def _instances(field):
    """(tri, sigma) for every catalog instance, then five random ones."""
    rng = random.Random(8500)
    out = []
    for _, make in instance_catalog(field):
        tri = make()
        out.append((tri, random_block_preserving_sigma(tri, rng)))
    return out + [(tri, sigma) for _, tri, sigma in random_instances(field, 5, 8600)]


def _dense_product(a: Mat, b: Mat) -> Mat:
    """a times b by dense rows."""
    add, mul, zero = a.field.add, a.field.mul, a.field.zero
    rows = []
    for r in a.rows:
        out = [zero] * b.ncols
        for k, v in enumerate(r):
            for j, w in enumerate(b.rows[k]):
                out[j] = add(out[j], mul(v, w))
        rows.append(out)
    return Mat._trusted(a.field, rows, b.ncols)


def _dense_trace(m: Mat):
    acc = m.field.zero
    for i in range(m.nrows):
        acc = m.field.add(acc, m.rows[i][i])
    return acc


def _dense_trace_form(alg) -> Mat:
    """tr(L_i L_j) from the n^2 products of the left multiplication matrices."""
    lmats = [alg.left_mul_mat(alg.basis_vector(i)) for i in range(alg.dim)]
    return Mat._trusted(alg.field, [[_dense_trace(_dense_product(a, b)) for b in lmats] for a in lmats],
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
    left = [[tri.act_left(a, m) for m in em] for a in ea]
    right = [[tri.act_right(m, b) for b in eb] for m in em]
    L = kernel_basis(Mat._trusted(field, [[left[i][j][mp] for i in range(da)]
                                          for j in range(dm) for mp in range(dm)], da))
    R = kernel_basis(Mat._trusted(field, [[right[j][k][mp] for k in range(db)]
                                          for j in range(dm) for mp in range(dm)], db))
    t = tri.total
    ms = [t.basis_vector(j) for j in tri.range_m]
    lann = kernel_basis(Mat._trusted(field, [r for m in ms for r in t.right_mul_mat(m).rows], t.dim))
    rann = kernel_basis(Mat._trusted(field, [r for m in ms for r in t.left_mul_mat(m).rows], t.dim))
    return L, R, lann, rann


def _rref_inverse(m: Mat):
    """The inverse read off the rref of the dense [m | I], or None."""
    n = m.nrows
    ident = Mat.identity(m.field, n)
    red, pivots = rref(Mat._trusted(m.field, [r + e for r, e in zip(m.rows, ident.rows)], 2 * n))
    if list(pivots) != list(range(n)):
        return None
    return Mat._trusted(m.field, [row[n:] for row in red.rows[:n]], n)


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
            assert radical(alg) == kernel_basis(gram)
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
        emb = LinMap.from_images(field, [tri.embed_a(tri.A.basis_vector(j)) for j in range(tri.A.dim)],
                                 tri.A.dim, t.dim)
        square = [sigma, LinMap(field, t.left_mul_mat(x)), LinMap(field, t.left_mul_mat(tri.p))]
        for f in square + [proj, emb]:
            for g in square + [proj, emb]:
                if f.src_dim == g.dst_dim:
                    assert f.compose(g).mat == _dense_product(f.mat, g.mat)
        for f in square + [proj.compose(emb)]:
            expect = _rref_inverse(f.mat)
            if expect is None:
                with pytest.raises(NotInvertible):
                    f.inverse()
                singular += 1
            else:
                assert f.inverse().mat == expect
                invertible += 1
    assert singular and invertible
