"""Canonical fixtures used across the test-suite, demos, and the CLI.

F1: Trian(Q, Q, Q), the 2x2 upper triangular matrices over Q with basis
    (p = E11, m = E12, q = E22).
F2: Q[x]/(x^4) with the sign automorphism x -> -x.
F3: Trian(UT2(Q), Q^2, Q), isomorphic to the 3x3 upper triangular matrices.
F4: the same structure constants as F3 over F_5.

Companion maps on F1: sigma1 = diag(1, -1, 1) (negates the corner), theta1 =
diag(1, 1, -1), lambda1 = p - q.  The corner-negating automorphism and the
inner automorphism by 1 + m generalize to any triangular algebra.

The flip: the regular Trian(UT2(k), UT2(k), UT2(k)), which is UT2 (x) UT2,
with the automorphism that swaps the two tensor factors; it is not partible.
"""

from __future__ import annotations

from .algcore import Bimodule, FinAlgebra, TriAlgebra, build_triangular
from .exactla import GF, QQ, Field
from .sigmamaps import LinMap
from .structure import inner_automorphism, scaling_automorphism

__all__ = [
    "scalar_algebra",
    "product_field_algebra",
    "truncated_polynomial_algebra",
    "upper_triangular_algebra",
    "fixture_f1",
    "fixture_f2",
    "fixture_f3",
    "fixture_f4",
    "sigma1",
    "theta1",
    "lambda1",
    "sigma2",
    "phi_one_plus_m",
    "regular_bimodule",
    "ut2_tensor_flip",
]


def scalar_algebra(field: Field) -> FinAlgebra:
    """The field itself as a 1-dimensional algebra."""
    return FinAlgebra(field, [[[field.one]]], [field.one], ["1"])


def product_field_algebra(field: Field, parts: int = 2) -> FinAlgebra:
    """k x k x ... with componentwise product."""
    zero, one = field.zero, field.one
    mul = [[[one if (i == j == k) else zero for k in range(parts)]
            for j in range(parts)] for i in range(parts)]
    unit = [one] * parts
    names = ["u%d" % i for i in range(parts)]
    return FinAlgebra(field, mul, unit, names)


def truncated_polynomial_algebra(field: Field, degree_bound: int) -> FinAlgebra:
    """k[x]/(x^n) with basis 1, x, ..., x^(n-1)."""
    n = degree_bound
    zero, one = field.zero, field.one
    mul = [[[one if k == i + j else zero for k in range(n)] for j in range(n)] for i in range(n)]
    unit = [one] + [zero] * (n - 1)
    names = ["1"] + ["x^%d" % i if i > 1 else "x" for i in range(1, n)]
    return FinAlgebra(field, mul, unit, names)


def upper_triangular_algebra(field: Field, n: int) -> FinAlgebra:
    """UT_n(k) on the matrix units E_ij, i <= j, ordered lexicographically."""
    units = [(i, j) for i in range(n) for j in range(i, n)]
    index = {u: t for t, u in enumerate(units)}
    dim = len(units)
    zero, one = field.zero, field.one
    mul = []
    for (i, j) in units:
        row = []
        for (k, l) in units:
            vec = [zero] * dim
            if j == k:
                vec[index[(i, l)]] = one
            row.append(vec)
        mul.append(row)
    unit = [zero] * dim
    for i in range(n):
        unit[index[(i, i)]] = one
    names = ["E%d%d" % (i + 1, j + 1) for (i, j) in units]
    return FinAlgebra(field, mul, unit, names)


def regular_bimodule(alg: FinAlgebra) -> Bimodule:
    """The algebra as a bimodule over itself (both actions by multiplication)."""
    n = alg.dim
    return Bimodule._trusted(alg.field, n, n, n, alg._pairs, alg._pairs)


def _scalar_bimodule(field: Field) -> Bimodule:
    one = field.one
    return Bimodule(field, 1, 1, 1, [[[one]]], [[[one]]], ["m"])


def fixture_f1(field: Field = QQ) -> TriAlgebra:
    """Trian(k, k, k) with basis (p, m, q); the 2x2 upper triangular matrices."""
    A = scalar_algebra(field)
    B = scalar_algebra(field)
    M = _scalar_bimodule(field)
    return build_triangular(A, M, B, basis_names=("E11", "E12", "E22"))


def fixture_f2(field: Field = QQ) -> tuple[FinAlgebra, LinMap]:
    """Q[x]/(x^4) together with the automorphism x -> -x."""
    alg = truncated_polynomial_algebra(field, 4)
    return alg, sigma2(alg)


def sigma2(alg: FinAlgebra) -> LinMap:
    """Sign automorphism of k[x]/(x^n): x^i -> (-1)^i x^i."""
    field = alg.field
    images = []
    for i in range(alg.dim):
        v = list(alg.basis_vector(i))
        if i % 2 == 1:
            v = [field.neg(c) for c in v]
        images.append(v)
    return LinMap.from_images(field, images, alg.dim, alg.dim)


def _column_bimodule(field: Field, ut2: FinAlgebra) -> Bimodule:
    """k^2 as column vectors: UT2 acts on the left, scalars on the right."""
    zero, one = field.zero, field.one
    # left[a][m][m']: E11.(m1,m2) = (m1,0); E12.(m1,m2) = (m2,0); E22.(m1,m2) = (0,m2)
    left = [
        [[one, zero], [zero, zero]],   # E11: m0 -> m0, m1 -> 0
        [[zero, zero], [one, zero]],   # E12: m0 -> 0,  m1 -> m0
        [[zero, zero], [zero, one]],   # E22: m0 -> 0,  m1 -> m1
    ]
    right = [[[one, zero]], [[zero, one]]]
    return Bimodule(field, ut2.dim, 2, 1, left, right, ["E13", "E23"])


def fixture_f3(field: Field = QQ) -> TriAlgebra:
    """Trian(UT2(k), k^2, k), isomorphic to UT3(k)."""
    A = upper_triangular_algebra(field, 2)
    B = scalar_algebra(field)
    M = _column_bimodule(field, A)
    return build_triangular(A, M, B, basis_names=("E11", "E12", "E22", "E13", "E23", "E33"))


def fixture_f4() -> TriAlgebra:
    """The F3 structure constants over F_5."""
    return fixture_f3(GF(5))


def sigma1(tri: TriAlgebra) -> LinMap:
    """Corner-negating automorphism a + m + b -> a - m + b."""
    return scaling_automorphism(tri, tri.field.neg(tri.field.one))


def theta1(tri: TriAlgebra) -> LinMap:
    """a + m + b -> a + m - b (the sigma1-commuting model map on F1)."""
    field = tri.field
    images = []
    for j in range(tri.dim):
        v = list(tri.total.basis_vector(j))
        if j in tri.range_b:
            v = [field.neg(c) for c in v]
        images.append(v)
    return LinMap.from_images(field, images, tri.dim, tri.dim)


def lambda1(tri: TriAlgebra) -> tuple:
    """p - q as an element of the total algebra."""
    return tri.total.sub_vec(tri.p, tri.q)


def phi_one_plus_m(tri: TriAlgebra, m_coords=None) -> LinMap:
    """Inner automorphism by 1 + m for a corner element m (default: first basis vector)."""
    field = tri.field
    if m_coords is None:
        m_coords = [field.one] + [field.zero] * (tri.M.dim_m - 1)
    u = tri.total.add_vec(tri.total.unit, tri.embed_m(m_coords))
    return inner_automorphism(tri.total, u)


def ut2_tensor_flip(field: Field = QQ) -> tuple[TriAlgebra, LinMap]:
    """The regular Trian(UT_2, UT_2, UT_2), which is UT_2 (x) UT_2 with
    e_(3a+b) = E_a (x) E_b over the basis E11, E12, E22 of UT_2, and the flip
    of the two factors, e_(3a+b) -> e_(3b+a): an automorphism with sigma(p) =
    E11 (in A) + E11 (in B), so it is not partible."""
    ut = upper_triangular_algebra(field, 2)
    tri = build_triangular(ut, regular_bimodule(ut), upper_triangular_algebra(field, 2))
    one = field.one
    return tri, LinMap._trusted(field, [((3 * (j % 3) + j // 3, one),) for j in range(9)], 9)
