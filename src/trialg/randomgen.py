"""Seeded random triangular instances and block-preserving automorphisms.

Instances are drawn from catalogued shapes whose bimodule axioms hold by
construction: a corner algebra acting on itself regularly, a scalar corner
acting on the other algebra, and actions pushed through an algebra
homomorphism.  Random automorphisms combine diagonal conjugation with a unit
corner scaling, so they are block-preserving by construction; everything is
re-verified downstream.
"""

from __future__ import annotations

import random

from .algcore import Bimodule, FinAlgebra, SparseTable, TriAlgebra, build_triangular
from .errors import NotInvertible
from .exactla import Field
from .fixtures import (
    product_field_algebra,
    regular_bimodule,
    scalar_algebra,
    truncated_polynomial_algebra,
    upper_triangular_algebra,
)
from .sigmamaps import LinMap
from .structure import inner_automorphism, scaling_automorphism


def left_scalar_bimodule(scalars: FinAlgebra, alg: FinAlgebra) -> Bimodule:
    """alg as a (scalars, alg)-bimodule: scalars act by scaling, alg regularly."""
    n = alg.dim
    left = SparseTable([tuple(((j, scalars.unit[0]),) for j in range(n))])
    return Bimodule._trusted(alg.field, 1, n, n, left, alg._pairs)


def right_scalar_bimodule(alg: FinAlgebra) -> Bimodule:
    """alg as an (alg, k)-bimodule: alg acts regularly, the scalars by scaling."""
    n = alg.dim
    right = SparseTable((((j, alg.field.one),),) for j in range(n))
    return Bimodule._trusted(alg.field, n, n, 1, alg._pairs, right)


def row_module_over_ut2(field: Field) -> Bimodule:
    """k^2 as row vectors: scalars on the left, UT2 on the right."""
    zero, one = field.zero, field.one
    left = [[[one if j == mp else zero for mp in range(2)] for j in range(2)]]
    # right[m][b][m']: (m0, m1).E11 = (m0, 0); (m0, m1).E12 = (0, m0); (m0, m1).E22 = (0, m1)
    right = [
        [[one, zero], [zero, one], [zero, zero]],
        [[zero, zero], [zero, zero], [zero, one]],
    ]
    return Bimodule(field, 1, 2, 3, left, right)


def dead_factor_bimodule(field: Field) -> Bimodule:
    """k as a (k x k, k)-bimodule where only the second factor acts."""
    zero, one = field.zero, field.one
    left = [[[zero]], [[one]]]
    right = [[[one]]]
    return Bimodule(field, 2, 1, 1, left, right)


def instance_catalog(field: Field) -> list:
    """Named constructors of triangular instances with dim(T) <= 6."""
    k = lambda: scalar_algebra(field)
    kk = lambda: product_field_algebra(field, 2)
    dual = lambda: truncated_polynomial_algebra(field, 2)

    def tri_regular(algf):
        def make():
            a = algf()
            return build_triangular(a, regular_bimodule(a), algf())
        return make

    def tri_left_scalar(algf):
        def make():
            b = algf()
            return build_triangular(k(), left_scalar_bimodule(k(), b), b)
        return make

    def tri_right_scalar(algf):
        def make():
            a = algf()
            return build_triangular(a, right_scalar_bimodule(a), k())
        return make

    def tri_f3_shape():
        from .fixtures import fixture_f3

        return fixture_f3(field)

    def tri_row_ut2():
        return build_triangular(k(), row_module_over_ut2(field), upper_triangular_algebra(field, 2))

    def tri_dead_factor():
        return build_triangular(kk(), dead_factor_bimodule(field), k())

    return [
        ("scalar_corner", tri_regular(k)),
        ("product_regular", tri_regular(kk)),
        ("dual_regular", tri_regular(dual)),
        ("left_scalar_product", tri_left_scalar(kk)),
        ("left_scalar_dual", tri_left_scalar(dual)),
        ("right_scalar_product", tri_right_scalar(kk)),
        ("right_scalar_dual", tri_right_scalar(dual)),
        ("column_ut2", tri_f3_shape),
        ("row_ut2", tri_row_ut2),
        ("dead_factor", tri_dead_factor),
    ]


def random_instance(field: Field, rng: random.Random) -> tuple[str, TriAlgebra]:
    name, make = rng.choice(instance_catalog(field))
    return name, make()


def _random_invertible(alg: FinAlgebra, rng: random.Random, span: int) -> tuple:
    field = alg.field
    for _ in range(200):
        vec = tuple(field.coerce(rng.randrange(span)) for _ in range(alg.dim))
        try:
            alg.invert(vec)
        except NotInvertible:
            continue
        return vec
    return alg.unit


def random_block_preserving_sigma(tri: TriAlgebra, rng: random.Random) -> LinMap:
    """Diagonal conjugation composed with a unit corner scaling."""
    field = tri.field
    p = field.characteristic
    span = p if p else 7
    a0 = _random_invertible(tri.A, rng, span)
    b0 = _random_invertible(tri.B, rng, span)
    u = tri.assemble(a0, [field.zero] * tri.M.dim_m, b0)
    conj = inner_automorphism(tri.total, u)
    c = field.coerce(rng.randrange(1, span))  # nonzero: span is p or 7
    return conj.compose(scaling_automorphism(tri, c))


def random_faithful_instances(field: Field, count: int, seed: int) -> list:
    """Deterministic list of (name, tri, sigma) with faithful bimodules."""
    rng = random.Random(seed)
    faithful_names = {"scalar_corner", "product_regular", "dual_regular",
                      "left_scalar_product", "left_scalar_dual",
                      "right_scalar_product", "right_scalar_dual", "column_ut2", "row_ut2"}
    catalog = [(n, f) for n, f in instance_catalog(field) if n in faithful_names]
    out = []
    while len(out) < count:
        name, make = rng.choice(catalog)
        tri = make()
        sigma = random_block_preserving_sigma(tri, rng)
        out.append((name, tri, sigma))
    return out


def random_instances(field: Field, count: int, seed: int) -> list:
    """Deterministic list of (name, tri, sigma), faithful or not."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        name, tri = random_instance(field, rng)
        sigma = random_block_preserving_sigma(tri, rng)
        out.append((name, tri, sigma))
    return out


__all__ = [
    "instance_catalog",
    "random_instance",
    "random_block_preserving_sigma",
    "random_faithful_instances",
    "random_instances",
    "regular_bimodule",
]
