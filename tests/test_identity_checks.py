"""Pinned results of the product-rule identity checks on perturbed inputs.

Each case feeds one check an input that fails it and pins the exact outcome:
the Verdict (kind, holds, witness indices, element, description, and notes
for the commuting predicate) of a predicate, or the exception type and
message of a block check.  The biderivation and associativity cases are
chosen so that the witness depends on the order in which the two slots and
the basis triples are visited; the commuting cases fail at a single basis
vector, at a pair sum only, with alpha != id, and in characteristic 2; and
each block condition (iii)-(vi) of a twisted commuting map fails once.  A
case with twists (alpha, beta), alpha != id, is decided at the one twist
alpha^{-1} beta (test_dense_oracles._reduced), and pins the (alpha, beta)
residual.
"""

from dataclasses import replace

import pytest

from trialg.algcore import FinAlgebra, build_triangular
from trialg.classify import (
    TheoremReport,
    _thm0_conditions,
    _thm1_conditions,
    _verify_commuting_blocks,
    _verify_derivation_blocks,
    commuting_blocks,
    endo_blocks,
    sigma_derivation_blocks,
)
from trialg.errors import NonAssociative, TheoremViolation
from trialg.exactla import GF, QQ
from trialg.fixtures import (
    fixture_f1,
    fixture_f3,
    phi_one_plus_m,
    product_field_algebra,
    sigma1,
    upper_triangular_algebra,
)
from trialg.randomgen import regular_bimodule
from trialg.sigmamaps import BilinMap, LinMap, classify_bilinear, classify_linear, is_endomorphism
from trialg.spaces import solve_space
from trialg.structure import AutBlocks, block_decompose, inner_automorphism

from test_dense_oracles import _reduced, flatten, right_mul_mat, unflatten_bilinear


def _bump(f: LinMap, k: int, j: int, c=1) -> LinMap:
    """f with c added to matrix entry [k][j] (coefficient of e_k in f(e_j))."""
    rows = [list(r) for r in f.rows]
    rows[k][j] = f.field.add(rows[k][j], f.field.coerce(c))
    return LinMap(f.field, rows, f.src_dim, f.dst_dim)


def _bump_tensor(D: BilinMap, i: int, j: int, k: int) -> BilinMap:
    flat = list(flatten(D))
    pos = (i * D.dim + j) * D.dim + k
    flat[pos] = D.field.add(flat[pos], D.field.one)
    return unflatten_bilinear(D.field, flat, D.dim)


def _verdict(v, field=QQ):
    w = v.witness
    return (v.kind, v.holds, w.indices, tuple(field.format(c) for c in w.element), w.description)


def _raised(fn, error=TheoremViolation):
    with pytest.raises(error) as exc:
        fn()
    return (type(exc.value).__name__, str(exc.value))


def _regular_ut2():
    ut2 = upper_triangular_algebra(QQ, 2)
    return build_triangular(ut2, regular_bimodule(ut2), ut2)


def _inner_ut2(tri):
    """Conjugation of UT_2 by 1 + E12, an automorphism that moves E11 and E22."""
    a = tri.A
    return inner_automorphism(a, a.add_vec(a.unit, a.basis_vector(1)))


def _mult(tri, k: int):
    """Left (k = 0) or right (k = 1) multiplication by E12 on the regular bimodule."""
    a = tri.A
    x = a.basis_vector(1)
    return a.left_mul_mat(x) if k == 0 else right_mul_mat(a, x)


def _endomorphism():
    f3 = fixture_f3()
    return _verdict(is_endomorphism(f3.total, _bump(phi_one_plus_m(f3), 0, 3)))


def _derivation(twisted_alpha: bool):
    f3 = fixture_f3()
    s1 = sigma1(f3)
    d = solve_space("sigma_derivation", f3, s1).basis_maps()
    if twisted_alpha:
        return _verdict(_reduced("sigma_derivation", f3.total, _bump(d[1], 4, 4, 2), phi_one_plus_m(f3), s1))
    return _verdict(classify_linear("sigma_derivation", f3.total, _bump(d[0], 1, 2), s1))


def _biderivation(fixture, slot_entry, twisted_alpha: bool = False):
    tri = fixture()
    s1 = sigma1(tri)
    D = solve_space("sigma_biderivation", tri, s1).basis_maps()[0]
    bumped = _bump_tensor(D, *slot_entry)
    if twisted_alpha:
        return _verdict(_reduced("sigma_biderivation", tri.total, bumped, phi_one_plus_m(tri), s1))
    return _verdict(classify_bilinear("sigma_biderivation", tri.total, bumped, s1))


def _commuting(field, index: int, bumps, twisted_alpha: bool = False):
    """Solved sigma1-commuting basis map `index` of F3 over field, with c added
    to each listed entry (k, j, c); with twisted_alpha the map is first moved
    to the (phi, phi sigma1)-commuting map phi Theta, for phi the inner
    automorphism by 1 + m."""
    f3 = fixture_f3(field)
    s1 = sigma1(f3)
    theta = solve_space("sigma_commuting", f3, s1).basis_maps()[index]
    phi = phi_one_plus_m(f3)
    if twisted_alpha:
        theta = phi.compose(theta)
    for k, j, c in bumps:
        theta = _bump(theta, k, j, c)
    if twisted_alpha:
        v = _reduced("sigma_commuting", f3.total, theta, phi, phi.compose(s1))
    else:
        v = classify_linear("sigma_commuting", f3.total, theta, s1)
    return _verdict(v, field) + (v.notes,)


def _non_associative():
    """k[x]/(x^3) with x^2 x^2 = -x: the triple (1, 1, 2) fails first in (i, j, k)
    order, (2, 1, 1) first in (k, i, j) order."""
    mul = [[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
           [[0, 1, 0], [0, 0, 1], [0, 0, 0]],
           [[0, 0, 1], [0, 0, 0], [0, -1, 0]]]
    return _raised(lambda: FinAlgebra(QQ, mul, [1, 0, 0]), NonAssociative)


def _commuting_blocks(tri, name: str, k: int, j: int):
    """The block conditions of tri's first solved sigma1-commuting basis map,
    with entry [k][j] of its block `name` bumped by one."""
    s1 = sigma1(tri)
    theta = solve_space("sigma_commuting", tri, s1).basis_maps()[0]
    blocks = block_decompose(tri, s1)
    cb, _ = commuting_blocks(tri, theta, blocks)
    bad = replace(cb, **{name: _bump(getattr(cb, name), k, j)})
    return _raised(lambda: _verify_commuting_blocks(tri, theta, blocks, bad))


def _product_regular():
    """Trian(k x k, k x k, k x k) with the regular bimodule."""
    kk = product_field_algebra(QQ, 2)
    return build_triangular(kk, regular_bimodule(kk), product_field_algebra(QQ, 2))


def _aut_blocks(side: int):
    tri = _regular_ut2()
    ident, inner = LinMap.identity(QQ, 3), _inner_ut2(tri)
    f, g = (inner, ident) if side == 0 else (ident, inner)
    return _raised(lambda: AutBlocks(tri, f, g, ident, LinMap.identity(QQ, 9)).verify())


def _xi_blocks(side: int):
    tri = _regular_ut2()
    d = solve_space("derivation", tri).basis_maps()[0]
    hw = sigma_derivation_blocks(tri, d, block_decompose(tri, LinMap.identity(QQ, 9)))
    return _raised(lambda: _verify_derivation_blocks(replace(hw, xi=hw.xi + _mult(tri, side)), d))


def _endo_report_only():
    """phi keeps the diagonal entries of both corners and kills M: M goes into
    M but not onto it, so the corner conditions are only reported."""
    tri = _regular_ut2()
    images = [tri.total.basis_vector(j) if j in (0, 2, 6, 8) else tri.total.zero_vector()
              for j in range(9)]
    _, report = endo_blocks(tri, LinMap.from_images(QQ, images, 9, 9))
    return report.verdict, tuple(report.violations)


def _thm0(strict: bool):
    tri = _regular_ut2()
    eb, _ = endo_blocks(tri, phi_one_plus_m(tri))
    if strict:
        return _raised(lambda: _thm0_conditions(tri, replace(eb, gamma3=_bump(eb.gamma3, 1, 0)),
                                                TheoremReport("t"), True))
    report = TheoremReport("t")
    bad = replace(eb, chi1=_bump(eb.chi1, 0, 1), chi3=_bump(eb.chi3, 0, 1),
                  gamma1=_bump(eb.gamma1, 0, 2))
    _thm0_conditions(tri, bad, report, False)
    return tuple(report.violations)


def _thm1(name: str, k: int, j: int):
    tri = _regular_ut2()
    eb, _ = endo_blocks(tri, phi_one_plus_m(tri))
    bad = replace(eb, **{name: _bump(getattr(eb, name), k, j)})
    return _raised(lambda: _thm1_conditions(tri, bad, TheoremReport("t")))


DER = "d(e_i e_j) - sigma(e_i) d(e_j) - d(e_i) e_j"
FIRST = "first-slot failure at (e_i e_j, e_k)"
SECOND = "second-slot failure at (e_k, e_i e_j)"
COMM = "sigma(x) Theta(x) - Theta(x) x at x = e_i"
COMM_PAIR = COMM + " + e_j"
TV = "TheoremViolation"

CASES = {
    "endomorphism": (_endomorphism,
                     ("endomorphism", False, (1, 4), ("1", "0", "0", "0", "0", "0"),
                      "f(e_i e_j) - f(e_i) f(e_j)")),
    "derivation": (lambda: _derivation(False),
                   ("sigma_derivation", False, (0, 2), ("0", "-1", "0", "0", "0", "0"), DER)),
    "derivation_twisted_alpha": (lambda: _derivation(True),
                                 ("sigma_derivation", False, (1, 4),
                                  ("0", "0", "0", "-2", "0", "0"), DER)),
    # both slots fail first at the loop triple (0, 0, 0): the first slot is reported
    "biderivation_both_slots": (lambda: _biderivation(fixture_f3, (0, 0, 0)),
                                ("sigma_biderivation", False, (0, 0, 0),
                                 ("-1", "0", "0", "0", "0", "0"), FIRST)),
    # a second-slot failure precedes every first-slot failure
    "biderivation_second_slot_first": (lambda: _biderivation(fixture_f1, (1, 0, 0)),
                                       ("sigma_biderivation", False, (1, 0, 0), ("-1", "0", "0"),
                                        SECOND)),
    # the first failure is at k = 1, a second-slot one at k = 0 comes at a later pair
    "biderivation_k_inside_pair": (lambda: _biderivation(fixture_f3, (0, 1, 1)),
                                   ("sigma_biderivation", False, (0, 2, 1),
                                    ("0", "-1", "0", "0", "0", "0"), FIRST)),
    "biderivation_twisted_alpha": (lambda: _biderivation(fixture_f1, (0, 1, 2), True),
                                   ("sigma_biderivation", False, (0, 0, 1), ("0", "0", "1"), FIRST)),
    "commuting_single": (lambda: _commuting(QQ, 0, ((1, 2, 1), (4, 2, 3))),
                         ("sigma_commuting", False, (2, 2), ("0", "-1", "0", "0", "3", "0"), COMM, ())),
    "commuting_pair_only": (lambda: _commuting(QQ, 0, ((5, 2, 1), (3, 1, 2))),
                            ("sigma_commuting", False, (0, 1), ("0", "0", "0", "2", "0", "0"), COMM_PAIR, ())),
    "commuting_twisted_alpha": (lambda: _commuting(QQ, 2, ((0, 4, 2),), True),
                                ("sigma_commuting", False, (0, 4), ("0", "0", "0", "-2", "0", "0"),
                                 COMM_PAIR, ())),
    "commuting_char2": (lambda: _commuting(GF(2), 0, ((3, 4, 1),)),
                        ("sigma_commuting", False, (0, 4), ("0", "0", "0", "1", "0", "0"), COMM_PAIR, ())),
    "non_associative": (_non_associative,
                        ("NonAssociative", "associativity fails on basis triple (1, 1, 2)")),
    "condition_iii": (lambda: _commuting_blocks(fixture_f3(), "mu1", 0, 1),
                      (TV, "condition (iii) fails on a basis pair")),
    "condition_iv": (lambda: _commuting_blocks(_product_regular(), "delta3", 0, 1),
                     (TV, "condition (iv) fails on a basis pair")),
    # delta2 moved by m -> m, into the center of A = Q
    "condition_v": (lambda: _commuting_blocks(fixture_f1(), "delta2", 0, 0),
                    (TV, "condition (v) fails on the quadratic span")),
    "condition_vi": (lambda: _commuting_blocks(fixture_f1(), "delta3", 0, 0),
                     (TV, "condition (vi) fails on a basis vector")),
    "aut_blocks_left": (lambda: _aut_blocks(0), (TV, "nu(am) != f(a) nu(m) on a basis pair")),
    "aut_blocks_right": (lambda: _aut_blocks(1), (TV, "nu(mb) != nu(m) g(b) on a basis pair")),
    "xi_left": (lambda: _xi_blocks(0), (TV, "xi fails its left action identity")),
    "xi_right": (lambda: _xi_blocks(1), (TV, "xi fails its right action identity")),
    "endo_report_only": (_endo_report_only,
                         ("corner-preserving blocks verified",
                          ("corner images are not ideals of A", "corner images are not ideals of B",
                           "A is not the direct sum of the two corner images",
                           "B is not the direct sum of the two corner images"))),
    "thm0_report": (lambda: _thm0(False),
                    ("chi1 is not multiplicative", "chi3 is not multiplicative",
                     "gamma1 is not multiplicative", "images of chi3 and gamma1 do not annihilate each other",
                     "corner images are not ideals of B", "B is not the direct sum of the two corner images")),
    "thm0_strict": (lambda: _thm0(True), (TV, "gamma3 is not multiplicative")),
    "thm1_chi2_scaled": (lambda: _thm1("chi2", 0, 1), (TV, "chi2 is not chi1-scaled from its unit value")),
    "thm1_chi2_product": (lambda: _thm1("chi2", 2, 1), (TV, "chi2 fails its product rule")),
    "thm1_gamma2_scaled": (lambda: _thm1("gamma2", 0, 2),
                           (TV, "gamma2 is not gamma1-scaled from its unit value")),
    "thm1_gamma2_product": (lambda: _thm1("gamma2", 0, 0), (TV, "gamma2 fails its product rule")),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_failing_input_gives_pinned_result(name):
    run, expected = CASES[name]
    assert run() == expected
