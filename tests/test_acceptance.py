"""Acceptance criteria, one test per criterion, each at zero tolerance
(every comparison is exact); a pass/fail line is printed per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines inline.
"""

import itertools
import random

import pytest

from trialg.classify import (
    commuting_blocks,
    endo_blocks,
    endo_mono_epi,
    extremal_split,
    ideal_split,
    inner_biderivation_witness,
    inner_sigma_biderivation,
    innerness_hypotheses,
    partible_witness,
    posner_intersection,
    properness,
)
from trialg.exactla import GF, QQ, Subspace
from trialg.fixtures import (
    fixture_f1,
    fixture_f3,
    phi_one_plus_m,
    sigma1,
    upper_triangular_algebra,
)
from trialg.randomgen import random_block_preserving_sigma
from trialg.sigmamaps import (
    BilinMap,
    LinMap,
    classify_bilinear,
    classify_linear,
    sigma_commutator_vec,
)
from trialg.spaces import solve_space
from trialg.structure import (
    block_decompose,
    center_direct,
    center_T,
    inner_automorphism,
    nil_radical_T,
    nilpotency,
    radical,
    sigma_center,
    sigma_center_direct,
)

from test_dense_oracles import commutator, smul_vec, value


def _announce(number: int, name: str):
    print("ACCEPTANCE %2d (%s): PASS" % (number, name))


def test_criterion_01_sign_twist_example(f2_pair):
    alg, sig = f2_pair
    d = LinMap.identity(QQ, 4) - sig
    x = alg.basis_vector(1)
    x2 = alg.mul_vec(x, x)
    assert d.apply(x2) == alg.zero_vector()
    dx = d.apply(x)
    assert alg.add_vec(alg.mul_vec(dx, x), alg.mul_vec(x, dx)) == smul_vec(alg, 4, x2)
    assert not classify_linear("derivation", alg, d).holds
    assert classify_linear("sigma_derivation", alg, d, sig).holds
    D = BilinMap.from_function(alg, lambda u, v: alg.mul_vec(d.apply(u), d.apply(v)))
    assert D.apply(x2, x) == alg.zero_vector()
    dxx = D.apply(x, x)
    x3 = alg.mul_vec(x2, x)
    assert alg.add_vec(alg.mul_vec(x, dxx), alg.mul_vec(dxx, x)) == smul_vec(alg, 8, x3)
    assert not classify_bilinear("biderivation", alg, D).holds
    assert classify_bilinear("sigma_biderivation", alg, D, sig).holds
    _announce(1, "sign-twist derivation and biderivation example")


def test_criterion_02_twisted_commuting_example(f1, f1_sigma1, f1_theta1):
    assert classify_linear("sigma_commuting", f1.total, f1_theta1, f1_sigma1).holds
    verdict = classify_linear("commuting", f1.total, f1_theta1)
    assert not verdict.holds
    # witness x = m + q with commutator exactly -2 E12
    assert verdict.witness.indices == (1, 2)
    assert verdict.witness.element == smul_vec(f1.total, -2, f1.total.basis_vector(1))
    _announce(2, "twisted-commuting corner example with exact witness")


def test_criterion_03_center_formulas_vs_oracles(f1, f1_sigma1, f1_blocks, f3,
                                                 f3_identity, f3_blocks, random_f5_mixed):
    assert center_T(f1) == center_direct(f1.total)
    assert center_T(f3) == center_direct(f3.total)
    z1, _ = sigma_center(f1, f1_blocks)
    assert z1 == sigma_center_direct(f1.total, f1_sigma1)
    z3, _ = sigma_center(f3, f3_blocks)
    assert z3 == sigma_center_direct(f3.total, f3_identity)
    assert len(random_f5_mixed) == 20
    for _, tri, sig in random_f5_mixed:
        assert tri.dim <= 6
        assert center_T(tri) == center_direct(tri.total)
        blocks = block_decompose(tri, sig)
        z, _ = sigma_center(tri, blocks)
        assert z == sigma_center_direct(tri.total, sig)
    _announce(3, "center and twisted center equal their kernel oracles")


def test_criterion_04_extremal_split_exact(f4, f4_sigma1, f4_bider_space,
                                           f1, f1_sigma1, f1_bider_space):
    for tri, sig, space in ((f4, f4_sigma1, f4_bider_space),
                            (f1, f1_sigma1, f1_bider_space)):
        assert space.dim > 0
        zero = tri.total.zero_vector()
        for D in space.basis_maps():
            split = extremal_split(tri, D, sig)
            assert split.psi + split.residual == D
            assert split.residual.apply(tri.p, tri.p) == zero
    _announce(4, "every twisted biderivation splits extremal + corner-vanishing")


def test_criterion_05_inner_witnesses_under_verified_hypotheses(f3, f3_identity, f3_blocks,
                                                                f3_bider_space):
    hyp = innerness_hypotheses(f3, f3_blocks)
    assert hyp.all_pass(), "hypotheses must be verified, not assumed"
    t = f3.total
    checked = 0
    for D in f3_bider_space.basis_maps():
        split = extremal_split(f3, D, f3_identity)
        D0 = split.residual
        w = inner_biderivation_witness(f3, D0, f3_identity, hypotheses=hyp)
        assert w is not None
        rebuilt = inner_sigma_biderivation(f3, w.lam, f3_identity) \
            if any(v != QQ.zero for v in w.lam) else BilinMap.zero(QQ, 6)
        assert rebuilt == D0
        for j in f3.range_m:
            m = t.basis_vector(j)
            # D(p, m) is multiplication by the corner part of the witness
            assert D0.apply(f3.p, m) == t.mul_vec(f3.assemble(w.lam_a, (), ()), m)
            assert D0.apply(f3.p, m) == t.mul_vec(w.lam, m)
        checked += 1
    assert checked == f3_bider_space.dim
    _announce(5, "corner-vanishing twisted biderivations are inner end to end")


def test_criterion_06_commuting_description_and_properness(f1, f1_blocks, f1_theta1,
                                                           f1_lambda1, f1_commuting_space,
                                                           f4, f4_blocks, f4_commuting_space):
    for tri, blocks, space in ((f1, f1_blocks, f1_commuting_space),
                               (f4, f4_blocks, f4_commuting_space)):
        assert space.dim > 0
        for theta in space.basis_maps():
            commuting_blocks(tri, theta, blocks)  # all six conditions, raises on failure
            res = properness(tri, theta, blocks)
            assert len(set(res.verdicts.values())) == 1
    res = properness(f1, f1_theta1, f1_blocks)
    assert res.proper
    assert res.witness.lam == f1_lambda1
    assert res.witness.omega.is_zero()
    _announce(6, "block description verified and properness verdicts agree")


def test_criterion_07_posner_rigidity(f1, f1_sigma1, f4):
    assert posner_intersection(f1, f1_sigma1).dim == 0
    assert posner_intersection(f1, LinMap.identity(QQ, 3)).dim == 0
    rng = random.Random(20240903)
    for _ in range(3):
        sigma = random_block_preserving_sigma(f4, rng)
        assert posner_intersection(f4, sigma).dim == 0
    _announce(7, "twisted-commuting twisted derivations vanish")


def test_criterion_08_radical_suite(f3):
    rad = radical(upper_triangular_algebra(QQ, 2))
    assert rad == Subspace.from_vectors(QQ, 3, [[0, 1, 0]])
    nil = nil_radical_T(f3)
    t = f3.total
    strict_upper = Subspace.from_vectors(QQ, 6, [t.basis_vector(1), t.basis_vector(3),
                                                 t.basis_vector(4)])
    assert nil == strict_upper and nil.dim == 3
    tri2 = fixture_f1(GF(2))
    corner = tri2.subspace_m()
    for combo in itertools.product(range(2), repeat=3):
        if nilpotency(tri2.total, combo).nilpotent:
            assert corner.contains_vector(combo)
    _announce(8, "radical computations and corner-nilpotency exhaustion")


def test_criterion_09_endomorphism_suite(f1, f1_sigma1, f3, phi_m):
    # blocks and their structure identities on the three designated maps,
    # both directly and after the witness normalization
    composite = phi_m.compose(f1_sigma1)
    for tri, phi in ((f1, LinMap.identity(QQ, 3)), (f1, f1_sigma1), (f1, composite)):
        eb, report = endo_blocks(tri, phi)
        assert not report.violations
        w = partible_witness(tri, phi)
        assert w is not None
        eb_norm, report_norm = endo_blocks(tri, w.sigma_bar)
        assert not report_norm.violations
        assert eb_norm.chi2.is_zero() and eb_norm.gamma2.is_zero()
    # mono/epi criteria against matrix rank on the endomorphism collection
    from test_classify import _endo_collection

    cases = _endo_collection()
    assert len(cases) >= 10
    saw_mono_fail = saw_epi_fail = False
    for tri, phi in cases:
        eb, _ = endo_blocks(tri, phi)
        rep = endo_mono_epi(tri, eb, phi)
        assert rep.mono == rep.injective and rep.epi == rep.surjective
        saw_mono_fail |= not rep.mono
        saw_epi_fail |= not rep.epi
    assert saw_mono_fail and saw_epi_fail
    # ideal splitting recombines with invariance on every tested automorphism
    from test_classify import direct_sum_with_dead_summand

    tri_ds, phi_ds = direct_sum_with_dead_summand()
    split_cases = [(f1, f1_sigma1), (f3, LinMap.identity(QQ, 6)), (tri_ds, phi_ds),
                   (f1, composite), (f3, phi_one_plus_m(f3))]
    for tri, phi in split_cases:
        spl = ideal_split(tri, phi)
        assert spl.ideal_i.sum(spl.ideal_j).dim == tri.dim
        assert spl.ideal_i.intersect(spl.ideal_j).is_zero()
        for sub in (spl.ideal_i, spl.ideal_j):
            img = Subspace.from_vectors(tri.field, tri.dim,
                                        [phi.apply(v) for v in sub.basis])
            assert img == sub
    _announce(9, "endomorphism blocks, mono/epi criteria, and ideal splitting")


def test_criterion_10_partibility_witnesses(f1, f1_sigma1, f3):
    t1, t3 = f1.total, f3.total
    cases = []
    for mval in (QQ.one, QQ.coerce(3), QQ.coerce("-2/3")):
        phi = inner_automorphism(t1, t1.add_vec(t1.unit, f1.embed_m((mval,))))
        cases.append((f1, phi))
        cases.append((f1, phi.compose(f1_sigma1)))
    s3 = sigma1(f3)
    for m_coords in ((1, 0), (0, 1), (5, -1)):
        phi = inner_automorphism(t3, t3.add_vec(t3.unit, f3.embed_m(m_coords)))
        cases.append((f3, phi))
        cases.append((f3, phi.compose(s3)))
    for tri, sig in cases:
        w = partible_witness(tri, sig)
        assert w is not None
        t = tri.total
        z_inv = t.invert(w.z)
        recomposed = LinMap.from_images(
            tri.field,
            [t.mul_vec(t.mul_vec(z_inv, w.sigma_bar.image_of_basis(j)), w.z)
             for j in range(tri.dim)], tri.dim, tri.dim)
        assert recomposed == sig
        block_decompose(tri, w.sigma_bar)  # block preservation re-verified
    _announce(10, "inner and composite automorphisms factor through the witness")


def _check_commutator_calculus(alg, sig):
    n = alg.dim
    for i in range(n):
        for j in range(n):
            for k in range(n):
                x, y, z = (alg.basis_vector(s) for s in (i, j, k))
                lhs = sigma_commutator_vec(alg, alg.mul_vec(x, y), z, sig)
                rhs = alg.add_vec(
                    alg.mul_vec(sigma_commutator_vec(alg, x, z, sig), y),
                    alg.mul_vec(sig.apply(x), sigma_commutator_vec(alg, y, z, sig)))
                assert lhs == rhs
                lhs = sigma_commutator_vec(alg, x, sigma_commutator_vec(alg, y, z, sig), sig)
                rhs = alg.add_vec(
                    sigma_commutator_vec(alg, commutator(alg, x, y), z, sig),
                    sigma_commutator_vec(alg, y, sigma_commutator_vec(alg, x, z, sig), sig))
                assert lhs == rhs


def _check_biderivation_lemmas(tri, sig, space):
    t = tri.total
    n = t.dim
    zero = t.zero_vector()
    comms = [[commutator(t, t.basis_vector(i), t.basis_vector(j)) for j in range(n)]
             for i in range(n)]
    svals = [[sig.apply(c) for c in row] for row in comms]
    for D in space.basis_maps():
        # product identity through the twist
        for i in range(n):
            for j in range(n):
                dij = value(D, i, j)
                for u in range(n):
                    for v in range(n):
                        assert t.mul_vec(dij, comms[u][v]) == t.mul_vec(svals[i][j], value(D, u, v))
        # unit annihilation and idempotent square values
        for i in range(n):
            x = t.basis_vector(i)
            assert D.apply(x, t.unit) == zero and D.apply(t.unit, x) == zero
        e, f = tri.p, tri.q
        assert D.apply(e, e) == smul_vec(t, -1, D.apply(e, f))
        assert D.apply(e, e) == smul_vec(t, -1, D.apply(f, e))
        assert D.apply(e, e) == D.apply(f, f)
        # commuting arguments concentrate the value in the corner block
        for i in range(n):
            for j in range(n):
                if comms[i][j] == zero:
                    val = value(D, i, j)
                    assert val == t.mul_vec(t.mul_vec(tri.p, val), tri.q)


def _check_z_transfer(tri, sig_factor):
    t = tri.total
    field = tri.field
    m0 = [field.one] + [field.zero] * (tri.M.dim_m - 1)
    phi = inner_automorphism(t, t.add_vec(t.unit, tri.embed_m(m0)))
    sigma = phi.compose(sig_factor)
    w = partible_witness(tri, sigma)
    assert w is not None
    z_mul = t.left_mul_mat(w.z)
    space = solve_space("sigma_derivation", tri, sigma)
    for d in space.basis_maps():
        assert classify_linear("sigma_derivation", t, z_mul.compose(d), w.sigma_bar).holds
    back = solve_space("sigma_derivation", tri, w.sigma_bar)
    z_inv_mul = t.left_mul_mat(t.invert(w.z))
    for d in back.basis_maps():
        assert classify_linear("sigma_derivation", t, z_inv_mul.compose(d), sigma).holds


def _check_commuting_lemmas(tri, blocks, space):
    from trialg.structure import project_subspace

    z, _ = sigma_center(tri, blocks)
    pa = project_subspace(z, tri.range_a)
    pb = project_subspace(z, tri.range_b)
    for theta in space.basis_maps():
        cb, _ = commuting_blocks(tri, theta, blocks)
        for i in range(tri.A.dim):
            for j in range(tri.A.dim):
                comm = commutator(tri.A, tri.A.basis_vector(i), tri.A.basis_vector(j))
                assert pb.contains_vector(cb.mu1.apply(comm))
        for i in range(tri.B.dim):
            for j in range(tri.B.dim):
                comm = commutator(tri.B, tri.B.basis_vector(i), tri.B.basis_vector(j))
                assert pa.contains_vector(cb.delta3.apply(comm))


def test_criterion_11_property_suite(f1, f1_sigma1, f1_blocks, f1_bider_space,
                                     f1_commuting_space, f2_pair, f3, f3_identity,
                                     f3_blocks, f3_bider_space, f4, f4_sigma1, f4_blocks,
                                     f4_bider_space, f4_commuting_space, random_f5_instances):
    # fixtures
    _check_commutator_calculus(f1.total, f1_sigma1)
    _check_commutator_calculus(f2_pair[0], f2_pair[1])
    _check_commutator_calculus(f3.total, f3_identity)
    _check_commutator_calculus(f4.total, f4_sigma1)
    _check_biderivation_lemmas(f1, f1_sigma1, f1_bider_space)
    _check_biderivation_lemmas(f3, f3_identity, f3_bider_space)
    _check_biderivation_lemmas(f4, f4_sigma1, f4_bider_space)
    _check_commuting_lemmas(f1, f1_blocks, f1_commuting_space)
    _check_commuting_lemmas(f3, f3_blocks, solve_space("sigma_commuting", f3, f3_identity))
    _check_commuting_lemmas(f4, f4_blocks, f4_commuting_space)
    _check_z_transfer(f1, f1_sigma1)
    _check_z_transfer(f3, sigma1(f3))
    _check_z_transfer(f4, f4_sigma1)
    # 20 random instances over F_5
    assert len(random_f5_instances) == 20
    for _, tri, sig in random_f5_instances:
        _check_commutator_calculus(tri.total, sig)
        blocks = block_decompose(tri, sig)
        bider = solve_space("sigma_biderivation", tri, sig)
        _check_biderivation_lemmas(tri, sig, bider)
        comm_space = solve_space("sigma_commuting", tri, sig)
        _check_commuting_lemmas(tri, blocks, comm_space)
        _check_z_transfer(tri, sig)
    _announce(11, "commutator calculus and biderivation lemmas, fixtures + random")
