"""Solution spaces, the inner/extremal constructors, twisted-derivation block
form, and the twisted Posner intersection."""

import pytest

from trialg.errors import (
    CentralElement,
    CommutativeAlgebra,
    InputError,
    NotSigmaCentral,
    PreconditionFails,
    TheoremViolation,
)
from trialg.exactla import QQ, Subspace, kernel_sparse
from trialg.fixtures import fixture_f1, sigma1, truncated_polynomial_algebra
from trialg.sigmamaps import (
    BilinMap,
    LinMap,
    block_decompose,
    classify_bilinear,
    classify_linear,
    sigma_commutator_vec,
)
from trialg.spaces import (
    extremal_sigma_biderivation,
    inner_derivation_witness,
    inner_sigma_biderivation,
    inner_sigma_derivation,
    is_sigma_central,
    posner_intersection,
    sigma_derivation_blocks,
    solve_space,
)

TWISTED_KINDS = ("sigma_derivation", "sigma_commuting", "sigma_biderivation")


class TestSolveSpace:
    def test_derivation_space_contains_inner_derivation(self, f1):
        space = solve_space("derivation", f1)
        t = f1.total
        m = t.basis_vector(1)
        ad_m = LinMap.from_images(QQ, [t.commutator(t.basis_vector(j), m) for j in range(3)], 3, 3)
        assert classify_linear("derivation", t, ad_m).holds
        assert space.contains(ad_m)
        space.coords(ad_m)  # representable in the canonical basis

    def test_commuting_space_contains_model_map(self, f1, f1_sigma1, f1_theta1,
                                                f1_lambda1, f1_commuting_space):
        assert f1_commuting_space.contains(f1_theta1)
        t = f1.total
        lam_mul = LinMap(QQ, t.left_mul_mat(f1_lambda1), 3, 3)
        assert f1_commuting_space.contains(lam_mul)

    def test_twisted_biderivation_space_contains_inner_family(self, f1, f1_sigma1,
                                                              f1_blocks, f1_bider_space):
        from trialg.sigmamaps import sigma_center

        z, _ = sigma_center(f1, f1_blocks)
        for lam in z.basis:
            if all(v == QQ.zero for v in lam):
                continue
            D = inner_sigma_biderivation(f1, lam, f1_sigma1)
            assert f1_bider_space.contains(D)

    def test_every_basis_element_passes_classify(self, f4, f4_sigma1, f4_bider_space,
                                                 f4_commuting_space):
        for D in f4_bider_space.basis_maps():
            assert classify_bilinear("sigma_biderivation", f4.total, D, f4_sigma1).holds
        for th in f4_commuting_space.basis_maps():
            assert classify_linear("sigma_commuting", f4.total, th, f4_sigma1).holds

    def test_plain_equals_identity_twisted(self, f1):
        ident = LinMap.identity(QQ, 3)
        plain = solve_space("derivation", f1)
        twisted = solve_space("sigma_derivation", f1, ident)
        assert plain.subspace == twisted.subspace

    @pytest.mark.parametrize("kind", TWISTED_KINDS)
    def test_verification_catches_a_non_solution(self, f1, f1_sigma1, kind, monkeypatch):
        import trialg.spaces as sp

        def kernel_plus_non_solution(field, rows, ncols):
            sub = kernel_sparse(field, rows, ncols)
            extra = next(v for v in Subspace.full(field, ncols).basis if not sub.contains_vector(v))
            return sub.sum(Subspace.from_vectors(field, ncols, [extra]))

        monkeypatch.setattr(sp, "kernel_sparse", kernel_plus_non_solution)
        with pytest.raises(TheoremViolation):
            solve_space(kind, f1, f1_sigma1)

    @pytest.mark.parametrize("kind", TWISTED_KINDS)
    def test_one_automorphism_check_per_solve(self, kind, count_aut_checks):
        tri = fixture_f1()
        space = solve_space(kind, tri, sigma1(tri))
        assert space.dim > 0
        assert len(count_aut_checks) == 1 and count_aut_checks[0] is tri.total

    def test_unknown_kind_rejected(self, f1):
        with pytest.raises(InputError):
            solve_space("automorphism", f1)

    def test_bilinear_cap(self, f1):
        with pytest.raises(InputError):
            solve_space("biderivation", f1, bilinear_dim_cap=2)


class TestInnerTwistedDerivation:
    def test_unit_gives_twist_defect(self, f1, f1_sigma1):
        d = inner_sigma_derivation(f1, f1.total.unit, f1_sigma1)
        expected = f1_sigma1 - LinMap.identity(QQ, 3)
        assert d.mat == expected.mat

    def test_corner_generator(self, f1, f1_sigma1):
        m = f1.total.basis_vector(1)
        d = inner_sigma_derivation(f1, m, f1_sigma1)
        assert d.apply(f1.p) == m

    def test_twisted_central_element_gives_zero(self, f1, f1_sigma1, f1_lambda1):
        d = inner_sigma_derivation(f1, f1_lambda1, f1_sigma1)
        assert d.is_zero()

    def test_membership_in_solved_space(self, f1, f1_sigma1):
        space = solve_space("sigma_derivation", f1, f1_sigma1)
        for x0 in (f1.p, f1.total.basis_vector(1), f1.q):
            assert space.contains(inner_sigma_derivation(f1, x0, f1_sigma1))


class TestInnerTwistedBiderivation:
    def test_model_values(self, f1, f1_sigma1, f1_lambda1):
        D = inner_sigma_biderivation(f1, f1_lambda1, f1_sigma1)
        m = f1.total.basis_vector(1)
        assert D.apply(f1.p, m) == m

    def test_alternating(self, f1, f1_sigma1, f1_lambda1):
        D = inner_sigma_biderivation(f1, f1_lambda1, f1_sigma1)
        for i in range(3):
            x = f1.total.basis_vector(i)
            assert D.apply(x, x) == f1.total.zero_vector()

    def test_zero_element_gives_zero_map(self, f1, f1_sigma1):
        D = inner_sigma_biderivation(f1, f1.total.zero_vector(), f1_sigma1)
        assert D.is_zero()

    def test_rejects_noncentral(self, f1, f1_sigma1):
        with pytest.raises(NotSigmaCentral):
            inner_sigma_biderivation(f1, f1.p, f1_sigma1)

    def test_rejects_commutative(self, f2_pair):
        alg, sig = f2_pair
        with pytest.raises(CommutativeAlgebra):
            inner_sigma_biderivation(alg, alg.unit, sig)

    def test_membership_for_every_central_basis_vector(self, f4, f4_sigma1, f4_blocks,
                                                       f4_bider_space):
        from trialg.sigmamaps import sigma_center

        z, _ = sigma_center(f4, f4_blocks, want_eta=False)
        for lam in z.basis:
            D = inner_sigma_biderivation(f4, lam, f4_sigma1)
            assert f4_bider_space.contains(D)


class TestExtremalTwistedBiderivation:
    def test_corner_square_value(self, f1, f1_sigma1):
        m = f1.total.basis_vector(1)
        psi = extremal_sigma_biderivation(f1, m, f1_sigma1)
        assert psi.value(0, 0) == m

    def test_symmetry(self, f1, f1_sigma1):
        psi = extremal_sigma_biderivation(f1, f1.total.basis_vector(1), f1_sigma1)
        assert psi.is_symmetric()
        assert psi.apply(f1.p, f1.q) == psi.apply(f1.q, f1.p)

    def test_central_seed_rejected(self, f1, f1_sigma1, f1_lambda1):
        assert is_sigma_central(f1, f1_lambda1, f1_sigma1)
        with pytest.raises(CentralElement):
            extremal_sigma_biderivation(f1, f1_lambda1, f1_sigma1)

    def test_precondition_failure_reported(self, f3, f3_identity):
        # E23 does not commute with all commutators of UT3
        x0 = f3.total.basis_vector(4)
        with pytest.raises(PreconditionFails):
            extremal_sigma_biderivation(f3, x0, f3_identity)

    def test_membership(self, f1, f1_sigma1, f1_bider_space):
        psi = extremal_sigma_biderivation(f1, f1.total.basis_vector(1), f1_sigma1)
        assert f1_bider_space.contains(psi)


class TestDerivationBlocks:
    def test_zero_map(self, f1, f1_blocks):
        d = LinMap.zero(QQ, 3)
        hw = sigma_derivation_blocks(f1, d, f1_blocks)
        assert hw.d_a.is_zero() and hw.d_b.is_zero() and hw.xi.is_zero()
        assert all(v == QQ.zero for v in hw.m_d)

    def test_inner_by_corner_element(self, f1, f1_sigma1, f1_blocks):
        m = f1.total.basis_vector(1)
        d = inner_sigma_derivation(f1, m, f1_sigma1)
        hw = sigma_derivation_blocks(f1, d, f1_blocks)
        assert hw.d_a.is_zero() and hw.d_b.is_zero() and hw.xi.is_zero()
        assert hw.m_d == (QQ.one,)
        assert hw.reassemble().mat == d.mat

    def test_reassembly_on_whole_space(self, f4, f4_sigma1, f4_blocks):
        space = solve_space("sigma_derivation", f4, f4_sigma1)
        for d in space.basis_maps():
            hw = sigma_derivation_blocks(f4, d, f4_blocks)
            assert hw.reassemble().mat == d.mat

    def test_inner_witness_cross_op(self, f1, f1_sigma1):
        m = f1.total.basis_vector(1)
        d = inner_sigma_derivation(f1, m, f1_sigma1)
        x0 = inner_derivation_witness(f1, d, f1_sigma1)
        assert x0 is not None
        assert inner_sigma_derivation(f1, x0, f1_sigma1).mat == d.mat


class TestBiderivationIdentities:
    """Cross-slot identities that every solved twisted biderivation obeys."""

    def _aux_product_identity(self, tri, sigma, D):
        t = tri.total
        n = t.dim
        comms = [[t.commutator(t.basis_vector(i), t.basis_vector(j)) for j in range(n)]
                 for i in range(n)]
        svals = [[sigma.apply(c) for c in row] for row in comms]
        for i in range(n):
            for j in range(n):
                dij = D.value(i, j)
                for u in range(n):
                    for v in range(n):
                        lhs = t.mul_vec(dij, comms[u][v])
                        rhs = t.mul_vec(svals[i][j], D.value(u, v))
                        assert lhs == rhs

    def test_product_identity_on_f1(self, f1, f1_sigma1, f1_bider_space):
        for D in f1_bider_space.basis_maps():
            self._aux_product_identity(f1, f1_sigma1, D)

    def test_unit_and_idempotent_values(self, f1, f1_bider_space):
        t = f1.total
        one = t.unit
        for D in f1_bider_space.basis_maps():
            for i in range(3):
                x = t.basis_vector(i)
                assert D.apply(x, one) == t.zero_vector()
                assert D.apply(one, x) == t.zero_vector()
            # alternating square values at the idempotent pair
            e, f_ = f1.p, f1.q
            assert D.apply(e, e) == t.smul_vec(-1, D.apply(e, f_))
            assert D.apply(e, e) == t.smul_vec(-1, D.apply(f_, e))
            assert D.apply(e, e) == D.apply(f_, f_)

    def test_commuting_pairs_concentrate_in_corner(self, f4, f4_bider_space):
        t = f4.total
        n = t.dim
        for D in f4_bider_space.basis_maps():
            for i in range(n):
                for j in range(n):
                    x, y = t.basis_vector(i), t.basis_vector(j)
                    if t.commutator(x, y) != t.zero_vector():
                        continue
                    val = D.value(i, j)
                    corner = t.mul_vec(t.mul_vec(f4.p, val), f4.q)
                    assert val == corner


class TestPosner:
    def test_f1_with_corner_negation(self, f1, f1_sigma1):
        assert posner_intersection(f1, f1_sigma1).dim == 0

    def test_f1_with_identity(self, f1):
        assert posner_intersection(f1, LinMap.identity(QQ, 3)).dim == 0

    def test_f4_with_random_twists(self, f4):
        import random

        from trialg.randomgen import random_block_preserving_sigma

        rng = random.Random(7)
        for _ in range(3):
            sigma = random_block_preserving_sigma(f4, rng)
            assert posner_intersection(f4, sigma).dim == 0
