"""Map predicates, the twisted commutator calculus, twisted centers, block
decomposition, and the two-twist reduction."""

import pytest

from trialg.errors import (
    NotBlockPreserving,
    SigmaMissing,
    SigmaNotAutomorphism,
)
from trialg.exactla import GF, QQ
from trialg.fixtures import (
    fixture_f1,
    fixture_f2,
    fixture_f3,
    phi_one_plus_m,
    sigma1,
    sigma2,
)
from trialg.sigmamaps import (
    BilinMap,
    LinMap,
    alpha_beta_reduce,
    block_decompose,
    classify_bilinear,
    classify_linear,
    inner_automorphism,
    require_automorphism,
    sigma_center,
    sigma_center_oracle,
    sigma_commutator_vec,
)


@pytest.fixture()
def setup(f2_pair):
    alg, sig = f2_pair
    d = LinMap.identity(QQ, 4) - sig
    return alg, sig, d


class TestSignTwistOnTruncatedPolynomials:
    """d = Id - sigma on k[x]/(x^4) with sigma the sign twist."""

    def test_d_kills_even_powers(self, setup):
        alg, _, d = setup
        x = alg.basis_vector(1)
        x2 = alg.mul_vec(x, x)
        assert d.apply(x2) == alg.zero_vector()

    def test_leibniz_defect_is_four_x_squared(self, setup):
        alg, _, d = setup
        x = alg.basis_vector(1)
        dx = d.apply(x)
        lhs = alg.add_vec(alg.mul_vec(dx, x), alg.mul_vec(x, dx))
        assert lhs == alg.smul_vec(4, alg.mul_vec(x, x))

    def test_twisted_but_not_plain_derivation(self, setup):
        alg, sig, d = setup
        assert classify_linear("sigma_derivation", alg, d, sig).holds
        verdict = classify_linear("derivation", alg, d)
        assert not verdict.holds
        assert verdict.witness.indices == (1, 1)

    def test_product_map_is_twisted_biderivation_only(self, setup):
        alg, sig, d = setup
        D = BilinMap.from_function(alg, lambda u, v: alg.mul_vec(d.apply(u), d.apply(v)))
        x = alg.basis_vector(1)
        x2 = alg.mul_vec(x, x)
        assert D.apply(x2, x) == alg.zero_vector()
        dxx = D.apply(x, x)
        both_sides = alg.add_vec(alg.mul_vec(x, dxx), alg.mul_vec(dxx, x))
        x3 = alg.mul_vec(x2, x)
        assert both_sides == alg.smul_vec(8, x3)
        assert classify_bilinear("sigma_biderivation", alg, D, sig).holds
        assert not classify_bilinear("biderivation", alg, D).holds

    def test_zero_tensor_is_both(self, setup):
        alg, sig, _ = setup
        z = BilinMap.zero(QQ, 4)
        assert classify_bilinear("biderivation", alg, z).holds
        assert classify_bilinear("sigma_biderivation", alg, z, sig).holds


class TestCornerNegationCommutingExample:
    def test_twisted_commuting_holds(self, f1, f1_sigma1, f1_theta1):
        assert classify_linear("sigma_commuting", f1.total, f1_theta1, f1_sigma1).holds

    def test_plain_commuting_fails_with_paper_witness(self, f1, f1_theta1):
        verdict = classify_linear("commuting", f1.total, f1_theta1)
        assert not verdict.holds
        # x = m + q has [x, Theta(x)] = -2 E12
        assert verdict.witness.indices == (1, 2)
        assert verdict.witness.element == f1.total.smul_vec(-2, f1.total.basis_vector(1))

    def test_identity_twist_recovers_plain_kinds(self, f1, f1_theta1):
        ident = LinMap.identity(QQ, 3)
        a = classify_linear("sigma_commuting", f1.total, f1_theta1, ident)
        b = classify_linear("commuting", f1.total, f1_theta1)
        assert a.holds == b.holds


class TestSigmaCommutator:
    def test_basis_value(self, f1, f1_sigma1):
        t = f1.total
        val = sigma_commutator_vec(t, f1.p, t.basis_vector(1), f1_sigma1)
        assert val == t.basis_vector(1)

    def test_unit_case(self, f1, f1_sigma1):
        t = f1.total
        for j in range(3):
            x = t.basis_vector(j)
            val = sigma_commutator_vec(t, x, t.unit, f1_sigma1)
            assert val == t.sub_vec(f1_sigma1.apply(x), x)

    def test_identity_twist_is_commutator(self, f1):
        t = f1.total
        ident = LinMap.identity(QQ, 3)
        for i in range(3):
            for j in range(3):
                x, y = t.basis_vector(i), t.basis_vector(j)
                assert sigma_commutator_vec(t, x, y, ident) == t.commutator(x, y)

    def _check_product_rule(self, alg, sigma):
        for i in range(alg.dim):
            for j in range(alg.dim):
                for k in range(alg.dim):
                    x, y, z = (alg.basis_vector(t) for t in (i, j, k))
                    lhs = sigma_commutator_vec(alg, alg.mul_vec(x, y), z, sigma)
                    rhs = alg.add_vec(
                        alg.mul_vec(sigma_commutator_vec(alg, x, z, sigma), y),
                        alg.mul_vec(sigma.apply(x), sigma_commutator_vec(alg, y, z, sigma)))
                    assert lhs == rhs

    def _check_jacobi_form(self, alg, sigma):
        for i in range(alg.dim):
            for j in range(alg.dim):
                for k in range(alg.dim):
                    x, y, z = (alg.basis_vector(t) for t in (i, j, k))
                    lhs = sigma_commutator_vec(alg, x, sigma_commutator_vec(alg, y, z, sigma), sigma)
                    rhs = alg.add_vec(
                        sigma_commutator_vec(alg, alg.commutator(x, y), z, sigma),
                        sigma_commutator_vec(alg, y, sigma_commutator_vec(alg, x, z, sigma), sigma))
                    assert lhs == rhs

    def test_product_rule_and_jacobi_on_fixtures(self, f1, f1_sigma1, f2_pair, f3):
        self._check_product_rule(f1.total, f1_sigma1)
        self._check_jacobi_form(f1.total, f1_sigma1)
        alg, sig = f2_pair
        self._check_product_rule(alg, sig)
        self._check_jacobi_form(alg, sig)
        ident = LinMap.identity(QQ, 6)
        self._check_product_rule(f3.total, ident)
        self._check_jacobi_form(f3.total, ident)

    def test_product_rule_and_jacobi_on_random_f5(self, random_f5_instances):
        for _, tri, sig in random_f5_instances[:6]:
            self._check_product_rule(tri.total, sig)
            self._check_jacobi_form(tri.total, sig)


class TestSigmaCenter:
    def test_f1_corner_negation(self, f1, f1_blocks):
        z, eta = sigma_center(f1, f1_blocks)
        assert z.dim == 1
        lam = f1.total.sub_vec(f1.p, f1.q)
        assert z.contains_vector(lam)
        # eta(b) = -b on the scalar corner
        assert eta.matrix.rows == ((QQ.coerce(-1),),)

    def test_identity_twist_gives_center(self, f1):
        from trialg.algcore import center_T

        ident = LinMap.identity(QQ, 3)
        blocks = block_decompose(f1, ident)
        z, _ = sigma_center(f1, blocks)
        assert z == center_T(f1)

    def test_invariance_under_the_twist(self, f1, f1_sigma1, f1_blocks):
        z, _ = sigma_center(f1, f1_blocks)
        for lam in z.basis:
            assert z.contains_vector(f1_sigma1.apply(lam))

    def test_oracle_equality_fixtures(self, f1, f1_sigma1, f1_blocks, f3, f3_identity, f3_blocks):
        z1, _ = sigma_center(f1, f1_blocks)
        assert z1 == sigma_center_oracle(f1, f1_sigma1)
        z3, _ = sigma_center(f3, f3_blocks, want_eta=False)
        assert z3 == sigma_center_oracle(f3, f3_identity)

    def test_oracle_equality_random(self, random_f5_instances):
        for _, tri, sig in random_f5_instances:
            blocks = block_decompose(tri, sig)
            z, _ = sigma_center(tri, blocks, want_eta=False)
            assert z == sigma_center_oracle(tri, sig)

    def test_kernel_membership_definition(self, f1, f1_sigma1, f1_blocks):
        z, _ = sigma_center(f1, f1_blocks)
        t = f1.total
        for lam in z.basis:
            for i in range(3):
                assert sigma_commutator_vec(t, t.basis_vector(i), lam, f1_sigma1) == t.zero_vector()


class TestBlockDecompose:
    def test_corner_negation_blocks(self, f1, f1_blocks):
        assert f1_blocks.f.is_identity()
        assert f1_blocks.g.is_identity()
        assert f1_blocks.nu.mat.rows == ((QQ.coerce(-1),),)

    def test_identity_blocks(self, f3):
        blocks = block_decompose(f3, LinMap.identity(QQ, 6))
        assert blocks.f.is_identity() and blocks.g.is_identity() and blocks.nu.is_identity()

    def test_inner_by_unipotent_not_block_preserving(self, f1, phi_m):
        # conjugation by 1 + m sends p to p + m, leaving the corner block
        with pytest.raises(NotBlockPreserving):
            block_decompose(f1, phi_m)

    def test_sigma_kind_requires_twist(self, f1, f1_theta1):
        with pytest.raises(SigmaMissing):
            classify_linear("sigma_commuting", f1.total, f1_theta1, None)

    def test_twist_must_be_automorphism(self, f1, f1_theta1):
        bad = LinMap.zero(QQ, 3)
        with pytest.raises(SigmaNotAutomorphism):
            classify_linear("sigma_commuting", f1.total, f1_theta1, bad)


class TestAutomorphismMemo:
    """require_automorphism remembers passing sigmas per algebra instance only."""

    def test_non_automorphism_rejected_after_another_sigma_passed(self):
        t = fixture_f1().total
        good = sigma1(fixture_f1())
        assert require_automorphism(t, good) is good
        bad = LinMap.zero(QQ, 3)
        for _ in range(2):
            with pytest.raises(SigmaNotAutomorphism):
                require_automorphism(t, bad)
            with pytest.raises(SigmaNotAutomorphism):
                classify_linear("sigma_derivation", t, LinMap.zero(QQ, 3), bad)

    def test_equal_algebra_loaded_separately_is_checked_again(self, count_aut_checks):
        from trialg import io

        obj = io.triangular_to_json(fixture_f1())
        first, second = (io.triangular_from_json(obj).total for _ in range(2))
        assert first == second and first is not second
        sig = sigma1(fixture_f1())
        require_automorphism(first, sig)
        require_automorphism(first, sig)
        assert len(count_aut_checks) == 1
        require_automorphism(second, sig)
        assert len(count_aut_checks) == 2 and count_aut_checks[1] is second


class TestIdMinusSigmaFamily:
    """The difference of the identity and any automorphism obeys the twisted
    Leibniz rule; checked across fixtures and random instances."""

    def test_on_fixtures(self, f1, f1_sigma1, f2_pair, f3, phi_m):
        cases = [
            (f1.total, f1_sigma1),
            (f1.total, phi_m),
            (f2_pair[0], f2_pair[1]),
            (f3.total, LinMap.identity(QQ, 6)),
            (f3.total, sigma1(f3)),
        ]
        for alg, sig in cases:
            d = LinMap.identity(alg.field, alg.dim) - sig
            assert classify_linear("sigma_derivation", alg, d, sig).holds

    def test_on_random_instances(self, random_f5_instances):
        for _, tri, sig in random_f5_instances[:8]:
            d = LinMap.identity(tri.field, tri.dim) - sig
            assert classify_linear("sigma_derivation", tri.total, d, sig).holds


class TestAlphaBetaReduce:
    def test_identity_alpha_is_noop(self, f2_pair):
        alg, sig = f2_pair
        d = LinMap.identity(QQ, 4) - sig
        res = alpha_beta_reduce(alg, d, LinMap.identity(QQ, 4), sig)
        assert res.reduced.mat == d.mat
        assert res.sigma.mat == sig.mat
        assert res.input_verdict.holds and res.output_verdict.holds

    def test_equal_twists_collapse_to_identity(self, f1, f1_sigma1):
        from trialg.spaces import solve_space

        d0 = solve_space("derivation", f1).basis_maps()[0]
        pushed = f1_sigma1.compose(d0)
        res = alpha_beta_reduce(f1.total, pushed, f1_sigma1, f1_sigma1)
        assert res.sigma.is_identity()
        assert res.input_verdict.holds and res.output_verdict.holds

    def test_bilinear_pushforward(self, f1, f1_sigma1, f1_lambda1):
        from trialg.spaces import inner_sigma_biderivation

        D = inner_sigma_biderivation(f1, f1_lambda1, f1_sigma1)
        # push through alpha: alpha . D is an (alpha, alpha sigma)-biderivation
        alpha = f1_sigma1
        pushed = BilinMap(QQ, [[alpha.apply(D.value(i, j)) for j in range(3)] for i in range(3)])
        res = alpha_beta_reduce(f1.total, pushed, alpha, alpha.compose(f1_sigma1))
        assert res.input_verdict.holds and res.output_verdict.holds
        assert res.reduced == D

    def test_commuting_variant(self, f1, f1_sigma1, f1_theta1):
        pushed = f1_sigma1.compose(f1_theta1)
        res = alpha_beta_reduce(f1.total, pushed, f1_sigma1,
                                f1_sigma1.compose(f1_sigma1), commuting=True)
        assert res.input_verdict.holds and res.output_verdict.holds
        assert res.reduced.mat == f1_theta1.mat


class TestInnerAutomorphism:
    def test_unipotent_conjugation_shape(self, f1, phi_m):
        t = f1.total
        # phi(p) = p + m, phi(q) = q - m, phi(m) = m
        assert phi_m.apply(f1.p) == t.add_vec(f1.p, t.basis_vector(1))
        assert phi_m.apply(t.basis_vector(1)) == t.basis_vector(1)
        assert classify_linear("automorphism", t, phi_m).holds

    def test_diagonal_conjugation_block_preserving(self, f4):
        t = f4.total
        u = f4.assemble((2, 1, 3), (0, 0), (4,))
        phi = inner_automorphism(t, u)
        block_decompose(f4, phi)  # must not raise
