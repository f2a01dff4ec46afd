"""Theorem-level checkers: splitting, inner witnesses, commuting-map blocks,
properness, endomorphism structure, ideal splitting, and partibility."""

import itertools

import pytest

from trialg.algcore import Bimodule, build_triangular
from trialg.classify import (
    commuting_blocks,
    endo_blocks,
    endo_mono_epi,
    extremal_sigma_biderivation,
    extremal_split,
    ideal_split,
    inner_biderivation_witness,
    inner_sigma_biderivation,
    innerness_hypotheses,
    partibility_sufficient,
    partible_witness,
    properness,
    properness_sufficiency,
)
from trialg.errors import NotInvertible, NotSigmaBiderivation, PreconditionFails
from trialg.exactla import GF, QQ
from trialg.fixtures import (
    fixture_f1,
    fixture_f3,
    phi_one_plus_m,
    product_field_algebra,
    scalar_algebra,
    sigma1,
    truncated_polynomial_algebra,
    upper_triangular_algebra,
    ut2_tensor_flip,
)
from trialg.randomgen import instance_catalog, regular_bimodule
from trialg.sigmamaps import BilinMap, LinMap, classify_linear
from trialg.spaces import solve_space
from trialg.structure import block_decompose, inner_automorphism, sigma_center, structure_checks

from test_dense_oracles import commutator


def diagonal_triangular(field=QQ):
    """Trian(k, 0, k) = k x k behind the zero-module override."""
    return build_triangular(scalar_algebra(field), Bimodule.zero(field, 1, 1),
                            scalar_algebra(field), allow_zero_m=True)


def swap_map(tri):
    imgs = [tri.total.basis_vector(1), tri.total.basis_vector(0)]
    return LinMap.from_images(tri.field, imgs, 2, 2)


def collapse_map(tri):
    """(a, b) -> (a, a) on the diagonal algebra."""
    e0 = tri.total.basis_vector(0)
    one = tri.field.one
    imgs = [(one, one), (tri.field.zero, tri.field.zero)]
    del e0
    return LinMap.from_images(tri.field, imgs, 2, 2)


def direct_sum_with_dead_summand():
    """T = F1 (+) (k x k diagonal): A = k x k, M = k via the first factor,
    B = k x k with the first factor acting."""
    field = QQ
    zero, one = field.zero, field.one
    kk = product_field_algebra(field, 2)
    left = [[[one]], [[zero]]]
    right = [[[one], [zero]]]
    m = Bimodule(field, 2, 1, 2, left, right, ["m"])
    tri = build_triangular(kk, m, product_field_algebra(field, 2),
                           basis_names=("a1", "a2", "m", "b1", "b2"))
    imgs = [tri.total.basis_vector(i) for i in range(5)]
    imgs[1], imgs[4] = imgs[4], imgs[1]  # swap the two dead diagonal lines
    phi = LinMap.from_images(field, imgs, 5, 5)
    return tri, phi


class TestExtremalSplit:
    def test_extremal_map_splits_as_itself(self, f1, f1_sigma1):
        m = f1.total.basis_vector(1)
        psi = extremal_sigma_biderivation(f1, m, f1_sigma1)
        split = extremal_split(f1, psi, f1_sigma1)
        assert split.corner_value == m
        assert split.psi == psi
        assert split.residual.is_zero()

    def test_inner_map_has_zero_extremal_part(self, f1, f1_sigma1, f1_lambda1):
        D = inner_sigma_biderivation(f1, f1_lambda1, f1_sigma1)
        split = extremal_split(f1, D, f1_sigma1)
        assert split.psi.is_zero()
        assert split.residual == D

    def test_residual_vanishes_over_f4_space(self, f4, f4_sigma1, f4_bider_space):
        zero = f4.total.zero_vector()
        for D in f4_bider_space.basis_maps():
            split = extremal_split(f4, D, f4_sigma1)
            assert split.residual.apply(f4.p, f4.p) == zero
            assert (split.psi + split.residual) == D

    def test_residual_vanishes_over_f1_space(self, f1, f1_sigma1, f1_bider_space):
        zero = f1.total.zero_vector()
        for D in f1_bider_space.basis_maps():
            split = extremal_split(f1, D, f1_sigma1)
            assert split.residual.apply(f1.p, f1.p) == zero
            assert (split.psi + split.residual) == D

    def test_rejects_non_biderivation(self, f1, f1_sigma1):
        bad = BilinMap.from_function(f1.total, lambda x, y: f1.total.mul_vec(x, y))
        with pytest.raises(NotSigmaBiderivation):
            extremal_split(f1, bad, f1_sigma1)


class TestInnerWitness:
    def test_round_trip(self, f1, f1_sigma1, f1_lambda1):
        D = inner_sigma_biderivation(f1, f1_lambda1, f1_sigma1)
        w = inner_biderivation_witness(f1, D, f1_sigma1)
        assert w is not None
        assert w.lam == f1_lambda1

    def test_zero_map(self, f1, f1_sigma1):
        w = inner_biderivation_witness(f1, BilinMap.zero(QQ, 3), f1_sigma1)
        assert w is not None
        assert inner_sigma_biderivation(f1, w.lam, f1_sigma1).is_zero() or \
            all(v == QQ.zero for v in w.lam)

    def test_requires_corner_vanishing(self, f1, f1_sigma1):
        psi = extremal_sigma_biderivation(f1, f1.total.basis_vector(1), f1_sigma1)
        with pytest.raises(PreconditionFails):
            inner_biderivation_witness(f1, psi, f1_sigma1)

    def test_f3_every_residual_is_inner(self, f3, f3_identity, f3_blocks, f3_bider_space):
        hyp = innerness_hypotheses(f3, f3_blocks)
        assert hyp.all_pass()
        t = f3.total
        for D in f3_bider_space.basis_maps():
            split = extremal_split(f3, D, f3_identity)
            w = inner_biderivation_witness(f3, split.residual, f3_identity, hypotheses=hyp)
            assert w is not None
            # the corner action of lambda reproduces the residual on (p, m)
            for j in f3.range_m:
                m = t.basis_vector(j)
                assert split.residual.apply(f3.p, m) == t.mul_vec(w.lam, m)


class TestInnercondHypotheses:
    def test_f3_identity_passes_all(self, f3, f3_blocks):
        hyp = innerness_hypotheses(f3, f3_blocks)
        assert [h.verdict for h in hyp.hypotheses] == ["pass"] * 4

    def test_f1_corner_negation_fails_noncommutativity(self, f1, f1_blocks):
        hyp = innerness_hypotheses(f1, f1_blocks)
        by_name = {h.name: h.verdict for h in hyp.hypotheses}
        assert by_name["noncommutative_corner"] == "fail"
        assert not hyp.all_pass()

    def test_intertwiner_space_containment_is_decided_by_dimension(self, f3, f3_blocks):
        # scalar-action maps always intertwine; equality is a dim comparison
        hyp = innerness_hypotheses(f3, f3_blocks)
        h = {h.name: h for h in hyp.hypotheses}["intertwiners_scalar"]
        assert h.verdict == "pass"
        assert "dim intertwiners=1" in h.evidence


class TestCommutingBlocks:
    def test_model_map_blocks(self, f1, f1_theta1, f1_blocks):
        cb, report = commuting_blocks(f1, f1_theta1, f1_blocks)
        assert cb.delta1.is_identity()
        assert cb.mu3.rows == ((QQ.coerce(-1),),)
        for name in ("delta2", "delta3", "mu1", "mu2"):
            assert getattr(cb, name).is_zero()
        assert report.verdict == "all conditions verified"

    def test_identity_map_blocks(self, f1):
        ident = LinMap.identity(QQ, 3)
        blocks = block_decompose(f1, ident)
        cb, _ = commuting_blocks(f1, ident, blocks)
        assert cb.delta1.is_identity() and cb.mu3.is_identity()
        assert cb.delta2.is_zero() and cb.delta3.is_zero()
        assert cb.mu1.is_zero() and cb.mu2.is_zero()

    def test_central_multiplication_matches_model(self, f1, f1_lambda1, f1_blocks, f1_theta1):
        lam_mul = f1.total.left_mul_mat(f1_lambda1)
        assert lam_mul == f1_theta1
        cb, _ = commuting_blocks(f1, lam_mul, f1_blocks)
        assert cb.delta1.is_identity()
        assert cb.mu3.rows == ((QQ.coerce(-1),),)

    def test_whole_solved_space_passes(self, f4, f4_blocks, f4_commuting_space):
        for theta in f4_commuting_space.basis_maps():
            commuting_blocks(f4, theta, f4_blocks)  # raises on any violation


class TestProperness:
    def test_model_map_witness(self, f1, f1_theta1, f1_blocks, f1_lambda1):
        res = properness(f1, f1_theta1, f1_blocks)
        assert res.proper
        assert res.witness.lam == f1_lambda1
        assert res.witness.omega.is_zero()

    def test_central_valued_map_is_proper_with_zero_lambda(self, f1, f1_blocks, f1_lambda1):
        # Omega: everything to the twisted-central line
        t = f1.total
        images = [f1_lambda1, t.zero_vector(), f1_lambda1]
        omega = LinMap.from_images(QQ, images, 3, 3)
        assert classify_linear("sigma_commuting", t, omega, f1_blocks.source).holds
        res = properness(f1, omega, f1_blocks)
        assert res.proper

    def test_verdict_agreement_on_solved_spaces(self, f1, f1_blocks, f1_commuting_space,
                                                f4, f4_blocks, f4_commuting_space):
        for tri, blocks, space in ((f1, f1_blocks, f1_commuting_space),
                                   (f4, f4_blocks, f4_commuting_space)):
            for theta in space.basis_maps():
                res = properness(tri, theta, blocks)
                assert len(set(res.verdicts.values())) == 1
                assert res.proper  # both instances satisfy the sufficiency conditions


class TestCaractcomm:
    def test_f1_single_element_recovery(self, f1, f1_blocks):
        rep = properness_sufficiency(f1, f1_blocks)
        assert rep.all_pass()
        assert rep.witnesses and "m0" in rep.witnesses[0]

    def test_scalar_corner_needs_center_branch(self, f1, f1_blocks):
        rep = properness_sufficiency(f1, f1_blocks)
        sides = {h.name: h.evidence for h in rep.hypotheses}
        assert "[B,B] = B: False" in sides["A_side"]

    def test_full_pass_forces_all_proper(self, f4, f4_blocks, f4_commuting_space):
        rep = properness_sufficiency(f4, f4_blocks)
        if rep.all_pass():
            for theta in f4_commuting_space.basis_maps():
                assert properness(f4, theta, f4_blocks).proper


class TestEndoBlocks:
    def test_identity_on_ut3_shape(self, f3):
        eb, report = endo_blocks(f3, LinMap.identity(QQ, 6))
        assert eb.chi1.is_identity() and eb.gamma1.is_identity() and eb.h.is_identity()
        for name in ("chi2", "chi3", "gamma2", "gamma3"):
            assert getattr(eb, name).is_zero()
        assert report.verdict == "corner-preserving blocks verified"

    def test_corner_negation_blocks(self, f1, f1_sigma1):
        eb, _ = endo_blocks(f1, f1_sigma1)
        assert eb.chi1.is_identity() and eb.gamma1.is_identity()
        assert eb.h.rows == ((QQ.coerce(-1),),)

    def test_composite_with_unipotent(self, f1, f1_sigma1, phi_m):
        composite = phi_m.compose(f1_sigma1)
        eb, report = endo_blocks(f1, composite)
        assert not eb.chi2.is_zero()  # the unipotent part shows up in A -> M
        assert report.verdict == "corner-preserving blocks verified"
        w = partible_witness(f1, composite)
        eb2, _ = endo_blocks(f1, w.sigma_bar)
        assert eb2.chi2.is_zero()

    def test_anti_partible_shape_on_diagonal_algebra(self):
        tri = diagonal_triangular()
        eb, report = endo_blocks(tri, swap_map(tri))
        assert eb.chi1.is_zero() and eb.gamma1.is_zero() and eb.h.is_zero()
        assert report.verdict == "anti-partible"


def _endo_collection():
    """At least ten corner-preserving endomorphisms across instances."""
    out = []
    f1 = fixture_f1()
    s1 = sigma1(f1)
    out.append((f1, LinMap.identity(QQ, 3)))
    out.append((f1, s1))
    out.append((f1, phi_one_plus_m(f1)))
    out.append((f1, phi_one_plus_m(f1).compose(s1)))
    # projection killing the corner: a + m + b -> a + b
    t = f1.total
    proj = LinMap.from_images(QQ, [t.basis_vector(0), t.zero_vector(), t.basis_vector(2)], 3, 3)
    out.append((f1, proj))
    f3 = fixture_f3()
    out.append((f3, LinMap.identity(QQ, 6)))
    out.append((f3, sigma1(f3)))
    out.append((f3, phi_one_plus_m(f3)))
    diag = diagonal_triangular()
    out.append((diag, swap_map(diag)))
    out.append((diag, collapse_map(diag)))
    # componentwise truncation on Trian(k[e], k[e], k[e])
    dual = truncated_polynomial_algebra(QQ, 2)
    tri_dual = build_triangular(dual, regular_bimodule(dual), truncated_polynomial_algebra(QQ, 2))
    zero, one = QQ.zero, QQ.one
    proj_dual = []
    for j in range(6):
        v = [zero] * 6
        v[j - j % 2] = one if j % 2 == 0 else zero
        proj_dual.append(v)
    out.append((tri_dual, LinMap.from_images(QQ, proj_dual, 6, 6)))
    return out


class TestMonoEpi:
    def test_collection_consistency(self):
        cases = _endo_collection()
        assert len(cases) >= 10
        saw_mono_fail = saw_epi_fail = False
        for tri, phi in cases:
            verdict = classify_linear("endomorphism", tri.total, phi)
            assert verdict.holds, "collection must contain endomorphisms only"
            eb, _ = endo_blocks(tri, phi)
            rep = endo_mono_epi(tri, eb, phi)
            assert rep.consistent
            assert rep.mono == rep.injective
            assert rep.epi == rep.surjective
            saw_mono_fail = saw_mono_fail or not rep.mono
            saw_epi_fail = saw_epi_fail or not rep.epi
        assert saw_mono_fail and saw_epi_fail

    def test_identity_is_both(self, f3):
        eb, _ = endo_blocks(f3, LinMap.identity(QQ, 6))
        rep = endo_mono_epi(f3, eb, LinMap.identity(QQ, 6))
        assert rep.mono and rep.epi and rep.rank == 6

    def test_corner_projection_fails_via_kernel_h(self, f1):
        t = f1.total
        proj = LinMap.from_images(QQ, [t.basis_vector(0), t.zero_vector(), t.basis_vector(2)],
                                  3, 3)
        eb, _ = endo_blocks(f1, proj)
        rep = endo_mono_epi(f1, eb, proj)
        assert not rep.mono_criteria["kernel_h"]
        assert not rep.mono and not rep.epi
        assert rep.rank == 2

    def test_corner_negation_is_bijective(self, f1, f1_sigma1):
        eb, _ = endo_blocks(f1, f1_sigma1)
        rep = endo_mono_epi(f1, eb, f1_sigma1)
        assert rep.mono and rep.epi

    def test_literal_intersection_reading_reported(self, f1):
        eb, _ = endo_blocks(f1, LinMap.identity(QQ, 3))
        rep = endo_mono_epi(f1, eb, LinMap.identity(QQ, 3))
        assert "A_intersection_literal" in rep.epi_criteria
        assert "B_intersection_literal" in rep.epi_criteria


class TestIdealSplit:
    def test_corner_negation_whole_algebra(self, f1, f1_sigma1):
        spl = ideal_split(f1, f1_sigma1)
        assert spl.ideal_i.dim == 3 and spl.ideal_j.dim == 0
        assert spl.tri_j is None
        assert spl.witness_i is not None

    def test_identity_on_ut3_shape(self, f3):
        spl = ideal_split(f3, LinMap.identity(QQ, 6))
        assert spl.ideal_i.dim == 6 and spl.ideal_j.dim == 0

    def test_dead_summand_lands_in_j(self):
        tri, phi = direct_sum_with_dead_summand()
        spl = ideal_split(tri, phi)
        assert spl.ideal_i.dim == 3 and spl.ideal_j.dim == 2
        assert spl.anti_partible_j
        # J is exactly the dead diagonal summand
        t = tri.total
        assert spl.ideal_j.contains_vector(t.basis_vector(1))
        assert spl.ideal_j.contains_vector(t.basis_vector(4))
        # recombination and invariance
        assert spl.ideal_i.sum(spl.ideal_j).dim == 5
        assert spl.ideal_i.intersect(spl.ideal_j).is_zero()
        # the triangular part is the 2x2 upper-triangular algebra again
        assert spl.tri_i is not None and spl.tri_i.dim == 3


def _units(t):
    """Every invertible element of an algebra over F_2, with its inverse."""
    out = []
    for z in itertools.product((0, 1), repeat=t.dim):
        try:
            out.append((z, t.invert(z)))
        except NotInvertible:
            pass
    return out


def _conjugates_into_blocks(tri, sigma, units):
    """Whether some invertible z makes x -> z sigma(x) z^-1 map every basis
    vector of A, M and B into its own block, by trying every z."""
    t = tri.total
    block = {j: rng for rng in (tri.range_a, tri.range_m, tri.range_b) for j in rng}
    images = [sigma.image_of_basis(j) for j in range(tri.dim)]
    return any(all(all(i in block[j] for i, v in enumerate(t.mul_vec(t.mul_vec(z, img), z_inv)) if v)
                   for j, img in enumerate(images))
               for z, z_inv in units)


class TestPartibleWitness:
    @pytest.mark.parametrize("name", [name for name, _ in instance_catalog(GF(2))])
    def test_none_exactly_when_no_conjugate_preserves_blocks_f2(self, name):
        """Over F_2, on a catalog instance (dim <= 6) and every inner
        automorphism sigma of it, partible_witness returns None exactly when no
        invertible z makes conj_z . sigma block-preserving, by enumeration."""
        tri = dict(instance_catalog(GF(2)))[name]()
        assert tri.dim <= 6
        units = _units(tri.total)
        for sigma in {inner_automorphism(tri.total, u) for u, _ in units}:
            w = partible_witness(tri, sigma)
            assert (w is None) == (not _conjugates_into_blocks(tri, sigma, units))

    def test_tensor_flip_is_certified_non_partible_f2(self):
        """The factor flip of UT_2 (x) UT_2 over F_2, and each inner
        automorphism with and without the flip after it: partible_witness
        returns None exactly on those with the flip, and exactly there none of
        the 32 invertible elements among the 512 conjugates into the blocks."""
        tri, flip = ut2_tensor_flip(GF(2))
        units = _units(tri.total)
        assert len(units) == 32
        for u, _ in units:
            inner = inner_automorphism(tri.total, u)
            for sigma, partible in ((inner, True), (inner.compose(flip), False)):
                assert (partible_witness(tri, sigma) is not None) == partible
                assert _conjugates_into_blocks(tri, sigma, units) == partible

    def test_block_preserving_gives_unit(self, f1, f1_sigma1):
        w = partible_witness(f1, f1_sigma1)
        assert w.z == f1.total.unit
        assert w.sigma_bar == f1_sigma1

    def test_unipotent_inner(self, f1, phi_m):
        w = partible_witness(f1, phi_m)
        assert w is not None
        assert w.sigma_bar.is_identity()
        assert w.z == f1.total.add_vec(f1.total.unit, f1.total.basis_vector(1))

    def test_composite(self, f1, f1_sigma1, phi_m):
        w = partible_witness(f1, phi_m.compose(f1_sigma1))
        assert w is not None
        assert w.sigma_bar == f1_sigma1

    def test_f3_family(self, f3):
        from trialg.structure import inner_automorphism

        t = f3.total
        s3 = sigma1(f3)
        for m_coords in ((1, 0), (0, 1), (2, -3)):
            u = t.add_vec(t.unit, f3.embed_m(m_coords))
            phi = inner_automorphism(t, u)
            for sig in (phi, phi.compose(s3)):
                w = partible_witness(f3, sig)
                assert w is not None
                # postcondition re-verified: conj_z . sigma_bar == sigma
                z_inv = t.invert(w.z)
                recomposed = LinMap.from_images(
                    QQ, [t.mul_vec(t.mul_vec(z_inv, w.sigma_bar.image_of_basis(j)), w.z)
                         for j in range(6)], 6, 6)
                assert recomposed == sig
                block_decompose(f3, w.sigma_bar)

    def test_z_transfer_for_twisted_derivations(self, f1, f1_sigma1, phi_m):
        sigma = phi_m.compose(f1_sigma1)
        w = partible_witness(f1, sigma)
        t = f1.total
        z_mul = t.left_mul_mat(w.z)
        space = solve_space("sigma_derivation", f1, sigma)
        assert space.dim > 0
        for d in space.basis_maps():
            shifted = z_mul.compose(d)
            assert classify_linear("sigma_derivation", t, shifted, w.sigma_bar).holds
        # converse: pull a sigma_bar-derivation back
        back_space = solve_space("sigma_derivation", f1, w.sigma_bar)
        z_inv_mul = t.left_mul_mat(t.invert(w.z))
        for d in back_space.basis_maps():
            shifted = z_inv_mul.compose(d)
            assert classify_linear("sigma_derivation", t, shifted, sigma).holds


class TestPartibilitySufficient:
    def test_f1_via_commutativity(self, f1):
        rep = partibility_sufficient(f1)
        assert rep.verdict == "partible"

    def test_f3_via_scalar_corner(self, f3):
        rep = partibility_sufficient(f3)
        assert rep.verdict == "partible"
        assert any("nil-radical certificate applied one-sided" in n for n in rep.notes)

    def test_nonsemiprime_corners_stay_undecided(self):
        field = GF(2)
        a = upper_triangular_algebra(field, 2)
        tri = build_triangular(a, regular_bimodule(a), upper_triangular_algebra(field, 2))
        rep = partibility_sufficient(tri)
        # both corners fail the idempotent condition and the radical test is
        # out of range in characteristic 2, so no certificate applies
        assert rep.verdict == "undecided"
        by_name = {h.name: h.verdict for h in rep.hypotheses}
        assert by_name["condition_I_A"] == "fail"
        assert by_name["nil_radical_A_zero"] == "undecided"

    def test_exhaustive_certificate_over_f5(self):
        field = GF(5)
        a = product_field_algebra(field, 2)
        tri = build_triangular(a, regular_bimodule(a), product_field_algebra(field, 2))
        rep = partibility_sufficient(tri)
        assert rep.verdict == "partible"

    def test_each_fact_computed_once(self, monkeypatch):
        """Condition (I) draws each element of F_p^n once (its verdict and the
        implication chain read one idempotent list), and partibility over Q
        makes one radical per corner, though Condition (I) of the
        noncommutative corner of F3 asks for it too."""
        from trialg import structure
        from trialg.fixtures import fixture_f3

        drawn, enumerate_elements = [], structure._enumerate_elements
        monkeypatch.setattr(structure, "_enumerate_elements",
                            lambda *args: (drawn.append(x) or x for x in enumerate_elements(*args)))
        for field, n in ((GF(2), 2), (GF(3), 3)):
            alg = upper_triangular_algebra(field, n)
            drawn.clear()
            assert structure_checks(alg, "condition_I").verdict == "fails"
            assert len(drawn) == field.characteristic ** alg.dim
        trace_forms, trace_form_rows = [], structure._trace_form_rows
        monkeypatch.setattr(structure, "_trace_form_rows", lambda alg: trace_forms.append(alg) or trace_form_rows(alg))
        f3 = fixture_f3()
        assert partibility_sufficient(f3).verdict == "partible"
        assert trace_forms == [f3.A, f3.B]


class TestCommutingAutomorphism:
    """On the faithful F1, a commuting automorphism is the identity: the
    identity commutes, and the other automorphisms fail at a witness."""

    def test_identity(self, f1):
        assert f1.is_faithful()
        assert classify_linear("commuting", f1.total, LinMap.identity(QQ, 3)).holds

    def test_corner_negation_witness(self, f1, f1_sigma1):
        verdict = classify_linear("commuting", f1.total, f1_sigma1)
        assert not verdict.holds
        assert verdict.witness is not None
        assert verdict.witness.indices == (0, 1)

    def test_unipotent_inner_witness(self, f1, phi_m):
        verdict = classify_linear("commuting", f1.total, phi_m)
        assert not phi_m.is_identity() and not verdict.holds
        assert verdict.witness is not None


class TestLemauxContainments:
    def test_corner_commutator_images_stay_central(self, f1, f1_blocks, f1_commuting_space,
                                                   f4, f4_blocks, f4_commuting_space):
        from trialg.structure import project_subspace

        for tri, blocks, space in ((f1, f1_blocks, f1_commuting_space),
                                   (f4, f4_blocks, f4_commuting_space)):
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


class TestHonestVerdictOnNonExample:
    def test_ut2_fails_the_idempotent_condition(self):
        # the corner idempotent of the upper-triangular 2x2 algebra breaks the
        # symmetry required by the idempotent condition, so no certificate
        rep = structure_checks(upper_triangular_algebra(GF(2), 2), "condition_I")
        assert rep.verdict == "fails"
