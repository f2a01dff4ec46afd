"""Map predicates and the twist rule of the map kinds, the twisted commutator
calculus, twisted centers and block decomposition."""

import random
from fractions import Fraction

import pytest

from trialg.algcore import FinAlgebra, build_triangular, product_rule_failure
from trialg.errors import (
    InputError,
    NotBlockPreserving,
    SigmaMissing,
    SigmaNotAutomorphism,
    TheoremViolation,
)
from trialg.exactla import GF, QQ
from trialg.fixtures import (
    fixture_f1,
    fixture_f2,
    fixture_f3,
    fixture_f4,
    phi_one_plus_m,
    sigma1,
    sigma2,
    upper_triangular_algebra,
)
from trialg.randomgen import random_instances, regular_bimodule
from trialg.sigmamaps import (
    MAP_KINDS,
    BilinMap,
    LinMap,
    classify_bilinear,
    classify_linear,
    require_automorphism,
    sigma_commutator_vec,
)
from trialg.structure import (
    block_decompose,
    block_of,
    from_blocks,
    inner_automorphism,
    sigma_center,
    sigma_center_direct,
)

from test_dense_oracles import (_dense_alpha_beta_failure, _reduce, _reduced, commutator, flatten, smul_vec,
                                unflatten_bilinear, value)


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
        assert lhs == smul_vec(alg, 4, alg.mul_vec(x, x))

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
        assert both_sides == smul_vec(alg, 8, x3)
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
        assert verdict.witness.element == smul_vec(f1.total, -2, f1.total.basis_vector(1))

    @pytest.mark.parametrize("name", ["F1", "F3", "F4"])
    @pytest.mark.parametrize("shape", ["identity", "e0_to_m0"])
    def test_twisted_witness_is_sigma_commutator(self, name, shape):
        # neither map is sigma1-commuting; the witness must be [x, Theta(x)]_sigma itself,
        # at a pair sum for the identity and at the single e_0 for e_0 -> m_0
        from trialg.fixtures import fixture_f4

        tri = {"F1": fixture_f1, "F3": fixture_f3, "F4": fixture_f4}[name]()
        t, sig = tri.total, sigma1(tri)
        if shape == "identity":
            theta = LinMap.identity(t.field, t.dim)
        else:
            images = [t.zero_vector()] * t.dim
            images[0] = t.basis_vector(tri.range_m[0])
            theta = LinMap.from_images(t.field, images, t.dim, t.dim)
        verdict = classify_linear("sigma_commuting", t, theta, sig)
        assert verdict.kind == "sigma_commuting" and not verdict.holds
        i, j = verdict.witness.indices
        x = t.basis_vector(i) if i == j else t.add_vec(t.basis_vector(i), t.basis_vector(j))
        expected = sigma_commutator_vec(t, x, theta.apply(x), sig)
        assert expected != t.zero_vector()
        assert verdict.witness.element == expected

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
                assert sigma_commutator_vec(t, x, y, ident) == commutator(t, x, y)

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
                        sigma_commutator_vec(alg, commutator(alg, x, y), z, sigma),
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
        from trialg.structure import center_T

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
        assert z1 == sigma_center_direct(f1.total, f1_sigma1)
        z3, _ = sigma_center(f3, f3_blocks)
        assert z3 == sigma_center_direct(f3.total, f3_identity)

    def test_oracle_equality_random(self, random_f5_instances):
        for _, tri, sig in random_f5_instances:
            blocks = block_decompose(tri, sig)
            z, _ = sigma_center(tri, blocks)
            assert z == sigma_center_direct(tri.total, sig)

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
        assert f1_blocks.nu.rows == ((QQ.coerce(-1),),)

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


@pytest.mark.parametrize("kind", sorted(MAP_KINDS))
def test_twist_rule(kind, f1, f1_sigma1):
    """The one twist rule, in classify_* and solve_space alike: a sigma-kind
    needs its automorphism, an untwisted kind refuses one; classify_* refuses
    a kind of the other arity."""
    from trialg.spaces import solve_space

    alg, bilinear = f1.total, MAP_KINDS[kind].bilinear
    zeros = (LinMap.zero(QQ, 3), BilinMap.zero(QQ, 3))
    classify = classify_bilinear if bilinear else classify_linear
    calls = (lambda s: classify(kind, alg, zeros[bilinear], s), lambda s: solve_space(kind, f1, s))
    for call in calls:
        if MAP_KINDS[kind].twisted:
            with pytest.raises(SigmaMissing):
                call(None)
        else:
            with pytest.raises(InputError, match="kind %r takes no twist map" % kind):
                call(f1_sigma1)
        assert call(f1_sigma1 if MAP_KINDS[kind].twisted else None)
    wrong = classify_linear if bilinear else classify_bilinear
    with pytest.raises(InputError, match="unknown classification kind %r" % kind):
        wrong(kind, alg, zeros[not bilinear], f1_sigma1)


def _block_instances():
    """(tri, map) pairs: random instances over Q and F_5, each with its twist
    and with a dense random map, and the diagonal Trian(k, 0, k), whose M
    blocks are 0-dimensional, with its swap automorphism."""
    from test_classify import diagonal_triangular, swap_map

    out = []
    for field, seed in ((QQ, 1301), (GF(5), 1302)):
        rng = random.Random(seed)
        for _, tri, sigma in random_instances(field, 5, seed):
            dense = [[field.coerce(rng.randrange(-3, 4)) for _ in range(tri.dim)] for _ in range(tri.dim)]
            out += [(tri, sigma), (tri, LinMap(field, dense))]
    diag = diagonal_triangular()
    return out + [(diag, swap_map(diag))]


class TestBlockMaps:
    CORNERS = ("A", "M", "B")

    @staticmethod
    def _from_images(tri, f, src, dst):
        """The block as the column-by-column extraction it replaces."""
        ranges = {"A": tri.range_a, "M": tri.range_m, "B": tri.range_b}
        part = {"A": tri.part_a, "M": tri.part_m, "B": tri.part_b}[dst]
        return LinMap.from_images(tri.field, [part(f.image_of_basis(j)) for j in ranges[src]],
                                  len(ranges[src]), len(ranges[dst]))

    def test_nine_blocks_reassemble_the_map(self):
        for tri, f in _block_instances():
            blocks = {(src, dst): block_of(tri, f, src, dst) for src in self.CORNERS for dst in self.CORNERS}
            ranges = {"A": tri.range_a, "M": tri.range_m, "B": tri.range_b}
            for (src, dst), block in blocks.items():
                assert block == self._from_images(tri, f, src, dst)
                assert (block.dst_dim, block.src_dim) == (len(ranges[dst]), len(ranges[src]))
                rs, rd = ranges[src], ranges[dst]
                assert block.rows == tuple(row[rs.start:rs.stop] for row in f.rows[rd.start:rd.stop])
            assert from_blocks(tri, blocks) == f

    def test_missing_blocks_are_zero(self, f1, phi_m):
        diagonal = from_blocks(f1, {(c, c): block_of(f1, phi_m, c, c) for c in self.CORNERS})
        assert block_of(f1, diagonal, "A", "M").is_zero()
        assert from_blocks(f1, {}) == LinMap.zero(QQ, f1.dim)
        assert not block_of(f1, phi_m, "A", "M").is_zero()


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

    @pytest.mark.parametrize("command", ["commuting-blocks", "properness"])
    def test_block_commands_check_total_and_corners_once(self, tmp_path, command,
                                                          count_aut_checks):
        # block_decompose, AutBlocks.verify and the later sigma-predicates share one memo:
        # one full check each on the total algebra, A and B
        import contextlib
        import io as stdio

        from trialg.cli import main

        with contextlib.redirect_stdout(stdio.StringIO()), \
                contextlib.redirect_stderr(stdio.StringIO()):
            assert main(["fixtures", "emit", "F1", str(tmp_path)]) == 0
            assert main([command, str(tmp_path / "T.json"), "--sigma", str(tmp_path / "sigma1.json"),
                         "--map", str(tmp_path / "theta1.json")]) == 0
        dims = sorted(alg.dim for alg in count_aut_checks)
        assert dims == [1, 1, 3] and len({id(alg) for alg in count_aut_checks}) == 3

    def test_memo_keeps_each_callers_error(self):
        from trialg.errors import NotAutomorphism, TheoremViolation
        from trialg.structure import AutBlocks

        tri = fixture_f1()
        bad = LinMap.zero(QQ, 3)
        with pytest.raises(NotAutomorphism):
            block_decompose(tri, bad)
        with pytest.raises(SigmaNotAutomorphism):
            require_automorphism(tri.total, bad)
        ident1 = LinMap.identity(QQ, 1)
        zero1 = LinMap.zero(QQ, 1)
        with pytest.raises(TheoremViolation, match="A-block"):
            AutBlocks(tri, zero1, ident1, ident1, bad).verify()
        with pytest.raises(TheoremViolation, match="B-block"):
            AutBlocks(tri, ident1, zero1, ident1, bad).verify()
        # the predicate itself never consults the memo
        good = sigma1(tri)
        block_decompose(tri, good)
        assert classify_linear("automorphism", tri.total, good).holds
        assert not classify_linear("automorphism", tri.total, bad).holds


class TestDerivedStore:
    """Every derived object lives in the store of one instance: the bracket
    map once per algebra, each corner center map once per (corner, twist),
    nothing global, and a make that raises keeps nothing."""

    @staticmethod
    def _builds_per_key(keys):
        counts = {}
        for key in keys:
            counts[key] = counts.get(key, 0) + 1
        return counts

    def test_bracket_map_once_per_algebra_over_a_theorem_pass(self, count_derived_builds):
        from trialg.classify import extremal_split, inner_biderivation_witness
        from trialg.spaces import solve_space

        ut = upper_triangular_algebra(QQ, 3)
        tri = build_triangular(ut, regular_bimodule(ut), upper_triangular_algebra(QQ, 3))
        sigma = sigma1(tri)
        maps = solve_space("sigma_biderivation", tri, sigma).basis_maps()
        assert len(maps) >= 2
        for D in maps:
            inner_biderivation_witness(tri, extremal_split(tri, D, sigma).residual, sigma)
        bracket = self._builds_per_key(map(id, count_derived_builds["bracket"]))
        assert bracket[id(tri.total)] == 1 and set(bracket.values()) == {1}
        center = self._builds_per_key((id(alg), s) for alg, s in count_derived_builds["center"])
        assert center and set(center.values()) == {1}

    def test_inner_witness_command_builds_each_map_once(self, tmp_path, count_derived_builds):
        import contextlib
        import io as stdio

        from trialg.cli import main
        from trialg.io import canonical_json
        from trialg.fixtures import lambda1
        from trialg.classify import inner_sigma_biderivation

        f1 = fixture_f1()
        bid = tmp_path / "delta.json"
        bid.write_text(canonical_json(inner_sigma_biderivation(f1, lambda1(f1), sigma1(f1)).to_json()))
        count_derived_builds["bracket"].clear()
        count_derived_builds["center"].clear()
        args = ["inner-witness", str(tmp_path / "T.json"), "--sigma", str(tmp_path / "sigma1.json"),
                "--bid", str(bid)]
        with contextlib.redirect_stdout(stdio.StringIO()), contextlib.redirect_stderr(stdio.StringIO()):
            assert main(["fixtures", "emit", "F1", str(tmp_path)]) == 0
            assert main(args) == 0
        bracket = self._builds_per_key(map(id, count_derived_builds["bracket"]))
        assert bracket and set(bracket.values()) == {1}
        # the corner center maps of (A, f) and (B, g): one build each, shared by
        # the rows of Z_sigma and the corner twisted centers
        center = count_derived_builds["center"]
        assert sorted(alg.dim for alg, _ in center) == [1, 1] and len({id(alg) for alg, _ in center}) == 2
        # a second command loads its algebras anew and builds its own maps
        with contextlib.redirect_stdout(stdio.StringIO()), contextlib.redirect_stderr(stdio.StringIO()):
            assert main(args) == 0
        assert len(count_derived_builds["bracket"]) == 2 * len(bracket) and len(center) == 4

    def test_equal_algebra_built_separately_builds_its_own(self, count_derived_builds):
        from trialg import io

        obj = io.triangular_to_json(fixture_f1())
        first, second = (io.triangular_from_json(obj) for _ in range(2))
        assert first == second and first is not second
        for tri in (first, first, second):
            blocks = block_decompose(tri, sigma1(tri))
            assert tri.total.bracket_map() is tri.total.bracket_map()
            assert blocks.corner_centers == (sigma_center_direct(tri.A, blocks.f),
                                             sigma_center_direct(tri.B, blocks.g))
        assert list(map(id, count_derived_builds["bracket"])) == [id(first.total), id(second.total)]
        assert [id(alg) for alg, _ in count_derived_builds["center"]] == \
            [id(first.A), id(first.B), id(second.A), id(second.B)]

    def test_block_decompose_checks_a_refused_map_again(self, count_aut_checks, monkeypatch):
        import trialg.structure as st
        from trialg.exactla import derived

        tri = fixture_f1()
        conj = phi_one_plus_m(tri)
        verdicts = []
        orig = st.automorphism_verdict

        def counting(alg, f):
            verdicts.append(f)
            return orig(alg, f)

        monkeypatch.setattr(st, "automorphism_verdict", counting)
        for _ in range(2):
            with pytest.raises(NotBlockPreserving):
                block_decompose(tri, conj)
        # the block check ran twice; the automorphism it starts from passed
        # once and was kept, the refused blocks were not
        assert verdicts == [conj, conj] and len(count_aut_checks) == 1
        assert derived(tri, ("blocks", conj)) is None
        assert derived(tri.total, ("automorphism", conj)).holds

    def test_require_automorphism_checks_a_non_automorphism_again(self, count_aut_checks):
        from trialg.exactla import derived

        t = fixture_f1().total
        bad = LinMap.zero(QQ, 3)
        for n in (1, 2):
            with pytest.raises(SigmaNotAutomorphism):
                require_automorphism(t, bad)
            assert len(count_aut_checks) == n
        assert derived(t, ("automorphism", bad)) is None


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
    """The reduction of a pair of twists (alpha, beta) to sigma = alpha^{-1} beta
    (test_dense_oracles._reduce) on the paper's fixtures: the (alpha, beta)
    identity, evaluated densely, holds on the input, and classify_* accepts
    the reduced map at sigma."""

    @staticmethod
    def _check(kind, alg, obj, alpha, beta):
        reduced, sigma = _reduce(alg, obj, alpha, beta)
        assert _dense_alpha_beta_failure(kind, alg, obj, alpha, beta) is None
        classify = classify_bilinear if isinstance(obj, BilinMap) else classify_linear
        assert classify(kind, alg, reduced, sigma).holds
        assert _reduced(kind, alg, obj, alpha, beta).holds
        return reduced, sigma

    def test_identity_alpha_is_noop(self, f2_pair):
        alg, sig = f2_pair
        d = LinMap.identity(QQ, 4) - sig
        reduced, sigma = self._check("sigma_derivation", alg, d, LinMap.identity(QQ, 4), sig)
        assert reduced == d
        assert sigma == sig

    def test_equal_twists_collapse_to_identity(self, f1, f1_sigma1):
        from trialg.spaces import solve_space

        d0 = solve_space("derivation", f1).basis_maps()[0]
        pushed = f1_sigma1.compose(d0)
        reduced, sigma = self._check("sigma_derivation", f1.total, pushed, f1_sigma1, f1_sigma1)
        assert sigma.is_identity()
        assert reduced == d0

    def test_bilinear_pushforward(self, f1, f1_sigma1, f1_lambda1):
        from trialg.classify import inner_sigma_biderivation

        D = inner_sigma_biderivation(f1, f1_lambda1, f1_sigma1)
        # push through alpha: alpha . D is an (alpha, alpha sigma)-biderivation
        alpha = f1_sigma1
        pushed = BilinMap(QQ, [[alpha.apply(value(D, i, j)) for j in range(3)] for i in range(3)])
        reduced, _ = self._check("sigma_biderivation", f1.total, pushed, alpha, alpha.compose(f1_sigma1))
        assert reduced == D

    def test_commuting_variant(self, f1, f1_sigma1, f1_theta1):
        pushed = f1_sigma1.compose(f1_theta1)
        reduced, _ = self._check("sigma_commuting", f1.total, pushed, f1_sigma1, f1_sigma1.compose(f1_sigma1))
        assert reduced == f1_theta1


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


def _commutes_everywhere(alg, theta, sigma) -> bool:
    """sigma(x) Theta(x) = Theta(x) x at every element x of an algebra over F_p."""
    import itertools

    field = alg.field
    zero = alg.zero_vector()
    for x in itertools.product(range(field.characteristic), repeat=alg.dim):
        x = alg.coerce_vector(x)
        tx = theta.apply(x)
        if alg.sub_vec(alg.mul_vec(sigma.apply(x), tx), alg.mul_vec(tx, x)) != zero:
            return False
    return True


class TestCommutingOracle:
    """The singles-and-pairs commuting verdict against every element, over
    GF(2) and GF(3): on F1, F3 and every catalog instance (dim <= 6), for the
    solved sigma-commuting basis maps and one seeded perturbation of each."""

    @pytest.mark.parametrize("p", [2, 3])
    def test_verdict_matches_every_element(self, p):
        import random

        from trialg.randomgen import instance_catalog, random_block_preserving_sigma
        from trialg.spaces import solve_space

        field = GF(p)
        instances = [("F1", lambda: fixture_f1(field)), ("F3", lambda: fixture_f3(field))]
        rng = random.Random(7000 + p)
        outcomes = set()
        for name, make in instances + instance_catalog(field):
            tri = make()
            alg = tri.total
            sigma = random_block_preserving_sigma(tri, rng)
            maps = []
            for theta in solve_space("sigma_commuting", tri, sigma).basis_maps():
                rows = [list(r) for r in theta.rows]
                k, j = rng.randrange(alg.dim), rng.randrange(alg.dim)
                rows[k][j] = field.add(rows[k][j], field.one)
                maps += [theta, LinMap(field, rows, alg.dim, alg.dim)]
            for theta in maps:
                holds = classify_linear("sigma_commuting", alg, theta, sigma).holds
                assert holds == _commutes_everywhere(alg, theta, sigma), (name, theta.rows)
                outcomes.add(holds)
        assert outcomes == {True, False}


def _per_slot_failure(alg, D, alpha, beta):
    """The least ((i, j, k, slot), residual) over the 2n slot maps D(., e_k)
    and D(e_k, .), each checked as a separate map, or None."""
    n = alg.dim
    failures = []
    for k in range(n):
        for slot, images in enumerate(([value(D, l, k) for l in range(n)], [value(D, k, l) for l in range(n)])):
            d = LinMap.from_images(alg.field, images, n, n)
            bad = product_rule_failure(alg._pairs, d, ((beta, d, alg._pairs), (d, alpha, alg._pairs)))
            if bad:
                failures.append((bad[0] + (k, slot), bad[1]))
    return min(failures) if failures else None


class TestBiderivationWitnessOracle:
    """Checking all slot maps of a biderivation at once, as maps into n copies
    of the algebra, gives the verdict and first witness that checking each
    slot map on its own gives, on solved and perturbed tensors.  The twists
    (alpha, beta) = (1, sigma) and (sigma, sigma) are decided through the
    reduction to the one twist alpha^{-1} beta (test_dense_oracles._reduced)."""

    @pytest.mark.parametrize("field", [QQ, GF(5), GF(2)], ids=["Q", "F5", "F2"])
    def test_matches_per_slot_checks(self, field):
        from trialg.spaces import solve_space

        rng = random.Random(7400 + field.characteristic)
        values = ([Fraction(v) for v in (1, -1, 2)] + [Fraction(1, 2), Fraction(-2, 3)]
                  if field is QQ else list(range(1, field.characteristic)))
        cases = [fixture_f2(field)]
        for make in (fixture_f1, fixture_f3) if field is QQ else (fixture_f1,):
            tri = make(field)
            cases.append((tri.total, sigma1(tri)))
        if field == GF(5):
            tri = fixture_f4()
            cases.append((tri.total, sigma1(tri)))
        ut2 = upper_triangular_algebra(field, 2)
        tri = build_triangular(ut2, regular_bimodule(ut2), upper_triangular_algebra(field, 2))
        cases.append((tri.total, sigma1(tri)))
        outcomes = set()
        for alg, sigma in cases:
            n = alg.dim
            ident = LinMap.identity(field, n)
            space = solve_space("sigma_biderivation", alg, sigma, verify=False)
            for D in space.basis_maps()[:2]:
                for _ in range(6):
                    flat = list(flatten(D))
                    for _ in range(rng.randint(0, 2)):
                        flat[rng.randrange(n ** 3)] = rng.choice(values)
                    E = unflatten_bilinear(field, flat, n)
                    for alpha in (ident, sigma):
                        v = _reduced("sigma_biderivation", alg, E, alpha, sigma)
                        ref = _per_slot_failure(alg, E, alpha, sigma)
                        assert v.holds == (ref is None)
                        if ref is not None:
                            (i, j, k, slot), element = ref
                            assert v.witness.indices == ((i, j, k) if slot == 0 else (k, i, j))
                            assert v.witness.element == element
                            assert v.witness.description.startswith(("first", "second")[slot])
                            outcomes.add(slot)
                        else:
                            outcomes.add(None)
        assert outcomes == {None, 0, 1}


class TestUnitSanityCheck:
    """classify_bilinear's sanity check, that a biderivation vanishes on the
    unit in each slot, at sigma and at sigma = 1 alike, fires exactly when
    D(e_i, 1) or D(1, e_i) is nonzero for some i.  The slot checks (_derivation_type_failure) are forced
    to pass so that random tensors reach the check."""

    @pytest.mark.parametrize("field", [QQ, GF(5)], ids=["Q", "F5"])
    def test_fires_exactly_off_the_unit_kernel(self, field, monkeypatch):
        import trialg.sigmamaps as sm

        monkeypatch.setattr(sm, "_derivation_type_failure", lambda *args: None)
        rng = random.Random(7500 + field.characteristic)
        values = [1, -1, 2, Fraction(1, 2)] if field is QQ else [1, 2, 3, 4]
        ut2 = upper_triangular_algebra(field, 2)
        cases = [(tri.total, sigma1(tri)) for tri in
                 (fixture_f1(field), build_triangular(ut2, regular_bimodule(ut2),
                                                      upper_triangular_algebra(field, 2)))]
        outcomes = set()
        for alg, sigma in cases:
            n, zero = alg.dim, alg.zero_vector()
            for _ in range(30):
                flat = [field.zero] * n ** 3
                for _ in range(rng.randint(1, 2)):
                    flat[rng.randrange(n ** 3)] = field.coerce(rng.choice(values))
                D = unflatten_bilinear(field, flat, n)
                kills = all(D.apply(alg.basis_vector(i), alg.unit) == zero and
                            D.apply(alg.unit, alg.basis_vector(i)) == zero for i in range(n))
                for kind, twist in (("sigma_biderivation", sigma), ("biderivation", None)):
                    if kills:
                        assert classify_bilinear(kind, alg, D, twist).holds
                    else:
                        with pytest.raises(TheoremViolation, match="unit"):
                            classify_bilinear(kind, alg, D, twist)
                outcomes.add(kills)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("field", [QQ, GF(5)], ids=["Q", "F5"])
    def test_fires_on_one_slot_alone(self, field, monkeypatch):
        """On K x K with e_0 e_0 = 2 e_0 and e_1 e_1 = 3 e_1, whose unit is
        (1/2, 1/3), D(e_0, e_0) = e_0 and D(e_0, e_1) = -(3/2) e_0 give
        D(e_i, 1) = 0 for both i but D(1, e_0) = e_0 / 2; its transpose fails
        in the other slot.  Both must still be refused once the slot
        checks pass them."""
        import trialg.sigmamaps as sm

        monkeypatch.setattr(sm, "_derivation_type_failure", lambda *args: None)
        inv = lambda x: field.inv(field.coerce(x))
        alg = FinAlgebra(field, [[[2, 0], [0, 0]], [[0, 0], [0, 3]]], [inv(2), inv(3)])
        c = field.mul(field.coerce(-3), inv(2))
        second_only = BilinMap(field, [[[1, 0], [c, 0]], [[0, 0], [0, 0]]])
        first_only = BilinMap(field, [[[1, 0], [0, 0]], [[c, 0], [0, 0]]])
        ident = LinMap.identity(field, 2)
        for D in (second_only, first_only):
            with pytest.raises(TheoremViolation, match="unit"):
                classify_bilinear("sigma_biderivation", alg, D, ident)
        assert classify_bilinear("sigma_biderivation", alg, BilinMap.zero(field, 2), ident).holds
