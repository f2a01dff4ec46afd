"""Algebras, bimodules, the triangular construction, centers, annihilators,
radicals, and idempotent structure checks."""

import itertools
import random
from fractions import Fraction

import pytest

from trialg.algcore import (
    Bimodule,
    FinAlgebra,
    SparseTable,
    build_triangular,
    product_rule_failure,
    quadratic_failure,
    twisted_ad,
)
from trialg.classify import inner_sigma_derivation
from trialg.errors import (
    CharTooSmall,
    DimMismatch,
    NonAssociative,
    NotFaithful,
    UnitLawViolation,
    ZeroModule,
)
from trialg.exactla import GF, QQ, Subspace, integer_form
from trialg.fixtures import (
    fixture_f1,
    fixture_f3,
    product_field_algebra,
    scalar_algebra,
    truncated_polynomial_algebra,
    upper_triangular_algebra,
)
from trialg.sigmamaps import LinMap, derivation_terms
from trialg.structure import (
    annihilators,
    center_direct,
    center_T,
    condition_I,
    faithful_quotient,
    inner_automorphism,
    is_nilpotent_subspace,
    nil_radical_T,
    nilpotency,
    radical,
    subspace_product,
    tau_iso,
)

from test_dense_oracles import right_mul_mat

F2 = GF(2)
F5 = GF(5)


def dead_factor_triangular(field=QQ):
    """Trian(k x k, k, k) with the first factor acting as zero."""
    kk = product_field_algebra(field, 2)
    zero, one = field.zero, field.one
    m = Bimodule(field, 2, 1, 1, [[[zero]], [[one]]], [[[one]]], ["m"])
    return build_triangular(kk, m, scalar_algebra(field))


class TestValidateAlgebra:
    def test_one_dimensional(self):
        alg = FinAlgebra(QQ, [[[1]]], [1])
        assert alg.dim == 1

    def test_dual_numbers(self):
        # e2 e2 = 0, e1 the unit
        mul = [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]
        alg = FinAlgebra(QQ, mul, [1, 0])
        assert alg.mul_vec((0, 1), (0, 1)) == (0, 0)

    def test_unit_law_violation(self):
        # e1 e2 = e2 but e2 e1 = 0 while claiming e1 is the unit
        mul = [[[1, 0], [0, 1]], [[0, 0], [0, 0]]]
        with pytest.raises(UnitLawViolation) as err:
            FinAlgebra(QQ, mul, [1, 0])
        assert err.value.index == 1

    def test_non_associative(self):
        # a a = b, a b = a gives (a a) a = 0 but a (a a) = a
        mul = [
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            [[0, 1, 0], [0, 0, 1], [0, 1, 0]],
            [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
        ]
        with pytest.raises(NonAssociative) as err:
            FinAlgebra(QQ, mul, [1, 0, 0])
        assert err.value.triple == (1, 1, 1)


def _dense_validation_failure(field, mul, unit):
    """What FinAlgebra must report, by plain dense evaluation: ("unit",
    the least i with 1 e_i != e_i or e_i 1 != e_i), else ("assoc", the least
    (i, j, k) with (e_i e_j) e_k != e_i (e_j e_k)), else None."""
    n = len(mul)

    def prod(x, y):
        out = [field.zero] * n
        for i, xi in enumerate(x):
            for j, yj in enumerate(y):
                for k in range(n):
                    out[k] = field.add(out[k], field.mul(field.mul(xi, yj), mul[i][j][k]))
        return tuple(out)

    e = [tuple(field.one if k == i else field.zero for k in range(n)) for i in range(n)]
    for i in range(n):
        if prod(unit, e[i]) != e[i] or prod(e[i], unit) != e[i]:
            return "unit", i
    for i, j, k in itertools.product(range(n), repeat=3):
        if prod(prod(e[i], e[j]), e[k]) != prod(e[i], prod(e[j], e[k])):
            return "assoc", (i, j, k)
    return None


class TestValidationOracle:
    """The unit laws and associativity, checked on the integer table, report
    the failure a dense evaluation finds first, on perturbed tables and units
    with rational entries over Q and residues over F_5 and F_2."""

    @pytest.mark.parametrize("field", [QQ, GF(5), GF(2)], ids=["Q", "F5", "F2"])
    def test_matches_dense_evaluation(self, field):
        rng = random.Random(7300 + field.characteristic)
        values = ([Fraction(v) for v in (0, 1, -1, 2)] + [Fraction(1, 2), Fraction(-2, 3)]
                  if field is QQ else list(range(field.characteristic)))
        bases = [upper_triangular_algebra(field, 2), fixture_f1(field).total,
                 truncated_polynomial_algebra(field, 3), product_field_algebra(field)]
        seen = set()
        for _ in range(60):
            alg = rng.choice(bases)
            basis = [alg.basis_vector(i) for i in range(alg.dim)]
            mul = [[list(alg.mul_vec(x, y)) for y in basis] for x in basis]
            unit = list(alg.unit)
            for _ in range(rng.randint(1, 2)):
                if rng.random() < 0.2:
                    unit[rng.randrange(alg.dim)] = rng.choice(values)
                else:
                    i, j, k = (rng.randrange(alg.dim) for _ in range(3))
                    mul[i][j][k] = rng.choice(values)
            expected = _dense_validation_failure(field, mul, unit)
            try:
                FinAlgebra(field, mul, unit)
                got = None
            except UnitLawViolation as exc:
                got = "unit", exc.index
            except NonAssociative as exc:
                got = "assoc", exc.triple
            assert got == expected
            seen.add(got and got[0])
        assert seen == {None, "unit", "assoc"}


class TestBuildTriangular:
    def test_f1_is_upper_triangular_2x2(self, f1):
        t = f1.total
        p, m, q = (t.basis_vector(i) for i in range(3))
        assert t.mul_vec(p, m) == m
        assert t.mul_vec(m, q) == m
        assert t.mul_vec(m, p) == t.zero_vector()
        assert t.mul_vec(q, m) == t.zero_vector()
        assert t.mul_vec(m, m) == t.zero_vector()
        assert t.mul_vec(p, p) == p and t.mul_vec(q, q) == q

    def test_f3_matches_ut3_structure_constants(self, f3):
        # oracle: UT3 on matrix units, reordered to (E11, E12, E22 | E13, E23 | E33)
        ut3 = upper_triangular_algebra(QQ, 3)
        # ut3 order: E11 E12 E13 E22 E23 E33 -> f3 order: E11 E12 E22 E13 E23 E33
        perm = [0, 1, 3, 2, 4, 5]  # f3 index -> ut3 index
        inv = {u: f for f, u in enumerate(perm)}
        e, t = ut3.basis_vector, f3.total
        for i in range(6):
            for j in range(6):
                via_ut3 = ut3.mul_vec(e(perm[i]), e(perm[j]))
                reordered = tuple(via_ut3[perm[k]] for k in range(6))
                assert t.mul_vec(t.basis_vector(i), t.basis_vector(j)) == reordered, (i, j, inv)

    def test_dim_mismatch(self):
        a = scalar_algebra(QQ)
        bad = Bimodule(QQ, 2, 1, 1, [[[QQ.one]], [[QQ.one]]], [[[QQ.one]]])
        with pytest.raises(DimMismatch):
            build_triangular(a, bad, scalar_algebra(QQ))

    def test_bimodule_basis_names_match_dim_m(self):
        with pytest.raises(DimMismatch):
            Bimodule(QQ, 1, 1, 1, [[[1]]], [[[1]]], ["a", "b"])
        one = SparseTable([(((0, QQ.one),),)])
        assert Bimodule._trusted(QQ, 1, 1, 1, one, one, ["m"]).basis_names == ("m",)
        with pytest.raises(DimMismatch):
            Bimodule._trusted(QQ, 1, 1, 1, one, one, ["a", "b"])

    def test_zero_module_needs_flag(self):
        a = scalar_algebra(QQ)
        zero_m = Bimodule(QQ, 1, 0, 1, [[]], [])
        with pytest.raises(ZeroModule):
            build_triangular(a, zero_m, scalar_algebra(QQ))
        diag = build_triangular(a, zero_m, scalar_algebra(QQ), allow_zero_m=True)
        assert diag.dim == 2


class TestCenter:
    def test_f1_center_is_scalars(self, f1):
        z = center_T(f1)
        assert z.dim == 1
        assert z.contains_vector(f1.total.unit)
        assert z == center_direct(f1.total)

    def test_f3_center_is_scalars(self, f3):
        z = center_T(f3)
        assert z.dim == 1
        assert z == center_direct(f3.total)

    def test_regular_self_module_center(self):
        # Trian(A, A, A) for commutative A: the center is the diagonal copy of A
        from trialg.randomgen import regular_bimodule

        a = product_field_algebra(QQ, 2)
        tri = build_triangular(a, regular_bimodule(a), product_field_algebra(QQ, 2))
        z = center_T(tri)
        assert z.dim == 2
        assert z == center_direct(tri.total)
        for v in z.basis:
            assert tri.part_a(v) == tri.part_b(v)

    def test_center_oracle_on_mixed_random_instances(self, random_f5_mixed):
        for _, tri, _ in random_f5_mixed:
            assert center_T(tri) == center_direct(tri.total)

    def test_twisted_ad_matches_dense_products(self, random_f5_mixed):
        """Column i of twisted_ad(alg, sigma, x) is (L_{sigma(e_i)} - R_{e_i}) x,
        at every basis vector x, the unit and an element with full support."""
        from trialg.fixtures import sigma1
        from trialg.randomgen import random_instances

        cases = [(tri, sigma1(tri)) for tri in (fixture_f1(), fixture_f3())]
        cases += [(tri, sigma) for _, tri, sigma in random_instances(QQ, 6, 9200) + random_f5_mixed]
        for tri, sigma in cases:
            alg = tri.total
            n = alg.dim
            dense = [alg.left_mul_mat(sigma.image_of_basis(i)) - right_mul_mat(alg, alg.basis_vector(i))
                     for i in range(n)]
            xs = [alg.basis_vector(j) for j in range(n)] + [alg.unit, tuple(range(1, n + 1))]
            for x in xs:
                x = alg.coerce_vector(x)
                assert twisted_ad(alg, sigma, x) == LinMap.from_images(alg.field, [d.apply(x) for d in dense], n, n)


    def test_twisted_ad_rejects_wrong_shapes(self, f1):
        """A twist that is not a map of the algebra to itself, or an element
        of another length, is an input error, not a wrong map."""
        alg = f1.total
        for sigma in (LinMap.identity(QQ, 2), LinMap.identity(QQ, 4), LinMap(QQ, [[0] * 3] * 2), LinMap(QQ, [[0] * 2] * 3)):
            with pytest.raises(DimMismatch):
                twisted_ad(alg, sigma, alg.unit)
        for x in ((1, 0), (1, 0, 0, 0)):
            with pytest.raises(DimMismatch):
                twisted_ad(alg, alg.identity_map(), x)


class TestAnnihilators:
    def test_f1_faithful_annihilators(self, f1):
        ann = annihilators(f1)
        assert ann.L.is_zero() and ann.R.is_zero()
        t = f1.total
        assert ann.lann_t == Subspace.from_vectors(QQ, 3, [t.basis_vector(1), t.basis_vector(2)])
        assert ann.rann_t == Subspace.from_vectors(QQ, 3, [t.basis_vector(0), t.basis_vector(1)])

    def test_dead_factor_left_annihilator(self):
        tri = dead_factor_triangular()
        ann = annihilators(tri)
        assert ann.L == Subspace.from_vectors(QQ, 2, [[1, 0]])
        assert not ann.left_faithful and ann.right_faithful

    def test_f3_faithful(self, f3):
        ann = annihilators(f3)
        assert ann.L.is_zero() and ann.R.is_zero()


class TestTau:
    def test_f1_tau_identity(self, f1):
        tau = tau_iso(f1)
        assert tau.matrix.rows == ((QQ.one,),)

    def test_f3_tau_scalar_slice(self, f3):
        tau = tau_iso(f3)
        # pi_A(Z) is the scalar slice of UT2; tau sends 1_A to 1_B
        assert tau.domain.dim == 1 and tau.codomain.dim == 1
        assert tau.apply_ambient(f3.A.unit) == f3.B.unit

    def test_not_faithful_rejected(self):
        with pytest.raises(NotFaithful):
            tau_iso(dead_factor_triangular())


class TestFaithfulQuotient:
    def test_already_faithful_unchanged(self, f1):
        out = faithful_quotient(f1)
        assert out.total == f1.total

    def test_dead_factor_collapses_to_f1(self):
        tri = dead_factor_triangular()
        out = faithful_quotient(tri)
        f1 = fixture_f1()
        assert out.dim == 3
        assert out.total == f1.total
        assert out.is_faithful()

    def test_output_always_faithful(self, random_f5_mixed):
        for _, tri, _ in random_f5_mixed[:6]:
            out = faithful_quotient(tri)
            if out.M.dim_m:
                assert out.is_faithful()


class TestNilpotency:
    """Nilpotency in the total algebra, which holds for a + m + b exactly
    when it holds for a and for b."""

    def test_corner_element(self, f1):
        res = nilpotency(f1.total, f1.total.basis_vector(1))
        assert res.nilpotent and res.index == 2

    def test_unit_not_nilpotent(self, f1):
        assert not nilpotency(f1.total, f1.total.unit).nilpotent
        assert not nilpotency(f1.A, f1.part_a(f1.total.unit)).nilpotent

    def test_mixed_element_not_nilpotent(self, f1):
        x = f1.total.add_vec(f1.p, f1.total.basis_vector(1))
        assert not nilpotency(f1.total, x).nilpotent
        assert not nilpotency(f1.A, f1.part_a(x)).nilpotent

    def test_corner_criterion_exhaustive_f2_dim6(self):
        tri = fixture_f3(F2)
        t = tri.total
        import itertools

        for combo in itertools.product(range(2), repeat=6):
            res = nilpotency(t, combo)  # raw powers
            parts = (nilpotency(tri.A, tri.part_a(combo)).nilpotent
                     and nilpotency(tri.B, tri.part_b(combo)).nilpotent)
            assert res.nilpotent == parts


class TestRadical:
    def test_ut2(self):
        rad = radical(upper_triangular_algebra(QQ, 2))
        assert rad == Subspace.from_vectors(QQ, 3, [[0, 1, 0]])

    def test_semisimple_product(self):
        assert radical(product_field_algebra(QQ, 2)).is_zero()

    def test_truncated_polynomials(self):
        alg = truncated_polynomial_algebra(QQ, 4)
        rad = radical(alg)
        assert rad == Subspace.from_vectors(QQ, 4, [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        # oracle: the returned space is a nil ideal (each power eventually 0)
        power = rad
        for _ in range(5):
            power = subspace_product(alg, power, rad)
        assert power.is_zero()

    def test_quotient_has_zero_radical(self):
        from trialg.structure import quotient_algebra

        alg = truncated_polynomial_algebra(QQ, 4)
        quo, _ = quotient_algebra(alg, radical(alg))
        assert radical(quo).is_zero()

    def test_char_too_small(self):
        with pytest.raises(CharTooSmall):
            radical(upper_triangular_algebra(GF(2), 2))


class TestNilRadical:
    def test_f1_nil_radical_is_corner(self, f1):
        rad = nil_radical_T(f1)
        assert rad == f1.subspace_m()

    def test_f3_strict_upper_triangle(self, f3):
        rad = nil_radical_T(f3)
        assert rad.dim == 3
        t = f3.total
        expected = Subspace.from_vectors(QQ, 6, [t.basis_vector(1), t.basis_vector(3),
                                                 t.basis_vector(4)])
        assert rad == expected

    def test_all_nilpotents_live_in_corner_f2(self):
        # semiprimitive corners force every nilpotent element into M
        tri = fixture_f1(F2)
        import itertools

        corner = tri.subspace_m()
        for combo in itertools.product(range(2), repeat=3):
            if nilpotency(tri.total, combo).nilpotent:
                assert corner.contains_vector(combo)

    def test_nilpotent_subspaces_f1(self):
        """M is a nilpotent subspace of F1; the whole algebra, holding the
        unit, is not."""
        tri = fixture_f1()
        assert is_nilpotent_subspace(tri.total, tri.subspace_m())
        assert not is_nilpotent_subspace(tri.total, Subspace.from_vectors(QQ, 3, [tri.total.basis_vector(i) for i in range(3)]))


class TestStructureChecks:
    def test_commutative_scalar_field(self):
        rep = condition_I(scalar_algebra(QQ))
        assert rep.verdict == "holds" and rep.method == "commutative"

    def test_ut2_f2_exhaustive(self):
        alg = upper_triangular_algebra(F2, 2)
        cond = condition_I(alg)
        assert cond.method == "exhaustive"
        # the corner idempotent E22 kills eA(1-e) but not (1-e)Ae
        assert cond.verdict == "fails"
        assert cond.witness == (0, 0, 1)
        assert cond.implications == {"commutative": False, "central_idempotents": False,
                                     "condition_I": False}

    def test_noncommutative_semisimple_holds_via_radical(self):
        """Over Q, M_2(Q) is not commutative and not enumerable; its zero
        radical decides Condition (I)."""
        units = [(0, 0), (0, 1), (1, 0), (1, 1)]  # E11, E12, E21, E22
        mul = [[[int(a[1] == b[0] and (a[0], b[1]) == c) for c in units] for b in units] for a in units]
        rep = condition_I(FinAlgebra(QQ, mul, [1, 0, 0, 1]))
        assert (rep.verdict, rep.method, rep.witness, rep.implications, rep.notes) == \
            ("holds", "nondegenerate", None, None, [])

    def test_implication_chain_on_commutative_instance(self):
        alg = product_field_algebra(F2, 2)
        rep = condition_I(alg)
        assert rep.verdict == "holds"
        assert rep.implications == {"commutative": True, "central_idempotents": True,
                                    "condition_I": True}


def _draw(field, rng, nonzero):
    """A random scalar: a residue over F_p, over Q a rational of either sign
    with denominator up to 7."""
    if field.characteristic:
        return field.coerce(rng.randrange(1 if nonzero else 0, field.characteristic))
    num = rng.randint(1, 9) * rng.choice((-1, 1)) if nonzero else rng.randint(-9, 9)
    return Fraction(num, rng.randint(1, 7))


def _random_table(field, n, rng, m=None, out=None):
    """Sparse n x m product table into out coordinates (n each by default),
    about a third of the structure constants nonzero."""
    m, out = m or n, out or n
    return SparseTable(tuple(tuple((k, _draw(field, rng, True)) for k in range(out) if rng.random() < 0.3)
                             for _ in range(m)) for _ in range(n))


def _random_mat(field, n, rng, ncols=None):
    ncols = ncols or n
    return LinMap(field, [[_draw(field, rng, False) if rng.random() < 0.5 else field.zero
                        for _ in range(ncols)] for _ in range(n)], ncols)


def _random_quadratic_terms(field, n, rng):
    """One or two random terms (P, Q, table); half the time each is followed by
    its cancelling partner (-Q, P, transposed table), one entry of which is
    then bumped half the time, so that the identity holds, fails at a single
    basis vector and fails at a pair sum only, each with fair frequency."""
    terms = []
    for _ in range(rng.randint(1, 2)):
        p, q, tab = _random_mat(field, n, rng), _random_mat(field, n, rng), _random_table(field, n, rng)
        terms.append((p, q, tab))
        if rng.random() < 0.5:
            neg_q = [[field.neg(v) for v in row] for row in q.rows]
            if rng.random() < 0.5:
                k, j = rng.randrange(n), rng.randrange(n)
                neg_q[k][j] = field.add(neg_q[k][j], field.one)
            terms.append((LinMap(field, neg_q, n), p, tab.transpose()))
    return tuple(terms)


def _quadratic_value(field, terms, x):
    """sum_t P_t(x) *_t Q_t(x), evaluated densely at one element x."""
    out = [field.zero] * len(x)
    for p, q, tab in terms:
        px, qx = p.apply(x), q.apply(x)
        for a, u in enumerate(px):
            for b, w in enumerate(qx):
                for k, c in tab[a][b]:
                    out[k] = field.add(out[k], field.mul(field.mul(u, w), c))
    return out


class TestQuadraticFailureOracle:
    """The singles-and-pairs test of a quadratic identity against every element:
    on random term tuples over GF(2) and GF(3), quadratic_failure is None
    exactly when the identity holds at every x in F_p^n.  Both the commuting
    predicate and commuting condition (v) decide through it."""

    @pytest.mark.parametrize("p", [2, 3])
    def test_none_iff_identity_holds_everywhere(self, p):
        field = GF(p)
        rng = random.Random(9100 + p)
        outcomes = set()
        for _ in range(300):
            n = rng.randint(1, 3)
            terms = _random_quadratic_terms(field, n, rng)
            holds = all(not any(_quadratic_value(field, terms, tuple(map(field.coerce, x))))
                        for x in itertools.product(range(p), repeat=n))
            bad = quadratic_failure(terms, n)
            assert (bad is None) == holds, terms
            outcomes.add("holds" if bad is None else "single" if bad[0][0] == bad[0][1] else "pair")
        assert outcomes == {"holds", "single", "pair"}


def _dense_residual(table, X, terms, i, j, nout):
    """X(e_i * e_j) - sum_t P_t(e_i) *_t Q_t(e_j), evaluated densely in plain
    Fraction arithmetic."""
    out = [Fraction(0)] * nout
    if X is not None:
        for k, c in table[i][j]:
            for l in range(nout):
                out[l] += c * X.rows[l][k]
    for p, q, tab in terms:
        for a in range(p.dst_dim):
            for b in range(q.dst_dim):
                for k, c in tab[a][b]:
                    out[k] -= p.rows[a][i] * q.rows[b][j] * c
    return tuple(out)


def _first_failure(pairs, residual):
    for pair in pairs:
        r = residual(*pair)
        if any(r):
            return pair, r
    return None


def _rebased(alg, P):
    """alg in the basis of P's columns: e_i e_j = sum_k c_ijk e_k with
    c_ij = P^-1 (P e_i)(P e_j)."""
    Pinv = P.inverse()
    n = alg.dim
    mul = [[Pinv.apply(alg.mul_vec(P.image_of_basis(i), P.image_of_basis(j))) for j in range(n)]
           for i in range(n)]
    return FinAlgebra(QQ, mul, Pinv.apply(alg.unit))


class TestRationalEvaluatorOracle:
    """product_rule_failure and quadratic_failure accumulate integers over a
    common denominator L and report acc / L^3; with maps and tables whose
    entries have denominators up to 7 their residuals must equal a plain
    Fraction evaluation, pair by pair."""

    def test_product_rule_residuals(self):
        rng = random.Random(9300)
        held = 0
        for _ in range(200):
            n, m, nout = (rng.randint(1, 3) for _ in range(3))
            table = _random_table(QQ, n, rng, m, nout)
            X = _random_mat(QQ, nout, rng)
            terms = []
            for _ in range(rng.randint(1, 2)):
                na, nb = rng.randint(1, 3), rng.randint(1, 3)
                terms.append((_random_mat(QQ, na, rng, n), _random_mat(QQ, nb, rng, m),
                              _random_table(QQ, na, rng, nb, nout)))
            pairs = list(itertools.product(range(n), range(m)))
            for i, j in pairs:
                r = _dense_residual(table, X, terms, i, j, nout)
                got = product_rule_failure(table, X, terms, [(i, j)])
                assert got == (((i, j), r) if any(r) else None)
                held += not any(r)
            assert product_rule_failure(table, X, terms) == _first_failure(
                pairs, lambda i, j: _dense_residual(table, X, terms, i, j, nout))
        assert held

    def test_quadratic_residuals(self):
        rng = random.Random(9400)
        outcomes = set()
        for _ in range(300):
            n = rng.randint(1, 3)
            terms = _random_quadratic_terms(QQ, n, rng)

            def residual(i, j):  # reported, like every residual, as 0 - sum_t
                x = [QQ.zero] * n
                x[i] = x[j] = QQ.one
                return tuple(-v for v in _quadratic_value(QQ, terms, x))

            pairs = [(i, i) for i in range(n)] + list(itertools.combinations(range(n), 2))
            bad = quadratic_failure(terms, n)
            assert bad == _first_failure(pairs, residual)
            outcomes.add("holds" if bad is None else "single" if bad[0][0] == bad[0][1] else "pair")
        assert outcomes == {"holds", "single", "pair"}

    def test_algebra_and_twist_with_halves(self):
        """UT_2 and F1 rewritten in a basis with entries 1/2, twisted by an
        inner automorphism with entries 1/2: validation and the derivation
        identity hold through the evaluator, and a perturbed map fails with the
        dense residual at every pair."""
        half = Fraction(1, 2)
        for base in (upper_triangular_algebra(QQ, 2), fixture_f1().total):
            n = base.dim
            P = LinMap(QQ, [[1 if i == j else half if j == i + 1 else 0 for j in range(n)]
                         for i in range(n)])
            alg = _rebased(base, P)
            assert integer_form(0, alg._pairs)[0] > 1
            u = [QQ.one] + [half] * (n - 1)
            u = tuple(alg.mul_vec(alg.unit, u))
            sigma = inner_automorphism(alg, u)
            assert any(v.denominator > 1 for row in sigma.rows for v in row)
            d = inner_sigma_derivation(alg, [half] * n, sigma)
            assert product_rule_failure(alg._pairs, d, derivation_terms(alg, d, sigma)) is None
            rows = [list(r) for r in d.rows]
            rows[n - 1][0] += Fraction(1, 3)
            bumped = LinMap(QQ, rows, n)
            terms = derivation_terms(alg, bumped, sigma)
            for i, j in itertools.product(range(n), repeat=2):
                r = _dense_residual(alg._pairs, bumped, terms, i, j, n)
                got = product_rule_failure(alg._pairs, bumped, terms, [(i, j)])
                assert got == (((i, j), r) if any(r) else None)
