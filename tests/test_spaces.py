"""Solution spaces, the inner/extremal constructors, twisted-derivation block
form, and the twisted Posner intersection."""

import random

import pytest

from trialg.algcore import build_triangular, product_rule_failure, product_rule_rows, unit_m
from trialg.classify import (
    _intertwiner_space,
    extremal_sigma_biderivation,
    inner_sigma_biderivation,
    inner_sigma_derivation,
    is_sigma_central,
    posner_intersection,
    sigma_derivation_blocks,
)
from trialg.errors import (
    AmbientMismatch,
    CentralElement,
    CommutativeAlgebra,
    InputError,
    NotInSpan,
    NotSigmaCentral,
    PreconditionFails,
    TheoremViolation,
)
from trialg.exactla import (
    GF,
    QQ,
    IntegerRows,
    Subspace,
    integer_kernel,
    kernel_sparse,
)
from trialg.fixtures import (
    fixture_f1,
    fixture_f2,
    fixture_f3,
    fixture_f4,
    product_field_algebra,
    scalar_algebra,
    sigma1,
    truncated_polynomial_algebra,
    upper_triangular_algebra,
)
from trialg.randomgen import (
    instance_catalog,
    random_block_preserving_sigma,
    random_faithful_instances,
    random_instances,
    regular_bimodule,
)
from trialg.sigmamaps import (
    MAP_KINDS,
    BilinMap,
    LinMap,
    classify_bilinear,
    classify_linear,
    derivation_terms,
    require_automorphism,
    sigma_commutator_vec,
)
from trialg.spaces import (
    _biderivation_rows,
    _commuting_rows,
    _dedup_rows,
    _derivation_rows,
    solve_space,
)
from trialg.structure import block_decompose

from test_dense_oracles import act_left, act_right, commutator, flatten, smul_vec, unflatten_bilinear, value

TWISTED_KINDS = ("sigma_derivation", "sigma_commuting", "sigma_biderivation")


def _unflatten(field, flat, n: int) -> LinMap:
    """The n x n map whose row-major flattening is flat."""
    return LinMap(field, [flat[k * n:(k + 1) * n] for k in range(n)], n, n)


def _kernel_plus_non_solution(field, rows, ncols):
    """kernel_sparse with the first unit vector outside the kernel added."""
    sub = kernel_sparse(field, rows, ncols)
    extra = next(v for v in Subspace.full(field, ncols).basis if not sub.contains_vector(v))
    return sub.sum(Subspace.from_vectors(field, ncols, [extra]))


def _integer_kernel_plus_non_solution(field, pivots, ncols):
    """integer_kernel with the first unit vector outside the kernel added."""
    vecs = integer_kernel(field, pivots, ncols)
    span = Subspace._from_rows(field, ncols, IntegerRows(vecs))
    j = next(j for j, e in enumerate(Subspace.full(field, ncols).basis) if not span.contains_vector(e))
    return vecs + [{j: 1}]


class TestSolveSpace:
    @pytest.mark.parametrize("make", [fixture_f1, fixture_f4], ids=["F1", "F4"])
    def test_map_membership_reads_the_flattening(self, make):
        """MapSpace.contains and coords, read off a map's sparse columns or
        table, agree with the subspace on the dense flatten() for the basis
        maps, their sum, and that sum with each flattened entry bumped in
        turn (the inner biderivations are antisymmetric, so a transposed
        reading shows); a map of the other shape is refused."""
        tri = make()
        field, n = tri.field, tri.dim
        for kind in TWISTED_KINDS:
            space = solve_space(kind, tri, sigma1(tri))
            bilinear = MAP_KINDS[kind].bilinear
            maps = space.basis_maps()
            total = maps[0]
            for m in maps[1:]:
                total = total + m
            flat = flatten(total)
            for i in range(len(flat)):
                bumped = flat[:i] + (field.add(flat[i], field.one),) + flat[i + 1:]
                maps.append(unflatten_bilinear(field, bumped, n) if bilinear
                            else LinMap(field, [bumped[k * n:(k + 1) * n] for k in range(n)]))
            for m in maps + [total]:
                inside = space.subspace.contains_vector(flatten(m))
                assert space.contains(m) == inside
                if inside:
                    assert space.coords(m) == space.subspace.coords(flatten(m))
                else:
                    with pytest.raises(NotInSpan):
                        space.coords(m)
            with pytest.raises(AmbientMismatch):
                space.contains(LinMap.identity(field, n) if bilinear else BilinMap.zero(field, n))

    def test_derivation_space_contains_inner_derivation(self, f1):
        space = solve_space("derivation", f1)
        t = f1.total
        m = t.basis_vector(1)
        ad_m = LinMap.from_images(QQ, [commutator(t, t.basis_vector(j), m) for j in range(3)], 3, 3)
        assert classify_linear("derivation", t, ad_m).holds
        assert space.contains(ad_m)
        space.coords(ad_m)  # representable in the canonical basis

    def test_commuting_space_contains_model_map(self, f1, f1_sigma1, f1_theta1,
                                                f1_lambda1, f1_commuting_space):
        assert f1_commuting_space.contains(f1_theta1)
        t = f1.total
        lam_mul = t.left_mul_mat(f1_lambda1)
        assert f1_commuting_space.contains(lam_mul)

    def test_twisted_biderivation_space_contains_inner_family(self, f1, f1_sigma1,
                                                              f1_blocks, f1_bider_space):
        from trialg.structure import sigma_center

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
        """A vector outside the kernel injected into the kernel the solve
        takes: kernel_sparse for the linear kinds, the integer coefficient
        kernel for sigma_biderivation."""
        import trialg.spaces as sp

        if kind == "sigma_biderivation":
            monkeypatch.setattr(sp, "integer_kernel", _integer_kernel_plus_non_solution)
        else:
            monkeypatch.setattr(sp, "kernel_sparse", _kernel_plus_non_solution)
        with pytest.raises(TheoremViolation, match="non-solution"):
            solve_space(kind, f1, f1_sigma1)

    @pytest.mark.parametrize("site", ["derivation_kernel", "coefficient_kernel"])
    @pytest.mark.parametrize("kind", ["biderivation", "sigma_biderivation"])
    def test_verification_catches_a_biderivation_non_solution(self, f1, f1_sigma1, kind, site,
                                                              monkeypatch):
        """A non-solution injected into either kernel the biderivation solve
        takes, the derivation kernel delta_1 ... delta_r or the coefficient
        kernel, ends in a basis tensor that verification rejects.

        The injected delta is d = (E11 -> E12), no (sigma-)derivation of F1.  It
        reaches the space: D(x, y) = x_E11 [y, E12]_sigma has d in its first
        slot and an inner derivation in its second, so the second-slot rows
        keep it.  Any coefficient vector outside the kernel lifts to a tensor
        whose second slot fails.
        """
        import trialg.spaces as sp

        sigma = f1_sigma1 if kind.startswith("sigma_") else None
        calls = []

        def deltas_plus_non_solution(field, pivots, ncols):
            """integer_kernel, plus d on the first call: the derivation kernel
            (ncols = n*n), taken before the coefficient kernel."""
            calls.append(ncols)
            if len(calls) > 1:
                return integer_kernel(field, pivots, ncols)
            assert ncols == 3 * 3
            d = [field.zero] * ncols
            d[1 * 3 + 0] = field.one
            assert not classify_linear("sigma_derivation", f1.total, _unflatten(field, d, 3),
                                       sigma or LinMap.identity(field, 3)).holds
            return integer_kernel(field, pivots, ncols) + [{1 * 3 + 0: 1}]

        if site == "derivation_kernel":
            monkeypatch.setattr(sp, "integer_kernel", deltas_plus_non_solution)
        else:
            monkeypatch.setattr(sp, "integer_kernel", _integer_kernel_plus_non_solution)
        with pytest.raises(TheoremViolation, match="non-solution"):
            solve_space(kind, f1, sigma)

    @pytest.mark.parametrize("kind", ["biderivation", "sigma_biderivation"])
    @pytest.mark.parametrize("alg", [scalar_algebra(QQ), product_field_algebra(QQ)],
                             ids=["scalar", "product_field"])
    def test_no_derivations_gives_zero_biderivation_space(self, alg, kind):
        """Der_sigma = 0 leaves a coefficient system with no unknowns."""
        ident = LinMap.identity(QQ, alg.dim) if kind.startswith("sigma_") else None
        assert solve_space("derivation", alg).dim == 0
        space = solve_space(kind, alg, ident)
        assert (space.dim, space.subspace.ambient_dim) == (0, alg.dim ** 3)

    @pytest.mark.parametrize("instance", ["F1", "regular_UT2"])
    @pytest.mark.parametrize("kind", tuple(MAP_KINDS))
    def test_solve_and_emit_build_no_dense_basis(self, kind, instance, monkeypatch):
        """A verified solve and its JSON read only the sparse RREF rows of the
        space: Subspace.basis, the dense view, is never made."""
        if instance == "F1":
            tri = fixture_f1()
        else:
            ut = upper_triangular_algebra(QQ, 2)
            tri = build_triangular(ut, regular_bimodule(ut), upper_triangular_algebra(QQ, 2))

        def no_dense_view(sub):
            raise AssertionError("dense basis view made")

        monkeypatch.setattr(Subspace, "basis", property(no_dense_view))
        space = solve_space(kind, tri, sigma1(tri) if kind.startswith("sigma_") else None, verify=True)
        assert space.dim > 0 and len(space.to_json()["basis"]) == space.dim

    @pytest.mark.parametrize("kind", TWISTED_KINDS)
    def test_one_automorphism_check_per_solve(self, kind, count_aut_checks):
        tri = fixture_f1()
        space = solve_space(kind, tri, sigma1(tri))
        assert space.dim > 0
        assert len(count_aut_checks) == 1 and count_aut_checks[0] is tri.total

    @pytest.mark.parametrize("field", [QQ, GF(5)], ids=["Q", "F5"])
    @pytest.mark.parametrize("kind", TWISTED_KINDS)
    def test_twist_and_identity_columns_built_once_per_solve(self, kind, field,
                                                             count_map_builds):
        """Row generation, the automorphism check and the re-verification of
        every basis map share one identity map and, over Q, one build of the
        lifted columns of sigma and of the identity (over F_p the evaluator
        reads the residues and lifts nothing).  Maps are matched by their
        columns, so a second identity built elsewhere would count."""
        tri = fixture_f3(field)
        sigma = sigma1(tri)
        count_map_builds["identity"].clear()
        space = solve_space(kind, tri, sigma)
        assert space.dim > 1
        assert count_map_builds["identity"] == [tri.dim]
        for m in (sigma, LinMap.identity(field, tri.dim)):
            assert count_map_builds["lifted"].count(m.columns) == (0 if field.characteristic else 1)

    def test_unknown_kind_rejected(self, f1):
        with pytest.raises(InputError):
            solve_space("automorphism", f1)

    def test_bilinear_cap(self, f1):
        with pytest.raises(InputError):
            solve_space("biderivation", f1, bilinear_dim_cap=2)


def _row_instances(name):
    """(total algebra, twist) pairs: the fixture's own twist and the identity."""
    if name == "F2":
        alg, sigma = fixture_f2()
    else:
        tri = {"F1": fixture_f1, "F3": fixture_f3, "F4": fixture_f4}[name]()
        alg, sigma = tri.total, sigma1(tri)
    return [(alg, sigma), (alg, LinMap.identity(alg.field, alg.dim))]


def _oracle_rows(alg, nunk, unflatten, residuals):
    """Nonzero rows of the system whose residual list is residuals(X), read off
    column by column: column `key` is the residual list of the unit map at `key`."""
    field = alg.field
    cols = []
    for key in range(nunk):
        flat = [field.zero] * nunk
        flat[key] = field.one
        cols.append(residuals(unflatten(field, flat)))
    rows = [{key: col[r] for key, col in enumerate(cols) if col[r]} for r in range(len(cols[0]))]
    return [row for row in rows if row]


def _minus(alg, x, *ys):
    """x - sum(ys); zero terms are skipped, which keeps the unit-map sweeps fast."""
    for y in ys:
        if any(y):
            x = alg.sub_vec(x, y)
    return x


def _derivation_residuals(alg, sigma, firsts=None):
    """d(e_i e_j) - d(e_i) e_j - sigma(e_i) d(e_j), over i (in firsts, default
    every index), j, then coordinates."""
    n, mul = alg.dim, alg.mul_vec
    e = [alg.basis_vector(i) for i in range(n)]
    firsts = range(n) if firsts is None else firsts

    def residuals(d):
        return [v for i in firsts for j in range(n)
                for v in _minus(alg, d.apply(mul(e[i], e[j])), mul(d.apply(e[i]), e[j]),
                                mul(sigma.apply(e[i]), d.apply(e[j])))]
    return residuals


def _commuting_residuals(alg, sigma):
    """sigma(x) Theta(x) - Theta(x) x over x = e_i, then x = e_i + e_j (i < j):
    the residual at a pair sum adds up the four basis pairs of its support."""
    n, mul = alg.dim, alg.mul_vec
    e = [alg.basis_vector(i) for i in range(n)]
    xs = e + [alg.add_vec(e[i], e[j]) for i in range(n) for j in range(i + 1, n)]

    def residuals(theta):
        return [v for x in xs
                for v in _minus(alg, mul(sigma.apply(x), theta.apply(x)), mul(theta.apply(x), x))]
    return residuals


def _polarized_commuting_residuals(alg, sigma):
    """sigma(e_i) Theta(e_i) - Theta(e_i) e_i over i, then the polarization
    sigma(e_i) Theta(e_j) + sigma(e_j) Theta(e_i) - Theta(e_i) e_j - Theta(e_j) e_i
    over i < j."""
    n, mul = alg.dim, alg.mul_vec
    e = [alg.basis_vector(i) for i in range(n)]
    sig = [sigma.apply(x) for x in e]
    pairs = [(i, i) for i in range(n)] + [(i, j) for i in range(n) for j in range(i + 1, n)]

    def residuals(theta):
        th = [theta.apply(x) for x in e]
        out = []
        for i, j in pairs:
            if i == j:
                out += _minus(alg, mul(sig[i], th[i]), mul(th[i], e[i]))
            else:
                out += _minus(alg, alg.add_vec(mul(sig[i], th[j]), mul(sig[j], th[i])),
                              mul(th[i], e[j]), mul(th[j], e[i]))
        return out
    return residuals


def _biderivation_residuals(alg, sigma):
    """Both slot identities at (e_i, e_j, e_k), alternating slots per coordinate:
    D(e_i e_j, e_k) - D(e_i, e_k) e_j - sigma(e_i) D(e_j, e_k) and
    D(e_k, e_i e_j) - D(e_k, e_i) e_j - sigma(e_i) D(e_k, e_j)."""
    n, mul = alg.dim, alg.mul_vec
    e = [alg.basis_vector(i) for i in range(n)]
    prod = [[mul(x, y) for y in e] for x in e]
    sig = [sigma.apply(x) for x in e]

    def residuals(D):
        out = []
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    first = _minus(alg, D.apply(prod[i][j], e[k]), mul(value(D, i, k), e[j]),
                                   mul(sig[i], value(D, j, k)))
                    second = _minus(alg, D.apply(e[k], prod[i][j]), mul(value(D, k, i), e[j]),
                                    mul(sig[i], value(D, k, j)))
                    for pair in zip(first, second):
                        out.extend(pair)
        return out
    return residuals


class TestRowSequence:
    """Each row generator yields exactly the nonzero rows of its defining
    identity, evaluated on every unit map, in the order the identity is stated."""

    @pytest.mark.parametrize("name", ["F1", "F2", "F3", "F4"])
    def test_linear_rows_match_definition(self, name):
        """For a verified twist the derivation rows are the identity's on the
        pairs (s, j) with e_s a generator, and their kernel is that of the
        identity on all pairs.  The commuting rows are the singles, then the
        polarized pairs."""
        for alg, sigma in _row_instances(name):
            n = alg.dim
            unflat = lambda f, v: _unflatten(f, v, n)
            require_automorphism(alg, sigma)
            rows = list(_derivation_rows(alg, sigma))
            assert rows == _oracle_rows(alg, n * n, unflat, _derivation_residuals(alg, sigma, alg.generators()))
            full = _oracle_rows(alg, n * n, unflat, _derivation_residuals(alg, sigma))
            assert kernel_sparse(alg.field, IntegerRows(rows), n * n) == kernel_sparse(alg.field, full, n * n)
            assert list(_commuting_rows(alg, sigma)) == _oracle_rows(
                alg, n * n, unflat, _polarized_commuting_residuals(alg, sigma))

    @pytest.mark.parametrize("name", ["F1", "F2", "F3", "F4"])
    def test_biderivation_rows_match_definition(self, name):
        for alg, sigma in _row_instances(name):
            n = alg.dim
            assert list(_biderivation_rows(alg, sigma)) == _oracle_rows(
                alg, n ** 3, lambda f, v: unflatten_bilinear(f, v, n),
                _biderivation_residuals(alg, sigma))


def _catalog_instances(fields, seed):
    """(total algebra, twist): every catalog shape over each field, with the
    identity and a seeded block-preserving twist."""
    out = []
    for field in fields:
        rng = random.Random(seed + field.characteristic)
        for _, make in instance_catalog(field):
            tri = make()
            out += [(tri.total, LinMap.identity(field, tri.dim)),
                    (tri.total, random_block_preserving_sigma(tri, rng))]
    return out


class TestCommutingRows:
    def test_polarized_rows_keep_the_four_pair_kernel(self):
        """The polarized rows have the kernel of the rows of the residual at
        every x = e_i and x = e_i + e_j, whose pair blocks add up four basis
        pairs: both impose the singles.  Over F1-F4 and the catalog over Q,
        F_5, F_3 and F_2, characteristic 2 included."""
        cases = [case for name in ("F1", "F2", "F3", "F4") for case in _row_instances(name)]
        cases += _catalog_instances((QQ, GF(5), GF(3), GF(2)), 9300)
        proper = set()
        for alg, sigma in cases:
            n, field = alg.dim, alg.field
            four_pair = _oracle_rows(alg, n * n, lambda f, v: _unflatten(f, v, n), _commuting_residuals(alg, sigma))
            space = kernel_sparse(field, _commuting_rows(alg, sigma), n * n)
            assert space == kernel_sparse(field, four_pair, n * n)
            proper.add((field.characteristic, 0 < space.dim < n * n))
        assert (2, True) in proper


def _biderivation_oracle_instances():
    """(total algebra, twist): F1-F4 with their own twist and the identity, the
    regular Trian(UT_2, UT_2, UT_2) over Q and F_5, and every catalog shape over
    F_5, F_3 and F_2 with the identity and a seeded block-preserving twist."""
    out = [case for name in ("F1", "F2", "F3", "F4") for case in _row_instances(name)]
    for field in (QQ, GF(5)):
        ut2 = upper_triangular_algebra(field, 2)
        tri = build_triangular(ut2, regular_bimodule(ut2), upper_triangular_algebra(field, 2))
        out.append((tri.total, sigma1(tri)))
    return out + _catalog_instances((GF(5), GF(3), GF(2)), 9100)


class TestBiderivationOracle:
    """The biderivation solve through Der_sigma returns the canonical basis of
    the direct n^3 system that imposes both slot conditions."""

    def test_equals_direct_system(self):
        dims = set()
        for alg, sigma in _biderivation_oracle_instances():
            n = alg.dim
            direct = kernel_sparse(alg.field, _dedup_rows(_biderivation_rows(alg, sigma)), n ** 3)
            space = solve_space("sigma_biderivation", alg, sigma, verify=False)
            assert space.subspace == direct
            if sigma == LinMap.identity(alg.field, n):
                assert solve_space("biderivation", alg, verify=False).subspace == direct
            dims.add(space.dim)
        assert max(dims) > 2


def _random_map(field, n, rng):
    return LinMap(field, [[field.coerce(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)], n, n)


def _assert_blocks_give_residuals(table, rows, X, failure_at):
    """rows = (scale, blocks) of a row builder.  Every coefficient is a Python
    int, a residue over F_p; over F_p scale is 1, over Q a positive integer.
    Block b, applied to X flattened, is exactly scale times the residual that
    failure_at reports at the b-th pair of table (row-major), or zero."""
    field, n = X.field, X.dst_dim
    p = field.characteristic
    scale, blocks = rows
    assert type(scale) is int and (scale == 1 if p else scale > 0)
    flat = flatten(X)
    pairs = [(i, j) for i, row in enumerate(table) for j in range(len(row))]
    blocks = list(blocks)
    assert len(blocks) == len(pairs)
    for pair, block in zip(pairs, blocks):
        applied = [field.zero] * n
        for o, row in block.items():
            for key, c in row.items():
                assert type(c) is int and c and (0 < c < p if p else True)
                applied[o] = field.add(applied[o], field.mul(c, flat[key]))
        bad = failure_at(pair)
        residual = bad[1] if bad else (field.zero,) * n
        assert tuple(applied) == tuple(field.mul(scale, v) for v in residual), pair


def _builder_instances():
    """(triangular algebra or None, total algebra, twist): F1-F4 with their own
    twist and the identity, then seeded random instances over Q and F_5."""
    out = [(None, alg, sigma) for name in ("F1", "F2", "F3", "F4") for alg, sigma in _row_instances(name)]
    for field in (QQ, GF(5)):
        out += [(tri, tri.total, sigma) for _, tri, sigma in random_instances(field, 5, 8100)]
    return out


def _triple_intertwiner_space(tri, blocks):
    """Kernel of xi(a m b) - f(a) xi(m) b over every basis triple (a, m, b),
    read off the unit maps: the system before it was split at the unit of M."""
    field, dm = tri.field, tri.M.dim_m
    units = [unit_m(field, dm, j) for j in range(dm)]

    def residuals(xi):
        out = []
        for i in range(tri.A.dim):
            a, fa = tri.A.basis_vector(i), blocks.f.image_of_basis(i)
            for k in range(tri.B.dim):
                b = tri.B.basis_vector(k)
                for j, u in enumerate(units):
                    lhs = xi.apply(act_right(tri, act_left(tri, a, u), b))
                    rhs = act_right(tri, act_left(tri, fa, xi.image_of_basis(j)), b)
                    out.extend(field.sub(x, y) for x, y in zip(lhs, rhs))
        return out
    rows = _oracle_rows(tri.total, dm * dm, lambda f, v: _unflatten(f, v, dm), residuals)
    return kernel_sparse(field, rows, dm * dm)


class TestProductRuleRows:
    """The rows of algcore.product_rule_rows, applied to a map, give the
    residual product_rule_failure reports for that map, pair by pair."""

    def test_derivation_blocks_give_residuals(self):
        rng = random.Random(8101)
        scales = set()
        for _, alg, sigma in _builder_instances():
            n = alg.dim
            d = _random_map(alg.field, n, rng)
            rows = product_rule_rows(alg._pairs, derivation_terms(alg, None, sigma), n)
            scales.add(rows[0])
            _assert_blocks_give_residuals(
                alg._pairs, rows, d,
                lambda pair: product_rule_failure(alg._pairs, d, derivation_terms(alg, d, sigma), [pair]))
        assert max(scales) > 1  # the instances include rational constants

    def test_intertwiner_sides_give_residuals(self):
        rng = random.Random(8102)
        cases = [(tri, sigma1(tri)) for tri in (fixture_f1(), fixture_f3(), fixture_f4())]
        cases += [(tri, sigma) for tri, _, sigma in _builder_instances() if tri is not None]
        for tri, sigma in cases:
            blocks = block_decompose(tri, sigma)
            field, dm = tri.field, tri.M.dim_m
            left, right = tri.M._left_pairs, tri.M._right_pairs
            xi = _random_map(field, dm, rng)
            id_b = LinMap.identity(field, tri.B.dim)
            for table, terms_of in ((left, lambda x: ((blocks.f, x, left),)),
                                    (right, lambda x: ((x, id_b, right),))):
                _assert_blocks_give_residuals(
                    table, product_rule_rows(table, terms_of(None), dm), xi,
                    lambda pair: product_rule_failure(table, xi, terms_of(xi), [pair]))

    def test_intertwiner_space_equals_triple_system(self):
        cases = [(tri, sigma1(tri)) for tri in (fixture_f1(), fixture_f3(), fixture_f4())]
        for field in (QQ, GF(5)):
            cases += [(tri, sigma) for _, tri, sigma in random_faithful_instances(field, 6, 8200)]
        dims = set()
        for tri, sigma in cases:
            blocks = block_decompose(tri, sigma)
            space = _intertwiner_space(tri, blocks)
            assert space == _triple_intertwiner_space(tri, blocks)
            dims.add((space.dim, space.ambient_dim))
        assert any(0 < d < amb for d, amb in dims)


class TestInnerTwistedDerivation:
    def test_unit_gives_twist_defect(self, f1, f1_sigma1):
        d = inner_sigma_derivation(f1, f1.total.unit, f1_sigma1)
        expected = f1_sigma1 - LinMap.identity(QQ, 3)
        assert d == expected

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
        from trialg.structure import sigma_center

        z, _ = sigma_center(f4, f4_blocks)
        for lam in z.basis:
            D = inner_sigma_biderivation(f4, lam, f4_sigma1)
            assert f4_bider_space.contains(D)


class TestExtremalTwistedBiderivation:
    def test_corner_square_value(self, f1, f1_sigma1):
        m = f1.total.basis_vector(1)
        psi = extremal_sigma_biderivation(f1, m, f1_sigma1)
        assert value(psi, 0, 0) == m

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
        assert hw.reassemble() == d

    def test_reassembly_on_whole_space(self, f4, f4_sigma1, f4_blocks):
        space = solve_space("sigma_derivation", f4, f4_sigma1)
        for d in space.basis_maps():
            hw = sigma_derivation_blocks(f4, d, f4_blocks)
            assert hw.reassemble() == d


class TestBiderivationIdentities:
    """Cross-slot identities that every solved twisted biderivation obeys."""

    def _aux_product_identity(self, tri, sigma, D):
        t = tri.total
        n = t.dim
        comms = [[commutator(t, t.basis_vector(i), t.basis_vector(j)) for j in range(n)]
                 for i in range(n)]
        svals = [[sigma.apply(c) for c in row] for row in comms]
        for i in range(n):
            for j in range(n):
                dij = value(D, i, j)
                for u in range(n):
                    for v in range(n):
                        lhs = t.mul_vec(dij, comms[u][v])
                        rhs = t.mul_vec(svals[i][j], value(D, u, v))
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
            assert D.apply(e, e) == smul_vec(t, -1, D.apply(e, f_))
            assert D.apply(e, e) == smul_vec(t, -1, D.apply(f_, e))
            assert D.apply(e, e) == D.apply(f_, f_)

    def test_commuting_pairs_concentrate_in_corner(self, f4, f4_bider_space):
        t = f4.total
        n = t.dim
        for D in f4_bider_space.basis_maps():
            for i in range(n):
                for j in range(n):
                    x, y = t.basis_vector(i), t.basis_vector(j)
                    if commutator(t, x, y) != t.zero_vector():
                        continue
                    val = value(D, i, j)
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
