"""The generating set of an algebra and the product rule imposed and checked
on it.

FinAlgebra.generators() is compared with the span of all words in its
elements, built with dense Subspace products.  The sigma-derivation rows on
the generating pairs must have the kernel of the rows on all pairs, and the
sigma-biderivation space must be the kernel of the direct n^3 system.  A
check on the generating pairs must report the first failing pair or triple
of the full row-major scan, and a twist not known to be multiplicative must
keep that full scan.
"""

import itertools
import random

import pytest

from trialg.algcore import build_triangular, product_rule_failure, product_rule_rows
from trialg.exactla import GF, QQ, IntegerRows, Subspace, kernel_sparse
from trialg.fixtures import fixture_f3, regular_bimodule, upper_triangular_algebra, ut2_tensor_flip
from trialg.randomgen import instance_catalog, random_block_preserving_sigma, random_instances
from trialg.sigmamaps import (
    BilinMap,
    LinMap,
    _derivation_type_failure,
    _multiplicative,
    classify_bilinear,
    classify_linear,
    derivation_terms,
    is_endomorphism,
    require_automorphism,
)
from trialg.spaces import _biderivation_rows, _dedup_rows, _derivation_rows, solve_space
from trialg.structure import subspace_product

from test_algcore import _rebased
from test_dense_oracles import unflatten_bilinear, value


def _word_span(alg, gens) -> Subspace:
    """The span of all products of the basis vectors e_s, s in gens: the
    least subspace holding them and closed under multiplication by them."""
    field, n = alg.field, alg.dim
    base = Subspace.from_vectors(field, n, [alg.basis_vector(s) for s in gens])
    span = base
    while True:
        grown = span.sum(subspace_product(alg, base, span))
        if grown == span:
            return span
        span = grown


def _instances():
    """(label, total algebra, twist): the catalog over Q and F_5 with a seeded
    block-preserving twist, seeded random instances over Q, F_5, F_3 and F_2,
    and the flip of UT_2 (x) UT_2 over Q and F_5."""
    out = []
    for field in (QQ, GF(5)):
        rng = random.Random(4400 + field.characteristic)
        for name, make in instance_catalog(field):
            tri = make()
            out.append(("%s/%r" % (name, field), tri.total, random_block_preserving_sigma(tri, rng)))
    for field in (QQ, GF(5), GF(3), GF(2)):
        for r, (name, tri, sigma) in enumerate(random_instances(field, 6, 4500 + field.characteristic)):
            out.append(("random%d:%s/%r" % (r, name, field), tri.total, sigma))
    for field in (QQ, GF(5)):
        tri, flip = ut2_tensor_flip(field)
        out.append(("flip/%r" % field, tri.total, flip))
    return out


INSTANCES = _instances()


@pytest.mark.parametrize("label,alg,sigma", INSTANCES, ids=[case[0] for case in INSTANCES])
def test_generators_span_all_words(label, alg, sigma):
    gens = alg.generators()
    assert list(gens) == sorted(set(gens)) and all(0 <= s < alg.dim for s in gens)
    assert _word_span(alg, gens) == Subspace.full(alg.field, alg.dim)
    assert alg.generators() is gens  # made once per instance


@pytest.mark.parametrize("label,alg,sigma", INSTANCES, ids=[case[0] for case in INSTANCES])
def test_generating_pairs_keep_the_solutions(label, alg, sigma):
    """The derivation rows on the generating pairs have the kernel of the
    rows on all pairs, and the biderivation space is the kernel of the
    direct n^3 system."""
    require_automorphism(alg, sigma)
    field, n = alg.field, alg.dim
    rows = list(_derivation_rows(alg, sigma))
    blocks = product_rule_rows(alg._pairs, derivation_terms(alg, None, sigma), n)[1]
    full = [row for block in blocks for row in block.values()]
    assert len(rows) <= len(full)
    assert kernel_sparse(field, IntegerRows(rows), n * n) == kernel_sparse(field, IntegerRows(full), n * n)
    direct = kernel_sparse(field, _dedup_rows(_biderivation_rows(alg, sigma)), n ** 3)
    assert solve_space("sigma_biderivation", alg, sigma, verify=False).subspace == direct


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["Q", "F5"])
def test_generator_counts_on_the_regular_ladder(field):
    """5k - 2 generators on the regular Trian(UT_k, UT_k, UT_k), k = 2..5."""
    for k in range(2, 6):
        ut = upper_triangular_algebra(field, k)
        tri = build_triangular(ut, regular_bimodule(ut), upper_triangular_algebra(field, k))
        assert len(tri.total.generators()) == 5 * k - 2


def test_generator_count_on_the_block_rebased_ut2():
    """5 of 9 on the regular Trian(UT_2, UT_2, UT_2) over Q rewritten in the
    block basis diag(P, P, P), P = U L for the unit upper U and unit lower L
    whose off-diagonal entries are all 1."""
    ut = upper_triangular_algebra(QQ, 2)
    alg = build_triangular(ut, regular_bimodule(ut), upper_triangular_algebra(QQ, 2)).total
    rows = [[0] * 9 for _ in range(9)]
    for off in (0, 3, 6):
        for i in range(3):
            for j in range(3):
                # (U L)[i][j] = #{t : i <= t, j <= t}
                rows[off + i][off + j] = 3 - max(i, j)
    rebased = _rebased(alg, LinMap(QQ, rows))
    assert any(v.denominator > 1 or v < 0 for row in rebased._pairs for vec in row for _, v in vec)
    assert len(rebased.generators()) == 5


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------


def _random_solution(kind, alg, sigma, rng) -> tuple:
    """A random combination of the basis of the solved space, flattened."""
    sub = solve_space(kind, alg, sigma).subspace
    return sub.combine([alg.field.coerce(rng.randint(-2, 2)) for _ in range(sub.dim)])


def _bumped(f: LinMap, k: int, j: int, c) -> LinMap:
    rows = [list(r) for r in f.rows]
    rows[k][j] = f.field.add(rows[k][j], c)
    return LinMap(f.field, rows, f.src_dim, f.dst_dim)


def _catalog_cases():
    """(field, total algebra, twist, rng): the catalog over Q and F_5, each
    with a seeded block-preserving twist."""
    for field in (QQ, GF(5)):
        rng = random.Random(4600 + field.characteristic)
        for name, make in instance_catalog(field):
            tri = make()
            yield field, tri.total, random_block_preserving_sigma(tri, rng), rng


def test_linear_witness_is_the_first_of_the_full_scan():
    """Random maps, and a random solution with each entry bumped in turn, on
    the catalog over Q and F_5: classify_linear reports the first failing
    pair of the row-major product_rule_failure scan, also where that pair's
    first index is not a generator."""
    off_generator = 0
    for field, alg, sigma, rng in _catalog_cases():
        n = alg.dim
        flat = _random_solution("sigma_derivation", alg, sigma, rng)
        d0 = LinMap(field, [flat[k * n:(k + 1) * n] for k in range(n)])
        maps = [LinMap(field, [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]) for _ in range(4)]
        maps += [_bumped(d0, k, j, field.coerce(rng.randint(1, 4))) for k in range(n) for j in range(n)]
        for d in maps:
            full = product_rule_failure(alg._pairs, d, derivation_terms(alg, d, sigma))
            v = classify_linear("sigma_derivation", alg, d, sigma)
            assert v.holds == (full is None)
            if full is None:
                continue
            assert (v.witness.indices, v.witness.element) == full
            off_generator += full[0][0] not in alg.generators()
    assert off_generator


def _first_biderivation_failure(alg, D, sigma):
    """The first (i, j, k, slot) in row-major order, slot 0 before 1, where
    D(e_i e_j, e_k) - sigma(e_i) D(e_j, e_k) - D(e_i, e_k) e_j (slot 0) or
    D(e_k, e_i e_j) - sigma(e_i) D(e_k, e_j) - D(e_k, e_i) e_j (slot 1) is
    nonzero, as classify_bilinear reports it: (indices, residual), evaluated
    densely."""
    n, mul = alg.dim, alg.mul_vec
    e = [alg.basis_vector(i) for i in range(n)]
    s = [sigma.apply(x) for x in e]
    for i, j, k in itertools.product(range(n), repeat=3):
        ij = mul(e[i], e[j])
        first = alg.sub_vec(alg.sub_vec(D.apply(ij, e[k]), mul(s[i], D.apply(e[j], e[k]))),
                            mul(D.apply(e[i], e[k]), e[j]))
        if any(first):
            return (i, j, k), first
        second = alg.sub_vec(alg.sub_vec(D.apply(e[k], ij), mul(s[i], D.apply(e[k], e[j]))),
                             mul(D.apply(e[k], e[i]), e[j]))
        if any(second):
            return (k, i, j), second
    return None


def _full_scan_biderivation_failure(alg, D, sigma):
    """The witness of classify_bilinear from one row-major product_rule_failure
    scan of all pairs per slot: the least (i, j, k, slot), with the slot's
    residual in copy k, reported as (i, j, k) for the first slot and (k, i,
    j) for the second."""
    n = alg.dim
    left, right = alg._pairs.copies()
    ident = alg.identity_map()
    failures = []
    for slot, Y in enumerate(D.slot_maps()):
        bad = product_rule_failure(alg._pairs, Y, ((sigma, Y, left), (Y, ident, right)))
        if bad:
            (i, j), residual = bad
            k = next(k for k in range(n) if any(residual[k * n:(k + 1) * n]))
            failures.append(((i, j, k, slot), residual[k * n:(k + 1) * n]))
    if not failures:
        return None
    (i, j, k, slot), element = min(failures)
    return ((i, j, k) if slot == 0 else (k, i, j)), element


def test_bilinear_witness_is_the_first_of_the_full_scan():
    """A random solved sigma-biderivation with each value bumped in turn on
    the catalog over Q and F_5: classify_bilinear reports the first failing
    triple of the full product_rule_failure scan, and for a sample of the
    bumps that of a dense scan of every triple, also where the product it
    fails at has a first factor that is not a generator."""
    off_generator = 0
    for field, alg, sigma, rng in _catalog_cases():
        n = alg.dim
        D0 = unflatten_bilinear(field, _random_solution("sigma_biderivation", alg, sigma, rng), n)
        dense = set(rng.sample(list(itertools.product(range(n), repeat=3)), 6))
        for i, j, k in itertools.product(range(n), repeat=3):
            table = [[list(value(D0, a, b)) for b in range(n)] for a in range(n)]
            table[i][j][k] = field.add(table[i][j][k], field.coerce(rng.randint(1, 4)))
            D = BilinMap(field, table)
            expected = _full_scan_biderivation_failure(alg, D, sigma)
            if (i, j, k) in dense:
                assert _first_biderivation_failure(alg, D, sigma) == expected
            v = classify_bilinear("sigma_biderivation", alg, D, sigma)
            assert v.holds == (expected is None)
            if expected is None:
                continue
            assert (v.witness.indices, v.witness.element) == expected
            first = v.witness.indices[0] if v.witness.description.startswith("first") else v.witness.indices[1]
            off_generator += first not in alg.generators()
    assert off_generator


def test_non_multiplicative_beta_keeps_the_full_scan():
    """With beta not multiplicative, a map may satisfy d(xy) = beta(x) d(y)
    + d(x) y on the generating pairs and fail elsewhere.  beta is the identity
    of F3's total algebra with one entry raised by 1, the first entry in
    row-major order for which such maps exist: the predicate still reports
    the first failure of the full scan, and the rows still impose every
    pair."""
    alg = fixture_f3().total
    field, n = alg.field, alg.dim
    gens = alg.generators()
    assert len(gens) < n

    def kernel(beta, order):
        blocks = product_rule_rows(alg._pairs, derivation_terms(alg, None, beta), n, order)[1]
        return kernel_sparse(field, IntegerRows(row for block in blocks for row in block.values()), n * n)

    for k, j in itertools.product(range(n), repeat=2):
        beta = LinMap(field, [[(r == c) + ((r, c) == (k, j)) for c in range(n)] for r in range(n)])
        full = kernel(beta, None)
        escaped = [v for v in kernel(beta, itertools.product(gens, range(n))).basis
                   if not full.contains_vector(v)]
        if escaped:
            break
    assert escaped and not is_endomorphism(alg, beta).holds and not _multiplicative(alg, beta)
    for vec in escaped:
        d = LinMap(field, [vec[k * n:(k + 1) * n] for k in range(n)])
        terms = derivation_terms(alg, d, beta)
        assert product_rule_failure(alg._pairs, d, terms, itertools.product(gens, range(n))) is None
        bad = product_rule_failure(alg._pairs, d, terms)
        assert bad is not None and _derivation_type_failure(alg, d, terms, beta) == bad
    assert kernel_sparse(field, _derivation_rows(alg, beta), n * n) == full
