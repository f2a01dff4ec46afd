"""Exact linear algebra: scalars, RREF, kernels, solving, subspace lattice."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trialg.errors import (
    AmbientMismatch,
    DimMismatch,
    FieldMismatch,
    InputError,
    NotInSpan,
    NotInvertible,
    ShapeMismatch,
)
from trialg.exactla import (
    GF,
    QQ,
    IntegerRows,
    LinMap,
    Subspace,
    _integer_row,
    _sparse_reduce,
    canonical_row,
    derived,
    field_values,
    integer_form,
    integer_vector,
    is_nonzero,
    nonzero_rows,
    span_coefficients,
)
from trialg.spaces import _dedup_rows

F5 = GF(5)
F2 = GF(2)


class TestFieldScalar:
    """Scalars are raw field values: Fraction over Q, a residue in [0, p)
    over F_p.  Field.coerce reads input literals, Field.format writes the
    wire format, and the field's methods do the arithmetic."""

    def test_rational_normalization(self):
        s = QQ.coerce("2/4")
        assert s == Fraction(1, 2)
        assert QQ.format(s) == "1/2"
        assert QQ.format(QQ.coerce(-3)) == "-3"
        assert QQ.format(QQ.coerce("-6/4")) == "-3/2"

    def test_rational_literal_parsed_once(self):
        """Equal literals, up to surrounding blanks, give one parsed Fraction;
        a bad literal raises on every call and is not kept."""
        from trialg.exactla import _parse_rational

        assert QQ.coerce(" 3/4") is QQ.coerce("3/4\n") == Fraction(3, 4)
        kept = _parse_rational.cache_info().currsize
        for _ in range(2):
            for bad in ("3/0", "x", "1e3", " "):
                with pytest.raises(InputError, match="bad rational literal"):
                    QQ.coerce(bad)
        assert _parse_rational.cache_info().currsize == kept

    def test_prime_field_reduction(self):
        s = F5.coerce(7)
        assert s == 2
        assert F5.format(s) == "2"
        assert F5.format(F5.coerce("-1")) == "4"

    def test_prime_check(self):
        with pytest.raises(InputError):
            GF(6)
        with pytest.raises(InputError):
            GF(1)
        GF(2), GF(97)

    @pytest.mark.parametrize("n", [
        318665857834031151167461,  # 399165290221 * 798330580441, strong pseudoprime to bases 2..37
        3317044064679887385961981,  # strong pseudoprime to bases 2..41, beyond the exact test
    ])
    def test_strong_pseudoprime_refused(self, n):
        with pytest.raises(InputError):
            GF(n)

    def test_large_prime_accepted(self):
        p = 2 ** 61 - 1
        assert GF(p).characteristic == p

    def test_arithmetic(self):
        a, b = QQ.coerce("1/3"), QQ.coerce("1/6")
        assert QQ.format(QQ.add(a, b)) == "1/2"
        assert QQ.format(QQ.sub(a, b)) == "1/6"
        assert QQ.format(QQ.mul(a, b)) == "1/18"
        assert QQ.format(QQ.inv(b)) == "6"
        assert QQ.neg(a) == Fraction(-1, 3)
        x = F5.coerce(3)
        assert F5.mul(x, x) == 4
        assert F5.inv(x) == 2

    def test_mixed_fields_rejected(self):
        with pytest.raises(FieldMismatch):
            LinMap(QQ, [[1]]) + LinMap(F5, [[1]])
        with pytest.raises(FieldMismatch):
            Subspace.full(QQ, 1).sum(Subspace.full(F5, 1))

    def test_gf_parse_rejects_fractions(self):
        with pytest.raises(InputError):
            F5.coerce("1/2")

    @pytest.mark.parametrize("literal", ["1e3000000", "1E2", " 2.5e-1", "3/4e1", "-1e0"])
    def test_rational_parse_rejects_exponents(self, literal):
        # Fraction would read 1e3000000 as a 10-Mbit integer, at a cost superlinear in the exponent
        with pytest.raises(InputError, match="bad rational literal"):
            QQ.coerce(literal)

    def test_rational_parse_keeps_decimals(self):
        assert QQ.coerce(" 0.25 ") == Fraction(1, 4)
        assert QQ.coerce("-1.5") == Fraction(-3, 2)


class TestRref:
    """The RREF of a list of rows is the Subspace they span: its basis holds
    the nonzero RREF rows, its pivots their pivot columns."""

    def test_rank_one_forced(self):
        sub = Subspace.from_vectors(QQ, 2, [[2, 4], [1, 2]])
        assert sub.basis == ((Fraction(1), Fraction(2)),)
        assert sub.pivots == (0,)

    def test_identity_fixed_point(self):
        sub = Subspace.from_vectors(QQ, 3, LinMap.identity(QQ, 3).rows)
        assert sub.basis == LinMap.identity(QQ, 3).rows
        assert sub.pivots == (0, 1, 2) and sub == Subspace.full(QQ, 3)

    def test_char_two_cancellation(self):
        sub = Subspace.from_vectors(F2, 2, [[1, 1], [1, 1]])
        assert sub.basis == ((1, 1),)
        assert sub.pivots == (0,)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 4), min_size=3, max_size=3), min_size=1, max_size=4))
    def test_idempotence_f5(self, rows):
        sub = Subspace.from_vectors(F5, 3, rows)
        again = Subspace.from_vectors(F5, 3, sub.basis)
        assert sub == again and again.basis == sub.basis

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4),
                             min_size=3, max_size=3), min_size=1, max_size=4))
    def test_idempotence_rationals(self, rows):
        sub = Subspace.from_vectors(QQ, 3, rows)
        again = Subspace.from_vectors(QQ, 3, sub.basis)
        assert sub == again and again.basis == sub.basis


class TestKernel:
    def test_zero_map_full_kernel(self):
        k = LinMap.zero(QQ, 2).kernel()
        assert k.dim == 2
        assert k == Subspace.full(QQ, 2)

    def test_identity_trivial_kernel(self):
        k = LinMap.identity(QQ, 2).kernel()
        assert k.dim == 0

    def test_row_vector_kernel_canonical(self):
        # oracle: exhaustively check m v = 0 for the returned basis rows
        m = LinMap(QQ, [[1, 2]])
        k = m.kernel()
        assert k.dim == 1
        for v in k.basis:
            assert all(x == 0 for x in m.apply(v))
        assert k.basis == ((Fraction(1), Fraction(-1, 2)),)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 4), min_size=4, max_size=4), min_size=1, max_size=5))
    def test_rank_nullity_and_annihilation_f5(self, rows):
        m = LinMap(F5, rows)
        k = m.kernel()
        assert m.rank() + k.dim == m.src_dim
        for v in k.basis:
            assert all(x == 0 for x in m.apply(v))


class TestSpanCoefficients:
    """Vectors and target as blocks of sparse (k, c) entries."""

    def test_identity_system(self):
        cols = LinMap.identity(QQ, 3).columns
        assert span_coefficients(QQ, [(col,) for col in cols], [((0, 1), (1, 2), (2, 3))]) == \
            (Fraction(1), Fraction(2), Fraction(3))

    def test_free_coordinate_zero_convention(self):
        one = Fraction(1)
        assert span_coefficients(QQ, [[((0, one),)], [((0, one),)]], [((0, 2),)]) == (Fraction(2), Fraction(0))

    def test_inconsistent(self):
        assert span_coefficients(QQ, [[()]], [((0, 1),)]) is None


class TestSubspace:
    def test_equal_up_to_scaling(self):
        a = Subspace.from_vectors(QQ, 2, [[1, 0]])
        b = Subspace.from_vectors(QQ, 2, [[2, 0]])
        assert a == b

    def test_intersection(self):
        a = Subspace.from_vectors(QQ, 3, [[1, 0, 0], [0, 1, 0]])
        b = Subspace.from_vectors(QQ, 3, [[0, 1, 0], [0, 0, 1]])
        inter = a.intersect(b)
        assert inter == Subspace.from_vectors(QQ, 3, [[0, 1, 0]])

    def test_coords_not_in_span(self):
        a = Subspace.from_vectors(QQ, 2, [[1, 1]])
        with pytest.raises(NotInSpan):
            a.coords((1, 0))

    def test_coords_roundtrip(self):
        a = Subspace.from_vectors(QQ, 3, [[1, 0, 2], [0, 1, 3]])
        c = a.coords((2, 1, 7))
        assert c == (Fraction(2), Fraction(1))

    def test_sum(self):
        a = Subspace.from_vectors(QQ, 3, [[1, 0, 0]])
        b = Subspace.from_vectors(QQ, 3, [[0, 0, 1]])
        s = a.sum(b)
        assert s.dim == 2 and s.contains(a) and s.contains(b)

    def test_ambient_mismatch(self):
        a = Subspace.from_vectors(QQ, 2, [[1, 0]])
        b = Subspace.from_vectors(QQ, 3, [[1, 0, 0]])
        with pytest.raises(AmbientMismatch):
            a.contains(b)
        with pytest.raises(AmbientMismatch):
            a.intersect(b)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_equality_is_an_equivalence_f5(self, data):
        vecs = st.lists(st.lists(st.integers(0, 4), min_size=3, max_size=3),
                        min_size=1, max_size=3)
        raw_a = data.draw(vecs)
        raw_b = data.draw(vecs)
        a = Subspace.from_vectors(F5, 3, raw_a)
        b = Subspace.from_vectors(F5, 3, raw_b)
        # reflexive; symmetric; transitive via scaled copies
        assert a == a
        assert (a == b) == (b == a)
        doubled = Subspace.from_vectors(F5, 3, [[(2 * x) % 5 for x in v] for v in raw_a])
        assert a == doubled
        if a == b:
            assert doubled == b

    def test_intersect_respects_membership(self):
        a = Subspace.from_vectors(F5, 4, [[1, 2, 0, 0], [0, 0, 1, 1]])
        b = Subspace.from_vectors(F5, 4, [[1, 2, 1, 1], [0, 0, 0, 1]])
        inter = a.intersect(b)
        for v in inter.basis:
            assert a.contains_vector(v) and b.contains_vector(v)
        assert inter.dim == 1


class TestLinMap:
    def test_compose_and_inverse(self):
        m = LinMap(QQ, [[1, 2], [3, 5]])
        inv = m.inverse()
        assert inv == LinMap(QQ, [[-5, 2], [3, -1]])
        assert inv.compose(m) == LinMap.identity(QQ, 2)
        assert m.compose(inv) == LinMap.identity(QQ, 2)

    def test_singular_inverse_raises(self):
        with pytest.raises(NotInvertible):
            LinMap(QQ, [[1, 2], [2, 4]]).inverse()

    def test_empty_shapes(self):
        m = LinMap(QQ, [], 3)
        assert m.dst_dim == 0 and m.src_dim == 3
        k = m.kernel()
        assert k.dim == 3

    def test_shape_and_dim_checks(self):
        with pytest.raises(ShapeMismatch):
            LinMap(QQ, [[1, 2], [3]])
        with pytest.raises(ShapeMismatch):
            LinMap(QQ, [[1, 2]]) + LinMap(QQ, [[1], [2]])
        with pytest.raises(ShapeMismatch):
            LinMap(QQ, [[1, 2]]) - LinMap(QQ, [[1, 2, 3]])
        with pytest.raises(FieldMismatch):
            LinMap(QQ, [[1]]) - LinMap(F5, [[1]])
        with pytest.raises(FieldMismatch):
            LinMap(QQ, [[1]]).compose(LinMap(F5, [[1]]))
        for dims in ((3, None), (None, 1), (3, 2), (None, 3)):
            with pytest.raises(DimMismatch):
                LinMap(QQ, [[1, 2], [3, 4]], *dims)
        with pytest.raises(DimMismatch):
            LinMap(QQ, [], 2, 1)
        for images, dims in (([[1, 2]], (2, 2)), ([[1], [2, 3]], ()), ([[1, 2], [3, 4]], (2, 3))):
            with pytest.raises(DimMismatch):
                LinMap.from_images(QQ, images, *dims)
        assert LinMap(QQ, [[1, 2]], 2, 1).rows == ((Fraction(1), Fraction(2)),)

    def test_immutable_equal_and_hashed_by_entries(self):
        m = LinMap(F5, [[1, 7], [0, "3"]])
        for attr in ("rows", "src_dim", "dst_dim", "field"):
            with pytest.raises(AttributeError):
                setattr(m, attr, None)
        twin = LinMap.from_images(F5, [[1, 0], [2, 3]])
        assert twin == m and hash(twin) == hash(m) and len({m, twin}) == 1
        assert m != LinMap(GF(7), [[1, 2], [0, 3]])
        assert LinMap(QQ, [], 2) != LinMap(QQ, [], 3)
        assert m != m.rows


# ---------------------------------------------------------------------------
# the integer elimination against a plain dense Gauss-Jordan
# ---------------------------------------------------------------------------


def _gauss_jordan(field, rows, ncols):
    """Nonzero rows of the RREF and their pivot columns, by textbook dense
    Gauss-Jordan in the field's own arithmetic."""
    m = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        k = next((i for i in range(r, len(m)) if m[i][c]), None)
        if k is None:
            continue
        m[r], m[k] = m[k], m[r]
        s = field.inv(m[r][c])
        m[r] = [field.mul(s, v) for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [field.sub(v, field.mul(f, w)) for v, w in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return [tuple(row) for row in m[:r]], pivots


@st.composite
def _systems(draw, field, max_rows=6, max_cols=6):
    """A dense system with zero rows and repeated or rescaled copies (negative
    and fractional factors over Q) mixed in.  Over Q entries have denominators
    up to 7 and either sign, so leads are often negative."""
    ncols = draw(st.integers(1, max_cols))
    if field is QQ:
        scalar = st.fractions(min_value=-9, max_value=9, max_denominator=7)
    else:
        scalar = st.integers(0, field.characteristic - 1)
    entry = st.one_of(st.just(field.zero), scalar.map(field.coerce))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=max_rows))
    extra = []
    for row in rows:
        k = draw(st.sampled_from(["none", "zero", "copy", "scaled"]))
        if k == "zero":
            extra.append([field.zero] * ncols)
        elif k == "copy":
            extra.append(list(row))
        elif k == "scaled":
            c = field.coerce(draw(scalar.filter(bool)))
            extra.append([field.mul(c, v) for v in row])
    order = draw(st.permutations(rows + extra))
    return [tuple(r) for r in order], ncols


@st.composite
def _redundant_systems(draw, field, max_rank=4, max_cols=7):
    """A rank-deficient system of ten rows per basis row: combinations, with
    coefficients in -2..2, of up to max_rank rows of entries in {-1, 0, 1}, so
    that entries cancel often.  The entries are ints, residues over F_p."""
    ncols = draw(st.integers(2, max_cols))
    k = draw(st.integers(1, max_rank))
    unit = st.sampled_from([-1, 0, 1])
    basis = draw(st.lists(st.lists(unit, min_size=ncols, max_size=ncols), min_size=k, max_size=k))
    coeffs = st.lists(st.integers(-2, 2), min_size=k, max_size=k)
    p = field.characteristic
    rows = []
    for _ in range(10 * k):
        cs = draw(coeffs)
        row = [sum(c * b[j] for c, b in zip(cs, basis)) for j in range(ncols)]
        rows.append(tuple(v % p for v in row) if p else tuple(row))
    return rows, ncols


def _lead_order(field, rows, ncols):
    """The pivot column that each row adds to the RREF of the rows before it,
    in row order, skipping the rows that add none."""
    order, span = [], []
    for row in rows:
        span, pivots = _gauss_jordan(field, span + [row], ncols)
        order += [c for c in pivots if c not in order]
    return order


_FIELDS = [QQ, GF(2), GF(5)]


def _is_raw(field, v):
    if field is QQ:
        return type(v) is Fraction
    return type(v) is int and 0 <= v < field.characteristic


def _check_reduced(field, pivots, rows, ncols):
    """pivots, as _sparse_reduce returns them, are the nonzero rows of the
    dense Gauss-Jordan RREF of rows, in raw field values, keyed and ordered by
    the pivot column each row prefix adds (which _biderivation_space reads)."""
    expect, expect_pivots = _gauss_jordan(field, rows, ncols)
    assert list(pivots) == _lead_order(field, rows, ncols)
    assert sorted(pivots) == expect_pivots
    for c, row in zip(expect_pivots, expect):
        assert pivots[c] == {k: v for k, v in enumerate(row) if v}
        assert all(_is_raw(field, v) for v in pivots[c].values())


class TestDerived:
    """exactla.derived, the one store of derived data per instance."""

    def test_made_once_per_instance_and_only_read_without_make(self):
        a, b = LinMap.identity(QQ, 2), LinMap.identity(QQ, 2)
        made = []

        def make():
            made.append(1)
            return len(made)

        assert derived(a, "k") is None
        assert derived(a, "k", make) == 1 == derived(a, "k", make) == derived(a, "k")
        assert derived(b, "k", make) == 2 and made == [1, 1]
        assert derived(a, ("k", b), make) == 3 and derived(a, ("k", LinMap.identity(QQ, 2))) == 3

    def test_a_make_that_raises_keeps_nothing(self):
        m = LinMap.zero(QQ, 1)
        calls = []

        def failing():
            calls.append(1)
            raise NotInvertible("no")

        for n in (1, 2):
            with pytest.raises(NotInvertible):
                derived(m, "x", failing)
            assert len(calls) == n and derived(m, "x") is None
        # an entry of None is kept like any other (AutBlocks.eta on a non-faithful instance)
        assert derived(m, "x", lambda: None) is None and derived(m, "x", failing) is None and len(calls) == 2

    def test_a_table_keeps_its_entries_in_one_attribute(self):
        from trialg.algcore import SparseTable

        t = SparseTable([(((0, Fraction(1, 2)),),)])
        assert not hasattr(t, "_derived")
        assert t.transpose() is t.transpose() and integer_form(0, t) == (2, ((((0, 1),),),))
        assert set(t._derived) == {"transpose", "lifted"}


class TestIntegerEliminationOracle:
    """_sparse_reduce, and the Subspace and span_coefficients built on it, run
    on integer (Q) or residue (F_p) rows; they must return exactly the field
    values of the dense Gauss-Jordan RREF."""

    @pytest.mark.parametrize("field", _FIELDS, ids=str)
    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_sparse_reduce_and_rref(self, field, data):
        rows, ncols = data.draw(_systems(field))
        expect, expect_pivots = _gauss_jordan(field, rows, ncols)
        pivots = _sparse_reduce(field, [{c: v for c, v in enumerate(r) if v} for r in rows], ncols)
        _check_reduced(field, pivots, rows, ncols)
        sub = Subspace.from_vectors(field, ncols, rows)
        assert sub.pivots == tuple(expect_pivots)
        assert sub.basis == tuple(expect)

    @pytest.mark.parametrize("field", _FIELDS, ids=str)
    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_integer_rows(self, field, data):
        """The same systems handed over as IntegerRows: over Q each row as an
        integer multiple of either sign, over F_p as its residues."""
        rows, ncols = data.draw(_systems(field))
        ints = []
        for r in rows:
            row = {c: v for c, v in enumerate(r) if v}
            if field is QQ:
                m = data.draw(st.integers(-3, 3).filter(bool)) * math.lcm(*[v.denominator for v in r])
                row = {c: int(v * m) for c, v in row.items()}
            ints.append(row)
        _check_reduced(field, _sparse_reduce(field, IntegerRows(ints), ncols), rows, ncols)

    @pytest.mark.parametrize("field", _FIELDS, ids=str)
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_redundant_rows(self, field, data):
        """Rank-deficient systems of ten times as many rows as the rank, whose
        entries cancel, in both entry forms (field values and IntegerRows)."""
        rows, ncols = data.draw(_redundant_systems(field))
        sparse = [{c: v for c, v in enumerate(r) if v} for r in rows]
        as_field = [{c: field.coerce(v) for c, v in r.items()} for r in sparse]
        field_rows = [tuple(map(field.coerce, r)) for r in rows]
        _check_reduced(field, _sparse_reduce(field, as_field, ncols), field_rows, ncols)
        _check_reduced(field, _sparse_reduce(field, IntegerRows(sparse), ncols), field_rows, ncols)

    @pytest.mark.parametrize("field", _FIELDS, ids=str)
    def test_pivot_row_drops_an_indexed_column(self, field):
        """The first pivot row, e0 + e2 + e3, is indexed under columns 2 and 3.
        The second, e2 + e3, clears column 2 from it, and its column 3 cancels
        too; when e3 arrives, the index still names the first row under column
        3, and it must be passed over."""
        rows = [{c: v for c, v in enumerate(r) if v} for r in [(1, 0, 1, 1), (0, 0, 1, 1), (0, 0, 0, 1)]]
        for system in (IntegerRows(rows), [{c: field.coerce(v) for c, v in r.items()} for r in rows]):
            pivots = _sparse_reduce(field, system, 4)
            assert pivots == {0: {0: field.one}, 2: {2: field.one}, 3: {3: field.one}}
            assert list(pivots) == [0, 2, 3]

    @pytest.mark.parametrize("field", _FIELDS, ids=str)
    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_solve_sparse(self, field, data):
        """A sparse system of rows against a right-hand side, solved by
        span_coefficients on its columns (one block each) and the
        right-hand side: the particular solution of the Gauss-Jordan RREF of
        the augmented rows, zero at every free column, or None."""
        rows, ncols = data.draw(_systems(field))
        scalar = (st.fractions(min_value=-5, max_value=5, max_denominator=7) if field is QQ
                  else st.integers(0, field.characteristic - 1))
        rhs = [field.coerce(data.draw(scalar)) for _ in rows]
        aug, pivots = _gauss_jordan(field, [r + (b,) for r, b in zip(rows, rhs)], ncols + 1)
        columns = [(tuple((i, r[c]) for i, r in enumerate(rows) if r[c]),) for c in range(ncols)]
        got = span_coefficients(field, columns, (tuple((i, b) for i, b in enumerate(rhs) if b),))
        if ncols in pivots:
            assert got is None
            return
        expect = [field.zero] * ncols
        for c, row in zip(pivots, aug):
            expect[c] = row[ncols]
        assert got == tuple(expect)
        assert all(_is_raw(field, v) for v in got)


    @pytest.mark.parametrize("field", [QQ, GF(5)], ids=str)
    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_span_coefficients(self, field, data):
        """The coefficients are the last column of the Gauss-Jordan RREF of
        the system whose columns are the vectors and the target, with zero at
        every free index.  Half of the targets are drawn inside the span.
        span_coefficients is handed each vector and the target cut into two
        or more blocks of sparse entries, each block indexed from 0, and
        the oracle solves on the concatenated dense vectors."""
        vectors, n = data.draw(_systems(field))
        cuts = sorted(data.draw(st.lists(st.integers(0, n), min_size=1, max_size=3)))
        bounds = list(zip([0] + cuts, cuts + [n]))

        def blocks(vec):
            return [tuple((k - lo, vec[k]) for k in range(lo, hi) if vec[k]) for lo, hi in bounds]

        scalar = (st.fractions(min_value=-5, max_value=5, max_denominator=7) if field is QQ
                  else st.integers(0, field.characteristic - 1))
        if data.draw(st.booleans()):
            coeffs = [field.coerce(data.draw(scalar)) for _ in vectors]
            target = [field.zero] * n
            for c, v in zip(coeffs, vectors):
                target = [field.add(t, field.mul(c, w)) for t, w in zip(target, v)]
        else:
            target = [field.coerce(data.draw(scalar)) for _ in range(n)]
        k = len(vectors)
        aug, pivots = _gauss_jordan(field, [tuple(v[i] for v in vectors) + (target[i],) for i in range(n)], k + 1)
        got = span_coefficients(field, [blocks(v) for v in vectors], blocks(target))
        if k in pivots:
            assert got is None
            return
        expect = [field.zero] * k
        for c, row in zip(pivots, aug):
            expect[c] = row[k]
        assert got == tuple(expect)
        combo = [field.zero] * n
        for c, v in zip(got, vectors):
            combo = [field.add(t, field.mul(c, w)) for t, w in zip(combo, v)]
        assert combo == target


class TestRowKeys:
    """Every nonzero multiple of a row has one integer form: primitive with a
    positive lead over Q, monic over F_p.  _dedup_rows keeps one row per
    class over Q, the original one."""

    @settings(max_examples=150, deadline=None)
    @given(st.dictionaries(st.integers(0, 8), st.fractions(min_value=-9, max_value=9, max_denominator=7)
                           .filter(bool), min_size=1, max_size=5),
           st.fractions(min_value=-6, max_value=6, max_denominator=7).filter(bool))
    def test_rational_form_is_scale_invariant(self, row, c):
        form = _integer_row(0, row)
        assert form == _integer_row(0, {k: c * v for k, v in row.items()})
        assert all(type(v) is int for v in form.values())
        assert form[min(form)] > 0
        assert math.gcd(*form.values()) == 1
        ratio = Fraction(form[min(row)]) / row[min(row)]
        assert form == {k: ratio * v for k, v in row.items()}

    @pytest.mark.parametrize("p", [2, 5])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_residue_form_is_monic(self, p, data):
        residue = st.integers(1, p - 1)
        row = data.draw(st.dictionaries(st.integers(0, 8), residue, min_size=1, max_size=5))
        c = data.draw(residue)
        form = _integer_row(p, row)
        assert form == _integer_row(p, {k: c * v % p for k, v in row.items()})
        assert form[min(form)] == 1 and form.keys() == row.keys()

    def test_dedup_keeps_first_of_each_class(self):
        q = Fraction
        rows = [{0: q(2), 3: q(-4)}, {}, {0: q(-1, 3), 3: q(2, 3)}, {3: q(5)},
                {0: q(1), 3: q(-2)}, {3: q(-1, 7)}, {0: q(1), 3: q(2)}]
        assert list(_dedup_rows(rows)) == [rows[0], rows[3], rows[6]]


# -- the integer form ---------------------------------------------------------


_FORM_FIELDS = [QQ, GF(5), GF(3), GF(2)]


def _values(field):
    """Raw values of field, zero about one time in three."""
    if field is QQ:
        scalar = st.fractions(min_value=-9, max_value=9, max_denominator=7)
    else:
        scalar = st.integers(0, field.characteristic - 1)
    return st.one_of(st.just(0), scalar, scalar).map(field.coerce)


def _sparse_vectors(data, field, count, dim):
    """count sparse vectors below dim, each a tuple of its nonzero (k, c)."""
    return tuple(tuple((k, c) for k, c in enumerate(data.draw(st.lists(_values(field), min_size=dim, max_size=dim)))
                       if c)
                 for _ in range(count))


def _scaled_by(den, values, ints):
    """ints is den times values, entry by entry, in Python ints."""
    return all(type(i) is int and i == den * v for i, v in zip(ints, values))


class TestIntegerForm:
    """exactla's integer form (den, ints) of a map, a table and a vector:
    ints is den times the field values entry by entry, and over F_p den is 1
    and ints are the residues themselves, the same object.  The accumulator
    reductions (is_nonzero, nonzero_rows, field_values, canonical_row) agree
    with a Fraction / % p oracle."""

    @pytest.mark.parametrize("field", _FORM_FIELDS, ids=str)
    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_maps_tables_and_vectors(self, field, data):
        from trialg.algcore import SparseTable

        p = field.characteristic
        n, m = data.draw(st.integers(0, 4)), data.draw(st.integers(1, 4))
        linmap = LinMap._trusted(field, _sparse_vectors(data, field, n, m), m)
        table = SparseTable(_sparse_vectors(data, field, m, m) for _ in range(n))
        dense = tuple(data.draw(st.lists(_values(field), max_size=6)))
        sparse = dict(_sparse_vectors(data, field, 1, 6)[0])
        for obj, vecs, form in ((linmap, linmap.columns, linmap.lifted()),
                                (table, [vec for row in table for vec in row], integer_form(p, table))):
            den, ints = form
            flat = [vec for row in ints for vec in row] if obj is table else ints
            assert len(flat) == len(vecs)
            for vec, ivec in zip(vecs, flat):
                assert [k for k, _ in ivec] == [k for k, _ in vec]
                assert _scaled_by(den, [c for _, c in vec], [c for _, c in ivec])
            if p:
                assert den == 1 and ints is (linmap.columns if obj is linmap else table)
            else:
                assert den == math.lcm(*[c.denominator for vec in vecs for _, c in vec])
                assert (linmap.lifted() if obj is linmap else integer_form(p, table)) is form  # kept
        for values in (dense, sparse):
            den, ints = integer_vector(p, values)
            if p:
                assert den == 1 and ints is values
            elif isinstance(values, dict):
                assert ints.keys() == values.keys() and _scaled_by(den, values.values(), ints.values())
            else:
                assert len(ints) == len(values) and _scaled_by(den, values, ints)

    @pytest.mark.parametrize("field", _FORM_FIELDS, ids=str)
    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_accumulator_reductions(self, field, data):
        """Accumulators whose entries are often all multiples of p, so that
        an entry nonzero as an integer is still zero in the field."""
        p = field.characteristic
        step = data.draw(st.sampled_from([1, p or 1]))
        acc = data.draw(st.dictionaries(st.integers(0, 9), st.integers(-12, 12).map(step.__mul__), max_size=5))
        den = data.draw(st.integers(1, 12).filter(lambda d: not p or d % p))
        if p:
            expect = {k: v % p for k, v in acc.items() if v % p}
        else:
            expect = {k: v for k, v in acc.items() if Fraction(v)}
        assert is_nonzero(p, acc) == bool(expect)
        # a block: each row reduced, the empty ones dropped, keys ascending
        block = nonzero_rows(p, {3: acc, 1: {}, 2: dict(acc)})
        assert list(block.items()) == ([(2, expect), (3, expect)] if expect else [])
        assert field_values(p, den, acc) == {k: field.mul(field.coerce(v), field.inv(field.coerce(den)))
                                             for k, v in expect.items()}
        if expect:  # one canonical row for every nonzero multiple
            c = data.draw(_values(field).filter(bool))
            row = integer_vector(p, {k: field.mul(c, field.coerce(v)) for k, v in expect.items()})[1]
            assert canonical_row(p, row) == canonical_row(p, expect)
