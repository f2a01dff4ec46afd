"""Finite-dimensional algebras, bimodules, and the triangular construction.

An algebra is stored as the SparseTable of its structure constants (entry
[i][j] lists the nonzero (k, c) with c the coefficient of ``e_k`` in
``e_i * e_j``) together with the coefficient vector of its unit; associativity
and the unit laws are checked at construction.  A bimodule is stored as the
SparseTables of its two actions.  A triangular algebra Trian(A, M, B) is
assembled from two algebras and an (A, B)-bimodule into one total algebra,
its table made of theirs, carrying the Peirce idempotents p and q.  Every
bimodule action a . m and m . b is read off the action tables as a sparse
map (TriAlgebra.left_action, right_action, left_action_on and
right_action_on) by _mul_map, which also gives the multiplication maps of an
algebra.

Also here: the sparse product-rule evaluator behind every basis-pair identity
check and its row builder, both on basis pairs, the one polarization of a
quadratic identity (polarized_passes), twisted_ad and the (twisted) center
map read off it (_center_map), the commutator map _bracket_map, and
block_span, which moves sparse rows of A, M's unit rows and rows of B into
their blocks of T.  The theorem half (centers, annihilators and
faithfulness, the faithful quotient, nilpotency, radicals and the structure
checks) is trialg.structure, which only the commands that run it import;
TriAlgebra.faithfulness imports it on its first call.
"""

from __future__ import annotations

import itertools
import os
from math import lcm

from .errors import (
    DimMismatch,
    FieldMismatch,
    InputError,
    NonAssociative,
    NotInvertible,
    TheoremViolation,
    UnitLawViolation,
    ZeroModule,
)
from .exactla import (
    Field,
    LinMap,
    Subspace,
    _dense,
    _eliminate,
    _merge,
    _sorted_nonzero,
    _sparse,
    canonical_row,
    derived,
    field_values,
    integer_form,
    integer_vector,
    is_nonzero,
    nonzero_rows,
    span_coefficients,
)

DEFAULT_BUDGET = 10**6


def enumeration_budget() -> int:
    """Element-enumeration budget; override with TRIALG_BUDGET."""
    raw = os.environ.get("TRIALG_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    try:
        return int(raw)
    except ValueError as exc:
        raise InputError("TRIALG_BUDGET must be an integer, got %r" % (raw,)) from exc


class SparseTable(tuple):
    """Sparse product table: entry [i][j] lists the nonzero (k, c) of the
    product of basis vectors i and j.

    Built once per algebra, bimodule or bilinear map, it keeps in its store
    (exactla.derived, its one attribute) these tables, each made on first
    use: its transpose (entry [j][i] = entry [i][j]), its negation (negated(),
    the table of minus the product) and, over Q, its integer form
    (exactla.integer_form).
    """

    def transpose(self) -> "SparseTable":
        return derived(self, "transpose", lambda: SparseTable(zip(*self)))

    def negated(self, field: Field) -> "SparseTable":
        """The table of minus the product, its constants negated in field."""
        neg = field.neg
        return derived(self, "negated", lambda: SparseTable(tuple(tuple((k, neg(c)) for k, c in vec) for vec in row)
                                                            for row in self))


def _table_apply(field: Field, table: SparseTable, x, y, dim: int) -> tuple:
    """The dense sum_ij x_i y_j (e_i * e_j) for dense x, y (FinAlgebra.mul_vec,
    BilinMap.apply): the reference _mul_map's sparse maps are tested against."""
    zero, add, mul = field.zero, field.add, field.mul
    acc = [zero] * dim
    for i, xi in enumerate(x):
        if xi:
            row = table[i]
            for j, yj in enumerate(y):
                if yj and row[j]:
                    f = mul(xi, yj)
                    for k, c in row[j]:
                        acc[k] = add(acc[k], mul(f, c))
    return tuple(acc)


def _sparse_table(tensor) -> SparseTable:
    """The SparseTable of a product given as an order-3 tensor of structure
    constants, or as rows of the vectors of its products."""
    return SparseTable(tuple(map(_sparse, row)) for row in tensor)


def _coerced_table(field: Field, tensor, shape: tuple, what: str) -> SparseTable:
    """The SparseTable of a dense order-3 tensor of the given shape, every
    constant coerced into field: the input of the public constructors."""
    coerce = field.coerce
    tensor = [[tuple(map(coerce, vec)) for vec in row] for row in tensor]
    d0, d1, d2 = shape
    if len(tensor) != d0 or any(len(row) != d1 or any(len(vec) != d2 for vec in row) for row in tensor):
        raise DimMismatch(what)
    return _sparse_table(tensor)


def _tensor_entries(field: Field, table: SparseTable) -> list:
    """The [i, j, k, coeff] entries of a table in (i, j, k) order (io's wire format)."""
    fmt = field.format
    return [[i, j, k, fmt(c)]
            for i, row in enumerate(table)
            for j, vec in enumerate(row)
            for k, c in vec]


def _integer_terms(p: int, table, X, terms) -> tuple:
    """The one term lifting of product_rule_failure and product_rule_rows:
    (S, m_X, X's columns, table, terms as (P, Q, table_t, m_t)) on the integer
    forms (LinMap.lifted, exactla.integer_form), as described there; an open
    map (None, X or a Q_t) lifts with factor 1, and table None is no X term."""
    dx, xc = (1, None) if X is None else X.lifted()
    dt, xtab = integer_form(p, table)
    den = xden = dx * dt
    lifted = []
    for P, Q, tab in terms:
        (dp, pc), (dt, tints) = P.lifted(), integer_form(p, tab)
        dq, qc = (1, None) if Q is None else Q.lifted()
        lifted.append([pc, qc, tints, dp * dq * dt])
        den = lcm(den, dp * dq * dt)
    for term in lifted:  # m_t = S / d_t
        term[3] = den // term[3]
    return den, den // xden, xc, xtab, lifted


def product_rule_failure(table, X, terms, order=None) -> tuple | None:
    """First basis pair (i, j) where X(e_i * e_j) - sum_t P_t(e_i) *_t Q_t(e_j)
    is nonzero, with that residual; None when the identity holds on every pair.

    The pairs are visited in the given order, row-major over table by default.
    Every map identity of sigmamaps is decided at one twist sigma (the
    identity for an untwisted kind).  A derivation-type identity
    Y(xy) = sigma(x) Y(y) + Y(x) y with sigma multiplicative holds on every
    pair once it holds on the pairs (s, j) with e_s in
    FinAlgebra.generators(), since the x at which it holds for every y form a
    subalgebra; sigmamaps._derivation_type_failure passes those pairs first,
    and all pairs only after a failure there.
    Products are SparseTables, entry [i][j] the nonzero (k, c) of e_i * e_j
    (FinAlgebra._pairs, Bimodule._left_pairs / _right_pairs, or a transpose
    or negation of one); each term is a triple (P_t, Q_t, table_t) of maps and
    a table.  A map is a LinMap, read through its sparse columns.  An
    identity with no X term passes X = None; its residual lies where the first
    Q_t maps.

    The residual is accumulated in integers by the same code over both
    fields.  Every map and table is read in its integer form (LinMap.lifted,
    exactla.integer_form), f = f' / d_f and table_t = table_t' / d_t with f',
    table_t' integral: over F_p d = 1 and f' the residues themselves.  Term t
    contributes P_t' Q_t' table_t' / (d_P d_Q d_t) and X contributes
    X' table' / (d_X d_table); one integer accumulator holds S times the
    residual, for S the least common multiple of these denominators, each
    contribution multiplied by S over its own denominator (m_t, m_X).  A pair
    fails when acc is nonzero in the field (exactla.is_nonzero), and reports
    acc / S.
    """
    out = X if X is not None else terms[0][1]
    field = out.field
    p = field.characteristic
    den, xm, xc, xtab, sparse_terms = _integer_terms(p, None if X is None else table, X, terms)
    if order is None:
        order = itertools.product(range(len(table)), range(len(table[0]) if table else 0))
    for i, j in order:
        acc = {}
        if xc is not None:
            for k, c in xtab[i][j]:
                c *= xm
                for l, v in xc[k]:
                    acc[l] = acc.get(l, 0) + c * v
        for pc, qc, tab, m in sparse_terms:
            qcj = qc[j]
            if qcj:
                for a, u in pc[i]:
                    trow = tab[a]
                    u *= m
                    for b, w in qcj:
                        prods = trow[b]
                        if prods:
                            uw = u * w
                            for l, c in prods:
                                acc[l] = acc.get(l, 0) - uw * c
        if acc and is_nonzero(p, acc):
            return (i, j), tuple(_dense(field.zero, out.dst_dim, field_values(p, den, acc).items()))
    return None


def polarized_passes(terms, n: int) -> tuple:
    """The two passes, each (terms, basis pairs), that decide the quadratic
    identity sum_t P_t(x) *_t Q_t(x) = 0 on n coordinates: the singles (i, i)
    with the terms, then the pairs i < j in lexicographic order with the terms
    and their swaps (Q_t, P_t, table_t transposed), the polarization
    q(e_i, e_j) = P_t(e_i) Q_t(e_j) + P_t(e_j) Q_t(e_i).  As q(sum_i x_i e_i)
    = sum_i x_i^2 q(e_i) + sum_{i<j} x_i x_j q(e_i, e_j), both vanish exactly
    when the identity holds at every element, in every characteristic.
    """
    swapped = tuple((q, p, tab.transpose()) for p, q, tab in terms)
    return ((terms, [(i, i) for i in range(n)]),
            (terms + swapped, itertools.combinations(range(n), 2)))


def quadratic_failure(terms, n: int) -> tuple | None:
    """The first failure in the passes of polarized_passes, as
    product_rule_failure reports it: ((i, i), residual) at a single basis
    vector, ((i, j), the polarization) at a pair; None when both vanish."""
    for pass_terms, pairs in polarized_passes(terms, n):
        bad = product_rule_failure(None, None, pass_terms, pairs)
        if bad:
            return bad
    return None


def product_rule_rows(table, terms, n: int, order=None) -> tuple:
    """Constraint rows of a product rule in an unknown square map X on n
    coordinates, the residual of product_rule_failure with X left open, as
    (scale, blocks) with every coefficient a Python int.

    X[k][l], the coefficient of e_k in X(e_l), is unknown k*n + l.  Each term
    (P_t, Q_t, table_t) is as in product_rule_failure with None standing for X
    in exactly one slot.  The residual starts with X(e_i * e_j) over table; an
    identity with no such term passes table = None and an explicit order.  The
    basis pairs are taken in the given order, row-major over table by default,
    as in product_rule_failure.  blocks yields per pair the nonzero rows
    {unknown: coefficient}, keyed by ascending output coordinate.

    The terms are lifted as in product_rule_failure (_integer_terms), X with
    factor 1, and each row is scale times the row of the residual: scale is
    the least common multiple of the denominators d_table of X's table and
    d_K d_t of each term (K its known map, t its table), 1 over F_p, where
    the coefficients are residues (exactla.nonzero_rows).
    """
    # a term X(x) *_t Q(y) is Q(y) *_t' X(x) over the transposed table t'; per
    # term keep the known map's columns, its factor S / (d_K d_t), whether it
    # is P, and per basis vector of its side the nonzero products with each
    # basis vector of X's side
    known = [(P, None, tab) if Q is None else (Q, None, tab.transpose()) for P, Q, tab in terms]
    p = known[0][0].field.characteristic
    scale, xm, _, xtab, lifted = _integer_terms(p, table, None, known)
    sparse_terms = [(cols, m, Q is None, [[(v, prods) for v, prods in enumerate(row) if prods] for row in tab])
                    for (cols, _, tab, m), (_, Q, _) in zip(lifted, terms)]
    if order is None:
        order = itertools.product(range(len(table)), range(len(table[0]) if table else 0))

    def blocks():
        for i, j in order:
            acc = {}
            if xtab is not None:
                for k, c in xtab[i][j]:
                    c *= xm
                    for o in range(n):
                        row = acc.setdefault(o, {})
                        key = o * n + k
                        row[key] = row.get(key, 0) + c
            for cols, m, p_known, nonzero in sparse_terms:
                fixed, free = (i, j) if p_known else (j, i)
                for s, u in cols[fixed]:
                    u *= m
                    for v, prods in nonzero[s]:
                        key = v * n + free
                        for o, c in prods:
                            row = acc.setdefault(o, {})
                            row[key] = row.get(key, 0) - u * c
            yield nonzero_rows(p, acc)

    return scale, blocks()


def _generating_set(pairs: SparseTable, p: int) -> tuple:
    """The ascending indices of a set S of basis vectors that generates the
    algebra of this product table as a non-unital algebra, picked greedily.

    The basis vectors are visited in ascending order of how often e_k occurs
    in a product e_a e_b with a != k != b (ties by index), so that the
    vectors that products rarely make come first.  e_i is kept when it lies outside the
    span C of all products of the vectors kept so far.  C is the least
    subspace that holds the kept vectors and is closed under left
    multiplication by each of them, and it is kept so as vectors arrive: each
    new vector of C is multiplied by every kept e_s, and a new e_s multiplies
    every vector C already has.  C is held as canonical integer echelon rows
    (exactla.canonical_row) of products on the integer form of the table (a
    positive multiple of the true products, which spans the same space),
    each with its least column as lead, reduced with exactla._eliminate.  The
    walk stops once C is the whole algebra; at worst S is the whole basis.
    """
    n = len(pairs)
    tab = integer_form(p, pairs)[1]
    made = [0] * n
    for a, row in enumerate(tab):
        for b, prods in enumerate(row):
            for k, _ in prods:
                if k != a and k != b:
                    made[k] += 1
    pivots = {}  # the echelon rows of C by lead column; a row is never changed once added
    kept = []

    def reduced(row: dict) -> dict:
        while True:
            hits = [k for k in row if k in pivots]
            if not hits:
                return row
            k = min(hits)
            _eliminate(row, k, pivots[k], p)

    def added(row: dict) -> dict:
        row = canonical_row(p, row)
        pivots[min(row)] = row
        return row

    for i in sorted(range(n), key=made.__getitem__):
        if len(pivots) == n:
            break
        row = reduced({i: 1})
        if not row:
            continue
        kept.append(i)
        # (left factors, vector): the products still to take
        todo = [((i,), v) for v in pivots.values()]
        todo.append((kept, added(row)))
        while todo and len(pivots) < n:
            factors, vec = todo.pop()
            products = {}  # e_s vec, by the position of s in factors
            for t, s in enumerate(factors):
                trow, acc = tab[s], {}
                products[t] = acc
                for j, c in vec.items():
                    for k, v in trow[j]:
                        acc[k] = acc.get(k, 0) + c * v
            for row in nonzero_rows(p, products).values():
                row = reduced(row)
                if row:
                    todo.append((kept, added(row)))
    return tuple(sorted(kept))


class FinAlgebra:
    """Unital associative algebra given by structure constants.

    The structure constants are stored only as the SparseTable _pairs.  The
    public constructor takes them as a dense tensor mul[i][j][k] (coefficient
    of e_k in e_i * e_j), coerces every constant and unit entry through
    field.coerce and converts the tensor once; FinAlgebra._trusted takes a
    table and unit of raw values of the field as they are.  Both check the
    shapes, the unit laws and associativity.
    """

    __slots__ = ("field", "dim", "basis_names", "unit", "_pairs", "_derived")

    def __init__(self, field: Field, mul, unit, basis_names=None):
        dim = len(mul)
        table = _coerced_table(field, mul, (dim, dim, dim), "structure tensor is not dim^3")
        self._set(field, table, tuple(map(field.coerce, unit)), basis_names)

    @classmethod
    def _trusted(cls, field: Field, table: SparseTable, unit, basis_names=None) -> "FinAlgebra":
        """An algebra of a product table and unit that are raw values of
        field already (made by trialg, or coerced once by an io loader), taken
        without coercion; the unit length, basis names and _validate are still
        checked."""
        self = object.__new__(cls)
        self._set(field, table, tuple(unit), basis_names)
        return self

    def _set(self, field: Field, table: SparseTable, unit: tuple, basis_names):
        dim = len(table)
        if len(unit) != dim:
            raise DimMismatch("unit vector length %d for dim %d" % (len(unit), dim))
        if basis_names is None:
            basis_names = tuple("e%d" % i for i in range(dim))
        else:
            basis_names = tuple(str(n) for n in basis_names)
            if len(basis_names) != dim:
                raise DimMismatch("need %d basis names" % dim)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "basis_names", basis_names)
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "_pairs", table)
        self._validate()

    def __setattr__(self, *a):
        raise AttributeError("FinAlgebra is immutable")

    # -- construction checks ------------------------------------------------

    def _validate(self):
        p = self.field.characteristic
        bad = _unit_law_failure(self._pairs, self.unit, p)
        if bad is not None:
            raise UnitLawViolation(bad)
        bad = _associativity_failure(self._pairs, p)
        if bad:
            raise NonAssociative(*bad)

    def identity_map(self) -> LinMap:
        """The identity map of this algebra, kept in the instance's store
        (exactla.derived), so that its lifted columns are made once too."""
        return derived(self, "identity", lambda: LinMap.identity(self.field, self.dim))

    def generators(self) -> tuple:
        """The ascending indices of basis vectors that generate this algebra
        as a non-unital algebra: every element is a linear combination of
        products of them, kept in the store (_generating_set, exactla.derived)."""
        return derived(self, "generators", lambda: _generating_set(self._pairs, self.field.characteristic))

    def bracket_map(self) -> LinMap:
        """The commutator map [., .] : T (x) T -> T (_bracket_map), kept in the store."""
        return derived(self, "bracket_map", lambda: _bracket_map(self))

    def center_map(self, sigma: LinMap) -> LinMap:
        """x -> ([e_i, x]_sigma)_i (_center_map), kept in the store under ("center_map", sigma)."""
        return derived(self, ("center_map", sigma), lambda: _center_map(self, sigma))

    # -- vector arithmetic ----------------------------------------------------

    def basis_vector(self, i: int) -> tuple:
        zero, one = self.field.zero, self.field.one
        return tuple(one if k == i else zero for k in range(self.dim))

    def zero_vector(self) -> tuple:
        return tuple([self.field.zero] * self.dim)

    def coerce_vector(self, vec) -> tuple:
        vec = tuple(self.field.coerce(v) for v in vec)
        if len(vec) != self.dim:
            raise DimMismatch("vector length %d for dim %d" % (len(vec), self.dim))
        return vec

    def mul_vec(self, x, y) -> tuple:
        return _table_apply(self.field, self._pairs, x, y, self.dim)

    def add_vec(self, x, y) -> tuple:
        add = self.field.add
        return tuple(add(a, b) for a, b in zip(x, y))

    def sub_vec(self, x, y) -> tuple:
        sub = self.field.sub
        return tuple(sub(a, b) for a, b in zip(x, y))

    def left_mul_mat(self, x) -> LinMap:
        """The map y -> x y of an element x of raw values (_mul_map)."""
        return _mul_map(self.field, self._pairs, x, self.dim, self.dim)

    def invert(self, x) -> tuple:
        """Two-sided inverse of x, or NotInvertible: x y = 1 solved on the columns of L_x, then y x = 1 checked."""
        y = span_coefficients(self.field, [(col,) for col in self.left_mul_mat(x).columns], (_sparse(self.unit),))
        if y is None or self.mul_vec(y, x) != self.unit:
            raise NotInvertible("element has no inverse")
        return y

    def is_commutative(self) -> bool:
        """e_i e_j = e_j e_i on every basis pair: the product table is symmetric."""
        return self._pairs == self._pairs.transpose()

    def format_vector(self, vec) -> str:
        field = self.field
        terms = []
        for name, v in zip(self.basis_names, vec):
            if not v:
                continue
            s = field.format(v)
            if s == "1":
                terms.append(name)
            elif s == "-1":
                terms.append("-" + name)
            else:
                terms.append("%s*%s" % (s, name))
        if not terms:
            return "0"
        out = terms[0]
        for t in terms[1:]:
            out += (" - " + t[1:]) if t.startswith("-") else (" + " + t)
        return out

    def __eq__(self, other):
        return (
            isinstance(other, FinAlgebra)
            and self.field == other.field
            and self._pairs == other._pairs
            and self.unit == other.unit
        )

    def __repr__(self):
        return "FinAlgebra(dim=%d, field=%r)" % (self.dim, self.field)


def _mul_map(field: Field, table: SparseTable, x, src_dim: int, dst_dim: int) -> LinMap:
    """The map y -> x * y, src_dim -> dst_dim: column j is sum_a x_a (e_a * e_j),
    read off table (entry [a][j] the (k, c) of e_a * e_j), for x of raw values.
    A table with no rows (a transpose when M = 0) does not carry the shape."""
    zero, add, mul = field.zero, field.add, field.mul
    cols = [{} for _ in range(src_dim)]
    for xa, row in zip(x, table):
        if xa:
            for col, prods in zip(cols, row):
                for k, c in prods:
                    col[k] = add(col.get(k, zero), mul(xa, c))
    return LinMap._trusted(field, map(_sorted_nonzero, cols), dst_dim)


def _unit_law_failure(pairs: SparseTable, unit: tuple, p: int) -> int | None:
    """The least i with 1 e_i != e_i or e_i 1 != e_i, or None, read on the
    integer forms of the table and the unit like _associativity_failure,
    where 1 e_i should be e_i times both denominators.  Both sides of every i
    are accumulated in one pass over the nonzero products: e_a e_b adds
    u_a (e_a e_b) to 1 e_b and u_b (e_a e_b) to e_a 1."""
    (den, tab), (du, ints) = integer_form(p, pairs), integer_vector(p, unit)
    one = den * du
    cols = range(len(tab))
    left = [{i: -one} for i in cols]  # 1 e_i - e_i
    right = [{i: -one} for i in cols]  # e_i 1 - e_i
    for a, row in enumerate(tab):
        ua, acc_right = ints[a], right[a]
        for b in itertools.compress(cols, row):
            prods, ub = row[b], ints[b]
            if ua:
                acc = left[b]
                for k, c in prods:
                    acc[k] = acc.get(k, 0) + ua * c
            if ub:
                for k, c in prods:
                    acc_right[k] = acc_right.get(k, 0) + ub * c
    for i in cols:
        if is_nonzero(p, left[i]) or is_nonzero(p, right[i]):
            return i
    return None


def _associativity_failure(pairs: SparseTable, p: int) -> tuple | None:
    """The least basis triple (i, j, k), lexicographically, with
    (e_i e_j) e_k != e_i (e_j e_k), or None when the table is associative.

    Both sides are accumulated on the integer form of the table
    (exactla.integer_form), where they carry the square of its denominator,
    and tested once per triple.  Only the triples where a side can be
    nonzero are visited, in increasing order: the left side needs
    e_i e_j != 0, the right side an e_a with e_i e_a != 0 in e_j e_k.  So per i
    the j are those with e_i e_j != 0 and those that an index a -> j, built
    once, lists under such an a; the k are those with e_j e_k != 0 or
    e_a e_k != 0 for an e_a in e_i e_j, or, when e_i e_j = 0, those where
    e_j e_k meets the support of e_i.
    """
    tab = integer_form(p, pairs)[1]
    cols = range(len(tab))
    support = [list(itertools.compress(cols, row)) for row in tab]  # the k with e_r e_k != 0
    reach = [set() for _ in cols]  # the j with e_a in the support of some e_j e_k, per a
    for j, row in enumerate(tab):
        for k in support[j]:
            for a, _ in row[k]:
                reach[a].add(j)
    for i, row in enumerate(tab):
        left = set(support[i])
        for j in sorted(left.union(*[reach[a] for a in left])):
            ij, jrow = row[j], tab[j]
            if ij:
                ks = sorted(set(support[j]).union(*[support[a] for a, _ in ij]))
            else:
                ks = [k for k in support[j] if any(a in left for a, _ in jrow[k])]
            for k in ks:
                jk = jrow[k]
                acc = {}
                for a, c in ij:
                    for b, d in tab[a][k]:
                        acc[b] = acc.get(b, 0) + c * d
                for a, c in jk:
                    for b, d in row[a]:
                        acc[b] = acc.get(b, 0) - c * d
                if is_nonzero(p, acc):
                    return i, j, k
    return None


# ---------------------------------------------------------------------------
# bimodules and the triangular construction
# ---------------------------------------------------------------------------


class Bimodule:
    """(A, B)-bimodule data, stored as the SparseTables of its two actions:
    _left_pairs[a][m] lists the nonzero (m', c) of e_a . m, _right_pairs[m][b]
    those of m . e_b.

    The public constructor takes the actions as dense tensors l[a][m][m'] and
    r[m][b][m'], coerces every constant and converts them once;
    Bimodule._trusted takes tables of raw values of the field as they are.
    """

    __slots__ = ("field", "dim_a", "dim_m", "dim_b", "basis_names", "_left_pairs", "_right_pairs")

    def __init__(self, field: Field, dim_a: int, dim_m: int, dim_b: int, left, right, basis_names=None):
        left = _coerced_table(field, left, (dim_a, dim_m, dim_m),
                              "left action tensor must be dimA x dimM x dimM")
        right = _coerced_table(field, right, (dim_m, dim_b, dim_m),
                               "right action tensor must be dimM x dimB x dimM")
        self._set(field, dim_a, dim_m, dim_b, left, right, basis_names)

    @classmethod
    def _trusted(cls, field: Field, dim_a: int, dim_m: int, dim_b: int, left_table: SparseTable,
                 right_table: SparseTable, basis_names=None) -> "Bimodule":
        """A bimodule of action tables of raw values of field already, taken
        without coercion (as FinAlgebra._trusted); the basis names are still
        checked."""
        self = object.__new__(cls)
        self._set(field, dim_a, dim_m, dim_b, left_table, right_table, basis_names)
        return self

    def _set(self, field: Field, dim_a: int, dim_m: int, dim_b: int, left: SparseTable,
             right: SparseTable, basis_names):
        if basis_names is None:
            basis_names = tuple("m%d" % i for i in range(dim_m))
        else:
            basis_names = tuple(basis_names)
            if len(basis_names) != dim_m:
                raise DimMismatch("need %d bimodule basis names, got %d" % (dim_m, len(basis_names)))
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "dim_a", dim_a)
        object.__setattr__(self, "dim_m", dim_m)
        object.__setattr__(self, "dim_b", dim_b)
        object.__setattr__(self, "basis_names", basis_names)
        object.__setattr__(self, "_left_pairs", left)
        object.__setattr__(self, "_right_pairs", right)

    def __setattr__(self, *a):
        raise AttributeError("Bimodule is immutable")


def unit_m(field: Field, dm: int, j: int) -> list:
    """The j-th basis vector of a dm-dimensional bimodule, in M-coordinates."""
    m = [field.zero] * dm
    m[j] = field.one
    return m


def basis_and_pair_sums(field: Field, n: int) -> list[tuple]:
    """e_0, ..., e_{n-1}, then e_i + e_j for i < j in lexicographic order."""
    vecs = [tuple(unit_m(field, n, i)) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = unit_m(field, n, i)
            v[j] = field.one
            vecs.append(tuple(v))
    return vecs


class TriAlgebra:
    """Trian(A, M, B) with its total algebra, Peirce idempotents, and block maps."""

    __slots__ = ("A", "M", "B", "total", "p", "q", "range_a", "range_m", "range_b", "_derived")

    def __init__(self, A: FinAlgebra, M: Bimodule, B: FinAlgebra, total: FinAlgebra):
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "total", total)
        da, dm, db = A.dim, M.dim_m, B.dim
        object.__setattr__(self, "range_a", range(0, da))
        object.__setattr__(self, "range_m", range(da, da + dm))
        object.__setattr__(self, "range_b", range(da + dm, da + dm + db))
        p = list(total.zero_vector())
        for i, v in zip(self.range_a, A.unit):
            p[i] = v
        q = list(total.zero_vector())
        for i, v in zip(self.range_b, B.unit):
            q[i] = v
        object.__setattr__(self, "p", tuple(p))
        object.__setattr__(self, "q", tuple(q))

    def __setattr__(self, *a):
        raise AttributeError("TriAlgebra is immutable")

    @property
    def dim(self) -> int:
        return self.total.dim

    @property
    def field(self) -> Field:
        return self.total.field

    # -- block plumbing -----------------------------------------------------

    def part_a(self, x) -> tuple:
        return tuple(x[i] for i in self.range_a)

    def part_m(self, x) -> tuple:
        return tuple(x[i] for i in self.range_m)

    def part_b(self, x) -> tuple:
        return tuple(x[i] for i in self.range_b)

    def assemble(self, a, m, b) -> tuple:
        """The element a + m + b from coordinates (input values) in A, M and B."""
        v = list(self.total.zero_vector())
        for block, part in ((self.range_a, a), (self.range_m, m), (self.range_b, b)):
            for i, c in zip(block, part):
                v[i] = self.field.coerce(c)
        return tuple(v)

    def embed_m(self, m) -> tuple:
        return self.assemble((), m, ())

    def subspace_m(self) -> Subspace:
        return block_span(self, (), True, ())

    # -- bimodule actions inside the blocks ----------------------------------

    def left_action(self, a) -> LinMap:
        """m -> a . m on M, for a in A-coordinates of raw values (_mul_map)."""
        return _mul_map(self.field, self.M._left_pairs, a, self.M.dim_m, self.M.dim_m)

    def right_action(self, b) -> LinMap:
        """m -> m . b on M, for b in B-coordinates of raw values (_mul_map)."""
        return _mul_map(self.field, self.M._right_pairs.transpose(), b, self.M.dim_m, self.M.dim_m)

    def left_action_on(self, m) -> LinMap:
        """a -> a . m from A to M, for m in M-coordinates of raw values (_mul_map)."""
        return _mul_map(self.field, self.M._left_pairs.transpose(), m, self.A.dim, self.M.dim_m)

    def right_action_on(self, m) -> LinMap:
        """b -> m . b from B to M, for m in M-coordinates of raw values (_mul_map)."""
        return _mul_map(self.field, self.M._right_pairs, m, self.B.dim, self.M.dim_m)

    def faithfulness(self) -> tuple[bool, bool]:
        """(left, right) faithfulness of M, read off structure.annihilators(self)
        kept in the store; structure is imported on the first call."""
        def make():
            from .structure import annihilators

            return annihilators(self)
        ann = derived(self, "annihilators", make)
        return ann.left_faithful, ann.right_faithful

    def is_faithful(self) -> bool:
        lf, rf = self.faithfulness()
        return lf and rf

    def __eq__(self, other):
        return isinstance(other, TriAlgebra) and self.total == other.total and \
            self.A.dim == other.A.dim and self.B.dim == other.B.dim

    def __repr__(self):
        return "TriAlgebra(dims=%d+%d+%d, field=%r)" % (self.A.dim, self.M.dim_m, self.B.dim, self.field)


def check_corner_dims(A: FinAlgebra, dim_a: int, dim_b: int, B: FinAlgebra):
    """Reject a bimodule sized for corners of dimensions (dim_a, dim_b) other than A, B."""
    if dim_a != A.dim or dim_b != B.dim:
        raise DimMismatch("bimodule tensors sized for (%d, %d), algebras are (%d, %d)"
                          % (dim_a, dim_b, A.dim, B.dim))


def build_triangular(A: FinAlgebra, M: Bimodule, B: FinAlgebra, allow_zero_m: bool = False,
                     basis_names=None) -> TriAlgebra:
    """Assemble Trian(A, M, B) and validate the total algebra.

    M = 0 is rejected unless allow_zero_m is set (diagonal algebras are only
    meaningful for the block-splitting results).
    """
    if A.field != M.field or B.field != M.field:
        raise FieldMismatch("A, M, B must share one field")
    check_corner_dims(A, M.dim_a, M.dim_b, B)
    if M.dim_m == 0 and not allow_zero_m:
        raise ZeroModule("M = 0 requires allow_zero_m=True")
    field = A.field
    da, dm, db = A.dim, M.dim_m, B.dim

    def moved(row, off: int) -> tuple:
        return tuple(tuple((off + k, c) for k, c in prods) for prods in row)

    # each corner and action table in its block of coordinates (A, M, B)
    table = SparseTable(
        [A._pairs[i] + moved(M._left_pairs[i], da) + ((),) * db for i in range(da)]
        + [((),) * (da + dm) + moved(row, da) for row in M._right_pairs]
        + [((),) * (da + dm) + moved(row, da + dm) for row in B._pairs])
    unit = A.unit + (field.zero,) * dm + B.unit
    if basis_names is None:
        basis_names = tuple(A.basis_names) + tuple(M.basis_names) + tuple(B.basis_names)
    total = FinAlgebra._trusted(field, table, unit, basis_names)
    tri = TriAlgebra(A, M, B, total)
    _check_peirce(tri)
    return tri


def _check_peirce(tri: TriAlgebra):
    t = tri.total
    p, q = tri.p, tri.q
    if t.mul_vec(p, p) != p or t.mul_vec(q, q) != q:
        raise TheoremViolation("p, q are not idempotent")
    z = t.zero_vector()
    if t.mul_vec(p, q) != z or t.mul_vec(q, p) != z:
        raise TheoremViolation("p, q are not orthogonal")
    if t.add_vec(p, q) != t.unit:
        raise TheoremViolation("p + q != 1")


# ---------------------------------------------------------------------------
# the sigma-commutator, the commutator map and block spans
# ---------------------------------------------------------------------------


def twisted_ad(alg: FinAlgebra, sigma: LinMap, x) -> LinMap:
    """The map e_i -> [e_i, x]_sigma = sigma(e_i) x - x e_i, the one
    evaluation of the sigma-commutator in trialg: R_x o sigma - L_x, read off
    the product table and its transpose.  DimMismatch when sigma is not a map
    of alg to itself or x (coerced) has another length."""
    n = alg.dim
    if (sigma.src_dim, sigma.dst_dim) != (n, n):
        raise DimMismatch("twist is %d->%d on an algebra of dim %d" % (sigma.src_dim, sigma.dst_dim, n))
    x = alg.coerce_vector(x)
    return _mul_map(alg.field, alg._pairs.transpose(), x, n, n).compose(sigma) - alg.left_mul_mat(x)


def _bracket_map(alg: FinAlgebra) -> LinMap:
    """The commutator [., .] : T (x) T -> T as one map from the n^2 basis pairs:
    column i*n + j is [e_i, e_j] = e_i e_j - e_j e_i, read off the product table and its transpose."""
    field, pairs = alg.field, alg._pairs
    return LinMap._trusted(field, (_merge(u, v, field.sub, field.zero) for row, trow in zip(pairs, pairs.transpose())
                                   for u, v in zip(row, trow)), alg.dim)


def _center_map(alg: FinAlgebra, sigma: LinMap) -> LinMap:
    """x -> ([e_i, x]_sigma)_i into n copies of alg (e_o of copy i at i*n + o),
    column j read off twisted_ad(alg, sigma, e_j); its kernel is the sigma-center."""
    n = alg.dim
    return LinMap._trusted(alg.field, (
        tuple((i * n + o, c) for i, col in enumerate(twisted_ad(alg, sigma, alg.basis_vector(j)).columns)
              for o, c in col)
        for j in range(n)), n * n)


def block_span(tri: TriAlgebra, rows_a, with_m: bool, rows_b) -> Subspace:
    """The span in the total algebra of sparse rows in A-coordinates, of M
    (its unit rows) when with_m, and of sparse rows in B-coordinates, each
    row moved into its block of coordinates."""
    one, off_b = tri.field.one, tri.A.dim + tri.M.dim_m
    rows = [dict(row) for row in rows_a]
    rows += [{i: one} for i in tri.range_m] if with_m else []
    rows += [{off_b + k: c for k, c in row} for row in rows_b]
    return Subspace._from_rows(tri.field, tri.dim, rows)
