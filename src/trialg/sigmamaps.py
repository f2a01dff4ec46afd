"""Linear and bilinear maps on algebras, twisted-map predicates, and the
sigma-commutator calculus, whose one evaluation is algcore.twisted_ad.

Matrix convention everywhere: entry [k][j] of a map matrix is the coefficient
of e_k in the image of e_j (images live in the columns).  A bilinear map is
stored as a SparseTable, like the product of an algebra: entry [i][j] lists
the nonzero (k, c) with c the coefficient of e_k in D(e_i, e_j).

Every map identity is decided at one twist sigma, verified to be an
automorphism: d(xy) = d(x) y + sigma(x) d(y) for the derivation kinds (of a
map, or of each slot of a bilinear map), sigma(x) Theta(x) = Theta(x) x for
the commuting kinds.  An untwisted kind is its sigma-kind at sigma = 1.  Each
kind is declared once, in MAP_KINDS: the identity it satisfies, its arity,
and whether it is twisted; classify_linear, classify_bilinear and
spaces.solve_space read that table and resolve the twist by one rule
(map_twist).  A pair of twists (alpha, beta) needs no predicate of its own:
d is an (alpha, beta)-map exactly when alpha^{-1} d is a sigma-map for
sigma = alpha^{-1} beta.

Every product rule X(x y) = sum_t P_t(x) Q_t(y) (multiplicativity, the twisted
derivation rule in each slot, the block identities on triangular algebras) is
checked on basis pairs by one evaluator, algcore.product_rule_failure.  The
sigma-derivation rule, of a map or of a biderivation slot, is checked first on
the pairs (s, j) with e_s in the generating set of the algebra
(FinAlgebra.generators) when sigma is known to be multiplicative;
_derivation_type_failure states the lemma that makes this enough.

Commuting-style conditions are quadratic in the argument; they are checked on
singles + polarized pairs by the same evaluator (algcore.quadratic_failure):
first at every basis vector e_i, then at every pair i < j, where the residual
is the polarization P(e_i) Q(e_j) + P(e_j) Q(e_i) (algcore.polarized_passes),
which decides the condition at every element, in every characteristic.  Each
identity is stated once, in derivation_terms (of a map or a biderivation
slot) and commuting_terms; the solve rows of spaces read the same terms on
the same pairs through algcore.product_rule_rows.

The evaluator reads every map and table in its integer form (LinMap.lifted,
exactla.integer_form), by the same code over both fields: over F_p the
residues of a LinMap's sparse columns as they are, over Q integers over a
common denominator, which sigma and the identity (FinAlgebra.identity_map)
keep in their stores, lifted once however many maps are checked against
them.  The minus sign of a commuting term lives in the negated table.

automorphism_verdict keeps each passing verdict in the algebra's store
(exactla.derived); a failing map is kept nowhere.  The block decomposition of
an automorphism of a triangular algebra (AutBlocks, block_decompose), the
twisted center read off it and the inner and scaling automorphisms are in
trialg.structure.

MapKind, Witness and Verdict are plain immutable classes with __slots__, like
FinAlgebra, so that the solve path imports no dataclasses.
"""

from __future__ import annotations

import itertools

from .algcore import (
    FinAlgebra,
    SparseTable,
    _coerced_table,
    _sparse_table,
    _table_apply,
    _tensor_entries,
    product_rule_failure,
    quadratic_failure,
    twisted_ad,
)
from .errors import (
    DimMismatch,
    FieldMismatch,
    InputError,
    SigmaMissing,
    SigmaNotAutomorphism,
    TheoremViolation,
)
from .exactla import Field, LinMap, _merge, derived, integer_vector, is_nonzero


class MapKind:
    """A kind of map: the identity it satisfies ("derivation" or
    "commuting"), its arity, and whether it is twisted by a given
    automorphism sigma or untwisted, the case sigma = 1."""

    __slots__ = ("identity", "bilinear", "twisted")

    def __init__(self, identity: str, bilinear: bool, twisted: bool):
        object.__setattr__(self, "identity", identity)
        object.__setattr__(self, "bilinear", bilinear)
        object.__setattr__(self, "twisted", twisted)

    def __setattr__(self, *a):
        raise AttributeError("MapKind is immutable")


MAP_KINDS = {
    "derivation": MapKind("derivation", False, False),
    "sigma_derivation": MapKind("derivation", False, True),
    "biderivation": MapKind("derivation", True, False),
    "sigma_biderivation": MapKind("derivation", True, True),
    "sigma_commuting": MapKind("commuting", False, True),
    "commuting": MapKind("commuting", False, False),
}


class BilinMap:
    """Total bilinear map A x A -> A, stored as the SparseTable of its values
    (entry [i][j] lists the nonzero (k, c) of D(e_i, e_j)).  The public
    constructor coerces a dense tensor t[i][j][k]; _trusted takes a table of
    raw values made by trialg itself (as LinMap._trusted).  It keeps in its
    store (derived), made on first use, its two slot maps (slot_maps()).
    """

    __slots__ = ("field", "dim", "table", "_derived")

    def __init__(self, field: Field, tensor):
        dim = len(tensor)
        self._set(field, _coerced_table(field, tensor, (dim, dim, dim), "bilinear tensor is not dim^3"))

    def _set(self, field: Field, table: SparseTable):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "dim", len(table))
        object.__setattr__(self, "table", table)

    @classmethod
    def _trusted(cls, field: Field, table: SparseTable) -> "BilinMap":
        self = object.__new__(cls)
        self._set(field, table)
        return self

    def __setattr__(self, *a):
        raise AttributeError("BilinMap is immutable")

    @staticmethod
    def zero(field: Field, dim: int) -> "BilinMap":
        return BilinMap._trusted(field, SparseTable([((),) * dim] * dim))

    @staticmethod
    def from_function(alg: FinAlgebra, fn) -> "BilinMap":
        """Tabulate fn(e_i, e_j) over all basis pairs."""
        vals = ((alg.coerce_vector(fn(alg.basis_vector(i), alg.basis_vector(j)))
                 for j in range(alg.dim)) for i in range(alg.dim))
        return BilinMap._trusted(alg.field, _sparse_table(vals))

    def slot_maps(self) -> tuple:
        """(first, second): the slot maps for all fixed arguments at once, as
        LinMaps into n copies of the space (coordinate k*n + o for e_o in copy
        k): first e_l -> (D(e_l, e_k))_k, its columns read off row l of the
        table, second e_l -> (D(e_k, e_l))_k, off row l of its transpose."""
        n = self.dim
        return derived(self, "slot_maps", lambda: tuple(
            LinMap._trusted(self.field, [tuple((k * n + o, c) for k, vec in enumerate(row) for o, c in vec)
                                         for row in table], n * n)
            for table in (self.table, self.table.transpose())))

    def apply(self, x, y) -> tuple:
        return _table_apply(self.field, self.table, x, y, self.dim)

    def _merged(self, other: "BilinMap", op) -> "BilinMap":
        """The map with values op(self(e_i, e_j), other(e_i, e_j)), for op
        the add or sub of the field, merged entry by entry."""
        zero = self.field.zero
        return BilinMap._trusted(self.field, SparseTable(tuple(_merge(u, v, op, zero) for u, v in zip(r1, r2))
                                                         for r1, r2 in zip(self.table, other.table)))

    def __add__(self, other: "BilinMap") -> "BilinMap":
        return self._merged(other, self.field.add)

    def __sub__(self, other: "BilinMap") -> "BilinMap":
        return self._merged(other, self.field.sub)

    def is_zero(self) -> bool:
        return not any(map(any, self.table))

    def is_symmetric(self) -> bool:
        return self.table == self.table.transpose()

    def __eq__(self, other):
        return isinstance(other, BilinMap) and self.field == other.field and self.table == other.table

    def __hash__(self):
        return hash((self.field, self.table))

    def to_json(self):
        return {"dim": self.dim, "tensor": _tensor_entries(self.field, self.table)}

    def __repr__(self):
        return "BilinMap(dim=%d)" % self.dim


# ---------------------------------------------------------------------------
# verdicts and predicates
# ---------------------------------------------------------------------------


class Witness:
    """First failing evaluation of a predicate."""

    __slots__ = ("indices", "element", "description")

    def __init__(self, indices: tuple, element: tuple, description: str = ""):
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "element", element)  # the nonzero discrepancy, as a coefficient vector
        object.__setattr__(self, "description", description)

    def __setattr__(self, *a):
        raise AttributeError("Witness is immutable")


class Verdict:
    __slots__ = ("kind", "holds", "witness", "notes")

    def __init__(self, kind: str, holds: bool, witness: Witness | None = None, notes: tuple = ()):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "holds", holds)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "notes", notes)

    def __setattr__(self, *a):
        raise AttributeError("Verdict is immutable")

    def __bool__(self):
        return self.holds


def _check_square(alg: FinAlgebra, f: LinMap):
    if f.src_dim != alg.dim or f.dst_dim != alg.dim:
        raise DimMismatch("map is %d->%d on an algebra of dim %d" % (f.src_dim, f.dst_dim, alg.dim))
    if f.field != alg.field:
        raise FieldMismatch("map and algebra over different fields")


def is_endomorphism(alg: FinAlgebra, f: LinMap) -> Verdict:
    """Unital and multiplicative on all basis pairs."""
    _check_square(alg, f)
    if f.apply(alg.unit) != alg.unit:
        diff = alg.sub_vec(f.apply(alg.unit), alg.unit)
        return Verdict("endomorphism", False, Witness((-1,), diff, "f(1) - 1"))
    bad = product_rule_failure(alg._pairs, f, ((f, f, alg._pairs),))
    if bad:
        return Verdict("endomorphism", False, Witness(*bad, "f(e_i e_j) - f(e_i) f(e_j)"))
    return Verdict("endomorphism", True)


def is_automorphism(alg: FinAlgebra, f: LinMap) -> Verdict:
    v = is_endomorphism(alg, f)
    if not v.holds:
        return Verdict("automorphism", False, v.witness)
    if not f.is_bijective():
        return Verdict("automorphism", False, Witness((-1,), alg.zero_vector(), "not bijective"))
    return Verdict("automorphism", True)


def automorphism_verdict(alg: FinAlgebra, f: LinMap) -> Verdict:
    """is_automorphism, kept in the algebra instance's store under
    ("automorphism", f) once it holds, so a later check of an equal map on
    the same object returns at once; a failing verdict is not kept, and the
    map is checked again on every call.
    """
    v = derived(alg, ("automorphism", f)) or is_automorphism(alg, f)
    if v.holds:
        derived(alg, ("automorphism", f), lambda: v)
    return v


def require_automorphism(alg: FinAlgebra, sigma: LinMap | None) -> LinMap:
    """sigma itself once it is verified to be an automorphism of alg."""
    if sigma is None:
        raise SigmaMissing("this predicate needs an automorphism")
    v = automorphism_verdict(alg, sigma)
    if not v.holds:
        raise SigmaNotAutomorphism(str(v.witness.description if v.witness else "not an automorphism"))
    return sigma


def sigma_commutator_vec(alg: FinAlgebra, x, y, sigma: LinMap) -> tuple:
    """[x, y]_sigma = sigma(x) y - y x, the map twisted_ad(alg, sigma, y) at x."""
    return twisted_ad(alg, sigma, y).apply(x)


def require_holds(v: Verdict, error: type) -> None:
    """Raise error, naming the indices of v's witness, unless v holds."""
    if not v.holds:
        raise error(str(v.witness.indices if v.witness else ""))


def map_twist(kind: str, alg: FinAlgebra, sigma: LinMap | None) -> LinMap:
    """The twist of a kind of MAP_KINDS, one rule for solve and classify: a
    sigma-kind takes sigma, verified to be an automorphism of alg
    (require_automorphism); an untwisted kind takes the identity of alg and
    refuses a sigma."""
    if MAP_KINDS[kind].twisted:
        return require_automorphism(alg, sigma)
    if sigma is not None:
        raise InputError("kind %r takes no twist map" % (kind,))
    return alg.identity_map()


def derivation_terms(alg: FinAlgebra, d: LinMap | None, sigma: LinMap) -> tuple:
    """Terms of d(xy) = sigma(x) d(y) + d(x) y over the actions on d's
    target: alg's table for a map into alg or the unknown map d = None, the
    copies' (SparseTable.copies) for a slot map into n copies of alg."""
    pairs = alg._pairs
    left, right = (pairs, pairs) if d is None or d.dst_dim == alg.dim else pairs.copies()
    return ((sigma, d, left), (d, alg.identity_map(), right))


def commuting_terms(alg: FinAlgebra, theta: LinMap | None, sigma: LinMap) -> tuple:
    """Terms of the quadratic residual sigma(x) Theta(x) - Theta(x) x; theta =
    None for the unknown map.  The sign of the first term is carried by the
    negated product table, so sigma is used as it is."""
    pairs = alg._pairs
    return ((sigma, theta, pairs.negated(alg.field)), (theta, alg.identity_map(), pairs))


def _multiplicative(alg: FinAlgebra, f: LinMap) -> bool:
    """Whether f is known to be multiplicative on alg without a check: the
    identity, or a map that automorphism_verdict has passed on this instance."""
    return f is derived(alg, "identity") or derived(alg, ("automorphism", f)) is not None or f.is_identity()


def _derivation_type_failure(alg: FinAlgebra, Y: LinMap, terms: tuple, sigma: LinMap) -> tuple | None:
    """product_rule_failure(alg._pairs, Y, terms) for terms stating
    Y(xy) = sigma(x) Y(y) + Y(x) y, for Y a map into alg or into a bimodule
    over it (the copies of a biderivation slot): the same first failing pair
    in row-major order, or None.

    When sigma is multiplicative the x at which the identity holds for every
    y form a subspace closed under products: for x1, x2 in it, expanding
    Y(x1 x2 y) once at (x1, x2 y) and once at (x2, y) gives
    sigma(x1 x2) Y(y) + (sigma(x1) Y(x2) + Y(x1) x2) y, and the bracket is
    Y(x1 x2).  So the identity holds on every pair once it holds on
    S x basis for S = alg.generators(), and those pairs are checked first.
    Only a failure there leads to the row-major scan of all pairs, which then
    reports the first failing pair.  For any other sigma all pairs are
    scanned at once.
    """
    if _multiplicative(alg, sigma):
        gen_pairs = itertools.product(alg.generators(), range(alg.dim))
        if product_rule_failure(alg._pairs, Y, terms, gen_pairs) is None:
            return None
    return product_rule_failure(alg._pairs, Y, terms)


def classify_linear(kind: str, alg: FinAlgebra, f: LinMap, sigma: LinMap | None = None) -> Verdict:
    """Exact verdict for one linear-map predicate, with a first-failure witness.

    Besides endomorphism and automorphism, the kinds are the linear ones of
    MAP_KINDS, each decided at its one twist (map_twist): sigma, verified to
    be an automorphism, or the identity for an untwisted kind.  A derivation
    kind, d(xy) = sigma(x) d(y) + d(x) y, is decided on the pairs (s, j) with
    e_s a generator of the algebra, and all pairs are scanned in row-major
    order only after a failure there: the witness is the first failing pair
    of the full scan.  A commuting kind, sigma(x) Theta(x) = Theta(x) x, is a
    quadratic identity, to which that lemma does not apply; it is checked on
    every single and then every polarized pair.
    """
    if kind == "endomorphism":
        return is_endomorphism(alg, f)
    if kind == "automorphism":
        return is_automorphism(alg, f)
    mk = MAP_KINDS.get(kind)
    if mk is None or mk.bilinear:
        raise InputError("unknown classification kind %r" % (kind,))
    sigma = map_twist(kind, alg, sigma)
    _check_square(alg, f)
    if mk.identity == "derivation":
        bad = _derivation_type_failure(alg, f, derivation_terms(alg, f, sigma), sigma)
    else:
        bad = quadratic_failure(commuting_terms(alg, f, sigma), alg.dim)
    if bad is None:
        return Verdict(kind, True)
    (i, j), residual = bad
    if mk.identity == "derivation":
        what = "d(e_i e_j) - sigma(e_i) d(e_j) - d(e_i) e_j"
    else:
        what = "sigma(x) Theta(x) - Theta(x) x at x = " + ("e_i" if i == j else "e_i + e_j")
    return Verdict(kind, False, Witness((i, j), residual, what))


def classify_bilinear(kind: str, alg: FinAlgebra, D: BilinMap, sigma: LinMap | None = None) -> Verdict:
    """Exact verdict for a bilinear kind of MAP_KINDS at its one twist
    (map_twist): D is a sigma-derivation in each slot on all basis triples;
    the witness is a basis triple.

    For all k at once, the slot maps D(., e_k) are one map Y from alg into
    the bimodule of n copies of alg, e_l -> (D(e_l, e_k))_k, and the slot
    identities are the derivation identity Y(xy) = sigma(x) Y(y) + Y(x) y
    over the copies' actions (derivation_terms); likewise D(e_k, .).  Both
    maps are read off the table (BilinMap.slot_maps).  The witness is the
    failure first in the order (i, j, k, first slot before second) of the pair
    e_i e_j and the fixed argument e_k: the first failing pair of a slot, at
    the least copy k where its residual is nonzero.  Each slot is decided like
    a derivation kind of classify_linear: on the generating pairs first, and
    on all pairs only after a failure (_derivation_type_failure: the copies
    are a bimodule over alg).  A biderivation that holds must kill the unit in
    each slot, at sigma = 1 as at any other sigma; if it does not, that is a
    TheoremViolation.
    """
    if D.dim != alg.dim:
        raise DimMismatch("bilinear map of dim %d on algebra of dim %d" % (D.dim, alg.dim))
    mk = MAP_KINDS.get(kind)
    if mk is None or not mk.bilinear:
        raise InputError("unknown classification kind %r" % (kind,))
    sigma = map_twist(kind, alg, sigma)
    n = alg.dim
    failures = []
    for slot, Y in enumerate(D.slot_maps()):
        bad = _derivation_type_failure(alg, Y, derivation_terms(alg, Y, sigma), sigma)
        if bad:
            (i, j), residual = bad
            k = next(k for k in range(n) if any(residual[k * n:(k + 1) * n]))
            failures.append(((i, j, k, slot), residual[k * n:(k + 1) * n]))
    if failures:
        (i, j, k, slot), element = min(failures)
        if slot == 0:
            return Verdict(kind, False, Witness((i, j, k), element, "first-slot failure at (e_i e_j, e_k)"))
        return Verdict(kind, False, Witness((k, i, j), element, "second-slot failure at (e_k, e_i e_j)"))
    if not all(_kills_unit(alg, Y) for Y in D.slot_maps()):
        raise TheoremViolation("sigma-biderivation does not vanish on the unit")
    return Verdict(kind, True)


def _kills_unit(alg: FinAlgebra, slot: LinMap) -> bool:
    """Whether a slot map of a bilinear map D (one of BilinMap.slot_maps,
    column l listing the (k*n + o, c) of D(e_l, e_k) or of D(e_k, e_l)) sends
    the unit to zero for every e_l: the sum over k of u_k times copy k.  It is
    accumulated in integers on the integer forms of the slot map and the unit
    (LinMap.lifted, exactla.integer_vector) and tested once per l.

    Kept on purpose: not any(Y.apply(alg.unit)) on the slot maps says the
    same in fewer lines, but in Fraction arithmetic, slow on the dense unit of
    a rebased algebra.  It cost 8-9 % of the elim-q-rebased benchmark's jobs/s
    (30.5 / 30.8 -> 28.3 / 27.9 in two 10 s A/B pairs, 2-core x86_64)."""
    n, p = alg.dim, alg.field.characteristic
    (_, cols), (_, unit) = slot.lifted(), integer_vector(p, alg.unit)
    for col in cols:
        acc = {}
        for ko, c in col:
            k, o = divmod(ko, n)
            if unit[k]:
                acc[o] = acc.get(o, 0) + unit[k] * c
        if is_nonzero(p, acc):
            return False
    return True
