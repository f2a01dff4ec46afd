"""Complete solution spaces of map equations: MapSpace, the constraint-row
builders and solve_space.  The inner and extremal constructors and the block
form of twisted derivations, which read their solutions off these spaces,
are in trialg.classify.

Each defining identity is bilinear (or trilinear) in its arguments, so imposing
it on basis tuples yields an exact linear system in the flattened map
coordinates; the solution space is its kernel, returned with a canonical RREF
basis.  The rows are algcore.product_rule_rows of the terms the predicates
check (sigmamaps.derivation_terms, commuting_terms), on the pairs they check
them on.  A biderivation is a
derivation in each slot, so it is solved as a linear map k -> D(., e_k) into
Der_sigma, with the reduced derivation rows imposed on the second slot: n*r
unknowns for r = dim Der_sigma instead of n^3.  Flattening is row-major: a
linear map matrix entry [k][j] at k*dim + j, a bilinear tensor entry
[i][j][k] at (i*dim + j)*dim + k.

The derivation rule d(xy) = sigma(x) d(y) + d(x) y is imposed only on the
pairs (s, j) with e_s in the generating set S of the algebra
(FinAlgebra.generators) once sigma is known to be multiplicative, as
solve_space makes it by verifying that sigma is an automorphism.  Then the x
at which the rule holds for every y form a subalgebra
(sigmamaps._derivation_type_failure expands the product), so a map that satisfies the rule on S x basis
satisfies it everywhere: the restricted system has the kernel of the full
one, and so the same canonical RREF.  The same lemma lets verification
check S x basis first, for a map and for each biderivation slot.  The
sigma-commuting identity is quadratic in x, so its rows and checks take
every single and polarized pair (algcore.polarized_passes).

Every system is built in Python ints on the integer forms of exactla, by the
same code over both fields, and handed to the reduce as exactla.IntegerRows:
over Q each row is a positive integer multiple of the row of its identity
(product_rule_rows reports the factor), over F_p its residues.  The
biderivation coefficient kernel stays in integers too: it is read off the
pivot rows (exactla.integer_kernel) without an RREF of its own, lifted to
tensors in ints, and only the lifted tensors are reduced to the canonical
basis.  The derivation kernel delta_1 ... delta_r comes from integer_kernel
as well.  Over Q twist and identity keep their integer forms in their stores
(exactla.derived), so verifying the r basis maps of a space lifts sigma and
the identity once, not r times; over F_p nothing is lifted.

A space is kept as the sparse RREF rows of its Subspace.  Its basis maps are
built straight from those rows (a linear map's columns, a bilinear map's
table), and to_json writes the rows as Subspace.to_json does, so neither a
solve nor its report makes the dense basis view; MapSpace.contains and coords
read a map's sparse columns or table in that flattening.
"""

from __future__ import annotations

import itertools

from .algcore import (
    FinAlgebra,
    SparseTable,
    TriAlgebra,
    polarized_passes,
    product_rule_rows,
)
from .errors import (
    AmbientMismatch,
    InputError,
    NotInSpan,
    TheoremViolation,
)
from .exactla import (
    IntegerRows,
    Subspace,
    _integer_row,
    _sparse_reduce,
    integer_kernel,
    integer_vector,
    kernel_sparse,
    nonzero_rows,
)
from .sigmamaps import (
    MAP_KINDS,
    BilinMap,
    LinMap,
    _multiplicative,
    classify_bilinear,
    classify_linear,
    commuting_terms,
    derivation_terms,
    map_twist,
)


class MapSpace:
    """Solution space of one map equation over flattened coordinates; an
    immutable __slots__ class, not a dataclass, so that the solve path does
    not import dataclasses."""

    __slots__ = ("kind", "algebra", "sigma", "subspace")

    def __init__(self, kind: str, algebra: FinAlgebra, sigma: LinMap | None, subspace: Subspace):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "subspace", subspace)

    def __setattr__(self, *a):
        raise AttributeError("MapSpace is immutable")

    @property
    def dim(self) -> int:
        return self.subspace.dim

    def is_linear_kind(self) -> bool:
        return not MAP_KINDS[self.kind].bilinear

    def basis_maps(self):
        """The basis as maps, each built from its sparse RREF row (entries in
        row-major order): no map passes through a dense vector."""
        field, n = self.algebra.field, self.algebra.dim
        maps = []
        if self.is_linear_kind():
            for row in self.subspace.rows:
                cols = [[] for _ in range(n)]
                for kj, v in row:
                    cols[kj % n].append((kj // n, v))
                maps.append(LinMap._trusted(field, cols, n))
            return maps
        for row in self.subspace.rows:
            table = [[()] * n for _ in range(n)]
            for ij, entries in itertools.groupby(row, key=lambda e: e[0] // n):
                table[ij // n][ij % n] = tuple((key % n, v) for key, v in entries)
            maps.append(BilinMap._trusted(field, SparseTable(map(tuple, table))))
        return maps

    def _entries(self, m: LinMap | BilinMap) -> list:
        """The nonzero entries of m in the row-major flattening basis_maps
        inverts (index k*n + j of a linear map, (i*n + j)*n + k of a bilinear
        one), read off m's columns or table; AmbientMismatch for another
        length."""
        if isinstance(m, BilinMap):
            n, size = m.dim, m.dim ** 3
            entries = [((i * n + j) * n + k, c) for i, row in enumerate(m.table) for j, vec in enumerate(row)
                       for k, c in vec]
        else:
            n, size = m.src_dim, m.src_dim * m.dst_dim
            entries = [(k * n + j, c) for j, col in enumerate(m.columns) for k, c in col]
        if size != self.subspace.ambient_dim:
            raise AmbientMismatch("vector length %d in ambient %d" % (size, self.subspace.ambient_dim))
        return entries

    def contains(self, m: LinMap | BilinMap) -> bool:
        return not self.subspace.reduce(self._entries(m))

    def coords(self, m: LinMap | BilinMap) -> tuple:
        c = self.subspace.try_coords(self._entries(m))
        if c is None:
            raise NotInSpan("vector is not in the span")
        return c

    def to_json(self):
        sub = self.subspace.to_json()
        return {
            "kind": self.kind,
            "ambient_dim": sub["ambient_dim"],
            "dim": sub["dim"],
            "flattening": "row-major",
            "basis": sub["basis"],
        }


def _algebra_of(t) -> FinAlgebra:
    return t.total if isinstance(t, TriAlgebra) else t


def _dedup_rows(rows):
    """The nonzero rows, each once up to a nonzero scalar factor, as given.

    solve_space leaves this to _sparse_reduce, which skips a row whose integer
    form it has already seen; this generator picks out the same rows apart,
    keyed by the primitive integer form with positive lead
    (exactla._integer_row over Q).  Over F_p, whose p the residues do not
    carry, that key catches only multiples by an integer ratio, and the
    reduce's monic key the rest.
    """
    seen = set()
    for r in rows:
        key = frozenset(_integer_row(0, r).items())
        if key and key not in seen:
            seen.add(key)
            yield r


def _derivation_rows(alg: FinAlgebra, sigma: LinMap) -> IntegerRows:
    """d(e_i e_j) = d(e_i) e_j + sigma(e_i) d(e_j), flattened unknowns d[k][j]:
    on the pairs with e_i a generator (FinAlgebra.generators) when sigma is
    known to be multiplicative (the identity, or an automorphism verified on
    alg), which leaves the kernel unchanged, else on all pairs."""
    order = itertools.product(alg.generators(), range(alg.dim)) if _multiplicative(alg, sigma) else None
    _, blocks = product_rule_rows(alg._pairs, derivation_terms(alg, None, sigma), alg.dim, order)
    return IntegerRows(row for block in blocks for row in block.values())


def _commuting_rows(alg: FinAlgebra, sigma: LinMap) -> IntegerRows:
    """sigma(x) Theta(x) - Theta(x) x = 0 in the passes quadratic_failure
    checks (algcore.polarized_passes), flattened unknowns Theta[k][j]: at each
    e_i, then sigma(e_i) Theta(e_j) + sigma(e_j) Theta(e_i) - Theta(e_i) e_j
    - Theta(e_j) e_i at each pair i < j."""
    passes = polarized_passes(commuting_terms(alg, None, sigma), alg.dim)
    return IntegerRows(row for terms, pairs in passes
                       for block in product_rule_rows(None, terms, alg.dim, pairs)[1] for row in block.values())


def _biderivation_rows(alg: FinAlgebra, sigma: LinMap):
    """Both slot conditions over all basis triples, unknowns t[i][j][k]: the
    direct n^3 system.  solve_space goes through Der_sigma instead
    (_biderivation_space); these rows are the oracle it is tested against.

    For each basis pair (i, j) and each k, the derivation rows of D(., e_k) and
    of D(e_k, .), relabelled from d[o][l] onto t[l][k][o] and t[k][l][o],
    alternating per row.
    """
    n = alg.dim
    first = [[(l * n + k) * n + o for o in range(n) for l in range(n)] for k in range(n)]
    second = [[(k * n + l) * n + o for o in range(n) for l in range(n)] for k in range(n)]
    for block in product_rule_rows(alg._pairs, derivation_terms(alg, None, sigma), n)[1]:
        for k in range(n):
            fk, sk = first[k], second[k]
            for row in block.values():
                yield {fk[key]: v for key, v in row.items()}
                yield {sk[key]: v for key, v in row.items()}


def _biderivation_space(alg: FinAlgebra, sigma: LinMap) -> Subspace:
    """Bider_sigma as the linear maps k -> D(., e_k) into Der_sigma whose
    second slot is a sigma-derivation too.

    The derivation system is reduced once; its kernel gives delta_1 ...
    delta_r and its pivot rows P the second-slot conditions.  D(., e_k) =
    sum_s c[k][s] delta_s, unknowns c[k][s] at k*r + s, is a derivation in its
    first slot by construction.  For each l, every P must vanish on
    y -> D(e_l, y), whose entry [o][k] is sum_s c[k][s] delta_s[o][l].  Each
    kernel vector c lifts to t[l][k][o] = sum_s c[k][s] delta_s[o][l].

    The whole coefficient step runs on Python ints, the same code over both
    fields.  Each P is taken in its integer form (exactla.integer_vector) and
    each delta_s as exactla.integer_kernel returns it, each a nonzero multiple
    (over F_p the residues themselves).  Scaling P scales its rows; scaling
    delta_s by lambda_s rescales the unknowns c[k][s], and the lift uses the
    same scaled deltas, so the lifted tensors span the same space.  The
    coefficient kernel is read straight off the pivot rows in integer form
    (exactla.integer_kernel), with no canonical RREF of its own: any kernel
    basis lifts to tensors that span Bider_sigma, and Subspace._from_rows,
    handed them as IntegerRows, makes the one canonical basis.
    """
    field, n, p = alg.field, alg.dim, alg.field.characteristic
    pivots = _sparse_reduce(field, _derivation_rows(alg, sigma), n * n)
    deltas = integer_kernel(field, pivots, n * n)
    r = len(deltas)
    at = [[] for _ in range(n * n)]  # at[o*n + l]: the nonzero (s, delta_s[o][l])
    for s, delta in enumerate(deltas):
        for key, v in delta.items():
            at[key].append((s, v))
    # each pivot row P in integer form, as its entries (o, k*r, P[o][k])
    prows = [[(key // n, key % n * r, c) for key, c in integer_vector(p, prow)[1].items()]
             for prow in pivots.values()]
    rows = []
    for l in range(n):
        at_l = at[l::n]  # at_l[o]: the nonzero (s, delta_s[o][l])
        block = {}  # the nonempty row of each pivot row P, by its position
        for i, prow in enumerate(prows):
            row = {}
            for o, kr, c in prow:
                for s, v in at_l[o]:
                    row[kr + s] = row.get(kr + s, 0) + c * v
            if row:
                block[i] = row
        rows += nonzero_rows(p, block).values()
    coeffs = integer_kernel(field, _sparse_reduce(field, IntegerRows(rows), n * r), n * r)
    tensors = {}
    for i, c in enumerate(coeffs):
        t = tensors[i] = {}
        for ks, cks in c.items():
            k, s = divmod(ks, r)
            for key, v in deltas[s].items():
                o, l = divmod(key, n)
                idx = (l * n + k) * n + o
                t[idx] = t.get(idx, 0) + cks * v
    return Subspace._from_rows(field, n ** 3, IntegerRows(nonzero_rows(p, tensors).values()))


def solve_space(kind: str, t, sigma: LinMap | None = None,
                bilinear_dim_cap: int | None = None,
                verify: bool = True) -> MapSpace:
    """Kernel of the defining identity of a kind of MAP_KINDS, at the twist
    map_twist resolves (the identity for an untwisted kind); every basis map
    re-passes its own predicate before the space is returned.  A bilinear
    solve of an algebra above bilinear_dim_cap, when one is given, is
    refused."""
    alg = _algebra_of(t)
    n = alg.dim
    if kind not in MAP_KINDS:
        raise InputError("unknown solve kind %r" % (kind,))
    mk, twist = MAP_KINDS[kind], map_twist(kind, alg, sigma)
    if mk.bilinear:
        if bilinear_dim_cap is not None and n > bilinear_dim_cap:
            raise InputError("bilinear solve capped at dim %d (got %d)" % (bilinear_dim_cap, n))
        sub = _biderivation_space(alg, twist)
    else:
        rows = (_derivation_rows if mk.identity == "derivation" else _commuting_rows)(alg, twist)
        sub = kernel_sparse(alg.field, rows, n * n)
    space = MapSpace(kind, alg, sigma, sub)
    if verify:
        classify = classify_bilinear if mk.bilinear else classify_linear
        for m in space.basis_maps():
            if not classify(kind, alg, m, sigma).holds:
                raise TheoremViolation("solved %s space contains a non-solution" % kind)
    return space
