"""JSON interchange for algebras, bimodules, triangular algebras, and maps.

Scalars travel as strings: "num/den" over the rationals (denominator omitted
when 1) and decimal residues over a prime field.  Sparse tensor entries are
[i, j, k, "coeff"] quadruples with omitted entries zero and 0-based indices.
Nested A/M/B entries of a triangular file may be inline objects or path
strings resolved relative to the containing file.

Every report and every file trialg writes is canonical JSON: exactly the
text of json.dumps(obj, sort_keys=True, indent=2), so ASCII only, and each
command's stdout is that text of its report plus a newline.  One writer
makes it, canonical_pieces, which yields the text in pieces without the
standard library's pure-Python encoder (any indent selects it);
canonical_json joins the pieces, and the CLI and _dump_json write them as
they come.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from operator import countOf

from .algcore import (
    Bimodule,
    FinAlgebra,
    SparseTable,
    TriAlgebra,
    _tensor_entries,
    build_triangular,
    check_corner_dims,
)
from .errors import DimMismatch, InputError
from .exactla import Field, field_from_json
from .sigmamaps import BilinMap, LinMap


# path -> the sha256 of the bytes _load_json last parsed from it, the digest
# a report gives for an input, with no second read of the file
parsed_sha256: dict[str, str] = {}

# the names emit_fixture takes, and the choices of `trialg fixtures emit`
FIXTURE_NAMES = ("F1", "F2", "F3", "F4")


def _load_json(path: str):
    """The JSON value in the file at path, read once, its digest kept in
    parsed_sha256; decoded as text mode reads (UTF-8, universal newlines)."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        value = json.loads(data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n"))
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (path, exc)) from exc
    except json.JSONDecodeError as exc:
        raise InputError("%s is not valid JSON (line %d)" % (path, exc.lineno)) from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8, an over-long integer, deep nesting
        raise InputError("%s is not readable JSON: %s" % (path, exc)) from exc
    parsed_sha256[path] = hashlib.sha256(data).hexdigest()
    return value


def _dump_json(obj, path: str) -> str:
    """Write obj as canonical JSON and a newline, piece by piece; returns the
    sha256 of the bytes written."""
    digest = hashlib.sha256()
    try:
        with open(path, "wb") as fh:
            for piece in itertools.chain(canonical_pieces(obj), ("\n",)):
                data = piece.encode("utf-8")
                digest.update(data)
                fh.write(data)
    except OSError as exc:
        raise InputError("cannot write %s: %s" % (path, exc)) from exc
    return digest.hexdigest()


def canonical_json(obj) -> str:
    """json.dumps(obj, sort_keys=True, indent=2), from canonical_pieces."""
    return "".join(canonical_pieces(obj))


# -- the canonical JSON writer ----------------------------------------------

_encode_str = json.encoder.encode_basestring_ascii
# the text of a leaf, by its exact type
_LEAVES = {str: _encode_str, int: int.__repr__, bool: {True: "true", False: "false"}.__getitem__,
           type(None): {None: "null"}.__getitem__}
# Reports grow in their lists: a basis is a list of rows of n^2 or n^3
# entries, mostly runs of one zero.  A list longer than one slice is written
# a slice at a time, as its pieces are read: a slice is _SLICE members, or
# for a list of lists as many rows as hold _SLICE entries (one row at least).
# So a piece holds about _SLICE list entries at most, not a whole basis.
_SLICE = 2048


def canonical_pieces(obj):
    """The text of json.dumps(obj, sort_keys=True, indent=2), in pieces, in
    order.  obj is made of dicts with str keys, lists, tuples, str, int, bool
    and None, of exactly these types; any other type raises TypeError.
    Strings are escaped by json's own encode_basestring_ascii, and a run of
    equal strings in a list is written by repetition."""
    out = []
    _write(obj, "\n", out)
    return _drain(out)


def _drain(out):
    """The pieces of out: each stretch of text joined, and the pieces of each
    deferred list in its place."""
    for kind, items in itertools.groupby(out, type):
        if kind is str:
            yield "".join(items)
        else:
            for pieces in items:
                yield from pieces


def _write(value, nl: str, out: list):
    """Append the text of value to out, indented as after nl (a newline and
    the spaces of its line); a list longer than one slice goes in as the
    generator of its pieces."""
    kind = type(value)
    if kind is dict:
        inner = nl + "  "
        comma = "," + inner
        sep = "{" + inner
        for key in sorted(value):
            item = value[key]
            head = sep + _encode_str(key) + ": "
            leaf = _LEAVES.get(type(item))
            if leaf:
                out.append(head + leaf(item))
            else:
                out.append(head)
                _write(item, inner, out)
            sep = comma
        out.append(nl + "}" if value else "{}")
    elif kind is list or kind is tuple:
        if len(value) > _SLICE or value and type(value[0]) is list and len(value) * len(value[0]) > _SLICE:
            out.append(_slices(value, nl))
        else:
            _members(value, "[" + nl + "  ", nl + "  ", out)
            out.append(nl + "]" if value else "[]")
    else:
        leaf = _LEAVES.get(kind)
        if leaf is None:
            raise TypeError("Object of type %s is not JSON serializable" % kind.__name__)
        out.append(leaf(value))


def _members(values, sep: str, inner: str, out: list) -> str:
    """Append the members of a list to out, the first after sep and each
    next after a comma, on lines indented as inner; a run of equal strings
    is written by repetition.  Returns the separator of a next member."""
    comma = "," + inner
    for key, run in itertools.groupby(values):
        if type(key) is str:
            text = _encode_str(key)
            out.append(sep + text + (comma + text) * (countOf(run, key) - 1))
            sep = comma
        else:
            for item in run:
                out.append(sep)
                _write(item, inner, out)
                sep = comma
    return sep


def _slices(items, nl: str):
    """The pieces of a list, a slice at a time."""
    width = len(items[0]) if type(items[0]) is list else 1
    step = max(_SLICE // max(width, 1), 1)
    inner = nl + "  "
    sep = "[" + inner
    for start in range(0, len(items), step):
        out = []
        sep = _members(items[start:start + step], sep, inner, out)
        yield from _drain(out)
    yield nl + "]"


def _is_count(value) -> bool:
    """True for a valid JSON dimension or 0-based index: a non-negative integer, not a bool."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _dim(obj, key: str) -> int:
    if not _is_count(obj[key]):
        raise InputError("%r must be a non-negative integer, got %r" % (key, obj[key]))
    return obj[key]


def _require(obj, keys, what: str):
    """Reject anything but a JSON object carrying every listed key."""
    if not isinstance(obj, dict):
        raise InputError("%s must be a JSON object, got %r" % (what, obj))
    for key in keys:
        if key not in obj:
            raise InputError("%s misses %r" % (what, key))


def _list(obj, key: str, optional: bool = False):
    """obj[key] when it is a JSON list (or absent, when optional)."""
    value = obj.get(key) if optional else obj[key]
    if not (isinstance(value, list) or (optional and value is None)):
        raise InputError("%r must be a list, got %r" % (key, value))
    return value


def _sparse_tensor(field: Field, entries, dims) -> SparseTable:
    """The SparseTable of a dims[0] x dims[1] x dims[2] tensor given by its
    [i, j, k, coeff] entries, each coefficient coerced once; omitted entries
    are zero, and a later entry at the same index replaces an earlier one."""
    d0, d1, d2 = dims
    coeffs = {}
    for entry in entries:
        if not isinstance(entry, list) or len(entry) != 4:
            raise InputError("tensor entry %r is not [i, j, k, coeff]" % (entry,))
        i, j, k, c = entry
        if not (_is_count(i) and _is_count(j) and _is_count(k)):
            raise InputError("tensor index %r is not three non-negative integers" % (entry[:3],))
        c = field.coerce(c)
        if i >= d0 or j >= d1 or k >= d2:
            raise InputError("tensor index %r out of range" % (entry[:3],))
        coeffs[i, j, k] = c
    table = [[()] * d1 for _ in range(d0)]
    for (i, j), prods in itertools.groupby(sorted(coeffs.items()), lambda item: item[0][:2]):
        table[i][j] = tuple((k, c) for (_, _, k), c in prods if c)
    return SparseTable(map(tuple, table))


def algebra_from_json(obj) -> FinAlgebra:
    _require(obj, ("field", "dim", "unit", "mul"), "algebra file")
    field = field_from_json(obj["field"])
    dim = _dim(obj, "dim")
    unit = [field.coerce(v) for v in _list(obj, "unit")]
    if len(unit) != dim:  # the unit witnesses dim before any product entry is read
        raise DimMismatch("unit vector length %d for dim %d" % (len(unit), dim))
    mul = _sparse_tensor(field, _list(obj, "mul"), (dim, dim, dim))
    return FinAlgebra._trusted(field, mul, unit, _list(obj, "basis", optional=True))


def algebra_to_json(alg: FinAlgebra) -> dict:
    fmt = alg.field.format
    return {
        "field": alg.field.to_json(),
        "dim": alg.dim,
        "basis": list(alg.basis_names),
        "unit": [fmt(v) for v in alg.unit],
        "mul": _tensor_entries(alg.field, alg._pairs),
    }


def bimodule_from_json(obj, field: Field) -> Bimodule:
    _require(obj, ("dimA", "dimM", "dimB", "left", "right"), "bimodule file")
    if "field" in obj and field_from_json(obj["field"]) != field:
        raise InputError("bimodule field disagrees with the corner algebras")
    da, dm, db = _dim(obj, "dimA"), _dim(obj, "dimM"), _dim(obj, "dimB")
    left, right = _list(obj, "left"), _list(obj, "right")
    if min(len(left), len(right)) < dm:  # the units act as the identity: >= dimM entries each
        raise DimMismatch("bimodule lists %d left and %d right entries for dimM = %d"
                          % (len(left), len(right), dm))
    left = _sparse_tensor(field, left, (da, dm, dm))
    right = _sparse_tensor(field, right, (dm, db, dm))
    return Bimodule._trusted(field, da, dm, db, left, right, _list(obj, "basis", optional=True))


def bimodule_to_json(m: Bimodule) -> dict:
    return {
        "field": m.field.to_json(),
        "dimA": m.dim_a,
        "dimM": m.dim_m,
        "dimB": m.dim_b,
        "basis": list(m.basis_names),
        "left": _tensor_entries(m.field, m._left_pairs),
        "right": _tensor_entries(m.field, m._right_pairs),
    }


def _resolve(part, base_dir: str):
    if isinstance(part, str):
        path = part if os.path.isabs(part) else os.path.join(base_dir, part)
        return _load_json(path)
    return part


def triangular_from_json(obj, base_dir: str = ".", allow_zero_m: bool = False) -> TriAlgebra:
    _require(obj, ("A", "M", "B"), "triangular file")
    a_obj = _resolve(obj["A"], base_dir)
    m_obj = _resolve(obj["M"], base_dir)
    b_obj = _resolve(obj["B"], base_dir)
    A = algebra_from_json(a_obj)
    B = algebra_from_json(b_obj)
    if A.field != B.field:
        raise InputError("corner algebras live over different fields")
    _require(m_obj, ("dimA", "dimB"), "bimodule file")
    check_corner_dims(A, _dim(m_obj, "dimA"), _dim(m_obj, "dimB"), B)  # before M's tensors
    M = bimodule_from_json(m_obj, A.field)
    allow = obj.get("allow_zero_M", False)
    if not isinstance(allow, bool):
        raise InputError("'allow_zero_M' must be true or false, got %r" % (allow,))
    return build_triangular(A, M, B, allow_zero_m=allow_zero_m or allow)


def triangular_to_json(tri: TriAlgebra) -> dict:
    return {
        "A": algebra_to_json(tri.A),
        "M": bimodule_to_json(tri.M),
        "B": algebra_to_json(tri.B),
    }


def load_algebra(path: str) -> FinAlgebra:
    return algebra_from_json(_load_json(path))


def load_triangular(path: str, allow_zero_m: bool = False) -> TriAlgebra:
    return triangular_from_json(_load_json(path), os.path.dirname(os.path.abspath(path)),
                                allow_zero_m)


def linmap_from_json(obj, field: Field) -> LinMap:
    _require(obj, ("matrix",), "map file")
    conv = obj.get("convention", "image-in-columns")
    if conv != "image-in-columns":
        raise InputError("unsupported matrix convention %r" % (conv,))
    rows = _list(obj, "matrix")
    if not all(isinstance(row, list) for row in rows):
        raise InputError("'matrix' must be a list of rows, got %r" % (rows,))
    return LinMap(field, rows)


def load_linmap(path: str, field: Field) -> LinMap:
    return linmap_from_json(_load_json(path), field)


def bilinmap_from_json(obj, field: Field) -> BilinMap:
    _require(obj, ("dim", "tensor"), "bilinear file")
    dim = _dim(obj, "dim")
    return BilinMap._trusted(field, _sparse_tensor(field, _list(obj, "tensor"), (dim, dim, dim)))


def load_bilinmap(path: str, field: Field) -> BilinMap:
    return bilinmap_from_json(_load_json(path), field)


def load_bilinmap_on(path: str, alg: FinAlgebra) -> BilinMap:
    """A bilinear map on alg, its declared dim checked before dim^3 entries exist."""
    obj = _load_json(path)
    _require(obj, ("dim",), "bilinear file")
    if _dim(obj, "dim") != alg.dim:
        raise DimMismatch("bilinear map of dim %d on algebra of dim %d" % (obj["dim"], alg.dim))
    return bilinmap_from_json(obj, alg.field)


def emit_fixture(name: str, out_dir: str) -> dict[str, str]:
    """Write the canonical fixture files; returns {path: the sha256 of the
    bytes written there}, in the order written."""
    import trialg.fixtures as fx

    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise InputError("cannot create %s: %s" % (out_dir, exc)) from exc
    written = {}

    def put(fname: str, payload: dict):
        path = os.path.join(out_dir, fname)
        written[path] = _dump_json(payload, path)

    if name == "F2":
        alg, sig = fx.fixture_f2()
        put("A.json", algebra_to_json(alg))
        put("sigma2.json", sig.to_json())
        return written
    if name == "F1":
        tri = fx.fixture_f1()
    elif name == "F3":
        tri = fx.fixture_f3()
    elif name == "F4":
        tri = fx.fixture_f4()
    else:
        raise InputError("unknown fixture %r (expected %s)" % (name, ", ".join(FIXTURE_NAMES)))
    put("T.json", triangular_to_json(tri))
    put("sigma1.json", fx.sigma1(tri).to_json())
    put("identity.json", LinMap.identity(tri.field, tri.dim).to_json())
    if name == "F1":
        put("theta1.json", fx.theta1(tri).to_json())
    return written
