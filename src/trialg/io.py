"""JSON interchange for algebras, bimodules, triangular algebras, and maps.

Scalars travel as strings: "num/den" over the rationals (denominator omitted
when 1) and decimal residues over a prime field.  Sparse tensor entries are
[i, j, k, "coeff"] quadruples with omitted entries zero and 0-based indices.
Nested A/M/B entries of a triangular file may be inline objects or path
strings resolved relative to the containing file.
"""

from __future__ import annotations

import json
import os

from .algcore import Bimodule, FinAlgebra, TriAlgebra, build_triangular, validate_algebra
from .errors import InputError
from .exactla import Field, Mat, field_from_json
from .sigmamaps import BilinMap, LinMap


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (path, exc)) from exc
    except json.JSONDecodeError as exc:
        raise InputError("%s is not valid JSON (line %d)" % (path, exc.lineno)) from exc


def _dump_json(obj, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(obj))
        fh.write("\n")


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def _is_count(value) -> bool:
    """True for a valid JSON dimension or 0-based index: a non-negative integer, not a bool."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _dim(obj, key: str) -> int:
    if not _is_count(obj[key]):
        raise InputError("%r must be a non-negative integer, got %r" % (key, obj[key]))
    return obj[key]


def _sparse_tensor(field: Field, entries, dims) -> list:
    out = [[[field.zero] * dims[2] for _ in range(dims[1])] for _ in range(dims[0])]
    for entry in entries:
        if not isinstance(entry, list) or len(entry) != 4:
            raise InputError("tensor entry %r is not [i, j, k, coeff]" % (entry,))
        i, j, k, c = entry
        if not (_is_count(i) and _is_count(j) and _is_count(k)):
            raise InputError("tensor index %r is not three non-negative integers" % (entry[:3],))
        try:
            out[i][j][k] = field.coerce(c)
        except IndexError as exc:
            raise InputError("tensor index %r out of range" % (entry[:3],)) from exc
    return out


def _tensor_entries(field: Field, tensor) -> list:
    zero = field.zero
    fmt = field.format
    return [[i, j, k, fmt(c)]
            for i, row in enumerate(tensor)
            for j, vec in enumerate(row)
            for k, c in enumerate(vec) if c != zero]


def algebra_from_json(obj) -> FinAlgebra:
    for key in ("field", "dim", "unit", "mul"):
        if key not in obj:
            raise InputError("algebra file misses %r" % key)
    field = field_from_json(obj["field"])
    dim = _dim(obj, "dim")
    mul = _sparse_tensor(field, obj["mul"], (dim, dim, dim))
    unit = [field.coerce(v) for v in obj["unit"]]
    names = obj.get("basis")
    return validate_algebra(field, mul, unit, names)


def algebra_to_json(alg: FinAlgebra) -> dict:
    fmt = alg.field.format
    return {
        "field": alg.field.to_json(),
        "dim": alg.dim,
        "basis": list(alg.basis_names),
        "unit": [fmt(v) for v in alg.unit],
        "mul": _tensor_entries(alg.field, alg.mul),
    }


def bimodule_from_json(obj, field: Field) -> Bimodule:
    for key in ("dimA", "dimM", "dimB", "left", "right"):
        if key not in obj:
            raise InputError("bimodule file misses %r" % key)
    if "field" in obj and field_from_json(obj["field"]) != field:
        raise InputError("bimodule field disagrees with the corner algebras")
    da, dm, db = _dim(obj, "dimA"), _dim(obj, "dimM"), _dim(obj, "dimB")
    left = _sparse_tensor(field, obj["left"], (da, dm, dm))
    right = _sparse_tensor(field, obj["right"], (dm, db, dm))
    return Bimodule(field, da, dm, db, left, right, obj.get("basis"))


def bimodule_to_json(m: Bimodule) -> dict:
    return {
        "field": m.field.to_json(),
        "dimA": m.dim_a,
        "dimM": m.dim_m,
        "dimB": m.dim_b,
        "basis": list(m.basis_names),
        "left": _tensor_entries(m.field, m.left),
        "right": _tensor_entries(m.field, m.right),
    }


def _resolve(part, base_dir: str):
    if isinstance(part, str):
        path = part if os.path.isabs(part) else os.path.join(base_dir, part)
        return _load_json(path)
    return part


def triangular_from_json(obj, base_dir: str = ".", allow_zero_m: bool = False) -> TriAlgebra:
    for key in ("A", "M", "B"):
        if key not in obj:
            raise InputError("triangular file misses %r" % key)
    a_obj = _resolve(obj["A"], base_dir)
    m_obj = _resolve(obj["M"], base_dir)
    b_obj = _resolve(obj["B"], base_dir)
    A = algebra_from_json(a_obj)
    B = algebra_from_json(b_obj)
    if A.field != B.field:
        raise InputError("corner algebras live over different fields")
    M = bimodule_from_json(m_obj, A.field)
    allow = allow_zero_m or bool(obj.get("allow_zero_M", False))
    return build_triangular(A, M, B, allow_zero_m=allow)


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
    if "matrix" not in obj:
        raise InputError("map file misses 'matrix'")
    conv = obj.get("convention", "image-in-columns")
    if conv != "image-in-columns":
        raise InputError("unsupported matrix convention %r" % (conv,))
    rows = [[field.coerce(v) for v in row] for row in obj["matrix"]]
    ncols = len(rows[0]) if rows else 0
    return LinMap(field, Mat(field, rows, ncols))


def load_linmap(path: str, field: Field) -> LinMap:
    return linmap_from_json(_load_json(path), field)


def linmap_to_json(m: LinMap) -> dict:
    return m.to_json()


def bilinmap_from_json(obj, field: Field) -> BilinMap:
    if "dim" not in obj or "tensor" not in obj:
        raise InputError("bilinear file needs 'dim' and 'tensor'")
    dim = _dim(obj, "dim")
    tensor = _sparse_tensor(field, obj["tensor"], (dim, dim, dim))
    return BilinMap(field, tensor)


def load_bilinmap(path: str, field: Field) -> BilinMap:
    return bilinmap_from_json(_load_json(path), field)


def bilinmap_to_json(D: BilinMap) -> dict:
    return D.to_json()


def emit_fixture(name: str, out_dir: str) -> list[str]:
    """Write the canonical fixture files; returns the paths written."""
    from . import fixtures as fx

    os.makedirs(out_dir, exist_ok=True)
    written = []

    def put(fname: str, payload: dict):
        path = os.path.join(out_dir, fname)
        _dump_json(payload, path)
        written.append(path)

    if name == "F2":
        alg, sig = fx.fixture_f2()
        put("A.json", algebra_to_json(alg))
        put("sigma2.json", linmap_to_json(sig))
        return written
    if name == "F1":
        tri = fx.fixture_f1()
    elif name == "F3":
        tri = fx.fixture_f3()
    elif name == "F4":
        tri = fx.fixture_f4()
    else:
        raise InputError("unknown fixture %r (expected F1, F2, F3, F4)" % (name,))
    put("T.json", triangular_to_json(tri))
    put("sigma1.json", linmap_to_json(fx.sigma1(tri)))
    put("identity.json", linmap_to_json(LinMap.identity(tri.field, tri.dim)))
    if name == "F1":
        put("theta1.json", linmap_to_json(fx.theta1(tri)))
    return written
