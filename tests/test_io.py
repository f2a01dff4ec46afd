"""The input boundary: every io loader coerces and checks each scalar it
reads, so values from input never reach LinMap._trusted, which takes raw field
values as they are.  The algebra, bimodule and bilinear-map loaders coerce
each structure constant exactly once and hand the coerced sparse product
tables to FinAlgebra._trusted, Bimodule._trusted and BilinMap._trusted;
the first two still check shapes and validate.  `trialg validate` is fuzzed
with near-schema algebra documents, and `trialg triangular build` and
`trialg sigma-center` with near-schema triangular documents and maps."""

import copy
import json
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trialg import io
from trialg.algcore import Bimodule
from trialg.errors import InputError
from trialg.exactla import GF, QQ, LinMap
from trialg.fixtures import fixture_f1, fixture_f3, sigma1
from trialg.sigmamaps import BilinMap
from test_cli import run_cli
from test_dense_oracles import value

FIELDS = {"Q": QQ, "F5": GF(5)}
# a boolean scalar, then unparsable literals: rationals over Q, residues over F_5
BAD = {"Q": [True, "1/x", "1/0"], "F5": [True, "two", "1/2"]}


def _documents(field):
    tri = fixture_f1(field)
    alg = tri.total
    product = BilinMap.from_function(alg, alg.mul_vec)
    return {"triangular": io.triangular_to_json(tri), "algebra": io.algebra_to_json(alg),
            "bimodule": io.bimodule_to_json(tri.M), "linmap": sigma1(tri).to_json(),
            "bilinmap": product.to_json()}


# (document, path to a scalar inside it); a tensor entry's scalar is its last item
SITES = [
    ("algebra", ("unit", 0)), ("algebra", ("mul", 0, 3)),
    ("bimodule", ("left", 0, 3)), ("bimodule", ("right", 0, 3)),
    ("triangular", ("A", "unit", 0)), ("triangular", ("M", "left", 0, 3)),
    ("triangular", ("B", "mul", 0, 3)),
    ("linmap", ("matrix", 0, 0)), ("bilinmap", ("tensor", 0, 3)),
]


def _loaders(doc_name, field, tmp_path):
    """Every loader that reads this document: from the object, and from a file."""
    def from_file(load, *args):
        def run(obj):
            path = tmp_path / (doc_name + ".json")
            path.write_text(json.dumps(obj))
            return load(str(path), *args)
        return run

    return {
        "algebra": [io.algebra_from_json, from_file(io.load_algebra)],
        "bimodule": [lambda obj: io.bimodule_from_json(obj, field)],
        "triangular": [io.triangular_from_json, from_file(io.load_triangular)],
        "linmap": [lambda obj: io.linmap_from_json(obj, field),
                   from_file(io.load_linmap, field)],
        "bilinmap": [lambda obj: io.bilinmap_from_json(obj, field),
                     from_file(io.load_bilinmap, field),
                     from_file(io.load_bilinmap_on, fixture_f1(field).total)],
    }[doc_name]


def _with(doc, site, value):
    out = copy.deepcopy(doc)
    target = out
    for key in site[:-1]:
        target = target[key]
    target[site[-1]] = value
    return out


@pytest.mark.parametrize("fname", sorted(FIELDS))
@pytest.mark.parametrize("doc_name,site", SITES)
def test_every_loader_rejects_bad_scalars(fname, doc_name, site, tmp_path):
    field = FIELDS[fname]
    doc = _documents(field)[doc_name]
    for load in _loaders(doc_name, field, tmp_path):
        load(doc)  # the untouched document loads
        for bad in BAD[fname]:
            with pytest.raises(InputError):
                load(_with(doc, site, bad))


@pytest.mark.parametrize("fname", sorted(FIELDS))
def test_loaders_never_reach_the_trusted_constructors(fname, tmp_path, monkeypatch):
    field = FIELDS[fname]
    docs = _documents(field)
    expected = {name: [load(doc) for load in _loaders(name, field, tmp_path)]
                for name, doc in docs.items()}

    def refuse(*args, **kwargs):
        raise AssertionError("trusted constructor reached while loading input")

    monkeypatch.setattr(LinMap, "_trusted", refuse)
    for name, doc in docs.items():
        loaded = [load(doc) for load in _loaders(name, field, tmp_path)]
        if name in ("linmap", "bilinmap"):
            assert loaded == expected[name]


@pytest.mark.parametrize("fname", sorted(FIELDS))
def test_load_triangular_coerces_each_constant_once(fname, tmp_path, count_coerce):
    """One load of F1 coerces each JSON constant once, unit entries included,
    and nothing of the total algebra it assembles from them."""
    doc = io.triangular_to_json(fixture_f1(FIELDS[fname]))
    path = tmp_path / "T.json"
    path.write_text(json.dumps(doc))
    constants = doc["A"]["unit"] + doc["B"]["unit"]
    for part, key in (("A", "mul"), ("M", "left"), ("M", "right"), ("B", "mul")):
        constants += [entry[3] for entry in doc[part][key]]
    count_coerce.clear()  # building the document coerced too
    tri = io.load_triangular(str(path))
    assert sorted(count_coerce) == sorted(constants)
    assert io.triangular_to_json(tri) == doc


@pytest.mark.parametrize("fname", sorted(FIELDS))
def test_load_bilinmap_coerces_each_constant_once(fname, tmp_path, count_coerce):
    """One load of a bilinear map coerces each tensor constant once and
    hands the coerced table on as it is."""
    doc = _documents(FIELDS[fname])["bilinmap"]
    path = tmp_path / "D.json"
    path.write_text(json.dumps(doc))
    count_coerce.clear()  # building the document coerced too
    D = io.load_bilinmap(str(path), FIELDS[fname])
    assert sorted(count_coerce) == sorted(entry[3] for entry in doc["tensor"])
    assert D.to_json() == doc


def test_bilinmap_loader_allocates_no_dense_tensor():
    """A document declaring dim 200 with one entry is loaded in memory
    quadratic in dim: a dense tensor would hold 8 * 10**6 slots."""
    tracemalloc.start()
    try:
        D = io.bilinmap_from_json({"dim": 200, "tensor": [[0, 0, 0, "1"]]}, QQ)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert D.apply(value(D, 0, 0), value(D, 0, 0)) == value(D, 0, 0)
    assert peak < 16 * 2**20


def test_public_linmap_coerces_input_values():
    m = LinMap(QQ, [[1, "-1/2"], [0, " 3 "]])
    assert m.rows == ((Fraction(1), Fraction(-1, 2)), (Fraction(0), Fraction(3)))
    assert all(type(v) is Fraction for row in m.rows for v in row)
    assert LinMap(GF(5), [[7, "-1"], ["10", 3]]).rows == ((2, 4), (0, 3))
    for field, bad in ((QQ, True), (QQ, "1/x"), (GF(5), False), (GF(5), "two")):
        with pytest.raises(InputError):
            LinMap(field, [[bad]])


@pytest.mark.parametrize("fname", sorted(FIELDS))
def test_tensor_entries_last_wins_and_dump_sorted(fname):
    """The algebra loader reads [i, j, k, coeff] entries into the product
    table: a repeated entry replaces the earlier one (no sum), so a later "0"
    loads as an absent product; entries given out of order dump back sorted by
    (i, j, k); an index past the declared dim is out of range."""
    field = FIELDS[fname]
    total = fixture_f1(field).total
    doc = io.algebra_to_json(total)
    entries = [[1, 1, 0, "1"]] + doc["mul"][::-1] + [[1, 1, 0, "0"], list(doc["mul"][0])]
    loaded = io.algebra_from_json(dict(doc, mul=entries))
    assert loaded == total
    assert io.algebra_to_json(loaded)["mul"] == doc["mul"]
    with pytest.raises(InputError, match=re.escape("tensor index [0, 3, 0] out of range")):
        io.algebra_from_json(dict(doc, mul=doc["mul"] + [[0, 3, 0, "1"]]))


# -- fuzzing the ingest path --------------------------------------------------

_LITERALS = ["0", "1", "-1", "2", "1/2", "-3/4", " 1 ", "1/0", "x", "", "0.5"]
_EXPONENTS = ["1e3", "1E-2", "1e400000000"]  # Fraction would expand the last into a 1.3-Gbit integer
_SCALARS = st.one_of(st.sampled_from(_LITERALS), st.sampled_from(_EXPONENTS), st.integers(-3, 3), st.booleans(),
                     st.floats(-2, 2), st.lists(st.integers(0, 2), max_size=2), st.none())
_OFF_FIELDS = [{"kind": "prime", "p": 4}, {"kind": "prime", "p": "5"}, {"kind": "prime", "p": True},
               {"kind": "prime"}, {"kind": "complex"}, {}, "rational", None]
_OFF_DIMS = [-1, 4, True, "2", 1.0, None]
_INDICES = st.one_of(st.integers(-1, 4), st.sampled_from([True, 0.0, "0", None]))
# valid algebras of dims 0-3 as (unit, products): k^n (n = 0..3), the dual numbers, UT_2
_ALGEBRAS = [(["1"] * n, [[i, i, i, "1"] for i in range(n)]) for n in range(4)] + [
    (["1", "0"], [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"]]),
    (["1", "0", "1"], [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 2, 1, "1"], [2, 2, 2, "1"]])]


@st.composite
def _near_algebra(draw):
    """An algebra document near the schema: a valid algebra of dim 0-3 over
    Q, F_2 or F_5, then up to three edits, each of which puts a field kind,
    a dim, a unit or product value, an index, an entry, a basis or a key off
    the schema."""
    unit, mul = draw(st.sampled_from(_ALGEBRAS))
    doc = {"field": draw(st.sampled_from([{"kind": "rational"}, {"kind": "prime", "p": 2},
                                          {"kind": "prime", "p": 5}])),
           "dim": len(unit), "unit": list(unit), "mul": [list(e) for e in mul]}
    for edit in draw(st.lists(st.sampled_from(["field", "dim", "unit", "unit length", "value", "index",
                                               "entry", "basis", "drop"]), max_size=3)):
        if edit == "field":
            doc["field"] = draw(st.sampled_from(_OFF_FIELDS))
        elif edit == "dim":
            doc["dim"] = draw(st.sampled_from(_OFF_DIMS))
        elif edit == "unit" and doc.get("unit"):
            doc["unit"][draw(st.integers(0, len(doc["unit"]) - 1))] = draw(_SCALARS)
        elif edit == "unit length" and "unit" in doc:
            doc["unit"] = doc["unit"][:-1] if doc["unit"] and draw(st.booleans()) else doc["unit"] + ["0"]
        elif edit in ("value", "index") and any(isinstance(e, list) and len(e) == 4 for e in doc.get("mul", ())):
            entry = draw(st.sampled_from([e for e in doc["mul"] if isinstance(e, list) and len(e) == 4]))
            if edit == "value":
                entry[3] = draw(_SCALARS)
            else:
                entry[draw(st.integers(0, 2))] = draw(_INDICES)
        elif edit == "entry" and "mul" in doc:
            doc["mul"].append(draw(st.one_of(st.tuples(_INDICES, _INDICES, _INDICES, _SCALARS).map(list),
                                             st.lists(_SCALARS, max_size=5), _SCALARS)))
        elif edit == "basis":
            doc["basis"] = draw(st.one_of(st.lists(st.sampled_from(["e0", "e1", "p", "", 3]), max_size=4),
                                          _SCALARS))
        elif edit == "drop" and doc:
            del doc[draw(st.sampled_from(sorted(doc)))]
    return doc


@settings(max_examples=200, derandomize=True, deadline=None)
@given(doc=_near_algebra())
def test_validate_fuzz_one_json_object_and_a_cli_exit_code(doc, tmp_path_factory):
    """`trialg validate` on a near-schema document exits 0, 1 or 2 with one
    JSON object on stdout and no traceback."""
    path = tmp_path_factory.getbasetemp() / "fuzz_algebra.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(["validate", str(path)])
    assert code in (0, 1, 2)
    assert isinstance(json.loads(out), dict)
    assert "Traceback" not in err


def _zero_m_document(field) -> dict:
    """F1's corners with the zero bimodule: a triangular document with M = 0."""
    tri = fixture_f1(field)
    return {"A": io.algebra_to_json(tri.A), "B": io.algebra_to_json(tri.B),
            "M": io.bimodule_to_json(Bimodule(field, tri.A.dim, 0, tri.B.dim, [[]] * tri.A.dim, []))}


@pytest.mark.parametrize("value, code, error", [
    (True, 0, None), (False, 1, "ZeroModule"), ("absent", 1, "ZeroModule"),
    ("false", 1, "InputError"), ("no", 1, "InputError"), ("true", 1, "InputError"), (0, 1, "InputError"),
    (1, 1, "InputError"), (None, 1, "InputError"), ([], 1, "InputError"), ({}, 1, "InputError")])
def test_allow_zero_m_must_be_a_json_boolean(value, code, error, tmp_path):
    """`trialg triangular build` on an M = 0 file: "allow_zero_M": true builds
    it, false or no key refuses the zero module, and any other value is an
    input error, never read as a truth value."""
    doc = _zero_m_document(QQ)
    if value != "absent":
        doc["allow_zero_M"] = value
    path = tmp_path / "zero_m.json"
    path.write_text(json.dumps(doc))
    got, out, _ = run_cli(["triangular", "build", str(path)])
    assert got == code
    report = json.loads(out)
    if error is None:
        assert report["result"]["dims"]["M"] == 0
    else:
        assert report["error"]["type"] == error


# near-schema triangular documents: F1 over Q or F_5, or F3, each with its corner negation
_TRIANGULAR_BASES = [("F1", QQ), ("F1", GF(5)), ("F3", QQ)]
_ALLOW_VALUES = st.one_of(st.booleans(), st.none(), st.integers(-1, 2), st.floats(-1, 1),
                          st.sampled_from(["true", "false", "no", "", "1"]),
                          st.lists(st.booleans(), max_size=2), st.dictionaries(st.sampled_from(["x"]), st.booleans()))


@st.composite
def _near_triangular(draw):
    """(triangular document, sigma document) near the schema: a valid
    triangular algebra and its corner negation, then up to three edits that
    put a dim, an action value, index or entry, a basis list, the
    allow_zero_M flag, the bimodule (made zero), a key or a sigma entry off
    the schema."""
    name, field = draw(st.sampled_from(_TRIANGULAR_BASES))
    tri = (fixture_f1 if name == "F1" else fixture_f3)(field)
    doc, sigma = io.triangular_to_json(tri), sigma1(tri).to_json()
    for edit in draw(st.lists(st.sampled_from(["dim", "value", "index", "entry", "basis", "allow", "zero M",
                                               "drop", "sigma"]), max_size=3)):
        part = doc.get(draw(st.sampled_from(["A", "M", "B"])))
        if not isinstance(part, dict):
            continue
        if edit == "dim":
            keys = [k for k in ("dim", "dimA", "dimM", "dimB") if k in part]
            if keys:
                part[draw(st.sampled_from(keys))] = draw(st.one_of(st.sampled_from(_OFF_DIMS), st.integers(0, 3)))
        elif edit in ("value", "index"):
            entries = [e for key in ("left", "right", "mul") if isinstance(part.get(key), list)
                       for e in part[key] if isinstance(e, list) and len(e) == 4]
            if entries:
                entry = draw(st.sampled_from(entries))
                if edit == "value":
                    entry[3] = draw(_SCALARS)
                else:
                    entry[draw(st.integers(0, 2))] = draw(_INDICES)
        elif edit == "entry":
            keys = [k for k in ("left", "right", "mul") if isinstance(part.get(k), list)]
            if keys:
                part[draw(st.sampled_from(keys))].append(draw(st.one_of(
                    st.tuples(_INDICES, _INDICES, _INDICES, _SCALARS).map(list), st.lists(_SCALARS, max_size=5),
                    _SCALARS)))
        elif edit == "basis":
            part["basis"] = draw(st.one_of(st.lists(st.sampled_from(["e0", "m", "", 3, None]), max_size=4),
                                           _SCALARS))
        elif edit == "allow":
            doc["allow_zero_M"] = draw(_ALLOW_VALUES)
        elif edit == "zero M":
            doc["M"] = io.bimodule_to_json(Bimodule(field, tri.A.dim, 0, tri.B.dim, [[]] * tri.A.dim, []))
        elif edit == "drop" and part:
            del part[draw(st.sampled_from(sorted(part)))]
        elif edit == "sigma":
            row = draw(st.sampled_from(sigma["matrix"]))
            if draw(st.booleans()):
                row[draw(st.integers(0, len(row) - 1))] = draw(_SCALARS)
            else:
                sigma["matrix"].remove(row)
    return doc, sigma


@settings(max_examples=200, derandomize=True, deadline=None)
@given(docs=_near_triangular())
def test_triangular_and_sigma_center_fuzz_one_json_object_and_a_cli_exit_code(docs, tmp_path_factory):
    """`trialg triangular build` and `trialg sigma-center` on a near-schema
    triangular document and map exit 0, 1 or 2 with one JSON object on stdout
    and no traceback."""
    doc, sigma = docs
    base = tmp_path_factory.getbasetemp()
    t_path, s_path = base / "fuzz_triangular.json", base / "fuzz_sigma.json"
    t_path.write_text(json.dumps(doc))
    s_path.write_text(json.dumps(sigma))
    for argv in (["triangular", "build", str(t_path)], ["sigma-center", str(t_path), "--sigma", str(s_path)]):
        code, out, err = run_cli(argv)
        assert code in (0, 1, 2)
        assert isinstance(json.loads(out), dict)
        assert "Traceback" not in err


# fuzzing the map and tensor loaders: the commands that read a --map, --bid
# or --sigma file of their own, each on F1 over Q or F_5 with its corner
# negation, the map or tensor document mutated off the schema
_MAP_COMMANDS = [lambda t, s, m: ["commuting-blocks", t, "--sigma", s, "--map", m],
                 lambda t, s, m: ["properness", t, "--sigma", s, "--map", m],
                 lambda t, s, m: ["endo", "classify", t, "--map", m],
                 lambda t, s, m: ["partible", t, "--sigma", m]]
_TENSOR_COMMANDS = [lambda t, s, d: ["split-biderivation", t, "--sigma", s, "--bid", d],
                    lambda t, s, d: ["inner-witness", t, "--sigma", s, "--bid", d]]


def _f1_documents(field):
    """(triangular, sigma, sigma-biderivation) documents of F1 over field."""
    from trialg.spaces import solve_space

    tri = fixture_f1(field)
    sigma = sigma1(tri)
    bid = solve_space("sigma_biderivation", tri, sigma).basis_maps()[-1]
    return io.triangular_to_json(tri), sigma.to_json(), bid.to_json()


_F1_DOCUMENTS = {name: _f1_documents(field) for name, field in FIELDS.items()}


@st.composite
def _near_map(draw, doc):
    """A map document near the schema: up to three edits that put an entry
    (a bool, a float, a nested list, null, an exponent string), a row (ragged
    or not a list), the dims (a row or a column more or less), the matrix or
    a key off the schema."""
    doc = copy.deepcopy(doc)
    for edit in draw(st.lists(st.sampled_from(["entry", "ragged", "row", "rows", "columns", "matrix", "drop"]),
                              min_size=1, max_size=3)):
        rows = doc.get("matrix")
        if edit == "matrix" or not isinstance(rows, list):
            doc["matrix"] = draw(_SCALARS)
        elif edit == "drop" and doc:
            del doc[draw(st.sampled_from(sorted(doc)))]
        elif not rows or not all(isinstance(row, list) for row in rows):
            continue
        elif edit == "entry" and any(rows):
            row = draw(st.sampled_from([row for row in rows if row]))
            row[draw(st.integers(0, len(row) - 1))] = draw(_SCALARS)
        elif edit == "ragged":
            row = draw(st.sampled_from(rows))
            row[:] = row[:-1] if row and draw(st.booleans()) else row + ["0"]
        elif edit == "row":
            rows[draw(st.integers(0, len(rows) - 1))] = draw(_SCALARS)
        elif edit == "rows":
            doc["matrix"] = rows[:-1] if draw(st.booleans()) else rows + [list(rows[0])]
        elif edit == "columns":
            doc["matrix"] = [row[:-1] for row in rows] if draw(st.booleans()) else [row + ["0"] for row in rows]
    return doc


@st.composite
def _near_tensor(draw, doc):
    """A tensor document near the schema: up to three edits that put a value
    (a bool, a float, a nested list, null, an exponent string), an index (out
    of range, negative or not an int), an entry (ragged or not a list), a
    repeated entry, the dim, the tensor or a key off the schema."""
    doc = copy.deepcopy(doc)
    for edit in draw(st.lists(st.sampled_from(["value", "index", "entry", "repeat", "dim", "tensor", "drop"]),
                              min_size=1, max_size=3)):
        entries = doc.get("tensor")
        if edit == "tensor" or not isinstance(entries, list):
            doc["tensor"] = draw(_SCALARS)
        elif edit == "drop" and doc:
            del doc[draw(st.sampled_from(sorted(doc)))]
        elif edit == "dim":
            doc["dim"] = draw(st.one_of(st.sampled_from(_OFF_DIMS), st.integers(0, 4)))
        elif edit == "entry":
            entries.append(draw(st.one_of(st.tuples(_INDICES, _INDICES, _INDICES, _SCALARS).map(list),
                                          st.lists(_SCALARS, max_size=5), _SCALARS)))
        elif entries and all(isinstance(e, list) and len(e) == 4 for e in entries):
            entry = draw(st.sampled_from(entries))
            if edit == "value":
                entry[3] = draw(_SCALARS)
            elif edit == "index":
                entry[draw(st.integers(0, 2))] = draw(_INDICES)
            else:  # a repeated entry, with its value or another
                entries.append(entry[:3] + [draw(st.one_of(st.just(entry[3]), st.sampled_from(_LITERALS)))])
    return doc


@st.composite
def _map_and_tensor_runs(draw):
    """(field name, argv builder, mutated document) for one fuzzed run."""
    fname = draw(st.sampled_from(sorted(FIELDS)))
    _, sigma, bid = _F1_DOCUMENTS[fname]
    if draw(st.booleans()):
        return fname, draw(st.sampled_from(_MAP_COMMANDS)), draw(_near_map(sigma))
    return fname, draw(st.sampled_from(_TENSOR_COMMANDS)), draw(_near_tensor(bid))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(run=_map_and_tensor_runs())
def test_map_and_tensor_loader_fuzz_one_json_object_and_a_cli_exit_code(run, tmp_path_factory):
    """commuting-blocks, properness and endo classify with a mutated --map,
    split-biderivation and inner-witness with a mutated --bid, and partible
    with a mutated --sigma, on F1: exit 0, 1 or 2 with one JSON object on
    stdout and no traceback."""
    fname, command, doc = run
    tri, sigma, _ = _F1_DOCUMENTS[fname]
    base = tmp_path_factory.getbasetemp()
    paths = [base / name for name in ("fuzz_f1_%s.json" % fname, "fuzz_sigma_%s.json" % fname, "fuzz_doc.json")]
    for path, content in zip(paths, (tri, sigma, doc)):
        path.write_text(json.dumps(content))
    code, out, err = run_cli(command(*map(str, paths)))
    assert code in (0, 1, 2)
    assert isinstance(json.loads(out), dict)
    assert "Traceback" not in err
