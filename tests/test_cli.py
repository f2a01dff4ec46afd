"""CLI behavior: exit codes, deterministic JSON reports, parity with the API."""

import contextlib
import hashlib
import json
import os
import subprocess
import sys

import pytest

import trialg
from trialg.cli import COMMANDS, build_parser, main
from trialg.sigmamaps import MAP_KINDS

from test_dense_oracles import flatten


def run_cli(args, tmp_path=None):
    """Invoke the CLI in-process, capturing stdout."""
    import io
    from contextlib import redirect_stderr, redirect_stdout

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


def _fresh_env():
    """The environment of a new process that imports this trialg."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(trialg.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def run_fresh(args):
    """Run the CLI as `python -m trialg.cli` in a new process."""
    proc = subprocess.run([sys.executable, "-m", "trialg.cli"] + args,
                          capture_output=True, text=True, env=_fresh_env())
    return proc.returncode, proc.stdout


@contextlib.contextmanager
def address_space_cap(nbytes):
    """Lower this process's address-space limit for the block, so that an
    allocation the code must never make raises MemoryError instead of
    exhausting the machine's memory."""
    resource = pytest.importorskip("resource")
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = nbytes if hard == resource.RLIM_INFINITY else min(nbytes, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


@pytest.fixture()
def f1_dir(tmp_path):
    code, _, _ = run_cli(["fixtures", "emit", "F1", str(tmp_path / "f1")])
    assert code == 0
    return tmp_path / "f1"


@pytest.fixture()
def f3_dir(tmp_path):
    code, _, _ = run_cli(["fixtures", "emit", "F3", str(tmp_path / "f3")])
    assert code == 0
    return tmp_path / "f3"


class TestFixturesAndCenter:
    def test_emit_then_center(self, f1_dir):
        code, out, _ = run_cli(["center", str(f1_dir / "T.json")])
        assert code == 0
        payload = json.loads(out)
        center = payload["result"]["center"]
        assert center["dim"] == 1
        assert center["basis"] == [["1", "0", "1"]]

    def test_emit_f2_algebra(self, tmp_path):
        code, out, _ = run_cli(["fixtures", "emit", "F2", str(tmp_path)])
        assert code == 0
        code, out, _ = run_cli(["radical", str(tmp_path / "A.json")])
        assert code == 0
        rad = json.loads(out)["result"]["radical"]
        assert rad["dim"] == 3

    def test_unknown_fixture(self, tmp_path):
        code, out, _ = run_cli(["fixtures", "emit", "F9", str(tmp_path)])
        assert code == 1
        payload = json.loads(out)  # exactly one JSON object
        assert payload["error"]["type"] == "InputError"
        assert "invalid choice: 'F9'" in payload["error"]["message"]

    @pytest.mark.parametrize("blocked", ["dir", "file"])
    def test_emit_unwritable_target(self, tmp_path, blocked):
        """An output directory under a regular file, or a target file that is
        a directory, exits 1 with one JSON error instead of a traceback."""
        if blocked == "dir":
            (tmp_path / "file").write_text("")
            out_dir = tmp_path / "file" / "x"
        else:
            out_dir = tmp_path / "out"
            (out_dir / "T.json").mkdir(parents=True)
        code, out, _ = run_cli(["fixtures", "emit", "F1", str(out_dir)])
        assert code == 1
        payload = json.loads(out)  # exactly one JSON object
        assert payload["error"]["type"] == "InputError"
        assert str(out_dir) in payload["error"]["message"]


class TestSolveAndReports:
    def test_solve_contains_model_map(self, f1_dir):
        code, out, _ = run_cli(["solve", "sigma_commuting", str(f1_dir / "T.json"),
                                "--sigma", str(f1_dir / "sigma1.json")])
        assert code == 0
        space = json.loads(out)["result"]["space"]
        assert space["ambient_dim"] == 9
        # membership of the model map, checked through the API
        from trialg.exactla import QQ, Subspace
        from trialg.fixtures import fixture_f1, theta1

        sub = Subspace.from_vectors(QQ, 9, [[QQ.coerce(v) for v in row]
                                            for row in space["basis"]])
        assert sub.contains_vector(flatten(theta1(fixture_f1())))

    def test_sigma_center_report(self, f1_dir):
        code, out, _ = run_cli(["sigma-center", str(f1_dir / "T.json"),
                                "--sigma", str(f1_dir / "sigma1.json")])
        assert code == 0
        res = json.loads(out)["result"]
        assert res["sigma_center"]["dim"] == 1
        assert res["eta"]["matrix"] == [["-1"]]

    def test_properness_report(self, f1_dir):
        code, out, _ = run_cli(["properness", str(f1_dir / "T.json"),
                                "--sigma", str(f1_dir / "sigma1.json"),
                                "--map", str(f1_dir / "theta1.json")])
        assert code == 0
        res = json.loads(out)["result"]
        assert res["proper"] is True
        assert res["witness"]["lambda"] == ["1", "0", "-1"]

    def test_nil_radical(self, f3_dir):
        code, out, _ = run_cli(["nil-radical", str(f3_dir / "T.json")])
        assert code == 0
        assert json.loads(out)["result"]["nil_radical"]["dim"] == 3

    def test_endo_classify(self, f1_dir):
        code, out, _ = run_cli(["endo", "classify", str(f1_dir / "T.json"),
                                "--map", str(f1_dir / "sigma1.json")])
        assert code == 0
        res = json.loads(out)["result"]
        assert res["mono_epi"]["mono"] is True
        assert res["mono_epi"]["epi"] is True

    def test_partible_with_sigma(self, f1_dir):
        code, out, _ = run_cli(["partible", str(f1_dir / "T.json"),
                                "--sigma", str(f1_dir / "sigma1.json")])
        assert code == 0
        res = json.loads(out)["result"]
        assert res["witness"]["z"] == ["1", "0", "1"]

    @pytest.mark.parametrize("p", [0, 5], ids=["Q", "F5"])
    def test_partible_certifies_the_tensor_flip(self, p, tmp_path):
        """The factor flip e_(3a+b) -> e_(3b+a) of UT_2 (x) UT_2, the regular
        Trian(UT_2, UT_2, UT_2), is not partible; the report says so and
        carries sigma(1_A), recomputed here from the two files."""
        from fractions import Fraction

        from trialg import io as tio
        from trialg.exactla import GF, QQ
        from trialg.fixtures import ut2_tensor_flip

        tri, sigma = ut2_tensor_flip(GF(p) if p else QQ)
        doc = tio.triangular_to_json(tri)
        flip = sigma.to_json()["matrix"]
        (tmp_path / "T.json").write_text(json.dumps(doc))
        (tmp_path / "flip.json").write_text(json.dumps({"matrix": flip}))
        code, out, _ = run_cli(["partible", str(tmp_path / "T.json"), "--sigma", str(tmp_path / "flip.json")])
        assert code == 0
        res = json.loads(out)["result"]
        assert res["witness"] is None and "not partible" in res["note"]
        unit_a = [Fraction(v) for v in doc["A"]["unit"]]
        one_a = unit_a + [Fraction(0)] * 6
        sigma_p = [sum(Fraction(m) * v for m, v in zip(row, one_a)) for row in flip]
        if p:
            sigma_p = [v % p for v in sigma_p]
        assert res["sigma_p"] == [str(v) for v in sigma_p]
        assert sigma_p[:3] != unit_a or any(sigma_p[6:])

    def test_partible_report_only(self, f1_dir):
        code, out, _ = run_cli(["partible", str(f1_dir / "T.json")])
        assert code == 0
        assert json.loads(out)["result"]["report"]["verdict"] == "partible"


class TestSolveKinds:
    @pytest.mark.parametrize("name", ["F1", "F4"])
    @pytest.mark.parametrize("kind", tuple(MAP_KINDS))
    def test_cli_api_parity(self, tmp_path, kind, name):
        """Every kind of MAP_KINDS solves through the CLI to the space the API
        solves: the untwisted kinds with no --sigma, the sigma-kinds at sigma1."""
        from trialg import io
        from trialg.spaces import solve_space

        io.emit_fixture(name, str(tmp_path))
        T, s = str(tmp_path / "T.json"), str(tmp_path / "sigma1.json")
        tri = io.load_triangular(T)
        twisted = MAP_KINDS[kind].twisted
        code, out, _ = run_cli(["solve", kind, T] + (["--sigma", s] if twisted else []))
        assert code == 0, out
        report = json.loads(out)
        assert report["command"] == "solve " + kind
        assert [i["path"] for i in report["inputs"]] == ([T, s] if twisted else [T])
        space = solve_space(kind, tri, io.load_linmap(s, tri.field) if twisted else None)
        assert report["result"]["space"] == json.loads(io.canonical_json(space.to_json()))

    def test_invalid_kind_lists_every_kind(self):
        """The usage error names the kinds of MAP_KINDS in their order,
        'commuting' last."""
        code, out, _ = run_cli(["solve", "nonsense", "T.json"])
        assert code == 1
        message = json.loads(out)["error"]["message"].replace("'", "")  # quoting varies by version
        assert message == ("trialg solve: argument kind: invalid choice: nonsense (choose from "
                           "derivation, sigma_derivation, biderivation, sigma_biderivation, "
                           "sigma_commuting, commuting)")


class TestUsageErrors:
    @pytest.mark.parametrize("args", [
        [], ["frobnicate"], ["solve", "automorphism", "T.json"], ["solve", "derivation"],
        ["center", "T.json", "--sigma", "s.json"], ["sigma-center", "T.json"],
        ["triangular"], ["endo", "classify", "T.json"],
    ], ids=["no_command", "unknown_command", "invalid_choice", "missing_argument",
            "unknown_option", "missing_option", "missing_subcommand", "missing_nested_option"])
    def test_usage_error_is_one_json_error(self, args):
        code, out, err = run_cli(args)
        assert code == 1
        payload = json.loads(out)  # exactly one JSON object
        assert list(payload) == ["error", "version"]
        assert payload["error"]["type"] == "InputError"
        assert payload["error"]["message"].startswith("trialg")
        assert "usage:" not in err

    @pytest.mark.parametrize("args", [["-h"], ["solve", "--help"], ["fixtures", "emit", "-h"]])
    def test_help_still_exits_zero(self, args):
        import io
        from contextlib import redirect_stdout

        out = io.StringIO()
        with redirect_stdout(out), pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 0
        assert out.getvalue().startswith("usage: trialg")


# sha256 of the --help stdout at 80 columns of the top level, each command
# group and each command, taken on CPython 3.11; argparse lays help out
# differently in other versions.  solve's choices list every kind of MAP_KINDS.
HELP_GOLDEN = {
    (): "f5453fff078075b8348d5e47de107423e1cef6d00293048fc0647d1ffe7dab94",
    ("triangular",): "6233a34339b109c45192e778ec88ed8581f542d1b055b48a5759f44caf3daaae",
    ("endo",): "f362045415eebecdc9aff44d2baf558c70e03535dbc9d0cda0e2cec513a53d78",
    ("fixtures",): "74ecd33e30f7e0a3f25c4f22836ec6648bad2b4b2f9f1dd25e8d51004ab0a52c",
    ("validate",): "54b666035bf91e2c080649bc968956be5531af43363899a410c13f6d272644b8",
    ("triangular", "build"): "f4f6c368692e6d03116d650521ede6e7f5cd8eadf1144ae506092c72d03ebf49",
    ("center",): "fe086e9ee4c107526c70ebabf95b23141019aaf85dee19cff5ad5b954b0b34c0",
    ("sigma-center",): "0696c7edb99206a5283f9caf25951f14a3558b418b1cf315acbafe95fa25cc01",
    ("radical",): "43be9041cfe49e992894365a9993a1cb63f5987ba05ef9798ad6336ca597721f",
    ("nil-radical",): "2be108ed1f18a1a8a56a929e60f272bbf4f5fa2afb0f85d4250c689e8b5413a1",
    ("solve",): "83bc42d0fe258f457e7a52c497822b024af01f49433d416685b90de12769a621",
    ("split-biderivation",): "4b534dd63d6dd73bd0657923c480480851a64c0cc0f870987a65330af2da6b4e",
    ("inner-witness",): "564f6c2d2e361f3fd76fe22efffc493160e5e74dabd97ceffe2e5504f5eaf1fb",
    ("commuting-blocks",): "1aec2c3c72a54e8fabf2abc75780a171c69258faf942fd452ba62ffbef87a272",
    ("properness",): "d3ddfb0d2e982f9a2815139ccc7584d186fdff6fba2419fa405e3318cbc22c71",
    ("endo", "classify"): "224c570af1e1f19e117a85a06b1423a2e36ef6112f83d51619f6a433a7730fdf",
    ("partible",): "6e72e91e0d7119f9ce24da1949a080b754df34e3405844f98a4a34fcce1dda69",
    ("fixtures", "emit"): "49e1462cae1f8521d49128fba63d23bb6dd45988eab13a0f27736265ba4ae3fb",
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="help digests taken on CPython 3.11")
@pytest.mark.parametrize("words", sorted(HELP_GOLDEN), ids=lambda w: " ".join(w) or "trialg")
def test_help_text_digest(words, monkeypatch):
    import io

    monkeypatch.setenv("COLUMNS", "80")
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exc:
        main(list(words) + ["--help"])
    assert exc.value.code == 0
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == HELP_GOLDEN[words]


class TestParserReuse:
    def test_parser_built_once(self):
        assert build_parser() is build_parser()

    def test_no_state_between_calls(self, f1_dir):
        """Each stdout of a sequence of calls in one process equals that of the
        same argv in a fresh process."""
        T, s = str(f1_dir / "T.json"), str(f1_dir / "sigma1.json")
        twisted = ["solve", "sigma_commuting", T, "--sigma", s]
        sequence = [twisted, ["solve", "derivation", T], ["solve", "derivation"], twisted]
        seen = [run_cli(args)[:2] for args in sequence]
        assert [code for code, _ in seen] == [0, 0, 1, 0]
        assert seen[0] == seen[3]
        assert [i["path"] for i in json.loads(seen[1][1])["inputs"]] == [T]  # no --sigma left over
        for args, got in zip(sequence, seen):
            assert got == run_fresh(args)


NOT_BLOCK_PRESERVING = ("NotBlockPreserving",
                        "sigma maps basis vector 0 ('1') of block A to 1 + m, outside A")
NOT_TRIANGULAR = ("InputError", "triangular file misses 'A'")


@pytest.mark.parametrize("argv,expected", [
    (["solve", "sigma_derivation", "{A}", "--sigma", "{missing}"], NOT_TRIANGULAR),
    (["sigma-center", "{A}", "--sigma", "{missing}"], NOT_TRIANGULAR),
    (["split-biderivation", "{T}", "--sigma", "{phi}", "--bid", "{missing}"], NOT_BLOCK_PRESERVING),
    (["inner-witness", "{T}", "--sigma", "{phi}", "--bid", "{missing}"], NOT_BLOCK_PRESERVING),
    (["commuting-blocks", "{T}", "--sigma", "{phi}", "--map", "{missing}"], NOT_BLOCK_PRESERVING),
    (["properness", "{T}", "--sigma", "{phi}", "--map", "{missing}"], NOT_BLOCK_PRESERVING),
    (["endo", "classify", "{A}", "--map", "{missing}"], NOT_TRIANGULAR),
    (["partible", "{A}", "--sigma", "{missing}"], NOT_TRIANGULAR),
], ids=["solve", "sigma-center", "split-biderivation", "inner-witness", "commuting-blocks",
        "properness", "endo-classify", "partible"])
def test_first_bad_input_wins(f1_dir, tmp_path, argv, expected):
    """Files load in argument order, and each check runs as its file loads:
    the first bad input is reported, not a later file that is missing.  An
    algebra file read as T misses its corners, and phi = 1 + m is not
    block-preserving, which the sigma check refuses before --bid or --map
    is read."""
    from trialg import io
    from trialg.fixtures import phi_one_plus_m

    io.emit_fixture("F2", str(tmp_path / "f2"))
    T = str(f1_dir / "T.json")
    phi = tmp_path / "phi.json"
    phi.write_text(io.canonical_json(phi_one_plus_m(io.load_triangular(T)).to_json()))
    paths = {"T": T, "A": str(tmp_path / "f2" / "A.json"), "phi": str(phi),
             "missing": str(tmp_path / "missing.json")}
    code, out, _ = run_cli([a.format(**paths) for a in argv])
    assert code == 1
    error = json.loads(out)["error"]
    assert (error["type"], error["message"]) == expected


class TestInputErrors:
    def test_nonassociative_algebra_exits_one(self, tmp_path):
        bad = {
            "field": {"kind": "rational"},
            "dim": 3,
            "unit": ["1", "0", "0"],
            "mul": [[0, 0, 0, "1"], [0, 1, 1, "1"], [0, 2, 2, "1"],
                    [1, 0, 1, "1"], [2, 0, 2, "1"],
                    [1, 1, 2, "1"], [1, 2, 1, "1"]],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, out, err = run_cli(["validate", str(path)])
        assert code == 1
        payload = json.loads(out)
        assert payload["error"]["type"] == "NonAssociative"
        assert "(1, 1, 1)" in payload["error"]["message"]

    def test_missing_file(self):
        code, out, _ = run_cli(["center", "/nonexistent/T.json"])
        assert code == 1
        assert json.loads(out)["error"]["type"] == "InputError"

    def test_wrong_field_scalar(self, tmp_path):
        bad = {"field": {"kind": "prime", "p": 4}, "dim": 1, "unit": ["1"],
               "mul": [[0, 0, 0, "1"]]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, out, _ = run_cli(["validate", str(path)])
        assert code == 1

    @pytest.mark.parametrize("patch", [
        {"mul": [[-1, -1, -1, "1"]]},
        {"mul": [[0.5, 0, 0, "1"]]},
        {"mul": [[False, 0, 0, "1"]]},
        {"field": {"kind": "prime", "p": "five"}},
        {"field": {"kind": "prime", "p": 5.0}},
        {"field": {"kind": "prime", "p": True}},
        {"dim": -1, "unit": [], "mul": []},
        {"mul": 5},
        {"unit": 5},
        {"basis": 5},
        {"unit": [True]},
        {"mul": [[0, 0, 0, True]]},
    ], ids=["negative_index", "float_index", "bool_index", "nonnumeric_p", "float_p",
            "bool_p", "negative_dim", "nonlist_mul", "nonlist_unit", "nonlist_basis",
            "bool_unit", "bool_coefficient"])
    def test_malformed_algebra_is_one_json_error(self, tmp_path, patch):
        bad = {"field": {"kind": "rational"}, "dim": 1, "unit": ["1"], "mul": [[0, 0, 0, "1"]]}
        bad.update(patch)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, out, _ = run_cli(["validate", str(path)])
        assert code == 1
        assert list(json.loads(out)) == ["error", "version"]

    @pytest.mark.parametrize("content", [
        b"1" * 5000,  # beyond the int-conversion digit limit
        b"[" * 200000,  # deeper than the recursion limit
        b"\xff\xfe{}",  # not UTF-8
    ], ids=["long_integer", "deep_nesting", "not_utf8"])
    def test_unreadable_json_is_one_json_error(self, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        code, out, _ = run_cli(["validate", str(path)])
        assert code == 1
        payload = json.loads(out)
        assert list(payload) == ["error", "version"]
        assert payload["error"]["type"] == "InputError"

    def test_negative_bilinear_dim_is_one_json_error(self, f1_dir):
        path = f1_dir / "bad_bid.json"
        path.write_text(json.dumps({"dim": -1, "tensor": []}))
        code, out, _ = run_cli(["split-biderivation", str(f1_dir / "T.json"),
                                "--sigma", str(f1_dir / "sigma1.json"), "--bid", str(path)])
        assert code == 1
        assert list(json.loads(out)) == ["error", "version"]

    @pytest.mark.parametrize("target,value", [
        ("M.left", 5), ("M.right", 5), ("M.basis", 5), ("bid.tensor", 5), ("sigma.matrix", 5),
        ("sigma.matrix", [5, 5, 5]), ("T", 5), ("T.A", 5), ("sigma", 5), ("bid", 5),
    ], ids=["nonlist_left", "nonlist_right", "nonlist_M_basis", "nonlist_tensor",
            "nonlist_matrix", "nonlist_rows", "number_triangular", "number_algebra", "number_map",
            "number_bilinear"])
    def test_malformed_file_is_one_json_error(self, f1_dir, target, value):
        files = {"T": json.loads((f1_dir / "T.json").read_text()),
                 "sigma": json.loads((f1_dir / "sigma1.json").read_text()),
                 "bid": {"dim": 3, "tensor": []}}
        part, _, key = target.partition(".")
        if part == "M":
            files["T"]["M"][key] = value
        elif key:
            files[part][key] = value
        else:
            files[part] = value
        for name, obj in files.items():
            (f1_dir / ("bad_%s.json" % name)).write_text(json.dumps(obj))
        code, out, _ = run_cli(["split-biderivation", str(f1_dir / "bad_T.json"),
                                "--sigma", str(f1_dir / "bad_sigma.json"),
                                "--bid", str(f1_dir / "bad_bid.json")])
        assert code == 1
        assert list(json.loads(out)) == ["error", "version"]


    @pytest.mark.parametrize("part,key", [("A", "dim"), ("M", "dimA"), ("M", "dimB"), ("M", "dimM"),
                                          ("bid", "split-biderivation"), ("bid", "inner-witness")])
    def test_declared_dim_checked_before_allocation(self, f1_dir, part, key):
        """A declared dimension the file contradicts (F1's corners and M are
        1-dimensional, its total algebra 3-dimensional) is an input error
        raised before dim-sized tensors exist."""
        if part == "bid":
            (f1_dir / "bad_bid.json").write_text(json.dumps({"dim": 10 ** 6, "tensor": []}))
            cmd = [key, str(f1_dir / "T.json"), "--sigma", str(f1_dir / "sigma1.json"),
                   "--bid", str(f1_dir / "bad_bid.json")]
        else:
            tri = json.loads((f1_dir / "T.json").read_text())
            tri[part][key] = 10 ** 8
            (f1_dir / "bad_T.json").write_text(json.dumps(tri))
            (f1_dir / "bad_A.json").write_text(json.dumps(tri["A"]))
            cmd = ["validate", str(f1_dir / "bad_A.json")] if part == "A" else \
                ["center", str(f1_dir / "bad_T.json")]
        with address_space_cap(1 << 30):
            code, out, _ = run_cli(cmd)
        assert code == 1
        assert list(json.loads(out)) == ["error", "version"]
        assert json.loads(out)["error"]["type"] == "DimMismatch"


# one argv per entry of COMMANDS, on F1's files: T, sigma1, theta1, its corner A
# as an algebra file, D the sum of the solved sigma1-biderivation basis and D0
# the residual of D's extremal split
COMMAND_ARGV = {
    "validate": ["validate", "{A}"],
    "triangular build": ["triangular", "build", "{T}"],
    "center": ["center", "{T}"],
    "sigma-center": ["sigma-center", "{T}", "--sigma", "{sigma}"],
    "radical": ["radical", "{A}"],
    "nil-radical": ["nil-radical", "{T}"],
    "solve {kind}": ["solve", "sigma_biderivation", "{T}", "--sigma", "{sigma}"],
    "split-biderivation": ["split-biderivation", "{T}", "--sigma", "{sigma}", "--bid", "{D}"],
    "inner-witness": ["inner-witness", "{T}", "--sigma", "{sigma}", "--bid", "{D0}"],
    "commuting-blocks": ["commuting-blocks", "{T}", "--sigma", "{sigma}", "--map", "{theta}"],
    "properness": ["properness", "{T}", "--sigma", "{sigma}", "--map", "{theta}"],
    "endo classify": ["endo", "classify", "{T}", "--map", "{sigma}"],
    "partible": ["partible", "{T}", "--sigma", "{sigma}"],
    "fixtures emit": ["fixtures", "emit", "F1", "{out}"],
}


@pytest.fixture(scope="module")
def f1_command_files(tmp_path_factory):
    from trialg import io
    from trialg.classify import extremal_split
    from trialg.spaces import solve_space

    root = tmp_path_factory.mktemp("f1-commands")
    io.emit_fixture("F1", str(root))
    paths = {stem: str(root / (stem + ".json")) for stem in ("T", "A", "D", "D0")}
    paths.update(sigma=str(root / "sigma1.json"), theta=str(root / "theta1.json"), out=str(root / "emit"))
    tri = io.load_triangular(paths["T"])
    sigma = io.load_linmap(paths["sigma"], tri.field)
    bider = solve_space("sigma_biderivation", tri, sigma).basis_maps()
    D = sum(bider[1:], bider[0])
    io._dump_json(io.algebra_to_json(tri.A), paths["A"])
    io._dump_json(D.to_json(), paths["D"])
    io._dump_json(extremal_split(tri, D, sigma).residual.to_json(), paths["D0"])
    return paths


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, f1_dir):
        _, out1, _ = run_cli(["solve", "sigma_biderivation", str(f1_dir / "T.json"),
                              "--sigma", str(f1_dir / "sigma1.json")])
        _, out2, _ = run_cli(["solve", "sigma_biderivation", str(f1_dir / "T.json"),
                              "--sigma", str(f1_dir / "sigma1.json")])
        assert out1 == out2

    @pytest.mark.parametrize("report", [command[0] for command in COMMANDS],
                             ids=lambda report: report.split(" {")[0].replace(" ", "-"))
    def test_subprocess_matches_in_process(self, report, f1_command_files):
        """Every command prints the same bytes in a new process as in this
        one, where earlier tests have loaded every module: a handler that
        lost an import of the module it runs fails only in a new process."""
        argv = [arg.format(**f1_command_files) for arg in COMMAND_ARGV[report]]
        code, expected, _ = run_cli(argv)
        assert code == 0, expected
        assert run_fresh(argv) == (0, expected)

    def test_api_cli_parity(self, f3_dir):
        from trialg.fixtures import fixture_f3
        from trialg.structure import center_T

        _, out, _ = run_cli(["center", str(f3_dir / "T.json")])
        via_cli = json.loads(out)["result"]["center"]
        z = center_T(fixture_f3())
        assert via_cli["dim"] == z.dim
        assert via_cli["basis"] == [[z.field.format(v) for v in row] for row in z.basis]


class TestInputsReadOnce:
    def test_each_input_opened_once(self, f1_dir, monkeypatch):
        """One run opens each input file once, and the report gives the sha256
        of the bytes it parsed, not of a second read."""
        import builtins

        paths = [str(f1_dir / name) for name in ("T.json", "sigma1.json", "theta1.json")]
        real_open, opened = builtins.open, []

        def counting_open(file, *args, **kwargs):
            opened.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        code, out, _ = run_cli(["properness", paths[0], "--sigma", paths[1], "--map", paths[2]])
        monkeypatch.undo()
        assert code == 0
        assert sorted(f for f in opened if f in paths) == sorted(paths)
        digests = []
        for path in paths:
            with open(path, "rb") as fh:
                digests.append({"path": path, "sha256": hashlib.sha256(fh.read()).hexdigest()})
        assert json.loads(out)["inputs"] == digests


class TestSparseSubspaces:
    def test_theorem_layer_makes_no_dense_subspace(self, tmp_path, monkeypatch):
        """With Subspace.from_vectors made to raise, the solves of the three
        twisted kinds and the commands commuting-blocks, properness, endo
        classify, partible, inner-witness and split-biderivation run over
        F1-F4 and the F_5 catalog (twist sigma1; theta, D the sums of the
        solved commuting and biderivation bases, D0 the residual of D's
        extremal split): every subspace is built from sparse rows."""
        from trialg import io
        from trialg.classify import extremal_split
        from trialg.exactla import GF, Subspace
        from trialg.fixtures import fixture_f1, fixture_f2, fixture_f3, fixture_f4, sigma1
        from trialg.randomgen import instance_catalog
        from trialg.spaces import solve_space

        def dense_round_trip(*args):
            raise RuntimeError("Subspace.from_vectors reached")

        monkeypatch.setattr(Subspace, "from_vectors", staticmethod(dense_round_trip))
        alg, sigma2 = fixture_f2()
        for kind in ("sigma_derivation", "sigma_commuting", "sigma_biderivation"):
            solve_space(kind, alg, sigma2)
        instances = [("F1", fixture_f1), ("F3", fixture_f3), ("F4", fixture_f4)] + instance_catalog(GF(5))
        codes = {}
        for name, make in instances:
            tri = make()
            sigma = sigma1(tri)
            comm, _, bider = (solve_space(kind, tri, sigma).basis_maps()
                              for kind in ("sigma_commuting", "sigma_derivation", "sigma_biderivation"))
            theta, D = sum(comm[1:], comm[0]), sum(bider[1:], bider[0])
            files = {"T": io.triangular_to_json(tri), "sigma": sigma.to_json(), "theta": theta.to_json(),
                     "D": D.to_json(), "D0": extremal_split(tri, D, sigma).residual.to_json()}
            d = tmp_path / name
            d.mkdir()
            path = {}
            for stem, obj in files.items():
                path[stem] = str(d / (stem + ".json"))
                io._dump_json(obj, path[stem])
            t, s = path["T"], ["--sigma", path["sigma"]]
            for command, argv in (("commuting-blocks", ["commuting-blocks", t, *s, "--map", path["theta"]]),
                                  ("properness", ["properness", t, *s, "--map", path["theta"]]),
                                  ("endo classify", ["endo", "classify", t, "--map", path["sigma"]]),
                                  ("partible", ["partible", t, *s]), ("partible", ["partible", t]),
                                  ("inner-witness", ["inner-witness", t, *s, "--bid", path["D0"]]),
                                  ("split-biderivation", ["split-biderivation", t, *s, "--bid", path["D"]])):
                code, out, _ = run_cli(argv)
                codes.setdefault(command, []).append(code)
                assert code in (0, 1), (name, argv, out)
        # an exit 1 is a refused input (an unfaithful bimodule, say); each command ran through somewhere
        assert all(0 in runs for runs in codes.values()), codes


class TestClosedStdout:
    def test_reader_gone_before_output(self, f1_dir):
        """A reader that closes stdout before the report is written (as
        `trialg ... | head -c 10` may) ends the run with a CLI exit code and
        no traceback, also from the interpreter's last flush."""
        with subprocess.Popen([sys.executable, "-m", "trialg.cli", "triangular", "build",
                               str(f1_dir / "T.json")], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, env=_fresh_env()) as proc:
            proc.stdout.close()
            err = proc.stderr.read().decode()
        assert proc.returncode in (0, 1, 2)
        assert "Traceback" not in err


class TestBilinearSolves:
    def test_sigma_biderivation_at_dim_9(self, tmp_path):
        """No default dim cap: the regular Trian(UT_2, UT_2, UT_2) solves through
        the CLI to the same basis as solve_space."""
        from trialg.algcore import build_triangular
        from trialg.exactla import QQ
        from trialg.fixtures import sigma1, upper_triangular_algebra
        from trialg.io import canonical_json, triangular_to_json
        from trialg.randomgen import regular_bimodule
        from trialg.spaces import solve_space

        ut = upper_triangular_algebra(QQ, 2)
        tri = build_triangular(ut, regular_bimodule(ut), ut)
        sigma = sigma1(tri)
        (tmp_path / "T.json").write_text(canonical_json(triangular_to_json(tri)))
        (tmp_path / "sigma.json").write_text(canonical_json(sigma.to_json()))
        code, out, _ = run_cli(["solve", "sigma_biderivation", str(tmp_path / "T.json"),
                                "--sigma", str(tmp_path / "sigma.json")])
        assert code == 0
        space = json.loads(out)["result"]["space"]
        expected = solve_space("sigma_biderivation", tri, sigma).to_json()
        assert space["ambient_dim"] == 9 ** 3
        assert space["basis"] == expected["basis"]


class TestFindingExitCode:
    def test_finding_via_main(self, f1_dir, monkeypatch):
        from trialg import structure
        from trialg.errors import TheoremViolation

        def fake_center(tri):
            raise TheoremViolation("synthetic finding")

        monkeypatch.setattr(structure, "center_T", fake_center)
        code, out, _ = run_cli(["center", str(f1_dir / "T.json")])
        assert code == 2
        assert json.loads(out)["finding"] == "synthetic finding"


class TestBudgetOverride:
    def test_env_var_budget(self, monkeypatch):
        from trialg.algcore import enumeration_budget
        from trialg.structure import _enumerate_elements
        from trialg.errors import BudgetExceeded

        monkeypatch.setenv("TRIALG_BUDGET", "4")
        assert enumeration_budget() == 4
        assert len(list(_enumerate_elements(2, 2))) == 4
        with pytest.raises(BudgetExceeded):
            _enumerate_elements(2, 3)
        monkeypatch.delenv("TRIALG_BUDGET")
        assert enumeration_budget() == 10 ** 6

    def test_malformed_budget_fails_every_check(self, f1_dir, tmp_path, monkeypatch):
        """A TRIALG_BUDGET that is not an integer is an input error of partible
        over Q (F1, whose corners need no enumeration) and over F_5 (F4), and
        of inner-witness, read before any check decides."""
        from trialg.classify import inner_sigma_biderivation
        from trialg.fixtures import fixture_f1, lambda1, sigma1
        from trialg.io import canonical_json

        f1 = fixture_f1()
        bid_path = tmp_path / "delta.json"
        bid_path.write_text(canonical_json(inner_sigma_biderivation(f1, lambda1(f1), sigma1(f1)).to_json()))
        assert run_cli(["fixtures", "emit", "F4", str(tmp_path / "f4")])[0] == 0
        monkeypatch.setenv("TRIALG_BUDGET", "abc")
        T1 = str(f1_dir / "T.json")
        for argv in (["partible", T1], ["partible", str(tmp_path / "f4" / "T.json")],
                     ["inner-witness", T1, "--sigma", str(f1_dir / "sigma1.json"), "--bid", str(bid_path)]):
            code, out, _ = run_cli(argv)
            assert code == 1, argv
            assert json.loads(out)["error"] == {"type": "InputError",
                                                "message": "TRIALG_BUDGET must be an integer, got 'abc'"}

    def test_budget_of_one(self, monkeypatch):
        """Beyond the budget Condition (I) on UT_2(F_2) falls back to a zero
        radical, which the trace form cannot decide in characteristic 2,
        and F4's central-annihilation hypothesis is undecided."""
        from trialg.classify import innerness_hypotheses
        from trialg.exactla import GF
        from trialg.fixtures import fixture_f4, upper_triangular_algebra
        from trialg.structure import block_decompose, condition_I

        monkeypatch.setenv("TRIALG_BUDGET", "1")
        rep = condition_I(upper_triangular_algebra(GF(2), 2))
        assert (rep.verdict, rep.method, rep.witness, rep.implications, rep.notes) == \
            ("undecided", "none", None, None, ["no exact sufficient criterion applied"])
        f4 = fixture_f4()
        hyp = innerness_hypotheses(f4, block_decompose(f4, f4.total.identity_map())).hypotheses[2]
        assert (hyp.name, hyp.verdict, hyp.evidence) == \
            ("central_annihilation", "undecided", "span of size 5 exceeds budget")


class TestTriangularBuild:
    def test_path_references_resolve_relative_to_file(self, tmp_path):
        from trialg.fixtures import fixture_f1
        from trialg.io import algebra_to_json, bimodule_to_json, canonical_json

        f1 = fixture_f1()
        (tmp_path / "A.json").write_text(canonical_json(algebra_to_json(f1.A)))
        (tmp_path / "B.json").write_text(canonical_json(algebra_to_json(f1.B)))
        (tmp_path / "M.json").write_text(canonical_json(bimodule_to_json(f1.M)))
        (tmp_path / "T.json").write_text(
            canonical_json({"A": "A.json", "M": "M.json", "B": "B.json"}))
        code, out, _ = run_cli(["triangular", "build", str(tmp_path / "T.json")])
        assert code == 0
        assert json.loads(out)["result"]["dims"]["total"] == 3

    def test_build_report(self, f3_dir):
        code, out, _ = run_cli(["triangular", "build", str(f3_dir / "T.json")])
        assert code == 0
        res = json.loads(out)["result"]
        assert res["dims"] == {"A": 3, "M": 2, "B": 1, "total": 6}
        assert res["left_faithful"] and res["right_faithful"]

    def test_split_biderivation_roundtrip(self, f1_dir, tmp_path):
        # write the extremal map attached to the corner generator, split it back
        from trialg.classify import extremal_sigma_biderivation
        from trialg.fixtures import fixture_f1, sigma1
        from trialg.io import canonical_json

        f1 = fixture_f1()
        psi = extremal_sigma_biderivation(f1, f1.total.basis_vector(1), sigma1(f1))
        bid_path = tmp_path / "psi.json"
        bid_path.write_text(canonical_json(psi.to_json()))
        code, out, _ = run_cli(["split-biderivation", str(f1_dir / "T.json"),
                                "--sigma", str(f1_dir / "sigma1.json"),
                                "--bid", str(bid_path)])
        assert code == 0
        res = json.loads(out)["result"]
        assert res["corner_value"] == ["0", "1", "0"]
        assert res["residual"]["tensor"] == []

    def test_inner_witness_command(self, f1_dir, tmp_path):
        from trialg.classify import inner_sigma_biderivation
        from trialg.fixtures import fixture_f1, lambda1, sigma1
        from trialg.io import canonical_json

        f1 = fixture_f1()
        D = inner_sigma_biderivation(f1, lambda1(f1), sigma1(f1))
        bid_path = tmp_path / "delta.json"
        bid_path.write_text(canonical_json(D.to_json()))
        code, out, _ = run_cli(["inner-witness", str(f1_dir / "T.json"),
                                "--sigma", str(f1_dir / "sigma1.json"),
                                "--bid", str(bid_path)])
        assert code == 0
        res = json.loads(out)["result"]
        assert res["witness"]["lambda"] == ["1", "0", "-1"]


def _loaded_after(code):
    """The trialg modules, and dataclasses and inspect if loaded, in
    sys.modules after a new process runs code."""
    proc = subprocess.run([sys.executable, "-c", code + "\nimport sys\n"
                           "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'trialg' "
                           "or m in ('dataclasses', 'inspect')))"],
                          capture_output=True, text=True, env=_fresh_env())
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


class TestImportGraph:
    """`import trialg` loads no submodule, and the CLI loads only the layers
    every command needs; the rest load in the commands that run them."""

    def test_bare_import_loads_no_submodule(self):
        assert _loaded_after("import trialg") == {"trialg"}

    def test_cli_leaves_solver_theorems_and_generators_unloaded(self):
        assert _loaded_after("import trialg.cli") == {
            "trialg", "trialg.algcore", "trialg.cli", "trialg.errors", "trialg.exactla", "trialg.io",
            "trialg.sigmamaps"}

    def test_solve_path_leaves_theorem_modules_and_dataclasses_unloaded(self):
        """The modules a one-shot solve imports: no theorem module (structure,
        classify), and no dataclasses, which imports inspect."""
        loaded = _loaded_after("import trialg.cli, trialg.io, trialg.spaces")
        assert not loaded & {"trialg.structure", "trialg.classify", "dataclasses", "inspect"}
        assert loaded == {"trialg", "trialg.algcore", "trialg.cli", "trialg.errors", "trialg.exactla",
                          "trialg.io", "trialg.sigmamaps", "trialg.spaces"}

    def test_importtime_times_io_under_cli(self):
        """cli and io import their trialg modules by dotted name, not through
        the package's __getattr__, which -X importtime does not time: trialg.io
        gets its own line, nested under trialg.cli."""
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import trialg.cli"],
                              capture_output=True, text=True, env=_fresh_env())
        assert proc.returncode == 0, proc.stderr
        names = [line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                 if line.startswith("import time:")]
        assert "trialg.io" in names and names.index("trialg.io") < names.index("trialg.cli")

    def test_submodule_attribute_after_bare_import(self):
        loaded = _loaded_after("import trialg\nassert trialg.classify.properness is trialg.properness")
        assert {"trialg.classify", "trialg.spaces"} <= loaded

    def test_public_names_are_the_submodules_objects(self):
        import importlib

        assert len(trialg.__all__) == len(set(trialg.__all__)) == len(trialg._SOURCE)
        listed = dir(trialg)
        for name in trialg.__all__:
            module = importlib.import_module("trialg." + trialg._SOURCE[name])
            assert getattr(trialg, name) is getattr(module, name)
            assert name in listed

    def test_star_import_binds_every_public_name(self):
        namespace = {}
        exec("from trialg import *", namespace)
        assert all(namespace[name] is getattr(trialg, name) for name in trialg.__all__)

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            getattr(trialg, "no_such_name")
        with pytest.raises(ImportError):
            exec("from trialg import no_such_name", {})


def test_every_line_is_reached(tmp_path, capsys):
    """tests/reach.py runs the programs in a fresh process under a line
    trace (a fresh process, so that no cache such as build_parser's hides a
    body): every executable line of every function body in src/trialg runs,
    unless it is (a) part of a raise statement or of an except clause that
    only raises, (b) run only through reach.LIBRARY_ONLY, or (c) in a
    definition of reach.EXEMPT, whose reason is written there.  An EXEMPT
    entry under which no unreached line is left is stale.  The census costs
    and counts are printed past the capture, one line per run."""
    reach = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reach.py")
    proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error::ResourceWarning", reach],
                          cwd=tmp_path, capture_output=True, text=True, env=_fresh_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    lines = report["lines"]
    with capsys.disabled():
        print("\nline census: %.1f s, %d body lines, %d reached, exempt (a) %d (b) %d (c) %d"
              % (report["seconds"], lines["body"], lines["reached"], lines["exempt"]["raise"],
                 lines["exempt"]["library_only"], lines["exempt"]["exempt"]))
    others = ["%s %s" % (d["where"], d["qualname"]) for d in lines["unreached"] if not d["exempt"]]
    assert not others, "no program reaches:\n" + "\n".join(others)
    assert not lines["stale_exempt"], "stale EXEMPT entries: %s" % lines["stale_exempt"]
    assert lines["body"] == lines["reached"] + len(lines["unreached"])
