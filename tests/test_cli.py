"""CLI behavior: exit codes, deterministic JSON reports, parity with the API."""

import json
import subprocess
import sys

import pytest

from trialg.cli import main


def run_cli(args, tmp_path=None):
    """Invoke the CLI in-process, capturing stdout."""
    import io
    from contextlib import redirect_stderr, redirect_stdout

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


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
        with pytest.raises(SystemExit):
            run_cli(["fixtures", "emit", "F9", str(tmp_path)])


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
        assert sub.contains_vector(theta1(fixture_f1()).flatten())

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

    def test_partible_report_only(self, f1_dir):
        code, out, _ = run_cli(["partible", str(f1_dir / "T.json")])
        assert code == 0
        assert json.loads(out)["result"]["report"]["verdict"] == "partible"


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
    ], ids=["negative_index", "float_index", "bool_index", "nonnumeric_p", "float_p",
            "bool_p", "negative_dim"])
    def test_malformed_algebra_is_one_json_error(self, tmp_path, patch):
        bad = {"field": {"kind": "rational"}, "dim": 1, "unit": ["1"], "mul": [[0, 0, 0, "1"]]}
        bad.update(patch)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, out, _ = run_cli(["validate", str(path)])
        assert code == 1
        assert list(json.loads(out)) == ["error", "version"]

    def test_negative_bilinear_dim_is_one_json_error(self, f1_dir):
        path = f1_dir / "bad_bid.json"
        path.write_text(json.dumps({"dim": -1, "tensor": []}))
        code, out, _ = run_cli(["split-biderivation", str(f1_dir / "T.json"),
                                "--sigma", str(f1_dir / "sigma1.json"), "--bid", str(path)])
        assert code == 1
        assert list(json.loads(out)) == ["error", "version"]


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, f1_dir):
        _, out1, _ = run_cli(["solve", "sigma_biderivation", str(f1_dir / "T.json"),
                              "--sigma", str(f1_dir / "sigma1.json")])
        _, out2, _ = run_cli(["solve", "sigma_biderivation", str(f1_dir / "T.json"),
                              "--sigma", str(f1_dir / "sigma1.json")])
        assert out1 == out2

    def test_subprocess_matches_in_process(self, f1_dir):
        _, expected, _ = run_cli(["center", str(f1_dir / "T.json")])
        proc = subprocess.run(
            [sys.executable, "-m", "trialg.cli", "center", str(f1_dir / "T.json")],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout == expected

    def test_api_cli_parity(self, f3_dir):
        from trialg.algcore import center_T
        from trialg.fixtures import fixture_f3

        _, out, _ = run_cli(["center", str(f3_dir / "T.json")])
        via_cli = json.loads(out)["result"]["center"]
        z = center_T(fixture_f3())
        assert via_cli["dim"] == z.dim
        assert via_cli["basis"] == [[z.field.format(v) for v in row] for row in z.basis]


class TestFindingExitCode:
    def test_finding_via_main(self, f1_dir, monkeypatch):
        from trialg import algcore
        from trialg.errors import TheoremViolation

        def fake_center(tri):
            raise TheoremViolation("synthetic finding")

        monkeypatch.setattr(algcore, "center_T", fake_center)
        code, out, _ = run_cli(["center", str(f1_dir / "T.json")])
        assert code == 2
        assert json.loads(out)["finding"] == "synthetic finding"


class TestBudgetOverride:
    def test_env_var_budget(self, monkeypatch):
        from trialg.algcore import enumeration_budget, structure_checks
        from trialg.errors import BudgetExceeded
        from trialg.fixtures import upper_triangular_algebra
        from trialg.exactla import GF

        monkeypatch.setenv("TRIALG_BUDGET", "4")
        assert enumeration_budget() == 4
        with pytest.raises(BudgetExceeded):
            structure_checks(upper_triangular_algebra(GF(2), 2), "idempotents")
        monkeypatch.delenv("TRIALG_BUDGET")
        assert enumeration_budget() == 10 ** 6


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
        from trialg.fixtures import fixture_f1, sigma1
        from trialg.io import bilinmap_to_json, canonical_json
        from trialg.spaces import extremal_sigma_biderivation

        f1 = fixture_f1()
        psi = extremal_sigma_biderivation(f1, f1.total.basis_vector(1), sigma1(f1))
        bid_path = tmp_path / "psi.json"
        bid_path.write_text(canonical_json(bilinmap_to_json(psi)))
        code, out, _ = run_cli(["split-biderivation", str(f1_dir / "T.json"),
                                "--sigma", str(f1_dir / "sigma1.json"),
                                "--bid", str(bid_path)])
        assert code == 0
        res = json.loads(out)["result"]
        assert res["corner_value"] == ["0", "1", "0"]
        assert res["residual"]["tensor"] == []

    def test_inner_witness_command(self, f1_dir, tmp_path):
        from trialg.fixtures import fixture_f1, lambda1, sigma1
        from trialg.io import bilinmap_to_json, canonical_json
        from trialg.spaces import inner_sigma_biderivation

        f1 = fixture_f1()
        D = inner_sigma_biderivation(f1, lambda1(f1), sigma1(f1))
        bid_path = tmp_path / "delta.json"
        bid_path.write_text(canonical_json(bilinmap_to_json(D)))
        code, out, _ = run_cli(["inner-witness", str(f1_dir / "T.json"),
                                "--sigma", str(f1_dir / "sigma1.json"),
                                "--bid", str(bid_path)])
        assert code == 0
        res = json.loads(out)["result"]
        assert res["witness"]["lambda"] == ["1", "0", "-1"]
