"""Byte-identity guard: pinned sha256 digests of canonical solve reports.

Each digest is taken over ``io.canonical_json(space.to_json())``.  Any change
to row generation, elimination, zero handling or verification that moves an
output byte fails here.  F1, F3, F4 and the regular Trian(UT_2, UT_2, UT_2)
use their corner-negating ``sigma1``; F2 is a plain algebra and uses its sign
automorphism ``sigma2``.  The untwisted derivation, commuting and
biderivation kinds are pinned on the same instances.
"""

import hashlib

import pytest

from trialg import io
from trialg.algcore import build_triangular
from trialg.exactla import GF, QQ
from trialg.fixtures import (
    fixture_f1,
    fixture_f2,
    fixture_f3,
    fixture_f4,
    phi_one_plus_m,
    sigma1,
    upper_triangular_algebra,
)
from trialg.randomgen import regular_bimodule
from trialg.sigmamaps import MAP_KINDS
from trialg.spaces import solve_space

GOLDEN = {
    ("F1", "sigma_derivation"): "0cf017cee6f68e4c6d414dd5d8e376337783ac733e14411bf352adc8faf1389f",
    ("F1", "sigma_commuting"): "ed1918cd5c72f96203281f9c09bdef44111f57b5294af13abe545c0c4743a5ff",
    ("F1", "sigma_biderivation"): "087f272f7c69ae7f6109676787a8dc4469cf1f31dc64ff052bb317e0364d6a62",
    ("F2", "sigma_derivation"): "af396f415cbb44e3d446d29e9e412eb5bd861eed50b39a07138a17bfa3de3a46",
    ("F2", "sigma_commuting"): "80d367e9f660813debc3076e73cb5bebb21ec054eb2625e5ffa878f5c26ac18c",
    ("F2", "sigma_biderivation"): "8a9b99031c7caa7b6a96918255b88e4ddf72837c82f06672c9bb98bdde509d86",
    ("F3", "sigma_derivation"): "c12d8d091b9ec8715335baf3308cec46c2d0f3436970161b09c38cb746ccdeea",
    ("F3", "sigma_commuting"): "5148a6417dcb1b3e5a21b9fa3c612719a9e42621bc3da04b5c9fa4dc2689ce77",
    ("F3", "sigma_biderivation"): "cf955cecbb94eb0371351258372774cde087cf822de693c1ad48d2ebd98bdd04",
    ("F4", "sigma_derivation"): "e9cae47e634af2d863b7380d9fcee83444352ff571b2b595e9a4719f6abf00f6",
    ("F4", "sigma_commuting"): "05738190a05910869dfc8a6acf26f2d7ee0db226d9dce4dc5804613124e74280",
    ("F4", "sigma_biderivation"): "ce2be763d17b039e6489a8bfb2d74b5c564ba48b92e047bc8e5642f8747381dd",
    ("UT2reg-Q", "sigma_derivation"): "982d6343192186d4729d48484a318665a229b1fbecc93580aff9aef92fc09785",
    ("UT2reg-Q", "sigma_commuting"): "c961049cf08ebde3d17e9b11f2dda82f6b29cf7ac09505584d521f028e771efb",
    ("UT2reg-Q", "sigma_biderivation"): "dc7d12acb4bb611a03f0fa5fc35264a59f3aba26dc2239f1f9deb5abd39fcade",
    ("UT2reg-F5", "sigma_derivation"): "e541da5de533a4ed86cb439051d4164ddbaa903bf9e35a49a6b8b6177d4004f9",
    ("UT2reg-F5", "sigma_commuting"): "0d033c3ddde93ba2eaab8fcce78e556554f199da2035eb483ed09e8ba19029a5",
    ("UT2reg-F5", "sigma_biderivation"): "3a2e34eff25ecd291b3961eee99d5372b0652b660c3862ecc84baec5774c013c",
    # the untwisted kinds, solved with no twist map: each is its sigma-kind at sigma = 1
    ("F1", "derivation"): "268802922b2818e2d54c0cdadf20d44fa8e5fd32f272b198e3205e9daca1b2a1",
    ("F1", "commuting"): "d791a9de7f9bc8f26aa0f9913de8f2f11e13a503b91237e99bb18f57f24275e4",
    ("F1", "biderivation"): "0c4b02e99cc425d76d9a1df8204aeccc39829d50c3a2502fa3f8449430ae8caa",
    ("F2", "derivation"): "755a3335402a6c816ef974060fa2d1d396759c7f1429ba5cca84e3d3f1535107",
    ("F2", "commuting"): "446e8433f4a23f523fadc33a676c7a165bf1ffb956bcda10c6b1ee44d52f6554",
    ("F2", "biderivation"): "50672b38aaf37dff0624150027638f80902cb7eed283f4b7602387462cb9c14e",
    ("F3", "derivation"): "6b1c0f31cf4abc8747f0cc282785574d5d43d84359f76caf143e3fd8a0707099",
    ("F3", "commuting"): "2be3e72beb0de9026e722fac2f56f1924a3931936b720daf4fc3feb77b4d952b",
    ("F3", "biderivation"): "b6aa67e849e1b59a86a80c0cfbd0da918a4eef87da446e47b39d5cffc1cc1691",
    ("F4", "derivation"): "88da098c3d33bd6a65ccbf1f158ce9c59173ba67b8438ca3d5556ec600fc01f3",
    ("F4", "commuting"): "b404d1cc4acd7750b989150daf959f4429f43a1a2ab86c19638fc89197997923",
    ("F4", "biderivation"): "539081754d9f7fa815d464712fd09fcf887977574d8184458a978b656db2479a",
    ("UT2reg-Q", "derivation"): "b40c8611ed48b1f34b7766c11be7109f2c6d045f0e2f868678d70855fff2467e",
    ("UT2reg-Q", "commuting"): "fc5b6d83416cc95b667be2fe58e1d97aebce0c13069f0ab6b6ac563e17c5906b",
    ("UT2reg-Q", "biderivation"): "6d620feabcadc80cd24604b26611c67e55f9746152308a0d1a307d59642b905c",
    ("UT2reg-F5", "derivation"): "7dae70573afe619966a7439850c53047e9926a975af5d10f4659ea6dd13948f4",
    ("UT2reg-F5", "commuting"): "da6e9f180c84158b63a62b7d431a29319f1004055dc0f4cf2f933abf79b96c5c",
    ("UT2reg-F5", "biderivation"): "6f8a63470df35b39135cd60dafb6cc1932f1892550182e8494e20d2e48f8602f",
}


def _regular_ut2(field):
    ut2 = upper_triangular_algebra(field, 2)
    return build_triangular(ut2, regular_bimodule(ut2), ut2)


def _instance(name):
    if name == "F2":
        return fixture_f2()
    t = {"F1": fixture_f1, "F3": fixture_f3, "F4": fixture_f4,
         "UT2reg-Q": lambda: _regular_ut2(QQ), "UT2reg-F5": lambda: _regular_ut2(GF(5))}[name]()
    return t, sigma1(t)


@pytest.mark.parametrize("name,kind", sorted(GOLDEN))
def test_solve_report_digest(name, kind):
    t, sigma = _instance(name)
    space = solve_space(kind, t, sigma if MAP_KINDS[kind].twisted else None)
    digest = hashlib.sha256(io.canonical_json(space.to_json()).encode("utf-8")).hexdigest()
    assert digest == GOLDEN[(name, kind)]


# ---------------------------------------------------------------------------
# CLI reports of every command but solve and fixtures emit
# ---------------------------------------------------------------------------
#
# Each digest is taken over ``io.canonical_json(report["result"])`` of one CLI
# run on an emitted fixture (F1, F3, F4) with its ``sigma1`` or ``identity``
# twist, or with no twist map (None); validate and radical read F2's A.json.
# The map inputs come from solved spaces: theta is the sum of the basis maps
# of the sigma-commuting space, D the sum of the basis maps of the
# sigma-biderivation space, and D0 the residual of D's extremal split (so
# D0(p, p) = 0, as inner-witness requires).  The endo-classify and partible
# runs take their map from ``sigma1``, ``identity`` or ``phi_one_plus_m`` (the
# inner automorphism by 1 + m, which is not block-preserving).

CLI_FIXTURES = ("F1", "F3", "F4")
CLI_SIGMAS = ("sigma1", "identity")
CLI_MAPS = CLI_SIGMAS + ("phi_one_plus_m",)

CLI_GOLDEN = {
    ("center", "F1", None): "06f78c87c833cc636333114365163f5e49dd6fa325f35d5715c9c3593f9531e7",
    ("center", "F3", None): "6e13ca0b7311572ef289514789056ff6a02eb5f7820b6fa19fba5ea2365c4333",
    ("center", "F4", None): "6e13ca0b7311572ef289514789056ff6a02eb5f7820b6fa19fba5ea2365c4333",
    ("sigma-center", "F1", "sigma1"): "b0f5762dc42c61a3e433c206d22ac1e8b5acc575304629da0cde9a522bab3df3",
    ("sigma-center", "F1", "identity"): "a236b078c3403d79dd8224a2c5cdacdedc51fd73da8089b2ff11432ce22723cc",
    ("sigma-center", "F3", "sigma1"): "248635e9aac9ebfbad3ee99fbe7a21754e5136c471a2ad529d461c7e41d19464",
    ("sigma-center", "F3", "identity"): "5b0c294c46148a23486b86d25d485ccf51c5ddf76c172c72f109b07194f14277",
    ("sigma-center", "F4", "sigma1"): "2741de28721ddc814712924149920fd3ef295d7b36eae2629bb67e6dd6fe954c",
    ("sigma-center", "F4", "identity"): "5b0c294c46148a23486b86d25d485ccf51c5ddf76c172c72f109b07194f14277",
    ("properness", "F1", "sigma1"): "d13002ff8c9224ce9d7919d1458243ee446c147b4339a790765f079d8758b762",
    ("properness", "F1", "identity"): "5c4813139d02c6b0f8669d0228fd0fae076034e4734b2e6f77849255a95bfcf9",
    ("properness", "F3", "sigma1"): "3a4f75d1f9ab8c60fdb668d663917f7ecdbf7f41e6cac4fe2b0185dc45acfa66",
    ("properness", "F3", "identity"): "30d3b367b5c6a06302d4841a205437ef83025068506e4d003f58effcbc5ca306",
    ("properness", "F4", "sigma1"): "32ec3f865d54b385d818a968c2ab422f563181921a67eb8c05a3907e84440e7f",
    ("properness", "F4", "identity"): "30d3b367b5c6a06302d4841a205437ef83025068506e4d003f58effcbc5ca306",
    ("commuting-blocks", "F1", "sigma1"): "2f4e66b2c920e843b81f84fc22f2bf544c7656c3df77ece1f735620b69b03ce0",
    ("commuting-blocks", "F1", "identity"): "fe00bb40652b94d6646a79a95cd79f82c5fe3fd6a529b66be13cefcb735095ad",
    ("commuting-blocks", "F3", "sigma1"): "a8ff00ae512d37de6b60d6153a4f6c91812f45581f97a8054e6f202d97573ead",
    ("commuting-blocks", "F3", "identity"): "e641ae96769fa416b561f81eff12dbb65884622f90817c71dc38e5a5f51c4039",
    ("commuting-blocks", "F4", "sigma1"): "322de2df21a7507feb55feb9504a3fd31294136f8c30f306f1c01fbed6263ee8",
    ("commuting-blocks", "F4", "identity"): "e641ae96769fa416b561f81eff12dbb65884622f90817c71dc38e5a5f51c4039",
    ("split-biderivation", "F1", "sigma1"): "1b2f6b658370a1512d7f1e2e208eb1c362641eca68f8ce930868b1fd3fbbf2a3",
    ("split-biderivation", "F1", "identity"): "1b2f6b658370a1512d7f1e2e208eb1c362641eca68f8ce930868b1fd3fbbf2a3",
    ("split-biderivation", "F3", "sigma1"): "5dc12fabfdabe9b32001e8429774797c9251155157b77926ec397ee18ba59ad1",
    ("split-biderivation", "F3", "identity"): "5dc12fabfdabe9b32001e8429774797c9251155157b77926ec397ee18ba59ad1",
    ("split-biderivation", "F4", "sigma1"): "54af8de86602dee4abec65c3466d500f1ed4c976f00fcfa30b893718176a31eb",
    ("split-biderivation", "F4", "identity"): "54af8de86602dee4abec65c3466d500f1ed4c976f00fcfa30b893718176a31eb",
    ("inner-witness", "F1", "sigma1"): "29f30c943d2f152b346c602257e58579f5147ff7f2fdc95c2e48d0434f12456d",
    ("inner-witness", "F1", "identity"): "29f30c943d2f152b346c602257e58579f5147ff7f2fdc95c2e48d0434f12456d",
    ("inner-witness", "F3", "sigma1"): "de7a1ac02c192c261ae7d889ba500080404807947088782b2cc70cee0f710567",
    ("inner-witness", "F3", "identity"): "09507b0fed67c9d996659ee89202f1968d54004884a6e62af890d9079cc6b571",
    ("inner-witness", "F4", "sigma1"): "49d47dfa23c97691be5cbad98117b6345448bd7430dfab41d7a83fef1308216f",
    ("inner-witness", "F4", "identity"): "d66b74f9b7995dd1d04f5bcb6877300746baec060a783ca74666e3d8021f4866",
    ("endo-classify", "F1", "sigma1"): "3bcf323de4b7bdbc513ba71e858fff4f2b4c59b8cac1788e53d9ac0501b38941",
    ("endo-classify", "F1", "identity"): "e824f98e2b9c008f415b4eecce0606f8011f142edc9883e3eff701c2f6e73249",
    ("endo-classify", "F1", "phi_one_plus_m"): "2f8b5569154b57474ed3cb86f056e08c76243f8072d3c2b507a8ee39d0d80fe3",
    ("endo-classify", "F3", "sigma1"): "92b86f3be6ada546eb779e7f00a0e478ae666d1f22b190b809d3a5a83521efaa",
    ("endo-classify", "F3", "identity"): "35208bb6a7b9c5d2607cad5a33534e6f06d73f6279a1118328ccd7d0f89fabe6",
    ("endo-classify", "F3", "phi_one_plus_m"): "7f9b4d4846e43b51f1fec57f51bbe9a643f2ce2e179991a44c3d300c42f36959",
    ("endo-classify", "F4", "sigma1"): "ef01c38d91e7c85cb8e620b51811633ba28294a2ea658ba1351ad71fc565a543",
    ("endo-classify", "F4", "identity"): "35208bb6a7b9c5d2607cad5a33534e6f06d73f6279a1118328ccd7d0f89fabe6",
    ("endo-classify", "F4", "phi_one_plus_m"): "9243e5b7cb8eab2b8fe71e6eae47d59d174d2ea30071298fc1f5254994b9be5a",
    ("partible", "F1", "sigma1"): "379bfbe585e57cee84fc537f23a6a5ef4e17b8e7cd840cb9174817baf6286121",
    ("partible", "F1", "identity"): "e78f4cded5a1a2c29e8bc07f9abd341ada9cef6c8280a485fa7383ffedc930b8",
    ("partible", "F1", "phi_one_plus_m"): "ddccff87a4fce94ef73d16d7b5b14fb51a3242c0b346eb8cdeb62c3aff221c07",
    ("partible", "F3", "sigma1"): "7dc43d1f7c166a651f4c1e1c7bad19290290a82bbea8bd6cf8d837e16558601f",
    ("partible", "F3", "identity"): "d14f6704316caff41715c3a110937a457a9135f0565d1c2c726db88cade8321d",
    ("partible", "F3", "phi_one_plus_m"): "a93d29537edb6b2a349817d43faafabe4a8cae91661824651e6b208bad84736b",
    ("partible", "F4", "sigma1"): "ff8f5088f9b75b3b5f23181da77327060b21527e0df74e9c5c6f1a7a11bb0208",
    ("partible", "F4", "identity"): "d14f6704316caff41715c3a110937a457a9135f0565d1c2c726db88cade8321d",
    ("partible", "F4", "phi_one_plus_m"): "a93d29537edb6b2a349817d43faafabe4a8cae91661824651e6b208bad84736b",
    # the one-file commands: validate and radical on F2's A.json; triangular build,
    # nil-radical and partible (its sufficiency report, no --sigma) on T.json
    ("validate", "F2", None): "462655b91cb3f1c80c4eaa28c47646ce0db5dbed56c6e61a0092feade49bad50",
    ("radical", "F2", None): "6112b235ab7071b562c4fe3473d9c48164abe050c70c55f310cbcae85c20dfca",
    ("triangular-build", "F1", None): "0a0be85cc4a1e8daad9b9b53b5356614f6afeb3ddc997289b95b1519e7e8a47d",
    ("triangular-build", "F3", None): "dc343819ab8488b9c50ceef38d8bd03daa917e1d5de35eb49ff05a49cc4ebb02",
    ("triangular-build", "F4", None): "d4caf30b84a8df5a2fafef03025a8523225ded3448a5e40802ac84f2280730a3",
    ("nil-radical", "F1", None): "b6f7d9216a78cc0950cee4bb6784487127bfe202aed53b9fe318cf3ca1631eb6",
    ("nil-radical", "F3", None): "e1a80ea2d86f078f51640810ad1e1da3d6b5a4de6ba5bb94a93375bafb59f0cb",
    ("nil-radical", "F4", None): "e1a80ea2d86f078f51640810ad1e1da3d6b5a4de6ba5bb94a93375bafb59f0cb",
    ("partible", "F1", None): "c93f4f58dffb1cb30c1e525494a616ccce161d5a6be5af47684d844a4da13d33",
    ("partible", "F3", None): "da769338173602b1d62948454951e7bb9b66801c382a9ad595af9404d5958be1",
    ("partible", "F4", None): "65b493dd98b87c23966b9b2a11a2a3ecb05da69eb6341aeec9d468922aec2149",
}


def _sum(maps):
    total = maps[0]
    for m in maps[1:]:
        total = total + m
    return total


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    from trialg.classify import extremal_split

    root = tmp_path_factory.mktemp("cli-golden")
    io.emit_fixture("F2", str(root / "F2"))
    for name in CLI_FIXTURES:
        d = root / name
        io.emit_fixture(name, str(d))
        tri = io.load_triangular(str(d / "T.json"))
        for sig_name in CLI_SIGMAS:
            sigma = io.load_linmap(str(d / (sig_name + ".json")), tri.field)
            theta = _sum(solve_space("sigma_commuting", tri, sigma).basis_maps())
            D = _sum(solve_space("sigma_biderivation", tri, sigma).basis_maps())
            D0 = extremal_split(tri, D, sigma).residual
            for stem, m in (("theta", theta), ("D", D), ("D0", D0)):
                (d / ("%s_%s.json" % (stem, sig_name))).write_text(io.canonical_json(m.to_json()))
        (d / "phi_one_plus_m.json").write_text(io.canonical_json(phi_one_plus_m(tri).to_json()))
    return root


def _cli_args(command, name, sig_name, root):
    d = root / name
    t = str(d / "T.json")
    if command in ("validate", "radical"):
        return [command, str(d / "A.json")]
    if command == "triangular-build":
        return ["triangular", "build", t]
    if sig_name is None:
        return [command, t]
    if command == "endo-classify":
        return ["endo", "classify", t, "--map", str(d / (sig_name + ".json"))]
    args = [command, t, "--sigma", str(d / (sig_name + ".json"))]
    if command in ("properness", "commuting-blocks"):
        args += ["--map", str(d / ("theta_%s.json" % sig_name))]
    elif command == "split-biderivation":
        args += ["--bid", str(d / ("D_%s.json" % sig_name))]
    elif command == "inner-witness":
        args += ["--bid", str(d / ("D0_%s.json" % sig_name))]
    return args


def cli_result_digest(command, name, sig_name, root):
    import contextlib
    import io as stdio
    import json

    from trialg.cli import main

    out = stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(stdio.StringIO()):
        code = main(_cli_args(command, name, sig_name, root))
    assert code == 0, out.getvalue()
    result = json.loads(out.getvalue())["result"]
    return hashlib.sha256(io.canonical_json(result).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("command,name,sig_name", sorted(CLI_GOLDEN, key=str))
def test_cli_result_digest(cli_inputs, command, name, sig_name):
    assert cli_result_digest(command, name, sig_name, cli_inputs) == \
        CLI_GOLDEN[(command, name, sig_name)]


# ---------------------------------------------------------------------------
# partibility and innerness reports over the instance catalog
# ---------------------------------------------------------------------------
#
# Each digest is taken over ``io.canonical_json`` of the list of to_json()
# reports, one per instance_catalog entry in catalog order, of
# partibility_sufficient(tri) or of innerness_hypotheses at the identity
# twist.  Over the four fields the central-annihilation hypothesis passes,
# fails and is undecided (over Q, on a twisted center of dim > 1).

REPORT_GOLDEN = {
    ("partibility", "F2"): "3ee40b6f890b8a989c587fac19a57b77ef559c6fcdfaa9cd318e28d1d8d8dfe8",
    ("partibility", "F3"): "56a478aeb836da8991c6c19426a6e37efed87b58682df208b7f20944b67b9fac",
    ("partibility", "F5"): "1f82cc423a034764f76012985f6cdc08d7d154ec35c8ce36a5f3265ca84661eb",
    ("partibility", "Q"): "71db678c8ec1c7f8d12db86fdb50bff82861e1eb220990663d4dda5d45666fbf",
    ("innerness", "F2"): "9f666654396dc421b6808f38342af994cf889faadcad5ba2d1343ac46c591120",
    ("innerness", "F3"): "e5a0ccfdedf0eac4d38f8dace202d7afa1510c48e582f5fd6a3a9ab3057361d2",
    ("innerness", "F5"): "9554c595d9fe0fb43c01bd03879249cbbca20f49f2061f990d6e5c9d69899b60",
    ("innerness", "Q"): "25cccf240399a69649744a57c0d6061ccb1a6930ed2d8281601154d99974df4f",
}
REPORT_FIELDS = {"F2": GF(2), "F3": GF(3), "F5": GF(5), "Q": QQ}


@pytest.mark.parametrize("report,field_name", sorted(REPORT_GOLDEN))
def test_catalog_report_digest(report, field_name):
    from trialg.classify import innerness_hypotheses, partibility_sufficient
    from trialg.randomgen import instance_catalog
    from trialg.structure import block_decompose

    reports = []
    for _, make in instance_catalog(REPORT_FIELDS[field_name]):
        tri = make()
        rep = partibility_sufficient(tri) if report == "partibility" else \
            innerness_hypotheses(tri, block_decompose(tri, tri.total.identity_map()))
        reports.append(rep.to_json())
    digest = hashlib.sha256(io.canonical_json(reports).encode("utf-8")).hexdigest()
    assert digest == REPORT_GOLDEN[(report, field_name)]


# ---------------------------------------------------------------------------
# demo scripts
# ---------------------------------------------------------------------------
#
# Each digest is taken over the stdout of one demo run as
# ``PYTHONPATH=src python demos/<name>.py`` in a fresh process.

DEMO_GOLDEN = {
    "automorphism_structure": "4d23781f3ed6eab8bd3c204caff234aae206edde04bc31f5b2b48df91b54859b",
    "biderivation_splitting": "e00eea27acce5f2f487ef696d6f28e4b97fe9047a0ed83fecac24580060393df",
    "triangular_basics": "b3bb066fff4b23fb5b0d67776f5bf8eebd224f969085cd6b43ecd2055a30656f",
    "twisted_maps": "7e654bf8c402140dcb43c5fc4179085f96674a93d547123c8dc68291d60849f4",
}


@pytest.mark.parametrize("name", sorted(DEMO_GOLDEN))
def test_demo_stdout_digest(name):
    import os
    import subprocess
    import sys

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run([sys.executable, os.path.join(root, "demos", name + ".py")],
                          capture_output=True, env=env, check=True)
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_GOLDEN[name]
