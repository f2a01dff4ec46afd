"""Byte-identity guard: pinned sha256 digests of canonical solve reports.

Each digest is taken over ``io.canonical_json(space.to_json())``.  Any change
to row generation, elimination, zero handling or verification that moves an
output byte fails here.  F1, F3, F4 and the regular Trian(UT_2, UT_2, UT_2)
use their corner-negating ``sigma1``; F2 is a plain algebra and uses its sign
automorphism ``sigma2``.
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
    sigma1,
    upper_triangular_algebra,
)
from trialg.randomgen import regular_bimodule
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
    space = solve_space(kind, t, sigma, bilinear_dim_cap=9)
    digest = hashlib.sha256(io.canonical_json(space.to_json()).encode("utf-8")).hexdigest()
    assert digest == GOLDEN[(name, kind)]
