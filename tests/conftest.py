"""Shared fixtures: canonical algebras, their companion maps, and cached
solved spaces (the bilinear solves are the expensive part, so they are
computed once per session)."""

import pytest

from trialg.exactla import GF, QQ
from trialg.fixtures import (
    fixture_f1,
    fixture_f2,
    fixture_f3,
    fixture_f4,
    lambda1,
    phi_one_plus_m,
    sigma1,
    theta1,
)
from trialg.sigmamaps import LinMap
from trialg.spaces import solve_space
from trialg.structure import block_decompose


@pytest.fixture(scope="session")
def f1():
    return fixture_f1()


@pytest.fixture(scope="session")
def f2_pair():
    return fixture_f2()


@pytest.fixture(scope="session")
def f3():
    return fixture_f3()


@pytest.fixture(scope="session")
def f4():
    return fixture_f4()


@pytest.fixture(scope="session")
def f1_sigma1(f1):
    return sigma1(f1)


@pytest.fixture(scope="session")
def f1_theta1(f1):
    return theta1(f1)


@pytest.fixture(scope="session")
def f1_lambda1(f1):
    return lambda1(f1)


@pytest.fixture(scope="session")
def f1_blocks(f1, f1_sigma1):
    return block_decompose(f1, f1_sigma1)


@pytest.fixture(scope="session")
def f4_sigma1(f4):
    return sigma1(f4)


@pytest.fixture(scope="session")
def f4_blocks(f4, f4_sigma1):
    return block_decompose(f4, f4_sigma1)


@pytest.fixture(scope="session")
def f3_identity(f3):
    return LinMap.identity(f3.field, f3.dim)


@pytest.fixture(scope="session")
def f3_blocks(f3, f3_identity):
    return block_decompose(f3, f3_identity)


@pytest.fixture(scope="session")
def f1_bider_space(f1, f1_sigma1):
    return solve_space("sigma_biderivation", f1, f1_sigma1)


@pytest.fixture(scope="session")
def f4_bider_space(f4, f4_sigma1):
    return solve_space("sigma_biderivation", f4, f4_sigma1)


@pytest.fixture(scope="session")
def f3_bider_space(f3, f3_identity):
    return solve_space("sigma_biderivation", f3, f3_identity)


@pytest.fixture(scope="session")
def f1_commuting_space(f1, f1_sigma1):
    return solve_space("sigma_commuting", f1, f1_sigma1)


@pytest.fixture(scope="session")
def f4_commuting_space(f4, f4_sigma1):
    return solve_space("sigma_commuting", f4, f4_sigma1)


@pytest.fixture(scope="session")
def random_f5_instances():
    """20 deterministic faithful F_5 instances with block-preserving twists."""
    from trialg.randomgen import random_faithful_instances

    return random_faithful_instances(GF(5), 20, seed=20240901)


@pytest.fixture(scope="session")
def random_f5_mixed():
    """20 deterministic F_5 instances, faithful or not (center oracles only)."""
    from trialg.randomgen import random_instances

    return random_instances(GF(5), 20, seed=20240902)


@pytest.fixture(scope="session")
def phi_m(f1):
    return phi_one_plus_m(f1)


def assert_subspace_equal(a, b):
    assert a.ambient_dim == b.ambient_dim
    assert a.basis == b.basis


QQ_FIELD = QQ
F5 = GF(5)


@pytest.fixture()
def count_aut_checks(monkeypatch):
    """Count full is_automorphism runs made through sigmamaps."""
    import trialg.sigmamaps as sm

    calls = []
    orig = sm.is_automorphism

    def counting(alg, f):
        calls.append(alg)
        return orig(alg, f)

    monkeypatch.setattr(sm, "is_automorphism", counting)
    return calls


@pytest.fixture()
def count_derived_builds(monkeypatch):
    """Record the algebra of each _bracket_map build and the (algebra, sigma)
    of each _center_map build, the makes behind FinAlgebra.bracket_map and
    center_map."""
    import trialg.algcore as ac

    built = {"bracket": [], "center": []}
    bracket, center = ac._bracket_map, ac._center_map

    def counting_bracket(alg):
        built["bracket"].append(alg)
        return bracket(alg)

    def counting_center(alg, sigma):
        built["center"].append((alg, sigma))
        return center(alg, sigma)

    monkeypatch.setattr(ac, "_bracket_map", counting_bracket)
    monkeypatch.setattr(ac, "_center_map", counting_center)
    return built


@pytest.fixture()
def count_map_builds(monkeypatch):
    """Record the dimension of each identity map LinMap.identity makes, and
    the columns of a LinMap each time lifted() returns a new integer form: one
    that is neither the form kept in its store (over Q) nor its own columns,
    shared as they are (over F_p)."""
    import trialg.exactla as ex

    built = {"identity": [], "lifted": []}
    identity, lifted = ex.LinMap.identity, ex.LinMap.lifted

    def counting_identity(field, n):
        built["identity"].append(n)
        return identity(field, n)

    def counting_lifted(self):
        before = ex.derived(self, "lifted")
        out = lifted(self)
        if out is not before and out[1] is not self.columns:
            built["lifted"].append(self.columns)
        return out

    monkeypatch.setattr(ex.LinMap, "identity", staticmethod(counting_identity))
    monkeypatch.setattr(ex.LinMap, "lifted", counting_lifted)
    return built


@pytest.fixture()
def count_coerce(monkeypatch):
    """Record the value of each field.coerce call, over Q and over F_p."""
    import trialg.exactla as ex

    calls = []
    for cls in (ex.RationalField, ex.PrimeField):
        def counting(self, x, _orig=cls.coerce):
            calls.append(x)
            return _orig(self, x)

        monkeypatch.setattr(cls, "coerce", counting)
    return calls
