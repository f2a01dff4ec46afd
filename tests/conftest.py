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
from trialg.sigmamaps import LinMap, block_decompose
from trialg.spaces import solve_space


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
