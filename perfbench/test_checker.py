"""The independent checker rejects what it should.

    python3 -m pytest -q perfbench/test_checker.py

F1 = Trian(Q, Q, Q) on (p, m, q): its derivation space is spanned by the
inner derivations ad_m and ad_p, which in RREF are the flattened maps below.
"""

import os
import random
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import arith  # noqa: E402
import check  # noqa: E402
import gen  # noqa: E402

F1 = {
    "A": {"field": {"kind": "rational"}, "dim": 1, "unit": ["1"], "mul": [[0, 0, 0, "1"]]},
    "M": {"dimA": 1, "dimM": 1, "dimB": 1, "left": [[0, 0, 0, "1"]], "right": [[0, 0, 0, "1"]]},
    "B": {"field": {"kind": "rational"}, "dim": 1, "unit": ["1"], "mul": [[0, 0, 0, "1"]]},
}
# x -> [x, m] sends p to m and q to -m; x -> -[x, p] sends m to m
AD_M = ["0", "0", "0", "1", "0", "-1", "0", "0", "0"]
AD_P = ["0", "0", "0", "0", "1", "0", "0", "0", "0"]


def space(basis):
    return {"kind": "derivation", "ambient_dim": 9, "dim": len(basis),
            "flattening": "row-major", "basis": basis}


def tri():
    return arith.Trian(F1)


def test_accepts_the_derivation_space():
    t = tri()
    check.check_space("derivation", t, None, space([AD_M, AD_P]), random.Random(1))
    check.check_complete("derivation", t, None, space([AD_M, AD_P]))


def test_rejects_a_corrupted_basis_map():
    bad = list(AD_M)
    bad[5] = "-2"
    with pytest.raises(check.CheckFailed, match="fails d\\(xy\\)"):
        check.check_space("derivation", tri(), None, space([bad, AD_P]), random.Random(1))


def test_rejects_a_basis_out_of_rref_order():
    with pytest.raises(check.CheckFailed, match="pivots do not increase"):
        check.check_space("derivation", tri(), None, space([AD_P, AD_M]), random.Random(1))


def test_rejects_a_wrong_dimension():
    with pytest.raises(check.CheckFailed, match="dim 1 over Q, 2 over F_p"):
        check.check_complete("derivation", tri(), None, space([AD_M]))


def test_rejects_output_that_is_not_one_json_object():
    assert check.one_json('{"a": 1}\n') == {"a": 1}
    for text in ('{"a": 1}\n{"b": 2}\n', "", "[1]\n", '{"a": 1}'):
        with pytest.raises(check.CheckFailed):
            check.one_json(text)


def test_sigma_and_basis_change_are_automorphism_and_invertible():
    rng = random.Random(3)
    t = arith.Trian(gen.trian_obj(gen.Q, gen.regular_trian(2)))
    sig = gen.block_sigma(t, rng, gen._q_coeff(rng), gen._q_scale(rng))
    T = t.T
    for i in range(T.dim):
        for j in range(T.dim):
            lhs = arith.apply(T.F, sig, T.mul(T.e(i), T.e(j)))
            rhs = T.mul(arith.apply(T.F, sig, T.e(i)), arith.apply(T.F, sig, T.e(j)))
            assert lhs == rhs
    P, Pinv = gen.unit_lu(3)
    assert arith.matmul(gen.Q, P, Pinv) == check.identity_mat(gen.Q, 3)
