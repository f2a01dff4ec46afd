"""Twisted derivations, biderivations, and commuting maps in action.

The sign twist on k[x]/(x^4) separates the twisted Leibniz rule from the
plain one; the corner negation on the 2x2 triangular matrices separates
twisted-commuting from commuting, with the exact failure witness.

Run:  python3 demos/twisted_maps.py
"""

from trialg import QQ, classify_bilinear, classify_linear, sigma_commutator_vec, sigma_center
from trialg.fixtures import fixture_f1, fixture_f2, lambda1, sigma1, theta1
from trialg.sigmamaps import BilinMap, LinMap
from trialg.structure import block_decompose


def main():
    print("== The sign twist on Q[x]/(x^4) ==")
    alg, sig = fixture_f2()
    d = LinMap.identity(QQ, 4) - sig
    x = alg.basis_vector(1)
    x2 = alg.mul_vec(x, x)
    print("  d = Id - sigma,  d(x) =", alg.format_vector(d.apply(x)))
    print("  d(x^2) =", alg.format_vector(d.apply(x2)))
    print("  d(x)x + xd(x) =", alg.format_vector(
        alg.add_vec(alg.mul_vec(d.apply(x), x), alg.mul_vec(x, d.apply(x)))))
    print("  plain derivation?", classify_linear("derivation", alg, d).holds)
    print("  twisted derivation?", classify_linear("sigma_derivation", alg, d, sig).holds)

    D = BilinMap.from_function(alg, lambda u, v: alg.mul_vec(d.apply(u), d.apply(v)))
    print("  D(u, v) = d(u)d(v):")
    print("    D(x^2, x) =", alg.format_vector(D.apply(x2, x)))
    dxx = D.apply(x, x)
    print("    x D(x,x) + D(x,x) x =", alg.format_vector(
        alg.add_vec(alg.mul_vec(x, dxx), alg.mul_vec(dxx, x))))
    print("    plain biderivation?", classify_bilinear("biderivation", alg, D).holds)
    print("    twisted biderivation?",
          classify_bilinear("sigma_biderivation", alg, D, sig).holds)

    print("\n== Corner negation on the 2x2 triangular matrices ==")
    f1 = fixture_f1()
    t = f1.total
    sig1, th1 = sigma1(f1), theta1(f1)
    print("  sigma: a + m + b -> a - m + b;  Theta: a + m + b -> a + m - b")
    print("  twisted commuting?", classify_linear("sigma_commuting", t, th1, sig1).holds)
    verdict = classify_linear("commuting", t, th1)
    print("  plain commuting?", verdict.holds)
    print("  witness at x = %s + %s:  [x, Theta(x)] = %s"
          % (t.basis_names[verdict.witness.indices[0]],
             t.basis_names[verdict.witness.indices[1]],
             t.format_vector(verdict.witness.element)))

    print("\n== The twisted center and the corner pairing eta ==")
    blocks = block_decompose(f1, sig1)
    z, eta = sigma_center(f1, blocks)
    print("  Z_sigma basis:", [t.format_vector(v) for v in z.basis])
    print("  eta matrix (pairs the B-slice with the A-slice):", eta.matrix.rows)
    lam = lambda1(f1)
    print("  [p, p - q]_sigma =",
          t.format_vector(sigma_commutator_vec(t, f1.p, lam, sig1)))


if __name__ == "__main__":
    main()
