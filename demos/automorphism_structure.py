"""Automorphism structure: the seven-block form of corner-preserving
endomorphisms, injectivity/surjectivity from kernel data, splitting off the
diagonal part, and partibility witnesses z with sigma = conj_z . sigma_bar.

Run:  python3 demos/automorphism_structure.py
"""

from trialg import QQ
from trialg.algcore import Bimodule, build_triangular
from trialg.classify import endo_blocks, endo_mono_epi, ideal_split, partible_witness, \
    partibility_sufficient
from trialg.fixtures import fixture_f1, phi_one_plus_m, product_field_algebra, sigma1
from trialg.sigmamaps import LinMap


def main():
    f1 = fixture_f1()
    t = f1.total
    sig = sigma1(f1)
    phi = phi_one_plus_m(f1)

    print("== Conjugation by 1 + m composed with the corner negation ==")
    composite = phi.compose(sig)
    eb, report = endo_blocks(f1, composite)
    print("  block verdict:", report.verdict)
    print("  chi2 (A -> M):", eb.chi2.rows, " h (M -> M):", eb.h.rows)
    rep = endo_mono_epi(f1, eb, composite)
    print("  mono:", rep.mono, " epi:", rep.epi, " rank:", rep.rank)

    print("\n== Partibility witness ==")
    w = partible_witness(f1, composite)
    print("  z =", t.format_vector(w.z))
    print("  sigma_bar equals the corner negation:", w.sigma_bar == sig)

    print("\n== Splitting off a dead diagonal summand ==")
    kk = product_field_algebra(QQ, 2)
    m = Bimodule(QQ, 2, 1, 2, [[[1]], [[0]]], [[[1], [0]]], ["m"])
    tri = build_triangular(kk, m, product_field_algebra(QQ, 2),
                           basis_names=("a1", "a2", "m", "b1", "b2"))
    imgs = [tri.total.basis_vector(i) for i in range(5)]
    imgs[1], imgs[4] = imgs[4], imgs[1]
    swap = LinMap.from_images(QQ, imgs, 5, 5)
    spl = ideal_split(tri, swap)
    print("  T = I (+) J with dim I =", spl.ideal_i.dim, " dim J =", spl.ideal_j.dim)
    print("  J basis:", [tri.total.format_vector(v) for v in spl.ideal_j.basis])
    print("  restriction to J is anti-partible:", spl.anti_partible_j)

    print("\n== Sufficient partibility certificates ==")
    for label, instance in (("Trian(Q, Q, Q)", f1), ("the summand example", tri)):
        rep = partibility_sufficient(instance)
        print("  %-22s -> %s  %s" % (label, rep.verdict, "; ".join(rep.witnesses)))


if __name__ == "__main__":
    main()
