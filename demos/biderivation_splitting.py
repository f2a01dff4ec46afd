"""Complete twisted-biderivation spaces and their structure: each solved basis
element splits into an extremal part plus a corner-vanishing part, and the
corner-vanishing parts are inner once the four innerness hypotheses hold.

Run:  python3 demos/biderivation_splitting.py
"""

from trialg import QQ, solve_space
from trialg.classify import extremal_split, inner_biderivation_witness, innerness_hypotheses
from trialg.fixtures import fixture_f3, fixture_f4, sigma1
from trialg.sigmamaps import LinMap
from trialg.structure import block_decompose


def narrate(tri, sigma, label):
    print("== %s ==" % label)
    blocks = block_decompose(tri, sigma)
    space = solve_space("sigma_biderivation", tri, sigma)
    print("  twisted-biderivation space dim:", space.dim)
    hyp = innerness_hypotheses(tri, blocks)
    for h in hyp.hypotheses:
        print("  hypothesis %-24s %s  (%s)" % (h.name, h.verdict, h.evidence))
    for idx, D in enumerate(space.basis_maps()):
        split = extremal_split(tri, D, sigma)
        corner = tri.total.format_vector(split.corner_value)
        print("  basis element %d: corner value D(p, p) = %s" % (idx, corner))
        print("    extremal part zero:", split.psi.is_zero(),
              " residual zero:", split.residual.is_zero())
        if hyp.all_pass():
            w = inner_biderivation_witness(tri, split.residual, sigma, hypotheses=hyp)
            print("    residual is inner with witness lambda =",
                  tri.total.format_vector(w.lam))
    print()


def main():
    f3 = fixture_f3()
    narrate(f3, LinMap.identity(QQ, 6), "Trian(UT2(Q), Q^2, Q) with the identity twist")
    f4 = fixture_f4()
    narrate(f4, sigma1(f4), "the same shape over F_5 with the corner negation")


if __name__ == "__main__":
    main()
