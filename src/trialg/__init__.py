"""trialg: exact computer algebra for triangular algebras Trian(A, M, B).

Builds triangular algebras from structure constants, solves for complete
spaces of twisted derivations, biderivations, and commuting maps by exact
linear algebra over Q or F_p, and executes the corresponding structure and
classification results as verified identities.
"""

__version__ = "0.1.0"

from .exactla import GF, QQ, Mat, Subspace, kernel_basis, rref, span_coefficients
from .algcore import (
    Bimodule,
    FinAlgebra,
    TriAlgebra,
    annihilators,
    build_triangular,
    center_T,
    center_direct,
    faithful_quotient,
    nil_radical_T,
    nilpotency,
    nilpotency_T,
    radical,
    structure_checks,
    tau_iso,
)
from .sigmamaps import (
    AutBlocks,
    BilinMap,
    LinMap,
    alpha_beta_reduce,
    block_decompose,
    classify_bilinear,
    classify_linear,
    inner_automorphism,
    sigma_center,
    sigma_center_oracle,
    sigma_commutator_vec,
)
from .spaces import (
    DerivationBlocks,
    MapSpace,
    extremal_sigma_biderivation,
    inner_derivation_witness,
    inner_sigma_biderivation,
    inner_sigma_derivation,
    posner_intersection,
    sigma_derivation_blocks,
    solve_space,
)
from .classify import (
    CommutingBlocks,
    EndoBlocks,
    InnerWitness,
    ProperWitness,
    properness_sufficiency,
    commuting_auto_check,
    commuting_blocks,
    endo_blocks,
    endo_mono_epi,
    extremal_split,
    ideal_split,
    inner_biderivation_witness,
    innerness_hypotheses,
    partibility_sufficient,
    partible_witness,
    properness,
)
from .errors import TheoremViolation, TrialgError
