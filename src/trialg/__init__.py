"""trialg: exact computer algebra for triangular algebras Trian(A, M, B).

Builds triangular algebras from structure constants, solves for complete
spaces of twisted derivations, biderivations, and commuting maps by exact
linear algebra over Q or F_p, and executes the corresponding structure and
classification results as verified identities.

``import trialg`` loads no submodule.  Each public name below is imported
from its submodule on first access (PEP 562) and then kept in this
module's globals, so a one-shot command loads only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "exactla": ("GF", "LinMap", "QQ", "Subspace", "span_coefficients"),
    "algcore": ("Bimodule", "FinAlgebra", "TriAlgebra", "build_triangular"),
    "sigmamaps": ("BilinMap", "classify_bilinear", "classify_linear", "sigma_commutator_vec"),
    "spaces": ("MapSpace", "solve_space"),
    "structure": ("AutBlocks", "annihilators", "block_decompose", "center_T", "center_direct",
                  "faithful_quotient", "inner_automorphism", "nil_radical_T", "nilpotency", "radical",
                  "sigma_center", "structure_checks", "tau_iso"),
    "classify": ("CommutingBlocks", "DerivationBlocks", "EndoBlocks", "InnerWitness", "ProperWitness",
                 "properness_sufficiency", "commuting_blocks", "endo_blocks", "endo_mono_epi",
                 "extremal_sigma_biderivation", "extremal_split", "ideal_split", "inner_biderivation_witness",
                 "inner_sigma_biderivation", "inner_sigma_derivation", "innerness_hypotheses",
                 "partibility_sufficient", "partible_witness", "posner_intersection", "properness",
                 "sigma_derivation_blocks"),
    "errors": ("TheoremViolation", "TrialgError"),
}

_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

_SUBMODULES = ("algcore", "classify", "cli", "errors", "exactla", "fixtures", "io",
               "randomgen", "sigmamaps", "spaces", "structure")

__all__ = sorted(_SOURCE)


def __getattr__(name):
    if name in _SUBMODULES:
        # importing a submodule binds it in this module's globals
        return importlib.import_module("." + name, __name__)
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + module, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_SUBMODULES))
