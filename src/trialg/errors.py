"""Exception types shared across the toolkit.

Input and precondition problems raise subclasses of :class:`TrialgError`.
A failed identity whose hypotheses were verified raises
:class:`TheoremViolation`; that is a mathematical finding (or a bug), never
something to swallow.  The CLI maps it to its own exit code.
"""


class TrialgError(Exception):
    """Base class for all toolkit errors."""


class InputError(TrialgError):
    """Malformed file, unknown option, or unusable user input."""


class FieldMismatch(TrialgError):
    """Operands live over different scalar fields."""


class ShapeMismatch(TrialgError):
    """Matrix/vector dimensions are incompatible."""


class AmbientMismatch(TrialgError):
    """Subspaces of different ambient dimension were combined."""


class NotInSpan(TrialgError):
    """A vector has no representation in the given basis."""


class NonAssociative(TrialgError):
    """Structure constants fail associativity.

    Carries the first failing basis triple as ``args[0] == (i, j, k)``.
    """

    def __init__(self, i: int, j: int, k: int):
        super().__init__((i, j, k))
        self.triple = (i, j, k)

    def __str__(self):
        return "associativity fails on basis triple (%d, %d, %d)" % self.triple


class UnitLawViolation(TrialgError):
    """The designated unit vector is not a two-sided unit.

    Carries the first failing basis index.
    """

    def __init__(self, i: int):
        super().__init__(i)
        self.index = i

    def __str__(self):
        return "unit law fails on basis vector %d" % self.index


class DimMismatch(TrialgError):
    """Bimodule action tensors disagree with the algebra dimensions."""


class ZeroModule(TrialgError):
    """M = 0 was supplied without the explicit zero-module override."""


class NotFaithful(TrialgError):
    """The bimodule has a nonzero annihilator where faithfulness is required."""


class CharTooSmall(TrialgError):
    """Trace-form radical needs characteristic 0 or p > dim."""

    def __init__(self, p: int, dim: int):
        super().__init__((p, dim))
        self.p = p
        self.dim = dim

    def __str__(self):
        return "radical needs char 0 or p > dim; got p=%d, dim=%d" % (self.p, self.dim)


class BudgetExceeded(TrialgError):
    """An exhaustive enumeration would exceed the configured budget."""


class NotInvertible(TrialgError):
    """Element or map has no inverse."""


class SigmaMissing(TrialgError):
    """A twisted-map predicate was invoked without its automorphism."""


class SigmaNotAutomorphism(TrialgError):
    """The supplied twist map is not a unital algebra automorphism."""


class NotAutomorphism(TrialgError):
    """Map expected to be an automorphism is not."""


class NotEndomorphism(TrialgError):
    """Map expected to be a unital multiplicative endomorphism is not."""


class NotMPreserving(TrialgError):
    """Endomorphism does not map the corner bimodule into itself."""


class NotBlockPreserving(TrialgError):
    """Automorphism does not preserve the three Peirce blocks.

    The message names the first offending basis vector, its block and its image.
    """


class NotSigmaDerivation(TrialgError):
    """Map expected to be a sigma-derivation is not."""


class NotSigmaBiderivation(TrialgError):
    """Bilinear map expected to be a sigma-biderivation is not."""


class NotSigmaCommuting(TrialgError):
    """Map expected to be sigma-commuting is not."""


class NotSigmaCentral(TrialgError):
    """Element is not in the sigma-center."""


class CentralElement(TrialgError):
    """Element unexpectedly lies in the sigma-center."""


class CommutativeAlgebra(TrialgError):
    """Construction requires a noncommutative algebra."""


class PreconditionFails(TrialgError):
    """A stated precondition fails; carries a witness."""


class TheoremViolation(TrialgError):
    """An identity with verified hypotheses failed.

    Either an implementation bug or a genuine mathematical finding; surfaced
    loudly, never suppressed.  CLI exit code 2.
    """
