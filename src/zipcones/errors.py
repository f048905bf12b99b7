"""Exception types shared across the package.

Guard errors mean a computation was refused because it would blow past a
configured resource bound.  Theorem-violation errors mean an identity the
library relies on failed to hold in an actual computation; they should
never fire on valid inputs.
"""


class ZipconeError(Exception):
    """Base class for all package errors."""


class RankMismatchError(ZipconeError):
    """Operands live in character lattices of different rank."""


class GuardExceededError(ZipconeError):
    """A resource guard (group size, term count, ...) was hit."""


class NotPointedError(ZipconeError):
    """A cone with a nonzero lineality space (it contains a line) where a
    pointed one is needed: for its extreme rays, or for monoid membership
    over its generators."""


class TheoremViolationError(ZipconeError):
    """An identity that should hold symbolically failed in computation."""


class EmptyModuleError(ZipconeError):
    """The induced module of a weight that is not L-dominant is zero."""


class InhomogeneousWeightError(ZipconeError):
    """A section candidate is not homogeneous for the matrix weight grading."""


class WeightMismatchError(ZipconeError):
    """A section is homogeneous, but not of the claimed weight."""

    def __init__(self, found, claimed):
        super().__init__("homogeneous of weight %s, claimed %s" % (found, claimed))
        self.found = found
        self.claimed = claimed


class NotUnipotentInvariantError(ZipconeError):
    """A section candidate moves under a simple-root generator
    1 + t E_{k,k-1}: these generate the lower unitriangular group, so no
    other is checked (``oracle.unipotent_defect`` finds the t-degree)."""

    def __init__(self, generator, detail=""):
        msg = "not invariant under the unipotent generator %s" % (generator,)
        if detail:
            msg += ": " + detail
        super().__init__(msg)
        self.generator = generator
