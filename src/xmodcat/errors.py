"""Shared exception types."""


class XmodcatError(Exception):
    """Base class for all library errors."""


class ShapeMismatch(XmodcatError):
    """A table does not have the shape required by its container."""


class SearchSpaceTooLarge(XmodcatError):
    """An exhaustive search would exceed the configured guard."""

    def __init__(self, size, guard):
        super().__init__(f"search space of size {size} exceeds guard {guard}")
        self.size = size
        self.guard = guard


# the guard of every search and table build unless the caller (or --guard)
# gives another: the most candidates enumerated, or entries allocated
DEFAULT_GUARD = 2 ** 32


class GroupError(XmodcatError):
    """A multiplication table fails one of the group axioms."""

    def __init__(self, message, witness=None):
        super().__init__(message if witness is None else f"{message} at {witness}")
        self.witness = witness


class NotClosed(GroupError):
    pass


class NotAssociative(GroupError):
    pass


class NoIdentity(GroupError):
    pass


class NoInverse(GroupError):
    pass


class NotNormal(GroupError):
    """A subgroup is not closed under conjugation."""


class QuotientNotAbelian(XmodcatError):
    pass


class NotGammaStable(XmodcatError):
    pass


class MatrixShapeMismatch(XmodcatError):
    pass


class NotNormalized(XmodcatError):
    """A cochain table violates its normalization condition."""


class NotComposable(XmodcatError):
    pass


class NotWellDefined(XmodcatError):
    pass


class NotCoherent(XmodcatError):
    pass


class WrongType(XmodcatError):
    pass


class BadSection(XmodcatError):
    pass


class BadChoice(XmodcatError):
    """A stability choice has the wrong grade or source."""


class NotStrict(XmodcatError):
    pass


class NotRegular(XmodcatError):
    pass


class NotRegularFactorSet(XmodcatError):
    pass


class FNotConstantOnCosets(XmodcatError):
    """A comparison table fails the descent condition along the boundary."""


class UnknownMethod(XmodcatError):
    """An algorithm selector names no implemented method."""
