"""Shared exception types, and the guard every exhaustive search and table
build is sized against."""

import itertools
import math


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
# gives another: the most candidates a search may have in all (for functor
# enumeration, object maps times the candidates of each), or the most
# entries a table build may allocate
DEFAULT_GUARD = 2 ** 32


def candidates(options, guard, size=1):
    """The candidates of an exhaustive search: itertools.product over the
    option lists in the sequence options.

    The search counts size times the product of the list lengths, size
    being how often an enclosing search runs this one.  A count over guard
    is refused before the first candidate, so a search with an empty option
    list, which has no candidates, is never refused.
    """
    size = math.prod(map(len, options), start=size)
    if size > guard:
        raise SearchSpaceTooLarge(size, guard)
    return itertools.product(*options)


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
