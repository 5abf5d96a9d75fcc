"""Exception types shared across the package."""


class IsinglabError(Exception):
    """Base class for all package errors."""


class InvalidInputError(IsinglabError, ValueError):
    """A precondition on user-supplied parameters was violated."""


class RetriesExhaustedError(IsinglabError, RuntimeError):
    """A rejection-sampling loop hit its retry cap."""


class TooLargeError(IsinglabError, RuntimeError):
    """An exact table, listing or kernel would pass its size cap."""


class NonReversibleError(IsinglabError, RuntimeError):
    """A kernel failed its detailed-balance validation."""


class NoNonuniquenessError(IsinglabError, ValueError):
    """A threshold that only exists for beta > beta_u was requested below it."""


class DegenerateError(IsinglabError, RuntimeError):
    """A distribution is degenerate where a non-degenerate one is required."""
