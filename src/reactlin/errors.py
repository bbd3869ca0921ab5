"""Exception hierarchy shared by all reactlin modules."""


class ReactlinError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(ReactlinError, ValueError):
    """An argument is outside its documented domain (non-finite entry,
    negative amplitude, out-of-range synthesis parameter, ...)."""


class InapplicableError(ReactlinError):
    """The requested quantity is undefined for this system's
    classification (e.g. a standard form that needs real orthovalues,
    or maximal amplification of a non-reactive attractor)."""


class NumericFailureError(ReactlinError):
    """A numeric procedure failed to converge or an internal
    cross-check between independent routes disagreed."""
