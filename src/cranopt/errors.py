"""Exception types raised across the package.

Every class derives from ValueError, so callers that do not care about
the distinction can catch the built-in.
"""


class InvalidInputError(ValueError):
    """Malformed argument: wrong shape, negative entry, non-finite value."""


class DomainError(ValueError):
    """Input outside the mathematical domain of the operation (e.g. a
    singular quantization covariance, whose fronthaul cost is infinite)."""


class InconsistencyError(ValueError):
    """A numerically impossible state was detected, pointing at corrupted
    inputs rather than a tolerance issue."""


class InstanceFormatError(ValueError):
    """Instance JSON does not match the documented schema."""
