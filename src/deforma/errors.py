"""Exception types shared across the package."""


class DeformaError(Exception):
    """Base class for every error raised by this package."""


class InputError(DeformaError, ValueError):
    """Malformed or incompatible input: bad rationals, dimension or arity
    mismatches, out-of-range indices, mixing starred with unstarred series."""


class NotCocycleError(InputError):
    """A first-order term that is not a 2-cocycle; the CLI exits 1 on it."""


class StateError(DeformaError):
    """An operation was applied to a state violating its preconditions,
    e.g. asking for an obstruction when a lower-order equation already fails."""


class ConstructionError(DeformaError):
    """A construction that is supposed to succeed failed its own consistency
    checks; this signals an implementation bug, not a mathematical finding."""
