"""Exception hierarchy shared across the toolkit.

Mathematical failures that are *results* (a certificate that does not verify,
an infeasible LP) are returned as data, not raised; exceptions are reserved for
malformed inputs, violated preconditions, and exhausted budgets.
"""


class UdsetsError(Exception):
    """Base class for all toolkit errors."""


class DomainError(UdsetsError, ValueError):
    """Input outside the mathematical domain of an operation."""


class DegenerateSetError(UdsetsError, ValueError):
    """Operation undefined for this set (e.g. s(r) of an empty set)."""


class WorkBudgetError(UdsetsError):
    """Requested computation exceeds the configured work budget."""


class FeasibilityError(UdsetsError):
    """A pattern cannot be embedded in the requested torus."""


class SchemaError(UdsetsError, ValueError):
    """Registry / certificate file does not match the documented schema."""


class GeometryError(UdsetsError, ValueError):
    """Registry graph fails a geometric validity check (non-unit edge, ...)."""


class AlphaMismatchError(UdsetsError, ValueError):
    """Declared independence number disagrees with the exact search."""


class SearchTimeout(UdsetsError):
    """Branch-and-bound ran out of budget.

    Carries the incumbent and the best proven upper bound so callers can
    report a gap instead of losing the work.
    """

    def __init__(self, message, best=None, upper_bound=None):
        super().__init__(message)
        self.best = best
        self.upper_bound = upper_bound
