"""Exception types shared across the package.

Input problems split into two classes: SchemaError for documents whose shape
is wrong (missing, extra, or mistyped fields) and ValidationError for
well-shaped data that violates an invariant (B <= 0, s == t, negative costs).
Everything else maps one condition to one class so callers can dispatch on
type alone.
"""


class SchemaError(ValueError):
    """A JSON document has a missing, unknown, or mistyped field."""


class ValidationError(ValueError):
    """Well-formed data violates a model invariant."""


class DimensionMismatch(ValueError):
    """A solution's vectors do not match the instance's sizes."""


class Disconnected(RuntimeError):
    """No s-t path exists in the (support) graph."""


class NonConvergence(RuntimeError):
    """An iterative solve exhausted its iteration budget."""


class NotSeriesParallel(ValueError):
    """The graph does not reduce to a two-terminal series-parallel tree."""


class Infeasible(RuntimeError):
    """No feasible design exists within the budget."""


class TooLarge(ValueError):
    """The input exceeds a brute-force enumeration guard."""


class OddSum(ValueError):
    """Partition numbers with an odd total cannot split evenly."""


class AllVariableCostsZero(ValueError):
    """Multiplier bounds are undefined when no arc has a variable cost."""


class UnsupportedCase(ValueError):
    """The instance shape is outside what the requested solver handles."""


class BoundExceeded(RuntimeError):
    """A computed size broke its proven analytic bound: a defect, not bad input."""


class VerificationFailed(RuntimeError):
    """A solver's answer failed its own final check: a defect, not bad input."""


class OutOfRange(ValueError):
    """A cost or bound of the instance leaves the floating-point range."""
