"""Exception types shared across the package.

Every error raised on purpose derives from MultitrekError so callers
(and the CLI) can distinguish domain failures from genuine bugs.
"""

from __future__ import annotations


class MultitrekError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(MultitrekError):
    """An input does not match the expected schema; ``path`` points at it ("" in argv)."""

    def __init__(self, path: str, message: str = "") -> None:
        self.path = path
        super().__init__(": ".join(part for part in (path, message) if part))


class CycleError(MultitrekError):
    """The directed part of a graph contains a cycle.

    ``cycle`` is a vertex sequence that starts and ends at the same vertex.
    """

    def __init__(self, cycle: tuple[int, ...]) -> None:
        self.cycle = cycle
        super().__init__(f"directed cycle: {list(cycle)}")


class BudgetExceeded(MultitrekError):
    """An enumeration would exceed its configured cap; never truncate silently."""

    def __init__(self, what: str, budget: int) -> None:
        self.what = what
        self.budget = budget
        super().__init__(f"{what} exceeds budget of {budget}")


class DimMismatch(MultitrekError):
    """Tensor/matrix dimensions are incompatible for the requested operation."""


class NotCubical(MultitrekError):
    """The hyperdeterminant needs a cubical tensor (all dims equal, order >= 2)."""


class IndexOutOfRange(MultitrekError):
    """A subtensor index falls outside the tensor's dimensions."""


class MissingOrder(MultitrekError):
    """A model instance has no noise cumulants at the requested order."""


class InternalInconsistency(MultitrekError):
    """Two computations disagree where agreement is guaranteed.

    Raised when the search finds no system (under the oracle's rule:
    side 1 open at odd orders, each vertex carrying up to n paths there)
    while a randomized draw of the determinant is nonzero, or when a
    returned witness fails its own check.  The rule is exact at every
    order, so either way it is an implementation fault and should be
    reported with the offending inputs.
    """


class OrderUnsupported(MultitrekError):
    """A cumulant order below the first defined: 2 for samples, 1 for noise."""


class InvalidBootstrapCount(MultitrekError):
    """Bootstrap requires at least one replicate."""
