"""Exception types shared across the library."""


class VatworldError(Exception):
    """Base class for all library errors."""


class StructureError(VatworldError):
    """Malformed object: bad shapes, unknown symbols, inconsistent fields.

    Distinct from probabilistic violations, which are reported by
    ``core.validate`` instead of raised.
    """


class ImpossibleHistoryError(VatworldError):
    """A conditioning history or observation has probability zero."""


class BudgetExceededError(VatworldError):
    """A depth-bounded word walk would exceed the word budget.

    Raised before any work by ``budget.check``; the cap is the
    VATWORLD_BUDGET environment variable (default 10**7 words).
    """


class PartitionError(VatworldError):
    """A partition is not a bisimulation; carries a violating witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class MspClosureError(VatworldError):
    """Belief-state closure did not terminate within the given caps."""

    def __init__(self, message, visited=None, depth=None, nearest_pair_distance=None):
        super().__init__(message)
        self.visited = visited
        self.depth = depth
        self.nearest_pair_distance = nearest_pair_distance


class SingularDiagonalError(VatworldError):
    """A diagonal marginal matrix is singular on required support."""
