"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Matrix/vector dimensions do not satisfy an operation's contract."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class BudgetExceededError(RuntimeError):
    """An exhaustive computation would exceed its configured budget;
    `required` is the budget it needs, or None when no budget would do."""

    def __init__(self, message: str, required: int | None, budget: int):
        super().__init__(message)
        self.required = required
        self.budget = budget


class GenerationError(RuntimeError):
    """Rejection sampling exhausted its attempt budget."""

    def __init__(self, message: str, attempts: int, last_witness=None):
        super().__init__(message)
        self.attempts = attempts
        self.last_witness = last_witness


class FitError(ValueError):
    """Not enough usable data points for a regression."""
