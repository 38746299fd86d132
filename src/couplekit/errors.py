"""Error types with machine-readable codes (the CLI maps codes to exit status)."""


class CoupleKitError(Exception):
    code = "error"


class HypothesisError(CoupleKitError):
    """A construction's mathematical hypothesis failed on the given data."""

    code = "hypothesis-violation"


class UsageError(CoupleKitError):
    code = "usage"


class ConvergenceError(CoupleKitError):
    """A solver reached its iteration bound without meeting its stop rule."""

    code = "not-converged"


def check_budget(budget: int) -> None:
    """Reject an evaluation budget below 1, wherever a search may run on it."""
    if budget < 1:
        raise UsageError(f"budget must be at least 1; got {budget}")
