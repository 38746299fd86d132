"""Error types with machine-readable codes (the CLI maps codes to exit status):
``UsageError`` a bad argument or input (also a ``ValueError``), ``HypothesisError``
a hypothesis failed on supplied data, ``ConvergenceError`` a solver's iteration
cap.  Every refusal in the package is one of them; anything else is a defect."""


class CoupleKitError(Exception):
    code = "error"


class HypothesisError(CoupleKitError):
    """A construction's mathematical hypothesis failed on the given data."""

    code = "hypothesis-violation"


class UsageError(CoupleKitError, ValueError):
    code = "usage"


class ConvergenceError(CoupleKitError):
    """A solver reached its iteration bound without meeting its stop rule."""

    code = "not-converged"


def check_budget(budget: int) -> None:
    """Reject an evaluation budget below 1, wherever a search may run on it."""
    if budget < 1:
        raise UsageError(f"budget must be at least 1; got {budget}")


def check_seed(seed: int) -> int:
    """The seed, refused below 0 (numpy's generators would refuse it as a builtin error)."""
    if seed < 0:
        raise UsageError(f"seed must be >= 0; got {seed}")
    return seed
