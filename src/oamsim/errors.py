"""Exception types shared across the package, and the checks that raise them."""

import math
import numbers

# what one array, or one set of arrays the oracle holds at once, may take;
# checked before the allocation
_BUDGET_BYTES = 2**30


class DomainError(ValueError):
    """An argument lies outside the physical/mathematical domain of an operation."""


class ConfigError(ValueError):
    """A run configuration document is malformed or incomplete."""


class ConvergenceError(RuntimeError):
    """A numerical refinement failed to converge, or a run would exceed its memory budget."""


def require_int(name, value, minimum):
    """Raise DomainError unless value is an integer >= minimum; numpy's count, a bool does not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise DomainError(f"{name} must be an integer >= {minimum}, got {value!r}")


def require_budget(what, need, of=None):
    """Raise ConvergenceError, naming what and of, if need bytes exceed the 1 GiB budget."""
    if need > _BUDGET_BYTES:
        # a count from JSON has no size limit; past the float range it reads inf
        gib = need / 2**30 if need < 2**1000 else math.inf
        raise ConvergenceError(f"{what} need {gib:.3g} GiB{f' of {of}' if of else ''}, "
                               f"over the {_BUDGET_BYTES / 2**30:g} GiB budget")
