"""Exception types shared across the package, and the integer check that raises one."""

import numbers


class DomainError(ValueError):
    """An argument lies outside the physical/mathematical domain of an operation."""


class ConfigError(ValueError):
    """A run configuration document is malformed or incomplete."""


class ConvergenceError(RuntimeError):
    """A numerical refinement failed to converge within its budget."""


def require_int(name, value, minimum):
    """Raise DomainError unless value is an integer >= minimum; numpy's count, a bool does not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise DomainError(f"{name} must be an integer >= {minimum}, got {value!r}")
