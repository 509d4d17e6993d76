"""Exception hierarchy shared by all subglue modules, and the memory guard
that turns an oversized allocation into a ``PreconditionError``."""

# largest array, or set of arrays alive together, that a guarded computation
# may allocate, and the largest peak a command's run may reach over its
# lattice; a call that needs more fails up front with a PreconditionError
# instead of exhausting memory
_MEMORY_BUDGET = 1 << 29


class SubglueError(Exception):
    """Base class for every error raised by this package."""


class PreconditionError(SubglueError):
    """An operation was called on inputs that violate its contract.

    ``tag`` optionally names the hypothesis/rule that failed (the same short
    identifiers used in verification reports, e.g. ``"4.10"``) so batch
    drivers can map the failure to a named check.
    """

    def __init__(self, message, tag=None):
        super().__init__(message)
        self.tag = tag


def _require_memory(nbytes: int, what: str) -> None:
    """Raise before allocating ``what`` when its ``nbytes`` exceed the budget."""
    if nbytes > _MEMORY_BUDGET:
        raise PreconditionError(
            f"{what} needs {nbytes:,} bytes, above the {_MEMORY_BUDGET:,}-byte budget"
        )


class ConvergenceError(SubglueError):
    """An iterative solve stopped before reaching its residual target."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class UndefinedOperation(SubglueError):
    """Arithmetic on extended reals hit a form with no defined value."""


class ConfigError(SubglueError):
    """Base class for scene-config problems."""


class ConfigSyntaxError(ConfigError):
    """Malformed config text; carries the 1-based line and column."""

    def __init__(self, message, line, column):
        super().__init__(f"line {line}, col {column}: {message}")
        self.line = line
        self.column = column


class ConfigNameError(ConfigError):
    """A config referenced a set/field name that was never defined."""


class ConfigValueError(ConfigError):
    """A config value is outside its documented range or malformed."""
