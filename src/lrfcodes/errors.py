"""Exception types shared across the package, and its one size check."""

import numbers


class InvalidParameterError(ValueError):
    """A constructor or operation received an out-of-range parameter."""


def check_size(name: str, value, low: int = 1, high: int | None = None):
    """``value`` as an int if it is an integer in ``low..high`` (no upper
    bound for None); a numpy integer is one, a bool is not. Raises
    ``InvalidParameterError`` otherwise."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low
            or high is not None and value > high):
        bound = f">= {low}" if high is None else f"in {low}..{high}"
        raise InvalidParameterError(f"{name} must be an integer {bound}, got {value!r}")
    return int(value)


class NoLossError(InvalidParameterError):
    """A loss-aware distribution was requested for a window with zero losses.

    Callers should send zero encoding symbols instead.
    """


class InfeasibleCapError(InvalidParameterError):
    """The requested maximum degree is below the minimum useful degree."""


class InvalidInputError(ValueError):
    """Malformed decoder input: duplicate indices, length mismatches, etc."""


class DecodeFailure(RuntimeError):
    """Decoding could not complete with the available symbols."""

    def __init__(self, message: str, unresolved: int = 0, stage: str | None = None):
        super().__init__(message)
        self.unresolved = unresolved
        self.stage = stage


class SessionFailure(RuntimeError):
    """A transfer session exhausted its repair budget on some window."""

    def __init__(self, message: str, window: int, unresolved: int):
        super().__init__(message)
        self.window = window
        self.unresolved = unresolved
