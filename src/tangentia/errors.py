"""Exception types shared across the package."""


class TangentiaError(Exception):
    """Base class for all package errors."""


class NumericDomainError(TangentiaError):
    """A function evaluation produced a nonfinite value.

    Carries the offending point so quadrature failures can be located.
    """

    def __init__(self, point, value):
        self.point = tuple(float(c) for c in point)
        self.value = value
        super().__init__(
            f"nonfinite evaluation {value!r} at point {self.point}"
        )


class SpecParseError(TangentiaError):
    """Syntax error in the function-spec mini-language."""

    def __init__(self, message, position):
        self.position = position
        super().__init__(f"{message} (at position {position})")


class LadderDivergenceError(TangentiaError):
    """A difference-quotient ladder failed to settle.

    The rung trace is attached so callers can inspect (or flag the point
    as singular).
    """

    def __init__(self, message, trace):
        self.trace = list(trace)
        super().__init__(message)


class MaximalBlowupError(TangentiaError):
    """Ball averages exceeded the overflow guard: Mf(x) = infinity."""
