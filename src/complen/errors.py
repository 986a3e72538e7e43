"""Exception types shared across the package."""


class ComplenError(Exception):
    """Base class for all errors raised by this package."""


# field construction
class NotPrime(ComplenError):
    pass


class ReducibleModulus(ComplenError):
    pass


class UnsupportedDegree(ComplenError):
    pass


class InfiniteField(ComplenError):
    pass


class DegenerateLeadingCoefficient(ComplenError):
    pass


class FieldSpecError(ComplenError):
    pass


# algebra tables
class DimensionMismatch(ComplenError):
    pass


class MissingQuadraticForm(ComplenError):
    pass


class MissingUnit(ComplenError):
    pass


# constructors
class DegenerateParameter(ComplenError):
    pass


class ZeroParameter(ComplenError):
    pass


class SelfCheckFailed(ComplenError):
    pass


class CharacteristicForbidden(ComplenError):
    pass


class MuNotASolution(ComplenError):
    pass


class ReducibleCubic(ComplenError):
    pass


class UnknownFamily(ComplenError):
    pass


# length engine
class ModeUnjustified(ComplenError):
    pass


class CostCapExceeded(ComplenError):
    def __init__(self, message: str, estimate: int | None = None):
        super().__init__(message)
        self.estimate = estimate


# checkers
class NotScalarOperator(ComplenError):
    pass


class MirrorLawFailed(ComplenError):
    pass


class DegenerateForm(ComplenError):
    pass


class UnknownIdentity(ComplenError):
    pass


# io
class ParseError(ComplenError):
    def __init__(self, reason: str, line: int | None = None, column: int | None = None):
        loc = f" (line {line}, column {column})" if line is not None else ""
        super().__init__(f"{reason}{loc}")
        self.reason = reason
        self.line = line
        self.column = column


class InvariantViolation(ComplenError):
    pass
