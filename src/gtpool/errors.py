"""Exception taxonomy shared across the package."""


class GroupTestError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(GroupTestError):
    """Shape mismatch or index out of range."""


class ParameterError(GroupTestError):
    """A model or search parameter is outside its valid range."""


class CapacityError(GroupTestError):
    """Exact combinatorics requested beyond the supported size cap."""


class SizeGuardError(GroupTestError):
    """An exhaustive enumeration would exceed the configured budget."""


class InfeasibleError(GroupTestError):
    """A search or sizing request has no attainable answer at this scale."""


class MatrixParseError(GroupTestError):
    """A matrix or answer-vector file is malformed.

    Carries the offending path and 1-based line number so CLI users can
    find the bad line.
    """

    def __init__(self, path, line, message):
        self.path = str(path)
        self.line = line
        super().__init__(f"{self.path}:{line}: {message}")


def _undecodable(path, exc: UnicodeDecodeError) -> MatrixParseError:
    """The parse error for a whole-file read that met a byte outside the
    file's encoding, naming the 1-based line of that byte."""
    line = exc.object.count(b"\n", 0, exc.start) + 1
    return MatrixParseError(path, line, f"not {exc.encoding} text")


def _whole(value, name: str) -> int:
    """value as an int: an int, a numpy int or an integral float passes;
    1.5, NaN, an infinity or a string is a ParameterError, never rounded."""
    try:
        if int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ParameterError(f"{name}={value} is not a whole number")
