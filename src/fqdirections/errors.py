"""Exception types shared across the package."""


class SizeCapError(Exception):
    """A dense grid would exceed the configured table-size cap."""


class NumericalInconsistencyError(ArithmeticError):
    """A floating-point result disagrees with an exact identity beyond its guard band.

    Raised when rounding a spectral count to the nearest integer moves it by more
    than the guard band, or when a Parseval-type identity fails its tolerance.
    Either signals a transform bug, not ordinary numerical noise.
    """


class FsetParseError(ValueError):
    """Malformed .fset input; carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ConfigError(ValueError):
    """Invalid campaign configuration."""


#: Integers of this many digits or more are not spelled out in error text.
_ERROR_DIGITS = 30

#: Strings longer than this are shown in error text by a prefix of this many characters.
_ERROR_CHARS = 60


def brief(value: int | str, exponent: int = 1) -> str:
    """value**exponent for error text, not spelled out from 10^30 in magnitude on, or a string value quoted.

    For value >= 2 a power of at least 2^100 > 10^30 is not taken, however large the exponent.
    A string of more than _ERROR_CHARS characters is quoted by its prefix and its length.
    """
    if isinstance(value, str):
        if len(value) > _ERROR_CHARS:
            return f"{value[:_ERROR_CHARS]!r}... ({len(value)} characters)"
        return repr(value)
    if value >= 2 and (value.bit_length() - 1) * exponent >= 100:
        return f"over 10^{_ERROR_DIGITS}"
    value **= exponent
    if abs(value) < 10**_ERROR_DIGITS:
        return str(value)
    return f"{'under -' if value < 0 else 'over '}10^{_ERROR_DIGITS}"
