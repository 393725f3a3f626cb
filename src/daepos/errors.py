"""Exception hierarchy shared across the package.

``ConfigError``, ``DataError`` (with its subclasses) and ``ContractError``
each carry the ``exit_code`` the CLI ends with when one of them escapes.
"""


class DaeposError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(DaeposError):
    """Invalid configuration value or command-line usage."""

    exit_code = 1


class DataError(DaeposError):
    """Problem with dataset contents."""

    exit_code = 2


class FormatError(DataError):
    """Input file does not conform to the expected layout."""


class RowError(FormatError):
    """A specific data row could not be parsed.

    ``row`` is the 1-based index of the offending data row (header and
    comment lines excluded).
    """

    def __init__(self, row: int, message: str):
        super().__init__(f"row {row}: {message}")
        self.row = row


class DatasetError(DataError):
    """Dataset is empty or unusable for the requested operation."""


class DataValueError(DataError, ValueError):
    """A domain type refuses a value of the data: a reading, a position or an AP name."""


class ContractError(DaeposError):
    """A call violated an API precondition, e.g. mismatched vector widths."""

    exit_code = 3


class ShapeError(ContractError, ValueError):
    """A domain type's columns do not fit one another."""
