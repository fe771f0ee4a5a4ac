"""Semantic exception hierarchy shared across the package.

The CLI maps these onto exit codes (config 2, data 3, degeneracy 4), so
library code should raise the most specific class that applies instead of
bare ValueError when the failure is user-facing.  Each error is its
message: the CLI prints `str(exc)` and nothing else, so a message names
what failed (a record, a worker's items).
"""


class CopsurvError(Exception):
    """Base class for all package errors."""


class ConfigurationError(CopsurvError, ValueError):
    """Inconsistent or out-of-range configuration (parameters, pairings)."""


class DataError(CopsurvError, ValueError):
    """Malformed or unusable input data (parse failures, empty datasets)."""


class DegeneracyError(CopsurvError, RuntimeError):
    """All importance weights collapsed to zero, in one pass or in every
    cell of a tuning grid."""
