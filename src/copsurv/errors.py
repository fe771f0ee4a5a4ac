"""Semantic exception hierarchy shared across the package.

The CLI maps these onto exit codes (config 2, data 3, degeneracy 4), so
library code should raise the most specific class that applies instead of
bare ValueError when the failure is user-facing.
"""


class CopsurvError(Exception):
    """Base class for all package errors."""


class ConfigurationError(CopsurvError, ValueError):
    """Inconsistent or out-of-range configuration (parameters, pairings)."""


class DataError(CopsurvError, ValueError):
    """Malformed or unusable input data (parse failures, empty datasets)."""


class DegeneracyError(CopsurvError, RuntimeError):
    """All importance weights collapsed to zero.

    Carries the diagnostic rows accumulated up to the failure so the run
    can be post-mortemed (`.diagnostics` is a list of
    (step, ess, unique, resampled) tuples).
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = list(diagnostics) if diagnostics is not None else []


class TuningError(CopsurvError, RuntimeError):
    """Every grid cell degenerated during hyperparameter search.

    `.table` holds the partial score table for inspection.
    """

    def __init__(self, message, table=None):
        super().__init__(message)
        self.table = list(table) if table is not None else []
