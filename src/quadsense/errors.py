"""Exception hierarchy for the quadsense simulator."""


class QuadsenseError(Exception):
    """Base class for all package errors."""


class ValidationError(QuadsenseError):
    """An input violates a documented invariant or precondition."""


class UndefinedSNLError(QuadsenseError):
    """A shot-noise reference is requested for zero total optical power."""


class UndefinedMomentsError(QuadsenseError):
    """Moments are requested for a region carrying no optical power."""


class ConsistencyError(QuadsenseError):
    """An internal identity failed, signalling invalid upstream moments."""


class FitInfeasibleError(QuadsenseError):
    """A calibration target set cannot be reproduced by the model.

    Carries per-target diagnostics in ``residuals_db``.
    """

    def __init__(self, message, residuals_db=None):
        super().__init__(message)
        self.residuals_db = residuals_db


class SearchError(QuadsenseError):
    """A 1-D optimization range does not bracket an interior optimum."""


class TailMassError(QuadsenseError):
    """A truncated Fock computation left too much probability in the tail."""

