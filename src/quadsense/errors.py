"""Exception hierarchy for the quadsense simulator, and :func:`validated`,
which makes a record type check its fields."""

import functools


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


def validated(cls):
    """Class decorator: each new instance of ``cls``, a ``typing.NamedTuple``,
    is passed to its ``__post_init__``, which raises on an invalid field.
    ``_make`` and ``_replace`` build tuples directly and skip the check."""
    new, check = cls.__new__, cls.__post_init__

    @functools.wraps(new)
    def __new__(cls_, *args, **kwargs):
        self = new(cls_, *args, **kwargs)
        check(self)
        return self

    cls.__new__ = __new__
    return cls
