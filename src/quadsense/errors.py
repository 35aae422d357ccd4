"""Exception hierarchy for the quadsense simulator, and :func:`validated`,
which makes a record type check its fields."""


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

    The check rides on one ``__new__`` made once per class, with the
    record's own parameter list and defaults, as ``namedtuple`` makes its
    own: it builds the tuple with ``tuple.__new__`` and checks it, so a
    missing or unknown argument is a ``TypeError`` as before, and pickling
    and copying check the fields too. ``_make`` and ``_replace`` build
    tuples directly and skip the check."""
    args = ", ".join(cls._fields)
    namespace = {"_tuple_new": tuple.__new__, "_check": cls.__post_init__}
    exec(
        f"def __new__(_cls, {args}):\n"
        f"    _self = _tuple_new(_cls, ({args},))\n"
        f"    _check(_self)\n"
        f"    return _self\n",
        namespace,
    )
    new = namespace["__new__"]
    new.__defaults__ = cls.__new__.__defaults__
    new.__doc__ = cls.__new__.__doc__
    new.__qualname__ = f"{cls.__qualname__}.__new__"
    cls.__new__ = new
    return cls
