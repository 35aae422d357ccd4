import pickle

import pytest

from quadsense.errors import ValidationError
from quadsense.source import CoherenceGrid, FwmSourceParams, TwinBeamMoments

# Every @validated record: one valid set of field values, one invalid set
# and the message its check raises for it.
RECORDS = {
    "FwmSourceParams": (
        FwmSourceParams,
        (2.0, 1.0, 0.01),
        (0.5, 1.0, 0.0),
        "gain must be >= 1, got 0.5",
    ),
    "TwinBeamMoments": (
        TwinBeamMoments,
        (2.0, 1.0, 3.0, 2.0, 1.0),
        (2.0, 1.0, 3.0, 2.0, 10.0),
        "cov^2=100.0 exceeds var_p*var_c=6.0",
    ),
    "CoherenceGrid": (
        CoherenceGrid,
        (0.1, 3),
        (0.5, 3),
        "covariance share must lie in [0, 1/4], got 0.5",
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_validated_record_constructs_checks_and_pickles_like_its_namedtuple(name):
    cls, valid, invalid, message = RECORDS[name]
    fields = cls._fields
    record = cls(*valid)
    assert tuple(record) == valid and type(record) is cls
    assert cls(**dict(zip(fields, valid))) == record
    # Omitted defaulted fields take their defaults.
    required = [f for f in fields if f not in cls._field_defaults]
    given = dict(zip(fields, valid[: len(required)]))
    omitted = cls(*valid[: len(required)])
    assert omitted == cls(**given)
    assert omitted._asdict() == {**given, **cls._field_defaults}
    # A missing, an extra or an unknown argument is the caller's mistake.
    if required:
        with pytest.raises(TypeError):
            cls(*valid[: len(required) - 1])
    with pytest.raises(TypeError):
        cls(*valid, valid[0])
    with pytest.raises(TypeError):
        cls(*valid, unknown=1)
    # An invalid field fails its check, by position or by keyword.
    for build in (lambda: cls(*invalid), lambda: cls(**dict(zip(fields, invalid)))):
        with pytest.raises(ValidationError) as exc:
            build()
        assert str(exc.value) == message
    # Unpickling checks the fields again and gives an equal record.
    again = pickle.loads(pickle.dumps(record))
    assert again == record and type(again) is cls
    with pytest.raises(ValidationError):
        pickle.loads(pickle.dumps(cls._make(invalid)))
    # _make and _replace build the tuple directly, unchecked.
    assert tuple(cls._make(invalid)) == invalid
    assert tuple(record._replace(**dict(zip(fields, invalid)))) == invalid
