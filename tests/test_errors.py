"""Package errors survive a pickle round trip, as they must to leave a worker process."""

import inspect
import pickle

import pytest

from cineprop import errors

CLASSES = [c for _, c in inspect.getmembers(errors, inspect.isclass) if issubclass(c, errors.CinepropError)]


def _example(cls):
    if issubclass(cls, errors.FormatError):
        return cls("dims", "expected 3 positive values")
    if cls is errors.SeriesPropagationError:
        failures = [(2, errors.DegenerateInputError("constant frame")), (5, errors.FormatError("spacing", "nan"))]
        return cls(failures, results=[3, 4])
    return cls("something went wrong")


def test_every_class_is_covered():
    assert len(CLASSES) == 5


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_round_trip_keeps_type_message_and_fields(cls):
    exc = _example(cls)
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc)
    assert getattr(back, "field", None) == getattr(exc, "field", None)
    if cls is errors.SeriesPropagationError:
        assert [(i, type(e), str(e)) for i, e in back.failures] == [(i, type(e), str(e)) for i, e in exc.failures]
        assert back.failures[1][1].field == "spacing"
        assert back.results == exc.results
