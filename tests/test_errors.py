import inspect
import pickle

import pytest

from lundberg import errors

# one instance per class, with every attribute set to a value that is not its default
_INSTANCES = [
    errors.LundbergError("generic failure"),
    errors.ValidationError("reserve must be nonnegative, got -1"),
    errors.ConfigError("must be positive", field="market.risk1.intensity"),
    errors.ConfigError("unknown figure"),
    errors.NetProfitError(-1.5),
    errors.InstabilityError("node 12 outside [0, 1]"),
    errors.AccuracyError("quadrature did not converge"),
]


def test_every_error_class_is_covered():
    classes = {cls for _, cls in inspect.getmembers(errors, inspect.isclass)
               if issubclass(cls, errors.LundbergError)}
    assert classes == {type(error) for error in _INSTANCES}


@pytest.mark.parametrize("error", _INSTANCES, ids=lambda e: type(e).__name__)
def test_errors_survive_pickling(error):
    # errors raised in a worker process reach the caller pickled
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert str(copy) == str(error)
    assert vars(copy) == vars(error)
