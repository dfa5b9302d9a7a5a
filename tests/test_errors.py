"""Every checkmate error survives pickling, as it must to come back from a worker process."""

import inspect
import pickle

import pytest

from checkmate import errors

# one instance of each error class, with every argument its constructor takes
INSTANCES = {
    errors.CheckmateError: errors.CheckmateError("base"),
    errors.LexError: errors.LexError("bad", 1, 2),
    errors.ParseError: errors.ParseError("p", 1, 2),
    errors.EvalError: errors.EvalError("object 'y' not found"),
    errors.OptionError: errors.OptionError("unknown option 'z'"),
    errors.RuleSetError: errors.RuleSetError("no rule named 'r'"),
    errors.RuleIOError: errors.RuleIOError("r.txt: bad"),
    errors.CycleError: errors.CycleError(["a", "b"]),
    errors.DataError: errors.DataError("d.csv: empty file"),
}


def test_every_error_class_is_covered():
    classes = {
        cls for _, cls in inspect.getmembers(errors, inspect.isclass)
        if issubclass(cls, errors.CheckmateError)
    }
    assert classes == set(INSTANCES)


@pytest.mark.parametrize("err", INSTANCES.values(), ids=lambda e: type(e).__name__)
def test_pickle_round_trip(err):
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is type(err)
    assert str(back) == str(err)
    assert back.args == err.args
    assert vars(back) == vars(err)


def test_parse_error_without_position():
    back = pickle.loads(pickle.dumps(errors.ParseError("p")))
    assert (str(back), back.line, back.column) == ("p", None, None)
