"""Exception hierarchy for the checkmate package."""


def _restore(cls, args, state):
    err = cls.__new__(cls)
    err.args = args
    err.__dict__.update(state)
    return err


class CheckmateError(Exception):
    """Base class for all errors raised by this package.

    An error pickles with its message and attributes as they are, without
    calling ``__init__`` again, so it survives the trip back from a worker
    process unchanged.
    """

    def __reduce__(self):
        return _restore, (type(self), self.args, self.__dict__)


class ParseError(CheckmateError):
    """The token stream does not form a grammatical rule."""

    def __init__(self, message, line=None, column=None):
        pos = f" (line {line}, column {column})" if line is not None else ""
        super().__init__(message + pos)
        self.line = line
        self.column = column


class LexError(ParseError):
    """A character outside the rule grammar was encountered."""


class EvalError(CheckmateError):
    """A rule could not be evaluated against the data."""


class OptionError(CheckmateError):
    """Unknown option name or out-of-range option value."""


class RuleSetError(CheckmateError):
    """Invalid rule set manipulation (bad name, index, or length)."""


class RuleIOError(CheckmateError):
    """A rule file could not be read or written."""


class CycleError(RuleIOError):
    """Cyclic file inclusion."""

    def __init__(self, chain):
        self.chain = list(chain)
        super().__init__("cyclic inclusion: " + " -> ".join(self.chain))


class DataError(CheckmateError):
    """Malformed tabular input (ragged rows, unknown key, shape mismatch)."""
