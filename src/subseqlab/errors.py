"""Exception types shared across the package.

Four failure modes get distinct classes: out-of-range indices,
violated call contracts, blown resource budgets, and "this operation
does not apply here" signals that callers may want to catch as control
flow.
"""

from functools import cache
from itertools import repeat


class WordRangeError(IndexError):
    """An index or interval falls outside the word it refers to."""


class ContractError(ValueError):
    """A precondition on the inputs was violated."""


class BudgetError(RuntimeError):
    """A computation would exceed its configured resource budget.

    The message always names the limit that was hit, so callers can
    re-run with an explicit larger budget if they really mean it.
    """


class NotApplicable(Exception):
    """Signal that an operation has no work to do on this input.

    Distinct from ContractError: the input is legal, there is just no
    result of the requested kind.  No package function raises it at
    present; it stays one of the four documented error types, which the
    CLI reports with exit status 2.
    """


def require_int(**values) -> None:
    """Raise ContractError naming the first argument that is not an int."""
    for name, value in values.items():
        if not isinstance(value, int):
            raise ContractError(f"{name} must be an int, got {value!r}")


def require_word(**values) -> None:
    """Raise ContractError naming the first argument that is not a Word."""
    word_type = _word_type()
    for name, value in values.items():
        if not isinstance(value, word_type):
            raise ContractError(f"{name} must be a Word, got {value!r}")


@cache
def _word_type() -> type:
    from .words import Word  # words imports this module

    return Word


def require_int_tuple(**values) -> None:
    """Raise ContractError naming the first argument that is not a tuple of ints."""
    for name, value in values.items():
        if not isinstance(value, tuple) or not all(map(isinstance, value, repeat(int))):
            raise ContractError(f"{name} must be a tuple of ints, got {value!r}")
