"""Exception types shared across the package.

Two failure modes get distinct classes: violated call contracts and
blown resource budgets.  The public API raises no other exception type.
"""

from functools import cache
from itertools import repeat


class ContractError(ValueError):
    """A precondition on the inputs was violated."""


class BudgetError(RuntimeError):
    """A computation would exceed its configured resource budget.

    The message always names the limit that was hit, so callers can
    re-run with an explicit larger budget if they really mean it.
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
