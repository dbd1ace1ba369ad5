"""Inputs for the hypothesis contract tests: any call into the public API
may raise only the documented error types, whatever it is fed."""

from hypothesis import strategies as st

from subseqlab.errors import BudgetError, ContractError

DOCUMENTED_ERRORS = (ContractError, BudgetError)
JUNK = st.sampled_from([None, 2.0, 1.5, float("nan"), "3", (2,), True])
# what a caller might pass where a Word belongs: text, raw symbols, fields
NOT_A_WORD = st.one_of(JUNK, st.sampled_from(["ab", [0, 1], (0, 1), ((0, 1), 2), 5]))


def int_or_junk(lo, hi):
    return st.one_of(st.integers(lo, hi), JUNK)
