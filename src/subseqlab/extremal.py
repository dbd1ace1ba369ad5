"""Extremal tables: the hardest-to-compress words of each length.

``extremal_value(k, n)`` is the minimum, over all length-n words on a
k-letter alphabet, of the most-common-subsequence count.  The search is
a single serial scan over one representative per symmetry orbit
(first-occurrence normal form, minimised against the reversal — both
operations preserve every occurrence count).  It prunes each candidate
with an early-abort threshold: once some pattern already occurs as
often as the best word found so far, the candidate cannot strictly
improve the minimum.  The scan keeps one suffix-capacity memo for all
its candidates, since their suffixes repeat the same relabel forms.

The n-th root of the table value brackets the growth constant:

    value^(1/n)  <=  mu_k  <=  (n * value)^(1/n)        (k >= 2, n >= 3)

Windows are compared and rendered by exact integer arithmetic only —
``cross_compare`` cross-multiplies powers, and the decimal strings come
from integer n-th roots of scaled values, rounded toward the safe side.

Literature constants too large to recompute live in a small registry
(data/known_values.json) flagged ``verified-external``; the searches
never feed them back into oracle comparisons.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache, cmp_to_key
from importlib import resources
from math import comb

from .counting import _search_most_common, sum_over_lengths
from .errors import BudgetError, ContractError
from .words import Word, first_occurrence_form

DEFAULT_BUDGETS = {2: 16, 3: 9, 4: 6}


@dataclass(frozen=True)
class ExtremalRecord:
    k: int
    n: int
    value: int
    minimizer: Word | None
    method: str  # "exhaustive" or "verified-external"


@dataclass(frozen=True)
class MuWindow:
    """Exact two-sided bracket for the growth constant mu_k.

    ``lower`` and ``upper`` are (base, root) pairs meaning base^(1/root);
    the decimal strings are rounded down resp. up, so the printed
    interval always contains the exact one.
    """

    k: int
    lower: tuple[int, int]
    upper: tuple[int, int]
    lower_decimal: str
    upper_decimal: str
    places: int

    def __post_init__(self) -> None:
        a, n1 = self.lower
        b, n2 = self.upper
        if cross_compare(a, n1, b, n2) > 0:
            raise ContractError("window lower bound exceeds upper bound")


def canonical_representatives(k: int, n: int):
    """Yield one word per relabel+reverse orbit, in lexicographic order.

    Words are produced in first-occurrence normal form (each new symbol
    is the smallest unused id) and kept only when not lexicographically
    beaten by the normal form of their reversal.
    """
    if n == 0:
        yield ()
        return
    prefix = [0] * n

    def rec(i: int, used: int):
        if i == n:
            w = tuple(prefix)
            if first_occurrence_form(w[::-1]) >= w:
                yield w
            return
        for s in range(min(used + 1, k)):
            prefix[i] = s
            yield from rec(i + 1, max(used, s + 1))

    yield from rec(0, 0)


def _min_scan(k: int, n: int) -> tuple[int, tuple[int, ...]]:
    """(value, minimizer): one serial pass over the orbit representatives.

    The first representative sets the abort threshold; each later one
    either aborts (cannot beat it) or, having finished, lowers it.
    """
    memo: dict[int, int] = {}
    reps = canonical_representatives(k, n)
    best_syms = next(reps)
    best, _, _ = _search_most_common(Word(best_syms, k), capacity_memo=memo)
    for syms in reps:
        value, _, aborted = _search_most_common(Word(syms, k), abort_at=best, capacity_memo=memo)
        if not aborted:  # a finished search stayed below abort_at
            best, best_syms = value, syms
    return best, best_syms


@cache
def _known_records() -> tuple[ExtremalRecord, ...]:
    raw = resources.files(__package__).joinpath("data/known_values.json").read_text()
    return tuple(
        ExtremalRecord(r["k"], r["n"], int(r["value"]), None, r["method"])
        for r in json.loads(raw)["extremal_records"]
    )


def known_record(k: int, n: int) -> ExtremalRecord | None:
    for r in _known_records():
        if (r.k, r.n) == (k, n):
            return r
    return None


def extremal_value(
    k: int,
    n: int,
    budgets: dict[int, int] | None = None,
    use_registry: bool = True,
) -> ExtremalRecord:
    """Exact minimum of the most-common-subsequence count over [k]^n.

    Registry hits are returned as-is (method ``verified-external``);
    everything else is searched exhaustively within the per-k budget.
    """
    if k < 1 or n < 0:
        raise ContractError(f"need k >= 1 and n >= 0, got k={k}, n={n}")
    if use_registry:
        hit = known_record(k, n)
        if hit is not None:
            return hit
    limits = dict(DEFAULT_BUDGETS)
    if budgets:
        limits.update(budgets)
    limit = limits.get(k, 0)
    if n > limit:
        raise BudgetError(
            f"extremal search for k={k} is budgeted to n <= {limit} (asked n={n}); "
            "pass budgets={...} to raise the limit explicitly"
        )
    value, syms = _min_scan(k, n)
    return ExtremalRecord(k, n, value, Word(syms, k), "exhaustive")


def extremal_table(
    k: int,
    n_max: int,
    budgets: dict[int, int] | None = None,
    use_registry: bool = False,
) -> list[ExtremalRecord]:
    return [
        extremal_value(k, n, budgets=budgets, use_registry=use_registry)
        for n in range(1, n_max + 1)
    ]


# ---------------------------------------------------------------------------
# exact root arithmetic


def iroot(x: int, n: int) -> int:
    """floor(x ** (1/n)) by Newton iteration on integers."""
    if x < 0 or n < 1:
        raise ContractError(f"iroot needs x >= 0, n >= 1, got x={x}, n={n}")
    if x == 0:
        return 0
    if n == 1:
        return x
    g = 1 << -(-x.bit_length() // n)
    while True:
        t = ((n - 1) * g + x // g ** (n - 1)) // n
        if t >= g:
            break
        g = t
    while g**n > x:
        g -= 1
    while (g + 1) ** n <= x:
        g += 1
    return g


def cross_compare(a: int, n1: int, b: int, n2: int) -> int:
    """Sign of a^(1/n1) - b^(1/n2), decided by cross-powering (exact)."""
    if a < 0 or b < 0 or n1 < 1 or n2 < 1:
        raise ContractError("cross_compare needs nonnegative bases, positive roots")
    left, right = a**n2, b**n1
    return (left > right) - (left < right)


def root_decimal(a: int, n: int, places: int, mode: str) -> str:
    """a^(1/n) as a decimal string with the given places, rounded
    down ("floor") or up ("ceil")."""
    if mode not in ("floor", "ceil"):
        raise ContractError(f"mode must be floor or ceil, got {mode!r}")
    if places < 0:
        raise ContractError("places must be >= 0")
    scaled = a * 10 ** (places * n)
    r = iroot(scaled, n)
    if mode == "ceil" and r**n != scaled:
        r += 1
    if places == 0:
        return str(r)
    return f"{r // 10**places}.{r % 10**places:0{places}d}"


def mu_window(record: ExtremalRecord, places: int = 3) -> MuWindow:
    """Two-sided growth-constant bracket from one extremal record:
    value^(1/n) <= mu_k <= (n*value)^(1/n), valid for k >= 2, n >= 3."""
    if record.k < 2 or record.n < 3:
        raise ContractError("window bracketing needs k >= 2 and n >= 3")
    lower = (record.value, record.n)
    upper = (record.n * record.value, record.n)
    return MuWindow(
        record.k,
        lower,
        upper,
        root_decimal(*lower, places, "floor"),
        root_decimal(*upper, places, "ceil"),
        places,
    )


def best_window(records: list[ExtremalRecord], places: int = 3) -> MuWindow:
    """Tightest window combinable from several records of the same k."""
    windows = [mu_window(r, places) for r in records]
    if not windows:
        raise ContractError("need at least one record with n >= 3")
    k = windows[0].k
    if any(w.k != k for w in windows):
        raise ContractError("records must share one alphabet size")
    by_root = cmp_to_key(lambda p, q: cross_compare(*p, *q))
    lo = max((w.lower for w in windows), key=by_root)
    hi = min((w.upper for w in windows), key=by_root)
    return MuWindow(
        k,
        lo,
        hi,
        root_decimal(*lo, places, "floor"),
        root_decimal(*hi, places, "ceil"),
        places,
    )


def mu_upper_from_profile(w: Word) -> tuple[int, int]:
    """Upper bound mu_k <= S^(1/n), with S the sum of w's per-length maxima.

    Any single word gives such a bound: long extremal words are
    dominated by counts inside high powers of w, and each power
    contributes at most one pattern segment per length class.
    Returned as the exact pair (S, n).
    """
    if len(w) < 1:
        raise ContractError("profile bound needs a nonempty word")
    return (sum_over_lengths(w), len(w))


@dataclass(frozen=True)
class SubmultReport:
    k: int
    m: int
    n: int
    lhs: int
    binom: int
    base: int
    rhs: int
    holds: bool


def check_submultiplicativity(
    k: int, m: int, n: int, budgets: dict[int, int] | None = None
) -> SubmultReport:
    """Exact instance check of the table inequality
    value(k, m*n) <= C(m*n + m - 1, m - 1) * value(k, n)^m."""
    if m < 1 or n < 1:
        raise ContractError("need m >= 1 and n >= 1")
    lhs = extremal_value(k, m * n, budgets=budgets, use_registry=False).value
    base = extremal_value(k, n, budgets=budgets, use_registry=False).value
    binom = comb(m * n + m - 1, m - 1)
    rhs = binom * base**m
    return SubmultReport(k, m, n, lhs, binom, base, rhs, lhs <= rhs)
