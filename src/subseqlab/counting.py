"""Counting scattered-subsequence occurrences, and maximising them.

``count_occurrences(v, w)`` is the number of strictly increasing
position maps that embed ``v`` into ``w``.  On top of that single DP
sit the maximisers: the most frequent pattern of a given length, the
most frequent pattern overall, and the sum of the per-length maxima.
All counts are plain Python ints, so they are exact at any magnitude.

The maximisers run a depth-first search over *prefix-count states*:
the vector ``c`` with ``c[j]`` = number of embeddings of the current
pattern prefix into ``w[:j]``.  Appending a symbol transforms the
state linearly and monotonically, which yields two sound prunings:

* pointwise dominance -- a state that is <= an already-visited state
  of the same depth can be dropped (any extension would do at least
  as well from the earlier state, with a lexicographically smaller
  pattern).  The test compares the final count first: a stored state
  whose final count is below the candidate's cannot dominate it, so
  it is skipped without reading the rest of the vector;
* capacity bounds -- the count after appending any suffix is
  ``sum_j (c[j]-c[j-1]) * (best count achievable inside w[j:])``,
  so precomputed suffix capacities give an upper bound for cutoff.

One routine, ``_branch_and_bound``, runs this search on any suffix
``w[start:]``, optionally from a *floor*: a count some pattern is known
to reach.  The capacities are that search run from right to left,
``start = n-1, ..., 1``, each using the capacities already found and
floored at the last one, since ``w[start+1:]`` is a factor of
``w[start:]``.  The most-common search is the ``start = 0`` call, which
returns the witness and can abort once a count reaches a threshold.
The extremal scan passes capacities it already knows, with the floor
``capacities[1]``, and gets no witness.
``max_occurrences_of_length`` keeps its own search, since its bound
depends on how many symbols remain to be placed.

Witness tie-breaks are always "lexicographically smallest pattern
among the maximisers", which the DFS order delivers for free.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from math import comb
from operator import lt

from .errors import ContractError, require_int
from .words import Word

_DOMINANCE_STORE_CAP = 512  # per-depth cap on states kept for dominance tests


def _check_shared_alphabet(v: Word, w: Word) -> None:
    if v.alphabet_size != w.alphabet_size:
        raise ContractError(
            f"alphabet mismatch: {v.alphabet_size} vs {w.alphabet_size}"
        )


def count_occurrences(v: Word, w: Word) -> int:
    """Number of occurrences of v in w as a scattered subsequence.

    Classic prefix DP, O(|v| * |w|) additions; the empty pattern
    occurs exactly once in every word.
    """
    _check_shared_alphabet(v, w)
    m = len(v)
    c = [0] * (m + 1)
    c[0] = 1
    # touch only the v-positions matching each w-symbol, high to low
    by_sym: dict[int, list[int]] = {}
    for j, s in enumerate(v.symbols, start=1):
        by_sym.setdefault(s, []).append(j)
    for positions in by_sym.values():
        positions.reverse()
    empty: tuple[int, ...] = ()
    for s in w.symbols:
        for j in by_sym.get(s, empty):
            c[j] += c[j - 1]
    return c[m]


@dataclass(frozen=True)
class EmbeddingMap:
    """One occurrence: strictly increasing positions, one per pattern symbol."""

    positions: tuple[int, ...]
    source_length: int

    def __post_init__(self) -> None:
        if len(self.positions) != self.source_length:
            raise ContractError("positions/source_length mismatch")
        if not all(map(lt, self.positions, self.positions[1:])):
            raise ContractError("positions must be strictly increasing")


def validate_embedding(v: Word, w: Word, f: EmbeddingMap) -> None:
    """Raise ContractError unless f really embeds v into w."""
    if f.source_length != len(v):
        raise ContractError("embedding length does not match pattern length")
    pos = f.positions
    # positions increase, so both ends in range puts all of them in range
    if not pos or (
        0 <= pos[0]
        and pos[-1] < len(w)
        and tuple(map(w.symbols.__getitem__, pos)) == v.symbols
    ):
        return
    # rejected: find the first bad position for the message
    for j, p in zip(v.symbols, pos):
        if not (0 <= p < len(w)):
            raise ContractError(f"position {p} out of range")
        if w.symbols[p] != j:
            raise ContractError(f"symbol mismatch at position {p}")


@dataclass
class EmbeddingEnumeration:
    maps: list[EmbeddingMap]
    truncated: bool

    def __iter__(self):
        return iter(self.maps)

    def __len__(self) -> int:
        return len(self.maps)


def enumerate_embeddings(v: Word, w: Word, cap: int | None = None) -> EmbeddingEnumeration:
    """All embeddings of v into w in lexicographic order of position tuples.

    With ``cap`` set, at most that many maps are returned and
    ``truncated`` reports whether more exist.
    """
    _check_shared_alphabet(v, w)
    if cap is not None:
        require_int(cap=cap)
        if cap < 0:
            raise ContractError(f"cap must be >= 0, got {cap}")
    m = len(v)
    want = None if cap is None else cap + 1  # one extra to detect truncation
    out: list[EmbeddingMap] = []
    if m == 0:
        out.append(EmbeddingMap((), 0))
    else:
        occ: dict[int, list[int]] = {s: [] for s in set(v.symbols)}
        for p, s in enumerate(w.symbols):
            if s in occ:
                occ[s].append(p)
        # rightmost viable position per pattern index: choosing beyond it
        # strands the suffix, so the search never walks into dead subtrees
        limit = [0] * m
        horizon = len(w.symbols)
        feasible = True
        for i in range(m - 1, -1, -1):
            positions = occ[v.symbols[i]]
            t = bisect_left(positions, horizon) - 1
            if t < 0:
                feasible = False
                break
            limit[i] = horizon = positions[t]
        if feasible:
            # depth-first over pattern indices with an explicit stack:
            # nxt[i] is the next candidate in lists[i] for index i
            lists = [occ[s] for s in v.symbols]
            cur = [0] * m
            nxt = [0] * m
            i = 0
            while i >= 0:
                positions, t = lists[i], nxt[i]
                if t == len(positions) or positions[t] > limit[i]:
                    i -= 1
                    continue
                p = cur[i] = positions[t]
                nxt[i] = t + 1
                if i + 1 == m:
                    out.append(EmbeddingMap(tuple(cur), m))
                    if want is not None and len(out) >= want:
                        break
                else:
                    i += 1
                    nxt[i] = bisect_left(lists[i], p + 1)
    truncated = cap is not None and len(out) > cap
    if truncated:
        out.pop()
    return EmbeddingEnumeration(out, truncated)


# ---------------------------------------------------------------------------
# branch-and-bound maximisers


def _extend_counts(c: list[int], syms: tuple[int, ...], base: int, symbol: int) -> list[int]:
    # the state after appending symbol to the pattern; c[d] refers to
    # the boundary after syms[base + d - 1]
    out = [0] * len(c)
    acc = 0
    for d in range(1, len(c)):
        if syms[base + d - 1] == symbol:
            acc += c[d - 1]
        out[d] = acc
    return out


def _dominated(stored: list[list[int]], cand: list[int]) -> bool:
    last = cand[-1]
    for s in stored:
        if s[-1] < last:
            continue  # fails on its last entry: no need to compare the rest
        ok = True
        for a, b in zip(s, cand):
            if a < b:
                ok = False
                break
        if ok:
            return True
    return False


def _branch_and_bound(
    syms: tuple[int, ...],
    k: int,
    start: int,
    capacities: list[int],
    abort_at: int | None = None,
    floor: int | None = None,
) -> tuple[int, tuple[int, ...] | None, bool]:
    """Most frequent pattern inside syms[start:], given capacities[j] for j > start.

    Returns (value, lex-min witness, aborted).  With ``abort_at`` set
    the search stops at the first count >= abort_at; the witness is
    then None and the value is that count.  With ``floor`` set (a count
    some pattern reaches, below abort_at) the running maximum starts
    there and the witness is None.
    """
    length = len(syms) - start
    caps = capacities[start:]
    best = 1 if floor is None else floor
    best_witness: tuple[int, ...] = ()  # the empty pattern
    by_depth: list[list[list[int]]] = [[] for _ in range(length + 1)]
    prefix: list[int] = []
    aborted = False

    def rec(c: list[int], depth: int) -> None:
        nonlocal best, best_witness, aborted
        for symbol in range(k):
            nc = _extend_counts(c, syms, start, symbol)
            v = nc[-1]
            if v > best:
                best = v
                best_witness = (*prefix, symbol)
                if abort_at is not None and v >= abort_at:
                    aborted = True
                    return
            # capacity bound over all nonempty continuations (and stopping here)
            bound = 0
            prev = 0
            for d in range(1, length + 1):
                cd = nc[d]
                if cd != prev:
                    bound += (cd - prev) * caps[d]
                    prev = cd
            if bound <= best:
                continue
            store = by_depth[depth + 1]
            if _dominated(store, nc):
                continue
            if len(store) < _DOMINANCE_STORE_CAP:
                store.append(nc)
            prefix.append(symbol)
            rec(nc, depth + 1)
            prefix.pop()
            if aborted:
                return

    if length > 0:
        rec([1] * (length + 1), 0)
    if aborted or floor is not None:
        return best, None, aborted
    return best, best_witness, False


def _suffix_capacities(w: Word) -> list[int]:
    """capacities[j] = max over all patterns of their count inside w[j:].

    Filled from right to left, each suffix searched with the capacities
    of the shorter ones and floored at the next one's.
    """
    syms = w.symbols
    k = w.alphabet_size
    capacities = [1] * (len(w) + 1)
    for start in range(len(w) - 1, 0, -1):
        capacities[start] = _branch_and_bound(
            syms, k, start, capacities, floor=capacities[start + 1]
        )[0]
    return capacities


def _search_most_common(
    w: Word, abort_at: int | None = None, capacities: list[int] | None = None
) -> tuple[int, tuple[int, ...] | None, bool]:
    """Core search for max_occurrences.

    Returns (value, witness symbols, aborted).  With ``abort_at`` set
    the search stops as soon as it proves value >= abort_at (witness
    is then None and the returned value is just the proof threshold).
    A caller that knows the exact top counts of the suffixes w[j:],
    j >= 1, passes them as ``capacities``; the search then starts from
    the floor capacities[1] and returns no witness.
    """
    if len(w) == 0:
        return 1, (), False
    floor = 1 if capacities is None else capacities[1]
    if abort_at is not None and abort_at <= floor:
        return floor, None, True
    if capacities is None:
        return _branch_and_bound(w.symbols, w.alphabet_size, 0, _suffix_capacities(w), abort_at)
    return _branch_and_bound(w.symbols, w.alphabet_size, 0, capacities, abort_at, floor)


def max_occurrences(w: Word) -> tuple[int, Word]:
    """Most frequent scattered subsequence of w: (count, witness).

    The witness is the lexicographically smallest pattern among the
    maximisers (which is the empty pattern whenever no pattern occurs
    more than once).
    """
    value, witness, _ = _search_most_common(w)
    assert witness is not None
    return value, Word(witness, w.alphabet_size)


def max_occurrences_of_length(w: Word, length: int) -> tuple[int, Word]:
    """Most frequent pattern of exactly the given length: (count, witness)."""
    require_int(length=length)
    if length < 0:
        raise ContractError(f"length must be >= 0, got {length}")
    n = len(w)
    k = w.alphabet_size
    if length == 0:
        return 1, Word((), k)
    if length > n:
        return 0, Word((0,) * length, k)
    syms = w.symbols
    best = 0
    best_witness = (0,) * length
    by_depth: list[list[list[int]]] = [[] for _ in range(length + 1)]
    # explicit-stack DFS: states[d] is the count vector of prefix[:d]
    # (set before it is read), nxt[d] the next symbol to try at depth d
    prefix = [0] * length
    states = [[1] * (n + 1)] * length
    nxt = [0] * length
    depth = 0
    while depth >= 0:
        symbol = nxt[depth]
        if symbol == k:
            depth -= 1
            continue
        nxt[depth] = symbol + 1
        prefix[depth] = symbol
        nc = _extend_counts(states[depth], syms, 0, symbol)
        remaining = length - depth - 1
        if remaining == 0:
            v = nc[-1]
            if v > best:
                best = v
                best_witness = tuple(prefix)
            continue
        # binomial capacity: a pattern of r symbols fits into a
        # window of length L at most C(L, r) ways
        bound = 0
        prev = 0
        for d in range(1, n + 1):
            cd = nc[d]
            if cd != prev:
                bound += (cd - prev) * comb(n - d, remaining)
                prev = cd
        if bound > best:
            store = by_depth[depth + 1]
            if not _dominated(store, nc):
                if len(store) < _DOMINANCE_STORE_CAP:
                    store.append(nc)
                depth += 1
                states[depth] = nc
                nxt[depth] = 0
    return best, Word(best_witness, k)


def occurrence_profile(w: Word) -> list[tuple[int, Word]]:
    """(count, witness) of the most frequent pattern for every length 0..|w|."""
    return [max_occurrences_of_length(w, length) for length in range(len(w) + 1)]


def sum_over_lengths(w: Word) -> int:
    """Sum over all lengths of the per-length maximum occurrence counts."""
    return sum(value for value, _ in occurrence_profile(w))
