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
``w[start:]`` as one explicit-stack loop.  Its step is indexed by
position: appending ``s`` reads the parent's state only at the
boundaries just before each ``s``, whose sum is the child's count and
whose products with the capacities there its bound; the child's full
state is built only if it survives the bound.  The capacities are that
search run from right to left, ``start = n-1, ..., 1``, each using the
capacities already found and *floored* at the last one, M(w[start+1:]).
Counts grow one letter at a time, occ(v, a.u) = occ(v, u) + [v starts
with a] * occ(v[1:], u), so a pattern not starting with ``a = w[start]``
counts no more than that floor, and a floored search tries only ``a``
at the root.  The most-common search is the ``start = 0`` call, which
returns the witness and can abort once a count reaches a threshold.  It
starts just below capacities[1] <= M(w) (and below the threshold, and
at least 1), since any start below M(w) keeps the lex-min witness.  The
extremal scan passes capacities it already knows, with the floor
``capacities[1]``, and gets no witness.  ``max_occurrences_of_length``
runs the same step with its own bound, which depends on how many
symbols remain to be placed.

Witness tie-breaks are always "lexicographically smallest pattern
among the maximisers", which the DFS order delivers for free.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, compress, repeat
from math import comb
from operator import ge, lt, mul

from .errors import ContractError, require_int, require_int_tuple
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
        require_int_tuple(positions=self.positions)
        require_int(source_length=self.source_length)
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


def _step_tables(syms: tuple[int, ...], start: int, k: int):
    """Position index of syms[start:] for the count-vector step.

    Appending s to a pattern with count vector c gives nc[d] = sum of
    c[b] over the b < d with syms[start + b] == s: those b are
    ``before[s]``, and ``rank[s][d]`` counts the ones below d.  So a
    child's values ``vals = c at before[s]`` give its count sum(vals),
    and its full vector is the prefix sums of vals read at rank[s].
    """
    tail = syms[start:]
    before: list[list[int]] = [[] for _ in range(k)]
    for b, s in enumerate(tail):
        before[s].append(b)
    rank = [[0, *accumulate(map(s.__eq__, tail))] for s in range(k)]
    return before, rank


def _branch_and_bound(
    syms: tuple[int, ...],
    k: int,
    start: int,
    capacities: list[int],
    abort_at: int | None = None,
    floor: int | None = None,
    low: int = 1,
) -> tuple[int, tuple[int, ...] | None, bool]:
    """Most frequent pattern inside syms[start:], given capacities[j] for j > start.

    Returns (value, lex-min witness, aborted).  With ``abort_at`` set
    the search stops at the first count >= abort_at; the witness is
    then None and the value is that count.  With ``floor`` set, it must
    be M(syms[start + 1:]), below abort_at: the running maximum starts
    there, the witness is None, and only patterns starting with
    syms[start] are tried, since any other pattern counts the same in
    syms[start + 1:].  Without a floor the running maximum starts at
    ``low``, which keeps the lex-min witness if low < M(syms[start:])
    (or low = 1) and the abort value if low < abort_at.
    """
    length = len(syms) - start
    before, rank = _step_tables(syms, start, k)
    capat = [[capacities[start + b + 1] for b in bs] for bs in before]
    best = low if floor is None else floor
    best_path: list[int] = []  # nxt[:depth + 1] at the best count; [] is the empty pattern
    # by_depth[d]: states kept for dominance tests of (d + 1)-symbol patterns
    by_depth: list[list[list[int]]] = [[] for _ in range(length + 1)]
    # explicit-stack DFS: the pattern is nxt[:depth + 1] less one, nxt[d]
    # the next symbol to try at depth d and stop[d] the end of its range;
    # states[d] is the count vector of the pattern's first d symbols
    states = [[1] * (length + 1)] * (length + 1)
    nxt = [0] * (length + 1)
    stop = [k] * (length + 1)
    if floor is not None:
        nxt[0], stop[0] = syms[start], syms[start] + 1
    depth = 0
    while depth >= 0:
        s = nxt[depth]
        if s == stop[depth]:
            depth -= 1
            continue
        nxt[depth] = s + 1
        c = states[depth]
        vals = list(map(c.__getitem__, before[s]))
        v = sum(vals)
        if v > best:
            best = v
            best_path = nxt[: depth + 1]
            if abort_at is not None and v >= abort_at:
                return best, None, True
        # capacity bound over all nonempty continuations (and stopping here)
        if sum(map(mul, vals, capat[s])) <= best:
            continue
        nc = list(map([0, *accumulate(vals)].__getitem__, rank[s]))
        # pointwise dominance by a stored state, final count compared first
        store = by_depth[depth]
        for t in store:
            if t[-1] >= v and all(map(ge, t, nc)):
                break
        else:
            if len(store) < _DOMINANCE_STORE_CAP:
                store.append(nc)
            depth += 1
            states[depth] = nc
            nxt[depth] = 0
    return best, None if floor is not None else tuple(t - 1 for t in best_path), False


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
        capacities = _suffix_capacities(w)
        # M(w) >= capacities[1], so starting below it (or below abort_at)
        # keeps the lex-min witness and the abort value
        low = capacities[1] if abort_at is None else min(capacities[1], abort_at)
        return _branch_and_bound(
            w.symbols, w.alphabet_size, 0, capacities, abort_at, low=max(1, low - 1)
        )
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
    before, rank = _step_tables(w.symbols, 0, k)
    tails = [[n - 1 - b for b in bs] for bs in before]  # symbols after each boundary
    best = 0
    best_path = [1] * length  # nxt at the best count, (0,) * length until one is found
    by_depth: list[list[list[int]]] = [[] for _ in range(length)]
    # explicit-stack DFS as in _branch_and_bound (states[d] is set
    # before it is read)
    states = [[1] * (n + 1)] * length
    nxt = [0] * length
    depth = 0
    while depth >= 0:
        s = nxt[depth]
        if s == k:
            depth -= 1
            continue
        nxt[depth] = s + 1
        c = states[depth]
        remaining = length - depth - 1
        if remaining == 0:
            v = sum(map(c.__getitem__, before[s]))
            if v > best:
                best = v
                best_path = nxt[:]
            continue
        vals = list(map(c.__getitem__, before[s]))
        # binomial capacity: a pattern of r symbols fits into a window of
        # length L at most C(L, r) ways; zero values are skipped, since
        # C(L, r) of a long window costs more than the rest of the step
        live = compress(tails[s], vals)
        if sum(map(mul, filter(None, vals), map(comb, live, repeat(remaining)))) <= best:
            continue
        nc = list(map([0, *accumulate(vals)].__getitem__, rank[s]))
        v = nc[-1]
        store = by_depth[depth]
        for t in store:
            if t[-1] >= v and all(map(ge, t, nc)):
                break
        else:
            if len(store) < _DOMINANCE_STORE_CAP:
                store.append(nc)
            depth += 1
            states[depth] = nc
            nxt[depth] = 0
    return best, Word(tuple(t - 1 for t in best_path), k)


def occurrence_profile(w: Word) -> list[tuple[int, Word]]:
    """(count, witness) of the most frequent pattern for every length 0..|w|."""
    return [max_occurrences_of_length(w, length) for length in range(len(w) + 1)]


def sum_over_lengths(w: Word) -> int:
    """Sum over all lengths of the per-length maximum occurrence counts."""
    return sum(value for value, _ in occurrence_profile(w))
