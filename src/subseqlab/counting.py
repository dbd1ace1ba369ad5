"""Counting scattered-subsequence occurrences, and maximising them.

``count_occurrences(v, w)`` is the number of strictly increasing
position maps that embed ``v`` into ``w``.  An embedding is just its
tuple of positions: ``enumerate_embeddings`` lists them in lexicographic
order, and ``validate_embedding`` is the one check of what a tuple must
be to embed ``v``.  On top of that single DP sit the maximisers: the
most frequent pattern of a given length, the most frequent pattern
overall, and the sum of the per-length maxima.  All counts are plain
Python ints, so they are exact at any magnitude.

The enumeration walks the maps in order without backtracking.  Each
pattern index i has a limit, its rightmost position that leaves room
for the rest of v, so every position up to it completes to a map.  The
maps sharing a prefix of the first m - 1 positions differ only in the
last one, and its candidates after the prefix, up to its limit, are
emitted in one loop.  The next prefix advances the deepest index that
has a candidate left within its limit (a stack holds those indices)
and places each later index greedily, at its first position after the
one before it, found by bisection.  Most of the old tail was placed the
same way from the same positions: once an index comes out at its old
position, every later index that has not been advanced since it was
placed keeps its position too, so the walk jumps to the next index that
has been advanced, and stops when none is left.

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

One routine, ``_branch_and_bound``, runs this search on any infix
``w[start:end]`` as one explicit-stack loop, on the step tables its
caller reads off the word's position index.  Its step is indexed by
position: appending ``s`` reads the parent's state only at the
boundaries just before each ``s``, whose sum is the child's count and
whose products with the capacities there its bound; the child's full
state is built only if it survives the bound.  One position index per
word holds every symbol's positions and running counts, and each
search reads its infix's step tables off it.  A search starts its
running maximum at a given count and returns the lex-min pattern of
the top count if that beats the start, else the empty pattern.  Counts
grow one letter at a time, occ(v, a.u) = occ(v, u) + [v starts with
a] * occ(v[1:], u), so a pattern not starting with ``a = w[start]``
counts no more than M(w[start+1:]), and a search whose start is at
least the capacity of that suffix tries only ``a`` at the root.
Capacities come from right to left.  For the shorter half of the
suffixes, ``start > n//2``, they are exact: that search run on
``w[start:]``, using the capacities already found and started at the
last one, M(w[start+1:]).  The last of these searches to beat its start
finds a top pattern of y = w[n//2+1:]: the lex-min one of the shortest
suffix of y whose top count is M(y).  The same identity bounds the
longer suffixes in O(1) each: M(a.u) is at most the sum of the
capacities just after each ``a`` of a.u.  A search reads the capacity
of w[j:] only below a prefix that fits into w[:j], so those loose
values weaken just the top of its tree.  The most-common search is the
``start = 0`` call.  By supermultiplicativity, M(x.y) >= M(x) * M(y),
so with w = x.y it starts just below H, the count in w of the lex-min
witness of x joined with that top pattern of y: H is a real pattern's
count, so H <= M(w), and H >= M(x) * M(y) >= M(y), the exact
M(w[n//2+1:]) the capacities end with.  The witness of x is this same
search on the prefix, recursively, on the same position index; prefixes
of at most ``_PLAIN_START`` symbols start just below M(y).  Any start
below M(w), and at least 1, keeps the lex-min witness.  Every search
here runs to the end.  The extremal scan's node searches, which know
their exact suffix capacities and stop once a count reaches the scan's
threshold, run on packed integers in ``extremal._node_search``, and so
do the searches that seed each table row.

The fixed-length maximisers are one more explicit-stack DFS with the
same step and dominance test, which keeps the top count and the lex-min
witness of every target length at once: ``occurrence_profile`` targets
every length, ``max_occurrences_of_length`` one.  Its bound is binomial,
r more symbols fit into the t after a boundary at most C(t, r) ways, and
a node is expanded while that bound beats the best count of some target
length it can still reach.  The public maximisers run on the word
relabelled to its support, keeping symbol order, so their work does not
grow with unused symbols of the alphabet.

Witness tie-breaks are always "lexicographically smallest pattern
among the maximisers", which the DFS order delivers for free.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from math import comb
from operator import ge, itemgetter, lt, mul

from .errors import BudgetError, ContractError, require_int, require_int_tuple, require_word
from .words import Word

_DOMINANCE_STORE_CAP = 512  # per-depth cap on states kept for dominance tests
_PLAIN_START = 16  # longest prefix whose most-common search starts below M(y), not H
FIXED_LENGTH_WITNESS_BUDGET = 10**6  # symbols in the 0^length witness of a length above |w|
ENUMERATION_BUDGET = 10**6  # symbols in the maps enumerate_embeddings returns, maps x |v|


def _check_shared_alphabet(v: Word, w: Word) -> None:
    require_word(v=v, w=w)
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
    return _count(v.symbols, w.symbols)


def _count(v: tuple[int, ...], w: tuple[int, ...]) -> int:
    """count_occurrences on symbol tuples."""
    m = len(v)
    c = [0] * (m + 1)
    c[0] = 1
    # touch only the v-positions matching each w-symbol, high to low
    by_sym: dict[int, list[int]] = {}
    for j, s in enumerate(v, start=1):
        by_sym.setdefault(s, []).append(j)
    for positions in by_sym.values():
        positions.reverse()
    empty: tuple[int, ...] = ()
    for s in w:
        for j in by_sym.get(s, empty):
            c[j] += c[j - 1]
    return c[m]


def validate_embedding(v: Word, w: Word, positions: tuple[int, ...]) -> None:
    """Raise ContractError unless ``positions``, one per symbol of v and
    strictly increasing, really embed v into w."""
    require_word(v=v, w=w)
    require_int_tuple(positions=positions)
    if len(positions) != len(v):
        raise ContractError("embedding length does not match pattern length")
    if not all(map(lt, positions, positions[1:])):
        raise ContractError("positions must be strictly increasing")
    # positions increase, so both ends in range puts all of them in range;
    # itemgetter of one position returns the symbol, not a 1-tuple
    if not positions:
        return
    if 0 <= positions[0] and positions[-1] < len(w):
        got = itemgetter(*positions)(w.symbols)
        if (got if len(positions) > 1 else (got,)) == v.symbols:
            return
    # rejected: find the first bad position for the message
    for j, p in zip(v.symbols, positions):
        if not (0 <= p < len(w)):
            raise ContractError(f"position {p} out of range")
        if w.symbols[p] != j:
            raise ContractError(f"symbol mismatch at position {p}")


@dataclass
class EmbeddingEnumeration:
    """Embeddings as tuples of positions; ``len()`` is their count."""

    maps: list[tuple[int, ...]]
    truncated: bool

    def __iter__(self):
        return iter(self.maps)

    def __len__(self) -> int:
        return len(self.maps)


def enumerate_embeddings(v: Word, w: Word, cap: int | None = None) -> EmbeddingEnumeration:
    """All embeddings of v into w in lexicographic order of position tuples.

    With ``cap`` set, at most that many maps are returned and
    ``truncated`` reports whether more exist.  Returning more than
    ENUMERATION_BUDGET symbols (maps times |v|) is refused with
    BudgetError; the count is taken only when ``cap`` alone does not
    keep the maps under it.  The walk is the one the module docstring
    describes: one loop per prefix over the last index's candidates, and
    the next prefix placed greedily after the advanced index, reusing the
    old tail from each index that keeps its position up to the next one
    that had been advanced.
    """
    _check_shared_alphabet(v, w)
    if cap is not None:
        require_int(cap=cap)
        if cap < 0:
            raise ContractError(f"cap must be >= 0, got {cap}")
    return _enumerate(v.symbols, w.symbols, _positions_by_symbol(w.symbols, set(v.symbols)), cap)


def _positions_by_symbol(w: tuple[int, ...], symbols) -> dict[int, list[int]]:
    """The positions in w of each of ``symbols``, in increasing order."""
    occ: dict[int, list[int]] = {s: [] for s in symbols}
    for p, s in enumerate(w):
        if s in occ:
            occ[s].append(p)
    return occ


def _enumerate(
    v: tuple[int, ...], w: tuple[int, ...], occ: dict[int, list[int]], cap: int | None
) -> EmbeddingEnumeration:
    """enumerate_embeddings on checked arguments, given as symbol tuples,
    with ``occ[s]`` the positions in w of each symbol s of v: the route
    of every enumeration, so a caller that enumerates many patterns in
    one host indexes the host once."""
    m = len(v)
    size = cap  # the most maps returned
    if m and (cap is None or cap * m > ENUMERATION_BUDGET):
        size = _count(v, w)
        if cap is not None:
            size = min(size, cap)
        if size * m > ENUMERATION_BUDGET:
            raise BudgetError(
                f"{size} maps of {m} positions are over the budget of "
                f"{ENUMERATION_BUDGET} symbols (ENUMERATION_BUDGET)"
            )
    # one map past the cap shows whether more exist
    maps = _lex_walk([occ[s] for s in v], len(w), size + 1) if m else [()]
    truncated = cap is not None and len(maps) > cap
    if truncated:
        maps.pop()
    return EmbeddingEnumeration(maps, truncated)


def _lex_walk(lists: list[list[int]], horizon: int, room: int) -> list[tuple[int, ...]]:
    """The first ``room`` embeddings, in lexicographic order, of a
    pattern of m = len(lists) >= 1 symbols into a word of ``horizon``
    symbols, where lists[i] holds the positions of the pattern's i-th
    symbol in the word."""
    m = len(lists)
    # limit[i]: rightmost viable position of index i, the latest one that
    # leaves room for the suffix; stops[i] counts its candidates up to it
    limit = [0] * m
    for i in range(m - 1, -1, -1):
        t = bisect_left(lists[i], horizon) - 1
        if t < 0:
            return []
        limit[i] = horizon = lists[i][t]
    stops = list(map(bisect_right, lists, limit))
    # cur is the prefix of the current maps, nxt[i] the index in
    # lists[i] of index i's next candidate, and stack the indices below
    # m - 1 that have one within their limit, deepest last
    cur = [0] * (m - 1)
    nxt = [0] * (m - 1)
    stack = []
    p = -1
    for i in range(m - 1):
        t = bisect_right(lists[i], p)
        p = cur[i] = lists[i][t]
        nxt[i] = t + 1
        if t + 1 < stops[i]:
            stack.append(i)
    # the last index's candidates tail[lo:stop] each complete a map,
    # appended to the prefix as the 1-tuples ends[lo:stop]
    tail, stop = lists[m - 1], stops[m - 1]
    ends = [(q,) for q in tail]
    lo = bisect_right(tail, p)
    # moved[i]: index i was advanced since it was last placed; True at
    # m - 1 ends the search for the next one
    moved = [False] * (m - 1) + [True]
    out: list[tuple[int, ...]] = []
    while True:
        prefix = tuple(cur)
        for end in ends[lo : min(stop, lo + room)]:
            out.append(prefix + end)
        room -= stop - lo
        if room <= 0 or not stack:
            return out
        # advance the deepest index that can move, and place the ones after
        # it greedily: one that keeps its old position keeps the old ones
        # after it too, up to the next one that was advanced
        d = stack[-1]
        t = nxt[d]
        p = cur[d] = lists[d][t]
        nxt[d] = t + 1
        if t + 1 == stops[d]:
            stack.pop()
        moved[d] = True
        i = d + 1
        while i < m - 1:
            t = bisect_right(lists[i], p)
            moved[i] = False
            if t + 1 == nxt[i]:
                i = moved.index(True, i + 1)
                p = cur[i - 1]
                continue
            p = cur[i] = lists[i][t]
            nxt[i] = t + 1
            if t + 1 < stops[i]:
                stack.append(i)
            i += 1
        lo = bisect_right(tail, p)


# ---------------------------------------------------------------------------
# branch-and-bound maximisers


def _position_index(syms: tuple[int, ...], k: int):
    """Where each symbol of syms sits: ``before[s]`` lists the positions
    of s and ``rank[s][j]`` counts the s among syms[:j].  One index per
    word serves every infix a search runs on (see _step_tables)."""
    before: list[list[int]] = [[] for _ in range(k)]
    for p, s in enumerate(syms):
        before[s].append(p)
    rank = [[0, *accumulate(map(s.__eq__, syms))] for s in range(k)]
    return before, rank


def _step_tables(index, start: int, end: int):
    """The count-vector step on syms[start:end], read off syms' _position_index.

    Appending s to a pattern with count vector c gives nc[d] = sum of
    c[b] over the b < d with syms[start + b] == s: those b are
    ``before[s]``, and ``rank[s][d]`` counts the ones below d.  So a
    child's values ``vals = c at before[s]`` give its count sum(vals),
    and its full vector is the prefix sums of vals read at rank[s].
    Both are the word's lists cut to the infix and shifted to it.
    """
    before: list[list[int]] = []
    rank: list[list[int]] = []
    for bs, rs in zip(*index):
        r0 = rs[start]
        before.append([p - start for p in bs[r0 : rs[end]]])
        rank.append([r - r0 for r in rs[start : end + 1]])
    return before, rank


def _branch_and_bound(
    syms: tuple[int, ...], k: int, start: int, capacities: list[int], tables, low: int
) -> tuple[int, tuple[int, ...]]:
    """Most frequent pattern inside u = syms[start:end], given capacities[j] for j > start.

    ``tables`` are the _step_tables of u.  The running maximum starts at
    ``low``; returns (value, pattern), the pattern the lex-min one of
    count value if value > low, else ().  Only syms[start] is tried at
    the root when capacities[start + 1] <= low: any other pattern counts
    the same in syms[start + 1:end], so at most that capacity.
    """
    before, rank = tables
    length = len(rank[0]) - 1
    capat = [[capacities[start + b + 1] for b in bs] for bs in before]
    best = low
    best_path: list[int] = []  # nxt[:depth + 1] at the best count; [] is the empty pattern
    # by_depth[d]: states kept for dominance tests of (d + 1)-symbol patterns
    by_depth: list[list[list[int]]] = [[] for _ in range(length + 1)]
    # explicit-stack DFS: the pattern is nxt[:depth + 1] less one, nxt[d]
    # the next symbol to try at depth d and stop[d] the end of its range;
    # states[d] is the count vector of the pattern's first d symbols
    states = [[1] * (length + 1)] * (length + 1)
    nxt = [0] * (length + 1)
    stop = [k] * (length + 1)
    if capacities[start + 1] <= low:
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
    return best, tuple(t - 1 for t in best_path)


def _suffix_capacities(w: Word, end: int, index) -> tuple[list[int], tuple[int, ...]]:
    """Upper bounds capacities[j] >= M(u[j:]), and a top pattern of y = u[h + 1:], h = |u| // 2.

    u is the prefix w[:end] and ``index`` is w's _position_index.
    capacities[j] is exact for j > h: filled from right to left, each
    suffix searched with the capacities of the shorter ones and started
    at the next one's.  The last of these searches to beat its start
    found the lex-min top pattern of the shortest suffix of y whose top
    count is M(y), which counts M(y) in y too; it is () if M(y) = 1.
    For 1 <= j <= h capacities[j] is the one-letter bound, the sum of
    capacities[p + 1] over the p >= j with u[p] == a = u[j]: a pattern
    a.x counts occ(x, u[p + 1:]) summed over those p, and the term p = j
    covers the patterns not starting with a, which count the same in
    u[j + 1:].  A search reads capacities[j] only below a pattern prefix
    that fits into u[:j], so loose values weaken only the top of its
    tree, where each exact one would cost about a whole search.
    """
    syms = w.symbols
    k = w.alphabet_size
    half = end // 2
    capacities = [1] * (end + 1)
    top: tuple[int, ...] = ()
    sums = [0] * k  # sums[a]: capacities[p + 1] over a-positions p >= start
    for start in range(end - 1, 0, -1):
        a = syms[start]
        sums[a] += capacities[start + 1]
        if start > half:
            tables = _step_tables(index, start, end)
            capacities[start], pattern = _branch_and_bound(
                syms, k, start, capacities, tables, capacities[start + 1]
            )
            top = pattern or top
        else:
            capacities[start] = sums[a]
    return capacities, top


def _most_common(w: Word, end: int, index) -> tuple[int, tuple[int, ...]]:
    """Search of the prefix u = w[:end], end >= 1, on w's _position_index.

    Split u = x.y with x = u[:h + 1], y = u[h + 1:], h = end // 2.  The
    running maximum starts just below H, the count in u of witness(x)
    joined with the top pattern of y that _suffix_capacities returns: a
    real pattern's count, so H <= M(u), and H >= M(x) * M(y) >= M(y) =
    capacities[h + 1].  witness(x) is this search on the shorter prefix.
    A prefix of at most _PLAIN_START symbols starts just below M(y).
    """
    syms, k = w.symbols, w.alphabet_size
    capacities, right = _suffix_capacities(w, end, index)
    low = capacities[end // 2 + 1]
    if end > _PLAIN_START:
        low = _count(_most_common(w, end // 2 + 1, index)[1] + right, syms[:end])
    # any start below M(u) keeps the lex-min witness
    tables = _step_tables(index, 0, end)
    return _branch_and_bound(syms, k, 0, capacities, tables, max(1, low - 1))


def _search_most_common(w: Word) -> tuple[int, tuple[int, ...], bool]:
    """Core search for max_occurrences and the extremal seed searches.

    Returns (value, witness symbols, False): _most_common on all of w,
    which never aborts.  The constant third element is the "aborted"
    flag that perfbench/layers.py reads from this name and from its
    extremal binding; it stays until library counters replace those
    bindings.
    """
    if len(w) == 0:
        return 1, (), False
    return (*_most_common(w, len(w), _position_index(w.symbols, w.alphabet_size)), False)


def _on_support(w: Word) -> tuple[Word, list[int]]:
    """w relabelled to its sorted support, and the symbol of each new label.

    A symbol absent from w is in no pattern of positive count, and the
    relabelling keeps symbol order, so it keeps every lex-min witness
    while the searches do work linear in the support, not the alphabet.
    """
    support = sorted(set(w.symbols))
    if len(support) == w.alphabet_size:
        return w, support
    code = {s: i for i, s in enumerate(support)}
    return Word(tuple(map(code.__getitem__, w.symbols)), max(1, len(support))), support


def _in_alphabet(symbols: tuple[int, ...], support: list[int], w: Word) -> Word:
    """A witness found on _on_support(w), in w's own alphabet."""
    return Word(tuple(map(support.__getitem__, symbols)), w.alphabet_size)


def max_occurrences(w: Word) -> tuple[int, Word]:
    """Most frequent scattered subsequence of w: (count, witness).

    The witness is the lexicographically smallest pattern among the
    maximisers (which is the empty pattern whenever no pattern occurs
    more than once).
    """
    require_word(w=w)
    u, support = _on_support(w)
    value, witness, _ = _search_most_common(u)
    return value, _in_alphabet(witness, support, w)


def _top_counts_by_length(
    syms: tuple[int, ...], k: int, lo: int, hi: int
) -> list[tuple[int, tuple[int, ...]]]:
    """(top count, lex-min witness) of each pattern length lo..hi.

    One explicit-stack DFS as in _branch_and_bound, for 1 <= lo <= hi
    <= len(syms).  A node of length L is expanded while, for some
    remaining length r, its binomial bound beats the best count of
    length L + r so far: r more symbols fit into the t symbols after a
    boundary at most C(t, r) ways.  Dominance
    holds for every extension length, and preorder with a strict > keeps
    the lex-min witness of each length.
    """
    n = len(syms)
    before, rank = _position_index(syms, k)
    tails = [[n - 1 - b for b in bs] for bs in before]  # symbols after each boundary
    # cols[r][s][i] = C(tails[s][i], r), built on first use.  Column r is
    # read only at depths d >= lo - 1 - r, where the boundaries b < d
    # (tails above n - lo + r) count zero, so those entries are stored
    # as 0; the C(t, r) = 0 for t < r end each list
    cols: list[list[list[int]] | None] = [None] * hi
    best = [0] * (hi + 1)
    paths: list[list[int]] = [[]] * (hi + 1)  # nxt[:L] at best[L]
    by_depth: list[list[list[int]]] = [[] for _ in range(hi)]
    # states[d] is set before it is read
    states = [[1] * (n + 1)] * hi
    nxt = [0] * hi
    # extension lengths r that reach a target length from depth d + 1
    spans = [range(max(1, lo - d - 1), hi - d) for d in range(hi)]
    depth = 0
    while depth >= 0:
        s = nxt[depth]
        if s == k:
            depth -= 1
            continue
        nxt[depth] = s + 1
        c = states[depth]
        size = depth + 1  # symbols in the child's pattern
        vals = list(map(c.__getitem__, before[s]))
        if size >= lo:
            v = sum(vals)
            if v > best[size]:
                best[size] = v
                paths[size] = nxt[:size]
            if size == hi:
                continue
        for r in spans[depth]:
            col = cols[r]
            if col is None:
                top = n - lo + r
                col = cols[r] = [
                    [comb(t, r) if t <= top else 0 for t in ts if t >= r] for ts in tails
                ]
            if sum(map(mul, vals, col[s])) > best[size + r]:
                break
        else:
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
    return [(best[size], tuple(t - 1 for t in paths[size])) for size in range(lo, hi + 1)]


def max_occurrences_of_length(w: Word, length: int) -> tuple[int, Word]:
    """Most frequent pattern of exactly the given length: (count, witness).

    A length above |w| has count 0 and witness 0^length, which is
    refused with BudgetError above FIXED_LENGTH_WITNESS_BUDGET symbols.
    """
    require_word(w=w)
    require_int(length=length)
    if length < 0:
        raise ContractError(f"length must be >= 0, got {length}")
    k = w.alphabet_size
    if length == 0:
        return 1, Word((), k)
    if length > len(w):
        if length > FIXED_LENGTH_WITNESS_BUDGET:
            raise BudgetError(
                f"witness 0^{length} is over the budget of {FIXED_LENGTH_WITNESS_BUDGET} symbols"
            )
        return 0, Word((0,) * length, k)
    u, support = _on_support(w)
    [(value, witness)] = _top_counts_by_length(u.symbols, u.alphabet_size, length, length)
    return value, _in_alphabet(witness, support, w)


def occurrence_profile(w: Word) -> list[tuple[int, Word]]:
    """(count, witness) of the most frequent pattern for every length 0..|w|."""
    require_word(w=w)
    profile = [(1, Word((), w.alphabet_size))]
    if len(w) == 0:
        return profile
    u, support = _on_support(w)
    return profile + [
        (value, _in_alphabet(witness, support, w))
        for value, witness in _top_counts_by_length(u.symbols, u.alphabet_size, 1, len(w))
    ]


def sum_over_lengths(w: Word) -> int:
    """Sum over all lengths of the per-length maximum occurrence counts."""
    return sum(value for value, _ in occurrence_profile(w))
