"""Longest common subsequences, tuned for permutation inputs.

Every route decision, and the memory bound that goes with it, lives
here.  All routes return the exact length, and ``lcs2`` / ``lcs3``
also the witness, which on every route is the lexicographically
smallest among the maximum-length common subsequences; the fast routes
are checked against the DP routes on both.

Words in which every symbol occurs at most once ("permutation words")
make a common subsequence a chain in the poset of per-word positions:

* two permutation words (``lcs2``): a patience sweep over the second
  positions, O(m log m) time and O(m) memory for m common symbols,
  then a lex-min pick from its height buckets (callers that need only
  the length, such as the block verifier's prefix classes, take the
  number of buckets and skip the pick);
* three or more permutation words (``lcs3``, ``permutation_chain_lcs``):
  a layer-mask kernel over Python ints, one m-bit "above in every other
  word" mask per point and one mask per chain height, so m^2 mask bits
  in all.  ``CHAIN_MASK_BIT_BUDGET`` (2^30 bits) bounds that: the t=3
  signed-lex blocks (m = 6561) pass, the t=4 ones (m = 65536) are
  refused with a BudgetError before any mask is built.

Pairs stay off the kernel because its masks are quadratic.  On two
random 32768-symbol permutations (one 2-vCPU x86 host, Python 3.11) the
kernel took 0.42 s and 153 MB of traced allocations, the patience sweep
0.05 s and 6 MB; t=4 block pairs would not fit the budget at all.

Anything else runs a DP with no Python step per table cell: ``lcs2``
bit-parallel rows (Allison & Dix 1986, Hyyro 2004), one n1-bit int per
suffix of the second word (n1*n2/8 bytes); ``lcs3`` one threshold list
per suffix pair of the two shorter words, each the ``map(max, ...)`` of
its neighbours, under ``LCS3_CELL_BUDGET`` (never more entries than
cells).  Both feed suffix-LCS lengths to one lex-min reconstruction.
``multi_lcs`` (length only, any number of words) is the product-space
table under ``MULTI_LCS_STATE_BUDGET``.  The three budgets are module
constants, not parameters, and each BudgetError names the one it hit.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import repeat
from operator import neg

from .errors import BudgetError, ContractError, require_word
from .words import Word

MULTI_LCS_STATE_BUDGET = 10**8
LCS3_CELL_BUDGET = 5 * 10**6
CHAIN_MASK_BIT_BUDGET = 2**30


def is_permutation_word(w: Word) -> bool:
    """Whether every symbol of ``w`` occurs at most once."""
    require_word(w=w)
    return len(set(w.symbols)) == len(w.symbols)


def support(w: Word) -> frozenset[int]:
    return frozenset(w.symbols)


def _check_alphabets(ws: list[Word]) -> None:
    if not isinstance(ws, (list, tuple)):
        raise ContractError(f"words must come as a list or tuple, got {type(ws).__name__}")
    if not ws:
        raise ContractError("need at least one word")
    if not all(map(isinstance, ws, repeat(Word))):
        require_word(**{f"word {i + 1}": w for i, w in enumerate(ws)})
    k = ws[0].alphabet_size
    if any(w.alphabet_size != k for w in ws):
        raise ContractError("words must share one alphabet")


# ---------------------------------------------------------------------------
# two words


def lcs2(w1: Word, w2: Word) -> tuple[int, Word]:
    """Exact LCS length and its lexicographically smallest witness.

    Permutation inputs take the increasing-subsequence route; anything
    else runs the bit-parallel DP.  Both routes produce identical output.
    """
    _check_alphabets([w1, w2])
    if is_permutation_word(w1) and is_permutation_word(w2):
        return _perm_lcs2(w1, w2)
    return _dp_lcs2(w1, w2)


def _dp_lcs2(w1: Word, w2: Word) -> tuple[int, Word]:
    s1, s2 = w1.symbols, w2.symbols
    n1 = len(s1)
    # Bit n1-1-i stands for s1[i], so the low p bits stand for s1[n1-p:].
    # rows[j] is V once s2[j:] is read right to left, and
    # LCS(s1[n1-p:], s2[j:]) is p minus its one bits among the low p.
    match: dict[int, int] = {}
    for i, c in enumerate(s1):
        match[c] = match.get(c, 0) | 1 << (n1 - 1 - i)
    full = v = (1 << n1) - 1
    rows = [v] * (len(s2) + 1)
    for j in range(len(s2) - 1, -1, -1):
        u = v & match.get(s2[j], 0)
        v = rows[j] = ((v + u) | (v - u)) & full
    pops = [r.bit_count() for r in rows]

    def suffix_lcs(i: int, j: int) -> int:
        p = n1 - i
        return p - pops[j] + (rows[j] >> p).bit_count()

    return suffix_lcs(0, 0), Word(_lex_min_witness((s1, s2), suffix_lcs), w1.alphabet_size)


def _occurrence_lists(s: tuple[int, ...]) -> dict[int, list[int]]:
    occ: dict[int, list[int]] = {}
    for p, c in enumerate(s):
        occ.setdefault(c, []).append(p)
    return occ


def _lex_min_witness(seqs, suffix_lcs) -> tuple[int, ...]:
    """Lexicographically smallest longest common subsequence of ``seqs``,
    where ``suffix_lcs(*starts)`` is the LCS length of the suffixes
    starting at those indices (the DP table).

    Greedy: at each step take the smallest symbol whose earliest
    occurrences after the current starts still allow a full-length
    completion.
    """
    occs = [_occurrence_lists(s) for s in seqs]
    shared = sorted(set(occs[0]).intersection(*occs[1:]))
    out = []
    starts = [0] * len(seqs)
    r = suffix_lcs(*starts)
    while r > 0:
        for sym in shared:
            nxt = []
            for occ, start in zip(occs, starts):
                ps = occ[sym]
                t = bisect_left(ps, start)
                if t == len(ps):
                    break
                nxt.append(ps[t] + 1)
            else:
                if 1 + suffix_lcs(*nxt) == r:
                    out.append(sym)
                    starts = nxt
                    r -= 1
                    break
        else:  # pragma: no cover - the table guarantees progress
            raise AssertionError("witness reconstruction lost the thread")
    return tuple(out)


def _perm_lcs2(w1: Word, w2: Word) -> tuple[int, Word]:
    buckets = _patience_sweep(w1.symbols, w2.symbols)
    # every point after and above a pick of height r + 1 has height at
    # most r, so the smallest such symbol of height r is lex-min
    out = []
    cur1 = cur2 = -1
    for bucket in reversed(buckets):
        pick = None
        for e in bucket:
            if e[0] > cur1 and e[1] > cur2 and (pick is None or e[2] < pick[2]):
                pick = e
        out.append(pick[2])
        cur1, cur2 = pick[0], pick[1]
    return len(buckets), Word(tuple(out), w1.alphabet_size)


def _patience_sweep(s1, s2) -> list[list[tuple[int, int, int]]]:
    """The points (first position, second position, symbol) of the
    symbols common to two permutation sequences, bucketed by height:
    ``buckets[h]`` holds the points whose longest chain starting there
    has h + 1 points, so there are as many buckets as the LCS length.

    Patience sweep from right to left.  A chain read backwards has
    falling second positions, so with them negated it is an increasing
    run: tails[h] is the smallest negated second position that starts a
    chain of h + 1 points among those seen.
    """
    pos2 = {c: p for p, c in enumerate(s2)}
    elems = [(p1, pos2[c], c) for p1, c in enumerate(s1) if c in pos2]
    tails: list[int] = []
    buckets: list[list[tuple[int, int, int]]] = []
    for e in reversed(elems):
        q = -e[1]
        h = bisect_left(tails, q)
        if h == len(tails):
            tails.append(q)
            buckets.append([e])
        else:
            tails[h] = q
            buckets[h].append(e)
    return buckets


# ---------------------------------------------------------------------------
# three and more words


def lcs3(w1: Word, w2: Word, w3: Word) -> tuple[int, Word]:
    """Exact three-way LCS with witness.

    Permutation triples go through the chain reduction; the general
    case is the threshold-list DP, guarded by ``LCS3_CELL_BUDGET``.
    """
    _check_alphabets([w1, w2, w3])
    ws = [w1, w2, w3]
    if all(is_permutation_word(w) for w in ws):
        return permutation_chain_lcs(ws)
    cells = (len(w1) + 1) * (len(w2) + 1) * (len(w3) + 1)
    if cells > LCS3_CELL_BUDGET:
        raise BudgetError(
            f"three-way DP needs {cells} cells, over the budget of {LCS3_CELL_BUDGET} "
            "(LCS3_CELL_BUDGET)"
        )
    return _dp_lcs3(w1, w2, w3)


def _dp_lcs3(w1: Word, w2: Word, w3: Word) -> tuple[int, Word]:
    # the lex-min LCS does not depend on the order of the words, so the
    # longest one is s3, the dimension the lists cover
    s1, s2, s3 = sorted((w1.symbols, w2.symbols, w3.symbols), key=len)
    n3 = len(s3)
    prev = {}  # prev[c][y]: the last position before y of c in s3, -1 if none
    for c in set(s1):
        P = prev[c] = [-1]
        for y, d in enumerate(s3):
            P.append(y if d == c else P[-1])
    # T[i][j][v-1]: the last l with LCS(s1[i:], s2[j:], s3[l:]) >= v
    below: list[list[int]] = [[]] * (len(s2) + 1)
    T = [below]
    for c in reversed(s1):
        get, head = prev[c].__getitem__, prev[c][n3]
        row = below[:]
        t = row[-1]
        for j in range(len(s2) - 1, -1, -1):
            a = below[j]
            t = [*map(max, a, t), *a[len(t):], *t[len(a):]]
            if head >= 0 and s2[j] == c:
                # at most one entry past t, a -1 when no c is left for it
                a = [head, *map(get, below[j + 1])]
                t = [*map(max, t, a), *t[len(a):], *a[len(t):]]
                if t[-1] < 0:
                    t.pop()
            row[j] = t
        T.append(row)
        below = row
    T.reverse()
    witness = _lex_min_witness((s1, s2, s3), lambda i, j, l: bisect_right(T[i][j], -l, key=neg))
    return len(T[0][0]), Word(witness, w1.alphabet_size)


def permutation_chain_lcs(ws: list[Word]) -> tuple[int, Word]:
    """LCS of permutation words as a longest dominance chain (with witness).

    Each symbol common to all words becomes a point whose coordinates
    are its positions; common subsequences are exactly the chains that
    increase in every coordinate.  Points are indexed by their first
    coordinate, so "later in word 0" is "higher bit", and the kernel
    works on int bitsets over those indices:

    * ``above[a]`` holds the points strictly above ``a`` in every
      coordinate after the first: one descending sweep per further word
      accumulates a mask and ANDs it in;
    * right to left, ``a`` gets height 1 + the highest layer ``h`` with
      ``above[a] & layers[h]`` nonzero (only points after ``a`` are in
      the layers yet), found by bisection over ``h``;
    * the witness takes, for ``r = best .. 1``, the smallest symbol in
      ``layers[r]`` among the points after and above the previous pick;
      every point above a pick of height r + 1 has height at most r, so
      this is the lexicographically smallest longest chain.

    The masks hold m^2 bits (about m^2/8 bytes) for m common symbols; a
    BudgetError is raised before any is built when m^2 exceeds
    ``CHAIN_MASK_BIT_BUDGET``.
    """
    _check_alphabets(ws)
    for w in ws:
        if not is_permutation_word(w):
            raise ContractError("permutation_chain_lcs needs permutation words")
    common = set(ws[0].symbols)
    for w in ws[1:]:
        common &= set(w.symbols)
    if not common:
        return 0, Word((), ws[0].alphabet_size)
    m = len(common)
    if m * m > CHAIN_MASK_BIT_BUDGET:
        raise BudgetError(
            f"chain kernel needs {m * m} mask bits for {m} common symbols, "
            f"over the budget of {CHAIN_MASK_BIT_BUDGET}"
        )
    positions = [{c: p for p, c in enumerate(w.symbols)} for w in ws]
    syms = sorted(common, key=positions[0].__getitem__)
    full = (1 << m) - 1
    above = [full] * m
    for pos in positions[1:]:
        coord = [pos[c] for c in syms]
        acc = 0
        for a in sorted(range(m), key=coord.__getitem__, reverse=True):
            above[a] &= acc
            acc |= 1 << a
    # layers[h]: the points of height h seen so far (layers[0] is unused).
    # A point of height h above a lies on a chain through points of every
    # lower height, all above a too, so the test below is monotone in h.
    layers = [0]
    for a in range(m - 1, -1, -1):
        mask = above[a]
        lo, hi = 0, len(layers) - 1
        while lo < hi:
            mid = (lo + hi + 1) >> 1
            if mask & layers[mid]:
                lo = mid
            else:
                hi = mid - 1
        if lo + 1 == len(layers):
            layers.append(1 << a)
        else:
            layers[lo + 1] |= 1 << a
    best = len(layers) - 1
    out = []
    allowed = full
    for r in range(best, 0, -1):
        cand = layers[r] & allowed
        pick = -1
        while cand:
            low = cand & -cand
            b = low.bit_length() - 1
            if pick < 0 or syms[b] < syms[pick]:
                pick = b
            cand ^= low
        out.append(syms[pick])
        allowed = above[pick] >> (pick + 1) << (pick + 1)
    return best, Word(tuple(out), ws[0].alphabet_size)


def multi_lcs(ws: list[Word]) -> int:
    """Exact LCS length of any number of words by product-space DP.

    The state space is the product of the (length+1) index ranges; a
    BudgetError is raised when it would exceed ``MULTI_LCS_STATE_BUDGET``.
    """
    _check_alphabets(ws)
    seqs = [w.symbols for w in ws]
    lens = [len(s) for s in seqs]
    states = 1
    for n in lens:
        states *= n + 1
    if states > MULTI_LCS_STATE_BUDGET:
        raise BudgetError(
            f"product space has {states} states, over the budget of "
            f"{MULTI_LCS_STATE_BUDGET} (MULTI_LCS_STATE_BUDGET)"
        )
    u = len(seqs)
    strides = [0] * u
    acc = 1
    for d in range(u - 1, -1, -1):
        strides[d] = acc
        acc *= lens[d] + 1
    L = [0] * states
    all_advance = sum(strides)
    index = [0] * u
    for flat in range(states - 2, -1, -1):
        # decode the mixed-radix index
        rem = flat
        for d in range(u):
            index[d] = rem // strides[d]
            rem %= strides[d]
        best = 0
        complete = True
        sym = None
        same = True
        for d in range(u):
            if index[d] < lens[d]:
                v = L[flat + strides[d]]
                if v > best:
                    best = v
                c = seqs[d][index[d]]
                if sym is None:
                    sym = c
                elif c != sym:
                    same = False
            else:
                complete = False
        if complete and same:
            v = 1 + L[flat + all_advance]
            if v > best:
                best = v
        L[flat] = best
    return L[0]


@dataclass(frozen=True)
class TripleProductReport:
    support_size: int
    lcs12: int
    lcs13: int
    lcs23: int
    product: int
    holds: bool


def check_triple_product(p1: Word, p2: Word, p3: Word) -> TripleProductReport:
    """For permutations of one support set, the pairwise LCS product is
    at least the support size.  Returns the three values and the verdict."""
    _check_alphabets([p1, p2, p3])
    for p in (p1, p2, p3):
        if not is_permutation_word(p):
            raise ContractError("inputs must be permutation words")
    sigma = support(p1)
    if support(p2) != sigma or support(p3) != sigma:
        raise ContractError("inputs must be permutations of one common set")
    a = lcs2(p1, p2)[0]
    b = lcs2(p1, p3)[0]
    c = lcs2(p2, p3)[0]
    product = a * b * c
    return TripleProductReport(len(sigma), a, b, c, product, product >= len(sigma))
