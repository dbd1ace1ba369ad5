"""Longest common subsequences, tuned for permutation inputs.

``lcs2`` / ``lcs3`` return exact lengths together with a witness, and
``multi_lcs`` handles any number of words (length only) by a
product-space DP under an explicit state budget.

Words in which every symbol occurs at most once ("permutation words")
admit a much faster route: a common subsequence of permutations is a
chain in the poset of per-word positions.  ``permutation_chain_lcs``
finds the longest chain for any number of words with a layer-mask
kernel over Python ints: one bit per common symbol, one "above in every
other word" mask per point built by one sweep per word, and one mask
per chain height, so each of the m points costs a few int operations
on m-bit masks and the masks take about m^2/8 bytes.  For two words
``lcs2`` keeps the Fenwick-tree increasing-subsequence sweep, which
needs no masks and is still faster there (1.0-1.3x on random
permutation pairs of 50-400 symbols); ``lcs3`` sends permutation
triples to the kernel.  The fast paths are dispatched automatically and
must agree with the DP paths -- including the witness, which on every
path is the lexicographically smallest among the maximum-length
solutions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetError, ContractError
from .words import Word

MULTI_LCS_STATE_BUDGET = 10**8
LCS3_CELL_BUDGET = 5 * 10**6


def is_permutation_word(w: Word) -> bool:
    return len(set(w.symbols)) == len(w.symbols)


def support(w: Word) -> frozenset[int]:
    return frozenset(w.symbols)


def _check_alphabets(ws: list[Word]) -> None:
    if not ws:
        raise ContractError("need at least one word")
    k = ws[0].alphabet_size
    if any(w.alphabet_size != k for w in ws):
        raise ContractError("words must share one alphabet")


# ---------------------------------------------------------------------------
# two words


def lcs2(w1: Word, w2: Word) -> tuple[int, Word]:
    """Exact LCS length and its lexicographically smallest witness.

    Permutation inputs take the increasing-subsequence route; anything
    else runs the quadratic DP.  Both routes produce identical output.
    """
    _check_alphabets([w1, w2])
    if is_permutation_word(w1) and is_permutation_word(w2):
        return _perm_lcs2(w1, w2)
    return _dp_lcs2(w1, w2)


def _dp_lcs2(w1: Word, w2: Word) -> tuple[int, Word]:
    s1, s2 = w1.symbols, w2.symbols
    n1, n2 = len(s1), len(s2)
    # suffix-LCS table: L[i][j] = LCS(s1[i:], s2[j:])
    L = [[0] * (n2 + 1) for _ in range(n1 + 1)]
    for i in range(n1 - 1, -1, -1):
        row, below = L[i], L[i + 1]
        c1 = s1[i]
        for j in range(n2 - 1, -1, -1):
            if c1 == s2[j]:
                row[j] = below[j + 1] + 1
            else:
                a, b = below[j], row[j + 1]
                row[j] = a if a >= b else b
    witness = _reconstruct_lex_min(s1, s2, L)
    return L[0][0], Word(witness, w1.alphabet_size)


def _occurrence_lists(s: tuple[int, ...]) -> dict[int, list[int]]:
    occ: dict[int, list[int]] = {}
    for p, c in enumerate(s):
        occ.setdefault(c, []).append(p)
    return occ


def _reconstruct_lex_min(s1, s2, L) -> tuple[int, ...]:
    # greedy: at each step take the smallest symbol whose earliest
    # occurrence pair still allows a full-length completion
    from bisect import bisect_left

    occ1, occ2 = _occurrence_lists(s1), _occurrence_lists(s2)
    shared = sorted(set(occ1) & set(occ2))
    out = []
    i = j = 0
    r = L[0][0]
    while r > 0:
        for sym in shared:
            ps1 = occ1[sym]
            t1 = bisect_left(ps1, i)
            if t1 == len(ps1):
                continue
            ps2 = occ2[sym]
            t2 = bisect_left(ps2, j)
            if t2 == len(ps2):
                continue
            i2, j2 = ps1[t1], ps2[t2]
            if 1 + L[i2 + 1][j2 + 1] == r:
                out.append(sym)
                i, j = i2 + 1, j2 + 1
                r -= 1
                break
        else:  # pragma: no cover - the table guarantees progress
            raise AssertionError("witness reconstruction lost the thread")
    return tuple(out)


class _MaxFenwick:
    """Prefix-maximum Fenwick tree over 1..n (values start at 0)."""

    def __init__(self, n: int):
        self.n = n
        self.tree = [0] * (n + 1)

    def update(self, i: int, value: int) -> None:
        while i <= self.n:
            if self.tree[i] < value:
                self.tree[i] = value
            i += i & -i

    def query(self, i: int) -> int:
        out = 0
        while i > 0:
            if self.tree[i] > out:
                out = self.tree[i]
            i -= i & -i
        return out


def _perm_lcs2(w1: Word, w2: Word) -> tuple[int, Word]:
    pos2 = {c: p for p, c in enumerate(w2.symbols)}
    elems = [(p1, pos2[c], c) for p1, c in enumerate(w1.symbols) if c in pos2]
    if not elems:
        return 0, Word((), w1.alphabet_size)
    n2 = len(w2)
    # heights: h(e) = longest chain starting at e, filled right to left
    bit = _MaxFenwick(n2)
    heights: dict[tuple[int, int, int], int] = {}
    best = 0
    for e in sorted(elems, reverse=True):
        h = 1 + bit.query(n2 - e[1] - 1)  # max over strictly larger p2
        heights[e] = h
        bit.update(n2 - e[1], h)
        if h > best:
            best = h
    buckets: dict[int, list[tuple[int, int, int]]] = {}
    for e, h in heights.items():
        buckets.setdefault(h, []).append(e)
    out = []
    cur1 = cur2 = -1
    for r in range(best, 0, -1):
        pick = None
        for p1, p2, sym in buckets[r]:
            if p1 > cur1 and p2 > cur2 and (pick is None or sym < pick[2]):
                pick = (p1, p2, sym)
        assert pick is not None
        out.append(pick[2])
        cur1, cur2 = pick[0], pick[1]
    return best, Word(tuple(out), w1.alphabet_size)


# ---------------------------------------------------------------------------
# three and more words


def lcs3(w1: Word, w2: Word, w3: Word, max_cells: int = LCS3_CELL_BUDGET) -> tuple[int, Word]:
    """Exact three-way LCS with witness.

    Permutation triples go through the chain reduction; the general
    case is the cubic DP, guarded by a cell budget.
    """
    _check_alphabets([w1, w2, w3])
    ws = [w1, w2, w3]
    if all(is_permutation_word(w) for w in ws):
        return permutation_chain_lcs(ws)
    cells = (len(w1) + 1) * (len(w2) + 1) * (len(w3) + 1)
    if cells > max_cells:
        raise BudgetError(
            f"three-way DP needs {cells} cells, over the budget of {max_cells}; "
            "shorter inputs or a bigger max_cells required"
        )
    return _dp_lcs3(w1, w2, w3)


def _dp_lcs3(w1: Word, w2: Word, w3: Word) -> tuple[int, Word]:
    from bisect import bisect_left

    s1, s2, s3 = w1.symbols, w2.symbols, w3.symbols
    n1, n2, n3 = len(s1), len(s2), len(s3)
    d2, d3 = n2 + 1, n3 + 1
    L = [0] * ((n1 + 1) * d2 * d3)

    def idx(i, j, l):
        return (i * d2 + j) * d3 + l

    for i in range(n1 - 1, -1, -1):
        c1 = s1[i]
        for j in range(n2 - 1, -1, -1):
            match2 = c1 == s2[j]
            base = (i * d2 + j) * d3
            base_i = ((i + 1) * d2 + j) * d3
            base_j = (i * d2 + j + 1) * d3
            base_ij = ((i + 1) * d2 + j + 1) * d3
            for l in range(n3 - 1, -1, -1):
                best = L[base_i + l]
                b = L[base_j + l]
                if b > best:
                    best = b
                b = L[base + l + 1]
                if b > best:
                    best = b
                if match2 and c1 == s3[l]:
                    b = 1 + L[base_ij + l + 1]
                    if b > best:
                        best = b
                L[base + l] = best
    occs = [_occurrence_lists(s) for s in (s1, s2, s3)]
    shared = sorted(set(occs[0]) & set(occs[1]) & set(occs[2]))
    out = []
    i = j = l = 0
    r = L[0]
    total = r
    while r > 0:
        for sym in shared:
            nxt = []
            for occ, start in ((occs[0], i), (occs[1], j), (occs[2], l)):
                ps = occ[sym]
                t = bisect_left(ps, start)
                if t == len(ps):
                    break
                nxt.append(ps[t])
            else:
                if 1 + L[idx(nxt[0] + 1, nxt[1] + 1, nxt[2] + 1)] == r:
                    out.append(sym)
                    i, j, l = nxt[0] + 1, nxt[1] + 1, nxt[2] + 1
                    r -= 1
                    break
        else:  # pragma: no cover
            raise AssertionError("witness reconstruction lost the thread")
    return total, Word(tuple(out), w1.alphabet_size)


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

    The masks take about m^2/8 bytes for m common symbols.
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
    positions = [{c: p for p, c in enumerate(w.symbols)} for w in ws]
    syms = sorted(common, key=positions[0].__getitem__)
    m = len(syms)
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


def multi_lcs(ws: list[Word], max_states: int = MULTI_LCS_STATE_BUDGET) -> int:
    """Exact LCS length of any number of words by product-space DP.

    The state space is the product of the (length+1) index ranges; a
    BudgetError names the configured cap when it would be exceeded.
    """
    _check_alphabets(ws)
    seqs = [w.symbols for w in ws]
    lens = [len(s) for s in seqs]
    states = 1
    for n in lens:
        states *= n + 1
    if states > max_states:
        raise BudgetError(
            f"product space has {states} states, over the budget of {max_states}"
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
